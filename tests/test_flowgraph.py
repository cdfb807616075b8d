import hashlib
import http.server
import json
import re
import threading

import numpy as np
import pytest

from convflow import remote
from convflow.cluster import Clustering
from convflow.corpus import AnnotatedUtterance, UnifiedDialog
from convflow.errors import InputError
from convflow.flowgraph import (
    LLM_WORKERS,
    DotOptions,
    GraphDiff,
    Trajectory,
    TrajectoryStep,
    build_graph,
    build_label_messages,
    export_dot,
    export_json,
    extract_canonical_form,
    label_clusters_llm,
    prune,
    trajectories_gold,
    trajectories_induced,
)


def _utt(speaker, acts, slots=()):
    return AnnotatedUtterance(speaker=speaker, text="t", acts=tuple(acts), slots=tuple(slots))


def _traj(dialog_id, actions):
    steps = tuple(TrajectoryStep(speaker="user", action=a) for a in actions)
    return Trajectory(dialog_id=dialog_id, steps=steps)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def test_trajectories_gold_hospital_fragment():
    dialog = UnifiedDialog(
        dialog_id="SNG1533",
        turns=(
            _utt("user", ["inform"], ["department"]),
            _utt("system", ["request_more"]),
            _utt("user", ["request"], ["phone"]),
            _utt("system", ["inform"], ["phone"]),
            _utt("user", ["confirm"], ["phone"]),
            _utt("system", ["thank_you"]),
        ),
    )
    trajs = trajectories_gold([dialog])
    assert [s.action for s in trajs[0].steps] == [
        "user:inform department",
        "system:request_more",
        "user:request phone",
        "system:inform phone",
        "user:confirm phone",
        "system:thank_you",
    ]
    assert [s.speaker for s in trajs[0].steps] == ["user", "system"] * 3


def test_trajectories_gold_empty_and_single():
    assert trajectories_gold([]) == []
    single = UnifiedDialog("d", (_utt("user", ["greeting"]),))
    trajs = trajectories_gold([single])
    assert len(trajs[0].steps) == 1


def test_trajectories_gold_strict_missing_annotation():
    dialog = UnifiedDialog("d", (_utt("user", []),))
    with pytest.raises(InputError, match="utterance 't' has no act annotation"):
        trajectories_gold([dialog])


def test_trajectories_induced_alternating():
    dialog = UnifiedDialog(
        "d",
        (_utt("user", ["inform"]), _utt("system", ["inform"]), _utt("user", ["inform"])),
    )
    cu = Clustering(assignment={"d:0": 0, "d:2": 0}, centroids=np.array([[1.0]]), k=1)
    cs = Clustering(assignment={"d:1": 1}, centroids=np.array([[1.0], [1.0]]), k=2)
    trajs = trajectories_induced([dialog], cu, cs)
    assert [s.action for s in trajs[0].steps] == ["U0", "S1", "U0"]


def test_trajectories_induced_coverage_error():
    dialog = UnifiedDialog("d", (_utt("user", ["inform"]),))
    empty = Clustering(assignment={}, centroids=np.array([[1.0]]), k=1)
    with pytest.raises(InputError, match="^utterance 'd:0' has no cluster assignment$"):
        trajectories_induced([dialog], empty, empty)


def test_trajectories_induced_matches_direct_lookup():
    rng = np.random.default_rng(0)
    dialogs = []
    assign_u, assign_s = {}, {}
    for d in range(5):
        turns = []
        n = int(rng.integers(1, 6))
        for i in range(n):
            speaker = "user" if i % 2 == 0 else "system"
            turns.append(_utt(speaker, ["inform"]))
            uid = f"dlg{d}:{i}"
            (assign_u if speaker == "user" else assign_s)[uid] = int(rng.integers(0, 3))
        dialogs.append(UnifiedDialog(f"dlg{d}", tuple(turns)))
    cu = Clustering(assignment=assign_u, centroids=np.ones((3, 1)), k=3)
    cs = Clustering(assignment=assign_s, centroids=np.ones((3, 1)), k=3)
    trajs = trajectories_induced(dialogs, cu, cs)
    for traj, dialog in zip(trajs, dialogs):
        for i, step in enumerate(traj.steps):
            uid = f"{dialog.dialog_id}:{i}"
            if dialog.turns[i].speaker == "user":
                assert step.action == f"U{assign_u[uid]}"
            else:
                assert step.action == f"S{assign_s[uid]}"


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def test_build_graph_hand_counts():
    trajs = [_traj("d1", ["a", "b"]), _traj("d2", ["a", "b"]), _traj("d3", ["a", "c"])]
    graph = build_graph(trajs)
    assert abs(graph.edge_weights[("a", "b")] - 2 / 3) < 1e-12
    assert abs(graph.edge_weights[("a", "c")] - 1 / 3) < 1e-12
    assert abs(graph.node_weights["a"] - 1 / 2) < 1e-12
    assert abs(graph.node_weights["b"] - 1 / 3) < 1e-12
    assert abs(graph.node_weights["c"] - 1 / 6) < 1e-12


def test_build_graph_single_step_trajectory():
    graph = build_graph([_traj("d", ["a"])])
    assert graph.nodes == ("a",)
    assert graph.node_weights["a"] == 1.0
    assert graph.edge_weights == {}


def test_build_graph_no_cross_dialog_edges():
    graph = build_graph([_traj("d1", ["a", "b"]), _traj("d2", ["c", "d"])])
    assert ("b", "c") not in graph.edge_weights
    assert set(graph.edge_weights) == {("a", "b"), ("c", "d")}


def test_build_graph_empty_inputs():
    with pytest.raises(InputError, match="no non-empty trajectories"):
        build_graph([])
    with pytest.raises(InputError, match="no non-empty trajectories"):
        build_graph([Trajectory(dialog_id="d", steps=())])


def _random_trajectories(rng, n_dialogs=8, alphabet=6):
    trajs = []
    for d in range(n_dialogs):
        length = int(rng.integers(1, 8))
        actions = [f"a{int(rng.integers(alphabet))}" for _ in range(length)]
        trajs.append(_traj(f"d{d}", actions))
    return trajs


def test_build_graph_weight_invariants():
    rng = np.random.default_rng(1)
    for _ in range(20):
        graph = build_graph(_random_trajectories(rng))
        assert abs(sum(graph.node_weights.values()) - 1.0) < 1e-9
        out_sums: dict[str, float] = {}
        for (src, _), w in graph.edge_weights.items():
            out_sums[src] = out_sums.get(src, 0.0) + w
        for total in out_sums.values():
            assert abs(total - 1.0) < 1e-9


def test_build_graph_order_invariant():
    rng = np.random.default_rng(2)
    trajs = _random_trajectories(rng)
    a = build_graph(trajs)
    b = build_graph(list(reversed(trajs)))
    assert a == b


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def test_prune_removes_below_threshold():
    trajs = [_traj("d1", ["a"] * 50 + ["b"] * 49 + ["c"])]
    graph = build_graph(trajs)
    pruned = prune(graph, 0.02)
    assert set(pruned.nodes) == {"a", "b"}


def test_prune_zero_epsilon_unchanged():
    rng = np.random.default_rng(3)
    graph = build_graph(_random_trajectories(rng))
    assert prune(graph, 0.0) == graph


def test_prune_epsilon_one_empties_multinode_graph():
    graph = build_graph([_traj("d", ["a", "b"])])
    assert prune(graph, 1.0).nodes == ()


def test_prune_idempotent_and_monotone():
    rng = np.random.default_rng(4)
    for _ in range(10):
        graph = build_graph(_random_trajectories(rng))
        for eps in (0.01, 0.05, 0.2):
            once = prune(graph, eps)
            assert prune(once, eps) == once
        n_small = set(prune(graph, 0.01).nodes)
        n_big = set(prune(graph, 0.05).nodes)
        assert n_big <= n_small


def test_prune_keeps_original_weights():
    graph = build_graph([_traj("d1", ["a"] * 50 + ["b"] * 49 + ["c"])])
    pruned = prune(graph, 0.02)
    assert pruned.node_weights["a"] == graph.node_weights["a"]
    assert pruned.total_steps == graph.total_steps


# ---------------------------------------------------------------------------
# Size comparison
# ---------------------------------------------------------------------------

def test_graph_size_diff_table_values():
    d = GraphDiff.from_sizes(18, 17)
    assert d.raw == -1 and round(d.normalized_pct, 2) == 5.56
    d = GraphDiff.from_sizes(31, 31)
    assert d.raw == 0 and d.normalized_pct == 0.0
    d = GraphDiff.from_sizes(49, 50)
    assert d.raw == 1 and round(d.normalized_pct, 2) == 2.04
    d = GraphDiff.from_sizes(59, 56)
    assert d.raw == -3 and round(d.normalized_pct, 2) == 5.08


def test_graph_size_diff_empty_reference():
    with pytest.raises(InputError, match="reference graph has no nodes"):
        GraphDiff.from_sizes(0, 5)


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DOT_NODE = re.compile(r'^\s*"(?:[^"\\]|\\.)*"\s*\[[^\]]*\];$')
_DOT_EDGE = re.compile(r'^\s*"(?:[^"\\]|\\.)*"\s*->\s*"(?:[^"\\]|\\.)*"\s*\[[^\]]*\];$')
_DOT_ATTR = re.compile(r"^\s*\w+\s*=\s*\S+;$|^\s*node\s*\[[^\]]*\];$")


def _check_dot_grammar(text: str):
    lines = text.strip().split("\n")
    assert lines[0] == "digraph dialog_flow {"
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert (
            _DOT_NODE.match(line) or _DOT_EDGE.match(line) or _DOT_ATTR.match(line)
        ), f"unparseable DOT line: {line!r}"


def test_export_dot_empty_graph_header_only():
    graph = build_graph([_traj("d", ["a", "b"])])
    empty = prune(graph, 1.0)
    assert empty.nodes == ()
    text = export_dot(empty)
    assert text == "digraph dialog_flow {\n}\n"


def test_export_dot_two_nodes_one_edge():
    graph = build_graph([_traj("d", ["a", "b"])])
    text = export_dot(graph)
    assert text.count("->") == 1
    _check_dot_grammar(text)


def test_export_dot_random_graphs_parse():
    rng = np.random.default_rng(5)
    for _ in range(10):
        graph = build_graph(_random_trajectories(rng))
        _check_dot_grammar(export_dot(graph))
        _check_dot_grammar(export_dot(graph, DotOptions(labels={n: f'say "{n}"' for n in graph.nodes})))


def test_export_dot_weights_three_decimals():
    graph = build_graph([_traj("d1", ["a", "b"]), _traj("d2", ["a", "c"])])
    text = export_dot(graph)
    assert '"0.500"' in text  # edge weight a->b rendered to 3 decimals


def test_export_dot_escapes_quotes():
    graph = build_graph([_traj("d", ['act "quoted"'])])
    _check_dot_grammar(export_dot(graph))


def test_export_json_structure():
    graph = build_graph([_traj("d1", ["a", "b"]), _traj("d2", ["a"])])
    payload = json.loads(export_json(graph))
    assert {n["id"] for n in payload["nodes"]} == {"a", "b"}
    assert payload["edges"][0]["src"] == "a"
    assert payload["starts"] == {"a": 2}
    assert payload["ends"] == {"b": 1, "a": 1}
    assert payload["total_steps"] == 3


# ---------------------------------------------------------------------------
# LLM labeling
# ---------------------------------------------------------------------------

def test_build_label_messages_substitutes_utterances():
    messages = build_label_messages(["first utterance", "second utterance"])
    assert messages[0]["role"] == "system"
    assert "canonical form" in messages[0]["content"]
    assert "    1. first utterance" in messages[1]["content"]
    assert "    2. second utterance" in messages[1]["content"]
    assert messages[2]["content"].endswith(': "')


def test_extract_canonical_form_variants():
    assert extract_canonical_form('inform phone number"') == "inform phone number"
    assert extract_canonical_form('The canonical name that represent the above utterances is: "request taxi"') == "request taxi"
    assert extract_canonical_form("bare reply") == "bare reply"


class _LLMHandler(http.server.BaseHTTPRequestHandler):
    calls = 0

    def do_POST(self):
        type(self).calls += 1
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        assert payload["messages"][2]["content"].endswith(': "')
        body = json.dumps(
            {"choices": [{"message": {"content": 'inform phone number" is the canonical name'}}]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def llm_server(monkeypatch):
    monkeypatch.setattr(remote, "sleep", lambda seconds: None)
    _LLMHandler.calls = 0
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _LLMHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_address[1]}/chat"
    server.shutdown()
    server.server_close()


def test_label_clusters_llm_mock(llm_server):
    labels = label_clusters_llm([(0, ["my number is 12345", "the phone is 99"])], llm_server)
    assert labels == {0: "inform phone number"}


def test_label_clusters_llm_empty_members():
    with pytest.raises(InputError, match="cluster 0 has no member texts"):
        label_clusters_llm([(0, [])], None)


def test_label_clusters_llm_degraded_on_failure(monkeypatch):
    sleeps = []
    monkeypatch.setattr(remote, "sleep", sleeps.append)
    with pytest.warns(UserWarning):
        labels = label_clusters_llm([(1, ["a"])], "http://127.0.0.1:1/unreachable")
    assert labels == {}
    assert sleeps == [0.5, 1.0, 2.0]  # retried like the encoder before it is left unnamed


def test_label_clusters_llm_stops_calling_an_unreachable_endpoint(monkeypatch):
    sleeps = []
    monkeypatch.setattr(remote, "sleep", sleeps.append)
    clusters = [(cid, [f"utterance {cid}"]) for cid in range(17)]
    with pytest.warns(UserWarning):
        labels = label_clusters_llm(clusters, "http://127.0.0.1:1/unreachable")
    assert labels == {}
    assert 0 < len(sleeps) <= LLM_WORKERS * remote.MAX_RETRIES


def test_label_clusters_llm_cache(llm_server, tmp_path):
    cache = str(tmp_path / "llm-cache")
    clusters = [(0, ["my number is 12345"])]
    label_clusters_llm(clusters, llm_server, cache_dir=cache)
    first = _LLMHandler.calls
    labels = label_clusters_llm(clusters, llm_server, cache_dir=cache)
    assert _LLMHandler.calls == first
    assert labels == {0: "inform phone number"}


def test_label_clusters_llm_cache_key_is_sha256_of_endpoint_model_and_texts(llm_server, tmp_path):
    texts = ["my number is 12345", "the phone is 99"]
    key = hashlib.sha256("\n".join([llm_server, "m1"] + texts).encode("utf-8")).hexdigest()
    (tmp_path / f"{key}.json").write_text(json.dumps({"label": "cached name"}))
    labels = label_clusters_llm([(0, texts)], llm_server, model="m1", cache_dir=str(tmp_path))
    assert _LLMHandler.calls == 0
    assert labels == {0: "cached name"}
