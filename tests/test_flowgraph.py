import dataclasses
import json
import re

import numpy as np
import pytest

from convflow import remote
from convflow.cluster import Clustering
from convflow.corpus import AnnotatedUtterance, UnifiedDialog
from convflow.errors import InputError
from convflow.flowgraph import (
    LLM_WORKERS,
    DotOptions,
    build_graph,
    build_label_messages,
    export_dot,
    export_json,
    extract_canonical_form,
    label_clusters_llm,
    prune,
    size_difference,
    trajectories_gold,
    trajectories_induced,
)
from mockserver import Handler, serving


def _utt(speaker, acts, slots=()):
    return AnnotatedUtterance(speaker=speaker, text="t", acts=tuple(acts), slots=tuple(slots))


def _traj(actions):
    return tuple((a, "user") for a in actions)


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
    assert trajs[0] == (
        ("user:inform department", "user"),
        ("system:request_more", "system"),
        ("user:request phone", "user"),
        ("system:inform phone", "system"),
        ("user:confirm phone", "user"),
        ("system:thank_you", "system"),
    )


def test_trajectories_gold_empty_and_single():
    assert trajectories_gold([]) == []
    single = UnifiedDialog("d", (_utt("user", ["greeting"]),))
    trajs = trajectories_gold([single])
    assert trajs == [(("user:greeting", "user"),)]


def test_trajectories_gold_strict_missing_annotation():
    dialog = UnifiedDialog("d", (_utt("user", []),))
    with pytest.raises(InputError, match="utterance 't' has no act annotation"):
        trajectories_gold([dialog])


def test_trajectories_induced_alternating():
    dialog = UnifiedDialog(
        "d",
        (_utt("user", ["inform"]), _utt("system", ["inform"]), _utt("user", ["inform"])),
    )
    cu = Clustering(ids=("d:0", "d:2"), labels=[0, 0], centroids=np.array([[1.0]]))
    cs = Clustering(ids=("d:1",), labels=[1], centroids=np.array([[1.0], [1.0]]))
    trajs = trajectories_induced([dialog], cu, cs)
    assert trajs == [(("U0", "user"), ("S1", "system"), ("U0", "user"))]


def test_trajectories_induced_coverage_error():
    dialog = UnifiedDialog("d", (_utt("user", ["inform"]),))
    empty = Clustering(ids=(), labels=[], centroids=np.array([[1.0]]))
    with pytest.raises(InputError, match="^utterance 'd:0' has no cluster assignment$"):
        trajectories_induced([dialog], empty, empty)


def test_trajectories_induced_looks_up_a_user_turn_only_in_the_user_clustering():
    dialog = UnifiedDialog("d", (_utt("user", ["inform"]), _utt("system", ["inform"])))
    cu = Clustering(ids=("d:1",), labels=[0], centroids=np.array([[1.0]]))
    cs = Clustering(ids=("d:0", "d:1"), labels=[0, 0], centroids=np.array([[1.0]]))
    with pytest.raises(InputError, match="^utterance 'd:0' has no cluster assignment$"):
        trajectories_induced([dialog], cu, cs)


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
    cu = Clustering(ids=tuple(assign_u), labels=list(assign_u.values()), centroids=np.ones((3, 1)))
    cs = Clustering(ids=tuple(assign_s), labels=list(assign_s.values()), centroids=np.ones((3, 1)))
    trajs = trajectories_induced(dialogs, cu, cs)
    for traj, dialog in zip(trajs, dialogs):
        for i, (action, speaker) in enumerate(traj):
            uid = f"{dialog.dialog_id}:{i}"
            assert speaker == dialog.turns[i].speaker
            if speaker == "user":
                assert action == f"U{assign_u[uid]}"
            else:
                assert action == f"S{assign_s[uid]}"


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def test_build_graph_hand_counts():
    trajs = [_traj(["a", "b"]), _traj(["a", "b"]), _traj(["a", "c"])]
    graph = build_graph(trajs)
    assert abs(graph.edge_weights[("a", "b")] - 2 / 3) < 1e-12
    assert abs(graph.edge_weights[("a", "c")] - 1 / 3) < 1e-12
    assert abs(graph.node_weights["a"] - 1 / 2) < 1e-12
    assert abs(graph.node_weights["b"] - 1 / 3) < 1e-12
    assert abs(graph.node_weights["c"] - 1 / 6) < 1e-12


def test_build_graph_single_step_trajectory():
    graph = build_graph([_traj(["a"])])
    assert graph.nodes == ("a",)
    assert graph.node_weights["a"] == 1.0
    assert graph.edge_weights == {}


def test_build_graph_no_cross_dialog_edges():
    graph = build_graph([_traj(["a", "b"]), _traj(["c", "d"])])
    assert ("b", "c") not in graph.edge_weights
    assert set(graph.edge_weights) == {("a", "b"), ("c", "d")}


def test_build_graph_empty_inputs():
    with pytest.raises(InputError, match="no non-empty trajectories"):
        build_graph([])
    with pytest.raises(InputError, match="no non-empty trajectories"):
        build_graph([()])


def _random_trajectories(rng, n_dialogs=8, alphabet=6):
    trajs = []
    for _ in range(n_dialogs):
        length = int(rng.integers(1, 8))
        actions = [f"a{int(rng.integers(alphabet))}" for _ in range(length)]
        trajs.append(_traj(actions))
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
    trajs = [_traj(["a"] * 50 + ["b"] * 49 + ["c"])]
    graph = build_graph(trajs)
    pruned = prune(graph, 0.02)
    assert set(pruned.nodes) == {"a", "b"}


def test_prune_zero_epsilon_unchanged():
    rng = np.random.default_rng(3)
    graph = build_graph(_random_trajectories(rng))
    assert prune(graph, 0.0) == graph


def test_prune_epsilon_one_empties_multinode_graph():
    graph = build_graph([_traj(["a", "b"])])
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
    graph = build_graph([_traj(["a"] * 50 + ["b"] * 49 + ["c"])])
    pruned = prune(graph, 0.02)
    assert pruned.node_weights["a"] == graph.node_weights["a"]
    assert pruned.total_steps == graph.total_steps


# ---------------------------------------------------------------------------
# Size comparison
# ---------------------------------------------------------------------------

def test_graph_size_diff_table_values():
    raw, pct = size_difference(18, 17)
    assert raw == -1 and round(pct, 2) == 5.56
    assert size_difference(31, 31) == (0, 0.0)
    raw, pct = size_difference(49, 50)
    assert raw == 1 and round(pct, 2) == 2.04
    raw, pct = size_difference(59, 56)
    assert raw == -3 and round(pct, 2) == 5.08


def test_graph_size_diff_empty_reference():
    with pytest.raises(InputError, match="reference graph has no nodes"):
        size_difference(0, 5)


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
    graph = build_graph([_traj(["a", "b"])])
    empty = prune(graph, 1.0)
    assert empty.nodes == ()
    text = export_dot(empty)
    assert text == "digraph dialog_flow {\n}\n"


def test_export_dot_two_nodes_one_edge():
    graph = build_graph([_traj(["a", "b"])])
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
    graph = build_graph([_traj(["a", "b"]), _traj(["a", "c"])])
    text = export_dot(graph)
    assert '"0.500"' in text  # edge weight a->b rendered to 3 decimals


def test_export_dot_escapes_quotes():
    graph = build_graph([_traj(['act "quoted"'])])
    _check_dot_grammar(export_dot(graph))


def test_export_json_structure():
    graph = build_graph([_traj(["a", "b"]), _traj(["a"])])
    payload = json.loads(export_json(graph))
    assert {n["id"] for n in payload["nodes"]} == {"a", "b"}
    assert payload["edges"][0]["src"] == "a"
    assert payload["starts"] == {"a": 2}
    assert payload["ends"] == {"b": 1, "a": 1}
    assert payload["total_steps"] == 3


def _reference_export_json(graph, labels=None) -> str:
    """The payload through json.dumps, which `export_json` renders directly."""
    labels = labels or {}
    payload = {
        "nodes": [
            {
                "id": node,
                "label": labels.get(node, node),
                "speaker": graph.speakers.get(node),
                "weight": graph.node_weights[node],
                "count": graph.node_counts[node],
            }
            for node in sorted(graph.nodes)
        ],
        "edges": [
            {
                "src": src,
                "dst": dst,
                "weight": graph.edge_weights[(src, dst)],
                "count": graph.edge_counts[(src, dst)],
            }
            for src, dst in graph.edges()
        ],
        "starts": {k: graph.start_counts[k] for k in sorted(graph.start_counts)},
        "ends": {k: graph.end_counts[k] for k in sorted(graph.end_counts)},
        "total_steps": graph.total_steps,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


# names json escapes: non-ASCII (one BMP, one astral, one lone surrogate), a quote, a backslash, controls
_AWKWARD = ["a", "b", "U0: café", "say \"hi\"", "c:\\path", "tab\there", "nl\n\x01\x1f", "\u2603", "\U0001f600", "\ud800x"]


def test_export_json_equals_json_dumps_byte_for_byte():
    rng = np.random.default_rng(11)
    for case in range(60):
        alphabet = [_AWKWARD[i] for i in rng.permutation(len(_AWKWARD))[: int(rng.integers(1, len(_AWKWARD) + 1))]]
        trajs = [
            tuple((alphabet[int(rng.integers(len(alphabet)))], "user" if rng.random() < 0.5 else "system")
                  for _ in range(int(rng.integers(1, 9))))
            for _ in range(int(rng.integers(1, 12)))
        ]
        graph = build_graph(trajs)
        labels = {node: f"{node[::-1]} é\\\"" for node in graph.nodes if rng.random() < 0.5}
        unspoken = dataclasses.replace(graph, speakers={n: s for n, s in graph.speakers.items() if n != graph.nodes[0]})
        for g, lab in ((graph, None), (graph, {}), (graph, labels), (unspoken, labels), (prune(graph, 0.2), labels)):
            assert export_json(g, labels=lab) == _reference_export_json(g, lab), case
    empty = prune(build_graph([_traj(["a", "b"])]), 1.0)
    assert export_json(empty) == _reference_export_json(empty)
    assert '"edges": []' in export_json(empty) and '"ends": {}' in export_json(empty)


def _reference_export_dot(graph, options=None) -> str:
    """The DOT export quoting every id again at each use, which `export_dot`
    quotes once per node."""

    def quote(s: str) -> str:
        return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

    options = options or DotOptions()
    lines = ["digraph dialog_flow {"]
    if graph.nodes:
        lines.append("  rankdir=LR;")
        lines.append('  node [shape=box, style="rounded,filled"];')
    for node in sorted(graph.nodes):
        weight = graph.node_weights[node]
        label = quote(f"{options.labels.get(node, node)} ({weight:.3f})")
        color = "#ffe0cc" if graph.speakers.get(node) == "user" else "#cce5ff"
        lines.append(f'  {quote(node)} [label={label}, penwidth={1.0 + 6.0 * weight:.3f}, fillcolor="{color}"];')
    for src, dst in graph.edges():
        weight = graph.edge_weights[(src, dst)]
        lines.append(f"  {quote(src)} -> {quote(dst)} [label={quote(f'{weight:.3f}')}, "
                     f"penwidth={1.0 + 4.0 * weight:.3f}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def test_export_dot_equals_the_quote_per_use_export_byte_for_byte():
    rng = np.random.default_rng(12)
    for case in range(60):
        alphabet = [_AWKWARD[i] for i in rng.permutation(len(_AWKWARD))[: int(rng.integers(1, len(_AWKWARD) + 1))]]
        trajs = [
            tuple((alphabet[int(rng.integers(len(alphabet)))], "user" if rng.random() < 0.5 else "system")
                  for _ in range(int(rng.integers(1, 9))))
            for _ in range(int(rng.integers(1, 12)))
        ]
        graph = build_graph(trajs)
        options = DotOptions(labels={node: f"{node[::-1]} \\\"" for node in graph.nodes if rng.random() < 0.5})
        for g, opts in ((graph, None), (graph, options), (prune(graph, 0.2), options)):
            assert export_dot(g, opts) == _reference_export_dot(g, opts), case
    empty = prune(build_graph([_traj(["a", "b"])]), 1.0)
    assert export_dot(empty) == _reference_export_dot(empty)


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


class _LLMHandler(Handler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        assert payload["messages"][2]["content"].endswith(': "')
        self.reply(json.dumps({"choices": [{"message": {"content": 'inform phone number" is the canonical name'}}]}).encode())


@pytest.fixture()
def llm_server(monkeypatch):
    monkeypatch.setattr(remote, "sleep", lambda seconds: None)
    with serving(_LLMHandler, "/chat") as url:
        yield url


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
