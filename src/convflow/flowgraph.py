"""Dialog flow graphs: trajectory conversion, weighted transition-graph
construction, noise pruning, size comparison, DOT export, and optional
LLM-based cluster naming.

A flow graph aggregates every dialog of a domain into one weighted
directed graph: node weight = normalized action frequency, edge weight =
how often the source action is followed by the target, normalized per
source. User and system actions live in disjoint namespaces so the two
roles never merge.
"""

from __future__ import annotations

import concurrent.futures
import threading
import warnings
from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_ascii  # the C escaper behind ensure_ascii=True

from . import remote
from .cluster import Clustering
from .corpus import UnifiedDialog, action_of, utterance_id
from .errors import InputError, RemoteError, UnavailableError

DEFAULT_EPSILON = 0.02

ENV_LLM_URL = "D2F_LLM_URL"
ENV_LLM_MODEL = "D2F_LLM_MODEL"
ENV_LLM_TOKEN = "D2F_LLM_TOKEN"

LLM_WORKERS = 4  # concurrent naming requests


Trajectory = tuple[tuple[str, str], ...]  # a dialog's (action, speaker) steps, in turn order


@dataclass(frozen=True)
class FlowGraph:
    nodes: tuple[str, ...]
    node_weights: dict[str, float]  # normalized frequency, sums to 1 pre-prune
    node_counts: dict[str, int]
    edge_weights: dict[tuple[str, str], float]  # out-distribution per source
    edge_counts: dict[tuple[str, str], int]
    speakers: dict[str, str]  # node -> user|system
    start_counts: dict[str, int]
    end_counts: dict[str, int]
    total_steps: int

    @property
    def size(self) -> int:
        return len(self.nodes)

    def edges(self) -> list[tuple[str, str]]:
        return sorted(self.edge_weights)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------

def trajectories_gold(dialogs: list[UnifiedDialog]) -> list[Trajectory]:
    """Trajectories from ground-truth annotations; the step action is the
    canonical action string prefixed with the speaker role. An unannotated
    turn raises InputError."""
    shared: dict[tuple, tuple[str, str]] = {}  # (speaker, acts, slots) -> the step
    out = []
    for dialog in dialogs:
        steps = []
        for turn in dialog.turns:
            key = (turn.speaker, turn.acts, turn.slots)
            step = shared.get(key)
            if step is None:
                step = shared[key] = (f"{turn.speaker}:{action_of(turn).render()}", turn.speaker)
            steps.append(step)
        out.append(tuple(steps))
    return out


def trajectories_induced(
    dialogs: list[UnifiedDialog],
    clustering_user: Clustering,
    clustering_system: Clustering,
) -> list[Trajectory]:
    """Trajectories from per-speaker cluster assignments; step actions are
    U<cluster> / S<cluster> ids, one shared step per (speaker, cluster)."""
    step_of = {}  # speaker -> uid -> the step of its cluster
    for speaker, prefix, clustering in (("user", "U", clustering_user), ("system", "S", clustering_system)):
        steps = [(f"{prefix}{c}", speaker) for c in range(clustering.k)]
        step_of[speaker] = dict(zip(clustering.ids, map(steps.__getitem__, clustering.labels.tolist())))
    out = []
    for dialog in dialogs:
        steps = []
        for i, turn in enumerate(dialog.turns):
            uid = utterance_id(dialog.dialog_id, i)
            step = step_of["user" if turn.speaker == "user" else "system"].get(uid)
            if step is None:
                raise InputError(f"utterance '{uid}' has no cluster assignment")
            steps.append(step)
        out.append(tuple(steps))
    return out


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------

def build_graph(trajectories: list[Trajectory]) -> FlowGraph:
    """Count trajectories into the weighted action-transition graph.
    Consecutive steps within a dialog form edges; trajectories never chain
    across dialogs, and empty ones are skipped."""
    paths = [[action for action, _ in t] for t in trajectories if t]
    node_counts = Counter(chain.from_iterable(paths))
    if not node_counts:
        raise InputError("no non-empty trajectories")
    edge_counts = Counter(chain.from_iterable(zip(path, path[1:]) for path in paths))
    out_totals = Counter(chain.from_iterable(path[:-1] for path in paths))
    total_steps = sum(node_counts.values())
    return FlowGraph(
        nodes=tuple(sorted(node_counts)),
        node_weights={a: c / total_steps for a, c in node_counts.items()},
        node_counts=dict(node_counts),
        edge_weights={(a, b): c / out_totals[a] for (a, b), c in edge_counts.items()},
        edge_counts=dict(edge_counts),
        speakers=dict(chain.from_iterable(trajectories)),
        start_counts=dict(Counter(path[0] for path in paths)),
        end_counts=dict(Counter(path[-1] for path in paths)),
        total_steps=total_steps,
    )


def prune(graph: FlowGraph, epsilon: float = DEFAULT_EPSILON) -> FlowGraph:
    """Remove every node with normalized frequency below the noise
    threshold, along with its incident edges. Surviving weights keep their
    original values (no renormalization), so pruning is idempotent."""
    if not 0.0 <= epsilon <= 1.0:
        raise InputError("epsilon must be in [0, 1]")
    keep = {a for a in graph.nodes if graph.node_weights[a] >= epsilon}
    edges = {e for e in graph.edge_weights if e[0] in keep and e[1] in keep}
    return FlowGraph(
        nodes=tuple(sorted(keep)),
        node_weights={a: graph.node_weights[a] for a in keep},
        node_counts={a: graph.node_counts[a] for a in keep},
        edge_weights={e: graph.edge_weights[e] for e in edges},
        edge_counts={e: graph.edge_counts[e] for e in edges},
        speakers={a: graph.speakers[a] for a in keep},
        start_counts={a: c for a, c in graph.start_counts.items() if a in keep},
        end_counts={a: c for a, c in graph.end_counts.items() if a in keep},
        total_steps=graph.total_steps,
    )


# ---------------------------------------------------------------------------
# Size comparison
# ---------------------------------------------------------------------------

def size_difference(reference_size: int, induced_size: int) -> tuple[int, float]:
    """Induced-vs-reference graph size: the signed raw difference and the
    absolute difference in percent of the reference size."""
    if reference_size < 1:
        raise InputError("reference graph has no nodes")
    raw = induced_size - reference_size
    return raw, abs(raw) / reference_size * 100.0


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DotOptions:
    labels: dict[str, str] = field(default_factory=dict)  # node -> display label


def _dot_quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: FlowGraph, options: DotOptions | None = None) -> str:
    """Render the graph as DOT with stable ordering; weights to 3 decimals.
    Edge penwidth tracks w_E and node border penwidth tracks w_A, echoing
    frequency the way the reference renderings do; the fill colour marks the speaker."""
    options = options or DotOptions()
    lines = ["digraph dialog_flow {"]
    if graph.nodes:
        lines.append("  rankdir=LR;")
        lines.append('  node [shape=box, style="rounded,filled"];')
    ids = {node: _dot_quote(node) for node in graph.nodes}
    for node in sorted(graph.nodes):
        weight = graph.node_weights[node]
        label = _dot_quote(f"{options.labels.get(node, node)} ({weight:.3f})")
        color = "#ffe0cc" if graph.speakers.get(node) == "user" else "#cce5ff"
        lines.append(f'  {ids[node]} [label={label}, penwidth={1.0 + 6.0 * weight:.3f}, fillcolor="{color}"];')
    for (src, dst), weight in sorted(graph.edge_weights.items()):  # a formatted weight needs no escapes
        lines.append(f'  {ids[src]} -> {ids[dst]} [label="{weight:.3f}", penwidth={1.0 + 4.0 * weight:.3f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# The layout json.dumps(payload, indent=2, sort_keys=True) gives flow.json;
# export_json fills it in directly, because with an indent set json.dumps
# skips its C encoder for a pure-Python one.
_JSON_GRAPH = """{
  "edges": %s,
  "ends": %s,
  "nodes": %s,
  "starts": %s,
  "total_steps": %d
}"""
_JSON_NODE = """{
      "count": %d,
      "id": %s,
      "label": %s,
      "speaker": %s,
      "weight": %r
    }"""
_JSON_EDGE = """{
      "count": %d,
      "dst": %s,
      "src": %s,
      "weight": %r
    }"""


def _json_block(open_: str, entries: list[str], close: str) -> str:
    """A top-level value of flow.json: `entries` one per line at depth 2;
    empty renders as `open_ + close`, as json.dumps does."""
    if not entries:
        return open_ + close
    return f"{open_}\n    " + ",\n    ".join(entries) + f"\n  {close}"


def export_json(graph: FlowGraph, labels: dict[str, str] | None = None) -> str:
    """Structured-text export: node and edge records plus the start/end
    statistics, which are not part of the graph itself. The text equals
    `json.dumps(payload, indent=2, sort_keys=True)` of those records byte
    for byte."""
    labels = labels or {}
    ids = {node: _encode_ascii(node) for node in graph.nodes}
    nodes = [
        _JSON_NODE % (
            graph.node_counts[node],
            ids[node],
            _encode_ascii(labels[node]) if node in labels else ids[node],
            _encode_ascii(graph.speakers[node]) if node in graph.speakers else "null",
            graph.node_weights[node],
        )
        for node in sorted(graph.nodes)
    ]
    edges = [
        _JSON_EDGE % (graph.edge_counts[edge], ids[edge[1]], ids[edge[0]], graph.edge_weights[edge])
        for edge in graph.edges()
    ]
    starts, ends = (
        _json_block("{", [f"{ids[node]}: {n}" for node, n in sorted(counts.items())], "}")
        for counts in (graph.start_counts, graph.end_counts)
    )
    return _JSON_GRAPH % (
        _json_block("[", edges, "]"), ends, _json_block("[", nodes, "]"), starts, graph.total_steps
    )


# ---------------------------------------------------------------------------
# LLM cluster naming
# ---------------------------------------------------------------------------

LLM_SYSTEM_PROMPT = """Your task is to annotate conversational utterances with the intent expressed as canonical forms. A canonical form is a short summary representing the intent of a set of utterances - it is neither too verbose nor too short.
Be aware that required canonical forms should avoid containing specific names or quantities, only represent the intent in abstract terms.
For example, for:

For the following utterances:
    1. Uh yes i'm looking for a place for entertainment that is in the center of the city
    2. i would like to know where a place for entertainment that is not far away from my location
Canonical form is: "request entertainment place and inform location"

For the following utterances:
    1. Okay so the phone number is a 1223217297
    2. Sure, my phone number is four four five five
    3. 2 3 4 5 6 is her phone number
Canonical form is: "inform phone number"

For the following utterances:
    1. 8 4 0
    2. yes five five three
Canonical form is: "inform number"
"""

LLM_USER_PROMPT = """Give the following list of utterance provide a single canonical name that represent all of them:
{utterances}"""

LLM_ASSISTANT_PRIMER = 'The canonical name that represent the above utterances is: "'


def build_label_messages(member_texts: list[str]) -> list[dict[str, str]]:
    """The chat-completion message array with cluster utterances substituted
    as a numbered list."""
    numbered = "\n".join(f"    {i + 1}. {text}" for i, text in enumerate(member_texts))
    return [
        {"role": "system", "content": LLM_SYSTEM_PROMPT},
        {"role": "user", "content": LLM_USER_PROMPT.format(utterances=numbered)},
        {"role": "assistant", "content": LLM_ASSISTANT_PRIMER},
    ]


def extract_canonical_form(reply: str) -> str:
    """Pull the quoted canonical form out of a completion. The primer ends
    inside an open quote, so a well-behaved reply is `<label>"...`; replies
    that restate the sentence carry a full quoted span instead."""
    if reply.count('"') >= 2:
        start = reply.index('"') + 1
        return reply[start : reply.index('"', start)].strip()
    if '"' in reply:
        return reply[: reply.index('"')].strip()
    return reply.strip()


def label_clusters_llm(
    clusters: list[tuple[Hashable, list[str]]],
    endpoint: str,
    model: str | None = None,
    token: str | None = None,
) -> dict[Hashable, str]:
    """Name (key, member texts) clusters through a chat-completion endpoint,
    LLM_WORKERS at a time; the result maps each named cluster's key to its name.

    Requests go through `remote.post_json` (HTTP 5xx and connection failures
    retried 3 times with 0.5 s doubling backoff). A cluster whose request
    still fails, or whose reply is malformed, is left out of the result with
    a warning; once one request has failed past its retries, clusters not yet
    sent are left out without a request.
    """
    for cid, texts in clusters:
        if not texts:
            raise InputError(f"cluster {cid} has no member texts")
    down = threading.Event()  # set once a request has failed past its retries

    def one(cluster: tuple[Hashable, list[str]]) -> str | None:
        cid, texts = cluster
        payload = {"messages": build_label_messages(texts)} | ({"model": model} if model else {})
        try:
            if down.is_set():
                raise UnavailableError("not sent: the endpoint is down")
            content = remote.post_json(endpoint, payload, token)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise RemoteError(f"completion content is a {type(content).__name__}")
        except (RemoteError, LookupError, TypeError) as exc:
            if isinstance(exc, UnavailableError):
                down.set()
            warnings.warn(f"cluster {cid} labeling failed ({exc!r}); left unnamed")
            return None
        return extract_canonical_form(content)

    with concurrent.futures.ThreadPoolExecutor(max_workers=LLM_WORKERS) as pool:
        named = zip((cid for cid, _ in clusters), pool.map(one, clusters))
        return {cid: label for cid, label in named if label is not None}
