"""Correctness checks. Each compares a command's output with a computation
made here, apart from convflow, or with a property the method must have.
A check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from workloads import SWEEP_GRID, Agglomerative, Inputs, Workload, run_cli

COS_30 = math.cos(math.radians(30))
COS_60 = math.cos(math.radians(60))


def command_vectors(inputs: Inputs, workload: Workload) -> tuple[list, np.ndarray]:
    """Sorted ids and the unit vectors the commands see: the generated
    vectors, rounded to float32 when the file format is binary."""
    ids = sorted(inputs.labels)
    x = np.stack([inputs.planted.store.vectors[uid] for uid in ids])
    if workload.embedding_format == "binary":
        x = x.astype("<f4").astype(np.float64)
    return ids, x / np.linalg.norm(x, axis=1, keepdims=True)


def check_ingest(inputs: Inputs, out_path: str, scratch: str) -> list:
    again = os.path.join(scratch, "ingest-again.json")
    code = run_cli(inputs.cv, ["ingest", "--corpus", out_path, "--out", again])
    if code != 0:
        return [f"ingest of its own output exited {code}"]
    with open(out_path, "rb") as a, open(again, "rb") as b:
        return [] if a.read() == b.read() else ["ingest of its own output is not byte-identical"]


def check_eval(inputs: Inputs, workload: Workload, report_path: str) -> list:
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    ids, x = command_vectors(inputs, workload)
    actions = sorted(set(inputs.labels.values()))
    index = {a: i for i, a in enumerate(actions)}
    label = np.asarray([index[inputs.labels[uid]] for uid in ids])
    sums = np.zeros((len(actions), x.shape[1]))
    np.add.at(sums, label, x)
    n = np.bincount(label, minlength=len(actions)).astype(np.float64)
    sq = np.bincount(label, weights=np.einsum("ij,ij->i", x, x), minlength=len(actions))
    # off-diagonal sum of an action's Gram matrix = |s_a|^2 - sum |x|^2
    intra = np.mean(np.abs(np.einsum("ij,ij->i", sums, sums) - sq) / (n * n - n))
    cross = np.abs(sums @ sums.T) / np.outer(n, n)
    inter = cross[np.triu_indices(len(actions), 1)].mean()
    failures = []
    got = report["anisotropy"]
    for name, mine in (("intra", intra), ("inter", inter), ("delta", intra - inter)):
        if not abs(got[name] - mine) <= 1e-9:
            failures.append(f"eval {name} anisotropy {got[name]!r} != recomputed {mine!r}")
    for k, row in report["kshot"].items():
        for field in ("f1_macro_mean", "accuracy_mean"):
            if row[field] != 1.0:
                failures.append(f"eval {k}-shot {field} = {row[field]!r}, expected 1.0")
    if report["ndcg"]["mean"] != 1.0:
        failures.append(f"eval nDCG@10 = {report['ndcg']['mean']!r}, expected 1.0")
    return failures + _check_separation(inputs, label)


def _check_separation(inputs: Inputs, label: np.ndarray) -> list:
    """Planted bundles lie within 15 degrees of orthogonal centres: every
    same-action cosine is >= cos 30 and every cross-action one <= cos 60,
    which is why k-shot and nDCG must score 1.0."""
    ids = sorted(inputs.labels)
    order = np.argsort(label, kind="stable")
    x = np.stack([inputs.planted.store.vectors[ids[i]] for i in order])
    bounds = np.searchsorted(label[order], np.arange(label.max() + 2))
    lowest_same, highest_cross = 1.0, -1.0
    for a in range(len(bounds) - 1):
        lo, hi = bounds[a], bounds[a + 1]
        for start in range(lo, hi, 256):
            sims = x[start : min(start + 256, hi)] @ x.T
            lowest_same = min(lowest_same, float(sims[:, lo:hi].min()))
            outside = np.concatenate([sims[:, :lo], sims[:, hi:]], axis=1)
            highest_cross = max(highest_cross, float(outside.max()))
    failures = []
    if lowest_same < COS_30 - 1e-9:
        failures.append(f"planted same-action cosine {lowest_same:.6f} < cos 30")
    if highest_cross > COS_60 + 1e-9:
        failures.append(f"planted cross-action cosine {highest_cross:.6f} > cos 60")
    return failures


def transition_graph(trajectories: list, epsilon: float) -> dict:
    """flow.json's structural content (labels aside), counted here from
    trajectories of (speaker, node) steps under the rule: keep a node when
    its count / total steps >= epsilon, and an edge when both ends are kept."""
    nodes, edges, out_totals, speakers, starts, ends = {}, {}, {}, {}, {}, {}
    total = 0
    for steps in trajectories:
        for speaker, node in steps:
            nodes[node] = nodes.get(node, 0) + 1
            speakers[node] = speaker
            total += 1
        starts[steps[0][1]] = starts.get(steps[0][1], 0) + 1
        ends[steps[-1][1]] = ends.get(steps[-1][1], 0) + 1
        for (_, a), (_, b) in zip(steps, steps[1:]):
            edges[(a, b)] = edges.get((a, b), 0) + 1
            out_totals[a] = out_totals.get(a, 0) + 1
    keep = {a for a, c in nodes.items() if c / total >= epsilon}
    return {
        "nodes": [
            {"id": a, "speaker": speakers[a], "weight": nodes[a] / total, "count": nodes[a]} for a in sorted(keep)
        ],
        "edges": [
            {"src": a, "dst": b, "weight": c / out_totals[a], "count": c}
            for (a, b), c in sorted(edges.items())
            if a in keep and b in keep
        ],
        "starts": {a: c for a, c in sorted(starts.items()) if a in keep},
        "ends": {a: c for a, c in sorted(ends.items()) if a in keep},
        "total_steps": total,
    }


def _structure(flow: dict) -> dict:
    out = dict(flow)
    out["nodes"] = [{k: v for k, v in node.items() if k != "label"} for node in flow["nodes"]]
    return out


def _compare_graph(what: str, flow_path: str, expected: dict) -> list:
    with open(flow_path, encoding="utf-8") as fh:
        got = _structure(json.load(fh))
    if got == expected:
        return []
    return [f"{what}: flow.json differs from the recounted graph ({len(got['nodes'])} vs {len(expected['nodes'])} nodes)"]


def _dialog_steps(inputs: Inputs, node_of) -> list:
    return [
        [(turn.speaker, node_of(f"{dialog.dialog_id}:{i}")) for i, turn in enumerate(dialog.turns)]
        for dialog in inputs.planted.dialogs
    ]


def check_gold(inputs: Inputs, workload: Workload, out_dir: str) -> list:
    expected = transition_graph(_dialog_steps(inputs, inputs.labels.__getitem__), workload.epsilon)
    failures = _compare_graph("extract --gold", os.path.join(out_dir, "flow.json"), expected)
    with open(os.path.join(out_dir, "flow.json"), encoding="utf-8") as fh:
        if any(node["label"] != node["id"] for node in json.load(fh)["nodes"]):
            failures.append("extract --gold: a node label differs from its id")
    return failures


def check_induced(inputs: Inputs, workload: Workload, out_dir: str) -> list:
    """Each clusters_<role>.tsv is an exact k-partition of the role's
    utterances at a k-means fixed point (every utterance's cluster has the
    highest cosine to it, up to the 1e-6 convergence tolerance); each node
    label names its cluster's member closest to the centroid; flow.json is
    the graph recounted over the cluster-id trajectories."""
    ids, x = command_vectors(inputs, workload)
    row = {uid: i for i, uid in enumerate(ids)}
    texts = {
        f"{d.dialog_id}:{i}": turn.text for d in inputs.planted.dialogs for i, turn in enumerate(d.turns)
    }
    failures, assignment, labels = [], {}, {}
    for role, prefix, k in (("user", "U", workload.k_user), ("system", "S", workload.k_system)):
        with open(os.path.join(out_dir, f"clusters_{role}.tsv"), encoding="utf-8") as fh:
            part = {uid: int(cid) for uid, cid in (line.split("\t") for line in fh.read().splitlines())}
        role_ids = sorted(uid for uid in ids if inputs.labels[uid].startswith(role + ":"))
        if sorted(part) != role_ids or sorted(set(part.values())) != list(range(k)):
            failures.append(f"clusters_{role}.tsv is not a {k}-partition of the {role} utterances")
            continue
        xr = x[[row[uid] for uid in role_ids]]
        cid = np.asarray([part[uid] for uid in role_ids])
        centroids = np.stack([xr[cid == c].mean(axis=0) for c in range(k)])
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        sims = xr @ centroids.T
        own = sims[np.arange(len(role_ids)), cid]
        if np.any(own < sims.max(axis=1) - 2e-6):
            failures.append(f"clusters_{role}.tsv: an utterance is not in its nearest cluster")
        for c in range(k):
            idx = np.flatnonzero(cid == c)
            best = role_ids[idx[int(np.argmax(own[idx]))]]
            labels[f"{prefix}{c}"] = f"{prefix}{c}: {texts[best][:40]}"
        assignment.update({uid: f"{prefix}{part[uid]}" for uid in role_ids})
    if failures:
        return failures
    flow_path = os.path.join(out_dir, "flow.json")
    expected = transition_graph(_dialog_steps(inputs, assignment.__getitem__), workload.epsilon)
    failures += _compare_graph("induced extract", flow_path, expected)
    with open(flow_path, encoding="utf-8") as fh:
        if any(node["label"] != labels[node["id"]] for node in json.load(fh)["nodes"]):
            failures.append("induced extract: a node label is not its representative's text")
    return failures


def check_agglomerative(inputs: Inputs, agg: Agglomerative) -> list:
    """Merge heights equal scipy's average/cosine linkage within 1e-9; the
    cut at the planted action count recovers the planted partition."""
    from scipy.cluster.hierarchy import linkage

    x = np.stack([inputs.planted.store.vectors[uid] for uid in inputs.subsample])
    reference = linkage(x, method="average", metric="cosine")[:, 2]
    heights = np.sort([merge[2] for merge in agg.dendrogram.merges])
    failures = []
    if not np.allclose(heights, reference, rtol=0.0, atol=1e-9):
        gap = float(np.max(np.abs(heights - reference)))
        failures.append(f"agglomerative merge heights differ from scipy by up to {gap:.3g}")
    groups: dict = {}
    for uid, c in agg.clustering.assignment.items():
        groups.setdefault(c, set()).add(uid)
    planted: dict = {}
    for uid in inputs.subsample:
        planted.setdefault(inputs.labels[uid], set()).add(uid)
    if sorted(map(sorted, groups.values())) != sorted(map(sorted, planted.values())):
        failures.append("agglomerative cut does not recover the planted partition")
    return failures


def check_sweep(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    grid = sorted(float(v) for v in SWEEP_GRID.split(","))
    if lines[0] != "tau_label\tf1_5shot\tanisotropy_delta" or len(lines) != len(grid) + 1:
        return [f"sweep.tsv has {len(lines) - 1} rows, expected {len(grid)}"]
    rows = [[float(v) for v in line.split("\t")] for line in lines[1:]]
    failures = []
    if [r[0] for r in rows] != grid:
        failures.append("sweep.tsv rows are not the grid values in ascending order")
    if not all(math.isfinite(v) for r in rows for v in r):
        failures.append("sweep.tsv has a non-finite value")
    if not all(0.0 <= r[1] <= 1.0 for r in rows):
        failures.append("sweep.tsv has an F1 outside [0, 1]")
    return failures
