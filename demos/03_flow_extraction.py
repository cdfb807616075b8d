"""End-to-end dialog flow extraction on planted data.

A ground-truth transition chain over 4 user and 4 system actions emits 200
dialogs; each utterance gets an embedding inside its action's spherical
bundle. The reference graph comes from the annotations; the induced graph
comes from clustering the embeddings per speaker and using cluster ids as
actions. Both are pruned at the 0.02 noise threshold and compared by size.

Run: python demos/03_flow_extraction.py
"""

from convflow.cluster import kmeans, representative
from convflow.corpus import utterance_id
from convflow.flowgraph import (
    DotOptions,
    build_graph,
    export_dot,
    prune,
    size_difference,
    trajectories_gold,
    trajectories_induced,
)
from convflow.synth import planted_flow

pf = planted_flow(k_user=4, k_system=4, n_dialogs=200, dim=16, seed=3)
print(f"planted: {len(pf.dialogs)} dialogs, "
      f"{sum(len(d.turns) for d in pf.dialogs)} utterances, "
      f"{len(pf.user_actions)} user + {len(pf.system_actions)} system actions")

# Reference graph from ground-truth annotations
gold = prune(build_graph(trajectories_gold(pf.dialogs)), epsilon=0.02)
print(f"\nreference graph: {gold.size} nodes, {len(gold.edge_weights)} edges")
for node in gold.nodes:
    print(f"  {node}: weight {gold.node_weights[node]:.3f} (count {gold.node_counts[node]})")

# Induced graph: per-speaker spherical k-means with the gold budgets
ids_user, ids_system = [], []
texts = {}
for dialog in pf.dialogs:
    for i, turn in enumerate(dialog.turns):
        uid = utterance_id(dialog.dialog_id, i)
        texts[uid] = turn.text
        (ids_user if turn.speaker == "user" else ids_system).append(uid)

clusters_user = kmeans(pf.store, ids_user, k=4, seed=31)
clusters_system = kmeans(pf.store, ids_system, k=4, seed=32)
induced = prune(
    build_graph(trajectories_induced(pf.dialogs, clusters_user, clusters_system)),
    epsilon=0.02,
)
print(f"\ninduced graph: {induced.size} nodes, {len(induced.edge_weights)} edges")

raw, pct = size_difference(gold.size, induced.size)
print(f"size difference: {pct:.2f}% (raw {raw:+d})")

# Node labels carry the utterance closest to each cluster centroid
labels = {}
for prefix, clustering in (("U", clusters_user), ("S", clusters_system)):
    for cid in range(clustering.k):
        rep = representative(pf.store, clustering, cid)
        labels[f"{prefix}{cid}"] = f"{prefix}{cid}: {texts[rep]}"

dot = export_dot(induced, DotOptions(labels=labels))
print("\nDOT output (first lines):")
print("\n".join(dot.split("\n")[:8]))
print("...")
print("\nsame pipeline via the CLI: convflow extract --corpus c.json "
      "--embeddings e.jsonl --clusters-user 4 --clusters-system 4 --out flow/")
