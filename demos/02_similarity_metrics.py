"""Score an embedding space with the similarity-based metric battery:
intra/inter-action anisotropy, prototypical k-shot classification, and
nDCG@10, each with the 10-repetition mean/std protocol.

Run: python demos/02_similarity_metrics.py
"""

import numpy as np

from convflow.corpus import ActionLabel
from convflow.embedding import build_store
from convflow.evaluation import LabeledEmbeddings, evaluate, report_to_json

rng = np.random.default_rng(7)

# Two synthetic spaces over the same 8 actions: one organized (tight
# bundles around orthogonal directions), one a blur (all vectors near a
# common cone). The metrics should tell them apart sharply.
n_actions, per_action, dim = 8, 20, 16
centers = np.linalg.qr(rng.standard_normal((dim, n_actions)))[0].T


def make_space(noise_scale):
    pairs, labels = [], {}
    for a in range(n_actions):
        for i in range(per_action):
            uid = f"a{a}u{i}"
            pairs.append((uid, centers[a] + noise_scale * rng.standard_normal(dim)))
            labels[uid] = ActionLabel.make("inform", [f"field_{a}"])
    store = build_store(pairs, normalize=True)
    return LabeledEmbeddings(store=store, labels=labels)


for name, noise in [("organized space", 0.15), ("blurred space", 1.5)]:
    data = make_space(noise)
    report = evaluate(data, kshots=(1, 5), ndcg_k=10, repetitions=10, seed=0)
    print(f"== {name}")
    print(f"  anisotropy: intra {report.intra:.3f}, inter {report.inter:.3f}, "
          f"delta {report.delta:.3f}")
    for k in report.kshots:
        f1, acc = report.f1_macro[k], report.accuracy[k]
        print(f"  {k}-shot: F1 {f1[0]:.3f} +/- {f1[1]:.3f}, "
              f"accuracy {acc[0]:.3f} +/- {acc[1]:.3f}")
    print(f"  nDCG@10: {report.ndcg[0]:.3f} +/- {report.ndcg[1]:.3f}")

# The full report serializes to JSON for downstream tooling.
print("\nreport JSON sample:")
print(report_to_json(report)[:400], "...")
