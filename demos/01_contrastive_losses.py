"""Walk through the two contrastive losses on a hand-built batch.

Run: python demos/01_contrastive_losses.py
"""

import numpy as np

from convflow.contrastive import (
    ContrastiveBatch,
    Temperatures,
    build_label_table,
    grad_loss,
    init_head,
    soft_loss,
    soft_targets,
    sup_loss,
)
from convflow.embedding import l2_normalize

rng = np.random.default_rng(0)

# A batch of 6 anchor/positive pairs over 3 action labels. Everything is a
# unit vector; similarity is plain dot product.
labels_text = ["inform name", "inform name price", "request phone"]
d = 8
anchors = l2_normalize(rng.standard_normal((6, d)))
positives = l2_normalize(rng.standard_normal((6, d)))
label_ids = np.array([0, 0, 1, 1, 2, 2])

batch = ContrastiveBatch(anchors=anchors, positives=positives, labels=label_ids)
temps = Temperatures()  # tau=0.05, tau_label=0.35

hard, per_anchor = sup_loss(batch, temps)
print(f"hard supervised contrastive loss: {hard:.4f}")
print("per-anchor terms:", np.round(per_anchor, 3))

# The soft loss replaces the uniform-on-positives target with a softmax over
# label similarities. Labels sharing tokens ("inform name" vs "inform name
# price") get graded target mass instead of being treated as full negatives.
table = build_label_table(labels_text)
print("\nlabel similarity matrix (cosine of token counts):")
print(np.round(table, 3))

targets = soft_targets(label_ids, table, temps.tau_label)
print("\nsoft target distribution for anchor 0 (label 'inform name'):")
print(np.round(targets[0], 3), "<- rows sum to", targets[0].sum())

soft, _ = soft_loss(batch, table, temps)
print(f"\nsoft contrastive loss: {soft:.4f}")

# As tau' -> 0 the soft targets collapse onto same-label positions and the
# soft loss becomes the hard loss.
near_hard, _ = soft_loss(batch, table, Temperatures(tau=0.05, tau_label=1e-4))
print(f"soft loss at tau'=1e-4: {near_hard:.6f} (hard loss: {hard:.6f})")

# Gradients flow through the projection head z = normalize(relu(x W1) W2).
# grad_loss takes encoder-level inputs and differentiates the whole path.
n = 12
head = init_head(n, d, seed=1)
x_anchors = l2_normalize(rng.standard_normal((6, n)))
x_positives = l2_normalize(rng.standard_normal((6, n)))
enc_batch = ContrastiveBatch(anchors=x_anchors, positives=x_positives, labels=label_ids)
loss, grads = grad_loss(enc_batch, table, temps, head)
print(f"\nloss through the head: {loss:.4f}")
print(f"gradient norms: |dW1|={np.linalg.norm(grads.d_w1):.4f} "
      f"|dW2|={np.linalg.norm(grads.d_w2):.4f} "
      f"|dX|={np.linalg.norm(grads.d_anchors):.4f}")
print("\nrun `convflow losscheck` for the full verification battery "
      "(brute-force equivalence, finite differences, limits)")
