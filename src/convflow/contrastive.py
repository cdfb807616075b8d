"""Supervised contrastive losses (hard and soft), the projection head,
analytic gradients, and a desk-scale trainable encoder.

The hard loss pulls same-label pairs together and pushes every other
in-batch pair apart uniformly. The soft variant replaces the uniform
on-positives target distribution with a softmax over label similarities,
so negatives are separated in proportion to how semantically close their
labels are. Both reduce to cross-entropy between a target distribution
and the batch softmax of anchor-positive cosines, which is how they are
implemented (and differentiated) here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedding import hashed_bow_vector, l2_normalize
from .errors import (
    DegenerateProjectionError,
    DegenerateTaskError,
    EmptyInputError,
    InputError,
    ShapeError,
)
from .seeding import substream

DEFAULT_TAU = 0.05
DEFAULT_TAU_LABEL = 0.35
DEFAULT_BATCH_SIZE = 64
DEFAULT_LR_HEAD = 3e-4
DEFAULT_LR_ENCODER = 3e-6
DEFAULT_HASH_DIM = 2048
DEFAULT_ENCODER_DIM = 768  # n, the encoder output size
DEFAULT_HEAD_DIM = 128  # d, the projection output size


@dataclass(frozen=True)
class Temperatures:
    """Softmax temperatures: `tau` scales similarity logits, `tau_label`
    scales label-similarity logits in the soft target distribution."""

    tau: float = DEFAULT_TAU
    tau_label: float = DEFAULT_TAU_LABEL

    def __post_init__(self):
        if self.tau <= 0 or self.tau_label <= 0:
            raise InputError("temperatures must be strictly positive")


@dataclass(frozen=True)
class ContrastiveBatch:
    """N anchor/positive unit-vector pairs with integer label ids.

    `validate=False` skips the unit-norm check; finite-difference probes
    need to nudge coordinates off the sphere.
    """

    anchors: np.ndarray
    positives: np.ndarray
    labels: np.ndarray
    validate: bool = True

    def __post_init__(self):
        a, p = np.asarray(self.anchors), np.asarray(self.positives)
        if a.ndim != 2 or a.shape != p.shape:
            raise ShapeError(f"anchors {a.shape} and positives {p.shape} must be equal 2-d shapes")
        if len(self.labels) != a.shape[0]:
            raise ShapeError("one label per anchor required")
        if self.validate:
            for name, m in (("anchors", a), ("positives", p)):
                norms = np.linalg.norm(m, axis=1)
                if m.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-6:
                    raise InputError(f"{name} must be unit-norm within 1e-6")

    @property
    def size(self) -> int:
        return np.asarray(self.anchors).shape[0]


# ---------------------------------------------------------------------------
# Projection head
# ---------------------------------------------------------------------------

@dataclass
class ContrastiveHead:
    """Single-hidden-layer projection z = normalize(relu(x W1) W2)."""

    w1: np.ndarray  # (n, n)
    w2: np.ndarray  # (n, d)

    @property
    def n(self) -> int:
        return self.w1.shape[0]

    @property
    def d(self) -> int:
        return self.w2.shape[1]


def init_head(n: int = DEFAULT_ENCODER_DIM, d: int = DEFAULT_HEAD_DIM, seed: int = 0) -> ContrastiveHead:
    rng = substream(seed, "head-init", n, d)
    w1 = rng.standard_normal((n, n)) / np.sqrt(n)
    w2 = rng.standard_normal((n, d)) / np.sqrt(n)
    return ContrastiveHead(w1=w1, w2=w2)


def _head_forward_batch(head: ContrastiveHead, x: np.ndarray):
    """Forward pass keeping intermediates for backprop."""
    x = np.asarray(x, dtype=np.float64)
    a = x @ head.w1
    h = np.maximum(a, 0.0)
    u = h @ head.w2
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateProjectionError("projection collapsed to the zero vector")
    z = u / norms
    return z, (x, a, h, u, norms)


def _head_backward(head: ContrastiveHead, cache, dz: np.ndarray):
    """Gradients of (W1, W2, input) given upstream dL/dz."""
    x, a, h, u, norms = cache
    z = u / norms
    du = (dz - np.sum(dz * z, axis=1, keepdims=True) * z) / norms
    dw2 = h.T @ du
    dh = du @ head.w2.T
    da = dh * (a > 0.0)
    dw1 = x.T @ da
    dx = da @ head.w1.T
    return dw1, dw2, dx


# ---------------------------------------------------------------------------
# Label table and target distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelTable:
    """Label texts, their unit embeddings, and the pairwise similarity
    matrix delta(y_i, y_j) = dot of label embeddings."""

    texts: tuple[str, ...]
    embeddings: np.ndarray
    delta: np.ndarray

    def id_of(self, text: str) -> int:
        return self.texts.index(text)


def build_label_table(texts: list[str], dim: int = 256) -> LabelTable:
    """Embed label texts as hashed bag-of-words vectors and precompute the
    symmetric delta matrix of pairwise dots."""
    if not texts:
        raise EmptyInputError("label table needs at least one label")
    # hashed_bow_vector is already unit-norm; normalizing again still moves
    # last bits, and the sweep's results depend on them
    embs = np.stack([l2_normalize(hashed_bow_vector(t, dim)) for t in texts])
    delta = embs @ embs.T
    delta = (delta + delta.T) / 2.0  # exact symmetry against fp noise
    return LabelTable(texts=tuple(texts), embeddings=embs, delta=delta)


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def soft_targets(labels: np.ndarray, table: LabelTable, tau_label: float) -> np.ndarray:
    """Row-stochastic target matrix: row i = softmax_j delta(y_i, y_j)/tau'."""
    if tau_label <= 0:
        raise InputError("tau_label must be strictly positive")
    labels = np.asarray(labels, dtype=int)
    logits = table.delta[np.ix_(labels, labels)] / tau_label
    return _softmax_rows(logits)


def hard_targets(labels: np.ndarray) -> np.ndarray:
    """Uniform distribution over same-label batch positions, 0 elsewhere."""
    labels = np.asarray(labels)
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    return same / same.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _cross_entropy_loss(batch: ContrastiveBatch, targets: np.ndarray, tau: float):
    if batch.size == 0:
        raise EmptyInputError("empty contrastive batch")
    sims = np.asarray(batch.anchors) @ np.asarray(batch.positives).T
    log_q = _log_softmax_rows(sims / tau)
    per_anchor = -(targets * log_q).sum(axis=1)
    return float(per_anchor.mean()), per_anchor


def sup_loss(batch: ContrastiveBatch, temps: Temperatures) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss: mean over anchors of the average
    negative log-probability assigned to same-label batch positions."""
    return _cross_entropy_loss(batch, hard_targets(batch.labels), temps.tau)


def soft_loss(batch: ContrastiveBatch, table: LabelTable, temps: Temperatures) -> tuple[float, np.ndarray]:
    """Soft contrastive loss: cross-entropy against the label-similarity
    softmax targets instead of the uniform-on-positives distribution."""
    targets = soft_targets(batch.labels, table, temps.tau_label)
    return _cross_entropy_loss(batch, targets, temps.tau)


# ---------------------------------------------------------------------------
# Analytic gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gradients:
    d_w1: np.ndarray
    d_w2: np.ndarray
    d_anchors: np.ndarray
    d_positives: np.ndarray


def grad_loss(
    batch: ContrastiveBatch,
    table: LabelTable | None,
    temps: Temperatures,
    head: ContrastiveHead,
) -> tuple[float, Gradients]:
    """Loss and analytic gradients through the head, the final
    normalization, and the softmax cross-entropy.

    `batch` carries encoder-level vectors (size n); a None table selects
    the hard loss. Gradients cover W1, W2, and both input sides.
    """
    if batch.size == 0:
        raise EmptyInputError("empty contrastive batch")
    n = batch.size
    za, cache_a = _head_forward_batch(head, batch.anchors)
    zp, cache_p = _head_forward_batch(head, batch.positives)
    if table is None:
        targets = hard_targets(batch.labels)
    else:
        targets = soft_targets(batch.labels, table, temps.tau_label)
    sims = za @ zp.T
    log_q = _log_softmax_rows(sims / temps.tau)
    loss = float(-(targets * log_q).sum(axis=1).mean())

    q = np.exp(log_q)
    d_sims = (q - targets) / (n * temps.tau)
    dza = d_sims @ zp
    dzp = d_sims.T @ za
    dw1_a, dw2_a, dxa = _head_backward(head, cache_a, dza)
    dw1_p, dw2_p, dxp = _head_backward(head, cache_p, dzp)
    return loss, Gradients(
        d_w1=dw1_a + dw1_p,
        d_w2=dw2_a + dw2_p,
        d_anchors=dxa,
        d_positives=dxp,
    )


# ---------------------------------------------------------------------------
# Toy encoder and desk-scale training
# ---------------------------------------------------------------------------

@dataclass
class ToyEncoder:
    """Linear map over deterministic hashed bag-of-words features, with
    unit-norm outputs. The smallest encoder whose training visibly
    reorganizes the embedding space."""

    weights: np.ndarray  # (m, n)

    @property
    def m(self) -> int:
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]

    def features(self, texts: list[str]) -> np.ndarray:
        return np.stack([hashed_bow_vector(t, self.m, normalize=False) for t in texts])

    def encode_features(self, feats: np.ndarray):
        a = feats @ self.weights
        norms = np.linalg.norm(a, axis=1, keepdims=True)
        if np.any(norms == 0.0):
            raise DegenerateProjectionError("encoder produced a zero vector")
        return a / norms, (feats, a, norms)

    def encode(self, texts: list[str]) -> np.ndarray:
        x, _ = self.encode_features(self.features(texts))
        return x

    def backward(self, cache, dx: np.ndarray) -> np.ndarray:
        feats, a, norms = cache
        x = a / norms
        da = (dx - np.sum(dx * x, axis=1, keepdims=True) * x) / norms
        return feats.T @ da


def init_toy_encoder(m: int = DEFAULT_HASH_DIM, n: int = 64, seed: int = 0) -> ToyEncoder:
    rng = substream(seed, "toy-encoder", m, n)
    return ToyEncoder(weights=rng.standard_normal((m, n)) / np.sqrt(m))


@dataclass(frozen=True)
class TrainItem:
    """One training utterance: the text, the action key that defines
    positive pairs, and one label string per head."""

    text: str
    action: str
    labels: tuple[str, ...]


def single_items(rows) -> list[TrainItem]:
    """Label view for the single target: the full action string."""
    return [TrainItem(text=text, action=a.render(), labels=(a.render(),)) for _, _, text, a in rows]


@dataclass
class TrainResult:
    encoder: ToyEncoder
    heads: list[ContrastiveHead]
    loss_curve: list[float]
    label_texts: list[tuple[str, ...]]


def train_toy(
    items: list[TrainItem],
    encoder: ToyEncoder,
    heads: list[ContrastiveHead],
    temps: Temperatures,
    epochs: int = 10,
    lr_head: float = DEFAULT_LR_HEAD,
    lr_encoder: float = DEFAULT_LR_ENCODER,
    seed: int = 0,
    batch_size: int = DEFAULT_BATCH_SIZE,
    soft: bool = True,
    label_dim: int = 256,
) -> TrainResult:
    """Contrastive training loop, deterministic for a fixed seed.

    Each anchor is paired with a positive drawn uniformly from utterances
    sharing its action; in-batch entries act as negatives. One loss term
    per head (soft when `soft`, else hard), terms summed as in the joint
    target. Parameters are updated by plain SGD.
    """
    actions = sorted({it.action for it in items})
    if len(actions) < 2:
        raise DegenerateTaskError("training needs at least 2 distinct action labels")
    n_heads = len(heads)
    label_texts: list[tuple[str, ...]] = []
    tables: list[LabelTable | None] = []
    label_ids = np.zeros((len(items), n_heads), dtype=int)
    for h in range(n_heads):
        texts = sorted({it.labels[h] for it in items})
        label_texts.append(tuple(texts))
        index = {t: i for i, t in enumerate(texts)}
        for i, it in enumerate(items):
            label_ids[i, h] = index[it.labels[h]]
        tables.append(build_label_table(texts, dim=label_dim) if soft else None)

    pools: dict[str, list[int]] = {}
    for i, it in enumerate(items):
        pools.setdefault(it.action, []).append(i)

    feats = np.stack([hashed_bow_vector(it.text, encoder.m, normalize=False) for it in items])
    rng = substream(seed, "train-toy")
    encoder = ToyEncoder(weights=encoder.weights.copy())
    heads = [ContrastiveHead(w1=h.w1.copy(), w2=h.w2.copy()) for h in heads]
    curve: list[float] = []

    for _ in range(epochs):
        order = rng.permutation(len(items))
        epoch_losses: list[float] = []
        for start in range(0, len(items), batch_size):
            a_idx = order[start : start + batch_size]
            if len(a_idx) < 2:
                continue
            p_idx = np.array(
                [pools[items[i].action][rng.integers(len(pools[items[i].action]))] for i in a_idx]
            )
            xa, cache_a = encoder.encode_features(feats[a_idx])
            xp, cache_p = encoder.encode_features(feats[p_idx])
            dxa = np.zeros_like(xa)
            dxp = np.zeros_like(xp)
            total = 0.0
            for h, head in enumerate(heads):
                batch = ContrastiveBatch(anchors=xa, positives=xp, labels=label_ids[a_idx, h])
                loss, grads = grad_loss(batch, tables[h], temps, head)
                total += loss
                dxa += grads.d_anchors
                dxp += grads.d_positives
                head.w1 -= lr_head * grads.d_w1
                head.w2 -= lr_head * grads.d_w2
            d_enc = encoder.backward(cache_a, dxa) + encoder.backward(cache_p, dxp)
            encoder.weights -= lr_encoder * d_enc
            epoch_losses.append(total)
        curve.append(float(np.mean(epoch_losses)))

    return TrainResult(encoder=encoder, heads=heads, loss_curve=curve, label_texts=label_texts)


def sweep_tau_label(
    train_rows: list[TrainItem],
    eval_rows: list[TrainItem],
    grid: list[float],
    seed: int = 0,
    tau: float = DEFAULT_TAU,
    epochs: int = 10,
    lr_head: float = DEFAULT_LR_HEAD,
    lr_encoder: float = DEFAULT_LR_ENCODER,
    batch_size: int = DEFAULT_BATCH_SIZE,
    feature_dim: int = DEFAULT_HASH_DIM,
    encoder_dim: int = 64,
    head_dim: int = 32,
    kshot: int = 5,
) -> list[tuple[float, float, float]]:
    """Train one model per label temperature and report, per grid value,
    (tau_label, 5-shot macro-F1, anisotropy delta) on the eval rows.

    All models share the same parameter initialization and data order so
    the temperature is the only varying factor. Rows come back sorted by
    temperature ascending.
    """
    from .corpus import ActionLabel
    from .evaluation import LabeledEmbeddings, evaluate_labeled
    from .embedding import build_store

    results = []
    for tau_label in sorted(grid):
        temps = Temperatures(tau=tau, tau_label=tau_label)
        encoder = init_toy_encoder(m=feature_dim, n=encoder_dim, seed=seed)
        heads = [init_head(encoder_dim, head_dim, seed=seed)]
        trained = train_toy(
            train_rows,
            encoder,
            heads,
            temps,
            epochs=epochs,
            lr_head=lr_head,
            lr_encoder=lr_encoder,
            seed=seed,
            batch_size=batch_size,
            soft=True,
        )
        vecs = trained.encoder.encode([r.text for r in eval_rows])
        ids = [f"u{i}" for i in range(len(eval_rows))]
        store = build_store(list(zip(ids, vecs)), normalize=True)
        labels = {ids[i]: ActionLabel.make(eval_rows[i].action, []) for i in range(len(eval_rows))}
        data = LabeledEmbeddings(store=store, labels=labels)
        f1, delta = evaluate_labeled(data, kshot=kshot, seed=seed)
        results.append((float(tau_label), f1, delta))
    return results
