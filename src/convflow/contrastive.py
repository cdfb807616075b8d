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

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .corpus import ActionLabel
from .embedding import build_store, hashed_bow_vector, l2_normalize, row_norms, tokenize
from .errors import DegenerateProjectionError, InputError
from .evaluation import LabeledEmbeddings, evaluate_labeled
from .seeding import substream

DEFAULT_TAU = 0.05
DEFAULT_TAU_LABEL = 0.35
DEFAULT_BATCH_SIZE = 64
DEFAULT_LR_HEAD = 3e-4
DEFAULT_LR_ENCODER = 3e-6
DEFAULT_HASH_DIM = 2048
DEFAULT_ENCODER_DIM = 768  # n, the encoder output size
DEFAULT_HEAD_DIM = 128  # d, the projection output size
SWEEP_KSHOT = 5  # the sweep's F1 column is 5-shot


@dataclass(frozen=True)
class Temperatures:
    """Softmax temperatures: `tau` scales similarity logits, `tau_label`
    scales label-similarity logits in the soft target distribution."""

    tau: float = DEFAULT_TAU
    tau_label: float = DEFAULT_TAU_LABEL

    def __post_init__(self):
        for name, value in (("tau", self.tau), ("tau_label", self.tau_label)):
            if not (isinstance(value, Real) and math.isfinite(value) and value > 0):
                raise InputError(f"temperature {name}={value!r} must be a finite number > 0")


@dataclass(frozen=True)
class ContrastiveBatch:
    """N anchor/positive vector pairs with integer label ids."""

    anchors: np.ndarray
    positives: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        a, p = np.asarray(self.anchors), np.asarray(self.positives)
        if a.ndim != 2 or a.shape != p.shape:
            raise InputError(f"anchors {a.shape} and positives {p.shape} must be equal 2-d shapes")
        if len(self.labels) != a.shape[0]:
            raise InputError("one label per anchor required")

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


def init_head(n: int = DEFAULT_ENCODER_DIM, d: int = DEFAULT_HEAD_DIM, seed: int = 0) -> ContrastiveHead:
    rng = substream(seed, "head-init", n, d)
    w1 = rng.standard_normal((n, n)) / np.sqrt(n)
    w2 = rng.standard_normal((n, d)) / np.sqrt(n)
    return ContrastiveHead(w1=w1, w2=w2)


def _unit_rows(u: np.ndarray, zero_message: str) -> tuple[np.ndarray, np.ndarray]:
    """The unit-norm layer: the rows of `u` over their norms, and the (N, 1) norms."""
    norms = row_norms(u)[:, None]
    if np.any(norms == 0.0):
        raise DegenerateProjectionError(zero_message)
    return u / norms, norms


def _unit_rows_backward(z: np.ndarray, norms: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """dL/du of the unit-norm layer z = u / ||u|| given dL/dz."""
    return (dz - np.sum(dz * z, axis=1, keepdims=True) * z) / norms


def _head_forward_batch(head: ContrastiveHead, x: np.ndarray):
    """Forward pass keeping intermediates for backprop."""
    x = np.asarray(x, dtype=np.float64)
    a = x @ head.w1
    h = np.maximum(a, 0.0)
    z, norms = _unit_rows(h @ head.w2, "projection collapsed to the zero vector")
    return z, (x, a, h, z, norms)


def _head_backward(head: ContrastiveHead, cache, dz: np.ndarray):
    """Gradients of (W1, W2, input) given upstream dL/dz."""
    x, a, h, z, norms = cache
    du = _unit_rows_backward(z, norms, dz)
    dw2 = h.T @ du
    dh = du @ head.w2.T
    da = dh * (a > 0.0)
    dw1 = x.T @ da
    dx = da @ head.w1.T
    return dw1, dw2, dx


# ---------------------------------------------------------------------------
# Label table and target distributions
# ---------------------------------------------------------------------------

def build_label_table(texts: list[str]) -> np.ndarray:
    """The label-similarity matrix delta(y_i, y_j), indexed by label id: the
    symmetric pairwise cosines of the texts' exact token counts (no hashing)."""
    if not texts:
        raise InputError("label table needs at least one label")
    tokens = [tokenize(t) for t in texts]
    if not all(tokens):
        raise InputError(f"label {texts[tokens.index([])]!r} has no tokens")
    vocab = sorted(set().union(*tokens))
    counts = np.array([[toks.count(v) for v in vocab] for toks in tokens], dtype=np.float64)
    embs = l2_normalize(counts)
    delta = embs @ embs.T
    return (delta + delta.T) / 2.0  # exact symmetry against fp noise


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def soft_targets(labels: np.ndarray, table: np.ndarray, tau_label: float) -> np.ndarray:
    """Row-stochastic target matrix: row i = softmax_j delta(y_i, y_j)/tau'."""
    if tau_label <= 0:
        raise InputError("tau_label must be strictly positive")
    labels = np.asarray(labels, dtype=int)
    logits = table[np.ix_(labels, labels)] / tau_label
    return _softmax_rows(logits)


def hard_targets(labels: np.ndarray) -> np.ndarray:
    """Uniform distribution over same-label batch positions, 0 elsewhere."""
    labels = np.asarray(labels)
    same = (labels[:, None] == labels[None, :]).astype(np.float64)
    return same / same.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _cross_entropy(anchors, positives, labels, table: np.ndarray | None, temps: Temperatures):
    """The targets (soft against `table`, hard when it is None), the batch
    log-softmax of anchor-positive dots / tau, and the per-anchor
    cross-entropy between them."""
    if len(labels) == 0:
        raise InputError("empty contrastive batch")
    targets = hard_targets(labels) if table is None else soft_targets(labels, table, temps.tau_label)
    log_q = _log_softmax_rows((np.asarray(anchors) @ np.asarray(positives).T) / temps.tau)
    return -(targets * log_q).sum(axis=1), targets, log_q


def _loss_on_sphere(batch: ContrastiveBatch, table: np.ndarray | None, temps: Temperatures) -> tuple[float, np.ndarray]:
    """The mean and per-anchor `_cross_entropy` of a batch whose anchors and
    positives, read as points on the sphere, must be unit rows."""
    for name, m in (("anchors", np.asarray(batch.anchors)), ("positives", np.asarray(batch.positives))):
        if m.shape[0] and np.max(np.abs(row_norms(m) - 1.0)) > 1e-6:
            raise InputError(f"{name} must be unit-norm within 1e-6")
    per_anchor, _, _ = _cross_entropy(batch.anchors, batch.positives, batch.labels, table, temps)
    return float(per_anchor.mean()), per_anchor


def sup_loss(batch: ContrastiveBatch, temps: Temperatures) -> tuple[float, np.ndarray]:
    """Supervised contrastive loss: mean over anchors of the average
    negative log-probability assigned to same-label batch positions."""
    return _loss_on_sphere(batch, None, temps)


def soft_loss(batch: ContrastiveBatch, table: np.ndarray, temps: Temperatures) -> tuple[float, np.ndarray]:
    """Soft contrastive loss: cross-entropy against the label-similarity
    softmax targets instead of the uniform-on-positives distribution."""
    return _loss_on_sphere(batch, table, temps)


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
    table: np.ndarray | None,
    temps: Temperatures,
    head: ContrastiveHead,
) -> tuple[float, Gradients]:
    """Loss and analytic gradients through the head, the final
    normalization, and the softmax cross-entropy.

    `batch` carries encoder-level vectors of size n and any norm, as the
    head normalizes its own outputs; a None table selects the hard loss.
    Gradients cover W1, W2, and both input sides.
    """
    za, cache_a = _head_forward_batch(head, batch.anchors)
    zp, cache_p = _head_forward_batch(head, batch.positives)
    per_anchor, targets, log_q = _cross_entropy(za, zp, batch.labels, table, temps)
    d_sims = (np.exp(log_q) - targets) / (batch.size * temps.tau)
    dw1_a, dw2_a, dxa = _head_backward(head, cache_a, d_sims @ zp)
    dw1_p, dw2_p, dxp = _head_backward(head, cache_p, d_sims.T @ za)
    return float(per_anchor.mean()), Gradients(
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

    def features(self, texts: list[str]) -> np.ndarray:
        rows, inverse = _distinct_features(texts, self.m)
        return rows[inverse]

    def encode_features(self, feats: np.ndarray):
        x, norms = _unit_rows(feats @ self.weights, "encoder produced a zero vector")
        return x, (feats, x, norms)

    def encode(self, texts: list[str]) -> np.ndarray:
        x, _ = self.encode_features(self.features(texts))
        return x

    def backward(self, cache, dx: np.ndarray) -> np.ndarray:
        feats, x, norms = cache
        return feats.T @ _unit_rows_backward(x, norms, dx)


def _distinct_features(texts: list[str], m: int) -> tuple[np.ndarray, np.ndarray]:
    """Hashed count features of each distinct text, in order of first
    appearance, and the row of each text: `rows[inverse]` are the texts'."""
    first: dict[str, int] = {}
    inverse = np.array([first.setdefault(t, len(first)) for t in texts], dtype=np.intp)
    return np.stack([hashed_bow_vector(t, m) for t in first]), inverse


def init_toy_encoder(m: int = DEFAULT_HASH_DIM, n: int = 64, seed: int = 0) -> ToyEncoder:
    rng = substream(seed, "toy-encoder", m, n)
    return ToyEncoder(weights=rng.standard_normal((m, n)) / np.sqrt(m))


@dataclass(frozen=True)
class TrainItem:
    """One training utterance: the text and the action label that defines
    its positives and its row of the label table."""

    text: str
    action: str


def single_items(rows) -> list[TrainItem]:
    """Training items from labeled utterance rows, labeled by the full action string."""
    return [TrainItem(text=text, action=a.render()) for _, _, text, a in rows]


@dataclass
class TrainResult:
    encoder: ToyEncoder
    loss_curve: list[float]


def _positive_draws(labels: np.ndarray):
    """`draw(rng, anchor_labels)` picks a uniform item of each anchor's label,
    with the draws and `rng` state of one `rng.integers(pool size)` per anchor."""
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    by_label = np.argsort(labels, kind="stable")  # each label's pool, ascending
    return lambda rng, anchor_labels: by_label[starts[anchor_labels] + rng.integers(sizes[anchor_labels])]


def _check_finite(temps: Temperatures, *values) -> None:
    """Raise InputError naming the temperatures unless every value is finite."""
    if not all(np.isfinite(v).all() for v in values):
        raise InputError(
            f"training diverged at tau={temps.tau!r}, tau_label={temps.tau_label!r}: "
            "a loss, gradient or encoder output is not finite (try a larger temperature)"
        )


@np.errstate(all="ignore")  # a step that overflows raises InputError instead
def train_toy(
    items: list[TrainItem],
    encoder: ToyEncoder,
    heads: list[ContrastiveHead],
    temps: Temperatures,
    epochs: int = 10,
    lr_head: float = DEFAULT_LR_HEAD,
    lr_encoder: float = DEFAULT_LR_ENCODER,
    seed: int = 0,
    soft: bool = True,
) -> TrainResult:
    """Contrastive training of copies of the toy encoder and of one
    projection head, deterministic for a fixed seed, against the items'
    action labels with the soft loss when `soft`, else the hard one.

    `heads` is a list that must hold exactly one head: the parameter keeps
    the list form its existing callers pass. `epochs` must be at least 1.
    Each anchor is paired with a positive drawn uniformly from the items
    sharing its label; in-batch entries act as negatives. An epoch's
    trailing batch of one anchor has no negatives and is skipped. Plain SGD
    updates the parameters; of the encoder, only the rows of hashed columns
    some text uses, as the others' gradient is exactly 0. A step that is
    not finite raises `InputError` before it is applied.
    """
    if len(heads) != 1:
        raise InputError(f"train_toy trains exactly one projection head, got {len(heads)}")
    if epochs < 1:
        raise InputError(f"epochs={epochs!r} must be at least 1")
    actions = sorted({it.action for it in items})
    if len(actions) < 2:
        raise InputError("training needs at least 2 distinct action labels")
    index = {a: i for i, a in enumerate(actions)}
    labels = np.array([index[it.action] for it in items])
    table = build_label_table(actions) if soft else None
    rows, inverse = _distinct_features([it.text for it in items], encoder.m)
    cols = np.flatnonzero(rows.any(axis=0))
    feats = rows[:, cols][inverse]
    draw_positives = _positive_draws(labels)
    rng = substream(seed, "train-toy")
    used = ToyEncoder(weights=encoder.weights[cols])
    head = ContrastiveHead(w1=heads[0].w1.copy(), w2=heads[0].w2.copy())
    curve: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(labels))
        epoch_losses: list[float] = []
        for start in range(0, len(labels), DEFAULT_BATCH_SIZE):
            a_idx = order[start : start + DEFAULT_BATCH_SIZE]
            if len(a_idx) < 2:
                continue
            p_idx = draw_positives(rng, labels[a_idx])
            xa, cache_a = used.encode_features(feats[a_idx])
            xp, cache_p = used.encode_features(feats[p_idx])
            _check_finite(temps, cache_a[2], cache_p[2])  # the output norms
            batch = ContrastiveBatch(anchors=xa, positives=xp, labels=labels[a_idx])
            loss, grads = grad_loss(batch, table, temps, head)
            d_enc = used.backward(cache_a, grads.d_anchors) + used.backward(cache_p, grads.d_positives)
            _check_finite(temps, loss, d_enc, grads.d_w1, grads.d_w2)
            head.w1 -= lr_head * grads.d_w1
            head.w2 -= lr_head * grads.d_w2
            used.weights -= lr_encoder * d_enc
            epoch_losses.append(loss)
        curve.append(float(np.mean(epoch_losses)))
    weights = encoder.weights.copy()
    weights[cols] = used.weights
    return TrainResult(encoder=ToyEncoder(weights=weights), loss_curve=curve)


def sweep_tau_label(
    train_rows: list[TrainItem],
    eval_rows: list[TrainItem],
    grid: list[float],
    seed: int = 0,
    tau: float = DEFAULT_TAU,
    epochs: int = 10,
    lr_head: float = DEFAULT_LR_HEAD,
    lr_encoder: float = DEFAULT_LR_ENCODER,
    encoder_dim: int = 64,
    head_dim: int = 32,
) -> list[tuple[float, float, float]]:
    """Train one model per label temperature and report, per grid value,
    (tau_label, 5-shot macro-F1, anisotropy delta) on the eval rows.

    Every model trains through `train_toy` from the same parameter
    initialization and data order, so the temperature is the only varying
    factor. `train_toy` rebuilds the training set (features, label ids,
    label table) for each grid value: about 7 ms for 3,840 items on a
    2-core Xeon, a few percent of a one-epoch sweep over them. The grid
    (non-empty, no value twice) and every temperature are checked before
    any training, and `train_toy` checks `epochs` before its first step.
    Rows come back sorted by temperature ascending.
    """
    if not grid or len(set(grid)) != len(grid):
        raise InputError(f"the grid must be a non-empty list of distinct tau_label values, got {list(grid)}")
    temps = [Temperatures(tau=tau, tau_label=t) for t in sorted(grid)]
    encoder = init_toy_encoder(n=encoder_dim, seed=seed)
    head = init_head(encoder_dim, head_dim, seed=seed)
    eval_feats = encoder.features([r.text for r in eval_rows])
    ids = [f"u{i}" for i in range(len(eval_rows))]
    eval_labels = {uid: ActionLabel.make(r.action, []) for uid, r in zip(ids, eval_rows)}
    results = []
    for t in temps:
        trained = train_toy(train_rows, encoder, [head], t, epochs, lr_head, lr_encoder, seed)
        vecs, _ = trained.encoder.encode_features(eval_feats)
        store = build_store(list(zip(ids, vecs)), normalize=True)
        data = LabeledEmbeddings(store=store, labels=eval_labels)
        f1, delta = evaluate_labeled(data, kshot=SWEEP_KSHOT, seed=seed)
        results.append((float(t.tau_label), f1, delta))
    return results
