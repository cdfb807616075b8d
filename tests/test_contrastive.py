import math

import numpy as np
import pytest

from convflow.contrastive import (
    _distinct_features,
    _head_forward_batch,
    _positive_draws,
    ContrastiveBatch,
    ContrastiveHead,
    DEFAULT_BATCH_SIZE,
    Temperatures,
    ToyEncoder,
    TrainItem,
    TrainResult,
    build_label_table,
    grad_loss,
    hard_targets,
    init_head,
    init_toy_encoder,
    single_items,
    soft_loss,
    soft_targets,
    sup_loss,
    train_toy,
)
from convflow import checks
from convflow.checks import finite_difference, random_unit_rows, relative_error
from convflow.embedding import build_store, hashed_bow_vector, l2_normalize, tokenize
from convflow.errors import DegenerateProjectionError, InputError
from convflow.evaluation import LabeledEmbeddings, intra_inter_anisotropy
from convflow.corpus import ActionLabel
from convflow.seeding import substream
from convflow.synth import SWEEP_TOY, graded_label_rows, planted_flow


# ---------------------------------------------------------------------------
# Projection head
# ---------------------------------------------------------------------------

def test_head_forward_identity_composition():
    n, d = 6, 3
    w2 = np.zeros((n, d))
    w2[:d, :] = np.eye(d)
    head = ContrastiveHead(w1=np.eye(n), w2=w2)
    x = np.array([[3.0, 0.0, 4.0, 1.0, 1.0, 1.0]])
    z, _ = _head_forward_batch(head, x)
    assert np.allclose(z, np.array([[3.0, 0.0, 4.0]]) / 5.0)


def test_head_forward_zero_input_degenerate():
    head = init_head(5, 3, seed=0)
    with pytest.raises(DegenerateProjectionError):
        _head_forward_batch(head, np.zeros((1, 5)))


def test_head_forward_matches_naive_composition():
    rng = np.random.default_rng(0)
    checked = 0
    while checked < 20:
        n, d = int(rng.integers(3, 10)), int(rng.integers(2, 6))
        head = init_head(n, d, seed=int(rng.integers(1000)))
        x = rng.standard_normal(n)
        hidden = np.array([max(0.0, v) for v in x @ head.w1])
        u = hidden @ head.w2
        if not u.any():  # the degenerate-projection error case, tested separately
            continue
        z = _head_forward_batch(head, x[None, :])[0][0]
        expected = u / math.sqrt(float(u @ u))
        assert np.max(np.abs(z - expected)) < 1e-12
        checked += 1


def test_every_unit_row_is_l2_normalize_of_that_row_alone():
    """The head, the toy encoder, the label table, random_unit_rows and
    EmbeddingStore.normalize all take their norms through `row_norms`, so
    each row they put on the sphere is `l2_normalize` of that row taken
    alone, bit for bit, whatever rows sit next to it in the batch."""

    def assert_unit_rows(units, raw):
        assert units.shape == raw.shape
        for i, (unit, row) in enumerate(zip(units, raw)):
            assert np.array_equal(unit, l2_normalize(row)), f"row {i} of {raw.shape}"

    words = [f"w{i}" for i in range(30)]
    for dim in (4, 16, 64, 257):
        rng = np.random.default_rng(dim)
        x = rng.standard_normal((60, dim))
        head = init_head(dim, 8, seed=dim)
        assert_unit_rows(_head_forward_batch(head, x)[0], np.maximum(x @ head.w1, 0.0) @ head.w2)
        encoder = init_toy_encoder(m=dim, n=8, seed=dim)
        assert_unit_rows(encoder.encode_features(x)[0], x @ encoder.weights)
        raw = substream(dim, "rows").standard_normal((60, dim))
        assert_unit_rows(random_unit_rows(substream(dim, "rows"), 60, dim), raw)
        assert_unit_rows(build_store([(f"u{i}", row) for i, row in enumerate(x)]).normalize().array, x)
        labels = [" ".join(rng.choice(words, size=int(rng.integers(1, 3 * dim)))) for _ in range(20)]
        tokens = [tokenize(label) for label in labels]
        vocab = sorted(set().union(*tokens))
        counts = np.array([[toks.count(v) for v in vocab] for toks in tokens], dtype=np.float64)
        embs = np.stack([l2_normalize(row) for row in counts])
        delta = embs @ embs.T
        assert np.array_equal(build_label_table(labels), (delta + delta.T) / 2.0)


# ---------------------------------------------------------------------------
# Hard loss
# ---------------------------------------------------------------------------

def test_sup_loss_two_anchor_example():
    # z1.z1+ = 1, z1.z2+ = -1, distinct labels, tau = 1
    anchors = np.array([[1.0, 0.0], [0.0, 1.0]])
    positives = np.array([[1.0, 0.0], [-1.0, 0.0]])
    batch = ContrastiveBatch(anchors=anchors, positives=positives, labels=np.array([0, 1]))
    _, per_anchor = sup_loss(batch, Temperatures(tau=1.0, tau_label=0.35))
    expected = -math.log(math.e / (math.e + math.exp(-1.0)))
    assert abs(per_anchor[0] - expected) < 1e-12
    assert abs(expected - 0.12693) < 1e-5


def test_sup_loss_uniform_symmetry_gives_log_n():
    rng = np.random.default_rng(1)
    n, d = 5, 4
    anchors = random_unit_rows(rng, n, d)
    positives = np.tile(random_unit_rows(rng, 1, d), (n, 1))
    batch = ContrastiveBatch(anchors=anchors, positives=positives, labels=np.zeros(n, dtype=int))
    loss, per_anchor = sup_loss(batch, Temperatures())
    assert np.allclose(per_anchor, math.log(n), atol=1e-12)
    assert abs(loss - math.log(n)) < 1e-12


def test_sup_loss_brute_force_oracle():
    rng = np.random.default_rng(2)
    temps = Temperatures()
    for _ in range(30):
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        anchors, positives = random_unit_rows(rng, n, d), random_unit_rows(rng, n, d)
        labels = rng.integers(0, max(2, n // 2), size=n)
        got, _ = sup_loss(ContrastiveBatch(anchors, positives, labels), temps)
        total = 0.0
        for i in range(n):
            pos = [j for j in range(n) if labels[j] == labels[i]]
            denom = sum(math.exp(anchors[i] @ positives[k] / temps.tau) for k in range(n))
            total -= sum(
                math.log(math.exp(anchors[i] @ positives[j] / temps.tau) / denom) for j in pos
            ) / len(pos)
        assert abs(got - total / n) < 1e-10


def test_sup_loss_empty_batch():
    batch = ContrastiveBatch(np.empty((0, 3)), np.empty((0, 3)), np.empty(0, dtype=int))
    with pytest.raises(InputError, match="empty contrastive batch"):
        sup_loss(batch, Temperatures())


@pytest.mark.parametrize("side", ["anchors", "positives"])
@pytest.mark.parametrize("soft", [False, True])
def test_losses_reject_a_batch_off_the_sphere(soft, side):
    # the batch itself takes any vectors; the two losses read them as points on the sphere
    rng = np.random.default_rng(7)
    labels = np.array([0, 0, 1, 1])

    def loss(scale: float) -> float:
        rows = {"anchors": random_unit_rows(rng, 4, 3), "positives": random_unit_rows(rng, 4, 3)}
        rows[side][2] *= scale
        batch = ContrastiveBatch(**rows, labels=labels)
        return soft_loss(batch, np.eye(2), Temperatures())[0] if soft else sup_loss(batch, Temperatures())[0]

    assert math.isfinite(loss(1 + 5e-7))
    for scale in (1 + 2e-6, 0.5, 3.0):
        with pytest.raises(InputError, match=f"^{side} must be unit-norm within 1e-6$"):
            loss(scale)


# ---------------------------------------------------------------------------
# Soft targets and soft loss
# ---------------------------------------------------------------------------

def test_soft_targets_identical_labels_uniform():
    table = build_label_table(["inform name"])
    p = soft_targets(np.zeros(4, dtype=int), table, 0.35)
    assert np.allclose(p, 0.25)


def test_soft_targets_row_example():
    # delta row (1.0, 0.5, 0.0) at tau' = 0.35
    delta = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
    p = soft_targets(np.array([0, 1, 2]), delta, 0.35)
    exps = [math.exp(1.0 / 0.35), math.exp(0.5 / 0.35), math.exp(0.0)]
    expected = np.array(exps) / sum(exps)
    assert np.max(np.abs(p[0] - expected)) < 1e-12
    assert np.allclose(expected, [0.771, 0.185, 0.044], atol=5e-4)


def test_soft_targets_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_labels = int(rng.integers(2, 6))
        table = build_label_table([f"label {i}" for i in range(n_labels)])
        labels = rng.integers(0, n_labels, size=int(rng.integers(2, 10)))
        for tau_label in (1e-3, 0.35, 5.0):
            p = soft_targets(labels, table, tau_label)
            assert np.all(p >= 0)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


def test_soft_targets_limit_one_hot():
    delta = np.array([[1.0, 0.4], [0.4, 1.0]])
    p = soft_targets(np.array([0, 1]), delta, 1e-4)
    assert np.allclose(p, np.eye(2), atol=1e-12)


def test_soft_loss_equals_sup_loss_on_hard_distribution():
    rng = np.random.default_rng(4)
    temps = Temperatures(tau=0.05, tau_label=1e-4)
    for _ in range(10):
        n, d = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        anchors, positives = random_unit_rows(rng, n, d), random_unit_rows(rng, n, d)
        labels = rng.integers(0, 3, size=n)
        table = np.eye(3)
        batch = ContrastiveBatch(anchors, positives, labels)
        soft, _ = soft_loss(batch, table, temps)
        hard, _ = sup_loss(batch, Temperatures())
        assert abs(soft - hard) < 1e-12


def test_soft_loss_uniform_targets_for_large_tau_label():
    rng = np.random.default_rng(5)
    n, d = 6, 4
    anchors, positives = random_unit_rows(rng, n, d), random_unit_rows(rng, n, d)
    labels = rng.integers(0, 3, size=n)
    table = build_label_table(["a", "b", "c"])
    batch = ContrastiveBatch(anchors, positives, labels)
    got, _ = soft_loss(batch, table, Temperatures(tau=0.05, tau_label=1e9))
    sims = anchors @ positives.T / 0.05
    log_q = sims - np.log(np.exp(sims - sims.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) - sims.max(axis=1, keepdims=True)
    expected = float(-(log_q.mean(axis=1)).mean())
    assert abs(got - expected) < 1e-9


def test_soft_loss_brute_force_oracle():
    rng = np.random.default_rng(6)
    temps = Temperatures()
    for _ in range(30):
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        anchors, positives = random_unit_rows(rng, n, d), random_unit_rows(rng, n, d)
        n_labels = max(2, n // 2)
        labels = rng.integers(0, n_labels, size=n)
        table = build_label_table([f"tok{i} word{i}" for i in range(n_labels)])
        got, _ = soft_loss(ContrastiveBatch(anchors, positives, labels), table, temps)
        total = 0.0
        for i in range(n):
            z = sum(math.exp(table[labels[i], labels[k]] / temps.tau_label) for k in range(n))
            denom = sum(math.exp(anchors[i] @ positives[k] / temps.tau) for k in range(n))
            for j in range(n):
                p = math.exp(table[labels[i], labels[j]] / temps.tau_label) / z
                q = math.exp(anchors[i] @ positives[j] / temps.tau) / denom
                total -= p * math.log(q)
        assert abs(got - total / n) < 1e-10


def test_losses_invariant_under_common_permutation():
    rng = np.random.default_rng(7)
    temps = Temperatures()
    n, d = 7, 5
    anchors, positives = random_unit_rows(rng, n, d), random_unit_rows(rng, n, d)
    labels = rng.integers(0, 3, size=n)
    table = build_label_table(["a b", "c d", "e f"])
    base_sup, _ = sup_loss(ContrastiveBatch(anchors, positives, labels), temps)
    base_soft, _ = soft_loss(ContrastiveBatch(anchors, positives, labels), table, temps)
    for _ in range(5):
        perm = rng.permutation(n)
        b = ContrastiveBatch(anchors[perm], positives[perm], labels[perm])
        got_sup, _ = sup_loss(b, temps)
        got_soft, _ = soft_loss(b, table, temps)
        assert abs(got_sup - base_sup) < 1e-12
        assert abs(got_soft - base_soft) < 1e-12


def test_losses_nonnegative():
    rng = np.random.default_rng(8)
    temps = Temperatures()
    table = build_label_table(["a b", "c d"])
    for _ in range(20):
        n, d = int(rng.integers(1, 8)), int(rng.integers(2, 6))
        anchors, positives = random_unit_rows(rng, n, d), random_unit_rows(rng, n, d)
        batch = ContrastiveBatch(anchors, positives, rng.integers(0, 2, size=n))
        assert sup_loss(batch, temps)[0] >= 0.0
        assert soft_loss(batch, table, temps)[0] >= 0.0


def test_temperatures_must_be_positive():
    with pytest.raises(InputError, match="temperature tau=0.0 must be a finite number > 0"):
        Temperatures(tau=0.0)
    with pytest.raises(InputError, match="temperature tau_label=-1.0 must be a finite number > 0"):
        Temperatures(tau=0.05, tau_label=-1.0)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "soft, off_sphere",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-off-sphere", "True-off-sphere"],
)
def test_gradients_match_finite_differences(soft, off_sphere):
    rng = np.random.default_rng(20 + int(soft))
    temps = Temperatures()
    for _ in range(5):
        n, enc, d = int(rng.integers(2, 7)), int(rng.integers(4, 12)), int(rng.integers(2, 6))
        xa, xp = random_unit_rows(rng, n, enc), random_unit_rows(rng, n, enc)
        if off_sphere:  # the head normalizes its own outputs, so its inputs may have any norm
            xa *= rng.uniform(0.2, 5.0, size=(n, 1))
            xp *= rng.uniform(0.2, 5.0, size=(n, 1))
        labels = rng.integers(0, 2, size=n)
        head = init_head(enc, d, seed=int(rng.integers(1000)))
        table = build_label_table(["tok a", "tok b"]) if soft else None
        batch = ContrastiveBatch(xa, xp, labels)  # the differences below move xa and xp in place

        def loss_now():
            value, _ = grad_loss(batch, table, temps, head)
            return value, (np.concatenate([xa, xp]) @ head.w1 > 0.0).tobytes()  # the head's ReLU pattern

        _, grads = grad_loss(batch, table, temps, head)
        assert relative_error(grads.d_w1, finite_difference(loss_now, head.w1)) < 1e-5
        assert relative_error(grads.d_w2, finite_difference(loss_now, head.w2)) < 1e-5
        assert relative_error(grads.d_anchors, finite_difference(loss_now, xa)) < 1e-5
        assert relative_error(grads.d_positives, finite_difference(loss_now, xp)) < 1e-5


# (seed, case, soft) of the instances that failed `losscheck --seed <seed>`
# under plain central differences at a 1e-5 step: truncation error on seeds
# 11 and 14, and a step across a ReLU kink on 196 and 243
@pytest.mark.parametrize("seed, case, soft", [(11, 9, True), (14, 0, False), (196, 6, False), (243, 6, False)])
def test_gradient_check_passes_where_central_differences_failed(seed, case, soft, monkeypatch):
    rng = substream(seed, "losscheck-grad")
    with monkeypatch.context() as m:
        # draw the instances losscheck checks before this one, without their differences
        m.setattr(checks, "finite_difference", lambda f, arr: np.zeros_like(arr))
        for i in range(2 * case + soft):
            checks.gradient_check_case(rng, soft=i % 2 == 1)
    assert checks.gradient_check_case(rng, soft=soft) < 1e-5


def test_zero_gradient_at_matched_optimum():
    rng = np.random.default_rng(30)
    n, enc = 4, 8
    xa = random_unit_rows(rng, n, enc)
    xp = np.tile(random_unit_rows(rng, 1, enc), (n, 1))
    head = init_head(enc, 4, seed=0)
    _, grads = grad_loss(
        ContrastiveBatch(xa, xp, np.zeros(n, dtype=int)), None, Temperatures(), head
    )
    assert np.linalg.norm(grads.d_w1) < 1e-8
    assert np.linalg.norm(grads.d_w2) < 1e-8
    assert np.linalg.norm(grads.d_anchors) < 1e-8


def test_sup_gradient_equals_soft_gradient_on_hard_distribution():
    rng = np.random.default_rng(31)
    n, enc = 5, 8
    xa, xp = random_unit_rows(rng, n, enc), random_unit_rows(rng, n, enc)
    labels = rng.integers(0, 2, size=n)
    head = init_head(enc, 4, seed=1)
    table = np.eye(2)
    temps_hard_limit = Temperatures(tau=0.05, tau_label=1e-4)
    _, g_soft = grad_loss(ContrastiveBatch(xa, xp, labels), table, temps_hard_limit, head)
    _, g_hard = grad_loss(ContrastiveBatch(xa, xp, labels), None, Temperatures(), head)
    assert np.max(np.abs(g_soft.d_w1 - g_hard.d_w1)) < 1e-10
    assert np.max(np.abs(g_soft.d_anchors - g_hard.d_anchors)) < 1e-10


# ---------------------------------------------------------------------------
# Toy training
# ---------------------------------------------------------------------------

def _two_label_rows(seed, per=24):
    rng = np.random.default_rng(seed)
    rows = []
    for idx, (act, words) in enumerate(
        [("greeting", ["hello", "hi", "hey", "morning"]), ("good_bye", ["bye", "goodbye", "farewell", "later"])]
    ):
        action = ActionLabel.make(act, [])
        for i in range(per):
            text = " ".join(rng.choice(words, size=3))
            rows.append((f"a{idx}u{i}", "user", text, action))
    return rows


def test_train_toy_loss_decreases_on_separable_corpus():
    items = single_items(_two_label_rows(0))
    encoder = init_toy_encoder(m=512, n=16, seed=0)
    heads = [init_head(16, 8, seed=0)]
    result = train_toy(items, encoder, heads, Temperatures(), epochs=12, lr_head=0.1,
                       lr_encoder=0.05, seed=0, soft=False)
    assert result.loss_curve[-1] < result.loss_curve[0]


def test_train_toy_deterministic():
    items = single_items(_two_label_rows(1))
    a = train_toy(items, init_toy_encoder(m=512, n=16, seed=1), [init_head(16, 8, seed=1)],
                  Temperatures(), epochs=4, lr_head=0.1, lr_encoder=0.05, seed=9)
    b = train_toy(items, init_toy_encoder(m=512, n=16, seed=1), [init_head(16, 8, seed=1)],
                  Temperatures(), epochs=4, lr_head=0.1, lr_encoder=0.05, seed=9)
    assert a.loss_curve == b.loss_curve
    assert np.array_equal(a.encoder.weights, b.encoder.weights)


def test_train_toy_improves_intra_vs_inter():
    rows = _two_label_rows(2)
    held_out = _two_label_rows(3)
    items = single_items(rows)
    result = train_toy(items, init_toy_encoder(m=512, n=16, seed=2), [init_head(16, 8, seed=2)],
                       Temperatures(), epochs=15, lr_head=0.1, lr_encoder=0.05, seed=2, soft=False)
    vecs = result.encoder.encode([t for _, _, t, _ in held_out])
    ids = [uid for uid, _, _, _ in held_out]
    store = build_store(list(zip(ids, vecs)), normalize=True)
    labels = {uid: action for uid, _, _, action in held_out}
    report = intra_inter_anisotropy(LabeledEmbeddings(store=store, labels=labels))
    assert report.intra > report.inter


def test_train_toy_needs_two_labels():
    rows = [(f"u{i}", "user", "hello there", ActionLabel.make("greeting", [])) for i in range(8)]
    with pytest.raises(InputError, match="training needs at least 2 distinct action labels"):
        train_toy(single_items(rows), init_toy_encoder(m=128, n=8, seed=0), [init_head(8, 4, seed=0)],
                  Temperatures(), epochs=1, seed=0)


def test_train_toy_smallest_batch_size_trains_every_epoch():
    # two items make one batch of two anchors, the smallest that has negatives
    items = [TrainItem(text="hello there", action="greeting"), TrainItem(text="bye now", action="good_bye")]
    encoder = init_toy_encoder(m=128, n=8, seed=0)
    result = train_toy(items, encoder, [init_head(8, 4, seed=0)], Temperatures(tau=0.3), epochs=2,
                       lr_encoder=0.05, seed=0)
    assert len(result.loss_curve) == 2 and np.isfinite(result.loss_curve).all()
    assert not np.array_equal(result.encoder.weights, encoder.weights)


@pytest.mark.parametrize("epochs", [0, -1])
def test_train_toy_rejects_fewer_than_one_epoch(epochs):
    # no epoch would train: rejected, not an untrained result
    items = [TrainItem(text="hello there", action="greeting"), TrainItem(text="bye now", action="good_bye")]
    with pytest.raises(InputError, match=f"epochs={epochs} must be at least 1"):
        train_toy(items, init_toy_encoder(m=128, n=8, seed=0), [init_head(8, 4, seed=0)],
                  Temperatures(), epochs=epochs, seed=0)


@pytest.mark.parametrize("n_heads", [0, 2])
def test_train_toy_trains_exactly_one_head(n_heads):
    items = single_items(_two_label_rows(4, per=4))
    heads = [init_head(8, 4, seed=s) for s in range(n_heads)]
    with pytest.raises(InputError, match=f"exactly one projection head, got {n_heads}"):
        train_toy(items, init_toy_encoder(m=128, n=8, seed=0), heads, Temperatures(), epochs=1)


def _reference_sgd(feats, labels, table, encoder, heads, temps, epochs, lr_head, lr_encoder, seed, batch_size):
    """The dense training loop `train_toy` reproduces: every step multiplies
    the full (m, n) weights, and positives are drawn one scalar call at a time."""
    pools = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
    rng = substream(seed, "train-toy")
    encoder = ToyEncoder(weights=encoder.weights.copy())
    heads = [ContrastiveHead(w1=h.w1.copy(), w2=h.w2.copy()) for h in heads]
    curve = []
    for _ in range(epochs):
        order = rng.permutation(len(labels))
        epoch_losses = []
        for start in range(0, len(labels), batch_size):
            a_idx = order[start : start + batch_size]
            if len(a_idx) < 2:
                continue
            p_idx = np.array([pools[c][rng.integers(len(pools[c]))] for c in labels[a_idx]])
            xa, cache_a = encoder.encode_features(feats[a_idx])
            xp, cache_p = encoder.encode_features(feats[p_idx])
            batch = ContrastiveBatch(anchors=xa, positives=xp, labels=labels[a_idx])
            dxa = np.zeros_like(xa)
            dxp = np.zeros_like(xp)
            total = 0.0
            for head in heads:
                loss, grads = grad_loss(batch, table, temps, head)
                total += loss
                dxa += grads.d_anchors
                dxp += grads.d_positives
                head.w1 -= lr_head * grads.d_w1
                head.w2 -= lr_head * grads.d_w2
            d_enc = encoder.backward(cache_a, dxa) + encoder.backward(cache_p, dxp)
            encoder.weights -= lr_encoder * d_enc
            epoch_losses.append(total)
        curve.append(float(np.mean(epoch_losses)))
    return TrainResult(encoder=encoder, loss_curve=curve)


_WORDS = ["hello", "hi", "bye", "later", "phone", "number", "price", "area", "book", "taxi"]


def _sgd_items(seed, n_items):
    """Items over 3 actions, whose last action has a single item; texts are
    drawn from a small vocabulary, so many of them repeat."""
    rng = np.random.default_rng(seed)
    items = [TrainItem(text=" ".join(rng.choice(_WORDS, size=2)), action=f"act{i % 2}") for i in range(n_items - 1)]
    return items + [TrainItem(text="hello taxi", action="act_single")]


@pytest.mark.parametrize("soft", [True, False])
@pytest.mark.parametrize("seed, n_items", [(0, 65), (1, 129), (2, 7)])
def test_train_toy_matches_the_dense_reference_loop(soft, seed, n_items):
    # 65 and 129 items end each epoch in a batch of one anchor, which both loops skip
    assert n_items < DEFAULT_BATCH_SIZE or n_items % DEFAULT_BATCH_SIZE == 1
    items = _sgd_items(seed, n_items)
    encoder = init_toy_encoder(m=256, n=8, seed=seed)
    head = init_head(8, 4, seed=seed)
    temps = Temperatures(tau=0.3, tau_label=0.5)
    actions = sorted({it.action for it in items})
    labels = np.array([actions.index(it.action) for it in items])
    table = build_label_table(actions) if soft else None
    assert np.bincount(labels).min() == 1
    feats = encoder.features([it.text for it in items])
    fast = train_toy(items, encoder, [head], temps, 4, 0.1, 0.05, seed, soft=soft)
    slow = _reference_sgd(feats, labels, table, encoder, [head], temps, 4, 0.1, 0.05, seed, DEFAULT_BATCH_SIZE)
    assert len(fast.loss_curve) == 4 and np.isfinite(fast.loss_curve).all()
    assert np.max(np.abs(np.array(fast.loss_curve) - slow.loss_curve)) < 1e-12
    assert np.max(np.abs(fast.encoder.weights - slow.encoder.weights)) < 1e-12
    assert not np.array_equal(fast.encoder.weights, encoder.weights)  # it trained


def test_sgd_returns_the_rows_of_unused_columns_bit_for_bit():
    items = _sgd_items(3, 24)
    encoder = init_toy_encoder(m=512, n=8, seed=3)
    head = init_head(8, 4, seed=3)
    trained = train_toy(items, encoder, [head], Temperatures(tau=0.3), 3, 0.1, 0.05, 3).encoder.weights
    used = encoder.features([it.text for it in items]).any(axis=0)
    assert 0 < used.sum() < len(used)
    assert np.array_equal(trained[~used], encoder.weights[~used])
    assert not np.any(trained[used] == encoder.weights[used])


def test_features_hash_each_distinct_text_once_and_keep_every_row():
    texts = ["b a", "a b", "b a", "", "c_d", "a b"]
    rows, inverse = _distinct_features(texts, 64)
    assert rows.shape == (4, 64) and inverse.tolist() == [0, 1, 0, 2, 3, 1]
    expected = np.stack([hashed_bow_vector(t, 64) for t in texts])
    assert np.array_equal(init_toy_encoder(m=64, n=4).features(texts), expected)


def test_positive_draws_equal_one_scalar_draw_per_anchor():
    for state in range(200):
        labels = np.random.default_rng(state).integers(0, 1 + state % 7, size=40)
        labels[0] = labels.max() + 1  # a pool of size 1
        pools = [np.flatnonzero(labels == c) for c in range(labels.max() + 1)]
        anchors = labels[np.random.default_rng(10_000 + state).permutation(len(labels))[:16]]
        scalar_rng, vector_rng = np.random.default_rng(state), np.random.default_rng(state)
        expected = [pools[c][scalar_rng.integers(len(pools[c]))] for c in anchors]
        drawn = _positive_draws(labels)(vector_rng, anchors)
        assert drawn.tolist() == expected
        assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state


def test_train_toy_on_texts_that_hash_to_zero_raises():
    items = [TrainItem(text=text, action=action) for text in ("", " ", "_ _") for action in ("a", "b")]
    with pytest.raises(DegenerateProjectionError):
        train_toy(items, init_toy_encoder(m=64, n=4, seed=0), [init_head(4, 2, seed=0)], Temperatures(), epochs=1)


def test_label_table_diagonal_is_row_max():
    table = build_label_table(["inform name", "inform price", "request phone", "thank you"])
    for i in range(4):
        assert table[i, i] >= table[i].max() - 1e-12
        assert abs(table[i, i] - 1.0) < 1e-12
    assert np.array_equal(table, table.T)


def _label_set(source):
    """The labels of the graded sweep corpus, or of `planted_flow` with k user
    and k system actions at the benchmark's dialog length."""
    if source == "graded":
        train, eval_rows = graded_label_rows(seed=0)
        return sorted({action.render() for _, _, _, action in train + eval_rows})
    pf = planted_flow(k_user=source, k_system=source, n_dialogs=4, dim=2 * source, seed=0, min_len=8, max_len=8)
    return sorted({action.render() for action in pf.user_actions + pf.system_actions})


@pytest.mark.parametrize("source", ["graded", 4, 9, 64])
def test_label_table_keeps_distinct_labels_apart_so_tiny_tau_label_is_the_hard_target(source):
    labels = _label_set(source)
    table = build_label_table(labels)
    assert len(labels) > 2 and np.max(table - 2.0 * np.eye(len(labels))) <= 0.99
    ids = np.repeat(np.arange(len(labels)), 3)
    assert np.array_equal(soft_targets(ids, table, 1e-4), hard_targets(ids))


def test_train_toy_at_tiny_tau_label_is_the_hard_loss_bit_for_bit():
    items = single_items(graded_label_rows(seed=0)[0])
    n, d = SWEEP_TOY["encoder_dim"], SWEEP_TOY["head_dim"]
    temps = Temperatures(tau=SWEEP_TOY["tau"], tau_label=1e-4)
    soft, hard = (
        train_toy(items, init_toy_encoder(n=n, seed=0), [init_head(n, d, seed=0)], temps, epochs=2,
                  lr_head=SWEEP_TOY["lr_head"], lr_encoder=SWEEP_TOY["lr_encoder"], seed=0, soft=flag)
        for flag in (True, False)
    )
    assert np.array_equal(soft.encoder.weights, hard.encoder.weights)
    assert soft.loss_curve == hard.loss_curve


def test_label_table_of_a_label_whose_tokens_cancel_in_the_hash():
    # "inform" and "s819" take one column with opposite signs at 256 columns
    assert not hashed_bow_vector("inform s819", 256).any()
    table = build_label_table(["inform s819", "request s1"])
    assert table[0, 1] == table[1, 0] == 0.0
    assert np.allclose(np.diag(table), 1.0, rtol=0.0, atol=1e-12)


def test_label_table_rejects_a_label_with_no_tokens():
    empty = ActionLabel.make("", []).render()
    with pytest.raises(InputError, match="label '' has no tokens"):
        build_label_table(["inform s1", empty])
    with pytest.raises(InputError, match="label '_ _' has no tokens"):
        build_label_table(["_ _"])


def test_default_head_dimensions():
    head = init_head(seed=0)
    assert head.w1.shape == (768, 768) and head.w2.shape == (768, 128)
