import dataclasses
import math

import numpy as np
import pytest

from convflow import evaluation
from convflow.corpus import ActionLabel, labeled_utterances
from convflow.embedding import build_store
from convflow.errors import InputError
from convflow.evaluation import (
    AnisotropyReport,
    ClassificationResult,
    LabeledEmbeddings,
    RankingResult,
    evaluate,
    intra_inter_anisotropy,
    ndcg_ranking,
    prototype_classify,
    report_to_json,
)
from convflow.seeding import substream
from convflow.synth import planted_flow


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


def anisotropy(vectors: np.ndarray) -> float:
    """Average absolute pairwise cosine of one set: |sum of off-diagonal
    cosines| divided by n^2 - n. The oracle for each intra term of
    `intra_inter_anisotropy`."""
    x = np.asarray(vectors, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise InputError("anisotropy needs at least 2 vectors")
    gram = x @ x.T
    off = float(gram.sum() - np.trace(gram))
    return abs(off) / (n * n - n)


def _labeled(vectors: dict[str, np.ndarray], labels: dict[str, str]) -> LabeledEmbeddings:
    store = build_store(list(vectors.items()), normalize=True)
    return LabeledEmbeddings(store=store, labels={k: ActionLabel.make(v, []) for k, v in labels.items()})


# ---------------------------------------------------------------------------
# Reference implementations: the per-action loops the vectorized metrics
# replaced, kept as oracles
# ---------------------------------------------------------------------------

def _groups(data: LabeledEmbeddings) -> dict[str, list[str]]:
    """Action render -> sorted member ids."""
    out: dict[str, list[str]] = {}
    for uid, label in data.labels.items():
        out.setdefault(label.render(), []).append(uid)
    return {k: sorted(v) for k, v in sorted(out.items())}


def _reference_intra_inter_anisotropy(data: LabeledEmbeddings) -> AnisotropyReport:
    groups = _groups(data)
    if len(groups) < 2:
        raise InputError("need at least 2 actions")
    mats = {a: data.store.matrix(ids) for a, ids in groups.items()}
    intra_terms = []
    excluded = 0
    for a, ids in groups.items():
        if len(ids) < 2:
            excluded += 1
            continue
        intra_terms.append(anisotropy(mats[a]))
    if not intra_terms:
        raise InputError("no action has 2 or more embeddings")
    actions = list(groups)
    inter_terms = []
    for i in range(len(actions)):
        for j in range(i + 1, len(actions)):
            cross = mats[actions[i]] @ mats[actions[j]].T
            inter_terms.append(abs(float(cross.sum())) / cross.size)
    intra = float(np.mean(intra_terms))
    inter = float(np.mean(inter_terms))
    return AnisotropyReport(intra=intra, inter=inter, delta=intra - inter, excluded_intra=excluded)


def _reference_prototype_classify(data: LabeledEmbeddings, k: int, seed: int = 0) -> ClassificationResult:
    if k < 1:
        raise InputError("k must be >= 1")
    groups = _groups(data)
    rng = substream(seed, "prototype", k)
    included: list[str] = []
    prototypes = []
    eval_ids: list[str] = []
    gold: list[int] = []
    excluded: list[str] = []
    for action, ids in groups.items():
        if len(ids) <= k:
            excluded.append(action)
            continue
        picks = set(int(p) for p in rng.choice(len(ids), size=k, replace=False))
        mat = data.store.matrix(ids)
        proto = mat[sorted(picks)].mean(axis=0)
        norm = np.linalg.norm(proto)
        if norm == 0.0:
            raise InputError(f"prototype for action '{action}' collapsed to zero")
        prototypes.append(proto / norm)
        idx = len(included)
        included.append(action)
        for pos, uid in enumerate(ids):
            if pos not in picks:
                eval_ids.append(uid)
                gold.append(idx)
    if not included:
        raise InputError(f"no action has more than k={k} embeddings")
    proto_mat = np.stack(prototypes)
    items = data.store.matrix(eval_ids)
    sims = items @ proto_mat.T
    predicted = np.argmax(sims, axis=1)
    gold_arr = np.asarray(gold)
    f1s = []
    for idx in range(len(included)):
        tp = int(np.sum((predicted == idx) & (gold_arr == idx)))
        fp = int(np.sum((predicted == idx) & (gold_arr != idx)))
        fn = int(np.sum((predicted != idx) & (gold_arr == idx)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return ClassificationResult(
        macro_f1=float(np.mean(f1s)),
        accuracy=float(np.mean(predicted == gold_arr)),
        excluded=tuple(excluded),
    )


def _reference_dcg(relevances) -> float:
    return sum(rel / math.log2(rank + 2) for rank, rel in enumerate(relevances))


def _reference_ndcg_ranking(
    data: LabeledEmbeddings, k: int = 10, seed: int = 0, repetitions: int = 10
) -> RankingResult:
    groups = _groups(data)
    all_ids = sorted(data.labels)
    matrix = data.store.matrix(all_ids)
    eligible = {a: ids for a, ids in groups.items() if len(ids) >= 2}
    excluded = len(groups) - len(eligible)
    if not eligible:
        raise InputError("no action has 2 or more embeddings")
    per_rep = []
    for rep in range(repetitions):
        rng = substream(seed, "ndcg", rep)
        scores = []
        for action, ids in eligible.items():
            query = ids[int(rng.integers(len(ids)))]
            qvec = data.store[query]
            sims = matrix @ qvec
            order = sorted(
                (i for i in range(len(all_ids)) if all_ids[i] != query),
                key=lambda i: (-sims[i], all_ids[i]),
            )
            rels = [1.0 if data.labels[all_ids[i]].render() == action else 0.0 for i in order[:k]]
            idcg = _reference_dcg([1.0] * min(k, len(ids) - 1))
            scores.append(_reference_dcg(rels) / idcg)
        per_rep.append(float(np.mean(scores)))
    arr = np.asarray(per_rep)
    return RankingResult(mean=float(arr.mean()), std=float(arr.std()), excluded=excluded)


# ---------------------------------------------------------------------------
# Anisotropy
# ---------------------------------------------------------------------------

def test_anisotropy_identical_vectors():
    v = np.array([0.6, 0.8])
    assert abs(anisotropy(np.stack([v, v, v])) - 1.0) < 1e-12


def test_anisotropy_hand_enumeration():
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    got = anisotropy(np.stack([e1, e1, e2]))
    assert abs(got - 1.0 / 3.0) < 1e-12


def test_anisotropy_orthogonal_set():
    assert abs(anisotropy(np.eye(4))) < 1e-12


def test_anisotropy_needs_two():
    with pytest.raises(InputError, match="anisotropy needs at least 2 vectors"):
        anisotropy(np.ones((1, 3)))


def test_anisotropy_permutation_and_rotation_invariant():
    rng = np.random.default_rng(0)
    x = _unit_rows(rng, 12, 5)
    base = anisotropy(x)
    assert abs(anisotropy(x[rng.permutation(12)]) - base) < 1e-12
    rot = _random_orthogonal(rng, 5)
    assert abs(anisotropy(x @ rot) - base) < 1e-9


def test_anisotropy_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(2, 15))
        x = _unit_rows(rng, n, 4)
        total = 0.0
        for i in range(n):
            for j in range(n):
                if i != j:
                    total += float(x[i] @ x[j])
        expected = abs(total) / (n * n - n)
        assert abs(anisotropy(x) - expected) < 1e-10


# ---------------------------------------------------------------------------
# Intra / inter
# ---------------------------------------------------------------------------

def test_intra_inter_two_tight_orthogonal_actions():
    data = _labeled(
        {"a1": [1, 0], "a2": [1, 0], "b1": [0, 1], "b2": [0, 1]},
        {"a1": "A", "a2": "A", "b1": "B", "b2": "B"},
    )
    report = intra_inter_anisotropy(data)
    assert abs(report.intra - 1.0) < 1e-12
    assert abs(report.inter) < 1e-12
    assert abs(report.delta - 1.0) < 1e-12


def test_intra_inter_all_identical():
    data = _labeled(
        {"a1": [1, 0], "a2": [1, 0], "b1": [1, 0], "b2": [1, 0]},
        {"a1": "A", "a2": "A", "b1": "B", "b2": "B"},
    )
    report = intra_inter_anisotropy(data)
    assert abs(report.intra - 1.0) < 1e-12
    assert abs(report.inter - 1.0) < 1e-12
    assert abs(report.delta) < 1e-15


def test_intra_inter_singleton_excluded_with_count():
    data = _labeled(
        {"a1": [1, 0], "a2": [1, 0], "b1": [0, 1]},
        {"a1": "A", "a2": "A", "b1": "B"},
    )
    report = intra_inter_anisotropy(data)
    assert report.excluded_intra == 1
    assert abs(report.intra - 1.0) < 1e-12


def test_intra_inter_brute_force_oracle():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n, d, n_actions = 20, 6, 4
        x = _unit_rows(rng, n, d)
        labels = rng.integers(0, n_actions, size=n)
        while len(set(labels.tolist())) < 2:
            labels = rng.integers(0, n_actions, size=n)
        vectors = {f"u{i}": x[i] for i in range(n)}
        data = _labeled(vectors, {f"u{i}": f"act{labels[i]}" for i in range(n)})
        report = intra_inter_anisotropy(data)

        groups: dict[str, list[int]] = {}
        for i in range(n):
            groups.setdefault(f"act{labels[i]}", []).append(i)
        intra_terms = []
        for ids in groups.values():
            if len(ids) < 2:
                continue
            s = sum(float(x[i] @ x[j]) for i in ids for j in ids if i != j)
            intra_terms.append(abs(s) / (len(ids) ** 2 - len(ids)))
        keys = sorted(groups)
        inter_terms = []
        for a in range(len(keys)):
            for b in range(a + 1, len(keys)):
                ids_a, ids_b = groups[keys[a]], groups[keys[b]]
                s = sum(float(x[i] @ x[j]) for i in ids_a for j in ids_b)
                inter_terms.append(abs(s) / (len(ids_a) * len(ids_b)))
        assert abs(report.intra - np.mean(intra_terms)) < 1e-10
        assert abs(report.inter - np.mean(inter_terms)) < 1e-10


# ---------------------------------------------------------------------------
# Prototypical classification
# ---------------------------------------------------------------------------

def _separable_data(rng, per_action=8):
    centers = np.eye(3)
    vectors, labels = {}, {}
    for a in range(3):
        for i in range(per_action):
            noise = 0.05 * rng.standard_normal(3)
            v = centers[a] + noise
            vectors[f"a{a}u{i}"] = v / np.linalg.norm(v)
            labels[f"a{a}u{i}"] = f"act{a}"
    return _labeled(vectors, labels)


def test_prototype_separable_perfect():
    data = _separable_data(np.random.default_rng(3))
    res = prototype_classify(data, k=1, seed=0)
    assert res.macro_f1 == 1.0
    assert res.accuracy == 1.0


def test_prototype_repeated_vectors_accuracy_one():
    data = _labeled(
        {"a1": [1, 0], "a2": [1, 0], "b1": [0, 1], "b2": [0, 1]},
        {"a1": "A", "a2": "A", "b1": "B", "b2": "B"},
    )
    res = prototype_classify(data, k=1, seed=0)
    assert res.accuracy == 1.0


def test_prototype_excludes_small_actions():
    data = _labeled(
        {"a1": [1, 0], "a2": [1, 0], "a3": [1, 0], "b1": [0, 1], "b2": [0, 1], "c1": [0.6, 0.8]},
        {"a1": "A", "a2": "A", "a3": "A", "b1": "B", "b2": "B", "c1": "C"},
    )
    res = prototype_classify(data, k=2, seed=0)
    assert res.excluded == ("B", "C")
    assert res.accuracy == 1.0  # the one held-out A item has one prototype to go to


def test_prototype_brute_force_assignments():
    rng = np.random.default_rng(4)
    for trial in range(5):
        data = _separable_data(rng, per_action=6)
        seed = 100 + trial
        res = prototype_classify(data, k=2, seed=seed)

        groups = _groups(data)
        rng_check = substream(seed, "prototype", 2)
        protos, included = [], []
        eval_items = []
        for action, ids in groups.items():
            picks = sorted(set(int(p) for p in rng_check.choice(len(ids), size=2, replace=False)))
            mat = data.store.matrix(ids)
            proto = mat[picks].mean(axis=0)
            protos.append(proto / np.linalg.norm(proto))
            included.append(action)
            for pos, uid in enumerate(ids):
                if pos not in picks:
                    eval_items.append((uid, action))
        correct = 0
        for uid, action in eval_items:
            sims = [float(data.store[uid] @ p) for p in protos]
            best = included[int(np.argmax(sims))]
            correct += best == action
        assert abs(res.accuracy - correct / len(eval_items)) < 1e-12


def test_prototype_rotation_invariant():
    rng = np.random.default_rng(5)
    data = _separable_data(rng)
    res_base = prototype_classify(data, k=2, seed=7)
    rot = _random_orthogonal(np.random.default_rng(8), 3)
    rotated = {uid: data.store[uid] @ rot for uid in data.store.ids()}
    data_rot = _labeled(rotated, {uid: lab.act for uid, lab in data.labels.items()})
    res_rot = prototype_classify(data_rot, k=2, seed=7)
    assert res_base.accuracy == res_rot.accuracy
    assert res_base.macro_f1 == res_rot.macro_f1


def test_prototype_tie_breaks_to_lowest_action_index():
    # item equidistant from both prototypes: every vector identical
    data = _labeled(
        {"a1": [1, 0], "a2": [1, 0], "a3": [1, 0], "b1": [1, 0], "b2": [1, 0]},
        {"a1": "A", "a2": "A", "a3": "A", "b1": "B", "b2": "B"},
    )
    res = prototype_classify(data, k=1, seed=0)
    # everything is predicted as A (index 0): the 2 held-out A items are
    # right, the B item is wrong; ties to B would score 1/3 and 0.25
    assert res.accuracy == pytest.approx(2 / 3)
    assert res.macro_f1 == pytest.approx((0.8 + 0.0) / 2)


def test_macro_f1_zero_convention():
    # C items always lose the tie to A, so C has zero predictions and zero
    # true positives -> F1 contributes 0, not NaN
    data = _labeled(
        {"a1": [1, 0], "a2": [1, 0], "c1": [1, 0], "c2": [1, 0]},
        {"a1": "A", "a2": "A", "c1": "C", "c2": "C"},
    )
    res = prototype_classify(data, k=1, seed=0)
    assert not math.isnan(res.macro_f1)
    assert res.macro_f1 == pytest.approx((2 / 3 + 0.0) / 2)  # A: precision 1/2, recall 1; C: 0


def test_prototype_needs_a_viable_action():
    data = _labeled({"a1": [1, 0], "b1": [0, 1]}, {"a1": "A", "b1": "B"})
    with pytest.raises(InputError, match="no action has more than k=1 embeddings"):
        prototype_classify(data, k=1, seed=0)


# ---------------------------------------------------------------------------
# nDCG
# ---------------------------------------------------------------------------

def test_ndcg_all_relevant_top():
    rng = np.random.default_rng(6)
    vectors, labels = {}, {}
    center = np.array([1.0, 0.0, 0.0])
    for i in range(4):
        v = center + 0.01 * rng.standard_normal(3)
        vectors[f"a{i}"] = v / np.linalg.norm(v)
        labels[f"a{i}"] = "A"
    for i in range(3):
        v = np.array([0.0, 1.0, 0.0]) + 0.01 * rng.standard_normal(3)
        vectors[f"b{i}"] = v / np.linalg.norm(v)
        labels[f"b{i}"] = "B"
    data = _labeled(vectors, labels)
    res = ndcg_ranking(data, k=3, seed=0, repetitions=3)
    assert abs(res.mean - 1.0) < 1e-12


def test_ndcg_hand_value_pattern_101():
    # ranking (relevant, irrelevant, relevant) at k=3 with 2 relevant total:
    # DCG = 1 + 1/log2(4) = 1.5, IDCG = 1 + 1/log2(3), nDCG ~ 0.9198
    seed = 11
    draw = int(substream(seed, "ndcg", 0).integers(3))  # which of A's members is the query
    members = ["a0", "a1", "a2"]
    query = members[draw]
    others = [m for m in members if m != query]
    vectors = {query: np.array([1.0, 0.0, 0.0, 0.0])}
    vectors[others[0]] = np.array([0.9, math.sqrt(1 - 0.81), 0.0, 0.0])  # rank 1, relevant
    vectors["b0"] = np.array([0.8, 0.0, 0.6, 0.0])  # rank 2, irrelevant
    vectors[others[1]] = np.array([0.7, 0.0, 0.0, math.sqrt(1 - 0.49)])  # rank 3, relevant
    labels = {query: "A", others[0]: "A", others[1]: "A", "b0": "B"}
    data = _labeled(vectors, labels)
    res = ndcg_ranking(data, k=3, seed=seed, repetitions=1)
    dcg = 1.0 + 1.0 / math.log2(4)
    idcg = 1.0 + 1.0 / math.log2(3)
    assert abs(res.mean - dcg / idcg) < 1e-12
    assert abs(res.mean - 0.9198) < 5e-4
    assert res.excluded == 1  # B has one member, excluded as a query action


def test_ndcg_no_relevant_in_topk_is_zero():
    vectors = {
        "a0": np.array([1.0, 0.0, 0.0]),
        "a1": np.array([-1.0, 0.0, 0.0]),
        "b0": np.array([0.9, 0.1, 0.0]) / np.linalg.norm([0.9, 0.1, 0.0]),
        "b1": np.array([0.9, -0.1, 0.0]) / np.linalg.norm([0.9, -0.1, 0.0]),
        "b2": np.array([0.8, 0.0, 0.2]) / np.linalg.norm([0.8, 0.0, 0.2]),
    }
    labels = {"a0": "A", "a1": "A", "b0": "B", "b1": "B", "b2": "B"}
    res = ndcg_ranking(_labeled(vectors, labels), k=2, seed=0, repetitions=1)
    # whichever A member is the query, the other A sits at rank 3+ (cos -1)
    # while B's three members fill the top 2 -> A scores 0
    per_action_scores = res.mean * 2  # mean over A and B
    assert per_action_scores <= 2.0
    # isolate A by removing B's internal hits: check bounds only
    assert 0.0 <= res.mean <= 1.0


def test_ndcg_in_unit_interval_and_reproducible():
    rng = np.random.default_rng(7)
    x = _unit_rows(rng, 30, 5)
    labels = {f"u{i}": f"act{rng.integers(0, 5)}" for i in range(30)}
    data = _labeled({f"u{i}": x[i] for i in range(30)}, labels)
    a = ndcg_ranking(data, k=10, seed=3, repetitions=10)
    b = ndcg_ranking(data, k=10, seed=3, repetitions=10)
    assert a.mean == b.mean and a.std == b.std
    assert 0.0 <= a.mean <= 1.0 and 0.0 <= a.std <= 0.5  # the mean and spread of values in [0, 1]


def test_ndcg_invariant_to_relabeling_irrelevant():
    rng = np.random.default_rng(8)
    x = _unit_rows(rng, 20, 4)
    labels = {f"u{i}": ("A" if i < 6 else f"z{i}") for i in range(20)}
    data = _labeled({f"u{i}": x[i] for i in range(20)}, labels)
    relabeled = {f"u{i}": ("A" if i < 6 else f"w{19 - i}") for i in range(20)}
    data2 = _labeled({f"u{i}": x[i] for i in range(20)}, relabeled)
    a = ndcg_ranking(data, k=5, seed=4, repetitions=2)
    b = ndcg_ranking(data2, k=5, seed=4, repetitions=2)
    # action A's per-query scores are unchanged; other actions are all
    # singletons and excluded either way
    assert a.mean == b.mean and a.std == b.std


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

def test_evaluate_report_delta_exact_and_serializable():
    rng = np.random.default_rng(9)
    data = _separable_data(rng, per_action=8)
    report = evaluate(data, kshots=(1, 5), ndcg_k=5, repetitions=3, seed=0)
    assert report.delta == report.intra - report.inter
    text = report_to_json(report)
    assert '"ndcg"' in text and '"kshot"' in text


def test_evaluate_reproducible():
    rng = np.random.default_rng(10)
    data = _separable_data(rng, per_action=8)
    a = evaluate(data, kshots=(1,), ndcg_k=5, repetitions=5, seed=42)
    b = evaluate(data, kshots=(1,), ndcg_k=5, repetitions=5, seed=42)
    assert a == b


def test_labeled_embeddings_coverage_error():
    store = build_store([("a", [1.0, 0.0])], normalize=True)
    with pytest.raises(InputError, match=r"^1 labeled ids missing from the store: \['missing'\]"):
        LabeledEmbeddings(store=store, labels={"a": ActionLabel.make("A", []), "missing": ActionLabel.make("B", [])})


def test_labeled_embeddings_requires_normalized():
    store = build_store([("a", [2.0, 0.0])])
    with pytest.raises(InputError, match="evaluation requires a normalized store"):
        LabeledEmbeddings(store=store, labels={"a": ActionLabel.make("A", [])})


# ---------------------------------------------------------------------------
# Vectorized metrics against the reference implementations
# ---------------------------------------------------------------------------

def _outcome(fn, *args, **kwargs):
    """The result of fn, or the type and message of the InputError it raised."""
    try:
        return fn(*args, **kwargs)
    except InputError as exc:
        return type(exc), str(exc)


def _tie_heavy(rng) -> LabeledEmbeddings:
    """Few distinct vectors (many exact ties, some exactly orthogonal), many
    actions (often singletons), ids shuffled in the store, and sometimes
    store rows without a label."""
    n = int(rng.integers(2, 40))
    d = int(rng.integers(2, 5))
    pool = np.concatenate([np.eye(d), _unit_rows(rng, 3, d)])
    distinct = pool[rng.choice(len(pool), size=int(rng.integers(1, 5)))]
    x = distinct[rng.integers(len(distinct), size=n)]
    actions = rng.integers(int(rng.integers(2, n + 2)), size=n)
    names = [f"u{i:02d}" for i in rng.permutation(n + 3)]
    vectors = {names[i]: x[i] for i in rng.permutation(n)}
    if rng.random() < 0.3:
        vectors.update({names[n + j]: distinct[0] for j in range(3)})
    return _labeled(vectors, {names[i]: f"act{actions[i]}" for i in range(n)})


def test_metrics_equal_the_reference_on_tie_heavy_inputs():
    rng = np.random.default_rng(12)
    for case in range(300):
        data = _tie_heavy(rng)
        seed = int(rng.integers(1000))
        got = _outcome(intra_inter_anisotropy, data)
        want = _outcome(_reference_intra_inter_anisotropy, data)
        if isinstance(want, tuple):
            assert got == want, case
        else:
            assert got.excluded_intra == want.excluded_intra, case
            for name in ("intra", "inter", "delta"):
                assert abs(getattr(got, name) - getattr(want, name)) < 1e-9, (case, name)
        for k in (1, 2, 5):
            assert _outcome(prototype_classify, data, k, seed=seed) == _outcome(
                _reference_prototype_classify, data, k, seed=seed
            ), (case, k)
        n = len(data.labels)
        for k in (1, n - 1, n + 3):  # n + 3: fewer candidates than k
            if k >= 1:
                assert _outcome(ndcg_ranking, data, k=k, seed=seed, repetitions=3) == _outcome(
                    _reference_ndcg_ranking, data, k=k, seed=seed, repetitions=3
                ), (case, k)


def test_report_matches_the_reference_on_a_many_action_planted_flow(monkeypatch):
    # 80-degree dispersion lets actions overlap, so no score is a trivial 1.0
    pf = planted_flow(
        k_user=64, k_system=64, dim=256, n_dialogs=150, seed=3, min_len=8, max_len=8, max_dispersion_deg=80.0
    )
    rows = labeled_utterances(pf.dialogs)
    labels = {uid: action for uid, _, _, action in rows}
    # and with a third of the store's ids unlabeled: k-shot and nDCG score those rows, the references never do
    partly = {uid: action for i, (uid, action) in enumerate(labels.items()) if i % 3}
    reports = {}
    for name, given in (("all labeled", labels), ("a third unlabeled", partly)):
        reports[name] = evaluate(LabeledEmbeddings(store=pf.store, labels=given), seed=5)
    monkeypatch.setattr(evaluation, "intra_inter_anisotropy", _reference_intra_inter_anisotropy)
    monkeypatch.setattr(evaluation, "prototype_classify", _reference_prototype_classify)
    monkeypatch.setattr(evaluation, "ndcg_ranking", _reference_ndcg_ranking)
    for name, given in (("all labeled", labels), ("a third unlabeled", partly)):
        got = reports[name]
        want = evaluate(LabeledEmbeddings(store=pf.store, labels=given), seed=5)
        # summing per-action vectors instead of Gram blocks moves the last bits
        for field in ("intra", "inter", "delta"):
            assert abs(getattr(got, field) - getattr(want, field)) < 1e-9, (name, field)
        want = dataclasses.replace(want, intra=got.intra, inter=got.inter, delta=got.delta)
        assert report_to_json(got) == report_to_json(want), name
