"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is computed by an oracle written in this file
(double loops, finite differences, hand arithmetic) or frozen from the
published tables; none is produced by the code path under test.
"""

import math
import time

import numpy as np

from convflow.contrastive import (
    ContrastiveBatch,
    LabelTable,
    Temperatures,
    grad_loss,
    init_head,
    single_items,
    soft_loss,
    sup_loss,
    sweep_tau_label,
)
from convflow.corpus import ActionLabel, parse_unified, serialize_unified, utterance_id
from convflow.cluster import kmeans
from convflow.embedding import EmbeddingStore, build_store, load_embeddings, save_embeddings
from convflow.evaluation import (
    LabeledEmbeddings,
    evaluate,
    intra_inter_anisotropy,
    ndcg_ranking,
    prototype_classify,
)
from convflow.flowgraph import (
    GraphDiff,
    Trajectory,
    TrajectoryStep,
    build_graph,
    prune,
    trajectories_gold,
    trajectories_induced,
)
from convflow.seeding import substream
from convflow.synth import SWEEP_TOY, graded_label_rows, planted_flow
from corpora import random_corpus


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _random_table(rng, n_labels, dim=10) -> LabelTable:
    embs = _unit_rows(rng, n_labels, dim)
    delta = embs @ embs.T
    delta = (delta + delta.T) / 2.0
    return LabelTable(delta=delta)


def _orthogonal_table(n_labels) -> LabelTable:
    return LabelTable(delta=np.eye(n_labels))


# ---------------------------------------------------------------------------
# 1. Loss equivalence against brute-force double loops
# ---------------------------------------------------------------------------

def _oracle_sup(anchors, positives, labels, tau):
    n = len(labels)
    total = 0.0
    for i in range(n):
        pos = [j for j in range(n) if labels[j] == labels[i]]
        denom = sum(math.exp(float(anchors[i] @ positives[k]) / tau) for k in range(n))
        li = 0.0
        for j in pos:
            li -= math.log(math.exp(float(anchors[i] @ positives[j]) / tau) / denom)
        total += li / len(pos)
    return total / n


def _oracle_soft(anchors, positives, labels, delta, tau, tau_label):
    n = len(labels)
    total = 0.0
    for i in range(n):
        z = sum(math.exp(float(delta[labels[i], labels[k]]) / tau_label) for k in range(n))
        denom = sum(math.exp(float(anchors[i] @ positives[k]) / tau) for k in range(n))
        for j in range(n):
            p = math.exp(float(delta[labels[i], labels[j]]) / tau_label) / z
            q = math.exp(float(anchors[i] @ positives[j]) / tau) / denom
            total -= p * math.log(q)
    return total / n


def test_criterion_1_loss_equivalence():
    rng = np.random.default_rng(1001)
    temps = Temperatures()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        anchors, positives = _unit_rows(rng, n, d), _unit_rows(rng, n, d)
        labels = rng.integers(0, max(2, n // 2), size=n)
        table = _random_table(rng, int(labels.max()) + 1)
        batch = ContrastiveBatch(anchors, positives, labels)
        got_sup, _ = sup_loss(batch, temps)
        got_soft, _ = soft_loss(batch, table, temps)
        err_sup = abs(got_sup - _oracle_sup(anchors, positives, labels, temps.tau))
        err_soft = abs(
            got_soft - _oracle_soft(anchors, positives, labels, table.delta, temps.tau, temps.tau_label)
        )
        worst = max(worst, err_sup, err_soft)
        assert err_sup < 1e-10
        assert err_soft < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: sup/soft losses match brute force on 200 batches "
          f"(worst |err| {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Soft -> hard limit
# ---------------------------------------------------------------------------

def test_criterion_2_soft_hard_limit():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        anchors, positives = _unit_rows(rng, n, d), _unit_rows(rng, n, d)
        labels = rng.integers(0, max(2, n // 2), size=n)
        table = _orthogonal_table(int(labels.max()) + 1)  # delta: 1 same, 0 < 0.9 elsewhere
        batch = ContrastiveBatch(anchors, positives, labels)
        hard, _ = sup_loss(batch, Temperatures())
        soft, _ = soft_loss(batch, table, Temperatures(tau=0.05, tau_label=1e-4))
        err = abs(soft - hard)
        worst = max(worst, err)
        assert err < 1e-6
    print(f"\nACCEPTANCE 2 PASS: |soft(tau'=1e-4) - sup| < 1e-6 on every batch "
          f"(worst {worst:.2e})")


# ---------------------------------------------------------------------------
# 3. Gradient correctness via central finite differences
# ---------------------------------------------------------------------------

def _fd_grad(f, arr, step=1e-5):
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        fp = f()
        flat[i] = orig - step
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * step)
    return grad


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(1003)
    temps = Temperatures()
    start = time.perf_counter()
    worst = 0.0
    case = 0
    while case < 50:
        soft_mode = case % 2 == 1
        n = int(rng.integers(2, 9))
        enc = int(rng.integers(4, 17))
        d = int(rng.integers(2, 9))
        xa, xp = _unit_rows(rng, n, enc), _unit_rows(rng, n, enc)
        labels = rng.integers(0, max(2, n // 2), size=n)
        head = init_head(enc, d, seed=int(rng.integers(2**31)))
        table = _random_table(rng, int(labels.max()) + 1) if soft_mode else None
        batch = ContrastiveBatch(xa, xp, labels)  # _fd_grad moves xa and xp in place

        def loss_now():
            value, _ = grad_loss(batch, table, temps, head)
            return value

        from convflow.errors import DegenerateProjectionError

        try:
            _, grads = grad_loss(batch, table, temps, head)
        except DegenerateProjectionError:
            continue  # precondition violation (dead projection); redraw
        case += 1
        for analytic, arr in (
            (grads.d_w1, head.w1),
            (grads.d_w2, head.w2),
            (grads.d_anchors, xa),
            (grads.d_positives, xp),
        ):
            err = _rel_err(analytic, _fd_grad(loss_now, arr))
            worst = max(worst, err)
            assert err < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 3 PASS: analytic gradients match central differences on 50 "
          f"instances (worst rel err {worst:.2e}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 4. Temperature-sweep qualitative property (soft beats hard)
# ---------------------------------------------------------------------------

def test_criterion_4_sweep_soft_beats_hard():
    gaps = []
    for seed in (0, 1, 2):
        train_rows, eval_rows = graded_label_rows(seed=seed)
        rows = sweep_tau_label(
            [r for r in _to_items(train_rows)],
            [r for r in _to_items(eval_rows)],
            [1e-4, 0.35],
            seed=seed,
            **SWEEP_TOY,
        )
        by_tau = {round(r[0], 6): r for r in rows}
        delta_hard = by_tau[round(1e-4, 6)][2]
        delta_soft = by_tau[0.35][2]
        gaps.append(delta_soft - delta_hard)
    median_gap = sorted(gaps)[1]
    assert median_gap > 0.0
    print(f"\nACCEPTANCE 4 PASS: delta(tau'=0.35) > delta(tau'=1e-4) for the median "
          f"seed (gaps {[round(g, 4) for g in gaps]})")


def _to_items(rows):
    return single_items(rows)


# ---------------------------------------------------------------------------
# 5. Published graph-size table arithmetic
# ---------------------------------------------------------------------------

# (domain, reference size) and per-model (printed %, raw difference)
_TABLE5_HEADERS = [("Taxi", 31), ("Police", 23), ("Hospital", 18), ("Train", 49),
                   ("Restaurant", 59), ("Attraction", 45)]
_TABLE5_CELLS = {
    "soft_single": [(9.68, 3), (4.35, -1), (11.11, -2), (2.04, 1), (5.08, -3), (8.89, 4)],
    "soft_joint": [(3.23, 1), (8.70, -2), (5.56, -1), (10.20, -5), (23.73, -14), (0.00, 0)],
    "hard_single": [(12.90, -4), (26.09, -6), (16.67, -3), (10.20, -5), (10.17, -6), (15.56, 7)],
    "hard_joint": [(0.00, 0), (8.70, -2), (33.33, -6), (20.41, -10), (25.42, -15), (13.33, -6)],
}
_TABLE5_AVG = {"soft_single": 6.86, "soft_joint": 8.57, "hard_single": 15.26, "hard_joint": 16.87}


def test_criterion_5_graph_size_table_arithmetic():
    checked = 0
    for model, cells in _TABLE5_CELLS.items():
        percents = []
        for (domain, reference), (printed_pct, raw) in zip(_TABLE5_HEADERS, cells):
            diff = GraphDiff.from_sizes(reference, reference + raw)
            assert diff.raw == raw
            assert round(diff.normalized_pct, 2) == printed_pct, (model, domain)
            percents.append(diff.normalized_pct)
            checked += 1
        assert round(float(np.mean(percents)), 2) == _TABLE5_AVG[model]
    print(f"\nACCEPTANCE 5 PASS: all {checked} published size-difference cells and "
          f"4 averages reproduced exactly at 2 decimals")


# ---------------------------------------------------------------------------
# 6. Protocol metrics against exhaustive oracles + bitwise repetition
# ---------------------------------------------------------------------------

def _random_labeled(rng, n_items=200, n_actions=10, dim=8):
    x = _unit_rows(rng, n_items, dim)
    labels = rng.integers(0, n_actions, size=n_items)
    store = EmbeddingStore(
        dim=dim, vectors={f"u{i:03d}": x[i] for i in range(n_items)}, normalized=True
    )
    return LabeledEmbeddings(
        store=store, labels={f"u{i:03d}": ActionLabel.make(f"act{labels[i]:02d}", []) for i in range(n_items)}
    )


def _oracle_intra_inter(data):
    groups = {}
    for uid, lab in data.labels.items():
        groups.setdefault(lab.render(), []).append(uid)
    groups = {k: sorted(v) for k, v in sorted(groups.items())}
    intra = []
    for ids in groups.values():
        if len(ids) < 2:
            continue
        s = sum(
            float(data.store.get(a) @ data.store.get(b)) for a in ids for b in ids if a != b
        )
        intra.append(abs(s) / (len(ids) ** 2 - len(ids)))
    keys = sorted(groups)
    inter = []
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            ids_a, ids_b = groups[keys[i]], groups[keys[j]]
            s = sum(float(data.store.get(a) @ data.store.get(b)) for a in ids_a for b in ids_b)
            inter.append(abs(s) / (len(ids_a) * len(ids_b)))
    return float(np.mean(intra)), float(np.mean(inter))


def _oracle_kshot(data, k, seed):
    groups = {}
    for uid, lab in data.labels.items():
        groups.setdefault(lab.render(), []).append(uid)
    groups = {key: sorted(v) for key, v in sorted(groups.items())}
    rng = substream(seed, "prototype", k)  # replicate the protocol's draw
    protos, included, items = [], [], []
    for action, ids in groups.items():
        if len(ids) <= k:
            continue
        picks = sorted(set(int(p) for p in rng.choice(len(ids), size=k, replace=False)))
        vecs = [data.store.get(ids[p]) for p in picks]
        proto = np.zeros(data.store.dim)
        for v in vecs:
            proto = proto + v
        proto = proto / len(vecs)
        proto = proto / math.sqrt(float(proto @ proto))
        protos.append(proto)
        included.append(action)
        for pos, uid in enumerate(ids):
            if pos not in picks:
                items.append((uid, action))
    gold, predicted = [], []
    for uid, action in items:
        sims = [float(data.store.get(uid) @ p) for p in protos]
        best = 0
        for idx in range(1, len(sims)):
            if sims[idx] > sims[best]:
                best = idx
        predicted.append(included[best])
        gold.append(action)
    accuracy = sum(p == g for p, g in zip(predicted, gold)) / len(gold)
    f1s = []
    for action in included:
        tp = sum(1 for p, g in zip(predicted, gold) if p == action and g == action)
        fp = sum(1 for p, g in zip(predicted, gold) if p == action and g != action)
        fn = sum(1 for p, g in zip(predicted, gold) if p != action and g == action)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s)), float(accuracy)


def _oracle_ndcg(data, k, seed, repetitions):
    groups = {}
    for uid, lab in data.labels.items():
        groups.setdefault(lab.render(), []).append(uid)
    groups = {key: sorted(v) for key, v in sorted(groups.items())}
    all_ids = sorted(data.labels)
    per_rep = []
    for rep in range(repetitions):
        rng = substream(seed, "ndcg", rep)  # replicate the protocol's draw
        scores = []
        for action, ids in groups.items():
            if len(ids) < 2:
                continue
            query = ids[int(rng.integers(len(ids)))]
            cands = [(float(data.store.get(c) @ data.store.get(query)), c) for c in all_ids if c != query]
            cands.sort(key=lambda t: (-t[0], t[1]))
            dcg = 0.0
            for rank, (_, cand) in enumerate(cands[:k]):
                rel = 1.0 if data.labels[cand].render() == action else 0.0
                dcg += rel / math.log2(rank + 2)
            n_rel = len(ids) - 1
            idcg = sum(1.0 / math.log2(r + 2) for r in range(min(k, n_rel)))
            scores.append(dcg / idcg)
        per_rep.append(float(np.mean(scores)))
    return per_rep


def test_criterion_6_metric_oracles_and_reproducibility():
    rng = np.random.default_rng(1006)
    for trial in range(3):
        data = _random_labeled(rng, n_items=int(rng.integers(80, 201)), n_actions=10)
        seed = 500 + trial

        report = intra_inter_anisotropy(data)
        o_intra, o_inter = _oracle_intra_inter(data)
        assert abs(report.intra - o_intra) < 1e-9
        assert abs(report.inter - o_inter) < 1e-9

        for k in (1, 5):
            res = prototype_classify(data, k, seed=seed)
            o_f1, o_acc = _oracle_kshot(data, k, seed)
            assert abs(res.macro_f1 - o_f1) < 1e-9
            assert abs(res.accuracy - o_acc) < 1e-9

        ranking = ndcg_ranking(data, k=10, seed=seed, repetitions=10)
        oracle_reps = _oracle_ndcg(data, 10, seed, 10)
        for got, want in zip(ranking.per_repetition, oracle_reps):
            assert abs(got - want) < 1e-9

    data = _random_labeled(np.random.default_rng(77), n_items=150, n_actions=10)
    a = evaluate(data, kshots=(1, 5), ndcg_k=10, repetitions=10, seed=99)
    b = evaluate(data, kshots=(1, 5), ndcg_k=10, repetitions=10, seed=99)
    assert a == b  # bitwise: dataclass equality over exact floats
    print("\nACCEPTANCE 6 PASS: anisotropy, k-shot, and nDCG match exhaustive "
          "oracles within 1e-9; 10-repetition protocol bitwise reproducible")


# ---------------------------------------------------------------------------
# 7. Planted-flow recovery through the full pipeline
# ---------------------------------------------------------------------------

def test_criterion_7_planted_flow_recovery():
    start = time.perf_counter()
    hits = 0
    details = []
    for seed in range(10):
        pf = planted_flow(k_user=4, k_system=4, n_dialogs=200, dim=16, seed=seed)
        gold = prune(build_graph(trajectories_gold(pf.dialogs)), 0.02)
        ids_user, ids_system = [], []
        for dialog in pf.dialogs:
            for i, turn in enumerate(dialog.turns):
                uid = utterance_id(dialog.dialog_id, i)
                (ids_user if turn.speaker == "user" else ids_system).append(uid)
        cu = kmeans(pf.store, ids_user, k=4, seed=seed * 2 + 1)
        cs = kmeans(pf.store, ids_system, k=4, seed=seed * 2 + 2)
        induced = prune(build_graph(trajectories_induced(pf.dialogs, cu, cs)), 0.02)
        details.append((gold.size, induced.size))
        if abs(induced.size - gold.size) <= 1:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 9, details
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 PASS: induced node count within +/-1 of planted on "
          f"{hits}/10 seeds ({elapsed:.1f}s; sizes {details})")


# ---------------------------------------------------------------------------
# 8. Pruning rule over 1000 random graphs
# ---------------------------------------------------------------------------

def test_criterion_8_pruning_rule():
    rng = np.random.default_rng(1008)
    for _ in range(1000):
        n_dialogs = int(rng.integers(1, 10))
        alphabet = int(rng.integers(1, 12))
        trajs = []
        for d in range(n_dialogs):
            length = int(rng.integers(1, 10))
            actions = [f"a{int(rng.integers(alphabet))}" for _ in range(length)]
            trajs.append(
                Trajectory(
                    dialog_id=f"d{d}",
                    steps=tuple(TrajectoryStep(speaker="user", action=a) for a in actions),
                )
            )
        graph = build_graph(trajs)
        pruned = prune(graph, 0.02)
        expected = {a for a in graph.nodes if graph.node_weights[a] >= 0.02}
        assert set(pruned.nodes) == expected
        for src, dst in pruned.edge_weights:
            assert src in expected and dst in expected
    print("\nACCEPTANCE 8 PASS: exactly the nodes with weight < 0.02 removed on "
          "1000 random graphs")


# ---------------------------------------------------------------------------
# 9. Format round-trips
# ---------------------------------------------------------------------------

def test_criterion_9_format_roundtrips(tmp_path):
    for seed in range(10):
        corpus = random_corpus(seed=seed, n_dialogs=int(3 + seed))
        first = serialize_unified(corpus)
        second = serialize_unified(parse_unified(first))
        assert first == second

    rng = np.random.default_rng(1009)
    for seed in range(10):
        n = int(rng.integers(1, 20))
        dim = int(rng.integers(1, 32))
        pairs = [(f"id-{seed}-{i}", rng.standard_normal(dim)) for i in range(n)]
        store = build_store(pairs)
        p1 = tmp_path / f"emb{seed}_a.bin"
        p2 = tmp_path / f"emb{seed}_b.bin"
        save_embeddings(store, str(p1), format="binary")
        save_embeddings(load_embeddings(str(p1), format="binary"), str(p2), format="binary")
        assert p1.read_bytes() == p2.read_bytes()
    print("\nACCEPTANCE 9 PASS: unified corpus and binary embedding files "
          "round-trip byte-identically on randomized fixtures")
