"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is computed by an oracle (the double loops and
central differences of `convflow.checks`, the metric loops written in this
file, hand arithmetic) or frozen from the published tables; none is
produced by the code path under test.
"""

import math
import time

import numpy as np

from convflow.contrastive import (
    ContrastiveBatch,
    Temperatures,
    single_items,
    soft_loss,
    sup_loss,
    sweep_tau_label,
)
from convflow.checks import (
    brute_soft_loss,
    brute_sup_loss,
    gradient_check_case,
    random_label_table,
    random_unit_rows,
)
from convflow.corpus import ActionLabel, parse_unified, serialize_unified, utterance_id
from convflow.cluster import kmeans
from convflow.embedding import build_store, load_embeddings, save_embeddings
from convflow.evaluation import (
    LabeledEmbeddings,
    evaluate,
    intra_inter_anisotropy,
    ndcg_ranking,
    prototype_classify,
)
from convflow.flowgraph import (
    build_graph,
    prune,
    size_difference,
    trajectories_gold,
    trajectories_induced,
)
from convflow.seeding import substream
from convflow.synth import SWEEP_TOY, graded_label_rows, planted_flow
from corpora import random_corpus


# ---------------------------------------------------------------------------
# 1. Loss equivalence against brute-force double loops
# ---------------------------------------------------------------------------

def test_criterion_1_loss_equivalence():
    rng = np.random.default_rng(1001)
    temps = Temperatures()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        anchors, positives = random_unit_rows(rng, n, d), random_unit_rows(rng, n, d)
        labels = rng.integers(0, max(2, n // 2), size=n)
        table = random_label_table(rng, int(labels.max()) + 1)
        batch = ContrastiveBatch(anchors, positives, labels)
        got_sup, _ = sup_loss(batch, temps)
        got_soft, _ = soft_loss(batch, table, temps)
        err_sup = abs(got_sup - brute_sup_loss(anchors, positives, labels, temps.tau))
        err_soft = abs(got_soft - brute_soft_loss(anchors, positives, labels, table, temps.tau, temps.tau_label))
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
        anchors, positives = random_unit_rows(rng, n, d), random_unit_rows(rng, n, d)
        labels = rng.integers(0, max(2, n // 2), size=n)
        table = np.eye(int(labels.max()) + 1)  # delta: 1 same, 0 < 0.9 elsewhere
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

def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    worst = 0.0
    for case in range(50):
        err = gradient_check_case(rng, soft=case % 2 == 1)
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
    # tau'=1e-4 is the hard loss: no two distinct graded labels have delta
    # near 1, so every off-diagonal soft target underflows to 0
    f1_gaps, delta_gaps = [], []
    for seed in (0, 1, 2):
        train_rows, eval_rows = graded_label_rows(seed=seed)
        hard, soft = sweep_tau_label(
            [r for r in _to_items(train_rows)],
            [r for r in _to_items(eval_rows)],
            [1e-4, 0.35],
            seed=seed,
            **SWEEP_TOY,
        )
        assert (hard[0], soft[0]) == (1e-4, 0.35)
        f1_gaps.append(soft[1] - hard[1])
        delta_gaps.append(soft[2] - hard[2])
    assert min(f1_gaps) > 0.0 and min(delta_gaps) > 0.0
    print(f"\nACCEPTANCE 4 PASS: tau'=0.35 beats tau'=1e-4 on every seed in 5-shot F1 "
          f"(gaps {[round(g, 4) for g in f1_gaps]}) and in delta (gaps {[round(g, 4) for g in delta_gaps]})")


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
            diff_raw, pct = size_difference(reference, reference + raw)
            assert diff_raw == raw
            assert round(pct, 2) == printed_pct, (model, domain)
            percents.append(pct)
            checked += 1
        assert round(float(np.mean(percents)), 2) == _TABLE5_AVG[model]
    print(f"\nACCEPTANCE 5 PASS: all {checked} published size-difference cells and "
          f"4 averages reproduced exactly at 2 decimals")


# ---------------------------------------------------------------------------
# 6. Protocol metrics against exhaustive oracles + bitwise repetition
# ---------------------------------------------------------------------------

def _random_labeled(rng, n_items=200, n_actions=10, dim=8):
    x = random_unit_rows(rng, n_items, dim)
    labels = rng.integers(0, n_actions, size=n_items)
    store = build_store([(f"u{i:03d}", x[i]) for i in range(n_items)], normalize=True)
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
            float(data.store.vectors[a] @ data.store.vectors[b]) for a in ids for b in ids if a != b
        )
        intra.append(abs(s) / (len(ids) ** 2 - len(ids)))
    keys = sorted(groups)
    inter = []
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            ids_a, ids_b = groups[keys[i]], groups[keys[j]]
            s = sum(float(data.store.vectors[a] @ data.store.vectors[b]) for a in ids_a for b in ids_b)
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
        vecs = [data.store.vectors[ids[p]] for p in picks]
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
        sims = [float(data.store.vectors[uid] @ p) for p in protos]
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
            cands = [(float(data.store.vectors[c] @ data.store.vectors[query]), c) for c in all_ids if c != query]
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
    for seed in range(10):
        pf = planted_flow(k_user=4, k_system=4, n_dialogs=200, dim=16, seed=seed)
        ids_user, ids_system = [], []
        for dialog in pf.dialogs:
            for i, turn in enumerate(dialog.turns):
                uid = utterance_id(dialog.dialog_id, i)
                (ids_user if turn.speaker == "user" else ids_system).append(uid)
        cu = kmeans(pf.store, ids_user, k=4, seed=seed * 2 + 1)
        cs = kmeans(pf.store, ids_system, k=4, seed=seed * 2 + 2)
        gold_trajs = trajectories_gold(pf.dialogs)
        induced_trajs = trajectories_induced(pf.dialogs, cu, cs)
        actions = {}  # induced cluster -> the planted actions of its turns
        for gold_traj, induced_traj in zip(gold_trajs, induced_trajs, strict=True):
            for (action, _), (cluster, _) in zip(gold_traj, induced_traj, strict=True):
                actions.setdefault(cluster, set()).add(action)
        assert all(len(held) == 1 for held in actions.values()), (seed, actions)
        relabel = {cluster: held.pop() for cluster, held in actions.items()}
        assert len(set(relabel.values())) == len(relabel) == 8, (seed, relabel)
        gold, induced = build_graph(gold_trajs), build_graph(induced_trajs)
        assert {relabel[a]: c for a, c in induced.node_counts.items()} == gold.node_counts, seed
        assert {(relabel[a], relabel[b]): c for (a, b), c in induced.edge_counts.items()} == gold.edge_counts, seed
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 7 PASS: on 10/10 seeds each induced cluster holds one planted "
          f"action, one-to-one, and the relabeled graph's node and edge counts equal the "
          f"planted graph's ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 8. Pruning rule over 1000 random graphs
# ---------------------------------------------------------------------------

def test_criterion_8_pruning_rule():
    rng = np.random.default_rng(1008)
    for _ in range(1000):
        n_dialogs = int(rng.integers(1, 10))
        alphabet = int(rng.integers(1, 12))
        trajs = []
        for _ in range(n_dialogs):
            length = int(rng.integers(1, 10))
            trajs.append(tuple((f"a{int(rng.integers(alphabet))}", "user") for _ in range(length)))
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
