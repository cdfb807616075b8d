"""Similarity-based quality metrics for a labeled embedding space:
intra/inter-action anisotropy, prototypical k-shot classification, and
nDCG@k ranking, with the 10-repetition mean/std protocol.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import ActionLabel
from .embedding import EmbeddingStore, row_norms
from .errors import InputError
from .seeding import substream


@dataclass(frozen=True)
class Layout:
    """The labeled ids grouped by action, built once per LabeledEmbeddings."""

    ids: tuple[str, ...]  # sorted labeled ids
    rows: np.ndarray  # store matrix row of each id
    actions: tuple[str, ...]  # sorted action renders
    action_of: np.ndarray  # action index of each id
    members: tuple[np.ndarray, ...]  # each action's positions in `ids`, ascending


@dataclass(frozen=True)
class LabeledEmbeddings:
    """A normalized store plus an action label for each evaluated id."""

    store: EmbeddingStore
    labels: dict[str, ActionLabel]

    def __post_init__(self):
        if not self.store.normalized:
            raise InputError("evaluation requires a normalized store")
        missing = sorted(uid for uid in self.labels if uid not in self.store)
        if missing:
            raise InputError(f"{len(missing)} labeled ids missing from the store: {missing[:5]}...")

    @cached_property
    def layout(self) -> Layout:
        """The grouping every metric reads, built on first use."""
        ids = sorted(self.labels)
        renders = [self.labels[uid].render() for uid in ids]
        actions = sorted(set(renders))
        index = {a: i for i, a in enumerate(actions)}
        action_of = np.fromiter((index[r] for r in renders), np.intp, len(ids))
        order = np.argsort(action_of, kind="stable")
        bounds = np.searchsorted(action_of[order], np.arange(len(actions) + 1))
        return Layout(
            ids=tuple(ids),
            rows=self.store.rows(ids),
            actions=tuple(actions),
            action_of=action_of,
            members=tuple(order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])),
        )


@dataclass(frozen=True)
class AnisotropyReport:
    intra: float
    inter: float
    delta: float
    excluded_intra: int  # singleton actions that cannot contribute an intra term


def intra_inter_anisotropy(data: LabeledEmbeddings) -> AnisotropyReport:
    """Mean within-action anisotropy, mean absolute cross-action average
    cosine over unordered action pairs, and their difference.

    Both come from per-action sum vectors s_a: the off-diagonal sum of an
    action's Gram matrix is |s_a|^2 - sum |x|^2, and the sum of its cross
    block with action b is s_a . s_b.
    """
    layout = data.layout
    if len(layout.actions) < 2:
        raise InputError("need at least 2 actions")
    sums = np.empty((len(layout.actions), data.store.dim))
    squares = np.empty(len(layout.actions))
    for a, members in enumerate(layout.members):
        x = data.store.array.take(layout.rows[members], axis=0)
        sums[a] = x.sum(axis=0)
        squares[a] = np.einsum("ij,ij->", x, x)
    n = np.array([len(m) for m in layout.members], dtype=np.float64)
    multi = n >= 2
    if not multi.any():
        raise InputError("no action has 2 or more embeddings")
    off = np.einsum("ij,ij->i", sums, sums) - squares
    intra = float(np.mean(np.abs(off[multi]) / (n[multi] * n[multi] - n[multi])))
    cross = np.abs(sums @ sums.T) / np.outer(n, n)
    inter = float(np.mean(cross[np.triu_indices(len(n), 1)]))
    return AnisotropyReport(
        intra=intra, inter=inter, delta=intra - inter, excluded_intra=int(np.sum(~multi))
    )


# ---------------------------------------------------------------------------
# Prototypical k-shot classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    macro_f1: float
    accuracy: float
    excluded: tuple[str, ...]  # actions without k+1 embeddings


def prototype_classify(data: LabeledEmbeddings, k: int, seed: int = 0) -> ClassificationResult:
    """Nearest-prototype classification: per action, k seeded embeddings
    are averaged and re-normalized into a prototype; every remaining
    embedding of an included action is assigned the action of its
    highest-cosine prototype (ties to the lowest action index).

    Cost: one (store rows x included actions) product per call, as in
    `ndcg_ranking`: every row of the store's own matrix is scored, so no
    embedding is copied, and the eval rows' scores are read out of it."""
    if k < 1:
        raise InputError("k must be >= 1")
    layout = data.layout
    rng = substream(seed, "prototype", k)
    included: list[str] = []
    picked_rows = []
    eval_rows = []
    excluded: list[str] = []
    for action, members in zip(layout.actions, layout.members):
        if len(members) <= k:
            excluded.append(action)
            continue
        picked = np.zeros(len(members), dtype=bool)
        picked[rng.choice(len(members), size=k, replace=False)] = True
        included.append(action)
        picked_rows.append(layout.rows[members[picked]])
        eval_rows.append(layout.rows[members[~picked]])
    if not included:
        raise InputError(f"no action has more than k={k} embeddings")
    matrix = data.store.array
    picks = matrix.take(np.concatenate(picked_rows), axis=0).reshape(len(included), k, -1)
    prototypes = picks.sum(axis=1) / k  # each action's k rows summed in order: their mean
    norms = row_norms(prototypes)
    if (norms == 0.0).any():
        raise InputError(f"prototype for action '{included[int(np.argmax(norms == 0.0))]}' collapsed to zero")
    prototypes /= norms[:, None]
    gold = np.repeat(np.arange(len(included)), [len(r) for r in eval_rows])
    # first max wins: lowest action index
    predicted = np.argmax(matrix @ prototypes.T, axis=1).take(np.concatenate(eval_rows))
    tps = np.bincount(gold[predicted == gold], minlength=len(included))
    n_predicted = np.bincount(predicted, minlength=len(included))
    n_gold = np.bincount(gold, minlength=len(included))
    f1s = []
    for tp, n_pred, n_true in zip(tps.tolist(), n_predicted.tolist(), n_gold.tolist()):
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_true if n_true else 0.0
        f1s.append(2 * precision * recall / (precision + recall) if precision + recall else 0.0)
    return ClassificationResult(
        macro_f1=float(np.mean(f1s)),
        accuracy=float(np.mean(predicted == gold)),
        excluded=tuple(excluded),
    )


# ---------------------------------------------------------------------------
# nDCG ranking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankingResult:
    mean: float
    std: float
    excluded: int  # actions without a second embedding


def ndcg_ranking(
    data: LabeledEmbeddings,
    k: int = 10,
    seed: int = 0,
    repetitions: int = 10,
) -> RankingResult:
    """nDCG@k with one seeded query per action per repetition.

    The query is excluded from its own candidate ranking, and candidates
    are ranked by (-cosine, id). Relevance is binary (same action); ideal
    DCG counts min(k, #relevant) hits. The per-repetition value is the mean
    over actions; mean and std are over repetitions.
    """
    layout = data.layout
    eligible = [a for a, members in enumerate(layout.members) if len(members) >= 2]
    excluded = len(layout.actions) - len(eligible)
    if not eligible:
        raise InputError("no action has 2 or more embeddings")
    # rank over the store's own rows, so no copy is made; unlabeled rows rank last
    matrix = data.store.array
    position = np.full(len(matrix), -1)  # store row -> position in layout.ids
    position[layout.rows] = np.arange(len(layout.ids))
    unlabeled = np.flatnonzero(position < 0)
    depth = min(k, len(layout.ids) - 1)  # candidates ranked per query
    discounts = [1.0 / math.log2(rank + 2) for rank in range(depth)]
    ideal = [0.0]  # ideal[m]: DCG of m hits at the top, summed left to right
    for discount in discounts:
        ideal.append(ideal[-1] + discount)
    idcg = np.array([ideal[min(depth, len(layout.members[a]) - 1)] for a in eligible])
    relevant = np.array(eligible)[:, None]  # each query's own action
    per_rep = []
    for rep in range(repetitions):
        rng = substream(seed, "ndcg", rep)
        queries = layout.rows[[layout.members[a][int(rng.integers(len(layout.members[a])))] for a in eligible]]
        neg = matrix.take(queries, axis=0) @ matrix.T
        neg[np.arange(len(queries)), queries] = np.inf  # the query ranks first, then is dropped
        np.negative(neg, out=neg)
        neg[:, unlabeled] = np.inf
        top = np.empty((len(queries), depth), dtype=np.intp)
        for i, row in enumerate(neg):
            # the depth+1 smallest -sims, with every tie at the boundary, by (-sim, id)
            candidates = np.flatnonzero(row <= np.partition(row, depth)[depth])
            ranked = candidates[np.lexsort((position[candidates], row[candidates]))]
            top[i] = position[ranked[1 : depth + 1]]
        hits = layout.action_of[top] == relevant
        dcg = np.zeros(len(eligible))
        for rank, discount in enumerate(discounts):
            dcg[hits[:, rank]] += discount
        per_rep.append(float(np.mean(dcg / idcg)))
    arr = np.asarray(per_rep)
    return RankingResult(
        mean=float(arr.mean()),
        std=float(arr.std()),
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalReport:
    intra: float
    inter: float
    delta: float
    f1_macro: dict[int, tuple[float, float]]  # k -> (mean, std)
    accuracy: dict[int, tuple[float, float]]
    ndcg: tuple[float, float]
    ndcg_k: int
    kshots: tuple[int, ...]
    repetitions: int
    excluded_intra: int
    excluded_kshot: dict[int, int]
    excluded_ndcg: int


def evaluate(
    data: LabeledEmbeddings,
    kshots: tuple[int, ...] = (1, 5),
    ndcg_k: int = 10,
    repetitions: int = 10,
    seed: int = 0,
) -> EvalReport:
    """Run the full metric battery with per-stage seed substreams."""
    if ndcg_k < 1 or repetitions < 1:
        raise InputError(f"ndcg_k and repetitions must be >= 1, got {ndcg_k} and {repetitions}")
    if not kshots or len(set(kshots)) != len(kshots):
        raise InputError(f"kshot must be a non-empty list of distinct shot counts, got {list(kshots)}")
    aniso = intra_inter_anisotropy(data)
    f1_macro: dict[int, tuple[float, float]] = {}
    accuracy: dict[int, tuple[float, float]] = {}
    excluded_kshot: dict[int, int] = {}
    for k in kshots:
        f1s, accs = [], []
        excluded = 0
        for rep in range(repetitions):
            rep_seed = int(substream(seed, "kshot-rep", k, rep).integers(2**31))
            res = prototype_classify(data, k, seed=rep_seed)
            f1s.append(res.macro_f1)
            accs.append(res.accuracy)
            excluded = len(res.excluded)
        f1_arr, acc_arr = np.asarray(f1s), np.asarray(accs)
        f1_macro[k] = (float(f1_arr.mean()), float(f1_arr.std()))
        accuracy[k] = (float(acc_arr.mean()), float(acc_arr.std()))
        excluded_kshot[k] = excluded
    ranking = ndcg_ranking(data, k=ndcg_k, seed=seed, repetitions=repetitions)
    return EvalReport(
        intra=aniso.intra,
        inter=aniso.inter,
        delta=aniso.delta,
        f1_macro=f1_macro,
        accuracy=accuracy,
        ndcg=(ranking.mean, ranking.std),
        ndcg_k=ndcg_k,
        kshots=tuple(kshots),
        repetitions=repetitions,
        excluded_intra=aniso.excluded_intra,
        excluded_kshot=excluded_kshot,
        excluded_ndcg=ranking.excluded,
    )


def evaluate_labeled(data: LabeledEmbeddings, kshot: int = 5, seed: int = 0) -> tuple[float, float]:
    """Light-weight single-repetition (macro-F1, anisotropy delta) pair
    used by the temperature sweep."""
    res = prototype_classify(data, kshot, seed=seed)
    aniso = intra_inter_anisotropy(data)
    return res.macro_f1, aniso.delta


def report_to_json(report: EvalReport) -> str:
    payload = {
        "anisotropy": {
            "intra": report.intra,
            "inter": report.inter,
            "delta": report.delta,
            "excluded_singleton_actions": report.excluded_intra,
        },
        "kshot": {
            str(k): {
                "f1_macro_mean": report.f1_macro[k][0],
                "f1_macro_std": report.f1_macro[k][1],
                "accuracy_mean": report.accuracy[k][0],
                "accuracy_std": report.accuracy[k][1],
                "excluded_actions": report.excluded_kshot[k],
            }
            for k in report.kshots
        },
        "ndcg": {
            "k": report.ndcg_k,
            "mean": report.ndcg[0],
            "std": report.ndcg[1],
            "excluded_actions": report.excluded_ndcg,
        },
        "repetitions": report.repetitions,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
