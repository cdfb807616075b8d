"""Similarity-based quality metrics for a labeled embedding space:
intra/inter-action anisotropy, prototypical k-shot classification, and
nDCG@k ranking, with the 10-repetition mean/std protocol.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .corpus import ActionLabel
from .embedding import EmbeddingStore
from .errors import CoverageError, InputError, InsufficientDataError
from .seeding import substream


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
            raise CoverageError(
                f"{len(missing)} labeled ids missing from the store: {missing[:5]}...",
                missing_ids=missing,
            )

    def groups(self) -> dict[str, list[str]]:
        """Action render -> sorted member ids."""
        out: dict[str, list[str]] = {}
        for uid, label in self.labels.items():
            out.setdefault(label.render(), []).append(uid)
        return {k: sorted(v) for k, v in sorted(out.items())}


def anisotropy(vectors: np.ndarray) -> float:
    """Average absolute pairwise cosine: |sum of off-diagonal cosines|
    divided by n^2 - n."""
    x = np.asarray(vectors, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise InsufficientDataError("anisotropy needs at least 2 vectors")
    gram = x @ x.T
    off = float(gram.sum() - np.trace(gram))
    return abs(off) / (n * n - n)


@dataclass(frozen=True)
class AnisotropyReport:
    intra: float
    inter: float
    delta: float
    excluded_intra: int  # singleton actions that cannot contribute an intra term


def intra_inter_anisotropy(data: LabeledEmbeddings) -> AnisotropyReport:
    """Mean within-action anisotropy, mean absolute cross-action average
    cosine over unordered action pairs, and their difference."""
    groups = data.groups()
    if len(groups) < 2:
        raise InsufficientDataError("need at least 2 actions")
    mats = {a: data.store.matrix(ids) for a, ids in groups.items()}
    intra_terms = []
    excluded = 0
    for a, ids in groups.items():
        if len(ids) < 2:
            excluded += 1
            continue
        intra_terms.append(anisotropy(mats[a]))
    if not intra_terms:
        raise InsufficientDataError("no action has 2 or more embeddings")
    actions = list(groups)
    inter_terms = []
    for i in range(len(actions)):
        for j in range(i + 1, len(actions)):
            cross = mats[actions[i]] @ mats[actions[j]].T
            inter_terms.append(abs(float(cross.sum())) / cross.size)
    intra = float(np.mean(intra_terms))
    inter = float(np.mean(inter_terms))
    return AnisotropyReport(intra=intra, inter=inter, delta=intra - inter, excluded_intra=excluded)


# ---------------------------------------------------------------------------
# Prototypical k-shot classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassificationResult:
    macro_f1: float
    accuracy: float
    per_class: dict[str, dict[str, float]]
    excluded: tuple[str, ...]  # actions without k+1 embeddings


def prototype_classify(data: LabeledEmbeddings, k: int, seed: int = 0) -> ClassificationResult:
    """Nearest-prototype classification: per action, k seeded embeddings
    are averaged and re-normalized into a prototype; every remaining
    embedding of an included action is assigned the action of its
    highest-cosine prototype (ties to the lowest action index)."""
    if k < 1:
        raise InputError("k must be >= 1")
    groups = data.groups()
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
        raise InsufficientDataError(f"no action has more than k={k} embeddings")
    proto_mat = np.stack(prototypes)
    items = data.store.matrix(eval_ids)
    sims = items @ proto_mat.T
    predicted = np.argmax(sims, axis=1)  # first max wins: lowest action index
    gold_arr = np.asarray(gold)

    per_class: dict[str, dict[str, float]] = {}
    f1s = []
    for idx, action in enumerate(included):
        tp = int(np.sum((predicted == idx) & (gold_arr == idx)))
        fp = int(np.sum((predicted == idx) & (gold_arr != idx)))
        fn = int(np.sum((predicted != idx) & (gold_arr == idx)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[action] = {
            "precision": precision,
            "recall": recall,
            "f1": f1,
            "support": float(tp + fn),
        }
        f1s.append(f1)
    accuracy = float(np.mean(predicted == gold_arr))
    return ClassificationResult(
        macro_f1=float(np.mean(f1s)),
        accuracy=accuracy,
        per_class=per_class,
        excluded=tuple(excluded),
    )


# ---------------------------------------------------------------------------
# nDCG ranking
# ---------------------------------------------------------------------------

def _dcg(relevances) -> float:
    return sum(rel / math.log2(rank + 2) for rank, rel in enumerate(relevances))


@dataclass(frozen=True)
class RankingResult:
    mean: float
    std: float
    per_repetition: tuple[float, ...]
    excluded: int  # actions without a second embedding


def ndcg_ranking(
    data: LabeledEmbeddings,
    k: int = 10,
    seed: int = 0,
    repetitions: int = 10,
) -> RankingResult:
    """nDCG@k with one seeded query per action per repetition.

    The query is excluded from its own candidate ranking; relevance is
    binary (same action); ideal DCG counts min(k, #relevant) hits. The
    per-repetition value is the mean over actions; mean and std are over
    repetitions.
    """
    groups = data.groups()
    all_ids = sorted(data.labels)
    matrix = data.store.matrix(all_ids)
    pos_of = {uid: i for i, uid in enumerate(all_ids)}
    eligible = {a: ids for a, ids in groups.items() if len(ids) >= 2}
    excluded = len(groups) - len(eligible)
    if not eligible:
        raise InsufficientDataError("no action has 2 or more embeddings")
    per_rep = []
    for rep in range(repetitions):
        rng = substream(seed, "ndcg", rep)
        scores = []
        for action, ids in eligible.items():
            query = ids[int(rng.integers(len(ids)))]
            qvec = data.store.get(query)
            sims = matrix @ qvec
            order = sorted(
                (i for i in range(len(all_ids)) if all_ids[i] != query),
                key=lambda i: (-sims[i], all_ids[i]),
            )
            top = order[:k]
            rels = [1.0 if data.labels[all_ids[i]].render() == action else 0.0 for i in top]
            n_relevant = len(ids) - 1
            idcg = _dcg([1.0] * min(k, n_relevant))
            scores.append(_dcg(rels) / idcg)
        per_rep.append(float(np.mean(scores)))
    arr = np.asarray(per_rep)
    return RankingResult(
        mean=float(arr.mean()),
        std=float(arr.std()),
        per_repetition=tuple(per_rep),
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
