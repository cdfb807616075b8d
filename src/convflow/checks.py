"""Replayable verification suite behind the losscheck command: brute-force
loss equivalence, the soft-to-hard temperature limit, finite-difference
gradient checks, and matched-optimum stationarity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .contrastive import (
    ContrastiveBatch,
    Temperatures,
    grad_loss,
    init_head,
    soft_loss,
    sup_loss,
)
from .embedding import l2_normalize
from .errors import DegenerateProjectionError, InputError
from .seeding import substream


def brute_sup_loss(anchors, positives, labels, tau: float) -> float:
    """Direct double-loop reading of the supervised contrastive loss."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        pos = [j for j in range(n) if labels[j] == labels[i]]
        denom = sum(math.exp(float(np.dot(anchors[i], positives[k])) / tau) for k in range(n))
        li = 0.0
        for j in pos:
            li -= math.log(math.exp(float(np.dot(anchors[i], positives[j])) / tau) / denom) / len(pos)
        total += li
    return total / n


def brute_soft_loss(anchors, positives, labels, delta, tau: float, tau_label: float) -> float:
    """Direct double-loop reading of the soft loss: softmax label targets
    times log-softmax similarities."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        z = sum(math.exp(float(delta[labels[i], labels[k]]) / tau_label) for k in range(n))
        denom = sum(math.exp(float(np.dot(anchors[i], positives[k])) / tau) for k in range(n))
        li = 0.0
        for j in range(n):
            p = math.exp(float(delta[labels[i], labels[j]]) / tau_label) / z
            q = math.exp(float(np.dot(anchors[i], positives[j])) / tau) / denom
            li -= p * math.log(q)
        total += li
    return total / n


def random_unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def random_label_table(rng: np.random.Generator, n_labels: int) -> np.ndarray:
    """delta of `n_labels` random unit label embeddings of dim 12."""
    embs = random_unit_rows(rng, n_labels, 12)
    delta = embs @ embs.T
    return (delta + delta.T) / 2.0


FD_STEP = 1e-5  # central-difference step
LIMIT_CASES = 20


def finite_difference(f, arr: np.ndarray) -> np.ndarray:
    """Central differences of scalar f() with respect to arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f()
        flat[i] = orig - FD_STEP
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    # the floor is far above the ~1e-10 round-off of central differences, so an exact 0 gradient reads as 0
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-4)
    return float(np.max(np.abs(a - b))) / scale


def gradient_check_case(rng: np.random.Generator, soft: bool, perturb: float = 0.0) -> float:
    """One random instance (2-8 pairs, encoder dim 4-16, head dim 2-8);
    returns the worst relative error across W1, W2, anchors, and positives.
    `perturb` injects a deliberate analytic gradient fault (test mode).
    An instance whose projection collapses to zero (every hidden unit off)
    has no gradient to check and is drawn again."""
    temps = Temperatures()
    while True:
        n = int(rng.integers(2, 9))
        enc = int(rng.integers(4, 17))
        d = int(rng.integers(2, 9))
        xa = random_unit_rows(rng, n, enc)
        xp = random_unit_rows(rng, n, enc)
        labels = rng.integers(0, max(2, n // 2), size=n)
        head = init_head(enc, d, seed=int(rng.integers(2**31)))
        table = random_label_table(rng, int(labels.max()) + 1) if soft else None
        # built from the unit rows before the finite differences move them in place
        batch = ContrastiveBatch(anchors=xa, positives=xp, labels=labels)
        try:
            _, grads = grad_loss(batch, table, temps, head)
            break
        except DegenerateProjectionError:
            continue

    def loss_now() -> float:
        return grad_loss(batch, table, temps, head)[0]

    pairs = [
        (grads.d_w1, head.w1),
        (grads.d_w2, head.w2),
        (grads.d_anchors, xa),
        (grads.d_positives, xp),
    ]
    return max(relative_error(analytic + perturb, finite_difference(loss_now, arr)) for analytic, arr in pairs)


def _random_batch(rng: np.random.Generator) -> ContrastiveBatch:
    """2-8 unit anchor/positive pairs of dim 2-8 over max(2, n // 2) label ids."""
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 9))
    za = random_unit_rows(rng, n, d)
    zp = random_unit_rows(rng, n, d)
    return ContrastiveBatch(anchors=za, positives=zp, labels=rng.integers(0, max(2, n // 2), size=n))


def _batch_case(check: str, case: int, batch: ContrastiveBatch) -> dict:
    return {
        "check": check,
        "case": case,
        "anchors": batch.anchors.tolist(),
        "positives": batch.positives.tolist(),
        "labels": batch.labels.tolist(),
    }


@dataclass
class CheckResult:
    name: str
    detail: str
    failing_case: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failing_case is None


def run_losscheck(
    seed: int = 0,
    equivalence_cases: int = 50,
    gradient_cases: int = 10,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """The full check battery. Deterministic per seed; any failing case is
    attached as a JSON-serializable payload for replay."""
    if min(equivalence_cases, gradient_cases) < 1:
        raise InputError(
            f"losscheck needs at least one case per check, got {equivalence_cases} equivalence "
            f"and {gradient_cases} gradient cases"
        )
    results: list[CheckResult] = []
    temps = Temperatures()

    # 1. brute-force equivalence for both losses
    rng = substream(seed, "losscheck-equiv")
    worst_sup, worst_soft = 0.0, 0.0
    failing = None
    for case in range(equivalence_cases):
        batch = _random_batch(rng)
        za, zp, labels = batch.anchors, batch.positives, batch.labels
        table = random_label_table(rng, int(labels.max()) + 1)
        err_sup = abs(sup_loss(batch, temps)[0] - brute_sup_loss(za, zp, labels, temps.tau))
        err_soft = abs(
            soft_loss(batch, table, temps)[0]
            - brute_soft_loss(za, zp, labels, table, temps.tau, temps.tau_label)
        )
        worst_sup = max(worst_sup, err_sup)
        worst_soft = max(worst_soft, err_soft)
        if max(err_sup, err_soft) >= 1e-10 and failing is None:
            failing = {**_batch_case("equivalence", case, batch), "delta": table.tolist()}
    results.append(
        CheckResult(
            name="brute-force equivalence",
            detail=f"max |sup-brute|={worst_sup:.2e}, max |soft-brute|={worst_soft:.2e} over {equivalence_cases} batches",
            failing_case=failing,
        )
    )

    # 2. soft -> hard limit with exactly-orthogonal label embeddings
    rng = substream(seed, "losscheck-limit")
    worst = 0.0
    failing = None
    for case in range(LIMIT_CASES):
        batch = _random_batch(rng)
        table = np.eye(int(batch.labels.max()) + 1)  # delta 1 within a label, 0 across: the limit's geometry
        hard, _ = sup_loss(batch, temps)
        soft, _ = soft_loss(batch, table, Temperatures(tau=temps.tau, tau_label=1e-4))
        err = abs(soft - hard)
        worst = max(worst, err)
        if err >= 1e-6 and failing is None:
            failing = _batch_case("soft-hard-limit", case, batch)
    results.append(
        CheckResult(
            name="soft-to-hard limit",
            detail=f"max |soft(tau'=1e-4) - sup|={worst:.2e} over {LIMIT_CASES} batches",
            failing_case=failing,
        )
    )

    # 3. finite-difference gradient check, both losses
    rng = substream(seed, "losscheck-grad")
    worst = 0.0
    failing = None
    perturb = 1e-3 if inject_fault else 0.0
    for case in range(gradient_cases):
        for soft_mode in (False, True):
            err = gradient_check_case(rng, soft=soft_mode, perturb=perturb)
            worst = max(worst, err)
            if err >= 1e-5 and failing is None:
                failing = {"check": "gradient", "case": case, "soft": soft_mode, "seed": seed}
    results.append(
        CheckResult(
            name="gradient vs central differences",
            detail=f"max relative error={worst:.2e} over {2 * gradient_cases} instances",
            failing_case=failing,
        )
    )

    # 4. stationarity when predictions equal targets exactly
    rng = substream(seed, "losscheck-stationary")
    n, enc, d = 4, 8, 4
    xp_row = l2_normalize(rng.standard_normal(enc))
    xa = random_unit_rows(rng, n, enc)
    xp = np.tile(xp_row, (n, 1))
    batch = ContrastiveBatch(anchors=xa, positives=xp, labels=np.zeros(n, dtype=int))
    head_seed = seed
    while True:  # a head that collapses a projection to zero is drawn again, as in check 3
        try:
            _, grads = grad_loss(batch, None, temps, init_head(enc, d, seed=head_seed))
            break
        except DegenerateProjectionError:
            head_seed = int(rng.integers(2**31))
    gnorm = max(
        float(np.linalg.norm(grads.d_w1)),
        float(np.linalg.norm(grads.d_w2)),
        float(np.linalg.norm(grads.d_anchors)),
    )
    results.append(
        CheckResult(
            name="matched-optimum stationarity",
            detail=f"gradient norm at the symmetric optimum={gnorm:.2e}",
            failing_case=None if gnorm < 1e-8 else {"check": "stationarity", "seed": seed},
        )
    )
    return results


def serialize_failure(results: list[CheckResult]) -> str:
    cases = [r.failing_case for r in results if r.failing_case is not None]
    return json.dumps({"failures": cases}, indent=2, sort_keys=True)
