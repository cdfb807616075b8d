"""Replayable verification suite behind the losscheck command: brute-force
loss equivalence, the soft-to-hard temperature limit, gradient checks against
Richardson-extrapolated central differences whose steps stay clear of the
head's ReLU kinks, and matched-optimum stationarity.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .contrastive import (
    ContrastiveBatch,
    Temperatures,
    _cross_entropy,
    _head_forward_batch,
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


FD_STEPS = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9)  # central-difference steps, tried in order
LIMIT_CASES = 20


def finite_difference(f, arr: np.ndarray) -> np.ndarray:
    """Derivatives of f with respect to arr, moving arr in place; f() returns
    the scalar and the on/off pattern of the head's ReLUs, as bytes. Per
    coordinate, h is the first of FD_STEPS (else the last) whose ends
    theta +/- h keep the pattern at theta: a pre-activation is linear in one
    coordinate, so no kink lies inside. The Richardson value
    (4 D(h/2) - D(h)) / 3 of central differences D cancels their h^2 term."""
    _, pattern = f()
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()

    def central(i: int, h: float) -> tuple[float, bool]:
        orig = flat[i]
        flat[i] = orig + h
        fp, pattern_p = f()
        flat[i] = orig - h
        fm, pattern_m = f()
        flat[i] = orig
        return (fp - fm) / (2.0 * h), pattern_p == pattern == pattern_m

    for i in range(flat.size):
        for h in FD_STEPS:
            d_h, smooth = central(i, h)
            if smooth:
                break
        gflat[i] = (4.0 * central(i, h / 2.0)[0] - d_h) / 3.0
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    # the floor is far above the round-off of the differences, so an exact 0 gradient reads as 0
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

    def loss_now() -> tuple[float, bytes]:
        # grad_loss's loss, without the backward pass a probe would discard
        za, cache_a = _head_forward_batch(head, batch.anchors)
        zp, cache_p = _head_forward_batch(head, batch.positives)
        loss = float(_cross_entropy(za, zp, batch.labels, table, temps)[0].mean())
        return loss, (cache_a[1] > 0.0).tobytes() + (cache_p[1] > 0.0).tobytes()

    pairs = [(grads.d_w1, head.w1), (grads.d_w2, head.w2), (grads.d_anchors, xa), (grads.d_positives, xp)]
    return max(relative_error(analytic + perturb, finite_difference(loss_now, arr)) for analytic, arr in pairs)


def _random_batch(rng: np.random.Generator) -> ContrastiveBatch:
    """2-8 unit anchor/positive pairs of dim 2-8 over max(2, n // 2) label ids."""
    n = int(rng.integers(2, 9))
    d = int(rng.integers(2, 9))
    za = random_unit_rows(rng, n, d)
    zp = random_unit_rows(rng, n, d)
    return ContrastiveBatch(anchors=za, positives=zp, labels=rng.integers(0, max(2, n // 2), size=n))


def _batch_case(check: str, case: int, batch: ContrastiveBatch) -> dict:
    return {"check": check, "case": case, "anchors": batch.anchors.tolist(),
            "positives": batch.positives.tolist(), "labels": batch.labels.tolist()}


@dataclass
class CheckResult:
    name: str
    detail: str
    failing_case: dict | None = None

    @property
    def passed(self) -> bool:
        return self.failing_case is None


def _run_check(name: str, tolerance: float, cases, detail) -> CheckResult:
    """One check over its (errors, payload) cases: `detail` formats the worst
    of each error, and the first case with an error not below `tolerance`
    (NaN included) fails the check with its payload."""
    worst, failing = None, None
    for errors, payload in cases:
        worst = [max(w, e) for w, e in zip(worst or [0.0] * len(errors), errors)]
        if failing is None and not all(e < tolerance for e in errors):
            failing = payload
    return CheckResult(name=name, detail=detail(*worst), failing_case=failing)


def _equivalence_cases(seed: int, count: int, temps: Temperatures):
    # both losses against their brute-force double loops
    rng = substream(seed, "losscheck-equiv")
    for case in range(count):
        batch = _random_batch(rng)
        za, zp, labels = batch.anchors, batch.positives, batch.labels
        table = random_label_table(rng, int(labels.max()) + 1)
        err_sup = abs(sup_loss(batch, temps)[0] - brute_sup_loss(za, zp, labels, temps.tau))
        err_soft = abs(soft_loss(batch, table, temps)[0]
                       - brute_soft_loss(za, zp, labels, table, temps.tau, temps.tau_label))
        yield (err_sup, err_soft), {**_batch_case("equivalence", case, batch), "delta": table.tolist()}


def _limit_cases(seed: int, temps: Temperatures):
    # soft -> hard limit with exactly-orthogonal label embeddings
    rng = substream(seed, "losscheck-limit")
    for case in range(LIMIT_CASES):
        batch = _random_batch(rng)
        table = np.eye(int(batch.labels.max()) + 1)  # delta 1 within a label, 0 across: the limit's geometry
        hard, _ = sup_loss(batch, temps)
        soft, _ = soft_loss(batch, table, Temperatures(tau=temps.tau, tau_label=1e-4))
        yield (abs(soft - hard),), _batch_case("soft-hard-limit", case, batch)


def _stationarity_case(seed: int, temps: Temperatures):
    # the gradient norm when predictions equal targets exactly
    rng = substream(seed, "losscheck-stationary")
    n, enc, d = 4, 8, 4
    xp_row = l2_normalize(rng.standard_normal(enc))
    xa = random_unit_rows(rng, n, enc)
    xp = np.tile(xp_row, (n, 1))
    batch = ContrastiveBatch(anchors=xa, positives=xp, labels=np.zeros(n, dtype=int))
    head_seed = seed
    while True:  # a head that collapses a projection to zero is drawn again, as in gradient_check_case
        try:
            _, grads = grad_loss(batch, None, temps, init_head(enc, d, seed=head_seed))
            break
        except DegenerateProjectionError:
            head_seed = int(rng.integers(2**31))
    gnorm = max(float(np.linalg.norm(g)) for g in (grads.d_w1, grads.d_w2, grads.d_anchors))
    yield (gnorm,), {"check": "stationarity", "seed": seed}


def run_losscheck(
    seed: int = 0,
    cases: int = 50,
    inject_fault: bool = False,
) -> list[CheckResult]:
    """The full check battery: `cases` equivalence batches and
    max(2, cases // 5) gradient cases. Deterministic per seed; any failing
    case is attached as a JSON-serializable payload for replay."""
    gradient_cases = max(2, cases // 5)
    if cases < 1:
        raise InputError(
            f"losscheck needs at least one case per check, got {cases} equivalence "
            f"and {gradient_cases} gradient cases"
        )
    temps = Temperatures()
    grad_rng = substream(seed, "losscheck-grad")
    perturb = 1e-3 if inject_fault else 0.0
    gradient = (
        ((gradient_check_case(grad_rng, soft=soft, perturb=perturb),),
         {"check": "gradient", "case": case, "soft": soft, "seed": seed})
        for case in range(gradient_cases)
        for soft in (False, True)
    )
    return [
        _run_check("brute-force equivalence", 1e-10, _equivalence_cases(seed, cases, temps),
                   lambda sup, soft: f"max |sup-brute|={sup:.2e}, max |soft-brute|={soft:.2e} "
                                     f"over {cases} batches"),
        _run_check("soft-to-hard limit", 1e-6, _limit_cases(seed, temps),
                   lambda err: f"max |soft(tau'=1e-4) - sup|={err:.2e} over {LIMIT_CASES} batches"),
        _run_check("gradient vs central differences", 1e-5, gradient,
                   lambda err: f"max relative error={err:.2e} over {2 * gradient_cases} instances"),
        _run_check("matched-optimum stationarity", 1e-8, _stationarity_case(seed, temps),
                   lambda gnorm: f"gradient norm at the symmetric optimum={gnorm:.2e}"),
    ]


def serialize_failure(results: list[CheckResult]) -> str:
    cases = [r.failing_case for r in results if r.failing_case is not None]
    return json.dumps({"failures": cases}, indent=2, sort_keys=True)
