"""Drift-corrected wall-clock timing.

The host's speed drifts from run to run (by up to ~25% over minutes), and
the drift is shared, in part, by pure-Python, BLAS and dict/sort work. A
fixed reference job therefore runs after every timed sample, and each
run's times are scaled by REFERENCE_NOMINAL_S / (median reference time of
the run): the result is seconds at the reference job's nominal speed.

The median over the whole run is used, not the two references around
each sample: the speed also jitters on a ~0.3 s time scale, so a single
0.23 s reference is off by ~10% and would add more noise to a sample
than it removes. Raw seconds are reported beside the corrected ones.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field

import numpy as np

# Median duration of ReferenceJob.run() on the 2-vCPU VM the benchmark was
# written on (Python 3.11, numpy 2.4 with OpenBLAS pinned to one thread).
# Corrected times are seconds at this speed.
REFERENCE_NOMINAL_S = 0.23


class ReferenceJob:
    """A fixed ~0.23 s mix of the kinds of work convflow does: dict
    counting (graph building), a keyed sort (nDCG ranking), a JSON round
    trip (corpus parse and serialize) and small matmuls (metrics, k-means).
    Its inputs are built once from a constant seed, never from --seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20241018)
        self._keys = [f"k{int(i)}" for i in rng.integers(0, 4000, 40000)]
        self._values = rng.random(40000).tolist()
        self._doc = {
            f"d{i}": [
                {"speaker": "user", "text": f"t {j}", "acts": ["inform"], "v": self._values[j]}
                for j in range(8)
            ]
            for i in range(1500)
        }
        self._matrix = rng.standard_normal((256, 256)) / 16

    def run(self) -> float:
        """Run the job once and return its wall time in seconds."""
        start = time.perf_counter()
        counts: dict[str, int] = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1
        values, keys = self._values, self._keys
        sorted(range(len(values)), key=lambda i: (-values[i], keys[i]))
        json.loads(json.dumps(self._doc, indent=1))
        m = self._matrix
        for _ in range(40):
            m = np.tanh(m @ self._matrix)
        return time.perf_counter() - start


@dataclass
class DriftClock:
    """Times callables, running the reference job after each one."""

    reference: ReferenceJob
    reference_times: list[float] = field(default_factory=list)

    def measure(self, fn) -> float:
        """Run fn once and return its raw wall time in seconds."""
        gc.collect()
        start = time.perf_counter()
        fn()
        raw = time.perf_counter() - start
        gc.collect()
        self.reference_times.append(self.reference.run())
        return raw
