"""Deterministic named random substreams.

Every stage of the pipeline draws from one root seed through a named
substream, so a stage can be re-run in isolation with identical draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InputError


def substream(root_seed: int, *names: object) -> np.random.Generator:
    """Generator for the substream identified by `names`; same (seed, names) ->
    same draws. The root seed must be in [0, 2**32), so no two root seeds
    share their draws."""
    if not 0 <= root_seed < 2**32:
        raise InputError(f"seed={root_seed!r} must be in [0, 2**32)")
    tag = "/".join(str(n) for n in names)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), *words]))
