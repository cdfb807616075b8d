"""`synth.planted_flow` against the per-turn loop it replaced, a pin of its
dialog bytes, and its argument checks."""

import hashlib

import numpy as np
import pytest

from convflow.corpus import AnnotatedUtterance, UnifiedDialog, parse_unified, serialize_unified, utterance_id
from convflow.embedding import build_store
from convflow.errors import InputError
from convflow.seeding import substream
from convflow.synth import ActionLabel, PlantedFlow, _orthonormal_rows, planted_flow


def _sample_around(center: np.ndarray, max_angle_rad: float, rng: np.random.Generator) -> np.ndarray:
    """Unit vector at an angle <= max_angle_rad from the unit center."""
    tangent = rng.standard_normal(center.shape)
    tangent -= np.dot(tangent, center) * center
    norm = np.linalg.norm(tangent)
    if norm == 0.0:
        return center.copy()
    tangent /= norm
    theta = rng.uniform(0.0, max_angle_rad)
    return np.cos(theta) * center + np.sin(theta) * tangent


def _reference_planted_flow(
    k_user: int = 4,
    k_system: int = 4,
    n_dialogs: int = 200,
    dim: int = 16,
    seed: int = 0,
    max_dispersion_deg: float = 15.0,
    min_len: int = 4,
    max_len: int = 12,
) -> PlantedFlow:
    """The per-turn loop: one `rng.choice`, one `_sample_around`, one new
    utterance and one dict entry per turn."""
    rng = substream(seed, "planted-flow")
    centers = _orthonormal_rows(k_user + k_system, dim, rng)
    user_centers, system_centers = centers[:k_user], centers[k_user:]
    user_actions = [ActionLabel.make("inform", [f"field_{u}"]) for u in range(k_user)]
    system_actions = [ActionLabel.make("request", [f"field_{s}"]) for s in range(k_system)]

    start_p = rng.random(k_user) + 0.5
    start_p /= start_p.sum()
    u_to_s = rng.random((k_user, k_system)) + 0.5
    u_to_s /= u_to_s.sum(axis=1, keepdims=True)
    s_to_u = rng.random((k_system, k_user)) + 0.5
    s_to_u /= s_to_u.sum(axis=1, keepdims=True)

    max_angle = np.deg2rad(max_dispersion_deg)
    dialogs: list[UnifiedDialog] = []
    vectors: dict[str, np.ndarray] = {}
    for d in range(n_dialogs):
        dialog_id = f"dlg{d:04d}"
        length = int(rng.integers(min_len, max_len + 1))
        turns = []
        state = int(rng.choice(k_user, p=start_p))
        for i in range(length):
            is_user = i % 2 == 0
            if is_user:
                action = user_actions[state]
                center = user_centers[state]
                speaker = "user"
                nxt = int(rng.choice(k_system, p=u_to_s[state]))
            else:
                action = system_actions[state]
                center = system_centers[state]
                speaker = "system"
                nxt = int(rng.choice(k_user, p=s_to_u[state]))
            turns.append(
                AnnotatedUtterance(
                    speaker=speaker,
                    text=f"{speaker} utterance about {action.render()}",
                    domains=("synthetic",),
                    acts=(action.act,),
                    main_acts=(action.act,),
                    original_acts=(action.act,),
                    slots=action.slots,
                )
            )
            vectors[utterance_id(dialog_id, i)] = _sample_around(center, max_angle, rng)
            state = nxt
        dialogs.append(UnifiedDialog(dialog_id=dialog_id, turns=tuple(turns)))
    store = build_store(list(vectors.items()))
    return PlantedFlow(dialogs=dialogs, store=store, user_actions=user_actions, system_actions=system_actions)


SHAPES = [
    pytest.param(dict(k_user=9, k_system=8, n_dialogs=40, dim=64, min_len=8, max_len=8), id="flow-large"),
    pytest.param(dict(k_user=64, k_system=64, n_dialogs=12, dim=256, min_len=8, max_len=8), id="actions-many"),
    pytest.param(dict(), id="defaults"),
    pytest.param(dict(k_user=3, k_system=3, n_dialogs=40, dim=8, min_len=1, max_len=9), id="min-below-max"),
    pytest.param(dict(k_user=5, k_system=2, n_dialogs=40, dim=12, max_dispersion_deg=80.0), id="k-user-not-k-system"),
    pytest.param(dict(k_user=4, k_system=4, n_dialogs=40, dim=8), id="k-sum-is-dim"),
    pytest.param(dict(k_user=1, k_system=1, n_dialogs=30, dim=2, max_dispersion_deg=0.0), id="two-dims"),
]


@pytest.mark.parametrize("kwargs", SHAPES)
def test_planted_flow_matches_the_per_turn_loop_bit_for_bit(kwargs):
    for seed in range(8):
        got = planted_flow(seed=seed, **kwargs)
        want = _reference_planted_flow(seed=seed, **kwargs)
        assert got.dialogs == want.dialogs
        assert got.user_actions == want.user_actions and got.system_actions == want.system_actions
        assert list(got.store.vectors) == list(want.store.vectors)
        assert got.store.array.tobytes() == want.store.array.tobytes()
        assert got.store.dim == want.store.dim and got.store.normalized


def test_planted_flow_store_owns_a_matrix_of_its_own_size():
    pf = planted_flow(n_dialogs=30, min_len=1, max_len=12, seed=4)
    n_turns = sum(len(d.turns) for d in pf.dialogs)
    assert pf.store.array.shape == (n_turns, 16)
    assert pf.store.array.base is None  # not a view into a buffer sized for max_len turns per dialog


# serialize_unified of the dialogs. They depend only on PCG64 draws, so these
# bytes are the same on every platform; the vectors pass through LAPACK and
# BLAS, so they are held only to the in-process loop above.
DIALOG_PINS = [
    (dict(), "2c457168090597b64122c23378b44f094762f681e17bca77bca9e55d05f7d6c6"),
    (
        dict(k_user=9, k_system=8, n_dialogs=50, dim=64, seed=1, min_len=8, max_len=8),
        "eed024775a7deebbf3e316cfe826ca3c1040fe86b8a8f55222ea8240301da4c2",
    ),
    (
        dict(k_user=5, k_system=2, n_dialogs=40, dim=12, seed=7, min_len=1, max_len=9, max_dispersion_deg=80.0),
        "a5e128821ebc92c872fde72abad0bf9c9930c84568297f03ff8fbb83623d1336",
    ),
]


@pytest.mark.parametrize("kwargs, sha256", DIALOG_PINS)
def test_planted_flow_dialog_bytes_are_pinned(kwargs, sha256):
    assert hashlib.sha256(serialize_unified(planted_flow(**kwargs).dialogs)).hexdigest() == sha256


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(min_len=0, max_len=2, n_dialogs=20), "min_len must be >= 1"),
        (dict(min_len=5, max_len=4), "min_len must be <= max_len"),
        (dict(k_user=0), "k_user must be >= 1"),
        (dict(k_system=0), "k_system must be >= 1"),
        (dict(n_dialogs=-3), "n_dialogs must be >= 0"),
        (dict(k_user=3, k_system=2, dim=4), "k_user \\+ k_system must be <= dim"),
        (dict(max_dispersion_deg=-1.0), "max_dispersion_deg must be a finite number >= 0"),
        (dict(max_dispersion_deg=float("nan")), "max_dispersion_deg must be a finite number >= 0"),
    ],
)
def test_planted_flow_argument_errors_name_the_argument(kwargs, message):
    with pytest.raises(InputError, match=message):
        planted_flow(**kwargs)


def test_planted_flow_with_one_turn_dialogs_writes_a_corpus_that_parses():
    dialogs = planted_flow(min_len=1, max_len=2, n_dialogs=20).dialogs
    assert parse_unified(serialize_unified(dialogs)) == dialogs
