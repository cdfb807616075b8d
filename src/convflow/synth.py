"""Synthetic fixtures: planted action clusters on the sphere driven by a
ground-truth transition graph, and graded-label text corpora for
desk-scale training.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .corpus import ActionLabel, AnnotatedUtterance, UnifiedDialog, utterances
from .embedding import EmbeddingStore, row_norms
from .errors import InputError
from .seeding import substream


# ---------------------------------------------------------------------------
# Planted flow: spherical action clusters + transition-graph dialogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlantedFlow:
    dialogs: list[UnifiedDialog]
    store: EmbeddingStore  # normalized, one vector per utterance id
    user_actions: list[ActionLabel]
    system_actions: list[ActionLabel]


def _orthonormal_rows(k: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q.T[:k]


def _cdf(p: np.ndarray) -> list[float]:
    """The normalized cumulative sum `Generator.choice(k, p=p)` bisects."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def planted_flow(
    k_user: int = 4,
    k_system: int = 4,
    n_dialogs: int = 200,
    dim: int = 16,
    seed: int = 0,
    max_dispersion_deg: float = 15.0,
    min_len: int = 4,
    max_len: int = 12,
) -> PlantedFlow:
    """Plant k_user + k_system action clusters on the sphere (orthogonal
    centroids, so 90 degrees apart; per-point dispersion bounded) and emit
    dialogs from a seeded user/system-alternating transition chain.

    Each turn's vector lies at an angle drawn uniformly from
    [0, max_dispersion_deg] from its action's centre, in a random direction.
    The per-turn loop only draws (the next state, the direction, the angle);
    the geometry runs over all turns at once, with the same floating-point
    operations a turn-by-turn computation does, so the vectors are
    bit-identical to it for a given BLAS.
    """
    for name, k in (("k_user", k_user), ("k_system", k_system)):
        if k < 1:
            raise InputError(f"{name} must be >= 1, got {k}")
    if k_user + k_system > dim:
        raise InputError(f"k_user + k_system must be <= dim, got {k_user} + {k_system} > {dim}")
    if n_dialogs < 0:
        raise InputError(f"n_dialogs must be >= 0, got {n_dialogs}")
    if min_len < 1:
        raise InputError(f"min_len must be >= 1 (a dialog needs a turn), got {min_len}")
    if min_len > max_len:
        raise InputError(f"min_len must be <= max_len, got {min_len} > {max_len}")
    if not 0.0 <= max_dispersion_deg < np.inf:
        raise InputError(f"max_dispersion_deg must be a finite number >= 0, got {max_dispersion_deg}")
    rng = substream(seed, "planted-flow")
    centers = _orthonormal_rows(k_user + k_system, dim, rng)
    user_actions = [ActionLabel.make("inform", [f"field_{u}"]) for u in range(k_user)]
    system_actions = [ActionLabel.make("request", [f"field_{s}"]) for s in range(k_system)]

    # dense random transition distributions, floored to keep node
    # frequencies comfortably above the 2% noise threshold
    start_p = rng.random(k_user) + 0.5
    start_p /= start_p.sum()
    u_to_s = rng.random((k_user, k_system)) + 0.5
    u_to_s /= u_to_s.sum(axis=1, keepdims=True)
    s_to_u = rng.random((k_system, k_user)) + 0.5
    s_to_u /= s_to_u.sum(axis=1, keepdims=True)

    start_cdf = _cdf(start_p)
    # per side (user turns at even positions, system turns at odd ones):
    # each state's next-state CDF, its turn, and its centre row
    next_cdf = ([_cdf(row) for row in u_to_s], [_cdf(row) for row in s_to_u])
    turn_of = [
        [
            AnnotatedUtterance(
                speaker=speaker,
                text=f"{speaker} utterance about {action.render()}",
                domains=("synthetic",),
                acts=(action.act,),
                main_acts=(action.act,),
                original_acts=(action.act,),
                slots=action.slots,
            )
            for action in actions
        ]
        for speaker, actions in (("user", user_actions), ("system", system_actions))
    ]
    first_center = (0, k_user)
    # strided row views of `centers`: BLAS sums a strided dot product
    # differently from a contiguous one, so the projections use these
    center_rows = list(centers)

    tangents = np.empty((n_dialogs * max_len, dim))
    dots: list[float] = []  # tangent . centre
    uniforms: list[float] = []  # the angle's draw in [0, 1)
    which: list[int] = []  # centre row
    dialogs: list[UnifiedDialog] = []
    random, normal, dot = rng.random, rng.standard_normal, np.dot
    row = 0
    for d in range(n_dialogs):
        dialog_id = f"dlg{d:04d}"
        length = int(rng.integers(min_len, max_len + 1))
        turns = []
        state = bisect_right(start_cdf, random())
        for i in range(length):
            side = i % 2
            c = first_center[side] + state
            turns.append(turn_of[side][state])
            state = bisect_right(next_cdf[side][state], random())
            dots.append(dot(normal(out=tangents[row]), center_rows[c]))
            uniforms.append(random())
            which.append(c)
            row += 1
        dialogs.append(UnifiedDialog(dialog_id=dialog_id, turns=tuple(turns)))
    index = {uid: row for row, (uid, _) in enumerate(utterances(dialogs))}

    # v = cos(theta) c + sin(theta) t / |t|, t the tangent less its
    # projection on the centre c, in two (turns, dim) buffers
    tangents = tangents[:row]
    which_rows = np.array(which, dtype=np.intp)
    vectors = centers.take(which_rows, axis=0)
    vectors *= np.array(dots)[:, None]
    tangents -= vectors
    norms = row_norms(tangents)
    theta = np.array(uniforms) * np.deg2rad(max_dispersion_deg)
    cos, sin = np.cos(theta), np.sin(theta)
    zero = norms == 0.0  # a tangent along the centre (probability 0): the centre itself
    norms[zero], cos[zero], sin[zero] = 1.0, 1.0, 0.0
    tangents /= norms[:, None]
    tangents *= sin[:, None]
    centers.take(which_rows, axis=0, out=vectors)
    vectors *= cos[:, None]
    vectors += tangents
    return PlantedFlow(
        dialogs=dialogs,
        store=EmbeddingStore(index, vectors, normalized=True),
        user_actions=user_actions,
        system_actions=system_actions,
    )


# ---------------------------------------------------------------------------
# Graded-label text corpus for desk-scale training
# ---------------------------------------------------------------------------

# Each semantic action is realized under several surface/annotation
# variants: the utterances use a synonym token and the annotation uses a
# different slot spelling, the way merged corpora annotate one action as
# e.g. "phone" vs "phone_number". Variant labels share tokens, so the
# label-similarity matrix is graded: ~0.8+ between variants of one action,
# mid-range within an act family, near zero elsewhere.
GRADED_CONCEPTS = [
    ("request", (("phone", "phone"), ("telephone", "phone_number"), ("contact", "contact_phone"))),
    ("inform", (("phone", "phone"), ("telephone", "phone_number"), ("contact", "contact_phone"))),
    ("request", (("price", "price"), ("cost", "price_range"), ("fee", "price_fee"))),
    ("inform", (("price", "price"), ("cost", "price_range"), ("fee", "price_fee"))),
    ("request", (("area", "area"), ("location", "area_location"), ("district", "area_district"))),
    ("inform", (("name", "name"), ("title", "name_title"), ("label", "name_label"))),
    ("inform", (("food", "food"), ("cuisine", "food_type"), ("dish", "food_dish"))),
    ("request", (("time", "time"), ("hour", "time_slot"), ("schedule", "time_schedule"))),
    ("inform", (("day", "day"), ("date", "day_date"), ("weekday", "day_weekday"))),
    ("request", (("stars", "stars"), ("rating", "stars_rating"), ("score", "stars_score"))),
]

_FILLER_VOCAB = [f"w{i}" for i in range(200)]


def graded_label_rows(per_variant_train: int = 8, per_variant_eval: int = 6, seed: int = 0):
    """Train/eval rows of (uid, speaker, text, action) for the sweep.

    Training rows carry the per-variant annotation; eval rows carry the
    true semantic action (the first variant's label), so the evaluation
    asks whether training kept each action's surface variants together.
    """
    rng = substream(seed, "graded-corpus")

    def text(act: str, token: str) -> str:
        fillers = [str(rng.choice(_FILLER_VOCAB)) for _ in range(3)]
        return " ".join([fillers[0], act, "the", token, fillers[1], fillers[2]])

    train, eval_rows = [], []
    uid = 0
    for act, variants in GRADED_CONCEPTS:
        true_action = ActionLabel.make(act, [variants[0][1]])
        for token, slot in variants:
            annotated = ActionLabel.make(act, [slot])
            for _ in range(per_variant_train):
                train.append((f"u{uid}", "user", text(act, token), annotated))
                uid += 1
            for _ in range(per_variant_eval):
                eval_rows.append((f"u{uid}", "user", text(act, token), true_action))
                uid += 1
    return train, eval_rows


# desk-scale sweep configuration: small model, larger similarity
# temperature (at this scale training reaches the loss optimum, where the
# realized cosine gaps scale with tau, so the full-scale tau would
# compress the space to nothing)
SWEEP_TOY = dict(
    tau=0.35,
    epochs=60,
    lr_head=0.1,
    lr_encoder=0.01,
    encoder_dim=32,
    head_dim=16,
)
