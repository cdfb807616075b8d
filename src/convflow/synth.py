"""Synthetic fixtures: planted action clusters on the sphere driven by a
ground-truth transition graph, and graded-label text corpora for
desk-scale training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ActionLabel, AnnotatedUtterance, UnifiedDialog, utterance_id
from .embedding import EmbeddingStore
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
    if k > dim:
        raise InputError(f"cannot fit {k} orthonormal rows in dimension {dim}")
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q.T[:k]


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
    dialogs from a seeded user/system-alternating transition chain."""
    rng = substream(seed, "planted-flow")
    centers = _orthonormal_rows(k_user + k_system, dim, rng)
    user_centers, system_centers = centers[:k_user], centers[k_user:]
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
    store = EmbeddingStore(dim=dim, vectors=vectors, normalized=True)
    return PlantedFlow(
        dialogs=dialogs,
        store=store,
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
