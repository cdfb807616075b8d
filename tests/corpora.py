"""Randomized unified corpora for the round-trip and parser tests."""

from convflow.corpus import AnnotatedUtterance, UnifiedDialog
from convflow.seeding import substream

_RANDOM_ACTS = ["inform", "request", "confirm", "thank_you", "good_bye", "greeting", "offer"]
_RANDOM_SLOTS = ["phone", "area", "name", "price", "postcode", "department"]
_RANDOM_DOMAINS = ["hospital", "taxi", "restaurant", "train"]
_RANDOM_WORDS = ["hello", "please", "number", "looking", "for", "the", "thanks", "bye", "café", "naïve"]


def random_corpus(seed: int = 0, n_dialogs: int = 5, max_turns: int = 6) -> list[UnifiedDialog]:
    """Random but schema-valid corpus; includes non-ASCII text so encoding
    survives the round-trip checks."""
    rng = substream(seed, "random-corpus")
    dialogs = []
    for d in range(n_dialogs):
        n_turns = int(rng.integers(1, max_turns + 1))
        turns = []
        for i in range(n_turns):
            acts = sorted(
                set(rng.choice(_RANDOM_ACTS, size=int(rng.integers(1, 3)), replace=False).tolist())
            )
            slots = sorted(
                set(rng.choice(_RANDOM_SLOTS, size=int(rng.integers(0, 3)), replace=False).tolist())
            )
            words = rng.choice(_RANDOM_WORDS, size=int(rng.integers(2, 6))).tolist()
            turns.append(
                AnnotatedUtterance(
                    speaker="user" if i % 2 == 0 else "system",
                    text=" ".join(words),
                    domains=(str(rng.choice(_RANDOM_DOMAINS)),),
                    acts=tuple(acts),
                    main_acts=tuple(sorted({a.split("_")[0] for a in acts})),
                    original_acts=tuple(acts),
                    slots=tuple(slots),
                    intents=(),
                )
            )
        dialogs.append(UnifiedDialog(dialog_id=f"rnd{seed}_{d}", turns=tuple(turns)))
    return dialogs
