"""Unified task-oriented dialog corpus: parsing, act standardization,
and action labels.

The on-disk format is a UTF-8 JSON document with a "stats" header and a
"dialogs" body; the header is recomputed on every write and never trusted
on read. Parsed corpora are immutable and safely shareable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (
    InputError,
    MissingAnnotationError,
    ParseError,
    SchemaError,
    UnknownActError,
)

SPEAKERS = ("user", "system")

UNLABELED_ACTION = "unlabeled"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnotatedUtterance:
    speaker: str
    text: str
    domains: tuple[str, ...] = ()
    acts: tuple[str, ...] = ()
    main_acts: tuple[str, ...] = ()
    original_acts: tuple[str, ...] = ()
    slots: tuple[str, ...] = ()
    intents: tuple[str, ...] = ()


@dataclass(frozen=True)
class UnifiedDialog:
    dialog_id: str
    turns: tuple[AnnotatedUtterance, ...]


@dataclass(frozen=True, order=True)
class ActionLabel:
    """A dialog act plus its slot set; the unit of supervision and of
    flow-graph nodes. Slots are stored deduplicated and sorted, so equal
    (act, slot-set) pairs always render identically."""

    act: str
    slots: tuple[str, ...] = ()

    def render(self) -> str:
        return " ".join((self.act, *self.slots))

    @staticmethod
    def make(act: str, slots: list[str] | tuple[str, ...]) -> "ActionLabel":
        return ActionLabel(act=act, slots=tuple(sorted(set(slots))))


def utterance_id(dialog_id: str, turn_index: int) -> str:
    """Stable id linking corpus turns to embeddings and clusterings."""
    return f"{dialog_id}:{turn_index}"


# ---------------------------------------------------------------------------
# Act mapping table
# ---------------------------------------------------------------------------

# Raw-to-standardized act names, plus the parent category of each
# standardized act. Standardized names double as fixpoints so re-running
# standardization on already-canonical data is the identity.
_RAW_TO_STANDARD = {
    "inform": "inform",
    "notify_fail": "inform_failure",
    "notify_failure": "inform_failure",
    "no_result": "inform_failure",
    "nobook": "inform_failure",
    "nooffer": "inform_failure",
    "sorry": "inform_failure",
    "cant_understand": "inform_failure",
    "canthelp": "inform_failure",
    "reject": "inform_failure",
    "book": "inform_success",
    "offerbooked": "inform_success",
    "notify_success": "inform_success",
    "request": "request",
    "request_alt": "request_alternative",
    "request_compare": "request_compare",
    "request_update": "request_update",
    "req_more": "request_more",
    "request_more": "request_more",
    "moreinfo": "request_more",
    "hearmore": "request_more",
    "confirm": "confirm",
    "confirm_answer": "confirm_answer",
    "confirm_question": "confirm_question",
    "affirm": "agreement",
    "affirm_intent": "agreement",
    "negate": "disagreement",
    "negate_intent": "disagreement",
    "deny": "disagreement",
    "offer": "offer",
    "select": "offer",
    "multiple_choice": "offer",
    "offerbook": "offer",
    "suggest": "recommendation",
    "recommend": "recommendation",
    "greeting": "greeting",
    "welcome": "greeting",
    "thank_you": "thank_you",
    "thanks": "thank_you",
    "thankyou": "thank_you",
    "good_bye": "good_bye",
    "goodbye": "good_bye",
    "closing": "good_bye",
}

_STANDARD_TO_PARENT = {
    "inform": "inform",
    "inform_failure": "inform",
    "inform_success": "inform",
    "request": "request",
    "request_alternative": "request",
    "request_compare": "request",
    "request_update": "request",
    "request_more": "request",
    "confirm": "confirmation",
    "confirm_answer": "confirmation",
    "confirm_question": "confirmation",
    "agreement": "agreement",
    "disagreement": "disagreement",
    "offer": "offer",
    "recommendation": "recommendation",
    "greeting": "greeting",
    "thank_you": "thank_you",
    "good_bye": "good_bye",
}

STANDARD_ACTS = tuple(sorted(set(_RAW_TO_STANDARD.values())))
PARENT_ACTS = tuple(sorted(set(_STANDARD_TO_PARENT.values())))


@dataclass(frozen=True)
class ActMappingTable:
    raw_to_standard: dict[str, str] = field(default_factory=lambda: dict(_RAW_TO_STANDARD))
    standard_to_parent: dict[str, str] = field(default_factory=lambda: dict(_STANDARD_TO_PARENT))


def builtin_table() -> ActMappingTable:
    return ActMappingTable()


def standardize_act(raw: str, table: ActMappingTable | None = None, permissive: bool = False) -> tuple[str, str]:
    """Map a raw act name to (standardized, parent); case-insensitive.

    Standardized names map to themselves. Unknown names raise, unless
    `permissive`, in which case they pass through verbatim.
    """
    table = table or builtin_table()
    key = raw.strip().lower()
    standard = table.raw_to_standard.get(key)
    if standard is None and key in table.standard_to_parent:
        standard = key
    if standard is None:
        if permissive:
            return key, key
        raise UnknownActError(f"unknown dialog act '{raw}'")
    parent = table.standard_to_parent.get(standard, standard)
    return standard, parent


def load_table(path: str) -> ActMappingTable:
    """Read a mapping table file: two tab-separated columns per line, with
    [raw_to_standard] and [standard_to_parent] section markers."""
    raw_to_standard: dict[str, str] = {}
    standard_to_parent: dict[str, str] = {}
    section = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line == "[raw_to_standard]":
                section = raw_to_standard
                continue
            if line == "[standard_to_parent]":
                section = standard_to_parent
                continue
            if section is None:
                raise InputError(f"{path}:{lineno}: entry before a section marker")
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected two tab-separated columns")
            section[parts[0].strip().lower()] = parts[1].strip().lower()
    return ActMappingTable(raw_to_standard=raw_to_standard, standard_to_parent=standard_to_parent)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def _parse_turn(obj: dict, dialog_id: str, index: int) -> AnnotatedUtterance:
    if not isinstance(obj, dict):
        raise SchemaError(f"dialog '{dialog_id}' turn {index}: not an object", dialog_id, index)
    for required in ("speaker", "text"):
        if required not in obj:
            raise SchemaError(
                f"dialog '{dialog_id}' turn {index}: missing required field '{required}'",
                dialog_id,
                index,
            )
    speaker = obj["speaker"]
    if speaker not in SPEAKERS:
        raise SchemaError(
            f"dialog '{dialog_id}' turn {index}: speaker must be one of {SPEAKERS}, got {speaker!r}",
            dialog_id,
            index,
        )
    labels = obj.get("labels") or {}
    dialog_acts = labels.get("dialog_acts") or {}

    def str_list(value) -> tuple[str, ...]:
        if value is None:
            return ()
        return tuple(str(x) for x in value)

    return AnnotatedUtterance(
        speaker=speaker,
        text=str(obj["text"]),
        domains=str_list(obj.get("domains")),
        acts=str_list(dialog_acts.get("acts")),
        main_acts=str_list(dialog_acts.get("main_acts")),
        original_acts=str_list(dialog_acts.get("original_acts")),
        slots=str_list(labels.get("slots")),
        intents=str_list(labels.get("intents")),
    )


def parse_unified(document: bytes | str) -> list[UnifiedDialog]:
    """Parse a unified-format document into dialogs, in file order.

    The "stats" header is ignored (always recomputed); unknown extra fields
    are ignored. Malformed JSON raises ParseError with the byte offset;
    schema violations raise SchemaError naming the dialog and turn.
    """
    text = document.decode("utf-8") if isinstance(document, bytes) else document
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise ParseError(f"malformed document at byte {byte_offset}: {exc.msg}", byte_offset) from exc
    if not isinstance(root, dict) or "dialogs" not in root:
        raise SchemaError("document must be an object with a 'dialogs' key")
    dialogs_obj = root["dialogs"]
    if not isinstance(dialogs_obj, dict):
        raise SchemaError("'dialogs' must map dialog ids to turn lists")
    dialogs: list[UnifiedDialog] = []
    for dialog_id, turns_obj in dialogs_obj.items():
        if not isinstance(turns_obj, list) or not turns_obj:
            raise SchemaError(f"dialog '{dialog_id}': turns must be a non-empty list", dialog_id)
        turns = tuple(_parse_turn(t, dialog_id, i) for i, t in enumerate(turns_obj))
        dialogs.append(UnifiedDialog(dialog_id=dialog_id, turns=turns))
    return dialogs


def compute_stats(corpus: list[UnifiedDialog]) -> dict:
    """Utterance counts per domain and per standardized act."""
    domains: dict[str, int] = {}
    labels: dict[str, int] = {}
    for dialog in corpus:
        for turn in dialog.turns:
            for d in turn.domains:
                domains[d] = domains.get(d, 0) + 1
            for a in turn.acts:
                labels[a] = labels.get(a, 0) + 1
    return {
        "domains": {k: domains[k] for k in sorted(domains)},
        "labels": {k: labels[k] for k in sorted(labels)},
    }


def serialize_unified(corpus: list[UnifiedDialog]) -> bytes:
    """Canonical UTF-8 rendering; a pure function of the parsed structure,
    so write -> read -> write is byte-identical."""
    root = {
        "stats": compute_stats(corpus),
        "dialogs": {
            d.dialog_id: [
                {
                    "speaker": t.speaker,
                    "text": t.text,
                    "domains": list(t.domains),
                    "labels": {
                        "dialog_acts": {
                            "acts": list(t.acts),
                            "main_acts": list(t.main_acts),
                            "original_acts": list(t.original_acts),
                        },
                        "slots": list(t.slots),
                        "intents": list(t.intents),
                    },
                }
                for t in d.turns
            ]
            for d in corpus
        },
    }
    return (json.dumps(root, ensure_ascii=False, indent=1) + "\n").encode("utf-8")


def standardize_corpus(
    corpus: list[UnifiedDialog],
    table: ActMappingTable | None = None,
    permissive: bool = False,
) -> list[UnifiedDialog]:
    """Re-derive standardized acts and parents from the rawest act names
    available (original_acts when present, else acts); canonicalize slots."""
    table = table or builtin_table()
    out: list[UnifiedDialog] = []
    for dialog in corpus:
        turns = []
        for turn in dialog.turns:
            source = turn.original_acts if turn.original_acts else turn.acts
            standards: list[str] = []
            parents: list[str] = []
            for raw in source:
                std, parent = standardize_act(raw, table, permissive=permissive)
                standards.append(std)
                parents.append(parent)
            turns.append(
                AnnotatedUtterance(
                    speaker=turn.speaker,
                    text=turn.text,
                    domains=turn.domains,
                    acts=tuple(sorted(set(standards))),
                    main_acts=tuple(sorted(set(parents))),
                    original_acts=source,
                    slots=tuple(sorted(set(turn.slots))),
                    intents=turn.intents,
                )
            )
        out.append(UnifiedDialog(dialog_id=dialog.dialog_id, turns=tuple(turns)))
    return out


# ---------------------------------------------------------------------------
# Action labels
# ---------------------------------------------------------------------------

def action_of(utt: AnnotatedUtterance, strict: bool = True) -> ActionLabel:
    """The utterance's action: sorted acts joined with '+', slots deduped
    and sorted. Slot order in the input never affects the result."""
    if not utt.acts:
        if strict:
            raise MissingAnnotationError(f"utterance {utt.text!r} has no act annotation")
        return ActionLabel.make(UNLABELED_ACTION, [])
    act = "+".join(sorted(set(utt.acts)))
    return ActionLabel.make(act, list(utt.slots))


def labeled_utterances(
    corpus: list[UnifiedDialog], strict: bool = False
) -> list[tuple[str, str, str, ActionLabel]]:
    """Flatten a corpus to (utterance id, speaker, text, action) rows,
    skipping unannotated turns unless strict (which raises on them)."""
    rows = []
    for dialog in corpus:
        for i, turn in enumerate(dialog.turns):
            if not turn.acts:
                if strict:
                    raise MissingAnnotationError(
                        f"dialog '{dialog.dialog_id}' turn {i} has no act annotation"
                    )
                continue
            rows.append((utterance_id(dialog.dialog_id, i), turn.speaker, turn.text, action_of(turn)))
    return rows
