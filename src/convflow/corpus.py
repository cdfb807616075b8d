"""Unified task-oriented dialog corpus: parsing, act standardization,
and action labels.

The on-disk format is a UTF-8 JSON document with a "stats" header and a
"dialogs" body; the header is recomputed on every write and never trusted
on read. Parsed corpora are immutable and safely shareable.
"""

from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _encode  # the C escaper behind ensure_ascii=False

from .errors import InputError

SPEAKERS = ("user", "system")


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
        raise InputError(f"unknown dialog act '{raw}'")
    parent = table.standard_to_parent.get(standard, standard)
    return standard, parent


def load_table(path: str) -> ActMappingTable:
    """Read a mapping table file: two tab-separated columns per line, with
    [raw_to_standard] and [standard_to_parent] section markers."""
    raw_to_standard: dict[str, str] = {}
    standard_to_parent: dict[str, str] = {}
    section = None
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 at byte {exc.start}") from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
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

def _schema_error(dialog_id: str, index: int, what: str) -> InputError:
    return InputError(f"dialog '{dialog_id}' turn {index}: {what}")


def _str_list(value, key: str, dialog_id: str, index: int) -> tuple[str, ...]:
    if value is None:
        return ()
    if type(value) is list:
        try:
            "".join(value)  # one C-level pass; TypeError on any non-string item
        except TypeError:
            pass
        else:
            return tuple(value)
    raise _schema_error(dialog_id, index, f"'{key}' must be a list of strings, got {value!r:.60}")


def _parse_turn(obj, dialog_id: str, index: int) -> AnnotatedUtterance:
    # json.loads builds exact dicts, lists and strs, so type() is checks
    # say what isinstance would.
    if type(obj) is not dict:
        raise _schema_error(dialog_id, index, "not an object")
    for required in ("speaker", "text"):
        if required not in obj:
            raise _schema_error(dialog_id, index, f"missing required field '{required}'")
    speaker = obj["speaker"]
    if speaker not in SPEAKERS:
        raise _schema_error(dialog_id, index, f"speaker must be one of {SPEAKERS}, got {speaker!r}")
    text = obj["text"]
    if type(text) is not str:
        raise _schema_error(dialog_id, index, f"'text' must be a string, got {type(text).__name__}")
    labels = {} if obj.get("labels") is None else obj["labels"]
    if type(labels) is not dict:
        raise _schema_error(dialog_id, index, f"'labels' must be an object, got {type(labels).__name__}")
    dialog_acts = {} if labels.get("dialog_acts") is None else labels["dialog_acts"]
    if type(dialog_acts) is not dict:
        raise _schema_error(dialog_id, index, f"'dialog_acts' must be an object, got {type(dialog_acts).__name__}")
    return AnnotatedUtterance(
        speaker,
        text,
        _str_list(obj.get("domains"), "domains", dialog_id, index),
        _str_list(dialog_acts.get("acts"), "acts", dialog_id, index),
        _str_list(dialog_acts.get("main_acts"), "main_acts", dialog_id, index),
        _str_list(dialog_acts.get("original_acts"), "original_acts", dialog_id, index),
        _str_list(labels.get("slots"), "slots", dialog_id, index),
        _str_list(labels.get("intents"), "intents", dialog_id, index),
    )


_SURROGATE = re.compile("[\ud800-\udfff]")
# UTF-8 bytes cannot hold a surrogate, so in a bytes document an unpaired
# one can only come from a \uD800-\uDFFF escape; paired escapes decode to
# one character and never match _SURROGATE.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_TURN_STRINGS = ("text", "domains", "acts", "main_acts", "original_acts", "slots", "intents")


def _reject_unpaired_surrogates(dialogs: list[UnifiedDialog]) -> None:
    """Raise InputError on the first kept string that cannot be written
    back as UTF-8."""
    for dialog in dialogs:
        if _SURROGATE.search(dialog.dialog_id):
            raise InputError(f"dialog {dialog.dialog_id!r}: id holds an unpaired surrogate")
        for index, turn in enumerate(dialog.turns):
            for name in _TURN_STRINGS:
                value = getattr(turn, name)
                if any(_SURROGATE.search(s) for s in ([value] if name == "text" else value)):
                    raise _schema_error(dialog.dialog_id, index, f"'{name}' holds an unpaired surrogate")


def parse_unified(document: bytes | str) -> list[UnifiedDialog]:
    """Parse a unified-format document into dialogs, in file order.

    The "stats" header is ignored (always recomputed); unknown extra fields
    are ignored. Malformed JSON raises InputError naming the byte offset;
    schema violations, among them a kept string holding an unpaired
    surrogate, raise InputError naming the dialog and turn.
    """
    try:
        text = document.decode("utf-8") if isinstance(document, bytes) else document
    except UnicodeDecodeError as exc:
        raise InputError(f"document is not UTF-8 at byte {exc.start}") from exc
    # ~30 acyclic containers a turn keep gen-0 collections rescanning the tree; refcounting frees them all
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        dialogs = _parse_dialogs(text)
    finally:
        if was_enabled:
            gc.enable()
    if _SURROGATE_ESCAPE.search(text) or (isinstance(document, str) and _SURROGATE.search(text)):
        _reject_unpaired_surrogates(dialogs)
    return dialogs


def _parse_dialogs(text: str) -> list[UnifiedDialog]:
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        byte_offset = len(text[: exc.pos].encode("utf-8"))
        raise InputError(f"malformed document at byte {byte_offset}: {exc.msg}") from exc
    if not isinstance(root, dict) or "dialogs" not in root:
        raise InputError("document must be an object with a 'dialogs' key")
    dialogs_obj = root["dialogs"]
    if not isinstance(dialogs_obj, dict):
        raise InputError("'dialogs' must map dialog ids to turn lists")
    dialogs: list[UnifiedDialog] = []
    for dialog_id, turns_obj in dialogs_obj.items():
        if not isinstance(turns_obj, list) or not turns_obj:
            raise InputError(f"dialog '{dialog_id}': turns must be a non-empty list")
        turns = tuple([_parse_turn(t, dialog_id, i) for i, t in enumerate(turns_obj)])
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


# The layout json.dumps(tree, ensure_ascii=False, indent=1) gives the
# unified schema; serialize_unified fills it in directly, because with an
# indent set json.dumps skips its C encoder for a pure-Python one.
_DOCUMENT = """{
 "stats": {
  "domains": %s,
  "labels": %s
 },
 "dialogs": %s
}
"""
_TURN = """{
    "speaker": %s,
    "text": %s,
    "domains": %s,
    "labels": {
     "dialog_acts": {
      "acts": %s,
      "main_acts": %s,
      "original_acts": %s
     },
     "slots": %s,
     "intents": %s
    }
   }"""


def _json_block(open_: str, entries: list[str], close: str, pad: str) -> str:
    """`entries` one per line, one space deeper than `pad`; empty renders
    as `open_ + close`, as json.dumps does."""
    if not entries:
        return open_ + close
    return f"{open_}\n{pad} " + f",\n{pad} ".join(entries) + f"\n{pad}{close}"


def _json_list(items: tuple[str, ...], pad: str) -> str:
    return _json_block("[", list(map(_encode, items)), "]", pad)


def _json_turn(t: AnnotatedUtterance) -> str:
    return _TURN % (
        _encode(t.speaker),
        _encode(t.text),
        _json_list(t.domains, "    "),
        _json_list(t.acts, "      "),
        _json_list(t.main_acts, "      "),
        _json_list(t.original_acts, "      "),
        _json_list(t.slots, "     "),
        _json_list(t.intents, "     "),
    )


def serialize_unified(corpus: list[UnifiedDialog]) -> bytes:
    """Canonical UTF-8 rendering; a pure function of the parsed structure,
    so write -> read -> write is byte-identical. Dialog ids are assumed
    unique, as they are in anything parse_unified returns."""
    stats = compute_stats(corpus)
    domains, labels = (
        _json_block("{", [f"{_encode(k)}: {n}" for k, n in stats[key].items()], "}", "  ")
        for key in ("domains", "labels")
    )
    dialogs = [
        f"{_encode(d.dialog_id)}: " + _json_block("[", [_json_turn(t) for t in d.turns], "]", "  ")
        for d in corpus
    ]
    return (_DOCUMENT % (domains, labels, _json_block("{", dialogs, "}", " "))).encode("utf-8")


def standardize_corpus(
    corpus: list[UnifiedDialog],
    table: ActMappingTable | None = None,
    permissive: bool = False,
) -> list[UnifiedDialog]:
    """Re-derive standardized acts and parents from the rawest act names
    available (original_acts when present, else acts); canonicalize slots."""
    table = table or builtin_table()
    canonical: dict[tuple, tuple] = {}  # (source acts, slots) -> (acts, main_acts, slots)
    out: list[UnifiedDialog] = []
    for dialog in corpus:
        turns = []
        for turn in dialog.turns:
            source = turn.original_acts if turn.original_acts else turn.acts
            key = (source, turn.slots)
            fields = canonical.get(key)
            if fields is None:
                pairs = [standardize_act(raw, table, permissive=permissive) for raw in source]
                fields = canonical[key] = (
                    tuple(sorted({std for std, _ in pairs})),
                    tuple(sorted({parent for _, parent in pairs})),
                    tuple(sorted(set(turn.slots))),
                )
            acts, main_acts, slots = fields
            turns.append(
                AnnotatedUtterance(
                    speaker=turn.speaker,
                    text=turn.text,
                    domains=turn.domains,
                    acts=acts,
                    main_acts=main_acts,
                    original_acts=source,
                    slots=slots,
                    intents=turn.intents,
                )
            )
        out.append(UnifiedDialog(dialog_id=dialog.dialog_id, turns=tuple(turns)))
    return out


# ---------------------------------------------------------------------------
# Action labels
# ---------------------------------------------------------------------------

def action_of(utt: AnnotatedUtterance) -> ActionLabel:
    """The utterance's action: sorted acts joined with '+', slots deduped
    and sorted. Slot order in the input never affects the result."""
    if not utt.acts:
        raise InputError(f"utterance {utt.text!r} has no act annotation")
    act = "+".join(sorted(set(utt.acts)))
    return ActionLabel.make(act, list(utt.slots))


def labeled_utterances(corpus: list[UnifiedDialog]) -> list[tuple[str, str, str, ActionLabel]]:
    """Flatten a corpus to (utterance id, speaker, text, action) rows,
    skipping unannotated turns."""
    labels: dict[tuple, ActionLabel] = {}  # (acts, slots) -> the shared action
    rows = []
    for dialog in corpus:
        for i, turn in enumerate(dialog.turns):
            if not turn.acts:
                continue
            key = (turn.acts, turn.slots)
            label = labels.get(key)
            if label is None:
                label = labels[key] = action_of(turn)
            rows.append((utterance_id(dialog.dialog_id, i), turn.speaker, turn.text, label))
    return rows
