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
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _encode  # the C escaper behind ensure_ascii=False
from typing import NamedTuple

from .errors import InputError

SPEAKERS = ("user", "system")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class AnnotatedUtterance(NamedTuple):
    """One turn. A tuple, so it is immutable, hashable, cheap to build, and
    equal to a plain tuple of the same values."""

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


def utterances(dialogs: Iterable[UnifiedDialog]) -> Iterator[tuple[str, AnnotatedUtterance]]:
    """(utterance id, turn) of each turn in file order: the join to embeddings, clusters and steps."""
    return ((utterance_id(d.dialog_id, i), turn) for d in dialogs for i, turn in enumerate(d.turns))


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

@dataclass(frozen=True)
class ActMappingTable:
    raw_to_standard: dict[str, str] = field(default_factory=lambda: dict(_RAW_TO_STANDARD))
    standard_to_parent: dict[str, str] = field(default_factory=lambda: dict(_STANDARD_TO_PARENT))


def builtin_table() -> ActMappingTable:
    return ActMappingTable()


def standardize_act(raw: str, table: ActMappingTable, permissive: bool = False) -> tuple[str, str]:
    """Map a raw act name to (standardized, parent); case-insensitive.

    Standardized names map to themselves. Unknown names raise, unless
    `permissive`, in which case they pass through verbatim.
    """
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
# UTF-8 bytes cannot hold a surrogate, so in a document an unpaired one
# can only come from a \uD800-\uDFFF escape; paired escapes decode to
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


def parse_unified(document: bytes) -> list[UnifiedDialog]:
    """Parse a UTF-8 unified-format document into dialogs, in file order.

    The "stats" header is ignored (always recomputed); unknown extra fields
    are ignored. Malformed JSON raises InputError naming the byte offset;
    schema violations, among them a kept string holding an unpaired
    surrogate, raise InputError naming the dialog and turn.
    """
    try:
        text = document.decode("utf-8")
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
    if _SURROGATE_ESCAPE.search(text):
        _reject_unpaired_surrogates(dialogs)
    return dialogs


# json.loads' own parts: the C scanner decodes every value, scanstring every
# key, and WHITESPACE is the whitespace json skips between tokens
_scan_value = json.scanner.make_scanner(json.JSONDecoder())
_skip = json.decoder.WHITESPACE.match


def _parse_dialog(dialog_id: str, turns_obj) -> UnifiedDialog | InputError:
    """One dialog from its decoded turn list, or its first schema error."""
    if not isinstance(turns_obj, list) or not turns_obj:
        return InputError(f"dialog '{dialog_id}': turns must be a non-empty list")
    try:
        turns = tuple([_parse_turn(t, dialog_id, i) for i, t in enumerate(turns_obj)])
    except InputError as exc:
        return exc.with_traceback(None)  # no frame, and so no turn JSON, stays alive with it
    return UnifiedDialog(dialog_id=dialog_id, turns=turns)


def _next_member(text: str, idx: int, first: bool) -> tuple[str | None, int]:
    """From `idx`, just after an object's '{' if `first`, else just after a
    member's value: the next member's key and where its value starts, or
    None and the index after the closing '}'. ValueError where json.loads
    would fail."""
    idx = _skip(text, idx).end()
    if text.startswith("}", idx):
        return None, idx + 1
    if not first:
        if not text.startswith(",", idx):
            raise ValueError("expected ',' or '}'")
        idx = _skip(text, idx + 1).end()
    if not text.startswith('"', idx):
        raise ValueError("expected a key")
    key, idx = json.decoder.scanstring(text, idx + 1)
    idx = _skip(text, idx).end()
    if not text.startswith(":", idx):
        raise ValueError("expected ':'")
    return key, _skip(text, idx + 1).end()


def _walk_dialogs(text: str) -> dict[str, UnifiedDialog | InputError] | None:
    """Dialog id -> dialog or first schema error, decoding one turn list at
    a time; None when the document is not an object whose last 'dialogs'
    member is an object, or holds anything after the root."""
    dialogs = None
    idx = _skip(text, 0).end()
    if not text.startswith("{", idx):
        return None
    key, idx = _next_member(text, idx + 1, True)
    while key is not None:
        if key != "dialogs":
            _, idx = _scan_value(text, idx)
        elif not text.startswith("{", idx):
            return None
        else:
            dialogs = {}  # a repeated 'dialogs' key: the last value wins, as in json.loads
            dialog_id, idx = _next_member(text, idx + 1, True)
            while dialog_id is not None:
                turns_obj, idx = _scan_value(text, idx)
                dialogs[dialog_id] = _parse_dialog(dialog_id, turns_obj)
                del turns_obj
                dialog_id, idx = _next_member(text, idx, False)
        key, idx = _next_member(text, idx, False)
    return dialogs if _skip(text, idx).end() == len(text) else None


def _deeper(levels: int, function, *args):
    """`function(*args)`, called `levels` (at least 1) frames deeper than a
    direct call."""
    return function(*args) if levels == 1 else _deeper(levels - 1, function, *args)


def _parse_dialogs(text: str) -> list[UnifiedDialog]:
    """The document's dialogs; a JSON error anywhere wins over any schema
    error. Whatever the walk does not take (a JSON error, an unexpected
    shape, nesting near the recursion limit) goes to json.loads, which
    raises its own message or returns the tree for the same per-dialog
    conversion."""
    try:
        # where frames and json's nesting share one recursion count (Python
        # 3.10, 3.11), json.loads reaches a turn list 4 levels deeper: its
        # decode and raw_decode frames, the root and 'dialogs' objects.
        # Started as deep, the walk accepts no document json.loads rejects.
        dialogs = _deeper(4, _walk_dialogs, text)
    except (ValueError, StopIteration, RecursionError):  # JSONDecodeError is a ValueError
        dialogs = None
    if dialogs is None:
        try:
            root = json.loads(text)
        except json.JSONDecodeError as exc:
            byte_offset = len(text[: exc.pos].encode("utf-8"))
            raise InputError(f"malformed document at byte {byte_offset}: {exc.msg}") from exc
        except RecursionError as exc:
            raise InputError("malformed document: nested too deeply") from exc
        if not isinstance(root, dict) or "dialogs" not in root:
            raise InputError("document must be an object with a 'dialogs' key")
        if not isinstance(root["dialogs"], dict):
            raise InputError("'dialogs' must map dialog ids to turn lists")
        dialogs = {dialog_id: _parse_dialog(dialog_id, turns) for dialog_id, turns in root["dialogs"].items()}
    for dialog in dialogs.values():
        if type(dialog) is not UnifiedDialog:
            raise dialog
    return list(dialogs.values())


def compute_stats(corpus: list[UnifiedDialog]) -> dict:
    """Utterance counts per domain and per standardized act."""
    turns = [turn for dialog in corpus for turn in dialog.turns]
    domains = Counter(d for turn in turns for d in turn.domains)
    labels = Counter(a for turn in turns for a in turn.acts)
    return {"domains": dict(sorted(domains.items())), "labels": dict(sorted(labels.items()))}


# The layout json.dumps(tree, ensure_ascii=False, indent=1) gives the
# unified schema; serialize_unified fills it in directly, because with an
# indent set json.dumps skips its C encoder for a pure-Python one.
_DOCUMENT_HEAD = """{
 "stats": {
  "domains": %s,
  "labels": %s
 },
 "dialogs": """
_DOCUMENT_TAIL = b"\n}\n"
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


def _json_block(open_: str, entries: list[str], close: str, pad: str, indent: str = " ") -> str:
    """`entries` one per line, `indent` deeper than `pad`; empty renders
    as `open_ + close`, as json.dumps does."""
    if not entries:
        return open_ + close
    return f"{open_}\n{pad}{indent}" + f",\n{pad}{indent}".join(entries) + f"\n{pad}{close}"


def _json_list(items: tuple[str, ...], pad: str) -> str:
    # most annotation lists hold zero items or one; skip the map and join
    if not items:
        return "[]"
    if len(items) == 1:
        return f"[\n{pad} {_encode(items[0])}\n{pad}]"
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
    head = (_DOCUMENT_HEAD % (domains, labels)).encode("utf-8")
    if not corpus:
        return head + b"{}" + _DOCUMENT_TAIL
    dialogs = [
        (f"{_encode(d.dialog_id)}: " + _json_block("[", [_json_turn(t) for t in d.turns], "]", "  ")).encode("utf-8")
        for d in corpus
    ]
    # each dialog is encoded once and the document joined once: the head and
    # tail ride on the first and last dialog, so no str copy of it is made
    dialogs[0] = head + b"{\n  " + dialogs[0]
    dialogs[-1] += b"\n }" + _DOCUMENT_TAIL
    return b",\n  ".join(dialogs)


def standardize_corpus(
    corpus: list[UnifiedDialog],
    table: ActMappingTable,
    permissive: bool = False,
) -> list[UnifiedDialog]:
    """Re-derive standardized acts and parents from the rawest act names
    available (original_acts when present, else acts); canonicalize slots."""
    # (source acts, slots) -> canonical (acts, main_acts, original_acts, slots)
    canonical: dict[tuple, tuple] = {}
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
                    source,
                    tuple(sorted(set(turn.slots))),
                )
            # turn[3:7] is its (acts, main_acts, original_acts, slots); a canonical turn is kept
            turns.append(turn if turn[3:7] == fields else AnnotatedUtterance(*turn[:3], *fields, turn.intents))
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
    for uid, turn in utterances(corpus):
        if not turn.acts:
            continue
        key = (turn.acts, turn.slots)
        label = labels.get(key)
        if label is None:
            label = labels[key] = action_of(turn)
        rows.append((uid, turn.speaker, turn.text, label))
    return rows
