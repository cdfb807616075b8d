import gc
import json
import random

import numpy as np
import pytest

from convflow.corpus import (
    SPEAKERS,
    ActionLabel,
    AnnotatedUtterance,
    UnifiedDialog,
    PARENT_ACTS,
    STANDARD_ACTS,
    action_of,
    builtin_table,
    compute_stats,
    labeled_utterances,
    load_table,
    parse_unified,
    serialize_unified,
    standardize_act,
    standardize_corpus,
    utterance_id,
)
from convflow.errors import InputError
from convflow.flowgraph import Trajectory, TrajectoryStep, trajectories_gold
from convflow.synth import planted_flow
from corpora import random_corpus


MINIMAL = json.dumps(
    {"stats": {}, "dialogs": {"d1": [{"speaker": "user", "text": "hi", "labels": {"dialog_acts": {"acts": ["greeting"]}}}]}}
)


def test_parse_minimal_document():
    dialogs = parse_unified(MINIMAL)
    assert len(dialogs) == 1
    assert dialogs[0].dialog_id == "d1"
    assert dialogs[0].turns[0].speaker == "user"
    assert dialogs[0].turns[0].text == "hi"
    assert dialogs[0].turns[0].acts == ("greeting",)


def test_parse_missing_speaker_is_schema_error():
    doc = json.dumps({"dialogs": {"d9": [{"text": "hi"}]}})
    with pytest.raises(InputError, match="dialog 'd9' turn 0: missing required field 'speaker'"):
        parse_unified(doc)


def test_parse_malformed_reports_byte_offset():
    with pytest.raises(InputError, match="malformed document at byte 13: "):
        parse_unified(b'{"dialogs": {{')


def test_parse_ignores_unknown_fields_and_stale_stats():
    doc = json.dumps(
        {
            "stats": {"domains": {"bogus": 999}},
            "dialogs": {"d1": [{"speaker": "user", "text": "hi", "future_field": 1}]},
        }
    )
    dialogs = parse_unified(doc)
    assert len(dialogs) == 1


def test_roundtrip_structural_equality_random_corpora():
    for seed in range(8):
        corpus = random_corpus(seed=seed)
        again = parse_unified(serialize_unified(corpus))
        assert again == corpus


def test_roundtrip_byte_identical():
    for seed in range(8):
        corpus = random_corpus(seed=seed)
        first = serialize_unified(corpus)
        second = serialize_unified(parse_unified(first))
        assert first == second


def _reference_serialize_unified(corpus: list[UnifiedDialog]) -> bytes:
    """The generic json.dumps rendering that serialize_unified reproduces."""
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


# Characters json escapes, or must not: quote, backslash, control
# characters, DEL, non-ASCII, an astral character and U+2028.
_ESCAPE_ALPHABET = ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "😀", "\u2028", "a", " "]


def _escape_corpus(rng: random.Random) -> list[UnifiedDialog]:
    def string() -> str:
        return "".join(rng.choice(_ESCAPE_ALPHABET) for _ in range(rng.randrange(4)))

    def strings() -> tuple[str, ...]:
        return tuple(string() for _ in range(rng.randrange(3)))

    ids = list(dict.fromkeys(string() for _ in range(rng.randrange(4))))
    return [
        UnifiedDialog(
            dialog_id,
            tuple(
                AnnotatedUtterance(
                    rng.choice(("user", "system")), string(), strings(), strings(), strings(), strings(), strings(), strings()
                )
                for _ in range(rng.randrange(1, 4))
            ),
        )
        for dialog_id in ids
    ]


def test_serialize_matches_json_dumps_on_escape_alphabet():
    rng = random.Random(12)
    corpora = [_escape_corpus(rng) for _ in range(300)] + [[]]
    # stats keys (domains, acts) and dialog ids that need escaping
    tricky = AnnotatedUtterance("user", "", ("d\"\n",), ("a\\\x00",), (), (), (), ())
    corpora.append([UnifiedDialog('id "\t\u2028', (tricky,)), UnifiedDialog("", (tricky,))])
    for corpus in corpora:
        assert serialize_unified(corpus) == _reference_serialize_unified(corpus)


def test_serialize_matches_json_dumps_on_generated_corpora():
    corpora = [random_corpus(seed=seed) for seed in range(50)]
    corpora.append(planted_flow(k_user=3, k_system=3, n_dialogs=20, dim=8, seed=2).dialogs)
    for corpus in corpora:
        assert serialize_unified(corpus) == _reference_serialize_unified(corpus)


@pytest.mark.parametrize(
    "turn",
    [
        rb'{"speaker": "user", "text": "a\ud800"}',
        rb'{"speaker": "user", "text": "ok", "domains": ["x\uDC00y"]}',
        rb'{"speaker": "user", "text": "ok", "labels": {"dialog_acts": {"original_acts": ["\udbff"]}}}',
        rb'{"speaker": "user", "text": "ok", "labels": {"slots": ["\udfff"]}}',
    ],
)
def test_parse_rejects_unpaired_surrogate(turn):
    doc = b'{"dialogs": {"d1": [{"speaker": "user", "text": "hi"}, ' + turn + b"]}}"
    with pytest.raises(InputError, match=r"^dialog 'd1' turn 1: '\w+' holds an unpaired surrogate$"):
        parse_unified(doc)


def test_parse_rejects_unpaired_surrogate_in_id_or_raw_str():
    with pytest.raises(InputError, match=r"^dialog 'd\\ud800': id holds an unpaired surrogate$"):
        parse_unified(b'{"dialogs": {"d\\ud800": [{"speaker": "user", "text": "hi"}]}}')
    with pytest.raises(InputError, match="^dialog 'd1' turn 0: 'text' holds an unpaired surrogate$"):
        parse_unified('{"dialogs": {"d1": [{"speaker": "user", "text": "raw \ud800"}]}}')


def test_parse_accepts_surrogate_pairs_and_escaped_backslashes():
    doc = b'{"dialogs": {"d1": [{"speaker": "user", "text": "\\ud83d\\ude00 \\\\ud800", "extra": "\\ud800"}]}}'
    (dialog,) = parse_unified(doc)
    assert dialog.turns[0].text == "\U0001f600 \\ud800"


def _reference_parse_turn(obj: dict, dialog_id: str, index: int) -> AnnotatedUtterance:
    """The closure-based turn check that parse_unified's lean helpers reproduce."""
    def schema_error(what: str) -> InputError:
        return InputError(f"dialog '{dialog_id}' turn {index}: {what}")

    if not isinstance(obj, dict):
        raise schema_error("not an object")
    for required in ("speaker", "text"):
        if required not in obj:
            raise schema_error(f"missing required field '{required}'")
    speaker = obj["speaker"]
    if speaker not in SPEAKERS:
        raise schema_error(f"speaker must be one of {SPEAKERS}, got {speaker!r}")
    text = obj["text"]
    if not isinstance(text, str):
        raise schema_error(f"'text' must be a string, got {type(text).__name__}")
    labels = obj.get("labels") or {}
    if not isinstance(labels, dict):
        raise schema_error(f"'labels' must be an object, got {type(labels).__name__}")
    dialog_acts = labels.get("dialog_acts") or {}
    if not isinstance(dialog_acts, dict):
        raise schema_error(f"'dialog_acts' must be an object, got {type(dialog_acts).__name__}")

    def str_list(source: dict, key: str) -> tuple[str, ...]:
        value = source.get(key)
        if value is None:
            return ()
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise schema_error(f"'{key}' must be a list of strings, got {value!r:.60}")
        return tuple(value)

    return AnnotatedUtterance(
        speaker=speaker,
        text=text,
        domains=str_list(obj, "domains"),
        acts=str_list(dialog_acts, "acts"),
        main_acts=str_list(dialog_acts, "main_acts"),
        original_acts=str_list(dialog_acts, "original_acts"),
        slots=str_list(labels, "slots"),
        intents=str_list(labels, "intents"),
    )


def _outcome(function, *args):
    """What `function(*args)` returns, or the type and message of the input
    error it raises."""
    try:
        return function(*args)
    except InputError as exc:
        return type(exc), str(exc)


def _reference_parse(document: bytes) -> list[UnifiedDialog]:
    return [
        UnifiedDialog(dialog_id, tuple(_reference_parse_turn(t, dialog_id, i) for i, t in enumerate(turns)))
        for dialog_id, turns in json.loads(document)["dialogs"].items()
    ]


def test_parse_matches_reference_turn_parser_on_planted_corpora():
    for seed in range(6):
        document = serialize_unified(planted_flow(k_user=4, k_system=3, n_dialogs=40, dim=8, seed=seed).dialogs)
        assert parse_unified(document) == _reference_parse(document)


# A value of every JSON type, and lists holding a non-string.
_JSON_VALUES = [None, True, False, 0, 7, 1.5, "", "user", "system", "s", [], ["a", "b"], ["a", 1], [None],
                ["a", ["b"]], [{"k": "v"}], {}, {"k": "v"}, {"acts": ["inform"]}]
_TURN_FIELDS = {  # field -> the path of objects holding it
    "speaker": (), "text": (), "domains": (), "labels": (),
    "dialog_acts": ("labels",), "slots": ("labels",), "intents": ("labels",),
    "acts": ("labels", "dialog_acts"), "main_acts": ("labels", "dialog_acts"),
    "original_acts": ("labels", "dialog_acts"),
}


def _full_turn() -> dict:
    return {
        "speaker": "system", "text": "ok", "domains": ["taxi"],
        "labels": {
            "dialog_acts": {"acts": ["inform"], "main_acts": ["inform"], "original_acts": ["inform"]},
            "slots": ["phone"], "intents": ["book"],
        },
    }


def _set_fields(turn: dict, values: dict) -> dict:
    """`turn` with each field set to its value; ... deletes the field. A
    field whose holder was already removed or replaced is left out."""
    for field, value in values.items():
        holder = turn
        for key in _TURN_FIELDS[field]:
            holder = holder.get(key) if isinstance(holder, dict) else None
        if not isinstance(holder, dict):
            continue
        if value is ...:
            holder.pop(field, None)
        else:
            holder[field] = value
    return turn


def test_parse_matches_reference_turn_parser_on_every_json_type_at_every_field():
    turns = [_full_turn(), *_JSON_VALUES]  # the whole turn replaced, too
    for field in _TURN_FIELDS:
        for value in [*_JSON_VALUES, ...]:  # ... stands for an absent field
            turns.append(_set_fields(_full_turn(), {field: value}))
    # two wrong fields at once: the check order decides which is reported
    for first in _TURN_FIELDS:
        for second in _TURN_FIELDS:
            for value in (..., 1, ["a", 1]):
                if first != second:
                    turns.append(_set_fields(_full_turn(), {first: value, second: value}))
    assert len(turns) > 400
    tightened = 0
    for turn in turns:
        document = json.dumps({"dialogs": {"d1": [_full_turn(), turn]}}).encode()
        expected = _outcome(_reference_parse, document)
        outcome = _outcome(parse_unified, document)
        if isinstance(expected, list) and _falsy_non_object(turn):
            # the oracle reads a falsy `labels` or `dialog_acts` as empty;
            # parse_unified accepts only an absent key or null
            assert outcome[0] is InputError and "must be an object" in outcome[1], turn
            tightened += 1
        else:
            assert outcome == expected, turn
    assert tightened == 8  # [], 0, False and "" at each of the two fields


def _falsy_non_object(turn) -> bool:
    """Whether the turn's `labels` or `labels.dialog_acts` is a falsy value
    other than null and {}."""
    labels = turn.get("labels") if isinstance(turn, dict) else None
    dialog_acts = labels.get("dialog_acts") if isinstance(labels, dict) else None
    return any(v is not None and not v and not isinstance(v, dict) for v in (labels, dialog_acts))


@pytest.mark.parametrize(
    "document, error",
    [
        (MINIMAL, None),
        (b'{"dialogs": {{', "malformed document at byte 13"),
        (b"\xff", "document is not UTF-8 at byte 0"),
        (b'{"dialogs": {"d1": [{"speaker": "bot", "text": "hi"}]}}', "dialog 'd1' turn 0: speaker must be one of"),
        (b'{"dialogs": []}', "'dialogs' must map dialog ids to turn lists"),
    ],
)
@pytest.mark.parametrize("enabled", [True, False])
def test_parse_leaves_the_collector_as_it_found_it(document, error, enabled):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            parse_unified(document)
        else:
            with pytest.raises(InputError, match=error):
                parse_unified(document)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_standardize_act_table_values():
    assert standardize_act("notify_fail") == ("inform_failure", "inform")
    assert standardize_act("thanks") == ("thank_you", "thank_you")
    assert standardize_act("suggest") == ("recommendation", "recommendation")


def test_standardize_act_case_insensitive():
    assert standardize_act("NOTIFY_FAIL") == ("inform_failure", "inform")
    assert standardize_act("Thanks") == ("thank_you", "thank_you")


def test_standardize_act_unknown():
    with pytest.raises(InputError, match="unknown dialog act 'frobnicate'"):
        standardize_act("frobnicate")
    assert standardize_act("frobnicate", permissive=True) == ("frobnicate", "frobnicate")


def test_standardized_names_are_fixpoints():
    for name in STANDARD_ACTS:
        std, _ = standardize_act(name)
        assert std == name


def test_table_is_total_onto_18_and_10():
    table = builtin_table()
    standards = {standardize_act(raw, table)[0] for raw in table.raw_to_standard}
    parents = {standardize_act(raw, table)[1] for raw in table.raw_to_standard}
    assert standards == set(STANDARD_ACTS)
    assert len(STANDARD_ACTS) == 18
    assert parents == set(PARENT_ACTS)
    assert len(PARENT_ACTS) == 10


def test_table_file_roundtrip(tmp_path):
    table = builtin_table()
    text = "[raw_to_standard]\n" + "".join(f"{k}\t{v}\n" for k, v in sorted(table.raw_to_standard.items()))
    text += "[standard_to_parent]\n" + "".join(f"{k}\t{v}\n" for k, v in sorted(table.standard_to_parent.items()))
    path = tmp_path / "acts.tsv"
    path.write_text(text, encoding="utf-8")
    loaded = load_table(str(path))
    assert loaded.raw_to_standard == builtin_table().raw_to_standard
    assert loaded.standard_to_parent == builtin_table().standard_to_parent


def _utt(acts, slots, speaker="user", text="x", domains=("d",)):
    return AnnotatedUtterance(
        speaker=speaker, text=text, domains=tuple(domains), acts=tuple(acts), slots=tuple(slots)
    )


def test_action_of_sorts_slots():
    assert action_of(_utt(["inform"], ["price", "name"])).render() == "inform name price"


def test_action_of_no_slots():
    assert action_of(_utt(["thank_you"], [])).render() == "thank_you"


def test_action_of_dedups_slots():
    assert action_of(_utt(["request"], ["phone", "phone"])).render() == "request phone"


def test_action_of_slot_order_insensitive():
    rng = np.random.default_rng(3)
    slots = ["a", "b", "c", "d"]
    base = action_of(_utt(["inform"], slots)).render()
    for _ in range(20):
        perm = [slots[i] for i in rng.permutation(4)]
        assert action_of(_utt(["inform"], perm)).render() == base


def test_action_of_multiple_acts_joined_sorted():
    assert action_of(_utt(["request", "inform"], [])).render() == "inform+request"


def test_action_of_missing_annotation():
    with pytest.raises(InputError, match="utterance 'x' has no act annotation"):
        action_of(_utt([], []))


def test_action_label_rendering_injective_on_slot_sets():
    a = ActionLabel.make("inform", ["b", "a"])
    b = ActionLabel.make("inform", ["a", "b", "a"])
    assert a == b and a.render() == b.render()


def test_standardize_corpus_maps_original_acts():
    turn = AnnotatedUtterance(
        speaker="user", text="no no", original_acts=("notify_fail", "sorry"), slots=("b", "a", "b")
    )
    out = standardize_corpus([UnifiedDialog("d", (turn,))])
    assert out[0].turns[0].acts == ("inform_failure",)
    assert out[0].turns[0].main_acts == ("inform",)
    assert out[0].turns[0].slots == ("a", "b")


def test_standardize_corpus_idempotent():
    corpus = standardize_corpus(random_corpus(seed=3))
    assert standardize_corpus(corpus) == corpus


# ---------------------------------------------------------------------------
# One action per distinct annotation: the memoized loops against their
# per-turn bodies
# ---------------------------------------------------------------------------

def _reference_trajectories_gold(dialogs: list[UnifiedDialog]) -> list[Trajectory]:
    out = []
    for dialog in dialogs:
        steps = []
        for turn in dialog.turns:
            label = action_of(turn)
            steps.append(TrajectoryStep(speaker=turn.speaker, action=f"{turn.speaker}:{label.render()}"))
        out.append(Trajectory(dialog_id=dialog.dialog_id, steps=tuple(steps)))
    return out


def _reference_labeled_utterances(corpus: list[UnifiedDialog]) -> list[tuple[str, str, str, ActionLabel]]:
    rows = []
    for dialog in corpus:
        for i, turn in enumerate(dialog.turns):
            if not turn.acts:
                continue
            rows.append((utterance_id(dialog.dialog_id, i), turn.speaker, turn.text, action_of(turn)))
    return rows


def _reference_standardize_corpus(corpus: list[UnifiedDialog], table=None, permissive=False) -> list[UnifiedDialog]:
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


# Raw names, among them case variants and several that standardize alike.
_RAW_ACTS = ["inform", "INFORM", "notify_fail", "sorry", "request", "req_more", "thanks", "thank_you", "greeting"]
_SLOTS = ["phone", "area", "name"]


def _annotation_corpus(rng: random.Random, unannotated: float, unknown: float) -> list[UnifiedDialog]:
    """Few distinct annotations over many turns, in every act and slot order."""

    def acts() -> tuple[str, ...]:
        drawn = tuple(rng.choice(_RAW_ACTS) for _ in range(rng.randrange(1, 3)))
        return drawn + ("frobnicate",) if rng.random() < unknown else drawn

    dialogs = []
    for d in range(rng.randrange(1, 10)):
        turns = []
        for i in range(rng.randrange(1, 8)):
            turns.append(
                AnnotatedUtterance(
                    speaker=rng.choice(SPEAKERS),
                    text=f"turn {d}.{i}",
                    domains=("taxi",),
                    acts=() if rng.random() < unannotated else acts(),
                    original_acts=acts() if rng.random() < 0.5 else (),
                    slots=tuple(rng.choice(_SLOTS) for _ in range(rng.randrange(4))),
                    intents=("book",) * rng.randrange(2),
                )
            )
        dialogs.append(UnifiedDialog(f"d{d}", tuple(turns)))
    return dialogs


def test_memoized_action_loops_match_per_turn_bodies():
    rng = random.Random(4)
    corpora = [random_corpus(seed=seed) for seed in range(10)]
    corpora.append(planted_flow(k_user=4, k_system=3, n_dialogs=40, dim=8, seed=1).dialogs)
    corpora += [_annotation_corpus(rng, unannotated=0.0, unknown=0.0) for _ in range(100)]
    for corpus in corpora:
        assert trajectories_gold(corpus) == _reference_trajectories_gold(corpus)
        assert labeled_utterances(corpus) == _reference_labeled_utterances(corpus)
        for permissive in (False, True):
            assert standardize_corpus(corpus, permissive=permissive) == _reference_standardize_corpus(
                corpus, permissive=permissive
            )


def test_memoized_action_loops_raise_at_the_first_offending_turn():
    rng = random.Random(5)
    raised = {"has no act annotation": 0, "unknown dialog act": 0}
    for _ in range(300):
        corpus = _annotation_corpus(rng, unannotated=0.1, unknown=0.1)
        cases = [
            (trajectories_gold, _reference_trajectories_gold),
            (labeled_utterances, _reference_labeled_utterances),
            (standardize_corpus, _reference_standardize_corpus),
            (lambda c: standardize_corpus(c, permissive=True), lambda c: _reference_standardize_corpus(c, permissive=True)),
        ]
        for function, reference in cases:
            expected = _outcome(reference, corpus)
            assert _outcome(function, corpus) == expected
            if isinstance(expected, tuple):
                raised[next(kind for kind in raised if kind in expected[1])] += 1
    assert min(raised.values()) > 50  # both errors were reached, many times
