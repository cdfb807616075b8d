import json
import random

import numpy as np
import pytest

from convflow.corpus import (
    ActionLabel,
    AnnotatedUtterance,
    UnifiedDialog,
    PARENT_ACTS,
    STANDARD_ACTS,
    action_of,
    builtin_table,
    compute_stats,
    load_table,
    parse_unified,
    serialize_unified,
    standardize_act,
    standardize_corpus,
)
from convflow.errors import (
    MissingAnnotationError,
    ParseError,
    SchemaError,
    UnknownActError,
)
from convflow.synth import planted_flow, random_corpus


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
    with pytest.raises(SchemaError) as exc:
        parse_unified(doc)
    assert exc.value.dialog_id == "d9"
    assert exc.value.turn_index == 0


def test_parse_malformed_reports_byte_offset():
    with pytest.raises(ParseError) as exc:
        parse_unified(b'{"dialogs": {{')
    assert exc.value.byte_offset == 13


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
    with pytest.raises(SchemaError, match="unpaired surrogate") as exc:
        parse_unified(doc)
    assert (exc.value.dialog_id, exc.value.turn_index) == ("d1", 1)


def test_parse_rejects_unpaired_surrogate_in_id_or_raw_str():
    with pytest.raises(SchemaError, match="unpaired surrogate") as exc:
        parse_unified(b'{"dialogs": {"d\\ud800": [{"speaker": "user", "text": "hi"}]}}')
    assert exc.value.dialog_id == "d\ud800" and exc.value.turn_index is None
    with pytest.raises(SchemaError, match="unpaired surrogate"):
        parse_unified('{"dialogs": {"d1": [{"speaker": "user", "text": "raw \ud800"}]}}')


def test_parse_accepts_surrogate_pairs_and_escaped_backslashes():
    doc = b'{"dialogs": {"d1": [{"speaker": "user", "text": "\\ud83d\\ude00 \\\\ud800", "extra": "\\ud800"}]}}'
    (dialog,) = parse_unified(doc)
    assert dialog.turns[0].text == "\U0001f600 \\ud800"


def test_standardize_act_table_values():
    assert standardize_act("notify_fail") == ("inform_failure", "inform")
    assert standardize_act("thanks") == ("thank_you", "thank_you")
    assert standardize_act("suggest") == ("recommendation", "recommendation")


def test_standardize_act_case_insensitive():
    assert standardize_act("NOTIFY_FAIL") == ("inform_failure", "inform")
    assert standardize_act("Thanks") == ("thank_you", "thank_you")


def test_standardize_act_unknown():
    with pytest.raises(UnknownActError):
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
    with pytest.raises(MissingAnnotationError):
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
