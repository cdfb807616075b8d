"""Golden manifest: the sha256 of every file and stdout the CLI writes on
small fixed inputs.

The determinism tests compare two runs of one tree; this manifest compares a
tree with the commit that wrote it, so a change that moves one output bit
fails tier-1 (`tests/test_golden.py`). A change that alters an output on
purpose rewrites the manifest, from the repository root, with

    PYTHONPATH=src python -m tests.golden --update

which prints the name of each pin it added, removed or moved, and gives the
reason in CHANGES.md.

Every output is pinned exactly, floats included. The outputs that pass
through BLAS (eval reports, induced clusters and graphs, the sweep table)
were the same at 1 and 2 OpenBLAS threads. If another CPU's kernels move one
of those floats, split that output's pin: keep its discrete content (cluster
TSVs, node and edge sets, counts) exact and compare its floats within 1e-12.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from convflow.cli import main
from convflow.corpus import AnnotatedUtterance, UnifiedDialog, serialize_unified, utterance_id
from convflow.embedding import EmbeddingStore, build_store, save_embeddings
from convflow.synth import graded_label_rows, planted_flow

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# A hand-written corpus in the raw shape real datasets arrive in, which
# `ingest` rewrites: act names in mixed case, unsorted and repeated slots,
# stale `acts` beside raw `original_acts`, turns whose `original_acts` is
# empty, a two-item `domains`, non-ASCII text and a stale stats header. Two
# turns have canonical acts and differ from their canonical form only in
# `slots` or only in `original_acts`; one turn is canonical already.
# Dialog "r3" holds an unannotated turn, so gold `extract` reads the corpus
# without it (`raw-annotated.json`).
RAW_DIALOGS = {
    "r1": [
        {"speaker": "user", "text": "Hi, I need a taxi to the Café Rouge, please.",
         "domains": ["taxi", "restaurant"],
         "labels": {"dialog_acts": {"acts": ["Greeting", "inform"], "main_acts": [], "original_acts": []},
                    "slots": ["destination", "area", "destination"], "intents": ["book_taxi"]}},
        {"speaker": "system", "text": "Sure. When would you like to leave?",
         "domains": ["taxi"],
         "labels": {"dialog_acts": {"acts": ["request"], "main_acts": ["request"], "original_acts": ["req_more"]},
                    "slots": ["leaveAt"], "intents": []}},
        {"speaker": "user", "text": "At 5 pm. Merci — à bientôt ☺",
         "domains": ["taxi"],
         "labels": {"dialog_acts": {"acts": ["inform"], "main_acts": ["inform"], "original_acts": ["INFORM", "Thankyou"]},
                    "slots": ["leaveAt", "leaveAt"]}},
        {"speaker": "system", "text": "It costs about £12, in the centre.",
         "domains": ["taxi"],
         "labels": {"dialog_acts": {"acts": ["inform"], "main_acts": ["inform"], "original_acts": ["inform"]},
                    "slots": ["price", "area", "price"], "intents": []}},
        {"speaker": "user", "text": "OK.",
         "domains": ["taxi"],
         "labels": {"dialog_acts": {"acts": ["agreement"], "main_acts": ["agreement"], "original_acts": []},
                    "slots": [], "intents": []}},
        {"speaker": "system", "text": "Booked. Goodbye!",
         "domains": ["taxi"],
         "labels": {"dialog_acts": {"acts": ["good_bye", "inform_success"], "main_acts": ["good_bye", "inform"],
                                    "original_acts": ["good_bye", "inform_success"]},
                    "slots": [], "intents": []}},
    ],
    "r2": [
        {"speaker": "user", "text": "Is there a hospital near me?",
         "domains": ["hospital"],
         "labels": {"dialog_acts": {"acts": ["request"], "original_acts": ["Request", "request"]},
                    "slots": ["phone", "address", "Phone"]}},
        {"speaker": "system", "text": "Addenbrookes, phone 01223 245151. Anything else?",
         "domains": ["hospital"],
         "labels": {"dialog_acts": {"acts": ["req_more", "Inform"], "main_acts": [], "original_acts": []},
                    "slots": ["phone", "address"]}},
        {"speaker": "user", "text": "No thanks, that's all. Danke!",
         "labels": {"dialog_acts": {"acts": ["thank_you"], "original_acts": ["thanks", "Thankyou", "goodbye"]}}},
    ],
    "r3": [
        {"speaker": "user", "text": "…hello?"},
        {"speaker": "system", "text": "Welcome! How can I help?", "domains": ["general"],
         "labels": {"dialog_acts": {"acts": ["greeting"], "original_acts": ["welcome"]}}},
    ],
}


# Two distinct vectors per role for induced `extract` with k = 3, so k-means
# initialization duplicates a centroid and the empty-cluster repair runs.
REPEATED_VECTORS = {"user": ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), "system": ([0.0, 0.0, 1.0], [1.0, 1.0, 0.0])}


def repeated_store(dialogs: list[UnifiedDialog]) -> EmbeddingStore:
    """Each turn's vector: its role's first vector in even exchanges, its second in odd ones."""
    return build_store([
        (utterance_id(d.dialog_id, i), REPEATED_VECTORS[turn.speaker][i // 2 % 2])
        for d in dialogs for i, turn in enumerate(d.turns)
    ])


def graded_dialogs() -> list[UnifiedDialog]:
    """One one-turn dialog per graded-label row (train and eval rows alike):
    each action's surface variants carry different slots, so the soft loss's
    label table is graded and the sweep's anisotropy moves with tau_label.
    The default row counts leave the 5-shot eval too few held-out rows."""
    train, eval_rows = graded_label_rows(per_variant_train=30, per_variant_eval=6)
    return [
        UnifiedDialog(uid, (AnnotatedUtterance(speaker, text, acts=(action.act,), slots=action.slots),))
        for uid, speaker, text, action in train + eval_rows
    ]


# (output name, argv); "{tmp}" is the run's scratch directory. `eval` and induced
# `extract` run on JSONL and on binary embeddings.
RUNS = [
    ("ingest", ["ingest", "--corpus", "{tmp}/corpus.json", "--out", "{tmp}/ingest.json"]),
    ("ingest-raw", ["ingest", "--corpus", "{tmp}/raw.json", "--out", "{tmp}/ingest-raw.json"]),
    ("extract-gold-raw", ["extract", "--gold", "--corpus", "{tmp}/raw-annotated.json",
                          "--out", "{tmp}/extract-gold-raw"]),
    ("losscheck", ["losscheck", "--cases", "20", "--seed", "3"]),
    ("losscheck-fault", ["losscheck", "--cases", "20", "--seed", "3", "--inject-fault",
                         "--out", "{tmp}/losscheck-fault.json"]),
    ("extract-gold", ["extract", "--gold", "--corpus", "{tmp}/corpus.json", "--out", "{tmp}/extract-gold"]),
    ("sweep", ["sweep", "--corpus", "{tmp}/corpus.json", "--grid", "0.1,0.5", "--epochs", "2",
               "--seed", "1", "--out", "{tmp}/sweep.tsv"]),
    # its embeddings file is written into the run's directory, so every pin
    # of this run is named extract-repeat/...
    ("extract-repeat", ["extract", "--corpus", "{tmp}/corpus.json",
                        "--embeddings", "{tmp}/extract-repeat/embeddings.jsonl",
                        "--clusters-user", "3", "--clusters-system", "3", "--out", "{tmp}/extract-repeat"]),
    ("sweep-graded", ["sweep", "--corpus", "{tmp}/graded.json", "--grid", "0.1,0.35,1.0", "--epochs", "1",
                      "--out", "{tmp}/sweep-graded.tsv"]),
] + [
    run
    for fmt in ("jsonl", "binary")
    for run in (
        (f"eval-{fmt}", ["eval", "--corpus", "{tmp}/corpus.json", "--embeddings", f"{{tmp}}/embeddings.{fmt}",
                         "--reps", "3", "--seed", "2", "--out", f"{{tmp}}/eval-{fmt}.json"]),
        (f"extract-{fmt}", ["extract", "--corpus", "{tmp}/corpus.json", "--embeddings", f"{{tmp}}/embeddings.{fmt}",
                            "--clusters-user", "3", "--clusters-system", "3", "--seed", "4",
                            "--out", f"{{tmp}}/extract-{fmt}"]),
    )
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs() -> dict[str, str]:
    """Output name -> sha256, for every run's exit code and stdout and for
    each file it wrote; scratch paths in stdout read as "{tmp}"."""
    pf = planted_flow(k_user=3, k_system=3, n_dialogs=40, dim=8, seed=5)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "corpus.json"), "wb") as fh:
            fh.write(serialize_unified(pf.dialogs))
        annotated = {k: turns for k, turns in RAW_DIALOGS.items() if k != "r3"}
        for name, dialogs in (("raw.json", RAW_DIALOGS), ("raw-annotated.json", annotated)):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump({"stats": {"domains": {"taxi": 99}}, "dialogs": dialogs}, fh, ensure_ascii=False)
        with open(os.path.join(tmp, "graded.json"), "wb") as fh:
            fh.write(serialize_unified(graded_dialogs()))
        for fmt in ("jsonl", "binary"):
            save_embeddings(pf.store, os.path.join(tmp, f"embeddings.{fmt}"), format=fmt)
        os.mkdir(os.path.join(tmp, "extract-repeat"))
        save_embeddings(repeated_store(pf.dialogs), os.path.join(tmp, "extract-repeat", "embeddings.jsonl"), format="jsonl")
        for name, argv in RUNS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main([a.replace("{tmp}", tmp) for a in argv])
            text = f"exit {code}\n" + stdout.getvalue().replace(tmp, "{tmp}")
            digests[f"{name}/stdout"] = _digest(text.encode("utf-8"))
        for root, _, files in sorted(os.walk(tmp)):
            for file in sorted(files):
                path = os.path.join(root, file)
                with open(path, "rb") as fh:
                    digests[os.path.relpath(path, tmp).replace(os.sep, "/")] = _digest(fh.read())
    return digests


def load() -> dict[str, str]:
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m tests.golden --update")
    old = load() if os.path.exists(MANIFEST) else {}
    new = outputs()
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(new, indent=1, sort_keys=True) + "\n")
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            print(f"added {name}")
        elif name not in new:
            print(f"removed {name}")
        elif old[name] != new[name]:
            print(f"moved {name}")
    print(f"wrote {MANIFEST}")
