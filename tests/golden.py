"""Golden manifest: the sha256 of every file and stdout the CLI writes on
small fixed inputs.

The determinism tests compare two runs of one tree; this manifest compares a
tree with the commit that wrote it, so a change that moves one output bit
fails tier-1 (`tests/test_golden.py`). A change that alters an output on
purpose rewrites the manifest, from the repository root, with

    PYTHONPATH=src python -m tests.golden --update

and gives the reason in CHANGES.md.

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
from convflow.corpus import serialize_unified
from convflow.embedding import save_embeddings
from convflow.synth import planted_flow

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# (output name, argv); "{tmp}" is the run's scratch directory. `eval` and induced
# `extract` run on JSONL and on binary embeddings.
RUNS = [
    ("ingest", ["ingest", "--corpus", "{tmp}/corpus.json", "--out", "{tmp}/ingest.json"]),
    ("losscheck", ["losscheck", "--cases", "20", "--seed", "3"]),
    ("losscheck-fault", ["losscheck", "--cases", "20", "--seed", "3", "--inject-fault",
                         "--out", "{tmp}/losscheck-fault.json"]),
    ("extract-gold", ["extract", "--gold", "--corpus", "{tmp}/corpus.json", "--out", "{tmp}/extract-gold"]),
    ("sweep", ["sweep", "--corpus", "{tmp}/corpus.json", "--grid", "0.1,0.5", "--epochs", "2",
               "--seed", "1", "--out", "{tmp}/sweep.tsv"]),
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
        for fmt in ("jsonl", "binary"):
            save_embeddings(pf.store, os.path.join(tmp, f"embeddings.{fmt}"), format=fmt)
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
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
