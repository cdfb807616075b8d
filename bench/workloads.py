"""Workload definitions, input generation (set-up) and the timed paths.

Both workloads come from `synth.planted_flow`: orthogonal action centres,
every utterance within 15 degrees of its action's centre, dialogs drawn
from a seeded user/system transition chain. Dialogs have a fixed length,
so the utterance count, and with it the work, does not vary with the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

DIALOG_LEN = 8
SWEEP_GRID = "0.1,0.35,1.0"


@dataclass(frozen=True)
class Workload:
    name: str
    k_user: int
    k_system: int
    n_dialogs: int
    dim: int
    embedding_format: str  # "binary" or "jsonl"
    epsilon: float
    agglomerative_n: int  # size of the seeded id subsample
    sweep_dialogs: int  # the sweep corpus is the first n dialogs
    sweep_epochs: int
    calls: dict  # metric -> back-to-back calls timed as one sample (default 1)
    round_s: float  # nominal duration of one untraced round, for the round count


WORKLOADS = {
    # Many utterances over few actions: corpus parse/serialize of a ~6 MB
    # JSON file, the binary loader, k-means over many points, trajectories
    # and graph building, nDCG ranking over ~16k candidates.
    "flow-large": Workload(
        name="flow-large",
        k_user=9,
        k_system=8,
        n_dialogs=2000,
        dim=64,
        embedding_format="binary",
        epsilon=0.02,
        agglomerative_n=800,
        sweep_dialogs=100,
        sweep_epochs=10,
        calls={"extract_gold_s": 2, "extract_induced_s": 2},
        round_s=14.0,
    ),
    # Many actions in high dimension: per-action metric work (8,128
    # anisotropy pairs, 128 prototypes and queries), k-means with k=64,
    # JSONL parsing, agglomerative clustering of 1000 ids, export of a
    # ~3k-edge graph. epsilon is below 1/128: at the default 0.02 every
    # node is pruned. The sweep keeps all 128 actions (fewer dialogs would
    # leave no action with the 6 held-out utterances 5-shot needs) and
    # trains 1 epoch instead of 10 to stay near 1 s.
    "actions-many": Workload(
        name="actions-many",
        k_user=64,
        k_system=64,
        n_dialogs=600,
        dim=256,
        embedding_format="jsonl",
        epsilon=0.002,
        agglomerative_n=1000,
        sweep_dialogs=600,
        sweep_epochs=1,
        calls={"ingest_s": 3, "extract_gold_s": 6},
        round_s=17.5,
    ),
}


def convflow_modules() -> SimpleNamespace:
    """Import convflow afresh (as a new process would) and return its modules."""
    for name in [m for m in sys.modules if m == "convflow" or m.startswith("convflow.")]:
        del sys.modules[name]
    names = ("cli", "cluster", "contrastive", "corpus", "embedding", "evaluation", "flowgraph", "seeding", "synth")
    return SimpleNamespace(**{n: importlib.import_module(f"convflow.{n}") for n in names})


@dataclass
class Inputs:
    cv: SimpleNamespace  # convflow modules
    planted: object  # synth.PlantedFlow
    corpus_path: str
    embeddings_path: str
    sweep_corpus_path: str
    labels: dict = field(default_factory=dict)  # uid -> speaker-tagged planted action
    subsample: list = field(default_factory=list)  # agglomerative ids, sorted


def setup(workload: Workload, seed: int, work_dir: str, span=None) -> Inputs:
    """Import convflow, generate the workload and write its input files:
    the work `setup_s` times. `span(name)` is an optional context-manager
    factory for tracing."""
    span = span or (lambda name: contextlib.nullcontext())
    os.makedirs(work_dir, exist_ok=True)
    cv = convflow_modules()
    with span("synth.planted_flow"):
        planted = cv.synth.planted_flow(
            k_user=workload.k_user,
            k_system=workload.k_system,
            n_dialogs=workload.n_dialogs,
            dim=workload.dim,
            seed=seed,
            min_len=DIALOG_LEN,
            max_len=DIALOG_LEN,
        )
    suffix = ".bin" if workload.embedding_format == "binary" else ".jsonl"
    inputs = Inputs(
        cv=cv,
        planted=planted,
        corpus_path=os.path.join(work_dir, "corpus.json"),
        embeddings_path=os.path.join(work_dir, "embeddings" + suffix),
        sweep_corpus_path=os.path.join(work_dir, "sweep_corpus.json"),
    )
    with span("synth.write_inputs"):
        with open(inputs.corpus_path, "wb") as fh:
            fh.write(cv.corpus.serialize_unified(planted.dialogs))
        with open(inputs.sweep_corpus_path, "wb") as fh:
            fh.write(cv.corpus.serialize_unified(planted.dialogs[: workload.sweep_dialogs]))
        cv.embedding.save_embeddings(planted.store, inputs.embeddings_path, format=workload.embedding_format)
    return inputs


def annotate(inputs: Inputs, workload: Workload, seed: int) -> None:
    """Benchmark-side facts about the inputs, kept out of the timed set-up:
    each utterance's planted action (from the generator's dialogs) and the
    seeded agglomerative subsample."""
    for dialog in inputs.planted.dialogs:
        for i, turn in enumerate(dialog.turns):
            action = " ".join((*turn.acts, *turn.slots))
            inputs.labels[f"{dialog.dialog_id}:{i}"] = f"{turn.speaker}:{action}"
    ids = sorted(inputs.labels)
    picks = np.random.default_rng([seed, 7]).choice(len(ids), size=workload.agglomerative_n, replace=False)
    inputs.subsample = [ids[i] for i in sorted(int(p) for p in picks)]


def run_cli(cv: SimpleNamespace, argv: list) -> int:
    """One in-process CLI call; its stdout summary is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cv.cli.main([str(a) for a in argv])


class Agglomerative:
    """The library path: `cluster.agglomerative` on the subsample, then
    `cut` at the number of planted actions in it. Keeps its last result
    for the checks. `span(name)` is an optional context-manager factory
    for tracing."""

    def __init__(self, inputs: Inputs, out_path: str, span=None) -> None:
        self.inputs = inputs
        self.out_path = out_path
        self.span = span or (lambda name: contextlib.nullcontext())
        self.n_clusters = len({inputs.labels[uid] for uid in inputs.subsample})
        self.dendrogram = self.clustering = None

    def __call__(self) -> int:
        cluster, store = self.inputs.cv.cluster, self.inputs.planted.store
        with self.span("cluster.agglomerative"):
            self.dendrogram = cluster.agglomerative(store, self.inputs.subsample)
        with self.span("cluster.cut"):
            self.clustering = cluster.cut(self.dendrogram, store, n_clusters=self.n_clusters)
        with open(self.out_path, "w", encoding="utf-8") as fh:
            fh.write(cluster.dendrogram_to_text(self.dendrogram))
            fh.write(cluster.clustering_to_text(self.clustering))
        return 0


@dataclass(frozen=True)
class Path:
    """One user-facing path: `run()` performs it once and returns an exit
    code; `outputs` are the files it writes."""

    metric: str
    run: object
    outputs: tuple
    calls: int  # back-to-back calls timed as one sample


def paths(workload: Workload, inputs: Inputs, out_dir: str) -> list[Path]:
    """The six timed paths, in the order a round runs them."""
    cv = inputs.cv
    c, e = inputs.corpus_path, inputs.embeddings_path
    eps = repr(workload.epsilon)
    o = lambda name: os.path.join(out_dir, name)  # noqa: E731
    specs = [
        ("ingest_s", ["ingest", "--corpus", c, "--out", o("ingest.json")], ["ingest.json"]),
        ("eval_s", ["eval", "--corpus", c, "--embeddings", e, "--out", o("report.json")], ["report.json"]),
        (
            "extract_gold_s",
            ["extract", "--corpus", c, "--out", o("gold"), "--gold", "--epsilon", eps],
            ["gold/flow.dot", "gold/flow.json"],
        ),
        (
            "extract_induced_s",
            [
                "extract", "--corpus", c, "--embeddings", e, "--out", o("induced"), "--epsilon", eps,
                "--clusters-user", workload.k_user, "--clusters-system", workload.k_system,
            ],
            ["induced/flow.dot", "induced/flow.json", "induced/clusters_user.tsv", "induced/clusters_system.tsv"],
        ),
        ("agglomerative_s", None, ["agglomerative.txt"]),
        (
            "sweep_s",
            [
                "sweep", "--corpus", inputs.sweep_corpus_path, "--out", o("sweep.tsv"), "--grid", SWEEP_GRID,
                "--epochs", workload.sweep_epochs,
            ],
            ["sweep.tsv"],
        ),
    ]
    out = []
    for metric, argv, outputs in specs:
        outputs = tuple(o(name) for name in outputs)
        if argv is None:
            run = Agglomerative(inputs, outputs[0])
        else:
            run = lambda argv=argv: run_cli(cv, argv)  # noqa: E731
        out.append(Path(metric, run, outputs, workload.calls.get(metric, 1)))
    return out
