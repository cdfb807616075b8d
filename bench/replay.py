"""Traced replay: each timed path re-run as the same sequence of calls to
convflow's public functions that the command makes, with the same seeds
and arguments, and a span around every call into a layer.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends. A replay writes the same files as its command, and the run
checks them byte for byte against the command's, so the per-layer times
are those of the computation the command does. Nothing inside src/
is instrumented.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

from workloads import SWEEP_GRID, Agglomerative, Inputs, Workload


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def totals(self, since: int = 0) -> dict[str, float]:
        """Summed duration per span name over spans[since:]."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans[since:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def to_json(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "counts": self.counts,
        }


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _parse(cv, tr: Tracer, path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    with tr.span("corpus.parse_unified"):
        return cv.corpus.parse_unified(data)


def _load_store(cv, tr: Tracer, workload: Workload, path: str):
    with tr.span("embedding.load_embeddings"):
        store = cv.embedding.load_embeddings(path, format=workload.embedding_format)
    with tr.span("embedding.normalize"):
        return store.normalize()


def ingest(cv, tr: Tracer, workload: Workload, inputs: Inputs, out: str) -> None:
    dialogs = _parse(cv, tr, inputs.corpus_path)
    with tr.span("corpus.standardize_corpus"):
        canonical = cv.corpus.standardize_corpus(dialogs, cv.corpus.builtin_table(), permissive=False)
    with tr.span("corpus.serialize_unified"):
        data = cv.corpus.serialize_unified(canonical)
    with open(os.path.join(out, "ingest.json"), "wb") as fh:
        fh.write(data)
    with tr.span("corpus.compute_stats"):
        cv.corpus.compute_stats(canonical)


def evaluate(cv, tr: Tracer, workload: Workload, inputs: Inputs, out: str) -> None:
    ev, seed, kshots, reps, ndcg_k = cv.evaluation, 0, (1, 5), 10, 10
    dialogs = _parse(cv, tr, inputs.corpus_path)
    with tr.span("embedding.load_embeddings"):
        store = cv.embedding.load_embeddings(inputs.embeddings_path, format=workload.embedding_format)
    with tr.span("corpus.labeled_utterances"):
        rows = cv.corpus.labeled_utterances(dialogs)
    with tr.span("embedding.normalize"):
        store = store.normalize()
    data = ev.LabeledEmbeddings(store=store, labels={uid: action for uid, _, _, action in rows})
    with tr.span("evaluation.anisotropy"):
        aniso = ev.intra_inter_anisotropy(data)
    f1_macro, accuracy, excluded_kshot = {}, {}, {}
    with tr.span("evaluation.kshot"):
        for k in kshots:
            results = [
                ev.prototype_classify(data, k, seed=int(cv.seeding.substream(seed, "kshot-rep", k, rep).integers(2**31)))
                for rep in range(reps)
            ]
            f1 = np.asarray([r.macro_f1 for r in results])
            acc = np.asarray([r.accuracy for r in results])
            f1_macro[k] = (float(f1.mean()), float(f1.std()))
            accuracy[k] = (float(acc.mean()), float(acc.std()))
            excluded_kshot[k] = len(results[-1].excluded)
    with tr.span("evaluation.ndcg"):
        ranking = ev.ndcg_ranking(data, k=ndcg_k, seed=seed, repetitions=reps)
    report = ev.EvalReport(
        intra=aniso.intra,
        inter=aniso.inter,
        delta=aniso.delta,
        f1_macro=f1_macro,
        accuracy=accuracy,
        ndcg=(ranking.mean, ranking.std),
        ndcg_k=ndcg_k,
        kshots=kshots,
        repetitions=reps,
        excluded_intra=aniso.excluded_intra,
        excluded_kshot=excluded_kshot,
        excluded_ndcg=ranking.excluded,
    )
    _write(os.path.join(out, "report.json"), ev.report_to_json(report) + "\n")


def _export(cv, tr: Tracer, workload: Workload, trajectories, labels: dict, out_dir: str) -> None:
    fg = cv.flowgraph
    with tr.span("flowgraph.build_graph"):
        graph = fg.build_graph(trajectories)
    with tr.span("flowgraph.prune"):
        graph = fg.prune(graph, workload.epsilon)
    with tr.span("flowgraph.export"):
        dot = fg.export_dot(graph, fg.DotOptions(labels=labels))
        text = fg.export_json(graph, labels=labels) + "\n"
    tr.counts["flowgraph.nodes"] = graph.size
    tr.counts["flowgraph.edges"] = len(graph.edge_weights)
    _write(os.path.join(out_dir, "flow.dot"), dot)
    _write(os.path.join(out_dir, "flow.json"), text)


def extract_gold(cv, tr: Tracer, workload: Workload, inputs: Inputs, out: str) -> None:
    out_dir = os.path.join(out, "gold")
    os.makedirs(out_dir, exist_ok=True)
    dialogs = _parse(cv, tr, inputs.corpus_path)
    with tr.span("flowgraph.trajectories"):
        trajectories = cv.flowgraph.trajectories_gold(dialogs)
    _export(cv, tr, workload, trajectories, {}, out_dir)


def extract_induced(cv, tr: Tracer, workload: Workload, inputs: Inputs, out: str) -> None:
    out_dir = os.path.join(out, "induced")
    os.makedirs(out_dir, exist_ok=True)
    dialogs = _parse(cv, tr, inputs.corpus_path)
    store = _load_store(cv, tr, workload, inputs.embeddings_path)
    ids = {"user": [], "system": []}
    texts = {}
    for dialog in dialogs:
        for i, turn in enumerate(dialog.turns):
            uid = cv.corpus.utterance_id(dialog.dialog_id, i)
            texts[uid] = turn.text
            ids["user" if turn.speaker == "user" else "system"].append(uid)
    parts, iterations = {}, 0
    for role, k in (("user", workload.k_user), ("system", workload.k_system)):
        role_seed = int(cv.seeding.substream(0, "cluster", role).integers(2**31))
        with tr.span("cluster.kmeans"):
            parts[role], history = cv.cluster.kmeans(store, ids[role], k, seed=role_seed, return_history=True)
        iterations += len(history)
        _write(os.path.join(out_dir, f"clusters_{role}.tsv"), cv.cluster.clustering_to_text(parts[role]))
    tr.counts["cluster.kmeans_iterations"] = iterations
    with tr.span("flowgraph.trajectories"):
        trajectories = cv.flowgraph.trajectories_induced(dialogs, parts["user"], parts["system"])
    labels = {}
    with tr.span("cluster.representative"):
        for role, prefix in (("user", "U"), ("system", "S")):
            for cid in range(parts[role].k):
                rep = cv.cluster.representative(store, parts[role], cid)
                labels[f"{prefix}{cid}"] = f"{prefix}{cid}: {texts[rep][:40]}"
    _export(cv, tr, workload, trajectories, labels, out_dir)


def agglomerative(cv, tr: Tracer, workload: Workload, inputs: Inputs, out: str) -> None:
    Agglomerative(inputs, os.path.join(out, "agglomerative.txt"), tr.span)()


def sweep(cv, tr: Tracer, workload: Workload, inputs: Inputs, out: str) -> None:
    ct, seed = cv.contrastive, 0
    dialogs = _parse(cv, tr, inputs.sweep_corpus_path)
    with tr.span("corpus.labeled_utterances"):
        rows = cv.corpus.labeled_utterances(dialogs)
    items = ct.single_items(rows)
    rng = cv.seeding.substream(seed, "sweep-split")
    by_action: dict = {}
    for item in items:
        by_action.setdefault(item.action, []).append(item)
    train_rows, eval_rows = [], []
    for action in sorted(by_action):
        pool = by_action[action]
        order = rng.permutation(len(pool))
        n_eval = max(1, len(pool) // 5)
        for pos, idx in enumerate(order):
            (eval_rows if pos < n_eval else train_rows).append(pool[idx])
    grid = [float(p) for p in SWEEP_GRID.split(",")]
    encoder_dim, head_dim = 64, 32  # sweep_tau_label's defaults
    lines = ["tau_label\tf1_5shot\tanisotropy_delta"]
    for tau_label in sorted(grid):
        temps = ct.Temperatures(tau=ct.DEFAULT_TAU, tau_label=tau_label)
        encoder = ct.init_toy_encoder(m=ct.DEFAULT_HASH_DIM, n=encoder_dim, seed=seed)
        heads = [ct.init_head(encoder_dim, head_dim, seed=seed)]
        with tr.span("contrastive.train_toy"):
            trained = ct.train_toy(train_rows, encoder, heads, temps, epochs=workload.sweep_epochs, seed=seed, soft=True)
        with tr.span("contrastive.encode"):
            vecs = trained.encoder.encode([r.text for r in eval_rows])
        ids = [f"u{i}" for i in range(len(eval_rows))]
        store = cv.embedding.build_store(list(zip(ids, vecs)), normalize=True)
        labels = {ids[i]: cv.corpus.ActionLabel.make(eval_rows[i].action, []) for i in range(len(eval_rows))}
        data = cv.evaluation.LabeledEmbeddings(store=store, labels=labels)
        with tr.span("evaluation.evaluate_labeled"):
            f1, delta = cv.evaluation.evaluate_labeled(data, kshot=5, seed=seed)
        lines.append(f"{float(tau_label):.6g}\t{f1:.6f}\t{delta:.6f}")
    _write(os.path.join(out, "sweep.tsv"), "\n".join(lines) + "\n")


# timed metric -> replay of the same path
REPLAYS = {
    "ingest_s": ingest,
    "eval_s": evaluate,
    "extract_gold_s": extract_gold,
    "extract_induced_s": extract_induced,
    "agglomerative_s": agglomerative,
    "sweep_s": sweep,
}
