"""Command-line orchestration: ingest, eval, extract, losscheck, sweep.

Flags override the config file, which overrides the defaults; defaults are
pinned to the published hyperparameters. The environment supplies only the
D2F_* service settings, which have no flag or config key; an --embeddings
path, from a flag or the config file, wins over D2F_EMBED_URL. All
randomness flows from one root seed through named substreams, so fixed
seed + fixed inputs means byte-identical outputs. Exit codes: 0 success,
1 check failure, 2 input error, 3 remote-service error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import dataclass

from . import checks, cluster, contrastive, corpus, embedding, evaluation, flowgraph
from .errors import InputError, RemoteError
from .seeding import substream

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_INPUT = 2
EXIT_REMOTE = 3

MAX_GRID_POINTS = 1000  # each grid point trains one model


@dataclass
class RunConfig:
    seed: int = 0
    epsilon: float = flowgraph.DEFAULT_EPSILON
    tau: float = contrastive.DEFAULT_TAU
    kshot: tuple[int, ...] = (1, 5)
    ndcg_k: int = 10
    repetitions: int = 10
    clusters_user: int | None = None
    clusters_system: int | None = None
    corpus: str | None = None
    embeddings: str | None = None
    out: str | None = None


_CONFIG_TYPES = typing.get_type_hints(RunConfig)


def _parse_kshot(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise InputError(f"bad --kshot value '{text}'") from exc


def _is_a(value, kind) -> bool:
    """JSON value of a Python type; an int a float can hold is a float, a bool is not an int."""
    if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        return False
    return isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)


def _config_value(key: str, value):
    """`value` as RunConfig field `key`, if it has that field's type."""
    kind = _CONFIG_TYPES[key]
    if typing.get_origin(kind) is tuple:  # kshot: a list of ints
        if isinstance(value, list) and all(_is_a(v, int) for v in value):
            return tuple(value)
    elif any(_is_a(value, k) for k in typing.get_args(kind) or (kind,)):
        return value
    raise InputError(f"config key '{key}' has the wrong type: {value!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults <- config file <- flags; the D2F_* service settings are read
    from the environment where a service is called, not here."""
    config = RunConfig()
    path = getattr(args, "config", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError, deep nesting
                raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(file_values, dict):
            raise InputError(f"config file {path} must hold a JSON object")
        for key, value in file_values.items():
            if key not in _CONFIG_TYPES:
                raise InputError(f"unknown config key '{key}'")
            setattr(config, key, _config_value(key, value))
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, _parse_kshot(value) if key == "kshot" else value)
    for key in ("corpus", "embeddings", "out"):
        value = getattr(config, key)
        try:
            if value is not None and b"\0" in os.fsencode(value):
                raise ValueError("embedded null byte")
        except ValueError as exc:  # also an unpaired surrogate, e.g. "\ud800" in a JSON config
            raise InputError(f"'{key}' is not a valid file name: {value!r}") from exc
    return config


def _load_corpus(path: str) -> list[corpus.UnifiedDialog]:
    with open(path, "rb") as fh:
        return corpus.parse_unified(fh.read())


def _resolve_store(
    embeddings_path: str | None, dialogs: list[corpus.UnifiedDialog]
) -> embedding.EmbeddingStore:
    """Embedding file when a path is given, else the remote encoder from
    the environment (one vector per utterance, keyed by utterance id)."""
    if embeddings_path:
        return embedding.load_embeddings(embeddings_path)
    endpoint = os.environ.get(embedding.ENV_EMBED_URL)
    if not endpoint:
        raise InputError(
            f"no embeddings: pass --embeddings or set {embedding.ENV_EMBED_URL}"
        )
    ids, texts = [], []
    for dialog in dialogs:
        for i, turn in enumerate(dialog.turns):
            ids.append(corpus.utterance_id(dialog.dialog_id, i))
            texts.append(turn.text)
    return embedding.fetch_remote(endpoint, texts, ids, token=os.environ.get(embedding.ENV_EMBED_TOKEN))


def _require(value: str | None, what: str) -> str:
    if not value:
        raise InputError(f"{what} required (flag or config file)")
    return value


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_ingest(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_path = _require(config.out, "--out")
    dialogs = _load_corpus(_require(config.corpus, "--corpus"))
    table = corpus.load_table(args.acts) if args.acts else corpus.builtin_table()
    canonical = corpus.standardize_corpus(dialogs, table, permissive=args.permissive)
    data = corpus.serialize_unified(canonical)
    with open(out_path, "wb") as fh:
        fh.write(data)
    stats = corpus.compute_stats(canonical)
    n_turns = sum(len(d.turns) for d in canonical)
    print(f"ingested {len(canonical)} dialogs, {n_turns} utterances -> {out_path}")
    print(f"domains: {len(stats['domains'])}, act labels: {len(stats['labels'])}")
    return EXIT_OK


def _labeled_data(
    dialogs: list[corpus.UnifiedDialog], store: embedding.EmbeddingStore
) -> evaluation.LabeledEmbeddings:
    rows = corpus.labeled_utterances(dialogs)
    labels = {uid: action for uid, _, _, action in rows}
    return evaluation.LabeledEmbeddings(store=store.normalize(), labels=labels)


def cmd_eval(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    dialogs = _load_corpus(_require(config.corpus, "--corpus"))
    data = _labeled_data(dialogs, _resolve_store(config.embeddings, dialogs))
    report = evaluation.evaluate(
        data,
        kshots=config.kshot,
        ndcg_k=config.ndcg_k,
        repetitions=config.repetitions,
        seed=config.seed,
    )
    text = evaluation.report_to_json(report)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"intra={report.intra:.4f} inter={report.inter:.4f} delta={report.delta:.4f}")
    for k in report.kshots:
        f1, acc = report.f1_macro[k], report.accuracy[k]
        print(f"{k}-shot: F1 {f1[0]:.4f} +/- {f1[1]:.4f}, accuracy {acc[0]:.4f} +/- {acc[1]:.4f}")
    print(f"nDCG@{report.ndcg_k}: {report.ndcg[0]:.4f} +/- {report.ndcg[1]:.4f}")
    return EXIT_OK


def _cluster_labels(graph: flowgraph.FlowGraph, parts: dict[str, cluster.Clustering],
                    store: embedding.EmbeddingStore, turns: dict[str, corpus.AnnotatedUtterance]) -> dict[str, str]:
    """`node: name` for each node the pruned graph keeps, in U0..., S0... order:
    the LLM's name when $D2F_LLM_URL gives one, else the representative utterance."""
    kept = [(f"{prefix}{cid}", parts[role], cid) for role, prefix in flowgraph._ROLE_PREFIXES
            for cid in range(parts[role].k) if f"{prefix}{cid}" in graph.node_weights]
    names = {}
    if os.environ.get(flowgraph.ENV_LLM_URL):
        names = flowgraph.label_clusters_llm(
            [(node, [turns[m].text for m in part.members(cid)]) for node, part, cid in kept],
            os.environ[flowgraph.ENV_LLM_URL],
            model=os.environ.get(flowgraph.ENV_LLM_MODEL),
            token=os.environ.get(flowgraph.ENV_LLM_TOKEN),
        )
    for node, part, cid in kept:
        if node not in names:
            names[node] = turns[cluster.representative(store, part, cid)].text[:40]
    return {node: f"{node}: {names[node]}" for node, _, _ in kept}


def cmd_extract(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out_dir = _require(config.out, "--out")
    dialogs = _load_corpus(_require(config.corpus, "--corpus"))
    os.makedirs(out_dir, exist_ok=True)
    if args.gold:
        trajectories = flowgraph.trajectories_gold(dialogs)
    else:
        if config.clusters_user is None or config.clusters_system is None:
            raise InputError("induced extraction needs --clusters-user and --clusters-system")
        store = _resolve_store(config.embeddings, dialogs).normalize()
        turns = {corpus.utterance_id(d.dialog_id, i): turn for d in dialogs for i, turn in enumerate(d.turns)}
        missing = sorted(uid for uid in turns if uid not in store)
        if missing:
            raise InputError(f"{len(missing)} utterances lack embeddings, e.g. {missing[:3]}")
        parts = {}
        for (role, _), k in zip(flowgraph._ROLE_PREFIXES, (config.clusters_user, config.clusters_system)):
            role_seed = int(substream(config.seed, "cluster", role).integers(2**31))
            ids = [uid for uid, turn in turns.items() if turn.speaker == role]
            parts[role] = cluster.kmeans(store, ids, k, seed=role_seed)
            with open(os.path.join(out_dir, f"clusters_{role}.tsv"), "w", encoding="utf-8") as fh:
                fh.write(cluster.clustering_to_text(parts[role]))
        trajectories = flowgraph.trajectories_induced(dialogs, parts["user"], parts["system"])
    full = flowgraph.build_graph(trajectories)
    graph = flowgraph.prune(full, config.epsilon)
    if not graph.nodes:
        print(f"warning: epsilon={config.epsilon} pruned every node; the heaviest node "
              f"weighs {max(full.node_weights.values()):.3f}", file=sys.stderr)
    labels = {} if args.gold else _cluster_labels(graph, parts, store, turns)
    dot = flowgraph.export_dot(graph, flowgraph.DotOptions(labels=labels))
    with open(os.path.join(out_dir, "flow.dot"), "w", encoding="utf-8") as fh:
        fh.write(dot)
    with open(os.path.join(out_dir, "flow.json"), "w", encoding="utf-8") as fh:
        fh.write(flowgraph.export_json(graph, labels=labels) + "\n")
    print(f"{'gold' if args.gold else 'induced'} graph: {graph.size} nodes, "
          f"{len(graph.edge_weights)} edges (epsilon={config.epsilon}) -> {out_dir}")
    return EXIT_OK


def cmd_losscheck(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    results = checks.run_losscheck(
        seed=config.seed,
        cases=args.cases,
        inject_fault=args.inject_fault,
    )
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    if all(r.passed for r in results):
        return EXIT_OK
    payload = checks.serialize_failure(results)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
        print(f"failing cases serialized to {config.out}", file=sys.stderr)
    else:
        print(payload, file=sys.stderr)
    return EXIT_CHECK


def _grid_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise InputError(f"bad --grid value '{text}': grid values are finite numbers > 0")
    return value


def _parse_grid(text: str | None) -> list[float]:
    if text is None:
        # published sweep grid: 0.05 .. 1.0 in steps of 0.05
        return [round(0.05 * i, 2) for i in range(1, 21)]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InputError("grid range must be start:stop:step")
        start, stop, step = (_grid_value(p) for p in parts)
        out = []
        v = start
        while v <= stop + 1e-12:
            if len(out) == MAX_GRID_POINTS:  # also a step too small to move v
                raise InputError(f"grid range '{text}' has more than {MAX_GRID_POINTS} points")
            out.append(round(v, 10))
            v += step
        return out
    return [_grid_value(p) for p in text.split(",") if p]


def cmd_sweep(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    grid = _parse_grid(args.grid)
    dialogs = _load_corpus(_require(config.corpus, "--corpus"))
    rows = corpus.labeled_utterances(dialogs)
    if not rows:
        raise InputError("corpus has no annotated utterances")
    rng = substream(config.seed, "sweep-split")
    by_action: dict[str, list[contrastive.TrainItem]] = {}
    for item in contrastive.single_items(rows):
        by_action.setdefault(item.action, []).append(item)
    train_rows, eval_rows = [], []
    for action in sorted(by_action):
        pool = by_action[action]
        order = rng.permutation(len(pool))
        n_eval = max(1, len(pool) // 5)
        eval_rows += [pool[i] for i in order[:n_eval]]
        train_rows += [pool[i] for i in order[n_eval:]]
    results = contrastive.sweep_tau_label(
        train_rows, eval_rows, grid, seed=config.seed, tau=config.tau, epochs=args.epochs
    )
    lines = ["tau_label\tf1_5shot\tanisotropy_delta"]
    lines += [f"{tau_label:.6g}\t{f1:.6f}\t{delta:.6f}" for tau_label, f1, delta in results]
    text = "\n".join(lines) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="root seed (default 0)")
    p.add_argument("--config", default=None, help="JSON config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="convflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a unified corpus")
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--acts", default=None, help="act mapping table file (default: built-in)")
    p.add_argument("--permissive", action="store_true", help="pass unknown acts through")
    p.add_argument("--config", default=None, help="JSON config file")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("eval", help="similarity-based metrics for labeled embeddings")
    p.add_argument("--corpus", default=None)
    p.add_argument("--embeddings", default=None, help=f"embedding file (default: fetch via ${embedding.ENV_EMBED_URL})")
    p.add_argument("--out", default=None)
    p.add_argument("--kshot", default=None, help="comma-separated shot counts (default 1,5)")
    p.add_argument("--ndcg-k", dest="ndcg_k", type=int, default=None)
    p.add_argument("--reps", dest="repetitions", metavar="REPS", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("extract", help="extract the dialog flow graph")
    p.add_argument("--corpus", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--gold", action="store_true", help="build the reference graph from annotations")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--clusters-user", dest="clusters_user", type=int, default=None)
    p.add_argument("--clusters-system", dest="clusters_system", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("losscheck", help="run the loss/gradient verification suite")
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--out", default=None, help="where to serialize failing cases")
    p.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    _add_common(p)
    p.set_defaults(func=cmd_losscheck)

    p = sub.add_parser("sweep", help="label-temperature sweep on a toy model")
    p.add_argument("--corpus", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--grid", default=None, help="comma list or start:stop:step (default 0.05:1.0:0.05)")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--tau", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RemoteError as exc:
        print(f"remote error: {exc}", file=sys.stderr)
        return EXIT_REMOTE
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
