"""Benchmark of every convflow command on planted-flow workloads.

    python3 bench/run.py --workload flow-large --seed 1 --seconds 45 --trace 0

Run from the repository root. The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json
(drift-corrected seconds per call, peak RSS); with --trace 1 they are the
per-layer ones, from a traced replay of every path. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# One BLAS thread: by default OpenBLAS starts one per core, and `eval` then
# burns ~1.9 s of CPU per wall second on a 2-vCPU host, so its time depends
# on what else the host runs. A fixed hash seed makes set and dict
# iteration, and with it the work done, the same in every run. Bytecode
# goes to a cache of the benchmark's own, so whatever __pycache__ the
# source tree holds, the timed set-ups load bytecode compiled by this
# run's untimed warm-up import.
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPYCACHEPREFIX": os.path.join(WORK, "pycache"),
}
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_environment() -> None:
    """Re-execute under PINNED_ENV, with bytecode writing on, unless
    already pinned (before numpy loads)."""
    if "PYTHONDONTWRITEBYTECODE" in os.environ or any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        os.execve(sys.executable, [sys.executable, *sys.argv], {**env, **PINNED_ENV})


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def median(values) -> float:
    return float(statistics.median(values))


def measure(args, run_dir: str) -> dict:
    """Set-ups, timed rounds and checks. Returns the raw times; with
    --trace 1 also the per-layer metric values."""
    import replay
    import verify
    import workloads
    from timing import DriftClock, ReferenceJob

    workload = workloads.WORKLOADS[args.workload]
    clock = DriftClock(ReferenceJob())
    tracer = replay.Tracer() if args.trace else None
    problems: list[str] = []
    attempted = failed = 0

    # -- set-up, repeated; the last one's inputs are used --------------------
    workloads.convflow_modules()  # untimed warm-up: compiles the bytecode cache
    setup_raw, setup_spans, digests = [], [], set()
    box = {}
    for i in range(SETUP_REPEATS):
        input_dir = os.path.join(run_dir, f"inputs{i}")
        mark = len(tracer.spans) if tracer else 0
        raw = clock.measure(
            lambda: box.update(inputs=workloads.setup(workload, args.seed, input_dir, tracer and tracer.span))
        )
        attempted += 1
        setup_raw.append(raw)
        if tracer:
            setup_spans.append(tracer.totals(mark))
        inputs = box["inputs"]
        digests.add(digest([inputs.corpus_path, inputs.embeddings_path, inputs.sweep_corpus_path]))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(input_dir)
    if len(digests) != 1:
        problems.append("repeated set-ups wrote different input files")
    workloads.annotate(inputs, workload, args.seed)
    # The benchmark's own long-lived objects leave the collector's view, so
    # a command's garbage collections scan what a fresh CLI process's would.
    gc.freeze()

    # -- timed rounds: every path once per round ----------------------------
    # A fixed number of rounds, from --seconds and the workload's nominal
    # round length: a count that followed the host's speed would give slow
    # runs fewer samples than fast ones.
    rounds = max(1, int(args.seconds / (workload.round_s * (2 if tracer else 1)) + 0.5))
    out_dir = os.path.join(run_dir, "out")
    replay_dir = os.path.join(run_dir, "replay")
    os.makedirs(out_dir)
    os.makedirs(replay_dir)
    paths = workloads.paths(workload, inputs, out_dir)
    raw_times = {p.metric: [] for p in paths}
    replay_times = {p.metric: [] for p in paths}
    layer_rounds, first_digest = [], {}
    for _ in range(rounds):
        round_mark = len(tracer.spans) if tracer else 0
        for p in paths:
            codes = []

            def call(p=p, codes=codes):
                for _ in range(p.calls):
                    try:
                        codes.append(p.run())
                    except Exception:  # a crash is a failed operation; keep measuring the rest
                        problems.append(f"{p.metric}: {traceback.format_exc(limit=3)}")
                        codes.append(-1)

            raw = clock.measure(call)
            attempted += p.calls
            bad = sorted({code for code in codes if code != 0})
            failed += sum(code != 0 for code in codes)
            if bad:
                problems.append(f"{p.metric}: calls exited {bad}; the output checks are not run")
            raw_times[p.metric].append(raw / p.calls)
            if all(code == 0 for code in codes):
                d = digest(p.outputs)
                if first_digest.setdefault(p.metric, d) != d:
                    problems.append(f"{p.metric}: repeated samples wrote different outputs")
            if tracer:
                t0 = time.perf_counter()
                with tracer.span("replay." + p.metric):
                    replay.REPLAYS[p.metric](inputs.cv, tracer, workload, inputs, replay_dir)
                replay_times[p.metric].append(time.perf_counter() - t0)
        if tracer:
            layer_rounds.append(tracer.totals(round_mark))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness ---------------------------------------------------------
    if failed == 0:
        by_metric = {p.metric: p for p in paths}
        o = lambda *parts: os.path.join(out_dir, *parts)  # noqa: E731
        problems += verify.check_ingest(inputs, o("ingest.json"), run_dir)
        problems += verify.check_eval(inputs, workload, o("report.json"))
        problems += verify.check_gold(inputs, workload, o("gold"))
        problems += verify.check_induced(inputs, workload, o("induced"))
        problems += verify.check_agglomerative(inputs, by_metric["agglomerative_s"].run)
        problems += verify.check_sweep(o("sweep.tsv"))
        if tracer:
            for p in paths:
                for path in p.outputs:
                    twin = os.path.join(replay_dir, os.path.relpath(path, out_dir))
                    with open(path, "rb") as a, open(twin, "rb") as b:
                        if a.read() != b.read():
                            problems.append(f"traced replay of {p.metric} wrote a different {os.path.relpath(path, out_dir)}")

    payload = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_raw": setup_raw,
        "raw": raw_times,
        "reference": clock.reference_times,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        values = {
            name: median([r.get(name, 0.0) for r in layer_rounds])
            for name in {n for r in layer_rounds for n in r}
        }
        for name in ("synth.planted_flow", "synth.write_inputs"):
            values[name] = median([s[name] for s in setup_spans])
        values = {f"{name}_s": v for name, v in values.items()}
        values.update(tracer.counts)
        values["bench.reference_s"] = median(clock.reference_times)
        values["bench.trace_overhead_s"] = sum(
            median(replay_times[m]) - median(raw_times[m]) for m in replay_times
        )
        values["raw.setup_s"] = median(setup_raw)
        values.update({f"raw.{m}": median(v) for m, v in raw_times.items()})
        payload["layers"] = values
        with open(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return payload


def result(payload: dict, spec: dict, trace: bool) -> dict:
    """The result line: with --trace 0 the end-to-end metrics, medians of
    the raw times scaled by the run's drift factor; with --trace 1 the
    per-layer ones."""
    from timing import REFERENCE_NOMINAL_S

    if trace:
        values, wanted = payload["layers"], spec["per_layer"]
    else:
        scale = REFERENCE_NOMINAL_S / median(payload["reference"])
        values = {m: median(v) * scale for m, v in payload["raw"].items()}
        values["setup_s"] = median(payload["setup_raw"]) * scale
        values["peak_rss_mb"] = payload["peak_rss_mb"]
        wanted = spec["end_to_end"]
    for message in payload["problems"]:
        print(f"problem: {message}", file=sys.stderr)
    return {
        "correct": not payload["problems"],
        "attempted": payload["attempted"],
        "failed": payload["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not os.path.isfile(os.path.join(SRC, "convflow", "__init__.py")):
        print(f"bench: no convflow sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir)
    try:
        payload = measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result(payload, spec, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
