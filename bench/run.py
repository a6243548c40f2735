"""endkit benchmark: one workload per run, seeded inputs, checked answers.

    python3 bench/run.py --workload classify-corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --write-spec     # regenerate BENCHMARK.json from the tables below

The library is imported from ``src/`` next to this directory; the CLI runs as
``python -m endkit.cli`` children, one at a time.  All load comes from this
one process, a closed loop with one client.

``--trace 0`` measures the end-to-end metrics with tracing off, with times
scaled to nominal host speed (see ``speed.py``; raw times are printed as
``raw.*`` rows).  ``--trace 1`` runs a fixed slice of the workload's
operations, each untraced and traced, and reports the per-layer metrics from
spans the benchmark records around its own calls into each module, plus the
tracing overhead, the ROADMAP baseline rows and the recursion-depth probe.
Every metric is printed as a row ``<name> <value> <unit>``; the last line of
stdout is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RUN_SECONDS = 20
# Set-up (input generation and warm-up) is repeated at least 3 and at most 9
# times, while the repeats take under 2 s in all; setup_s uses their median.
SETUP_REPS = (3, 9)
SETUP_BUDGET_S = 2.0

WORKLOADS = {
    "classify-corpus": "many small seeded pairs: per-call cost of the pair verdict, "
                       "and where Unknown lives",
    "deep-invariants": "chain, comb, cantor-marked and seq-tower families of 50-400 states: "
                       "asymptotics of invariants and classify",
    "windows-rewrite": "decompose windows, essential pants, interchange, spines, rewrite "
                       "pipeline, degree inference: no ends kernel",
    "cli-batch": "README subcommands as child processes: start-up and import cost that users "
                 "see per command",
}

# (name, unit, better, bound as a share of the parent's median)
END_TO_END = (
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("decided_share", "ratio", "higher", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)
UNITS = tuple((name, unit) for name, unit, _, _ in END_TO_END)

# Spans the benchmark opens around its calls; each gives <span>_ms, the mean
# self time per call.
SPANS = (
    "presentation.parse", "presentation.genus", "presentation.finite_type",
    "ends.automaton", "ends.count", "ends.cb", "ends.cb_nonplanar", "ends.to_expr",
    "ends.normalize", "ends.pair",
    "classify.kerekjarto", "classify.realize",
    "decompose.window", "decompose.interchange", "decompose.essential_pants",
    "decompose.spine", "decompose.graph_phe",
    "rewrite.pipeline", "rewrite.homotopy",
    "degree.infer",
    "cli.main", "cli.process",
)
# Per-call sizes, reported as means.
SAMPLES = (
    ("presentation.states", "states"), ("ends.derivative_steps", "steps"),
    ("ends.expr_nodes", "nodes"), ("decompose.pieces", "pieces"),
    ("rewrite.trace_steps", "steps"),
)
# Event counts over the traced slice, which is fixed per seed.
COUNTS = (
    "ends.not_convertible",
    "classify.verdict.Homeomorphic", "classify.verdict.NotHomeomorphic",
    "classify.verdict.Unknown",
    "classify.witness.genus", "classify.witness.ends-pair",
    "classify.witness.identical-presentation", "classify.witness.end-expression-normal-form",
    "rewrite.inconsistent", "degree.contradictions",
    "robustness.recursion_errors", "robustness.cli_contract_breaks",
)
BASELINE = tuple(
    f"baseline.kerekjarto_{family}{n}_ms" for n in (100, 200, 400) for family in ("chain", "comb")
) + ("baseline.cb_report_comb400_ms", "baseline.cli_classify_flutes_ms")


def per_layer_spec() -> list[tuple[str, str, str]]:
    rows = [(f"{s}_ms", "ms", "lower") for s in SPANS]
    rows += [
        ("presentation.tokens_per_s", "tokens/s", "higher"),
        ("classify.glue_ms", "ms", "lower"),
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("trace.overhead_ops_per_s", "ops/s", "lower"),
    ]
    rows += [(name, unit, "lower") for name, unit in SAMPLES]
    decided = ("classify.verdict.Homeomorphic", "classify.verdict.NotHomeomorphic")
    rows += [(name, "count", "higher" if name in decided else "lower") for name in COUNTS]
    rows += [(name, "ms", "lower") for name in BASELINE]
    return rows


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_spec()],
    }


# -- running operations ----------------------------------------------------

def run_ops(ops, tr, seconds: float | None = None, count: int | None = None,
            min_ops: int = 1, first: int = 0, speed=None):
    """Closed loop over ``ops`` in order, cycling from operation number
    ``first``, for ``seconds`` or exactly ``count`` operations.  Returns
    (key, seconds, ok, decided, speed sample before it) per operation."""
    records = []
    start = time.perf_counter()
    i = first

    def more() -> bool:
        if count is not None:
            return i - first < count
        return i - first < min_ops or time.perf_counter() - start < seconds

    while more():
        op = ops[i % len(ops)]
        args = op.args(i // len(ops))
        tr.op = i
        before = speed.due() if speed is not None else None
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                result = op.run(tr, *args)
        except Exception:
            records.append((op.key, time.perf_counter() - t0, False, None, before))
            print(f"operation {i} ({op.key}) raised:\n{traceback.format_exc(limit=-4)}",
                  file=sys.stderr)
            i += 1
            continue
        elapsed = time.perf_counter() - t0
        ok, decided = op.check(result)
        if tr.enabled and op.after is not None and op.after(tr, result) is False:
            ok = False
        if not ok:
            print(f"operation {i} ({op.key}) gave a wrong answer", file=sys.stderr)
        records.append((op.key, elapsed, ok, decided, before))
        i += 1
    if speed is not None:
        speed.sample()
    return records


def warm_up(ops, tr) -> None:
    """One untimed operation of each kind (the key's part before ':')."""
    seen = set()
    for op in ops:
        kind = op.key.split(":")[0]
        if kind not in seen:
            seen.add(kind)
            op.run(tr, *op.args(0))


def settle() -> None:
    """Collect garbage and move the inputs out of the collector's view, so
    the timed loop does not keep re-scanning set-up objects."""
    gc.collect()
    gc.freeze()


def fit_slope(xs, ys) -> float:
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def summarize(workload: str, records) -> tuple[dict, dict]:
    """End-to-end metrics and extra rows from the timed records."""
    rows: dict[str, tuple[float, str]] = {}
    timed = records
    if workload == "deep-invariants":
        # Whole rounds only, so that every (family, size) cell weighs the same.
        round_size = len({key for key, *_ in records})
        timed = records[:len(records) - len(records) % round_size]
    times = sorted(elapsed for _, elapsed, *_ in timed)
    by_key: dict[str, list[float]] = {}
    for key, elapsed, *_ in timed:
        by_key.setdefault(key, []).append(elapsed)
    if workload == "deep-invariants":
        # Each cell counts once in the throughput, at its median time.
        cells = {key: statistics.median(ts) for key, ts in by_key.items()}
        ops_per_s = len(cells) / sum(cells.values())
        exponents = {}
        for family in dict.fromkeys(key.split(":")[0] for key in cells):
            pts = [(int(key.split(":")[1]), t)
                   for key, t in cells.items() if key.startswith(family + ":")]
            exponents[family] = fit_slope([n for n, _ in pts], [t for _, t in pts])
            rows[f"scaling_exponent.{family}"] = (exponents[family], "1")
            for n, t in pts:
                rows[f"op_ms.{family}.{n}"] = (t * 1000, "ms")
        rows["scaling_exponent"] = (max(exponents.values()), "1")
    else:
        ops_per_s = len(times) / sum(times)
        for key, ts in by_key.items():
            rows[f"op_p50_ms.{key}"] = (statistics.median(ts) * 1000, "ms")
    quantiles = statistics.quantiles(times, n=10, method="inclusive")
    verdicts = [d for _, _, _, d, _ in records if d is not None]
    failed = sum(1 for _, _, ok, *_ in records if not ok)
    metrics = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": statistics.median(times) * 1000,
        "op_p90_ms": quantiles[8] * 1000,
        "decided_share": sum(verdicts) / len(verdicts) if verdicts else 1.0,
    }
    rows["op_samples"] = (len(times), "count")
    rows["failed_share"] = (failed / len(records), "ratio")
    rows["verdict_calls"] = (len(verdicts), "count")
    return metrics, rows


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


# -- the two kinds of run --------------------------------------------------

def untraced_run(workload: str, seed: int, seconds: float, work: Path, import_s: float):
    from speed import Speed
    from tracing import NullTracer
    from workloads import WORKLOADS as BUILDERS

    tr = NullTracer()
    speed = Speed()
    import_scaled = speed.scale(import_s, speed.sample())
    setups: list[float] = []
    scaled: list[float] = []
    least, most = SETUP_REPS
    while len(setups) < least or (len(setups) < most and sum(setups) < SETUP_BUDGET_S):
        before = speed.sample()
        start = time.perf_counter()
        ops = BUILDERS[workload](random.Random(seed), tr, work)
        warm_up(ops, tr)
        setups.append(time.perf_counter() - start)
        speed.sample()
        scaled.append(speed.scale(setups[-1], before))
    min_ops = len(ops) if workload == "deep-invariants" else 1
    settle()
    records = run_ops(ops, tr, seconds=seconds, min_ops=min_ops, speed=speed)
    metrics, rows = summarize(
        workload, [(k, speed.scale(e, b), ok, d, b) for k, e, ok, d, b in records])
    raw, _ = summarize(workload, records)
    metrics["setup_s"] = import_scaled + statistics.median(scaled)
    metrics["peak_rss_mb"] = peak_rss_mb(children=workload == "cli-batch")
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        rows[f"raw.{name}"] = (raw[name], dict(UNITS)[name])
    rows["raw.setup_s"] = (import_s + statistics.median(setups), "s")
    rows["setup_s.import"] = (import_scaled, "s")
    rows["setup_s.repeats"] = (len(setups), "count")
    rows["speed.kernel_ms"] = (speed.median_ms(), "ms")
    rows["speed.samples"] = (len(speed.samples), "count")
    return records, {name: (metrics[name], unit) for name, unit in UNITS}, rows


TRACED_SLICE = {"cli-batch": 24}


def traced_run(workload: str, seed: int, work: Path):
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS as BUILDERS
    import probes

    tr = Tracer()
    ops = BUILDERS[workload](random.Random(seed), tr, work)  # setup spans: op id None
    warm_up(ops, NullTracer())
    count = TRACED_SLICE.get(workload, len(ops))
    settle()
    # Each operation runs untraced and traced back to back, in alternating
    # order, so both sides see the same machine and the same inputs.
    plain, traced = [], []
    for i in range(count):
        sides = [(NullTracer(), plain), (tr, traced)]
        for tracer, out in sides[::-1] if i % 2 else sides:
            out += run_ops(ops, tracer, count=1, first=i)
    untraced_rate = count / sum(r[1] for r in plain)
    op_spans = [end - start for name, start, end, _, _ in tr.spans if name == "op"]
    traced_rate = len(op_spans) / sum(op_spans)

    metrics: dict[str, tuple[float, str]] = {}
    self_times = tr.self_times()
    for name in SPANS:
        ts = self_times.get(name, [])
        metrics[f"{name}_ms"] = (statistics.fmean(ts) * 1000 if ts else 0.0, "ms")
    parse_s = sum(self_times.get("presentation.parse", []))
    tokens = tr.counts["presentation.tokens"]
    metrics["presentation.tokens_per_s"] = (tokens / parse_s if parse_s else 0.0, "tokens/s")
    replayed = tr.children_total("classify.replay")
    glue = [end - start - replayed.get(op, 0.0)
            for name, start, end, _, op in tr.spans
            if name == "classify.kerekjarto" and op in replayed]
    metrics["classify.glue_ms"] = (statistics.fmean(glue) * 1000 if glue else 0.0, "ms")
    interpreter, imports = probes.startup_ms(work)
    metrics["cli.interpreter_ms"] = (interpreter, "ms")
    metrics["cli.import_ms"] = (imports, "ms")
    metrics["trace.overhead_ops_per_s"] = (untraced_rate - traced_rate, "ops/s")
    for name, unit in SAMPLES:
        values = tr.samples.get(name, [])
        metrics[name] = (statistics.fmean(values) if values else 0.0, unit)
    robust = probes.robustness(work)
    counts = {**tr.counts, **robust}
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    for name, value in probes.baseline_rows(work).items():
        metrics[name] = (value, "ms")

    rows = {name: (value, "count") for name, value in robust.items() if name not in metrics}
    rows |= {"trace.untraced_ops_per_s": (untraced_rate, "ops/s"),
            "trace.traced_ops_per_s": (traced_rate, "ops/s"),
            "trace.spans": (len(tr.spans), "count"),
            "baseline.interpreter_start_ms": (interpreter, "ms")}
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"{workload}-seed{seed}.spans.jsonl")
    return plain + traced, metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    src = ROOT / "src"
    if not (src / "endkit" / "__init__.py").is_file():
        print(f"no endkit sources under {src}", file=sys.stderr)
        return 2
    # Byte-compile the library once per checkout, as an installed package
    # is, so CLI children load bytecode whatever PYTHONDONTWRITEBYTECODE says.
    compileall.compile_dir(src, quiet=1)
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import endkit  # noqa: F401  (timed as part of set-up)
    import_s = time.perf_counter() - start

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.trace:
            records, metrics, rows = traced_run(args.workload, args.seed, work)
        else:
            records, metrics, rows = untraced_run(
                args.workload, args.seed, args.seconds, work, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import probes

    env = probes.environment()
    failed = sum(1 for _, _, ok, *_ in records if not ok)
    for name, (value, unit) in {**metrics, **rows}.items():
        print(f"{name} {value:.6g} {unit}")
    for key, value in env.items():
        print(f"env.{key} {value}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "rows": {k: {"value": v, "unit": u} for k, (v, u) in rows.items()}}
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
