"""Untimed probes of the traced run: start-up costs, the ROADMAP baseline rows,
the recursion-depth reproducers, and the machine the run is on.

None of these feed an end-to-end metric or the failure count.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

from endkit import (
    cb_report,
    decompose,
    ends_automaton,
    kerekjarto,
    pretty_print,
    standard_presentation,
)

import inputs
from tracing import NullTracer
from workloads import _deep_op, child_env, run_child

_CLI = [sys.executable, "-m", "endkit.cli"]


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000


def startup_ms(work: Path, reps: int = 7) -> tuple[float, float]:
    """(bare interpreter start, ``import endkit`` on top of it), medians in ms."""
    env = child_env()
    def start(code: str) -> float:
        return _median_ms(lambda: run_child([sys.executable, "-c", code], env, work), reps)

    bare = start("pass")
    imported = start("import endkit")
    return bare, imported - bare


def baseline_rows(work: Path) -> dict[str, float]:
    """The ROADMAP baseline table: ``kerekjarto(p, p)`` on chain and comb at
    100, 200 and 400 states (comb rows have n + 1 states: n/2 pants and
    n/2 + 1 teeth), ``cb_report`` on comb400, and CLI ``classify`` of two
    flutes as a child process.  Medians in ms."""
    rows = {}
    for n in (100, 200, 400):
        for family, pres in (("chain", inputs.chain(n)), ("comb", inputs.comb(n + 1))):
            rows[f"baseline.kerekjarto_{family}{n}_ms"] = _median_ms(
                lambda: kerekjarto(pres, pres), 3)
    auto = ends_automaton(inputs.comb(401))
    rows["baseline.cb_report_comb400_ms"] = _median_ms(lambda: cb_report(auto), 3)
    flute = work / "baseline-flute.surf"
    flute.write_text(inputs.FLUTE + "\n")
    env = child_env()
    rows["baseline.cli_classify_flutes_ms"] = _median_ms(
        lambda: run_child([*_CLI, "classify", str(flute), str(flute)], env, work), 5)
    return rows


def _contract_ok(code: int, out: str) -> bool:
    """Exactly one JSON document on stdout and an exit code in {0, 1, 2}."""
    if code not in (0, 1, 2) or out.count("\n") != 1:
        return False
    try:
        json.loads(out)
    except ValueError:
        return False
    return True


def robustness(work: Path) -> dict[str, int]:
    """The recursion-depth reproducers, run once each and never timed: the
    invariants bundle on a 512-state chain and a 513-state comb, a
    ``decompose`` window of S_{0,0,600}, the CLI
    ``realize`` of a 1,200-level Seq tower and the CLI ``invariants`` of a
    1,200-pants comb.  Per reproducer: 1 if it hit a RecursionError, and for
    the CLI ones 1 if stdout was not exactly one JSON document or the exit
    code was outside {0, 1, 2}."""
    out = {}
    tracer = NullTracer()
    for family, pres in (("chain512", inputs.chain(512)), ("comb513", inputs.comb(513))):
        op = _deep_op(family.rstrip("0123456789"), len(pres.rules), pres, pres, 0)
        try:
            op.run(tracer, *op.args(0))
            out[f"robustness.{family}.recursion_error"] = 0
        except RecursionError:
            out[f"robustness.{family}.recursion_error"] = 1
    try:
        decompose(standard_presentation(0, 600), "strict", 1024)
        out["robustness.decompose_s0_600.recursion_error"] = 0
    except RecursionError:
        out["robustness.decompose_s0_600.recursion_error"] = 1
    comb = work / "robust-comb1200.surf"
    comb.write_text(pretty_print(inputs.comb(2401)) + "\n")
    env = child_env()
    for name, argv in (("cli_realize1200", ["realize", "0", inputs.format_seq(1200)]),
                       ("cli_invariants_comb1200", ["invariants", str(comb)])):
        code, stdout, stderr = run_child([*_CLI, *argv], env, work)
        out[f"robustness.{name}.recursion_error"] = int("RecursionError" in stderr)
        out[f"robustness.{name}.contract_break"] = int(not _contract_ok(code, stdout))
    def total(suffix: str) -> int:
        return sum(v for k, v in out.items() if k.endswith(suffix))

    out["robustness.recursion_errors"] = total(".recursion_error")
    out["robustness.cli_contract_breaks"] = total(".contract_break")
    return out


def environment() -> dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}
