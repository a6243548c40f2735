"""The four workloads: seeded operations with their answer checks.

Each builder takes a seeded ``random.Random`` and a tracer and returns the
workload's operations.  An operation's ``run`` is the timed part, made only of
calls into endkit's public API (or one CLI child process); its ``check``
compares the result with the answer known from the construction and says
whether a verdict was decided; ``after`` runs only in the traced run, outside
the operation's timing, and replays or probes the layers it used.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from endkit import (
    HOMEO,
    INFINITE,
    PLUS_MINUS_ONE,
    UNKNOWN,
    ZERO,
    BoundaryCountMismatchError,
    ClassVerdict,
    DegreeContradictionError,
    InconsistentConfigurationError,
    NotConvertibleError,
    Other,
    Seq,
    Union,
    Verdict,
    alexander_homotopy,
    annulus_push,
    cb_report,
    cb_report_to_json,
    decompose,
    ends_automaton,
    ends_count,
    ends_count_to_json,
    find_essential_pants,
    genus,
    graph_phe_equal,
    infer_degree,
    interchange_normalize,
    is_finite_type,
    kerekjarto,
    normalize_end_expr,
    pair_homeomorphic,
    parse_presentation,
    pretty_print,
    run_pipeline,
    spine,
    splice_annulus,
    standard_presentation,
    to_end_expr,
)
from endkit.cli import main as cli_main

import inputs
from inputs import NO, YES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\d+|[{}();,=]|\S")  # the grammar's tokens


@dataclass
class Op:
    key: str
    run: Callable
    check: Callable[[object], tuple[bool, bool | None]]
    args: Callable[[int], tuple] = lambda lap: ()
    after: Callable | None = None


# -- shared pieces ---------------------------------------------------------

def _genus_json(g):
    return "infinite" if g == INFINITE else int(g)


def _cb_fields(report) -> dict:
    out = cb_report_to_json(report)
    return {k: out[k] for k in ("rank", "degree", "perfect_kernel", "cardinality")}


def _verdict_ok(label: str, verdict: ClassVerdict) -> bool:
    """Unknown is undecided, never wrong; a decided verdict must match the label."""
    if label == YES:
        return verdict is not ClassVerdict.NOT_HOMEOMORPHIC
    if label == NO:
        return verdict is not ClassVerdict.HOMEOMORPHIC
    return True


def _expr_nodes(e) -> int:
    count, todo = 0, [e]
    while todo:
        x = todo.pop()
        count += 1
        if isinstance(x, Union):
            todo.extend(x.parts)
        elif isinstance(x, Seq):
            todo.append(x.element)
    return count


def replay_kerekjarto(tr, p1, p2, verdict) -> None:
    """Time, one by one, the public calls ``kerekjarto(p1, p2)`` makes.

    The branch kerekjarto took is read off its verdict and the replayed
    invariants, so calls it skipped are not replayed.  The time kerekjarto
    spends outside these calls is its glue.  Extra probes of the ends layer
    follow outside the replay span.
    """
    tr.count(f"classify.verdict.{verdict.verdict.value}")
    tr.count(f"classify.witness.{verdict.witness}")
    autos, exprs = [], []
    with tr.span("classify.replay"):
        for p in (p1, p2):
            with tr.span("presentation.genus"):
                genus(p)
        if verdict.witness == "genus":
            return
        for p in (p1, p2):
            with tr.span("ends.automaton"):
                autos.append(ends_automaton(p))
        keys = []
        for auto in autos:
            with tr.span("ends.cb"):
                full = cb_report(auto)
            with tr.span("ends.cb_nonplanar"):
                sub = cb_report(auto, marked="nonplanar_only")
            tr.sample("ends.derivative_steps", full.rank + 1)
            tr.sample("ends.derivative_steps", sub.rank + 1)
            keys.append(full.invariant_key() + sub.invariant_key())
        if keys[0] == keys[1] and verdict.witness != "identical-presentation":
            for auto in autos:
                try:
                    with tr.span("ends.to_expr"):
                        exprs.append(to_end_expr(auto))
                except NotConvertibleError:
                    tr.count("ends.not_convertible")
                    break
    for p in (p1, p2):
        with tr.span("presentation.finite_type"):
            is_finite_type(p)
        tr.sample("presentation.states", len(p.rules))
    for auto in autos:
        with tr.span("ends.count"):
            ends_count(auto)
    for e in exprs:
        with tr.span("ends.normalize"):
            normalize_end_expr(e)
        tr.sample("ends.expr_nodes", _expr_nodes(e))
    if autos:
        with tr.span("ends.pair"):
            pair_homeomorphic(*autos)


# -- classify-corpus -------------------------------------------------------

CORPUS_PAIRS = 1024


def _relabel(text: str, lap: int) -> str:
    """The same presentation under lap-specific state names, so that no
    text repeats within a run."""
    return text if lap == 0 else re.sub(r"\bq(\d+)", rf"q{lap}_\1", text)


def classify_corpus(rng: random.Random, tr, work: Path) -> list[Op]:
    ops = []
    kinds, sizes = inputs.PAIR_KINDS, inputs.SIZES
    for i in range(CORPUS_PAIRS):
        kind, size = kinds[i % len(kinds)], sizes[(i // len(kinds)) % len(sizes)]
        ops.append(_classify_op(kind, *inputs.classify_pair(rng, kind, size, tr)))
    return ops


def _classify_op(kind: str, text_a: str, text_b: str, label: str) -> Op:
    def args(lap):
        return _relabel(text_a, lap), _relabel(text_b, lap)

    def run(tr, a, b):
        with tr.span("presentation.parse"):
            p1 = parse_presentation(a)
        with tr.span("presentation.parse"):
            p2 = parse_presentation(b)
        with tr.span("classify.kerekjarto"):
            v = kerekjarto(p1, p2)
        return p1, p2, v, a, b

    def check(result):
        v = result[2]
        return _verdict_ok(label, v.verdict), v.verdict is not ClassVerdict.UNKNOWN

    def after(tr, result):
        p1, p2, v, a, b = result
        tr.count("presentation.tokens", len(_TOKEN.findall(a)) + len(_TOKEN.findall(b)))
        replay_kerekjarto(tr, p1, p2, v)

    return Op(kind, run, check, args, after)


# -- deep-invariants -------------------------------------------------------

def deep_invariants(rng: random.Random, tr, work: Path) -> list[Op]:
    ops = []
    for family, (build, sizes) in inputs.FAMILIES.items():
        for size in sizes:
            if family == "seq-tower":
                with tr.span("classify.realize"):
                    pres = build(size)
            else:
                pres = build(size)
            state = rng.choice(list(pres.rules))
            spliced = splice_annulus(pres, state, rng.randrange(len(pres.rules[state][1])))
            ops.append(_deep_op(family, size, pres, spliced, rng.randrange(2 ** 32)))
    return ops


def _deep_op(family: str, size: int, pres, spliced, salt: int) -> Op:
    """Each lap sees the member and its spliced copy under fresh names, so a
    run averages over the orders in which hashed state sets are visited."""
    expected = inputs.expected_invariants(family, size)
    cutoff = len(pres.rules) + 2  # above the CB rank, which is at most the state count

    def args(lap):
        names = random.Random(salt + lap)
        return inputs.rename(pres, names), inputs.rename(spliced, names)

    def run(tr, p, copy):
        with tr.span("presentation.genus"):
            g = genus(p)
        with tr.span("presentation.finite_type"):
            ft = is_finite_type(p)
        with tr.span("ends.automaton"):
            auto = ends_automaton(p)
        with tr.span("ends.count"):
            ends = ends_count(auto)
        with tr.span("ends.count"):
            ends_np = ends_count(auto, marked="nonplanar_only")
        with tr.span("ends.cb"):
            cb = cb_report(auto, rank_cutoff=cutoff)
        with tr.span("ends.cb_nonplanar"):
            cb_np = cb_report(auto, marked="nonplanar_only", rank_cutoff=cutoff)
        with tr.span("ends.to_expr"):
            expr = to_end_expr(auto)
        with tr.span("classify.kerekjarto"):
            v = kerekjarto(p, copy)
        got = {
            "genus": _genus_json(g),
            "finite_type": ft,
            "ends": ends_count_to_json(ends),
            "ends_nonplanar": ends_count_to_json(ends_np),
            "cb": _cb_fields(cb),
            "cb_nonplanar": _cb_fields(cb_np),
            "expr": expr,
        }
        return got, v, (cb.rank, cb_np.rank), p, copy

    def check(result):
        got, v = result[:2]
        decided = v.verdict is not ClassVerdict.UNKNOWN
        return got == expected and _verdict_ok(YES, v.verdict), decided

    def after(tr, result):
        got, v, ranks, p, copy = result
        tr.sample("presentation.states", len(p.rules))
        for rank in ranks:
            tr.sample("ends.derivative_steps", rank + 1)
        tr.sample("ends.expr_nodes", _expr_nodes(got["expr"]))
        with tr.span("ends.normalize"):
            normalize_end_expr(got["expr"])
        replay_kerekjarto(tr, p, copy, v)

    return Op(f"{family}:{len(pres.rules)}", run, check, args, after)


# -- windows-rewrite -------------------------------------------------------

WINDOW_CASES = 512
DEPTHS = (64, 128, 256, 512, 1024)


def windows_rewrite(rng: random.Random, tr, work: Path) -> list[Op]:
    """One operation is one case of every kind in turn, so each operation
    costs about the same and the percentiles do not fall between kinds."""
    ops = []
    for i in range(WINDOW_CASES):
        ops.append(_composite([
            _decompose_op(*inputs.window_case(rng, i % 4, DEPTHS[i % len(DEPTHS)])),
            _essential_op(inputs.essential_pants_case(rng, i % 5)),
            _interchange_op(rng, i),
            _graph_phe_op(rng),
            _pipeline_op(inputs.curve_config(rng)),
            _degree_op(*inputs.degree_case(rng, i)),
            _homotopy_op(inputs.homotopy_points(rng, 32), rng),
        ]))
    return ops


def _composite(parts: list[Op]) -> Op:
    def run(tr):
        return [part.run(tr) for part in parts]

    def check(results):
        ok, decided = True, None
        for part, result in zip(parts, results):
            part_ok, part_decided = part.check(result)
            ok = ok and part_ok
            decided = part_decided if part_decided is not None else decided
        return ok, decided

    def after(tr, results):
        for part, result in zip(parts, results):
            if part.after is not None:
                part.after(tr, result)

    return Op("window-rewrite", run, check, after=after)


def _decompose_op(text: str, depth: int, expected: dict) -> Op:
    pres = parse_presentation(text)

    def run(tr):
        with tr.span("decompose.window"):
            return decompose(pres, "strict", depth)

    def after(tr, window):
        tr.sample("decompose.pieces", len(window.pieces))

    return Op("decompose", run, lambda w: (w.census() == expected, None), after=after)


def _essential_op(text: str) -> Op:
    pres = parse_presentation(text)

    def run(tr):
        with tr.span("decompose.essential_pants"):
            return find_essential_pants(pres)

    def check(found):
        kind = found.window.pieces[found.pants_id].kind.value
        comps = found.components
        rich = len(comps) >= 2 and all(c.rank_lower_bound >= 2 for c in comps)
        return kind == "Pants" and rich, None

    return Op("essential_pants", run, check)


def _interchange_op(rng: random.Random, i: int) -> Op:
    """Even cases: a grown random core, checked by spine-rank invariance.
    Odd cases: a grown S_{g,0,p}, whose spine rank is 2g + p - 1."""
    if i % 2:
        g, p = rng.randint(0, 4), rng.randint(1, 6)
        pres = inputs.grow(standard_presentation(g, p), rng.randint(10, 40), rng)
        pres = inputs.rename(pres, rng)
        expected = 2 * g + p - 1
    else:
        pres = inputs.rename(inputs.grow(inputs.random_core(rng), rng.randint(10, 40), rng), rng)
        expected = None
    paths = [path for path, _ in pres.unfold(max_nodes=30)]
    front = rng.sample(paths, k=rng.randint(1, min(3, len(paths))))

    def run(tr):
        with tr.span("decompose.interchange"):
            moved = interchange_normalize(pres, front)
        with tr.span("decompose.spine"):
            before = spine(pres)
        with tr.span("decompose.spine"):
            after = spine(moved)
        return before.rank, after.rank

    def check(ranks):
        ok = ranks[0] == ranks[1] and (expected is None or ranks[0] == expected)
        return ok, None

    return Op("interchange_spine", run, check)


def _graph_phe_op(rng: random.Random) -> Op:
    """A grown random core against a spliced, renamed copy: the spines are
    properly homotopy equivalent, so No is wrong."""
    base = inputs.grow(inputs.random_core(rng), rng.randint(10, 40), rng)
    state = rng.choice(list(base.rules))
    moved = splice_annulus(base, state, rng.randrange(len(base.rules[state][1])))
    a, b = inputs.rename(base, rng), inputs.rename(moved, rng)

    def run(tr):
        with tr.span("decompose.spine"):
            sa = spine(a)
        with tr.span("decompose.spine"):
            sb = spine(b)
        with tr.span("decompose.graph_phe"):
            return graph_phe_equal(sa, sb)

    return Op("graph_phe", run, lambda v: (v is not Verdict.NO, v is not Verdict.UNKNOWN))


def _pipeline_op(config) -> Op:
    """The cleanup's post-conditions, as in the rewrite acceptance test."""

    def run(tr):
        with tr.span("rewrite.pipeline"):
            try:
                return run_pipeline(config)
            except InconsistentConfigurationError:
                return None

    def check(result):
        degree = config.global_degree
        if result is None:
            return isinstance(degree, (Other, type(PLUS_MINUS_ONE))), None
        final = result[0]
        counts = final.primitive_counts().values()
        settled = all(c.label == HOMEO for c in final.components)
        ok = True
        if config.pi1_bijective or settled:
            ok = all(n in (0, 1) for n in counts)
        if degree not in (UNKNOWN, ZERO):
            ok = ok and all(n == 1 for n in counts)
        return ok, None

    def after(tr, result):
        if result is None:
            tr.count("rewrite.inconsistent")
        else:
            tr.sample("rewrite.trace_steps", len(result[1].steps))

    return Op("pipeline", run, check, after=after)


def _degree_op(descriptor, expected) -> Op:
    def run(tr):
        with tr.span("degree.infer"):
            try:
                return infer_degree(descriptor).abs_degree
            except (DegreeContradictionError, BoundaryCountMismatchError) as exc:
                return type(exc).__name__

    def after(tr, result):
        if isinstance(result, str):
            tr.count("degree.contradictions")

    return Op("degree", run, lambda got: (got == expected, None), after=after)


def _homotopy_op(points, rng: random.Random) -> Op:
    pushes = [Fraction(rng.randint(4, 12), 4) for _ in range(4)]

    def square(z):
        return z * z

    def run(tr):
        with tr.span("rewrite.homotopy"):
            coned = [alexander_homotopy(square, z, t) for z, t in points]
            levels = [annulus_push(lambda z, s: z, lambda z, s: Fraction(3, 2), 1.0, s, 1)[1]
                      for s in pushes]
        return coned, levels

    def check(result):
        coned, levels = result
        ok = all(
            abs(got - inputs.expected_square_homotopy(z, t)) <= 1e-12 * max(1.0, abs(got))
            for got, (z, t) in zip(coned, points)
        )
        return ok and levels == [1 + (s - 1) / 2 for s in pushes], None

    return Op("homotopy", run, check)


# -- cli-batch -------------------------------------------------------------

def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


_INVARIANTS_FLUTE = {
    "genus": 0,
    "finite_type": False,
    "ends": {"class": "countably-infinite"},
    "ends_nonplanar": {"class": "finite", "count": 0},
    "cb": {"rank": 2, "degree": 1, "perfect_kernel": False,
           "cardinality": {"class": "countably-infinite"}, "profile": [None, 1],
           "rank_exceeded": False},
    "cb_nonplanar": {"rank": 0, "degree": 0, "perfect_kernel": False,
                     "cardinality": {"class": "finite", "count": 0}, "profile": [],
                     "rank_exceeded": False},
}

# r1 drops the trivial component, r2 coerces Degree(-2) to Homeo with a
# note, r3 keeps the first of the stacking order [2, 1], r4 certifies.
_REWRITE_IN = {
    "target_circles": ["c0"],
    "components": [
        {"id": 0, "target": "c0", "kind": "Trivial"},
        {"id": 1, "target": "c0", "kind": "Primitive", "label": {"degree": -2}},
        {"id": 2, "target": "c0", "kind": "Primitive", "label": "Homeo"},
    ],
    "nesting": {"0": None},
    "parallel_orders": {"c0": [2, 1]},
    "pi1_bijective": True,
    "global_degree": "plus-minus-one",
}
_REWRITE_OUT = {
    "final": {
        "target_circles": ["c0"],
        "components": [{"id": 2, "target": "c0", "kind": "Primitive", "label": "Homeo"}],
        "nesting": {},
        "parallel_orders": {"c0": [2]},
        "pi1_bijective": True,
        "global_degree": "plus-minus-one",
    },
    "trace": [
        {"rule": "r1_disk_removal", "before": {"trivial": 1, "excess_parallel": 1},
         "after": {"trivial": 0, "excess_parallel": 1}},
        {"rule": "r3_annulus_removal", "before": {"trivial": 0, "excess_parallel": 1},
         "after": {"trivial": 0, "excess_parallel": 0}},
    ],
    "notes": ["r2_homeo_normalize: component 1 coerced from Degree(-2) to Homeo"],
}
_DEGREE_IN = {"proper": True, "boundary_embedding": [3, 3]}
_DEGREE_OUT = {
    "proper": True, "surjective": True, "boundary_embedding": [3, 3],
    "proper_homotopy_equivalence": False, "pseudo_phe": False,
    "target_plane_or_punctured_plane": False, "ends_map_injective": None,
    "orientation": None, "abs_degree": 1, "pi1_surjective": True,
}
# realize compiles the sorted union into two puncture lassos joined by a
# pants, then stacks one Handle per unit of genus on top.
_REALIZE_OUT = {"presentation": "surface realized {\n  a1 = A(a1);\n  a2 = A(a2);\n"
                                "  u3 = P(a1, a2);\n  g4 = H(u3);\n  g5 = H(g4);\n  root = g5\n}"}


def _exact(code: int, obj) -> Callable[[int, str], bool]:
    return lambda got_code, out: got_code == code and out == _json_line(obj)


def _unknown_or_homeomorphic(code: int, out: str) -> bool:
    """The m1/m2 pair is homeomorphic: Homeomorphic/0 is right, Unknown/2
    is undecided, anything else is wrong."""
    if code == 0:
        return out == _json_line({"verdict": "Homeomorphic"})
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    return code == 2 and out.count("\n") == 1 and doc.get("verdict") == "Unknown"


def _plane_error(code: int, out: str) -> bool:
    try:
        err = json.loads(out)["error"]
    except (ValueError, KeyError, TypeError):
        return False
    return (code == 1 and out.count("\n") == 1 and set(err) == {"module", "case", "message"}
            and err["module"] == "decompose" and err["case"] == "PlaneExcludedError"
            and isinstance(err["message"], str) and err["message"] != "")


def _essential_cantor(code: int, out: str) -> bool:
    try:
        doc = json.loads(out)
    except ValueError:
        return False
    comps = doc.get("components", [])
    return (code == 0 and out.count("\n") == 1 and len(comps) >= 2
            and all(c["rank_at_least"] >= 2 for c in comps))


def cli_commands(rng: random.Random, work: Path) -> list[tuple[str, list[str], Callable, bool]]:
    """(name, argv, check(code, stdout), is_verdict) for the README mix."""
    tag = f"{rng.randrange(16 ** 6):06x}"

    def surf(name: str, text: str) -> str:
        path = work / f"{name}-{tag}.surf"
        path.write_text(text + "\n")
        return str(path)

    def js(name: str, obj) -> str:
        path = work / f"{name}-{tag}.json"
        path.write_text(json.dumps(obj))
        return str(path)

    flute = parse_presentation(inputs.FLUTE)
    s101 = surf("s101", "surface s finite S(g=1, b=0, p=1)")
    s003 = surf("s003", "surface t finite S(g=0, b=0, p=3)")
    s301 = surf("s301", "surface s finite S(g=3, b=0, p=1)")
    flute_a = surf("flute", inputs.FLUTE)
    flute_b = surf("flute2", pretty_print(inputs.rename(flute, rng)))
    loch = surf("loch", inputs.LOCH)
    cantor = surf("cantor", inputs.CANTOR)
    plane = surf("plane", "surface s finite S(g=0, b=0, p=1)")
    m1, m2 = surf("m1", inputs.MIXED), surf("m2", inputs.MIXED_SWAPPED)
    return [
        ("classify-genus", ["classify", s101, s003],
         _exact(0, {"verdict": "NotHomeomorphic", "witness": "genus"}), True),
        ("classify-flutes", ["classify", flute_a, flute_b],
         _exact(0, {"verdict": "Homeomorphic"}), True),
        ("classify-m1-m2", ["classify", m1, m2], _unknown_or_homeomorphic, True),
        ("invariants", ["invariants", flute_a], _exact(0, _INVARIANTS_FLUTE), False),
        ("decompose", ["decompose", s301, "--mode", "strict"],
         _exact(0, {"pants": 5, "punctured_disks": 1}), False),
        ("decompose-plane", ["decompose", plane, "--mode", "strict"], _plane_error, False),
        ("spine", ["spine", loch], _exact(0, {"core_states": ["root"], "rank": "infinite"}), False),
        ("graph-phe", ["graph-phe", cantor, cantor], _exact(0, {"verdict": "Yes"}), True),
        ("essential-pants", ["essential-pants", cantor], _essential_cantor, False),
        ("rewrite", ["rewrite", js("config", _REWRITE_IN)], _exact(0, _REWRITE_OUT), False),
        ("degree-check", ["degree-check", js("desc", _DEGREE_IN)], _exact(0, _DEGREE_OUT), False),
        ("realize", ["realize", "2", "Union(Pt(planar), Pt(planar))", "--json"],
         _exact(0, _REALIZE_OUT), False),
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, cwd: Path) -> tuple[int, str, str]:
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_batch(rng: random.Random, tr, work: Path) -> list[Op]:
    commands = cli_commands(rng, work)
    env = child_env()
    laps = 8
    ops = []
    for _ in range(laps):
        order = list(commands)
        rng.shuffle(order)
        ops.extend(_cli_op(env, work, *cmd) for cmd in order)
    return ops


def _cli_op(env: dict, work: Path, name: str, argv: list[str], check, is_verdict: bool) -> Op:
    def run(tr):
        with tr.span("cli.process"):
            code, out, _ = run_child([sys.executable, "-m", "endkit.cli", *argv], env, work)
        return code, out

    def verdict(result):
        code, out = result
        return check(code, out), (code != 2) if is_verdict else None

    def after(tr, result):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with tr.span("cli.main"):
                code = cli_main(list(argv))
        return check(code, buf.getvalue())

    return Op(f"cli:{name}", run, verdict, after=after)


WORKLOADS = {
    "classify-corpus": classify_corpus,
    "deep-invariants": deep_invariants,
    "windows-rewrite": windows_rewrite,
    "cli-batch": cli_batch,
}
