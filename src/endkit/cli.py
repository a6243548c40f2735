"""Batch command-line front end.

Every subcommand is pure input to output: JSON on stdout (stable key order,
compact separators), DOT text where ``--dot`` applies, presentation text for
the commands that produce surfaces.  Exit codes: 0 for a decided result,
2 for an Unknown verdict, 1 for any error, in which case stdout carries a
machine-readable object naming the failing module and error case.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .classify import ClassVerdict, distinct_family, kerekjarto, realize
from .decompose import (
    decompose,
    decomposition_to_dot,
    find_essential_pants,
    graph_phe_equal,
    interchange_normalize,
    spine,
    spine_to_dot,
)
from .degree import descriptor_from_json, descriptor_to_json, infer_degree
from .ends import DEFAULT_RANK_CUTOFF, Verdict, cb_report, cb_report_to_json, ends_count_to_json, ends_automaton, parse_end_expr
from .errors import ClassifyError, DecomposeError, EndkitError, PresentationError, PresentationSyntaxError
from .presentation import (
    INFINITE,
    MAX_DIGITS,
    SurfacePresentation,
    genus,
    is_finite_type,
    parse_presentation,
    pretty_print,
)
from .rewrite import curve_config_from_json, curve_config_to_json, run_pipeline

FAMILY_CAP = 64
DEPTH_CAP = 1_000_000  # a window costs memory linear in its depth
GENUS_CAP = 1_000_000  # a finite genus or triple expands to that many rules


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_surf(path: str) -> SurfacePresentation:
    pres = parse_presentation(Path(path).read_text())
    ft = pres.finite_type
    if ft is not None and ft.genus + ft.boundary + ft.punctures > GENUS_CAP:
        raise PresentationError(  # the sum may be too long for str()
            f"finite S(g, b, p) capped at g + b + p = {GENUS_CAP}, "
            f"got g={ft.genus}, b={ft.boundary}, p={ft.punctures}"
        )
    return pres


def _load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _genus_json(g) -> int | str:
    return "infinite" if g == INFINITE else int(g)


def _parse_genus(text: str):
    if text.lower() in ("inf", "infinite", "infinity"):
        return INFINITE
    if not re.fullmatch(r"[0-9]+", text):
        raise PresentationSyntaxError(f"genus must be a natural number or 'inf', got {text!r}")
    # compared by length first: int() refuses very long digit strings
    if len(text.lstrip("0")) > len(str(GENUS_CAP)) or int(text) > GENUS_CAP:
        raise ClassifyError(f"genus capped at {GENUS_CAP}, got {text}")
    return int(text)


def _cmd_classify(args) -> int:
    verdict = kerekjarto(_load_surf(args.a), _load_surf(args.b))
    _emit(verdict.to_json())
    return 2 if verdict.verdict is ClassVerdict.UNKNOWN else 0


def _cmd_invariants(args) -> int:
    p = _load_surf(args.presentation)
    auto = ends_automaton(p)
    # a truncated report keeps the exact cardinality
    cb = cb_report(auto, rank_cutoff=args.rank_cutoff)
    cb_nonplanar = cb_report(auto, marked="nonplanar_only", rank_cutoff=args.rank_cutoff)
    _emit(
        {
            "genus": _genus_json(genus(auto)),
            "finite_type": is_finite_type(auto),
            "ends": ends_count_to_json(cb.cardinality),
            "ends_nonplanar": ends_count_to_json(cb_nonplanar.cardinality),
            "cb": cb_report_to_json(cb),
            "cb_nonplanar": cb_report_to_json(cb_nonplanar),
        }
    )
    return 0


def _cmd_decompose(args) -> int:
    if args.depth > DEPTH_CAP:
        raise DecomposeError(f"depth capped at {DEPTH_CAP}, got {args.depth}")
    g = decompose(_load_surf(args.presentation), mode=args.mode, depth=args.depth)
    if args.dot:
        print(decomposition_to_dot(g))
    elif args.json:
        _emit(g.to_json())
    else:
        _emit(g.census())
    return 0


def _front_entry(token: str) -> str | tuple[int, ...]:
    """An index path when the token is comma-joined digits, else a state
    name (interchange_normalize resolves it, or raises DecomposeError)."""
    if re.fullmatch(r"[0-9]+(,[0-9]+)*", token):
        parts = token.split(",")
        if max(map(len, parts)) > MAX_DIGITS:  # too long for int()
            raise DecomposeError(f"invalid unfolding path: a step of over {MAX_DIGITS} digits")
        return tuple(map(int, parts))
    return token


def _cmd_normalize(args) -> int:
    p = _load_surf(args.presentation)
    front = [_front_entry(token) for token in args.front]
    result = interchange_normalize(p, front)
    if args.json:
        _emit({"presentation": pretty_print(result)})
    else:
        print(pretty_print(result))
    return 0


def _cmd_spine(args) -> int:
    s = spine(_load_surf(args.presentation))
    if args.dot:
        print(spine_to_dot(s))
    else:
        _emit(
            {
                "rank": "infinite" if s.rank == INFINITE else s.rank,
                "core_states": sorted(s.core_states),
            }
        )
    return 0


def _cmd_graph_phe(args) -> int:
    verdict = graph_phe_equal(spine(_load_surf(args.a)), spine(_load_surf(args.b)))
    _emit({"verdict": verdict.value})
    return 2 if verdict is Verdict.UNKNOWN else 0


def _cmd_essential_pants(args) -> int:
    _emit(find_essential_pants(_load_surf(args.presentation)).to_json())
    return 0


def _cmd_rewrite(args) -> int:
    config = curve_config_from_json(_load_json(args.config))
    schedule = args.schedule.split(",") if args.schedule else None
    final, trace = run_pipeline(config, schedule)
    _emit(
        {
            "final": curve_config_to_json(final),
            "trace": [step.to_json() for step in trace.steps],
            "notes": list(trace.notes),
        }
    )
    return 0


def _cmd_degree_check(args) -> int:
    closed = infer_degree(descriptor_from_json(_load_json(args.descriptor)))
    _emit(descriptor_to_json(closed))
    return 0


def _cmd_realize(args) -> int:
    p = realize(_parse_genus(args.genus), parse_end_expr(args.expr))
    if args.json:
        _emit({"presentation": pretty_print(p)})
    else:
        print(pretty_print(p))
    return 0


def _cmd_family(args) -> int:
    if args.n > FAMILY_CAP:
        raise ClassifyError(f"family size capped at {FAMILY_CAP}, got {args.n}")
    members = distinct_family(args.n)
    _emit({"count": len(members), "presentations": [pretty_print(p) for p in members]})
    return 0


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the exit contract reserves 2 for
    # Unknown verdicts, so downgrade to the generic error code, and report
    # on stdout like every other error.
    def error(self, message):
        self.print_usage(sys.stderr)
        _emit({"error": {"module": "cli", "case": "UsageError", "message": message}})
        self.exit(1, f"{self.prog}: error: {message}\n")

    # --help stays inside the one-JSON-document contract; exit code 0
    def print_help(self, file=None):
        _emit({"help": self.format_help()})


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="endkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("classify", help="compare two surface presentations")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("invariants", help="genus, ends count and derivative analysis")
    p.add_argument("presentation")
    p.add_argument("--rank-cutoff", type=int, default=DEFAULT_RANK_CUTOFF)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("decompose", help="cut a window into pants and punctured disks")
    p.add_argument("presentation")
    p.add_argument("--mode", choices=("lenient", "strict"), default="lenient")
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("normalize", help="pull chosen occurrences to the front")
    p.add_argument("presentation")
    p.add_argument("front", nargs="*", help="state names or comma-joined index paths")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("spine", help="graph retract and its loop rank")
    p.add_argument("presentation")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=_cmd_spine)

    p = sub.add_parser("graph-phe", help="compare spines up to proper equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_graph_phe)

    p = sub.add_parser("essential-pants", help="find a pants with a rich complement")
    p.add_argument("presentation")
    p.set_defaults(func=_cmd_essential_pants)

    p = sub.add_parser("rewrite", help="run the curve-configuration cleanup")
    p.add_argument("config")
    p.add_argument("--schedule", help="comma-joined rule names, e.g. r1,r2,r3")
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("degree-check", help="close a map descriptor under inference")
    p.add_argument("descriptor")
    p.set_defaults(func=_cmd_degree_check)

    # spelled both ways: `endkit degree-check d.json` and `endkit degree check d.json`
    p = sub.add_parser("degree")
    degree_sub = p.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p = degree_sub.add_parser("check")
    p.add_argument("descriptor")
    p.set_defaults(func=_cmd_degree_check)

    p = sub.add_parser("realize", help="build a surface with given genus and ends")
    p.add_argument("genus", help="natural number or 'inf'")
    p.add_argument("expr", help="end expression, e.g. 'Seq(Pt(planar), nonplanar)'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_realize)

    p = sub.add_parser("family", help="pairwise non-homeomorphic surfaces")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_family)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EndkitError as exc:
        _emit({"error": {"module": exc.module, "case": exc.case, "message": str(exc)}})
        return 1
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        _emit({"error": {"module": "cli", "case": type(exc).__name__, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
