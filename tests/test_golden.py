"""Golden CLI outputs: every README subcommand, replayed in process.

``tests/data/golden.jsonl`` holds two kinds of lines.  An ``input`` line
names a file and its text; a case line gives an ``argv`` whose ``@name``
entries are such files, with the exact stdout and exit code that
``endkit`` gave.  The test writes the inputs to a temporary directory and
replays each case through ``cli.main``.  Regenerate the file, only when an
output is meant to change, with ``PYTHONPATH=src python tests/test_golden.py``.

The inputs are the named surfaces of ``bench/inputs.py`` (Loch Ness, the
flute, the Cantor tree, m1 and m2), its four deep-invariants families at 10
and 50 states, and 20 seeded random cores, with seeded curve
configurations, map descriptors and end expressions.  Help text and usage
errors are left out: argparse words them differently across Python
versions.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import tempfile
from collections import defaultdict
from pathlib import Path

import pytest

from endkit import cli

GOLDEN = Path(__file__).resolve().parent / "data" / "golden.jsonl"


def _load() -> tuple[dict[str, str], dict[str, list[dict]]]:
    inputs: dict[str, str] = {}
    cases: dict[str, list[dict]] = defaultdict(list)
    with GOLDEN.open() as fh:
        for line in fh:
            entry = json.loads(line)
            if "input" in entry:
                inputs[entry["input"]] = entry["text"]
            else:
                cases[entry["argv"][0]].append(entry)
    return inputs, cases


_INPUTS, _CASES = _load() if GOLDEN.exists() else ({}, {})


def _run(argv: list[str]) -> tuple[str, int]:
    """``endkit argv``'s stdout and exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exits
            code = exc.code
    return out.getvalue(), code


@pytest.mark.parametrize("command", sorted(_CASES))
def test_cli_outputs_match_the_golden_file(command, tmp_path):
    for name, text in _INPUTS.items():
        (tmp_path / name).write_text(text)
    mismatches = []
    for case in _CASES[command]:
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in case["argv"]]
        out, code = _run(argv)
        if (out, code) != (case["stdout"], case["code"]):
            mismatches.append((case["argv"], case["stdout"], case["code"], out, code))
    assert not mismatches, f"{len(mismatches)} of {len(_CASES[command])} differ; first: {mismatches[0]}"


def test_the_golden_file_covers_every_subcommand():
    assert set(_CASES) == {
        "classify", "invariants", "decompose", "normalize", "spine", "graph-phe",
        "essential-pants", "rewrite", "degree-check", "degree", "realize", "family",
    }


# -- regeneration ----------------------------------------------------------

def _golden_inputs() -> dict[str, str]:
    from conftest import bench_inputs
    from endkit import curve_config_to_json, descriptor_to_json, pretty_print

    bench = bench_inputs()
    surfaces = {
        "loch": bench.LOCH, "flute": bench.FLUTE, "cantor": bench.CANTOR,
        "m1": bench.MIXED, "m2": bench.MIXED_SWAPPED,
    }
    for family, (build, _) in bench.FAMILIES.items():
        for size in (10, 50):
            surfaces[f"{family}{size}"] = pretty_print(build(size))
    rng = random.Random(23)
    for i in range(20):
        surfaces[f"core{i}"] = pretty_print(bench.random_core(rng))
    files = {f"{name}.surf": text + "\n" for name, text in surfaces.items()}
    for i in range(20):
        files[f"config{i}.json"] = json.dumps(curve_config_to_json(bench.curve_config(rng)))
    for i in range(12):
        files[f"desc{i}.json"] = json.dumps(descriptor_to_json(bench.degree_case(rng, i)[0]))
    files["desc_bad_boundary.json"] = '{"boundary_embedding": 7}'
    files["desc_bad_orientation.json"] = '{"orientation": 2}'
    files["desc_open.json"] = '{"pseudo_phe": true, "target_plane_or_punctured_plane": true}'
    return files


_EXPRS = (
    "Pt(planar)", "Pt(nonplanar)", "Cantor(planar)", "Cantor(nonplanar)",
    "Seq(Pt(planar), planar)", "Seq(Pt(planar), nonplanar)", "Seq(Cantor(nonplanar), nonplanar)",
    "Union(Pt(planar), Pt(planar), Pt(nonplanar))", "Union(Cantor(planar), Seq(Cantor(planar), planar))",
    "Seq(Union(Pt(planar), Seq(Pt(planar), planar)), planar)", "Seq(Pt(nonplanar), planar)",
    "Union()", "Pt(",
)


def _golden_argvs(files: dict[str, str]) -> list[list[str]]:
    surfaces = [f"@{name}" for name in files if name.endswith(".surf")]
    argvs: list[list[str]] = []
    for s in surfaces:
        argvs += [
            ["invariants", s], ["invariants", s, "--rank-cutoff", "1"],
            ["decompose", s], ["decompose", s, "--mode", "strict", "--depth", "12"],
            ["decompose", s, "--json", "--depth", "6"], ["decompose", s, "--dot", "--depth", "5"],
            ["normalize", s, "0"], ["normalize", s, "0", "1", "--json"], ["normalize", s, "a", "s1"],
            ["spine", s], ["spine", s, "--dot"], ["essential-pants", s],
        ]
    for i, a in enumerate(surfaces):
        for b in surfaces[i:]:
            argvs += [["classify", a, b], ["graph-phe", a, b]]
    for name in files:
        if name.startswith("config"):
            for schedule in (None, "r1,r2", "r2", "r1,r2,r3,r4", "r1,r3"):
                argvs.append(["rewrite", f"@{name}"] + (["--schedule", schedule] if schedule else []))
        elif name.startswith("desc"):
            argvs += [["degree-check", f"@{name}"], ["degree", "check", f"@{name}"]]
    for genus in ("0", "2", "inf"):
        for expr in _EXPRS:
            argvs.append(["realize", genus, expr, "--json"])
    argvs += [["realize", "1", "Union(Pt(planar), Cantor(planar))"]]
    argvs += [["family", str(n)] for n in (1, 3, 5, 65)]
    return argvs


def _write_golden() -> None:
    files = _golden_inputs()
    lines = [json.dumps({"input": name, "text": text}) for name, text in files.items()]
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        for argv in _golden_argvs(files):
            real = [str(Path(tmp) / a[1:]) if a.startswith("@") else a for a in argv]
            out, code = _run(real)
            lines.append(json.dumps({"argv": argv, "stdout": out, "code": code}))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    _write_golden()
