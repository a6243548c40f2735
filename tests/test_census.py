"""The census as a pinned differential: every pair verdict over fixed inputs.

Four pair sets are pinned: all 11,175 pairs of ``conftest.census_cores(seed)``
for seeds 0-2, and the 1,024 seed-1 classify-corpus pairs of the benchmark,
built with ``bench/inputs.py`` and parsed from their texts.  For each set the
test pins the counts of `kerekjarto`'s (verdict, witness), the counts of
`graph_phe_equal(spine, spine)` verdicts, and a sha256 of the verdict
sequence in pair order.  ``tests/data/census.txt`` holds that sequence, one
line per set, so that a mismatch prints the pairs that moved with their old
and new verdicts.

The deep families at 10^3 states (chain, comb, cantor-marked, seq-tower)
are pinned to the closed forms of ``bench/inputs.expected_invariants``, and
each answers Homeomorphic, by normal form, against a spliced, renamed copy.

A change that moves a verdict on purpose regenerates the file with
``PYTHONPATH=src python tests/test_census.py``, updates the pins below, and
says which pairs moved and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import random
from collections import Counter
from pathlib import Path

import pytest

from endkit import (
    INFINITE, cb_report, cb_report_to_json, ends_count, ends_count_to_json, genus, is_finite_type,
    kerekjarto, parse_presentation, spine, splice_annulus, to_end_expr,
)
from endkit.decompose import graph_phe_equal

from conftest import bench_inputs, census_cores

CENSUS = Path(__file__).resolve().parent / "data" / "census.txt"

# one letter per kerekjarto (verdict, witness), one per graph_phe_equal verdict
_CLASSIFY = {
    ("Homeomorphic", "identical-presentation"): "i",
    ("Homeomorphic", "end-expression-normal-form"): "n",
    ("NotHomeomorphic", "genus"): "g",
    ("NotHomeomorphic", "ends-pair"): "e",
    ("Unknown", "end-expression-normal-form"): "u",
}
_PHE = {"Yes": "Y", "No": "N", "Unknown": "U"}
_WORDS = {**{code: f"{v}/{w}" for (v, w), code in _CLASSIFY.items()}, **{c: v for v, c in _PHE.items()}}

# per set: kerekjarto (verdict, witness) counts, graph_phe_equal counts, sha256 of the sequence
PINS = {
    "seed-0": (
        {"e": 8473, "n": 1549, "i": 438, "g": 686, "u": 29},
        {"N": 7738, "Y": 3365, "U": 72},
        "1a9bd74ce222ade0334300df5e18eb04d1482d37d8292501c841c4d03529c694",
    ),
    "seed-1": (
        {"e": 8997, "n": 1358, "i": 373, "g": 444, "u": 3},
        {"N": 8607, "Y": 2565, "U": 3},
        "f79079cec72173e4232f74ffc2be86ed4de99da8eeeea12827199c11846cd102",
    ),
    "seed-2": (
        {"e": 9175, "n": 1113, "i": 473, "g": 366, "u": 48},
        {"N": 8675, "Y": 2394, "U": 106},
        "d72c4720dd1c529d8493ba94ee9c1c8ed90778ec713046b63bcc132414fa94a8",
    ),
    "corpus": (
        {"e": 274, "n": 391, "i": 153, "g": 203, "u": 3},
        {"N": 382, "Y": 636, "U": 6},
        "8461a1c9f98eee24392d4283397125e02400dfdf59ccc9369e09d364266f9c16",
    ),
}


class _NoTrace:
    def span(self, name):
        return contextlib.nullcontext()


def _corpus() -> list:
    """The seed-1 classify-corpus pairs, one lap, each side parsed from its text."""
    inputs = bench_inputs()
    kinds, sizes, rng = inputs.PAIR_KINDS, inputs.SIZES, random.Random(1)
    pairs = []
    for i in range(1024):
        kind, size = kinds[i % len(kinds)], sizes[(i // len(kinds)) % len(sizes)]
        a, b, _ = inputs.classify_pair(rng, kind, size, _NoTrace())
        pairs.append((f"corpus pair {i} ({kind})", parse_presentation(a), parse_presentation(b)))
    return pairs


def _pairs(name: str) -> list:
    """(label, p, q) per pair, in pair order."""
    if name == "corpus":
        return _corpus()
    cores = census_cores(int(name[-1]))
    return [(f"cores {i}, {j}", p, q) for i, p in enumerate(cores) for j, q in enumerate(cores) if i < j]


def _sequence(pairs: list) -> str:
    """Two letters per pair: kerekjarto's, then graph_phe_equal's."""
    out = []
    for _, p, q in pairs:
        v = kerekjarto(p, q)
        out.append(_CLASSIFY[v.verdict.value, v.witness] + _PHE[graph_phe_equal(spine(p), spine(q)).value])
    return "".join(out)


def _recorded() -> dict[str, str]:
    return dict(line.split() for line in CENSUS.read_text().splitlines())


@pytest.mark.parametrize("name", list(PINS))
def test_census_verdicts_are_pinned(name):
    pairs = _pairs(name)
    sequence, old = _sequence(pairs), _recorded()[name]
    assert len(old) == len(sequence) == 2 * len(pairs)
    moved = [
        f"{label}: {_WORDS[old[k]]} {_WORDS[old[k + 1]]} -> {_WORDS[sequence[k]]} {_WORDS[sequence[k + 1]]}"
        for (label, _, _), k in zip(pairs, range(0, len(sequence), 2))
        if old[k:k + 2] != sequence[k:k + 2]
    ]
    assert not moved, f"{len(moved)} pairs moved:\n" + "\n".join(moved[:50])
    classify, phe, digest = PINS[name]
    assert dict(Counter(sequence[0::2])) == classify
    assert dict(Counter(sequence[1::2])) == phe
    assert hashlib.sha256(sequence.encode()).hexdigest() == digest


@pytest.mark.parametrize("family, size", [("chain", 1000), ("comb", 1001), ("cantor-marked", 1000),
                                          ("seq-tower", 1000)])
def test_deep_families_at_a_thousand_states_are_pinned(family, size):
    inputs = bench_inputs()
    pres = inputs.FAMILIES[family][0](size)
    cutoff = len(pres.rules) + 2  # above the CB rank, which is at most the state count
    reports = [cb_report_to_json(cb_report(pres, marked, cutoff)) for marked in ("all", "nonplanar_only")]
    g = genus(pres)
    got = {
        "genus": "infinite" if g == INFINITE else g,
        "finite_type": is_finite_type(pres),
        "ends": ends_count_to_json(ends_count(pres)),
        "ends_nonplanar": ends_count_to_json(ends_count(pres, marked="nonplanar_only")),
        "cb": {k: reports[0][k] for k in ("rank", "degree", "perfect_kernel", "cardinality")},
        "cb_nonplanar": {k: reports[1][k] for k in ("rank", "degree", "perfect_kernel", "cardinality")},
        "expr": to_end_expr(pres),
    }
    assert got == inputs.expected_invariants(family, size)
    state = random.Random(size).choice(sorted(pres.rules))
    copy = inputs.rename(splice_annulus(pres, state, 0), random.Random(size))
    verdict = kerekjarto(pres, copy)
    assert (verdict.verdict.value, verdict.witness) == ("Homeomorphic", "end-expression-normal-form")


if __name__ == "__main__":
    sequences = {name: _sequence(_pairs(name)) for name in PINS}
    CENSUS.write_text("".join(f"{name} {sequence}\n" for name, sequence in sequences.items()))
    for name, sequence in sequences.items():  # the new pins
        print(name, dict(Counter(sequence[0::2])), dict(Counter(sequence[1::2])),
              hashlib.sha256(sequence.encode()).hexdigest())
