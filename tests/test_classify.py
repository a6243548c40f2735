"""Homeomorphy verdicts, realization round trips, and the distinct family."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from endkit import (
    INFINITE,
    BlockKind,
    Cantor,
    Cardinality,
    ClassifyError,
    ClassVerdict,
    InconsistentInvariantsError,
    Pt,
    Seq,
    SurfacePresentation,
    Union,
    distinct_family,
    ends_count,
    genus,
    kerekjarto,
    parse_presentation,
    realize,
    standard_presentation,
)
from endkit.ends import _has_nonplanar

from conftest import end_exprs, presentations

LOCH = parse_presentation("surface loch_ness { root = H(root) }")
FLUTE = parse_presentation("surface flute { root = P(root, punc); punc = A(punc) }")
S101 = parse_presentation("surface torus1p finite S(g=1, b=0, p=1)")
S003 = parse_presentation("surface sphere3p finite S(g=0, b=0, p=3)")


def test_witness_examples():
    v = kerekjarto(S101, S003)
    assert v.verdict is ClassVerdict.NOT_HOMEOMORPHIC and v.witness == "genus"
    assert v.to_json() == {"verdict": "NotHomeomorphic", "witness": "genus"}

    v = kerekjarto(LOCH, FLUTE)
    assert v.verdict is ClassVerdict.NOT_HOMEOMORPHIC and v.witness == "ends-pair"

    v = kerekjarto(LOCH, LOCH)
    assert v.verdict is ClassVerdict.HOMEOMORPHIC
    assert v.to_json() == {"verdict": "Homeomorphic"}


def test_infinite_vs_finite_genus_is_an_ends_difference():
    # infinite genus shows up as a non-planar subspace mismatch
    v = kerekjarto(LOCH, S101)
    assert v.verdict is ClassVerdict.NOT_HOMEOMORPHIC and v.witness == "ends-pair"


def test_unknown_carries_the_fragment_name():
    mixed = parse_presentation("surface m1 { a = P(a, b); b = P(a, c); c = A(c) }")
    swapped = parse_presentation("surface m2 { a = P(b, a); b = P(a, c); c = A(c) }")
    v = kerekjarto(mixed, swapped)
    assert v.verdict is ClassVerdict.UNKNOWN
    assert v.to_json() == {
        "verdict": "Unknown",
        "witness": "end-expression-normal-form",
    }


@settings(max_examples=100)
@given(presentations())
def test_reflexivity(pres):
    assert kerekjarto(pres, pres).verdict is ClassVerdict.HOMEOMORPHIC


class _RefBuilder:
    """Hand-built reference constructions, deliberately unlike the compiler:
    cycles are padded with annuli and unions fold from the left."""

    def __init__(self):
        self.rules: dict[str, tuple[BlockKind, tuple[str, ...]]] = {}
        self.counter = 0

    def fresh(self) -> str:
        self.counter += 1
        return f"r{self.counter}"

    def add(self, kind: BlockKind, *children: str) -> str:
        name = self.fresh()
        self.rules[name] = (kind, children)
        return name

    def build(self, e) -> str:
        if isinstance(e, Pt) and not e.nonplanar:
            a1, a2 = self.fresh(), self.fresh()
            self.rules[a1] = (BlockKind.ANNULUS, (a2,))
            self.rules[a2] = (BlockKind.ANNULUS, (a1,))
            return a1
        if isinstance(e, Pt):
            h, a = self.fresh(), self.fresh()
            self.rules[h] = (BlockKind.HANDLE, (a,))
            self.rules[a] = (BlockKind.ANNULUS, (h,))
            return h
        if isinstance(e, Cantor) and not e.nonplanar:
            c, d = self.fresh(), self.fresh()
            self.rules[c] = (BlockKind.PANTS, (d, d))
            self.rules[d] = (BlockKind.ANNULUS, (c,))
            return c
        if isinstance(e, Cantor):
            k, m = self.fresh(), self.fresh()
            self.rules[k] = (BlockKind.PANTS, (m, m))
            self.rules[m] = (BlockKind.HANDLE, (k,))
            return k
        if isinstance(e, Seq):
            child = self.build(e.element)
            u, v = self.fresh(), self.fresh()
            if e.limit_nonplanar:
                w = self.fresh()
                self.rules[u] = (BlockKind.PANTS, (child, v))
                self.rules[v] = (BlockKind.ANNULUS, (w,))
                self.rules[w] = (BlockKind.HANDLE, (u,))
            else:
                self.rules[u] = (BlockKind.PANTS, (child, v))
                self.rules[v] = (BlockKind.ANNULUS, (u,))
            return u
        entries = [self.build(part) for part in e.parts]
        acc = entries[0]
        for nxt in entries[1:]:
            acc = self.add(BlockKind.PANTS, acc, nxt)
        return acc


def reference_surface(g, e) -> SurfacePresentation:
    b = _RefBuilder()
    entry = b.build(e)
    if g not in (0, INFINITE):
        for _ in range(int(g)):
            a = b.add(BlockKind.ANNULUS, entry)
            entry = b.add(BlockKind.HANDLE, a)
    reachable = {entry}
    frontier = [entry]
    while frontier:
        for child in b.rules[frontier.pop()][1]:
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)
    return SurfacePresentation(
        name="reference",
        rules={s: r for s, r in b.rules.items() if s in reachable},
        root=entry,
    )


@settings(max_examples=100, deadline=None)
@given(end_exprs())
def test_realize_matches_reference(e):
    g = INFINITE if _has_nonplanar(e) else 0
    v = kerekjarto(realize(g, e), reference_surface(g, e))
    assert v.verdict is ClassVerdict.HOMEOMORPHIC


def test_realize_with_finite_genus_prefix():
    e = Union((Pt(False), Pt(False)))
    built = realize(3, e)
    assert genus(built) == 3
    assert kerekjarto(built, reference_surface(3, e)).verdict is ClassVerdict.HOMEOMORPHIC
    assert kerekjarto(built, standard_presentation(3, 2)).verdict is ClassVerdict.HOMEOMORPHIC


def test_realize_consistency_check():
    with pytest.raises(InconsistentInvariantsError):
        realize(3, Pt(True))
    with pytest.raises(InconsistentInvariantsError):
        realize(INFINITE, Pt(False))
    for g in (True, False, 1.0, -1):  # a bool is an int, but not a genus
        with pytest.raises(InconsistentInvariantsError, match=f"natural or infinite, got {g!r}"):
            realize(g, Pt(False))


def test_distinct_family_profile():
    family = distinct_family(6)
    assert len(family) == 6
    counts = [ends_count(p) for p in family]
    assert counts[0].count == 1
    assert counts[1].cardinality is Cardinality.UNCOUNTABLE
    assert counts[2].cardinality is Cardinality.COUNTABLY_INFINITE
    assert [c.count for c in counts[3:]] == [4, 5, 6]
    for p in family:
        assert genus(p) == INFINITE


@pytest.mark.parametrize("n", [2.0, "2", True, None, 0])
def test_distinct_family_size_is_a_positive_integer(n):
    """2.0 and "2" raised a bare TypeError, and True answered one member."""
    with pytest.raises(ClassifyError, match="family size must be positive"):
        distinct_family(n)


def test_distinct_family_small_sizes():
    assert len(distinct_family(1)) == 1
    pair = distinct_family(2)
    assert kerekjarto(pair[0], pair[1]).verdict is ClassVerdict.NOT_HOMEOMORPHIC
