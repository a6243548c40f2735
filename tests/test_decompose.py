"""Pants decompositions, interchange moves, spines, and essential pants."""

from __future__ import annotations

import importlib
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from endkit import (
    INFINITE,
    BlockKind,
    ClassVerdict,
    ComplexityTooLowError,
    DecomposeError,
    OccurrenceInsideCycleError,
    PieceKind,
    PlaneExcludedError,
    PuncturedTorusExcludedInStrictError,
    SurfacePresentation,
    Verdict,
    canonical_finite_type,
    decompose,
    find_essential_pants,
    first_occurrences,
    genus,
    graph_phe_equal,
    interchange_normalize,
    is_finite_type,
    kerekjarto,
    parse_presentation,
    pretty_print,
    regularize,
    spine,
    standard_presentation,
)
from endkit.decompose import _first_path_of
from endkit.presentation import _first_paths, states_after_cycles

from conftest import finite_type_pairs, presentations

LOCH = parse_presentation("surface loch_ness { root = H(root) }")
FLUTE = parse_presentation("surface flute { root = P(root, punc); punc = A(punc) }")
CANTOR = parse_presentation("surface cantor { root = P(root, root) }")


def _slot_usage(g):
    used: list[tuple[int, int]] = []
    for a, sa, b, sb in g.edges:
        used.append((a, sa))
        used.append((b, sb))
    used.extend(g.open_slots)
    return used


def _check_graph(g):
    capacity = {p.id: p.kind.slots for p in g.pieces}
    # every edge joins an older piece to a newer one, and every open slot
    # belongs to a piece in the window
    assert all(a < b for a, _, b, _ in g.edges)
    assert all(pid in capacity for pid, _ in g.open_slots)
    usage = _slot_usage(g)
    assert len(usage) == len(set(usage)), "a slot was glued twice"
    per_piece: dict[int, int] = {p.id: 0 for p in g.pieces}
    for pid, slot in usage:
        assert 0 <= slot < capacity[pid]
        per_piece[pid] += 1
    # every slot of a piece in the window is glued or open
    assert per_piece == capacity
    if g.complete:
        assert not g.open_slots


def test_strict_examples():
    g = decompose(parse_presentation("surface s finite S(g=3, b=0, p=1)"), "strict")
    assert g.census() == {"pants": 5, "punctured_disks": 1}
    assert g.complete
    _check_graph(g)

    g = decompose(parse_presentation("surface s finite S(g=0, b=0, p=2)"), "strict")
    assert g.census() == {"pants": 0, "punctured_disks": 2}

    g = decompose(parse_presentation("surface s finite S(g=0, b=0, p=3)"), "strict")
    assert g.census() == {"pants": 1, "punctured_disks": 3}


def test_one_holed_torus_family():
    for g in range(2, 7):
        pres = parse_presentation(f"surface s finite S(g={g}, b=0, p=1)")
        assert decompose(pres, "strict", depth=2 * g + 2).census() == {
            "pants": 2 * g - 1,
            "punctured_disks": 1,
        }


def test_mode_exclusions():
    for plane in (
        parse_presentation("surface s finite S(g=0, b=0, p=1)"),
        parse_presentation("surface p { a = A(b); b = A(a) }"),
    ):
        for mode in ("strict", "lenient"):
            with pytest.raises(PlaneExcludedError):
                decompose(plane, mode)

    for torus1p in (
        parse_presentation("surface s finite S(g=1, b=0, p=1)"),
        # annuli before and after the Handle
        parse_presentation("surface t { r = A(h); h = H(x); x = A(y); y = A(x) }"),
    ):
        with pytest.raises(PuncturedTorusExcludedInStrictError):
            decompose(torus1p, "strict")
        g = decompose(torus1p, "lenient")
        assert g.census() == {"pants": 0, "punctured_disks": 1, "one_holed_tori": 1}
        assert g.complete
        _check_graph(g)

    # a Handle inside an annulus cycle: infinite genus, a pants window
    loop = parse_presentation("surface l { r = H(a); a = A(r) }")
    for mode in ("strict", "lenient"):
        g = decompose(loop, mode, depth=6)
        assert g.census() == {"pants": 6, "punctured_disks": 0}
        assert not g.complete
        _check_graph(g)


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=8))
def test_window_walk_recognises_the_excluded_shapes(pres):
    """The walk's first step decides the plane and the punctured torus; the
    canonical triple is the reference."""
    triple = canonical_finite_type(pres) if is_finite_type(pres) else None
    if triple == (0, 0, 1):
        for mode in ("strict", "lenient"):
            with pytest.raises(PlaneExcludedError):
                decompose(pres, mode)
    elif triple == (1, 0, 1):
        with pytest.raises(PuncturedTorusExcludedInStrictError):
            decompose(pres, "strict")
        for depth in (2, 5):
            g = decompose(pres, "lenient", depth)
            assert g.census() == {"pants": 0, "punctured_disks": 1, "one_holed_tori": 1}
            assert g.complete
    else:
        for mode in ("strict", "lenient"):
            _check_graph(decompose(pres, mode, depth=6))


def _handle_then_pants(pres) -> bool:
    """Does the root's run meet a Handle and then a Pants, past annuli only?"""
    pres = regularize(pres)
    kinds, state, seen = [], pres.root, set()
    while len(kinds) < 2 and state not in seen:
        seen.add(state)
        if pres.kind(state) is not BlockKind.ANNULUS:
            kinds.append(pres.kind(state))
        state = pres.children(state)[0]
    return kinds == [BlockKind.HANDLE, BlockKind.PANTS]


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=8), st.booleans())
@example(parse_presentation("surface s finite S(g=1, b=0, p=2)"), False)
@example(parse_presentation("surface s finite S(g=1, b=0, p=3)"), False)
@example(parse_presentation("surface s finite S(g=1, b=0, p=4)"), False)
@example(parse_presentation("surface s finite S(g=1, b=0, p=5)"), False)
def test_handle_then_pants_is_the_window_of_the_pulled_pants(pres, on_top):
    """The walk reads a root Handle-run then a Pants as the interchange that
    pulls the first Pants to the front; the rebuilt presentation's window is
    the reference."""
    if on_top:  # one Handle above the root makes the shape common
        pres = SurfacePresentation(
            name=pres.name, rules={"top": (BlockKind.HANDLE, (pres.root,)), **pres.rules},
            root="top",
        )
    if not _handle_then_pants(pres):
        return
    pulled = interchange_normalize(pres, first_occurrences(pres, BlockKind.PANTS, 1))
    for mode in ("strict", "lenient"):
        for depth in (0, 1, 2, 5, 64):
            assert decompose(pres, mode, depth).to_json() == decompose(pulled, mode, depth).to_json()


def test_decompose_rebuilds_no_presentation(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("decompose rebuilt the presentation")

    # the package exports the function under the module's name
    module = importlib.import_module("endkit.decompose")
    monkeypatch.setattr(module, "_rebuild", forbidden)
    monkeypatch.setattr(module, "first_occurrences", forbidden)
    s103 = parse_presentation("surface s finite S(g=1, b=0, p=3)")
    assert decompose(s103, "strict").census() == {"pants": 3, "punctured_disks": 3}
    for pres in (FLUTE, LOCH, CANTOR):
        g = decompose(pres, "strict", depth=6)
        assert len(g.pieces) == 6 and not g.complete
        _check_graph(g)


def test_lenient_agrees_with_strict_elsewhere():
    for pres in (LOCH, FLUTE, standard_presentation(2, 3)):
        a = decompose(pres, "strict", depth=6)
        b = decompose(pres, "lenient", depth=6)
        assert a.pieces == b.pieces and a.edges == b.edges


def test_loch_ness_window():
    for depth in (1, 4, 8):
        g = decompose(LOCH, "strict", depth=depth)
        assert g.census() == {"pants": depth, "punctured_disks": 0}
        assert not g.complete
        _check_graph(g)


def test_window_is_a_prefix_of_the_deeper_window():
    for pres in (LOCH, FLUTE, CANTOR):
        small = decompose(pres, "strict", depth=5)
        big = decompose(pres, "strict", depth=9)
        assert big.pieces[: len(small.pieces)] == small.pieces
        assert set(small.edges) <= set(big.edges)


def _annulus_run(k: int, head: str, back: str) -> SurfacePresentation:
    """``r = head`` over a run of k annuli a0 -> ... -> a(k-1) -> ``back``."""
    rules = {"r": (BlockKind.PANTS, tuple(head.split()))}
    rules.update({f"a{i}": (BlockKind.ANNULUS, (f"a{i + 1}",)) for i in range(k - 1)})
    rules[f"a{k - 1}"] = (BlockKind.ANNULUS, (back,))
    return SurfacePresentation(name="run", rules=rules, root="r")


def test_long_annulus_runs_are_walked_once():
    # annuli are skipped, so the windows are those of the runs cut out
    cases = [
        (_annulus_run(2000, "a0 a0", "r"), CANTOR, 4000),
        (_annulus_run(2000, "r a0", "a0"), FLUTE, 4000),  # the run closes a lasso
        (_annulus_run(10_000, "a0 a0", "r"), CANTOR, 20_000),
    ]
    for pres, cut, depth in cases:
        for mode in ("strict", "lenient"):
            start = time.perf_counter()
            window = decompose(pres, mode, depth)
            assert time.perf_counter() - start < 2.0
            assert window == decompose(cut, mode, depth)


@settings(max_examples=60, deadline=None)
@given(finite_type_pairs())
def test_census_matches_euler_characteristic(gp):
    g, p = gp
    if (g, p) in ((0, 1), (1, 1)):
        return
    graph = decompose(standard_presentation(g, p), "strict", depth=4 * (g + p))
    census = graph.census()
    assert graph.complete
    assert census == {"pants": 2 * g + p - 2, "punctured_disks": p}
    # each pants carries Euler characteristic -1, each punctured disk 0
    assert -census["pants"] == 2 - 2 * g - p
    _check_graph(graph)


@settings(max_examples=80, deadline=None)
@given(presentations(), st.data())
def test_interchange_preserves_the_surface(pres, data):
    paths = [p for p, _ in pres.unfold(max_nodes=40)]
    front = data.draw(
        st.lists(st.sampled_from(paths), max_size=3, unique=True)
        if paths else st.just([])
    )
    moved = interchange_normalize(pres, front)
    assert genus(moved) == genus(pres)
    # the classifier may fail to decide, but must never separate the two
    assert kerekjarto(moved, pres).verdict is not ClassVerdict.NOT_HOMEOMORPHIC


def test_interchange_by_state_name_needs_an_acyclic_state():
    pres = parse_presentation(
        "surface s { root = P(mid, punc); mid = H(core); core = H(core); punc = A(punc) }"
    )
    moved = interchange_normalize(pres, ["mid"])
    assert kerekjarto(moved, pres).verdict is ClassVerdict.HOMEOMORPHIC
    with pytest.raises(OccurrenceInsideCycleError):
        interchange_normalize(FLUTE, ["punc"])


def test_spine_rank_examples():
    assert spine(LOCH).rank == INFINITE
    assert spine(FLUTE).rank == INFINITE
    assert spine(parse_presentation("surface s finite S(g=0, b=0, p=3)")).rank == 2


@settings(max_examples=60, deadline=None)
@given(finite_type_pairs())
def test_spine_rank_is_one_minus_euler_characteristic(gp):
    g, p = gp
    chi = 2 - 2 * g - p
    assert spine(standard_presentation(g, p)).rank == 1 - chi


def test_spine_core_states():
    s = spine(FLUTE)
    assert "root" in s.core_states and "punc" not in s.core_states


def test_graph_phe_verdicts():
    assert graph_phe_equal(spine(LOCH), spine(LOCH)) is Verdict.YES
    # equal infinite rank, but the ends differ
    assert graph_phe_equal(spine(LOCH), spine(FLUTE)) is Verdict.NO
    # rank mismatch decides before any ends comparison
    s3 = spine(standard_presentation(0, 3))
    s4 = spine(standard_presentation(0, 4))
    assert graph_phe_equal(s3, s4) is Verdict.NO


def test_essential_pants_on_infinite_type():
    for pres in (CANTOR, LOCH):
        found = find_essential_pants(pres)
        assert len(found.components) >= 2
        for comp in found.components:
            assert comp.rank_lower_bound >= 2
        payload = found.to_json()
        assert set(payload) == {"pants_id", "components", "census"}


def test_essential_pants_complexity_gate():
    for g, p in ((1, 1), (0, 4), (0, 5), (1, 2)):
        with pytest.raises(ComplexityTooLowError):
            find_essential_pants(standard_presentation(g, p))
    for g, p in ((0, 6), (2, 2), (1, 3), (1, 5)):
        found = find_essential_pants(standard_presentation(g, p))
        assert len(found.components) >= 2
        assert all(c.rank_lower_bound >= 2 for c in found.components)


def test_first_occurrences_orders_by_generation():
    paths = first_occurrences(CANTOR, BlockKind.PANTS, 3)
    assert paths == [(), (0,), (1,)]


@settings(max_examples=200, deadline=None)
@given(presentations(max_states=8), st.data())
def test_occurrence_searches_match_the_unfolding_scan(pres, data):
    """The searches skip most of the unfolding; scanning a prefix of it in
    breadth-first order is the reference."""
    unfolding = list(pres.unfold(max_nodes=600))  # covers the acyclic prefix of 8 states
    after = states_after_cycles(pres)
    for state in set(pres.rules) - after:
        assert _first_path_of(pres, state, after) == next(p for p, s in unfolding if s == state)
    drawn = set(data.draw(st.lists(st.sampled_from(sorted(pres.rules)), max_size=3)))
    for kind in [*BlockKind, None]:
        targets = drawn if kind is None else {s for s in pres.rules if pres.kind(s) is kind}
        scanned = [p for p, s in unfolding if s in targets]
        for count in (1, 2, 3, 5):
            found = _first_paths(pres, targets, count)
            if targets.isdisjoint(after):  # the scan holds every hit
                assert found == scanned[:count]
            else:  # both are prefixes of the hits, and the scan may stop early
                seen = min(count, len(scanned))
                assert len(found) >= seen and found[:seen] == scanned[:seen]
            if kind is not None and len(found) == count:
                assert first_occurrences(pres, kind, count) == found


def test_interchange_along_a_deep_path():
    start = time.perf_counter()
    moved = interchange_normalize(FLUTE, [(0,) * 10_000])
    assert time.perf_counter() - start < 2.0
    # the pulled Pants leads, and the 10,000 Pants above it are unrolled
    assert moved.rules[moved.root] == (BlockKind.PANTS, ("punc", "u0"))
    assert len(moved.rules) == 10_003
    assert moved.rules["u9999"] == (BlockKind.PANTS, ("root", "punc"))


def test_interchange_front_order_and_errors():
    # unrolled nodes are named in breadth-first order, not in front order
    moved = interchange_normalize(CANTOR, [(1, 0), (0,)])
    assert pretty_print(moved).splitlines()[1:-2] == [
        "  root = P(root, root);", "  u0 = P(root, u2);", "  u2 = P(root, root);",
        "  f1 = P(root, f2);", "  f2 = P(root, u0);",
    ]
    # every entry is checked before duplicates are
    with pytest.raises(DecomposeError, match=r"invalid unfolding path \(0, 5\): index 5 at step 1"):
        interchange_normalize(FLUTE, [(0,), (0,), (0, 5)])
    with pytest.raises(DecomposeError, match="duplicate occurrence"):
        interchange_normalize(FLUTE, [(0,), (0,)])
