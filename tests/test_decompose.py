"""Pants decompositions, interchange moves, spines, and essential pants."""

from __future__ import annotations

import importlib
import json
import pickle
import random
import re
import time
import tracemalloc
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings, strategies as st

from endkit import (
    INFINITE,
    BlockKind,
    ClassVerdict,
    ComplexityTooLowError,
    ComponentCensus,
    DecomposeError,
    DecompositionGraph,
    EndkitError,
    OccurrenceInsideCycleError,
    Piece,
    PieceKind,
    PlaneExcludedError,
    PuncturedTorusExcludedInStrictError,
    SurfacePresentation,
    Verdict,
    canonical_finite_type,
    decompose,
    decomposition_to_dot,
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
    splice_annulus,
    standard_presentation,
)
from endkit.decompose import Edge, _complement_census, _first_path_of
from endkit.ends import _pair_verdict
from endkit.presentation import _first_paths, ends_automaton, forward

from conftest import (
    _occurrences, _on_cycles, bench_inputs, census_cores, finite_type_pairs, presentations,
)

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
    # the window is connected, as the essential-pants census assumes
    around: dict[int, list[int]] = {p.id: [] for p in g.pieces}
    for a, _, b, _ in g.edges:
        around[a].append(b)
        around[b].append(a)
    assert not around or len(forward(around, [0])) == len(around)


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
        if pres.rules[state][0] is not BlockKind.ANNULUS:
            kinds.append(pres.rules[state][0])
        state = pres.rules[state][1][0]
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


# (a long annulus run, the surface with the run cut out, a depth)
_ANNULUS_RUN_CASES = [
    (_annulus_run(2000, "a0 a0", "r"), CANTOR, 4000),
    (_annulus_run(2000, "r a0", "a0"), FLUTE, 4000),  # the run closes a lasso
    (_annulus_run(10_000, "a0 a0", "r"), CANTOR, 20_000),
]


def test_long_annulus_runs_are_walked_once():
    # annuli are skipped, so the windows are those of the runs cut out
    for pres, cut, depth in _ANNULUS_RUN_CASES:
        for mode in ("strict", "lenient"):
            start = time.perf_counter()
            window = decompose(pres, mode, depth)
            assert time.perf_counter() - start < 2.0
            assert window == decompose(cut, mode, depth)


def _reference_walk(pres: SurfacePresentation, mode: str = "lenient", depth: int = 8) -> dict:
    """The window walk with a Piece made per piece, method calls per block
    and two passes over the edges to cut it: the oracle for ``decompose``'s
    pieces, edges, open slots, completeness and errors, as the fields of a
    window, the sequences as tuples."""
    if mode not in ("lenient", "strict"):
        raise DecomposeError(f"mode must be 'lenient' or 'strict', got {mode!r}")
    if depth < 0:
        raise DecomposeError(f"depth must be non-negative, got {depth}")
    pres = regularize(pres)
    assert pres.root is not None
    pieces: list[Piece] = []
    edges: list[Edge] = []
    queue: deque[tuple[int, int, str]] = deque()
    exits: dict[str, str | None] = {}  # the run exit of each annulus state walked

    def new_piece(kind: PieceKind) -> int:
        pieces.append(Piece(len(pieces), kind))
        return len(pieces) - 1

    def skip_annuli(state: str) -> str | None:
        # None means the run closes a pure-annulus lasso; each run is walked once
        run = []
        while pres.rules[state][0] is BlockKind.ANNULUS and state not in exits:
            exits[state] = None  # until the exit is found, so a lasso meets None
            run.append(state)
            state = pres.rules[state][1][0]
        end = exits.get(state, state)
        for s in run:
            exits[s] = end
        return end

    def handle(then: str) -> int:
        # a Handle visit: two pants glued along two circles, the walk going on at ``then``
        pa = new_piece(PieceKind.PANTS)
        pb = new_piece(PieceKind.PANTS)
        edges.append((pa, 1, pb, 0))
        edges.append((pa, 2, pb, 1))
        queue.append((pb, 2, then))
        return pa

    def resolve(state: str) -> int:
        # the piece the circle into ``state`` bounds, always at its slot 0
        s = skip_annuli(state)
        if s is None:
            return new_piece(PieceKind.PUNCTURED_DISK)
        if pres.rules[s][0] is BlockKind.HANDLE:
            return handle(pres.rules[s][1][0])
        pid = new_piece(PieceKind.PANTS)
        c1, c2 = pres.rules[s][1]
        queue.append((pid, 1, c1))
        queue.append((pid, 2, c2))
        return pid

    root = skip_annuli(pres.root)
    if root is None:
        raise PlaneExcludedError("the plane admits no decomposition")
    if pres.rules[root][0] is BlockKind.PANTS:
        c1, c2 = pres.rules[root][1]
        left = resolve(c1)
        edges.append((left, 0, resolve(c2), 0))
    else:
        nxt = skip_annuli(pres.rules[root][1][0])
        if nxt is None:
            if mode == "strict":
                raise PuncturedTorusExcludedInStrictError(
                    "the punctured torus needs a one-holed torus piece"
                )
            torus = new_piece(PieceKind.ONE_HOLED_TORUS)
            edges.append((torus, 0, new_piece(PieceKind.PUNCTURED_DISK), 0))
        elif pres.rules[nxt][0] is BlockKind.PANTS:
            c1, c2 = pres.rules[nxt][1]
            left = resolve(c2)
            edges.append((left, 0, handle(c1), 0))
        else:
            p1 = new_piece(PieceKind.PANTS)
            p2 = new_piece(PieceKind.PANTS)
            p3 = new_piece(PieceKind.PANTS)
            edges.extend([(p1, 0, p2, 0), (p1, 1, p2, 1), (p1, 2, p3, 0), (p2, 2, p3, 1)])
            queue.append((p3, 2, pres.rules[nxt][1][0]))
    while queue and len(pieces) < depth:
        pid, slot, state = queue.popleft()
        edges.append((pid, slot, resolve(state), 0))
    n = min(depth, len(pieces))
    opened = [(a, sa) for a, sa, b, _ in edges if a < n <= b]
    opened.extend((pid, slot) for pid, slot, _ in queue if pid < n)
    return dict(
        mode=mode,
        depth=depth,
        pieces=tuple(pieces[:n]),
        edges=tuple(e for e in edges if e[2] < n),
        open_slots=tuple(opened),
        complete=not queue and n == len(pieces),
    )


def _reference_decompose(
    pres: SurfacePresentation, mode: str = "lenient", depth: int = 8
) -> DecompositionGraph:
    return DecompositionGraph(**_reference_walk(pres, mode, depth))

def _outcome(walk, pres, mode, depth):
    try:
        return repr(walk(pres, mode, depth))
    except EndkitError as exc:
        return type(exc), str(exc)


def _assert_walks_agree(pres, modes=("strict", "lenient"), depths=range(71)):
    for mode in modes:
        for depth in depths:
            assert _outcome(decompose, pres, mode, depth) == _outcome(
                _reference_decompose, pres, mode, depth
            ), (mode, depth)


@st.composite
def _grown_cores(draw):
    """A random core, with up to 12 annuli spliced on random child edges."""
    pres = draw(presentations(max_states=8))
    for _ in range(draw(st.integers(0, 12))):
        state = draw(st.sampled_from(sorted(pres.rules)))
        pres = splice_annulus(pres, state, draw(st.integers(0, len(pres.rules[state][1]) - 1)))
    return pres


@settings(max_examples=200, deadline=None)
@given(presentations(max_states=8) | _grown_cores())
def test_decompose_matches_the_reference_walk(pres):
    _assert_walks_agree(pres)


def test_decompose_matches_the_reference_walk_on_the_examples():
    for pres in (LOCH, CANTOR, FLUTE):
        _assert_walks_agree(pres, depths=(1024,))
    for g in range(9):
        for p in range(1, 9):
            pres = parse_presentation(f"surface s finite S(g={g}, b=0, p={p})")
            _assert_walks_agree(pres, depths=(0, 1, 2, 3, 5, 8, 4 * (g + p), 64))
    for pres, _, depth in _ANNULUS_RUN_CASES:
        _assert_walks_agree(pres, depths=(0, 7, depth))


def _reference_outputs(fields: dict) -> tuple[dict, str, str]:
    """The census, the JSON text and the dot text of a window, computed from
    the reference walk's tuples by reading each Piece."""
    counts = Counter(p.kind for p in fields["pieces"])
    census = {
        "pants": counts[PieceKind.PANTS],
        "punctured_disks": counts[PieceKind.PUNCTURED_DISK],
    }
    if counts[PieceKind.ONE_HOLED_TORUS]:
        census["one_holed_tori"] = counts[PieceKind.ONE_HOLED_TORUS]
    payload = {
        "mode": fields["mode"],
        "depth": fields["depth"],
        "complete": fields["complete"],
        "pieces": [{"id": p.id, "kind": p.kind.value} for p in fields["pieces"]],
        "edges": [list(e) for e in fields["edges"]],
        "open_slots": [list(s) for s in fields["open_slots"]],
        "census": census,
    }
    lines = ["graph decomposition {"]
    lines += [f'  p{p.id} [label="{p.kind.value} {p.id}"];' for p in fields["pieces"]]
    lines += [
        f'  p{a} -- p{b} [taillabel="{sa}", headlabel="{sb}"];' for a, sa, b, sb in fields["edges"]
    ]
    lines += [f"  // open: p{pid} slot {slot}" for pid, slot in fields["open_slots"]]
    return census, json.dumps(payload), "\n".join(lines + ["}"])


_SLICES = (slice(None), slice(2), slice(1, None, 2), slice(-3, None), slice(None, None, -1), slice(5, 1))


def _assert_views_agree(pres, modes=("strict", "lenient"), depths=range(71)):
    """The window's census, JSON and dot, and its three sequences under
    ``==``, ``hash``, ``repr``, indexing, slicing and pickle, against the
    reference walk's tuples."""
    for mode in modes:
        for depth in depths:
            try:
                fields = _reference_walk(pres, mode, depth)
            except EndkitError:
                continue  # the errors are compared with the reference walk's above
            window = decompose(pres, mode, depth)
            census, payload, dot = _reference_outputs(fields)
            assert window.census() == census, (mode, depth)
            assert json.dumps(window.to_json()) == payload, (mode, depth)
            assert decomposition_to_dot(window) == dot, (mode, depth)
            built = DecompositionGraph(**fields)
            assert window == built and hash(window) == hash(built)
            assert pickle.loads(pickle.dumps(window)) == window
            for name in ("pieces", "edges", "open_slots"):
                view, rows = getattr(window, name), fields[name]
                assert view == rows and rows == view and not view != rows, (mode, depth, name)
                assert hash(view) == hash(rows) and repr(view) == repr(rows)
                assert len(view) == len(rows) and list(view) == list(rows)
                assert [view[s] for s in _SLICES] == [rows[s] for s in _SLICES]
                if rows:
                    assert (view[0], view[-1]) == (rows[0], rows[-1])
                for protocol in (0, pickle.HIGHEST_PROTOCOL):
                    clone = pickle.loads(pickle.dumps(view, protocol))
                    assert clone == rows and clone == view and hash(clone) == hash(rows)


@settings(max_examples=100, deadline=None)
@given(presentations(max_states=8) | _grown_cores())
def test_window_views_match_the_reference_tuples(pres):
    _assert_views_agree(pres, depths=(0, 1, 2, 3, 5, 8, 13, 21, 34, 70))


def test_window_views_match_the_reference_tuples_on_the_examples():
    for pres in (LOCH, CANTOR, FLUTE):
        _assert_views_agree(pres, depths=(0, 1, 2, 6, 64, 1024))
    for g in range(5):
        for p in range(1, 6):
            pres = parse_presentation(f"surface s finite S(g={g}, b=0, p={p})")
            _assert_views_agree(pres, depths=(0, 1, 3, 4 * (g + p)))
    for pres, _, depth in _ANNULUS_RUN_CASES:
        _assert_views_agree(pres, depths=(0, 7, depth))


def test_a_window_holds_its_pieces_edges_and_slots_as_columns():
    # the Cantor window at depth 10^5: 10^5 pieces, about as many edges, and
    # as many open slots as pieces; a record or tuple per row takes over 5 MB
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        window = decompose(CANTOR, "strict", 10**5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(window.pieces) == 10**5 and len(window.open_slots) == 10**5 + 2
    assert held <= 4 * 2**20, held


@pytest.mark.parametrize("depth", [8.5, "8", None, True, False])
def test_a_depth_that_is_not_an_integer_is_a_decompose_error(depth):
    with pytest.raises(DecomposeError, match=re.escape(f"got {depth!r}")):
        decompose(CANTOR, "strict", depth)


@pytest.mark.parametrize("mode, depth, message", [
    ("x", 8, "mode must be 'lenient' or 'strict', got 'x'"),
    ("strict", -1, "depth must be non-negative, got -1"),
])
def test_a_bad_mode_or_negative_depth_is_a_decompose_error(mode, depth, message):
    with pytest.raises(DecomposeError, match=message):
        decompose(CANTOR, mode, depth)


def test_a_hand_made_window_is_checked():
    disk = Piece(0, PieceKind.PUNCTURED_DISK)
    window = DecompositionGraph("strict", 1, [disk], [], [(0, 0)], False)
    assert window.pieces == (disk,) and window.edges == () and window.open_slots == ((0, 0),)
    assert window.census() == {"pants": 0, "punctured_disks": 1}
    with pytest.raises(DecomposeError, match="pieces must hold pieces numbered"):
        DecompositionGraph("strict", 1, (Piece(1, PieceKind.PANTS),), (), (), True)
    with pytest.raises(DecomposeError, match="edges must hold 4 integers a row"):
        DecompositionGraph("strict", 1, (disk,), ((0, 0, 1),), (), True)


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


# -- rigidity: Kerekjarto type against the spine's proper homotopy type -------
#
# Homeomorphic surfaces have properly homotopy equivalent spines.  On a planar
# surface loops accumulate exactly at the non-isolated ends, so there the two
# comparisons are one: each verdict, Unknown too, matches the other.  Off
# genus 0 the converse fails, and must (a flute and a flute with genus at its
# limit have PHE spines).

_PHE_VERDICT = {
    ClassVerdict.HOMEOMORPHIC: Verdict.YES,
    ClassVerdict.NOT_HOMEOMORPHIC: Verdict.NO,
    ClassVerdict.UNKNOWN: Verdict.UNKNOWN,
}


@st.composite
def _cores_with_a_copy(draw):
    """Random cores of up to 6 states, and the first one again with an
    annulus spliced on one of its edges (the same surface)."""
    cores = draw(st.lists(presentations(max_states=6), min_size=2, max_size=8))
    first = cores[0]
    state = draw(st.sampled_from(sorted(first.rules)))
    slot = draw(st.integers(0, len(first.rules[state][1]) - 1))
    return cores + [splice_annulus(first, state, slot)]


@settings(max_examples=150, deadline=None)
@given(_cores_with_a_copy())
def test_homeomorphic_surfaces_have_phe_spines(cores):
    spines = [spine(c) for c in cores]
    assert kerekjarto(cores[0], cores[-1]).verdict is not ClassVerdict.NOT_HOMEOMORPHIC
    for i in range(len(cores)):
        for j in range(i, len(cores)):
            if kerekjarto(cores[i], cores[j]).verdict is ClassVerdict.HOMEOMORPHIC:
                assert graph_phe_equal(spines[i], spines[j]) is Verdict.YES, (i, j)


@settings(max_examples=150, deadline=None)
@given(_cores_with_a_copy())
def test_on_planar_pairs_homeomorphy_and_spine_phe_agree(cores):
    planar = [c for c in cores if genus(c) == 0]
    spines = [spine(c) for c in planar]
    for i in range(len(planar)):
        for j in range(i, len(planar)):
            verdict = kerekjarto(planar[i], planar[j]).verdict
            assert graph_phe_equal(spines[i], spines[j]) is _PHE_VERDICT[verdict], (i, j)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spine_cores_are_their_own_closures_on_the_census(seed):
    """`graph_phe_equal` reads a spine's core as its own closure, one test
    per component: over the census cores that is the closure counted
    again, so every verdict, over all pairs, is the one a recount gives."""
    spines = [spine(core) for core in census_cores(seed)]
    counted = []
    for found in spines:
        auto = found.automaton
        marks = frozenset(i for i, name in enumerate(auto.names) if name in found.core_states)
        counted.append(_occurrences(auto, marks))
        assert [n != 0 for n in counted[-1]] == [auto.names[c[0]] in found.core_states for c in auto.components]
    for i, a in enumerate(spines):
        for j in range(i, len(spines)):
            b = spines[j]
            recount = Verdict.NO if a.rank != b.rank else _pair_verdict(
                a.automaton, counted[i], b.automaton, counted[j])[0]
            assert graph_phe_equal(a, b) is recount, (i, j)


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


def _reference_complement_census(
    g: DecompositionGraph, removed: int
) -> list[ComponentCensus]:
    """The census with the adjacency rebuilt as a dict of sets per removed
    piece, its components in piece order: the oracle for ``_complement_census``."""
    open_pids = {pid for pid, _ in g.open_slots}
    adjacency: dict[int, set[int]] = {
        p.id: set() for p in g.pieces if p.id != removed
    }
    for a, _, b, _ in g.edges:
        if removed not in (a, b):
            adjacency[a].add(b)
            adjacency[b].add(a)
    kind_of = {p.id: p.kind for p in g.pieces}
    seen: set[int] = set()
    out: list[ComponentCensus] = []
    for start in adjacency:
        if start in seen:
            continue
        comp = set(forward(adjacency, [start]))
        seen |= comp
        pants = sum(1 for pid in comp if kind_of[pid] is PieceKind.PANTS)
        tori = sum(1 for pid in comp if kind_of[pid] is PieceKind.ONE_HOLED_TORUS)
        pds = len(comp) - pants - tori
        out.append(ComponentCensus(
            pants=pants,
            punctured_disks=pds,
            one_holed_tori=tori,
            rank_lower_bound=1 + pants + tori,
            exact=not (comp & open_pids),
        ))
    return out


def _assert_censuses_agree(window):
    around: list[list[int]] = [[] for _ in window.pieces]
    for a, _, b, _ in window.edges:
        around[a].append(b)
        around[b].append(a)
    for piece in window.pieces:
        if piece.kind is PieceKind.PANTS:
            assert _complement_census(window, piece.id, around) == _reference_complement_census(
                window, piece.id
            ), piece.id


@settings(max_examples=200, deadline=None)
@given(presentations(max_states=8) | _grown_cores(), st.sampled_from((1, 2, 5, 13, 64)))
def test_complement_census_matches_the_reference(pres, depth):
    try:
        window = decompose(pres, "lenient", depth)
    except PlaneExcludedError:
        return
    _check_graph(window)
    _assert_censuses_agree(window)


def test_complement_census_matches_the_reference_on_the_bench_shapes():
    inputs = bench_inputs()
    rng = random.Random(5)
    for i in range(40):
        found = find_essential_pants(parse_presentation(inputs.essential_pants_case(rng, i % 5)))
        _check_graph(found.window)
        _assert_censuses_agree(found.window)


def test_first_occurrences_orders_by_generation():
    paths = first_occurrences(CANTOR, BlockKind.PANTS, 3)
    assert paths == [(), (0,), (1,)]


@settings(max_examples=200, deadline=None)
@given(presentations(max_states=8), st.data())
def test_occurrence_searches_match_the_unfolding_scan(pres, data):
    """The searches skip most of the unfolding; scanning a prefix of it in
    breadth-first order is the reference."""
    unfolding = list(pres.unfold(max_nodes=600))  # covers the acyclic prefix of 8 states
    after = _after_cycles(pres)
    auto = ends_automaton(pres)
    for state in set(pres.rules) - after:
        assert _first_path_of(pres, state, auto) == next(p for p, s in unfolding if s == state)
    drawn = set(data.draw(st.lists(st.sampled_from(sorted(pres.rules)), max_size=3)))
    for kind in [*BlockKind, None]:
        targets = drawn if kind is None else {s for s in pres.rules if pres.rules[s][0] is kind}
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


def _after_cycles(pres: SurfacePresentation) -> set[str]:
    """States on or after a rule-graph cycle, read off the states."""
    succ = {s: children for s, (_, children) in pres.rules.items()}
    return set(forward(succ, _on_cycles(succ)))


@settings(max_examples=200, deadline=None)
@given(presentations(max_states=8))
def test_named_fronts_refuse_exactly_the_states_on_or_after_cycles(pres):
    """A state name in the front is checked by whether a cycle reaches it:
    a state on or after a cycle recurs without end, and any other is pulled
    from its first unfolding path."""
    unfolding = list(pres.unfold(max_nodes=600))  # covers the acyclic prefix of 8 states
    after = _after_cycles(pres)
    for state in pres.rules:
        if state in after:
            with pytest.raises(OccurrenceInsideCycleError, match=f"state {state!r} recurs"):
                interchange_normalize(pres, [state])
        else:
            first = next(p for p, s in unfolding if s == state)
            assert interchange_normalize(pres, [state]) == interchange_normalize(pres, [first])


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


@pytest.mark.parametrize("entry", [(0.0,), ("0",), None, 5, (True,), (0, None)])
def test_interchange_refuses_an_entry_that_is_no_path_or_name(entry):
    """(0.0,), ("0",), None and 5 raised a bare TypeError, and (True,) was
    read as (1,)."""
    with pytest.raises(DecomposeError, match="invalid unfolding path"):
        interchange_normalize(FLUTE, [entry])


def test_fresh_names_step_past_the_taken_ones():
    pres = parse_presentation("surface s { u0 = P(f1, u0); f1 = A(f1) }")
    moved = interchange_normalize(pres, [(0,)])
    assert moved.rules["u0_"] == (BlockKind.PANTS, ("f1", "u0"))
    assert moved.root == "f1_" and moved.rules["f1_"] == (BlockKind.ANNULUS, ("u0_",))
    assert kerekjarto(pres, moved).verdict is ClassVerdict.HOMEOMORPHIC
