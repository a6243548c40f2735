"""Ends spaces: counting, derivative analysis, and the expression algebra."""

from __future__ import annotations

import contextlib
import copy
import random
import re
import sys
import time
from collections.abc import Iterable, Sequence
from typing import AbstractSet

import pytest
from hypothesis import example, given, settings, strategies as st

from endkit import (
    INFINITE,
    BlockKind,
    Cantor,
    CBReport,
    Cardinality,
    EndkitError,
    EndsCount,
    EndsError,
    InvalidEndExprError,
    NotConvertibleError,
    Pt,
    Seq,
    Union,
    NotFiniteTypeError,
    SurfacePresentation,
    Verdict,
    canonical_finite_type,
    cb_report,
    ends_automaton,
    ends_count,
    expr_cb_report,
    find_essential_pants,
    format_end_expr,
    genus,
    graph_phe_equal,
    is_finite_type,
    kerekjarto,
    normalize_end_expr,
    pair_homeomorphic,
    parse_end_expr,
    parse_presentation,
    realize,
    spine,
    splice_annulus,
    standard_presentation,
    to_end_expr,
    validate_end_expr,
)
import endkit.ends
import endkit.presentation
from endkit.ends import (
    EndExpr,
    EndsAutomaton,
    _cb,
    _cb_data,
    _fold,
    _fold_components,
    _Forms,
    _has_nonplanar,
    _key,
    _pair_verdict,
    _to_expr,
    _walk,
)
from endkit._record import replace
from endkit.presentation import ACYCLIC, BRANCHING, CYCLE, Successors, forward

from conftest import (
    _occurrences, _on_cycles, backward, bench_inputs, census_cores, end_exprs, named,
    presentations, reference_sccs, shaped_cycles, successor_maps,
)

LOCH = parse_presentation("surface loch_ness { root = H(root) }")
FLUTE = parse_presentation("surface flute { root = P(root, punc); punc = A(punc) }")
CANTOR = parse_presentation("surface cantor { root = P(root, root) }")
BLOOM = parse_presentation("surface bloom { root = P(h, root); h = H(h) }")
MIXED = parse_presentation(
    "surface mixed { a = P(a, b); b = P(a, c); c = A(c) }"
)


def test_ends_count_examples():
    assert ends_count(LOCH) == EndsCount(Cardinality.FINITE, 1)
    assert ends_count(FLUTE).cardinality is Cardinality.COUNTABLY_INFINITE
    assert ends_count(CANTOR).cardinality is Cardinality.UNCOUNTABLE
    assert ends_count(standard_presentation(2, 5)) == EndsCount(Cardinality.FINITE, 5)


def test_nonplanar_subspace_counts():
    assert ends_count(LOCH, marked="nonplanar_only") == EndsCount(Cardinality.FINITE, 1)
    assert ends_count(CANTOR, marked="nonplanar_only") == EndsCount(Cardinality.FINITE, 0)
    assert ends_count(FLUTE, marked="nonplanar_only") == EndsCount(Cardinality.FINITE, 0)
    # every suffix of every end keeps a handle in reach, so all ends count
    full = ends_count(BLOOM)
    assert full.cardinality is Cardinality.COUNTABLY_INFINITE
    assert ends_count(BLOOM, marked="nonplanar_only") == full


def _count_ends_by_walking(automaton):
    """Test-local route: DFS over choice paths; a repeated non-forced state
    means infinitely many ends, a fully forced subtree means exactly one."""
    succ = named(automaton)
    forced: dict[str, bool] = {}

    def is_forced(state, trail):
        if state in forced:
            return forced[state]
        if state in trail:
            return True
        trail.add(state)
        result = len(succ[state]) == 1 and all(is_forced(c, trail) for c in succ[state])
        trail.discard(state)
        forced[state] = result
        return result

    def walk(state, path):
        if is_forced(state, set()):
            return 1
        if state in path:
            return None
        total = 0
        for child in succ[state]:
            sub = walk(child, path | {state})
            if sub is None:
                return None
            total += sub
        return total

    return walk(automaton.names[0], frozenset())


@settings(max_examples=200)
@given(presentations())
def test_finite_counts_against_walking_oracle(pres):
    auto = ends_automaton(pres)
    walked = _count_ends_by_walking(auto)
    counted = ends_count(auto)
    if walked is None:
        assert counted.cardinality is not Cardinality.FINITE
    else:
        assert counted == EndsCount(Cardinality.FINITE, walked)


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=8))
@example(parse_presentation("surface doubled { r = P(a, a); a = P(t, h); h = H(t); t = A(t) }"))
@example(parse_presentation("surface late { r = A(x); x = P(x, h); h = H(t); t = A(t) }"))
def test_occurrence_counts_against_walking_oracle(pres):
    """Finite type means finite genus and finitely many ends; then the
    canonical triple is (g, 0, ends) and the spine rank 2g + ends - 1."""
    g, walked, rank = genus(pres), _count_ends_by_walking(ends_automaton(pres)), spine(pres).rank
    finite = g != INFINITE and walked is not None
    assert is_finite_type(pres) == finite
    if finite:
        assert canonical_finite_type(pres) == (g, 0, walked)
        assert rank == 2 * g + walked - 1
    else:
        assert rank == INFINITE
        with pytest.raises(NotFiniteTypeError):
            canonical_finite_type(pres)


def test_cb_examples():
    loch = cb_report(ends_automaton(LOCH))
    assert (loch.rank, loch.degree, loch.has_perfect_kernel) == (1, 1, False)
    assert loch.profile == (1,)

    cantor = cb_report(ends_automaton(CANTOR))
    assert (cantor.rank, cantor.degree, cantor.has_perfect_kernel) == (0, 0, True)
    assert cantor.profile == ()
    assert cb_report(ends_automaton(CANTOR), marked="nonplanar_only").cardinality == EndsCount(
        Cardinality.FINITE, 0
    )

    flute = cb_report(ends_automaton(FLUTE))
    assert (flute.rank, flute.degree) == (2, 1)
    assert flute.profile == (None, 1)
    assert not flute.has_perfect_kernel

    # same end space as the flute, marked non-planar throughout
    bloom = cb_report(ends_automaton(BLOOM))
    assert (bloom.rank, bloom.degree) == (2, 1)
    assert bloom.invariant_key() == flute.invariant_key()


def test_rank_cutoff_flag():
    tower = Pt(False)
    for _ in range(20):
        tower = Seq(tower, False)
    surf = realize(0, tower)
    low = cb_report(ends_automaton(surf), rank_cutoff=8)
    assert low.rank == 8 and low.rank_exceeded
    exact = cb_report(ends_automaton(surf), rank_cutoff=64)
    assert exact.rank == expr_cb_report(tower).rank and not exact.rank_exceeded


# -- the derivative chain: the reference for the condensation fold ---------
#
# The library computes counts and CB data in one pass over the condensation,
# and reads marked subspaces off it.  These compute the same data step by
# step on pruned copies of the automaton, one full subspace restriction per
# derivative step, and count root paths with Kahn's algorithm: slow, but
# independent of the fold.

def _compile(succ: Successors, nonplanar: AbstractSet[str], components: list[list[str]]) -> EndsAutomaton:
    """The tests' compile: a numbered automaton over ``succ``, its first key
    the root, with ``components``, given by name in reverse topological
    order; each component's exits and shape are read off the edges."""
    number = {s: i for i, s in enumerate(succ)}
    transitions = [tuple(number[c] for c in cs) for cs in succ.values()]
    numbered = [[number[s] for s in c] for c in components]
    component_of = [0] * len(number)
    for i, c in enumerate(numbered):
        for s in c:
            component_of[s] = i
    exits: list[list[int]] = [[] for _ in numbered]
    shapes = [ACYCLIC] * len(numbered)
    for s, children in enumerate(transitions):
        i = component_of[s]
        inside = [c for c in children if component_of[c] == i]
        exits[i] += [component_of[c] for c in children if component_of[c] != i]
        if inside:
            shapes[i] = BRANCHING if len(inside) > 1 else shapes[i] or CYCLE
    marked = frozenset(number[s] for s in nonplanar if s in number)
    pants = frozenset(s for s, cs in enumerate(transitions) if len(cs) == 2)
    table = EndsAutomaton(list(succ), transitions, marked, numbered, exits, shapes, b"", b"", 0, 0)
    hs, ps = _occurrences(table, marked), _occurrences(table, pants)
    return EndsAutomaton(list(succ), transitions, marked, numbered, exits, shapes,
                         bytes(map(bool, hs)), bytes(map(bool, ps)), hs[-1] if hs else 0,
                         ps[-1] if ps else 0)


_EMPTY = _compile({}, frozenset(), [])


def _nonplanar(space: EndsAutomaton) -> set[str]:
    """The names of the Handle states."""
    return {space.names[s] for s in space.nonplanar_states}


def _numbers(space: EndsAutomaton, marks: Iterable[str]) -> frozenset[int]:
    """The numbers of the states named in ``marks``."""
    marks = set(marks)
    return frozenset(i for i, name in enumerate(space.names) if name in marks)


def _restrict(space: EndsAutomaton, targets: Iterable[str]) -> EndsAutomaton:
    """The subspace of paths that keep some target reachable forever.

    The kept states are closed under predecessors, then under successors
    from the root, so they are a union of components of ``space``: the
    cycles inside are the parent's and so are the components, compiled
    again over the kept edges.
    """
    if not space.names:
        return _EMPTY
    succ, names = named(space), space.names
    keep = backward(succ, targets)
    inside = {s: tuple(c for c in cs if c in keep) for s, cs in succ.items() if s in keep}
    alive = backward(inside, _on_cycles(succ) & keep)
    if names[0] not in alive:
        return _EMPTY
    live = {s: tuple(c for c in inside[s] if c in alive) for s in alive}
    transitions = {s: live[s] for s in forward(live, [names[0]])}
    components = [[names[s] for s in c] for c in space.components]
    return _compile(transitions, _nonplanar(space), [c for c in components if c[0] in transitions])


def _spaces(auto: EndsAutomaton) -> dict[str, EndsAutomaton]:
    """The full ends space and its non-planar subspace, by ``marked`` mode."""
    return {"all": auto, "nonplanar_only": _restrict(auto, _nonplanar(auto))}


def _derivative(space: EndsAutomaton) -> EndsAutomaton:
    """Subspace of non-isolated ends: paths that forever keep a branching
    state reachable."""
    return _restrict(space, [s for s, cs in named(space).items() if len(cs) >= 2])


def path_counts(succ: Successors, root: str, through: Iterable[str]) -> dict[str, int]:
    """Number of paths from ``root`` to each state that run inside
    ``through`` and stop at the first state outside it.

    ``through`` must induce an acyclic subgraph (Kahn's order over it).
    """
    indeg = dict.fromkeys(through, 0)
    for state in indeg:
        for child in succ[state]:
            if child in indeg:
                indeg[child] += 1
    counts = {root: 1}
    todo = [s for s, d in indeg.items() if d == 0]
    done = 0
    while todo:
        state = todo.pop()
        done += 1
        n = counts.get(state, 0)
        for child in succ[state]:
            if n:
                counts[child] = counts.get(child, 0) + n
            if child in indeg:
                indeg[child] -= 1
                if indeg[child] == 0:
                    todo.append(child)
    if done != len(indeg):
        raise AssertionError("path-count region unexpectedly cyclic")
    return counts


@settings(max_examples=200)
@given(successor_maps(acyclic=True), st.data())
def test_path_counts_against_enumeration(succ, data):
    root = data.draw(st.sampled_from(sorted(succ)))
    through = set(data.draw(st.lists(st.sampled_from(sorted(succ)))))
    expected: dict[str, int] = {}
    paths = [root]  # last state of every root path that may still extend
    for last in paths:
        expected[last] = expected.get(last, 0) + 1
        if last in through:
            paths.extend(succ[last])
    assert path_counts(succ, root, through) == expected


def test_path_counts_rejects_cycles():
    with pytest.raises(AssertionError):
        path_counts({"a": ("b",), "b": ("a",)}, "a", {"a", "b"})


def _batch_size(old: EndsAutomaton, new: EndsAutomaton) -> int | None:
    """Number of ends removed by one derivative step, None when infinite.

    A path that leaves ``new`` never returns, and it has left the branching
    behind by the time it reaches a cycle of ``old``: each root path of
    ``old`` that leaves ``new`` and first meets a cycle there is one removed
    end.  Paths leaving after a cycle of ``new`` come in infinite numbers.
    """
    old_succ, new_succ = named(old), named(new)
    old_cyclic = _on_cycles(old_succ)
    pumped = set(forward(new_succ, _on_cycles(new_succ)))
    if any(c not in new_succ for s in pumped for c in old_succ[s]):
        return None
    landing = old_cyclic - new_succ.keys()
    if any(len(old_succ[s]) >= 2 for s in forward(old_succ, landing)):
        raise AssertionError("removed subspace must have finitely many ends")
    paths = path_counts(old_succ, old.names[0], old_succ.keys() - old_cyclic - pumped)
    return sum(paths.get(s, 0) for s in landing)


def _ends_count_space(space: EndsAutomaton) -> EndsCount:
    if not space.names:
        return EndsCount(Cardinality.FINITE, 0)
    succ = named(space)
    scc_of = {space.names[s]: i for i, c in enumerate(space.components) for s in c}
    for s, cs in succ.items():
        if sum(1 for c in cs if scc_of[c] == scc_of[s]) >= 2:
            return EndsCount(Cardinality.UNCOUNTABLE)
    cyclic = _on_cycles(succ)
    if any(len(succ[s]) >= 2 for s in forward(succ, cyclic)):
        return EndsCount(Cardinality.COUNTABLY_INFINITE)
    # deterministic beyond the cyclic region, so each entry is one end
    counts = path_counts(succ, space.names[0], succ.keys() - cyclic)
    return EndsCount(Cardinality.FINITE, sum(n for s, n in counts.items() if s in cyclic))


def _cb_space(space: EndsAutomaton, rank_cutoff: int) -> CBReport:
    cardinality = _ends_count_space(space)
    profile: list[int | None] = []
    nxt = _derivative(space)
    while set(nxt.names) != set(space.names) and len(profile) < rank_cutoff:
        profile.append(_batch_size(space, nxt))
        space, nxt = nxt, _derivative(nxt)
    # a space that still shrinks is not empty, so its degree is 0
    exceeded = set(nxt.names) != set(space.names)
    empty = not space.names
    degree = profile[-1] if empty and profile else 0
    assert degree is not None
    return CBReport(
        rank=len(profile),
        degree=degree,
        has_perfect_kernel=not (exceeded or empty),
        cardinality=cardinality,
        profile=tuple(profile),
        rank_exceeded=exceeded,
    )


CUTOFFS = (0, 1, 2, 16, 10**4)


def _assert_fold_matches_derivative_chain(pres: SurfacePresentation) -> None:
    auto = ends_automaton(pres)
    for marked, space in _spaces(auto).items():
        assert ends_count(auto, marked=marked) == _ends_count_space(space)
        for cutoff in CUTOFFS:
            assert cb_report(auto, marked, cutoff) == _cb_space(space, cutoff)


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=8))
def test_fold_matches_derivative_chain(pres):
    _assert_fold_matches_derivative_chain(pres)


TAIL_AND_CANTOR = "t = A(t); c = P(c, c)"  # a puncture t, a planar Cantor set c


@pytest.mark.parametrize(
    "rules, profile",
    [
        (f"r = P(t, c); {TAIL_AND_CANTOR}", (1,)),
        (f"r = P(y, c); y = P(t, t); {TAIL_AND_CANTOR}", (2,)),
        (f"r = P(x, x); x = P(t, c); {TAIL_AND_CANTOR}", (2,)),
        (f"r = P(s, c); s = P(t, s); {TAIL_AND_CANTOR}", (None, 1)),
        ("r = H(x); x = P(t, c); t = A(t); c = H(d); d = P(c, c)", (1,)),
    ],
    ids=["one", "pair", "doubled", "flute", "nonplanar-cantor"],
)
def test_finite_batches_beside_a_surviving_derivative(rules, profile):
    report = cb_report(ends_automaton(parse_presentation(f"surface s {{ {rules} }}")))
    assert report.profile == profile
    assert (report.rank, report.degree, report.has_perfect_kernel) == (len(profile), 0, True)


def _assert_marked_data_matches_restriction(auto: EndsAutomaton, marks: set[str]) -> None:
    """The library reads the marked subspace off the parent's condensation;
    the reference prunes a copy and runs the derivative chain on it."""
    report = _cb_space(_restrict(auto, marks), 10**4)
    last = report.profile[-1] if report.profile else 0
    expected = (report.rank, last, report.has_perfect_kernel, report.cardinality)
    assert _cb_data(auto, _closure(auto, marks)) == expected


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=8), st.data())
def test_marked_subspaces_match_restriction(pres, data):
    auto = ends_automaton(pres)
    states = sorted(auto.names)
    drawn = data.draw(st.sets(st.sampled_from(states)))
    for marks in (drawn, set(), set(states)):
        _assert_marked_data_matches_restriction(auto, marks)


@given(presentations())
def test_subspaces_inherit_the_condensation(pres):
    auto = ends_automaton(pres)
    spaces = []
    for space in _spaces(auto).values():
        while True:
            spaces += [space, _restrict(space, _nonplanar(auto))]
            nxt = _derivative(space)
            if set(nxt.names) == set(space.names):
                break
            space = nxt
    for space in spaces:
        succ, names = named(space), space.names
        components = [[names[s] for s in c] for c in space.components]
        assert sorted(map(sorted, components)) == sorted(map(sorted, reference_sccs(succ)))
        position = {s: i for i, c in enumerate(components) for s in c}
        for s, children in succ.items():
            assert all(position[c] <= position[s] for c in children)
        assert shaped_cycles(space) == _on_cycles(succ)


# -- reference normal form: the route the intern table replaced ------------
#
# The library folds normal forms into bags of interned ids.  The reference
# keeps every normal form as a public tree and rebuilds it at each node: the
# flattened parts of a union are re-keyed and re-sorted, absorption scans the
# sibling towers' keys, and a pair compares two keys.  Quadratic on combs,
# but independent of the table.


def _reference_normal(node: EndExpr, kids: list[EndExpr]) -> EndExpr:
    """Normal form of ``node`` whose children have normal forms ``kids``."""
    if isinstance(node, (Pt, Cantor)):
        return node
    if isinstance(node, Seq):
        element = kids[0]
        if isinstance(element, Union):  # sorted already: drop the repeats
            parts = tuple({_key(p): p for p in element.parts}.values())
            element = parts[0] if len(parts) == 1 else Union(parts)
        if isinstance(element, Cantor) and element.nonplanar == node.limit_nonplanar:
            return element
        return Seq(element, node.limit_nonplanar)
    if len(kids) < 2:
        if not kids:
            raise InvalidEndExprError("empty union denotes no space")
        return kids[0]
    flat = [q for k in kids for q in (k.parts if isinstance(k, Union) else (k,))]
    keyed = [(_key(p), p) for p in flat]
    elements = [k[2:] for k, p in keyed if isinstance(p, Seq)]
    out: list[tuple[tuple, EndExpr]] = []
    seen_cantor: set[bool] = set()
    for k, p in keyed:
        n = len(k)
        if elements and any(t[i:i + n] == k for t in elements for i in range(0, len(t) - n + 1, 2)):
            continue  # a repeated piece of a sibling tower
        if isinstance(p, Cantor):
            if p.nonplanar in seen_cantor:
                continue
            seen_cantor.add(p.nonplanar)
        out.append((k, p))
    out.sort(key=lambda kp: kp[0])
    return out[0][1] if len(out) == 1 else Union(tuple(p for _, p in out))


def _reference_to_expr(space: EndsAutomaton, marked: AbstractSet[str]) -> EndExpr:
    """The normal form, with the ends inside the mark closure ``marked`` (a
    set of states) marked."""

    def expr(shape: int, i: int, kids: list[EndExpr]) -> EndExpr:
        if shape == BRANCHING and kids:
            raise NotConvertibleError("component mixes internal branching with exits")
        in_marked = marked.issuperset(space.names[s] for s in space.components[i])
        if shape == CYCLE and not kids:
            return Pt(in_marked)
        if shape == BRANCHING:
            return Cantor(in_marked)
        body = _reference_normal(Union(tuple(kids)), kids)
        return body if shape == ACYCLIC else _reference_normal(Seq(body, in_marked), [body])

    return _fold_components(space, expr)


def _reference_pair_verdict(space_a, marks_a, space_b, marks_b) -> tuple[Verdict, str | None]:
    """Every layer in turn, the canonical forms compared on every pair; a
    label only on a Yes."""
    marked_a = backward(named(space_a), marks_a)
    marked_b = backward(named(space_b), marks_b)
    flags_a, flags_b = _flags(space_a, marked_a), _flags(space_b, marked_b)
    spaces_differ = _cb_data(space_a) != _cb_data(space_b)
    if spaces_differ or _cb_data(space_a, flags_a) != _cb_data(space_b, flags_b):
        return Verdict.NO, None
    if _bfs_canonical_form(space_a, flags_a) == _bfs_canonical_form(space_b, flags_b):
        return Verdict.YES, "identical-presentation"
    try:
        expr_a = _reference_to_expr(space_a, marked_a)
        expr_b = _reference_to_expr(space_b, marked_b)
    except NotConvertibleError:
        return Verdict.UNKNOWN, None
    if _key(expr_a) == _key(expr_b):
        return Verdict.YES, "end-expression-normal-form"
    return Verdict.NO, None


def _bfs_canonical_form(space: EndsAutomaton, flags: list) -> tuple:
    """The canonical form the numbering replaced, the differential oracle
    for the pair verdict's guard: states relabelled by breadth-first
    discovery order from the root (child order preserved), each with its
    component's flag."""
    succ, names = named(space), space.names
    flag_of = {names[s]: flags[i] != 0 for i, c in enumerate(space.components) for s in c}
    order = forward(succ, [names[0]])
    index = {s: i for i, s in enumerate(order)}
    return tuple((tuple(index[c] for c in succ[s]), flag_of[s]) for s in order)


def _flags(space: EndsAutomaton, closure: AbstractSet[str]) -> list[bool]:
    """A mark closure, given as a set of state names, flagged per component."""
    return [space.names[c[0]] in closure for c in space.components]


def _closure(space: EndsAutomaton, marks: Iterable[str]) -> list:
    """The mark closure of the states named in ``marks`` as the library
    reads it: the components with a non-zero occurrence count, as flags."""
    return bytes(map(bool, _occurrences(space, _numbers(space, marks))))


def _reference_text(auto: EndsAutomaton) -> str:
    try:
        expr = _reference_to_expr(auto, backward(named(auto), _nonplanar(auto)))
    except NotConvertibleError:
        return "not convertible"
    return format_end_expr(expr)


@settings(max_examples=400)
@given(end_exprs(depth=4))
def test_normalize_matches_the_reference_fold(e):
    assert format_end_expr(normalize_end_expr(e)) == format_end_expr(_fold(e, _reference_normal))


# -- the folds' fast paths: unions with no tower, and shared atom bags -----
#
# A union with no Seq summand has nothing to absorb: `_Forms.union` returns
# its merged bag with each Cantor once, unsorted.  An atom's bag is one
# shared dict per table, so no fold, union or verdict may write to a bag.


@st.composite
def _tower_free_exprs(draw, depth: int = 3) -> EndExpr:
    """Pt and Cantor atoms under nested Unions, no Seq: each union of it
    takes the no-tower path, and Cantor repeats are likely."""
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return draw(st.sampled_from((Pt(False), Pt(True), Cantor(False), Cantor(True))))
    return Union(tuple(draw(_tower_free_exprs(depth - 1)) for _ in range(draw(st.integers(1, 4)))))


@settings(max_examples=400)
@given(_tower_free_exprs())
@example(Union((Cantor(False), Pt(True), Cantor(False))))
def test_folds_union_without_towers_matches_the_reference_normal(e):
    assert format_end_expr(normalize_end_expr(e)) == format_end_expr(_fold(e, _reference_normal))
    forms = _Forms()

    def bag(node: EndExpr, kids: list[dict[int, int]]) -> dict[int, int]:
        return forms.union(kids) if kids else forms.atom(isinstance(node, Cantor), node.nonplanar)

    assert all(m == 1 for i, m in _fold(e, bag).items() if forms.nodes[i][0] == 1)  # each Cantor once


def test_folds_share_atom_bags_that_stay_interned(monkeypatch):
    """Every fold, pair verdict, `to_end_expr` and `normalize_end_expr` in one
    table: each shared atom bag is still ``{its id: 1}`` after all of them,
    and every answer is the one fresh tables give."""
    inputs = bench_inputs()

    def answers() -> list:
        surfaces = census_cores(0)[:60] + [inputs.comb(51), inputs.cantor_marked(50), inputs.seq_tower(8),
                                           inputs.chain(50), MIXED, FLUTE]
        out = []
        for p, q in zip(surfaces, surfaces[1:] + surfaces[:1]):
            a = ends_automaton(p)
            try:
                expr = to_end_expr(a)
            except NotConvertibleError:
                out.append(None)
            else:
                out += [format_end_expr(expr), format_end_expr(normalize_end_expr(Union((expr, expr))))]
            out += [kerekjarto(p, q), graph_phe_equal(spine(p), spine(q))]
            out += [pair_homeomorphic(a, ends_automaton(q))]
            out += [cb_report(a), cb_report(a, marked="nonplanar_only")]
        return out

    fresh = answers()
    table = _Forms()
    monkeypatch.setattr(endkit.ends, "_Forms", lambda: table)
    assert answers() == fresh
    assert len(table.atoms) == 4
    for (cantor, mark), bag in table.atoms.items():
        assert bag == {table.ids[int(cantor), mark, ()]: 1}


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=8), presentations(max_states=8), st.data())
def test_to_end_expr_and_pair_verdicts_match_the_reference_route(p, q, data):
    spliced = splice_annulus(p, p.root, 0)  # a copy that differs in presentation only
    autos = [ends_automaton(x) for x in (p, q, spliced)]
    for auto in autos:
        try:
            text = format_end_expr(to_end_expr(auto))
        except NotConvertibleError:
            text = "not convertible"
        assert text == _reference_text(auto)
    a, b, c = autos
    marks = data.draw(st.sets(st.sampled_from(sorted(a.names))))
    for x, mx, y, my in [
        (a, _nonplanar(a), b, _nonplanar(b)),
        (a, _nonplanar(a), c, _nonplanar(c)),
        (a, marks, c, marks),
        (b, _nonplanar(b), a, marks),
    ]:
        verdict = _pair_verdict(x, _closure(x, mx), y, _closure(y, my))
        assert verdict == _reference_pair_verdict(x, mx, y, my)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_canonical_form_is_equal_where_the_relabelling_was_on_the_census(seed):
    """Over the census cores, all pairs: the numbered transitions with one
    flag per component, what the pair verdict's guard compares, are equal
    exactly where the breadth-first relabelling they replaced is, under the
    non-planar closure `kerekjarto` reads and the core `graph_phe_equal`
    reads, so ``identical-presentation`` decides the same pairs."""
    spines = [spine(core) for core in census_cores(seed)]
    for closure in ("nonplanar", "core"):
        new, old = [], []
        for found in spines:
            auto = found.automaton
            if closure == "nonplanar":
                flags = [n != 0 for n in _occurrences(auto, auto.nonplanar_states)]
            else:
                flags = [auto.names[c[0]] in found.core_states for c in auto.components]
            new.append((tuple(auto.transitions), tuple(flags)))
            old.append(_bfs_canonical_form(auto, flags))
        assert len(set(new)) == len(set(old)) == len(set(zip(new, old))) < len(spines)


# -- reference condensation fold: the general rule at every component -----


def _reference_fold(space: EndsAutomaton, combine, within: list[bool] | None = None):
    """_fold_components over the states, not the compiled table: every
    component's exits and shape (on no cycle, a cycle, or branching) are read
    off the states' successor map by the general rule, and every kept
    component calls ``combine``."""
    succ, names = named(space), space.names
    cyclic = _on_cycles(succ)
    value_of: dict = {}
    for i, members in enumerate(space.components):
        if within is not None and not within[i]:
            continue
        scc = [names[s] for s in members]
        members = set(scc)
        kids = [value_of[c] for s in sorted(scc) for c in succ[s] if c in value_of]
        if scc[0] not in cyclic:
            if not kids:
                continue
            shape = ACYCLIC
        elif any(sum(c in members for c in succ[s]) >= 2 for s in scc):
            shape = BRANCHING
        else:
            shape = CYCLE
        value = combine(shape, i, kids)
        for s in scc:
            value_of[s] = value
    return value_of.get(names[0])


def _fold_results(auto: EndsAutomaton, marks: Iterable[str] | None = None) -> tuple:
    """CB data within all states, the closure of ``marks`` (the non-planar
    states by default) and no state; then the `_to_expr` bag of that
    closure, with its intern table."""
    closure = _closure(auto, _nonplanar(auto) if marks is None else marks)
    cb = [_cb_data(auto, within) for within in (None, closure, [False] * len(closure))]
    forms = _Forms()
    try:
        bag = _to_expr(auto, closure, forms)
    except NotConvertibleError:
        bag = None
    return cb, bag, forms.nodes


def _assert_fold_matches_reference(auto: EndsAutomaton, marks: Iterable[str] | None = None):
    got = _fold_results(auto, marks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(endkit.ends, "_fold_components", _reference_fold)
        assert got == _fold_results(auto, marks)


@settings(max_examples=500, deadline=None)
@given(presentations(max_states=8))
def test_fold_matches_the_reference_fold(pres):
    _assert_fold_matches_reference(ends_automaton(pres))


def _reference_occurrences(succ: Successors, root: str, targets: AbstractSet[str]):
    """The occurrence count over the states: INFINITE when a target lies on
    or after a cycle, else each state's count below it, children first."""
    cyclic = _on_cycles(succ)
    if not targets.isdisjoint(forward(succ, cyclic)):
        return INFINITE
    below: dict[str, int] = {}
    for component in reference_sccs(succ):
        for s in component:
            below[s] = 0 if s in cyclic else (s in targets) + sum(below[c] for c in succ[s])
    return below[root]


@st.composite
def _grown_cores(draw, max_states: int = 200) -> SurfacePresentation:
    """A random core of up to 8 states, grown to up to ``max_states`` by
    splicing annuli on random child edges: its cycles grow long."""
    core = draw(presentations(max_states=8))
    rng = draw(st.randoms(use_true_random=False))
    rules, states = dict(core.rules), list(core.rules)
    for i in range(draw(st.integers(0, max_states - len(states)))):
        state = rng.choice(states)
        kind, children = rules[state]
        slot = rng.randrange(len(children))
        rules[state] = (kind, children[:slot] + (f"g{i}",) + children[slot + 1:])
        rules[f"g{i}"] = (BlockKind.ANNULUS, (children[slot],))
        states.append(f"g{i}")
    return SurfacePresentation("grown", rules, core.root)


@settings(max_examples=200, deadline=None)
@given(_grown_cores(), st.data())
def test_compiled_folds_match_the_state_level_references(pres, data):
    """The passes over the compiled condensation against references that
    read the states: `backward` for a mark closure, the state-level
    occurrence count and `_reference_fold`, on long cycles and any marks."""
    auto = ends_automaton(pres)
    succ, names = named(auto), auto.names
    marks = data.draw(st.sets(st.sampled_from(sorted(names))))
    closure = backward(succ, marks)
    assert [n != 0 for n in _occurrences(auto, _numbers(auto, marks))] == _flags(auto, closure)
    assert _closure(auto, marks) == bytes(_flags(auto, closure))
    assert closure == {names[s] for c in auto.components if names[c[0]] in closure for s in c}
    pants = {s for s, cs in succ.items() if len(cs) == 2}
    assert auto.handle_closure == bytes(_flags(auto, backward(succ, _nonplanar(auto))))
    assert auto.pants_closure == bytes(_flags(auto, backward(succ, pants)))
    for targets in (marks, _nonplanar(auto), pants):
        expected = _reference_occurrences(succ, names[0], targets)
        assert _occurrences(auto, _numbers(auto, targets))[-1] == expected
    _assert_fold_matches_reference(auto, marks)
    _assert_fold_matches_reference(auto)


def test_counts_past_the_float_range(monkeypatch):
    """A Handle below 1,025 levels of ``P(x, x)`` occurs 2**1025 times, past
    the float range: beside an infinite branch, adding that count to
    INFINITE, a float, would overflow.  Genus, spine rank and the essential
    pants census saturate at INFINITE or stay exact, and the closures that
    CB reports, expressions and pair verdicts read hold only 0 and 1.  Over
    a puncture the chain has 2**1025 ends, and beside a countable branch the
    count of ends saturates at INFINITE in the CB fold too."""
    n = 1025
    chain = [f"x{i} = P(x{i + 1}, x{i + 1})" for i in range(n)] + [f"x{n} = H(c)", "c = P(c, c)"]
    punctured = [f"x{i} = P(x{i + 1}, x{i + 1})" for i in range(n)] + [f"x{n} = A(x{n})"]
    points = parse_presentation("surface points { " + "; ".join(punctured) + " }")
    countable = parse_presentation(
        "surface countable { " + "; ".join(["r = P(x0, f)", "f = P(f, t)", "t = A(t)", *punctured]) + " }"
    )
    assert ends_count(points) == EndsCount(Cardinality.FINITE, 2**n)
    assert cb_report(ends_automaton(points)) == CBReport(1, 2**n, False, ends_count(points), (2**n,))
    report = cb_report(ends_automaton(countable))
    assert (report.rank, report.degree, report.has_perfect_kernel) == (2, 1, False)
    assert report.cardinality == ends_count(countable) == EndsCount(Cardinality.COUNTABLY_INFINITE)
    alone = parse_presentation("surface alone { " + "; ".join(chain) + " }")
    beside = parse_presentation("surface beside { " + "; ".join(["root = P(x0, l)", *chain, "l = H(l)"]) + " }")
    above = parse_presentation("surface above { " + "; ".join(["root = H(x0)", *chain]) + " }")
    small = parse_presentation("surface small { root = P(c, l); c = P(c, c); l = H(l) }")
    auto = ends_automaton(beside)
    for surface in (points, countable, alone, beside, above):
        _assert_compiled_counts(surface)
    x0 = auto.names.index("x0")
    assert _occurrences(auto, auto.nonplanar_states)[next(
        i for i, c in enumerate(auto.components) if x0 in c)] == 2**n
    assert set(_closure(auto, _nonplanar(auto))) == {0, 1}
    assert (genus(alone), genus(beside), genus(above)) == (2**n, INFINITE, 2**n + 1)
    assert format_end_expr(to_end_expr(auto)) == "Union(Pt(nonplanar), Cantor(planar))"
    assert cb_report(auto, marked="nonplanar_only") == cb_report(ends_automaton(LOCH))
    assert ends_count(auto, marked="nonplanar_only") == EndsCount(Cardinality.FINITE, 1)
    assert pair_homeomorphic(auto, ends_automaton(small)) is Verdict.YES
    assert kerekjarto(beside, small).to_json() == {"verdict": "Homeomorphic"}
    assert kerekjarto(alone, above).to_json() == {"verdict": "NotHomeomorphic", "witness": "genus"}
    assert kerekjarto(alone, beside).to_json() == {"verdict": "NotHomeomorphic", "witness": "ends-pair"}
    assert spine(alone).rank == spine(beside).rank == INFINITE  # 2**1026 Handles, INFINITE Pants
    assert graph_phe_equal(spine(beside), spine(small)) is Verdict.YES
    assert find_essential_pants(alone).pants_id == find_essential_pants(beside).pants_id == 2
    read = []
    for name in ("_cb_data", "_to_expr"):
        def spy(space, marked=None, *rest, real=getattr(endkit.ends, name)):
            read.append(max(marked or [0]))
            return real(space, marked, *rest)
        monkeypatch.setattr(endkit.ends, name, spy)
    cb_report(auto, marked="nonplanar_only"), to_end_expr(auto), kerekjarto(beside, small)
    pair_homeomorphic(auto, ends_automaton(small)), graph_phe_equal(spine(beside), spine(small))
    assert max(read) == 1


# -- the counts compiled with the automaton ---------------------------------

def _assert_compiled_counts(pres: SurfacePresentation) -> None:
    """The compiled closures are non-zero exactly where `_occurrences`
    counts Handle (or Pants) nodes, and each root count is its last entry;
    the Handle and Pants states are read off the rules."""
    auto = ends_automaton(pres)
    kinds = [pres.rules[name][0] for name in auto.names]
    handles, pants = (frozenset(s for s, k in enumerate(kinds) if k is kind)
                      for kind in (BlockKind.HANDLE, BlockKind.PANTS))
    assert auto.nonplanar_states == handles
    for closure, count, targets in ((auto.handle_closure, auto.handle_count, handles),
                                    (auto.pants_closure, auto.pants_count, pants)):
        counted = _occurrences(auto, targets)
        assert closure == bytes(n != 0 for n in counted)
        assert count == counted[-1] and type(count) is type(counted[-1])


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=8))
def test_compiled_counts_are_the_occurrence_counts(pres):
    _assert_compiled_counts(pres)


@pytest.mark.parametrize("family, size", [
    ("chain", 1000), ("comb", 1001), ("cantor-marked", 1000), ("seq-tower", 1000),
])
def test_compiled_counts_on_the_deep_families(family, size):
    build, _ = bench_inputs().FAMILIES[family]
    pres = build(size)
    assert len(pres.rules) >= 1000
    _assert_compiled_counts(pres)


def _ints(value) -> Iterable[int]:
    """The integers held in ``value``, through lists, tuples and sets."""
    if isinstance(value, int):
        yield value
    elif isinstance(value, (list, tuple, frozenset)):
        for v in value:
            yield from _ints(v)


def test_the_automaton_keeps_no_count_per_component():
    """On 15,000 levels of ``P(x, x)`` over a Handle every component below
    the root counts up to 2**15000 nodes while the walk compiles it; the
    automaton keeps only flags per component, and the root's two counts."""
    n = 15000
    rules = [f"x{i} = P(x{i + 1}, x{i + 1})" for i in range(n)] + [f"x{n} = H(d)", "d = A(d)"]
    auto = ends_automaton(parse_presentation("surface s { " + "; ".join(rules) + " }"))
    assert set(auto.handle_closure) == set(auto.pants_closure) == {0, 1}
    assert (auto.handle_count, auto.pants_count) == (2**n, 2**n - 1)
    big = [v for field in auto._values() for v in _ints(field) if v > len(auto.names)]
    assert big == [2**n, 2**n - 1]


def _four_pass_cb(shape, i, kids):
    """The CB combiner as it was, with four passes over the exits: the
    reference for the one-loop `_cb`."""
    if shape == CYCLE and not kids:  # one end
        return endkit.ends._POINT_CB
    if shape == BRANCHING and not kids:  # a Cantor set
        return endkit.ends._CANTOR_CB
    if not kids:
        raise InvalidEndExprError("empty union denotes no space")
    if shape == ACYCLIC and len(kids) == 1:
        return kids[0]
    rank = max(k[0] for k in kids)
    kernel = any(k[2] for k in kids)
    if shape == ACYCLIC:
        lasts = [k[1] for k in kids if k[0] == rank]
        try:
            count = sum(k[3] for k in kids)
        except OverflowError:
            count = INFINITE
        return (rank, None if None in lasts else sum(lasts), kernel, count)
    if shape == BRANCHING or kernel:
        return (rank, None if rank else 0, True, INFINITE)
    return (rank + 1, 1, False, INFINITE)


_BIG = 2**1100  # past the float range: adding it to INFINITE overflows
_STEPS = st.tuples(
    st.integers(0, 3), st.none() | st.integers(0, 4) | st.just(_BIG), st.booleans(),
    st.integers(0, 4) | st.just(_BIG) | st.just(INFINITE),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([ACYCLIC, CYCLE, BRANCHING]), st.booleans(), st.lists(_STEPS, min_size=1, max_size=6))
def test_the_one_loop_cb_steps_as_the_four_pass_combiner(shape, exits, kids):
    """Every (shape, keeps an exit) pair the fold hands over, and the acyclic
    one with no exit, an empty union; mixed ranks, infinite last batches,
    kernels and counts past 2**1024: the same step, field types included, or
    the same error."""
    kids = kids if exits else []
    try:
        expected = _four_pass_cb(shape, None, kids)
    except InvalidEndExprError:
        with pytest.raises(InvalidEndExprError):
            _cb(shape, None, kids)
        return
    assert repr(_cb(shape, None, kids)) == repr(expected)


def test_deep_questions_read_the_compiled_counts():
    """The deep-invariants questions, then kerekjarto against a spliced
    copy, count no occurrences again: each reads the automaton's fields,
    and no endkit module keeps an occurrence counter."""
    p = bench_inputs().cantor_marked(100)
    copy = splice_annulus(p, "h", 0)
    genus(p), is_finite_type(p)
    auto = ends_automaton(p)
    for marked in ("all", "nonplanar_only"):
        ends_count(auto, marked), cb_report(auto, marked)
    to_end_expr(auto)
    assert kerekjarto(p, copy).to_json() == {"verdict": "Homeomorphic"}
    modules = [m for name, m in sys.modules.items() if name.startswith("endkit")]
    assert not any(hasattr(m, "_occurrences") for m in modules)
    assert not hasattr(endkit.presentation, "_pants")


@pytest.mark.parametrize("cutoff", [True, 1.5, "3", None, -1])
def test_rank_cutoff_is_a_natural(cutoff):
    with pytest.raises(EndsError, match="rank_cutoff must be a natural"):
        cb_report(ends_automaton(FLUTE), rank_cutoff=cutoff)


@pytest.mark.parametrize("levels", [16, 21])
def test_to_end_expr_expands_at_most_the_cap(levels):
    """A ``P(x, x)`` chain over a puncture has 2**levels point ends, one
    summand each in the public form: 2**21 is over the cap of 10**6, and
    the error names the part count before any part is built."""
    rules = [f"x{i} = P(x{i + 1}, x{i + 1})" for i in range(levels)] + [f"x{levels} = A(x{levels})"]
    auto = ends_automaton(parse_presentation("surface s { " + "; ".join(rules) + " }"))
    if 2**levels > endkit.ends.EXPR_PARTS_CAP:
        with pytest.raises(EndsError, match=f"expands to {2**levels} parts, capped at 1000000"):
            to_end_expr(auto)
    else:
        assert to_end_expr(auto) == Union((Pt(False),) * 2**levels)


def test_every_combiner_passes_a_lone_exit_through(monkeypatch):
    """The fold skips the combiner at an acyclic state with one kept exit:
    each combiner returns that exit's value itself there."""
    combiners = []

    def recording(space, combine, within=None):
        combiners.append(combine)
        return _reference_fold(space, combine, within)

    monkeypatch.setattr(endkit.ends, "_fold_components", recording)
    monkeypatch.setitem(globals(), "_fold_components", recording)  # _reference_to_expr's
    auto = ends_automaton(replace(FLUTE))  # a rebuilt FLUTE: no folds kept yet
    marked = backward(named(auto), _nonplanar(auto))
    kids = [
        _cb_data(auto), _to_expr(auto, _flags(auto, marked), _Forms()),
        _reference_to_expr(auto, marked),
    ]
    assert len(combiners) == 3
    for combine, kid in zip(combiners, kids):
        assert combine(ACYCLIC, 0, [kid]) is kid


def test_normalize_flatten_and_sort():
    e = Union((Union((Pt(True), Cantor(False))), Pt(False)))
    n = normalize_end_expr(e)
    assert n == Union((Pt(False), Pt(True), Cantor(False)))


def test_normalize_cantor_dedupe_and_seq_collapse():
    assert normalize_end_expr(Union((Cantor(False), Cantor(False)))) == Cantor(False)
    assert normalize_end_expr(Seq(Cantor(True), True)) == Cantor(True)
    # distinct marks survive
    both = normalize_end_expr(Union((Cantor(False), Cantor(True))))
    assert both == Union((Cantor(False), Cantor(True)))


def test_normalize_absorption():
    # a lone copy next to the sequence of copies shifts into the sequence
    assert normalize_end_expr(
        Union((Pt(False), Seq(Pt(False), False)))
    ) == Seq(Pt(False), False)
    # transitively: the piece appears inside the sequence element
    nested = Union((Pt(False), Seq(Union((Pt(False), Pt(True))), True)))
    assert normalize_end_expr(nested) == Seq(Union((Pt(False), Pt(True))), True)
    # no absorption across different pieces
    kept = normalize_end_expr(Union((Pt(True), Seq(Pt(False), False))))
    assert kept == Union((Pt(True), Seq(Pt(False), False)))


def test_seq_element_dedupe():
    e = Seq(Union((Pt(False), Pt(False))), False)
    assert normalize_end_expr(e) == Seq(Pt(False), False)


@pytest.mark.parametrize("e", [Union(()), Seq(Union(()), False)], ids=["union", "seq-of-union"])
def test_expr_cb_report_rejects_empty_union(e):
    with pytest.raises(InvalidEndExprError, match="empty union denotes no space"):
        expr_cb_report(e)


@pytest.mark.parametrize("read", [validate_end_expr, normalize_end_expr])
def test_an_empty_union_is_no_space(read):
    with pytest.raises(InvalidEndExprError, match="empty union denotes no space"):
        read(Union(()))


@pytest.mark.parametrize("read", [cb_report, ends_count])
def test_an_unknown_marked_mode_is_refused(read):
    with pytest.raises(ValueError, match="marked must be 'all' or 'nonplanar_only', got 'x'"):
        read(ends_automaton(FLUTE), marked="x")


def test_validate_rejects_open_marked_set():
    with pytest.raises(InvalidEndExprError):
        validate_end_expr(Seq(Pt(True), False))
    with pytest.raises(InvalidEndExprError):
        validate_end_expr(Seq(Union((Pt(False), Cantor(True))), False))
    validate_end_expr(Seq(Pt(True), True))


@settings(max_examples=200)
@given(end_exprs())
def test_normalize_idempotent(e):
    n = normalize_end_expr(e)
    assert normalize_end_expr(n) == n
    validate_end_expr(n)


@pytest.mark.parametrize(
    "text", ["Pt(planar)123", "Pt(planar);", "Pt(#planar)", "Pt(planar\u00e9)", "Seq(Pt(planar), planar)!"]
)
def test_parse_end_expr_rejects_stray_characters(text):
    with pytest.raises(InvalidEndExprError):
        parse_end_expr(text)


@settings(max_examples=200)
@given(end_exprs())
def test_format_parse_roundtrip(e):
    assert parse_end_expr(format_end_expr(e)) == e


# -- one identity and one text: `_key` and format_end_expr -------------------

def _fold_format(e: EndExpr) -> str:
    """The fold-based formatter that the preorder walk replaced, kept as its
    reference: each node's text built from its children's."""

    def text(node: EndExpr, kids: list[str]) -> str:
        if isinstance(node, Union):
            return f"Union({', '.join(kids)})"
        np = node.limit_nonplanar if isinstance(node, Seq) else node.nonplanar
        mark = "nonplanar" if np else "planar"
        if isinstance(node, Seq):
            return f"Seq({kids[0]}, {mark})"
        return f"{type(node).__name__}({mark})"

    return _fold(e, text)


def _fields_equal(a: EndExpr, b: EndExpr) -> bool:
    """Class-and-fields equality, recursive, as the generated dataclass
    ``__eq__`` had it: the reference for ``==``."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Seq):
        return a.limit_nonplanar == b.limit_nonplanar and _fields_equal(a.element, b.element)
    if isinstance(a, Union):
        return len(a.parts) == len(b.parts) and all(map(_fields_equal, a.parts, b.parts))
    return a.nonplanar == b.nonplanar


# any shape, valid or not: empty unions and non-planar points at planar limits too
_any_exprs = st.recursive(
    st.builds(Pt, st.booleans()) | st.builds(Cantor, st.booleans()),
    lambda kids: st.builds(Seq, kids, st.booleans())
    | st.lists(kids, max_size=3).map(lambda parts: Union(tuple(parts))),
    max_leaves=12,
)


@settings(max_examples=500)
@given(_any_exprs)
def test_format_matches_the_fold_formatter(e):
    assert format_end_expr(e) == _fold_format(e) == repr(e)


@settings(max_examples=300)
@given(end_exprs(depth=4), end_exprs(depth=4))
def test_equality_and_hash_match_class_and_fields(a, b):
    pairs = [(a, b), (a, a), (a, parse_end_expr(format_end_expr(a))), (a, normalize_end_expr(a))]
    pairs += [(Union((a, b)), Union(a, b)), (Seq(a, True), Seq(b, True)), (Union((a,)), a)]
    for x, y in pairs:
        assert (x == y) == _fields_equal(x, y) == (not x != y)
        if x == y:
            assert hash(x) == hash(y)


def test_nodes_have_no_generated_identity_or_text():
    assert repr(Seq(Pt(False), False)) == "Seq(Pt(planar), planar)"
    assert Pt(True) != Cantor(True) and Pt(False) != False and Union() == Union(())
    for cls in (Pt, Cantor, Seq, Union):
        assert not {"__eq__", "__hash__", "__repr__"} & set(vars(cls)), cls


def test_a_very_deep_tower_compares_hashes_and_prints():
    levels = 10**5
    tower, copy = _planar_tower(levels), _planar_tower(levels)
    assert tower == copy and tower is not copy and tower != Seq(tower, False)
    assert hash(tower) == hash(copy) and copy in {tower}
    start = time.perf_counter()
    text = format_end_expr(tower)
    assert time.perf_counter() - start < 2.0  # linear: about 0.1 s; the fold took about 17 s
    assert repr(tower) == text == "Seq(" * levels + "Pt(planar)" + ", planar)" * levels
    assert parse_end_expr(repr(tower)) == tower


_TOKEN = re.compile(r"[A-Za-z]+|[(),]|\S")


class _Cursor:
    """Token cursor over an end expression."""

    def __init__(self, text: str):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise InvalidEndExprError("unexpected end of input")
        if expected is not None and tok != expected:
            raise InvalidEndExprError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok


def _reference_parse_end_expr(text: str) -> EndExpr:
    """The token-cursor parser that parse_end_expr replaced, kept as an
    oracle for the accepted language."""
    p = _Cursor(text)

    def mark() -> bool:
        tok = p.take()
        if tok not in ("planar", "nonplanar"):
            raise InvalidEndExprError(f"expected planar/nonplanar, got {tok!r}")
        return tok == "nonplanar"

    pending: list[tuple[str, list[EndExpr]]] = []  # open Seq and Union nodes
    while True:
        head = p.take()
        p.take("(")
        if head in ("Seq", "Union"):
            pending.append((head, []))
            continue
        if head not in ("Pt", "Cantor"):
            raise InvalidEndExprError(f"unknown constructor {head!r}")
        expr: EndExpr = Pt(mark()) if head == "Pt" else Cantor(mark())
        p.take(")")
        while pending:  # close every node that this part completes
            head, parts = pending[-1]
            parts.append(expr)
            if head == "Union" and p.peek() == ",":
                p.take(",")
                break
            if head == "Seq":
                p.take(",")
                expr = Seq(parts[0], mark())
            else:
                expr = Union(tuple(parts))
            p.take(")")
            pending.pop()
        else:
            break
    if p.peek() is not None:
        raise InvalidEndExprError(f"trailing input at {p.peek()!r}")
    return expr


def _outcome(parse, text):
    """The formatted expression, or the error class."""
    try:
        return format_end_expr(parse(text))
    except EndkitError as exc:
        return type(exc)


_WORDS = ("Pt", "Cantor", "Seq", "Union", "planar", "nonplanar", "Pts", "S", "x")
_SEPARATORS = ("", " ", "\t", "\n", " \n\t ", "\u00a0")
_JUNK = ("(", ")", ",", "0", ";", "\u00e9", "\x00")


@st.composite
def end_expr_texts(draw):
    """format_end_expr text with whitespace redrawn between its tokens (an
    empty gap may merge two words), after at most one token mutation."""
    tokens = _TOKEN.findall(format_end_expr(draw(end_exprs())))
    i = draw(st.integers(0, len(tokens) - 1))
    move = draw(st.sampled_from(("keep", "delete", "duplicate", "swap", "replace")))
    if move == "delete":
        del tokens[i]
    elif move == "duplicate":
        tokens.insert(i, tokens[i])
    elif move == "swap" and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif move == "replace":
        tokens[i] = draw(st.sampled_from(_WORDS + _JUNK))
    gaps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))


@settings(max_examples=1500, deadline=None)
@given(end_expr_texts())
@example("Union(Pt(planar))")
@example("Union()")
@example(",")
@example("Union(Pt(planar),\n)")
@example("Seq(Pt(planar),)")
@example("Pt (\u2003nonplanar\t)")
def test_parser_matches_the_token_parser(text):
    assert _outcome(parse_end_expr, text) == _outcome(_reference_parse_end_expr, text)


@pytest.mark.parametrize(
    "text, error",
    [
        ("Union()", r"line 1, column 7: unexpected '\)'"),
        (",", r"line 1, column 1: unexpected ','"),
        ("Union(Pt(planar),)", r"line 1, column 18: unexpected '\)'"),
        ("Seq(Pt(planar),\n  flat)", r"line 2, column 3: unexpected 'flat\)'"),
        ("Pt(planar) Pt(planar)", r"line 1, column 12: unexpected 'Pt\(planar\)'"),
        ("Seq(Ptx(planar), planar)", r"line 1, column 5: unexpected 'Ptx\(planar\), planar\)'"),
        ("Seq(Pt(planar), planar", "unexpected end of input"),
    ],
)
def test_parse_errors_name_the_offending_character(text, error):
    with pytest.raises(InvalidEndExprError, match=error):
        parse_end_expr(text)


def test_parse_a_very_deep_seq_text():
    levels = 10**5
    text = "Seq(" * levels + "Pt(nonplanar)" + ", nonplanar)" * levels
    expected = Pt(True)
    for _ in range(levels):
        expected = Seq(expected, True)
    assert parse_end_expr(text) == expected


def _nested_key(e):
    """The nested sort key that the flat `_key` replaced, kept as its
    reference: (tag, mark, child keys), the part count before a Union's."""
    if isinstance(e, Pt):
        return (0, e.nonplanar)
    if isinstance(e, Cantor):
        return (1, e.nonplanar)
    if isinstance(e, Seq):
        return (2, e.limit_nonplanar, _nested_key(e.element))
    return (3, len(e.parts), tuple(_nested_key(p) for p in e.parts))


@settings(max_examples=300)
@given(end_exprs(depth=2), end_exprs(depth=2), end_exprs(depth=4))
def test_flat_key_sorts_and_equates_like_the_nested_key(a, b, big):
    pairs = [(a, b), (a, a), (b, a), (normalize_end_expr(a), normalize_end_expr(b))]
    pairs += [(a, Seq(a, True)), (Union((a, b)), Union((a, a))), (Union((a, b)), Union((a, b, a)))]
    for x, y in pairs:
        assert (_key(x) < _key(y)) == (_nested_key(x) < _nested_key(y))
        assert (_key(x) == _key(y)) == (_nested_key(x) == _nested_key(y)) == (x == y)
    # a summand beside a tower is absorbed exactly when it is a subtree of
    # the tower's element, which the key finds at an even offset
    tower = normalize_end_expr(Seq(big, True))
    if isinstance(tower, Seq):
        pieces = {_nested_key(node) for node in _walk(tower.element)}
        for x in [*_walk(tower.element), normalize_end_expr(a), tower]:
            if not isinstance(x, Union):
                merged = format_end_expr(normalize_end_expr(Union((x, tower))))
                assert (merged == format_end_expr(tower)) == (_nested_key(x) in pieces)


@settings(max_examples=150, deadline=None)
@given(end_exprs())
def test_expression_route_agrees_with_automaton_route(e):
    surface = realize(INFINITE if _has_nonplanar(e) else 0, e)
    auto = ends_automaton(surface)
    from_automaton = cb_report(auto, rank_cutoff=64)
    assert from_automaton == _cb_space(auto, 64)
    from_expr = expr_cb_report(normalize_end_expr(e))
    assert from_automaton.rank == from_expr.rank
    assert from_automaton.degree == from_expr.degree
    assert from_automaton.has_perfect_kernel == from_expr.has_perfect_kernel
    assert from_automaton.cardinality == from_expr.cardinality


def test_to_end_expr_examples():
    assert to_end_expr(ends_automaton(LOCH)) == Pt(True)
    assert to_end_expr(ends_automaton(CANTOR)) == Cantor(False)
    assert to_end_expr(ends_automaton(FLUTE)) == Seq(Pt(False), False)
    assert to_end_expr(ends_automaton(standard_presentation(0, 3))) == Union(
        (Pt(False), Pt(False), Pt(False))
    )
    with pytest.raises(NotConvertibleError):
        to_end_expr(ends_automaton(MIXED))


def _order_free_invariants(pres: SurfacePresentation) -> tuple:
    auto = ends_automaton(pres)
    try:
        text = format_end_expr(to_end_expr(auto))
    except NotConvertibleError:
        text = "not convertible"
    reports = [f(auto, marked) for f in (cb_report, ends_count) for marked in ("all", "nonplanar_only")]
    found = spine(pres)
    return genus(auto), is_finite_type(auto), *reports, text, found.rank, found.core_states


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=8), st.randoms(use_true_random=False))
def test_invariants_ignore_rule_order_and_state_names(pres, rng):
    """No invariant reads the rule order or the names; the automaton
    numbers its states from the root, so it reads neither."""
    names, order = list(pres.rules), list(pres.rules)
    rng.shuffle(names)
    rng.shuffle(order)
    new = {s: f"q{names.index(s)}" for s in names}
    rules = {new[s]: (pres.rules[s][0], tuple(new[c] for c in pres.rules[s][1])) for s in order}
    *same, core = _order_free_invariants(pres)
    *moved_same, moved_core = _order_free_invariants(SurfacePresentation("moved", rules, new[pres.root]))
    assert moved_same == same
    assert moved_core == {new[s] for s in core}


@settings(max_examples=150, deadline=None)
@given(end_exprs())
def test_realize_recovers_normal_form(e):
    surface = realize(INFINITE if _has_nonplanar(e) else 0, e)
    assert to_end_expr(ends_automaton(surface)) == normalize_end_expr(e)


def test_pair_verdicts():
    assert pair_homeomorphic(ends_automaton(FLUTE), ends_automaton(FLUTE)) is Verdict.YES
    assert pair_homeomorphic(ends_automaton(LOCH), ends_automaton(FLUTE)) is Verdict.NO

    # same normal form through different presentations
    padded = parse_presentation(
        "surface padded { root = P(root, x); x = A(y); y = A(y) }"
    )
    assert pair_homeomorphic(ends_automaton(FLUTE), ends_automaton(padded)) is Verdict.YES

    # countably many Cantor sets converging to a point form a Cantor set
    cantor_seq = parse_presentation("surface cs { r = P(c, r); c = P(c, c) }")
    assert pair_homeomorphic(ends_automaton(CANTOR), ends_automaton(cantor_seq)) is Verdict.YES

    # same reports at the default cutoff; the exact ranks tell them apart
    t17, t18 = Pt(False), Pt(False)
    for _ in range(17):
        t17 = Seq(t17, False)
    for _ in range(18):
        t18 = Seq(t18, False)
    a17 = ends_automaton(realize(0, t17))
    a18 = ends_automaton(realize(0, t18))
    assert cb_report(a17).invariant_key() == cb_report(a18).invariant_key()
    assert pair_homeomorphic(a17, a18) is Verdict.NO
    verdict = _pair_verdict(a17, _closure(a17, _nonplanar(a17)), a18, _closure(a18, _nonplanar(a18)))
    assert verdict == (Verdict.NO, None)

    # same ends space, outside the expression fragment: only the marked
    # subspace's CB data tell the pairs apart
    mixed_marked = ends_automaton(
        parse_presentation("surface mixed3 { a = P(a, b); b = P(a, c); c = H(c) }")
    )
    mixed = ends_automaton(MIXED)
    verdict = _pair_verdict(mixed_marked, _closure(mixed_marked, _nonplanar(mixed_marked)),
                            mixed, _closure(mixed, ()))
    assert verdict == (Verdict.NO, None)

    # equal CB data of the spaces and of the non-planar subspaces; only the
    # normal forms tell a non-planar limit of punctures from a separate one
    lim = realize(INFINITE, Seq(Pt(False), True))
    apart = realize(INFINITE, Union((Seq(Pt(False), False), Pt(True))))
    a_lim, a_apart = ends_automaton(lim), ends_automaton(apart)
    assert _cb_data(a_lim) == _cb_data(a_apart)
    assert _cb_data(a_lim, a_lim.handle_closure) == _cb_data(a_apart, a_apart.handle_closure)
    verdict = _pair_verdict(a_lim, _closure(a_lim, _nonplanar(a_lim)),
                            a_apart, _closure(a_apart, _nonplanar(a_apart)))
    assert verdict == (Verdict.NO, None)
    assert kerekjarto(lim, apart).to_json() == {"verdict": "NotHomeomorphic", "witness": "ends-pair"}

    mixed_swapped = parse_presentation(
        "surface mixed2 { a = P(b, a); b = P(a, c); c = A(c) }"
    )
    assert (
        pair_homeomorphic(ends_automaton(MIXED), ends_automaton(mixed_swapped))
        is Verdict.UNKNOWN
    )


def _calls(monkeypatch, name: str, ask) -> int:
    """How many times ``ask()`` calls ``endkit.ends.<name>``."""
    calls, real = [], getattr(endkit.ends, name)
    with monkeypatch.context() as patch:
        patch.setattr(endkit.ends, name, lambda *args: calls.append(args) or real(*args))
        ask()
    return len(calls)


def test_pair_verdict_folds_only_what_decides(monkeypatch):
    """Equal canonical forms decide without a normal form, and a No that the
    normal forms decide reads no CB data.  Each call asks rebuilt copies,
    which keep no automaton and so no folds."""
    renamed = parse_presentation("surface flute2 { a = P(a, b); b = A(b) }")
    assert _calls(monkeypatch, "_to_expr", lambda: kerekjarto(replace(FLUTE), renamed)) == 0
    assert kerekjarto(FLUTE, renamed).witness == "identical-presentation"
    assert _calls(monkeypatch, "_cb_data", lambda: kerekjarto(replace(FLUTE), replace(CANTOR))) == 0
    assert _calls(monkeypatch, "_to_expr", lambda: kerekjarto(replace(FLUTE), replace(CANTOR))) == 2
    assert kerekjarto(FLUTE, CANTOR).to_json() == {"verdict": "NotHomeomorphic", "witness": "ends-pair"}


def test_the_guard_reads_marks_as_flags():
    """A flute with Handle teeth and a renamed copy: one side marked by its
    compiled closure (bytes of 0 and 1), the other by the reference counts
    (2 and INFINITE among them), mark the same components, so the guard
    answers without a normal form."""
    teeth = parse_presentation("surface f { root = P(root, tooth); tooth = P(h, h); h = H(t); t = A(t) }")
    a, b = ends_automaton(teeth), ends_automaton(_renamed(teeth))
    counts = _occurrences(b, b.nonplanar_states)
    assert isinstance(a.handle_closure, bytes) and {2, INFINITE} <= set(counts)
    assert _pair_verdict(a, a.handle_closure, b, counts) == (Verdict.YES, "identical-presentation")


# -- deep inputs: past the default recursion limit -------------------------

A, P, H = BlockKind.ANNULUS, BlockKind.PANTS, BlockKind.HANDLE
DEEP = 1200


def annulus_chain(n: int) -> SurfacePresentation:
    """n - 1 annuli in a row, then a Loch Ness tail."""
    rules = {f"a{i}": (A, (f"a{i + 1}",)) for i in range(n - 2)}
    rules[f"a{n - 2}"] = (A, ("tail",))
    rules["tail"] = (H, ("tail",))
    return SurfacePresentation(name="chain", rules=rules, root="a0")


def pants_comb(k: int) -> SurfacePresentation:
    """k pants in a row, each with a puncture tooth, ending in a puncture."""
    rules = {f"p{i}": (P, (f"t{i}", f"p{i + 1}" if i < k - 1 else f"t{k}")) for i in range(k)}
    rules.update({f"t{i}": (A, (f"t{i}",)) for i in range(k + 1)})
    return SurfacePresentation(name="comb", rules=rules, root="p0")


def cantor_marked(n: int) -> SurfacePresentation:
    """A pants spine of planar Cantor teeth ending in a genus-marked Cantor
    set; n states."""
    k = (n - 2) // 2
    rules = {}
    for i in range(k):
        rules[f"s{i}"] = (P, (f"c{i}", f"s{i + 1}" if i < k - 1 else "h"))
        rules[f"c{i}"] = (P, (f"c{i}", f"c{i}"))
    rules["h"] = (H, ("q",))
    rules["q"] = (P, ("h", "h"))
    return SurfacePresentation(name="cantor_marked", rules=rules, root="s0")


def _renamed(pres: SurfacePresentation) -> SurfacePresentation:
    new = {s: f"r{i}" for i, s in enumerate(reversed(list(pres.rules)))}
    rules = {
        new[s]: (kind, tuple(new[c] for c in children))
        for s, (kind, children) in reversed(list(pres.rules.items()))
    }
    return SurfacePresentation(name="renamed", rules=rules, root=new[pres.root])


def _finite(n: int) -> EndsCount:
    return EndsCount(Cardinality.FINITE, n)


UNCOUNTABLE = EndsCount(Cardinality.UNCOUNTABLE)



@pytest.mark.parametrize(
    "pres, ends, nonplanar, cb, cb_nonplanar, finite_type",
    [
        # one non-planar end, isolated
        (annulus_chain(DEEP), _finite(1), _finite(1),
         (1, 1, False, _finite(1), (1,)), (1, 1, False, _finite(1), (1,)),
         None),
        # S_{0,0,DEEP+1}: DEEP + 1 isolated planar ends
        (pants_comb(DEEP), _finite(DEEP + 1), _finite(0),
         (1, DEEP + 1, False, _finite(DEEP + 1), (DEEP + 1,)),
         (0, 0, False, _finite(0), ()),
         (0, 0, DEEP + 1)),
        # a Cantor set whose non-planar part is again a Cantor set
        (cantor_marked(DEEP), UNCOUNTABLE, UNCOUNTABLE,
         (0, 0, True, UNCOUNTABLE, ()), (0, 0, True, UNCOUNTABLE, ()),
         None),
    ],
    ids=["chain", "comb", "cantor-marked"],
)
def test_deep_inputs_match_closed_forms(
    pres, ends, nonplanar, cb, cb_nonplanar, finite_type
):
    auto = ends_automaton(pres)
    assert ends_count(auto) == ends
    assert ends_count(auto, marked="nonplanar_only") == nonplanar
    for marked, expected in (("all", cb), ("nonplanar_only", cb_nonplanar)):
        r = cb_report(auto, marked=marked)
        assert (r.rank, r.degree, r.has_perfect_kernel, r.cardinality, r.profile) == expected
        assert not r.rank_exceeded
    if finite_type is None:
        with pytest.raises(NotFiniteTypeError):
            canonical_finite_type(pres)
    else:
        assert canonical_finite_type(pres) == finite_type
    verdict = kerekjarto(pres, _renamed(pres))
    assert verdict.to_json() == {"verdict": "Homeomorphic"}


def _planar_tower(levels: int) -> Seq:
    tower = Pt(False)
    for _ in range(levels):
        tower = Seq(tower, False)
    return tower


@pytest.mark.parametrize(
    "pres",
    [
        annulus_chain(DEEP),
        pants_comb(DEEP),
        cantor_marked(DEEP),
        realize(0, _planar_tower(40)),
        realize(INFINITE, Seq(Union((_planar_tower(12), Cantor(True))), True)),
    ],
    ids=["chain", "comb", "cantor-marked", "seq-tower", "tower-beside-cantor"],
)
def test_fold_matches_derivative_chain_on_deep_families(pres):
    _assert_fold_matches_derivative_chain(pres)
    _assert_fold_matches_reference(ends_automaton(pres))


@pytest.mark.parametrize(
    "pres",
    [
        annulus_chain(400),
        pants_comb(200),
        cantor_marked(400),
        realize(0, _planar_tower(200)),
    ],
    ids=["chain", "comb", "cantor-marked", "seq-tower"],
)
def test_marked_subspaces_match_restriction_on_deep_families(pres):
    auto = ends_automaton(pres)
    states = sorted(auto.names)
    rng = random.Random(7)
    marks = [set(), set(states), {auto.names[0]}, {states[-1]}]
    marks += [set(rng.sample(states, k)) for k in (1, 2, 5, len(states) // 2)]
    for m in marks:
        _assert_marked_data_matches_restriction(auto, m)


@pytest.mark.parametrize("levels", [DEEP, 5000])
def test_deep_seq_towers(levels):
    tower = _planar_tower(levels)
    text = format_end_expr(tower)
    assert text == "Seq(" * levels + "Pt(planar)" + ", planar)" * levels
    assert parse_end_expr(text) == tower
    assert normalize_end_expr(tower) == tower
    validate_end_expr(tower)
    report = expr_cb_report(tower)
    assert (report.rank, report.degree, report.has_perfect_kernel) == (levels + 1, 1, False)
    surface = realize(0, tower)
    assert to_end_expr(ends_automaton(surface)) == tower
    exact = cb_report(ends_automaton(surface), rank_cutoff=10**4)
    assert (exact.rank, exact.degree, exact.has_perfect_kernel) == (levels + 1, 1, False)
    assert exact.profile == (None,) * levels + (1,) and not exact.rank_exceeded
    assert exact.cardinality == report.cardinality == EndsCount(Cardinality.COUNTABLY_INFINITE)
    copy = splice_annulus(surface, surface.root, 0)
    assert kerekjarto(surface, copy).to_json() == {"verdict": "Homeomorphic"}


def test_comb_normal_form_ranks_no_repeated_parts(monkeypatch):
    # the k + 1 teeth are one interned part of multiplicity k + 1: no level
    # re-keys or re-sorts the parts below it
    calls = []

    def counted(e):
        calls.append(e)
        return _key(e)

    monkeypatch.setattr(endkit.ends, "_key", counted)
    expr = to_end_expr(ends_automaton(pants_comb(2000)))
    assert len(calls) <= 10
    assert format_end_expr(expr) == "Union(" + ", ".join(["Pt(planar)"] * 2001) + ")"


def test_deep_comb_pair_through_the_normal_form():
    comb = pants_comb(5000)
    # the splice keeps the presentations apart, so the normal forms decide
    verdict = kerekjarto(comb, _renamed(splice_annulus(comb, comb.root, 0)))
    assert verdict.to_json() == {"verdict": "Homeomorphic"}
    assert verdict.witness == "end-expression-normal-form"


class _CountedReads(Sequence):
    """A successor list that counts the reads of it."""

    def __init__(self, succ: Sequence) -> None:
        self.succ, self.reads = succ, 0

    def __getitem__(self, state: int):
        self.reads += 1
        return self.succ[state]

    def __len__(self) -> int:
        self.reads += 1
        return len(self.succ)


@pytest.mark.parametrize(
    "pres", [LOCH, FLUTE, CANTOR, BLOOM, MIXED, pants_comb(50), cantor_marked(50)],
    ids=["loch", "flute", "cantor", "bloom", "mixed", "comb", "cantor-marked"],
)
def test_invariants_read_the_compiled_condensation_only(pres):
    """Counts, CB data, genus and the normal form walk the compiled table,
    never the successor list; the pair verdict's guard compares that list
    itself."""
    auto = ends_automaton(pres)
    counted = _CountedReads(auto.transitions)
    auto = replace(auto, transitions=counted)
    for marked in ("all", "nonplanar_only"):
        cb_report(auto, marked)
        ends_count(auto, marked)
    genus(auto)
    with contextlib.suppress(NotConvertibleError):
        to_end_expr(auto)
    assert counted.reads == 0
    closure = _closure(auto, _nonplanar(auto))
    assert _pair_verdict(auto, closure, auto, closure) == (Verdict.YES, "identical-presentation")


def _entry_answer(ask, *sources) -> object:
    """What ``ask`` answers for ``sources``, or NotConvertibleError with its message."""
    try:
        return ask(*sources)
    except NotConvertibleError as e:
        return NotConvertibleError, str(e)


def test_folds_of_a_presentation_answer_as_its_automatons():
    """cb_report, to_end_expr and pair_homeomorphic accept a presentation, as
    ends_count does, and answer as for its automaton (compiled for a copy);
    they read a presentation's ``_kept`` as an automaton's folds, and raised
    a bare AttributeError, ValueError or TypeError on the flute."""
    triple = parse_presentation("surface s finite S(g=2, b=1, p=2)")
    sources = [FLUTE, triple, *census_cores(0)]
    asks = [cb_report, lambda x: cb_report(x, marked="nonplanar_only"),
            lambda x: cb_report(x, rank_cutoff=1), to_end_expr]
    for pres, other in zip(sources, sources[1:] + sources[:1]):
        auto, other_auto = ends_automaton(copy.copy(pres)), ends_automaton(copy.copy(other))
        for ask in asks:
            assert _entry_answer(ask, pres) == _entry_answer(ask, auto), pres
        expected = pair_homeomorphic(auto, other_auto)
        assert pair_homeomorphic(pres, other) == pair_homeomorphic(pres, other_auto) == expected
        assert pair_homeomorphic(auto, other) == expected
        assert pair_homeomorphic(pres, pres) is Verdict.YES
