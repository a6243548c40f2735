"""Rule-system parsing, validation, genus and finite-type detection."""

from __future__ import annotations

import contextlib
import copy
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from endkit import (
    INFINITE,
    BlockKind,
    DanglingRuleError,
    EndkitError,
    FiniteType,
    PresentationError,
    PresentationSyntaxError,
    SurfacePresentation,
    UnreachableRuleError,
    canonical_finite_type,
    cb_report,
    ends_count,
    first_occurrences,
    genus,
    is_finite_type,
    parse_presentation,
    pretty_print,
    regularize,
    splice_annulus,
    spine,
    standard_presentation,
    to_end_expr,
)
import endkit.presentation
from endkit import decompose, find_essential_pants, interchange_normalize, kerekjarto
from endkit.cli import main
from endkit.classify import ClassVerdict
from endkit.ends import Cardinality, EndsCount
from endkit.presentation import (
    ACYCLIC, BRANCHING, CYCLE, MAX_DIGITS, EndsAutomaton, Successors, _occurrences,
    ends_automaton, forward,
)

from conftest import (
    _on_cycles, backward, bench_inputs, named, presentations, reference_sccs, shaped_cycles,
    successor_maps,
)

LOCH = "surface loch_ness { root = H(root) }"
FLUTE = "surface flute { root = P(root, punc); punc = A(punc) }"
CANTOR = "surface cantor { root = P(root, root) }"


def test_parse_roundtrip_examples():
    for text in (LOCH, FLUTE, CANTOR):
        p = parse_presentation(text)
        again = parse_presentation(pretty_print(p))
        assert again.rules == p.rules and again.root == p.root


def test_parse_finite_type_forms():
    p = parse_presentation("surface torus1p finite S(g=1, b=0, p=1)")
    assert p.finite_type == FiniteType(1, 0, 1)
    q = parse_presentation("surface finite S(g=2, b=1, p=0)")
    assert q.finite_type == FiniteType(2, 1, 0)


@pytest.mark.parametrize(
    "text",
    [
        "surface x { root = Q(root) }",
        "surface x { root = P(root) }",
        "surface x { root = A(root, root) }",
        "surface x { root = A(root); root = A(root) }",
        "surface x { root = A(root)",
        "surface x finite S(g=1, b=0)",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(PresentationSyntaxError):
        parse_presentation(text)


@pytest.mark.parametrize("digits", ["\u00b2", "\u0663", "\uff11"])
def test_natural_numbers_are_ascii_digits(digits):
    # str.isdigit() accepts all three; int() rejects the first
    with pytest.raises(PresentationSyntaxError):
        parse_presentation(f"surface x finite S(g={digits}, b=0, p=1)")


def test_syntax_errors_name_line_column_and_text():
    text = "surface x {\n  a = A(a);\n  b = Q(a)\n}"
    with pytest.raises(PresentationSyntaxError, match=r"line 3, column 7: unexpected 'Q\(a\)'"):
        parse_presentation(text)
    with pytest.raises(PresentationSyntaxError, match="unexpected end of input"):
        parse_presentation("surface x { a = A(a)  \n")
    with pytest.raises(PresentationSyntaxError, match=r"line 1, column 23: duplicate rule for 'a'"):
        parse_presentation("surface x { a = A(a); a = A(a) }")
    with pytest.raises(PresentationSyntaxError, match=r"line 2, column 1: unexpected 'trailing'"):
        parse_presentation("surface x { a = A(a) }\ntrailing")


def test_naturals_over_the_digit_bound_are_syntax_errors():
    # int() refuses them on Python 3.11+, and the parser does on every version
    at_bound = "9" * MAX_DIGITS
    p = parse_presentation(f"surface x finite S(g={at_bound}, b=0, p=1)")
    assert p.finite_type.genus == int(at_bound)
    with pytest.raises(PresentationSyntaxError, match="over 4300"):
        parse_presentation(f"surface x finite S(g=0, b=0, p=0{at_bound})")


def test_dangling_and_unreachable():
    with pytest.raises(DanglingRuleError):
        parse_presentation("surface x { root = A(ghost) }")
    with pytest.raises(DanglingRuleError):
        SurfacePresentation(name="x", rules={"a": (BlockKind.ANNULUS, ("b",))})
    with pytest.raises(UnreachableRuleError):
        SurfacePresentation(
            name="x",
            rules={
                "a": (BlockKind.ANNULUS, ("a",)),
                "b": (BlockKind.ANNULUS, ("b",)),
            },
            root="a",
        )


def test_closed_surface_rejected():
    with pytest.raises(PresentationSyntaxError):
        SurfacePresentation(name="x", finite_type=FiniteType(2, 0, 0))


def test_a_presentation_is_one_form_with_natural_data():
    rules = {"a": (BlockKind.ANNULUS, ("a",))}
    for forms in ({}, {"rules": rules, "finite_type": FiniteType(0, 0, 1)}):
        with pytest.raises(ValueError, match="exactly one of rules / finite_type required"):
            SurfacePresentation("s", **forms)
    with pytest.raises(PresentationSyntaxError, match="s: negative finite-type datum"):
        SurfacePresentation("s", finite_type=FiniteType(0, -1, 2))


def test_genus_examples():
    assert genus(parse_presentation(LOCH)) == INFINITE
    assert genus(parse_presentation(FLUTE)) == 0
    assert genus(parse_presentation(CANTOR)) == 0
    assert genus(standard_presentation(3, 1)) == 3


def _unfold_handle_depths(pres, max_depth):
    """Test-local enumeration of handle occurrences by walking the tree."""
    depths = []
    todo = [(pres.root, 0)]
    while todo:
        state, depth = todo.pop()
        if depth > max_depth:
            continue
        if pres.kind(state) is BlockKind.HANDLE:
            depths.append(depth)
        for child in pres.children(state):
            todo.append((child, depth + 1))
    return depths


@settings(max_examples=150)
@given(presentations())
def test_genus_against_unfolding_oracle(pres):
    # Finite genus paths never revisit a state, so they end below depth n;
    # an infinite genus pumps some cycle, landing handles at depth >= n.
    n = len(pres.rules)
    depths = _unfold_handle_depths(pres, 3 * n)
    g = genus(pres)
    if any(d >= n for d in depths):
        assert g == INFINITE
    else:
        assert g == len(depths)


def test_finite_type_detection():
    assert is_finite_type(standard_presentation(2, 3))
    assert not is_finite_type(parse_presentation(LOCH))
    assert not is_finite_type(parse_presentation(FLUTE))
    assert not is_finite_type(parse_presentation(CANTOR))


@settings(max_examples=150)
@given(presentations())
def test_finite_type_iff_finite_genus_and_ends(pres):
    expected = (
        genus(pres) != INFINITE
        and ends_count(pres).cardinality is Cardinality.FINITE
    )
    assert is_finite_type(pres) == expected


def test_canonical_finite_type():
    assert canonical_finite_type(standard_presentation(2, 3)) == (2, 0, 3)
    ft = parse_presentation("surface x finite S(g=1, b=2, p=1)")
    assert canonical_finite_type(ft) == (1, 0, 3)
    two_tails = parse_presentation("surface x { root = P(a, a); a = A(a) }")
    assert canonical_finite_type(two_tails) == (0, 0, 2)


@settings(max_examples=100)
@given(presentations())
def test_pretty_print_roundtrip(pres):
    again = parse_presentation(pretty_print(pres))
    assert again.rules == pres.rules and again.root == pres.root


@settings(max_examples=100)
@given(presentations())
def test_splice_annulus_preserves_invariants(pres):
    state = sorted(pres.rules)[0]
    spliced = splice_annulus(pres, state, 0)
    assert genus(spliced) == genus(pres)
    assert ends_count(spliced) == ends_count(pres)


def test_splice_annulus_refuses_a_slot_out_of_range():
    flute = parse_presentation("surface flute { root = P(root, punc); punc = A(punc) }")
    with pytest.raises(ValueError, match="slot 1 out of range for punc"):
        splice_annulus(flute, "punc", 1)


def test_splice_annulus_on_a_finite_triple():
    ft = parse_presentation("surface x finite S(g=1, b=0, p=2)")
    spliced = splice_annulus(ft, "h1", 0)
    assert spliced.rules["h1"] == (BlockKind.HANDLE, ("sp0",))
    assert canonical_finite_type(spliced) == (1, 0, 2)


def test_finite_triples_round_trip_and_match_their_rules():
    for g in range(4):
        for b in range(3):
            for p in range(4):
                if b + p == 0:
                    continue
                pres = parse_presentation(f"surface x finite S(g={g}, b={b}, p={p})")
                assert parse_presentation(pretty_print(pres)) == pres
                rules = regularize(pres)
                assert genus(pres) == genus(rules) == g
                assert is_finite_type(pres) and is_finite_type(rules)
                assert canonical_finite_type(pres) == canonical_finite_type(rules) == (g, 0, b + p)


def test_standard_presentation_shapes():
    sphere2 = standard_presentation(0, 2)
    assert canonical_finite_type(sphere2) == (0, 0, 2)
    with pytest.raises(ValueError):
        standard_presentation(1, 0)


def _reference_standard_presentation(g: int, n: int) -> SurfacePresentation:
    """The three-dict construction that the one-dict standard_presentation
    replaced, kept as its reference: handles, then pants, then tails."""
    rules = {}
    tails = [f"t{i}" for i in range(1, n + 1)]
    if n == 1:
        comb_entry = tails[0]
    else:
        for i in range(1, n):
            nxt = f"c{i + 1}" if i < n - 1 else tails[n - 1]
            rules[f"c{i}"] = (BlockKind.PANTS, (tails[i - 1], nxt))
        comb_entry = "c1"
    handle_rules = {}
    for i in range(1, g + 1):
        nxt = f"h{i + 1}" if i < g else comb_entry
        handle_rules[f"h{i}"] = (BlockKind.HANDLE, (nxt,))
    ordered = {**handle_rules, **rules}
    for t in tails:
        ordered[t] = (BlockKind.ANNULUS, (t,))
    return SurfacePresentation(name="std", rules=ordered, root="h1" if g else comb_entry)


def test_standard_presentation_matches_its_reference():
    # regularize prints through it, so the rule order and root are pinned
    for g in range(7):
        for n in range(1, 7):
            got, want = standard_presentation(g, n), _reference_standard_presentation(g, n)
            assert list(got.rules.items()) == list(want.rules.items()) and got.root == want.root
            assert pretty_print(got) == pretty_print(want)


def test_regularize_identity_on_rules():
    p = parse_presentation(FLUTE)
    assert regularize(p) is p
    ft = parse_presentation("surface x finite S(g=1, b=0, p=2)")
    r = regularize(ft)
    assert r.rules is not None and canonical_finite_type(r) == (1, 0, 2)


def test_cycle_bookkeeping_on_flute():
    auto = ends_automaton(parse_presentation(FLUTE))
    assert shaped_cycles(auto) == _on_cycles(named(auto)) == {"root", "punc"}
    assert set(forward(named(auto), shaped_cycles(auto))) == {"root", "punc"}
    assert auto.names == ["root", "punc"]
    assert _occurrences(auto, {0})[-1] == _occurrences(auto, {1})[-1] == INFINITE


def test_first_occurrences_paths():
    p = parse_presentation(FLUTE)
    assert first_occurrences(p, BlockKind.PANTS, 2) == [(), (0,)]
    assert first_occurrences(p, BlockKind.ANNULUS, 1) == [(1,)]
    with pytest.raises(ValueError):
        first_occurrences(p, BlockKind.HANDLE, 1)
    assert first_occurrences(p, BlockKind.PANTS, 0) == []
    with pytest.raises(ValueError):
        first_occurrences(p, BlockKind.PANTS, -1)


@pytest.mark.parametrize("count", [1.5, True, "2", None, -1])
def test_first_occurrences_count_is_a_natural(count):
    """1.5 found two paths, and True one."""
    with pytest.raises(ValueError, match="count must be a natural"):
        first_occurrences(parse_presentation(FLUTE), BlockKind.PANTS, count)


@pytest.mark.parametrize("data", [(1.5, 0, 1), (0, True, 1), (0, 0, "1"), (0, 0, None)])
def test_finite_type_data_are_integers(data):
    """FiniteType(1.5, 0, 1) was accepted, with genus 1.5."""
    with pytest.raises(PresentationSyntaxError, match="s: finite-type data must be integers"):
        SurfacePresentation("s", finite_type=FiniteType(*data))


@pytest.mark.parametrize("g, n", [(-2, 1), (1.5, 1), (True, 1), (0, 0), (0, 2.0), (0, True)])
def test_standard_presentation_takes_naturals(g, n):
    """standard_presentation(-2, 1) raised DanglingRuleError for its root."""
    with pytest.raises(ValueError) as raised:
        standard_presentation(g, n)
    assert not isinstance(raised.value, EndkitError)


def test_first_occurrences_deep_and_exact():
    tree = parse_presentation(
        "surface s { root = P(a1, a1); "
        + "".join(f"a{i} = P(a{i + 1}, a{i + 1}); " for i in range(1, 20))
        + "a20 = P(h, h); h = H(h) }"
    )
    # 2^21 nodes lie above the first Handle
    assert first_occurrences(tree, BlockKind.HANDLE, 2) == [(0,) * 21, (0,) * 20 + (1,)]

    chain = "; ".join(f"x{i} = A(x{i + 1})" for i in range(8000))
    deep = parse_presentation(f"surface s {{ {chain}; x8000 = P(t, t); t = A(t) }}")
    start = time.perf_counter()
    assert first_occurrences(deep, BlockKind.PANTS, 1) == [(0,) * 8000]
    assert time.perf_counter() - start < 1.0

    # two Pants in all of S(0, 0, 3): the search is exhaustive, not budgeted
    pants3 = parse_presentation("surface s finite S(g=0, b=0, p=3)")
    assert first_occurrences(pants3, BlockKind.PANTS, 2) == [(), (1,)]
    with pytest.raises(ValueError):
        first_occurrences(pants3, BlockKind.PANTS, 3)


# -- the rule-graph kernel against brute-force definitions -----------------

def _closure(succ):
    """reach[s]: states at the end of a path of one or more steps from s."""
    reach = {s: set(cs) for s, cs in succ.items()}
    changed = True
    while changed:
        changed = False
        for s in succ:
            more = set().union(*(reach[c] for c in reach[s])) - reach[s]
            if more:
                reach[s] |= more
                changed = True
    return reach


@settings(max_examples=500)
@given(successor_maps(), st.data())
def test_kernel_reachability_and_cycles(succ, data):
    reach = _closure(succ)
    starts = data.draw(st.lists(st.sampled_from(sorted(succ)), max_size=3))
    targets = set(data.draw(st.lists(st.sampled_from(sorted(succ)), max_size=3)))

    found = forward(succ, starts)
    assert found[: len(set(starts))] == list(dict.fromkeys(starts))
    assert sorted(found) == sorted(set(starts).union(*(reach[s] for s in starts)))

    hit = set(targets)  # naive fixpoint
    changed = True
    while changed:
        changed = False
        for s, cs in succ.items():
            if s not in hit and any(c in hit for c in cs):
                hit.add(s)
                changed = True
    assert backward(succ, targets) == hit

    # the textbook Tarjan, the oracle for the compiled components
    components = reference_sccs(succ)
    assert sorted(s for c in components for s in c) == sorted(succ)
    for c in components:
        for s in succ:
            mutual = s == c[0] or (s in reach[c[0]] and c[0] in reach[s])
            assert (s in c) == mutual
    position = {s: i for i, c in enumerate(components) for s in c}
    for s, cs in succ.items():
        assert all(position[c] <= position[s] for c in cs)
    assert _on_cycles(succ) == {s for s in succ if s in reach[s]}


def _preorder(succ: Successors, root: str) -> list[str]:
    """Depth-first preorder from ``root``, children in child order."""
    order, seen, todo = [], set(), [root]
    while todo:
        state = todo.pop()
        if state not in seen:
            seen.add(state)
            order.append(state)
            todo.extend(reversed(succ[state]))
    return order


def _assert_components_match_the_textbook_tarjan(auto: EndsAutomaton) -> None:
    """The textbook Tarjan's components, in its order (so reverse
    topological, the root's last), with each component's exits, members in
    numbering order, and its shape read off the edges."""
    succ, names = named(auto), auto.names
    components = reference_sccs(succ)
    assert [sorted(names[s] for s in c) for c in auto.components] == [sorted(c) for c in components]
    position = {s: i for i, c in enumerate(components) for s in c}
    assert auto.component_of == [position[s] for s in names]
    number = {s: i for i, s in enumerate(names)}
    for i, c in enumerate(components):
        members = sorted(c, key=number.__getitem__)
        assert auto.exits[i] == [position[x] for s in members for x in succ[s] if position[x] != i]
        branching = any(sum(position[x] == i for x in succ[s]) >= 2 for s in c)
        shape = BRANCHING if branching else CYCLE if len(c) > 1 or c[0] in succ[c[0]] else ACYCLIC
        assert auto.shapes[i] == shape


@settings(max_examples=500, deadline=None)
@given(presentations(max_states=8))
def test_the_walk_numbers_and_condenses_like_the_references(pres):
    """One walk from the root numbers the states in depth-first preorder, in
    child order, keeps each state's children and the Handle states, and
    closes the textbook Tarjan's components."""
    auto = ends_automaton(pres)
    succ = {s: cs for s, (_, cs) in pres.rules.items()}
    assert auto.names == _preorder(succ, pres.root)
    assert named(auto) == succ
    handles = {i for i, s in enumerate(auto.names) if pres.kind(s) is BlockKind.HANDLE}
    assert auto.nonplanar_states == handles
    _assert_components_match_the_textbook_tarjan(auto)


def test_components_match_the_textbook_tarjan_on_the_families():
    """Each benchmark family at 10^3 states, and a 10^5-state annulus chain:
    a depth-first path 10^5 states deep."""
    inputs = bench_inputs()
    family = [inputs.chain(1000), inputs.comb(1001), inputs.cantor_marked(1000), inputs.seq_tower(999)]
    for pres in [*family, inputs.chain(10**5)]:
        _assert_components_match_the_textbook_tarjan(ends_automaton(pres))


def _count_condensations(monkeypatch) -> list[int]:
    """Clear ends_automaton's memo and count the compiling walks from here
    on, so a count does not depend on which test compiled last."""
    runs: list[int] = []
    walk = endkit.presentation._condense

    def counted(rules, root):
        runs.append(len(rules))
        return walk(rules, root)

    monkeypatch.setattr(endkit.presentation, "_last", (None, None))
    monkeypatch.setattr(endkit.presentation, "_condense", counted)
    return runs


def test_one_condensation_per_presentation(monkeypatch, tmp_path, capsys):
    """Every invariant reads the automaton's condensation: the compiling
    walk runs once per input presentation, and not at all when the rule
    system is the one compiled just before."""
    runs = _count_condensations(monkeypatch)
    a = parse_presentation("surface a { r = H(x); x = P(x, t); t = A(t) }")
    b = parse_presentation("surface b { r = P(h, t); h = H(h); t = A(t) }")
    kerekjarto(a, b)
    assert len(runs) == 2

    runs.clear()
    path = tmp_path / "a.surf"
    path.write_text(pretty_print(a))
    assert main(["invariants", str(path)]) == 0
    capsys.readouterr()
    assert len(runs) == 1

    runs.clear()
    s_2_0_3 = parse_presentation(
        "surface f { r = H(x); x = H(y); y = P(t, u); t = A(t); u = P(t, v); v = A(v) }"
    )
    decompose(s_2_0_3, "strict", 16)
    assert len(runs) == 0
    find_essential_pants(s_2_0_3)
    assert len(runs) == 1

    runs.clear()
    interchange_normalize(s_2_0_3, ["u", "y", "x", "r"])
    assert len(runs) == 0  # find_essential_pants compiled this system last
    runs.clear()
    interchange_normalize(s_2_0_3, [(0, 0), (0,)])
    assert len(runs) == 0

    runs.clear()
    other = tmp_path / "b.surf"
    other.write_text(pretty_print(b))
    assert main(["graph-phe", str(path), str(other)]) == 0
    capsys.readouterr()
    assert len(runs) == 2


# -- ends_automaton's memo: the last rule system compiled, keyed by value ---
#
# Each case fails against a memo keyed by object identity.


def test_memo_serves_a_text_parsed_twice(monkeypatch):
    runs = _count_condensations(monkeypatch)
    first, second = parse_presentation(FLUTE), parse_presentation(FLUTE)
    assert ends_automaton(first) is ends_automaton(second)
    assert len(runs) == 1

    runs.clear()
    p = parse_presentation(CANTOR)
    assert kerekjarto(p, p).verdict is ClassVerdict.HOMEOMORPHIC
    assert len(runs) == 1


def test_memo_sees_a_rule_edited_in_place(monkeypatch):
    runs = _count_condensations(monkeypatch)
    p = parse_presentation(FLUTE)
    assert genus(p) == 0
    before = to_end_expr(ends_automaton(p)), ends_count(p, marked="nonplanar_only")
    p.rules["punc"] = (BlockKind.HANDLE, ("punc",))
    assert genus(p) == INFINITE
    after = to_end_expr(ends_automaton(p)), ends_count(p, marked="nonplanar_only")
    assert after[0] != before[0] and after[1] != before[1]
    assert len(runs) == 2


def test_memo_sees_a_reassigned_root(monkeypatch):
    """A root moved along the root's cycle: every rule is still reachable,
    the surface is the same, and the states are numbered from the new root."""
    runs = _count_condensations(monkeypatch)
    p = parse_presentation("surface two { r = P(a, b); a = A(r); b = H(b) }")
    before = ends_automaton(p)
    assert before.names == ["r", "a", "b"]
    p.root = "a"
    auto = ends_automaton(p)
    assert auto.names == ["a", "r", "b"] and len(runs) == 2
    assert auto.transitions == [(1,), (0, 2), (2,)] != before.transitions
    assert ends_count(p) == ends_count(before) and to_end_expr(auto) == to_end_expr(before)


def test_memo_keeps_no_system_with_a_list(monkeypatch):
    runs = _count_condensations(monkeypatch)
    children = ["r", "t"]
    p = SurfacePresentation("l", {"r": (BlockKind.PANTS, children), "t": (BlockKind.ANNULUS, ("t",))})
    assert ends_count(p).cardinality is Cardinality.COUNTABLY_INFINITE
    assert ends_count(p).cardinality is Cardinality.COUNTABLY_INFINITE
    assert len(runs) == 2 and endkit.presentation._last == (None, None)
    children[0] = "t"  # r = P(t, t): two ends
    assert ends_count(p) == EndsCount(Cardinality.FINITE, 2)
    assert len(runs) == 3


def test_memo_keys_the_rule_order(monkeypatch):
    """The same rules in another order are another key, compiled again, to
    an automaton equal to the first: the walk numbers states from the root,
    whatever the rule order; the rules are reordered in place."""
    runs = _count_condensations(monkeypatch)
    p = parse_presentation("surface a { r = P(x, t); x = H(x); t = A(t) }")
    original = ends_automaton(p)
    for state in ("x", "r"):  # rule order t, x, r
        p.rules[state] = p.rules.pop(state)
    reordered = ends_automaton(p)
    assert len(runs) == 2
    monkeypatch.setattr(endkit.presentation, "_last", (None, None))
    fresh = ends_automaton(p)
    assert reordered is not fresh and reordered is not original
    assert reordered == fresh == original
    assert reordered.names == ["r", "x", "t"]


def test_memo_serves_a_finite_triple_compiled_twice(monkeypatch):
    runs = _count_condensations(monkeypatch)
    text = "surface s finite S(g=2, b=1, p=2)"
    assert ends_automaton(parse_presentation(text)) is ends_automaton(parse_presentation(text))
    assert len(runs) == 1


def test_memo_holds_one_entry(monkeypatch):
    runs = _count_condensations(monkeypatch)
    for text in (FLUTE, LOCH, LOCH, FLUTE):
        auto = ends_automaton(parse_presentation(text))
    assert len(runs) == 3  # the second system replaced the first
    assert endkit.presentation._last[1] is auto


# -- answers for a presentation edited in place ----------------------------
#
# SurfacePresentation stays mutable, and only its constructor validates it.
# ends_automaton checks each state its walk meets, so every invariant answers
# for the system as it stands, or raises the constructor's error for it.

_PLANE = "surface u { x = A(x) }"
_T = "surface t { r = A(h); h = H(x); x = A(x) }"


# every public invariant, and kerekjarto against the plane
_ASKS = [
    genus, is_finite_type, canonical_finite_type, ends_count,
    lambda p: ends_count(p, marked="nonplanar_only"),
    lambda p: cb_report(ends_automaton(p)), lambda p: to_end_expr(ends_automaton(p)),
    lambda p: spine(p).rank, lambda p: kerekjarto(p, parse_presentation(_PLANE)),
]


def _constructor_error(p: SurfacePresentation) -> EndkitError:
    with pytest.raises(EndkitError) as built:
        SurfacePresentation(p.name, dict(p.rules), p.root)
    return built.value


def _assert_every_answer_raises(p: SurfacePresentation) -> None:
    """Every invariant, and kerekjarto on either side, raises the error the
    constructor raises for the system, with its message."""
    error = _constructor_error(p)
    for ask in [*_ASKS, lambda p: kerekjarto(parse_presentation(_PLANE), p)]:
        with pytest.raises(type(error)) as raised:
            ask(p)
        assert str(raised.value) == str(error)


def test_edit_reassigning_the_root_past_rules_raises_unreachable():
    """With the root moved to x, r and h are unreachable: the wrong answer
    was genus 1, and NotHomeomorphic against the plane by genus."""
    p = parse_presentation(_T)
    assert genus(p) == 1  # the memo holds the system before the edit
    p.root = "x"
    assert isinstance(_constructor_error(p), UnreachableRuleError)
    _assert_every_answer_raises(p)


def test_edit_to_an_undefined_child_raises_dangling():
    p = parse_presentation(FLUTE)
    genus(p)
    p.rules["punc"] = (BlockKind.ANNULUS, ("zzz",))  # was a bare KeyError
    assert isinstance(_constructor_error(p), DanglingRuleError)
    _assert_every_answer_raises(p)


def test_edit_to_a_one_child_pants_raises_syntax():
    p = parse_presentation(FLUTE)
    genus(p)
    p.rules["punc"] = (BlockKind.PANTS, ("punc",))  # was accepted
    assert type(_constructor_error(p)) is PresentationSyntaxError
    _assert_every_answer_raises(p)


# the walks that read the rules without the automaton; on the flute each
# meets the rule of ``punc``
_WALKS = [
    lambda p: decompose(p, "strict", 8), lambda p: interchange_normalize(p, [(1,)]),
    lambda p: first_occurrences(p, BlockKind.HANDLE, 1),
]


@pytest.mark.parametrize("rule", [(BlockKind.ANNULUS, ("zzz",)), (BlockKind.PANTS, ("punc",)), 5])
def test_edit_met_by_a_walk_raises_the_constructors_error(rule):
    """A dangling child raised a bare KeyError in decompose and
    interchange_normalize; a one-child Pants was walked as a Handle by
    decompose and raised a bare IndexError in interchange_normalize; a rule
    that is no pair raised a bare TypeError in interchange_normalize and
    first_occurrences."""
    p = parse_presentation(FLUTE)
    p.rules["punc"] = rule
    error = _constructor_error(p)
    for walk in _WALKS:
        with pytest.raises(type(error)) as raised:
            walk(p)
        assert str(raised.value) == str(error)


def test_edit_adding_only_an_unreachable_rule_is_not_seen_by_the_walks():
    """The walks check the states they meet, so a rule that no walk reaches
    leaves their answers as they were (the invariants refuse it)."""
    p = parse_presentation(FLUTE)
    walks = [*_WALKS[:2], lambda p: first_occurrences(p, BlockKind.PANTS, 3)]
    before = [walk(p) for walk in walks]
    p.rules["orphan"] = (BlockKind.ANNULUS, ("orphan",))
    assert [walk(p) for walk in walks] == before
    with pytest.raises(UnreachableRuleError):
        genus(p)


@pytest.mark.parametrize("ask", [
    genus, lambda p: to_end_expr(ends_automaton(p)), lambda p: decompose(p, "strict", 4),
    lambda p: first_occurrences(p, BlockKind.PANTS, 2), lambda p: interchange_normalize(p, [(1,)]),
    spine, lambda p: splice_annulus(p, "root", 0),
], ids=["genus", "to_end_expr", "decompose", "first_occurrences", "interchange_normalize", "spine",
        "splice_annulus"])
def test_edit_unsetting_the_root_answers_for_the_first_rule(ask):
    """A root unset in place is the first rule, as in the constructor;
    decompose, first_occurrences and interchange_normalize raised a bare
    AssertionError."""
    p = parse_presentation(FLUTE)
    p.root = None
    assert _answer(ask, p) == _answer(ask, parse_presentation(FLUTE))


def _answer(ask, p):
    """What ``ask`` answers for ``p``, or the class of the error it raises."""
    try:
        answer = ask(p)
    except EndkitError as error:
        return type(error)
    return answer.to_json() if hasattr(answer, "to_json") else answer


_EDIT_NAMES = ("s0", "s1", "s2", "s3", "new")


@st.composite
def _edits(draw):
    """One to three in-place edits: reassign the root, or replace, delete or
    add a rule; a rule's children, and the root, may name no rule, and a
    rule may have the wrong arity."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        state = draw(st.sampled_from(_EDIT_NAMES))
        what = draw(st.sampled_from(("root", "rule", "rule", "delete")))
        if what == "rule":
            kind = draw(st.sampled_from(list(BlockKind)))
            arity = draw(st.sampled_from((kind.arity,) * 4 + (1, 2, 3)))
            children = tuple(draw(st.sampled_from(_EDIT_NAMES)) for _ in range(arity))
            edits.append((what, state, (kind, children)))
        else:
            edits.append((what, state, None))
    return edits


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=4), _edits())
def test_edits_in_place_answer_as_a_fresh_build(pres, edits):
    """After edits in place, every invariant and kerekjarto verdict is that
    of a presentation built afresh from the edited rules, or the error class
    its constructor raises; the memo, warm with the system before the
    edits, never serves it."""
    plane = parse_presentation(_PLANE)
    asks = [*_ASKS, lambda p: kerekjarto(plane, p), lambda p: spine(p).core_states]
    key, compiled = (pres.root, list(pres.rules.items())), ends_automaton(pres)
    for what, state, rule in edits:
        if what == "root":
            pres.root = state
        elif what == "rule":
            pres.rules[state] = rule
        else:
            pres.rules.pop(state, None)
    edited = [_answer(ask, pres) for ask in asks]  # the first ask meets a memo warm with the old system
    try:
        fresh = SurfacePresentation("fresh", dict(pres.rules), pres.root)
    except EndkitError as error:
        assert edited == [type(error)] * len(asks)
        return
    assert edited == [_answer(ask, fresh) for ask in asks]
    if (pres.root, list(pres.rules.items())) != key:
        assert ends_automaton(pres) is not compiled


def test_block_kinds_hash_by_identity():
    table = {kind: kind.value for kind in BlockKind}
    for kind in BlockKind:
        assert hash(kind) == object.__hash__(kind)
    for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
        assert copied == table
        assert all(copied[kind] == kind.value and k is kind for k, kind in zip(copied, BlockKind))


# -- the parser against the token parser it replaced ----------------------

_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[{}();,=]|\S")


class _Cursor:
    def __init__(self, text: str):
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    def peek(self, ahead: int = 0) -> str | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise PresentationSyntaxError("unexpected end of input")
        if expected is not None and tok != expected:
            raise PresentationSyntaxError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def take_ident(self) -> str:
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise PresentationSyntaxError(f"expected identifier, got {tok!r}")
        return tok

    def take_nat(self) -> int:
        tok = self.take()
        if not re.fullmatch(r"[0-9]+", tok):
            raise PresentationSyntaxError(f"expected natural number, got {tok!r}")
        return int(tok)


def _reference_parse(text: str) -> SurfacePresentation:
    """The token-cursor parser that parse_presentation replaced, kept as an
    oracle for the accepted language."""
    p = _Cursor(text)
    p.take("surface")
    name = p.take_ident()
    if name == "finite" and p.peek() == "S":
        return _reference_finite(p, "surface")
    if p.peek() == "finite":
        p.take("finite")
        return _reference_finite(p, name)
    p.take("{")
    rules = {}
    root = None
    while True:
        lhs = p.take_ident()
        p.take("=")
        if lhs == "root" and p.peek(1) != "(":
            root = p.take_ident()
        else:
            letter = p.take()
            try:
                kind = BlockKind(letter)
            except ValueError:
                raise PresentationSyntaxError(f"unknown block kind {letter!r}") from None
            p.take("(")
            children = [p.take_ident()]
            if p.peek() == ",":
                p.take(",")
                children.append(p.take_ident())
            p.take(")")
            if lhs in rules:
                raise PresentationSyntaxError(f"duplicate rule for {lhs!r}")
            rules[lhs] = (kind, tuple(children))
        tok = p.take()
        if tok == "}":
            break
        if tok != ";":
            raise PresentationSyntaxError(f"expected ';' or '}}', got {tok!r}")
        if p.peek() == "}":  # tolerate a trailing semicolon
            p.take("}")
            break
    if p.peek() is not None:
        raise PresentationSyntaxError(f"trailing input at {p.peek()!r}")
    return SurfacePresentation(name=name, rules=rules, root=root)


def _reference_finite(p: _Cursor, name: str) -> SurfacePresentation:
    p.take("S")
    p.take("(")
    values = {}
    for i, key in enumerate(("g", "b", "p")):
        if i:
            p.take(",")
        p.take(key)
        p.take("=")
        values[key] = p.take_nat()
    p.take(")")
    if p.peek() is not None:
        raise PresentationSyntaxError(f"trailing input at {p.peek()!r}")
    return SurfacePresentation(
        name=name, finite_type=FiniteType(values["g"], values["b"], values["p"])
    )


def _outcome(parse, text):
    """(name, rules in order, root, finite type), or the error class."""
    try:
        p = parse(text)
    except EndkitError as exc:
        return type(exc)
    return p.name, p.rules and list(p.rules.items()), p.root, p.finite_type


# state and surface names that are also keywords or block letters
_NAMES = ("root", "finite", "surface", "S", "A", "P", "H", "g", "p", "x", "x1", "_y")
_SEPARATORS = ("", " ", "\t", "\n", " \n\t ")
_JUNK = ("{", "}", "(", ")", ";", ",", "=", "0", "12", "²", "é", "\x00")


@st.composite
def _drawn_presentations(draw):
    """Rule systems under keyword-like names, in shuffled rule order (so a
    root directive appears), or finite triples."""
    name = draw(st.sampled_from(_NAMES))
    if draw(st.booleans()):
        g, b, p = (draw(st.integers(0, 20)) for _ in range(3))
        return SurfacePresentation(name=name, finite_type=FiniteType(g, b, p + (b + p == 0)))
    pres = draw(presentations())
    new = dict(zip(pres.rules, draw(st.permutations(_NAMES))))
    order = draw(st.permutations(list(pres.rules)))
    rules = {new[s]: (pres.rules[s][0], tuple(new[c] for c in pres.rules[s][1])) for s in order}
    return SurfacePresentation(name=name, rules=rules, root=new[pres.root])


@st.composite
def presentation_texts(draw):
    """pretty_print text with redrawn whitespace between its tokens (none
    merges neighbours), after at most one token mutation."""
    tokens = _TOKEN.findall(pretty_print(draw(_drawn_presentations())))
    i = draw(st.integers(0, len(tokens) - 1))
    move = draw(st.sampled_from(("keep", "delete", "duplicate", "swap", "replace")))
    if move == "delete":
        del tokens[i]
    elif move == "duplicate":
        tokens.insert(i, tokens[i])
    elif move == "swap" and i + 1 < len(tokens):
        tokens[i], tokens[i + 1] = tokens[i + 1], tokens[i]
    elif move == "replace":
        tokens[i] = draw(st.sampled_from(_NAMES + _JUNK))
    gaps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))


@settings(max_examples=1500, deadline=None)
@given(presentation_texts())
def test_parser_matches_the_token_parser(text):
    assert _outcome(parse_presentation, text) == _outcome(_reference_parse, text)


class _NoTrace:
    def span(self, name):
        return contextlib.nullcontext()


def test_parser_matches_the_token_parser_on_the_corpus():
    inputs = bench_inputs()
    kinds, sizes = inputs.PAIR_KINDS, inputs.SIZES
    rng = random.Random(1)
    for i in range(1024):  # one lap of the classify-corpus workload
        kind, size = kinds[i % len(kinds)], sizes[(i // len(kinds)) % len(sizes)]
        for text in inputs.classify_pair(rng, kind, size, _NoTrace())[:2]:
            expected = _outcome(_reference_parse, text)
            assert isinstance(expected, tuple)
            assert _outcome(parse_presentation, text) == expected


# -- rule validation and printing -------------------------------------------

def _reference_validate(name, rules, root):
    """SurfacePresentation._validate_rules as two passes, the rules then a
    reachability walk over a second successor map: the oracle for its errors,
    their messages and their order.  Returns the root it settles on."""
    if not rules:
        raise PresentationSyntaxError(f"{name}: empty rule system")
    if root is None:
        root = next(iter(rules))
    if root not in rules:
        raise DanglingRuleError(f"{name}: root {root!r} is not a rule")
    for lhs, (kind, children) in rules.items():
        if len(children) != kind.arity:
            raise PresentationSyntaxError(
                f"{name}: {lhs} = {kind.value}(...) takes {kind.arity} child(ren), got {len(children)}"
            )
        for child in children:
            if child not in rules:
                raise DanglingRuleError(f"{name}: rule {lhs!r} references undefined {child!r}")
    unreachable = set(rules) - set(forward({s: c for s, (_, c) in rules.items()}, [root]))
    if unreachable:
        raise UnreachableRuleError(f"{name}: unreachable rule(s) {sorted(unreachable)}")
    return root


@st.composite
def _rule_systems(draw):
    """Rules over four states, mostly of the right arity, whose children and
    root may be undefined; the root may be left to default."""
    states = ("a", "b", "c", "d")
    defined = draw(st.lists(st.sampled_from(states), unique=True, max_size=4))
    rules = {}
    for lhs in defined:
        kind = draw(st.sampled_from(list(BlockKind)))
        n = draw(st.sampled_from((kind.arity,) * 4 + (0, 1, 2, 3)))
        rules[lhs] = (kind, tuple(draw(st.sampled_from([*defined, "ghost"])) for _ in range(n)))
    return rules, draw(st.none() | st.sampled_from([*defined, "ghost"]))


@st.composite
def _faulty_systems(draw):
    """A valid rule system with faults injected: rules of the wrong arity,
    undefined children and unreachable rules, none or several of each, in a
    shuffled rule order; the root is given, or left to the first rule."""
    pres = draw(presentations(max_states=8))
    rules = dict(pres.rules)
    states = list(rules)
    faults = draw(st.lists(st.sampled_from(("arity", "undefined", "unreachable")), max_size=4))
    for i, fault in enumerate(faults):
        lhs = draw(st.sampled_from(sorted(rules)))
        kind, children = rules[lhs]
        if fault == "arity":
            n = draw(st.sampled_from([n for n in range(4) if n != kind.arity]))
            rules[lhs] = (kind, tuple(draw(st.sampled_from(states)) for _ in range(n)))
        elif fault == "undefined" and children:
            slot = draw(st.integers(0, len(children) - 1))
            rules[lhs] = (kind, children[:slot] + (f"ghost{i}",) + children[slot + 1:])
        elif fault == "unreachable":
            kind = draw(st.sampled_from(list(BlockKind)))
            rules[f"u{i}"] = (kind, tuple(draw(st.sampled_from(states)) for _ in range(kind.arity)))
    order = draw(st.permutations(list(rules)))
    return {s: rules[s] for s in order}, draw(st.sampled_from((None, pres.root)))


@settings(max_examples=2000)
@given(_rule_systems() | _faulty_systems())
def test_validation_matches_the_two_pass_routine(system):
    rules, root = system

    def outcome(validate):
        try:
            return validate()
        except EndkitError as exc:
            return type(exc), str(exc)

    assert outcome(lambda: SurfacePresentation("x", dict(rules), root).root) == outcome(
        lambda: _reference_validate("x", rules, root)
    )


@pytest.mark.parametrize("rules", [
    {"a": ("A", ("a",))},  # a kind that is not a BlockKind
    {"a": (BlockKind.ANNULUS,)},  # not a (kind, children) pair
    {"a": (BlockKind.ANNULUS, None)},  # children that are not a sequence
    {"b": (BlockKind.ANNULUS, ("a",)), "a": "A(a)"},  # after a valid rule
], ids=["kind", "pair", "children", "second"])
def test_a_malformed_rule_is_a_syntax_error_naming_it(rules):
    with pytest.raises(PresentationSyntaxError, match=r"s: rule 'a' is not a \(BlockKind, children\) pair"):
        SurfacePresentation("s", rules=rules)


@pytest.mark.parametrize("rules, root, message", [
    ({"a": (BlockKind.ANNULUS, (["x"],))}, None, r"s: rule 'a' has an unhashable child \['x'\]"),
    ({"b": (BlockKind.PANTS, ("a", "b")), "a": (BlockKind.PANTS, ("a", {"x"}))}, None,
     r"s: rule 'a' has an unhashable child \{'x'\}"),
    ({"a": (BlockKind.ANNULUS, ("a",))}, ["a"], r"s: root \['a'\] is unhashable"),
], ids=["child", "second-child", "root"])
def test_an_unhashable_name_is_a_syntax_error_naming_it(rules, root, message):
    with pytest.raises(PresentationSyntaxError, match=message):
        SurfacePresentation("s", rules=rules, root=root)


def test_pretty_print_refuses_a_name_it_cannot_write():
    pres = SurfacePresentation(name="my surface", rules={"a b": (BlockKind.ANNULUS, ("a b",))})
    with pytest.raises(PresentationError, match="'my surface'"):
        pretty_print(pres)
    pres = SurfacePresentation(name="ok", rules={"a b": (BlockKind.ANNULUS, ("a b",))})
    with pytest.raises(PresentationError, match="'a b'"):
        pretty_print(pres)


_ANY_NAME = st.sampled_from(_NAMES) | st.text(max_size=4)


@st.composite
def _any_named(draw):
    """_drawn_presentations renamed with arbitrary strings, identifiers or not."""
    pres = draw(_drawn_presentations())
    name = draw(_ANY_NAME)
    if pres.finite_type is not None:
        return SurfacePresentation(name=name, finite_type=pres.finite_type)
    k = len(pres.rules)
    new = dict(zip(pres.rules, draw(st.lists(_ANY_NAME, unique=True, min_size=k, max_size=k))))
    rules = {new[s]: (kind, tuple(new[c] for c in children)) for s, (kind, children) in pres.rules.items()}
    return SurfacePresentation(name=name, rules=rules, root=new[pres.root])


@settings(max_examples=500)
@given(_any_named())
def test_printed_text_parses_back(pres):
    names = [pres.name, *(pres.rules or ())]
    try:
        text = pretty_print(pres)
    except PresentationError as exc:
        first = next(n for n in names if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", n))
        assert repr(first) in str(exc)
        return
    again = parse_presentation(text)
    assert again == pres
    assert again.rules is None or list(again.rules.items()) == list(pres.rules.items())
