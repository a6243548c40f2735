"""Rule-system parsing, validation, genus and finite-type detection."""

from __future__ import annotations

import contextlib
import copy
import importlib
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
    realize,
    regularize,
    splice_annulus,
    spine,
    standard_presentation,
    to_end_expr,
)
import endkit.presentation
from endkit import decompose, find_essential_pants, interchange_normalize, kerekjarto
from endkit._record import replace
from endkit.cli import main
from endkit.classify import ClassVerdict
from endkit.decompose import graph_phe_equal
from endkit.ends import Cardinality, _has_nonplanar, pair_homeomorphic
from endkit.errors import NotConvertibleError
from endkit.presentation import (
    ACYCLIC, BRANCHING, CYCLE, MAX_DIGITS, EndsAutomaton, Successors, _condense, ends_automaton, forward,
)

from conftest import (
    _occurrences, _on_cycles, backward, bench_inputs, census_cores, end_exprs, named, presentations,
    reference_condense, reference_sccs, reference_splice, shaped_cycles, successor_maps,
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
        if pres.rules[state][0] is BlockKind.HANDLE:
            depths.append(depth)
        for child in pres.rules[state][1]:
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


@pytest.mark.parametrize("state, slot, message", [
    ("nope", 0, "no state 'nope' to splice"), (["x"], 0, r"no state \['x'\] to splice"),
    ("root", 0.0, "slot 0.0 out of range for root"), ("root", True, "slot True out of range for root"),
])
def test_splice_annulus_refuses_an_unknown_state_or_a_slot_not_a_natural(state, slot, message):
    """An unknown state raised a bare KeyError, an unhashable one and a float
    slot a bare TypeError, and True spliced slot 1."""
    flute = parse_presentation("surface flute { root = P(root, punc); punc = A(punc) }")
    with pytest.raises(ValueError, match=message):
        splice_annulus(flute, state, slot)


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


@pytest.mark.parametrize("kind", ["P", 1, None, "PANTS"])
def test_first_occurrences_kind_is_a_block_kind(kind):
    """A kind that is not a BlockKind raised a bare AttributeError."""
    with pytest.raises(ValueError, match="kind must be a BlockKind"):
        first_occurrences(parse_presentation(FLUTE), kind, 1)


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
    assert {names[s]: i for i, c in enumerate(auto.components) for s in c} == position
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
    handles = {i for i, s in enumerate(auto.names) if pres.rules[s][0] is BlockKind.HANDLE}
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
    """Count the compiling walks from here on.  Each presentation keeps its
    own automaton, so a count over presentations built in the test does not
    depend on what earlier tests compiled."""
    runs: list[int] = []
    walk = endkit.presentation._condense

    def counted(rules, root):
        runs.append(len(rules))
        return walk(rules, root)

    monkeypatch.setattr(endkit.presentation, "_condense", counted)
    return runs


def test_one_condensation_per_presentation(monkeypatch, tmp_path, capsys):
    """Every invariant reads the automaton's condensation: the compiling
    walk runs once per input presentation, and not again for a presentation
    that keeps its automaton."""
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
    assert len(runs) == 0  # s_2_0_3 keeps the automaton find_essential_pants compiled
    runs.clear()
    interchange_normalize(s_2_0_3, [(0, 0), (0,)])
    assert len(runs) == 0

    runs.clear()
    other = tmp_path / "b.surf"
    other.write_text(pretty_print(b))
    assert main(["graph-phe", str(path), str(other)]) == 0
    capsys.readouterr()
    assert len(runs) == 2


# -- ends_automaton's memo: each presentation keeps its automaton ----------
#
# A presentation is a value: its constructor validates it once, and every edit
# in place raises at the assignment, so the automaton it keeps is never stale.
# An edited system is a new presentation, which compiles its own: the
# interleaved case fails against one memo for the whole module, and the copy
# cases against a memo shared by equal systems.


def _assert_refused(p: SurfacePresentation, *edits) -> None:
    """Each ``edit(p)`` raises at the assignment, AttributeError for a field
    and TypeError for the rules, and leaves ``p`` and what it keeps as they
    were."""
    before, kept = copy.deepcopy(p), p._kept
    for edit in edits:
        with pytest.raises((AttributeError, TypeError)):
            edit(p)
        assert p == before and list(p.rules or ()) == list(before.rules or ()) and p._kept is kept


def test_memo_is_kept_per_presentation(monkeypatch):
    """A text parsed twice is two presentations, each compiled once however
    often it is asked; a pair of one presentation compiles once."""
    runs = _count_condensations(monkeypatch)
    first, second = parse_presentation(FLUTE), parse_presentation(FLUTE)
    auto = ends_automaton(first)
    assert ends_automaton(first) is auto and ends_automaton(second) is not auto
    assert ends_automaton(second) == auto and ends_automaton(second) is second._kept[0]
    assert len(runs) == 2

    runs.clear()
    p = parse_presentation(CANTOR)
    assert kerekjarto(p, p).verdict is ClassVerdict.HOMEOMORPHIC
    assert len(runs) == 1


def test_memo_serves_interleaved_presentations(monkeypatch):
    """p, q, p compiles twice: asking q between does not evict p's automaton."""
    runs = _count_condensations(monkeypatch)
    p, q = parse_presentation(FLUTE), parse_presentation(LOCH)
    auto = ends_automaton(p)
    assert genus(q) == INFINITE and ends_automaton(p) is auto
    assert len(runs) == 2


def test_memo_compiles_afresh_after_each_edit(monkeypatch):
    """Each edit in place of a warm presentation (a rule, the root, the rule
    order) raises and keeps its automaton; the edited system, built afresh,
    compiles once, to the automaton of its own copy; a faulty edit is refused
    by the constructor."""
    runs = _count_condensations(monkeypatch)
    p = parse_presentation("surface two { r = P(a, b); a = A(r); b = H(b) }")
    auto = ends_automaton(p)
    rules = dict(p.rules)
    edited = [
        replace(p, rules={**rules, "b": (BlockKind.ANNULUS, ("b",))}),
        replace(p, root="a"),
        replace(p, rules={"a": rules["a"], "b": rules["b"], "r": rules["r"]}),
    ]
    _assert_refused(
        p, lambda p: p.rules.update(b=(BlockKind.ANNULUS, ("b",))), lambda p: setattr(p, "root", "a"),
        lambda p: p.rules.update(r=p.rules.pop("r")),
    )
    for q in edited:
        runs.clear()
        fresh = ends_automaton(q)
        assert ends_automaton(q) is fresh and len(runs) == 1
        assert fresh == ends_automaton(copy.copy(q))
    assert ends_automaton(p) is auto
    with pytest.raises(PresentationSyntaxError, match=r"takes 2 child\(ren\), got 1"):
        replace(p, rules={**rules, "b": (BlockKind.PANTS, ("b",))})


def test_memo_sees_a_rule_edited_in_place(monkeypatch):
    """The edit raises, so the memo keeps serving the system as built; the
    edited system is another presentation, with its own answers."""
    runs = _count_condensations(monkeypatch)
    p = parse_presentation(FLUTE)
    assert genus(p) == 0
    before = to_end_expr(ends_automaton(p)), ends_count(p, marked="nonplanar_only")
    _assert_refused(p, lambda p: p.rules.__setitem__("punc", (BlockKind.HANDLE, ("punc",))))
    assert genus(p) == 0 and (to_end_expr(ends_automaton(p)), ends_count(p, marked="nonplanar_only")) == before
    q = replace(p, rules={**p.rules, "punc": (BlockKind.HANDLE, ("punc",))})
    assert genus(q) == INFINITE
    after = to_end_expr(ends_automaton(q)), ends_count(q, marked="nonplanar_only")
    assert after[0] != before[0] and after[1] != before[1]
    assert len(runs) == 2


def test_memo_sees_a_reassigned_root(monkeypatch):
    """A root moved along the root's cycle, in a copy (assigning it raises):
    every rule is still reachable, the surface is the same, and the states
    are numbered from the new root."""
    runs = _count_condensations(monkeypatch)
    p = parse_presentation("surface two { r = P(a, b); a = A(r); b = H(b) }")
    before = ends_automaton(p)
    assert before.names == ["r", "a", "b"]
    _assert_refused(p, lambda p: setattr(p, "root", "a"))
    q = replace(p, root="a")
    auto = ends_automaton(q)
    assert auto.names == ["a", "r", "b"] and len(runs) == 2
    assert auto.transitions == [(1,), (0, 2), (2,)] != before.transitions
    assert ends_count(q) == ends_count(before) and to_end_expr(auto) == to_end_expr(before)
    assert ends_automaton(p) is before


def test_memo_keeps_a_system_with_a_list_once(monkeypatch):
    """Rules hold their values as given: a system with a list of children
    is validated and compiled once, as its tuple twin, like any other (a
    `Rule` is tuples, so a caller who builds one of lists leaves them be)."""
    runs = _count_condensations(monkeypatch)
    children = ["r", "t"]
    p = SurfacePresentation("l", {"r": (BlockKind.PANTS, children), "t": (BlockKind.ANNULUS, ("t",))})
    twin = SurfacePresentation("l", {"r": (BlockKind.PANTS, ("r", "t")), "t": (BlockKind.ANNULUS, ("t",))})
    assert ends_count(p).cardinality is Cardinality.COUNTABLY_INFINITE
    assert ends_count(p) == ends_count(twin) and ends_automaton(p) == ends_automaton(twin)
    assert len(runs) == 2 and p._kept[0] is ends_automaton(p)


def test_memo_keys_the_rule_order(monkeypatch):
    """The same rules in another order are another presentation (reordering
    in place raises), compiled again, to an automaton equal to the first:
    the walk numbers states from the root, whatever the rule order."""
    runs = _count_condensations(monkeypatch)
    p = parse_presentation("surface a { r = P(x, t); x = H(x); t = A(t) }")
    original = ends_automaton(p)
    _assert_refused(p, lambda p: p.rules.update(x=p.rules.pop("x")))
    q = replace(p, rules={s: p.rules[s] for s in ("t", "x", "r")}, root="r")
    reordered = ends_automaton(q)
    assert len(runs) == 2
    fresh = ends_automaton(copy.copy(q))  # a rebuilt presentation keeps nothing
    assert reordered is not fresh and reordered is not original
    assert reordered == fresh == original
    assert reordered.names == ["r", "x", "t"]


def test_memo_serves_a_finite_triple_compiled_twice(monkeypatch):
    """The triple keeps the automaton of its standard presentation, and
    stays a triple."""
    runs = _count_condensations(monkeypatch)
    s = parse_presentation("surface s finite S(g=2, b=1, p=2)")
    auto = ends_automaton(s)
    assert ends_automaton(s) is auto and len(runs) == 1
    assert s.rules is None and s.finite_type == FiniteType(2, 1, 2)
    assert auto == ends_automaton(standard_presentation(2, 3))


def test_memo_holds_one_entry(monkeypatch):
    """A presentation keeps only the automaton of its own system: assigning
    it another system raises, and it compiles once."""
    runs = _count_condensations(monkeypatch)
    p, q = parse_presentation(FLUTE), parse_presentation(LOCH)
    auto = ends_automaton(p)
    _assert_refused(p, lambda p: setattr(p, "rules", q.rules), lambda p: setattr(p, "root", q.root))
    assert ends_automaton(p) is auto and len(runs) == 1
    assert p._kept == (auto, 0)


def test_memo_is_not_a_field():
    """``==``, ``repr``, pickle, ``copy`` and `replace` ignore the kept
    automaton: a presentation they rebuild goes through the constructor, so
    it keeps no automaton and the hint 0, and its rules are read-only."""
    warm, cold = parse_presentation(FLUTE), parse_presentation(FLUTE)
    auto = ends_automaton(warm)
    assert warm == cold and repr(warm) == repr(cold)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    with pytest.raises(TypeError):
        hash(warm)
    rebuilt = (pickle.loads(pickle.dumps(warm)), copy.copy(warm), copy.deepcopy(warm), replace(warm))
    for copy_ in rebuilt:
        assert copy_ == warm and copy_._kept == (None, 0)
        assert ends_automaton(copy_) == auto and copy_._kept[0] is not auto
        _assert_refused(copy_, lambda p: p.rules.clear(), lambda p: setattr(p, "name", "other"))
    assert warm._kept[0] is auto


def _count_standard_builds(monkeypatch) -> list[int]:
    """Count the standard presentations built from here on."""
    builds: list[int] = []
    build = endkit.presentation.standard_presentation

    def counted(g, n, name="std"):
        builds.append(n)
        return build(g, n, name)

    monkeypatch.setattr(endkit.presentation, "standard_presentation", counted)
    return builds


def test_memo_of_a_warm_triple_builds_no_standard_presentation(monkeypatch):
    """A triple is keyed by its FiniteType: only a cold call builds the
    standard presentation it compiles."""
    builds = _count_standard_builds(monkeypatch)
    s = parse_presentation("surface s finite S(g=100000, b=0, p=1)")
    auto = ends_automaton(s)
    assert len(builds) == 1
    for _ in range(3):
        assert ends_automaton(s) is auto
    assert genus(s) == 100000 and canonical_finite_type(s) == (100000, 0, 1)
    assert len(builds) == 1


def test_memo_serves_spine_and_essential_pants_of_a_triple(monkeypatch):
    """spine and find_essential_pants ask the triple they were given, not a
    throwaway standard presentation, so two of each compile once."""
    runs = _count_condensations(monkeypatch)
    s = parse_presentation("surface s finite S(g=2, b=1, p=2)")
    ranks = {spine(s).rank for _ in range(2)}
    pieces = {find_essential_pants(s).pants_id for _ in range(2)}
    assert len(runs) == 1
    assert ranks == {spine(standard_presentation(2, 3)).rank} and len(pieces) == 1


def test_memo_recompiles_a_triple_after_its_finite_type_is_reassigned(monkeypatch):
    """Reassigning a triple's FiniteType raises; a copy with another triple
    compiles its own automaton, and the warm triple keeps its."""
    expected = ends_automaton(standard_presentation(3, 1))
    runs = _count_condensations(monkeypatch)
    s = parse_presentation("surface s finite S(g=2, b=1, p=2)")
    before = ends_automaton(s)
    _assert_refused(s, lambda s: setattr(s, "finite_type", FiniteType(3, 0, 1)))
    t = replace(s, finite_type=FiniteType(3, 0, 1))
    auto = ends_automaton(t)
    assert ends_automaton(t) is auto and len(runs) == 2
    assert auto != before and auto == expected
    assert ends_automaton(s) is before and len(runs) == 2


# -- splice chains: each result keeps its next free name ------------------
#
# A splice's result is valid by construction, so the splice skips the
# constructor's walk; the result keeps the hint, the first ``sp<i>`` its own
# splice may find free, and that splice starts its name search there.
# Every chain answers as the reference splice (conftest.reference_splice),
# which builds through the constructor and searches from sp0.


def _count_walks(monkeypatch) -> list[int]:
    """Count the constructor's validation walks from here on."""
    walks: list[int] = []
    validate = SurfacePresentation._validate_rules

    def counted(self):
        walks.append(len(self.rules))
        return validate(self)

    monkeypatch.setattr(SurfacePresentation, "_validate_rules", counted)
    return walks


def _splice_as_the_reference(p: SurfacePresentation, state, slot) -> SurfacePresentation | None:
    """``splice_annulus(p, state, slot)``, checked against the reference: the
    same rules in order, root and name, or the same error with its message
    (then None)."""
    try:
        expected = reference_splice(p, state, slot)
    except (EndkitError, ValueError) as error:
        with pytest.raises(type(error)) as raised:
            splice_annulus(p, state, slot)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        return None
    out = splice_annulus(p, state, slot)
    assert list(out.rules.items()) == list(expected.rules.items())
    assert (out.root, out.name, out.finite_type) == (expected.root, expected.name, None)
    return out


def _pick(p: SurfacePresentation, pick: int) -> tuple[str, int]:
    """A state of ``p``'s system and a slot of it, chosen by ``pick``; an
    undefined state when the system is empty."""
    rules = regularize(p).rules if p.rules is None else p.rules
    states = list(rules)
    if not states:
        return "gone", 0
    state = states[pick % len(states)]
    return state, pick // len(states) % len(rules[state][1])


@st.composite
def _splice_inputs(draw) -> SurfacePresentation:
    """A rule system, a finite triple, or a system that already holds
    ``sp<i>`` names with gaps between them."""
    shape = draw(st.sampled_from(("rules", "triple", "sp names")))
    if shape == "triple":
        g, b = draw(st.integers(0, 3)), draw(st.integers(0, 2))
        return SurfacePresentation("t", finite_type=FiniteType(g, b, draw(st.integers(b == 0, 3))))
    pres = draw(presentations())
    if shape == "sp names":
        numbers = draw(st.lists(st.integers(0, 7), min_size=len(pres.rules),
                                max_size=len(pres.rules), unique=True))
        renamed = [draw(st.booleans()) for _ in numbers]
        new = {s: f"sp{k}" if r else s for s, k, r in zip(pres.rules, numbers, renamed)}
        rules = {new[s]: (kind, tuple(new[c] for c in cs)) for s, (kind, cs) in pres.rules.items()}
        pres = SurfacePresentation(pres.name, rules, new[pres.root])
    return pres


@settings(max_examples=150, deadline=None)
@given(_splice_inputs(), st.lists(st.integers(0, 10**6), max_size=30))
def test_splice_chains_match_the_reference(pres, picks):
    for pick in picks:
        pres = _splice_as_the_reference(pres, *_pick(pres, pick))
        assert pres is not None


def _replace_a_rule(p, target, other):
    p.rules[target] = (BlockKind.ANNULUS, (other,))


_SPLICE_EDITS = {
    "a replaced rule": _replace_a_rule,
    "a rule replaced by one with an undefined child": lambda p, t, o: _replace_a_rule(p, t, "gone"),
    "a deleted rule": lambda p, target, other: p.rules.pop(target),
    "a moved root": lambda p, target, other: setattr(p, "root", target),
    "an unset root": lambda p, target, other: setattr(p, "root", None),
    "an added orphan": lambda p, t, o: p.rules.update(orphan=(BlockKind.ANNULUS, ("orphan",))),
    "a list of children": lambda p, t, o: p.rules.update({t: (p.rules[t][0], list(p.rules[t][1]))}),
}


@pytest.mark.parametrize("edit", list(_SPLICE_EDITS))
@settings(max_examples=40, deadline=None)
@given(pres=presentations(), before=st.integers(0, 8),
       picks=st.lists(st.integers(0, 10**6), min_size=14, max_size=14))
def test_splice_after_an_edit_in_place_answers_as_a_fresh_build(edit, pres, before, picks):
    """An edit after ``before`` splices raises at the assignment and leaves
    the spliced presentation and its hint as they were: the next splice, and
    every one after, answers as the reference on a fresh build of it."""
    *picks, target, other = picks
    for i, pick in enumerate(picks):
        if i == before:
            target, _ = _pick(pres, target)
            other, _ = _pick(pres, other)
            _assert_refused(pres, lambda p: _SPLICE_EDITS[edit](p, target, other))
        pres = _splice_as_the_reference(pres, *_pick(pres, pick))
        assert pres is not None


def test_splice_after_an_edit_that_frees_a_name_takes_it():
    """sp0 cannot be edited away in place, so the next splice takes sp2; a
    fresh build of the system without sp0 keeps the hint 0, and its next
    splice takes sp0 again, as the reference does."""
    pres = splice_annulus(splice_annulus(parse_presentation(FLUTE), "punc", 0), "root", 1)
    _assert_refused(pres, lambda p: p.rules.__delitem__("sp0"), lambda p: p.rules.pop("sp0"))
    assert next(reversed(_splice_as_the_reference(pres, "root", 0).rules)) == "sp2"
    rules = {s: r for s, r in pres.rules.items() if s != "sp0"}
    rules["punc"] = (BlockKind.ANNULUS, ("punc",))
    freed = SurfacePresentation(pres.name, rules, pres.root)
    ends_automaton(freed)
    out = _splice_as_the_reference(freed, "root", 0)
    assert next(reversed(out.rules)) == "sp0"


def test_splice_copies_keep_nothing(monkeypatch):
    """copy, deepcopy, pickle and `replace` of a spliced presentation keep
    nothing of the splice: each is rebuilt through the constructor, so it
    keeps the hint 0 and no automaton, and its next splice runs no walk."""
    spliced = splice_annulus(splice_annulus(parse_presentation(FLUTE), "root", 1), "root", 0)
    auto = ends_automaton(spliced)
    walks = _count_walks(monkeypatch)
    copies = [copy.copy(spliced), copy.deepcopy(spliced), pickle.loads(pickle.dumps(spliced)),
              replace(spliced)]
    assert len(walks) == len(copies)  # each rebuilt through the constructor
    expected = reference_splice(spliced, "punc", 0)
    for copy_ in copies:
        assert copy_ == spliced and copy_._kept == (None, 0)
        walks.clear()
        again = splice_annulus(copy_, "punc", 0)
        assert len(walks) == 0 and list(again.rules.items()) == list(expected.rules.items())
        assert ends_automaton(copy_) == auto and copy_._kept[0] is not auto


def test_a_splice_chain_of_500_validates_once(monkeypatch):
    """Only the parse runs the constructor's walk: each splice's result is
    valid by construction, and the k-th result's fresh state, last in rule
    order, is sp<k-1>."""
    walks = _count_walks(monkeypatch)
    pres, rng = parse_presentation(FLUTE), random.Random(0)
    assert len(walks) == 1
    for k in range(1, 501):
        state = rng.choice(list(pres.rules))
        pres = splice_annulus(pres, state, rng.randrange(len(pres.rules[state][1])))
        assert next(reversed(pres.rules)) == f"sp{k - 1}"
    assert len(walks) == 1 and len(pres.rules) == 502
    fresh = SurfacePresentation(pres.name, dict(pres.rules), pres.root)  # valid
    assert ends_automaton(pres) == ends_automaton(fresh)


def test_splice_result_compiles_once_and_keeps_its_next_name(monkeypatch):
    """A spliced result keeps its hint but no automaton: its first question
    compiles and fills the automaton in, and the splice after it still
    skips the walk and takes the next name."""
    pres = splice_annulus(parse_presentation(FLUTE), "punc", 0)
    runs, walks = _count_condensations(monkeypatch), _count_walks(monkeypatch)
    auto = ends_automaton(pres)
    assert ends_automaton(pres) is auto and genus(pres) == 0 and len(runs) == 1
    again = splice_annulus(pres, "sp0", 0)
    assert next(reversed(again.rules)) == "sp1" and len(walks) == 0
    assert ends_automaton(pres) is auto and len(runs) == 1


# -- systems valid by construction pass the constructor ------------------
#
# `splice_annulus`, `standard_presentation`, `classify.realize` and
# `decompose._rebuild` build their results from checked parts, without the
# constructor's validation walk (`presentation._from_valid`): each result,
# passed back through the public constructor, is accepted unchanged.


def _passes_the_constructor(p: SurfacePresentation) -> None:
    again = SurfacePresentation(p.name, dict(p.rules), p.root)
    assert again == p and list(again.rules.items()) == list(p.rules.items())
    assert type(p.rules) is type(again.rules) and p.finite_type is None


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rebuilt_census_cores_pass_the_constructor(seed):
    """Interchanges of unfolding paths of each census core (`_rebuild`'s
    chain), its five-pants tree and two-handle chain where the unfolding
    holds them (`find_essential_pants`'s), and its splices."""
    rng = random.Random(seed)
    for core in census_cores(seed):
        paths = [path for path, _ in core.unfold(12)]
        for _ in range(3):
            _passes_the_constructor(interchange_normalize(core, rng.sample(paths, rng.randint(1, 4))))
        for kind, count, wiring in ((BlockKind.PANTS, 5, "tree5"), (BlockKind.HANDLE, 2, "chain")):
            try:
                front = first_occurrences(core, kind, count)
            except ValueError:  # fewer occurrences in the unfolding
                continue
            _passes_the_constructor(importlib.import_module("endkit.decompose")._rebuild(core, front, wiring))
        state = rng.choice(list(core.rules))
        _passes_the_constructor(splice_annulus(core, state, rng.randrange(len(core.rules[state][1]))))
    for g in range(4):
        for n in range(1, 5):
            _passes_the_constructor(standard_presentation(g, n))


@settings(max_examples=300, deadline=None)
@given(end_exprs(), st.integers(0, 3))
def test_realized_expressions_pass_the_constructor(e, g):
    _passes_the_constructor(realize(INFINITE if _has_nonplanar(e) else g, e))


# -- one-state cycles on the compiling walk's fast path --------------------

_SELF_LOOPS = [
    "a = A(a)", "h = H(h)", "c = P(c, c)", "s = P(s, x); x = A(x)", "s = P(x, s); x = A(x)",
    # a Handle below a self-loop's exit, and Pants below one
    "s = P(s, g); g = H(t); t = A(t)", "s = P(q, s); q = P(t, t); t = A(t)",
]


@pytest.mark.parametrize("rules", _SELF_LOOPS)
@pytest.mark.parametrize("above", ["", "r = H(r0); r0 = P(r1, u); r1 = A({}); u = A(u); "])
def test_one_state_cycles_close_on_the_condensation_fast_path(rules, above):
    """A component of one state with a self-loop: its members, shape and
    exits as the textbook Tarjan reads them, and its closures and the
    root's counts as the reference counter gives them, at the root and
    below an acyclic head."""
    pres = parse_presentation(f"surface s {{ {above.format(rules[0])}{rules} }}")
    auto = ends_automaton(pres)
    _assert_components_match_the_textbook_tarjan(auto)
    pants = frozenset(s for s, cs in enumerate(auto.transitions) if len(cs) == 2)
    hs, ps = _occurrences(auto, auto.nonplanar_states), _occurrences(auto, pants)
    assert auto.handle_closure == bytes(map(bool, hs)) and auto.pants_closure == bytes(map(bool, ps))
    assert (auto.handle_count, auto.pants_count) == (hs[-1], ps[-1])


# -- the automaton's folds: kept on it, and off the record -----------------
#
# An automaton keeps its CB data and its normal form once asked; a warm
# automaton must answer as a fresh one, and compare, hash, print, pickle and
# replace as one.


def _fold_asks(pa: SurfacePresentation, pb: SurfacePresentation, a: EndsAutomaton, b: EndsAutomaton):
    """Every question that reads an automaton's folds, on ``a`` (and ``b``)."""
    return {
        "ends": lambda: ends_count(a),
        "ends_nonplanar": lambda: ends_count(a, marked="nonplanar_only"),
        "cb": lambda: cb_report(a),
        "cb_nonplanar": lambda: cb_report(a, marked="nonplanar_only"),
        "expr": lambda: to_end_expr(a),
        "kerekjarto": lambda: kerekjarto(pa, pb),
        "kerekjarto_back": lambda: kerekjarto(pb, pa),
        "pair": lambda: pair_homeomorphic(a, b),
        "pair_back": lambda: pair_homeomorphic(b, a),
        "graph_phe": lambda: graph_phe_equal(spine(pa), spine(pb)),
    }


def _fold_answer(ask, raised: list) -> object:
    try:
        return ask()
    except NotConvertibleError as e:
        raised.append(e)
        return NotConvertibleError, str(e)


def _hashed(auto: EndsAutomaton) -> object:
    try:
        return hash(auto)
    except TypeError as e:
        return str(e)


def _fresh(pres: SurfacePresentation) -> EndsAutomaton:
    """A cold automaton of ``pres``: compiled for a copy, which keeps nothing yet."""
    return ends_automaton(copy.copy(pres))


def _assert_folds_answer_as_cold(monkeypatch, pa, pb, rounds: int, rng: random.Random) -> None:
    """One pair of automata asked every question in ``rounds`` shuffled
    orders answers each as a fresh pair, compiled for copies."""
    cold = {}
    for name in _fold_asks(pa, pb, None, None):
        autos = {id(pa): _fresh(pa), id(pb): _fresh(pb)}
        for module in ("endkit.classify", "endkit.decompose"):  # the modules, not the functions
            monkeypatch.setattr(importlib.import_module(module), "ends_automaton", lambda p: autos[id(p)])
        cold[name] = _fold_answer(_fold_asks(pa, pb, autos[id(pa)], autos[id(pb)])[name], [])
    a, b = _fresh(pa), _fresh(pb)
    autos = {id(pa): a, id(pb): b}
    raised: list = []
    asks = list(_fold_asks(pa, pb, a, b).items())
    for _ in range(rounds):
        rng.shuffle(asks)
        for name, ask in asks:
            assert _fold_answer(ask, raised) == cold[name], (name, pa, pb)
    # each ask of a surface without a normal form raises a fresh error
    assert len({id(e) for e in raised}) == len(raised)
    for warm, pres in ((a, pa), (b, pb)):
        fresh = _fresh(pres)
        assert warm == fresh and repr(warm) == repr(fresh)
        assert _hashed(warm) == _hashed(fresh)  # the fields hold lists: both refuse alike
        for copy_ in (pickle.loads(pickle.dumps(warm)), replace(warm), copy.copy(warm)):
            assert copy_ == fresh and copy_._kept == [None, None, None]
            assert _fold_answer(lambda: to_end_expr(copy_), []) == _fold_answer(lambda: to_end_expr(fresh), [])
            assert cb_report(copy_, marked="nonplanar_only") == cb_report(fresh, marked="nonplanar_only")


def test_folds_of_a_warm_automaton_answer_as_a_cold_one(monkeypatch):
    """Census cores of seeds 0-2, each against the next, and the
    not-convertible pair m1 / m2."""
    rng = random.Random(30)
    cores = [c for seed in range(3) for c in census_cores(seed)]
    pairs = list(zip(cores, cores[1:] + cores[:1]))
    pairs.append((parse_presentation("surface m1 { a = P(a, b); b = P(a, c); c = A(c) }"),
                  parse_presentation("surface m2 { a = P(b, a); b = P(a, c); c = A(c) }")))
    for pa, pb in pairs:
        _assert_folds_answer_as_cold(monkeypatch, pa, pb, 2, rng)
    assert kerekjarto(*pairs[-1]).verdict is ClassVerdict.UNKNOWN


def test_folds_of_the_deep_families_answer_as_cold_ones(monkeypatch):
    """The four deep families at 50-400 states, each against a spliced copy
    (a Yes) and against the next family's member (a No)."""
    inputs, rng = bench_inputs(), random.Random(31)
    members = [build(size) for build, sizes in inputs.FAMILIES.values() for size in sizes]
    for pa, other in zip(members, members[1:] + members[:1]):
        state = rng.choice(list(pa.rules))
        spliced = splice_annulus(pa, state, rng.randrange(len(pa.rules[state][1])))
        for pb in (spliced, other):
            _assert_folds_answer_as_cold(monkeypatch, pa, pb, 2, rng)


def test_folds_keep_a_warm_table_bounded():
    """A warm automaton compared with 2,000 cold ones: its normal form's
    table does not grow, as a cold side folds into a table of its own."""
    inputs, rng = bench_inputs(), random.Random(32)
    warm = ends_automaton(inputs.comb(51))
    expr = to_end_expr(warm)
    forms = warm._kept[2][0]
    sizes = len(forms.nodes), len(forms.ids), len(forms.keys), len(forms.inside)
    for _ in range(2000):
        cold = _fresh(inputs.random_core(rng, max_states=8))
        pair_homeomorphic(warm, cold)
        pair_homeomorphic(cold, warm)
    assert warm._kept[2][0] is forms
    assert (len(forms.nodes), len(forms.ids), len(forms.keys), len(forms.inside)) == sizes
    assert to_end_expr(warm) == expr


# -- a presentation is a value: every edit in place raises -----------------
#
# The constructor validates a system once.  Assigning to or deleting a field
# raises AttributeError, and every mutator of the rules TypeError, at the
# assignment, so no entry point checks a presentation again and every
# answer stands; an edited system is built afresh, and the constructor raises
# its error for a faulty one.

_PLANE = "surface u { x = A(x) }"
_T = "surface t { r = A(h); h = H(x); x = A(x) }"


# every public invariant, and kerekjarto against the plane
_ASKS = [
    genus, is_finite_type, canonical_finite_type, ends_count,
    lambda p: ends_count(p, marked="nonplanar_only"),
    lambda p: cb_report(ends_automaton(p)), lambda p: to_end_expr(ends_automaton(p)),
    lambda p: spine(p).rank, lambda p: kerekjarto(p, parse_presentation(_PLANE)),
]

# every entry point that reads a presentation
_DOORS = {
    "ends_automaton": ends_automaton,
    "regularize": regularize,
    "splice_annulus": lambda p: splice_annulus(p, next(iter(p.rules)), 0),
    "decompose": lambda p: decompose(p, "lenient", 8),
    "interchange_normalize": lambda p: interchange_normalize(p, [(0,)]),
    "first_occurrences": lambda p: first_occurrences(p, BlockKind.PANTS, 1),
    "spine": spine,
    "find_essential_pants": find_essential_pants,
    "genus": genus,
    "is_finite_type": is_finite_type,
    "canonical_finite_type": canonical_finite_type,
    "unfold": lambda p: list(p.unfold(16)),
    "pretty_print": pretty_print,
    "ends_count": ends_count,
    "cb_report": cb_report,
    "to_end_expr": to_end_expr,
    "kerekjarto": lambda p: kerekjarto(p, parse_presentation(_PLANE)),
}


def _assert_every_door_answers_as_built(p: SurfacePresentation, doors: dict, *edits) -> None:
    """Each edit raises at the assignment, and every door answers for ``p``
    as before."""
    ends_automaton(p)  # compiled: it keeps its automaton
    answers = {name: _answer(door, p) for name, door in doors.items()}
    _assert_refused(p, *edits)
    assert {name: _answer(door, p) for name, door in doors.items()} == answers


_RULE_MUTATORS = {
    "setitem": lambda rules: rules.__setitem__("punc", (BlockKind.HANDLE, ("punc",))),
    "delitem": lambda rules: rules.__delitem__("punc"),
    "pop": lambda rules: rules.pop("punc"),
    "popitem": lambda rules: rules.popitem(),
    "clear": lambda rules: rules.clear(),
    "update": lambda rules: rules.update(orphan=(BlockKind.ANNULUS, ("orphan",))),
    "setdefault": lambda rules: rules.setdefault("orphan", (BlockKind.ANNULUS, ("orphan",))),
    "ior": lambda rules: rules.__ior__({"orphan": (BlockKind.ANNULUS, ("orphan",))}),
}


def test_edit_of_a_field_or_the_rules_raises_at_the_assignment():
    """Each field's assignment and deletion raises AttributeError, on a rule
    system and on a triple, and each mutator of the rules TypeError (``|=``
    too); the copies that build from them, ``dict(rules)``, ``{**rules}``,
    ``rules.copy()`` and ``rules | other``, are plain dicts."""
    for text in (FLUTE, "surface s finite S(g=2, b=1, p=2)"):
        p = parse_presentation(text)
        ends_automaton(p)
        for field in ("name", "rules", "root", "finite_type", "_kept"):
            _assert_refused(p, lambda p: setattr(p, field, None), lambda p: delattr(p, field))
            with pytest.raises(AttributeError, match=f"cannot (assign to|delete) field '{field}'"):
                setattr(p, field, None)
    p = parse_presentation(FLUTE)
    auto = ends_automaton(p)
    for name, mutate in _RULE_MUTATORS.items():
        with pytest.raises(TypeError, match="a presentation's rules are read-only"):
            mutate(p.rules)
    rules = p.rules
    with pytest.raises(TypeError):
        rules |= {"orphan": (BlockKind.ANNULUS, ("orphan",))}
    with pytest.raises(TypeError):
        p.rules["punc"] = (BlockKind.HANDLE, ("punc",))
    with pytest.raises(TypeError):
        del p.rules["punc"]
    assert p == parse_presentation(FLUTE) and ends_automaton(p) is auto and genus(p) == 0
    for plain in (dict(p.rules), {**p.rules}, p.rules.copy(), p.rules | {}):
        assert type(plain) is dict and plain == p.rules and list(plain) == list(p.rules)
        plain["punc"] = (BlockKind.HANDLE, ("punc",))  # a copy is the caller's
        assert genus(SurfacePresentation(p.name, plain, p.root)) == INFINITE and genus(p) == 0


def test_edit_reassigning_the_root_past_rules_raises_unreachable():
    """With the root moved to x, r and h are unreachable (the wrong answer
    was genus 1, and NotHomeomorphic against the plane by genus): the
    assignment raises, and so does building the moved system."""
    p = parse_presentation(_T)
    assert genus(p) == 1
    _assert_every_door_answers_as_built(p, _DOORS, lambda p: setattr(p, "root", "x"))
    with pytest.raises(UnreachableRuleError):
        replace(p, root="x")


def test_edit_to_an_undefined_child_raises_dangling():
    p = parse_presentation(FLUTE)
    genus(p)
    rule = (BlockKind.ANNULUS, ("zzz",))
    _assert_every_door_answers_as_built(p, _DOORS, lambda p: p.rules.__setitem__("punc", rule))
    with pytest.raises(DanglingRuleError):
        replace(p, rules={**p.rules, "punc": rule})


def test_edit_to_a_one_child_pants_raises_syntax():
    p = parse_presentation(FLUTE)
    genus(p)
    rule = (BlockKind.PANTS, ("punc",))
    _assert_every_door_answers_as_built(p, _DOORS, lambda p: p.rules.__setitem__("punc", rule))
    with pytest.raises(PresentationSyntaxError) as raised:
        replace(p, rules={**p.rules, "punc": rule})
    assert type(raised.value) is PresentationSyntaxError


# the walks that read the rules without the automaton; on the flute each
# meets the rule of ``punc``
_WALKS = [
    lambda p: decompose(p, "strict", 8), lambda p: interchange_normalize(p, [(1,)]),
    lambda p: first_occurrences(p, BlockKind.HANDLE, 1),
]


@pytest.mark.parametrize("rule", [(BlockKind.ANNULUS, ("zzz",)), (BlockKind.PANTS, ("punc",)), 5])
def test_edit_met_by_a_walk_raises_the_constructors_error(rule):
    """A dangling child, a one-child Pants or a rule that is no pair once
    reached the walks, which raised bare errors or walked a Pants as a
    Handle: the edit raises at the assignment, the walks answer as before,
    and the constructor refuses the edited system."""
    p = parse_presentation(FLUTE)
    answers = [_answer(walk, p) for walk in _WALKS]
    _assert_refused(p, lambda p: p.rules.__setitem__("punc", rule))
    assert [_answer(walk, p) for walk in _WALKS] == answers
    with pytest.raises(EndkitError):
        replace(p, rules={**p.rules, "punc": rule})


def test_edit_adding_only_an_unreachable_rule_raises_at_every_door():
    """A rule that no walk reaches is refused at the one door left, the
    assignment, by each mutator that adds it; the walks and the invariants
    answer as before, and the constructor raises UnreachableRuleError for
    the system with it."""
    p = parse_presentation(FLUTE)
    walks = [*_WALKS[:2], lambda p: first_occurrences(p, BlockKind.PANTS, 3)]
    answers = [_answer(walk, p) for walk in walks]
    adds = [_RULE_MUTATORS[name] for name in ("update", "setdefault", "ior")]
    _assert_every_door_answers_as_built(p, _DOORS, *[lambda p, add=add: add(p.rules) for add in adds])
    assert [_answer(walk, p) for walk in walks] == answers
    with pytest.raises(UnreachableRuleError):
        replace(p, rules={**p.rules, "orphan": (BlockKind.ANNULUS, ("orphan",))})


@pytest.mark.parametrize("ask", [
    genus, lambda p: to_end_expr(ends_automaton(p)), lambda p: decompose(p, "strict", 4),
    lambda p: first_occurrences(p, BlockKind.PANTS, 2), lambda p: interchange_normalize(p, [(1,)]),
    spine, lambda p: splice_annulus(p, "root", 0), pretty_print, lambda p: list(p.unfold(8)),
], ids=["genus", "to_end_expr", "decompose", "first_occurrences", "interchange_normalize", "spine",
        "splice_annulus", "pretty_print", "unfold"])
def test_edit_unsetting_the_root_answers_for_the_first_rule(ask):
    """Unsetting the root in place raises; a presentation built with no root
    has the first rule, and answers as the parsed flute (decompose,
    first_occurrences, interchange_normalize, pretty_print and unfold once
    raised a bare AssertionError on an unset root)."""
    p = parse_presentation(FLUTE)
    _assert_refused(p, lambda p: setattr(p, "root", None), lambda p: delattr(p, "root"))
    unset = SurfacePresentation(p.name, p.rules)
    assert unset.root == p.root and _answer(ask, unset) == _answer(ask, p)


def _answer(ask, p):
    """What ``ask`` answers for ``p``, or the class of the error it raises
    (`splice_annulus` and `first_occurrences` raise ValueError for their
    arguments)."""
    try:
        answer = ask(p)
    except (EndkitError, ValueError) as error:
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


def _edit(what: str, state: str, rule):
    """The in-place edit ``(what, state, rule)`` of `_edits`."""
    if what == "root":
        return lambda p: setattr(p, "root", state)
    if what == "rule":
        return lambda p: p.rules.__setitem__(state, rule)
    return lambda p: p.rules.pop(state, None)


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=4), _edits())
def test_edits_in_place_answer_as_a_fresh_build(pres, edits):
    """Edits in place raise at the assignment, so every invariant and
    kerekjarto verdict stays that of a presentation built afresh from the
    rules as they were, and the memo, warm before the edits, serves the
    same automaton."""
    plane = parse_presentation(_PLANE)
    asks = [*_ASKS, lambda p: kerekjarto(plane, p), lambda p: spine(p).core_states]
    compiled = ends_automaton(pres)
    _assert_refused(pres, *[_edit(*edit) for edit in edits])
    fresh = SurfacePresentation("fresh", dict(pres.rules), pres.root)
    assert [_answer(ask, pres) for ask in asks] == [_answer(ask, fresh) for ask in asks]
    assert ends_automaton(pres) is compiled


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


# -- the compiling walk against the Tarjan-stack walk it replaced ----------
#
# `_condense` pushes a state on its stack only when the state finishes inside
# a component whose root is still open (Pearce), and sorts each component's
# members back into numbering order; `conftest.reference_condense` pushes
# every state as it is first met (Tarjan).  Every field must match.  Both read
# a system checked at the door, so neither meets a fault.


def _condensed(condense, rules, root) -> dict:
    """The automaton's fields."""
    auto = condense(rules, root)
    return {f: getattr(auto, f) for f in EndsAutomaton.__slots__}


def _assert_condensation_matches_the_reference(rules, root) -> object:
    found = _condensed(_condense, rules, root)
    assert found == _condensed(reference_condense, rules, root)
    return found


@settings(max_examples=1000, deadline=None)
@given(presentations(max_states=8))
def test_condensation_matches_the_tarjan_stack_reference(pres):
    _assert_condensation_matches_the_reference(pres.rules, pres.root)


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=6), st.lists(st.integers(0, 10**6), min_size=1, max_size=20))
def test_condensation_of_spliced_cores_matches_the_reference(pres, picks):
    """Each splice lengthens every cycle through the edge it cuts, so the
    chains grow components of many members with exits between them."""
    for pick in picks:
        pres = splice_annulus(pres, *_pick(pres, pick))
        _assert_condensation_matches_the_reference(pres.rules, pres.root)


def test_condensation_of_grown_cores_matches_the_reference():
    """``bench/inputs.grow`` cores of 10-60 states: the members of their
    multi-member components come back in numbering order, not the order in
    which the walk finishes them."""
    inputs, rng = bench_inputs(), random.Random(33)
    large = 0
    for _ in range(300):
        pres = inputs.grow(inputs.random_core(rng, max_states=8), rng.randint(10, 60), rng)
        found = _assert_condensation_matches_the_reference(pres.rules, pres.root)
        large += sum(len(members) > 2 for members in found["components"])
    assert large > 100  # below a root, three members can finish out of numbering order


# -- the door: the constructor is the only one -----------------------------
#
# A valid, compiled presentation cannot be edited in place into another
# system: each edit raises at the assignment, and every entry point answers
# for the system as built.  The constructor raises its error for a faulty
# system (`test_validation_matches_the_two_pass_routine`).


@settings(max_examples=300, deadline=None)
@given(presentations(max_states=6), _faulty_systems())
def test_edit_into_a_faulty_system_raises_the_constructors_error_at_every_door(before, system):
    rules, root = system
    _assert_every_door_answers_as_built(
        before, _DOORS, lambda p: p.rules.clear(), lambda p: p.rules.update(rules),
        lambda p: setattr(p, "root", root), lambda p: setattr(p, "rules", rules),
    )


def test_edit_to_a_dangling_root_raises_the_constructors_error_at_every_door():
    """pretty_print printed text that the parser refuses, and unfold raised a
    bare KeyError, on a root moved in place to no rule: the move raises, and
    building the moved system raises DanglingRuleError."""
    p = parse_presentation(FLUTE)
    _assert_every_door_answers_as_built(p, _DOORS, lambda p: setattr(p, "root", "zzz"))
    with pytest.raises(DanglingRuleError):
        replace(p, root="zzz")


_TRIPLE_DOORS = {**_DOORS, "splice_annulus": lambda p: splice_annulus(p, "t1", 0)}  # a triple has no rules


@pytest.mark.parametrize("finite_type", [FiniteType(-1, 0, 1), FiniteType(1, 0, 0), FiniteType(1.5, 0, 1)],
                         ids=["negative", "closed", "not-an-integer"])
def test_edit_into_a_faulty_triple_raises_the_constructors_error_at_every_door(finite_type):
    """A triple's FiniteType reassigned raises at the assignment, and every
    door answers for the triple as built; a copy with the faulty FiniteType
    raises the constructor's error, with its message."""
    with pytest.raises(PresentationSyntaxError) as built:
        SurfacePresentation("s", finite_type=finite_type)
    s = parse_presentation("surface s finite S(g=2, b=1, p=2)")
    _assert_every_door_answers_as_built(s, _TRIPLE_DOORS, lambda s: setattr(s, "finite_type", finite_type))
    with pytest.raises(PresentationSyntaxError) as raised:
        replace(s, finite_type=finite_type)
    assert str(raised.value) == str(built.value)


@pytest.mark.parametrize("text", [FLUTE, "surface s finite S(g=2, b=1, p=2)"], ids=["rules", "triple"])
@pytest.mark.parametrize("edit", ["neither", "both"])
def test_edit_to_neither_or_both_of_rules_and_triple_raises_the_constructors_error_at_every_door(text, edit):
    """Neither rules nor a triple, or both, raised a bare AssertionError or
    answered from either once edited in place: the edit raises at the
    assignment, every door answers as built, and a copy so edited raises the
    constructor's ValueError."""
    with pytest.raises(ValueError) as built:
        SurfacePresentation("s")
    p = parse_presentation(text)
    if edit == "neither":
        changes = {"rules": None, "finite_type": None}
    elif p.rules is None:
        changes = {"rules": dict(parse_presentation(FLUTE).rules)}
    else:
        changes = {"finite_type": FiniteType(1, 0, 1)}
    doors = _DOORS if p.rules is not None else _TRIPLE_DOORS
    _assert_every_door_answers_as_built(
        p, doors, *[lambda p, field=field, value=value: setattr(p, field, value) for field, value in changes.items()]
    )
    with pytest.raises(ValueError) as raised:
        replace(p, **changes)
    assert str(raised.value) == str(built.value)
