"""Rule-system parsing, validation, genus and finite-type detection."""

from __future__ import annotations

import contextlib
import importlib.util
import random
import re
import time
from pathlib import Path

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
    cyclic_states,
    ends_count,
    first_occurrences,
    genus,
    is_finite_type,
    parse_presentation,
    pretty_print,
    regularize,
    splice_annulus,
    standard_presentation,
    states_after_cycles,
)
import endkit.presentation
from endkit import decompose, find_essential_pants, interchange_normalize, kerekjarto
from endkit.cli import main
from endkit.ends import Cardinality
from endkit.presentation import MAX_DIGITS, backward, forward, on_cycles, sccs

from conftest import presentations, successor_maps

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
    p = parse_presentation(FLUTE)
    assert cyclic_states(p) == {"root", "punc"}
    assert states_after_cycles(p) == {"root", "punc"}


def test_first_occurrences_paths():
    p = parse_presentation(FLUTE)
    assert first_occurrences(p, BlockKind.PANTS, 2) == [(), (0,)]
    assert first_occurrences(p, BlockKind.ANNULUS, 1) == [(1,)]
    with pytest.raises(ValueError):
        first_occurrences(p, BlockKind.HANDLE, 1)
    assert first_occurrences(p, BlockKind.PANTS, 0) == []
    with pytest.raises(ValueError):
        first_occurrences(p, BlockKind.PANTS, -1)


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


@settings(max_examples=200)
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

    components = sccs(succ)
    assert sorted(s for c in components for s in c) == sorted(succ)
    for c in components:
        for s in succ:
            mutual = s == c[0] or (s in reach[c[0]] and c[0] in reach[s])
            assert (s in c) == mutual
    position = {s: i for i, c in enumerate(components) for s in c}
    for s, cs in succ.items():
        assert all(position[c] <= position[s] for c in cs)

    cyclic = {s for s in succ if s in reach[s]}
    assert on_cycles(succ, components) == cyclic


def test_one_condensation_per_presentation(monkeypatch, tmp_path, capsys):
    """Every invariant reads the automaton's condensation: Tarjan runs once
    per input presentation."""
    runs = []

    def counted(succ):
        runs.append(len(succ))
        return sccs(succ)

    monkeypatch.setattr(endkit.presentation, "sccs", counted)
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
    assert len(runs) == 1
    runs.clear()
    interchange_normalize(s_2_0_3, [(0, 0), (0,)])
    assert len(runs) == 0

    runs.clear()
    other = tmp_path / "b.surf"
    other.write_text(pretty_print(b))
    assert main(["graph-phe", str(path), str(other)]) == 0
    capsys.readouterr()
    assert len(runs) == 2


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


def _bench_inputs():
    """bench/inputs.py, the generator of the classify-corpus pairs."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _NoTrace:
    def span(self, name):
        return contextlib.nullcontext()


def test_parser_matches_the_token_parser_on_the_corpus():
    inputs = _bench_inputs()
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


@settings(max_examples=1000)
@given(_rule_systems())
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
