"""Finite presentations of non-compact orientable surfaces.

A surface is presented by a finite rule system over three building blocks,
each glued to one open boundary circle of the part built so far:

* ``A`` -- annulus, one input circle, one output circle;
* ``P`` -- pair of pants, one input, two outputs;
* ``H`` -- one-holed torus with an extra output (genus-adding block),
  one input, one output.

An implicit disk caps the root block's input, and the rule system is total:
every output is consumed by another rule, so unfolding the rules from the
root produces an infinite tree of blocks whose union is a boundaryless
non-compact surface.  A self-looping annulus rule ``a = A(a)`` is an
infinite annular tail, i.e. a puncture.

Finite-type surfaces S_{g,b,p} may also be given directly; their interiors
are what the invariant machinery sees, so ``b`` boundary circles count as
``b`` extra punctures.

Grammar::

    surface <name> { <rule> (";" <rule>)* }
    rule    := <id> "=" ("A" | "P" | "H") "(" <id> ("," <id>)? ")"
             | "root" "=" <id>
    surface <name>? finite S(g=<nat>, b=<nat>, p=<nat>)

The first rule's left-hand side is the root unless a ``root = <id>``
directive names another.
"""

import math
import re
from collections import Counter, deque
from enum import Enum
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from ._record import Record
from .errors import (
    DanglingRuleError,
    EndkitError,
    NotFiniteTypeError,
    PresentationError,
    PresentationSyntaxError,
    UnreachableRuleError,
)

INFINITE = math.inf

Genus = int | float  # a natural number or INFINITE


class BlockKind(Enum):
    ANNULUS = "A"
    PANTS = "P"
    HANDLE = "H"

    @property
    def arity(self) -> int:
        return 2 if self is BlockKind.PANTS else 1


Rule = tuple[BlockKind, tuple[str, ...]]


class FiniteType(Record):
    __slots__ = ("genus", "boundary", "punctures")


class SurfacePresentation(Record):
    """Either a rule system with a root, or a finite-type triple; mutable, so unhashable."""

    __slots__ = ("name", "rules", "root", "finite_type")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, name: str, rules: dict[str, Rule] | None = None, root: str | None = None,
        finite_type: FiniteType | None = None,
    ) -> None:
        self.name, self.rules, self.root, self.finite_type = name, rules, root, finite_type
        if (self.rules is None) == (self.finite_type is None):
            raise ValueError("exactly one of rules / finite_type required")
        if self.rules is not None:
            self._validate_rules()
        else:
            self._validate_finite()

    def _validate_rules(self) -> None:
        assert self.rules is not None
        if not self.rules:
            raise PresentationSyntaxError(f"{self.name}: empty rule system")
        if self.root is None:
            self.root = next(iter(self.rules))
        if self.root not in self.rules:
            raise DanglingRuleError(f"{self.name}: root {self.root!r} is not a rule")
        succ = {}
        for lhs, (kind, children) in self.rules.items():
            if len(children) != _ARITY[kind]:
                raise PresentationSyntaxError(
                    f"{self.name}: {lhs} = {kind.value}(...) takes "
                    f"{kind.arity} child(ren), got {len(children)}"
                )
            for child in children:
                if child not in self.rules:
                    raise DanglingRuleError(
                        f"{self.name}: rule {lhs!r} references undefined {child!r}"
                    )
            succ[lhs] = children
        reached = forward(succ, [self.root])
        if len(reached) < len(succ):
            raise UnreachableRuleError(
                f"{self.name}: unreachable rule(s) {sorted(set(succ).difference(reached))}"
            )

    def _validate_finite(self) -> None:
        ft = self.finite_type
        assert ft is not None
        if min(ft.genus, ft.boundary, ft.punctures) < 0:
            raise PresentationSyntaxError(f"{self.name}: negative finite-type datum")
        if ft.boundary + ft.punctures == 0:
            raise PresentationSyntaxError(
                f"{self.name}: closed surface is compact; need b + p >= 1"
            )

    # -- structure helpers -------------------------------------------------

    def kind(self, state: str) -> BlockKind:
        assert self.rules is not None
        return self.rules[state][0]

    def children(self, state: str) -> tuple[str, ...]:
        assert self.rules is not None
        return self.rules[state][1]

    def states(self) -> list[str]:
        assert self.rules is not None
        return sorted(self.rules)

    def unfold(self, max_nodes: int) -> Iterator[tuple[tuple[int, ...], str]]:
        """Breadth-first occurrences of the unfolding tree, as (path, state)."""
        assert self.root is not None
        todo = deque([((), self.root)])
        count = 0
        while todo and count < max_nodes:
            path, state = todo.popleft()
            yield path, state
            count += 1
            for i, child in enumerate(self.children(state)):
                todo.append((path + (i,), child))


# -- parsing ---------------------------------------------------------------
#
# The grammar is regular, so each piece is one compiled pattern: the header,
# then one rule with its ";" or "}", stepped along the text.  Tokens are
# identifiers [A-Za-z_][A-Za-z0-9_]*, ASCII naturals [0-9]+ and single
# characters, separated by any run of \s; an identifier or keyword ends where
# no identifier character follows, so "surfaces" is never "surface s".

_END = r"(?![A-Za-z0-9_])"
_ID = rf"[A-Za-z_][A-Za-z0-9_]*{_END}"
_HEADER = re.compile(
    rf"""\s* surface{_END} \s* (?:
        (?P<name>{_ID}) \s* (?: (?P<open>\{{) | finite{_END} )
      | finite{_END} (?=\s*S{_END})  # "surface finite S(...)" is named "surface"
    )
    (?(open) | \s* S \s*\(\s* g \s*=\s* (?P<g>[0-9]+) \s*,\s* b \s*=\s* (?P<b>[0-9]+)
               \s*,\s* p \s*=\s* (?P<p>[0-9]+) \s*\) \s*\Z)""",
    re.VERBOSE,
)
# "root = X" is a directive unless a "(" follows X; a rule without its ";"
# or "}" still matches, so that the error can point past it
_RULE = re.compile(
    rf"""\s* (?P<lhs>{_ID}) \s*=\s* (?:
        (?P<kind>[APH]) \s*\(\s* (?P<a>{_ID}) \s* (?: ,\s* (?P<b>{_ID}) \s* )? \)
      | (?P<root>{_ID})
    ) \s* (?P<end> ;(?:\s*\}})? | \}} )?""",
    re.VERBOSE,
)
_KINDS = {kind.value: kind for kind in BlockKind}
_ARITY = {kind: kind.arity for kind in BlockKind}  # a lookup, not a property call per rule
_NAME = re.compile(_ID)
# int() and str() refuse longer digit strings on Python 3.11 and later; the
# parser refuses them itself, so that every interpreter reads the same language
MAX_DIGITS = 4300


def _syntax_error(
    text: str, pos: int, problem: str | None = None, error: type[EndkitError] = PresentationSyntaxError
) -> EndkitError:
    """The ``error`` at ``pos`` (whitespace skipped), naming its line, column and text."""
    pos = len(text) - len(text[pos:].lstrip())
    if pos == len(text):
        return error("unexpected end of input")
    near = text[pos:].partition("\n")[0][:40]
    line, column = text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    return error(f"line {line}, column {column}: {problem or f'unexpected {near!r}'}")


def parse_presentation(text: str) -> SurfacePresentation:
    head = _HEADER.match(text)
    if head is None:
        raise _syntax_error(text, 0)
    if not head["open"]:
        for key in "gbp":
            if len(head[key]) > MAX_DIGITS:
                raise _syntax_error(text, head.start(key), f"{key} has over {MAX_DIGITS} digits")
        finite = FiniteType(*map(int, head.group("g", "b", "p")))
        return SurfacePresentation(name=head["name"] or "surface", finite_type=finite)
    rules: dict[str, Rule] = {}
    root: str | None = None
    pos = head.end()
    while True:
        m = _RULE.match(text, pos)
        if m is None:
            raise _syntax_error(text, pos)
        lhs, kind, a, b, directive, end = m.groups()
        if kind is None and lhs != "root":
            raise _syntax_error(text, m.start("root"))
        if end is None:
            raise _syntax_error(text, m.end())
        if kind is None:
            root = directive
        elif lhs in rules:
            raise _syntax_error(text, m.start(), f"duplicate rule for {lhs!r}")
        else:
            rules[lhs] = (_KINDS[kind], (a,) if b is None else (a, b))
        pos = m.end()
        if end != ";":
            break
    if text[pos:].strip():
        raise _syntax_error(text, pos)
    return SurfacePresentation(name=head["name"], rules=rules, root=root)


def pretty_print(pres: SurfacePresentation) -> str:
    """Inverse of parse_presentation up to whitespace; a surface or state
    name that is not an identifier raises PresentationError."""
    bad = next((n for n in (pres.name, *(pres.rules or ())) if not _NAME.fullmatch(n)), None)
    if bad is not None:
        raise PresentationError(f"cannot print {bad!r}: a name must match [A-Za-z_][A-Za-z0-9_]*")
    if pres.finite_type is not None:
        ft = pres.finite_type
        return f"surface {pres.name} finite S(g={ft.genus}, b={ft.boundary}, p={ft.punctures})"
    assert pres.rules is not None and pres.root is not None
    lines = []
    for lhs, (kind, children) in pres.rules.items():
        lines.append(f"  {lhs} = {kind.value}({', '.join(children)})")
    if pres.root != next(iter(pres.rules)):
        lines.append(f"  root = {pres.root}")
    body = ";\n".join(lines)
    return f"surface {pres.name} {{\n{body}\n}}"


# -- rule-graph analysis ---------------------------------------------------
#
# The one graph form is a successor map: each state to its children in
# child order, with multiplicity.  Every successor must itself be a key.
# EndsAutomaton.transitions is such a map; ends_automaton() builds it once
# per presentation, with its condensation, and every invariant reads that.
# All routines below are iterative and O(states + edges).

Successors = Mapping[str, Sequence[str]]


def forward(succ: Successors, starts: Iterable[str]) -> list[str]:
    """States reachable from ``starts`` (included), in breadth-first
    discovery order."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for state in order:  # grows while it is walked
        for child in succ[state]:
            if child not in seen:
                seen.add(child)
                order.append(child)
    return order


def backward(succ: Successors, targets: Iterable[str]) -> set[str]:
    """States from which some target is reachable (targets included)."""
    preds: dict[str, list[str]] = {s: [] for s in succ}
    for state, children in succ.items():
        for child in children:
            preds[child].append(state)
    hit = {t for t in targets if t in preds}
    todo = list(hit)
    while todo:
        for pred in preds[todo.pop()]:
            if pred not in hit:
                hit.add(pred)
                todo.append(pred)
    return hit


def sccs(succ: Successors) -> list[list[str]]:
    """Strongly connected components (Tarjan), in reverse topological
    order: every component precedes the components that can reach it."""
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    out: list[list[str]] = []
    for start in succ:
        if start in order:
            continue
        work: list[tuple[str, int]] = [(start, 0)]
        while work:
            state, idx = work[-1]
            if idx == 0:
                order[state] = low[state] = len(order)
                stack.append(state)
                on_stack.add(state)
            children = succ[state]
            if idx < len(children):
                work[-1] = (state, idx + 1)
                child = children[idx]
                if child not in order:
                    work.append((child, 0))
                elif child in on_stack:
                    low[state] = min(low[state], order[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[state])
                if low[state] == order[state]:
                    component = []
                    while True:
                        s = stack.pop()
                        on_stack.discard(s)
                        component.append(s)
                        if s == state:
                            break
                    out.append(component)
    return out


def on_cycles(succ: Successors, components: Iterable[list[str]]) -> set[str]:
    """States lying on some cycle, given ``components = sccs(succ)``."""
    return {
        s for c in components if len(c) > 1 or c[0] in succ[c[0]] for s in c
    }


# -- the ends automaton ----------------------------------------------------

class EndsAutomaton(Record):
    """Reachable rule states with their successor choices.

    ``transitions[s]`` keeps child order and multiplicity; ``nonplanar_states``
    holds the Handle-labeled states (the raw genus data from which the
    non-planar subspace is derived).  ``components`` is the SCC condensation
    of ``transitions`` (reverse topological order) and ``cyclic`` the states
    on its cycles.  The ends module reads every marked subspace off this
    condensation, as a union of its components.
    """

    __slots__ = ("transitions", "root", "nonplanar_states", "components", "cyclic")


def ends_automaton(pres: SurfacePresentation) -> EndsAutomaton:
    pres = regularize(pres)
    assert pres.rules is not None and pres.root is not None
    states = sorted(pres.rules)
    transitions = {s: pres.rules[s][1] for s in states}
    components = sccs(transitions)
    handles = frozenset(s for s in states if pres.rules[s][0] is BlockKind.HANDLE)
    cyclic = frozenset(on_cycles(transitions, components))
    # every field positional: the record constructor's fast path
    return EndsAutomaton(transitions, pres.root, handles, tuple(components), cyclic)


def cyclic_states(pres: SurfacePresentation) -> set[str]:
    """States lying on some cycle of the rule graph."""
    return set(ends_automaton(pres).cyclic)


def states_after_cycles(pres: SurfacePresentation) -> set[str]:
    """States on or reachable from a rule-graph cycle."""
    auto = ends_automaton(pres)
    return set(forward(auto.transitions, auto.cyclic))


def _occurrences(auto: EndsAutomaton, targets: AbstractSet[str]) -> Genus:
    """Number of unfolding-tree nodes labeled by ``targets``, counted with
    child multiplicity (``P(a, a)`` doubles); INFINITE when a target lies
    on or after a cycle."""
    succ, cyclic = auto.transitions, auto.cyclic
    if not targets:
        return 0
    if not targets.isdisjoint(forward(succ, cyclic)):
        return INFINITE
    # children first; no target lies below a cycle, so its members count 0
    below: dict[str, int] = {}
    for component in auto.components:
        for s in component:
            below[s] = 0 if s in cyclic else (s in targets) + sum(map(below.__getitem__, succ[s]))
    return below[auto.root]


def _pants(auto: EndsAutomaton) -> set[str]:
    return {s for s, cs in auto.transitions.items() if len(cs) == 2}


# -- invariants ------------------------------------------------------------
#
# Each accepts a presentation or its automaton; a finite-type triple
# answers without building one.

def genus(source: SurfacePresentation | EndsAutomaton) -> Genus:
    """Number of genus-adding blocks in the unfolding; INFINITE when a
    Handle state lies on, or is reachable from, a rule-graph cycle."""
    if isinstance(source, SurfacePresentation):
        if source.finite_type is not None:
            return source.finite_type.genus
        source = ends_automaton(source)
    return _occurrences(source, source.nonplanar_states)


def is_finite_type(source: SurfacePresentation | EndsAutomaton) -> bool:
    """True iff the unfolding contains finitely many non-annulus blocks."""
    if isinstance(source, SurfacePresentation):
        if source.finite_type is not None:
            return True
        source = ends_automaton(source)
    return _occurrences(source, source.nonplanar_states | _pants(source)) != INFINITE


def canonical_finite_type(
    source: SurfacePresentation | EndsAutomaton,
) -> tuple[int, int, int]:
    """Canonical (g, 0, p) of a finite-type presentation.

    Boundary circles and punctures are interchangeable for the interior,
    so finite_type(g, b, p) maps to (g, 0, b + p).
    """
    prefix = ""
    if isinstance(source, SurfacePresentation):
        if source.finite_type is not None:
            ft = source.finite_type
            return (ft.genus, 0, ft.boundary + ft.punctures)
        prefix, source = f"{source.name}: ", ends_automaton(source)
    g, pants = _occurrences(source, source.nonplanar_states), _occurrences(source, _pants(source))
    if INFINITE in (g, pants):
        raise NotFiniteTypeError(f"{prefix}infinite type")
    # each pants occurrence splits one end in two; annuli and handles never branch
    return (int(g), 0, int(pants) + 1)


# -- constructions ---------------------------------------------------------

def standard_presentation(g: int, n: int, name: str = "std") -> SurfacePresentation:
    """The reference presentation of S_{g,0,n}: a chain of g genus blocks,
    then a pants comb fanning out to n puncture tails (n >= 1)."""
    if n < 1:
        raise ValueError("need at least one end")
    tails = [f"t{i}" for i in range(1, n + 1)]
    comb_entry = "c1" if n > 1 else tails[0]
    rules: dict[str, Rule] = {}
    for i in range(1, g + 1):
        nxt = f"h{i + 1}" if i < g else comb_entry
        rules[f"h{i}"] = (BlockKind.HANDLE, (nxt,))
    for i in range(1, n):
        nxt = f"c{i + 1}" if i < n - 1 else tails[n - 1]
        rules[f"c{i}"] = (BlockKind.PANTS, (tails[i - 1], nxt))
    for t in tails:
        rules[t] = (BlockKind.ANNULUS, (t,))
    root = "h1" if g else comb_entry
    return SurfacePresentation(name=name, rules=rules, root=root)


def regularize(pres: SurfacePresentation) -> SurfacePresentation:
    """A rule presentation of the same surface (identity on rule systems)."""
    if pres.rules is not None:
        return pres
    ft = pres.finite_type
    assert ft is not None
    return standard_presentation(ft.genus, ft.boundary + ft.punctures, pres.name)


def splice_annulus(pres: SurfacePresentation, state: str, slot: int) -> SurfacePresentation:
    """Insert an annulus block, a fresh ``sp<i>`` state, on one child edge;
    the surface is unchanged."""
    pres = regularize(pres)
    assert pres.rules is not None
    kind, children = pres.rules[state]
    if not 0 <= slot < len(children):
        raise ValueError(f"slot {slot} out of range for {state}")
    i = 0
    while f"sp{i}" in pres.rules:
        i += 1
    fresh = f"sp{i}"
    rules = dict(pres.rules)
    new_children = list(children)
    new_children[slot] = fresh
    rules[state] = (kind, tuple(new_children))
    rules[fresh] = (BlockKind.ANNULUS, (children[slot],))
    return SurfacePresentation(name=pres.name, rules=rules, root=pres.root)


def _first_paths(
    pres: SurfacePresentation, targets: AbstractSet[str], count: int
) -> list[tuple[int, ...]]:
    """Paths of the first ``count`` unfolding nodes labeled by ``targets``,
    in breadth-first order; fewer when the unfolding holds fewer.

    The walk enqueues each state at most ``count`` times, and that drops no
    hit.  Breadth-first order is by depth, then by path.  A later occurrence
    w of a state roots a copy of the subtree of any earlier occurrence u: the
    node w+p (w's path followed by p) has the state of u+p and comes after
    it.  So when w is dropped, behind ``count`` enqueued occurrences of its
    state, every target node in its subtree has ``count`` target
    counterparts ahead of it, and is not among the first ``count`` hits.
    O(count * (states + edges)).
    """
    assert pres.root is not None
    states, via = [pres.root], [(0, 0)]  # via: each node's parent and child slot
    enqueued = Counter(states)
    hits: list[int] = []
    for node, state in enumerate(states):  # grows while it is walked
        if len(hits) == count:
            break
        if state in targets:
            hits.append(node)
        for i, child in enumerate(pres.children(state)):
            if enqueued[child] < count:
                enqueued[child] += 1
                states.append(child)
                via.append((node, i))
    paths = []
    for node in hits:
        path = []
        while node:
            node, i = via[node]
            path.append(i)
        paths.append(tuple(reversed(path)))
    return paths


def first_occurrences(
    pres: SurfacePresentation, kind: BlockKind, count: int
) -> list[tuple[int, ...]]:
    """Paths of the first ``count`` unfolding occurrences of ``kind``;
    ValueError when the unfolding holds fewer, or when ``count`` is negative."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    pres = regularize(pres)
    paths = _first_paths(pres, {s for s in pres.states() if pres.kind(s) is kind}, count)
    if len(paths) < count:
        raise ValueError(f"fewer than {count} occurrences of {kind.value} in the unfolding")
    return paths
