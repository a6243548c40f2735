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
from bisect import bisect_left
from collections import Counter, deque
from enum import Enum
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from ._record import Record, _is_int
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
    __hash__ = object.__hash__  # members are singletons: a C-level hash, consistent with ==

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
        rules = self.rules
        assert rules is not None
        if not rules:
            raise PresentationSyntaxError(f"{self.name}: empty rule system")
        if self.root is None:
            self.root = next(iter(rules))
        try:
            dangling = self.root not in rules
        except TypeError:
            raise PresentationSyntaxError(f"{self.name}: root {self.root!r} is unhashable") from None
        if dangling:
            raise DanglingRuleError(f"{self.name}: root {self.root!r} is not a rule")
        # a valid system passes in one breadth-first walk from the root
        order = [self.root]
        seen = set(order)
        try:
            for state in order:  # grows while it is walked
                kind, children = rules[state]  # KeyError at an undefined child
                if len(children) != _ARITY[kind]:
                    break
                for child in children:
                    if child not in seen:
                        seen.add(child)
                        order.append(child)
            else:
                if len(order) == len(rules):
                    return
        except (KeyError, TypeError, ValueError):
            pass
        # a fault: the scan in rule order raises the first, so errors do not
        # depend on the walk
        for lhs, rule in rules.items():
            try:
                kind, children = rule
                arity = _ARITY[kind]
                count = len(children)
            except (KeyError, TypeError, ValueError):
                raise PresentationSyntaxError(
                    f"{self.name}: rule {lhs!r} is not a (BlockKind, children) pair, got {rule!r}"
                ) from None
            if count != arity:
                raise PresentationSyntaxError(
                    f"{self.name}: {lhs} = {kind.value}(...) takes "
                    f"{arity} child(ren), got {count}"
                )
            for child in children:
                try:
                    dangling = child not in rules
                except TypeError:
                    raise PresentationSyntaxError(
                        f"{self.name}: rule {lhs!r} has an unhashable child {child!r}"
                    ) from None
                if dangling:
                    raise DanglingRuleError(
                        f"{self.name}: rule {lhs!r} references undefined {child!r}"
                    )
        # every fault that stops the walk is one the scan raises, so the walk
        # ran to its end and ``seen`` is the reachable set
        raise UnreachableRuleError(
            f"{self.name}: unreachable rule(s) {sorted(set(rules).difference(seen))}"
        )

    def _validate_finite(self) -> None:
        ft = self.finite_type
        assert ft is not None
        data = (ft.genus, ft.boundary, ft.punctures)
        if not all(map(_is_int, data)):
            raise PresentationSyntaxError(f"{self.name}: finite-type data must be integers: {data}")
        if min(data) < 0:
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
# ends_automaton() numbers the states reachable from the root and compiles
# their condensation, and every invariant reads that; ``forward`` walks a
# successor map (each state to its children, in child order).  Both are
# iterative and O(states + edges).

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


def _rule(pres: SurfacePresentation, state: str) -> Rule:
    """The rule of ``state``, for a walk that checks each state it meets
    once; a state that an edit in place left undefined or of the wrong
    arity raises the constructor's error.  Such a walk cannot see an edit
    that only adds an unreachable rule."""
    try:
        kind, children = pres.rules[state]
        if len(children) == _ARITY[kind]:
            return kind, children
    except (KeyError, TypeError, ValueError):
        pass
    pres._validate_rules()  # raises the constructor's error for the fault
    raise AssertionError(f"the constructor accepts the faulty rule of {state!r}")


# -- the ends automaton ----------------------------------------------------

# a component's shape: a state on no cycle, a cycle, or branching inside it
ACYCLIC, CYCLE, BRANCHING = range(3)
_last: tuple = (None, None)  # ends_automaton's memo: the last system's key and automaton


class EndsAutomaton(Record):
    """The states reachable from the root, numbered as one depth-first walk
    from the root in child order meets them (the root is 0), and their
    condensation compiled into a DAG of components.

    ``names[s]`` names state s, and ``transitions[s]`` holds the numbers of
    its children, in child order with multiplicity: the numbering depends on
    the rooted graph alone, not on names or rule order, so equal
    ``transitions`` are isomorphic systems.  ``nonplanar_states`` holds the
    Handle states.  ``components`` is the SCC condensation in reverse
    topological order, the root's last, and ``component_of[s]`` the index of
    the component of s.  Component ``i`` has the shape ``shapes[i]`` and
    ``exits[i]``, the components of its members' children outside it, with
    multiplicity.  ``handle_closure[i]`` is 1 when a Handle state lies in
    or below component i, else 0, and ``pants_closure`` the same for Pants;
    ``handle_count`` and ``pants_count`` count the Handle and Pants nodes of
    the whole unfolding (the genus, and one less than the ends of a finite
    type), INFINITE when one lies on or after a cycle.  Every invariant walks
    this table children first, and reads a marked subspace off it as a union
    of components.
    """

    __slots__ = ("names", "transitions", "nonplanar_states", "components", "component_of",
                 "exits", "shapes", "handle_closure", "pants_closure", "handle_count",
                 "pants_count")


def ends_automaton(pres: SurfacePresentation) -> EndsAutomaton:
    """The compiled automaton of ``pres``, read-only: consecutive calls may share
    it, as the last one built is kept under its root and its rules, by value.
    A system edited in place into a fault raises the constructor's error."""
    global _last
    pres = regularize(pres)
    rules = pres.rules
    assert rules is not None
    key = (pres.root, tuple(rules.items()))  # the name is not read
    last_key, last_auto = _last
    if last_key == key:
        return last_auto
    try:
        auto = _condense(rules, pres.root)
    except (KeyError, TypeError, ValueError):  # an undefined state, or a malformed rule
        auto = None
    if auto is None:
        pres._validate_rules()  # raises the constructor's error for the fault
        raise AssertionError(f"the constructor accepts the faulty rules of {pres.name!r}")
    try:
        hash(key)
    except TypeError:  # a list in the rules could change in place: compiled on every call
        return auto
    _last = key, auto
    return auto


def _condense(rules: Mapping[str, Rule], root: str) -> EndsAutomaton | None:
    """One depth-first walk from ``root`` in child order, Tarjan's (1972) in
    its low-link form (Nuutila, Pearce): it numbers and checks each state it
    meets, and compiles each component as it closes, after every component
    its members reach.  A state's link starts at its number and is lowered
    by the links of the states it reaches on the stack; a closed state's
    link is above every number, so no on-stack set is kept.  As a component
    closes it counts the Handle and Pants nodes below one of its states, as
    `_occurrences` does; only the root's counts outlive the walk.  None at a
    wrong arity or an unmet rule; KeyError at an undefined state."""
    kind, children = rules[root]
    if len(children) != _ARITY[kind]:
        return None
    closed, handle, arity = len(rules), BlockKind.HANDLE, _ARITY
    index, names, handles = {root: 0}, [root], {0} if kind is handle else set()
    transitions, component_of, components, exits, shapes = [()] * closed, [0] * closed, [], [], []
    low, stack, work = list(range(closed)), [0], [(0, children, iter(children))]
    hs, ps = [], []  # per component, its Handle and Pants counts
    while work:
        state, cs, todo = work[-1]
        for child in todo:
            k = index.get(child)
            if k is None:  # first met: numbered, checked, and walked
                k = index[child] = len(names)
                names.append(child)
                kind, children = rules[child]
                if len(children) != arity[kind]:
                    return None
                if kind is handle:
                    handles.add(k)
                stack.append(k)
                work.append((k, children, iter(children)))
                break
            if low[k] < low[state]:
                low[state] = low[k]
        else:
            work.pop()
            # one or two children: tuple and list displays, far cheaper than map()
            ts = transitions[state] = (index[cs[0]],) if len(cs) == 1 else (index[cs[0]], index[cs[1]])
            link = low[state]
            if link < state:  # in the component of a state below it on the stack
                if link < low[work[-1][0]]:
                    low[work[-1][0]] = link
                continue
            i = len(components)
            if stack[-1] == state and state not in ts:  # alone, on no cycle: a list each
                stack.pop()
                low[state] = closed
                component_of[state] = i
                components.append([state])
                shapes.append(ACYCLIC)
                c = component_of[ts[0]]
                if len(ts) == 1:
                    exits.append([c])
                    hs.append(hs[c] + (state in handles))
                    ps.append(ps[c])
                    continue
                d = component_of[ts[1]]
                exits.append([c, d])
                try:
                    hs.append(hs[c] + hs[d])
                except OverflowError:  # INFINITE, a float, plus an integer past 2**1024
                    hs.append(INFINITE)
                try:
                    ps.append(ps[c] + ps[d] + 1)
                except OverflowError:
                    ps.append(INFINITE)
                continue
            members = stack[bisect_left(stack, state):]
            del stack[-len(members):]
            for s in members:
                low[s] = closed
                component_of[s] = i
            ks = [component_of[k] for s in members for k in transitions[s]]
            out = [k for k in ks if k != i]
            components.append(members)
            exits.append(out)
            # a cycle's members have one child each inside it, a branching one more
            shapes.append(BRANCHING if len(ks) - len(out) > len(members) else CYCLE)
            # a cycle repeats forever every node on or below it; a member with
            # two children is a Pants
            h = not handles.isdisjoint(members) or any(map(hs.__getitem__, out))
            hs.append(INFINITE if h else 0)
            ps.append(INFINITE if len(ks) > len(members) or any(map(ps.__getitem__, out)) else 0)
    if len(names) != closed:
        return None
    # every field positional: the record constructor's fast path
    return EndsAutomaton(names, transitions, frozenset(handles), components, component_of,
                         exits, shapes, bytes(map(bool, hs)), bytes(map(bool, ps)), hs[-1], ps[-1])


def _occurrences(auto: EndsAutomaton, targets: AbstractSet[int]) -> list[Genus]:
    """Per component, the number of unfolding-tree nodes labeled by
    ``targets`` below one of its states, with child multiplicity (``P(a, a)``
    doubles); INFINITE when a target lies on or after a cycle, as a cycle
    with a target on or below it repeats that target forever.  The root's
    entry, the last, counts the whole unfolding; the non-zero entries are
    the mark closure, the components whose states reach a target.  The
    Handle and Pants counts are compiled with the automaton; this counts
    any other set of states."""
    if not targets:
        return [0] * len(auto.components)
    below: list[Genus] = []
    for members, exits, shape in zip(auto.components, auto.exits, auto.shapes):
        try:
            n = sum(map(below.__getitem__, exits))
        except OverflowError:  # INFINITE, a float, plus an integer past 2**1024
            n = INFINITE
        if shape:
            n = INFINITE if n or not targets.isdisjoint(members) else 0
        else:
            n += members[0] in targets
        below.append(n)
    return below


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
    return source.handle_count


def is_finite_type(source: SurfacePresentation | EndsAutomaton) -> bool:
    """True iff the unfolding contains finitely many non-annulus blocks."""
    if isinstance(source, SurfacePresentation):
        if source.finite_type is not None:
            return True
        source = ends_automaton(source)
    return INFINITE not in (source.handle_count, source.pants_count)


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
    g, pants = source.handle_count, source.pants_count
    if INFINITE in (g, pants):
        raise NotFiniteTypeError(f"{prefix}infinite type")
    # each pants occurrence splits one end in two; annuli and handles never branch
    return (int(g), 0, int(pants) + 1)


# -- constructions ---------------------------------------------------------

def standard_presentation(g: int, n: int, name: str = "std") -> SurfacePresentation:
    """The reference presentation of S_{g,0,n}: a chain of g genus blocks,
    then a pants comb fanning out to n puncture tails (n >= 1)."""
    if not _is_int(g) or g < 0:
        raise ValueError(f"genus must be a natural, got {g!r}")
    if not _is_int(n) or n < 1:
        raise ValueError(f"need at least one end, got {n!r}")
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
    """A rule presentation of the same surface (identity on rule systems).
    A root unset in place is resolved as the constructor does: the first rule."""
    if pres.rules is not None:
        if pres.root is None:
            pres._validate_rules()
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
    O(count * (states + edges)); each state's rule is checked once (`_rule`).
    """
    assert pres.root is not None
    states, via = [pres.root], [(0, 0)]  # via: each node's parent and child slot
    enqueued = Counter(states)
    hits: list[int] = []
    children_of: dict[str, tuple[str, ...]] = {}
    for node, state in enumerate(states):  # grows while it is walked
        if len(hits) == count:
            break
        if state in targets:
            hits.append(node)
        children = children_of.get(state)
        if children is None:
            children = children_of[state] = _rule(pres, state)[1]
        for i, child in enumerate(children):
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
    ValueError when the unfolding holds fewer, or when ``count`` is not a
    natural.  A rule that an edit in place left faulty raises the
    constructor's error; an edit that only adds an unreachable rule is not
    seen."""
    if not _is_int(count) or count < 0:
        raise ValueError(f"count must be a natural, got {count!r}")
    pres = regularize(pres)
    paths = _first_paths(pres, {s for s in pres.rules if _rule(pres, s)[0] is kind}, count)
    if len(paths) < count:
        raise ValueError(f"fewer than {count} occurrences of {kind.value} in the unfolding")
    return paths
