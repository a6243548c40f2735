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


class _Kept(Record):
    """A record base with one slot that is not a field, ``_kept``, for what a record
    computed of itself: ``==``, ``hash``, ``repr``, pickle and `replace` read the
    subclass's ``__slots__`` only, so a record they rebuild keeps nothing yet."""

    __slots__ = ("_kept",)


class SurfacePresentation(_Kept):
    """Either a rule system with a root, or a finite-type triple; mutable, so unhashable.
    ``_kept`` holds (key, automaton or None, hint): the key of a system known valid, kept
    by the constructor and by every door after an edit in place (`_checked`), and the
    first ``sp<i>`` index `splice_annulus` may find free in it (`ends_automaton`)."""

    __slots__ = ("name", "rules", "root", "finite_type")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, name: str, rules: dict[str, Rule] | None = None, root: str | None = None,
        finite_type: FiniteType | None = None,
    ) -> None:
        self.name, self.rules, self.root, self.finite_type = name, rules, root, finite_type
        self._kept = (None, None, 0)
        _checked(self)

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

    def unfold(self, max_nodes: int) -> Iterator[tuple[tuple[int, ...], str]]:
        """Breadth-first occurrences of the unfolding tree, as (path, state), of the
        presentation checked at the door (`regularize`) as the first is asked for."""
        pres = regularize(self)
        todo = deque([((), pres.root)])
        count = 0
        while todo and count < max_nodes:
            path, state = todo.popleft()
            yield path, state
            count += 1
            for i, child in enumerate(pres.rules[state][1]):
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
    """Inverse of parse_presentation up to whitespace, of the presentation checked at
    the door (`_checked`); a surface or state name that is not an identifier raises
    PresentationError."""
    _checked(pres)
    bad = next((n for n in (pres.name, *(pres.rules or ())) if not _NAME.fullmatch(n)), None)
    if bad is not None:
        raise PresentationError(f"cannot print {bad!r}: a name must match [A-Za-z_][A-Za-z0-9_]*")
    if pres.finite_type is not None:
        ft = pres.finite_type
        return f"surface {pres.name} finite S(g={ft.genus}, b={ft.boundary}, p={ft.punctures})"
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
# successor map (each state to its children, in child order), or an
# automaton's ``transitions``.  Both are iterative and O(states + edges).

Successors = Mapping[str, Sequence[str]] | Sequence[Sequence[int]]


def forward(succ: Successors, starts: Iterable) -> list:
    """States reachable from ``starts`` (included), in breadth-first
    discovery order; ``succ`` maps each state to its children, as a
    successor map or a list indexed by state number."""
    order = list(dict.fromkeys(starts))
    seen = set(order)
    for state in order:  # grows while it is walked
        for child in succ[state]:
            if child not in seen:
                seen.add(child)
                order.append(child)
    return order


# -- the ends automaton ----------------------------------------------------

# a component's shape: a state on no cycle, a cycle, or branching inside it
ACYCLIC, CYCLE, BRANCHING = range(3)


class EndsAutomaton(_Kept):
    """The states reachable from the root, numbered as one depth-first walk
    from the root in child order meets them (the root is 0), and their
    condensation compiled into a DAG of components.

    ``names[s]`` names state s, and ``transitions[s]`` holds the numbers of
    its children, in child order with multiplicity: the numbering depends on
    the rooted graph alone, not on names or rule order, so equal
    ``transitions`` are isomorphic systems with one condensation.
    ``nonplanar_states`` holds the Handle states.  ``components`` is the SCC
    condensation in reverse topological order, the root's last, each
    component the list of its members.  Component ``i`` has the shape
    ``shapes[i]`` and ``exits[i]``, the components of its members' children
    outside it, with multiplicity.  ``handle_closure[i]`` is 1 when a Handle
    state lies in or below component i, else 0, and ``pants_closure`` the
    same for Pants; ``handle_count`` and ``pants_count`` count the Handle and
    Pants nodes of the whole unfolding (the genus, and one less than the
    ends of a finite type), INFINITE when one lies on or after a cycle.
    Every invariant walks this table children first, and reads a marked
    subspace off it as a union of components.  ``_kept``, not a field,
    keeps the ends layer's folds of the table as they are first asked for.
    """

    __slots__ = ("names", "transitions", "nonplanar_states", "components", "exits", "shapes",
                 "handle_closure", "pants_closure", "handle_count", "pants_count")

    def _check(self) -> None:  # every automaton, also one rebuilt by pickle or replace, starts unfolded
        _Kept._kept.__set__(self, [None, None, None])


def _key(root: str, rules: dict[str, Rule]) -> tuple:
    """A rule system's key, compared by value: its root, states and rules in rule order,
    in flat tuples (no pair per rule), so that it is cheap to build, compare and keep."""
    return root, tuple(rules), tuple(rules.values())


def _checked(pres: SurfacePresentation) -> object:
    """The key of ``pres`` as it stands, checked at the door, the constructor's too:
    exactly one of rules and triple, else ValueError; a key that differs from the kept
    one (an edit in place, a key that does not hash, or none kept yet, when no key is
    built to compare) is validated, which raises the constructor's error with its message
    and resolves an unset root, then kept with no automaton and the hint 0, unless it
    does not hash (a list could change in place).  The key returned is the kept object
    exactly when it hashes.  Every walk after the door reads ``pres.rules[state]`` with
    no check."""
    if (pres.rules is None) == (pres.finite_type is None):
        raise ValueError("exactly one of rules / finite_type required")
    kept, triple = pres._kept[0], pres.rules is None
    if kept is not None and kept == (pres.finite_type if triple else _key(pres.root, pres.rules)):
        return kept
    (pres._validate_finite if triple else pres._validate_rules)()
    key = pres.finite_type if triple else _key(pres.root, pres.rules)  # the root resolved
    try:
        hash(key)
    except TypeError:
        return key
    pres._kept = key, None, 0
    return key


def ends_automaton(pres: SurfacePresentation | EndsAutomaton) -> EndsAutomaton:
    """The compiled automaton of ``pres``, read-only, checked at the door (`_checked`),
    or ``pres`` itself when it is one.  ``pres`` keeps it in ``_kept`` under its key,
    compared by value: its root and rules in rule order, or a triple's `FiniteType`, so
    it compiles again only after an edit in place or a reordering; a key that does not
    hash is not kept, so its system compiles on every call, and a kept key without an
    automaton (the constructor's, or a splice's) compiles and fills it in.  A triple
    builds its standard presentation only to compile it."""
    if isinstance(pres, EndsAutomaton):
        return pres
    key = _checked(pres)
    kept, auto, hint = pres._kept
    if auto is None or kept is not key:
        system = pres if pres.rules is not None else regularize(pres)  # checked above
        auto = _condense(system.rules, system.root)
        if kept is key:
            pres._kept = key, auto, hint
    return auto


def _condense(rules: Mapping[str, Rule], root: str) -> EndsAutomaton:
    """One depth-first walk from ``root`` in child order, Tarjan's (1972) in
    its low-link form (Nuutila, Pearce), over a system checked at the door
    (`_checked`): it numbers each state it meets, and compiles each
    component as it closes, after every component its members reach.  A
    state's link starts at its number and is lowered by the links of the
    walked states it reaches that are not closed; a closed state's link is
    above every number, so no on-stack set is kept.
    The stack is Pearce's (2016): a state goes on it as it finishes inside
    the component of a state met before it, so a one-state component never
    touches it; a root takes the states pushed since it was met, split off by
    ``bisect_left`` (all below them are numbered below it, though the stack
    is not sorted), and sorts them back into numbering order.  As a component
    closes it counts the Handle and Pants nodes of the unfolding below one
    of its states, with child multiplicity (``P(a, a)`` doubles): INFINITE
    when one lies on or after a cycle, as a cycle repeats forever every node
    on or below it; only the root's counts outlive the walk."""
    kind, children = rules[root]
    closed, handle = len(rules), BlockKind.HANDLE
    index, names, handles = {root: 0}, [root], {0} if kind is handle else set()
    transitions, scc_of, components, exits, shapes = [()] * closed, [0] * closed, [], [], []
    low, stack, work = list(range(closed)), [], [(0, children, iter(children))]
    hs, ps = [], []  # per component, its Handle and Pants counts
    while work:
        state, cs, todo = work[-1]
        for child in todo:
            k = index.get(child)
            if k is None:  # first met: numbered and walked
                k = index[child] = len(names)
                names.append(child)
                kind, children = rules[child]
                if kind is handle:
                    handles.add(k)
                work.append((k, children, iter(children)))
                break
            if low[k] < low[state]:
                low[state] = low[k]
        else:
            work.pop()
            # one or two children: tuple and list displays, far cheaper than map()
            ts = transitions[state] = (index[cs[0]],) if len(cs) == 1 else (index[cs[0]], index[cs[1]])
            link = low[state]
            if link < state:  # in the component of a state met before it
                stack.append(state)
                if link < low[work[-1][0]]:
                    low[work[-1][0]] = link
                continue
            i = len(components)
            if not stack or stack[-1] < state:  # nothing pushed since it was met: a one-state component
                low[state] = closed
                scc_of[state] = i
                components.append([state])
                if state in ts:  # a self-loop: a cycle, or branching at P(s, s)
                    out = [] if len(ts) == 1 else [scc_of[k] for k in ts if k != state]
                    exits.append(out)
                    shapes.append(CYCLE if len(ts) == 1 or out else BRANCHING)
                    # a cycle repeats forever every node on or below it
                    hs.append(INFINITE if state in handles or out and hs[out[0]] else 0)
                    ps.append(0 if len(ts) == 1 else INFINITE)
                    continue
                shapes.append(ACYCLIC)  # on no cycle
                c = scc_of[ts[0]]
                if len(ts) == 1:
                    exits.append([c])
                    hs.append(hs[c] + (state in handles))
                    ps.append(ps[c])
                    continue
                d = scc_of[ts[1]]
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
            split = bisect_left(stack, state)
            members = stack[split:]
            del stack[split:]
            members.append(state)
            members.sort()
            for s in members:
                low[s] = closed
                scc_of[s] = i
            ks = [scc_of[k] for s in members for k in transitions[s]]
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
    # every field positional: the record constructor's fast path
    return EndsAutomaton(names, transitions, frozenset(handles), components, exits, shapes,
                         bytes(map(bool, hs)), bytes(map(bool, ps)), hs[-1], ps[-1])


# -- invariants ------------------------------------------------------------
#
# Each accepts a presentation or its automaton (`ends_automaton`); a
# finite-type triple answers from its `FiniteType`, checked at the door
# (`_triple`), without building one.

def _triple(source: SurfacePresentation | EndsAutomaton) -> FiniteType | None:
    """The `FiniteType` of a triple, checked at the door (`_checked`); None for a rule
    system or an automaton, which `ends_automaton` checks."""
    if isinstance(source, SurfacePresentation) and source.finite_type is not None:
        _checked(source)
        return source.finite_type
    return None


def genus(source: SurfacePresentation | EndsAutomaton) -> Genus:
    """Number of genus-adding blocks in the unfolding; INFINITE when a
    Handle state lies on, or is reachable from, a rule-graph cycle."""
    ft = _triple(source)
    return ends_automaton(source).handle_count if ft is None else ft.genus


def is_finite_type(source: SurfacePresentation | EndsAutomaton) -> bool:
    """True iff the unfolding contains finitely many non-annulus blocks."""
    if _triple(source) is not None:
        return True
    auto = ends_automaton(source)
    return INFINITE not in (auto.handle_count, auto.pants_count)


def canonical_finite_type(
    source: SurfacePresentation | EndsAutomaton,
) -> tuple[int, int, int]:
    """Canonical (g, 0, p) of a finite-type presentation.

    Boundary circles and punctures are interchangeable for the interior,
    so finite_type(g, b, p) maps to (g, 0, b + p).
    """
    ft = _triple(source)
    if ft is not None:
        return (ft.genus, 0, ft.boundary + ft.punctures)
    auto = ends_automaton(source)
    g, pants = auto.handle_count, auto.pants_count
    if INFINITE in (g, pants):
        prefix = f"{source.name}: " if isinstance(source, SurfacePresentation) else ""
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
    """A rule presentation of the same surface (identity on rule systems), checked at
    the door (`_checked`): a root unset in place is resolved as the constructor does."""
    _checked(pres)
    if pres.rules is not None:
        return pres
    ft = pres.finite_type
    return standard_presentation(ft.genus, ft.boundary + ft.punctures, pres.name)


def splice_annulus(pres: SurfacePresentation, state: str, slot: int) -> SurfacePresentation:
    """Insert an annulus block, the first free ``sp<i>`` state, on one child edge,
    last in rule order; the surface is unchanged.  ValueError when ``state`` has no
    rule or ``slot`` is not an index of its children.  ``pres`` is checked at the door
    (`_checked`), so the result is valid by construction and skips the constructor's
    walk: it keeps its key and the hint i + 1, no automaton, and the name search
    starts at ``pres``'s hint (sp0 ... up to it are taken).  The result of a system
    whose key does not hash keeps nothing, as its own key holds the same lists."""
    key = _checked(pres)
    kept, _, hint = pres._kept
    i = hint if kept is key else 0
    if pres.rules is None:
        pres = regularize(pres)  # a triple's standard presentation
    try:
        kind, children = pres.rules[state]
    except (KeyError, TypeError):  # undefined, or unhashable
        raise ValueError(f"no state {state!r} to splice") from None
    if not _is_int(slot) or not 0 <= slot < len(children):
        raise ValueError(f"slot {slot!r} out of range for {state}")
    while f"sp{i}" in pres.rules:
        i += 1
    fresh = f"sp{i}"
    rules = dict(pres.rules)
    new_children = list(children)
    new_children[slot] = fresh
    rules[state] = (kind, tuple(new_children))
    rules[fresh] = (BlockKind.ANNULUS, (children[slot],))
    out = object.__new__(SurfacePresentation)
    out.name, out.rules, out.root, out.finite_type = pres.name, rules, pres.root, None
    out._kept = (_key(pres.root, rules), None, i + 1) if kept is key else (None, None, 0)
    return out


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
    O(count * (states + edges)), over a system checked at the door (`_checked`).
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
        for i, child in enumerate(pres.rules[state][1]):
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
    natural or ``kind`` not a BlockKind.  A system edited in place into a
    fault raises the constructor's error (`_checked`)."""
    if not _is_int(count) or count < 0:
        raise ValueError(f"count must be a natural, got {count!r}")
    if not isinstance(kind, BlockKind):
        raise ValueError(f"kind must be a BlockKind, got {kind!r}")
    pres = regularize(pres)
    paths = _first_paths(pres, {s for s, (k, _) in pres.rules.items() if k is kind}, count)
    if len(paths) < count:
        raise ValueError(f"fewer than {count} occurrences of {kind.value} in the unfolding")
    return paths
