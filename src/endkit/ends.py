"""The space of ends of a presented surface, and decisions about it.

An end is an infinite choice path of the rule system: starting at the root,
repeatedly pick one output of the current block.  A Pants state offers two
choices (`P(x, x)` still branches in two), Annulus and Handle states offer
one.  The set of such paths with the cylinder topology (two ends are close
when they agree on a long prefix) is a non-empty compact, metrizable,
totally disconnected space.

An end is non-planar when genus keeps accumulating toward it: every suffix
of the path must still be able to reach a Handle state.  Equivalently, the
non-planar ends are the infinite paths through W = (states from which a
Handle is reachable), which makes the non-planar set closed: as soon as a
path steps outside W, its entire cylinder neighborhood is planar.

Three decision layers are built on top:

* cardinality of the ends space (exact finite count, countably infinite,
  or uncountable);
* symbolic Cantor-Bendixson analysis (rank, the size of the last batch of
  isolated points, perfect kernel);
* a normal-form expression algebra (`Pt`, `Cantor`, `Seq`, `Union`) for
  sound homeomorphism verdicts on pairs (ends, non-planar ends).

All three are one fold over the automaton's condensation, children first:
the ends beyond a component are read off from the ends beyond its exits.
A marked subspace (the paths that keep a mark reachable forever) is read
off the same condensation: the states that can reach a mark are a union of
components, and the fold skips the others.
"""

import re
from enum import Enum
from typing import Callable, Iterator, Sequence, TypeVar, Union as TUnion

from ._record import Record
from .errors import EndsError, InvalidEndExprError, NotConvertibleError
from .presentation import (
    ACYCLIC,
    BRANCHING,
    CYCLE,
    INFINITE,
    EndsAutomaton,
    Genus,
    SurfacePresentation,
    _is_int,
    _syntax_error,
    ends_automaton,
)

DEFAULT_RANK_CUTOFF = 16
EXPR_PARTS_CAP = 1_000_000  # a multiplicity of the normal form expands to that many summands
# the fragments that decide a Yes; classify reports them as witnesses
FRAGMENT_IDENTICAL = "identical-presentation"
FRAGMENT_NORMAL_FORM = "end-expression-normal-form"


class Verdict(Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


class Cardinality(Enum):
    FINITE = "finite"
    COUNTABLY_INFINITE = "countably-infinite"
    UNCOUNTABLE = "uncountable"


class EndsCount(Record):
    __slots__ = ("cardinality", "count")

    def __init__(self, cardinality: Cardinality, count: int | None = None) -> None:
        set_cardinality, set_count = self._stores
        set_cardinality(self, cardinality)
        set_count(self, count)  # set exactly when cardinality is FINITE


def ends_count(
    source: SurfacePresentation | EndsAutomaton, marked: str = "all"
) -> EndsCount:
    """Cardinality of the ends space, with the exact count when finite.

    ``marked="nonplanar_only"`` counts only the non-planar subspace.
    """
    return _cb_of(ends_automaton(source), marked)[3]


# -- the condensation fold -------------------------------------------------

_V = TypeVar("_V")


def _fold_components(
    space: EndsAutomaton,
    combine: Callable[[int, int, list], _V],
    within: Sequence[Genus] | None = None,
) -> _V | None:
    """``combine(shape, i, values of its exits)`` at every component ``i`` of
    the paths that stay within the components non-zero in ``within`` (all by
    default; a mark closure, such as the compiled ``handle_closure``), children
    first; the value at the root, or None when no such path is infinite.

    A component's shape and whether it keeps an exit (a child outside it, with
    multiplicity) say what it makes of the ends beyond its exits: ACYCLIC, a
    state on no cycle, the union of its exits; a CYCLE without exits, one end,
    and with exits, copies of the union of its exits converging to the cycle's
    end; BRANCHING inside without exits, a Cantor set, and with exits, a Cantor
    set that copies of each exit accumulate on.

    A component outside ``within``, or acyclic with no exit left, carries
    no infinite path: its value is None, and the exits into it are skipped.
    Only a ``within`` leaves such a component, so only under one are the
    exits' values filtered.  An acyclic component with one exit left passes
    that exit's value through without a call: every combiner returns
    ``kids[0]`` for ``(ACYCLIC, i, [kid])``."""
    if within is not None and not within[-1]:
        return None  # the root's component reaches every other, so none is kept
    values: list = []
    append, value = values.append, values.__getitem__
    for i, (exits, shape) in enumerate(zip(space.exits, space.shapes)):
        if within is not None and not within[i]:
            append(None)
        elif not shape and len(exits) == 1:  # most components: a lone exit passes through
            append(values[exits[0]])
        else:
            kids = (list(map(value, exits)) if within is None
                    else [v for k in exits if (v := values[k]) is not None])
            if shape or len(kids) > 1:
                append(combine(shape, i, kids))
            else:
                append(kids[0] if kids else None)
    return values[-1]


# -- Cantor-Bendixson analysis ---------------------------------------------

class CBReport(Record):
    """Cantor-Bendixson analysis of an ends space.

    rank is the number of derivative steps until the chain stabilizes;
    degree counts the isolated points of the last non-empty space in the
    chain (0 exactly when a perfect kernel remains, or the space is empty).
    profile records how many ends each step removed, None for an infinite
    batch.  Every batch but the last is infinite, so the profile is
    ``(None,) * (rank - 1) + (last batch,)``, and ``()`` at rank 0; it is
    omitted (None) for reports derived from expressions.  A report cut at
    a rank cutoff below the rank has rank = cutoff, profile
    ``(None,) * cutoff``, degree 0, no kernel, and rank_exceeded set.
    """

    __slots__ = ("rank", "degree", "has_perfect_kernel", "cardinality", "profile", "rank_exceeded")
    _defaults = {"profile": None, "rank_exceeded": False}

    def invariant_key(self) -> tuple:
        return (
            self.rank,
            self.degree,
            self.has_perfect_kernel,
            self.cardinality,
            self.profile,
            self.rank_exceeded,
        )


# A point of level k >= 1 is a limit of infinitely many points of level
# k - 1, so the whole derivative chain is the tuple (rank, last batch or
# None when infinite, perfect kernel, cardinality); at rank 0 the last batch
# is 0, so equal spaces give equal tuples.  A fold step carries the number of
# ends (a natural or INFINITE) for the cardinality, read at the root: a compact
# metrizable space is uncountable exactly when its perfect kernel is non-empty.
_CBData = tuple[int, "int | None", bool, EndsCount]
_CBStep = tuple[int, "int | None", bool, Genus]
_COUNTABLE = EndsCount(Cardinality.COUNTABLY_INFINITE)
_UNCOUNTABLE = EndsCount(Cardinality.UNCOUNTABLE)
_EMPTY_CB: _CBStep = (0, 0, False, 0)
_POINT_CB: _CBStep = (1, 1, False, 1)
_CANTOR_CB: _CBStep = (0, 0, True, INFINITE)


def _cb(shape: int, i: int | None, kids: list[_CBStep]) -> _CBStep:
    """The CB step of the ends beyond a component from its exits', in one
    loop over them: the top rank, the sum of that rank's last batches (None
    when one is infinite), whether any has a kernel, and the number of ends."""
    if not kids:
        if not shape:
            raise InvalidEndExprError("empty union denotes no space")
        return _POINT_CB if shape == CYCLE else _CANTOR_CB
    if not shape and len(kids) == 1:
        return kids[0]
    steps = iter(kids)
    rank, last, kernel, count = next(steps)
    for r, batch, k, n in steps:
        if r > rank:
            rank, last = r, batch
        elif r == rank:
            last = None if last is None or batch is None else last + batch
        kernel |= k
        try:
            count += n
        except OverflowError:  # INFINITE, a float, plus an integer past 2**1024
            count = INFINITE
    if not shape:
        return (rank, last, kernel, count)
    if shape == BRANCHING or kernel:  # the exits' last batch, copied forever
        return (rank, None if rank else 0, True, INFINITE)
    return (rank + 1, 1, False, INFINITE)  # a cycle with exits: its end is the new level


def _cardinality(kernel: bool, count: Genus) -> EndsCount:
    return _UNCOUNTABLE if kernel else _COUNTABLE if count == INFINITE else EndsCount(Cardinality.FINITE, count)


def _cb_data(space: EndsAutomaton, within: Sequence[Genus] | None = None) -> _CBData:
    """CB data of the paths that stay ``within`` (see _fold_components); the
    whole space's and its marked subspace's (``within`` is its own
    ``handle_closure``) are folded once and kept on the automaton."""
    slot = 0 if within is None else 1 if within is space.handle_closure else None
    data = None if slot is None else space._kept[slot]
    if data is None:
        rank, last, kernel, count = _fold_components(space, _cb, within) or _EMPTY_CB
        data = rank, last, kernel, _cardinality(kernel, count)
        if slot is not None:
            space._kept[slot] = data
    return data


def _cb_of(automaton: EndsAutomaton, marked: str) -> _CBData:
    """CB data of the full ends space, or of its non-planar subspace
    (``marked="nonplanar_only"``)."""
    if marked == "all":
        return _cb_data(automaton)
    if marked == "nonplanar_only":
        return _cb_data(automaton, automaton.handle_closure)
    raise ValueError(f"marked must be 'all' or 'nonplanar_only', got {marked!r}")


def cb_report(
    automaton: SurfacePresentation | EndsAutomaton,
    marked: str = "all",
    rank_cutoff: int = DEFAULT_RANK_CUTOFF,
) -> CBReport:
    """Analyze the full ends space, or only its non-planar subspace
    (``marked="nonplanar_only"``).

    The analysis is exact at any rank, in one pass over the condensation;
    ``rank_cutoff`` only truncates the report to its first ``rank_cutoff``
    derivative steps (see CBReport)."""
    if not _is_int(rank_cutoff) or rank_cutoff < 0:
        raise EndsError(f"rank_cutoff must be a natural, got {rank_cutoff!r}")
    rank, last, kernel, card = _cb_of(ends_automaton(automaton), marked)
    if rank > rank_cutoff:
        return CBReport(rank_cutoff, 0, False, card, (None,) * rank_cutoff, True)
    profile = (None,) * (rank - 1) + (last,) if rank else ()
    return CBReport(rank, 0 if kernel else last, kernel, card, profile)


# -- the expression algebra ------------------------------------------------
#
# Every function below is one per-node step over `_fold` (children first) or
# a preorder walk, both iterative: the depth of an expression is bounded by
# memory, never by the recursion limit.  `==` and `hash` compare `_key`, and
# `repr` is `format_end_expr`.  Normal forms are built in a `_Forms` intern
# table, where equal forms share one integer id: dedupe and absorption
# compare ids, and `_key` only ranks distinct parts.

class _Node(Record):
    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return _key(self) == _key(other) if isinstance(other, _Node) else NotImplemented

    def __hash__(self) -> int:
        return hash(_key(self))

    def __repr__(self) -> str:
        return format_end_expr(self)


class Pt(_Node):
    __slots__ = ("nonplanar",)

    def __init__(self, nonplanar: bool = False) -> None:
        self._stores[0](self, nonplanar)


class Cantor(_Node):
    __slots__ = ("nonplanar",)

    def __init__(self, nonplanar: bool = False) -> None:
        self._stores[0](self, nonplanar)


class Seq(_Node):
    """Countably many copies of ``element`` converging to one limit point."""

    __slots__ = ("element", "limit_nonplanar")

    def __init__(self, element: "EndExpr", limit_nonplanar: bool = False) -> None:
        set_element, set_limit = self._stores
        set_element(self, element)
        set_limit(self, limit_nonplanar)


class Union(_Node):
    __slots__ = ("parts",)

    def __init__(self, *parts: "EndExpr"):
        # Union(a, b, ...), or Union(tuple_of_parts) for programmatic use
        as_tuple = len(parts) == 1 and isinstance(parts[0], tuple)
        self._stores[0](self, parts[0] if as_tuple else parts)


EndExpr = TUnion[Pt, Cantor, Seq, Union]


def _children(e: EndExpr) -> tuple[EndExpr, ...]:
    if isinstance(e, Seq):
        return (e.element,)
    return e.parts if isinstance(e, Union) else ()


def _walk(e: EndExpr) -> Iterator[EndExpr]:
    """The nodes of ``e`` in preorder, children left to right."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def _fold(e: EndExpr, combine: Callable[[EndExpr, list], _V]) -> _V:
    """``combine(node, values of its children)`` at every node, children
    first and left to right; the value at ``e``."""
    values: list = []
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        kids = _children(node)
        if ready:
            split = len(values) - len(kids)
            values[split:] = [combine(node, values[split:])]
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(kids))
    return values[0]


def _key(e: EndExpr) -> tuple:
    """Two entries per node in preorder: a tag, then the mark (the part
    count for a Union).  Equal keys are equal expressions.  The code is
    prefix-free, so keys sort like the nested tuples (tag, mark, child
    keys), and every subtree's key sits in its root's at an even offset."""
    out: list = []
    for node in _walk(e):
        if isinstance(node, Union):
            out += (3, len(node.parts))
        elif isinstance(node, Seq):
            out += (2, node.limit_nonplanar)
        else:
            out += (int(isinstance(node, Cantor)), node.nonplanar)
    return tuple(out)


def _nonplanar(node: EndExpr, kids: list[bool]) -> bool:
    if isinstance(node, (Pt, Cantor)):
        return node.nonplanar
    return (isinstance(node, Seq) and node.limit_nonplanar) or any(kids)


def _has_nonplanar(e: EndExpr) -> bool:
    return _fold(e, _nonplanar)


class _Forms:
    """An intern table of normal forms, for one call or one automaton (see
    `_normal_form`): each distinct normal form gets a small
    integer id, keyed by (tag, mark, child ids) with the tags and marks of
    `_key`, a Union's children ranked by `_key`.  Equal forms get equal
    ids, so equality and dedupe compare ids.

    A union under construction is a bag ``{id: multiplicity}`` of non-Union
    parts.  Unions flatten, so a Union is never a part of a Union, and under
    a Seq repeats collapse: a multiplicity above 1 occurs only in an acyclic
    component's value or at the root, never inside an interned form.  Bags
    are read-only: the table hands out one shared bag per atom (kind, mark),
    and a union of one bag is that bag."""

    def __init__(self) -> None:
        self.atoms: dict[tuple[bool, bool], dict[int, int]] = {}  # the bag of each atom
        self.ids: dict[tuple, int] = {}
        self.nodes: list[tuple] = []  # (tag, mark, child ids) by id
        self.exprs: list[EndExpr] = []  # the public form by id
        self.keys: dict[int, tuple] = {}  # `_key` by id, once ranked
        self.inside: dict[tuple[int, int], bool] = {}  # (summand, Seq): a piece of it?

    def intern(self, tag: int, mark: bool | int, kids: tuple[int, ...] = ()) -> int:
        """The id of the form (tag, mark, kids); a new id gets its public node."""
        node = (tag, mark, kids)
        i = self.ids.get(node)
        if i is None:
            i = self.ids[node] = len(self.nodes)
            self.nodes.append(node)
            exprs = self.exprs
            exprs.append(
                Seq(exprs[kids[0]], mark) if tag == 2
                else Union(tuple(map(exprs.__getitem__, kids))) if tag == 3
                else (Cantor if tag else Pt)(mark)
            )
        return i

    def ranked(self, bag: dict[int, int]) -> list[int]:
        """The distinct parts of ``bag`` in `_key` order."""
        if len(bag) < 2:
            return list(bag)
        for i in bag:
            if i not in self.keys:
                self.keys[i] = _key(self.exprs[i])
        return sorted(bag, key=self.keys.__getitem__)

    def seq(self, bag: dict[int, int], limit: bool) -> dict[int, int]:
        """Copies of the union ``bag`` converging to a limit marked ``limit``:
        the repeats of the element collapse (omega copies of x+x are omega
        copies of x), and omega Cantors converging to a same-marked limit
        are again a Cantor."""
        element = next(iter(bag)) if len(bag) == 1 else self.intern(3, len(bag), tuple(self.ranked(bag)))
        tag, mark, _ = self.nodes[element]
        if tag == 1 and mark == limit:
            return {element: 1}
        return {self.intern(2, limit, (element,)): 1}

    def union(self, bags: list[dict[int, int]]) -> dict[int, int]:
        """The union of ``bags``: Cantor summands with the same mark merge,
        and a summand that is a piece (a subtree) of a sibling Seq's element
        is absorbed into that tower (one extra copy shifts away).  With no
        Seq summand there is nothing to absorb, and nothing is sorted.

        A form's pieces have smaller ids, so a summand can be a piece only of
        a larger Seq, and a Seq absorbed by a larger one holds no other piece.
        ``inside[i, s]`` (is summand i a piece of Seq s?) is answered once per
        table, by one walk of s for all summands of the first union asking,
        which stops at each Seq already answered: no closure is kept."""
        if len(bags) < 2:
            if not bags:
                raise InvalidEndExprError("empty union denotes no space")
            return bags[0]
        merged: dict[int, int] = {}
        for bag in bags:
            for i, m in bag.items():
                merged[i] = merged.get(i, 0) + m
        nodes = self.nodes
        towers = [i for i in merged if nodes[i][0] == 2]
        if not towers:
            return {i: 1 if nodes[i][0] == 1 else m for i, m in merged.items()}
        inside, absorbed = self.inside, set()
        for s in sorted(towers, reverse=True):
            asked = [] if s in absorbed else [i for i in merged if i < s and i not in absorbed]
            if any((i, s) not in inside for i in asked):
                low, todo, seen = min(asked), [nodes[s][2][0]], set()
                while todo:  # no form below ``low`` holds a summand
                    k = todo.pop()
                    if k >= low and k not in seen:
                        seen.add(k)
                        if nodes[k][0] == 2 and all((i, k) in inside for i in asked if i < k):
                            seen.update(i for i in asked if i < k and inside[i, k])
                        else:
                            todo.extend(nodes[k][2])
                inside.update(((i, s), i in seen) for i in asked)
            absorbed.update(i for i in asked if inside[i, s])
        return {i: 1 if nodes[i][0] == 1 else m for i, m in merged.items() if i not in absorbed}

    def find(self, other: "_Forms", bag: dict[int, int]) -> dict[int | None, int]:
        """``bag``, a bag of table ``other``, as a bag of this one, reading
        this table only: a part whose form is not here becomes a None key.
        A form's parts have smaller ids, and a Union's are ranked by `_key`
        in every table, so each form is looked up after its parts."""
        found: list[int | None] = []
        for tag, mark, kids in other.nodes:
            found.append(self.ids.get((tag, mark, tuple([found[k] for k in kids]))))
        return {found[i]: m for i, m in bag.items()}

    def atom(self, cantor: bool, mark: bool) -> dict[int, int]:
        bag = self.atoms.get((cantor, mark))
        if bag is None:
            bag = self.atoms[cantor, mark] = {self.intern(int(cantor), mark): 1}
        return bag

    def expr(self, bag: dict[int, int]) -> EndExpr:
        """The public form of ``bag``, its multiplicities expanded; EndsError
        past EXPR_PARTS_CAP parts, before any is built."""
        if (total := sum(bag.values())) > EXPR_PARTS_CAP:  # past 10**18, named by its power of two
            many = total if total < 10**18 else f"at least 2**{total.bit_length() - 1}"
            raise EndsError(f"end expression expands to {many} parts, capped at {EXPR_PARTS_CAP}")
        parts = [self.exprs[i] for i in self.ranked(bag) for _ in range(bag[i])]
        return parts[0] if len(parts) == 1 else Union(tuple(parts))


def normalize_end_expr(e: EndExpr) -> EndExpr:
    """Canonical form: equal results denote homeomorphic marked spaces.

    Unions are flattened and sorted; duplicate Cantor summands with the
    same mark merge; a summand appearing as a repeated piece of a sibling
    Seq is absorbed into that tower (one extra copy shifts away).  Under a
    Seq, duplicate summands of the element collapse (omega copies of x+x
    are omega copies of x), and omega Cantors converging to a same-marked
    limit are again a Cantor.  The expression is folded into bags of one
    `_Forms` table and materialized once, at the end.
    """
    forms = _Forms()

    def normal(node: EndExpr, kids: list[dict[int, int]]) -> dict[int, int]:
        if isinstance(node, Union):
            return forms.union(kids)
        if isinstance(node, Seq):
            return forms.seq(kids[0], node.limit_nonplanar)
        return forms.atom(isinstance(node, Cantor), node.nonplanar)

    return forms.expr(_fold(e, normal))


def validate_end_expr(e: EndExpr) -> None:
    """Reject expressions whose non-planar subset would not be closed."""

    def check(node: EndExpr, kids: list) -> tuple[bool, str | None]:
        """(has a non-planar point, first fault in preorder or None)"""
        nonplanar = _nonplanar(node, [np for np, _ in kids])
        faults = [fault for _, fault in kids if fault]
        if isinstance(node, Seq) and not node.limit_nonplanar and nonplanar:
            faults.insert(0, "non-planar points accumulating at a planar limit")
        if isinstance(node, Union) and not node.parts:
            faults.insert(0, "empty union denotes no space")
        return nonplanar, faults[0] if faults else None

    fault = _fold(e, check)[1]
    if fault:
        raise InvalidEndExprError(fault)


def format_end_expr(e: EndExpr) -> str:
    """The text that parse_end_expr reads, in one preorder walk."""
    out: list[str] = []
    stack: list[EndExpr | str] = [e]  # a node's closing text waits below its children
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Union):
            out.append("Union(")
            stack.append(")")
            for part in reversed(node.parts[1:]):
                stack += (part, ", ")
            stack += node.parts[:1]
        elif isinstance(node, Seq):
            out.append("Seq(")
            stack += (f", {'nonplanar' if node.limit_nonplanar else 'planar'})", node.element)
        else:
            out.append(f"{type(node).__name__}({'nonplanar' if node.nonplanar else 'planar'})")
    return "".join(out)


# Three compiled patterns are stepped along the text, the open Seq and Union
# nodes on a stack: a part (a whole leaf, or a Seq or Union head), a Seq's tail
# after its element, and what follows a Union's part.  Each matches the longest
# prefix of its piece that fits, so a broken piece ends at the offending
# character; a whole piece ends with an "open", "close" or "more" group.

_KW = r"(?![A-Za-z])"  # keywords end where no ASCII letter follows; whitespace is \s
_MARK = rf"(?:\s*(?P<mark>planar|nonplanar){_KW}(?:\s*(?P<close>\)))?)?"
_PART = re.compile(rf"\s*(?:(?P<head>Seq|Union){_KW}\s*(?P<open>\()?|(?P<leaf>Pt|Cantor){_KW}(?:\s*\({_MARK})?)?")
_SEQ_TAIL = re.compile(rf"\s*(?:,{_MARK})?")
_UNION_NEXT = re.compile(r"\s*(?:(?P<more>,)|(?P<close>\)))?")


def _piece(pattern: re.Pattern, text: str, pos: int) -> re.Match:
    m = pattern.match(text, pos)
    assert m is not None  # every part of each pattern is optional
    if m.lastgroup not in ("open", "close", "more"):
        raise _syntax_error(text, m.end(), error=InvalidEndExprError)
    return m


def parse_end_expr(text: str) -> EndExpr:
    """Inverse of format_end_expr; syntax errors name a line and column."""
    pending: list[tuple[bool, list[EndExpr]]] = []  # open nodes: (a Seq?, parts so far)
    pos = 0
    while True:
        m = _piece(_PART, text, pos)
        pos = m.end()
        if m["head"]:
            pending.append((m["head"] == "Seq", []))
            continue
        expr: EndExpr = (Pt if m["leaf"] == "Pt" else Cantor)(m["mark"] == "nonplanar")
        while pending:  # close every node that this part completes
            is_seq, parts = pending[-1]
            parts.append(expr)
            m = _piece(_SEQ_TAIL if is_seq else _UNION_NEXT, text, pos)
            pos = m.end()
            if is_seq:
                expr = Seq(parts[0], m["mark"] == "nonplanar")
            elif m["more"]:
                break
            else:
                expr = Union(tuple(parts))
            pending.pop()
        else:
            break
    if text[pos:].strip():
        raise _syntax_error(text, pos, error=InvalidEndExprError)
    return expr


_SHAPE_OF_NODE = {Pt: CYCLE, Cantor: BRANCHING, Seq: CYCLE, Union: ACYCLIC}


def expr_cb_report(e: EndExpr) -> CBReport:
    """Cantor-Bendixson data computed over the algebra: each node is read as
    the component shape that realizes it, its children as the exits, through
    the automaton route's combiner."""
    rank, last, kernel, count = _fold(e, lambda node, kids: _cb(_SHAPE_OF_NODE[type(node)], None, kids))
    return CBReport(rank, 0 if kernel else last, kernel, _cardinality(kernel, count))


# -- automaton to expression -----------------------------------------------

def _to_expr(space: EndsAutomaton, marked: Sequence[Genus], forms: _Forms) -> dict[int, int]:
    """Normal form, as a bag of ``forms``, of the path space with the ends
    inside the components non-zero in ``marked`` (a mark closure) marked, or
    NotConvertibleError when a component mixes internal branching with
    exits.  Each component's bag is built once, from its children's, in
    time linear in their distinct parts."""

    def expr(shape: int, i: int, kids: list[dict[int, int]]) -> dict[int, int]:
        if not shape:
            return forms.union(kids)
        if not kids:
            return forms.atom(shape == BRANCHING, marked[i] != 0)
        if shape == BRANCHING:
            raise NotConvertibleError("component mixes internal branching with exits")
        return forms.seq(forms.union(kids), marked[i] != 0)

    return _fold_components(space, expr)


def _normal_form(automaton: EndsAutomaton, marked: Sequence[Genus]) -> tuple[_Forms, dict[int, int]]:
    """The normal form of the ends with those in the mark closure ``marked``
    marked, as its table and bag; NotConvertibleError when it has none.  Marked
    by its own ``handle_closure`` (the non-planar ends), it is folded into a
    fresh table the first time it is asked for and kept on the automaton, or
    the lack of one is, and a fresh error is raised on every ask; any other
    marks fold into a fresh table kept nowhere."""
    folds = automaton._kept if marked is automaton.handle_closure else [None] * 3
    if folds[2] is None:
        forms = _Forms()
        try:
            folds[2] = forms, _to_expr(automaton, marked, forms)
        except NotConvertibleError as e:
            folds[2] = None, str(e)
    forms, bag = folds[2]
    if forms is None:
        raise NotConvertibleError(bag)
    return forms, bag


def to_end_expr(automaton: SurfacePresentation | EndsAutomaton) -> EndExpr:
    """Normal-form expression for (ends, non-planar ends), materialized from
    its bag, with the multiplicities expanded."""
    automaton = ends_automaton(automaton)
    forms, bag = _normal_form(automaton, automaton.handle_closure)
    return forms.expr(bag)


# -- homeomorphism decision for pairs --------------------------------------

def _pair_verdict(
    space_a: EndsAutomaton,
    marked_a: Sequence[Genus],
    space_b: EndsAutomaton,
    marked_b: Sequence[Genus],
) -> tuple[Verdict, str | None]:
    """Verdict on two spaces with mark closures (non-zero per kept component), plus
    the fragment that decided a Yes: 'identical-presentation' or
    'end-expression-normal-form'; None for No and Unknown.

    One pass in order of cost: equal ``transitions`` are one system with
    one condensation, so with the same components marked they decide a Yes
    alone; else the normal forms decide; the CB data of the spaces, then of
    their marked subspaces, are read only when a side has no normal form,
    and separate a No from Unknown.

    Each side folds into its own table (`_normal_form`: kept on its automaton
    when marked by its own ``handle_closure``, else kept nowhere), and side a's
    bag is read through `_Forms.find` in side b's table, in time linear in
    a's table, so a kept table never grows."""
    if space_a.transitions == space_b.transitions and (  # one system: its marks as flags
        [m != 0 for m in marked_a] == [m != 0 for m in marked_b]
    ):
        return Verdict.YES, FRAGMENT_IDENTICAL
    try:
        forms_a, bag_a = _normal_form(space_a, marked_a)
        forms_b, bag_b = _normal_form(space_b, marked_b)
    except NotConvertibleError:
        same_cb = _cb_data(space_a) == _cb_data(space_b) and (
            _cb_data(space_a, marked_a) == _cb_data(space_b, marked_b)
        )
        return (Verdict.UNKNOWN if same_cb else Verdict.NO), None
    same = forms_b.find(forms_a, bag_a) == bag_b
    return (Verdict.YES, FRAGMENT_NORMAL_FORM) if same else (Verdict.NO, None)


def pair_homeomorphic(
    a: SurfacePresentation | EndsAutomaton, b: SurfacePresentation | EndsAutomaton
) -> Verdict:
    """Is there a homeomorphism of ends spaces matching the non-planar
    subsets?  Sound on Yes and No; Unknown outside the decided fragment."""
    a, b = ends_automaton(a), ends_automaton(b)
    verdict, _ = _pair_verdict(a, a.handle_closure, b, b.handle_closure)
    return verdict


# -- JSON ------------------------------------------------------------------

def ends_count_to_json(c: EndsCount) -> dict:
    out: dict = {"class": c.cardinality.value}
    if c.cardinality is Cardinality.FINITE:
        out["count"] = c.count
    return out


def cb_report_to_json(r: CBReport) -> dict:
    return {
        "rank": r.rank,
        "degree": r.degree,
        "perfect_kernel": r.has_perfect_kernel,
        "cardinality": ends_count_to_json(r.cardinality),
        "profile": None if r.profile is None else list(r.profile),
        "rank_exceeded": r.rank_exceeded,
    }
