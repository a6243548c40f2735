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
* symbolic Cantor-Bendixson analysis (derivatives computed by restricting
  the automaton to states that can still reach a branching state);
* a normal-form expression algebra (`Pt`, `Cantor`, `Seq`, `Union`) for
  sound homeomorphism verdicts on pairs (ends, non-planar ends).
"""

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, TypeVar, Union as TUnion

from .errors import EndsError, InvalidEndExprError, NotConvertibleError
from .presentation import (
    BlockKind,
    EndsAutomaton,
    SurfacePresentation,
    _Parser,
    _finite_ends_count,
    backward,
    ends_automaton,
    forward,
    path_counts,
    regularize,
)

DEFAULT_RANK_CUTOFF = 16


class Verdict(Enum):
    YES = "Yes"
    NO = "No"
    UNKNOWN = "Unknown"


class Cardinality(Enum):
    FINITE = "finite"
    COUNTABLY_INFINITE = "countably-infinite"
    UNCOUNTABLE = "uncountable"


@dataclass(frozen=True)
class EndsCount:
    cardinality: Cardinality
    count: int | None = None  # set exactly when cardinality is FINITE

    def __str__(self) -> str:
        if self.cardinality is Cardinality.FINITE:
            return f"finite({self.count})"
        return self.cardinality.value


# -- subspaces -------------------------------------------------------------
#
# Every ends computation works on an EndsAutomaton whose infinite root paths
# are the subspace under study.  A subspace is pruned so that every state is
# reachable from the root and has at least one choice; its states are a
# union of the parent's components, so it keeps the parent's condensation
# instead of recomputing it.

_EMPTY = EndsAutomaton((), {}, None, frozenset(), (), frozenset())


def _space_of(automaton: EndsAutomaton, marked: str = "all") -> EndsAutomaton:
    """The full ends space, or its non-planar subspace
    (``marked="nonplanar_only"``)."""
    if marked not in ("all", "nonplanar_only"):
        raise ValueError(f"marked must be 'all' or 'nonplanar_only', got {marked!r}")
    return automaton if marked == "all" else _restrict(automaton, automaton.nonplanar_states)


def _restrict(space: EndsAutomaton, targets: Iterable[str]) -> EndsAutomaton:
    """The subspace of paths that keep some target reachable forever.

    The kept states are closed under predecessors, then under successors
    from the root, so they are a union of components of ``space``: the
    cycles inside are the parent's and so are the components.
    """
    if space.root is None:
        return _EMPTY
    keep = backward(space.transitions, targets)
    inside = {
        s: tuple(c for c in cs if c in keep)
        for s, cs in space.transitions.items() if s in keep
    }
    alive = backward(inside, space.cyclic & keep)
    if space.root not in alive:
        return _EMPTY
    live = {s: tuple(c for c in inside[s] if c in alive) for s in alive}
    transitions = {s: live[s] for s in forward(live, [space.root])}
    return EndsAutomaton(
        states=tuple(s for s in space.states if s in transitions),
        transitions=transitions,
        root=space.root,
        nonplanar_states=space.nonplanar_states.intersection(transitions),
        components=tuple(c for c in space.components if c[0] in transitions),
        cyclic=space.cyclic.intersection(transitions),
    )


def _ends_count_space(space: EndsAutomaton) -> EndsCount:
    if space.root is None:
        return EndsCount(Cardinality.FINITE, 0)
    succ = space.transitions
    scc_of = {s: i for i, c in enumerate(space.components) for s in c}
    for s, cs in succ.items():
        if sum(1 for c in cs if scc_of[c] == scc_of[s]) >= 2:
            return EndsCount(Cardinality.UNCOUNTABLE)
    if any(len(succ[s]) >= 2 for s in forward(succ, space.cyclic)):
        return EndsCount(Cardinality.COUNTABLY_INFINITE)
    # deterministic beyond the cyclic region, so each entry is one end
    return EndsCount(
        Cardinality.FINITE, _finite_ends_count(succ, space.root, space.cyclic)
    )


def ends_count(
    source: SurfacePresentation | EndsAutomaton, marked: str = "all"
) -> EndsCount:
    """Cardinality of the ends space, with the exact count when finite.

    ``marked="nonplanar_only"`` counts only the non-planar subspace.
    """
    if isinstance(source, SurfacePresentation):
        source = ends_automaton(source)
    return _ends_count_space(_space_of(source, marked))


# -- Cantor-Bendixson analysis ---------------------------------------------

@dataclass(frozen=True)
class CBReport:
    """Derivative analysis of an ends space.

    rank is the number of derivative steps until the chain stabilizes;
    degree counts the isolated points of the last non-empty space in the
    chain (0 exactly when a perfect kernel remains, or the space is empty).
    profile records how many ends each step removed, None for an infinite
    batch; it is omitted (None) for reports derived from expressions.
    """

    rank: int
    degree: int
    has_perfect_kernel: bool
    cardinality: EndsCount
    profile: tuple[int | None, ...] | None = None
    rank_exceeded: bool = False

    def invariant_key(self) -> tuple:
        return (
            self.rank,
            self.degree,
            self.has_perfect_kernel,
            self.cardinality,
            self.profile,
            self.rank_exceeded,
        )


def _derivative(space: EndsAutomaton) -> EndsAutomaton:
    """Subspace of non-isolated ends: paths that forever keep a branching
    state reachable."""
    return _restrict(space, [s for s, cs in space.transitions.items() if len(cs) >= 2])


def _batch_size(old: EndsAutomaton, new: EndsAutomaton) -> int | None:
    """Number of ends removed by one derivative step, None when infinite.

    A path that leaves ``new`` never returns, and it has left the branching
    behind by the time it reaches a cycle of ``old``: each root path of
    ``old`` that leaves ``new`` and first meets a cycle there is one removed
    end.  Paths leaving after a cycle of ``new`` come in infinite numbers.
    """
    pumped = set(forward(new.transitions, new.cyclic))
    if any(c not in new.transitions for s in pumped for c in old.transitions[s]):
        return None
    landing = old.cyclic - new.transitions.keys()
    if any(len(old.transitions[s]) >= 2 for s in forward(old.transitions, landing)):
        raise AssertionError("removed subspace must have finitely many ends")
    assert old.root is not None
    paths = path_counts(
        old.transitions, old.root, old.transitions.keys() - old.cyclic - pumped
    )
    return sum(paths.get(s, 0) for s in landing)


def _cb_space(space: EndsAutomaton, rank_cutoff: int) -> CBReport:
    cardinality = _ends_count_space(space)
    profile: list[int | None] = []
    nxt = _derivative(space)
    while nxt.transitions.keys() != space.transitions.keys() and len(profile) < rank_cutoff:
        profile.append(_batch_size(space, nxt))
        space, nxt = nxt, _derivative(nxt)
    # a space that still shrinks is not empty, so its degree is 0
    exceeded = nxt.transitions.keys() != space.transitions.keys()
    empty = space.root is None
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


def cb_report(
    automaton: EndsAutomaton,
    marked: str = "all",
    rank_cutoff: int = DEFAULT_RANK_CUTOFF,
) -> CBReport:
    """Analyze the full ends space, or only its non-planar subspace
    (``marked="nonplanar_only"``), for at most ``rank_cutoff`` derivative
    steps."""
    if rank_cutoff < 0:
        raise EndsError(f"rank_cutoff must be non-negative, got {rank_cutoff}")
    return _cb_space(_space_of(automaton, marked), rank_cutoff)


# -- the expression algebra ------------------------------------------------
#
# Every function below is one per-node step over `_fold` (children first) or
# `_walk` (preorder), both iterative: the depth of an expression is bounded
# by memory, never by the recursion limit.  `_key` is the one identity of an
# expression; dataclass equality and hashing, which recurse, are not used.

@dataclass(frozen=True)
class Pt:
    nonplanar: bool = False


@dataclass(frozen=True)
class Cantor:
    nonplanar: bool = False


@dataclass(frozen=True)
class Seq:
    """Countably many copies of ``element`` converging to one limit point."""

    element: "EndExpr"
    limit_nonplanar: bool = False


@dataclass(frozen=True)
class Union:
    parts: tuple["EndExpr", ...]

    def __init__(self, *parts: "EndExpr"):
        flat: tuple[EndExpr, ...]
        if len(parts) == 1 and isinstance(parts[0], tuple):
            flat = parts[0]  # Union(tuple_of_parts) for programmatic use
        else:
            flat = tuple(parts)
        object.__setattr__(self, "parts", flat)


EndExpr = TUnion[Pt, Cantor, Seq, Union]
_V = TypeVar("_V")


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


def _normal(node: EndExpr, kids: list[EndExpr]) -> EndExpr:
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


def normalize_end_expr(e: EndExpr) -> EndExpr:
    """Canonical form: equal results denote homeomorphic marked spaces.

    Unions are flattened and sorted; duplicate Cantor summands with the
    same mark merge; a summand appearing as a repeated piece of a sibling
    Seq is absorbed into that tower (one extra copy shifts away).  Under a
    Seq, duplicate summands of the element collapse (omega copies of x+x
    are omega copies of x), and omega Cantors converging to a same-marked
    limit are again a Cantor.
    """
    return _fold(e, _normal)


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
    def text(node: EndExpr, kids: list[str]) -> str:
        if isinstance(node, Union):
            return f"Union({', '.join(kids)})"
        np = node.limit_nonplanar if isinstance(node, Seq) else node.nonplanar
        mark = "nonplanar" if np else "planar"
        if isinstance(node, Seq):
            return f"Seq({kids[0]}, {mark})"
        return f"{type(node).__name__}({mark})"

    return _fold(e, text)


def parse_end_expr(text: str) -> EndExpr:
    """Inverse of format_end_expr."""
    p = _Parser(re.findall(r"[A-Za-z]+|[(),]|\S", text), InvalidEndExprError)

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


def expr_cb_report(e: EndExpr) -> CBReport:
    """Cantor-Bendixson data computed over the algebra; independent of the
    automaton route, used to cross-check it."""
    return CBReport(*_fold(e, _expr_cb))


def _expr_cb(e: EndExpr, datas: list) -> tuple[int, int, bool, EndsCount]:
    if isinstance(e, Pt):
        return (1, 1, False, EndsCount(Cardinality.FINITE, 1))
    if isinstance(e, Cantor):
        return (0, 0, True, EndsCount(Cardinality.UNCOUNTABLE))
    if isinstance(e, Seq):
        rank, _, kernel, card = datas[0]
        if card.cardinality is Cardinality.UNCOUNTABLE:
            new_card = EndsCount(Cardinality.UNCOUNTABLE)
        else:
            new_card = EndsCount(Cardinality.COUNTABLY_INFINITE)
        if kernel:
            return (rank, 0, True, new_card)
        return (rank + 1, 1, False, new_card)
    rank = max(d[0] for d in datas)
    kernel = any(d[2] for d in datas)
    degree = 0 if kernel else sum(d[1] for d in datas if d[0] == rank)
    cards = [d[3] for d in datas]
    if any(c.cardinality is Cardinality.UNCOUNTABLE for c in cards):
        card = EndsCount(Cardinality.UNCOUNTABLE)
    elif any(c.cardinality is Cardinality.COUNTABLY_INFINITE for c in cards):
        card = EndsCount(Cardinality.COUNTABLY_INFINITE)
    else:
        card = EndsCount(
            Cardinality.FINITE, sum(c.count or 0 for c in cards)
        )
    return (rank, degree, kernel, card)


# -- automaton to expression -----------------------------------------------

def _to_expr(space: EndsAutomaton, mark_targets: Iterable[str]) -> EndExpr:
    """Normal-form expression for the marked path space, or
    NotConvertibleError when a component mixes internal branching with
    exits.  Each component's normal form is built once, from its
    children's."""
    if space.root is None:
        raise NotConvertibleError("empty path space has no expression")
    succ = space.transitions
    marked = backward(succ, mark_targets)
    expr_of: dict[str, EndExpr] = {}
    for scc in space.components:
        members = set(scc)
        kids = [expr_of[c] for s in sorted(scc) for c in succ[s] if c not in members]
        in_marked = members <= marked
        if scc[0] not in space.cyclic:
            expr = _normal(Union(tuple(kids)), kids)
        elif any(sum(c in members for c in succ[s]) >= 2 for s in scc):
            if kids:
                raise NotConvertibleError(
                    "component mixes internal branching with exits"
                )
            expr = Cantor(in_marked)
        elif kids:
            body = _normal(Union(tuple(kids)), kids)
            expr = _normal(Seq(body, in_marked), [body])
        else:
            expr = Pt(in_marked)
        for s in scc:
            expr_of[s] = expr
    return expr_of[space.root]


def to_end_expr(automaton: EndsAutomaton) -> EndExpr:
    """Normal-form expression for (ends, non-planar ends)."""
    return _to_expr(automaton, automaton.nonplanar_states)


# -- homeomorphism decision for pairs --------------------------------------

def _canonical_form(space: EndsAutomaton, marked: set[str]) -> tuple:
    """Relabel states by BFS discovery order (child order preserved)."""
    if space.root is None:
        return ()
    order = forward(space.transitions, [space.root])
    index = {s: i for i, s in enumerate(order)}
    return tuple(
        (tuple(index[c] for c in space.transitions[s]), s in marked)
        for s in order
    )


def _pair_invariants(space: EndsAutomaton, mark_targets: Iterable[str]) -> tuple:
    full = _cb_space(space, DEFAULT_RANK_CUTOFF)
    marked_space = _restrict(space, mark_targets)
    sub = _cb_space(marked_space, DEFAULT_RANK_CUTOFF)
    return full.invariant_key() + sub.invariant_key()


def _pair_verdict(
    space_a: EndsAutomaton,
    marks_a: Iterable[str],
    space_b: EndsAutomaton,
    marks_b: Iterable[str],
) -> tuple[Verdict, str | None]:
    """Verdict plus what decided it: 'identical-presentation' or
    'end-expression-normal-form' for Yes, 'invariants' or 'normal-form'
    for No, None for Unknown."""
    marks_a = set(marks_a)
    marks_b = set(marks_b)
    empty_a, empty_b = space_a.root is None, space_b.root is None
    if empty_a or empty_b:
        if empty_a == empty_b:
            return Verdict.YES, "identical-presentation"
        return Verdict.NO, "invariants"
    if _pair_invariants(space_a, marks_a) != _pair_invariants(space_b, marks_b):
        return Verdict.NO, "invariants"
    canon_a = _canonical_form(space_a, backward(space_a.transitions, marks_a))
    canon_b = _canonical_form(space_b, backward(space_b.transitions, marks_b))
    if canon_a == canon_b:
        return Verdict.YES, "identical-presentation"
    try:
        expr_a = _to_expr(space_a, marks_a)
        expr_b = _to_expr(space_b, marks_b)
    except NotConvertibleError:
        return Verdict.UNKNOWN, None
    if _key(expr_a) == _key(expr_b):
        return Verdict.YES, "end-expression-normal-form"
    return Verdict.NO, "normal-form"


def pair_homeomorphic(a: EndsAutomaton, b: EndsAutomaton) -> Verdict:
    """Is there a homeomorphism of ends spaces matching the non-planar
    subsets?  Sound on Yes and No; Unknown outside the decided fragment."""
    verdict, _ = _pair_verdict(a, a.nonplanar_states, b, b.nonplanar_states)
    return verdict


# -- isolated planar ends --------------------------------------------------

def find_isolated_planar_end(pres: SurfacePresentation) -> str | None:
    """A state whose whole future is annulus blocks (the end beyond it is
    an isolated puncture), or None."""
    pres = regularize(pres)
    auto = ends_automaton(pres)
    succ = auto.transitions
    impure = backward(
        succ, [s for s in succ if pres.kind(s) is not BlockKind.ANNULUS]
    )
    for s in forward(succ, [auto.root]):
        if s not in impure:
            return s
    return None


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
