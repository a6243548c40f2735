"""Homeomorphism classification of presented surfaces.

Two invariants decide everything: the genus and the ends pair (ends space
together with its non-planar subset).  Surfaces agree on both exactly when
they are homeomorphic, so the classifier compares genus and delegates the
pair to the ends machinery; `realize` goes the other way and compiles a
(genus, expression) pair back into a presentation.
"""

from enum import Enum

from ._record import Record, _is_int
from .errors import ClassifyError, InconsistentInvariantsError
from .presentation import (
    INFINITE,
    BlockKind,
    Genus,
    Rule,
    SurfacePresentation,
    _is_int,
)
from .ends import (
    FRAGMENT_NORMAL_FORM,
    Cantor,
    EndExpr,
    Pt,
    Seq,
    Union,
    Verdict,
    _fold,
    _has_nonplanar,
    _pair_verdict,
    ends_automaton,
    normalize_end_expr,
    validate_end_expr,
)


class ClassVerdict(Enum):
    HOMEOMORPHIC = "Homeomorphic"
    NOT_HOMEOMORPHIC = "NotHomeomorphic"
    UNKNOWN = "Unknown"


# witness names: the invariant that differed, or the fragment that decided
WITNESS_GENUS = "genus"
WITNESS_ENDS = "ends-pair"


class ClassifierVerdict(Record):
    __slots__ = ("verdict", "witness")
    _defaults = {"witness": None}

    def to_json(self) -> dict:
        out: dict = {"verdict": self.verdict.value}
        if self.verdict is not ClassVerdict.HOMEOMORPHIC:
            out["witness"] = self.witness
        return out


def kerekjarto(p1: SurfacePresentation, p2: SurfacePresentation) -> ClassifierVerdict:
    """Homeomorphic iff the genera agree and the ends pairs match.

    A finite genus difference is witnessed directly.  An infinite-vs-finite
    difference always surfaces as an ends-pair difference (genus is infinite
    exactly when non-planar ends exist), so the pair decision carries the
    witness for every remaining case.
    """
    a1, a2 = ends_automaton(p1), ends_automaton(p2)
    g1, g2 = a1.handle_count, a2.handle_count  # the genera, compiled with the automata
    if g1 != INFINITE and g2 != INFINITE and g1 != g2:
        return ClassifierVerdict(ClassVerdict.NOT_HOMEOMORPHIC, WITNESS_GENUS)
    pair, reason = _pair_verdict(a1, a1.handle_closure, a2, a2.handle_closure)
    if pair is Verdict.NO:
        return ClassifierVerdict(ClassVerdict.NOT_HOMEOMORPHIC, WITNESS_ENDS)
    if pair is Verdict.UNKNOWN:
        return ClassifierVerdict(ClassVerdict.UNKNOWN, FRAGMENT_NORMAL_FORM)
    if g1 != g2:
        # only reachable when one side is infinite; the pair said Yes, so
        # both have the same non-planar content: cannot happen
        raise AssertionError("matching ends pairs with differing genus")
    return ClassifierVerdict(ClassVerdict.HOMEOMORPHIC, reason)


def realize(g: Genus, e: EndExpr, name: str = "realized") -> SurfacePresentation:
    """Compile (genus, end expression) into a presentation carrying exactly
    those invariants.

    Raises InconsistentInvariantsError unless the expression contains a
    non-planar point exactly when the genus is infinite.
    """
    validate_end_expr(e)
    e = normalize_end_expr(e)
    nonplanar = _has_nonplanar(e)
    if (g == INFINITE) != nonplanar:
        if nonplanar:
            raise InconsistentInvariantsError(
                f"non-planar ends force infinite genus, got genus {g}"
            )
        raise InconsistentInvariantsError(
            "infinite genus must accumulate toward a non-planar end"
        )
    if g != INFINITE and (not _is_int(g) or g < 0):
        raise InconsistentInvariantsError(f"genus must be a natural or infinite, got {g!r}")

    rules: dict[str, Rule] = {}
    counter = [0]

    def fresh(prefix: str) -> str:
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    def compile_node(x: EndExpr, tips: list[str]) -> str:
        """The state for ``x``, given the states ``tips`` of its children."""
        if isinstance(x, Pt):
            s = fresh("h" if x.nonplanar else "a")
            kind = BlockKind.HANDLE if x.nonplanar else BlockKind.ANNULUS
            rules[s] = (kind, (s,))
            return s
        if isinstance(x, Cantor):
            if not x.nonplanar:
                s = fresh("c")
                rules[s] = (BlockKind.PANTS, (s, s))
                return s
            h, p = fresh("h"), fresh("c")
            rules[h] = (BlockKind.HANDLE, (p,))
            rules[p] = (BlockKind.PANTS, (h, h))
            return h
        if isinstance(x, Seq):
            s = fresh("s")
            if x.limit_nonplanar:
                m = fresh("m")
                rules[s] = (BlockKind.PANTS, (tips[0], m))
                rules[m] = (BlockKind.HANDLE, (s,))
            else:
                rules[s] = (BlockKind.PANTS, (tips[0], s))
            return s
        head = tips.pop()
        while tips:
            s = fresh("u")
            rules[s] = (BlockKind.PANTS, (tips.pop(), head))
            head = s
        return head

    root = _fold(e, compile_node)
    if g != INFINITE:
        for _ in range(g):
            s = fresh("g")
            rules[s] = (BlockKind.HANDLE, (root,))
            root = s
    return SurfacePresentation(name=name, rules=rules, root=root)


def distinct_family(n: int) -> list[SurfacePresentation]:
    """n infinite-type presentations, pairwise NotHomeomorphic.

    The ends spaces have pairwise different cardinalities: one end, a
    Cantor set, a converging sequence, then 4, 5, ... ends.
    """
    if not _is_int(n) or n < 1:
        raise ClassifyError(f"family size must be positive, got {n!r}")
    exprs: list[EndExpr] = [
        Pt(True),
        Cantor(True),
        Seq(Pt(False), True),
    ]
    for k in range(4, n + 1):
        exprs.append(Union(Pt(True), *[Pt(False)] * (k - 1)))
    return [
        realize(INFINITE, e, name=f"family{i}")
        for i, e in enumerate(exprs[:n])
    ]
