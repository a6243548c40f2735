"""Cutting a presented surface into standard compact pieces.

Every admissible surface decomposes along circles into pairs of pants,
punctured disks, and (for the punctured torus only) a one-holed torus.
The dual picture is what this module computes: pieces are vertices, each
decomposition circle is an edge joining two boundary slots.  The rewrite
follows the presentation's unfolding: annulus runs dissolve, a pure
annulus lasso closes off a punctured disk, every Handle visit splits into
two pants glued along two circles, and the initial disk is absorbed into
the first block (with a Handle-run first, the disk and two Handles fuse
into three pants).

Also here: interchange normalization (pull chosen block occurrences to
the front of the unfolding, preserving the homeomorphism type), spine
graphs with their rank and core, the graph-level proper-homotopy
comparison, and the essential-pants search.
"""

from collections import Counter, deque
from enum import Enum
from typing import Sequence

from ._record import Record
from .errors import (
    ComplexityTooLowError,
    DecomposeError,
    OccurrenceInsideCycleError,
    PlaneExcludedError,
    PuncturedTorusExcludedInStrictError,
)
from .presentation import (
    BlockKind,
    Rule,
    SurfacePresentation,
    backward,
    ends_automaton,
    first_occurrences,
    forward,
    genus,
    regularize,
    states_after_cycles,
    _first_paths,
    _occurrences,
    _pants,
)

Path = tuple[int, ...]


class PieceKind(Enum):
    PANTS = "Pants"
    PUNCTURED_DISK = "PuncturedDisk"
    ONE_HOLED_TORUS = "OneHoledTorus"

    @property
    def slots(self) -> int:
        return 3 if self is PieceKind.PANTS else 1


class Piece(Record):
    __slots__ = ("id", "kind")

    def __init__(self, id: int, kind: PieceKind) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "kind", kind)


# an edge is one decomposition circle: (piece, slot, piece, slot)
Edge = tuple[int, int, int, int]


class DecompositionGraph(Record):
    # open_slots are the (piece, slot) pairs awaiting pieces beyond the window
    __slots__ = ("mode", "depth", "pieces", "edges", "open_slots", "complete")

    def census(self) -> dict[str, int]:
        counts = Counter(p.kind for p in self.pieces)
        out = {
            "pants": counts[PieceKind.PANTS],
            "punctured_disks": counts[PieceKind.PUNCTURED_DISK],
        }
        if counts[PieceKind.ONE_HOLED_TORUS]:
            out["one_holed_tori"] = counts[PieceKind.ONE_HOLED_TORUS]
        return out

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "depth": self.depth,
            "complete": self.complete,
            "pieces": [{"id": p.id, "kind": p.kind.value} for p in self.pieces],
            "edges": [list(e) for e in self.edges],
            "open_slots": [list(s) for s in self.open_slots],
            "census": self.census(),
        }


def decomposition_to_dot(g: DecompositionGraph) -> str:
    lines = ["graph decomposition {"]
    for p in g.pieces:
        lines.append(f'  p{p.id} [label="{p.kind.value} {p.id}"];')
    for a, sa, b, sb in g.edges:
        lines.append(f'  p{a} -- p{b} [taillabel="{sa}", headlabel="{sb}"];')
    for pid, slot in g.open_slots:
        lines.append(f'  // open: p{pid} slot {slot}')
    lines.append("}")
    return "\n".join(lines)


def decompose(
    pres: SurfacePresentation, mode: str = "lenient", depth: int = 8
) -> DecompositionGraph:
    """Depth-n window of the decomposition (the first n pieces, with the
    edges and open slots among them), cut by one walk with no rebuild.

    Every rule state is reachable, so the first step sees the plane (the
    root's run closes an annulus lasso; excluded in both modes) and the
    punctured torus (annuli, one Handle, an annulus lasso; leniently a
    one-holed torus and a punctured disk).  A root Handle-run then a Pants
    ``P(c1, c2)`` is walked as the interchange pulling that Pants (the
    first one, as the unfolding up to it is one path) to the front: the
    root ``P(c2, rest)``, where ``rest`` meets the Handle and goes on at
    ``c1``.  So piece ids, edge and queue order match the rebuilt window.

    Every edge runs from an older piece to a newer one.  So with
    ``n = min(depth, pieces)``, an edge is kept exactly when its newer end
    is below n; the open slots are the older ends of the edges crossing n,
    in edge order, then the queued slots below n; and the window is
    complete when the queue is empty and no piece was cut.
    """
    if mode not in ("lenient", "strict"):
        raise DecomposeError(f"mode must be 'lenient' or 'strict', got {mode!r}")
    if depth < 0:
        raise DecomposeError(f"depth must be non-negative, got {depth}")
    pres = regularize(pres)
    assert pres.root is not None
    pieces: list[Piece] = []
    edges: list[Edge] = []
    queue: deque[tuple[int, int, str]] = deque()
    exits: dict[str, str | None] = {}  # the run exit of each annulus state walked

    def new_piece(kind: PieceKind) -> int:
        pieces.append(Piece(len(pieces), kind))
        return len(pieces) - 1

    def skip_annuli(state: str) -> str | None:
        # None means the run closes a pure-annulus lasso; each run is walked once
        run = []
        while pres.kind(state) is BlockKind.ANNULUS and state not in exits:
            exits[state] = None  # until the exit is found, so a lasso meets None
            run.append(state)
            state = pres.children(state)[0]
        end = exits.get(state, state)
        for s in run:
            exits[s] = end
        return end

    def handle(then: str) -> int:
        # a Handle visit: two pants glued along two circles, the walk going on at ``then``
        pa = new_piece(PieceKind.PANTS)
        pb = new_piece(PieceKind.PANTS)
        edges.append((pa, 1, pb, 0))
        edges.append((pa, 2, pb, 1))
        queue.append((pb, 2, then))
        return pa

    def resolve(state: str) -> int:
        # the piece the circle into ``state`` bounds, always at its slot 0
        s = skip_annuli(state)
        if s is None:
            return new_piece(PieceKind.PUNCTURED_DISK)
        if pres.kind(s) is BlockKind.HANDLE:
            return handle(pres.children(s)[0])
        pid = new_piece(PieceKind.PANTS)
        c1, c2 = pres.children(s)
        queue.append((pid, 1, c1))
        queue.append((pid, 2, c2))
        return pid

    root = skip_annuli(pres.root)
    if root is None:
        raise PlaneExcludedError("the plane admits no decomposition")
    if pres.kind(root) is BlockKind.PANTS:
        c1, c2 = pres.children(root)
        left = resolve(c1)
        edges.append((left, 0, resolve(c2), 0))
    else:
        nxt = skip_annuli(pres.children(root)[0])
        if nxt is None:
            if mode == "strict":
                raise PuncturedTorusExcludedInStrictError(
                    "the punctured torus needs a one-holed torus piece"
                )
            torus = new_piece(PieceKind.ONE_HOLED_TORUS)
            edges.append((torus, 0, new_piece(PieceKind.PUNCTURED_DISK), 0))
        elif pres.kind(nxt) is BlockKind.PANTS:
            c1, c2 = pres.children(nxt)
            left = resolve(c2)
            edges.append((left, 0, handle(c1), 0))
        else:
            p1 = new_piece(PieceKind.PANTS)
            p2 = new_piece(PieceKind.PANTS)
            p3 = new_piece(PieceKind.PANTS)
            edges.extend([(p1, 0, p2, 0), (p1, 1, p2, 1), (p1, 2, p3, 0), (p2, 2, p3, 1)])
            queue.append((p3, 2, pres.children(nxt)[0]))
    while queue and len(pieces) < depth:
        pid, slot, state = queue.popleft()
        edges.append((pid, slot, resolve(state), 0))
    n = min(depth, len(pieces))
    opened = [(a, sa) for a, sa, b, _ in edges if a < n <= b]
    opened.extend((pid, slot) for pid, slot, _ in queue if pid < n)
    return DecompositionGraph(
        mode=mode,
        depth=depth,
        pieces=tuple(pieces[:n]),
        edges=tuple(e for e in edges if e[2] < n),
        open_slots=tuple(opened),
        complete=not queue and n == len(pieces),
    )


# -- interchange -----------------------------------------------------------

def _first_path_of(pres: SurfacePresentation, name: str, after: set[str]) -> Path:
    """First unfolding path of state ``name``; ``after`` holds the states
    on or after a rule-graph cycle, which recur without end."""
    if name not in pres.rules:
        raise DecomposeError(f"unknown or unreachable state {name!r}")
    if name in after:
        raise OccurrenceInsideCycleError(
            f"state {name!r} recurs inside a cycle; address one occurrence by path"
        )
    return _first_paths(pres, {name}, 1)[0]


def _rebuild(
    pres: SurfacePresentation,
    front: Sequence[Path | str],
    wiring: str,
) -> SurfacePresentation:
    """Pull the block occurrences in ``front`` (paths or state names) out
    of the unfolding and re-attach them as a fresh front ('chain' in order,
    or the fixed five pants 'tree5').  A pulled Pants keeps its first child
    spliced in place and hands its second child's subtree to the front."""
    assert pres.rules is not None and pres.root is not None
    # the front paths as one trie of unfolding nodes: its states and slot -> node
    states = [pres.root]
    below: list[dict[int, int]] = [{}]
    ends: list[int] = []
    named = any(isinstance(occ, str) for occ in front)
    after = states_after_cycles(pres) if named else set()
    for occ in front:
        path = _first_path_of(pres, occ, after) if isinstance(occ, str) else tuple(occ)
        node = 0
        for step, i in enumerate(path):
            children = pres.children(states[node])
            if not 0 <= i < len(children):
                raise DecomposeError(f"invalid unfolding path {path!r}: index {i} at step {step}")
            if i not in below[node]:
                below[node][i] = len(states)
                states.append(children[i])
                below.append({})
            node = below[node][i]
        ends.append(node)
    if len(set(ends)) != len(ends):
        raise DecomposeError("duplicate occurrence in front list")
    taken = set(pres.rules)

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name += "_"
        taken.add(name)
        return name

    order = [0]
    for node in order:  # grows while it is walked
        order.extend(below[node][i] for i in sorted(below[node]))
    name_of = {node: fresh(f"u{k}") for k, node in enumerate(order)}
    unrolled: dict[str, tuple[BlockKind, list[str]]] = {}
    for node in order:
        state = states[node]
        unrolled[name_of[node]] = (pres.kind(state), [
            name_of[below[node][i]] if i in below[node] else child
            for i, child in enumerate(pres.children(state))
        ])
    pulled = {name_of[node] for node in ends}

    def spliced(ptr: str) -> str:
        while ptr in pulled:
            ptr = unrolled[ptr][1][0]
        return ptr

    kinds = [pres.kind(states[node]) for node in ends]
    sides = [
        spliced(unrolled[name_of[node]][1][1])
        for node, kind in zip(ends, kinds)
        if kind is BlockKind.PANTS
    ]
    remainder = spliced(name_of[0])
    rules: dict[str, Rule] = dict(pres.rules)
    for name, (kind, ptrs) in unrolled.items():
        if name not in pulled:
            rules[name] = (kind, tuple(spliced(q) for q in ptrs))
    if wiring == "chain":
        fronts = [fresh(f"f{i + 1}") for i in range(len(ends))]
        side_iter = iter(sides)
        for i, kind in enumerate(kinds):
            nxt = fronts[i + 1] if i + 1 < len(fronts) else remainder
            if kind is BlockKind.PANTS:
                rules[fronts[i]] = (BlockKind.PANTS, (next(side_iter), nxt))
            else:
                rules[fronts[i]] = (kind, (nxt,))
        root = fronts[0] if fronts else remainder
    else:
        assert wiring == "tree5" and len(ends) == 5 and len(sides) == 5, "tree5 pulls five pants"
        f = [fresh(f"f{i + 1}") for i in range(5)]
        rules[f[0]] = (BlockKind.PANTS, (f[1], f[2]))
        rules[f[1]] = (BlockKind.PANTS, (f[3], f[4]))
        rules[f[2]] = (BlockKind.PANTS, (sides[0], sides[1]))
        rules[f[3]] = (BlockKind.PANTS, (sides[2], sides[3]))
        rules[f[4]] = (BlockKind.PANTS, (sides[4], remainder))
        root = f[0]
    reachable = set(forward({s: r[1] for s, r in rules.items()}, [root]))
    rules = {s: r for s, r in rules.items() if s in reachable}
    return SurfacePresentation(name=pres.name, rules=rules, root=root)


def interchange_normalize(
    pres: SurfacePresentation,
    front: Sequence[Path | str],
) -> SurfacePresentation:
    """Rearrange the unfolding so the listed occurrences come right after
    the initial disk, in order; the surface is unchanged up to
    homeomorphism.

    Occurrences are unfolding paths (tuples of child indices), or state
    names for states occurring only in the finite prefix before any cycle.
    """
    pres = regularize(pres)
    if not front:
        return pres
    return _rebuild(pres, front, "chain")


# -- spine graphs ----------------------------------------------------------

class SpineGraph(Record):
    """Deformation-retract graph of the surface: each Pants visit donates
    one independent loop, each Handle visit two.  core_states span the
    smallest subgraph carrying all loops (X_g); automaton is the
    presentation's."""

    __slots__ = ("presentation", "rank", "core_states", "automaton")


def spine(pres: SurfacePresentation) -> SpineGraph:
    pres = regularize(pres)
    auto = ends_automaton(pres)
    handles = auto.nonplanar_states
    pants = _pants(auto)
    rank = 2 * _occurrences(auto, handles) + _occurrences(auto, pants)
    core = backward(auto.transitions, handles | pants)
    return SpineGraph(presentation=pres, rank=rank, core_states=frozenset(core), automaton=auto)


def spine_to_dot(g: SpineGraph) -> str:
    pres = g.presentation
    lines = ["digraph spine {"]
    for s in pres.states():
        shape = "doublecircle" if s in g.core_states else "circle"
        lines.append(f'  "{s}" [label="{s}:{pres.kind(s).value}", shape={shape}];')
    for s in pres.states():
        for c in pres.children(s):
            lines.append(f'  "{s}" -> "{c}";')
    lines.append("}")
    return "\n".join(lines)


def graph_phe_equal(g1: SpineGraph, g2: SpineGraph) -> "Verdict":
    """Proper-homotopy comparison: equal rank plus a homeomorphism of ends
    spaces carrying core ends to core ends."""
    from .ends import Verdict, _pair_verdict  # only this comparison needs the ends layer

    if g1.rank != g2.rank:
        return Verdict.NO
    verdict, _ = _pair_verdict(g1.automaton, g1.core_states, g2.automaton, g2.core_states)
    return verdict


# -- essential pants -------------------------------------------------------

class ComponentCensus(Record):
    __slots__ = ("pants", "punctured_disks", "one_holed_tori", "rank_lower_bound", "exact")

    def to_json(self) -> dict:
        return {
            "pants": self.pants,
            "punctured_disks": self.punctured_disks,
            "one_holed_tori": self.one_holed_tori,
            "rank_at_least": self.rank_lower_bound,
            "exact": self.exact,
        }


class EssentialPants(Record):
    __slots__ = ("pants_id", "components", "window")

    def to_json(self) -> dict:
        return {
            "pants_id": self.pants_id,
            "components": [c.to_json() for c in self.components],
            "census": self.window.census(),
        }


def _complement_census(
    g: DecompositionGraph, removed: int
) -> list[ComponentCensus]:
    open_pids = {pid for pid, _ in g.open_slots}
    adjacency: dict[int, set[int]] = {
        p.id: set() for p in g.pieces if p.id != removed
    }
    for a, _, b, _ in g.edges:
        if removed not in (a, b):
            adjacency[a].add(b)
            adjacency[b].add(a)
    kind_of = {p.id: p.kind for p in g.pieces}
    seen: set[int] = set()
    out: list[ComponentCensus] = []
    for start in adjacency:
        if start in seen:
            continue
        comp = set(forward(adjacency, [start]))
        seen |= comp
        pants = sum(1 for pid in comp if kind_of[pid] is PieceKind.PANTS)
        tori = sum(1 for pid in comp if kind_of[pid] is PieceKind.ONE_HOLED_TORUS)
        pds = len(comp) - pants - tori
        out.append(ComponentCensus(
            pants=pants,
            punctured_disks=pds,
            one_holed_tori=tori,
            rank_lower_bound=1 + pants + tori,
            exact=not (comp & open_pids),
        ))
    return out


def find_essential_pants(pres: SurfacePresentation) -> EssentialPants:
    """A pants piece whose removal leaves at least two components, all of
    non-abelian fundamental group (spine rank at least 2); verified by
    census, never trusted from the construction.

    Needs high complexity: infinite type, or finite type (g,0,p) with
    g+p >= 4 or p >= 6; genus-0 surfaces additionally need p >= 6.
    """
    pres = regularize(pres)
    auto = ends_automaton(pres)
    # each Pants occurrence splits one end in two, so p = 1 + their count;
    # an INFINITE genus or p passes both checks
    g, p = genus(auto), 1 + _occurrences(auto, _pants(auto))
    if not (g + p >= 4 or p >= 6):
        raise ComplexityTooLowError(
            f"complexity too low: g+p = {g + p} < 4 and p = {p} < 6"
        )
    if g == 0 and p < 6:
        raise ComplexityTooLowError(
            f"genus 0 needs at least six ends: p = {p} < 6 "
            "(every pants leaves a component of abelian fundamental group)"
        )
    if g >= 2:
        prepped = _rebuild(
            pres, first_occurrences(pres, BlockKind.HANDLE, 2), "chain"
        )
    elif g == 1 and p < 6:
        prepped = pres
    else:
        prepped = _rebuild(
            pres, first_occurrences(pres, BlockKind.PANTS, 5), "tree5"
        )
    window = decompose(prepped, "strict", depth=64)
    for piece in window.pieces:
        if piece.kind is not PieceKind.PANTS:
            continue
        comps = _complement_census(window, piece.id)
        if len(comps) >= 2 and all(c.rank_lower_bound >= 2 for c in comps):
            return EssentialPants(piece.id, tuple(comps), window)
    raise AssertionError("no essential pants found despite complexity bounds")
