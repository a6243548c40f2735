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

from array import array
from collections.abc import Sequence
from enum import Enum

from ._record import Record
from .errors import (
    ComplexityTooLowError,
    DecomposeError,
    OccurrenceInsideCycleError,
    PlaneExcludedError,
    PuncturedTorusExcludedInStrictError,
)
from .presentation import (
    ACYCLIC,
    INFINITE,
    BlockKind,
    EndsAutomaton,
    Rule,
    SurfacePresentation,
    ends_automaton,
    first_occurrences,
    forward,
    regularize,
    _first_paths,
    _from_valid,
    _is_int,
)

Path = tuple[int, ...]


class PieceKind(Enum):
    PANTS = "Pants"
    PUNCTURED_DISK = "PuncturedDisk"
    ONE_HOLED_TORUS = "OneHoledTorus"

    @property
    def slots(self) -> int:
        return 3 if self is PieceKind.PANTS else 1


# a kind code is the index here; other columns are 32-bit (2^31 pieces need some 64 GB)
_KINDS = tuple(PieceKind)
_PANTS, _DISK, _TORUS = range(3)


class Piece(Record):
    __slots__ = ("id", "kind")


# an edge is one decomposition circle: (piece, slot, piece, slot)
Edge = tuple[int, int, int, int]


class _Column(Sequence):
    """A window's tuple of rows as one flat column, ``width`` integers a row
    (the pieces: one kind code a row).  It equals, hashes, prints and pickles
    as that tuple, and builds a row (a tuple or a Piece) only when read."""

    __slots__ = ("flat", "width")

    def __init__(self, flat: bytes | array, width: int) -> None:
        self.flat, self.width = flat, width

    def __len__(self) -> int:
        return len(self.flat) // self.width

    def __iter__(self):
        if self.width == 1:
            return map(Piece, range(len(self.flat)), map(_KINDS.__getitem__, self.flat))
        return zip(*[iter(self.flat)] * self.width)

    def __getitem__(self, i):
        i = range(len(self))[i]
        if not isinstance(i, int):
            return tuple(map(self.__getitem__, i))
        w = self.width
        return Piece(i, _KINDS[self.flat[i]]) if w == 1 else tuple(self.flat[i * w:i * w + w])

    def __eq__(self, other: object) -> bool:
        if type(other) is _Column and other.width == self.width:
            return self.flat == other.flat
        return tuple(self) == other if isinstance(other, (tuple, _Column)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):  # any pickle protocol, as for a tuple
        return _Column, (self.flat, self.width)


class DecompositionGraph(Record):
    # open_slots are the (piece, slot) pairs awaiting pieces beyond the window
    __slots__ = ("mode", "depth", "pieces", "edges", "open_slots", "complete")

    def _check(self) -> None:
        # a window built from tuples is packed as decompose packs its own
        for store, name, width in zip(self._stores[2:5], self.__slots__[2:5], (1, 4, 2)):
            if type(rows := getattr(self, name)) is not _Column:
                rows = tuple(rows)
                column = _Column(bytes(_KINDS.index(p.kind) for p in rows) if width == 1
                                 else array("i", [v for row in rows for v in row]), width)
                if column != rows:
                    held = "pieces numbered 0, 1, ..." if width == 1 else f"{width} integers a row"
                    raise DecomposeError(f"{name} must hold {held}, got {rows!r}")
                store(self, column)

    def census(self) -> dict[str, int]:
        codes = self.pieces.flat
        out = {"pants": codes.count(_PANTS), "punctured_disks": codes.count(_DISK)}
        if tori := codes.count(_TORUS):
            out["one_holed_tori"] = tori
        return out

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "depth": self.depth,
            "complete": self.complete,
            "pieces": [{"id": i, "kind": _KINDS[c].value} for i, c in enumerate(self.pieces.flat)],
            "edges": list(map(list, self.edges)),
            "open_slots": list(map(list, self.open_slots)),
            "census": self.census(),
        }


def decomposition_to_dot(g: DecompositionGraph) -> str:
    lines = ["graph decomposition {"]
    lines += [f'  p{i} [label="{_KINDS[c].value} {i}"];' for i, c in enumerate(g.pieces.flat)]
    lines += [f'  p{a} -- p{b} [taillabel="{sa}", headlabel="{sb}"];' for a, sa, b, sb in g.edges]
    lines += [f"  // open: p{pid} slot {slot}" for pid, slot in g.open_slots]
    return "\n".join(lines + ["}"])


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

    The walk keeps a kind code a piece, and flat lists of four integers an
    edge and of (piece, slot, state beyond) a queued slot.

    Every edge runs from an older piece to a newer one.  So with
    ``n = min(depth, pieces)``, an edge is kept exactly when its newer end
    is below n; the open slots are the older ends of the edges crossing n,
    in edge order, then the queued slots below n; and the window is
    complete when the queue is empty and no piece was cut.

    Only the last five edges need that test.  Each edge's newer end is a
    piece made by the step that made the edge, and a piece at or past n
    comes from the last loop step, since each loop step starts below depth,
    or from the root's first step when no loop step ran.  The root's first
    step makes at most five edges and a loop step at most three, so every
    edge crossing n or past it is among the last five.

    The constructor validated the system, so the walk reads the rules
    unchecked.
    """
    if mode not in ("lenient", "strict"):
        raise DecomposeError(f"mode must be 'lenient' or 'strict', got {mode!r}")
    if not _is_int(depth):
        raise DecomposeError(f"depth must be an integer, got {depth!r}")
    if depth < 0:
        raise DecomposeError(f"depth must be non-negative, got {depth}")
    pres = regularize(pres)
    kinds, edges, queue = bytearray(), [], []
    # each walked state's block past its annulus run: None where the run
    # closes a lasso (a punctured disk), else the Handle's or the Pants' children
    steps: dict[str, tuple[str, ...] | None] = {}

    def walk_run(state: str) -> tuple[str, ...] | None:
        run = []  # each run is walked once
        while state not in steps:
            kind, children = pres.rules[state]
            if kind is not BlockKind.ANNULUS:
                steps[state] = children
                break
            steps[state] = None  # until the run's end is found, so a lasso meets None
            run.append(state)
            state = children[0]
        end = steps[state]
        for s in run:
            steps[s] = end
        return end

    def make(step) -> int:  # the root step's piece(s) for a block, glued by the caller at slot 0
        pid = len(kinds)
        if step is None:
            kinds.append(_DISK)
        elif len(step) == 2:
            kinds.append(_PANTS)
            queue.extend((pid, 1, step[0], pid, 2, step[1]))
        else:  # a Handle: two pants glued along two circles, the walk going on at step[0]
            kinds.extend(b"\0\0")
            edges.extend((pid, 1, pid + 1, 0, pid, 2, pid + 1, 1))
            queue.extend((pid + 1, 2, step[0]))
        return pid

    root = walk_run(pres.root)
    if root is None:
        raise PlaneExcludedError("the plane admits no decomposition")
    if len(root) == 2:
        make(walk_run(root[0]))
        edges.extend((0, 0, make(walk_run(root[1])), 0))
    else:
        nxt = walk_run(root[0])
        if nxt is None:
            if mode == "strict":
                raise PuncturedTorusExcludedInStrictError(
                    "the punctured torus needs a one-holed torus piece"
                )
            kinds.extend((_TORUS, _DISK))
            edges.extend((0, 0, 1, 0))
        elif len(nxt) == 2:
            make(walk_run(nxt[1]))
            edges.extend((0, 0, make(nxt[:1]), 0))
        else:
            kinds.extend(b"\0\0\0")
            edges.extend((0, 0, 1, 0, 0, 1, 1, 1, 0, 2, 2, 0, 1, 2, 2, 1))
            queue.extend((2, 2, nxt[0]))
    pid = len(kinds)
    walked = iter(queue)  # the loop appends to the queue it walks
    if pid < depth:
        for a, sa, state in zip(walked, walked, walked):  # make, inlined, glued to (a, sa)
            try:
                step = steps[state]
            except KeyError:
                step = walk_run(state)
            if step is None:
                kinds.append(_DISK)
                edges += (a, sa, pid, 0)
                pid += 1
            elif len(step) == 2:
                kinds.append(_PANTS)
                edges += (a, sa, pid, 0)
                queue += (pid, 1, step[0], pid, 2, step[1])
                pid += 1
            else:
                kinds += b"\0\0"
                edges += (pid, 1, pid + 1, 0, pid, 2, pid + 1, 1, a, sa, pid, 0)
                queue += (pid + 1, 2, step[0])
                pid += 2
            if pid >= depth:
                break
    del queue[:len(queue) - walked.__length_hint__()]  # the slots still queued
    n = min(depth, pid)
    tail = [edges[i:i + 4] for i in range(max(0, len(edges) - 20), len(edges), 4)]
    del edges[-20:]
    edges += [v for e in tail if e[2] < n for v in e]
    opened = [v for a, sa, b, _ in tail if a < n <= b for v in (a, sa)]
    opened += [v for i in range(0, len(queue), 3) if queue[i] < n for v in queue[i:i + 2]]
    return DecompositionGraph(
        mode, depth, _Column(bytes(kinds[:n]), 1), _Column(array("i", edges), 4),
        _Column(array("i", opened), 2), not queue and n == pid,
    )


# -- interchange -----------------------------------------------------------

def _first_path_of(pres: SurfacePresentation, name: str, auto: EndsAutomaton) -> Path:
    """First unfolding path of state ``name``, which must occur finitely
    often: a state that a rule-graph cycle reaches recurs without end."""
    if name not in pres.rules:
        raise DecomposeError(f"unknown or unreachable state {name!r}")
    cyclic = [s for c, shape in zip(auto.components, auto.shapes) if shape != ACYCLIC for s in c]
    if auto.names.index(name) in forward(auto.transitions, cyclic):
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
    spliced in place and hands its second child's subtree to the front.
    The result is valid by construction, so it skips the constructor's walk."""
    # the front paths as one trie of unfolding nodes: its states and slot -> node
    states = [pres.root]
    below: list[dict[int, int]] = [{}]
    ends: list[int] = []
    named = any(isinstance(occ, str) for occ in front)
    auto = ends_automaton(pres) if named else None
    for occ in front:
        if isinstance(occ, str):
            path = _first_path_of(pres, occ, auto)
        elif isinstance(occ, (tuple, list)) and all(map(_is_int, occ)):
            path = tuple(occ)
        else:
            raise DecomposeError(f"invalid unfolding path {occ!r}: a path is a tuple of naturals")
        node = 0
        for step, i in enumerate(path):
            children = pres.rules[states[node]][1]
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
        kind, children = pres.rules[states[node]]
        unrolled[name_of[node]] = (kind, [
            name_of[below[node][i]] if i in below[node] else child
            for i, child in enumerate(children)
        ])
    pulled = {name_of[node] for node in ends}

    def spliced(ptr: str) -> str:
        while ptr in pulled:
            ptr = unrolled[ptr][1][0]
        return ptr

    kinds = [pres.rules[states[node]][0] for node in ends]
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
    return _from_valid(pres.name, {s: r for s, r in rules.items() if s in reachable}, root)


def interchange_normalize(
    pres: SurfacePresentation,
    front: Sequence[Path | str],
) -> SurfacePresentation:
    """Rearrange the unfolding so the listed occurrences come right after
    the initial disk, in order; the surface is unchanged up to
    homeomorphism.

    Occurrences are unfolding paths (tuples of child indices), or state
    names for states occurring only in the finite prefix before any cycle;
    any other entry raises DecomposeError.
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
    auto = ends_automaton(pres)  # kept on the presentation given, a triple too
    pres = regularize(pres)
    h, p = auto.handle_count, auto.pants_count
    rank = INFINITE if INFINITE in (h, p) else 2 * h + p
    closures = zip(auto.components, auto.handle_closure, auto.pants_closure)
    core = frozenset(auto.names[s] for c, hc, pc in closures if hc or pc for s in c)
    return SpineGraph(presentation=pres, rank=rank, core_states=core, automaton=auto)


def spine_to_dot(g: SpineGraph) -> str:
    rules = g.presentation.rules
    lines = ["digraph spine {"]
    for s in sorted(rules):
        shape = "doublecircle" if s in g.core_states else "circle"
        lines.append(f'  "{s}" [label="{s}:{rules[s][0].value}", shape={shape}];')
    for s in sorted(rules):
        lines.extend(f'  "{s}" -> "{c}";' for c in rules[s][1])
    lines.append("}")
    return "\n".join(lines)


def graph_phe_equal(g1: SpineGraph, g2: SpineGraph) -> "Verdict":
    """Proper-homotopy comparison: equal rank plus a homeomorphism of ends
    spaces carrying core ends to core ends."""
    from .ends import Verdict, _pair_verdict  # only this comparison needs the ends layer

    if g1.rank != g2.rank:
        return Verdict.NO
    # a core is closed under predecessors, so it is its own closure: one test per component
    core_a, core_b = ([g.automaton.names[c[0]] in g.core_states for c in g.automaton.components]
                      for g in (g1, g2))
    verdict, _ = _pair_verdict(g1.automaton, core_a, g2.automaton, core_b)
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
    g: DecompositionGraph, removed: int, around: list[list[int]]
) -> list[ComponentCensus]:
    """The components of the window without piece ``removed``, by least
    piece id; ``around`` lists each piece's neighbours.  Every piece but the
    first is glued to an older one, so the window is connected and each
    component holds a neighbour of ``removed``."""
    open_pids = set(g.open_slots.flat[0::2])
    seen = {removed}
    comps = []
    for start in around[removed]:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for pid in comp:  # grows while it is walked
            for other in around[pid]:
                if other not in seen:
                    seen.add(other)
                    comp.append(other)
        comps.append(comp)
    comps.sort(key=min)
    out: list[ComponentCensus] = []
    for comp in comps:
        kinds = bytes(map(g.pieces.flat.__getitem__, comp))
        pants, tori = kinds.count(_PANTS), kinds.count(_TORUS)
        disks, exact = len(comp) - pants - tori, open_pids.isdisjoint(comp)
        out.append(ComponentCensus(pants, disks, tori, 1 + pants + tori, exact))
    return out


def find_essential_pants(pres: SurfacePresentation) -> EssentialPants:
    """A pants piece whose removal leaves at least two components, all of
    non-abelian fundamental group (spine rank at least 2); verified by
    census, never trusted from the construction.

    Needs high complexity: infinite type, or finite type (g,0,p) with
    g+p >= 4 or p >= 6; genus-0 surfaces additionally need p >= 6.
    """
    auto = ends_automaton(pres)  # kept on the presentation given, a triple too
    pres = regularize(pres)
    # each Pants occurrence splits one end in two, so p = 1 + their count;
    # an INFINITE genus or p passes both checks
    g, p = auto.handle_count, 1 + auto.pants_count
    if not (p >= 6 or g + p >= 4):  # p < 6 first: g + p overflows past 2**1024
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
    codes, flat = window.pieces.flat, window.edges.flat
    around: list[list[int]] = [[] for _ in codes]
    for a, b in zip(flat[0::4], flat[2::4]):
        around[a].append(b)
        around[b].append(a)
    for pid, code in enumerate(codes):
        if code != _PANTS:
            continue
        comps = _complement_census(window, pid, around)
        if len(comps) >= 2 and all(c.rank_lower_bound >= 2 for c in comps):
            return EssentialPants(pid, tuple(comps), window)
    raise AssertionError("no essential pants found despite complexity bounds")
