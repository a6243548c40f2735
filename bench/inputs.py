"""Seeded input generators whose expected answers follow from how they are built.

Nothing here asks endkit's classifier for an answer: every expected value is a
closed form of the construction (families), or a label fixed by the move that
made a pair (homeomorphism-preserving moves give Yes, a changed finite genus or
finite end count gives No).
"""

from __future__ import annotations

import cmath
import random

from endkit import (
    HOMEO,
    PLUS_MINUS_ONE,
    UNKNOWN,
    ZERO,
    BlockKind,
    Cantor,
    Component,
    ComponentKind,
    CurveConfig,
    Degree,
    MapDescriptor,
    NotConvertibleError,
    Other,
    Pt,
    Seq,
    SurfacePresentation,
    Union,
    ends_automaton,
    genus,
    interchange_normalize,
    pretty_print,
    realize,
    splice_annulus,
    standard_presentation,
    to_end_expr,
)

A, P, H = BlockKind.ANNULUS, BlockKind.PANTS, BlockKind.HANDLE

LOCH = "surface loch_ness { root = H(root) }"
FLUTE = "surface flute { root = P(root, punc); punc = A(punc) }"
CANTOR = "surface cantor { root = P(root, root) }"
MIXED = "surface m1 { a = P(a, b); b = P(a, c); c = A(c) }"
MIXED_SWAPPED = "surface m2 { a = P(b, a); b = P(a, c); c = A(c) }"


# -- renaming and growing --------------------------------------------------

def rename(pres: SurfacePresentation, rng: random.Random) -> SurfacePresentation:
    """The same rule system under fresh state names ``q<k>`` in shuffled rule
    order; the surface is unchanged."""
    states = list(pres.rules)
    rng.shuffle(states)
    new = {s: f"q{i}" for i, s in enumerate(states)}
    rules = {
        new[s]: (pres.rules[s][0], tuple(new[c] for c in pres.rules[s][1]))
        for s in states
    }
    return SurfacePresentation(name=pres.name, rules=rules, root=new[pres.root])


def grow(pres: SurfacePresentation, target: int, rng: random.Random) -> SurfacePresentation:
    """Splice annuli on random child edges until ``target`` states exist."""
    while len(pres.rules) < target:
        state = rng.choice(list(pres.rules))
        slot = rng.randrange(len(pres.rules[state][1]))
        pres = splice_annulus(pres, state, slot)
    return pres


def random_core(rng: random.Random, kinds=(A, P, H), max_states: int = 6) -> SurfacePresentation:
    """Random rule system of at most ``max_states`` states, pruned to the
    states reachable from the root (the acceptance tests' distribution)."""
    names = [f"s{i}" for i in range(rng.randint(1, max_states))]
    rules = {}
    for name in names:
        kind = rng.choice(kinds)
        arity = 2 if kind is P else 1
        rules[name] = (kind, tuple(rng.choice(names) for _ in range(arity)))
    reachable = {"s0"}
    todo = ["s0"]
    while todo:
        for child in rules[todo.pop()][1]:
            if child not in reachable:
                reachable.add(child)
                todo.append(child)
    return SurfacePresentation(
        name="core", rules={s: r for s, r in rules.items() if s in reachable}, root="s0"
    )


def with_handle_on_top(pres: SurfacePresentation) -> SurfacePresentation:
    """One Handle block before the root: genus + 1 when the genus is finite."""
    top = "top"
    while top in pres.rules:
        top += "_"
    rules = {top: (H, (pres.root,)), **pres.rules}
    return SurfacePresentation(name=pres.name, rules=rules, root=top)


# -- classify-corpus pairs -------------------------------------------------

YES, NO, OPEN = "Yes", "No", "open"

# One lap of pair kinds: half Yes moves, a quarter No constructions, a
# quarter unlabelled random pairs.
PAIR_KINDS = ("rename", "splice", "interchange", "realize", "genus", "ends", "random", "random")
SIZES = tuple(range(10, 61, 5))


def _grown_core(rng: random.Random, size: int, kinds=(A, P, H)) -> SurfacePresentation:
    return grow(random_core(rng, kinds), size, rng)


def classify_pair(rng: random.Random, kind: str, size: int, tr) -> tuple[str, str, str]:
    """(text_a, text_b, label) for one pair kind, both sides near ``size`` states.
    ``tr`` times the moves that are public calls of other layers."""
    if kind == "genus":
        base = _grown_core(rng, size, kinds=(A, P))  # genus 0 by construction
        top = with_handle_on_top(base)
        return pretty_print(rename(base, rng)), pretty_print(rename(top, rng)), NO
    if kind == "ends":
        g, p = rng.randint(0, 3), rng.randint(1, 5)
        other = (g + 1, p) if rng.random() < 0.5 else (g, p + 1)
        a = grow(standard_presentation(g, p), size, rng)
        b = grow(standard_presentation(*other), size, rng)
        return pretty_print(rename(a, rng)), pretty_print(rename(b, rng)), NO
    base = _grown_core(rng, size)
    if kind == "random":
        other = _grown_core(rng, size)
        return pretty_print(rename(base, rng)), pretty_print(rename(other, rng)), OPEN
    moved = base
    if kind == "splice":
        state = rng.choice(list(base.rules))
        moved = splice_annulus(base, state, rng.randrange(len(base.rules[state][1])))
    elif kind == "interchange":
        paths = [path for path, _ in base.unfold(max_nodes=30)]
        front = rng.sample(paths, k=rng.randint(1, min(3, len(paths))))
        with tr.span("decompose.interchange"):
            moved = interchange_normalize(base, front)
    elif kind == "realize":
        try:
            g, expr = genus(base), to_end_expr(ends_automaton(base))
        except NotConvertibleError:
            pass  # no expression to realize: the pair stays a renaming
        else:
            with tr.span("classify.realize"):
                moved = realize(g, expr)
    return pretty_print(rename(base, rng)), pretty_print(rename(moved, rng)), YES


# -- deep-invariants families ----------------------------------------------

def chain(states: int) -> SurfacePresentation:
    """Annulus chain ending in a Loch Ness tail."""
    rules = {f"a{i}": (A, (f"a{i + 1}" if i < states - 2 else "tail",)) for i in range(states - 1)}
    rules["tail"] = (H, ("tail",))
    return SurfacePresentation(name="chain", rules=rules, root="a0")


def comb(states: int) -> SurfacePresentation:
    """Comb of k = (states - 1) // 2 pants with puncture teeth."""
    k = (states - 1) // 2
    rules = {f"p{i}": (P, (f"t{i}", f"p{i + 1}" if i < k - 1 else f"t{k}")) for i in range(k)}
    rules.update({f"t{i}": (A, (f"t{i}",)) for i in range(k + 1)})
    return SurfacePresentation(name="comb", rules=rules, root="p0")


def cantor_marked(states: int) -> SurfacePresentation:
    """Pants spine of planar Cantor teeth ending in a genus-marked Cantor set."""
    k = (states - 2) // 2
    rules = {}
    for i in range(k):
        rules[f"s{i}"] = (P, (f"c{i}", f"s{i + 1}" if i < k - 1 else "h"))
        rules[f"c{i}"] = (P, (f"c{i}", f"c{i}"))
    rules["h"] = (H, ("q",))
    rules["q"] = (P, ("h", "h"))
    return SurfacePresentation(name="cantor_marked", rules=rules, root="s0")


def seq_expr(levels: int):
    e = Pt(False)
    for _ in range(levels):
        e = Seq(e, False)
    return e


def format_seq(levels: int) -> str:
    """``seq_expr(levels)`` in the CLI's expression syntax."""
    return "Seq(" * levels + "Pt(planar)" + ", planar)" * levels


def seq_tower(levels: int) -> SurfacePresentation:
    """``levels`` nested planar Seq towers over a puncture, built by realize."""
    return realize(0, seq_expr(levels), name="seq_tower")


FAMILIES = {
    "chain": (chain, (50, 100, 200, 400)),
    "comb": (comb, (51, 101, 201, 401)),
    "cantor-marked": (cantor_marked, (50, 100, 200, 400)),
    "seq-tower": (seq_tower, (50, 100, 200)),
}


def expected_invariants(family: str, size: int) -> dict:
    """Closed-form invariants of a family member, in the CLI's JSON shape.

    chain: infinite genus, one end, and it is non-planar.  comb of k pants:
    genus 0, k + 1 ends, CB rank 1 and degree k + 1.  cantor-marked: both
    the ends and the non-planar ends form Cantor sets.  seq-tower of k
    levels: countably many ends, CB rank k + 1, degree 1.
    """
    def finite(n):
        return {"class": "finite", "count": n}

    def cb(rank, degree, kernel, card):
        return {"rank": rank, "degree": degree, "perfect_kernel": kernel, "cardinality": card}

    empty = cb(0, 0, False, finite(0))
    if family == "chain":
        one = cb(1, 1, False, finite(1))
        return {"genus": "infinite", "finite_type": False, "ends": finite(1),
                "ends_nonplanar": finite(1), "cb": one, "cb_nonplanar": one,
                "expr": Pt(True)}
    if family == "comb":
        k = (size - 1) // 2
        return {"genus": 0, "finite_type": True, "ends": finite(k + 1),
                "ends_nonplanar": finite(0), "cb": cb(1, k + 1, False, finite(k + 1)),
                "cb_nonplanar": empty, "expr": Union(tuple(Pt(False) for _ in range(k + 1)))}
    if family == "cantor-marked":
        cantor = cb(0, 0, True, {"class": "uncountable"})
        return {"genus": "infinite", "finite_type": False, "ends": {"class": "uncountable"},
                "ends_nonplanar": {"class": "uncountable"}, "cb": cantor,
                "cb_nonplanar": cantor, "expr": Union((Cantor(False), Cantor(True)))}
    countable = {"class": "countably-infinite"}
    return {"genus": 0, "finite_type": False, "ends": countable, "ends_nonplanar": finite(0),
            "cb": cb(size + 1, 1, False, countable), "cb_nonplanar": empty,
            "expr": seq_expr(size)}


# -- windows-rewrite inputs ------------------------------------------------

def window_case(rng: random.Random, which: int, depth: int) -> tuple[str, int, dict]:
    """(presentation text, depth, expected census) for one decompose window."""
    if which == 0:
        return LOCH, depth, {"pants": depth, "punctured_disks": 0}
    if which == 1:
        return CANTOR, depth, {"pants": depth, "punctured_disks": 0}
    if which == 2:
        # root pants fused with the disk, then pants and punctured disks alternate
        return FLUTE, depth, {"pants": (depth + 1) // 2, "punctured_disks": depth // 2}
    # S_{g,0,p} is 2g + p - 2 pants and p disks; the window covers all of it.
    # g + p stays at most 200: larger end counts hit the recursion limit
    # (ROADMAP item 3), which the robustness probe counts instead.
    budget = min(depth // 2, 200)
    g = rng.randint(0, budget // 2)
    p = rng.randint(max(1, 3 - g), max(3, budget - g))  # not the plane or the punctured torus
    pres = rename(standard_presentation(g, p), rng)
    return pretty_print(pres), depth, {"pants": 2 * g + p - 2, "punctured_disks": p}


def essential_pants_case(rng: random.Random, which: int) -> str:
    """Surfaces above the essential-pants complexity bound."""
    if which == 0:
        return CANTOR
    if which == 1:
        return LOCH
    if which == 2:
        return FLUTE
    if which == 3:
        g = rng.randint(2, 12)
        return pretty_print(rename(standard_presentation(g, rng.randint(max(1, 4 - g), 12)), rng))
    return pretty_print(rename(standard_presentation(0, rng.randint(6, 24)), rng))


def curve_config(rng: random.Random, max_components: int = 12) -> CurveConfig:
    """Random valid configuration, the acceptance tests' distribution."""
    targets = tuple(f"c{i}" for i in range(rng.randint(1, 3)))
    comps = []
    trivials = []
    for cid in range(rng.randint(0, max_components)):
        target = rng.choice(targets)
        if rng.random() < 0.4:
            comps.append(Component(cid, target, ComponentKind.TRIVIAL, None))
            trivials.append(cid)
        else:
            label = HOMEO if rng.random() < 0.6 else Degree(rng.randint(-2, 2))
            comps.append(Component(cid, target, ComponentKind.PRIMITIVE, label))
    nesting = {
        cid: rng.choice([t for t in trivials if t < cid])
        for cid in trivials
        if cid > trivials[0] and rng.random() < 0.5
    } if trivials else {}
    return CurveConfig(
        target_circles=targets,
        components=tuple(comps),
        nesting=nesting,
        pi1_bijective=rng.random() < 0.5,
        global_degree=rng.choice([UNKNOWN, ZERO, PLUS_MINUS_ONE, Other(2), Other(-3)]),
    )


def degree_case(rng: random.Random, which: int):
    """(descriptor, expected abs_degree or the expected error class name)."""
    b = rng.randint(1, 9)
    d = rng.randint(0, 9)
    cases = (
        (MapDescriptor(proper=True, abs_degree=d), d),
        (MapDescriptor(proper=True, surjective=False), 0),
        (MapDescriptor(proper=True, boundary_embedding=(b, b)), 1),
        (MapDescriptor(pseudo_phe=True), 1),
        (MapDescriptor(proper_homotopy_equivalence=True, abs_degree=d + 2),
         "DegreeContradictionError"),
        (MapDescriptor(proper=True, boundary_embedding=(b, b + 1)), "BoundaryCountMismatchError"),
    )
    return cases[which % len(cases)]


def homotopy_points(rng: random.Random, n: int) -> list[tuple[complex, float]]:
    """Points of the punctured unit disk with homotopy times in [0, 1]."""
    return [
        (cmath.rect(rng.uniform(0.01, 1.0), rng.uniform(-3.1, 3.1)), rng.random())
        for _ in range(n)
    ]


def expected_square_homotopy(z: complex, t: float) -> complex:
    """The coning homotopy of z -> z^2, from its definition."""
    r = abs(z)
    if t < 1 and r <= 1 - t:
        return z * z / (1 - t)
    return z * z / r

