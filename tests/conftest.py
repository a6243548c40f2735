"""Shared strategies: random presentations, successor maps, expressions and
curve configs; and a runner for fresh interpreters."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import strategies as st

from endkit import (
    INFINITE,
    BlockKind,
    Cantor,
    Component,
    ComponentKind,
    CurveConfig,
    Degree,
    HOMEO,
    PLUS_MINUS_ONE,
    Pt,
    Seq,
    SurfacePresentation,
    Union,
    UNKNOWN,
    ZERO,
    Other,
)
from endkit.ends import _has_nonplanar

_NAMES = tuple(f"s{i}" for i in range(8))
_SRC = str(Path(__file__).resolve().parent.parent / "src")


def python_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports endkit from src/."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=_SRC + (os.pathsep + path if path else ""))


def run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports endkit from src/."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=python_env(), cwd=cwd,
        timeout=120,
    )


@st.composite
def presentations(draw, max_states: int = 5) -> SurfacePresentation:
    """Arbitrary rule system, pruned to the states reachable from the root."""
    n = draw(st.integers(1, max_states))
    names = _NAMES[:n]
    rules = {}
    for name in names:
        kind = draw(st.sampled_from((BlockKind.ANNULUS, BlockKind.PANTS, BlockKind.HANDLE)))
        arity = 2 if kind is BlockKind.PANTS else 1
        children = tuple(draw(st.sampled_from(names)) for _ in range(arity))
        rules[name] = (kind, children)
    root = names[0]
    reachable = {root}
    frontier = [root]
    while frontier:
        state = frontier.pop()
        for child in rules[state][1]:
            if child not in reachable:
                reachable.add(child)
                frontier.append(child)
    return SurfacePresentation(
        name="random",
        rules={s: r for s, r in rules.items() if s in reachable},
        root=root,
    )


@st.composite
def successor_maps(draw, acyclic: bool = False):
    """Closed successor maps over at most 8 states, duplicates allowed; with
    ``acyclic`` every edge goes to a later state."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    succ = {}
    for i, name in enumerate(names):
        pool = names[i + 1:] if acyclic else names
        succ[name] = tuple(
            draw(st.lists(st.sampled_from(pool), max_size=3)) if pool else ()
        )
    return succ


@st.composite
def finite_type_pairs(draw, max_genus: int = 8, max_punctures: int = 8):
    """(g, p) with p >= 1, the admissible finite-type range."""
    g = draw(st.integers(0, max_genus))
    p = draw(st.integers(1, max_punctures))
    return g, p


@st.composite
def end_exprs(draw, depth: int = 3):
    """Valid expressions of the compile fragment."""
    mark = st.booleans()
    if depth == 0:
        return draw(st.sampled_from((Pt(False), Pt(True), Cantor(False), Cantor(True))))
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return Pt(draw(mark))
    if shape == 1:
        return Cantor(draw(mark))
    if shape == 2:
        element = draw(end_exprs(depth=depth - 1))
        # a planar limit is only closed over a non-planar-free element
        limit = True if _has_nonplanar(element) else draw(mark)
        return Seq(element, limit)
    count = draw(st.integers(1, 3))
    parts = tuple(draw(end_exprs(depth=depth - 1)) for _ in range(count))
    return Union(parts)


@st.composite
def curve_configs(draw, max_components: int = 12):
    """Valid configurations over at most three target circles."""
    targets = tuple(f"C{i}" for i in range(draw(st.integers(1, 3))))
    n = draw(st.integers(0, max_components))
    components = []
    trivial_ids = []
    for i in range(n):
        target = draw(st.sampled_from(targets))
        if draw(st.booleans()):
            components.append(Component(i, target, ComponentKind.TRIVIAL))
            trivial_ids.append(i)
        else:
            label = draw(
                st.sampled_from((HOMEO, Degree(-2), Degree(-1), Degree(0), Degree(1), Degree(2)))
            )
            components.append(Component(i, target, ComponentKind.PRIMITIVE, label))
    nesting = {}
    for pos, child in enumerate(trivial_ids[1:], start=1):
        if draw(st.booleans()):
            nesting[child] = draw(st.sampled_from(trivial_ids[:pos]))
    degree = draw(st.sampled_from((UNKNOWN, ZERO, PLUS_MINUS_ONE, Other(2), Other(-3))))
    return CurveConfig(
        target_circles=targets,
        components=tuple(components),
        nesting=nesting,
        pi1_bijective=draw(st.booleans()),
        global_degree=degree,
    )
