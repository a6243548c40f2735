"""Shared strategies: random presentations, successor maps, expressions and
curve configs; and a runner for fresh interpreters."""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys
from bisect import bisect_left
from pathlib import Path
from typing import Mapping

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
from endkit.presentation import (
    _ARITY, ACYCLIC, BRANCHING, CYCLE, EndsAutomaton, Rule, Successors, regularize,
)

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


def bench_inputs():
    """bench/inputs.py: the benchmark's input generators and families."""
    path = Path(__file__).resolve().parent.parent / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def backward(succ: Successors, targets) -> set[str]:
    """States from which some target is reachable (targets included): a
    state-level oracle for the mark closures read off the condensation."""
    hit = {t for t in targets if t in succ}
    preds: dict[str, list[str]] = {s: [] for s in succ}
    for state, children in succ.items():
        for child in children:
            preds[child].append(state)
    todo = list(hit)
    while todo:
        for pred in preds[todo.pop()]:
            if pred not in hit:
                hit.add(pred)
                todo.append(pred)
    return hit


def census_cores(seed: int) -> list[SurfacePresentation]:
    """The Unknown census's inputs: 150 ``bench/inputs.random_core`` cores of
    up to 6 states at seed 0 and up to 8 at seeds 1 and 2."""
    rng, inputs = random.Random(seed), bench_inputs()
    return [inputs.random_core(rng, max_states=6 if seed == 0 else 8) for _ in range(150)]


def named(auto: EndsAutomaton) -> dict[str, tuple[str, ...]]:
    """The automaton's transitions as a successor map over the state names,
    states in their numbering order: the form the state-level oracles read."""
    names = auto.names
    return {names[s]: tuple(names[c] for c in cs) for s, cs in enumerate(auto.transitions)}


def reference_sccs(succ: Successors) -> list[list[str]]:
    """The textbook Tarjan, with an on-stack set and a frame per child index:
    the oracle for the compiled components and their order."""
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


def reference_condense(rules: Mapping[str, Rule], root: str) -> EndsAutomaton | None:
    """The compiling walk as it was with Tarjan's stack, every state pushed as
    it is first met, the oracle for `presentation._condense`, kept verbatim.

    One depth-first walk from ``root`` in child order, Tarjan's (1972) in
    its low-link form (Nuutila, Pearce): it numbers and checks each state it
    meets, and compiles each component as it closes, after every component
    its members reach.  A state's link starts at its number and is lowered
    by the links of the states it reaches on the stack; a closed state's
    link is above every number, so no on-stack set is kept.  As a component
    closes it counts the Handle and Pants nodes of the unfolding below one
    of its states, with child multiplicity (``P(a, a)`` doubles): INFINITE
    when one lies on or after a cycle, as a cycle repeats forever every node
    on or below it; only the root's counts outlive the walk.  None at a
    wrong arity or an unmet rule; KeyError at an undefined state."""
    kind, children = rules[root]
    if len(children) != _ARITY[kind]:
        return None
    closed, handle, arity = len(rules), BlockKind.HANDLE, _ARITY
    index, names, handles = {root: 0}, [root], {0} if kind is handle else set()
    transitions, scc_of, components, exits, shapes = [()] * closed, [0] * closed, [], [], []
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
            if stack[-1] == state:  # alone on the stack: a component of one state
                stack.pop()
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
            members = stack[bisect_left(stack, state):]
            del stack[-len(members):]
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
    if len(names) != closed:
        return None
    # every field positional: the record constructor's fast path
    return EndsAutomaton(names, transitions, frozenset(handles), components, exits, shapes,
                         bytes(map(bool, hs)), bytes(map(bool, ps)), hs[-1], ps[-1])


def _on_cycles(succ: Successors) -> set[str]:
    """States lying on some cycle: the members of the components that have
    two states, or one with a self-loop."""
    return {s for c in reference_sccs(succ) if len(c) > 1 or c[0] in succ[c[0]] for s in c}


def shaped_cycles(auto: EndsAutomaton) -> set[str]:
    """The cycle members an automaton's ``shapes`` give, by name: the states
    of its components that are a cycle or branch inside."""
    return {auto.names[s] for c, shape in zip(auto.components, auto.shapes) if shape for s in c}


def _occurrences(auto: EndsAutomaton, targets) -> list:
    """The reference counter that the compiled counts are checked against:
    per component, the number of unfolding-tree nodes labeled by ``targets``
    (state numbers) below one of its states, with child multiplicity
    (``P(a, a)`` doubles); INFINITE when a target lies on or after a cycle,
    as a cycle with a target on or below it repeats that target forever.
    The root's entry, the last, counts the whole unfolding; the non-zero
    entries are the mark closure, the components whose states reach a
    target."""
    below: list = []
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


def reference_splice(pres: SurfacePresentation, state: str, slot: int) -> SurfacePresentation:
    """The splice without anything kept: copy the rules, take the smallest
    unused ``sp<i>``, and build the result through the constructor."""
    pres = regularize(pres)
    try:
        kind, children = pres.rules[state]
    except (KeyError, TypeError):
        raise ValueError(f"no state {state!r} to splice") from None
    if not isinstance(slot, int) or isinstance(slot, bool) or not 0 <= slot < len(children):
        raise ValueError(f"slot {slot!r} out of range for {state}")
    i = 0
    while f"sp{i}" in pres.rules:
        i += 1
    rules = dict(pres.rules)
    rules[state] = (kind, tuple(f"sp{i}" if k == slot else c for k, c in enumerate(children)))
    rules[f"sp{i}"] = (BlockKind.ANNULUS, (children[slot],))
    return SurfacePresentation(name=pres.name, rules=rules, root=pres.root)


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
