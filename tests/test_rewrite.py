"""Curve cleanup rules, the pipeline, and the supporting homotopies."""

from __future__ import annotations

import cmath
import itertools
import json
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from endkit import (
    HOMEO,
    PLUS_MINUS_ONE,
    UNKNOWN,
    ZERO,
    Component,
    ComponentKind,
    CurveConfig,
    Degree,
    DegreeUnknownError,
    DomainError,
    InconsistentConfigurationError,
    InvalidCurveConfigError,
    LabelsNotNormalizedError,
    Other,
    TraceStep,
    TrivialComponentsPresentError,
    Unknown,
    Zero,
    alexander_homotopy,
    annulus_push,
    curve_config_from_json,
    curve_config_to_json,
    r1_disk_removal,
    r2_homeo_normalize,
    r3_annulus_removal,
    r4_surjectivity_endgame,
    run_pipeline,
)
from endkit.cli import main

from conftest import curve_configs


def _trivial(cid: int, target: str = "c0") -> Component:
    return Component(cid, target, ComponentKind.TRIVIAL, None)


def _prim(cid: int, target: str = "c0", label=HOMEO) -> Component:
    return Component(cid, target, ComponentKind.PRIMITIVE, label)


MESSY = CurveConfig(
    target_circles=("c0", "c1"),
    components=(
        _trivial(0),
        _trivial(1),
        _prim(2, "c0", Degree(-2)),
        _prim(3, "c0", HOMEO),
        _prim(4, "c1", HOMEO),
    ),
    nesting={1: 0},
    parallel_orders={"c0": (3, 2)},
    pi1_bijective=True,
    global_degree=PLUS_MINUS_ONE,
)


def test_r1_removes_the_whole_nesting_forest_at_once():
    out = r1_disk_removal(MESSY)
    assert all(c.kind is ComponentKind.PRIMITIVE for c in out.components)
    assert out.nesting == ()
    assert [c.id for c in out.components] == [2, 3, 4]
    # primitive labels and stacking orders untouched
    assert out.components[0].label == Degree(-2)
    assert out.parallel_orders == MESSY.parallel_orders


def test_r1_is_stationary_without_trivials():
    clean = r1_disk_removal(MESSY)
    assert r1_disk_removal(clean) is clean


def test_r1_on_the_empty_configuration():
    empty = CurveConfig(target_circles=("c0",), components=())
    assert r1_disk_removal(empty) is empty


def test_r2_requires_a_trivial_free_configuration():
    with pytest.raises(TrivialComponentsPresentError):
        r2_homeo_normalize(MESSY)


def test_r2_coerces_labels_under_loop_bijectivity():
    out = r2_homeo_normalize(r1_disk_removal(MESSY))
    assert all(c.label == HOMEO for c in out.components)


def test_r2_without_loop_bijectivity_is_identity():
    config = CurveConfig(
        target_circles=("c0",),
        components=(_prim(0, label=Degree(2)),),
        pi1_bijective=False,
    )
    assert r2_homeo_normalize(config) is config


def test_r3_demands_normalized_labels():
    with pytest.raises(LabelsNotNormalizedError):
        r3_annulus_removal(r1_disk_removal(MESSY))


def test_r3_keeps_the_first_of_each_stacking_order():
    config = CurveConfig(
        target_circles=("c0", "c1"),
        components=(_prim(0), _prim(1), _prim(2), _prim(3, "c1")),
        parallel_orders={"c0": (1, 0, 2)},
    )
    out = r3_annulus_removal(config)
    assert [c.id for c in out.components] == [1, 3]
    assert out.primitive_counts() == {"c0": 1, "c1": 1}


def _collapse_pairwise(config: CurveConfig) -> CurveConfig:
    """Oracle for r3: squeeze one adjacent parallel pair at a time."""
    while True:
        for target, order in config.parallel_orders:
            if len(order) > 1:
                gone = order[1]
                config = CurveConfig(
                    target_circles=config.target_circles,
                    components=tuple(
                        c for c in config.components if c.id != gone
                    ),
                    nesting=config.nesting,
                    parallel_orders={
                        t: tuple(i for i in o if i != gone)
                        for t, o in config.parallel_orders
                    },
                    pi1_bijective=config.pi1_bijective,
                    global_degree=config.global_degree,
                )
                break
        else:
            return config


@settings(max_examples=100)
@given(curve_configs())
def test_r3_agrees_with_pairwise_collapse(config):
    cleaned = r1_disk_removal(config)
    normalized = CurveConfig(
        target_circles=cleaned.target_circles,
        components=tuple(
            Component(c.id, c.target, c.kind, HOMEO) for c in cleaned.components
        ),
        parallel_orders=cleaned.parallel_orders,
        pi1_bijective=cleaned.pi1_bijective,
        global_degree=cleaned.global_degree,
    )
    assert r3_annulus_removal(normalized) == _collapse_pairwise(normalized)


def test_r4_cases():
    with pytest.raises(DegreeUnknownError):
        r4_surjectivity_endgame(
            CurveConfig(target_circles=("c0",), components=(), global_degree=UNKNOWN)
        )
    # degree zero places no demand, even on an empty preimage
    zero = CurveConfig(target_circles=("c0",), components=(), global_degree=ZERO)
    assert r4_surjectivity_endgame(zero) is zero

    good = CurveConfig(
        target_circles=("c0",),
        components=(_prim(0),),
        global_degree=PLUS_MINUS_ONE,
    )
    assert r4_surjectivity_endgame(good) is good

    for bad in (
        CurveConfig(
            target_circles=("c0",), components=(), global_degree=PLUS_MINUS_ONE
        ),
        CurveConfig(
            target_circles=("c0",),
            components=(_prim(0), _prim(1)),
            global_degree=Other(3),
        ),
    ):
        with pytest.raises(InconsistentConfigurationError):
            r4_surjectivity_endgame(bad)


def test_pipeline_on_the_messy_configuration():
    final, trace = run_pipeline(MESSY)
    assert final.measure() == (0, 0)
    assert final.primitive_counts() == {"c0": 1, "c1": 1}
    assert [s.rule for s in trace.steps] == ["r1_disk_removal", "r3_annulus_removal"]
    for step in trace.steps:
        assert step.after <= step.before and step.after != step.before
    assert any("coerced from Degree(-2)" in note for note in trace.notes)
    assert [s.to_json()["rule"] for s in trace.steps] == ["r1_disk_removal", "r3_annulus_removal"]


def test_pipeline_trace_is_empty_on_a_normal_form():
    final, _ = run_pipeline(MESSY)
    again, trace = run_pipeline(final)
    assert again == final
    assert trace.steps == () and trace.notes == ()


def test_pipeline_rejects_unknown_rule_names():
    with pytest.raises(InvalidCurveConfigError):
        run_pipeline(MESSY, schedule=["r1", "shine"])


@settings(max_examples=150, deadline=None)
@given(curve_configs())
def test_pipeline_terminates_and_normalizes(config):
    try:
        final, trace = run_pipeline(config)
    except InconsistentConfigurationError:
        # only a committed non-zero degree can contradict the configuration
        assert not isinstance(config.global_degree, (Unknown, Zero))
        return
    assert not any(c.kind is ComponentKind.TRIVIAL for c in final.components)
    if config.pi1_bijective:
        assert all(c.label == HOMEO for c in final.components)
        assert all(n <= 1 for n in final.primitive_counts().values())
    fixpoint, empty = run_pipeline(final)
    assert fixpoint == final and empty.steps == ()
    for step in trace.steps:
        assert step.after <= step.before and step.after != step.before


@settings(max_examples=80, deadline=None)
@given(curve_configs())
def test_all_completing_schedules_agree(config):
    finals = []
    for order in itertools.permutations(("r1", "r2", "r3", "r4")):
        try:
            final, _ = run_pipeline(config, schedule=order)
        except (
            TrivialComponentsPresentError,
            LabelsNotNormalizedError,
            DegreeUnknownError,
            InconsistentConfigurationError,
        ):
            continue
        finals.append(final)
    assert len(set(finals)) <= 1


def test_construction_rejects_malformed_data():
    with pytest.raises(InvalidCurveConfigError):
        CurveConfig(target_circles=("c0", "c0"), components=())
    with pytest.raises(InvalidCurveConfigError):
        CurveConfig(target_circles=("c0",), components=(_prim(0), _prim(0)))
    with pytest.raises(InvalidCurveConfigError):
        CurveConfig(target_circles=("c0",), components=(_prim(0, "ghost"),))
    with pytest.raises(InvalidCurveConfigError):
        CurveConfig(
            target_circles=("c0",),
            components=(_trivial(0), _trivial(1)),
            nesting={0: 1, 1: 0},
        )
    with pytest.raises(InvalidCurveConfigError):
        CurveConfig(
            target_circles=("c0",),
            components=(_trivial(0), _prim(1)),
            nesting={0: 1},
        )
    with pytest.raises(InvalidCurveConfigError):
        CurveConfig(
            target_circles=("c0",),
            components=(_prim(0), _prim(1)),
            parallel_orders={"c0": (0,)},
        )
    with pytest.raises(InvalidCurveConfigError):
        Other(1)
    with pytest.raises(InvalidCurveConfigError):
        Component(0, "c0", ComponentKind.TRIVIAL, HOMEO)


@pytest.mark.parametrize("build, message", [
    (lambda: Component(0, "c0", ComponentKind.PRIMITIVE, None), "primitive component 0 needs a restriction label"),
    (lambda: CurveConfig(target_circles=(5,), components=()), "target circle ids must be strings"),
    (lambda: CurveConfig(target_circles=("c0",), components=tuple(_trivial(i) for i in range(3)),
                         nesting=((0, 1), (0, 2))), "component listed with two nesting parents"),
    (lambda: CurveConfig(target_circles=("c0",), components=(_trivial(0),), nesting={0: 0}),
     "component 0 nested in itself"),
    (lambda: CurveConfig(target_circles=("c0",), components=(), parallel_orders={"zz": ()}),
     "parallel order names unknown target circle 'zz'"),
    (lambda: TraceStep("r1", (1, 0), (1, 0)), "trace steps must shrink the measure"),
    (lambda: curve_config_from_json(_config_json(components=[_component(label="Degree")], nesting={})),
     "unreadable restriction label 'Degree'"),
    (lambda: curve_config_from_json(_config_json(global_degree="two")), "unreadable global degree 'two'"),
], ids=["unlabelled-primitive", "circle-id", "two-parents", "self-nested", "unknown-order-circle",
        "trace-step", "json-label", "json-degree"])
def test_each_validation_error_is_raised_with_its_message(build, message):
    with pytest.raises(InvalidCurveConfigError) as raised:
        build()
    assert str(raised.value) == message


def test_deep_nesting_validates_in_linear_time():
    n = 50_000
    trivial = tuple(_trivial(i) for i in range(n))
    chain = {i: i - 1 for i in range(1, n)}
    start = time.perf_counter()
    config = CurveConfig(target_circles=("c0",), components=trivial, nesting=chain)
    assert time.perf_counter() - start < 2.0
    assert len(config.nesting) == n - 1
    with pytest.raises(InvalidCurveConfigError, match="nesting contains a cycle"):
        CurveConfig(target_circles=("c0",), components=trivial, nesting={**chain, 0: n - 1})


def _has_cycle(parent_of: dict[int, int]) -> bool:
    """The quadratic reference: walk the whole chain from every start."""
    for start in parent_of:
        seen, node = {start}, parent_of.get(start)
        while node is not None:
            if node in seen:
                return True
            seen.add(node)
            node = parent_of.get(node)
    return False


@settings(max_examples=300)
@given(st.dictionaries(st.integers(0, 7), st.integers(0, 7), max_size=8))
def test_nesting_cycle_check_matches_the_whole_chain_walk(parent_of):
    parent_of = {c: p for c, p in parent_of.items() if c != p}
    components = tuple(_trivial(i) for i in range(8))
    try:
        config = CurveConfig(target_circles=("c0",), components=components, nesting=parent_of)
    except InvalidCurveConfigError as exc:
        assert "nesting contains a cycle" in str(exc) and _has_cycle(parent_of)
    else:
        assert not _has_cycle(parent_of) and dict(config.nesting) == parent_of


@settings(max_examples=150)
@given(curve_configs())
def test_json_roundtrip(config):
    payload = curve_config_to_json(config)
    assert curve_config_from_json(json.loads(json.dumps(payload))) == config


def test_json_rejects_garbage():
    with pytest.raises(InvalidCurveConfigError):
        curve_config_from_json({"target_circles": ["c0"]})


def _config_json(**changes) -> dict:
    """A valid configuration's JSON with some top-level values replaced."""
    payload = {
        "target_circles": ["c0"],
        "components": [
            {"id": 0, "target": "c0", "kind": "Trivial"},
            {"id": 1, "target": "c0", "kind": "Trivial"},
            {"id": 2, "target": "c0", "kind": "Primitive", "label": {"degree": -2}},
        ],
        "nesting": {"0": None, "1": 0},
        "parallel_orders": {"c0": [2]},
        "pi1_bijective": False,
        "global_degree": {"other": 2},
    }
    payload.update(changes)
    return payload


def _component(**changes) -> dict:
    entry = {"id": 2, "target": "c0", "kind": "Primitive", "label": {"degree": -2}}
    entry.update(changes)
    return entry


@pytest.mark.parametrize(
    "payload",
    [
        _config_json(pi1_bijective="false"),
        _config_json(pi1_bijective=0),
        _config_json(pi1_bijective=None),
        _config_json(global_degree={"other": 2.0}),
        _config_json(global_degree={"other": "2"}),
        _config_json(nesting={"0": None, "1": 0.0}),
        _config_json(nesting={"0": None, "1": False}),
        _config_json(parallel_orders={"c0": [2.0]}),
        _config_json(components=[_component(id="2")], nesting={}),
        _config_json(components=[_component(id=2.0)], nesting={}),
        _config_json(components=[_component(id=True)], nesting={}, parallel_orders={}),
        _config_json(components=[_component(label={"degree": 2.5})], nesting={}),
        _config_json(components=[_component(label={"degree": "1"})], nesting={}),
        _config_json(components=[_component(label={"degree": True})], nesting={}),
    ],
)
def test_json_reader_takes_exact_types(payload):
    # each case changes one value of a configuration that reads back intact
    assert curve_config_to_json(curve_config_from_json(_config_json())) == _config_json()
    with pytest.raises(InvalidCurveConfigError):
        curve_config_from_json(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("key", ["\u0663", " 3 ", "+3", "03", "3_0"])
def test_json_nesting_keys_are_written_ids(key, tmp_path, capsys):
    # int() reads each key as component 3 (or 30); only str(id) is the written form
    trivial = [{"id": i, "target": "c0", "kind": "Trivial"} for i in (0, 3, 30)]
    ok = _config_json(components=trivial, nesting={"3": 0, "30": 0}, parallel_orders={})
    assert dict(curve_config_from_json(ok).nesting) == {3: 0, 30: 0}
    payload = _config_json(components=trivial, nesting={key: 0}, parallel_orders={})
    with pytest.raises(InvalidCurveConfigError):
        curve_config_from_json(json.loads(json.dumps(payload)))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    assert main(["rewrite", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1 and json.loads(out[0])["error"]["module"] == "rewrite"


# -- homotopies ------------------------------------------------------------


def _grid(n: int = 24):
    for k in range(1, n + 1):
        r = k / (n + 1)
        for j in range(8):
            yield cmath.rect(r, 2 * math.pi * j / 8)


def test_alexander_fixes_conformal_rotations():
    phi = lambda z: 1j * z
    for z in _grid():
        for t in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert abs(alexander_homotopy(phi, z, t) - 1j * z) < 1e-12


def test_alexander_square_map_endpoints_and_seam():
    phi = lambda z: z * z
    for z in _grid():
        assert abs(alexander_homotopy(phi, z, 0.0) - z * z) < 1e-12
        assert abs(alexander_homotopy(phi, z, 1.0) - z * z / abs(z)) < 1e-12
    # continuity across |z| = 1 - t
    for t in (0.3, 0.6, 0.9):
        r = 1 - t
        for eps in (1e-10, -1e-10):
            inner = alexander_homotopy(phi, (r - 1e-10) * 1j, t)
            outer = alexander_homotopy(phi, (r + 1e-10) * 1j, t)
            assert abs(inner - outer) < 1e-6


def test_alexander_is_proper_near_the_puncture():
    phi = lambda z: z * z
    for k in range(1, 21):
        z = 2.0**-k
        worst = max(
            abs(alexander_homotopy(phi, z, t)) for t in (i / 50 for i in range(51))
        )
        assert worst <= 2 * abs(z)


def test_alexander_domain_errors():
    phi = lambda z: z
    with pytest.raises(DomainError):
        alexander_homotopy(phi, 0.5, 1.5)
    with pytest.raises(DomainError):
        alexander_homotopy(phi, 0.0, 0.5)
    with pytest.raises(DomainError):
        alexander_homotopy(phi, 1.5, 0.5)


def test_annulus_push_endpoints():
    phi1 = lambda z, s: z
    phi2 = lambda z, s: 1 + (s - 1) / 4
    angle, level = annulus_push(phi1, phi2, 1j, 2.0, 0.0)
    assert angle == 1j and abs(level - 1.25) < 1e-12
    _, level = annulus_push(phi1, phi2, 1j, 2.0, 1.0)
    assert abs(level - 1.5) < 1e-12


def test_annulus_push_time_one_hits_the_far_circle_only_at_the_boundary():
    phi1 = lambda z, s: z
    phi2 = lambda z, s: Fraction(5, 4)
    for s in (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)):
        _, level = annulus_push(phi1, phi2, 1.0, s, Fraction(1))
        assert level < 2
    _, level = annulus_push(phi1, phi2, 1.0, Fraction(3), Fraction(1))
    assert level == 2 and isinstance(level, Fraction)


def test_annulus_push_domain_errors():
    phi1 = lambda z, s: z
    phi2 = lambda z, s: 1.5
    with pytest.raises(DomainError):
        annulus_push(phi1, phi2, 1.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        annulus_push(phi1, phi2, 1.0, 2.0, -0.1)
    with pytest.raises(DomainError):
        annulus_push(phi1, lambda z, s: 2.5, 1.0, 2.0, 0.5)
