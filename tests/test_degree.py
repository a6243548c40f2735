"""Degree inference closure over map descriptors."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from endkit import (
    BoundaryCountMismatchError,
    DegreeContradictionError,
    DegreeError,
    MapDescriptor,
    descriptor_from_json,
    descriptor_to_json,
    infer_degree,
)


def test_branched_cover_keeps_its_degree():
    # z -> z^2 on the punctured plane: proper, degree 2, not injective on ends
    out = infer_degree(MapDescriptor(proper=True, abs_degree=2))
    assert out.abs_degree == 2
    assert out.surjective is True
    assert out.pi1_surjective is False

    with pytest.raises(DegreeContradictionError):
        infer_degree(
            MapDescriptor(proper_homotopy_equivalence=True, abs_degree=2)
        )


def test_known_non_surjective_forces_degree_zero():
    out = infer_degree(MapDescriptor(proper=True, surjective=False))
    assert out.abs_degree == 0


def test_boundary_embedding():
    out = infer_degree(MapDescriptor(proper=True, boundary_embedding=(3, 3)))
    assert out.abs_degree == 1 and out.pi1_surjective

    with pytest.raises(BoundaryCountMismatchError):
        infer_degree(MapDescriptor(proper=True, boundary_embedding=(2, 3)))


def test_phe_is_injective_on_ends():
    with pytest.raises(DegreeContradictionError):
        infer_degree(
            MapDescriptor(
                proper_homotopy_equivalence=True, ends_map_injective=False
            )
        )


def test_pseudo_phe_and_the_plane_escape_hatch():
    out = infer_degree(MapDescriptor(pseudo_phe=True))
    assert out.proper and out.abs_degree == 1

    # over the plane or punctured plane a pseudo equivalence may wind
    out = infer_degree(
        MapDescriptor(pseudo_phe=True, target_plane_or_punctured_plane=True)
    )
    assert out.abs_degree is None
    out = infer_degree(
        MapDescriptor(
            pseudo_phe=True, target_plane_or_punctured_plane=True, abs_degree=3
        )
    )
    assert out.abs_degree == 3


def test_phe_implication_chain():
    out = infer_degree(MapDescriptor(proper_homotopy_equivalence=True))
    assert out.pseudo_phe and out.proper and out.abs_degree == 1
    assert out.surjective is True and out.pi1_surjective


def test_zero_degree_conflicts_with_boundary_embedding():
    with pytest.raises(DegreeContradictionError):
        infer_degree(
            MapDescriptor(surjective=False, boundary_embedding=(2, 2))
        )


descriptors = st.builds(
    MapDescriptor,
    proper=st.booleans(),
    surjective=st.sampled_from([None, True, False]),
    boundary_embedding=st.one_of(
        st.none(),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
    ),
    proper_homotopy_equivalence=st.booleans(),
    pseudo_phe=st.booleans(),
    target_plane_or_punctured_plane=st.booleans(),
    ends_map_injective=st.sampled_from([None, True, False]),
    orientation=st.sampled_from([None, 1, -1]),
    abs_degree=st.one_of(st.none(), st.integers(0, 3)),
    pi1_surjective=st.booleans(),
)


@settings(max_examples=300)
@given(descriptors)
def test_inference_is_idempotent_and_narrowing(desc):
    try:
        closed = infer_degree(desc)
    except DegreeError:
        return
    assert infer_degree(closed) == closed
    # closure never erases evidence
    for field in (
        "surjective",
        "boundary_embedding",
        "ends_map_injective",
        "orientation",
        "abs_degree",
    ):
        given_value = getattr(desc, field)
        if given_value is not None:
            assert getattr(closed, field) == given_value
    for flag in (
        "proper",
        "proper_homotopy_equivalence",
        "pseudo_phe",
        "pi1_surjective",
    ):
        if getattr(desc, flag):
            assert getattr(closed, flag)


@settings(max_examples=200)
@given(descriptors)
def test_json_roundtrip(desc):
    payload = descriptor_to_json(desc)
    assert descriptor_from_json(json.loads(json.dumps(payload))) == desc


def test_json_defaults_and_garbage():
    assert descriptor_from_json({}) == MapDescriptor()
    with pytest.raises(DegreeError):
        descriptor_from_json({"boundary_embedding": 7})
    with pytest.raises(DegreeError):
        descriptor_from_json({"orientation": 2})



@pytest.mark.parametrize(
    "payload",
    [
        {"proper": "false", "proper_homotopy_equivalence": "no"},
        {"proper": 1},
        {"proper": None},
        {"pseudo_phe": "true"},
        {"target_plane_or_punctured_plane": 0},
        {"pi1_surjective": "yes"},
        {"surjective": 0},
        {"surjective": "false"},
        {"ends_map_injective": 0, "proper_homotopy_equivalence": True},
        {"abs_degree": True},
        {"abs_degree": 1.0},
        {"abs_degree": "2"},
        {"orientation": 1.0},
        {"orientation": True},
        {"boundary_embedding": [True, 1]},
        {"boundary_embedding": ["2", "2"]},
        {"boundary_embedding": [1.5, 1]},
    ],
)
def test_json_reader_takes_exact_types(payload):
    with pytest.raises(DegreeError):
        descriptor_from_json(json.loads(json.dumps(payload)))

def test_constructor_validation():
    with pytest.raises(DegreeError):
        MapDescriptor(orientation=2)
    with pytest.raises(DegreeError):
        MapDescriptor(abs_degree=-1)
