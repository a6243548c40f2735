"""The value contract of every public record class: field order and
defaults, repr, class-sensitive equality, hashing, frozenness, ``replace``
re-validation, and pickle and deep-copy round trips."""

from __future__ import annotations

import copy
import pickle

import pytest

from endkit import (
    HOMEO,
    INFINITE,
    BlockKind,
    Cantor,
    Cardinality,
    CBReport,
    ClassifierVerdict,
    ClassVerdict,
    Component,
    ComponentCensus,
    ComponentKind,
    CurveConfig,
    Degree,
    DecompositionGraph,
    EndsAutomaton,
    EndsCount,
    EssentialPants,
    FiniteType,
    Homeo,
    InvalidCurveConfigError,
    MapDescriptor,
    Other,
    Piece,
    PieceKind,
    PlusMinusOne,
    Pt,
    RewriteTrace,
    Seq,
    SpineGraph,
    SurfacePresentation,
    TraceStep,
    Union,
    Unknown,
    Zero,
)
from endkit.rewrite import replace

_FLUTE_RULES = {"r": (BlockKind.PANTS, ("r", "t")), "t": (BlockKind.ANNULUS, ("t",))}
_AUTOMATON = EndsAutomaton(
    ["r", "t"], [(0, 1), (1,)], frozenset(), [[1], [0]], [[], [0]], [1, 1],
    b"\0\0", b"\0\1", 0, INFINITE,
)
_PRES = SurfacePresentation("flute", dict(_FLUTE_RULES))
_PRIMITIVE = Component(1, "c0", ComponentKind.PRIMITIVE, HOMEO)
_TRIVIAL = Component(0, "c0", ComponentKind.TRIVIAL)
_GRAPH = DecompositionGraph(
    "strict", 2, (Piece(0, PieceKind.PANTS), Piece(1, PieceKind.PUNCTURED_DISK)),
    ((0, 1, 1, 0),), ((0, 2),), False,
)
_CENSUS = ComponentCensus(1, 0, 0, 1, True)
_TRACE_STEP = TraceStep("r1_disk_removal", (1, 0), (0, 0))

# (record, its field names in constructor order, its repr)
RECORDS = [
    (FiniteType(2, 0, 3), ("genus", "boundary", "punctures"),
     "FiniteType(genus=2, boundary=0, punctures=3)"),
    (_AUTOMATON, ("names", "transitions", "nonplanar_states", "components", "exits", "shapes",
                  "handle_closure", "pants_closure", "handle_count", "pants_count"),
     "EndsAutomaton(names=['r', 't'], transitions=[(0, 1), (1,)], nonplanar_states=frozenset(), "
     "components=[[1], [0]], exits=[[], [0]], shapes=[1, 1], "
     "handle_closure=b'\\x00\\x00', pants_closure=b'\\x00\\x01', handle_count=0, pants_count=inf)"),
    (EndsCount(Cardinality.FINITE, 2), ("cardinality", "count"),
     "EndsCount(cardinality=<Cardinality.FINITE: 'finite'>, count=2)"),
    (EndsCount(Cardinality.UNCOUNTABLE), ("cardinality", "count"),
     "EndsCount(cardinality=<Cardinality.UNCOUNTABLE: 'uncountable'>, count=None)"),
    (CBReport(1, 1, False, EndsCount(Cardinality.FINITE, 1), (1,)),
     ("rank", "degree", "has_perfect_kernel", "cardinality", "profile", "rank_exceeded"),
     "CBReport(rank=1, degree=1, has_perfect_kernel=False, cardinality=EndsCount("
     "cardinality=<Cardinality.FINITE: 'finite'>, count=1), profile=(1,), rank_exceeded=False)"),
    (CBReport(0, 0, True, EndsCount(Cardinality.UNCOUNTABLE)),
     ("rank", "degree", "has_perfect_kernel", "cardinality", "profile", "rank_exceeded"),
     "CBReport(rank=0, degree=0, has_perfect_kernel=True, cardinality=EndsCount("
     "cardinality=<Cardinality.UNCOUNTABLE: 'uncountable'>, count=None), profile=None, "
     "rank_exceeded=False)"),
    (ClassifierVerdict(ClassVerdict.NOT_HOMEOMORPHIC, "genus"), ("verdict", "witness"),
     "ClassifierVerdict(verdict=<ClassVerdict.NOT_HOMEOMORPHIC: 'NotHomeomorphic'>, "
     "witness='genus')"),
    (ClassifierVerdict(ClassVerdict.HOMEOMORPHIC), ("verdict", "witness"),
     "ClassifierVerdict(verdict=<ClassVerdict.HOMEOMORPHIC: 'Homeomorphic'>, witness=None)"),
    (Piece(0, PieceKind.PANTS), ("id", "kind"),
     "Piece(id=0, kind=<PieceKind.PANTS: 'Pants'>)"),
    (_GRAPH, ("mode", "depth", "pieces", "edges", "open_slots", "complete"),
     "DecompositionGraph(mode='strict', depth=2, pieces=(Piece(id=0, kind=<PieceKind.PANTS: "
     "'Pants'>), Piece(id=1, kind=<PieceKind.PUNCTURED_DISK: 'PuncturedDisk'>)), "
     "edges=((0, 1, 1, 0),), open_slots=((0, 2),), complete=False)"),
    (SpineGraph(_PRES, 1, frozenset({"r"}), _AUTOMATON),
     ("presentation", "rank", "core_states", "automaton"),
     f"SpineGraph(presentation={_PRES!r}, rank=1, core_states=frozenset({{'r'}}), "
     f"automaton={_AUTOMATON!r})"),
    (_CENSUS, ("pants", "punctured_disks", "one_holed_tori", "rank_lower_bound", "exact"),
     "ComponentCensus(pants=1, punctured_disks=0, one_holed_tori=0, rank_lower_bound=1, "
     "exact=True)"),
    (EssentialPants(0, (_CENSUS,), _GRAPH), ("pants_id", "components", "window"),
     f"EssentialPants(pants_id=0, components=({_CENSUS!r},), window={_GRAPH!r})"),
    (MapDescriptor(proper=True, boundary_embedding=(3, 3), abs_degree=1),
     ("proper", "surjective", "boundary_embedding", "proper_homotopy_equivalence",
      "pseudo_phe", "target_plane_or_punctured_plane", "ends_map_injective", "orientation",
      "abs_degree", "pi1_surjective"),
     "MapDescriptor(proper=True, surjective=None, boundary_embedding=(3, 3), "
     "proper_homotopy_equivalence=False, pseudo_phe=False, "
     "target_plane_or_punctured_plane=False, ends_map_injective=None, orientation=None, "
     "abs_degree=1, pi1_surjective=False)"),
    (Degree(2), ("value",), "Degree(value=2)"),
    (Homeo(), (), "Homeo()"),
    (_PRIMITIVE, ("id", "target", "kind", "label"),
     "Component(id=1, target='c0', kind=<ComponentKind.PRIMITIVE: 'Primitive'>, label=Homeo())"),
    (_TRIVIAL, ("id", "target", "kind", "label"),
     "Component(id=0, target='c0', kind=<ComponentKind.TRIVIAL: 'Trivial'>, label=None)"),
    (Unknown(), (), "Unknown()"),
    (Zero(), (), "Zero()"),
    (PlusMinusOne(), (), "PlusMinusOne()"),
    (Other(2), ("value",), "Other(value=2)"),
    (CurveConfig(("c0",), (_PRIMITIVE, _TRIVIAL), {0: None}),
     ("target_circles", "components", "nesting", "parallel_orders", "pi1_bijective",
      "global_degree"),
     f"CurveConfig(target_circles=('c0',), components=({_TRIVIAL!r}, {_PRIMITIVE!r}), "
     "nesting=(), parallel_orders=(('c0', (1,)),), pi1_bijective=False, "
     "global_degree=Unknown())"),
    (_TRACE_STEP, ("rule", "before", "after"),
     "TraceStep(rule='r1_disk_removal', before=(1, 0), after=(0, 0))"),
    (RewriteTrace((_TRACE_STEP,), ("a note",)), ("steps", "notes"),
     f"RewriteTrace(steps=({_TRACE_STEP!r},), notes=('a note',))"),
    (RewriteTrace(), ("steps", "notes"), "RewriteTrace(steps=(), notes=())"),
]
# the end-expression nodes compare and hash by `_key` and print as text
NODES = [
    (Pt(False), ("nonplanar",), "Pt(planar)"),
    (Cantor(True), ("nonplanar",), "Cantor(nonplanar)"),
    (Seq(Pt(False), True), ("element", "limit_nonplanar"), "Seq(Pt(planar), nonplanar)"),
    (Union(Pt(False), Cantor(True)), ("parts",), "Union(Pt(planar), Cantor(nonplanar))"),
]
_IDS = [type(r).__name__ for r, _, _ in RECORDS + NODES]


def _fields(record, names) -> tuple:
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("record, names, text", RECORDS + NODES, ids=_IDS)
def test_repr_fields_and_construction(record, names, text):
    assert repr(record) == text
    values = _fields(record, names)
    cls = type(record)
    if cls is not Union:  # Union(*parts), or Union(parts)
        assert cls(*values) == record == cls(**dict(zip(names, values)))
    assert cls(*values) is not record


@pytest.mark.parametrize("record, names, text", RECORDS + NODES, ids=_IDS)
def test_frozen(record, names, text):
    for name in names or ("anything",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, names, text", RECORDS, ids=_IDS[: len(RECORDS)])
def test_hash_is_the_hash_of_the_fields(record, names, text):
    values = _fields(record, names)
    try:
        expected = hash(values)
    except TypeError:  # a dict or a presentation inside
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == expected


def test_equality_is_class_sensitive():
    assert Unknown() != Zero() and Zero() != PlusMinusOne() and Unknown() == Unknown()
    assert Pt(False) != Cantor(False) and Degree(2) != Other(2) and Homeo() != Unknown()
    assert EndsCount(Cardinality.FINITE, 1) != (Cardinality.FINITE, 1)
    assert Degree(2).__eq__(2) is NotImplemented and Homeo().__eq__(()) is NotImplemented
    instances = [r for r, _, _ in RECORDS + NODES]
    for i, a in enumerate(instances):
        for b in instances[i + 1:]:
            if type(a) is not type(b):
                assert a != b and not a == b


@pytest.mark.parametrize("record, names, text", RECORDS + NODES, ids=_IDS)
def test_pickle_and_deepcopy_round_trip(record, names, text):
    for clone in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
        assert type(clone) is type(record) and repr(clone) == text
        assert _fields(clone, names) == _fields(record, names)
        if type(record) is not SpineGraph:  # holds a presentation, which compares by fields
            assert clone == record


def test_surface_presentation_is_mutable_and_unhashable():
    pres = SurfacePresentation("flute", dict(_FLUTE_RULES))
    assert pres.root == "r"  # the first rule, set by validation
    assert repr(pres) == (
        "SurfacePresentation(name='flute', rules={'r': (<BlockKind.PANTS: 'P'>, ('r', 't')), "
        "'t': (<BlockKind.ANNULUS: 'A'>, ('t',))}, root='r', finite_type=None)"
    )
    assert pres == SurfacePresentation("flute", dict(_FLUTE_RULES), "r")
    assert pres != SurfacePresentation("other", dict(_FLUTE_RULES))
    with pytest.raises(TypeError):
        hash(pres)
    pres.name = "renamed"
    assert pres.name == "renamed"
    for clone in (pickle.loads(pickle.dumps(pres)), copy.deepcopy(pres)):
        assert clone == pres and clone.rules is not pres.rules
    finite = SurfacePresentation("s", finite_type=FiniteType(1, 0, 2))
    assert finite.rules is None and finite.root is None and finite == copy.deepcopy(finite)


def test_replace_validates_again():
    assert replace(Other(2), value=5) == Other(5)
    with pytest.raises(InvalidCurveConfigError):
        replace(Other(2), value=1)
    desc = replace(MapDescriptor(proper=True), boundary_embedding=[3, 4])
    assert desc.boundary_embedding == (3, 4) and desc.proper
    assert replace(_TRIVIAL, id=5) == Component(5, "c0", ComponentKind.TRIVIAL)
    with pytest.raises(InvalidCurveConfigError):
        replace(_TRIVIAL, label=HOMEO)
    config = CurveConfig(("c0",), (_PRIMITIVE,))
    assert replace(config, nesting={}).nesting == ()
    with pytest.raises(TypeError):
        replace(Other(2), colour=1)
