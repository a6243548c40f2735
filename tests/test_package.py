"""The lazy ``endkit`` namespace, each check in a fresh interpreter."""

from __future__ import annotations

import json

import pytest

from conftest import run_python

# every name the package exported when it imported its submodules eagerly
EXPORTS = {
    "classify": ["ClassifierVerdict", "ClassVerdict", "distinct_family", "kerekjarto", "realize"],
    "decompose": [
        "ComponentCensus", "DecompositionGraph", "EssentialPants", "Piece", "PieceKind",
        "SpineGraph", "decompose", "decomposition_to_dot", "find_essential_pants",
        "graph_phe_equal", "interchange_normalize", "spine", "spine_to_dot",
    ],
    "degree": [
        "MapDescriptor", "deg_compose", "degree_from_disk_witness", "descriptor_from_json",
        "descriptor_to_json", "infer_degree",
    ],
    "ends": [
        "Cantor", "Cardinality", "CBReport", "EndExpr", "EndsAutomaton", "EndsCount", "Pt", "Seq",
        "Union", "Verdict", "cb_report", "cb_report_to_json", "ends_automaton", "ends_count",
        "ends_count_to_json", "expr_cb_report", "find_isolated_planar_end", "format_end_expr",
        "normalize_end_expr", "pair_homeomorphic", "parse_end_expr", "to_end_expr",
        "validate_end_expr",
    ],
    "errors": [
        "BoundaryCountMismatchError", "ClassifyError", "ComplexityTooLowError",
        "DanglingRuleError", "DecomposeError", "DegreeContradictionError", "DegreeError",
        "DegreeUnknownError", "DomainError", "EndkitError", "EndsError",
        "InconsistentConfigurationError", "InconsistentInvariantsError",
        "InvalidCurveConfigError", "InvalidEndExprError", "LabelsNotNormalizedError",
        "NotConvertibleError", "NotFiniteTypeError", "OccurrenceInsideCycleError",
        "PlaneExcludedError", "PresentationError", "PresentationSyntaxError",
        "PuncturedTorusExcludedInStrictError", "RewriteError", "TrivialComponentsPresentError",
        "UnreachableRuleError",
    ],
    "presentation": [
        "INFINITE", "BlockKind", "FiniteType", "Genus", "SurfacePresentation",
        "canonical_finite_type", "cyclic_states", "first_occurrences", "genus", "is_finite_type",
        "parse_presentation", "pretty_print", "regularize", "splice_annulus",
        "standard_presentation", "states_after_cycles",
    ],
    "rewrite": [
        "HOMEO", "PLUS_MINUS_ONE", "UNKNOWN", "ZERO", "Component", "ComponentKind", "CurveConfig",
        "Degree", "GlobalDegree", "Homeo", "Other", "PlusMinusOne", "RewriteTrace", "TraceStep",
        "Unknown", "Zero", "alexander_homotopy", "annulus_push", "curve_config_from_json",
        "curve_config_to_json", "r1_disk_removal", "r2_homeo_normalize", "r3_annulus_removal",
        "r4_surjectivity_endgame", "radial_extension", "run_pipeline",
    ],
}
ALL = sorted(name for names in EXPORTS.values() for name in names)

_LOADED = 'print(json.dumps(sorted(m for m in sys.modules if m.startswith("endkit."))))'


def child_json(code: str):
    """Run ``code`` in a fresh interpreter and read the JSON it prints last."""
    proc = run_python("-c", "import json, sys\n" + code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    assert child_json("import endkit\n" + _LOADED) in ([], ["endkit.errors"])


@pytest.mark.parametrize(
    "before",
    ["", "import endkit.decompose", "from endkit import spine", "import endkit; endkit.spine"],
    ids=["first", "after-submodule", "after-sibling-name", "after-attribute"],
)
def test_decompose_is_the_function_in_any_import_order(before):
    code = before + "\nfrom endkit import decompose\nimport endkit\n" + (
        "print(json.dumps([type(decompose).__name__, endkit.decompose is decompose,"
        " decompose is sys.modules['endkit.decompose'].decompose]))"
    )
    assert child_json(code) == ["function", True, True]


def test_every_export_is_its_submodule_object():
    code = (
        "import importlib, endkit\n"
        f"exports = {EXPORTS!r}\n"
        "print(json.dumps([[module, name] for module, names in exports.items() for name in names\n"
        "    if getattr(endkit, name) is not getattr(importlib.import_module('endkit.' + module), name)]))"
    )
    assert child_json(code) == []
    code = "import endkit\nprint(json.dumps([sorted(endkit.__all__), dir(endkit)]))"
    names, listed = child_json(code)
    assert names == ALL
    assert set(ALL) <= set(listed)


def test_unknown_names_raise_attribute_error():
    code = (
        "import endkit\n"
        "caught = []\n"
        "for name in ('no_such_name', 'cli', 'Path'):\n"
        "    try:\n"
        "        getattr(endkit, name)\n"
        "    except AttributeError:\n"
        "        caught.append(name)\n"
        "try:\n"
        "    from endkit import no_such_name\n"
        "except ImportError:\n"
        "    caught.append('from-import')\n"
        "print(json.dumps([caught, [m for m in sys.modules if m.startswith('endkit.')]]))"
    )
    assert child_json(code) == [["no_such_name", "cli", "Path", "from-import"], []]


def test_star_import_binds_every_export():
    code = (
        "from endkit import *\n"
        f"print(json.dumps([[n for n in {ALL!r} if n not in globals()], type(decompose).__name__]))"
    )
    assert child_json(code) == [[], "function"]


def test_submodules_stay_reachable_as_attributes():
    code = "import endkit\nprint(json.dumps([endkit.ends.__name__, endkit.rewrite.__name__]))"
    assert child_json(code) == ["endkit.ends", "endkit.rewrite"]
