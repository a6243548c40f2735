"""Toolkit for non-compact surfaces presented by block-gluing rules.

Surfaces are described by finite rule systems gluing annuli, pants and
handles; the package computes their classifying invariants (genus, ends
space, Cantor-Bendixson analysis), decides homeomorphism on the tractable
fragment, decomposes surfaces into pants windows, rewrites transversal
curve configurations, and tracks proper-map degrees symbolically.

``import endkit`` loads no submodule: each public name below is imported
from its submodule on first use (PEP 562) and then bound here.
"""

import importlib
import sys
import types

_NAMES = {
    "classify": "ClassifierVerdict ClassVerdict distinct_family kerekjarto realize",
    "decompose": "ComponentCensus DecompositionGraph EssentialPants Piece PieceKind SpineGraph"
    " decompose decomposition_to_dot find_essential_pants graph_phe_equal interchange_normalize"
    " spine spine_to_dot",
    "degree": "MapDescriptor descriptor_from_json descriptor_to_json infer_degree",
    "ends": "Cantor Cardinality CBReport EndExpr EndsAutomaton EndsCount Pt Seq Union Verdict"
    " cb_report cb_report_to_json ends_automaton ends_count ends_count_to_json expr_cb_report"
    " format_end_expr normalize_end_expr pair_homeomorphic parse_end_expr to_end_expr"
    " validate_end_expr",
    "errors": "BoundaryCountMismatchError ClassifyError ComplexityTooLowError DanglingRuleError"
    " DecomposeError DegreeContradictionError DegreeError DegreeUnknownError DomainError"
    " EndkitError EndsError InconsistentConfigurationError InconsistentInvariantsError"
    " InvalidCurveConfigError InvalidEndExprError LabelsNotNormalizedError NotConvertibleError"
    " NotFiniteTypeError OccurrenceInsideCycleError PlaneExcludedError PresentationError"
    " PresentationSyntaxError PuncturedTorusExcludedInStrictError RewriteError"
    " TrivialComponentsPresentError UnreachableRuleError",
    "presentation": "INFINITE BlockKind FiniteType Genus SurfacePresentation canonical_finite_type"
    " first_occurrences genus is_finite_type parse_presentation pretty_print regularize"
    " splice_annulus standard_presentation",
    "rewrite": "HOMEO PLUS_MINUS_ONE UNKNOWN ZERO Component ComponentKind CurveConfig Degree"
    " GlobalDegree Homeo Other PlusMinusOne RewriteTrace TraceStep Unknown Zero"
    " alexander_homotopy annulus_push curve_config_from_json curve_config_to_json"
    " r1_disk_removal r2_homeo_normalize r3_annulus_removal r4_surjectivity_endgame"
    " run_pipeline",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
        globals()[name] = value
        return value
    if name in _NAMES:  # a submodule, as `endkit.ends` after a bare `import endkit`
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    # Loading a submodule binds it on its package; `decompose` stays the
    # function decompose.decompose, whichever import comes first.
    def __setattr__(self, name: str, value) -> None:
        if name != "decompose" or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
