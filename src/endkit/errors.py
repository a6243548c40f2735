"""Exception hierarchy.

Every error carries a ``module`` tag so the CLI can emit a machine-readable
error object naming the failing component.
"""


class EndkitError(Exception):
    module = "endkit"

    @property
    def case(self) -> str:
        return type(self).__name__


# -- surface presentations ------------------------------------------------

class PresentationError(EndkitError):
    module = "surfaces"


class PresentationSyntaxError(PresentationError):
    """Input does not conform to the .surf grammar."""


class DanglingRuleError(PresentationError):
    """A rule references a name that is never defined."""


class UnreachableRuleError(PresentationError):
    """A rule can never be reached from the root."""


class NotFiniteTypeError(PresentationError):
    """canonical_finite_type on an infinite-type presentation."""


# -- ends space ------------------------------------------------------------

class EndsError(EndkitError):
    module = "ends"


class NotConvertibleError(EndsError):
    """Ends space falls outside the expression algebra's fragment."""


class InvalidEndExprError(EndsError):
    """Expression does not denote a space with a closed marked subset."""


# -- classification --------------------------------------------------------

class ClassifyError(EndkitError):
    module = "classify"


class InconsistentInvariantsError(ClassifyError):
    """Genus and ends data violate a realizability constraint."""


# -- decomposition ---------------------------------------------------------

class DecomposeError(EndkitError):
    module = "decompose"


class PlaneExcludedError(DecomposeError):
    """The plane admits no decomposition into the allowed pieces."""


class PuncturedTorusExcludedInStrictError(DecomposeError):
    """The once-punctured torus needs a one-holed torus piece."""


class OccurrenceInsideCycleError(DecomposeError):
    """A named block occurrence repeats along a rule-graph cycle."""


class ComplexityTooLowError(DecomposeError):
    """Surface too simple to contain an essential pair of pants."""


# -- curve rewriting -------------------------------------------------------

class RewriteError(EndkitError):
    module = "rewrite"


class InvalidCurveConfigError(RewriteError):
    """Curve configuration violates a structural invariant."""


class TrivialComponentsPresentError(RewriteError):
    """Rule requires trivial components to have been removed first."""


class LabelsNotNormalizedError(RewriteError):
    """Rule requires all primitive labels to be Homeo."""


class InconsistentConfigurationError(RewriteError):
    """Configuration contradicts the recorded global degree."""


class DegreeUnknownError(RewriteError):
    """Surjectivity endgame needs a committed global degree."""


class DomainError(RewriteError):
    """Numeric argument outside the formula's domain."""


# -- degree ledger ---------------------------------------------------------

class DegreeError(EndkitError):
    module = "degree"


class DegreeContradictionError(DegreeError):
    """Recorded facts force two different degrees."""


class BoundaryCountMismatchError(DegreeError):
    """A boundary embedding needs equal boundary counts."""
