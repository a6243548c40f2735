"""Transversal curve configurations and the cleanup rewriting pipeline.

A :class:`CurveConfig` records how the preimage of a family of decomposition
circles sits in a surface: which circles are met, which preimage components
bound disks (trivial) versus stay essential (primitive), how trivial
components nest, and in what order parallel primitive components stack over
each target circle.  Four rewrite rules clean a configuration up:

* :func:`r1_disk_removal` deletes all trivial components at once,
* :func:`r2_homeo_normalize` upgrades primitive restriction labels to
  homeomorphisms when the ambient map is bijective on loops,
* :func:`r3_annulus_removal` collapses parallel primitive components down to
  one per target circle,
* :func:`r4_surjectivity_endgame` certifies that a map of non-zero degree
  still hits every target circle exactly once.

:func:`run_pipeline` chains the rules and records a :class:`RewriteTrace`.
The module also evaluates two explicit homotopy formulas numerically:
:func:`alexander_homotopy` (coning a punctured-disk self-map off to its
boundary behaviour) and :func:`annulus_push` (sliding an annulus map until a
target circle is hit only by the far boundary).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from enum import Enum

from ._record import Record, _is_int, replace
from .errors import (
    DegreeUnknownError,
    DomainError,
    InconsistentConfigurationError,
    InvalidCurveConfigError,
    LabelsNotNormalizedError,
    TrivialComponentsPresentError,
)

_TOL = 1e-9


class ComponentKind(Enum):
    TRIVIAL = "Trivial"
    PRIMITIVE = "Primitive"


class Degree(Record):
    """Restriction label: the component covers its target circle with this degree."""

    __slots__ = ("value",)


class Homeo(Record):
    """Restriction label: the component maps homeomorphically onto its target."""

    __slots__ = ()


HOMEO = Homeo()


class Component(Record):
    __slots__ = ("id", "target", "kind", "label")
    _defaults = {"label": None}

    def _check(self) -> None:
        if self.kind is ComponentKind.TRIVIAL:
            if self.label is not None:
                raise InvalidCurveConfigError(
                    f"trivial component {self.id} cannot carry a restriction label"
                )
        elif self.label is None:
            raise InvalidCurveConfigError(
                f"primitive component {self.id} needs a restriction label"
            )


class Unknown(Record):
    """Global degree not yet committed."""

    __slots__ = ()


class Zero(Record):
    """Global degree zero: the map may miss target circles."""

    __slots__ = ()


class PlusMinusOne(Record):
    """Global degree of modulus one."""

    __slots__ = ()


class Other(Record):
    """Committed global degree outside {0, 1, -1}."""

    __slots__ = ("value",)

    def _check(self) -> None:
        if self.value in (-1, 0, 1):
            raise InvalidCurveConfigError(
                f"degree {self.value} belongs to a dedicated class, not Other"
            )


UNKNOWN = Unknown()
ZERO = Zero()
PLUS_MINUS_ONE = PlusMinusOne()

GlobalDegree = Unknown | Zero | PlusMinusOne | Other


class CurveConfig(Record):
    """A finite window of circle preimages, up to isotopy data.

    ``nesting`` is a forest over trivial components given as (child, parent)
    pairs; components absent from it are outermost.  ``parallel_orders``
    fixes, per target circle, the stacking order of its primitive
    components; when omitted for a circle the order defaults to component
    ids ascending.  Constructors accept mappings for both and normalize to
    sorted tuples, so equality is structural.
    """

    __slots__ = (
        "target_circles", "components", "nesting", "parallel_orders", "pi1_bijective",
        "global_degree",
    )
    _defaults = {"nesting": (), "parallel_orders": (), "pi1_bijective": False, "global_degree": UNKNOWN}

    def _check(self) -> None:
        targets = tuple(self.target_circles)
        if not all(isinstance(t, str) for t in targets):
            raise InvalidCurveConfigError("target circle ids must be strings")
        if len(set(targets)) != len(targets):
            raise InvalidCurveConfigError("duplicate target circle id")
        object.__setattr__(self, "target_circles", targets)

        comps = tuple(sorted(self.components, key=lambda c: c.id))
        by_id = {c.id: c for c in comps}
        if len(by_id) != len(comps):
            raise InvalidCurveConfigError("duplicate component id")
        for c in comps:
            if c.target not in targets:
                raise InvalidCurveConfigError(
                    f"component {c.id} lies over unknown target circle {c.target!r}"
                )
        object.__setattr__(self, "components", comps)

        raw_nesting = self.nesting
        if isinstance(raw_nesting, Mapping):
            pairs = [
                (child, parent)
                for child, parent in raw_nesting.items()
                if parent is not None
            ]
        else:
            pairs = [(child, parent) for child, parent in raw_nesting]
        pairs.sort()
        parent_of = dict(pairs)
        if len(parent_of) != len(pairs):
            raise InvalidCurveConfigError("component listed with two nesting parents")
        for child, parent in pairs:
            for end in (child, parent):
                member = by_id.get(end)
                if member is None or member.kind is not ComponentKind.TRIVIAL:
                    raise InvalidCurveConfigError(
                        f"nesting may only relate trivial components, got {end}"
                    )
            if child == parent:
                raise InvalidCurveConfigError(f"component {child} nested in itself")
        walk_of: dict[int, int] = {}  # component -> start of the first walk that met it
        for start in parent_of:
            node: int | None = start
            while node is not None and node not in walk_of:
                walk_of[node] = start
                node = parent_of.get(node)
            if node is not None and walk_of[node] == start:  # the walk met itself
                raise InvalidCurveConfigError("nesting contains a cycle")
        object.__setattr__(self, "nesting", tuple(pairs))

        raw_orders = self.parallel_orders
        if isinstance(raw_orders, Mapping):
            given = {t: tuple(order) for t, order in raw_orders.items()}
        else:
            given = {t: tuple(order) for t, order in raw_orders}
        primitives: dict[str, list[int]] = {t: [] for t in targets}
        for c in comps:
            if c.kind is ComponentKind.PRIMITIVE:
                primitives[c.target].append(c.id)
        for t in given:
            if t not in primitives:
                raise InvalidCurveConfigError(
                    f"parallel order names unknown target circle {t!r}"
                )
        orders = []
        for t in targets:
            order = given.get(t, tuple(primitives[t]))
            if sorted(order) != primitives[t]:
                raise InvalidCurveConfigError(
                    f"parallel order on {t!r} must list exactly its primitive components"
                )
            orders.append((t, order))
        object.__setattr__(self, "parallel_orders", tuple(orders))

    def measure(self) -> tuple[int, int]:
        """The pair (trivial count, excess-parallel count) the cleanup shrinks."""
        trivial = sum(1 for c in self.components if c.kind is ComponentKind.TRIVIAL)
        excess = sum(max(0, len(order) - 1) for _, order in self.parallel_orders)
        return trivial, excess

    def primitive_counts(self) -> dict[str, int]:
        """How many primitive components lie over each target circle."""
        return {target: len(order) for target, order in self.parallel_orders}


class TraceStep(Record):
    __slots__ = ("rule", "before", "after")

    def _check(self) -> None:
        shrank = (
            self.after[0] <= self.before[0]
            and self.after[1] <= self.before[1]
            and self.after != self.before
        )
        if not shrank:
            raise InvalidCurveConfigError("trace steps must shrink the measure")

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "before": {"trivial": self.before[0], "excess_parallel": self.before[1]},
            "after": {"trivial": self.after[0], "excess_parallel": self.after[1]},
        }


class RewriteTrace(Record):
    """Effective rule applications with before and after cleanup measures.

    Only measure-shrinking applications become steps; label upgrades leave
    the measure alone and are kept as free-form notes instead.
    """

    __slots__ = ("steps", "notes")
    _defaults = {"steps": (), "notes": ()}


def _has_trivial(config: CurveConfig) -> bool:
    return any(c.kind is ComponentKind.TRIVIAL for c in config.components)


def _labels_normalized(config: CurveConfig) -> bool:
    return all(
        isinstance(c.label, Homeo)
        for c in config.components
        if c.kind is ComponentKind.PRIMITIVE
    )


def r1_disk_removal(config: CurveConfig) -> CurveConfig:
    """Delete every trivial component in one go.

    All outermost disks are handled simultaneously, so the whole nesting
    forest vanishes in a single application.  Primitive components, their
    labels and their stacking orders are left bit for bit alone.
    """
    if not _has_trivial(config):
        return config
    kept = tuple(c for c in config.components if c.kind is ComponentKind.PRIMITIVE)
    return replace(config, components=kept, nesting=())


def r2_homeo_normalize(config: CurveConfig) -> CurveConfig:
    """Upgrade primitive restriction labels to homeomorphisms.

    Needs a trivial-free configuration.  When the ambient map is bijective
    on loops, every primitive component must restrict to a homeomorphism,
    so all Degree labels are rewritten; `run_pipeline` notes each label
    coerced from a degree of modulus other than one.  Without loop
    bijectivity the labels stay put.
    """
    if _has_trivial(config):
        raise TrivialComponentsPresentError(
            "remove trivial components before normalizing labels"
        )
    if not config.pi1_bijective or not any(isinstance(c.label, Degree) for c in config.components):
        # Constant-or-covering dichotomy: without loop bijectivity any Degree
        # label is already legal, so validation leaves the configuration alone.
        return config
    rebuilt = tuple(
        Component(c.id, c.target, c.kind, HOMEO) if isinstance(c.label, Degree) else c
        for c in config.components
    )
    return replace(config, components=rebuilt, nesting=())


def r3_annulus_removal(config: CurveConfig) -> CurveConfig:
    """Collapse parallel primitive components to at most one per circle.

    Needs every primitive label to be Homeo.  Consecutive parallel
    components co-bound annuli, which are compressed away outermost first;
    the first component of each stacking order survives.
    """
    for c in config.components:
        if c.kind is ComponentKind.PRIMITIVE and not isinstance(c.label, Homeo):
            raise LabelsNotNormalizedError(
                f"component {c.id} still carries label {c.label}"
            )
    survivors = {order[0] for _, order in config.parallel_orders if order}
    kept = tuple(
        c
        for c in config.components
        if c.kind is ComponentKind.TRIVIAL or c.id in survivors
    )
    if len(kept) == len(config.components):
        return config
    return replace(
        config,
        components=kept,
        parallel_orders={t: order[:1] for t, order in config.parallel_orders},
    )


def r4_surjectivity_endgame(config: CurveConfig) -> CurveConfig:
    """Certify that every target circle is hit exactly once.

    A committed non-zero degree forces surjectivity, so a target circle
    with no primitive component left is a contradiction rather than a
    recoverable state; degree zero places no demand.  The configuration
    itself is never changed.
    """
    if isinstance(config.global_degree, Unknown):
        raise DegreeUnknownError("commit a global degree before the endgame")
    if isinstance(config.global_degree, Zero):
        return config
    if _has_trivial(config):
        raise InconsistentConfigurationError(
            "trivial components survive a non-zero-degree cleanup"
        )
    if not _labels_normalized(config):
        raise InconsistentConfigurationError(
            "labels not yet homeomorphisms under a committed non-zero degree"
        )
    for target, order in config.parallel_orders:
        if len(order) != 1:
            raise InconsistentConfigurationError(
                f"target circle {target!r} is covered {len(order)} times under a "
                "degree that forces exactly one"
            )
    return config


_RULES: dict[str, Callable[[CurveConfig], CurveConfig]] = {
    name: rule
    for rule in (
        r1_disk_removal,
        r2_homeo_normalize,
        r3_annulus_removal,
        r4_surjectivity_endgame,
    )
    for name in (rule.__name__, rule.__name__[:2])
}


def run_pipeline(
    config: CurveConfig,
    schedule: list[str] | tuple[str, ...] | None = None,
) -> tuple[CurveConfig, RewriteTrace]:
    """Apply the cleanup rules in order and collect a trace.

    ``schedule`` is a sequence of rule names (``"r1"`` .. ``"r4"`` or the
    full function names); precondition violations propagate as errors.
    When omitted, the rules run in their standard order, skipping the ones
    whose preconditions the configuration does not meet: annulus removal
    only fires once every primitive label is Homeo, and the endgame only
    fires once a global degree is committed.
    """
    steps: list[TraceStep] = []
    notes: list[str] = []

    def apply(name: str, current: CurveConfig) -> CurveConfig:
        rule = _RULES[name]
        after = rule(current)
        if after is not current:
            before = {c.id: c.label for c in current.components}
            for c in after.components:
                label = before[c.id]
                if isinstance(label, Degree) and abs(label.value) != 1 and isinstance(c.label, Homeo):
                    notes.append(f"{rule.__name__}: component {c.id} coerced from Degree({label.value}) to Homeo")
        if after.measure() != current.measure():
            steps.append(TraceStep(rule.__name__, current.measure(), after.measure()))
        return after

    current = config
    if schedule is None:
        current = apply("r1", current)
        current = apply("r2", current)
        if _labels_normalized(current):
            current = apply("r3", current)
        if not isinstance(current.global_degree, Unknown):
            current = apply("r4", current)
    else:
        for name in schedule:
            if name not in _RULES:
                raise InvalidCurveConfigError(f"unknown rewrite rule {name!r}")
            current = apply(name, current)
    return current, RewriteTrace(tuple(steps), tuple(notes))


def _label_to_json(label: Degree | Homeo) -> object:
    if isinstance(label, Homeo):
        return "Homeo"
    return {"degree": label.value}


def _degree_to_json(degree: GlobalDegree) -> object:
    if isinstance(degree, Unknown):
        return "unknown"
    if isinstance(degree, Zero):
        return "zero"
    if isinstance(degree, PlusMinusOne):
        return "plus-minus-one"
    return {"other": degree.value}


def curve_config_to_json(config: CurveConfig) -> dict:
    parent_of = dict(config.nesting)
    nesting = {
        str(c.id): parent_of.get(c.id)
        for c in config.components
        if c.kind is ComponentKind.TRIVIAL
    }
    components = []
    for c in config.components:
        entry: dict = {"id": c.id, "target": c.target, "kind": c.kind.value}
        if c.label is not None:
            entry["label"] = _label_to_json(c.label)
        components.append(entry)
    return {
        "target_circles": list(config.target_circles),
        "components": components,
        "nesting": nesting,
        "parallel_orders": {t: list(order) for t, order in config.parallel_orders},
        "pi1_bijective": config.pi1_bijective,
        "global_degree": _degree_to_json(config.global_degree),
    }


def _label_from_json(data: object) -> Degree | Homeo:
    if data == "Homeo":
        return HOMEO
    if isinstance(data, Mapping) and set(data) == {"degree"}:
        return Degree(_json_int(data["degree"]))
    raise InvalidCurveConfigError(f"unreadable restriction label {data!r}")


def _degree_from_json(data: object) -> GlobalDegree:
    named = {"unknown": UNKNOWN, "zero": ZERO, "plus-minus-one": PLUS_MINUS_ONE}
    if isinstance(data, str) and data in named:
        return named[data]
    if isinstance(data, Mapping) and set(data) == {"other"}:
        return Other(_json_int(data["other"]))
    raise InvalidCurveConfigError(f"unreadable global degree {data!r}")


def _json_int(value: object) -> int:
    if not _is_int(value):
        raise InvalidCurveConfigError(f"expected an integer, got {value!r}")
    return value


def curve_config_from_json(data: Mapping) -> CurveConfig:
    """Rebuild a configuration from its JSON form.  Ids and degrees must be
    JSON integers, nesting keys ids exactly as ``str(id)`` writes them, and
    ``pi1_bijective`` true or false."""
    try:
        components = tuple(
            Component(
                id=_json_int(entry["id"]),
                target=entry["target"],
                kind=ComponentKind(entry["kind"]),
                label=_label_from_json(entry["label"]) if "label" in entry else None,
            )
            for entry in data["components"]
        )
        nesting = {}
        for child, parent in dict(data.get("nesting", {})).items():
            if not isinstance(child, str) or str(int(child)) != child:
                raise InvalidCurveConfigError(f"expected a component id key, got {child!r}")
            nesting[int(child)] = None if parent is None else _json_int(parent)
        pi1_bijective = data.get("pi1_bijective", False)
        if not isinstance(pi1_bijective, bool):
            raise InvalidCurveConfigError(f"pi1_bijective must be true or false, got {pi1_bijective!r}")
        config = CurveConfig(
            target_circles=tuple(data["target_circles"]),
            components=components,
            nesting=nesting,
            parallel_orders={
                t: tuple(map(_json_int, order))
                for t, order in dict(data.get("parallel_orders", {})).items()
            },
            pi1_bijective=pi1_bijective,
            global_degree=_degree_from_json(data.get("global_degree", "unknown")),
        )
    except InvalidCurveConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidCurveConfigError(f"malformed curve configuration: {exc}") from exc
    return config


def alexander_homotopy(
    phi: Callable[[complex], complex], z: complex, t: float
) -> complex:
    """Evaluate the coning homotopy of a punctured-disk self-map.

    At ``t = 0`` this is ``phi`` itself.  As ``t`` grows, the disk of
    radius ``1 - t`` carries a shrunk copy of ``phi`` while the outer
    annulus interpolates radially, and at ``t = 1`` only the boundary
    behaviour of ``phi`` survives, extended radially inward.
    """
    if not 0 <= t <= 1:
        raise DomainError(f"homotopy time {t!r} outside [0, 1]")
    z = complex(z)
    r = abs(z)
    if r == 0:
        raise DomainError("the puncture z = 0 is outside the domain")
    if r > 1 + _TOL:
        raise DomainError(f"|z| = {r} exceeds 1")
    if t < 1 and r <= 1 - t:
        return (1 - t) * phi(z / (1 - t))
    return r * phi(z / r)


def annulus_push(
    phi1: Callable,
    phi2: Callable,
    z,
    s,
    t,
) -> tuple:
    """Slide an annulus map until the far target circle is hit only at s = 3.

    ``phi1`` and ``phi2`` are the circle and radial coordinates of a map
    from ``S^1 x [1, 3]`` into ``S^1 x [1, 2]``, with ``phi2`` landing in
    ``[1, 2]``.  The radial coordinate is interpolated against the affine
    profile carrying ``[1, 3]`` onto ``[1, 2]``, so at ``t = 1`` the
    preimage of the level 2 circle is exactly the ``s = 3`` boundary.
    Exact arithmetic such as :class:`fractions.Fraction` passes through
    untouched.
    """
    if s < 1 or s > 3:
        raise DomainError(f"annulus coordinate {s!r} outside [1, 3]")
    if t < 0 or t > 1:
        raise DomainError(f"homotopy time {t!r} outside [0, 1]")
    radial = phi2(z, s)
    if radial < 1 or radial > 2:
        raise DomainError(f"phi2 value {radial!r} outside the target interval [1, 2]")
    level = 1 + (s - 1) / 2
    return phi1(z, s), (1 - t) * radial + t * level
