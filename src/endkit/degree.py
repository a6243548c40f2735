"""Symbolic degree ledger for proper maps between surfaces.

A :class:`MapDescriptor` records what is known about a proper map: evidence
flags (properness, surjectivity, boundary behaviour, whether the map is a
proper homotopy equivalence or merely a pseudo one) and the absolute value
of its degree where determined.  :func:`infer_degree` closes a descriptor
under the implications that tie these together, raising when they clash.
Degrees are tracked only up to sign; a sign is only ever the descriptor's
given ``orientation``, which inference leaves as it is.
"""

from __future__ import annotations

from collections.abc import Mapping

from ._record import Record, _is_int, replace
from .errors import BoundaryCountMismatchError, DegreeContradictionError, DegreeError

# the fields that are true or false; every other field may be None, unknown
_BOOLEAN = (
    "proper", "proper_homotopy_equivalence", "pseudo_phe", "target_plane_or_punctured_plane",
    "pi1_surjective",
)


class MapDescriptor(Record):
    """Evidence about one proper map, to be closed under inference.

    Boolean flags mean "known to hold"; the tri-state fields
    ``surjective`` and ``ends_map_injective`` distinguish known-false from
    unknown, because a known failure is itself load-bearing evidence.
    """

    __slots__ = (
        "proper", "surjective", "boundary_embedding", "proper_homotopy_equivalence", "pseudo_phe",
        "target_plane_or_punctured_plane", "ends_map_injective", "orientation", "abs_degree",
        "pi1_surjective",
    )
    _defaults = {**dict.fromkeys(__slots__), **dict.fromkeys(_BOOLEAN, False)}

    def _check(self) -> None:
        if self.boundary_embedding is not None:
            b1, b2 = self.boundary_embedding
            if not (_is_int(b1) and _is_int(b2)):
                raise DegreeError(f"boundary counts must be integers, got {self.boundary_embedding!r}")
            object.__setattr__(self, "boundary_embedding", (b1, b2))
        for name in _BOOLEAN:
            if not isinstance(getattr(self, name), bool):
                raise DegreeError(f"{name} must be true or false, got {getattr(self, name)!r}")
        for name in ("surjective", "ends_map_injective"):
            if getattr(self, name) is not None and not isinstance(getattr(self, name), bool):
                raise DegreeError(f"{name} must be true, false or unknown")
        if self.orientation is not None and not (
            _is_int(self.orientation) and self.orientation in (1, -1)
        ):
            raise DegreeError(f"orientation must be +1 or -1, got {self.orientation!r}")
        if self.abs_degree is not None and not (_is_int(self.abs_degree) and self.abs_degree >= 0):
            raise DegreeError(f"absolute degree must be a natural number, got {self.abs_degree!r}")


def _set(desc: MapDescriptor, field: str, value) -> MapDescriptor:
    current = getattr(desc, field)
    if current == value:
        return desc
    if current is not None and not (current is False and value is True and field in _FLAGS):
        raise DegreeContradictionError(
            f"{field} forced to {value!r} but already {current!r}"
        )
    return replace(desc, **{field: value})


# Plain evidence flags where False means unknown, so strengthening to True
# is narrowing, not a clash.  Tri-state fields are deliberately absent.
_FLAGS = {"proper", "pseudo_phe", "pi1_surjective"}


def infer_degree(descriptor: MapDescriptor) -> MapDescriptor:
    """Close a descriptor under the degree implications.

    The rules only narrow what is known, applied in this order:

    * a proper homotopy equivalence is a pseudo one, and a pseudo one is
      proper;
    * a known non-surjective map has degree 0;
    * a boundary embedding needs matching boundary counts and forces
      absolute degree 1;
    * a proper homotopy equivalence has absolute degree 1, and so does a
      pseudo one unless the target is the plane or the punctured plane;
    * a proper homotopy equivalence acts injectively on ends;
    * non-zero degree forces surjectivity, and absolute degree 1 forces
      surjectivity on loops.

    One pass reaches the fixpoint: each rule reads fields that no rule
    sets, fields that an earlier rule sets, or ``surjective``, which a
    later rule only ever sets to true while the degree-0 rule fires only
    on false.  So a second pass would change nothing.
    """
    desc = descriptor
    if desc.proper_homotopy_equivalence:
        desc = _set(desc, "pseudo_phe", True)
    if desc.pseudo_phe:
        desc = _set(desc, "proper", True)
    if desc.surjective is False:
        desc = _set(desc, "abs_degree", 0)
    if desc.boundary_embedding is not None:
        b1, b2 = desc.boundary_embedding
        if b1 != b2:
            raise BoundaryCountMismatchError(
                f"boundary embedding needs equal boundary counts, got {b1} and {b2}"
            )
        desc = _set(desc, "abs_degree", 1)
    if desc.proper_homotopy_equivalence:
        desc = _set(desc, "abs_degree", 1)
        if desc.ends_map_injective is False:
            raise DegreeContradictionError(
                "a proper homotopy equivalence is injective on ends"
            )
    if desc.pseudo_phe and not desc.target_plane_or_punctured_plane:
        desc = _set(desc, "abs_degree", 1)
    if desc.abs_degree is not None and desc.abs_degree >= 1:
        desc = _set(desc, "surjective", True)
    if desc.abs_degree == 1:
        desc = _set(desc, "pi1_surjective", True)
    return desc


def descriptor_to_json(descriptor: MapDescriptor) -> dict:
    out = dict(zip(MapDescriptor.__slots__, descriptor._values()))
    if descriptor.boundary_embedding is not None:
        out["boundary_embedding"] = list(descriptor.boundary_embedding)
    return out


def descriptor_from_json(data: Mapping) -> MapDescriptor:
    """Rebuild a descriptor from its JSON form; absent keys stay unknown.
    Values must have their exact JSON types: flags are true or false, counts
    and degrees integers, and null only where a field may be unknown."""
    if not isinstance(data, Mapping):
        raise DegreeError(f"malformed map descriptor: expected an object, got {data!r}")
    try:
        fields = {name: data.get(name, default) for name, default in MapDescriptor._defaults.items()}
        if fields["boundary_embedding"] is not None:
            fields["boundary_embedding"] = tuple(fields["boundary_embedding"])
        return MapDescriptor(**fields)
    except DegreeError:
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise DegreeError(f"malformed map descriptor: {exc}") from exc
