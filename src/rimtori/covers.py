"""Explicit covers of torus divisors, in exact rational arithmetic.

For a two-torus divisor with no swept classes, the contact cover of the
product of contact copies is C x T, where T is the subtorus of tuples
whose weighted sum is a lattice point.  Points carry rational complex
coordinates (pairs of Fractions), reduced mod Z + iZ on torus factors
after every operation, so equality is decidable and every identity below
is checked exactly.  Float and bool coordinate parts and weights that are
not ints are refused with a TypeError, never coerced.  Only the two-torus
model gets a point-level API; higher-dimensional tori are summarized by
their rank profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import Subgroup
from .matrices import require_ints

Complex = tuple[Fraction, Fraction]


def _as_complex(value) -> Complex:
    re, im = value
    for x in (re, im):
        if isinstance(x, (float, bool)):
            raise TypeError(f"coordinates must be exact, not {type(x).__name__} {x!r}")
    return (Fraction(re), Fraction(im))


def _mod1(value: Complex) -> Complex:
    return (value[0] - math.floor(value[0]), value[1] - math.floor(value[1]))


def _add(a: Complex, b: Complex) -> Complex:
    return (a[0] + b[0], a[1] + b[1])


def _scale(c: Fraction | int, a: Complex) -> Complex:
    return (c * a[0], c * a[1])


def _is_lattice(a: Complex) -> bool:
    return a[0].denominator == 1 and a[1].denominator == 1


@dataclass(frozen=True)
class TorusPoint:
    """A point of T^(2l): l complex coordinates, each taken mod Z + iZ.

    Coordinates are stored as the canonical representative with both
    rational parts in [0, 1).
    """

    coordinates: tuple[Complex, ...]

    @staticmethod
    def of(coordinates: Sequence) -> TorusPoint:
        return TorusPoint(tuple(_mod1(_as_complex(z)) for z in coordinates))


@dataclass(frozen=True)
class CoverPoint:
    """A point (z, torus part) of the cover C x T."""

    z: Complex
    torus: TorusPoint

    @staticmethod
    def of(z, coordinates: Sequence) -> CoverPoint:
        return CoverPoint(_as_complex(z), TorusPoint.of(coordinates))


def weighted_sum(weights: Sequence[int], point: TorusPoint) -> Complex:
    require_ints([weights], "weights")
    if len(weights) != len(point.coordinates):
        raise ValueError("weight tuple length does not match point length")
    total = (Fraction(0), Fraction(0))
    for s, z in zip(weights, point.coordinates):
        total = _add(total, _scale(s, z))
    return total


def in_weighted_subtorus(weights: Sequence[int], point: TorusPoint) -> bool:
    """Membership in the subtorus where the weighted coordinate sum is integral."""
    return _is_lattice(weighted_sum(weights, point))


def _require_weights(weights):
    if not weights:
        raise ValueError("at least one contact point required")
    require_ints([weights], "weights")
    if any(s == 0 for s in weights):
        raise ValueError("weights must be nonzero")


def _require_member(weights, cp):
    _require_weights(weights)
    if not in_weighted_subtorus(weights, cp.torus):
        raise ValueError("point violates the weighted-sum membership constraint")


def cover_project(weights: Sequence[int], cp: CoverPoint) -> TorusPoint:
    """Covering projection: coordinate i maps to z_i - z / s_i."""
    _require_member(weights, cp)
    shifted = [_add(zi, _scale(Fraction(-1, si), cp.z))
               for si, zi in zip(weights, cp.torus.coordinates)]
    return TorusPoint.of(shifted)


def deck_act(weights: Sequence[int], loops: Sequence, cp: CoverPoint) -> CoverPoint:
    """Deck transformation induced by a tuple of lattice loops.

    The z factor shifts by the weighted loop average; each torus
    coordinate shifts by the same quantity divided by its weight.  The
    membership constraint is preserved, and the projection to the base is
    unchanged.
    """
    _require_member(weights, cp)
    ell = len(weights)
    if len(loops) != ell:
        raise ValueError("one lattice loop per contact point required")
    total = (Fraction(0), Fraction(0))
    for s, gamma in zip(weights, loops):
        g = _as_complex(gamma)
        if not _is_lattice(g):
            raise ValueError("loops must be lattice vectors")
        total = _add(total, _scale(s, g))
    shift = _scale(Fraction(1, ell), total)
    new_coords = [_add(zi, _scale(Fraction(1, si), shift))
                  for si, zi in zip(weights, cp.torus.coordinates)]
    return CoverPoint(_add(cp.z, shift), TorusPoint.of(new_coords))


def lift_linear_loop(weights: Sequence[int], slopes: Sequence) -> CoverPoint:
    """Endpoint displacement of the lift of the linear loops t -> t * slope_i.

    The lifted path starts at the origin of the cover and ends, at t = 1,
    where the deck action of the same loop tuple sends the origin.
    """
    return deck_act(weights, slopes, CoverPoint.of((0, 0), [(0, 0)] * len(weights)))


def base_point(weights: Sequence[int], gamma) -> CoverPoint:
    """Distinguished cover point attached to a sheet representative.

    For a representative loop class gamma the point has z = gamma / l and
    torus coordinates gamma / (l * s_i); it satisfies the membership
    constraint and projects to the origin of the base.
    """
    _require_weights(weights)
    ell = len(weights)
    g = _as_complex(gamma)
    if not _is_lattice(g):
        raise ValueError("the sheet representative must be a lattice vector")
    z = _scale(Fraction(1, ell), g)
    coords = [_scale(Fraction(1, ell * si), g) for si in weights]
    return CoverPoint(z, TorusPoint.of(coords))


def rank_profile(m: int, swept: Subgroup, weights: Sequence[int]) -> tuple[int, int]:
    """Euclidean and torus dimensions of the cover of an m-torus divisor.

    Returns (r0, torus_dim): the cover of the product of len(weights)
    copies of the m-torus is homotopy equivalent to R^r0 x (S^1)^torus_dim,
    where r0 is the free rank of Z^m modulo the swept subgroup.
    """
    if swept.ambient.ambient_rank != m or not swept.ambient.relations.is_zero():
        raise ValueError("the swept subgroup must live in the free ambient Z^m")
    _require_weights(weights)
    r0 = swept.quotient_group().free_rank()
    return r0, m * len(weights) - r0
