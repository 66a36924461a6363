"""Finitely generated abelian groups, subgroups, and homomorphisms.

A group is always presented as Z^n modulo the lattice spanned by the
columns of a relation matrix.  Subgroups of such a quotient are given by
generators in ambient coordinates; the relation lattice is implicitly
part of every span, which makes quotients of quotients and preimages
compose without special cases.  Rank-0 ambients and empty generator sets
are legal everywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .matrices import (
    IntMatrix,
    SmithDecomposition,
    block_diagonal,
    hermite_contains,
    hermite_form,
    kernel_projection,
    require_ints,
    smith_decomposition,
)


class AmbientMismatchError(ValueError):
    """Raised when an operation mixes objects over different ambient groups."""


class IllDefinedHomomorphismError(ValueError):
    """Raised when a matrix does not send source relations into target relations."""


CanonicalForm = tuple[int, tuple[int, ...]]

# the most cosets ``coset_representatives`` enumerates
COSET_LIMIT = 2**20


def format_canonical(form: CanonicalForm) -> str:
    """Render (free rank, invariant factors) as ``Z^r + Z/d1 + Z/d2``.

    Factors appear in divisibility order d1 | d2 | ...; the trivial group
    renders as ``0``.
    """
    rank, factors = form
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{d}" for d in factors)
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class FgAbGroup:
    """Z^ambient_rank modulo the column lattice of ``relations``.

    The one owner of the reduction chain, run at most once per object:
    ``relations``, their Hermite form (equality, hashing, rank, order, membership),
    and one Smith decomposition of that form (invariant factors, coordinates), whose
    multipliers stay small where the raw matrix's grow past 600,000 bits.
    A subgroup's lattice is its quotient group, so it is reduced here too.
    """

    ambient_rank: int
    relations: IntMatrix

    def __post_init__(self):
        if self.relations.rows != self.ambient_rank:
            raise ValueError("relation matrix must have ambient_rank rows")

    @staticmethod
    def free(rank: int) -> FgAbGroup:
        return FgAbGroup(rank, IntMatrix.zeros(rank, 0))

    @staticmethod
    def trivial() -> FgAbGroup:
        return FgAbGroup.free(0)

    @staticmethod
    def direct_sum_of(groups: Iterable[FgAbGroup]) -> FgAbGroup:
        """Direct sum in the given order, relation blocks along the diagonal."""
        groups = list(groups)
        return FgAbGroup(sum(g.ambient_rank for g in groups),
                         block_diagonal(g.relations for g in groups))

    @staticmethod
    def from_invariants(free_rank: int, torsion: Sequence[int]) -> FgAbGroup:
        """Z^free_rank plus a Z/d summand per entry of ``torsion``."""
        if any(d <= 1 for d in torsion):
            raise ValueError("torsion orders must exceed 1")
        cyclic = [FgAbGroup(1, IntMatrix.from_rows([[d]])) for d in torsion]
        return FgAbGroup.direct_sum_of([FgAbGroup.free(free_rank), *cyclic])

    @cached_property
    def _hermite(self) -> IntMatrix:
        return hermite_form(self.relations)

    @cached_property
    def _smith(self) -> SmithDecomposition:
        return smith_decomposition(self._hermite)

    # Two presentations are the same group when their relation lattices agree.
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FgAbGroup):
            return NotImplemented
        # equal relation matrices need no reduction; the hash reads the same form
        return self.ambient_rank == other.ambient_rank and (
            self.relations == other.relations or self._hermite == other._hermite)

    def __hash__(self) -> int:
        return hash((self.ambient_rank, self._hermite))

    def canonical_form(self) -> CanonicalForm:
        """Free rank and invariant factors > 1, in divisibility order."""
        return (self.free_rank(), tuple(d for d in self._smith.diagonal() if d > 1))

    def canonical_string(self) -> str:
        return format_canonical(self.canonical_form())

    def order(self) -> int | None:
        """Number of elements, or None when the group is infinite."""
        # a full-rank column Hermite form is square and triangular
        return None if self.free_rank() else math.prod(self._hermite.diagonal())

    def is_trivial(self) -> bool:
        return self.order() == 1

    def free_rank(self) -> int:
        return self.ambient_rank - self._hermite.cols

    # -- subgroups ------------------------------------------------------

    def subgroup(self, generators: IntMatrix | Sequence[Sequence[int]]) -> Subgroup:
        if not isinstance(generators, IntMatrix):
            generators = IntMatrix.from_columns(generators, rows=self.ambient_rank)
        return Subgroup(self, generators)

    def zero_subgroup(self) -> Subgroup:
        return self.subgroup(IntMatrix.zeros(self.ambient_rank, 0))

    def full_subgroup(self) -> Subgroup:
        return self.subgroup(IntMatrix.identity(self.ambient_rank))

    def contains_vector(self, vector: Sequence[int]) -> bool:
        """Whether the class of ``vector`` is zero, i.e. lies in the relations."""
        return hermite_contains(self._hermite, vector)

    # -- constructions ----------------------------------------------------

    def quotient(self, sub: Subgroup) -> tuple[FgAbGroup, Homomorphism]:
        """Quotient by a subgroup, with the projection homomorphism."""
        if sub.ambient != self:
            raise AmbientMismatchError("subgroup lives in a different ambient group")
        quot = sub.quotient_group()
        return quot, Homomorphism(self, quot, IntMatrix.identity(self.ambient_rank))

    def direct_sum(self, other: FgAbGroup) -> FgAbGroup:
        return FgAbGroup.direct_sum_of([self, other])

    def index_of(self, sub: Subgroup) -> int | None:
        """Index [G : S], or None when infinite."""
        if sub.ambient != self:
            raise AmbientMismatchError("subgroup lives in a different ambient group")
        return sub.quotient_group().order()

    def coset_representatives(self, sub: Subgroup) -> list[tuple[int, ...]]:
        """One ambient vector per coset of a finite-index subgroup.

        At most ``COSET_LIMIT`` (2^20) cosets are enumerated: a larger index
        raises ValueError before any is built.
        """
        if sub.ambient != self:
            raise AmbientMismatchError("subgroup lives in a different ambient group")
        dec = smith_decomposition(sub.span_matrix())
        diag = dec.diagonal()
        if len(diag) < self.ambient_rank or any(d == 0 for d in diag):
            raise ValueError("subgroup has infinite index; no finite transversal")
        index = math.prod(diag)
        if index > COSET_LIMIT:
            raise ValueError(f"subgroup has index {index}; at most {COSET_LIMIT} cosets "
                             "are enumerated")
        # A = U^-1 D V^-1, so U^-1 maps the box 0 <= x_i < d_i, one per coset of D, onto A's
        return [dec._u_inverse.apply(x) for x in itertools.product(*(range(d) for d in diag))]

    def __str__(self) -> str:
        return self.canonical_string()


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of an FgAbGroup, generated by columns in ambient coordinates.

    Its lattice is that of its quotient group, the ambient modulo it, which
    is built and reduced once; its abstract group (``as_group``) is built once.
    """

    ambient: FgAbGroup
    generators: IntMatrix

    def __post_init__(self):
        if self.generators.rows != self.ambient.ambient_rank:
            raise ValueError("generator columns must live in the ambient Z^n")

    def span_matrix(self) -> IntMatrix:
        """Generators together with the ambient relations: the full lattice."""
        return self.generators.hstack(self.ambient.relations)

    @cached_property
    def _quotient(self) -> FgAbGroup:
        return FgAbGroup(self.ambient.ambient_rank, self.ambient.relations.hstack(self.generators))

    def quotient_group(self) -> FgAbGroup:
        """The ambient modulo this subgroup, built once; its lattice is this subgroup's."""
        return self._quotient

    @property
    def _hermite(self) -> IntMatrix:
        return self._quotient._hermite

    @property
    def _smith(self) -> SmithDecomposition:
        return self._quotient._smith

    # Equality is equality of lattices [relations | generators].
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.ambient == other.ambient and self._hermite == other._hermite

    def __hash__(self) -> int:
        return hash((self.ambient, self._hermite))

    def contains_vector(self, vector: Sequence[int]) -> bool:
        return hermite_contains(self._hermite, vector)

    def free_rank(self) -> int:
        # rank is additive along 0 -> S -> G -> G/S -> 0
        return self.ambient.free_rank() - self._quotient.free_rank()

    def contains(self, other: Subgroup) -> bool:
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroups live in different ambient groups")
        return all(self.contains_vector(c) for c in other.generators.columns())

    def sum(self, other: Subgroup) -> Subgroup:
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroups live in different ambient groups")
        return Subgroup(self.ambient, self.generators.hstack(other.generators))

    def intersection(self, other: Subgroup) -> Subgroup:
        """Exact lattice intersection: the span matrix's image of the preimage of ``other``."""
        if other.ambient != self.ambient:
            raise AmbientMismatchError("subgroups live in different ambient groups")
        a = self.span_matrix()
        pre = Homomorphism(FgAbGroup.free(a.cols), self.ambient, a).preimage(other)
        return Subgroup(self.ambient, a @ pre.generators)

    def coordinates(self, columns: IntMatrix) -> IntMatrix | None:
        """Coordinates of ``columns`` in the Hermite basis, the basis of ``embedding()``.

        None when some column lies outside the subgroup.
        """
        coords = [self._smith.solve(col) for col in columns.columns()]
        if None in coords:
            return None
        return IntMatrix.from_columns(coords, rows=self._hermite.cols)

    @cached_property
    def _group(self) -> FgAbGroup:
        return FgAbGroup(self._hermite.cols, self.coordinates(self.ambient.relations))

    def as_group(self) -> FgAbGroup:
        """The subgroup as an abstract group (its own presentation), built once."""
        return self._group

    def embedding(self) -> tuple[FgAbGroup, Homomorphism]:
        """The abstract group together with its inclusion into the ambient."""
        group = self.as_group()
        return group, Homomorphism(group, self.ambient, self._hermite)

    def canonical_form(self) -> CanonicalForm:
        return self.as_group().canonical_form()

    def __str__(self) -> str:
        return f"subgroup {format_canonical(self.canonical_form())} of {self.ambient}"


@dataclass(frozen=True)
class Homomorphism:
    """Group homomorphism given by an integer matrix on ambient coordinates."""

    source: FgAbGroup
    target: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.target.ambient_rank:
            raise ValueError("matrix row count must equal target ambient rank")
        if self.matrix.cols != self.source.ambient_rank:
            raise ValueError("matrix column count must equal source ambient rank")
        images = self.matrix @ self.source.relations
        if not all(self.target.contains_vector(col) for col in images.columns()):
            raise IllDefinedHomomorphismError(
                "matrix does not send source relations into target relations")

    @staticmethod
    def identity(group: FgAbGroup) -> Homomorphism:
        return Homomorphism(group, group, IntMatrix.identity(group.ambient_rank))

    def __call__(self, vector: Sequence[int]) -> tuple[int, ...]:
        require_ints([vector], "vector entries")
        return self.matrix.apply(vector)

    def compose(self, inner: Homomorphism) -> Homomorphism:
        """self after inner."""
        if inner.target != self.source:
            raise AmbientMismatchError("composition requires matching middle group")
        return Homomorphism(inner.source, self.target, self.matrix @ inner.matrix)

    def kernel(self) -> Subgroup:
        return self.preimage(self.target.zero_subgroup())

    @cached_property
    def _image(self) -> Subgroup:
        return Subgroup(self.target, self.matrix)

    def image(self) -> Subgroup:
        return self._image

    def cokernel(self) -> FgAbGroup:
        return self.image().quotient_group()

    def preimage(self, sub: Subgroup) -> Subgroup:
        if sub.ambient != self.target:
            raise AmbientMismatchError("subgroup must live in the target group")
        stacked = self.matrix.hstack(sub.span_matrix())
        return Subgroup(self.source, kernel_projection(stacked, self.source.ambient_rank))

    def is_injective(self) -> bool:
        return all(self.source.contains_vector(c) for c in self.kernel().generators.columns())

    def is_surjective(self) -> bool:
        return self.cokernel().is_trivial()

    def equal_as_maps(self, other: Homomorphism) -> bool:
        """Whether the two maps agree on every group element."""
        if self.source != other.source or self.target != other.target:
            return False
        diff = self.matrix - other.matrix
        return all(self.target.contains_vector(col) for col in diff.columns())
