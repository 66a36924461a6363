"""Commutative 3x3 squares of short exact sequences.

A square holds nine groups and twelve interior arrows (two per row and
per column); the zero groups bordering every row and column are
implicit, so exactness at the ends is expressed as injectivity of the
first arrow and surjectivity of the second.  All checks are memberships
in Hermite forms, which works uniformly for infinite groups: the first
arrow is injective when its kernel lies in the source relations, and the
middle is exact when the composite sends every generator into the last
group's relations and the second kernel lies in the first image.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FgAbGroup, Homomorphism, Subgroup
from .matrices import IntMatrix


@dataclass(frozen=True)
class SequenceReport:
    """Verdicts for one three-term row or column 0 -> A -> B -> C -> 0."""

    injective: bool
    exact_middle: bool
    surjective: bool

    @property
    def ok(self) -> bool:
        return self.injective and self.exact_middle and self.surjective


@dataclass(frozen=True)
class ExactnessReport:
    rows: tuple[SequenceReport, SequenceReport, SequenceReport]
    cols: tuple[SequenceReport, SequenceReport, SequenceReport]
    cells: tuple[bool, bool, bool, bool]  # (0,0), (0,1), (1,0), (1,1)

    @property
    def all_exact(self) -> bool:
        return all(r.ok for r in self.rows) and all(c.ok for c in self.cols)

    @property
    def all_commute(self) -> bool:
        return all(self.cells)

    @property
    def overall(self) -> bool:
        return self.all_exact and self.all_commute


@dataclass(frozen=True)
class ExactSquare:
    """Nine groups in a 3x3 grid with row and column homomorphisms.

    ``row_maps`` lists, row by row, the arrow out of the left node then
    the arrow out of the middle node; ``col_maps`` does the same column
    by column, top to bottom.
    """

    nodes: tuple[tuple[FgAbGroup, FgAbGroup, FgAbGroup], ...]
    row_maps: tuple[Homomorphism, ...]
    col_maps: tuple[Homomorphism, ...]

    def __post_init__(self):
        if len(self.nodes) != 3 or any(len(row) != 3 for row in self.nodes):
            raise ValueError("a square needs a 3x3 grid of groups")
        if len(self.row_maps) != 6 or len(self.col_maps) != 6:
            raise ValueError("a square needs two arrows per row and per column")
        for i in range(3):
            for seg in range(2):
                m = self.row_map(i, seg)
                if m.source != self.nodes[i][seg] or m.target != self.nodes[i][seg + 1]:
                    raise ValueError(f"row map ({i},{seg}) does not match the grid")
                m = self.col_map(i, seg)
                if m.source != self.nodes[seg][i] or m.target != self.nodes[seg + 1][i]:
                    raise ValueError(f"column map ({i},{seg}) does not match the grid")

    def row_map(self, row: int, segment: int) -> Homomorphism:
        return self.row_maps[2 * row + segment]

    def col_map(self, col: int, segment: int) -> Homomorphism:
        return self.col_maps[2 * col + segment]


def short_exact_report(first: Homomorphism, second: Homomorphism) -> SequenceReport:
    """Check 0 -> A -> B -> C -> 0 for exactness at all three spots."""
    if second.source != first.target:
        raise ValueError("maps are not composable")
    composite = second.matrix @ first.matrix
    exact_middle = (all(second.target.contains_vector(c) for c in composite.columns())
                    and first.image().contains(second.kernel()))
    return SequenceReport(first.is_injective(), exact_middle, second.is_surjective())


def verify(square: ExactSquare) -> ExactnessReport:
    """Exactness of every row and column plus commutativity of all cells."""
    rows = tuple(short_exact_report(square.row_map(i, 0), square.row_map(i, 1))
                 for i in range(3))
    cols = tuple(short_exact_report(square.col_map(i, 0), square.col_map(i, 1))
                 for i in range(3))
    cells = []
    for i in range(2):
        for j in range(2):
            down_then_right = square.row_map(i + 1, j).compose(square.col_map(j, i))
            right_then_down = square.col_map(j + 1, i).compose(square.row_map(i, j))
            cells.append(down_then_right.equal_as_maps(right_then_down))
    return ExactnessReport(rows=rows, cols=cols, cells=tuple(cells))


def comparison_square(h1_u: FgAbGroup, h1_v: FgAbGroup,
                      h_x_uv: Subgroup, h_x_v: Subgroup,
                      h_xminusv_u: Subgroup) -> ExactSquare:
    """The square comparing rim tori over one and two divisor components.

    Rows run, top to bottom, over the extra component U alone, over the
    union, and over V alone: each row is the defining sequence of a rim
    tori module, with the swept subgroup on the left, the divisor H_1 in
    the middle, and the quotient on the right.  Columns are induced by
    inclusion into and projection out of the direct sum.  The caller
    checks the result with ``verify``.
    """
    if h_xminusv_u.ambient != h1_u:
        raise ValueError("h_xminusv_u must be a subgroup of H_1(U)")
    if h_x_v.ambient != h1_v:
        raise ValueError("h_x_v must be a subgroup of H_1(V)")
    both = h1_u.direct_sum(h1_v)
    if h_x_uv.ambient != both:
        raise ValueError("h_x_uv must be a subgroup of H_1(U) (+) H_1(V)")

    nu, nv = h1_u.ambient_rank, h1_v.ambient_rank
    inclusion = IntMatrix.identity(nu).vstack(IntMatrix.zeros(nv, nu))
    projection = IntMatrix.zeros(nv, nu).hstack(IntMatrix.identity(nv))

    left_top, embed_top = h_xminusv_u.embedding()
    left_mid, embed_mid = h_x_uv.embedding()
    left_bot, embed_bot = h_x_v.embedding()

    rim_u, proj_u = h1_u.quotient(h_xminusv_u)
    rim_uv, proj_uv = both.quotient(h_x_uv)
    rim_v, proj_v = h1_v.quotient(h_x_v)

    # left column: the subgroup bases viewed through inclusion/projection
    top_in_mid = h_x_uv.coordinates(inclusion @ embed_top.matrix)
    if top_in_mid is None:
        raise ValueError("containment violation: "
                         "the U-only subgroup does not include into the union subgroup")
    mid_to_bot = h_x_v.coordinates(projection @ embed_mid.matrix)
    if mid_to_bot is None:
        raise ValueError("containment violation: "
                         "the union subgroup does not project into the V subgroup")

    nodes = (
        (left_top, h1_u, rim_u),
        (left_mid, both, rim_uv),
        (left_bot, h1_v, rim_v),
    )
    row_maps = (
        embed_top, proj_u,
        embed_mid, proj_uv,
        embed_bot, proj_v,
    )
    col_maps = (
        Homomorphism(left_top, left_mid, top_in_mid),
        Homomorphism(left_mid, left_bot, mid_to_bot),
        Homomorphism(h1_u, both, inclusion),
        Homomorphism(both, h1_v, projection),
        Homomorphism(rim_u, rim_uv, inclusion),
        Homomorphism(rim_uv, rim_v, projection),
    )
    return ExactSquare(nodes, row_maps, col_maps)


def elliptic_p1xt2_square() -> ExactSquare:
    """The explicit gluing square of the rational elliptic surface.

    Gluing the rational elliptic surface to P^1 x T^2 along a torus fiber
    (keeping the far fiber as an extra divisor) produces a square whose
    nodes are free groups of ranks 0, 2, 4, and 6.  The four nontrivial
    arrows below are the displayed ones; all other arrows are zero maps,
    identities, or forced by commutativity.
    """
    z0 = FgAbGroup.trivial()
    z2 = FgAbGroup.free(2)
    z4 = FgAbGroup.free(4)
    z6 = FgAbGroup.free(6)

    id2 = IntMatrix.identity(2)
    zero = IntMatrix.zeros

    def rows(*blocks):
        out = blocks[0]
        for b in blocks[1:]:
            out = out.hstack(b)
        return out

    # (gamma) -> (0, 0, gamma)
    into_last = IntMatrix.zeros(4, 2).vstack(id2)
    # (g1, g2, g3) -> (g1, g2)
    first_two = rows(IntMatrix.identity(4), IntMatrix.zeros(4, 2))
    # (g1, g2) -> (g1, g1 + g2, g2)
    spread = rows(id2, zero(2, 2)).vstack(rows(id2, id2)).vstack(rows(zero(2, 2), id2))
    # (g1, g2, g3) -> g1 - g2 + g3
    alternating = rows(id2, -id2, id2)
    # (g1, g2) -> (g1, g1 + g2)
    shear = rows(id2, zero(2, 2)).vstack(rows(id2, id2))

    nodes = (
        (z0, z2, z2),
        (z4, z6, z2),
        (z4, z4, z0),
    )
    row_maps = (
        Homomorphism(z0, z2, zero(2, 0)), Homomorphism(z2, z2, id2),
        Homomorphism(z4, z6, spread), Homomorphism(z6, z2, alternating),
        Homomorphism(z4, z4, IntMatrix.identity(4)), Homomorphism(z4, z0, zero(0, 4)),
    )
    col_maps = (
        Homomorphism(z0, z4, zero(4, 0)), Homomorphism(z4, z4, shear),
        Homomorphism(z2, z6, into_last), Homomorphism(z6, z4, first_two),
        Homomorphism(z2, z2, id2), Homomorphism(z2, z0, zero(0, 2)),
    )
    return ExactSquare(nodes, row_maps, col_maps)
