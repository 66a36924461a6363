import random

import pytest

from rimtori import (
    FgAbGroup,
    Homomorphism,
    IntMatrix,
    comparison_square,
    elliptic_p1xt2_square,
    short_exact_report,
    verify,
)
from rimtori.squares import ExactSquare

from oracles import (
    independent_free_square_report,
    random_group,
    report_tuples,
    square_perturbations,
)


def test_all_zero_square_verifies():
    z = FgAbGroup.trivial()
    nothing = Homomorphism(z, z, IntMatrix.zeros(0, 0))
    square = ExactSquare(
        ((z, z, z), (z, z, z), (z, z, z)),
        (nothing,) * 6,
        (nothing,) * 6,
    )
    assert verify(square).overall


def test_builtin_square_is_exact_and_commutative():
    report = verify(elliptic_p1xt2_square())
    assert report.overall
    assert all(r.ok for r in report.rows)
    assert all(c.ok for c in report.cols)
    assert all(report.cells)


def test_builtin_square_displayed_maps():
    square = elliptic_p1xt2_square()
    # middle-column first arrow sends gamma to (0, 0, gamma)
    assert square.col_map(1, 0).matrix.apply((5, 7)) == (0, 0, 0, 0, 5, 7)
    # bottom-row arrow is the identity on Z^2 (+) Z^2
    assert square.row_map(2, 0).matrix == IntMatrix.identity(4)
    # middle-row arrows are the displayed spread and alternating sum
    assert square.row_map(1, 0).matrix.apply((1, 2, 3, 4)) == (1, 2, 4, 6, 3, 4)
    assert square.row_map(1, 1).matrix.apply((0, 0, 1, 2, 3, 4)) == (2, 2)


def test_builtin_square_matches_independent_oracle():
    square = elliptic_p1xt2_square()
    assert report_tuples(verify(square)) == independent_free_square_report(square)


def _with_row_map(square: ExactSquare, row: int, seg: int, matrix: IntMatrix) -> ExactSquare:
    maps = list(square.row_maps)
    old = square.row_map(row, seg)
    maps[2 * row + seg] = Homomorphism(old.source, old.target, matrix)
    return ExactSquare(square.nodes, tuple(maps), square.col_maps)


def test_sign_flip_localizes_failure():
    square = elliptic_p1xt2_square()
    flipped = _with_row_map(square, 1, 1, IntMatrix.from_rows(
        [[1, 0, -1, 0, -1, 0], [0, 1, 0, -1, 0, -1]]))
    report = verify(flipped)
    assert not report.overall
    # failure sits in the middle row and the top-right cell, nowhere else
    assert not report.rows[1].exact_middle
    assert report.rows[1].injective and report.rows[1].surjective
    assert report.rows[0].ok and report.rows[2].ok
    assert all(c.ok for c in report.cols)
    assert report.cells == (True, False, True, True)
    assert report_tuples(report) == independent_free_square_report(flipped)


def test_perturbation_subset_consistency():
    # a slice of the sweep; the acceptance suite runs all of it
    square = elliptic_p1xt2_square()
    for k, candidate in enumerate(square_perturbations(square)):
        if k % 10:
            continue
        assert report_tuples(verify(candidate)) == independent_free_square_report(candidate)


def test_short_exact_from_quotient():
    rng = random.Random(2024)
    for _ in range(25):
        g = random_group(rng, 3)
        n = g.ambient_rank
        sub = g.subgroup(IntMatrix.from_columns(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 2))],
            rows=n))
        quot, proj = g.quotient(sub)
        kernel_group, include = sub.embedding()
        report = short_exact_report(include, proj)
        assert report.injective and report.exact_middle and report.surjective


def test_square_grid_validation():
    square = elliptic_p1xt2_square()
    with pytest.raises(ValueError):
        ExactSquare(square.nodes, square.row_maps[:4], square.col_maps)
    wrong = list(square.row_maps)
    wrong[0], wrong[2] = wrong[2], wrong[0]
    with pytest.raises(ValueError):
        ExactSquare(square.nodes, tuple(wrong), square.col_maps)


# -- comparison squares -------------------------------------------------------

def test_comparison_square_product_of_fibers():
    t2 = FgAbGroup.free(2)
    both = t2.direct_sum(t2)
    square = comparison_square(
        t2, t2,
        both.subgroup([[1, 0, 1, 0], [0, 1, 0, 1]]),
        t2.full_subgroup(),
        t2.zero_subgroup(),
    )
    report = verify(square)
    assert report.overall
    # right column nodes: H_1(F), (H_1 (+) H_1)/diagonal, 0
    assert square.nodes[0][2].canonical_form() == (2, ())
    assert square.nodes[1][2].canonical_form() == (2, ())
    assert square.nodes[2][2].is_trivial()


def test_comparison_square_empty_extra_component():
    trivial = FgAbGroup.trivial()
    t2 = FgAbGroup.free(2)
    both = trivial.direct_sum(t2)
    square = comparison_square(
        trivial, t2,
        both.subgroup([[1, 0], [0, 1]]),
        t2.full_subgroup(),
        trivial.zero_subgroup(),
    )
    assert verify(square).overall


def test_comparison_square_random_consistent_data():
    rng = random.Random(8080)
    for _ in range(40):
        h1_u = random_group(rng, 2)
        h1_v = random_group(rng, 2)
        both = h1_u.direct_sum(h1_v)
        n = both.ambient_rank
        union_sub = both.subgroup(IntMatrix.from_columns(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))],
            rows=n))
        # derive the compatible side subgroups: intersect with the U block,
        # project to the V block
        u_block = both.subgroup(IntMatrix.from_columns(
            [[int(i == k) for i in range(n)] for k in range(h1_u.ambient_rank)], rows=n))
        inside_u = union_sub.intersection(u_block)
        h_xminusv_u = h1_u.subgroup(IntMatrix.from_rows(
            list(inside_u.generators.entries[: h1_u.ambient_rank]),
            cols=inside_u.generators.cols))
        h_x_v = h1_v.subgroup(IntMatrix.from_rows(
            list(union_sub.generators.entries[h1_u.ambient_rank:]),
            cols=union_sub.generators.cols))
        square = comparison_square(h1_u, h1_v, union_sub, h_x_v, h_xminusv_u)
        assert verify(square).overall


def test_comparison_square_containment_violation():
    t2 = FgAbGroup.free(2)
    both = t2.direct_sum(t2)
    with pytest.raises(ValueError):
        comparison_square(
            t2, t2,
            both.zero_subgroup(),          # nothing swept in the union
            t2.zero_subgroup(),
            t2.full_subgroup(),            # but everything claimed on the U side
        )


def _comparison_data():
    """Consistent arguments of ``comparison_square`` over H_1(U) = H_1(V) = Z."""
    z = FgAbGroup.free(1)
    both = z.direct_sum(z)
    return {"h1_u": z, "h1_v": z, "h_x_uv": both.subgroup([(0, 1)]),
            "h_x_v": z.full_subgroup(), "h_xminusv_u": z.zero_subgroup()}


@pytest.mark.parametrize("changes, message", [
    ({"h_xminusv_u": FgAbGroup.free(2).zero_subgroup()}, "subgroup of H_1\\(U\\)$"),
    ({"h_x_v": FgAbGroup.free(2).zero_subgroup()}, "subgroup of H_1\\(V\\)$"),
    ({"h_x_uv": FgAbGroup.free(1).zero_subgroup()}, "subgroup of H_1\\(U\\) \\(\\+\\) H_1\\(V\\)"),
    # (0, 1) projects to 1, outside 2Z
    ({"h_x_v": FgAbGroup.free(1).subgroup([(2,)])},
     "the union subgroup does not project into the V subgroup"),
])
def test_comparison_square_refusals(changes, message):
    assert verify(comparison_square(**_comparison_data())).overall
    with pytest.raises(ValueError, match=message):
        comparison_square(**{**_comparison_data(), **changes})
