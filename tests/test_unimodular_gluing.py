"""A gluing identification is accepted exactly when it is invertible over the
integers: its column Hermite form is the identity exactly when its Bareiss
determinant is +-1."""

from hypothesis import example, given, settings, strategies as st

import pytest

from rimtori import DivisorComponent, DivisorData, FgAbGroup, IntMatrix, vanishing_cycles
from rimtori.matrices import determinant

# determinants 1, -1, 0, 2 and -2, in that order
PINNED = ([[0, 1, 0], [1, 1, 0], [0, 0, -1]], [[0, 1], [1, 0]], [[1, -1], [-1, 1]],
          [[1, 1, 0], [-1, 1, 0], [0, 0, 1]], [[0, 2], [1, 1]])


@st.composite
def identifications(draw, max_dim=5):
    """A square matrix up to max_dim x max_dim: a product of unitriangular factors
    (unimodular) or mostly unit entries, with a row sometimes doubled or zeroed."""
    n = draw(st.integers(0, max_dim))
    entry = st.sampled_from([-1, 0, 1]) | st.integers(-2, 2)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        # lower times upper unitriangular, with a sign on the diagonal
        signs = [draw(st.sampled_from([-1, 1])) for _ in range(n)]
        lower = [[rows[i][j] if j < i else int(i == j) for j in range(n)] for i in range(n)]
        upper = [[rows[i][j] if j > i else signs[i] * (i == j) for j in range(n)]
                 for i in range(n)]
        rows = (IntMatrix.from_rows(lower, cols=n) @ IntMatrix.from_rows(upper, cols=n)).entries
    rows = [list(row) for row in rows]
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        rows[i] = [draw(st.sampled_from([0, 2])) * x for x in rows[i]]
    return IntMatrix.from_rows(rows, cols=n)


def free_divisor(n):
    """A torus divisor with free H_1 of rank n and nothing swept."""
    torus = DivisorComponent("T", FgAbGroup.free(n), is_torus=True)
    return DivisorData((torus,), torus.h1.zero_subgroup(), dim_v=2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(identifications())
@example(IntMatrix.zeros(0, 0))
@example(IntMatrix.from_rows(PINNED[0]))
@example(IntMatrix.from_rows(PINNED[1]))
@example(IntMatrix.from_rows(PINNED[2]))
@example(IntMatrix.from_rows(PINNED[3]))
@example(IntMatrix.from_rows(PINNED[4]))
def test_identification_is_accepted_iff_unimodular(ident):
    d = free_divisor(ident.rows)
    if abs(determinant(ident)) != 1:
        with pytest.raises(ValueError, match="^identification must be invertible over the integers$"):
            vanishing_cycles(d, d, ident)
    else:
        # Z^n + Z^n modulo the columns of [I; ident] is Z^n
        assert vanishing_cycles(d, d, ident).canonical_form() == (ident.rows, ())


def test_pinned_identifications_cover_each_determinant():
    assert [determinant(IntMatrix.from_rows(rows)) for rows in PINNED] == [1, -1, 0, 2, -2]
