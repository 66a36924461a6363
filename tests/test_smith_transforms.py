"""Every Smith transform is one operation log replayed on the identity: U from the
row log, U^-1 from its inverse operations in reverse order, and V and the kernel
from the column log read as operations on vectors."""

from hypothesis import example, given, settings

from rimtori import IntMatrix, integer_kernel, smith_normal_form

from test_smith_replay import unit_heavy_matrices

# each row log holds a swap and a negation
SWAPS_AND_NEGATIONS = ([[0, 0], [0, -1]], [[2, -3], [-1, 5]], [[6, 4], [-1, 0], [0, 0]])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(unit_heavy_matrices())
@example(IntMatrix.zeros(0, 3))
@example(IntMatrix.zeros(3, 0))
@example(IntMatrix.from_rows(SWAPS_AND_NEGATIONS[0]))
@example(IntMatrix.from_rows(SWAPS_AND_NEGATIONS[1]))
@example(IntMatrix.from_rows(SWAPS_AND_NEGATIONS[2]))
@example(IntMatrix.from_rows([[3, -1, 0], [0, 5, -1], [-1, 0, 4]]))
def test_inverse_and_kernel_replay_the_logs(a):
    dec = smith_normal_form(a)
    assert dec.u @ dec._u_inverse == IntMatrix.identity(a.rows)
    rank = sum(1 for x in dec.diagonal() if x)
    past_rank = IntMatrix.from_columns(dec.v.columns()[rank:], rows=a.cols)
    assert integer_kernel(a) == past_rank


def test_pinned_logs_hold_swaps_and_negations():
    for rows in SWAPS_AND_NEGATIONS:
        ops = smith_normal_form(IntMatrix.from_rows(rows)).row_ops
        assert any(c == 0 for _, _, c in ops)
        assert any(i == j for i, j, _ in ops)
