"""The Smith decomposition gives exactly the U, D, V of the eager-transform reference,
records exactly the operation log of the frozen elimination, and membership
answered through the Hermite form agrees with the raw elimination."""

import random

from hypothesis import example, given, settings, strategies as st

from rimtori import (
    FgAbGroup,
    IntMatrix,
    hermite_form,
    integer_kernel,
    smith_decomposition,
    smith_normal_form,
    solve_integral,
)

from oracles import eliminate_reference, smith_normal_form_tracked, tracked_kernel, tracked_solve


@st.composite
def smith_cases(draw, max_dim=6):
    """A matrix up to max_dim x max_dim (zero rows or columns allowed), a solution
    vector and a free vector."""
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    rows = draw(st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    if n >= 3 and draw(st.booleans()):
        # one column a combination of two others: rank deficient
        i, j, k = draw(st.permutations(range(n)))[:3]
        c1, c2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        for row in rows:
            row[k] = c1 * row[i] + c2 * row[j]
    x0 = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    return IntMatrix.from_rows(rows, cols=n), x0, b


def assert_matches_reference(a, x0, b):
    u, d, v = smith_normal_form_tracked(a)
    dec = smith_normal_form(a)
    assert (dec.u, dec.d, dec.v) == (u, d, v)
    for rhs in (a.apply(x0), tuple(b)):
        assert solve_integral(a, rhs) == tracked_solve(a, rhs)
    assert integer_kernel(a) == tracked_kernel(a)
    diag = d.diagonal()
    rank = sum(1 for x in diag if x)
    assert FgAbGroup(a.rows, a).canonical_form() == (
        a.rows - rank, tuple(x for x in diag if x > 1))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(smith_cases())
@example((IntMatrix.zeros(0, 0), [], []))
@example((IntMatrix.zeros(0, 3), [1, -2, 3], []))
@example((IntMatrix.zeros(3, 0), [], [1, 0, -1]))
@example((IntMatrix.zeros(2, 3), [1, 1, 1], [0, 2]))
def test_smith_matches_tracked_reference(case):
    assert_matches_reference(*case)


def test_smith_matches_tracked_reference_seeded_large():
    rng = random.Random(2024)
    for n in (10, 12, 14):
        for deficient in (False, True):
            rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            if deficient:
                i, j, k = rng.sample(range(n), 3)
                for row in rows:
                    row[k] = row[i] - row[j]
            x0 = [rng.randint(-5, 5) for _ in range(n)]
            b = [rng.randint(-9, 9) for _ in range(n)]
            assert_matches_reference(IntMatrix.from_rows(rows, cols=n), x0, b)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(smith_cases(max_dim=8), st.integers(0, 8))
@example((IntMatrix.zeros(3, 0), [], [1, 0, -1]), 0)
@example((IntMatrix.from_rows([[2, 0, 4, 6], [0, 0, 2, 2]]), [1, 5, -1, 2], [1, 1]), 2)
def test_membership_matches_tracked_reference(case, k):
    a, x0, b = case
    # the first k columns of a generate the subgroup, the rest are the ambient relations
    columns = a.columns()
    relations = IntMatrix.from_columns(columns[k:], rows=a.rows)
    group = FgAbGroup(a.rows, a)
    sub = FgAbGroup(a.rows, relations).subgroup(
        IntMatrix.from_columns(columns[:k], rows=a.rows))
    for rhs in (a.apply(x0), tuple(b)):
        member = tracked_solve(a, rhs) is not None
        assert group.contains_vector(rhs) == member
        assert sub.contains_vector(rhs) == member
    basis = sub._hermite
    assert sub.as_group().relations.columns() == [
        tracked_solve(basis, rel) for rel in relations.columns()]


@st.composite
def unit_heavy_matrices(draw, max_dim=8):
    """Up to max_dim x max_dim, many entries +-1 (some -1 placed on purpose), some
    rows and columns zero."""
    m = draw(st.integers(0, max_dim))
    n = draw(st.integers(0, max_dim))
    entry = st.sampled_from([-1, 0, 1]) | st.integers(-12, 12) | st.integers(-10**4, 10**4)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    if m and n and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = -1
    if m and draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [0] * n
    if n and draw(st.booleans()):
        j = draw(st.integers(0, n - 1))
        for row in rows:
            row[j] = 0
    return IntMatrix.from_rows(rows, cols=n)


def assert_same_log(a):
    for b in (a, hermite_form(a)):
        dec = smith_decomposition(b)
        assert (dec.d, dec.row_ops, dec.col_ops) == eliminate_reference(b)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(unit_heavy_matrices())
@example(IntMatrix.zeros(0, 4))
@example(IntMatrix.zeros(4, 0))
@example(IntMatrix.zeros(3, 3))
@example(IntMatrix.from_rows([[-1]]))
@example(IntMatrix.from_rows([[0, 0], [0, -1]]))
@example(IntMatrix.from_rows([[2, -1, 4], [-1, 3, 0], [5, 0, -1]]))
@example(IntMatrix.from_rows([[6, 4], [1, -1], [0, 0]]))
def test_elimination_log_matches_reference(a):
    assert_same_log(a)


def test_elimination_log_matches_reference_seeded_large():
    rng = random.Random(11)
    for n in range(10, 15):
        for bound in (1, 3, 20):
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            assert_same_log(IntMatrix.from_rows(rows, cols=n))
