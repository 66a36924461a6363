import random

import pytest
from hypothesis import given, settings, strategies as st

from rimtori import FgAbGroup
from rimtori.matrices import (
    IntMatrix,
    block_diagonal,
    determinant,
    hermite_contains,
    hermite_form,
    integer_kernel,
    lattice_contains,
    smith_decomposition,
    smith_normal_form,
    solve_integral,
)

from oracles import (
    hermite_form_echelon,
    lattice_points_in_box,
    random_matrix,
    snf_diagonal_first_pivot,
)


def check_smith_invariants(a):
    dec = smith_normal_form(a)
    assert dec.d == dec.u @ a @ dec.v
    assert abs(determinant(dec.u)) == 1
    assert abs(determinant(dec.v)) == 1
    diag = dec.diagonal()
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    # off-diagonal entries vanish
    for i in range(dec.d.rows):
        for j in range(dec.d.cols):
            if i != j:
                assert dec.d[i, j] == 0
    return dec


def test_shape_hints_must_match_the_entries():
    with pytest.raises(ValueError):
        IntMatrix.from_columns([(1, 2)], rows=3)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([(1, 2)], cols=5)
    assert IntMatrix.from_columns([(1, 2)], rows=2) == IntMatrix.from_rows([(1,), (2,)])
    assert IntMatrix.from_rows([(1, 2)], cols=2) == IntMatrix.from_columns([(1,), (2,)])
    # the hints still give the shape of an empty matrix
    assert IntMatrix.from_columns([], rows=3) == IntMatrix.zeros(3, 0)
    assert IntMatrix.from_rows([], cols=5) == IntMatrix.zeros(0, 5)


def test_smith_identity():
    dec = check_smith_invariants(IntMatrix.identity(2))
    assert dec.d == IntMatrix.identity(2)
    assert dec.u == IntMatrix.identity(2)
    assert dec.v == IntMatrix.identity(2)


def test_smith_hand_example():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    dec = check_smith_invariants(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.diagonal() == (2, 4)


def test_smith_zero():
    dec = check_smith_invariants(IntMatrix.from_rows([[0]]))
    assert dec.diagonal() == (0,)


def test_smith_empty_matrices():
    for shape in ((0, 0), (0, 3), (3, 0)):
        dec = check_smith_invariants(IntMatrix.zeros(*shape))
        assert dec.d.rows == shape[0] and dec.d.cols == shape[1]


def test_smith_deterministic():
    a = IntMatrix.from_rows([[4, -6, 2], [2, 2, 10], [0, 8, 6]])
    assert smith_normal_form(a) == smith_normal_form(a)


def test_smith_matches_first_pivot_oracle():
    rng = random.Random(7)
    for _ in range(150):
        a = random_matrix(rng, max_dim=6, bound=20)
        dec = check_smith_invariants(a)
        oracle = snf_diagonal_first_pivot([list(r) for r in a.entries])
        mine = [x for x in dec.diagonal() if x]
        assert mine == [x for x in oracle if x]


def test_hermite_already_reduced():
    a = IntMatrix.from_rows([[2], [0]])
    assert hermite_form(a) == a


def test_hermite_span_equality():
    # (1,0),(1,2) and (1,0),(0,2) span the same lattice; identity does not
    h1 = hermite_form(IntMatrix.from_rows([[1, 1], [0, 2]]))
    h2 = hermite_form(IntMatrix.from_rows([[1, 0], [0, 2]]))
    assert h1 == h2
    assert h1 != hermite_form(IntMatrix.identity(2))
    # brute-force box oracle agrees
    box1 = lattice_points_in_box([(1, 0), (1, 2)], bound=4)
    box2 = lattice_points_in_box([(1, 0), (0, 2)], bound=4)
    full = lattice_points_in_box([(1, 0), (0, 1)], bound=4)
    assert box1 == box2
    assert box1 != full


def test_hermite_empty():
    assert hermite_form(IntMatrix.zeros(0, 0)) == IntMatrix.zeros(0, 0)
    assert hermite_form(IntMatrix.zeros(3, 0)) == IntMatrix.zeros(3, 0)
    # all-zero columns vanish
    assert hermite_form(IntMatrix.zeros(3, 4)) == IntMatrix.zeros(3, 0)


def test_hermite_canonical_under_recombination():
    rng = random.Random(11)
    for _ in range(100):
        a = random_matrix(rng, max_dim=5, bound=9)
        cols = a.columns()
        rng.shuffle(cols)
        if len(cols) >= 2:
            c = rng.randint(-3, 3)
            cols[0] = tuple(x + c * y for x, y in zip(cols[0], cols[1]))
        b = IntMatrix.from_columns(cols, rows=a.rows)
        assert hermite_form(a) == hermite_form(b)


def test_entries_must_be_ints():
    # a float was truncated, a bool or a numeric string read as a number
    for bad in (2.9, 2.0, True, False, "3", None):
        with pytest.raises(TypeError, match=repr(bad)):
            IntMatrix.from_rows([[1, 0], [0, bad]])
        with pytest.raises(TypeError, match=type(bad).__name__):
            IntMatrix.from_columns([(1, 0), (0, bad)])
    with pytest.raises(TypeError):
        FgAbGroup(1, IntMatrix.from_rows([[2.9]]))
    assert IntMatrix.from_rows(iter([iter([1, -2])])) == IntMatrix.from_rows([(1, -2)])


def test_constructor_refuses_entries_that_are_not_ints():
    # the plain constructor checks its entries too, not only from_rows and from_columns
    with pytest.raises(TypeError, match="bool True"):
        IntMatrix(1, 2, ((True, "x"),))
    with pytest.raises(TypeError, match="float 2.9"):
        FgAbGroup(1, IntMatrix(1, 1, ((2.9,),)))
    with pytest.raises(ValueError):
        IntMatrix(2, 2, ((1, 2), (3,)))


def test_dimensions_must_be_ints():
    # a bool was taken for 1 and a float compared as the number it equals
    for build, shown in ((lambda: IntMatrix(True, 1, ((5,),)), "bool True"),
                         (lambda: IntMatrix(1, 1.0, ((5,),)), "float 1.0"),
                         (lambda: IntMatrix("0", 0, ()), "str '0'"),
                         (lambda: IntMatrix.from_rows([], cols=True), "bool True")):
        with pytest.raises(TypeError, match=f"^matrix dimensions must be int, not {shown}$"):
            build()


@st.composite
def hermite_inputs(draw):
    """Up to 10 x 12, entries up to 10^6, some columns combinations of earlier ones."""
    rows, cols = draw(st.integers(0, 10)), draw(st.integers(0, 12))
    entry = st.integers(-3, 3) | st.integers(-10**6, 10**6)
    columns = []
    for _ in range(cols):
        if len(columns) >= 2 and draw(st.booleans()):
            i, j = draw(st.integers(0, len(columns) - 1)), draw(st.integers(0, len(columns) - 1))
            c1, c2 = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            columns.append([c1 * x + c2 * y for x, y in zip(columns[i], columns[j])])
        else:
            columns.append(draw(st.lists(entry, min_size=rows, max_size=rows)))
    return IntMatrix.from_columns(columns, rows=rows)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(hermite_inputs())
def test_hermite_matches_reference_echelon(a):
    assert hermite_form(a) == hermite_form_echelon(a)


@st.composite
def stacked_inputs(draw):
    """A direct sum or a side-by-side stack of small blocks, some of them reduced first.

    Returns the stacked matrix and an unstacked copy of it.  Blocks may have
    no rows or no columns; a side-by-side stack may nest a direct sum.
    """
    entry = st.integers(-9, 9)

    def block(rows, cols):
        columns = draw(st.lists(st.lists(entry, min_size=rows, max_size=rows),
                                min_size=cols, max_size=cols))
        b = IntMatrix.from_columns(columns, rows=rows)
        if draw(st.booleans()):
            hermite_form(b)  # the block's form is now cached on it
        return b

    if draw(st.booleans()):
        shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))
        stacked = block_diagonal(block(m, n) for m, n in shapes)
    else:
        rows = draw(st.integers(0, 5))
        if draw(st.booleans()):
            left = block(rows, draw(st.integers(0, 5)))
        else:
            top = draw(st.integers(0, rows))
            left = block_diagonal([block(top, draw(st.integers(0, 3))),
                                   block(rows - top, draw(st.integers(0, 3)))])
            if draw(st.booleans()):
                hermite_form(left)
        stacked = left.hstack(block(rows, draw(st.integers(0, 4))))
    return stacked, IntMatrix(stacked.rows, stacked.cols, stacked.entries)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(stacked_inputs())
def test_stacked_hermite_matches_reference_echelon(pair):
    stacked, copy = pair
    assert hermite_form(stacked) == hermite_form_echelon(copy)
    assert hermite_form(copy) == hermite_form(stacked)


def test_hermite_matches_reference_echelon_at_40():
    rng = random.Random(40)
    for rows, cols in ((40, 40), (40, 39)):
        entries = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        a = IntMatrix.from_rows(entries, cols=cols)
        assert hermite_form(a) == hermite_form_echelon(a)


def test_solve_single():
    assert solve_integral(IntMatrix.from_rows([[2]]), [4]) == (2,)
    assert solve_integral(IntMatrix.from_rows([[2]]), [3]) is None


def test_solve_hand_example():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    x = solve_integral(a, [2, 6])
    assert x is not None
    assert a.apply(x) == (2, 6)
    assert x == (1, 0)


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_integral(IntMatrix.from_rows([[2]]), [1, 2])


def test_solve_refuses_entries_that_are_not_ints():
    # a float was solved to a float, a bool read as 0 or 1
    a = IntMatrix.from_rows([[2]])
    for bad, shown in ((4.0, "float 4.0"), (True, "bool True"), (False, "bool False"),
                       ("2", "str '2'")):
        with pytest.raises(TypeError, match=f"must be int, not {shown}"):
            solve_integral(a, (bad,))
        with pytest.raises(TypeError, match=f"must be int, not {shown}"):
            lattice_contains(a, (bad,))


def test_decomposition_solve_refuses_entries_that_are_not_ints():
    # the decomposition's own solve divided a float through to (2.0, 1.0)
    dec = smith_decomposition(IntMatrix.from_rows([[2, 0], [0, 3]]))
    for bad, shown in ((4.0, "float 4.0"), (True, "bool True"), ("4", "str '4'")):
        with pytest.raises(TypeError, match=f"vector entries must be int, not {shown}"):
            dec.solve((bad, 3))
    assert dec.solve((4, 3)) == (2, 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 5).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m), max_size=5),
    st.lists(st.integers(-12, 12), min_size=m, max_size=m),
    st.lists(st.integers(-3, 3), max_size=5))))
def test_hermite_contains_matches_the_raw_solve(case):
    columns, vector, coefficients = case
    a = IntMatrix.from_columns(columns, rows=len(vector))
    h = hermite_form(a)
    assert hermite_contains(h, vector) == lattice_contains(a, vector)
    # a combination of the columns lies in the lattice, and shifting by it keeps the answer
    inside = a.apply((coefficients + [0] * a.cols)[:a.cols])
    shifted = tuple(x + y for x, y in zip(vector, inside))
    assert hermite_contains(h, inside)
    assert hermite_contains(h, shifted) == hermite_contains(h, vector)
    with pytest.raises(ValueError):
        hermite_contains(h, (*vector, 0))


def test_solve_random_roundtrip():
    rng = random.Random(3)
    for _ in range(120):
        a = random_matrix(rng, max_dim=5, bound=8)
        x = tuple(rng.randint(-5, 5) for _ in range(a.cols))
        b = a.apply(x)
        y = solve_integral(a, b)
        assert y is not None
        assert a.apply(y) == b


def test_solve_unsolvable_is_detected():
    rng = random.Random(5)
    hits = 0
    for _ in range(200):
        a = random_matrix(rng, max_dim=4, bound=5)
        b = tuple(rng.randint(-9, 9) for _ in range(a.rows))
        y = solve_integral(a, b)
        if y is None:
            hits += 1
            # cross-check with the box oracle on small instances
            if a.rows and max(abs(v) for v in b) <= 6:
                assert b not in lattice_points_in_box(a.columns(), bound=9)
        else:
            assert a.apply(y) == b
    assert hits > 0


def test_integer_kernel():
    rng = random.Random(9)
    for _ in range(120):
        a = random_matrix(rng, max_dim=5, bound=7)
        ker = integer_kernel(a)
        for col in ker.columns():
            assert all(x == 0 for x in a.apply(col))
        # every small kernel vector lies in the computed lattice
        if a.cols <= 3:
            for cand in lattice_points_in_box([tuple(int(i == j) for i in range(a.cols))
                                               for j in range(a.cols)], bound=3):
                if all(x == 0 for x in a.apply(cand)):
                    assert lattice_contains(ker, cand)


def test_determinant():
    assert determinant(IntMatrix.from_rows([[2, 4], [6, 8]])) == -8
    assert determinant(IntMatrix.identity(3)) == 1
    assert determinant(IntMatrix.zeros(0, 0)) == 1
    assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0


# -- products, sums, differences and identities against plain loops ------------

def _grid(rows, cols):
    """A rows x cols list of entry lists; either side may be 0."""
    entry = st.integers(-3, 3) | st.integers(-10**12, 10**12)
    return st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def product_inputs(draw):
    """A, C (m x k), B (k x n) and a vector of length k, with m, k, n from 0 to 5."""
    m, k, n = (draw(st.integers(0, 5)) for _ in range(3))
    return draw(_grid(m, k)), draw(_grid(k, n)), draw(_grid(m, k)), draw(_grid(1, k))[0], (m, k, n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(product_inputs())
def test_products_match_plain_loops(case):
    a_rows, b_rows, c_rows, vector, (m, k, n) = case
    a = IntMatrix.from_rows(a_rows, cols=k)
    b = IntMatrix.from_rows(b_rows, cols=n)
    c = IntMatrix.from_rows(c_rows, cols=k)

    product = [[0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            for t in range(k):
                product[i][j] += a_rows[i][t] * b_rows[t][j]
    ab = a @ b
    assert (ab.rows, ab.cols) == (m, n)
    assert ab == IntMatrix.from_rows(product, cols=n)

    applied = [0] * m
    for i in range(m):
        for t in range(k):
            applied[i] += a_rows[i][t] * vector[t]
    assert a.apply(vector) == tuple(applied)

    difference = a - c
    assert (difference.rows, difference.cols) == (m, k)
    assert difference.entries == tuple(
        tuple(a_rows[i][j] - c_rows[i][j] for j in range(k)) for i in range(m))
    assert difference == a + (-c)
    assert (a + c).entries == tuple(
        tuple(a_rows[i][j] + c_rows[i][j] for j in range(k)) for i in range(m))

    for size in (m, k):
        assert IntMatrix.identity(size).entries == tuple(
            tuple(1 if i == j else 0 for j in range(size)) for i in range(size))
    assert a @ IntMatrix.identity(k) == a == IntMatrix.identity(m) @ a
    for built in (ab, difference, IntMatrix.identity(k)):
        assert all(type(x) is int for row in built.entries for x in row)

    with pytest.raises(ValueError, match="^shape mismatch in addition$"):
        a - IntMatrix.zeros(m + 1, k)
    with pytest.raises(ValueError, match="^shape mismatch in addition$"):
        a - IntMatrix.zeros(m, k + 1)
    with pytest.raises(ValueError, match="^shape mismatch in addition$"):
        a + IntMatrix.zeros(m + 1, k)
    with pytest.raises(ValueError, match="^cannot multiply"):
        a @ IntMatrix.zeros(k + 1, n)
    with pytest.raises(ValueError, match="^vector length does not match column count$"):
        a.apply((*vector, 0))


def test_refusals_keep_their_texts():
    for build in (lambda: IntMatrix(2, 2, ((1, 2), (3,))),
                  lambda: IntMatrix(2, 1, ((1,), (2, 3))),
                  lambda: IntMatrix(1, 0, ((5,),)),
                  lambda: IntMatrix.from_rows([(1, 2), (3,)]),
                  lambda: IntMatrix.from_rows([(), (3,)])):
        with pytest.raises(ValueError, match="^ragged rows in matrix$"):
            build()
    for columns in ([(1, 2), (3,)], [(1,), (2, 3)], [(), (1,)]):
        with pytest.raises(ValueError, match="^ragged columns$"):
            IntMatrix.from_columns(columns)
    with pytest.raises(ValueError, match="^ragged columns$"):
        IntMatrix.from_columns([(1, 2), (3, 4, 5)], rows=2)
    with pytest.raises(ValueError, match="^row count does not match entries$"):
        IntMatrix(2, 1, ((1,),))
    with pytest.raises(ValueError, match="^matrix dimensions must be nonnegative$"):
        IntMatrix(-1, 0, ())
    for bad, shown in ((True, "bool True"), (False, "bool False"), (2.5, "float 2.5"),
                       (2.0, "float 2.0"), ("3", "str '3'")):
        text = f"^matrix entries must be int, not {shown}$"
        for build in (lambda: IntMatrix(1, 2, ((1, bad),)),
                      lambda: IntMatrix.from_rows([[1, 0], [0, bad]]),
                      lambda: IntMatrix.from_columns([(1, 0), (0, bad)])):
            with pytest.raises(TypeError, match=text):
                build()
