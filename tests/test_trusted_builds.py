"""Matrices the library builds without an entry scan are the ones the checked
constructor builds: equal, hashed alike, holding only ints, and as small."""

import sys
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from rimtori.matrices import (
    IntMatrix,
    block_diagonal,
    hermite_form,
    kernel_projection,
    smith_decomposition,
)

FIELDS = ("rows", "cols", "entries")


def assert_like_checked(m, name):
    twin = IntMatrix(m.rows, m.cols, m.entries)  # the constructor scans every entry
    assert m == twin and hash(m) == hash(twin), name
    assert type(m.entries) is tuple and {tuple}.issuperset(map(type, m.entries)), name
    assert {int}.issuperset(map(type, chain.from_iterable(m.entries))), name
    # what a stack sets on its result goes on the twin too, in the same order; an instance
    # dict that no longer shares its keys with the class's other instances is larger
    for attribute, value in vars(m).items():
        if attribute not in FIELDS:
            object.__setattr__(twin, attribute, value)
    assert sys.getsizeof(vars(m)) == sys.getsizeof(vars(twin)), name


def matrices(rows, cols):
    return st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda r: IntMatrix.from_rows(r, cols=cols))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_library_builds_match_checked_ones(data):
    m, n, k = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, same = data.draw(matrices(m, n)), data.draw(matrices(m, n))
    right, below = data.draw(matrices(n, k)), data.draw(matrices(k, n))
    beside = data.draw(matrices(m, k))
    hermite_form(a)  # so that the stacks below seed their forms from a's
    dec = smith_decomposition(beside)
    built = {
        "@": a @ right, "+": a + same, "-": a - same, "neg": -a,
        "scale": a.scale(data.draw(st.integers(-5, 5))),
        "hstack": a.hstack(beside), "vstack": a.vstack(below),
        "block_diagonal": block_diagonal([a, below, beside]),
        "hermite_form": hermite_form(same), "seeded hermite_form": hermite_form(a.hstack(beside)),
        "diagonal hermite_form": hermite_form(block_diagonal([a, a])),
        "kernel_projection": kernel_projection(a, data.draw(st.integers(0, n))),
        "smith d": dec.d, "smith u": dec.u, "smith v": dec.v,
        "smith u^-1": dec._u_inverse, "smith kernel": dec.kernel(),
        "identity": IntMatrix.identity(k), "zeros": IntMatrix.zeros(m, k),
    }
    for name, matrix in built.items():
        assert_like_checked(matrix, name)


@pytest.mark.parametrize("build, error, shown", [
    (lambda: IntMatrix.identity(True), TypeError, "must be int, not bool True"),
    (lambda: IntMatrix.identity(2.0), TypeError, "must be int, not float 2.0"),
    (lambda: IntMatrix.zeros(1, "2"), TypeError, "must be int, not str '2'"),
    (lambda: IntMatrix.identity(-1), ValueError, "must be nonnegative"),
    (lambda: IntMatrix.zeros(2, -1), ValueError, "must be nonnegative"),
])
def test_identity_and_zeros_check_their_dimensions(build, error, shown):
    with pytest.raises(error, match=f"^matrix dimensions {shown}$"):
        build()
