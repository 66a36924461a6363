"""Preimages, kernels and intersections come from the echelon pass, not the Smith elimination."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from rimtori import FgAbGroup, Homomorphism, IntMatrix, elliptic_p1xt2_square, verify
from rimtori import matrices
from rimtori.matrices import hermite_form, integer_kernel, kernel_projection


def _smith_projection(a, k):
    """The first k rows of the Smith kernel of ``a``: the reference for ``kernel_projection``."""
    return IntMatrix.from_columns([c[:k] for c in integer_kernel(a).columns()], rows=k)


def _smith_preimage(f, sub):
    return f.source.subgroup(
        _smith_projection(f.matrix.hstack(sub.span_matrix()), f.source.ambient_rank))


def _matrices(draw, rows, cols_max):
    column = st.lists(st.integers(-6, 6), min_size=rows, max_size=rows)
    return IntMatrix.from_columns(draw(st.lists(column, max_size=cols_max)), rows=rows)


@st.composite
def maps_and_subgroups(draw):
    """A well-defined map Z^n/R -> Z^m/S, often with torsion in S, and two target subgroups."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    matrix = IntMatrix.from_rows(
        [[draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(m)], cols=n)
    source_relations = _matrices(draw, n, 2)
    # S holds the images of R, so the map is well defined
    target = FgAbGroup(m, _matrices(draw, m, 3).hstack(matrix @ source_relations))
    f = Homomorphism(FgAbGroup(n, source_relations), target, matrix)
    return f, target.subgroup(_matrices(draw, m, 3)), target.subgroup(_matrices(draw, m, 3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(maps_and_subgroups())
def test_preimage_kernel_and_intersection_match_the_smith_kernel(case):
    f, sub, other = case
    assert f.preimage(sub) == _smith_preimage(f, sub)
    assert f.kernel() == _smith_preimage(f, f.target.zero_subgroup())
    a = sub.span_matrix()
    inclusion = Homomorphism(FgAbGroup.free(a.cols), f.target, a)
    meet = f.target.subgroup(a @ _smith_preimage(inclusion, other).generators)
    assert sub.intersection(other) == meet == other.intersection(sub)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_kernel_projection_spans_the_smith_kernel_projection(data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 5))
    a = IntMatrix.from_rows(
        [[data.draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)], cols=cols)
    k = data.draw(st.integers(0, cols))
    gens = kernel_projection(a, k)
    assert gens.rows == k and gens.cols == cols - hermite_form(a).cols
    assert hermite_form(gens) == hermite_form(_smith_projection(a, k))


def test_kernels_run_no_smith_elimination(monkeypatch):
    runs = []
    eliminate = matrices._eliminate
    monkeypatch.setattr(matrices, "_eliminate", lambda a: runs.append(a) or eliminate(a))
    # 12 raw eliminations of [M | G | R], one per kernel, when kernels were Smith kernels
    assert verify(elliptic_p1xt2_square()).overall

    z4, z8 = FgAbGroup.from_invariants(0, [4]), FgAbGroup.from_invariants(0, [8])
    assert Homomorphism(z4, z8, IntMatrix.from_rows([[2]])).is_injective()
    mod6 = Homomorphism(FgAbGroup.free(2), FgAbGroup.from_invariants(0, [6]),
                        IntMatrix.from_rows([[2, 3]]))
    assert mod6.kernel() == FgAbGroup.free(2).subgroup([(3, 0), (0, 2)])
    mixed = FgAbGroup.from_invariants(1, [12])
    meet = mixed.subgroup([(4, 2)]).intersection(mixed.subgroup([(6, 3)]))
    assert meet == mixed.subgroup([(12, 6)])
    assert not runs


@pytest.mark.parametrize("rows, cols", [(40, 41), (24, 36), (20, 40)])
def test_seeded_large_kernels_stay_small(rows, cols):
    rng = random.Random(3)
    a = IntMatrix.from_rows(
        [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)], cols=cols)
    gens = Homomorphism(FgAbGroup.free(cols), FgAbGroup.free(rows), a).kernel().generators
    assert (a @ gens).is_zero()
    # the Smith kernel's entries reached 587 bits at 24x36 and 7,002 at 20x40
    assert max(abs(x).bit_length() for row in gens.entries for x in row) < 256
    # as many generators as the kernel's rank, spanning a saturated lattice: all of it
    assert gens.cols == cols - hermite_form(a).cols
    assert FgAbGroup(cols, gens).canonical_form()[1] == ()
