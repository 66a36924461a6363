import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rimtori.groups import (
    AmbientMismatchError,
    FgAbGroup,
    Homomorphism,
    IllDefinedHomomorphismError,
    format_canonical,
)
from rimtori.matrices import IntMatrix, solve_integral

from oracles import (
    lattice_points_in_box,
    quotient_canonical_oracle,
    random_group,
    random_matrix,
    random_unimodular,
)

Z2 = FgAbGroup.free(2)


def test_canonical_form_diagonal_relations():
    g = FgAbGroup(2, IntMatrix.from_columns([[2, 0], [0, 2]]))
    assert g.canonical_form() == (0, (2, 2))


def test_canonical_form_free():
    assert Z2.canonical_form() == (2, ())
    assert FgAbGroup.trivial().canonical_form() == (0, ())


def test_canonical_form_mixed():
    g = FgAbGroup(3, IntMatrix.from_columns([[2, 4, 6], [0, 0, 8]]))
    assert g.canonical_form() == (1, (2, 8))


def test_canonical_strings():
    assert Z2.canonical_string() == "Z^2"
    assert FgAbGroup.free(1).canonical_string() == "Z"
    assert FgAbGroup.trivial().canonical_string() == "0"
    assert format_canonical((1, (2, 8))) == "Z + Z/2 + Z/8"


def test_presentation_independence():
    rng = random.Random(21)
    for _ in range(100):
        a = random_matrix(rng, max_dim=5, bound=9)
        p = random_unimodular(rng, a.rows)
        q = random_unimodular(rng, a.cols)
        g1 = FgAbGroup(a.rows, a)
        g2 = FgAbGroup(a.rows, p @ a @ q)
        assert g1.canonical_form() == g2.canonical_form()


def test_quotient_examples():
    whole, _ = Z2.quotient(Z2.full_subgroup())
    assert whole.is_trivial()
    same, _ = Z2.quotient(Z2.zero_subgroup())
    assert same.canonical_form() == (2, ())
    q, proj = Z2.quotient(Z2.subgroup([[2, 0]]))
    assert q.canonical_form() == (1, (2,))
    assert proj.is_surjective()
    # projection kills exactly the subgroup
    assert q.contains_vector((2, 0))
    assert not q.contains_vector((1, 0))


def test_quotient_ambient_mismatch():
    other = FgAbGroup.free(3)
    with pytest.raises(AmbientMismatchError):
        Z2.quotient(other.zero_subgroup())


def test_cokernel_diagonal_embedding():
    f = Homomorphism(FgAbGroup.free(1), Z2, IntMatrix.from_columns([[1, 1]]))
    assert f.cokernel().canonical_form() == (1, ())


def test_kernel_image_identity():
    ident = Homomorphism.identity(Z2)
    assert ident.kernel() == Z2.zero_subgroup()
    assert ident.cokernel().is_trivial()


def test_doubling_map_structure():
    double = Homomorphism(Z2, Z2, IntMatrix.identity(2).scale(2))
    assert double.kernel() == Z2.zero_subgroup()
    assert double.cokernel().canonical_form() == (0, (2, 2))
    assert double.image() == Z2.subgroup([[2, 0], [0, 2]])


def test_torsion_kernel():
    # Z/4 -> Z/4, multiplication by 2, has kernel 2Z/4 and cokernel Z/2
    z4 = FgAbGroup(1, IntMatrix.from_columns([[4]]))
    f = Homomorphism(z4, z4, IntMatrix.from_rows([[2]]))
    assert f.kernel() == z4.subgroup([[2]])
    assert f.cokernel().canonical_form() == (0, (2,))


def test_ill_defined_homomorphism_rejected():
    z2mod = FgAbGroup(1, IntMatrix.from_columns([[2]]))
    with pytest.raises(IllDefinedHomomorphismError):
        Homomorphism(z2mod, FgAbGroup.free(1), IntMatrix.from_rows([[1]]))


def test_preimage_image_containments():
    rng = random.Random(33)
    for _ in range(60):
        src = FgAbGroup.free(rng.randint(0, 3))
        tgt = random_group(rng, 3)
        matrix = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(src.ambient_rank)]
             for _ in range(tgt.ambient_rank)], cols=src.ambient_rank)
        f = Homomorphism(src, tgt, matrix)
        sub = tgt.subgroup(IntMatrix.from_columns(
            [[rng.randint(-3, 3) for _ in range(tgt.ambient_rank)]
             for _ in range(rng.randint(0, 2))], rows=tgt.ambient_rank))
        pre = f.preimage(sub)
        # image(preimage(S)) is contained in S; preimage(image) is everything
        for col in pre.generators.columns():
            assert sub.contains_vector(f(col))
        assert f.preimage(f.image()) == src.full_subgroup()


def test_kernel_of_composition_is_preimage_of_kernel():
    rng = random.Random(55)
    for _ in range(60):
        a = FgAbGroup.free(rng.randint(0, 3))
        b_rank = rng.randint(0, 3)
        b_rel = IntMatrix.from_columns(
            [[rng.randint(-4, 4) for _ in range(b_rank)] for _ in range(rng.randint(0, 2))],
            rows=b_rank)
        b = FgAbGroup(b_rank, b_rel)
        f_matrix = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(a.ambient_rank)] for _ in range(b_rank)],
            cols=a.ambient_rank)
        f = Homomorphism(a, b, f_matrix)
        c_rank = rng.randint(0, 3)
        q_matrix = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(b_rank)] for _ in range(c_rank)],
            cols=b_rank)
        # make q well-defined by forcing the images of b's relations into c's
        extra = IntMatrix.from_columns(
            [[rng.randint(-3, 3) for _ in range(c_rank)] for _ in range(rng.randint(0, 2))],
            rows=c_rank)
        c = FgAbGroup(c_rank, (q_matrix @ b_rel).hstack(extra))
        q = Homomorphism(b, c, q_matrix)
        assert q.compose(f).kernel() == f.preimage(q.kernel())


def test_direct_sum():
    g = FgAbGroup(1, IntMatrix.from_columns([[2]]))
    total = Z2.direct_sum(g)
    assert total.canonical_form() == (2, (2,))
    assert total.ambient_rank == 3


def test_subgroup_sum_and_zero():
    s = Z2.subgroup([[2, 0]])
    assert s.sum(Z2.zero_subgroup()) == s
    assert Z2.subgroup([[1, 0]]).sum(Z2.subgroup([[0, 1]])) == Z2.full_subgroup()


def test_subgroup_intersection_lcm():
    s1 = Z2.subgroup([[2, 0]])
    s2 = Z2.subgroup([[3, 0]])
    meet = s1.intersection(s2)
    assert meet == Z2.subgroup([[6, 0]])
    # brute-force box oracle
    pts1 = lattice_points_in_box([(2, 0)], bound=12)
    pts2 = lattice_points_in_box([(3, 0)], bound=12)
    pts = lattice_points_in_box([(6, 0)], bound=12)
    assert pts1 & pts2 == pts


def test_subgroup_intersection_random_containments():
    rng = random.Random(77)
    for _ in range(40):
        g = random_group(rng, 3)
        n = g.ambient_rank
        s1 = g.subgroup(IntMatrix.from_columns(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 2))], rows=n))
        s2 = g.subgroup(IntMatrix.from_columns(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 2))], rows=n))
        meet = s1.intersection(s2)
        assert s1.contains(meet) and s2.contains(meet)
        assert meet.sum(s1) == s1
        assert meet.sum(s2) == s2


def test_subgroup_intersection_is_maximal_in_box():
    # the meet holds every vector that both subgroups hold, not just some of them
    rng = random.Random(78)
    for _ in range(60):
        g = random_group(rng, 3)
        n = g.ambient_rank
        s1, s2 = (g.subgroup(IntMatrix.from_columns(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(0, 3))], rows=n))
            for _ in range(2))
        meet = s1.intersection(s2)
        for v in itertools.product(range(-5, 6), repeat=n):
            assert meet.contains_vector(v) == (s1.contains_vector(v) and s2.contains_vector(v))


def test_index_and_order():
    assert Z2.index_of(Z2.subgroup([[2, 0], [0, 2]])) == 4
    assert Z2.index_of(Z2.zero_subgroup()) is None
    assert Z2.index_of(Z2.subgroup([[2, 0], [0, 3]])) == 6
    assert FgAbGroup(2, IntMatrix.from_columns([[2, 0], [0, 3]])).order() == 6
    assert Z2.order() is None
    assert FgAbGroup.trivial().order() == 1


def test_quotient_order_matches_index():
    rng = random.Random(101)
    for _ in range(60):
        g = random_group(rng, 3)
        n = g.ambient_rank
        s = g.subgroup(IntMatrix.from_columns(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(rng.randint(0, n + 1))],
            rows=n))
        q, _ = g.quotient(s)
        assert q.order() == g.index_of(s)


def test_coset_representatives():
    reps = Z2.coset_representatives(Z2.subgroup([[2, 0], [0, 2]]))
    assert sorted(reps) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(ValueError):
        Z2.coset_representatives(Z2.zero_subgroup())


def test_coset_representatives_refuses_a_huge_index():
    for gens, index in (([[1, 0], [0, 2**20 + 1]], 2**20 + 1),
                        ([[1024, 0], [0, 1025]], 1024 * 1025),
                        ([[10**6, 0], [0, 10**6]], 10**12)):
        with pytest.raises(ValueError, match=f"index {index};"):
            Z2.coset_representatives(Z2.subgroup(gens))


def test_coset_representatives_are_a_transversal():
    rng = random.Random(13)
    for _ in range(25):
        g = random_group(rng, 3)
        n = g.ambient_rank
        s = g.subgroup(IntMatrix.from_columns(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n + 1)], rows=n))
        index = g.index_of(s)
        if index is None:
            continue
        reps = g.coset_representatives(s)
        assert len(reps) == index
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                diff = tuple(x - y for x, y in zip(reps[i], reps[j]))
                assert not s.contains_vector(diff)


def test_coset_representatives_exact_order():
    """The transversal is U^-1 applied to the SNF box, in product order."""
    z3 = FgAbGroup.free(3)
    torsion = FgAbGroup.from_invariants(0, [6, 4])
    mixed = FgAbGroup.from_invariants(1, [4])
    cases = [
        (Z2, [[3, 1], [1, 2]], [(0, 0), (0, -1), (0, -2), (0, -3), (0, -4)]),
        (Z2, [[2, 4], [6, 2]],
         [(0, 0), (0, -1), (0, -2), (0, -3), (0, -4), (0, -5), (0, -6), (0, -7), (0, -8),
          (0, -9), (1, 2), (1, 1), (1, 0), (1, -1), (1, -2), (1, -3), (1, -4), (1, -5),
          (1, -6), (1, -7)]),
        (z3, [[1, 2, 0], [0, 1, 3], [2, 0, 1]], [(0, 0, k) for k in range(13)]),
        (torsion, [[2, 2]], [(0, 0), (0, 1), (1, 1), (1, 2)]),
        (mixed, [[3, 2]], [(k, k) for k in range(12)]),
    ]
    for group, gens, expected in cases:
        assert group.coset_representatives(group.subgroup(gens)) == expected


def test_cokernel_against_independent_pivot_oracle():
    rng = random.Random(4242)
    for _ in range(80):
        src = FgAbGroup.free(rng.randint(0, 3))
        tgt = random_group(rng, 3)
        matrix = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(src.ambient_rank)]
             for _ in range(tgt.ambient_rank)], cols=src.ambient_rank)
        f = Homomorphism(src, tgt, matrix)
        coker = f.cokernel()
        stacked = matrix.hstack(tgt.relations)
        oracle = quotient_canonical_oracle([list(r) for r in stacked.entries],
                                           tgt.ambient_rank)
        assert coker.canonical_form() == oracle


def test_subgroup_as_group():
    s = Z2.subgroup([[2, 0], [0, 2]])
    assert s.as_group().canonical_form() == (2, ())
    # subgroup of a torsion group
    z4 = FgAbGroup(1, IntMatrix.from_columns([[4]]))
    s2 = z4.subgroup([[2]])
    assert s2.as_group().canonical_form() == (0, (2,))
    group, embed = s2.embedding()
    assert embed.is_injective()


def test_rank_zero_everywhere():
    t = FgAbGroup.trivial()
    q, proj = t.quotient(t.zero_subgroup())
    assert q.is_trivial()
    assert proj.kernel() == t.zero_subgroup()
    assert t.order() == 1
    assert t.coset_representatives(t.zero_subgroup()) == [()]


# -- answers read off the Hermite form agree with the Smith route --------------

@st.composite
def groups_with_subgroups(draw):
    """A group on Z^n, n <= 4, a subgroup of it and a vector of Z^n."""
    n = draw(st.integers(0, 4))
    column = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    group = FgAbGroup(n, IntMatrix.from_columns(draw(st.lists(column, max_size=4)), rows=n))
    sub = group.subgroup(IntMatrix.from_columns(draw(st.lists(column, max_size=4)), rows=n))
    return group, sub, tuple(draw(column))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(groups_with_subgroups())
def test_hermite_answers_match_canonical_forms(case):
    group, sub, vector = case
    for g in (group, sub.quotient_group()):
        rank, factors = g.canonical_form()
        assert g.free_rank() == rank
        assert g.order() == (None if rank else math.prod(factors))
        assert g.is_trivial() == (rank == 0 and not factors)
    assert sub.free_rank() == sub.canonical_form()[0]
    assert group.index_of(sub) == sub.quotient_group().order()
    assert group.contains_vector(vector) == (solve_integral(group.relations, vector) is not None)
    assert sub.contains_vector(vector) == (solve_integral(sub.span_matrix(), vector) is not None)


def test_membership_refuses_a_wrong_length():
    group = FgAbGroup.from_invariants(1, [4])
    for contains in (group.contains_vector, group.subgroup([(1, 2)]).contains_vector):
        for vector in ((1,), (1, 0, 0), ()):
            with pytest.raises(ValueError):
                contains(vector)


def test_membership_refuses_entries_that_are_not_ints():
    # a float was read as the integer it equals, a bool as 0 or 1
    group = FgAbGroup(1, IntMatrix.from_rows([[2]]))
    for contains in (group.contains_vector, group.subgroup([(1,)]).contains_vector):
        for bad, shown in ((4.0, "float 4.0"), (True, "bool True"), (False, "bool False"),
                           ("2", "str '2'")):
            with pytest.raises(TypeError, match=f"must be int, not {shown}"):
                contains((bad,))


def test_homomorphism_call_refuses_entries_that_are_not_ints():
    # a bool was read as 0 or 1 and a float carried into the image
    f = Homomorphism(Z2, FgAbGroup.from_invariants(0, [6]), IntMatrix.from_rows([[2, 3]]))
    for bad, shown in (((True, 2), "bool True"), ((0.5, 1), "float 0.5"), ((1, "2"), "str '2'")):
        with pytest.raises(TypeError, match=f"vector entries must be int, not {shown}"):
            f(bad)
    assert f((1, 2)) == (8,)


def test_ambient_rank_must_be_an_int():
    # free(True) rendered as "Z" and from_invariants(True, [2]) as "Z + Z/2"
    for build, shown in ((lambda: FgAbGroup(True, IntMatrix.zeros(1, 0)), "bool True"),
                         (lambda: FgAbGroup(2.0, IntMatrix.zeros(2, 0)), "float 2.0")):
        with pytest.raises(TypeError, match=f"^ambient rank must be int, not {shown}$"):
            build()
    for build in (lambda: FgAbGroup.free(True), lambda: FgAbGroup.from_invariants(True, [2])):
        with pytest.raises(TypeError, match="^matrix dimensions must be int, not bool True$"):
            build()


def _mismatched_calls():
    """Each call mixes objects over two different ambient groups."""
    g, h = FgAbGroup.from_invariants(1, [4]), FgAbGroup.free(2)
    sg, sh = g.subgroup([(1, 0)]), h.subgroup([(1, 0)])
    f = Homomorphism.identity(h)
    return {
        "contains": lambda: sg.contains(sh),
        "sum": lambda: sg.sum(sh),
        "intersection": lambda: sg.intersection(sh),
        "index_of": lambda: g.index_of(sh),
        "coset_representatives": lambda: g.coset_representatives(sh),
        "compose": lambda: f.compose(Homomorphism.identity(g)),
        "preimage": lambda: f.preimage(sg),
    }


@pytest.mark.parametrize("name", list(_mismatched_calls()))
def test_operations_refuse_mismatched_ambients(name):
    with pytest.raises(AmbientMismatchError):
        _mismatched_calls()[name]()


@pytest.mark.parametrize("shape, message", [
    ((3, 2), "row count must equal target ambient rank"),
    ((2, 3), "column count must equal source ambient rank"),
])
def test_homomorphism_refuses_a_wrong_shape(shape, message):
    with pytest.raises(ValueError, match=message):
        Homomorphism(Z2, Z2, IntMatrix.zeros(*shape))
