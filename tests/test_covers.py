import random
from fractions import Fraction

import pytest

from rimtori import FgAbGroup, IntMatrix
from rimtori.covers import (
    CoverPoint,
    TorusPoint,
    base_point,
    cover_project,
    deck_act,
    in_weighted_subtorus,
    lift_linear_loop,
    rank_profile,
    weighted_sum,
)

ORIGIN2 = ((0, 0), (0, 0))


def test_membership_examples():
    assert in_weighted_subtorus((1, 1), TorusPoint.of([(Fraction(1, 2), 0), (Fraction(1, 2), 0)]))
    assert not in_weighted_subtorus((2,), TorusPoint.of([(Fraction(1, 4), 0)]))
    assert in_weighted_subtorus((2, 4), TorusPoint.of([(Fraction(1, 4), 0), (Fraction(1, 8), 0)]))


def test_membership_length_mismatch():
    with pytest.raises(ValueError):
        in_weighted_subtorus((1, 2), TorusPoint.of([(0, 0)]))


def test_canonical_representatives():
    p = TorusPoint.of([(Fraction(5, 4), Fraction(-1, 3))])
    assert p.coordinates == ((Fraction(1, 4), Fraction(2, 3)),)


def test_project_zero_base_leaves_torus_part():
    cp = CoverPoint.of((0, 0), [(Fraction(1, 3), 0), (Fraction(1, 3), 0)])
    assert cover_project((2, 1), cp).coordinates == cp.torus.coordinates


def test_project_hand_example():
    cp = CoverPoint.of((Fraction(1, 2), 0), [(Fraction(1, 4), 0), (Fraction(1, 4), 0)])
    assert cover_project((2, 2), cp).coordinates == ORIGIN2


def test_project_requires_membership():
    bad = CoverPoint.of((0, 0), [(Fraction(1, 4), 0)])
    with pytest.raises(ValueError):
        cover_project((2,), bad)


def test_deck_act_zero_loops_is_identity():
    cp = CoverPoint.of((Fraction(1, 3), Fraction(1, 7)), [(Fraction(1, 2), 0), (Fraction(1, 2), 0)])
    out = deck_act((1, 1), [(0, 0), (0, 0)], cp)
    assert out == cp


def test_deck_act_z_shift():
    out = deck_act((2,), [(2, 0)], CoverPoint.of((0, 0), [(0, 0)]))
    assert out.z == (Fraction(4), Fraction(0))


def test_deck_act_kernel_acts_trivially():
    # s = (1, -1): the loop pair (g, g) has weighted sum zero
    cp = CoverPoint.of((Fraction(1, 5), 0), [(Fraction(2, 5), 0), (Fraction(2, 5), 0)])
    out = deck_act((1, -1), [(3, 2), (3, 2)], cp)
    assert out == cp


def test_base_point_hand_example():
    bp = base_point((2, 2), (1, 0))
    assert bp.z == (Fraction(1, 2), Fraction(0))
    assert bp.torus.coordinates == ((Fraction(1, 4), 0), (Fraction(1, 4), 0))


def test_base_point_requires_contacts():
    with pytest.raises(ValueError):
        base_point((), (1, 0))


def test_rank_profile():
    free2 = FgAbGroup.free(2)
    assert rank_profile(2, free2.zero_subgroup(), (2,)) == (2, 0)
    assert rank_profile(2, free2.zero_subgroup(), (2, 4, 6)) == (2, 4)
    assert rank_profile(3, FgAbGroup.free(3).full_subgroup(), (1, 1)) == (0, 6)
    half = free2.subgroup(IntMatrix.from_columns([[1, 0]]))
    assert rank_profile(2, half, (5,)) == (1, 1)


def random_cover_point(rng, weights):
    """A random membership-satisfying point with small denominators."""
    ell = len(weights)
    coords = [(Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])),
               Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])))
              for _ in range(ell - 1)]
    # choose the final coordinate to force the weighted sum into the lattice
    partial_re = sum(w * c[0] for w, c in zip(weights, coords))
    partial_im = sum(w * c[1] for w, c in zip(weights, coords))
    target = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
    last = ((target[0] - partial_re) / weights[-1], (target[1] - partial_im) / weights[-1])
    z = (Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])),
         Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])))
    return CoverPoint.of(z, coords + [last])


def random_loops(rng, ell):
    return [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(ell)]


@pytest.mark.parametrize("weights", [(2,), (1, 1), (2, 4), (3, -2, 6)])
def test_cover_coherence_randomized(weights):
    rng = random.Random(sum(abs(w) for w in weights))
    for _ in range(60):
        cp = random_cover_point(rng, weights)
        loops = random_loops(rng, len(weights))
        moved = deck_act(weights, loops, cp)
        # membership preservation
        assert in_weighted_subtorus(weights, moved.torus)
        # deck transformations cover the identity on the base
        assert cover_project(weights, moved) == cover_project(weights, cp)
        # lift endpoint agrees with the deck action applied to the origin
        origin = CoverPoint.of((0, 0), [(0, 0)] * len(weights))
        assert lift_linear_loop(weights, loops) == deck_act(weights, loops, origin)


def test_base_point_projects_to_origin_randomized():
    rng = random.Random(17)
    for _ in range(60):
        ell = rng.randint(1, 4)
        weights = tuple(rng.choice([-3, -2, -1, 1, 2, 3, 4]) for _ in range(ell))
        gamma = (rng.randint(-5, 5), rng.randint(-5, 5))
        bp = base_point(weights, gamma)
        assert in_weighted_subtorus(weights, bp.torus)
        projected = cover_project(weights, bp)
        assert all(z == (0, 0) for z in projected.coordinates)


def test_weighted_sum_is_exact():
    pt = TorusPoint.of([(Fraction(1, 3), Fraction(1, 6)), (Fraction(1, 2), 0)])
    assert weighted_sum((3, 2), pt) == (Fraction(2), Fraction(1, 2))


def test_zero_weights_raise_value_error():
    # each divided by the zero weight before
    point = CoverPoint.of((0, 0), [(0, 0)])
    for call in (lambda: base_point([0], (1, 0)),
                 lambda: base_point([2, 0], (1, 0)),
                 lambda: cover_project([0], point),
                 lambda: deck_act([0], [(1, 0)], point),
                 lambda: lift_linear_loop([3, 0], [(1, 0), (0, 1)]),
                 lambda: rank_profile(2, FgAbGroup.free(2).zero_subgroup(), (1, 0))):
        with pytest.raises(ValueError, match="weights must be nonzero"):
            call()


def test_empty_weights_raise_value_error():
    # deck_act divided by the empty weight count, and rank_profile gave torus dimension -2
    empty = CoverPoint.of((0, 0), [])
    for call in (lambda: deck_act([], [], empty),
                 lambda: lift_linear_loop([], []),
                 lambda: cover_project([], empty),
                 lambda: base_point([], (1, 0)),
                 lambda: rank_profile(2, FgAbGroup.free(2).zero_subgroup(), ())):
        with pytest.raises(ValueError, match="at least one contact point required"):
            call()


def test_inexact_coordinates_and_weights_are_refused():
    # a bool part was read as 0 or 1, a float stored as its binary fraction, and a
    # float weight gave a rank profile or raised AttributeError
    for call, shown in ((lambda: base_point([2], (True, 0)), "bool True"),
                        (lambda: TorusPoint.of([(0.1, 0)]), "float 0.1"),
                        (lambda: CoverPoint.of((0, 0.5), [(0, 0)]), "float 0.5"),
                        (lambda: deck_act([1], [(1, False)], CoverPoint.of((0, 0), [(0, 0)])),
                         "bool False")):
        with pytest.raises(TypeError, match=f"^coordinates must be exact, not {shown}$"):
            call()
    point = TorusPoint.of([(0, 0)])
    for call, shown in ((lambda: rank_profile(2, FgAbGroup.free(2).zero_subgroup(), [2.5]),
                         "float 2.5"),
                        (lambda: in_weighted_subtorus([2.5], point), "float 2.5"),
                        (lambda: weighted_sum([True], point), "bool True"),
                        (lambda: base_point(["2"], (1, 0)), "str '2'")):
        with pytest.raises(TypeError, match=f"^weights must be int, not {shown}$"):
            call()
    # strings and Fractions are exact and stay accepted
    assert TorusPoint.of([("1/2", Fraction(4, 3))]) == TorusPoint.of([(Fraction(1, 2), "1/3")])
