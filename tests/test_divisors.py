import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from rimtori import (
    ContactProfile,
    DivisorComponent,
    DivisorData,
    FgAbGroup,
    IntMatrix,
    active_component_span,
    contact_image,
    contact_preimage,
    contact_sum_hom,
    cover_homology_finitely_generated,
    deck_action,
    deck_group,
    gcd_tuple,
    invariance_verdict,
    rim_tori_module,
    self_glue,
    vanishing_cycles,
    vanishing_cycles_from_pairs,
    vanishing_threshold,
)

from oracles import deck_action_quadratic, random_divisor, sympy_cokernel_canonical

Z2 = FgAbGroup.free(2)


def torus_component(name="T", rank=2):
    return DivisorComponent(name, FgAbGroup.free(rank), is_torus=True)


def elliptic_fiber_divisor():
    """Torus fiber with nothing swept from the ambient space."""
    comp = torus_component("F")
    return DivisorData((comp,), comp.h1.zero_subgroup(), dim_v=2)


def two_fiber_divisor():
    """Two torus fibers of a product, with the diagonal swept."""
    f0, fi = torus_component("F0"), torus_component("Finf")
    total = f0.h1.direct_sum(fi.h1)
    diagonal = total.subgroup([[1, 0, 1, 0], [0, 1, 0, 1]])
    return DivisorData((f0, fi), diagonal, dim_v=2)


def block_identification(phi_rows):
    """Identity on the first fiber, the given 2x2 matrix on the second."""
    rows = []
    for i in range(2):
        rows.append([int(i == j) for j in range(2)] + [0, 0])
    for i in range(2):
        rows.append([0, 0] + [int(x) for x in phi_rows[i]])
    return IntMatrix.from_rows(rows)


# -- gcd ------------------------------------------------------------------

def test_gcd_tuple():
    assert gcd_tuple((2, 4, -6)) == 2
    assert gcd_tuple(()) == 0
    assert gcd_tuple((1, 7)) == 1


def test_gcd_tuple_rejects_zero():
    with pytest.raises(ValueError):
        gcd_tuple((2, 0))


def test_profile_rejects_zero_orders():
    with pytest.raises(ValueError):
        ContactProfile.of([1, 0])


@pytest.mark.parametrize("orders, name", [
    ([2.7], "float 2.7"), (["3"], "str '3'"), ([True], "bool True"), ([1, 2.0], "float 2.0")])
def test_profile_refuses_orders_that_are_not_ints(orders, name):
    # ``of`` coerced 2.7 to 2, "3" to 3 and True to 1, and the constructor took
    # them as they were, to fail only inside a matrix
    with pytest.raises(TypeError, match=f"contact orders must be int, not {name}"):
        ContactProfile.of(orders)
    with pytest.raises(TypeError, match=name):
        ContactProfile((tuple(orders),))


def test_profile_order_constraint():
    comp = torus_component("F")
    d = DivisorData((comp,), comp.h1.zero_subgroup(), dim_v=2, intersections=(6,))
    contact_sum_hom(d, ContactProfile.of([2, 4]))
    with pytest.raises(ValueError):
        contact_sum_hom(d, ContactProfile.of([2, 3]))


# -- contact-sum homomorphism ----------------------------------------------

def test_contact_sum_single_block():
    d = elliptic_fiber_divisor()
    phi = contact_sum_hom(d, ContactProfile.of([2]))
    assert phi.matrix == IntMatrix.from_rows([[2, 0], [0, 2]])


def test_contact_sum_two_blocks():
    d = elliptic_fiber_divisor()
    phi = contact_sum_hom(d, ContactProfile.of([2, 4]))
    assert phi.source.ambient_rank == 4
    assert phi.matrix == IntMatrix.from_rows([[2, 0, 4, 0], [0, 2, 0, 4]])


def test_contact_sum_empty_profile():
    d = elliptic_fiber_divisor()
    phi = contact_sum_hom(d, ContactProfile.of([]))
    assert phi.source.is_trivial()
    assert phi.image() == d.total_h1().zero_subgroup()


def test_contact_sum_component_mismatch():
    with pytest.raises(ValueError):
        contact_sum_hom(elliptic_fiber_divisor(), ContactProfile.of([1], [2]))


# -- rim tori module --------------------------------------------------------

def test_rim_tori_elliptic_fiber():
    rim, proj = rim_tori_module(elliptic_fiber_divisor())
    assert rim.canonical_form() == (2, ())
    assert proj.is_surjective()


def test_rim_tori_everything_swept():
    comp = torus_component("PN")
    d = DivisorData((comp,), comp.h1.full_subgroup(), dim_v=2)
    assert rim_tori_module(d)[0].is_trivial()


def test_rim_tori_two_fibers_diagonal():
    rim, _ = rim_tori_module(two_fiber_divisor())
    assert rim.canonical_form() == (2, ())


# -- contact image and preimage ---------------------------------------------

def test_contact_image_is_gcd_multiple_for_connected():
    rng = random.Random(71)
    for _ in range(40):
        rank = rng.randint(0, 3)
        torsion = [rng.choice([2, 3, 4]) for _ in range(rng.randint(0, 2))]
        h1 = FgAbGroup.from_invariants(rank, torsion)
        comp = DivisorComponent("V", h1)
        n = h1.ambient_rank
        gens = IntMatrix.from_columns(
            [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))],
            rows=n)
        d = DivisorData((comp,), h1.subgroup(gens), dim_v=2)
        ell = rng.randint(1, 3)
        s = tuple(rng.choice([-6, -4, -2, 1, 2, 3, 4, 6]) for _ in range(ell))
        rim, _ = rim_tori_module(d)
        image = contact_image(d, ContactProfile.of(s))
        scaled = rim.subgroup(IntMatrix.identity(n).scale(gcd_tuple(s)))
        assert image == scaled


def test_contact_image_empty_profile_is_zero():
    d = elliptic_fiber_divisor()
    rim, _ = rim_tori_module(d)
    assert contact_image(d, ContactProfile.of([])) == rim.zero_subgroup()


def test_contact_image_t2_24():
    d = elliptic_fiber_divisor()
    rim, _ = rim_tori_module(d)
    assert contact_image(d, ContactProfile.of([2, 4])) == rim.subgroup([[2, 0], [0, 2]])


def test_contact_preimage_definition():
    d = two_fiber_divisor()
    profile = ContactProfile.of([2], [4])
    phi = contact_sum_hom(d, profile)
    pre = contact_preimage(d, profile)
    for col in pre.generators.columns():
        assert d.h_xv.contains_vector(phi(col))
    assert pre == phi.preimage(d.h_xv)


# -- deck groups -------------------------------------------------------------

def test_deck_group_gcd_two():
    report = deck_group(elliptic_fiber_divisor(), ContactProfile.of([2, 4]))
    assert report.finite_part == (0, (2, 2))
    assert report.free_part == (2, ())
    assert report.total == (2, (2, 2))


def test_deck_group_gcd_one():
    report = deck_group(elliptic_fiber_divisor(), ContactProfile.of([2, 3]))
    assert report.finite_part == (0, ())
    assert report.total == (2, ())
    rim, _ = rim_tori_module(elliptic_fiber_divisor())
    assert report.contact_image == rim.full_subgroup()


def test_deck_group_no_contacts():
    report = deck_group(elliptic_fiber_divisor(), ContactProfile.of([]))
    assert report.finite_part == (2, ())
    assert report.free_part == (0, ())
    assert report.total == (2, ())


def test_deck_group_total_order():
    rng = random.Random(5150)
    for _ in range(30):
        comp = DivisorComponent(
            "V", FgAbGroup.from_invariants(0, [rng.choice([2, 3, 4]) for _ in range(2)]))
        d = DivisorData((comp,), comp.h1.zero_subgroup(), dim_v=2)
        s = tuple(rng.choice([1, 2, 3, 6]) for _ in range(rng.randint(1, 3)))
        report = deck_group(d, ContactProfile.of(s))
        total_order = FgAbGroup.from_invariants(*_normalize(report.total)).order()
        finite_order = FgAbGroup.from_invariants(*_normalize(report.finite_part)).order()
        free_order = FgAbGroup.from_invariants(*_normalize(report.free_part)).order()
        assert total_order == finite_order * free_order


def _normalize(form):
    return form[0], list(form[1])


# -- vanishing cycles ---------------------------------------------------------

def test_vanishing_cycles_elliptic_self_sum():
    d = elliptic_fiber_divisor()
    assert vanishing_cycles(d, d).canonical_form() == (2, ())


def test_vanishing_cycles_twist_trichotomy():
    d = two_fiber_divisor()
    cases = [
        ([[1, 0], [0, 1]], (2, ())),
        ([[1, 1], [0, 1]], (1, ())),
        ([[2, 1], [1, 1]], (0, ())),
    ]
    for phi_rows, expected in cases:
        ident = block_identification(phi_rows)
        assert vanishing_cycles(d, d, ident).canonical_form() == expected
        # independent route: the reduced 4x4 map (a, b) -> (a - b, a - phi b)
        reduced = [
            [1, 0, -1, 0],
            [0, 1, 0, -1],
            [1, 0, -phi_rows[0][0], -phi_rows[0][1]],
            [0, 1, -phi_rows[1][0], -phi_rows[1][1]],
        ]
        assert sympy_cokernel_canonical(reduced, 4) == expected


def test_vanishing_cycles_rejects_non_invertible():
    d = two_fiber_divisor()
    with pytest.raises(ValueError):
        vanishing_cycles(d, d, block_identification([[2, 0], [0, 1]]))


def test_vanishing_cycles_swept_sides_collapse():
    comp = torus_component("PN")
    full = DivisorData((comp,), comp.h1.full_subgroup(), dim_v=2)
    assert vanishing_cycles(full, full).is_trivial()


def test_vanishing_cycles_from_pairs():
    rim = FgAbGroup.free(2)
    diagonal = IntMatrix.from_columns([[1, 0, 1, 0], [0, 1, 0, 1]])
    assert vanishing_cycles_from_pairs(rim, rim, diagonal).canonical_form() == (2, ())
    empty = IntMatrix.zeros(4, 0)
    assert vanishing_cycles_from_pairs(rim, rim, empty).canonical_form() == (4, ())
    zero = FgAbGroup.trivial()
    alone = vanishing_cycles_from_pairs(zero, zero, IntMatrix.zeros(0, 0))
    assert alone.is_trivial()


def test_vanishing_cycles_from_pairs_matches_injective_case():
    rng = random.Random(303)
    for _ in range(20):
        d = random_divisor(rng)
        rim, proj = rim_tori_module(d)
        n = rim.ambient_rank
        # matched pairs spanned by ([gamma], [gamma]) over ambient generators
        cols = []
        for k in range(n):
            e = [0] * n
            e[k] = 1
            cols.append(tuple(e + e))
        pairs = IntMatrix.from_columns(cols, rows=2 * n)
        direct = vanishing_cycles_from_pairs(rim, rim, pairs)
        assert direct.canonical_form() == vanishing_cycles(d, d).canonical_form()


def test_self_glue_examples():
    assert self_glue(elliptic_fiber_divisor()).canonical_form() == (2, ())
    comp = torus_component("PN")
    full = DivisorData((comp,), comp.h1.full_subgroup(), dim_v=2)
    assert self_glue(full).is_trivial()
    # mixed torsion ambient
    h1 = FgAbGroup.from_invariants(2, [3])
    comp2 = DivisorComponent("V", h1)
    d = DivisorData((comp2,), h1.subgroup([[2, 0, 0]]), dim_v=2)
    assert self_glue(d).canonical_form() == rim_tori_module(d)[0].canonical_form()


def test_self_glue_matches_rim_tori_randomized():
    rng = random.Random(909)
    for _ in range(60):
        d = random_divisor(rng)
        expected = rim_tori_module(d)[0].canonical_form()
        assert self_glue(d).canonical_form() == expected
        assert vanishing_cycles(d, d).canonical_form() == expected


# -- active component span, finite generation -------------------------------

def test_active_span_all_components():
    d = two_fiber_divisor()
    span, finite = active_component_span(d, ContactProfile.of([1], [2]))
    rim, _ = rim_tori_module(d)
    assert span == rim.full_subgroup()
    assert finite


def test_active_span_diagonal_swallows_one_component():
    d = two_fiber_divisor()
    span, finite = active_component_span(d, ContactProfile.of([1], []))
    rim, _ = rim_tori_module(d)
    assert finite
    assert rim.index_of(span) == 1


def test_active_span_split_components_infinite_index():
    c1 = DivisorComponent("A", FgAbGroup.free(1))
    c2 = DivisorComponent("B", FgAbGroup.free(1))
    total = c1.h1.direct_sum(c2.h1)
    d = DivisorData((c1, c2), total.zero_subgroup(), dim_v=2)
    span, finite = active_component_span(d, ContactProfile.of([1], []))
    assert not finite
    assert cover_homology_finitely_generated(d, ContactProfile.of([1], [])) is False


def test_finite_generation_connected():
    d = elliptic_fiber_divisor()
    assert cover_homology_finitely_generated(d, ContactProfile.of([2])) is True
    assert cover_homology_finitely_generated(d, ContactProfile.of([2]),
                                             component_fg=[False]) is False


def test_finite_generation_empty_divisor():
    d = DivisorData((), FgAbGroup.trivial().zero_subgroup(), dim_v=2)
    assert cover_homology_finitely_generated(d, ContactProfile(())) is True


def test_finite_generation_ignores_inactive_component_flags():
    d = two_fiber_divisor()
    profile = ContactProfile.of([1], [])
    assert cover_homology_finitely_generated(d, profile, component_fg=[True, False]) is True


# -- vanishing threshold ------------------------------------------------------

def test_threshold_torus_divisors():
    for n in (2, 3, 4):
        m = 2 * n - 2
        comp = DivisorComponent("T", FgAbGroup.free(m), is_torus=True)
        d = DivisorData((comp,), comp.h1.zero_subgroup(), dim_v=m)
        for ell in (1, 2, 3):
            profile = ContactProfile.of([1] * ell)
            assert vanishing_threshold(d, profile) == m * (ell - 1)


def test_threshold_single_contact_kills_everything():
    d = elliptic_fiber_divisor()
    assert vanishing_threshold(d, ContactProfile.of([5])) == 0


def test_threshold_torsion_quotient():
    h1 = FgAbGroup.free(2)
    comp = DivisorComponent("V", h1)
    d = DivisorData((comp,), h1.subgroup([[2, 0], [0, 2]]), dim_v=2)
    assert vanishing_threshold(d, ContactProfile.of([1, 1])) == 4


def test_threshold_requires_contacts():
    with pytest.raises(ValueError):
        vanishing_threshold(elliptic_fiber_divisor(), ContactProfile.of([]))


def test_threshold_monotone_in_contacts():
    rng = random.Random(404)
    for _ in range(30):
        d = random_divisor(rng)
        n_comp = len(d.components)
        tuples = [tuple(rng.choice([1, 2, 3]) for _ in range(rng.randint(1, 2)))
                  for _ in range(n_comp)]
        profile = ContactProfile(tuple(tuples))
        r = rng.randrange(n_comp)
        extended = list(tuples)
        extended[r] = extended[r] + (rng.choice([1, 2, 3]),)
        bigger = ContactProfile(tuple(extended))
        assert (vanishing_threshold(d, bigger)
                == vanishing_threshold(d, profile) + d.dim_v)


# -- invariance verdicts -------------------------------------------------------

def full_flux_divisor(h_xv_columns, rank=2):
    h1 = FgAbGroup.free(rank)
    comp = DivisorComponent("V", h1, flux=IntMatrix.identity(rank))
    return DivisorData((comp,), h1.subgroup(h_xv_columns), dim_v=2)


def test_invariance_rank_one():
    d = full_flux_divisor([[0, 1]])
    verdict = invariance_verdict(d, ContactProfile.of([1, 2]))
    assert verdict.lift_independent and verdict.equals_standard_gw


def test_invariance_rank_two_lift_only():
    d = full_flux_divisor([])
    verdict = invariance_verdict(d, ContactProfile.of([1, 2]))
    assert verdict.lift_independent and not verdict.equals_standard_gw


def test_invariance_fails_relatively_prime_gate():
    d = full_flux_divisor([])
    verdict = invariance_verdict(d, ContactProfile.of([2, 4]))
    assert not verdict.lift_independent and not verdict.equals_standard_gw
    reasons = dict(verdict.reasons)
    assert reasons["contacts_relatively_prime"] is False
    assert reasons["flux_condition"] is True


def test_invariance_torus_override():
    comp = torus_component("T")
    d = DivisorData((comp,), comp.h1.zero_subgroup(), dim_v=2)
    verdict = invariance_verdict(d, ContactProfile.of([1, 2]))
    # rank 2 but a torus divisor with a connected cover
    assert verdict.equals_standard_gw
    verdict2 = invariance_verdict(d, ContactProfile.of([2, 4]))
    assert not verdict2.lift_independent


def test_invariance_partial_flux_blocks_lift():
    h1 = FgAbGroup.free(2)
    comp = DivisorComponent("V", h1, flux=IntMatrix.from_columns([[1, 0]]))
    d = DivisorData((comp,), h1.zero_subgroup(), dim_v=2)
    verdict = invariance_verdict(d, ContactProfile.of([1]))
    assert not verdict.lift_independent


def test_invariance_requires_flux_data():
    h1 = FgAbGroup.free(2)
    comp = DivisorComponent("V", h1)
    d = DivisorData((comp,), h1.zero_subgroup(), dim_v=2)
    with pytest.raises(ValueError):
        invariance_verdict(d, ContactProfile.of([1]))


def test_invariance_disconnected_active_flux_rule():
    # two one-holed components, nothing swept; flux must agree between the
    # contacted components and the whole divisor
    c1 = DivisorComponent("A", FgAbGroup.free(1), flux=IntMatrix.identity(1))
    c2 = DivisorComponent("B", FgAbGroup.free(1), flux=IntMatrix.identity(1))
    total = c1.h1.direct_sum(c2.h1)
    d = DivisorData((c1, c2), total.zero_subgroup(), dim_v=2)
    both = invariance_verdict(d, ContactProfile.of([1], [1]))
    assert dict(both.reasons)["flux_condition"] is True
    one_side = invariance_verdict(d, ContactProfile.of([1], []))
    assert dict(one_side.reasons)["flux_condition"] is False


# -- deck action ---------------------------------------------------------------

UNIT_REPS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_deck_action_zero_class_is_identity():
    d = elliptic_fiber_divisor()
    profile = ContactProfile.of([2])
    pre = contact_preimage(d, profile)
    action = deck_action(d, profile, UNIT_REPS, (0, 0))
    for j, (target, witness) in enumerate(action):
        assert target == j
        assert pre.contains_vector(witness)


def test_deck_action_hand_example():
    d = elliptic_fiber_divisor()
    action = deck_action(d, ContactProfile.of([2]), UNIT_REPS, (1, 0))
    # the sheet of (1, 0) moves to the sheet of (0, 0) with witness (1, 0)
    assert action[1][0] == 0
    assert action[1][1] == (1, 0)


def test_deck_action_refuses_entries_that_are_not_ints():
    d = elliptic_fiber_divisor()
    profile = ContactProfile.of([2])
    # eta = (0.5, 0) escaped as a bare KeyError
    with pytest.raises(TypeError, match=r"eta entries must be int, not float 0\.5"):
        deck_action(d, profile, UNIT_REPS, (0.5, 0))
    # a representative (0.5, 0) was truncated to (0, 0), and True was read as 1
    with pytest.raises(TypeError, match=r"representative entries must be int, not float 0\.5"):
        deck_action(d, profile, [(0.5, 0), (1, 0), (0, 1), (1, 1)], (0, 0))
    with pytest.raises(TypeError, match="representative entries must be int, not bool True"):
        deck_action(d, profile, [(0, 0), (True, 0), (0, 1), (1, 1)], (0, 0))


def test_deck_action_rejects_bad_transversal():
    d = elliptic_fiber_divisor()
    profile = ContactProfile.of([2])
    with pytest.raises(ValueError):
        deck_action(d, profile, [(0, 0), (1, 0)], (0, 0))
    with pytest.raises(ValueError):
        deck_action(d, profile, [(0, 0), (2, 0), (0, 1), (1, 1)], (0, 0))


def test_deck_action_infinite_sheets_rejected():
    d = elliptic_fiber_divisor()
    with pytest.raises(ValueError):
        deck_action(d, ContactProfile.of([]), [(0, 0)], (0, 0))


def test_deck_action_exact_output():
    """Targets and witnesses are pinned exactly, not only up to the kernel."""
    t = torus_component("T")
    m = DivisorComponent("M", FgAbGroup.from_invariants(1, [4]))
    total = t.h1.direct_sum(m.h1)
    d = DivisorData((t, m), total.subgroup([[1, 0, 0, 2]]), dim_v=2)
    profile = ContactProfile.of([2, 4], [2, 6])
    # a shuffled transversal, each representative moved within its sheet
    reps = [(2, 0, 0, -3), (2, -2, 1, 4), (2, 0, 1, -3), (-2, 1, 0, 5),
            (2, 1, 1, 5), (0, -1, 0, -4), (0, -1, 1, 4), (0, -2, 0, 0)]
    expected = {
        (1, -1, 2, 3): [
            (5, (0, 0, 0, 0, 1, -1, 0, 0)), (4, (0, -2, 0, 0, 1, 0, 0, 0)),
            (6, (0, 0, 0, 0, 1, -5, 0, 0)), (7, (0, 1, 0, 0, 1, 5, 0, 0)),
            (1, (0, 1, 0, 0, 1, 1, 0, 0)), (0, (0, -1, 0, 0, 1, 2, 0, 0)),
            (2, (0, -1, 0, 0, 1, 6, 0, 0)), (3, (0, -2, 0, 0, 1, -4, 0, 0))],
        (3, 0, -1, 1): [
            (1, (0, 1, 0, 0, -1, -6, 0, 0)), (0, (0, -1, 0, 0, 0, 1, 0, 0)),
            (7, (0, 1, 0, 0, 0, -6, 0, 0)), (6, (0, 1, 0, 0, -1, 0, 0, 0)),
            (5, (0, 1, 0, 0, 0, 0, 0, 0)), (4, (0, -1, 0, 0, -1, -5, 0, 0)),
            (3, (0, -1, 0, 0, 0, -5, 0, 0)), (2, (0, -1, 0, 0, -1, 1, 0, 0))],
    }
    for eta, pairs in expected.items():
        assert deck_action(d, profile, reps, eta) == pairs


@st.composite
def sheet_problems(draw):
    """A small divisor, a profile with finitely many sheets, a moved and
    shuffled transversal, and a class to act with."""
    comps = []
    for r in range(draw(st.integers(1, 2))):
        torsion = draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2))
        h1 = FgAbGroup.from_invariants(draw(st.integers(1, 2)), torsion)
        comps.append(DivisorComponent(f"V{r}", h1))
    total = FgAbGroup.direct_sum_of(c.h1 for c in comps)
    n = total.ambient_rank
    vector = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    swept = IntMatrix.from_columns(draw(st.lists(vector, max_size=1)), rows=n)
    divisor = DivisorData(tuple(comps), total.subgroup(swept), dim_v=2)
    weights = st.lists(st.sampled_from([2, -2, 3, -3, 4]), min_size=1, max_size=2)
    profile = ContactProfile.of(*(draw(weights) for _ in comps))

    rim, _ = rim_tori_module(divisor)
    image = contact_image(divisor, profile)
    assume(rim.index_of(image) <= 64)
    lattice = contact_sum_hom(divisor, profile).matrix.hstack(divisor.h_xv.span_matrix())
    coefficients = st.lists(st.integers(-2, 2), min_size=lattice.cols, max_size=lattice.cols)
    reps = [tuple(x + y for x, y in zip(v, lattice.apply(draw(coefficients))))
            for v in rim.coset_representatives(image)]
    reps = draw(st.permutations(reps))
    return divisor, profile, reps, tuple(draw(vector))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(sheet_problems())
def test_deck_action_matches_quadratic_search(problem):
    divisor, profile, reps, eta = problem
    assert deck_action(divisor, profile, reps, eta) == deck_action_quadratic(
        divisor, profile, reps, eta)


def check_action_additivity(divisor, profile, reps, etas):
    pre = contact_preimage(divisor, profile)
    source_rank = contact_sum_hom(divisor, profile).source.ambient_rank
    for eta1 in etas:
        act1 = deck_action(divisor, profile, reps, eta1)
        for eta2 in etas:
            act2 = deck_action(divisor, profile, reps, eta2)
            total = tuple(a + b for a, b in zip(eta1, eta2))
            act12 = deck_action(divisor, profile, reps, total)
            for j in range(len(reps)):
                mid, w1 = act1[j]
                end, w2 = act2[mid]
                direct_end, w12 = act12[j]
                assert end == direct_end
                combined = tuple(a + b for a, b in zip(w1, w2))
                diff = tuple(a - b for a, b in zip(combined, w12))
                assert len(diff) == source_rank
                assert pre.contains_vector(diff)


def test_deck_action_additive_exhaustive_s2():
    d = elliptic_fiber_divisor()
    etas = [(a, b) for a in (-1, 0, 1, 2) for b in (-1, 0, 1, 2)]
    check_action_additivity(d, ContactProfile.of([2]), UNIT_REPS, etas)


def test_deck_action_additive_exhaustive_s24():
    d = elliptic_fiber_divisor()
    etas = [(a, b) for a in (0, 1, 2) for b in (0, 1, 3)]
    check_action_additivity(d, ContactProfile.of([2, 4]), UNIT_REPS, etas)


def _refused_calls():
    """Each call hands a divisor function data of the wrong shape, with the refusal it gets."""
    one, two = elliptic_fiber_divisor(), two_fiber_divisor()
    square = ContactProfile.of([2])
    return {
        "h_xv in the wrong ambient": (lambda: DivisorData(
            two.components, FgAbGroup.free(2).zero_subgroup()), "h_xv must be a subgroup"),
        "sides of different ranks": (lambda: vanishing_cycles(one, two),
                                     "must share the divisor H_1 ambient"),
        "non-square identification": (
            lambda: vanishing_cycles(one, one, IntMatrix.zeros(2, 3)), "must be square"),
        "pairs of the wrong row count": (lambda: vanishing_cycles_from_pairs(
            Z2, Z2, IntMatrix.zeros(3, 1)), "must live in the direct-sum ambient"),
        "one flag for two components": (lambda: cover_homology_finitely_generated(
            two, ContactProfile.of([1], [1]), [True]), "one finite-generation flag per component"),
        "short representatives": (lambda: deck_action(
            one, square, [(0,), (1,), (0,), (1,)], (0, 0)), "representatives must be ambient"),
        "long eta": (lambda: deck_action(one, square, UNIT_REPS, (0, 0, 0)),
                     "eta must be an ambient"),
    }


@pytest.mark.parametrize("name", list(_refused_calls()))
def test_divisor_functions_refuse_malformed_data(name):
    call, message = _refused_calls()[name]
    with pytest.raises(ValueError, match=message):
        call()


# -- coerced library inputs are refused -----------------------------------------

@pytest.mark.parametrize("make, shown", [
    (lambda t: DivisorData((t,), t.h1.zero_subgroup(), dim_v=2.0), "float 2.0"),
    (lambda t: DivisorData((t,), t.h1.zero_subgroup(), dim_v=True), "bool True"),
    (lambda t: DivisorData((t,), t.h1.zero_subgroup(), intersections=(True,)), "bool True"),
    (lambda t: DivisorData((t,), t.h1.zero_subgroup(), intersections=(2.0,)), "float 2.0"),
])
def test_divisor_data_refuses_numbers_that_are_not_ints(make, shown):
    # dim_v=2.0 made vanishing_threshold a float, and intersections (True,) read as (1,)
    with pytest.raises(TypeError, match=f"must be int, not {shown}"):
        make(torus_component())


@pytest.mark.parametrize("flags", ["no", ["yes", "no"], 0, [1], (None,), [True, 1]])
def test_finite_generation_refuses_flags_that_are_not_bools(flags):
    # "no" and ["yes", "no"] were read as True, and 0 raised "'int' object is not iterable"
    with pytest.raises(TypeError, match=f"flags must be bool, not {re.escape(repr(flags))}"):
        cover_homology_finitely_generated(two_fiber_divisor(), ContactProfile.of([1], [1]),
                                          component_fg=flags)
