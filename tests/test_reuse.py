"""Each lattice is reduced once per object, and reusing a reduction changes no answer."""

import random
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from rimtori import (
    ContactProfile,
    DivisorComponent,
    DivisorData,
    FgAbGroup,
    Homomorphism,
    IntMatrix,
    active_component_span,
    comparison_square,
    contact_image,
    contact_preimage,
    contact_sum_hom,
    cover_homology_finitely_generated,
    deck_action,
    deck_group,
    elliptic_p1xt2_square,
    invariance_verdict,
    rim_tori_module,
    self_glue,
    short_exact_report,
    vanishing_threshold,
    verify,
)
from rimtori import matrices
from rimtori.matrices import (
    block_diagonal,
    hermite_form,
    integer_kernel,
    lattice_contains,
    smith_decomposition,
    smith_normal_form,
    solve_integral,
)

from oracles import hermite_form_echelon, random_divisor


def _patch_everywhere(monkeypatch, original, replacement):
    """Replace ``original`` at every binding of its name in a rimtori module."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "rimtori" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


@pytest.fixture
def snf_calls(monkeypatch):
    """Matrices passed to ``smith_normal_form`` through any module binding."""
    calls = []

    def counting(a):
        calls.append(a)
        return smith_normal_form(a)

    _patch_everywhere(monkeypatch, smith_normal_form, counting)
    return calls


def test_deck_action_reduces_once(snf_calls):
    torus = DivisorComponent("T", FgAbGroup.free(2), is_torus=True)
    divisor = DivisorData((torus,), torus.h1.zero_subgroup(), dim_v=2)
    reps = [(a, b) for a in range(12) for b in range(12)]
    action = deck_action(divisor, ContactProfile.of([24, 36]), reps, (5, -7))
    assert len(action) == 144
    assert len(snf_calls) == 1


def test_identity_homomorphism_reduces_at_most_once(snf_calls):
    Homomorphism.identity(FgAbGroup.from_invariants(0, [2] * 12))
    assert len(snf_calls) <= 1


# -- cached answers agree with fresh objects ----------------------------------

@st.composite
def lattice_questions(draw):
    """A relation matrix, subgroup generators and a vector, all over Z^n."""
    n = draw(st.integers(0, 3))
    column = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    relations = draw(st.lists(column, max_size=3))
    generators = draw(st.lists(column, max_size=3))
    return n, relations, generators, draw(column)


def _objects(n, relations, generators):
    """A group and a subgroup, plus the same lattices with their columns reversed."""
    out = []
    for order in (1, -1):
        group = FgAbGroup(n, IntMatrix.from_columns(relations[::order], rows=n))
        out += [group, group.subgroup(IntMatrix.from_columns(generators[::order], rows=n))]
    return out


def _answers(group, sub, other_group, other_sub, vector):
    return (group.contains_vector(vector), group == other_group, group.canonical_form(),
            sub.contains_vector(vector), sub == other_sub, sub.canonical_form(),
            hash(group) == hash(other_group), hash(sub) == hash(other_sub))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lattice_questions())
def test_cached_answers_match_fresh_objects(question):
    n, relations, generators, vector = question
    objects = _objects(n, relations, generators)
    first = _answers(*objects, vector)
    again = _answers(*objects, vector)
    fresh = _answers(*_objects(n, relations, generators), vector)
    assert first == again == fresh
    assert all(first[k] for k in (1, 4, 6, 7))


# -- only callers that read U or V build them ---------------------------------

@pytest.fixture
def eliminations(monkeypatch):
    """Decompositions made by ``smith_decomposition``, ``smith_normal_form``'s included."""
    made = []

    def recording(a):
        made.append(smith_decomposition(a))
        return made[-1]

    _patch_everywhere(monkeypatch, smith_decomposition, recording)
    return made


def _built_transforms(dec):
    return {"u", "v"} & set(vars(dec))


def test_deck_action_eliminates_once(eliminations):
    torus = DivisorComponent("T", FgAbGroup.free(2), is_torus=True)
    divisor = DivisorData((torus,), torus.h1.zero_subgroup(), dim_v=2)
    reps = [(a, b) for a in range(12) for b in range(12)]
    deck_action(divisor, ContactProfile.of([24, 36]), reps, (5, -7))
    assert len(eliminations) == 1


def test_identity_homomorphism_eliminates_at_most_once(eliminations):
    Homomorphism.identity(FgAbGroup.from_invariants(0, [2] * 12))
    assert len(eliminations) <= 1


def _mixed_group():
    return FgAbGroup(3, IntMatrix.from_columns([[4, 6, 0], [2, 0, 6], [0, 8, 10]], rows=3))


def test_questions_build_no_transforms(eliminations):
    group = _mixed_group()
    group.canonical_form()
    assert not _built_transforms(group._smith)

    group = _mixed_group()
    group.contains_vector((2, 6, 8))
    group.contains_vector((1, 0, 0))
    assert not _built_transforms(group._smith)

    group = _mixed_group()
    sub = group.subgroup([(1, 1, 0)])
    assert sub.contains(group.subgroup([(3, 3, 0), (4, 6, 0)]))
    assert not sub.contains(group.full_subgroup())
    assert not _built_transforms(sub._smith)

    a = IntMatrix.from_rows([[2, 4, 6], [1, 3, 5], [0, 2, 4]])
    assert solve_integral(a, (2, 1, 0)) == (1, 0, 0)
    assert integer_kernel(a).cols == 1
    assert eliminations and not any(_built_transforms(dec) for dec in eliminations)


def test_smith_normal_form_builds_transforms():
    dec = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert _built_transforms(dec) == {"u", "v"}


# -- every invariant and membership answer reads the cached Hermite form ------

@pytest.fixture
def eliminated(monkeypatch):
    """Matrices passed to ``smith_decomposition`` through any module binding."""
    matrices = []

    def recording(a):
        matrices.append(a)
        return smith_decomposition(a)

    _patch_everywhere(monkeypatch, smith_decomposition, recording)
    return matrices


def test_lattice_answers_eliminate_only_hermite_forms(eliminated):
    group = _mixed_group()
    group.canonical_form()
    group.contains_vector((2, 6, 8))
    sub = group.subgroup([(1, 1, 0), (3, 0, 3)])
    sub.contains_vector((4, 1, 3))
    sub.contains(group.subgroup([(3, 3, 0), (4, 6, 0)]))
    sub.embedding()
    double = Homomorphism(group, group, IntMatrix.identity(3).scale(2))
    assert not double.equal_as_maps(Homomorphism.identity(group))

    h1_u = FgAbGroup.from_invariants(1, [4])
    h1_v = FgAbGroup(2, IntMatrix.from_columns([(6, 4)], rows=2))
    both = h1_u.direct_sum(h1_v)
    comparison_square(
        h1_u, h1_v,
        both.subgroup([(2, 0, 3, 1), (0, 2, 0, 0)]),
        h1_v.subgroup([(3, 1)]),
        h1_u.subgroup([(0, 2)]),
    )
    assert eliminated
    assert all(a == hermite_form(a) for a in eliminated)


def test_canonical_form_multipliers_stay_small():
    rng = random.Random(40)
    for rows, cols in ((40, 40), (40, 39)):
        entries = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
        group = FgAbGroup(rows, IntMatrix.from_rows(entries, cols=cols))
        group.canonical_form()
        ops = group._smith.row_ops + group._smith.col_ops
        assert max(abs(c).bit_length() for _, _, c in ops) <= 1000


# -- each matrix object reduces itself once ------------------------------------

def test_one_matrix_reduces_itself_once(monkeypatch):
    runs = {"eliminate": [], "echelon": []}

    def counted(key, worker):
        def wrapper(a):
            runs[key].append(a)
            return worker(a)
        return wrapper

    monkeypatch.setattr(matrices, "_eliminate", counted("eliminate", matrices._eliminate))
    monkeypatch.setattr(matrices, "_echelon", counted("echelon", matrices._echelon))
    rng = random.Random(6)
    rows = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
    for row in rows:
        row[5] = row[0] - row[1]  # rank 5, so the kernel is not zero
    a = IntMatrix.from_rows(rows, cols=6)

    dec = smith_normal_form(a)
    assert solve_integral(a, a.apply((1, -2, 0, 3, 1, 0))) is not None
    assert solve_integral(a, (1, 0, 0, 0, 0, 0)) == dec.solve((1, 0, 0, 0, 0, 0))
    assert integer_kernel(a).cols == 1
    assert lattice_contains(a, a.apply((2, 0, 1, 0, 0, 5)))
    h = hermite_form(a)
    group = FgAbGroup(6, a)
    group.canonical_form()

    # one raw elimination, one echelon run and one Smith elimination of the HNF
    assert runs["echelon"] == [a] and runs["echelon"][0] is a
    assert len(runs["eliminate"]) == 2
    assert runs["eliminate"][0] is a and runs["eliminate"][1] is h
    assert smith_decomposition(a) is smith_decomposition(a) is dec
    assert h is group._hermite

    # an equal but distinct matrix is the same value with its own reduction
    b = IntMatrix.from_rows(rows, cols=6)
    assert b is not a and b == a and hash(b) == hash(a)
    assert hermite_form(b) == h
    assert len(runs["echelon"]) == 2


# -- rank, order, triviality and membership read the Hermite form only --------

def test_rank_order_and_membership_eliminate_nothing(monkeypatch):
    runs = []
    monkeypatch.setattr(matrices, "_eliminate", lambda a: runs.append(a))
    questions = [
        lambda g, s: g.order(), lambda g, s: g.free_rank(), lambda g, s: g.is_trivial(),
        lambda g, s: g.index_of(s), lambda g, s: g.contains_vector((2, 6, 8)),
        lambda g, s: s.contains_vector((4, 1, 3)), lambda g, s: s.free_rank(),
        lambda g, s: s.quotient_group().order(),
    ]
    for question in questions:
        group = _mixed_group()  # fresh objects: nothing is reduced yet
        question(group, group.subgroup([(1, 1, 0), (3, 0, 3)]))
    rng = random.Random(13)
    for _ in range(40):
        drawn = random_divisor(rng)
        # full or index-2^n flux on each component, so both flux verdicts occur
        parts = tuple(
            replace(c, flux=IntMatrix.identity(c.h1.ambient_rank).scale(rng.choice([1, 2])))
            for c in drawn.components)
        divisor = DivisorData(parts, drawn.h_xv, drawn.dim_v)
        profile = ContactProfile(tuple(
            tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 2)))
            for _ in divisor.components))
        vanishing_threshold(divisor, profile)
        invariance_verdict(divisor, profile)
        cover_homology_finitely_generated(divisor, profile)
    assert not runs


# -- a subgroup builds its abstract group once --------------------------------

def test_subgroup_canonical_form_reduces_once(monkeypatch):
    counts = {"hermite": 0, "smith": 0}

    def counted(key, function):
        def wrapper(a):
            counts[key] += 1
            return function(a)
        return wrapper

    _patch_everywhere(monkeypatch, hermite_form, counted("hermite", hermite_form))
    _patch_everywhere(monkeypatch, smith_decomposition, counted("smith", smith_decomposition))
    sub = _mixed_group().subgroup([(1, 1, 0), (3, 0, 3)])
    forms = {sub.canonical_form() for _ in range(3)}
    assert len(forms) == 1
    assert counts == {"hermite": 2, "smith": 2}
    assert sub.as_group() is sub.as_group()


# -- a subgroup's lattice is its quotient group, reduced once ------------------

def test_quotients_read_the_subgroup_reduction(monkeypatch):
    hermite_calls = []

    def counting(a):
        hermite_calls.append(a)
        return hermite_form(a)

    built = []
    validate = Homomorphism.__post_init__

    def recording(self):
        built.append(self)
        validate(self)

    _patch_everywhere(monkeypatch, hermite_form, counting)
    monkeypatch.setattr(Homomorphism, "__post_init__", recording)

    group = _mixed_group()
    sub = group.subgroup([(1, 1, 0), (3, 0, 3)])
    quot, _ = group.quotient(sub)
    assert quot is sub.quotient_group()
    assert quot.relations == group.relations.hstack(sub.generators)

    sub = group.subgroup([(1, 1, 0), (3, 0, 3)])
    assert sub.contains_vector((4, 1, 3))
    reduced, built[:] = len(hermite_calls), []
    assert group.index_of(sub) == 2
    assert not built
    assert group.quotient(sub)[0].canonical_form() == (0, (2,))
    assert len(hermite_calls) == reduced

    double = Homomorphism(group, group, IntMatrix.identity(3).scale(2))
    assert double.image().contains_vector((2, 6, 8))
    reduced = len(hermite_calls)
    assert double.cokernel().canonical_form() == (0, (2, 2, 2))
    assert len(hermite_calls) == reduced


# -- a stacked lattice starts from its blocks' Hermite forms -------------------

def test_stacked_lattices_reduce_only_what_is_new(monkeypatch):
    runs = []

    def recording(a):
        runs.append(a)
        return echelon(a)

    echelon = matrices._echelon
    monkeypatch.setattr(matrices, "_echelon", recording)
    gens = IntMatrix.from_columns([(1, 1, 0), (3, 0, 3)], rows=3)

    # a quotient of a reduced group reduces HNF(R) and the generators only
    group = _mixed_group()
    group.canonical_form()
    assert group._hermite != group.relations
    runs.clear()
    quot = group.subgroup(gens).quotient_group()
    assert quot.canonical_form() == (0, (2,))
    assert runs == [group._hermite.hstack(gens)]

    # an unreduced ambient is not reduced to seed its quotient
    fresh = _mixed_group()
    runs.clear()
    assert fresh.subgroup(gens).quotient_group().canonical_form() == (0, (2,))
    assert runs == [fresh.relations.hstack(gens)]
    assert fresh.relations._form is None

    # a direct sum of reduced groups runs no echelon at all
    other = FgAbGroup(2, IntMatrix.from_columns([(6, 4)], rows=2))
    other.canonical_form()
    runs.clear()
    both = FgAbGroup.direct_sum_of([quot, other])
    assert both.canonical_form() == (1, (2, 2))
    assert not runs
    rows, cols = both.relations.rows, both.relations.cols
    assert both._hermite == hermite_form(IntMatrix(rows, cols, both.relations.entries))
    assert len(runs) == 1


def test_equal_presentations_compare_without_reducing(monkeypatch):
    runs = []
    monkeypatch.setattr(matrices, "_echelon", lambda a: runs.append(a))
    assert _mixed_group() == _mixed_group()
    assert FgAbGroup.from_invariants(1, [4]) == FgAbGroup.from_invariants(1, [4])
    assert not runs


def test_deck_total_matches_a_fresh_direct_sum():
    rng = random.Random(1010)
    for _ in range(400):
        divisor = random_divisor(rng)
        profile = ContactProfile(tuple(
            tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 2)))
            for _ in divisor.components))
        report = deck_group(divisor, profile)
        sheets = report.contact_image.quotient_group().relations
        image = report.contact_image.as_group().relations
        # the direct sum of the two presentations, as one unstacked matrix
        product = block_diagonal([sheets, image])
        fresh = FgAbGroup(product.rows, IntMatrix(product.rows, product.cols, product.entries))
        assert report.total == fresh.canonical_form()


# -- nested stacks start from every form their blocks hold ---------------------

def _recording_echelon(runs):
    """The current ``matrices._echelon``, appending each input to ``runs``."""
    echelon = matrices._echelon

    def recording(a):
        runs.append(a)
        return echelon(a)

    return recording


def _echelon_runs(monkeypatch):
    runs = []
    monkeypatch.setattr(matrices, "_echelon", _recording_echelon(runs))
    return runs


def test_self_glue_starts_from_the_rim_tori_form(monkeypatch):
    divisor = _swept_divisor()
    rim = rim_tori_module(divisor)[0]
    h = rim._hermite  # the rim tori form HNF(R | S) is held from here on
    divisor.total_h1().canonical_form()
    n = divisor.total_h1().ambient_rank
    runs = _echelon_runs(monkeypatch)

    glued = self_glue(divisor)
    assert glued.canonical_form() == rim.canonical_form()
    # [(R | S) + (R | S) | [I; I]] is reduced from H + H, in one echelon run
    pairs = IntMatrix.identity(n).vstack(IntMatrix.identity(n))
    assert runs == [block_diagonal([h, h]).hstack(pairs)]
    assert runs[0].cols == 2 * h.cols + n
    assert glued.relations.cols == 2 * rim.relations.cols + n


def test_nested_blocks_without_forms_are_reduced_raw(monkeypatch):
    rng = random.Random(15)

    def leaf(rows, cols):
        return IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)], cols=cols)

    a, b, c, g = leaf(2, 3), leaf(1, 2), leaf(2, 1), leaf(5, 2)
    inner = block_diagonal([a, b])
    outer = block_diagonal([inner, c])
    stacked = outer.hstack(g)
    runs = _echelon_runs(monkeypatch)
    form = hermite_form(stacked)
    assert len(runs) == 1 and runs[0] is stacked
    assert all(m._form is None for m in (a, b, c, g, inner, outer))
    assert form == hermite_form_echelon(IntMatrix(5, stacked.cols, stacked.entries))


@st.composite
def nested_stacks(draw):
    """A stack of direct sums and side-by-side stacks up to three levels deep.

    Each block holds its Hermite form or not, as drawn.  Returns the stack
    and every block in it.
    """
    blocks = []

    def node(rows, depth):
        kind = draw(st.sampled_from(["leaf", "diagonal", "side"])) if depth else "leaf"
        if kind == "leaf":
            cols = draw(st.integers(0, 3))
            entries = draw(st.lists(st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                                    min_size=rows, max_size=rows))
            m = IntMatrix.from_rows(entries, cols=cols)
        elif kind == "diagonal":
            cuts = sorted(draw(st.lists(st.integers(0, rows), max_size=2)))
            sizes = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, rows])]
            m = block_diagonal([node(size, depth - 1) for size in sizes])
        else:
            m = node(rows, depth - 1).hstack(node(rows, depth - 1))
        if draw(st.booleans()):
            hermite_form(m)  # held from here on
        blocks.append(m)
        return m

    rows = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["diagonal", "side"]))
    if kind == "diagonal":
        top = draw(st.integers(0, rows))
        stacked = block_diagonal([node(top, 2), node(rows - top, 2)])
    else:
        stacked = node(rows, 2).hstack(node(rows, 2))
    return stacked, blocks


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(nested_stacks())
def test_nested_seeds_match_reference_echelon(case):
    stacked, blocks = case
    unreduced = [b for b in blocks if b._form is None]
    runs = []
    echelon = matrices._echelon
    matrices._echelon = _recording_echelon(runs)  # no monkeypatch: hypothesis reruns the body
    try:
        form = hermite_form(stacked)
    finally:
        matrices._echelon = echelon
    assert form == hermite_form_echelon(IntMatrix(stacked.rows, stacked.cols, stacked.entries))
    # one echelon run at most, and no block is reduced to make a seed
    assert len(runs) <= 1
    assert all(b._form is None for b in unreduced)


# -- a divisor builds its paper objects once ----------------------------------

def _swept_divisor():
    """Two components, a torus and Z + Z/4, with one swept class."""
    torus = DivisorComponent("T", FgAbGroup.free(2), is_torus=True)
    other = DivisorComponent("W", FgAbGroup.from_invariants(1, [4]),
                             flux=IntMatrix.from_columns([(2, 0)], rows=2))
    total = FgAbGroup.direct_sum_of([torus.h1, other.h1])
    return DivisorData((torus, other), total.subgroup([(2, 0, 1, 1)]), dim_v=2)


def test_divisor_objects_are_kept():
    divisor = _swept_divisor()
    profile = ContactProfile.of([2, 4], [3])
    assert rim_tori_module(divisor) is rim_tori_module(divisor)
    assert contact_sum_hom(divisor, profile) is contact_sum_hom(divisor, profile)
    assert contact_image(divisor, profile) is contact_image(divisor, profile)
    # an equal profile is the same key
    again = ContactProfile.of([2, 4], [3])
    assert contact_image(divisor, again) is contact_image(divisor, profile)
    assert active_component_span(divisor, again) is active_component_span(divisor, profile)


def test_rim_tori_quotient_built_once(monkeypatch):
    divisor = _swept_divisor()
    profile = ContactProfile.of([2, 4], [3])
    quotients = []
    original = FgAbGroup.quotient

    def recording(group, sub):
        quotients.append((group, sub))
        return original(group, sub)

    monkeypatch.setattr(FgAbGroup, "quotient", recording)
    deck_group(divisor, profile)
    invariance_verdict(divisor, profile)
    vanishing_threshold(divisor, profile)
    rim_tori_module(divisor)
    total, h_xv = divisor.total_h1(), divisor.h_xv
    assert sum(1 for group, sub in quotients if group == total and sub == h_xv) == 1


@st.composite
def divisor_questions(draw):
    """Data of a small divisor and two contact profiles that are valid for it."""
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            comps.append((2, (), True, None))
            continue
        rank = draw(st.integers(0, 2))
        torsion = tuple(draw(st.lists(st.sampled_from([2, 3, 4, 6]), max_size=2)))
        column = st.lists(st.integers(-3, 3), min_size=rank + len(torsion),
                          max_size=rank + len(torsion))
        comps.append((rank, torsion, False, draw(st.none() | st.lists(column, max_size=2))))
    n = sum(rank + len(torsion) for rank, torsion, _, _ in comps)
    swept = draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=n))
    orders = st.lists(st.sampled_from([-2, -1, 1, 2, 3]), max_size=2)
    first = tuple(tuple(draw(orders)) for _ in comps)
    fixed = draw(st.booleans())
    # with fixed intersection numbers the second profile must keep the sums
    second = (tuple(s[::-1] for s in first) if fixed
              else tuple(tuple(draw(orders)) for _ in comps))
    intersections = tuple(sum(s) for s in first) if fixed else None
    return (comps, swept, draw(st.sampled_from([2, 4])), intersections), first, second


def _divisor(comps, swept, dim, intersections):
    parts = tuple(
        DivisorComponent(f"V{r}", FgAbGroup.from_invariants(rank, torsion), is_torus=torus,
                         flux=None if flux is None
                         else IntMatrix.from_columns(flux, rows=rank + len(torsion)))
        for r, (rank, torsion, torus, flux) in enumerate(comps))
    total = FgAbGroup.direct_sum_of(c.h1 for c in parts)
    return DivisorData(parts, total.subgroup(swept), dim, intersections)


def _deck(d, p):
    report = deck_group(d, p)
    return report.finite_part, report.free_part, report.total


DIVISOR_QUESTIONS = {
    "rim_tori": lambda d, p: rim_tori_module(d)[0].canonical_form(),
    "contact_sum": lambda d, p: (contact_sum_hom(d, p).matrix,
                                 contact_sum_hom(d, p).source.relations),
    "contact_image": lambda d, p: (contact_image(d, p).generators,
                                   contact_image(d, p).canonical_form()),
    "preimage": lambda d, p: contact_preimage(d, p).canonical_form(),
    "deck_group": _deck,
    "verdict": invariance_verdict,
    "threshold": vanishing_threshold,
    "active_span": lambda d, p: (active_component_span(d, p)[0].canonical_form(),
                                 active_component_span(d, p)[1]),
    "finitely_generated": cover_homology_finitely_generated,
    "self_glue": lambda d, p: self_glue(d).canonical_form(),
}

# every public function that takes a profile, called with it
PROFILE_CALLS = [
    contact_sum_hom, contact_image, contact_preimage, deck_group, invariance_verdict,
    vanishing_threshold, active_component_span, cover_homology_finitely_generated,
    lambda d, p: deck_action(d, p, [], (0,) * d.total_h1().ambient_rank),
]


def _ask(divisor, profiles, order):
    answers = {}
    for name in order:
        for k, profile in enumerate(profiles):
            try:
                answers[name, k] = DIVISOR_QUESTIONS[name](divisor, profile)
            except ValueError as exc:
                answers[name, k] = ("ValueError", str(exc))
    return answers


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(divisor_questions(), st.permutations(list(DIVISOR_QUESTIONS)))
def test_kept_objects_match_fresh_divisors(data, order):
    spec, first, second = data
    profiles = (ContactProfile(first), ContactProfile(second))
    divisor = _divisor(*spec)
    answers = _ask(divisor, profiles, order)
    again = _ask(divisor, profiles[::-1], order[::-1])
    assert again == {(name, 1 - k): a for (name, k), a in answers.items()}
    assert _ask(_divisor(*spec), profiles, sorted(order)) == answers

    # a kept object never stands in for a check
    wrong = [ContactProfile(first + ((1,),))]
    if divisor.intersections is not None:
        wrong.append(ContactProfile(((*first[0], 1), *first[1:])))
    for profile in wrong:
        for call in PROFILE_CALLS:
            for _ in range(2):
                with pytest.raises(ValueError):
                    call(divisor, profile)
        assert profile not in divisor._per_profile


# -- containment is answered by membership, with no subgroup built to compare --

def test_verify_answers_containment_by_membership(monkeypatch):
    runs = {"eliminate": [], "echelon": []}

    def counted(key, worker):
        def wrapper(a):
            runs[key].append(a)
            return worker(a)
        return wrapper

    monkeypatch.setattr(matrices, "_eliminate", counted("eliminate", matrices._eliminate))
    monkeypatch.setattr(matrices, "_echelon", counted("echelon", matrices._echelon))
    # building and verifying the square made 45 normal-form runs when each
    # containment compared two freshly reduced subgroups
    assert verify(elliptic_p1xt2_square()).overall
    assert len(runs["eliminate"]) + len(runs["echelon"]) <= 30

    z4 = FgAbGroup.from_invariants(0, [4])
    maps = [Homomorphism(z4, FgAbGroup.from_invariants(0, [8]), IntMatrix.from_rows([[2]])),
            Homomorphism(z4, FgAbGroup.from_invariants(0, [2]), IntMatrix.from_rows([[1]]))]
    z4.order()  # the source is reduced; its kernel need not be
    runs["echelon"].clear()
    assert [f.is_injective() for f in maps] == [True, False]
    assert not runs["echelon"]


@st.composite
def composable_pairs(draw):
    """Well-defined maps A -> B -> C of ranks at most 3, exact or not at B."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))

    def matrix(rows, cols):
        row = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
        return IntMatrix.from_rows(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)

    middle = FgAbGroup(b, matrix(b, draw(st.integers(0, b + 1))))
    first_matrix = matrix(b, a)
    # A's relations are the kernel of Z^a -> B, or a part of it, so A -> B is well defined
    relations = Homomorphism(FgAbGroup.free(a), middle, first_matrix).kernel().generators
    if draw(st.booleans()):
        relations = relations @ matrix(relations.cols, draw(st.integers(0, relations.cols + 1)))
    first = Homomorphism(FgAbGroup(a, relations), middle, first_matrix)
    second_matrix = matrix(c, b)
    # C's relations hold the image of B's, so B -> C is well defined
    columns = ((second_matrix @ middle.relations).columns()
               + matrix(c, draw(st.integers(0, 2))).columns())
    if draw(st.booleans()):
        columns += (second_matrix @ first_matrix).columns()  # the composite is zero
    target = FgAbGroup(c, IntMatrix.from_columns(columns, rows=c))
    second = Homomorphism(middle, target, second_matrix)
    return first, second


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(composable_pairs())
def test_containment_verdicts_match_subgroup_equality(pair):
    first, second = pair
    # the definitions that compared two freshly built subgroups are the oracle
    assert first.is_injective() == (first.kernel() == first.source.zero_subgroup())
    assert second.is_injective() == (second.kernel() == second.source.zero_subgroup())
    report = short_exact_report(first, second)
    assert report.exact_middle == (first.image() == second.kernel())
