"""Each lattice is reduced once per object, and reusing a reduction changes no answer."""

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from rimtori import (
    ContactProfile,
    DivisorComponent,
    DivisorData,
    FgAbGroup,
    Homomorphism,
    IntMatrix,
    comparison_square,
    deck_action,
)
from rimtori.matrices import (
    hermite_form,
    integer_kernel,
    smith_decomposition,
    smith_normal_form,
    solve_integral,
)


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
