"""Each lattice is reduced once per object, and reusing a reduction changes no answer."""

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
    deck_action,
)
from rimtori.matrices import (
    integer_kernel,
    smith_decomposition,
    smith_normal_form,
    solve_integral,
)


@pytest.fixture
def snf_calls(monkeypatch):
    """Matrices passed to ``smith_normal_form`` through any module binding."""
    calls = []

    def counting(a):
        calls.append(a)
        return smith_normal_form(a)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rimtori" and getattr(
                module, "smith_normal_form", None) is smith_normal_form:
            monkeypatch.setattr(module, "smith_normal_form", counting)
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

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rimtori" and getattr(
                module, "smith_decomposition", None) is smith_decomposition:
            monkeypatch.setattr(module, "smith_decomposition", recording)
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
