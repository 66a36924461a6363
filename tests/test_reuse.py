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
from rimtori.matrices import smith_normal_form


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
