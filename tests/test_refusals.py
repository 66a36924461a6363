"""Refusals and plain renderings that no other test reaches, one table row each."""

import json
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest

from rimtori import (
    CoverPoint,
    DivisorComponent,
    DivisorData,
    FgAbGroup,
    Homomorphism,
    InvarianceVerdict,
    IntMatrix,
    Scenario,
    base_point,
    deck_act,
    elliptic_p1xt2_square,
    parse_scenario,
    rank_profile,
    short_exact_report,
)
from rimtori import cli, scenario
from rimtori.matrices import determinant, kernel_projection
from rimtori.scenario import ScenarioInvariantError

SQUARE_TEXT = (Path(__file__).resolve().parents[1] / "scenarios" / "gluing_square.json").read_text()
Z2 = FgAbGroup.free(2)
ON_CIRCLE = CoverPoint.of((0, 0), [(0, 0)])  # a member for the single weight 1


def _main_exit(*argv):
    """The exit status of the command line, when argparse refuses it."""
    try:
        cli.main(list(argv))
    except SystemExit as exc:
        return exc.code
    return None


def _square_with_an_ill_defined_map():
    document = json.loads(SQUARE_TEXT)
    square = document["squares"]["elliptic_p1xt2_explicit"]
    square["nodes"][0][1]["relations"] = [[2, 0]]  # Z/2 + Z cannot map onto Z^2 by the identity
    parse_scenario(json.dumps(document))


def _square_its_constructor_refuses():
    with mock.patch.object(scenario, "ExactSquare", side_effect=ValueError("no such square")):
        parse_scenario(SQUARE_TEXT)


def _square_with_a_misplaced_column_map():
    square = elliptic_p1xt2_square()
    replace(square, col_maps=square.col_maps[1:2] + square.col_maps[1:])


def _divisor_with_intersections(intersections):
    torus = DivisorComponent("T", Z2, is_torus=True)
    DivisorData((torus,), torus.h1.zero_subgroup(), intersections=intersections)


# (call, expected): a refusal is (exception, message pattern); any other expected is a value
CASES = {
    # matrices
    "hstack rows": (lambda: IntMatrix.zeros(2, 1).hstack(IntMatrix.zeros(3, 1)),
                    (ValueError, "hstack requires equal row counts")),
    "vstack columns": (lambda: IntMatrix.zeros(1, 2).vstack(IntMatrix.zeros(1, 3)),
                       (ValueError, "vstack requires equal column counts")),
    "determinant of a non-square": (lambda: determinant(IntMatrix.zeros(2, 3)),
                                    (ValueError, "determinant requires a square matrix")),
    "determinant without a pivot": (lambda: determinant(IntMatrix.from_rows([[0, 1], [0, 1]])),
                                    0),
    "kernel projection too wide": (lambda: kernel_projection(IntMatrix.zeros(1, 2), 3),
                                   (ValueError, "onto 3 coordinates")),
    "kernel projection negative": (lambda: kernel_projection(IntMatrix.zeros(1, 2), -1),
                                   (ValueError, "onto -1 coordinates")),
    "IntMatrix str": (lambda: str(IntMatrix.from_rows([[1, -2], [0, 3]])), "[1 -2; 0 3]"),
    # cli
    "gamma with three parts": (lambda: _main_exit("base-point", "--gamma", "1,2,3"), 2),
    "gamma not integers": (lambda: _main_exit("base-point", "--gamma", "a,b"), 2),
    "unknown command": (lambda: cli.run("no-such-command", Scenario(), []),
                        (Exception, "unknown command 'no-such-command'")),
    # covers
    "deck_act loop count": (lambda: deck_act([1], [(1, 0), (0, 1)], ON_CIRCLE),
                            (ValueError, "one lattice loop per contact point required")),
    "deck_act non-lattice loop": (lambda: deck_act([1], [("1/2", 0)], ON_CIRCLE),
                                  (ValueError, "loops must be lattice vectors")),
    "base_point non-lattice gamma": (lambda: base_point([2], ("1/3", 0)),
                                     (ValueError, "representative must be a lattice vector")),
    "rank_profile torsion ambient": (
        lambda: rank_profile(1, FgAbGroup.from_invariants(0, [3]).zero_subgroup(), [1]),
        (ValueError, "must live in the free ambient Z\\^m")),
    # divisors
    "flux outside H_1": (lambda: DivisorComponent("C", Z2, flux=IntMatrix.identity(3)),
                         (ValueError, "flux generators of 'C' must live in its H_1 ambient")),
    "intersection count": (lambda: _divisor_with_intersections((2, 2)),
                           (ValueError, "one intersection number per component required")),
    "verdict implication": (lambda: InvarianceVerdict(False, True, ()),
                            (ValueError, "implies lift independence")),
    # squares
    "grid shape": (lambda: replace(elliptic_p1xt2_square(),
                                   nodes=elliptic_p1xt2_square().nodes[:2]),
                   (ValueError, "a square needs a 3x3 grid of groups")),
    "column map": (_square_with_a_misplaced_column_map,
                   (ValueError, "column map \\(0,0\\) does not match the grid")),
    "composability": (lambda: short_exact_report(Homomorphism.identity(Z2),
                                                 Homomorphism.identity(FgAbGroup.free(1))),
                      (ValueError, "maps are not composable")),
    # scenario
    "ill-defined square map": (_square_with_an_ill_defined_map,
                               (ScenarioInvariantError, "row_maps\\[1\\]: matrix does not send")),
    "square refused": (_square_its_constructor_refuses,
                       (ScenarioInvariantError, "elliptic_p1xt2_explicit: no such square")),
    # groups
    "group relations rows": (lambda: FgAbGroup(2, IntMatrix.zeros(3, 1)),
                             (ValueError, "relation matrix must have ambient_rank rows")),
    "torsion order": (lambda: FgAbGroup.from_invariants(0, [4, 1]),
                      (ValueError, "torsion orders must exceed 1")),
    "subgroup generator rows": (lambda: Z2.subgroup(IntMatrix.zeros(3, 1)),
                                (ValueError, "generator columns must live in the ambient")),
    "maps from different sources": (
        lambda: Homomorphism(Z2, Z2, IntMatrix.zeros(2, 2)).equal_as_maps(
            Homomorphism(FgAbGroup.from_invariants(1, [2]), Z2, IntMatrix.zeros(2, 2))),
        False),
    "FgAbGroup str": (lambda: str(FgAbGroup.from_invariants(1, [2, 4])), "Z + Z/2 + Z/4"),
    "Subgroup str": (lambda: str(FgAbGroup.from_invariants(1, [4]).subgroup([(1, 2)])),
                     "subgroup Z of Z + Z/4"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_refusals_and_renderings(name):
    call, expected = CASES[name]
    if isinstance(expected, tuple):
        error, pattern = expected
        with pytest.raises(error, match=pattern):
            call()
    else:
        assert call() == expected
