"""Command-line driver: scenario ingestion, dispatch, and reporting.

Every command reads a scenario file, resolves the requested names, runs
one library operation, and prints a report either as stable line-oriented
text or as a single JSON document.  Exit status 0 means success, 2 a
parse/validation problem (including unresolved names), 3 a violated
computation precondition, and 4 an internal error: a fault in rimtori
itself, reported as one ``error: internal: <type>: <message>`` line
instead of a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import covers
from .divisors import (
    ContactProfile,
    DeckGroupReport,
    DivisorComponent,
    DivisorData,
    active_component_span,
    cover_homology_finitely_generated,
    deck_group,
    gcd_tuple,
    invariance_verdict,
    rim_tori_module,
    self_glue,
    vanishing_cycles,
    vanishing_threshold,
)
from .groups import CanonicalForm, FgAbGroup, format_canonical
from .scenario import Scenario, ScenarioError, UnresolvedReferenceError, load_scenario
from .squares import elliptic_p1xt2_square, verify

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4

BUILTIN_SQUARES = {
    "elliptic_p1xt2": elliptic_p1xt2_square,
}


@dataclass(frozen=True)
class Report:
    command: str
    names: tuple[str, ...]
    result: dict
    text_lines: tuple[str, ...]

    def to_text(self) -> str:
        return "\n".join(self.text_lines)

    def to_machine(self) -> str:
        document = {"command": self.command, "names": list(self.names), "result": self.result}
        return json.dumps(document, sort_keys=True, separators=(", ", ": "))


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _canonical_payload(form: CanonicalForm) -> dict:
    return {
        "free_rank": form[0],
        "invariant_factors": list(form[1]),
        "group": format_canonical(form),
    }


def _complex_str(z) -> str:
    return f"({z[0]}, {z[1]})"


def _complex_payload(z) -> list[str]:
    return [str(z[0]), str(z[1])]


class _NameError(Exception):
    """Wrong names passed on the command line (validation class)."""


def _resolve(scenario: Scenario, kind: str, name: str):
    table = getattr(scenario, f"{kind}s")
    if name in table:
        return table[name]
    if kind == "square" and name in BUILTIN_SQUARES:
        return BUILTIN_SQUARES[name]()
    raise UnresolvedReferenceError(f"unknown {kind} {name!r}")


def _single_tuple(profile: ContactProfile, command: str) -> tuple[int, ...]:
    if len(profile.tuples) != 1:
        raise _NameError(f"{command} needs a single-component profile")
    return profile.tuples[0]


def _torus_divisor() -> DivisorData:
    """The standard two-torus divisor with nothing swept."""
    torus = DivisorComponent(name="T2", h1=FgAbGroup.free(2), is_torus=True)
    return DivisorData(components=(torus,), h_xv=torus.h1.zero_subgroup(), dim_v=2)


# Each command takes the scenario and its resolved names (base-point also
# the sheet representative) and returns (payload, text lines).

def _group_result(group: FgAbGroup):
    payload = _canonical_payload(group.canonical_form())
    return payload, [f"group: {payload['group']}"]


def _deck_parts(report: DeckGroupReport):
    return (("finite", report.finite_part), ("free", report.free_part),
            ("total", report.total))


def _deck(scenario, divisor, profile):
    parts = _deck_parts(deck_group(divisor, profile))
    payload = {key: _canonical_payload(form) for key, form in parts}
    payload["gcds"] = list(profile.gcds())
    return payload, ["; ".join(f"{key}: {format_canonical(form)}" for key, form in parts)]


def _glue(scenario, gluing):
    side_x = _resolve(scenario, "divisor", gluing.side_x)
    side_y = _resolve(scenario, "divisor", gluing.side_y)
    return _group_result(vanishing_cycles(side_x, side_y, gluing.ident))


def _vanishing(scenario, divisor, profile):
    threshold = vanishing_threshold(divisor, profile)
    payload = {"threshold": threshold, "contacts": profile.total_contacts()}
    return payload, [f"threshold r* = {threshold}"]


def _invariance(scenario, divisor, profile):
    verdict = invariance_verdict(divisor, profile)
    payload = {
        "lift_independent": verdict.lift_independent,
        "equals_standard_gw": verdict.equals_standard_gw,
        "reasons": {name: ok for name, ok in verdict.reasons},
    }
    lines = [
        f"lift_independent: {_yes(verdict.lift_independent)}",
        f"equals_standard_gw: {_yes(verdict.equals_standard_gw)}",
        *(f"reason {name}: {_yes(ok)}" for name, ok in verdict.reasons),
    ]
    return payload, lines


def _finite_generation(scenario, divisor, profile):
    span, finite_index = active_component_span(divisor, profile)
    rim, _ = rim_tori_module(divisor)
    index = rim.index_of(span)
    index_repr = "inf" if index is None else index
    verdict = cover_homology_finitely_generated(divisor, profile)
    payload = {
        "finitely_generated": verdict,
        "active_span_finite_index": finite_index,
        "active_span_index": index_repr,
    }
    return payload, [f"finitely_generated: {_yes(verdict)}", f"active_span_index: {index_repr}"]


def _verify_square(scenario, square):
    report = verify(square)
    payload = {"cells": list(report.cells), "exact": report.all_exact,
               "commutative": report.all_commute, "overall": report.overall}
    lines = [f"exact: {_yes(report.all_exact)}; commutative: {_yes(report.all_commute)}"]
    for key, sequences in (("row", report.rows), ("col", report.cols)):
        payload[f"{key}s"] = [{"injective": r.injective, "exact_middle": r.exact_middle,
                               "surjective": r.surjective} for r in sequences]
        lines += [f"{key} {i}: injective={_yes(r.injective)}"
                  f" middle={_yes(r.exact_middle)} surjective={_yes(r.surjective)}"
                  for i, r in enumerate(sequences)]
    lines.append("cells: " + " ".join(_yes(c) for c in report.cells))
    return payload, lines


def _torus_cover(scenario, profile):
    weights = _single_tuple(profile, "torus-cover")
    if not weights:
        raise ValueError("torus-cover requires at least one contact point")
    r0, torus_dim = covers.rank_profile(2, FgAbGroup.free(2).zero_subgroup(), weights)
    parts = _deck_parts(deck_group(_torus_divisor(), ContactProfile((weights,))))
    payload = {"euclidean_rank": r0, "torus_dim": torus_dim, "gcd": gcd_tuple(weights)}
    payload.update((f"deck_{key}", _canonical_payload(form)) for key, form in parts)
    shape = "C" if torus_dim == 0 else f"C x T^{torus_dim}"
    return payload, [f"cover: {shape}",
                     *(f"deck {key}: {format_canonical(form)}" for key, form in parts)]


def _base_point(scenario, profile, gamma):
    weights = _single_tuple(profile, "base-point")
    point = covers.base_point(weights, gamma)
    projected = covers.cover_project(weights, point)
    origin = all(z == (0, 0) for z in projected.coordinates)
    payload = {
        "z": _complex_payload(point.z),
        "torus": [_complex_payload(z) for z in point.torus.coordinates],
        "projects_to_origin": origin,
    }
    lines = [
        f"z: {_complex_str(point.z)}",
        "torus: " + ", ".join(_complex_str(z) for z in point.torus.coordinates),
        f"projects_to_origin: {_yes(origin)}",
    ]
    return payload, lines


@dataclass(frozen=True)
class _Command:
    help: str
    kinds: tuple[str, ...]  # the scenario table each --name resolves in, in order
    fn: Callable[..., tuple[dict, list[str]]]
    takes_gamma: bool = False


COMMANDS = {
    "compute": _Command(
        "canonical form of the rim tori module of a divisor", ("divisor",),
        lambda scenario, divisor: _group_result(rim_tori_module(divisor)[0])),
    "deck": _Command("deck group of the contact cover of a divisor and profile",
                     ("divisor", "profile"), _deck),
    "glue": _Command("vanishing-cycles module of a named gluing", ("gluing",), _glue),
    "self-glue": _Command(
        "vanishing-cycles module of gluing a divisor to itself", ("divisor",),
        lambda scenario, divisor: _group_result(self_glue(divisor))),
    "vanishing": _Command("largest useful relative insertion degree",
                          ("divisor", "profile"), _vanishing),
    "invariance": _Command("lift-independence and agreement with standard counts",
                           ("divisor", "profile"), _invariance),
    "finite-generation": _Command("finite generation of the contact cover homology",
                                  ("divisor", "profile"), _finite_generation),
    "verify-square": _Command("exactness and commutativity of a 3x3 square",
                              ("square",), _verify_square),
    "torus-cover": _Command("shape and deck group of the explicit torus cover",
                            ("profile",), _torus_cover),
    "base-point": _Command("distinguished cover point of a sheet representative",
                           ("profile",), _base_point, takes_gamma=True),
}


def run(command: str, scenario: Scenario, names: list[str],
        gamma: tuple[int, int] | None = None) -> Report:
    """Dispatch one command against a loaded scenario."""
    if command not in COMMANDS:
        raise _NameError(f"unknown command {command!r}")
    spec = COMMANDS[command]
    if len(names) != len(spec.kinds):
        raise _NameError(
            f"{command} expects {len(spec.kinds)} --name argument(s), got {len(names)}")
    args = [_resolve(scenario, kind, name) for kind, name in zip(spec.kinds, names)]
    if spec.takes_gamma:
        args.append(gamma or (1, 0))
    payload, lines = spec.fn(scenario, *args)
    return Report(command, tuple(names), payload, tuple(lines))


def _parse_gamma(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two comma-separated integers")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built once and shared by every caller; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="rimtori",
        description="exact rim-tori, vanishing-cycles, and deck-group calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        p.add_argument("--scenario", help="scenario file (JSON)")
        p.add_argument("--name", action="append", default=[], dest="names",
                       help="name to resolve in the scenario (repeatable)")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if spec.takes_gamma:
            p.add_argument("--gamma", type=_parse_gamma, default=(1, 0),
                           help="sheet representative as 'a,b'")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.scenario is not None:
            scenario = load_scenario(args.scenario)
        else:
            scenario = Scenario()
        report = run(args.command, scenario, args.names,
                     gamma=getattr(args, "gamma", None))
        output = report.to_machine() if args.format == "machine" else report.to_text()
    except (ScenarioError, _NameError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    print(output)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
