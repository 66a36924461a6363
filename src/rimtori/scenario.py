"""Scenario files: named divisors, profiles, gluings, and squares.

A scenario is a JSON document with four optional top-level tables::

    {
      "divisors": {
        "fiber": {
          "dim": 2,
          "components": [
            {"name": "F", "h1": {"rank": 2, "torsion": []},
             "torus": true, "flux": "full"}
          ],
          "h_xv": [],
          "intersections": [6]
        }
      },
      "profiles": {"tangent": {"tuples": [[2, 4]]}},
      "gluings":  {"sum": {"x": "fiber", "y": "fiber", "ident": "self"}},
      "squares":  {"sq": {"nodes": [...], "row_maps": [...], "col_maps": [...]}}
    }

Conventions: sets of generators (``h_xv``, ``flux``, square relations)
are lists of column vectors; homomorphism matrices (``ident``, square
maps) are lists of rows.  ``flux`` may be the string ``"full"``.  A
square lists nine groups as three rows of ``{"rank": n, "relations":
[...]}`` objects and its twelve maps in row-major / column-major order.

Every reference is resolved and every structural invariant is checked at
load time; violations raise a ScenarioError subclass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from .divisors import ContactProfile, DivisorComponent, DivisorData
from .groups import FgAbGroup, Homomorphism, IllDefinedHomomorphismError
from .matrices import IntMatrix, _trusted, _trusted_columns
from .squares import ExactSquare


# the largest group rank, or H_1 ambient rank of a component or divisor, a scenario may declare:
# the identity matrix of that rank has 2^20 entries, as many as ``groups.COSET_LIMIT`` enumerates
RANK_LIMIT = 2**10


class ScenarioError(Exception):
    """Any problem with a scenario file."""


class ScenarioParseError(ScenarioError):
    """Malformed JSON, with line/column position."""


class UnresolvedReferenceError(ScenarioError):
    """A record refers to a name that is not defined."""


class ScenarioInvariantError(ScenarioError):
    """Structurally valid input that violates a data invariant."""


@dataclass(frozen=True)
class Gluing:
    side_x: str
    side_y: str
    ident: IntMatrix | None  # None encodes the identity identification


@dataclass(frozen=True)
class Scenario:
    divisors: dict[str, DivisorData] = field(default_factory=dict)
    profiles: dict[str, ContactProfile] = field(default_factory=dict)
    gluings: dict[str, Gluing] = field(default_factory=dict)
    squares: dict[str, ExactSquare] = field(default_factory=dict)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioInvariantError(message)


def _int_list(values, context: str) -> list[int]:
    # JSON true/false load as bool, a subclass of int: never read them as numbers
    if not (type(values) is list and {int}.issuperset(map(type, values))):
        _require(isinstance(values, list), f"{context}: expected an array")
        raise ScenarioInvariantError(f"{context}: entries must be integers")
    return values


def _is_table(values, length: int | None = None) -> bool:
    """Whether ``values`` is a list of lists of ints, all of ``length`` when given: one set/map
    pass that builds no message.  Only a table that fails is walked, to name its first fault."""
    return (type(values) is list and {list}.issuperset(map(type, values))
            and {int}.issuperset(map(type, chain.from_iterable(values)))
            and (length is None or {length}.issuperset(map(len, values))))


def _column_matrix(values, rows: int, context: str) -> IntMatrix:
    if not _is_table(values, rows):
        _require(isinstance(values, list), f"{context}: expected an array of column vectors")
        for k, col in enumerate(values):
            vec = _int_list(col, f"{context}[{k}]")
            _require(len(vec) == rows, f"{context}[{k}]: expected length {rows}, got {len(vec)}")
    return _trusted_columns(values, rows)


def _row_matrix(values, rows: int, cols: int, context: str) -> IntMatrix:
    if not (_is_table(values, cols) and len(values) == rows):
        _require(isinstance(values, list) and len(values) == rows,
                 f"{context}: expected {rows} rows")
        for i, row in enumerate(values):
            vec = _int_list(row, f"{context}[{i}]")
            _require(len(vec) == cols, f"{context}[{i}]: expected {cols} entries")
    return _trusted(rows, cols, tuple(map(tuple, values)))


def _parse_group(spec, context: str) -> FgAbGroup:
    _require(isinstance(spec, dict), f"{context}: expected an object")
    rank = spec.get("rank", 0)
    _require(type(rank) is int and rank >= 0, f"{context}: rank must be a nonnegative integer")
    _require(rank <= RANK_LIMIT, f"{context}: rank {rank} exceeds the limit of {RANK_LIMIT}")
    relations = _column_matrix(spec.get("relations", []), rank, f"{context}.relations")
    return FgAbGroup(rank, relations)


def _parse_component(spec, context: str) -> DivisorComponent:
    _require(isinstance(spec, dict), f"{context}: expected an object")
    name = spec.get("name", "")
    _require(isinstance(name, str) and name, f"{context}: component needs a name")
    h1_spec = spec.get("h1")
    _require(isinstance(h1_spec, dict), f"{context}: component needs an h1 object")
    rank = h1_spec.get("rank", 0)
    _require(type(rank) is int and rank >= 0, f"{context}.h1: rank must be a nonnegative integer")
    _require(rank <= RANK_LIMIT, f"{context}.h1: rank {rank} exceeds the limit of {RANK_LIMIT}")
    torsion = _int_list(h1_spec.get("torsion", []), f"{context}.h1.torsion")
    _require(rank + len(torsion) <= RANK_LIMIT,
             f"{context}.h1: ambient rank {rank + len(torsion)} exceeds the limit of {RANK_LIMIT}")
    _require(all(d > 1 for d in torsion), f"{context}.h1.torsion: orders must exceed 1")
    h1 = FgAbGroup.from_invariants(rank, torsion)

    is_torus = spec.get("torus", False)
    _require(isinstance(is_torus, bool), f"{context}: torus must be a boolean")

    flux_spec = spec.get("flux")
    if flux_spec is None:
        flux = None
    elif flux_spec == "full":
        flux = IntMatrix.identity(h1.ambient_rank)
    else:
        flux = _column_matrix(flux_spec, h1.ambient_rank, f"{context}.flux")
    return DivisorComponent(name=name, h1=h1, is_torus=is_torus, flux=flux)


def _parse_divisor(spec, context: str) -> DivisorData:
    _require(isinstance(spec, dict), f"{context}: expected an object")
    dim = spec.get("dim", 2)
    _require(type(dim) is int, f"{context}: dim must be an integer")
    raw_components = spec.get("components", [])
    _require(isinstance(raw_components, list), f"{context}: components must be an array")
    components = tuple(_parse_component(c, f"{context}.components[{i}]")
                       for i, c in enumerate(raw_components))
    ambient = sum(comp.h1.ambient_rank for comp in components)
    _require(ambient <= RANK_LIMIT,
             f"{context}: H_1 ambient rank {ambient} exceeds the limit of {RANK_LIMIT}")
    total = FgAbGroup.direct_sum_of(comp.h1 for comp in components)
    gens = _column_matrix(spec.get("h_xv", []), total.ambient_rank, f"{context}.h_xv")
    intersections = spec.get("intersections")
    if intersections is not None:
        intersections = tuple(_int_list(intersections, f"{context}.intersections"))
    try:
        return DivisorData(components=components, h_xv=total.subgroup(gens),
                           dim_v=dim, intersections=intersections)
    except ValueError as exc:
        raise ScenarioInvariantError(f"{context}: {exc}") from exc


def _parse_profile(spec, context: str) -> ContactProfile:
    _require(isinstance(spec, dict), f"{context}: expected an object")
    raw = spec.get("tuples")
    _require(isinstance(raw, list), f"{context}: profile needs a tuples array")
    if not (_is_table(raw) and all(map(all, raw))):
        for r, s in enumerate(raw):
            entries = _int_list(s, f"{context}.tuples[{r}]")
            _require(all(entries), f"{context}.tuples[{r}]: contact orders must be nonzero entries")
    return ContactProfile(tuple(map(tuple, raw)))


def _parse_gluing(spec, divisors: dict[str, DivisorData], context: str) -> Gluing:
    _require(isinstance(spec, dict), f"{context}: expected an object")
    side_x = spec.get("x")
    side_y = spec.get("y")
    for label, name in (("x", side_x), ("y", side_y)):
        if not isinstance(name, str) or name not in divisors:
            raise UnresolvedReferenceError(f"{context}: {label} refers to unknown divisor {name!r}")
    ident_spec = spec.get("ident", "self")
    if ident_spec == "self":
        ident = None
    else:
        n = divisors[side_x].total_h1().ambient_rank
        ident = _row_matrix(ident_spec, n, n, f"{context}.ident")
    return Gluing(side_x=side_x, side_y=side_y, ident=ident)


def _parse_square(spec, context: str) -> ExactSquare:
    _require(isinstance(spec, dict), f"{context}: expected an object")
    raw_nodes = spec.get("nodes")
    _require(isinstance(raw_nodes, list) and len(raw_nodes) == 3
             and all(isinstance(r, list) and len(r) == 3 for r in raw_nodes),
             f"{context}: nodes must be a 3x3 array of groups")
    nodes = tuple(tuple(_parse_group(g, f"{context}.nodes[{i}][{j}]")
                        for j, g in enumerate(row))
                  for i, row in enumerate(raw_nodes))

    def parse_maps(key, placements):
        raw = spec.get(key)
        _require(isinstance(raw, list) and len(raw) == 6, f"{context}: {key} must list 6 matrices")
        maps = []
        for k, (src, tgt) in enumerate(placements):
            matrix = _row_matrix(raw[k], tgt.ambient_rank, src.ambient_rank,
                                 f"{context}.{key}[{k}]")
            try:
                maps.append(Homomorphism(src, tgt, matrix))
            except IllDefinedHomomorphismError as exc:
                raise ScenarioInvariantError(f"{context}.{key}[{k}]: {exc}") from exc
        return tuple(maps)

    row_places = [(nodes[i][seg], nodes[i][seg + 1]) for i in range(3) for seg in range(2)]
    col_places = [(nodes[seg][i], nodes[seg + 1][i]) for i in range(3) for seg in range(2)]
    row_maps = parse_maps("row_maps", row_places)
    col_maps = parse_maps("col_maps", col_places)
    # a guard only: no JSON input reaches it, as the grid and the map counts are checked
    # above; tests/test_refusals.py reaches it only by patching ExactSquare
    try:
        return ExactSquare(nodes, row_maps, col_maps)
    except ValueError as exc:
        raise ScenarioInvariantError(f"{context}: {exc}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioParseError("parse error: the document is nested too deeply") from exc
    _require(isinstance(document, dict), "scenario must be a JSON object")
    known = {"divisors", "profiles", "gluings", "squares"}
    unknown = set(document) - known
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    for key in sorted(document):
        _require(isinstance(document[key], dict), f"{key}: expected an object")

    divisors = {name: _parse_divisor(spec, f"divisors.{name}")
                for name, spec in document.get("divisors", {}).items()}
    profiles = {name: _parse_profile(spec, f"profiles.{name}")
                for name, spec in document.get("profiles", {}).items()}
    gluings = {name: _parse_gluing(spec, divisors, f"gluings.{name}")
               for name, spec in document.get("gluings", {}).items()}
    squares = {name: _parse_square(spec, f"squares.{name}")
               for name, spec in document.get("squares", {}).items()}
    return Scenario(divisors=divisors, profiles=profiles, gluings=gluings, squares=squares)


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from exc
    return parse_scenario(text)
