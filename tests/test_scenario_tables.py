"""The exact refusal line for every vector table a scenario holds.

Each table of ``BASE`` is mutated at its first and at its last vector: an entry
becomes a bool, a float or a string, the vector loses or gains an entry, or the
vector is replaced by a non-list.  The command line must exit 2 with one stderr
line that names the first fault, in the order the tables and vectors are read.
"""

import copy
import json
from pathlib import Path

import pytest

from rimtori.cli import main
from rimtori.scenario import parse_scenario

SQUARE = json.loads((Path(__file__).resolve().parents[1] / "scenarios" / "gluing_square.json")
                    .read_text())["squares"]["elliptic_p1xt2_explicit"]
# a quotient node: every map into it stays well-defined, and it maps only to the zero group
SQUARE["nodes"][1][2]["relations"] = [[2, 0], [0, 3]]

IDENT = [[int(i == j) for j in range(5)] for i in range(5)]
BASE = {
    "divisors": {"d": {
        "dim": 2,
        "components": [
            {"name": "A", "h1": {"rank": 1, "torsion": [2, 4]}, "flux": [[1, 0, 0], [0, 1, 0]]},
            {"name": "B", "h1": {"rank": 2, "torsion": []}, "torus": True, "flux": "full"},
        ],
        "h_xv": [[1, 0, 0, 0, 0], [0, 0, 0, 1, 0]],
        "intersections": [2, 3],
    }},
    "profiles": {"p": {"tuples": [[1, 2], [3]]}},
    "gluings": {"g": {"x": "d", "y": "d", "ident": IDENT}},
    "squares": {"s": SQUARE},
}

# table -> (path in BASE, context in messages, kind, fixed vector length)
TABLES = {
    "h_xv": (("divisors", "d", "h_xv"), "divisors.d.h_xv", "columns", 5),
    "flux": (("divisors", "d", "components", 0, "flux"), "divisors.d.components[0].flux",
             "columns", 3),
    "relations": (("squares", "s", "nodes", 1, 2, "relations"),
                  "squares.s.nodes[1][2].relations", "columns", 2),
    "ident": (("gluings", "g", "ident"), "gluings.g.ident", "rows", 5),
    "row_maps": (("squares", "s", "row_maps", 2), "squares.s.row_maps[2]", "rows", 4),
    "col_maps": (("squares", "s", "col_maps", 1), "squares.s.col_maps[1]", "rows", 4),
    "tuples": (("profiles", "p", "tuples"), "profiles.p.tuples", "tuples", None),
    "torsion": (("divisors", "d", "components", 0, "h1", "torsion"),
                "divisors.d.components[0].h1.torsion", "flat", None),
    "intersections": (("divisors", "d", "intersections"), "divisors.d.intersections",
                      "flat", None),
}

ENTRIES = {"bool": True, "float": 2.5, "string": "1"}


def _message(table, mutation, k):
    """The refusal the parser gives for ``mutation`` of vector (or entry) ``k``."""
    _, context, kind, n = TABLES[table]
    where = f"{context}[{k}]"
    if mutation in ENTRIES:
        return f"{context if kind == 'flat' else where}: entries must be integers"
    if mutation == "non-list":
        return f"{where}: expected an array"
    if kind == "columns":
        return f"{where}: expected length {n}, got {n + (1 if mutation == 'long' else -1)}"
    if kind == "rows":
        return f"{where}: expected {n} entries"
    if table == "intersections":
        return "divisors.d: one intersection number per component required"
    # one torsion order fewer or more moves the component's ambient, and its flux misfits
    return (f"divisors.d.components[0].flux[0]: expected length "
            f"{2 if mutation == 'short' else 4}, got 3")


def _table(document, table):
    """The parent of ``table`` in ``document`` and its key there."""
    path = TABLES[table][0]
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    return parent, path[-1]


def _mutate(document, table, mutation, first):
    kind = TABLES[table][2]
    parent, key = _table(document, table)
    vectors = parent[key]
    k = 0 if first else len(vectors) - 1
    if kind == "flat":
        if mutation in ENTRIES:
            vectors[k] = ENTRIES[mutation]
        elif mutation == "short":
            del vectors[k]
        elif mutation == "long":
            vectors.insert(k, vectors[k])
        return k
    if mutation in ENTRIES:
        vectors[k][0 if first else -1] = ENTRIES[mutation]
    elif mutation == "short":
        del vectors[k][0 if first else -1]
    elif mutation == "long":
        vectors[k].append(0)
    else:
        vectors[k] = 7
    return k


CASES = [(table, mutation, first)
         for table, (_, _, kind, _) in TABLES.items()
         for mutation in (*ENTRIES, "short", "long", "non-list")
         if not (kind == "tuples" and mutation in ("short", "long"))  # tuples have no fixed length
         and not (kind == "flat" and mutation == "non-list")  # covered by the whole-table case
         for first in (True, False)]


def _refusal(tmp_path, capsys, document):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    assert main(["compute", "--scenario", str(path), "--name", "d"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    return err


def test_base_document_loads():
    scenario = parse_scenario(json.dumps(BASE))
    assert scenario.divisors["d"].total_h1().ambient_rank == 5


@pytest.mark.parametrize("table, mutation, first", CASES)
def test_vector_refusal_lines(tmp_path, capsys, table, mutation, first):
    document = copy.deepcopy(BASE)
    k = _mutate(document, table, mutation, first)
    assert _refusal(tmp_path, capsys, document) == f"error: {_message(table, mutation, k)}\n"


@pytest.mark.parametrize("table", list(TABLES))
def test_table_that_is_not_a_list(tmp_path, capsys, table):
    _, context, kind, _ = TABLES[table]
    document = copy.deepcopy(BASE)
    parent, key = _table(document, table)
    rows = len(parent[key])
    parent[key] = 7
    message = {"columns": f"{context}: expected an array of column vectors",
               "rows": f"{context}: expected {rows} rows",
               "tuples": "profiles.p: profile needs a tuples array",
               "flat": f"{context}: expected an array"}[kind]
    assert _refusal(tmp_path, capsys, document) == f"error: {message}\n"
