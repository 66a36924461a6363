"""Golden test: exit status, stdout and stderr of ``rimtori``, byte for byte.

``tests/golden/cli.json`` records, in both output formats, every
(scenario, command, names) combination whose names come from the tables
the command resolves them in, for the shipped scenarios and for
``tests/golden/preconditions.json`` (which violates each command's
preconditions); the built-in square; base points at several sheet
representatives; and, per command, wrong name counts and unknown names.

Regenerate the file only when a change of output is intended::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import itertools
import json
import os
from pathlib import Path

from rimtori.cli import main
from rimtori.scenario import load_scenario

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli.json"
SCENARIO_FILES = sorted(
    [p.relative_to(ROOT).as_posix() for p in (ROOT / "scenarios").glob("*.json")]
    + ["tests/golden/preconditions.json"])

# The scenario tables each command's --name arguments resolve in, written
# out independently of the command-line module.
TABLES = {
    "compute": ("divisors",),
    "deck": ("divisors", "profiles"),
    "glue": ("gluings",),
    "self-glue": ("divisors",),
    "vanishing": ("divisors", "profiles"),
    "invariance": ("divisors", "profiles"),
    "finite-generation": ("divisors", "profiles"),
    "verify-square": ("squares",),
    "torus-cover": ("profiles",),
    "base-point": ("profiles",),
}
GAMMAS = ("--gamma=3,-2", "--gamma=0,0", "--gamma=-5,7")
UNKNOWN = "no_such_name"


def _argv(command, path, names, extra=()):
    argv = [command]
    if path is not None:
        argv += ["--scenario", path]
    for name in names:
        argv += ["--name", name]
    return argv + list(extra)


def cases() -> list[list[str]]:
    """Every recorded command line, in a fixed order."""
    lines = [_argv("verify-square", None, ["elliptic_p1xt2"]),
             _argv("verify-square", "scenarios/gluing_square.json", ["elliptic_p1xt2"]),
             _argv("verify-square", None, [UNKNOWN])]
    for path in SCENARIO_FILES:
        scenario = load_scenario(ROOT / path)
        for command, tables in TABLES.items():
            for names in itertools.product(*(getattr(scenario, t) for t in tables)):
                lines.append(_argv(command, path, names))
                if command == "base-point":
                    lines += [_argv(command, path, names, [g]) for g in GAMMAS]
    path = "tests/golden/preconditions.json"
    valid = {"divisors": "torus", "profiles": "two_components", "gluings": "degree_two",
             "squares": "elliptic_p1xt2"}
    for command, tables in TABLES.items():
        names = [valid[t] for t in tables]
        lines += [_argv(command, path, []), _argv(command, path, names + names[:1])]
        for k in range(len(names)):
            lines.append(_argv(command, path, names[:k] + [UNKNOWN] + names[k + 1:]))
    return [argv + ["--format", f] for argv in lines for f in ("text", "machine")]


def replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _golden() -> list[dict]:
    return json.loads(GOLDEN.read_text())


def test_golden_lists_every_case():
    assert [entry["argv"] for entry in _golden()] == cases()


def test_cli_output_matches_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = _golden()
    assert {entry["exit"] for entry in golden} == {0, 2, 3}
    mismatched = [entry["argv"] for entry in golden if replay(entry["argv"]) != entry]
    assert mismatched == []


if __name__ == "__main__":
    os.chdir(ROOT)
    entries = [replay(argv) for argv in cases()]
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN.relative_to(ROOT)}")
