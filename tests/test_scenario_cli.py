import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rimtori.cli import COMMANDS, EXIT_INTERNAL, main, run
from rimtori.matrices import IntMatrix
from rimtori.scenario import (
    RANK_LIMIT,
    Scenario,
    ScenarioInvariantError,
    ScenarioParseError,
    UnresolvedReferenceError,
    load_scenario,
    parse_scenario,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def corpus(name: str) -> Path:
    return SCENARIOS / name


def test_corpus_files_load():
    for path in sorted(SCENARIOS.glob("*.json")):
        load_scenario(path)


def test_elliptic_scenario_compute():
    scenario = load_scenario(corpus("elliptic_surface.json"))
    report = run("compute", scenario, ["elliptic_fiber"])
    assert report.result["group"] == "Z^2"
    assert report.result["free_rank"] == 2


def test_parse_error_carries_position():
    with pytest.raises(ScenarioParseError) as info:
        parse_scenario('{"divisors": {\n  "x": }\n}')
    assert "line 2" in str(info.value)


def test_zero_contact_order_rejected():
    text = json.dumps({"profiles": {"bad": {"tuples": [[2, 0]]}}})
    with pytest.raises(ScenarioInvariantError) as info:
        parse_scenario(text)
    assert "nonzero" in str(info.value)


def test_unresolved_divisor_reference():
    text = json.dumps({"gluings": {"g": {"x": "nope", "y": "nope", "ident": "self"}}})
    with pytest.raises(UnresolvedReferenceError):
        parse_scenario(text)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioInvariantError):
        parse_scenario('{"divisor": {}}')


def test_square_scenario_verifies(tmp_path):
    scenario = load_scenario(corpus("gluing_square.json"))
    report = run("verify-square", scenario, ["elliptic_p1xt2_explicit"])
    assert report.result["overall"] is True


def test_builtin_square_without_scenario():
    report = run("verify-square", Scenario(), ["elliptic_p1xt2"])
    assert report.result["exact"] is True
    assert report.result["commutative"] is True
    assert report.text_lines[0] == "exact: yes; commutative: yes"


def test_deck_command_text():
    scenario = load_scenario(corpus("elliptic_surface.json"))
    report = run("deck", scenario, ["elliptic_fiber", "orders_2_4"])
    assert report.text_lines == (
        "finite: Z/2 + Z/2; free: Z^2; total: Z^2 + Z/2 + Z/2",)
    assert report.result["gcds"] == [2]


def test_glue_trichotomy_via_cli():
    scenario = load_scenario(corpus("p1_times_t2.json"))
    outcomes = {}
    for name in ("standard", "unipotent_twist", "hyperbolic_twist"):
        outcomes[name] = run("glue", scenario, [name]).result["group"]
    assert outcomes == {"standard": "Z^2", "unipotent_twist": "Z", "hyperbolic_twist": "0"}


def test_self_glue_command():
    scenario = load_scenario(corpus("elliptic_surface.json"))
    assert run("self-glue", scenario, ["elliptic_fiber"]).result["group"] == "Z^2"


def test_vanishing_command():
    scenario = load_scenario(corpus("torus_divisors.json"))
    report = run("vanishing", scenario, ["t4", "three_contacts"])
    assert report.result["threshold"] == 8
    assert report.text_lines == ("threshold r* = 8",)


def test_invariance_command_rows():
    scenario = load_scenario(corpus("invariance_rows.json"))
    first = run("invariance", scenario, ["rank_one_quotient", "coprime"]).result
    assert (first["lift_independent"], first["equals_standard_gw"]) == (True, True)
    second = run("invariance", scenario, ["rank_two_quotient", "coprime"]).result
    assert (second["lift_independent"], second["equals_standard_gw"]) == (True, False)
    third = run("invariance", scenario, ["rank_two_quotient", "even"]).result
    assert (third["lift_independent"], third["equals_standard_gw"]) == (False, False)


def test_finite_generation_command():
    scenario = load_scenario(corpus("p1_times_t2.json"))
    report = run("finite-generation", scenario, ["two_fibers", "near_fiber_only"])
    assert report.result["finitely_generated"] is True
    assert report.result["active_span_index"] == 1


def test_finite_generation_reports_infinite_index():
    text = json.dumps({
        "divisors": {"split": {"dim": 2, "components": [
            {"name": "A", "h1": {"rank": 1}},
            {"name": "B", "h1": {"rank": 1}}], "h_xv": []}},
        "profiles": {"one_side": {"tuples": [[1], []]}},
    })
    scenario = parse_scenario(text)
    report = run("finite-generation", scenario, ["split", "one_side"])
    assert report.result["finitely_generated"] is False
    assert report.result["active_span_index"] == "inf"
    assert "active_span_index: inf" in report.text_lines


def test_torus_cover_command():
    scenario = load_scenario(corpus("elliptic_surface.json"))
    report = run("torus-cover", scenario, ["orders_2_4"])
    assert report.result["torus_dim"] == 2
    assert report.result["gcd"] == 2
    assert report.result["deck_total"]["group"] == "Z^2 + Z/2 + Z/2"
    assert report.text_lines[0] == "cover: C x T^2"


def test_base_point_command():
    scenario = load_scenario(corpus("elliptic_surface.json"))
    report = run("base-point", scenario, ["orders_2_4"], gamma=(1, 0))
    assert report.result["projects_to_origin"] is True
    assert report.result["z"] == ["1/2", "0"]
    assert report.result["torus"] == [["1/4", "0"], ["1/8", "0"]]


def test_machine_format_round_trip():
    scenario = load_scenario(corpus("elliptic_surface.json"))
    report = run("deck", scenario, ["elliptic_fiber", "orders_3_6"])
    document = json.loads(report.to_machine())
    assert document["command"] == "deck"
    assert document["result"]["total"]["group"] == report.result["total"]["group"]
    # re-serializing the parsed document reproduces the canonical strings
    again = json.dumps(document, sort_keys=True, separators=(", ", ": "))
    assert again == report.to_machine()


def test_cli_exit_codes(tmp_path):
    good = corpus("elliptic_surface.json")
    assert main(["compute", "--scenario", str(good), "--name", "elliptic_fiber"]) == 0

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["compute", "--scenario", str(broken), "--name", "x"]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"profiles": {"p": {"tuples": [[0]]}}}))
    assert main(["compute", "--scenario", str(invalid), "--name", "x"]) == 2

    # unresolved name
    assert main(["compute", "--scenario", str(good), "--name", "missing"]) == 2

    # precondition failure: threshold with an empty profile
    empty = tmp_path / "empty_profile.json"
    empty.write_text(json.dumps({
        "divisors": {"d": {"dim": 2, "components": [
            {"name": "V", "h1": {"rank": 1}}], "h_xv": []}},
        "profiles": {"p": {"tuples": [[]]}},
    }))
    assert main(["vanishing", "--scenario", str(empty),
                 "--name", "d", "--name", "p"]) == 3


def test_cli_byte_identical_machine_output():
    argv = ["deck", "--scenario", str(corpus("elliptic_surface.json")),
            "--name", "elliptic_fiber", "--name", "orders_2_4", "--format", "machine"]
    first = subprocess.run([sys.executable, "-m", "rimtori", *argv],
                           capture_output=True, check=True)
    second = subprocess.run([sys.executable, "-m", "rimtori", *argv],
                            capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["result"]["finite"]["group"] == "Z/2 + Z/2"


def test_cli_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


SQUARE_NODES = [[{"rank": True}, {}, {}], [{}, {}, {}], [{}, {}, {}]]


@pytest.mark.parametrize("document, message", [
    ({"divisors": {"d": {"components": [{"name": "V", "h1": {"rank": True}}]}}},
     "rank must be a nonnegative integer"),
    ({"squares": {"s": {"nodes": SQUARE_NODES}}}, "rank must be a nonnegative integer"),
    ({"profiles": []}, "profiles: expected an object"),
    ({"divisors": [1]}, "divisors: expected an object"),
    ({"gluings": None}, "gluings: expected an object"),
])
def test_malformed_scenario_exits_2(tmp_path, capsys, document, message):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ScenarioInvariantError, match=message):
        load_scenario(path)
    assert main(["compute", "--scenario", str(path), "--name", "d"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("order", [2.5, "3", True])
def test_profile_order_that_is_not_an_int_exits_2(tmp_path, order):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"profiles": {"p": {"tuples": [[2, order]]}}}))
    with pytest.raises(ScenarioInvariantError, match="entries must be integers"):
        load_scenario(path)
    assert main(["compute", "--scenario", str(path), "--name", "p"]) == 2


@pytest.mark.parametrize("content, message", [
    (b'{"divisors": {"d": "\xff"}}', "cannot read scenario"),
    (b'{"divisors": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "nested too deeply"),
], ids=["not-utf8", "deep-nesting"])
def test_unparsable_scenario_exits_2(tmp_path, capsys, content, message):
    path = tmp_path / "unparsable.json"
    path.write_bytes(content)
    with pytest.raises(ScenarioParseError, match=message):
        load_scenario(path)
    assert main(["compute", "--scenario", str(path), "--name", "d"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_internal_error_exits_with_one_line(monkeypatch, capsys):
    def fault(scenario, divisor):
        raise RuntimeError("simulated fault")

    monkeypatch.setitem(COMMANDS, "compute", dataclasses.replace(COMMANDS["compute"], fn=fault))
    argv = ["compute", "--scenario", str(corpus("elliptic_surface.json")),
            "--name", "elliptic_fiber", "--format", "machine"]
    assert main(argv) == EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: internal: RuntimeError: simulated fault\n"


def readme_scenario() -> dict:
    """The example document under "Scenario files" in README.md."""
    text = (SCENARIOS.parent / "README.md").read_text()
    return json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])


def test_readme_scenario_answers():
    scenario = parse_scenario(json.dumps(readme_scenario()))
    deck = run("deck", scenario, ["two_fibers", "both"])
    assert deck.text_lines[0].startswith("finite: 0; free: Z^2")
    invariance = run("invariance", scenario, ["two_fibers", "both"])
    assert "lift_independent: yes" in invariance.text_lines
    # explicit flux columns replace a torus's full flux
    document = readme_scenario()
    document["divisors"]["two_fibers"]["components"][0].update(torus=False, flux=[[1, 0], [0, 2]])
    scenario = parse_scenario(json.dumps(document))
    flux = scenario.divisors["two_fibers"].components[0].flux_generators()
    assert flux.entries == ((1, 0), (0, 2))
    assert run("invariance", scenario, ["two_fibers", "both"]).result["lift_independent"] is True


def _set_tuples(document):
    document["profiles"]["both"]["tuples"] = [[1, 1], [3]]


def _set_flux(document):
    document["divisors"]["two_fibers"]["components"][0]["flux"] = [[1, 0, 0]]


def _set_dim(document):
    document["divisors"]["two_fibers"]["dim"] = 3


@pytest.mark.parametrize("edit, code, message", [
    (_set_tuples, 3, "contact orders of component 0 sum to 2, expected 3"),
    (_set_flux, 2, "flux[0]: expected length 2, got 3"),
    (_set_dim, 2, "divisor dimension must be a positive even integer"),
])
def test_readme_scenario_refusals(tmp_path, capsys, edit, code, message):
    document = readme_scenario()
    edit(document)
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(document))
    argv = ["deck", "--scenario", str(path), "--name", "two_fibers", "--name", "both"]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _with_rank(where, rank):
    """A shipped scenario with one declared rank replaced: the document, the
    command and name that read it, and where the rank sits."""
    if where == "group":
        document = json.loads(corpus("gluing_square.json").read_text())
        document["squares"]["elliptic_p1xt2_explicit"]["nodes"][1][2] = {"rank": rank}
        return (document, "verify-square", "elliptic_p1xt2_explicit",
                "squares.elliptic_p1xt2_explicit.nodes[1][2]")
    document = json.loads(corpus("elliptic_surface.json").read_text())
    document["divisors"]["elliptic_fiber"]["components"][0]["h1"]["rank"] = rank
    return document, "compute", "elliptic_fiber", "divisors.elliptic_fiber.components[0].h1"


@pytest.mark.parametrize("rank", [2**64, RANK_LIMIT + 1])
@pytest.mark.parametrize("where", ["group", "h1"])
def test_ranks_above_the_limit_exit_2(tmp_path, capsys, monkeypatch, where, rank):
    # a rank of 2^64 exited 4 with an OverflowError, and as an h1 rank it hung
    # building its matrices: fail fast if a matrix above the cap is ever built
    def capped(build):
        def guarded(*dims):
            assert max(dims) <= RANK_LIMIT, f"built a matrix of dimensions {dims}"
            return build(*dims)
        return staticmethod(guarded)

    monkeypatch.setattr(IntMatrix, "zeros", capped(IntMatrix.zeros))
    monkeypatch.setattr(IntMatrix, "identity", capped(IntMatrix.identity))
    document, command, name, context = _with_rank(where, rank)
    path = tmp_path / "ranks.json"
    path.write_text(json.dumps(document))
    assert main([command, "--scenario", str(path), "--name", name]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {context}: rank {rank} exceeds the limit of {RANK_LIMIT}\n"


def test_rank_at_the_limit_is_accepted():
    document = _with_rank("h1", RANK_LIMIT)[0]
    divisor = parse_scenario(json.dumps(document)).divisors["elliptic_fiber"]
    assert divisor.total_h1().ambient_rank == RANK_LIMIT


@pytest.fixture
def capped_matrices(monkeypatch):
    """Fail fast if a matrix with a dimension above the cap is ever built."""
    def capped(build):
        def guarded(*dims):
            assert max(dims) <= RANK_LIMIT, f"built a matrix of dimensions {dims}"
            return build(*dims)
        return staticmethod(guarded)

    monkeypatch.setattr(IntMatrix, "zeros", capped(IntMatrix.zeros))
    monkeypatch.setattr(IntMatrix, "identity", capped(IntMatrix.identity))


def _with_h1(file, divisor, *h1s):
    """A shipped scenario with the H_1 groups of one divisor's components replaced."""
    document = json.loads(corpus(file).read_text())
    for component, h1 in zip(document["divisors"][divisor]["components"], h1s):
        component["h1"] = h1
    return document


@pytest.mark.parametrize("file, divisor, h1s, message", [
    # torsion orders widen the ambient as free rank does: 1,100 were accepted
    ("elliptic_surface.json", "elliptic_fiber", [{"rank": 0, "torsion": [2] * 1100}],
     "divisors.elliptic_fiber.components[0].h1: ambient rank 1100"),
    ("elliptic_surface.json", "elliptic_fiber", [{"rank": 1000, "torsion": [3] * 25}],
     "divisors.elliptic_fiber.components[0].h1: ambient rank 1025"),
    # each component within the cap, their direct sum above it
    ("p1_times_t2.json", "two_fibers", [{"rank": 1024}, {"rank": 1024}],
     "divisors.two_fibers: H_1 ambient rank 2048"),
    ("p1_times_t2.json", "two_fibers", [{"rank": 512, "torsion": [2]}, {"rank": 512}],
     "divisors.two_fibers: H_1 ambient rank 1025"),
], ids=["torsion", "rank-and-torsion", "two-components", "total-with-torsion"])
def test_ambient_ranks_above_the_limit_exit_2(tmp_path, capsys, capped_matrices,
                                              file, divisor, h1s, message):
    path = tmp_path / "ambient.json"
    path.write_text(json.dumps(_with_h1(file, divisor, *h1s)))
    assert main(["compute", "--scenario", str(path), "--name", divisor]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message} exceeds the limit of {RANK_LIMIT}\n"


def test_ambient_rank_at_the_limit_is_accepted(capped_matrices):
    document = _with_h1("elliptic_surface.json", "elliptic_fiber",
                        {"rank": 1000, "torsion": [2] * 24})
    divisor = parse_scenario(json.dumps(document)).divisors["elliptic_fiber"]
    assert divisor.total_h1().ambient_rank == RANK_LIMIT
