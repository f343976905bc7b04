"""Command-line front end: every subcommand produces a schema-valid
JSON envelope, exit codes follow the documented contract, repeated runs
are byte-identical, and the schema validator accepts legacy envelopes
with a migration warning."""

import json

import pytest

from orthogal.cli import dispatch, main, report_schema_validate, jsonable
from fractions import Fraction


SMOKE_ARGS = {
    "classify": ["classify", "--poly", "1,0,3,0,1"],
    "orth-stats": ["orth-stats", "--q", "3", "--N", "3"],
    "orth-enum": ["orth-enum", "--q", "3", "--N", "3",
                  "--disc", "nonsquare"],
    "wstats": ["wstats", "--n", "3"],
    "count-irred": ["count-irred", "--q", "5", "--m", "2"],
    "classify-h": ["classify-h", "--q", "7", "--poly", "1,1,1"],
    "density": ["density", "--N", "3", "--i", "1", "--primes", "5,7",
                "--coset", "1,square", "--reference-c", "1/2"],
    "lfunc": ["lfunc", "--q", "5", "--A", "3,2,3", "--B", "4,4,4,4",
              "--u", "1,1"],
    "lfunc-survey": ["lfunc-survey", "--q", "5", "--A", "3,2,3",
                     "--B", "4,4,4,4", "--d", "2", "--sample", "6",
                     "--seed", "0"],
    "hodge": ["hodge", "--n", "2", "--d", "4"],
}


@pytest.mark.parametrize("command", sorted(SMOKE_ARGS))
def test_subcommand_smoke(command):
    code, report = dispatch(SMOKE_ARGS[command])
    assert code == 0
    assert report["command"] == command
    assert report["schema_version"] == "1"
    assert report["argv"] == SMOKE_ARGS[command]
    assert "elapsed_ms" not in report
    assert report_schema_validate(report)
    json.dumps(report)      # fully serializable


def test_sieve_bound_smoke(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps(
        {"omegas": {"a": "1/2", "b": "1/2"}, "X": 1,
         "support": "powerset"}))
    code, report = dispatch(["sieve-bound", "--problem", str(problem)])
    assert code == 0
    assert report_schema_validate(report)
    assert report["payload"]["H"] == "4"
    assert report["payload"]["bound"] == "1/4"
    assert report["payload"]["weight_identities"] is True


def test_hodge_payload_pinned():
    code, report = dispatch(SMOKE_ARGS["hodge"])
    pl = report["payload"]
    assert pl["hodge"] == [1, 19, 1]
    assert pl["N"] == 21
    assert (pl["b_plus"], pl["b_minus"]) == (3, 19)
    assert pl["congruence_pass"] is None      # even degree
    assert pl["K"] is None


def test_hodge_k_field_pinned():
    code, report = dispatch(["hodge", "--n", "2", "--d", "27"])
    assert code == 0
    assert report["payload"]["K"] == {"radicand": -27, "is_rational": False,
                                      "display": "Q(sqrt(-27))"}


def test_lfunc_survey_confusion_pinned():
    code, report = dispatch(SMOKE_ARGS["lfunc-survey"])
    assert code == 0
    assert report["payload"]["confusion"] == [
        {"target": "W2", "outcome": "W2", "count": 3},
        {"target": "W4+", "outcome": "W4+", "count": 3}]


def test_lfunc_payload_pinned():
    code, report = dispatch(SMOKE_ARGS["lfunc"])
    pl = report["payload"]
    assert pl["coeffs"] == [1, 5]
    assert pl["N_d"] == 1 and pl["epsilon"] == 1 and pl["Q"] == 5
    assert pl["functional_equation"] is True


def test_wstats_beyond_enumeration():
    code, report = dispatch(["wstats", "--n", "8"])
    assert code == 0
    assert len(report["payload"]["classes"]) == 185
    assert report["payload"]["order"] == 2 ** 8 * 40320


def test_classify_exit_codes():
    code, report = dispatch(SMOKE_ARGS["classify"])
    assert code == 0
    assert report["payload"]["status"] == "Certified"
    assert report["payload"]["claimed_group"] == "W4+"
    code2, report2 = dispatch(["classify", "--poly", "1,0,3,0,1",
                               "--prime-budget", "4"])
    assert code2 == 2
    assert report2["payload"]["status"] == "Inconclusive"
    assert report_schema_validate(report2)


def test_error_exit_code_and_payload():
    # missing problem file -> OSError -> exit 1 with error payload
    code, report = dispatch(["sieve-bound", "--problem", "/no/such.json"])
    assert code == 1
    assert "error" in report["payload"]
    assert report_schema_validate(report)
    # bad mathematical input -> ValueError -> exit 1
    code2, report2 = dispatch(["classify", "--poly", "1,3,1"])
    assert code2 == 1
    assert "ValueError" in report2["payload"]["error"]


@pytest.mark.parametrize("q", ["1", "0", "-3"])
def test_count_irred_rejects_non_prime_powers(q):
    code, report = dispatch(["count-irred", "--q", q, "--m", "2"])
    assert code == 1
    assert report["payload"]["error"].startswith("ValueError")
    assert report_schema_validate(report)


@pytest.mark.parametrize("coset", ["2,square", "0,nonsquare"])
def test_density_rejects_bad_coset_det(coset):
    code, report = dispatch(["density", "--N", "3", "--i", "1",
                             "--primes", "5,7", "--coset", coset])
    assert code == 1
    assert report["payload"]["error"].startswith("ValueError")
    assert report_schema_validate(report)


def test_density_rejects_a_repeated_prime():
    code, report = dispatch(["density", "--N", "3", "--i", "1",
                             "--primes", "5,5"])
    assert code == 1
    assert report["payload"]["error"].startswith("ValueError")
    assert "repeated prime" in report["payload"]["error"]
    assert report_schema_validate(report)
    ordered = dispatch(["density", "--N", "3", "--i", "1", "--primes", "5,7"])
    swapped = dispatch(["density", "--N", "3", "--i", "1", "--primes", "7,5"])
    assert ordered[0] == swapped[0] == 0
    assert ordered[1]["payload"] == swapped[1]["payload"]


def test_invalid_report_raises(monkeypatch):
    import orthogal.cli as cli
    monkeypatch.setattr(cli, "report_schema_validate", lambda report: False)
    with pytest.raises(RuntimeError):
        dispatch(SMOKE_ARGS["hodge"])


def test_usage_exit_code():
    code, report = dispatch(["no-such-command"])
    assert code == 64 and report is None
    code2, report2 = dispatch(["classify"])       # missing --poly
    assert code2 == 64 and report2 is None


def test_usage_error_leaves_the_parser_unchanged(monkeypatch):
    # the parser is built once per process; a failed parse between two
    # valid calls must not change what the second call reports
    import orthogal.cli as cli
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    args = ["classify", "--poly", "1,-3,1,-3,1", "--prime-budget", "500"]
    _, first = dispatch(args)
    assert dispatch(["classify", "--poly"])[0] == 64
    assert dispatch(["classify", "--prime-budget", "x",
                     "--poly", "1"])[0] == 64
    _, second = dispatch(args)
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    _, default = dispatch(args[:3])
    assert default["payload"]["prime_budget"] == 10 ** 4
    assert len(builds) == 1


def test_reports_are_byte_identical():
    args = SMOKE_ARGS["orth-stats"]
    _, a = dispatch(args)
    _, b = dispatch(args)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_timing_flag_adds_elapsed():
    code, report = dispatch(["--timing"] + SMOKE_ARGS["hodge"])
    assert code == 0
    assert isinstance(report["elapsed_ms"], float)
    assert report_schema_validate(report)


def test_schema_validator_rejects_corruption():
    _, good = dispatch(SMOKE_ARGS["hodge"])
    assert report_schema_validate(good)
    bad1 = dict(good)
    bad1["command"] = "not-a-command"
    assert not report_schema_validate(bad1)
    bad2 = dict(good)
    del bad2["payload"]
    assert not report_schema_validate(bad2)
    bad3 = dict(good)
    bad3["surprise"] = 1
    assert not report_schema_validate(bad3)
    assert not report_schema_validate([good])


def test_schema_validator_migrates_legacy_envelope():
    _, good = dispatch(SMOKE_ARGS["hodge"])
    legacy = dict(good)
    legacy["version"] = legacy.pop("schema_version")
    with pytest.warns(UserWarning, match="legacy"):
        assert report_schema_validate(legacy)
    # the caller's document is not mutated
    assert "schema_version" not in legacy


def test_jsonable_exact_forms():
    assert jsonable(Fraction(3, 4)) == "3/4"
    assert jsonable(Fraction(5, 1)) == "5"
    assert jsonable({1: Fraction(1, 2)}) == {"1": "1/2"}
    assert jsonable((1, [2, Fraction(1, 3)])) == [1, [2, "1/3"]]
    assert sorted(jsonable({frozenset({2}), frozenset()})) == [[], [2]]


def test_main_prints_parseable_json(capsys):
    code = main(SMOKE_ARGS["classify-h"])
    assert code == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["command"] == "classify-h"
    assert doc["payload"]["classes"] == sorted(doc["payload"]["classes"])
