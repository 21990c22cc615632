import json

import pytest

from covariants import suite
from covariants.cli import INTERNAL_ERROR, USAGE_ERROR, build_parser, main, parse_scenario
from covariants.dimensions import SeedDisagreement
from covariants.scenario import Scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_scenario_validation():
    parser = build_parser()
    args = parser.parse_args(["generate", "--group", "o", "--n", "4", "--l", "2"])
    assert parse_scenario(args) == Scenario("o", 4, 2, 0)
    args = parser.parse_args(["generate", "--group", "gl", "--n", "3", "--l", "3", "--m", "3"])
    assert parse_scenario(args) == Scenario("gl", 3, 3, 3)


def test_sp_odd_n_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "nchi", "--group", "sp", "--n", "3", "--chi", "1")
    assert code == 2
    assert "sp requires even n" in err


def test_generate_json(capsys):
    code, out, _ = run_cli(capsys, "gen", "--group", "gl", "--n", "2", "--l", "2", "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["generators"]) == 6
    assert data["scenario"] == {"group": "gl", "n": 2, "l": 2, "m": 1}


def test_nchi_example(capsys):
    code, out, _ = run_cli(capsys, "nchi", "--group", "o", "--n", "5", "--chi", "1,2")
    assert code == 0
    assert json.loads(out)["minimal_degree"] == 3


def test_nchi_oracle_and_mchi(capsys):
    code, out, _ = run_cli(capsys, "nchi-oracle", "--group", "sp", "--n", "4", "--chi", "1,1")
    assert code == 0 and json.loads(out)["minimal_degree"] == 3
    code, out, _ = run_cli(capsys, "mchi-oracle", "--group", "sp", "--n", "2", "--l", "2", "--chi", "2")
    assert code == 0 and json.loads(out)["minimal_degree"] == 2


def test_zacep_verdict(capsys):
    code, out, _ = run_cli(capsys, "zacep", "--n", "3", "--l", "2", "--m", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"


def test_lemma3_and_lemma4(capsys):
    code, out, _ = run_cli(capsys, "lemma3", "--group", "sp", "--n", "4", "--chi", "1,2")
    assert code == 0
    code, out, _ = run_cli(
        capsys, "lemma4", "--group", "gl", "--n", "2", "--samples", "50", "--seed", "3"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["verdict"] == "pass"


def test_flag_map_cli(capsys):
    code, out, _ = run_cli(
        capsys, "flag-map", "--group", "gl", "--n", "2", "--l", "2", "--matrix", "1,0;0,1"
    )
    assert code == 0
    data = json.loads(out)
    assert data["components"] == [["0", "1"], ["1"]]


def test_relations_cli(capsys):
    code, out, _ = run_cli(
        capsys, "relations", "--group", "gl", "--n", "2", "--l", "2", "--m", "1", "--degree", "3"
    )
    assert code == 0
    assert json.loads(out)["relation_dim"] == 1


def test_sp_minor_cli(capsys):
    code, out, _ = run_cli(capsys, "sp-minor", "--group", "sp", "--n", "2", "--l", "2", "--order", "2")
    assert code == 0
    assert json.loads(out)["certificate"]["lowMinor[2;1,2]"] == {"Q[1][2]": "1"}


def test_invariance_and_minimality_cli(capsys):
    code, out, _ = run_cli(
        capsys, "check-invariance", "--group", "o", "--n", "3", "--l", "2", "--samples", "5"
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "minimality", "--group", "o", "--n", "2", "--l", "1")
    assert code == 1  # documented failure case reports exit code 1
    assert json.loads(out)["checks"][0]["witness"] == {"inessential": ["Q[1][1]"]}


def test_reports_byte_identical(capsys):
    argv = ["lemma4", "--group", "o", "--n", "4", "--samples", "40", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_full_suite_filtered(capsys):
    code, out, err = run_cli(
        capsys,
        "full-suite",
        "--groups",
        "sp",
        "--criteria",
        "2,8,14",
        "--seed",
        "1",
    )
    assert code == 0
    data = json.loads(out)
    names = [c["name"] for c in data["checks"]]
    assert names and all(("sp" in n) or n.startswith("sp-") for n in names)
    assert all(c["verdict"] == "pass" for c in data["checks"])
    assert "criterion" in err


def test_full_suite_cap_skips(capsys):
    code, out, _ = run_cli(
        capsys,
        "full-suite",
        "--groups",
        "sp",
        "--criteria",
        "3",
        "--cap",
        "10",
        "--seed",
        "1",
    )
    assert code == 0  # skipped entries are reported, not failed
    data = json.loads(out)
    assert any(c["verdict"] == "skipped (cap)" for c in data["checks"])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "zacep", "--n", "2", "--l", "2", "--m", "1", "--out", str(target)
    )
    assert code == 0
    assert json.loads(target.read_text())["verdict"] == "equal"


def test_text_format(capsys):
    code, out, _ = run_cli(
        capsys, "weights-table", "--group", "sp", "--n", "2", "--l", "2", "--format", "text"
    )
    assert code == 0
    assert "degree | weight" in out


def test_timings_flag_controls_schema(capsys):
    argv = ["full-suite", "--groups", "sp", "--criteria", "14", "--seed", "1"]
    _, plain, _ = run_cli(capsys, *argv)
    _, timed, _ = run_cli(capsys, *argv, "--timings")
    assert "timing_ms" not in plain
    assert "timing_ms" in timed


def test_monomial_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("COVARIANTS_MONOMIAL_CAP", "10")
    code, _, err = run_cli(
        capsys, "mchi-oracle", "--group", "sp", "--n", "2", "--l", "2", "--chi", "3"
    )
    assert code == 2
    assert "cap" in err


def test_relations_over_cap_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COVARIANTS_MONOMIAL_CAP", "1")
    code, out, err = run_cli(
        capsys, "relations", "--group", "gl", "--n", "2", "--l", "2", "--m", "1", "--degree", "3"
    )
    assert code == USAGE_ERROR
    assert err.startswith("error:") and "cap 1" in err
    assert "Traceback" not in err and not out


@pytest.mark.parametrize("via", ["env", "flag"])
def test_relation_checks_skip_over_cap(capsys, monkeypatch, via):
    argv = ["full-suite", "--groups", "gl", "--criteria", "12", "--seed", "1"]
    if via == "env":
        monkeypatch.setenv("COVARIANTS_MONOMIAL_CAP", "1")
    else:
        argv += ["--cap", "1"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert checks and all(c["verdict"] == "skipped (cap)" for c in checks)


@pytest.mark.parametrize("side, key", [("weight_table_of", "missing"), ("expected_weight_table", "extra")])
def test_weights_table_failure_has_witness(capsys, monkeypatch, side, key):
    # drop one pair from one side of criterion 2's comparison
    original = getattr(suite, side)
    dropped = sorted(suite.weight_table_of(suite.build_generators(Scenario("o", 4, 4))))[0]

    def without_dropped(s):
        pairs = original(s)
        return type(pairs)(p for p in pairs if p != dropped)

    monkeypatch.setattr(suite, side, without_dropped)
    code, out, _ = run_cli(capsys, "weights-table", "--group", "o", "--n", "4", "--l", "4")
    assert code == 1
    check = json.loads(out)["checks"][0]
    assert check["verdict"] == "fail"
    assert check["witness"][key] == [repr(dropped)]
    assert not check["witness"]["extra" if key == "missing" else "missing"]


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc

    return broken


@pytest.mark.parametrize("bilinear_broken", [False, True])
def test_full_suite_reports_check_errors(capsys, monkeypatch, bilinear_broken):
    monkeypatch.setattr(suite, "relation_space", _raise(RuntimeError("failed symbolic confirmation")))
    if bilinear_broken:
        monkeypatch.setattr(suite, "bilinear_relations", _raise(SeedDisagreement("ranks disagree")))
    code, out, err = run_cli(capsys, "full-suite", "--groups", "gl", "--criteria", "11,12", "--seed", "1")
    assert code == INTERNAL_ERROR
    assert "Traceback" not in err
    checks = json.loads(out)["checks"]
    crit_11 = [c for c in checks if c["criterion"] == 11]
    crit_12 = [c for c in checks if c["criterion"] == 12]
    assert len(crit_11) == 20 and len(crit_12) == 3
    assert all(
        c["verdict"] == "error" and c["witness"] == "RuntimeError: failed symbolic confirmation"
        for c in crit_12
    )
    if bilinear_broken:
        assert all(
            c["verdict"] == "error" and c["witness"] == "SeedDisagreement: ranks disagree" for c in crit_11
        )
        assert "criterion 11 (bilinear relations): FAIL (0/20 checks, 20 errors)" in err
    else:
        assert all(c["verdict"] == "pass" for c in crit_11)
        assert "criterion 11 (bilinear relations): PASS (20/20 checks)" in err
    assert "criterion 12 (relation generation bounds): FAIL (0/3 checks, 3 errors)" in err
