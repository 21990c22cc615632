import dataclasses
import json

import pytest

from covariants import cli, dimensions, suite
from covariants.cli import INTERNAL_ERROR, USAGE_ERROR, build_parser, main, parse_scenario
from covariants.dimensions import SeedDisagreement
from covariants.generators import Generator
from covariants.linalg import PRIME_B
from covariants.polynomial import Polynomial
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


# -- one check path: a command's verdict is the suite's check under its name ------


@pytest.mark.parametrize(
    "num, argv",
    [
        (1, ["check-invariance", "--group", "o", "--n", "3", "--l", "2", "--samples", "5"]),
        (2, ["weights-table", "--group", "sp", "--n", "2", "--l", "2"]),
        (4, ["minimality", "--group", "sp", "--n", "2", "--l", "2"]),
        (6, ["lemma3", "--group", "sp", "--n", "4", "--chi", "1,2"]),
        (8, ["lemma4", "--group", "gl", "--n", "2", "--samples", "20"]),
        (10, ["zacep", "--n", "3", "--l", "2", "--m", "2"]),
        (13, ["degree2-gen", "--group", "gl", "--n", "2", "--l", "2", "--degree", "3"]),
        (14, ["sp-minor", "--group", "sp", "--n", "2", "--l", "2", "--order", "2"]),
    ],
)
def test_command_reports_the_suite_check(capsys, monkeypatch, num, argv):
    with monkeypatch.context() as m:  # the criterion's check names, without running its checks
        m.setattr(suite, "_timed", lambda name, fn: suite.CheckResult(name, "pass"))
        names = {r.name for r in suite.CRITERIA[num][1](suite.SuiteConfig())}
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    (check,) = json.loads(out)["checks"]
    assert check["name"] in names
    assert check["verdict"] == "pass" and set(check) <= {"name", "verdict", "witness"}


def test_seed_disagreement_is_an_error_verdict(capsys, monkeypatch):
    # one rank mod PRIME_B off by one, as a broken second prime would give
    rank_mod_p = dimensions.rank_mod_p

    def skewed(matrix, p):
        return rank_mod_p(matrix, p) + (p == PRIME_B)

    monkeypatch.setattr(dimensions, "rank_mod_p", skewed)
    code, out, err = run_cli(capsys, "minimality", "--group", "o", "--n", "3", "--l", "1")
    assert code == INTERNAL_ERROR
    assert "Traceback" not in err
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "minimality o n=3 l=1 m=0"
    assert check["verdict"] == "error" and check["witness"].startswith("SeedDisagreement: ")


def test_degree2_gen_over_cap_is_skipped(capsys, monkeypatch):
    monkeypatch.setenv("COVARIANTS_MONOMIAL_CAP", "1")
    code, out, _ = run_cli(capsys, "degree2-gen", "--group", "gl", "--n", "2", "--l", "2", "--degree", "3")
    assert code == USAGE_ERROR
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "quadratic-closure gl n=2 l=2 d=3"
    assert check["verdict"] == "skipped (cap)"


def test_data_command_error_is_a_line(capsys, monkeypatch):
    monkeypatch.setattr(cli, "relation_space", _raise(RuntimeError("failed symbolic confirmation")))
    code, out, err = run_cli(
        capsys, "relations", "--group", "gl", "--n", "2", "--l", "2", "--m", "1", "--degree", "3"
    )
    assert code == INTERNAL_ERROR
    assert err == "error: RuntimeError: failed symbolic confirmation\n" and not out


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma3", "--group", "o", "--n", "5", "--chi", "1,1"],  # breaks the parity constraint
        ["zacep", "--n", "3", "--l", "1", "--m", "1"],  # outside l + m > n
        ["degree2-gen", "--group", "gl", "--n", "2", "--l", "2", "--degree", "2"],
        ["sp-minor", "--group", "sp", "--n", "2", "--l", "2", "--order", "3"],
    ],
)
def test_inputs_a_check_cannot_take_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == USAGE_ERROR
    assert err.startswith("error:") and not out


def test_bilinear_prints_relations(capsys):
    code, out, _ = run_cli(capsys, "bilinear", "--group", "gl", "--n", "3", "--l", "3", "--i", "1", "--j", "1")
    assert code == 0
    data = json.loads(out)
    assert "checks" not in data
    assert [r["columns"] for r in data["relations"]] == [[1, 2], [1, 3], [2, 3]]
    assert data["relations"][0]["terms"] == [
        [1, "lowMinor[1;1]", "lowMinor[1;2]"],
        [-1, "lowMinor[1;2]", "lowMinor[1;1]"],
    ]


# -- injected faults: criteria 1, 3 and 4 fail through full-suite -------------------


def _non_invariant(gs):
    """The first generator replaced by the sum of all variables."""
    nv = gs.scenario.nvars
    total = sum((Polynomial.variable(nv, i) for i in range(nv)), Polynomial.zero(nv))
    return dataclasses.replace(gs, gens=(dataclasses.replace(gs.gens[0], poly=total),) + gs.gens[1:])


def _dropped(gs):
    return dataclasses.replace(gs, gens=gs.gens[:-1])


def _with_product(gs):
    g1, g2 = gs.gens[0], gs.gens[-1]
    extra = Generator("extra", g1.poly * g2.poly, g1.degree + g2.degree, g1.weight + g2.weight)
    return dataclasses.replace(gs, gens=gs.gens + (extra,))


@pytest.mark.parametrize(
    "fault, num, witness_keys",
    [
        (_non_invariant, 1, {"lie", "samples"}),
        (_dropped, 3, {"generated", "invariant"}),
        (_with_product, 4, {"inessential"}),
    ],
)
def test_full_suite_reports_injected_faults(capsys, monkeypatch, fault, num, witness_keys):
    build = suite.build_generators
    monkeypatch.setattr(suite, "build_generators", lambda s: fault(build(s)))
    code, out, err = run_cli(
        capsys, "full-suite", "--groups", "sp", "--criteria", f"{num},6", "--samples", "2", "--seed", "1"
    )
    assert code == 1
    checks = json.loads(out)["checks"]
    failed = [c for c in checks if c["verdict"] != "pass"]
    assert failed and all(c["criterion"] == num and c["verdict"] == "fail" for c in failed)
    assert all(set(c["witness"]) == witness_keys for c in failed)
    if num == 1:
        assert all(c["witness"]["lie"] for c in failed)
    if num == 4:
        assert all(c["witness"] == {"inessential": ["extra"]} for c in failed)
    # the other criterion still runs and passes
    assert [c["verdict"] for c in checks if c["criterion"] == 6] == ["pass"] * 3
    assert "criterion  6 (degree linearity): PASS (3/3 checks)" in err


# -- injected faults: criteria 2 and 11 fail through full-suite ---------------------


def test_full_suite_reports_a_dropped_weight_pair(capsys, monkeypatch):
    table_of = suite.weight_table_of
    monkeypatch.setattr(suite, "weight_table_of", lambda gs: (lambda t: t - {min(t)})(table_of(gs)))
    code, out, err = run_cli(capsys, "full-suite", "--groups", "sp", "--criteria", "2,6", "--seed", "1")
    assert code == 1
    checks = json.loads(out)["checks"]
    crit_2 = [c for c in checks if c["criterion"] == 2]
    assert crit_2 and all(c["verdict"] == "fail" for c in crit_2)
    assert all(c["witness"]["missing"] and c["witness"]["extra"] == [] for c in crit_2)
    assert [c["verdict"] for c in checks if c["criterion"] == 6] == ["pass"] * 3
    assert "criterion  6 (degree linearity): PASS (3/3 checks)" in err


def _perturbed_minor(monkeypatch):
    """The order-1 lower minor of column 1 shifted by 1, as bilinear_relations sees it."""
    from covariants import syzygies

    minor = syzygies.minor
    monkeypatch.setattr(
        syzygies, "minor", lambda mat, rows, cols: minor(mat, rows, cols) + int(tuple(cols) == (0,))
    )


def test_full_suite_reports_a_bilinear_expansion_that_does_not_vanish(capsys, monkeypatch):
    _perturbed_minor(monkeypatch)
    code, out, err = run_cli(capsys, "full-suite", "--groups", "gl", "--criteria", "11,6", "--seed", "1")
    assert code == 1
    checks = json.loads(out)["checks"]
    crit_11 = [c for c in checks if c["criterion"] == 11]
    failed = [c for c in crit_11 if c["verdict"] != "pass"]
    assert failed and len(failed) < len(crit_11)  # an expansion with i = j cancels the shift
    assert all(c["verdict"] == "fail" and set(c["witness"]) == {"columns"} for c in failed)
    assert all(c["witness"]["columns"][0] == 1 for c in failed)
    assert [c["verdict"] for c in checks if c["criterion"] == 6] == ["pass"] * 3
    assert "criterion  6 (degree linearity): PASS (3/3 checks)" in err


def test_bilinear_failure_exits_1_with_the_column_subset(capsys, monkeypatch):
    _perturbed_minor(monkeypatch)
    code, out, _ = run_cli(capsys, "bilinear", "--group", "gl", "--n", "3", "--l", "3", "--i", "1", "--j", "2")
    assert code == 1
    data = json.loads(out)
    assert "relations" not in data
    assert data["checks"] == [{"name": "bilinear n=3 l=3 i=1 j=2", "verdict": "fail", "witness": {"columns": [1, 2, 3]}}]


def test_sp_minor_prints_the_certificate_once(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "sp-minor", "--group", "sp", "--n", "4", "--l", "3", "--order", "3")
    assert code == 0
    data = json.loads(out)
    assert data["checks"] == [{"name": "sp-high-minor n=4 l=3 k=3", "verdict": "pass"}]
    assert data["certificate"]["lowMinor[3;1,2,3]"]
    # a failed check keeps its witness
    monkeypatch.setattr(suite, "sp_high_minor_membership", lambda s, k: (False, {"lowMinor[3;1,2,3]": None}))
    code, out, _ = run_cli(capsys, "sp-minor", "--group", "sp", "--n", "4", "--l", "3", "--order", "3")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["verdict"] == "fail" and check["witness"] == {"lowMinor[3;1,2,3]": None}
