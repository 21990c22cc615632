import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from covariants import cli, dimensions, generators, suite
from covariants.cli import INTERNAL_ERROR, USAGE_ERROR, build_parser, main, parse_scenario
from covariants.dimensions import SeedDisagreement, invariant_weight_dims
from covariants.generators import Generator
from covariants.groups import nilradical_basis
from covariants.linalg import PRIME_B
from covariants.polynomial import Polynomial
from covariants.scenario import Scenario

from conftest import transposed_first, truncated_basis

ROOT = Path(__file__).resolve().parent.parent


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


def test_dual_copies_for_o_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "generate", "--group", "o", "--n", "3", "--l", "1", "--m", "2")
    assert code == USAGE_ERROR and not out
    assert "o and sp act on copies of V only (m must be 0)" in err


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


def test_mchi_oracle_on_rank_one_even_orthogonal(capsys):
    # o n=2: phi_1 = e_1, the weight of the degree-1 coordinate x[2,1]
    code, out, _ = run_cli(capsys, "mchi-oracle", "--group", "o", "--n", "2", "--l", "1", "--chi", "1")
    assert code == 0 and json.loads(out)["minimal_degree"] == 1


def test_degree_cap_zero_is_a_cap_not_the_default(capsys):
    chi3 = ("--group", "sp", "--n", "2", "--l", "2", "--chi", "3")
    code, out, _ = run_cli(capsys, "nchi-oracle", *chi3)
    assert code == 0 and json.loads(out)["minimal_degree"] == 3
    assert json.loads(out)["config"]["cap"] == 8
    for cap in ("0", "1"):
        code, out, _ = run_cli(capsys, "nchi-oracle", *chi3, "--cap", cap)
        assert code == 0 and json.loads(out)["minimal_degree"] == "not found"
    code, out, _ = run_cli(capsys, "mchi-oracle", "--group", "sp", "--n", "2", "--l", "2", "--chi", "2", "--cap", "0")
    assert code == 0 and json.loads(out)["minimal_degree"] == "not found"
    code, out, _ = run_cli(capsys, "lemma3", "--group", "sp", "--n", "4", "--chi", "1,2", "--cap", "1")
    assert code == 0 and json.loads(out)["config"]["cap"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["nchi-oracle", "--group", "sp", "--n", "2", "--chi", "3", "--cap", "-1"],
        ["mchi-oracle", "--group", "sp", "--n", "2", "--l", "2", "--chi", "2", "--cap", "-1"],
        ["lemma3", "--group", "sp", "--n", "4", "--chi", "1,2", "--cap", "0"],
        ["lemma3", "--group", "sp", "--n", "4", "--chi", "1,2", "--cap", "-3"],
    ],
)
def test_degree_cap_out_of_range_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == USAGE_ERROR and out == ""
    assert f"error: {argv[0]} needs --cap >= " in err


def test_each_command_takes_only_the_cap_and_samples_it_reads():
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    takes = {
        flag: {name for name, p in commands.items() if flag in p._option_string_actions}
        for flag in ("--cap", "--samples", "--seed")
    }
    assert takes == {
        "--cap": {"nchi-oracle", "mchi-oracle", "lemma3", "full-suite"},
        "--samples": {"check-invariance", "full-suite"},
        "--seed": {"check-invariance", "minimality", "full-suite"},
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["nchi", "--group", "o", "--n", "5", "--chi", "1,2", "--cap", "0"],
        ["generate", "--group", "gl", "--n", "2", "--l", "2", "--samples", "3"],
        ["generate", "--group", "gl", "--n", "2", "--l", "2", "--seed", "3"],
        ["lemma4", "--group", "gl", "--n", "2", "--samples", "20"],  # criterion 8 samples no point
        ["lemma4", "--group", "gl", "--n", "2", "--seed", "3"],
    ],
)
def test_a_flag_the_command_does_not_read_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE_ERROR
    assert "unrecognized arguments" in capsys.readouterr().err


def test_zacep_verdict(capsys):
    code, out, _ = run_cli(capsys, "zacep", "--n", "3", "--l", "2", "--m", "2")
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"


def test_zacep_verdict_on_the_largest_grid_point(capsys):
    # n = l = m = 4: the right side is the determinant of the 4 x 4 matrix C
    code, out, _ = run_cli(capsys, "zacep", "--n", "4", "--l", "4", "--m", "4")
    assert code == 0
    assert json.loads(out)["verdict"] == "equal"


def test_lemma3_and_lemma4(capsys):
    code, out, _ = run_cli(capsys, "lemma3", "--group", "sp", "--n", "4", "--chi", "1,2")
    assert code == 0
    code, out, _ = run_cli(capsys, "lemma4", "--group", "gl", "--n", "2")
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
    code, out, err = run_cli(capsys, "minimality", "--group", "o", "--n", "2", "--l", "1")
    # U is trivial at o n=2: minimality_check's documented failure is not reported as a verdict
    assert code == USAGE_ERROR and not out and "U is trivial" in err
    code, out, _ = run_cli(capsys, "minimality", "--group", "o", "--n", "3", "--l", "2")
    assert code == 0 and json.loads(out)["checks"][0]["verdict"] == "pass"


@pytest.mark.parametrize(
    "argv", [("--group", "gl", "--n", "1", "--l", "1", "--m", "1"), ("--group", "o", "--n", "2", "--l", "2")]
)
def test_minimality_is_a_usage_error_where_u_is_trivial(capsys, argv):
    # the invariant ring is the whole polynomial ring there, minimally generated by the
    # coordinates, so the C, Q and order-2 minors of the recipe system are inessential
    code, out, err = run_cli(capsys, "minimality", *argv)
    assert code == USAGE_ERROR and not out
    group, n = argv[1], argv[3]
    assert err == f"error: U is trivial for {group} n={n}: every polynomial is invariant, " \
        "so minimality of the generator system is not checked there\n"


def test_reports_byte_identical(capsys):
    argv = ["check-invariance", "--group", "o", "--n", "4", "--l", "2", "--samples", "40", "--seed", "9"]
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


def test_full_suite_config_block_is_pinned(capsys, monkeypatch):
    # tests/golden/ holds only the checks; this pins the report's config block,
    # key order included, as full-suite --seed 1 prints it
    monkeypatch.delenv(dimensions.CAP_ENV_VAR, raising=False)
    expected = {
        "seed": 1,
        "invariance_samples": 100,
        "tmax": 4,
        "degree_cap": 4,
        "monomial_cap": 20000,
        "groups": ["gl", "o", "sp"],
    }
    assert list(suite.SuiteConfig(seed=1).to_json().items()) == list(expected.items())
    code, out, _ = run_cli(capsys, "full-suite", "--seed", "1", "--criteria", "2")
    assert code == 0 and list(json.loads(out)["config"].items()) == list(expected.items())


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
    skipped = [c for c in data["checks"] if c["verdict"] == "skipped (cap)"]
    assert skipped and all(c["witness"].endswith("(cap 10)") for c in skipped)


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
        (8, ["lemma4", "--group", "gl", "--n", "2"]),
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
    # every rank mod PRIME_B off by one, as a broken second prime would give
    rank_mod_p = dimensions.rank_mod_p

    def skewed(stack, primes):
        return [r + (p == PRIME_B) for r, p in zip(rank_mod_p(stack, primes), primes)]

    monkeypatch.setattr(dimensions, "rank_mod_p", skewed)
    code, out, err = run_cli(capsys, "minimality", "--group", "o", "--n", "4", "--l", "3")
    assert code == INTERNAL_ERROR
    assert "Traceback" not in err
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "minimality o n=4 l=3 m=0"
    assert check["verdict"] == "error" and check["witness"].startswith("SeedDisagreement: ")
    # every ranked block disagrees; the first is the degree-3 block of weight (1, 0), whose
    # 19 rows have 15 distinct leading monomials, while every earlier block is settled by them
    assert "degree-3 block of weight (1, 0) " in check["witness"]


def test_minimality_settled_by_leading_monomials_ranks_nothing(capsys, monkeypatch):
    calls = []
    rank_mod_p = dimensions.rank_mod_p
    monkeypatch.setattr(dimensions, "rank_mod_p", lambda stack, ps: calls.append(stack.shape) or rank_mod_p(stack, ps))
    code, out, _ = run_cli(capsys, "minimality", "--group", "o", "--n", "3", "--l", "1")
    assert code == 0 and json.loads(out)["checks"][0]["verdict"] == "pass"
    assert calls == []


def test_module_entry_point_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "covariants", "full-suite", "--groups", "sp", "--criteria", "7"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert {c["criterion"] for c in json.loads(proc.stdout)["checks"]} == {7}


def test_closed_stdout_is_a_quiet_usage_exit():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "covariants", "full-suite", "--groups", "sp", "--criteria", "7"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before the report is written, as `| head` does
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=300) == USAGE_ERROR, err
    assert "BrokenPipe" not in err and "Traceback" not in err


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
        ["full-suite", "--criteria", "15"],  # not a criterion
        ["full-suite", "--criteria", "0"],
        ["full-suite", "--criteria", "2,15"],
        ["full-suite", "--groups", "xyz"],  # not a group
        ["full-suite", "--groups", "gl,foo"],
        ["check-invariance", "--group", "gl", "--n", "2", "--l", "1", "--samples", "-1"],
        ["lemma4", "--group", "sp", "--n", "3"],  # sp needs an even n
        ["full-suite", "--groups", "sp", "--criteria", "1", "--samples", "-1"],
        ["flag-map", "--group", "gl", "--n", "2", "--l", "2", "--matrix", "1/0,1;1,1"],
        ["full-suite", "--criteria", "2,2"],  # a repeated item
        ["full-suite", "--groups", "gl,sp,gl"],
        ["full-suite", "--groups", "gl", "--criteria", "3", "--cap", "-1"],  # would skip every capped check
        ["generate", "--group", "o", "--n", "1", "--l", "1"],  # O(1) has a rank-0 torus
        ["weights-table", "--group", "o", "--n", "1", "--l", "1"],
        ["lemma4", "--group", "o", "--n", "1"],
    ],
)
def test_inputs_a_check_cannot_take_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == USAGE_ERROR
    assert err.startswith("error:") and not out


def test_full_suite_cap_0_is_a_cap(capsys):
    code, out, _ = run_cli(capsys, "full-suite", "--groups", "sp", "--criteria", "3", "--cap", "0")
    checks = json.loads(out)["checks"]
    assert code == 0 and checks and all(c["verdict"] == "skipped (cap)" for c in checks)


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


# -- injected faults: criteria 1, 3, 4 and 8 fail through full-suite ----------------


def _non_invariant(gs):
    """The first generator replaced by the sum of all variables."""
    nv = gs.scenario.nvars
    total = sum((Polynomial.variable(nv, i) for i in range(nv)), Polynomial.zero(nv))
    return dataclasses.replace(gs, gens=(dataclasses.replace(gs.gens[0], poly=total),) + gs.gens[1:])


def _dropped(gs):
    return dataclasses.replace(gs, gens=gs.gens[:-1])


def _with_product(gs):
    g1, g2 = gs.gens[0], gs.gens[-1]
    extra = Generator("extra", g1.poly * g2.poly, g1.degree + g2.degree, tuple(a + b for a, b in zip(g1.weight, g2.weight)))
    return dataclasses.replace(gs, gens=gs.gens + (extra,))


@pytest.mark.parametrize(
    "fault, num, witness_keys",
    [
        (_non_invariant, 1, {"lie", "samples"}),
        (_dropped, 3, {"weight", "generated", "invariant"}),
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
    if num == 3:
        for c in failed:
            # "generation sp n=4 l=3 m=0 t=2": the witness names a weight that falls short
            _, group, *fields = c["name"].split()
            n, l, m, t = (int(f.split("=")[1]) for f in fields)
            w = c["witness"]
            assert w["generated"] < w["invariant"] == invariant_weight_dims(Scenario(group, n, l, m), t)[tuple(w["weight"])]
    if num == 4:
        assert all(c["witness"] == {"inessential": ["extra"]} for c in failed)
    # the other criterion still runs and passes
    assert [c["verdict"] for c in checks if c["criterion"] == 6] == ["pass"] * 3
    assert "criterion  6 (degree linearity): PASS (3/3 checks)" in err


@pytest.mark.parametrize(
    "fault, groups, passing",
    [
        # the first basis element transposed below the diagonal.  For gl it
        # is E[2][1], which moves only rows 1 and 2: it misses the lower
        # minors of order < n - 1, the only generators where l <= n - 2 and
        # m = 0.  For o and sp it moves some generator of every system.
        (
            transposed_first,
            "gl,o,sp",
            ["invariance gl n=3 l=1 m=0", "invariance gl n=4 l=1 m=0", "invariance gl n=4 l=2 m=0"],
        ),
        # every element cut to its first entry: the gl basis has one entry
        # per element, so only o and sp change, and the cut elements no
        # longer preserve the form, so they move Q.  sp n=2 and sp with
        # l = 1 have no Q generator.
        (
            truncated_basis,
            "gl,o,sp",
            [f"invariance gl n={s.n} l={s.l} m={s.m}" for s in suite.invariance_grid(("gl",))]
            + [f"invariance sp n=2 l={l} m=0" for l in range(1, 5)]
            + ["invariance sp n=4 l=1 m=0"],
        ),
    ],
    ids=["below_diagonal", "truncated"],
)
def test_full_suite_reports_a_faulty_generic_element(capsys, monkeypatch, fault, groups, passing):
    # the Lie side checks the generic element sum_b t_b b of the nilradical,
    # one basis element b at a time; a fault in that element makes recipe
    # generators fail with `lie` witnesses that name only the faulted basis
    # elements, and no sample moves them, since they are invariant
    monkeypatch.setattr(generators, "nilradical_basis", fault)
    code, out, err = run_cli(capsys, "full-suite", "--groups", groups, "--criteria", "1", "--samples", "2", "--seed", "1")
    assert code == 1 and "Traceback" not in err
    checks = json.loads(out)["checks"]
    assert len(checks) == len(suite.invariance_grid(groups.split(",")))
    assert [c["name"] for c in checks if c["verdict"] == "pass"] == passing
    failed = [c for c in checks if c["verdict"] == "fail"]
    assert len(failed) == len(checks) - len(passing)
    for c in failed:
        _, group, *fields = c["name"].split()
        n, l, m = (int(f.split("=")[1]) for f in fields)
        s = Scenario(group, n, l, m)
        faulted = {k for k, (a, b) in enumerate(zip(fault(s), nilradical_basis(s))) if a != b}
        assert c["witness"]["lie"] and c["witness"]["samples"] == [], c["name"]
        assert {w["basis_index"] for w in c["witness"]["lie"]} <= faulted, c["name"]


def test_full_suite_reports_phi_vertices_off_the_cross_polytope(capsys, monkeypatch):
    # a fault of Phi's vertices: e_1 becomes 2 e_1, so Phi is no longer the
    # cross-polytope whose facets delta's facets are compared with
    from covariants import polytopes

    build = polytopes.build_polytopes

    def stretched(s):
        spec = build(s)
        return dataclasses.replace(spec, phi_vertices=((2,) + (0,) * (s.rank - 1),) + spec.phi_vertices[1:])

    monkeypatch.setattr(polytopes, "build_polytopes", stretched)
    code, out, err = run_cli(capsys, "full-suite", "--groups", "sp", "--criteria", "8,6", "--seed", "1")
    assert code == 1
    checks = json.loads(out)["checks"]
    crit_8 = [c for c in checks if c["criterion"] == 8]
    assert [c["name"] for c in crit_8] == ["polytope sp n=2", "polytope sp n=4"]
    assert [c["witness"]["phi_vertices_off_cross"] for c in crit_8] == [[["2"]], [["2", "0"]]]
    for c in crit_8:
        assert c["verdict"] == "fail"
        assert c["witness"]["delta_facets_outside"] == c["witness"]["delta_vertices_outside"] == []
    assert [c["verdict"] for c in checks if c["criterion"] == 6] == ["pass"] * 3
    assert "criterion  6 (degree linearity): PASS (3/3 checks)" in err


def test_full_suite_reports_an_indecomposable_flag_component(capsys, monkeypatch):
    # replace every wedge^2 k^4 component by e1^e2 + e3^e4 on its way to the
    # incidence test; only the l=4 checks see it, and they name component 2
    from covariants.flags import FlagPoint, incidence_holds

    def tampered(f):
        if f.l == 4:
            f = FlagPoint(4, (f.components[0], (1, 0, 0, 0, 0, 1)) + f.components[2:])
        return incidence_holds(f)

    monkeypatch.setattr(suite, "incidence_holds", tampered)
    code, out, err = run_cli(capsys, "full-suite", "--groups", "gl", "--criteria", "9", "--seed", "1")
    assert code == 1
    verdicts = {c["name"]: (c["verdict"], c.get("witness")) for c in json.loads(out)["checks"]}
    for n in (2, 3, 4):
        assert verdicts.pop(f"flag-quotient n={n} l=4") == (
            "fail", {"case": "indecomposable", "k": 2}
        )
    assert all(v == ("pass", None) for v in verdicts.values()) and len(verdicts) == 6
    assert "criterion  9 (flag quotient map): FAIL (6/9 checks)" in err


def test_full_suite_reports_a_flag_that_is_not_nested(capsys, monkeypatch):
    # replace the first two components of every l=3 point by e1 and e2^e3 on
    # their way to the incidence test: both decomposable, ann(e1) not inside
    # ann(e2^e3), so the l=3 checks fail with case "incidence"
    from covariants.flags import FlagPoint, incidence_holds

    def tampered(f):
        if f.l == 3:
            f = FlagPoint(3, ((1, 0, 0), (0, 0, 1)) + f.components[2:])
        return incidence_holds(f)

    monkeypatch.setattr(suite, "incidence_holds", tampered)
    code, out, err = run_cli(capsys, "full-suite", "--groups", "gl", "--criteria", "9", "--seed", "1")
    assert code == 1
    verdicts = {c["name"]: (c["verdict"], c.get("witness")) for c in json.loads(out)["checks"]}
    for n in (2, 3, 4):
        assert verdicts.pop(f"flag-quotient n={n} l=3") == ("fail", {"case": "incidence"})
    assert all(v == ("pass", None) for v in verdicts.values()) and len(verdicts) == 6
    assert "criterion  9 (flag quotient map): FAIL (6/9 checks)" in err


def _criterion_9_with_6(capsys):
    code, out, err = run_cli(capsys, "full-suite", "--groups", "gl", "--criteria", "9,6", "--seed", "1")
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [c["verdict"] for c in checks if c["criterion"] == 6] == ["pass"] * 3
    assert "criterion  6 (degree linearity): PASS (3/3 checks)" in err
    return {c["name"]: (c["verdict"], c.get("witness")) for c in checks if c["criterion"] == 9}


def test_full_suite_reports_a_flag_coordinate_off_the_wedge(capsys, monkeypatch):
    from covariants.flags import FlagPoint

    flag_map = suite.flag_map

    def shifted(rows, s):
        f = flag_map(rows, s)
        first = (f.components[0][0] + 1,) + f.components[0][1:]
        return FlagPoint(f.l, (first,) + f.components[1:])

    monkeypatch.setattr(suite, "flag_map", shifted)
    verdicts = _criterion_9_with_6(capsys)
    assert len(verdicts) == 9
    assert all(v == ("fail", {"case": "wedge-mismatch"}) for v in verdicts.values())


def test_full_suite_reports_a_flag_coordinate_that_is_not_its_minor(capsys, monkeypatch):
    # shift the minor on all n rows: only the checks with n <= l use it, at k = n
    minor = suite.minor
    monkeypatch.setattr(suite, "minor", lambda mat, rows, cols: minor(mat, rows, cols) + int(rows[0] == 0))
    verdicts = _criterion_9_with_6(capsys)
    for n in (2, 3, 4):
        for l in (2, 3, 4):
            expected = ("fail", {"case": "minor-mismatch", "k": n}) if n <= l else ("pass", None)
            assert verdicts.pop(f"flag-quotient n={n} l={l}") == expected
    assert not verdicts


def test_full_suite_reports_a_wedge_action_that_breaks_equivariance(capsys, monkeypatch):
    # shift the action on the top wedge of k^l: only the checks with n >= l reach it, at k = l
    from covariants.linalg import Matrix

    action = suite.wedge_action_matrix
    monkeypatch.setattr(
        suite, "wedge_action_matrix",
        lambda g, k: action(g, k) + Matrix.identity(1) if k == g.n else action(g, k),
    )
    verdicts = _criterion_9_with_6(capsys)
    for n in (2, 3, 4):
        for l in (2, 3, 4):
            verdict, witness = verdicts.pop(f"flag-quotient n={n} l={l}")
            if n >= l:
                assert (verdict, witness) == ("fail", {"case": "equivariance", "k": l})
            else:
                assert (verdict, witness) == ("pass", None)
    assert not verdicts


def test_full_suite_reports_the_facets_of_a_shrunken_delta(capsys, monkeypatch):
    # drop delta's vertex e_1 for gl n=3; the hull stays full-dimensional, so
    # the facet test runs and must name the facets that cut e_1 off
    from covariants import polytopes

    build = polytopes.build_polytopes

    def shrunken(s):
        spec = build(s)
        if (s.group, s.n) != ("gl", 3):
            return spec
        return dataclasses.replace(spec, delta_vertices=tuple(v for v in spec.delta_vertices if v != (1, 0, 0)))

    monkeypatch.setattr(polytopes, "build_polytopes", shrunken)
    code, out, err = run_cli(capsys, "full-suite", "--groups", "gl", "--criteria", "8,6", "--seed", "1")
    assert code == 1
    checks = json.loads(out)["checks"]
    crit_8 = {c["name"]: c for c in checks if c["criterion"] == 8}
    assert [c["verdict"] for c in crit_8.values()] == ["pass", "fail", "pass"]
    assert crit_8["polytope gl n=3"]["witness"] == {
        "phi_vertices_off_cross": [],
        "delta_facets_outside": [[-5, 3, -1, 1], [-3, 1, 1, 1]],
        "delta_vertices_outside": [],
    }
    # e_1, a point of Phi ∩ chamber, violates both
    assert all(row[0] + row[3] < 0 for row in crit_8["polytope gl n=3"]["witness"]["delta_facets_outside"])
    assert [c["verdict"] for c in checks if c["criterion"] == 6] == ["pass"] * 3


def test_full_suite_reports_a_flat_delta_as_an_error(capsys, monkeypatch):
    from covariants import polytopes

    build = polytopes.build_polytopes
    monkeypatch.setattr(
        polytopes, "build_polytopes",
        lambda s: dataclasses.replace(build(s), delta_vertices=((0,) * s.rank, (1,) + (0,) * (s.rank - 1))),
    )
    code, out, _ = run_cli(capsys, "full-suite", "--groups", "sp", "--criteria", "8", "--seed", "1")
    assert code == 3
    crit_8 = json.loads(out)["checks"]
    assert [c["verdict"] for c in crit_8] == ["pass", "error"]  # sp n=2 has rank 1
    assert crit_8[1]["witness"] == "ValueError: hull of 2 points has affine rank 1, expected 2"


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

    lower_minors = syzygies.lower_minors

    def shifted(mat, p):
        table = lower_minors(mat, p)
        table[1][(0,)] = table[1][(0,)] + 1
        return table

    monkeypatch.setattr(syzygies, "lower_minors", shifted)


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


# -- injected faults: criteria 5, 6, 7, 10, 12 and 13 fail through full-suite -------


def _run_with_criterion_2(capsys, num):
    """``full-suite --groups gl --criteria num,2``: exit 1, criterion 2 still
    passing; returns criterion num's checks by name."""
    code, out, err = run_cli(capsys, "full-suite", "--groups", "gl", "--criteria", f"{num},2", "--seed", "1")
    assert code == 1
    checks = json.loads(out)["checks"]
    crit_2 = [c for c in checks if c["criterion"] == 2]
    assert crit_2 and all(c["verdict"] == "pass" for c in crit_2)
    assert f"criterion  2 (degree/weight tables): PASS ({len(crit_2)}/{len(crit_2)} checks)" in err
    return {c["name"]: c for c in checks if c["criterion"] == num}


def test_full_suite_reports_a_formula_that_is_not_linear(capsys, monkeypatch):
    # the formula is off by one at chi = e_1 only, so its multiples c = 2..4 break linearity
    formula = suite.min_degree_formula

    def bent(s, chi):
        return formula(s, chi) + (tuple(chi) == (1,) + (0,) * (len(chi) - 1))

    monkeypatch.setattr(suite, "min_degree_formula", bent)
    crit_6 = _run_with_criterion_2(capsys, 6)
    assert list(crit_6) == ["degree-linearity gl n=2", "degree-linearity gl n=3", "degree-linearity gl n=4"]
    for name, c in crit_6.items():
        e1 = [1] + [0] * (int(name[-1]) - 1)
        assert c["verdict"] == "fail"
        assert c["witness"] == [{"chi": e1, "c": k} for k in (2, 3, 4)]


def test_full_suite_reports_a_mixed_identity_with_a_moved_side(capsys, monkeypatch):
    # C[1][1] gains x[1,1]*a[1,1] in the generators mixed_minor_relation reads:
    # its left side (a left minor times a lower minor) stays, its right side moves
    from covariants import syzygies

    build = syzygies.build_generators

    def perturbed(s):
        gs = build(s)
        i = gs.find("C", (0, 0))
        moved = dataclasses.replace(gs.gens[i], poly=gs.gens[i].poly + s.x_poly(0, 0) * s.a_poly(0, 0))
        return dataclasses.replace(gs, gens=gs.gens[:i] + (moved,) + gs.gens[i + 1:])

    _, lhs, rhs = syzygies.mixed_minor_relation(3, 2, 2)
    monkeypatch.setattr(syzygies, "build_generators", perturbed)
    equal, moved_lhs, moved_rhs = syzygies.mixed_minor_relation(3, 2, 2)
    assert not equal and moved_lhs == lhs and moved_rhs != rhs
    crit_10 = _run_with_criterion_2(capsys, 10)
    assert len(crit_10) == 20
    assert all(set(c) == {"name", "verdict", "criterion", "witness"} and c["verdict"] == "fail" for c in crit_10.values())
    assert all(set(c["witness"]) == {"difference_terms", "first_term"} for c in crit_10.values())
    # the witness counts the terms of lhs - rhs and gives the least by exponent tuple
    diff = moved_lhs - moved_rhs
    exps, coeff = min(diff.terms.items())
    assert crit_10["mixed-identity n=3 l=2 m=2"]["witness"] == {
        "difference_terms": len(diff.terms),
        "first_term": {"coeff": str(coeff), "exps": list(exps)},
    }


def test_full_suite_reports_a_quadratic_closure_that_misses_relations(capsys, monkeypatch):
    # with no product relations, exactly the checks with degree-d relations fail
    from covariants import syzygies
    from covariants.generators import build_generators

    expected, dims = {}, {}
    for n in (1, 2, 3):
        for l in (1, 2, 3):
            gs = build_generators(Scenario("gl", n, l, 0))
            for d in (3, 4):
                name = f"quadratic-closure gl n={n} l={l} d={d}"
                dims[name] = syzygies.relation_space(gs, d).relation_dim
                expected[name] = "fail" if dims[name] > 0 else "pass"
    assert list(expected.values()).count("fail") == 4  # n = 2, 3 with l = 3
    monkeypatch.setattr(syzygies, "product_relations", lambda gs, reports, d: [])
    crit_13 = _run_with_criterion_2(capsys, 13)
    assert {name: c["verdict"] for name, c in crit_13.items()} == expected
    # a failure gives the relation dim against the empty span's rank; a pass no witness
    assert {name: c.get("witness") for name, c in crit_13.items()} == {
        name: {"relation_dim": dims[name], "span_rank": 0} if verdict == "fail" else None
        for name, verdict in expected.items()
    }


def test_full_suite_reports_a_presentation_oracle_off_by_one(capsys, monkeypatch):
    # the gl presentation oracle is off by one at chi = e_1 only
    oracle = suite.gl_presentation_oracle

    def bent(n, chi):
        degree, count = oracle(n, chi)
        return degree + (tuple(chi) == (1,) + (0,) * (n - 1)), count

    monkeypatch.setattr(suite, "gl_presentation_oracle", bent)
    crit_5 = _run_with_criterion_2(capsys, 5)
    assert list(crit_5) == ["degree-formula gl n=2", "degree-formula gl n=3", "degree-formula gl n=4"]
    for name, c in crit_5.items():
        e1 = [1] + [0] * (int(name[-1]) - 1)
        assert c["verdict"] == "fail"
        assert c["witness"] == [{"chi": e1, "formula": 1, "oracle": 2}]


def test_full_suite_reports_an_ambient_weight_off_the_formula(capsys, monkeypatch):
    # integral_phi shifts the one weight whose chi is e_1 to 2 e_1, whose formula degree is 2
    phi = suite.integral_phi

    def shifted(s, w):
        chi = phi(s, w)
        return (2,) + chi[1:] if chi == (1,) + (0,) * (len(chi) - 1) else chi

    monkeypatch.setattr(suite, "integral_phi", shifted)
    crit_7 = _run_with_criterion_2(capsys, 7)
    assert list(crit_7) == ["ambient-degree gl n=2 l=2 m=2", "ambient-degree gl n=3 l=3 m=3"]
    for name, c in crit_7.items():
        two_e1 = [2] + [0] * (int(name.split()[2][2:]) - 1)
        assert c["verdict"] == "fail"
        assert c["witness"] == [{"chi": two_e1, "ambient": 1, "formula": 2}]


def test_full_suite_reports_a_mixed_relation_inside_the_product_span(capsys, monkeypatch):
    # the product span also carries every degree-d relation, the mixed one among them
    span = suite.product_span

    def leaky(gs, d, degrees, cap=None, factors=None):
        return span(gs, d, degrees, cap, factors) + suite.relation_space(gs, d, cap=cap).basis

    monkeypatch.setattr(suite, "product_span", leaky)
    crit_12 = _run_with_criterion_2(capsys, 12)
    independent = crit_12.pop("relations independent when l+m<=n (n=4 l=2 m=2)")
    assert independent["verdict"] == "pass"
    assert list(crit_12) == ["mixed relation is new (n=2 l=2 m=1)", "mixed relation is new (n=3 l=2 m=2)"]
    for c in crit_12.values():
        r = c["witness"]["span_rank"]
        assert c["verdict"] == "fail" and r > 0
        assert c["witness"] == {"span_rank": r, "with_mixed_relation": r}


def test_zero_samples_is_allowed(capsys):
    for argv in (
        ["check-invariance", "--group", "gl", "--n", "2", "--l", "1"],
        ["full-suite", "--groups", "sp", "--criteria", "1"],
    ):
        code, out, _ = run_cli(capsys, *argv, "--samples", "0")
        assert code == 0 and json.loads(out)["checks"][0]["verdict"] == "pass"
