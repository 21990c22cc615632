"""Batch command-line interface.

One command per invocation; the report goes to stdout (JSON by default,
``--format text`` for tables) and optionally to ``--out``.  A command that
prints a verdict runs the suite's check for that claim through
``suite._timed``, under its ``full-suite`` name, as one ``checks`` entry;
``bilinear`` prints its relations, or criterion 11's failed check when an
expansion does not vanish.
Exit codes: 0 all checks passed, 1 a check failed (witnesses are in the
report), 2 usage or resource errors (also a single check skipped by the
cap; ``full-suite`` reports skipped checks and exits 0), 3 an internal
error: a check that raised has the verdict ``error``, and a data command
that raises prints ``error: <Type>: <message>`` instead of a traceback.

Reports are byte-identical for identical configs; per-check timings are
only embedded when ``--timings`` is passed since they would break that.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__, suite
from .degrees import (
    generator_pairs_for,
    min_degree_formula,
    min_degree_generated,
    min_degree_invariant,
)
from .dimensions import CapExceeded
from .flags import flag_map
from .generators import build_generators, expected_weight_table
from .scenario import Scenario
from .syzygies import ExpansionDoesNotVanish, bilinear_relations, relation_space

CHECK_FAILED = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3


def parse_scenario(args) -> Scenario:
    if args.group is None or args.n is None:
        raise ValueError("--group and --n are required")
    group = args.group.lower()
    m = getattr(args, "m", 0) or 0
    if group in ("o", "sp") and m:
        raise ValueError(f"{group} takes no copies of the dual space (drop --m)")
    if group == "sp" and args.n % 2:
        raise ValueError("sp requires even n")
    return Scenario(group, args.n, getattr(args, "l", 0) or 0, m if group == "gl" else 0)


def parse_chi(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--chi wants comma-separated integers, got {text!r}") from exc


def _report(args, payload: dict) -> dict:
    return {"tool_version": __version__, "config": vars_config(args), **payload}


def vars_config(args) -> dict:
    keys = ("command", "group", "n", "l", "m", "chi", "seed", "samples", "degree", "cap", "order", "i", "j", "matrix")
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def _emit(args, report: dict, code: int = 0) -> int:
    if args.format == "text":
        text = render_text(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=False)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return code


def exit_code(results) -> int:
    """3 if any check errored, 1 if any check failed, else 0."""
    verdicts = {r.verdict for r in results}
    if "error" in verdicts:
        return INTERNAL_ERROR
    return CHECK_FAILED if "fail" in verdicts else 0


def _run_check(args, name: str, check, payload=None, pass_witness: bool = True) -> int:
    """Run one suite check through ``_timed`` and report it as the one entry
    of ``checks``, after the keys of ``payload(result)`` if the check reached
    a verdict; ``pass_witness=False`` leaves out the witness of a pass, which
    the payload then carries.  A check skipped by the cap exits 2; else
    ``exit_code``."""
    result = suite._timed(name, check)
    extra = payload(result) if payload and result.verdict in ("pass", "fail") else {}
    entry = result.to_json()
    if result.verdict == "pass" and not pass_witness:
        entry.pop("witness", None)
    report = _report(args, {**extra, "checks": [entry]})
    return _emit(args, report, USAGE_ERROR if result.verdict == "skipped (cap)" else exit_code([result]))


def render_text(report: dict) -> str:
    lines = [f"covariants {report.get('tool_version', '')}".rstrip()]
    for k, v in report.items():
        if k in ("tool_version",):
            continue
        if k == "checks":
            lines.append("checks:")
            for c in v:
                status = c["verdict"].upper()
                lines.append(f"  [{status}] {c.get('name', '')}")
                if c.get("witness") is not None:
                    lines.append(f"        witness: {json.dumps(c['witness'])}")
        elif k == "table":
            lines.append("degree | weight (phi-coordinates)")
            for deg, w in v:
                lines.append(f"{deg:6d} | {w}")
        else:
            lines.append(f"{k}: {json.dumps(v, default=str)}")
    return "\n".join(lines)


def cmd_generate(args) -> int:
    gs = build_generators(parse_scenario(args))
    return _emit(args, _report(args, gs.to_json()))


def cmd_check_invariance(args) -> int:
    s = parse_scenario(args)
    samples = args.samples if args.samples is not None else 100
    return _run_check(args, suite.scenario_name("invariance", s), lambda: suite.invariance_check(s, samples, args.seed))


def cmd_weights_table(args) -> int:
    s = parse_scenario(args)
    table = [[d, list(w)] for d, w in expected_weight_table(s)]
    return _run_check(
        args, suite.scenario_name("weight-table", s), lambda: suite.weight_table_check(s), lambda _: {"table": table}
    )


def cmd_nchi(args) -> int:
    s = parse_scenario(args)
    value = min_degree_formula(s, parse_chi(args.chi))
    return _emit(args, _report(args, {"minimal_degree": value}))


def cmd_nchi_oracle(args) -> int:
    s = parse_scenario(args)
    value = min_degree_generated(generator_pairs_for(s), parse_chi(args.chi), cap=args.cap or 8)
    payload = {"minimal_degree": value if value is not None else "not found"}
    return _emit(args, _report(args, payload))


def cmd_mchi_oracle(args) -> int:
    s = parse_scenario(args)
    value = min_degree_invariant(s, parse_chi(args.chi), cap=args.cap or 4)
    payload = {"minimal_degree": value if value is not None else "not found"}
    return _emit(args, _report(args, payload))


def cmd_lemma3(args) -> int:
    s = parse_scenario(args)
    chi = parse_chi(args.chi)
    min_degree_formula(s, chi)  # a weight the formula cannot take is a usage error
    return _run_check(args, f"degree-linearity {s.group} n={s.n}", lambda: suite.linearity_check(s, [chi], args.cap or 4))


def cmd_lemma4(args) -> int:
    s = parse_scenario(args)
    samples = args.samples if args.samples is not None else 500
    return _run_check(args, f"polytope {s.group} n={s.n}", lambda: suite.polytope_check(s, samples, args.seed))


def cmd_flag_map(args) -> int:
    s = parse_scenario(args)
    rows = [
        [Fraction(x) for x in row.split(",")] for row in args.matrix.split(";")
    ]
    fp = flag_map(rows, s)
    return _emit(args, _report(args, fp.to_json()))


def cmd_bilinear(args) -> int:
    s = parse_scenario(args)
    try:
        rels = bilinear_relations(s, args.i, args.j)
    except ExpansionDoesNotVanish:  # report it as criterion 11's failed check
        return _run_check(
            args, f"bilinear n={s.n} l={s.l} i={args.i} j={args.j}", lambda: suite.bilinear_check(s, args.i, args.j)
        )
    relations = [{"columns": list(r.cols), "terms": r.labels()} for r in rels]
    return _emit(args, _report(args, {"relations": relations}))


def cmd_zacep(args) -> int:
    n, l, m = args.n, args.l, args.m
    if not (1 <= l <= n and 1 <= m <= n < l + m):  # inputs the check cannot take are usage errors
        raise ValueError("zacep needs 1 <= l, m <= n < l + m")
    return _run_check(
        args,
        f"mixed-identity n={n} l={l} m={m}",
        lambda: suite.mixed_identity_check(n, l, m),
        lambda r: {"verdict": "equal" if r.passed else "unequal"},
    )


def cmd_relations(args) -> int:
    gs = build_generators(parse_scenario(args))
    rep = relation_space(gs, args.degree, seed=args.seed)
    return _emit(args, _report(args, rep.to_json()))


def cmd_degree2_gen(args) -> int:
    s = parse_scenario(args)
    if args.degree < 3:
        raise ValueError("the closure question starts at degree 3")
    return _run_check(
        args,
        f"quadratic-closure {s.group} n={s.n} l={s.l} d={args.degree}",
        lambda: suite.quadratic_closure_check(build_generators(s), args.degree, args.seed, None),
    )


def cmd_sp_minor(args) -> int:
    s = parse_scenario(args)
    k = args.order
    if s.group != "sp" or not 1 <= k <= min(s.l, s.n):
        raise ValueError("sp-minor needs --group sp and 1 <= order <= min(l, n)")
    return _run_check(
        args, f"sp-high-minor n={s.n} l={s.l} k={k}", lambda: suite.sp_high_minor_membership(s, k),
        lambda r: {"certificate": r.witness},
        pass_witness=False,
    )


def cmd_minimality(args) -> int:
    s = parse_scenario(args)
    return _run_check(args, suite.scenario_name("minimality", s), lambda: suite.minimal_system_check(s, args.seed))


def cmd_full_suite(args) -> int:
    cfg = suite.SuiteConfig(
        seed=args.seed,
        invariance_samples=args.samples if args.samples is not None else 100,
        monomial_cap=args.cap,
        groups=tuple(args.groups.split(",")) if args.groups else ("gl", "o", "sp"),
    )
    criteria = [int(c) for c in args.criteria.split(",")] if args.criteria else None
    report = suite.full_suite(cfg, criteria)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    results = [r for rs in report.results.values() for r in rs]
    return _emit(args, report.to_json(timings=args.timings), exit_code(results))


def _add_scenario_args(p, need_l: bool = True, need_m: bool = True):
    p.add_argument("--group", choices=["gl", "o", "sp"], help="group kind")
    p.add_argument("--n", type=int, help="dimension of the defining space")
    if need_l:
        p.add_argument("--l", type=int, default=0, help="copies of V")
    if need_m:
        p.add_argument("--m", type=int, default=0, help="copies of the dual (gl only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covariants",
        description="Exact construction and verification of unipotent-invariant generator systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, aliases=(), **scen):
        p = sub.add_parser(name, aliases=list(aliases))
        _add_scenario_args(p, **scen)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--out", default=None, help="also write the report to this path")
        p.set_defaults(fn=fn)
        return p

    add("generate", cmd_generate, aliases=("gen",))
    add("check-invariance", cmd_check_invariance)
    add("weights-table", cmd_weights_table)
    for name, fn in (("nchi", cmd_nchi), ("nchi-oracle", cmd_nchi_oracle), ("mchi-oracle", cmd_mchi_oracle), ("lemma3", cmd_lemma3)):
        p = add(name, fn)
        p.add_argument("--chi", required=True, help="comma-separated phi-coordinates, e.g. 1,0,2")
        p.add_argument("--cap", type=int, default=None, help="degree cap for oracle searches")
    add("lemma4", cmd_lemma4)
    p = add("flag-map", cmd_flag_map)
    p.add_argument("--matrix", required=True, help="rows split by ';', entries by ',', fraction syntax allowed")
    p = add("bilinear", cmd_bilinear)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p = add("zacep", cmd_zacep, need_l=False, need_m=False)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    for name, fn in (("relations", cmd_relations), ("degree2-gen", cmd_degree2_gen)):
        p = add(name, fn)
        p.add_argument("--degree", "-t", type=int, required=True)
    p = add("sp-minor", cmd_sp_minor)
    p.add_argument("--order", "-k", type=int, required=True)
    add("minimality", cmd_minimality)
    p = add("full-suite", cmd_full_suite, need_l=False, need_m=False)
    p.add_argument("--groups", default=None, help="comma-separated subset of gl,o,sp")
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    p.add_argument("--cap", type=int, default=None, help="monomial cap override")
    p.add_argument("--timings", action="store_true", help="embed per-check timings (breaks byte-reproducibility)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # an internal error of a data command: a line, not a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
