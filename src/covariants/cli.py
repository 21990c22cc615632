"""Batch command-line interface.

One command per invocation; the report goes to stdout (JSON by default,
``--format text`` for tables) and optionally to ``--out``.  Exit codes:
0 all checks passed, 1 at least one check failed (witnesses are in the
report), 2 usage or resource errors, 3 a ``full-suite`` check raised an
internal error (reported as its verdict ``error``).

Reports are byte-identical for identical configs; per-check timings are
only embedded when ``--timings`` is passed since they would break that.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .degrees import (
    generator_pairs_for,
    min_degree_formula,
    min_degree_generated,
    min_degree_invariant,
)
from .dimensions import CapExceeded, minimality_check
from .flags import flag_map
from .generators import build_generators, check_invariance, expected_weight_table, sp_high_minor_membership
from .polytopes import chamber_inclusion_check
from .scenario import Scenario
from .suite import CheckResult, SuiteConfig, full_suite, weight_table_check
from .syzygies import bilinear_relations, mixed_minor_relation, quadratic_relation_closure, relation_space

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


def _emit(args, report: dict, failed: bool) -> int:
    if args.format == "text":
        text = render_text(report)
    else:
        text = json.dumps(report, indent=2, sort_keys=False)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 1 if failed else 0


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
    return _emit(args, _report(args, gs.to_json()), failed=False)


def cmd_check_invariance(args) -> int:
    samples = args.samples if args.samples is not None else 100
    rep = check_invariance(build_generators(parse_scenario(args)), samples, args.seed)
    return _emit(args, _report(args, {"checks": [rep.to_json()]}), failed=not rep.passed)


def cmd_weights_table(args) -> int:
    s = parse_scenario(args)
    ok, witness = weight_table_check(s)
    payload = {
        "table": [[d, list(w)] for d, w in expected_weight_table(s)],
        "checks": [CheckResult("table matches generators", "pass" if ok else "fail", witness).to_json()],
    }
    return _emit(args, _report(args, payload), failed=not ok)


def cmd_nchi(args) -> int:
    s = parse_scenario(args)
    value = min_degree_formula(s, parse_chi(args.chi))
    return _emit(args, _report(args, {"minimal_degree": value}), failed=False)


def cmd_nchi_oracle(args) -> int:
    s = parse_scenario(args)
    value = min_degree_generated(generator_pairs_for(s), parse_chi(args.chi), cap=args.cap or 8)
    payload = {"minimal_degree": value if value is not None else "not found"}
    return _emit(args, _report(args, payload), failed=False)


def cmd_mchi_oracle(args) -> int:
    s = parse_scenario(args)
    value = min_degree_invariant(s, parse_chi(args.chi), cap=args.cap or 4)
    payload = {"minimal_degree": value if value is not None else "not found"}
    return _emit(args, _report(args, payload), failed=False)


def cmd_lemma3(args) -> int:
    s = parse_scenario(args)
    chi = parse_chi(args.chi)
    base = min_degree_formula(s, chi)
    checks = []
    ok = True
    for c in range(1, (args.cap or 4) + 1):
        scaled = min_degree_formula(s, tuple(c * k for k in chi))
        good = scaled == c * base
        ok = ok and good
        checks.append(
            {
                "name": f"degree({c} * chi) == {c} * degree(chi)",
                "verdict": "pass" if good else "fail",
            }
        )
    return _emit(args, _report(args, {"checks": checks}), failed=not ok)


def cmd_lemma4(args) -> int:
    samples = args.samples if args.samples is not None else 500
    rep = chamber_inclusion_check(parse_scenario(args), samples, args.seed)
    return _emit(args, _report(args, {"checks": [rep.to_json()]}), failed=not rep.passed)


def cmd_flag_map(args) -> int:
    s = parse_scenario(args)
    rows = [
        [Fraction(x) for x in row.split(",")] for row in args.matrix.split(";")
    ]
    fp = flag_map(rows, s)
    return _emit(args, _report(args, fp.to_json()), failed=False)


def cmd_bilinear(args) -> int:
    rels = bilinear_relations(parse_scenario(args), args.i, args.j)
    payload = {
        "checks": [
            {
                "name": f"columns {r.cols}",
                "verdict": "pass",
                "witness": r.labels(),
            }
            for r in rels
        ]
    }
    return _emit(args, _report(args, payload), failed=False)


def cmd_zacep(args) -> int:
    equal, _, _ = mixed_minor_relation(args.n, args.l, args.m)
    return _emit(args, _report(args, {"verdict": "equal" if equal else "unequal"}), failed=not equal)


def cmd_relations(args) -> int:
    gs = build_generators(parse_scenario(args))
    rep = relation_space(gs, args.degree, seed=args.seed)
    return _emit(args, _report(args, rep.to_json()), failed=False)


def cmd_degree2_gen(args) -> int:
    gs = build_generators(parse_scenario(args))
    ok = quadratic_relation_closure(gs, args.degree, seed=args.seed)
    payload = {"checks": [{"name": f"degree-{args.degree} relations from quadratics", "verdict": "pass" if ok else "fail"}]}
    return _emit(args, _report(args, payload), failed=not ok)


def cmd_sp_minor(args) -> int:
    ok, cert = sp_high_minor_membership(parse_scenario(args), args.order)
    payload = {
        "checks": [{"name": f"order-{args.order} minors generated", "verdict": "pass" if ok else "fail"}],
        "certificate": cert,
    }
    return _emit(args, _report(args, payload), failed=not ok)


def cmd_minimality(args) -> int:
    rep = minimality_check(build_generators(parse_scenario(args)), seed=args.seed)
    return _emit(args, _report(args, {"checks": [rep.to_json()]}), failed=not rep.passed)


def cmd_full_suite(args) -> int:
    cfg = SuiteConfig(
        seed=args.seed,
        invariance_samples=args.samples if args.samples is not None else 100,
        monomial_cap=args.cap,
        groups=tuple(args.groups.split(",")) if args.groups else ("gl", "o", "sp"),
    )
    criteria = [int(c) for c in args.criteria.split(",")] if args.criteria else None
    report = full_suite(cfg, criteria)
    payload = report.to_json(timings=args.timings)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    code = _emit(args, payload, failed=not report.passed)
    return INTERNAL_ERROR if report.errored else code


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


if __name__ == "__main__":
    sys.exit(main())
