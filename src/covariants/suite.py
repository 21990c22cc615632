"""The full verification suite: every checkable claim, on a fixed grid.

Each criterion function returns a list of CheckResult records; ``full_suite``
aggregates them.  A check that a CLI command also runs is a module-level
function returning (passed, witness), which both run through ``_timed``.
All randomness flows from one seed through named substreams, so identical
configs reproduce identical reports.

The generation criterion (number 3) compares, weight by weight, an
evaluation rank, which can only undercount the generated subalgebra's graded
dimension, with the exact kernel dimension of the invariant ring, which the
subalgebra sits inside.  Equality therefore pins both quantities exactly; a
strict gap at any weight fails loudly rather than passing silently.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from math import lcm

from .degrees import (
    generator_pairs_for,
    gl_presentation_oracle,
    min_degree_formula,
    min_degree_generated,
)
from .dimensions import (
    CapExceeded,
    degree_monomial_count,
    generated_dimension,
    invariant_weight_dims,
    minimality_check,
    monomial_cap,
)
from .flags import (
    IndecomposableComponent,
    flag_map,
    incidence_holds,
    wedge_action_matrix,
    wedge_basis,
)
from .generators import (
    build_generators,
    check_invariance,
    expected_weight_table,
    generator_monomials,
    sp_high_minor_membership,
    weight_table_of,
)
from .linalg import Matrix, minor, rank
from .polytopes import chamber_inclusion_check
from .rng import substream
from .scenario import Scenario
from .syzygies import (
    ExpansionDoesNotVanish,
    bilinear_relations,
    mixed_minor_relation,
    product_relations,
    quadratic_relation_closure,
    relation_space,
)
from .weights import in_weight_monoid, integral_phi


@dataclass
class CheckResult:
    name: str
    verdict: str  # "pass" | "fail" | "skipped (cap)" | "error"
    witness: object = None
    timing_ms: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict not in ("fail", "error")

    def to_json(self, timings: bool = False) -> dict:
        out = {"name": self.name, "verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = self.witness
        if timings:
            out["timing_ms"] = self.timing_ms
        return out


@dataclass
class SuiteConfig:
    seed: int = 1
    invariance_samples: int = 100
    polytope_samples: int = 500
    flag_samples: int = 200
    flag_group_samples: int = 20
    tmax: int = 4
    degree_cap: int = 4
    monomial_cap: int | None = None
    groups: tuple = ("gl", "o", "sp")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "invariance_samples": self.invariance_samples,
            "polytope_samples": self.polytope_samples,
            "flag_samples": self.flag_samples,
            "flag_group_samples": self.flag_group_samples,
            "tmax": self.tmax,
            "degree_cap": self.degree_cap,
            "monomial_cap": monomial_cap(self.monomial_cap),
            "groups": list(self.groups),
        }


def _timed(name: str, fn) -> CheckResult:
    """Run one check; a cap is reported as skipped and any other exception
    (a seed disagreement, a failed confirmation, a broken assertion) as the
    verdict ``error`` with the exception as witness, so the suite goes on."""
    t0 = time.monotonic()
    try:
        passed, witness = fn()
        verdict = "pass" if passed else "fail"
    except CapExceeded as exc:
        verdict, witness = "skipped (cap)", str(exc)
    except Exception as exc:
        verdict, witness = "error", f"{type(exc).__name__}: {exc}"
    return CheckResult(name, verdict, witness, int((time.monotonic() - t0) * 1000))


# -- grids ---------------------------------------------------------------------


def invariance_grid(groups) -> list[Scenario]:
    out = []
    if "gl" in groups:
        for n in (2, 3, 4):
            for l in range(5):
                for m in range(5):
                    if l or m:
                        out.append(Scenario("gl", n, l, m))
    if "o" in groups:
        for n in (3, 4, 5):
            for l in range(1, 6):
                out.append(Scenario("o", n, l))
    if "sp" in groups:
        for n in (2, 4):
            for l in range(1, 5):
                out.append(Scenario("sp", n, l))
    return out


def generation_grid(groups) -> list[Scenario]:
    out = []
    if "gl" in groups:
        for n in (2, 3):
            for l in range(4):
                for m in range(4):
                    if l or m:
                        out.append(Scenario("gl", n, l, m))
    if "o" in groups:
        for n in (3, 4):
            for l in range(1, 4):
                out.append(Scenario("o", n, l))
    if "sp" in groups:
        for n in (2, 4):
            for l in range(1, 4):
                out.append(Scenario("sp", n, l))
    return out


def table_grid(groups) -> list[Scenario]:
    return [
        s
        for s in invariance_grid(groups)
        if s.l >= s.n and (s.group != "gl" or s.m >= s.n)
    ]


def chi_grid(s: Scenario, bound: int = 3):
    """Dominant weights with coefficients up to the bound (monoid-valid)."""
    q = s.rank
    if s.group == "gl":
        for k in itertools.product(range(bound + 1), repeat=q - 1):
            for kn in range(-bound, bound + 1):
                yield k + (kn,)
    else:
        for k in itertools.product(range(bound + 1), repeat=q):
            if in_weight_monoid(s, k):
                yield k


def formula_scenarios(groups) -> list[Scenario]:
    out = []
    if "gl" in groups:
        out += [Scenario("gl", n, n, n) for n in (2, 3, 4)]
    if "o" in groups:
        out += [Scenario("o", n, n) for n in (3, 5, 7, 4, 6)]
    if "sp" in groups:
        out += [Scenario("sp", n, n) for n in (2, 4, 6)]
    return out


# -- criteria --------------------------------------------------------------------


def scenario_name(kind: str, s: Scenario) -> str:
    return f"{kind} {s.group} n={s.n} l={s.l} m={s.m}"


def invariance_check(s: Scenario, samples: int, seed: int) -> tuple[bool, dict | None]:
    """Nilradical annihilation and unipotent-sample fixedness of every generator."""
    rep = check_invariance(build_generators(s), samples, seed)
    return rep.passed, rep.witness()


def criterion_1_invariance(cfg: SuiteConfig) -> list[CheckResult]:
    return [
        _timed(scenario_name("invariance", s), lambda s=s: invariance_check(s, cfg.invariance_samples, cfg.seed))
        for s in invariance_grid(cfg.groups)
    ]


def weight_table_check(s: Scenario) -> tuple[bool, dict | None]:
    """The generators' distinct (degree, phi-weight) pairs against the
    expected table: (passed, witness of the missing and extra pairs)."""
    expected = set(expected_weight_table(s))
    got = weight_table_of(build_generators(s))
    return got == expected, None if got == expected else {
        "missing": sorted(map(repr, expected - got)),
        "extra": sorted(map(repr, got - expected)),
    }


def criterion_2_weight_tables(cfg: SuiteConfig) -> list[CheckResult]:
    return [
        _timed(scenario_name("weight-table", s), lambda s=s: weight_table_check(s))
        for s in table_grid(cfg.groups)
    ]


def criterion_3_generation(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    for s in generation_grid(cfg.groups):
        gs = build_generators(s)
        for t in range(cfg.tmax + 1):
            count = degree_monomial_count(s.nvars, t)
            if count > monomial_cap(cfg.monomial_cap):
                out.append(
                    CheckResult(
                        f"generation {s.group} n={s.n} l={s.l} m={s.m} t={t}",
                        "skipped (cap)",
                        f"{count} ambient monomials",
                    )
                )
                continue

            def run(s=s, gs=gs, t=t):
                gen = generated_dimension(gs, t, seed=cfg.seed, cap=cfg.monomial_cap)
                inv = invariant_weight_dims(s, t, cap=cfg.monomial_cap)
                if gen == inv:
                    return True, None
                w = min(w for w in gen.keys() | inv.keys() if gen.get(w) != inv.get(w))
                return False, {"weight": list(w), "generated": gen.get(w, 0), "invariant": inv.get(w, 0)}

            out.append(_timed(f"generation {s.group} n={s.n} l={s.l} m={s.m} t={t}", run))
    return out


def minimal_system_check(s: Scenario, seed: int) -> tuple[bool, dict | None]:
    """No generator lies in the algebra the others generate."""
    rep = minimality_check(build_generators(s), seed=seed)
    return rep.passed, None if rep.passed else {"inessential": rep.inessential()}


def criterion_4_minimality(cfg: SuiteConfig) -> list[CheckResult]:
    return [
        _timed(scenario_name("minimality", s), lambda s=s: minimal_system_check(s, cfg.seed))
        for s in invariance_grid(cfg.groups)
    ]


def criterion_5_degree_formulas(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    for s in formula_scenarios(cfg.groups):
        def run(s=s):
            mismatches = []
            if s.group == "gl":
                # the presentation weights must be the actual generator weights
                expected_pairs = {(d, w) for d, w in expected_weight_table(s) if any(w)}
                if set(generator_pairs_for(s)) != expected_pairs:
                    mismatches.append({"chi": None, "formula": "pairs", "oracle": "mismatch"})
                for chi in chi_grid(s):
                    f = min_degree_formula(s, chi)
                    oracle, count = gl_presentation_oracle(s.n, chi)
                    if f != oracle or count != 1:
                        mismatches.append({"chi": list(chi), "formula": f, "oracle": oracle})
            else:
                pairs = generator_pairs_for(s)
                cap = max(min_degree_formula(s, chi) for chi in chi_grid(s)) + 1
                for chi in chi_grid(s):
                    f = min_degree_formula(s, chi)
                    oracle = min_degree_generated(pairs, chi, cap=cap)
                    if f != oracle:
                        mismatches.append({"chi": list(chi), "formula": f, "oracle": oracle})
            return not mismatches, mismatches or None

        out.append(_timed(f"degree-formula {s.group} n={s.n}", run))
    return out


def linearity_check(s: Scenario, chis, cmax: int) -> tuple[bool, list | None]:
    """degree(c * chi) == c * degree(chi) for every chi and c = 1..cmax."""
    bad = []
    for chi in chis:
        base = min_degree_formula(s, chi)
        for c in range(1, cmax + 1):
            scaled = min_degree_formula(s, tuple(c * k for k in chi))
            if scaled != c * base:
                bad.append({"chi": list(chi), "c": c})
    return not bad, bad or None


def criterion_6_linearity(cfg: SuiteConfig) -> list[CheckResult]:
    return [
        _timed(f"degree-linearity {s.group} n={s.n}", lambda s=s: linearity_check(s, chi_grid(s), 4))
        for s in formula_scenarios(cfg.groups)
    ]


def criterion_7_ambient_degrees(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    scenarios = []
    if "gl" in cfg.groups:
        scenarios += [Scenario("gl", 2, 2, 2), Scenario("gl", 3, 3, 3)]
    if "o" in cfg.groups:
        scenarios.append(Scenario("o", 3, 3))
    if "sp" in cfg.groups:
        scenarios.append(Scenario("sp", 2, 2))
    for s in scenarios:
        def run(s=s):
            reached: dict[tuple, int] = {}
            for t in range(cfg.degree_cap + 1):
                for w, dim in invariant_weight_dims(s, t, cfg.monomial_cap).items():
                    if dim > 0 and w not in reached:
                        reached[w] = t
            mismatches = []
            for w, m_val in sorted(reached.items()):
                chi = integral_phi(s, w)
                n_val = min_degree_formula(s, chi)
                if n_val != m_val:
                    mismatches.append({"chi": list(chi), "ambient": m_val, "formula": n_val})
            return not mismatches, mismatches or None

        out.append(_timed(f"ambient-degree {s.group} n={s.n} l={s.l} m={s.m}", run))
    return out


def polytope_check(s: Scenario, samples: int, seed: int) -> tuple[bool, dict | None]:
    """delta = Phi intersect the chamber, on samples and on delta's vertices."""
    rep = chamber_inclusion_check(s, samples, seed)
    return rep.passed, rep.witness()


def criterion_8_polytopes(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    seen = set()
    for s in invariance_grid(cfg.groups):
        key = (s.group, s.n)
        if key in seen:
            continue  # the polytopes depend only on the group and n
        seen.add(key)
        out.append(_timed(f"polytope {s.group} n={s.n}", lambda s=s: polytope_check(s, cfg.polytope_samples, cfg.seed)))
    return out


def _independent_wedge(mat_rows, n: int, l: int) -> list[tuple]:
    """Wedges of the last rows computed without determinants (oracle)."""
    comps = []
    prev = {(): 1}
    for k in range(1, min(l, n) + 1):
        u = mat_rows[n - k]
        cur: dict[tuple, object] = {}
        for S, c in prev.items():
            if not c:
                continue
            for i in range(l):
                if i in S:
                    continue
                T = tuple(sorted(S + (i,)))
                sign = -1 if T.index(i) % 2 else 1
                cur[T] = cur.get(T, 0) + sign * u[i] * c
        prev = cur
        comps.append(tuple(cur.get(S, 0) for S in wedge_basis(l, k)))
    return comps


def criterion_9_flag_quotient(cfg: SuiteConfig) -> list[CheckResult]:
    """The flag map on random points: coordinates, image predicates, action.

    Each sample is a matrix of rationals a/b, but it is checked as the
    integer matrix ``c * rows`` with c the lcm of its denominators: every
    component k of the flag map, of the wedge oracle and of the minors is
    then c^k times its value at ``rows``, and decomposability and nesting
    are projective, so every verdict is the one the rational sample gets
    (criterion 1 scales its samples the same way).  The draws are the same
    calls in the same order, so the streams ``flags:{n}:{l}`` are unchanged.
    """
    if "gl" not in cfg.groups:
        return []
    out = []
    for n in (2, 3, 4):
        for l in (2, 3, 4):
            def run(n=n, l=l):
                s = Scenario("gl", n, l)
                rng = substream(cfg.seed, f"flags:{n}:{l}")
                p = min(l, n)
                for it in range(cfg.flag_samples):
                    draws = [[(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(l)] for _ in range(n)]
                    c = lcm(*(b for row in draws for _, b in row))
                    rows = [[a * (c // b) for a, b in row] for row in draws]
                    mat = Matrix(rows)
                    f = flag_map(mat, s)
                    if tuple(f.components) != tuple(map(tuple, _independent_wedge(rows, n, l))):
                        return False, {"case": "wedge-mismatch", "iteration": it}
                    for k in range(1, p + 1):
                        minors = tuple(
                            minor(mat, list(range(n - k, n)), list(cols))
                            for cols in wedge_basis(l, k)
                        )
                        if minors != tuple(f.components[k - 1]):
                            return False, {"case": "minor-mismatch", "iteration": it, "k": k}
                    try:
                        if not incidence_holds(f):
                            return False, {"case": "incidence", "iteration": it}
                    except IndecomposableComponent as exc:
                        return False, {"case": "indecomposable", "iteration": it, "k": exc.k}
                for it in range(cfg.flag_group_samples):
                    rows = [[rng.randint(-4, 4) for _ in range(l)] for _ in range(n)]
                    while True:
                        g = Matrix([[rng.randint(-3, 3) for _ in range(l)] for _ in range(l)])
                        if g.det():
                            break
                    left = flag_map(Matrix(rows) * g.transpose(), s)
                    base = flag_map(rows, s)
                    for k in range(1, p + 1):
                        wk = wedge_action_matrix(g, k)
                        transported = tuple(
                            sum(wk[i, j] * base.components[k - 1][j] for j in range(wk.n))
                            for i in range(wk.m)
                        )
                        if transported != tuple(left.components[k - 1]):
                            return False, {"case": "equivariance", "iteration": it, "k": k}
                return True, None

            out.append(_timed(f"flag-quotient n={n} l={l}", run))
    return out


def mixed_identity_check(n: int, l: int, m: int) -> tuple[bool, None]:
    """Both sides of the mixed minor-product identity expand equally."""
    equal, _, _ = mixed_minor_relation(n, l, m)
    return equal, None


def criterion_10_mixed_identity(cfg: SuiteConfig) -> list[CheckResult]:
    if "gl" not in cfg.groups:
        return []
    out = []
    for n in range(1, 5):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                if l + m <= n:
                    continue
                out.append(_timed(f"mixed-identity n={n} l={l} m={m}", lambda n=n, l=l, m=m: mixed_identity_check(n, l, m)))
    return out


def bilinear_check(s: Scenario, i: int, j: int) -> tuple[bool, object]:
    """Every bilinear expansion of order-i and order-j lower minors vanishes;
    the witness of a failure names the first column subset that does not."""
    try:
        rels = bilinear_relations(s, i, j)
    except ExpansionDoesNotVanish as exc:
        return False, {"columns": list(exc.columns)}
    return True, f"{len(rels)} column subsets"


def criterion_11_bilinear(cfg: SuiteConfig) -> list[CheckResult]:
    if "gl" not in cfg.groups:
        return []
    out = []
    for n in range(2, 5):
        for l in range(2, 5):
            p = min(l, n)
            for i in range(1, p):
                for j in range(1, p - i + 1):
                    out.append(_timed(
                        f"bilinear n={n} l={l} i={i} j={j}",
                        lambda n=n, l=l, i=i, j=j: bilinear_check(Scenario("gl", n, l), i, j),
                    ))
    return out


def criterion_12_relation_generation(cfg: SuiteConfig) -> list[CheckResult]:
    if "gl" not in cfg.groups:
        return []
    out = []

    def run_if():
        gs = build_generators(Scenario("gl", 4, 2, 2))
        for d in (1, 2, 3):
            rep = relation_space(gs, d, cap=cfg.monomial_cap)
            if rep.relation_dim != 0:
                return False, {"degree": d, "relation_dim": rep.relation_dim}
        for d in (2, 3):
            quad = relation_space(gs, d, cap=cfg.monomial_cap, factors=2)
            if quad.relation_dim != 0:
                return False, {"degree": d, "family_quadratics": quad.relation_dim}
        return True, None

    out.append(_timed("relations independent when l+m<=n (n=4 l=2 m=2)", run_if))

    for n, l, m in ((2, 2, 1), (3, 2, 2)):
        def run_onlyif(n=n, l=l, m=m):
            s = Scenario("gl", n, l, m)
            gs = build_generators(s)
            d = l + m
            rep = relation_space(gs, d, cap=cfg.monomial_cap)
            monomials = generator_monomials(gs, d)
            li = gs.find("leftMinor", range(m))
            lo = gs.find("lowMinor", range(l))
            target = monomials.index(tuple(sorted(((li, 1), (lo, 1)))))
            vec = next((v for v in rep.basis if v[target]), None)
            if vec is None:
                return False, {"missing": "no relation meets the minor product"}
            reports = {
                dp: relation_space(gs, dp, cap=cfg.monomial_cap)
                for dp in range(2, d)
            }
            span = product_relations(gs, reports, d)
            base_rank = rank(span) if span else 0
            new_rank = rank(span + [vec])
            return new_rank == base_rank + 1, {
                "span_rank": base_rank,
                "with_mixed_relation": new_rank,
            }

        out.append(_timed(f"mixed relation is new (n={n} l={l} m={m})", run_onlyif))
    return out


def quadratic_closure_check(gs, d: int, cap: int | None) -> tuple[bool, None]:
    """Relations on two generator factors generate all degree-d relations."""
    return quadratic_relation_closure(gs, d, cap=cap), None


def criterion_13_quadratic_closure(cfg: SuiteConfig) -> list[CheckResult]:
    if "gl" not in cfg.groups:
        return []
    out = []
    for n in (1, 2, 3):
        for l in (1, 2, 3):
            gs = build_generators(Scenario("gl", n, l, 0))
            for d in (3, 4):
                def run(gs=gs, d=d):
                    return quadratic_closure_check(gs, d, cfg.monomial_cap)

                out.append(_timed(f"quadratic-closure gl n={n} l={l} d={d}", run))
    return out


def criterion_14_high_minors(cfg: SuiteConfig) -> list[CheckResult]:
    if "sp" not in cfg.groups:
        return []
    return [
        _timed(f"sp-high-minor n={n} l={l} k={k}", lambda n=n, l=l, k=k: sp_high_minor_membership(Scenario("sp", n, l), k))
        for n, l, k in ((2, 2, 2), (4, 3, 3))
    ]


CRITERIA = {
    1: ("invariance", criterion_1_invariance),
    2: ("degree/weight tables", criterion_2_weight_tables),
    3: ("generation", criterion_3_generation),
    4: ("minimality", criterion_4_minimality),
    5: ("minimal-degree formulas", criterion_5_degree_formulas),
    6: ("degree linearity", criterion_6_linearity),
    7: ("ambient equals generated degree", criterion_7_ambient_degrees),
    8: ("weight polytopes", criterion_8_polytopes),
    9: ("flag quotient map", criterion_9_flag_quotient),
    10: ("mixed minor identity", criterion_10_mixed_identity),
    11: ("bilinear relations", criterion_11_bilinear),
    12: ("relation generation bounds", criterion_12_relation_generation),
    13: ("quadratic closure of relations", criterion_13_quadratic_closure),
    14: ("symplectic high minors", criterion_14_high_minors),
}


@dataclass
class SuiteReport:
    config: SuiteConfig
    results: dict = field(default_factory=dict)  # criterion number -> list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for results in self.results.values() for r in results)

    def summary_lines(self) -> list[str]:
        lines = []
        for num in sorted(self.results):
            name = CRITERIA[num][0]
            results = self.results[num]
            failed = [r for r in results if r.verdict == "fail"]
            skipped = [r for r in results if r.verdict == "skipped (cap)"]
            errors = [r for r in results if r.verdict == "error"]
            status = "PASS" if not failed and not errors else "FAIL"
            extra = f", {len(skipped)} skipped" if skipped else ""
            extra += f", {len(errors)} errors" if errors else ""
            lines.append(
                f"criterion {num:2d} ({name}): {status} "
                f"({len(results) - len(failed) - len(skipped) - len(errors)}/{len(results)} checks{extra})"
            )
        return lines

    def to_json(self, timings: bool = False) -> dict:
        from . import __version__

        return {
            "tool_version": __version__,
            "config": self.config.to_json(),
            "checks": [
                {"criterion": num, **r.to_json(timings)}
                for num in sorted(self.results)
                for r in self.results[num]
            ],
        }


def full_suite(cfg: SuiteConfig | None = None, criteria=None) -> SuiteReport:
    cfg = cfg or SuiteConfig()
    report = SuiteReport(cfg)
    for num in sorted(criteria or CRITERIA):
        report.results[num] = CRITERIA[num][1](cfg)
    return report
