"""The full verification suite: every checkable claim, on a fixed grid.

Every criterion is one module-level check, returning (passed, witness), run
through ``_timed`` over a grid; ``full_suite`` aggregates the CheckResults and
a CLI verdict command runs the same check under the same name.  A check's
fault seams are the names it looks up in this module (``build_generators``,
``integral_phi``, ``product_span``, ...): replacing one makes it fail.
All randomness flows from one seed through named substreams, so identical
configs reproduce identical reports.

The generation criterion (number 3) compares, weight by weight, the
generated subalgebra's graded dimension, an exact rank over Q, with the
invariant ring's, by Weyl's character formula; it draws nothing.  Neither
side reads the other, so a gap either way fails loudly: a missing
generator shows below, a generator that is not invariant above.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .degrees import (
    generator_pairs_for,
    gl_presentation_oracle,
    min_degree_formula,
    min_degree_generated,
)
from .dimensions import (
    CapExceeded,
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
    sp_high_minor_membership,
    weight_table_of,
)
from .linalg import Matrix, minor, rank
from .polynomial import Polynomial
from .polytopes import chamber_inclusion_check
from .scenario import Scenario
from .syzygies import (
    ExpansionDoesNotVanish,
    bilinear_relations,
    mixed_minor_relation,
    product_span,
    quadratic_closure_ranks,
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
    tmax: int = 4
    degree_cap: int = 4
    monomial_cap: int | None = None
    groups: tuple = ("gl", "o", "sp")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "invariance_samples": self.invariance_samples,
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


def ambient_grid(groups) -> list[Scenario]:
    out = []
    if "gl" in groups:
        out += [Scenario("gl", 2, 2, 2), Scenario("gl", 3, 3, 3)]
    if "o" in groups:
        out.append(Scenario("o", 3, 3))
    if "sp" in groups:
        out.append(Scenario("sp", 2, 2))
    return out


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


def linearity_name(s: Scenario) -> str:
    return f"degree-linearity {s.group} n={s.n}"


def polytope_name(s: Scenario) -> str:
    return f"polytope {s.group} n={s.n}"


def mixed_identity_name(n: int, l: int, m: int) -> str:
    return f"mixed-identity n={n} l={l} m={m}"


def bilinear_name(s: Scenario, i: int, j: int) -> str:
    return f"bilinear n={s.n} l={s.l} i={i} j={j}"


def quadratic_closure_name(s: Scenario, d: int) -> str:
    return f"quadratic-closure {s.group} n={s.n} l={s.l} d={d}"


def sp_high_minor_name(s: Scenario, k: int) -> str:
    return f"sp-high-minor n={s.n} l={s.l} k={k}"


def invariance_check(s: Scenario, samples: int, seed: int) -> tuple[bool, dict | None]:
    """Nilradical annihilation of every generator; samples only name a mover."""
    return check_invariance(build_generators(s), samples, seed)


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


def generation_check(gs, t: int, cap: int | None) -> tuple[bool, dict | None]:
    """Generated against invariant dimension of degree t, weight by weight."""
    # a degree over the cap raises CapExceeded here, before any expansion
    inv = invariant_weight_dims(gs.scenario, t, cap=cap)
    gen = generated_dimension(gs, t, cap=cap)
    if gen == inv:
        return True, None
    w = min(w for w in gen.keys() | inv.keys() if gen.get(w) != inv.get(w))
    return False, {"weight": list(w), "generated": gen.get(w, 0), "invariant": inv.get(w, 0)}


def criterion_3_generation(cfg: SuiteConfig) -> list[CheckResult]:
    return [
        _timed(
            scenario_name("generation", gs.scenario) + f" t={t}",
            lambda gs=gs, t=t: generation_check(gs, t, cfg.monomial_cap),
        )
        for gs in map(build_generators, generation_grid(cfg.groups))  # once per scenario
        for t in range(cfg.tmax + 1)
    ]


def minimal_system_check(s: Scenario, seed: int) -> tuple[bool, dict | None]:
    """No generator lies in the algebra the others generate."""
    return minimality_check(build_generators(s), seed=seed)


def criterion_4_minimality(cfg: SuiteConfig) -> list[CheckResult]:
    return [
        _timed(scenario_name("minimality", s), lambda s=s: minimal_system_check(s, cfg.seed))
        for s in invariance_grid(cfg.groups)
    ]


def degree_formula_check(s: Scenario) -> tuple[bool, list | None]:
    """The minimal-degree formula against an oracle at every chi of the grid."""
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


def criterion_5_degree_formulas(cfg: SuiteConfig) -> list[CheckResult]:
    return [
        _timed(f"degree-formula {s.group} n={s.n}", lambda s=s: degree_formula_check(s))
        for s in formula_scenarios(cfg.groups)
    ]


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
        _timed(linearity_name(s), lambda s=s: linearity_check(s, chi_grid(s), 4))
        for s in formula_scenarios(cfg.groups)
    ]


def ambient_degree_check(s: Scenario, degree_cap: int, cap: int | None) -> tuple[bool, list | None]:
    """Each weight's first ambient degree up to degree_cap against the formula."""
    reached: dict[tuple, int] = {}
    for t in range(degree_cap + 1):
        for w, dim in invariant_weight_dims(s, t, cap).items():
            if dim > 0 and w not in reached:
                reached[w] = t
    mismatches = []
    for w, m_val in sorted(reached.items()):
        chi = integral_phi(s, w)
        n_val = min_degree_formula(s, chi)
        if n_val != m_val:
            mismatches.append({"chi": list(chi), "ambient": m_val, "formula": n_val})
    return not mismatches, mismatches or None


def criterion_7_ambient_degrees(cfg: SuiteConfig) -> list[CheckResult]:
    return [
        _timed(scenario_name("ambient-degree", s), lambda s=s: ambient_degree_check(s, cfg.degree_cap, cfg.monomial_cap))
        for s in ambient_grid(cfg.groups)
    ]


def criterion_8_polytopes(cfg: SuiteConfig) -> list[CheckResult]:
    out = []
    seen = set()
    for s in invariance_grid(cfg.groups):
        key = (s.group, s.n)
        if key in seen:
            continue  # the polytopes depend only on the group and n
        seen.add(key)
        out.append(_timed(polytope_name(s), lambda s=s: chamber_inclusion_check(s)))
    return out


@lru_cache(maxsize=None)
def _wedge_steps(l: int, k: int) -> tuple:
    """The steps from wedge^(k-1) to wedge^k of k^l: one ``(S index, i,
    T index, sign)`` per (k-1)-subset S and i not in S, with T = S + {i},
    indices into ``wedge_basis`` and e_i ^ e_S = sign * e_T."""
    position = {T: t for t, T in enumerate(wedge_basis(l, k))}
    steps = []
    for si, S in enumerate(wedge_basis(l, k - 1)):
        for i in range(l):
            if i not in S:
                T = tuple(sorted(S + (i,)))
                steps.append((si, i, position[T], -1 if T.index(i) % 2 else 1))
    return tuple(steps)


def _independent_wedge(mat_rows, n: int, l: int) -> tuple:
    """Wedges of the last rows computed without determinants (oracle):
    component k is row n-k wedged onto component k-1, step by step."""
    comps = []
    prev = [1]
    for k in range(1, min(l, n) + 1):
        u = mat_rows[n - k]
        cur = [0] * comb(l, k)
        for si, i, ti, sign in _wedge_steps(l, k):
            c = prev[si]
            if c:
                cur[ti] += sign * u[i] * c
        prev = cur
        comps.append(tuple(cur))
    return tuple(comps)


def flag_quotient_check(n: int, l: int) -> tuple[bool, dict | None]:
    """The flag map at one generic point: coordinates, image predicates, action.

    In a universe of n*l + l*l variables the point is the n x l matrix of
    the first n*l variables and g the l x l matrix of the others.  Each
    predicate below is a polynomial identity in those entries: the flag
    coordinates against the wedge oracle and ``minor``, the Plücker
    relations of ``incidence_holds`` (Fulton, *Young Tableaux*, §8-9), and
    GL_l-equivariance, flag(point * g^T) = wedge^k(g) flag(point).  So each
    holds at every point of W and every g iff it holds here.
    """
    s = Scenario("gl", n, l)
    nvars = n * l + l * l
    rows = [[Polynomial.variable(nvars, i * l + j) for j in range(l)] for i in range(n + l)]
    mat, g = Matrix(rows[:n]), Matrix(rows[n:])
    p = min(l, n)
    f = flag_map(mat, s)
    if tuple(f.components) != _independent_wedge(mat.rows, n, l):
        return False, {"case": "wedge-mismatch"}
    for k in range(1, p + 1):
        minors = tuple(minor(mat, list(range(n - k, n)), list(cols)) for cols in wedge_basis(l, k))
        if minors != tuple(f.components[k - 1]):
            return False, {"case": "minor-mismatch", "k": k}
    try:
        if not incidence_holds(f):
            return False, {"case": "incidence"}
    except IndecomposableComponent as exc:
        return False, {"case": "indecomposable", "k": exc.k}
    left = flag_map(mat * g.transpose(), s)
    for k in range(1, p + 1):
        wk = wedge_action_matrix(g, k)
        transported = tuple(
            sum(wk[i, j] * f.components[k - 1][j] for j in range(wk.n))
            for i in range(wk.m)
        )
        if transported != tuple(left.components[k - 1]):
            return False, {"case": "equivariance", "k": k}
    return True, None


def criterion_9_flag_quotient(cfg: SuiteConfig) -> list[CheckResult]:
    if "gl" not in cfg.groups:
        return []
    return [
        _timed(
            f"flag-quotient n={n} l={l}",
            lambda n=n, l=l: flag_quotient_check(n, l),
        )
        for n in (2, 3, 4)
        for l in (2, 3, 4)
    ]


def mixed_identity_check(n: int, l: int, m: int) -> tuple[bool, dict | None]:
    """Both sides of the mixed minor-product identity expand equally; the
    witness of a failure counts the terms of lhs - rhs and gives the first."""
    equal, lhs, rhs = mixed_minor_relation(n, l, m)
    if equal:
        return True, None
    terms = (lhs - rhs).to_json()["terms"]
    return False, {"difference_terms": len(terms), "first_term": terms[0]}


def criterion_10_mixed_identity(cfg: SuiteConfig) -> list[CheckResult]:
    if "gl" not in cfg.groups:
        return []
    out = []
    for n in range(1, 5):
        for l in range(1, n + 1):
            for m in range(1, n + 1):
                if l + m <= n:
                    continue
                out.append(_timed(mixed_identity_name(n, l, m), lambda n=n, l=l, m=m: mixed_identity_check(n, l, m)))
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
                    s = Scenario("gl", n, l)
                    out.append(_timed(bilinear_name(s, i, j), lambda s=s, i=i, j=j: bilinear_check(s, i, j)))
    return out


def relations_independent_check(cap: int | None) -> tuple[bool, dict | None]:
    """gl (4, 2, 2) has no relation up to degree 3 and no family quadratic."""
    gs = build_generators(Scenario("gl", 4, 2, 2))
    for d in (1, 2, 3):
        rep = relation_space(gs, d, cap=cap)
        if rep.relation_dim != 0:
            return False, {"degree": d, "relation_dim": rep.relation_dim}
    for d in (2, 3):
        quad = relation_space(gs, d, cap=cap, factors=2)
        if quad.relation_dim != 0:
            return False, {"degree": d, "family_quadratics": quad.relation_dim}
    return True, None


def mixed_relation_check(n: int, l: int, m: int, cap: int | None) -> tuple[bool, dict]:
    """A relation on leftMinor x lowMinor is outside the lower relations' products."""
    gs = build_generators(Scenario("gl", n, l, m))
    d = l + m
    rep = relation_space(gs, d, cap=cap)
    li = gs.find("leftMinor", range(m))
    lo = gs.find("lowMinor", range(l))
    target = rep.monomials.index(tuple(sorted(((li, 1), (lo, 1)))))
    vec = next((v for v in rep.basis if v[target]), None)
    if vec is None:
        return False, {"missing": "no relation meets the minor product"}
    span = product_span(gs, d, range(2, d), cap)
    base_rank = rank(span)
    new_rank = rank(span + [vec])
    return new_rank == base_rank + 1, {"span_rank": base_rank, "with_mixed_relation": new_rank}


def criterion_12_relation_generation(cfg: SuiteConfig) -> list[CheckResult]:
    if "gl" not in cfg.groups:
        return []
    return [
        _timed("relations independent when l+m<=n (n=4 l=2 m=2)", lambda: relations_independent_check(cfg.monomial_cap))
    ] + [
        _timed(f"mixed relation is new (n={n} l={l} m={m})", lambda n=n, l=l, m=m: mixed_relation_check(n, l, m, cfg.monomial_cap))
        for n, l, m in ((2, 2, 1), (3, 2, 2))
    ]


def quadratic_closure_check(gs, d: int, cap: int | None) -> tuple[bool, dict | None]:
    """Relations on two generator factors generate all degree-d relations;
    the witness of a failure gives the relation dim and the span's rank."""
    relation_dim, span_rank = quadratic_closure_ranks(gs, d, cap)
    passed = span_rank == relation_dim
    return passed, None if passed else {"relation_dim": relation_dim, "span_rank": span_rank}


def criterion_13_quadratic_closure(cfg: SuiteConfig) -> list[CheckResult]:
    if "gl" not in cfg.groups:
        return []
    return [
        _timed(quadratic_closure_name(gs.scenario, d), lambda gs=gs, d=d: quadratic_closure_check(gs, d, cfg.monomial_cap))
        for gs in map(build_generators, [Scenario("gl", n, l, 0) for n in (1, 2, 3) for l in (1, 2, 3)])
        for d in (3, 4)
    ]


def criterion_14_high_minors(cfg: SuiteConfig) -> list[CheckResult]:
    if "sp" not in cfg.groups:
        return []
    return [
        _timed(sp_high_minor_name(s, k), lambda s=s, k=k: sp_high_minor_membership(s, k))
        for s, k in ((Scenario("sp", 2, 2), 2), (Scenario("sp", 4, 3), 3))
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
