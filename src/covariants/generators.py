"""Minimal generator systems for the unipotent-invariant algebras.

The recipe depends on the group and the parity of n = dim V:

  gl:        entries of the product of the two coordinate matrices,
             lower minors of the V-matrix (orders 1..min(l, n)),
             left minors of the V*-matrix (orders 1..min(m, n)).
  o, odd n:  form values Q(v_i, v_j) for i <= j, lower minors to min(l, n).
  sp:        Q(v_i, v_j) for i < j, lower minors to min(l, r) only.
  o, even n: as for odd n, plus (when l >= r) the order-r minors through
             row r and the last r-1 rows ("cross minors").

Every generator carries its degree and torus weight; labels are canonical
(column subsets in lexicographic order) so JSON output is reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .groups import (
    derivation_images,
    form_matrix,
    lie_act_on_polynomial,
    nilradical_basis,
    sample_unipotent,
    substitution_images,
    torus_weight,
)
from .linalg import minor, solve
from .polynomial import Polynomial, unpack
from .rng import substream
from .scenario import Scenario
from .weights import Weight, integral_phi


@dataclass(frozen=True)
class Generator:
    label: str
    poly: Polynomial
    degree: int
    weight: Weight

    def to_json(self, s: Scenario) -> dict:
        return {
            "label": self.label,
            "degree": self.degree,
            "weight_phi": list(integral_phi(s, self.weight.eps)),
            "poly": self.poly.to_json(),
        }


@dataclass(frozen=True)
class GeneratorSet:
    scenario: Scenario
    gens: tuple

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def labels(self) -> list[str]:
        return [g.label for g in self.gens]

    def by_label(self, label: str) -> Generator:
        for g in self.gens:
            if g.label == label:
                return g
        raise KeyError(label)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario.to_json(),
            "generators": [g.to_json(self.scenario) for g in self.gens],
        }


def _cols_label(cols) -> str:
    return ",".join(str(c + 1) for c in cols)


def form_value_poly(s: Scenario, i: int, j: int) -> Polynomial:
    """Q(v_i, v_j) expanded in the x variables (0-based copy indices)."""
    q = form_matrix(s)
    total = Polynomial.zero(s.nvars)
    for a in range(s.n):
        b = s.n - 1 - a
        c = q[a, b]
        if c:
            total = total + c * (s.x_poly(a, i) * s.x_poly(b, j))
    return total


def build_generators(s: Scenario) -> GeneratorSet:
    """Construct the full generating system for the scenario."""
    gens: list[Generator] = []
    n, l, m = s.n, s.l, s.m

    def add(label: str, poly: Polynomial, degree: int):
        assert poly.is_homogeneous(degree), label
        gens.append(Generator(label, poly, degree, torus_weight(poly, s)))

    if s.group == "gl":
        vbar = s.v_matrix()
        for i in range(m):
            for j in range(l):
                entry = Polynomial.zero(s.nvars)
                for k in range(n):
                    entry = entry + s.a_poly(i, k) * s.x_poly(k, j)
                add(f"C[{i + 1}][{j + 1}]", entry, 2)
        for k in range(1, min(l, n) + 1):
            rows = list(range(n - k, n))
            for cols in itertools.combinations(range(l), k):
                add(f"lowMinor[{k};{_cols_label(cols)}]", minor(vbar, rows, cols), k)
        if m:
            vstar = s.vstar_matrix()
            for p in range(1, min(m, n) + 1):
                cols = list(range(p))
                for rows in itertools.combinations(range(m), p):
                    add(
                        f"leftMinor[{p};{_cols_label(rows)}]",
                        minor(vstar, rows, cols),
                        p,
                    )
        return GeneratorSet(s, tuple(gens))

    # orthogonal / symplectic
    vbar = s.v_matrix()
    r = s.r
    if s.group == "o":
        pairs = [(i, j) for i in range(l) for j in range(i, l)]
    else:
        pairs = [(i, j) for i in range(l) for j in range(i + 1, l)]
    for i, j in pairs:
        add(f"Q[{i + 1}][{j + 1}]", form_value_poly(s, i, j), 2)
    max_order = min(l, r) if s.group == "sp" else min(l, n)
    for k in range(1, max_order + 1):
        rows = list(range(n - k, n))
        for cols in itertools.combinations(range(l), k):
            add(f"lowMinor[{k};{_cols_label(cols)}]", minor(vbar, rows, cols), k)
    if s.case == "D" and l >= r and r >= 1:
        rows = [r - 1] + list(range(n - r + 1, n))
        for cols in itertools.combinations(range(l), r):
            add(f"crossMinor[{r};{_cols_label(cols)}]", minor(vbar, rows, cols), r)
    return GeneratorSet(s, tuple(gens))


# -- expected degree/weight tables --------------------------------------------


def expected_weight_table(s: Scenario) -> list[tuple[int, tuple[int, ...]]]:
    """The distinct (degree, phi-weight) pairs of the generating system.

    Only stated in the regime l >= n (and m >= n for gl); errors outside it.
    """
    n, r = s.n, s.r
    if s.l < n or (s.group == "gl" and s.m < n):
        raise ValueError("the degree/weight table is stated for l >= n (and m >= n for gl)")

    def phi(**kw) -> tuple[int, ...]:
        q = s.rank
        out = [0] * q
        for key, val in kw.items():
            out[int(key[1:]) - 1] += val
        return tuple(out)

    table: list[tuple[int, tuple[int, ...]]] = []
    if s.group == "gl":
        table.append((2, phi()))
        for i in range(1, n + 1):
            table.append((i, phi(**{f"k{i}": 1})))
        for k in range(1, n + 1):
            w = [0] * n
            if k < n:
                w[n - k - 1] = 1
            w[n - 1] -= 1
            table.append((k, tuple(w)))
        return table
    if s.case == "C":
        table.append((2, phi()))
        for k in range(1, r + 1):
            table.append((k, phi(**{f"k{k}": 1})))
        return table
    if s.case == "B":
        table.append((2, phi()))
        for k in range(1, r):
            table.append((k, phi(**{f"k{k}": 1})))
        table.append((r, phi(**{f"k{r}": 2})))
        table.append((r + 1, phi(**{f"k{r}": 2})))
        for k in range(r + 2, n + 1):
            table.append((k, phi(**{f"k{n - k}": 1}) if k < n else phi()))
        return table
    # case D
    if r < 2:
        raise ValueError("the even orthogonal table needs n >= 4")
    table.append((2, phi()))
    for k in range(1, r - 1):
        table.append((k, phi(**{f"k{k}": 1})))
    table.append((r - 1, phi(**{f"k{r - 1}": 1, f"k{r}": 1})))
    table.append((r, phi(**{f"k{r - 1}": 2})))
    table.append((r, phi(**{f"k{r}": 2})))
    table.append((r + 1, phi(**{f"k{r - 1}": 1, f"k{r}": 1})))
    for k in range(r + 2, n + 1):
        table.append((k, phi(**{f"k{n - k}": 1}) if k < n else phi()))
    return table


def weight_table_of(gs: GeneratorSet) -> set[tuple[int, tuple[int, ...]]]:
    """Distinct (degree, phi-weight) pairs occurring among the generators."""
    s = gs.scenario
    return {(g.degree, integral_phi(s, g.weight.eps)) for g in gs.gens}


# -- invariance ---------------------------------------------------------------


@dataclass
class InvarianceReport:
    lie_violations: list = field(default_factory=list)
    sample_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.lie_violations and not self.sample_violations

    def witness(self) -> dict | None:
        """The violations with their witnessing matrices, None on a pass."""
        if self.passed:
            return None
        return {
            "lie": [
                {"label": lbl, "basis_index": idx, "matrix": xi.to_json()}
                for lbl, idx, xi in self.lie_violations
            ],
            "samples": [
                {"label": lbl, "sample_index": idx, "matrix": g.to_json()}
                for lbl, idx, g in self.sample_violations
            ],
        }


def check_invariance(gs: GeneratorSet, num_samples: int = 100, seed: int = 0) -> InvarianceReport:
    """Certify invariance of every generator under the unipotent subgroup.

    Two independent certificates: annihilation by the whole nilradical basis
    (exact and complete) and fixedness under random unipotent samples (exact
    per sample).  Violations are reported with their witnessing element.
    """
    s = gs.scenario
    report = InvarianceReport()
    basis = nilradical_basis(s)
    tables = [derivation_images(xi, s) for xi in basis]  # shared across the generators
    for g in gs.gens:
        for idx, xi in enumerate(basis):
            if lie_act_on_polynomial(xi, g.poly, s, tables[idx]):
                report.lie_violations.append((g.label, idx, xi))
    rng = substream(seed, f"invariance:{s.group}:{s.n}:{s.l}:{s.m}")
    for k in range(num_samples):
        u = sample_unipotent(s, rng)
        scale = 1
        work = u
        if s.m == 0:
            # Clear denominators: for f homogeneous of degree d in the x's,
            # f(c g x) = c^d f(g x), so the fixedness check can run on the
            # integer matrix c*g and compare against c^d * f.  Exact, and much
            # faster than Fraction substitution.
            scale = math.lcm(*(Fraction(x).denominator for row in u.rows for x in row))
            if scale != 1:
                work = u.scale(scale).map(int)
        images = substitution_images(work, s)  # shared across the generators
        for g in gs.gens:
            expected = g.poly if scale == 1 else (scale ** g.degree) * g.poly
            if g.poly.substitute(images) != expected:
                report.sample_violations.append((g.label, k, u))
    return report


# -- monomials in the generators ----------------------------------------------


def generator_monomials(gs: GeneratorSet, t: int) -> list[tuple[tuple[int, int], ...]]:
    """All monomials in the generators of total polynomial degree t.

    A monomial is a tuple of (generator index, multiplicity) pairs with
    indices ascending; the empty tuple is the degree-0 monomial.
    """
    degrees = [g.degree for g in gs.gens]
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(start: int, remaining: int, acc: list):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for idx in range(start, len(degrees)):
            d = degrees[idx]
            if d <= remaining:
                for mult in range(1, remaining // d + 1):
                    acc.append((idx, mult))
                    rec(idx + 1, remaining - mult * d, acc)
                    acc.pop()

    if t == 0:
        return [()]
    rec(0, t, [])
    out.sort()
    return out


def monomial_poly(gs: GeneratorSet, monomial) -> Polynomial:
    """Expand a generator monomial to an element of the coordinate ring."""
    p = Polynomial.const(gs.scenario.nvars, 1)
    for idx, mult in monomial:
        p = p * gs.gens[idx].poly ** mult
    return p


def monomial_label(gs: GeneratorSet, monomial) -> str:
    if not monomial:
        return "1"
    parts = []
    for idx, mult in monomial:
        lbl = gs.gens[idx].label
        parts.append(lbl if mult == 1 else f"{lbl}^{mult}")
    return "*".join(parts)


def monomial_weight(gs: GeneratorSet, monomial) -> tuple:
    """Epsilon-coordinates of the torus weight of a generator monomial."""
    w = (0,) * gs.scenario.rank
    for idx, mult in monomial:
        w = tuple(a + mult * b for a, b in zip(w, gs.gens[idx].weight.eps))
    return w


# -- the symplectic high-minor reduction ---------------------------------------


def sp_high_minor_membership(s: Scenario, k: int) -> tuple[bool, dict]:
    """Check that order-k lower minors (k > r) lie in the generated algebra.

    For each column subset the expressing coefficients over the degree-k
    generator monomials are found by exact linear solve; the certificate maps
    each minor to its combination.
    """
    if s.group != "sp":
        raise ValueError("high-minor reduction is a symplectic statement")
    if not (1 <= k <= min(s.l, s.n)):
        raise ValueError(f"order must satisfy 1 <= k <= min(l, n), got {k}")
    if k <= s.r:
        # the order-k minors are themselves generators
        labels = [
            f"lowMinor[{k};{_cols_label(cols)}]"
            for cols in itertools.combinations(range(s.l), k)
        ]
        return True, {lbl: {lbl: "1"} for lbl in labels}
    gs = build_generators(s)
    monomials = generator_monomials(gs, k)
    columns = [monomial_poly(gs, mu).packed_terms() for mu in monomials]
    column_support = set().union(*columns)
    vbar = s.v_matrix()
    rows_idx = list(range(s.n - k, s.n))
    certificate = {}
    ok = True
    for cols in itertools.combinations(range(s.l), k):
        target = minor(vbar, rows_idx, cols).packed_terms()
        # rows in the order of the exponent tuples
        support = sorted(column_support.union(target), key=lambda m: unpack(m, s.nvars))
        a_rows = [[c.get(m, 0) for c in columns] for m in support]
        rhs = [target.get(m, 0) for m in support]
        sol = solve(a_rows, rhs)
        label = f"lowMinor[{k};{_cols_label(cols)}]"
        if sol is None:
            ok = False
            certificate[label] = None
        else:
            certificate[label] = {
                monomial_label(gs, mu): str(coef)
                for mu, coef in zip(monomials, sol)
                if coef
            }
    return ok, certificate
