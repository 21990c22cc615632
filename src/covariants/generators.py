"""Minimal generator systems for the unipotent-invariant algebras.

The recipe depends on the group and the parity of n = dim V:

  gl:        entries of the product of the two coordinate matrices,
             lower minors of the V-matrix (orders 1..min(l, n)),
             left minors of the V*-matrix (orders 1..min(m, n)).
  o, odd n:  form values Q(v_i, v_j) for i <= j, lower minors to min(l, n).
  sp:        Q(v_i, v_j) for i < j, lower minors to min(l, r) only.
  o, even n: as for odd n, plus (when l >= r) the order-r minors through
             row r and the last r-1 rows ("cross minors").

Every generator carries its degree and its torus weight, the plain tuple of
epsilon-coordinates that ``groups.torus_weight`` returns.  Its label names its
recipe, 1-based: ``C[i][j]`` and ``Q[i][j]`` for a pair of copies, and
``lowMinor[k;c1,...,ck]``, ``leftMinor[k;r1,...,rk]`` and
``crossMinor[k;c1,...,ck]`` for an order-k minor on an ascending column (or,
for left minors, row) subset.  ``generator_label`` is the one formatter and
``GeneratorSet.find`` the one lookup; subsets come in lexicographic order, so
JSON output is reproducible.

Each generator also keeps that recipe as ``(kind, index)``.  ``recipe_table``
is the one place that builds all five kinds (C, Q, lower, left and cross
minors), keyed by recipe; ``build_generators`` takes its entries at the
coordinate matrices (V, V*) as the generators.

``check_invariance`` decides invariance on the Lie side alone: every
element of the nilradical basis must kill every generator, which is exact
and complete in characteristic 0.  It returns (passed, witness), the shape
of every suite check; the witness entry of a violation is built where it
is found.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

from .groups import (
    derivation_images,
    form_matrix,
    lie_act_on_polynomial,
    nilradical_basis,
    sample_unipotent,
    substitution_images,
    torus_weight,
)
from .linalg import Matrix, lower_minors, solve
from .polynomial import Polynomial, unpack
from .rng import substream
from .scenario import Scenario
from .weights import integral_phi


@dataclass(frozen=True)
class Generator:
    label: str
    poly: Polynomial
    degree: int
    weight: tuple
    recipe: tuple | None = None  # (kind, index) of ``generator_label``

    def to_json(self, s: Scenario) -> dict:
        return {
            "label": self.label,
            "degree": self.degree,
            "weight_phi": list(integral_phi(s, self.weight)),
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

    def find(self, kind: str, index) -> int:
        """Position of the generator ``generator_label(kind, index)``."""
        return self.labels().index(generator_label(kind, index))

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario.to_json(),
            "generators": [g.to_json(self.scenario) for g in self.gens],
        }


def generator_label(kind: str, index) -> str:
    """The 1-based label of a recipe: ``"C"``/``"Q"`` take a 0-based pair
    (i, j); ``"lowMinor"``/``"leftMinor"``/``"crossMinor"`` a 0-based subset."""
    if kind in ("C", "Q"):
        i, j = index
        return f"{kind}[{i + 1}][{j + 1}]"
    return f"{kind}[{len(index)};{','.join(str(c + 1) for c in index)}]"


def _lower_top(s: Scenario) -> int:
    """The top order of the lower minors: min(l, r) for sp, else min(l, n)."""
    return min(s.l, s.r) if s.group == "sp" else min(s.l, s.n)


def _cross_rows(s: Scenario) -> tuple:
    """The r rows (r-1, n-r+1, ..., n-1) of the cross minors, or () where
    the recipe has none (it has them for even o with l >= r)."""
    return (s.r - 1, *range(s.n - s.r + 1, s.n)) if s.case == "D" and s.l >= s.r else ()


def recipe_table(s: Scenario, v: Matrix, vstar: Matrix) -> dict:
    """Every generator's recipe at the n x l matrix ``v`` and the m x n matrix
    ``vstar``: ``{(kind, index): value}``, in generator order.

    ``C[i][j]`` is entry (i, j) of ``vstar * v`` and ``Q[i][j]`` is
    sum_k F[k, n-1-k] v[k, i] v[n-1-k, j], F the ``form_matrix``, each one
    ``Polynomial.sum_of_products``.  Lower minors are ``lower_minors(v, p)``.
    The left minor on rows R of ``vstar`` is the lower minor on columns R of
    its row-reversed transpose, times (-1)^(p(p-1)/2), the sign of reversing
    p rows.  Cross minors are the top lower minors of the r rows
    ``_cross_rows`` of ``v``.
    """
    n, l, m, r = s.n, s.l, s.m, s.r
    x, a = v.rows, vstar.rows
    table = {}
    for i in range(m):
        for j in range(l):
            table["C", (i, j)] = Polynomial.sum_of_products(s.nvars, [(1, a[i][k], x[k][j]) for k in range(n)])
    if s.group != "gl":
        f = form_matrix(s)
        for i in range(l):
            for j in range(i if s.group == "o" else i + 1, l):
                terms = [(f[k, n - 1 - k], x[k][i], x[n - 1 - k][j]) for k in range(n)]
                table["Q", (i, j)] = Polynomial.sum_of_products(s.nvars, terms)
    for order in lower_minors(v, _lower_top(s))[1:]:
        for cols, poly in order.items():
            table["lowMinor", cols] = poly
    if m:
        flipped = Matrix(vstar.transpose().rows[::-1])
        for p, order in enumerate(lower_minors(flipped, min(m, n))[1:], start=1):
            for rows, poly in order.items():
                table["leftMinor", rows] = -poly if p * (p - 1) // 2 % 2 else poly
    cross = _cross_rows(s)
    if cross:
        for cols, poly in lower_minors(Matrix([x[i] for i in cross]), r)[r].items():
            table["crossMinor", cols] = poly
    return table


def build_generators(s: Scenario) -> GeneratorSet:
    """Construct the full generating system for the scenario: the recipe
    table at the coordinate matrices (V, V*).

    Each poly's weight and degree are read off its packed monomials in one
    ``torus_weight`` pass, which raises ``ValueError`` for a zero poly, a
    poly of mixed weight, or one not homogeneous of its recipe's degree."""
    gens = []
    for (kind, index), poly in recipe_table(s, s.v_matrix(), s.vstar_matrix()).items():
        degree = 2 if kind in ("C", "Q") else len(index)
        weight = torus_weight(poly, s, degree)
        gens.append(Generator(generator_label(kind, index), poly, degree, weight, (kind, index)))
    return GeneratorSet(s, tuple(gens))


# -- expected degree/weight tables --------------------------------------------


def expected_weight_table(s: Scenario) -> list[tuple[int, tuple[int, ...]]]:
    """The distinct (degree, phi-weight) pairs of the generating system.

    Only stated in the regime l >= n (and m >= n for gl); errors outside it.
    """
    n, r = s.n, s.r
    if s.l < n or (s.group == "gl" and s.m < n):
        raise ValueError("the degree/weight table is stated for l >= n (and m >= n for gl)")

    def phi(coeffs: dict[int, int]) -> tuple[int, ...]:
        """phi-coordinates from {1-based index: coefficient}."""
        out = [0] * s.rank
        for i, c in coeffs.items():
            out[i - 1] += c
        return tuple(out)

    table: list[tuple[int, tuple[int, ...]]] = []
    if s.group == "gl":
        table.append((2, phi({})))
        for i in range(1, n + 1):
            table.append((i, phi({i: 1})))
        for k in range(1, n + 1):
            w = [0] * n
            if k < n:
                w[n - k - 1] = 1
            w[n - 1] -= 1
            table.append((k, tuple(w)))
        return table
    if s.case == "C":
        table.append((2, phi({})))
        for k in range(1, r + 1):
            table.append((k, phi({k: 1})))
        return table
    if s.case == "B":
        table.append((2, phi({})))
        for k in range(1, r):
            table.append((k, phi({k: 1})))
        table.append((r, phi({r: 2})))
        table.append((r + 1, phi({r: 2})))
        for k in range(r + 2, n + 1):
            table.append((k, phi({n - k: 1}) if k < n else phi({})))
        return table
    # case D
    if r < 2:
        raise ValueError("the even orthogonal table needs n >= 4")
    table.append((2, phi({})))
    for k in range(1, r - 1):
        table.append((k, phi({k: 1})))
    table.append((r - 1, phi({r - 1: 1, r: 1})))
    table.append((r, phi({r - 1: 2})))
    table.append((r, phi({r: 2})))
    table.append((r + 1, phi({r - 1: 1, r: 1})))
    for k in range(r + 2, n + 1):
        table.append((k, phi({n - k: 1}) if k < n else phi({})))
    return table


def weight_table_of(gs: GeneratorSet) -> set[tuple[int, tuple[int, ...]]]:
    """Distinct (degree, phi-weight) pairs occurring among the generators."""
    s = gs.scenario
    return {(g.degree, integral_phi(s, g.weight)) for g in gs.gens}


# -- invariance ---------------------------------------------------------------


def check_invariance(gs: GeneratorSet, num_samples: int = 100, seed: int = 0) -> tuple[bool, dict | None]:
    """Certify invariance of every generator under the unipotent subgroup.

    A generator passes when every element xi of ``nilradical_basis`` kills
    it, and that decides it exactly.  In characteristic 0, U is connected
    and unipotent, so every u in U is exp(xi) for some xi in the nilradical,
    and u.f = sum_k (xi^k . f) / k!.  If each basis element kills f, so does
    every xi in their span, and u fixes f; conversely xi.f is the derivative
    of exp(t xi).f at t = 0.

    Samples decide nothing: they name a group element that moves a
    generator the Lie side flags.  Only when some generator is flagged are
    ``num_samples`` random samples drawn, and only the flagged generators
    are substituted.  Each sample u comes as the integer matrix ``c*u``
    (``sample_unipotent``); for f homogeneous of degree d in the V-copies,
    f(c u x) = c^d f(u x), so u fixes f exactly when substituting ``c*u``
    gives ``c^d * f``.  That identity does not hold for the V*-copies, which
    transform by the inverse, so a sample with c != 1 on a scenario with
    m > 0 raises ``ValueError``.  Returns (passed, witness): the witness of
    a failure lists each violation under ``lie`` or ``samples`` with its
    generator's label and its witnessing element, the basis element xi or
    the rational sample u.
    """
    s = gs.scenario
    witness = {"lie": [], "samples": []}
    basis = nilradical_basis(s)
    tables = [derivation_images(xi, s) for xi in basis]  # shared across the generators
    flagged = []
    for g in gs.gens:
        moved = [
            {"label": g.label, "basis_index": idx, "matrix": xi.to_json()}
            for idx, xi in enumerate(basis)
            if lie_act_on_polynomial(xi, g.poly, s, tables[idx])
        ]
        if moved:
            witness["lie"] += moved
            flagged.append(g)
    if flagged:
        rng = substream(seed, f"invariance:{s.group}:{s.n}:{s.l}:{s.m}")
        for k in range(num_samples):
            c, cu = sample_unipotent(s, rng)
            if s.m and c != 1:
                raise ValueError(f"a sample with denominators (c = {c}) cannot act on V*-copies by scaling")
            images = substitution_images(cu, s)  # the entries of c*u*V and V*u^-1
            u = None  # the sample's witness entry, built at its first violation
            for g in flagged:
                if g.poly.substitute(images) != (g.poly if c == 1 else c**g.degree * g.poly):
                    u = u or (cu * Fraction(1, c)).to_json()
                    witness["samples"].append({"label": g.label, "sample_index": k, "matrix": u})
    passed = not witness["lie"]
    return passed, None if passed else witness


# -- monomials in the generators ----------------------------------------------


def weighted_monomials(degrees, t: int, weights=None, target=None, memo=None) -> list[tuple[tuple[int, int], ...]]:
    """All monomials of total degree t in letters of the given degrees.

    A monomial is a tuple of (letter index, multiplicity) pairs with indices
    ascending; the empty tuple is the degree-0 monomial.  The list is
    sorted.  Letters of degree 1 are variables: a monomial is then the
    sparse exponent pairs that ``groups.derive_monomial`` takes.

    Given the letters' ``weights`` (one tuple per letter) and a ``target``,
    only the monomials of weight ``target`` (the sum of their letters'
    weights, with multiplicity) are listed, in the same order.

    The monomials in the letters from a first letter s on, of a remaining
    degree and weight, are those that hold letter s (by multiplicity), then
    those that do not; each such list is kept in ``memo`` under ``(s,
    remaining degree, remaining weight)``.  Calls on the same letters may
    share one memo, so that the blocks of one degree share their tails.  A
    remaining weight whose l1 norm exceeds the remaining degree times the
    largest l1 norm per degree of a letter is cut off.
    """
    if memo is None:
        memo = {}
    if weights is not None:
        # the largest l1 norm per degree of a letter, num / den (exact; the float key only ranks)
        num, den = max(((sum(map(abs, w)), d) for w, d in zip(weights, degrees)), key=lambda r: r[0] / r[1], default=(0, 1))

    def rec(start: int, remaining: int, rest: tuple | None) -> list:
        if remaining == 0:
            return [()] if rest is None or not any(rest) else []
        if start == len(degrees) or rest is not None and sum(map(abs, rest)) * den > remaining * num:
            return []
        key = (start, remaining, rest)
        found = memo.get(key)
        if found is None:
            found, left = [], rest
            for mult in range(1, remaining // degrees[start] + 1):
                if rest is not None:
                    left = tuple(map(sub, left, weights[start]))
                found += [((start, mult),) + m for m in rec(start + 1, remaining - mult * degrees[start], left)]
            found += rec(start + 1, remaining, rest)
            memo[key] = found
        return found

    monomials = list(rec(0, t, None if target is None else tuple(target)))
    del rec  # it holds itself, and so the memo, in a cycle: free them now, not at a collection
    return monomials


def generator_monomials(gs: GeneratorSet, t: int) -> list[tuple[tuple[int, int], ...]]:
    """All monomials in the generators of total polynomial degree t, as
    (generator index, multiplicity) pairs (see ``weighted_monomials``)."""
    return weighted_monomials([g.degree for g in gs.gens], t)


def monomial_poly(gs: GeneratorSet, monomial) -> Polynomial:
    """Expand a generator monomial to an element of the coordinate ring."""
    if not monomial:
        return Polynomial.const(gs.scenario.nvars, 1)
    (idx, mult), *rest = monomial
    p = gs.gens[idx].poly ** mult
    for idx, mult in rest:
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
            generator_label("lowMinor", cols)
            for cols in itertools.combinations(range(s.l), k)
        ]
        return True, {lbl: {lbl: "1"} for lbl in labels}
    gs = build_generators(s)
    monomials = generator_monomials(gs, k)
    columns = [monomial_poly(gs, mu).packed_terms() for mu in monomials]
    column_support = set().union(*columns)
    certificate = {}
    ok = True
    for cols, poly in lower_minors(s.v_matrix(), k)[k].items():
        target = poly.packed_terms()
        # rows in the order of the exponent tuples
        support = sorted(column_support.union(target), key=lambda m: unpack(m, s.nvars))
        a_rows = [[c.get(m, 0) for c in columns] for m in support]
        rhs = [target.get(m, 0) for m in support]
        sol = solve(a_rows, rhs)
        label = generator_label("lowMinor", cols)
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
