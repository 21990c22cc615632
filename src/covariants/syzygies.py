"""Relations among the generators: bilinear identities, the mixed
minor-product identity, and exact relation spaces by degree.

``relation_space`` is the workhorse: it enumerates the generator monomials
of one polynomial degree, computes the exact kernel of their evaluation
matrix at two independently seeded point sets (which must agree), and then
re-expands every kernel vector symbolically — a reported relation is the
identically-zero element of the coordinate ring, unconditionally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .dimensions import CapExceeded, SeedDisagreement, monomial_cap
from .generators import (
    GeneratorSet,
    generator_monomials,
    monomial_label,
    monomial_poly,
)
from .linalg import kernel_basis, minor, rank
from .polynomial import Polynomial
from .rng import random_point, substream
from .scenario import Scenario


def _perm_sign(perm) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


# -- bilinear relations between two lower-minor families -----------------------


@dataclass(frozen=True)
class BilinearRelation:
    cols: tuple  # 1-based column subset of size i + j
    terms: tuple  # (sign, order-i column subset, order-j column subset), 1-based

    def labels(self) -> list:
        return [
            (
                sign,
                f"lowMinor[{len(t1)};{','.join(map(str, t1))}]",
                f"lowMinor[{len(t2)};{','.join(map(str, t2))}]",
            )
            for sign, t1, t2 in self.terms
        ]


class ExpansionDoesNotVanish(AssertionError):
    """A bilinear expansion that should be zero is not (1-based ``columns``)."""

    def __init__(self, columns: tuple):
        super().__init__(f"bilinear expansion failed to vanish for columns {columns}")
        self.columns = columns


def bilinear_relations(s: Scenario, i: int, j: int) -> list[BilinearRelation]:
    """The vanishing order-(i+j) minors of the stacked last-i/last-j rows.

    Expanding such a minor along its first i rows writes zero as a bilinear
    combination of order-i and order-j lower minors; every expansion is
    verified symbolically before being returned, and the first that does not
    vanish raises ``ExpansionDoesNotVanish``.
    """
    p = min(s.l, s.n)
    if not (1 <= i and 1 <= j and i + j <= p):
        raise ValueError(f"need i, j >= 1 with i + j <= min(l, n) = {p}")
    vbar = s.v_matrix()
    rows_i = list(range(s.n - i, s.n))
    rows_j = list(range(s.n - j, s.n))
    out = []
    for cols in itertools.combinations(range(s.l), i + j):
        total = Polynomial.zero(s.nvars)
        terms = []
        for positions in itertools.combinations(range(i + j), i):
            t1 = tuple(cols[p_] for p_ in positions)
            t2 = tuple(c for c in cols if c not in t1)
            sign = -1 if (sum(positions) + (i * (i - 1)) // 2) % 2 else 1
            m1 = minor(vbar, rows_i, t1)
            m2 = minor(vbar, rows_j, t2)
            total = total + sign * (m1 * m2)
            terms.append((sign, tuple(c + 1 for c in t1), tuple(c + 1 for c in t2)))
        if total:
            raise ExpansionDoesNotVanish(tuple(c + 1 for c in cols))
        out.append(BilinearRelation(tuple(c + 1 for c in cols), tuple(terms)))
    return out


# -- the mixed minor-product identity -------------------------------------------


def mixed_minor_relation(n: int, l: int, m: int) -> tuple[bool, Polynomial, Polynomial]:
    """Expand both sides of the overlap identity tying the two minor families.

    For l + m > n the product [order-m left minor of the V*-matrix] x
    [order-l lower minor of the V-matrix] equals, up to 1/s! with
    s = l + m - n, a contraction of smaller left and lower minors with s
    product-matrix entries.  Returns (equal, lhs, rhs) fully expanded.
    """
    if not (1 <= l <= n and 1 <= m <= n):
        raise ValueError("need 1 <= l, m <= n")
    s_overlap = l + m - n
    if s_overlap <= 0:
        raise ValueError("the identity lives in the overlapping regime l + m > n")
    sc = Scenario("gl", n, l, m)
    vbar = sc.v_matrix()
    vstar = sc.vstar_matrix()
    r = n - l + 1  # first row index (1-based) of the full lower minor
    lhs = minor(vstar, list(range(m)), list(range(m))) * minor(
        vbar, list(range(n - l, n)), list(range(l))
    )
    cmat = [
        [
            sum(
                (sc.a_poly(i, k) * sc.x_poly(k, j) for k in range(n)),
                start=Polynomial.zero(sc.nvars),
            )
            for j in range(l)
        ]
        for i in range(m)
    ]
    rhs = Polynomial.zero(sc.nvars)
    nv = sc.nvars
    for sigma in itertools.permutations(range(m)):
        sgn_s = _perm_sign(sigma)
        # monomial of the first r-1 left-minor factors: a[sigma(t), t]
        a_exps = [0] * nv
        for t in range(r - 1):
            a_exps[sc.a_var(sigma[t], t)] += 1
        for tau in itertools.permutations(range(l)):
            sgn = sgn_s * _perm_sign(tau)
            exps = list(a_exps)
            for u in range(s_overlap, l):
                exps[sc.x_var(m + u - s_overlap, tau[u])] += 1
            prod = Polynomial(nv, {tuple(exps): sgn})
            for v in range(s_overlap):
                prod = prod * cmat[sigma[r - 1 + v]][tau[v]]
            rhs = rhs + prod
    rhs = rhs * Fraction(1, math.factorial(s_overlap))
    return lhs == rhs, lhs, rhs


# -- exact relation spaces -------------------------------------------------------


@dataclass
class RelationReport:
    degree: int
    monomials: list  # generator monomials of the degree, index order
    labels: list
    basis: list  # exact coefficient vectors over the monomials
    seed: int

    @property
    def ambient_dim(self) -> int:
        return len(self.monomials)

    @property
    def relation_dim(self) -> int:
        return len(self.basis)

    def pretty_basis(self) -> list[dict]:
        out = []
        for vec in self.basis:
            out.append(
                {
                    self.labels[i]: str(Fraction(c))
                    for i, c in enumerate(vec)
                    if c
                }
            )
        return out

    def to_json(self) -> dict:
        return {
            "check": "relation-space",
            "inputs": {"degree": self.degree, "seed": self.seed},
            "ambient_dim": self.ambient_dim,
            "relation_dim": self.relation_dim,
            "basis": self.pretty_basis(),
        }


def _monomial_values(gs: GeneratorSet, monomials, points) -> list[list]:
    """Exact evaluation rows (one per point) of the generator monomials."""
    gen_vals = [
        [g.poly.evaluate(pt) for g in gs.gens] for pt in points
    ]
    rows = []
    for vals in gen_vals:
        row = []
        for mono in monomials:
            v = Fraction(1)
            for idx, mult in mono:
                v = v * vals[idx] ** mult
            row.append(v)
        rows.append(row)
    return rows


def relation_space(
    gs: GeneratorSet,
    d: int,
    seed: int = 0,
    cap: int | None = None,
    confirm: bool = True,
    factors: int | None = None,
) -> RelationReport:
    """Exact basis of the degree-d relations among the generators.

    Evaluation at R >= 2x(monomial count) random rational points per seed;
    the two seeds must agree on the nullity, and every kernel vector is
    confirmed by full symbolic expansion.

    ``factors`` restricts the ambient monomials to those with exactly that
    many generator factors (2 recovers the quadratic relation subspace).
    More ambient monomials than ``monomial_cap(cap)`` raise ``CapExceeded``.
    """
    if d < 1:
        raise ValueError("relation degree must be positive")
    monomials = generator_monomials(gs, d)
    if factors is not None:
        monomials = [
            mu for mu in monomials if sum(m for _, m in mu) == factors
        ]
    cap_val = monomial_cap(cap)
    if len(monomials) > cap_val:
        raise CapExceeded(f"{len(monomials)} generator monomials (cap {cap_val})")
    if not monomials:
        return RelationReport(d, [], [], [], seed)
    npts = 2 * len(monomials)
    nv = gs.scenario.nvars
    rows = []
    dims = []
    for stream in ("a", "b"):
        rng = substream(seed, f"relspace:{d}:{stream}")
        pts = [random_point(rng, nv) for _ in range(npts)]
        block = _monomial_values(gs, monomials, pts)
        dims.append(len(monomials) - rank(block))
        rows.extend(block)
    kernel = kernel_basis(rows, len(monomials))
    if dims[0] != dims[1] or len(kernel) != dims[0]:
        raise SeedDisagreement(
            f"seeded relation nullities disagree at degree {d}: {dims} vs {len(kernel)}"
        )
    if confirm:
        for vec in kernel:
            total = Polynomial.zero(nv)
            for c, mono in zip(vec, monomials):
                if c:
                    total = total + c * monomial_poly(gs, mono)
            if total:
                raise RuntimeError(
                    "an evaluation-kernel vector failed symbolic confirmation; "
                    "rerun with a different seed"
                )
    labels = [monomial_label(gs, mu) for mu in monomials]
    return RelationReport(d, list(monomials), labels, kernel, seed)


def _merge_monomials(m1, m2):
    counts: dict[int, int] = {}
    for idx, mult in itertools.chain(m1, m2):
        counts[idx] = counts.get(idx, 0) + mult
    return tuple(sorted(counts.items()))


def product_relations(
    gs: GeneratorSet, reports: dict[int, RelationReport], d: int
) -> list[list]:
    """Degree-d vectors: (relation of polynomial degree d') x (generator
    monomial of degree d - d'), expressed over the full degree-d monomials.

    Products of relations with monomials are again relations, so the result
    spans a subspace of the degree-d relation space by construction.
    """
    monomials_d = generator_monomials(gs, d)
    index_d = {mu: i for i, mu in enumerate(monomials_d)}
    out = []
    for dprime, rep in sorted(reports.items()):
        if dprime > d:
            continue
        cofactors = generator_monomials(gs, d - dprime)
        for vec in rep.basis:
            for mu in cofactors:
                prod = [0] * len(monomials_d)
                for c, mono in zip(vec, rep.monomials):
                    if c:
                        prod[index_d[_merge_monomials(mono, mu)]] += c
                if any(prod):
                    out.append(prod)
    return out


def quadratic_relation_closure(
    gs: GeneratorSet, d: int, seed: int = 0, cap: int | None = None
) -> bool:
    """Do generator-quadratic relations generate all degree-d relations?

    Compares the exact degree-d relation space with the span of (relations
    supported on two-factor monomials, any polynomial degree up to d) times
    complementary generator monomials.  Vacuously true when there are no
    degree-d relations.
    """
    if d < 3:
        raise ValueError("the closure question starts at degree 3")
    target = relation_space(gs, d, seed=seed, cap=cap)
    if target.relation_dim == 0:
        return True
    reports = {
        dp: relation_space(gs, dp, seed=seed, cap=cap, factors=2)
        for dp in range(2, d + 1)
    }
    span = product_relations(gs, reports, d)
    return rank(span) == target.relation_dim
