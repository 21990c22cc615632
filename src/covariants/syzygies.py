"""Relations among the generators: bilinear identities, the mixed
minor-product identity, and exact relation spaces by degree.

``relation_space`` is the workhorse: it enumerates the generator monomials
of one polynomial degree, expands each once, and takes the exact kernel of
their integer coefficient matrix, which by definition is the relation
space.  No point is sampled and no seed is involved; every kernel vector is
still confirmed by summing the expanded monomials it combines, so a
reported relation is the identically-zero element of the coordinate ring.

``product_span`` is the one path to relation products: lower-degree
relations times generator monomials, which span degree-d relations by
construction, so its rank tells whether the lower relations generate.
``quadratic_closure_ranks`` is the one answer to the quadratic-closure
question: the relations' dimension against their quadratic span's rank,
which ``suite.quadratic_closure_check`` turns into a verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .dimensions import CapExceeded, monomial_cap
from .generators import (
    GeneratorSet,
    build_generators,
    generator_label,
    generator_monomials,
    monomial_label,
    monomial_poly,
)
from .linalg import Matrix, kernel_basis, lower_minors, rank
from .polynomial import Polynomial
from .scenario import Scenario


# -- bilinear relations between two lower-minor families -----------------------


@dataclass(frozen=True)
class BilinearRelation:
    cols: tuple  # 1-based column subset of size i + j
    terms: tuple  # (sign, order-i column subset, order-j column subset), 1-based

    def labels(self) -> list:
        return [
            (
                sign,
                generator_label("lowMinor", [c - 1 for c in t1]),
                generator_label("lowMinor", [c - 1 for c in t2]),
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
    table = lower_minors(s.v_matrix(), max(i, j))
    out = []
    for cols in itertools.combinations(range(s.l), i + j):
        total = Polynomial.zero(s.nvars)
        terms = []
        for positions in itertools.combinations(range(i + j), i):
            t1 = tuple(cols[p_] for p_ in positions)
            t2 = tuple(c for c in cols if c not in t1)
            sign = -1 if (sum(positions) + (i * (i - 1)) // 2) % 2 else 1
            total = total + sign * (table[i][t1] * table[j][t2])
            terms.append((sign, tuple(c + 1 for c in t1), tuple(c + 1 for c in t2)))
        if total:
            raise ExpansionDoesNotVanish(tuple(c + 1 for c in cols))
        out.append(BilinearRelation(tuple(c + 1 for c in cols), tuple(terms)))
    return out


# -- the mixed minor-product identity -------------------------------------------


def mixed_minor_relation(n: int, l: int, m: int) -> tuple[bool, Polynomial, Polynomial]:
    """Expand both sides of the overlap identity tying the two minor families.

    For l + m > n the product [order-m left minor of the V*-matrix] x
    [order-l lower minor of the V-matrix] equals (1/s!) times a contraction
    of smaller left and lower minors with s = l + m - n product-matrix
    entries C: the sum over sigma in S_m and tau in S_l of sgn sigma sgn tau
    times n - l entries a, s entries C and l - s entries x.  The sum is
    alternating in the s C columns tau(0..s-1), so the s! orderings of each
    set of them give equal terms and the 1/s! cancels.  What remains is
    Laplace's generalized expansion along the top m rows of one n x n block
    matrix (n - l columns of a, then l columns of C and x):

        [ a[i][t]  C[i][j] ]   i < m
        [    0     x[k][j] ]   m <= k < n

    so the right side is its determinant, the full entry of one
    ``lower_minors`` table.  This holds for any entries C, not only for the
    products of V* with V.  Returns (equal, lhs, rhs) fully expanded.
    """
    if not (1 <= l <= n and 1 <= m <= n):
        raise ValueError("need 1 <= l, m <= n")
    if l + m <= n:
        raise ValueError("the identity lives in the overlapping regime l + m > n")
    sc = Scenario("gl", n, l, m)
    gs = build_generators(sc)
    lhs = gs.gens[gs.find("leftMinor", range(m))].poly * gs.gens[gs.find("lowMinor", range(l))].poly
    zero = Polynomial.zero(sc.nvars)
    block = [
        [sc.a_poly(i, t) for t in range(n - l)] + [gs.gens[gs.find("C", (i, j))].poly for j in range(l)]
        for i in range(m)
    ] + [[zero] * (n - l) + [sc.x_poly(k, j) for j in range(l)] for k in range(m, n)]
    rhs = lower_minors(Matrix(block), n)[n][tuple(range(n))]
    return lhs == rhs, lhs, rhs


# -- exact relation spaces -------------------------------------------------------


@dataclass
class RelationReport:
    degree: int
    monomials: list  # generator monomials of the degree, index order
    labels: list
    basis: list  # exact coefficient vectors over the monomials

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
            "inputs": {"degree": self.degree},
            "ambient_dim": self.ambient_dim,
            "relation_dim": self.relation_dim,
            "basis": self.pretty_basis(),
        }


def relation_space(
    gs: GeneratorSet,
    d: int,
    cap: int | None = None,
    factors: int | None = None,
) -> RelationReport:
    """Exact basis of the degree-d relations among the generators.

    A relation is a kernel vector of the coefficient matrix of the expanded
    generator monomials: one row per term of the coordinate ring, one column
    per monomial.  Every kernel vector is confirmed by summing the expanded
    monomials it combines.

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
    polys = [monomial_poly(gs, mu) for mu in monomials]
    rows: dict[int, list] = {}
    for j, poly in enumerate(polys):
        for key, c in poly.packed_terms().items():
            rows.setdefault(key, [0] * len(polys))[j] = c
    kernel = kernel_basis([rows[key] for key in sorted(rows)], len(monomials))
    for vec in kernel:
        total = Polynomial.zero(gs.scenario.nvars)
        for c, poly in zip(vec, polys):
            if c:
                total = total + c * poly
        if total:
            raise RuntimeError(f"a degree-{d} kernel vector failed symbolic confirmation")
    labels = [monomial_label(gs, mu) for mu in monomials]
    return RelationReport(d, list(monomials), labels, kernel)


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


def product_span(gs: GeneratorSet, d: int, degrees, cap: int | None = None, factors: int | None = None) -> list[list]:
    """``product_relations`` of the relation spaces (with ``factors``, as in
    ``relation_space``) of the given degrees."""
    reports = {dp: relation_space(gs, dp, cap=cap, factors=factors) for dp in degrees}
    return product_relations(gs, reports, d)


def quadratic_closure_ranks(
    gs: GeneratorSet, d: int, cap: int | None = None
) -> tuple[int, int]:
    """(dim of the degree-d relations, rank of their quadratic product span).

    The span is that of (relations supported on two-factor monomials, any
    polynomial degree up to d) times complementary generator monomials.  It
    lies in the degree-d relations, so it is not built when there are none.
    """
    if d < 3:
        raise ValueError("the closure question starts at degree 3")
    target = relation_space(gs, d, cap=cap)
    if target.relation_dim == 0:
        return 0, 0
    return target.relation_dim, rank(product_span(gs, d, range(2, d + 1), cap, factors=2))
