import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest

from covariants import suite, syzygies
from covariants.generators import build_generators, generator_monomials, monomial_poly
from covariants.linalg import minor, rank
from covariants.polynomial import Polynomial
from covariants.scenario import Scenario
from covariants.syzygies import (
    bilinear_relations,
    mixed_minor_relation,
    product_relations,
    quadratic_closure_ranks,
    relation_space,
)

from conftest import random_frac


def test_bilinear_trivial_case():
    rels = bilinear_relations(Scenario("gl", 3, 2), 1, 1)
    assert len(rels) == 1
    assert rels[0].cols == (1, 2)


def test_bilinear_three_term_relation():
    rels = bilinear_relations(Scenario("gl", 3, 3), 1, 2)
    assert len(rels) == 1
    labels = rels[0].labels()
    assert (1, "lowMinor[1;1]", "lowMinor[2;2,3]") in labels
    assert (-1, "lowMinor[1;2]", "lowMinor[2;1,3]") in labels
    assert (1, "lowMinor[1;3]", "lowMinor[2;1,2]") in labels


def test_bilinear_numeric_confirmation(rng):
    s = Scenario("gl", 4, 4)
    vbar = s.v_matrix()
    for i, j in ((1, 2), (2, 2), (1, 3)):
        for rel in bilinear_relations(s, i, j):
            total = Polynomial.zero(s.nvars)
            for sign, t1, t2 in rel.terms:
                m1 = minor(vbar, list(range(4 - i, 4)), [c - 1 for c in t1])
                m2 = minor(vbar, list(range(4 - j, 4)), [c - 1 for c in t2])
                total = total + sign * (m1 * m2)
            assert not total
            for _ in range(50):
                pt = [random_frac(rng) for _ in range(s.nvars)]
                assert total.evaluate(pt) == 0


def test_bilinear_precondition():
    with pytest.raises(ValueError):
        bilinear_relations(Scenario("gl", 3, 3), 2, 2)


def test_mixed_identity_smallest_case_by_hand():
    equal, lhs, rhs = mixed_minor_relation(2, 2, 1)
    assert equal
    s = Scenario("gl", 2, 2, 1)
    expected = s.a_poly(0, 0) * (
        s.x_poly(0, 0) * s.x_poly(1, 1) - s.x_poly(0, 1) * s.x_poly(1, 0)
    )
    assert lhs == expected


def test_mixed_identity_instances():
    for n, l, m in ((3, 2, 2), (3, 3, 1), (2, 2, 2), (4, 3, 2)):
        equal, _, _ = mixed_minor_relation(n, l, m)
        assert equal, (n, l, m)


def test_mixed_identity_regime_guard():
    with pytest.raises(ValueError):
        mixed_minor_relation(4, 2, 2)


def _sign(perm) -> int:
    inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(perm)), 2))
    return -1 if inversions % 2 else 1


def _permutation_rhs(sc: Scenario, cmat) -> Polynomial:
    """The right side of the mixed identity as its defining contraction:
    (1/s!) sum over sigma in S_m, tau in S_l of sgn sigma sgn tau times
    a[sigma(t)][t] (t < r - 1), C[sigma(r-1+v)][tau(v)] (v < s) and
    x[m+u-s][tau(u)] (s <= u < l), with s = l + m - n and r = n - l + 1."""
    n, l, m = sc.n, sc.l, sc.m
    s, r = l + m - n, n - l + 1
    total = Polynomial.zero(sc.nvars)
    for sigma in itertools.permutations(range(m)):
        for tau in itertools.permutations(range(l)):
            term = Polynomial.const(sc.nvars, _sign(sigma) * _sign(tau))
            for t in range(r - 1):
                term = term * sc.a_poly(sigma[t], t)
            for v in range(s):
                term = term * cmat[sigma[r - 1 + v]][tau[v]]
            for u in range(s, l):
                term = term * sc.x_poly(m + u - s, tau[u])
            total = total + term
    return total * Fraction(1, math.factorial(s))


def _c_matrix(gs, m: int, l: int):
    return [[gs.gens[gs.find("C", (i, j))].poly for j in range(l)] for i in range(m)]


def test_mixed_identity_block_determinant_is_the_permutation_contraction():
    grid = [
        (n, l, m) for n in range(1, 5) for l in range(1, n + 1) for m in range(1, n + 1) if l + m > n
    ]
    assert len(grid) == 20  # criterion 10's grid
    for n, l, m in grid:
        sc = Scenario("gl", n, l, m)
        _, _, rhs = mixed_minor_relation(n, l, m)
        assert rhs == _permutation_rhs(sc, _c_matrix(build_generators(sc), m, l)), (n, l, m)


def test_mixed_identity_block_determinant_holds_for_any_c(monkeypatch):
    # every C entry gains a seeded random integer multiple of a[1,1]*x[1,1]:
    # the right side is still the contraction, though it no longer equals lhs
    rng = random.Random(26)
    n, l, m = 4, 3, 3
    sc = Scenario("gl", n, l, m)
    gs = build_generators(sc)
    bump = sc.a_poly(0, 0) * sc.x_poly(0, 0)
    gens = tuple(
        dataclasses.replace(g, poly=g.poly + rng.randint(1, 5) * bump) if g.recipe[0] == "C" else g
        for g in gs.gens
    )
    moved = dataclasses.replace(gs, gens=gens)
    monkeypatch.setattr(syzygies, "build_generators", lambda s: moved)
    equal, _, rhs = mixed_minor_relation(n, l, m)
    assert not equal
    assert rhs == _permutation_rhs(sc, _c_matrix(moved, m, l))


def test_relation_space_no_relations():
    gs = build_generators(Scenario("gl", 2, 2, 0))
    rep = relation_space(gs, 2)
    assert rep.ambient_dim == 4
    assert rep.relation_dim == 0


def test_relation_space_degree_one_always_free():
    for s in (Scenario("gl", 2, 2, 1), Scenario("o", 4, 3), Scenario("sp", 4, 3)):
        gs = build_generators(s)
        assert relation_space(gs, 1).relation_dim == 0


def test_relation_space_contains_mixed_relation():
    gs = build_generators(Scenario("gl", 2, 2, 1))
    rep = relation_space(gs, 3)
    assert rep.relation_dim >= 1
    monomials = generator_monomials(gs, 3)
    li = gs.find("leftMinor", (0,))
    lo = gs.find("lowMinor", (0, 1))
    target = monomials.index(tuple(sorted(((li, 1), (lo, 1)))))
    assert any(v[target] for v in rep.basis)
    # every reported relation expands to the zero polynomial
    for vec in rep.basis:
        total = Polynomial.zero(gs.scenario.nvars)
        for c, mono in zip(vec, monomials):
            if c:
                total = total + c * monomial_poly(gs, mono)
        assert not total


def test_overlapping_mixed_relation_is_the_only_degree_four_relation():
    gs = build_generators(Scenario("gl", 3, 2, 2))
    rep = relation_space(gs, 4)
    assert rep.ambient_dim == 116
    assert rep.relation_dim == 1
    li = gs.find("leftMinor", (0, 1))
    lo = gs.find("lowMinor", (0, 1))
    (vec,) = rep.basis
    assert vec[rep.monomials.index(tuple(sorted(((li, 1), (lo, 1)))))]


def test_relation_space_rejects_a_non_kernel_vector(monkeypatch):
    # the first monomial alone is a nonzero polynomial, so never a relation
    monkeypatch.setattr(syzygies, "kernel_basis", lambda rows, ncols: [[1] + [0] * (ncols - 1)])
    gs = build_generators(Scenario("gl", 2, 2, 1))
    with pytest.raises(RuntimeError, match="failed symbolic confirmation"):
        relation_space(gs, 3)
    report = suite.full_suite(suite.SuiteConfig(groups=("gl",)), [13])
    checks = report.results[13]
    assert checks and all(c.verdict == "error" for c in checks)
    assert all("failed symbolic confirmation" in c.witness for c in checks)


def test_three_term_relation_found_symbolically():
    gs = build_generators(Scenario("gl", 3, 3, 0))
    rep = relation_space(gs, 3)
    assert rep.relation_dim == 1
    (combo,) = rep.pretty_basis()
    assert set(combo) == {
        "lowMinor[1;1]*lowMinor[2;2,3]",
        "lowMinor[1;2]*lowMinor[2;1,3]",
        "lowMinor[1;3]*lowMinor[2;1,2]",
    }


def test_quadratic_closure_examples():
    for (n, l), d in (((3, 3), 3), ((2, 3), 3), ((2, 2), 4)):
        relation_dim, span_rank = quadratic_closure_ranks(build_generators(Scenario("gl", n, l, 0)), d)
        assert span_rank == relation_dim, (n, l, d)


def test_product_relations_are_relations():
    gs = build_generators(Scenario("gl", 3, 3, 0))
    reports = {3: relation_space(gs, 3)}
    span = product_relations(gs, reports, 4)
    monomials = generator_monomials(gs, 4)
    for vec in span:
        total = Polynomial.zero(gs.scenario.nvars)
        for c, mono in zip(vec, monomials):
            if c:
                total = total + c * monomial_poly(gs, mono)
        assert not total
    assert rank(span) == relation_space(gs, 4).relation_dim
