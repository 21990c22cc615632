import math
import random
from fractions import Fraction

import pytest

from covariants.degrees import table_scenario
from covariants.generators import build_generators
from covariants.groups import (
    form_matrix,
    lie_act_on_polynomial,
    nilradical_basis,
    sample_unipotent,
    substitution_images,
    torus_weight,
    variable_weights,
)
from covariants.linalg import Matrix
from covariants.polynomial import Polynomial
from covariants.scenario import GROUPS, Scenario
from covariants.suite import formula_scenarios, invariance_grid
from covariants.weights import eps_to_phi

from conftest import exponent_weight, random_poly


def exp_nilpotent(xi):
    """Exact exponential of a nilpotent matrix by its Fraction series (oracle)."""
    n = xi.n
    g = Matrix.identity(n)
    term = Matrix.identity(n)
    k = 1
    while True:
        term = (term * xi) * Fraction(1, k)
        if term == Matrix.zero(n, n):
            break
        g = g + term
        k += 1
        if k > n + 1:
            raise ValueError("matrix is not nilpotent")
    return g


def positive_root_count(s):
    if s.group == "gl":
        return s.n * (s.n - 1) // 2
    if s.group == "sp":
        return s.r * s.r
    return s.r * s.r if s.n % 2 else s.r * (s.r - 1)


def test_form_matrices():
    assert form_matrix(Scenario("o", 3, 1)) == Matrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    assert form_matrix(Scenario("sp", 2, 1)) == Matrix([[0, 1], [-1, 0]])
    assert form_matrix(Scenario("o", 2, 1)) == Matrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        form_matrix(Scenario("gl", 2, 1))


def test_form_symmetry():
    q_o = form_matrix(Scenario("o", 4, 1))
    assert q_o.transpose() == q_o
    q_sp = form_matrix(Scenario("sp", 4, 1))
    assert q_sp.transpose() == Matrix([[-x for x in row] for row in q_sp.rows])


def test_gl_nilradical_is_elementary():
    basis = nilradical_basis(Scenario("gl", 2, 1))
    assert basis == [Matrix([[0, 1], [0, 0]])]


def test_sp2_nilradical_by_hand():
    # hand oracle: xi = a E12 satisfies the form condition for every a
    basis = nilradical_basis(Scenario("sp", 2, 1))
    assert len(basis) == 1
    xi = basis[0]
    assert xi[0, 1] != 0 and xi[0, 0] == xi[1, 0] == xi[1, 1] == 0


def test_nilradical_counts_match_positive_roots():
    for s in (
        Scenario("gl", 4, 1),
        Scenario("o", 3, 1),
        Scenario("o", 5, 1),
        Scenario("o", 4, 1),
        Scenario("o", 6, 1),
        Scenario("sp", 2, 1),
        Scenario("sp", 4, 1),
        Scenario("sp", 6, 1),
    ):
        basis = nilradical_basis(s)
        assert len(basis) == positive_root_count(s), s
        if s.group != "gl":
            q = form_matrix(s)
            for xi in basis:
                assert xi.transpose() * q + q * xi == Matrix.zero(s.n, s.n)
                assert all(xi[i, j] == 0 for i in range(s.n) for j in range(i + 1))


def test_nilradical_basis_is_computed_once_per_scenario(monkeypatch):
    from covariants import groups

    s = Scenario("sp", 6, 2)
    basis = nilradical_basis(s)
    monkeypatch.setattr(groups, "kernel_basis", None)  # a recomputation would raise
    again = nilradical_basis(s)
    assert again == basis and again is not basis
    basis.clear()  # the caller's copy, not the cached basis
    assert len(nilradical_basis(s)) == positive_root_count(s) == 9


def test_exp_of_zero_is_identity():
    assert exp_nilpotent(Matrix.zero(3, 3)) == Matrix.identity(3)


@pytest.mark.parametrize(
    "s",
    [Scenario("o", 3, 1), Scenario("o", 4, 1), Scenario("o", 5, 1), Scenario("sp", 2, 1), Scenario("sp", 4, 1)],
    ids=lambda s: f"{s.group}-{s.n}",
)
def test_samples_are_the_cleared_exponential(s):
    # rebuild each xi from an identically seeded stream; the sample must be
    # c * exp(xi) with c the lcm of the denominators of the Fraction series
    scales = set()
    for seed in range(6):
        stream, oracle = random.Random(seed), random.Random(seed)
        for _ in range(5):
            c, big = sample_unipotent(s, stream)
            xi = Matrix.zero(s.n, s.n)
            for b in nilradical_basis(s):
                xi = xi + oracle.randint(-3, 3) * b
            u = exp_nilpotent(xi)
            assert c == math.lcm(*(Fraction(x).denominator for row in u.rows for x in row))
            assert big == c * u
            assert all(type(x) is int for row in big.rows for x in row)
            scales.add(c)
        assert stream.getstate() == oracle.getstate()
    # xi^2 = 0 in the nilradicals of o4 and sp2, so their samples are integral
    assert (scales == {1}) == ((s.group, s.n) in (("o", 4), ("sp", 2)))


def test_gl_samples_are_unitriangular():
    s = Scenario("gl", 4, 1)
    for seed in range(5):
        c, g = sample_unipotent(s, seed)
        assert c == 1
        assert g.det() == 1
        assert all(g[i, i] == 1 for i in range(4))
        assert all(g[i, j] == 0 for i in range(4) for j in range(i))


def test_o_sample_preserves_form_seed_42():
    s = Scenario("o", 5, 1)
    c, g = sample_unipotent(s, 42)
    q = form_matrix(s)
    assert g.transpose() * q * g - (c * c) * q == Matrix.zero(5, 5)


def test_symbolic_exponential_preserves_form():
    # exp(t * xi) preserves the form identically in a symbolic parameter t
    for s in (Scenario("o", 4, 1), Scenario("o", 5, 1), Scenario("sp", 4, 1)):
        q = form_matrix(s).map(lambda c: Polynomial.const(1, c))
        t = Polynomial.variable(1, 0)
        for xi in nilradical_basis(s):
            xi_t = xi.map(lambda c: c * t)
            g = Matrix.identity(s.n).map(lambda c: Polynomial.const(1, c))
            term = g
            k = 1
            while True:
                term = (term * xi_t).map(lambda p: p * Fraction(1, k))
                if term == Matrix.zero(s.n, s.n):
                    break
                g = g + term
                k += 1
            assert g.transpose() * q * g - q == Matrix.zero(s.n, s.n)


def test_identity_acts_trivially(rng):
    s = Scenario("gl", 2, 2, 1)
    for _ in range(5):
        p = random_poly(rng, s.nvars)
        assert p.substitute(substitution_images(Matrix.identity(2), s)) == p


def test_unitriangular_fixes_bottom_row():
    s = Scenario("gl", 2, 1)
    g = Matrix([[1, 1], [0, 1]])
    x2 = s.x_poly(1, 0)
    assert x2.substitute(substitution_images(g, s)) == x2
    x1 = s.x_poly(0, 0)
    assert x1.substitute(substitution_images(g, s)) == x1 + x2


def test_form_value_fixed_by_50_samples():
    s = Scenario("o", 3, 1)
    gs = build_generators(s)
    qv = gs.gens[gs.find("Q", (0, 0))].poly
    rng = random.Random(3)
    for _ in range(50):
        c, g = sample_unipotent(s, rng)
        assert qv.substitute(substitution_images(g, s)) == (c * c) * qv


def test_action_composes(rng):
    for s in (Scenario("gl", 3, 2, 1), Scenario("o", 4, 2), Scenario("sp", 2, 2)):
        stream = random.Random(11)
        for _ in range(4):
            _, g = sample_unipotent(s, stream)
            _, h = sample_unipotent(s, stream)
            for _ in range(5):
                p = random_poly(rng, s.nvars, max_degree=2, max_terms=3)
                gp = p.substitute(substitution_images(g, s))
                assert p.substitute(substitution_images(g * h, s)) == gp.substitute(substitution_images(h, s))


def test_lie_action_on_constants_and_variables():
    s = Scenario("gl", 2, 1)
    xi = Matrix([[0, 1], [0, 0]])
    assert not lie_act_on_polynomial(xi, Polynomial.const(s.nvars, 7), s)
    assert not lie_act_on_polynomial(xi, s.x_poly(1, 0), s)
    assert lie_act_on_polynomial(xi, s.x_poly(0, 0), s) == s.x_poly(1, 0)


def test_lie_action_is_first_order_of_group_action():
    # substitute along exp(t xi) with symbolic t; the t-linear part is the
    # derivation (finite-difference oracle for the sign convention)
    s = Scenario("gl", 3, 2)
    rng = random.Random(5)
    nv = s.nvars
    ext = nv + 1  # extra variable plays the role of t
    for xi in nilradical_basis(s):
        g_t = {}
        for j in range(s.l):
            for i in range(s.n):
                terms = {tuple(int(k == s.x_var(i, j)) for k in range(ext)): 1}
                for k in range(s.n):
                    if xi[i, k]:
                        e = [0] * ext
                        e[s.x_var(k, j)] = 1
                        e[ext - 1] = 1
                        terms[tuple(e)] = xi[i, k]
                g_t[s.x_var(i, j)] = Polynomial(ext, terms)
        for _ in range(3):
            p = random_poly(rng, nv, max_degree=2, max_terms=3)
            p_ext = Polynomial(ext, {e + (0,): c for e, c in p.terms.items()})
            moved = p_ext.substitute(g_t)
            linear = {
                e[:-1]: c for e, c in moved.terms.items() if e[-1] == 1
            }
            assert Polynomial(nv, linear) == lie_act_on_polynomial(xi, p, s)


def test_leibniz(rng):
    s = Scenario("o", 4, 2)
    for xi in nilradical_basis(s):
        for _ in range(5):
            p = random_poly(rng, s.nvars, max_degree=2, max_terms=3)
            q = random_poly(rng, s.nvars, max_degree=2, max_terms=3)
            lhs = lie_act_on_polynomial(xi, p * q, s)
            rhs = lie_act_on_polynomial(xi, p, s) * q + p * lie_act_on_polynomial(xi, q, s)
            assert lhs == rhs


def test_torus_weight_examples():
    s = Scenario("gl", 3, 1, 1)
    w = torus_weight(s.x_poly(2, 0), s)
    assert w == (0, 0, -1)
    assert eps_to_phi(s, w) == (0, 1, -1)  # phi_{n-1} - phi_n
    c_entry = sum(
        (s.a_poly(0, k) * s.x_poly(k, 0) for k in range(3)),
        start=Polynomial.zero(s.nvars),
    )
    assert torus_weight(c_entry, s) == (0, 0, 0)
    mixed = s.x_poly(0, 0) + s.x_poly(1, 0) * s.x_poly(0, 0)
    with pytest.raises(ValueError):
        torus_weight(mixed, s)


def test_weight_additive_under_multiplication():
    s = Scenario("sp", 4, 2)
    gs = build_generators(s)
    for a in gs.gens:
        for b in gs.gens:
            w = torus_weight(a.poly * b.poly, s)
            assert w == tuple(x + y for x, y in zip(a.weight, b.weight))


@pytest.mark.parametrize(
    "s",
    [Scenario("gl", 3, 2, 2), Scenario("o", 5, 2), Scenario("o", 4, 2), Scenario("sp", 4, 2)],
    ids=lambda s: f"{s.group}-{s.n}-{s.l}-{s.m}",
)
def test_monomial_torus_weight_of_single_variables(s):
    # the weight of the monomial of one variable is its ``variable_weights``
    # row: x[i,j] -> -e_i and a[i,j] -> +e_j; for o/sp e_{n+1-i} folds to
    # -e_i and the middle coordinate of odd n dies
    def weight(i, sign):
        w = [0] * s.rank
        if s.group == "gl" or i < s.r:
            w[i] = sign
        elif s.n - 1 - i < s.r:
            w[s.n - 1 - i] = -sign
        return tuple(w)

    expected = {s.x_var(i, j): weight(i, -1) for j in range(s.l) for i in range(s.n)}
    expected.update({s.a_var(i, j): weight(j, 1) for i in range(s.m) for j in range(s.n)})
    assert sorted(expected) == list(range(s.nvars)) and len(variable_weights(s)) == s.nvars
    for v, w in expected.items():
        assert variable_weights(s)[v] == w, (s, v)


def weight_scenarios():
    """The invariance grid and the table scenarios of the formula grid."""
    grid = invariance_grid(GROUPS) + [table_scenario(s) for s in formula_scenarios(GROUPS)]
    return list(dict.fromkeys(grid))


def per_term_weight(p, s):
    """The common ``exponent_weight`` of p's exponent tuples (oracle)."""
    weights = {exponent_weight(s, exps) for exps in p.terms}
    assert len(weights) == 1
    return weights.pop()


def test_packed_weight_is_the_per_term_weight():
    # every generator of the grid, and products of two small generators: the
    # packed read equals the per-term weight and ``is_homogeneous``
    rng = random.Random(5)
    scenarios = weight_scenarios()
    assert len(scenarios) == 98
    for s in scenarios:
        gens = build_generators(s).gens
        for g in gens:
            assert g.poly.is_homogeneous(g.degree)
            assert torus_weight(g.poly, s) == torus_weight(g.poly, s, g.degree) == per_term_weight(g.poly, s) == g.weight
        small = [g for g in gens if len(g.poly) <= 60]
        for a, b in (rng.sample(small, 2) for _ in range(min(5, len(small) // 2))):
            p = a.poly * b.poly
            assert p.is_homogeneous(a.degree + b.degree)
            assert torus_weight(p, s, a.degree + b.degree) == per_term_weight(p, s), (s, a.label, b.label)


def test_packed_weight_raises_on_zero_mixed_weight_and_mixed_degree():
    s = Scenario("gl", 3, 2, 1)
    with pytest.raises(ValueError, match="zero polynomial"):
        torus_weight(Polynomial.zero(s.nvars), s, 2)
    with pytest.raises(ValueError, match="mixed weight"):
        torus_weight(s.x_poly(0, 0) + s.x_poly(1, 0), s, 1)
    # x[1,1]*a[1,1] + 1 has weight 0 in both its degrees
    mixed_degree = s.x_poly(0, 0) * s.a_poly(0, 0) + 1
    assert torus_weight(mixed_degree, s) == (0, 0, 0)
    with pytest.raises(ValueError, match="homogeneous of degree 2"):
        torus_weight(mixed_degree, s, 2)
    with pytest.raises(ValueError, match="homogeneous of degree 3"):
        torus_weight(s.x_poly(0, 0) * s.a_poly(0, 0), s, 3)
    with pytest.raises(ValueError, match="universe"):
        torus_weight(Polynomial.variable(s.nvars + 1, 0), s)


def test_packed_weight_refuses_a_monomial_past_its_slot_sum_bound():
    # 49 variables: a slot may hold at most 2**10 - 1 = floor(0xFFFF / 49)
    # rounded down to one less than a power of two, so that the slot sum of
    # every monomial stays below 0xFFFF
    s = Scenario("o", 7, 7)
    assert s.nvars == 49
    top = Polynomial(s.nvars, {(1023,) * 49: 1})
    assert torus_weight(top, s, 49 * 1023) == per_term_weight(top, s) == (0, 0, 0)
    lopsided = Polynomial(s.nvars, {(1023,) + (0,) * 47 + (1000,): 1})
    assert torus_weight(lopsided, s, 2023) == per_term_weight(lopsided, s)
    with pytest.raises(ValueError, match="too large"):
        torus_weight(Polynomial(s.nvars, {(1024,) + (0,) * 48: 1}), s)
    with pytest.raises(ValueError, match="too large"):
        torus_weight(Polynomial(s.nvars, {(1,) * 48 + (2000,): 1}), s)
