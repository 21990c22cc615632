import random
from fractions import Fraction

import pytest

from covariants import generators, groups
from covariants.groups import variable_weights
from covariants.linalg import Matrix
from covariants.polynomial import Polynomial
from covariants.scenario import Scenario


def random_poly(rng: random.Random, nvars: int, max_degree: int = 3, max_terms: int = 4) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + Fraction(
            rng.randint(-5, 5), rng.randint(1, 4)
        )
    return Polynomial(nvars, terms)


def permute_variables(p: Polynomial, perm) -> Polynomial:
    """Relabel variables: old index i becomes ``perm[i]`` (a bijection)."""
    if sorted(perm) != list(range(p.nvars)):
        raise ValueError("perm must be a permutation of the variable indices")
    out = {}
    for exps, c in p.terms.items():
        e = [0] * p.nvars
        for i, ei in enumerate(exps):
            e[perm[i]] = ei
        out[tuple(e)] = c
    return Polynomial(p.nvars, out)


def exponent_weight(s, exps) -> tuple:
    """The torus weight of the monomial with exponent tuple ``exps``: the
    sum of its variables' ``variable_weights``, with multiplicity (oracle)."""
    table = variable_weights(s)
    return tuple(sum(e * w[i] for e, w in zip(exps, table)) for i in range(s.rank))


def random_frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def generic_element(monkeypatch):
    """Install a replacement for ``generators.generic_unipotent``, with the
    cached verdict table cleared before and after."""

    def install(fn):
        monkeypatch.setattr(generators, "generic_unipotent", fn)
        generators._generic_verdicts.cache_clear()

    yield install
    generators._generic_verdicts.cache_clear()


def below_diagonal_generic(group, n):
    """The generic element with its first row added to its last: det 1, and
    not triangular."""
    u = groups.generic_unipotent(group, n)
    return Matrix(u.rows[:-1] + (tuple(a + b for a, b in zip(u.rows[-1], u.rows[0])),))


def truncated_generic(group, n):
    """exp(xi), xi = sum_b t_b b, with its last term xi^(n-1)/(n-1)! left
    out: still unitriangular, and off the group where that term is a
    nonzero even power of xi."""
    basis = groups.nilradical_basis(Scenario(group, n, 0))
    xi = sum((Polynomial.variable(len(basis), k) * b for k, b in enumerate(basis)), Matrix.zero(n, n))
    one = Matrix([[Polynomial.const(len(basis), int(i == j)) for j in range(n)] for i in range(n)])
    term = total = one
    for k in range(1, n - 1):
        term = term * xi * Fraction(1, k)
        total = total + term
    return total
