import random
from fractions import Fraction

import pytest

from covariants.groups import variable_weights
from covariants.polynomial import Polynomial


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
