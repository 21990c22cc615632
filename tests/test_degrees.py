import itertools
import random
from fractions import Fraction

import pytest

from covariants.degrees import (
    generator_pairs_for,
    gl_minimal_presentation,
    gl_presentation_oracle,
    min_degree_formula,
    min_degree_generated,
    min_degree_invariant,
)
from covariants.scenario import Scenario
from covariants.weights import eps_to_phi, in_weight_monoid, phi_to_eps


def steps_as_multiset(steps):
    return {(st.kind, st.index): st.multiplicity for st in steps}


def test_conversion_examples():
    gl = Scenario("gl", 5, 1)
    assert phi_to_eps(gl, (0, 1, 0, 0, 0)) == (1, 1, 0, 0, 0)
    o5 = Scenario("o", 5, 1)
    assert phi_to_eps(o5, (0, 1)) == (Fraction(1, 2), Fraction(1, 2))
    o6 = Scenario("o", 6, 1)
    assert phi_to_eps(o6, (0, 0, 1)) == (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))


def test_conversion_round_trip():
    rng = random.Random(4)
    for s in (
        Scenario("gl", 4, 1),
        Scenario("sp", 6, 1),
        *(Scenario("o", n, 1) for n in range(2, 7)),
    ):
        q = s.rank
        for _ in range(100):
            eps = tuple(rng.randint(-6, 6) for _ in range(q))
            phi = eps_to_phi(s, eps)
            assert phi_to_eps(s, phi) == eps
            assert eps_to_phi(s, phi_to_eps(s, phi)) == phi


def test_presentation_single_fundamental():
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            chi = tuple(int(j == i - 1) for j in range(n))
            steps, degree = gl_minimal_presentation(n, chi)
            assert degree == i
            assert steps_as_multiset(steps) == {("alpha", i): 1}


def test_presentation_examples():
    steps, degree = gl_minimal_presentation(2, (2, -1))
    assert degree == 2
    assert steps_as_multiset(steps) == {("alpha", 1): 1, ("beta", 1): 1}
    for n in (2, 3, 4):
        steps, degree = gl_minimal_presentation(n, tuple([0] * (n - 1) + [-1]))
        assert degree == n
        assert steps_as_multiset(steps) == {("beta", n): 1}


def test_presentation_against_exhaustive_oracle():
    for n in (2, 3, 4):
        for k in itertools.product(range(4), repeat=n - 1):
            for kn in range(-3, 4):
                chi = k + (kn,)
                _, degree = gl_minimal_presentation(n, chi)
                oracle_degree, minimizers = gl_presentation_oracle(n, chi)
                assert degree == oracle_degree, (n, chi)
                assert minimizers == 1, (n, chi)


def test_presentation_weights_sum_to_chi():
    rng = random.Random(8)
    for n in (3, 4):
        s = Scenario("gl", n, 1)
        for _ in range(50):
            chi = tuple(rng.randint(0, 3) for _ in range(n - 1)) + (rng.randint(-3, 3),)
            steps, _ = gl_minimal_presentation(n, chi)
            total = [0] * n
            for st in steps:
                if st.kind == "alpha":
                    w = phi_to_eps(s, tuple(int(j == st.index - 1) for j in range(n)))
                else:
                    phi = [0] * n
                    if st.index < n:
                        phi[st.index - 1] = 1
                    phi[n - 1] -= 1
                    w = phi_to_eps(s, tuple(phi))
                total = [a + st.multiplicity * b for a, b in zip(total, w)]
            assert tuple(total) == phi_to_eps(s, chi)


def test_formula_examples():
    assert min_degree_formula(Scenario("sp", 6, 6), (1, 0, 1)) == 4
    assert min_degree_formula(Scenario("o", 5, 5), (1, 2)) == 3
    assert min_degree_formula(Scenario("o", 6, 6), (0, 1, 1)) == 2


def test_formula_parity_guard():
    with pytest.raises(ValueError):
        min_degree_formula(Scenario("o", 5, 5), (1, 1))
    with pytest.raises(ValueError):
        min_degree_formula(Scenario("o", 6, 6), (0, 0, 1))


def test_gl_formula_regime_guard():
    with pytest.raises(ValueError):
        min_degree_formula(Scenario("gl", 3, 2, 3), (1, 0, 0))


def test_linearity_on_grid():
    for s in (Scenario("sp", 6, 6), Scenario("o", 5, 5), Scenario("o", 6, 6), Scenario("gl", 3, 3, 3)):
        for chi in itertools.product(range(3), repeat=s.rank):
            if s.group == "o" and not in_weight_monoid(s, chi):
                continue
            base = min_degree_formula(s, chi)
            for c in range(1, 5):
                assert min_degree_formula(s, tuple(c * k for k in chi)) == c * base


def test_combination_oracle_basics():
    s = Scenario("sp", 4, 4)
    pairs = generator_pairs_for(s)
    assert min_degree_generated(pairs, (0, 0)) == 0
    assert min_degree_generated(pairs, (-1, 0), cap=8) is None
    assert min_degree_generated(pairs, (1, 1), cap=8) == 3


def test_combination_oracle_matches_formula():
    for s in (Scenario("sp", 6, 6), Scenario("o", 5, 5), Scenario("o", 6, 6), Scenario("o", 7, 7)):
        pairs = generator_pairs_for(s)
        for chi in itertools.product(range(3), repeat=s.rank):
            if s.group == "o" and not in_weight_monoid(s, chi):
                continue
            f = min_degree_formula(s, chi)
            cap = f + 1
            assert min_degree_generated(pairs, chi, cap=cap) == f, (s, chi)


def test_formula_matches_generated_at_every_small_rank():
    # o n=2 is rank 1, where the even-orthogonal formula takes its own branch
    scenarios = [Scenario("o", n, n) for n in range(2, 8)]
    scenarios += [Scenario("sp", n, n) for n in (2, 4, 6)] + [Scenario("gl", n, n, n) for n in (2, 3)]
    for s in scenarios:
        pairs = generator_pairs_for(s)
        last = range(-2, 3) if s.group == "gl" else range(3)
        for head in itertools.product(range(3), repeat=s.rank - 1):
            for chi in (head + (k,) for k in last):
                if in_weight_monoid(s, chi):
                    assert min_degree_formula(s, chi) == min_degree_generated(pairs, chi, cap=12), (s, chi)


def test_ambient_oracle_basics():
    assert min_degree_invariant(Scenario("sp", 2, 2), (0,)) == 0
    # the parity-violating weight never appears, whatever the cap
    assert min_degree_invariant(Scenario("o", 5, 2), (0, 1), cap=3) is None
    assert min_degree_invariant(Scenario("sp", 2, 2), (1,)) == 1


def test_ambient_matches_formula_sp22():
    s = Scenario("sp", 2, 2)
    for t_chi in ((0,), (1,), (2,), (3,), (4,)):
        m = min_degree_invariant(s, t_chi, cap=4)
        n = min_degree_formula(s, t_chi)
        if m is not None:
            assert m == n
        else:
            assert n > 4
