import dataclasses
import functools
import itertools
from fractions import Fraction

import pytest

from covariants.generators import (
    Generator,
    GeneratorSet,
    build_generators,
    check_invariance,
    generator_label,
    expected_weight_table,
    generator_monomials,
    monomial_poly,
    recipe_table,
    sp_high_minor_membership,
    weight_table_of,
)
from covariants import generators, groups, polynomial
from covariants.groups import (
    form_matrix,
    sample_unipotent,
    substitution_images,
    torus_weight,
)
from covariants.linalg import Matrix, minor
from covariants.polynomial import Polynomial
from covariants.rng import substream
from covariants.scenario import Scenario
from covariants.suite import ambient_grid, formula_scenarios, generation_grid, invariance_grid
from covariants.weights import integral_phi

from conftest import below_diagonal_generic, permute_variables, truncated_generic


def test_gl_2_2_1_generators():
    gs = build_generators(Scenario("gl", 2, 2, 1))
    assert gs.labels() == [
        "C[1][1]",
        "C[1][2]",
        "lowMinor[1;1]",
        "lowMinor[1;2]",
        "lowMinor[2;1,2]",
        "leftMinor[1;1]",
    ]
    s = gs.scenario
    assert gs.gens[gs.find("lowMinor", (0,))].poly == s.x_poly(1, 0)
    v = s.v_matrix()
    assert gs.gens[gs.find("lowMinor", (0, 1))].poly == v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]


def test_sp_2_2_generators():
    gs = build_generators(Scenario("sp", 2, 2))
    assert gs.labels() == ["Q[1][2]", "lowMinor[1;1]", "lowMinor[1;2]"]


def test_o_3_1_generators():
    gs = build_generators(Scenario("o", 3, 1))
    assert gs.labels() == ["Q[1][1]", "lowMinor[1;1]"]


def test_pinned_labels_with_cross_minors_and_truncated_sp_minors():
    assert build_generators(Scenario("o", 4, 2)).labels() == [
        "Q[1][1]",
        "Q[1][2]",
        "Q[2][2]",
        "lowMinor[1;1]",
        "lowMinor[1;2]",
        "lowMinor[2;1,2]",
        "crossMinor[2;1,2]",
    ]
    # sp stops the lower minors at order r = 2 although l = 3
    assert build_generators(Scenario("sp", 4, 3)).labels() == [
        "Q[1][2]",
        "Q[1][3]",
        "Q[2][3]",
        "lowMinor[1;1]",
        "lowMinor[1;2]",
        "lowMinor[1;3]",
        "lowMinor[2;1,2]",
        "lowMinor[2;1,3]",
        "lowMinor[2;2,3]",
    ]


def test_generator_label_and_find():
    assert generator_label("C", (0, 2)) == "C[1][3]"
    assert generator_label("Q", (1, 1)) == "Q[2][2]"
    assert generator_label("leftMinor", (0, 2)) == "leftMinor[2;1,3]"
    assert generator_label("crossMinor", range(3)) == "crossMinor[3;1,2,3]"
    gs = build_generators(Scenario("o", 4, 3))
    assert gs.find("crossMinor", (1, 2)) == gs.labels().index("crossMinor[2;2,3]")
    assert gs.find("Q", (0, 2)) == 2
    with pytest.raises(ValueError):
        gs.find("lowMinor", (0, 1, 2, 3))


def test_even_o_cross_minors_present():
    gs = build_generators(Scenario("o", 4, 4))
    cross = [lbl for lbl in gs.labels() if lbl.startswith("crossMinor")]
    assert len(cross) == 6  # order r = 2 column pairs out of 4
    assert not any(
        lbl.startswith("crossMinor") for lbl in build_generators(Scenario("o", 5, 5)).labels()
    )


def test_generator_invariants():
    for s in (Scenario("gl", 3, 2, 2), Scenario("o", 4, 3), Scenario("sp", 4, 2)):
        gs = build_generators(s)
        assert len(set(gs.labels())) == len(gs)
        for g in gs.gens:
            assert g.poly.is_homogeneous(g.degree)
            assert torus_weight(g.poly, s) == g.weight


def test_weight_table_gl_2_2_2():
    table = expected_weight_table(Scenario("gl", 2, 2, 2))
    assert set(table) == {
        (2, (0, 0)),
        (1, (1, 0)),
        (2, (0, 1)),
        (1, (1, -1)),
        (2, (0, -1)),
    }


def test_weight_table_o5_entries():
    table = set(expected_weight_table(Scenario("o", 5, 5)))
    assert (2, (0, 2)) in table  # degree r with doubled short weight
    assert (5, (0, 0)) in table  # degree n with trivial weight
    assert (3, (0, 2)) in table  # degree r + 1 repeat


def test_weight_table_sp_4_4():
    assert set(expected_weight_table(Scenario("sp", 4, 4))) == {
        (2, (0, 0)),
        (1, (1, 0)),
        (2, (0, 1)),
    }


def test_weight_table_matches_generators_on_grid():
    scenarios = [
        Scenario("gl", 2, 3, 2),
        Scenario("gl", 3, 3, 3),
        Scenario("o", 3, 4),
        Scenario("o", 4, 5),
        Scenario("o", 5, 5),
        Scenario("sp", 2, 3),
        Scenario("sp", 4, 4),
    ]
    for s in scenarios:
        assert weight_table_of(build_generators(s)) == set(expected_weight_table(s)), s


def test_weight_table_regime_guard():
    with pytest.raises(ValueError):
        expected_weight_table(Scenario("gl", 3, 2, 3))
    with pytest.raises(ValueError):
        expected_weight_table(Scenario("o", 4, 3))


def test_invariance_gl333():
    gs = build_generators(Scenario("gl", 3, 3, 3))
    assert check_invariance(gs, num_samples=100, seed=0) == (True, None)


def test_invariance_o44_with_cross_minors():
    gs = build_generators(Scenario("o", 4, 4))
    assert check_invariance(gs, num_samples=100, seed=0) == (True, None)


def test_injected_non_invariant_is_caught():
    s = Scenario("gl", 2, 2)
    gs = build_generators(s)
    bad = s.x_poly(0, 0)  # the top coordinate is moved by the raising operators
    injected = GeneratorSet(
        s, gs.gens + (Generator("bad", bad, 1, torus_weight(bad, s)),)
    )
    passed, witness = check_invariance(injected, num_samples=3, seed=0)
    assert not passed
    assert any(w["label"] == "bad" for w in witness["lie"])
    # the witness is the annihilation failure under the first raising operator
    assert Matrix.from_json(witness["lie"][0]["matrix"])[0, 1] == 1


def recipe_scenarios():
    """Every suite grid, o n=2..7 and sp n=2, 4, 6 with l <= 5, gl n <= 4 with l, m <= 4."""
    groups = ("gl", "o", "sp")
    out = set(invariance_grid(groups) + generation_grid(groups) + ambient_grid(groups) + formula_scenarios(groups))
    out |= {Scenario("o", n, l) for n in range(2, 8) for l in range(6)}
    out |= {Scenario("sp", n, l) for n in (2, 4, 6) for l in range(6)}
    out |= {Scenario("gl", n, l, m) for n in range(1, 5) for l in range(5) for m in range(5)}
    return sorted(out, key=lambda s: (s.group, s.n, s.l, s.m))


def expected_recipes(s):
    """{(kind, index): poly} in generator order, from sums of variable
    products and ``linalg.minor``, independently of ``recipe_table``."""
    n, l, m, r = s.n, s.l, s.m, s.r
    vbar, vstar = s.v_matrix(), s.vstar_matrix()
    out = {}
    for i, j in itertools.product(range(m), range(l)):
        out["C", (i, j)] = sum((s.a_poly(i, k) * s.x_poly(k, j) for k in range(n)), Polynomial.zero(s.nvars))
    if s.group != "gl":
        f = form_matrix(s)
        for i, j in itertools.combinations_with_replacement(range(l), 2):
            if i < j or s.group == "o":
                out["Q", (i, j)] = sum(
                    (f[a, b] * s.x_poly(a, i) * s.x_poly(b, j) for a in range(n) for b in range(n) if f[a, b]),
                    Polynomial.zero(s.nvars),
                )
    for p in range(1, (min(l, r) if s.group == "sp" else min(l, n)) + 1):
        for cols in itertools.combinations(range(l), p):
            out["lowMinor", cols] = minor(vbar, range(n - p, n), cols)
    for p in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), p):
            out["leftMinor", rows] = minor(vstar, rows, range(p))
    if s.case == "D" and l >= r:
        for cols in itertools.combinations(range(l), r):
            out["crossMinor", cols] = minor(vbar, [r - 1, *range(n - r + 1, n)], cols)
    return out


def test_recipe_table_is_the_generator_list():
    scenarios = recipe_scenarios()
    assert len(scenarios) == 157
    for s in scenarios:
        gs = build_generators(s)
        table = recipe_table(s, s.v_matrix(), s.vstar_matrix())
        expected = expected_recipes(s)
        assert list(table) == list(expected) == [g.recipe for g in gs], s
        for g in gs:
            kind, index = g.recipe
            assert table[g.recipe] == expected[g.recipe] == g.poly, (s, g.label)
            assert g.label == generator_label(kind, index)
            assert g.degree == (2 if kind in ("C", "Q") else len(index))


def test_a_replaced_poly_keeps_the_substitution_path():
    cases = [
        (Scenario("gl", 2, 2), ("lowMinor", (0,))),
        (Scenario("gl", 2, 2, 2), ("C", (1, 0))),
        (Scenario("o", 5, 2), ("Q", (0, 1))),
        (Scenario("o", 4, 2), ("crossMinor", (0, 1))),
    ]
    for s, recipe in cases:
        # the generator keeps its recipe but its poly becomes a power of x[1,1]
        gs = build_generators(s)
        at = gs.find(*recipe)
        label = gs.gens[at].label
        assert gs.gens[at].recipe == recipe

        def replaced(poly):
            return GeneratorSet(s, gs.gens[:at] + (dataclasses.replace(gs.gens[at], poly=poly),) + gs.gens[at + 1 :])

        # in these scenarios every sample of seed 1 moves x[1,1]
        passed, witness = check_invariance(replaced(s.x_poly(0, 0) ** gs.gens[at].degree), num_samples=4, seed=1)
        assert not passed
        assert {w["label"] for w in witness["lie"]} == {label}
        assert [(w["label"], w["sample_index"]) for w in witness["samples"]] == [(label, k) for k in range(4)]
        # an invariant poly that is not its recipe passes: it is substituted, not read off the table
        assert check_invariance(replaced(2 * gs.gens[at].poly), num_samples=4, seed=1) == (True, None)


def test_no_generator_is_substituted(monkeypatch):
    # every recipe generator's verdict comes from minors of the generic
    # element: nothing is substituted or inverted, and the one recipe table
    # is the one at (V, V*)
    calls = {"substitute": 0, "substitution_images": 0, "inverse": 0, "recipe_table": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(Polynomial, "substitute", counted("substitute", Polynomial.substitute))
    monkeypatch.setattr(generators, "substitution_images", counted("substitution_images", substitution_images))
    monkeypatch.setattr(Matrix, "inverse", counted("inverse", Matrix.inverse))
    for s, kinds in (
        (Scenario("o", 5, 5), {"Q", "lowMinor"}),
        (Scenario("o", 4, 4), {"Q", "lowMinor", "crossMinor"}),
        (Scenario("gl", 3, 3, 3), {"C", "lowMinor", "leftMinor"}),
    ):
        gs = build_generators(s)
        assert {g.recipe[0] for g in gs} == kinds
        for num_samples in (1, 3, 10):
            with monkeypatch.context() as m:
                m.setattr(generators, "recipe_table", counted("recipe_table", recipe_table))
                assert check_invariance(gs, num_samples=num_samples, seed=1) == (True, None)
            assert calls["recipe_table"] == 1, (s, num_samples)
            calls["recipe_table"] = 0
    assert calls == {"substitute": 0, "substitution_images": 0, "inverse": 0, "recipe_table": 0}


def test_building_the_largest_system_unpacks_no_monomial(monkeypatch):
    # degrees and weights are read off the packed monomials: building o n=7
    # l=7 (about 13,900 monomials in 49 variables) makes no exponent tuple
    calls = []
    for module in (polynomial, generators):
        real = module.unpack
        monkeypatch.setattr(module, "unpack", lambda m, nvars, real=real: calls.append(m) or real(m, nvars))
    gs = build_generators(Scenario("o", 7, 7))
    assert sum(len(g.poly) for g in gs) > 13_000
    assert calls == []
    assert gs.gens[0].poly.degree() == 2 and len(calls) == len(gs.gens[0].poly)  # the counter counts


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda p, s: Polynomial.zero(s.nvars), "zero polynomial"),
        (lambda p, s: p + s.x_poly(0, 0) ** 2, "mixed weight"),
        # x[1,j]*x[n,j] has weight 0, so these keep the weight and move the degree
        (lambda p, s: p + s.x_poly(0, 0) * s.x_poly(s.n - 1, 0) * s.x_poly(0, 1) * s.x_poly(s.n - 1, 1), "degree 2"),
        (lambda p, s: p * s.x_poly(0, 0) * s.x_poly(s.n - 1, 0), "degree 2"),
    ],
    ids=["zero", "mixed-weight", "mixed-degree", "wrong-degree"],
)
def test_build_generators_raises_on_a_recipe_poly_of_no_degree_or_weight(monkeypatch, fault, message):
    # a ValueError, not an assert, so that python -O keeps the check
    s = Scenario("o", 4, 2)
    table = recipe_table(s, s.v_matrix(), s.vstar_matrix())
    key = ("Q", (0, 0))
    assert torus_weight(table[key], s) == (0, 0)
    table[key] = fault(table[key], s)
    monkeypatch.setattr(generators, "recipe_table", lambda *args: table)
    with pytest.raises(ValueError, match=message):
        build_generators(s)


def substituted_samples(gs, samples):
    """The minor verdicts of ``generators._fixes_recipes``, done
    symbolically: at each sample ``(c, c*u)`` every generator's image is
    read off ``recipe_table`` at the acted matrices (c*u*V, V*u^-1), built
    from ``substitution_images``.  Returns the ``samples`` witness list."""
    s = gs.scenario
    out = []
    for k, (c, cu) in enumerate(samples):
        images = substitution_images(cu, s)
        acted = recipe_table(
            s,
            Matrix([[images[s.x_var(i, j)] for j in range(s.l)] for i in range(s.n)]),
            Matrix([[images[s.a_var(i, j)] for j in range(s.n)] for i in range(s.m)]),
        )
        u = (cu * Fraction(1, c)).to_json()
        out += [
            {"label": g.label, "sample_index": k, "matrix": u}
            for g in gs.gens
            if acted[g.recipe] != c**g.degree * g.poly
        ]
    return out


def below_diagonal_fault(s, rng):
    """A sample with its first row added to its last: for n > 1 its
    determinant is unchanged and it is not triangular."""
    c, cu = sample_unipotent(s, rng)
    rows = [list(row) for row in cu.rows]
    rows[-1] = [a + b for a, b in zip(rows[-1], rows[0])]
    return c, Matrix(rows)


def upper_corner_fault(s, rng):
    """A sample with 1 added to the entry of u in its upper right corner."""
    c, cu = sample_unipotent(s, rng)
    rows = [list(row) for row in cu.rows]
    rows[0][-1] += c
    return c, Matrix(rows)


def det_two_fault(s, rng):
    """A sample with its first row doubled: determinant 2, so on the
    V*-copies u^-1 has determinant 1/2."""
    c, cu = sample_unipotent(s, rng)
    rows = [list(row) for row in cu.rows]
    rows[0][0] *= 2
    return c, Matrix(rows)


def singular_fault(s, rng):
    """A sample whose last row is zero."""
    c, cu = sample_unipotent(s, rng)
    return c, Matrix(cu.rows[:-1] + ((0,) * s.n,))


@functools.lru_cache(maxsize=None)
def oracle_systems():
    """The generators of every recipe scenario but o n=7 l=7 (49 variables),
    whose symbolic images alone take seconds; no criterion checks its
    invariance."""
    return [build_generators(s) for s in recipe_scenarios() if s != Scenario("o", 7, 7)]


def minor_samples(gs, samples):
    """The ``samples`` witness list that ``generators._fixes_recipes`` gives
    at each sample ``(c, c*u)``, read off the minors of u."""
    out = []
    for k, (c, cu) in enumerate(samples):
        u = cu * Fraction(1, c)
        fixes = generators._fixes_recipes(gs.scenario, u)
        out += [{"label": g.label, "sample_index": k, "matrix": u.to_json()} for g in gs.gens if not fixes[g.recipe[0], g.degree]]
    return out


@pytest.mark.parametrize(
    "sampler", [sample_unipotent, below_diagonal_fault, upper_corner_fault, det_two_fault, singular_fault]
)
def test_integer_sample_side_matches_substitution(sampler):
    # the minor verdicts that criterion 1 reads off the generic element of U,
    # taken at the draws of true and faulty samplers, against substitution
    systems = oracle_systems()
    if sampler in (det_two_fault, singular_fault):
        # u^-1 acts only on the V*-copies, so only there can det u matter
        systems = [gs for gs in systems if gs.scenario.m]
    failed = 0
    for gs in systems:
        s = gs.scenario
        for seed in (1, 2):
            rng = substream(seed, f"invariance:{s.group}:{s.n}:{s.l}:{s.m}")
            drawn = [sampler(s, rng) for _ in range(3)]
            if sampler is singular_fault:
                # every sample is singular, on both sides
                with pytest.raises(ValueError, match="singular matrix"):
                    minor_samples(gs, drawn)
                with pytest.raises(ValueError, match="singular matrix"):
                    substituted_samples(gs, drawn)
                failed += 1
                continue
            samples = substituted_samples(gs, drawn)
            assert minor_samples(gs, drawn) == samples, (s, seed)
            failed += bool(samples)
    # the faulty samplers are caught somewhere, the true one nowhere
    assert (failed > 0) == (sampler is not sample_unipotent)


def test_the_generic_verdicts_cover_every_recipe_generator():
    # one table per (group, n) holds every (kind, degree) of the grid's
    # recipe generators, all true; gl n=1 has an empty nilradical, u = (1)
    scenarios = invariance_grid(("gl", "o", "sp")) + [Scenario("gl", 1, 2, 1), Scenario("gl", 1, 0, 3)]
    assert groups.generic_unipotent("gl", 1) == Matrix([[Polynomial.const(0, 1)]])
    for s in scenarios:
        u = groups.generic_unipotent(s.group, s.n)
        assert all(u[i, j] == (i == j) for i in range(s.n) for j in range(i + 1))
        fixes = generators._generic_verdicts(s.group, s.n)
        assert all(fixes.values()), (s.group, s.n)
        assert {(g.recipe[0], g.degree) for g in build_generators(s)} <= set(fixes), s
    assert len({(s.group, s.n) for s in scenarios}) == 9


def test_recipe_generators_draw_no_sample(monkeypatch):
    # a recipe generator is decided on the generic element, never on a draw
    def refused(s, rng):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(generators, "sample_unipotent", refused)
    for s in (Scenario("gl", 3, 2, 2), Scenario("gl", 2, 0, 1), Scenario("o", 4, 4), Scenario("o", 5, 3), Scenario("sp", 4, 3)):
        assert check_invariance(build_generators(s), num_samples=100, seed=1) == (True, None)
    # one poly that is not its recipe: now each sample is drawn once
    drawn = []
    monkeypatch.setattr(generators, "sample_unipotent", lambda s, rng: drawn.append(s) or sample_unipotent(s, rng))
    s = Scenario("o", 5, 3)
    gs = build_generators(s)
    gs = GeneratorSet(s, (dataclasses.replace(gs.gens[0], poly=2 * gs.gens[0].poly),) + gs.gens[1:])
    for num_samples in (0, 1, 7):
        drawn.clear()
        assert check_invariance(gs, num_samples=num_samples, seed=1) == (True, None)
        assert drawn == [s] * num_samples


FAULTY_GENERIC_CASES = {
    below_diagonal_generic: [
        (Scenario("gl", 3, 2, 1), {"lowMinor", "leftMinor"}),
        (Scenario("gl", 2, 0, 2), {"leftMinor"}),
        (Scenario("o", 5, 3), {"Q", "lowMinor"}),
        (Scenario("o", 4, 2), {"Q", "lowMinor", "crossMinor"}),
        # adding row 1 to row n is a symplectic transvection: Q holds
        (Scenario("sp", 4, 2), {"lowMinor"}),
    ],
    # still unitriangular, so only Q sees the cut term xi^k/k!, and only
    # where k is even: an odd power of xi is in the Lie algebra of the group,
    # and as the series' last term (xi^(k+1) = 0) leaving it out keeps the form
    truncated_generic: [
        (Scenario("gl", 3, 2, 1), set()),
        (Scenario("o", 3, 2), {"Q"}),
        (Scenario("o", 5, 3), {"Q"}),
        (Scenario("o", 4, 4), set()),  # xi^3 = 0: nothing is cut
        (Scenario("sp", 4, 2), set()),  # xi^3 is cut
    ],
}


@pytest.mark.parametrize("fault", list(FAULTY_GENERIC_CASES), ids=["below_diagonal", "truncated"])
def test_a_faulty_generic_element_fails_with_a_generic_witness(generic_element, fault):
    generic_element(fault)
    for s, failing in FAULTY_GENERIC_CASES[fault]:
        gs = build_generators(s)
        passed, witness = check_invariance(gs, num_samples=5, seed=1)
        if not failing:
            assert (passed, witness) == (True, None), s
            continue
        assert not passed
        # the Lie side passes and no sample is drawn; the labels come in generator order
        assert witness["lie"] == witness["samples"] == []
        assert witness["generic"] == [g.label for g in gs if g.label in witness["generic"]]
        assert {lbl.split("[")[0] for lbl in witness["generic"]} == failing, s


def test_sample_witness_is_the_rational_unipotent_element():
    # samples are substituted as c*u, but the report shows u itself
    s = Scenario("o", 5, 2)
    gs = build_generators(s)
    bad = s.x_poly(0, 0)
    injected = GeneratorSet(s, gs.gens + (Generator("bad", bad, 1, torus_weight(bad, s)),))
    _, witness = check_invariance(injected, num_samples=3, seed=0)
    assert [(w["label"], w["sample_index"]) for w in witness["samples"]] == [("bad", 0), ("bad", 1), ("bad", 2)]
    q = form_matrix(s)
    u = Matrix.from_json(witness["samples"][0]["matrix"])
    assert all(u[i, j] == (i == j) for i in range(5) for j in range(i + 1))
    assert u.transpose() * q * u == q
    assert any(Fraction(x).denominator != 1 for row in u.rows for x in row)


def test_a_sample_with_denominators_cannot_act_on_dual_copies(monkeypatch):
    from covariants.suite import _timed

    monkeypatch.setattr(generators, "sample_unipotent", lambda s, rng: (2, 2 * Matrix.identity(s.n)))
    gs = build_generators(Scenario("gl", 2, 1, 1))
    # samples act only on a poly that is not its recipe: make C[1][1] one
    gs = GeneratorSet(gs.scenario, (dataclasses.replace(gs.gens[0], poly=2 * gs.gens[0].poly),) + gs.gens[1:])
    with pytest.raises(ValueError, match="V\\*-copies"):
        check_invariance(gs, num_samples=1)
    result = _timed("invariance", lambda: check_invariance(gs, num_samples=1))
    assert result.verdict == "error" and result.witness.startswith("ValueError: ")


def test_copy_permutation_symmetry():
    # permuting the V-copies permutes the generating set up to minor signs
    for s in (Scenario("gl", 2, 3, 1), Scenario("o", 4, 3), Scenario("sp", 4, 3)):
        gs = build_generators(s)
        pool = []
        for g in gs.gens:
            pool.append(g.poly)
            pool.append(-g.poly)
        for perm in itertools.permutations(range(s.l)):
            mapping = list(range(s.nvars))
            for j in range(s.l):
                for i in range(s.n):
                    mapping[s.x_var(i, j)] = s.x_var(i, perm[j])
            for g in gs.gens:
                assert permute_variables(g.poly, mapping) in pool, (s, g.label, perm)


def test_generator_monomials_counts():
    gs = build_generators(Scenario("sp", 2, 2))  # degrees 2, 1, 1
    assert generator_monomials(gs, 0) == [()]
    assert len(generator_monomials(gs, 1)) == 2
    assert len(generator_monomials(gs, 2)) == 4
    for mono in generator_monomials(gs, 3):
        p = monomial_poly(gs, mono)
        assert p.is_homogeneous(3)


def test_sp_high_minor_membership_small():
    ok, cert = sp_high_minor_membership(Scenario("sp", 2, 2), 2)
    assert ok
    assert cert["lowMinor[2;1,2]"] == {"Q[1][2]": "1"}


def test_sp_high_minor_membership_4_3():
    ok, cert = sp_high_minor_membership(Scenario("sp", 4, 3), 3)
    assert ok
    assert all(combo for combo in cert.values())


def test_sp_high_minor_low_order_trivial():
    ok, cert = sp_high_minor_membership(Scenario("sp", 4, 3), 2)
    assert ok
    assert all(cert[lbl] == {lbl: "1"} for lbl in cert)


def test_json_shape():
    gs = build_generators(Scenario("gl", 2, 2, 1))
    data = gs.to_json()
    assert data["scenario"] == {"group": "gl", "n": 2, "l": 2, "m": 1}
    assert len(data["generators"]) == 6
    entry = data["generators"][0]
    assert set(entry) == {"label", "degree", "weight_phi", "poly"}


def test_weight_phi_integrality():
    for s in (Scenario("o", 5, 3), Scenario("o", 6, 3), Scenario("sp", 4, 2)):
        for g in build_generators(s).gens:
            phi = integral_phi(s, g.weight)
            assert all(isinstance(k, int) for k in phi)
