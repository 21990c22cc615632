import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from covariants import dimensions, rng, suite
from covariants.dimensions import (
    CapExceeded,
    SeedDisagreement,
    _dominant,
    _expanded_rank,
    _frac_mod,
    _gen_values_mod,
    _two_rho,
    _two_seed_ranks,
    _weight_blocks,
    _weight_counts,
    _weyl_group,
    _weyl_shifts,
    degree_monomial_count,
    generated_dimension,
    invariant_weight_dims,
    minimality_check,
    monomial_eval_matrix,
    weight_blocks,
)
from covariants.generators import (
    Generator,
    GeneratorSet,
    build_generators,
    generator_monomials,
    monomial_poly,
    weighted_monomials,
)
from covariants.groups import (
    derivation_images,
    derive_monomial,
    lie_act_on_polynomial,
    nilradical_basis,
    torus_weight,
    variable_weights,
)
from covariants.linalg import PRIME_A, PRIME_B, rank, rank_mod_p, sparse_rank_int
from covariants.polynomial import Polynomial, variable_key
from covariants.rng import residue_points
from covariants.scenario import GROUPS, Scenario
from covariants.suite import generation_check, generation_grid, invariance_grid

from conftest import exponent_weight


def test_weighted_monomials_enumeration():
    monos = weighted_monomials([1, 1, 1], 2)
    assert len(monos) == degree_monomial_count(3, 2) == 6
    assert all(sum(e for _, e in m) == 2 for m in monos)
    assert len(set(monos)) == 6
    for nvars in range(5):
        for t in range(5):
            assert len(weighted_monomials([1] * nvars, t)) == degree_monomial_count(nvars, t), (nvars, t)
    assert weighted_monomials([], 0) == [()] and weighted_monomials([], 2) == []
    # letters of degrees 2, 1, 3: the degree-4 monomials
    mixed = weighted_monomials([2, 1, 3], 4)
    assert mixed == [((0, 1), (1, 2)), ((0, 2),), ((1, 1), (2, 1)), ((1, 4),)]
    for m in weighted_monomials([1, 2, 1, 3], 6):
        assert [i for i, _ in m] == sorted(set(i for i, _ in m))
        assert all(e > 0 for _, e in m)


def _dense_monomials(s: Scenario, t: int) -> list:
    return [exps for exps in itertools.product(range(t + 1), repeat=s.nvars) if sum(exps) == t]


def _dense_nullity(s: Scenario, block) -> int:
    """Dimension of the invariants spanned by the monomials ``block`` (dense
    exponent tuples), from ``lie_act_on_polynomial`` and a dense exact rank."""
    images = [[lie_act_on_polynomial(xi, Polynomial(s.nvars, {e: 1}), s) for e in block] for xi in nilradical_basis(s)]
    targets = sorted({e for row in images for q in row for e in q.terms})
    rows = [[q.terms.get(e, 0) for q in row] for row in images for e in targets]
    return len(block) - rank(rows)


def _brute_force_weight_dims(s: Scenario, t: int) -> dict:
    """Degree-t invariant dimension per weight from ``_dense_nullity``."""
    blocks: dict[tuple, list] = {}
    for exps in _dense_monomials(s, t):
        blocks.setdefault(exponent_weight(s, exps), []).append(exps)
    dims = {w: _dense_nullity(s, block) for w, block in blocks.items()}
    return {w: d for w, d in dims.items() if d}


def _kernel_weight_dims(s: Scenario, t: int) -> dict:
    """Degree-t invariant dimension per weight as the exact kernel of the
    nilradical's derivation rows, one sparse integer kernel per weight block
    of the degree-t monomials in the variables."""
    blocks = _weight_blocks([1] * s.nvars, variable_weights(s), s.rank, t)
    images_per_xi = [derivation_images(xi, s) for xi in nilradical_basis(s)]
    dims = {}
    for wkey, monos in sorted(blocks.items()):
        rows: dict[tuple, dict[int, int]] = {}
        for col, factors in enumerate(monos):
            m = sum(e * variable_key(v) for v, e in factors)
            for xi_idx, images in enumerate(images_per_xi):
                # the targets of one monomial are distinct (see derive_monomial)
                for target, coeff in derive_monomial(m, factors, images):
                    rows.setdefault((xi_idx, target), {})[col] = coeff
        nullity = len(monos) - sparse_rank_int(list(rows.values()))
        if nullity:
            dims[wkey] = nullity
    return dims


# the generation grid and six more: gl at n=1, o n=2 (trivial U), o n=5, sp n=6, gl n=4
CHARACTER_SCENARIOS = list(
    dict.fromkeys(
        generation_grid(GROUPS)
        + [
            Scenario("gl", 1, 2, 1),
            Scenario("gl", 1, 3),
            Scenario("o", 2, 3),
            Scenario("o", 5, 2),
            Scenario("sp", 6, 2),
            Scenario("gl", 4, 2, 2),
        ]
    )
)


def _simple_roots(s: Scenario) -> list[tuple]:
    r, unit = s.rank, lambda i: tuple(int(j == i) for j in range(s.rank))
    roots = [tuple(a - b for a, b in zip(unit(i), unit(i + 1))) for i in range(r - 1)]
    if s.case == "B":
        roots.append(unit(r - 1))
    elif s.case == "C":
        roots.append(tuple(2 * a for a in unit(r - 1)))
    elif s.case == "D" and r > 1:
        roots.append(tuple(a + b for a, b in zip(unit(r - 2), unit(r - 1))))
    return roots


def _is_dominant(s: Scenario, lam) -> bool:
    """Nonnegative against every simple root: the definition, not ``_dominant``'s rule."""
    return all(sum(a * b for a, b in zip(lam, alpha)) >= 0 for alpha in _simple_roots(s))


def test_character_formula_equals_the_derivation_kernel():
    assert len(CHARACTER_SCENARIOS) == 48
    nondominant_sums = 0
    for s in CHARACTER_SCENARIOS:
        shifts = _weyl_shifts(s.case, s.rank)
        for t in range(5):
            dims = invariant_weight_dims(s, t)
            assert dims == _kernel_weight_dims(s, t), (s, t)
            assert all(_is_dominant(s, lam) for lam in dims), (s, t)
            # the alternating sum is no multiplicity off the dominant weights
            counts = _weight_counts(s, t)
            for lam in counts:
                assert _dominant(s.case, lam) == _is_dominant(s, lam), (s, lam)
                if not _dominant(s.case, lam):
                    nondominant_sums += sum(sign * counts.get(tuple(map(sum, zip(lam, shift))), 0) for shift, sign in shifts) != 0
    assert nondominant_sums > 0


def test_weight_counts_count_the_monomials():
    for s in (Scenario("gl", 3, 2, 1), Scenario("o", 5, 2), Scenario("sp", 4, 2)):
        for t in range(4):
            blocks = _weight_blocks([1] * s.nvars, variable_weights(s), s.rank, t)
            assert _weight_counts(s, t) == {w: len(ms) for w, ms in blocks.items()}, (s, t)


@pytest.mark.parametrize(
    "s, two_rho, shifts, dominant, not_dominant",
    [
        # gl n=1: W = 1, every weight dominant
        (Scenario("gl", 1, 2, 1), (0,), {((0,), 1)}, [(-2,), (0,), (3,)], []),
        # D1, o n=2: so(2) is its torus, W = 1 and U = 1
        (Scenario("o", 2, 3), (0,), {((0,), 1)}, [(-2,), (0,), (3,)], []),
        # B1, o n=3: W = {1, -1}, rho = 1/2
        (Scenario("o", 3, 2), (1,), {((0,), 1), ((1,), -1)}, [(0,), (2,)], [(-1,)]),
        # C1, sp n=2: W = {1, -1}, rho = 1
        (Scenario("sp", 2, 2), (2,), {((0,), 1), ((2,), -1)}, [(0,), (2,)], [(-1,)]),
        # D2 = A1 x A1, o n=4: rho = (1, 0), lam_1 >= |lam_2|
        (
            Scenario("o", 4, 2),
            (2, 0),
            {((0, 0), 1), ((1, -1), -1), ((2, 0), 1), ((1, 1), -1)},
            [(0, 0), (1, 1), (1, -1), (2, 0)],
            [(0, -1), (0, 1), (1, 2), (-1, 0)],
        ),
    ],
    ids=["gl1", "D1", "B1", "C1", "D2"],
)
def test_low_rank_weyl_data(s, two_rho, shifts, dominant, not_dominant):
    assert _two_rho(s.case, 0) == () and _weyl_shifts(s.case, 0) == (((), 1),)  # a rank-0 torus
    assert _two_rho(s.case, s.rank) == two_rho
    assert set(_weyl_shifts(s.case, s.rank)) == shifts and len(_weyl_shifts(s.case, s.rank)) == len(shifts)
    assert all(_dominant(s.case, lam) for lam in dominant)
    assert not any(_dominant(s.case, lam) for lam in not_dominant)
    for t in range(5):
        assert invariant_weight_dims(s, t) == _kernel_weight_dims(s, t), t


@pytest.mark.parametrize("case, r, order", [("A", 2, 2), ("A", 3, 6), ("A", 4, 24), ("B", 3, 48), ("C", 2, 8), ("C", 3, 48), ("D", 3, 24), ("D", 4, 192)])
def test_weyl_groups_are_the_signed_permutations(case, r, order):
    group = _weyl_group(case, r)
    assert len(group) == len(set(group)) == order
    signs = [sign for _, sign in _weyl_shifts(case, r)]
    assert sum(signs) == 0 and signs.count(-1) == order // 2
    # rho is regular: the shifts rho - w(rho) are distinct, and only w = 1 fixes it
    assert len({shift for shift, _ in _weyl_shifts(case, r)}) == order
    assert [sign for shift, sign in _weyl_shifts(case, r) if not any(shift)] == [1]


@pytest.mark.parametrize(
    "s",
    [
        Scenario("gl", 2, 1, 1),
        Scenario("gl", 3, 1, 1),
        Scenario("o", 3, 2),
        Scenario("o", 4, 2),
        Scenario("sp", 4, 1),
        Scenario("sp", 2, 2),
    ],
)
def test_invariant_weight_dims_match_a_brute_force_oracle(s):
    for t in range(4):
        assert invariant_weight_dims(s, t) == _brute_force_weight_dims(s, t), (s, t)


def test_degree_zero_dimensions():
    s = Scenario("sp", 2, 1)
    assert invariant_weight_dims(s, 0) == {(0,): 1}
    assert generated_dimension(build_generators(s), 0) == {(0,): 1}
    empty = Scenario("gl", 2, 0, 0)  # no variables: only the constants
    assert invariant_weight_dims(empty, 0) == {(0, 0): 1} and invariant_weight_dims(empty, 1) == {}


def test_single_copy_gl_line():
    # one copy, no duals: only powers of the bottom coordinate survive
    s = Scenario("gl", 2, 1, 0)
    gs = build_generators(s)
    for t in range(5):
        assert invariant_weight_dims(s, t) == {(0, -t): 1}
        assert generated_dimension(gs, t) == {(0, -t): 1}


def test_weight_refinement_sums_to_total():
    s = Scenario("o", 3, 2)
    for t in range(4):
        dims = invariant_weight_dims(s, t)
        # the weight blocks lose nothing: one kernel over all monomials agrees
        assert sum(dims.values()) == _dense_nullity(s, _dense_monomials(s, t))
        assert all(d > 0 for d in dims.values())


def test_invariant_dimension_with_weight():
    s = Scenario("gl", 2, 1, 0)
    # degree 3 invariants: the cube of the bottom coordinate, weight -3 eps_2
    assert invariant_weight_dims(s, 3).get((0, -3), 0) == 1
    assert invariant_weight_dims(s, 3).get((-3, 0), 0) == 0


def test_generation_matches_on_small_grid():
    for s in (
        Scenario("sp", 2, 2),
        Scenario("o", 3, 2),
        Scenario("gl", 2, 2, 1),
        Scenario("gl", 2, 0, 2),
    ):
        gs = build_generators(s)
        for t in range(5):
            assert generated_dimension(gs, t) == invariant_weight_dims(s, t), (s, t)


def test_weight_blocks_partition_the_generator_monomials():
    for s in (Scenario("gl", 3, 2, 2), Scenario("o", 4, 3), Scenario("sp", 4, 3)):
        gs = build_generators(s)
        for t in range(4):
            blocks, monos = weight_blocks(gs, t), generator_monomials(gs, t)
            assert sorted(m for ms in blocks.values() for m in ms) == monos
            weights = [torus_weight(monomial_poly(gs, m), s) for m in monos]
            for w, ms in blocks.items():
                assert all(type(x) is int for x in w)
                assert ms == [m for m, v in zip(monos, weights) if v == w]
        assert weight_blocks(gs, 0) == {(0,) * s.rank: [()]}


def test_empty_generator_set():
    s = Scenario("o", 4, 3)
    empty = GeneratorSet(s, ())
    assert weight_blocks(empty, 0) == {(0, 0): [()]}
    assert generated_dimension(empty, 0) == {(0, 0): 1}
    for t in (1, 2):
        assert weight_blocks(empty, t) == {}
        assert generated_dimension(empty, t) == {}


def _gl_degree_3_blocks():
    gs = build_generators(Scenario("gl", 3, 2, 2))
    return gs, [((3, w), ms, 2 * len(ms), ()) for w, ms in weight_blocks(gs, 3).items()]


def _o_minimality_blocks():
    """The first-pass blocks of ``minimality_check`` on o (4,3), built here."""
    gs = build_generators(Scenario("o", 4, 3))
    batch = []
    for d, w in sorted({(g.degree, g.weight) for g in gs.gens}):
        gens = [((i, 1),) for i, g in enumerate(gs.gens) if (g.degree, g.weight) == (d, w)]
        base = [m for m in weight_blocks(gs, d)[w] if m not in gens]
        batch.append(((d, w), base + gens, len(base) + len(gens) + 32, (len(base),)))
    return gs, batch


@pytest.mark.parametrize("blocks", [_gl_degree_3_blocks, _o_minimality_blocks])
def test_batched_ranks_match_blocks_ranked_alone(blocks, monkeypatch):
    gs, batch = blocks()
    assert len(batch) > 1 and len({n for _, _, n, _ in batch}) > 1
    alone = [_two_seed_ranks(gs, [block], 3, f"alone:{k}")[0] for k, block in enumerate(batch)]
    seen = []
    monkeypatch.setattr(dimensions, "rank_mod_p", lambda mats, ps: seen.append((mats, ps)) or rank_mod_p(mats, ps))
    assert _two_seed_ranks(gs, batch, 3, "batch") == alone

    # each block is ranked on its own rows of the shared matrices, at its own column
    # prefix, both primes in one stack; its heads too unless it has full row rank
    monomials = [m for _, ms, _, _ in batch for m in ms]
    npoints = max(n for _, _, n, _ in batch)
    shared = [
        monomial_eval_matrix(gs, monomials, npoints, 3, ("batch" + tag,), (p,))[0]
        for tag, p in ((":1", PRIME_A), (":2", PRIME_B))
    ]
    expected, lo = [], 0
    for (_, ms, n, heads), ranks in zip(batch, alone):
        sub = np.stack([mat[lo : lo + len(ms), :n] for mat in shared])
        expected += [sub] + ([] if ranks[-1] == len(ms) else [sub[:, :h] for h in heads])
        lo += len(ms)
    assert len(seen) == len(expected)
    for (got, ps), want in zip(seen, expected):
        assert tuple(ps) == (PRIME_A, PRIME_B) and np.array_equal(got, want)


def test_head_ranks_are_taken_only_short_of_full_row_rank(monkeypatch):
    gs, batch = _o_minimality_blocks()
    (d, w), rows, n, (nbase,) = batch[-1]
    ((base, full),) = _two_seed_ranks(gs, [batch[-1]], 3, "heads")
    assert full == len(rows) > base == nbase  # full row rank: the head's rank is its row count
    # a repeated row makes the block deficient: its heads are ranked
    seen = []
    monkeypatch.setattr(dimensions, "rank_mod_p", lambda mats, ps: seen.append(mats.shape) or rank_mod_p(mats, ps))
    doubled = ((d, w), rows + rows[:1], n + 1, (nbase, 1))
    assert _two_seed_ranks(gs, [doubled], 3, "heads") == [(base, 1, full)]
    assert seen == [(2, len(rows) + 1, n + 1), (2, nbase, n + 1), (2, 1, n + 1)]


def _leads(gs):
    return [max(g.poly.packed_terms(), default=None) for g in gs.gens]


def _counting_rank_mod_p(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(dimensions, "rank_mod_p", lambda mats, ps: calls.append(mats.shape) or rank_mod_p(mats, ps))
    return calls


def _counting_expansions(monkeypatch) -> list:
    """The sizes of the blocks ``generated_dimension`` expands, in call order."""
    sizes = []
    monkeypatch.setattr(dimensions, "_expanded_rank", lambda gs, ms: sizes.append(len(ms)) or _expanded_rank(gs, ms))
    return sizes


def test_seed_disagreement_names_the_first_block(monkeypatch):
    # minimality on o (4,3) ranks its blocks whose leads collide mod p; the first is the
    # degree-3 block of weight (1, 0) (tests/test_cli.py runs the same at the command line)
    gs = build_generators(Scenario("o", 4, 3))
    skewed = lambda mats, ps: [r + (p == PRIME_B) for r, p in zip(rank_mod_p(mats, ps), ps)]
    monkeypatch.setattr(dimensions, "rank_mod_p", skewed)
    with pytest.raises(SeedDisagreement) as exc:
        minimality_check(gs)
    assert "degree-3 block of weight (1, 0) (" in str(exc.value) and "'min'" in str(exc.value)


def test_generated_dimension_leaves_out_zero_ranks():
    s = Scenario("gl", 2, 1, 0)
    gs = build_generators(s)
    zero = GeneratorSet(s, tuple(dataclasses.replace(g, poly=Polynomial.zero(s.nvars)) for g in gs.gens))
    assert generated_dimension(gs, 2) == {(0, -2): 1}
    assert generated_dimension(zero, 2) == {}


def test_a_zero_generator_sends_its_blocks_to_the_exact_expansion(monkeypatch):
    s = Scenario("gl", 3, 2, 2)
    gs = build_generators(s)
    zeroed = GeneratorSet(s, (dataclasses.replace(gs.gens[0], poly=Polynomial.zero(s.nvars)),) + gs.gens[1:])
    leads = _leads(zeroed)
    assert leads[0] is None and None not in leads[1:]
    d, w = gs.gens[0].degree, gs.gens[0].weight
    block = weight_blocks(zeroed, d)[w]
    assert ((0, 1),) in block and not dimensions._distinct_leads(leads, block, s.nvars)
    # every degree-d block of gs is settled by its leads; the zero generator's block is expanded
    calls, sizes = _counting_rank_mod_p(monkeypatch), _counting_expansions(monkeypatch)
    full = generated_dimension(gs, d)
    assert sizes == []
    assert generated_dimension(zeroed, d) == {**full, w: full[w] - 1} and sizes == [len(block)]
    assert calls == []


def test_a_leading_key_that_overflows_a_slot_raises():
    s = Scenario("gl", 2, 1, 0)
    (g,) = build_generators(s).gens
    d = 1 << 14  # x**d is stored, x**(2 * d) is one past the largest exponent
    big = dataclasses.replace(g, poly=g.poly**d, degree=d, weight=tuple(d * a for a in g.weight))
    assert dimensions._distinct_leads(_leads(GeneratorSet(s, (big,))), [((0, 1),)], s.nvars)
    with pytest.raises(ValueError, match="exceeds 32767"):
        big.poly * big.poly
    with pytest.raises(ValueError, match="exceeds 32767"):
        generated_dimension(GeneratorSet(s, (big,)), 2 * d)


# -- leading monomials: the exact side of both checks ------------------------------


@pytest.mark.parametrize(
    "s", [Scenario("gl", 3, 2, 2), Scenario("o", 4, 3), Scenario("sp", 4, 3)]
)
def test_the_leading_key_of_a_product_is_the_sum_of_the_leads(s):
    gs = build_generators(s)
    leads = _leads(gs)
    for (i, g1), (j, g2) in itertools.combinations_with_replacement(enumerate(gs.gens), 2):
        assert max((g1.poly * g2.poly).packed_terms()) == leads[i] + leads[j], (g1.label, g2.label)


def test_blocks_with_distinct_leads_have_full_evaluation_rank():
    # rank mod p at random points of every settled block of the generation grid up to degree 3
    settled = 0
    for gs in map(build_generators, generation_grid(GROUPS)):
        leads = _leads(gs)
        for t in range(4):
            blocks = [
                ((t, w), ms, 2 * len(ms), ())
                for w, ms in weight_blocks(gs, t).items()
                if dimensions._distinct_leads(leads, ms, gs.scenario.nvars)
            ]
            settled += len(blocks)
            assert _two_seed_ranks(gs, blocks, 5, "settled") == [(len(ms),) for _, ms, _, _ in blocks]
    assert settled == 407


def test_generated_dimension_ranks_only_blocks_whose_leads_collide(monkeypatch):
    gs = build_generators(Scenario("gl", 2, 1, 2))
    calls, sizes = _counting_rank_mod_p(monkeypatch), _counting_expansions(monkeypatch)
    dims = generated_dimension(gs, 3)
    # one expansion, of the 5 monomials of the block (1, 0): its two monomials of one
    # leading key span one dimension, so it has rank 4; nothing is ranked mod p
    assert sizes == [5] and calls == []
    assert dims == {**{w: len(ms) for w, ms in weight_blocks(gs, 3).items()}, (1, 0): 4}
    assert dims == invariant_weight_dims(gs.scenario, 3)


def test_exact_ranks_equal_the_evaluation_ranks_on_colliding_blocks():
    # every block of criterion 3's grid (t <= 4) that its leading monomials leave
    blocks = []
    for gs in map(build_generators, generation_grid(GROUPS)):
        leads = _leads(gs)
        for t in range(5):
            ranked = [
                ((t, w), ms, 2 * len(ms), ())
                for w, ms in weight_blocks(gs, t).items()
                if not dimensions._distinct_leads(leads, ms, gs.scenario.nvars)
            ]
            exact = [(_expanded_rank(gs, ms),) for _, ms, _, _ in ranked]
            assert exact == _two_seed_ranks(gs, ranked, 5, f"collide:{t}"), (gs.scenario, t)
            blocks += ranked
    assert len(blocks) == 134


def test_expanded_rank_clears_denominators_row_by_row():
    s = Scenario("gl", 2, 1, 0)
    (g,) = build_generators(s).gens
    halves = GeneratorSet(s, (g, dataclasses.replace(g, label="half", poly=Fraction(1, 2) * g.poly)))
    assert _expanded_rank(halves, [((0, 1),), ((1, 1),)]) == 1
    assert _expanded_rank(halves, [((0, 2),), ((0, 1), (1, 1)), ((1, 2),)]) == 1
    assert generated_dimension(halves, 2) == {(0, -2): 1}


def test_a_non_invariant_generator_fails_generation_from_above():
    # x[1,1], weight -e_1, is no invariant: generated exceeds invariant in degree 1
    s = Scenario("gl", 2, 1, 0)
    gs = build_generators(s)
    x11 = Generator("x[1,1]", Polynomial.variable(s.nvars, s.x_var(0, 0)), 1, variable_weights(s)[s.x_var(0, 0)])
    faulty = GeneratorSet(s, gs.gens + (x11,))
    assert x11.weight == (-1, 0)
    assert generation_check(gs, 1, None) == (True, None)
    passed, witness = generation_check(faulty, 1, None)
    assert not passed and witness == {"weight": [-1, 0], "generated": 1, "invariant": 0}
    for t in (2, 3):
        passed, witness = generation_check(faulty, t, None)
        assert not passed and witness["generated"] > witness["invariant"], t


def test_criterion_3_draws_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("criterion 3 drew a number or reached the mod-p pipeline")

    for name in ("rank_mod_p", "monomial_eval_matrix", "residue_points", "_two_seed_ranks"):
        monkeypatch.setattr(dimensions, name, refuse)
    monkeypatch.setattr(rng, "substream", refuse)
    results = suite.criterion_3_generation(suite.SuiteConfig())
    assert len(results) == 210 and all(r.verdict == "pass" for r in results)


def test_generated_dimension_cap_counts_all_blocks():
    gs = build_generators(Scenario("gl", 3, 2, 2))
    count = len(generator_monomials(gs, 3))
    assert max(map(len, weight_blocks(gs, 3).values())) < count
    generated_dimension(gs, 3, cap=count)
    with pytest.raises(CapExceeded, match=f"{count} generator monomials"):
        generated_dimension(gs, 3, cap=count - 1)


def test_monomial_cap_guard():
    s = Scenario("gl", 3, 3, 3)
    with pytest.raises(CapExceeded):
        invariant_weight_dims(s, 4, cap=100)


def test_minimality_passes_on_small_grid():
    for s in (
        Scenario("gl", 2, 2, 1),
        Scenario("gl", 3, 2, 2),
        Scenario("o", 4, 3),
        Scenario("sp", 4, 3),
    ):
        assert minimality_check(build_generators(s)) == (True, None), s


def test_minimality_essentiality_witness():
    # dropping a degree-1 generator loses degree-1 dimension: both essential
    gs = build_generators(Scenario("sp", 2, 2))
    assert set(gs.labels()) == {"Q[1][2]", "lowMinor[1;1]", "lowMinor[1;2]"}
    assert minimality_check(gs) == (True, None)


def test_minimality_known_failure_even_o_n2():
    # the rank-1 even orthogonal case over-generates: Q(v,v) factors into
    # the two order-1 minors; documented exclusion, reported not hidden
    assert minimality_check(build_generators(Scenario("o", 2, 1))) == (False, {"inessential": ["Q[1][1]"]})


# -- the residue evaluation layer ----------------------------------------------


@pytest.mark.parametrize("p", [PRIME_A, PRIME_B])
def test_residue_points_reproducible_and_in_range(p):
    a = residue_points(3, "min:2:1", 7, 50, p)
    assert a.shape == (7, 50) and a.dtype == np.int64
    assert np.array_equal(a, residue_points(3, "min:2:1", 7, 50, p))
    assert not np.array_equal(a, residue_points(3, "min:2:2", 7, 50, p))
    assert not np.array_equal(a, residue_points(4, "min:2:1", 7, 50, p))
    assert a.min() >= 1 and a.max() < p


def test_frac_mod_rejects_denominator_divisible_by_p():
    assert _frac_mod(Fraction(1, 2), 7) == 4
    assert _frac_mod(-3, 7) == 4
    with pytest.raises(ValueError, match=r"5/14 .* mod 7"):
        _frac_mod(Fraction(5, 14), 7)


@pytest.mark.parametrize(
    "s", [Scenario("gl", 3, 2, 2), Scenario("o", 4, 3), Scenario("o", 5, 2), Scenario("sp", 4, 3)]
)
@pytest.mark.parametrize("p", [PRIME_A, PRIME_B])
def test_vectorised_values_match_exact_evaluation(s, p):
    gs = build_generators(s)
    if s == Scenario("o", 4, 3):
        assert any(lbl.startswith("crossMinor") for lbl in gs.labels())
    # p's slice first, then the other prime's at another stream
    streams, primes = ("test", "test:other"), (p, PRIME_A + PRIME_B - p)
    points = np.stack([residue_points(1, name, s.nvars, 6, q) for name, q in zip(streams, primes)])
    got = _gen_values_mod([g.poly for g in gs.gens], points, primes)
    monomials = generator_monomials(gs, 3)
    mats = monomial_eval_matrix(gs, monomials, 6, 1, streams, primes)
    assert got.shape == (2, len(gs.gens), 6) and mats.shape == (2, len(monomials), 6)
    for k, q in enumerate(primes):
        columns = [[int(x) for x in points[k, :, j]] for j in range(6)]
        expected = [[g.poly.evaluate(pt) % q for pt in columns] for g in gs.gens]
        assert got[k].tolist() == expected

        # a monomial row is the product of its generators' values at the same points
        for row, mono in zip(mats[k].tolist(), monomials):
            want = [1] * 6
            for idx, mult in mono:
                want = [w * pow(v, mult, q) % q for w, v in zip(want, expected[idx])]
            assert row == want


# -- injected faults: criteria 3 and 4 can fail ------------------------------------


@pytest.mark.parametrize(
    "s", [Scenario("gl", 3, 2, 2), Scenario("o", 4, 3), Scenario("sp", 4, 3)]
)
def test_dropped_generator_loses_generated_dimension(s):
    gs = build_generators(s)
    for k in (0, len(gs) - 1):
        dropped = gs.gens[k]
        partial = GeneratorSet(s, gs.gens[:k] + gs.gens[k + 1 :])
        gen, inv = generated_dimension(partial, dropped.degree), invariant_weight_dims(s, dropped.degree)
        assert all(gen.get(w, 0) <= dim for w, dim in inv.items()) and gen.keys() <= inv.keys()
        assert gen.get(dropped.weight, 0) < inv[dropped.weight], dropped.label


@pytest.mark.parametrize(
    "s", [Scenario("gl", 3, 2, 2), Scenario("o", 4, 3), Scenario("sp", 4, 3)]
)
def test_product_of_generators_is_inessential(s):
    gs = build_generators(s)
    g1, g2 = gs.gens[0], gs.gens[-1]
    extra = Generator("extra", g1.poly * g2.poly, g1.degree + g2.degree, tuple(a + b for a, b in zip(g1.weight, g2.weight)))
    assert minimality_check(GeneratorSet(s, gs.gens + (extra,))) == (False, {"inessential": ["extra"]})


@pytest.mark.parametrize(
    "s", [Scenario("gl", 3, 2, 2), Scenario("o", 4, 3), Scenario("sp", 4, 3)]
)
def test_sum_of_two_generators_of_one_block_is_inessential(s):
    gs = build_generators(s)
    i, j = next(
        (i, j) for i, j in itertools.combinations(range(len(gs)), 2)
        if (gs.gens[i].degree, gs.gens[i].weight) == (gs.gens[j].degree, gs.gens[j].weight)
    )
    g1, g2 = gs.gens[i], gs.gens[j]
    extra = Generator("extra", g1.poly + g2.poly, g1.degree, g1.weight)
    assert minimality_check(GeneratorSet(s, gs.gens + (extra,))) == (False, {"inessential": [g1.label, g2.label, "extra"]})


def test_weight_filtered_enumeration_is_the_weight_block():
    # every block of every degree up to 4 (the grid's tmax) and the largest generator
    # degree, one memo per system as in minimality_check, blocks in reverse order
    scenarios = dict.fromkeys(invariance_grid(GROUPS) + generation_grid(GROUPS))
    for gs in map(build_generators, scenarios):
        degrees, weights, memo = [g.degree for g in gs.gens], [g.weight for g in gs.gens], {}
        for d in range(max(degrees + [4]) + 1):
            blocks = weight_blocks(gs, d)
            for w, block in reversed(blocks.items()):
                assert weighted_monomials(degrees, d, weights, w, memo) == block, (gs.scenario, d, w)
            # a weight no monomial of degree d reaches: beyond every block in its first coordinate
            far = (max((w[0] for w in blocks), default=0) + 1,) + (0,) * (gs.scenario.rank - 1)
            assert weighted_monomials(degrees, d, weights, far, memo) == []
