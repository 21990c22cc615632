import random
from fractions import Fraction
from math import lcm

import pytest

from covariants.flags import (
    FlagPoint,
    annihilator,
    flag_map,
    incidence_holds,
    is_decomposable,
    wedge_action_matrix,
    wedge_basis,
)
from covariants.linalg import Matrix, minor, rank
from covariants.scenario import Scenario
from covariants.suite import _independent_wedge


def test_identity_flag():
    f = flag_map([[1, 0], [0, 1]], Scenario("gl", 2, 2))
    assert f.components == ((0, 1), (1,))


def test_zero_matrix_flag():
    f = flag_map([[0, 0, 0]] * 3, Scenario("gl", 3, 3))
    assert all(not any(c) for c in f.components)


def test_flag_coordinates_are_lower_minors():
    rng = random.Random(12)
    s = Scenario("gl", 3, 4)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4)] for _ in range(3)]
        f = flag_map(rows, s)
        mat = Matrix(rows)
        for k in range(1, 4):
            expected = tuple(
                minor(mat, list(range(3 - k, 3)), list(cols)) for cols in wedge_basis(4, k)
            )
            assert f.components[k - 1] == expected


def test_shape_mismatch():
    with pytest.raises(ValueError):
        flag_map([[1, 2]], Scenario("gl", 2, 2))


def test_annihilator_examples():
    assert annihilator((1, 0, 0), 2, 3) == [[1, 0, 0], [0, 1, 0]]
    full = annihilator((0, 0, 0), 2, 3)
    assert rank(full) == 3
    # a random decomposable 2-vector has its factors as the kernel
    rng = random.Random(3)
    for _ in range(10):
        w1 = [rng.randint(-4, 4) for _ in range(4)]
        w2 = [rng.randint(-4, 4) for _ in range(4)]
        coords = []
        for a, b in wedge_basis(4, 2):
            coords.append(w1[a] * w2[b] - w1[b] * w2[a])
        if not any(coords):
            continue
        ann = annihilator(tuple(coords), 2, 4)
        assert len(ann) == 2
        assert rank(ann + [w1, w2]) == 2


def test_decomposability():
    rng = random.Random(9)
    for _ in range(20):
        q = tuple(rng.randint(-4, 4) for _ in range(3))
        assert is_decomposable(q, 2, 3)  # every 2-vector in dimension 3
    assert not is_decomposable((1, 0, 0, 0, 0, 1), 2, 4)  # e12 + e34
    assert is_decomposable((0,) * 6, 2, 4)


def test_flag_image_satisfies_predicates():
    rng = random.Random(21)
    for n, l in ((2, 3), (3, 3), (4, 2)):
        s = Scenario("gl", n, l)
        for _ in range(30):
            rows = [[rng.randint(-3, 3) for _ in range(l)] for _ in range(n)]
            f = flag_map(rows, s)
            for k, q in enumerate(f.components, start=1):
                assert is_decomposable(q, k, l)
            assert incidence_holds(f)


def test_incidence_counterexample():
    f = FlagPoint(3, ((1, 0, 0), (0, 0, 1)))  # Ann(e1) vs span{e2, e3}
    assert not incidence_holds(f)


def test_incidence_vacuous_with_zero_tail():
    f = FlagPoint(3, ((1, 2, 0), (0, 0, 0), (0,)))
    assert incidence_holds(f)


def test_nonzero_after_zero_outside_image():
    f = FlagPoint(3, ((0, 0, 0), (1, 0, 0)))
    assert not incidence_holds(f)


def test_indecomposable_input_rejected():
    f = FlagPoint(4, ((1, 0, 0, 0), (1, 0, 0, 0, 0, 1)))
    with pytest.raises(ValueError, match="component 2 is not decomposable") as exc:
        incidence_holds(f)
    assert exc.value.k == 2


def test_equivariance_under_copy_transformations():
    rng = random.Random(31)
    for n, l in ((3, 3), (2, 4)):
        s = Scenario("gl", n, l)
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(l)] for _ in range(n)]
            while True:
                g = Matrix([[rng.randint(-2, 2) for _ in range(l)] for _ in range(l)])
                try:
                    g.inverse()
                    break
                except ValueError:
                    continue
            base = flag_map(rows, s)
            moved = flag_map(Matrix(rows) * g.transpose(), s)
            for k in range(1, min(n, l) + 1):
                wk = wedge_action_matrix(g, k)
                transported = tuple(
                    sum(wk[i, j] * base.components[k - 1][j] for j in range(wk.n))
                    for i in range(wk.m)
                )
                assert transported == tuple(moved.components[k - 1])


def test_flag_json_round_trip():
    f = flag_map([[1, 2], [3, 4], [5, 6]], Scenario("gl", 3, 2))
    assert FlagPoint.from_json(f.to_json()) == f


def test_clearing_denominators_scales_component_k_by_c_to_the_k():
    # criterion 9 checks c * rows in place of rows: component k of the flag
    # map and of the wedge oracle scale by c^k, and incidence is projective
    rng = random.Random(41)
    for n in (2, 3, 4):
        for l in (2, 3, 4):
            s = Scenario("gl", n, l)
            for _ in range(10):
                rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(l)] for _ in range(n)]
                c = lcm(*(x.denominator for row in rows for x in row))
                scaled = [[int(c * x) for x in row] for row in rows]
                f, g = flag_map(rows, s), flag_map(scaled, s)
                assert all(type(x) is int for comp in g.components for x in comp)
                for k, (q, r) in enumerate(zip(f.components, g.components), start=1):
                    assert r == tuple(c**k * x for x in q)
                assert tuple(map(tuple, _independent_wedge(scaled, n, l))) == g.components
                assert incidence_holds(g) == incidence_holds(f)


def _rank_nesting(f):
    """The former nesting test: span(ann q_k) inside span(ann q_{k+1}) by rank."""
    anns = [annihilator(q, k, f.l) if any(q) else None for k, q in enumerate(f.components, start=1)]
    for prev, cur in zip(anns, anns[1:]):
        if cur is None:
            continue
        if prev is None:
            return False
        if rank(cur + prev) != len(cur):
            return False
    return True


def _wedges(vectors, l):
    """Coordinates of v_1 ^ ... ^ v_k in the lexicographic wedge basis."""
    k = len(vectors)
    return tuple(minor(Matrix(vectors), list(range(k)), list(cols)) for cols in wedge_basis(l, k))


def test_matrix_nesting_agrees_with_the_rank_test():
    points = [
        FlagPoint(3, ((1, 0, 0), _wedges([[0, 1, 0], [0, 0, 1]], 3))),  # e1 against e2 ^ e3: the counterexample
        FlagPoint(3, ((1, 0, 0), _wedges([[1, 0, 0], [0, 0, 1]], 3))),  # e1 against e1 ^ e3
        FlagPoint(3, ((1, 2, 0), (0, 0, 0), (0,))),  # zero tail
        FlagPoint(3, ((0, 0, 0), (1, 0, 0))),  # nonzero after zero
    ]
    rng = random.Random(43)
    for n, l in ((2, 3), (3, 3), (3, 4), (4, 4), (4, 2)):
        s = Scenario("gl", n, l)
        for _ in range(10):
            points.append(flag_map([[rng.randint(-3, 3) for _ in range(l)] for _ in range(n)], s))
        for _ in range(20):
            # each component the wedge of its own fresh vectors: decomposable, rarely nested
            points.append(FlagPoint(l, tuple(
                _wedges([[rng.randint(-1, 1) for _ in range(l)] for _ in range(k)], l)
                for k in range(1, min(n, l) + 1)
            )))
    verdicts = [incidence_holds(f) for f in points]
    assert verdicts == [_rank_nesting(f) for f in points]
    assert verdicts.count(True) > 60 and verdicts.count(False) > 30
