import copy
import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from covariants.linalg import (
    PRIME_A,
    PRIME_B,
    Matrix,
    _pivot_rank_mod_p,
    kernel_basis,
    lower_minors,
    minor,
    primitive_row,
    rank,
    rank_mod_p,
    solve,
    sparse_rank_int,
)
from covariants.polynomial import Polynomial

from conftest import random_frac, random_poly


def permutation_expansion_det(rows):
    """Independent determinant oracle: the full signed permutation sum."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inv = sum(
            1
            for i in range(n)
            for j in range(i + 1, n)
            if perm[i] > perm[j]
        )
        term = 1 if inv % 2 == 0 else -1
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def row_reduce_rank(rows):
    """Independent rank oracle: plain Fraction Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank_count = 0
    ncols = len(work[0]) if work else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        r += 1
        rank_count += 1
    return rank_count


def test_identity_determinant():
    assert Matrix.identity(3).det() == 1


def test_symbolic_2x2_determinant():
    n = 4
    x = [Polynomial.variable(n, i) for i in range(n)]
    m = Matrix([[x[0], x[1]], [x[2], x[3]]])
    assert m.det() == x[0] * x[3] - x[1] * x[2]


def test_determinant_against_permutation_oracle(rng):
    for _ in range(10):
        rows = [[random_frac(rng) for _ in range(4)] for _ in range(4)]
        assert Matrix(rows).det() == permutation_expansion_det(rows)


def test_symbolic_determinant_evaluates_to_numeric(rng):
    n = 9
    entries = [[Polynomial.variable(n, 3 * i + j) for j in range(3)] for i in range(3)]
    sym = Matrix(entries).det()
    for _ in range(5):
        point = [random_frac(rng) for _ in range(n)]
        numeric = [[point[3 * i + j] for j in range(3)] for i in range(3)]
        assert sym.evaluate(point) == permutation_expansion_det(numeric)


def test_determinant_alternating_symbolic():
    n = 9
    rows = [[Polynomial.variable(n, 3 * i + j) for j in range(3)] for i in range(3)]
    base = Matrix(rows).det()
    swapped = Matrix([rows[1], rows[0], rows[2]]).det()
    assert swapped == -base


def test_non_square_determinant_raises():
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()


def test_minor_is_entry():
    n, l = 3, 2
    s_vars = n * l
    entries = [
        [Polynomial.variable(s_vars, j * n + i) for j in range(l)] for i in range(n)
    ]
    m = Matrix(entries)
    assert minor(m, [2], [1]) == entries[2][1]
    assert minor(m, [1, 2], [0, 1]) == entries[1][0] * entries[2][1] - entries[1][1] * entries[2][0]


def test_minor_validation():
    # range before monotonicity, rows before columns
    m = Matrix.identity(3)
    for rows, cols, message in (
        ([0, 1], [0], "minor needs equally many rows and columns"),
        ([1, 0], [0, 1], "row indices must be strictly increasing"),
        ([1, 1], [0, 1], "row indices must be strictly increasing"),
        ([0, 5], [0, 1], "row index out of range"),
        ([5, 0], [0, 1], "row index out of range"),
        ([-1, 0], [1, 0], "row index out of range"),
        ([1, 0], [0, 5], "row indices must be strictly increasing"),
        ([0, 1], [3, 0], "column index out of range"),
        ([0, 1], [-1, 2], "column index out of range"),
        ([0, 1], [2, 2], "column indices must be strictly increasing"),
    ):
        with pytest.raises(ValueError) as exc:
            minor(m, rows, cols)
        assert str(exc.value) == message, (rows, cols)


@pytest.mark.parametrize("kind", ["int", "fraction", "symbolic"])
def test_minor_is_the_determinant_of_its_submatrix(rng, kind):
    draw = _entries(kind, rng)
    for k in range(6):
        for _ in range(2 if kind == "symbolic" else 4):
            m, n = k + rng.randint(0, 2), k + rng.randint(0, 2)
            rows = [[draw() for _ in range(n)] for _ in range(m)]
            r, c = sorted(rng.sample(range(m), k)), sorted(rng.sample(range(n), k))
            sub = [[rows[i][j] for j in c] for i in r]
            assert minor(Matrix(rows), r, c) == Matrix(sub).det()
            if k:  # a zero first row: no nonzero term
                rows[r[0]] = [0 * x for x in rows[r[0]]]
                value = minor(Matrix(rows), r, c)
                assert value == 0 and type(value) is type(0 * rows[r[0]][c[0]])


def _entries(kind, rng):
    if kind == "int":
        return lambda: rng.randint(-3, 3)
    if kind == "fraction":
        return lambda: random_frac(rng)
    return lambda: random_poly(rng, 4, max_degree=2, max_terms=2)


@pytest.mark.parametrize("kind", ["int", "fraction", "symbolic"])
@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 2)])
def test_lower_minors_against_minor_and_permutation_oracle(rng, kind, m, n):
    draw = _entries(kind, rng)
    for _ in range(2 if kind == "symbolic" else 5):
        rows = [[draw() for _ in range(n)] for _ in range(m)]
        mat = Matrix(rows)
        p = min(m, n)
        table = lower_minors(mat, p)
        assert len(table) == p + 1
        for k in range(p + 1):
            # lexicographic column subsets, in the order of the wedge basis
            assert list(table[k]) == list(itertools.combinations(range(n), k))
        for k in range(1, p + 1):
            lower = list(range(m - k, m))
            for cols, value in table[k].items():
                assert value == minor(mat, lower, cols)
                assert value == permutation_expansion_det([[rows[i][j] for j in cols] for i in lower])


def test_lower_minors_zero_column_and_zero_row_are_typed_zeros():
    nvars = 6
    x = [Polynomial.variable(nvars, i) for i in range(nvars)]
    zero = Polynomial.zero(nvars)
    table = lower_minors(Matrix([[x[0], zero, x[1]], [x[2], zero, x[3]], [x[4], zero, x[5]]]), 3)
    for k in (1, 2, 3):
        for cols, value in table[k].items():
            if 1 in cols:
                assert isinstance(value, Polynomial) and not value
    assert table[2][(0, 2)] == x[2] * x[5] - x[3] * x[4]
    # a zero row: no nonzero term at its order
    table = lower_minors(Matrix([[zero, zero], [x[0], x[1]]]), 2)
    assert isinstance(table[2][(0, 1)], Polynomial) and not table[2][(0, 1)]
    assert lower_minors(Matrix([[0, 0], [1, 2]]), 2)[2] == {(0, 1): 0}


def test_lower_minors_of_mixed_polynomial_and_int_entries():
    # a matrix that is not all polynomials takes the generic expansion
    x = [Polynomial.variable(3, i) for i in range(3)]
    table = lower_minors(Matrix([[x[0], 0], [x[1], x[2]]]), 2)
    assert table[2][(0, 1)] == x[0] * x[2]


def test_lower_minors_order_bounds():
    mat = Matrix([[1, 2, 3], [4, 5, 6]])
    assert lower_minors(mat, 0) == [{(): 1}]
    assert lower_minors(mat, 1) == [{(): 1}, {(0,): 4, (1,): 5, (2,): 6}]
    for p in (-1, 3):
        with pytest.raises(ValueError, match="minor order"):
            lower_minors(mat, p)
    assert Matrix([]).det() == 1


def test_kernel_of_identity_empty():
    assert kernel_basis([[1, 0], [0, 1]]) == []


def test_kernel_single_row():
    basis = kernel_basis([[1, 1]])
    assert len(basis) == 1
    v = basis[0]
    assert v[0] * 1 + v[1] * 1 == 0 and any(v)


def test_rank_plus_nullity(rng):
    for _ in range(10):
        rows = [[rng.randint(-4, 4) for _ in range(7)] for _ in range(4)]
        r = rank(rows)
        assert r == row_reduce_rank(rows)
        assert r + len(kernel_basis(rows, 7)) == 7
        for v in kernel_basis(rows, 7):
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0


def _random_rows(rng, m, n, kind):
    """m x n rows of random rank k <= min(m, n), often with zero rows and columns."""
    k = rng.randint(0, min(m, n))
    draw = (lambda: rng.randint(-3, 3)) if kind == "int" else (lambda: random_frac(rng))
    left = [[draw() for _ in range(k)] for _ in range(m)]
    right = [[rng.choice((0, 0, 1, -2, 3)) for _ in range(n)] for _ in range(k)]
    rows = [[sum((a * b for a, b in zip(lr, col)), 0) for col in zip(*right)] for lr in left]
    return [[x.numerator if isinstance(x, Fraction) and x.denominator == 1 else x for x in row] for row in rows]


def _is_canonical(x):
    """An exact entry is an int exactly when it is integral."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _free_columns(rows, ncols):
    """Columns that depend on the columns left of them, by the rank oracle."""
    prefix = [row_reduce_rank([row[: c + 1] for row in rows]) for c in range(ncols)]
    return [c for c in range(ncols) if prefix[c] == (prefix[c - 1] if c else 0)]


def test_sparse_rank_int_against_both_oracles(rng):
    for _ in range(80):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        rows = _random_rows(rng, m, n, "int")
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        assert sparse_rank_int(sparse) == row_reduce_rank(rows) == rank(rows)
    assert sparse_rank_int([]) == 0 == rank([])
    assert sparse_rank_int([{}, {}]) == 0 == rank([[0, 0], [0, 0]])
    assert sparse_rank_int([{}, {2: 4}, {}, {0: 1, 2: -1}, {0: -3, 2: 7}]) == 2


def test_kernel_basis_contract(rng):
    for kind in ("int", "fraction"):
        for _ in range(30):
            m, n = rng.randint(0, 5), rng.randint(1, 7)
            rows = _random_rows(rng, m, n, kind)
            basis = kernel_basis(rows, n)
            free = _free_columns(rows, n)
            assert len(basis) == len(free)
            for f, v in zip(free, basis):
                assert [v[g] for g in free] == [int(g == f) for g in free]
                assert all(_is_canonical(x) for x in v)
                for row in rows:
                    assert sum(a * b for a, b in zip(row, v)) == 0
    # rank-one rows: every column but the first is free
    assert kernel_basis([[2, 4, 6], [1, 2, 3]]) == [[-2, 1, 0], [-3, 0, 1]]
    assert kernel_basis([[0, 2, 1]]) == [[1, 0, 0], [0, Fraction(-1, 2), 1]]
    assert kernel_basis([[3, 1]]) == [[Fraction(-1, 3), 1]]
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]


def test_solve_and_inverse_keep_integral_entries_int(rng):
    for kind in ("int", "fraction"):
        for _ in range(30):
            n = rng.randint(1, 5)
            rows = _random_rows(rng, rng.randint(1, 5), n, kind)
            x0 = [rng.randint(-3, 3) for _ in range(n)]
            x = solve(rows, [sum((a * b for a, b in zip(row, x0)), 0) for row in rows])
            assert x is not None and all(_is_canonical(v) for v in x)
            sq = _random_rows(rng, n, n, kind)
            try:
                inv = Matrix(sq).inverse()
            except ValueError:
                continue
            assert all(_is_canonical(v) for row in inv.rows for v in row)
    assert solve([[2, 0], [0, 3]], [4, 1]) == [2, Fraction(1, 3)]
    assert Matrix([[2, 0], [0, 1]]).inverse() == Matrix([[Fraction(1, 2), 0], [0, 1]])


def test_elimination_keeps_its_input(rng):
    for _ in range(20):
        rows = _random_rows(rng, rng.randint(1, 5), rng.randint(1, 5), "fraction")
        rhs = [random_frac(rng) for _ in rows]
        before = copy.deepcopy(rows), list(rhs)
        rank(rows)
        kernel_basis(rows, len(rows[0]))
        solve(rows, rhs)
        assert (rows, rhs) == before


def test_primitive_row():
    assert primitive_row([Fraction(1, 2), Fraction(-1, 3), 0]) == [3, -2, 0]
    assert primitive_row([4, -6, 0, 10]) == [2, -3, 0, 5]
    assert primitive_row([0, 0]) == [0, 0]
    assert primitive_row([]) == []
    row = [Fraction(-4, 9), 2, Fraction(8, 3)]
    out = primitive_row(row)
    assert all(type(x) is int for x in out) and gcd(*out) == 1
    assert len({Fraction(x) / y for x, y in zip(out, row)}) == 1 and out[1] > 0


def test_inverse_is_exact(rng):
    for n in range(1, 6):
        mats = [
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)],
            [[random_frac(rng) for _ in range(n)] for _ in range(n)],
            [[int(i == j) if j <= i else rng.randint(-9, 9) for j in range(n)] for i in range(n)],
        ]
        for rows in mats:
            m = Matrix(rows)
            try:
                inv = m.inverse()
            except ValueError:
                assert m.det() == 0
                continue
            assert m * inv == Matrix.identity(n) and inv * m == Matrix.identity(n)
        # unitriangular integer matrices have integer inverses
        assert all(type(x) is int for row in Matrix(mats[2]).inverse().rows for x in row)
    with pytest.raises(ValueError, match="singular"):
        Matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).inverse()
    with pytest.raises(ValueError, match="singular"):
        Matrix([[0, 0], [0, 0]]).inverse()


def test_solve_and_inverse(rng):
    for _ in range(10):
        rows = [[random_frac(rng) for _ in range(3)] for _ in range(3)]
        m = Matrix(rows)
        try:
            inv = m.inverse()
        except ValueError:
            continue
        assert m * inv == Matrix.identity(3)
        rhs = [random_frac(rng) for _ in range(3)]
        x = solve(rows, rhs)
        assert x is not None
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b
    assert solve([[1, 1], [1, 1]], [0, 1]) is None


def test_matrix_json_round_trip():
    m = Matrix([[Fraction(1, 2), 3], [0, -2]])
    assert Matrix.from_json(m.to_json()) == m


@pytest.mark.parametrize("p", [7, PRIME_A, PRIME_B])
def test_rank_mod_p_matches_exact_rank_and_keeps_its_input(rng, p):
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(0, min(m, n))
        # a product of m x k and k x n integer factors has rank <= k
        left = np.array([rng.randint(-5, 5) for _ in range(m * k)], dtype=np.int64).reshape(m, k)
        right = np.array([rng.randint(-5, 5) for _ in range(k * n)], dtype=np.int64).reshape(k, n)
        rows = (left @ right).tolist()
        mat = left @ right + p * rng.randint(-2, 2)  # the same residues
        before = mat.copy()
        (got,) = rank_mod_p(mat[None], [p])
        assert np.array_equal(mat, before)
        if p > 7:  # fixed seed: no nonzero minor of these small entries is divisible by p
            assert got == rank(rows)
        else:
            assert got <= rank(rows)


def _check_stacked_rank(stack, primes, exact):
    """``rank_mod_p`` on the stack against the pivot loop on each slice
    alone and against the exact ranks; the stack is left as it was."""
    before = stack.copy()
    got = rank_mod_p(stack, primes)
    assert np.array_equal(stack, before)
    assert got == [_pivot_rank_mod_p(sl % p, p) for sl, p in zip(stack, primes)]
    assert all(r <= e for r, e in zip(got, exact))
    return got


PRIMES = (PRIME_A, PRIME_B)
P = PRIME_A


@pytest.mark.parametrize(
    "slices, ranks",
    [
        ([[[1, 2, 3], [4, 5, 6]]] * 2, [2, 2]),  # full rank, every pivot nonzero
        ([[[1, 2, 3], [2, 4, 6], [1, 1, 1]]] * 2, [2, 2]),  # deficient: a zero pivot in both slices
        ([[[0, 1, 0], [1, 0, 0]], [[1, 0, 0], [0, 1, 0]]], [2, 2]),  # a zero pivot in one slice only
        ([[[1, 2], [3, 4], [5, 6]]] * 2, [2, 2]),  # m > n
        ([[[0, 0, 5]]] * 2, [1, 1]),  # 1 x n, its pivot off the diagonal
        ([[[7, 0, 5]], [[2, 0, 0]]], [1, 1]),  # 1 x n
        ([[[0, 0], [0, 0]]] * 2, [0, 0]),  # all zero
        ([[[1, 0], [0, P]]] * 2, [1, 2]),  # ranks differ by prime: P divides the determinant
        ([[[P, 2 * P], [3, 4]]] * 2, [1, 2]),  # the same, with the zero pivot in the first row
    ],
)
def test_stacked_rank_mod_p_matches_slices_ranked_alone(slices, ranks):
    exact = [rank(sl) for sl in slices]
    assert _check_stacked_rank(np.array(slices, dtype=np.int64), PRIMES, exact) == ranks


def test_stacked_rank_mod_p_on_random_products(rng):
    for _ in range(40):
        m, n, k = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 7)
        slices = []
        for _ in PRIMES:
            left = np.array([rng.randint(-5, 5) for _ in range(m * k)], dtype=np.int64).reshape(m, k)
            right = np.array([rng.randint(-5, 5) for _ in range(k * n)], dtype=np.int64).reshape(k, n)
            slices.append((left @ right).tolist())
        exact = [rank(sl) for sl in slices]
        # fixed seed: no nonzero minor of these small entries is divisible by either prime
        assert _check_stacked_rank(np.array(slices, dtype=np.int64), PRIMES, exact) == exact


def test_stacked_rank_mod_p_takes_empty_slices():
    assert rank_mod_p(np.zeros((2, 0, 5), dtype=np.int64), PRIMES) == [0, 0]
    assert rank_mod_p(np.zeros((2, 3, 0), dtype=np.int64), PRIMES) == [0, 0]
