"""Exact linear algebra over the rationals (entries may also be polynomials).

Matrices are meant for the small sizes that dominate this package
(dimensions <= a few hundred).  ``lower_minors`` builds the minors on the
last k rows order by order, and ``Matrix.det`` reads its full-column entry.
``minor`` (any row and column subsets) expands its submatrix by Laplace
along the first row, on plain lists: it shares no code with
``lower_minors``, which criterion 9 checks against it.  Laplace costs k!
products at order k, so ``minor`` is meant for the small orders (<= 5) of
criterion 9 and the test oracles; take a larger determinant with
``Matrix(sub).det()``.

One exact elimination engine serves everything else: ``_echelon_form``
brings sparse primitive integer rows to fraction-free echelon form, and
``_back_substitute`` reads unknowns off it.  ``rank``, ``kernel_basis``,
``solve`` and ``Matrix.inverse`` convert their dense rational rows with
``primitive_row``; ``sparse_rank_int`` takes sparse integer rows as they
are.  ``rank_mod_p`` (numpy, a stack of slices with one large prime each)
is the one inexact rank: a lower bound that callers pair with an exact
side.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import lt
from typing import Callable, Sequence

import numpy as np

from .polynomial import Polynomial, canon_coeff

# Two largest primes below 2^31: squares stay inside int64 during elimination.
PRIME_A = 2147483647
PRIME_B = 2147483629


class Matrix:
    """A rectangular matrix with exact entries (numbers or polynomials)."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(r) for r in rows)
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, m: int, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(m)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.rows == other.rows

    __hash__ = None

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.n != other.m:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.rows))
            return Matrix(
                [
                    [_dot(row, col) for col in cols]
                    for row in self.rows
                ]
            )
        return Matrix([[a * other for a in row] for row in self.rows])

    def __rmul__(self, other):
        return Matrix([[other * a for a in row] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(list(zip(*self.rows)))

    def map(self, f: Callable) -> "Matrix":
        return Matrix([[f(a) for a in row] for row in self.rows])

    def det(self):
        """Determinant: the full-column entry of ``lower_minors``.

        Works for numeric and polynomial entries alike; intended for n <= 8.
        """
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        return lower_minors(self, self.n)[self.n][tuple(range(self.n))]

    def inverse(self) -> "Matrix":
        """Exact inverse for numeric entries; raises on singular input.

        ``[A | I]`` is brought to echelon form ``[U | L]`` with ``U = M A``
        and ``L = M`` for some invertible M, so ``A^-1 = U^-1 L``, found by
        back-substitution, one column of I at a time.  A is singular iff the
        pivot columns are not ``0..n-1``.
        """
        if self.m != self.n:
            raise ValueError("inverse of a non-square matrix")
        n = self.n
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.rows)]
        ech = _echelon_form(_sparse_rows(aug))
        if [c for c, _ in ech] != list(range(n)):
            raise ValueError("singular matrix")
        cols = [_back_substitute(ech, [0] * n, n + c) for c in range(n)]
        return Matrix(list(zip(*cols)))

    def to_json(self) -> list:
        return [[str(Fraction(x)) for x in row] for row in self.rows]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "Matrix":
        return cls([[canon_coeff(Fraction(x)) for x in row] for row in data])

    def __repr__(self) -> str:
        return "Matrix(" + ", ".join(str(list(r)) for r in self.rows) + ")"


def _dot(row, col):
    total = None
    for a, b in zip(row, col):
        if not a or not b:
            continue
        term = a * b
        total = term if total is None else total + term
    if total is None:
        return 0
    return total


def minor(matrix: Matrix, rows: Sequence[int], cols: Sequence[int]):
    """Determinant of the submatrix on ``rows`` x ``cols`` (0-based).

    Index lists must be strictly increasing and in range.  The submatrix is
    expanded by Laplace along its first row (``_laplace``), with no
    ``Matrix`` and no ``lower_minors`` table, so it is an oracle for both.
    Its cost grows as k! with the order k: it is meant for orders <= 5, and
    ``Matrix(sub).det()`` is the way to a larger determinant.
    """
    if len(rows) != len(cols):
        raise ValueError("minor needs equally many rows and columns")
    # one pass settles valid indices; the checks below name the first fault
    if not (
        rows
        and 0 <= rows[0]
        and rows[-1] < matrix.m
        and 0 <= cols[0]
        and cols[-1] < matrix.n
        and all(map(lt, rows, rows[1:]))
        and all(map(lt, cols, cols[1:]))
    ):
        for idx, bound, kind in ((rows, matrix.m, "row"), (cols, matrix.n, "column")):
            if idx and (min(idx) < 0 or max(idx) >= bound):
                raise ValueError(f"{kind} index out of range")
            if not all(map(lt, idx, idx[1:])):
                raise ValueError(f"{kind} indices must be strictly increasing")
    return _laplace([[matrix.rows[i][j] for j in cols] for i in rows])


def _laplace(rows: list[list]):
    """Determinant of a square list of rows by expansion along the first row.

    Orders 0-2 are closed forms.  A minor with no nonzero term is
    ``0 * entry``, so polynomial matrices give a zero polynomial.
    """
    k = len(rows)
    if k < 3:
        if k == 2:
            (a, b), (c, d) = rows
            return a * d - b * c
        return rows[0][0] if k else 1
    rest = rows[1:]
    total = None
    for j, a in enumerate(rows[0]):
        if not a:
            continue
        term = a * _laplace([r[:j] + r[j + 1 :] for r in rest])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return 0 * rows[0][0] if total is None else total


def lower_minors(matrix: Matrix, p: int) -> list[dict]:
    """The minors on the last k rows, for k = 0..p: ``table[k][cols]``.

    ``cols`` runs over the increasing k-subsets of the columns, in
    lexicographic order (the wedge basis).  Order 1 is the last row; order
    k is the Laplace expansion of order k-1 along row m - k, so every minor
    is built once.  One with no nonzero term is ``0 * entry``, so polynomial
    matrices give a zero polynomial.  On a matrix of polynomials each minor's
    expansion is one ``Polynomial.sum_of_products``.
    """
    if not 0 <= p <= matrix.m:
        raise ValueError(f"minor order must satisfy 0 <= p <= {matrix.m}, got {p}")
    rows, m = matrix.rows, matrix.m
    table: list[dict] = [{(): 1}]
    if p:
        table.append({(j,): a for j, a in enumerate(rows[m - 1])})
    polys = (
        min(p, matrix.n) >= 2
        and isinstance(rows[0][0], Polynomial)  # one test settles a matrix of numbers
        and all(isinstance(a, Polynomial) for r in rows for a in r)
    )
    for k in range(2, p + 1):
        row = rows[m - k]
        prev = table[-1]
        cur = {}
        for cols in itertools.combinations(range(matrix.n), k):
            if polys:
                terms = [
                    (-1 if pos % 2 else 1, row[j], prev[cols[:pos] + cols[pos + 1 :]])
                    for pos, j in enumerate(cols)
                    if row[j]
                ]
                cur[cols] = Polynomial.sum_of_products(row[0].nvars, terms)
            else:
                total = None
                for pos, j in enumerate(cols):
                    a = row[j]
                    if not a:
                        continue
                    sub = prev[cols[:pos] + cols[pos + 1 :]]
                    term = a * sub if pos % 2 == 0 else -(a * sub)
                    total = term if total is None else total + term
                cur[cols] = 0 * rows[0][0] if total is None else total
        table.append(cur)
    return table


# -- exact elimination --------------------------------------------------------


def primitive_row(row: Sequence) -> list[int]:
    """Scale a rational row by a positive rational to a primitive integer row.

    The entries are ints or Fractions; the result has gcd 1 (a zero row stays
    zero), so the row's kernel and the sign of every entry are unchanged.
    """
    den = lcm(*[x.denominator for x in row])
    ints = [x.numerator * (den // x.denominator) for x in row] if den > 1 else [x.numerator for x in row]
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def _sparse_rows(rows) -> list[dict[int, int]]:
    """Dense rational rows as sparse primitive integer rows."""
    return [{j: x for j, x in enumerate(primitive_row(r)) if x} for r in rows]


def _echelon_form(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Fraction-free echelon form of sparse integer rows: ``(column, row)`` per pivot.

    Rows are dicts column -> nonzero int; the elimination consumes them.
    Rows wait in buckets keyed by their leading column.  The buckets are
    taken in column order: the sparsest row of a bucket becomes the pivot
    row, which keeps fill-in tame, and the others are cross-multiplied
    against it, divided by their gcd and re-bucketed.  The pivot columns are
    the leftmost independent columns whichever row is chosen, so the kernel
    basis and solutions read off this form do not depend on that choice.
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        if row:
            buckets.setdefault(min(row), []).append(row)
    ech = []
    while buckets:
        c = min(buckets)
        cands = buckets.pop(c)
        cands.sort(key=len)
        prow = cands[0]
        pval = prow[c]
        ech.append((c, prow))
        for row in cands[1:]:
            v = row.pop(c)
            out: dict[int, int] = {}
            for j, a in row.items():
                out[j] = pval * a
            for j, b in prow.items():
                if j == c:
                    continue
                s = out.get(j, 0) - v * b
                if s:
                    out[j] = s
                else:
                    out.pop(j, None)
            if out:
                g = 0
                for x in out.values():
                    g = gcd(g, x)
                    if g == 1:
                        break
                if g > 1:
                    for j in list(out):
                        out[j] //= g
                buckets.setdefault(min(out), []).append(out)
    return ech


def _back_substitute(ech, x: list, rhs: int | None = None) -> list:
    """Set the pivot unknowns of ``x`` so that every echelon row holds.

    ``x`` holds the unknowns (columns ``0..len(x)-1``) with the free ones
    already set; ``rhs`` is the column of the right-hand side in the echelon
    rows, or None for a zero right-hand side.  Quotients stay ints when they
    divide exactly.
    """
    n = len(x)
    for c, row in reversed(ech):
        s = row.get(rhs, 0)
        for j, a in row.items():
            if c < j < n and x[j]:
                s -= a * x[j]
        d = row[c]
        x[c] = s // d if type(s) is int and s % d == 0 else canon_coeff(Fraction(s, d))
    return x


def sparse_rank_int(rows: list[dict[int, int]]) -> int:
    """Exact rank of sparse integer rows (dicts column -> nonzero int).

    The number of pivots of ``_echelon_form``, which consumes the rows.
    """
    return len(_echelon_form(rows))


def rank(rows: Sequence[Sequence]) -> int:
    return len(_echelon_form(_sparse_rows(rows)))


def kernel_basis(rows: Sequence[Sequence], ncols: int | None = None) -> list[list]:
    """Exact basis of the right null space of the matrix given by ``rows``.

    Returns one vector per free column, in ascending free-column order, with
    a 1 in its own free position and 0 in the other free positions.  Empty
    list iff the matrix has full column rank.
    """
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise ValueError("cannot infer the number of columns")
        ncols = len(rows[0])
    ech = _echelon_form(_sparse_rows(rows))
    basis = []
    k = 0  # pivots left of f: the pivot unknowns right of f stay 0
    for f in range(ncols):
        if k < len(ech) and ech[k][0] == f:
            k += 1
            continue
        v: list = [0] * ncols
        v[f] = 1
        basis.append(_back_substitute(ech[:k], v))
    return basis


def solve(rows: Sequence[Sequence], rhs: Sequence) -> list | None:
    """One exact solution of ``A x = b`` (free variables set to 0), or None."""
    rows = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) - 1
    ech = _echelon_form(_sparse_rows(rows))
    if ech and ech[-1][0] == ncols:
        return None  # inconsistent: pivot in the augmented column
    return _back_substitute(ech, [0] * ncols, ncols)


# -- ranks modulo a prime -----------------------------------------------------


def rank_mod_p(stack: np.ndarray, primes: Sequence[int]) -> list[int]:
    """Ranks over F_p of the slices of an integer stack ``(S, m, n)``, slice
    k taken mod ``primes[k]`` (numpy int64 elimination; the input is kept).

    While every slice has a nonzero diagonal pivot, all slices are
    eliminated together on their leading m x m square, fraction-free and
    with no inverse: ``row_i <- a_cc * row_i - a_ic * row_c`` (mod p).  The
    residues are below 2**31, so every product fits in int64, and a_cc is a
    unit mod p, so no step changes a rank.  If all m pivots are nonzero,
    each slice has rank m.  Otherwise, and whenever m > n, each slice is
    ranked alone by ``_pivot_rank_mod_p``.

    For an integer (or reduced-rational) matrix this is a lower bound on the
    rational rank; callers pair it with an exact upper bound or a second
    prime to certify results.
    """
    stack = np.asarray(stack, dtype=np.int64)
    _, m, n = stack.shape
    if m <= n:
        ps = np.array(primes, dtype=np.int64).reshape(-1, 1, 1)
        a = stack[:, :, :m] % ps  # a copy: eliminated in place
        for c in range(m):
            pivots = a[:, c : c + 1, c : c + 1]
            if not pivots.all():
                break
            rest = a[:, c + 1 :, c + 1 :]
            rest[...] = (rest * pivots - a[:, c + 1 :, c : c + 1] * a[:, c : c + 1, c + 1 :]) % ps
        else:
            return [m] * len(primes)
    return [_pivot_rank_mod_p(sl % p, p) for sl, p in zip(stack, primes)]


def _pivot_rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank over F_p of a matrix of residues mod p, by row pivot search;
    ``a`` is eliminated in place."""
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r, c:] = (a[r, c:] * inv) % p
        rows_below = np.nonzero(a[r + 1 :, c])[0]
        if rows_below.size:
            idx = rows_below + r + 1
            factors = a[idx, c][:, None]
            a[idx, c:] = (a[idx, c:] - factors * a[r, c:]) % p
        r += 1
    return r
