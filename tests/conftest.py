import functools
import random
from fractions import Fraction

import pytest

from covariants import groups
from covariants.generators import _cross_rows, _lower_top
from covariants.groups import form_matrix, variable_weights
from covariants.linalg import Matrix, lower_minors
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


# -- the generic element of U: an oracle for criterion 1's Lie side -----------


@functools.lru_cache(maxsize=None)
def generic_unipotent(group, n):
    """The generic element u = exp(sum_b t_b b) of the maximal unipotent
    subgroup: an n x n matrix of ``Polynomial``s in one indeterminate t_b per
    element b of ``nilradical_basis`` (in its order).

    The series stops because xi = sum_b t_b b is strictly upper triangular,
    so xi^n = 0; each term is the previous one times xi/k.  This is every
    element of U, once the t_b are specialized: on unipotent matrices
    log u = sum_{k<n} (-1)^(k+1) (u - 1)^k / k is a polynomial inverse of
    exp, so u = exp(log u) with log u strictly upper triangular.  For gl
    that is all of the nilradical.  For o/sp, u preserves the form F exactly
    when log u lies in the nilradical: xi^T F + F xi = 0 gives
    exp(xi)^T F exp(xi) = F exp(-xi) exp(xi) = F, and conversely
    u^T F u = F makes F^-1 u^T F = u^-1, whose log is both F^-1 (log u)^T F
    and -log u.  So a polynomial identity in the t_b holds at every element
    of U.
    """
    basis = groups.nilradical_basis(Scenario(group, n, 0))
    nb = len(basis)
    xi = Matrix([[Polynomial.linear(nb, {k: b[i, j] for k, b in enumerate(basis)}) for j in range(n)] for i in range(n)])
    term = total = Matrix([[Polynomial.const(nb, int(i == j)) for j in range(n)] for i in range(n)])
    for k in range(1, n):
        term = term * xi * Fraction(1, k)
        total = total + term
    return total


def fixes_recipes(s, u):
    """Whether u fixes the recipes of each kind and order:
    ``{(kind, order): bool}``, the order of C and Q being 2.

    Each verdict is a condition on the matrix u alone, read off one
    ``lower_minors`` table of it; the entries may be numbers (a sample) or
    polynomials (the generic element, where each condition is a polynomial
    identity).  By Cauchy-Binet, a lower minor of u V on the last p rows R
    and the columns C is the sum over p-subsets S of det(u[R, S])
    det(V[S, C]), and for fixed C the Plucker coordinates det(V[S, C]) are
    linearly independent (Fulton, *Young Tableaux*, section 8), so u fixes
    every lower minor of order p exactly when det(u[R, S]) = [S == R].  The
    other kinds follow the same way:

      left minors   on rows R and the first p columns T of V* u^-1: fixed
                    exactly when det(u^-1[S, T]) = [S == T] for every S;
                    Jacobi's identity for complementary minors (Horn and
                    Johnson, *Matrix Analysis*, 2nd ed., section 0.8.4),
                    det(u^-1[S, T]) = (-1)^(sum S + sum T) det(u[T', S']) /
                    det u, makes that the order-(n - p) lower minors of u
                    being det u on the last n - p columns and 0 elsewhere;
      cross minors  the minors of u V on its r rows;
      C[i][j]       row i of V* times u^-1 u = I times column j of V: every
                    invertible u fixes it;
      Q[i][j]       column i of V times u^T F u times column j, whose
                    monomials are distinct for i < j; for i = j both sides
                    are symmetric matrices, so their quadratic forms agree
                    only if they do.
    """
    n, m, r = s.n, s.m, s.r

    def delta(minors, target, value):
        """Every minor is ``value`` on the subset ``target`` and 0 elsewhere."""
        return all(v == (value if cols == target else 0) for cols, v in minors.items())

    top = _lower_top(s)
    table = lower_minors(u, n if m else top)
    out = {}
    if m:
        det = table[n][tuple(range(n))]
        if not det:
            raise ValueError("singular matrix")
        out["C", 2] = True
        for p in range(1, min(m, n) + 1):
            out["leftMinor", p] = delta(table[n - p], tuple(range(p, n)), det)
    if s.group != "gl":
        f = form_matrix(s)
        out["Q", 2] = u.transpose() * f * u == f
    for p in range(1, top + 1):
        out["lowMinor", p] = delta(table[p], tuple(range(n - p, n)), 1)
    rows = _cross_rows(s)
    if rows:
        out["crossMinor", r] = delta(lower_minors(Matrix([u.rows[i] for i in rows]), r)[r], rows, 1)
    return out


@functools.lru_cache(maxsize=None)
def generic_verdicts(group, n, element=generic_unipotent):
    """``fixes_recipes`` on ``element(group, n)``, for the widest scenario of
    (group, n) (l = n, and m = n for gl), whose recipes hold every kind and
    order of any scenario of (group, n)."""
    return fixes_recipes(Scenario(group, n, n, n if group == "gl" else 0), element(group, n))


def transposed_first(s):
    """``nilradical_basis`` with its first element replaced by its
    transpose, which lies below the diagonal."""
    basis = groups.nilradical_basis(s)
    return [basis[0].transpose()] + basis[1:] if basis else basis


def truncated_basis(s):
    """``nilradical_basis`` with each element cut to its first nonzero entry
    in row order: still strictly upper triangular, and off the Lie algebra
    of o/sp where the element had a second entry."""
    out = []
    for b in groups.nilradical_basis(s):
        flat = [v for row in b.rows for v in row]
        first = next((k for k, v in enumerate(flat) if v), len(flat))
        flat = [v if k == first else 0 for k, v in enumerate(flat)]
        out.append(Matrix([flat[i * s.n : (i + 1) * s.n] for i in range(s.n)]))
    return out


def below_diagonal_generic(group, n):
    """The generic element with its first row added to its last: det 1, and
    not triangular."""
    u = generic_unipotent(group, n)
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
