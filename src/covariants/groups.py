"""Classical groups: invariant forms, unipotent subgroups, and their actions.

Conventions (fixed so that every downstream artifact is reproducible):

* The bilinear form lives on the secondary diagonal.  Orthogonal: all +1.
  Symplectic: +1 in rows 1..r, -1 in rows r+1..n.
* The maximal unipotent subgroup consists of the upper unitriangular
  elements of the group; its Lie algebra (the nilradical) is cut out of the
  strictly upper triangular matrices by xi^T Q + Q xi = 0.
* A group element g acts on a polynomial by substitution: every V-copy
  column transforms by v -> g v (so x[i,j] -> sum_k g[i][k] x[k,j]) and
  every V*-copy row by w -> w g^{-1}.  The Lie algebra acts by the
  derivation obtained by differentiating that substitution along exp(t xi)
  at t = 0.

This module is the one home of two conventions the certificates share:
the derivation images of the nilradical (``derivation_images`` and
``derive_monomial``, used for invariance and for the exact invariant
kernels; they act on packed monomials, see ``polynomial``) and the torus
weight of a monomial (``monomial_torus_weight``, used for generator weights
and for the weight blocks of those kernels).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from .linalg import Matrix, kernel_basis
from .polynomial import Polynomial, canon_coeff, variable_key
from .scenario import Scenario
from .weights import Weight


def form_matrix(s: Scenario) -> Matrix:
    """The defining bilinear form of o/sp (errors for gl)."""
    if s.group == "gl":
        raise ValueError("gl preserves no bilinear form")
    n = s.n
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if s.group == "o":
            rows[i][n - 1 - i] = 1
        else:
            rows[i][n - 1 - i] = 1 if i < n // 2 else -1
    return Matrix(rows)


def nilradical_basis(s: Scenario) -> list[Matrix]:
    """Integer basis of the Lie algebra of the maximal unipotent subgroup.

    gl: the elementary matrices E[i][j], i < j, in lexicographic order.
    o/sp: the kernel of xi -> xi^T Q + Q xi inside the strictly upper
    triangular matrices, found by exact elimination and normalized to
    primitive integer vectors.
    """
    n = s.n
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if s.group == "gl":
        out = []
        for i, j in positions:
            rows = [[0] * n for _ in range(n)]
            rows[i][j] = 1
            out.append(Matrix(rows))
        return out
    q = form_matrix(s)
    # Entry (a, b) of xi^T Q + Q xi must vanish; the coefficient of the
    # unknown xi[i][j] there is Q[i][b]*[j == a] + Q[a][i]*[j == b].
    constraint_rows = []
    for a in range(n):
        for b in range(n):
            row = [0] * len(positions)
            for idx, (i, j) in enumerate(positions):
                coeff = (q[i, b] if j == a else 0) + (q[a, i] if j == b else 0)
                row[idx] = coeff
            constraint_rows.append(row)
    basis = kernel_basis(constraint_rows, len(positions))
    out = []
    for vec in basis:
        denom = math.lcm(*(Fraction(v).denominator for v in vec))
        ints = [int(Fraction(v) * denom) for v in vec]
        g = math.gcd(*(abs(v) for v in ints))
        if g > 1:
            ints = [v // g for v in ints]
        rows = [[0] * n for _ in range(n)]
        for idx, (i, j) in enumerate(positions):
            rows[i][j] = ints[idx]
        out.append(Matrix(rows))
    return out


def exp_nilpotent(xi: Matrix) -> Matrix:
    """Exact exponential of a nilpotent matrix (the series terminates)."""
    n = xi.n
    g = Matrix.identity(n)
    term = Matrix.identity(n)
    k = 1
    while True:
        term = (term * xi).scale(Fraction(1, k))
        if term.is_zero():
            break
        g = g + term
        k += 1
        if k > n + 1:
            raise ValueError("matrix is not nilpotent")
    return g.map(canon_coeff)


def sample_unipotent(s: Scenario, rng, entry_range: tuple[int, int] = (-3, 3)) -> Matrix:
    """A random element of the maximal unipotent subgroup (exact entries).

    gl: unitriangular with uniform integer entries.  o/sp: exp of a random
    integer combination of the nilradical basis, which preserves the form
    exactly because the exponential series terminates.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    lo, hi = entry_range
    n = s.n
    if s.group == "gl":
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
            for j in range(i + 1, n):
                rows[i][j] = rng.randint(lo, hi)
        return Matrix(rows)
    xi = Matrix.zero(n, n)
    for b in nilradical_basis(s):
        c = rng.randint(lo, hi)
        if c:
            xi = xi + b.scale(c)
    return exp_nilpotent(xi)


# -- actions on polynomials ---------------------------------------------------


def substitution_images(g: Matrix, s: Scenario) -> dict[int, Polynomial]:
    """Variable images of the substitution action of g (see module docstring)."""
    nv = s.nvars
    images: dict[int, Polynomial] = {}
    for j in range(s.l):
        for i in range(s.n):
            images[s.x_var(i, j)] = Polynomial.linear(nv, {s.x_var(k, j): g[i, k] for k in range(s.n)})
    if s.m:
        ginv = g.inverse()
        for i in range(s.m):
            for j in range(s.n):
                images[s.a_var(i, j)] = Polynomial.linear(nv, {s.a_var(i, k): ginv[k, j] for k in range(s.n)})
    return images


def act_on_polynomial(g: Matrix, p: Polynomial, s: Scenario) -> Polynomial:
    """The substitution action of a group element on a polynomial."""
    if p.nvars != s.nvars:
        raise ValueError("polynomial does not live on this scenario's universe")
    return p.substitute(substitution_images(g, s))


def derivation_images(xi: Matrix, s: Scenario) -> list[list[tuple[int, object]]]:
    """Sparse images of the variables under the derivation of xi.

    Entry v lists one (shift, coefficient) pair per variable w of the image
    of variable v, where x[i,j] -> sum_k xi[i][k] x[k,j] and
    a[i,j] -> -sum_k a[i,k] xi[k][j]; the shift turns a packed monomial's
    factor v into a factor w.
    """
    images: list[list[tuple[int, object]]] = [[] for _ in range(s.nvars)]

    def shift(v: int, w: int) -> int:
        return variable_key(w) - variable_key(v)

    for j in range(s.l):
        for i in range(s.n):
            v = s.x_var(i, j)
            images[v] = [(shift(v, s.x_var(k, j)), xi[i, k]) for k in range(s.n) if xi[i, k]]
    for i in range(s.m):
        for j in range(s.n):
            v = s.a_var(i, j)
            images[v] = [(shift(v, s.a_var(i, k)), -xi[k, j]) for k in range(s.n) if xi[k, j]]
    return images


def derive_monomial(m: int, factors, images) -> list[tuple[int, object]]:
    """The (packed monomial, coefficient) terms of the derivation with the
    given ``derivation_images`` applied to the packed monomial m, whose
    nonzero exponents are the (variable, exponent) pairs ``factors``.

    For a strictly upper triangular xi no variable's image contains the
    variable itself, so the monomials are distinct.
    """
    out = []
    for v, e in factors:
        for delta, coeff in images[v]:
            out.append((m + delta, e * coeff))
    return out


def lie_act_on_polynomial(xi: Matrix, p: Polynomial, s: Scenario, images=None) -> Polynomial:
    """The derivation action: d/dt of the substitution along exp(t xi) at 0.

    ``images`` may pass in ``derivation_images(xi, s)`` when xi acts on
    several polynomials.
    """
    if p.nvars != s.nvars:
        raise ValueError("polynomial does not live on this scenario's universe")
    if images is None:
        images = derivation_images(xi, s)
    out: dict = {}
    for m, c, factors in p.sparse_terms():
        for key, k in derive_monomial(m, factors, images):
            out[key] = out.get(key, 0) + c * k
    return Polynomial.from_packed(s.nvars, out)


def monomial_torus_weight(s: Scenario, exps: tuple[int, ...]) -> tuple:
    """The torus weight of one monomial, in epsilon-coordinates.

    Each x[i,j] factor contributes -e_i and each a[i,j] factor +e_j; for
    o/sp the result is restricted to the small torus (e_{n+1-i} becomes
    -e_i, the middle coordinate dies for odd n).
    """
    n = s.n
    nx = n * s.l
    w = [0] * n
    for idx, e in enumerate(exps):
        if not e:
            continue
        if idx < nx:
            w[idx % n] -= e
        else:
            w[(idx - nx) % n] += e
    if s.group != "gl":
        w = [w[i] - w[n - 1 - i] for i in range(s.r)]
    return tuple(w)


def torus_weight(p: Polynomial, s: Scenario) -> Weight:
    """The torus weight of a weight-homogeneous polynomial.

    The common ``monomial_torus_weight`` of its monomials; raises for the
    zero polynomial and if the monomials do not agree.
    """
    weights = {monomial_torus_weight(s, exps) for exps in p.exponents()}
    if not weights:
        raise ValueError("the zero polynomial has no weight")
    if len(weights) > 1:
        raise ValueError("not a weight vector (monomials of mixed weight)")
    return Weight(weights.pop())
