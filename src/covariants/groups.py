"""Classical groups: invariant forms, unipotent subgroups, and their actions.

Conventions (fixed so that every downstream artifact is reproducible):

* The bilinear form lives on the secondary diagonal.  Orthogonal: all +1.
  Symplectic: +1 in rows 1..r, -1 in rows r+1..n.
* The maximal unipotent subgroup consists of the upper unitriangular
  elements of the group; its Lie algebra (the nilradical) is cut out of the
  strictly upper triangular matrices by xi^T Q + Q xi = 0.  exp maps the
  nilradical onto the subgroup, so a polynomial that the whole nilradical
  kills is fixed by every element of it.  A random element u is drawn as
  ``(c, c*u)`` with c the lcm of its denominators, so a sample is built and
  used on integers only (``sample_unipotent``).
* A group element g acts on a polynomial by substitution: every V-copy
  column transforms by v -> g v (so x[i,j] -> sum_k g[i][k] x[k,j]) and
  every V*-copy row by w -> w g^{-1}.  The Lie algebra acts by the
  derivation obtained by differentiating that substitution along exp(t xi)
  at t = 0.

This module is the one home of two conventions the certificates share:
the derivation images of the nilradical (``derivation_images`` and
``derive_monomial``, used for invariance; they act on packed monomials,
see ``polynomial``) and the torus weights of the variables
(``variable_weights``, the one table of the x/a signs and the o/sp
folding; a monomial weighs the sum of its variables).  That table gives
the weight counts of the character formula (``dimensions``), the vertices
of the weight hull Phi (``polytopes``), and the slot masks with which
``torus_weight`` reads a polynomial's weight, and optionally checks its
degree, straight off the packed monomials; ``build_generators`` takes
every generator's weight and degree from it.  A weight is a plain tuple of
epsilon-coordinates (see ``weights``).
"""

from __future__ import annotations

import math
import random
from functools import lru_cache, reduce
from operator import or_

from .linalg import Matrix, kernel_basis, primitive_row
from .polynomial import SLOT_BITS, Polynomial, variable_key
from .scenario import Scenario


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
    primitive integer vectors.  Computed once per scenario.
    """
    return list(_nilradical_basis(s))


@lru_cache(maxsize=None)
def _nilradical_basis(s: Scenario) -> tuple[Matrix, ...]:
    n = s.n
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if s.group == "gl":
        out = []
        for i, j in positions:
            rows = [[0] * n for _ in range(n)]
            rows[i][j] = 1
            out.append(Matrix(rows))
        return tuple(out)
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
        ints = primitive_row(vec)
        rows = [[0] * n for _ in range(n)]
        for idx, (i, j) in enumerate(positions):
            rows[i][j] = ints[idx]
        out.append(Matrix(rows))
    return tuple(out)


def sample_unipotent(s: Scenario, rng, entry_range: tuple[int, int] = (-3, 3)) -> tuple[int, Matrix]:
    """A random element u of the maximal unipotent subgroup, as ``(c, c*u)``.

    c is the least positive integer that makes ``c*u`` integral, and the
    returned matrix is that integer matrix.  gl: u is unitriangular with
    uniform integer entries, so c = 1.  o/sp: u = exp(xi) for a random
    integer combination xi of the nilradical basis; it preserves the form
    exactly because the series terminates (xi^n = 0).  With N = n!, the
    matrix N*exp(xi) = sum_{k<n} (N/k!) xi^k is integral, and each term is
    the previous one times xi, divided exactly by k.  An entry e/N of exp(xi)
    has denominator N/gcd(N, e), and the lcm of those is N/gcd(N, all e), so
    c = N/gcd(N, all e) and ``c*u`` is N*exp(xi) divided by that gcd.
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
        return 1, Matrix(rows)
    xi = Matrix.zero(n, n)
    for b in nilradical_basis(s):
        c = rng.randint(lo, hi)
        if c:
            xi = xi + c * b
    big = math.factorial(n)
    term = total = big * Matrix.identity(n)  # (N/k!) xi^k at k = 0
    for k in range(1, n):
        term = (term * xi).map(lambda x: x // k)
        total = total + term
    g = math.gcd(big, *(x for row in total.rows for x in row))
    return big // g, total.map(lambda x: x // g)


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


@lru_cache(maxsize=None)
def variable_weights(s: Scenario) -> tuple:
    """The torus weight of each variable, in epsilon-coordinates: one tuple
    with entries in {-1, 0, 1} per variable, indexed by variable.

    x[i,j] has weight -e_i and a[i,j] has weight +e_j; for o/sp the weight
    is restricted to the small torus (e_{n+1-i} becomes -e_i, the middle
    coordinate dies for odd n).  A monomial's weight is the sum of its
    variables' weights, with multiplicity.
    """
    n, nx = s.n, s.n * s.l
    out, distinct = [], {}  # one tuple per distinct weight, since the table is kept
    for v in range(s.nvars):
        w = [0] * n
        if v < nx:
            w[v % n] = -1
        else:
            w[(v - nx) % n] = 1
        if s.group != "gl":
            w = [w[i] - w[n - 1 - i] for i in range(s.r)]
        w = tuple(w)
        out.append(distinct.setdefault(w, w))
    return tuple(out)


# 2**SLOT_BITS = 1 (mod _SLOT), so a packed monomial mod _SLOT is the sum
# of its slots while that sum stays below _SLOT
_SLOT = (1 << SLOT_BITS) - 1


@lru_cache(maxsize=None)
def _weight_masks(s: Scenario) -> tuple:
    """The packed masks ``torus_weight`` reads a monomial with: ``(high,
    pairs)``.  ``high`` has the slot bits at and above 2**b, with
    b = floor(log2(0xFFFF / nvars)), and ``pairs`` one (plus, minus) pair of
    slot masks per weight coordinate: the variables whose
    ``variable_weights`` entry there is +1, and those whose entry is -1."""
    nv = s.nvars
    b = max((_SLOT // max(nv, 1)).bit_length() - 1, 0)
    high = sum((_SLOT >> b << b) * variable_key(v) for v in range(nv))
    weights = variable_weights(s)
    pairs = tuple(
        tuple(sum(_SLOT * variable_key(v) for v, w in enumerate(weights) if w[i] == sign) for sign in (1, -1))
        for i in range(s.rank)
    )
    return high, pairs


def torus_weight(p: Polynomial, s: Scenario, degree: int | None = None) -> tuple:
    """The torus weight of a weight-homogeneous polynomial.

    The common weight of its monomials, each the sum of its variables'
    ``variable_weights`` with multiplicity, read off the packed monomials
    with no exponent tuple: since 2**16 = 1 (mod 0xFFFF),
    ``(m & mask) % 0xFFFF`` is the sum of the 16-bit slots of m that
    ``mask`` keeps, as long as that sum stays below 0xFFFF.  So the weight
    coordinate is that sum over the variables that add to it minus the sum
    over those that subtract (``_weight_masks``), and the total degree is
    the sum over all slots.  Every slot of a monomial is refused at or above
    2**b, b = floor(log2(0xFFFF / nvars)), so that no sum can reach 0xFFFF:
    such a monomial raises ``ValueError``.  (That is 2**10 at 49 variables,
    far above any degree the package builds.)

    Raises ``ValueError`` for the zero polynomial, for monomials of mixed
    weight, and, when ``degree`` is given, unless every monomial has total
    degree ``degree``.
    """
    if p.nvars != s.nvars:
        raise ValueError("polynomial does not live on this scenario's universe")
    monomials = p.packed_terms().keys()
    if not monomials:
        raise ValueError("the zero polynomial has no weight")
    high, pairs = _weight_masks(s)
    if reduce(or_, monomials) & high:
        raise ValueError(f"a monomial too large to weigh by slot sums ({s.nvars} variables)")
    if degree is not None and {m % _SLOT for m in monomials} != {degree}:
        raise ValueError(f"not homogeneous of degree {degree}")
    weight = []
    for plus, minus in pairs:
        values = {(m & plus) % _SLOT - (m & minus) % _SLOT for m in monomials}
        if len(values) > 1:
            raise ValueError("not a weight vector (monomials of mixed weight)")
        weight.append(values.pop())
    return tuple(weight)
