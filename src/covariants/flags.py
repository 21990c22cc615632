"""Wedge-coordinate flags: the image of the unipotent quotient map.

For W = l copies of V the quotient by the maximal unipotent subgroup lands
in L = k^l + wedge^2 k^l + ... + wedge^p k^l with p = min(l, n): a point is
mapped to the wedges of its last rows,

    (u_n,  u_{n-1} ^ u_n,  ...,  u_{n-p+1} ^ ... ^ u_n),

whose coordinates in the lexicographic wedge basis are exactly the lower
minors of the coordinate matrix.  Image points have decomposable components
with nested annihilators.  ``is_decomposable`` and ``incidence_holds``
decide both by the quadratic Plücker relations (Fulton, *Young Tableaux*,
§8.1 and §9.1), with no elimination; ``annihilator`` computes the kernel
exactly, and the tests use it as the reference for the relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

# ``rank`` is no longer called here; the binding stays because
# bench/selftest.py checks that the tracer wraps ``flags.rank``.
from .linalg import Matrix, kernel_basis, lower_minors, rank  # noqa: F401
from .polynomial import canon_coeff
from .scenario import Scenario


def wedge_basis(l: int, k: int) -> list[tuple[int, ...]]:
    """Lexicographic k-subsets of {0..l-1}: the standard wedge-monomial basis."""
    return list(itertools.combinations(range(l), k))


@dataclass(frozen=True)
class FlagPoint:
    l: int
    components: tuple  # components[k-1] lives in wedge^k k^l

    @property
    def p(self) -> int:
        return len(self.components)

    def to_json(self) -> dict:
        return {
            "l": self.l,
            "p": self.p,
            "components": [
                [str(Fraction(x)) for x in comp] for comp in self.components
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FlagPoint":
        return cls(
            data["l"],
            tuple(
                tuple(canon_coeff(Fraction(x)) for x in comp)
                for comp in data["components"]
            ),
        )


def flag_map(rows, s: Scenario) -> FlagPoint:
    """Send an n x l point to its tuple of lower-row wedges.

    ``rows`` is the matrix of a point of W (n rows of length l, exact
    entries).  Component k's coordinates are the order-k lower minors, read
    from one ``lower_minors`` table; criterion 9 checks them against
    ``minor`` and against a wedge product that uses no determinant.

    Entries may be integers, rationals or polynomials: criterion 9 maps the
    generic point, the matrix of distinct variables.
    """
    mat = rows if isinstance(rows, Matrix) else Matrix(rows)
    if (mat.m, mat.n) != (s.n, s.l):
        raise ValueError(f"expected an {s.n} x {s.l} matrix")
    table = lower_minors(mat, min(s.l, s.n))
    return FlagPoint(s.l, tuple(tuple(order.values()) for order in table[1:]))


def wedge_action_matrix(g: Matrix, k: int) -> Matrix:
    """The induced action of g on wedge^k (minors on lexicographic subsets)."""
    return Matrix(
        [
            list(lower_minors(Matrix([g.rows[i] for i in rs]), k)[k].values())
            for rs in wedge_basis(g.n, k)
        ]
    )


def _check_length(q, k: int, l: int) -> None:
    if len(q) != comb(l, k):
        raise ValueError(f"component has {len(q)} coordinates, expected {comb(l, k)}")


def _wedge_matrix(q, k: int, l: int) -> list[list]:
    """Matrix of x -> q ^ x from k^l to wedge^{k+1} k^l.

    Rows are indexed by the (k+1)-subsets in lexicographic order; there are
    none when k >= l, since wedge^{l+1} k^l is zero.
    """
    _check_length(q, k, l)
    index_k = {S: i for i, S in enumerate(wedge_basis(l, k))}
    rows = []
    for T in wedge_basis(l, k + 1):
        row = [0] * l
        for pos, i in enumerate(T):
            c = q[index_k[T[:pos] + T[pos + 1 :]]]
            if c:
                row[i] = -c if (len(T) - 1 - pos) % 2 else c
        rows.append(row)
    return rows


def annihilator(q, k: int, l: int) -> list[list]:
    """Exact basis of {x : q ^ x = 0} for q in wedge^k k^l.

    The kernel of the wedge-by-x matrix, computed exactly; for k >= l it is
    all of k^l.
    """
    return kernel_basis(_wedge_matrix(q, k, l), l)


class IndecomposableComponent(ValueError):
    """Component ``k`` (1-based) of a flag point is not decomposable."""

    def __init__(self, k: int):
        super().__init__(f"component {k} is not decomposable")
        self.k = k


@lru_cache(maxsize=None)
def _plucker_relations(l: int, k: int, k2: int) -> tuple:
    """The relations between x in wedge^k k^l and y in wedge^k2 k^l, k <= k2.

    One relation per (k-1)-subset I and (k2+1)-subset J = (j_0 < ... < j_k2):

        sum_s (-1)^s x[I, j_s] y[J - j_s] = 0,

    where x[I, j] is the antisymmetric coordinate with j written after I
    (zero when j is in I).  Each relation is a tuple of ``(sign, x index,
    y index)`` terms on the lexicographic wedge bases.  For k == k2 the two
    orders of one product are merged, so a relation that vanishes
    identically is left out.  There are none for k == 0: a scalar has no
    (k-1)-subsets.
    """
    index_x = {S: i for i, S in enumerate(wedge_basis(l, k))}
    index_y = {S: i for i, S in enumerate(wedge_basis(l, k2))}
    relations = []
    for I in itertools.combinations(range(l), k - 1) if k else ():
        for J in itertools.combinations(range(l), k2 + 1):
            terms: dict[tuple[int, int], int] = {}
            for s, j in enumerate(J):
                if j in I:
                    continue
                # sorting (I, j) moves j left past the elements of I above it
                sign = -1 if (s + sum(i > j for i in I)) % 2 else 1
                a = index_x[tuple(sorted(I + (j,)))]
                b = index_y[J[:s] + J[s + 1 :]]
                key = (min(a, b), max(a, b)) if k == k2 else (a, b)
                terms[key] = terms.get(key, 0) + sign
            relation = tuple((c, a, b) for (a, b), c in terms.items() if c)
            if relation:
                relations.append(relation)
    return tuple(relations)


def _relations_hold(x, y, l: int, k: int, k2: int) -> bool:
    return not any(
        sum(c * x[a] * y[b] for c, a, b in relation)
        for relation in _plucker_relations(l, k, k2)
    )


def is_decomposable(q, k: int, l: int) -> bool:
    """Whether q in wedge^k k^l is a product of k vectors.

    Zero is decomposable.  A nonzero q is decomposable iff the Plücker
    relations of ``_plucker_relations`` vanish with x = y = q, which is the
    case iff its annihilator has dimension k.  A nonzero q of the wrong
    length raises ``ValueError``.
    """
    if not any(q):
        return True
    _check_length(q, k, l)
    return _relations_hold(q, q, l, k, k)


def incidence_holds(f: FlagPoint) -> bool:
    """Membership in the flag image: decomposable components, nested kernels.

    Both predicates are the quadratic Plücker relations of
    ``_plucker_relations`` (Fulton, *Young Tableaux*, §8.1 and §9.1), so no
    kernel is computed.  A nonzero q_k is decomposable iff the relations
    vanish with x = y = q_k (``is_decomposable``).  Two nonzero
    decomposable components nest,
    ann(q_k) <= ann(q_{k+1}), iff they vanish with x = q_k, y = q_{k+1}: the
    smaller component is x.

    A nonzero component after a zero one can never happen on the image, and
    fails here; trailing zero components are fine.  The first indecomposable
    component raises ``IndecomposableComponent`` before any nesting is
    tested, and a nonzero component of the wrong length ``ValueError``.

    Exact input of any kind is accepted, polynomials included: on the flag
    of the generic point (criterion 9) the relations vanish identically, so
    they vanish on the flag of every point.
    """
    l = f.l
    nonzero = []  # per component: the component, or None if zero
    for k, q in enumerate(f.components, start=1):
        if not any(q):
            nonzero.append(None)
            continue
        if not is_decomposable(q, k, l):
            raise IndecomposableComponent(k)
        nonzero.append(q)
    for k, (prev, cur) in enumerate(zip(nonzero, nonzero[1:]), start=1):
        if cur is None:
            continue  # zero component: no constraint at this step
        if prev is None:
            return False  # nonzero after zero: outside the image
        if not _relations_hold(prev, cur, l, k, k + 1):
            return False
    return True
