"""Wedge-coordinate flags: the image of the unipotent quotient map.

For W = l copies of V the quotient by the maximal unipotent subgroup lands
in L = k^l + wedge^2 k^l + ... + wedge^p k^l with p = min(l, n): a point is
mapped to the wedges of its last rows,

    (u_n,  u_{n-1} ^ u_n,  ...,  u_{n-p+1} ^ ... ^ u_n),

whose coordinates in the lexicographic wedge basis are exactly the lower
minors of the coordinate matrix.  Image points have decomposable components
with nested annihilators; both predicates are decided exactly via kernels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .linalg import Matrix, kernel_basis, lower_minors, rank
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


def annihilator(q, k: int, l: int) -> list[list]:
    """Exact basis of {x : q ^ x = 0} for q in wedge^k k^l.

    The wedge-by-x map goes to wedge^{k+1}; its matrix rows are indexed by
    (k+1)-subsets and the kernel is computed exactly.
    """
    basis_k = wedge_basis(l, k)
    if len(q) != len(basis_k):
        raise ValueError(f"component has {len(q)} coordinates, expected {len(basis_k)}")
    if k >= l:
        # wedging into wedge^{l+1} k^l is identically zero
        return [[int(i == j) for j in range(l)] for i in range(l)]
    index_k = {S: i for i, S in enumerate(basis_k)}
    basis_k1 = wedge_basis(l, k + 1)
    rows = []
    for T in basis_k1:
        row = [0] * l
        for pos, i in enumerate(T):
            S = T[:pos] + T[pos + 1 :]
            c = q[index_k[S]]
            if c:
                sign = -1 if (len(T) - 1 - pos) % 2 else 1
                row[i] = sign * c
        rows.append(row)
    return kernel_basis(rows, l)


def is_decomposable(q, k: int, l: int) -> bool:
    """A k-vector is decomposable iff it is zero or its annihilator has dim k."""
    if not any(q):
        return True
    return len(annihilator(q, k, l)) == k


class IndecomposableComponent(ValueError):
    """Component ``k`` (1-based) of a flag point is not decomposable."""

    def __init__(self, k: int):
        super().__init__(f"component {k} is not decomposable")
        self.k = k


def incidence_holds(f: FlagPoint) -> bool:
    """Membership in the flag image: decomposable components, nested kernels.

    A nonzero component after a zero one can never happen on the image, and
    fails here; trailing zero components are fine.  The first indecomposable
    component raises ``IndecomposableComponent``.
    """
    l = f.l
    anns = []
    for k, q in enumerate(f.components, start=1):
        if not any(q):
            anns.append(None)
            continue
        ann = annihilator(q, k, l)
        if len(ann) != k:
            raise IndecomposableComponent(k)
        anns.append(ann)
    for k in range(1, f.p):
        cur, prev = anns[k], anns[k - 1]
        if cur is None:
            continue  # zero component: no constraint at this step
        if prev is None:
            return False  # nonzero after zero: outside the image
        stacked = [list(v) for v in cur] + [list(v) for v in prev]
        if rank(stacked) != len(cur):
            return False
    return True
