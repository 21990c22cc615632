"""Weight polytopes and the chamber-inclusion check.

``Phi`` is the convex hull of the torus weights of W (the cross-polytope on
the basic characters), ``delta`` the hull of the normalized generator
weights, and ``chamber`` the dominant cone.  Both hulls are read off the
scenario's table regime t = ``degrees.table_scenario(s)`` (l >= n, and
m >= n for gl): Phi's vertices are the distinct nonzero
``groups.variable_weights`` of t, and delta's points are 0 and each
generator's weight over its degree, for the generators that
``build_generators(t)`` makes.  So the check certifies the built system,
not a transcription of it.  The verified equality delta = Phi ∩ chamber is
two-sided, and each side is decided exactly, with no sampled point:

* Phi ∩ chamber ⊆ delta by delta's facets.  Every Phi vertex must be one
  of the 2q vectors ±e_i, so Phi lies in the cross-polytope, and every
  facet row of delta must be one of the rows that cut out the
  cross-polytope ∩ chamber: a chamber row (c, 0) or a cross-polytope facet
  (−σ, 1), σ ∈ {±1}^q.  Then delta, the intersection of its facet
  half-spaces, contains the cross-polytope ∩ chamber ⊇ Phi ∩ chamber.
  Conversely, if delta equals the cross-polytope ∩ chamber, each facet of
  delta is a positive multiple of one of those rows (Schrijver, *Theory of
  Linear and Integer Programming*, 1986, §8.4), and both are primitive
  integer rows, so they are equal.
* every delta point must lie back in Phi (exact LP, ``lp``) and in the
  chamber.

``chamber_inclusion_check`` returns (passed, witness), the shape of every
suite check: the witness lists the failing vertices and facet rows.

The facet list is complete because delta is full-dimensional (checked):
every facet of a full-dimensional polytope in R^q passes through q affinely
independent points of a generating set, so the hyperplanes through such
q-subsets that leave every point on one side are exactly the facets
(Ziegler, *Lectures on Polytopes*, 1995).  Points inside the hull (the
normalized weights of some ``o`` generators are) change no facet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .degrees import table_scenario
from .generators import build_generators
from .groups import variable_weights
from .linalg import kernel_basis, primitive_row, rank
from .lp import convex_membership
from .polynomial import canon_coeff
from .scenario import Scenario


def hull_facets(points) -> tuple:
    """Facet inequalities of the convex hull of ``points`` in R^q, exactly.

    Each facet is a primitive integer row (a_1, ..., a_q, c) with the
    meaning <a, w> + c >= 0, and the hull is the set where all of them hold.
    Raises ``ValueError`` unless the hull is full-dimensional (affine rank q),
    the precondition that makes the enumeration complete.
    """
    points = [tuple(p) for p in points]
    q = len(points[0])
    affine_rank = rank([[x - y for x, y in zip(p, points[0])] for p in points[1:]])
    if affine_rank != q:
        raise ValueError(f"hull of {len(points)} points has affine rank {affine_rank}, expected {q}")
    lifted = [list(p) + [1] for p in points]
    facets = set()
    for subset in itertools.combinations(lifted, q):
        normal = kernel_basis(subset, q + 1)
        if len(normal) != 1:
            continue  # affinely dependent: no unique hyperplane
        row = primitive_row(normal[0])
        sides = [sum(a * x for a, x in zip(row, p)) for p in lifted]
        if all(v >= 0 for v in sides):
            facets.add(tuple(row))
        elif all(v <= 0 for v in sides):
            facets.add(tuple(-a for a in row))
    return tuple(sorted(facets))


@dataclass(frozen=True)
class PolytopeSpec:
    phi_vertices: tuple  # +-e_i: the cross-polytope
    delta_vertices: tuple  # 0 and the normalized generator weights
    chamber: tuple  # rows c with the meaning <c, w> >= 0
    delta_facets: tuple = field(init=False)  # rows (a, c): <a, w> + c >= 0

    def __post_init__(self):
        object.__setattr__(self, "delta_facets", hull_facets(self.delta_vertices))

    def in_chamber(self, point) -> bool:
        return all(
            sum(c * x for c, x in zip(row, point)) >= 0 for row in self.chamber
        )


def build_polytopes(s: Scenario) -> PolytopeSpec:
    """Phi, delta and the chamber of s's group and n, read off the table
    regime t = ``table_scenario(s)`` (see the module docstring).

    Phi's vertices come in the order e_1, -e_1, e_2, ...; delta's points
    are sorted.
    """
    t, q = table_scenario(s), s.rank
    weights = {w for w in variable_weights(t) if any(w)}
    phi_vertices = sorted(weights, key=lambda w: ([abs(x) for x in w], w), reverse=True)
    delta = {(0,) * q} | {
        tuple(canon_coeff(Fraction(x, g.degree)) for x in g.weight) for g in build_generators(t)
    }

    chamber_rows = []
    for i in range(q - 1):
        row = [0] * q
        row[i] = 1
        row[i + 1] = -1
        chamber_rows.append(tuple(row))
    if s.group != "gl":
        if s.case == "D":
            if q >= 2:  # rank-1 even orthogonal: no constraint
                row = [0] * q
                row[q - 2] = 1
                row[q - 1] = 1
                chamber_rows.append(tuple(row))
        else:
            row = [0] * q
            row[q - 1] = 1
            chamber_rows.append(tuple(row))
    return PolytopeSpec(tuple(phi_vertices), tuple(sorted(delta)), tuple(chamber_rows))


def chamber_inclusion_check(s: Scenario) -> tuple[bool, dict | None]:
    """Verify delta = Phi ∩ chamber exactly (see the module docstring).

    Returns (passed, witness): the witness of a failure lists, as fraction
    strings, the Phi vertices other than ±e_i under
    ``phi_vertices_off_cross`` and the delta points outside Phi or the
    chamber under ``delta_vertices_outside``, and under
    ``delta_facets_outside`` the facet rows ``[a_1, ..., a_q, c]`` of delta
    that are neither a chamber row nor a cross-polytope facet.
    """
    spec = build_polytopes(s)
    q = s.rank
    cross = {tuple(sign * int(i == k) for i in range(q)) for k in range(q) for sign in (1, -1)}
    # the rows that cut out the cross-polytope ∩ chamber: its 2^q facets
    # <σ, w> <= 1 and the chamber rows
    rows = {tuple(-x for x in sigma) + (1,) for sigma in itertools.product((1, -1), repeat=q)}
    rows |= {row + (0,) for row in spec.chamber}
    witness = {
        "phi_vertices_off_cross": [_fraction_strings(v) for v in spec.phi_vertices if v not in cross],
        "delta_facets_outside": [list(row) for row in spec.delta_facets if row not in rows],
        "delta_vertices_outside": [
            _fraction_strings(v)
            for v in spec.delta_vertices
            if not (convex_membership(v, spec.phi_vertices) and spec.in_chamber(v))
        ],
    }
    passed = not any(witness.values())
    return passed, None if passed else witness


def _fraction_strings(point) -> list[str]:
    return [str(Fraction(x)) for x in point]
