"""Weight polytopes and the chamber-inclusion check.

``Phi`` is the convex hull of the torus weights of W (the cross-polytope on
the basic characters), ``delta`` the hull of the normalized generator
weights, and ``chamber`` the dominant cone.  Both hulls are read off the
scenario's table regime t = ``degrees.table_scenario(s)`` (l >= n, and
m >= n for gl): Phi's vertices are the distinct nonzero
``groups.variable_weights`` of t, and delta's points are 0 and each
generator's weight over its degree, for the generators that
``build_generators(t)`` makes.  So the check certifies the built system,
not a transcription of it.  The verified inclusion is two-sided, and each
side is decided by its own exact algorithm:

* random rational points of Phi intersected with the chamber must lie in
  delta.  Phi is the cross-polytope, so a point lies in it iff the sum of
  the absolute values of its coordinates is at most 1 (a Phi vertex off
  the cross-polytope shows as samples outside it); delta membership is a
  test against delta's facet inequalities, built once per spec.
* every delta point must lie back in Phi (exact LP, ``lp``) and in the
  chamber.

``chamber_inclusion_check`` returns (passed, witness), the shape of every
suite check: the witness lists the failing points of each kind.

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
from .rng import substream
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

    # The predicates take a point as numerators over one positive
    # denominator, so a sample of ``sample_chamber_point`` is tested on
    # integers; a point of any exact numbers is its own numerators over 1.
    # The chamber is a cone, so its test needs no denominator.

    def in_chamber(self, nums) -> bool:
        return all(
            sum(c * x for c, x in zip(row, nums)) >= 0 for row in self.chamber
        )

    def in_phi(self, nums, den=1) -> bool:
        return sum(abs(x) for x in nums) <= den

    def in_delta(self, nums, den=1) -> bool:
        return all(
            sum(a * x for a, x in zip(row, nums)) + row[-1] * den >= 0
            for row in self.delta_facets
        )


def build_polytopes(s: Scenario) -> PolytopeSpec:
    """Phi, delta and the chamber of s's group and n, read off the table
    regime t = ``table_scenario(s)`` (see the module docstring).

    Phi's vertices come in the order e_1, -e_1, e_2, ..., in which
    ``sample_chamber_point`` draws them; delta's points are sorted.
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


def sample_chamber_point(s: Scenario, spec: PolytopeSpec, rng) -> tuple[list[int], int]:
    """A random rational point of Phi hit into the chamber by the Weyl group,
    as ``(numerators, t)``: integer numerators over one denominator t >= 1.

    Averages t <= 20 vertices of Phi and symmetrizes: gl sorts coordinates
    descending; o/sp sorts absolute values descending and flips signs
    nonnegative, except that the even-orthogonal chamber keeps a free sign
    on the last coordinate, exercised with probability 1/2.  Over the one
    positive t the numerators sort in the order of the rational point.
    """
    q = s.rank
    t = rng.randint(1, 20)
    point = [0] * q
    for _ in range(t):
        v = spec.phi_vertices[rng.randrange(len(spec.phi_vertices))]
        for i in range(q):
            point[i] += v[i]
    if s.group == "gl":
        point.sort(reverse=True)
    else:
        point.sort(key=abs, reverse=True)
        point = [abs(x) for x in point]
        if s.case == "D" and rng.random() < 0.5:
            point[q - 1] = -point[q - 1]
    return point, t


def chamber_inclusion_check(s: Scenario, samples: int = 500, seed: int = 0) -> tuple[bool, dict | None]:
    """Verify delta = Phi intersect chamber on random points plus vertices.

    Samples are tested on their integer numerators against the
    cross-polytope and delta's facet inequalities; delta's points are
    tested against Phi by exact LP.  Returns (passed, witness): the witness
    of a failure lists the failing points as fraction strings under
    ``points_outside_delta``, ``delta_vertices_outside`` and
    ``points_outside_phi`` (a sample outside Phi or the chamber).
    """
    spec = build_polytopes(s)
    witness = {"points_outside_delta": [], "delta_vertices_outside": [], "points_outside_phi": []}
    rng = substream(seed, f"polytope:{s.group}:{s.n}")
    for _ in range(samples):
        nums, t = sample_chamber_point(s, spec, rng)
        if not (spec.in_phi(nums, t) and spec.in_chamber(nums)):
            witness["points_outside_phi"].append(_fraction_strings(nums, t))
        elif not spec.in_delta(nums, t):
            witness["points_outside_delta"].append(_fraction_strings(nums, t))
    for v in spec.delta_vertices:
        if not (convex_membership(v, spec.phi_vertices) and spec.in_chamber(v)):
            witness["delta_vertices_outside"].append(_fraction_strings(v))
    passed = not any(witness.values())
    return passed, None if passed else witness


def _fraction_strings(nums, den=1) -> list[str]:
    return [str(Fraction(x, den)) for x in nums]
