"""Weight polytopes and the chamber-inclusion check.

``Phi`` is the convex hull of the torus weights of W (the cross-polytope on
the basic characters), ``delta`` the hull of the normalized generator
weights, and ``chamber`` the dominant cone.  The verified inclusion is
two-sided: random rational points of Phi intersected with the chamber must
lie in delta (exact LP per point), and every delta vertex must lie back in
Phi and the chamber.

Vertex lists (epsilon-coordinates; q = torus rank):

  gl: e_1, (e_1+e_2)/2, ..., (e_1+...+e_q)/q, -e_q, (-e_q-e_{q-1})/2, ...,
      (-e_q-...-e_1)/q, and 0.
  sp and odd o: 0, e_1, (e_1+e_2)/2, ..., (e_1+...+e_q)/q.
  even o: additionally (e_1+...+e_{q-1}-e_q)/q; its chamber is
      w_1 >= ... >= w_{q-1} >= |w_q| (the last coordinate may go negative,
      which is exactly what the extra vertex covers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .lp import convex_membership
from .polynomial import canon_coeff
from .rng import substream
from .scenario import Scenario


@dataclass(frozen=True)
class PolytopeSpec:
    phi_vertices: tuple
    delta_vertices: tuple
    chamber: tuple  # rows c with the meaning <c, w> >= 0

    def in_chamber(self, point) -> bool:
        return all(
            sum(c * x for c, x in zip(row, point)) >= 0 for row in self.chamber
        )


def build_polytopes(s: Scenario) -> PolytopeSpec:
    q = s.rank
    phi_vertices = []
    for i in range(q):
        e = [0] * q
        e[i] = 1
        phi_vertices.append(tuple(e))
        e2 = [0] * q
        e2[i] = -1
        phi_vertices.append(tuple(e2))

    delta = [tuple([0] * q)]
    for k in range(1, q + 1):
        v = [Fraction(1, k) if i < k else Fraction(0) for i in range(q)]
        delta.append(tuple(canon_coeff(x) for x in v))
    if s.group == "gl":
        for k in range(1, q + 1):
            v = [Fraction(-1, k) if i >= q - k else Fraction(0) for i in range(q)]
            delta.append(tuple(canon_coeff(x) for x in v))
    elif s.case == "D":
        v = [Fraction(1, q)] * (q - 1) + [Fraction(-1, q)]
        delta.append(tuple(canon_coeff(x) for x in v))

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
    return PolytopeSpec(tuple(phi_vertices), tuple(delta), tuple(chamber_rows))


def sample_chamber_point(s: Scenario, spec: PolytopeSpec, rng) -> tuple:
    """A random rational point of Phi hit into the chamber by the Weyl group.

    Averages up to 20 vertices of Phi (denominator <= 20) and symmetrizes:
    gl sorts coordinates descending; o/sp sorts absolute values descending
    and flips signs nonnegative, except that the even-orthogonal chamber
    keeps a free sign on the last coordinate, exercised with probability 1/2.
    """
    q = s.rank
    t = rng.randint(1, 20)
    point = [Fraction(0)] * q
    for _ in range(t):
        v = spec.phi_vertices[rng.randrange(len(spec.phi_vertices))]
        for i in range(q):
            point[i] += v[i]
    point = [x / t for x in point]
    if s.group == "gl":
        point.sort(reverse=True)
    else:
        point.sort(key=abs, reverse=True)
        point = [abs(x) for x in point]
        if s.case == "D" and rng.random() < 0.5:
            point[q - 1] = -point[q - 1]
    return tuple(canon_coeff(x) for x in point)


@dataclass
class PolytopeReport:
    scenario: Scenario
    samples: int
    seed: int
    sample_failures: list = field(default_factory=list)
    vertex_failures: list = field(default_factory=list)
    sampler_failures: list = field(default_factory=list)  # samples outside Phi or the chamber

    @property
    def passed(self) -> bool:
        return not (self.sample_failures or self.vertex_failures or self.sampler_failures)

    def to_json(self) -> dict:
        return {
            "check": "chamber-inclusion",
            "inputs": {
                "scenario": self.scenario.to_json(),
                "samples": self.samples,
                "seed": self.seed,
            },
            "verdict": "pass" if self.passed else "fail",
            "witness": None if self.passed else {
                key: [[str(Fraction(x)) for x in pt] for pt in points]
                for key, points in (
                    ("points_outside_delta", self.sample_failures),
                    ("delta_vertices_outside", self.vertex_failures),
                    ("points_outside_phi", self.sampler_failures),
                )
            },
        }


def chamber_inclusion_check(s: Scenario, samples: int = 500, seed: int = 0) -> PolytopeReport:
    """Verify delta = Phi intersect chamber on random points plus vertices;
    a sample outside Phi or the chamber is reported as ``points_outside_phi``."""
    spec = build_polytopes(s)
    report = PolytopeReport(s, samples, seed)
    rng = substream(seed, f"polytope:{s.group}:{s.n}")
    for _ in range(samples):
        pt = sample_chamber_point(s, spec, rng)
        if not (convex_membership(pt, spec.phi_vertices) and spec.in_chamber(pt)):
            report.sampler_failures.append(pt)
        elif not convex_membership(pt, spec.delta_vertices):
            report.sample_failures.append(pt)
    for v in spec.delta_vertices:
        if not (convex_membership(v, spec.phi_vertices) and spec.in_chamber(v)):
            report.vertex_failures.append(v)
    return report
