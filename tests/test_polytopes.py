import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from covariants import polytopes
from covariants.generators import GeneratorSet
from covariants.lp import convex_membership
from covariants.polytopes import build_polytopes, chamber_inclusion_check, hull_facets
from covariants.polynomial import canon_coeff
from covariants.scenario import GROUPS, Scenario
from covariants.suite import invariance_grid


def test_gl2_vertex_lists():
    spec = build_polytopes(Scenario("gl", 2, 2))
    assert set(spec.phi_vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(spec.delta_vertices) == {
        (0, 0),
        (1, 0),
        (Fraction(1, 2), Fraction(1, 2)),
        (0, -1),
        (Fraction(-1, 2), Fraction(-1, 2)),
    }


def test_sp4_delta():
    spec = build_polytopes(Scenario("sp", 4, 1))
    assert set(spec.delta_vertices) == {(0, 0), (1, 0), (Fraction(1, 2), Fraction(1, 2))}


def test_o6_has_spin_vertex():
    spec = build_polytopes(Scenario("o", 6, 1))
    assert (Fraction(1, 3), Fraction(1, 3), Fraction(-1, 3)) in set(spec.delta_vertices)


def test_delta_vertices_satisfy_chamber():
    for s in (
        Scenario("gl", 3, 1),
        Scenario("o", 5, 1),
        Scenario("o", 6, 1),
        Scenario("sp", 4, 1),
    ):
        spec = build_polytopes(s)
        for v in spec.delta_vertices:
            assert spec.in_chamber(v), (s, v)


def test_inclusion_gl3():
    assert chamber_inclusion_check(Scenario("gl", 3, 1)) == (True, None)


def test_inclusion_across_groups():
    for s in (Scenario("o", 4, 1), Scenario("o", 5, 1), Scenario("sp", 4, 1)):
        assert chamber_inclusion_check(s) == (True, None)


def test_report_witness(monkeypatch):
    s = Scenario("sp", 4, 1)
    assert chamber_inclusion_check(s) == (True, None)
    half = (Fraction(1, 2), Fraction(1, 2))
    assert half in build_polytopes(s).delta_vertices
    monkeypatch.setattr(polytopes, "convex_membership", lambda v, pts: v != half and convex_membership(v, pts))
    assert chamber_inclusion_check(s) == (False, {
        "phi_vertices_off_cross": [],
        "delta_facets_outside": [],
        "delta_vertices_outside": [["1/2", "1/2"]],
    })


FACET_SCENARIOS = (
    [Scenario("gl", n, 1) for n in range(1, 6)]
    + [Scenario("o", n, 1) for n in range(2, 9)]
    + [Scenario("sp", n, 1) for n in (2, 4, 6, 8)]
)


def in_delta(spec, pt) -> bool:
    """Whether pt satisfies every facet row (a, c) of delta: <a, pt> + c >= 0."""
    return all(sum(a * x for a, x in zip(row, pt)) + row[-1] >= 0 for row in spec.delta_facets)


@pytest.mark.parametrize("s", FACET_SCENARIOS, ids=lambda s: f"{s.group}{s.n}")
def test_facet_test_agrees_with_lp(s):
    spec = build_polytopes(s)
    verts = spec.delta_vertices
    rng = random.Random(f"facets:{s.group}:{s.n}")
    points = [
        tuple(Fraction(x + y, 2) for x, y in zip(a, b))
        for a, b in itertools.combinations(verts, 2)
    ]
    for _ in range(40):
        weights = [rng.randint(0, 5) for _ in verts]
        total = sum(weights) or 1
        points.append(tuple(
            sum(Fraction(w, total) * v[i] for w, v in zip(weights, verts)) for i in range(s.rank)
        ))
        points.append(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(s.rank)))
    # the centroid of one facet's vertices, pushed 1/10^12 across that facet
    row = spec.delta_facets[0]
    on_facet = [v for v in verts if sum(a * x for a, x in zip(row, v)) + row[-1] == 0]
    centroid = [sum(Fraction(v[i]) for v in on_facet) / len(on_facet) for i in range(s.rank)]
    norm2 = sum(a * a for a in row[:-1])
    outside = tuple(x - Fraction(a, 10**12 * norm2) for x, a in zip(centroid, row))
    assert in_delta(spec, centroid) and not in_delta(spec, outside)
    points.append(outside)
    for pt in points:
        assert in_delta(spec, pt) == convex_membership(pt, verts), pt


def closed_form_delta(s):
    """Delta's vertices in closed form (epsilon-coordinates, q = torus rank;
    oracle):

      gl: e_1, (e_1+e_2)/2, ..., (e_1+...+e_q)/q, -e_q, (-e_q-e_{q-1})/2,
          ..., (-e_q-...-e_1)/q, and 0.
      sp and odd o: 0, e_1, (e_1+e_2)/2, ..., (e_1+...+e_q)/q.
      even o: additionally (e_1+...+e_{q-1}-e_q)/q; its chamber is
          w_1 >= ... >= w_{q-1} >= |w_q|, and this vertex covers a negative
          last coordinate.
    """
    q = s.rank
    delta = [(0,) * q]
    for k in range(1, q + 1):
        delta.append(tuple(canon_coeff(Fraction(int(i < k), k)) for i in range(q)))
    if s.group == "gl":
        for k in range(1, q + 1):
            delta.append(tuple(canon_coeff(Fraction(-int(i >= q - k), k)) for i in range(q)))
    elif s.case == "D":
        delta.append(tuple(canon_coeff(Fraction(1 if i < q - 1 else -1, q)) for i in range(q)))
    return delta


@pytest.mark.parametrize("s", FACET_SCENARIOS, ids=lambda s: f"{s.group}{s.n}")
def test_polytopes_of_the_built_system_are_the_closed_forms(s):
    # Phi's vertices in the order e_1, -e_1, e_2, ..., and delta
    # with the facets of the closed-form vertex list, which it contains
    spec = build_polytopes(s)
    q = s.rank
    assert spec.phi_vertices == tuple(
        tuple(sign * int(i == k) for i in range(q)) for k in range(q) for sign in (1, -1)
    )
    closed = closed_form_delta(s)
    assert spec.delta_facets == hull_facets(closed)
    assert set(closed) <= set(spec.delta_vertices)
    assert list(spec.delta_vertices) == sorted(set(spec.delta_vertices))


def _with_order_1_lower_minors(monkeypatch, change):
    """Patch ``polytopes.build_generators`` to apply ``change`` to every
    generator lowMinor[1;c]."""
    build = polytopes.build_generators

    def patched(t):
        gens = build(t).gens
        return GeneratorSet(t, tuple(change(g) if g.recipe[0] == "lowMinor" and g.degree == 1 else g for g in gens))

    monkeypatch.setattr(polytopes, "build_generators", patched)


def test_a_wrong_generator_weight_fails_criterion_8(monkeypatch):
    # sp n=4: lowMinor[1;c] has weight e_1; doubled, its point 2e_1 leaves Phi
    s = Scenario("sp", 4, 1)
    _with_order_1_lower_minors(monkeypatch, lambda g: dataclasses.replace(g, weight=tuple(2 * x for x in g.weight)))
    assert (2, 0) in build_polytopes(s).delta_vertices
    # and the hull's new edge from (1/2, 1/2) to 2e_1 is no facet of Phi ∩ chamber
    assert chamber_inclusion_check(s) == (False, {
        "phi_vertices_off_cross": [],
        "delta_facets_outside": [[-1, -3, 2]],
        "delta_vertices_outside": [["2", "0"]],
    })


def test_a_wrong_generator_degree_fails_criterion_8(monkeypatch):
    # gl n=3: lowMinor[1;c] (weight -e_3) at degree 2 puts -e_3/2 in place
    # of the vertex -e_3, so the facets of the smaller delta cut -e_3 off
    s = Scenario("gl", 3, 1)
    _with_order_1_lower_minors(monkeypatch, lambda g: dataclasses.replace(g, degree=2))
    assert (0, 0, -1) not in build_polytopes(s).delta_vertices
    passed, witness = chamber_inclusion_check(s)
    assert not passed
    assert witness["delta_facets_outside"] == [[-1, -1, 2, 1], [-1, 0, 2, 1], [1, 0, 2, 1]]
    assert all(row[2] * -1 + row[3] < 0 for row in witness["delta_facets_outside"])
    assert witness["phi_vertices_off_cross"] == witness["delta_vertices_outside"] == []


def test_a_wrong_variable_weight_shows_as_a_phi_vertex_off_the_cross_polytope(monkeypatch):
    # Phi comes from the variables: a doubled weight is a vertex 2e_1 off the
    # cross-polytope, whose facets the facet test of delta assumes
    s = Scenario("sp", 4, 1)
    table = polytopes.variable_weights

    def doubled(t):
        weights = list(table(t))
        k = weights.index((1, 0))
        weights[k] = (2, 0)
        return tuple(weights)

    monkeypatch.setattr(polytopes, "variable_weights", doubled)
    assert (2, 0) in build_polytopes(s).phi_vertices
    assert chamber_inclusion_check(s) == (False, {
        "phi_vertices_off_cross": [["2", "0"]],
        "delta_facets_outside": [],
        "delta_vertices_outside": [],
    })


def test_facet_counts():
    for n in range(1, 6):
        assert len(build_polytopes(Scenario("gl", n, 1)).delta_facets) == 2 * n
    for s, count in ((Scenario("o", 5, 1), 3), (Scenario("o", 6, 1), 5), (Scenario("sp", 4, 1), 3)):
        assert len(build_polytopes(s).delta_facets) == count


def test_degenerate_hull_raises():
    with pytest.raises(ValueError, match="affine rank 1"):
        hull_facets([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(ValueError, match="affine rank 2"):
        hull_facets([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


# criterion 8's (group, n), one scenario each
POLYTOPE_SCENARIOS = list({(s.group, s.n): s for s in invariance_grid(GROUPS)}.values())


@pytest.mark.parametrize("s", POLYTOPE_SCENARIOS, ids=lambda s: f"{s.group}{s.n}")
def test_the_facet_certificate_is_exact(s, monkeypatch):
    # drop each delta point in turn: the check fails exactly when the LP
    # calls the point extreme, i.e. when the smaller hull leaves out part of
    # Phi ∩ chamber, and then only through delta's facets
    spec = build_polytopes(s)
    dropped = 0
    for v in spec.delta_vertices:
        rest = tuple(w for w in spec.delta_vertices if w != v)
        try:
            smaller = dataclasses.replace(spec, delta_vertices=rest)
        except ValueError:
            continue  # the hull of the rest is not full-dimensional
        dropped += 1
        monkeypatch.setattr(polytopes, "build_polytopes", lambda s, smaller=smaller: smaller)
        passed, witness = chamber_inclusion_check(s)
        assert passed == convex_membership(v, rest), v
        if not passed:
            assert witness["delta_facets_outside"]
            assert witness["phi_vertices_off_cross"] == witness["delta_vertices_outside"] == []
    # only a simplex (sp: its q + 1 points) flattens whichever point goes
    assert dropped or len(spec.delta_vertices) == s.rank + 1
