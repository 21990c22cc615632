"""The polytope geometry behind the degree formulas.

Normalized weights of the generated invariants fill out exactly the
intersection of the weight hull of W with the dominant chamber.  Both
polytopes are read off the built system: the weight hull's vertices are the
torus weights of the variables, and the generator polytope is spanned by 0
and each generator's weight over its degree (for o some of those points lie
inside it).  The demo prints that data and runs the two-sided check, which
samples no point: the hull's vertices are the +-e_i of the cross-polytope,
and every facet of the generator polytope is a facet of the cross-polytope
or a chamber wall, so the generator polytope contains the chamber part of
the hull; its points land back in the hull (exact LP) and the chamber.
"""

from covariants import Scenario, build_polytopes, chamber_inclusion_check

for s in (Scenario("gl", 3, 3), Scenario("sp", 4, 4), Scenario("o", 6, 6)):
    spec = build_polytopes(s)
    print(f"\n=== {s.group} n={s.n} ===")
    print("weight-hull vertices: ", [tuple(map(str, v)) for v in spec.phi_vertices])
    print("generator polytope:   ", [tuple(map(str, v)) for v in spec.delta_vertices])
    print("chamber inequalities: ", [tuple(row) for row in spec.chamber])

    # the facet certificate: each facet <a, w> + c >= 0 of the generator
    # polytope is a chamber wall (c = 0, a a chamber row) or a facet
    # <sigma, w> <= 1 of the cross-polytope (c = 1, a = -sigma, sigma in {+-1}^q)
    print("generator facets (<a, w> + c >= 0):")
    for row in spec.delta_facets:
        a, c = row[:-1], row[-1]
        if c == 0 and a in spec.chamber:
            kind = "chamber wall"
        elif c == 1 and all(x in (1, -1) for x in a):
            kind = "cross-polytope facet"
        else:
            kind = "neither"
        print("   ", row, kind)
        assert kind != "neither"

    included, _ = chamber_inclusion_check(s)
    print("two-sided inclusion (exact):", "pass" if included else "fail")
    assert included

# the even orthogonal chamber allows a negative last coordinate, which is
# exactly what the extra spin vertex covers: the wall w_{q-1} + w_q >= 0
# bounds the generator polytope where the other chambers have w_q >= 0
spec = build_polytopes(Scenario("o", 6, 6))
print("\neven orthogonal points with a negative last coordinate:")
for v in spec.delta_vertices:
    if v[-1] < 0:
        print("   ", tuple(map(str, v)))
