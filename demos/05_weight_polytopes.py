"""The polytope geometry behind the degree formulas.

Normalized weights of the generated invariants fill out exactly the
intersection of the weight hull of W with the dominant chamber.  Both
polytopes are read off the built system: the weight hull's vertices are the
torus weights of the variables, and the generator polytope is spanned by 0
and each generator's weight over its degree (for o some of those points lie
inside it).  The demo prints that data and runs the two-sided inclusion
check: sampled rational chamber points of the hull land inside the
generator polytope (exact facet inequalities), and its points land back in
the hull (exact LP) and the chamber.
"""

from fractions import Fraction

from covariants import Scenario, build_polytopes, chamber_inclusion_check
from covariants.polytopes import sample_chamber_point
from covariants.rng import substream

for s in (Scenario("gl", 3, 3), Scenario("sp", 4, 4), Scenario("o", 6, 6)):
    spec = build_polytopes(s)
    print(f"\n=== {s.group} n={s.n} ===")
    print("weight-hull vertices: ", [tuple(map(str, v)) for v in spec.phi_vertices])
    print("generator polytope:   ", [tuple(map(str, v)) for v in spec.delta_vertices])
    print("chamber inequalities: ", [tuple(row) for row in spec.chamber])
    print("generator facets:     ", [tuple(row) for row in spec.delta_facets], "(<a, w> + c >= 0)")

    included, _ = chamber_inclusion_check(s, samples=200, seed=7)
    print("two-sided inclusion (200 samples):", "pass" if included else "fail")
    assert included

# the even orthogonal chamber allows a negative last coordinate, which is
# exactly what the extra spin vertex covers; the sampler exercises both signs
s = Scenario("o", 6, 6)
spec = build_polytopes(s)
rng = substream(1, "demo")
pts = [sample_chamber_point(s, spec, rng) for _ in range(8)]
print("\neven orthogonal sample points (note the signed last coordinate):")
for nums, t in pts:
    print("   ", tuple(str(Fraction(x, t)) for x in nums))
