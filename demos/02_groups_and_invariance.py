"""Classical groups acting on polynomials, and what invariance means here.

The maximal unipotent subgroup is the upper unitriangular part of the
group.  A polynomial is invariant exactly when the whole nilradical kills
it; random unipotent substitutions give an independent spot check, and both
certificates are exact.
"""

from covariants import (
    Scenario,
    form_matrix,
    lie_act_on_polynomial,
    nilradical_basis,
    sample_unipotent,
    torus_weight,
)
from covariants.groups import substitution_images
from covariants.weights import eps_to_phi

s = Scenario("o", 5, 2)
print("scenario:", s.to_json(), "| torus rank", s.rank)

q = form_matrix(s)
print("\ninvariant form (secondary diagonal):")
for row in q.rows:
    print("   ", list(row))

basis = nilradical_basis(s)
print("\nnilradical dimension:", len(basis), "(the number of positive roots)")
print("first basis element:")
for row in basis[0].rows:
    print("   ", list(row))

# a sample u comes as the integer matrix g = c*u, c the lcm of u's denominators
c, g = sample_unipotent(s, 42)
print("\nrandom unipotent sample (seed 42): c =", c)
preserved = (g.transpose() * q * g) == (c * c) * q
print("  c*u preserves the form up to c^2 exactly:", preserved)
assert preserved

# the bottom coordinate of a V-copy is a highest-weight vector ...
bottom = s.x_poly(s.n - 1, 0)
print("\nbottom coordinate:")
killed = all(not lie_act_on_polynomial(xi, bottom, s) for xi in basis)
print("  killed by the nilradical:", killed)
fixed = bottom.substitute(substitution_images(g, s)) == c * bottom
print("  fixed by the sample (c*u scales it by c):", fixed)
assert killed and fixed
weight = torus_weight(bottom, s)
print("  weight:", weight, "=", eps_to_phi(s, weight), "in fundamental-weight coordinates")

# ... while the top coordinate is not
top = s.x_poly(0, 0)
moved = lie_act_on_polynomial(basis[0], top, s)
print("\ntop coordinate is moved by the first raising operator:", bool(moved))
assert moved
