"""Minimal degrees of dominant weights, three independent ways.

For a dominant weight chi, the minimal degree at which it occurs among the
generated invariants has a closed form.  The demo compares it against a
bounded enumeration over the generator weights and against the ambient
invariant ring itself (Weyl character multiplicities), and shows the
scaling law degree(c * chi) = c * degree(chi).
"""

import itertools

from covariants import (
    Scenario,
    gl_minimal_presentation,
    min_degree_formula,
    min_degree_generated,
    min_degree_invariant,
)
from covariants.degrees import generator_pairs_for

# closed form vs enumeration, symplectic rank 3
s = Scenario("sp", 6, 6)
pairs = generator_pairs_for(s)
print("symplectic rank 3, all chi with coefficients <= 2:")
for chi in itertools.product(range(3), repeat=3):
    f = min_degree_formula(s, chi)
    o = min_degree_generated(pairs, chi, cap=f + 1)
    print(f"   chi={chi}: formula {f}, enumeration {o}")
    assert f == o

# the general linear presentation: which weights make up the minimum
print("\ngeneral linear minimal presentations (n = 4):")
for chi in ((1, 0, 0, 0), (2, 0, 1, -1), (0, 1, 0, -2)):
    steps, degree = gl_minimal_presentation(4, chi)
    pretty = " + ".join(
        f"{st.multiplicity} x {st.kind}_{st.index}" for st in steps
    )
    print(f"   chi={chi}: degree {degree} via {pretty}")

# the scaling law
s5 = Scenario("o", 5, 5)
chi = (1, 2)
base = min_degree_formula(s5, chi)
print(f"\nodd orthogonal chi={chi}: degree {base}")
for c in range(2, 5):
    scaled = min_degree_formula(s5, tuple(c * k for k in chi))
    print(f"   degree({c} * chi) = {scaled} = {c} * {base}")
    assert scaled == c * base

# the ambient ring agrees wherever it is reachable within the cap
s2 = Scenario("sp", 2, 2)
print("\nambient minimal degrees on the symplectic plane (cap 4):")
for chi in ((0,), (1,), (2,), (3,), (4,)):
    m = min_degree_invariant(s2, chi, cap=4)
    n = min_degree_formula(s2, chi)
    print(f"   chi={chi}: ambient {m}, formula {n}")
    assert m == n
