"""Flags and relations: the geometry of the generators and their syzygies.

The map sending a point of W to the wedges of its last rows realizes the
unipotent quotient; its coordinates are the lower minors.  The relations
among the minors are the decomposability and incidence identities, all of
degree two in the generators, and mixing the dual-space family in adds one
genuinely new relation as soon as the copies overlap (l + m > n).
"""

from covariants import (
    Scenario,
    bilinear_relations,
    build_generators,
    flag_map,
    incidence_holds,
    is_decomposable,
    mixed_minor_relation,
    relation_space,
)
from covariants.syzygies import quadratic_closure_ranks

# -- the flag map ---------------------------------------------------------------

s = Scenario("gl", 3, 4)
point = [[1, 2, 0, 1], [0, 1, 3, 0], [2, 0, 1, 1]]
f = flag_map(point, s)
print("flag of a 3x4 point:")
for k, comp in enumerate(f.components, start=1):
    print(f"   wedge^{k} coordinates: {comp}")
decomposable = all(is_decomposable(q, k + 1, 4) for k, q in enumerate(f.components))
print("components decomposable:", decomposable)
nested = incidence_holds(f)
print("annihilators nested:", nested)
assert decomposable and nested

# -- bilinear relations ------------------------------------------------------------

rels = bilinear_relations(Scenario("gl", 3, 3), 1, 2)
print("\nthe three-term relation among the minors of a 3x3 point:")
for sign, a, b in rels[0].labels():
    print(f"   {'+' if sign > 0 else '-'} {a} * {b}")

# -- the mixed identity --------------------------------------------------------------

equal, lhs, _ = mixed_minor_relation(3, 2, 2)
print("\nmixed minor identity at n=3, l=m=2 holds:", equal)
assert equal
print("left-hand side has", len(lhs.terms), "monomials")

# -- relation spaces by degree ----------------------------------------------------------

gs = build_generators(Scenario("gl", 2, 2, 1))
for d in (1, 2, 3):
    rep = relation_space(gs, d)
    print(f"\ndegree-{d} relations among {rep.ambient_dim} monomials: dim {rep.relation_dim}")
    for combo in rep.pretty_basis():
        print("   ", combo)

# minors-only systems: everything comes from the quadratic relations
gs_minors = build_generators(Scenario("gl", 3, 3, 0))
ranks = [quadratic_closure_ranks(gs_minors, d) for d in (3, 4)]  # (relation dim, span rank)
closed = all(dim == span for dim, span in ranks)
print("\nminors-only closure under quadratic relations:", closed)
assert closed
