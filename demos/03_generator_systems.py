"""The generating systems themselves, case by case.

For each group the invariant algebra of the unipotent subgroup is generated
by an explicit finite list: group invariants of degree two plus families of
minors.  This demo builds the list for one scenario of each case, shows the
degree/weight tables, and runs the generation check that pins the graded
dimensions on both sides, weight space by weight space.
"""

from covariants import (
    Scenario,
    build_generators,
    check_invariance,
    expected_weight_table,
    generated_dimension,
    minimality_check,
    weight_table_of,
)
from covariants.dimensions import invariant_weight_dims

for s in (
    Scenario("gl", 2, 2, 2),
    Scenario("o", 3, 3),
    Scenario("sp", 4, 4),
    Scenario("o", 4, 4),
):
    gs = build_generators(s)
    print(f"\n=== {s.group} n={s.n} l={s.l} m={s.m}: {len(gs)} generators ===")
    for g in list(gs)[:6]:
        print(f"   {g.label:22s} degree {g.degree}")
    if len(gs) > 6:
        print(f"   ... and {len(gs) - 6} more")

    table = expected_weight_table(s)
    print("degree/weight table:", table)
    print("matches the built system:", weight_table_of(gs) == set(table))
    assert weight_table_of(gs) == set(table)

    invariant, _ = check_invariance(gs, num_samples=25, seed=0)
    print("invariance (nilradical + 25 samples):", "pass" if invariant else "fail")
    assert invariant

    print("graded dimensions per weight (generated == ambient invariants):")
    for t in range(4):
        a = generated_dimension(gs, t, seed=1)
        u = invariant_weight_dims(s, t)
        shown = a if len(a) <= 3 else f"{sum(a.values())} in {len(a)} weights"
        print(f"   t={t}: {shown}  {'ok' if a == u else 'MISMATCH'}")
        assert a == u

    minimal, _ = minimality_check(gs)
    print("minimality:", "pass" if minimal else "fail")
    assert minimal

# the one documented boundary case: the rank-1 even orthogonal group, where
# the recipe over-generates because the form value factors into the minors
minimal, witness = minimality_check(build_generators(Scenario("o", 2, 1)))
assert not minimal
print("\nrank-1 even orthogonal minimality: fail | inessential:", witness["inessential"])
