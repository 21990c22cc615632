"""Exact-arithmetic generator systems for unipotent invariants of classical
groups, with machine verification of their structural properties.

The library constructs, for the general linear, orthogonal, and symplectic
groups acting on copies of the defining space and its dual, the minimal
homogeneous generating systems of the algebras of functions invariant under
a maximal unipotent subgroup, and verifies everything checkable about them:
invariance, degree/weight tables, graded generation, minimality,
minimal-degree laws and their polytope geometry, and the relations among
the generators.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .scenario import Scenario
from .polynomial import Polynomial
from .linalg import Matrix, kernel_basis, minor, rank
from .lp import convex_combination, convex_membership
from .weights import eps_to_phi, phi_to_eps
from .groups import (
    form_matrix,
    lie_act_on_polynomial,
    nilradical_basis,
    sample_unipotent,
    torus_weight,
)
from .generators import (
    Generator,
    GeneratorSet,
    build_generators,
    check_invariance,
    expected_weight_table,
    sp_high_minor_membership,
    weight_table_of,
)
from .dimensions import (
    CapExceeded,
    SeedDisagreement,
    generated_dimension,
    minimality_check,
)
from .degrees import (
    gl_minimal_presentation,
    gl_presentation_oracle,
    min_degree_formula,
    min_degree_generated,
    min_degree_invariant,
)
from .polytopes import build_polytopes, chamber_inclusion_check
from .flags import FlagPoint, annihilator, flag_map, incidence_holds, is_decomposable
from .syzygies import (
    bilinear_relations,
    mixed_minor_relation,
    relation_space,
)
from .suite import SuiteConfig, full_suite
