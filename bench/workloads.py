"""The benchmark's workloads: slices of the 14-criterion acceptance grid.

Every criterion of ``covariants.suite.CRITERIA`` belongs to exactly one
workload, so a criterion's time can be quoted from one result.  Each
workload stresses a different layer:

* ``invariance`` (1, 2, 10, 14): symbolic substitution, ``Polynomial.__mul__``
  and ``substitute``; no elimination, numpy or LP.
* ``relations`` (11, 12, 13): dense fraction-free elimination in
  ``linalg.rank``/``kernel_basis`` behind ``syzygies.relation_space``.
* ``generation`` (3, 4, 7): many small mod-p evaluation matrices and ranks,
  and the sparse exact kernels behind the invariant-dimension cache.
* ``polytopes`` (5, 6, 8, 9): the exact simplex and Fraction minors; the
  only workload in which ``lp`` does any work.

The acceptance grid takes about 130 s on a 2-core Xeon, 62 s of it in one
criterion-12 check, while one benchmark run lasts 30 s (``run_seconds``,
so that 92 runs fit in under an hour) and should hold several batches to
take a median over.  Three workloads are therefore scaled down from the
acceptance defaults, each in a way that keeps its layer mix:

* ``invariance`` draws 10 unipotent samples per scenario instead of 100
  (criterion 1 is linear in the sample count);
* ``relations`` leaves out the single check "mixed relation is new
  (n=3 l=2 m=2)", the 116-column relation kernel, which alone runs 62 s;
* ``generation`` stops at degree 3 instead of 4 (``tmax``, ``degree_cap``),
  which removes the two 2-3 s generation checks and keeps criterion 7
  reading only what criterion 3 cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    criteria: tuple
    config: dict = field(default_factory=dict)  # SuiteConfig overrides
    skip: tuple = ()  # check names left out of the batch


WORKLOADS = {
    "invariance": Workload((1, 2, 10, 14), {"invariance_samples": 10}),
    "relations": Workload((11, 12, 13), skip=("mixed relation is new (n=3 l=2 m=2)",)),
    "generation": Workload((3, 4, 7), {"tmax": 3, "degree_cap": 3}),
    "polytopes": Workload((5, 6, 8, 9)),
}
