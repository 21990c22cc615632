"""One batch of a workload in a fresh interpreter; prints one JSON record.

    python3 bench/batch.py --workload NAME --seed N --spawned T [--trace] [--fault F]
    python3 bench/batch.py --setup-only --spawned T

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; the record's ``setup_s`` runs from there until ``covariants``
is imported.  A fresh interpreter per batch keeps the package's
process-lifetime caches cold, as they are for every ``covariants`` command.

The batch runs its criteria one after another in this process and thread.
An exception in a criterion is caught and recorded; the parent then counts
all of that criterion's checks as failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _inject_non_invariant(rebind):
    """Replace the first generator of every n >= 2 system by the sum of all
    variables, which no nontrivial unipotent group fixes."""
    from covariants import generators
    from covariants.polynomial import Polynomial

    build = generators.build_generators

    def faulty(s):
        gs = build(s)
        if s.n < 2 or not gs.gens:
            return gs
        total = Polynomial.zero(s.nvars)
        for i in range(s.nvars):
            total = total + Polynomial.variable(s.nvars, i)
        first = dataclasses.replace(gs.gens[0], poly=total)
        return dataclasses.replace(gs, gens=(first,) + tuple(gs.gens[1:]))

    rebind(build, faulty)


def _inject_relation_error(rebind):
    """Make every relation-space call fail as a failed confirmation does."""
    from covariants import syzygies

    def failing(*args, **kwargs):
        raise RuntimeError("injected: relation_space failed symbolic confirmation")

    rebind(syzygies.relation_space, failing)


FAULTS = {"non-invariant": _inject_non_invariant, "relation-error": _inject_relation_error}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--fault", choices=sorted(FAULTS))
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import covariants
    import numpy
    from covariants import dimensions, suite

    ready = time.monotonic()
    if Path(covariants.__file__).resolve().parent != ROOT / "src" / "covariants":
        print(f"covariants imported from {covariants.__file__}, not from src/", file=sys.stderr)
        return 2
    record = {"setup_s": ready - args.spawned, "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    import layers  # the harness's own modules load after the set-up span
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    cfg = suite.SuiteConfig(seed=args.seed, **workload.config)
    if args.fault:
        FAULTS[args.fault](layers.rebind)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    if workload.skip:
        timed = suite._timed

        def timed_unless_skipped(name, fn):
            return None if name in workload.skip else timed(name, fn)

        suite._timed = timed_unless_skipped

    checks, crashed, criterion_s = [], {}, {}
    wall0 = time.perf_counter()
    cpu0 = time.process_time()
    for num in workload.criteria:
        t0 = time.perf_counter()
        try:
            results = suite.CRITERIA[num][1](cfg)
        except Exception as exc:  # contained: the criterion's checks count as failed
            crashed[num] = f"{type(exc).__name__}: {exc}"
            results = []
        criterion_s[num] = time.perf_counter() - t0
        checks += [{"criterion": num, **r.to_json()} for r in results if r is not None]
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    info = dimensions._invariant_weight_dims_cached.cache_info()
    lookups = info.hits + info.misses
    record.update(
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=usage.ru_maxrss / 1024,
        criterion_s=criterion_s,
        crashed=crashed,
        cache_hit_ratio=info.hits / lookups if lookups else 0.0,
        checks=json.loads(json.dumps(checks, default=str)),
    )
    if tracer is not None:
        record["layers"] = tracer.metrics()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
