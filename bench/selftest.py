"""Self-tests of the benchmark itself (about two minutes).

    python3 bench/selftest.py

1. Every layer is wrapped at every binding in the package: after
   ``Tracer.install`` no module or class still holds an original function.
   The workloads cover each acceptance criterion exactly once.
2. BENCHMARK.json names exactly the metrics the runs print.
3. On each workload, every layer assigned to it and each of its criteria
   report nonzero calls or time, and the criteria add up to trace.wall_s.
4. Caches are cold per batch: two traced runs of ``generation`` report the
   same invariant-dimension cache hit ratio.
5. Faults are contained and reported: a non-invariant generator and a
   raising relation_space each give failed checks, not a crash.
6. In a directory holding only BENCHMARK.json and bench/, the benchmark
   exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from layers import LAYERS, Tracer
from run import BENCH, ROOT, WORKLOADS, per_layer_names


def bench(*args, cwd=ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        check.failures += 1


check.failures = 0


def test_bindings() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    originals = {id(layer.original()) for layer in LAYERS}
    Tracer().install()
    left = []
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("covariants"):
            continue
        spaces = [vars(module)] + [
            vars(v) for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == modname
        ]
        left += [f"{modname}.{k}" for ns in spaces for k, v in ns.items() if id(v) in originals]
    check(not left, f"no unwrapped binding of a layer is left {left}")
    from covariants import dimensions, flags, groups, linalg, polynomial, syzygies

    P = polynomial.Polynomial
    check(P.__rmul__ is P.__mul__ and P.__mul__.__wrapped__ is not None, "Polynomial.__rmul__ wrapped with __mul__")
    check(dimensions.rank_mod_p is linalg.rank_mod_p and dimensions.sparse_rank_int is linalg.sparse_rank_int,
          "rank_mod_p and sparse_rank_int wrapped in dimensions")
    check(all(m.kernel_basis is linalg.kernel_basis for m in (syzygies, groups, flags))
          and all(m.rank is linalg.rank for m in (syzygies, flags)),
          "kernel_basis and rank wrapped in syzygies, groups and flags")
    from covariants.suite import CRITERIA

    covered = sorted(n for w in WORKLOADS.values() for n in w.criteria)
    check(covered == sorted(CRITERIA), "every acceptance criterion is in exactly one workload")


def main() -> int:
    test_bindings()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([m["name"] for m in spec["per_layer"]] == per_layer_names(), "BENCHMARK.json per_layer matches the traced metrics")

    traced = {}
    for workload in WORKLOADS:
        code, result = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1")
        check(code == 0 and result is not None and result["correct"], f"{workload}: traced run correct")
        if result is None:
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        traced[workload] = values
        check(sorted(values) == sorted(per_layer_names()), f"{workload}: traced run prints every per_layer metric")
        zero = [l.prefix for l in LAYERS if workload in l.workloads and not values[f"{l.prefix}.calls"]]
        check(not zero, f"{workload}: nonzero calls for its layers {zero}")
        crit = [values[f"suite.criterion_{n}.s"] for n in WORKLOADS[workload].criteria]
        check(all(crit), f"{workload}: every criterion timed")
        total = sum(values[k] for k in values if k.startswith("suite.criterion_"))
        check(abs(total - values["trace.wall_s"]) <= 0.01 * values["trace.wall_s"],
              f"{workload}: criteria add up to trace.wall_s ({total:.4f} vs {values['trace.wall_s']:.4f})")

    code, result = bench("--workload", "generation", "--seed", "1", "--seconds", "1", "--trace", "1")
    key = "dimensions.invariant_weight_dims.cache_hit_ratio"
    again = result and result["metrics"][key]["value"]
    check(again is not None and again == traced.get("generation", {}).get(key),
          f"cold caches: hit ratio {again} in both runs")

    code, result = bench("--workload", "invariance", "--seed", "1", "--seconds", "1", "--trace", "0")
    check(code == 0 and result is not None and sorted(result["metrics"]) == sorted(m["name"] for m in spec["end_to_end"]),
          "timed run prints exactly the end_to_end metrics")
    for workload, fault in (("invariance", "non-invariant"), ("relations", "relation-error")):
        code, result = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", "--fault", fault)
        check(code == 0 and result is not None and not result["correct"] and result["failed"] > 0,
              f"fault {fault} on {workload}: reported {result and result['failed']}/{result and result['attempted']} failed")

    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        code, result = bench("--workload", "relations", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        check(code != 0 and result is None, f"bare directory: exit {code}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{check.failures} failure(s)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
