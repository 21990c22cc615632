"""Benchmark of the covariants certificates on slices of the acceptance grid.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads are defined in ``bench/workloads.py``.  Each run is a
closed loop with one client: one batch of checks at a time, each batch in a
fresh interpreter (``bench/batch.py``), one process and one thread doing the
work.  The seed goes to ``SuiteConfig.seed`` and so picks every random
stream; the set of checks does not depend on it.

``--trace 0`` runs batches back to back until the next one would end after
``--seconds`` (at least one), each after two set-up probes, and reports
medians:

    wall_s       first check to last check of a batch
    setup_s      process start until covariants is imported
    cpu_s        user + system CPU time over the same span as wall_s
    peak_rss_mb  peak resident memory of the batch process

``--trace 1`` runs one untraced and one traced batch and reports the
per-layer metrics of ``bench/layers.py``, the cache hit ratio of the
invariant-dimension cache, the time of each criterion (zero for criteria of
other workloads; the workload's criteria add up to ``trace.wall_s``) and
the tracing overhead ``trace.overhead_s`` (traced minus untraced wall_s).

Correctness: every check's name, verdict and witness must equal
``bench/reference.json`` (written by ``bench/make_reference.py``); these
are mathematical and seed-independent.  A check that differs, is missing,
is unexpected, or belongs to a criterion that raised counts as failed.
``checks_failed_frac`` is printed on the line before the result.

The last line of output is the result JSON; a JSON line with the run's
context (code identity, machine, load, versions) precedes it, and both are
also stored under ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))

from layers import metric_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# set-up-only processes before each batch, so that set-up is sampled across the run
SETUP_PROBES = 2
BATCH_TIMEOUT_S = 150
CRITERIA = range(1, 15)


class BenchError(RuntimeError):
    pass


def run_batch(workload=None, seed=1, trace=False, fault=None, setup_only=False) -> dict:
    """Start one batch process, wait for it and return its record."""
    cmd = [sys.executable, str(BENCH / "batch.py")]
    if setup_only:
        cmd.append("--setup-only")
    else:
        cmd += ["--workload", workload, "--seed", str(seed)]
        cmd += ["--trace"] * trace + (["--fault", fault] if fault else [])
    # import from cached bytecode, as an installed package does, whatever the caller's setting
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=BATCH_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise BenchError(f"batch {cmd[2:]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def score(record: dict, expected: list) -> tuple[int, int]:
    """(attempted, failed) of one batch against the reference checks."""
    want = {(c["criterion"], c["name"]): c for c in expected}
    got = {(c["criterion"], c["name"]): c for c in record["checks"]}
    keys = want.keys() | got.keys()
    return len(keys), sum(want.get(k) != got.get(k) for k in keys)


def load_reference(workload: str) -> list:
    path = BENCH / "reference.json"
    reference = json.loads(path.read_text())
    if workload not in reference:
        raise BenchError(f"{path} has no checks for workload {workload!r}")
    return reference[workload]


def context() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True,
        ).stdout.split()
    except OSError:  # no git: the checkout is identified by src_sha256 alone
        commit = []
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "covariants").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit[1] if len(commit) == 2 and Path(commit[0]) == ROOT else None,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
    }


def measure(workload: str, seed: int, seconds: float, fault) -> tuple[dict, list]:
    start = time.monotonic()
    setups, batches, durations = [], [], []
    while True:
        t0 = time.monotonic()
        setups += [run_batch(setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
        batches.append(run_batch(workload, seed, fault=fault))
        setups.append(batches[-1]["setup_s"])
        durations.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            break
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")):
        metrics[name] = (statistics.median(b[name] for b in batches), unit)
    return metrics, batches


def measure_traced(workload: str, seed: int, fault) -> tuple[dict, list]:
    plain = run_batch(workload, seed, fault=fault)
    traced = run_batch(workload, seed, trace=True, fault=fault)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["dimensions.invariant_weight_dims.cache_hit_ratio"] = (traced["cache_hit_ratio"], "ratio")
    for num in CRITERIA:
        metrics[f"suite.criterion_{num}.s"] = (traced["criterion_s"].get(str(num), 0.0), "s")
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    return metrics, [plain, traced]


def per_layer_names() -> list[str]:
    return (
        metric_names()
        + ["dimensions.invariant_weight_dims.cache_hit_ratio"]
        + [f"suite.criterion_{num}.s" for num in CRITERIA]
        + ["trace.wall_s", "trace.overhead_s"]
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", help="self-test only: inject a fault into every batch")
    args = ap.parse_args(argv)

    try:
        if not (ROOT / "src" / "covariants" / "__init__.py").is_file():
            raise BenchError(f"no covariants source under {ROOT / 'src'}")
        expected = load_reference(args.workload)
        ctx = context()
        if args.trace:
            metrics, batches = measure_traced(args.workload, args.seed, args.fault)
        else:
            metrics, batches = measure(args.workload, args.seed, args.seconds, args.fault)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    for b in batches:
        a, f = score(b, expected)
        attempted, failed = attempted + a, failed + f
    ctx.update(numpy=batches[0].get("numpy"), batches=len(batches), workload=args.workload,
               seed=args.seed, trace=args.trace, fault=args.fault,
               crashed=[b["crashed"] for b in batches if b["crashed"]])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (out_dir / name).write_text(json.dumps({"context": ctx, "result": result}, indent=1))

    for k, (v, u) in metrics.items():
        print(f"{args.workload} {k} = {v:.6g} {u}")
    print(f"{args.workload} checks_failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({"context": ctx}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
