"""The repository benchmark: one workload, measured end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fault_matrix --seed 2016 --seconds 55 --trace 0
    python3 perfbench/run.py --workload fleet_mixed --trace 1
    python3 perfbench/run.py --workload ior_grid --trace 1
    python3 perfbench/run.py --write-reference

Each repetition runs every item of the workload in a fresh interpreter
(``rep.py``) with every ``REPRO_*`` variable removed, so the default code
path is measured and no process-level memo survives between repetitions.
Repetitions continue while the next is expected to end within
``--seconds`` (at least ``MIN_REPS``); every metric is the median over them.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes one traced
repetition, then untraced ones, and reports the per-layer metrics.  Every
item's simulated output is checked against the run's first repetition and,
on the seeds recorded in ``reference.json``, against its digests; a run on
any other seed ends with one untimed repetition on the default seed, so the
digests are checked on every run.
Each metric is printed on its own line with its unit; the last line of
standard output is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LAYERS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
MARKER = "PERFBENCH_REP "

WORKLOADS = ("ior_grid", "fleet_mixed", "fault_matrix")
# The workloads BENCHMARK.json lists, whose end-to-end metrics are gated.
# ior_grid still runs for the per-layer study.  On a shared host its
# run-to-run spread was as wide as fault_matrix's, which needed runs of
# RUN_SECONDS to stay within its bound, and the time allowed for all gated
# runs fits runs that long for two workloads only.
GATED = ("fleet_mixed", "fault_matrix")
RUN_SECONDS = 55.0
DEFAULT_SEED = 2016
# Not used while the benchmark was tuned; a claimed gain is re-checked on it.
HELD_OUT_SEED = 7919
MIN_REPS = 3
# Leaves room below the 180 s a run may take for the result to be printed.
RUN_BUDGET_S = 170.0

# name -> (unit, what the number is).  "s" is always host time, "sim_s"
# always simulated time.
END_TO_END = {
    "setup_s": ("s", "host: interpreter start to the first simulated event"),
    "items_per_s": ("items/s", "host: items completed per second"),
    "peak_rss_mb": ("MB", "host: resident-set high-water mark"),
    "ok_frac": ("frac", "items passing every output check / attempted"),
}
PER_LAYER = {
    **{f"{name}.self_s": ("s", "host: self time, traced") for name in LAYERS},
    **{f"{name}.share": ("frac", "host: share of traced time") for name in LAYERS},
    "sim.events": ("count", "events fired"),
    "sim.us_per_event": ("us", "host: untraced item time per event"),
    "net.rate_cache_hit_ratio": ("frac", "converged-rate memo hits / lookups"),
    "net.rate_solves": ("count", "fair-share solves (memo misses)"),
    "pfs.rpcs": ("count", "data-server RPCs served"),
    "hw.device_requests": ("count", "SSD + NVMM + RAID target requests"),
    "cache.bytes_flushed": ("B", "cache -> global file by the sync thread"),
    "cache.bytes_replayed": ("B", "cache -> global file by journal replay"),
    "cache.retries": ("count", "sync-thread transient-fault retries"),
    "cache.sync_failures": ("count", "sync requests abandoned"),
    "romio.coll_writes": ("count", "per-rank collective write calls"),
    "romio.model_memo_hit_ratio": ("frac", "ext2ph model memo hits / lookups"),
    "faults.injected": ("count", "fault effects delivered"),
    "fleet.solo_runs": ("count", "solo reference runs"),
    "romio.sim_shuffle_s": ("sim_s", "simulated: shuffle_all2all + comm"),
    "romio.sim_write_s": ("sim_s", "simulated: write phase"),
    "romio.sim_post_write_s": ("sim_s", "simulated: post_write phase"),
    "cache.sim_not_hidden_sync_s": ("sim_s", "simulated: sync not hidden"),
    "fleet.sim_queue_wait_mean_s": ("sim_s", "simulated: mean job queue wait"),
    "fleet.sim_stretch_p95": ("ratio", "simulated: p95 job stretch"),
    "faults.sim_recovery_s": ("sim_s", "simulated: journal replay time"),
    "trace.overhead": ("ratio", "host: traced / untraced item time"),
    "trace.unattributed_share": ("frac", "host: traced time outside the layers"),
}
# Everything not measured in host time repeats exactly for a given seed.
DETERMINISTIC = tuple(
    name for name, (_, what) in PER_LAYER.items() if not what.startswith("host")
)


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot run (as opposed to a failing item)."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC_DIR)
    # One thread: numpy's BLAS pools would otherwise use every core.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_rep(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run one repetition in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(BENCH_DIR / "rep.py"), "--workload", workload]
    cmd += ["--seed", str(seed)] + (["--traced"] if traced else [])
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"repetition exceeded {timeout:.0f} s") from exc
    lines = [x for x in proc.stdout.splitlines() if x.startswith(MARKER)]
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"repetition exited {proc.returncode} without a report")
    rep = json.loads(lines[-1][len(MARKER):])
    rep["setup_s"] = rep["first_event_t"] - t_spawn
    return rep


def check_items(reps: list[dict], reference) -> tuple[int, int]:
    """(items attempted, items failing a check) over all repetitions.

    An item fails when it raised, when one of the program's own checks
    found a problem, when its digest differs from the reference digest (on a
    seed with one) or from the first repetition's, or when it is missing.
    """
    first = {item: dig for item, dig, _ in reps[0]["outcomes"]}
    expected = set(reference) if reference is not None else set(first)
    failed = 0
    for rep in reps:
        seen = set()
        for item, dig, problems in rep["outcomes"]:
            seen.add(item)
            problems = list(problems)
            if dig != first.get(item):
                problems.append("output differs from the first repetition")
            if reference is not None and reference.get(item) != dig:
                problems.append("output differs from the reference digest")
            for problem in problems:
                print(f"  FAIL {item}: {problem}", file=sys.stderr)
            failed += bool(problems)
        failed += len(expected - seen)
    return len(expected) * len(reps), failed


def load_reference(workload: str, seed: int):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    return refs.get(workload, {}).get(str(seed))


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def collect(workload: str, seed: int, seconds: float, trace: bool, verify: bool):
    """Run repetitions for ``seconds``; returns (plain, traced, checks).

    A traced run makes one traced repetition, then untraced ones.  With
    ``verify``, one untimed repetition on ``DEFAULT_SEED`` follows, so that
    the reference digests are checked whatever the seed.  Past the minimum
    count, no repetition starts that the previous one's duration says would
    end after ``seconds``.
    """
    start = time.monotonic()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.monotonic() - start)

    traced = [run_rep(workload, seed, True, remaining())] if trace else []
    plain: list[dict] = []
    min_reps = 1 if trace else MIN_REPS
    last = 0.0
    while len(plain) < min_reps or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        plain.append(run_rep(workload, seed, False, remaining()))
        last = time.monotonic() - t0
    checks = [run_rep(workload, DEFAULT_SEED, False, remaining())] if verify else []
    return plain, traced, checks


def end_to_end(plain: list[dict]) -> dict[str, float]:
    items = len(plain[0]["outcomes"])
    return {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "items_per_s": statistics.median(items / r["items_wall_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(plain: list[dict], traced: dict) -> dict[str, float]:
    counts = traced["trace"]["counts"]
    layer_s = traced["trace"]["layer_s"]
    total = sum(v for k, v in layer_s.items() if k != "instrumentation")
    plain_wall = statistics.median(r["items_wall_s"] for r in plain)

    def count(key: str) -> float:
        return counts.get(key, 0.0)

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = layer_s.get(name, 0.0)
        out[f"{name}.share"] = layer_s.get(name, 0.0) / total
    for name in PER_LAYER:
        if name not in out:
            out[name] = count(name)
    out.update(
        {
            "sim.us_per_event": plain_wall / max(count("sim.events"), 1) * 1e6,
            "net.rate_cache_hit_ratio": ratio(
                count("net.rate_cache_hits"), count("net.rate_solves")
            ),
            "romio.model_memo_hit_ratio": ratio(
                count("romio.memo_hits"), count("romio.memo_misses")
            ),
            "trace.overhead": traced["items_wall_s"] / plain_wall,
            "trace.unattributed_share": layer_s.get("other", 0.0) / total,
        }
    )
    for name, value in traced["observed"].items():
        out[name] = value
    return out


def write_reference() -> int:
    """Record every item's digest for the default and held-out seeds."""
    refs: dict = {}
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            rep = run_rep(workload, seed, False, RUN_BUDGET_S)
            bad = [(item, p) for item, _, p in rep["outcomes"] if p]
            if bad:
                print(f"{workload} seed {seed}: failing items {bad}", file=sys.stderr)
                return 1
            refs.setdefault(workload, {})[str(seed)] = {
                item: dig for item, dig, _ in rep["outcomes"]
            }
            print(f"{workload} seed {seed}: {len(rep['outcomes'])} items")
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--write-reference",
        action="store_true",
        help="rewrite reference.json from the current code (after an "
        "intended change to simulated output)",
    )
    args = p.parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC_DIR}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference()
        if args.workload is None:
            p.error("--workload is required")
        reference = load_reference(args.workload, args.seed)
        verify = reference is None
        plain, traced, checks = collect(
            args.workload, args.seed, args.seconds, args.trace, verify
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed = check_items(plain + traced, reference)
    if verify:
        default_reference = load_reference(args.workload, DEFAULT_SEED)
        more_attempted, more_failed = check_items(checks, default_reference)
        attempted += more_attempted
        failed += more_failed
    items = len(plain[0]["outcomes"])

    nproc = len(os.sched_getaffinity(0))
    prov = dict(plain[0]["provenance"], commit=commit(), nproc=nproc)
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    print(
        f"workload {args.workload} seed {args.seed}: {len(plain)} untraced + "
        f"{len(traced)} traced repetitions of {items} items; reference digests "
        f"checked on seed {DEFAULT_SEED if verify else args.seed}"
        f"{' (one extra untimed repetition)' if verify else ''}"
    )
    rates = ", ".join(f"{items / r['items_wall_s']:.4g}" for r in plain)
    print(f"  untraced items/s per repetition: {rates}")
    if args.trace:
        metrics, table = per_layer(plain, traced[0]), PER_LAYER
    else:
        metrics, table = end_to_end(plain), END_TO_END
        metrics["ok_frac"] = (attempted - failed) / attempted
        print(f"  {'failed_frac':<30} {failed / attempted:>16.6g} frac")
    for name, (unit, what) in table.items():
        print(f"  {name:<30} {metrics[name]:>16.6g} {unit:<8} {what}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, (unit, _) in table.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
