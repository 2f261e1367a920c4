"""frontlab benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload speed-sweep --seed 0 --seconds 22 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from the root of a frontlab checkout; the program is imported from its
`src/`.  Each workload runs in fresh interpreters (see worker.py), one job
after another in one process (a closed loop with one client).

The job list runs back to back as often as --seconds allows (at least once);
each job's time is its median over those passes.  --trace 0 prints the
end-to-end metrics: wall_s (seconds to finish the job list after set-up, the
sum of the job times), job_s_p50 (median of the job times), setup_s
(median seconds from a fresh interpreter to ready, over SETUP_PROBES + 1
start-ups) and peak_rss_mb (peak resident memory of the workload process
after one pass).  The seconds are reference seconds: scaled by the host
speed measured while the run measured (calibration.py).
--trace 1 runs the job list untraced, traced, then untraced again, and prints
the per-layer metrics from the spans of the traced pass, plus
trace.overhead_s (traced wall time minus the mean of the two untraced ones).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Jobs are failed when they raise, exit
non-zero, or miss a check in workloads.py; fail_rate = failed / attempted
is printed above that line.  Everything a run writes goes under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# fresh start-ups whose median is setup_s: the workload process plus these
SETUP_PROBES = 2
# a run, set-up included, must end within this many seconds
RUN_LIMIT_S = 170.0

E2E_UNITS = {"wall_s": "s", "job_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    """The benchmark itself could not run (not a failed job)."""


def spawn(mode: str, workload: str, seed: int, seconds: float, out: str, deadline: float):
    """Run worker.py once; returns (set-up seconds, JSON record or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode, "--out", out]
    start = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise HarnessError(f"worker ({mode}) ran past the {RUN_LIMIT_S:.0f} s limit")
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("READY "):
        raise HarnessError(f"worker ({mode}) exited {proc.returncode}:\n{stderr}")
    setup_s = float(lines[0].split()[1]) - start
    return setup_s, (json.loads(lines[-1]) if mode != "setup" else None)


def environment(seed: int, versions: dict, passes: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        **versions,
        "git_sha": git_sha(),
        "passes": passes,
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up probes, then the workload process; returns the result record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    out_base = os.path.join(HERE, "out")
    out = os.path.join(out_base, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(spawn("setup", workload, seed, seconds, out, deadline)[0])
        setup_s, rec = spawn("trace" if trace else "run", workload, seed, seconds, out, deadline)
        setups.append(setup_s)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    jobs = [j for p in rec["passes"] for j in p["jobs"]]
    failed = [j for j in jobs if j["misses"]]
    passes = rec["passes"]
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in rec["layers"].items()}
        overhead = passes[1]["wall_s"] - 0.5 * (passes[0]["wall_s"] + passes[2]["wall_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        # each job's median over the passes; wall_s is the job list at those.
        # Times are in reference seconds: scaled by the run's host speed
        # (calibration.py), which also covers the set-up a few seconds before
        factor = rec["calibration"]["factor"]
        per_job = {}
        for j in jobs:
            per_job.setdefault(j["job"], []).append(j["seconds"])
        medians = [statistics.median(v) for v in per_job.values()]
        values = {
            "wall_s": factor * sum(medians),
            "job_s_p50": factor * statistics.median(medians),
            "setup_s": factor * statistics.median(setups),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    result = {
        "workload": workload,
        "env": environment(seed, rec["versions"], len(passes)),
        "setup_samples_s": setups,
        "calibration": rec.get("calibration"),
        "passes": passes,
        "metrics": metrics,
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
    }
    if trace:
        result["spans_file"] = os.path.relpath(rec["spans_file"], ROOT)
    os.makedirs(out_base, exist_ok=True)
    with open(os.path.join(out_base, f"result-{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def layer_unit(name: str) -> str:
    if name.endswith("s_per_iteration"):
        return "s/iter"
    if name.endswith("s_per_node_step"):
        return "s/node-step"
    if name.endswith("s_per_step"):
        return "s/step"
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_solve"):
        return "iter/solve"
    if name.endswith("per_c0"):
        return "solves/c0"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def report(result: dict) -> None:
    """Human-readable lines: environment, each job, each metric."""
    print("env " + json.dumps(result["env"], sort_keys=True))
    for i, p in enumerate(result["passes"]):
        for j in p["jobs"]:
            status = "ok" if not j["misses"] else "FAILED: " + "; ".join(j["misses"])
            print(f"pass {i} {j['job']:<30} {j['seconds']:9.4f} s  {status}")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:<16} {name:<32} {m['value']:.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{result['workload']:<16} {'fail_rate':<32} {rate:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "frontlab", "__init__.py")):
        print(f"benchmark: no frontlab source under {ROOT}/src", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except HarnessError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for r in results:
        report(r)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
