"""One workload in one fresh interpreter: set up, run the job list, check it.

Run by run.py; not meant to be called by hand.  Prints `READY <time>` once
set-up is done, with the wall-clock time then (the parent subtracts the time
it started the process), and, unless --mode setup, one JSON line with the
measurements.

Modes:
  setup  set up and exit.
  run    run the job list back to back until --seconds is used up (at least
         once), untraced, with the calibration sampler on (calibration.py).
  trace  run the job list untraced, traced, untraced; compare outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

# set-up is timed from process start, so these imports are part of it
import frontlab  # noqa: E402
import frontlab.cli  # noqa: E402
import calibration  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402


def setup(jobs, out_root):
    """Parse every job's config, build its kernel and reaction, write the config."""
    os.makedirs(out_root, exist_ok=True)
    for job in jobs:
        cfg = frontlab.parse_config(job.config)
        cfg.build_kernel()
        cfg.build_reaction()
        with open(os.path.join(out_root, f"{job.name}.cfg"), "w", encoding="utf-8") as fh:
            fh.write(job.config)


def run_job(job, out_root, sampler=None):
    """Call the job's entry point.

    Returns (return value, seconds, traceback text or None, captured stdout);
    the seconds leave out the time the calibration sampler took.
    """
    cfg_path = os.path.join(out_root, f"{job.name}.cfg")
    out_dir = os.path.join(out_root, job.name)
    shutil.rmtree(out_dir, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    value = None
    spent = sampler.spent if sampler else 0.0
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if job.kind == "cstar":
                with open(cfg_path, encoding="utf-8") as fh:
                    cfg = frontlab.parse_config(fh.read())
                value = frontlab.estimate_cstar(
                    cfg.get("model", "d"), cfg.build_kernel(), cfg.build_reaction(),
                    cfg.semiwave_params(),
                )
            else:
                value = frontlab.cli.main(["--config", cfg_path, "--out", out_dir] + job.argv)
    except Exception:  # noqa: BLE001 - a raising job is a failed job, not a harness error
        error = traceback.format_exc()
    seconds = time.perf_counter() - t0 - ((sampler.spent if sampler else 0.0) - spent)
    if error is None and "Traceback" in err.getvalue():
        error = err.getvalue()
    return value, seconds, error, out.getvalue()


def digest(job, out_root, value, stdout):
    """Hash of everything the job produced: artifacts, stdout, return value."""
    h = hashlib.sha256(repr(value).encode())
    h.update(stdout.encode())
    out_dir = os.path.join(out_root, job.name)
    for base, dirs, files in sorted(os.walk(out_dir)):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def run_pass(jobs, out_root, seed, tracer=None, sampler=None):
    """Run the job list back to back, then check every output."""
    raw = []
    for job in jobs:
        if tracer is None:
            raw.append(run_job(job, out_root, sampler))
        else:
            tracer.job = job.name
            raw.append(tracer.wrap("job", run_job)(job, out_root))
    results = []
    for job, (value, seconds, error, stdout) in zip(jobs, raw):
        misses = [f"raised:\n{error}"] if error else []
        if not misses:
            try:
                misses = workloads.check(job, os.path.join(out_root, job.name), value, seed)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                misses = [f"output unreadable: {exc!r}"]
        results.append({
            "job": job.name,
            "seconds": seconds,
            "misses": misses,
            "digest": digest(job, out_root, value, stdout),
        })
    return {"wall_s": sum(r["seconds"] for r in results), "jobs": results}


def _peak_rss_mb():
    # read after the first pass: later passes only add what the caches keep
    # of earlier passes, and how many passes run depends on the host's speed
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    jobs = workloads.jobs_for(args.workload, args.seed)
    setup(jobs, args.out)
    print(f"READY {time.time()!r}", flush=True)
    if args.mode == "setup":
        return 0

    extra = {}
    if args.mode == "run":
        with calibration.Sampler() as sampler:
            start = time.perf_counter()
            passes = [run_pass(jobs, args.out, args.seed, sampler=sampler)]
            peak_rss_mb = _peak_rss_mb()
            while True:
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
                passes.append(run_pass(jobs, args.out, args.seed, sampler=sampler))
        extra["calibration"] = {"samples_s": sampler.samples, "factor": sampler.factor()}
    else:
        from tracing import Tracer, layer_metrics, write_spans

        passes = [run_pass(jobs, args.out, args.seed)]
        peak_rss_mb = _peak_rss_mb()
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(jobs, args.out, args.seed, tracer))
        finally:
            tracer.uninstall()
        # untraced again, so the overhead is not confused with host drift
        passes.append(run_pass(jobs, args.out, args.seed))
        spans_path = os.path.join(os.path.dirname(args.out),
                                  f"spans-{args.workload}-seed{args.seed}.csv")
        write_spans(spans_path, tracer.spans)
        extra["layers"] = layer_metrics(tracer.spans)
        extra["spans_file"] = spans_path

    # the first pass is the reference: every later pass must reproduce its bytes
    first = {r["job"]: r["digest"] for r in passes[0]["jobs"]}
    for p in passes[1:]:
        for r in p["jobs"]:
            if r["digest"] != first[r["job"]]:
                r["misses"].append("output differs from the first pass")

    record = {
        "passes": passes,
        "peak_rss_mb": peak_rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        **extra,
    }
    shutil.rmtree(args.out, ignore_errors=True)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
