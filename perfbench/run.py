"""qshift benchmark runner.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 10 --trace 0

Closed loop in one process: one job at a time, no threads, no
subprocesses per job.  After a discarded warm-up over a subset of the jobs
(one of each kind, so first-call costs are paid), whole passes over the
workload's fixed job list run until ``--seconds`` have been measured, at
least one.  Every job's outcome is checked, untimed, against its
expectation (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``, with
times in reference seconds: wall times corrected for the host's speed of
the moment, which ``speed.py`` samples along the run.  Set-up time comes
from fresh interpreters (``setup_probe.py``), one discarded and five timed.
``--trace 1`` runs one untraced pass and then one traced pass, with every
public qshift function wrapped from outside (``tracer.py``), and reports
the per-layer metrics.  The untraced passes are checked to run on
the program's own functions.

The last line of stdout is the result object; the line before it is the
run record (machine, commit, seed, per-job times).  The seed only drives
the generated instances of ``operators``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
from tracer import Tracer, assert_pristine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
COUNT_STATS = {"calls", "rows", "cols", "nnz", "keys", "created", "unsolvable"}
RANK_KERNEL = ("coefficients.rank_over_hbar_field", "coefficients.rank_rational",
               "coefficients.rank_exact_fraction_field")


def _import_program():
    """Import qshift from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "qshift" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qshift
    if not Path(qshift.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: qshift imported from {qshift.__file__}")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "git_commit": _git_commit()}


def measure_setup(paths):
    """Median time, in reference seconds (see speed.py), of a fresh
    interpreter that imports qshift, parses every problem file and builds
    each critical locus, after one discarded start.  Also returns every
    start's wall time.  The speed is sampled just before and just after
    each start, not during it: the child runs beside the sampling parent."""
    env = {k: v for k, v in os.environ.items() if k != "QSHIFT_SEED"}
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    cmd += [str(p) for p in paths]
    times = []
    ref_times = []
    for _ in range(SETUP_REPEATS + 1):
        before = speed.speed_now()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - t0
        after = speed.speed_now()
        if proc.returncode != 0 or proc.stdout.strip() != f"ready {len(paths)}":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(elapsed)
        ref_times.append(elapsed * (before + after) / 2)
    return statistics.median(ref_times[1:]), times


def run_pass(jobs, timer):
    """One pass: per-job times and the jobs whose outcome was wrong.

    ``timer`` is a ``SpeedProbe``, which also gives reference seconds, or
    the ``Tracer`` for the traced pass, which does not: probe samples would
    land in the self time of the span they interrupt.
    """
    gc.collect()
    times = []
    spans = []
    failures = []
    for job in jobs:
        error, out, elapsed, span = timer.call(job.run)
        reason = (f"{type(error).__name__}: {error}" if error is not None
                  else job.check(out))
        times.append(elapsed)
        spans.append(span)
        if reason is not None:
            failures.append({"job": job.id, "reason": reason})
    result = {"wall_s": sum(times), "times": times, "failures": failures}
    ref_times = timer.finish(times, spans)
    if ref_times is not None:
        result.update(ref_wall_s=sum(ref_times), ref_times=ref_times)
    return result


def untraced_passes(jobs, seconds, timer):
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        assert_pristine()
        passes.append(run_pass(jobs, timer))
        assert_pristine()
        measured += passes[-1]["wall_s"]
    return passes


def central_mean(values):
    """The median, smoothed: the mean of the middle fifth of the sorted
    values (with the parity of the count, so that the window is centred).
    Two jobs of similar time that swap places move it by little; a plain
    median of a few dozen jobs of spread-out times jumps by the gap between
    neighbours, 15-20% on ``cohomology``."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(1, round(n / 5))
    if (n - k) % 2:
        k += 1
    start = (n - k) // 2
    return statistics.fmean(ordered[start:start + k])


def end_to_end_metrics(passes, setup_s):
    """Times in reference seconds (see speed.py), medians over passes."""
    return {
        "wall_s": statistics.median(p["ref_wall_s"] for p in passes),
        "job_p50_ms": statistics.median(
            central_mean(p["ref_times"]) * 1000 for p in passes),
        "slowest_job_s": statistics.median(max(p["ref_times"]) for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(tracer, traced_setup, traced, untraced):
    """Span statistics plus derived ratios.  Shares are of all traced time:
    the traced set-up (parse and critical locus per problem file) and the
    traced pass; the overhead compares the traced pass with the untraced."""
    values = tracer.flat()
    stats = tracer.stats
    traced_wall = traced_setup["wall_s"] + traced["wall_s"]
    values["trace.setup_wall_s"] = traced_setup["wall_s"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.untraced_wall_s"] = untraced["wall_s"]
    values["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
    hbar_calls = stats["coefficients.rank_over_hbar_field"].get("calls", 0)
    values["coefficients.hbar_fallback_ratio"] = (
        stats["coefficients.rank_exact_fraction_field"].get("calls", 0)
        / hbar_calls if hbar_calls else 0.0)
    values["kernel.rank_share"] = sum(
        stats[name].get("self_s", 0.0) for name in RANK_KERNEL) / traced_wall
    values["kernel.solve_share"] = (
        stats["coefficients.solve_rational"].get("self_s", 0.0) / traced_wall)
    by_module = tracer.self_time_by_module()
    for module, self_s in by_module.items():
        values[f"{module}.self_share"] = self_s / traced_wall
    values["trace.unattributed_share"] = 1 - sum(by_module.values()) / traced_wall
    return values


def select(values, specs, known_spans=()):
    """The metrics named in BENCHMARK.json, in its order and units."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name in values:
            value = values[name]
        elif name.rsplit(".", 1)[0] in known_spans:
            value = 0  # a wrapped function this workload never called
        else:
            raise KeyError(f"metric {name!r} is not measured")
        if name.rsplit(".", 1)[-1] in COUNT_STATS:
            value = int(value)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    os.environ.pop("QSHIFT_SEED", None)
    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "jobs": len(workload.jobs), **workload.info, **machine_record()}

    if not args.trace:
        setup_s, setup_times = measure_setup(workload.problem_paths())
        record["setup_probe_s"] = setup_times

    with speed.SpeedProbe() as probe:
        run_pass(workload.warmup, probe)
        passes = untraced_passes(workload.jobs,
                                 args.seconds if not args.trace else 0, probe)
    record["speed_kernel_s"] = {"samples": len(probe.samples),
                                "median": statistics.median(probe.samples),
                                "min": min(probe.samples),
                                "max": max(probe.samples)}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_setup = run_pass(workload.setup_jobs(), tracer)
            traced = run_pass(workload.jobs, tracer)
        finally:
            tracer.restore()
        values = layer_metrics(tracer, traced_setup, traced, passes[0])
        metrics = select(values, spec["per_layer"], set(tracer.stats))
        record["spans"] = values
        passes.append(traced)
    else:
        metrics = select(end_to_end_metrics(passes, setup_s),
                         spec["end_to_end"])

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["times"]) for p in passes)
    if args.trace:
        failures += traced_setup["failures"]
        attempted += len(traced_setup["times"])
    record["failures"] = failures
    record["passes"] = [
        {"wall_s": p["wall_s"], "ref_wall_s": p.get("ref_wall_s"),
         "job_s": dict(zip((job.id for job in workload.jobs), p["times"])),
         "job_ref_s": dict(zip((job.id for job in workload.jobs),
                               p.get("ref_times", ())))}
        for p in passes]
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
