"""The gradedpi benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of ``workloads.py`` or ``all``.  Every process is a fresh
``child.py`` that imports the package from ``src/`` and sets up, as one
command-line call does; processes run one at a time, with a single thread.

Untraced, a run first times set-up alone in fresh processes, for a fifth of
S seconds.  One more process then sets up, reaches the verdict once to warm
up, and repeats the verdict until S seconds from the start of the run have
passed.  ``verdict_s`` sums, over the records of a verdict, the median time
of each record (see ``segment_medians``); ``setup_s`` is the median set-up
time.  Both are divided by the median time of a fixed calibration loop run
after each set-up and verdict, and scaled to a reference host (see
``calibrated``).  The raw wall times are printed beside them.

Traced, each iteration is a fresh process that sets up and reaches the
verdict once under the layer tracer; iterations repeat until S seconds have
passed, and at least twice, so that exact counts are compared.

Every verdict is compared with the workload's expected digest.

stdout ends with one JSON object: ``correct``, ``attempted`` and ``failed``
(units: records and membership entries) and ``metrics``, the end-to-end
metrics with ``--trace 0`` and the per-layer ones with ``--trace 1``.
Exit status: 0 when every output matched, 1 when one did not or an iteration
failed, 2 when there is no source tree to measure, 3 under ``python -O``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LIMIT_S = 170  # runs must end within 180 s: no process outlives this, and no
               # traced iteration starts that would end later
SETUP_SHARE = 0.2  # share of the run spent on set-up-only processes,
SETUP_MIN, SETUP_MAX = 3, 25  # within these sample counts
REF_CAL_S = 0.008  # calibration loop time on the reference host (see child.py)


def _is_time(metric):
    return metric.endswith("_s") or metric.endswith(".s")


def calibrated(seconds, cal_times):
    """A wall time as the reference host would read it: over the median time
    of the calibration loop measured in the same run, times ``REF_CAL_S``.

    On a shared host the single-thread speed moves by half or more over
    minutes, as other tenants come and go; every verdict of a run moves with
    it, and so does the calibration loop, which runs the same kind of
    interpreted small-rational arithmetic.  The ratio cancels that drift.
    """
    return seconds / statistics.median(cal_times) * REF_CAL_S


def segment_medians(reps):
    """The sum, over a verdict's segments (its records), of the median time
    of that segment over the run's verdicts.  A burst of contention slows
    the segments it covers in some verdicts; as long as it covers fewer than
    half of the verdicts at any one segment, no median sees it, while the
    median of whole verdicts moves with every burst."""
    columns = zip(*(rep["segments_s"] for rep in reps))
    return sum(statistics.median(column) for column in columns)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    problems: list = field(default_factory=list)  # each one fails the run
    iterations: int = 0
    setup_samples: int = 0
    verdict_median_s: float | None = None

    @property
    def correct(self):
        return self.iterations > 0 and self.failed == 0 and not self.problems


def run_child(name, seed, args, deadline):
    """One fresh process; its JSON result, or None if it failed."""
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    cmd = [sys.executable, str(HERE / "child.py"), name, *args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("%s: process killed at the time limit" % name, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("%s: process exited with %d" % (name, proc.returncode), file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def _gate(workload, rep, out):
    """Count one verdict's units; all of them fail if its digest is wrong."""
    attempted, failed = rep["attempted"], rep["failed"]
    if rep["digest"] != workload.expected:
        out.problems.append("output %s differs from the expected %s"
                            % (rep["digest"], workload.expected))
        failed = attempted = max(attempted, workload.expected_units())
    out.attempted += attempted
    out.failed += failed


def _fail(workload, out, what):
    out.attempted += workload.expected_units()
    out.failed += workload.expected_units()
    out.problems.append(what)


def _traced(workload, seed, seconds, deadline, out):
    """Traced iterations, each a fresh process; returns their results."""
    start = time.monotonic()
    results = []
    last = 0.0
    while True:
        now = time.monotonic()
        if len(results) >= 2 and now - start >= seconds:
            return results
        if results and now + last > deadline:
            out.problems.append("stopped after %d iterations at the time limit"
                                % len(results))
            return results
        res = run_child(workload.name, seed, ["traced"], deadline)
        last = time.monotonic() - now
        if res is None:
            _fail(workload, out, "an iteration raised or was killed")
            return results
        _gate(workload, res["reps"][0], out)
        results.append(res)


def _setup_samples(workload, seed, until, deadline, out):
    samples = []
    while len(samples) < SETUP_MIN or (len(samples) < SETUP_MAX
                                       and time.monotonic() < until):
        res = run_child(workload.name, seed, ["setup"], deadline)
        if res is None:
            out.problems.append("a set-up process failed")
            break
        samples.append(res)
    return samples


def _layers(workload, results, out):
    """Per-layer metrics: median times, and counts that must repeat exactly."""
    for key in results[0]["layers"]:
        values = [r["layers"][key] for r in results]
        if _is_time(key):
            out.metrics[key] = (statistics.median(values), "s")
            continue
        if len(set(values)) > 1:
            out.problems.append("count %s differs between traced iterations: %s"
                                % (key, values))
        out.metrics[key] = (values[0], "ratio" if key.endswith("_ratio") else "count")
    missed = [e for e in workload.exercised if not results[0]["calls"].get(e)]
    if missed:
        out.problems.append("entry points never called: %s" % ", ".join(missed))


def run_workload(workload, seed, seconds, trace) -> Outcome:
    start = time.monotonic()
    deadline = start + LIMIT_S
    out = Outcome()
    if trace:
        results = _traced(workload, seed, seconds, deadline, out)
        out.iterations = len(results)
        if results:
            _layers(workload, results, out)
        return out
    setups = _setup_samples(workload, seed, start + SETUP_SHARE * seconds,
                            deadline, out)
    budget = max(1.0, start + seconds - time.monotonic())
    res = run_child(workload.name, seed, ["repeat", "%.3f" % budget], deadline)
    if res is None:
        _fail(workload, out, "the measuring process raised or was killed")
        return out
    for rep in [res["warmup"], *res["reps"]]:
        _gate(workload, rep, out)
    if not setups:
        return out
    times = [rep["verdict_s"] for rep in res["reps"]]
    setup_times = [s["setup_s"] for s in setups]
    out.iterations, out.setup_samples = len(times), len(setups)
    out.verdict_median_s = statistics.median(times)
    print("%s: wall times: %d verdicts after a warm-up of %.4f s: fastest %.4f, "
          "median %.4f, slowest %.4f s; %d set-ups: median %.4f s" % (
              workload.name, len(times), res["warmup"]["verdict_s"], min(times),
              out.verdict_median_s, max(times), len(setups),
              statistics.median(setup_times)))
    out.metrics = {
        "verdict_s": (calibrated(segment_medians(res["reps"]),
                                 [rep["cal_s"] for rep in res["reps"]]), "s"),
        "setup_s": (calibrated(statistics.median(setup_times),
                               [s["cal_s"] for s in setups]), "s"),
        "peak_rss_mib": (res["peak_rss_mib"], "MiB"),
    }
    return out


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "gradedpi").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() or None


def report(workload, seed, seconds, trace) -> Outcome:
    """Run one workload and print its context and metrics."""
    out = run_workload(workload, seed, seconds, trace)
    context = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "params": workload.context(),
        "iterations": out.iterations, "setup_samples": out.setup_samples,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _commit(), "source_sha256": _source_sha256(),
    }
    print("context " + json.dumps(context))
    for problem in out.problems:
        print("%s: %s" % (workload.name, problem), file=sys.stderr)
    print("%s: failed_frac %s (%d of %d units)" % (
        workload.name, out.failed / out.attempted if out.attempted else 1.0,
        out.failed, out.attempted))
    for key, (value, unit) in out.metrics.items():
        print("%s: %s %s %s" % (workload.name, key, value, unit))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gradedpi" / "__init__.py").is_file():
        print("no gradedpi source tree at %s: run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    if args.workload != "all":
        out = report(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
        metrics = out.metrics
        outcomes = [out]
    else:
        # every workload, untraced and, with --trace 1, traced as well
        metrics, outcomes = {}, []
        for name, workload in WORKLOADS.items():
            runs = [report(workload, args.seed, args.seconds, False)]
            if args.trace:
                runs.append(report(workload, args.seed, args.seconds, True))
            for out in runs:
                metrics.update({name + "." + k: v for k, v in out.metrics.items()})
            outcomes.extend(runs)
            if args.trace and runs[0].correct and runs[1].correct:
                ratio = (runs[1].metrics["trace.verdict_s"][0]
                         / runs[0].verdict_median_s)
                print("%s: tracing overhead %.3f (traced / untraced median verdict)"
                      % (name, ratio))
                metrics[name + ".trace.overhead"] = (ratio, "ratio")
    correct = all(out.correct for out in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(out.attempted for out in outcomes),
        "failed": sum(out.failed for out in outcomes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if sys.flags.optimize:
        print("refusing to run under python -O: check_pauli_multidegree and "
              "certificate replay check correctness with assert, which -O "
              "strips, so the numbers would measure a different program",
              file=sys.stderr)
        sys.exit(3)
    sys.exit(main())
