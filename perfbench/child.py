"""One process of a workload, as one command-line call would pay it: package
import and set-up, then the verdict.  Prints one JSON object on stdout.

    python3 perfbench/child.py WORKLOAD setup
    python3 perfbench/child.py WORKLOAD traced
    python3 perfbench/child.py WORKLOAD repeat BUDGET_S

``setup`` stops after set-up.  ``traced`` installs the layer tracer first and
reaches the verdict once.  ``repeat`` reaches the verdict once to warm up,
then again and again, each time timed and digested, for as long as another
verdict fits in BUDGET_S seconds from the start of the process (at least
``MIN_REPS`` times).  Untraced, set-up and every repeated verdict are
followed by the calibration loop, and carry its time (see
``calibration_s``).

``run.py`` starts these one at a time and waits for each.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
MIN_REPS = 3


def peak_rss_mib():
    """Peak resident memory of this process image.  ``ru_maxrss`` is not
    used: across exec it keeps the peak of the parent that started us."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i * j) % 3) for j in range(9)]
           for i in range(9)]


def calibration_s():
    """Time of a fixed loop of the library's kind of work, but none of its
    code: exact Gauss-Jordan elimination of a 9 x 9 matrix of small
    rationals, four times over; about 10 ms on an idle x86-64 core.  It reads
    the host's momentary single-thread speed.

    Interpreted small-rational arithmetic slows down with the library when
    other tenants load the host; big-integer loops slow down only about half
    as much, so they are no yardstick."""
    t0 = time.perf_counter()
    for _ in range(4):
        rows = [list(row) for row in _MATRIX]
        for c in range(len(rows)):
            pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
            if pivot is None:
                continue
            rows[c], rows[pivot] = rows[pivot], rows[c]
            inv = 1 / rows[c][c]
            rows[c] = [x * inv for x in rows[c]]
            for r in range(len(rows)):
                if r != c and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return time.perf_counter() - t0


def timed_verdict(workload, lib, state, progress=None):
    """One verdict.  Without a ``progress`` callback of its own, it also
    returns its segments: the times between the calls of the public
    ``progress`` callback of ``verify_basis``, one per record (the first one
    with membership, the last one the report), or the whole verdict for the
    long record."""
    marks = []
    t0 = time.perf_counter()
    result = workload.verdict(lib, state, progress or (
        lambda record: marks.append(time.perf_counter())))
    t1 = time.perf_counter()
    attempted, failed = workload.units(result)
    rep = {"verdict_s": t1 - t0, "digest": workload.digest(result),
           "attempted": attempted, "failed": failed}
    if progress is None:
        marks = [t0, *marks, t1]
        rep["segments_s"] = [b - a for a, b in zip(marks, marks[1:])]
    return rep, result


def main(argv):
    started = time.monotonic()
    name, mode = argv[0], argv[1]
    workload = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from gradedpi import algebras, cli, freealg, groups, pitool, scalars

    lib = types.SimpleNamespace(algebras=algebras, cli=cli, freealg=freealg,
                                groups=groups, pitool=pitool, scalars=scalars)
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(**vars(lib))
    state = workload.setup(lib)
    out = {"setup_s": time.perf_counter() - t0}
    if mode == "setup":
        out["cal_s"] = statistics.median(calibration_s() for _ in range(3))
    elif mode == "traced":
        rep, result = timed_verdict(workload, lib, state, tracer.progress)
        layers = tracer.metrics()
        layers["pitool.records.count"], layers["pitool.records.unequal"] = (
            workload.records(result))
        layers["trace.verdict_s"] = rep["verdict_s"]
        out.update(reps=[rep], layers=layers, calls=tracer.calls())
    elif mode == "repeat":
        end = started + float(argv[2])
        out["warmup"], _ = timed_verdict(workload, lib, state)
        reps = []
        while len(reps) < MIN_REPS or (
                time.monotonic() + reps[-1]["verdict_s"] <= end):
            rep = timed_verdict(workload, lib, state)[0]
            rep["cal_s"] = calibration_s()
            reps.append(rep)
        out["reps"] = reps
        out["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
