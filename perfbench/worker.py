"""One workload in one process: set up, run blocks of operations, print one JSON line.

    python3 -m perfbench.worker --workload NAME --seed N --seconds S --mode setup|run|trace --tmp DIR

``run.py`` starts this module with PYTHONHASHSEED fixed and FLAGPDE_JOBS
unset, one process per workload, so that the peak resident set belongs to
the workload.  Set-up (import of flagpde, generation of the first block, and
a warm-up that runs every operation kind once at a small size) is timed as a
whole.  In ``run`` mode a run executes round(seconds / block_seconds) whole
blocks, where block_seconds is the workload's block time measured at the
seed commit: every run of a workload then does the same work, so a faster
program finishes sooner and its rates and percentiles compare one to one.
In ``trace`` mode the same TRACE_BLOCKS blocks run untraced and then traced.

The speed of the shared host drifts by up to 1.5x within minutes, and every
wall time drifts with it.  So a fixed computation of the benchmark's own,
``calibrate``, is timed right before and right after every operation
(outside the timed window) and CAL_SETUP times before and after set-up;
``run.py`` uses these samples to state each time as it would read on a host
that runs ``calibrate`` in REF_CAL_S.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import resource
import sys
import time
from fractions import Fraction

from . import reference  # noqa: F401  (the reference's own imports stay out of set-up)

TRACE_BLOCKS = 2
CAL_SETUP = 8
REF_CAL_S = 0.005  # the 2-core x86-64 host at 2.1 GHz (Python 3.11.7) takes 3-6 ms

_CAL_A = {(i, j, k): Fraction(i + 2 * j + 1, k + 3) for i in range(4) for j in range(4) for k in range(3)}
_CAL_B = {(i, j, k): Fraction(3 * i - j + 2, i + k + 1) for i in range(3) for j in range(3) for k in range(2)}


def calibrate():
    """Seconds taken by a fixed mix of what the program does: a product of
    dictionary polynomials over Fraction, then a complex float series."""
    started = time.perf_counter()
    out = {}
    for ea, ca in _CAL_A.items():
        for eb, cb in _CAL_B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    z, acc = 0.37 + 0.21j, 0j
    for k in range(1, 1200):
        acc += cmath.exp(1j * k * z.real) * z ** (k % 7) / k
    return time.perf_counter() - started


def setup(name, seed, tmp):
    calibrate()  # its first call is not timed
    cals = [calibrate() for _ in range(CAL_SETUP)]
    started = time.perf_counter()
    import flagpde  # noqa: F401

    from .workloads import WORKLOADS

    workload = WORKLOADS[name](seed, tmp)
    first = workload.block(0)
    for op in workload.block(0, tiny=True):
        try:
            op.run()
        except Exception:  # a failing kind shows up, checked, in the timed blocks
            pass
    setup_s = time.perf_counter() - started
    cals += [calibrate() for _ in range(CAL_SETUP)]
    return workload, first, setup_s, sum(cals) / len(cals)


def run_blocks(workload, first, blocks, rec=None):
    """[(latency_s, failure reason or None, defect, label, mean calibrate() seconds
    just before and after it)], timed seconds, blocks run."""
    results, timed, index, block = [], 0.0, 0, first
    while True:
        # What is alive before the block (the benchmark's inputs, references and
        # results, and the program's modules) is frozen out of the collector, so
        # a collection costs what the operations allocate, wherever it falls.
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        for op in block:
            cal = calibrate()
            if rec is not None:
                rec.begin(len(results))
            started = time.perf_counter()
            try:
                out, reason = op.run(), None
            except Exception as err:  # a failed operation is recorded, not fatal
                out, reason = None, f"raised {type(err).__name__}: {err}"
            latency = time.perf_counter() - started
            if rec is not None:
                rec.end()
            cal = (cal + calibrate()) / 2
            timed += latency
            if reason is None:
                try:
                    reason = op.check(out)
                except Exception as err:  # the output did not have the expected form
                    reason = f"check raised {type(err).__name__}: {err}"
            del out
            results.append((latency, reason, op.defect, op.label, cal))
        index += 1
        if index >= blocks:
            return results, timed, index
        block = workload.block(index)


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", help="write the trace's spans here (gzip JSON)")
    args = parser.parse_args(argv)

    workload, first, setup_s, setup_cal_s = setup(args.workload, args.seed, args.tmp)
    out = {"setup_s": setup_s, "setup_cal_s": setup_cal_s, "ref_cal_s": REF_CAL_S}
    if args.mode == "run":
        blocks = max(1, round(args.seconds / workload.block_seconds))
        results, timed, blocks = run_blocks(workload, first, blocks)
        out.update(results=results, timed_s=timed, blocks=blocks)
    elif args.mode == "trace":
        from . import trace

        base, base_timed, _ = run_blocks(workload, first, blocks=TRACE_BLOCKS)
        rec = trace.Recorder()
        trace.install(rec)
        results, timed, blocks = run_blocks(workload, workload.block(0), blocks=TRACE_BLOCKS, rec=rec)
        if args.spans:
            rec.write(args.spans)
        out.update(results=results, timed_s=timed, blocks=blocks, layers=trace.layer_metrics(rec),
                   base_results=base, base_timed_s=base_timed, spans_dropped=rec.dropped)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
