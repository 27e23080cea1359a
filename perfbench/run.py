"""The flagpde benchmark: one seeded workload, its metrics, and a JSON result line.

    python3 perfbench/run.py --workload families|certify|numeric|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is a closed loop with one
client and no threads: an operation starts when the previous one has
finished and been checked.  Set-up runs in SETUP_SAMPLES fresh processes
(the last one goes on to run the workload) and setup_s is their median.

The shared host's speed drifts by up to 1.5x within minutes.  Every time is
therefore reported as it would read on the reference host: scaled by
worker.REF_CAL_S over the time of the worker's fixed calibration
computation, taken as the mean of the samples right before and after each
operation and around each set-up.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the
per-layer metrics of a traced run and the tracing overhead.  Human-readable
lines, including every failed operation by input, come first; the last
line is one JSON object with the keys correct, attempted, failed and
metrics.  `correct` is false when an operation outside the known-defect
slots fails.  Exit codes: 0 after a result, 1 when a worker fails, 2 when
the flagpde sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("families", "certify", "numeric", "cli")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "pass_rate": "ratio", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith("out_bytes"):
        return "bytes"
    if name == "trace.overhead_frac":
        return "ratio"
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    return "count"


def worker(args, mode, tmp, env, spans=None):
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, "--tmp", tmp]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: {mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of the
    order statistics.  Operation costs come in clusters, and a single order
    statistic jumps across the gaps between them from run to run."""
    from scipy.special import betainc

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = betainc(a, b, [i / n for i in range(n + 1)])
    return sum(float(hi - lo) * x for lo, hi, x in zip(edges[:-1], edges[1:], xs))


def summarize(results, ref_cal_s):
    # each latency scaled to the reference host by the calibration around it
    latencies = [r[0] * ref_cal_s / r[4] for r in results]
    timed = sum(latencies)
    failures = [r for r in results if r[1] is not None]
    passed = len(results) - len(failures)
    p90 = quantile(latencies, 0.9)
    return {
        "attempted": len(results),
        "failed": len(failures),
        "unexpected": [r for r in failures if not r[2]],
        "failures": failures,
        "timed_s": timed,
        "ops_per_s": passed / timed,
        "op_p50_ms": quantile(latencies, 0.5) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "beyond_p90": sum(1 for v in latencies if v > p90),
    }


def print_failures(failures):
    grouped = Counter((r[3], r[1], r[2]) for r in failures)
    for (label, reason, defect), count in sorted(grouped.items()):
        tag = f"known defect, {defect}" if defect else "UNEXPECTED"
        times = f" (x{count})" if count > 1 else ""
        print(f"  FAILED [{tag}] {label}: {reason}{times}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "flagpde", "__init__.py")):
        print(f"perfbench: no flagpde sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    env.pop("FLAGPDE_JOBS", None)
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    spans = None
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        spans = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json.gz")
    try:
        outs = [worker(args, "setup", tmp, env) for _ in range(SETUP_SAMPLES - 1)]
        out = worker(args, "trace" if args.trace else "run", tmp, env, spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    ref_cal_s = out["ref_cal_s"]
    setups = [o["setup_s"] * ref_cal_s / o["setup_cal_s"] for o in outs + [out]]
    stats = summarize(out["results"], ref_cal_s)

    print(f"workload {args.workload}, seed {args.seed}: {stats['attempted']} operations in "
          f"{out['blocks']} blocks, {out['timed_s']:.2f} s timed ({stats['timed_s']:.2f} s on the reference "
          f"host), closed loop, one client")
    if args.trace:
        base = summarize(out["base_results"], ref_cal_s)
        metrics = dict(out["layers"])
        metrics["trace.ops_per_s_untraced"] = base["ops_per_s"]
        metrics["trace.ops_per_s_traced"] = stats["ops_per_s"]
        metrics["trace.overhead_frac"] = stats["ops_per_s"] / base["ops_per_s"] if base["ops_per_s"] else 0.0
        print(f"  traced ops_per_s {stats['ops_per_s']:.4g} over untraced {base['ops_per_s']:.4g} "
              f"(same {out['blocks']} blocks): trace.overhead_frac {metrics['trace.overhead_frac']:.3f}")
        for name, value in metrics.items():
            print(f"  {name:34s} {value:.6g} {layer_unit(name)}")
        print(f"  spans written to {os.path.relpath(spans, ROOT)} ({out['spans_dropped']} beyond the cap)")
        units = {name: layer_unit(name) for name in metrics}
        unexpected = stats["unexpected"] + base["unexpected"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": stats["ops_per_s"],
            "op_p50_ms": stats["op_p50_ms"],
            "op_p90_ms": stats["op_p90_ms"],
            "pass_rate": 1.0 - stats["failed"] / stats["attempted"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        units = UNITS
        unexpected = stats["unexpected"]
        n = stats["attempted"]
        print(f"  setup_s     {metrics['setup_s']:.4f} s   (median of {len(setups)} set-ups: "
              f"{', '.join(f'{s:.3f}' for s in setups)})")
        print(f"  ops_per_s   {metrics['ops_per_s']:.4f} 1/s (goodput: {n - stats['failed']} passed / "
              f"{stats['timed_s']:.2f} s)")
        print(f"  op_p50_ms   {metrics['op_p50_ms']:.3f} ms  (n = {n})")
        print(f"  op_p90_ms   {metrics['op_p90_ms']:.3f} ms  (n = {n}, {stats['beyond_p90']} beyond)")
        print(f"  error_rate  {stats['failed'] / n:.4f}      ({stats['failed']} failed / {n} attempted; "
              f"{len(unexpected)} outside known-defect slots)")
        print(f"  pass_rate   {metrics['pass_rate']:.4f} ratio")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']:.2f} MB")
    print_failures(stats["failures"])
    result = {
        "correct": not unexpected,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
