"""Benchmark of the `contracta` package, run from the root of a checkout:

    python3 perfbench/run.py --workload tree|converge|presentations \
        --seed N --seconds S --trace 0|1

Makes the workload's op list from the seed (workloads.py), then runs whole
passes of it, each in a fresh worker interpreter (worker.py), until S seconds
have passed.  Every answer is checked against an independent oracle
(oracle.py).  The last line of output is one JSON object:

- `--trace 0`: the end-to-end metrics.  wall_s is the median over the passes
  of the op loop's wall time; each op's latency is its median over the
  passes, and op_p50_ms and op_p90_ms are percentiles of those; setup_s is
  the median of the set-ups of ten set-up-only workers and of every pass;
  decided_frac is taken over every pass, peak_rss_mb is the median over the
  passes;
- `--trace 1`: the per-layer metrics of traced passes (spans.py), plus the
  tracing overhead, i.e. traced minus untraced wall_s.

Every time is given at the reference speed of the host.  The host shares its
cores with other tenants, and its speed moves by up to 1.8x for minutes at a
time.  So each worker times a fixed probe of plain Python work
(worker.make_probe) between ops, and its times are divided by its median
probe time over REF_PROBE_S (`slowdown`).

Exits 2 without a result when the checkout has no `src/contracta`.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import spans
import stats
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_LIMIT_S = 165.0  # every run ends well inside 180 s
SETUP_WORKERS = 10  # set-up-only workers, besides the set-up of every pass
# the probe's time on the reference machine when its host is quiet; a time
# measured in a worker counts in units of this worker's median probe time
REF_PROBE_S = 0.025

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("decided_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)


class WorkerFailed(RuntimeError):
    pass


def run_worker(spec, mode, limit_s, spans_path=None):
    """One worker interpreter; returns its JSON record."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--limit-s", f"{limit_s:.3f}"]
    if spans_path:
        cmd += ["--spans", spans_path]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, input=json.dumps(spec), capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=limit_s + 10)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker killed after {limit_s + 10:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def slowdown(rec):
    """How much slower than the reference the host ran this worker: its
    median probe time over REF_PROBE_S.  Its times are divided by it."""
    return statistics.median(rec["probes"]) / REF_PROBE_S


def run_pass(spec, left_s, spans_path=None):
    """One worker pass over the whole op list."""
    rec = run_worker(spec, "trace" if spans_path else "pass", left_s, spans_path)
    if spans_path:
        layers = spans.layer_metrics(spans_path, rec["counts"])
        rec["layers"] = {name: v / slowdown(rec) if name.endswith(".self_s") else v
                         for name, v in layers.items()}
    return rec


def run_passes(spec, seconds, t0, traced):
    """Passes over the op list for about `seconds` after `t0`: a new pass
    starts if it would end nearer to `seconds` than stopping now, and if the
    slowest pass so far still fits in the run limit.  A traced run
    alternates an untraced pass with a traced one."""
    passes, traced_passes = [], []
    path = os.path.join(OUT_DIR, f"spans-{spec['workload']}.bin")
    last = slowest = 0.0
    while True:
        elapsed = time.monotonic() - t0
        if passes and (elapsed + last / 2 >= seconds
                       or RUN_LIMIT_S - elapsed <= 1.5 * slowest):
            return passes, traced_passes
        t = time.monotonic()
        passes.append(run_pass(spec, RUN_LIMIT_S - elapsed))
        if traced:
            traced_passes.append(run_pass(spec, RUN_LIMIT_S - (time.monotonic() - t0), path))
        last = time.monotonic() - t
        slowest = max(slowest, last)


def judge(spec, passes):
    """(attempted, failures, decided share) over all passes."""
    attempted = decided = 0
    failures = []
    for p in passes:
        for i, v in enumerate(workloads.check(spec, p["ops"])):
            if v == "skipped":
                continue
            attempted += 1
            decided += v == "ok"
            if v.startswith("failed"):
                failures.append(f"op {i} {spec['ops'][i]['kind']}: {v}")
    return attempted, failures, decided / attempted


def op_latencies(passes):
    """Each attempted op's median latency over the passes, in seconds at the
    reference speed, by op index."""
    samples = defaultdict(list)
    for p in passes:
        for i, op in enumerate(p["ops"]):
            if op["outcome"] != "skipped":
                t0, t1 = op["t"]
                samples[i].append((t1 - t0) / slowdown(p))
    return {i: statistics.median(ts) for i, ts in samples.items()}


def median_wall(passes):
    """The median over the passes of the op loop's wall time, in seconds at
    the reference speed."""
    return statistics.median(p["loop_s"] / slowdown(p) for p in passes)


def end_to_end(spec, passes, setup_recs):
    setups = [(end - start) / slowdown(rec)
              for rec in setup_recs for start, end in [rec["setup"]]]
    latencies = [t * 1000 for t in op_latencies(passes).values()]
    attempted, failures, decided_frac = judge(spec, passes)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": median_wall(passes),
        "op_p50_ms": stats.percentile(latencies, 0.5),
        "op_p90_ms": stats.percentile(latencies, 0.9),
        "decided_frac": decided_frac,
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    slow = sorted(map(slowdown, setup_recs))
    notes = [f"{len(passes)} passes over {len(spec['ops'])} ops; {len(latencies)} "
             f"latency samples, each an op's median pass; {len(setups)} set-ups",
             f"host slowdown {statistics.median(slow):.3f} ({slow[0]:.3f}-{slow[-1]:.3f}); "
             f"unscaled wall time {statistics.median(p['loop_s'] for p in passes):.4f} s"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, attempted, failures, notes


def per_layer(spec, passes, traced):
    layers = [p["layers"] for p in traced]
    values = {name: statistics.median([layer[name] for layer in layers])
              for name, _, _ in spans.per_layer_metrics() if name != "trace.overhead_s"}
    values["trace.overhead_s"] = median_wall(traced) - median_wall(passes)
    attempted, failures, _ = judge(spec, passes + traced)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in spans.per_layer_metrics()}
    notes = [f"{len(traced)} traced and {len(passes)} untraced passes"]
    return metrics, attempted, failures, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "contracta", "__init__.py")):
        print(f"error: no src/contracta package under {ROOT}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    spec = workloads.build(args.workload, args.seed, ROOT)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        # set-up-only workers first, so that they run within --seconds
        recs = [run_worker(spec, "setup", RUN_LIMIT_S)
                for _ in range(0 if args.trace else SETUP_WORKERS)]
        passes, traced = run_passes(spec, args.seconds, t0, bool(args.trace))
        if args.trace:
            metrics, attempted, failures, notes = per_layer(spec, passes, traced)
        else:
            metrics, attempted, failures, notes = end_to_end(spec, passes, recs + passes)
    except WorkerFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in failures[:20]:
        print(line, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: " + "; ".join(notes))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
