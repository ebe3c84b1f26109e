"""Benchmark of the aregularity engine.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  Workloads, all at the certified default
configuration (8 trials, coefficient bound 2^20), one client in a closed
loop:

* ``sweep-r5``   -- ``verify-tables --max-rank 5`` in process, 93 instances;
* ``decide-r9``  -- ``decide`` on sl(10) > s(gl3+gl7) (NO) and
                    sl(10) > s(gl5+gl5) (YES) through ``aregularity.cli.main``;
* ``cli-custom`` -- seven small CLI requests, each a fresh
                    ``python -m aregularity.cli`` process.

``--seed`` is passed to the engine as its sampling seed; verdicts do not
depend on it.  With ``--trace 0`` the end-to-end metrics are measured; with
``--trace 1`` one untraced reference pass and at least two traced passes
give the per-layer metrics (see ``tracer.py``), and the traced outputs must
equal the untraced ones.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; a readable table goes to
stderr.  Run artefacts (pair files, span dumps) go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("sweep-r5", "decide-r9", "cli-custom")
SETUP_PROBES = 7
DEADLINE_S = 170

# per-layer metric -> (span name, statistic); see ``layer_metrics``
LAYER_METRICS = {
    "exact_linalg.bareiss_echelon.calls": ("exact_linalg.bareiss_echelon", "calls"),
    "exact_linalg.bareiss_echelon.self_s": ("exact_linalg.bareiss_echelon", "self_s"),
    "exact_linalg.bareiss_echelon.cell_updates": ("exact_linalg.bareiss_echelon", "cells"),
    "exact_linalg.bareiss_echelon.max_pivot_bits": ("exact_linalg.bareiss_echelon", "bits"),
    "exact_linalg.rref.self_s": ("exact_linalg.rref", "self_s"),
    "exact_linalg.left_kernel.self_s": ("exact_linalg.left_kernel", "self_s"),
    "lie_core.is_regular.calls": ("lie_core.is_regular", "calls"),
    "lie_core.is_regular.self_s": ("lie_core.is_regular", "self_s"),
    "lie_core.bracket.calls": ("lie_core.bracket", "calls"),
    "lie_core.bracket.self_s": ("lie_core.bracket", "self_s"),
    "lie_core.build_algebra.calls": ("lie_core.build_algebra", "calls"),
    "lie_core.build_algebra.self_s": ("lie_core.build_algebra", "self_s"),
    "subalgebras.perp.self_s": ("subalgebras.perp", "self_s"),
    "subalgebras.generic_stabilizer.self_s": ("subalgebras.generic_stabilizer", "self_s"),
    "subalgebras.generic_stabilizer.cache_hit_ratio":
        ("subalgebras.generic_stabilizer", "leaves/calls"),
    "subalgebras.cartan_subspace_stabilizer.self_s":
        ("subalgebras.cartan_subspace_stabilizer", "self_s"),
    "subalgebras.decompose_reductive.self_s": ("subalgebras.decompose_reductive", "self_s"),
    "constructors.embed.self_s": ("constructors.embed", "self_s"),
    "criteria.find_regular_witness.self_s": ("criteria.find_regular_witness", "self_s"),
    "criteria.find_regular_witness.samples": ("criteria.find_regular_witness", "samples"),
    "criteria.find_regular_witness.hit_ratio":
        ("criteria.find_regular_witness", "hits/samples"),
    "criteria.satake_route.self_s": ("criteria.satake_route", "self_s"),
    "criteria.decide.self_s": ("criteria.decide", "self_s"),
    "decomposition.split_pair.self_s": ("decomposition.split_pair", "self_s"),
    "catalog.lookup.calls": ("catalog.lookup", "calls"),
    "catalog.lookup.self_s": ("catalog.lookup", "self_s"),
    "catalog.load.self_s": ("catalog.load", "self_s"),
    "cli.load_pair.self_s": ("cli.load_pair", "self_s"),
    "slodowy.slodowy_slice.self_s": ("slodowy.slodowy_slice", "self_s"),
    "slodowy.slice_nonempty.self_s": ("slodowy.slice_nonempty", "self_s"),
}
COUNT_STATS = ("calls", "cells", "bits", "hits", "leaves", "samples")


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same work counts in every process
    return env


def _worker(deadline: float, mode: str, workload: str, *extra: str) -> dict:
    WORK.mkdir(exist_ok=True)
    out = WORK / f"{workload}-{mode}.json"
    if out.exists():
        out.unlink()
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--out", str(out), *extra]
    # own process group, so that a timeout also stops the worker's children
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker {mode} {workload} timed out") from exc
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker {mode} {workload} exited with {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) (Lentz continued
    fraction, as in Numerical Recipes ``betacf``)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    tiny = 1e-300
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * h


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights.  Per-query latencies of a workload fall into clusters (small
    and large instances); a plain sample quantile sitting between two
    clusters jumps when one query crosses the gap, this estimate moves by
    that query's small weight."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    _worker(deadline, "setup", workload)  # untimed: compiles bytecode caches
    setups = [_worker(deadline, "setup", workload)["setup_s"]
              for _ in range(SETUP_PROBES)]
    res = _worker(deadline, "run", workload, "--seed", str(seed),
                  "--seconds", str(seconds))
    recs = res["records"]
    # A query's latency is its median over the run's passes, which drops a
    # one-off stall; the percentiles are then taken over the workload's
    # queries, so that a percentile falling between two clusters of query
    # latencies does not jump with the noise of single samples.
    by_query: dict[str, list] = {}
    for r in recs:
        by_query.setdefault(r["query"], []).append(r)
    lat, yes, no = [], [], []
    for rs in by_query.values():
        t = statistics.median(r["latency"] for r in rs)
        lat.append(t)
        {True: yes, False: no}.get(rs[0]["verdict"], []).append(t)
    bounds = [r["bound_log2"] for r in recs if r["bound_log2"] is not None]
    failed = sum(r["error"] is not None for r in recs)
    gates = list(res["gates"])
    if len(set(res["pass_digests"])) != 1:
        gates.append("passes at one seed gave different outputs")
    for name, values in (("YES", yes), ("NO", no), ("NO bound", bounds)):
        if not values:
            gates.append(f"no {name} samples")
    if gates:
        return recs, failed, gates, {}, {}
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "queries_per_s": (len(recs) / sum(r["latency"] for r in recs), "1/s",
                          len(recs)),
        "latency_p50_s": (quantile(lat, 0.5), "s", len(lat)),
        "latency_p90_s": (quantile(lat, 0.9), "s", len(lat)),
        "yes_latency_p50_s": (quantile(yes, 0.5), "s", len(yes)),
        "no_latency_p50_s": (quantile(no, 0.5), "s", len(no)),
        "success_ratio": (1.0 - failed / len(recs), "ratio", len(recs)),
        "failure_bound_bits": (-max(bounds), "bits", len(bounds)),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }
    return recs, failed, gates, metrics, {"passes": len(res["pass_digests"])}


def _layer_value(stats_setup: dict, passes: list[dict], span: str, stat: str):
    def get(agg, key):
        return agg.get(span, {}).get(key, 0)

    if "/" in stat:  # ratio of totals over the set-up and every pass
        num, den = stat.split("/")
        n = get(stats_setup, num) + sum(get(a, num) for a in passes)
        d = get(stats_setup, den) + sum(get(a, den) for a in passes)
        return n / d if d else 0.0
    if stat == "bits":
        return max([get(stats_setup, stat)] + [get(a, stat) for a in passes])
    # one set-up plus the mean pass
    return get(stats_setup, stat) + sum(get(a, stat) for a in passes) / len(passes)


def per_layer(workload: str, seed: int, seconds: float, deadline: float):
    ref = _worker(deadline, "run", workload, "--seed", str(seed),
                  "--max-passes", "1")
    res = _worker(deadline, "run", workload, "--seed", str(seed), "--seconds",
                  str(seconds), "--trace", "--min-passes", "2")
    recs = res["records"]
    failed = sum(r["error"] is not None for r in recs)
    gates = list(res["gates"])
    if set(res["pass_digests"]) != set(ref["pass_digests"]):
        gates.append("traced outputs differ from untraced outputs")
    setup, passes = res["layers"]["setup"], res["layers"]["passes"]
    counts = [{(n, k): v for n, a in p.items() for k, v in a.items()
               if k in COUNT_STATS} for p in passes]
    if any(c != counts[0] for c in counts):
        gates.append("work counts differ between traced passes")
    metrics = {name: (_layer_value(setup, passes, span, stat),
                      "bits" if stat == "bits" else
                      "count" if stat in COUNT_STATS else
                      "ratio" if "/" in stat else "s", len(passes))
               for name, (span, stat) in LAYER_METRICS.items()}
    overhead = res.get("process_overhead_s")
    metrics["cli.process_overhead_s"] = (
        statistics.mean(overhead) if overhead else 0.0, "s", len(overhead or ()))
    traced = statistics.mean(res["pass_walls"])
    metrics["trace_overhead_ratio"] = (traced / ref["pass_walls"][0], "ratio",
                                       len(passes))
    info = {"passes": len(passes), "missing targets": res.get("missing", []),
            "bindings": len(res.get("bindings", []))}
    return recs + ref["records"], failed + sum(
        r["error"] is not None for r in ref["records"]), gates, metrics, info


def main() -> int:
    parser = argparse.ArgumentParser(description="aregularity benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "aregularity" / "__init__.py").is_file():
        print(f"error: no aregularity sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        recs, failed, gates, metrics, info = measure(
            args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in recs:
        if r["error"]:
            print(f"FAILED {r['query']}: {r['error']}", file=sys.stderr)
    for g in gates:
        print(f"GATE FAILED: {g}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={len(recs)} failed={failed} {info}", file=sys.stderr)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:6s} (n={n})", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not gates,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
