"""Checks of the benchmark itself, run by hand after changing it.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]

1. Two traced runs of each workload at the same seed must both be correct
   and report identical work counts (every per-layer metric whose unit is
   ``count`` or ``bits``).  Each traced run already checks that its outputs
   equal an untraced pass and that its own passes repeat the counts.
2. The span dump of each traced run must list a wrapper at every binding
   site where the package imports a traced function under its own name.
3. In a directory holding only BENCHMARK.json and ``perfbench/``, the
   benchmark must exit non-zero without printing a result.

Exit code 0 when every check passes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# module-level re-imports of traced functions, and traced methods
BINDING_SITES = (
    "aregularity.subalgebras.rref", "aregularity.subalgebras.left_kernel",
    "aregularity.subalgebras.bareiss_echelon", "aregularity.lie_core.bareiss_echelon",
    "aregularity.criteria.generic_stabilizer", "aregularity.criteria.perp",
    "aregularity.catalog.embed", "aregularity.catalog.decide",
    "aregularity.catalog.build_algebra", "aregularity.cli.decide",
    "aregularity.cli.verify_row", "aregularity.cli.perp",
    "aregularity.cli.build_embedding", "aregularity.slodowy.left_kernel",
    "aregularity.slodowy.decide_regular_element",
    "aregularity.lie_core.LieAlgebra.is_regular",
    "aregularity.lie_core.LieAlgebra.bracket",
    "aregularity.catalog.Catalog.lookup", "aregularity.catalog.Catalog.load",
)


def _run(cwd: Path, workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_repeat(workload: str, seed: int, seconds: int) -> list[str]:
    problems, counts = [], []
    for _ in range(2):
        p = _run(ROOT, workload, seed, seconds, 1)
        if p.returncode != 0:
            return [f"{workload}: traced run exited {p.returncode}: {p.stderr[-500:]}"]
        result = json.loads(p.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            problems.append(f"{workload}: traced run not correct: {p.stderr[-800:]}")
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] in ("count", "bits")})
        with open(WORK / f"trace-{workload}.jsonl") as fh:
            header = json.loads(fh.readline())
        missing = [s for s in BINDING_SITES if s not in header["bindings"]]
        if missing:
            problems.append(f"{workload}: no wrapper at {missing}")
    for key in counts[0]:
        if counts[0][key] != counts[1][key]:
            problems.append(f"{workload}: {key} {counts[0][key]} != {counts[1][key]}")
    print(f"{workload}: {len(counts[0])} counts compared over two traced runs",
          file=sys.stderr)
    return problems


def check_bare_directory() -> list[str]:
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        p = _run(bare, "decide-r9", 0, 1, 0)
    finally:
        shutil.rmtree(bare)
    if p.returncode == 0 or p.stdout.strip():
        return [f"bare directory: exit {p.returncode}, stdout {p.stdout!r}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*",
                        default=["sweep-r5", "decide-r9", "cli-custom"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    problems = check_bare_directory()
    for wl in args.workloads:
        problems += check_repeat(wl, args.seed, args.seconds)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selfcheck:", "FAIL" if problems else "ok", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
