"""Byte-identity guard: the canonical decide/stabilizer reports over the
catalog sweep at ambient rank <= 3 must keep their pinned digest.

A change that alters these reports on purpose updates ``PINNED`` and says
so in CHANGES.md."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = "b9af4f61e55fe572cf9cceb3f7db9263799e61abf67d4aa51d717e904fae7d5f"


def test_report_digest_max_rank_3():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py"), "--max-rank", "3"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == f"sha256 {PINNED} over 38 instances"
