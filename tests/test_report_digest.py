"""Byte-identity guard: the canonical decide/stabilizer reports over the
catalog sweep at ambient rank <= 3, and on two rank-9 pairs whose stabilizer
rows carry entries of hundreds of bits, must keep their pinned digests.

A change that alters these reports on purpose updates the pinned values and
says so in CHANGES.md."""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from aregularity.criteria import DecisionConfig
from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed

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


def _report_digest():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p, q, a_regular, pinned", [
    (3, 7, False, "2914cbf080b65f345e77329aae1367087facc8c7001fbbd0420542daedec4a43"),
    (5, 5, True, "7c78699ad1730f3fda3e975352ee5a8042fe2cb9b6320e99919f4070f4e5b184"),
])
def test_rank_9_block_levi_lines(p, q, a_regular, pinned):
    # sl10 > s(gl_p + gl_q) at the default config: the NO pair's lifted
    # stabilizer has 18 rows over 99 coordinates
    params = {"p": p, "q": q}
    e = embed(build_algebra([("A", 9)]), "block_sgl", params)
    line = _report_digest().report_line(
        {"embedding": "block_sgl", "params": params}, e, DecisionConfig())
    assert f'"a_regular":{str(a_regular).lower()}' in line
    assert hashlib.sha256(line.encode()).hexdigest() == pinned
