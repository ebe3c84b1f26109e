"""Byte-identity guard: the canonical decide/stabilizer reports over the
catalog sweep at ambient ranks <= 3 and <= 4, and on two rank-9 pairs whose stabilizer
rows carry entries of hundreds of bits, must keep their pinned digests.

A change that alters these reports on purpose updates the pinned values and
says so in CHANGES.md.  The digests without the stabilizer's
``failure_bound`` keep the values that field had before it last moved, so
they show that nothing else moved with it."""

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
PINNED = "6629a50adc17c653ef92f74cd14c6e2e0ec53bc0afe2987ac4778f9ee86126e6"
PINNED_MAX_RANK_4 = \
    "a2cb1e61ad85fde2328e679fe9885badf707f8fb98b8b88681729c80d347efa0"
PINNED_WITHOUT_FAILURE_BOUND = \
    "c2f099f95cf29c268cf976d6abb653944ded1eb3987896d7cd1b7ede6b1890f7"


def _digest_line(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "report_digest.py"), *args],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("max_rank, pinned, instances", [
    (3, PINNED, 38), (4, PINNED_MAX_RANK_4, 68)], ids=["3", "4"])
def test_report_digest_max_rank(max_rank, pinned, instances):
    assert _digest_line("--max-rank", str(max_rank)) == \
        f"sha256 {pinned} over {instances} instances"


def test_report_digest_max_rank_3_without_failure_bound():
    assert _digest_line("--max-rank", "3", "--drop-field", "failure_bound") == \
        f"sha256 {PINNED_WITHOUT_FAILURE_BOUND} over 38 instances"


def _report_digest():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("p, q, a_regular, pinned, pinned_without_failure_bound", [
    (3, 7, False, "d3b2163f5974963219220b0bf01338353f34c04f60486c38ef495009f05596e6",
     "c18670ecb4a95a74914122d9c221e90b9ad703787d93ef3764e79b69d61b198e"),
    (5, 5, True, "ad30117155c96b2479cb94857dc12e734a4ea57b4542a48d7f9093898ca1c978",
     "cd6eded410b24ba6b6c73ca7af9b7584c8f676e0f1e718b284ad0d46f31e035f"),
])
def test_rank_9_block_levi_lines(p, q, a_regular, pinned, pinned_without_failure_bound):
    # sl10 > s(gl_p + gl_q) at the default config: the NO pair's lifted
    # stabilizer has 18 rows over 99 coordinates
    params = {"p": p, "q": q}
    header = {"embedding": "block_sgl", "params": params}
    e = embed(build_algebra([("A", 9)]), "block_sgl", params)
    tool = _report_digest()
    line = tool.report_line(header, e, DecisionConfig())
    assert f'"a_regular":{str(a_regular).lower()}' in line
    assert hashlib.sha256(line.encode()).hexdigest() == pinned
    line = tool.report_line(header, e, DecisionConfig(), ("failure_bound",))
    assert hashlib.sha256(line.encode()).hexdigest() == pinned_without_failure_bound
