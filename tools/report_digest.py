"""Canonical digest of the decision reports over the catalog sweep.

    PYTHONPATH=src python3 tools/report_digest.py [--max-rank N]

For every constructible catalog instance with ambient rank <= N (default
4) this prints one canonical JSON line holding the row, its parameters,
the verdict block of ``decide(..., use_catalog=False)`` (verdict,
certificate with the witness or failure bound, invariants and
``routes_agreed``) and the fields of ``generic_stabilizer``, all at the
default ``DecisionConfig``.  No line carries timing.  The last line is the
sha256 of the preceding lines, so two checkouts produce byte-identical
reports on the sweep iff they print the same digest.

Standard library only (besides the package itself).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from aregularity.catalog import default_catalog
from aregularity.cli import _num, _vec, _verdict_block
from aregularity.criteria import DecisionConfig, decide
from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed, generic_stabilizer

TABLES = ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical", "T5_not_regular")


def instance_lines(max_rank: int):
    """One canonical JSON line per constructible catalog instance."""
    cfg = DecisionConfig()
    cat = default_catalog()
    for table in TABLES:
        for row, params in cat.enumerate(table, max_rank):
            call = row.constructor_call(params)
            descs = row.ambient_descriptors(params)
            if call is None or descs is None:
                continue
            e = embed(build_algebra(descs), call[0], call[1])
            verdict = decide(e, cfg, use_catalog=False)
            rep = generic_stabilizer(e, seed=cfg.seed, trials=cfg.trials,
                                     coeff_bound=cfg.coeff_bound)
            yield json.dumps({
                "row": row.row_id,
                "params": params,
                "verdict": _verdict_block(verdict),
                "generic_stabilizer": {
                    "dim": rep.dim,
                    "is_abelian": rep.is_abelian,
                    "reductive_rank": rep.reductive_rank,
                    "trials": rep.trials,
                    "coefficient_bound": rep.coefficient_bound,
                    "failure_bound": _num(rep.failure_bound),
                    "stab_basis": [_vec(v) for v in rep.stab_basis.basis],
                },
            }, sort_keys=True, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=4, dest="max_rank")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    n = 0
    for line in instance_lines(args.max_rank):
        print(line)
        digest.update(line.encode() + b"\n")
        n += 1
    print(f"sha256 {digest.hexdigest()} over {n} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
