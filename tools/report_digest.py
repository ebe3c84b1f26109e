"""Canonical digest of the decision reports over the catalog sweep.

    PYTHONPATH=src python3 tools/report_digest.py [--max-rank N]
                                                  [--drop-field NAME ...]

For every constructible catalog instance with ambient rank <= N (default
4) this prints one canonical JSON line holding the row, its parameters,
the verdict block of ``decide`` without a catalog (verdict,
certificate with the witness or failure bound, invariants and
``routes_agreed``) and the fields of ``generic_stabilizer``, all at the
default ``DecisionConfig``.  No line carries timing.  The last line is the
sha256 of the preceding lines, so two checkouts produce byte-identical
reports on the sweep iff they print the same digest.  ``--drop-field NAME``
(repeatable) leaves the field NAME out of every ``generic_stabilizer``
block, so a change that moves only that field on purpose can show that
nothing else moved.

Standard library only (besides the package itself).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from aregularity.catalog import default_catalog
from aregularity.cli import _basis, _num, _verdict_block
from aregularity.criteria import DecisionConfig, decide
from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed, generic_stabilizer

TABLES = ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical", "T5_not_regular")


STABILIZER_FIELDS = ("dim", "is_abelian", "reductive_rank", "trials",
                     "coefficient_bound", "failure_bound", "stab_basis")


def report_line(header: dict, e, cfg: DecisionConfig,
                drop: tuple[str, ...] = ()) -> str:
    """The canonical JSON line of one embedding: ``header`` plus the verdict
    block of ``decide`` without a catalog and the ``generic_stabilizer``
    fields other than ``drop``, at ``cfg``."""
    verdict = decide(e, cfg)
    rep = generic_stabilizer(e, seed=cfg.seed, trials=cfg.trials,
                             coeff_bound=cfg.coeff_bound)
    stabilizer = {
        "dim": rep.dim,
        "is_abelian": rep.is_abelian,
        "reductive_rank": rep.reductive_rank,
        "trials": rep.trials,
        "coefficient_bound": rep.coefficient_bound,
        "failure_bound": _num(rep.failure_bound),
        "stab_basis": _basis(rep.stab_basis),
    }
    return json.dumps({
        **header,
        "verdict": _verdict_block(verdict),
        "generic_stabilizer": {k: v for k, v in stabilizer.items() if k not in drop},
    }, sort_keys=True, separators=(",", ":"))


def instance_lines(max_rank: int, drop: tuple[str, ...] = ()):
    """One canonical JSON line per constructible catalog instance, without
    the stabilizer fields in ``drop``."""
    cfg = DecisionConfig()
    cat = default_catalog()
    for table in TABLES:
        for row, params in cat.enumerate(table, max_rank):
            call = row.constructor_call(params)
            descs = row.ambient_descriptors(params)
            if call is None or descs is None:
                continue
            e = embed(build_algebra(descs), call[0], call[1])
            yield report_line({"row": row.row_id, "params": params}, e, cfg, drop)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-rank", type=int, default=4, dest="max_rank")
    parser.add_argument("--drop-field", action="append", default=[],
                        choices=STABILIZER_FIELDS, dest="drop", metavar="NAME",
                        help="leave this generic_stabilizer field out of every "
                             f"line (one of {', '.join(STABILIZER_FIELDS)})")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    n = 0
    for line in instance_lines(args.max_rank, tuple(args.drop)):
        print(line)
        digest.update(line.encode() + b"\n")
        n += 1
    print(f"sha256 {digest.hexdigest()} over {n} instances")
    return 0


if __name__ == "__main__":
    sys.exit(main())
