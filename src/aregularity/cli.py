"""Command-line front end.

Commands (JSON report on stdout, optional human summary on stderr):

    aregularity decide PAIR.json        decide a-regularity of a pair
    aregularity verify-tables           re-derive every constructible
                                        catalog row and compare verdicts
    aregularity decompose PAIR.json     indecomposable factorization
    aregularity slice PAIR.json|--algebra A2
                                        principal triple, slice data and
                                        the non-emptiness verdict
    aregularity stabilizer PAIR.json    generic stabilizer report

Exit codes: 0 = a-regular / verified, 3 = not a-regular, 2 = decision
routes disagreed, 1 = error (bad arguments or input, checksum failure, ...).

Pair descriptor schema::

    {
      "g": [{"family": "A", "rank": 3}],        # semisimple, classical
      "h": {"constructor": "block_sgl",         # or {"custom": {...}}
            "params": {"p": 2, "q": 2}},
      "expected_verdict": true                   # optional
    }

Custom subalgebras: {"custom": {"matrices": [[[...], ...], ...],
"involution": {"kind": "neg_transpose" | "swap" | "conjugation",
"matrix": [[...]]}}} with matrix entries integers or "p/q" strings.

Reports are byte-identical for identical seed and input apart from the
"timing_seconds" field.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction

from .catalog import AmbiguousMatchError, Catalog, default_catalog, verify_row
from .criteria import (
    DecisionConfig,
    ExactRegularElement,
    RandomizedNegative,
    RouteDisagreementError,
    Verdict,
    decide,
)
from .decomposition import combined_verdict, split_pair
from .exact_linalg import Subspace
from .lie_core import UnsupportedTypeError, build_algebra
from .slodowy import principal_sl2, slice_nonempty, slice_regularity_check, slodowy_slice
from .subalgebras import Embedding, generic_stabilizer, perp
from .subalgebras import embed as build_embedding

EXIT_YES = 0
EXIT_ERROR = 1
EXIT_DISAGREE = 2
EXIT_NO = 3

SCHEMA_VERSION = 1


class DescriptorError(ValueError):
    """Pair descriptor file is malformed; message names the field."""


def _num(x):
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _vec(v):
    return [_num(Fraction(x)) for x in v]


def _basis(s: Subspace) -> list[list]:
    """A subspace's basis as printed: its reduced row echelon form, each
    stored row divided by its pivot."""
    return [[_num(Fraction(x, row[p])) for x in row]
            for row, p in zip(s.basis, s.pivots())]


def load_pair(doc: dict) -> Embedding:
    """Build a validated embedding from a descriptor document."""
    if not isinstance(doc, dict):
        raise DescriptorError("descriptor root must be an object")
    if "g" not in doc:
        raise DescriptorError("missing field 'g'")
    if "h" not in doc:
        raise DescriptorError("missing field 'h'")
    if not isinstance(doc["g"], list) or not doc["g"]:
        raise DescriptorError("g must be a non-empty list of factor objects")
    factors = []
    for i, f in enumerate(doc["g"]):
        if not isinstance(f, dict) or "family" not in f or "rank" not in f:
            raise DescriptorError(f"g[{i}] must be an object with 'family' and 'rank'")
        if f.get("center"):
            raise DescriptorError(f"g[{i}].center: ambient must be semisimple")
        if type(f["rank"]) is not int:
            raise DescriptorError(f"g[{i}].rank must be an integer, got {f['rank']!r}")
        factors.append((str(f["family"]), f["rank"]))
    try:
        ambient = build_algebra(factors)
    except (ValueError, UnsupportedTypeError) as exc:
        raise DescriptorError(f"g: {exc}") from exc
    h = doc["h"]
    if not isinstance(h, dict):
        raise DescriptorError("h must be an object")
    top_involution = doc.get("involution")
    if "custom" in h:
        spec = h["custom"]
        if not isinstance(spec, dict) or "matrices" not in spec:
            raise DescriptorError("h.custom must be an object with 'matrices'")
        return build_embedding(ambient, "custom", {
            "matrices": spec["matrices"],
            "involution": spec.get("involution", top_involution)})
    if top_involution is not None:
        raise DescriptorError(
            "involution: only accepted with a custom h (named constructors "
            "attach their own involution where the pair is symmetric)")
    if "constructor" not in h:
        raise DescriptorError("h needs either 'constructor' or 'custom'")
    return build_embedding(ambient, str(h["constructor"]), h.get("params", {}))


def _certificate_summary(cert) -> dict:
    """``decide`` returns an exact witness for YES, a randomized bound for NO."""
    if isinstance(cert, ExactRegularElement):
        return {"kind": "exact_regular_element", "witness": _vec(cert.witness)}
    return {"kind": "randomized_negative",
            "failure_bound": _num(cert.failure_bound),
            "failure_bound_float": float(cert.failure_bound)}


def _verdict_block(v: Verdict) -> dict:
    return {
        "a_regular": v.a_regular,
        "certificate": _certificate_summary(v.certificate),
        "routes_agreed": list(v.routes_agreed),
        "invariants": {
            "c": v.invariants.c,
            "rk": v.invariants.rk,
            "dim_h_star": v.invariants.dim_h_star,
            "dim_borel": v.invariants.dim_borel,
        },
    }


def _emit(report: dict, args, summary: str) -> None:
    print(json.dumps(report, sort_keys=True, indent=2 if args.pretty else None))
    if args.pretty:
        print(summary, file=sys.stderr)


def _cfg(args) -> DecisionConfig:
    return DecisionConfig(seed=args.seed, trials=args.trials,
                          coeff_bound=args.coeff_bound)


def _catalog(args) -> Catalog:
    return default_catalog() if args.catalog is None else Catalog.load(args.catalog)


def cmd_decide(args) -> int:
    t0 = time.time()
    with open(args.pair) as fh:
        doc = json.load(fh)
    e = load_pair(doc)
    cfg = _cfg(args)
    cat = _catalog(args)
    fz = split_pair(e)
    per_factor = [decide(f.embedding, cfg.reseeded(i), cat)
                  for i, f in enumerate(fz.factors)]
    verdict = combined_verdict(fz, per_factor)
    try:
        hit = cat.lookup(e)
    except AmbiguousMatchError:
        hit = None
    catalog_match = None
    if hit is not None:
        catalog_match = {"row": hit[0].row_id, "display": hit[0].display,
                         "params": hit[1], "tabled_verdict": hit[0].verdict}
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": doc,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "coeff_bound": cfg.coeff_bound,
        **_verdict_block(verdict),
        "failure_bound": (_num(verdict.certificate.failure_bound)
                          if isinstance(verdict.certificate, RandomizedNegative)
                          else None),
        "catalog_match": catalog_match,
        "factorization": {
            "n_factors": len(fz.factors),
            "factors": [{
                "ambient_factors": [str(d) for d in f.embedding.ambient.factors],
                "dim_h": f.embedding.dim_h,
                "a_regular": v.a_regular,
                "strictly_indecomposable": f.strictly_indecomposable,
            } for f, v in zip(fz.factors, per_factor)],
        },
        "timing_seconds": round(time.time() - t0, 3),
    }
    expected = doc.get("expected_verdict")
    summary = (f"pair is {'a-regular' if verdict.a_regular else 'NOT a-regular'}; "
               f"c={verdict.invariants.c} rk={verdict.invariants.rk} "
               f"dim h*={verdict.invariants.dim_h_star} dim B={verdict.invariants.dim_borel}")
    if expected is not None and expected != verdict.a_regular:
        report["expected_verdict_mismatch"] = True
        summary += f" (expected {expected}!)"
    _emit(report, args, summary)
    return EXIT_YES if verdict.a_regular else EXIT_NO


def cmd_verify_tables(args) -> int:
    t0 = time.time()
    cfg = _cfg(args)
    cat = _catalog(args)
    results = []
    verified = mismatches = 0
    skipped_rows = sorted({r.row_id for r in cat.rows if r.constructor is None})
    for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                  "T5_not_regular"):
        for row, params in cat.enumerate(table, args.max_rank):
            res = verify_row(row, params, cfg)
            if res.status == "skipped":
                continue
            verified += 1
            if res.match is False:
                mismatches += 1
            results.append({
                "row": res.row_id,
                "params": res.params,
                "match": res.match,
                "computed": res.computed.a_regular,
                "tabled": res.tabled,
                "informational": res.informational,
            })
    report = {
        "schema_version": SCHEMA_VERSION,
        "max_rank": args.max_rank,
        "seed": cfg.seed,
        "verified_instances": verified,
        "mismatches": mismatches,
        "skipped_rows": skipped_rows,
        "results": results,
        "timing_seconds": round(time.time() - t0, 3),
    }
    _emit(report, args, f"{verified} instances verified, {mismatches} mismatches, "
                        f"{len(skipped_rows)} rows skipped (no constructor)")
    return EXIT_YES if mismatches == 0 else EXIT_NO


def cmd_decompose(args) -> int:
    t0 = time.time()
    with open(args.pair) as fh:
        doc = json.load(fh)
    e = load_pair(doc)
    fz = split_pair(e)
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": doc,
        "n_factors": len(fz.factors),
        "indecomposable": len(fz.factors) == 1,
        # if h splits, [h, h] splits the same way
        "strictly_indecomposable": (len(fz.factors) == 1
                                    and fz.factors[0].strictly_indecomposable),
        "factors": [{
            "factor_indices": list(f.factor_indices),
            "ambient_factors": [str(d) for d in f.embedding.ambient.factors],
            "dim_g": f.embedding.ambient.dim,
            "dim_h": f.embedding.dim_h,
            "strictly_indecomposable": f.strictly_indecomposable,
        } for f in fz.factors],
        "timing_seconds": round(time.time() - t0, 3),
    }
    _emit(report, args, f"{len(fz.factors)} indecomposable factor(s)")
    return EXIT_YES


def _parse_algebra_label(label: str):
    parts = label.replace("+", " ").split()
    if not parts or not all(re.fullmatch(r"[A-Za-z][0-9]+", p) for p in parts):
        raise DescriptorError(f"--algebra {label!r} must be family letters with "
                              "ranks joined by +, such as A2+C3")
    return [(p[0].upper(), int(p[1:])) for p in parts]


def cmd_slice(args) -> int:
    t0 = time.time()
    cfg = _cfg(args)
    e = None
    if args.algebra is not None:
        L = build_algebra(_parse_algebra_label(args.algebra))
        doc = {"algebra": args.algebra}
    else:
        if not args.pair:
            raise DescriptorError("slice needs a pair file or --algebra")
        with open(args.pair) as fh:
            doc = json.load(fh)
        e = load_pair(doc)
        L = e.ambient
    triple = principal_sl2(L)
    s = slodowy_slice(L, triple)
    regular_ok = slice_regularity_check(L, s, samples=args.samples, seed=cfg.seed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": doc,
        "seed": cfg.seed,
        "principal_triple": {
            "e": _vec(triple.e),
            "h": _vec(triple.h),
            "f": _vec(triple.f),
        },
        "slice_dim": s.directions.dim,
        "rank": L.rank,
        "samples_checked": args.samples,
        "all_samples_regular": regular_ok,
        "timing_seconds": round(time.time() - t0, 3),
    }
    summary = f"slice dim {s.directions.dim} = rank {L.rank}; samples regular: {regular_ok}"
    exit_code = EXIT_YES
    if e is not None:
        nonempty = slice_nonempty(e, cfg)
        report["slice_nonempty"] = nonempty
        summary += f"; pair slice non-empty: {nonempty}"
        exit_code = EXIT_YES if nonempty else EXIT_NO
    _emit(report, args, summary)
    return exit_code


def cmd_stabilizer(args) -> int:
    t0 = time.time()
    with open(args.pair) as fh:
        doc = json.load(fh)
    e = load_pair(doc)
    cfg = _cfg(args)
    rep = generic_stabilizer(e, seed=cfg.seed, trials=cfg.trials,
                             coeff_bound=cfg.coeff_bound)
    report = {
        "schema_version": SCHEMA_VERSION,
        "input": doc,
        "seed": cfg.seed,
        "trials": rep.trials,
        "coefficient_bound": rep.coefficient_bound,
        "dim": rep.dim,
        "is_abelian": rep.is_abelian,
        "reductive_rank": rep.reductive_rank,
        "failure_bound": _num(rep.failure_bound),
        "failure_bound_float": float(rep.failure_bound),
        "stab_basis": _basis(rep.stab_basis),
        "dim_h": e.dim_h,
        "dim_h_perp": perp(e).dim,
        "timing_seconds": round(time.time() - t0, 3),
    }
    _emit(report, args, f"generic stabilizer dim {rep.dim}, "
                        f"abelian: {rep.is_abelian}, rank {rep.reductive_rank}")
    return EXIT_YES


class _Parser(argparse.ArgumentParser):
    """Raises instead of exiting 2 (a route disagreement); sub-parsers too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aregularity",
        description="exact a-regularity decisions for reductive pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=positive_int, default=8)
        p.add_argument("--coeff-bound", type=positive_int, default=1 << 20,
                       dest="coeff_bound")
        p.add_argument("--pretty", action="store_true",
                       help="indent JSON and print a summary to stderr")
        p.add_argument("--catalog", default=None,
                       help="path of an alternative catalog data file")

    p = sub.add_parser("decide", help="decide a-regularity of a pair")
    p.add_argument("pair", help="pair descriptor JSON file")
    common(p)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("verify-tables", help="cross-verify the catalog rows")
    p.add_argument("--max-rank", type=positive_int, default=4, dest="max_rank")
    common(p)
    p.set_defaults(fn=cmd_verify_tables)

    p = sub.add_parser("decompose", help="split a pair into indecomposables")
    p.add_argument("pair")
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("slice", help="principal Slodowy slice report")
    p.add_argument("pair", nargs="?", default=None)
    p.add_argument("--algebra", default=None,
                   help="algebra label like 'A2' or 'A2+C3' instead of a pair")
    p.add_argument("--samples", type=positive_int, default=20)
    common(p)
    p.set_defaults(fn=cmd_slice)

    p = sub.add_parser("stabilizer", help="generic stabilizer of a pair")
    p.add_argument("pair")
    common(p)
    p.set_defaults(fn=cmd_stabilizer)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader has gone, so no report or error can reach it; point
        # stdout at devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except RouteDisagreementError as exc:
        print(json.dumps({"error": "route_disagreement",
                          "routes": exc.routes}, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except (AmbiguousMatchError, argparse.ArgumentError, OSError, ValueError,
            RuntimeError) as exc:
        # ValueError covers DescriptorError, UnsupportedTypeError and JSON
        # decoding errors; RuntimeError covers CatalogChecksumError
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)},
                         sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - every input ends in JSON
        print(json.dumps({"error": "internal_error",
                          "message": f"{type(exc).__name__}: {exc}"}, sort_keys=True))
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
