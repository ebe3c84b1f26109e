"""One benchmark process: set-up probe or workload run, in a fresh interpreter.

    python perfbench/worker.py setup --workload W --out FILE
    python perfbench/worker.py run --workload W --seed N --seconds S
                                   [--trace] [--min-passes K] [--max-passes K]
                                   --out FILE

``setup`` times what a fresh interpreter pays before its first query:
importing ``aregularity``, ``default_catalog()`` (with its sha256 check) and
a cold ``build_algebra`` for each of the workload's ambient algebras.

``run`` prepares the workload outside the timed region (so the algebra
cache, the default catalog and the compiled catalog expressions are warm,
as they are for a user's second query) and then runs whole passes over the
workload's fixed query list in a closed loop, one query at a time, until
``--seconds`` have passed.  Every pass runs the same queries at the same
seed, so passes must produce identical outputs.  Each query is timed on its
own; its output is checked after the clock stops.  The result goes to FILE
as JSON, for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from pathlib import Path
from time import perf_counter

from tracer import END, NAME, PARENT, REQ, START, Tracer, aggregate, dump

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

# Every query runs at the certified default configuration (8 trials,
# coefficient bound 2^20); a reported NO bound above 2^-40 fails the query.
MAX_BOUND_LOG2 = -40.0
CHILD_TIMEOUT_S = 60


class Query:
    """One request: ``run`` is timed, ``check`` judges its output after."""

    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check


class Outcome:
    def __init__(self, verdict=None, bound=None, canonical="", error=None,
                 child=None):
        self.verdict = verdict            # True / False / None (no verdict)
        self.bound_log2 = None if bound is None else _log2(bound)
        self.canonical = canonical        # what must repeat across passes
        self.error = error
        self.child = child                # span dump of a traced CLI child
        if self.bound_log2 is not None and self.bound_log2 > MAX_BOUND_LOG2:
            self.error = self.error or f"NO bound 2^{self.bound_log2:.1f} > 2^-40"


def _log2(q: Fraction) -> float:
    return math.log2(q.numerator) - math.log2(q.denominator)


def _report_canonical(report: dict) -> str:
    report = dict(report)
    report.pop("timing_seconds", None)
    return json.dumps(report, sort_keys=True)


def _expect(report: dict, **fields) -> str | None:
    for key, want in fields.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    return None


def _entry(x) -> int | str:
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# -- workloads -------------------------------------------------------------------

class SweepR5:
    """``verify-tables --max-rank 5`` in process: one query per catalog row
    instance with a constructor, in ``cmd_verify_tables`` order."""

    MAX_RANK = 5
    INSTANCES = 93

    def __init__(self, seed, traced):
        self.seed = seed

    def _instances(self):
        from aregularity.catalog import default_catalog
        cat = default_catalog()
        out = []
        for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                      "T5_not_regular"):
            for row, params in cat.enumerate(table, self.MAX_RANK):
                descs = row.ambient_descriptors(params)
                if row.constructor_call(params) is not None and descs is not None:
                    out.append((row, params, descs))
        return out

    def ambients(self):
        return [descs for _, _, descs in self._instances()]

    def prepare(self):
        from aregularity.lie_core import build_algebra
        self.instances = self._instances()
        for _, _, descs in self.instances:
            build_algebra(descs)
        if len(self.instances) != self.INSTANCES:
            return [f"sweep has {len(self.instances)} instances, "
                    f"expected {self.INSTANCES}"]
        return []

    def queries(self):
        from aregularity.catalog import verify_row
        from aregularity.criteria import DecisionConfig, RandomizedNegative
        cfg = DecisionConfig(seed=self.seed)

        def make(row, params):
            def check(res):
                v = res.computed
                cert = v.certificate
                bound = cert.failure_bound if isinstance(cert, RandomizedNegative) else None
                witness = getattr(cert, "witness", None)
                canonical = json.dumps([res.row_id, res.params, v.a_regular,
                                        res.match, [str(x) for x in witness or ()],
                                        str(bound)], sort_keys=True)
                error = None if res.status == "verified" and res.match else \
                    f"{res.row_id} {res.params}: status {res.status}, match {res.match}"
                return Outcome(v.a_regular, bound, canonical, error)
            return Query(f"{row.row_id}{json.dumps(params, sort_keys=True)}",
                         lambda: verify_row(row, params, cfg), check)

        return [make(row, params) for row, params, _ in self.instances]


class DecideR9:
    """``decide`` on two rank-9 pairs through ``aregularity.cli.main``."""

    PAIRS = (  # name, (p, q) of s(gl_p + gl_q) in sl(10), expected verdict
        ("sl10-sgl3-7", (3, 7), False),
        ("sl10-sgl5-5", (5, 5), True),
    )

    def __init__(self, seed, traced):
        self.seed = seed

    def ambients(self):
        return [[("A", 9)]]

    def prepare(self):
        from aregularity.catalog import default_catalog
        from aregularity.lie_core import build_algebra
        default_catalog()
        build_algebra([("A", 9)])
        self.files = {}
        for name, (p, q), verdict in self.PAIRS:
            doc = {"g": [{"family": "A", "rank": 9}],
                   "h": {"constructor": "block_sgl", "params": {"p": p, "q": q}},
                   "expected_verdict": verdict}
            path = WORK / "pairs" / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.files[name] = (str(path), doc, verdict)
        return []

    def queries(self):
        from aregularity import cli
        from aregularity.subalgebras import perp

        def make(name, path, doc, verdict):
            def run():
                buf = StringIO()
                with redirect_stdout(buf):
                    code = cli.main(["decide", path, "--seed", str(self.seed)])
                return code, buf.getvalue()

            def check(out):
                code, text = out
                report = json.loads(text)
                error = _expect(report, a_regular=verdict) or \
                    (None if code == (0 if verdict else 3) else f"exit code {code}")
                bound = None
                if verdict is False and error is None:
                    bound = Fraction(report["failure_bound"])
                elif error is None:
                    # re-verify the YES witness: regular, and orthogonal to h
                    e = cli.load_pair(doc)
                    w = [Fraction(x) for x in report["certificate"]["witness"]]
                    if not (e.ambient.is_regular(w)[0] and perp(e).contains_vector(w)):
                        error = "YES witness failed re-verification"
                return Outcome(report.get("a_regular"), bound,
                               _report_canonical(report), error)
            return Query(name, run, check)

        return [make(name, *self.files[name]) for name, _, _ in self.PAIRS]


class CliCustom:
    """A fixed mix of small requests, each ``python -m aregularity.cli`` in a
    fresh interpreter, one child at a time."""

    def __init__(self, seed, traced):
        self.seed, self.traced = seed, traced

    # custom-matrix descriptors exported from named constructors, so that
    # the verdict is known; none carries an involution
    CUSTOM = (
        ("sp4-in-sl4", ("A", 3), "sp_in_sl", {"n": 2}),
        ("gl2-in-sp4", ("C", 2), "gl_in_sp", {"n": 2}),
        ("sgl2-3-in-sl5", ("A", 4), "block_sgl", {"p": 2, "q": 3}),
    )
    DIRECT_SUM = {"g": [{"family": "A", "rank": 2}, {"family": "A", "rank": 5}],
                  "h": {"constructor": "direct_sum", "params": {"parts": [
                      {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
                      {"constructor": "block_sgl", "params": {"p": 2, "q": 4},
                       "factors": 1}]}}}
    SLICE = {"g": [{"family": "A", "rank": 4}],
             "h": {"constructor": "sp_plus_center", "params": {"n": 2}}}
    STABILIZER = {"g": [{"family": "A", "rank": 4}],
                  "h": {"constructor": "block_sgl", "params": {"p": 2, "q": 3}}}
    # (command, pair, exit code, expected report fields)
    REQUESTS = (
        ("decide", "sp4-in-sl4", 3, {"a_regular": False, "catalog_match": None}),
        ("decide", "gl2-in-sp4", 0, {"a_regular": True,
                                     "catalog_match": "T3_symmetric:4"}),
        ("decide", "sgl2-3-in-sl5", 0, {"a_regular": True,
                                        "catalog_match": "T2_levi:4"}),
        ("decide", "direct-sum", 3, {"a_regular": False, "catalog_match": None,
                                     "factor_verdicts": [True, False]}),
        ("decompose", "direct-sum", 0, {"n_factors": 2}),
        ("slice", "sp-plus-center", 0, {"slice_nonempty": True, "slice_dim": 4,
                                        "all_samples_regular": True}),
        ("stabilizer", "sgl2-3-in-sl5-named", 0, {"dim": 2, "is_abelian": True,
                                                  "dim_h_perp": 12}),
    )

    def ambients(self):
        return [[("A", 3)], [("C", 2)], [("A", 4)], [("A", 2), ("A", 5)],
                [("A", 2)], [("A", 5)]]

    def prepare(self):
        from aregularity.lie_core import build_algebra
        from aregularity.subalgebras import embed
        docs = {"direct-sum": self.DIRECT_SUM, "sp-plus-center": self.SLICE,
                "sgl2-3-in-sl5-named": self.STABILIZER}
        for name, (fam, rank), cons, params in self.CUSTOM:
            L = build_algebra([(fam, rank)])
            e = embed(L, cons, params)
            mats = [[[_entry(x) for x in row] for row in L.dense_matrix_of(v)]
                    for v in e.h_basis.basis]
            docs[name] = {"g": [{"family": fam, "rank": rank}],
                          "h": {"custom": {"matrices": mats}}}
        self.files = {}
        for name, doc in docs.items():
            path = WORK / "pairs" / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.files[name] = str(path)
        return []

    def queries(self):
        def make(i, command, pair, code, fields):
            argv = [command, self.files[pair], "--seed", str(self.seed)]
            name = f"{command}:{pair}"

            def run():
                spans = None
                if self.traced:
                    spans = str(WORK / "spans" / f"{i}.json")
                    cmd = [sys.executable, str(HERE / "cli_child.py"), spans, *argv]
                else:
                    cmd = [sys.executable, "-m", "aregularity.cli", *argv]
                p = subprocess.run(cmd, capture_output=True, text=True,
                                   timeout=CHILD_TIMEOUT_S)
                return p, spans

            def check(out):
                p, spans = out
                child = None
                if spans is not None and os.path.exists(spans):
                    with open(spans) as fh:
                        child = json.load(fh)
                    os.unlink(spans)
                try:
                    report = json.loads(p.stdout)
                except json.JSONDecodeError:
                    return Outcome(error=f"{name}: stdout is not JSON "
                                         f"(exit {p.returncode}): {p.stderr[-300:]}",
                                   child=child)
                got = dict(report)
                got["catalog_match"] = (report.get("catalog_match") or {}).get("row")
                got["factor_verdicts"] = [f["a_regular"] for f in
                                          report.get("factorization", {}).get("factors", [])]
                error = _expect(got, **fields)
                if p.returncode != code:
                    error = f"exit code {p.returncode}, expected {code}"
                elif "Traceback" in p.stderr:
                    error = "traceback on stderr"
                verdict = report.get("a_regular") if command == "decide" else None
                bound = Fraction(report["failure_bound"]) \
                    if command == "decide" and verdict is False else None
                return Outcome(verdict, bound, _report_canonical(report),
                               error and f"{name}: {error}", child)
            return Query(name, run, check)

        return [make(i, *req) for i, req in enumerate(self.REQUESTS)]


WORKLOADS = {"sweep-r5": SweepR5, "decide-r9": DecideR9, "cli-custom": CliCustom}


# -- commands --------------------------------------------------------------------

def cmd_setup(args) -> dict:
    t0 = perf_counter()
    import aregularity  # noqa: F401  (the import is what is timed)
    from aregularity.catalog import default_catalog
    from aregularity.lie_core import build_algebra
    default_catalog()
    t1 = perf_counter()
    ambients = WORKLOADS[args.workload](0, False).ambients()
    t2 = perf_counter()
    for descs in ambients:
        build_algebra(descs)
    t3 = perf_counter()
    return {"setup_s": (t1 - t0) + (t3 - t2)}


def cmd_run(args) -> dict:
    tracer = None
    spans = []      # CLI children's spans, merged, when the children are traced
    if args.trace and args.workload != "cli-custom":
        tracer = Tracer()
        tracer.install()
        spans = tracer.spans
    wl = WORKLOADS[args.workload](args.seed, args.trace)
    for sub in ("pairs", "spans"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    gates = wl.prepare()
    queries = wl.queries()

    records, digests, walls, requests = [], [], [], {0: ("setup", None)}
    overheads, bindings, missing = [], [], []
    start = perf_counter()
    while True:
        p = len(digests)
        h = hashlib.sha256()
        wall = 0.0
        for i, q in enumerate(queries):
            req = 1 + p * len(queries) + i
            requests[req] = (p, q.name)
            if tracer is not None:
                tracer.request = req
                tracer.on = True
            t0 = perf_counter()
            try:
                out = q.run()
            except Exception as exc:  # a failed query is counted, not fatal
                out, err = None, f"{q.name}: {type(exc).__name__}: {exc}"
            else:
                err = None
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            if err is None:
                try:
                    o = q.check(out)
                except Exception as exc:
                    o = Outcome(error=f"{q.name}: check raised "
                                      f"{type(exc).__name__}: {exc}")
            else:
                o = Outcome(error=err)
            if o.child is not None:
                # process overhead: the child's wall time outside cli.main,
                # less the tracer's own install and serialization time
                main_s = sum(r[END] - r[START] for r in o.child["spans"]
                             if r[NAME] == "cli.main")
                overheads.append(latency - main_s - o.child["install_s"]
                                 - o.child["serialize_s"])
                bindings, missing = o.child["bindings"], o.child["missing"]
                offset = len(spans)
                for r in o.child["spans"]:
                    r[PARENT] += offset if r[PARENT] >= 0 else 0
                    r[REQ] = req
                    spans.append(r)
            h.update(o.canonical.encode() + b"\n")
            wall += latency
            records.append({"pass": p, "query": q.name, "latency": latency,
                            "verdict": o.verdict, "bound_log2": o.bound_log2,
                            "error": o.error})
        digests.append(h.hexdigest())
        walls.append(wall)
        n = len(digests)
        if n >= args.max_passes or (n >= args.min_passes
                                    and perf_counter() - start >= args.seconds):
            break

    result = {"records": records, "pass_digests": digests, "pass_walls": walls,
              "gates": gates}
    if args.workload == "cli-custom":
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    if args.trace:
        by_pass = aggregate(spans, lambda r: requests[r][0])
        result["layers"] = {"setup": by_pass.get("setup", {}),
                            "passes": [by_pass.get(p, {}) for p in range(len(digests))]}
        result["process_overhead_s"] = overheads
        if tracer is not None:
            bindings, missing = tracer.bindings, tracer.missing
        result["bindings"], result["missing"] = bindings, missing
        dump(WORK / f"trace-{args.workload}.jsonl", spans,
             {"workload": args.workload, "seed": args.seed, "requests": requests,
              "bindings": bindings, "missing": missing})
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--min-passes", type=int, default=1, dest="min_passes")
    parser.add_argument("--max-passes", type=int, default=10 ** 6, dest="max_passes")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    result = cmd_setup(args) if args.mode == "setup" else cmd_run(args)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
