"""The embedded classification tables, with lookup and cross-verification.

Five tables are shipped as a checksum-pinned JSON data file:

    T1_h_ess        pairs marking nontrivial essential subalgebras
                    (metadata: informational a-regular expectation)
    T2_levi         a-regular Levi pairs
    T3_symmetric    a-regular strictly indecomposable symmetric pairs
    T4_spherical    a-regular strictly indecomposable reductive spherical
                    non-symmetric pairs
    T5_not_regular  reductive spherical pairs that are not a-regular

Rows are parametrized type patterns with constraints; rows built from
block / diagonal / fixed-point matrix embeddings carry a constructor
binding so that ``verify_row`` can rebuild the pair and compare the
computed verdict against the table.  Exceptional and spin rows carry no
constructor and are reported as skipped by the verification sweep.

Pattern matching is structural (type lists plus constructor identity); it
does not see outer automorphisms, so conjugacy classes that differ only by
one (e.g. triality twists) match the same row.  Ambiguity between rows
with conflicting verdicts raises instead of guessing.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Sequence

from .lie_core import SimpleFactorDescriptor, UnsupportedTypeError, build_algebra
from .subalgebras import Embedding, embed
from .criteria import DecisionConfig, Verdict, decide


class CatalogChecksumError(RuntimeError):
    """The data file does not match its embedded checksum."""


class AmbiguousMatchError(LookupError):
    """Several catalog rows with conflicting verdicts match the query."""

    def __init__(self, candidates):
        self.candidates = candidates
        super().__init__(
            "ambiguous catalog match: " + ", ".join(r.row_id for r in candidates))


_TABLE_IDS = ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
              "T5_not_regular")

_PARAM_MAX = 40

_COMPILED: dict[str, object] = {}


def _compiled(expr: str):
    code = _COMPILED.get(expr)
    if code is None:
        code = compile(expr, "<catalog>", "eval")
        _COMPILED[expr] = code
    return code


def _eval(expr, params: dict) -> int:
    if isinstance(expr, int):
        return expr
    if expr in params:
        return int(params[expr])
    return int(eval(_compiled(expr), {"__builtins__": {}}, dict(params)))  # noqa: S307


def _check(constraints: Sequence[str], params: dict) -> bool:
    return all(eval(_compiled(c), {"__builtins__": {}}, dict(params))  # noqa: S307
               for c in constraints)


def _pattern_rank(kind: str, size: int) -> Optional[int]:
    """Lie rank contributed by one ambient pattern entry; None if invalid."""
    if kind == "sl":
        return size - 1 if size >= 2 else None
    if kind == "so":
        # so(4) is not simple, so(1), so(2) are not ambient factors
        return size // 2 if size == 3 or size >= 5 else None
    if kind == "sp":
        return size // 2 if size >= 2 and size % 2 == 0 else None
    if kind in ("e", "f", "g"):
        return size
    return None


def _pattern_descriptor(kind: str, size: int) -> Optional[SimpleFactorDescriptor]:
    """Constructible descriptor for an ambient pattern entry, or None."""
    try:
        if kind == "sl" and size >= 2:
            return SimpleFactorDescriptor("A", size - 1)
        if kind == "so" and size >= 3 and size != 4:
            return SimpleFactorDescriptor("B" if size % 2 else "D", size // 2)
        if kind == "sp" and size >= 2 and size % 2 == 0:
            return SimpleFactorDescriptor("C", size // 2)
    except (ValueError, UnsupportedTypeError):
        return None
    return None


@dataclass(frozen=True)
class CatalogRow:
    table_id: str
    line: str
    display: str
    g_pattern: tuple
    h_pattern: tuple
    params: tuple[str, ...]
    constraints: tuple[str, ...]
    verdict: Optional[bool]
    informational: bool
    constructor: Optional[tuple]
    notes: str

    @property
    def row_id(self) -> str:
        return f"{self.table_id}:{self.line}"

    def is_diagonal_row(self) -> bool:
        return self.g_pattern and self.g_pattern[0][0] == "simple"

    def ambient_rank(self, params: dict) -> Optional[int]:
        if self.is_diagonal_row():
            fam, rank = params["family"], int(params["rank"])
            try:
                SimpleFactorDescriptor(fam, rank)
            except (ValueError, UnsupportedTypeError):
                return None
            return 2 * rank
        total = 0
        for kind, size_expr in self.g_pattern:
            size = _eval(size_expr, params)
            r = _pattern_rank(kind, size)
            if r is None:
                return None
            total += r
        return total

    def ambient_descriptors(self, params: dict) -> Optional[list[SimpleFactorDescriptor]]:
        if self.is_diagonal_row():
            fam, rank = params["family"], int(params["rank"])
            try:
                d = SimpleFactorDescriptor(fam, rank)
            except (ValueError, UnsupportedTypeError):
                return None
            return [d, d]
        out = []
        for kind, size_expr in self.g_pattern:
            d = _pattern_descriptor(kind, _eval(size_expr, params))
            if d is None:
                return None
            out.append(d)
        return out

    def constructor_call(self, params: dict) -> Optional[tuple[str, dict]]:
        if self.constructor is None:
            return None
        name, arg_templates = self.constructor
        args = {}
        for key, tmpl in arg_templates.items():
            if isinstance(tmpl, list):
                args[key] = [_eval(t, params) for t in tmpl]
            elif isinstance(tmpl, bool):
                args[key] = tmpl
            elif isinstance(tmpl, str) and tmpl in ("family",):
                args[key] = params["family"]
            else:
                args[key] = _eval(tmpl, params)
        # diagonal rows carry the family through as a string
        if name == "diagonal":
            args["family"] = params["family"]
            args["rank"] = int(params["rank"])
        return name, args


class Catalog:
    def __init__(self, rows: list[CatalogRow]):
        self.rows = rows

    @classmethod
    def from_document(cls, doc: dict) -> "Catalog":
        payload = json.dumps(doc["rows"], sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if digest != doc.get("sha256"):
            raise CatalogChecksumError(
                f"catalog checksum mismatch: rows hash to {digest}, "
                f"file claims {doc.get('sha256')}")
        rows = []
        for r in doc["rows"]:
            rows.append(CatalogRow(
                table_id=r["table"],
                line=r["line"],
                display=r["display"],
                g_pattern=tuple(tuple(x) for x in r["g"]),
                h_pattern=tuple(tuple(x) for x in r["h"]),
                params=tuple(r["params"]),
                constraints=tuple(r["constraints"]),
                verdict=r["verdict"],
                informational=r["informational"],
                constructor=(r["constructor"][0], r["constructor"][1])
                if r["constructor"] else None,
                notes=r["notes"],
            ))
        return cls(rows)

    @classmethod
    def load(cls, path: Optional[str] = None) -> "Catalog":
        if path is None:
            text = resources.files("aregularity").joinpath(
                "data/catalog_tables.json").read_text()
        else:
            with open(path) as fh:
                text = fh.read()
        return cls.from_document(json.loads(text))

    def table(self, table_id: str) -> list[CatalogRow]:
        return [r for r in self.rows if r.table_id == table_id]

    # -- parameter search -----------------------------------------------------

    def _param_assignments(self, row: CatalogRow, max_rank: int):
        if row.is_diagonal_row():
            for fam in "ABCD":
                lo = 3 if fam == "D" else 1
                for rank in range(lo, max_rank // 2 + 1):
                    params = {"family": fam, "rank": rank}
                    if row.ambient_rank(params) is not None and \
                            (row.ambient_rank(params) or 0) <= max_rank:
                        yield params
            return
        names = row.params
        if not names:
            params: dict = {}
            r = row.ambient_rank(params)
            if r is not None and r <= max_rank:
                yield params
            return

        cap = min(_PARAM_MAX, 2 * max_rank + 4)

        def rec(i, acc):
            if i == len(names):
                if _check(row.constraints, acc):
                    r = row.ambient_rank(acc)
                    if r is not None and r <= max_rank:
                        yield dict(acc)
                return
            for v in range(1, cap):
                acc[names[i]] = v
                yield from rec(i + 1, acc)
            del acc[names[i]]

        yield from rec(0, {})

    def enumerate(self, table_id: str, max_rank: int) -> list[tuple[CatalogRow, dict]]:
        """All parameter instantiations with ambient rank <= max_rank."""
        if max_rank > 8:
            raise ValueError("max_rank is capped at 8 for the desk-scale sweep")
        out = []
        for row in self.table(table_id):
            for params in self._param_assignments(row, max_rank):
                out.append((row, params))
        return out

    # -- lookup ---------------------------------------------------------------

    def lookup(self, e: Embedding,
               max_rank: int = 8) -> Optional[tuple[CatalogRow, dict]]:
        """Structural match of an embedding against the table rows.

        Constructor-built embeddings match on constructor identity; custom
        embeddings match on the (ambient types, subalgebra ideal types)
        signature.  A miss returns None (informative on its own: for a
        simple ambient algebra with trivial essential subalgebra the pair
        is automatically a-regular).  Conflicting-verdict multi-matches
        raise AmbiguousMatchError."""
        amb_rank = e.ambient.rank
        matches: list[tuple[CatalogRow, dict]] = []
        for row in self.rows:
            for params in self._param_assignments(row, amb_rank):
                if self._row_matches(row, params, e):
                    matches.append((row, params))
                    break
        if not matches:
            return None
        verdicts = {m[0].verdict for m in matches if m[0].verdict is not None}
        if len(verdicts) > 1:
            raise AmbiguousMatchError([m[0] for m in matches])
        for m in matches:
            if m[0].verdict is not None:
                return m
        return matches[0]

    def _row_matches(self, row: CatalogRow, params: dict, e: Embedding) -> bool:
        descs = row.ambient_descriptors(params)
        if descs is None or tuple(descs) != tuple(e.ambient.factors):
            return False
        call = row.constructor_call(params)
        if e.constructor is not None and e.constructor[0] != "custom":
            if call is None:
                return False
            name, args = e.constructor
            if call[0] != name:
                return False
            return _normalize_args(name, args) == _normalize_args(name, call[1])
        # custom embedding: compare ideal-type signatures by dimension
        want_center = 0
        want_ideals: list[int] = []
        if row.is_diagonal_row():
            d = SimpleFactorDescriptor(params["family"], int(params["rank"]))
            want_ideals = [d.dim]
        else:
            for kind, size_expr in row.h_pattern:
                size = _eval(size_expr, params)
                if kind == "C":
                    want_center += size
                elif kind == "gl":
                    if size >= 1:
                        want_center += 1
                    if size >= 2:
                        want_ideals.append(size * size - 1)
                elif kind == "sl":
                    if size >= 2:
                        want_ideals.append(size * size - 1)
                elif kind == "so":
                    if size == 2:
                        want_center += 1
                    elif size == 4:
                        want_ideals.extend([3, 3])
                    elif size >= 3:
                        want_ideals.append(size * (size - 1) // 2)
                elif kind == "sp":
                    if size >= 2:
                        want_ideals.append(size * (size + 1) // 2)
                elif kind in ("e", "f", "g"):
                    return False
        if want_center + sum(want_ideals) != e.dim_h:
            return False
        # splitting a large subalgebra is expensive; identify only when
        # the decomposition is already known or cheap to compute
        if e._ideals is None and e.dim_h > _STRUCTURAL_MATCH_BOUND:
            return False
        try:
            dec = e.ideal_decomposition
        except Exception:
            return False
        return dec.center.dim == want_center and \
            sorted(p.dim for p in dec.simple_ideals) == sorted(want_ideals)


_STRUCTURAL_MATCH_BOUND = 16

_UNORDERED_PAIR_ARGS = {"block_sgl", "block_ss", "so_block"}


def _normalize_args(name: str, args: dict) -> tuple:
    """Canonical comparison key; block-pair sizes are unordered (the two
    orderings give conjugate embeddings)."""
    if name in _UNORDERED_PAIR_ARGS:
        return (tuple(sorted((args["p"], args["q"]))),)
    if name == "sp_block":
        return (tuple(sorted(args["parts"])),)
    return tuple(sorted((k, tuple(v) if isinstance(v, list) else v)
                        for k, v in args.items()))


@dataclass(frozen=True)
class RowVerification:
    row_id: str
    params: dict
    status: str              # "verified" | "skipped"
    match: Optional[bool]
    computed: Optional[Verdict]
    tabled: Optional[bool]
    informational: bool


def verify_row(row: CatalogRow, params: dict,
               cfg: DecisionConfig = DecisionConfig()) -> RowVerification:
    """Rebuild a constructible row and compare the computed verdict.

    Rows without constructors are reported as skipped, not failed.  The
    decision runs without a catalog, so the comparison is against the
    independent computational routes only."""
    call = row.constructor_call(params)
    descs = row.ambient_descriptors(params)
    if call is None or descs is None:
        return RowVerification(row.row_id, dict(params), "skipped", None,
                               None, row.verdict, row.informational)
    ambient = build_algebra(descs)
    e = embed(ambient, call[0], call[1])
    computed = decide(e, cfg)
    expected = True if row.verdict is None else row.verdict
    return RowVerification(row.row_id, dict(params), "verified",
                           computed.a_regular == expected, computed,
                           row.verdict, row.informational)


_DEFAULT: Optional[Catalog] = None


def default_catalog() -> Catalog:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = Catalog.load()
    return _DEFAULT
