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
Row expressions are parsed once at load time into closures over a small
arithmetic grammar; the data file is never evaluated as code.

Pattern matching is structural (type lists plus constructor identity); it
does not see outer automorphisms, so conjugacy classes that differ only by
one (e.g. triality twists) match the same row.  Ambiguity between rows
with conflicting verdicts raises instead of guessing.
"""

from __future__ import annotations

import ast
import hashlib
import json
import operator
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .lie_core import (
    SimpleFactorDescriptor,
    UnsupportedTypeError,
    build_algebra,
    classical_factor,
)
from .subalgebras import Embedding, GenericityError, InvalidSubalgebraError, embed
from .criteria import DecisionConfig, Verdict, decide


class CatalogChecksumError(RuntimeError):
    """The data file does not match its embedded checksum."""


class CatalogFormatError(ValueError):
    """A row expression or constraint is outside the catalog grammar."""


class AmbiguousMatchError(LookupError):
    """Several catalog rows with conflicting verdicts match the query."""

    def __init__(self, candidates):
        self.candidates = candidates
        super().__init__(
            "ambiguous catalog match: " + ", ".join(r.row_id for r in candidates))


_TABLE_IDS = ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
              "T5_not_regular")

_PARAM_MAX = 40


# the kinds a g entry may name; an h entry may also be gl(n) or a centre C
_G_KINDS = ("sl", "so", "sp", "e", "f", "g")


def _patterns(kinds: tuple):
    def ok(v) -> bool:
        return isinstance(v, list) and (all(x == ["simple"] for x in v) or all(
            isinstance(x, list) and len(x) == 2 and x[0] in kinds
            and type(x[1]) in (int, str) for x in v))
    return ok


# row field -> (check of its JSON value, the shape named in the error)
_STRING = (lambda v: type(v) is str, "a string")
_ROW_SHAPES = {
    "table": _STRING, "line": _STRING, "display": _STRING, "notes": _STRING,
    "params": (lambda v: isinstance(v, list) and all(type(x) is str for x in v),
               "a list of strings"),
    "g": (_patterns(_G_KINDS),
          'a list of [kind, size] with kind sl, so, sp, e, f or g, or of ["simple"]'),
    "h": (_patterns(_G_KINDS + ("gl", "C")),
          'a list of [kind, size] with kind sl, so, sp, gl, C, e, f or g, '
          'or of ["simple"] when g is'),
    "constraints": (lambda v: isinstance(v, list), "a list"),
    "verdict": (lambda v: v is None or type(v) is bool, "true, false or null"),
    "informational": (lambda v: type(v) is bool, "true or false"),
    "constructor": (lambda v: v is None or (isinstance(v, list) and len(v) == 2
                                           and type(v[0]) is str and isinstance(v[1], dict)),
                    "null or [name, object]"),
}

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Lt: operator.lt, ast.LtE: operator.le, ast.Gt: operator.gt,
        ast.GtE: operator.ge, ast.Eq: operator.eq}


def _expression(expr, names: set):
    """Parse one catalog expression into a closure params -> value.

    Allowed: integer literals, the row's parameter names, + - *, a single
    comparison < <= > >= ==, and ``and`` / ``or``.  Anything else raises
    CatalogFormatError at load time; nothing from the file is evaluated."""
    if type(expr) is int:
        return lambda p: expr
    try:
        return _closure(ast.parse(expr, mode="eval").body, names)
    except (SyntaxError, TypeError, ValueError) as exc:
        raise CatalogFormatError(
            f"catalog expression {expr!r} is not allowed: {exc}") from None


def _closure(node, names: set):
    if isinstance(node, ast.Constant) and type(node.value) is int:
        value = node.value
        return lambda p: value
    if isinstance(node, ast.Name) and node.id in names:
        name = node.id
        return lambda p: p[name]
    if isinstance(node, ast.BoolOp):
        fns = [_closure(v, names) for v in node.values]
        if isinstance(node.op, ast.And):
            return lambda p: all(f(p) for f in fns)
        return lambda p: any(f(p) for f in fns)
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        node = ast.BinOp(node.left, node.ops[0], node.comparators[0])
    if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
        fn = _OPS[type(node.op)]
        a, b = _closure(node.left, names), _closure(node.right, names)
        return lambda p: fn(a(p), b(p))
    raise CatalogFormatError(f"{type(node).__name__} "
                             f"{getattr(node, 'id', '')}".rstrip())


@dataclass(frozen=True)
class CatalogRow:
    """One table row.  Sizes, constraints and constructor arguments are
    closures over the parameter dict, parsed by ``Catalog.from_document``."""

    table_id: str
    line: str
    display: str
    g_pattern: tuple
    h_pattern: tuple
    params: tuple[str, ...]
    constraints: tuple
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
        descs = self.ambient_descriptors(params)
        return None if descs is None else sum(d.rank for d in descs)

    def ambient_descriptors(self, params: dict) -> Optional[list[SimpleFactorDescriptor]]:
        if self.is_diagonal_row():
            try:
                d = SimpleFactorDescriptor(params["family"], int(params["rank"]))
            except (ValueError, UnsupportedTypeError):
                return None
            return [d, d]
        out = [classical_factor(kind, size(params)) for kind, size in self.g_pattern]
        return None if None in out else out

    def constructor_call(self, params: dict) -> Optional[tuple[str, dict]]:
        if self.constructor is None:
            return None
        name, templates = self.constructor
        return name, {key: t if isinstance(t, bool)
                      else [f(params) for f in t] if isinstance(t, list)
                      else t(params)
                      for key, t in templates.items()}


class Catalog:
    def __init__(self, rows: list[CatalogRow]):
        self.rows = rows

    @classmethod
    def from_document(cls, doc: dict) -> "Catalog":
        if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
            raise CatalogFormatError("catalog must be an object with a list 'rows'")
        payload = json.dumps(doc["rows"], sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(payload.encode()).hexdigest()
        if digest != doc.get("sha256"):
            raise CatalogChecksumError(
                f"catalog checksum mismatch: rows hash to {digest}, "
                f"file claims {doc.get('sha256')}")
        rows = []
        for i, r in enumerate(doc["rows"]):
            for key, (ok, shape) in _ROW_SHAPES.items():
                if not isinstance(r, dict) or key not in r or not ok(r[key]):
                    raise CatalogFormatError(f"catalog rows[{i}].{key} must be {shape}")
            if r["h"][:1] == [["simple"]] and r["g"][:1] != [["simple"]]:
                raise CatalogFormatError(f"catalog rows[{i}].h must be {_ROW_SHAPES['h'][1]}")
            names = set(r["params"])

            def parse(x):
                return _expression(x, names)

            def arg(v):
                if isinstance(v, list):
                    return [parse(t) for t in v]
                return v if isinstance(v, bool) else parse(v)

            rows.append(CatalogRow(
                table_id=r["table"],
                line=r["line"],
                display=r["display"],
                g_pattern=tuple((x[0], *map(parse, x[1:])) for x in r["g"]),
                h_pattern=tuple((x[0], *map(parse, x[1:])) for x in r["h"]),
                params=tuple(r["params"]),
                constraints=tuple(map(parse, r["constraints"])),
                verdict=r["verdict"],
                informational=r["informational"],
                constructor=(r["constructor"][0], {
                    k: arg(v) for k, v in r["constructor"][1].items()})
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
                    r = row.ambient_rank(params)
                    if r is not None and r <= max_rank:
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
                if all(c(acc) for c in row.constraints):
                    r = row.ambient_rank(acc)
                    if r is not None and r <= max_rank:
                        yield dict(acc)
                return
            for v in range(1, cap):
                acc[names[i]] = v
                yield from rec(i + 1, acc)
            acc.pop(names[i], None)

        yield from rec(0, {})

    def enumerate(self, table_id: str, max_rank: int) -> list[tuple[CatalogRow, dict]]:
        """All parameter instantiations with a classical ambient of rank
        <= max_rank; exceptional rows have no ambient here and never appear."""
        if max_rank > 8:
            raise ValueError("max_rank is capped at 8 for the desk-scale sweep")
        out = []
        for row in self.table(table_id):
            for params in self._param_assignments(row, max_rank):
                out.append((row, params))
        return out

    # -- lookup ---------------------------------------------------------------

    def lookup(self, e: Embedding) -> Optional[tuple[CatalogRow, dict]]:
        """Structural match of an embedding against the table rows.

        Constructor-built embeddings match on constructor identity; custom
        embeddings match on the (ambient types, subalgebra ideal types)
        signature.  A miss returns None (informative on its own: for a
        simple ambient algebra with trivial essential subalgebra the pair
        is automatically a-regular).  Conflicting-verdict multi-matches
        raise AmbiguousMatchError.  The answer is cached on ``e``, once per
        catalog."""
        key = ("catalog_lookup", self)
        if key in e._cache:
            return e._cache[key]
        named = e.constructor[0] if e.constructor is not None and \
            e.constructor[0] != "custom" else None
        matches: list[tuple[CatalogRow, dict]] = []
        for row in self.rows:
            # a named embedding matches only rows built by its constructor
            if named is not None and (row.constructor is None
                                      or row.constructor[0] != named):
                continue
            for params in self._param_assignments(row, e.ambient.rank):
                if self._row_matches(row, params, e):
                    matches.append((row, params))
                    break
        verdicts = {m[0].verdict for m in matches if m[0].verdict is not None}
        if len(verdicts) > 1:
            raise AmbiguousMatchError([m[0] for m in matches])
        hit = next((m for m in matches if m[0].verdict is not None),
                   matches[0] if matches else None)
        e._cache[key] = hit
        return hit

    def _row_matches(self, row: CatalogRow, params: dict, e: Embedding) -> bool:
        descs = row.ambient_descriptors(params)
        if descs is None or tuple(descs) != tuple(e.ambient.factors):
            return False
        if e.constructor is not None and e.constructor[0] != "custom":
            # ``lookup`` passes only rows built by e's constructor
            name, args = e.constructor
            call = row.constructor_call(params)
            return _normalize_args(name, args) == _normalize_args(name, call[1])
        # custom embedding: compare ideal-type signatures by dimension
        want_center = 0
        want_simple_dims: list[int] = []
        if row.is_diagonal_row():
            d = SimpleFactorDescriptor(params["family"], int(params["rank"]))
            want_simple_dims = [d.dim]
        else:
            for kind, size_fn in row.h_pattern:
                size = size_fn(params)
                if kind in ("e", "f", "g"):
                    return False
                if kind == "C":
                    want_center += size
                elif kind == "so" and size == 2:
                    want_center += 1
                elif kind == "so" and size == 4:
                    want_simple_dims.extend([3, 3])
                else:
                    if kind == "gl" and size >= 1:
                        want_center += 1
                    d = classical_factor("sl" if kind == "gl" else kind, size)
                    if d is not None:
                        want_simple_dims.append(d.dim)
        if want_center + sum(want_simple_dims) != e.dim_h:
            return False
        # splitting a large subalgebra is expensive; identify only small ones
        if e.dim_h > _STRUCTURAL_MATCH_BOUND:
            return False
        try:
            dec = e.ideal_decomposition
        except (InvalidSubalgebraError, GenericityError):
            return False
        return dec.center.dim == want_center and \
            sorted(p.dim for p in dec.simple_ideals) == sorted(want_simple_dims)


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
