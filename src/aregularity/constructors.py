"""Named constructors for the subalgebra embeddings of the catalog rows.

A named constructor returns either the matrices of h in the ambient matrix
space or, for a symmetric pair, only the spec of the involution theta, whose
fixed algebra is h; never both.  ``custom`` input always spans h by its own
matrices.  Nothing else is declared: the center / simple-ideal split of h is
derived from h (``Embedding.ideal_decomposition``).  All results are
validated by ``Embedding``, so a wrong construction fails loudly at build
time.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exact_linalg import Subspace
from .lie_core import (
    LieAlgebra,
    SimpleFactorDescriptor,
    SparseMatrix,
    _factor_data,
    build_algebra,
    classical_factor,
)
from .subalgebras import Embedding, InvalidSubalgebraError


@dataclass
class _Blueprint:
    """Constructor output before coordinatization: either the matrices
    spanning h, or the involution spec of a symmetric pair, whose fixed
    algebra is h.  A named constructor sets exactly one of the two.

    Specs are those of ``subalgebras._theta_cols_from_spec``."""

    matrices: list[SparseMatrix] = field(default_factory=list)
    theta: Optional[tuple] = None


def _expect_factors(ambient: LieAlgebra, expected: list[tuple[str, int]],
                    name: str) -> None:
    actual = [(f.family, f.rank) for f in ambient.factors]
    if actual != expected or ambient.center_dim != 0:
        raise InvalidSubalgebraError(
            f"constructor {name} needs ambient {expected}, got {actual} "
            f"with center {ambient.center_dim}")


def _sl_block(off: int, size: int) -> list[SparseMatrix]:
    mats: list[SparseMatrix] = []
    for i in range(size - 1):
        mats.append({(off + i, off + i): 1, (off + i + 1, off + i + 1): -1})
    for a in range(size):
        for b in range(size):
            if a != b:
                mats.append({(off + a, off + b): 1})
    return mats


def _diag(entries: dict[int, int]) -> SparseMatrix:
    return {(i, i): v for i, v in entries.items() if v}


def _shift(mat: SparseMatrix, off: int) -> SparseMatrix:
    return {(a + off, b + off): v for (a, b), v in mat.items()}


def _merge(*mats: SparseMatrix) -> SparseMatrix:
    out: SparseMatrix = {}
    for m in mats:
        for pos, v in m.items():
            nv = out.get(pos, 0) + v
            if nv:
                out[pos] = nv
            else:
                out.pop(pos, None)
    return out


def _sp_remap(k: int, pair_indices: Sequence[int], amb_rank: int,
              off: int) -> list[SparseMatrix]:
    """Standard sp(2k) basis mapped onto the chosen symplectic pairs of an
    ambient sp(2*amb_rank) block starting at matrix offset ``off``.

    ``pair_indices`` lists the first coordinates a < amb_rank of the pairs
    (a, 2*amb_rank-1-a) the subblock occupies; k = 0 gives no matrices.
    """
    if len(pair_indices) != k:
        raise ValueError("pair count does not match subblock rank")
    if k == 0:
        return []
    m_amb = 2 * amb_rank
    iota = {}
    for u, a in enumerate(pair_indices):
        if not 0 <= a < amb_rank:
            raise ValueError("pair index out of range")
        iota[u] = a
        iota[2 * k - 1 - u] = m_amb - 1 - a
    fd = _factor_data(SimpleFactorDescriptor("C", k))
    out = []
    for mat in fd.basis:
        out.append({(iota[a] + off, iota[b] + off): v for (a, b), v in mat.items()})
    return out


def _so_in_subspace(m: int, W: list[list[Fraction]], k: int,
                    off: int) -> list[SparseMatrix]:
    """Standard so(k) acting on the span of W inside an so(m) block.

    W must be a k-tuple of vectors whose Gram matrix under the antidiagonal
    form of so(m) is exactly the standard antidiagonal form of so(k)."""
    for u in range(k):
        for v in range(k):
            gram = sum(W[u][a] * W[v][m - 1 - a] for a in range(m))
            if gram != (1 if u + v == k - 1 else 0):
                raise InvalidSubalgebraError("subspace Gram matrix is not standard")
    out = []
    for mat in _factor_data(classical_factor("so", k)).basis:
        amb: SparseMatrix = {}
        for (u, v), val in mat.items():
            # val * w_u otimes J(w_{k-1-v}, .)
            wd = W[k - 1 - v]
            for r in range(m):
                if W[u][r]:
                    for c in range(m):
                        phi = wd[m - 1 - c]
                        if phi:
                            nv = amb.get((r + off, c + off), 0) + val * W[u][r] * phi
                            if nv:
                                amb[(r + off, c + off)] = nv
                            else:
                                amb.pop((r + off, c + off), None)
        out.append(amb)
    return out


# -- individual constructors ----------------------------------------------------


def _dense_diag(entries: Sequence[int]) -> list[list[int]]:
    return [[v if i == j else 0 for j in range(len(entries))]
            for i, v in enumerate(entries)]


def _c_levi(ambient: LieAlgebra, blocks: Sequence[int]) -> _Blueprint:
    blocks = list(blocks)
    n = sum(blocks)
    _expect_factors(ambient, [("A", n - 1)], "levi")
    if any(b < 1 for b in blocks) or len(blocks) < 1:
        raise ValueError("levi blocks must be positive")
    offsets = [sum(blocks[:i]) for i in range(len(blocks))]
    mats = [m for off, b in zip(offsets, blocks) for m in _sl_block(off, b)]
    for i in range(len(blocks) - 1):
        mats.append(_diag({offsets[i] + t: blocks[i + 1] for t in range(blocks[i])}
                          | {offsets[i + 1] + t: -blocks[i]
                             for t in range(blocks[i + 1])}))
    return _Blueprint(mats)


def _c_block_sgl(ambient: LieAlgebra, p: int, q: int) -> _Blueprint:
    _expect_factors(ambient, [("A", p + q - 1)], "block_sgl")
    if p < 1 or q < 1:
        raise ValueError("block_sgl blocks must be positive")
    return _Blueprint(theta=("conj", _dense_diag([1] * p + [-1] * q)))


def _c_block_ss(ambient: LieAlgebra, p: int, q: int) -> _Blueprint:
    _expect_factors(ambient, [("A", p + q - 1)], "block_ss")
    return _Blueprint(_sl_block(0, p) + _sl_block(p, q))


def _c_block_one(ambient: LieAlgebra, k: int) -> _Blueprint:
    fam, rank = ambient.factors[0].family, ambient.factors[0].rank
    if fam != "A" or len(ambient.factors) != 1 or k > rank:
        raise InvalidSubalgebraError("block_one needs an ambient sl with room")
    return _Blueprint(_sl_block(0, k))


def _c_so_in_sl(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("A", n - 1)], "so_in_sl")
    return _Blueprint(theta=("neg_transpose", _dense_diag([1] * n)))


def _c_sp_in_sl(ambient: LieAlgebra, n: int) -> _Blueprint:
    fam = ambient.factors[0]
    if len(ambient.factors) != 1 or fam.family != "A" or \
            fam.matrix_size not in (2 * n, 2 * n + 1):
        raise InvalidSubalgebraError("sp_in_sl needs ambient sl(2n) or sl(2n+1)")
    if fam.matrix_size == 2 * n:
        # Omega is the antidiagonal symplectic form of sp(2n): -Omega X^T Omega^-1
        omega = [[(1 if i < n else -1) if i + j == 2 * n - 1 else 0
                  for j in range(2 * n)] for i in range(2 * n)]
        return _Blueprint(theta=("neg_transpose", omega))
    return _Blueprint(list(_factor_data(SimpleFactorDescriptor("C", n)).basis))


def _c_sp_plus_center(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("A", 2 * n)], "sp_plus_center")
    bp = _c_sp_in_sl(ambient, n)
    bp.matrices.append(_diag({i: 1 for i in range(2 * n)} | {2 * n: -2 * n}))
    return bp


def _gl_levi(m: int) -> _Blueprint:
    """gl(n), n = m // 2, on the first n coordinates of C^m and dually on the
    last n; for even m, the fixed algebra of conjugation by diag(1^n, (-1)^n)."""
    n = m // 2
    if m % 2 == 0:
        return _Blueprint(theta=("conj", _dense_diag([1] * n + [-1] * n)))
    return _Blueprint([{(a, b): 1, (m - 1 - b, m - 1 - a): -1}
                       for a in range(n) for b in range(n)])


def _c_gl_in_sp(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", n)], "gl_in_sp")
    return _gl_levi(2 * n)


def _c_gl_in_so(ambient: LieAlgebra, m: int) -> _Blueprint:
    fam = ambient.factors[0]
    if len(ambient.factors) != 1 or fam.family not in ("B", "D") or \
            fam.matrix_size != m:
        raise InvalidSubalgebraError("gl_in_so needs ambient so(m)")
    return _gl_levi(m)


def _c_so_block(ambient: LieAlgebra, p: int, q: int) -> _Blueprint:
    fam = ambient.factors[0]
    m = p + q
    if len(ambient.factors) != 1 or fam.family not in ("B", "D") or \
            fam.matrix_size != m:
        raise InvalidSubalgebraError("so_block needs ambient so(p+q)")
    if p < 1 or q < 1:
        raise ValueError("invalid so block sizes")
    # so(p) + so(q) is the fixed algebra of conjugation by the reflection R:
    # +1 on the coordinate pairs (a, m-1-a) with a < k1, -1 on the next k2
    # pairs, and the sign of the odd part on an odd middle coordinate.  For
    # p, q both odd, R is +1 on e_a0 + e_(a0+1)/2 and -1 on e_a0 - e_(a0+1)/2.
    k1, k2 = p // 2, q // 2
    signs = [1] * k1 + [-1] * k2
    middle = {(0, 0): [], (1, 0): [1], (0, 1): [-1], (1, 1): [0, 0]}[p % 2, q % 2]
    reflection = _dense_diag(signs + middle + signs[::-1])
    if p % 2 and q % 2:
        a0 = k1 + k2
        reflection[a0][a0 + 1] = 2
        reflection[a0 + 1][a0] = Fraction(1, 2)
    return _Blueprint(theta=("conj", reflection))


def _c_so_diag_pair(ambient: LieAlgebra, n: int) -> _Blueprint:
    m1 = n + 1
    if n < 5:
        raise InvalidSubalgebraError(
            "so_diag_pair needs n >= 5 (so(3) and so(4) factors are not "
            "valid ambient blocks)")
    so_n = classical_factor("so", n)
    expected = [(d.family, d.rank) for d in (classical_factor("so", m1), so_n)]
    _expect_factors(ambient, expected, "so_diag_pair")
    # subspace of the first factor carrying a standard so(n) form
    if m1 % 2:
        mid = (m1 - 1) // 2
        W = []
        for a in range(m1):
            if a == mid:
                continue
            vec = [Fraction(0)] * m1
            vec[a] = Fraction(1)
            W.append(vec)
    else:
        a0 = m1 // 2 - 1
        W = []
        for a in range(a0):
            vec = [Fraction(0)] * m1
            vec[a] = Fraction(1)
            W.append(vec)
        u = [Fraction(0)] * m1
        u[a0] = Fraction(1)
        u[m1 - 1 - a0] = Fraction(1, 2)
        W.append(u)
        for a in range(m1 - a0, m1):
            vec = [Fraction(0)] * m1
            vec[a] = Fraction(1)
            W.append(vec)
    first = _so_in_subspace(m1, W, n, 0)
    second = [_shift(mat, m1) for mat in _factor_data(so_n).basis]
    return _Blueprint([_merge(a, b) for a, b in zip(first, second)])


def _c_sl_gl_pair(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("A", n), ("A", n - 1)], "sl_gl_pair")
    mats = [_merge(mat, _shift(mat, n + 1)) for mat in _sl_block(0, n)]
    return _Blueprint(mats + [_diag({i: 1 for i in range(n)} | {n: -n})])


def _c_diagonal(ambient: LieAlgebra, family: str, rank: int) -> _Blueprint:
    SimpleFactorDescriptor(family, rank)  # rejects an unknown family or rank
    _expect_factors(ambient, [(family, rank)] * 2, "diagonal")
    return _Blueprint(theta=("swap",))


def _c_sp_block(ambient: LieAlgebra, parts: Sequence[int]) -> _Blueprint:
    parts = list(parts)
    n = sum(parts)
    _expect_factors(ambient, [("C", n)], "sp_block")
    if any(k < 1 for k in parts):
        raise ValueError("sp_block parts must be positive")
    if len(parts) == 2:
        signs = [1] * parts[0] + [-1] * (2 * parts[1]) + [1] * parts[0]
        return _Blueprint(theta=("conj", _dense_diag(signs)))
    starts = [sum(parts[:i]) for i in range(len(parts))]
    return _Blueprint([mat for s, k in zip(starts, parts)
                       for mat in _sp_remap(k, range(s, s + k), n, 0)])


def _c_sp_sub_center(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", n)], "sp_sub_center")
    if n < 2:
        raise ValueError("sp_sub_center needs n >= 2")
    return _Blueprint(_sp_remap(n - 1, range(1, n), n, 0)
                      + [_diag({0: 1, 2 * n - 1: -1})])


def _glued_sp(ambient: LieAlgebra, k: int,
              locations: list[tuple[int, list[int]]]) -> list[SparseMatrix]:
    """sp(2k) embedded diagonally across several factor locations.

    Each location is (factor index, pair indices within that sp factor)."""
    fd = _factor_data(SimpleFactorDescriptor("C", k))
    out = [dict() for _ in fd.basis]
    for fi, pairs in locations:
        off = ambient.factor_matrix_offsets[fi]
        amb_rank = ambient.factors[fi].rank
        mats = _sp_remap(k, pairs, amb_rank, off)
        out = [_merge(a, b) for a, b in zip(out, mats)]
    return out


def _sp_lower(ambient: LieAlgebra, fi: int, k: int) -> list[SparseMatrix]:
    """sp(2k-2) on the first k-1 symplectic pairs of the sp(2k) factor fi."""
    return _sp_remap(k - 1, range(k - 1), k, ambient.factor_matrix_offsets[fi])


def _c_sp_diag2(ambient: LieAlgebra, m: int, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", m), ("C", n)], "sp_diag2")
    glued = _glued_sp(ambient, 1, [(0, [m - 1]), (1, [n - 1])])
    return _Blueprint(_sp_lower(ambient, 0, m) + _sp_lower(ambient, 1, n) + glued)


def _c_sp4_diag(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", n), ("C", 2)], "sp4_diag")
    if n < 3:
        raise ValueError("sp4_diag needs n >= 3")
    glued = _glued_sp(ambient, 2, [(0, [n - 2, n - 1]), (1, [0, 1])])
    return _Blueprint(_sp_remap(n - 2, range(n - 2), n, 0) + glued)


def _c_sp_diag3(ambient: LieAlgebra, l: int, m: int, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", l), ("C", m), ("C", n)], "sp_diag3")
    mats = [x for fi, k in enumerate((l, m, n)) for x in _sp_lower(ambient, fi, k)]
    glued = _glued_sp(ambient, 1, [(0, [l - 1]), (1, [m - 1]), (2, [n - 1])])
    return _Blueprint(mats + glued)


def _c_sp_chain4(ambient: LieAlgebra, n: int, m: int) -> _Blueprint:
    _expect_factors(ambient, [("C", n), ("C", 2), ("C", m)], "sp_chain4")
    glue_a = _glued_sp(ambient, 1, [(0, [n - 1]), (1, [0])])
    glue_b = _glued_sp(ambient, 1, [(1, [1]), (2, [m - 1])])
    return _Blueprint(_sp_lower(ambient, 0, n) + _sp_lower(ambient, 2, m)
                      + glue_a + glue_b)


def _c_sl_sp_glue(ambient: LieAlgebra, n: int, m: int,
                  with_center: bool = True) -> _Blueprint:
    _expect_factors(ambient, [("A", n - 1), ("C", m)], "sl_sp_glue")
    if n < 3:
        raise ValueError("sl_sp_glue needs n >= 3")
    bp = _Blueprint(_sl_block(0, n - 2))
    if with_center:
        bp.matrices.append(_diag({i: 2 for i in range(n - 2)}
                                 | {n - 2: -(n - 2), n - 1: -(n - 2)}))
    off2 = ambient.factor_matrix_offsets[1]
    # diagonal sl(2) = sp(2): block rows n-2, n-1 of sl(n) glued with the
    # first symplectic pair of sp(2m); basis order (h, e, f) on both sides
    sl2 = [
        {(n - 2, n - 2): 1, (n - 1, n - 1): -1},
        {(n - 2, n - 1): 1},
        {(n - 1, n - 2): 1},
    ]
    bp.matrices.extend(_merge(a, b) for a, b in zip(sl2, _sp_remap(1, [0], m, off2)))
    bp.matrices.extend(_sp_remap(m - 1, range(1, m), m, off2))
    return bp


def _c_chain_image(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("A", n), ("A", 1)], "chain_image")
    if n < 2:
        raise ValueError("chain_image needs n >= 2")
    t = _merge(_diag({i: 1 for i in range(n)} | {n: -n}),
               {(n + 1, n + 1): 1, (n + 2, n + 2): -1})
    return _Blueprint(_sl_block(0, n) + [t])


_REGISTRY: dict[str, Callable[..., _Blueprint]] = {
    "block_sgl": _c_block_sgl,
    "levi": _c_levi,
    "block_ss": _c_block_ss,
    "block_one": _c_block_one,
    "so_in_sl": _c_so_in_sl,
    "sp_in_sl": _c_sp_in_sl,
    "sp_plus_center": _c_sp_plus_center,
    "gl_in_sp": _c_gl_in_sp,
    "gl_in_so": _c_gl_in_so,
    "so_block": _c_so_block,
    "so_diag_pair": _c_so_diag_pair,
    "sl_gl_pair": _c_sl_gl_pair,
    "diagonal": _c_diagonal,
    "sp_block": _c_sp_block,
    "sp_sub_center": _c_sp_sub_center,
    "sp_diag2": _c_sp_diag2,
    "sp4_diag": _c_sp4_diag,
    "sp_diag3": _c_sp_diag3,
    "sp_chain4": _c_sp_chain4,
    "sl_sp_glue": _c_sl_sp_glue,
    "chain_image": _c_chain_image,
}

# parameter annotation -> accepted JSON value check
_PARAM_CHECKS = {
    "int": lambda v: type(v) is int,
    "bool": lambda v: type(v) is bool,
    "str": lambda v: type(v) is str,
    "Sequence[int]": lambda v: (isinstance(v, (list, tuple))
                                and all(type(x) is int for x in v)),
}


def constructor_names() -> list[str]:
    return sorted(_REGISTRY) + ["custom", "direct_sum"]


def _embedding(ambient: LieAlgebra, mats: Optional[list[SparseMatrix]],
               theta: Optional[tuple], constructor: tuple[str, dict]) -> Embedding:
    """h is spanned by ``mats``, or is Fix(theta) when ``mats`` is None."""
    if mats is None:
        return Embedding(ambient, None, constructor=constructor, theta=theta)
    vectors = [ambient.coords_of_matrix(mat) for mat in mats]
    if any(v is None for v in vectors):
        raise InvalidSubalgebraError("constructed matrix lies outside the algebra")
    h = Subspace.span(vectors, ambient.dim)
    if h.dim != len(vectors):
        raise InvalidSubalgebraError(
            f"constructor {constructor[0]} produced a dependent spanning set")
    return Embedding(ambient, h, constructor=constructor, theta=theta)


def embed(ambient: LieAlgebra, constructor: str, params: Optional[dict] = None) -> Embedding:
    """Build a validated embedding from a named constructor.

    Named constructors' parameters are checked against their signatures
    (names and JSON types) before the constructor runs.  ``custom`` takes
    {"matrices": [...dense rows...], "involution": spec?};
    ``direct_sum`` takes {"parts": [{"constructor", "params", "factors"}]},
    the parts consuming the ambient simple factors in order.
    """
    if params is not None and not isinstance(params, dict):
        raise InvalidSubalgebraError(f"constructor {constructor}: params must be an object")
    params = dict(params or {})
    if constructor == "custom":
        return _embed_custom(ambient, params)
    if constructor == "direct_sum":
        return _embed_direct_sum(ambient, params)
    fn = _REGISTRY.get(constructor)
    if fn is None:
        raise ValueError(f"unknown constructor {constructor!r}; "
                         f"supported: {', '.join(constructor_names())}")
    sig = inspect.signature(fn)
    try:
        bound = sig.bind(ambient, **params)
    except TypeError as exc:
        raise InvalidSubalgebraError(f"constructor {constructor}: {exc}") from None
    for name, value in list(bound.arguments.items())[1:]:
        if not _PARAM_CHECKS[sig.parameters[name].annotation](value):
            raise InvalidSubalgebraError(
                f"constructor {constructor}: parameter {name!r} has the wrong "
                f"type ({value!r})")
    bp = fn(ambient, **params)
    return _embedding(ambient, None if bp.theta else bp.matrices, bp.theta,
                      (constructor, params))


_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _entry(v, what: str):
    if type(v) is int or isinstance(v, Fraction):
        return v
    if isinstance(v, str) and _ENTRY.fullmatch(v):
        try:
            return Fraction(v)
        except ZeroDivisionError:
            pass
    raise InvalidSubalgebraError(
        f"{what}: entries must be integers or 'p/q' strings, got {v!r}")


def _matrix(rows, what: str) -> list[list]:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidSubalgebraError(f"{what} must be a list of rows")
    return [[_entry(v, what) for v in row] for row in rows]


def _embed_custom(ambient: LieAlgebra, params: dict) -> Embedding:
    mats = params.get("matrices", [])
    if not isinstance(mats, list):
        raise InvalidSubalgebraError("custom.matrices must be a list of matrices")
    n = ambient.matrix_size
    sparse = []
    for k, rows in enumerate(mats):
        dense = _matrix(rows, f"custom.matrices[{k}]")
        if len(dense) != n or any(len(row) != n for row in dense):
            raise InvalidSubalgebraError(f"custom.matrices[{k}] must be {n} x {n}")
        sparse.append({(a, b): v for a, row in enumerate(dense)
                       for b, v in enumerate(row) if v})
    spec = params.get("involution")
    theta = None
    if spec is not None:
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if kind == "neg_transpose":
            theta = ("neg_transpose", _dense_diag([1] * ambient.matrix_size))
        elif kind == "swap":
            theta = ("swap",)
        elif kind == "conjugation":
            theta = ("conj", _matrix(spec.get("matrix"), "involution.matrix"))
        else:
            raise ValueError(f"unknown involution kind {kind!r} (involution must "
                             "be an object with kind neg_transpose, swap or conjugation)")
    return _embedding(ambient, sparse, theta, ("custom", {}))


def _embed_direct_sum(ambient: LieAlgebra, params: dict) -> Embedding:
    parts = params.get("parts")
    if not isinstance(parts, list):
        raise InvalidSubalgebraError("direct_sum needs a list 'parts'")
    consumed = 0
    vectors: list = []
    theta_parts: list = []
    for i, part in enumerate(parts):
        nf = part.get("factors") if isinstance(part, dict) else None
        if type(nf) is not int or nf < 1 or not isinstance(part.get("constructor"), str):
            raise InvalidSubalgebraError(
                f"direct_sum parts[{i}] must be an object with a string "
                "'constructor' and a positive integer 'factors'")
        sub_factors = ambient.factors[consumed:consumed + nf]
        if len(sub_factors) != nf:
            raise InvalidSubalgebraError("direct_sum parts exceed ambient factors")
        sub = build_algebra(sub_factors)
        sub_emb = embed(sub, part["constructor"], part.get("params"))
        b_off = ambient.factor_basis_slices[consumed][0]
        for v in sub_emb.h_basis.basis:
            vec = [0] * ambient.dim
            vec[b_off:b_off + sub.dim] = v
            vectors.append(vec)
        theta_parts.append((consumed, nf, sub_emb.theta))
        consumed += nf
    if consumed != len(ambient.factors):
        raise InvalidSubalgebraError("direct_sum parts do not cover the ambient factors")
    # theta is the block sum of the parts' involutions when every part has one
    theta = None
    if all(spec is not None for _, _, spec in theta_parts):
        theta = ("sum", tuple(theta_parts))
    return Embedding(ambient, Subspace.span(vectors, ambient.dim),
                     constructor=("direct_sum", params), theta=theta)
