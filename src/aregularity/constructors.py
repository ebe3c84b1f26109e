"""Named constructors for the subalgebra embeddings of the catalog rows.

Every constructor returns matrices in the ambient matrix space together
with the known center / simple-ideal split and, for symmetric embeddings,
the involution whose fixed-point set is the subalgebra.  All results are
validated by ``Embedding`` (bracket closure, involution axioms), so a
wrong construction fails loudly at build time.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .exact_linalg import Subspace, combine, left_kernel, rref
from .lie_core import (
    LieAlgebra,
    SimpleFactorDescriptor,
    SparseMatrix,
    _factor_data,
    build_algebra,
)
from .subalgebras import Embedding, IdealDecomposition, InvalidSubalgebraError


@dataclass
class _Blueprint:
    """Constructor output before coordinatization."""

    matrices: list[SparseMatrix] = field(default_factory=list)
    center: list[SparseMatrix] = field(default_factory=list)
    ideal_groups: list[list[SparseMatrix]] = field(default_factory=list)
    # involution spec: ("neg_transpose",), ("conj", S_dense), ("swap",),
    # or None when the embedding is not symmetric
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
    (a, 2*amb_rank-1-a) the subblock occupies.
    """
    if len(pair_indices) != k:
        raise ValueError("pair count does not match subblock rank")
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


def _so_standard_basis(k: int) -> list[SparseMatrix]:
    return _factor_data(_so_descriptor(k)).basis


def _so_descriptor(k: int) -> SimpleFactorDescriptor:
    if k % 2:
        return SimpleFactorDescriptor("B", k // 2)
    return SimpleFactorDescriptor("D", k // 2)


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
    for mat in _so_standard_basis(k):
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


def _orthogonal_split(m: int, p: int, q: int) -> tuple[list, list]:
    """J-orthogonal splitting of C^m into subspaces of dimensions p, q."""
    if p + q != m or p < 1 or q < 1:
        raise ValueError("invalid so block sizes")
    n_pairs = m // 2
    k1, k2 = p // 2, q // 2

    def e(a):
        vec = [Fraction(0)] * m
        vec[a] = Fraction(1)
        return vec

    v1, v2 = [], []
    for a in range(k1):
        v1.append(e(a))
        v1.append(e(m - 1 - a))
    for a in range(k1, k1 + k2):
        v2.append(e(a))
        v2.append(e(m - 1 - a))
    if p % 2 and q % 2:
        a0 = n_pairs - 1
        plus = e(a0)
        plus[m - 1 - a0] = Fraction(1, 2)
        minus = e(a0)
        minus[m - 1 - a0] = Fraction(-1, 2)
        v1.append(plus)
        v2.append(minus)
    elif p % 2:
        v1.append(e((m - 1) // 2))
    elif q % 2:
        v2.append(e((m - 1) // 2))
    return v1, v2


def _inverse(s: list[list], what: str) -> list[list[Fraction]]:
    """Inverse of a square matrix, by row reduction of [s | I]."""
    n = len(s)
    rr, piv = rref([list(row) + [Fraction(i == j) for j in range(n)]
                    for i, row in enumerate(s)])
    if piv != list(range(n)):
        raise InvalidSubalgebraError(f"{what} is singular")
    return [row[n:] for row in rr]


def _projector(m: int, v1: list, v2: list) -> list[list[Fraction]]:
    """Projection onto span(v1) along span(v2), as a dense m x m matrix."""
    cols = v1 + v2
    binv = _inverse([[cols[j][i] for j in range(m)] for i in range(m)],
                    "the matrix of splitting vectors")
    out = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            acc = Fraction(0)
            for t in range(len(v1)):
                acc += cols[t][i] * binv[t][j]
            out[i][j] = acc
    return out


def _block_stabilizer_in_factor(ambient: LieAlgebra, fi: int,
                                proj: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis (in global coordinates) of {X in factor fi : [X, proj] = 0}."""
    fd = ambient._factor_data[fi]
    b0, b1 = ambient.factor_basis_slices[fi]
    m = fd.descriptor.matrix_size
    rows = []
    for mat in fd.basis:
        comm = {}
        for (a, b), v in mat.items():
            for c in range(m):
                if proj[b][c]:
                    comm[(a, c)] = comm.get((a, c), 0) + v * proj[b][c]
                if proj[c][a]:
                    comm[(c, b)] = comm.get((c, b), 0) - v * proj[c][a]
        rows.append([comm.get((a, b), 0) for a in range(m) for b in range(m)])
    lam = left_kernel(rows)
    out = []
    for coeffs in lam:
        vec = [Fraction(0)] * ambient.dim
        for li, c in enumerate(coeffs):
            if c:
                vec[b0 + li] = c
        out.append(vec)
    return out


# -- individual constructors ----------------------------------------------------


def _c_levi(ambient: LieAlgebra, blocks: Sequence[int]) -> _Blueprint:
    blocks = list(blocks)
    n = sum(blocks)
    _expect_factors(ambient, [("A", n - 1)], "levi")
    if any(b < 1 for b in blocks) or len(blocks) < 1:
        raise ValueError("levi blocks must be positive")
    bp = _Blueprint()
    off = 0
    for b in blocks:
        if b >= 2:
            group = _sl_block(off, b)
            bp.ideal_groups.append(group)
            bp.matrices.extend(group)
        off += b
    offsets = [sum(blocks[:i]) for i in range(len(blocks))]
    for i in range(len(blocks) - 1):
        z: dict[int, int] = {}
        for t in range(blocks[i]):
            z[offsets[i] + t] = blocks[i + 1]
        for t in range(blocks[i + 1]):
            z[offsets[i + 1] + t] = -blocks[i]
        zmat = _diag(z)
        bp.center.append(zmat)
        bp.matrices.append(zmat)
    return bp


def _c_block_sgl(ambient: LieAlgebra, p: int, q: int) -> _Blueprint:
    bp = _c_levi(ambient, [p, q])
    signs = [1] * p + [-1] * q
    bp.theta = ("conj_signs", signs)
    return bp


def _c_block_ss(ambient: LieAlgebra, p: int, q: int) -> _Blueprint:
    _expect_factors(ambient, [("A", p + q - 1)], "block_ss")
    bp = _Blueprint()
    if p >= 2:
        g1 = _sl_block(0, p)
        bp.ideal_groups.append(g1)
        bp.matrices.extend(g1)
    if q >= 2:
        g2 = _sl_block(p, q)
        bp.ideal_groups.append(g2)
        bp.matrices.extend(g2)
    return bp


def _c_block_one(ambient: LieAlgebra, k: int) -> _Blueprint:
    fam, rank = ambient.factors[0].family, ambient.factors[0].rank
    if fam != "A" or len(ambient.factors) != 1 or k > rank:
        raise InvalidSubalgebraError("block_one needs an ambient sl with room")
    bp = _Blueprint()
    g = _sl_block(0, k)
    bp.ideal_groups.append(g)
    bp.matrices.extend(g)
    return bp


def _c_so_in_sl(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("A", n - 1)], "so_in_sl")
    bp = _Blueprint()
    group = []
    for a in range(n):
        for b in range(a + 1, n):
            group.append({(a, b): 1, (b, a): -1})
    bp.matrices.extend(group)
    if n == 2:
        bp.center = group
    elif n == 4:
        bp.ideal_groups = []  # so(4) splits; computed on demand
    else:
        bp.ideal_groups.append(group)
    bp.theta = ("neg_transpose",)
    return bp


def _c_sp_in_sl(ambient: LieAlgebra, n: int) -> _Blueprint:
    fam = ambient.factors[0]
    if len(ambient.factors) != 1 or fam.family != "A" or \
            fam.matrix_size not in (2 * n, 2 * n + 1):
        raise InvalidSubalgebraError("sp_in_sl needs ambient sl(2n) or sl(2n+1)")
    bp = _Blueprint()
    group = list(_factor_data(SimpleFactorDescriptor("C", n)).basis)
    bp.ideal_groups.append(group)
    bp.matrices.extend(group)
    if fam.matrix_size == 2 * n:
        bp.theta = ("sp_transpose", n)
    return bp


def _c_sp_plus_center(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("A", 2 * n)], "sp_plus_center")
    bp = _c_sp_in_sl(ambient, n)
    z = _diag({i: 1 for i in range(2 * n)} | {2 * n: -2 * n})
    bp.center.append(z)
    bp.matrices.append(z)
    return bp


def _gl_levi(m: int) -> _Blueprint:
    """gl(n), n = m // 2, acting on the first n coordinates of C^m and dually
    on the last n (the antidiagonal forms pair them); symmetric for even m."""
    n = m // 2
    bp = _Blueprint()
    ideal = []
    for a in range(n):
        for b in range(n):
            mat = {(a, b): 1, (m - 1 - b, m - 1 - a): -1}
            bp.matrices.append(mat)
            if a != b:
                ideal.append(mat)
    for a in range(n - 1):
        ideal.append(_merge({(a, a): 1, (m - 1 - a, m - 1 - a): -1},
                            {(a + 1, a + 1): -1, (m - 2 - a, m - 2 - a): 1}))
    z = _diag({a: 1 for a in range(n)} | {m - 1 - a: -1 for a in range(n)})
    bp.center.append(z)
    if n >= 2:
        bp.ideal_groups.append(ideal)
    if m % 2 == 0:
        bp.theta = ("conj_signs", [1] * n + [-1] * n)
    return bp


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
    v1, v2 = _orthogonal_split(m, p, q)
    proj = _projector(m, v1, v2)
    h_vecs = _block_stabilizer_in_factor(ambient, 0, proj)
    expected = p * (p - 1) // 2 + q * (q - 1) // 2
    if len(h_vecs) != expected:
        raise InvalidSubalgebraError("so_block stabilizer has unexpected dimension")
    bp = _Blueprint()
    bp.matrices = [ambient.matrix_of(v) for v in h_vecs]
    s_dense = [[2 * proj[i][j] - (1 if i == j else 0) for j in range(m)]
               for i in range(m)]
    bp.theta = ("conj_dense", s_dense)
    bp.ideal_groups, bp.center = _so_block_pieces(ambient, h_vecs, v1, v2, p, q)
    return bp


def _so_block_pieces(ambient, h_vecs, v1, v2, p, q):
    """Split block-stabilizer vectors into the so(p) and so(q) parts.

    so(2) parts are central; an so(4) part is further split into its two
    sl(2) ideals so that every reported ideal is simple."""
    from .subalgebras import _split_semisimple

    groups, center = [], []
    m = p + q
    for keep, kill, size in ((v1, v2, p), (v2, v1, q)):
        if size < 2:
            continue
        rows = []
        for v in h_vecs:
            mat = ambient.matrix_of(v)
            row = []
            for w in kill:
                img = [Fraction(0)] * m
                for (a, b), val in mat.items():
                    if w[b]:
                        img[a] += val * w[b]
                row.extend(img)
            rows.append(row)
        part_vecs = [combine(lam, h_vecs, ambient.dim) for lam in left_kernel(rows)]
        if size == 2:
            center.extend(ambient.matrix_of(v) for v in part_vecs)
        elif size == 4:
            sub = Subspace.span(part_vecs, ambient.dim)
            for piece in _split_semisimple(ambient, sub):
                groups.append([ambient.matrix_of(v) for v in piece.basis])
        else:
            groups.append([ambient.matrix_of(v) for v in part_vecs])
    return groups, center


def _c_so_diag_pair(ambient: LieAlgebra, n: int) -> _Blueprint:
    m1 = n + 1
    if n < 5:
        raise InvalidSubalgebraError(
            "so_diag_pair needs n >= 5 (so(3) and so(4) factors are not "
            "valid ambient blocks)")
    expected = [(_so_descriptor(m1).family, _so_descriptor(m1).rank),
                (_so_descriptor(n).family, _so_descriptor(n).rank)]
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
    second = [_shift(mat, m1) for mat in _so_standard_basis(n)]
    bp = _Blueprint()
    group = [_merge(a, b) for a, b in zip(first, second)]
    bp.matrices.extend(group)
    bp.ideal_groups.append(group)
    return bp


def _c_sl_gl_pair(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("A", n), ("A", n - 1)], "sl_gl_pair")
    off2 = n + 1
    bp = _Blueprint()
    group = []
    for mat in _sl_block(0, n):
        group.append(_merge(mat, _shift(mat, off2)))
    bp.matrices.extend(group)
    if n >= 2:
        bp.ideal_groups.append(group)
    z = _diag({i: 1 for i in range(n)} | {n: -n})
    bp.center.append(z)
    bp.matrices.append(z)
    return bp


def _c_diagonal(ambient: LieAlgebra, family: str, rank: int) -> _Blueprint:
    desc = SimpleFactorDescriptor(family, rank)
    _expect_factors(ambient, [(family, rank)] * 2, "diagonal")
    size = desc.matrix_size
    bp = _Blueprint()
    group = []
    for mat in _factor_data(desc).basis:
        group.append(_merge(mat, _shift(mat, size)))
    bp.matrices.extend(group)
    bp.ideal_groups.append(group)
    bp.theta = ("swap",)
    return bp


def _c_sp_block(ambient: LieAlgebra, parts: Sequence[int]) -> _Blueprint:
    parts = list(parts)
    n = sum(parts)
    _expect_factors(ambient, [("C", n)], "sp_block")
    if any(k < 1 for k in parts):
        raise ValueError("sp_block parts must be positive")
    bp = _Blueprint()
    start = 0
    for k in parts:
        group = _sp_remap(k, range(start, start + k), n, 0)
        bp.ideal_groups.append(group)
        bp.matrices.extend(group)
        start += k
    if len(parts) == 2:
        signs = [0] * (2 * n)
        for a in range(parts[0]):
            signs[a] = signs[2 * n - 1 - a] = 1
        for a in range(parts[0], n):
            signs[a] = signs[2 * n - 1 - a] = -1
        bp.theta = ("conj_signs", signs)
    return bp


def _c_sp_sub_center(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", n)], "sp_sub_center")
    if n < 2:
        raise ValueError("sp_sub_center needs n >= 2")
    bp = _Blueprint()
    group = _sp_remap(n - 1, range(1, n), n, 0)
    bp.ideal_groups.append(group)
    bp.matrices.extend(group)
    z = _diag({0: 1, 2 * n - 1: -1})
    bp.center.append(z)
    bp.matrices.append(z)
    return bp


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


def _c_sp_diag2(ambient: LieAlgebra, m: int, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", m), ("C", n)], "sp_diag2")
    bp = _Blueprint()
    off2 = ambient.factor_matrix_offsets[1]
    if m >= 2:
        g = _sp_remap(m - 1, range(m - 1), m, 0)
        bp.ideal_groups.append(g)
        bp.matrices.extend(g)
    if n >= 2:
        g = _sp_remap(n - 1, range(n - 1), n, off2)
        bp.ideal_groups.append(g)
        bp.matrices.extend(g)
    glued = _glued_sp(ambient, 1, [(0, [m - 1]), (1, [n - 1])])
    bp.ideal_groups.append(glued)
    bp.matrices.extend(glued)
    return bp


def _c_sp4_diag(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", n), ("C", 2)], "sp4_diag")
    if n < 3:
        raise ValueError("sp4_diag needs n >= 3")
    bp = _Blueprint()
    if n >= 3:
        g = _sp_remap(n - 2, range(n - 2), n, 0)
        if g:
            bp.ideal_groups.append(g)
            bp.matrices.extend(g)
    glued = _glued_sp(ambient, 2, [(0, [n - 2, n - 1]), (1, [0, 1])])
    bp.ideal_groups.append(glued)
    bp.matrices.extend(glued)
    return bp


def _c_sp_diag3(ambient: LieAlgebra, l: int, m: int, n: int) -> _Blueprint:
    _expect_factors(ambient, [("C", l), ("C", m), ("C", n)], "sp_diag3")
    bp = _Blueprint()
    for fi, k in enumerate((l, m, n)):
        if k >= 2:
            off = ambient.factor_matrix_offsets[fi]
            g = _sp_remap(k - 1, range(k - 1), k, off)
            bp.ideal_groups.append(g)
            bp.matrices.extend(g)
    glued = _glued_sp(ambient, 1, [(0, [l - 1]), (1, [m - 1]), (2, [n - 1])])
    bp.ideal_groups.append(glued)
    bp.matrices.extend(glued)
    return bp


def _c_sp_chain4(ambient: LieAlgebra, n: int, m: int) -> _Blueprint:
    _expect_factors(ambient, [("C", n), ("C", 2), ("C", m)], "sp_chain4")
    bp = _Blueprint()
    if n >= 2:
        g = _sp_remap(n - 1, range(n - 1), n, 0)
        bp.ideal_groups.append(g)
        bp.matrices.extend(g)
    if m >= 2:
        off3 = ambient.factor_matrix_offsets[2]
        g = _sp_remap(m - 1, range(m - 1), m, off3)
        bp.ideal_groups.append(g)
        bp.matrices.extend(g)
    glue_a = _glued_sp(ambient, 1, [(0, [n - 1]), (1, [0])])
    glue_b = _glued_sp(ambient, 1, [(1, [1]), (2, [m - 1])])
    bp.ideal_groups.extend([glue_a, glue_b])
    bp.matrices.extend(glue_a + glue_b)
    return bp


def _c_sl_sp_glue(ambient: LieAlgebra, n: int, m: int,
                  with_center: bool = True) -> _Blueprint:
    _expect_factors(ambient, [("A", n - 1), ("C", m)], "sl_sp_glue")
    if n < 3:
        raise ValueError("sl_sp_glue needs n >= 3")
    bp = _Blueprint()
    if n - 2 >= 2:
        g = _sl_block(0, n - 2)
        bp.ideal_groups.append(g)
        bp.matrices.extend(g)
    if with_center:
        z = _diag({i: 2 for i in range(n - 2)} | {n - 2: -(n - 2), n - 1: -(n - 2)})
        bp.center.append(z)
        bp.matrices.append(z)
    off2 = ambient.factor_matrix_offsets[1]
    # diagonal sl(2) = sp(2): block rows n-2, n-1 of sl(n) glued with the
    # first symplectic pair of sp(2m); basis order (h, e, f) on both sides
    sl2 = [
        {(n - 2, n - 2): 1, (n - 1, n - 1): -1},
        {(n - 2, n - 1): 1},
        {(n - 1, n - 2): 1},
    ]
    sp2 = _sp_remap(1, [0], m, off2)
    glued = [_merge(a, b) for a, b in zip(sl2, sp2)]
    bp.ideal_groups.append(glued)
    bp.matrices.extend(glued)
    if m >= 2:
        g = _sp_remap(m - 1, range(1, m), m, off2)
        bp.ideal_groups.append(g)
        bp.matrices.extend(g)
    return bp


def _c_chain_image(ambient: LieAlgebra, n: int) -> _Blueprint:
    _expect_factors(ambient, [("A", n), ("A", 1)], "chain_image")
    if n < 2:
        raise ValueError("chain_image needs n >= 2")
    off2 = n + 1
    bp = _Blueprint()
    group = _sl_block(0, n)
    bp.ideal_groups.append(group)
    bp.matrices.extend(group)
    t = _merge(_diag({i: 1 for i in range(n)} | {n: -n}),
               {(off2, off2): 1, (off2 + 1, off2 + 1): -1})
    bp.center.append(t)
    bp.matrices.append(t)
    return bp


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


def _theta_cols_from_spec(ambient: LieAlgebra, spec: tuple) -> list:
    kind = spec[0]
    L = ambient
    n = L.matrix_size
    if kind == "swap":
        size = L.factors[0].matrix_size
        d = L.factor_basis_slices[0][1]
        cols = []
        for j in range(L.dim):
            img = [0] * L.dim
            img[j + d if j < d else j - d] = 1
            cols.append(img)
        return cols
    if kind == "neg_transpose":
        cols = []
        for j in range(L.dim):
            mat = {(b, a): -v for (a, b), v in L.basis[j].items()}
            coords = L.coords_of_matrix(mat)
            if coords is None:
                raise InvalidSubalgebraError("negative transpose leaves the algebra")
            cols.append(coords)
        return cols
    if kind == "conj_signs":
        signs = spec[1]
        cols = []
        for j in range(L.dim):
            mat = {(a, b): signs[a] * signs[b] * v for (a, b), v in L.basis[j].items()}
            coords = L.coords_of_matrix(mat)
            if coords is None:
                raise InvalidSubalgebraError("sign conjugation leaves the algebra")
            cols.append(coords)
        return cols
    if kind == "sp_transpose":
        # X -> Omega X^T Omega with the antidiagonal symplectic form
        k = spec[1]
        m = 2 * k

        def eps(a):
            return 1 if a < k else -1

        cols = []
        for j in range(L.dim):
            mat: SparseMatrix = {}
            for (a, b), v in L.basis[j].items():
                # (Omega X^T Omega)[i][l] = eps(i) eps(l') X[l'][i'] with
                # i' = m-1-i; expand directly
                i2, l2 = m - 1 - b, m - 1 - a
                mat[(i2, l2)] = mat.get((i2, l2), 0) + eps(i2) * eps(a) * v
            coords = L.coords_of_matrix(mat)
            if coords is None:
                raise InvalidSubalgebraError("symplectic transpose leaves the algebra")
            cols.append(coords)
        return cols
    if kind == "conj_dense":
        s = spec[1]
        msize = len(s)
        sinv = _inverse(s, "the conjugating matrix")
        cols = []
        for j in range(L.dim):
            mat: SparseMatrix = {}
            for (a, b), v in L.basis[j].items():
                for i in range(msize):
                    if s[i][a]:
                        for l in range(msize):
                            if sinv[b][l]:
                                nv = mat.get((i, l), 0) + s[i][a] * v * sinv[b][l]
                                if nv:
                                    mat[(i, l)] = nv
                                else:
                                    mat.pop((i, l), None)
            coords = L.coords_of_matrix(mat)
            if coords is None:
                raise InvalidSubalgebraError("conjugation leaves the algebra")
            cols.append(coords)
        return cols
    raise ValueError(f"unknown involution spec {kind}")


def _coords_list(ambient: LieAlgebra, mats: list[SparseMatrix]) -> list:
    out = []
    for mat in mats:
        coords = ambient.coords_of_matrix(mat)
        if coords is None:
            raise InvalidSubalgebraError("constructed matrix lies outside the algebra")
        out.append(coords)
    return out


def embed(ambient: LieAlgebra, constructor: str, params: Optional[dict] = None) -> Embedding:
    """Build a validated embedding from a named constructor.

    Named constructors' parameters are checked against their signatures
    (names and JSON types) before the constructor runs.  ``custom`` takes {"matrices": [...dense rows...], "involution": spec?};
    ``direct_sum`` takes {"parts": [{"constructor", "params", "factors"}]},
    the parts consuming the ambient simple factors in order.
    """
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
    vectors = _coords_list(ambient, bp.matrices)
    h = Subspace.span(vectors, ambient.dim)
    if h.dim != len(vectors):
        raise InvalidSubalgebraError(
            f"constructor {constructor} produced a dependent spanning set")
    theta_cols = _theta_cols_from_spec(ambient, bp.theta) if bp.theta else None
    ideals = None
    if bp.center or bp.ideal_groups:
        center = Subspace.span(_coords_list(ambient, bp.center), ambient.dim)
        groups = tuple(Subspace.span(_coords_list(ambient, g), ambient.dim)
                       for g in bp.ideal_groups)
        if center.dim + sum(g.dim for g in groups) == h.dim:
            ideals = IdealDecomposition(center, groups)
    return Embedding(ambient, h, constructor=(constructor, params),
                     theta_cols=theta_cols, ideal_decomposition=ideals)


def _embed_custom(ambient: LieAlgebra, params: dict) -> Embedding:
    mats = params.get("matrices", [])
    sparse = []
    for rows in mats:
        mat: SparseMatrix = {}
        for a, row in enumerate(rows):
            for b, v in enumerate(row):
                fv = Fraction(v) if not isinstance(v, (int, Fraction)) else v
                if fv:
                    mat[(a, b)] = fv
        sparse.append(mat)
    vectors = _coords_list(ambient, sparse)
    h = Subspace.span(vectors, ambient.dim)
    if h.dim != len(vectors):
        raise InvalidSubalgebraError("custom matrices are linearly dependent")
    theta_spec = params.get("involution")
    theta_cols = None
    if theta_spec is not None:
        if isinstance(theta_spec, dict):
            kind = theta_spec.get("kind")
            if kind == "neg_transpose":
                theta_cols = _theta_cols_from_spec(ambient, ("neg_transpose",))
            elif kind == "swap":
                theta_cols = _theta_cols_from_spec(ambient, ("swap",))
            elif kind == "conjugation":
                s = [[Fraction(x) for x in row] for row in theta_spec["matrix"]]
                theta_cols = _theta_cols_from_spec(ambient, ("conj_dense", s))
            else:
                raise ValueError(f"unknown involution kind {kind!r}")
        else:
            raise ValueError("involution must be a spec object")
    return Embedding(ambient, h, constructor=("custom", {}), theta_cols=theta_cols)


def _embed_direct_sum(ambient: LieAlgebra, params: dict) -> Embedding:
    parts = params.get("parts")
    if not isinstance(parts, list):
        raise InvalidSubalgebraError("direct_sum needs a list 'parts'")
    consumed = 0
    vectors: list = []
    centers: list = []
    groups: list = []
    theta_blocks: list = []
    all_theta = True
    for part in parts:
        nf = part["factors"]
        sub_factors = ambient.factors[consumed:consumed + nf]
        if len(sub_factors) != nf:
            raise InvalidSubalgebraError("direct_sum parts exceed ambient factors")
        sub = build_algebra(sub_factors)
        sub_emb = embed(sub, part["constructor"], part.get("params"))
        b_off = ambient.factor_basis_slices[consumed][0]

        def lift(vec, off=b_off, sub_dim=sub.dim):
            out = [Fraction(0)] * ambient.dim
            for j in range(sub_dim):
                if vec[j]:
                    out[off + j] = Fraction(vec[j])
            return out

        vectors.extend(lift(v) for v in sub_emb.h_basis.basis)
        if sub_emb._ideals is not None:
            centers.extend(lift(v) for v in sub_emb._ideals.center.basis)
            for g in sub_emb._ideals.simple_ideals:
                groups.append([lift(v) for v in g.basis])
        if sub_emb.theta_cols is None:
            all_theta = False
        else:
            theta_blocks.append((b_off, sub.dim, sub_emb.theta_cols))
        consumed += nf
    if consumed != len(ambient.factors):
        raise InvalidSubalgebraError("direct_sum parts do not cover the ambient factors")
    h = Subspace.span(vectors, ambient.dim)
    theta_cols = None
    if all_theta and theta_blocks:
        theta_cols = []
        for j in range(ambient.dim):
            col = [0] * ambient.dim
            for off, sdim, cols in theta_blocks:
                if off <= j < off + sdim:
                    for i, v in enumerate(cols[j - off]):
                        if v:
                            col[off + i] = v
                    break
            else:
                col[j] = 1
            theta_cols.append(col)
    ideals = None
    if centers or groups:
        center = Subspace.span(centers, ambient.dim)
        gs = tuple(Subspace.span(g, ambient.dim) for g in groups)
        if center.dim + sum(g.dim for g in gs) == h.dim:
            ideals = IdealDecomposition(center, gs)
    return Embedding(ambient, h, constructor=("direct_sum", params),
                     theta_cols=theta_cols, ideal_decomposition=ideals)
