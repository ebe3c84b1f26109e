"""Classical reductive Lie algebras in split matrix form.

Conventions (all indices 0-based):

* Family A, rank r: sl(r+1), all traceless (r+1) x (r+1) matrices.  The
  fixed maximal torus is the diagonal; torus basis H_i = E_ii - E_{i+1,i+1}.
* Families B and D: so(m) is defined with respect to the antidiagonal Gram
  matrix J (J[a][b] = 1 iff a + b = m - 1), i.e. X in so(m) iff
  X^T J + J X = 0.  With this choice the diagonal matrices in so(m) form
  the maximal torus.  B requires m = 2r + 1, D requires m = 2r with r >= 3
  (so(2) and so(4) are not simple).  Writing a' = m - 1 - a for the mirror
  index, a spanning set is F_ab = E_ab - E_{b'a'}; the basis keeps one
  representative per mirror orbit, torus part F_aa for a < r.
* Family C: sp(2r) with respect to the antidiagonal symplectic form
  Omega[a][b] = sign(a) * [a + b = 2r - 1] with sign +1 for a < r and -1
  otherwise.  Spanning set G_ab = E_ab - eps_a eps_b E_{b'a'} plus the long
  root vectors E_{a,a'}; torus part G_aa for a < r, again diagonal.

Basis order per simple factor: torus generators first, then one
representative per remaining position orbit in lexicographic order.  A
direct sum concatenates factor bases block-diagonally; central generators
(used only for abstract reductive models of stabilizer algebras) are
appended as extra 1 x 1 diagonal blocks.

The Killing form is computed per factor as a scaled trace form in the
defining representation -- scale 2(r+1) for A_r, m - 2 for so(m), 2r + 2
for C_r -- blockwise on sums and zero on the center.  This agrees with
trace(ad_x ad_y); the property tests check the scales against the
trace-of-ad definition.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Optional, Sequence

from .exact_linalg import (
    RationalMatrix,
    Scalar,
    bareiss_echelon,
    clear_denominators,
)

SparseMatrix = dict[tuple[int, int], Fraction | int]
ElementVector = list[Fraction | int]


class UnsupportedTypeError(ValueError):
    """Exceptional families are not constructed; use the catalog tables."""


_FAMILY_NAMES = {"A": "sl", "B": "so", "C": "sp", "D": "so"}


@dataclass(frozen=True)
class SimpleFactorDescriptor:
    """One classical simple factor, e.g. ('A', 2) for sl(3)."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family in ("E", "F", "G"):
            raise UnsupportedTypeError(
                f"family {self.family} is not constructed; exceptional pairs "
                "are available through the catalog tables only")
        if self.family not in ("A", "B", "C", "D"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.family == "D" and self.rank < 3:
            raise ValueError("family D requires rank >= 3")

    @property
    def matrix_size(self) -> int:
        if self.family == "A":
            return self.rank + 1
        if self.family == "B":
            return 2 * self.rank + 1
        return 2 * self.rank

    @property
    def dim(self) -> int:
        n = self.rank
        if self.family == "A":
            return (n + 1) * (n + 1) - 1
        if self.family in ("B", "C"):
            return n * (2 * n + 1)
        return n * (2 * n - 1)

    @property
    def killing_scale(self) -> int:
        if self.family == "A":
            return 2 * (self.rank + 1)
        if self.family == "C":
            return 2 * self.rank + 2
        return self.matrix_size - 2

    def __str__(self) -> str:
        return f"{_FAMILY_NAMES[self.family]}{self.matrix_size}"


@dataclass
class _FactorData:
    descriptor: SimpleFactorDescriptor
    basis: list[SparseMatrix]
    cartan_local: list[int]
    simple_e_local: list[int]
    simple_f_local: list[int]
    # position -> list of (local basis index, coefficient of that basis
    # element at the position); used for coordinatization and trace pairing
    poslookup: dict[tuple[int, int], list[tuple[int, int]]]


def _factor_data_a(rank: int) -> _FactorData:
    s = rank + 1
    basis: list[SparseMatrix] = []
    poslookup: dict[tuple[int, int], list[tuple[int, int]]] = {}
    cartan = []
    for i in range(rank):
        idx = len(basis)
        basis.append({(i, i): 1, (i + 1, i + 1): -1})
        poslookup.setdefault((i, i), []).append((idx, 1))
        poslookup.setdefault((i + 1, i + 1), []).append((idx, -1))
        cartan.append(idx)
    offidx: dict[tuple[int, int], int] = {}
    for a in range(s):
        for b in range(s):
            if a != b:
                idx = len(basis)
                basis.append({(a, b): 1})
                poslookup.setdefault((a, b), []).append((idx, 1))
                offidx[(a, b)] = idx
    e = [offidx[(i, i + 1)] for i in range(rank)]
    f = [offidx[(i + 1, i)] for i in range(rank)]
    return _FactorData(SimpleFactorDescriptor("A", rank), basis, cartan, e, f, poslookup)


def _factor_data_so(desc: SimpleFactorDescriptor) -> _FactorData:
    m = desc.matrix_size
    n = desc.rank

    def mirror(a: int, b: int) -> tuple[int, int]:
        return (m - 1 - b, m - 1 - a)

    basis: list[SparseMatrix] = []
    poslookup: dict[tuple[int, int], list[tuple[int, int]]] = {}
    posidx: dict[tuple[int, int], int] = {}

    def add_f(a: int, b: int) -> int:
        idx = len(basis)
        mat: SparseMatrix = {(a, b): 1}
        ma, mb = mirror(a, b)
        mat[(ma, mb)] = mat.get((ma, mb), 0) - 1
        basis.append(mat)
        for pos, val in mat.items():
            poslookup.setdefault(pos, []).append((idx, val))
        posidx[(a, b)] = idx
        return idx

    cartan = [add_f(a, a) for a in range(n)]
    for a in range(m):
        for b in range(m):
            if a == b or a + b == m - 1:
                continue
            if (a, b) <= mirror(a, b):
                add_f(a, b)
    e = [posidx[(i, i + 1)] for i in range(n - 1)]
    f = [posidx[(i + 1, i)] for i in range(n - 1)]
    if desc.family == "B":
        e.append(posidx[(n - 1, n)])
        f.append(posidx[(n, n - 1)])
    else:
        e.append(posidx[(n - 2, n)])
        f.append(posidx[(n, n - 2)])
    return _FactorData(desc, basis, cartan, e, f, poslookup)


def _factor_data_sp(rank: int) -> _FactorData:
    n = rank
    m = 2 * n

    def eps(a: int) -> int:
        return 1 if a < n else -1

    def mirror(a: int, b: int) -> tuple[int, int]:
        return (m - 1 - b, m - 1 - a)

    basis: list[SparseMatrix] = []
    poslookup: dict[tuple[int, int], list[tuple[int, int]]] = {}
    posidx: dict[tuple[int, int], int] = {}

    def add_g(a: int, b: int) -> int:
        idx = len(basis)
        if b == m - 1 - a:
            mat: SparseMatrix = {(a, b): 1}
        else:
            ma, mb = mirror(a, b)
            mat = {(a, b): 1, (ma, mb): -eps(a) * eps(b)}
        basis.append(mat)
        for pos, val in mat.items():
            poslookup.setdefault(pos, []).append((idx, val))
        posidx[(a, b)] = idx
        return idx

    cartan = [add_g(a, a) for a in range(n)]
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            if b == m - 1 - a:
                add_g(a, b)
            elif (a, b) < mirror(a, b):
                add_g(a, b)
    e = [posidx[(i, i + 1)] for i in range(n - 1)] + [posidx[(n - 1, n)]]
    f = [posidx[(i + 1, i)] for i in range(n - 1)] + [posidx[(n, n - 1)]]
    return _FactorData(SimpleFactorDescriptor("C", rank), basis, cartan, e, f, poslookup)


def _factor_data(desc: SimpleFactorDescriptor) -> _FactorData:
    if desc.family == "A":
        return _factor_data_a(desc.rank)
    if desc.family == "C":
        return _factor_data_sp(desc.rank)
    return _factor_data_so(desc)


@dataclass
class LieAlgebra:
    """A reductive Lie algebra with fixed basis, brackets and trace form.

    Values are immutable after construction (the bracket table is built
    eagerly); all methods are pure, so instances may be shared freely
    between threads.
    """

    factors: tuple[SimpleFactorDescriptor, ...]
    center_dim: int
    dim: int
    rank: int
    matrix_size: int
    basis: list[SparseMatrix]
    cartan_indices: list[int]
    simple_e_indices: list[int]
    simple_f_indices: list[int]
    factor_basis_slices: list[tuple[int, int]]
    factor_matrix_offsets: list[int]
    _factor_data: list[_FactorData] = field(repr=False)
    bracket_rows: list[dict[int, tuple[tuple[int, int], ...]]] = field(repr=False)
    gram_rows: list[dict[int, int]] = field(repr=False)

    # -- construction helpers -------------------------------------------------

    def element(self, coords: Sequence[Scalar]) -> ElementVector:
        if len(coords) != self.dim:
            raise ValueError("coordinate length does not match dim")
        return list(coords)

    def zero_element(self) -> ElementVector:
        return [0] * self.dim

    def matrix_of(self, x: Sequence[Scalar]) -> SparseMatrix:
        out: SparseMatrix = {}
        for i, c in enumerate(x):
            if c:
                for pos, val in self.basis[i].items():
                    new = out.get(pos, 0) + c * val
                    if new:
                        out[pos] = new
                    else:
                        out.pop(pos, None)
        return out

    def dense_matrix_of(self, x: Sequence[Scalar]) -> list[list[Fraction]]:
        n = self.matrix_size
        rows = [[Fraction(0)] * n for _ in range(n)]
        for (a, b), v in self.matrix_of(x).items():
            rows[a][b] = Fraction(v)
        return rows

    def coords_of_matrix(self, mat: SparseMatrix) -> Optional[ElementVector]:
        """Coordinates of a matrix in the fixed basis; None if outside."""
        coords: ElementVector = [0] * self.dim
        for fi, fd in enumerate(self._factor_data):
            off = self.factor_matrix_offsets[fi]
            b0, _ = self.factor_basis_slices[fi]
            size = fd.descriptor.matrix_size
            # torus coordinates from the block diagonal
            diag = [mat.get((off + a, off + a), 0) for a in range(size)]
            if fd.descriptor.family == "A":
                acc = 0
                for i in range(fd.descriptor.rank):
                    acc += diag[i]
                    coords[b0 + fd.cartan_local[i]] = acc
            else:
                for i in range(fd.descriptor.rank):
                    coords[b0 + fd.cartan_local[i]] = diag[i]
            # off-diagonal coordinates from owned positions
            for (a, b), owners in fd.poslookup.items():
                if a == b:
                    continue
                val = mat.get((off + a, off + b), 0)
                if val:
                    idx, coeff = owners[0]
                    # basis coefficients at owned positions are always +-1
                    coords[b0 + idx] = val if coeff == 1 else -val
        base = sum(f.matrix_size for f in self.factors)
        for k in range(self.center_dim):
            coords[self.dim - self.center_dim + k] = mat.get((base + k, base + k), 0)
        # validate by reconstruction: exact membership test
        if self.matrix_of(coords) != {pos: val for pos, val in mat.items() if val}:
            return None
        return coords

    # -- algebra operations ----------------------------------------------------

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> ElementVector:
        out: ElementVector = [0] * self.dim
        rows = self.bracket_rows
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, terms in rows[i].items():
                yj = y[j]
                if yj:
                    c = xi * yj
                    for k, coeff in terms:
                        out[k] += c * coeff
        return out

    def ad_rows(self, x: Sequence[Scalar]) -> list[ElementVector]:
        """Rows of the adjoint matrix of x (row k, column j = [x, b_j]_k)."""
        out = [[0] * self.dim for _ in range(self.dim)]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, terms in self.bracket_rows[i].items():
                for k, coeff in terms:
                    out[k][j] += xi * coeff
        return out

    def ad_matrix(self, x: Sequence[Scalar]) -> RationalMatrix:
        return RationalMatrix.from_rows(self.ad_rows(x))

    def killing_form(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Fraction:
        acc = Fraction(0)
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.gram_rows[i]
            for j, g in row.items():
                yj = y[j]
                if yj:
                    acc += xi * yj * g
        return acc

    @property
    def form(self) -> RationalMatrix:
        rows = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, row in enumerate(self.gram_rows):
            for j, g in row.items():
                rows[i][j] = Fraction(g)
        return RationalMatrix.from_rows(rows)

    def is_semisimple(self) -> bool:
        return self.center_dim == 0

    def is_regular(self, x: Sequence[Scalar]) -> tuple[bool, int]:
        """(x is regular, dim of its centralizer); requires semisimple."""
        if not self.is_semisimple():
            raise ValueError("regularity is defined here for semisimple algebras")
        int_x = clear_denominators(list(x))
        rows = _int_ad_rows(self, int_x)
        rank = len(bareiss_echelon(rows)[1])
        cdim = self.dim - rank
        return cdim == self.rank, cdim

    def borel_dim(self) -> int:
        return (self.dim + self.rank) // 2

    def trace_form(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Fraction:
        """trace(ad_x ad_y), the unscaled definition; O(dim^2), test use."""
        ax = self.ad_rows(x)
        ay = self.ad_rows(y)
        acc = Fraction(0)
        for k in range(self.dim):
            row = ax[k]
            for m in range(self.dim):
                if row[m] and ay[m][k]:
                    acc += row[m] * ay[m][k]
        return acc

    def random_element(self, rng: random.Random, bound: int = 9) -> ElementVector:
        return [rng.randint(-bound, bound) for _ in range(self.dim)]


def _int_ad_rows(L: LieAlgebra, x: Sequence[int]) -> list[ElementVector]:
    out = [[0] * L.dim for _ in range(L.dim)]
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, terms in L.bracket_rows[i].items():
            for k, coeff in terms:
                out[k][j] += xi * coeff
    return out


def _sparse_commutator(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    out: SparseMatrix = {}
    for (a, k), v in x.items():
        for (k2, b), w in y.items():
            if k == k2:
                out[(a, b)] = out.get((a, b), 0) + v * w
    for (a, k), v in y.items():
        for (k2, b), w in x.items():
            if k == k2:
                out[(a, b)] = out.get((a, b), 0) - v * w
    return {pos: val for pos, val in out.items() if val}


def build_algebra(factors: Sequence[SimpleFactorDescriptor | tuple[str, int]],
                  center_dim: int = 0) -> LieAlgebra:
    """Construct the direct sum of classical factors plus an abelian center.

    Raises UnsupportedTypeError for exceptional families, which are handled
    as catalog-only data.
    """
    descs = tuple(
        f if isinstance(f, SimpleFactorDescriptor) else SimpleFactorDescriptor(*f)
        for f in factors)
    return _build_algebra_cached(descs, center_dim)


@lru_cache(maxsize=None)
def _build_algebra_cached(descs: tuple[SimpleFactorDescriptor, ...],
                          center_dim: int) -> LieAlgebra:
    fdata = [_factor_data(d) for d in descs]
    dim = sum(d.dim for d in descs) + center_dim
    rank = sum(d.rank for d in descs) + center_dim
    matrix_size = sum(d.matrix_size for d in descs) + center_dim

    basis: list[SparseMatrix] = []
    cartan: list[int] = []
    simple_e: list[int] = []
    simple_f: list[int] = []
    slices: list[tuple[int, int]] = []
    offsets: list[int] = []
    moff = 0
    for fd in fdata:
        b0 = len(basis)
        offsets.append(moff)
        for mat in fd.basis:
            basis.append({(a + moff, b + moff): v for (a, b), v in mat.items()})
        slices.append((b0, len(basis)))
        cartan.extend(b0 + i for i in fd.cartan_local)
        simple_e.extend(b0 + i for i in fd.simple_e_local)
        simple_f.extend(b0 + i for i in fd.simple_f_local)
        moff += fd.descriptor.matrix_size
    for k in range(center_dim):
        cartan.append(len(basis))
        basis.append({(moff + k, moff + k): 1})

    L = LieAlgebra(
        factors=descs,
        center_dim=center_dim,
        dim=dim,
        rank=rank,
        matrix_size=matrix_size,
        basis=basis,
        cartan_indices=cartan,
        simple_e_indices=simple_e,
        simple_f_indices=simple_f,
        factor_basis_slices=slices,
        factor_matrix_offsets=offsets,
        _factor_data=fdata,
        bracket_rows=[{} for _ in range(dim)],
        gram_rows=[{} for _ in range(dim)],
    )
    _fill_bracket_table(L)
    _fill_gram(L)
    _check_form_invariance(L)
    return L


def _fill_bracket_table(L: LieAlgebra) -> None:
    for (b0, b1) in L.factor_basis_slices:
        for i in range(b0, b1):
            for j in range(i + 1, b1):
                comm = _sparse_commutator(L.basis[i], L.basis[j])
                if not comm:
                    continue
                coords = L.coords_of_matrix(comm)
                if coords is None:
                    raise AssertionError("bracket left the algebra; basis bug")
                terms = tuple((k, int(c)) for k, c in enumerate(coords) if c)
                L.bracket_rows[i][j] = terms
                L.bracket_rows[j][i] = tuple((k, -c) for k, c in terms)


def _fill_gram(L: LieAlgebra) -> None:
    for fi, fd in enumerate(L._factor_data):
        scale = fd.descriptor.killing_scale
        b0, _ = L.factor_basis_slices[fi]
        for li, mat in enumerate(fd.basis):
            row = L.gram_rows[b0 + li]
            for (a, b), v in mat.items():
                for lj, w in fd.poslookup.get((b, a), ()):
                    row[b0 + lj] = row.get(b0 + lj, 0) + scale * v * w


def _check_form_invariance(L: LieAlgebra) -> None:
    """Exhaustive check of K([e_i, e_j], e_m) = K(e_i, [e_j, e_m]) on all
    basis triples.  Both sides are sparse, so only their nonzero terms are
    enumerated.  Together with bracket closure of h this makes h-perp
    ad(h)-stable, which ``subalgebras.perp`` relies on."""
    gram_cols: list[dict[int, int]] = [{} for _ in range(L.dim)]
    for i, row in enumerate(L.gram_rows):
        for m, g in row.items():
            gram_cols[m][i] = g
    lhs: dict[tuple[int, int, int], int] = {}
    rhs: dict[tuple[int, int, int], int] = {}
    for i, row in enumerate(L.bracket_rows):
        for j, terms in row.items():
            for k, c in terms:
                # [e_i, e_j] has c e_k: feeds K([e_i, e_j], e_m) at (i, j, m)
                # and K(e_m, [e_i, e_j]) at (m, i, j)
                for m, g in L.gram_rows[k].items():
                    lhs[i, j, m] = lhs.get((i, j, m), 0) + c * g
                for m, g in gram_cols[k].items():
                    rhs[m, i, j] = rhs.get((m, i, j), 0) + g * c
    if {t: v for t, v in lhs.items() if v} != {t: v for t, v in rhs.items() if v}:
        raise RuntimeError("trace form is not ad-invariant on the basis; basis bug")


def scale_to_int(vec: Sequence[Scalar]) -> list[int]:
    """Primitive integer representative of a rational vector's ray."""
    den = 1
    for x in vec:
        if isinstance(x, Fraction):
            den = lcm(den, x.denominator)
    out = [int(x * den) if isinstance(x, Fraction) else x * den for x in vec]
    return out
