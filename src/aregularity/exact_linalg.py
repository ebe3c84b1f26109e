"""Exact linear algebra over arbitrary-precision rationals.

Vectors are sequences of ``int`` or ``fractions.Fraction``; every operation
is exact, there is no floating point anywhere.  The elimination core is
fraction-free (Bareiss): rows are first cleared of denominators and the
echelon form is computed over the integers, which keeps intermediate
coefficient growth polynomial.  Reduced row-echelon output over Q is
produced from the integer echelon form at the end.

``Subspace`` keeps its basis in reduced row-echelon form with pivot columns
in increasing order, so two subspaces are equal iff their stored
representations are identical field by field.

All values are immutable and every operation is a pure function, so the
module is safe for concurrent use without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

Scalar = int | Fraction
Vector = tuple[Fraction, ...]


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def clear_denominators(row: Sequence[Scalar]) -> list[int]:
    """Scale a rational row by the lcm of its denominators; returns ints."""
    den = 1
    for x in row:
        if isinstance(x, Fraction):
            den = lcm(den, x.denominator)
    out = []
    for x in row:
        if isinstance(x, Fraction):
            out.append(x.numerator * (den // x.denominator))
        else:
            out.append(x * den)
    return out


def bareiss_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Returns (nonzero echelon rows, pivot column indices).  All divisions are
    exact by the Bareiss determinant identity.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = None
        for i in range(r, nr):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        row_r = m[r]
        for i in range(r + 1, nr):
            row_i = m[i]
            mic = row_i[c]
            for j in range(c, nc):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
        pivots.append(c)
        prev = piv
        r += 1
    return m[:r], pivots


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q (unit pivots, zeros above pivots)."""
    if not rows:
        return [], []
    int_rows = [clear_denominators(r) for r in rows]
    ech, pivots = bareiss_echelon(int_rows)
    out = [[Fraction(x) for x in row] for row in ech]
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        piv = out[k][c]
        if piv != 1:
            out[k] = [x / piv for x in out[k]]
        row_k = out[k]
        for i in range(k):
            f = out[i][c]
            if f:
                out[i] = [a - f * b for a, b in zip(out[i], row_k)]
    return out, pivots


def kernel_from_rref(rref_rows: list[list[Fraction]], pivots: list[int],
                     ncols: int) -> list[list[Fraction]]:
    """Kernel basis of the row space viewed as a linear map."""
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = -rref_rows[i][f]
        basis.append(v)
    return basis


def left_kernel(rows: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Coefficient vectors lam with sum(lam_i * rows[i]) = 0."""
    if not rows:
        return []
    ncols = len(rows[0])
    nr = len(rows)
    transposed = [[rows[i][j] for i in range(nr)] for j in range(ncols)]
    rr, piv = rref(transposed)
    return kernel_from_rref(rr, piv, nr)


@dataclass(frozen=True)
class RationalMatrix:
    """Dense matrix of exact rationals, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError("entry count does not match rows*cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "RationalMatrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        flat = []
        for r in rows:
            if len(r) != nc:
                raise DimensionError("ragged rows")
            flat.extend(_frac(x) for x in r)
        return cls(nr, nc, tuple(flat))

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols, (Fraction(0),) * (rows * cols))

    def entry(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix.from_rows(
            [[self.entry(i, j) for i in range(self.rows)] for j in range(self.cols)])

    def mul_vec(self, v: Sequence[Scalar]) -> Vector:
        if len(v) != self.cols:
            raise DimensionError("vector length does not match column count")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            acc = Fraction(0)
            for j, x in enumerate(v):
                if x:
                    acc += self.entries[base + j] * x
            out.append(acc)
        return tuple(out)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n, basis stored in canonical RREF form."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def span(cls, vectors: Sequence[Sequence[Scalar]], ambient_dim: int) -> "Subspace":
        vecs = [v for v in vectors if any(v)]
        if not vecs:
            return cls(ambient_dim, ())
        for v in vecs:
            if len(v) != ambient_dim:
                raise DimensionError("vector length does not match ambient dimension")
        rows, _ = rref(vecs)
        return cls(ambient_dim, tuple(tuple(r) for r in rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        eye = [[Fraction(1) if i == j else Fraction(0) for j in range(ambient_dim)]
               for i in range(ambient_dim)]
        return cls(ambient_dim, tuple(tuple(r) for r in eye))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> list[int]:
        out = []
        for row in self.basis:
            out.append(next(j for j, x in enumerate(row) if x))
        return out

    def reduce(self, v: Sequence[Scalar]) -> list[Fraction]:
        """Residual of v after subtracting its projection onto the row space."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length does not match ambient dimension")
        w = [_frac(x) for x in v]
        for row, p in zip(self.basis, self.pivots()):
            f = w[p]
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        return w

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        return not any(self.reduce(v))

    def coefficients_of(self, v: Sequence[Scalar]) -> Optional[list[Fraction]]:
        """Coefficients of v in the stored basis, or None if v is outside."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length does not match ambient dimension")
        w = [_frac(x) for x in v]
        coeffs = []
        for row, p in zip(self.basis, self.pivots()):
            f = w[p]
            coeffs.append(f)
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        if any(w):
            return None
        return coeffs

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimension mismatch")
        return all(self.contains_vector(v) for v in other.basis)

    def sum_with(self, other: "Subspace") -> "Subspace":
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimension mismatch")
        return Subspace.span(list(self.basis) + list(other.basis), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [[U U],[V 0]]; zero-left rows carry U∩V."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimension mismatch")
        n = self.ambient_dim
        stacked: list[list[Fraction]] = []
        for u in self.basis:
            stacked.append(list(u) + list(u))
        for v in other.basis:
            stacked.append(list(v) + [Fraction(0)] * n)
        if not stacked:
            return Subspace.zero(n)
        rows, _ = rref(stacked)
        inter = [r[n:] for r in rows if not any(r[:n])]
        return Subspace.span(inter, n)

    def restrict_to_coordinates(self, indices: Sequence[int]) -> "Subspace":
        """Vectors of the subspace supported on the given coordinate set."""
        idx = set(indices)
        complement = [j for j in range(self.ambient_dim) if j not in idx]
        if not self.basis:
            return Subspace.zero(self.ambient_dim)
        if not complement:
            return self
        rows = [[v[j] for j in complement] for v in self.basis]
        return lift(left_kernel(rows), self.basis, self.ambient_dim)


def combine(coeffs: Sequence[Scalar], rows: Sequence[Sequence[Scalar]],
            dim: int) -> list:
    """The vector sum(coeffs[i] * rows[i]) of length ``dim``."""
    out: list = [0] * dim
    for c, r in zip(coeffs, rows):
        if c:
            for j, v in enumerate(r):
                if v:
                    out[j] += c * v
    return out


def lift(coeffs: Sequence[Sequence[Scalar]], rows: Sequence[Sequence[Scalar]],
         dim: int) -> Subspace:
    """Span of the combinations of ``rows`` given by each coefficient vector,
    e.g. a kernel over a spanning set lifted back to coordinates."""
    return Subspace.span([combine(lam, rows, dim) for lam in coeffs], dim)


@dataclass(frozen=True)
class SubspaceOps:
    sum: Subspace
    intersection: Subspace
    contains: bool


def subspace_ops(u: Subspace, v: Subspace) -> SubspaceOps:
    """Sum, intersection and the containment test v <= u."""
    if u.ambient_dim != v.ambient_dim:
        raise DimensionError("ambient dimension mismatch")
    return SubspaceOps(sum=u.sum_with(v), intersection=u.intersect(v),
                       contains=u.contains_subspace(v))


def rank_and_kernel(m: RationalMatrix) -> tuple[int, Subspace]:
    """Rank and exact kernel; rank + dim(kernel) = cols."""
    rows = m.to_rows()
    if not rows:
        return 0, Subspace.full(m.cols)
    rr, piv = rref(rows)
    kern = kernel_from_rref(rr, piv, m.cols)
    return len(piv), Subspace.span(kern, m.cols)


def solve_linear(a: RationalMatrix, b: Sequence[Scalar]) -> Optional[Vector]:
    """A particular solution of a x = b, or None when inconsistent.

    The canonical choice sets all free variables to zero.
    """
    if len(b) != a.rows:
        raise DimensionError("right-hand side length does not match row count")
    aug = [list(a.row(i)) + [_frac(b[i])] for i in range(a.rows)]
    rr, piv = rref(aug)
    if a.cols in piv:
        return None
    x = [Fraction(0)] * a.cols
    for i, c in enumerate(piv):
        x[c] = rr[i][a.cols]
    return tuple(x)


class IntEchelon:
    """Reusable fraction-free membership tester for a fixed row space."""

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        int_rows = [clear_denominators(r) for r in rows if any(r)]
        self.ncols = len(rows[0]) if rows else 0
        self.rows, self.pivots = bareiss_echelon(int_rows) if int_rows else ([], [])

    def residual(self, v: Sequence[int]) -> list[int]:
        w = list(v)
        for row, p in zip(self.rows, self.pivots):
            if w[p]:
                piv = row[p]
                coef = w[p]
                w = [piv * a - coef * b for a, b in zip(w, row)]
        return w

    def contains(self, v: Sequence[int]) -> bool:
        return not any(self.residual(v))
