"""Exact linear algebra over arbitrary-precision rationals.

Vectors are sequences of ``int`` or ``fractions.Fraction`` and matrices are
plain lists of rows; every operation is exact, there is no floating point
anywhere.  Elimination is fraction-free (Bareiss 1968): rows are first
cleared of denominators and every step works on integers, with divisions
that are exact by the Bareiss determinant identity, which keeps coefficient
growth polynomial.  ``bareiss_echelon`` clears each pivot column below the
pivot, which is all a rank needs.  ``rref`` runs the same elimination
Gauss-Jordan style, clearing above the pivot too, and returns the reduced
row-echelon form over Q with each row scaled to its primitive integer
multiple with a positive pivot: the integer rows of the elimination divided
by their gcd, one gcd per row.  ``kernel`` reads the canonical basis of a
kernel, scaled the same way, off one such elimination of the
column-reversed rows.  Both first split the matrix into the connected
components of its rows and columns (``_blocks``) and run one elimination per
block on that block's columns: the matrices of this package (Gram rows,
1 + theta, Levi subalgebras) are block-sparse, and a pivot never touches
the rows of another block.  ``bareiss_echelon`` does not split: its callers
rank dense matrices.  ``lift`` turns a canonical kernel basis over a
subspace's rows into the canonical basis of its image with no elimination
at all, by dividing each combination by its gcd.  ``rank_mod_p`` ranks over
GF(p) instead, and ``left_kernel_mod_p`` takes a left kernel there, for
callers that account for the chance that p divides the minor carrying the
rank (``hadamard_bits`` bounds its size and ``is_prime`` certifies p), and
for a caller that certifies its lift to Q (``kernel_mod_p_lifted``) exactly.

``Subspace`` stores that canonical integer basis, so two subspaces are
equal iff their stored representations are identical field by field, and
its rows feed integer arithmetic as they are.  Only the operations that
need Q (``Subspace.reduce`` and ``coefficients_of``, ``solve_linear``)
divide, by the integer pivot.

All values are immutable and every operation is a pure function, so the
module is safe for concurrent use without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, lcm
from typing import Optional, Sequence

Scalar = int | Fraction
Vector = tuple[int, ...]


class DimensionError(ValueError):
    """Operands have incompatible dimensions."""


def clear_denominators(row: Sequence[Scalar]) -> list[int]:
    """Scale a rational row by the lcm of its denominators; returns ints.

    Entries are read through ``numerator`` and ``denominator``, which ints
    have too; a row of plain ints is only copied (``isinstance`` against
    ``Fraction``, an ABC, costs more than the copy)."""
    dens = [x.denominator for x in row if type(x) is not int]
    if not dens:
        return list(row)
    den = lcm(*dens)
    return [x.numerator * (den // x.denominator) for x in row]


def _eliminate(m: list[list[int]], jordan: bool) -> list[int]:
    """Bareiss elimination of the integer rows ``m`` in place.

    Each pivot clears its column in the rows below it, and with ``jordan``
    in the rows above it as well: row i becomes (piv * row_i - m_ic * row_r)
    // prev, which is exact because, after each step, every entry is a minor
    of the input.  Rows below are zero left of the pivot column, so they are
    updated from that column on; rows above over all columns, which turns
    their earlier pivots into the new one.  Zero rows are dropped from the
    end of ``m``.  Returns the pivot columns."""
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        row_r = m[r]
        for i in range(0 if jordan else r + 1, nr):
            if i == r:
                continue
            lo = c if i > r else 0
            row_i = m[i]
            mic = row_i[c]
            row_i[lo:] = [(piv * a - mic * b) // prev
                          for a, b in zip(row_i[lo:], row_r[lo:])]
        pivots.append(c)
        prev = piv
        r += 1
    del m[r:]
    return pivots


def bareiss_echelon(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of an integer matrix.

    Returns (nonzero echelon rows, pivot column indices).  The rows must
    hold ``int`` entries: pass rational rows through ``clear_denominators``
    first, since the elimination divides with ``//``."""
    m = [list(r) for r in rows]
    pivots = _eliminate(m, jordan=False)
    return m, pivots


def rank_mod_p(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over GF(p) of an integer matrix, p prime.

    It never exceeds the rank over Q, and equals it unless p divides every
    maximal nonzero minor (``hadamard_bits`` bounds their size).  Entries
    are reduced mod p once; each pivot piv then clears its column below it
    as row_i <- (piv * row_i - m_ic * row_r) mod p.  piv is a unit mod p, so
    this keeps the rank and needs no inverse (on small matrices a modular
    inverse costs more than the whole row update)."""
    m = [[a % p for a in row] for row in rows]
    nr = len(m)
    ncols = len(m[0]) if nr else 0
    r = 0
    for c in range(ncols):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row_r = m[r][c:]
        piv = row_r[0]
        for i in range(r + 1, nr):
            f = m[i][c]
            if f:
                m[i][c:] = [(piv * a - f * b) % p for a, b in zip(m[i][c:], row_r)]
        r += 1
    return r


def left_kernel_mod_p(rows: Sequence[Sequence[int]], p: int) -> list[list[int]]:
    """Basis of {lam : sum(lam_i * rows[i]) = 0 mod p} over GF(p), p prime,
    as vectors of residues; its size is len(rows) - ``rank_mod_p(rows, p)``.

    One Gauss-Jordan elimination of the transposed rows mod p, each pivot
    scaled to 1: the vector of each free column f is 1 at f, 0 at the other
    free columns and minus column f of the reduced rows at the pivot
    columns."""
    n = len(rows)
    m = [[a % p for a in col] for col in zip(*rows)]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        row_r = m[r] = [a * inv % p for a in m[r]]
        for i, row_i in enumerate(m):
            f = row_i[c]
            if f and i != r:
                # the rows from r on are 0 left of c
                row_i[c:] = [(a - f * b) % p for a, b in zip(row_i[c:], row_r[c:])]
        pivots.append(c)
    pivot_set = set(pivots)
    out = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = [0] * n
        v[f] = 1
        for row, c in zip(m, pivots):
            v[c] = -row[f] % p
        out.append(v)
    return out


def kernel_mod_p_lifted(rows: Sequence[Sequence[int]], ncols: int,
                        p: int) -> Optional[list[list[int]]]:
    """A candidate for ``kernel(rows, ncols)``: the kernel mod p in its shape
    (``left_kernel_mod_p`` of the column-reversed transpose), each entry
    lifted to the r/s with |r|, |s| <= sqrt(p/2) congruent to it (Wang's
    rational reconstruction); None when an entry has no such lift.  It has
    dim ker_p >= dim ker_Q independent vectors, so if they all lie in a
    subspace W of the rational kernel, W is that kernel and they are its
    canonical basis."""
    bound = isqrt(p // 2)
    out = []
    for v in left_kernel_mod_p([[row[c] for row in rows] for c in reversed(range(ncols))], p):
        lifted = []
        for a in reversed(v):
            r0, r1, s0, s1 = p, a, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            lifted.append(Fraction(r1, s1))
        w = clear_denominators(lifted)
        out.append(_primitive(w, next(j for j, a in enumerate(w) if a)))
    return out[::-1]


def hadamard_bits(rows: Sequence[Sequence[int]]) -> int:
    """An integer B with |D| <= 2^B for every minor D of an integer matrix.

    B = ceil(sum_i bitlen(|row_i|^2) / 2) over the nonzero rows is at least
    sum_i log2 |row_i|, which bounds every minor by Hadamard's inequality
    (a nonzero integer row has norm >= 1, so rows outside the minor only
    raise the bound)."""
    total = sum(sum(a * a for a in row).bit_length() for row in rows)
    return (total + 1) // 2


# Miller-Rabin with the first twelve primes as bases is deterministic below
# this bound (Sorenson and Webster 2015, psi_12).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 3.18 * 10^23 (strong
    probable-prime tests to the bases 2, 3, ..., 37); raises ``ValueError``
    above that range, where the bases are no longer proven sufficient."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _blocks(m: Sequence[Sequence[int]], ncols: int) -> list[tuple[list[int], list[int]]]:
    """The connected components of the bipartite graph in which row i joins
    column j when m[i][j] is nonzero, as (row indices, column indices) in
    increasing order, the blocks in increasing order of their first column.

    Every nonzero entry lies in exactly one block; zero rows and zero
    columns lie in none.  Union-find over the columns: each row links its
    nonzero columns, and the scan stops linking once all columns are one
    component, as they are after the first row of a dense matrix."""
    parent = list(range(ncols))

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    comps = ncols
    rows: list[int] = []
    firsts: list[int] = []
    used = [False] * ncols
    for i, row in enumerate(m):
        nonzero = compress(range(ncols), row)
        first = next(nonzero, None)
        if first is None:
            continue
        rows.append(i)
        firsts.append(first)
        if comps == 1:
            continue
        used[first] = True
        r = find(first)
        for j in nonzero:
            used[j] = True
            rj = find(j)
            if rj != r:
                parent[rj] = r
                comps -= 1
    if comps == 1 and rows:
        return [(rows, list(range(ncols)))]
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for c in range(ncols):
        if used[c]:
            blocks.setdefault(find(c), ([], []))[1].append(c)
    for i, c in zip(rows, firsts):
        blocks[find(c)][0].append(i)
    return list(blocks.values())


def _primitive(v: list[int], lead: int) -> list[int]:
    """v divided by the gcd of its entries, signed so that v[lead] > 0."""
    g = gcd(*v)
    if v[lead] < 0:
        g = -g
    return v if g == 1 else [x // g for x in v]


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over Q (zeros above pivots), each row
    scaled to its primitive integer multiple with a positive pivot.

    The denominator-cleared rows split into the blocks of ``_blocks``, whose
    row spaces have disjoint column supports, so the RREF is the union of
    the blocks' RREF rows in increasing order of pivot column.  Each block
    takes one fraction-free Gauss-Jordan elimination on its own columns,
    whose rows are integer multiples of the block's RREF rows."""
    m = [clear_denominators(r) for r in rows]
    ncols = len(m[0]) if m else 0
    out: list[tuple[int, list[int]]] = []
    for bi, cols in _blocks(m, ncols):
        sub = [[m[i][c] for c in cols] for i in bi]
        for row, p in zip(sub, _eliminate(sub, jordan=True)):
            v = [0] * ncols
            for c, x in zip(cols, _primitive(row, p)):
                v[c] = x
            out.append((cols[p], v))
    out.sort(key=lambda t: t[0])
    return [v for _, v in out], [p for p, _ in out]


def kernel(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[int]]:
    """Canonical basis of {v : row . v = 0 for every row}: the reduced row
    echelon form of the kernel, in increasing order of leading column, each
    vector its primitive integer multiple with a positive leading entry.

    The kernel is the direct sum of the kernels of the blocks of
    ``_blocks``, each on its own columns, and of the unit vectors of the
    zero columns.  One Gauss-Jordan elimination of a block's column-reversed
    rows gives the standard kernel basis of the reversed block; read back
    in the original column order, the vector of each free column f is 1 at
    f, 0 at the other free columns and nonzero only at pivot columns right
    of f.  Every pivot of the block's elimination ends equal to its last
    one, d, so d times that vector is d at f and minus column f of the
    eliminated rows at the pivot columns."""
    m = [clear_denominators(r) for r in rows]
    out: list[tuple[int, list[int]]] = []
    free = [True] * ncols
    for bi, cols in _blocks(m, ncols):
        rev = cols[::-1]
        sub = [[m[i][c] for c in rev] for i in bi]
        pivots = _eliminate(sub, jordan=True)
        d = sub[-1][pivots[-1]]
        pivot_set = set(pivots)
        for c in cols:
            free[c] = False
        for f, col in enumerate(rev):
            if f in pivot_set:
                continue
            v = [0] * ncols
            v[col] = d
            for row, c in zip(sub, pivots):
                v[rev[c]] = -row[f]
            out.append((col, _primitive(v, col)))
    for c in range(ncols):
        if free[c]:
            v = [0] * ncols
            v[c] = 1
            out.append((c, v))
    out.sort(key=lambda t: t[0])
    return [v for _, v in out]


def left_kernel(rows: Sequence[Sequence[Scalar]]) -> list[list[int]]:
    """Coefficient vectors lam with sum(lam_i * rows[i]) = 0, canonical as
    in ``kernel``."""
    if not rows:
        return []
    return kernel([list(col) for col in zip(*rows)], len(rows))


def solve_linear(rows: Sequence[Sequence[Scalar]],
                 b: Sequence[Scalar]) -> Optional[tuple[Fraction, ...]]:
    """A particular solution of rows . x = b, or None when inconsistent.

    The canonical choice sets all free variables to zero: x at a pivot
    column is the RREF row's last entry divided by its pivot.
    """
    if len(b) != len(rows):
        raise DimensionError("right-hand side length does not match row count")
    ncols = len(rows[0]) if rows else 0
    rr, piv = rref([list(r) + [bi] for r, bi in zip(rows, b)])
    if ncols in piv:
        return None
    x = [Fraction(0)] * ncols
    for row, c in zip(rr, piv):
        x[c] = Fraction(row[ncols], row[c])
    return tuple(x)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n.  Its basis is canonical: the rows of its
    reduced row echelon form, pivot columns increasing, each row scaled to
    its primitive integer multiple with a positive pivot (as ``rref``
    returns them)."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @classmethod
    def span(cls, vectors: Sequence[Sequence[Scalar]], ambient_dim: int) -> "Subspace":
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionError("vector length does not match ambient dimension")
        vecs = [v for v in vectors if any(v)]
        if not vecs:
            return cls(ambient_dim, ())
        rows, _ = rref(vecs)
        return cls(ambient_dim, tuple(tuple(r) for r in rows))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(tuple(int(i == j) for j in range(ambient_dim))
                                      for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> list[int]:
        out = []
        for row in self.basis:
            out.append(next(j for j, x in enumerate(row) if x))
        return out

    def _split(self, v: Sequence[Scalar]) -> tuple[list[Fraction], list]:
        """(coefficients of v's projection onto the row space in the stored
        basis, the residual of v): each stored row is subtracted with
        coefficient (the residual at its pivot) / (its pivot)."""
        if len(v) != self.ambient_dim:
            raise DimensionError("vector length does not match ambient dimension")
        w = list(v)
        coeffs = []
        for row, p in zip(self.basis, self.pivots()):
            f = Fraction(w[p], row[p])
            coeffs.append(f)
            if f:
                w = [a - f * b for a, b in zip(w, row)]
        return coeffs, w

    def reduce(self, v: Sequence[Scalar]) -> list:
        """Residual of v after subtracting its projection onto the row space."""
        return self._split(v)[1]

    def contains_vector(self, v: Sequence[Scalar]) -> bool:
        return not any(self.reduce(v))

    def coefficients_of(self, v: Sequence[Scalar]) -> Optional[list[Fraction]]:
        """Coefficients of v in the stored basis, or None if v is outside."""
        coeffs, w = self._split(v)
        return None if any(w) else coeffs

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize [[U U],[V 0]]; zero-left rows carry U∩V.

        Those rows come last in the RREF, with their pivots in the right
        half, so their right halves are already the canonical basis."""
        if other.ambient_dim != self.ambient_dim:
            raise DimensionError("ambient dimension mismatch")
        n = self.ambient_dim
        stacked = [list(u) + list(u) for u in self.basis]
        stacked += [list(v) + [0] * n for v in other.basis]
        rows, _ = rref(stacked)
        return Subspace(n, tuple(tuple(r[n:]) for r in rows if not any(r[:n])))


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
    e.g. a kernel over a spanning set lifted back to coordinates.

    ``coeffs`` must be a canonical basis up to row scaling (as ``kernel``
    and ``left_kernel`` return) and ``rows`` nonzero multiples of the rows
    of a ``Subspace`` basis, in order.  Combination k then leads at the
    pivot of the row where coefficient vector k leads and is zero at the
    pivots of the other combinations, so it is a multiple of a reduced row
    echelon row of the span, and dividing its denominator-cleared entries by
    their gcd gives the canonical basis with no elimination.  That shape is
    checked; an input outside the precondition raises ``RuntimeError``."""
    basis: list[Vector] = []
    leads: list[int] = []
    for lam in coeffs:
        v = clear_denominators(combine(lam, rows, dim))
        lead = next((j for j, a in enumerate(v) if a), dim)
        if lead == dim or (leads and lead <= leads[-1]):
            raise RuntimeError("lift: coefficients or rows are not canonical "
                               "(a combination is zero or leads out of order)")
        basis.append(tuple(_primitive(v, lead)))
        leads.append(lead)
    for lead, vec in zip(leads, basis):
        if any(vec[c] for c in leads if c != lead):
            raise RuntimeError("lift: coefficients or rows are not canonical "
                               "(a combination is nonzero at another pivot)")
    return Subspace(dim, tuple(basis))
