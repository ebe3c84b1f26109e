"""Classical reductive Lie algebras in split matrix form.

Conventions (all indices 0-based):

* Family A, rank r: sl(r+1), all traceless (r+1) x (r+1) matrices.  The
  fixed maximal torus is the diagonal; torus basis H_i = E_ii - E_{i+1,i+1}.
* Families B, C and D: so(m) and sp(m) are the X with X^T Omega + Omega X
  = 0 for the antidiagonal form Omega[a][b] = eps_a * [a + b = m - 1].
  For so, eps_a = 1; for sp(2r), eps_a = +1 for a < r and -1 otherwise.
  With this choice the diagonal matrices form the maximal torus.  B
  requires m = 2r + 1, C m = 2r, and D m = 2r with r >= 3 (so(2) and so(4)
  are not simple).  Writing (a, b)' = (m - 1 - b, m - 1 - a) for the
  mirror position, the basis has one E_ab - eps_a eps_b E_(a,b)' per
  mirror orbit off the antidiagonal, taken at the orbit's smaller
  position, plus E_ab on the antidiagonal for sp only; torus part at (a, a)
  for a < r.  ``classical_factor`` maps a (kind, matrix size) pair such as
  ("so", 7) to its factor.

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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .exact_linalg import Scalar, bareiss_echelon, clear_denominators, rank_mod_p

SparseMatrix = dict[tuple[int, int], Fraction | int]
ElementVector = list[Fraction | int]

# the Mersenne prime 2^61 - 1; any fixed prime keeps ``is_regular`` exact
_REGULARITY_PRIME = (1 << 61) - 1


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


def _factor_data_form(desc: SimpleFactorDescriptor) -> _FactorData:
    """so(m) (B, D) or sp(m) (C), laid out as in the module docstring."""
    m, n = desc.matrix_size, desc.rank
    symplectic = desc.family == "C"

    def eps(a: int) -> int:
        return -1 if symplectic and a >= n else 1

    basis: list[SparseMatrix] = []
    poslookup: dict[tuple[int, int], list[tuple[int, int]]] = {}
    posidx: dict[tuple[int, int], int] = {}

    def add(a: int, b: int) -> None:
        mat: SparseMatrix = {(a, b): 1}
        if a + b != m - 1:
            mat[(m - 1 - b, m - 1 - a)] = -eps(a) * eps(b)
        posidx[(a, b)] = len(basis)
        for pos, val in mat.items():
            poslookup.setdefault(pos, []).append((len(basis), val))
        basis.append(mat)

    for a in range(n):
        add(a, a)
    for a in range(m):
        for b in range(m):
            if a != b and ((a, b) < (m - 1 - b, m - 1 - a)
                           or symplectic and a + b == m - 1):
                add(a, b)
    last = n - 2 if desc.family == "D" else n - 1
    e = [posidx[(i, i + 1)] for i in range(n - 1)] + [posidx[(last, n)]]
    f = [posidx[(i + 1, i)] for i in range(n - 1)] + [posidx[(n, last)]]
    return _FactorData(desc, basis, list(range(n)), e, f, poslookup)


def _factor_data(desc: SimpleFactorDescriptor) -> _FactorData:
    if desc.family == "A":
        return _factor_data_a(desc.rank)
    return _factor_data_form(desc)


def classical_factor(kind: str, size: int) -> Optional[SimpleFactorDescriptor]:
    """The simple factor sl(size), so(size) or sp(size); None when that is
    not a simple algebra (sl1, so1, so2, so4, sp of odd size) or the kind
    is not sl, so or sp."""
    if kind == "sl" and size >= 2:
        return SimpleFactorDescriptor("A", size - 1)
    if kind == "so" and (size == 3 or size >= 5):
        return SimpleFactorDescriptor("B" if size % 2 else "D", size // 2)
    if kind == "sp" and size >= 2 and size % 2 == 0:
        return SimpleFactorDescriptor("C", size // 2)
    return None


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

    def is_semisimple(self) -> bool:
        return self.center_dim == 0

    def is_regular(self, x: Sequence[Scalar]) -> tuple[bool, int]:
        """(x is regular, dim of its centralizer); requires semisimple.

        The reference criterion, dim z_g(x) = rank g, read off the rank of
        the dim g x dim g ad matrix.  That matrix is first ranked modulo the
        fixed prime 2^61 - 1: a rank mod p never exceeds the rank over Q,
        which never exceeds dim g - rank g, so a rank mod p of dim g -
        rank g proves regularity outright.  No failure term is added for it:
        the shortcut can only decline to answer (when p divides the minor),
        and then the exact Bareiss rank decides, so the result is the exact
        one for every x.  ``is_regular_in_v`` decides the same question in
        the defining representation, far more cheaply."""
        if not self.is_semisimple():
            raise ValueError("regularity is defined here for semisimple algebras")
        ad = self.ad_rows(clear_denominators(x))
        if rank_mod_p(ad, _REGULARITY_PRIME) == self.dim - self.rank:
            return True, self.rank
        cdim = self.dim - len(bareiss_echelon(ad)[1])
        return cdim == self.rank, cdim

    def _factor_blocks(self, x: Sequence[Scalar]):
        """(descriptor, N x N integer block) of each simple factor of x, with
        x scaled by the lcm of its denominators."""
        mat = self.matrix_of(clear_denominators(x))
        for desc, off in zip(self.factors, self.factor_matrix_offsets):
            n = desc.matrix_size
            yield desc, [[mat.get((off + a, off + b), 0) for b in range(n)]
                         for a in range(n)]

    def is_regular_in_v(self, x: Sequence[Scalar]) -> bool:
        """Whether x is regular, from matrix powers in the defining
        representation; requires semisimple.

        Each simple factor's N x N block X of x is regular exactly when
        I, X, ..., X^(k-1) are linearly independent: k = N for sl, sp and
        so(odd), where regular means cyclic, and k = N - 1 for so(2r), whose
        regular nilpotent has Jordan type (2r - 1, 1) (Kostant 1963;
        Collingwood-McGovern 1993).  x is regular when every block is."""
        if not self.is_semisimple():
            raise ValueError("regularity is defined here for semisimple algebras")
        for desc, block in self._factor_blocks(x):
            n = desc.matrix_size
            flats = [[v for row in p for v in row]
                     for p in _powers(block, n - 1 if desc.family == "D" else n)]
            if len(bareiss_echelon(flats)[1]) < len(flats):
                return False
        return True

    def invariant_jacobian_rank(self, x: Sequence[Scalar],
                                rows: Sequence[Sequence[int]], p: int) -> int:
        """rank mod p of the Jacobian J(x) of g's invariants on V = span(rows).

        Row (f, k) of J is [tr(X_f^k S_j,f)]_j, the differential at x of
        tr X_f^(k+1) / (k + 1) along the rows S_j, with X_f and S_j,f the
        N x N blocks of x and S_j in the simple factor f: k = 1, ..., N - 1
        for sl(N), and the odd k < N for so(N) and sp(N), where odd powers
        have trace 0.  These traces generate each factor's invariants, up to
        the Pfaffian of so(2r), whose square is a polynomial in them, so J
        has the generic rank of the full Jacobian of the simple factors'
        invariants (central coordinates are left out).  An invariant F is
        constant on orbits, so
        dF_x([y, x]) = 0 and every bracket [y, x] inside V lies in ker J(x).
        A rank mod p never exceeds the rank over Q, which never exceeds J's
        generic rank, so the result is at most that rank for every x and p."""
        sparse = [[(i, a % p) for i, a in enumerate(r) if a] for r in rows]
        jac = []
        for (desc, block), (b0, b1), off in zip(
                self._factor_blocks(x), self.factor_basis_slices,
                self.factor_matrix_offsets):
            odd = desc.family != "A"
            ks = range(1, desc.matrix_size, 2 if odd else 1)
            xf = [[a % p for a in row] for row in block]
            step = _mul_mod(xf, xf, p) if odd and len(ks) > 1 else xf
            power = xf
            for k in ks:
                if k > 1:
                    power = _mul_mod(power, step, p)
                # tr(X^k E_ab) = (X^k)_ba over the entries of each basis matrix
                traces = {i: sum(v * power[b - off][a - off]
                                 for (a, b), v in self.basis[i].items())
                          for i in range(b0, b1)}
                jac.append([sum(a * traces.get(i, 0) for i, a in s) % p
                            for s in sparse])
        return rank_mod_p(jac, p)

    def is_diagonalizable_in_v(self, x: Sequence[Scalar]) -> bool:
        """Whether x is semisimple, from its blocks in the defining
        representation, in integers only.

        The k independent powers I, X, ..., X^(k-1) of a factor's block X
        give the degree k of its minimal polynomial.  The k x k Hankel
        matrix [tr X^(i+j)] is W^T D W, with W the Vandermonde matrix of the
        s distinct eigenvalues and D their multiplicities, so its rank is s.
        X is diagonalizable exactly when its minimal polynomial is
        squarefree, that is when s = k, when that matrix is nonsingular.  A
        faithful representation preserves Jordan decompositions, so x is
        semisimple when every block is; central coordinates are diagonal."""
        for desc, block in self._factor_blocks(x):
            powers = _powers(block, desc.matrix_size)
            k = len(bareiss_echelon([[v for row in p for v in row]
                                     for p in powers])[1])
            # tr(X^i X^j) from the entries of X^i and the transpose of X^j
            hankel = [[sum(a * b for row, col in zip(powers[i], zip(*powers[j]))
                           for a, b in zip(row, col)) for j in range(k)]
                      for i in range(k)]
            if len(bareiss_echelon(hankel)[1]) < k:
                return False
        return True

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


def _powers(block: list[list[int]], count: int) -> list[list[list[int]]]:
    """I, X, ..., X^(count - 1) of a square integer matrix X."""
    cols = list(zip(*block))
    power = [[int(a == b) for b in range(len(block))] for a in range(len(block))]
    out = [power]
    for _ in range(count - 1):
        power = [[sum(p * q for p, q in zip(row, col)) for col in cols]
                 for row in power]
        out.append(power)
    return out


def _mul_mod(a: list[list[int]], b: list[list[int]], p: int) -> list[list[int]]:
    """The product of two square integer matrices modulo p."""
    cols = list(zip(*b))
    return [[sum(u * v for u, v in zip(row, col)) % p for col in cols] for row in a]


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

