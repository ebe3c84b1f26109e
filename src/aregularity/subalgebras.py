"""Reductive subalgebra embeddings h <= g and their invariants.

An ``Embedding`` stores the subalgebra as a canonical subspace of the
ambient algebra's coordinate space, validated to be closed under the
bracket.  Named constructors build the block, fixed-point and diagonally
glued embeddings appearing in the classification tables:

    block_sgl(p, q)        s(gl_p + gl_q) inside sl_{p+q}
    levi(blocks)           block Levi s(gl_{c_1} + ... ) inside sl_n
    block_ss(p, q)         sl_p + sl_q block pair, no center
    block_one(k)           single upper-left sl_k block
    so_in_sl(n)            antisymmetric matrices inside sl_n
    sp_in_sl(n)            sp_{2n} inside sl_{2n} or upper-left in sl_{2n+1}
    sp_plus_center(n)      sp_{2n} + C inside sl_{2n+1}
    gl_in_sp(n)            Siegel Levi gl_n inside sp_{2n}
    gl_in_so(m)            gl_{m//2} inside so_m
    so_block(p, q)         so_p + so_q inside so_{p+q}
    so_diag_pair(n)        so_n embedded diagonally in so_{n+1} + so_n
    sl_gl_pair(n)          gl_n glued across sl_{n+1} + sl_n
    diagonal(family, rank) diag(s) inside s + s
    sp_block(parts)        sp_{2k_1} + ... inside sp_{2n}
    sp_sub_center(n)       sp_{2n-2} + C inside sp_{2n}
    sp_diag2(m, n)         sp_{2m-2} + sp_{2n-2} + glued sp_2
    sp4_diag(n)            sp_{2n-4} + diagonally glued sp_4
    sp_diag3(l, m, n)      three sp blocks + sp_2 glued across all factors
    sp_chain4(n, m)        chain gluing through a middle sp_4
    sl_sp_glue(n, m, with_center)
                           gl/sl_{n-2} + glued sl_2=sp_2 + sp_{2m-2}
    chain_image(n)         image of (A,t) |-> (A + t, -nt; t, -t) in
                           sl_{n+1} + sl_2
    direct_sum(parts)      factor-aligned direct sum of the above
    custom(matrices)       explicit basis matrices

Genericity is randomized with explicit Schwartz-Zippel failure bounds.
Every sampled stabilizer goes through one engine, ``generic_point``: the
minimum kernel dimension over the trials, with exact checks (kernels,
brackets) at the best sample.  Only the claim "this sampled dimension is
the generic minimum" carries the quantified failure probability reported
in every GenericStabilizerReport.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact_linalg import (
    IntEchelon,
    RationalMatrix,
    Subspace,
    bareiss_echelon,
    clear_denominators,
    combine,
    kernel_from_rref,
    left_kernel,
    lift,
    rref,
    solve_linear,
)
from .lie_core import (
    ElementVector,
    LieAlgebra,
    scale_to_int,
)


class InvalidSubalgebraError(ValueError):
    """Input does not describe a reductive subalgebra of the ambient algebra."""


class BracketClosureError(InvalidSubalgebraError):
    """Candidate basis is not closed under the bracket."""


class InvolutionError(ValueError):
    """Supplied involution is not an involutive automorphism fixing h."""


class DegenerateFormError(ValueError):
    """Trace form degenerates on h in a way that breaks the perp dimension."""


class GenericityError(RuntimeError):
    """Random sampling failed to reach a generic configuration; retry with a
    different seed."""


@dataclass(frozen=True)
class IdealDecomposition:
    center: Subspace
    simple_ideals: tuple[Subspace, ...]


@dataclass(frozen=True)
class GenericStabilizerReport:
    """Sampled generic stabilizer of the h-action on the orthogonal
    complement of h.

    One sampling rule (``generic_point``): the dimension is the minimum
    over ``trials`` samples, and the basis and abelianness are exact at the
    best sample.  A non-abelian stabilizer's reductive rank follows the
    same rule inside the stabilizer; the Satake route instead reports the
    exact rank z_h(c) = rank g - dim c (``cartan_subspace_stabilizer``).

    ``failure_bound`` = 2 * ``sz_bound`` bounds the probability that the
    dimension or the rank exceeds the generic value (per-trial failure is
    at most dim(g) / (2 * coefficient_bound + 1))."""

    stab_basis: Subspace
    dim: int
    is_abelian: bool
    reductive_rank: int
    trials: int
    coefficient_bound: int
    failure_bound: Fraction


class Embedding:
    """A bracket-closed subalgebra of a classical ambient algebra.

    Instances are immutable after construction apart from write-once caches,
    so they are safe to share between threads.
    """

    def __init__(self, ambient: LieAlgebra, h_basis: Subspace,
                 constructor: Optional[tuple[str, dict]] = None,
                 tags: frozenset[str] = frozenset(),
                 theta_cols: Optional[list[ElementVector]] = None,
                 ideal_decomposition: Optional[IdealDecomposition] = None):
        if h_basis.ambient_dim != ambient.dim:
            raise InvalidSubalgebraError("h basis lives in the wrong coordinate space")
        self.ambient = ambient
        self.h_basis = h_basis
        self.constructor = constructor
        self.tags = tags
        self.theta_cols = theta_cols
        self._ideals = ideal_decomposition
        self._cache: dict = {}
        self._validate_closure()
        if theta_cols is not None:
            self._validate_involution()

    # -- basic data ------------------------------------------------------------

    @property
    def dim_h(self) -> int:
        return self.h_basis.dim

    def h_int_rows(self) -> list[list[int]]:
        rows = self._cache.get("h_int_rows")
        if rows is None:
            rows = _int_rows(self.h_basis)
            self._cache["h_int_rows"] = rows
        return rows

    def _validate_closure(self) -> None:
        L = self.ambient
        rows = self.h_int_rows()
        if not rows:
            return
        ech = IntEchelon(rows)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                br = L.bracket(rows[i], rows[j])
                if any(br) and not ech.contains(br):
                    raise BracketClosureError(
                        f"bracket of basis vectors {i}, {j} leaves the subalgebra")

    # -- involution ------------------------------------------------------------

    def apply_theta(self, x: Sequence) -> ElementVector:
        if self.theta_cols is None:
            raise InvolutionError("embedding carries no involution")
        out: ElementVector = [0] * self.ambient.dim
        for j, xj in enumerate(x):
            if xj:
                col = self.theta_cols[j]
                for i, c in enumerate(col):
                    if c:
                        out[i] += xj * c
        return out

    def _validate_involution(self) -> None:
        L = self.ambient
        cols = self.theta_cols
        assert cols is not None
        if len(cols) != L.dim:
            raise InvolutionError("involution matrix has the wrong size")
        for j in range(L.dim):
            sq = self.apply_theta(cols[j])
            if any(sq[i] != (1 if i == j else 0) for i in range(L.dim)):
                raise InvolutionError("involution does not square to the identity")
        # automorphism property on all basis pairs
        for i in range(L.dim):
            for j, terms in L.bracket_rows[i].items():
                if j < i:
                    continue
                lhs: ElementVector = [0] * L.dim
                for k, c in terms:
                    col = cols[k]
                    for t, v in enumerate(col):
                        if v:
                            lhs[t] += c * v
                rhs = L.bracket(cols[i], cols[j])
                if any(a != b for a, b in zip(lhs, rhs)):
                    raise InvolutionError(
                        f"involution fails the automorphism law on pair ({i}, {j})")
        # fixed space must be exactly h
        for v in self.h_basis.basis:
            img = self.apply_theta(v)
            if any(a != b for a, b in zip(img, v)):
                raise InvolutionError("h is not pointwise fixed by the involution")
        diff = [[cols[j][i] - (1 if i == j else 0) for j in range(L.dim)]
                for i in range(L.dim)]
        rank = len(bareiss_echelon([clear_denominators(r) for r in diff])[1])
        if L.dim - rank != self.dim_h:
            raise InvolutionError("fixed space of the involution is larger than h")

    # -- ideal decomposition ---------------------------------------------------

    @property
    def ideal_decomposition(self) -> IdealDecomposition:
        if self._ideals is None:
            self._ideals = decompose_reductive(self)
        return self._ideals


# -- the generic-point engine ----------------------------------------------------

def sz_bound(dim: int, bound: int, trials: int) -> Fraction:
    """Schwartz-Zippel bound for ``trials`` independent samples all missing
    a generic point: a nonzero polynomial of degree at most ``dim`` vanishes
    at a uniform point of [-bound, bound]^n with probability at most
    dim / (2 * bound + 1)."""
    return Fraction(dim, 2 * bound + 1) ** trials


def random_combination(rng: random.Random, rows: list[list[int]], bound: int,
                       dim: int) -> list[int]:
    """A nonzero integer combination of ``rows`` with coefficients uniform in
    [-bound, bound]; the zero vector when ``rows`` is empty."""
    if not rows:
        return [0] * dim
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in rows]
        if any(coeffs):
            return combine(coeffs, rows, dim)


def generic_point(L: LieAlgebra, rows: list[list[int]],
                  sample_rows: list[list[int]], rng: random.Random,
                  trials: int, bound: int) -> tuple[list[int], list[list[Fraction]], int]:
    """Generic point x of span(sample_rows) for the centralizer in span(rows).

    Draws ``trials`` samples and keeps the first one whose centralizer
    {sum lam_i rows_i : [sum lam_i rows_i, x] = 0} has minimal dimension.
    That dimension can only exceed the generic value, so the minimum is the
    generic one except with probability ``sz_bound``.  Returns (x, the
    kernel coefficient vectors over ``rows`` at x, the kernel dimension)."""
    best: Optional[tuple[list[int], list[list[Fraction]]]] = None
    for _ in range(max(1, trials)):
        x = random_combination(rng, sample_rows, bound, L.dim)
        lam = left_kernel([L.bracket(r, x) for r in rows])
        if best is None or len(lam) < len(best[1]):
            best = (x, lam)
    return best[0], best[1], len(best[1])


def is_abelian(L: LieAlgebra, rows: Sequence[Sequence]) -> bool:
    """Exact check that the given vectors pairwise commute."""
    return all(not any(L.bracket(rows[i], rows[j]))
               for i in range(len(rows)) for j in range(i + 1, len(rows)))


def _int_rows(s: Subspace) -> list[list[int]]:
    return [scale_to_int(v) for v in s.basis]


# -- orthogonal complement and stabilizers -------------------------------------

def perp(e: Embedding) -> Subspace:
    """Annihilator of h in g under the invariant trace form.

    Checks dim(h-perp) = dim g - dim h.  Stability under ad(h) needs no
    check here: it follows from bracket closure of h (checked by
    ``Embedding``) and invariance of the trace form (checked once per
    ambient algebra when it is built).
    """
    cached = e._cache.get("perp")
    if cached is not None:
        return cached
    L = e.ambient
    if not L.is_semisimple():
        raise DegenerateFormError("ambient algebra must be semisimple")
    gram_applied = []
    for hr in e.h_int_rows():
        out = [0] * L.dim
        for k, hk in enumerate(hr):
            if hk:
                for j, g in L.gram_rows[k].items():
                    out[j] += hk * g
        gram_applied.append(out)
    rr, piv = rref(gram_applied)
    result = Subspace.span(kernel_from_rref(rr, piv, L.dim), L.dim)
    if result.dim != L.dim - e.dim_h:
        raise DegenerateFormError(
            "trace form restricted to h is degenerate; input is not a "
            "reductive subalgebra of a semisimple ambient algebra")
    e._cache["perp"] = result
    e._cache["perp_int_rows"] = _int_rows(result)
    return result


def _perp_int_rows(e: Embedding) -> list[list[int]]:
    perp(e)
    return e._cache["perp_int_rows"]


def stabilizer(e: Embedding, x: Sequence) -> Subspace:
    """The subalgebra {h in h-basis span : [h, x] = 0}, as a subspace of g."""
    L = e.ambient
    h_rows = e.h_int_rows()
    x_int = scale_to_int(list(x))
    return lift(left_kernel([L.bracket(hr, x_int) for hr in h_rows]), h_rows, L.dim)


def generic_stabilizer(e: Embedding, seed: int = 0, trials: int = 8,
                       coeff_bound: int = 1 << 20) -> GenericStabilizerReport:
    """Stabilizer of a generic point of h-perp, with certified failure bound.

    ``generic_point`` takes the minimum stabilizer dimension over the
    trials; abelianness is checked exactly at the best sample, and a
    non-abelian stabilizer gets its reductive rank as the generic
    centralizer dimension of the stabilizer in itself, a second minimum
    over the trials on the same random stream."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    key = ("genstab", seed, trials, coeff_bound)
    cached = e._cache.get(key)
    if cached is not None:
        return cached
    L = e.ambient
    rng = random.Random(seed)
    h_rows = e.h_int_rows()
    _, lam, dim_stab = generic_point(L, h_rows, _perp_int_rows(e), rng,
                                     trials, coeff_bound)
    stab = lift(lam, h_rows, L.dim)
    if stab.dim != dim_stab:
        raise RuntimeError("lifted stabilizer lost dimension; internal error")
    stab_rows = _int_rows(stab)
    abelian = is_abelian(L, stab_rows)
    rank = stab.dim
    if not abelian:
        _, _, rank = generic_point(L, stab_rows, stab_rows, rng, trials,
                                   coeff_bound)
    report = GenericStabilizerReport(
        stab_basis=stab, dim=stab.dim, is_abelian=abelian,
        reductive_rank=rank, trials=trials, coefficient_bound=coeff_bound,
        failure_bound=2 * sz_bound(L.dim, coeff_bound, trials))
    e._cache[key] = report
    return report


# -- symmetric-pair machinery ---------------------------------------------------

def cartan_subspace_stabilizer(e: Embedding, seed: int = 0, trials: int = 8,
                               coeff_bound: int = 1 << 20) -> tuple[Subspace, Subspace]:
    """(c, z_h(c)) for a maximal abelian subspace c of the (-1)-eigenspace q.

    q is h-perp (checked exactly: the involution is -1 on every perp row).
    ``generic_point`` picks the sample x in q of minimal dim z_h(x), the
    same sampling rule as ``generic_stabilizer``.  At that one sample
    c = z_q(x) and two exact checks follow: c is abelian, and
    [z_h(x), c] = 0, which with the trivial containment z_h(c) <= z_h(x)
    gives z_h(x) = z_h(c).  A failed check raises ``GenericityError``.
    Since z_g(c) = z_h(c) + c is a Levi subalgebra with c central, the
    reductive rank of z_h(c) is exactly rank g - dim c."""
    key = ("cartan_stab", seed, trials, coeff_bound)
    cached = e._cache.get(key)
    if cached is not None:
        return cached
    if e.theta_cols is None:
        raise InvolutionError("embedding carries no involution")
    L = e.ambient
    q_rows = _perp_int_rows(e)
    for r in q_rows:
        if any(a + b for a, b in zip(e.apply_theta(r), r)):
            raise InvolutionError("h-perp is not the (-1)-eigenspace of the involution")
    h_rows = e.h_int_rows()
    x, lam, _ = generic_point(L, h_rows, q_rows, random.Random(seed), trials,
                              coeff_bound)
    zx = lift(lam, h_rows, L.dim)
    c = lift(left_kernel([L.bracket(r, x) for r in q_rows]), q_rows, L.dim)
    c_rows = _int_rows(c)
    if not is_abelian(L, c_rows) or any(
            any(L.bracket(zr, cr)) for zr in _int_rows(zx) for cr in c_rows):
        raise GenericityError(
            "the best sample in q is not generic (z_q(x) is not abelian or "
            "does not commute with z_h(x)); retry with a different seed")
    e._cache[key] = (c, zx)
    return c, zx


# -- reductive decomposition ----------------------------------------------------

def decompose_reductive(e_or_pair, subspace: Optional[Subspace] = None) -> IdealDecomposition:
    """Split a reductive subalgebra into its center and simple ideals.

    The derived algebra is split with the adjoint-commutant algorithm: a
    random element of the commutant has a rational minimal polynomial whose
    eigenspaces are sums of ideals; recursion refines until each piece has
    a one-dimensional commutant."""
    if subspace is None:
        L, h = e_or_pair.ambient, e_or_pair.h_basis
    else:
        L, h = e_or_pair, subspace
    h_rows = _int_rows(h)
    n_h = len(h_rows)
    if n_h == 0:
        return IdealDecomposition(Subspace.zero(L.dim), ())
    # center: lambda with sum lambda_i [h_i, h_j] = 0 for all j
    eq_rows = []
    brackets = [[L.bracket(h_rows[i], h_rows[j]) for j in range(n_h)] for i in range(n_h)]
    for j in range(n_h):
        for t in range(L.dim):
            row = [int(brackets[i][j][t]) for i in range(n_h)]
            if any(row):
                eq_rows.append(row)
    if eq_rows:
        rr, piv = rref(eq_rows)
        center = lift(kernel_from_rref(rr, piv, n_h), h_rows, L.dim)
    else:
        center = h
    derived_vecs = [brackets[i][j] for i in range(n_h) for j in range(i + 1, n_h)]
    derived = Subspace.span([v for v in derived_vecs if any(v)], L.dim)
    if center.dim + derived.dim != n_h or center.intersect(derived).dim != 0:
        raise InvalidSubalgebraError(
            "center and derived algebra do not split h; input is not reductive")
    ideals = _split_semisimple(L, derived)
    return IdealDecomposition(center, tuple(ideals))


def _ad_on_subspace(L: LieAlgebra, sub: Subspace) -> list[list[list[Fraction]]]:
    rows = _int_rows(sub)
    d = len(rows)
    mats = []
    for i in range(d):
        cols = []
        for j in range(d):
            br = L.bracket(rows[i], rows[j])
            coeffs = sub.coefficients_of(br)
            if coeffs is None:
                raise InvalidSubalgebraError("subspace is not an ideal of itself")
            cols.append(coeffs)
        # column j holds [u_i, u_j]; store as matrix acting on coordinates
        mats.append([[cols[j][k] for j in range(d)] for k in range(d)])
    return mats


def _commutant_basis(mats: list[list[list[Fraction]]], d: int,
                     rng: random.Random) -> list[list[list[Fraction]]]:
    if d == 0:
        return []
    gens = mats
    if len(mats) > 4:
        gens = []
        for _ in range(2):
            coeffs = [rng.randint(-5, 5) for _ in mats]
            g = [[sum(c * m[r][s] for c, m in zip(coeffs, mats)) for s in range(d)]
                 for r in range(d)]
            gens.append(g)
    while True:
        eq_rows = []
        for A in gens:
            for r in range(d):
                for c in range(d):
                    row = [Fraction(0)] * (d * d)
                    for v in range(d):
                        row[r * d + v] += A[v][c]
                    for u in range(d):
                        row[u * d + c] -= A[r][u]
                    if any(row):
                        eq_rows.append(row)
        if not eq_rows:
            return [[[Fraction(1 if u == a and v == b else 0) for v in range(d)]
                     for u in range(d)] for a in range(d) for b in range(d)]
        rr, piv = rref(eq_rows)
        kern = kernel_from_rref(rr, piv, d * d)
        cand = [[[vec[u * d + v] for v in range(d)] for u in range(d)] for vec in kern]
        if gens is mats:
            return cand
        # sampled generators: verify against the full set, else fall back
        ok = all(_commutes(M, A, d) for M in cand for A in mats)
        if ok:
            return cand
        gens = mats


def _commutes(M, A, d) -> bool:
    for r in range(d):
        for c in range(d):
            lhs = sum(M[r][v] * A[v][c] for v in range(d))
            rhs = sum(A[r][u] * M[u][c] for u in range(d))
            if lhs != rhs:
                return False
    return True


def _min_poly(M: list[list[Fraction]], d: int) -> list[Fraction]:
    """Monic minimal polynomial coefficients (low degree first)."""
    power = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    vecs = []
    while True:
        flat = [power[i][j] for i in range(d) for j in range(d)]
        vecs.append(flat)
        _, piv = rref(vecs)
        if len(piv) < len(vecs):
            # last power is dependent: solve for the combination
            a = RationalMatrix.from_rows(
                [[vecs[k][t] for k in range(len(vecs) - 1)] for t in range(d * d)])
            sol = solve_linear(a, flat)
            assert sol is not None
            return [-s for s in sol] + [Fraction(1)]
        power = [[sum(power[i][k] * M[k][j] for k in range(d)) for j in range(d)]
                 for i in range(d)]


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial that splits over Q."""
    from math import lcm

    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    poly = [Fraction(int(c * den)) for c in coeffs]
    while poly and poly[-1] == 0:
        poly.pop()
    roots: list[Fraction] = []

    def divisors(n: int) -> set[int]:
        n = abs(n)
        out = {1}
        i = 1
        while i * i <= n:
            if n % i == 0:
                out.add(i)
                out.add(n // i)
            i += 1
        return out

    while len(poly) > 1:
        if poly[0] == 0:
            roots.append(Fraction(0))
            poly = poly[1:]
            continue
        a0 = int(poly[0])
        ad = int(poly[-1])
        found = None
        for p in sorted(divisors(a0)):
            for q in sorted(divisors(ad)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    val = Fraction(0)
                    for c in reversed(poly):
                        val = val * cand + c
                    if val == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            raise GenericityError("minimal polynomial did not split over Q")
        roots.append(found)
        deg = len(poly) - 1
        quot = [Fraction(0)] * deg
        quot[deg - 1] = poly[deg]
        for i in range(deg - 1, 0, -1):
            quot[i - 1] = poly[i] + found * quot[i]
        # clear denominators so the divisor search keeps integer inputs
        d2 = 1
        for c in quot:
            d2 = lcm(d2, c.denominator)
        poly = [c * d2 for c in quot]
    return roots


def embed(ambient: LieAlgebra, constructor: str,
          params: Optional[dict] = None) -> Embedding:
    """Build a named embedding; see ``constructors`` for the supported list."""
    from .constructors import embed as _embed
    return _embed(ambient, constructor, params)


def _split_semisimple(L: LieAlgebra, derived: Subspace,
                      rng: Optional[random.Random] = None) -> list[Subspace]:
    if derived.dim == 0:
        return []
    rng = rng or random.Random(987654321)
    mats = _ad_on_subspace(L, derived)
    d = derived.dim
    comm = _commutant_basis(mats, d, rng)
    if len(comm) == 1:
        return [derived]
    for _ in range(8):
        coeffs = [rng.randint(-9, 9) for _ in comm]
        C = [[sum(c * M[r][s] for c, M in zip(coeffs, comm)) for s in range(d)]
             for r in range(d)]
        try:
            roots = _rational_roots(_min_poly(C, d))
        except GenericityError:
            continue
        if len(set(roots)) < 2:
            continue
        pieces: list[Subspace] = []
        rows = _int_rows(derived)
        for lam in sorted(set(roots)):
            shifted = [[C[r][s] - (lam if r == s else 0) for s in range(d)]
                       for r in range(d)]
            rr, piv = rref(shifted)
            piece = lift(kernel_from_rref(rr, piv, d), rows, L.dim)
            if piece.dim:
                pieces.extend(_split_semisimple(L, piece, rng))
        if sum(p.dim for p in pieces) == d:
            return sorted(pieces, key=lambda s: (s.dim, s.basis))
    raise GenericityError("commutant splitting failed; retry with a new seed")
