"""Reductive subalgebra embeddings h <= g and their invariants.

An ``Embedding`` stores the subalgebra as a canonical subspace of the
ambient algebra's coordinate space.  The involution theta of a symmetric
pair is built here from its spec (``_theta_cols_from_spec``) and never taken
as bare columns, so it is an automorphism of g by construction; bracket
closure is checked exactly when there is no theta.  Named constructors
build the block, fixed-point and diagonally glued embeddings appearing in
the classification tables:

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
Every generic stabilizer goes through one trial loop, ``rank_trials``: the
minimum kernel dimension over the trials, read off ranks modulo a prime p on
the pivot columns of the sampled subspace, with the exact check (brackets)
at the best sample.  Ranking stops at the first trial whose rank reaches dim
V minus the rank of the invariants' Jacobian at the first sample, a cap no
trial can pass (Knop's moment-map image).  Such a pass is certified: its
rank is exactly the generic one, so it adds no failure term, and later
trials are drawn but not bracketed.  p is drawn uniformly from the primes in
[2^60, 2^61) (``trial_prime``), once per stabilizer call and from a stream
of its own, so samples, bases and witnesses do not depend on it.  A rank mod
p is never above the rank over Q, and falls below it only when p divides the
minor that carries it; each uncertified pass adds that chance
(``modular_term``, bounded over the minors of every trial the pass
bracketed) to the failure bound.  After a certified first pass,
``generic_stabilizer`` needs no exact kernel: it tests abelianness modulo p,
reads the reductive rank off the Jacobian, and builds the exact stabilizer
basis only when a caller reads it.  Only the claims "this sampled dimension
is the generic minimum" and "this stabilizer is abelian" carry the
quantified failure probability reported in a GenericStabilizerReport.  The
symmetric-pair route needs no such claim: ``cartan_subspace_stabilizer``
certifies one sample of q exactly (Kostant-Rallis), so its report's bound
is 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from math import lcm
from operator import mul
from typing import Callable, Optional, Sequence

from .exact_linalg import (
    Subspace,
    bareiss_echelon,
    clear_denominators,
    combine,
    hadamard_bits,
    is_prime,
    kernel,
    kernel_mod_p_lifted,
    left_kernel,
    left_kernel_mod_p,
    lift,
    rank_mod_p,
    rref,
    solve_linear,
)
from .lie_core import ElementVector, LieAlgebra, SparseMatrix, build_algebra


class InvalidSubalgebraError(ValueError):
    """Input does not describe a reductive subalgebra of the ambient algebra."""


class BracketClosureError(InvalidSubalgebraError):
    """Candidate basis is not closed under the bracket."""


class InvolutionError(ValueError):
    """Supplied involution is not an involutive automorphism fixing h."""


class DegenerateFormError(ValueError):
    """The trace form is degenerate on h, so h is not reductive in g."""


class GenericityError(RuntimeError):
    """Random sampling failed to reach a generic configuration; retry with a
    different seed."""


@dataclass(frozen=True)
class IdealDecomposition:
    center: Subspace
    simple_ideals: tuple[Subspace, ...]


@dataclass(frozen=True)
class GenericStabilizerReport:
    """Sampled generic stabilizer h* of the h-action on the orthogonal
    complement of h.

    One sampling rule (``rank_trials``): the dimension is the minimum
    over ``trials`` samples, at the best sample x.  When that pass is
    certified, the dimension is exact, abelianness is tested modulo the
    pass's prime, and the reductive rank is rank g - rank_p J(x_1), read off
    the invariants' Jacobian at the first sample (for an abelian h* that is
    checked to equal dim h*).  Otherwise abelianness is exact at x, and a
    non-abelian stabilizer's reductive rank follows the sampling rule inside
    the stabilizer.  The Satake route instead reports z_h(c) for a certified
    Cartan subspace c, with the exact rank rank g - dim c
    (``cartan_subspace_stabilizer``).

    ``stab_basis`` is the exact basis of h* at x, the ``lift`` of the exact
    left kernel there.  ``build_basis`` computes it on the first read, which
    checks it against ``dim`` and ``is_abelian`` (``RuntimeError`` on a
    mismatch), so a caller that reads only the numbers never pays for it.

    ``failure_bound`` bounds the probability that a field is wrong.  A
    certified pass adds nothing for its rank.  An abelian verdict found
    modulo p adds ``modular_term(bits)``, where 2^bits bounds every nonzero
    bracket coordinate of two Cramer kernel vectors: bits = 2 * (the
    pass's ``hadamard_bits``, which bound the minors of x's bracket matrix,
    + log2 of the largest column sum of |h rows|) + log2 of the largest sum
    over i, j of |c_ij^k|.  An uncertified first pass adds 2 * ``sz_bound``
    (per-trial failure is at most dim(g) / (2 * coefficient_bound + 1), once
    per pass) plus, for each uncertified pass, its ``failure_term``:
    ceil(bits / 60) / 2^54, with bits the largest log2 Hadamard bound of the
    trial matrices it bracketed.  The satake route's report has nothing
    sampled to bound, so its ``failure_bound`` is 0."""

    dim: int
    is_abelian: bool
    reductive_rank: int
    trials: int
    coefficient_bound: int
    failure_bound: Fraction
    build_basis: Callable[[], Subspace] = field(repr=False, compare=False)

    @cached_property
    def stab_basis(self) -> Subspace:
        return self.build_basis()


class Embedding:
    """A subalgebra h of a classical ambient algebra g, with the involution
    theta of a symmetric pair when there is one.

    The input is h itself (a basis) and, for a symmetric pair, theta's spec
    (``_theta_cols_from_spec``), from which the columns ``theta_cols`` are
    built once; with ``h_basis`` None, h is Fix theta.  Every spec is an
    automorphism of g by construction: X -> S X S^-1 and X -> -S X^T S^-1
    are automorphisms of gl(V), the builder refuses an image outside g, and
    the swap of two equal factors and a factor-aligned block sum of
    automorphisms are automorphisms.  So h = Fix theta is a subalgebra, and
    bracket closure is checked only when there is no theta.  What a spec
    can still get wrong (S comes from user input) is theta^2 = 1 and, for a
    given basis, h = Fix theta; both are checked.  Everything else, the
    center / simple-ideal split included, is derived from h on demand.
    Instances are immutable after construction apart from write-once
    caches, so they are safe to share between threads.
    """

    def __init__(self, ambient: LieAlgebra, h_basis: Optional[Subspace],
                 constructor: Optional[tuple[str, dict]] = None,
                 theta: Optional[tuple] = None):
        if h_basis is not None and h_basis.ambient_dim != ambient.dim:
            raise InvalidSubalgebraError("h basis lives in the wrong coordinate space")
        self.ambient = ambient
        self.constructor = constructor
        self.theta = theta
        self.theta_cols = None if theta is None else _theta_cols_from_spec(ambient, theta)
        self.h_basis = fixed_algebra(self.theta_cols) if h_basis is None else h_basis
        self._cache: dict = {}
        if theta is None:
            self._validate_closure()
        else:
            self._validate_involution()

    # -- basic data ------------------------------------------------------------

    @property
    def dim_h(self) -> int:
        return self.h_basis.dim

    def _validate_closure(self) -> None:
        """Raise ``BracketClosureError`` unless every bracket of two basis
        rows of h lies in h.  h's rows are multiples of its RREF rows, so a
        bracket v lies in h exactly when it equals
        sum_k (v[p_k] / r_k[p_k]) r_k over the rows r_k with pivots p_k
        (``_in_span``); h is never echelonized again."""
        L = self.ambient
        rows = self.h_basis.basis
        pivots = self.h_basis.pivots()
        for i in range(len(rows)):
            brackets = [L.bracket(rows[i], rows[j]) for j in range(i + 1, len(rows))]
            if not _in_span(L.dim, brackets, rows, pivots):
                j = next(j for j, v in enumerate(brackets, i + 1)
                         if not _in_span(L.dim, [v], rows, pivots))
                raise BracketClosureError(
                    f"bracket of basis vectors {i}, {j} leaves the subalgebra")

    # -- involution ------------------------------------------------------------

    def apply_theta(self, x: Sequence) -> ElementVector:
        out: ElementVector = [0] * self.ambient.dim
        for j, xj in enumerate(x):
            if xj:
                col = self.theta_cols[j]
                for i, c in enumerate(col):
                    if c:
                        out[i] += xj * c
        return out

    def _validate_involution(self) -> None:
        """Raise ``InvolutionError`` unless theta^2 = 1 and h = Fix theta;
        theta is an automorphism by construction (see the class doc)."""
        L = self.ambient
        cols = self.theta_cols
        for j in range(L.dim):
            sq = self.apply_theta(cols[j])
            if any(sq[i] != (1 if i == j else 0) for i in range(L.dim)):
                raise InvolutionError("involution does not square to the identity")
        # theta^2 = 1 makes dim Fix(theta) = (dim g + tr theta) / 2, so h is
        # Fix(theta) exactly when theta fixes h and the dimensions agree
        trace = sum(cols[j][j] for j in range(L.dim))
        if 2 * self.dim_h != L.dim + trace or any(
                self.apply_theta(row) != list(row) for row in self.h_basis.basis):
            raise InvolutionError("h is not the fixed algebra of the involution")

    # -- ideal decomposition ---------------------------------------------------

    @property
    def ideal_decomposition(self) -> IdealDecomposition:
        dec = self._cache.get("ideals")
        if dec is None:
            dec = self._cache["ideals"] = decompose_reductive(self)
        return dec


def _inverse(s: list[list], what: str) -> list[list[Fraction]]:
    """Inverse of a square matrix, by row reduction of [s | I]: row i of the
    inverse is the right half of RREF row i divided by its pivot."""
    n = len(s)
    rr, piv = rref([list(row) + [int(i == j) for j in range(n)]
                    for i, row in enumerate(s)])
    if piv != list(range(n)):
        raise InvalidSubalgebraError(f"{what} is singular")
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(rr)]


def _theta_cols_from_spec(ambient: LieAlgebra, spec: tuple) -> list[ElementVector]:
    """Columns of the involution in the ambient basis.

    Specs: ("swap",) exchanges two equal simple factors; ("conj", S) is
    X -> S X S^-1; ("neg_transpose", S) is X -> -S X^T S^-1; ("sum", parts)
    is the block sum of parts (first factor, factor count, spec) over the
    ambient's factors, the identity where no part reaches."""
    L = ambient
    if spec[0] == "swap":
        if len(L.factors) != 2 or L.factors[0] != L.factors[1] or L.center_dim:
            raise InvalidSubalgebraError("swap needs two equal simple factors")
        d = L.factor_basis_slices[0][1]
        return [[int(i == (j + d) % L.dim) for i in range(L.dim)]
                for j in range(L.dim)]
    if spec[0] == "sum":
        cols = [[int(i == j) for i in range(L.dim)] for j in range(L.dim)]
        for first, count, part in spec[1]:
            sub = build_algebra(L.factors[first:first + count])
            off = L.factor_basis_slices[first][0]
            for j, col in enumerate(_theta_cols_from_spec(sub, part)):
                cols[off + j][off:off + sub.dim] = col
        return cols
    kind, s = spec
    m = L.matrix_size
    if kind not in ("conj", "neg_transpose"):
        raise ValueError(f"unknown involution spec {kind}")
    if len(s) != m or any(len(row) != m for row in s):
        raise InvalidSubalgebraError(f"the {kind} matrix must be {m} x {m}")
    sinv = _inverse(s, f"the {kind} matrix")
    s_cols = [[(i, s[i][a]) for i in range(m) if s[i][a]] for a in range(m)]
    sinv_rows = [[(c, sinv[b][c]) for c in range(m) if sinv[b][c]] for b in range(m)]
    sign = 1 if kind == "conj" else -1
    cols = []
    for x in L.basis:
        img: SparseMatrix = {}
        for (a, b), v in x.items():
            if kind == "neg_transpose":
                a, b = b, a
            for i, sa in s_cols[a]:
                for c, sb in sinv_rows[b]:
                    img[(i, c)] = img.get((i, c), 0) + sign * sa * v * sb
        coords = L.coords_of_matrix(
            {pos: w.numerator if w.denominator == 1 else w
             for pos, w in img.items() if w})
        if coords is None:
            raise InvalidSubalgebraError(f"the {kind} involution leaves the algebra")
        cols.append(coords)
    return cols


def fixed_algebra(theta_cols: Sequence[Sequence]) -> Subspace:
    """Fix(theta) of an involution theta: x = (x + theta x)/2 for each fixed
    x, so it is the span of the columns of 1 + theta."""
    n = len(theta_cols)
    return Subspace.span([[c + (i == j) for i, c in enumerate(col)]
                          for j, col in enumerate(theta_cols)], n)


# -- the generic-point engine ----------------------------------------------------

def sz_bound(dim: int, bound: int, trials: int) -> Fraction:
    """Schwartz-Zippel bound for ``trials`` independent samples all missing
    a generic point: a nonzero polynomial of degree at most ``dim`` vanishes
    at a uniform point of [-bound, bound]^n with probability at most
    dim / (2 * bound + 1)."""
    return Fraction(dim, 2 * bound + 1) ** trials


def random_combination(rng: random.Random, rows: Sequence[Sequence[int]],
                       bound: int, dim: int) -> list[int]:
    """A nonzero integer combination of ``rows`` with coefficients uniform in
    [-bound, bound]; the zero vector when ``rows`` is empty."""
    if bound < 1:
        raise ValueError(f"coefficient bound must be positive, got {bound}")
    if not rows:
        return [0] * dim
    while True:
        coeffs = [rng.randint(-bound, bound) for _ in rows]
        if any(coeffs):
            return combine(coeffs, rows, dim)


def sample_bounds(trials: int, coeff_bound: int) -> list[int]:
    """Coefficient bounds of a search for one sample with an exactly checked
    property (a regular witness, a Cartan-subspace sample): six samples in
    [-7, 7] first, whose small entries keep matrix powers short and which
    almost always succeed, since such points are dense; then ``trials``
    samples at ``coeff_bound``, the only ones a Schwartz-Zippel bound on a
    failed search counts."""
    return [7] * 6 + [coeff_bound] * trials


_PRIME_LO, _PRIME_HI = 1 << 60, 1 << 61
_PRIME_SALT = 0x9F1E


@lru_cache(maxsize=256)
def trial_prime(seed: int) -> int:
    """The modulus of the trial ranks: a prime drawn uniformly from
    [2^60, 2^61), by rejection on odd candidates, from a stream of its own
    (``seed`` xor a fixed salt).  The sampling stream is untouched, so p is
    independent of the samples.  A draw tests about 17 candidates (0.3-0.7
    ms), as much as a whole small stabilizer, so draws are memoized by
    seed."""
    rng = random.Random(seed ^ _PRIME_SALT)
    while True:
        n = rng.randrange(_PRIME_LO + 1, _PRIME_HI, 2)
        if is_prime(n):
            return n


def modular_term(bits: int) -> Fraction:
    """Probability that a ``trial_prime`` divides a given nonzero integer D
    with |D| <= 2^bits: D has at most bits/60 prime factors >= 2^60, and
    [2^60, 2^61) holds more than 2^54.1 primes (Rosser-Schoenfeld)."""
    return Fraction(-(-bits // 60), 1 << 54)


@dataclass(frozen=True)
class RankedTrials:
    """The best of the trials of one ``rank_trials`` pass: its sample x, its
    restricted bracket rows and their rank mod p; ``bits``, the largest
    ``hadamard_bits`` of the trials the pass bracketed; whether the pass is
    ``certified`` (its rank is exactly the generic one); and rank_p J(x_1),
    the rank of the invariants' Jacobian at the first sample, when the pass
    needed it."""

    x: list[int]
    restricted: list[list[int]]
    rank: int
    bits: int
    certified: bool
    jacobian_rank: Optional[int]

    @property
    def failure_term(self) -> Fraction:
        """The pass's chance of a rank mod p below the rank over Q: 0 when
        certified, else ``modular_term(bits)``."""
        return Fraction(0) if self.certified else modular_term(self.bits)

    def kernel(self) -> list[list[Fraction]]:
        """The exact left kernel of the restricted rows at x.  It is never
        larger than rows - rank (a rank mod p is at most the rank over Q; a
        larger kernel raises ``RuntimeError``); it is smaller only when p
        divided the minors at x, an event the modular term bounds.  At full
        rank the kernel is therefore zero, and is returned without an
        elimination."""
        if self.rank == len(self.restricted):
            return []
        lam = left_kernel(self.restricted)
        if len(lam) > len(self.restricted) - self.rank:
            raise RuntimeError(
                f"kernel dimension {len(lam)} at the best sample disagrees with "
                f"its rank {self.rank} over {len(self.restricted)} rows; "
                "internal error")
        return lam

    def kernel_mod_p(self, p: int) -> list[list[int]]:
        """The left kernel of the restricted rows at x modulo the pass's
        prime p, of exactly rows - rank vectors (``RuntimeError`` otherwise)."""
        lam = left_kernel_mod_p(self.restricted, p)
        if len(lam) != len(self.restricted) - self.rank:
            raise RuntimeError(
                f"kernel dimension {len(lam)} mod p at the best sample disagrees "
                f"with its rank {self.rank} over {len(self.restricted)} rows; "
                "internal error")
        return lam


def rank_trials(L: LieAlgebra, rows: Sequence[Sequence[int]],
                sample_rows: Sequence[Sequence[int]], rng: random.Random,
                trials: int, bound: int, p: int) -> RankedTrials:
    """The sample x of V = span(sample_rows) of maximal bracket rank, that
    is of minimal centralizer {sum lam_i rows_i : [sum lam_i rows_i, x] = 0}.

    Precondition: V is ad(rows)-stable, so every bracket [rows_i, x] lies in
    V.  This holds for h acting on h-perp or on the (-1)-eigenspace q, and
    for a subalgebra acting on itself.  The sample rows are a ``Subspace``
    basis, multiples of RREF rows, so a vector of V is fixed by its entries
    at their pivot columns, and brackets are ranked on those dim V columns
    rather than on all dim g.

    Draws ``trials`` samples and keeps the first one of maximal rank.  The
    centralizer dimension can only exceed the generic value, so the minimum
    is the generic one except with probability ``sz_bound``.  Trials are
    ranked modulo the prime p (``rank_mod_p``), which can only under-rank:
    the pass picks the first trial whose rank is the generic one unless p
    divides a nonzero maximal minor of the first trial that reaches it.  p
    is drawn independently of the samples and that minor is at most
    2^bits, bits the largest ``hadamard_bits`` over the bracketed trials, so
    this fails with probability at most ``modular_term(bits)``.

    A trial can certify the pass.  Invariants of g are constant on orbits,
    so every bracket [rows_i, x] lies in the kernel of the invariants'
    Jacobian J(x) on V (``invariant_jacobian_rank``), and the generic rank
    is at most dim V - rank J(x_g) <= dim V - rank_p J(x_1) with x_g a point
    generic for both ranks and x_1 the first trial; it is also at most the
    number of rows.  The smaller of the two is the cap.  A trial ranked mod
    p at the cap has the generic rank over Q too, since no rank over Q is
    above the generic one or below the one mod p: that pass is certified,
    with no failure term, and later trials are drawn, so the random stream
    advances as if each were ranked, but not bracketed.  For h on h-perp the
    Jacobian cap is the generic rank plus 2c (Knop; Vinberg), so it is
    reached exactly when the complexity c is 0, and a certified pass then
    has rank_p J(x_1) = rk, the rank of G/H; it was reached on every
    stabilizer-on-itself pass tested.  J is skipped on a single trial and
    when trial 1 already ranks at dim V (then J(x_1) = 0 on V, as the
    brackets span V) or at the number of rows.

    At the best sample the precondition is checked exactly: each full
    bracket v must equal sum_k (v[p_k] / s_k[p_k]) s_k over the sample rows
    s_k with pivots p_k.  That identity is linear in v, so it makes the
    restriction injective on the brackets' span, and ranks and kernels of
    the restricted rows are those of the full ones; a failure raises
    ``RuntimeError``."""
    pivots = [next(j for j, a in enumerate(s) if a) for s in sample_rows]
    trials = max(1, trials)
    best_rank, bits, cap, jacobian = -1, 0, len(rows), None
    best: Optional[tuple[list[int], list[list[int]], list[list[int]]]] = None
    for t in range(trials):
        x = random_combination(rng, sample_rows, bound, L.dim)
        if best_rank == cap:
            continue  # certified: no trial ranks above the cap
        brackets = [L.bracket(r, x) for r in rows]
        restricted = [[v[q] for q in pivots] for v in brackets]
        bits = max(bits, hadamard_bits(restricted))
        rank = rank_mod_p(restricted, p)
        if rank > best_rank:
            best_rank, best = rank, (x, brackets, restricted)
        if t == 0 and trials > 1 and best_rank < cap:
            jacobian = (0 if best_rank == len(pivots)
                        else L.invariant_jacobian_rank(x, sample_rows, p))
            cap = min(cap, len(pivots) - jacobian)
    x, brackets, restricted = best
    _check_in_span(L.dim, brackets, sample_rows, pivots)
    return RankedTrials(x, restricted, best_rank, bits, best_rank == cap, jacobian)


def _in_span(dim: int, vectors: list[list[int]],
             sample_rows: Sequence[Sequence[int]], pivots: list[int]) -> bool:
    """Whether each vector v equals sum_k (v[p_k] / s_k[p_k]) s_k over the
    sample rows s_k with pivots p_k.  For rows that are multiples of RREF
    rows, that is whether every vector lies in their span; in general it
    says that restricting to the pivot columns is injective on the vectors'
    span."""
    scale = lcm(*(s[q] for s, q in zip(sample_rows, pivots)))
    mults = [scale // s[q] for s, q in zip(sample_rows, pivots)]
    for v in vectors:
        if any(v) and combine([v[q] * m for q, m in zip(pivots, mults)],
                              sample_rows, dim) != [scale * a for a in v]:
            return False
    return True


def _check_in_span(dim: int, vectors: list[list[int]],
                   sample_rows: Sequence[Sequence[int]], pivots: list[int]) -> None:
    """Raise ``RuntimeError`` unless ``_in_span`` holds."""
    if not _in_span(dim, vectors, sample_rows, pivots):
        raise RuntimeError(
            "a bracket at the sample leaves span(sample_rows), which "
            "must be ad(rows)-stable; internal error")


def is_abelian(L: LieAlgebra, rows: Sequence[Sequence], p: int = 0) -> bool:
    """Whether the given vectors pairwise commute: exactly, or, for a prime
    p, modulo p."""
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            v = L.bracket(rows[i], rows[j])
            if any(a % p for a in v) if p else any(v):
                return False
    return True


# -- orthogonal complement and stabilizers -------------------------------------

def perp(e: Embedding) -> Subspace:
    """Annihilator of h in g under the invariant trace form.

    Checks that the form restricted to h is nondegenerate, which makes h
    reductive (Bourbaki, Lie I 6.4) and holds on the Lie algebra of every
    reductive algebraic subgroup: the matrix K(h_i, h_j), read off the
    Gram-applied rows of h, must have a zero kernel, else
    ``DegenerateFormError``.  Stability under ad(h) needs no check here: it
    follows from bracket closure of h (ensured by ``Embedding``) and
    invariance of the trace form (checked once per ambient algebra when it
    is built).
    """
    cached = e._cache.get("perp")
    if cached is not None:
        return cached
    L = e.ambient
    if not L.is_semisimple():
        raise DegenerateFormError("ambient algebra must be semisimple")
    h_rows = e.h_basis.basis
    gram_applied = []
    for hr in h_rows:
        out = [0] * L.dim
        for k, hk in enumerate(hr):
            if hk:
                for j, g in L.gram_rows[k].items():
                    out[j] += hk * g
        gram_applied.append(out)
    support = [[(k, a) for k, a in enumerate(hr) if a] for hr in h_rows]
    form = [[sum(g[k] * a for k, a in nz) for nz in support] for g in gram_applied]
    if kernel(form, len(h_rows)):
        raise DegenerateFormError(
            "trace form restricted to h is degenerate; input is not a "
            "reductive subalgebra of a semisimple ambient algebra")
    result = Subspace(L.dim, tuple(map(tuple, kernel(gram_applied, L.dim))))
    e._cache["perp"] = result
    return result


def stabilizer(e: Embedding, x: Sequence) -> Subspace:
    """The subalgebra {h in h-basis span : [h, x] = 0}, as a subspace of g."""
    L = e.ambient
    h_rows = e.h_basis.basis
    x_int = clear_denominators(x)
    return lift(left_kernel([L.bracket(hr, x_int) for hr in h_rows]), h_rows, L.dim)


def generic_stabilizer(e: Embedding, seed: int = 0, trials: int = 8,
                       coeff_bound: int = 1 << 20) -> GenericStabilizerReport:
    """Stabilizer h* of a generic point of h-perp, with certified failure
    bound.

    ``rank_trials`` ranks each trial's brackets modulo p =
    ``trial_prime(seed)`` on the pivot columns of h-perp ([h, h-perp] lies
    in h-perp), and h* is the kernel at the first trial x of maximal rank.

    When the pass is certified, dim h* is exact, c = 0 and rank_p J(x_1) is
    rk, the rank of G/H, so no exact kernel is taken.  The kernel mod p,
    lifted through h's rows, decides abelianness from its brackets mod p.
    The integer kernel vectors reduce onto that kernel, as the ranks mod p
    and over Q agree at x, so "not abelian" is exact; the reductive rank is
    then rank g - rk (Knop), with no second pass.  "Abelian" is false only
    when p divides a nonzero bracket coordinate of two Cramer kernel
    vectors, which is at most 2^bits (``_abelian_bits`` of the pass's
    ``bits``), so it adds ``modular_term(bits)``; its reductive rank dim h*
    must equal rank g - rk, which a non-abelian h* breaks, and
    ``GenericityError`` is raised otherwise.  The exact basis is built only
    when ``stab_basis`` is read (``_checked_basis``).

    An uncertified pass takes the exact kernel at x once.  Abelianness is
    checked exactly there, and a non-abelian stabilizer gets its reductive
    rank as the generic centralizer dimension of the stabilizer in itself: a
    second ranked pass over the trials on the same random stream and the
    same prime, ranked on the stabilizer's own pivot columns, whose result
    is dim h* minus its best rank mod p, with no kernel.  The failure bound
    is then 2 * ``sz_bound`` plus the ``failure_term`` of each pass."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    key = ("genstab", seed, trials, coeff_bound)
    cached = e._cache.get(key)
    if cached is not None:
        return cached
    L = e.ambient
    rng = random.Random(seed)
    p = trial_prime(seed)
    h_rows = e.h_basis.basis
    first = rank_trials(L, h_rows, perp(e).basis, rng, trials, coeff_bound, p)
    if first.certified:
        dim = len(h_rows) - first.rank
        abelian = dim < 2 or is_abelian(
            L, [[a % p for a in combine(lam, h_rows, L.dim)]
                for lam in first.kernel_mod_p(p)], p)
        rank = dim
        if dim:  # c = 0 makes rank_p J(x_1) the rank of G/H
            rank = L.rank - first.jacobian_rank
            if abelian and rank != dim:
                raise GenericityError(
                    f"abelian stabilizer of dimension {dim} against rank g - rank J "
                    f"= {rank}; retry with a different seed")
        failure = (modular_term(_abelian_bits(L, h_rows, first.bits))
                   if abelian and dim > 1 else Fraction(0))
        basis = partial(_checked_basis, L, h_rows, first, abelian)
    else:
        stab = lift(first.kernel(), h_rows, L.dim)
        stab_rows = stab.basis
        dim = rank = stab.dim
        abelian = is_abelian(L, stab_rows)
        failure = 2 * sz_bound(L.dim, coeff_bound, trials) + first.failure_term
        if not abelian:
            second = rank_trials(L, stab_rows, stab_rows, rng, trials, coeff_bound, p)
            rank = stab.dim - second.rank
            failure += second.failure_term
        basis = lambda: stab  # noqa: E731 - already built
    report = GenericStabilizerReport(
        dim=dim, is_abelian=abelian, reductive_rank=rank, trials=trials,
        coefficient_bound=coeff_bound, failure_bound=failure, build_basis=basis)
    e._cache[key] = report
    return report


def _abelian_bits(L: LieAlgebra, h_rows: Sequence[Sequence[int]],
                  minor_bits: int) -> int:
    """bits with 2^bits above every bracket coordinate of two Cramer left
    kernel vectors of a bracket matrix whose minors are at most
    2^minor_bits, lifted through ``h_rows``: a lifted coordinate k is at
    most 2^minor_bits times sum_i |h_rows[i][k]|, and coordinate k of a
    bracket at most the product of two such bounds times
    sum_{i, j} |c_ij^k|."""
    columns = max(map(sum, zip(*([abs(a) for a in r] for r in h_rows))))
    structure = [0] * L.dim
    for row in L.bracket_rows:
        for terms in row.values():
            for k, c in terms:
                structure[k] += abs(c)
    return 2 * (minor_bits + columns.bit_length()) + max(structure).bit_length()


def _checked_basis(L: LieAlgebra, h_rows: Sequence[Sequence[int]], first: RankedTrials,
                   abelian: bool) -> Subspace:
    """The exact stabilizer at a certified pass's sample, ``lift`` of the
    exact left kernel there, checked against the dimension and the
    abelianness found modulo p (``RuntimeError`` on a mismatch)."""
    stab = lift(first.kernel(), h_rows, L.dim)
    if (stab.dim != len(h_rows) - first.rank
            or is_abelian(L, stab.basis) != abelian):
        raise RuntimeError(
            "the exact stabilizer disagrees with the dimension or abelianness "
            "found modulo p; internal error")
    return stab


# -- symmetric-pair machinery ---------------------------------------------------

def cartan_subspace_stabilizer(e: Embedding, seed: int = 0, trials: int = 8,
                               coeff_bound: int = 1 << 20
                               ) -> tuple[Subspace, Subspace]:
    """(c, z_h(c)) for a Cartan subspace c of the (-1)-eigenspace q, exact.

    q is h-perp with no check: theta preserves the trace form B (it
    conjugates, or minus transpose-conjugates, the matrices, or permutes
    equal blocks), so for x in h and y in q, B(x, y) = B(theta x, theta y) =
    -B(x, y) puts q in h-perp; and dim q = dim g - dim h = dim h-perp, since
    ``perp`` checks B nondegenerate on h, so h's Gram rows are independent.
    Samples x of q are drawn on the stream ``seed`` with the coefficient
    bounds of ``sample_bounds``.  A sample is accepted when x is semisimple
    (``LieAlgebra.is_diagonalizable_in_v``) and c = z_q(x) is abelian; c is
    one exact kernel over the coordinates where the brackets [q_j, x] are
    nonzero.  By Kostant-Rallis (1971), z_q(x) is then a Cartan subspace and
    z_h(x) = z_h(c): z_g(x) = z_h(x) + c is reductive and theta-stable, so
    ad z_h(x) maps c into c, orthogonally to c under the nondegenerate
    trace form of z_g(x), hence to 0.  z_h(x) is one exact kernel of the
    brackets [h_i, x] on q's pivot columns ([h, q] lies in q; checked as
    ``rank_trials`` checks it).  Neither value is a sampled claim, so the
    route adds no failure term; when no sample is accepted it raises
    ``GenericityError``.  Since z_g(c) = z_h(c) + c is a Levi subalgebra
    with c central, the reductive rank of z_h(c) is exactly rank g - dim c."""
    key = ("cartan_stab", seed, trials, coeff_bound)
    cached = e._cache.get(key)
    if cached is not None:
        return cached
    if e.theta_cols is None:
        raise InvolutionError("embedding carries no involution")
    L = e.ambient
    q_rows = perp(e).basis
    rng = random.Random(seed)
    for bound in sample_bounds(trials, coeff_bound):
        x = random_combination(rng, q_rows, bound, L.dim)
        if not L.is_diagonalizable_in_v(x):
            continue
        brackets = [L.bracket(r, x) for r in q_rows]
        cols = sorted({k for v in brackets for k, a in enumerate(v) if a})
        c = lift(left_kernel([[v[k] for k in cols] for v in brackets]),
                 q_rows, L.dim)
        if is_abelian(L, c.basis):
            break
    else:
        raise GenericityError(
            "no sample in q was semisimple with abelian z_q(x); retry with a "
            "different seed")
    h_rows = e.h_basis.basis
    pivots = perp(e).pivots()
    brackets = [L.bracket(r, x) for r in h_rows]
    _check_in_span(L.dim, brackets, q_rows, pivots)
    zc = lift(left_kernel([[v[k] for k in pivots] for v in brackets]), h_rows, L.dim)
    e._cache[key] = (c, zc)
    return c, zc


# -- reductive decomposition ----------------------------------------------------

def decompose_reductive(e_or_pair, subspace: Optional[Subspace] = None) -> IdealDecomposition:
    """Split a reductive subalgebra into its center and simple ideals.

    The derived algebra is split with the adjoint-commutant algorithm: a
    random element of the commutant has a rational minimal polynomial whose
    eigenspaces are sums of ideals; recursion refines until each piece has
    a one-dimensional commutant.  Each commutant is solved modulo a prime
    and certified exactly (``_commutant_basis``): a kernel mod p is never
    smaller than over Q, so lifted independent vectors that pass the exact
    check are the canonical basis an exact solve would give."""
    if subspace is None:
        L, h = e_or_pair.ambient, e_or_pair.h_basis
    else:
        L, h = e_or_pair, subspace
    h_rows = h.basis
    n_h = len(h_rows)
    if n_h == 0:
        return IdealDecomposition(Subspace.zero(L.dim), ())
    # center: lambda with sum lambda_i [h_i, h_j] = 0 for all j
    eq_rows = []
    brackets = [[L.bracket(h_rows[i], h_rows[j]) for j in range(n_h)] for i in range(n_h)]
    for j in range(n_h):
        for t in range(L.dim):
            row = [brackets[i][j][t] for i in range(n_h)]
            if any(row):
                eq_rows.append(row)
    center = lift(kernel(eq_rows, n_h), h_rows, L.dim)
    derived_vecs = [brackets[i][j] for i in range(n_h) for j in range(i + 1, n_h)]
    derived = Subspace.span([v for v in derived_vecs if any(v)], L.dim)
    if center.dim + derived.dim != n_h or center.intersect(derived).dim != 0:
        raise InvalidSubalgebraError(
            "center and derived algebra do not split h; input is not reductive")
    ideals = _split_semisimple(L, derived)
    return IdealDecomposition(center, tuple(ideals))


# a fixed prime: the exact check certifies the commutant at any p
_COMMUTANT_PRIME = (1 << 61) - 1


def _ad_on_subspace(L: LieAlgebra, sub: Subspace) -> list[list[list[int]]]:
    """ad u on sub's coordinates for each basis row u, scaled by the lcm of the
    pivots to integers; coordinate k of v is v[pivot k] / (pivot k)."""
    rows = sub.basis
    pivots = sub.pivots()
    scale = lcm(*(row[c] for row, c in zip(rows, pivots)))
    factors = [scale // row[c] for row, c in zip(rows, pivots)]
    mats = []
    for u in rows:
        cols = []
        for v in rows:
            br = L.bracket(u, v)
            coeffs = [br[c] * f for c, f in zip(pivots, factors)]
            if combine(coeffs, rows, L.dim) != [scale * a for a in br]:
                raise InvalidSubalgebraError("subspace is not an ideal of itself")
            cols.append(coeffs)
        # column j holds [u_i, u_j]; store as matrix acting on coordinates
        mats.append([list(r) for r in zip(*cols)])
    return mats


def _commutant_basis(mats: list[list[list[int]]], d: int,
                     rng: random.Random) -> list[list[list[int]]]:
    """The canonical basis of the matrices commuting with every ``mats``,
    as ``kernel`` gives it for the flattened equations M A = A M.

    The equations of two random combinations of ``mats`` (of all of them
    when there are at most four) are solved modulo ``_COMMUTANT_PRIME`` and
    lifted (``kernel_mod_p_lifted``), and the exact check that every lifted
    M commutes with every A certifies them: dim ker_p >= dim ker_Q of the
    sampled equations >= dim of the commutant, and the lifted M are
    independent, so once all of them pass they are the commutant's canonical
    basis.  A failed lift or check solves the full system exactly."""
    if d == 0:
        return []
    gens = mats
    if len(mats) > 4:
        gens = []
        for _ in range(2):
            coeffs = [rng.randint(-5, 5) for _ in mats]
            gens.append([[sum(c * m[r][s] for c, m in zip(coeffs, mats)) for s in range(d)]
                         for r in range(d)])
    cand = kernel_mod_p_lifted(_commutant_equations(gens, d), d * d, _COMMUTANT_PRIME)
    if cand is None or not all(_commutes(v, A, d) for v in cand for A in mats):
        cand = kernel(_commutant_equations(mats, d), d * d)
    return [[vec[u * d:u * d + d] for u in range(d)] for vec in cand]


def _commutant_equations(gens: list[list[list[int]]], d: int) -> list[list[int]]:
    """The rows of M A - A M = 0 over the row-major entries of M."""
    eq_rows = []
    for A in gens:
        a_cols = list(zip(*A))
        for r in range(d):
            for c in range(d):
                row = [0] * (d * d)
                row[r * d:r * d + d] = a_cols[c]
                for u in range(d):
                    row[u * d + c] -= A[r][u]
                if any(row):
                    eq_rows.append(row)
    return eq_rows


def _commutes(v: list[int], A: list[list[int]], d: int) -> bool:
    """M A == A M, by integer dot products, for M with row-major entries v."""
    a_cols = list(zip(*A))
    return all(sum(map(mul, v[r * d:r * d + d], a_col)) == sum(map(mul, a_row, v[c::d]))
               for r, a_row in enumerate(A) for c, a_col in enumerate(a_cols))


def _min_poly(M: list[list[int]], d: int) -> list[Fraction]:
    """Monic minimal polynomial coefficients (low degree first)."""
    power = [[int(i == j) for j in range(d)] for i in range(d)]
    m_cols = list(zip(*M))
    vecs = []
    while True:
        flat = [a for row in power for a in row]
        vecs.append(flat)
        if len(bareiss_echelon(vecs)[1]) < len(vecs):
            # last power is dependent: solve for the combination
            sol = solve_linear([[vecs[k][t] for k in range(len(vecs) - 1)]
                                for t in range(d * d)], flat)
            if sol is None:
                raise RuntimeError("dependent matrix power left the span of the "
                                   "lower powers; internal error")
            return [-s for s in sol] + [Fraction(1)]
        power = [[sum(map(mul, row, col)) for col in m_cols] for row in power]


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots of a polynomial that splits over Q."""
    poly = clear_denominators(coeffs)
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
        found = None
        for p in sorted(divisors(poly[0])):
            for q in sorted(divisors(poly[-1])):
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
        poly = clear_denominators(quot)
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
        rows = derived.basis
        for lam in sorted(set(roots)):
            shifted = [[C[r][s] - (lam if r == s else 0) for s in range(d)]
                       for r in range(d)]
            piece = lift(kernel(shifted, d), rows, L.dim)
            if piece.dim:
                pieces.extend(_split_semisimple(L, piece, rng))
        if sum(p.dim for p in pieces) == d:
            return sorted(pieces, key=lambda s: (s.dim, s.basis))
    raise GenericityError("commutant splitting failed; retry with a new seed")
