"""Splitting pairs (g, h) into indecomposable factors.

A pair decomposes across a bipartition {A, B} of the simple factors of g
iff dim(h ∩ g_A) + dim(h ∩ g_B) = dim h; any compatible ideal splitting of
h is then forced to be h_i = h ∩ g_i.  Bipartitions are tested by brute
force (at most 2^(m-1) - 1 of them for m <= 8 factors), and the verdict of
the whole pair is the conjunction of the factor verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_linalg import Subspace
from .lie_core import LieAlgebra, build_algebra
from .subalgebras import Embedding
from .criteria import (
    ExactRegularElement,
    RandomizedNegative,
    Verdict,
    VerdictInvariants,
)


class SizeError(ValueError):
    """Too many simple factors for exhaustive bipartition testing."""


_MAX_FACTORS = 8


@dataclass(frozen=True)
class PairFactor:
    factor_indices: tuple[int, ...]
    embedding: Embedding
    strictly_indecomposable: bool


@dataclass(frozen=True)
class PairFactorization:
    ambient: LieAlgebra
    factors: tuple[PairFactor, ...]


def _factor_coordinate_ranges(L: LieAlgebra) -> list[tuple[int, int]]:
    return list(L.factor_basis_slices)


def _intersection_with_factors(e: Embedding, subset: Sequence[int]) -> Subspace:
    ranges = _factor_coordinate_ranges(e.ambient)
    indices: list[int] = []
    for fi in subset:
        b0, b1 = ranges[fi]
        indices.extend(range(b0, b1))
    return e.h_basis.restrict_to_coordinates(indices)


def _restrict_embedding(e: Embedding, subset: tuple[int, ...],
                        part: Subspace) -> Embedding:
    """Re-coordinatize h ∩ g_subset inside the sub-direct-sum ambient."""
    L = e.ambient
    sub_ambient = build_algebra([L.factors[i] for i in subset])
    ranges = _factor_coordinate_ranges(L)
    cols: list[int] = []
    for fi in subset:
        b0, b1 = ranges[fi]
        cols.extend(range(b0, b1))
    vectors = [[v[j] for j in cols] for v in part.basis]
    h = Subspace.span(vectors, sub_ambient.dim)
    return Embedding(sub_ambient, h, constructor=None)


def _bipartitions(m: int):
    for mask in range(1, 1 << (m - 1)):
        a = tuple(i for i in range(m) if mask >> i & 1)
        b = tuple(i for i in range(m) if not mask >> i & 1)
        yield a, b


def _split_indices(e: Embedding, subset: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Recursively split the pair restricted to the given factor subset."""
    if len(subset) == 1:
        return [subset]
    part_h = _intersection_with_factors(e, subset)
    for a, b in _bipartitions(len(subset)):
        sa = tuple(subset[i] for i in a)
        sb = tuple(subset[i] for i in b)
        da = _intersection_with_factors(e, sa).dim
        db = _intersection_with_factors(e, sb).dim
        if da + db == part_h.dim:
            return _split_indices(e, sa) + _split_indices(e, sb)
    return [subset]


def split_pair(e: Embedding) -> PairFactorization:
    """Indecomposable factorization of (g, h), certified exhaustively."""
    L = e.ambient
    if not L.is_semisimple():
        raise ValueError("ambient algebra must be semisimple")
    m = len(L.factors)
    if m > _MAX_FACTORS:
        raise SizeError(f"too many simple factors ({m} > {_MAX_FACTORS})")
    groups = _split_indices(e, tuple(range(m)))
    factors = []
    for subset in sorted(groups):
        if len(subset) == m:
            # indecomposable pair: keep the original embedding (and with it
            # the involution, constructor tag and caches)
            sub = e
        else:
            part = _intersection_with_factors(e, subset)
            sub = _restrict_embedding(e, subset, part)
        factors.append(PairFactor(
            factor_indices=subset,
            embedding=sub,
            strictly_indecomposable=is_strictly_indecomposable(sub)))
    if (sum(f.embedding.ambient.dim for f in factors) != L.dim
            or sum(f.embedding.dim_h for f in factors) != e.dim_h):
        raise RuntimeError("factor dimensions do not add up to the pair's; "
                           "internal error")
    return PairFactorization(L, tuple(factors))


def derived_subalgebra(e: Embedding) -> Subspace:
    L = e.ambient
    rows = e.h_int_rows()
    brackets = []
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            br = L.bracket(rows[i], rows[j])
            if any(br):
                brackets.append(br)
    return Subspace.span(brackets, L.dim)


def is_strictly_indecomposable(e: Embedding) -> bool:
    """True iff (g, [h, h]) is indecomposable."""
    L = e.ambient
    if len(L.factors) == 1:
        return True
    derived = derived_subalgebra(e)
    de = Embedding(L, derived, constructor=None)
    return len(_split_indices(de, tuple(range(len(L.factors))))) == 1


def is_indecomposable(e: Embedding) -> bool:
    if len(e.ambient.factors) == 1:
        return True
    return len(_split_indices(e, tuple(range(len(e.ambient.factors))))) == 1


def combined_verdict(f: PairFactorization,
                     per_factor: Sequence[Verdict]) -> Verdict:
    """Conjunction of factor verdicts: YES iff every factor is a-regular.

    For a YES the factor witnesses are reassembled into one exact regular
    witness for the whole pair (an element of a direct sum is regular iff
    every component is)."""
    if len(per_factor) != len(f.factors):
        raise ValueError("verdict list does not match factorization length")
    yes = all(v.a_regular for v in per_factor)
    c = sum(v.invariants.c for v in per_factor)
    rk = sum(v.invariants.rk for v in per_factor)
    dim_h_star = sum(v.invariants.dim_h_star for v in per_factor)
    dim_borel = sum(v.invariants.dim_borel for v in per_factor)
    inv = VerdictInvariants(c=c, rk=rk, dim_h_star=dim_h_star, dim_borel=dim_borel)
    routes = tuple(sorted(set.intersection(
        *(set(v.routes_agreed) for v in per_factor)))) if per_factor else ()
    if yes:
        ranges = _factor_coordinate_ranges(f.ambient)
        witness = [Fraction(0)] * f.ambient.dim
        for fac, v in zip(f.factors, per_factor):
            cert = v.certificate
            if not isinstance(cert, ExactRegularElement):
                raise ValueError("YES factor verdict lacks an exact witness")
            cols: list[int] = []
            for fi in fac.factor_indices:
                b0, b1 = ranges[fi]
                cols.extend(range(b0, b1))
            for j, x in zip(cols, cert.witness):
                witness[j] = x
        return Verdict(True, ExactRegularElement(tuple(witness)), routes, inv)
    bound = Fraction(0)
    for v in per_factor:
        if not v.a_regular and isinstance(v.certificate, RandomizedNegative):
            bound += v.certificate.failure_bound
    return Verdict(False, RandomizedNegative(bound), routes, inv)
