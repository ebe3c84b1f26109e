"""Splitting pairs (g, h) into indecomposable factors.

The ambient coordinates are grouped by simple factor, and h is stored as
its canonical basis (scaled RREF rows), which is unique; the canonical
basis of a direct sum of subspaces on disjoint coordinate sets is the
union of theirs.  So h splits over a partition of the simple factors iff
no basis row touches two parts, and the finest factorization is given by
the connected components of "factors touched by one row".  The same pass on [h, h] decides strict
indecomposability.  The verdict of the whole pair is the conjunction of
the factor verdicts.
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


@dataclass(frozen=True)
class PairFactor:
    factor_indices: tuple[int, ...]
    embedding: Embedding
    strictly_indecomposable: bool


@dataclass(frozen=True)
class PairFactorization:
    ambient: LieAlgebra
    factors: tuple[PairFactor, ...]


def _columns(L: LieAlgebra, group: Sequence[int]) -> list[int]:
    """Ambient coordinates of the simple factors in ``group``."""
    ranges = L.factor_basis_slices
    return [j for fi in group for j in range(*ranges[fi])]


def _factor_groups(L: LieAlgebra, subspace: Subspace) -> list[tuple[int, ...]]:
    """Finest partition of the simple factors of L over which ``subspace``
    splits: the connected components of "touched by one basis row"."""
    ranges = L.factor_basis_slices
    groups = [{fi} for fi in range(len(ranges))]
    for row in subspace.basis:
        touched = {fi for fi, (b0, b1) in enumerate(ranges) if any(row[b0:b1])}
        merged = set().union(*(g for g in groups if g & touched))
        groups = [g for g in groups if not g & touched] + [merged]
    return sorted(tuple(sorted(g)) for g in groups)


def _restrict_embedding(e: Embedding, group: tuple[int, ...]) -> Embedding:
    """h ∩ g_group inside g_group; rows of h outside the group restrict to 0."""
    L = e.ambient
    sub_ambient = build_algebra([L.factors[i] for i in group])
    cols = _columns(L, group)
    rows = [[v[j] for j in cols] for v in e.h_basis.basis]
    return Embedding(sub_ambient, Subspace.span(rows, sub_ambient.dim),
                     constructor=None)


def split_pair(e: Embedding) -> PairFactorization:
    """Indecomposable factorization of (g, h), read off the canonical basis
    of h."""
    L = e.ambient
    if not L.is_semisimple():
        raise ValueError("ambient algebra must be semisimple")
    groups = _factor_groups(L, e.h_basis)
    factors = []
    for group in groups:
        # one group: keep e itself, with its involution, tag and caches
        sub = e if len(groups) == 1 else _restrict_embedding(e, group)
        factors.append(PairFactor(
            factor_indices=group,
            embedding=sub,
            strictly_indecomposable=is_strictly_indecomposable(sub)))
    if (sum(f.embedding.ambient.dim for f in factors) != L.dim
            or sum(f.embedding.dim_h for f in factors) != e.dim_h):
        raise RuntimeError("factor dimensions do not add up to the pair's; "
                           "internal error")
    return PairFactorization(L, tuple(factors))


def derived_subalgebra(e: Embedding) -> Subspace:
    L = e.ambient
    rows = e.h_basis.basis
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
    return (len(L.factors) == 1
            or len(_factor_groups(L, derived_subalgebra(e))) == 1)


def combined_verdict(f: PairFactorization,
                     per_factor: Sequence[Verdict]) -> Verdict:
    """Conjunction of factor verdicts: YES iff every factor is a-regular.

    For a YES the factor witnesses are reassembled into one exact regular
    witness for the whole pair (an element of a direct sum is regular iff
    every component is)."""
    if len(per_factor) != len(f.factors):
        raise ValueError("verdict list does not match factorization length")
    yes = all(v.a_regular for v in per_factor)
    inv = VerdictInvariants(**{k: sum(getattr(v.invariants, k) for v in per_factor)
                               for k in ("c", "rk", "dim_h_star", "dim_borel")})
    routes = tuple(sorted(set.intersection(
        *(set(v.routes_agreed) for v in per_factor)))) if per_factor else ()
    if yes:
        witness = [Fraction(0)] * f.ambient.dim
        for fac, v in zip(f.factors, per_factor):
            cert = v.certificate
            if not isinstance(cert, ExactRegularElement):
                raise ValueError("YES factor verdict lacks an exact witness")
            for j, x in zip(_columns(f.ambient, fac.factor_indices), cert.witness):
                witness[j] = x
        return Verdict(True, ExactRegularElement(tuple(witness)), routes, inv)
    bound = Fraction(0)
    for v in per_factor:
        if not v.a_regular and isinstance(v.certificate, RandomizedNegative):
            bound += v.certificate.failure_bound
    return Verdict(False, RandomizedNegative(bound), routes, inv)
