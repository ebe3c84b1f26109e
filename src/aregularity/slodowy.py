"""Principal sl2-triples, regular Slodowy slices, and the non-emptiness
bridge.

The principal triple takes e as the sum of the simple-root vectors of the
split form, h as the torus element pairing to 2 against every simple root,
and f as the linear-solve completion of the bracket relations, all of
which are verified exactly.  The slice through e is the affine subspace
e + ker(ad_f); for a principal triple its dimension equals the rank and
every point is regular (checked sample-wise, exactly).

For type A the slice is a cross-section of the adjoint action on regular
elements: a regular element is conjugate to the unique slice point with
the same characteristic polynomial, recovered here by weight-graded
coefficient matching (each slice coordinate enters one characteristic
coefficient linearly, lower weights first).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exact_linalg import (
    Subspace,
    combine,
    kernel,
    left_kernel,
    solve_linear,
)
from .lie_core import ElementVector, LieAlgebra
from .subalgebras import Embedding
from .criteria import DecisionConfig, decide_regular_element


@dataclass(frozen=True)
class Sl2Triple:
    """(e, h, f) with [e,f] = h, [h,e] = 2e, [h,f] = -2f, all exact."""

    e: tuple
    h: tuple
    f: tuple


@dataclass(frozen=True)
class SlodowySlice:
    base: tuple            # = e
    directions: Subspace   # = ker(ad_f)


class TripleConstructionError(RuntimeError):
    """Internal failure while solving the principal-triple relations."""


def _verify_triple(L: LieAlgebra, e, h, f) -> None:
    ef = L.bracket(e, f)
    he = L.bracket(h, e)
    hf = L.bracket(h, f)
    ok = (all(a == b for a, b in zip(ef, h))
          and all(a == 2 * b for a, b in zip(he, e))
          and all(a == -2 * b for a, b in zip(hf, f)))
    if not ok:
        raise TripleConstructionError("triple relations failed exact verification")


def principal_sl2(L: LieAlgebra) -> Sl2Triple:
    """The principal triple over the simple-root vectors of the split form."""
    if not L.is_semisimple():
        raise ValueError("principal triples require a semisimple algebra")
    dim = L.dim
    e: ElementVector = [0] * dim
    for idx in L.simple_e_indices:
        e[idx] = 1
    # h in the torus with alpha_i(h) = 2: [t_k, e_i] = alpha_i(t_k) e_i
    n_t = len(L.cartan_indices)
    n_s = len(L.simple_e_indices)
    rows = []
    for i, ei in enumerate(L.simple_e_indices):
        row = []
        for tk in L.cartan_indices:
            unit = [0] * dim
            unit[tk] = 1
            br = L.bracket(unit, _unit(dim, ei))
            row.append(br[ei])
        rows.append(row)
    sol = solve_linear(rows, [2] * n_s)
    if sol is None:
        raise TripleConstructionError("no torus element pairs to 2 with all simple roots")
    h: ElementVector = [0] * dim
    for tk, c in zip(L.cartan_indices, sol):
        h[tk] = c
    # f = sum c_j f_j with [e, f] = h
    coroots = []
    for ej, fj in zip(L.simple_e_indices, L.simple_f_indices):
        coroots.append(L.bracket(_unit(dim, ej), _unit(dim, fj)))
    cs = solve_linear([[coroots[j][t] for j in range(n_s)] for t in range(dim)], h)
    if cs is None:
        raise TripleConstructionError("bracket relation [e,f] = h is unsolvable")
    f: ElementVector = [0] * dim
    for fj, c in zip(L.simple_f_indices, cs):
        f[fj] = c
    _verify_triple(L, e, h, f)
    regular, _ = L.is_regular(e)
    if not regular:
        raise TripleConstructionError("principal nilpotent failed the regularity check")
    return Sl2Triple(tuple(e), tuple(h), tuple(f))


def _unit(dim: int, i: int) -> ElementVector:
    v = [0] * dim
    v[i] = 1
    return v


def slodowy_slice(L: LieAlgebra, t: Sl2Triple) -> SlodowySlice:
    """The affine slice e + ker(ad_f)."""
    _verify_triple(L, list(t.e), list(t.h), list(t.f))
    kern = kernel(L.ad_rows(t.f), L.dim)
    return SlodowySlice(base=t.e, directions=Subspace(L.dim, tuple(map(tuple, kern))))


def _is_regular(L: LieAlgebra, x: Sequence, rng: random.Random) -> bool:
    """Exact: ``LieAlgebra.krylov_regular``, then the ad rank if it fails."""
    return (L.krylov_regular(x, L.krylov_vectors(rng, 1 << 20))
            or L.is_regular(x)[0])


def slice_regularity_check(L: LieAlgebra, s: SlodowySlice, samples: int = 20,
                           seed: int = 0) -> bool:
    """Exactly verify regularity of ``samples`` sampled points of the slice;
    ``samples`` must be positive."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    vector_rng = random.Random(seed ^ 0x4B52)
    rows = s.directions.basis
    for _ in range(samples):
        step = combine([rng.randint(-9, 9) for _ in rows], rows, L.dim)
        if not _is_regular(L, [b + v for b, v in zip(s.base, step)], vector_rng):
            return False
    return True


def _char_poly(mat: list[list[Fraction]]) -> list[Fraction]:
    """Characteristic polynomial det(tI - M), low-degree coefficients first
    (Faddeev-LeVerrier)."""
    n = len(mat)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # M_k = A * M_{k-1} (+ c_{n-k+1} folded in below)
        am = [[sum(mat[i][t] * m[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs[n - k] = c
        for i in range(n):
            am[i][i] += c
        m = am
    return coeffs


def _weight_graded_directions(L: LieAlgebra, s: SlodowySlice,
                              h: Sequence) -> list[tuple[int, ElementVector]]:
    """Slice directions split into ad_h eigenvectors, weights ascending by
    absolute value (weights are even and non-positive on ker ad_f)."""
    out: list[tuple[int, ElementVector]] = []
    rows = s.directions.basis
    h_brackets = [L.bracket(list(h), v) for v in rows]
    weight = 0
    while len(out) < s.directions.dim and weight <= 2 * L.dim:
        combos = [[a + weight * b for a, b in zip(hv, v)]
                  for hv, v in zip(h_brackets, rows)]
        for coeffs in left_kernel(combos):
            out.append((weight // 2, combine(coeffs, rows, L.dim)))
        weight += 2
    if len(out) != s.directions.dim:
        raise TripleConstructionError("slice directions did not grade by weight")
    return out


def slice_representative_sl(L: LieAlgebra, x: Sequence) -> Optional[tuple]:
    """The unique principal-slice point conjugate to a regular x in sl(n).

    Returns None when x is not regular.  The slice point shares the exact
    characteristic polynomial of x; coefficients are matched greedily in
    weight order, each slice coordinate entering its coefficient linearly."""
    if len(L.factors) != 1 or L.factors[0].family != "A" or L.center_dim:
        raise ValueError("slice representatives are implemented for sl(n) only")
    if not _is_regular(L, x, random.Random(0x4B52)):
        return None
    triple = principal_sl2(L)
    s = slodowy_slice(L, triple)
    graded = _weight_graded_directions(L, s, triple.h)
    target = _char_poly(L.dense_matrix_of(x))
    n = L.matrix_size
    point = [Fraction(v) for v in triple.e]
    for m, direction in graded:
        # coefficient of lambda^(n-m-1) responds linearly to this direction
        pos = n - m - 1
        current = _char_poly(L.dense_matrix_of(point))
        probe = [p + d for p, d in zip(point, direction)]
        probed = _char_poly(L.dense_matrix_of(probe))
        slope = probed[pos] - current[pos]
        if slope == 0:
            raise TripleConstructionError("degenerate slice coordinate")
        step = (target[pos] - current[pos]) / slope
        if step:
            point = [p + step * d for p, d in zip(point, direction)]
    final = _char_poly(L.dense_matrix_of(point))
    if final != target:
        raise TripleConstructionError("characteristic polynomial matching failed")
    return tuple(point)


def slice_nonempty(e: Embedding, cfg: DecisionConfig = DecisionConfig()) -> bool:
    """Whether the slice construction over (g, h) is non-empty, i.e. h-perp
    contains a regular element.  This is ``decide_regular_element``'s
    verdict, not a separate route: it adds no cross-check to ``decide``."""
    return decide_regular_element(e, cfg).a_regular
