"""Structure tests for the split-form classical Lie algebra constructions."""

import dataclasses
import random
from fractions import Fraction

import pytest

from aregularity.lie_core import (
    LieAlgebra,
    SimpleFactorDescriptor,
    UnsupportedTypeError,
    _check_form_invariance,
    build_algebra,
)

A1 = ("A", 1)
A2 = ("A", 2)
B2 = ("B", 2)
C2 = ("C", 2)
D3 = ("D", 3)

TEST_ALGEBRAS = [
    [A1],
    [A2],
    [("A", 3)],
    [B2],
    [("B", 3)],
    [C2],
    [("C", 3)],
    [D3],
    [A1, A1],
    [A2, C2],
    [("A", 6)],  # dim 48: exercises the sampled Jacobi path
]


def unit(L, i):
    x = L.zero_element()
    x[i] = 1
    return x


@pytest.fixture(scope="module")
def rng():
    return random.Random(20240811)


class TestBuild:
    @pytest.mark.parametrize("factors,center,dim,rank", [
        ([A1], 0, 3, 1),
        ([A2], 0, 8, 2),
        ([C2], 0, 10, 2),
        ([B2], 0, 10, 2),
        ([D3], 0, 15, 3),
        ([A1, A1], 0, 6, 2),
        ([A1], 2, 5, 3),
    ])
    def test_dimensions(self, factors, center, dim, rank):
        L = build_algebra(factors, center)
        assert L.dim == dim
        assert L.rank == rank
        assert len(L.basis) == dim
        assert len(L.cartan_indices) == rank

    def test_two_factor_blocks(self):
        L = build_algebra([A1, A1])
        assert L.factor_basis_slices == [(0, 3), (3, 6)]
        # cross-factor brackets vanish
        for i in range(3):
            for j in range(3, 6):
                assert not any(L.bracket(unit(L, i), unit(L, j)))

    def test_exceptional_rejected(self):
        with pytest.raises(UnsupportedTypeError):
            build_algebra([("E", 6)])

    def test_d_rank_restriction(self):
        with pytest.raises(ValueError):
            build_algebra([("D", 2)])


def jacobi_defect(L: LieAlgebra, i, j, k):
    a = L.bracket(unit(L, i), L.bracket(unit(L, j), unit(L, k)))
    b = L.bracket(unit(L, j), L.bracket(unit(L, k), unit(L, i)))
    c = L.bracket(unit(L, k), L.bracket(unit(L, i), unit(L, j)))
    return [x + y + z for x, y, z in zip(a, b, c)]


@pytest.mark.parametrize("factors", TEST_ALGEBRAS)
def test_jacobi_identity(factors, rng):
    L = build_algebra(factors)
    if L.dim <= 40:
        triples = [(i, j, k) for i in range(L.dim)
                   for j in range(i + 1, L.dim) for k in range(j + 1, L.dim)]
    else:
        triples = [(rng.randrange(L.dim), rng.randrange(L.dim), rng.randrange(L.dim))
                   for _ in range(500)]
    for i, j, k in triples:
        assert not any(jacobi_defect(L, i, j, k))


@pytest.mark.parametrize("factors", TEST_ALGEBRAS)
def test_bracket_antisymmetry_linearity(factors, rng):
    L = build_algebra(factors)
    for _ in range(10):
        x = L.random_element(rng)
        y = L.random_element(rng)
        xy = L.bracket(x, y)
        yx = L.bracket(y, x)
        assert all(a == -b for a, b in zip(xy, yx))
        # ad_x(y) agrees with the bracket
        assert list(L.ad_matrix(x).mul_vec(y)) == [Fraction(v) for v in xy]


class TestSl2:
    def test_ad_h_eigenvalues(self):
        L = build_algebra([A1])
        # basis order: H, E01, E10 (torus first)
        h, e, f = unit(L, 0), unit(L, 1), unit(L, 2)
        assert L.bracket(h, e) == [0, 2, 0]
        assert L.bracket(h, f) == [0, 0, -2]
        assert L.bracket(e, f) == [1, 0, 0]

    def test_killing_h_h(self):
        L = build_algebra([A1])
        h = unit(L, 0)
        assert L.killing_form(h, h) == 8

    def test_killing_e_e(self):
        L = build_algebra([A1])
        e = unit(L, 1)
        assert L.killing_form(e, e) == 0

    def test_zero_ad(self):
        L = build_algebra([A1])
        assert all(x == 0 for x in L.ad_matrix(L.zero_element()).entries)


@pytest.mark.parametrize("factors", TEST_ALGEBRAS)
def test_killing_symmetry_and_invariance(factors, rng):
    L = build_algebra(factors)
    for _ in range(20):
        x, y, z = (L.random_element(rng, 4) for _ in range(3))
        assert L.killing_form(x, y) == L.killing_form(y, x)
        lhs = L.killing_form(L.bracket(x, y), z)
        rhs = -L.killing_form(y, L.bracket(x, z))
        assert lhs == rhs


@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (2, 5)])
def test_form_invariance_check_rejects_perturbed_gram(entry):
    L = build_algebra([A2])
    _check_form_invariance(L)
    i, j = entry
    gram = [dict(row) for row in L.gram_rows]
    gram[i][j] = gram[i].get(j, 0) + 1
    with pytest.raises(RuntimeError, match="not ad-invariant"):
        _check_form_invariance(dataclasses.replace(L, gram_rows=gram))


@pytest.mark.parametrize("factors", [[A1], [A2], [B2], [C2], [D3], [("A", 3)]])
def test_scaled_trace_form_matches_trace_of_ad(factors, rng):
    L = build_algebra(factors)
    for _ in range(20):
        x = L.random_element(rng, 3)
        y = L.random_element(rng, 3)
        assert L.killing_form(x, y) == L.trace_form(x, y)


class TestRegularity:
    def test_zero_not_regular(self):
        L = build_algebra([A1])
        reg, cdim = L.is_regular(L.zero_element())
        assert (reg, cdim) == (False, 3)

    def test_nilpotent_e_regular_sl2(self):
        L = build_algebra([A1])
        reg, cdim = L.is_regular(unit(L, 1))
        assert (reg, cdim) == (True, 1)

    def test_sl3_subregular_diagonal(self):
        L = build_algebra([A2])
        # diag(1, 1, -2) = H_0 * 1 + H_1 * 2 in partial-sum coordinates
        x = L.coords_of_matrix({(0, 0): 1, (1, 1): 1, (2, 2): -2})
        assert x is not None
        reg, cdim = L.is_regular(x)
        assert (reg, cdim) == (False, 4)

    @pytest.mark.parametrize("factors", TEST_ALGEBRAS)
    def test_centralizer_bound(self, factors, rng):
        L = build_algebra(factors)
        found_regular = False
        for _ in range(50):
            x = L.random_element(rng, 6)
            reg, cdim = L.is_regular(x)
            assert cdim >= L.rank
            found_regular = found_regular or reg
        assert found_regular


class TestBorelDim:
    @pytest.mark.parametrize("factors,expected", [
        ([A2], 5),
        ([A1], 2),
        ([C2], 6),
        ([B2], 6),
        ([D3], 9),
        ([A2, A1], 7),
    ])
    def test_values(self, factors, expected):
        assert build_algebra(factors).borel_dim() == expected


class TestCoordinates:
    @pytest.mark.parametrize("factors", TEST_ALGEBRAS)
    def test_roundtrip(self, factors, rng):
        L = build_algebra(factors)
        for _ in range(5):
            x = L.random_element(rng, 5)
            back = L.coords_of_matrix(L.matrix_of(x))
            assert back is not None
            assert all(a == b for a, b in zip(back, x))

    def test_non_member_rejected(self):
        L = build_algebra([A1])
        assert L.coords_of_matrix({(0, 0): 1}) is None  # not traceless

    def test_so_membership(self):
        L = build_algebra([B2])
        # E_{0,4} violates the antidiagonal so(5) condition (0 + 4 = m - 1)
        assert L.coords_of_matrix({(0, 4): 1}) is None


@pytest.mark.parametrize("factors", [[A2], [B2], [C2], [D3], [A2, C2]])
def test_form_nondegenerate_per_factor(factors):
    from aregularity.exact_linalg import rank_and_kernel, RationalMatrix
    L = build_algebra(factors)
    for b0, b1 in L.factor_basis_slices:
        block = [[L.gram_rows[i].get(j, 0) for j in range(b0, b1)]
                 for i in range(b0, b1)]
        rank, _ = rank_and_kernel(RationalMatrix.from_rows(block))
        assert rank == b1 - b0
