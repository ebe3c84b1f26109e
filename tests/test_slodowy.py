"""Principal triples, slices, type-A cross-section, non-emptiness bridge."""

import random
from fractions import Fraction

import pytest

from aregularity.exact_linalg import Subspace
from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed
from aregularity.criteria import DecisionConfig, decide
from aregularity.slodowy import (
    Sl2Triple,
    SlodowySlice,
    _char_poly,
    principal_sl2,
    slice_nonempty,
    slice_regularity_check,
    slice_representative_sl,
    slodowy_slice,
)
from subspace_ops import random_element, zero_element

CFG = DecisionConfig(seed=6, trials=4, coeff_bound=1 << 10)

PRINCIPAL_CASES = [
    [("A", 1)], [("A", 2)], [("A", 3)], [("A", 4)],
    [("B", 2)], [("C", 2)], [("C", 3)],
    [("A", 1), ("A", 1)],
]


def sl(n):
    return build_algebra([("A", n - 1)])


@pytest.mark.parametrize("factors", PRINCIPAL_CASES)
def test_principal_triple_relations(factors):
    L = build_algebra(factors)
    t = principal_sl2(L)
    e, h, f = list(t.e), list(t.h), list(t.f)
    assert L.bracket(e, f) == [v for v in h]
    assert L.bracket(h, e) == [2 * v for v in e]
    assert L.bracket(h, f) == [-2 * v for v in f]
    assert L.is_regular(e)[0]


def test_sl3_principal_h_is_diag_2_0_minus2():
    L = sl(3)
    t = principal_sl2(L)
    mat = L.matrix_of(list(t.h))
    assert mat == {(0, 0): 2, (2, 2): -2}


def test_sl2_standard_triple():
    L = sl(2)
    t = principal_sl2(L)
    assert L.matrix_of(list(t.e)) == {(0, 1): 1}
    assert L.matrix_of(list(t.h)) == {(0, 0): 1, (1, 1): -1}
    assert L.matrix_of(list(t.f)) == {(1, 0): 1}


@pytest.mark.parametrize("factors", PRINCIPAL_CASES)
def test_slice_dimension_is_rank(factors):
    L = build_algebra(factors)
    s = slodowy_slice(L, principal_sl2(L))
    assert s.directions.dim == L.rank
    for v in s.directions.basis:
        assert not any(L.bracket(list(principal_sl2(L).f), list(v)))


@pytest.mark.parametrize("factors", [[("A", 2)], [("C", 2)], [("A", 3)]])
def test_slice_points_regular(factors):
    L = build_algebra(factors)
    s = slodowy_slice(L, principal_sl2(L))
    assert slice_regularity_check(L, s, samples=20, seed=3)
    # the base point alone is regular
    assert L.is_regular(list(s.base))[0]


@pytest.mark.parametrize("samples", [0, -1])
def test_slice_regularity_check_needs_a_sample(samples):
    L = build_algebra([("A", 2)])
    s = slodowy_slice(L, principal_sl2(L))
    with pytest.raises(ValueError, match="samples"):
        slice_regularity_check(L, s, samples=samples)


def test_slice_regularity_check_sees_a_non_regular_point():
    L = build_algebra([("A", 2)])
    zero = SlodowySlice(base=(0,) * L.dim, directions=Subspace.zero(L.dim))
    assert not slice_regularity_check(L, zero, samples=1)


class TestCharPoly:
    def test_diag(self):
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
        assert _char_poly(m) == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_nilpotent(self):
        m = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
        assert _char_poly(m) == [Fraction(0), Fraction(0), Fraction(1)]


class TestSliceRepresentative:
    def test_sl2_diag(self):
        L = sl(2)
        x = L.coords_of_matrix({(0, 0): 1, (1, 1): -1})
        pt = slice_representative_sl(L, x)
        assert pt is not None
        assert _char_poly(L.dense_matrix_of(list(pt))) == \
            _char_poly(L.dense_matrix_of(x))

    def test_regular_nilpotent_maps_to_base(self):
        L = sl(3)
        t = principal_sl2(L)
        pt = slice_representative_sl(L, list(t.e))
        assert pt == t.e

    def test_zero_not_regular(self):
        L = sl(3)
        assert slice_representative_sl(L, zero_element(L)) is None

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_char_poly_preserved_on_random_regular(self, n):
        L = sl(n)
        rng = random.Random(42)
        checked = 0
        while checked < 8:
            x = random_element(L, rng, 5)
            if not L.is_regular(x)[0]:
                continue
            pt = slice_representative_sl(L, x)
            assert pt is not None
            assert _char_poly(L.dense_matrix_of(list(pt))) == \
                _char_poly(L.dense_matrix_of(x))
            # idempotence: the slice point maps to itself
            again = slice_representative_sl(L, list(pt))
            assert again == pt
            checked += 1


class TestBridge:
    @pytest.mark.parametrize("maker,expected", [
        (lambda: embed(sl(3), "so_in_sl", {"n": 3}), True),
        (lambda: embed(sl(6), "block_sgl", {"p": 2, "q": 4}), False),
        (lambda: embed(sl(5), "sp_in_sl", {"n": 2}), True),
    ])
    def test_nonempty_matches_decide(self, maker, expected):
        e = maker()
        assert slice_nonempty(e, CFG) is expected
        assert decide(e, CFG).a_regular is expected
