"""Unit and property tests for the exact rational linear algebra kernel."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aregularity.exact_linalg import (
    DimensionError,
    IntEchelon,
    Subspace,
    bareiss_echelon,
    clear_denominators,
    kernel,
    left_kernel,
    rref,
    solve_linear,
)


def rank(rows):
    return len(rref(rows)[1])


def apply(rows, v):
    return [sum(a * x for a, x in zip(row, v)) for row in rows]


def transpose(rows):
    return [list(col) for col in zip(*rows)]


IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestRankAndKernel:
    def test_zero_matrix(self):
        zero = [[0] * 3 for _ in range(3)]
        assert rank(zero) == 0
        assert Subspace.span(kernel(zero, 3), 3) == Subspace.full(3)

    def test_identity(self):
        assert rank(IDENTITY3) == 3
        assert kernel(IDENTITY3, 3) == []

    def test_proportional_rows(self):
        m = [[1, 2], [2, 4]]
        assert rank(m) == 1
        assert Subspace.span(kernel(m, 2), 2) == Subspace.span([[2, -1]], 2)

    def test_rank_plus_kernel_dim(self):
        m = [[1, 2, 3], [4, 5, 6]]
        kern = kernel(m, 3)
        assert rank(m) + len(kern) == 3
        for v in kern:
            assert apply(m, v) == [0, 0]
        # the left kernel is the kernel of the transpose
        lam = left_kernel(transpose(m))
        assert Subspace.span(lam, 3) == Subspace.span(kern, 3)


class TestSolveLinear:
    def test_identity_solve(self):
        assert solve_linear([[1, 0], [0, 1]], [3, 5]) == (3, 5)

    def test_underdetermined_canonical(self):
        # free variables are set to zero by back substitution
        assert solve_linear([[1, 1]], [2]) == (2, 0)

    def test_inconsistent(self):
        assert solve_linear([[1], [1]], [0, 1]) is None

    def test_rational_entries(self):
        a = [[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(2, 5)]]
        x = solve_linear(a, [Fraction(5, 6), Fraction(2, 5)])
        assert x is not None
        assert apply(a, x) == [Fraction(5, 6), Fraction(2, 5)]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            solve_linear([[1, 0], [0, 1]], [1])


class TestSubspace:
    def test_spans_compare_equal(self):
        u = Subspace.span([[1, 1, 0], [0, 1, 1]], 3)
        v = Subspace.span([[1, 2, 1], [2, 3, 1], [1, 1, 0]], 3)
        assert u == v

    def test_axis_planes(self):
        u = Subspace.span([[1, 0, 0]], 3)
        v = Subspace.span([[0, 1, 0]], 3)
        assert u.sum_with(v).dim == 2
        assert u.intersect(v).dim == 0
        assert not u.contains_subspace(v)

    def test_idempotence(self):
        u = Subspace.span([[1, 2], [0, 1]], 2)
        assert u.sum_with(u) == u
        assert u.intersect(u) == u
        assert u.contains_subspace(u)

    def test_line_in_plane(self):
        u = Subspace.span([[1, 1, 0]], 3)
        v = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
        assert v.intersect(u) == u
        assert v.contains_subspace(u)

    def test_dimension_mismatch(self):
        u, v = Subspace.full(2), Subspace.full(3)
        for op in (u.sum_with, u.intersect, u.contains_subspace):
            with pytest.raises(DimensionError):
                op(v)

    def test_coefficients_of(self):
        u = Subspace.span([[1, 0, 2], [0, 1, 3]], 3)
        coeffs = u.coefficients_of([2, 5, 19])
        assert coeffs == [2, 5]
        assert u.coefficients_of([0, 0, 1]) is None


small_entries = st.integers(min_value=-6, max_value=6)


def vectors(n):
    return st.lists(small_entries, min_size=n, max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(vectors(n), min_size=1, max_size=4))))
def test_rank_equals_transpose_rank(data):
    n, rows = data
    assert rank(rows) == rank(transpose(rows))
    kern = kernel(rows, n)
    assert rank(rows) + len(kern) == n
    assert all(not any(apply(rows, v)) for v in kern)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n),
                        st.lists(vectors(n), min_size=1, max_size=3),
                        st.lists(vectors(n), min_size=1, max_size=3))))
def test_grassmann_identity(data):
    n, us, vs = data
    u = Subspace.span(us, n)
    v = Subspace.span(vs, n)
    assert u.sum_with(v).dim + u.intersect(v).dim == u.dim + v.dim


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(vectors(n), min_size=1, max_size=3),
                        st.lists(st.integers(-3, 3), min_size=4, max_size=4))))
def test_canonical_form_under_row_operations(data):
    n, rows, mix = data
    u = Subspace.span(rows, n)
    # a different spanning set of the same space: original rows plus combinations
    extra = [[sum(c * r[j] for c, r in zip(mix, rows + rows)) for j in range(n)]]
    v = Subspace.span(list(rows) + extra, n)
    assert u == v


def test_int_echelon_membership():
    ech = IntEchelon([[1, 0, 2], [0, 1, 3]])
    assert ech.contains([2, 5, 19])
    assert not ech.contains([0, 0, 1])


# -- the fraction-free Gauss-Jordan rref against Fraction back-substitution ----

def reference_rref(rows):
    """RREF by the integer echelon form plus a Fraction back-substitution."""
    if not rows:
        return [], []
    ech, pivots = bareiss_echelon([clear_denominators(r) for r in rows])
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


def reference_kernel(rows, ncols):
    rr, pivots = reference_rref(rows)
    basis = []
    for f in range(ncols):
        if f not in pivots:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for i, c in enumerate(pivots):
                v[c] = -rr[i][f]
            basis.append(v)
    return basis


def reference_solve(rows, b):
    ncols = len(rows[0])
    rr, piv = reference_rref([list(r) + [bi] for r, bi in zip(rows, b)])
    if ncols in piv:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(piv):
        x[c] = rr[i][ncols]
    return tuple(x)


scalars = st.one_of(small_entries,
                    st.fractions(min_value=-6, max_value=6, max_denominator=5))


@st.composite
def matrices(draw):
    """1..5 x 1..5 rational matrices: low-rank products or dense draws, with
    some rows and columns zeroed."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if draw(st.booleans()):
        k = draw(st.integers(0, min(nr, nc)))
        a = draw(st.lists(st.lists(scalars, min_size=k, max_size=k),
                          min_size=nr, max_size=nr))
        b = draw(st.lists(st.lists(scalars, min_size=nc, max_size=nc),
                          min_size=k, max_size=k))
        m = [[sum((a[i][t] * b[t][j] for t in range(k)), Fraction(0))
              for j in range(nc)] for i in range(nr)]
    else:
        m = draw(st.lists(st.lists(scalars, min_size=nc, max_size=nc),
                          min_size=nr, max_size=nr))
    zero_rows = draw(st.sets(st.integers(0, nr - 1), max_size=nr))
    zero_cols = draw(st.sets(st.integers(0, nc - 1), max_size=nc))
    return [[0 if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(m)]


@settings(max_examples=150, deadline=None)
@given(matrices(), st.lists(scalars, min_size=5, max_size=5))
@example([[1, 2, 3, 4]], [5, 0, 0, 0, 0])
@example([[1], [2], [0], [Fraction(1, 2)]], [1, 2, 0, Fraction(1, 2), 0])
@example([[0, 0], [0, 0]], [1, 0, 0, 0, 0])
def test_gauss_jordan_matches_back_substitution(m, rhs):
    nc = len(m[0])
    assert rref(m) == reference_rref(m)
    assert kernel(m, nc) == reference_kernel(m, nc)
    transposed = [list(col) for col in zip(*m)]
    assert left_kernel(m) == reference_kernel(transposed, len(m))
    b = rhs[:len(m)]
    assert solve_linear(m, b) == reference_solve(m, b)
