"""Unit and property tests for the exact rational linear algebra kernel."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aregularity.cli import _basis
from aregularity.exact_linalg import (
    DimensionError,
    _blocks,
    Subspace,
    bareiss_echelon,
    clear_denominators,
    combine,
    hadamard_bits,
    is_prime,
    kernel,
    kernel_mod_p_lifted,
    left_kernel,
    lift,
    rank_mod_p,
    rref,
    solve_linear,
)
from subspace_ops import contains_subspace, sum_with


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
        assert sum_with(u, v).dim == 2
        assert u.intersect(v).dim == 0
        assert not contains_subspace(u, v)

    def test_idempotence(self):
        u = Subspace.span([[1, 2], [0, 1]], 2)
        assert sum_with(u, u) == u
        assert u.intersect(u) == u
        assert contains_subspace(u, u)

    def test_line_in_plane(self):
        u = Subspace.span([[1, 1, 0]], 3)
        v = Subspace.span([[1, 0, 0], [0, 1, 0]], 3)
        assert v.intersect(u) == u
        assert contains_subspace(v, u)

    def test_dimension_mismatch(self):
        u, v = Subspace.full(2), Subspace.full(3)
        for op in (sum_with, Subspace.intersect, contains_subspace):
            with pytest.raises(DimensionError):
                op(u, v)

    def test_span_checks_lengths_before_dropping_zero_vectors(self):
        with pytest.raises(DimensionError):
            Subspace.span([[0, 0]], 3)
        with pytest.raises(DimensionError):
            Subspace.span([[1, 0, 0], [0, 0]], 3)

    def test_coefficients_of(self):
        u = Subspace.span([[1, 0, 2], [0, 1, 3]], 3)
        coeffs = u.coefficients_of([2, 5, 19])
        assert coeffs == [2, 5]
        assert u.coefficients_of([0, 0, 1]) is None

    def test_rows_are_primitive_with_a_positive_pivot(self):
        u = Subspace.span([[-1, Fraction(-1, 2), 0], [0, 0, 6]], 3)
        assert u.basis == ((2, 1, 0), (0, 0, 1))
        assert u.coefficients_of([4, 2, 3]) == [2, 3]
        # the printed basis is the unit-pivot RREF
        assert _basis(u) == [["1", "1/2", "0"], ["0", "0", "1"]]


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
    inter = u.intersect(v)
    assert sum_with(u, v).dim + inter.dim == u.dim + v.dim
    assert inter == Subspace.span(inter.basis, n)


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
    assert all(gcd(*r) == 1 and r[p] > 0 for r, p in zip(u.basis, u.pivots()))
    assert all(type(x) is int for r in u.basis for x in r)


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


def primitive(rows):
    """Unit-pivot RREF rows, each scaled by the lcm of its denominators: the
    primitive integer multiple with a positive pivot, which is how ``rref``,
    ``kernel`` and ``Subspace`` store a row."""
    out = []
    for row in rows:
        den = lcm(*(Fraction(x).denominator for x in row))
        out.append([int(x * den) for x in row])
    return out


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
def matrices(draw, max_dim=5):
    """1..max_dim x 1..max_dim rational matrices: low-rank products or dense
    draws, with some rows and columns zeroed."""
    nr, nc = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
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
    # the canonical kernel basis is a function of the kernel alone, so
    # comparing it with the RREF of the reference basis is as strict as
    # comparing the bases themselves
    nc = len(m[0])
    rr, pivots = reference_rref(m)
    assert rref(m) == (primitive(rr), pivots)
    assert kernel(m, nc) == primitive(reference_rref(reference_kernel(m, nc))[0])
    transposed = [list(col) for col in zip(*m)]
    assert left_kernel(m) == \
        primitive(reference_rref(reference_kernel(transposed, len(m)))[0])
    assert all(type(x) is int for rows in (rref(m)[0], kernel(m, nc), left_kernel(m))
               for r in rows for x in r)
    b = rhs[:len(m)]
    assert solve_linear(m, b) == reference_solve(m, b)


@st.composite
def block_matrices(draw):
    """Block-diagonal matrices of 1..4 blocks of at most 3 x 3, padded with
    zero rows and columns to at most 12 x 12, under random row and column
    permutations."""
    blocks = draw(st.lists(matrices(max_dim=3), min_size=1, max_size=4))
    nr0, nc0 = sum(len(b) for b in blocks), sum(len(b[0]) for b in blocks)
    nr = nr0 + draw(st.integers(0, 12 - nr0))
    nc = nc0 + draw(st.integers(0, 12 - nc0))
    m = [[0] * nc for _ in range(nr)]
    r0 = c0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[r0 + i][c0:c0 + len(row)] = row
        r0, c0 = r0 + len(b), c0 + len(b[0])
    cols = draw(st.permutations(range(nc)))
    return [[row[c] for c in cols] for row in draw(st.permutations(m))]


def assert_exact_partition(m, blocks):
    """The blocks of ``_blocks`` partition the nonzero entries of m into
    connected pieces, in the documented order."""
    nonzero = {(i, j) for i, row in enumerate(m) for j, a in enumerate(row) if a}
    block_rows = [i for bi, _ in blocks for i in bi]
    block_cols = [j for _, cols in blocks for j in cols]
    assert sorted(block_rows) == sorted({i for i, _ in nonzero})
    assert sorted(block_cols) == sorted({j for _, j in nonzero})
    of_row = {i: k for k, (bi, _) in enumerate(blocks) for i in bi}
    of_col = {j: k for k, (_, cols) in enumerate(blocks) for j in cols}
    assert all(of_row[i] == of_col[j] for i, j in nonzero)
    assert [cols[0] for _, cols in blocks] == sorted(cols[0] for _, cols in blocks)
    for bi, cols in blocks:
        assert bi == sorted(bi) and cols == sorted(cols)
        seen, todo = {("r", bi[0])}, [("r", bi[0])]
        while todo:
            kind, x = todo.pop()
            nbrs = [("c", j) for i, j in nonzero if i == x] if kind == "r" else \
                [("r", i) for i, j in nonzero if j == x]
            for n in nbrs:
                if n not in seen:
                    seen.add(n)
                    todo.append(n)
        assert seen == {("r", i) for i in bi} | {("c", j) for j in cols}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(block_matrices())
# blocks with different d, interleaved free columns, a zero row and column
@example([[1, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0], [0, 2, 0, 0, 4, 0]])
def test_block_split_matches_unsplit_elimination(m):
    nr, nc = len(m), len(m[0])
    assert_exact_partition(m, _blocks([clear_denominators(r) for r in m], nc))
    rr, pivots = reference_rref(m)
    assert rref(m) == (primitive(rr), pivots)
    assert kernel(m, nc) == primitive(reference_rref(reference_kernel(m, nc))[0])
    transposed = [list(col) for col in zip(*m)]
    assert left_kernel(m) == \
        primitive(reference_rref(reference_kernel(transposed, nr))[0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_kernel_is_canonical(m):
    nc = len(m[0])
    kern = kernel(m, nc)
    assert [tuple(v) for v in kern] == list(Subspace.span(kern, nc).basis)
    lam = left_kernel(m)
    assert [tuple(v) for v in lam] == list(Subspace.span(lam, len(m)).basis)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(matrices())
def test_kernel_mod_p_lifted_matches_the_kernel(m):
    # small entries: at 2^61 - 1 the kernel mod p is the rational kernel
    # and every entry lies within the reconstruction bound
    rows = [clear_denominators(r) for r in m]
    assert kernel_mod_p_lifted(rows, len(m[0]), (1 << 61) - 1) == kernel(rows, len(m[0]))


def test_kernel_mod_p_lifted_is_only_a_candidate():
    # kernel (1, 7) is 7 = 1/2 mod 13, within the bound 2, so the lift
    # is wrong; kernel (1, 5) has 5 = 2/3 mod 13 and no lift at all
    assert kernel_mod_p_lifted([[7, -1]], 2, 13) == [[2, 1]]
    assert kernel_mod_p_lifted([[5, -1]], 2, 13) is None
    assert kernel_mod_p_lifted([[5, -1]], 2, 61) == kernel([[5, -1]], 2) == [[1, 5]]
    assert kernel_mod_p_lifted([], 2, 13) == [[1, 0], [0, 1]]


nonunit_scales = st.one_of(
    st.integers(-6, 6).filter(lambda x: x not in (0, 1)),
    st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(
        lambda x: x not in (0, 1)))


@st.composite
def lift_inputs(draw, min_dim=0):
    """(coefficient rows, rows, dim): a canonical kernel basis of dimension
    at least ``min_dim`` over non-unit multiples of the rows of a random
    reduced row echelon matrix."""
    dim = draw(st.integers(max(1, min_dim), 5))
    pivots = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=min_dim,
                                 max_size=dim)))
    rows = []
    for p in pivots:
        scale = draw(nonunit_scales)
        rows.append([scale if j == p else
                     scale * draw(scalars) if j > p and j not in pivots else 0
                     for j in range(dim)])
    eqs = draw(st.lists(st.lists(scalars, min_size=len(rows), max_size=len(rows)),
                        max_size=len(rows) - min_dim))
    return kernel(eqs, len(rows)), rows, dim


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lift_inputs())
def test_lift_matches_span_of_combinations(data):
    coeffs, rows, dim = data
    combos = [combine(lam, rows, dim) for lam in coeffs]
    lifted = lift(coeffs, rows, dim)
    assert lifted == Subspace.span(combos, dim)
    assert [list(v) for v in lifted.basis] == primitive(reference_rref(combos)[0])
    assert all(type(x) is int for v in lifted.basis for x in v)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(lift_inputs(min_dim=2))
def test_lift_rejects_non_canonical_coefficients(data):
    coeffs, rows, dim = data
    # leading columns out of order
    with pytest.raises(RuntimeError, match="not canonical"):
        lift(coeffs[::-1], rows, dim)
    # the first vector no longer zero at the second one's leading column
    mixed = [[a + b for a, b in zip(coeffs[0], coeffs[1])]] + coeffs[1:]
    with pytest.raises(RuntimeError, match="not canonical"):
        lift(mixed, rows, dim)


def test_lift_rejects_a_zero_combination():
    with pytest.raises(RuntimeError, match="not canonical"):
        lift([[0, 0]], [[1, 0], [0, 1]], 2)


# 2^61 - 1 and another prime of [2^60, 2^61)
PRIMES = (2305843009213693951, 2053190322028132673)
BIG = 1 << 1000


@st.composite
def int_matrices(draw):
    """Integer matrices with small or 1000-bit entries, stacked with integer
    combinations of their rows (rank-deficient) and zero rows, shuffled."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-BIG, BIG))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=5))
    mixes = draw(st.lists(st.lists(st.integers(-5, 5), min_size=len(base),
                                   max_size=len(base)), max_size=3))
    rows = base + [combine(c, base, ncols) for c in mixes] + \
        [[0] * ncols] * draw(st.integers(0, 2))
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(int_matrices(), st.sampled_from(PRIMES))
@example([[BIG + 1, BIG - 1, 3], [0, 0, 0], [2 * BIG + 2, 2 * BIG - 2, 6]],
         PRIMES[0])
def test_rank_mod_p_matches_bareiss(rows, p):
    ech, pivots = bareiss_echelon(rows)
    assert rank_mod_p(rows, p) == len(pivots)
    # a full-rank square matrix: the last Bareiss pivot is +-det
    if len(pivots) == len(rows) == len(rows[0]):
        assert abs(ech[-1][pivots[-1]]) <= 2 ** hadamard_bits(rows)


def test_rank_mod_p_never_exceeds_the_rational_rank():
    # p divides the one 2 x 2 minor: rank 1 mod p, rank 2 over Q
    p = PRIMES[0]
    rows = [[1, 0], [0, p]]
    assert rank_mod_p(rows, p) == 1 < len(bareiss_echelon(rows)[1])
    assert rank_mod_p([], p) == 0 and rank_mod_p([[p, 2 * p]], p) == 0


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if by_trial_division(n)]


@pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # strong pseudoprimes to the bases 2..7 and 2..23 respectively
    assert not is_prime(n)


def test_is_prime_refuses_beyond_its_proven_range():
    assert is_prime((1 << 61) - 1)
    with pytest.raises(ValueError):
        is_prime(1 << 80)
