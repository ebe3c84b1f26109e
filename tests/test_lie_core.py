"""Structure tests for the split-form classical Lie algebra constructions."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aregularity import lie_core
from aregularity.exact_linalg import bareiss_echelon, clear_denominators
from aregularity.lie_core import (
    LieAlgebra,
    SimpleFactorDescriptor,
    UnsupportedTypeError,
    _check_form_invariance,
    _factor_data,
    _FactorData,
    build_algebra,
    classical_factor,
)
from subspace_ops import power_regular, random_element, zero_element

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
    x = zero_element(L)
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
        x = random_element(L, rng)
        y = random_element(L, rng)
        xy = L.bracket(x, y)
        yx = L.bracket(y, x)
        assert all(a == -b for a, b in zip(xy, yx))
        # ad_x(y) agrees with the bracket
        assert [sum(a * b for a, b in zip(row, y)) for row in L.ad_rows(x)] == xy


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
        assert not any(any(row) for row in L.ad_rows(zero_element(L)))


@pytest.mark.parametrize("factors", TEST_ALGEBRAS)
def test_killing_symmetry_and_invariance(factors, rng):
    L = build_algebra(factors)
    for _ in range(20):
        x, y, z = (random_element(L, rng, 4) for _ in range(3))
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
        x = random_element(L, rng, 3)
        y = random_element(L, rng, 3)
        assert L.killing_form(x, y) == L.trace_form(x, y)


class TestRegularity:
    def test_zero_not_regular(self):
        L = build_algebra([A1])
        reg, cdim = L.is_regular(zero_element(L))
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
            x = random_element(L, rng, 6)
            reg, cdim = L.is_regular(x)
            assert cdim >= L.rank
            found_regular = found_regular or reg
        assert found_regular


REGULARITY_ALGEBRAS = ([[(f, r)] for f in "ABC" for r in range(1, 7)]
                       + [[("D", r)] for r in range(3, 7)]
                       + [[A1, A1], [A2, C2], [B2, D3]])


def strictly_upper_indices(L):
    return [i for i, mat in enumerate(L.basis) if all(a < b for a, b in mat)]


def regular_nilpotent(L, skip=None):
    """The sum of the simple root vectors, leaving out the one at ``skip``."""
    x = zero_element(L)
    for k, i in enumerate(L.simple_e_indices):
        x[i] = int(k != skip)
    return x


def torus_ramp(L, with_nilpotent=False):
    """The torus element with coordinates 0, 1, ..., rank - 1, plus the sum of
    the simple root vectors if ``with_nilpotent``.  In so(2r) the torus part
    is diag(0, 1, ..., r - 1, -(r - 1), ..., -1, 0): regular, with the
    eigenvalue 0 twice."""
    x = regular_nilpotent(L) if with_nilpotent else zero_element(L)
    for a, i in enumerate(L.cartan_indices):
        x[i] = a
    return x


@st.composite
def regularity_cases(draw):
    factors = draw(st.sampled_from(REGULARITY_ALGEBRAS))
    L = build_algebra(factors)
    kind = draw(st.sampled_from(
        ["dense", "sparse", "upper", "torus_upper", "nilpotent", "torus_ramp"]))
    if kind == "dense":
        x = draw(st.lists(st.integers(-3, 3), min_size=L.dim, max_size=L.dim))
    elif kind == "sparse":
        x = draw(st.lists(st.sampled_from([0, 0, 0, 0, 0, 1, -1, 2]),
                          min_size=L.dim, max_size=L.dim))
    elif kind == "nilpotent":
        x = regular_nilpotent(L, draw(st.sampled_from(
            [None] + list(range(len(L.simple_e_indices))))))
    elif kind == "torus_ramp":
        x = torus_ramp(L, draw(st.booleans()))
    else:
        x = zero_element(L)
        for i in strictly_upper_indices(L):
            x[i] = draw(st.integers(-2, 2))
        if kind == "torus_upper":
            # repeated and zero torus entries make most of these non-regular
            for i in L.cartan_indices:
                x[i] = draw(st.sampled_from([0, 0, 1, 1, -1, 2]))
    if draw(st.booleans()):
        x = [Fraction(c, 1 + i % 3) for i, c in enumerate(x)]
    return L, x


def krylov(L, x, seed=0):
    """The Krylov test at one vector per factor from a seeded stream."""
    return L.krylov_regular(x, L.krylov_vectors(random.Random(seed), 1 << 20))


class TestRegularityInV:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(regularity_cases())
    def test_agrees_with_the_ad_rank(self, case):
        L, x = case
        assert krylov(L, x) == L.is_regular(x)[0] == power_regular(L, x)

    @pytest.mark.parametrize("factors", REGULARITY_ALGEBRAS,
                             ids=lambda fs: "+".join(f"{f}{r}" for f, r in fs))
    def test_structured_elements_agree(self, factors):
        L = build_algebra(factors)
        elements = [regular_nilpotent(L, skip)
                    for skip in [None] + list(range(len(L.simple_e_indices)))]
        elements += [torus_ramp(L), torus_ramp(L, with_nilpotent=True)]
        verdicts = [krylov(L, x) for x in elements]
        assert verdicts == [L.is_regular(x)[0] for x in elements]
        assert verdicts == [power_regular(L, x) for x in elements]
        assert verdicts[0] and not any(verdicts[1:-2])

    @pytest.mark.parametrize("rank", [3, 4, 5, 6])
    def test_so_even_needs_one_power_less(self, rank):
        # the regular nilpotent has Jordan type (2r - 1, 1) and the regular
        # torus ramp the eigenvalue 0 twice: both have a minimal polynomial
        # of degree 2r - 1, so the cyclic test of A, B and C would call them
        # non-regular
        L = build_algebra([("D", rank)])
        n = L.matrix_size
        assert L.factors[0].krylov_length == n - 1
        for x in (regular_nilpotent(L), torus_ramp(L)):
            mat = L.matrix_of(x)
            X = [[mat.get((a, b), 0) for b in range(n)] for a in range(n)]
            power = [[int(a == b) for b in range(n)] for a in range(n)]
            flats = []
            for _ in range(n):
                flats.append([v for row in power for v in row])
                power = [[sum(row[t] * X[t][b] for t in range(n))
                          for b in range(n)] for row in power]
            assert len(bareiss_echelon(flats)[1]) == n - 1
            assert L.is_regular(x)[0] and power_regular(L, x)
            assert all(krylov(L, x, seed) for seed in range(5))

    def test_requires_semisimple(self):
        L = build_algebra([A1], center_dim=1)
        with pytest.raises(ValueError, match="semisimple"):
            L.krylov_regular(unit(L, 1), [[1, 2]])

    def test_a_short_rank_is_a_no(self):
        # a zero vector, or one inside an invariant subspace of X, spans a
        # short Krylov sequence even when x is regular
        L = build_algebra([("A", 2)])
        x = regular_nilpotent(L)
        assert krylov(L, x) and L.is_regular(x)[0]
        assert not L.krylov_regular(x, [[0, 0, 0]])
        e1 = [[int(a == i) for a in range(3)] for i in range(3)]
        assert [L.krylov_regular(x, [v]) for v in e1].count(True) == 1


class TestRegularModularRank:
    @pytest.mark.parametrize("factors", [[A2], [B2], [C2], [D3], [A1, A1]])
    def test_one_short_modular_rank_gives_the_exact_answer(self, factors,
                                                           monkeypatch, rng):
        L = build_algebra(factors)
        elements = [regular_nilpotent(L), regular_nilpotent(L, 0), torus_ramp(L),
                    zero_element(L)] + [random_element(L, rng, 3) for _ in range(4)]
        exact = []
        for x in elements:
            cdim = L.dim - len(bareiss_echelon(L.ad_rows(clear_denominators(x)))[1])
            exact.append((cdim == L.rank, cdim))
        assert [L.is_regular(x) for x in elements] == exact
        real = lie_core.rank_mod_p
        monkeypatch.setattr(lie_core, "rank_mod_p", lambda rows, p: real(rows, p) - 1)
        assert [L.is_regular(x) for x in elements] == exact
        assert exact[0][0] and not exact[1][0]

    def test_full_modular_rank_needs_no_exact_rank(self, monkeypatch):
        L = build_algebra([("B", 3)])

        def no_bareiss(rows):
            raise AssertionError("exact rank taken for a certified element")

        monkeypatch.setattr(lie_core, "bareiss_echelon", no_bareiss)
        assert L.is_regular(regular_nilpotent(L)) == (True, L.rank)


def strictly_lower_indices(L):
    return [i for i, mat in enumerate(L.basis) if all(a > b for a, b in mat)]


def conjugate(L, n, x):
    """Ad(exp n) x = sum_k ad(n)^k x / k! for a nilpotent element n."""
    out, term, k = list(x), list(x), 1
    while any(term):
        term = [Fraction(c, k) for c in L.bracket(n, term)]
        out = [a + b for a, b in zip(out, term)]
        k += 1
    return out


def torus_and_commuting_root(L, rng):
    """(d, e): e the first simple root vector and d a torus element with
    alpha(d) = 0 and random other coordinates, so d has a repeated
    eigenvalue, [d, e] = 0, and d + e has a Jordan block."""
    e = unit(L, L.simple_e_indices[0])
    alpha = [L.bracket(unit(L, i), e)[L.simple_e_indices[0]] for i in L.cartan_indices]
    d = zero_element(L)
    for i in L.cartan_indices:
        d[i] = rng.randint(1, 9)
    j = next(k for k, a in enumerate(alpha) if a)
    rest = sum(a * d[i] for k, (a, i) in enumerate(zip(alpha, L.cartan_indices))
               if k != j)
    d[L.cartan_indices[j]] = Fraction(-rest, alpha[j])
    return d, e


class TestDiagonalizableInV:
    @pytest.mark.parametrize("factors", [
        [A2], [("A", 3)], [B2], [("B", 3)], [D3], [("D", 4)], [C2], [("C", 3)],
        [A2, C2], [B2, D3]], ids=lambda fs: "+".join(f"{f}{r}" for f, r in fs))
    def test_conjugated_diagonal_against_jordan_block(self, factors, rng):
        L = build_algebra(factors)
        d, e = torus_and_commuting_root(L, rng)
        assert not any(L.bracket(d, e))
        upper, lower = zero_element(L), zero_element(L)
        for i in strictly_upper_indices(L):
            upper[i] = rng.randint(-2, 2)
        for i in strictly_lower_indices(L):
            lower[i] = rng.randint(-2, 2)

        def p_conj(x):
            return conjugate(L, lower, conjugate(L, upper, x))

        assert L.is_diagonalizable_in_v(p_conj(d))
        assert not L.is_diagonalizable_in_v(p_conj([a + b for a, b in zip(d, e)]))
        assert L.is_diagonalizable_in_v(p_conj(torus_ramp(L)))
        assert L.is_diagonalizable_in_v(zero_element(L))
        assert not L.is_diagonalizable_in_v(regular_nilpotent(L))
        assert not L.is_diagonalizable_in_v(p_conj(regular_nilpotent(L)))

    def test_center_is_diagonal(self):
        L = build_algebra([A1], center_dim=1)
        x = zero_element(L)
        x[-1] = 5
        assert L.is_diagonalizable_in_v(x)
        x[L.simple_e_indices[0]] = 1
        assert not L.is_diagonalizable_in_v(x)


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
            x = random_element(L, rng, 5)
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
    from aregularity.exact_linalg import rref
    L = build_algebra(factors)
    for b0, b1 in L.factor_basis_slices:
        block = [[L.gram_rows[i].get(j, 0) for j in range(b0, b1)]
                 for i in range(b0, b1)]
        assert len(rref(block)[1]) == b1 - b0


# -- the so/sp builders before they were merged, kept as the reference -------

def _reference_factor_data_so(desc: SimpleFactorDescriptor) -> _FactorData:
    m = desc.matrix_size
    n = desc.rank

    def mirror(a, b):
        return (m - 1 - b, m - 1 - a)

    basis, poslookup, posidx = [], {}, {}

    def add_f(a, b):
        idx = len(basis)
        mat = {(a, b): 1}
        ma, mb = mirror(a, b)
        mat[(ma, mb)] = mat.get((ma, mb), 0) - 1
        basis.append(mat)
        for pos, val in mat.items():
            poslookup.setdefault(pos, []).append((idx, val))
        posidx[(a, b)] = idx
        return idx

    cartan = [add_f(a, a) for a in range(n)]
    for a in range(m):
        for b in range(m):
            if a == b or a + b == m - 1:
                continue
            if (a, b) <= mirror(a, b):
                add_f(a, b)
    e = [posidx[(i, i + 1)] for i in range(n - 1)]
    f = [posidx[(i + 1, i)] for i in range(n - 1)]
    if desc.family == "B":
        e.append(posidx[(n - 1, n)])
        f.append(posidx[(n, n - 1)])
    else:
        e.append(posidx[(n - 2, n)])
        f.append(posidx[(n, n - 2)])
    return _FactorData(desc, basis, cartan, e, f, poslookup)


def _reference_factor_data_sp(rank: int) -> _FactorData:
    n = rank
    m = 2 * n

    def eps(a):
        return 1 if a < n else -1

    def mirror(a, b):
        return (m - 1 - b, m - 1 - a)

    basis, poslookup, posidx = [], {}, {}

    def add_g(a, b):
        idx = len(basis)
        if b == m - 1 - a:
            mat = {(a, b): 1}
        else:
            ma, mb = mirror(a, b)
            mat = {(a, b): 1, (ma, mb): -eps(a) * eps(b)}
        basis.append(mat)
        for pos, val in mat.items():
            poslookup.setdefault(pos, []).append((idx, val))
        posidx[(a, b)] = idx
        return idx

    cartan = [add_g(a, a) for a in range(n)]
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            if b == m - 1 - a:
                add_g(a, b)
            elif (a, b) < mirror(a, b):
                add_g(a, b)
    e = [posidx[(i, i + 1)] for i in range(n - 1)] + [posidx[(n - 1, n)]]
    f = [posidx[(i + 1, i)] for i in range(n - 1)] + [posidx[(n, n - 1)]]
    return _FactorData(SimpleFactorDescriptor("C", rank), basis, cartan, e, f, poslookup)


FORM_FACTORS = ([("B", r) for r in range(1, 13)] + [("C", r) for r in range(1, 13)]
                + [("D", r) for r in range(3, 13)])


@pytest.mark.parametrize("family,rank", FORM_FACTORS,
                         ids=[f"{f}{r}" for f, r in FORM_FACTORS])
def test_form_builder_matches_the_separate_so_and_sp_builders(family, rank):
    desc = SimpleFactorDescriptor(family, rank)
    got = _factor_data(desc)
    want = (_reference_factor_data_sp(rank) if family == "C"
            else _reference_factor_data_so(desc))
    assert got.descriptor == want.descriptor
    assert [list(m.items()) for m in got.basis] == [list(m.items()) for m in want.basis]
    assert got.cartan_local == want.cartan_local
    assert got.simple_e_local == want.simple_e_local
    assert got.simple_f_local == want.simple_f_local
    assert list(got.poslookup.items()) == list(want.poslookup.items())


ALL_FACTORS = [SimpleFactorDescriptor(f, r) for f in "ABCD"
               for r in range(3 if f == "D" else 1, 13)]


@pytest.mark.parametrize("desc", ALL_FACTORS, ids=str)
def test_classical_factor_inverts_the_factor_name(desc):
    kind, size = re.fullmatch(r"([a-z]+)(\d+)", str(desc)).groups()
    assert classical_factor(kind, int(size)) == desc


@pytest.mark.parametrize("kind,size", [
    ("sl", 1), ("so", 1), ("so", 2), ("so", 4), ("sp", 3), ("e", 6), ("gl", 3)])
def test_classical_factor_of_a_non_simple_or_unknown_kind_is_none(kind, size):
    assert classical_factor(kind, size) is None
