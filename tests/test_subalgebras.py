"""Embedding constructors, orthogonal complements, stabilizers."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from aregularity.catalog import default_catalog
from aregularity.cli import _verdict_block
from aregularity.criteria import DecisionConfig, decide, knop_invariants, satake_route
from aregularity.exact_linalg import (
    Subspace, bareiss_echelon, clear_denominators, is_prime, kernel, left_kernel, lift,
    rank_mod_p)
from aregularity.lie_core import SimpleFactorDescriptor, _factor_data, build_algebra
from aregularity import constructors, criteria, exact_linalg, subalgebras
from aregularity.subalgebras import (
    BracketClosureError,
    Embedding,
    GenericityError,
    InvolutionError,
    cartan_subspace_stabilizer,
    decompose_reductive,
    embed,
    generic_stabilizer,
    is_abelian,
    modular_term,
    perp,
    random_combination,
    stabilizer,
    sz_bound,
    trial_prime,
)
from subspace_ops import contains_subspace, generic_point, sum_with, zero_element


def sl(n):
    return build_algebra([("A", n - 1)])


def sp(n):
    return build_algebra([("C", n // 2)])


def so(m):
    return build_algebra([("B", m // 2)] if m % 2 else [("D", m // 2)])


class TestConstructors:
    def test_block_sgl_2_2(self):
        e = embed(sl(4), "block_sgl", {"p": 2, "q": 2})
        assert e.dim_h == 7
        dec = e.ideal_decomposition
        assert dec.center.dim == 1
        assert sorted(p.dim for p in dec.simple_ideals) == [3, 3]
        assert e.theta_cols is not None

    def test_named_symmetric_embed_spans_fix_theta_once(self, monkeypatch):
        # embed derives h as Fix(theta); the involution check must not span
        # it a second time
        original, calls = subalgebras.fixed_algebra, []

        def counted(cols):
            calls.append(len(cols))
            return original(cols)

        monkeypatch.setattr(subalgebras, "fixed_algebra", counted)
        e = embed(sl(5), "block_sgl", {"p": 2, "q": 3})
        assert e.dim_h == 12
        assert calls == [24]

    @pytest.mark.parametrize("ambient,constructor,params", [
        (lambda: sl(5), "block_sgl", {"p": 2, "q": 3}),
        (lambda: so(8), "so_block", {"p": 5, "q": 3}),
    ])
    def test_named_symmetric_embed_applies_theta_once_per_column(
            self, monkeypatch, ambient, constructor, params):
        # a derived h, span(1 + theta), is Fix(theta) once theta^2 = 1, so
        # theta is applied to its own columns only, never to h's rows
        original, calls = Embedding.apply_theta, []

        def counted(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(Embedding, "apply_theta", counted)
        e = embed(ambient(), constructor, params)
        assert len(calls) == e.ambient.dim

    def test_so_in_sl_3(self):
        e = embed(sl(3), "so_in_sl", {"n": 3})
        assert e.dim_h == 3
        dec = e.ideal_decomposition
        assert dec.center.dim == 0
        assert [p.dim for p in dec.simple_ideals] == [3]

    def test_diagonal_sl2(self):
        e = embed(build_algebra([("A", 1), ("A", 1)]), "diagonal",
                  {"family": "A", "rank": 1})
        assert e.dim_h == 3

    def test_block_sgl_dimension_formula(self):
        for p, q in [(1, 2), (2, 3), (3, 3)]:
            e = embed(sl(p + q), "block_sgl", {"p": p, "q": q})
            assert e.dim_h == p * p + q * q - 1

    def test_gl_in_sp(self):
        e = embed(sp(4), "gl_in_sp", {"n": 2})
        assert e.dim_h == 4
        assert e.theta_cols is not None

    def test_gl_in_so_even(self):
        e = embed(so(6), "gl_in_so", {"m": 6})
        assert e.dim_h == 9
        assert e.theta_cols is not None

    def test_gl_in_so_odd(self):
        e = embed(so(5), "gl_in_so", {"m": 5})
        assert e.dim_h == 4
        assert e.theta_cols is None

    def test_so_block(self):
        e = embed(so(5), "so_block", {"p": 3, "q": 2})
        assert e.dim_h == 3 + 1
        dec = e.ideal_decomposition
        assert dec.center.dim == 1
        assert [p.dim for p in dec.simple_ideals] == [3]

    def test_so_block_with_so4_part(self):
        e = embed(so(7), "so_block", {"p": 4, "q": 3})
        dec = e.ideal_decomposition
        assert dec.center.dim == 0
        assert sorted(p.dim for p in dec.simple_ideals) == [3, 3, 3]

    def test_sp_block(self):
        e = embed(sp(8), "sp_block", {"parts": [2, 1, 1]})
        assert e.dim_h == 10 + 3 + 3

    def test_sp_in_sl_odd(self):
        e = embed(sl(5), "sp_in_sl", {"n": 2})
        assert e.dim_h == 10
        assert e.theta_cols is None

    def test_sp_in_sl_even_symmetric(self):
        e = embed(sl(4), "sp_in_sl", {"n": 2})
        assert e.dim_h == 10
        assert e.theta_cols is not None

    def test_sp_plus_center(self):
        e = embed(sl(5), "sp_plus_center", {"n": 2})
        assert e.dim_h == 11
        assert e.ideal_decomposition.center.dim == 1

    def test_chain_image(self):
        e = embed(build_algebra([("A", 2), ("A", 1)]), "chain_image", {"n": 2})
        assert e.dim_h == 4
        dec = e.ideal_decomposition
        assert dec.center.dim == 1
        assert [p.dim for p in dec.simple_ideals] == [3]

    def test_so_diag_pair(self):
        e = embed(build_algebra([("D", 3), ("B", 2)]), "so_diag_pair", {"n": 5})
        assert e.dim_h == 10

    def test_sl_sp_glue(self):
        e = embed(build_algebra([("A", 2), ("C", 1)]), "sl_sp_glue",
                  {"n": 3, "m": 1, "with_center": True})
        assert e.dim_h == 1 + 3

    def test_sp_diag2(self):
        e = embed(build_algebra([("C", 1), ("C", 1)]), "sp_diag2", {"m": 1, "n": 1})
        assert e.dim_h == 3

    def test_sp_chain4(self):
        e = embed(build_algebra([("C", 1), ("C", 2), ("C", 1)]), "sp_chain4",
                  {"n": 1, "m": 1})
        assert e.dim_h == 6

    def test_custom_closure_failure(self):
        L = sl(3)
        with pytest.raises(BracketClosureError):
            embed(L, "custom", {"matrices": [
                [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
                [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
            ]})

    def test_custom_non_closed_h_with_a_signed_permutation_involution(self):
        # with an involution the closure check is skipped: h = span(E01, E10)
        # is not closed and is not Fix theta either, which the involution
        # check reports, here for x -> -x^T (a signed permutation of the
        # basis)
        L = sl(3)
        e01, e10 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
        with pytest.raises(InvolutionError, match="fixed algebra"):
            embed(L, "custom", {"involution": {"kind": "neg_transpose"},
                                "matrices": [e01, e10]})

    def test_closure_is_checked_exactly_when_there_is_no_theta(self, monkeypatch):
        checked = []
        monkeypatch.setattr(Embedding, "_validate_closure",
                            lambda self: checked.append(self.constructor[0]))
        embed(sl(4), "block_sgl", {"p": 2, "q": 2})  # signed permutation
        embed(so(8), "so_block", {"p": 5, "q": 3})  # a theta of another kind
        embed(sl(4), "block_one", {"k": 2})  # no theta
        assert checked == ["block_one"]

    def test_closure_with_non_unit_pivots(self):
        # h = span{diag(2, -1, -1), 2 e12 + e13}: both canonical rows have
        # pivot 2, and [H, X] = 3X lies in h
        L = sl(3)
        x = [[0, 2, 1], [0, 0, 0], [0, 0, 0]]
        e = embed(L, "custom", {"matrices": [[[2, 0, 0], [0, -1, 0], [0, 0, -1]], x]})
        assert sorted(next(a for a in r if a) for r in e.h_basis.basis) == [2, 2]
        # with diag(1, 0, -1), [H, X] = 2 e12 + 2 e13 agrees with X on the
        # pivot column e12 but not at e13
        with pytest.raises(BracketClosureError, match="vectors 0, 1"):
            embed(L, "custom", {"matrices": [[[1, 0, 0], [0, 0, 0], [0, 0, -1]], x]})

    def test_block_split_engages_on_block_sgl(self, monkeypatch):
        # perp's Gram rows pair each root space with its opposite, and 1 + theta
        # is diagonal, so rref and kernel must split them into many blocks
        e = embed(sl(10), "block_sgl", {"p": 3, "q": 7})
        original, counts = exact_linalg._blocks, []

        def counted(m, ncols):
            blocks = original(m, ncols)
            counts.append(len(blocks))
            return blocks

        monkeypatch.setattr(exact_linalg, "_blocks", counted)
        perp(e)
        assert counts and max(counts) >= 40
        counts.clear()
        subalgebras.fixed_algebra(e.theta_cols)
        assert counts == [57]

    @pytest.mark.parametrize("p", [0, -1])
    def test_block_sgl_rejects_non_positive_blocks(self, p):
        # with p = 0 the involution would be the identity and h all of sl3
        with pytest.raises(ValueError, match="must be positive"):
            embed(sl(p + 3), "block_sgl", {"p": p, "q": 3})

    def test_unknown_constructor(self):
        with pytest.raises(ValueError):
            embed(sl(3), "does_not_exist", {})

    def test_direct_sum(self):
        amb = build_algebra([("A", 2), ("A", 5)])
        e = embed(amb, "direct_sum", {"parts": [
            {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
            {"constructor": "block_sgl", "params": {"p": 2, "q": 4}, "factors": 1},
        ]})
        assert e.dim_h == 3 + (4 + 16 - 1)


class TestPerp:
    def test_full_h(self):
        L = sl(3)
        e = Embedding(L, Subspace.full(L.dim))
        assert perp(e).dim == 0

    def test_zero_h(self):
        L = sl(3)
        e = Embedding(L, Subspace.zero(L.dim))
        assert perp(e) == Subspace.full(L.dim)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 2), (2, 3)])
    def test_block_sgl_perp_dim(self, p, q):
        e = embed(sl(p + q), "block_sgl", {"p": p, "q": q})
        assert perp(e).dim == 2 * p * q

    def test_ad_invariance_exhaustive(self):
        for maker in [
            lambda: embed(sl(3), "so_in_sl", {"n": 3}),
            lambda: embed(sl(4), "block_sgl", {"p": 2, "q": 2}),
            lambda: embed(sp(4), "gl_in_sp", {"n": 2}),
        ]:
            e = maker()
            L = e.ambient
            pp = perp(e)
            for hv in e.h_basis.basis:
                for pv in pp.basis:
                    assert pp.contains_vector(L.bracket(list(hv), list(pv)))


class TestStabilizer:
    def test_zero_point(self):
        e = embed(sl(3), "so_in_sl", {"n": 3})
        assert stabilizer(e, zero_element(e.ambient)) == e.h_basis

    def test_so3_generic_symmetric(self):
        L = sl(3)
        e = embed(L, "so_in_sl", {"n": 3})
        x = L.coords_of_matrix({(0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
                                (1, 2): 5, (2, 1): 5, (0, 0): 1, (1, 1): 2,
                                (2, 2): -3})
        assert x is not None
        assert stabilizer(e, x).dim == 0

    def test_diag_sl2_at_e_minus_e(self):
        amb = build_algebra([("A", 1), ("A", 1)])
        e = embed(amb, "diagonal", {"family": "A", "rank": 1})
        x = amb.coords_of_matrix({(0, 1): 1, (2, 3): -1})
        assert x is not None
        stab = stabilizer(e, x)
        diag_e = amb.coords_of_matrix({(0, 1): 1, (2, 3): 1})
        assert stab.dim == 1
        assert stab.contains_vector(diag_e)


class TestGenericStabilizer:
    @pytest.mark.parametrize("p,q,dim,abelian", [
        (2, 2, 1, True),
        (2, 3, 2, True),
        (2, 4, 5, False),
        (3, 3, 2, True),
    ])
    def test_sl_block_pairs(self, p, q, dim, abelian):
        e = embed(sl(p + q), "block_sgl", {"p": p, "q": q})
        rep = generic_stabilizer(e, seed=7, trials=4, coeff_bound=1 << 10)
        assert rep.dim == dim
        assert rep.is_abelian == abelian

    def test_so3_in_sl3_trivial(self):
        e = embed(sl(3), "so_in_sl", {"n": 3})
        rep = generic_stabilizer(e, seed=1, trials=4, coeff_bound=1 << 10)
        assert rep.dim == 0
        assert rep.is_abelian

    def test_failure_bound_default(self):
        e = embed(sl(3), "so_in_sl", {"n": 3})
        rep = generic_stabilizer(e, seed=0)
        assert rep.failure_bound < Fraction(1, 2 ** 40)

    @pytest.mark.parametrize("bound", [0, -5])
    def test_non_positive_coefficient_bound_raises(self, bound):
        # with a bound of 0 every coefficient is 0 and no nonzero draw exists
        e = embed(sl(3), "so_in_sl", {"n": 3})
        with pytest.raises(ValueError, match="coefficient bound"):
            generic_stabilizer(e, seed=1, trials=4, coeff_bound=bound)

    def test_monotone_dimension(self):
        e = embed(sl(5), "block_sgl", {"p": 2, "q": 3})
        rep = generic_stabilizer(e, seed=3, trials=4, coeff_bound=1 << 10)
        rows = [list(v) for v in perp(e).basis]
        rng = random.Random(99)
        for _ in range(20):
            x = [0] * e.ambient.dim
            for r in rows:
                c = rng.randint(-50, 50)
                for j, v in enumerate(r):
                    x[j] += c * v
            assert stabilizer(e, x).dim >= rep.dim


def reference_generic_point(L, rows, sample_rows, rng, trials, bound):
    """The per-trial kernel loop: a full left kernel at every sample."""
    best = None
    for _ in range(max(1, trials)):
        x = random_combination(rng, sample_rows, bound, L.dim)
        lam = left_kernel([L.bracket(r, x) for r in rows])
        if best is None or len(lam) < len(best[1]):
            best = (x, lam)
    return best[0], best[1], len(best[1])


def constructible_instances(max_rank):
    cat = default_catalog()
    for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                  "T5_not_regular"):
        for row, params in cat.enumerate(table, max_rank):
            call = row.constructor_call(params)
            descs = row.ambient_descriptors(params)
            if call is not None and descs is not None:
                yield row, params, embed(build_algebra(descs), *call)


@pytest.fixture
def ranked_passes(monkeypatch):
    """The result of every ``rank_trials`` pass run in the test."""
    real, passes = subalgebras.rank_trials, []

    def recording(*args):
        best = real(*args)
        passes.append(best)
        return best

    monkeypatch.setattr(subalgebras, "rank_trials", recording)
    return passes


class TestGenericPoint:
    def test_ranked_trials_match_per_trial_kernels(self):
        # both passes of generic_stabilizer: h on h-perp, then, for a
        # non-abelian stabilizer, the stabilizer on itself
        rank_passes = 0
        for row, params, e in constructible_instances(3):
            L, h_rows = e.ambient, e.h_basis.basis
            passes = [(h_rows, perp(e).basis)]
            new_rng, ref_rng = random.Random(5), random.Random(5)
            while passes:
                rows, sample_rows = passes.pop()
                got = generic_point(L, rows, sample_rows, new_rng, 8, 1 << 20)
                want = reference_generic_point(L, rows, sample_rows, ref_rng,
                                               8, 1 << 20)
                assert got == want, (row.row_id, params)
                assert new_rng.random() == ref_rng.random(), (row.row_id, params)
                stab_rows = lift(got[1], rows, L.dim).basis
                if rows is h_rows and not is_abelian(L, stab_rows):
                    passes.append((stab_rows, stab_rows))
                    rank_passes += 1
        assert rank_passes > 0

    def test_rank_kernel_disagreement_raises(self, monkeypatch):
        real = subalgebras.rank_mod_p
        monkeypatch.setattr(subalgebras, "rank_mod_p",
                            lambda rows, p: real(rows, p) + 1)
        e = embed(sl(5), "block_sgl", {"p": 2, "q": 3})
        with pytest.raises(RuntimeError, match="disagrees with its rank"):
            generic_point(e.ambient, e.h_basis.basis, perp(e).basis,
                          random.Random(0), 2, 1 << 10)

    def test_rank_short_by_one_keeps_the_exact_kernel(self, monkeypatch):
        # p dividing the minors at the best sample under-ranks it; the pass
        # returns the exact kernel there, not rows - (modular rank)
        e = embed(sl(5), "block_sgl", {"p": 2, "q": 3})
        args = (e.ambient, e.h_basis.basis, perp(e).basis)
        want = generic_point(*args, random.Random(0), 2, 1 << 10)
        real = subalgebras.rank_mod_p
        monkeypatch.setattr(subalgebras, "rank_mod_p",
                            lambda rows, p: real(rows, p) - 1)
        got = generic_point(*args, random.Random(0), 2, 1 << 10)
        assert got == want
        assert got[2] == len(got[1]) == 2

    def test_trial_prime(self):
        primes = [trial_prime(seed) for seed in range(20)]
        assert all(1 << 60 <= p < 1 << 61 and is_prime(p) for p in primes)
        assert primes == [trial_prime(seed) for seed in range(20)]
        assert len(set(primes)) == 20

    def test_modular_term(self):
        assert modular_term(0) == 0
        assert modular_term(1) == modular_term(60) == Fraction(1, 2 ** 54)
        assert modular_term(61) == Fraction(2, 2 ** 54)

    @pytest.mark.parametrize("maker, passes", [
        # c = 0 and 4 trials: a certified pass, whose abelian verdict mod p
        # adds the modular term of the bracket bound
        (lambda: (embed(sl(5), "block_sgl", {"p": 2, "q": 3}), 4), 1),
        # a single trial below full rank is never certified: the exact
        # kernel, then a second pass on the non-abelian stabilizer
        (lambda: (embed(sp(6), "sp_sub_center", {"n": 3}), 1), 2),
    ])
    def test_failure_bound_accounts_each_ranked_pass(self, ranked_passes, maker,
                                                     passes):
        e, trials = maker()
        rep = generic_stabilizer(e, seed=3, trials=trials, coeff_bound=1 << 10)
        assert rep.is_abelian == (passes == 1)
        assert len(ranked_passes) == passes
        first = ranked_passes[0]
        if passes == 1:
            assert first.certified and first.failure_term == 0
            bits = subalgebras._abelian_bits(e.ambient, e.h_basis.basis, first.bits)
            assert first.bits == subalgebras.hadamard_bits(first.restricted)
            assert rep.failure_bound == modular_term(bits) > 0
        else:
            assert not any(t.certified for t in ranked_passes)
            assert all(t.failure_term == modular_term(t.bits) > 0 for t in ranked_passes)
            assert rep.failure_bound == 2 * sz_bound(e.ambient.dim, 1 << 10, 1) + \
                sum(t.failure_term for t in ranked_passes)

    def test_certified_non_abelian_stabilizer_has_no_failure_term(self, ranked_passes):
        # sp4 + C < sp6: certified at c = 0, not abelian (exact), and its
        # reductive rank is read off the Jacobian without a second pass
        e = embed(sp(6), "sp_sub_center", {"n": 3})
        rep = generic_stabilizer(e, seed=3, trials=4, coeff_bound=1 << 10)
        assert [t.certified for t in ranked_passes] == [True]
        assert (rep.dim, rep.is_abelian, rep.reductive_rank) == (3, False, 1)
        assert rep.reductive_rank == e.ambient.rank - ranked_passes[0].jacobian_rank
        assert rep.failure_bound == 0

    @pytest.mark.parametrize("root", [(0, 1), (2, 0)])
    def test_unstable_sample_span_raises(self, root):
        # one root vector of sl(3) is not stable under all of sl(3): ranked
        # on its single pivot column, every trial would report rank 1
        L = sl(3)
        unit_rows = [[int(i == j) for j in range(L.dim)] for i in range(L.dim)]
        e_root = L.coords_of_matrix({root: 1})
        with pytest.raises(RuntimeError, match="ad\\(rows\\)-stable"):
            generic_point(L, unit_rows, [e_root], random.Random(0), 4, 1 << 10)


def reference_jacobian_rank(L, x, rows):
    """rank over Q of [tr(X_f^k S_j,f)] for every k = 1, ..., N_f, from dense
    Fraction matrices."""
    X = L.dense_matrix_of(x)
    S = [L.dense_matrix_of(r) for r in rows]
    jac = []
    for desc, off in zip(L.factors, L.factor_matrix_offsets):
        idx = range(off, off + desc.matrix_size)
        block = [[X[a][b] for b in idx] for a in idx]
        power = block
        for _ in range(desc.matrix_size):
            jac.append([sum(power[a - off][b - off] * s[b][a] for a in idx for b in idx)
                        for s in S])
            power = [[sum(power[a][c] * block[c][b] for c in range(len(idx)))
                      for b in range(len(idx))] for a in range(len(idx))]
    return len(bareiss_echelon([clear_denominators(r) for r in jac])[1])


def trial_caps(L, rows, sample_rows, rng, p, trials=8, bound=1 << 20):
    """(the cap at the first of ``trials`` samples, the best rank mod p of
    the trials' restricted brackets), every trial ranked."""
    pivots = [next(j for j, a in enumerate(s) if a) for s in sample_rows]
    xs = [random_combination(rng, sample_rows, bound, L.dim) for _ in range(trials)]
    ranks = [rank_mod_p([[v[q] for q in pivots] for v in (L.bracket(r, x) for r in rows)],
                        p) for x in xs]
    return len(sample_rows) - L.invariant_jacobian_rank(xs[0], sample_rows, p), max(ranks)


def stabilizer_passes(e):
    """(rows, sample rows) of each pass of ``generic_stabilizer`` at the
    default config: h on h-perp, then a non-abelian stabilizer on itself."""
    rep = generic_stabilizer(e)
    yield e.h_basis.basis, perp(e).basis
    if not rep.is_abelian:
        stab = rep.stab_basis.basis
        yield stab, stab


class TestInvariantJacobianCap:
    """The cap dim V - rank_p J(x) that stops ``rank_trials`` after its first
    trial: J's rank is exact, the cap never falls below a trial's rank, and
    it is reached on pairs of complexity 0 and on every stabilizer-on-itself
    pass."""

    def test_rank_matches_the_dense_reference(self):
        p, rng = trial_prime(0), random.Random(7)
        checked = 0
        for row, params, e in constructible_instances(3):
            L = e.ambient
            for rows, sample_rows in stabilizer_passes(e):
                x = random_combination(rng, sample_rows, 1 << 20, L.dim)
                got = L.invariant_jacobian_rank(x, sample_rows, p)
                assert got == reference_jacobian_rank(L, x, sample_rows), \
                    (row.row_id, params)
                checked += 1
        assert checked > 38

    def test_rank_on_the_whole_algebra_is_its_rank(self):
        # on V = g the invariants' differentials are independent at a
        # regular point: rank sl2 + sp4 = 1 + 2; all vanish at 0
        L, p = build_algebra([("A", 1), ("C", 2)]), trial_prime(0)
        units = [[int(i == j) for j in range(L.dim)] for i in range(L.dim)]
        x = random_combination(random.Random(1), units, 1 << 20, L.dim)
        assert L.invariant_jacobian_rank(x, units, p) == 3
        assert reference_jacobian_rank(L, x, units) == 3
        assert L.invariant_jacobian_rank([0] * L.dim, units, p) == 0

    def test_cap_is_sound_and_reached_without_complexity(self):
        p, rng = trial_prime(0), random.Random(11)
        reached = second_passes = 0
        for row, params, e in constructible_instances(4):
            c = knop_invariants(e)["c"]
            for n, (rows, sample_rows) in enumerate(stabilizer_passes(e)):
                cap, best = trial_caps(e.ambient, rows, sample_rows, rng, p)
                assert cap >= best, (row.row_id, params, n)
                if c == 0 or n == 1:
                    assert cap == best, (row.row_id, params, n)
                    reached += 1
                second_passes += n
        assert reached > 60 and second_passes > 5

    def test_identical_factors_sp2_cubed_over_diagonal_sp2(self):
        # T4_spherical:11 at l = m = n = 1: each factor's tr X^2 is its own
        # invariant, so J has rank 3 on the 6-dimensional h-perp
        e = embed(build_algebra([("C", 1)] * 3), "sp_diag3", {"l": 1, "m": 1, "n": 1})
        L, p = e.ambient, trial_prime(0)
        assert e.dim_h == 3
        rows, sample_rows = next(stabilizer_passes(e))
        x = random_combination(random.Random(2), sample_rows, 1 << 20, L.dim)
        assert L.invariant_jacobian_rank(x, sample_rows, p) == 3
        assert trial_caps(L, rows, sample_rows, random.Random(2), p) == (3, 3)

    @pytest.mark.parametrize("p, q, calls", [(3, 7, 1), (5, 5, 1)])
    def test_rank_9_passes_rank_one_trial_each(self, monkeypatch, p, q, calls):
        # each pair's one pass is certified at its first trial; the
        # non-abelian stabilizer of sl10 > s(gl3 + gl7) takes its reductive
        # rank from the Jacobian, not from a second pass
        real, counted = subalgebras.rank_mod_p, []
        monkeypatch.setattr(subalgebras, "rank_mod_p",
                            lambda rows, prime: counted.append(1) or real(rows, prime))
        e = embed(sl(10), "block_sgl", {"p": p, "q": q})
        rep = generic_stabilizer(e)
        assert len(counted) == calls
        assert (rep.dim, rep.is_abelian) == ((18, False) if p == 3 else (4, True))

    def test_full_rank_kernel_is_not_eliminated(self, monkeypatch):
        # so(3) in sl(3) has a zero generic stabilizer: the modular rank is
        # full, so the kernel is zero without an elimination
        want = generic_stabilizer(embed(sl(3), "so_in_sl", {"n": 3}))

        def no_kernel(rows):
            raise AssertionError("left_kernel ran at full rank")

        monkeypatch.setattr(subalgebras, "left_kernel", no_kernel)
        got = generic_stabilizer(embed(sl(3), "so_in_sl", {"n": 3}))
        assert got == want and got.dim == 0


def force_exact_path(monkeypatch):
    """Report every ``rank_trials`` pass as uncertified, with the modular
    term of its bits, as when the Jacobian cap is loose."""
    real = subalgebras.rank_trials

    def uncertified(*args):
        best = real(*args)
        return dataclasses.replace(best, certified=False)

    monkeypatch.setattr(subalgebras, "rank_trials", uncertified)


class TestCertifiedStabilizer:
    """After a certified first pass, ``generic_stabilizer`` tests
    abelianness modulo p, reads the reductive rank off the Jacobian, and
    builds the exact basis only when it is read."""

    def test_fast_path_matches_the_exact_path(self, monkeypatch, ranked_passes):
        fast = []
        for row, params, e in constructible_instances(4):
            ranked_passes.clear()
            fast.append((row.row_id, params, generic_stabilizer(e),
                         ranked_passes[0].certified))
        force_exact_path(monkeypatch)
        paths = {"certified": 0, "certified, dim > 1": 0, "certified, not abelian": 0}
        for (row_id, params, got, certified), (_, _, e) in zip(
                fast, constructible_instances(4)):
            ranked_passes.clear()
            want = generic_stabilizer(e)
            assert (got.dim, got.is_abelian, got.reductive_rank, got.stab_basis) == \
                (want.dim, want.is_abelian, want.reductive_rank, want.stab_basis), \
                (row_id, params)
            assert want.failure_bound == 2 * sz_bound(e.ambient.dim, 1 << 20, 8) + \
                sum(modular_term(t.bits) for t in ranked_passes)
            paths["certified"] += certified
            paths["certified, dim > 1"] += certified and got.dim > 1
            paths["certified, not abelian"] += certified and not got.is_abelian
        assert paths["certified"] > 55 and paths["certified, dim > 1"] > 10 \
            and paths["certified, not abelian"] > 5, paths

    @pytest.mark.parametrize("p, q, pinned", [
        (3, 7, "203314953049f11c137a82f50a584aa271da2e40028d18a6e79e5f633d907439"),
        (5, 5, "a6a524f1026d904d2cd897fd117f4d5b0f83f198db5f7f6f10d5539bec0b4f8f"),
    ])
    def test_rank_9_decide_takes_no_exact_stabilizer_kernel(self, monkeypatch, p, q,
                                                            pinned):
        # the verdict blocks of the two rank-9 pairs, pinned before the
        # certified path existed, come out with no exact kernel at all
        def no_kernel(self):
            raise AssertionError("decide took an exact stabilizer kernel")

        monkeypatch.setattr(subalgebras.RankedTrials, "kernel", no_kernel)
        e = embed(sl(10), "block_sgl", {"p": p, "q": q})
        block = json.dumps(_verdict_block(decide(e, DecisionConfig())),
                           sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(block.encode()).hexdigest() == pinned

    def test_basis_is_built_once_and_only_when_read(self, monkeypatch):
        real, calls = subalgebras.RankedTrials.kernel, []
        monkeypatch.setattr(subalgebras.RankedTrials, "kernel",
                            lambda self: calls.append(1) or real(self))
        e = embed(sl(6), "block_sgl", {"p": 2, "q": 4})
        rep = generic_stabilizer(e)
        assert calls == []
        assert rep.stab_basis.dim == rep.dim == 5 and rep.stab_basis is rep.stab_basis
        assert calls == [1]

    @pytest.mark.parametrize("maker", [
        lambda: embed(sl(6), "block_sgl", {"p": 2, "q": 4}),
        lambda: embed(sp(6), "sp_sub_center", {"n": 3}),
        lambda: embed(sl(10), "block_sgl", {"p": 3, "q": 7}),
    ])
    def test_false_abelian_verdict_fails_the_jacobian_check(self, monkeypatch, maker):
        # every bracket mod p read as zero: the non-abelian stabilizer looks
        # abelian, and dim h* then exceeds rank g - rank_p J(x_1)
        real = subalgebras.is_abelian
        monkeypatch.setattr(subalgebras, "is_abelian",
                            lambda L, rows, p=0: True if p else real(L, rows))
        with pytest.raises(GenericityError, match="rank J"):
            generic_stabilizer(maker())

    def test_exact_basis_is_checked_against_the_modular_verdict(self, ranked_passes):
        e = embed(sl(6), "block_sgl", {"p": 2, "q": 4})
        rep = generic_stabilizer(e)
        args = (e.ambient, e.h_basis.basis, ranked_passes[0])
        assert subalgebras._checked_basis(*args, rep.is_abelian) == rep.stab_basis
        with pytest.raises(RuntimeError, match="abelianness found modulo p"):
            subalgebras._checked_basis(*args, not rep.is_abelian)

    def test_abelian_checks_every_pair(self):
        # E01 and E02 commute, E02 and E12 commute, E01 and E12 do not
        L = sl(3)
        rows = [L.coords_of_matrix({pos: 1}) for pos in ((0, 1), (0, 2), (1, 2))]
        for p in (0, trial_prime(0)):
            assert is_abelian(L, rows[:2], p)
            assert not is_abelian(L, rows, p)

    def test_left_kernel_mod_p_matches_the_exact_kernel(self):
        p, rng = trial_prime(0), random.Random(4)
        for rows_n, cols_n, rank in ((6, 4, 3), (5, 7, 5), (4, 4, 0), (3, 2, 2)):
            basis = [[rng.randint(-9, 9) for _ in range(cols_n)] for _ in range(rank)]
            rows = [[sum(rng.randint(-3, 3) * b[j] for b in basis) for j in range(cols_n)]
                    for _ in range(rows_n)]
            got = exact_linalg.left_kernel_mod_p(rows, p)
            assert len(got) == rows_n - rank_mod_p(rows, p)
            assert all(sum(l * r[j] for l, r in zip(lam, rows)) % p == 0
                       for lam in got for j in range(cols_n))
            assert rank_mod_p(got, p) == len(got)
            want = [[a.numerator * pow(a.denominator, -1, p) % p for a in lam]
                    for lam in left_kernel(rows)]
            assert rank_mod_p(got + want, p) == len(got) == len(want)


class TestDecompose:
    def test_gl2_style(self):
        e = embed(sl(4), "block_sgl", {"p": 2, "q": 2})
        dec = decompose_reductive(e)
        assert dec.center.dim == 1
        assert sorted(p.dim for p in dec.simple_ideals) == [3, 3]

    def test_diag_sl2(self):
        amb = build_algebra([("A", 1), ("A", 1)])
        e = embed(amb, "diagonal", {"family": "A", "rank": 1})
        dec = decompose_reductive(e)
        assert dec.center.dim == 0
        assert [p.dim for p in dec.simple_ideals] == [3]

    def test_two_sl2_in_sl4(self):
        e = embed(sl(4), "block_ss", {"p": 2, "q": 2})
        dec = decompose_reductive(e)
        assert dec.center.dim == 0
        assert sorted(p.dim for p in dec.simple_ideals) == [3, 3]
        # pairwise brackets between distinct pieces vanish
        L = e.ambient
        a, b = dec.simple_ideals
        for u in a.basis:
            for v in b.basis:
                assert not any(L.bracket(list(u), list(v)))

    def test_sum_of_pieces(self):
        e = embed(sl(5), "block_sgl", {"p": 2, "q": 3})
        dec = decompose_reductive(e)
        total = dec.center
        for p in dec.simple_ideals:
            total = sum_with(total, p)
        assert total == e.h_basis


CONSTRUCTOR_CASES = (
    ([("A", 3)], "block_sgl", {"p": 2, "q": 2}),
    ([("A", 4)], "block_sgl", {"p": 2, "q": 3}),
    ([("A", 3)], "block_ss", {"p": 2, "q": 2}),
    ([("A", 2)], "so_in_sl", {"n": 3}),
    ([("A", 1), ("A", 1)], "diagonal", {"family": "A", "rank": 1}),
    ([("C", 2)], "gl_in_sp", {"n": 2}),
    ([("D", 3)], "gl_in_so", {"m": 6}),
    ([("B", 2)], "gl_in_so", {"m": 5}),
    ([("B", 2)], "so_block", {"p": 3, "q": 2}),
    ([("B", 3)], "so_block", {"p": 4, "q": 3}),
    ([("C", 4)], "sp_block", {"parts": [2, 1, 1]}),
    ([("A", 4)], "sp_in_sl", {"n": 2}),
    ([("A", 3)], "sp_in_sl", {"n": 2}),
    ([("A", 4)], "sp_plus_center", {"n": 2}),
    ([("A", 2), ("A", 1)], "chain_image", {"n": 2}),
    ([("D", 3), ("B", 2)], "so_diag_pair", {"n": 5}),
    ([("A", 2), ("C", 1)], "sl_sp_glue", {"n": 3, "m": 1, "with_center": True}),
    ([("C", 1), ("C", 1)], "sp_diag2", {"m": 1, "n": 1}),
    ([("C", 1), ("C", 2), ("C", 1)], "sp_chain4", {"n": 1, "m": 1}),
    ([("A", 2), ("A", 5)], "direct_sum", {"parts": [
        {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
        {"constructor": "block_sgl", "params": {"p": 2, "q": 4}, "factors": 1}]}),
)


def conjugated_so4():
    """so(4) < sl(4) conjugated by diag(1, 2, 3, 5): its commutant basis has
    entries up to 225, beyond the reconstruction bound of small primes."""
    d = (1, 2, 3, 5)
    mats = []
    for i in range(4):
        for j in range(i + 1, 4):
            m = [["0"] * 4 for _ in range(4)]
            m[i][j], m[j][i] = f"{d[i]}/{d[j]}", f"-{d[j]}/{d[i]}"
            mats.append(m)
    return embed(sl(4), "custom", {"matrices": mats})


def decomposition_cases():
    for descs, name, params in CONSTRUCTOR_CASES:
        yield embed(build_algebra(descs), name, params)
    yield conjugated_so4()
    for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                  "T5_not_regular"):
        for row, params in default_catalog().enumerate(table, 3):
            call, descs = row.constructor_call(params), row.ambient_descriptors(params)
            if call is not None and descs is not None:
                L = build_algebra(descs)
                named = embed(L, *call)
                yield embed(L, "custom", {
                    "matrices": [L.dense_matrix_of(v) for v in named.h_basis.basis]})


def exact_decomposition(e, monkeypatch):
    """decompose_reductive with the modular commutant solve failing."""
    with monkeypatch.context() as m:
        m.setattr(subalgebras, "kernel_mod_p_lifted", lambda *args: None)
        return decompose_reductive(e.ambient, e.h_basis)


class TestModularCommutant:
    def test_modular_solve_matches_the_exact_path(self, monkeypatch):
        n = 0
        for e in decomposition_cases():
            assert decompose_reductive(e.ambient, e.h_basis) == \
                exact_decomposition(e, monkeypatch)
            n += 1
        assert n > len(CONSTRUCTOR_CASES) + 20

    def commutant_inputs(self):
        e = embed(sl(5), "block_sgl", {"p": 2, "q": 3})
        derived = Subspace.span([v for p in decompose_reductive(e).simple_ideals
                                 for v in p.basis], e.ambient.dim)
        return e, subalgebras._ad_on_subspace(e.ambient, derived), derived.dim

    def test_corrupted_candidate_is_rejected(self, monkeypatch):
        e, mats, d = self.commutant_inputs()
        reference = subalgebras._commutant_basis(mats, d, random.Random(1))
        assert [[a for row in M for a in row] for M in reference] == \
            kernel(subalgebras._commutant_equations(mats, d), d * d)
        lifted = subalgebras.kernel_mod_p_lifted
        exact_calls = []
        kernel_ = subalgebras.kernel

        def corrupted(*args):
            cand = lifted(*args)
            cand[0][-1] += 1
            return cand

        monkeypatch.setattr(subalgebras, "kernel_mod_p_lifted", corrupted)
        monkeypatch.setattr(subalgebras, "kernel", lambda *args: exact_calls.append(
            args[1]) or kernel_(*args))
        assert subalgebras._commutant_basis(mats, d, random.Random(1)) == reference
        assert exact_calls == [d * d]
        assert decompose_reductive(e.ambient, e.h_basis) == \
            exact_decomposition(e, monkeypatch)

    def test_prime_too_small_for_reconstruction_falls_back(self, monkeypatch):
        e = conjugated_so4()
        reference = exact_decomposition(e, monkeypatch)
        lifted = subalgebras.kernel_mod_p_lifted
        results = []
        monkeypatch.setattr(subalgebras, "_COMMUTANT_PRIME", 8191)
        monkeypatch.setattr(subalgebras, "kernel_mod_p_lifted",
                            lambda *args: results.append(lifted(*args)) or results[-1])
        assert decompose_reductive(e.ambient, e.h_basis) == reference
        assert results and results[0] is None
        assert sorted(p.dim for p in reference.simple_ideals) == [3, 3]


def symmetric_pairs(max_rank):
    """Every catalog instance with an involution at ambient rank <= max_rank,
    plus the symmetric constructors the catalog does not reach there."""
    cat = default_catalog()
    for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                  "T5_not_regular"):
        for row, params in cat.enumerate(table, max_rank):
            call = row.constructor_call(params)
            descs = row.ambient_descriptors(params)
            if call is not None and descs is not None:
                e = embed(build_algebra(descs), call[0], call[1])
                if e.theta_cols is not None:
                    yield e
    yield embed(sl(4), "sp_in_sl", {"n": 2})
    yield embed(sp(6), "sp_block", {"parts": [2, 1]})
    yield embed(sl(3), "custom", {"involution": {"kind": "neg_transpose"},
                                  "matrices": [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
                                               [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
                                               [[0, 0, 0], [0, 0, 1], [0, -1, 0]]]})
    yield embed(build_algebra([("A", 2), ("A", 1)]), "direct_sum", {"parts": [
        {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
        {"constructor": "block_sgl", "params": {"p": 1, "q": 1}, "factors": 1},
    ]})
    yield embed(build_algebra([("A", 1), ("A", 1)]), "custom", {
        "involution": {"kind": "swap"},
        "matrices": [[[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
                     [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
                     [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]]})
    # conjugation by S = [[1, 1, 0], [0, -1, 0], [0, 0, 1]], not a signed
    # permutation, and by the fractional S / 2, whose square is I / 4, not I;
    # both give the same theta, and h = Fix theta
    for s in ([[1, 1, 0], [0, -1, 0], [0, 0, 1]],
              [["1/2", "1/2", 0], [0, "-1/2", 0], [0, 0, "1/2"]]):
        yield embed(sl(3), "custom", {
            "involution": {"kind": "conjugation", "matrix": s},
            "matrices": [[[1, 1, 0], [0, -1, 0], [0, 0, 0]],
                         [[0, -1, 0], [0, 2, 0], [0, 0, -2]],
                         [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
                         [[0, 0, 0], [0, 0, 0], [2, 1, 0]]]})


@lru_cache(maxsize=None)
def symmetric_pairs_4():
    return tuple(symmetric_pairs(4))


class TestInvolutionCheck:
    def test_theta_obeys_the_automorphism_law_on_every_pair(self):
        # theta[x_i, x_j] = [theta x_i, theta x_j] on every basis pair, zero
        # brackets included, with theta applied by a product kept here
        def apply(cols, x):
            terms = [(cols[k], xk) for k, xk in enumerate(x) if xk]
            return [sum(c[i] * xk for c, xk in terms) for i in range(len(x))]

        pairs = symmetric_pairs_4()
        assert len(pairs) >= 38
        assert {e.constructor[0] for e in pairs} >= {"custom", "direct_sum", "so_block"}
        for e in pairs:
            L, cols = e.ambient, e.theta_cols
            units = [[int(k == i) for k in range(L.dim)] for i in range(L.dim)]
            for i in range(L.dim):
                for j in range(i + 1, L.dim):
                    assert apply(cols, L.bracket(units[i], units[j])) == \
                        L.bracket(cols[i], cols[j]), (e.constructor, i, j)


class TestSymmetric:
    def test_perp_is_minus_one_eigenspace(self):
        for e in symmetric_pairs(4):
            n = e.ambient.dim
            theta_plus_one = [[e.theta_cols[j][i] + (i == j) for j in range(n)]
                              for i in range(n)]
            assert perp(e) == Subspace.span(kernel(theta_plus_one, n), n), e.constructor

    def test_z_h_dimension_is_the_adjoint_rank_count(self):
        # for x in q, ad x maps h to q and q to h, minus each other's
        # adjoint under the trace form, so dim z_h(x) = dim h - dim q +
        # dim z_q(x): at x = 0, at a nilpotent basis row of q, at three
        # random points of q, and at the satake route's own sample, where
        # the route reports the count and builds the basis on read
        def nilpotent(L, x):
            m = power = L.dense_matrix_of(x)
            for _ in range(L.matrix_size - 1):
                power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)]
                         for row in power]
            return any(map(any, m)) and not any(map(any, power))

        rng, with_nilpotent = random.Random(7), 0
        for e in symmetric_pairs_4():
            L, q_rows = e.ambient, perp(e).basis
            points = [[0] * L.dim] + [random_combination(rng, q_rows, 3, L.dim)
                                      for _ in range(3)]
            nil = next((list(r) for r in q_rows if nilpotent(L, r)), None)
            if nil is not None:
                points.append(nil)
                with_nilpotent += 1
            for x in points:
                z_q = len(left_kernel([L.bracket(r, x) for r in q_rows]))
                assert stabilizer(e, x).dim == e.dim_h - len(q_rows) + z_q, \
                    (e.constructor, x)
            rep = satake_route(e, DecisionConfig(seed=3, trials=4,
                                                 coeff_bound=1 << 10)).certificate.report
            assert rep.dim == rep.stab_basis.dim, e.constructor
        # only q = symmetric matrices (so_n in sl_n, x -> -x^T) has no
        # nonzero rational nilpotent: real symmetric matrices diagonalize
        assert with_nilpotent >= len(symmetric_pairs_4()) - 4

    def test_satake_exact_rank_matches_sampled_rank(self):
        cfg = DecisionConfig(seed=3, trials=4, coeff_bound=1 << 10)
        for e in symmetric_pairs(4):
            exact = satake_route(e, cfg).certificate.report.reductive_rank
            rep = generic_stabilizer(e, seed=cfg.seed, trials=cfg.trials,
                                     coeff_bound=cfg.coeff_bound)
            assert exact == rep.reductive_rank, e.constructor

    def test_satake_route_is_exact(self, monkeypatch):
        cfg = DecisionConfig(seed=3, trials=4, coeff_bound=1 << 10)
        e = embed(sl(4), "block_sgl", {"p": 2, "q": 2})
        knop_invariants(e, cfg)  # the route's invariants come from route 2

        def no_rank_pass(*args):
            raise AssertionError("the satake route ran a ranked pass")

        monkeypatch.setattr(subalgebras, "rank_trials", no_rank_pass)
        monkeypatch.setattr(subalgebras, "trial_prime", no_rank_pass)
        rep = satake_route(e, cfg).certificate.report
        assert rep.failure_bound == 0
        assert (rep.dim, rep.reductive_rank) == (1, 1)  # z_h(c) = C, dim c = 2

    def test_non_generic_best_sample_raises(self, monkeypatch):
        # every sample is x = 0, where z_q(x) = q is not abelian
        monkeypatch.setattr(subalgebras, "random_combination",
                            lambda rng, rows, bound, dim: [0] * dim)
        e = embed(sl(3), "so_in_sl", {"n": 3})
        with pytest.raises(GenericityError):
            cartan_subspace_stabilizer(e, seed=5, trials=2, coeff_bound=1 << 10)

    @staticmethod
    def _sl2_torus():
        # sl(2) > s(gl1 + gl1), which is so(2) in split form: q is spanned
        # by E_01 and E_10, and E_01 is a nilpotent with z_q(E_01) = C E_01
        e = embed(sl(2), "block_sgl", {"p": 1, "q": 1})
        nilpotent = e.ambient.coords_of_matrix({(0, 1): 1})
        assert perp(e).contains_vector(nilpotent)
        z_q = lift(left_kernel([e.ambient.bracket(r, nilpotent)
                                for r in perp(e).basis]),
                   perp(e).basis, e.ambient.dim)
        assert z_q == Subspace.span([nilpotent], e.ambient.dim)
        return e, nilpotent

    def test_non_semisimple_sample_is_skipped(self, monkeypatch):
        e, nilpotent = self._sl2_torus()
        real, draws = subalgebras.random_combination, []

        def nilpotent_first(rng, rows, bound, dim):
            draws.append(real(rng, rows, bound, dim))
            return nilpotent if len(draws) == 1 else draws[-1]

        monkeypatch.setattr(subalgebras, "random_combination", nilpotent_first)
        c, x = cartan_subspace_stabilizer(e, seed=5, trials=2, coeff_bound=1 << 10)
        assert len(draws) == 2 and x == draws[1]
        assert c == Subspace.span([draws[1]], e.ambient.dim)
        assert stabilizer(e, x).dim == 0

    def test_non_semisimple_sample_with_abelian_z_q_is_skipped(self, monkeypatch):
        # in sl4 > s(gl2 + gl2), x = E02 + E13 lies in q and is nilpotent,
        # and z_q(x) is abelian of dimension 4; accepted, it would give the
        # count dim h - dim q + 4 = 3 and rank 3 - 4 = -1
        cfg = DecisionConfig(seed=3, trials=4, coeff_bound=1 << 10)
        e = embed(sl(4), "block_sgl", {"p": 2, "q": 2})
        L, q_rows = e.ambient, perp(e).basis
        x = L.coords_of_matrix({(0, 2): 1, (1, 3): 1})
        m = L.dense_matrix_of(x)
        assert perp(e).contains_vector(x) and any(map(any, m))
        assert all(sum(a * b for a, b in zip(row, col)) == 0
                   for row in m for col in zip(*m))  # x^2 = 0: not semisimple
        z_q = lift(left_kernel([L.bracket(r, x) for r in q_rows]), q_rows, L.dim)
        assert z_q.dim == 4 and is_abelian(L, z_q.basis)
        assert (e.dim_h, len(q_rows)) == (7, 8)
        knop_invariants(e, cfg)  # route 2 draws before the patch
        real, draws = subalgebras.random_combination, []

        def x_first(rng, rows, bound, dim):
            draws.append(real(rng, rows, bound, dim))
            return x if len(draws) == 1 else draws[-1]

        monkeypatch.setattr(subalgebras, "random_combination", x_first)
        rep = satake_route(e, cfg).certificate.report
        assert (rep.dim, rep.is_abelian, rep.reductive_rank) == (1, True, 1)
        assert len(draws) >= 2
        assert rep.stab_basis.dim == 1

    def test_satake_route_counts_without_the_stabilizer(self, monkeypatch):
        def no_stabilizer(*args):
            raise AssertionError("the satake route built z_h(c)")

        monkeypatch.setattr(subalgebras, "stabilizer", no_stabilizer)
        monkeypatch.setattr(criteria, "stabilizer", no_stabilizer)
        e = embed(sl(6), "block_sgl", {"p": 2, "q": 4})
        rep = satake_route(e, DecisionConfig(seed=3, trials=4,
                                             coeff_bound=1 << 10)).certificate.report
        # dim c = 2 and z_h(c) = s(gl1 + gl1 + gl2): dimension 5, rank 3
        assert (rep.dim, rep.is_abelian, rep.reductive_rank) == (5, False, 3)
        with pytest.raises(AssertionError, match="built z_h"):
            rep.stab_basis

    def test_all_nilpotent_samples_raise(self, monkeypatch):
        e, nilpotent = self._sl2_torus()
        monkeypatch.setattr(subalgebras, "random_combination",
                            lambda rng, rows, bound, dim: nilpotent)
        with pytest.raises(GenericityError):
            cartan_subspace_stabilizer(e, seed=5, trials=2, coeff_bound=1 << 10)

    @pytest.mark.parametrize("maker", [
        lambda: embed(sl(3), "so_in_sl", {"n": 3}),
        lambda: embed(sl(4), "block_sgl", {"p": 2, "q": 2}),
        lambda: embed(sl(6), "block_sgl", {"p": 2, "q": 4}),
        lambda: embed(sp(4), "gl_in_sp", {"n": 2}),
    ] + [lambda i=i: symmetric_pairs_4()[i] for i in range(len(symmetric_pairs_4()))])
    def test_cartan_subspace_matches_generic_stabilizer(self, maker):
        e = maker()
        L = e.ambient
        c, x = cartan_subspace_stabilizer(e, seed=5, trials=4, coeff_bound=1 << 10)
        zc = stabilizer(e, x)
        rep = generic_stabilizer(e, seed=11, trials=4, coeff_bound=1 << 10)
        assert c.dim > 0 and contains_subspace(perp(e), c)
        assert is_abelian(L, [list(v) for v in c.basis])
        # zc is exactly the centralizer of c in h
        z = e.h_basis
        for v in c.basis:
            z = z.intersect(stabilizer(e, v))
        assert zc == z
        assert zc.dim == rep.dim
        assert is_abelian(L, [list(v) for v in zc.basis]) == rep.is_abelian


class TestConstructorDecompositions:
    @pytest.mark.parametrize("maker", [
        lambda: embed(sl(5), "block_sgl", {"p": 2, "q": 3}),
        lambda: embed(sp(6), "sp_block", {"parts": [2, 1]}),
        lambda: embed(so(7), "so_block", {"p": 4, "q": 3}),
        lambda: embed(build_algebra([("C", 1), ("C", 2), ("C", 1)]),
                      "sp_chain4", {"n": 1, "m": 1}),
    ])
    def test_pieces_are_bracket_orthogonal_ideals(self, maker):
        e = maker()
        L = e.ambient
        dec = e.ideal_decomposition
        pieces = [dec.center] + list(dec.simple_ideals)
        assert sum(p.dim for p in pieces) == e.dim_h
        for i in range(len(pieces)):
            for j in range(i + 1, len(pieces)):
                for u in pieces[i].basis:
                    for v in pieces[j].basis:
                        assert not any(L.bracket(list(u), list(v)))
        # each piece is an ideal of h
        for p in pieces:
            for u in p.basis:
                for hv in e.h_basis.basis:
                    assert p.contains_vector(L.bracket(list(hv), list(u)))


# -- reference builders for the constructors that return only their involution --
#
# These are the matrix constructions the symmetric constructors used before h
# was derived as the fixed algebra of theta, kept as the reference: so_block
# rebuilt h as the stabilizer of the projector onto the +1 part of a
# J-orthogonal split of C^m, and its reflection as 2 * projector - 1.


def _ref_orthogonal_split(m, p, q):
    """J-orthogonal splitting of C^m into subspaces of dimensions p, q."""
    k1, k2 = p // 2, q // 2

    def e(a):
        vec = [Fraction(0)] * m
        vec[a] = Fraction(1)
        return vec

    v1, v2 = [], []
    for a in range(k1):
        v1 += [e(a), e(m - 1 - a)]
    for a in range(k1, k1 + k2):
        v2 += [e(a), e(m - 1 - a)]
    if p % 2 and q % 2:
        a0 = m // 2 - 1
        plus, minus = e(a0), e(a0)
        plus[m - 1 - a0] = Fraction(1, 2)
        minus[m - 1 - a0] = Fraction(-1, 2)
        v1.append(plus)
        v2.append(minus)
    elif p % 2:
        v1.append(e((m - 1) // 2))
    elif q % 2:
        v2.append(e((m - 1) // 2))
    return v1, v2


def _ref_projector(m, v1, v2):
    """Projection onto span(v1) along span(v2), as a dense m x m matrix."""
    cols = v1 + v2
    binv = subalgebras._inverse([[cols[j][i] for j in range(m)] for i in range(m)],
                                "the matrix of splitting vectors")
    return [[sum(cols[t][i] * binv[t][j] for t in range(len(v1)))
             for j in range(m)] for i in range(m)]


def _ref_block_stabilizer(ambient, proj):
    """Matrices of {X in so(m) : [X, proj] = 0}."""
    fd = ambient._factor_data[0]
    m = fd.descriptor.matrix_size
    rows = []
    for mat in fd.basis:
        comm = {}
        for (a, b), v in mat.items():
            for c in range(m):
                if proj[b][c]:
                    comm[(a, c)] = comm.get((a, c), 0) + v * proj[b][c]
                if proj[c][a]:
                    comm[(c, b)] = comm.get((c, b), 0) - v * proj[c][a]
        rows.append([comm.get((a, b), 0) for a in range(m) for b in range(m)])
    return [ambient.matrix_of(lam) for lam in left_kernel(rows)]


def _ref_so_block(L, p, q):
    m = p + q
    proj = _ref_projector(m, *_ref_orthogonal_split(m, p, q))
    reflection = [[2 * proj[i][j] - (i == j) for j in range(m)] for i in range(m)]
    return _ref_block_stabilizer(L, proj), ("conj", reflection)


def _ref_gl_levi(m):
    n = m // 2
    return ([{(a, b): 1, (m - 1 - b, m - 1 - a): -1}
             for a in range(n) for b in range(n)],
            ("conj", constructors._dense_diag([1] * n + [-1] * n)))


def _ref_diagonal(family, rank):
    desc = SimpleFactorDescriptor(family, rank)
    s = desc.matrix_size
    return ([{**mat, **{(a + s, b + s): v for (a, b), v in mat.items()}}
             for mat in _factor_data(desc).basis], ("swap",))


def _ref_sp_block(n, k0, k1):
    signs = [1] * k0 + [-1] * (2 * k1) + [1] * k0
    return (constructors._sp_remap(k0, range(k0), n, 0)
            + constructors._sp_remap(k1, range(k0, n), n, 0),
            ("conj", constructors._dense_diag(signs)))


def _ref_sp_in_sl(n):
    omega = [[(1 if i < n else -1) if i + j == 2 * n - 1 else 0
              for j in range(2 * n)] for i in range(2 * n)]
    return (list(_factor_data(SimpleFactorDescriptor("C", n)).basis),
            ("neg_transpose", omega))


def _ref_block_sgl(L, p, q):
    return (constructors._c_levi(L, [p, q]).matrices,
            ("conj", constructors._dense_diag([1] * p + [-1] * q)))


def _ref_so_in_sl(n):
    return ([{(a, b): 1, (b, a): -1} for a in range(n) for b in range(a + 1, n)],
            ("neg_transpose", constructors._dense_diag([1] * n)))


def _so_factor(m):
    return ("B", m // 2) if m % 2 else ("D", m // 2)


# (ambient factors, constructor, params, reference (mats, spec) builder)
_REFERENCE_CASES = (
    [([_so_factor(p + q)], "so_block", {"p": p, "q": q},
      lambda L, p=p, q=q: _ref_so_block(L, p, q))
     for m in (3, 5, 6, 7, 8, 9, 10) for p in range(1, m) for q in [m - p]]
    + [([("A", p + q - 1)], "block_sgl", {"p": p, "q": q},
        lambda L, p=p, q=q: _ref_block_sgl(L, p, q))
       for p, q in [(1, 1), (1, 2), (2, 2), (1, 4), (2, 3), (3, 4), (4, 4)]]
    + [([("A", n - 1)], "so_in_sl", {"n": n}, lambda L, n=n: _ref_so_in_sl(n))
       for n in (2, 3, 5, 8)]
    + [([("A", 2 * n - 1)], "sp_in_sl", {"n": n}, lambda L, n=n: _ref_sp_in_sl(n))
       for n in (1, 2, 3, 4)]
    + [([("C", n)], "gl_in_sp", {"n": n}, lambda L, n=n: _ref_gl_levi(2 * n))
       for n in (1, 2, 3)]
    + [([_so_factor(m)], "gl_in_so", {"m": m}, lambda L, m=m: _ref_gl_levi(m))
       for m in (6, 8, 12)]
    + [([(f, r)] * 2, "diagonal", {"family": f, "rank": r},
        lambda L, f=f, r=r: _ref_diagonal(f, r))
       for f, r in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 2),
                    ("C", 3), ("D", 4)]]
    + [([("C", k0 + k1)], "sp_block", {"parts": [k0, k1]},
        lambda L, k0=k0, k1=k1: _ref_sp_block(k0 + k1, k0, k1))
       for k0, k1 in [(1, 1), (1, 2), (2, 1), (1, 3), (2, 2), (3, 1)]])


@pytest.mark.parametrize("factors,name,params,reference", _REFERENCE_CASES,
                         ids=[f"{c[1]}-{'-'.join(map(str, c[2].values()))}"
                              for c in _REFERENCE_CASES])
def test_derived_h_matches_reference_matrices(factors, name, params, reference):
    """h = Fix(theta) and theta itself agree with the matrix constructions,
    field for field."""
    L = build_algebra(factors)
    e = embed(L, name, params)
    mats, spec = reference(L)
    h = Subspace.span([L.coords_of_matrix(mat) for mat in mats], L.dim)
    assert h.dim == len(mats)
    assert e.h_basis == h
    assert e.theta_cols == subalgebras._theta_cols_from_spec(L, spec)
