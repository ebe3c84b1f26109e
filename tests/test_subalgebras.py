"""Embedding constructors, orthogonal complements, stabilizers."""

import random
from fractions import Fraction

import pytest

from aregularity.catalog import default_catalog
from aregularity.criteria import DecisionConfig, satake_route
from aregularity.exact_linalg import RationalMatrix, Subspace, rank_and_kernel
from aregularity.lie_core import build_algebra
from aregularity import subalgebras
from aregularity.subalgebras import (
    BracketClosureError,
    Embedding,
    GenericityError,
    cartan_subspace_stabilizer,
    decompose_reductive,
    embed,
    generic_stabilizer,
    is_abelian,
    perp,
    stabilizer,
)


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
        assert "symmetric" in e.tags

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
        assert "symmetric" in e.tags

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
        assert stabilizer(e, e.ambient.zero_element()) == e.h_basis

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
            total = total.sum_with(p)
        assert total == e.h_basis


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


class TestSymmetric:
    def test_perp_is_minus_one_eigenspace(self):
        for e in symmetric_pairs(4):
            n = e.ambient.dim
            theta_plus_one = [[e.theta_cols[j][i] + (i == j) for j in range(n)]
                              for i in range(n)]
            _, q = rank_and_kernel(RationalMatrix.from_rows(theta_plus_one))
            assert perp(e) == q, e.constructor

    def test_satake_exact_rank_matches_sampled_rank(self):
        cfg = DecisionConfig(seed=3, trials=4, coeff_bound=1 << 10)
        for e in symmetric_pairs(4):
            exact = satake_route(e, cfg).certificate.report.reductive_rank
            rep = generic_stabilizer(e, seed=cfg.seed, trials=cfg.trials,
                                     coeff_bound=cfg.coeff_bound)
            assert exact == rep.reductive_rank, e.constructor

    def test_non_generic_best_sample_raises(self, monkeypatch):
        # every sample is x = 0, where z_q(x) = q is not abelian
        monkeypatch.setattr(subalgebras, "random_combination",
                            lambda rng, rows, bound, dim: [0] * dim)
        e = embed(sl(3), "so_in_sl", {"n": 3})
        with pytest.raises(GenericityError):
            cartan_subspace_stabilizer(e, seed=5, trials=2, coeff_bound=1 << 10)

    @pytest.mark.parametrize("maker", [
        lambda: embed(sl(3), "so_in_sl", {"n": 3}),
        lambda: embed(sl(4), "block_sgl", {"p": 2, "q": 2}),
        lambda: embed(sl(6), "block_sgl", {"p": 2, "q": 4}),
        lambda: embed(sp(4), "gl_in_sp", {"n": 2}),
    ])
    def test_cartan_subspace_matches_generic_stabilizer(self, maker):
        e = maker()
        L = e.ambient
        c, zc = cartan_subspace_stabilizer(e, seed=5, trials=4, coeff_bound=1 << 10)
        rep = generic_stabilizer(e, seed=11, trials=4, coeff_bound=1 << 10)
        assert c.dim > 0 and perp(e).contains_subspace(c)
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
