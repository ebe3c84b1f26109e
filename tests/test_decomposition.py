"""Pair factorization, strict indecomposability, combined verdicts."""

import pytest

from aregularity.catalog import default_catalog
from aregularity.exact_linalg import left_kernel, lift
from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed
from aregularity.criteria import DecisionConfig, decide
from aregularity.decomposition import (
    combined_verdict,
    derived_subalgebra,
    is_strictly_indecomposable,
    split_pair,
)

CFG = DecisionConfig(seed=4, trials=4, coeff_bound=1 << 10)


def composite_pair():
    amb = build_algebra([("A", 2), ("A", 5)])
    return embed(amb, "direct_sum", {"parts": [
        {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
        {"constructor": "block_sgl", "params": {"p": 2, "q": 4}, "factors": 1},
    ]})


def all_yes_pair():
    amb = build_algebra([("A", 2), ("A", 3)])
    return embed(amb, "direct_sum", {"parts": [
        {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
        {"constructor": "block_sgl", "params": {"p": 2, "q": 2}, "factors": 1},
    ]})


def three_part_pair():
    amb = build_algebra([("A", 2), ("A", 3), ("A", 1)])
    return embed(amb, "direct_sum", {"parts": [
        {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
        {"constructor": "block_sgl", "params": {"p": 2, "q": 2}, "factors": 1},
        {"constructor": "so_in_sl", "params": {"n": 2}, "factors": 1},
    ]})


def diagonal_sl2(copies, blocks=None):
    """Custom h: sl2 embedded diagonally in the sl2 factors ``blocks`` (all
    of them by default) of a sum of ``copies`` sl2's."""
    amb = build_algebra([("A", 1)] * copies)
    mats = []
    for block in ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]]):
        m = [[0] * (2 * copies) for _ in range(2 * copies)]
        for k in range(copies) if blocks is None else blocks:
            for a in range(2):
                for b in range(2):
                    m[2 * k + a][2 * k + b] = block[a][b]
        mats.append(m)
    return embed(amb, "custom", {"matrices": mats})


class TestSplitPair:
    def test_already_split(self):
        e = composite_pair()
        fz = split_pair(e)
        assert len(fz.factors) == 2
        assert [f.factor_indices for f in fz.factors] == [(0,), (1,)]
        assert [f.embedding.dim_h for f in fz.factors] == [3, 19]

    def test_diagonal_indecomposable(self):
        amb = build_algebra([("A", 1), ("A", 1)])
        e = embed(amb, "diagonal", {"family": "A", "rank": 1})
        fz = split_pair(e)
        assert len(fz.factors) == 1
        assert fz.factors[0].strictly_indecomposable

    @pytest.mark.parametrize("n", [2, 3])
    def test_chain_image_indecomposable_not_strict(self, n):
        amb = build_algebra([("A", n), ("A", 1)])
        e = embed(amb, "chain_image", {"n": n})
        assert len(split_pair(e).factors) == 1
        assert not is_strictly_indecomposable(e)

    def test_simple_ambient_strict(self):
        e = embed(build_algebra([("A", 2)]), "so_in_sl", {"n": 3})
        assert is_strictly_indecomposable(e)

    def test_nine_factors_zero_h(self):
        e = embed(build_algebra([("A", 1)] * 9), "custom", {"matrices": []})
        fz = split_pair(e)
        assert [f.factor_indices for f in fz.factors] == [(i,) for i in range(9)]
        assert all(f.embedding.dim_h == 0 and f.strictly_indecomposable
                   for f in fz.factors)

    def test_nine_factors_diagonal_sl2(self):
        e = diagonal_sl2(9)
        fz = split_pair(e)
        assert len(fz.factors) == 1
        assert fz.factors[0].factor_indices == tuple(range(9))
        assert fz.factors[0].embedding is e
        assert fz.factors[0].strictly_indecomposable

    def test_dims_add_up(self):
        e = composite_pair()
        fz = split_pair(e)
        assert sum(f.embedding.ambient.dim for f in fz.factors) == e.ambient.dim
        assert sum(f.embedding.dim_h for f in fz.factors) == e.dim_h


class TestDerived:
    def test_chain_image_derived_is_first_factor_block(self):
        amb = build_algebra([("A", 2), ("A", 1)])
        e = embed(amb, "chain_image", {"n": 2})
        d = derived_subalgebra(e)
        assert d.dim == 3
        # supported on the first factor's coordinates only
        for v in d.basis:
            assert not any(v[8:])


class TestCombinedVerdict:
    def test_all_yes(self):
        e = all_yes_pair()
        fz = split_pair(e)
        verdicts = [decide(f.embedding, CFG) for f in fz.factors]
        combined = combined_verdict(fz, verdicts)
        assert combined.a_regular
        # combined witness is exactly regular in the big algebra
        w = list(combined.certificate.witness)
        assert e.ambient.is_regular(w)[0]

    def test_any_no(self):
        e = composite_pair()
        fz = split_pair(e)
        verdicts = [decide(f.embedding, CFG) for f in fz.factors]
        combined = combined_verdict(fz, verdicts)
        assert not combined.a_regular

    def test_matches_whole_pair_decision(self):
        e = composite_pair()
        fz = split_pair(e)
        verdicts = [decide(f.embedding, CFG) for f in fz.factors]
        combined = combined_verdict(fz, verdicts)
        whole = decide(e, CFG)
        assert combined.a_regular == whole.a_regular

    def test_length_mismatch(self):
        e = composite_pair()
        fz = split_pair(e)
        with pytest.raises(ValueError):
            combined_verdict(fz, [])


# -- reference: the exhaustive bipartition search split_pair once used ----------

def _meet(L, h, subset):
    """h ∩ g_subset: the combinations of h's basis that vanish off the
    columns of the factors in ``subset``."""
    ranges = L.factor_basis_slices
    inside = {j for fi in subset for j in range(*ranges[fi])}
    rows = [[x for j, x in enumerate(v) if j not in inside] for v in h.basis]
    return lift(left_kernel(rows), h.basis, L.dim)


def _reference_groups(L, h, subset):
    """Split ``subset`` across the first bipartition {A, B} with
    dim(h ∩ g_A) + dim(h ∩ g_B) = dim(h ∩ g_subset), then recurse."""
    if len(subset) == 1:
        return [subset]
    whole = _meet(L, h, subset).dim
    for mask in range(1, 1 << (len(subset) - 1)):
        a = tuple(fi for i, fi in enumerate(subset) if mask >> i & 1)
        b = tuple(fi for i, fi in enumerate(subset) if not mask >> i & 1)
        if _meet(L, h, a).dim + _meet(L, h, b).dim == whole:
            return _reference_groups(L, h, a) + _reference_groups(L, h, b)
    return [subset]


def _multi_factor_instances():
    cat = default_catalog()
    out = []
    for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                  "T5_not_regular"):
        for row, params in cat.enumerate(table, 5):
            call, descs = row.constructor_call(params), row.ambient_descriptors(params)
            if call is not None and descs is not None and len(descs) >= 2:
                out.append((f"{row.row_id}{params}", call, descs))
    return out


def test_factor_groups_match_bipartition_search():
    pairs = [(name, embed(build_algebra(descs), *call))
             for name, call, descs in _multi_factor_instances()]
    assert len(pairs) >= 20
    pairs += [("composite", composite_pair()), ("all-yes", all_yes_pair()),
              ("three-part", three_part_pair()),
              ("chain+so", embed(build_algebra([("A", 2), ("A", 1), ("A", 2)]),
                                 "direct_sum", {"parts": [
                  {"constructor": "chain_image", "params": {"n": 2}, "factors": 2},
                  {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1}]})),
              ("diag-0-2", diagonal_sl2(3, blocks=(0, 2))),
              ("diag-9", diagonal_sl2(9))]
    for name, e in pairs:
        L = e.ambient
        everything = tuple(range(len(L.factors)))
        groups = sorted(_reference_groups(L, e.h_basis, everything))
        derived = derived_subalgebra(e)
        fz = split_pair(e)
        assert [f.factor_indices for f in fz.factors] == groups, name
        # [h, h] ∩ g_P = [h_P, h_P] for every factor h_P = h ∩ g_P
        assert [f.strictly_indecomposable for f in fz.factors] == [
            len(_reference_groups(L, derived, g)) == 1 for g in groups], name
        assert is_strictly_indecomposable(e) == (
            len(_reference_groups(L, derived, everything)) == 1), name
    split = {name: [f.factor_indices for f in split_pair(e).factors]
             for name, e in pairs[-3:]}
    assert split == {"chain+so": [(0, 1), (2,)], "diag-0-2": [(0, 2), (1,)],
                     "diag-9": [tuple(range(9))]}
