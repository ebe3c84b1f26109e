"""Pair factorization, strict indecomposability, combined verdicts."""

import pytest

from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed
from aregularity.criteria import DecisionConfig, decide
from aregularity.decomposition import (
    SizeError,
    combined_verdict,
    derived_subalgebra,
    is_indecomposable,
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
        assert is_indecomposable(e)
        assert len(split_pair(e).factors) == 1
        assert not is_strictly_indecomposable(e)

    def test_simple_ambient_strict(self):
        e = embed(build_algebra([("A", 2)]), "so_in_sl", {"n": 3})
        assert is_strictly_indecomposable(e)

    def test_size_error(self):
        amb = build_algebra([("A", 1)] * 9)
        e = embed(amb, "custom", {"matrices": []})
        with pytest.raises(SizeError):
            split_pair(e)

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
        amb = build_algebra([("A", 2), ("A", 3)])
        e = embed(amb, "direct_sum", {"parts": [
            {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
            {"constructor": "block_sgl", "params": {"p": 2, "q": 2}, "factors": 1},
        ]})
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
