"""The three decision routes, their consensus, and the Knop invariants."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed, perp
from aregularity.criteria import (
    DecisionConfig,
    ExactRegularElement,
    RandomizedNegative,
    decide,
    decide_abelian_stabilizer,
    decide_numerical,
    decide_regular_element,
    knop_invariants,
    satake_route,
)

CFG = DecisionConfig(seed=2, trials=4, coeff_bound=1 << 10)


def sl(n):
    return build_algebra([("A", n - 1)])


def pair_sl_block(p, q):
    return embed(sl(p + q), "block_sgl", {"p": p, "q": q})


class TestRegularElementRoute:
    def test_sl3_so3_yes_with_witness(self):
        e = embed(sl(3), "so_in_sl", {"n": 3})
        v = decide_regular_element(e, CFG)
        assert v.a_regular
        assert isinstance(v.certificate, ExactRegularElement)
        w = list(v.certificate.witness)
        assert e.ambient.is_regular(w)[0]
        assert perp(e).contains_vector(w)

    def test_sl6_block_2_4_no(self):
        v = decide_regular_element(pair_sl_block(2, 4), CFG)
        assert not v.a_regular
        assert isinstance(v.certificate, RandomizedNegative)
        assert 0 < v.certificate.failure_bound < 1

    def test_diag_sl2_yes(self):
        amb = build_algebra([("A", 1), ("A", 1)])
        e = embed(amb, "diagonal", {"family": "A", "rank": 1})
        assert decide_regular_element(e, CFG).a_regular


class TestAbelianStabilizerRoute:
    def test_sl5_block_2_3_yes(self):
        v = decide_abelian_stabilizer(pair_sl_block(2, 3), CFG)
        assert v.a_regular
        assert v.certificate.report.dim == 2

    def test_sl6_block_2_4_no(self):
        v = decide_abelian_stabilizer(pair_sl_block(2, 4), CFG)
        assert not v.a_regular
        assert v.certificate.report.dim == 5

    def test_sl4_block_2_2_yes(self):
        v = decide_abelian_stabilizer(pair_sl_block(2, 2), CFG)
        assert v.a_regular
        assert v.certificate.report.dim == 1


class TestKnopInvariants:
    def test_sl3_so3(self):
        e = embed(sl(3), "so_in_sl", {"n": 3})
        k = knop_invariants(e, CFG)
        assert k == {"c": 0, "rk": 2, "dim_h_star": 0, "rank_h_star": 0}

    def test_sl4_block_2_2(self):
        k = knop_invariants(pair_sl_block(2, 2), CFG)
        assert k == {"c": 0, "rk": 2, "dim_h_star": 1, "rank_h_star": 1}

    def test_diag_sl2(self):
        amb = build_algebra([("A", 1), ("A", 1)])
        e = embed(amb, "diagonal", {"family": "A", "rank": 1})
        k = knop_invariants(e, CFG)
        assert k == {"c": 0, "rk": 1, "dim_h_star": 1, "rank_h_star": 1}

    def test_parity_and_nonnegativity(self):
        for e in [pair_sl_block(2, 3), pair_sl_block(2, 4),
                  embed(sl(3), "so_in_sl", {"n": 3})]:
            k = knop_invariants(e, CFG)
            rep_dim = k["dim_h_star"]
            total = e.ambient.dim - 2 * e.dim_h + rep_dim
            assert total >= 0
            assert (total - k["rk"]) % 2 == 0


class TestNumericalRoute:
    def test_sl3_so3_yes(self):
        e = embed(sl(3), "so_in_sl", {"n": 3})
        v = decide_numerical(e, CFG)
        assert v.a_regular
        assert v.invariants.c + v.invariants.rk + e.dim_h == 5

    def test_sl6_block_2_4_no(self):
        v = decide_numerical(pair_sl_block(2, 4), CFG)
        assert not v.a_regular

    def test_sp4_gl2_yes(self):
        e = embed(build_algebra([("C", 2)]), "gl_in_sp", {"n": 2})
        assert decide_numerical(e, CFG).a_regular


class TestSatakeRoute:
    def test_sl3_so3_yes(self):
        e = embed(sl(3), "so_in_sl", {"n": 3})
        v = satake_route(e, CFG)
        assert v.a_regular
        assert v.certificate.report.dim == 0

    def test_sl4_block_2_2_yes(self):
        assert satake_route(pair_sl_block(2, 2), CFG).a_regular

    def test_so6_gl3_no(self):
        e = embed(build_algebra([("D", 3)]), "gl_in_so", {"m": 6})
        v = satake_route(e, CFG)
        assert not v.a_regular


class TestDecideConsensus:
    @pytest.mark.parametrize("maker,expected", [
        (lambda: pair_sl_block(2, 2), True),
        (lambda: embed(build_algebra([("D", 3)]), "gl_in_so", {"m": 6}), False),
        (lambda: embed(build_algebra([("C", 3)]), "sp_sub_center", {"n": 3}), False),
        (lambda: embed(sl(3), "so_in_sl", {"n": 3}), True),
        (lambda: pair_sl_block(2, 4), False),
    ])
    def test_decide(self, maker, expected):
        v = decide(maker(), CFG, use_catalog=False)
        assert v.a_regular is expected
        if expected:
            assert isinstance(v.certificate, ExactRegularElement)
        else:
            assert isinstance(v.certificate, RandomizedNegative)

    def test_all_routes_listed(self):
        v = decide(pair_sl_block(2, 2), CFG, use_catalog=False)
        assert set(v.routes_agreed) == {"regular_element", "abelian_stabilizer",
                                        "numerical", "satake"}

    def test_trivial_h_yes(self):
        from aregularity.exact_linalg import Subspace
        from aregularity.subalgebras import Embedding
        L = sl(3)
        e = Embedding(L, Subspace.zero(L.dim))
        v = decide(e, CFG, use_catalog=False)
        assert v.a_regular
        assert v.invariants.c == (L.dim - L.rank) // 2
        assert v.invariants.rk == L.rank


def test_yes_witness_recheck_survives_python_O():
    """The YES re-verification is explicit code: under ``python -O`` a
    substituted non-regular witness must still make ``decide`` raise."""
    script = textwrap.dedent("""
        import sys
        from aregularity import criteria
        from aregularity.lie_core import build_algebra
        from aregularity.subalgebras import embed
        if not sys.flags.optimize:
            sys.exit(3)
        criteria.find_regular_witness = lambda e, cfg: [0] * e.ambient.dim
        e = embed(build_algebra([("A", 2)]), "so_in_sl", {"n": 3})
        cfg = criteria.DecisionConfig(seed=2, trials=4, coeff_bound=1 << 10)
        try:
            criteria.decide(e, cfg, use_catalog=False)
        except criteria.CertificateError:
            sys.exit(0)
        sys.exit(4)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
