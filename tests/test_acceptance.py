"""Acceptance suite: one test per criterion, one pass line per criterion.

All randomized verdicts run at the default certified configuration
(8 trials, coefficient bound 2^20), so every reported failure bound is
below 2^-40.  Expected values are either exact consequences of the
classification data or were derived from the independent generic-
stabilizer oracle and frozen here.
"""

from fractions import Fraction

import pytest

from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed, generic_stabilizer
from aregularity.criteria import (
    DecisionConfig,
    ExactRegularElement,
    RandomizedNegative,
    decide,
    knop_invariants,
)
from aregularity.decomposition import (
    combined_verdict,
    is_strictly_indecomposable,
    split_pair,
)
from aregularity.slodowy import (
    _char_poly,
    principal_sl2,
    slice_nonempty,
    slice_regularity_check,
    slice_representative_sl,
    slodowy_slice,
)
from aregularity.catalog import default_catalog, verify_row
from subspace_ops import random_element, zero_element

CFG = DecisionConfig(seed=0, trials=8, coeff_bound=1 << 20)

TWO_POW_40 = Fraction(1, 1 << 40)


def sl(n):
    return build_algebra([("A", n - 1)])


def _p(k, msg):
    print(f"ACCEPTANCE {k}: PASS - {msg}")


# ---------------------------------------------------------------------------
# shared decided instances for criteria 1-5 (reused by 6, 7, 10)

_DECIDED = {}


def _decide_named(name, ambient_factors, ctor, params):
    if name not in _DECIDED:
        e = embed(build_algebra(ambient_factors), ctor, params)
        _DECIDED[name] = (e, decide(e, CFG, default_catalog()))
    return _DECIDED[name]


def _sl_sweep_cases():
    for p in range(1, 6):
        for q in range(p, 6):
            yield (f"sl{p+q}:block_sgl({p},{q})",
                   [("A", p + q - 1)], "block_sgl", {"p": p, "q": q},
                   q - p <= 1)


TABLE3_CASES = [
    ("sl3>so3", [("A", 2)], "so_in_sl", {"n": 3}),
    ("sl4>so4", [("A", 3)], "so_in_sl", {"n": 4}),
    ("sl4>s(gl2+gl2)", [("A", 3)], "block_sgl", {"p": 2, "q": 2}),
    ("sl5>s(gl3+gl2)", [("A", 4)], "block_sgl", {"p": 3, "q": 2}),
    ("so5>so3+so2", [("B", 2)], "so_block", {"p": 3, "q": 2}),
    ("sp4>gl2", [("C", 2)], "gl_in_sp", {"n": 2}),
    ("diag(sl2)", [("A", 1), ("A", 1)], "diagonal", {"family": "A", "rank": 1}),
    ("diag(sl3)", [("A", 2), ("A", 2)], "diagonal", {"family": "A", "rank": 2}),
    ("diag(sp4)", [("C", 2), ("C", 2)], "diagonal", {"family": "C", "rank": 2}),
]

TABLE5_CASES = [
    ("sl7>s(gl2+gl5)", [("A", 6)], "block_sgl", {"p": 2, "q": 5}),
    ("so6>gl3", [("D", 3)], "gl_in_so", {"m": 6}),
    ("so8>gl4", [("D", 4)], "gl_in_so", {"m": 8}),
    ("sp6>sp4+C", [("C", 3)], "sp_sub_center", {"n": 3}),
    ("sp8>sp6+C", [("C", 4)], "sp_sub_center", {"n": 4}),
]

TABLE4_CASES = [
    ("sl5>sl3+sl2", [("A", 4)], "block_ss", {"p": 3, "q": 2}),
    ("sl3>sp2+C", [("A", 2)], "sp_plus_center", {"n": 1}),
    ("sl5>sp4", [("A", 4)], "sp_in_sl", {"n": 2}),
    ("so5>gl2", [("B", 2)], "gl_in_so", {"m": 5}),
    ("sl3+sl2>gl2", [("A", 2), ("A", 1)], "sl_gl_pair", {"n": 2}),
    ("so6+so5>so5", [("D", 3), ("B", 2)], "so_diag_pair", {"n": 5}),
    ("sp2+sp2>sp2", [("C", 1), ("C", 1)], "sp_diag2", {"m": 1, "n": 1}),
    ("sp2^3>sp2", [("C", 1), ("C", 1), ("C", 1)], "sp_diag3",
     {"l": 1, "m": 1, "n": 1}),
    ("sp2+sp4+sp2>sp2+sp2", [("C", 1), ("C", 2), ("C", 1)], "sp_chain4",
     {"n": 1, "m": 1}),
]


def _all_instances():
    out = []
    for name, g, ctor, params, expected in _sl_sweep_cases():
        out.append((name, expected) + _decide_named(name, g, ctor, params))
    for name, g, ctor, params in TABLE3_CASES + TABLE4_CASES:
        out.append((name, True) + _decide_named(name, g, ctor, params))
    for name, g, ctor, params in TABLE5_CASES:
        out.append((name, False) + _decide_named(name, g, ctor, params))
    return out


def test_criterion_01_sl_block_sweep():
    """decide(sl(p+q), s(gl_p+gl_q)) = (q - p <= 1) for 1 <= p <= q <= 5."""
    count = 0
    for name, g, ctor, params, expected in _sl_sweep_cases():
        e, v = _decide_named(name, g, ctor, params)
        assert v.a_regular is expected, name
        assert {"regular_element", "abelian_stabilizer", "numerical",
                "satake"} <= set(v.routes_agreed), name
        count += 1
    assert count == 15
    _p(1, "15/15 balanced-block verdicts match q-p <= 1, all routes agree")


def test_criterion_02_generic_stabilizer_dims():
    """Frozen stabilizer dimensions: C^(p-1) at p = q, C^p + sl(q-p) at p < q."""
    expect = {(2, 2): (1, True), (2, 3): (2, True),
              (2, 4): (5, False), (3, 3): (2, True)}
    for (p, q), (dim, abelian) in expect.items():
        e, _ = _decide_named(f"sl{p+q}:block_sgl({p},{q})",
                             [("A", p + q - 1)], "block_sgl", {"p": p, "q": q})
        rep = generic_stabilizer(e, seed=CFG.seed, trials=CFG.trials,
                                 coeff_bound=CFG.coeff_bound)
        assert rep.dim == dim, (p, q)
        assert rep.is_abelian is abelian, (p, q)
        assert rep.is_abelian is (q - p <= 1)
    _p(2, "stabilizer dims (1, 2, 5, 2) and abelianness match the formula")


def test_criterion_03_symmetric_positives():
    """Classical symmetric rows at minimal ranks all decide YES with exact
    regular witnesses."""
    for name, g, ctor, params in TABLE3_CASES:
        e, v = _decide_named(name, g, ctor, params)
        assert v.a_regular, name
        assert isinstance(v.certificate, ExactRegularElement), name
        w = list(v.certificate.witness)
        assert e.ambient.is_regular(w)[0], name
    _p(3, f"{len(TABLE3_CASES)} symmetric rows YES with exact witnesses")


def test_criterion_04_not_regular_negatives():
    """Non-a-regular rows decide NO with failure bound below 2^-40."""
    for name, g, ctor, params in TABLE5_CASES:
        e, v = _decide_named(name, g, ctor, params)
        assert not v.a_regular, name
        assert isinstance(v.certificate, RandomizedNegative), name
        assert v.certificate.failure_bound < TWO_POW_40, name
    _p(4, f"{len(TABLE5_CASES)} negative rows NO, bounds < 2^-40")


def test_criterion_05_spherical_positives():
    """Spherical rows at minimal parameters all decide YES."""
    for name, g, ctor, params in TABLE4_CASES:
        e, v = _decide_named(name, g, ctor, params)
        assert v.a_regular, name
        assert isinstance(v.certificate, ExactRegularElement), name
    _p(5, f"{len(TABLE4_CASES)} spherical rows YES")


def test_criterion_06_route_consensus():
    """All routes agree on every instance of criteria 1-5 (decide raises on
    any disagreement); symmetric instances also ran the involution route."""
    instances = _all_instances()
    for name, expected, e, v in instances:
        assert v.a_regular is expected, name
        assert {"regular_element", "abelian_stabilizer",
                "numerical"} <= set(v.routes_agreed), name
        if e.theta_cols is not None:
            assert "satake" in v.routes_agreed, name
    _p(6, f"route consensus on all {len(instances)} instances")


def test_criterion_07_numerical_identity():
    """c + rk + dim h = dim B exactly on YES, fails on NO; invariants are
    nonnegative integers of consistent parity."""
    for name, expected, e, v in _all_instances():
        k = knop_invariants(e, CFG)
        total = k["c"] + k["rk"] + e.dim_h
        if expected:
            assert total == e.ambient.borel_dim(), name
        else:
            assert total != e.ambient.borel_dim(), name
        assert k["c"] >= 0 and k["rk"] >= 0, name
        parity = e.ambient.dim - 2 * e.dim_h + k["dim_h_star"] - k["rk"]
        assert parity >= 0 and parity % 2 == 0, name
    _p(7, "numerical identity and parity hold on every instance")


def test_criterion_08_decomposition():
    """The indecomposable-but-not-strict chain pairs, and a composite pair
    whose split verdict equals the whole-pair decision."""
    for n in (2, 3):
        amb = build_algebra([("A", n), ("A", 1)])
        e = embed(amb, "chain_image", {"n": n})
        assert len(split_pair(e).factors) == 1, n
        assert not is_strictly_indecomposable(e), n
    amb = build_algebra([("A", 2), ("A", 5)])
    e = embed(amb, "direct_sum", {"parts": [
        {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
        {"constructor": "block_sgl", "params": {"p": 2, "q": 4}, "factors": 1},
    ]})
    fz = split_pair(e)
    assert len(fz.factors) == 2
    per = [decide(f.embedding, CFG.reseeded(i))
           for i, f in enumerate(fz.factors)]
    combined = combined_verdict(fz, per)
    whole = decide(e, CFG)
    assert combined.a_regular is False
    assert combined.a_regular == whole.a_regular
    _p(8, "chain pairs indecomposable/not strict; composite split = whole (NO)")


SLODOWY_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
                 ("B", 2), ("C", 2), ("C", 3)]


def test_criterion_09_slodowy_suite():
    """Triple relations exact, slice dim = rank, 20 regular samples per type;
    type-A cross-section preserves characteristic polynomials exactly."""
    for fam, rank in SLODOWY_TYPES:
        L = build_algebra([(fam, rank)])
        t = principal_sl2(L)
        e, h, f = list(t.e), list(t.h), list(t.f)
        assert L.bracket(e, f) == h
        assert L.bracket(h, e) == [2 * x for x in e]
        assert L.bracket(h, f) == [-2 * x for x in f]
        s = slodowy_slice(L, t)
        assert s.directions.dim == L.rank
        assert slice_regularity_check(L, s, samples=20, seed=CFG.seed)
    import random
    L = sl(4)
    rng = random.Random(CFG.seed + 1)
    checked = 0
    while checked < 20:
        x = random_element(L, rng, 6)
        if not L.is_regular(x)[0]:
            continue
        pt = slice_representative_sl(L, x)
        assert pt is not None
        assert _char_poly(L.dense_matrix_of(list(pt))) == \
            _char_poly(L.dense_matrix_of(x))
        checked += 1
    singular = [
        zero_element(L),
        L.coords_of_matrix({(0, 1): 1}),
        L.coords_of_matrix({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): -3}),
        L.coords_of_matrix({(0, 0): 1, (1, 1): 1, (2, 2): -1, (3, 3): -1}),
        L.coords_of_matrix({(0, 1): 1, (2, 3): 1}),
    ]
    for x in singular:
        assert x is not None
        assert slice_representative_sl(L, x) is None
    _p(9, "7 principal triples exact; 20 regular + 5 singular slice probes ok")


def test_criterion_10_bridge():
    """slice_nonempty agrees with decide on every instance of criteria 1-5."""
    instances = _all_instances()
    for name, expected, e, v in instances:
        assert slice_nonempty(e, CFG) is v.a_regular, name
    _p(10, f"slice non-emptiness = decision on all {len(instances)} instances")


EXPECTED_SKIPPED = [
    "T1_h_ess:5",
    "T2_levi:3",
    "T3_symmetric:10",
    "T3_symmetric:5",
    "T3_symmetric:6",
    "T3_symmetric:7",
    "T3_symmetric:8",
    "T3_symmetric:9",
    "T5_not_regular:3",
    "T5_not_regular:4",
    "T5_not_regular:6",
]


def test_criterion_11_verify_tables():
    """Every constructible catalog row at ambient rank <= 4 re-derives its
    tabled verdict; skipped rows are exactly the exceptional/spin rows."""
    cat = default_catalog()
    verified = mismatches = 0
    for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                  "T5_not_regular"):
        for row, params in cat.enumerate(table, 4):
            res = verify_row(row, params, CFG)
            if res.status == "skipped":
                continue
            verified += 1
            if not res.match:
                mismatches += 1
    skipped = sorted({r.row_id for r in cat.rows if r.constructor is None})
    assert mismatches == 0
    assert verified == 68  # pinned instance count at max rank 4
    assert skipped == EXPECTED_SKIPPED
    _p(11, f"verify-tables(4): {verified} instances, 0 mismatches, "
           f"{len(skipped)} documented skips")
