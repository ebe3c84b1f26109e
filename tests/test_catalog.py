"""Catalog data fidelity, lookup, enumeration, and row verification."""

import hashlib
import importlib.util
import json
from importlib import resources
from pathlib import Path

import pytest

from aregularity.lie_core import build_algebra
from aregularity.subalgebras import embed
from aregularity.criteria import DecisionConfig
from aregularity.catalog import (
    Catalog,
    CatalogChecksumError,
    CatalogFormatError,
    _expression,
    default_catalog,
    verify_row,
)

CFG = DecisionConfig(seed=8, trials=4, coeff_bound=1 << 10)


@pytest.fixture(scope="module")
def cat():
    return default_catalog()


class TestDataFidelity:
    def test_row_counts(self, cat):
        counts = {}
        for r in cat.rows:
            counts[r.table_id] = counts.get(r.table_id, 0) + 1
        assert counts == {
            "T1_h_ess": 7,
            "T2_levi": 4,
            "T3_symmetric": 14,
            "T4_spherical": 12,
            "T5_not_regular": 7,
        }

    def test_t3_line_groups(self, cat):
        lines = [r.line for r in cat.table("T3_symmetric")]
        groups = {ln.rstrip("abc") for ln in lines}
        assert len(groups) == 11
        assert {"2a", "2b", "3a", "3b", "3c"} <= set(lines)

    def test_spot_content(self, cat):
        by_id = {r.row_id: r for r in cat.rows}
        assert by_id["T3_symmetric:1"].display == "sl(n) > so(n)"
        assert by_id["T5_not_regular:1"].display.startswith("sl(p+q)")
        assert by_id["T5_not_regular:6"].constructor is None
        assert "spin" in by_id["T5_not_regular:6"].notes
        assert by_id["T3_symmetric:11"].display == "s+s > diag(s)"
        assert by_id["T2_levi:3"].constructor is None

    def test_verdict_polarity(self, cat):
        for r in cat.rows:
            if r.table_id == "T1_h_ess":
                assert r.verdict is None and r.informational
            elif r.table_id == "T5_not_regular":
                assert r.verdict is False
            else:
                assert r.verdict is True

    def test_checksum_detects_corruption(self, cat):
        from importlib import resources
        doc = json.loads(resources.files("aregularity")
                         .joinpath("data/catalog_tables.json").read_text())
        doc["rows"][0]["display"] = "tampered"
        with pytest.raises(CatalogChecksumError):
            Catalog.from_document(doc)


class TestExpressions:
    @pytest.mark.parametrize("expr,value", [
        (5, 5), ("2*n+1", 7), ("n - m", -1), ("p + 1 < q", False),
        ("n > 6 or m > 2", True), ("n == 3 and 1 <= m", True),
    ])
    def test_grammar(self, expr, value):
        assert _expression(expr, {"n", "m", "p", "q"})({"n": 3, "m": 4, "p": 3,
                                                        "q": 4}) == value

    @pytest.mark.parametrize("expr", [
        "x + 1", "n ** 2", "n / 2", "-n", "1 <= n <= 3", "int(n)", "n.real",
        "[n]", "True", "'n'", "n +", "(lambda: 1)()", None, 1.5, True, ["n"],
    ])
    def test_anything_else_is_a_load_error(self, expr):
        with pytest.raises(CatalogFormatError):
            _expression(expr, {"n"})


class TestEnumerate:
    def test_t3_line1_max_rank_3(self, cat):
        rows = cat.enumerate("T3_symmetric", 3)
        vals = sorted(p["n"] for r, p in rows if r.line == "1")
        assert vals == [3, 4]

    def test_t5_line5_max_rank_4(self, cat):
        rows = cat.enumerate("T5_not_regular", 4)
        vals = sorted(p["n"] for r, p in rows if r.line == "5")
        assert vals == [3, 4]

    def test_t4_line9_max_rank_4(self, cat):
        rows = cat.enumerate("T4_spherical", 4)
        vals = sorted((p["m"], p["n"]) for r, p in rows if r.line == "9")
        assert vals == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_max_rank_cap(self, cat):
        with pytest.raises(ValueError):
            cat.enumerate("T3_symmetric", 9)

    @pytest.mark.parametrize("max_rank", [-3, -2, -1, 0])
    def test_non_positive_max_rank_has_no_rows(self, cat, max_rank):
        for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                      "T5_not_regular"):
            assert cat.enumerate(table, max_rank) == []


def reference_lookup(cat, e):
    """Named lookup by the full walk: every row's parameter space, with the
    constructor name compared per assignment."""
    matches = []
    for row in cat.rows:
        for params in cat._param_assignments(row, e.ambient.rank):
            call = row.constructor_call(params)
            if call is not None and call[0] == e.constructor[0] and \
                    cat._row_matches(row, params, e):
                matches.append((row, params))
                break
    return next((m for m in matches if m[0].verdict is not None),
                matches[0] if matches else None)


class TestLookup:
    def test_named_lookup_skips_other_constructors(self, cat):
        # every constructible instance of the rank-5 sweep
        seen = 0
        for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                      "T5_not_regular"):
            for row, params in cat.enumerate(table, 5):
                call = row.constructor_call(params)
                descs = row.ambient_descriptors(params)
                if call is None or descs is None:
                    continue
                e = embed(build_algebra(descs), *call)
                assert cat.lookup(e) == reference_lookup(cat, e), (row.row_id, params)
                seen += 1
        assert seen == 93

    def test_block_sgl_2_2(self, cat):
        e = embed(build_algebra([("A", 3)]), "block_sgl", {"p": 2, "q": 2})
        hit = cat.lookup(e)
        assert hit is not None
        row, params = hit
        assert row.verdict is True
        assert row.constructor[0] == "block_sgl"

    def test_sp4_center_t4_line2(self, cat):
        e = embed(build_algebra([("A", 4)]), "sp_plus_center", {"n": 2})
        row, params = cat.lookup(e)
        assert row.row_id == "T4_spherical:2"
        assert params == {"n": 2}

    def test_unbalanced_block_t5(self, cat):
        e = embed(build_algebra([("A", 6)]), "block_sgl", {"p": 2, "q": 5})
        row, params = cat.lookup(e)
        assert row.row_id == "T5_not_regular:1"
        assert (params["p"], params["q"]) == (2, 5)

    def test_custom_structural_match(self, cat):
        # an explicit antisymmetric basis should match sl(3) > so(3)
        mats = [
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
        ]
        e = embed(build_algebra([("A", 2)]), "custom", {"matrices": mats})
        hit = cat.lookup(e)
        assert hit is not None
        assert hit[0].row_id == "T3_symmetric:1"

    @pytest.mark.parametrize("row,params", [
        pytest.param(row, params, id=f"{row.row_id}-" + ",".join(
            f"{k}={v}" for k, v in params.items()), marks=[pytest.mark.xfail(
                strict=True, reason="the h pattern [gl k, gl k'] of T2_levi:1/2 "
                "declares two central dimensions; s(gl k + gl k') has one")]
            if row.row_id in ("T2_levi:1", "T2_levi:2") else [])
        for table in ("T1_h_ess", "T2_levi", "T3_symmetric", "T4_spherical",
                      "T5_not_regular")
        for row, params in default_catalog().enumerate(table, 2)
        if row.constructor_call(params) and row.ambient_descriptors(params)])
    def test_custom_reembedding_matches_its_own_row(self, cat, row, params):
        # h re-entered as explicit matrices keeps only the derived ideal split
        L = build_algebra(row.ambient_descriptors(params))
        named = embed(L, *row.constructor_call(params))
        custom = embed(L, "custom", {
            "matrices": [L.dense_matrix_of(v) for v in named.h_basis.basis]})
        assert custom.h_basis == named.h_basis
        assert cat._row_matches(row, params, custom)

    def test_no_match_is_none(self, cat):
        # sl(4) > sp(4) is symmetric but not a table row (h is semisimple,
        # the pair is not a-regular and not in the not-regular table)
        e = embed(build_algebra([("A", 3)]), "sp_in_sl", {"n": 2})
        assert cat.lookup(e) is None


class TestVerifyRow:
    def test_t3_line4_matches(self, cat):
        row = next(r for r in cat.rows if r.row_id == "T3_symmetric:4")
        res = verify_row(row, {"n": 2}, CFG)
        assert res.status == "verified"
        assert res.match is True
        assert res.computed.a_regular is True

    def test_t5_line2_matches(self, cat):
        row = next(r for r in cat.rows if r.row_id == "T5_not_regular:2")
        res = verify_row(row, {"n": 3}, CFG)
        assert res.status == "verified"
        assert res.match is True
        assert res.computed.a_regular is False

    def test_t1_line6_informational(self, cat):
        row = next(r for r in cat.rows if r.row_id == "T1_h_ess:6")
        res = verify_row(row, {"n": 2}, CFG)
        assert res.status == "verified"
        assert res.informational
        assert res.match is True
        assert res.computed.a_regular is True

    def test_exceptional_skipped(self, cat):
        row = next(r for r in cat.rows if r.row_id == "T3_symmetric:5")
        res = verify_row(row, {}, CFG)
        assert res.status == "skipped"


def test_generator_rows_match_the_shipped_data():
    """tools/gen_catalog.py and the data file are two copies of the rows.
    The tool is loaded as a module, so its ``main``, which rewrites the
    data file, does not run."""
    path = Path(__file__).resolve().parents[1] / "tools" / "gen_catalog.py"
    spec = importlib.util.spec_from_file_location("gen_catalog", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    shipped = json.loads(resources.files("aregularity").joinpath(
        "data/catalog_tables.json").read_text())
    assert gen.ROWS == shipped["rows"]
    payload = json.dumps(gen.ROWS, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == shipped["sha256"]
