"""CLI behaviour: exit codes, JSON schema, determinism, error paths."""

import hashlib
import json
from importlib import resources

import pytest

from aregularity import cli
from aregularity.cli import EXIT_DISAGREE, EXIT_ERROR, EXIT_NO, EXIT_YES, main


def write_pair(tmp_path, name, doc):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


FAST = ["--trials", "4", "--coeff-bound", str(1 << 12)]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestDecide:
    def test_yes_pair(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 3}],
            "h": {"constructor": "block_sgl", "params": {"p": 2, "q": 2}},
        })
        code, rep = run(capsys, ["decide", pair] + FAST)
        assert code == EXIT_YES
        assert rep["a_regular"] is True
        assert rep["certificate"]["kind"] == "exact_regular_element"
        assert rep["catalog_match"] is not None

    def test_no_pair(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 5}],
            "h": {"constructor": "block_sgl", "params": {"p": 2, "q": 4}},
        })
        code, rep = run(capsys, ["decide", pair] + FAST)
        assert code == EXIT_NO
        assert rep["a_regular"] is False
        assert rep["certificate"]["kind"] == "randomized_negative"

    def test_malformed_file(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A"}],
            "h": {"constructor": "block_sgl", "params": {"p": 2, "q": 2}},
        })
        code, rep = run(capsys, ["decide", pair] + FAST)
        assert code == EXIT_ERROR
        assert "g[0]" in rep["message"]

    def test_exceptional_rejected(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "E", "rank": 6}],
            "h": {"constructor": "block_one", "params": {"k": 2}},
        })
        code, rep = run(capsys, ["decide", pair] + FAST)
        assert code == EXIT_ERROR
        assert "catalog" in rep["message"]

    def test_determinism_minus_timing(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 2}],
            "h": {"constructor": "so_in_sl", "params": {"n": 3}},
        })
        _, rep1 = run(capsys, ["decide", pair, "--seed", "5"] + FAST)
        _, rep2 = run(capsys, ["decide", pair, "--seed", "5"] + FAST)
        rep1.pop("timing_seconds")
        rep2.pop("timing_seconds")
        assert rep1 == rep2

    def test_composite_pair_splits(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 2}, {"family": "A", "rank": 5}],
            "h": {"constructor": "direct_sum", "params": {"parts": [
                {"constructor": "so_in_sl", "params": {"n": 3}, "factors": 1},
                {"constructor": "block_sgl", "params": {"p": 2, "q": 4},
                 "factors": 1},
            ]}},
        })
        code, rep = run(capsys, ["decide", pair] + FAST)
        assert code == EXIT_NO
        assert rep["factorization"]["n_factors"] == 2
        assert [f["a_regular"] for f in rep["factorization"]["factors"]] == [True, False]


def catalog_with_verdict(tmp_path, row_id, verdict):
    """A copy of the shipped catalog, re-checksummed, with one verdict set."""
    doc = json.loads(resources.files("aregularity")
                     .joinpath("data/catalog_tables.json").read_text())
    table, line = row_id.split(":")
    [row] = [r for r in doc["rows"] if (r["table"], r["line"]) == (table, line)]
    row["verdict"] = verdict
    payload = json.dumps(doc["rows"], sort_keys=True, separators=(",", ":"))
    doc["sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCatalogOption:
    def test_flipped_verdict_is_a_disagreement(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "C", "rank": 2}],
            "h": {"constructor": "gl_in_sp", "params": {"n": 2}},
        })
        cat = catalog_with_verdict(tmp_path, "T3_symmetric:4", False)
        code, rep = run(capsys, ["decide", pair, "--catalog", cat] + FAST)
        assert code == EXIT_DISAGREE
        assert rep["error"] == "route_disagreement"
        assert rep["routes"]["catalog"] is False
        assert rep["routes"]["regular_element"] is True

    def test_ambiguous_match_is_a_json_error(self, tmp_path, capsys):
        # flipping T2_levi:1 makes s(gl2+gl2) < sl4 match two rows with
        # conflicting verdicts
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 3}],
            "h": {"constructor": "block_sgl", "params": {"p": 2, "q": 2}},
        })
        cat = catalog_with_verdict(tmp_path, "T2_levi:1", False)
        code = main(["decide", pair, "--catalog", cat] + FAST)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "AmbiguousMatchError"
        assert "Traceback" not in err


SO3 = [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
       [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
       [[0, 0, 0], [0, 0, 1], [0, -1, 0]]]


@pytest.mark.parametrize("g,h,named", [
    ([3], {"constructor": "block_sgl", "params": {"p": 2}}, "'q'"),
    ([3], {"constructor": "block_sgl", "params": {"p": 2, "q": 2, "r": 1}}, "'r'"),
    ([1], {"custom": {"matrices": [[["1/0", 0], [0, 0]]]}}, "1/0"),
    ([2], {"custom": {"matrices": SO3, "involution": {}}}, "involution"),
    ([2, 5], {"constructor": "direct_sum", "params": {}}, "parts"),
    ([3], {"constructor": "block_sgl", "params": {"p": "2", "q": 2}}, "'p'"),
], ids=["missing-param", "extra-param", "zero-denominator", "involution-no-kind",
        "direct-sum-no-parts", "string-param"])
def test_malformed_descriptor_is_a_json_error(tmp_path, capsys, g, h, named):
    pair = write_pair(tmp_path, "p.json", {
        "g": [{"family": "A", "rank": r} for r in g], "h": h})
    code = main(["decide", pair] + FAST)
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    rep = json.loads(out)
    assert rep["error"] != "internal_error"
    assert named in rep["message"]
    assert "Traceback" not in err


def test_unexpected_exception_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def broken(doc):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "load_pair", broken)
    pair = write_pair(tmp_path, "p.json", {"g": [], "h": {}})
    code = main(["decide", pair] + FAST)
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert json.loads(out) == {"error": "internal_error", "message": "KeyError: 'boom'"}
    assert "Traceback" not in err


class TestVerifyTables:
    def test_rank2_sweep(self, capsys):
        code, rep = run(capsys, ["verify-tables", "--max-rank", "2"] + FAST)
        assert code == EXIT_YES
        assert rep["mismatches"] == 0
        assert rep["verified_instances"] > 0

    def test_corrupted_catalog(self, tmp_path, capsys):
        doc = json.loads(resources.files("aregularity")
                         .joinpath("data/catalog_tables.json").read_text())
        doc["rows"][3]["verdict"] = False
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, rep = run(capsys, ["verify-tables", "--max-rank", "2",
                                 "--catalog", str(bad)] + FAST)
        assert code == EXIT_ERROR
        assert rep["error"] == "CatalogChecksumError"


class TestDecompose:
    def test_chain_pair(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 2}, {"family": "A", "rank": 1}],
            "h": {"constructor": "chain_image", "params": {"n": 2}},
        })
        code, rep = run(capsys, ["decompose", pair] + FAST)
        assert code == EXIT_YES
        assert rep["indecomposable"] is True
        assert rep["strictly_indecomposable"] is False


class TestSlice:
    def test_algebra_a2(self, capsys):
        code, rep = run(capsys, ["slice", "--algebra", "A2"] + FAST)
        assert code == EXIT_YES
        assert rep["slice_dim"] == 2
        assert rep["all_samples_regular"] is True
        # principal h of sl(3) is diag(2, 0, -2): torus coordinates (2, 2)
        assert rep["principal_triple"]["h"][:2] == ["2", "2"]

    def test_pair_nonempty(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 4}],
            "h": {"constructor": "sp_plus_center", "params": {"n": 2}},
        })
        code, rep = run(capsys, ["slice", pair] + FAST)
        assert code == EXIT_YES
        assert rep["slice_nonempty"] is True

    def test_pair_empty(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "C", "rank": 3}],
            "h": {"constructor": "sp_sub_center", "params": {"n": 3}},
        })
        code, rep = run(capsys, ["slice", pair] + FAST)
        assert code == EXIT_NO
        assert rep["slice_nonempty"] is False


class TestStabilizer:
    def test_report_fields(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 4}],
            "h": {"constructor": "block_sgl", "params": {"p": 2, "q": 3}},
        })
        code, rep = run(capsys, ["stabilizer", pair] + FAST)
        assert code == EXIT_YES
        assert rep["dim"] == 2
        assert rep["is_abelian"] is True
        assert rep["dim_h_perp"] == 12
        assert 0 < rep["failure_bound_float"] < 1

    def test_custom_h_with_involution(self, tmp_path, capsys):
        mats = [
            [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
            [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
            [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
        ]
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 2}],
            "h": {"custom": {"matrices": mats,
                             "involution": {"kind": "neg_transpose"}}},
        })
        code, rep = run(capsys, ["decide", pair] + FAST)
        assert code == EXIT_YES
        assert "satake" in rep["routes_agreed"]
