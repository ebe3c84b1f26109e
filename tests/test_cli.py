"""CLI behaviour: exit codes, JSON schema, determinism, error paths."""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aregularity import cli, constructors, subalgebras
from aregularity.catalog import Catalog, default_catalog
from aregularity.cli import EXIT_DISAGREE, EXIT_ERROR, EXIT_NO, EXIT_YES, main
from aregularity.constructors import constructor_names
from aregularity.lie_core import build_algebra
from aregularity.subalgebras import Embedding


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


def patched_catalog(tmp_path, row_id, **fields):
    """A copy of the shipped catalog, re-checksummed, with fields of one row
    replaced."""
    doc = json.loads(resources.files("aregularity")
                     .joinpath("data/catalog_tables.json").read_text())
    table, line = row_id.split(":")
    [row] = [r for r in doc["rows"] if (r["table"], r["line"]) == (table, line)]
    row.update(fields)
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
        cat = patched_catalog(tmp_path, "T3_symmetric:4", verdict=False)
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
        cat = patched_catalog(tmp_path, "T2_levi:1", verdict=False)
        code = main(["decide", pair, "--catalog", cat] + FAST)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "AmbiguousMatchError"
        assert "Traceback" not in err

    def test_constraint_code_is_never_run(self, tmp_path, capsys):
        marker = tmp_path / "marker"
        payload = ("[c for c in ().__class__.__base__.__subclasses__() "
                   "if c.__name__ == '_wrap_close'][0].__init__.__globals__"
                   f"['mkdir']({str(marker)!r}) or k >= 1")
        cat = patched_catalog(tmp_path, "T2_levi:1", constraints=[payload])
        code = main(["verify-tables", "--max-rank", "2", "--catalog", cat] + FAST)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        assert json.loads(out)["error"] == "CatalogFormatError"
        assert "Traceback" not in err
        assert not marker.exists()

    @pytest.mark.parametrize("make,field", [
        (lambda row: [], None),
        (lambda row: {"rows": {"0": row}}, None),
        (lambda row: {"rows": [{}]}, "table"),
        (lambda row: {"rows": [{k: v for k, v in row.items() if k != "params"}]},
         "params"),
        (lambda row: {"rows": [{**row, "g": [["sl"]]}]}, "g"),
        (lambda row: {"rows": [{**row, "g": [["sl", "2*k"], ["simple"]]}]}, "g"),
        (lambda row: {"rows": [{**row, "constructor": ["block_sgl"]}]}, "constructor"),
        (lambda row: {"rows": [{**row, "verdict": "yes"}]}, "verdict"),
        (lambda row: {"rows": [{**row, "h": [["simple"]]}]}, "h"),
        (lambda row: {"rows": [{**row, "g": [["su", "2*k"]]}]}, "g"),
        (lambda row: {"rows": [{**row, "h": [["u", "k"]]}]}, "h"),
    ], ids=["root-list", "rows-object", "empty-row", "no-params", "g-entry",
            "g-mixed-simple", "constructor-name-only", "verdict-string",
            "h-simple-under-kind-g", "g-unknown-kind", "h-unknown-kind"])
    def test_malformed_catalog_is_a_format_error(self, tmp_path, capsys, make, field):
        """A catalog built from row T2_levi:1, re-checksummed, with one part
        of the wrong shape."""
        [row] = [r for r in json.loads(resources.files("aregularity").joinpath(
            "data/catalog_tables.json").read_text())["rows"]
            if (r["table"], r["line"]) == ("T2_levi", "1")]
        doc = make(row)
        if isinstance(doc, dict):
            doc["sha256"] = hashlib.sha256(json.dumps(
                doc["rows"], sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        cat = tmp_path / "catalog.json"
        cat.write_text(json.dumps(doc))
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": 3}],
            "h": {"constructor": "block_sgl", "params": {"p": 2, "q": 2}},
        })
        code = main(["decide", pair, "--catalog", str(cat)] + FAST)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        rep = json.loads(out)
        assert rep["error"] == "CatalogFormatError"
        if field is not None:
            assert f"rows[0].{field}" in rep["message"]
        assert "Traceback" not in err

    def test_decide_looks_the_pair_up_once(self, tmp_path, capsys, monkeypatch):
        doc = {"g": [{"family": "A", "rank": 3}],
               "h": {"constructor": "block_sgl", "params": {"p": 2, "q": 2}}}
        calls = []
        row_matches = Catalog._row_matches
        monkeypatch.setattr(Catalog, "_row_matches",
                            lambda self, *args: calls.append(args[0].row_id)
                            or row_matches(self, *args))
        code, rep = run(capsys, ["decide", write_pair(tmp_path, "p.json", doc)] + FAST)
        assert code == EXIT_YES and rep["catalog_match"]["row"] == "T2_levi:1"
        in_decide = list(calls)
        calls.clear()
        default_catalog().lookup(cli.load_pair(doc))
        assert in_decide == calls != []


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
    (5, {"constructor": "block_sgl", "params": {"p": 1, "q": 1}}, "g must"),
    ([3], {"constructor": "block_sgl", "params": [2, 2]}, "params"),
    ([2, 5], {"constructor": "direct_sum", "params": {"parts": [5]}}, "parts[0]"),
    ([2, 5], {"constructor": "direct_sum", "params": {"parts": [
        {"constructor": "so_in_sl", "params": {"n": 3}}]}}, "'factors'"),
    ([2, 5], {"constructor": "direct_sum", "params": {"parts": [
        {"constructor": "so_in_sl", "params": {"n": 3}, "factors": "1"}]}}, "'factors'"),
    ([2], {"custom": {"matrices": 7}}, "matrices"),
    ([1.5], {"constructor": "block_sgl", "params": {"p": 1, "q": 1}}, "g[0].rank"),
], ids=["missing-param", "extra-param", "zero-denominator", "involution-no-kind",
        "direct-sum-no-parts", "string-param", "g-not-a-list", "params-list",
        "part-not-an-object", "part-without-factors", "string-factors",
        "matrices-not-a-list", "float-rank"])
def test_malformed_descriptor_is_a_json_error(tmp_path, capsys, g, h, named):
    pair = write_pair(tmp_path, "p.json", {
        "g": [{"family": "A", "rank": r} for r in g] if isinstance(g, list) else g,
        "h": h})
    code = main(["decide", pair] + FAST)
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    rep = json.loads(out)
    assert rep["error"] != "internal_error"
    assert named in rep["message"]
    assert "Traceback" not in err


# generated pair descriptors: mostly well-typed and small (ranks <= 3), with
# junk (wrong JSON types, unknown names) mixed in at every level
_SCALARS = st.one_of(st.integers(-2, 6), st.booleans(), st.none(),
                     st.sampled_from(["A", "C", "1/2", "1/0", "x", "swap"]))
_JUNK = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4),
                     max_leaves=12)


def _mostly(good, junk=_JUNK):
    """``good`` five times in six, else ``junk``."""
    return st.integers(0, 5).flatmap(lambda i: good if i else junk)


_ARG = _mostly(st.one_of(st.integers(1, 4),
                         st.lists(st.integers(0, 3), min_size=1, max_size=3),
                         st.sampled_from(["A", "B", "C", "D"]), st.booleans()))
_MATRIX = st.lists(st.lists(st.sampled_from([0, 0, 0, 1, -1, "1/2"]),
                            min_size=2, max_size=4), min_size=2, max_size=4)
_CUSTOM = st.fixed_dictionaries(
    {"matrices": st.one_of(st.lists(_MATRIX, max_size=3), _JUNK)},
    optional={"involution": st.one_of(_JUNK, st.fixed_dictionaries(
        {"kind": st.sampled_from(["neg_transpose", "swap", "conjugation", "x"])},
        optional={"matrix": st.one_of(_MATRIX, _JUNK)}))})


def _params(name, parts):
    """Params for the constructor ``name``; direct sums nest ``parts``."""
    if name == "custom":
        return _CUSTOM
    if name == "direct_sum":
        return st.one_of(_JUNK, st.fixed_dictionaries({"parts": st.one_of(
            _JUNK, st.lists(st.one_of(_SCALARS, parts), max_size=3))}))
    fn = constructors._REGISTRY.get(name)
    keys = list(inspect.signature(fn).parameters)[1:] if fn else ["n"]
    return _mostly(st.one_of(st.fixed_dictionaries({k: _ARG for k in keys}),
                             st.dictionaries(st.sampled_from(keys + ["x"]), _ARG)))


def _h(parts):
    return st.sampled_from(constructor_names() + ["junk"]).flatmap(
        lambda name: st.fixed_dictionaries({
            "constructor": st.just(name), "params": _params(name, parts),
            "factors": _mostly(st.integers(1, 2), st.integers(-1, 3))}))


_PART = st.deferred(lambda: _h(_PART))
_FACTOR = st.fixed_dictionaries({
    "family": st.sampled_from(["A", "A", "B", "C", "C", "D", "E", "Q"]),
    "rank": _mostly(st.integers(1, 3))})
_DOCS = st.fixed_dictionaries({
    "g": _mostly(st.lists(_FACTOR, min_size=1, max_size=2)),
    "h": _mostly(st.one_of(_PART, st.fixed_dictionaries({"custom": _CUSTOM}))),
})


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_DOCS)
def test_load_pair_fuzz(doc):
    try:
        assert isinstance(cli.load_pair(doc), Embedding)
    except (ValueError, RuntimeError, OSError):
        pass


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


def test_internal_error_in_a_custom_lookup_is_not_a_catalog_miss(
        tmp_path, capsys, monkeypatch):
    L = build_algebra([("A", 4)])
    named = subalgebras.embed(L, "block_sgl", {"p": 2, "q": 3})
    mats = [[[str(x) for x in row] for row in L.dense_matrix_of(v)]
            for v in named.h_basis.basis]
    pair = write_pair(tmp_path, "p.json", {"g": [{"family": "A", "rank": 4}],
                                           "h": {"custom": {"matrices": mats}}})

    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(subalgebras, "decompose_reductive", broken)
    code = main(["decide", pair] + FAST)
    out, err = capsys.readouterr()
    assert code == EXIT_ERROR
    assert json.loads(out) == {"error": "RuntimeError", "message": "boom"}
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["decide"],
    ["decide", "p.json", "--trials", "abc"],
    ["frobnicate"],
    [],
    ["decide", "p.json", "--no-such-flag"],
], ids=["missing-pair", "trials-abc", "unknown-command", "no-command",
        "unknown-flag"])
def test_argument_error_is_a_json_error(capsys, argv):
    # argparse's own exit status 2 would read as a route disagreement
    code, rep = run(capsys, argv)
    assert code == EXIT_ERROR
    assert rep["error"] == "ArgumentError" and rep["message"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--help"])
    assert exc.value.code == 0
    assert "--coeff-bound" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["decide", "stabilizer"])
def test_zero_coefficient_bound_is_an_argument_error(tmp_path, command):
    # in a child process: a bound of 0 used to make the sampler draw forever
    pair = write_pair(tmp_path, "p.json", {
        "g": [{"family": "A", "rank": 2}],
        "h": {"constructor": "so_in_sl", "params": {"n": 3}},
    })
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "aregularity.cli", command, pair, "--coeff-bound", "0"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_ERROR
    assert json.loads(proc.stdout)["error"] == "ArgumentError"


@pytest.mark.parametrize("argv", [
    ["slice", "--algebra", "A2"],
    ["verify-tables", "--max-rank", "3"],
], ids=["small-report", "large-report"])
def test_closed_stdout_is_an_error_without_traceback(argv):
    # the reader of stdout is gone before the report is written: a small
    # report fails at main's flush, a large one inside print
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "aregularity.cli", *argv],
                              env=env, stdout=write_end, stderr=subprocess.PIPE,
                              text=True, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_ERROR
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["slice", "--algebra", "A2", "--samples", "0"],
    ["slice", "--algebra", "A2", "--samples", "-5"],
    ["verify-tables", "--max-rank", "0"],
    ["verify-tables", "--max-rank", "-3"],
], ids=["samples-0", "samples-negative", "max-rank-0", "max-rank-negative"])
def test_non_positive_size_is_an_argument_error(capsys, argv):
    # --samples 0 reported all samples regular after checking none
    code, rep = run(capsys, argv)
    assert code == EXIT_ERROR
    assert rep["error"] == "ArgumentError"
    assert argv[-2] in rep["message"]


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

    @pytest.mark.parametrize("label", ["+", " ", "", "A", "Ax", "2A"],
                             ids=["plus", "blank", "empty", "no-rank",
                                  "rank-not-digits", "digit-first"])
    def test_label_naming_no_algebra_is_an_error(self, capsys, label):
        code = main(["slice", "--algebra", label] + FAST)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        rep = json.loads(out)
        assert rep["error"] == "DescriptorError"
        assert "--algebra" in rep["message"] and repr(label) in rep["message"]
        assert "Traceback" not in err

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

    @pytest.mark.parametrize("g,mats,involution,error,message", [
        ([("A", 2)], [[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]], {"kind": "neg_transpose"},
         "InvolutionError", "fixed algebra"),
        ([("A", 1)], [[[1, 0], [0, -1]]], {"kind": "neg_transpose"}, "InvolutionError",
         "fixed algebra"),
        ([("A", 1)], [[[1, 0], [0, -1]]],
         {"kind": "conjugation", "matrix": [[1, 0], [0, 2]]}, "InvolutionError",
         "square"),
        ([("A", 1)], [], {"kind": "neg_transpose"}, "InvolutionError", "fixed algebra"),
        ([("C", 2)], [[[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1]]],
         {"kind": "conjugation",
          "matrix": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
         "InvalidSubalgebraError", "leaves the algebra"),
        # span(E01, E10) is not closed; with a theta only h = Fix theta is
        # checked, and it fails
        ([("A", 2)],
         [[[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [1, 0, 0], [0, 0, 0]]],
         {"kind": "conjugation", "matrix": [[1, 1, 0], [0, -1, 0], [0, 0, 1]]},
         "InvolutionError", "fixed algebra"),
    ], ids=["h-smaller-than-fix", "h-not-fixed", "theta-squared-not-one",
            "empty-h", "theta-leaves-g", "non-closed-h"])
    def test_custom_involution_must_fix_exactly_h(self, tmp_path, capsys, g, mats,
                                                  involution, error, message):
        doc = {"g": [{"family": f, "rank": r} for f, r in g],
               "h": {"custom": {"matrices": mats, "involution": involution}}}
        # the embedding itself is refused, before any route runs
        with pytest.raises(getattr(subalgebras, error)):
            cli.load_pair(doc)
        code = main(["decide", write_pair(tmp_path, "p.json", doc)] + FAST)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        rep = json.loads(out)
        assert rep["error"] == error and message in rep["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("rank,mats,error,message", [
        (2, [[[1, 0], [0, -1]]], "InvalidSubalgebraError", "custom.matrices[0]"),
        (2, [[[1, 0, 0], [0, -1]]], "InvalidSubalgebraError", "custom.matrices[0]"),
        (1, [[[1, 0], [0, -1]], [[0, 1], [0, 0]]], "DegenerateFormError", "degenerate"),
        (2, [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
             [[0, 1, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
             [[0, 0, 0], [0, 0, 1], [0, 0, 0]]], "DegenerateFormError", "degenerate"),
        (1, [[[0, 1], [0, 0]]], "DegenerateFormError", "degenerate"),
    ], ids=["too-small", "ragged", "borel-sl2", "borel-sl3", "nilpotent-line"])
    def test_custom_h_of_wrong_shape_or_not_reductive_is_refused(
            self, tmp_path, capsys, rank, mats, error, message):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": rank}], "h": {"custom": {"matrices": mats}}})
        code = main(["decide", pair] + FAST)
        out, err = capsys.readouterr()
        assert code == EXIT_ERROR
        rep = json.loads(out)
        assert rep["error"] == error and message in rep["message"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("g,mats,involution", [
        ([1, 1], [[[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
                  [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
                  [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]]],
         {"kind": "swap"}),
        ([2], [[[0, 0, 0], [0, 1, 0], [0, 0, -1]],
               [[0, 0, 0], [0, 0, 1], [0, 0, 0]],
               [[0, 0, 0], [0, 0, 0], [0, 1, 0]],
               [[2, 0, 0], [0, -1, 0], [0, 0, -1]]],
         {"kind": "conjugation", "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, -1]]}),
    ], ids=["swap", "conjugation"])
    def test_custom_h_with_other_involution_kinds(self, tmp_path, capsys, g, mats,
                                                  involution):
        pair = write_pair(tmp_path, "p.json", {
            "g": [{"family": "A", "rank": r} for r in g],
            "h": {"custom": {"matrices": mats, "involution": involution}}})
        code, rep = run(capsys, ["decide", pair] + FAST)
        assert code == EXIT_YES
        assert "satake" in rep["routes_agreed"]
