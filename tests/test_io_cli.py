import json

import numpy as np
import pytest

from homgeo.catalog import build, su21_model
from homgeo.cli import main
from homgeo.errors import IndexOutOfRange, ParseError
from homgeo.io import (
    algebra_from_dict,
    algebra_to_dict,
    dump_space,
    grading_to_dict,
    load_algebra,
    load_space,
    metric_from_dict,
    space_from_dict,
)


MILNOR_DOC = {
    "dim": 3,
    "basis": ["e0", "e1", "e2"],
    "brackets": [
        {"i": 1, "j": 2, "out": {"0": 1.0}},
        {"i": 0, "j": 1, "out": {"2": -1.0}},
    ],
}


EMPTY_M_DOC = {
    "algebra": MILNOR_DOC,
    "decomposition": {"k": [0, 1, 2], "m": []},
    "metric": {"diag": []},
}


def milnor_space_doc(l1, l2, l3, name=None):
    doc = {
        "algebra": {
            "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "out": {"0": l1}},
                {"i": 2, "j": 0, "out": {"1": l2}},
                {"i": 0, "j": 1, "out": {"2": l3}},
            ],
        },
        "decomposition": {"k": [], "m": [0, 1, 2]},
        "metric": {"diag": [1.0, 1.0, 1.0]},
    }
    if name:
        doc["name"] = name
    return doc


def test_algebra_document_round_trip():
    alg = algebra_from_dict(MILNOR_DOC)
    assert alg.basis_labels == ("e0", "e1", "e2")
    assert alg.brackets[(1, 2)] == {0: 1.0}
    doc = algebra_to_dict(alg)
    again = algebra_from_dict(doc)
    assert np.allclose(again.tensor, alg.tensor)


@pytest.mark.parametrize("mangle, needle", [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.__setitem__("dim", -1), "nonnegative"),
    (lambda d: d.__setitem__("basis", ["a"]), "basis"),
    (lambda d: d.__setitem__("basis", [1, 2, 3]), "label"),
    (lambda d: d["brackets"].append({"i": 1, "j": 1, "out": {}}), "itself"),
    (lambda d: d["brackets"].append({"i": 2, "j": 1, "out": {}}), "duplicate"),
    (lambda d: d["brackets"].append({"i": 0, "out": {}}), "'j'"),
    (lambda d: d["brackets"].append({"i": 0, "j": 2, "out": {"x": 1}}), "integer"),
    (lambda d: d["brackets"].append({"i": 0, "j": 2, "out": {"7": 1}}), "range"),
    (lambda d: d["brackets"].append({"i": 0, "j": 9, "out": {}}), "range"),
    (lambda d: d["brackets"].append({"i": 0, "j": 2, "out": {"1": float("nan")}}), "finite"),
    (lambda d: d["brackets"].append({"i": 0, "j": 2, "out": {"1": float("-inf")}}), "finite"),
    (lambda d: d["brackets"].append({"i": 0, "j": 2, "out": {"1": 10 ** 400}}), "finite"),
])
def test_algebra_document_errors(mangle, needle):
    doc = json.loads(json.dumps(MILNOR_DOC))
    mangle(doc)
    with pytest.raises(ParseError) as err:
        algebra_from_dict(doc)
    assert needle in str(err.value)


@pytest.mark.parametrize("key", ["02", " 2", "+2", "2 ", "1_0", "٢"])
def test_bracket_output_key_must_be_canonical(key):
    doc = {"dim": 3, "brackets": [{"i": 0, "j": 1, "out": {"2": 1.0, key: 5.0}}]}
    with pytest.raises(ParseError, match="decimal form") as err:
        algebra_from_dict(doc)
    assert err.value.location == f"algebra.brackets[0].out[{key!r}]"


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as err:
        algebra_from_dict({"dim": 2, "brackets": [{"i": 0, "j": 1, "out": 3}]})
    assert err.value.location == "algebra.brackets[0].out"


def test_metric_document_errors():
    with pytest.raises(ParseError):
        metric_from_dict({"diag": [1, 1], "matrix": [[1, 0], [0, 1]]}, 2)
    with pytest.raises(ParseError):
        metric_from_dict({"diag": [1.0]}, 2)
    with pytest.raises(ParseError):
        metric_from_dict({"matrix": [[1.0, 0.0]]}, 2)
    with pytest.raises(ParseError):
        metric_from_dict({}, 2)
    with pytest.raises(ParseError, match="finite"):
        metric_from_dict({"diag": [1.0, float("nan")]}, 2)
    with pytest.raises(ParseError, match="finite"):
        metric_from_dict({"matrix": [[1.0, float("inf")], [0.0, 1.0]]}, 2)
    g = metric_from_dict({"matrix": [[2.0, 1.0], [1.0, 2.0]]}, 2)
    assert g.matrix[0, 1] == 1.0


def test_space_document_errors():
    doc = milnor_space_doc(1.0, 0.0, -1.0)
    del doc["metric"]
    with pytest.raises(ParseError):
        space_from_dict(doc)
    doc = milnor_space_doc(1.0, 0.0, -1.0)
    doc["decomposition"] = {"k": [0]}
    with pytest.raises(ParseError):
        space_from_dict(doc)
    doc = milnor_space_doc(1.0, 0.0, -1.0)
    doc["decomposition"] = {"k": [0], "m": [1, 2]}
    with pytest.raises(ParseError):
        space_from_dict(doc)  # metric diagonal no longer matches dim m
    doc = milnor_space_doc(1.0, 0.0, -1.0)
    doc["name"] = 7
    with pytest.raises(ParseError):
        space_from_dict(doc)
    with pytest.raises(IndexOutOfRange):
        space_from_dict(EMPTY_M_DOC)


def test_space_partition_must_cover():
    doc = milnor_space_doc(1.0, 0.0, -1.0)
    doc["decomposition"] = {"k": [], "m": [0, 1]}
    with pytest.raises(IndexOutOfRange):
        space_from_dict(doc)


def test_file_round_trip(tmp_path):
    entry = build("su21_a3ii", lam=1.0, mu=1.0)
    path = tmp_path / "su21.json"
    dump_space(path, entry.decomposition, entry.metric,
               grading=entry.grading, name=entry.label)
    space = load_space(path)
    assert space.name == entry.label
    assert space.grading is not None
    assert np.allclose(space.metric.matrix, entry.metric.matrix)
    # the same file also serves as an algebra document
    alg = load_algebra(path)
    assert alg.dim == 8


def test_load_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ this is not json }")
    with pytest.raises(ParseError) as err:
        load_space(bad)
    assert str(bad) in err.value.location
    with pytest.raises(ParseError):
        load_space(tmp_path / "missing.json")


# --- command line ---------------------------------------------------------


def write_space(tmp_path, doc, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_classify_text(tmp_path, capsys):
    path = write_space(tmp_path, milnor_space_doc(1.0, 0.0, -1.0, name="e11"))
    code = main(["classify", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "space: e11" in out
    assert "class: traceless cyclic (S2)" in out
    assert out.endswith("[tolerance 1e-09]\n")


def test_cli_classify_json_round_trips(tmp_path, capsys):
    path = write_space(tmp_path, milnor_space_doc(1.0, 0.0, -1.0))
    code = main(["classify", path, "--format", "json", "--tolerance", "1e-8"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["traceless_cyclic"] is True
    assert payload["report"]["symmetric"] is False
    assert payload["metadata"] == {"tolerance": 1e-8}
    assert json.dumps(payload, indent=2, sort_keys=True) == out.rstrip("\n")


def test_cli_classify_rejects_jacobi_violation(tmp_path, capsys):
    doc = milnor_space_doc(1.0, 0.0, -1.0)
    doc["algebra"]["brackets"] = [
        {"i": 0, "j": 1, "out": {"2": 1.0}},
        {"i": 1, "j": 2, "out": {"1": 1.0}},
    ]
    path = write_space(tmp_path, doc)
    code = main(["classify", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "JacobiViolation" in captured.err


@pytest.mark.parametrize("command", ["classify", "curvature"])
def test_cli_rejects_empty_m(tmp_path, capsys, command):
    code = main([command, write_space(tmp_path, EMPTY_M_DOC)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: IndexOutOfRange")
    assert "Traceback" not in err


NAN_BRACKET_DOC = milnor_space_doc(1.0, 1.0, float("nan"))
NAN_METRIC_DOC = milnor_space_doc(1.0, 1.0, 1.0)
NAN_METRIC_DOC["metric"] = {"diag": [1.0, float("nan"), 1.0]}


@pytest.mark.parametrize("doc", [NAN_BRACKET_DOC, NAN_METRIC_DOC],
                         ids=["bracket", "metric"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, doc):
    path = write_space(tmp_path, doc)
    assert "NaN" in open(path).read()
    code = main(["classify", path])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ParseError") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["classify", "curvature", "verify-all"])
def test_cli_refuses_a_bad_tolerance(tmp_path, capsys, command, tol):
    args = [command] if command == "verify-all" else [
        command, write_space(tmp_path, milnor_space_doc(1.0, 2.0, -3.0))]
    code = main(args + [f"--tolerance={tol}"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ParamOutOfRange: tolerance must be finite and nonnegative")


def test_cli_curvature_json(tmp_path, capsys):
    path = write_space(tmp_path, milnor_space_doc(1.0, 0.0, -1.0))
    code = main(["curvature", path, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(payload["ricci"], np.diag([0.0, -2.0, 0.0]))
    assert payload["einstein"]["is_einstein"] is False
    assert payload["xi_block"] is None
    assert "UnimodularInput" in payload["xi_block_reason"]
    assert set(payload["ricci_routes"]) >= {"trace", "general", "cyclic"}


def test_cli_curvature_xi_block(tmp_path, capsys):
    doc = {
        "algebra": {
            "dim": 3,
            "brackets": [
                {"i": 0, "j": 1, "out": {"1": 1.0}},
                {"i": 0, "j": 2, "out": {"2": 1.0}},
            ],
        },
        "decomposition": {"k": [], "m": [0, 1, 2]},
        "metric": {"diag": [1.0, 1.0, 1.0]},
    }
    path = write_space(tmp_path, doc)
    code = main(["curvature", path, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["xi_block"]["c"] == pytest.approx(2.0)
    assert payload["xi_block"]["umbilical"] is True
    assert payload["xi_block"]["kappa"] == pytest.approx(-2.0)
    assert payload["sectional_extrema"]["min"]["value"] == pytest.approx(-1.0)


def test_cli_solve_cyclic(tmp_path, capsys):
    alg, grading, _ = su21_model()
    alg_path = tmp_path / "su21_algebra.json"
    alg_path.write_text(json.dumps({"algebra": algebra_to_dict(alg)}))
    grading_path = tmp_path / "su21_grading.json"
    grading_path.write_text(json.dumps(grading_to_dict(grading)))
    code = main(["solve-cyclic", str(alg_path), "--grading", str(grading_path),
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["dimension"] == 2
    assert payload["feasible"] is True
    assert payload["description"] == "2-parameter cone"
    assert payload["triples"] == [[0, 1, 2]]


@pytest.mark.parametrize("blocks", [[[2, 3], [4, 5], [6, 99]], [[2, 3], [4, 5], [-2, -1]]],
                         ids=["large", "negative"])
def test_cli_solve_cyclic_rejects_grading_outside_the_algebra(tmp_path, capsys, blocks):
    alg, _, _ = su21_model()
    alg_path = tmp_path / "su21_algebra.json"
    alg_path.write_text(json.dumps({"algebra": algebra_to_dict(alg)}))
    grading_path = tmp_path / "bad_grading.json"
    grading_path.write_text(json.dumps({"blocks": blocks, "signs": [-1, 1, 1]}))
    code = main(["solve-cyclic", str(alg_path), "--grading", str(grading_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: IndexOutOfRange")
    assert "Traceback" not in captured.err


def test_cli_catalog(tmp_path, capsys):
    code = main(["catalog", "list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "su21_a3ii" in out
    code = main(["catalog", "build", "milnor3",
                 "--params", '{"lam": [1.0, 0.0, -1.0]}', "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["algebra"]["dim"] == 3
    assert payload["expected"]["traceless_cyclic"] is True


def test_cli_catalog_errors(capsys):
    with pytest.raises(SystemExit) as err:
        main(["catalog", "build"])
    assert err.value.code == 2
    code = main(["catalog", "build", "nope"])
    assert code == 1
    assert "UnknownEntry" in capsys.readouterr().err
    code = main(["catalog", "build", "milnor3", "--params", "{bad"])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err
    code = main(["catalog", "build", "milnor3", "--params", "[1, 2]"])
    assert code == 1
    assert "JSON object" in capsys.readouterr().err
    for name, params in [("milnor3", '{"lam": 5}'), ("milnor3", '{"lam": "abc"}'),
                         ("milnor3", '{"lam": [1, 2, null]}'),
                         ("so2_heisenberg", '{"lam3": [1]}'),
                         ("milnor3", '{"lam": "123"}'), ("g", '{"alpha": "12"}'),
                         ("so2_heisenberg", '{"lam3": true}'), ("g", '{"alpha": [true]}'),
                         ("b4_product", '{"alpha": 1, "c": 1, "sign": true}'),
                         ("b4_product", '{"alpha": 1, "c": 1, "sign": 1.7}'),
                         ("b4_product", '{"alpha": 1, "c": 1, "sign": 0.5}')]:
        code = main(["catalog", "build", name, "--params", params])
        err = capsys.readouterr().err
        assert code == 1, params
        assert err.startswith("error: ParamOutOfRange") and "Traceback" not in err
    # the error names the value as passed, not a truncated one
    assert "got 0.5" in err
    # JSON's NaN and Infinity are refused as parameters, before any arithmetic
    for name, params in [("sp11_a3iii", '{"mu": NaN}'),
                         ("su21_a3ii", '{"lam": Infinity, "mu": 1}'),
                         ("so2_heisenberg", '{"lam3": -Infinity}'),
                         ("milnor3", '{"lam": [1, NaN, 2]}')]:
        code = main(["catalog", "build", name, "--params", params])
        err = capsys.readouterr().err
        assert code == 1, params
        assert err.startswith("error: ParamOutOfRange: expected a finite number"), err


@pytest.mark.parametrize("argv", [
    pytest.param(["catalog", "list", "--tolerance", "1e-6"], id="catalog-list"),
    pytest.param(["catalog", "build", "milnor3", "--params", '{"lam": [1, 2, -3]}',
                  "--tolerance", "nan"], id="catalog-build"),
    pytest.param(["classify", "space.json", "--seed", "7"], id="classify"),
    pytest.param(["curvature", "space.json", "--seed", "7"], id="curvature"),
    pytest.param(["solve-cyclic", "algebra.json", "--grading", "grading.json", "--seed", "7"],
                 id="solve-cyclic"),
])
def test_cli_refuses_an_option_the_subcommand_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_echoes_only_the_options_a_subcommand_has(capsys):
    assert main(["catalog", "build", "milnor3", "--params", '{"lam": [1, 2, -3]}',
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["metadata"] == {}
    assert main(["catalog", "list"]) == 0
    assert "[" not in capsys.readouterr().out
    assert main(["verify-all", "--seed", "7", "--tolerance", "1e-8"]) == 0
    assert capsys.readouterr().out.endswith("(tolerance 1e-08, seed 7)\n[tolerance 1e-08, seed 7]\n")


def test_cli_verify_all(capsys):
    code = main(["verify-all", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["checks"])


def test_cli_missing_file(tmp_path, capsys):
    code = main(["classify", str(tmp_path / "absent.json")])
    assert code == 1
    assert "ParseError" in capsys.readouterr().err
