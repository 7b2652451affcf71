import json
import os
import subprocess
import sys
import time

import pytest

from gradedpi import algebras, cli, pitool
from gradedpi.algebras import build_catalog, catalog_ids
from gradedpi.cli import (
    algebra_spec_dict,
    load_algebra_spec,
    load_genset_spec,
    main,
)
from gradedpi.errors import SpecParseError


def run(argv):
    return main(argv)


def test_build_summary_and_exit(capsys):
    assert run(["build", "--algebra", "m2-4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dimension"] == 4 and doc["graded_division"] and doc["regular"]


def test_build_invalid_params_exit3(capsys):
    assert run(["build", "--algebra", "pauli", "--n", "0"]) == 3
    assert run(["build", "--algebra", "no-such-entry"]) == 3


def test_build_past_the_catalog_bound_exit4(monkeypatch, capsys):
    """pauli-9, the smallest past the bound, is refused before it is built."""
    def construct(self, *args, **kwargs):
        raise AssertionError("an algebra was constructed")

    monkeypatch.setattr(algebras.GradedAlgebra, "__init__", construct)
    assert run(["build", "--algebra", "pauli", "--n", "9"]) == 4
    assert "dimension 162, over the bound 128" in capsys.readouterr().err


def test_build_refuses_a_parameter_no_factor_takes(capsys):
    """Each factor of a product gets its own parameters; one that no factor
    takes is refused rather than ignored."""
    assert run(["build", "--algebra", "c2", "--n", "3"]) == 3
    assert "takes no parameter 'n'" in capsys.readouterr().err
    assert run(["build", "--algebra", "c2@m2-4", "--eps", "1"]) == 3
    assert run(["build", "--algebra", "c2@pauli", "--n", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 16


def test_algebra_spec_roundtrip(tmp_path):
    alg = build_catalog("m2-8")
    path = tmp_path / "m28.json"
    path.write_text(json.dumps(algebra_spec_dict(alg), indent=2))
    loaded = load_algebra_spec(str(path))
    assert loaded.labels == alg.labels
    assert loaded.degrees == alg.degrees
    assert loaded.mult == alg.mult
    assert loaded.unit == alg.unit
    assert loaded.group.orders == alg.group.orders


_SPEC_CASES = [(name, {}) for name in catalog_ids()
               if name not in ("pauli", "d-cyclic", "d-pair", "e-series")] + [
    ("pauli", {"n": n}) for n in range(2, 7)] + [
    ("d-cyclic", {"m": 3, "eps": 1}), ("d-cyclic", {"m": 2, "eps": -1}),
    ("d-pair", {"k": 2, "l": 2, "mu": -1, "nu": -1}),
    ("e-series", {"eps": -1, "n": 4}), ("e-series", {"eps": 1, "n": 2}),
    ("c2@m2-4", {}), ("h4@m2-8", {}),
]


@pytest.mark.parametrize("name, params", _SPEC_CASES,
                         ids=["%s%s" % (name, "".join("-%s" % v for v in params.values()))
                              for name, params in _SPEC_CASES])
def test_written_spec_reloads_the_same_algebra(tmp_path, name, params):
    """What `build --out` writes reads back with equal labels, degrees, table
    and unit, also where labels such as i*u[g] contain the key separator."""
    alg = build_catalog(name, **params)
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_spec_dict(alg), indent=2))
    loaded = load_algebra_spec(str(path))
    assert loaded.labels == alg.labels
    assert loaded.degrees == alg.degrees
    assert loaded.mult == alg.mult
    assert loaded.unit == alg.unit
    assert loaded.group.orders == alg.group.orders


def test_build_out_then_build_from_the_file(tmp_path, capsys):
    """`build --out` keeps stdout one JSON document and reports the file on
    stderr; the file builds the same algebra."""
    path = tmp_path / "p3.json"
    assert run(["build", "--algebra", "pauli", "--n", "3", "--out", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err.strip() == "wrote %s" % path
    from_catalog = json.loads(out)
    assert run(["build", "--algebra", str(path)]) == 0
    from_file = json.loads(capsys.readouterr().out)
    assert from_file["dimension"] == from_catalog["dimension"] == 18
    assert from_file["graded_division"] == from_catalog["graded_division"]


def _partial_dv_genset(tmp_path):
    """A generator-set file for m2-elem that lacks the odd reversal, so that
    verification fails at degree 3."""
    gs = {
        "format": "gradedpi-genset", "version": 1, "name": "partial",
        "mode": "identities", "cyclotomic_order": 2,
        "s1": ["x1:e*x2:e - x2:e*x1:e"], "s2": [],
    }
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(gs))
    return str(path)


@pytest.mark.parametrize("argv, status, written", [
    (["build", "--algebra", "pauli", "--n", "3", "--out", "p3.json"], 0, "p3.json"),
    (["verify", "--algebra", "m2-elem", "--basis", "partial.json",
      "--mode", "identities", "--max-degree", "3"], 1, None),
], ids=["build-out", "failing-verify"])
def test_closed_stdout_keeps_the_command_status(tmp_path, argv, status, written):
    """A reader that closes stdout before the output is written gets no
    traceback and does not change the exit status; `build --out` still
    writes its spec file."""
    _partial_dv_genset(tmp_path)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.Popen([sys.executable, "-m", "gradedpi.cli"] + argv,
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == status, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    if written:
        assert (tmp_path / written).exists()


def test_algebra_spec_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert run(["build", "--algebra", str(path)]) == 2
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps({"format": "something-else", "version": 1}))
    assert run(["build", "--algebra", str(path2)]) == 2


_ALGEBRA_HEADER = {"format": "gradedpi-algebra", "version": 1}
_ONE_LABEL = {"labels": ["1"], "degrees": {"1": "e"}}
# m2-4 as an explicit spec: a regular grading, whose bicharacter build reads
# the declared cyclotomic order
_M2_4_SPEC = algebra_spec_dict(build_catalog("m2-4"))


@pytest.mark.parametrize("doc", [
    [_ALGEBRA_HEADER],
    dict(_ALGEBRA_HEADER, catalog={"params": {}}),
    dict(_ALGEBRA_HEADER, group={"orders": [2]}, basis={"degrees": {"1": "e"}}),
    dict(_ALGEBRA_HEADER, group={"orders": [2]},
         basis=dict(_ONE_LABEL, mult={"1*1": [["q", "1"]]})),
    dict(_ALGEBRA_HEADER, group={"orders": [2]},
         basis=dict(_ONE_LABEL, mult={"1*1": [["1"]]})),
    dict(_ALGEBRA_HEADER, cyclotomic_order=4, group={"orders": [2]},
         basis={"labels": ["1", "j"], "degrees": {"1": "e", "j": "e"},
                "mult": {"1*1": [["1", "1"]], "1*j": [["j", "1"]],
                         "j*1": [["j", "1"]], "j*j": [["1", "z"]]},
                "unit": [["1", "1"]]}),
    # (a*a)*b = b*b = 0 but a*(a*b) = a*a = b
    dict(_ALGEBRA_HEADER, group={"orders": [2]},
         basis={"labels": ["1", "a", "b"], "degrees": {"1": "e", "a": "e", "b": "e"},
                "mult": {"1*1": [["1", "1"]], "1*a": [["a", "1"]], "a*1": [["a", "1"]],
                         "1*b": [["b", "1"]], "b*1": [["b", "1"]],
                         "a*a": [["b", "1"]], "a*b": [["a", "1"]]},
                "unit": [["1", "1"]]}),
    # "a*b*c" splits into two known labels at both of its stars
    dict(_ALGEBRA_HEADER, group={"orders": [2]},
         basis={"labels": ["a", "a*b", "b*c", "c"],
                "degrees": {"a": "e", "a*b": "e", "b*c": "e", "c": "e"},
                "mult": {"a*b*c": [["a", "1"]]}, "unit": [["a", "1"]]}),
    dict(_M2_4_SPEC, cyclotomic_order=0),
    dict(_M2_4_SPEC, cyclotomic_order=-4),
    dict(_M2_4_SPEC, cyclotomic_order=2.5),
    dict(_ALGEBRA_HEADER, group={"orders": [2]},
         basis=dict(_ONE_LABEL, mult={"1*1": [["1", "1/0"]]}, unit=[["1", "1"]])),
    dict(_ALGEBRA_HEADER, group={"orders": [2]},
         basis=dict(_ONE_LABEL, mult={"1*1": [["1", "1"]]}, unit=[["1", "1/0"]])),
    # a catalog parameter is an integer, not one truncated or parsed to it
    dict(_ALGEBRA_HEADER, catalog={"id": "pauli", "params": {"n": 2.5}}),
    dict(_ALGEBRA_HEADER, catalog={"id": "pauli", "params": {"n": "3"}}),
    dict(_ALGEBRA_HEADER, catalog={"id": "pauli", "params": {"n": True}}),
    dict(_ALGEBRA_HEADER, group={"orders": [2]},
         basis={"labels": ["x", "x"], "degrees": {"x": "e"},
                "mult": {"x*x": [["x", "1"]]}, "unit": [["x", "1"]]}),
], ids=["top-level-list", "catalog-without-id", "basis-without-labels",
        "unknown-label-in-mult", "one-field-mult-entry", "non-real-constant",
        "non-associative", "ambiguous-product-key", "order-zero", "order-negative",
        "order-not-an-integer", "constant-over-zero", "unit-over-zero",
        "catalog-param-not-an-integer", "catalog-param-a-string", "catalog-param-a-bool",
        "duplicate-labels"])
def test_malformed_algebra_spec_exit2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["build", "--algebra", str(path)]) == 2
    assert "parse error:" in capsys.readouterr().err


_GENSET_HEADER = {"format": "gradedpi-genset", "version": 1}
_COMMUTATOR = ["x1:e*x2:e - x2:e*x1:e"]


@pytest.mark.parametrize("doc", [
    ["gradedpi-genset"],
    dict(_GENSET_HEADER, s1=5),
    dict(_GENSET_HEADER, mode="neither"),
    dict(_GENSET_HEADER, cyclotomic_order=0, s1=_COMMUTATOR),
    dict(_GENSET_HEADER, cyclotomic_order=-2, s1=_COMMUTATOR),
    dict(_GENSET_HEADER, cyclotomic_order=2.5, s1=_COMMUTATOR),
    dict(_GENSET_HEADER, s1=["(1/0)*x1:e*x2:e"]),
], ids=["top-level-list", "s1-not-a-list", "unknown-mode", "order-zero",
        "order-negative", "order-not-an-integer", "coefficient-over-zero"])
def test_malformed_genset_spec_is_a_parse_error(tmp_path, capsys, doc):
    path = tmp_path / "bad-genset.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecParseError):
        load_genset_spec(str(path), build_catalog("m2-elem"))
    assert run(["verify", "--algebra", "m2-elem", "--basis", str(path),
                "--max-degree", "2"]) == 2
    assert "parse error:" in capsys.readouterr().err


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                         ids=["umask-022", "umask-027"])
def test_out_file_mode_follows_umask(tmp_path, umask, mode):
    out = tmp_path / "m24.json"
    old = os.umask(umask)
    try:
        assert run(["build", "--algebra", "m2-4", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode
    assert load_algebra_spec(str(out)).dim == 4


def test_verify_cli_paths(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(["verify", "--algebra", "m2-elem", "--basis", "dv-lemma",
                "--mode", "identities", "--max-degree", "3",
                "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "gradedpi-report" and doc["ok"]
    assert doc["assumptions"]  # the plain-tensor reading travels with results
    # deterministic output for identical inputs
    out2 = tmp_path / "report2.json"
    run(["verify", "--algebra", "m2-elem", "--basis", "dv-lemma",
         "--mode", "identities", "--max-degree", "3", "--out", str(out2)])
    d1 = json.loads(out.read_text())
    d2 = json.loads(out2.read_text())
    d1.pop("elapsed_seconds"), d2.pop("elapsed_seconds")
    assert d1 == d2


def test_verify_failure_exit1(tmp_path):
    code = run(["verify", "--algebra", "m2-elem", "--basis", _partial_dv_genset(tmp_path),
                "--mode", "identities", "--max-degree", "3"])
    assert code == 1


def test_verify_mode_mismatch_exit3():
    assert run(["verify", "--algebra", "m2-elem", "--basis", "bp-centrals",
                "--mode", "identities", "--max-degree", "2"]) == 3


@pytest.mark.parametrize("algebra, basis, mode", [
    (["m2-4"], "okhitin", "centrals"),
    (["c2"], "s4-hall", "identities"),
    (["m2-elem"], "okhitin", "centrals"),
    (["pauli", "--n", "3"], "s4-hall", "identities"),
], ids=["m2-4-okhitin", "c2-s4-hall", "m2-elem-okhitin", "pauli-3-s4-hall"])
def test_trivially_graded_set_on_a_graded_algebra_exit3(algebra, basis, mode, capsys):
    """s4-hall and okhitin live over the trivial group: on a graded algebra
    they are refused before any check, not failed by a raw traceback."""
    assert run(["verify", "--algebra"] + algebra + ["--basis", basis, "--mode", mode,
                                                    "--max-degree", "2"]) == 3
    assert "needs the trivial grading group" in capsys.readouterr().err


def test_families_output(tmp_path, capsys):
    code = run(["families", "--algebra", "m2-4", "--basis", "regular",
                "--mode", "identities", "--format", "tsv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len([l for l in lines if l.startswith("s1\t")]) == 16


def test_families_json_roundtrip(tmp_path):
    """A written family reloads with its mode and all three parts; the
    pauli-3 family keeps its 81 swap identities as extras."""
    cases = [(["--algebra", "m2-elem", "--basis", "bp-centrals", "--mode", "centrals"],
              build_catalog("m2-elem"), "centrals", (8, 1, 0)),
             (["--algebra", "pauli", "--n", "3", "--basis", "pauli", "--max-degree", "3"],
              build_catalog("pauli", n=3), "identities", (433, 0, 81))]
    for args, alg, mode, sizes in cases:
        out = tmp_path / "genset.json"
        assert run(["families"] + args + ["--out", str(out)]) == 0
        genset = load_genset_spec(str(out), alg)
        assert genset.mode == mode
        assert (len(genset.s1), len(genset.s2), len(genset.extras)) == sizes


def test_transfer_cli(tmp_path):
    code = run(["transfer", "--algebra", "m2-elem", "--basis", "dv-lemma",
                "--mode", "identities", "--with", "m2-4", "--verify",
                "--max-degree", "2"])
    assert code == 0


def test_reduce_cli(capsys):
    code = run(["reduce", "--algebra", "pauli", "--n", "3",
                "--poly", "x1:x*x2:x"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certificate_replayed"] and doc["rounds"] == 1


def test_reduce_requires_poly():
    assert run(["reduce", "--algebra", "pauli", "--n", "3"]) == 3


def test_report_rerender(tmp_path, capsys):
    out = tmp_path / "r.json"
    run(["verify", "--algebra", "m2-4", "--basis", "regular",
         "--mode", "identities", "--max-degree", "2", "--out", str(out)])
    capsys.readouterr()
    code = run(["report", "--input", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("degrees\t")
    assert "\tyes\t" in text


_ONE_RECORD = {"degrees": ["a"], "orbit": 1, "dim_target": 0, "dim_consequence": 0,
               "equal": True, "witness": None}


@pytest.mark.parametrize("records", [
    [{key: val for key, val in _ONE_RECORD.items() if key != "orbit"}],
    "x",
    [dict(_ONE_RECORD, degrees=5)],
], ids=["record-without-orbit", "records-a-string", "degrees-a-number"])
def test_report_of_the_wrong_shape_exit2(tmp_path, capsys, records):
    """A report file whose records have the wrong shape is a parse error,
    not a traceback."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "gradedpi-report", "records": records}))
    assert run(["report", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: malformed %s" % path)


def test_tsv_report_same_on_stdout_in_file_and_rerendered(tmp_path, capsys):
    argv = ["verify", "--algebra", "m2-elem", "--basis", "dv-lemma", "--max-degree", "2"]
    tsv, report = tmp_path / "r.tsv", tmp_path / "r.json"
    assert run(argv + ["--format", "tsv"]) == 0
    stdout = capsys.readouterr().out
    assert run(argv + ["--format", "tsv", "--out", str(tsv)]) == 0
    assert run(argv + ["--out", str(report)]) == 0
    capsys.readouterr()
    assert run(["report", "--input", str(report)]) == 0
    assert stdout == tsv.read_text() == capsys.readouterr().out
    assert stdout.startswith("degrees\t") and stdout.endswith("\tyes\t\n")


def test_corollary_basis_resolution():
    assert run(["verify", "--algebra", "m2c-z4", "--basis", "corollary",
                "--mode", "identities", "--max-degree", "2"]) == 0


def test_jobs_flag(tmp_path):
    out = tmp_path / "r.json"
    code = run(["verify", "--algebra", "m2-4", "--basis", "regular",
                "--mode", "identities", "--max-degree", "3",
                "--jobs", "2", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["ok"]


def test_resource_refusal_exit4():
    assert run(["verify", "--algebra", "m2-elem", "--basis", "dv-lemma",
                "--mode", "identities", "--max-degree", "9"]) == 4


@pytest.mark.parametrize("command, extra", [
    ("families", []),
    ("transfer", ["--with", "c2"]),
    ("verify", []),
], ids=["families", "transfer", "verify"])
def test_pauli_family_past_the_degree_bound_exit4(monkeypatch, capsys, command, extra):
    """The pauli family past degree 6 is refused before a kernel shape is built."""
    def build(*args):
        raise AssertionError("a kernel shape was built")

    monkeypatch.setattr(pitool, "_kernel_perm_vectors", build)
    assert run([command, "--algebra", "pauli", "--n", "4", "--basis", "pauli",
                "--max-degree", "7"] + extra) == 4
    assert "max degree 7 exceeds the dense-engine bound 6" in capsys.readouterr().err


@pytest.mark.parametrize("max_degree", ["0", "-2"])
def test_max_degree_below_one_exit3(max_degree):
    assert run(["verify", "--algebra", "c2", "--basis", "regular",
                "--max-degree", max_degree]) == 3
    assert run(["families", "--algebra", "pauli", "--n", "3", "--basis", "pauli",
                "--max-degree", max_degree]) == 3


def test_jobs_below_one_exit3():
    assert run(["verify", "--algebra", "m2-elem", "--basis", "dv-lemma",
                "--mode", "identities", "--max-degree", "2", "--jobs", "0"]) == 3


def test_jobs_above_cpu_count_exit4():
    assert run(["verify", "--algebra", "m2-elem", "--basis", "dv-lemma",
                "--mode", "identities", "--max-degree", "2",
                "--jobs", str(os.cpu_count() + 1)]) == 4


def test_algebra_file_with_named_generator_sets(tmp_path, capsys):
    """A named generator set of an algebra file is read as a generator-set
    file is, extras included, and verify checks its extras too."""
    alg = build_catalog("m2-elem")
    doc = algebra_spec_dict(alg)
    doc["generator_sets"] = [{
        "name": "house-basis", "mode": "identities",
        "s1": ["x1:e*x2:e - x2:e*x1:e",
               "x1:a*x2:a*x3:a - x3:a*x2:a*x1:a"],
        "extras": ["x1:e*x2:e*x3:e - x3:e*x2:e*x1:e"],
    }]
    path = tmp_path / "elem.json"
    path.write_text(json.dumps(doc))
    genset = load_algebra_spec(str(path)).file_gensets["house-basis"]
    assert [str(f) for f in genset.extras] == ["x1:e*x2:e*x3:e - x3:e*x2:e*x1:e"]
    code = run(["verify", "--algebra", str(path), "--basis", "house-basis",
                "--mode", "identities", "--max-degree", "3"])
    assert code == 0
    parts = [m["part"] for m in json.loads(capsys.readouterr().out)["membership"]]
    assert parts == ["s1", "s1", "extra"]


def test_catalog_reference_file_with_named_generator_sets(tmp_path, capsys):
    """A catalog-reference algebra file keeps its named generator sets, as an
    explicit-basis file does."""
    doc = dict(_ALGEBRA_HEADER, catalog={"id": "m2-elem"}, generator_sets=[{
        "name": "house-basis", "mode": "identities",
        "s1": ["x1:e*x2:e - x2:e*x1:e",
               "x1:a*x2:a*x3:a - x3:a*x2:a*x1:a"],
    }])
    path = tmp_path / "elem-ref.json"
    path.write_text(json.dumps(doc))
    genset = load_algebra_spec(str(path)).file_gensets["house-basis"]
    assert [str(f) for f in genset.s1] == doc["generator_sets"][0]["s1"]
    code = run(["verify", "--algebra", str(path), "--basis", "house-basis",
                "--mode", "identities", "--max-degree", "3"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert [m["part"] for m in report["membership"]] == ["s1", "s1"]
    assert report["ok"]


def test_internal_error_exit5(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("broken invariant")

    monkeypatch.setattr(cli, "verify_basis", broken)
    code = run(["verify", "--algebra", "m2-elem", "--basis", "dv-lemma",
                "--mode", "identities", "--max-degree", "2"])
    assert code == 5
    assert "internal error: broken invariant" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--algebra", "pauli", "--n", "3", "--basis", "pauli"],
    ["--algebra", "m2-4", "--basis", "regular"],
], ids=["pauli3-no-i", "m2-4-regular"])
def test_long_running_without_a_degree_seven_record_exit3(monkeypatch, capsys, argv):
    """No vacuous pass: a grading with no degree-seven shape, or a family
    other than the Pauli one, is refused before anything is verified."""
    def unreachable(*args, **kwargs):
        raise AssertionError("verified before the refusal")

    monkeypatch.setattr(cli, "verify_basis", unreachable)
    assert run(["verify", *argv, "--max-degree", "1", "--long-running"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "precondition violated" in captured.err


def test_long_running_refuses_a_basis_other_than_the_pauli_family(tmp_path, monkeypatch,
                                                                    capsys):
    """The record streams the Pauli family's stages, so it cannot stand for
    a one-member generator-set file."""
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"format": "gradedpi-genset", "version": 1, "name": "one",
                                "mode": "identities", "s1": ["x1:e*x2:e - x2:e*x1:e"]}))
    monkeypatch.setattr(cli, "check_pauli_multidegree", None)
    assert run(["verify", "--algebra", "pauli", "--n", "4", "--basis", str(path),
                "--max-degree", "1", "--long-running"]) == 3
    assert "not that family" in capsys.readouterr().err


def test_long_record_shares_the_family_source(monkeypatch, capsys):
    """verify --long-running on pauli-4 builds one Pauli source: the family,
    its records and the degree-seven record all read it."""
    built = []
    init = pitool._PauliSource.__init__

    def counted(self, beta):
        built.append(beta)
        init(self, beta)

    monkeypatch.setattr(pitool._PauliSource, "__init__", counted)
    assert run(["verify", "--algebra", "pauli", "--n", "4", "--basis", "pauli",
                "--max-degree", "1", "--long-running", "--format", "tsv"]) == 0
    assert len(built) == 1
    assert capsys.readouterr().out.rstrip("\n").rsplit("\t", 4)[1:] == [
        "5038", "5038", "yes", ""]


def test_long_record_time_is_in_elapsed_seconds(monkeypatch, capsys):
    from gradedpi.pitool import VerificationRecord

    shapes = []

    def slow_record(algebra, degrees):
        shapes.append(tuple(degrees))
        time.sleep(0.5)
        return VerificationRecord(["x"] * 7, 1, 1, 1, True)

    monkeypatch.setattr(cli, "check_pauli_multidegree", slow_record)
    assert run(["verify", "--algebra", "pauli", "--n", "4", "--basis", "pauli",
                "--max-degree", "1", "--long-running"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert len(shapes) == 1 and len(shapes[0]) == 7
    assert report["records"][-1]["degrees"] == ["x"] * 7
    assert report["elapsed_seconds"] >= 0.5
    summary_seconds = float(captured.err.strip().rsplit(", ", 1)[1].rstrip("s)"))
    assert summary_seconds >= 0.5


@pytest.mark.parametrize("command, option", [
    ("report", ["--algebra", "m2-4"]), ("report", ["--n", "3"]), ("report", ["--m", "3"]),
    ("report", ["--k", "2"]), ("report", ["--l", "2"]), ("report", ["--eps", "1"]),
    ("report", ["--mu", "1"]), ("report", ["--nu", "1"]), ("report", ["--format", "tsv"]),
    ("build", ["--format", "tsv"]), ("reduce", ["--format", "tsv"]),
    ("families", ["--jobs", "99"]), ("families", ["--long-running"]),
    ("transfer", ["--long-running"]),
], ids=lambda v: v if isinstance(v, str) else v[0].lstrip("-"))
def test_subcommands_refuse_options_they_do_not_read(capsys, command, option):
    required = ["--basis", "regular"] if command in ("families", "transfer") else []
    with pytest.raises(SystemExit) as exc:
        run([command, *required, *option])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % " ".join(option) in capsys.readouterr().err
