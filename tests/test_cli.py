"""CLI surface: verbs, exit codes, config precedence."""

import csv
import json
import math

import pytest

import specpoly.roots
from specpoly import from_roots, pencil_at
from specpoly.cli import main
from specpoly.pencil import pencil_coeffs
from specpoly.roots import default_tol


def _write_text(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _write(tmp_path, name, obj):
    return _write_text(tmp_path, name, json.dumps(obj))


@pytest.fixture
def files(tmp_path):
    return {
        "x": _write(tmp_path, "x.json", {"mode": "rational", "roots": ["1", "3"]}),
        "y": _write(tmp_path, "y.json", {"mode": "rational", "roots": ["0", "4"]}),
        "p": _write(tmp_path, "p.json", {"mode": "rational", "roots": ["0", "2", "4"]}),
        "q": _write(tmp_path, "q.json", {"mode": "rational", "roots": ["1", "2", "3"]}),
        "phi": _write(tmp_path, "phi.json", {"c": 1, "m": 0, "a": 1, "b": 0,
                                             "alphas": []}),
        "dir": tmp_path,
    }


def test_majorize_check_comparable(files, capsys):
    assert main(["majorize", "check", "--x", files["x"], "--y", files["y"]]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "Less"


def test_majorize_check_incomparable_exit_code(files):
    assert main(["majorize", "check", "--x", files["y"], "--y", files["x"]]) == 1


def test_majorize_witness(files, capsys):
    assert main(["majorize", "witness", "--x", files["x"], "--y", files["y"]]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows == [["3/4", "1/4"], ["1/4", "3/4"]]


def test_majorize_chain_alias(files, capsys):
    assert main(["majorize", "chain", "--x", files["q"], "--y", files["p"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["steps"]) == 8


def test_chain_decompose_verify_roundtrip(files, capsys):
    out = str(files["dir"] / "chain.json")
    assert main(["chain", "decompose", "--p", files["p"], "--q", files["q"],
                 "--out", out]) == 0
    assert main(["chain", "verify", "--chain", out]) == 0
    assert "8 steps" in capsys.readouterr().out


def test_chain_verify_detects_tampering(files, tmp_path):
    out = str(files["dir"] / "chain.json")
    main(["chain", "decompose", "--p", files["p"], "--q", files["q"],
          "--out", out])
    obj = json.loads(open(out).read())
    obj["target"]["roots"][0] = "2"
    bad = _write(tmp_path, "bad.json", obj)
    assert main(["chain", "verify", "--chain", bad]) == 1


def test_chain_random_pair(files, capsys):
    assert main(["chain", "random-pair", "--n", "4", "--budget", "2",
                 "--seed", "9"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["p"]["roots"]) == 4


def test_chain_random_pair_of_one_root(capsys):
    assert main(["chain", "random-pair", "--n", "1", "--budget", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["p"]["roots"]) == 1 and obj["q"] == obj["p"]


def test_chain_decompose_not_majorized_is_error(files):
    assert main(["chain", "decompose", "--p", files["q"], "--q", files["p"]]) == 2


def test_op_apply(files, capsys):
    assert main(["op", "apply", "--phi", files["phi"], "--poly", files["p"],
                 "--degree", "3"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["mode"] == "float" and len(obj["roots"]) == 3


def test_op_appell(files, capsys):
    assert main(["op", "appell", "--phi", files["phi"], "--n", "2"]) == 0
    roots = json.loads(capsys.readouterr().out)["roots"]
    assert abs(roots[1] - 2 ** 0.5) < 1e-8


def test_op_shift_pencil_and_gaussian(files, capsys, tmp_path):
    sq = _write(tmp_path, "sq.json", {"mode": "float", "roots": [0.0, 0.0]})
    assert main(["op", "shift-pencil", "--poly", sq, "--lambda", "1"]) == 0
    roots = json.loads(capsys.readouterr().out)["roots"]
    assert abs(roots[0] + 1) < 1e-8 and abs(roots[1] - 1) < 1e-8
    assert main(["op", "gaussian", "--poly", sq, "--a", "1/2"]) == 0
    roots = json.loads(capsys.readouterr().out)["roots"]
    assert abs(roots[1] - 1) < 1e-8


def test_op_deform(files, capsys, tmp_path):
    s = _write(tmp_path, "s.json", ["1/2"])
    assert main(["op", "deform", "--phi", files["phi"], "--s", s]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["a"] == "1/2"


def test_op_multiplier_laguerre(files, capsys, monkeypatch):
    # the image x P'(x) / n of P = x(x - 2)(x - 4) is seeded by the roots
    # of P.  Its root 0 is deflated exactly; the seed 2 of the other two
    # sits on the critical point of x^2 - 4x + 8/3, so neither Newton pass
    # can move its first start, and the exact terminal answers, not
    # real_roots
    def recursion(*args):
        raise AssertionError("real_roots called")
    monkeypatch.setattr(specpoly.roots, "real_roots", recursion)
    answers = []
    terminal = specpoly.roots._isolated

    def recorded(*args):
        answers.append(terminal(*args))
        return answers[-1]
    monkeypatch.setattr(specpoly.roots, "_isolated", recorded)
    assert main(["op", "multiplier", "--poly", files["p"], "--laguerre", "1", "0",
                 "--normalized"]) == 0
    got = json.loads(capsys.readouterr().out)["roots"]
    assert len(answers) == 1
    tol = default_tol([0.0, 8.0 / 3.0, -4.0, 1.0])
    want = [0.0, 2.0 - 2.0 / math.sqrt(3.0), 2.0 + 2.0 / math.sqrt(3.0)]
    assert len(got) == 3
    assert all(abs(g - w) <= tol / 2 for g, w in zip(got, want)), got


def test_pencil_scan_csv(files, capsys):
    assert main(["pencil", "scan", "--poly", files["x"], "--grid", "2", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lambda,x1,x2,f1,f2"
    assert len(lines) == 6


def test_pencil_scan_follows_pencil_at(capsys, tmp_path):
    # the scan continues each root along its sorted grid; every root must
    # agree with the one-shot sample at its lambda to within the finder's
    # default tolerance (each is within half of it of the same root)
    poly = _write(tmp_path, "p.json", {"mode": "float",
                                       "roots": [-3.5, -1.0, 0.25, 2.0, 4.5]})
    assert main(["pencil", "scan", "--poly", poly, "--grid", "12", "41"]) == 0
    rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
    p = from_roots([-3.5, -1.0, 0.25, 2.0, 4.5])
    assert len(rows) == 42
    for row in rows[1:]:
        lam = float(row[0])
        roots = [float(v) for v in row[1:6]]
        tol = default_tol(pencil_coeffs(p, lam))
        want = pencil_at(p, lam).roots
        assert max(abs(a - b) for a, b in zip(roots, want)) <= tol


def test_verify_and_exit_codes(files):
    assert main(["verify", "chain", "--trials", "3", "--seed", "5"]) == 0


def test_hunt_exit_code(files):
    assert main(["hunt", "pb2", "--trials", "3", "--seed", "5",
                 "--degree-min", "2", "--degree-max", "2"]) == 0


def test_config_file_with_flag_override(files, tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"trials": 4, "seed": 17,
                                        "degree_max": 4})
    out = str(tmp_path / "rep.jsonl")
    assert main(["verify", "deriv", "--config", cfg, "--trials", "2",
                 "--out", out]) == 0
    summary = json.loads(open(out).read().splitlines()[-1])
    assert summary["trials"] == 2            # flag beats config
    assert summary["config"]["seed"] == 17   # config applies otherwise


def test_config_unknown_key_is_usage_error(files, tmp_path):
    cfg = _write(tmp_path, "cfg.json", {"bogus": 1})
    assert main(["verify", "deriv", "--config", cfg]) == 2


def test_missing_file_is_usage_error(files):
    assert main(["majorize", "check", "--x", "/nonexistent.json",
                 "--y", files["y"]]) == 2


def test_verify_without_trials_prints_no_slack(capsys):
    assert main(["verify", "main1", "--trials", "0"]) == 0
    assert "worst slack none" in capsys.readouterr().out


# each builds an argument list from the fixture files and a writer of one
# malformed JSON input
MALFORMED = [
    pytest.param(lambda f, w: ["op", "apply", "--phi", w({"c": 0}),
                               "--poly", f["p"]], id="phi-zero-c"),
    pytest.param(lambda f, w: ["majorize", "check", "--x", w(["1/0", 2]),
                               "--y", f["y"]], id="root-zero-denominator"),
    pytest.param(lambda f, w: ["majorize", "check", "--x", w(["abc", 2]),
                               "--y", f["y"]], id="root-not-a-number"),
    pytest.param(lambda f, w: ["op", "multiplier", "--poly", f["p"],
                               "--laguerre", "0", "0"], id="laguerre-m-zero"),
    pytest.param(lambda f, w: ["pencil", "scan", "--poly", f["x"],
                               "--grid", "x", "5"], id="grid-not-a-number"),
    pytest.param(lambda f, w: ["op", "shift-pencil", "--poly", f["p"],
                               "--lambda", "zz"], id="lambda-not-a-number"),
    pytest.param(lambda f, w: ["verify", "iso", "--config",
                               w({"trials": "3"})], id="config-trials-string"),
    pytest.param(lambda f, w: ["majorize", "check", "--x",
                               _write_text(f["dir"], "bad.json", "[1, 2"),
                               "--y", f["y"]], id="file-not-json"),
    pytest.param(lambda f, w: ["majorize", "check", "--x", w([True, 2]),
                               "--y", f["y"]], id="root-boolean"),
    pytest.param(lambda f, w: ["verify", "iso", "--config",
                               w([["trials", 3]])], id="config-list"),
    pytest.param(lambda f, w: ["majorize", "check", "--x", w({"roots": 5}),
                               "--y", f["y"]], id="roots-not-a-list"),
    pytest.param(lambda f, w: ["chain", "verify", "--chain", w({
        "source": ["0", "4"], "steps": [{"k": 1, "t": "1/4"}],
        "target": ["1", "3"]})], id="chain-step-without-l"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", w([1, 0, 1]),
                               "--poly", f["p"]], id="phi-a-list"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", w("phi"),
                               "--poly", f["p"]], id="phi-a-string"),
    pytest.param(lambda f, w: ["verify", "iso", "--trials", "-1"],
                 id="negative-trials"),
    pytest.param(lambda f, w: ["hunt", "pb3", "--config", w({"trials": -1})],
                 id="config-negative-trials"),
    pytest.param(lambda f, w: ["verify", "iso", "--degree-min", "5",
                               "--degree-max", "3"], id="degrees-reversed"),
    pytest.param(lambda f, w: ["hunt", "pb2", "--degree-max", "1"],
                 id="degree-max-below-default-min"),
    pytest.param(lambda f, w: ["verify", "iso", "--trials", "2", "--tol",
                               "nan"], id="tol-nan"),
    pytest.param(lambda f, w: ["verify", "iso", "--trials", "2", "--config",
                               w({"tol": -1})], id="config-tol-negative"),
    pytest.param(lambda f, w: ["hunt", "pb1", "--trials", "2", "--config",
                               w({"tol": -1})], id="hunt-config-tol-negative"),
    pytest.param(lambda f, w: ["verify", "iso", "--trials", "2", "--config",
                               w({"tol": "x"})], id="config-tol-string"),
    pytest.param(lambda f, w: ["majorize", "check", "--x", w(
        {"mode": "float", "roots": [0.0, 4.0]}), "--y", _write(
            f["dir"], "bf.json", {"mode": "float", "roots": [1.0, 3.0]}),
        "--tol", "nan"], id="majorize-tol-nan"),
    pytest.param(lambda f, w: ["majorize", "check", "--x", w(
        {"mode": "float", "roots": [0.0, 4.0]}), "--y", _write(
            f["dir"], "bf.json", {"mode": "float", "roots": [1.0, 5.0]}),
        "--tol", "inf"], id="majorize-tol-inf"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", f["phi"], "--poly",
                               f["p"], "--tol", "inf"], id="root-tol-inf"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", f["phi"], "--poly",
                               f["p"], "--tol", "nan"], id="root-tol-nan"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", f["phi"], "--poly",
                               f["p"], "--tol=-1"], id="root-tol-negative"),
    pytest.param(lambda f, w: ["hunt", "pb1", "--trials", "2", "--config",
                               w({"params": 5})], id="config-params-not-a-dict"),
    pytest.param(lambda f, w: ["hunt", "pb1", "--trials", "2", "--config",
                               w({"params": 5}), "--param", "family=mixed"],
                 id="param-into-params-not-a-dict"),
    pytest.param(lambda f, w: ["op", "gaussian", "--poly", w(
        {"coeffs": [float("nan"), 1]}), "--a", "1/2"], id="coeff-nan"),
    pytest.param(lambda f, w: ["op", "gaussian", "--poly", w(
        {"coeffs": ["1e999", 1]}), "--a", "1/2"], id="coeff-beyond-double"),
    pytest.param(lambda f, w: ["op", "gaussian", "--poly", w(
        {"coeffs": [float("inf"), 0, 1]}), "--a", "1/2"], id="coeff-inf"),
    pytest.param(lambda f, w: ["op", "gaussian", "--poly", w(
        {"mode": "rational", "roots": ["1", "1e999"]}), "--a", "1/2"],
        id="root-beyond-double-gaussian"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", f["phi"], "--poly", w(
        {"mode": "rational", "roots": ["1", "1e999"]})],
        id="root-beyond-double-apply"),
    pytest.param(lambda f, w: ["pencil", "scan", "--poly", w(
        {"mode": "rational", "roots": ["1", "1e999"]}), "--grid", "3", "7"],
        id="root-beyond-double-pencil-scan"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", w({"m": 1.7}),
                               "--poly", f["p"]], id="phi-m-float"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", w({"m": True}),
                               "--poly", f["p"]], id="phi-m-boolean"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", w({"m": "2"}),
                               "--poly", f["p"]], id="phi-m-string"),
    pytest.param(lambda f, w: ["op", "apply", "--phi", w({"c": float("nan")}),
                               "--poly", f["p"]], id="phi-c-nan"),
    pytest.param(lambda f, w: ["verify", "iso", "--trials", "2", "--config",
                               w({"mode": "banana"})], id="config-mode-unknown"),
    pytest.param(lambda f, w: ["hunt", "pb2", "--trials", "2", "--config",
                               w({"mode": "banana"})],
                 id="hunt-config-mode-unknown"),
]


@pytest.mark.parametrize("build", MALFORMED)
def test_malformed_input_is_usage_error(build, files, tmp_path, capsys):
    argv = build(files, lambda obj: _write(tmp_path, "in.json", obj))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""        # pencil scan samples before it writes its header
