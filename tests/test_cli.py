import json
import re

import numpy as np
import pytest

from confsphere import cli, sphgrid as sg, verify


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_pair_constant_prints_8pi(capsys):
    code, out = run_cli(["pair", "--s", "2", "--f", "const:1"], capsys)
    assert code == 0
    blob = json.loads(out)
    value = float(blob["value"][0])
    assert abs(value - 8 * np.pi) < 1e-10
    # twelve significant digits in scientific notation
    assert blob["value"][0] == "2.51327412287e+01"
    assert blob["L"] == 0          # a constant is built at degree 0


def test_residue_constant_prints_pi(capsys):
    code, out = run_cli(["residue", "--k", "0", "--f", "const:1"], capsys)
    blob = json.loads(out)
    assert abs(float(blob["residue"][0]) - np.pi) < 1e-9
    assert {"center", "radius", "residue", "regular", "condition"} <= blob.keys()


def test_pair_with_coefficient_file(tmp_path, capsys):
    c = sg.random_coeffs(6, 77)
    path = tmp_path / "f.json"
    sg.save_coeffs(path, c)
    code, out = run_cli(["pair", "--s", "1.5", "--f", str(path)], capsys)
    from confsphere.mero import pair_distance_power
    from confsphere.lorentz import Dimension
    want = pair_distance_power(Dimension(3), 1.5, c)
    blob = json.loads(out)
    assert abs(complex(float(blob["value"][0]), float(blob["value"][1])) - want) \
        <= 1e-9 * abs(want)


def test_multiplier_csv(tmp_path, capsys):
    code, out = run_cli(["--out-dir", str(tmp_path), "multiplier",
                         "--kind", "gjms", "--k", "1", "--L", "8"], capsys)
    assert code == 0
    lines = (tmp_path / "multiplier_gjms.csv").read_text().strip().splitlines()
    assert lines[0] == "l,re,im"
    assert len(lines) == 10
    l2 = lines[3].split(",")
    assert abs(float(l2[1]) - (-6.0)) < 1e-10   # Delta_1 on degree 2


def test_multiplier_degree_out_of_range_is_usage_error(tmp_path, capsys, monkeypatch):
    # --L outside 0..sphgrid.MAX_DEGREE ends as an argparse error (exit 2)
    # and writes no file; it is refused before any multiplier is computed
    from confsphere import spectral_ops
    for name in ("laplacian_multipliers", "gjms_multipliers", "knapp_stein_multipliers"):
        monkeypatch.setattr(spectral_ops, name, None)
    for kind in ("laplacian", "gjms", "knapp-stein"):
        for L in (-1, sg.MAX_DEGREE + 1):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--out-dir", str(tmp_path), "multiplier", "--kind", kind,
                          "--L", str(L)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"integer in 0..{sg.MAX_DEGREE}, got {L}" in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_library_value_errors_are_usage_errors(tmp_path, capsys):
    # a value the library rejects ends as an argparse error (exit 2, the
    # message on stderr), not as a traceback
    for args in (["multiplier", "--kind", "laplacian", "--n", "2"],
                 ["pair", "--s", "-2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--out-dir", str(tmp_path)] + args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: " + args[0] in err and "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["residue", "--k", "-1"],
    ["pole-scan", "--family", "singular-line", "--window", "-1", "1", "--k", "-1"],
], ids=["residue", "pole-scan"])
def test_negative_pole_index_is_a_usage_error(tmp_path, capsys, args):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out-dir", str(tmp_path)] + args)
    assert exc.value.code == 2
    assert "k must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["trilinear", "--alpha", "3", "1", "1", "--f1", "{f}", "--f2", "{f}", "--f3", "{f}",
      "--grid", "24", "0"], "need L >= 1"),
    (["multiplier", "--kind", "knapp-stein", "--alpha", "-1"], "gamma pole"),
    (["pole-scan", "--family", "alpha3", "--window", "-6.5", "0.5", "--a1", "nan"],
     "'nan' is not a finite number"),
    (["pair", "--s=inf"], "'inf' is not a finite number"),
    (["pair", "--s=nan"], "'nan' is not a finite number"),
    (["pair", "--s=abc"], "'abc' is not a complex number"),
    (["residue", "--k", "0", "--radius", "0"], "radius must be positive and finite"),
    (["residue", "--k", "0", "--radius", "nan"], "radius must be positive and finite"),
], ids=["grid-without-azimuths", "knapp-stein-pole", "nan-a1", "inf-s", "nan-s",
        "malformed-s", "zero-radius", "nan-radius"])
def test_rejected_values_are_usage_errors(tmp_path, capsys, args, message):
    # a division by zero, a non-finite parameter or a degenerate ring ends
    # as an argparse error (exit 2) that names the problem, not a traceback
    path = tmp_path / "f.json"
    sg.save_coeffs(path, sg.random_coeffs(2, 1))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--out-dir", str(tmp_path)] + [a.format(f=path) for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: {args[0]}: " in err and message in err and "Traceback" not in err


def test_coefficient_file_errors_are_usage_errors(tmp_path, capsys, monkeypatch):
    # a missing file, an (l, m) beyond the file's L, a non-integer (l, m),
    # an L beyond sphgrid.MAX_DEGREE, a file without its "L" key and one
    # that is not a JSON object end as argparse errors (exit 2), not as
    # tracebacks; the huge L is refused before its coefficient array is
    # allocated
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 3, "L": 1, "coeffs": [[2, 0, 1.0, 0.0]]}))
    frac = tmp_path / "frac.json"
    frac.write_text(json.dumps({"n": 3, "L": 2, "coeffs": [[1.5, 0, 1, 0], [2, -1.9, 0, 2]]}))
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 3, "L": 20000, "coeffs": [[0, 0, 1.0, 0.0]]}))
    no_L = tmp_path / "noL.json"
    no_L.write_text(json.dumps({"n": 3, "coeffs": [[0, 0, 1.0, 0.0]]}))
    rows = tmp_path / "rows.json"
    rows.write_text(json.dumps([[0, 0, 1.0, 0.0]]))
    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", None)       # no coefficient array is allocated
        for path, message in ((bad, "out of range"), (frac, "non-integer"),
                              (huge, "integer in 0..512"), (no_L, "JSON object with keys"),
                              (rows, "JSON object with keys")):
            with pytest.raises(ValueError, match=message):
                sg.load_coeffs(path)
    for path, message in ((tmp_path / "missing.json", "No such file"),
                          (bad, "out of range"), (frac, "non-integer"),
                          (huge, "integer in 0..512"), (no_L, "JSON object"),
                          (rows, "JSON object")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pair", "--s", "1.5", "--f", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: pair" in err and message in err and "Traceback" not in err


def test_malformed_coefficient_rows_are_usage_errors(tmp_path, capsys, monkeypatch):
    # rows that are not 4 numbers (regrouped by 4, these would load as
    # c(0, 0) = 2) and a repeated (l, m) (the second row would overwrite
    # the first, c(0, 0) = 5) are refused before the coefficient array is
    # allocated, and the CLI reports them as argparse errors (exit 2)
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"n": 3, "L": 1, "coeffs": [[0, 0], [1, 0], [0, 0], [2, 0]]}))
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps({"n": 3, "L": 1, "coeffs": [[0, 0, 1, 0], [0, 0, 5, 0]]}))
    cases = ((short, "rows [l, m, re, im]"), (twice, "duplicate (l, m)"))
    with monkeypatch.context() as patch:
        patch.setattr(np, "zeros", None)       # no coefficient array is allocated
        for path, message in cases:
            with pytest.raises(ValueError, match=re.escape(message)):
                sg.load_coeffs(path)
    for path, message in cases:
        with pytest.raises(SystemExit) as exc:
            cli.main(["pair", "--s", "1.5", "--f", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: pair" in err and message in err and "Traceback" not in err


def test_trilinear_fast_matches_direct(tmp_path, capsys):
    p = tmp_path / "c.json"
    sg.save_coeffs(p, sg.coeffs_constant(1.0, 2))
    values = {}
    for method in ("direct", "fast"):
        code, out = run_cli(["trilinear", "--alpha", "3", "1", "1", "--f1", str(p),
                             "--f2", str(p), "--f3", str(p), "--grid", "16", "32",
                             "--method", method], capsys)
        blob = json.loads(out)
        assert code == 0 and blob["method"] == method
        values[method] = float(blob["value"][0])
    assert abs(values["fast"] - values["direct"]) <= 1e-10 * values["direct"]


def test_trilinear_fast_truncation_estimate(tmp_path, capsys):
    # the fast value is the exact K-type sum: no truncation estimate is
    # reported, and on constants it is the closed form to the 12 printed
    # digits
    from confsphere import trilinear as tri
    from confsphere.lorentz import Dimension
    p = tmp_path / "c.json"
    sg.save_coeffs(p, sg.coeffs_constant(1.0, 2))
    alpha = (1.62, 1.71, 1.83)
    code, out = run_cli(["trilinear", "--alpha", *map(str, alpha), "--f1", str(p),
                         "--f2", str(p), "--f3", str(p), "--grid", "24", "48",
                         "--method", "fast"], capsys)
    blob = json.loads(out)
    want = tri.closed_form_constant(Dimension(3), alpha).real
    assert code == 0 and "truncation_error_estimate" not in blob
    assert abs(float(blob["value"][0]) - want) <= 1e-11 * want


def test_trilinear_fast_on_degree_zero_file(tmp_path, capsys):
    # a degree-0 file: the K-type sum is its seed alone, the closed form,
    # with S = 0 and nothing solved
    from confsphere import trilinear as tri
    from confsphere.lorentz import Dimension
    p = tmp_path / "c.json"
    sg.save_coeffs(p, sg.coeffs_constant(1.0))
    alpha = (1.62, 1.71, 1.83)
    code, out = run_cli(["trilinear", "--alpha", *map(str, alpha), "--f1", str(p),
                         "--f2", str(p), "--f3", str(p), "--grid", "24", "48",
                         "--method", "fast"], capsys)
    blob = json.loads(out)
    want = tri.closed_form_constant(Dimension(3), alpha).real
    assert code == 0 and blob["S"] == 0 and float(blob["recurrence_residual"]) == 0.0
    assert abs(float(blob["value"][0]) - want) <= 1e-11 * want


def test_trilinear_fast_reports_S_and_residual(tmp_path, capsys):
    # degree-7 files: the recurrence runs to S = 21 whatever --grid says,
    # and the output names S and its level residual instead of a grid
    from confsphere import trilinear as tri
    from confsphere.lorentz import Dimension
    fs = [sg.random_coeffs(7, 150 + j) for j in range(3)]
    paths = []
    for j, f in enumerate(fs):
        paths.append(tmp_path / f"f{j}.json")
        sg.save_coeffs(paths[-1], f)
    alpha = (1.62, 1.71, 1.83)
    code, out = run_cli(["trilinear", "--alpha", *map(str, alpha), "--f1", str(paths[0]),
                         "--f2", str(paths[1]), "--f3", str(paths[2]), "--grid", "16", "32",
                         "--method", "fast"], capsys)
    blob = json.loads(out)
    assert code == 0 and blob["S"] == 21 and "grid" not in blob
    assert 0.0 < float(blob["recurrence_residual"]) <= 1e-13
    want = tri.generic_form(Dimension(3), alpha, *fs, method="fast")
    assert blob["value"] == [f"{want.real:.11e}", f"{want.imag:.11e}"]


def test_trilinear_fast_refuses_past_the_ktype_memory_limit(tmp_path, capsys):
    # degree-32 files need the K-type recurrence to S = 96, past
    # MAX_KTYPE_BYTES: a plain error naming S, and nothing is built
    paths = []
    for j in range(3):
        paths.append(str(tmp_path / f"f{j}.json"))
        sg.save_coeffs(paths[-1], sg.random_coeffs(32, 160 + j))
    with pytest.raises(SystemExit) as exc:
        cli.main(["trilinear", "--alpha", "1.62", "1.71", "1.83", "--f1", paths[0],
                  "--f2", paths[1], "--f3", paths[2], "--method", "fast"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: trilinear" in err and "S = 96" in err and "Traceback" not in err


def test_trilinear_command(tmp_path, capsys):
    paths = []
    for j in range(3):
        c = sg.coeffs_constant(1.0, 2)
        p = tmp_path / f"f{j}.json"
        sg.save_coeffs(p, c)
        paths.append(str(p))
    code, out = run_cli(["trilinear", "--alpha", "3", "1", "1",
                         "--f1", paths[0], "--f2", paths[1], "--f3", paths[2],
                         "--grid", "16", "32"], capsys)
    blob = json.loads(out)
    want = 2 * (4 * np.pi) ** 3
    assert abs(float(blob["value"][0]) - want) < 1e-6 * want
    assert blob["method"] == "direct"
    assert blob["grid"] == [16, 32]
    assert float(blob["truncation_error_estimate"]) < 1e-10


def test_trilinear_lambda_conversion(tmp_path, capsys):
    p = tmp_path / "c.json"
    sg.save_coeffs(p, sg.coeffs_constant(1.0, 2))
    code, out = run_cli(["trilinear", "--lam", "1.5", "1.25", "1.25",
                         "--f1", str(p), "--f2", str(p), "--f3", str(p),
                         "--grid", "16", "32"], capsys)
    blob = json.loads(out)
    # lambda (1.5,1.25,1.25) -> alpha (1,1.5,1.5)
    assert abs(float(blob["alpha"][0][0]) - 1.0) < 1e-12
    assert abs(float(blob["alpha"][1][0]) - 1.5) < 1e-12


def test_pole_scan_command(capsys):
    code, out = run_cli(["pole-scan", "--family", "alpha3",
                         "--window", "-4", "0"], capsys)
    blob = json.loads(out)
    fams = sorted((p["family"], round(float(p["position"][0])))
                  for p in blob["poles"])
    assert ("alpha3", -1) in fams and ("alpha3", -3) in fams
    assert any(f == "sum" for f, _ in fams)
    # each pole carries its ring's condition: |offset| / radius for a
    # simple pole inside the ring, so below 1, and ~0 for the planes at
    # -1 and -3, which sit on ring centers
    for p in blob["poles"]:
        condition = float(p["condition"])
        assert 0.0 <= condition < 1.0
        if p["family"] == "alpha3":
            assert condition < 1e-9


def test_verify_quick_report(tmp_path, capsys):
    code, out = run_cli(["--out-dir", str(tmp_path), "verify", "--quick",
                         "--suite", "geometry", "--suite", "residues",
                         "--report", "r.json"], capsys)
    assert code == 0
    report = json.loads((tmp_path / "r.json").read_text())
    assert verify.validate_report(report) == []
    assert report["all_passed"] is True
    names = [s["name"] for s in report["suites"]]
    assert names == ["geometry", "residues"]
    assert all(c["identity"] for s in report["suites"] for c in s["checks"])


def test_verify_fault_injection_fails_residues(tmp_path, capsys):
    code, out = run_cli(["--out-dir", str(tmp_path), "verify", "--quick",
                         "--fault-inject", "--suite", "residues",
                         "--report", "fault.json"], capsys)
    assert code == 1
    report = json.loads((tmp_path / "fault.json").read_text())
    suite = report["suites"][0]
    assert not suite["passed"]
    failing = [c for c in suite["checks"] if not c["passed"]]
    assert any(c["id"] == "res-operator" for c in failing)
    assert all(c["identity"] for c in failing)


def test_verify_determinism(tmp_path, capsys):
    for name in ("a.json", "b.json"):
        run_cli(["--out-dir", str(tmp_path), "verify", "--quick",
                 "--suite", "residues", "--report", name], capsys)
    a = json.loads((tmp_path / "a.json").read_text())
    b = json.loads((tmp_path / "b.json").read_text())

    def strip(rep):
        rep = json.loads(json.dumps(rep))
        rep.pop("timings")
        for s in rep["suites"]:
            s.pop("elapsed_s")
            s.pop("maxrss_mb")
            for c in s["checks"]:
                c.pop("elapsed_s")
                c.pop("maxrss_mb")
        return rep

    assert strip(a) == strip(b)


def test_seed_flag_and_env_outdir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "outs"))
    code, out = run_cli(["verify", "--seed", "99", "--quick",
                         "--suite", "residues"], capsys)
    assert code == 0
    report = json.loads((tmp_path / "outs" / "verify_report.json").read_text())
    assert report["config"] == {"seed": 99, "fault_inject": False, "quick": True}
