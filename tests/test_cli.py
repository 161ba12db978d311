"""End-to-end command-line behavior and report schemas."""

import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from morinclass import classify
from morinclass.cli import main, report_to_dict

from conftest import (
    battery,
    linear_source_change,
    linear_target_change,
    normal_form,
    unipotent_target_change,
)

CUSP_DOC = "vars: x y z\nmap: x ; y^2 + z^3 + x*z\n"
DEGENERATE_DOC = "vars: x y z\nmap: x ; y^2 + z^3\n"
FAMILY_DOC = (
    "vars: x1 x2 y1 y2\n"
    "params: a1 a2 b1 b2\n"
    "map: x1*x2 - y1*y2 + a1*x1 + a2*x2 ; x1*y2 + x2*y1 + b1*x1 + b2*x2\n"
    "bind: a1 = 1, a2 = 0, b1 = 0, b2 = 7\n"
)


@pytest.fixture
def cusp_file(tmp_path):
    path = tmp_path / "cusp.germ"
    path.write_text(CUSP_DOC)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassifyCommand:
    def test_cusp_report(self, capsys, cusp_file):
        code, out, err = run_cli(capsys, "classify", str(cusp_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == {"kind": "Morin", "k": 2}
        assert payload["h_derivs_at_0"] == ["0", "24"]

    def test_report_roundtrips_exact_values(self, capsys, cusp_file):
        code, out, _ = run_cli(capsys, "classify", str(cusp_file), "--trace")
        payload = json.loads(out)
        # decision-relevant values re-parse exactly: rationals are strings
        assert [Fraction(v) for v in payload["h_derivs_at_0"]] == [0, 24]
        assert [Fraction(v) for v in payload["theta_at_0"]] == [0, 0, 2]
        rows = payload["condition_b"]["matrix"]
        assert [[Fraction(v) for v in row] for row in rows] == [
            [0, 2, 0],
            [1, 0, 0],
            [0, 0, 12],
        ]
        assert payload["trace"]["lambdas"] == ["2*y", "3*z^2 + x"]

    def test_degenerate_outcome_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "degenerate.germ"
        path.write_text(DEGENERATE_DOC)
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == {"kind": "Degenerate", "reason": "NotNondegenerate"}

    def test_family_with_point_flag(self, capsys, tmp_path):
        path = tmp_path / "family.germ"
        path.write_text(FAMILY_DOC)
        code, out, _ = run_cli(capsys, "classify", str(path), "--point", "0,-1,0,0")
        assert code == 0
        payload = json.loads(out)
        assert payload["label"] == {"kind": "Morin", "k": 2}
        assert payload["base_point"] == ["0", "-1", "0", "0"]

    def test_parse_error_exit_code_and_position(self, capsys, tmp_path):
        path = tmp_path / "bad.germ"
        path.write_text("vars: x y z\nmap: x ; y^2 + w\n")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 2
        assert "line 2" in err and "column" in err

    @pytest.mark.parametrize("component, column", [("y^\u00b2 + z^2", 3), ("y^2 + \u0663", 7)])
    def test_non_ascii_digit_is_a_positioned_parse_error(
        self, capsys, tmp_path, component, column
    ):
        path = tmp_path / "digits.germ"
        path.write_text(f"vars: x y z\nmap: x ; {component}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: unexpected character")
        assert err.endswith(f"at line 2, column {column}\n")

    def test_huge_power_fails_fast(self, capsys, tmp_path):
        path = tmp_path / "power.germ"
        path.write_text("vars: x y z\nmap: x ; y^99999999 + z^2\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "largest supported degree" in err and err.endswith("at line 2, column 3\n")

    def test_huge_power_of_a_constant_fails_fast(self, capsys, tmp_path):
        path = tmp_path / "constant.germ"
        path.write_text("vars: x y z\nmap: x ; 3^99999999*y^2 + z^2\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: exponent 99999999 exceeds the largest supported degree 65535"
            " at line 2, column 3\n"
        )

    def test_power_of_a_big_constant_fails_fast(self, capsys, tmp_path):
        path = tmp_path / "coefficient.germ"
        path.write_text("vars: x y z\nmap: x ; (3^65535)^65535*y^2 + z^2\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == (
            "error: power of about 6807185985 bits exceeds the largest supported"
            " coefficient size of 131072 bits at line 2, column 11\n"
        )

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "classify", str(tmp_path / "nope.germ"))
        assert code == 2 and "cannot read" in err

    def test_germ_not_vanishing_is_a_file_error(self, capsys, tmp_path):
        path = tmp_path / "shifted.germ"
        path.write_text("vars: x y z\nmap: x + 1 ; y^2\n")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2 and "vanish" in err

    def test_too_few_variables_fail_fast(self, capsys, tmp_path):
        path = tmp_path / "square.germ"
        path.write_text("vars: x y z w\nmap: " + " ; ".join(["(x+y+z+w)^60"] * 4) + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", str(path))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: need more source variables than components (m=4, n=4)\n"

    def test_fold_trace_builds_polynomials(self, capsys, tmp_path):
        path = tmp_path / "fold.germ"
        path.write_text("vars: x y z\nmap: x ; y^2 - z^2 + x*y\n")
        _, out, _ = run_cli(capsys, "classify", str(path))
        plain = json.loads(out)
        assert plain["label"] == {"kind": "Fold", "k": 1, "signature": [1, 1]}
        assert "trace" not in plain
        _, out, _ = run_cli(capsys, "classify", str(path), "--trace")
        traced = json.loads(out)
        assert traced.pop("trace") == {"lambdas": ["x + 2*y", "-2*z"], "h": "-4"}
        assert traced == plain

    def test_bad_b2_and_range_values(self, capsys):
        code, _, err = run_cli(capsys, "lefschetz", "slice", "--b2", "one")
        assert code == 2 and "--b2" in err
        code, _, err = run_cli(
            capsys, "lefschetz", "slice", "--b2", "0", "--range", "broken"
        )
        assert code == 2 and "--range" in err

    @pytest.mark.parametrize("argv, message", [
        (("classify", "{cusp}", "--point", "\u0663,0,0"), "bad --point value"),
        (("lefschetz", "witness", "--params", "\u0661,0,0,\u0667"),
         "--params needs four rationals"),
        (("lefschetz", "slice", "--b2", "\u0661/\u0664", "--grid", "2"), "bad --b2 value"),
        (("lefschetz", "slice", "--b2", "0", "--grid", "2", "--range=-\u0661:1"),
         "bad --range value"),
    ], ids=["point", "params", "b2", "range"])
    def test_non_ascii_digits_are_option_errors(
            self, capsys, tmp_path, monkeypatch, cusp_file, argv, message):
        # Fraction() alone reads the Arabic-Indic digit '\u0663' as 3, where a
        # germ file's point: line rejects it
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *(a.format(cusp=cusp_file) for a in argv))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert list(tmp_path.glob("*.csv")) == []

    def test_numeric_mode(self, capsys, cusp_file):
        code, out, _ = run_cli(
            capsys, "classify", str(cusp_file), "--numeric", "--tol-zero", "1e-8"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["numeric"] is True
        assert payload["verdict"]["label"]["kind"] == "Morin"
        assert all("name" in m for m in payload["verdict"]["margins"])

    def test_numeric_mode_without_a_chart_at_0(self, capsys, tmp_path):
        # rank 0 at 0: no chart there, so no residual, but a verdict
        path = tmp_path / "quadratic.germ"
        path.write_text(
            "vars: x1 x2 y1 y2\n"
            "map: x1^2 - y1^2 + x2*x1 ; x1*y1 + y2^2\n"
            "point: 1/10, 1/5, 3/10, 2/5\n"
        )
        code, out, err = run_cli(capsys, "classify", str(path), "--numeric")
        assert code == 0 and err == ""
        verdict = json.loads(out)["verdict"]
        assert verdict["residual"] is None
        assert verdict["label"] == {"kind": "Regular"}

    @pytest.mark.parametrize("option, value", [
        ("--tol-zero", "nan"), ("--tol-rank", "inf"),
        ("--tol-zero", "-1"), ("--tol-rank", "0"),
    ])
    def test_numeric_bad_tolerance_is_an_option_error(self, capsys, tmp_path, option, value):
        path = tmp_path / "fold.germ"
        path.write_text("vars: x y z\nmap: x ; y^2+z^2\n")
        code, out, err = run_cli(capsys, "classify", str(path), "--numeric", f"{option}={value}")
        assert code == 2 and out == ""
        assert err.startswith("error: bad --tol-* value: ") and err.count("\n") == 1

    def test_numeric_point_beyond_float_range(self, capsys, cusp_file):
        code, out, err = run_cli(
            capsys, "classify", str(cusp_file), "--numeric", "--point", "1e400,0,0")
        assert code == 2 and out == ""
        assert err == "error: base point is out of the float range of --numeric\n"
        # the exact path takes the same point
        code, out, _ = run_cli(capsys, "classify", str(cusp_file), "--point", "1e400,0,0")
        assert code == 0 and json.loads(out)["label"] == {"kind": "Regular"}

    def test_numeric_point_whose_values_overflow(self, capsys, tmp_path):
        # the coordinates are floats, but y^2 at the point is not
        path = tmp_path / "fold.germ"
        path.write_text("vars: x y z\nmap: x ; y^2+z^2\n")
        code, out, err = run_cli(
            capsys, "classify", str(path), "--numeric", "--point", "1e200,1e200,0")
        assert code == 2 and out == ""
        assert err == "error: base point is out of the float range of --numeric\n"

    def test_deterministic_bytes(self, capsys, cusp_file):
        _, out1, _ = run_cli(capsys, "classify", str(cusp_file), "--trace")
        _, out2, _ = run_cli(capsys, "classify", str(cusp_file), "--trace")
        assert out1 == out2


class TestReportGolden:
    # sha256 of the traced reports below, taken before the exact and float
    # classifiers shared their stages; any byte of any report changes it
    DIGEST = "23a159dec97bfae71346972d2e2cfa2069bdfcdf537ac96d3c23383e148a380d"

    def test_battery_trace_reports_are_byte_stable(self):
        rng = random.Random(1729)
        digest = hashlib.sha256()
        count = 0
        for m, n, k, signs in battery():
            germ = normal_form(m, n, k, signs)
            for g in (germ, linear_target_change(rng, germ), unipotent_target_change(rng, germ)):
                digest.update(json.dumps(report_to_dict(classify(g), include_trace=True)).encode())
                count += 1
        assert count == 126
        assert digest.hexdigest() == self.DIGEST

    # sha256 of the traced report below, taken while the frame still ran at
    # order n; its lambdas and h print every degree up to n and n-1
    MORIN_6_DIGEST = "82acff048868eef578731c2d10fc45514965c1f65a7c0007ae7664a72b890182"

    def test_morin_6_in_seven_variables(self):
        # (m, n) = (7, 6): a 5x5 pivot block of dense jets in 7 variables
        rng = random.Random(766)
        germ = linear_target_change(rng, linear_source_change(rng, normal_form(7, 6, 6, (1,))))
        report = classify(germ)
        assert str(report.label) == "Morin{6}"
        payload = json.dumps(report_to_dict(report, include_trace=True)).encode()
        assert hashlib.sha256(payload).hexdigest() == self.MORIN_6_DIGEST


class TestLefschetzCommands:
    def test_noncusp_listing(self, capsys):
        code, out, _ = run_cli(capsys, "lefschetz", "noncusp")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[2] == "n3 = a1*a2 + b1*b2"

    def test_slice_grid(self, capsys, tmp_path):
        out_path = tmp_path / "slice.csv"
        code, out, _ = run_cli(
            capsys,
            "lefschetz", "slice", "--b2", "0", "--grid", "3", "--range=-1:1",
            "--out", str(out_path),
        )
        assert code == 0
        rows = out_path.read_text().splitlines()
        assert len(rows) == 1 + 27

    def test_slice_default_name_and_stability(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for _ in range(2):
            code, *_ = run_cli(capsys, "lefschetz", "slice", "--b2", "1/4", "--grid", "4")
            assert code == 0
        path = tmp_path / "slice_b2_1_4.csv"
        assert path.exists()
        first = path.read_bytes()
        run_cli(capsys, "lefschetz", "slice", "--b2", "1/4", "--grid", "4")
        assert path.read_bytes() == first

    def test_all_paper_slices(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "lefschetz", "slice", "--all-paper-slices", "--grid", "2",
            "--outdir", str(tmp_path),
        )
        assert code == 0
        names = sorted(p.name for p in tmp_path.glob("slice_b2_*.csv"))
        assert names == [
            "slice_b2_-1_2.csv",
            "slice_b2_-1_4.csv",
            "slice_b2_0.csv",
            "slice_b2_1_2.csv",
            "slice_b2_1_4.csv",
        ]

    def test_all_paper_slices_outdir_is_a_file(self, capsys, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run_cli(
            capsys, "lefschetz", "slice", "--all-paper-slices", "--grid", "2",
            "--outdir", str(taken),
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot create {taken}: ") and err.count("\n") == 1
        assert taken.read_text() == ""

    def test_witness_command(self, capsys):
        code, out, _ = run_cli(capsys, "lefschetz", "witness", "--params", "0,2,0,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["on_locus"] is True
        assert payload["witness"] is not None
        assert payload["witness_label"]["kind"] in ("Degenerate", "CorankHigh")

    # sha256 of the `lefschetz witness` output when these reports were pinned:
    # a display point (a counterexample candidate), a point on each of the
    # planes {a1=b1=0} and {a2=b2=0}, and a point off every display
    WITNESS_DIGESTS = {
        "6,1,-2,3": "7a40d38edf7554679f1561a862b54533298ed0c5828b88a36826974cffe73d36",
        "0,2,0,3": "1816049591b0e447f5586ae186de3e8fd8bc5f5a82b624fbfefbbfb484b377b4",
        "2,0,3,0": "0f6460b2c8df66a80e2280fc438299c1ef7de88193bc1ee36ec4b00f061912ee",
        "1,2,3,5": "d36cc7965238e811dcdc572f95cda26cdaa89a5b089136395b4cc13b48554c6a",
    }

    @pytest.mark.parametrize("params", list(WITNESS_DIGESTS))
    def test_witness_report_bytes(self, capsys, params):
        code, out, _ = run_cli(capsys, "lefschetz", "witness", "--params", params)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.WITNESS_DIGESTS[params]

    def test_witness_bad_params(self, capsys):
        code, _, err = run_cli(capsys, "lefschetz", "witness", "--params", "1,2")
        assert code == 2 and "four rationals" in err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, cusp_file):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import morinclass

        # the child imports the package from where this process found it
        src = str(Path(morinclass.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "morinclass", "classify", str(cusp_file)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["label"] == {"kind": "Morin", "k": 2}
