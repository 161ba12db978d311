"""End-to-end command-line behavior and report schemas."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import morinclass
from morinclass import classify, cli
from morinclass.cli import main, report_to_dict
from morinclass.parsing import parse_germ_document

from conftest import (
    battery,
    int_str_digits,
    linear_source_change,
    linear_target_change,
    normal_form,
    perfbench_module,
    unipotent_target_change,
)

CUSP_DOC = "vars: x y z\nmap: x ; y^2 + z^3 + x*z\n"
DEGENERATE_DOC = "vars: x y z\nmap: x ; y^2 + z^3\n"
# 3^10000 has 4772 digits, more than `str` prints by default (4300)
LONG_NUMBER_DOC = "vars: x y z\nmap: x ; y^2 + 3^10000*z^2\n"
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

    @pytest.mark.parametrize("declarations, line, message", [
        ("vars: x x y\n", 1, "'x' is declared twice"),
        ("vars: x y z\nparams: x\n", 2, "'x' is declared twice"),
        ("vars: x 2y z\n", 1, "not a variable name: '2y'"),
        ("vars: x y z\nparams: = 3\n", 2, "not a variable name: ''"),
        ("vars: x y z\nparams: a b = 2\n", 2, "not a variable name: 'a b'"),
    ])
    def test_bad_declared_name_is_a_parse_error(self, capsys, tmp_path, declarations, line,
                                                message):
        path = tmp_path / "names.germ"
        path.write_text(f"{declarations}map: x ; z^2\n")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert (code, out, err) == (2, "", f"error: {message} at line {line}\n")

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

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "nested.germ"
        path.write_text("vars: x y z\nmap: x ; " + "(" * 300 + "y" + ")" * 300 + "^2 + z^2\n")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err == "error: more than 100 nested parentheses at line 2, column 101\n"

    def test_long_sign_run_classifies(self, capsys, tmp_path):
        path = tmp_path / "signs.germ"
        path.write_text("vars: x y z\nmap: x ; " + "-" * 1200 + "y^2 + z^2\n")
        code, out, err = run_cli(capsys, "classify", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)["label"]["kind"] == "Fold"

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

    def test_bad_b2_and_range_values(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli(capsys, "lefschetz", "slice", "--b2", "one")
        assert code == 2 and "--b2" in err
        code, _, err = run_cli(
            capsys, "lefschetz", "slice", "--b2", "0", "--range", "broken"
        )
        assert code == 2 and "--range" in err
        # an empty or reversed range has no nodes in ascending order
        for rng in ("0:0", "1:-1"):
            code, out, err = run_cli(
                capsys, "lefschetz", "slice", "--b2", "1/4", "--grid", "3", f"--range={rng}"
            )
            assert (code, out) == (2, "")
            assert err == f"error: bad --range value '{rng}' (expected lo < hi)\n"
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("options", [
        ["--tol-rank", "0"], ["--tol-zero", "nan"], ["--tol-rank", "1e-9", "--tol-zero", "1e-9"],
    ])
    def test_tolerance_without_numeric_is_an_option_error(self, capsys, tmp_path, options):
        # the exact path reads no tolerance, so one given is a mistake, not ignored
        path = tmp_path / "germ.germ"
        path.write_text("vars: x y z\nmap: x ; y^3 + x*y + z^2\n")
        code, out, err = run_cli(capsys, "classify", str(path), *options)
        assert code == 2 and out == ""
        assert err == "error: --tol-rank and --tol-zero need --numeric\n"

    def test_trace_with_numeric_is_an_option_error(self, capsys, tmp_path):
        # a float verdict has margins, not a trace: --trace would be dropped
        path = tmp_path / "germ.germ"
        path.write_text("vars: x y z\nmap: x ; y^3 + x*y + z^2\n")
        code, out, err = run_cli(capsys, "classify", str(path), "--numeric", "--trace")
        assert code == 2 and out == ""
        assert err == "error: --trace needs the exact path: --numeric writes no trace\n"

    @pytest.mark.parametrize("options, message", [
        (["--all-paper-slices", "--b2", "1/3", "--out", "x.csv"],
         "--all-paper-slices takes neither --b2 nor --out"),
        (["--all-paper-slices", "--b2", "1/3"], "--all-paper-slices takes neither --b2 nor --out"),
        (["--all-paper-slices", "--out", "x.csv"],
         "--all-paper-slices takes neither --b2 nor --out"),
        (["--b2", "1/3", "--outdir", "d"],
         "--outdir needs --all-paper-slices (--out names one slice's file)"),
    ], ids=["all-b2-out", "all-b2", "all-out", "b2-outdir"])
    def test_slice_option_the_mode_ignores_is_an_option_error(self, capsys, tmp_path, monkeypatch,
                                                              options, message):
        # each of these once wrote slices and dropped the option; now nothing is written
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "lefschetz", "slice", "--grid", "2", *options)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

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
        assert err == "error: the jet at the point is not finite in floats\n"

    def test_numeric_decision_beyond_float_range(self, capsys, tmp_path):
        # finite coefficients whose products overflow: no NaN verdict, and no
        # numpy overflow warning (the suite turns it into an error)
        path = tmp_path / "big.germ"
        path.write_text("vars: x y z\nmap: x ; 10^200*y^2 + 10^200*z^2 + 10^200*y*z\n")
        code, out, err = run_cli(capsys, "classify", str(path), "--numeric")
        assert code == 2 and out == ""
        # the cause is a decision's scale, at the origin: the error names it
        assert err == ("error: the nondegeneracy largest rejected entry decision "
                       "is not finite in floats\n")
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0 and json.loads(out)["label"]["kind"] == "Fold"

    @pytest.mark.parametrize("scale", ["1000000000000000000", "1/1000000000000000000"])
    def test_numeric_frame_beyond_float_range(self, capsys, tmp_path, scale):
        # a Morin{2} germ whose float frame divides by a power of a pivot that
        # overflows or underflows: an error line, not a traceback
        path = tmp_path / "scaled.germ"
        path.write_text("vars: x1 x2 x3 x4 x5 x6\nmap: "
                        + " ; ".join(f"{scale}*x{i}" for i in range(1, 5))
                        + " ; x5^2 + x6^3 + x1*x6\n")
        code, out, err = run_cli(capsys, "classify", str(path), "--numeric")
        assert code == 2 and out == ""
        assert err == ("error: a jet division in the frame or theta at the point "
                       "is not finite in floats\n")
        code, out, _ = run_cli(capsys, "classify", str(path))
        assert code == 0 and json.loads(out)["label"] == {"kind": "Morin", "k": 2}

    def test_reports_are_strict_json(self):
        with pytest.raises(ValueError):
            cli._emit({"value": float("nan")})

    def test_numeric_mode_above_the_chart_bound(self, capsys, tmp_path):
        # the seed-1 (5, 4, 4) ladder germ of the benchmark, 245 terms per
        # component: its chart would take more than MAX_TERM_PAIRS term
        # pairs to expand, so the verdict comes without a residual
        inputs = perfbench_module("inputs")
        germ = inputs.ladder_case(random.Random(1), 5, 4, 4)["germ"]
        path = tmp_path / "ladder.germ"
        path.write_text(inputs.germ_text(germ, [p.render() for p in germ.components]))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "classify", str(path), "--numeric")
        assert time.perf_counter() - start < 10
        assert code == 0 and err == ""
        verdict = json.loads(out)["verdict"]
        assert verdict["residual"] is None
        assert verdict["margins"]

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

    def test_slice_grid_too_large_for_memory(self, capsys, tmp_path, monkeypatch):
        # 5 * 100000^3 floats is 35.5 PiB: the allocation fails at once
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "lefschetz", "slice", "--b2", "0", "--grid", "100000")
        assert code == 2 and out == ""
        assert err.startswith("error: --grid 100000 is too large") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

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


class TestLongNumbers:
    def test_reports_print_every_digit(self, capsys, tmp_path):
        path = tmp_path / "long.germ"
        path.write_text(LONG_NUMBER_DOC)
        commands = [
            ("classify", str(path)),
            ("classify", str(path), "--trace"),
            ("lefschetz", "witness", "--params", "1e300,1,1,1"),
        ]
        germ = parse_germ_document(LONG_NUMBER_DOC).to_germ()
        runs = {}
        for limit in (4300, 0):  # the default limit of `str`, and none
            with int_str_digits(limit):
                runs[limit] = [run_cli(capsys, *argv) for argv in commands] + [
                    json.dumps(classify(germ, trace=traced).trace) for traced in (True, False)]
        assert runs[4300] == runs[0]
        assert [(code, err) for code, _, err in runs[0][:3]] == [(0, "")] * 3
        # the witness search formats h(0) at its candidates but prints labels only
        assert all(re.search(r"\d{4301}", out) for _, out, _ in runs[0][:2])


# each once ended in a traceback with exit status 1; a failed slice writes
# no CSV
EXIT_CONTRACT = [
    (["lefschetz", "slice", "--b2", "1e200", "--grid", "3"], 2),
    (["lefschetz", "slice", "--range", "-1e200:1e200", "--grid", "2", "--b2", "0"], 2),
    (["lefschetz", "slice", "--b2", "1e5000", "--grid", "2"], 2),  # its default name, first
    (["lefschetz", "slice", "--b2", "1e4300", "--grid", "2"], 2),
    (["lefschetz", "slice", "--b2", "1e10000000", "--grid", "2"], 2),
    (["lefschetz", "witness", "--params", "1e300,1,1,1"], 0),
    (["classify", "long.germ"], 0),
    (["classify", "long.germ", "--trace"], 0),
    (["classify", "long.germ", "--numeric"], 2),
    (["classify", "latin1.germ"], 2),
]


class TestExitContract:
    @pytest.mark.parametrize("argv, status", EXIT_CONTRACT,
                             ids=[" ".join(argv) for argv, _ in EXIT_CONTRACT])
    def test_exit_status_and_one_error_line(self, tmp_path, argv, status):
        (tmp_path / "long.germ").write_text(LONG_NUMBER_DOC)
        (tmp_path / "latin1.germ").write_bytes("vars: x y\nmap: x ; y^2 # \xe9\n".encode("latin-1"))
        proc = run_python("-m", "morinclass", *argv, cwd=tmp_path)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == status
        if status == 2:
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["latin1.germ", "long.germ"]

    def test_messages(self, capsys, tmp_path):
        path = tmp_path / "latin1.germ"
        path.write_bytes(b"vars: x\xff\nmap: x\n")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2 and err.startswith(f"error: cannot read {path}: 'utf-8' codec")
        code, _, err = run_cli(capsys, "lefschetz", "slice", "--b2", "0", "--grid", "2",
                               "--range=-1e200:1e200", "--out", str(tmp_path / "s.csv"))
        assert code == 2 and err == (f"error: n1 at b2 = 0 on the range -1{'0' * 200}:1{'0' * 200}"
                                     " has values beyond the float range\n")
        assert not (tmp_path / "s.csv").exists()
        path = tmp_path / "long.germ"
        path.write_text(LONG_NUMBER_DOC)
        code, _, err = run_cli(capsys, "classify", str(path), "--numeric")
        assert code == 2 and err == "error: component 2 has a coefficient beyond the float range\n"

    def test_decimal_exponents_past_the_limit_fail_fast(self, capsys, tmp_path):
        # 1e4300 reaches the slice and leaves the float range there; 1e4301
        # is refused as it is read, where 1e10000000 took about 30 s
        out = str(tmp_path / "s.csv")
        expected = {
            "1e4300": "error: n1 at b2 = a rational of about 4300 digits on the range -1:1"
                      " has values beyond the float range\n",
            "1e4301": "error: bad --b2 value '1e4301'\n",
            "1e10000000": "error: bad --b2 value '1e10000000'\n",
        }
        for b2, message in expected.items():
            start = time.perf_counter()
            code, _, err = run_cli(capsys, "lefschetz", "slice", "--b2", b2, "--grid", "2",
                                   "--out", out)
            assert time.perf_counter() - start < 1
            assert (code, err) == (2, message)
        assert not (tmp_path / "s.csv").exists()


class TestSignedOptionValues:
    """A value starting with "-" reads the same after a space as after "="."""

    @pytest.mark.parametrize("option, value, argv", [
        ("--point", "-1,0,0,0", ("classify", "{family}")),
        ("--params", "-4/35,2,-1/3,1/3", ("lefschetz", "witness")),
        ("--b2", "-1/2", ("lefschetz", "slice", "--grid", "3", "--out", "{csv}")),
        ("--range", "-1:1", ("lefschetz", "slice", "--b2", "0", "--grid", "3", "--out", "{csv}")),
    ], ids=["point", "params", "b2", "range"])
    def test_space_separated_negative_value(self, capsys, tmp_path, option, value, argv):
        family = tmp_path / "family.germ"
        family.write_text(FAMILY_DOC)
        results = []
        for tail in ((option, value), (f"{option}={value}",)):
            csv = tmp_path / f"slice{len(results)}.csv"
            args = [a.format(family=family, csv=csv) for a in argv] + list(tail)
            code, out, err = run_cli(capsys, *args)
            assert code == 0, err
            results.append((out.replace(str(csv), "CSV"), csv.read_bytes() if csv.exists() else None))
        assert results[0] == results[1]


def run_python(*args, cwd=None):
    """Run a fresh interpreter that imports the package from where this process found it."""
    src = str(Path(morinclass.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=path))


# run in a fresh interpreter: each CLI command, its exit status and whether
# numpy is loaded after it, one JSON list per line
NUMPY_PROBE = """
import contextlib, io, json, sys
import morinclass, morinclass.parsing, morinclass.lefschetz
from morinclass import cli
print(json.dumps(["import", 0, "numpy" in sys.modules]))
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print(json.dumps([" ".join(argv[:2]), code, "numpy" in sys.modules]))
"""


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, cusp_file):
        proc = run_python("-m", "morinclass", "classify", str(cusp_file))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["label"] == {"kind": "Morin", "k": 2}

    def test_exact_commands_do_not_load_numpy(self, cusp_file, tmp_path):
        # pytest's own process has numpy loaded, so the check needs a fresh one
        germ = str(cusp_file)
        commands = [
            ["classify", germ],
            ["classify", germ, "--trace", "--point", "1,0,0"],
            ["lefschetz", "noncusp"],
            ["lefschetz", "witness", "--params", "0,1,0,2"],
            ["classify", germ, "--numeric"],
        ]
        proc = run_python("-c", NUMPY_PROBE, json.dumps(commands), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        steps = [json.loads(line) for line in proc.stdout.splitlines()]
        assert steps == [
            ["import", 0, False],
            ["classify " + germ, 0, False],
            ["classify " + germ, 0, False],
            ["lefschetz noncusp", 0, False],
            ["lefschetz witness", 0, False],
            # the float companion does load it, so the probe can see numpy
            ["classify " + germ, 0, True],
        ]
