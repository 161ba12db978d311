"""End-to-end command-line behavior and report schemas."""

import json
from fractions import Fraction

import pytest

from morinclass.cli import main

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

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "classify", str(tmp_path / "nope.germ"))
        assert code == 2 and "cannot read" in err

    def test_germ_not_vanishing_is_a_file_error(self, capsys, tmp_path):
        path = tmp_path / "shifted.germ"
        path.write_text("vars: x y z\nmap: x + 1 ; y^2\n")
        code, _, err = run_cli(capsys, "classify", str(path))
        assert code == 2 and "vanish" in err

    def test_bad_b2_and_range_values(self, capsys):
        code, _, err = run_cli(capsys, "lefschetz", "slice", "--b2", "one")
        assert code == 2 and "--b2" in err
        code, _, err = run_cli(
            capsys, "lefschetz", "slice", "--b2", "0", "--range", "broken"
        )
        assert code == 2 and "--range" in err

    def test_numeric_mode(self, capsys, cusp_file):
        code, out, _ = run_cli(
            capsys, "classify", str(cusp_file), "--numeric", "--tol-zero", "1e-8"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["numeric"] is True
        assert payload["verdict"]["label"]["kind"] == "Morin"
        assert all("name" in m for m in payload["verdict"]["margins"])

    def test_deterministic_bytes(self, capsys, cusp_file):
        _, out1, _ = run_cli(capsys, "classify", str(cusp_file), "--trace")
        _, out2, _ = run_cli(capsys, "classify", str(cusp_file), "--trace")
        assert out1 == out2


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

    def test_witness_command(self, capsys):
        code, out, _ = run_cli(capsys, "lefschetz", "witness", "--params", "0,2,0,3")
        assert code == 0
        payload = json.loads(out)
        assert payload["on_locus"] is True
        assert payload["witness"] is not None
        assert payload["witness_label"]["kind"] in ("Degenerate", "CorankHigh")

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
