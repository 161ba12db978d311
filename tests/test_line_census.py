"""`tools/line_census.py` on one workload: a smoke test."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "line_census.py"
PACKAGE = ROOT / "src" / "morinclass"


def checkout_state():
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*") if ".git" not in p.relative_to(ROOT).parts}


def test_dim_ladder_census():
    before = checkout_state()
    proc = subprocess.run([sys.executable, str(TOOL), "dim_ladder", "--seeds", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert checkout_state() == before
    unrun, headers, module = {}, {}, None
    for line in proc.stdout.splitlines():
        if line.startswith("  "):
            number, text = line.split(maxsplit=1)
            unrun[module][int(number)] = text
        else:
            module, counts = line.split(": ")
            unrun[module], headers[module] = {}, [int(w) for w in counts.split()[:3:2]]
    assert list(unrun) == sorted(p.name for p in PACKAGE.glob("*.py"))
    for name, (missing, executable) in headers.items():
        assert len(unrun[name]) == missing <= executable
    # every eliminate ends in `_cofactor`; dim_ladder builds no non-square matrix
    linalg = unrun["linalg.py"]
    source = (PACKAGE / "linalg.py").read_text().splitlines()
    ends = source.index("    det_s, adj_t = _cofactor(block, extra)") + 1
    assert ends not in linalg
    assert "raise NonSquareMatrixError(f\"{what} of a non-square matrix\")" in linalg.values()
    for number, text in linalg.items():
        assert source[number - 1].strip() == text
