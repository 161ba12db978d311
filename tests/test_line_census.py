"""`tools/line_census.py` on one workload at a time: smoke tests and what the census pins."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "line_census.py"
PACKAGE = ROOT / "src" / "morinclass"


def checkout_state():
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*") if ".git" not in p.relative_to(ROOT).parts}


def census(workload):
    """The tool on `workload` at seed 1: {module: {line number: text}} of the lines not run.

    Checks that the run touches no file in the checkout, that every module
    has its header and that each header counts the lines listed under it.
    """
    before = checkout_state()
    proc = subprocess.run([sys.executable, str(TOOL), workload, "--seeds", "1"],
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
    return unrun


def test_dim_ladder_census():
    # every eliminate ends in `_cofactor`; dim_ladder builds no non-square matrix
    linalg = census("dim_ladder")["linalg.py"]
    source = (PACKAGE / "linalg.py").read_text().splitlines()
    ends = source.index("    det_s, adj_t = _cofactor(block, extra)") + 1
    assert ends not in linalg
    assert "raise NonSquareMatrixError(f\"{what} of a non-square matrix\")" in linalg.values()
    for number, text in linalg.items():
        assert source[number - 1].strip() == text


def test_float_scan_export_census():
    # the scans map to the plane: every point takes the stacked kernel
    # Hessian, every line of `_kernel_hessians` runs, and the per-point
    # `kernel_hessian_at_origin` of `_stacked_stages`, for other n, does not
    unrun = census("float_scan_export")
    numeric = unrun["numeric.py"]
    source = (PACKAGE / "numeric.py").read_text().splitlines()
    start = source.index("def _kernel_hessians(coef, red, m):") + 1
    end = next(i for i in range(start, len(source)) if source[i].startswith("def "))
    assert not [number for number in numeric if start <= number <= end]
    per_point = source.index("            det_b[j], eta_hess[j], kern[j] = kernel_hessian_at_origin(ng)")
    assert per_point + 1 in numeric
    for number, text in numeric.items():
        assert source[number - 1].strip() == text
    # every line of the CSV's number kernel and its tables runs, the per-value
    # "%.17g" of the magnitudes outside [1e-4, 1e15) included
    lefschetz = unrun["lefschetz.py"]
    source = (PACKAGE / "lefschetz.py").read_text().splitlines()
    start = source.index("def _percent_17g(x):") + 1
    end = source.index("def slice_filename(b2) -> str:")
    assert not [number for number in lefschetz if start <= number <= end]
    for number, text in lefschetz.items():
        assert source[number - 1].strip() == text


def test_float_scan_export_runs_every_line_of_the_stacked_shift():
    # the scans' jets come from `_TaylorShift`: its plan and its replay run
    # whole, the rows' recurrence included, on the Lefschetz germs
    numeric = census("float_scan_export")["numeric.py"]
    source = (PACKAGE / "numeric.py").read_text().splitlines()
    start = source.index("class _TaylorShift:") + 1
    end = next(i for i in range(start, len(source)) if source[i].startswith(("def ", "class ")))
    assert end - start > 50
    assert not [number for number in numeric if start <= number <= end]


def test_ainv_replay_runs_the_second_order_tail():
    # the replay's maps to the plane and to 3-space run every line of
    # `_taylor_tail`, both orders, but the exits for M(0) = 0 and for a germ
    # without a theta column: the battery's folds and Morin germs are never
    # NotNondegenerate or Not2Nondegenerate
    criteria = census("ainv_replay")["criteria.py"]
    source = (PACKAGE / "criteria.py").read_text().splitlines()
    start = source.index("def _taylor_tail(ls: LambdaSystem, theta=True) -> HessData:") + 1
    end = next(i for i in range(start, len(source)) if source[i].startswith("def "))
    assert end - start > 60
    assert [criteria[number] for number in criteria if start <= number <= end] == [
        "return HessData(h=Polynomial.zero(ctx).truncated(order))", "return HessData()"]
    for number, text in criteria.items():
        assert source[number - 1].strip() == text


def test_ainv_replay_runs_every_line_of_the_cofactor_base():
    # every adjugate, theta column and frame of the replay ends in
    # `_cofactor`: its size-1 return, its minors and its loop over the
    # columns of W all run, so that loop is the classifier's path
    linalg = census("ainv_replay")["linalg.py"]
    source = (PACKAGE / "linalg.py").read_text().splitlines()
    start = source.index("def _cofactor(a, w):") + 1
    end = next(i for i in range(start, len(source)) if source[i].startswith("def "))
    assert end - start > 20
    assert not [number for number in linalg if start <= number <= end]
    for number, text in linalg.items():
        assert source[number - 1].strip() == text
