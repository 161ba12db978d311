"""`tools/line_census.py` on one workload at a time: smoke tests and what the census pins."""

import functools
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "line_census.py"
PACKAGE = ROOT / "src" / "morinclass"


def checkout_state():
    return {p: p.stat().st_mtime_ns for p in ROOT.rglob("*") if ".git" not in p.relative_to(ROOT).parts}


TAIL = "def _taylor_tail(ls: LambdaSystem, theta=True) -> HessData:"
# the lines `_taylor_tail` runs only for N = n - 1 >= 3: the block M_<N and theta by `_kernel_field`
HIGH_ORDER_LINES = [
    "block = [[Polynomial._wrap(ctx, e.terms, order)",
    "for e in _apply_fields(ls.frame.eta, lam.truncated(order))]",
    "for lam in lambdas]",
    "cut = [[e.truncated(order - 1)] for (e,) in adj_col]  # so no product forms degree N",
    "field = _kernel_field(ls.frame.eta, cut, order - 1)",
    "return iterate_h(HessData(h=h, theta=field, theta_column=column), order)",
]


@functools.cache
def census(workload):
    """The tool on `workload` at seed 1: {module: {line number: text}} of the lines not run.

    Run once per workload in a test run; the tests only read the result.
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


def tail_span(source):
    """The line numbers of `_taylor_tail`, from its `def` to the next."""
    start = source.index(TAIL) + 1
    end = next(i for i in range(start, len(source)) if source[i].startswith("def "))
    assert end - start > 60
    return range(start, end + 1)


def test_ainv_replay_runs_the_second_order_tail():
    # the replay's maps to the plane and to 3-space run every line of
    # `_taylor_tail`, both orders, but the exits for M(0) = 0 and for a germ
    # without a theta column, and the lines for N >= 3: the battery's folds
    # and Morin germs are never NotNondegenerate or Not2Nondegenerate, and
    # the replay maps to 3-space at most
    criteria = census("ainv_replay")["criteria.py"]
    source = (PACKAGE / "criteria.py").read_text().splitlines()
    assert [criteria[number] for number in criteria if number in tail_span(source)] == [
        "return HessData(h=Polynomial.zero(ctx).truncated(order))", "return HessData()",
        *HIGH_ORDER_LINES]
    for number, text in criteria.items():
        assert source[number - 1].strip() == text


def test_dim_ladder_runs_the_tail_for_n_4():
    # the ladder's (5,4,4) germ runs every line of `_taylor_tail`'s N >= 3 branch
    criteria = census("dim_ladder")["criteria.py"]
    source = (PACKAGE / "criteria.py").read_text().splitlines()
    high = [number for number in tail_span(source)
            if source[number - 1].strip() in HIGH_ORDER_LINES]
    assert len(high) == len(HIGH_ORDER_LINES)
    assert not [number for number in high if number in criteria]


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
