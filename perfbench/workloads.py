"""The four benchmark workloads.

A workload builds its inputs from the seed (`__init__`), warms up, and
exposes one pass over those inputs as a list of units: (name, callable).
The runner times each unit and calls `summary` on its output right after
the pass; after the measured passes it calls `check_unit` on the first
pass's outputs.  Later passes must give the same summaries as the first.  Checks
never run inside a timed region.
"""

import hashlib
import json
import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from morinclass import classify, lefschetz, numeric
from morinclass.cli import label_to_dict, report_to_dict
from morinclass.criteria import fold_fast_path
from morinclass.germ import CORANK_HIGH, normalize, validate
from morinclass.parsing import parse_germ_document

import inputs

GOLDEN_LAMBDAS = Path(__file__).resolve().parent.parent / "tests" / "data" / "lefschetz_lambdas.txt"


class BudgetExceeded(Exception):
    pass


@contextmanager
def time_budget(seconds):
    """Raise BudgetExceeded in the caller if the block runs over `seconds`."""

    def expire(signum, frame):
        raise BudgetExceeded(f"over the {seconds} s budget")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Workload:
    """Base: `units` is one pass; `latency` names the call timed as an op.

    `probes` are (name, callable) pairs tried once per untraced run after the
    measured passes and counted in `failed_frac` only; `probe_ok` checks them.
    `pass_s` is the nominal time of one pass on a 2-vCPU Xeon VM; the runner
    fits a fixed number of passes to `--seconds` with it.
    """

    latency = None  # (module, attribute) whose calls are the ops, else the units
    probes = ()
    pass_s = 1.0

    def warm(self):
        pass

    def summary(self, index, output):
        """A comparable digest of a unit's output; every pass must agree."""
        raise NotImplementedError

    def check_unit(self, index, output):
        """Whether unit `index` gave a correct output (run on the first pass)."""
        raise NotImplementedError

    def report(self, m):
        """Workload-specific metrics (name -> (value, unit)) from the measurements."""
        return {}


class AinvReplay(Workload):
    """Battery normal forms under seeded A-changes, through the CLI path."""

    name = "ainv_replay"
    pass_s = 5.0

    def __init__(self, seed, workdir):
        self.requests = list(inputs.ainv_requests(random.Random(seed)))
        self.base_labels = {}
        self.units = [(f"request{i}", self._request(r["text"]))
                      for i, r in enumerate(self.requests)]

    @staticmethod
    def _request(text):
        def run():
            doc = parse_germ_document(text)
            germ = doc.to_germ()
            germ.check_wellformed()
            report = classify(germ)
            payload = report_to_dict(report, include_trace=True)
            json.dumps(payload)
            return germ, report.label, payload
        return run

    def warm(self):
        self.units[0][1]()

    def summary(self, index, output):
        germ, label, payload = output
        return (inputs.label_key(label), germ == self.requests[index]["germ"],
                payload["label"] == label_to_dict(label))

    def check_unit(self, index, output):
        case = self.requests[index]["case"]
        if case not in self.base_labels:
            self.base_labels[case] = inputs.label_key(classify(inputs.normal_form(*case)).label)
        key, same_germ, same_label = self.summary(index, output)
        return same_germ and same_label and key == self.base_labels[case]

    def report(self, m):
        n = len(self.units)
        return {"classify_per_s": (n / m["wall_s"], "1/s"),
                "classify_p50_ms": (m["op_p50_ms"], "ms"),
                "classify_p90_ms": (m["op_p90_ms"], "ms")}


class DimLadder(Workload):
    """Normal forms at fixed (m, n, k) under dense seeded linear changes."""

    name = "dim_ladder"
    pass_s = 2.7
    TIMED = ((6, 2, 1), (7, 2, 1), (5, 3, 3), (5, 4, 4))
    PROBED = ((8, 2, 1), (6, 4, 4), (6, 5, 5), (7, 6, 6))
    CASE_BUDGET_S = 30.0
    PROBE_BUDGET_S = 1.0

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.cases = [inputs.ladder_case(rng, *c) for c in self.TIMED]
        self.probe_cases = [inputs.ladder_case(rng, *c) for c in self.PROBED]
        self.units = [(str(c["case"]), self._classify(c["germ"], self.CASE_BUDGET_S))
                      for c in self.cases]
        self.probes = [(str(c["case"]), self._classify(c["germ"], self.PROBE_BUDGET_S))
                       for c in self.probe_cases]

    @staticmethod
    def _classify(germ, budget):
        def run():
            with time_budget(budget):
                return classify(germ).label
        return run

    def warm(self):
        classify(inputs.normal_form(5, 3, 3, (1, 1)))

    def summary(self, index, output):
        return inputs.label_key(output)

    def check_unit(self, index, output):
        return inputs.label_key(output) == self.cases[index]["expected"]

    def probe_ok(self, index, label):
        return inputs.label_key(label) == self.probe_cases[index]["expected"]

    def report(self, m):
        return {"classify_per_s": (len(self.units) / m["wall_s"], "1/s")}


class LefschetzWitness(Workload):
    """Witness search over seeded Lefschetz parameter points, plus the chain."""

    name = "lefschetz_witness"
    pass_s = 2.3
    latency = (lefschetz, "classify")
    CHAIN = ("lefschetz_lambdas", "chart_hessian", "rederive_noncusp_chain")

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.points = [("component", idx, p) for idx, p in inputs.component_points(rng, 1)]
        self.points += [("off", None, p) for p in inputs.off_locus_points(rng, 2)]
        self.points += [("degenerate", None, p) for p in inputs.degenerate_pairs(rng, 2)]
        self.units = [(name, self._chain(name)) for name in self.CHAIN]
        self.units += [(f"witness {kind} {p}", self._witness(p)) for kind, _, p in self.points]

    # module attributes are looked up at call time, so a traced pass sees
    # the tracer's wrappers
    @staticmethod
    def _chain(name):
        return lambda: getattr(lefschetz, name)()

    @staticmethod
    def _witness(params):
        return lambda: lefschetz.witness_verify(params)

    def warm(self):
        classify(lefschetz.wrinkling_germ(1))

    def summary(self, index, output):
        name = self.units[index][0]
        if name == "lefschetz_lambdas":
            return tuple(p.render() for p in output["normalized"])
        if name == "chart_hessian":
            return output["h"].render(), output["theta_h"].render()
        if name == "rederive_noncusp_chain":
            return tuple(output[k] for k in
                         ("g_matches", "theta_h_reduction", "subbranch_display_ok", "subbranch_ok"))
        return (output.on_locus, tuple(output.component_values), output.witness,
                str(output.witness_label),
                tuple((where, pt, str(label)) for where, pt, label in output.candidates))

    def check_unit(self, index, output):
        name = self.units[index][0]
        if name == "lefschetz_lambdas":
            golden = GOLDEN_LAMBDAS.read_text().splitlines()
            return self.summary(index, output) == tuple(golden) and all(
                norm * unit == raw
                for raw, norm, unit in zip(output["cramer"], output["normalized"], output["units"]))
        if name == "chart_hessian":
            return self._adjugate_column_ok(output)
        if name == "rederive_noncusp_chain":
            return all(self.summary(index, output))
        return self._witness_ok(self.points[index - len(self.CHAIN)], output)

    @staticmethod
    def _adjugate_column_ok(data):
        """M . adj(M)[:, 2] = h e_2, the column theta is built from."""
        mat, adj, h = data["h_matrix"], data["adjugate"], data["h"]
        for r in range(mat.rows):
            acc = sum((mat[r, k] * adj[k, 2] for k in range(mat.cols)), 0 * h)
            if acc != (h if r == 2 else 0 * h):
                return False
        return True

    @staticmethod
    def _witness_ok(point, report):
        kind, idx, params = point
        if kind == "component":
            ok = report.on_locus and report.component_values[idx] == 0
        elif kind == "off":
            ok = not report.on_locus
        else:
            ok = report.on_locus and report.witness is not None and \
                report.witness_label.kind in ("Degenerate", "CorankHigh")
        germ = lefschetz.LefschetzFamily.symbolic().at(params)
        for _, pt, label in report.candidates:
            moved = germ.translate(pt)
            if label.kind == "CorankHigh":
                ok = ok and validate(moved) == CORANK_HIGH
                continue
            fast = fold_fast_path(normalize(moved))
            ok = ok and fast["is_fold"] == label.is_fold()
            if label.is_fold():
                ok = ok and tuple(fast["signature"]) == label.signature
        return ok

    def report(self, m):
        return {"classify_per_s": (m["ops_per_pass"] / m["wall_s"], "1/s"),
                "classify_p50_ms": (m["op_p50_ms"], "ms"),
                "classify_p90_ms": (m["op_p90_ms"], "ms")}


class FloatScanExport(Workload):
    """Float region scans at far parameter points, then one slice CSV export."""

    name = "float_scan_export"
    pass_s = 3.2
    latency = (numeric, "project_to_singular_locus")
    BOX = ((-1, 1),) * 4
    GRID = 5
    SLICE_GRID = 47  # about 10^5 rows: roughly a second of CSV writing
    SAMPLED_ROWS = 64
    PROBES = 2

    def __init__(self, seed, workdir):
        rng = random.Random(seed)
        self.tol = numeric.Tolerances()
        self.params = inputs.scan_points(rng, inputs.FAR_POINTS)
        self.germs = [lefschetz.LefschetzFamily.symbolic().at(p) for p in self.params]
        self.b2 = Fraction(rng.randint(-4, 4), 8)
        self.rows = sorted(rng.sample(range(self.SLICE_GRID**3), self.SAMPLED_ROWS))
        self.probes = [(f"scan {p}", self._scan(lefschetz.LefschetzFamily.symbolic().at(p)))
                       for p in inputs.near_chart_points(rng, self.PROBES)]
        self.csv_path = Path(workdir) / lefschetz.slice_filename(self.b2)
        self.grid = None
        self.units = [(f"scan {p}", self._scan(g)) for p, g in zip(self.params, self.germs)]
        self.units += [("emit_slice", self._emit), ("write_slice_csv", self._write)]

    def _scan(self, germ):
        return lambda: numeric.scan_region(germ, self.BOX, self.GRID, self.tol)

    # the export is two units, so each one's time is scaled by its own readings
    def _emit(self):
        self.grid = lefschetz.emit_slice(self.b2, self.SLICE_GRID)
        return self.grid

    def _write(self):
        lefschetz.write_slice_csv(self.grid, self.csv_path)

    def warm(self):
        germ = self.germs[0]
        point = numeric.project_to_singular_locus(germ, (0.5,) * 4, self.tol)
        numeric.numeric_classify(germ, point, self.tol)
        lefschetz.emit_slice(self.b2, 3)

    def summary(self, index, output):
        name = self.units[index][0]
        if name == "emit_slice":
            return output.values.shape, hashlib.sha256(output.values.tobytes()).hexdigest()
        if name == "write_slice_csv":
            digest = hashlib.sha256()
            with open(self.csv_path, "rb") as fh:
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            return self.csv_path.stat().st_size, digest.hexdigest()
        return tuple((v.point, str(v.label), v.residual) for v in output)

    def check_unit(self, index, output):
        name = self.units[index][0]
        if name == "emit_slice":
            return output.values.shape == (5, self.SLICE_GRID**3)
        if name == "write_slice_csv":
            return self._csv_ok()
        return self._scan_ok(output)

    def probe_ok(self, index, verdicts):
        return self._scan_ok(verdicts)

    def _scan_ok(self, verdicts):
        """Converged residuals, and only Fold/Morin{2} at a point far from the locus."""
        return all(v.residual <= self.tol.residual_tol
                   and (v.label.kind == "Fold" or v.label.is_morin(2)) for v in verdicts)

    def _csv_ok(self):
        """Sampled rows are bit-equal to float() of the exact locus values."""
        lines = self.csv_path.read_text().splitlines()
        res = self.SLICE_GRID
        if lines[0] != "a1,a2,b1,n1,n2,n3,n4,n5" or len(lines) != 1 + res**3:
            return False
        step = Fraction(2, res - 1)
        nodes = [-1 + k * step for k in range(res)]
        locus = lefschetz.noncusp_polynomials()
        for row in self.rows:
            i, j, k = row // res**2, (row // res) % res, row % res
            a1, a2, b1 = nodes[i], nodes[j], nodes[k]
            exact = [float(a1), float(a2), float(b1)] + [
                float(v) for v in locus.evaluate((a1, a2, b1, self.b2))]
            written = [float(t) for t in lines[1 + row].split(",")]
            if [v.hex() for v in written] != [v.hex() for v in exact]:
                return False
        return True

    def report(self, m):
        scan_s = sum(m["unit_wall_s"][:-2])
        seeds = len(self.germs) * self.GRID ** len(self.BOX)
        return {"scan_seeds_per_s": (seeds / scan_s, "1/s"),
                "export_rows_per_s": (self.SLICE_GRID**3 / sum(m["unit_wall_s"][-2:]), "1/s")}


WORKLOADS = {w.name: w for w in (AinvReplay, DimLadder, LefschetzWitness, FloatScanExport)}
