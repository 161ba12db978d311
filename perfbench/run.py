"""Layered benchmark of morinclass: end-to-end metrics per workload, per-layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload ainv_replay --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30 --out perfbench/baseline.json

One process runs one workload as a closed loop with a single caller: no
threads, BLAS and OpenMP pinned to one thread.  `--all` runs every workload,
untraced and traced, each in its own process (so `peak_rss_mb` is per
workload) and prints every metric with its unit.

Untraced (`--trace 0`): five set-ups, then a fixed number of passes over
the workload's inputs, as many as fit in `--seconds` at the workload's
nominal pass time.  Each pass is a list of units (a request, a ladder case,
a witness search, a scan...).  Outputs are checked after the passes; a wrong
output, an exception or an exceeded budget counts as failed.

The host is a shared VM whose speed drifts by up to half over seconds to
minutes, so the gated times are read at reference speed: a fixed
reference computation is timed between units, and each unit's time is
scaled by its nominal time over its readings just before and after the unit
(`run_pass`, `reference_ms`).  `wall_ref_s` is the sum over units of each unit's median
scaled time across passes; `setup_s` is the median scaled time to import
the package in a fresh interpreter plus the median scaled in-process
set-up (seeded inputs and warm-up).  The raw wall and CPU times, op latency
percentiles and the reference readings are in the header line.

Traced (`--trace 1`): a fixed number of pairs of passes, one untraced and
one that wraps every public function of each layer (see tracer.py).
The per-layer metrics come from the first traced pass, so their counts
repeat exactly on one seed.  Each unit runs untraced and then traced right
after it, and `trace.overhead_frac` is the median over pairs of passes of
traced over untraced pass time, minus one.  The spans are saved under
`.perfbench/`.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the environment header and the workload's own metrics.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
MIN_PASSES = 3
OVERRUN = 3  # a run stops early only once its passes take this many windows
REF_REPEATS = 9
REF_NOMINAL_MS = 1.5  # the reference product at full speed on a 2-vCPU Xeon VM
REF_EVERY_S = 0.2  # read the reference between units at most this often

WORKLOAD_NAMES = ("ainv_replay", "dim_ladder", "lefschetz_witness", "float_scan_export")

# gated metric -> unit.  Reported in the header only: raw wall and CPU
# times, which move with the host (see `run_pass`), and the op latency
# percentiles: on ainv_replay half the requests are unipotent changes,
# cheaper than any linear one, and the (5,3,2) and (5,3,3) linear requests
# are a tenth of the rest, so the 50th and 90th percentiles fall on
# boundaries between groups and move with the seed by a quarter and a third.
END_TO_END = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
UNITS = {**END_TO_END, "wall_s": "s", "cpu_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms"}

# per-layer metric -> (span, field) read from Tracer.layer_metrics, or a
# derived value computed in layer_report
PER_LAYER = {
    "kernel.mul_terms.calls": "count", "kernel.mul_terms.self_s": "s",
    "kernel.mul_terms.terms_out": "count",
    "kernel.eval_terms.calls": "count", "kernel.eval_terms.self_s": "s",
    "kernel.truncate_terms.calls": "count", "kernel.truncate_terms.self_s": "s",
    "kernel.diff_terms.calls": "count", "kernel.diff_terms.self_s": "s",
    "polynomial.substitute.calls": "count", "polynomial.substitute.self_s": "s",
    "polynomial.divide.calls": "count", "polynomial.divide.self_s": "s",
    "linalg.det.calls": "count", "linalg.det.self_s": "s", "linalg.det.total_s": "s",
    "linalg.det.max_size": "count",
    "linalg.adjugate.calls": "count", "linalg.adjugate.total_s": "s",
    "linalg.rank.calls": "count", "linalg.rank.self_s": "s",
    "germ.normalize.total_s": "s", "germ.build_frame.total_s": "s",
    "germ.translate.total_s": "s",
    "criteria.classify.calls": "count", "criteria.classify.total_s": "s",
    "criteria.lambdas.total_s": "s", "criteria.lambdas.max_terms": "count",
    "criteria.hessian.total_s": "s", "criteria.hessian.max_terms": "count",
    "criteria.theta.total_s": "s", "criteria.theta.max_terms": "count",
    "criteria.h_chain.total_s": "s", "criteria.h_chain.max_terms": "count",
    "criteria.condition_b.total_s": "s", "criteria.condition_b.max_terms": "count",
    "criteria.fold_signature.total_s": "s", "criteria.fold_signature.max_terms": "count",
    "criteria.fold_exit_share": "ratio",
    "parsing.parse.total_s": "s", "parsing.to_germ.total_s": "s", "cli.report.total_s": "s",
    "numeric.project.calls": "count", "numeric.project.total_s": "s",
    "numeric.project.converged_ratio": "ratio", "numeric.scan.dedupe_ratio": "ratio",
    "numeric.classify.calls": "count", "numeric.classify.total_s": "s",
    "numeric.inconclusive_share": "ratio",
    "lefschetz.witness_verify.total_s": "s", "lefschetz.candidates": "count",
    "lefschetz.rederive_chain.total_s": "s", "lefschetz.emit_slice.total_s": "s",
    "lefschetz.write_slice_csv.total_s": "s", "lefschetz.csv_bytes": "count",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --all: where to write the combined results JSON")
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- environment ------------------------------------------------------------------

def git_rev():
    """Commit of the checkout; None outside a git repository or without git."""
    env = {**os.environ, "GIT_DIR": str(ROOT / ".git")}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed):
    import morinclass
    import numpy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "kernel": morinclass.KERNEL,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_rev": git_rev(),
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- measurement --------------------------------------------------------------------

@contextmanager
def latency_probe(target, sink):
    """Time every call of module attribute `target` into `sink` (seconds)."""
    if target is None:
        yield
        return
    module, attr = target
    fn = getattr(module, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(clock() - t0)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, fn)


def run_unit(fn):
    """(output, error, wall s, CPU s) of one unit; an exception is an error."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        out, err = fn(), None
    except Exception as exc:  # counted as a failed operation
        out, err = None, f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0, time.process_time() - c0


def summarize(wl, outputs, errors):
    return [None if err else wl.summary(i, out)
            for i, (out, err) in enumerate(zip(outputs, errors))]


def run_pass(wl, time_ops=True, keep_outputs=True):
    """One pass over the units; outputs are summarized after the timed part.

    The reference is read before the first unit and after a unit whenever
    REF_EVERY_S has passed since the last reading.  A unit's `ref` time is
    its wall time scaled by REF_NOMINAL_MS over the mean of the two readings
    that bracket it.  Over 28 back-to-back ainv_replay passes on one seed,
    this cut the pass time's range from 57% of its median to 13%.
    """
    gc.collect()
    walls, cpus, refs, readings, outputs, errors, ops = [], [], [], [], [], [], []
    readings.append(reference_ms())
    t_read = time.perf_counter()
    with latency_probe(wl.latency if time_ops else None, ops):
        for i, (_, fn) in enumerate(wl.units):
            out, err, wall, cpu = run_unit(fn)
            walls.append(wall)
            cpus.append(cpu)
            outputs.append(out)
            errors.append(err)
            if time.perf_counter() - t_read >= REF_EVERY_S or i == len(wl.units) - 1:
                readings.append(reference_ms())
                t_read = time.perf_counter()
                scale = 2 * REF_NOMINAL_MS / (readings[-2] + readings[-1])
                refs.extend(w * scale for w in walls[len(refs):])
    return {"wall": walls, "cpu": cpus, "ref": refs, "readings": readings,
            "outputs": outputs if keep_outputs else None,
            "errors": errors, "summaries": summarize(wl, outputs, errors), "ops": ops}


def check_passes(wl, passes):
    """(failed count, failure notes) over all passes; first-pass outputs are checked."""
    failed = 0
    notes = []
    first = passes[0]
    for i, (name, _) in enumerate(wl.units):
        err = first["errors"][i]
        ok = err is None and wl.check_unit(i, first["outputs"][i])
        if not ok:
            notes.append(f"{name}: {err or 'wrong output'}")
        for k, p in enumerate(passes):
            if not ok or p["errors"][i] is not None or p["summaries"][i] != first["summaries"][i]:
                failed += 1
                if ok:
                    notes.append(f"{name}: pass {k} {p['errors'][i] or 'differs from pass 0'}")
    return failed, notes


def medians(rows):
    """Median of each position across passes."""
    return [statistics.median(col) for col in zip(*rows)]


def _reference_factor(rng, terms=24, nvars=4, degree=4):
    poly = {}
    while len(poly) < terms:
        exps = tuple(rng.randint(0, degree) for _ in range(nvars))
        poly[exps] = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 6))
    return poly


REF_FACTORS = [_reference_factor(random.Random(seed)) for seed in (1, 2)]


def reference_ms():
    """Median time of a fixed product of two sparse polynomials, in ms: the
    host's speed right now.

    The product is plain Python with dict terms and Fraction coefficients,
    the kind of work the workloads do but none of the library's code, so no
    change to the library moves it.  A pure integer loop tracked the host
    worse: in slow stretches the workloads slowed down more than the loop
    did, and its scaled times read high by up to a fifth.
    """
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        _product(*REF_FACTORS)
        times.append(time.perf_counter() - t0)
    return 1000 * statistics.median(times)


def _product(left, right):
    out = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            exps = tuple(x + y for x, y in zip(ea, eb))
            c = out.get(exps)
            out[exps] = ca * cb if c is None else c + ca * cb
    return {e: c for e, c in out.items() if c}


def at_reference_speed(fn):
    """(result, seconds, seconds scaled to the reference's nominal speed)."""
    before = reference_ms()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, seconds * 2 * REF_NOMINAL_MS / (before + reference_ms())


def pass_count(wl, seconds, kinds=1):
    """Passes of each of `kinds` kinds that fit in `seconds` at the workload's
    nominal pass time: fixed by the seconds alone, so the same on every commit."""
    return max(MIN_PASSES, int(seconds / (kinds * wl.pass_s)))


def percentile(values, q):
    import numpy

    return float(numpy.percentile(values, q))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_probes(wl):
    """Oversized ladder cases: one budgeted attempt each, outside the timed set."""
    from workloads import BudgetExceeded

    results = []
    for i, (name, fn) in enumerate(wl.probes):
        t0 = time.perf_counter()
        try:
            status = "ok" if wl.probe_ok(i, fn()) else "wrong"
        except BudgetExceeded:
            status = "exceeded"
        except Exception as exc:  # reported, like an exceeded budget
            status = f"error: {type(exc).__name__}"
        results.append({"case": name, "status": status,
                        "seconds": round(time.perf_counter() - t0, 4)})
    return results


def setup(cls, seed, workdir, repeats):
    """The workload built and warmed `repeats` times: (workload, raw s, scaled s)."""
    def build():
        wl = cls(seed, workdir)
        wl.warm()
        return wl

    runs = [at_reference_speed(build) for _ in range(repeats)]
    return runs[-1][0], [r[1] for r in runs], [r[2] for r in runs]


def measure(wl, seconds):
    """A fixed number of passes.

    Only a run slower than OVERRUN times the window stops early, so that a
    pathological commit still ends in time; the result then counts fewer
    passes (`passes` in the header).
    """
    deadline = time.perf_counter() + OVERRUN * seconds
    passes = []
    for _ in range(pass_count(wl, seconds)):
        passes.append(run_pass(wl, keep_outputs=not passes))
        if time.perf_counter() > deadline:
            break
    return passes


def import_seconds(repeats):
    """Import the package with every module the workloads use (numpy
    included) in fresh interpreters: (raw s, scaled s) per interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import morinclass.cli; print(time.perf_counter() - t)")

    def child():
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, cwd=ROOT, check=True)
        return float(proc.stdout)

    raw, scaled = [], []
    for _ in range(repeats):
        inner, outer, ref = at_reference_speed(child)
        raw.append(inner)
        scaled.append(inner * ref / outer)
    return raw, scaled


def untraced(args, cls, workdir):
    import_raw, import_ref = import_seconds(SETUP_REPEATS)
    wl, setup_raw, setup_ref = setup(cls, args.seed, workdir, SETUP_REPEATS)
    passes = measure(wl, args.seconds)
    rss = peak_rss_mb()
    probes = run_probes(wl)
    failed, notes = check_passes(wl, passes)
    attempted = len(wl.units) * len(passes)

    unit_wall = medians([p["wall"] for p in passes])
    if wl.latency is None:
        ops = unit_wall
    else:
        ops = medians([p["ops"] for p in passes])
    m = {
        "setup_s": statistics.median(import_ref) + statistics.median(setup_ref),
        "wall_ref_s": sum(medians([p["ref"] for p in passes])),
        "wall_s": sum(unit_wall),
        "cpu_s": sum(medians([p["cpu"] for p in passes])),
        "op_p50_ms": 1000 * percentile(ops, 50),
        "op_p90_ms": 1000 * percentile(ops, 90),
        "peak_rss_mb": rss,
    }
    extra = {"unit_wall_s": unit_wall, "ops_per_pass": len(passes[0]["ops"]) or len(wl.units)}
    report = {k: {"value": v, "unit": UNITS[k]} for k, v in m.items()}
    for k, (v, unit) in wl.report({**m, **extra}).items():
        report[k] = {"value": v, "unit": unit}
    probe_failures = sum(r["status"] != "ok" for r in probes)
    report["failed_frac"] = {
        "value": (failed + probe_failures) / (attempted + len(probes)), "unit": "ratio"}
    readings = [r for p in passes for r in p["readings"]]
    info = {
        "passes": len(passes),
        "pass_wall_s": [sum(p["wall"]) for p in passes],
        "pass_ref_s": [sum(p["ref"]) for p in passes],
        "reference_ms": {"nominal": REF_NOMINAL_MS, "best": min(readings),
                        "median": statistics.median(readings), "readings": len(readings)},
        "op_samples": len(ops),
        "units": len(wl.units),
        "setup_raw_s": statistics.median(import_raw) + statistics.median(setup_raw),
        "setup_runs_s": setup_raw,
        "import_runs_s": import_raw,
        "report": report,
        "probes": probes,
        "failures": notes[:20],
    }
    metrics = {k: {"value": m[k], "unit": unit} for k, unit in END_TO_END.items()}
    return info, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}


def traced(args, cls, workdir):
    """Pairs of passes, each unit run untraced and then traced right after.

    The per-layer metrics come from the first pair's traced runs.
    `trace.overhead_frac` is the median over pairs of the traced pass time
    over the untraced one, minus one.  Running the two back to back unit by
    unit puts both in the same stretch of host speed (see README.md for how
    steady the figure is).
    """
    import workloads
    from tracer import Tracer

    wl = setup(cls, args.seed, workdir, 1)[0]
    first = Tracer()
    plain, traced_passes = [], []
    deadline = time.perf_counter() + OVERRUN * args.seconds
    for k in range(pass_count(wl, args.seconds, kinds=2)):
        tracer = first if k == 0 else Tracer()
        runs = {"plain": [], "traced": []}
        gc.collect()
        for _, fn in wl.units:
            runs["plain"].append(run_unit(fn))
            tracer.install(extra_modules=[workloads])
            try:
                runs["traced"].append(run_unit(fn))
            finally:
                tracer.remove()
        for kind, out in (("plain", plain), ("traced", traced_passes)):
            outputs, errors, walls, _ = zip(*runs[kind])
            out.append({"wall": walls, "errors": errors,
                        "outputs": outputs if k == 0 and kind == "plain" else None,
                        "summaries": summarize(wl, outputs, errors)})
        if time.perf_counter() > deadline:
            break
    passes = plain + traced_passes
    failed, notes = check_passes(wl, passes)
    spans_path = OUT / f"spans_{wl.name}_seed{args.seed}.npz"
    first.write(spans_path)
    ratios = [sum(t["wall"]) / sum(p["wall"]) for p, t in zip(plain, traced_passes)]
    layer = layer_report(first, statistics.median(ratios) - 1)
    info = {"spans": str(spans_path.relative_to(ROOT)), "span_count": len(first.name),
            "pass_pairs": len(plain), "traced_over_plain": ratios, "failures": notes[:20]}
    metrics = {k: {"value": layer[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    return info, {"correct": failed == 0, "attempted": len(wl.units) * len(passes),
                  "failed": failed, "metrics": metrics}


def layer_report(tracer, overhead):
    spans = tracer.layer_metrics()
    counts = tracer.counts

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for key in PER_LAYER:
        span, _, field = key.rpartition(".")
        if span in spans and field in ("calls", "self_s", "total_s"):
            out[key] = spans[span][field]
        else:
            out[key] = counts.get(key, 0)
    out["trace.overhead_frac"] = overhead
    out["criteria.fold_exit_share"] = ratio(
        counts.get("criteria.classify.fold_exits", 0), spans["criteria.classify"]["calls"])
    project = spans["numeric.project"]
    out["numeric.project.converged_ratio"] = ratio(project["ok"], project["calls"])
    scan = spans["numeric.scan"]
    out["numeric.scan.dedupe_ratio"] = ratio(scan["representatives"], scan["converged"])
    out["numeric.inconclusive_share"] = ratio(
        counts.get("numeric.classify.inconclusive", 0), spans["numeric.classify"]["calls"])
    out["lefschetz.candidates"] = counts.get("lefschetz.witness_verify.candidates", 0)
    out["lefschetz.csv_bytes"] = counts.get("lefschetz.write_slice_csv.csv_bytes", 0)
    return out


# -- entry points ---------------------------------------------------------------------

def run_one(args):
    if not (SRC / "morinclass" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'morinclass'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import morinclass
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    if Path(morinclass.__file__).resolve().parent != SRC / "morinclass":
        print(f"error: imported morinclass from {morinclass.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            info, result = traced(args, cls, workdir)
        else:
            info, result = untraced(args, cls, workdir)
    header = {"env": environment(args.seed), "workload": args.workload,
              "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({**header, **info}))
    print(json.dumps(result))
    return 0


def run_all(args):
    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} trace={trace}: failed with exit code {proc.returncode}")
                status = 1
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            results.setdefault("env", info.pop("env"))
            results["workloads"].setdefault(name, {})[f"trace{trace}"] = {**info, **result}
            print(f"\n{name} (trace={trace}): attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}")
            shown = info.get("report", result["metrics"])
            for key, m in shown.items():
                print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    return status


def main(argv=None):
    args = parse_args(argv)
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
