"""The lines of `src/morinclass` that no benchmark workload runs.

    python3 tools/line_census.py [WORKLOAD ...] [--seeds 1 2]

builds each named workload (all four by default) at each seed, warms it up
and runs every unit of one pass, under `sys.settrace`, re-armed before each
step.  The probes are not run: their SIGALRM budgets can raise inside the
trace function, which switches tracing off.  Tracing starts before the
package is imported, so its module and class bodies count as run.

For each module of `src/morinclass` it prints one header line
`<module>: <unrun> of <executable> lines not run` and then each of those
lines as `  <line number>  <source text>`.  A line is executable when some
code object compiled from the module holds an instruction on it
(`co_lines()`), and run when any frame executed it.

It imports `src/` and `perfbench/` next to this directory read-only and
writes nothing into the checkout: no bytecode, and the slice CSV of
`float_scan_export` goes to a temporary directory.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "morinclass"
WORKLOAD_NAMES = ("ainv_replay", "dim_ladder", "lefschetz_witness", "float_scan_export")


def executable_lines(path):
    """The line numbers that some code object compiled from `path` holds an instruction on."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineTracer:
    """A `sys.settrace` hook that records the lines run in files under `PACKAGE`.

    A frame stops reporting lines once its code object has run all of its
    own, and later calls of that code object are not traced at all.
    """

    def __init__(self):
        self.seen = {}  # filename -> line numbers run
        self.left = {}  # code object -> its lines not yet seen, for the package's code
        self.prefix = str(PACKAGE)

    def __call__(self, frame, event, arg):
        code = frame.f_code
        left = self.left.get(code)
        if left is None:
            if not code.co_filename.startswith(self.prefix):
                return None
            # the def line carries the RESUME instruction, which reports no line
            left = self.left[code] = {
                line for _, _, line in code.co_lines() if line and line != code.co_firstlineno}
        if not left:
            return None
        seen = self.seen.setdefault(code.co_filename, set())

        def local(frame, event, arg):
            if event == "line":
                line = frame.f_lineno
                seen.add(line)
                left.discard(line)
                if not left:
                    frame.f_trace_lines = False
            return local

        return local

    def run(self, fn, *args):
        sys.settrace(self)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)


def census(names, seeds, tracer):
    workloads = tracer.run(__import__, "workloads")
    with tempfile.TemporaryDirectory() as workdir:
        for name in names:
            for seed in seeds:
                wl = tracer.run(workloads.WORKLOADS[name], seed, workdir)
                tracer.run(wl.warm)
                for _, unit in wl.units:
                    tracer.run(unit)


def report(tracer):
    for path in sorted(PACKAGE.glob("*.py")):
        executable = executable_lines(path)
        unrun = sorted(executable - tracer.seen.get(str(path), set()))
        print(f"{path.name}: {len(unrun)} of {len(executable)} lines not run")
        text = path.read_text().splitlines()
        for line in unrun:
            print(f"  {line}  {text[line - 1].strip()}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(WORKLOAD_NAMES)} (default: all)")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    args = parser.parse_args()
    unknown = [name for name in args.workloads if name not in WORKLOAD_NAMES]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; choose from {', '.join(WORKLOAD_NAMES)}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    tracer = LineTracer()
    census(args.workloads or WORKLOAD_NAMES, args.seeds, tracer)
    report(tracer)


if __name__ == "__main__":
    main()
