"""Paired benchmark runs of two commits, alternating which side runs first.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--seed S] [--pairs N]

exports each of the two git revisions of this checkout with `git archive`
into its own temporary directory and runs there, N times each,

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

with the parent first in odd-numbered pairs and the change first in even
ones.  It reads each run's last stdout line, `{"correct", "attempted",
"failed", "metrics"}`, and prints for each metric each side's runs in pair
order, their median and quartiles, the number of pairs in which the change
reads better (by the metric's `better` in `BENCHMARK.json`, lower when it
names none), and the gap between the medians next to the parent's
interquartile range.  It exits 1 when a run exits nonzero, is not
`correct`, or has failed operations, after printing what it has.

It imports nothing from `perfbench/` and writes nothing into the checkout.
"""

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 20


def export(rev, into):
    """The tree of git revision `rev` of this checkout, extracted under `into`."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return Path(into)


def run(tree, workload, seed):
    """The last stdout line of one untraced bench run in `tree`, parsed; None if the run failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def faults(side, result):
    """Why a run of `side` does not count, as a list of messages (empty when it does)."""
    if result is None:
        return [f"{side}: the run exited nonzero or printed nothing"]
    out = []
    if not result["correct"]:
        out.append(f"{side}: the run is not correct")
    if result["failed"]:
        out.append(f"{side}: {result['failed']} of {result['attempted']} operations failed")
    return out


def quartiles(values):
    """The lower and upper quartile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, better):
    """The report lines for `pairs`, a list of (parent result, change result) in pair order.

    `better` maps a metric name to "lower" or "higher"; a metric it does not
    name is better lower.
    """
    lines = []
    for name, first in pairs[0][0]["metrics"].items():
        sign = -1 if better.get(name, "lower") == "higher" else 1
        sides = [[p[k]["metrics"][name]["value"] for p in pairs] for k in (0, 1)]
        wins = sum(sign * c < sign * p for p, c in zip(*sides))
        medians = [statistics.median(v) for v in sides]
        spans = [quartiles(v) for v in sides]
        lines.append(f"{name} ({first['unit']}, {better.get(name, 'lower')} is better)")
        for label, values, median, (q1, q3) in zip(("parent", "change"), sides, medians, spans):
            runs = " ".join(f"{v:.4g}" for v in values)
            lines.append(f"  {label}  {runs}  median {median:.4g}  quartiles {q1:.4g}-{q3:.4g}")
        (q1, q3), _ = spans
        lines.append(f"  change better in {wins} of {len(pairs)} pairs; medians differ by "
                     f"{abs(medians[1] - medians[0]):.4g}, parent interquartile range {q3 - q1:.4g}")
    return lines


def metric_directions():
    """{metric name: "lower" or "higher"} from `BENCHMARK.json` next to `tools/`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="git revision of the parent side")
    p.add_argument("change", help="git revision of the change side")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    pairs, problems = [], []
    with tempfile.TemporaryDirectory() as parent_dir, tempfile.TemporaryDirectory() as change_dir:
        trees = export(args.parent, parent_dir), export(args.change, change_dir)
        for i in range(args.pairs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            results = [None, None]
            for k in order:
                results[k] = run(trees[k], args.workload, args.seed)
            found = faults("parent", results[0]) + faults("change", results[1])
            problems += [f"pair {i + 1}: {msg}" for msg in found]
            if None not in results:
                pairs.append(tuple(results))
    print(f"{args.workload} seed {args.seed}: {args.parent} against {args.change}, "
          f"{len(pairs)} pairs, --seconds {SECONDS} --trace 0")
    if pairs:
        print("\n".join(summarize(pairs, metric_directions())))
    for msg in problems:
        print(msg)
    return 1 if problems or not pairs else 0


if __name__ == "__main__":
    sys.exit(main())
