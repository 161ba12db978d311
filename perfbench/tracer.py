"""Span tracing of the library from outside, by wrapping its public functions.

`Tracer.install` replaces each traced function at every name it is bound
to: module globals of the `morinclass` package and of the benchmark (so
`lefschetz`'s own `classify`, `criteria`'s imported `normalize` and the
kernel functions behind `morinclass.kernel` are all seen) and the class
attribute for methods.  `Tracer.remove` restores the originals.

Each call records a span (name, start, end, parent) in parallel arrays kept
in memory; `write` saves them at the end and `layer_metrics` derives self
time (a span's duration minus the part its child spans cover) and per-layer
counts from them.
"""

import os
import sys
import time
from array import array

import numpy as np

from morinclass import _termops_py, cli, criteria, germ, lefschetz, linalg, numeric, parsing
from morinclass.polynomial import Polynomial


def _max_terms(value):
    """Largest term count among the polynomials held by a stage result.

    A rational entry counts as a constant polynomial (one term if nonzero).
    """
    if isinstance(value, Polynomial):
        return len(value.terms)
    if isinstance(value, (linalg.PolyMatrix, linalg.RationalMatrix)):
        return max((_max_terms(e) for e in value.entries), default=0)
    if isinstance(value, germ.PolyVectorField):
        return max((_max_terms(c) for c in value.coefficients), default=0)
    if isinstance(value, (list, tuple)):
        return max((_max_terms(v) for v in value), default=0)
    if isinstance(value, dict):
        return max((_max_terms(v) for v in value.values()), default=0)
    if isinstance(value, criteria.LambdaSystem):
        return _max_terms(value.lambdas)
    if isinstance(value, criteria.HessData):
        return _max_terms([value.h_matrix, value.h, value.theta, value.h_derivs])
    if value is None:
        return 0
    return 1 if value else 0


def _stage(result, args):
    return {"max_terms": _max_terms(result)}


def _det(result, args):
    return {"max_size": args[0].rows}


def _mul(result, args):
    return {"terms_out": len(result)}


def _classify(result, args):
    return {"fold_exits": int(result.label.is_fold())}


def _numeric_classify(result, args):
    return {"inconclusive": int(result.label.kind == "Inconclusive")}


def _witness(result, args):
    return {"candidates": len(result.candidates)}


def _csv(result, args):
    return {"csv_bytes": os.path.getsize(args[1])}


# (span name, owner, attribute, result hook).  Several functions may share a
# span name: the fold branch is the kernel Hessian of f_n plus its inertia.
TARGETS = (
    ("kernel.mul_terms", _termops_py, "mul_terms", _mul),
    ("kernel.eval_terms", _termops_py, "eval_terms", None),
    ("kernel.truncate_terms", _termops_py, "truncate_terms", None),
    ("kernel.diff_terms", _termops_py, "diff_terms", None),
    ("polynomial.substitute", Polynomial, "substitute", None),
    ("polynomial.divide", Polynomial, "divide", None),
    ("linalg.det", linalg.PolyMatrix, "determinant", _det),
    ("linalg.adjugate", linalg.PolyMatrix, "adjugate", None),
    ("linalg.rank", linalg.RationalMatrix, "rank", None),
    ("germ.normalize", germ, "normalize", None),
    ("germ.build_frame", germ, "build_frame", None),
    ("germ.translate", germ.MapGerm, "translate", None),
    ("criteria.classify", criteria, "classify", _classify),
    ("criteria.lambdas", criteria, "lambdas_for_frame", _stage),
    ("criteria.hessian", criteria, "hessian", _stage),
    ("criteria.theta", criteria, "build_theta", _stage),
    ("criteria.h_chain", criteria, "iterate_h", _stage),
    ("criteria.condition_b", criteria, "rank_condition_b", _stage),
    ("criteria.fold_signature", criteria, "kernel_hessian_of_last", _stage),
    ("criteria.fold_signature", linalg.RationalMatrix, "signature", _stage),
    ("parsing.parse", parsing, "parse_germ_document", None),
    ("parsing.to_germ", parsing.GermDocument, "to_germ", None),
    ("cli.report", cli, "report_to_dict", None),
    ("numeric.project", numeric, "project_to_singular_locus", None),
    ("numeric.scan", numeric, "scan_region", None),
    ("numeric.classify", numeric, "numeric_classify", _numeric_classify),
    ("lefschetz.witness_verify", lefschetz, "witness_verify", _witness),
    ("lefschetz.rederive_chain", lefschetz, "rederive_noncusp_chain", None),
    ("lefschetz.emit_slice", lefschetz, "emit_slice", None),
    ("lefschetz.write_slice_csv", lefschetz, "write_slice_csv", _csv),
)


class Tracer:
    def __init__(self):
        self.names = sorted({t[0] for t in TARGETS})
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.outer = array("b")  # no enclosing span of the same name
        self.counts = {}
        self._stack = []
        self._depth = [0] * len(self.names)
        self._patches = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, span, fn, hook):
        sid = self._ids[span]
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        name, parent, start, end, ok, outer = (
            self.name, self.parent, self.start, self.end, self.ok, self.outer)
        counts = self.counts

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[sid] == 0)
            start.append(0.0)
            end.append(0.0)
            ok.append(0)
            stack.append(idx)
            depth[sid] += 1
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[sid] -= 1
                stack.pop()
            ok[idx] = 1
            if hook is not None:
                for key, v in hook(result, args).items():
                    key = f"{span}.{key}"
                    if key.endswith(("max_terms", "max_size")):
                        counts[key] = max(counts.get(key, 0), v)
                    else:
                        counts[key] = counts.get(key, 0) + v
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()):
        modules = [m for n, m in sys.modules.items()
                   if n == "morinclass" or n.startswith("morinclass.")]
        modules += list(extra_modules)
        for span, owner, attr, hook in TARGETS:
            fn = owner.__dict__[attr]
            wrapped = self._wrap(span, fn, hook)
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def remove(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
            "outer": np.frombuffer(self.outer, dtype=np.int8).copy(),
        }

    def write(self, path):
        """Save every span (name id, parent index, start, end) as .npz."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self):
        """Per span name: calls, total_s (outermost spans), self_s, ok calls."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(a["name"], minlength=n_names)
        ok = np.bincount(a["name"], weights=a["ok"], minlength=n_names)
        total = np.bincount(a["name"], weights=dur * a["outer"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        out = {}
        for i, span in enumerate(self.names):
            out[span] = {"calls": int(calls[i]), "ok": int(ok[i]),
                         "total_s": float(total[i]), "self_s": float(self_s[i])}
        # seeds converged and representatives classified inside scan_region
        scan = self._ids["numeric.scan"]
        in_scan = has_parent & (a["name"][np.maximum(a["parent"], 0)] == scan)
        proj = in_scan & (a["name"] == self._ids["numeric.project"]) & (a["ok"] == 1)
        reps = in_scan & (a["name"] == self._ids["numeric.classify"])
        out["numeric.scan"]["converged"] = int(proj.sum())
        out["numeric.scan"]["representatives"] = int(reps.sum())
        return out
