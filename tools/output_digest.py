"""One sha256 per output family of the checkout this file sits in.

    python3 tools/output_digest.py [FAMILY ...]

imports `src/` and `perfbench/inputs.py` next to this directory, writes
nothing into the checkout (no bytecode; the slice CSVs go to a temporary
directory) and prints one line `<sha256>  <family>` per family, in the order
below; named families only, where any are named (an unknown name exits 2
and lists the valid ones):

  ainv_replay.traced / .untraced   `report_to_dict` JSON of every seed-1 and
                                   seed-2 `ainv_replay` request
  ladder.traced                    traced reports of ladder germs, seeds 1 and 2
  ladder.first_order               traced reports of the n = 2 Morin{2} ladder
                                   germs (6,2,2), (7,2,2) and (8,2,2), seeds 1
                                   and 2: h and theta of 1-jets above s = 3
  ladder.verdicts                  `float.hex` of `verdict_to_dict` at the
                                   origin of ladder germs, residuals included
  scan_region                      the verdicts of three scans
  witness_verify                   the 9 + 9 `lefschetz_witness` points
  chain                            renders of `lefschetz_lambdas`,
                                   `chart_hessian`, `rederive_noncusp_chain`
  slice_csv                        the bytes of four slice CSVs
  slice.values                     the sha256 of `emit_slice(...).values.tobytes()`
                                   at four (b2, grid) points: int64 and
                                   Python-int sums at sizes `slice_csv` does
                                   not reach
  cli.noncusp                      the text of `morinclass lefschetz noncusp`
  cli.witness                      the text of `morinclass lefschetz witness`
                                   at the 9 seed-3 `lefschetz_witness` points
  cli.classify_numeric             the text of `morinclass classify --numeric`
                                   on 16 of the `ainv_replay` germ files, at
                                   the origin and with `--point`
  degenerate                       traced and untraced reports, and `float.hex`
                                   of `verdict_to_dict` at the origin, of one
                                   germ per non-Morin label, plain and under
                                   one seeded linear A-change
  cubic_forms                      traced and untraced reports, and `float.hex`
                                   of `verdict_to_dict` at the origin, of
                                   `x1 ; ... ; x_r ; sum x_i y_i` plus r
                                   seeded cubes of linear forms in y, r = 3, 4
  exact_terms                      the (exponents, coefficient text) pairs,
                                   in term order, of the parsed `ainv_replay`
                                   germs, of every 7th translated to a
                                   seeded rational point, and of seeded int,
                                   Fraction and mixed powers through
                                   `Polynomial.__pow__` (capped and not) and
                                   the parser
  criteria.records                 `json.dumps(report.trace, sort_keys=True)`
                                   of traced and untraced `classify` on the
                                   seed-1 `ainv_replay` germs and the
                                   `degenerate` germs: the whole trace record,
                                   as `classify` writes it
  render.roles                     `render()` and the term pairs of
                                   `parse_expression(render())` of seeded
                                   int and Fraction polynomials, exponents up
                                   to 12, over four role layouts: parameters
                                   last, first, interleaved, and parameters
                                   only
  chain.terms                      the term pairs, in term order, of the
                                   normalized `lefschetz_lambdas`, of
                                   `chart_hessian`'s h and theta_h, of the
                                   polynomials `rederive_noncusp_chain`
                                   returns, and of seeded `divide`,
                                   `substitute` (int, Fraction and float
                                   images; with and without a target
                                   context) and `primitive_part` over those
                                   four layouts and the locus context
  verdicts.underflow               `float.hex` of `verdict_to_dict` of two
                                   germs with 10^-200 x and 10^-200 y terms,
                                   whose det B(0) underflows to 0 at the
                                   origin, there and at 3 seeded points
                                   of the x-y plane within 10^-3 of it
  kernel.terms                     the term pairs, in term order, each
                                   coefficient as its `repr` or `float.hex`,
                                   of seeded sparse and dense int, Fraction
                                   and float jets through capped `mul_terms`
                                   (with (a + b)(a - b), whose cross terms
                                   cancel, and float products that
                                   underflow) and through
                                   `PolyVectorField.apply`
  verdicts.h_chain                 `float.hex` of every margin of
                                   `numeric_classify` at the origin of the
                                   ladder's normal forms (5,4,4), (5,4,3)
                                   and (6,5,5), seeds 1 and 2, under a
                                   seeded source change in thirds and
                                   sevenths: the float h-chain, theta^2 h
                                   and later, and condition (b) reach these
                                   margins
  witness.records                  `json.dumps(report.trace, sort_keys=True)`
                                   of traced and untraced `classify` on the
                                   germ of every `witness_verify` candidate
                                   at the seed-1 and seed-2 points: theta(0)
                                   and the h-derivatives of maps to the plane
  ladder.second_order              traced and untraced reports of the dense
                                   n = 3 ladder germs (m, 3, k), m = 6..8,
                                   k = 1..3, each from a fresh seed 7: h to
                                   order 2 and theta to order 1 of maps to
                                   3-space above s = 3

Each `cli.*` text is the exit status and the standard output.

Two checkouts give the same outputs when they print the same lines, e.g.
for `git archive` copies of two commits A and B:

    diff <(python3 A/tools/output_digest.py) <(python3 B/tools/output_digest.py)

It takes about 7 s on a 2-core host.  `tests/data/output_digest.txt` holds
its lines for the current outputs, and `tests/test_output_digest.py` fails on
any family that no longer matches: a change that moves an output on purpose
says so and replaces that family's line with this script's new one.
"""

import contextlib
import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from morinclass import MapGerm, VariableContext, classify, cli, lefschetz, numeric  # noqa: E402
from morinclass import _termops_py as kernel  # noqa: E402
from morinclass.cli import report_to_dict, verdict_to_dict  # noqa: E402
from morinclass.context import PARAMETER, SOURCE  # noqa: E402
from morinclass.germ import PolyVectorField  # noqa: E402
from morinclass.linalg import PolyMatrix, RationalMatrix  # noqa: E402
from morinclass.parsing import parse_expression, parse_germ_document  # noqa: E402
from morinclass.polynomial import Polynomial  # noqa: E402


def _load_inputs():
    spec = importlib.util.spec_from_file_location("inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = _load_inputs()

SEEDS = (1, 2)
LADDER_REPORTS = ((6, 2, 1), (7, 2, 1), (5, 3, 3), (5, 4, 4), (8, 2, 1), (6, 4, 4), (6, 5, 5))
FIRST_ORDER_CASES = ((6, 2, 2), (7, 2, 2), (8, 2, 2))
SECOND_ORDER_SEED = 7
SECOND_ORDER_CASES = tuple((m, 3, k) for m in (6, 7, 8) for k in (1, 2, 3))
LADDER_VERDICTS = ((6, 2, 1), (7, 2, 1), (6, 2, 2), (7, 2, 2), (6, 3, 2), (5, 3, 3), (6, 3, 3))
SCAN_POINTS = ((Fraction(3, 2), 1, -2, Fraction(-1, 2)),
               (0, Fraction(1, 2), 2, Fraction(3, 2)),
               (Fraction(1, 2), -1, 1, 1))
SCAN_BOX, SCAN_GRID = ((-1, 1),) * 4, 5  # the `float_scan_export` workload's
SLICES = ((Fraction(1, 4), 47), (0, 21), (Fraction(-3, 8), 22), (Fraction(1, 300007), 4))
SLICE_VALUES = ((Fraction(1, 4), 101), (Fraction(-3, 8), 47), (Fraction(1, 300007), 31),
                (Fraction(-5, 10**20 + 7), 9))
WITNESS_SEED = 3  # the `witness_verify` family has seeds 1 and 2
NUMERIC_POINT = ("1/2", "-1/3", "1/5", "2", "-3/4")  # its first m coordinates
DEGENERATE_TEXTS = (
    "vars: x y z\nmap: x ; y^2 + z^3",  # NotNondegenerate
    "vars: x1 x2 y1 y2\nmap: x1 ; x2 ; x1*y1 + x2*y2",  # Not2Nondegenerate
    "vars: x y z\nmap: x ; x*z + y^2 + z^4",  # AllDerivativesVanish
    "vars: x y z w\nmap: x ; y ; z^2 + w^4 + x*w",  # RankConditionFailed
    "vars: x y z\nmap: x^2 ; y^2 + z^2",  # CorankHigh
)
KERNEL_HESSIAN_ZERO_M = (5, 6)
DEGENERATE_SEED = 24
CUBIC_FORMS_R, CUBIC_FORMS_SEEDS = (3, 4), (0, 1)
EXACT_SEED, EXACT_STRIDE, EXACT_POWERS = 25, 7, 200
POWER_MONOMIALS = ("1", "x", "y", "z", "x*y", "y*z", "x^2", "z^2", "x*y*z")
RENDER_SEED, RENDER_POLYS = 26, 60
CHAIN_SEED, CHAIN_POLYS = 27, 40
UNDERFLOW_SEED, UNDERFLOW_POINTS = 28, 3
KERNEL_SEED, KERNEL_PRODUCTS, KERNEL_FIELDS = 29, 240, 90
KERNEL_KINDS = ("int", "fraction", "float", "tiny")  # tiny: floats of 10^-166 to 10^-160
H_CHAIN_CASES = ((5, 4, 4), (5, 4, 3), (6, 5, 5))
RENDER_LAYOUTS = (  # the roles of x, y, z, a, b in that order of names
    (("x", "y", "z", "a", "b"), (SOURCE,) * 3 + (PARAMETER,) * 2),
    (("a", "b", "x", "y", "z"), (PARAMETER,) * 2 + (SOURCE,) * 3),
    (("a", "x", "b", "y", "z"), (PARAMETER, SOURCE, PARAMETER, SOURCE, SOURCE)),
    (("a1", "a2", "b1", "b2"), (PARAMETER,) * 4),
)


def canon(obj):
    """A JSON-ready form: polynomials rendered, floats as `float.hex`, exact scalars as text."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, Fraction)):
        return str(obj)
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, Polynomial):
        return obj.render()
    if isinstance(obj, (PolyMatrix, RationalMatrix)):
        return canon(obj.to_rows())
    if isinstance(obj, VariableContext):
        return repr(obj)
    if isinstance(obj, dict):
        return [[canon(k), canon(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [canon(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return [type(obj).__name__] + [
            [f.name, canon(getattr(obj, f.name))] for f in dataclasses.fields(obj)]
    raise TypeError(f"no canonical form for {type(obj).__name__}")


@functools.cache
def seed_requests(seed):
    """The `ainv_replay` requests of one seed, built once for every family."""
    return tuple(inputs.ainv_requests(random.Random(seed)))


def replay_requests():
    """The seed-1 and seed-2 `ainv_replay` requests."""
    return tuple(request for seed in SEEDS for request in seed_requests(seed))


@functools.cache
def replay_germs():
    """The germs parsed from `replay_requests`, once for both report families."""
    return tuple(parse_germ_document(request["text"]).to_germ() for request in replay_requests())


def ainv_reports(traced):
    for germ in replay_germs():
        report = classify(germ, trace=traced)
        yield json.dumps(report_to_dict(report, include_trace=traced))


def ladder_germ(seed, case):
    return inputs.ladder_case(random.Random(seed), *case)["germ"]


def ladder_reports(cases=LADDER_REPORTS):
    for seed in SEEDS:
        for case in cases:
            yield json.dumps(report_to_dict(classify(ladder_germ(seed, case)), include_trace=True))


def second_order_reports():
    for case in SECOND_ORDER_CASES:
        germ = ladder_germ(SECOND_ORDER_SEED, case)
        for traced in (True, False):
            yield json.dumps(report_to_dict(classify(germ, trace=traced), include_trace=traced))


def ladder_verdicts():
    for case in LADDER_VERDICTS:
        germ = ladder_germ(1, case)
        origin = (0,) * len(germ.context.source_names)
        yield canon(verdict_to_dict(numeric.numeric_classify(germ, origin)))


def scans():
    family = lefschetz.LefschetzFamily.symbolic()
    for params in SCAN_POINTS:
        verdicts = numeric.scan_region(family.at(params), SCAN_BOX, SCAN_GRID)
        yield [canon(verdict_to_dict(v)) for v in verdicts]


def witness_points(seed):
    """The parameter points of the `lefschetz_witness` workload at `seed`."""
    rng = random.Random(seed)
    points = [p for _, p in inputs.component_points(rng, 1)]
    return points + inputs.off_locus_points(rng, 2) + inputs.degenerate_pairs(rng, 2)


def witnesses():
    for seed in SEEDS:
        for params in witness_points(seed):
            yield canon(lefschetz.witness_verify(params))


def chain():
    lambdas = lefschetz.lefschetz_lambdas()
    yield canon({key: lambdas[key] for key in ("cramer", "normalized", "units")})
    data = lefschetz.chart_hessian()
    yield canon({key: data[key] for key in ("h_matrix", "h", "adjugate", "theta", "theta_h")})
    yield canon(lefschetz.rederive_noncusp_chain())


def slice_csvs():
    with tempfile.TemporaryDirectory() as tmp:
        for b2, resolution in SLICES:
            path = Path(tmp) / lefschetz.slice_filename(b2)
            lefschetz.write_slice_csv(lefschetz.emit_slice(Fraction(b2), resolution), path)
            yield path.read_bytes().decode()


def slice_values():
    for b2, resolution in SLICE_VALUES:
        yield hashlib.sha256(lefschetz.emit_slice(b2, resolution).values.tobytes()).hexdigest()


def cli_text(*argv):
    """The exit status and standard output of one `morinclass` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    return f"{status}\n{out.getvalue()}"


def cli_noncusp():
    yield cli_text("lefschetz", "noncusp")


def cli_witnesses():
    for params in witness_points(WITNESS_SEED):
        # one argument: a value starting with "-" would read as an option
        yield cli_text("lefschetz", "witness", "--params=" + ",".join(map(str, params)))


def cli_numeric():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "germ.txt"
        # both seeds, every battery dimension, both kinds of A-change
        for request in replay_requests()[::21]:
            path.write_text(request["text"])
            point = ",".join(NUMERIC_POINT[: request["germ"].m])
            yield cli_text("classify", str(path), "--numeric")
            yield cli_text("classify", str(path), "--numeric", "--point=" + point)


def kernel_hessian_zero_text(m):
    """`x1 ; x2 ; f`, f a dense cubic in y1..y_{m-2} with seeded coefficients 1-3.

    Its kernel Hessian K is 0, so every entry of M vanishes at 0: the germ
    is NotNondegenerate.
    """
    rng = random.Random(m)
    ys = [f"y{i}" for i in range(1, m - 1)]
    cubic = " + ".join(f"{rng.randint(1, 3)}*{'*'.join(mono)}"
                       for mono in combinations_with_replacement(ys, 3))
    return f"vars: x1 x2 {' '.join(ys)}\nmap: x1 ; x2 ; {cubic}"


def degenerate_germs():
    rng = random.Random(DEGENERATE_SEED)
    texts = DEGENERATE_TEXTS + tuple(map(kernel_hessian_zero_text, KERNEL_HESSIAN_ZERO_M))
    for text in texts:
        germ = parse_germ_document(text).to_germ()
        yield germ
        yield inputs.linear_target_change(rng, inputs.linear_source_change(rng, germ))


def degenerate():
    for germ in degenerate_germs():
        for traced in (True, False):
            yield json.dumps(report_to_dict(classify(germ, trace=traced), include_trace=traced))
        yield canon(verdict_to_dict(numeric.numeric_classify(germ, (0,) * germ.m)))


def cubic_forms_text(r, seed):
    """`x1 ; ... ; x_r ; sum_i x_i y_i + sum_j (sum_i c_ji y_i)^3`, seeded c_ji in {-2, -1, 1, 2}.

    M(0) = 0 and no entry of M is a unit: the germ is Not2Nondegenerate.
    """
    rng = random.Random(seed)
    xs, ys = [f"x{i}" for i in range(1, r + 1)], [f"y{i}" for i in range(1, r + 1)]
    cubes = [" + ".join(f"{rng.choice((-2, -1, 1, 2))}*{y}" for y in ys) for _ in range(r)]
    last = " + ".join([f"{x}*{y}" for x, y in zip(xs, ys)] + [f"({c})^3" for c in cubes])
    return f"vars: {' '.join(xs + ys)}\nmap: {' ; '.join(xs)} ; {last}"


def cubic_forms():
    for r in CUBIC_FORMS_R:
        for seed in CUBIC_FORMS_SEEDS:
            germ = parse_germ_document(cubic_forms_text(r, seed)).to_germ()
            for traced in (True, False):
                yield json.dumps(report_to_dict(classify(germ, trace=traced), include_trace=traced))
            yield canon(verdict_to_dict(numeric.numeric_classify(germ, (0,) * germ.m)))


def term_pairs(p):
    """The (exponents, coefficient text) pairs of `p` in term order: no types."""
    return [[list(exps), str(coeff)] for exps, coeff in p.items()]


def power_base_text(rng, kind):
    """2 to 5 terms with int coefficients, `p/q` ones, or each either way."""
    terms = []
    for mono in rng.sample(POWER_MONOMIALS, rng.randint(2, 5)):
        num = rng.choice((-1, 1)) * rng.randint(1, 6)
        if kind == "fraction" or kind == "mixed" and rng.random() < 0.5:
            terms.append(f"{num}/{rng.choice((1, 2, 3, 5))}*{mono}")
        else:
            terms.append(f"{num}*{mono}")
    return " + ".join(terms)


def exact_terms():
    germs = replay_germs()
    for germ in germs:
        yield [term_pairs(p) for p in germ.components]
    rng = random.Random(EXACT_SEED)
    for germ in germs[::EXACT_STRIDE]:
        point = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(germ.m)]
        yield [term_pairs(p) for p in germ.translate(point).components]
    ctx = VariableContext.make(("x", "y", "z"))
    for i in range(EXACT_POWERS):
        text = power_base_text(rng, ("int", "fraction", "mixed")[i % 3])
        base, k = parse_expression(text, ctx), rng.randint(1, 6)
        capped = base.truncated(rng.randint(1, 8))
        yield [term_pairs(p) for p in (base**k, capped**k, parse_expression(f"({text})^{k}", ctx))]


def render_roles():
    rng = random.Random(RENDER_SEED)
    for names, roles in RENDER_LAYOUTS:
        ctx = VariableContext(names, roles)
        for _ in range(RENDER_POLYS):
            terms = {}
            for _ in range(rng.randint(1, 8)):
                exps = [rng.choice((0, 0, 1, 2, 3, 10, 12)) if rng.random() < 0.4 else 0
                        for _ in names]
                num = rng.choice((-1, 1)) * rng.choice((1, 1, 2, 3, 17, 10**20))
                den = rng.choice((1, 1, 2, 9))
                terms[tuple(exps)] = num if den == 1 else Fraction(num, den)
            text = Polynomial(ctx, terms).render()
            yield [text, term_pairs(parse_expression(text, ctx))]


def polynomial_terms(obj):
    """The term pairs of every polynomial in `obj`, dicts and lists walked in order."""
    if isinstance(obj, Polynomial):
        return [term_pairs(obj)]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [pairs for item in obj for pairs in polynomial_terms(item)]
    return []


def random_exact(rng, ctx, max_degree, n_terms):
    """Up to `n_terms` int or Fraction terms of total degree at most `max_degree`."""
    terms = {}
    for _ in range(n_terms):
        exps = [0] * len(ctx)
        for _ in range(rng.randint(0, max_degree)):
            exps[rng.randrange(len(ctx))] += 1
        num, den = rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3))
        terms[tuple(exps)] = num if den == 1 else Fraction(num, den)
    return Polynomial(ctx, terms)


def chain_terms():
    yield polynomial_terms(lefschetz.lefschetz_lambdas()["normalized"])
    data = lefschetz.chart_hessian()
    yield polynomial_terms([data["h"], data["theta_h"]])
    yield polynomial_terms(lefschetz.rederive_noncusp_chain())
    rng = random.Random(CHAIN_SEED)
    target = VariableContext.make(("u", "v"), ("c",))
    layouts = [VariableContext(names, roles) for names, roles in RENDER_LAYOUTS]
    for ctx in layouts + [lefschetz.locus_context()]:
        for n in range(CHAIN_POLYS):
            d = random_exact(rng, ctx, 2, 3)
            p = random_exact(rng, ctx, 4, 6)
            if n % 2:
                p = p * d
            if not d.is_zero():
                yield polynomial_terms(p.divide(d))
            if not p.is_zero():
                yield term_pairs(p.primitive_part())
            image = random_exact(rng, ctx, 2, 3) * rng.choice((1, 0.7, -1.3))
            name = rng.choice(ctx.names)
            yield term_pairs(p.substitute({name: image, ctx.names[0]: 2}))
            images = {name: random_exact(rng, target, 2, 3) * rng.choice((1, 0.3))
                      for name in ctx.names}
            yield term_pairs(p.substitute(images, target_context=target))


def underflow_germs():
    """`10^-200 x ; 10^-200 y ; z^2 + w^2` and a variant, built through `Polynomial`.

    The germ-file grammar has no 10^-200.
    """
    ctx = VariableContext.make(("x", "y", "z", "w"))
    x, y, z, w = (Polynomial.variable(ctx, name) for name in ctx.names)
    tiny = Fraction(1, 10**200)
    return (MapGerm(ctx, (tiny * x, tiny * y, z**2 + w**2)),
            MapGerm(ctx, (tiny * x + x * z, tiny * y + w**2, z**2 - w**2 + x * y)))


def underflow_verdicts():
    rng = random.Random(UNDERFLOW_SEED)
    for germ in underflow_germs():
        # in the x-y plane, where the first germ's det B(0) underflows too
        near = [(rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), 0.0, 0.0)
                for _ in range(UNDERFLOW_POINTS)]
        for point in [(0.0,) * 4] + near:
            yield canon(verdict_to_dict(numeric.numeric_classify(germ, point)))


def kernel_coefficient(rng, kind):
    num = rng.choice((-3, -2, -1, 1, 2, 5))
    if kind == "int":
        return num
    if kind == "fraction":
        return Fraction(num, rng.choice((1, 2, 3)))
    # a product of two tiny ones is subnormal or underflows to 0.0
    scale = 10.0 ** -rng.randint(160, 166) if kind == "tiny" else 1.0
    return num / rng.choice((1.0, 3.0, 7.0)) * scale


def kernel_jet(rng, ctx, kind, max_degree):
    """Every monomial of degree at most `max_degree` (dense) or a few (sparse), in seeded order."""
    monomials = [mono for d in range(max_degree + 1)
                 for mono in combinations_with_replacement(range(len(ctx)), d)]
    rng.shuffle(monomials)
    if rng.random() < 0.5:
        monomials = monomials[:rng.randint(1, 6)]
    terms = {}
    for mono in monomials:
        exps = [0] * len(ctx)
        for i in mono:
            exps[i] += 1
        terms[ctx.pack(exps)] = kernel_coefficient(rng, kind)
    return terms


def kernel_pairs(ctx, terms):
    """The (exponents, `repr` or `float.hex`) pairs of packed `terms`, in term order."""
    return [[list(ctx.unpack(key)), c.hex() if isinstance(c, float) else repr(c)]
            for key, c in terms.items()]


def kernel_terms():
    rng = random.Random(KERNEL_SEED)
    for i in range(KERNEL_PRODUCTS):
        kind = KERNEL_KINDS[i % 4]
        ctx = VariableContext.make(tuple(f"v{j}" for j in range(rng.randint(1, 4))))
        a, b = kernel_jet(rng, ctx, kind, rng.randint(1, 4)), kernel_jet(rng, ctx, kind, 3)
        trunc = rng.randint(-1, 6)
        yield kernel_pairs(ctx, kernel.mul_terms(a, b, ctx, trunc))
        yield kernel_pairs(ctx, kernel.mul_terms(
            kernel.add_terms(a, b), kernel.sub_terms(a, b), ctx, trunc))
    for i in range(KERNEL_FIELDS):
        kind = KERNEL_KINDS[i % 3]
        ctx = VariableContext.make(tuple(f"v{j}" for j in range(rng.randint(2, 4))))

        def jet(max_degree):
            p = Polynomial._wrap(ctx, kernel_jet(rng, ctx, kind, max_degree))
            cap = rng.choice((None, 1, 2, 3, 4))
            return p if cap is None else p.truncated(cap)

        coefficients = []
        for _ in ctx.names:
            pick = rng.random()
            coefficients.append(Polynomial.zero(ctx) if pick < 0.3
                                else Polynomial.zero(ctx).truncated(2) if pick < 0.4
                                else jet(rng.randint(0, 2)))
        q = PolyVectorField(ctx, coefficients).apply(jet(rng.randint(1, 4)))
        yield [q.jet, kernel_pairs(ctx, q.terms)]


def thirds_and_sevenths(rng, size):
    """A seeded invertible matrix of entries +-1, 2, 3 over 3 or 7, none of them a float."""
    while True:
        entries = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((3, 7)))
                   for _ in range(size * size)]
        mat = RationalMatrix(size, size, entries)
        if mat.rank() == size:
            return mat


def h_chain_germ(seed, case):
    """The ladder's normal form `case` with seeded signs, under a `thirds_and_sevenths` change.

    Not the ladder's dense integer change: at its scale the float rounding
    of h(0) or theta h(0) is far above `zero_tol`, so those verdicts stop
    at the fold test or at k = 2 and never read theta^2 h.  Here the later
    stages reach the margins, on inexact floats.
    """
    m, n, k = case
    rng = random.Random(seed)
    signs = tuple(rng.choice((1, -1)) for _ in range(m - n))
    return inputs.linear_source_change(rng, inputs.normal_form(m, n, k, signs), thirds_and_sevenths)


def h_chain_margins():
    for seed in SEEDS:
        for case in H_CHAIN_CASES:
            germ = h_chain_germ(seed, case)
            verdict = numeric.numeric_classify(germ, (0,) * germ.m)
            yield [[m.name, m.value.hex(), m.threshold.hex()] for m in verdict.margins]


def criteria_records():
    seed_one = replay_germs()[:len(seed_requests(1))]
    for germ in seed_one + tuple(degenerate_germs()):
        for traced in (True, False):
            yield json.dumps(classify(germ, trace=traced).trace, sort_keys=True)


def witness_records():
    family = lefschetz.LefschetzFamily.symbolic()
    for seed in SEEDS:
        for params in witness_points(seed):
            germ = family.at(params)
            for _, point, _ in lefschetz.witness_verify(params).candidates:
                for traced in (True, False):
                    yield json.dumps(classify(germ.translate(point), trace=traced).trace,
                                     sort_keys=True)


FAMILIES = (
    ("ainv_replay.traced", lambda: ainv_reports(True)),
    ("ainv_replay.untraced", lambda: ainv_reports(False)),
    ("ladder.traced", ladder_reports),
    ("ladder.first_order", lambda: ladder_reports(FIRST_ORDER_CASES)),
    ("ladder.verdicts", ladder_verdicts),
    ("scan_region", scans),
    ("witness_verify", witnesses),
    ("chain", chain),
    ("slice_csv", slice_csvs),
    ("slice.values", slice_values),
    ("cli.noncusp", cli_noncusp),
    ("cli.witness", cli_witnesses),
    ("cli.classify_numeric", cli_numeric),
    ("degenerate", degenerate),
    ("cubic_forms", cubic_forms),
    ("exact_terms", exact_terms),
    ("criteria.records", criteria_records),
    ("render.roles", render_roles),
    ("chain.terms", chain_terms),
    ("verdicts.underflow", underflow_verdicts),
    ("kernel.terms", kernel_terms),
    ("verdicts.h_chain", h_chain_margins),
    ("witness.records", witness_records),
    ("ladder.second_order", second_order_reports),
)


def family_digest(outputs):
    """The sha256 of one family's outputs, one JSON text (or string) a line."""
    digest = hashlib.sha256()
    for item in outputs():
        text = item if isinstance(item, str) else json.dumps(item)
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()


def main(names):
    known = dict(FAMILIES)
    unknown = [name for name in names if name not in known]
    if unknown:
        print(f"unknown famil{'ies' if len(unknown) > 1 else 'y'}: {' '.join(unknown)}\n"
              f"families: {' '.join(known)}", file=sys.stderr)
        return 2
    for name, outputs in FAMILIES:
        if not names or name in names:
            print(f"{family_digest(outputs)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
