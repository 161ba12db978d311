"""An independent fold, cusp and Morin k oracle: Morin's normal form, on Fraction dicts.

Morin, "Formes canoniques des singularités d'une application
différentiable", C. R. Acad. Sci. Paris 260 (1965); Golubitsky–Guillemin,
"Stable Mappings and Their Singularities" (1973), ch. VII.

For a corank-one germ f: (Q^m, 0) -> (Q^n, 0), a target change leaves
f_1, ..., f_{n-1} with independent linear parts and f_n critical at 0.
Solving f_i(p, z) = u_i (i < n) for the n-1 pivot variables p as power
series gives f ~ (u, g(u, z)).  With K the Hessian of g(0, .) at 0:

- K nonsingular: a fold, whose signature is the inertia of K;
- K of corank one: after the splitting lemma, phi(u, t) = g(u, W(u, t), t)
  with W solving d g / d w' = 0 on a complement w' of the kernel line t.
  Morin k (A_k) iff ord_t phi(0, t) = k + 1 and the coefficients of the
  u_j t^i (1 <= i <= k-1) in phi make a matrix of rank k - 1
  (A_k-versality); Morin 2 is the cusp;
- anything else is none of these.

Nothing here uses `Polynomial` or `linalg`: a polynomial is a dict from
exponent tuples to Fractions, and the linear algebra is plain Fraction
elimination.  The germs come to `classify` as `MapGerm`s and to the oracle
as their term dicts.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

from morinclass import MapGerm, Polynomial, classify

from conftest import (
    linear_source_change,
    linear_target_change,
    make_context,
    normal_form,
    unipotent_source_change,
    unipotent_target_change,
)

# -- series on Fraction dicts ----------------------------------------------------


def combine(*scaled):
    """sum c * p over the (c, p) pairs, zeros dropped."""
    out = {}
    for c, p in scaled:
        for e, v in p.items():
            out[e] = out.get(e, 0) + c * v
    return {e: v for e, v in out.items() if v}


def mul(a, b, order, linear):
    """a b to `order`, without the terms of degree 2 or more in the first `linear` variables."""
    out = {}
    b = [(eb, cb, sum(eb), sum(eb[:linear])) for eb, cb in b.items()]
    for ea, ca in a.items():
        room, lin = order - sum(ea), 1 - sum(ea[:linear])
        for eb, cb, db, lb in b:
            if db <= room and lb <= lin:
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    return {e: v for e, v in out.items() if v}


def composer(subs, order, nv, linear):
    """p -> p(subs_1, ..., subs_k) to `order`, each subs_i a series in nv variables
    without constant term, and to degree 1 in the first `linear` of them.

    Each monomial is built from a smaller one times one subs_i, once for
    every p composed with the same subs.
    """
    monomials = {(0,) * len(subs): {(0,) * nv: Fraction(1)}}

    def monomial(e):
        if e not in monomials:
            i = next(i for i, k in enumerate(e) if k)
            smaller = monomial(e[:i] + (e[i] - 1,) + e[i + 1:])
            monomials[e] = mul(smaller, subs[i], order, linear)
        return monomials[e]

    return lambda p: combine(*((c, monomial(e)) for e, c in p.items() if sum(e) <= order))


def compose(p, subs, order, nv, linear):
    return composer(subs, order, nv, linear)(p)


def deriv(p, i):
    out = {}
    for e, c in p.items():
        if e[i]:
            d = e[:i] + (e[i] - 1,) + e[i + 1:]
            out[d] = c * e[i]
    return out


def unit(nv, i):
    return tuple(int(j == i) for j in range(nv))


def hessian_at_0(p, idx, nv):
    """The Hessian at 0 in the variables `idx` of p, a series in nv variables."""
    rows = []
    for a in idx:
        row = []
        for b in idx:
            e = tuple(x + y for x, y in zip(unit(nv, a), unit(nv, b)))
            row.append(Fraction(p.get(e, 0)) * (2 if a == b else 1))
        rows.append(row)
    return rows


# -- Fraction linear algebra ------------------------------------------------------


def pivots(rows):
    """Gaussian elimination: the pivot (row, column) pairs of `rows`, in the order taken."""
    rows = [[Fraction(v) for v in row] for row in rows]
    taken, used = [], set()
    for col in range(len(rows[0]) if rows else 0):
        r = next((r for r in range(len(rows)) if r not in used and rows[r][col]), None)
        if r is None:
            continue
        used.add(r)
        taken.append((r, col))
        for other in range(len(rows)):
            if other != r and rows[other][col]:
                f = rows[other][col] / rows[r][col]
                rows[other] = [x - f * y for x, y in zip(rows[other], rows[r])]
    return taken


def inverse(a):
    size = len(a)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
            for i, row in enumerate(a)]
    for col in range(size):
        r = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[r] = rows[r], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for other in range(size):
            if other != col and rows[other][col]:
                f = rows[other][col]
                rows[other] = [x - f * y for x, y in zip(rows[other], rows[col])]
    return [row[size:] for row in rows]


def kernel_vector(a):
    """A nonzero vector v with a v = 0, for a square `a` of corank one."""
    size = len(a)
    taken = pivots(a)
    free = next(c for c in range(size) if c not in {c for _, c in taken})
    # solve for the pivot columns with the free coordinate set to 1
    cols = [c for _, c in taken]
    block = [[Fraction(a[r][c]) for c in cols] for r, _ in taken]
    rhs = [-Fraction(a[r][free]) for r, _ in taken]
    sol = [sum(x * y for x, y in zip(row, rhs)) for row in inverse(block)]
    v = [Fraction(0)] * size
    v[free] = Fraction(1)
    for c, value in zip(cols, sol):
        v[c] = value
    return v


def inertia(a):
    """(positives, negatives) of a nonsingular symmetric matrix, by Descartes' rule.

    Every root of its characteristic polynomial is real, so the sign changes
    of the coefficients count the positive roots exactly, and those of
    p(-x) the negative ones.  The coefficients come from Faddeev-LeVerrier.
    """
    size = len(a)
    coeffs = [Fraction(1)]  # of x^size, x^(size-1), ...
    m = [[Fraction(0)] * size for _ in range(size)]
    for k in range(1, size + 1):
        m = [[sum(a[i][l] * m[l][j] for l in range(size)) + (coeffs[-1] if i == j else 0)
              for j in range(size)] for i in range(size)]
        am = [[sum(a[i][l] * m[l][j] for l in range(size)) for j in range(size)]
              for i in range(size)]
        coeffs.append(-sum(am[i][i] for i in range(size)) / k)

    def changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    negated = [c * (-1) ** (size - j) for j, c in enumerate(coeffs)]
    return changes(coeffs), changes(negated)


# -- the oracle ------------------------------------------------------------------


def morin_oracle(components, m):
    """("Fold", (pos, neg)), ("Cusp", None), ("Morin", k) for k >= 3 or ("Other", None).

    The germ is given as term dicts.  Only its jet of order n + 1 is read,
    as by `classify`, so k is at most n.  The series in (u, z) are taken
    modulo (u)^2: the decision reads only the terms of phi free of u and
    linear in u, and every substitution below maps each u_j to u_j, so
    dropping the terms of degree 2 or more in u after each product gives
    those terms unchanged.
    """
    n = len(components)
    order = n + 1
    comps = [{e: Fraction(c) for e, c in p.items() if sum(e) <= order} for p in components]
    jac = [[p.get(unit(m, v), Fraction(0)) for v in range(m)] for p in comps]
    taken = pivots(jac)
    if len(taken) != n - 1:
        return "Other", None  # regular, or corank two or more
    # a target change: f_n minus its combination of the pivot rows has no linear part
    rows, cols = [r for r, _ in taken], [c for _, c in taken]
    critical = next(r for r in range(n) if r not in rows)
    b_inv = inverse([[jac[r][c] for c in cols] for r in rows])
    weights = [sum(jac[critical][c] * b_inv[j][i] for j, c in enumerate(cols))
               for i in range(n - 1)]
    f_n = combine((1, comps[critical]), *((-w, comps[r]) for w, r in zip(weights, rows)))
    assert not any(sum(e) == 1 for e in f_n)
    # new variables y = (u_1..u_{n-1}, z_1..z_s): z the non-pivot x's, in order
    others = [v for v in range(m) if v not in cols]
    y = [{unit(m, i): Fraction(1)} for i in range(m)]
    u, z = y[:n - 1], y[n - 1:]
    # p <- p - B(0)^-1 (f_{<n}(p, z) - u): one order per pass.  f_n has no
    # linear part, so an error of order k in p moves g = f_n(p, z) at order
    # k + 1 only: g to order n + 1 needs p to order n
    p = [{} for _ in cols]

    def source(p):
        x = [None] * m
        for c, pc in zip(cols, p):
            x[c] = pc
        for v, zv in zip(others, z):
            x[v] = zv
        return x

    for k in range(1, order):  # pass k makes p right to order k
        at = composer(source(p), k, m, n - 1)
        resid = [combine((1, at(comps[r])), (-1, ui)) for r, ui in zip(rows, u)]
        p = [combine((1, pc), *((-b_inv[i][j], resid[j]) for j in range(n - 1)))
             for i, pc in enumerate(p)]
    g = compose(f_n, source(p), order, m, n - 1)
    s = m - n + 1
    z_idx = list(range(n - 1, m))
    kern = hessian_at_0(g, z_idx, m)
    corank = s - len(pivots(kern))
    if corank == 0:
        return "Fold", inertia(kern)
    if corank > 1 or n == 1:
        return "Other", None
    # splitting lemma: z = Q w with w = (w', t), t along the kernel of K
    v = kernel_vector(kern)
    q = next(i for i, vi in enumerate(v) if vi)
    rest = [i for i in range(s) if i != q]
    t = y[m - 1]
    w = {i: y[n - 1 + j] for j, i in enumerate(rest)}
    subs = list(u) + [combine(*([(1, w[i])] if i in w else []), (v[i], t)) for i in range(s)]
    g = compose(g, subs, order, m, n - 1)
    w_idx = list(range(n - 1, m - 1))
    if w_idx:
        k_inv = inverse(hessian_at_0(g, w_idx, m))
        big_w = [{} for _ in w_idx]
        # d g / d w' vanishes along the exact W, so an error of order k in W
        # moves phi at order 2k only
        for k in range(1, order // 2 + 1):
            at = composer(u + big_w + [t], k, m, n - 1)
            grad = [at(deriv(g, i)) for i in w_idx]
            big_w = [combine((1, wi), *((-k_inv[a][b], grad[b]) for b in range(len(w_idx))))
                     for a, wi in enumerate(big_w)]
        g = compose(g, u + big_w + [t], order, m, n - 1)
    phi = g  # phi(u, t)

    def coefficient(j, i):
        """Of u_j t^i in phi, or of t^i for j None."""
        return phi.get(tuple((v == j) + i * (v == m - 1) for v in range(m)), 0)

    assert coefficient(None, 2) == 0
    # A_k: ord_t phi(0, t) = k + 1, read within the jet (so k <= n)
    k = next((i - 1 for i in range(3, order + 1) if coefficient(None, i)), None)
    if k is None:
        return "Other", None
    # A_k-versality: the t^i parts of the d phi / d u_j at u = 0, 1 <= i <= k-1,
    # span all k-1 of them
    versal = len(pivots([[coefficient(j, i) for i in range(1, k)] for j in range(n - 1)]))
    if versal < k - 1:
        return "Other", None
    return ("Cusp", None) if k == 2 else ("Morin", k)


def classify_class(label):
    if label.is_fold():
        return "Fold", tuple(sorted(label.signature))
    if label.is_morin(2):
        return "Cusp", None
    if label.is_morin():
        return "Morin", label.k
    return "Other", None


# -- the germs -------------------------------------------------------------------


def seeded_germs(rng):
    """Corank-one germs in normal coordinates (u, z), each under random A-changes.

    Kinds: folds, cusps, a swallowtail (Morin 3), and near misses: a
    corank-two K, a cusp without its u t term (not versal), and n = 1 germs
    with a degenerate critical point.  Each carries random higher-order terms.
    """
    out = []
    dims = [(m, n) for m in range(2, 5) for n in range(1, 4) if n < m]
    plans = [("fold", d) for d in dims]
    plans += [("cusp", d) for d in dims if d[1] >= 2] * 2
    # n = 3 solves for p to order 4, which costs about 0.1 s a germ: its
    # near misses are whatever the random terms make
    plans += [("corank two", d) for d in dims if d[0] - d[1] + 1 >= 2 and d[1] < 3]
    plans += [("not versal", d) for d in dims if d[1] == 2]
    plans += [("swallowtail", (4, 3))]
    plans += [("degenerate", (m, 1)) for m in (2, 3)]
    for _ in range(3):
        for kind, (m, n) in plans:
            out.append(normal_coordinates_germ(rng, kind, m, n))
    return out


def normal_coordinates_germ(rng, kind, m, n):
    names = [f"u{i}" for i in range(1, n)] + [f"z{i}" for i in range(1, m - n + 2)]
    ctx = make_context(*names)

    def mono(*vs):
        e = [0] * m
        for v in vs:
            e[v] += 1
        return tuple(e)

    def coeff():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

    us, zs = list(range(n - 1)), list(range(n - 1, m))
    comps = []
    # a t in the pivot components' terms would give u_a t in f_n a t^3
    keep_t = kind not in ("morin 3", "not versal 3", "morin 4", "not versal 4")
    for i in us:
        terms = {mono(i): Fraction(1)}
        for e in combinations_with_replacement(range(m), 2):
            if rng.random() < 0.3 and (keep_t or zs[0] not in e):
                terms[mono(*e)] = coeff()
        comps.append(terms)
    last = {}
    for zv in {"fold": zs, "corank two": zs[2:]}.get(kind, zs[1:]):
        last[mono(zv, zv)] = Fraction(rng.choice((1, -1)))
    t = zs[0]
    if kind == "cusp":
        last[mono(t, t, t)] = coeff()
        last[mono(rng.choice(us), t)] = coeff()
    elif kind == "not versal":
        last[mono(t, t, t)] = coeff()
    elif kind == "swallowtail":
        last[mono(t, t, t, t)] = Fraction(1)
        last[mono(us[0], t, t)] = Fraction(1)
        last[mono(us[1], t)] = Fraction(1)
    elif kind == "degenerate":
        last[mono(t, t, t, t)] = Fraction(1)
    elif kind in ("morin 3", "not versal 3"):
        a, b = rng.sample(us, 2)
        last[mono(t, t, t, t)] = coeff()
        last[mono(a, t)] = coeff()
        last[mono(b if kind == "morin 3" else a, t, t)] = coeff()
    elif kind in ("morin 4", "not versal 4"):
        # the u_j t^i, 1 <= i <= 3: three u's, or two, which leave rank 2
        a, b, c = rng.sample(us, 3)
        last[mono(t, t, t, t, t)] = coeff()
        last[mono(a, t)] = coeff()
        last[mono(b, t, t)] = coeff()
        last[mono(c if kind == "morin 4" else rng.choice((a, b)), t, t, t)] = coeff()
    # higher-order terms that keep the kind: cubics, through z1 only where K
    # has no kernel along z1, and quartics, through z1 but where they would
    # move the t^4 and u_j t^3 of a Morin 4 kind
    for e in combinations_with_replacement(range(m), 3):
        if rng.random() < 0.25 and (kind in ("fold", "corank two") or t not in e):
            last[mono(*e)] = last.get(mono(*e), 0) + coeff()
    for e in combinations_with_replacement(range(m), 4):
        if rng.random() < 0.05 and (kind not in ("morin 4", "not versal 4") or t not in e):
            last[mono(*e)] = last.get(mono(*e), 0) + coeff()
    comps.append({e: c for e, c in last.items() if c})
    # both classifiers read the jet of order n+1 alone, and so does each
    # change: cut there after each one, and take target changes on jets
    order = n + 1

    def cut(germ):
        return MapGerm(ctx, tuple(Polynomial(ctx, {e: c for e, c in p.items() if sum(e) <= order})
                                  for p in germ.components))

    def on_jets(change):
        return lambda rng, germ: change(rng, MapGerm(ctx, tuple(
            p.truncated(order) for p in germ.components)))

    germ = cut(MapGerm(ctx, tuple(Polynomial(ctx, terms) for terms in comps)))
    for change in (linear_source_change, on_jets(linear_target_change), unipotent_source_change,
                   on_jets(unipotent_target_change)):
        germ = cut(change(rng, germ))
    return germ


def test_oracle_agrees_with_classify():
    start = time.perf_counter()
    rng = random.Random(1965)
    counts = Counter()
    for germ in seeded_germs(rng):
        want = morin_oracle([dict(p.items()) for p in germ.components], germ.m)
        got = classify_class(classify(germ, trace=False).label)
        if want[0] == "Fold":
            want = "Fold", tuple(sorted(want[1]))
        assert got == want, [p.render() for p in germ.components]
        counts[want[0]] += 1
    assert min(counts[kind] for kind in ("Fold", "Cusp", "Other")) >= 15, counts
    assert time.perf_counter() - start < 5


def test_oracle_agrees_at_m_5():
    # m = 5: folds for n = 1..4, cusps for n = 2..4 and the near misses of
    # `seeded_germs` (corank-two K, cusps without their u t term, a
    # degenerate critical point), under the same A-changes
    start = time.perf_counter()
    rng = random.Random(1965)
    plans = [("fold", n) for n in range(1, 5)] + [("cusp", n) for n in range(2, 5)]
    plans += [("corank two", n) for n in range(1, 4)] + [("not versal", n) for n in (2, 3)]
    plans += [("degenerate", 1)]
    counts = Counter()
    for _ in range(2):
        for kind, n in plans:
            germ = normal_coordinates_germ(rng, kind, 5, n)
            want = morin_oracle([dict(p.items()) for p in germ.components], germ.m)
            got = classify_class(classify(germ, trace=False).label)
            if want[0] == "Fold":
                want = "Fold", tuple(sorted(want[1]))
            assert got == want, [p.render() for p in germ.components]
            counts[want[0]] += 1
    assert counts == {"Fold": 8, "Cusp": 6, "Other": 12}, counts
    assert time.perf_counter() - start < 6


def test_oracle_agrees_on_morin_3():
    # condition (b) at n = 3: Morin 3 germs, and near misses whose u_a t and
    # u_a t^2 leave the versality matrix rank 1, which pass non-degeneracy
    # and 2-non-degeneracy and fail condition (b) alone
    start = time.perf_counter()
    rng = random.Random(1965)
    plans = [(kind, m) for kind in ("morin 3", "not versal 3") for m in (4, 5)]
    counts = Counter()
    for _ in range(3):
        for kind, m in plans:
            germ = normal_coordinates_germ(rng, kind, m, 3)
            want = morin_oracle([dict(p.items()) for p in germ.components], germ.m)
            label = classify(germ, trace=False).label
            assert classify_class(label) == want, [p.render() for p in germ.components]
            counts[str(label)] += 1
    assert counts["Morin{3}"] >= 5 and counts["Degenerate(RankConditionFailed)"] >= 5, counts
    assert time.perf_counter() - start < 5


def test_oracle_on_morin_3_normal_forms():
    ctx = make_context("u1", "u2", "t", "z")
    u1, u2, t, z = (Polynomial.variable(ctx, v) for v in ("u1", "u2", "t", "z"))
    for u, want, label in ((u2, ("Morin", 3), "Morin{3}"),
                           (u1, ("Other", None), "Degenerate(RankConditionFailed)")):
        germ = MapGerm(ctx, (u1, u2, t**4 + u1 * t + u * t**2 + z**2))
        assert morin_oracle([dict(p.items()) for p in germ.components], 4) == want
        assert str(classify(germ, trace=False).label) == label


def test_oracle_agrees_on_morin_4():
    # condition (b) at n = 4: Morin 4 germs, and near misses whose u-terms of
    # t, t^2 and t^3 leave the versality matrix rank 2, under A-changes; then
    # the two normal forms
    start = time.perf_counter()
    rng = random.Random(1965)
    counts = Counter()
    for _ in range(3):
        for kind in ("morin 4", "not versal 4"):
            germ = normal_coordinates_germ(rng, kind, 5, 4)
            want = morin_oracle([dict(p.items()) for p in germ.components], germ.m)
            label = classify(germ, trace=False).label
            assert classify_class(label) == want, [p.render() for p in germ.components]
            counts[str(label)] += 1
    assert counts["Morin{4}"] >= 3 and counts["Degenerate(RankConditionFailed)"] >= 3, counts
    ctx = make_context("u1", "u2", "u3", "t", "z")
    u1, u2, u3, t, z = (Polynomial.variable(ctx, v) for v in ("u1", "u2", "u3", "t", "z"))
    for u, want, label in ((u3, ("Morin", 4), "Morin{4}"),
                           (u1, ("Other", None), "Degenerate(RankConditionFailed)")):
        germ = MapGerm(ctx, (u1, u2, u3, t**5 + u1 * t + u2 * t**2 + u * t**3 + z**2))
        assert morin_oracle([dict(p.items()) for p in germ.components], 5) == want
        assert str(classify(germ, trace=False).label) == label
    assert time.perf_counter() - start < 6


def test_oracle_on_normal_forms():
    # the oracle alone, on germs whose labels are known
    ctx = make_context("u", "z1", "z2")
    u, z1, z2 = (dict(Polynomial.variable(ctx, v).items()) for v in ("u", "z1", "z2"))

    def germ(*terms):
        return [u, {e: Fraction(c) for e, c in terms}]

    assert morin_oracle(germ(((0, 2, 0), 1), ((0, 0, 2), -1)), 3) == ("Fold", (1, 1))
    assert morin_oracle(germ(((0, 3, 0), 1), ((1, 1, 0), 1), ((0, 0, 2), 1)), 3) == ("Cusp", None)
    # no u z1 term: not versal
    assert morin_oracle(germ(((0, 3, 0), 1), ((0, 0, 2), 1)), 3) == ("Other", None)
    # K = 0 has corank two
    assert morin_oracle(germ(((0, 3, 0), 1), ((1, 1, 0), 1), ((0, 0, 3), 1)), 3) == ("Other", None)
    # z1 z2 + z1^3: K is nonsingular, a fold
    assert morin_oracle(germ(((0, 1, 1), 1), ((0, 3, 0), 1)), 3) == ("Fold", (1, 1))
    # z2^2 + 2 z1 z2 + z1^2 + z1^3 = (z1 + z2)^2 + z1^3, the kernel line off
    # the axes, with u (z1 - z2)
    assert morin_oracle(germ(((0, 0, 2), 1), ((0, 1, 1), 2), ((0, 2, 0), 1), ((0, 3, 0), 1),
                             ((1, 1, 0), 1), ((1, 0, 1), -1)), 3) == ("Cusp", None)


def test_theta_identity_at_exact_morin_candidates(battery_germs, monkeypatch):
    # theta lambda_i = (M adj M)_ic = h delta_ic: at a Morin candidate, where
    # h(0) = 0, theta(0) annihilates every dlambda_i(0); and theta(0) .
    # d(theta^j h)(0) = theta^(j+1) h(0).  Untraced, `classify` takes
    # `criteria._taylor_tail` for every exact germ past non-degeneracy: the
    # germs it gives a theta column are the candidates
    from morinclass import criteria

    seen, tail = [], criteria._taylor_tail

    def spied(ls, theta=True):
        hd = tail(ls, theta)
        if hd.theta is not None:
            seen.append((ls, hd))
        return hd

    monkeypatch.setattr(criteria, "_taylor_tail", spied)
    rng = random.Random(1965)
    germs = [germ for *_, germ in battery_germs]
    germs += seeded_germs(rng)
    germs += [normal_coordinates_germ(rng, kind, m, 3)
              for kind in ("morin 3", "not versal 3") for m in (4, 5)]
    # maps to 4- and 5-space, where the tail eliminates the block M_<N
    forms = [normal_form(n + 1, n, k, (1,)) for n in (4, 5) for k in range(2, n + 1)]
    germs += [linear_target_change(rng, linear_source_change(rng, form)) for form in forms]
    for germ in germs:
        classify(germ, trace=False)
    dims = Counter()
    for ls, hd in seen:
        theta0 = [c.constant_term() for c in hd.theta.coefficients]
        for lam in ls.lambdas:
            assert sum(t * d for t, d in zip(theta0, lam.linear_coefficients())) == 0
        for j in range(ls.germ.n - 1):
            slope = hd.h_derivs[j].linear_coefficients()
            assert sum(t * d for t, d in zip(theta0, slope)) == hd.h_derivs[j + 1].constant_term()
        dims[ls.germ.n] += 1
    assert dims == {2: 18, 3: 25, 4: 3, 5: 4}, dims
