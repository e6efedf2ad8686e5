"""Growth diagnostics: degree fits, norm-ratio scans, finite-subgroup transfer.

The primary rapid-decay diagnostic is the exact ratio ||f * k||_2 over
||f||_2 ||k||_2 for nonnegative f supported in a double-coset ball and k in
a right-coset ball: it is computable in rational arithmetic, so scan maxima
are exact. Operator-norm scans corroborate but only ever under-report.
"""

import math
from fractions import Fraction

import numpy as np

from .algebra import (
    HeckeElement,
    L2Vector,
    QQi,
    apply_regular_rep,
    l2_norm_sq,
)
from .cosets import (
    coset_key,
    decompose_double_coset,
    degree,
    double_key,
    enumerate_ball,
)
from .errors import ConfigError, InfiniteSubgroupError, UnsupportedLengthError
from .operators import ActionTable, norm_lower, norm_upper

# scan windows as multiples of the support radius r (see the scan docstrings)
K_FACTOR = 2
K_FACTOR_CHAR = 5
TRUNC_FACTOR = 2
# random_hecke_element / random_l2_vector: at most this many terms, with
# integer coefficient parts in [-RANDOM_COEFF_MAX, RANDOM_COEFF_MAX]
RANDOM_MAX_TERMS = 4
RANDOM_COEFF_MAX = 5
# scans draw random coefficients in [1, SCAN_COEFF_MAX]; the operator scan
# brackets each norm to norm_lower's SCAN_TOL within SCAN_MAX_ITER steps
SCAN_COEFF_MAX = 100
SCAN_TOL = 1e-10
SCAN_MAX_ITER = 10 ** 4
# transfer_check's random group functions take values in [0, TRANSFER_COEFF_MAX]
TRANSFER_COEFF_MAX = 3
# cauchy_schwarz_constant_check draws entries in [0, CS_COEFF_MAX]
CS_COEFF_MAX = 50


def spawn_rng(seed, *key):
    """Independent deterministic stream for one (radius, sample) slot.

    Streams are split by (seed, radius index, sample index); aggregation
    order never affects the draws, so parallel sampling stays reproducible.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _nonzero_int(rng, nonneg):
    lo = 1 if nonneg else -RANDOM_COEFF_MAX
    while True:
        c = int(rng.integers(lo, RANDOM_COEFF_MAX + 1))
        if c != 0:
            return c


def _random_terms(pair, rng, radius, nonneg, complex_part, double):
    # keys come from the pair's length ball when it has a usable one,
    # otherwise from the pair's own random element stream
    try:
        ball = enumerate_ball(pair, pair.length, radius)
        keys = list((ball.double if double else ball.right).keys)
    except UnsupportedLengthError:
        key = double_key if double else coset_key
        seen = dict.fromkeys(
            key(pair, pair.random_element(rng)) for _ in range(4 * RANDOM_MAX_TERMS)
        )
        keys = list(seen)
    m = min(int(rng.integers(1, RANDOM_MAX_TERMS + 1)), len(keys))
    picked = sorted(int(i) for i in rng.choice(len(keys), size=m, replace=False))
    terms = []
    for i in picked:
        re = _nonzero_int(rng, nonneg)
        im = _nonzero_int(rng, False) if complex_part and not nonneg else 0
        terms.append((keys[i], QQi(re, im)))
    return terms


def random_hecke_element(pair, rng, radius=3, nonneg=False, complex_part=False):
    """Random exact element with small integer coefficients.

    Supports are drawn from the double-coset ball when a usable length
    exists, otherwise from the pair's own random element stream.
    """
    return HeckeElement(pair, _random_terms(
        pair, rng, radius, nonneg, complex_part, double=True), mode="exact")


def random_l2_vector(pair, rng, radius=3, nonneg=False, complex_part=False):
    """Random exact right-coset vector, same sampling scheme as elements."""
    return L2Vector(pair, _random_terms(
        pair, rng, radius, nonneg, complex_part, double=False), mode="exact")


def _ols(xs, ys):
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    den = sum((x - xbar) ** 2 for x in xs)
    if den == 0.0:
        return 0.0, ybar
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den
    return slope, ybar - slope * xbar


def fit_power_law(radii, values):
    """Least-squares fit of log(value) = log(C) + s*log(1+r).

    Radii below 1 are excluded (log-0 guard); needs two positive points.
    """
    pts = [(r, v) for r, v in zip(radii, values) if r >= 1 and v > 0]
    if len(pts) < 2:
        raise ConfigError("power-law fit needs at least two positive points at r >= 1")
    slope, intercept = _ols(
        [math.log1p(float(r)) for r, _ in pts], [math.log(float(v)) for _, v in pts]
    )
    return math.exp(intercept), slope


def _fit_or_flat(radii, values):
    # a one-radius scan is still useful; report its level with slope 0
    try:
        return fit_power_law(radii, values)
    except ConfigError:
        return (values[-1] if values else 0.0), 0.0


class DegreeFit:
    """Degree-growth bound: degree(g) <= d * (1 + L(g))^t over a ball.

    `d` is the exact pointwise-minimal constant for the integer exponent
    t = ceil(fit slope); `d_fit`/`t_fit` are the raw log-log least squares.
    Unpacks as (d, t, table).
    """

    def __init__(self, length_name, d, t, table, t_fit, d_fit):
        self.length_name = length_name
        self.d = d
        self.t = t
        self.table = table
        self.t_fit = t_fit
        self.d_fit = d_fit

    def __iter__(self):
        return iter((self.d, self.t, self.table))

    def __repr__(self):
        return "DegreeFit(d=%.6g, t=%d, slope=%.4f, rows=%d)" % (
            self.d, self.t, self.t_fit, len(self.table),
        )


def degree_table(pair, length=None, radius=8, budget=10 ** 6):
    """(key, length, degree) for every double coset in the ball, ball order."""
    length = length or pair.length
    if length is None:
        raise ConfigError("pair %r has no length for a degree table" % pair.name)
    ball = enumerate_ball(pair, length, radius, budget=budget).double
    return [(k, k.length, degree(pair, k.rep, budget=budget)) for k in ball.keys]


def degree_growth_fit(pair, length=None, radius=8, budget=10 ** 6, elements=None):
    """Fit degree growth against length over a ball (or explicit elements).

    `elements` bypasses ball enumeration for pairs whose interesting lengths
    are not locally finite; rows are then (length, degree) of those elements.
    """
    length = length or pair.length
    if elements is not None:
        if length is None:
            raise ConfigError("explicit elements still need a length")
        table = [
            (double_key(pair, g), length(pair.double_rep(g)), degree(pair, g, budget=budget))
            for g in elements
        ]
    else:
        table = degree_table(pair, length, radius, budget)
    if not table:
        what = "empty ball" if elements is None else "no elements sampled"
        raise ConfigError(what + ": nothing to fit")
    pts = [(float(L), d) for _, L, d in table if L >= 1]
    if pts:
        t_fit, intercept = _ols(
            [math.log1p(L) for L, _ in pts], [math.log(d) for _, d in pts]
        )
    else:
        # everything sits at length < 1: degree is bounded by a constant
        t_fit, intercept = 0.0, math.log(max(d for _, _, d in table))
    t = max(0, math.ceil(t_fit - 1e-9))
    d = max(Fraction(deg) / (1 + Fraction(L)) ** t for _, L, deg in table)
    return DegreeFit(length.name, float(d), t, table, t_fit, math.exp(intercept))


class ScanRow:
    """One radius of a ratio scan."""

    def __init__(self, radius, ball_double, ball_right, max_ratio_exact=None,
                 max_ratio_sq=None, operator_lower=None, schur_upper=None,
                 argmax_label="", exact=True):
        self.radius = radius
        self.ball_double = ball_double
        self.ball_right = ball_right
        self.max_ratio_exact = max_ratio_exact
        self.max_ratio_sq = max_ratio_sq
        self.operator_lower = operator_lower
        self.schur_upper = schur_upper
        self.argmax_label = argmax_label
        self.exact = exact


class RDReport:
    """Scan result: per-radius maxima plus fitted growth constants."""

    def __init__(self, pair_name, length_name, kind, seed, samples, rows,
                 fitted_c, fitted_s, degree_d=None, degree_t=None, config=None):
        self.pair_name = pair_name
        self.length_name = length_name
        self.kind = kind
        self.seed = seed
        self.samples = samples
        self.rows = rows
        self.fitted_c = fitted_c
        self.fitted_s = fitted_s
        self.degree_d = degree_d
        self.degree_t = degree_t
        self.config = dict(config or {})

    def to_json_dict(self):
        rows = []
        for row in self.rows:
            rows.append({
                "r": row.radius,
                "ball_double": row.ball_double,
                "ball_right": row.ball_right,
                "max_ratio_exact": row.max_ratio_exact,
                "max_ratio_sq": (
                    str(row.max_ratio_sq) if row.max_ratio_sq is not None else None
                ),
                "max_ratio_operator_lower": row.operator_lower,
                "schur_upper": row.schur_upper,
                "argmax": row.argmax_label,
                "exact": row.exact,
            })
        return {
            "pair": self.pair_name,
            "length": self.length_name,
            "kind": self.kind,
            "seed": self.seed,
            "samples_per_radius": self.samples,
            "rows": rows,
            "fitted_C": self.fitted_c,
            "fitted_s": self.fitted_s,
            "degree_D": self.degree_d,
            "degree_t": self.degree_t,
            "config": self.config,
        }


def _char_ladder(radii, r):
    """Characteristic-function radii to include at scan radius r (nested)."""
    ladder = {rho for rho in radii if 1 <= rho <= r}
    ladder.add(max(1, r))
    return sorted(ladder)


def _sample_stream(dkeys, ladder, samples, seed, ri, coeff_max):
    """Yield (label, rho, {double rep: positive int coeff}, rng_or_None).

    Deterministic family: ball characteristic functions for each ladder
    radius, every single delta in the ball, then seeded random supports.
    rho is the ladder radius of the characteristic k to pair with the
    sample (the top of the ladder for deltas), None for random samples.
    """
    for rho in ladder:
        yield "char:%s" % rho, rho, {k.rep: 1 for k in dkeys if k.length <= rho}, None
    for k in dkeys:
        yield "delta:%r" % (k.rep.key,), ladder[-1], {k.rep: 1}, None
    for si in range(samples):
        rng = spawn_rng(seed, ri, si)
        m = int(rng.integers(1, len(dkeys) + 1))
        picked = sorted(int(i) for i in rng.choice(len(dkeys), size=m, replace=False))
        coeffs = rng.integers(1, coeff_max + 1, size=m)
        yield "random:%d" % si, None, {
            dkeys[i].rep: int(c) for i, c in zip(picked, coeffs)
        }, rng


def haagerup_scan_exact(pair, length=None, radii=(4, 8, 16, 32, 64), seed=0,
                        samples=200, coeff_max=SCAN_COEFF_MAX, budget=10 ** 6):
    """Exact scan of max ||f * k||_2 / (||f||_2 ||k||_2) per support radius.

    f runs over nonnegative integer elements supported in the double-coset
    ball of radius r (characteristic functions, single deltas, seeded random
    supports); k over nonnegative integer right-coset vectors in a window
    `K_FACTOR * r` (characteristic k uses `K_FACTOR_CHAR * r`). All ratios
    are exact rationals. The per-radius max is a running max, so the sample
    family at radius r contains every family at smaller radii and the max
    column is monotone by construction.
    """
    length = length or pair.length
    if length is None:
        raise ConfigError("scan needs a length function")
    radii = list(radii)
    rows = []
    best = None  # (ratio_sq, label, f_coeffs, f_norm_sq) carried across radii
    maxes = []
    for ri, r in enumerate(radii):
        kmax = max(K_FACTOR, K_FACTOR_CHAR) * r
        big = enumerate_ball(pair, length, kmax + r, budget=budget).right
        dom = big.prefix(kmax)
        dball = enumerate_ball(pair, length, r, budget=budget).double
        rball_size = len(enumerate_ball(pair, length, r, budget=budget).right)
        dkeys = list(dball.keys)
        table = ActionTable(pair, dkeys, dom, big)
        # most entries delta_D puts in one row, for bounding |out| before
        # matvec_int: a wrapped int64 sum cannot be detected afterwards
        row_mult = {rep: int(np.bincount(rows).max(initial=0))
                    for rep, (rows, _) in table.tables.items()}
        degs = {k.rep: degree(pair, k.rep) for k in dkeys}
        dom_len = np.array([float(k.length) for k in dom.keys])
        char_k = {
            rho: (dom_len <= K_FACTOR_CHAR * rho).astype(np.int64)
            for rho in _char_ladder(radii, r)
        }
        rand_mask = (dom_len <= K_FACTOR * r).astype(np.int64)
        for label, rho, coeffs, rng in _sample_stream(
            dkeys, sorted(char_k), samples, seed, ri, coeff_max
        ):
            if not coeffs:
                continue
            if rho is not None:
                kvec = char_k[rho]
            else:
                kvec = rng.integers(0, coeff_max + 1, size=len(dom)) * rand_mask
            bound = sum(abs(c) * row_mult[rep] for rep, c in coeffs.items())
            if bound * int(np.abs(kvec).max(initial=0)) >= 2 ** 63:
                raise ConfigError("scan coefficients too large for exact int64 path")
            out = table.matvec_int(coeffs, kvec)
            amax = int(np.abs(out).max(initial=0))
            if amax and amax * amax * len(out) >= 2 ** 63:
                raise ConfigError("scan coefficients too large for exact int64 path")
            num = int(out @ out)
            if num == 0:
                continue
            kn2 = int(kvec @ kvec)
            fn2 = sum(c * c * degs[rep] for rep, c in coeffs.items())
            ratio_sq = Fraction(num, fn2 * kn2)
            if best is None or ratio_sq > best[0]:
                best = (ratio_sq, label, dict(coeffs), fn2)
        ratio_sq, label, fco, fn2 = best
        f_elt = HeckeElement(
            pair, [(double_key(pair, rep), QQi(c)) for rep, c in fco.items()]
        )
        schur = norm_upper(pair, f_elt) / math.sqrt(float(fn2))
        mx = math.sqrt(float(ratio_sq))
        maxes.append(mx)
        rows.append(ScanRow(
            r, len(dkeys), rball_size, max_ratio_exact=mx, max_ratio_sq=ratio_sq,
            schur_upper=schur, argmax_label=label, exact=True,
        ))
    fitted_c, fitted_s = _fit_or_flat(radii, maxes)
    try:
        dfit = degree_growth_fit(pair, length, radius=max(radii), budget=budget)
        deg_d, deg_t = dfit.d, dfit.t
    except ConfigError:
        deg_d = deg_t = None
    return RDReport(
        pair.name, length.name, "exact", seed, samples, rows, fitted_c, fitted_s,
        degree_d=deg_d, degree_t=deg_t,
        config={
            "radii": radii, "k_factor": K_FACTOR, "k_factor_char": K_FACTOR_CHAR,
            "coeff_max": coeff_max,
        },
    )


def haagerup_scan_operator(pair, length=None, radii=(2, 4, 8), seed=0,
                           samples=25, budget=10 ** 6):
    """Operator-norm scan: max norm_lower(f)/||f||_2 per support radius.

    Same f family as the exact scan (characteristic functions, deltas,
    random supports), each bracketed by norm_lower over the ball of radius
    `TRUNC_FACTOR * r`; ratios are certified lower bounds, with the Schur
    upper bound of the per-radius argmax recorded alongside.
    """
    length = length or pair.length
    if length is None:
        raise ConfigError("scan needs a length function")
    radii = list(radii)
    rows = []
    maxes = []
    for ri, r in enumerate(radii):
        dball = enumerate_ball(pair, length, r, budget=budget).double
        rball_size = len(enumerate_ball(pair, length, r, budget=budget).right)
        dkeys = list(dball.keys)
        best = None  # (ratio, label, schur_ratio)
        for label, _rho, coeffs, _rng in _sample_stream(
            dkeys, _char_ladder(radii, r), samples, seed, ri, SCAN_COEFF_MAX
        ):
            if not coeffs:
                continue
            f = HeckeElement(
                pair, [(double_key(pair, rep), QQi(c)) for rep, c in coeffs.items()]
            )
            fn = math.sqrt(float(l2_norm_sq(f)))
            nb = norm_lower(
                pair, f, length=length, radius=TRUNC_FACTOR * r,
                tol=SCAN_TOL, max_iter=SCAN_MAX_ITER,
            )
            ratio = nb.lower / fn
            if best is None or ratio > best[0]:
                best = (ratio, label, nb.upper / fn)
        ratio, label, schur = best
        maxes.append(ratio)
        rows.append(ScanRow(
            r, len(dkeys), rball_size, operator_lower=ratio, schur_upper=schur,
            argmax_label=label, exact=False,
        ))
    fitted_c, fitted_s = _fit_or_flat(radii, maxes)
    return RDReport(
        pair.name, length.name, "operator", seed, samples, rows, fitted_c, fitted_s,
        config={
            "radii": radii, "coeff_max": SCAN_COEFF_MAX, "trunc_factor": TRUNC_FACTOR,
            "tol": SCAN_TOL, "max_iter": SCAN_MAX_ITER,
        },
    )


def scan_csv_rows(exact_report, operator_report=None):
    """CSV rows (header first) merging an exact scan with an operator scan."""
    header = [
        "r", "ball_double", "ball_right", "max_ratio_exact",
        "max_ratio_operator_lower", "schur_upper", "fitted_C", "fitted_s",
    ]
    op_by_r = {}
    if operator_report is not None:
        op_by_r = {row.radius: row for row in operator_report.rows}
    out = [header]
    for row in exact_report.rows:
        op = op_by_r.get(row.radius)
        out.append([
            "%d" % row.radius,
            "%d" % row.ball_double,
            "%d" % row.ball_right,
            _fmt(row.max_ratio_exact),
            _fmt(op.operator_lower) if op is not None else "",
            _fmt(row.schur_upper),
            _fmt(exact_report.fitted_c),
            _fmt(exact_report.fitted_s),
        ])
    return out


def _fmt(x):
    return "" if x is None else "%.12g" % x


# --- finite-subgroup transfer -------------------------------------------


class TransferItem:
    __slots__ = ("name", "ok", "lhs", "rhs", "note")

    def __init__(self, name, ok, lhs, rhs, note=""):
        self.name = name
        self.ok = ok
        self.lhs = lhs
        self.rhs = rhs
        self.note = note

    def __repr__(self):
        mark = "ok" if self.ok else "FAIL"
        return "[%s] %s: %s vs %s %s" % (mark, self.name, self.lhs, self.rhs, self.note)


class TransferReport:
    """Exact verification record for the finite-subgroup norm transfer."""

    def __init__(self, pair_name, n, items):
        self.pair_name = pair_name
        self.n = n
        self.items = items

    @property
    def ok(self):
        return all(item.ok for item in self.items)

    def __repr__(self):
        good = sum(1 for i in self.items if i.ok)
        return "TransferReport(%s, n=%d, %d/%d ok)" % (
            self.pair_name, self.n, good, len(self.items),
        )

    def to_json_dict(self):
        return {
            "pair": self.pair_name,
            "n": self.n,
            "ok": self.ok,
            "items": [
                {"name": i.name, "ok": i.ok, "lhs": str(i.lhs), "rhs": str(i.rhs),
                 "note": i.note}
                for i in self.items
            ],
        }


def _lift_double(pair, f, h):
    """f-tilde as a genuine group function: x -> f(HxH) on the support set."""
    out = {}
    for dk, c in f.terms.items():
        for ck in decompose_double_coset(pair, dk.rep):
            for hi in h:
                x = hi * ck.rep
                if x in out and out[x] != c:
                    raise ConfigError("lift is not well defined; bad pair data")
                out[x] = c
    return out


def _lift_right(pair, k, h):
    out = {}
    for ck, c in k.terms.items():
        for hi in h:
            out[hi * ck.rep] = c
    return out


def _group_conv(a, b):
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            z = x * y
            out[z] = out.get(z, QQi(0)) + cx * cy
    return out


def _group_norm_sq(a):
    acc = Fraction(0)
    for c in a.values():
        acc += c.abs_sq()
    return acc


def _bar_double(pair, phi, h):
    """Average a group function to a Hecke element: sum over H x H translates."""
    reps = dict.fromkeys(double_key(pair, x) for x in phi)
    terms = []
    for dk in reps:
        acc = QQi(0)
        for hi in h:
            for hj in h:
                v = phi.get(hi * (dk.rep * hj))
                if v is not None:
                    acc = acc + v
        terms.append((dk, acc))
    return HeckeElement(pair, terms, mode="exact")


def _bar_right(pair, psi, h):
    reps = dict.fromkeys(coset_key(pair, x) for x in psi)
    terms = []
    for ck in reps:
        acc = QQi(0)
        for hi in h:
            v = psi.get(hi * ck.rep)
            if v is not None:
                acc = acc + v
        terms.append((ck, acc))
    return L2Vector(pair, terms, mode="exact")


def _random_group_function(pair, base, rng):
    """Nonnegative group function supported in the same set, not H-invariant."""
    return {x: QQi(int(rng.integers(0, TRANSFER_COEFF_MAX + 1))) for x in base}


def transfer_check(pair, f, k, rng=None):
    """Exact identity checks relating (G, H) norms to plain group norms.

    For |H| = n and lifts f~(x) = f(HxH), k~(x) = k(Hx):
      (a) ||k~||^2 = n ||k||^2 as a G-sum;
      (b) ||f~||^2 = n ||f||^2;
      (c) ||f * k||^2 = (1/n^3) ||f~ *_G k~||^2, with the pointwise form
          (f * k)(Hy) = (1/n) sum_x f~(x) k~(x^-1 y) checked as well;
      (d) averaging bounds with the sharp Cauchy-Schwarz constant c(m) = m:
          ||bar(phi)||^2 <= n c(n^2) ||phi||^2 (double cosets) and
          ||bar(psi)||^2 <= c(n) ||psi||^2 (right cosets), met with equality
          when phi, psi are lifts, where bar re-sums over H-translates;
      (e) pointwise domination phi <= lift(bar(phi)) for nonnegative phi,
          and likewise for psi.

    All arithmetic is rational. f and k must be nonnegative; H must be
    finite. An optional rng adds the same (d)/(e) checks on random
    non-invariant group functions, exercising the strict-inequality side.
    """
    if pair.h_elements is None:
        raise InfiniteSubgroupError(
            "transfer needs finite H; pair %r has infinite H" % pair.name
        )
    if not (f.ring.exact and k.ring.exact):
        raise ConfigError("transfer checks run in exact mode only")
    if not f.is_nonneg() or not k.is_nonneg():
        raise ConfigError("transfer checks need nonnegative f and k")
    h = list(pair.h_elements)
    n = len(h)
    items = []

    def check(name, lhs, rhs, note="", op="eq"):
        ok = (lhs == rhs) if op == "eq" else (lhs <= rhs)
        items.append(TransferItem(name, ok, lhs, rhs, note))

    kt = _lift_right(pair, k, h)
    ft = _lift_double(pair, f, h)
    check("a:lift-right-norm", _group_norm_sq(kt), n * k.norm_sq())
    check("b:lift-double-norm", _group_norm_sq(ft), n * l2_norm_sq(f))

    conv = apply_regular_rep(pair, f, k)
    gconv = _group_conv(ft, kt)
    pointwise_ok = True
    probes = list(conv.terms) + [ck for ck in k.terms if ck not in conv.terms]
    for ck in probes:
        acc = QQi(0)
        for x, cx in ft.items():
            # k~(x^-1 y) = k(H x^-1 y): the lift evaluates through the coset map
            v = k.coefficient(coset_key(pair, x.inv() * ck.rep))
            if v:
                acc = acc + cx * v
        if QQi(n) * conv.coefficient(ck) != acc:
            pointwise_ok = False
    items.append(TransferItem(
        "c:pointwise", pointwise_ok, "n*(f*k)", "sum f~(x) k~(x^-1 y)",
        "checked at %d cosets" % len(probes),
    ))
    check("c:norm", (n ** 3) * conv.norm_sq(), _group_norm_sq(gconv))

    fbar = _bar_double(pair, ft, h)
    kbar = _bar_right(pair, kt, h)
    check("d:double-average", l2_norm_sq(fbar), n * (n ** 2) * _group_norm_sq(ft),
          note="equality: input is a lift")
    check("d:right-average", kbar.norm_sq(), n * _group_norm_sq(kt),
          note="equality: input is a lift")
    check("lift-consistency:f", fbar == f.scale(n * n), True,
          note="bar of lift is n^2 f", op="eq")
    check("lift-consistency:k", kbar == k.scale(n), True,
          note="bar of lift is n k", op="eq")

    dom_ok = all(
        ft[x].re <= fbar.coefficient(double_key(pair, x)).re for x in ft
    )
    items.append(TransferItem("e:double-domination", dom_ok, "f~", "lift(bar f~)"))
    dom_ok_k = all(
        kt[x].re <= kbar.coefficient(coset_key(pair, x)).re for x in kt
    )
    items.append(TransferItem("e:right-domination", dom_ok_k, "k~", "lift(bar k~)"))

    if rng is not None:
        phi = _random_group_function(pair, ft, rng)
        psi = _random_group_function(pair, kt, rng)
        pbar = _bar_double(pair, phi, h)
        qbar = _bar_right(pair, psi, h)
        check("d:double-average:random", l2_norm_sq(pbar),
              n * (n ** 2) * _group_norm_sq(phi), op="le")
        check("d:right-average:random", qbar.norm_sq(),
              n * _group_norm_sq(psi), op="le")
        dom_r = all(
            phi[x].re <= pbar.coefficient(double_key(pair, x)).re for x in phi
        )
        items.append(TransferItem("e:double-domination:random", dom_r, "phi",
                                  "lift(bar phi)"))
        dom_rk = all(
            psi[x].re <= qbar.coefficient(coset_key(pair, x)).re for x in psi
        )
        items.append(TransferItem("e:right-domination:random", dom_rk, "psi",
                                  "lift(bar psi)"))

    return TransferReport(pair.name, n, items)


def cauchy_schwarz_constant_check(m, trials=1000, seed=0):
    """The averaging constant c(m) = m is sharp: (sum x)^2 <= m sum x^2.

    Returns (max_ratio, achieved_at_constant): the max of (sum x)^2 / sum x^2
    over random nonnegative integer m-vectors plus the constant vector, as an
    exact Fraction. Equality holds exactly at constant vectors.
    """
    rng = spawn_rng(seed, m)
    best = Fraction(0)
    for _ in range(trials):
        xs = [int(v) for v in rng.integers(0, CS_COEFF_MAX + 1, size=m)]
        s2 = sum(x * x for x in xs)
        if s2 == 0:
            continue
        best = max(best, Fraction(sum(xs) ** 2, s2))
    # constant vectors (c, c, ..., c) achieve the constant exactly
    equality = all(Fraction((c * m) ** 2, m * c * c) == m for c in (1, 2, 7))
    best = max(best, Fraction(m))
    return best, equality
