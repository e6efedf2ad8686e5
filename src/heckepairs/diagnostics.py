"""Growth diagnostics: degree fits, norm-ratio scans, finite-subgroup transfer.

The primary rapid-decay diagnostic is the exact ratio ||f * k||_2 over
||f||_2 ||k||_2 for nonnegative f supported in a double-coset ball and k in
a right-coset ball: it is computable in rational arithmetic, so scan maxima
are exact. The same ratio is at most sqrt(N_r), with N_r the number of right
cosets of length <= r, so each scan row is a bracket.
"""

import math
import operator
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
    require_length,
)
from .errors import ConfigError, InfiniteSubgroupError, UnsupportedLengthError
from .operators import ActionTable, norm_upper

# scan windows as multiples of the support radius r (see the scan docstrings)
K_FACTOR = 2
K_FACTOR_CHAR = 5
# random_hecke_element / random_l2_vector: at most this many terms, with
# integer coefficient parts in [-RANDOM_COEFF_MAX, RANDOM_COEFF_MAX]
RANDOM_MAX_TERMS = 4
RANDOM_COEFF_MAX = 5
# the scan draws random coefficients in [1, SCAN_COEFF_MAX]
SCAN_COEFF_MAX = 100
# transfer_check's random group functions take values in [0, TRANSFER_COEFF_MAX]
TRANSFER_COEFF_MAX = 3


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
        pair, rng, radius, nonneg, complex_part, double=True))


def random_l2_vector(pair, rng, radius=3, nonneg=False, complex_part=False):
    """Random exact right-coset vector, same sampling scheme as elements."""
    return L2Vector(pair, _random_terms(
        pair, rng, radius, nonneg, complex_part, double=False))


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
    """

    def __init__(self, length_name, d, t, table, t_fit, d_fit):
        self.length_name = length_name
        self.d = d
        self.t = t
        self.table = table
        self.t_fit = t_fit
        self.d_fit = d_fit

    def __repr__(self):
        return "DegreeFit(d=%.6g, t=%d, slope=%.4f, rows=%d)" % (
            self.d, self.t, self.t_fit, len(self.table),
        )


def degree_growth_fit(pair, length=None, radius=8, budget=10 ** 6, elements=None):
    """Fit degree growth against length over a ball (or explicit elements).

    Rows are (key, length, degree) of the ball's double cosets in ball
    order. `elements` bypasses ball enumeration for lengths without balls
    (`cosets.has_ball`), with one row per element.
    """
    length = require_length(pair, length)
    if elements is not None:
        table = [
            (double_key(pair, g), length(pair.double_rep(g)), degree(pair, g, budget=budget))
            for g in elements
        ]
    else:
        ball = enumerate_ball(pair, length, radius).double
        table = [(k, k.length, degree(pair, k.rep, budget=budget)) for k in ball.keys]
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
    """One radius of a ratio scan; `upper` is sqrt(ball_right), an upper
    bound for the ratio on every pair with a ball."""

    def __init__(self, radius, ball_double, ball_right, max_ratio_exact,
                 max_ratio_sq, upper, schur_upper, argmax_label):
        self.radius = radius
        self.ball_double = ball_double
        self.ball_right = ball_right
        self.max_ratio_exact = max_ratio_exact
        self.max_ratio_sq = max_ratio_sq
        self.upper = upper
        self.schur_upper = schur_upper
        self.argmax_label = argmax_label


class RDReport:
    """Scan result: per-radius maxima plus fitted growth constants."""

    def __init__(self, pair_name, length_name, seed, samples, rows,
                 fitted_c, fitted_s, degree_d=None, degree_t=None, config=None):
        self.pair_name = pair_name
        self.length_name = length_name
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
                "max_ratio_sq": str(row.max_ratio_sq),
                "max_ratio_upper": row.upper,
                "schur_upper": row.schur_upper,
                "argmax": row.argmax_label,
            })
        return {
            "pair": self.pair_name,
            "length": self.length_name,
            "seed": self.seed,
            "samples_per_radius": self.samples,
            "rows": rows,
            "fitted_C": self.fitted_c,
            "fitted_s": self.fitted_s,
            "degree_D": self.degree_d,
            "degree_t": self.degree_t,
            "config": self.config,
        }


def check_radii(radii):
    """The radii as a list; ConfigError unless they are nonempty, nonnegative
    and strictly increasing."""
    radii = list(radii)
    if not radii:
        raise ConfigError("key 'radii': need at least one radius")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ConfigError("radii must be strictly increasing: %r" % (radii,))
    if radii[0] < 0:  # the least, as the radii increase
        raise ConfigError("key 'radii': radii must be >= 0, got %r" % (radii,))
    return radii


def _sample_stream(dkeys, rand_mask, r, samples, seed, ri):
    """Yield (label, [(index into dkeys, positive int coeff)], int64 k).

    The characteristic function of the radius-r double ball with k = 1 on
    the whole domain, then seeded random supports, each with a random k on
    rand_mask drawn from its own stream. Terms are positions in dkeys, so a
    sample that the scan skips never builds a key map.
    """
    yield "char:%s" % r, [(i, 1) for i in range(len(dkeys))], np.ones_like(rand_mask)
    for si in range(samples):
        rng = spawn_rng(seed, ri, si)
        m = int(rng.integers(1, len(dkeys) + 1))
        picked = np.sort(rng.choice(len(dkeys), size=m, replace=False)).tolist()
        coeffs = rng.integers(1, SCAN_COEFF_MAX + 1, size=m)
        kvec = rng.integers(0, SCAN_COEFF_MAX + 1, size=len(rand_mask)) * rand_mask
        yield "random:%d" % si, list(zip(picked, coeffs.tolist())), kvec


def haagerup_scan_exact(pair, length=None, radii=(4, 8, 16, 32, 64), seed=0,
                        samples=200):
    """Exact scan of max ||f * k||_2 / (||f||_2 ||k||_2) per support radius.

    f runs over nonnegative integer elements supported in the double-coset
    ball of radius r (its characteristic function, then seeded random
    supports with coefficients in [1, SCAN_COEFF_MAX]); k over nonnegative
    integer right-coset vectors in a window `K_FACTOR * r` (the
    characteristic k fills the whole `K_FACTOR_CHAR * r` domain). Every
    computed ratio is an exact rational. The per-radius max is a running
    max, so the sample family at radius r contains every family at smaller
    radii and the max column is monotone by construction. Each row also
    carries the upper bound sqrt(N_r), N_r = |right ball of radius r|.

    A sample is skipped, without its product, when its Schur bound cannot
    beat the running max. With w_D the width of delta_D's table (D's degree)
    and rm_D the most entries delta_D puts in one row, let
    col = sum c_D w_D, bound = sum c_D rm_D and fn2 = sum c_D^2 w_D =
    ||f||_2^2. The table's compression A of lambda(f) has column sums at
    most col and row sums at most bound (triangle inequality), so the Schur
    test gives ||A k||^2 <= col bound ||k||^2, and the sample's ratio_sq is
    at most col bound / fn2. The max is replaced only on a strict >, so a
    sample with col bound / fn2 <= max changes neither the max, nor its
    label, nor the f behind `schur_upper`. No finite H is assumed. The k of
    each sample is drawn, and refused if too large for int64, before the
    test; every sample has its own stream, so skips change no draws.

    Raises ConfigError for radii that are empty, negative or not strictly
    increasing, and for samples < 0.
    """
    length = require_length(pair, length)
    radii = check_radii(radii)
    if samples < 0:
        raise ConfigError("samples must be >= 0, got %r" % (samples,))
    rows = []
    best = None  # (ratio_sq, label, f_coeffs, f_norm_sq) carried across radii
    maxes = []
    for ri, r in enumerate(radii):
        kmax = max(K_FACTOR, K_FACTOR_CHAR) * r
        big = enumerate_ball(pair, length, kmax + r).right
        dom = big.prefix(kmax)
        ball = enumerate_ball(pair, length, r)
        dkeys = list(ball.double.keys)
        table = ActionTable(pair, dkeys, dom, big)
        # (rm_D, w_D) by position in dkeys: the most entries delta_D puts in
        # one row, which bounds |out| before matvec_int (a wrapped int64 sum
        # cannot be detected afterwards), and the entries a column, which is
        # D's degree since a scan table keeps every row
        shape = [(int(np.bincount(table.tables[dk][0]).max(initial=0)), table.widths[dk])
                 for dk in dkeys]
        dom_len = np.array([float(k.length) for k in dom.keys])
        rand_mask = (dom_len <= K_FACTOR * r).astype(np.int64)
        for label, terms, kvec in _sample_stream(dkeys, rand_mask, r, samples, seed, ri):
            bound = col = fn2 = 0
            for i, c in terms:
                rm, w = shape[i]
                bound += c * rm
                col += c * w
                fn2 += c * c * w
            if bound * int(np.abs(kvec).max(initial=0)) >= 2 ** 63:
                raise ConfigError("scan coefficients too large for exact int64 path")
            # the Schur skip of the docstring: ratio_sq <= col * bound / fn2
            if best is not None and \
                    col * bound * best[0].denominator <= best[0].numerator * fn2:
                continue
            coeffs = {dkeys[i]: c for i, c in terms}
            out = table.matvec_int(coeffs, kvec)
            amax = int(np.abs(out).max(initial=0))
            if amax and amax * amax * len(out) >= 2 ** 63:
                raise ConfigError("scan coefficients too large for exact int64 path")
            num = int(out @ out)
            if num == 0:
                continue
            ratio_sq = Fraction(num, fn2 * int(kvec @ kvec))
            if best is None or ratio_sq > best[0]:
                best = (ratio_sq, label, coeffs, fn2)
        del table  # free this radius's table before the next, larger one is built
        ratio_sq, label, fco, fn2 = best
        f_elt = HeckeElement(pair, [(dk, QQi(c)) for dk, c in fco.items()])
        schur = norm_upper(pair, f_elt) / math.sqrt(float(fn2))
        mx = math.sqrt(float(ratio_sq))
        maxes.append(mx)
        nr = len(ball.right)
        rows.append(ScanRow(r, len(dkeys), nr, mx, ratio_sq, math.sqrt(nr), schur,
                            label))
    fitted_c, fitted_s = _fit_or_flat(radii, maxes)
    try:
        dfit = degree_growth_fit(pair, length, radius=max(radii))
        deg_d, deg_t = dfit.d, dfit.t
    except ConfigError:
        deg_d = deg_t = None
    return RDReport(
        pair.name, length.name, seed, samples, rows, fitted_c, fitted_s,
        degree_d=deg_d, degree_t=deg_t,
        config={
            "radii": radii, "k_factor": K_FACTOR, "k_factor_char": K_FACTOR_CHAR,
            "coeff_max": SCAN_COEFF_MAX,
        },
    )


def scan_csv_rows(report):
    """CSV rows (header first) of an exact scan; `max_ratio_upper` is
    sqrt(ball_right)."""
    out = [[
        "r", "ball_double", "ball_right", "max_ratio_exact",
        "max_ratio_upper", "schur_upper", "fitted_C", "fitted_s",
    ]]
    for row in report.rows:
        out.append([
            "%d" % row.radius,
            "%d" % row.ball_double,
            "%d" % row.ball_right,
            _fmt(row.max_ratio_exact),
            _fmt(row.upper),
            _fmt(row.schur_upper),
            _fmt(report.fitted_c),
            _fmt(report.fitted_s),
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


def _lift(pair, v):
    """The group function x -> v(Hx) on H supp(v), for v given as (right
    coset, value) pairs; a coset listed twice must carry one value."""
    out = {}
    for ck, c in v:
        for hi in pair.h_elements:
            if out.setdefault(hi * ck.rep, c) != c:
                raise ConfigError("lift is not well defined; bad pair data")
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


def _bar(pair, phi, double):
    """Average a group function over H translates: the sum over H x H gives
    a Hecke element, the sum over H x {e} a right-coset vector."""
    h = pair.h_elements
    cls, key, right = (HeckeElement, double_key, h) if double else \
        (L2Vector, coset_key, (pair.identity,))
    terms = []
    for rk in dict.fromkeys(key(pair, x) for x in phi):
        acc = QQi(0)
        for hi in h:
            for hj in right:
                v = phi.get(hi * (rk.rep * hj))
                if v is not None:
                    acc = acc + v
        terms.append((rk, acc))
    return cls(pair, terms)


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
    if not f.is_nonneg() or not k.is_nonneg():
        raise ConfigError("transfer checks need nonnegative f and k")
    n = len(pair.h_elements)
    items = []

    def check(name, ok, lhs, rhs, note=""):
        items.append(TransferItem(name, ok, lhs, rhs, note))

    kt = _lift(pair, k.terms.items())
    # f~ from f's right-coset expansion, independent of the action in (c)
    ft = _lift(pair, ((ck, c) for dk, c in f.terms.items()
                      for ck in decompose_double_coset(pair, dk.rep)))
    lhs, rhs = _group_norm_sq(kt), n * k.norm_sq()
    check("a:lift-right-norm", lhs == rhs, lhs, rhs)
    lhs, rhs = _group_norm_sq(ft), n * l2_norm_sq(f)
    check("b:lift-double-norm", lhs == rhs, lhs, rhs)

    conv = apply_regular_rep(pair, f, k)
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
    check("c:pointwise", pointwise_ok, "n*(f*k)", "sum f~(x) k~(x^-1 y)",
          "checked at %d cosets" % len(probes))
    lhs, rhs = (n ** 3) * conv.norm_sq(), _group_norm_sq(_group_conv(ft, kt))
    check("c:norm", lhs == rhs, lhs, rhs)

    # (d)/(e) once per draw: the lifts (equality), then a random pair of
    # nonnegative group functions on the same supports (inequality)
    draws = [("", operator.eq, "equality: input is a lift", "f~", ft, "k~", kt)]
    if rng is not None:
        phi = {x: QQi(int(rng.integers(0, TRANSFER_COEFF_MAX + 1))) for x in ft}
        psi = {x: QQi(int(rng.integers(0, TRANSFER_COEFF_MAX + 1))) for x in kt}
        draws.append((":random", operator.le, "", "phi", phi, "psi", psi))
    for tag, holds, note, fname, phi, kname, psi in draws:
        pbar, qbar = _bar(pair, phi, True), _bar(pair, psi, False)
        lhs, rhs = l2_norm_sq(pbar), n * (n ** 2) * _group_norm_sq(phi)
        check("d:double-average" + tag, holds(lhs, rhs), lhs, rhs, note)
        lhs, rhs = qbar.norm_sq(), n * _group_norm_sq(psi)
        check("d:right-average" + tag, holds(lhs, rhs), lhs, rhs, note)
        if phi is ft:
            same = pbar == f.scale(n * n)
            check("lift-consistency:f", same, same, True, "bar of lift is n^2 f")
            same = qbar == k.scale(n)
            check("lift-consistency:k", same, same, True, "bar of lift is n k")
        for side, name, g, bar, key in (("double", fname, phi, pbar, double_key),
                                        ("right", kname, psi, qbar, coset_key)):
            ok = all(g[x].re <= bar.coefficient(key(pair, x)).re for x in g)
            check("e:%s-domination%s" % (side, tag), ok, name, "lift(bar %s)" % name)

    return TransferReport(pair.name, n, items)

