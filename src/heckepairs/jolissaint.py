"""Corner-block seminorms over length projections.

For a finitely supported element f with max support length ell, the corner
compressions (1-P_N) f P_{N-N^alpha} live entirely inside narrow length
windows, so each level-N seminorm is the norm of two small exact matrices.
Thresholds like "L <= N - N^alpha" are evaluated in exact rational
arithmetic (no rounding of N^alpha), and vanishing beyond N >= ell^(1/alpha)
is decided without building anything.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .algebra import convolve, require_length
from .cosets import BallIndex, enumerate_ball
from .errors import ConfigError
from .operators import ActionTable, block_operator_norm, norm_upper

# relative slack of submultiplicativity_check's `ok` against float round-off
SUBMULT_SLACK = 1e-9


class JolissaintParams:
    """Corner-seminorm parameters: exponent alpha in (0,1), weight q, level N."""

    __slots__ = ("alpha", "q", "n")

    def __init__(self, alpha, q=1, n=None):
        self.alpha = Fraction(alpha)
        if not 0 < self.alpha < 1:
            raise ConfigError("alpha must lie strictly between 0 and 1")
        self.q = int(q)
        if self.q < 1:
            raise ConfigError("q must be a positive integer")
        self.n = None if n is None else int(n)
        if self.n is not None and self.n < 1:
            raise ConfigError("N must be a positive integer")

    def __repr__(self):
        return "JolissaintParams(alpha=%s, q=%d, n=%r)" % (self.alpha, self.q, self.n)


def length_le_pow(value, n, alpha):
    """Exact test of value <= n**alpha for rational value, integer n >= 1."""
    v = Fraction(value)
    if v <= 0:
        return True
    return v ** alpha.denominator <= Fraction(n) ** alpha.numerator


def length_le_n_minus_pow(value, n, alpha):
    """Exact test of value <= n - n**alpha."""
    d = Fraction(n) - Fraction(value)
    if d < 0:
        return False
    return d ** alpha.denominator >= Fraction(n) ** alpha.numerator


def vanishing_threshold(ell, alpha):
    """Smallest integer N with ell <= N**alpha; corner blocks vanish there on.

    A support of max length ell cannot move a column of length <= N - N^alpha
    past N (or back), so rho(f, N) = 0 exactly for every N at or beyond this.
    """
    ell = Fraction(ell)
    if ell <= 1:
        return 1
    p, q = alpha.numerator, alpha.denominator
    lq = ell ** q
    n0 = max(1, int(round(float(ell) ** (q / p))))
    while Fraction(n0) ** p < lq:
        n0 += 1
    while n0 > 1 and Fraction(n0 - 1) ** p >= lq:
        n0 -= 1
    return n0


def _window(ball, lo_excl, n, alpha, shift=0):
    """Keys of the ball with lo_excl < length <= n - n^alpha + shift."""
    lengths = ball._length_list
    start = bisect_right(lengths, lo_excl)
    # lengths are sorted, so the test holds on a prefix; find where it ends
    end = bisect_left(lengths, True, key=lambda L: not length_le_n_minus_pow(
        Fraction(L) - shift, n, alpha))
    return BallIndex(ball.radius, ball.keys[start:end])


class RhoResult:
    """One corner-seminorm level: N^q (||upper block|| + ||lower block||)."""

    __slots__ = ("n", "value", "block1_norm", "block2_norm", "block1_shape",
                 "block2_shape", "vanished")

    def __init__(self, n, value, block1_norm=0.0, block2_norm=0.0,
                 block1_shape=(0, 0), block2_shape=(0, 0), vanished=False):
        self.n = n
        self.value = value
        self.block1_norm = block1_norm
        self.block2_norm = block2_norm
        self.block1_shape = block1_shape
        self.block2_shape = block2_shape
        self.vanished = vanished

    def __repr__(self):
        return "RhoResult(N=%d, value=%.12g, blocks=%sx%s)" % (
            self.n, self.value, self.block1_shape, self.block2_shape,
        )


def corner_seminorm(pair, f, length=None, params=None, ball=None, budget=10 ** 6):
    """rho at one level N: the exact corner blocks of lambda(f) and their norms.

    Block 1 is (1-P_N) f P_{N-N^alpha}: columns are the right cosets with
    length in (N-ell, N-N^alpha], rows those in (N, N-N^alpha+ell]; block 2
    is the transposed window pattern for P_{N-N^alpha} f (1-P_N). Outside
    those windows the compressions are identically zero, so the matrices are
    the full blocks and the norms carry no truncation error.
    """
    if params is None or params.n is None:
        raise ConfigError("corner_seminorm needs params with a level N")
    length = require_length(pair, length)
    n, alpha, q = params.n, params.alpha, params.q
    if f.is_zero():
        return RhoResult(n, 0.0, vanished=True)
    ell = f.max_support_length(length)
    if length_le_pow(ell, n, alpha):
        # support too short to cross the corner: exact zero, no assembly
        return RhoResult(n, 0.0, vanished=True)
    if ball is None:
        ball = enumerate_ball(pair, length, n + math.ceil(ell), budget=budget).right
    cols = _window(ball, Fraction(n) - Fraction(ell), n, alpha)
    rows = _window(ball, Fraction(n), n, alpha, shift=Fraction(ell))
    if len(cols) == 0 or len(rows) == 0:
        return RhoResult(n, 0.0, block1_shape=(len(rows), len(cols)),
                         block2_shape=(len(cols), len(rows)))
    b1 = ActionTable(pair, f.support, cols, rows, allow_missing=True).matrix_for(f)
    b2 = ActionTable(pair, f.support, rows, cols, allow_missing=True).matrix_for(f)
    n1 = block_operator_norm(b1)
    n2 = block_operator_norm(b2)
    return RhoResult(
        n, float(n ** q) * (n1 + n2), n1, n2, b1.shape, b2.shape,
    )


class NuResult:
    """Exact sup over levels: max of rho over N below the vanishing threshold."""

    __slots__ = ("value", "argmax_n", "rows", "threshold", "alpha", "q")

    def __init__(self, value, argmax_n, rows, threshold, alpha, q):
        self.value = value
        self.argmax_n = argmax_n
        self.rows = rows
        self.threshold = threshold
        self.alpha = alpha
        self.q = q

    def __repr__(self):
        return "NuResult(value=%.12g, argmax_N=%r, levels=%d)" % (
            self.value, self.argmax_n, len(self.rows),
        )


def jolissaint_seminorm(pair, f, length=None, alpha=Fraction(1, 2), q=1,
                        budget=10 ** 6):
    """nu = sup_N rho(f, N), computed exactly over the finite active range.

    rho vanishes for every N at or beyond the support threshold, so the sup
    is a max over N in [1, threshold). Ties break toward the smaller N.
    """
    proto = JolissaintParams(alpha, q)
    alpha, q = proto.alpha, proto.q
    length = require_length(pair, length)
    if f.is_zero():
        return NuResult(0.0, None, [], 1, alpha, q)
    ell = f.max_support_length(length)
    threshold = vanishing_threshold(ell, alpha)
    if threshold <= 1:
        return NuResult(0.0, None, [], threshold, alpha, q)
    ball = enumerate_ball(
        pair, length, (threshold - 1) + math.ceil(ell), budget=budget
    ).right
    rows = []
    best_val = 0.0
    best_n = None
    for n in range(1, threshold):
        res = corner_seminorm(
            pair, f, length=length,
            params=JolissaintParams(alpha, q, n), ball=ball,
        )
        rows.append(res)
        if res.value > best_val:
            best_val = res.value
            best_n = n
    return NuResult(best_val, best_n, rows, threshold, alpha, q)


class SubmultReport:
    """One-sided product inequality record.

    lhs is the exact-block seminorm of the product; rhs replaces the two
    operator norms by Schur upper bounds, so lhs <= rhs is a sound check of
    the submultiplicativity inequality whenever it holds.  `ok` records the
    literal inequality, which is false at low levels for factors with short
    support.  `degenerate` marks only the case where both halved seminorms
    vanish while lhs > 0; a failure with rhs > 0 is not flagged.
    """

    __slots__ = ("ok", "lhs", "rhs", "alpha", "q", "nu_half_1", "nu_half_2",
                 "degenerate")

    def __init__(self, ok, lhs, rhs, alpha, q, nu_half_1, nu_half_2, degenerate):
        self.ok = ok
        self.lhs = lhs
        self.rhs = rhs
        self.alpha = alpha
        self.q = q
        self.nu_half_1 = nu_half_1
        self.nu_half_2 = nu_half_2
        self.degenerate = degenerate

    def __repr__(self):
        return "SubmultReport(%s: %.9g <= %.9g)" % (
            "ok" if self.ok else "FAIL", self.lhs, self.rhs,
        )


def submultiplicativity_check(pair, f1, f2, alpha=Fraction(1, 2), q=1):
    """Check nu_{a,q}(f1*f2) <= nu_{a/2,q}(f1)||f2|| + nu_{a/2,q}(f2)||f1||.

    Operator norms on the right are replaced by their Schur upper bounds.
    `ok` tests this literal inequality, which is false at finite level: it
    is expected to fail at low levels for factors with short support, where
    the halved-exponent corners see nothing (sigma_1 * sigma_1 gives
    lhs = 2*sqrt(2), rhs = 0).  `degenerate` covers only the case where
    both halved seminorms vanish (all support lengths <= 1) while the left
    side does not; a failure with rhs > 0, such as f1 = (-2-4i) sigma_1
    against a longer f2 with lhs 113.14 > rhs 80, is not flagged.
    """
    alpha = Fraction(alpha)
    prod = convolve(pair, f1, f2)
    lhs = jolissaint_seminorm(pair, prod, alpha=alpha, q=q).value
    half = alpha / 2
    nu1 = jolissaint_seminorm(pair, f1, alpha=half, q=q).value
    nu2 = jolissaint_seminorm(pair, f2, alpha=half, q=q).value
    u1 = norm_upper(pair, f1)
    u2 = norm_upper(pair, f2)
    rhs = nu1 * u2 + nu2 * u1
    ok = lhs <= rhs + SUBMULT_SLACK * max(1.0, rhs)
    degenerate = nu1 == 0.0 and nu2 == 0.0 and lhs > 0.0
    return SubmultReport(ok, lhs, rhs, alpha, q, nu1, nu2, degenerate)

