"""Convolution algebra elements, the regular-representation action, norms.

Coefficients are Gaussian rationals (`QQi`), so every identity the test
suite checks holds exactly; the float solvers convert at the numpy boundary
(`ActionTable.operator_for`). Operands of different pairs are an error.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd, lcm

from .cosets import (CosetKey, DoubleCosetKey, coset_key, decompose_double_coset, degree,
                     double_key, require_length)
from .errors import ConfigError, ConvolutionAuditError, ModeMismatchError


class QQi:
    """Gaussian rational (a + b*i) / d over ints, d > 0 and gcd(a, b, d) = 1.

    Sums and products run on the int triple; `re` and `im` are read-only
    Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("QQi components must be exact (int/Fraction/str)")
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    re = property(lambda self: Fraction(self.a, self.d))
    im = property(lambda self: Fraction(self.b, self.d))
    real, imag = re, im

    def __add__(self, other):
        other = _as_qqi(other)
        return _sum(self, other.a, other.b, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_qqi(other)
        return _sum(self, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        return _as_qqi(other) - self

    def __neg__(self):
        return _qqi(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is int:  # the structure constants of `convolve`
            return _qqi(self.a * other, self.b * other, self.d)
        other = _as_qqi(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _qqi(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def conjugate(self):
        return _qqi(self.a, -self.b, self.d)

    def abs_sq(self):
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __complex__(self):
        return complex(self.a / self.d, self.b / self.d)

    def is_real_nonneg(self):
        return self.b == 0 and self.a >= 0

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        try:
            other = _as_qqi(other)
        except ModeMismatchError:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.b == 0:
            return "QQi(%s)" % (self.re,)
        return "QQi(%s, %s)" % (self.re, self.im)


def _qqi(a, b, d):
    """The QQi (a + b*i) / d from ints with d > 0, reduced by gcd(a, b, d)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = object.__new__(QQi)
    z.a, z.b, z.d = a, b, d
    return z


def _sum(x, a, b, d):
    """x + (a + b*i) / d."""
    if x.d == d:
        return _qqi(x.a + a, x.b + b, d)
    return _qqi(x.a * d + a * x.d, x.b * d + b * x.d, x.d * d)


def _as_qqi(c):
    if isinstance(c, QQi):
        return c
    if isinstance(c, (int, Fraction)):
        return QQi(c)
    if isinstance(c, str):
        return QQi(Fraction(c))
    raise ModeMismatchError("coefficients must be rational, got %r" % (c,))


_ZERO = QQi()


def _check_same(a, b):
    if a.pair.signature != b.pair.signature:
        raise ModeMismatchError("elements belong to different pairs")


class _Supported:
    """Shared plumbing for finitely supported coefficient maps."""

    key_type = None

    def __init__(self, pair, terms=None):
        self.pair = pair
        data = {}
        if terms:
            items = terms.items() if hasattr(terms, "items") else terms
            for key, c in items:
                if type(key) is not self.key_type:
                    raise TypeError(
                        "%s wants %s keys, got %r"
                        % (type(self).__name__, self.key_type.__name__, key)
                    )
                c = _as_qqi(c)
                if key in data:
                    c = data[key] + c
                if c:
                    data[key] = c
                elif key in data:
                    del data[key]
        self.terms = data

    @classmethod
    def zero(cls, pair):
        return cls(pair)

    @property
    def support(self):
        return tuple(self.terms)

    def sorted_terms(self):
        """(key, coeff) pairs in deterministic canonical order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].key)

    def coefficient(self, key):
        return self.terms.get(key, _ZERO)

    def is_zero(self):
        return not self.terms

    def is_nonneg(self):
        return all(c.is_real_nonneg() for c in self.terms.values())

    def _binop(self, other, op):
        _check_same(self, other)
        data = dict(self.terms)
        for k, c in other.terms.items():
            v = op(data.get(k, _ZERO), c)
            if v:
                data[k] = v
            elif k in data:
                del data[k]
        return type(self)(self.pair, data)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _as_qqi(c)
        return type(self)(self.pair, [(k, c * v) for k, v in self.terms.items()])

    def __rmul__(self, c):
        return self.scale(c)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.pair.signature == other.pair.signature
            and self.terms == other.terms
        )

    __hash__ = None  # container semantics; elements are not dict keys

    def __len__(self):
        return len(self.terms)

    def max_support_length(self, length=None):
        """Largest length over the support; 0 for the zero element."""
        length = require_length(self.pair, length)
        return max((length(k.rep) for k in self.terms), default=0)

    def __repr__(self):
        inside = ", ".join(
            "%r: %r" % (k.key, c) for k, c in self.sorted_terms()[:4]
        )
        if len(self.terms) > 4:
            inside += ", ..."
        return "%s(%s; {%s})" % (type(self).__name__, self.pair.name, inside)


class HeckeElement(_Supported):
    """Finitely supported function on double cosets."""

    key_type = DoubleCosetKey

    @classmethod
    def delta(cls, pair, g, coeff=1):
        """coeff times the characteristic function of HgH."""
        return cls(pair, [(double_key(pair, g), coeff)])

    def involution(self):
        """f*(g) = conj(f(g^-1)); support maps through inversion, read from
        `pair.inverse_cache`."""
        inverse = self.pair.inverse_cache
        out = []
        for k, c in self.terms.items():
            star = inverse.get(k)
            if star is None:
                star = inverse[k] = double_key(self.pair, k.rep.inv())
            out.append((star, c.conjugate()))
        return HeckeElement(self.pair, out)


class L2Vector(_Supported):
    """Finitely supported function on right cosets."""

    key_type = CosetKey

    @classmethod
    def delta(cls, pair, g, coeff=1):
        """coeff times the characteristic function of Hg."""
        return cls(pair, [(coset_key(pair, g), coeff)])

    @classmethod
    def delta_identity(cls, pair):
        return cls.delta(pair, pair.identity)

    def inner(self, other):
        """<self, other> in ell^2 of the right cosets (conjugate-linear right)."""
        _check_same(self, other)
        acc = _ZERO
        for k, c in self.terms.items():
            d = other.terms.get(k)
            if d is not None:
                acc += c * d.conjugate()
        return acc

    def norm_sq(self):
        return sum((c.abs_sq() for c in self.terms.values()), Fraction(0))


def _action_outputs(pair, dkey, ckey):
    """Output coset reps of (delta_D * delta_c), one per right coset of D.

    The map a -> H(a c0) over right-coset representatives a of D is
    injective (distinct a stay in distinct right cosets after right
    translation), so each output receives the coefficient exactly once.
    """
    probe = (dkey.rep, ckey.rep)
    hit = pair.action_cache.get(probe)
    if hit is None:
        hit = tuple(
            pair.coset_rep(a.rep * ckey.rep)
            for a in decompose_double_coset(pair, dkey.rep)
        )
        pair.action_cache[probe] = hit
    return hit


def apply_regular_rep(pair, f, xi):
    """The module action (f * xi)(Hg) = sum over right cosets Hk of
    f(g k^-1) xi(k), computed exactly on finite supports."""
    _check_same(f, xi)
    acc = {}
    for dkey, c in f.terms.items():
        for ckey, v in xi.terms.items():
            w = c * v
            for rep in _action_outputs(pair, dkey, ckey):
                out = CosetKey(rep)
                acc[out] = acc.get(out, _ZERO) + w
    return L2Vector(pair, acc)


def _generic_product(pair, g1, g2):
    """delta_D1 * delta_D2 as {DoubleCosetKey: int}, by counting the
    cosets H(a b) over right cosets Ha of D1 = H g1 H and Hb of D2 = H g2 H.
    A count not constant across a double coset's right cosets raises."""
    lefts = decompose_double_coset(pair, g1)
    counts = Counter(pair.coset_rep(a.rep * b.rep)
                     for b in decompose_double_coset(pair, g2) for a in lefts)
    by_double = {}
    for rep, n in counts.items():
        by_double.setdefault(pair.double_rep(rep), {})[rep] = n
    out = {}
    for drep, got in by_double.items():
        values = [got.get(a.rep, 0) for a in decompose_double_coset(pair, drep)]
        if values.count(values[0]) != len(values):
            raise ConvolutionAuditError(
                "convolution value not constant on double coset %r: %r"
                % (drep, values)
            )
        out[DoubleCosetKey(drep)] = values[0]
    return out


def _double_product(pair, d1, d2):
    """delta_D1 * delta_D2 as {DoubleCosetKey: int}: the pair's closed form
    `double_product` if it has one, else `_generic_product`, cached per pair
    in `product_cache`."""
    hit = pair.product_cache.get((d1, d2))
    if hit is None:
        count = pair.double_product or partial(_generic_product, pair)
        hit = pair.product_cache[d1, d2] = count(d1.rep, d2.rep)
    return hit


def convolve(pair, f1, f2):
    """Convolution product in the Hecke algebra.

    Bilinear over the supports: f1 * f2 = sum of f1(D1) f2(D2) times the
    integer basis product delta_D1 * delta_D2 of `_double_product`, which is
    the pair's `double_product` closed form or else a count audited once,
    cached per pair of doubles in `pair.product_cache`.
    """
    _check_same(f1, f2)
    acc = {}
    for d1, c1 in f1.terms.items():
        for d2, c2 in f2.terms.items():
            w = c1 * c2
            for d3, n in _double_product(pair, d1, d2).items():
                acc[d3] = acc.get(d3, _ZERO) + w * n
    return HeckeElement(pair, acc)


def l2_norm_sq(f):
    """||f||_2^2 over right cosets: sum of |coeff|^2 * degree per double."""
    acc = Fraction(0)
    for d, c in f.terms.items():
        acc += c.abs_sq() * degree(f.pair, d.rep)
    return acc


def require_float_range(f):
    """Raise ConfigError if some |c|^2 of f is past the float range.

    Every float norm and solver squares coefficients, so it starts here.
    """
    for c in f.terms.values():
        try:
            float(c.abs_sq())
        except OverflowError:
            raise ConfigError("f has a coefficient past the float range: float "
                              "norms and solvers need |c|^2 to fit a float") from None


def l1_norm(f):
    """||f||_1 over right cosets, as a float."""
    require_float_range(f)
    acc = 0.0
    for d, c in f.terms.items():
        acc += math.sqrt(c.abs_sq()) * degree(f.pair, d.rep)
    return acc


class NormsReport:
    """All norms of one element: plain floats plus exact squares when possible."""

    def __init__(self, s, length_name, l1, l2_sq, sobolev_sq, prime_sq, exact):
        self.s = s
        self.length_name = length_name
        self.l1 = l1
        self.l2_sq = l2_sq
        self.sobolev_sq = sobolev_sq
        self.prime_sq = prime_sq
        self.exact = exact
        self.l2 = math.sqrt(float(l2_sq))
        self.sobolev = math.sqrt(float(sobolev_sq))
        self.prime = math.sqrt(float(prime_sq))

    def __repr__(self):
        return (
            "NormsReport(s=%r, l1=%.6g, l2=%.6g, sobolev=%.6g, prime=%.6g)"
            % (self.s, self.l1, self.l2, self.sobolev, self.prime)
        )


def _weight(length_value, s, exact):
    base = 1 + length_value
    if exact:
        return Fraction(base) ** (2 * s)
    return float(base) ** (2 * float(s))


def norms(f, length=None, s=1):
    """l1, l2 and the weighted norms of one Hecke element.

    The weighted norm sums over right cosets; its primed variant sums over
    double cosets, so prime <= weighted always. Exact squares are reported
    whenever the length is exact and s is a nonnegative integer. Raises
    ConfigError when a norm is past the float range.
    """
    pair = f.pair
    length = require_length(pair, length)
    require_float_range(f)
    exact = length.exact and isinstance(s, int) and s >= 0
    l2_sq = sob_sq = prime_sq = Fraction(0) if exact else 0.0
    try:
        for d, c in f.terms.items():
            a = c.abs_sq()
            if not exact:
                a = float(a)
            deg = degree(pair, d.rep)
            w = _weight(length(d.rep), s, exact)
            l2_sq += a * deg
            sob_sq += a * deg * w
            prime_sq += a * w
        report = NormsReport(s, length.name, l1_norm(f), l2_sq, sob_sq, prime_sq,
                             exact)
        # a float power raises OverflowError, but a float sum just turns inf
        if math.inf in (report.l2, report.sobolev, report.prime):
            raise OverflowError
    except OverflowError:
        raise ConfigError("a norm of f is past the float range") from None
    return report

