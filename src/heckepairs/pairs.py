"""Catalog of concrete Hecke pairs: canonicalizers, lengths, metadata.

Each pair bundles an element class with a membership test for H, generators
of H for orbit closure, exact right- and double-coset canonicalizers, an
optional validated length, and (where a closed form exists) a direct
right-coset ball enumerator. Everything is exact rational arithmetic.
"""

import math
from collections import Counter
from contextlib import suppress
from fractions import Fraction
from itertools import chain, islice, product

import numpy as np

from .algebra import _generic_product
from .cosets import DoubleCosetKey, degree
from .errors import BudgetExceededError, ConfigError, ConvolutionAuditError, PairSanityError
from .groups import (
    AxbElement,
    DihedralElement,
    IntegerElement,
    LengthFunction,
    MatrixElement,
    SemidirectElement,
    coordinate_sum_length,
    dihedral_abs_length,
    walk_layers,
)


class HeckePair:
    """A group with an almost-normal subgroup, plus canonical-form machinery.

    The canonicalizers are the load-bearing part: `coset_rep(g)` is a fixed
    representative of Hg and `double_rep(g)` of HgH, both exact, so their
    element keys serve as dictionary keys for cosets. `h_elements` is None
    when H is infinite; orbit closure then relies on `h_generators` alone.

    Pairs with a closed-form length ball may pass `ball_rights(r)`, the
    canonical right-coset reps of length <= r under the pair's own length;
    `enumerate_ball` derives the double-coset ball from it. Pairs with
    integer coset coordinates may pass `coset_coords(reps)`, int64
    (n, width) coordinates of canonical reps, distinct for distinct cosets,
    that add up: coords(H a x) = coords(Ha) + coords(Hx) for every a and
    canonical rep x, so action tables build in numpy. Pairs with closed-form
    structure constants pass `double_product(g1, g2)`, the product of
    canonical double reps as {DoubleCosetKey: int}. Instances are immutable
    after build apart from four append-only caches: `ball_cache`,
    `decompose_cache`, `action_cache` (`apply_regular_rep`'s action rows) and
    `product_cache` (`convolve`'s constants); concurrent readers are safe.
    """

    def __init__(self, name, params, identity, contains, h_generators,
                 coset_rep, double_rep, length=None, candidate_lengths=None,
                 h_elements=None, g_generators=None, random_element=None,
                 ball_rights=None, coset_coords=None, double_product=None,
                 rd_status="unknown"):
        self.name = name
        self.params = dict(params)
        self.identity = identity
        self.contains = contains
        self.h_generators = tuple(h_generators)
        self.coset_rep = coset_rep
        self.double_rep = double_rep
        self.length = length
        self.candidate_lengths = dict(candidate_lengths or {})
        self.h_elements = tuple(h_elements) if h_elements is not None else None
        self.g_generators = tuple(g_generators) if g_generators else None
        self.random_element = random_element  # rng -> element, deterministic
        self.ball_rights = ball_rights
        self.coset_coords = coset_coords
        self.double_product = double_product
        self.rd_status = rd_status
        # append-only caches, keyed on canonical element keys
        self.decompose_cache = {}
        self.action_cache = {}
        self.product_cache = {}
        self.ball_cache = {}

    @property
    def signature(self):
        return (self.name, tuple(sorted(self.params.items())))

    def h_sample(self, depth=3):
        """A finite, deterministic sample of H for validation checks.

        All of H when H is finite, otherwise short words in h_generators.
        """
        if self.h_elements is not None:
            return self.h_elements
        layers = walk_layers(
            self.identity, lambda g: [g * s for s in self.h_generators],
            10 ** 6, "H sample",
        )
        out = chain.from_iterable(islice(layers, depth + 1))
        return tuple(sorted(out, key=lambda g: g.key))

    def validate_length(self, length=None, sample=None, tol=None):
        """Run the length-axiom checks against this pair's data."""
        from .groups import validate_length as _vl

        if length is None:
            length = self.length
        if length is None:
            raise ConfigError("pair %r has no length attached" % self.name)
        if sample is None:
            rng = np.random.default_rng(0)
            sample = [self.random_element(rng) for _ in range(30)]
        if tol is None and not length.exact:
            tol = 1e-9
        return _vl(length, self.identity, sample, self.h_sample(), tol=tol)

    def __repr__(self):
        return "HeckePair(%r, %r)" % (self.name, self.params)


# _sanity_check draws this many random elements (plus the identity) per build
SANITY_SAMPLES = 25
SANITY_SEED = 7


def _sanity_check(pair):
    """Seeded spot check of the canonicalizer contracts; raises on failure."""
    rng = np.random.default_rng(SANITY_SEED)
    hs = pair.h_sample(depth=2)[:6]
    e = pair.identity
    if not pair.contains(e):
        raise PairSanityError("identity not in H for %r" % pair.name, witness=e)
    sample = [e] + [pair.random_element(rng) for _ in range(SANITY_SAMPLES)]
    for g in sample:
        r = pair.coset_rep(g)
        if pair.coset_rep(r) != r:
            raise PairSanityError(
                "right-coset canonicalizer not idempotent on %r" % pair.name,
                witness=g,
            )
        if not pair.contains(r * g.inv()):
            raise PairSanityError(
                "coset representative left its coset on %r" % pair.name,
                witness=g,
            )
        d = pair.double_rep(g)
        if pair.double_rep(d) != d:
            raise PairSanityError(
                "double-coset canonicalizer not idempotent on %r" % pair.name,
                witness=g,
            )
        if pair.double_rep(r) != d:
            raise PairSanityError(
                "right and double canonicalizers disagree on %r" % pair.name,
                witness=g,
            )
        if pair.coset_rep(d) != d:  # enumerate_ball finds ball_rights doubles by it
            raise PairSanityError("double rep is not its own coset rep on %r"
                                  % pair.name, witness=g)
        for h in hs:
            if pair.coset_rep(h * g) != r:
                raise PairSanityError(
                    "coset rep not H-left-invariant on %r" % pair.name,
                    witness=(h, g),
                )
            if pair.double_rep(h * g) != d or pair.double_rep(g * h) != d:
                raise PairSanityError(
                    "double rep not H-bi-invariant on %r" % pair.name,
                    witness=(h, g),
                )
    if pair.coset_coords is not None:
        xs = [pair.coset_rep(g) for g in sample[:6]]  # six, like hs, keep it cheap
        coords = pair.coset_coords(xs)
        for a in sample:
            want = pair.coset_coords([pair.coset_rep(a * x) for x in xs])
            if not np.array_equal(pair.coset_coords([pair.coset_rep(a)]) + coords, want):
                raise PairSanityError("coordinate translation disagrees with "
                                      "coset_rep on %r" % pair.name, witness=a)
    if pair.double_product is not None:
        # the sample's doubles of degree 2-3 keep it cheap: T(1,2) on gl2q,
        # (3, 1/3) on bost_connes
        doubles = []
        for g in sample[:6]:
            with suppress(BudgetExceededError):
                if degree(pair, g, budget=3) > 1:
                    doubles.append(pair.double_rep(g))
        for g1, g2 in product(dict.fromkeys(doubles), repeat=2):
            if pair.double_product(g1, g2) != _generic_product(pair, g1, g2):
                raise PairSanityError("closed-form double product disagrees with "
                                      "the generic count on %r" % pair.name,
                                      witness=(g1, g2))
        pair.decompose_cache.clear()


# ---------------------------------------------------------------------------
# dihedral: G = Z x| Z/2 (infinite dihedral), H = the flip subgroup of order 2.
# A Gelfand pair: the convolution algebra is commutative.


def _build_dihedral(params):
    if params:
        raise ConfigError("dihedral takes no params, got %r" % (params,))
    e = DihedralElement(0, 1)
    flip = DihedralElement(0, -1)

    def coset_rep(g):
        # Hg = {(n, eps), (-n, -eps)}; pick the one with eps = +1
        return DihedralElement(g.eps * g.n, 1)

    def double_rep(g):
        return DihedralElement(abs(g.n), 1)

    def random_element(rng):
        return DihedralElement(int(rng.integers(-30, 31)), 1 if rng.integers(2) == 0 else -1)

    def ball_rights(r):
        return [DihedralElement(m, 1) for m in range(-math.floor(r), math.floor(r) + 1)]

    return HeckePair(
        "dihedral", {}, e,
        contains=lambda g: g.n == 0,
        h_generators=(flip,),
        coset_rep=coset_rep,
        double_rep=double_rep,
        length=dihedral_abs_length(),
        h_elements=(e, flip),
        g_generators=(DihedralElement(1, 1), DihedralElement(-1, 1), flip),
        random_element=random_element,
        ball_rights=ball_rights,
        rd_status="expected",
    )


# ---------------------------------------------------------------------------
# finite_index: G = Z, H = nZ (default n = 2). Normal, so every degree is 1
# and the convolution algebra is the group algebra of Z/n.


def _build_finite_index(params):
    params = dict(params)
    n = params.pop("n", 2)
    if params:
        raise ConfigError("finite_index: unknown params %r" % (params,))
    n = int(n)
    if n < 1:
        raise ConfigError("finite_index: n must be >= 1, got %r" % n)
    e = IntegerElement(0)

    def coset_rep(g):
        return IntegerElement(g.n % n)

    def random_element(rng):
        return IntegerElement(int(rng.integers(-50, 51)))

    def ball_rights(r):
        return [IntegerElement(k) for k in range(n)] if r >= 0 else []

    # coset space is finite, so the zero length still has finite balls here
    zero = LengthFunction("zero", lambda g: 0, locally_finite=True)

    return HeckePair(
        "finite_index", {"n": n}, e,
        contains=lambda g: g.n % n == 0,
        h_generators=(IntegerElement(n), IntegerElement(-n)),
        coset_rep=coset_rep,
        double_rep=coset_rep,
        length=zero,
        h_elements=None,
        g_generators=(IntegerElement(1), IntegerElement(-1)),
        random_element=random_element,
        ball_rights=ball_rights,
        rd_status="expected",
    )


# ---------------------------------------------------------------------------
# gl2q: G = GL(2,Q) with positive determinant, H = SL(2,Z), the classical
# Hecke-operator pair; double cosets are indexed by (scale, primitive
# determinant).


def _primitive_parts(g):
    """Write g = c * P with c > 0 rational and P a primitive integer matrix."""
    rows = g.rows
    den = 1
    for row in rows:
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [[int(x * den) for x in row] for row in rows]
    c0 = 0
    for row in ints:
        for v in row:
            c0 = math.gcd(c0, abs(v))
    c = Fraction(c0, den)
    prim = tuple(tuple(Fraction(v // c0) for v in row) for row in ints)
    return c, MatrixElement(prim)


def _hnf_2x2(m):
    """Unique form [[a,b],[0,d]], a,d>0, 0<=b<d, over left SL(2,Z) action.

    Input: integer matrix with positive determinant, given as a MatrixElement.
    Uses only determinant-one row operations (shear and quarter rotation).
    """
    (a, b), (c, d) = ((int(x) for x in row) for row in m.rows)
    while c != 0:
        q = a // c
        a, b = a - q * c, b - q * d
        a, b, c, d = -c, -d, a, b
    if a < 0:
        a, b, d = -a, -b, -d
    b -= (b // d) * d
    return MatrixElement(((a, b), (0, d)))


def _hecke_local(p, k, l):
    """T(1,p^k) T(1,p^l) = sum over (i, e) of e R(p)^i T(1,p^(k+l-2i)),
    with R(p) = diag(p, p) (Shimura 1971, Thm 3.24)."""
    k, l = min(k, l), max(k, l)
    out = [(0, 1)] + [(i, (p - 1) * p ** (i - 1)) for i in range(1, k)]
    if k:
        out.append((k, p ** (k - 1) * (p + 1) if k == l else p ** k))
    return out


def _gl2q_double_product(g1, g2):
    """delta_D1 * delta_D2 for D = H diag(c, c m) H. Scalars are central and
    the product is multiplicative over primes, so each prime p of m1 m2 moves
    a term (c, m) to (c p^i, m / p^2i) with the local coefficients."""
    c1, c2 = g1.rows[0][0], g2.rows[0][0]
    m1, m2 = int(g1.rows[1][1] / c1), int(g2.rows[1][1] / c2)
    terms, p = {(c1 * c2, m1 * m2): 1}, 1
    while m1 * m2 > 1:  # trial division: each p that divides is prime
        p, k, l = p + 1, 0, 0
        while m1 % p == 0:
            m1, k = m1 // p, k + 1
        while m2 % p == 0:
            m2, l = m2 // p, l + 1
        terms = {(c * p ** i, m // p ** (2 * i)): n * e
                 for (c, m), n in terms.items() for i, e in _hecke_local(p, k, l)}
    return {DoubleCosetKey(MatrixElement(((c, 0), (0, c * m)))): n
            for (c, m), n in terms.items()}


def _build_gl2q(params):
    if params:
        raise ConfigError("gl2q takes no params, got %r" % (params,))
    e = MatrixElement(((1, 0), (0, 1)))
    S = MatrixElement(((0, -1), (1, 0)))
    T = MatrixElement(((1, 1), (0, 1)))

    def contains(g):
        return all(x.denominator == 1 for row in g.rows for x in row) and g.det() == 1

    def coset_rep(g):
        if g.det() <= 0:
            raise ConfigError("gl2q needs positive determinant, got %r" % (g,))
        c, prim = _primitive_parts(g)
        h = _hnf_2x2(prim)
        return MatrixElement(tuple(tuple(c * x for x in row) for row in h.rows))

    def double_rep(g):
        if g.det() <= 0:
            raise ConfigError("gl2q needs positive determinant, got %r" % (g,))
        c, prim = _primitive_parts(g)
        m = prim.det()
        # primitive integer matrices have coprime elementary divisors (1, m)
        return MatrixElement(((c, 0), (0, c * m)))

    def det_prim_log(g):
        _, prim = _primitive_parts(g)
        return math.log(float(prim.det()))

    pool = (
        T, T.inv(), S, S.inv(),
        MatrixElement(((1, 0), (0, 2))),
        MatrixElement(((2, 0), (0, 1))),
        MatrixElement(((1, 0), (0, 3))),
        MatrixElement(((2, 0), (0, 2))),
        MatrixElement(((Fraction(1, 2), 0), (0, Fraction(1, 2)))),
    )

    def random_element(rng):
        g = e
        for _ in range(int(rng.integers(0, 5))):
            g = g * pool[int(rng.integers(len(pool)))]
        return g

    cand = LengthFunction(
        "log-det-prim", det_prim_log, locally_finite=False, exact=False
    )

    return HeckePair(
        "gl2q", {}, e,
        contains=contains,
        h_generators=(S, S.inv(), T, T.inv()),
        coset_rep=coset_rep,
        double_rep=double_rep,
        length=None,
        candidate_lengths={"log-det-prim": cand},
        h_elements=None,
        g_generators=None,
        random_element=random_element,
        double_product=_gl2q_double_product,
        rd_status="unknown",
    )


# ---------------------------------------------------------------------------
# bost_connes: G = {x -> a x + b : a in Q>0, b in Q}, H = integer translations.
# Degrees are asymmetric: deg(a, b) is the numerator of a, the degree of the
# inverse its denominator.


def _bost_connes_double_product(g1, g2):
    """delta_D1 * delta_D2 for D_i = H(a_i, b_i)H, a_i = p_i/q_i, counted in
    ints. The right cosets of D_i are (a_i, b_i + j/q_i) for j < p_i; their
    products (a1 a2, beta), beta = b2 + k/q2 + (b1 + j/q1) a2, lie in
    H(a1 a2, gamma)H for beta = gamma mod (1/q3)Z, a1 a2 = p3/q3, and each of
    its p3 right cosets gets an equal share. Over the common denominator L
    every beta and the modulus 1/q3 are integers."""
    (p1, q1), (p2, q2) = g1.a.as_integer_ratio(), g2.a.as_integer_ratio()
    a3 = g1.a * g2.a
    b1, b2 = g1.b, g2.b
    L = math.lcm(b2.denominator, b1.denominator * q2, q1 * q2)
    mod = L // a3.denominator
    base = (b2.numerator * (L // b2.denominator)
            + b1.numerator * p2 * (L // (b1.denominator * q2)))
    sj, sk = p2 * L // (q1 * q2), L // q2
    counts = Counter((base + j * sj + k * sk) % mod
                     for j in range(p1) for k in range(p2))
    out = {}
    for r, n in counts.items():
        if n % a3.numerator:
            raise ConvolutionAuditError(
                "bost_connes count %d at %r is not a multiple of deg %d"
                % (n, (a3, Fraction(r, L)), a3.numerator))
        out[DoubleCosetKey(AxbElement(a3, Fraction(r, L)))] = n // a3.numerator
    return out


def _build_bost_connes(params):
    if params:
        raise ConfigError("bost_connes takes no params, got %r" % (params,))
    e = AxbElement(1, 0)

    def contains(g):
        return g.a == 1 and g.b.denominator == 1

    def coset_rep(g):
        # H(a,b) = {(a, b + n a)}; normalize b into [0, a)
        b = g.b - math.floor(g.b / g.a) * g.a
        return AxbElement(g.a, b)

    def double_rep(g):
        # right H-translates shift b by integers; Z + aZ = (1/q)Z for a = p/q
        q = g.a.denominator
        step = Fraction(1, q)
        b = g.b - math.floor(g.b / step) * step
        return AxbElement(g.a, b)

    a_pool = (
        Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(1, 3),
        Fraction(3, 2), Fraction(2, 3), Fraction(5, 2), Fraction(4, 3),
    )
    b_dens = (1, 2, 3, 4, 6)

    def random_element(rng):
        a = a_pool[int(rng.integers(len(a_pool)))]
        b = Fraction(int(rng.integers(-8, 9)), b_dens[int(rng.integers(len(b_dens)))])
        return AxbElement(a, b)

    cand = LengthFunction(
        "abs-log-a", lambda g: abs(math.log(float(g.a))),
        locally_finite=False, exact=False,
    )

    return HeckePair(
        "bost_connes", {}, e,
        contains=contains,
        h_generators=(AxbElement(1, 1), AxbElement(1, -1)),
        coset_rep=coset_rep,
        double_rep=double_rep,
        length=None,
        candidate_lengths={"abs-log-a": cand},
        h_elements=None,
        g_generators=None,
        random_element=random_element,
        double_product=_bost_connes_double_product,
        rd_status="unknown",
    )


# ---------------------------------------------------------------------------
# sl3: G = SL(3,Z), H = the order-two subgroup generated by a swap-flip T.
# H is not normal: conjugating T by a shear leaves H.


def _e3(i, j, v):
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rows[i][j] = v
    return MatrixElement(tuple(tuple(row) for row in rows))


_SL3_T = MatrixElement(((0, 1, 0), (1, 0, 0), (0, 0, -1)))


def _build_sl3(params):
    if params:
        raise ConfigError("sl3 takes no params, got %r" % (params,))
    e = _e3(0, 0, 1)
    T = _SL3_T

    def contains(g):
        return g == e or g == T

    def coset_rep(g):
        tg = T * g
        return g if g.key <= tg.key else tg

    def double_rep(g):
        best = g
        for x in (T * g, g * T, T * g * T):
            if x.key < best.key:
                best = x
        return best

    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                gens.append(_e3(i, j, 1))
                gens.append(_e3(i, j, -1))
    gens.append(T)

    def random_element(rng):
        g = e
        for _ in range(int(rng.integers(0, 5))):
            g = g * gens[int(rng.integers(len(gens)))]
        return g

    return HeckePair(
        "sl3", {}, e,
        contains=contains,
        h_generators=(T,),
        coset_rep=coset_rep,
        double_rep=double_rep,
        length=None,
        h_elements=(e, T),
        g_generators=tuple(gens),
        random_element=random_element,
        rd_status="non-example",
    )


# ---------------------------------------------------------------------------
# semidirect: G = Z^rank x| Z/2 for an order-two coordinate action.


def _l1_shell(rank, m):
    """Integer vectors with |v|_1 = m, in ascending lexicographic order."""
    if rank == 1:
        return [(0,)] if m == 0 else [(-m,), (m,)]
    out = []
    for first in range(-m, m + 1):
        for rest in _l1_shell(rank - 1, m - abs(first)):
            out.append((first,) + rest)
    return out


def _build_semidirect(params):
    params = dict(params)
    rank = int(params.pop("rank", 2))
    action = params.pop("action", "swap")
    if params:
        raise ConfigError("semidirect: unknown params %r" % (params,))
    if rank < 1:
        raise ConfigError("semidirect: rank must be >= 1, got %r" % rank)
    e = SemidirectElement((0,) * rank, 0, action)
    flip = SemidirectElement((0,) * rank, 1, action)

    def alpha(v):
        return tuple(-x for x in v) if action == "negate" else tuple(reversed(v))

    def coset_rep(g):
        return SemidirectElement(g.vec if g.flip == 0 else alpha(g.vec), 0, action)

    def double_rep(g):
        v = g.vec if g.flip == 0 else alpha(g.vec)
        return SemidirectElement(min(v, alpha(v)), 0, action)

    def random_element(rng):
        v = tuple(int(x) for x in rng.integers(-6, 7, size=rank))
        return SemidirectElement(v, int(rng.integers(2)), action)

    def coset_coords(reps):
        # every canonical rep has flip 0, so its vector is its coordinate;
        # (v, s)(w, 0) = (v + alpha^s w, s) has canonical rep alpha^s(v) + w
        return np.array([g.vec for g in reps], dtype=np.int64).reshape(-1, rank)

    def ball_rights(r):
        return [SemidirectElement(v, 0, action)
                for m in range(math.floor(r) + 1) for v in _l1_shell(rank, m)]

    gens = [flip]
    for i in range(rank):
        for sgn in (1, -1):
            v = [0] * rank
            v[i] = sgn
            gens.append(SemidirectElement(tuple(v), 0, action))

    return HeckePair(
        "semidirect", {"rank": rank, "action": action}, e,
        contains=lambda g: all(x == 0 for x in g.vec),
        h_generators=(flip,),
        coset_rep=coset_rep,
        double_rep=double_rep,
        length=coordinate_sum_length(),
        h_elements=(e, flip),
        g_generators=tuple(gens),
        random_element=random_element,
        ball_rights=ball_rights,
        coset_coords=coset_coords,
        rd_status="expected",
    )


_BUILDERS = {
    "dihedral": _build_dihedral,
    "finite_index": _build_finite_index,
    "gl2q": _build_gl2q,
    "bost_connes": _build_bost_connes,
    "sl3": _build_sl3,
    "semidirect": _build_semidirect,
}

_DESCRIPTIONS = {
    "dihedral": "infinite dihedral group over its flip subgroup",
    "finite_index": "integers over an index-n subgroup (param n, default 2)",
    "gl2q": "positive-determinant rational 2x2 matrices over SL(2,Z)",
    "bost_connes": "rational ax+b maps over integer translations",
    "sl3": "SL(3,Z) over an order-two non-normal subgroup",
    "semidirect": "Z^rank with an order-two action (params rank, action)",
}


def catalog_list():
    """Descriptors for every built-in pair (builds each with default params)."""
    out = []
    for name in sorted(_BUILDERS):
        pair = build_pair(name)
        out.append({
            "name": name,
            "description": _DESCRIPTIONS[name],
            "rd_status": pair.rd_status,
            "length": pair.length.name if pair.length is not None else None,
            "candidate_lengths": sorted(pair.candidate_lengths),
            "h_finite": pair.h_elements is not None,
            "params": pair.params,
        })
    return out


def build_pair(name, params=None):
    """Construct a catalog pair and run its seeded sanity sample."""
    if name not in _BUILDERS:
        raise ConfigError(
            "unknown pair %r (catalog: %s)" % (name, ", ".join(sorted(_BUILDERS)))
        )
    pair = _BUILDERS[name](params or {})
    _sanity_check(pair)
    return pair
