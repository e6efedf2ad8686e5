"""Coset keys, double-coset decomposition, degrees, and length balls."""

from bisect import bisect_right
from itertools import chain, islice

from .errors import UnsupportedLengthError
from .groups import walk_layers


class CosetKey:
    """Canonical key of a right coset Hg.

    Wraps the canonical representative element; equality and hashing ignore
    the cached length, so keys with and without lengths interoperate.
    """

    __slots__ = ("rep", "length")
    kind = "right"

    def __init__(self, rep, length=None):
        self.rep = rep
        self.length = length

    @property
    def key(self):
        return self.rep.key

    def __eq__(self, other):
        return type(other) is type(self) and self.rep == other.rep

    def __hash__(self):
        return hash((self.kind, self.rep))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.rep.key)


class DoubleCosetKey(CosetKey):
    """Canonical key of a double coset HgH.

    Convolution probes the same few double keys over and over, so the hash
    is cached on first use; right keys, the bulk of every ball, do not cache.
    """

    __slots__ = ("_hash",)
    kind = "double"

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.kind, self.rep))
            return self._hash


def coset_key(pair, g):
    return CosetKey(pair.coset_rep(g))


def double_key(pair, g):
    return DoubleCosetKey(pair.double_rep(g))


def decompose_double_coset(pair, g, budget=10 ** 6):
    """The right cosets inside HgH, as a sorted tuple of CosetKeys.

    Orbit closure of the coset of g under right multiplication by generators
    of H. Almost-normality makes the orbit finite; the budget turns a
    divergent orbit into a diagnosable error instead of a hang, and binds a
    cached orbit as it binds a cold one.
    """
    drep = pair.double_rep(g)
    hit = pair.decompose_cache.get(drep)
    if hit is None:
        layers = walk_layers(
            pair.coset_rep(drep),
            lambda x: [pair.coset_rep(x * s) for s in pair.h_generators],
            budget, "double coset of %r" % (g,),
        )
        reps = sorted(chain.from_iterable(layers), key=lambda r: r.key)
        hit = pair.decompose_cache[drep] = tuple(CosetKey(rep) for rep in reps)
    elif len(hit) > budget:
        # replay the cached orbit through the walk, so that a budget it
        # overflows raises the error a cold walk raises: same message and
        # partial_size, budgets below 1 included
        list(walk_layers(hit[0], lambda x: hit, budget, "double coset of %r" % (g,)))
    return hit


def degree(pair, g, budget=10 ** 6):
    """Number of right cosets in HgH; 1 iff HgH = Hg."""
    return len(decompose_double_coset(pair, g, budget=budget))


class BallIndex:
    """Ordered set of coset keys of length <= radius.

    Keys are sorted by (length, canonical key); a smaller ball over the same
    length is always a prefix of a larger one, which `prefix` exploits. The
    rep -> index map and the length list are built on first read, and the
    int64 coordinate rows on the first `coords` call; a slice reads its rows
    as a view of the rows of the ball it was cut from.
    """

    def __init__(self, radius, keys, ordered=False):
        # ordered: keys are a slice of a BallIndex of at least this radius,
        # so already sorted and checked
        if not ordered:
            keys = sorted(keys, key=lambda k: (k.length, k.key))
            for k in keys:
                if k.length is None:
                    raise ValueError("BallIndex keys need lengths")
                if k.length > radius:
                    raise ValueError(
                        "key %r has length %r beyond radius %r" % (k, k.length, radius)
                    )
        self.radius = radius
        self.keys = tuple(keys)
        self._slot_map = None
        self._lengths = None
        self._coords = None
        self._source = None  # (ball, start) of a slice

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)

    @property
    def _slots(self):
        if self._slot_map is None:
            self._slot_map = {k.rep: i for i, k in enumerate(self.keys)}
        return self._slot_map

    @property
    def _length_list(self):
        if self._lengths is None:
            self._lengths = [k.length for k in self.keys]
        return self._lengths

    def coords(self, coset_coords):
        """int64 rows `coset_coords` gives the keys, computed once per ball."""
        if self._coords is None:
            if self._source is None:
                self._coords = coset_coords([k.rep for k in self.keys])
            else:
                ball, start = self._source
                self._coords = ball.coords(coset_coords)[start:start + len(self.keys)]
        return self._coords

    def slice(self, start, stop, radius):
        """keys[start:stop] as a ball of the given radius, sharing coordinates."""
        out = BallIndex(radius, self.keys[start:stop], ordered=True)
        out._source = (self, start)
        return out

    def prefix(self, radius):
        """The sub-ball of keys with length <= radius (prefix of this order)."""
        return self.slice(0, bisect_right(self._length_list, radius), radius)


class PairBall:
    """A right-coset ball and the matching double-coset ball.

    The double ball is built on first read, as the right keys that are their
    own double rep: the codomain balls of scans and brackets never read
    theirs. The ball keeps the pair's `double_rep`, not the pair, whose
    `ball_cache` holds the ball: that cycle would keep a finished command's
    caches alive until the cyclic collector runs, which shows in peak memory.
    """

    __slots__ = ("right", "_double", "_double_rep")

    def __init__(self, double_rep, right):
        self._double_rep = double_rep
        self.right = right
        self._double = None

    @property
    def double(self):
        if self._double is None:
            # the length is H-bi-invariant, so the ball holds HgH iff it
            # holds double_rep(g), a coset rep by _sanity_check
            self._double = BallIndex(self.right.radius, [
                DoubleCosetKey(k.rep, k.length) for k in self.right
                if self._double_rep(k.rep) == k.rep])
        return self._double


def require_length(pair, length=None):
    """The given length, else the pair's own; raises when neither exists."""
    length = length or pair.length
    if length is None:
        raise UnsupportedLengthError("pair %r has no length" % pair.name)
    return length


def has_ball(pair, length):
    """Whether `length` has balls on `pair`: it is the pair's own length and
    the pair reads its balls from the closed form `ball_rights`."""
    return (pair.ball_rights is not None and pair.length is not None
            and length.name == pair.length.name)


def enumerate_ball(pair, length, radius):
    """All right cosets of length <= radius, with the double cosets among them.

    length=None uses the pair's attached length, the only one with balls
    (`has_ball`); the right ball is the closed form `ball_rights`. A radius
    below one already cached is the `prefix` of the smallest cached ball
    above it, so a caller that asks for its largest ball first builds only
    that one.
    """
    length = require_length(pair, length)
    if not has_ball(pair, length):
        raise UnsupportedLengthError(
            "no ball enumeration for length %r on pair %r" % (length.name, pair.name)
        )
    hit = pair.ball_cache.get(radius)
    if hit is None:
        above = [r for r in pair.ball_cache if r > radius]
        if above:
            right = pair.ball_cache[min(above)].right.prefix(radius)
        else:
            right = BallIndex(radius, [CosetKey(rep, length(rep))
                                       for rep in pair.ball_rights(radius)])
        hit = pair.ball_cache[radius] = PairBall(pair.double_rep, right)
    return hit


REACHABLE_BUDGET = 10 ** 6  # nodes each walk of reachable_coset_ball may visit


def reachable_coset_ball(pair, directions, depth):
    """Right cosets reachable from H in <= depth convolution steps.

    `directions` is an iterable of double-coset keys; one step from coset Hx
    reaches the cosets {H a x : a in rights(D)} for each direction D. The
    reported "length" of a key is its discovery depth, which gives a
    monotone exhaustion usable when no locally finite length exists.
    """
    decs = [decompose_double_coset(pair, d.rep, budget=REACHABLE_BUDGET)
            for d in directions]
    layers = walk_layers(
        pair.coset_rep(pair.identity),
        lambda x: [pair.coset_rep(a.rep * x) for dec in decs for a in dec],
        REACHABLE_BUDGET, "reachable set",
    )
    keys = [
        CosetKey(rep, level)
        for level, layer in enumerate(islice(layers, depth + 1))
        for rep in layer
    ]
    return BallIndex(depth, keys)
