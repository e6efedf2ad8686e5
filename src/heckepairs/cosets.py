"""Coset keys, double-coset decomposition, degrees, and length balls."""

import math
from bisect import bisect_right
from itertools import chain, islice

from .errors import UnsupportedLengthError
from .groups import walk_layers, word_layers


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
    divergent orbit into a diagnosable error instead of a hang.
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
    return hit


def degree(pair, g, budget=10 ** 6):
    """Number of right cosets in HgH; 1 iff HgH = Hg."""
    return len(decompose_double_coset(pair, g, budget=budget))


class BallIndex:
    """Ordered set of coset keys of length <= radius.

    Keys are sorted by (length, canonical key); a smaller ball over the same
    length is always a prefix of a larger one, which `prefix` exploits.
    """

    def __init__(self, radius, keys):
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
        self._slots = {k.rep: i for i, k in enumerate(self.keys)}
        self._length_list = [k.length for k in self.keys]

    def __len__(self):
        return len(self.keys)

    def __iter__(self):
        return iter(self.keys)

    def prefix(self, radius):
        """The sub-ball of keys with length <= radius (prefix of this order)."""
        cut = bisect_right(self._length_list, radius)
        return BallIndex(radius, self.keys[:cut])


class PairBall:
    """A double-coset ball and the matching right-coset ball."""

    __slots__ = ("double", "right")

    def __init__(self, double, right):
        self.double = double
        self.right = right


def enumerate_ball(pair, length, radius, budget=10 ** 6):
    """All double cosets of length <= radius plus the parallel right ball.

    length=None uses the pair's attached length. A closed-form right ball
    (`ball_rights`) gives the doubles as its keys that are their own double
    rep; otherwise a word length's ball of the whole group, walked in the
    length's own generators, is projected (the induced double-coset length
    is the minimum word length over the double coset, which is
    H-bi-invariant by construction).
    """
    if length is None:
        length = pair.length
    if length is None:
        raise UnsupportedLengthError(
            "pair %r has no length; pass one explicitly" % pair.name
        )
    # every word length is named "word"; its generators tell them apart
    cache_key = (length.name, length.gens, radius)
    hit = pair.ball_cache.get(cache_key)
    if hit is not None:
        return hit

    if (
        pair.ball_rights is not None
        and pair.length is not None
        and length.name == pair.length.name
    ):
        # the length is H-bi-invariant, so the ball holds HgH iff it holds
        # double_rep(g), a coset rep by _sanity_check
        rights = [CosetKey(rep, length(rep)) for rep in pair.ball_rights(radius)]
        doubles = [DoubleCosetKey(k.rep, k.length) for k in rights
                   if pair.double_rep(k.rep) == k.rep]
    elif length.gens is not None:
        # layer r of the word walk is word length r, so length() is not called
        dlen = {}
        count = max(0, math.floor(radius) + 1)  # layers 0..floor(radius)
        for r, layer in enumerate(islice(word_layers(length.gens, budget), count)):
            for g in layer:
                dlen.setdefault(pair.double_rep(g), r)
        doubles = [DoubleCosetKey(rep, l) for rep, l in dlen.items()]
        rights = []
        for d in doubles:
            for ck in decompose_double_coset(pair, d.rep, budget=budget):
                rights.append(CosetKey(ck.rep, d.length))
    else:
        raise UnsupportedLengthError(
            "no ball enumeration for length %r on pair %r" % (length.name, pair.name)
        )

    ball = PairBall(BallIndex(radius, doubles), BallIndex(radius, rights))
    pair.ball_cache[cache_key] = ball
    return ball


def reachable_coset_ball(pair, directions, depth, budget=10 ** 6):
    """Right cosets reachable from H in <= depth convolution steps.

    `directions` is an iterable of double-coset keys (or elements); one step
    from coset Hx reaches the cosets {H a x : a in rights(D)} for each
    direction D. The reported "length" of a key is its discovery depth, which
    gives a monotone exhaustion usable when no locally finite length exists.
    """
    decs = []
    for d in directions:
        g = d.rep if isinstance(d, CosetKey) else d
        decs.append(decompose_double_coset(pair, g, budget=budget))
    layers = walk_layers(
        pair.coset_rep(pair.identity),
        lambda x: [pair.coset_rep(a.rep * x) for dec in decs for a in dec],
        budget, "reachable set",
    )
    keys = [
        CosetKey(rep, level)
        for level, layer in enumerate(islice(layers, depth + 1))
        for rep in layer
    ]
    return BallIndex(depth, keys)
