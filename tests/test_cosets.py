"""Coset keys, double coset decomposition, and ball indices."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from heckepairs import (
    ActionTable,
    AxbElement,
    BallIndex,
    BudgetExceededError,
    CosetKey,
    DoubleCosetKey,
    DihedralElement,
    HeckeElement,
    IntegerElement,
    MatrixElement,
    SemidirectElement,
    UnsupportedLengthError,
    build_pair,
    corner_seminorm,
    coset_key,
    decompose_double_coset,
    degree,
    degree_growth_fit,
    double_key,
    enumerate_ball,
    haagerup_scan_exact,
    jolissaint_seminorm,
    norm_lower,
    reachable_coset_ball,
    spawn_rng,
)
from heckepairs import cosets
from heckepairs.jolissaint import _window


# every public entry point that falls back on the pair's own length
_LENGTH_CONSUMERS = {
    "enumerate_ball": lambda pair, f, g: enumerate_ball(pair, None, 2),
    "degree_growth_fit": lambda pair, f, g: degree_growth_fit(pair, radius=2),
    "degree_growth_fit:elements":
        lambda pair, f, g: degree_growth_fit(pair, elements=[g]),
    "haagerup_scan_exact":
        lambda pair, f, g: haagerup_scan_exact(pair, radii=(2,), samples=2, seed=0),
    "corner_seminorm": lambda pair, f, g: corner_seminorm(pair, f, 4),
    "jolissaint_seminorm": lambda pair, f, g: jolissaint_seminorm(pair, f),
    "HeckePair.validate_length": lambda pair, f, g: pair.validate_length(),
}


# a box of group elements that holds every coset of length <= b - 1 of each
# pair with a ball_rights hook, with room to spare
_BOXES = {
    "dihedral": lambda pair, b: [DihedralElement(n, eps) for n in range(-b, b + 1)
                                 for eps in (1, -1)],
    "finite_index": lambda pair, b: [IntegerElement(k) for k in
                                     range(-b * pair.params["n"], b * pair.params["n"] + 1)],
    "semidirect": lambda pair, b: [
        SemidirectElement(v, s, pair.params["action"])
        for v in product(range(-b, b + 1), repeat=pair.params["rank"]) for s in (0, 1)],
}

# every pair with a ball_rights hook, over the params that change its ball
_BALL_PAIRS = [
    ("dihedral", {}), ("finite_index", {"n": 2}), ("finite_index", {"n": 5}),
] + [("semidirect", {"rank": rank, "action": action})
     for action in ("swap", "negate") for rank in (1, 2, 3)]


def brute_double_coset_keys(pair, g):
    """Oracle: sweep h1 * g * h2 over the stored finite H and collect the
    distinct right coset keys."""
    keys = set()
    for h1 in pair.h_elements:
        for h2 in pair.h_elements:
            keys.add(coset_key(pair, h1 * g * h2))
    return keys


class TestDecompose:
    def test_dihedral_matches_brute_force(self, dihedral):
        rng = spawn_rng(1, 0)
        for _ in range(50):
            g = DihedralElement(int(rng.integers(-10, 11)), 1 if rng.integers(2) else -1)
            got = set(decompose_double_coset(dihedral, g))
            assert got == brute_double_coset_keys(dihedral, g)

    def test_budget_one_overflows_at_the_second_coset(self):
        # a fresh pair, so no cached decomposition answers before the walk
        pair = build_pair("dihedral")
        with pytest.raises(BudgetExceededError) as exc:
            decompose_double_coset(pair, DihedralElement(3, 1), budget=1)
        assert exc.value.partial_size == 2
        assert "budget 1" in str(exc.value)

    @pytest.mark.parametrize("budget", [0, 1, 2])
    def test_budget_binds_a_cached_orbit_as_a_cold_one(self, budget):
        # HgH holds two right cosets: budgets 0 and 1 overflow at the second,
        # with or without a decomposition already in the cache
        g = DihedralElement(1, 1)

        def outcome(warm):
            pair = build_pair("dihedral")
            if warm:
                degree(pair, g)
            try:
                return degree(pair, g, budget=budget)
            except BudgetExceededError as exc:
                return str(exc), exc.partial_size

        want = 2 if budget == 2 else (
            "double coset of %r exceeded budget %d" % (g, budget), 2)
        assert outcome(warm=False) == want
        assert outcome(warm=True) == want

    def test_dihedral_translation_splits_in_two(self, dihedral):
        dec = decompose_double_coset(dihedral, DihedralElement(3, 1))
        assert {k.key for k in dec} == {(3, 1), (-3, 1)}

    def test_degree_equals_decomposition_size(self, pairs):
        probes = {
            "dihedral": [DihedralElement(4, -1)],
            "finite_index": [],
            "semidirect": [],
            "gl2q": [
                MatrixElement(((1, 0), (0, 2))),
                MatrixElement(((1, 0), (0, 6))),
                MatrixElement(((2, 0), (0, 2))),
            ],
            "bost_connes": [
                AxbElement(Fraction(3, 2), 0),
                AxbElement(Fraction(2, 3), Fraction(1, 2)),
            ],
            "sl3": [MatrixElement(((1, 1, 0), (0, 1, 0), (0, 0, 1)))],
        }
        for name, pair in pairs.items():
            for g in probes[name]:
                dec = decompose_double_coset(pair, g)
                assert degree(pair, g) == len(dec), (name, g)

    def test_identity_coset_is_single(self, pairs):
        for pair in pairs.values():
            dec = decompose_double_coset(pair, pair.identity)
            assert len(dec) == 1


class TestKeys:
    def test_coset_key_constant_on_right_coset(self, dihedral):
        g = DihedralElement(5, -1)
        for h in dihedral.h_elements:
            assert coset_key(dihedral, h * g) == coset_key(dihedral, g)

    def test_double_key_constant_on_double_coset(self, dihedral):
        g = DihedralElement(5, -1)
        for h1 in dihedral.h_elements:
            for h2 in dihedral.h_elements:
                assert double_key(dihedral, h1 * g * h2) == double_key(dihedral, g)

    def test_key_carries_length_when_given(self, dihedral):
        rep = dihedral.coset_rep(DihedralElement(-2, 1))
        k = CosetKey(rep, dihedral.length(rep))
        assert k.length == 2
        assert coset_key(dihedral, DihedralElement(-2, 1)).length is None

    def test_keys_hashable_and_distinct(self, dihedral):
        a = coset_key(dihedral, DihedralElement(1, 1))
        b = coset_key(dihedral, DihedralElement(2, 1))
        assert a != b and len({a, b, a}) == 2

    @pytest.mark.parametrize("rep", [DihedralElement(3, 1),
                                     AxbElement(Fraction(3, 2), Fraction(1, 4))],
                             ids=["dihedral", "axb"])
    def test_double_key_hash_is_cached_and_unchanged(self, rep):
        # the cached hash is the tuple hash it replaces, before and after
        # first use; right keys keep their two slots and no cache
        d = DoubleCosetKey(rep)
        first, cached = hash(d), hash(d)
        assert first == cached == hash(("double", rep))
        assert hash(DoubleCosetKey(rep, 4)) == hash(d)
        r = CosetKey(rep)
        assert r != d and d != r
        table = {r: "right", d: "double"}
        assert len(table) == 2
        assert (table[CosetKey(rep)], table[DoubleCosetKey(rep)]) == ("right", "double")
        assert CosetKey.__slots__ == ("rep", "length")


class TestEnumerateBall:
    def test_dihedral_radius_five_counts(self, dihedral):
        ball = enumerate_ball(dihedral, dihedral.length, 5)
        # doubles are sigma_0..sigma_5; rights are H(n,1) for n in -5..5
        assert len(ball.double.keys) == 6
        assert len(ball.right.keys) == 11
        assert [k.length for k in ball.double.keys] == [0, 1, 2, 3, 4, 5]

    def test_rights_sorted_by_length_then_key(self, dihedral):
        ball = enumerate_ball(dihedral, dihedral.length, 5).right
        pairs_ = [(k.length, k.key) for k in ball.keys]
        assert pairs_ == sorted(pairs_)

    def test_finite_index_ball_is_radius_independent(self, finite_index):
        small = enumerate_ball(finite_index, finite_index.length, 0)
        big = enumerate_ball(finite_index, finite_index.length, 9)
        assert [k.key for k in small.right.keys] == [k.key for k in big.right.keys]
        assert len(small.right.keys) == 2

    def test_semidirect_counts_match_lattice_oracle(self, semidirect):
        ball = enumerate_ball(semidirect, semidirect.length, 3)
        # right cosets biject with lattice points: H(v, f) contains exactly
        # one flip-0 element, so count |v1|+|v2| <= 3
        expect = sum(
            1
            for x in range(-3, 4)
            for y in range(-3, 4)
            if abs(x) + abs(y) <= 3
        )
        assert len(ball.right.keys) == expect

    def test_missing_length_raises(self, gl2q):
        with pytest.raises(UnsupportedLengthError):
            enumerate_ball(gl2q, gl2q.length, 2)

    @pytest.mark.parametrize("name", sorted(_LENGTH_CONSUMERS))
    def test_every_length_consumer_refuses_a_lengthless_pair(self, gl2q, name):
        # require_length is the one place a missing length is refused, so
        # every consumer raises the same error with the same message
        t2 = MatrixElement(((1, 0), (0, 2)))
        f = HeckeElement(gl2q, [(double_key(gl2q, t2), 1)])
        with pytest.raises(UnsupportedLengthError, match="^pair 'gl2q' has no length$"):
            _LENGTH_CONSUMERS[name](gl2q, f, t2)

    @pytest.mark.parametrize("name, params", _BALL_PAIRS)
    def test_ball_rights_match_a_brute_force_sweep(self, name, params):
        # oracle without enumerate_ball or ball_rights: every element of a box
        # holding the ball, through coset_rep, kept where its length is at
        # most r; the ball must list exactly those cosets, in (length, key)
        # order, each with the length of its elements
        pair = build_pair(name, params)
        for radius in range(7):
            want = {}
            for g in _BOXES[name](pair, radius + 1):
                L = pair.length(g)
                if L <= radius:
                    assert want.setdefault(pair.coset_rep(g).key, L) == L
            got = [(k.key, k.length) for k in enumerate_ball(pair, None, radius).right]
            assert got == sorted(want.items(), key=lambda kv: (kv[1], kv[0]))

    @pytest.mark.parametrize("name, params", _BALL_PAIRS)
    def test_double_ball_is_the_image_of_the_right_ball(self, name, params):
        # oracle: a bi-invariant length is constant on HgH, so HgH lies in
        # the ball iff its right cosets do; the double ball is the set of
        # double reps of the right ball's keys, each with that key's length
        pair = build_pair(name, params)
        for radius in (-1, 0, Fraction(1, 2), 1, 2, 5, 13):
            ball = enumerate_ball(pair, None, radius)
            want = {}
            for k in ball.right:
                assert want.setdefault(pair.double_rep(k.rep), k.length) == k.length
            assert bool(want) == (radius >= 0)
            assert len(ball.double) == len(want)
            assert {d.rep: d.length for d in ball.double} == want


    def test_double_ball_is_built_on_first_read(self):
        pair = build_pair("semidirect")
        calls = []
        double_rep = pair.double_rep
        pair.double_rep = lambda g: calls.append(g) or double_rep(g)
        ball = enumerate_ball(pair, None, 5)
        assert calls == []
        first = ball.double
        assert len(calls) == len(ball.right) == 61
        assert ball.double is first and len(calls) == 61
        assert [(k.length, k.key) for k in first] == [
            (k.length, k.key) for k in ball.right if double_rep(k.rep) == k.rep]

    def test_codomain_double_balls_stay_unbuilt(self):
        # scans, brackets and corner seminorms act on right-coset balls; only
        # the scan's support balls (and its degree fit) need their doubles
        pair = build_pair("semidirect")
        haagerup_scan_exact(pair, radii=(1, 2), samples=3, seed=0)
        f = HeckeElement.delta(pair, SemidirectElement((2, 1), 0, "swap"))
        norm_lower(pair, f, radius=4)
        jolissaint_seminorm(pair, f)
        # the ball cache is keyed on the radius alone
        built = sorted(radius for radius, ball in pair.ball_cache.items()
                       if ball._double is not None)
        assert built == [1, 2]
        # the scan's codomains (6r), the bracket's codomain (its domain is a
        # prefix of it), the corner seminorm's ball
        assert sorted(pair.ball_cache) == [1, 2, 6, 7, 11, 12]

    @pytest.mark.parametrize("name, params", [
        ("dihedral", {}), ("finite_index", {"n": 2}),
        ("semidirect", {"rank": 2, "action": "swap"}),
        ("semidirect", {"rank": 3, "action": "negate"}),
    ])
    def test_smaller_radius_is_a_prefix_of_a_cached_ball(self, name, params):
        pair = build_pair(name, params)
        calls = []
        rights = pair.ball_rights
        pair.ball_rights = lambda radius: calls.append(radius) or rights(radius)
        big = enumerate_ball(pair, None, 9).right
        # each radius below 9 cuts the smallest cached ball above it
        for radius in (6, 0, 2, Fraction(7, 2)):
            got = enumerate_ball(pair, None, radius)
            assert enumerate_ball(pair, None, radius) is got
            want = enumerate_ball(build_pair(name, params), None, radius)
            assert got.right.radius == want.right.radius == radius
            for side in ("right", "double"):
                assert [(k.length, k.key) for k in getattr(got, side)] == [
                    (k.length, k.key) for k in getattr(want, side)]
            assert got.right._length_list == want.right._length_list
            if pair.coset_coords is not None:
                rows = got.right.coords(pair.coset_coords)
                assert np.shares_memory(rows, big.coords(pair.coset_coords)) or not len(rows)
                assert np.array_equal(rows, want.right.coords(pair.coset_coords))
        assert calls == [9]
        enumerate_ball(pair, None, 12)  # nothing cached above 12
        assert calls == [9, 12]

    @pytest.mark.parametrize("name, radii", [("dihedral", (1, 2, 4)),
                                             ("semidirect", (0, 2, 3))])
    def test_scan_builds_one_ball(self, name, radii):
        pair = build_pair(name)
        calls = []
        rights = pair.ball_rights
        pair.ball_rights = lambda radius: calls.append(radius) or rights(radius)
        haagerup_scan_exact(pair, radii=radii, samples=3, seed=0)
        # its largest codomain, K_FACTOR_CHAR + 1 = 6 times its largest radius
        assert calls == [6 * radii[-1]]


class TestBallIndex:
    @pytest.mark.parametrize("name", ["dihedral", "semidirect"])
    def test_prefix_equals_a_fresh_index(self, pairs, name):
        # prefix slices the sorted keys without sorting or checking them
        # again; it must give what a fresh index of the same keys gives
        ball = enumerate_ball(pairs[name], None, 6).right
        for radius in (-1, 0, Fraction(1, 2), 1, 3, 6):
            got = ball.prefix(radius)
            want = BallIndex(radius, [k for k in ball if k.length <= radius])
            assert got.radius == want.radius == radius
            assert [(k.length, k.key) for k in got] == [(k.length, k.key) for k in want]
            assert got._slots == want._slots
            assert got._length_list == want._length_list

    @pytest.mark.parametrize("params", [{"rank": 2, "action": "swap"},
                                        {"rank": 3, "action": "negate"}])
    def test_slices_read_the_ball_coordinate_rows(self, params):
        # a prefix or a corner window reads its rows as a view of its ball's,
        # and those rows are what coset_coords gives its keys
        pair = build_pair("semidirect", params)
        hook = pair.coset_coords
        ball = enumerate_ball(pair, None, 6).right
        f = HeckeElement.delta(pair, SemidirectElement((1, 1) + (0,) * (params["rank"] - 2),
                                                       0, params["action"]))
        table = ActionTable(pair, f.support, ball.prefix(4), ball)
        # the grid path needs no slot map
        assert ball._slot_map is None and table.domain._slot_map is None
        rows = ball.coords(hook)
        assert rows is ball.coords(hook)
        window = _window(ball, Fraction(2), 5, Fraction(1, 2), shift=Fraction(1))
        for piece in (table.domain, ball.prefix(Fraction(7, 2)), window,
                      window.prefix(3), ball.prefix(-1)):
            got = piece.coords(hook)
            assert np.shares_memory(got, rows) or len(piece) == 0
            assert np.array_equal(got, hook([k.rep for k in piece]).reshape(got.shape))

    def test_prefix_select_shell(self, dihedral):
        # the shell of length 2 is what prefix(2) adds to prefix(1)
        ball = enumerate_ball(dihedral, dihedral.length, 5).right
        assert len(ball.prefix(2)) == 5
        shell = ball.prefix(2).keys[len(ball.prefix(1)):]
        assert [k.key for k in shell] == [(-2, 1), (2, 1)]

    def test_prefix_extremes(self, dihedral):
        ball = enumerate_ball(dihedral, dihedral.length, 5).right
        assert len(ball.prefix(-1)) == 0
        assert len(ball.prefix(5)) == len(ball.keys)

    def test_rejects_keys_without_length(self, dihedral):
        bare = coset_key(dihedral, DihedralElement(1, 1))
        with pytest.raises(ValueError):
            BallIndex(3, [bare])


class TestReachable:
    def test_dihedral_depth_three(self, dihedral):
        dk = double_key(dihedral, DihedralElement(1, 1))
        idx = reachable_coset_ball(dihedral, [dk], 3)
        assert len(idx.keys) == 7
        assert {k.key for k in idx.keys} == {(n, 1) for n in range(-3, 4)}

    def test_works_without_length(self, bost_connes):
        g = AxbElement(Fraction(3, 2), 0)
        idx = reachable_coset_ball(bost_connes, [double_key(bost_connes, g)], 2)
        assert coset_key(bost_connes, bost_connes.identity) in set(idx.keys)
        assert len(idx.keys) >= 3

    def test_depth_zero_is_base_coset(self, dihedral):
        dk = double_key(dihedral, DihedralElement(1, 1))
        idx = reachable_coset_ball(dihedral, [dk], 0)
        assert [k.key for k in idx.keys] == [(0, 1)]

    def test_budget_below_depth_three_set_raises(self, dihedral, monkeypatch):
        # the depth-3 set holds 7 cosets
        monkeypatch.setattr(cosets, "REACHABLE_BUDGET", 6)
        dk = double_key(dihedral, DihedralElement(1, 1))
        with pytest.raises(BudgetExceededError) as exc:
            reachable_coset_ball(dihedral, [dk], 3)
        assert "budget 6" in str(exc.value)

    @pytest.mark.parametrize("name, direction", [
        ("dihedral", DihedralElement(1, 1)),
        ("bost_connes", AxbElement(Fraction(3, 2), 0)),
    ])
    def test_prefix_of_deeper_walk_is_the_shallower_walk(self, pairs, name, direction):
        # norm_lower takes its domain as this prefix of its codomain
        pair = pairs[name]
        dk = double_key(pair, direction)
        for r in range(4):
            deeper = reachable_coset_ball(pair, [dk], r + 1).prefix(r)
            direct = reachable_coset_ball(pair, [dk], r)
            assert [(k.key, k.length) for k in deeper.keys] == \
                [(k.key, k.length) for k in direct.keys]
