"""Coset keys, double coset decomposition, and ball indices."""

from fractions import Fraction

import pytest

from heckepairs import (
    AxbElement,
    BallIndex,
    BudgetExceededError,
    CosetKey,
    DoubleCosetKey,
    DihedralElement,
    MatrixElement,
    UnsupportedLengthError,
    coset_key,
    decompose_double_coset,
    degree,
    double_key,
    build_pair,
    enumerate_ball,
    reachable_coset_ball,
    spawn_rng,
    word_length,
)


FLIP = DihedralElement(0, -1)


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

    def test_word_ball_agrees_with_closed_form(self, dihedral):
        # min word length over a double coset is |n|, so the projected word
        # ball must reproduce the closed-form ball key for key
        wl = word_length(dihedral.g_generators)
        via_word = enumerate_ball(dihedral, wl, 3)
        direct = enumerate_ball(dihedral, dihedral.length, 3)
        assert [k.key for k in via_word.right.keys] == [k.key for k in direct.right.keys]
        assert [k.length for k in via_word.double.keys] == [0, 1, 2, 3]

    def test_budget_enforced_on_word_path(self, dihedral):
        wl = word_length(dihedral.g_generators)
        with pytest.raises(BudgetExceededError):
            enumerate_ball(dihedral, wl, 100, budget=30)

    def test_word_ball_walks_the_lengths_own_generators(self, dihedral):
        # with a translation by 2 among the generators, four letters reach
        # |n| = 8, so the radius-4 ball holds sigma_0..sigma_8
        wl = word_length([DihedralElement(2, 1), DihedralElement(1, 1), FLIP])
        ball = enumerate_ball(dihedral, wl, 4)
        assert [k.rep.n for k in ball.double.keys] == list(range(9))
        assert [k.length for k in ball.double.keys] == [0, 1, 1, 2, 2, 3, 3, 4, 4]

    @pytest.mark.parametrize("first_long", [False, True])
    def test_word_lengths_get_their_own_balls(self, first_long):
        # both lengths are named "word"; a cache keyed on the name alone
        # hands the second one the first one's ball. A fresh pair per order
        # keeps the session-wide pair's caches out of it.
        pair = build_pair("dihedral")
        short = word_length(pair.g_generators)
        long_ = word_length([DihedralElement(2, 1), DihedralElement(1, 1), FLIP])
        order = [long_, short] if first_long else [short, long_]
        sizes = {wl: len(enumerate_ball(pair, wl, 4).double) for wl in order}
        assert (sizes[short], sizes[long_]) == (5, 9)


    @pytest.mark.parametrize("name, params", [
        ("dihedral", {}), ("finite_index", {"n": 2}), ("finite_index", {"n": 5}),
    ] + [("semidirect", {"rank": rank, "action": action})
         for action in ("swap", "negate") for rank in (1, 2, 3)])
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


class TestBallIndex:
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
        idx = reachable_coset_ball(dihedral, [DihedralElement(1, 1)], 3)
        assert len(idx.keys) == 7
        assert {k.key for k in idx.keys} == {(n, 1) for n in range(-3, 4)}

    def test_works_without_length(self, bost_connes):
        g = AxbElement(Fraction(3, 2), 0)
        idx = reachable_coset_ball(bost_connes, [g], 2)
        assert coset_key(bost_connes, bost_connes.identity) in set(idx.keys)
        assert len(idx.keys) >= 3

    def test_depth_zero_is_base_coset(self, dihedral):
        idx = reachable_coset_ball(dihedral, [DihedralElement(1, 1)], 0)
        assert [k.key for k in idx.keys] == [(0, 1)]

    def test_budget_below_depth_three_set_raises(self, dihedral):
        # the depth-3 set holds 7 cosets
        with pytest.raises(BudgetExceededError) as exc:
            reachable_coset_ball(dihedral, [DihedralElement(1, 1)], 3, budget=6)
        assert "budget 6" in str(exc.value)

    @pytest.mark.parametrize("name, direction", [
        ("dihedral", DihedralElement(1, 1)),
        ("bost_connes", AxbElement(Fraction(3, 2), 0)),
    ])
    def test_prefix_of_deeper_walk_is_the_shallower_walk(self, pairs, name, direction):
        # norm_lower takes its domain as this prefix of its codomain
        pair = pairs[name]
        for r in range(4):
            deeper = reachable_coset_ball(pair, [direction], r + 1).prefix(r)
            direct = reachable_coset_ball(pair, [direction], r)
            assert [(k.key, k.length) for k in deeper.keys] == \
                [(k.key, k.length) for k in direct.keys]
