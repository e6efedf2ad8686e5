"""Corner seminorms, their vanishing thresholds, and the submultiplicativity probe."""

import math
from fractions import Fraction

import numpy as np
import pytest

from heckepairs import (
    ActionTable,
    BallIndex,
    ConfigError,
    CosetKey,
    DihedralElement,
    HeckeElement,
    L2Vector,
    QQi,
    SemidirectElement,
    apply_regular_rep,
    build_pair,
    corner_seminorm,
    enumerate_ball,
    jolissaint_seminorm,
    norms,
    random_hecke_element,
    spawn_rng,
    submultiplicativity_check,
    vanishing_threshold,
)
from heckepairs import jolissaint
from heckepairs.jolissaint import _window, length_le_n_minus_pow, length_le_pow


def sigma(pair, n, coeff=1):
    return HeckeElement.delta(pair, DihedralElement(n, 1), coeff=coeff)


def le_pow(value, n, alpha):
    # integer test for value <= n^alpha, alpha = p/q rational
    if value <= 0:
        return True
    return value ** alpha.denominator <= n ** alpha.numerator


def le_n_minus_pow(value, n, alpha):
    d = n - value
    if d < 0:
        return False
    return d ** alpha.denominator >= n ** alpha.numerator


def rho_oracle(pair, f, n, alpha, q):
    """Full-column corner blocks built coset by coset through the regular
    representation, with LAPACK norms.  Slower but structurally unrelated
    to the windowed assembly under test."""
    L = pair.length
    ell = f.max_support_length(L)
    radius = n + math.ceil(float(ell)) + 2
    ball = enumerate_ball(pair, L, radius).right
    keys = list(ball.keys)

    def image_columns(col_keys, row_keys):
        row_pos = {k: i for i, k in enumerate(row_keys)}
        mat = np.zeros((len(row_keys), max(len(col_keys), 1)), dtype=complex)
        for j, ck in enumerate(col_keys):
            out = apply_regular_rep(pair, f, L2Vector.delta(pair, ck.rep))
            for rk, c in out.sorted_terms():
                i = row_pos.get(rk)
                if i is not None:
                    mat[i, j] = complex(c)
        return mat

    inner = [k for k in keys if le_n_minus_pow(k.length, n, alpha)]
    outer = [k for k in keys if k.length > n]
    b1 = image_columns(inner, outer)
    b2 = image_columns(outer, inner)
    s1 = np.linalg.svd(b1, compute_uv=False)[0] if b1.size else 0.0
    s2 = np.linalg.svd(b2, compute_uv=False)[0] if b2.size else 0.0
    return float(n) ** q * (s1 + s2)


class TestThresholdPredicates:
    def test_boundary_cases_exact(self):
        half = Fraction(1, 2)
        assert length_le_pow(2, 4, half)          # 2 <= sqrt(4)
        assert not length_le_pow(Fraction(9, 4), 4, half)
        assert length_le_pow(0, 1, half)
        assert length_le_pow(-1, 1, half)
        assert length_le_n_minus_pow(2, 4, half)  # 4 - 2 >= sqrt(4)
        assert not length_le_n_minus_pow(Fraction(9, 4), 4, half)
        assert not length_le_n_minus_pow(5, 4, half)

    def test_vanishing_threshold_values(self):
        assert vanishing_threshold(3, Fraction(1, 2)) == 9
        assert vanishing_threshold(3, Fraction(1, 4)) == 81
        assert vanishing_threshold(3, Fraction(3, 4)) == 5
        assert vanishing_threshold(1, Fraction(1, 2)) == 1
        assert vanishing_threshold(0, Fraction(2, 3)) == 1
        assert vanishing_threshold(Fraction(5, 2), Fraction(1, 2)) == 7

    def test_threshold_is_tight(self):
        # ell <= N^alpha at the threshold but not just below it
        for ell, alpha in ((3, Fraction(1, 2)), (5, Fraction(1, 3)), (2, Fraction(3, 4))):
            t = vanishing_threshold(ell, alpha)
            assert length_le_pow(ell, t, alpha)
            if t > 1:
                assert not length_le_pow(ell, t - 1, alpha)

    def test_params_validation(self, dihedral):
        # both seminorms check alpha and q, and the corner its level N
        f = sigma(dihedral, 3)
        for alpha in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(ConfigError, match="alpha must lie strictly"):
                corner_seminorm(dihedral, f, 4, alpha=alpha)
            with pytest.raises(ConfigError, match="alpha must lie strictly"):
                jolissaint_seminorm(dihedral, f, alpha=alpha)
        with pytest.raises(ConfigError, match="q must be a positive integer"):
            corner_seminorm(dihedral, f, 4, q=0)
        with pytest.raises(ConfigError, match="q must be a positive integer"):
            jolissaint_seminorm(dihedral, f, q=0)
        with pytest.raises(ConfigError, match="N must be a positive integer"):
            corner_seminorm(dihedral, f, 0)
        # alpha, q and N normalise to a Fraction and two ints
        res = corner_seminorm(dihedral, f, 4.0, alpha="1/2", q=2.0)
        assert res.n == 4 and type(res.n) is int
        assert res.value == corner_seminorm(dihedral, f, 4, alpha=Fraction(1, 2), q=2).value
        assert jolissaint_seminorm(dihedral, f, alpha="1/2", q=2.0).value == \
            jolissaint_seminorm(dihedral, f, alpha=Fraction(1, 2), q=2).value


_ALPHAS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)]

# (pair name, params, element); every support length is an integer
_WINDOW_CASES = {
    "dihedral": ("dihedral", None, DihedralElement(3, 1)),
    "semidirect-swap-2": ("semidirect", {"rank": 2, "action": "swap"},
                          SemidirectElement((1, 1), 0, "swap")),
    "semidirect-negate-3": ("semidirect", {"rank": 3, "action": "negate"},
                            SemidirectElement((1, 1, 0), 0, "negate")),
}


def window_oracle(ball, lo_excl, n, alpha, shift=0):
    # the exact predicate on every length, with no integer bound
    keep = {L: lo_excl < L and length_le_n_minus_pow(Fraction(L) - shift, n, alpha)
            for L in set(k.length for k in ball)}
    return [k for k in ball if keep[k.length]]


class TestWindow:
    @pytest.mark.parametrize("alpha", _ALPHAS, ids=str)
    @pytest.mark.parametrize("case", sorted(_WINDOW_CASES))
    def test_windows_match_the_exact_predicate(self, case, alpha):
        name, params, g = _WINDOW_CASES[case]
        pair = build_pair(name, params)
        ell = HeckeElement.delta(pair, g).max_support_length(pair.length)
        threshold = vanishing_threshold(ell, alpha)
        ball = enumerate_ball(pair, None, threshold - 1 + ell).right
        for n in range(1, threshold):
            for lo, shift in ((Fraction(n - ell), 0), (Fraction(n), Fraction(ell))):
                got = _window(ball, lo, n, alpha, shift=shift)
                assert list(got) == window_oracle(ball, lo, n, alpha, shift), (n, shift)

    @pytest.mark.parametrize("alpha", _ALPHAS, ids=str)
    @pytest.mark.parametrize("name", ["dihedral", "semidirect"])
    def test_rational_lengths_match_the_exact_predicate(self, pairs, name, alpha):
        # lengths and shifts off the integers put keys between the integer
        # bound and the next integer, where the exact test decides
        ball = enumerate_ball(pairs[name], None, 12).right
        for scale in (Fraction(7, 5), Fraction(4, 3)):
            keys = [CosetKey(k.rep, k.length * scale + Fraction(i % 3, 3))
                    for i, k in enumerate(ball)]
            moved = BallIndex(13 * scale, keys)
            ell = 2 * scale
            for n in range(1, 14):
                for lo, shift in ((n - ell, 0), (Fraction(n), ell)):
                    got = _window(moved, lo, n, alpha, shift=shift)
                    assert list(got) == window_oracle(moved, lo, n, alpha, shift), \
                        (scale, n, shift)

    def test_integer_lengths_need_no_exact_test(self, monkeypatch, semidirect):
        # with integer lengths and support length, ceil(n^alpha) alone
        # places every window end
        calls = []

        def counted(*args):
            calls.append(args)
            return length_le_n_minus_pow(*args)

        monkeypatch.setattr(jolissaint, "length_le_n_minus_pow", counted)
        f = (HeckeElement.delta(semidirect, SemidirectElement((5, 2), 0, "swap"))
             + 3 * HeckeElement.delta(semidirect, SemidirectElement((2, 2), 0, "swap")))
        assert jolissaint_seminorm(semidirect, f).value > 0
        assert calls == []


class TestRho:
    def test_sigma3_level_four_frozen(self, dihedral):
        # [DERIVED] alpha=1/2, N=4: each corner block is a 2x2 shift of
        # ones with norm 1, so rho = 4 * (1 + 1)
        res = corner_seminorm(dihedral, sigma(dihedral, 3), 4, alpha=Fraction(1, 2), q=1)
        assert res.value == pytest.approx(8.0, abs=1e-9)
        assert res.block1_norm == pytest.approx(1.0, abs=1e-10)
        assert res.block2_norm == pytest.approx(1.0, abs=1e-10)
        assert not res.vanished

    def test_matches_full_column_oracle(self, dihedral):
        rng = spawn_rng(6, 0)
        alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        for _ in range(8):
            f = random_hecke_element(dihedral, rng, radius=4, complex_part=True)
            if f.is_zero():
                continue
            for alpha in alphas:
                for n in (1, 2, 3, 5, 8):
                    want = rho_oracle(dihedral, f, n, alpha, q=1)
                    got = corner_seminorm(dihedral, f, n, alpha=alpha, q=1).value
                    assert got == pytest.approx(want, abs=1e-9), (alpha, n)

    def test_semidirect_levels_match_lapack_blocks(self, semidirect):
        # reference: the corners cut by length masks from one column-exact
        # operator on the whole ball, with LAPACK norms
        f = HeckeElement.delta(semidirect, SemidirectElement((5, 3), 0, "swap")) + \
            HeckeElement.delta(semidirect, SemidirectElement((2, 2), 0, "swap"), coeff=3)
        res = jolissaint_seminorm(semidirect, f)
        assert len(res.rows) == 63
        L = semidirect.length
        radius = res.threshold - 1 + 8
        dom = enumerate_ball(semidirect, L, radius).right
        cod = enumerate_ball(semidirect, L, radius + 8).right
        op = ActionTable(semidirect, f.support, dom, cod).operator_for(f)
        row_len = np.array([int(k.length) for k in cod.keys])[op.rows]
        col_len = np.array([int(k.length) for k in dom.keys])[op.cols]

        def block_norm(mask):
            if not mask.any():
                return 0.0
            r = np.unique(op.rows[mask], return_inverse=True)[1]
            c = np.unique(op.cols[mask], return_inverse=True)[1]
            m = np.zeros((r.max() + 1, c.max() + 1))
            m[r, c] = op.vals[mask]
            return np.linalg.svd(m, compute_uv=False)[0]

        for level in res.rows:
            n = level.n
            # alpha = 1/2: L <= n - sqrt(n) iff n - L >= 0 and (n - L)^2 >= n
            inner_rows = (n - row_len >= 0) & ((n - row_len) ** 2 >= n)
            inner_cols = (n - col_len >= 0) & ((n - col_len) ** 2 >= n)
            want1 = block_norm((row_len > n) & inner_cols)
            want2 = block_norm(inner_rows & (col_len > n))
            assert abs(level.block1_norm - want1) <= 1e-9 * max(want1, 1.0)
            assert abs(level.block2_norm - want2) <= 1e-9 * max(want2, 1.0)

    def test_q_scales_by_power_of_n(self, dihedral):
        f = sigma(dihedral, 3)
        v1 = corner_seminorm(dihedral, f, 4, alpha=Fraction(1, 2), q=1)
        v3 = corner_seminorm(dihedral, f, 4, alpha=Fraction(1, 2), q=3)
        assert v3.value == pytest.approx(16 * v1.value, abs=1e-9)

    def test_vanishes_at_and_beyond_threshold(self, dihedral):
        rng = spawn_rng(6, 1)
        alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        for _ in range(20):
            g = DihedralElement(int(rng.integers(-5, 6)), 1 if rng.integers(2) else -1)
            f = HeckeElement.delta(dihedral, g)
            ell = f.max_support_length(dihedral.length)
            for alpha in alphas:
                t = vanishing_threshold(ell, alpha)
                for n in (t, t + 1, t + 7, 10 ** 6):
                    res = corner_seminorm(dihedral, f, n, alpha=alpha, q=1)
                    assert res.value == 0.0
                    assert res.vanished

    def test_zero_element_vanishes(self, dihedral):
        res = corner_seminorm(dihedral, HeckeElement.zero(dihedral), 3,
                              alpha=Fraction(1, 2), q=1)
        assert res.value == 0.0 and res.vanished
        assert (res.n, res.block1_shape, res.block2_shape) == (3, (0, 0), (0, 0))

    def test_requires_level(self, dihedral):
        with pytest.raises(TypeError):
            corner_seminorm(dihedral, sigma(dihedral, 2), alpha=Fraction(1, 2), q=1)
        with pytest.raises(ConfigError, match="N must be a positive integer"):
            corner_seminorm(dihedral, sigma(dihedral, 2), -1)


class TestNu:
    def test_sigma3_level_table_frozen(self, dihedral):
        res = jolissaint_seminorm(dihedral, sigma(dihedral, 3), alpha=Fraction(1, 2))
        assert res.value == pytest.approx(8.0, abs=1e-9)
        assert res.argmax_n == 4
        assert res.threshold == 9
        got = {row.n: row.value for row in res.rows}
        want = {
            1: 2 * math.sqrt(2),
            2: 4 * math.sqrt(2),
            3: 6.0,
            4: 8.0,
            5: 0.0, 6: 0.0, 7: 0.0, 8: 0.0,
        }
        assert set(got) == set(want)
        for n, v in want.items():
            assert got[n] == pytest.approx(v, abs=1e-9), n

    def test_delta_h_is_zero(self, dihedral):
        res = jolissaint_seminorm(
            dihedral, HeckeElement.delta(dihedral, dihedral.identity)
        )
        assert res.value == 0.0
        assert res.argmax_n is None
        assert res.rows == []

    def test_absolute_homogeneity(self, dihedral):
        f = sigma(dihedral, 3) + sigma(dihedral, 1, coeff=QQi(0, 2))
        a = jolissaint_seminorm(dihedral, f).value
        b = jolissaint_seminorm(dihedral, f.scale(-3)).value
        assert b == pytest.approx(3 * a, abs=1e-9)

    def test_alpha_monotone(self, dihedral):
        # smaller alpha keeps more of the corner, so the seminorm grows
        rng = spawn_rng(6, 2)
        alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        for _ in range(12):
            f = random_hecke_element(dihedral, rng, radius=4, complex_part=True)
            if f.is_zero():
                continue
            values = [jolissaint_seminorm(dihedral, f, alpha=a).value for a in alphas]
            assert values[0] >= values[1] - 1e-9
            assert values[1] >= values[2] - 1e-9

    def test_triangle_inequality(self, dihedral):
        rng = spawn_rng(6, 3)
        for _ in range(12):
            f = random_hecke_element(dihedral, rng, radius=3, complex_part=True)
            g = random_hecke_element(dihedral, rng, radius=3, complex_part=True)
            lhs = jolissaint_seminorm(dihedral, f + g).value
            rhs = jolissaint_seminorm(dihedral, f).value + jolissaint_seminorm(dihedral, g).value
            assert lhs <= rhs + 1e-9

    def test_zero_element_vanishes(self, dihedral):
        res = jolissaint_seminorm(dihedral, HeckeElement.zero(dihedral))
        assert (res.value, res.argmax_n, res.rows, res.threshold) == (0.0, None, [], 1)

    def test_short_support_is_identically_zero(self, dihedral):
        # support length 1 satisfies ell <= N^alpha for every N >= 1
        res = jolissaint_seminorm(dihedral, sigma(dihedral, 1), alpha=Fraction(1, 2))
        assert res.value == 0.0
        assert res.threshold == 1


class TestSubmultiplicativity:
    def test_one_sided_bound_holds_with_room(self, dihedral):
        rep = submultiplicativity_check(
            dihedral, sigma(dihedral, 3), sigma(dihedral, 2)
        )
        assert rep.ok
        assert not rep.degenerate
        assert rep.lhs <= rep.rhs
        assert rep.nu_half_1 > 0 and rep.nu_half_2 > 0

    def test_identity_multiple_factor_always_passes(self, dihedral):
        # f2 = c delta_H turns the product into a scaling, and the bound
        # reduces to |c| nu(f1) <= nu_half(f1) |c| plus a nonneg term
        rng = spawn_rng(6, 4)
        for _ in range(10):
            f1 = random_hecke_element(dihedral, rng, radius=3, complex_part=True)
            c = int(rng.integers(1, 5))
            f2 = HeckeElement.delta(dihedral, dihedral.identity, coeff=c)
            rep = submultiplicativity_check(dihedral, f1, f2)
            assert rep.ok

    def test_short_factors_break_the_bound(self, dihedral):
        # both halved seminorms vanish on single-hop factors while the
        # product has positive seminorm: the finite-level inequality fails
        rep = submultiplicativity_check(
            dihedral, sigma(dihedral, 1), sigma(dihedral, 1)
        )
        assert not rep.ok
        assert rep.degenerate
        assert rep.rhs == 0.0
        assert rep.lhs == pytest.approx(2 * math.sqrt(2), abs=1e-12)


class TestTailProfile:
    def test_frozen_rows(self, dihedral):
        # f = 2 sigma_1 + sigma_3 + delta_H: mass per length is
        # L0 -> 1, L1 -> 8, L3 -> 2 over right cosets and 1, 4, 1 over
        # doubles, weighted by (1 + L)^(2s)
        f = sigma(dihedral, 1, coeff=2) + sigma(dihedral, 3) \
            + HeckeElement.delta(dihedral, dihedral.identity)
        want = {0: (11, 6), 1: (65, 33), 2: (641, 321)}
        for s, (sobolev_sq, prime_sq) in want.items():
            r = norms(f, s=s)
            assert r.length_name == "abs-translation"
            assert (r.sobolev_sq, r.prime_sq) == (sobolev_sq, prime_sq)
