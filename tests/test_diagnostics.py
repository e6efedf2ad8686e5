"""Scan diagnostics, transfer identities, and degree growth fits."""

import math
from fractions import Fraction

import numpy as np
import pytest

from heckepairs import (
    ActionTable,
    ConfigError,
    DihedralElement,
    HeckeElement,
    InfiniteSubgroupError,
    L2Vector,
    QQi,
    UnsupportedLengthError,
    apply_regular_rep,
    build_pair,
    decompose_double_coset,
    degree_growth_fit,
    enumerate_ball,
    fit_power_law,
    haagerup_scan_exact,
    l2_norm_sq,
    norm_upper,
    random_hecke_element,
    scan_csv_rows,
    spawn_rng,
    transfer_check,
)
from heckepairs import diagnostics
from heckepairs.diagnostics import K_FACTOR, K_FACTOR_CHAR, SCAN_COEFF_MAX


def char_element(pair, radius):
    """Indicator of the double-coset ball, coefficients all one."""
    ball = enumerate_ball(pair, pair.length, radius).double
    f = HeckeElement.zero(pair)
    for k in ball.keys:
        f = f + HeckeElement.delta(pair, k.rep)
    return f


def char_vector(pair, radius):
    ball = enumerate_ball(pair, pair.length, radius).right
    v = L2Vector.zero(pair)
    for k in ball.keys:
        v = v + L2Vector.delta(pair, k.rep)
    return v


def char_ratio_sq_closed_form(r, factor=5):
    """Hand-derived squared ratio for ball indicators on the line pair.

    Convolving the radius-r indicator into the radius-K one (K = factor*r)
    gives a trapezoid: height 2r+1 on the plateau of width 2K - 2r + 1,
    with quadratic ramps summing 2 * sum_{v=1}^{2r} v^2 on the sides.
    Norms: ||f||^2 = 2r + 1 (r doubles of degree 2 plus the identity),
    ||k||^2 = 2K + 1 right cosets.
    """
    K = factor * r
    plateau = (2 * K - 2 * r + 1) * (2 * r + 1) ** 2
    ramps = 2 * Fraction(2 * r * (2 * r + 1) * (4 * r + 1), 6)
    num = plateau + ramps
    return Fraction(num, (2 * r + 1) * (2 * K + 1))


def exact_ratio_sq(pair, f, k):
    """The scan's squared ratio ||f * k||_2^2 / (||f||_2^2 ||k||_2^2), exact."""
    return apply_regular_rep(pair, f, k).norm_sq() / (l2_norm_sq(f) * k.norm_sq())


def unpruned_scan(pair, radii, samples, seed):
    """Every sample of a family that holds haagerup_scan_exact's, evaluated
    exactly with no skip.

    Per radius r the family is, in this order: the characteristic f of the
    double ball with the characteristic k of the K_FACTOR_CHAR * r domain,
    every single delta of the ball with that same k, then the scan's random
    f and k, drawn from the same spawn_rng streams in the same order. Yields,
    per radius, the running max (ratio_sq, label, f, fn2) carried across
    radii and the (ratio_sq, col * bound / fn2) of every sample, with
    col = sum c_D deg D, bound = sum c_D rm_D (rm_D the most entries delta_D
    puts in one row) and fn2 = ||f||_2^2. The product is one scatter of the
    table entries per double.
    """
    L = pair.length
    best = None
    for ri, r in enumerate(radii):
        kmax = max(K_FACTOR, K_FACTOR_CHAR) * r
        big = enumerate_ball(pair, L, kmax + r).right
        dom = big.prefix(kmax)
        dkeys = list(enumerate_ball(pair, L, r).double.keys)
        table = ActionTable(pair, dkeys, dom, big)
        dom_len = np.array([float(k.length) for k in dom.keys])
        char_k = (dom_len <= K_FACTOR_CHAR * r).astype(np.int64)
        family = [("char:%s" % r, [(dk, 1) for dk in dkeys], char_k)]
        family += [("delta:%r" % (dk.rep.key,), [(dk, 1)], char_k) for dk in dkeys]
        for si in range(samples):
            rng = spawn_rng(seed, ri, si)
            m = int(rng.integers(1, len(dkeys) + 1))
            picked = np.sort(rng.choice(len(dkeys), size=m, replace=False)).tolist()
            coeffs = rng.integers(1, SCAN_COEFF_MAX + 1, size=m).tolist()
            kvec = rng.integers(0, SCAN_COEFF_MAX + 1, size=len(dom)) \
                * (dom_len <= K_FACTOR * r)
            family.append(("random:%d" % si,
                           [(dkeys[i], c) for i, c in zip(picked, coeffs)], kvec))
        seen = []
        for label, terms, kvec in family:
            if not kvec.any():
                continue  # a zero k, possible at r = 0, has no ratio
            out = np.zeros(len(big), dtype=np.int64)
            f, col, bound, fn2 = {}, 0, 0, 0
            for dk, c in terms:
                rows, cols = table.tables[dk]
                np.add.at(out, rows, c * kvec[cols])
                deg = len(decompose_double_coset(pair, dk.rep))
                f[dk] = c
                col += c * deg
                bound += c * int(np.bincount(rows).max())
                fn2 += c * c * deg
            ratio_sq = Fraction(int(out @ out), fn2 * int(kvec @ kvec))
            seen.append((ratio_sq, Fraction(col * bound, fn2)))
            if best is None or ratio_sq > best[0]:
                best = (ratio_sq, label, f, fn2)
        yield best, seen


SCAN_PAIRS = [
    ("dihedral", {}),
    ("finite_index", {"n": 2}),
    ("finite_index", {"n": 5}),
    ("semidirect", {"rank": 2, "action": "swap"}),
    ("semidirect", {"rank": 2, "action": "negate"}),
    ("semidirect", {"rank": 3, "action": "swap"}),
    ("semidirect", {"rank": 1, "action": "negate"}),
]


class TestExactRatio:
    def test_char_ratio_matches_closed_form(self, dihedral):
        for r in (1, 2, 4):
            f = char_element(dihedral, r)
            k = char_vector(dihedral, 5 * r)
            got = exact_ratio_sq(dihedral, f, k)
            assert got == char_ratio_sq_closed_form(r)

    def test_r4_frozen_value(self, dihedral):
        # [DERIVED] plateau 33*81 + 2*(816) over 17*41
        got = exact_ratio_sq(dihedral, char_element(dihedral, 4), char_vector(dihedral, 20))
        assert got == Fraction(1027, 123)
        assert char_ratio_sq_closed_form(4) == Fraction(1027, 123)


class TestScans:
    def test_exact_scan_shape_and_monotone_rows(self, dihedral):
        rep = haagerup_scan_exact(dihedral, radii=(2, 4, 8), samples=20, seed=7)
        jd = rep.to_json_dict()
        assert [row["r"] for row in jd["rows"]] == [2, 4, 8]
        for row in jd["rows"]:
            assert row["max_ratio_exact"] <= row["schur_upper"] + 1e-9
            assert math.sqrt(Fraction(row["max_ratio_sq"])) == row["max_ratio_exact"]
        # ball indicators are in the sample stream, so the max ratio grows
        # at least like the char ratio
        for row, r in zip(jd["rows"], (2, 4, 8)):
            floor = math.sqrt(float(char_ratio_sq_closed_form(r)))
            assert row["max_ratio_exact"] >= floor - 1e-9

    def test_scan_deterministic(self, dihedral):
        a = haagerup_scan_exact(dihedral, radii=(2, 4), samples=10, seed=3)
        b = haagerup_scan_exact(dihedral, radii=(2, 4), samples=10, seed=3)
        assert a.to_json_dict() == b.to_json_dict()
        c = haagerup_scan_exact(dihedral, radii=(2, 4), samples=10, seed=4)
        assert c.to_json_dict() != a.to_json_dict()

    def test_csv_rows_header_and_width(self, dihedral):
        rep = haagerup_scan_exact(dihedral, radii=(2, 4), samples=5, seed=0)
        rows = scan_csv_rows(rep)
        assert rows[0] == [
            "r", "ball_double", "ball_right", "max_ratio_exact",
            "max_ratio_upper", "schur_upper", "fitted_C", "fitted_s",
        ]
        assert all(len(r) == len(rows[0]) for r in rows)

    def test_int64_overflow_caught_before_the_matvec(self, dihedral, monkeypatch):
        # a wrapped int64 sum cannot be detected after matvec_int returns, so
        # every call it does get must match exact Python-int arithmetic
        original = ActionTable.matvec_int

        def checked(table, coeffs, vec):
            out = original(table, coeffs, vec)
            exact = [0] * len(out)
            for dk, c in coeffs.items():
                rows, cols = table.tables[dk]
                for i, j in zip(rows.tolist(), cols.tolist()):
                    exact[i] += c * int(vec[j])
            assert out.tolist() == exact, "matvec_int wrapped around"
            return out

        monkeypatch.setattr(ActionTable, "matvec_int", checked)
        monkeypatch.setattr(diagnostics, "SCAN_COEFF_MAX", 2 ** 40)
        with pytest.raises(ConfigError, match="too large"):
            haagerup_scan_exact(dihedral, radii=(2,), samples=2, seed=0)

    @pytest.mark.parametrize("name, params, radii, ball_right", [
        ("dihedral", {}, (1, 2, 4, 8), lambda r: 2 * r + 1),
        ("semidirect", {"rank": 2, "action": "swap"}, (1, 2, 4),
         lambda r: 2 * r * r + 2 * r + 1),
        # the octahedral numbers count |x| + |y| + |z| <= r in Z^3
        ("semidirect", {"rank": 3, "action": "negate"}, (1, 2, 3),
         lambda r: (2 * r + 1) * (2 * r * r + 2 * r + 3) // 3),
    ], ids=["dihedral", "semidirect-rank2-swap", "semidirect-rank3-negate"])
    def test_max_ratio_sq_below_ball_right(self, name, params, radii, ball_right):
        # [PROVEN] for f = sum c_D delta_D on the double ball B_r, with H
        # finite or not: every column of lambda(delta_D) holds deg D ones and
        # every row deg D* ones, so the Schur test gives
        # ||lambda(delta_D)|| <= sqrt(deg D deg D*). Weighted Cauchy-Schwarz
        # gives (sum |c_D| sqrt(deg D deg D*))^2 <= ||f||_2^2 sum_{B_r} deg D*,
        # with ||f||_2^2 = sum |c_D|^2 deg D. The length is symmetric and
        # bi-invariant, so D -> D* maps B_r onto itself and that sum is N_r,
        # the number of right cosets of length <= r: ||f * k||^2 <=
        # ||f||^2 ||k||^2 N_r
        rep = haagerup_scan_exact(build_pair(name, params), radii=radii,
                                  samples=10, seed=2)
        assert [row.radius for row in rep.rows] == list(radii)
        for row, cells in zip(rep.rows, scan_csv_rows(rep)[1:]):
            assert row.ball_right == ball_right(row.radius)
            assert 1 <= row.max_ratio_sq <= row.ball_right
            # the CSV's upper column is this bound, sqrt(N_r) (sqrt(2r + 1) on
            # dihedral), and never below the exact column
            assert cells[4] == "%.12g" % math.sqrt(ball_right(row.radius))
            assert float(cells[3]) <= float(cells[4])

    @pytest.mark.parametrize("n", [2, 5])
    def test_upper_column_reads_sqrt_n_on_finite_index(self, n):
        # H = nZ is infinite, but the bound above needs no finite H: every
        # ball holds the n cosets of Z/n, so the column reads sqrt(n), and
        # the scan attains it (f = k = the ball's characteristic function)
        rep = haagerup_scan_exact(build_pair("finite_index", {"n": n}),
                                  radii=(0, 1, 2, 4), samples=5, seed=0)
        rows = scan_csv_rows(rep)
        assert rows[0][4] == "max_ratio_upper"
        for row, cells in zip(rep.rows, rows[1:]):
            assert row.ball_right == n
            assert row.max_ratio_sq == n
            assert row.upper == row.max_ratio_exact == math.sqrt(n)
            assert cells[4] == cells[3] == "%.12g" % math.sqrt(n)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name, params", SCAN_PAIRS,
                             ids=["%s%s" % (n, "".join("-%s" % v for v in p.values()))
                                  for n, p in SCAN_PAIRS])
    def test_schur_skip_matches_unpruned_oracle(self, name, params, seed):
        # [PROVEN] on these pairs the oracle's single deltas, which the scan
        # does not sample, never change a row. A delta's Schur quotient (below)
        # is rm_D <= deg D*: each row of lambda(delta_D) holds deg D* ones.
        # That is at most 2 on every catalog pair with a ball (1 on
        # finite_index). The characteristic sample runs first at each radius,
        # and its ratio_sq at r = 1 is 91/33 on dihedral and 91/33, 1269/305
        # or 2837/539 on semidirect rank 1, 2 or 3, above 2; on finite_index
        # it is n > 1 from r = 0 on. The max is replaced only on a strict >,
        # so no delta reaches it; at r = 0 the only delta, delta_H, is the
        # characteristic sample itself
        pair = build_pair(name, params)
        for radii in ((1, 2, 4), (0, 1, 3)):
            rep = haagerup_scan_exact(pair, radii=radii, samples=20, seed=seed)
            for row, (best, seen) in zip(rep.rows,
                                         unpruned_scan(pair, radii, 20, seed)):
                ratio_sq, label, f, fn2 = best
                assert row.max_ratio_sq == ratio_sq
                assert row.argmax_label == label
                # the carried f behind schur_upper
                f_elt = HeckeElement(pair, [(dk, QQi(c)) for dk, c in f.items()])
                assert l2_norm_sq(f_elt) == fn2
                assert row.schur_upper == \
                    norm_upper(pair, f_elt) / math.sqrt(float(fn2))
                # [PROVEN] A, the table's compression of lambda(f), has column
                # absolute sums <= col (each column of delta_D's table holds
                # deg D ones) and row absolute sums <= bound (each row holds
                # at most rm_D entries of delta_D), by the triangle
                # inequality. The Schur test gives ||A||^2 <= col * bound, so
                # ||f * k||^2 <= col * bound * ||k||^2 and ratio_sq <=
                # col * bound / fn2. The running max is replaced only on a
                # strict >, so a sample whose bound is at most the max cannot
                # change the row
                for exact, schur in seen:
                    assert exact <= schur

    def test_radius_zero_row_is_the_identity_sample(self, dihedral):
        # at r = 0 the ball holds H alone, so f = k = delta_H, ratio_sq 1, and
        # the row names the radius it sampled
        rep = haagerup_scan_exact(dihedral, radii=(0, 1), samples=5, seed=0)
        assert rep.rows[0].argmax_label == "char:0"
        assert rep.rows[0].max_ratio_sq == 1
        assert rep.rows[1].argmax_label == "char:1"

    def test_scan_skips_the_products_its_schur_bound_rules_out(self, monkeypatch):
        # an operation count, not a timing: only the characteristic f and the
        # random samples that can beat the max reach the product
        calls = []
        original = ActionTable.matvec_int

        def counted(table, coeffs, vec):
            calls.append(len(coeffs))
            return original(table, coeffs, vec)

        monkeypatch.setattr(ActionTable, "matvec_int", counted)
        radii = (4, 8)
        haagerup_scan_exact(build_pair("semidirect", {"rank": 2, "action": "swap"}),
                            radii=radii, samples=200, seed=1)
        assert 0 < len(calls) <= 2 * len(radii)

    @pytest.mark.parametrize("kwargs, match", [
        ({"radii": (8, 4)}, r"radii must be strictly increasing: \[8, 4\]"),
        ({"radii": ()}, "key 'radii': need at least one radius"),
        ({"radii": (-1, 2)}, r"key 'radii': radii must be >= 0, got \[-1, 2\]"),
        ({"radii": (2,), "samples": -3}, "samples must be >= 0, got -3"),
    ], ids=["decreasing-radii", "no-radii", "negative-radius", "negative-samples"])
    def test_scan_refuses_bad_inputs(self, dihedral, kwargs, match):
        # (8, 4) used to report at r = 4 the r = 8 max, 11.199, above that
        # row's own proven bound sqrt(41)
        with pytest.raises(ConfigError, match=match):
            haagerup_scan_exact(dihedral, seed=0, **kwargs)

    def test_scan_rejects_lengthless_pair(self, gl2q):
        with pytest.raises(UnsupportedLengthError, match="pair 'gl2q' has no length"):
            haagerup_scan_exact(gl2q, radii=(2,), samples=2, seed=0)


class TestFits:
    def test_power_law_recovers_synthetic_exponent(self):
        radii = [4, 8, 16, 32, 64]
        values = [3.0 * (1 + r) ** 0.5 for r in radii]
        C, s = fit_power_law(radii, values)
        assert C == pytest.approx(3.0, rel=1e-12)
        assert s == pytest.approx(0.5, abs=1e-12)

    def test_power_law_needs_two_points(self):
        with pytest.raises(ConfigError):
            fit_power_law([4], [2.0])
        with pytest.raises(ConfigError):
            fit_power_law([0, 0], [1.0, 2.0])

    def test_degree_growth_dihedral(self, dihedral):
        fit = degree_growth_fit(dihedral)
        assert fit.d == pytest.approx(2.0)
        assert fit.t == 0
        assert fit.table[0][2] == 1  # identity coset
        assert all(row[2] == 2 for row in fit.table[1:])

    def test_degree_growth_finite_index(self, finite_index):
        fit = degree_growth_fit(finite_index)
        assert fit.d == pytest.approx(1.0)
        assert fit.t == 0


class TestTransfer:
    def test_frozen_values_on_generator_pair(self, dihedral):
        # [DERIVED] f = sigma_1 (lift is the 4-element set H(1,1)H, norm 4),
        # k = delta_H (lift norm 2); f * k spreads over two cosets so
        # n^3 ||f*k||^2 = 16; the averaging equalities give 32 and 4
        f = HeckeElement.delta(dihedral, DihedralElement(1, 1))
        k = L2Vector.delta_identity(dihedral)
        rep = transfer_check(dihedral, f, k, rng=spawn_rng(4, 0))
        assert rep.ok
        got = {item.name: item for item in rep.items}
        assert got["a:lift-right-norm"].lhs == 2
        assert got["b:lift-double-norm"].lhs == 4
        assert got["c:norm"].lhs == got["c:norm"].rhs == 16
        assert got["d:double-average"].lhs == 32
        assert got["d:right-average"].lhs == 4

    def test_random_inputs_all_pass(self, dihedral):
        rng = spawn_rng(4, 1)
        for _ in range(15):
            f = random_hecke_element(dihedral, rng, radius=3, nonneg=True)
            from heckepairs import random_l2_vector

            k = random_l2_vector(dihedral, rng, radius=3, nonneg=True)
            if f.is_zero() or k.is_zero():
                continue
            assert transfer_check(dihedral, f, k, rng=rng).ok

    def test_lift_refuses_one_element_with_two_values(self, dihedral, monkeypatch):
        # a decomposition that files every double coset under the coset H
        # puts each h in H in the lifts of both sigma_1 and 2 sigma_2
        from heckepairs import diagnostics

        f = HeckeElement.delta(dihedral, DihedralElement(1, 1)) \
            + HeckeElement.delta(dihedral, DihedralElement(2, 1), coeff=2)
        k = L2Vector.delta_identity(dihedral)
        assert transfer_check(dihedral, f, k).ok
        monkeypatch.setattr(diagnostics, "decompose_double_coset",
                            lambda pair, rep: list(k.terms))
        with pytest.raises(ConfigError, match="lift is not well defined"):
            transfer_check(dihedral, f, k)

    def test_requires_nonneg_exact(self, dihedral):
        f = HeckeElement.delta(dihedral, DihedralElement(1, 1), coeff=-1)
        k = L2Vector.delta_identity(dihedral)
        with pytest.raises(ConfigError):
            transfer_check(dihedral, f, k)

    def test_infinite_h_rejected(self, bost_connes):
        from heckepairs import AxbElement

        f = HeckeElement.delta(bost_connes, AxbElement(Fraction(3, 2), 0))
        k = L2Vector.delta_identity(bost_connes)
        with pytest.raises(InfiniteSubgroupError):
            transfer_check(bost_connes, f, k)

    def test_cauchy_schwarz_constant_sharp(self, cauchy_schwarz_ratios):
        # (sum x)^2 <= m sum x^2, with equality at the constant vectors
        for m in (1, 2, 4, 9):
            ratios = cauchy_schwarz_ratios(m, trials=200, seed=0)
            assert max(ratios) == m
            assert ratios[-3:] == [m] * 3
            if m > 1:
                assert any(x < m for x in ratios[:-3])


class TestRng:
    def test_spawn_is_deterministic_and_split(self):
        a = spawn_rng(5, 1, 2).integers(0, 10 ** 9, size=4)
        b = spawn_rng(5, 1, 2).integers(0, 10 ** 9, size=4)
        c = spawn_rng(5, 1, 3).integers(0, 10 ** 9, size=4)
        assert list(a) == list(b)
        assert list(a) != list(c)

    def test_key_order_matters(self):
        a = spawn_rng(5, 1, 2).integers(0, 10 ** 9, size=4)
        b = spawn_rng(5, 2, 1).integers(0, 10 ** 9, size=4)
        assert list(a) != list(b)
