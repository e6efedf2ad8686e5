"""Acceptance gate: twelve release criteria, one test per criterion.

Each test prints one summary line ("criterion N: PASS - ...");
run with `pytest -s` to see the lines.  All twelve must pass.  The
literal product estimate nu_a(f1*f2) <= nu_{a/2}(f1)||f2|| +
nu_{a/2}(f2)||f1|| is false at finite level (f1 = f2 = sigma_1 gives
2*sqrt(2) <= 0), so criterion 11 checks the level-wise estimate it rests
on, with the proof in the test body.
"""

import math
import time
from fractions import Fraction


from heckepairs import (
    AxbElement,
    DihedralElement,
    HeckeElement,
    IntegerElement,
    L2Vector,
    MatrixElement,
    QQi,
    apply_regular_rep,
    convolve,
    corner_seminorm,
    degree,
    double_key,
    haagerup_scan_exact,
    jolissaint_seminorm,
    l2_norm_sq,
    norm_lower,
    norm_upper,
    norms,
    random_hecke_element,
    random_l2_vector,
    spawn_rng,
    submultiplicativity_check,
    transfer_check,
    vanishing_threshold,
)
from heckepairs.jolissaint import length_le_n_minus_pow, length_le_pow

SEED = 20260819

# gl2q double cosets are expensive to decompose for large determinants, so
# criterion 1 draws from a fixed pool of small-determinant shapes instead
# of unconstrained random matrices; coefficients stay fully random
GL2Q_POOL = (
    MatrixElement(((1, 0), (0, 1))),
    MatrixElement(((1, 0), (0, 2))),
    MatrixElement(((1, 1), (0, 2))),
    MatrixElement(((1, 0), (0, 3))),
    MatrixElement(((2, 0), (0, 2))),
    MatrixElement(((1, 0), (0, 4))),
    MatrixElement(((Fraction(1, 2), 0), (0, 1))),
)


def gl2q_pool_element(pair, rng):
    k = int(rng.integers(1, 4))
    f = HeckeElement.zero(pair)
    for i in rng.choice(len(GL2Q_POOL), size=k, replace=False):
        c = QQi(
            int(rng.integers(1, 6)) * (1 if rng.integers(2) else -1),
            int(rng.integers(-3, 4)),
        )
        f = f + HeckeElement.delta(pair, GL2Q_POOL[int(i)], coeff=c)
    return f


def report(line):
    print(line)


def test_criterion_01_algebra_suite_exact(pairs):
    t0 = time.monotonic()
    rounds = 0
    for j, name in enumerate(("dihedral", "finite_index", "bost_connes", "gl2q")):
        pair = pairs[name]
        rng = spawn_rng(SEED, 1, j)
        e = HeckeElement.delta(pair, pair.identity)
        ek = double_key(pair, pair.identity)
        for _ in range(200):
            if name == "gl2q":
                f1, f2, f3 = (gl2q_pool_element(pair, rng) for _ in range(3))
            else:
                f1, f2, f3 = (
                    random_hecke_element(pair, rng, radius=2, complex_part=True)
                    for _ in range(3)
                )
            lhs = convolve(pair, convolve(pair, f1, f2), f3)
            rhs = convolve(pair, f1, convolve(pair, f2, f3))
            assert lhs.sorted_terms() == rhs.sorted_terms(), (name, "assoc")
            assert convolve(pair, e, f1).sorted_terms() == f1.sorted_terms()
            assert convolve(pair, f1, e).sorted_terms() == f1.sorted_terms()
            star = convolve(pair, f1, f2).involution()
            want = convolve(pair, f2.involution(), f1.involution())
            assert star.sorted_terms() == want.sorted_terms(), (name, "anti-hom")
            c = convolve(pair, f1, f1.involution()).coefficient(ek)
            assert c.is_real_nonneg(), (name, "positivity")
            assert c.re == l2_norm_sq(f1.involution()), (name, "positivity")
            rounds += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(
        "criterion 1: PASS - associativity, identity, involution, positivity "
        "exact on %d seeded triples across 4 pairs (%.1fs)" % (rounds, elapsed)
    )


def test_criterion_02_dihedral_commutativity(dihedral):
    rng = spawn_rng(SEED, 2)
    for _ in range(200):
        f = random_hecke_element(dihedral, rng, radius=4, complex_part=True)
        g = random_hecke_element(dihedral, rng, radius=4, complex_part=True)
        lhs = convolve(dihedral, f, g)
        rhs = convolve(dihedral, g, f)
        assert lhs.sorted_terms() == rhs.sorted_terms()
    report("criterion 2: PASS - f*g = g*f exact on 200 random dihedral pairs")


def test_criterion_03_worked_convolution(dihedral):
    s1 = HeckeElement.delta(dihedral, DihedralElement(1, 1))
    prod = convolve(dihedral, s1, s1)
    want = HeckeElement.delta(dihedral, DihedralElement(2, 1)) + \
        HeckeElement.delta(dihedral, DihedralElement(0, 1), coeff=2)
    assert prod.sorted_terms() == want.sorted_terms()
    report("criterion 3: PASS - sigma_1 * sigma_1 = sigma_2 + 2 sigma_0 exact")


def test_criterion_04_degree_tables(pairs):
    t0 = time.monotonic()
    dihedral = pairs["dihedral"]
    assert degree(dihedral, DihedralElement(0, 1)) == 1
    for n in range(1, 1001):
        assert degree(dihedral, DihedralElement(n, 1)) == 2
    gl2q = pairs["gl2q"]
    for p in (2, 3, 5, 7):
        assert degree(gl2q, MatrixElement(((1, 0), (0, p)))) == p + 1
    bc = pairs["bost_connes"]
    for p, q in ((3, 2), (5, 3)):
        assert degree(bc, AxbElement(Fraction(p, q), 0)) == p
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(
        "criterion 4: PASS - dihedral n=0..1000, gl2q p in {2,3,5,7}, "
        "rational-scaling numerators, all exact (%.1fs)" % elapsed
    )


def test_criterion_05_degree_norm_identity(pairs):
    total = 0
    for j, (name, pair) in enumerate(sorted(pairs.items())):
        rng = spawn_rng(SEED, 5, j)
        for _ in range(100):
            g = pair.random_element(rng)
            f = HeckeElement.delta(pair, g)
            out = apply_regular_rep(pair, f, L2Vector.delta_identity(pair))
            assert out.norm_sq() == degree(pair, g), (name, g)
            total += 1
    report(
        "criterion 5: PASS - ||delta_g * delta_1||_2^2 = degree(g) exact "
        "on %d random elements across 6 pairs" % total
    )


def test_criterion_06_finite_index_haagerup_constant(finite_index):
    rng = spawn_rng(SEED, 6)
    best = 0.0
    for i in range(1000):
        if i == 0:
            a, b = QQi(1), QQi(1)  # ball indicator hits the extremal ratio
        else:
            a = QQi(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
            b = QQi(int(rng.integers(-5, 6)), int(rng.integers(-5, 6)))
        f = HeckeElement.delta(finite_index, IntegerElement(0), coeff=a) + \
            HeckeElement.delta(finite_index, IntegerElement(1), coeff=b)
        if f.is_zero():
            continue
        lower = norm_lower(finite_index, f, radius=1).lower
        # the action is a 2x2 circulant, so the norm is max |a +- b|
        closed = math.sqrt(max((a + b).abs_sq(), (a - b).abs_sq()))
        assert abs(lower - closed) <= 1e-9 * max(1.0, closed)
        best = max(best, lower / math.sqrt(l2_norm_sq(f)))
    assert abs(best - math.sqrt(2)) <= 1e-9
    report(
        "criterion 6: PASS - max norm ratio over 10^3 samples is sqrt(2) "
        "within 1e-9, closed form max(|a+b|,|a-b|) agrees everywhere"
    )


def test_criterion_07_transfer_identities(pairs, cauchy_schwarz_ratios):
    checked = 0
    for j, name in enumerate(("dihedral", "semidirect")):
        pair = pairs[name]
        done = 0
        i = 0
        while done < 100:
            rng = spawn_rng(SEED, 7, j, i)
            i += 1
            f = random_hecke_element(pair, rng, radius=3, nonneg=True)
            k = random_l2_vector(pair, rng, radius=3, nonneg=True)
            if f.is_zero() or k.is_zero():
                continue
            rep = transfer_check(pair, f, k, rng=rng)
            assert rep.ok, (name, i, [x.name for x in rep.items if not x.ok])
            done += 1
            checked += 1
    # the averaging constant c(m) = m bounds (sum x)^2 / sum x^2 and is met
    # with equality on constant vectors (the last three ratios)
    for m in (2, 4):
        ratios = cauchy_schwarz_ratios(m, trials=300, seed=SEED)
        assert max(ratios) <= m and ratios[-3:] == [m] * 3
    report(
        "criterion 7: PASS - lift/average identities (a)-(e) exact on "
        "%d (f, k) draws over dihedral and semidirect, c(m)=m sharp" % checked
    )


def test_criterion_08_rd_scan(dihedral):
    t0 = time.monotonic()
    radii = (4, 8, 16, 32, 64)
    rep = haagerup_scan_exact(dihedral, radii=radii, samples=200, seed=SEED)
    jd = rep.to_json_dict()
    for row in jd["rows"]:
        r = row["r"]
        lo = 0.9 * math.sqrt(2 * r + 1) - 0.5
        hi = 1.05 * math.sqrt(2 * r + 1)
        assert lo <= row["max_ratio_exact"] <= hi, row
    assert 0.35 <= jd["fitted_s"] <= 0.75
    again = haagerup_scan_exact(dihedral, radii=radii, samples=200, seed=SEED)
    assert again.to_json_dict() == jd
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(
        "criterion 8: PASS - max ratios inside sqrt(2r+1) window at radii "
        "%s, fitted s=%.3f, scan deterministic (%.1fs)"
        % (list(radii), jd["fitted_s"], elapsed)
    )


def test_criterion_09_norm_bracketing(pairs):
    samples = 0

    def run(pair, f, radii):
        nonlocal samples
        if f.is_zero():
            return
        upper = norm_upper(pair, f)
        prev = 0.0
        for r in radii:
            b = norm_lower(pair, f, radius=r)
            assert b.lower <= upper + 1e-9, (pair.name, r)
            assert b.lower >= prev - 1e-9, (pair.name, r, "monotone")
            prev = b.lower
        samples += 1

    for j, name in enumerate(("dihedral", "finite_index", "semidirect")):
        pair = pairs[name]
        rng = spawn_rng(SEED, 9, j)
        for _ in range(10):
            run(pair, random_hecke_element(pair, rng, radius=3, complex_part=True),
                (2, 4, 6))

    rng = spawn_rng(SEED, 9, 100)
    gl2q = pairs["gl2q"]
    for _ in range(5):
        f = HeckeElement.zero(gl2q)
        for i in rng.choice(4, size=2, replace=False):
            f = f + HeckeElement.delta(
                gl2q, GL2Q_POOL[1 + int(i)], coeff=int(rng.integers(1, 4))
            )
        run(gl2q, f, (1, 2))
    bc = pairs["bost_connes"]
    for _ in range(8):
        f = HeckeElement.delta(
            bc, AxbElement(Fraction(3, 2), 0), coeff=int(rng.integers(1, 4))
        ) + HeckeElement.delta(
            bc, AxbElement(1, Fraction(1, 2)), coeff=int(rng.integers(-3, 0))
        )
        run(bc, f, (1, 2))
    sl3 = pairs["sl3"]
    m1 = MatrixElement(((1, 1, 0), (0, 1, 0), (0, 0, 1)))
    m2 = MatrixElement(((1, 0, 0), (0, 1, 1), (0, 0, 1)))
    for _ in range(5):
        f = HeckeElement.delta(sl3, m1, coeff=int(rng.integers(1, 4))) + \
            HeckeElement.delta(sl3, m2, coeff=int(rng.integers(-3, 0)))
        run(sl3, f, (1, 2))
    report(
        "criterion 9: PASS - lower <= upper and radius-monotone lower bounds "
        "on %d sampled elements across all 6 pairs" % samples
    )


def test_criterion_10_corner_vanishing_and_monotonicity(dihedral):
    rng = spawn_rng(SEED, 10)
    alphas = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    gs = []
    while len(gs) < 50:
        n = int(rng.integers(-5, 6))
        gs.append(DihedralElement(n, 1 if rng.integers(2) else -1))
    for g in gs:
        f = HeckeElement.delta(dihedral, g)
        ell = f.max_support_length(dihedral.length)
        for alpha in alphas:
            t = vanishing_threshold(ell, alpha)
            for n in (t, t + 1, t + 2, t + 3, t + 4, 10 ** 6):
                res = corner_seminorm(dihedral, f, n, alpha=alpha, q=1)
                assert res.value == 0.0 and res.vanished, (g, alpha, n)
    for g in gs:
        f = HeckeElement.delta(dihedral, g)
        values = [jolissaint_seminorm(dihedral, f, alpha=a).value for a in alphas]
        assert values[0] >= values[1] - 1e-9, g
        assert values[1] >= values[2] - 1e-9, g
    report(
        "criterion 10: PASS - corner blocks vanish exactly from the "
        "ceil(L^(1/alpha)) level on 50 deltas, alpha-monotone seminorms"
    )


def _root_ceil(n, beta):
    """Smallest integer k >= 0 with k >= n**beta, decided exactly."""
    p, d = beta.numerator, beta.denominator
    k = 0
    while k ** d < n ** p:
        k += 1
    return k


def test_criterion_11_submultiplicativity(dihedral):
    # The literal estimate
    #   nu_{a,q}(f1 * f2) <= nu_{a/2,q}(f1) ||f2|| + nu_{a/2,q}(f2) ||f1||
    # is false at finite level: for f1 = f2 = sigma_1 the left side is
    # 2*sqrt(2) and the right side 0 (test_short_factors_break_the_bound
    # pins that case).  This criterion checks the level-wise form that the
    # product estimate rests on, with its proof.
    #
    # Write b = a/2, A = lambda(f1), B = lambda(f2) (so AB = lambda(f1*f2)),
    # P_x for the projection onto right cosets of length <= x, and at level
    # N let M be the largest integer with M <= N - N^b.  If M >= 1 and
    # N - N^a <= M - M^b, insert
    # P_M + (1 - P_M) between A and B:
    #   (1-P_N) AB P_{N-N^a} = (1-P_N) A P_M . B P_{N-N^a}
    #                        + (1-P_N) A . (1-P_M) B P_{N-N^a}
    #   P_{N-N^a} AB (1-P_N) = P_{N-N^a} A . P_M B (1-P_N)
    #                        + P_{N-N^a} A (1-P_M) . B (1-P_N)
    # Since P_M <= P_{N-N^b} and P_{N-N^a} <= P_{M-M^b}, each product has
    # one factor inside a b-corner at level N or M, and the other factor
    # has norm <= ||A|| or ||B||.  With b1, b2 the two block norms of
    # corner_seminorm at exponent b and U_i = norm_upper(f_i) >= ||lambda(f_i)||:
    #   rho_{a,q}(f1*f2, N) <= N^q [(b1(f1,N) + b2(f1,M)) U2
    #                               + U1 (b1(f2,M) + b2(f2,N))]
    # The proof uses only nested projections, so it holds for every pair
    # and every length.  The level hypothesis is decided in exact
    # arithmetic; u = ceil(M^b) >= M^b makes the test of N - N^a <= M - M^b
    # sufficient, so every level it admits satisfies the hypothesis.
    alpha, q = Fraction(1, 2), 1
    beta = alpha / 2

    def blocks(f, level):
        res = corner_seminorm(dihedral, f, level, alpha=beta, q=q)
        return res.block1_norm, res.block2_norm

    literal_breaks = 0
    levels = 0
    nonzero = 0
    worst = 0.0
    done = 0
    i = 0
    while done < 50:
        rng = spawn_rng(0, 11, i)
        i += 1
        f1 = random_hecke_element(dihedral, rng, radius=3, complex_part=True)
        f2 = random_hecke_element(dihedral, rng, radius=3, complex_part=True)
        if f1.is_zero() or f2.is_zero():
            continue
        done += 1
        if not submultiplicativity_check(dihedral, f1, f2, alpha=alpha, q=q).ok:
            literal_breaks += 1
        prod = convolve(dihedral, f1, f2)
        u1 = norm_upper(dihedral, f1)
        u2 = norm_upper(dihedral, f2)
        top = vanishing_threshold(prod.max_support_length(dihedral.length), alpha)
        for n in range(1, top):
            m = n
            while not length_le_n_minus_pow(m, n, beta):
                m -= 1
            if m < 1 or not length_le_pow(n - (m - _root_ceil(m, beta)), n, alpha):
                continue
            b1_f1_n, _ = blocks(f1, n)
            _, b2_f2_n = blocks(f2, n)
            _, b2_f1_m = blocks(f1, m)
            b1_f2_m, _ = blocks(f2, m)
            lhs = corner_seminorm(dihedral, prod, n, alpha=alpha, q=q).value
            rhs = float(n ** q) * (
                (b1_f1_n + b2_f1_m) * u2 + u1 * (b1_f2_m + b2_f2_n)
            )
            assert lhs <= rhs + 1e-9 * max(1.0, rhs), (i, n, m, lhs, rhs)
            levels += 1
            if lhs > 0.0:
                nonzero += 1
                worst = max(worst, lhs / rhs)
    assert nonzero >= 1
    report(
        "criterion 11: PASS - level-wise product estimate held at %d levels "
        "(%d with nonzero lhs) over 50 random pairs, max lhs/rhs=%.3f; "
        "literal form broken on %d pairs (not asserted)"
        % (levels, nonzero, worst, literal_breaks)
    )


def test_criterion_12_sobolev_scale_inequalities(pairs):
    count = 0
    for j, name in enumerate(("dihedral", "finite_index", "semidirect")):
        pair = pairs[name]
        rng = spawn_rng(SEED, 12, j)
        for _ in range(25):
            f = random_hecke_element(pair, rng, radius=4, complex_part=True)
            reports = {s: norms(f, s=s) for s in (0, 1, 2)}
            for s in (0, 1, 2):
                assert reports[s].exact
                assert reports[s].prime_sq <= reports[s].sobolev_sq, (name, s)
            for s, t in ((0, 1), (0, 2), (1, 2)):
                assert reports[s].sobolev_sq <= reports[t].sobolev_sq
                assert reports[s].prime_sq <= reports[t].prime_sq
            count += 1
    report(
        "criterion 12: PASS - prime <= plain and s-monotone Sobolev norms, "
        "exact rational comparisons on %d samples" % count
    )
