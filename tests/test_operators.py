"""Operator norm brackets, truncated matrices, and singular value engine."""

import copy
import math
from fractions import Fraction

import numpy as np
import pytest

from heckepairs import (
    ActionTable,
    BallIndex,
    DihedralElement,
    HeckeElement,
    IntegerElement,
    PairSanityError,
    QQi,
    SemidirectElement,
    UnsupportedLengthError,
    apply_regular_rep,
    block_operator_norm,
    build_pair,
    coset_key,
    enumerate_ball,
    norm_lower,
    norm_upper,
    spawn_rng,
    top_singular_value,
)
from heckepairs.jolissaint import _window
from heckepairs.operators import _grid_slots


def sigma(pair, n, coeff=1):
    return HeckeElement.delta(pair, DihedralElement(n, 1), coeff=coeff)


class TestBrackets:
    def test_identity_element_bracket(self, dihedral):
        e = HeckeElement.delta(dihedral, dihedral.identity)
        b = norm_lower(dihedral, e, radius=2)
        assert b.lower == pytest.approx(1.0, abs=1e-9)
        assert norm_upper(dihedral, e) == pytest.approx(1.0)

    def test_sigma_one_lower_matches_path_spectrum(self, dihedral):
        # [DERIVED] lambda(sigma_1) truncated to the 5-coset ball of radius
        # 2 is the adjacency operator of a path on 5 vertices; its top
        # singular value is 2 cos(pi / 8)
        b = norm_lower(dihedral, sigma(dihedral, 1), radius=2)
        assert b.lower == pytest.approx(2 * math.cos(math.pi / 8), abs=1e-8)
        assert b.method == "gkl/ball"
        assert b.converged

    def test_sigma_one_upper(self, dihedral):
        # Schur bound sqrt(||f||_1 ||f*||_1) = 2 is the true norm here
        assert norm_upper(dihedral, sigma(dihedral, 1)) == pytest.approx(2.0)

    def test_lower_monotone_in_radius(self, dihedral):
        rng = spawn_rng(3, 0)
        from heckepairs import random_hecke_element

        for _ in range(10):
            f = random_hecke_element(dihedral, rng, complex_part=True)
            if f.is_zero():
                continue
            prev = 0.0
            for r in (1, 2, 4, 6):
                b = norm_lower(dihedral, f, radius=r)
                assert b.lower >= prev - 1e-9
                assert b.lower <= norm_upper(dihedral, f) + 1e-9
                prev = b.lower

    def test_two_sided_translation_closed_form(self, finite_index):
        # on the two-coset space lambda(a d_0 + b d_1) acts as a 2x2
        # circulant with eigenvalues a + b and a - b
        rng = spawn_rng(3, 1)
        for _ in range(25):
            a = int(rng.integers(-5, 6))
            b = int(rng.integers(-5, 6))
            f = HeckeElement.delta(finite_index, IntegerElement(0), coeff=a) + \
                HeckeElement.delta(finite_index, IntegerElement(1), coeff=b)
            if f.is_zero():
                continue
            got = norm_lower(finite_index, f, radius=3).lower
            assert got == pytest.approx(max(abs(a + b), abs(a - b)), abs=1e-8)

    def test_circulant_needs_second_phase(self, finite_index):
        # a = 1, b = -1 annihilates the all-ones vector, so a solver
        # started there alone would report zero
        f = HeckeElement.delta(finite_index, IntegerElement(0)) + \
            HeckeElement.delta(finite_index, IntegerElement(1), coeff=-1)
        got = norm_lower(finite_index, f, radius=3)
        assert got.lower == pytest.approx(2.0, abs=1e-8)

    def test_semidirect_radius_20_matches_lapack(self, semidirect):
        # a plain Gram iteration stalls here; the solver must converge
        f = HeckeElement.delta(semidirect, SemidirectElement((3, 1), 0, "swap")) + \
            HeckeElement.delta(semidirect, SemidirectElement((1, 0), 0, "swap"), coeff=2)
        b = norm_lower(semidirect, f, radius=20)
        L = semidirect.length
        dom = enumerate_ball(semidirect, L, 20).right
        cod = enumerate_ball(semidirect, L, 20 + f.max_support_length(L)).right
        mat = ActionTable(semidirect, f.support, dom, cod).matrix_for(f)
        want = np.linalg.svd(mat, compute_uv=False)[0]
        assert b.converged
        assert abs(b.lower - want) <= 1e-9 * want

    def test_reachable_fallback_on_lengthless_pair(self, bost_connes):
        from heckepairs import AxbElement

        f = HeckeElement.delta(bost_connes, AxbElement(Fraction(3, 2), 0))
        b = norm_lower(bost_connes, f, radius=2)
        assert b.method == "gkl/reachable"
        assert 0 < b.lower <= b.upper + 1e-9

    def test_reachable_fallback_for_a_length_without_a_ball(self, gl2q):
        # log-det-prim is not locally finite: the ball is refused, so the
        # bracket is the same as the one with no length at all
        from heckepairs import MatrixElement

        f = HeckeElement.delta(gl2q, MatrixElement(((1, 0), (0, 2))))
        b = norm_lower(gl2q, f, length=gl2q.candidate_lengths["log-det-prim"], radius=2)
        assert b.method == "gkl/reachable"
        assert b.lower == norm_lower(gl2q, f, radius=2).lower
        assert b.lower == pytest.approx(math.sqrt(6), rel=1e-12)
        assert b.upper == 3

    def test_upper_mixes_both_involution_sides(self, bost_connes):
        from heckepairs import AxbElement

        f = HeckeElement.delta(bost_connes, AxbElement(Fraction(3, 2), 0))
        from heckepairs import l1_norm

        want = math.sqrt(l1_norm(f) * l1_norm(f.involution()))
        assert norm_upper(bost_connes, f) == pytest.approx(want)


class TestSingularValues:
    def test_matches_lapack_on_random_real(self):
        rng = spawn_rng(3, 2)
        for n, m in ((3, 3), (5, 2), (8, 8), (70, 70), (80, 3)):
            a = rng.standard_normal((n, m))
            want = np.linalg.svd(a, compute_uv=False)[0]
            value, _, _, converged = top_singular_value(a)
            assert converged
            assert value == pytest.approx(want, abs=2e-8)

    def test_matches_lapack_on_random_complex(self):
        rng = spawn_rng(3, 3)
        for n in (4, 66):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = np.linalg.svd(a, compute_uv=False)[0]
            value, _, _, converged = top_singular_value(a)
            assert converged
            assert value == pytest.approx(want, abs=2e-8)

    def test_ones_vector_as_non_top_eigenvector(self):
        # symmetric circulant with first row (1, -1, 0, ..., 0, -1): the
        # all-ones vector is an exact eigenvector for -1, the top is 3
        n = 100
        row = np.zeros(n)
        row[[0, 1, -1]] = (1.0, -1.0, -1.0)
        a = np.array([np.roll(row, k) for k in range(n)])
        value, _, _, converged = top_singular_value(a)
        assert converged
        assert value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], abs=1e-9)

    def test_step_cap_reports_unconverged_lower_bound(self):
        a = spawn_rng(3, 7).standard_normal((300, 300))
        value, iterations, residual, converged = top_singular_value(a, max_iter=5)
        assert (iterations, converged) == (5, False)
        assert residual > 0
        assert 0 < value <= np.linalg.svd(a, compute_uv=False)[0]

    def test_zero_and_empty(self):
        assert top_singular_value(np.zeros((3, 3)))[0] == 0.0
        assert block_operator_norm(np.zeros((0, 4))) == 0.0

    def test_rank_one(self):
        u = np.array([[3.0], [4.0]])
        assert top_singular_value(u @ u.T)[0] == pytest.approx(25.0)

    def test_block_norm_on_tall_matrix(self):
        rng = spawn_rng(3, 4)
        a = rng.standard_normal((90, 7))
        want = np.linalg.svd(a, compute_uv=False)[0]
        assert block_operator_norm(a) == pytest.approx(want, abs=2e-8)


class TestActionTable:
    def test_matvec_matches_regular_rep(self, dihedral):
        rng = spawn_rng(3, 5)
        from heckepairs import random_hecke_element, random_l2_vector

        dom = enumerate_ball(dihedral, dihedral.length, 3).right
        cod = enumerate_ball(dihedral, dihedral.length, 6).right
        for _ in range(10):
            f = random_hecke_element(dihedral, rng, radius=3, complex_part=True)
            xi = random_l2_vector(dihedral, rng, radius=3, complex_part=True)
            if f.is_zero() or xi.is_zero():
                continue
            table = ActionTable(dihedral, f.support, dom, cod)
            mat = table.matrix_for(f)
            vec = np.array(
                [complex(xi.coefficient(k)) for k in dom.keys]
            )
            got = mat @ vec
            want = apply_regular_rep(dihedral, f, xi)
            for i, k in enumerate(cod.keys):
                assert got[i] == pytest.approx(
                    complex(want.coefficient(k)), abs=1e-12
                )

    def test_sparse_apply_matches_dense_matrix(self, dihedral):
        f = sigma(dihedral, 1, coeff=QQi(2, -3)) + sigma(dihedral, 2, coeff=QQi(0, 1))
        dom = enumerate_ball(dihedral, dihedral.length, 3).right
        cod = enumerate_ball(dihedral, dihedral.length, 5).right
        table = ActionTable(dihedral, f.support, dom, cod)
        op, mat = table.operator_for(f), table.matrix_for(f)
        rng = spawn_rng(3, 8)
        x = rng.standard_normal(len(dom)) + 1j * rng.standard_normal(len(dom))
        y = rng.standard_normal(len(cod)) + 1j * rng.standard_normal(len(cod))
        assert np.allclose(op.matvec(x), mat @ x, rtol=0, atol=1e-12)
        assert np.allclose(op.rmatvec(y), mat.conj().T @ y, rtol=0, atol=1e-12)

    def test_missing_codomain_raises_without_flag(self, dihedral):
        from heckepairs import UnsupportedLengthError

        f = sigma(dihedral, 2)
        dom = enumerate_ball(dihedral, dihedral.length, 2).right
        small_cod = enumerate_ball(dihedral, dihedral.length, 2).right
        with pytest.raises(UnsupportedLengthError):
            ActionTable(dihedral, f.support, dom, small_cod)
        # allow_missing drops the escaping columns instead
        table = ActionTable(dihedral, f.support, dom, small_cod, allow_missing=True)
        assert table.matrix_for(f).shape == (len(small_cod.keys), len(dom.keys))

    def test_real_input_gives_real_matrix(self, dihedral):
        f = sigma(dihedral, 1, coeff=QQi(Fraction(1, 2)))
        dom = enumerate_ball(dihedral, dihedral.length, 1).right
        cod = enumerate_ball(dihedral, dihedral.length, 2).right
        mat = ActionTable(dihedral, f.support, dom, cod).matrix_for(f)
        assert mat.dtype == np.float64


class TestTruncate:
    def test_shapes(self, dihedral):
        # norm_lower compresses lambda(sigma_2) to the radius-3 ball (7
        # cosets) and pads the codomain by the support length 2 (11 cosets)
        b = norm_lower(dihedral, sigma(dihedral, 2), radius=3)
        assert (b.domain_size, b.codomain_size) == (7, 11)


def _scalar_twin(pair):
    # the same pair without its coordinate hook, so ActionTable takes the
    # coset_rep path
    twin = copy.copy(pair)
    twin.coset_coords = None
    return twin


def _shift_oracle(pair, dkeys, dom, cod):
    """Closed form: delta_D with D = H(v,0)H sends coset w to w + v and
    w + alpha(v), in the order of the sorted right-coset vectors of D."""
    if pair.params["action"] == "negate":
        alpha = lambda u: tuple(-x for x in u)  # noqa: E731
    else:
        alpha = lambda u: u[::-1]  # noqa: E731
    slot = {k.rep.vec: i for i, k in enumerate(cod.keys)}
    out = {}
    for dk in dkeys:
        v = dk.rep.vec
        rows, cols = [], []
        for j, k in enumerate(dom.keys):
            for u in sorted({v, alpha(v)}):
                i = slot.get(tuple(a + b for a, b in zip(k.rep.vec, u)))
                if i is not None:
                    rows.append(i)
                    cols.append(j)
        out[dk.rep] = (rows, cols)
    return out


def _assert_same_tables(got, want):
    assert list(got) == list(want)
    for rep, (rows, cols) in want.items():
        assert got[rep][0].dtype == got[rep][1].dtype == np.int64
        assert np.array_equal(got[rep][0], rows), rep
        assert np.array_equal(got[rep][1], cols), rep


def _check_coordinate_table(pair, dkeys, dom, cod, allow_missing=False):
    """The grid-indexed table, checked against the scalar path and the oracle."""
    table = ActionTable(pair, dkeys, dom, cod, allow_missing=allow_missing)
    scalar = ActionTable(_scalar_twin(pair), dkeys, dom, cod, allow_missing=allow_missing)
    _assert_same_tables(table.tables, scalar.tables)
    _assert_same_tables(table.tables, _shift_oracle(pair, dkeys, dom, cod))
    return table


def _entries(table):
    return sum(len(rows) for rows, _ in table.tables.values())


class TestCoordinateTables:
    @pytest.mark.parametrize("action", ["swap", "negate"])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_tables_match_scalar_path_and_shift_oracle(self, rank, action):
        pair = build_pair("semidirect", {"rank": rank, "action": action})
        L = pair.length
        dkeys = enumerate_ball(pair, L, 3).double.keys
        dom = enumerate_ball(pair, L, 4).right
        full = _check_coordinate_table(pair, dkeys, dom, enumerate_ball(pair, L, 7).right)
        # an empty codomain, and a radius-2 one whose box the translates of
        # the radius-4 domain leave in part
        empty, small = (
            _check_coordinate_table(pair, dkeys, dom, cod, allow_missing=True)
            for cod in (BallIndex(0, ()), enumerate_ball(pair, L, 2).right))
        assert _entries(full) > _entries(small) > _entries(empty) == 0

    @pytest.mark.parametrize("action", ["swap", "negate"])
    @pytest.mark.parametrize("rank", [8, 10])
    def test_high_rank_boxes_match_scalar_path(self, rank, action):
        # the radius-2 ball has 145 keys at rank 8, in a box of 5^8 cells
        # (3 MB of grid); at rank 10 it has 221 keys and the 5^10-cell box is
        # over the cap, so no grid is built and the rows come from coset_rep
        pair = build_pair("semidirect", {"rank": rank, "action": action})
        L = pair.length
        cod = enumerate_ball(pair, L, 2).right
        slots = _grid_slots(pair.coset_coords([k.rep for k in cod.keys]))
        assert (slots is None) == (rank == 10)
        table = _check_coordinate_table(pair, enumerate_ball(pair, L, 1).double.keys,
                                        enumerate_ball(pair, L, 1).right, cod)
        assert _entries(table) > 0

    def test_grid_refuses_a_collapsed_hook(self):
        pair = copy.copy(build_pair("semidirect"))
        coords = pair.coset_coords
        # all zeros add up, so only the grid sees two cosets share a row
        pair.coset_coords = lambda reps: 0 * coords(reps)
        L = pair.length
        with pytest.raises(PairSanityError, match="one coordinate row"):
            ActionTable(pair, enumerate_ball(pair, L, 1).double.keys,
                        enumerate_ball(pair, L, 1).right, enumerate_ball(pair, L, 2).right)

    @pytest.mark.parametrize("action", ["swap", "negate"])
    def test_corner_windows_drop_missing_rows_like_scalar_path(self, action):
        pair = build_pair("semidirect", {"rank": 2, "action": action})
        L = pair.length
        n, alpha, ell = 16, Fraction(1, 2), 6
        dkeys = [k for k in enumerate_ball(pair, L, ell).double.keys if k.length == ell]
        ball = enumerate_ball(pair, L, n + ell).right
        cols = _window(ball, Fraction(n - ell), n, alpha)
        rows = _window(ball, Fraction(n), n, alpha, shift=Fraction(ell))
        assert len(cols) and len(rows)
        for dom, cod in ((cols, rows), (rows, cols)):
            table = _check_coordinate_table(pair, dkeys, dom, cod, allow_missing=True)
            # some images leave the window, so fewer than two per (D, column)
            assert 0 < _entries(table) < 2 * len(dkeys) * len(dom)
            with pytest.raises(UnsupportedLengthError):
                ActionTable(pair, dkeys, dom, cod)

    @pytest.mark.parametrize("name", ["semidirect", "dihedral"])
    def test_building_a_table_leaves_the_action_cache_empty(self, name):
        pair = build_pair(name)
        L = pair.length
        table = ActionTable(pair, enumerate_ball(pair, L, 2).double.keys,
                            enumerate_ball(pair, L, 3).right,
                            enumerate_ball(pair, L, 5).right)
        assert _entries(table) > 0
        assert pair.action_cache == {}
