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
    decompose_double_coset,
    enumerate_ball,
    norm_lower,
    norm_upper,
    spawn_rng,
    top_singular_value,
)
from heckepairs.diagnostics import K_FACTOR, K_FACTOR_CHAR
from heckepairs.jolissaint import _window
from heckepairs import operators
from heckepairs.operators import SparseOperator, _grid


def sigma(pair, n, coeff=1):
    return HeckeElement.delta(pair, DihedralElement(n, 1), coeff=coeff)


def sparse(a):
    """Every entry of the dense array a, zeros included, as a SparseOperator."""
    rows, cols = np.indices(a.shape).reshape(2, -1)
    return SparseOperator(rows, cols, a.reshape(-1), a.shape)


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
            value, _, _, converged = top_singular_value(sparse(a))
            assert converged
            assert value == pytest.approx(want, abs=2e-8)

    def test_matches_lapack_on_random_complex(self):
        rng = spawn_rng(3, 3)
        for n in (4, 66):
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = np.linalg.svd(a, compute_uv=False)[0]
            value, _, _, converged = top_singular_value(sparse(a))
            assert converged
            assert value == pytest.approx(want, abs=2e-8)

    def test_ones_vector_as_non_top_eigenvector(self):
        # symmetric circulant with first row (1, -1, 0, ..., 0, -1): the
        # all-ones vector is an exact eigenvector for -1, the top is 3
        n = 100
        row = np.zeros(n)
        row[[0, 1, -1]] = (1.0, -1.0, -1.0)
        a = np.array([np.roll(row, k) for k in range(n)])
        value, _, _, converged = top_singular_value(sparse(a))
        assert converged
        assert value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], abs=1e-9)

    def test_step_cap_reports_unconverged_lower_bound(self, monkeypatch):
        monkeypatch.setattr(operators, "MAX_ITER", 5)
        a = spawn_rng(3, 7).standard_normal((300, 300))
        value, iterations, residual, converged = top_singular_value(sparse(a))
        assert (iterations, converged) == (5, False)
        assert residual > 0
        assert 0 < value <= np.linalg.svd(a, compute_uv=False)[0]

    def test_zero_and_empty(self):
        assert top_singular_value(sparse(np.zeros((3, 3))))[0] == 0.0
        for shape in ((6, 9), (0, 0), (0, 4), (4, 0)):
            assert block_operator_norm(np.zeros(shape)) == 0.0

    def test_rank_one(self):
        u = np.array([[3.0], [4.0]])
        assert top_singular_value(sparse(u @ u.T))[0] == pytest.approx(25.0)

    @pytest.mark.parametrize("complex_part", [False, True])
    def test_block_norm_drops_zero_rows_and_columns_exactly(self, complex_part):
        # corner blocks are mostly zero rows and columns; deleting them must
        # leave the top singular value of the whole block
        rng = spawn_rng(3, 11)
        for m, n in ((40, 30), (120, 72), (5, 200), (1, 1)):
            a = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.02)
            if complex_part:
                a = a + 1j * rng.standard_normal((m, n)) * (a != 0)
            a[0, 0] = 1.5  # at least one entry
            want = np.linalg.svd(a, compute_uv=False)[0]
            assert abs(block_operator_norm(a) - want) <= 1e-14 * want

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

    @pytest.mark.parametrize("exp", [154, 155])
    def test_operator_for_float_range_boundary(self, dihedral, exp):
        # the solvers square entries: |c|^2 = 10^308 fits a double, 10^310 not
        from heckepairs import ConfigError

        f = sigma(dihedral, 1, coeff=10 ** exp)
        dom = enumerate_ball(dihedral, dihedral.length, 1).right
        cod = enumerate_ball(dihedral, dihedral.length, 2).right
        table = ActionTable(dihedral, f.support, dom, cod)
        if exp == 154:
            op = table.operator_for(f)
            assert op.vals.dtype == np.float64 and set(op.vals) == {1e154}
        else:
            with pytest.raises(ConfigError, match="float range"):
                table.operator_for(f)

    @pytest.mark.parametrize("norm", ["l1_norm", "norms", "norm_upper", "operator_for"])
    def test_float_norms_share_one_range_check(self, dihedral, norm):
        # |c|^2 = 10^400 has no float: each float norm raises ConfigError,
        # not OverflowError, and says why
        from heckepairs import ConfigError, l1_norm, norms

        f = HeckeElement.delta(dihedral, DihedralElement(2, 1), coeff=10 ** 200)
        ball = enumerate_ball(dihedral, dihedral.length, 2).right
        call = {
            "l1_norm": lambda: l1_norm(f),
            "norms": lambda: norms(f),
            "norm_upper": lambda: norm_upper(dihedral, f),
            "operator_for": lambda: ActionTable(dihedral, f.support, ball.prefix(0),
                                                ball).operator_for(f),
        }[norm]
        with pytest.raises(ConfigError, match="past the float range"):
            call()

    def test_schur_bound_past_the_float_range_raises(self, dihedral):
        # each |c|^2 = 10^308 fits a float, ||f||_1 ||f*||_1 = 4 * 10^308 not
        from heckepairs import ConfigError

        f = HeckeElement.delta(dihedral, DihedralElement(2, 1), coeff=10 ** 154)
        with pytest.raises(ConfigError, match="past the float range"):
            norm_upper(dihedral, f)

    def test_norms_past_the_float_range_raise(self, dihedral):
        # ||f||_2^2 = 2 * 10^308 has no float
        from heckepairs import ConfigError, norms

        f = HeckeElement.delta(dihedral, DihedralElement(2, 1), coeff=10 ** 154)
        with pytest.raises(ConfigError, match="past the float range"):
            norms(f)

    @pytest.mark.parametrize("coeff, s", [(1, 1000.5), (10 ** 150, 100.5)],
                             ids=["float-power", "float-sum"])
    def test_norms_float_path_past_the_float_range_raises(self, dihedral, coeff, s):
        # a non-integer s takes the float path. There (1 + 3)^2001 overflows
        # the float power itself; and |c|^2 = 10^300 and the weight 4^201
        # each fit a float while their product turns inf without an error
        from heckepairs import ConfigError, norms

        f = HeckeElement.delta(dihedral, DihedralElement(3, 1), coeff=coeff)
        with pytest.raises(ConfigError, match="^a norm of f is past the float range$"):
            norms(f, s=s)

    def test_bracket_past_the_float_range_fails_before_the_solve(self, dihedral,
                                                                 monkeypatch):
        from heckepairs import ConfigError

        def solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(operators, "top_singular_value", solve)
        f = HeckeElement.delta(dihedral, DihedralElement(2, 1), coeff=10 ** 154)
        with pytest.raises(ConfigError, match="past the float range"):
            norm_lower(dihedral, f, radius=2)

    def test_overflowed_sigma_is_not_converged(self, dihedral, monkeypatch):
        # sigma^2 = 8 * 10^308 overflows, so the Gram test would read inf <= inf
        f = HeckeElement.delta(dihedral, DihedralElement(2, 1), coeff=10 ** 154)
        cod = enumerate_ball(dihedral, dihedral.length, 4).right
        op = ActionTable(dihedral, f.support, cod.prefix(2), cod).operator_for(f)
        monkeypatch.setattr(operators, "MAX_ITER", 3)
        with np.errstate(over="ignore", invalid="ignore"):
            value, iterations, _, converged = top_singular_value(op)
        assert (value, iterations, converged) == (math.inf, 3, False)

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
        out[dk] = (rows, cols)
    return out


def _assert_same_tables(got, want):
    assert list(got) == list(want)
    for dk, (rows, cols) in want.items():
        assert got[dk][0].dtype == got[dk][1].dtype == np.int64
        assert np.array_equal(got[dk][0], rows), dk
        assert np.array_equal(got[dk][1], cols), dk


def _check_coordinate_table(pair, dkeys, dom, cod, allow_missing=False):
    """The grid-indexed table, checked against the scalar path and the oracle."""
    table = ActionTable(pair, dkeys, dom, cod, allow_missing=allow_missing)
    scalar = ActionTable(_scalar_twin(pair), dkeys, dom, cod, allow_missing=allow_missing)
    _assert_same_tables(table.tables, scalar.tables)
    _assert_same_tables(table.tables, _shift_oracle(pair, dkeys, dom, cod))
    _assert_cols_never_decrease(table)
    return table


def _assert_cols_never_decrease(table):
    # ActionTable stores each double's entries column-major
    for _, cols in table.tables.values():
        assert np.all(np.diff(cols) >= 0)


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
        grid = _grid(pair.coset_coords([k.rep for k in cod.keys]))
        assert (grid is None) == (rank == 10)
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


class TestSharedColumns:
    """A table that kept every row stores the cols of its width once; a
    table with misses keeps its own masked copy."""

    @staticmethod
    def _table(cod_radius, allow_missing=False):
        pair = build_pair("semidirect", {"rank": 2, "action": "swap"})
        L = pair.length
        dkeys = enumerate_ball(pair, L, 3).double.keys
        dom = enumerate_ball(pair, L, 4).right
        cod = enumerate_ball(pair, L, cod_radius).right
        return pair, dkeys, dom, ActionTable(pair, dkeys, dom, cod,
                                             allow_missing=allow_missing)

    def test_full_tables_of_one_width_share_a_read_only_array(self):
        _, _, dom, table = self._table(7)
        by_width = {}
        for dk, (_, cols) in table.tables.items():
            by_width.setdefault(table.widths[dk], []).append(cols)
        # the swap pair has doubles of degree 1 (on the diagonal) and 2
        assert sorted(by_width) == [1, 2]
        for w, arrays in by_width.items():
            assert len(arrays) >= 2
            assert all(cols is arrays[0] for cols in arrays)
            assert not arrays[0].flags.writeable
            assert np.array_equal(arrays[0], np.repeat(np.arange(len(dom)), w))
            with pytest.raises(ValueError, match="read-only"):
                arrays[0][0] = 1
        assert by_width[1][0] is not by_width[2][0]

    def test_a_partial_table_keeps_its_own_cols(self):
        # the identity double keeps every row of the radius-4 domain; the
        # others send its rim past radius 5
        pair, _, dom, table = self._table(5, allow_missing=True)
        partial = [dk for dk, w in table.widths.items() if w is None]
        assert partial and len(partial) < len(table.tables)
        for dk in partial:
            rows, cols = table.tables[dk]
            assert cols.flags.writeable
            assert len(rows) == len(cols) < len(dom) * len(decompose_double_coset(pair, dk.rep))
            assert not any(np.shares_memory(cols, other[1])
                           for ok, other in table.tables.items() if ok != dk)

    def test_operator_and_matrix_copy_the_shared_columns(self):
        pair, dkeys, dom, table = self._table(7)
        f = HeckeElement(pair, [(dk, QQi(i + 1)) for i, dk in enumerate(dkeys)])
        op = table.operator_for(f)
        assert op.cols.flags.writeable
        assert not any(np.shares_memory(op.cols, cols) for _, cols in table.tables.values())
        dense = np.zeros(op.shape)
        for i, dk in enumerate(dkeys):
            rows, cols = table.tables[dk]
            dense[rows, cols] += i + 1
        assert np.array_equal(table.matrix_for(f), dense)


def _matvec_oracle(pair, coeffs, vec, dom, cod):
    """lambda(f) k from coset products alone: delta_D sends Hx to every
    H a x for Ha in D, and no ActionTable is read."""
    out = [0] * len(cod)
    for dk, c in coeffs.items():
        for a in decompose_double_coset(pair, dk.rep):
            for x, v in zip(dom.keys, vec.tolist()):
                out[cod._slots[pair.coset_rep(a.rep * x.rep)]] += c * v
    return out


class TestMatvecInt:
    @pytest.mark.parametrize("name", ["semidirect", "dihedral"])  # grid, coset_rep
    def test_matches_coset_product_oracle(self, name):
        # the scan's shapes at r = 2: deltas of the radius-r double ball acting
        # on a 5r window of the (5r + r)-ball
        pair = build_pair(name)
        L, r = pair.length, 2
        dkeys = enumerate_ball(pair, L, r).double.keys
        cod = enumerate_ball(pair, L, K_FACTOR_CHAR * r + r).right
        dom = cod.prefix(K_FACTOR_CHAR * r)
        table = ActionTable(pair, dkeys, dom, cod)
        _assert_cols_never_decrease(table)
        rng = np.random.default_rng(0)
        coeffs = {k: int(c) for k, c in zip(dkeys, rng.integers(1, 6, len(dkeys)))}
        dom_len = np.array([float(k.length) for k in dom.keys])
        masked = rng.integers(1, 6, len(dom)) * (dom_len <= K_FACTOR * r)
        assert masked[0] and not masked[-1]  # its zeros are a proper suffix
        interior = rng.integers(0, 6, len(dom))
        interior[::3] = 0
        interior[-1] = 7
        zero = np.zeros(len(dom), dtype=np.int64)
        for cs, vec in ((coeffs, masked), (coeffs, interior), (coeffs, zero),
                        ({}, interior)):
            vec = vec.astype(np.int64)
            got = table.matvec_int(cs, vec)
            assert got.dtype == np.int64
            assert got.tolist() == _matvec_oracle(pair, cs, vec, dom, cod)
        assert table.matvec_int(coeffs, masked.astype(np.int64)).any()

    # limit keeps the first doubles of the ball: None all of them, 1 only
    # the trivial double H, whose delta acts as the identity
    @pytest.mark.parametrize("name, limit", [
        ("semidirect", None), ("semidirect", 1), ("dihedral", None), ("dihedral", 1)])
    def test_batched_scatter_matches_coset_product_oracle(self, name, limit):
        # matvec_int scatters every picked double's table into one output
        # vector; at r = 4 several doubles land on the same right cosets
        pair = build_pair(name)
        L, r = pair.length, 4
        dkeys = enumerate_ball(pair, L, r).double.keys[:limit]
        cod = enumerate_ball(pair, L, K_FACTOR_CHAR * r + r).right
        dom = cod.prefix(K_FACTOR_CHAR * r)
        table = ActionTable(pair, dkeys, dom, cod)
        ones = np.ones(len(dom), dtype=np.int64)
        every = {k: 1 + i % 3 for i, k in enumerate(dkeys)}
        for cs in (every, {dkeys[-1]: 5}, {}):
            got = table.matvec_int(cs, ones)
            assert got.dtype == np.int64
            assert got.tolist() == _matvec_oracle(pair, cs, ones, dom, cod)
        if limit == 1:
            assert table.matvec_int(every, ones).tolist() == (
                ones.tolist() + [0] * (len(cod) - len(dom)))

    @pytest.mark.parametrize("name", ["semidirect", "dihedral"])
    def test_table_with_missing_rows_is_refused(self, name):
        # a codomain no larger than the domain drops images, so the table
        # holds only part of lambda(f) and a product would be truncated
        pair = build_pair(name)
        L = pair.length
        dkeys = enumerate_ball(pair, L, 2).double.keys
        dom = enumerate_ball(pair, L, 6).right
        table = ActionTable(pair, dkeys, dom, dom, allow_missing=True)
        vec = np.ones(len(dom), dtype=np.int64)
        with pytest.raises(ValueError, match="kept every row"):
            table.matvec_int({k: 1 for k in dkeys}, vec)
