"""Group backends against independent matrix oracles, and length axioms."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import heckepairs
from heckepairs import (
    AxbElement,
    BackendMismatchError,
    DihedralElement,
    MatrixElement,
    SemidirectElement,
    dihedral_abs_length,
    spawn_rng,
    validate_length,
)
from heckepairs.groups import LengthFunction, coordinate_sum_length


def dihedral_to_matrix(g):
    # (n, eps) acts on x as x -> eps*x + n, i.e. [[eps, n], [0, 1]]
    return MatrixElement(((g.eps, g.n), (0, 1)))


def axb_to_matrix(g):
    # the composition convention matches [[1, b], [0, a]]
    return MatrixElement(((1, g.b), (0, g.a)))


def random_dihedral(rng):
    return DihedralElement(int(rng.integers(-20, 21)), 1 if rng.integers(2) else -1)


def random_axb(rng):
    a = Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
    b = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 9)))
    return AxbElement(a, b)


class TestDihedralLaw:
    def test_matches_affine_matrix_oracle(self):
        rng = spawn_rng(0, 1)
        for _ in range(200):
            g, h = random_dihedral(rng), random_dihedral(rng)
            assert dihedral_to_matrix(g * h) == dihedral_to_matrix(g) * dihedral_to_matrix(h)

    def test_inverse_and_identity(self):
        rng = spawn_rng(0, 2)
        e = DihedralElement(0, 1)
        for _ in range(100):
            g = random_dihedral(rng)
            assert g * g.inv() == e
            assert g.inv() * g == e
            assert dihedral_to_matrix(g.inv()) == dihedral_to_matrix(g).inv()

    def test_flip_conjugation_negates(self):
        t = DihedralElement(0, -1)
        g = DihedralElement(5, 1)
        assert t * g * t == DihedralElement(-5, 1)


class TestAxbLaw:
    def test_matches_matrix_oracle(self):
        rng = spawn_rng(0, 3)
        for _ in range(200):
            g, h = random_axb(rng), random_axb(rng)
            assert axb_to_matrix(g * h) == axb_to_matrix(g) * axb_to_matrix(h)
            assert axb_to_matrix(g.inv()) == axb_to_matrix(g).inv()

    def test_acts_on_points_compatibly(self):
        # the product composes maps x -> a x + b acting on the right:
        # x.(g*h) == (x.g).h
        rng = spawn_rng(0, 4)
        x = Fraction(3, 7)
        for _ in range(100):
            g, h = random_axb(rng), random_axb(rng)
            eval_ = lambda m, t: m.a * t + m.b
            assert eval_(g * h, x) == eval_(h, eval_(g, x))

    def test_rejects_nonpositive_slope(self):
        with pytest.raises(ValueError):
            AxbElement(0, 1)
        with pytest.raises(ValueError):
            AxbElement(-2, 0)


class TestMatrixElement:
    def test_inverse_exact(self):
        rng = spawn_rng(0, 5)
        e2 = MatrixElement(((1, 0), (0, 1)))
        for _ in range(60):
            rows = [[int(rng.integers(-4, 5)) for _ in range(2)] for _ in range(2)]
            det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
            if det == 0:
                continue
            m = MatrixElement(rows)
            assert m * m.inv() == e2
            assert m.inv() * m == e2

    def test_3x3_inverse_exact(self):
        m = MatrixElement(((1, 2, 0), (0, 1, 3), (0, 0, 1)))
        e3 = MatrixElement(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert m * m.inv() == e3

    def test_singular_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            MatrixElement(((1, 2), (2, 4))).inv()

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            MatrixElement(((1, 0, 0), (0, 1, 0)))


class TestSemidirect:
    def test_swap_action_is_involution(self):
        g = SemidirectElement((3, -1), 1, "swap")
        assert g * g == SemidirectElement((3 + -1, -1 + 3), 0, "swap")

    def test_negate_action(self):
        g = SemidirectElement((2,), 1, "negate")
        h = SemidirectElement((5,), 0, "negate")
        assert g * h == SemidirectElement((2 - 5,), 1, "negate")

    def test_inverse(self):
        rng = spawn_rng(0, 6)
        for action in ("swap", "negate"):
            e = SemidirectElement((0, 0), 0, action)
            for _ in range(50):
                g = SemidirectElement(
                    (int(rng.integers(-5, 6)), int(rng.integers(-5, 6))),
                    int(rng.integers(2)), action,
                )
                assert g * g.inv() == e and g.inv() * g == e

    def test_mixed_actions_rejected(self):
        a = SemidirectElement((1,), 0, "swap")
        b = SemidirectElement((1,), 0, "negate")
        with pytest.raises(BackendMismatchError):
            a * b

    def test_mixed_ranks_rejected(self):
        # zipping a rank-1 vector into a rank-2 one would drop a coordinate
        a = SemidirectElement((1,), 0, "swap")
        b = SemidirectElement((1, 2), 0, "swap")
        with pytest.raises(BackendMismatchError):
            a * b
        with pytest.raises(BackendMismatchError):
            b * a


def test_budget_errors_only_come_from_the_walker():
    # every breadth-first search goes through groups.walk_layers; a budget
    # error raised anywhere else means a hand-rolled walk has come back
    allowed = {("groups.py", "walk_layers")}

    def builds_budget_error(node):
        f = getattr(node, "func", None)
        return (isinstance(f, ast.Name) and f.id == "BudgetExceededError") or (
            isinstance(f, ast.Attribute) and f.attr == "BudgetExceededError")

    def walk(node, scope, path, found):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = scope + (child.name,)
            if isinstance(child, ast.Call) and builds_budget_error(child):
                found.append((path.name, ".".join(scope)))
            walk(child, inner, path, found)

    found = []
    for path in sorted(Path(heckepairs.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), (), path, found)
    # the allowed site must still exist, or the guard checks nothing
    assert sorted(found) == sorted(allowed)


class TestValidateLength:
    def test_abs_length_passes(self):
        L = dihedral_abs_length()
        rng = spawn_rng(0, 8)
        sample = [random_dihedral(rng) for _ in range(20)]
        h = (DihedralElement(0, 1), DihedralElement(0, -1))
        report = validate_length(L, DihedralElement(0, 1), sample, h)
        assert report.ok
        assert report.checks > 0

    def test_signed_translation_fails(self):
        # L((n, eps)) = n is not symmetric under inversion and goes negative
        bad = LengthFunction("signed", lambda g: g.n)
        sample = [DihedralElement(3, 1), DihedralElement(-3, 1)]
        report = validate_length(bad, DihedralElement(0, 1), sample)
        assert not report.ok
        rules = {rule for rule, _, _ in report.failures}
        assert "nonnegative" in rules

    def test_float_length_uses_tolerance(self):
        L = LengthFunction("noisy", lambda g: abs(g.n) + 1e-12, exact=False)
        sample = [DihedralElement(2, 1)]
        assert not validate_length(L, DihedralElement(0, 1), sample).ok
        assert validate_length(L, DihedralElement(0, 1), sample, tol=1e-9).ok

    def test_coordinate_sum_on_semidirect(self):
        L = coordinate_sum_length()
        rng = spawn_rng(0, 9)
        sample = [
            SemidirectElement(
                (int(rng.integers(-5, 6)), int(rng.integers(-5, 6))),
                int(rng.integers(2)), "swap",
            )
            for _ in range(15)
        ]
        e = SemidirectElement((0, 0), 0, "swap")
        h = (e, SemidirectElement((0, 0), 1, "swap"))
        assert validate_length(L, e, sample, h).ok


class TestGeneratingSet:
    def test_classes_never_mix(self):
        # equal keys: only the class tells these two apart
        d, a = DihedralElement(1, 1), AxbElement(1, 1)
        assert d.key == a.key
        assert d != a and len({d, a}) == 2
        with pytest.raises(BackendMismatchError):
            d * a
