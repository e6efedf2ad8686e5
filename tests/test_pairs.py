"""Catalog pairs: construction, degrees against hand enumerations, lengths."""

import ast
import copy
import re
import sys
import tomllib
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import heckepairs
from heckepairs import (
    AxbElement,
    ConfigError,
    DihedralElement,
    IntegerElement,
    MatrixElement,
    PairSanityError,
    SemidirectElement,
    UnsupportedLengthError,
    build_pair,
    catalog_list,
    degree,
    enumerate_ball,
)
from heckepairs import pairs as pairs_module


def hnf_coset_count(n):
    """Independent oracle for the number of right cosets in the double
    coset of diag(1, n): Hermite forms [[a, b], [0, d]] with a*d = n and
    0 <= b < d, restricted to primitive matrices (entry gcd 1) since an
    imprimitive form has different elementary divisors and lands in a
    different double coset."""
    import math

    total = 0
    for a in range(1, n + 1):
        if n % a:
            continue
        d = n // a
        for b in range(d):
            if math.gcd(math.gcd(a, b), d) == 1:
                total += 1
    return total


class TestCatalog:
    def test_all_six_build(self, pairs):
        assert set(pairs) == {
            "dihedral", "finite_index", "gl2q", "bost_connes", "sl3", "semidirect",
        }
        for pair in pairs.values():
            assert pair.contains(pair.identity)

    def test_catalog_list_covers_catalog(self):
        rows = catalog_list()
        assert len(rows) == 6
        names = {row["name"] for row in rows}
        assert "dihedral" in names and "sl3" in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            build_pair("affine_over_Z")

    def test_dihedral_takes_no_params(self):
        with pytest.raises(ConfigError):
            build_pair("dihedral", {"n_max": 50})


class TestDegrees:
    def test_dihedral_degree_two_off_identity(self, dihedral):
        for n in (1, 2, 7, 100):
            assert degree(dihedral, DihedralElement(n, 1)) == 2
            assert degree(dihedral, DihedralElement(n, -1)) == 2
        assert degree(dihedral, dihedral.identity) == 1
        assert degree(dihedral, DihedralElement(0, -1)) == 1

    def test_finite_index_degree_one(self, finite_index):
        for n in (-3, 0, 1, 5):
            assert degree(finite_index, IntegerElement(n)) == 1

    def test_gl2q_prime_degree_matches_hnf_count(self, gl2q):
        # [DERIVED] deg(diag(1, p)) counts upper triangular forms with
        # determinant p up to row reduction, which is sigma_1(p) = p + 1.
        for p in (2, 3, 5, 7):
            got = degree(gl2q, MatrixElement(((1, 0), (0, p))))
            assert got == hnf_coset_count(p) == p + 1

    def test_gl2q_prime_square(self, gl2q):
        # [DERIVED] primitive Hermite forms with determinant 4:
        # (1,4) gives b in 0..3, (2,2) only b=1, (4,1) only b=0
        assert degree(gl2q, MatrixElement(((1, 0), (0, 4)))) == hnf_coset_count(4) == 6

    def test_bost_connes_scaling_degree(self, bost_connes):
        # [DERIVED] deg((p/q, 0)) is the numerator in lowest terms
        assert degree(bost_connes, AxbElement(Fraction(3, 2), 0)) == 3
        assert degree(bost_connes, AxbElement(Fraction(5, 3), 0)) == 5
        assert degree(bost_connes, AxbElement(Fraction(1, 4), 0)) == 1

    def test_bost_connes_degree_asymmetric(self, bost_connes):
        g = AxbElement(Fraction(3, 2), 0)
        assert degree(bost_connes, g) != degree(bost_connes, g.inv())

    def test_semidirect_degree(self, semidirect):
        assert degree(semidirect, SemidirectElement((2, 3), 0, "swap")) == 2
        assert degree(semidirect, SemidirectElement((1, 1), 0, "swap")) == 1
        assert degree(semidirect, semidirect.identity) == 1


class TestSubgroupStructure:
    def test_sl3_subgroup_is_not_normal(self, sl3):
        # a witness g with g h g^-1 outside H kills normality, which is
        # what makes the pair a genuine Hecke pair rather than a quotient
        found = False
        for g in sl3.h_sample(0) + tuple(
            MatrixElement(rows)
            for rows in [
                ((1, 1, 0), (0, 1, 0), (0, 0, 1)),
                ((1, 0, 0), (0, 1, 1), (0, 0, 1)),
                ((1, 0, 1), (0, 1, 0), (0, 0, 1)),
            ]
        ):
            for h in sl3.h_elements:
                if not sl3.contains(g * h * g.inv()):
                    found = True
        assert found

    def test_sl3_h_has_two_elements(self, sl3):
        assert len(sl3.h_elements) == 2
        t = [h for h in sl3.h_elements if h != sl3.identity][0]
        assert t * t == sl3.identity

    def test_h_sample_lies_in_h(self, pairs):
        for pair in pairs.values():
            sample = pair.h_sample(2)
            assert sample, pair.name
            for h in sample:
                assert pair.contains(h), (pair.name, h)

    def test_finite_index_h_membership(self, finite_index):
        assert finite_index.contains(IntegerElement(4))
        assert not finite_index.contains(IntegerElement(3))


class TestLengths:
    def test_default_lengths_validate(self, pairs):
        for name in ("dihedral", "finite_index", "semidirect"):
            report = pairs[name].validate_length()
            assert report.ok, (name, report.failures)

    def test_lengthless_pairs_expose_candidates_only(self, pairs):
        for name in ("gl2q", "bost_connes"):
            pair = pairs[name]
            assert pair.length is None
            assert pair.candidate_lengths
            for L in pair.candidate_lengths.values():
                with pytest.raises(UnsupportedLengthError, match="no ball enumeration"):
                    enumerate_ball(pair, L, 2)

    def test_gl2q_candidate_validates(self, gl2q):
        # a float-valued length is checked to the 1e-9 slack it implies
        L = gl2q.candidate_lengths["log-det-prim"]
        report = gl2q.validate_length(length=L)
        assert report.ok, report.failures

    def test_dihedral_length_values(self, dihedral):
        L = dihedral.length
        assert L(DihedralElement(7, -1)) == 7
        assert L(DihedralElement(-7, 1)) == 7
        assert L(dihedral.identity) == 0

    def test_semidirect_length_values(self, semidirect):
        L = semidirect.length
        assert L(SemidirectElement((3, -4), 1, "swap")) == 7

    def test_rd_status_labels(self, pairs):
        assert pairs["dihedral"].rd_status == "expected"
        assert pairs["sl3"].rd_status == "non-example"

    def test_no_length_fallback_outside_require_length(self):
        # turning length=None into the pair's length, or refusing, belongs to
        # cosets.require_length; `x or y.length`, or `if x is None: x =
        # y.length`, anywhere else is a second copy of that decision
        allowed = {("cosets.py", "require_length")}

        def is_length(node):
            return isinstance(node, ast.Attribute) and node.attr == "length"

        def is_fallback(node):
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                return any(is_length(v) for v in node.values)
            if isinstance(node, ast.If) and isinstance(node.test, ast.Compare) \
                    and isinstance(node.test.ops[0], ast.Is) \
                    and isinstance(node.test.comparators[0], ast.Constant) \
                    and node.test.comparators[0].value is None:
                return any(isinstance(n, ast.Assign) and is_length(n.value)
                           for n in node.body)
            return False

        def walk(node, scope, path, found):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = scope + (child.name,)
                if is_fallback(child) and (path.name, ".".join(scope)) not in allowed:
                    found.append("%s:%d in %s" % (path.name, child.lineno, ".".join(scope)))
                walk(child, inner, path, found)

        found = []
        for path in sorted(Path(heckepairs.__file__).parent.glob("*.py")):
            walk(ast.parse(path.read_text(encoding="utf-8")), (), path, found)
        assert found == []


class TestCoordinateHooks:
    def test_semidirect_hooks_match_coset_rep(self):
        # coords(H a x) = coords(Ha) + coords(Hx); flip-1 elements take the
        # alpha branch of the canonical rep
        for action, flip in product(("swap", "negate"), (0, 1)):
            pair = build_pair("semidirect", {"rank": 3, "action": action})
            xs = [SemidirectElement(v, 0, action)
                  for v in ((0, 0, 0), (1, -2, 5), (-3, 0, 4))]
            a = SemidirectElement((2, 7, -1), flip, action)
            got = pair.coset_coords([pair.coset_rep(a)]) + pair.coset_coords(xs)
            want = [pair.coset_rep(a * x).vec for x in xs]
            assert got.dtype == np.int64 and got.tolist() == [list(w) for w in want]

    def test_wrong_translation_hook_fails_the_build(self, monkeypatch):
        build = pairs_module._BUILDERS["semidirect"]

        def broken(params):
            pair = build(params)
            coords = pair.coset_coords
            # every coordinate offset by one: coords(Ha) + coords(Hx) is off by one
            pair.coset_coords = lambda reps: coords(reps) + 1
            return pair

        monkeypatch.setitem(pairs_module._BUILDERS, "semidirect", broken)
        with pytest.raises(PairSanityError, match="coordinate translation"):
            build_pair("semidirect")


class TestClosedFormProducts:
    def test_gl2q_hook_matches_generic_count(self, gl2q):
        # p = 2 up to k, l = 3, p = 3, 5, 7 and coprime pairs, at two scales
        from heckepairs.algebra import _generic_product

        for s1, s2 in ((1, 1), (Fraction(1, 2), 3)):
            for m1 in range(1, 9):
                for m2 in range(1, 9):
                    g1 = MatrixElement(((s1, 0), (0, s1 * m1)))
                    g2 = MatrixElement(((s2, 0), (0, s2 * m2)))
                    assert gl2q.double_product(g1, g2) == \
                        _generic_product(gl2q, g1, g2), (s1, m1, s2, m2)

    def test_wrong_closed_form_fails_the_build(self, monkeypatch):
        local = pairs_module._hecke_local

        def wrong(p, k, l):
            out = local(p, k, l)
            if k == l > 0:
                out[-1] = (k, p ** k)  # p where p + 1 belongs
            return out

        monkeypatch.setattr(pairs_module, "_hecke_local", wrong)
        with pytest.raises(PairSanityError, match="closed-form") as err:
            build_pair("gl2q")
        t2 = MatrixElement(((1, 0), (0, 2)))
        assert err.value.witness == (t2, t2)

    def test_bost_connes_hook_matches_generic_count(self, bost_connes):
        # a of numerator and denominator up to 6 and 9, one canonical b in
        # [0, 1/q) for each denominator dividing 12 that fits
        from heckepairs.algebra import _generic_product

        doubles = [AxbElement(a, b)
                   for a in map(Fraction, ("1", "2", "3", "1/2", "1/3", "3/2",
                                           "2/3", "5/2", "4/3", "4/9", "6"))
                   for b in map(Fraction, ("0", "1/12", "1/6", "1/4", "1/3", "1/2"))
                   if b < Fraction(1, a.denominator)]
        assert all(bost_connes.double_rep(g) == g for g in doubles)
        for g1, g2 in product(doubles, repeat=2):
            assert bost_connes.double_product(g1, g2) == \
                _generic_product(bost_connes, g1, g2), (g1, g2)

    def test_wrong_bost_connes_hook_fails_the_build(self, monkeypatch):
        hook = pairs_module._bost_connes_double_product

        def doubled(g1, g2):
            return {k: 2 * n for k, n in hook(g1, g2).items()}

        monkeypatch.setattr(pairs_module, "_bost_connes_double_product", doubled)
        with pytest.raises(PairSanityError, match="closed-form") as err:
            build_pair("bost_connes")
        # the seeded sample holds one double of degree 2-3, so the build
        # checks one product; the sweep above carries the real coverage
        g = AxbElement(3, Fraction(1, 3))
        assert err.value.witness == (g, g)


class TestSanityCheck:
    def test_double_reps_are_their_own_coset_reps(self, pairs):
        # enumerate_ball finds the doubles of a closed-form right ball by this
        rng = np.random.default_rng(3)
        for pair in pairs.values():
            for _ in range(300):
                d = pair.double_rep(pair.random_element(rng))
                assert pair.coset_rep(d) == d, (pair.name, d)

    def test_double_rep_outside_its_coset_fails(self):
        # H(n, -1) = H(-n, 1), so (|n|, -1) is never its own coset rep; every
        # other contract still holds for this double_rep
        pair = copy.copy(build_pair("dihedral"))
        pair.double_rep = lambda g: DihedralElement(abs(g.n), -1)
        with pytest.raises(PairSanityError, match="own coset rep"):
            pairs_module._sanity_check(pair)


class TestNoUnreadOptions:
    def test_every_constructor_attribute_is_read(self):
        # an attribute that only its own __init__ touches is an option that
        # nothing uses. `self.x` is a read of the enclosing class only, and
        # passing it straight into a new instance of that class is a copy,
        # not a read; `obj.x` is a read for every class with an `x`. Every
        # class the package defines is checked
        package = sorted(Path(heckepairs.__file__).parent.glob("*.py"))
        paths = package + sorted(Path(__file__).parent.glob("*.py"))
        assigned, read = {}, set()

        def on_self(node):
            return isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and node.value.id == "self"

        for path in paths:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and not on_self(node) \
                        and isinstance(node.ctx, ast.Load):
                    read.add((None, node.attr))
            for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
                for fn in cls.body:
                    if not isinstance(fn, ast.FunctionDef):
                        continue
                    copies = {id(arg) for call in ast.walk(fn)
                              if isinstance(call, ast.Call)
                              and isinstance(call.func, ast.Name)
                              and call.func.id == cls.name
                              for arg in call.args + [k.value for k in call.keywords]}
                    init = fn.name == "__init__" and path in package
                    for node in filter(on_self, ast.walk(fn)):
                        if init and isinstance(node.ctx, ast.Store):
                            assigned.setdefault(cls.name, set()).add(node.attr)
                        elif not init and isinstance(node.ctx, ast.Load) \
                                and id(node) not in copies:
                            read.add((cls.name, node.attr))
        assert {"HeckePair", "LengthFunction", "BallIndex", "DegreeFit"} <= set(assigned)
        unread = sorted("%s.%s" % (cls, attr) for cls, attrs in assigned.items()
                        for attr in attrs
                        if (cls, attr) not in read and (None, attr) not in read)
        assert unread == []

    def test_every_definition_is_loaded(self):
        # a function, class or method whose name no module of the package
        # loads is surface that no command, criterion or workload reaches;
        # these few are kept on purpose, each for the reason given
        allowed = {
            "cli.run": "the programmatic entry point beside main",
            "algebra.L2Vector.inner": "the inner product of the module ell^2(H\\G)",
            "algebra.L2Vector.delta_identity": "the cyclic vector delta_H",
            "algebra._Supported.zero": "the additive identity that the benchmark's "
                                       "workloads start their sums from",
            "algebra.norms": "acceptance criterion 12",
            "jolissaint.submultiplicativity_check": "acceptance criterion 11",
        }
        # a method is reached through an attribute (obj.name, self.name); a
        # function or class through its bare name or a module attribute. A
        # bare name that an enclosing function, lambda or comprehension binds
        # itself (a parameter, an assignment target, a loop or comprehension
        # variable) is that local, not the definition
        defined, names, attrs = {}, set(), set()
        scopes = (ast.FunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
                  ast.DictComp, ast.GeneratorExp)

        def bound(scope):
            args = getattr(scope, "args", None)
            out = {a.arg for a in ast.walk(args) if isinstance(a, ast.arg)} \
                if args else set()
            todo = list(ast.iter_child_nodes(scope))
            while todo:
                node = todo.pop()
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    out.add(node.id)
                if not isinstance(node, scopes):
                    todo.extend(ast.iter_child_nodes(node))
            return out

        def collect(node, scope, in_class, local):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                    if not (child.name.startswith("__") and child.name.endswith("__")):
                        defined[".".join(inner)] = (child.name, in_class)
                elif isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) \
                        and child.id not in local:
                    names.add(child.id)
                elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                    attrs.add(child.attr)
                inner_local = local | bound(child) if isinstance(child, scopes) else local
                collect(child, inner, isinstance(child, ast.ClassDef), inner_local)

        for path in sorted(Path(heckepairs.__file__).parent.glob("*.py")):
            if path.name != "__init__.py":
                collect(ast.parse(path.read_text(encoding="utf-8")), (path.stem,), False,
                        frozenset())
        unloaded = {where for where, (name, method) in defined.items()
                    if name not in attrs and (method or name not in names)}
        assert sorted(unloaded - set(allowed)) == []
        assert sorted(set(allowed) - set(defined)) == []  # no stale entries


    def test_every_defaulted_parameter_is_passed(self):
        # a parameter with a default that no call in the package passes, by
        # keyword or by position, is an option only tests can set: make it a
        # module constant that its tests monkeypatch. Calls are matched by the
        # bare name they use (f(...), obj.f(...), a class or a subclass that
        # inherits its __init__, cls(...) inside that class), so a name
        # shared by two definitions counts the calls of both. These are kept
        # on purpose, each for the reason given
        allowed = {
            "diagnostics.random_hecke_element.complex_part":
                "the benchmark's convolve workload draws complex elements",
            "diagnostics.random_l2_vector.complex_part":
                "the vector twin of random_hecke_element's draw",
            "algebra.norms.length": "acceptance criterion 12",
            "algebra.norms.s": "acceptance criterion 12",
            "jolissaint.submultiplicativity_check.alpha": "acceptance criterion 11",
            "jolissaint.submultiplicativity_check.q": "acceptance criterion 11",
            "cli.run.config": "the programmatic entry point beside main",
            "cli.run.seed": "the programmatic entry point beside main",
            "cli.run.out": "the programmatic entry point beside main",
        }
        defaulted, calls, bases = {}, [], {}  # where -> (class or None, name, params)

        def visit(node, where, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    bases[child.name] = [b.id for b in child.bases
                                         if isinstance(b, ast.Name)]
                    visit(child, where + (child.name,), child.name)
                    continue
                if isinstance(child, ast.FunctionDef):
                    method = isinstance(node, ast.ClassDef)
                    args = child.args
                    positional = args.posonlyargs + args.args
                    skip = 1 if method and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list) else 0
                    # a default's position counts the arguments a call writes
                    params = {a.arg: i - skip for i, a in enumerate(positional)
                              if i >= len(positional) - len(args.defaults)}
                    params.update({a.arg: None for a, d in
                                   zip(args.kwonlyargs, args.kw_defaults) if d})
                    if params and (child.name == "__init__" or
                                   not child.name.startswith("__")):
                        defaulted[".".join(where + (child.name,))] = (
                            node.name if method else None, child.name, params)
                    visit(child, where + (child.name,), cls)
                    continue
                if isinstance(child, ast.Call):
                    f = child.func
                    name = f.id if isinstance(f, ast.Name) else \
                        f.attr if isinstance(f, ast.Attribute) else None
                    star = any(isinstance(a, ast.Starred) for a in child.args) or \
                        any(k.arg is None for k in child.keywords)
                    calls.append((cls if name == "cls" else name, len(child.args),
                                  {k.arg for k in child.keywords}, star))
                visit(child, where, cls)

        for path in sorted(Path(heckepairs.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), (path.stem,), None)
        inits = {where.split(".")[-2] for where in defaulted
                 if where.endswith(".__init__")}

        def names(cls, name):
            if name != "__init__":
                return {name}
            out = {cls}
            for sub, parents in bases.items():  # subclasses that inherit it
                if cls in parents and sub not in inits:
                    out |= names(sub, name)
            return out

        assert "cosets.decompose_double_coset" in defaulted  # the walk sees defs
        unpassed = sorted(
            "%s.%s" % (where, param)
            for where, (cls, name, params) in defaulted.items()
            for param, pos in params.items()
            if not any(called in names(cls, name) and
                       (star or param in kws or (pos is not None and npos > pos))
                       for called, npos, kws, star in calls))
        assert sorted(set(unpassed) - set(allowed)) == []
        assert sorted(set(allowed) - set(unpassed)) == []  # no stale entries


class TestDeclaredDependencies:
    def test_every_import_is_declared(self):
        # a top-level module the package imports is the package itself, ships
        # with Python, or is declared in pyproject.toml: an install from the
        # declared list must be able to import every module
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
        declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                    for dep in project["dependencies"]}
        imported = set()
        for path in sorted(Path(heckepairs.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        assert "numpy" in imported  # the walk sees third-party imports at all
        undeclared = imported - {"heckepairs"} - set(sys.stdlib_module_names) - declared
        assert sorted(undeclared) == []
