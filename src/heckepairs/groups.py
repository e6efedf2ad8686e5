"""Group element classes, word-length layers and length functions.

Every element is immutable and hashable; equality compares the class as well
as the key, so elements from different groups never compare equal. Each class
owns its JSON form (`components`/`from_components`). All arithmetic is exact
(ints and Fractions), floats only ever appear in length *values*.
"""

from fractions import Fraction

from .errors import BackendMismatchError, BudgetExceededError


class GroupElement:
    """Base class. Subclasses fill in `key`, `mul`, `inv` and the JSON form
    `components`/`from_components`."""

    __slots__ = ("_key",)

    @property
    def key(self):
        return self._key

    def mul(self, other):
        raise NotImplementedError

    def inv(self):
        raise NotImplementedError

    def components(self):
        """JSON form: a list of ints, strings and lists of them."""
        raise NotImplementedError

    @classmethod
    def from_components(cls, comps, like):
        """Inverse of `components`; numbers may come as strings. `like`, an
        element of the same group, supplies what the components leave out."""
        raise NotImplementedError

    @classmethod
    def split_flat(cls, parts, like):
        """The components of a flat list of numbers, as `delta:` writes them."""
        return parts

    def __mul__(self, other):
        if type(other) is not type(self):
            raise BackendMismatchError(
                "cannot combine %s with %s" % (type(self).__name__, type(other).__name__)
            )
        return self.mul(other)

    def __eq__(self, other):
        return type(other) is type(self) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "%s%r" % (type(self).__name__, (self._key,))


class DihedralElement(GroupElement):
    """Element (n, eps) of Z x| Z/2, eps in {+1, -1}.

    (n, eps) * (m, delta) = (n + eps*m, eps*delta).
    """

    __slots__ = ()

    def __init__(self, n, eps):
        if eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")
        self._key = (int(n), eps)

    @property
    def n(self):
        return self._key[0]

    @property
    def eps(self):
        return self._key[1]

    def mul(self, other):
        n, e = self._key
        m, d = other._key
        return DihedralElement(n + e * m, e * d)

    def inv(self):
        n, e = self._key
        return DihedralElement(-e * n, e)

    def components(self):
        return list(self._key)

    @classmethod
    def from_components(cls, comps, like):
        return cls(int(comps[0]), int(comps[1]))


class IntegerElement(GroupElement):
    """Element of (Z, +)."""

    __slots__ = ()

    def __init__(self, n):
        self._key = int(n)

    @property
    def n(self):
        return self._key

    def mul(self, other):
        return IntegerElement(self._key + other._key)

    def inv(self):
        return IntegerElement(-self._key)

    def components(self):
        return [self._key]

    @classmethod
    def from_components(cls, comps, like):
        return cls(int(comps[0]))


class AxbElement(GroupElement):
    """Affine map x -> a*x + b with a, b rational and a > 0.

    Composition follows the matrix picture (a, b) <-> [[1, b], [0, a]], so
    (a1, b1) * (a2, b2) = (a1*a2, b2 + b1*a2) and inv = (1/a, -b/a).
    """

    __slots__ = ()

    def __init__(self, a, b):
        a = Fraction(a)
        b = Fraction(b)
        if a <= 0:
            raise ValueError("a must be positive")
        self._key = (a, b)

    @property
    def a(self):
        return self._key[0]

    @property
    def b(self):
        return self._key[1]

    def mul(self, other):
        a1, b1 = self._key
        a2, b2 = other._key
        return AxbElement(a1 * a2, b2 + b1 * a2)

    def inv(self):
        a, b = self._key
        return AxbElement(1 / a, -b / a)

    def components(self):
        return [str(x) for x in self._key]

    @classmethod
    def from_components(cls, comps, like):
        return cls(Fraction(str(comps[0])), Fraction(str(comps[1])))


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


class MatrixElement(GroupElement):
    """Square matrix over Q (2x2 or 3x3) with nonzero determinant."""

    __slots__ = ()

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if n not in (2, 3) or any(len(row) != n for row in rows):
            raise ValueError("need a 2x2 or 3x3 matrix")
        self._key = rows

    @property
    def rows(self):
        return self._key

    @property
    def dim(self):
        return len(self._key)

    def det(self):
        return _det2(self._key) if self.dim == 2 else _det3(self._key)

    def mul(self, other):
        a, b = self._key, other._key
        n = len(a)
        if n != len(b):
            raise BackendMismatchError("matrix dimensions differ")
        return MatrixElement(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def inv(self):
        m = self._key
        d = self.det()
        if d == 0:
            raise ZeroDivisionError("singular matrix")
        if self.dim == 2:
            return MatrixElement(
                ((m[1][1] / d, -m[0][1] / d), (-m[1][0] / d, m[0][0] / d))
            )
        # adjugate / det
        c = [[Fraction(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                sub = [
                    [m[r][s] for s in range(3) if s != j]
                    for r in range(3) if r != i
                ]
                cof = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
                if (i + j) % 2:
                    cof = -cof
                c[j][i] = cof / d
        return MatrixElement(tuple(tuple(row) for row in c))

    def components(self):
        return [[str(x) for x in row] for row in self._key]

    @classmethod
    def from_components(cls, comps, like):
        return cls(tuple(tuple(Fraction(str(x)) for x in row) for row in comps))

    @classmethod
    def split_flat(cls, parts, like):
        n = 2 if len(parts) == 4 else 3
        if len(parts) != n * n:
            raise ValueError("matrix delta needs 4 or 9 entries")
        return [parts[i * n:(i + 1) * n] for i in range(n)]


_SEMIDIRECT_ACTIONS = ("swap", "negate")


class SemidirectElement(GroupElement):
    """Element (v, s) of Z^n x| Z/2 for an order-two action on coordinates.

    action "negate": alpha(v) = -v.  action "swap": alpha reverses the
    coordinate order (an honest involution for any rank).
    Product: (v, s) * (w, t) = (v + alpha^s(w), s + t mod 2).
    """

    __slots__ = ()

    def __init__(self, vec, flip, action):
        if action not in _SEMIDIRECT_ACTIONS:
            raise ValueError("unknown action %r" % (action,))
        if flip not in (0, 1):
            raise ValueError("flip must be 0 or 1")
        self._key = (tuple(int(x) for x in vec), flip, action)

    @property
    def vec(self):
        return self._key[0]

    @property
    def flip(self):
        return self._key[1]

    @property
    def action(self):
        return self._key[2]

    def _alpha(self, w):
        if self.action == "negate":
            return tuple(-x for x in w)
        return tuple(reversed(w))

    def mul(self, other):
        v, s, act = self._key
        w, t, act2 = other._key
        if act != act2:
            raise BackendMismatchError("semidirect actions differ")
        if len(v) != len(w):
            raise BackendMismatchError("semidirect ranks differ")
        ww = self._alpha(w) if s else w
        return SemidirectElement(tuple(a + b for a, b in zip(v, ww)), (s + t) % 2, act)

    def inv(self):
        v, s, act = self._key
        nv = tuple(-x for x in v)
        return SemidirectElement(self._alpha(nv) if s else nv, s, act)

    def components(self):
        return [list(self.vec), self.flip]

    @classmethod
    def from_components(cls, comps, like):
        if len(comps[0]) != len(like.vec):
            raise ValueError("need %d coordinates" % len(like.vec))
        return cls([int(x) for x in comps[0]], int(comps[1]), like.action)

    @classmethod
    def split_flat(cls, parts, like):
        return [parts[:-1], parts[-1]]


class GeneratingSet:
    """Finite symmetric set of generators, kept in a deterministic order."""

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ValueError("need at least one generator")
        if any(type(g) is not type(elements[0]) for g in elements):
            raise BackendMismatchError("mixed element types in generating set")
        seen = dict.fromkeys(elements)
        for g in elements:
            seen.setdefault(g.inv())
        self.elements = tuple(seen)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def walk_layers(start, step, budget, what):
    """Breadth-first layers of the orbit of `start` under `step(x)`.

    Yields [start], then the nodes first reached from each layer, and stops
    after the first empty layer. Layers are computed only on demand, so a
    caller that stops early never pays for, or overflows on, the rest.
    Raises BudgetExceededError, naming `what`, past `budget` nodes.
    """
    seen = {start}
    layer = [start]
    while layer:
        yield layer
        nxt = []
        for x in layer:
            for y in step(x):
                if y not in seen:
                    seen.add(y)
                    if len(seen) > budget:
                        raise BudgetExceededError(
                            "%s exceeded budget %d" % (what, budget),
                            partial_size=len(seen),
                        )
                    nxt.append(y)
        layer = nxt


def word_layers(gens, budget):
    """`walk_layers` from the identity under right multiplication by the
    symmetrized `gens`: layer r holds the elements of word length r."""
    gen_list = GeneratingSet(gens).elements
    g = gen_list[0]
    return walk_layers(
        g * g.inv(), lambda x: [x * s for s in gen_list], budget, "word ball",
    )


class LengthFunction:
    """A length on a group: callable, with metadata the diagnostics rely on.

    locally_finite means balls {L <= r} are finite, which the ball-based
    machinery requires. exact means values are ints/Fractions. gens is the
    symmetric generator tuple of a word length, else None.
    """

    gens = None

    def __init__(self, name, fn, locally_finite=True, exact=True):
        self.name = name
        self._fn = fn
        self.locally_finite = locally_finite
        self.exact = exact

    def __call__(self, g):
        return self._fn(g)

    def __repr__(self):
        return "LengthFunction(%r)" % (self.name,)


def word_length(gens, budget=10 ** 6):
    """Word length w.r.t. a symmetric generating set, memoized lazily.

    Each query pulls word-ball layers only until the element appears.
    Queries for elements outside the budgeted ball raise BudgetExceededError.
    """
    gen_list = GeneratingSet(gens).elements
    known = {}
    layers = enumerate(word_layers(gen_list, budget))

    def fn(g):
        while g not in known:
            r, layer = next(layers, (None, None))
            if layer is None:
                raise BudgetExceededError(
                    "%r not reached by the word-length walk (budget %d)"
                    % (g, budget)
                )
            known.update(dict.fromkeys(layer, r))
        return known[g]

    length = LengthFunction("word", fn)
    length.gens = gen_list
    return length


def dihedral_abs_length():
    """L((n, eps)) = |n|; vanishes exactly on the flip subgroup."""
    return LengthFunction("abs-translation", lambda g: abs(g.n))


def coordinate_sum_length():
    """L((v, s)) = sum_i |v_i| on semidirect products."""
    return LengthFunction("coordinate-sum", lambda g: sum(abs(x) for x in g.vec))


class LengthReport:
    """Outcome of validate_length: ok flag plus a list of failure witnesses."""

    def __init__(self, length_name, checks, failures):
        self.length_name = length_name
        self.checks = checks
        self.failures = failures

    @property
    def ok(self):
        return not self.failures

    def __repr__(self):
        status = "ok" if self.ok else "%d failures" % len(self.failures)
        return "LengthReport(%r, %s)" % (self.length_name, status)


def validate_length(length, identity, sample, h_sample=(), tol=None):
    """Check the length axioms on a finite sample.

    Verifies L(e) = 0, nonnegativity, symmetry under inverse, vanishing on
    `h_sample`, subadditivity over all ordered pairs from `sample`, and
    invariance under left/right translation by `h_sample` (which the axioms
    imply, but checking it directly catches canonicalizer bugs early).

    tol: None means exact comparison; a float loosens every check to that
    absolute slack (use for float-valued lengths).
    """
    failures = []
    checks = 0

    def leq(x, y):
        return x <= y if tol is None else x <= y + tol

    def eq(x, y):
        return x == y if tol is None else abs(x - y) <= tol

    checks += 1
    if not eq(length(identity), 0):
        failures.append(("identity", identity, length(identity)))
    for g in sample:
        checks += 3
        if not leq(0, length(g)):
            failures.append(("nonnegative", g, length(g)))
        if not eq(length(g.inv()), length(g)):
            failures.append(("symmetry", g, (length(g), length(g.inv()))))
    for h in h_sample:
        checks += 1
        if not eq(length(h), 0):
            failures.append(("vanish-on-H", h, length(h)))
    for g1 in sample:
        for g2 in sample:
            checks += 1
            if not leq(length(g1 * g2), length(g1) + length(g2)):
                failures.append(
                    ("subadditive", (g1, g2), (length(g1 * g2), length(g1), length(g2)))
                )
    for h in h_sample:
        for g in sample:
            checks += 2
            if not eq(length(h * g), length(g)):
                failures.append(("left-H-invariance", (h, g), length(h * g)))
            if not eq(length(g * h), length(g)):
                failures.append(("right-H-invariance", (g, h), length(g * h)))
    return LengthReport(length.name, checks, failures)
