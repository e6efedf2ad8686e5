"""Finite truncations of the regular representation and norm brackets.

Truncation is column-exact: the codomain ball is padded by the support
length of f, so every column of the matrix is the complete image of its
basis vector. Compressions onto growing domains are then genuine lower
bounds for the operator norm and monotone in the radius.

lambda(f) is held as sparse (row, col, coefficient) triples, and its top
singular value comes from restarted Golub-Kahan-Lanczos bidiagonalisation
with a certified lower bound and its residual. Dense corner blocks go to
LAPACK.
"""

import math

import numpy as np

from .algebra import l1_norm
from .cosets import decompose_double_coset, enumerate_ball, reachable_coset_ball
from .errors import PairSanityError, UnsupportedLengthError


def _grid_slots(cod):
    """Lookup from int64 coordinate rows to their index in cod, -1 if absent.

    A dense int64 grid over cod's bounding box, 8 bytes a cell, or None if
    the box has over max(32 cells a key, 2**20) cells (an l1 ball's box has
    about rank! a key). Rows outside the box map to -1; keys need distinct rows.
    """
    if not len(cod):
        return lambda ys: np.full(ys.shape[:-1], -1, dtype=np.int64)
    lo, hi = cod.min(0), cod.max(0)
    if math.prod((hi - lo + 1).tolist()) > max(32 * len(cod), 1 << 20):
        return None
    grid = np.full(hi - lo + 1, -1, dtype=np.int64)
    grid[tuple((cod - lo).T)] = np.arange(len(cod))
    if np.count_nonzero(grid >= 0) < len(cod):
        raise PairSanityError("coset_coords gives two cosets one coordinate row")
    return lambda ys: np.where(((ys >= lo) & (ys <= hi)).all(-1),
                               grid[tuple(np.moveaxis(ys.clip(lo, hi) - lo, -1, 0))], -1)


class ActionTable:
    """Index pattern of the module action between two coset balls.

    For each double coset D, stores the (row, col) pairs where delta_D sends
    domain column col to codomain row, column-major with D's right cosets in
    decomposition order. Every (row, col) pair belongs to at most one D, so
    lambda(f) is the concatenation of the per-D patterns with the coefficient
    of D on each entry. With a `coset_coords` hook the rows of delta_D are
    all found at once: coords(H a x) = coords(Ha) + coords(Hx), looked up in
    the codomain's grid when `_grid_slots` builds one, else from `coset_rep`
    of each product. Neither path touches `pair.action_cache`.
    """

    def __init__(self, pair, doubles, domain, codomain, allow_missing=False):
        self.pair = pair
        self.domain = domain
        self.codomain = codomain
        self.tables = {}
        slots = pair.coset_coords and _grid_slots(
            pair.coset_coords([k.rep for k in codomain.keys]))
        if slots is not None:
            xs = pair.coset_coords([k.rep for k in domain.keys])
        for dk in doubles:
            rights = decompose_double_coset(pair, dk.rep)
            if slots is not None:
                shifts = pair.coset_coords([a.rep for a in rights])
                rows = slots(xs[:, None] + shifts).reshape(-1)
            else:
                rows = np.array([codomain._slots.get(pair.coset_rep(a.rep * ck.rep), -1)
                                 for ck in domain.keys for a in rights], dtype=np.int64)
            hit = rows >= 0
            if not (allow_missing or hit.all()):
                raise UnsupportedLengthError("codomain ball misses an image coset of %r"
                                             % (dk,))
            cols = np.repeat(np.arange(len(domain), dtype=np.int64), len(rights))
            self.tables[dk.rep] = (rows[hit], cols[hit])

    def operator_for(self, f):
        """Sparse lambda(f) on this index pattern; complex only if f is."""
        zs = [(self.tables[dk.rep], complex(c)) for dk, c in f.terms.items()]
        none = np.zeros(0, np.int64)  # keeps the zero element's operator empty
        vals = np.concatenate([none] + [np.full(len(rows), z) for (rows, _), z in zs])
        return SparseOperator(
            np.concatenate([none] + [rows for (rows, _), _ in zs]),
            np.concatenate([none] + [cols for (_, cols), _ in zs]),
            vals if vals.imag.any() else vals.real.astype(np.float64),
            (len(self.codomain), len(self.domain)),
        )

    def matrix_for(self, f):
        """Dense float/complex matrix of lambda(f) on this index pattern."""
        op = self.operator_for(f)
        m = np.zeros(op.shape, dtype=op.dtype)
        m[op.rows, op.cols] = op.vals
        return m

    def matvec_int(self, coeffs, vec):
        """Exact integer action: coeffs maps double reps to ints, vec is int64."""
        out = np.zeros(len(self.codomain), dtype=np.int64)
        for rep, c in coeffs.items():
            rows, cols = self.tables[rep]
            np.add.at(out, rows, c * vec[cols])
        return out


def _scatter(index, weights, size):
    # np.bincount accepts real weights only
    if np.iscomplexobj(weights):
        return (np.bincount(index, weights.real, size)
                + 1j * np.bincount(index, weights.imag, size))
    return np.bincount(index, weights, size)


class SparseOperator:
    """A matrix held as (row, col, value) triples, applied by bincount."""

    def __init__(self, rows, cols, vals, shape):
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.shape = shape
        self.dtype = vals.dtype

    def matvec(self, x):
        return _scatter(self.rows, self.vals * x[self.cols], self.shape[0])

    def rmatvec(self, y):  # the adjoint
        return _scatter(self.cols, self.vals.conj() * y[self.rows], self.shape[1])


_BASIS = 64  # Krylov vectors per cycle: memory O(_BASIS * (m + n))
# a Lanczos coefficient this small against the largest so far marks an
# invariant subspace, on which the cycle's Ritz values are exact
_BREAKDOWN = 1e-12


def _reorth(x, basis):
    # classical Gram-Schmidt against the rows of basis, twice, which keeps
    # the Krylov vectors orthogonal to rounding
    for _ in range(2):
        x = x - basis.T @ (basis.conj() @ x)
    return x


def _bidiagonalise(matvec, rmatvec, v, m, k):
    """Up to k Golub-Kahan steps from the unit vector v, for A with m rows.

    Returns (V, B) with A V^T = U B for orthonormal rows V and columns U, so
    the singular values of B are the Ritz values of A on the span of V. Each
    row of V costs one step; a breakdown ends the cycle with an exact B.
    """
    vs = np.zeros((k + 1, v.size), dtype=v.dtype)
    us = np.zeros((k, m), dtype=v.dtype)
    b = np.zeros((k, k + 1))
    vs[0] = v
    for j in range(k):
        u = _reorth(matvec(vs[j]) - (b[j - 1, j] * us[j - 1] if j else 0), us[:j])
        b[j, j] = np.linalg.norm(u)
        if b[j, j] <= _BREAKDOWN * b.max():
            return vs[:j + 1], b[:j, :j + 1]
        us[j] = u / b[j, j]
        w = _reorth(rmatvec(us[j]) - b[j, j] * vs[j], vs[:j + 1])
        b[j, j + 1] = np.linalg.norm(w)
        if b[j, j + 1] <= _BREAKDOWN * b.max():
            return vs[:j + 1], b[:j + 1, :j + 1]
        vs[j + 1] = w / b[j, j + 1]
    return vs[:k], b[:, :k]


def top_singular_value(a, tol=1e-10, max_iter=10 ** 4, seed=0):
    """Largest singular value by restarted Golub-Kahan-Lanczos bidiagonalisation.

    `a` is a dense array or a SparseOperator. Cycles of at most _BASIS steps
    with full reorthogonalisation start from one seeded random vector and
    restart from the top Ritz vector y. sigma = ||A y|| for unit y, always a
    valid lower bound; the solve stops once the Gram residual
    ||A^H A y - sigma^2 y|| is at most tol * max(sigma^2, 1). max_iter
    counts Lanczos steps.

    Returns (sigma, iterations, residual, converged).
    """
    if isinstance(a, SparseOperator):
        matvec, rmatvec = a.matvec, a.rmatvec
    else:
        a = np.asarray(a)
        matvec, rmatvec = a.__matmul__, a.conj().T.__matmul__
    m, n = a.shape
    if m == 0 or n == 0:
        return 0.0, 0, 0.0, True
    y = np.random.default_rng(seed).standard_normal(n)
    y = (y / np.linalg.norm(y)).astype(np.result_type(a.dtype, np.float64))
    steps = 0
    while True:
        vs, b = _bidiagonalise(matvec, rmatvec, y, m, min(_BASIS, max_iter - steps))
        steps += len(vs)
        if b.size:
            y = np.linalg.svd(b)[2][0].conj() @ vs
            y /= np.linalg.norm(y)
        w = matvec(y)
        s2 = float(np.vdot(w, w).real)
        res = float(np.linalg.norm(rmatvec(w) - s2 * y))
        converged = res <= tol * max(s2, 1.0)
        if converged or steps >= max_iter:
            return math.sqrt(s2), steps, res, converged


def block_operator_norm(a):
    """Spectral norm of a dense block, by LAPACK SVD."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def norm_upper(pair, f):
    """Schur-test upper bound sqrt(||f||_1 ||f*||_1) for ||lambda(f)||.

    Every column of lambda(f) has absolute sum ||f||_1 (right-coset l1) and
    every row has absolute sum ||f*||_1; for inversion-stable supports the
    two coincide and the bound is plain ||f||_1.
    """
    return math.sqrt(l1_norm(f) * l1_norm(f.involution()))


class NormBracket:
    """A certified lower bound and an upper bound for one convolution norm."""

    def __init__(self, lower, upper, method, iterations, residual, converged,
                 radius, domain_size, codomain_size):
        self.lower = lower
        self.upper = upper
        self.method = method
        self.iterations = iterations
        self.residual = residual
        self.converged = converged
        self.radius = radius
        self.domain_size = domain_size
        self.codomain_size = codomain_size

    def __repr__(self):
        return "NormBracket(lower=%.12g, upper=%.12g, r=%r, %s)" % (
            self.lower, self.upper, self.radius,
            "converged" if self.converged else "NOT converged",
        )


def norm_lower(pair, f, length=None, radius=6, tol=1e-10, max_iter=10 ** 4, seed=0):
    """Lower/upper bracket for ||lambda(f)||.

    With a locally finite length the domain is the right-coset ball of the
    given radius. Without one, the domain is the set of cosets reachable
    from H in `radius` convolution steps along supp(f) and supp(f*), which
    is still an exhaustion, so the lower bound stays monotone in radius.
    """
    if f.is_zero():
        return NormBracket(0.0, 0.0, "zero", 0, 0.0, True, radius, 0, 0)
    try:
        ell = f.max_support_length(length)
        dom = enumerate_ball(pair, length, radius).right
        cod = enumerate_ball(pair, length, radius + ell).right
        method = "gkl/ball"
    except UnsupportedLengthError:
        dirs = list(f.support) + list(f.involution().support)
        cod = reachable_coset_ball(pair, dirs, radius + 1)
        dom = cod.prefix(radius)
        method = "gkl/reachable"
    table = ActionTable(pair, f.support, dom, cod)
    sigma, iters, res, conv = top_singular_value(
        table.operator_for(f), tol=tol, max_iter=max_iter, seed=seed
    )
    return NormBracket(
        sigma, norm_upper(pair, f), method, iters, res, conv,
        radius, len(dom), len(cod),
    )
