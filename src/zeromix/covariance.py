"""Covariance estimation under a prescribed pattern of zeros.

The estimation target is the cone of symmetric positive definite q x q
matrices with exact zeros at a fixed set of off-diagonal positions.
Given an empirical conditional variance matrix X-tilde, the constrained
maximum-likelihood problem is

    minimize  tr(X-tilde Sigma^-1) + log det Sigma

over that cone.  The solver sweeps the columns of Sigma cyclically:
with the complementary principal block held fixed, the optimal column
is a least-squares solve in which the zero-constrained coordinates are
dropped, and positive definiteness is preserved through the Schur
complement of the fixed block, which each column update checks.  A
sweep is one such update of every column, a monotone map that
converges linearly.  A solve without a starting point starts at X-tilde
with the pattern's entries set to zero where that factors.  After one
sweep from there, or two from any other start, each iteration first
tries one damped Newton step on the free lower-triangle entries, whose
gradient and Hessian have closed forms, so the solve ends
quadratically; the step is computed in a frame scaled by a power of
two and taken only when the Hessian and the stepped matrix factor and
the objective strictly falls, and the iteration is a sweep where it is
not.  Neither writes a constrained entry, so the pattern's zeros stay
exact: both take their free coordinates from ``ZeroPattern``'s layout,
built once per pattern.  The iterations run on one plain array; the solver
validates its inputs once and its result once, as an SpdMatrix.

Every factorization is one call of ``cholesky_lo``, the gufunc inside
``np.linalg.cholesky`` (``_chol``): the same LAPACK ``potrf`` on the
same input, so the same bits, without the wrapper's type and shape
checks and its ``errstate`` context.  Where ``potrf`` fails, the gufunc
fills its output with NaN and sets the floating-point invalid flag,
from which the wrapper raises ``LinAlgError``; a factor's upper
triangle is otherwise zero, so ``_chol`` returns None when its
top-right entry is NaN.  Callers hold ``np.errstate(all="ignore")``,
once per solve on the solver's path, so a failed factorization raises
the package's own error, or makes the Newton step fall back to a sweep,
and never a RuntimeWarning.  The factorization decides positive
definiteness; every solve is one call of ``solve`` or ``solve1``, and
every inverse one call of ``inv``, the LU gufuncs (LAPACK ``gesv``)
inside ``np.linalg.solve`` and ``np.linalg.inv``, with the same bits.
These gufuncs, ``cholesky_lo`` and ``eigvalsh_lo`` (inside
``np.linalg.eigvalsh``) are all the linear algebra the package needs,
so numpy is its only runtime dependency.  The column update solves
against its block rather than inverting it: an explicit inverse there
loses enough accuracy on ridged problems to miss their KKT bound.
Finiteness is checked where data enters instead: SufficientStats and
SpdMatrix reject non-finite entries, and a NaN arising inside a sweep
fails the column update's Schur test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo
from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_lo
from numpy.linalg._umath_linalg import inv as _inv
from numpy.linalg._umath_linalg import solve as _solve
from numpy.linalg._umath_linalg import solve1 as _solve1

from .exceptions import (
    DiagonalZeroError,
    DuplicatePairError,
    IndexOutOfRangeError,
    InputMismatchError,
    NotPositiveDefiniteError,
    PatternViolationError,
    SingularNormalEquationsError,
    ValueOutOfRangeError,
    _check_count,
    _is_integer,
)

__all__ = [
    "ZeroPattern",
    "SpdMatrix",
    "SufficientStats",
    "IcfDiagnostics",
    "zero_forced",
    "min_eig_repair",
    "icf_column_update",
    "icf_solve",
    "solved_xtilde",
    "objective",
    "kkt_residual",
]

_NOT_PD = "symmetric factorization failed: matrix is not positive definite"


class ZeroPattern:
    """A set of off-diagonal index pairs constrained to exact zero.

    Pairs use 1-based indices and are stored in canonical (i, j) order
    with i < j; the reversed form of a pair denotes the same constraint
    because the matrices are symmetric.  The empty pattern is valid and
    means "unconstrained".  The pairs are checked once, here, in
    canonical order: each pair in turn must be off the diagonal, inside
    [1, dim] and not a repeat of an earlier pair.  Whatever takes a
    pattern checks only that its order matches the matrix's.

    The layout is read-only: a (dim, dim) boolean mask, True at
    constrained positions (``mask()`` returns copies), and
    ``free_entries``, 0-based (rows, cols) index arrays of the free
    lower-triangle entries, diagonal included, in row-major order, built
    here; each column's pivot index sets (``_pivots``) and the Newton
    step's gathers and weights (``_newton``), built by the first solve
    that reads them, so only a solved pattern pays for them.

    Parameters
    ----------
    pairs : iterable of (int, int)
        Constrained positions.  Order within a pair does not matter.
    dim : int
        Matrix order q the pattern applies to.

    Raises
    ------
    ValueOutOfRangeError
        If ``dim`` is not an integer >= 1.
    DiagonalZeroError
        If a pair constrains a diagonal entry (i == j).
    IndexOutOfRangeError
        If an index is not an integer (``int`` or a numpy integer) or
        falls outside [1, dim].
    DuplicatePairError
        If the same unordered pair appears more than once.
    """

    def __init__(self, pairs, dim):
        if not _is_integer(dim) or dim < 1:
            raise ValueOutOfRangeError("pattern order must be an integer >= 1, got %r" % (dim,))
        canon = []
        for pair in pairs:
            if not (_is_integer(pair[0]) and _is_integer(pair[1])):
                raise IndexOutOfRangeError("pair %r has an index that is not an integer"
                                           % (tuple(pair),))
            i, j = int(pair[0]), int(pair[1])
            if i > j:
                i, j = j, i
            canon.append((i, j))
        canon.sort()
        self.pairs = tuple(canon)
        self.dim = q = int(dim)
        mask = np.zeros((q, q), dtype=bool)
        for i, j in self.pairs:
            if i == j:
                raise DiagonalZeroError(
                    "pair (%d, %d) constrains a diagonal entry; the diagonal of a "
                    "positive definite matrix cannot be zero" % (i, j)
                )
            if not (1 <= i <= q) or not (1 <= j <= q):
                raise IndexOutOfRangeError(
                    "pair (%d, %d) outside [1, %d]" % (i, j, q)
                )
            if mask[i - 1, j - 1]:
                raise DuplicatePairError("pair (%d, %d) appears more than once" % (i, j))
            mask[i - 1, j - 1] = mask[j - 1, i - 1] = True
        self._mask, self.free_entries = mask, np.nonzero(np.tri(q, dtype=bool) & ~mask)
        for a in (mask, *self.free_entries):
            a.setflags(write=False)

    @cached_property
    def _pivots(self):
        """The read-only index sets of every pivot column j: j, flat
        ``take``/``put`` indices of a q x q array (of the (q-1) x (q-1)
        block for the free block) and the free coordinates of the column,
        built for all columns at once."""
        q, mask = self.dim, self._mask
        jj, t = np.arange(q), np.arange(q - 1)
        rest = t + (t >= jj[:, None])  # row jj: the indices other than jj
        block_col = rest[:, :, None] * q + np.concatenate([rest, jj[:, None]], axis=1)[:, None, :]
        block = block_col[:, :, :-1].copy()  # [block | column] without the column
        col, row = rest * q + jj[:, None], jj[:, None] * q + rest
        free = [np.flatnonzero(f) for f in ~mask[rest, jj[:, None]]]
        free_block = [f[:, None] * (q - 1) + f for f in free]
        for a in (block_col, block, col, row, *free, *free_block):
            a.setflags(write=False)
        return tuple(zip(range(1, q + 1), block, free, free_block, col, row, block_col))

    @cached_property
    def _newton(self):
        """Read-only flat ``take``/``put`` indices of the free lower-triangle
        entries (r, c), r >= c, diagonal included, of a q x q array: the
        entries themselves, their transposes, the Hessian's four gathers
        of S and the four of B stacked on an outer axis, and the weights
        of the gradient and the Hessian (see ``_newton_system``)."""
        q, (r, c) = self.dim, self.free_entries
        w = np.where(r == c, 0.5, 1.0)
        rr, rc = r[:, None] * q + r, r[:, None] * q + c
        cr, cc = c[:, None] * q + r, c[:, None] * q + c
        layout = (r * q + c, c * q + r, np.stack([cr, cc, rr, rc]), np.stack([rc, rr, cc, cr]),
                  2.0 * w, np.outer(w, w))
        for a in layout:
            a.setflags(write=False)
        return layout

    def __len__(self):
        return len(self.pairs)

    def __contains__(self, pair):
        i, j = pair
        if i > j:
            i, j = j, i
        return (i, j) in self.pairs

    def __eq__(self, other):
        if not isinstance(other, ZeroPattern):
            return NotImplemented
        return self.dim == other.dim and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.dim, self.pairs))

    def __repr__(self):
        return "ZeroPattern(pairs=%r, dim=%d)" % (list(self.pairs), self.dim)

    def is_empty(self):
        return not self.pairs

    def __reduce__(self):  # rebuilt from the pairs, so unpickled arrays stay read-only
        return ZeroPattern, (self.pairs, self.dim)

    def mask(self):
        """A writable copy of the (dim, dim) mask, True at constrained positions."""
        return self._mask.copy()

    def conforms(self, entries):
        """True iff every constrained entry of ``entries`` equals 0.0 exactly."""
        return not np.count_nonzero(np.asarray(entries)[self._mask])


def _require_order(pattern, q):
    # a pattern built for one order must not be applied to another
    if pattern.dim != q:
        raise InputMismatchError(
            "pattern is declared for order %d but the matrix has order %d"
            % (pattern.dim, q)
        )


class SpdMatrix:
    """Symmetric positive definite matrix, optionally tagged with a zero pattern.

    Symmetry is enforced bitwise by replicating the lower triangle.
    Positive definiteness is verified at construction by a Cholesky
    factorization, which is cached for log-determinants and solves.
    When a pattern is supplied, it must be declared for the matrix's
    order, and every constrained entry must equal 0.0 exactly.

    Parameters
    ----------
    entries : array_like, shape (q, q)
        Matrix values; only the lower triangle is read.
    pattern : ZeroPattern, optional
        Zero pattern the matrix must conform to.

    Raises
    ------
    InputMismatchError
        If ``entries`` is not square, or ``pattern`` is declared for
        another order.
    NotPositiveDefiniteError
        If the factorization fails or entries are non-finite.
    PatternViolationError
        If a constrained entry is nonzero.
    """

    def __init__(self, entries, pattern=None):
        m = np.array(entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputMismatchError("entries must be a square matrix, got shape %r" % (m.shape,))
        # bitwise symmetry: upper triangle is a copy of the lower
        m = np.tril(m) + np.tril(m, -1).T
        if not np.all(np.isfinite(m)):
            raise NotPositiveDefiniteError("matrix has non-finite entries")
        if pattern is not None:
            _require_order(pattern, m.shape[0])
            if not pattern.conforms(m):
                raise PatternViolationError(
                    "matrix has nonzero entries at constrained positions %r"
                    % (list(pattern.pairs),)
                )
        with np.errstate(invalid="ignore"):
            chol = _chol(m)
        if chol is None:
            raise NotPositiveDefiniteError(_NOT_PD)
        m.setflags(write=False)
        chol.setflags(write=False)
        self._m = m
        self._chol = chol
        self.pattern = pattern

    def __reduce__(self):  # rebuilt from the entries, so unpickled arrays stay read-only
        return SpdMatrix, (self._m, self.pattern)

    @property
    def values(self):
        """The (read-only) q x q array of entries."""
        return self._m

    @property
    def dim(self):
        return self._m.shape[0]

    @property
    def chol_lower(self):
        """Cached lower Cholesky factor."""
        return self._chol

    def logdet(self):
        return 2.0 * float(np.sum(np.log(np.diag(self._chol))))

    def solve(self, rhs):
        """Solve Sigma x = rhs using the cached factorization.

        ``rhs`` is a vector or a matrix of right-hand sides with ``dim``
        rows.  Its finiteness is not checked: a non-finite entry gives
        non-finite solution entries.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.ndim not in (1, 2) or rhs.shape[0] != self.dim:
            raise InputMismatchError(
                "right-hand side of shape %r does not fit order %d" % (rhs.shape, self.dim)
            )
        with np.errstate(all="ignore"):
            return (_solve1 if rhs.ndim == 1 else _solve)(self._m, rhs)

    def inv(self):
        with np.errstate(all="ignore"):
            return _inv(self._m)

    def __repr__(self):
        return "SpdMatrix(dim=%d, pattern=%r)" % (self.dim, self.pattern)


class SufficientStats:
    """Conditional second-moment aggregates consumed by the column solver.

    Holds the empirical conditional variance matrix X-tilde (already
    divided by the sample count) together with the count n.

    Parameters
    ----------
    xtilde : array_like, shape (q, q)
        Symmetric positive semidefinite moment matrix.
    n : int
        Number of individuals aggregated into ``xtilde``.
    """

    def __init__(self, xtilde, n):
        m = np.array(xtilde, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputMismatchError("xtilde must be square, got shape %r" % (m.shape,))
        if not np.all(np.isfinite(m)):
            raise ValueOutOfRangeError("xtilde has non-finite entries")
        # bitwise symmetry, same convention as SpdMatrix
        m = np.tril(m) + np.tril(m, -1).T
        m.setflags(write=False)
        self.xtilde = m
        self.n = int(n)
        if self.n < 1:
            raise ValueOutOfRangeError("sample count must be >= 1, got %d" % self.n)

    @property
    def dim(self):
        return self.xtilde.shape[0]


@dataclass
class IcfDiagnostics:
    """Solver diagnostics: the column sweeps and the Newton steps taken
    (their sum is the iteration count that ``max_sweeps`` caps),
    convergence and whether X-tilde, being rank deficient, was ridged
    (see ``icf_solve``).

    ``objective`` and ``kkt_residual`` evaluate the solution on demand.
    """

    sweeps: int
    newton_steps: int
    converged: bool
    ridged: bool


def _chol(a):
    # np.linalg.cholesky(a) of a float64 square array, or None where that
    # raises; call with the invalid flag ignored (see the module
    # docstring).  At order 1 the top-right entry is the factor itself,
    # so there a NaN input also reads as failure
    chol = _cholesky_lo(a, signature="d->d")
    if chol.shape[0] and chol[0, -1] != chol[0, -1]:
        return None
    return chol


def _as_array(sigma):
    return sigma.values if isinstance(sigma, SpdMatrix) else np.asarray(sigma, dtype=float)


def zero_forced(sigma_uc, pattern):
    """Overwrite constrained entries (and transposes) with exact zeros.

    The result is a plain symmetric array: forcing zeros can destroy
    positive definiteness, so no PD tag is attached.
    """
    a = np.array(_as_array(sigma_uc), dtype=float)
    _require_order(pattern, a.shape[0])
    a[pattern._mask] = 0.0
    return a


def min_eig_repair(sigma_zf, n):
    """Shift the diagonal just enough to restore positive definiteness.

    Adds (max(-lambda_min, 0) + 1/n^2) * I, so an already-PD input is
    only shifted by the vanishing 1/n^2 term.  Off-diagonal entries are
    untouched, hence any existing zeros survive.

    Parameters
    ----------
    sigma_zf : array_like
        Symmetric matrix, typically a zero-forced estimate.
    n : int
        Sample size behind the estimate; controls the 1/n^2 cushion.
    """
    a = np.asarray(_as_array(sigma_zf), dtype=float)
    if n < 1:
        raise ValueOutOfRangeError("sample size must be >= 1, got %r" % (n,))
    lam_min = float(np.linalg.eigvalsh(a)[0])
    shift = max(-lam_min, 0.0) + 1.0 / float(n) ** 2
    return SpdMatrix(a + shift * np.eye(a.shape[0]))


def objective(sigma, stats):
    """Evaluate tr(X-tilde Sigma^-1) + log det Sigma."""
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)
    return float(sigma.solve(stats.xtilde).trace()) + sigma.logdet()


def kkt_residual(sigma, stats, pattern):
    """Max absolute gradient entry of the objective over free coordinates.

    The gradient with respect to Sigma is Sigma^-1 - Sigma^-1 X-tilde
    Sigma^-1; it must vanish at every position not in the pattern,
    diagonal included.
    """
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)
    _require_order(pattern, sigma.dim)
    inv = sigma.inv()
    grad = inv - inv @ stats.xtilde @ inv
    return float(np.max(np.abs(grad[~pattern._mask])))


def _pivot(xt, pattern, j):
    """The pattern's index sets of pivot column j and the X-tilde blocks
    [M_uu | h_vu] and v_vv that the column update reads."""
    *indices, block_col = pattern._pivots[j - 1]
    return (*indices, xt.take(block_col), float(xt[j - 1, j - 1]))


def _update_column(cur, pivot):
    # in place on the plain symmetric array ``cur``, under
    # np.errstate(all="ignore"); see icf_column_update
    j, block, free, free_block, col, row, mh, v_vv = pivot
    a = cur.take(block)
    if _chol(a) is None:
        raise NotPositiveDefiniteError(
            "complementary block at pivot %d is not positive definite" % j
        )
    m_uu, h_vu = mh[:, :-1], mh[:, -1]

    b_opt = np.zeros(len(col))
    if len(free):
        # normal equations in the free coordinates, with A^-1 folded in:
        # [P' A^-1 M A^-1 P] b = P' A^-1 h   (sample count cancels)
        ainv_mh = _solve(a, mh)
        g_full = _solve(a, ainv_mh[:, :-1].T)
        g_full = 0.5 * (g_full + g_full.T)
        g = g_full.take(free_block)
        if _chol(g) is None:
            raise SingularNormalEquationsError(
                "free-coordinate Gram matrix at pivot %d is singular; "
                "the moment matrix is degenerate" % j
            )
        b_opt.put(free, _solve1(g, ainv_mh[:, -1].take(free)))

    beta = _solve1(a, b_opt)  # A^-1 b_opt
    s_opt = v_vv - 2.0 * float(beta @ h_vu) + float(beta @ m_uu @ beta)
    # s_opt is the new Schur complement: A being PD, so is the update iff s_opt > 0
    if not s_opt > 0.0:
        raise NotPositiveDefiniteError("new Schur complement at pivot %d is not positive" % j)
    cur.put(col, b_opt)
    cur.put(row, b_opt)
    cur[j - 1, j - 1] = s_opt + float(b_opt @ beta)


def icf_column_update(sigma, stats, j, pattern):
    """Optimal replacement of one column/row of Sigma, zeros respected.

    With the complementary block A held fixed, the off-diagonal column
    minimizing the objective solves a least-squares problem in the free
    coordinates only; constrained coordinates are excluded from the
    solve and written as exact zeros.  The pivot diagonal becomes
    s_opt + b_opt' A^-1 b_opt, which keeps the full matrix positive
    definite whenever s_opt > 0.

    Parameters
    ----------
    sigma : SpdMatrix or array_like
        Current iterate; validated here as ``SpdMatrix(sigma, pattern)``.
    stats : SufficientStats
        Moment aggregates; the sample count cancels in the solve.
    j : int
        1-based pivot column.
    pattern : ZeroPattern
        Zero constraints.

    Returns
    -------
    SpdMatrix
        New iterate tagged with ``pattern``; the complementary block is
        bitwise unchanged.

    Raises
    ------
    NotPositiveDefiniteError
        If ``sigma`` is not positive definite or has non-finite entries,
        or the new Schur complement s_opt is not positive.
    PatternViolationError
        If ``sigma`` has a nonzero entry at a constrained position.
    SingularNormalEquationsError
        If the free-coordinate Gram matrix is singular (degenerate stats).
    """
    cur = np.array(SpdMatrix(_as_array(sigma), pattern=pattern).values)
    q = cur.shape[0]
    if not (1 <= j <= q):
        raise IndexOutOfRangeError("pivot %d outside [1, %d]" % (j, q))
    with np.errstate(all="ignore"):
        _update_column(cur, _pivot(stats.xtilde, pattern, j))
    return SpdMatrix(cur, pattern=pattern)


# X-tilde is rank deficient when its smallest eigenvalue is at most
# _SINGULAR * tr/q, which is where X-tilde minus that multiple of I fails
# to factor: a null direction computes to a few ulps of tr, and the
# bundled example's fits keep theirs above 6.5e-6 * tr/q.  The ridge,
# _RIDGE * tr/q, is the smallest power of ten at which all of 600 singular
# X-tilde at q = 3..6 solved (at 1e-8, 2 of them raised; at 1e-10, 47).
_SINGULAR = 1e-10
_RIDGE = 1e-6


def solved_xtilde(xtilde):
    """The X-tilde that ``icf_solve`` solves, and whether it was ridged.

    A rank-deficient X-tilde (smallest eigenvalue at most 1e-10 * tr/q,
    whether or not it factors by rounding) gets 1e-6 * tr/q added to its
    diagonal; any other is returned as it is.
    """
    q = xtilde.shape[0]
    level = float(np.trace(xtilde)) / max(q, 1) * np.eye(q)  # tr/q on the diagonal
    with np.errstate(invalid="ignore"):
        ridged = _chol(xtilde - _SINGULAR * level) is None
    return (xtilde + _RIDGE * level if ridged else xtilde), ridged


def _newton_system(linv, xt, layout):
    """S X-tilde, and the gradient and Hessian of the objective over the
    free entries, at L L' for the inverse linv of a lower Cholesky
    factor L.

    With S = Sigma^-1 = linv' linv and P = S X-tilde S, the gradient at
    a = (i, j) is (2 - delta_ij) (S - P)_ij, and the Hessian at a, b =
    (k, l) is w_a w_b t(S, 2P - S)_ab, where t(A, B)_ab = A_jk B_li + A_jl
    B_ki + A_ik B_lj + A_il B_kj and w is 1/2 on the diagonal, 1
    elsewhere: the objective's second differential is tr(dSigma S dSigma
    (2P - S)).
    """
    lo, _, at_inv, at_b, w_grad, w_hess = layout
    inv = linv.T @ linv
    sx = inv @ xt
    p = sx @ inv
    grad = w_grad * (inv - p).take(lo)
    b = 2.0 * p - inv
    t = inv.take(at_inv) * b.take(at_b)
    hess = w_hess * (t[0] + t[1] + t[2] + t[3])
    return sx, grad, hess


def _objective_change(linv, sx, cand, delta):
    # objective(Sigma + delta) - objective(Sigma) for Sigma = L L' with
    # linv = L^-1 and sx = Sigma^-1 X-tilde, and cand = Sigma + delta,
    # as the sum of -tr(Sigma^-1 X-tilde (Sigma + delta)^-1 delta) and
    # sum(log1p(eig(L^-1 delta L^-T))).  Near the optimum the change is
    # second order in delta, below the rounding of the objective itself,
    # while these terms are first order and round only relative to
    # delta, so the sign of the change does not depend on the scale
    trace = -float((sx * _solve(cand, delta).T).sum())
    eig = _eigvalsh_lo(linv @ delta @ linv.T, signature="d->d")
    return trace + float(np.log1p(eig).sum())


# Step halvings a Newton step may take before the iteration falls back
# to a column sweep.
_HALVINGS = 4


def _newton_step(s, xt, layout, delta):
    # the damped Newton step from the scaled iterate s, with X-tilde in
    # the same frame (see icf_solve): the new scaled iterate, or None
    # where the step fails.  ``delta`` is a zero-patterned work array:
    # every step writes all its free entries, so its zeros stay
    chol = _chol(s)
    if chol is None:
        return None
    linv = _inv(chol)
    sx, grad, hess = _newton_system(linv, xt, layout)
    if _chol(hess) is None:
        return None
    step = _solve1(hess, -grad)
    lo, up = layout[0], layout[1]
    for _ in range(_HALVINGS + 1):
        delta.put(lo, step)
        delta.put(up, step)
        cand = s + delta
        if _chol(cand) is not None and _objective_change(linv, sx, cand, delta) < 0.0:
            return cand
        step *= 0.5
    return None


def _cold_start(xt, pattern):
    # the start of a solve without ``init`` and the sweeps it takes before
    # its first Newton step.  X-tilde with the pattern's entries set to
    # +0.0 keeps every free entry's information; it is taken where it
    # factors, checked in the frame scaled by 2^-e, max|entry| in
    # [2^(e-1), 2^e), so the choice does not depend on the scale, and one
    # sweep brings it close enough for Newton steps (two sweeps took 7%
    # longer over 96 sample covariances of 30 draws at q = 4 and 8).
    # Otherwise the start is the diagonal, which conforms to any pattern
    # and is PD iff all its entries are > 0, followed by two sweeps
    zf = zero_forced(xt, pattern)
    if _chol(np.ldexp(zf, -math.frexp(np.abs(zf).max())[1])) is not None:
        return zf, 1
    diag = np.diag(xt)
    if not np.all(diag > 0.0):
        raise NotPositiveDefiniteError(_NOT_PD)
    return np.diag(diag), 2


def icf_solve(stats, pattern, init=None, tol=1e-8, max_sweeps=500):
    """Constrained maximum-likelihood covariance by cyclic column updates,
    finished by safeguarded Newton steps.

    Without ``init``, the solve starts at X-tilde with the pattern's
    entries set to +0.0 where that matrix factors (checked in the frame
    scaled by a power of two, so the choice does not depend on the
    scale of X-tilde), and at the diagonal of X-tilde otherwise.

    A sweep updates pivots 1..q once each.  The first iteration from the
    zero-forced start, and the first two from the diagonal or from
    ``init``, are sweeps; every later one first tries one damped Newton
    step on the free lower-triangle entries, diagonal included, in the
    frame scaled by 2^-e, e from the largest absolute entry of the
    iterate.  With S = Sigma^-1 and P = S X-tilde S, the gradient of the
    objective at a free entry (i, j) is (2 - delta_ij) (S - P)_ij, and
    its Hessian is the closed form of ``_newton_system`` (as in scoring
    for linear covariance structures, Anderson 1973, Ann. Statist.
    1:135).  The step is taken when the Hessian factors and, at the full
    step or after at most four halvings, the stepped matrix factors and
    its objective is strictly below the iterate's; the change is summed
    from first-order terms, so its sign does not depend on the scale of
    X-tilde.  Where the step fails, the iteration is a sweep.  So every
    iterate is positive definite, the objective never rises, pattern
    zeros are never written and stay +0.0, and the solve scales with
    X-tilde.  An iteration whose relative Frobenius change drops below
    ``tol`` ends the solve, as converged.

    ``sweeps`` in the diagnostics counts the sweeps and ``newton_steps``
    the Newton steps taken, and ``max_sweeps`` caps their sum exactly:
    the solve returns the cap's iterate, flagged as not converged, not
    raised.  Under a cap of one, or of two from the diagonal or from
    ``init``, no Newton step runs.  The empty pattern needs no iteration
    and returns X-tilde itself.

    Inputs are validated once, here.  The iterations update one plain
    array, each column update checking that its new Schur complement
    s_opt is positive, and the result is validated once, as an SpdMatrix.

    A rank-deficient X-tilde is ridged before solving (see
    ``solved_xtilde``), and the diagnostics flag it.

    Parameters
    ----------
    stats : SufficientStats
    pattern : ZeroPattern
    init : SpdMatrix, optional
        Starting point; defaults to the zero-forced X-tilde, or its
        diagonal where that does not factor.
    tol : float
        Relative Frobenius change threshold of an iteration; finite and > 0.
    max_sweeps : int
        Cap on the iterations, sweeps plus Newton steps; an integer
        (not a bool), at least 1.

    Returns
    -------
    (SpdMatrix, IcfDiagnostics)
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueOutOfRangeError("tol must be finite and > 0, got %r" % (tol,))
    _check_count("max_sweeps", max_sweeps, 1)
    q = stats.dim
    _require_order(pattern, q)

    xt, ridged = solved_xtilde(stats.xtilde)

    if pattern.is_empty():
        return SpdMatrix(xt), IcfDiagnostics(sweeps=0, newton_steps=0, converged=True,
                                             ridged=ridged)

    pivots = [_pivot(xt, pattern, j) for j in range(1, q + 1)]
    layout, delta = pattern._newton, np.zeros((q, q))
    sweeps = newton_steps = 0
    converged = False
    with np.errstate(all="ignore"):
        if init is None:
            cur, first_newton = _cold_start(xt, pattern)
        else:
            cur, first_newton = np.array(SpdMatrix(_as_array(init), pattern=pattern).values), 2
        while sweeps + newton_steps < max_sweeps:
            prev = cur
            # the Newton step and both norms work in one frame, scaled by
            # 2^-e with max|prev| in [2^(e-1), 2^e): exact, so the norms'
            # ratio is the plain one wherever that is finite, and nothing
            # over- or underflows at extreme scales.  The norms are
            # np.linalg.norm's: the square root of a ddot of the raveled array
            e = math.frexp(np.abs(prev).max())[1]
            s = np.ldexp(prev, -e)
            cur = (_newton_step(s, np.ldexp(xt, -e), layout, delta)
                   if sweeps >= first_newton else None)
            if cur is None:
                cur = prev.copy()
                for p in pivots:
                    _update_column(cur, p)
                sweeps += 1
            else:
                cur = np.ldexp(cur, e)
                newton_steps += 1
            d, s = np.ldexp(cur - prev, -e).ravel(), s.ravel()
            if math.sqrt(d.dot(d)) / math.sqrt(s.dot(s)) < tol:
                converged = True
                break
    return (SpdMatrix(cur, pattern=pattern),
            IcfDiagnostics(sweeps=sweeps, newton_steps=newton_steps, converged=converged,
                           ridged=ridged))
