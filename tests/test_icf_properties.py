"""Property tests of the constrained covariance solve at orders 3 to 8.

Random moment matrices and random zero patterns; at every iteration of
the solve, column sweep or Newton step, the zeros must stay exact and
+0.0, the iterate positive definite and the objective must not rise
beyond rounding;
the solve must reach a scale-free stationary point when it reports
convergence, and equal, bit for bit and in both counts, a replay of its
iterations through the public single-column update.  It must also
equal, bit for bit and in both counts, the reference solve of
helpers.py run on the reference update (numpy factors, numpy's
checked ``solve`` and ``inv``), and ``SpdMatrix``'s solves must equal
``np.linalg.solve`` bitwise, and scipy's ``cho_solve`` to rounding:
faster kernels may not drift.  The Newton step's gradient and
Hessian must match central differences of the objective.  Against the
plain-sweep oracle of helpers.py, the solve must reach an objective no
higher and, over a seeded battery, take at most 0.6 times its sweeps
in sweeps and Newton steps together.  From its default start, the
zero-forced X-tilde where that factors, the solve must reach the
objective of the solve started at the diagonal.  The factorization
helper must equal ``np.linalg.cholesky`` bitwise and fail exactly
where it raises, and every failed factorization must surface as the
package's own error, never as a RuntimeWarning: any warning the kernel
leaks fails here.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (  # noqa: E402
    _objective_and_gradient,
    free_positions,
    random_pattern,
    random_spd,
    reference_cold_start,
    reference_icf_solve,
    reference_newton_icf_solve,
)
from zeromix.covariance import (  # noqa: E402
    SpdMatrix,
    SufficientStats,
    ZeroPattern,
    _chol,
    _newton_system,
    icf_column_update,
    icf_solve,
    min_eig_repair,
    objective,
    zero_forced,
)
from zeromix.exceptions import (  # noqa: E402
    NotPositiveDefiniteError,
    SingularNormalEquationsError,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@st.composite
def problems(draw):
    q = draw(st.integers(3, 8))
    pairs = [(i, j) for j in range(2, q + 1) for i in range(1, j)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs),
                           unique=True))
    seed = draw(st.integers(0, 2**32 - 1))
    extra = draw(st.integers(1, 8))
    g = np.random.default_rng(seed).standard_normal((q + extra, q))
    return g.T @ g / (q + extra), ZeroPattern(chosen, dim=q)


def _scale_free_kkt(sigma, xtilde, pattern):
    # max |D grad D| over the free entries, D = sqrt(diag Sigma)
    inv = np.linalg.inv(sigma)
    grad = inv - inv @ xtilde @ inv
    d = np.sqrt(np.diag(sigma))
    return float(np.max(np.abs((d[:, None] * grad * d[None, :])[~pattern.mask()])))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problems())
def test_icf_solve_properties(problem):
    xt, pat = problem
    stats = SufficientStats(xt, n=30)
    sol, diag = icf_solve(stats, pat)
    if diag.converged:
        assert _scale_free_kkt(sol.values, stats.xtilde, pat) <= 1e-5

    diag_start = objective(SpdMatrix(np.diag(np.diag(stats.xtilde)), pattern=pat), stats)
    start = objective(SpdMatrix(reference_cold_start(stats.xtilde, pat)[0], pattern=pat), stats)
    assert objective(sol, stats) <= min(start, diag_start)

    # the solve capped at k iterations returns its k-th iterate, so every
    # iteration, sweep or Newton step, is checked here; the objective may
    # not rise by more than the rounding of its evaluation
    last = start
    for k in range(1, diag.sweeps + diag.newton_steps + 1):
        it, it_diag = icf_solve(stats, pat, max_sweeps=k)
        assert it_diag.sweeps + it_diag.newton_steps == k
        zeros = it.values[pat.mask()]
        assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
        np.linalg.cholesky(it.values)
        obj = objective(it, stats)
        assert obj <= last + 1e-12 * max(1.0, abs(last))
        last = obj
    assert it.values.tobytes() == sol.values.tobytes()

    def public_update(sigma, xtilde, j, pattern):
        return icf_column_update(sigma, stats, j, pattern).values

    replay, sweeps, newton_steps = reference_newton_icf_solve(stats.xtilde, pat,
                                                              update=public_update)
    assert (sweeps, newton_steps) == (diag.sweeps, diag.newton_steps)
    assert replay.tobytes() == sol.values.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problems())
def test_icf_solve_replays_bitwise_through_the_reference_update(problem):
    xt, pat = problem
    stats = SufficientStats(xt, n=30)
    sol, diag = icf_solve(stats, pat)
    ref, sweeps, newton_steps = reference_newton_icf_solve(stats.xtilde, pat)
    assert (diag.sweeps, diag.newton_steps) == (sweeps, newton_steps)
    assert sol.values.tobytes() == ref.tobytes()


def test_cold_start_reaches_the_diagonal_starts_optimum():
    # the default start is the zero-forced X-tilde where that factors;
    # from either start the solve keeps its zeros exact and its result
    # PD, and it reaches the optimum of the solve started at the
    # diagonal: the same objective to 1e-12 relative, a stationary point
    rng = np.random.default_rng(34)
    starts = {1: 0, 2: 0}
    for q in range(3, 9):
        for _ in range(20):
            pat = random_pattern(rng, q, max_pairs=q * (q - 1) // 2)
            stats = SufficientStats(random_spd(rng, q, dof_extra=int(rng.integers(1, 9))),
                                    n=30)
            starts[reference_cold_start(stats.xtilde, pat)[1]] += 1
            sol, diag = icf_solve(stats, pat)
            ref, ref_diag = icf_solve(stats, pat, init=SpdMatrix(
                np.diag(np.diag(stats.xtilde)), pattern=pat))
            assert diag.converged and ref_diag.converged
            zeros = sol.values[pat.mask()]
            assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
            np.linalg.cholesky(sol.values)
            obj, ref_obj = objective(sol, stats), objective(ref, stats)
            assert abs(obj - ref_obj) <= 1e-12 * max(1.0, abs(ref_obj))
            assert _scale_free_kkt(sol.values, stats.xtilde, pat) <= 1e-5
    assert starts[1] > 0 and starts[2] > 0


def test_newton_gradient_and_hessian_match_central_differences():
    # at a positive definite point off the optimum, against central
    # differences of the objective (gradient) and of its analytic
    # gradient (Hessian), over the free entries in row-major order
    rng = np.random.default_rng(26)
    h = 1e-5
    for q in range(2, 9):
        for _ in range(3):
            pat = random_pattern(rng, q, max_pairs=q)
            xt = random_spd(rng, q)
            sigma = min_eig_repair(zero_forced(random_spd(rng, q) + np.eye(q), pat), 10).values
            rows, cols = free_positions(pat)
            linv = np.linalg.inv(np.linalg.cholesky(sigma))
            _, grad, hess = _newton_system(linv, xt, pat._newton)
            x = sigma[rows, cols]
            fd_grad, fd_hess = np.zeros(len(x)), np.zeros((len(x), len(x)))
            for a in range(len(x)):
                e = np.zeros(len(x))
                e[a] = h
                f_plus, g_plus = _objective_and_gradient(x + e, rows, cols, xt)
                f_minus, g_minus = _objective_and_gradient(x - e, rows, cols, xt)
                fd_grad[a] = (f_plus - f_minus) / (2.0 * h)
                fd_hess[:, a] = (g_plus - g_minus) / (2.0 * h)
            assert np.max(np.abs(grad - fd_grad)) <= 1e-7 * max(1.0, np.max(np.abs(grad)))
            assert np.max(np.abs(hess - fd_hess)) <= 1e-7 * np.max(np.abs(hess))


@pytest.mark.slow
def test_icf_solve_matches_plain_sweeps_in_fewer_sweeps():
    # the plain-sweep oracle reaches no lower objective, and over the
    # 200 seeded problems the solve takes at most 0.6 times its sweeps,
    # counting its sweeps and Newton steps together
    totals = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(problems())
    def solve(problem):
        xt, pat = problem
        stats = SufficientStats(xt, n=30)
        sol, diag = icf_solve(stats, pat)
        plain, plain_sweeps = reference_icf_solve(stats.xtilde, pat)
        assert diag.converged
        obj = objective(sol, stats)
        assert obj <= objective(plain, stats) + 1e-12 * max(1.0, abs(obj))
        assert _scale_free_kkt(sol.values, stats.xtilde, pat) <= 1e-5
        totals.append((diag.sweeps + diag.newton_steps, plain_sweeps))

    solve()
    iterations, plain_sweeps = np.sum(totals, axis=0)
    assert len(totals) == 200 and iterations <= 0.6 * plain_sweeps


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_spd_solve_and_inv_equal_numpy_solve_bitwise(q, k, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((q + 2, q))
    spd = SpdMatrix(g.T @ g)
    factor = (spd.chol_lower, True)
    # a vector, a matrix, and a Fortran-ordered matrix of right-hand sides
    for rhs in (rng.standard_normal(q), rng.standard_normal((q, k)),
                rng.standard_normal((k, q)).T):
        x, want = spd.solve(rhs), np.linalg.solve(spd.values, rhs)
        assert x.shape == want.shape and x.tobytes() == want.tobytes()
        assert np.allclose(x, cho_solve(factor, rhs), rtol=1e-10, atol=0.0)
    inv = spd.inv()
    assert inv.tobytes() == np.linalg.inv(spd.values).tobytes()
    assert inv.tobytes() == np.linalg.solve(spd.values, np.eye(q)).tobytes()
    assert np.allclose(inv, cho_solve(factor, np.eye(q)), rtol=1e-10, atol=0.0)


@st.composite
def symmetric_matrices(draw):
    """Finite symmetric matrices of order 0..8: SPD, rank-deficient or indefinite."""
    q = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["spd", "semidefinite", "indefinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-20, 20))
    if kind == "spd":
        g = rng.standard_normal((q + draw(st.integers(0, 3)), q))
        a = g.T @ g
    elif kind == "semidefinite":
        g = rng.standard_normal((draw(st.integers(0, max(q - 1, 0))), q))
        a = g.T @ g
    else:
        h = rng.standard_normal((q, q))
        a = h + h.T
    return scale * a


def _assert_chol_matches_numpy(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(invalid="ignore"):
            chol = _chol(a)
    try:
        want = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        assert chol is None
        return
    assert chol is not None
    assert chol.shape == want.shape and chol.dtype == want.dtype
    assert chol.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(symmetric_matrices())
def test_chol_equals_numpy_cholesky_bitwise(a):
    _assert_chol_matches_numpy(a)


def test_chol_fails_where_numpy_fails_on_nan_input():
    # a NaN pivot: numpy fails or passes it through (the LAPACK build
    # decides), and a NaN entry off the diagonal can reach the factor
    for a in ([[np.nan, 1.0], [1.0, 2.0]], [[2.0, np.nan], [np.nan, 2.0]],
              [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, np.nan]]):
        _assert_chol_matches_numpy(np.array(a))


def _pd_with_indefinite_block():
    # a rank-one 3 x 3 matrix that numpy factors (rounding leaves positive
    # pivots) but whose block without row and column 1 it does not
    rng = np.random.default_rng(0)
    for _ in range(5000):
        g = rng.standard_normal((1, 3))
        a = g.T @ g
        a = np.tril(a) + np.tril(a, -1).T
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            continue
        try:
            np.linalg.cholesky(a[1:, 1:])
        except np.linalg.LinAlgError:
            return a
    raise AssertionError("no such matrix among 5000 rank-one draws")


def _raises_without_warning(error, message, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as info:
            call()
    assert str(info.value) == message


def test_failed_factorizations_raise_package_errors_without_warnings():
    eye3 = np.eye(3)
    empty3 = ZeroPattern([], dim=3)
    indefinite = np.diag([1.0, -1.0, 1.0])
    _raises_without_warning(
        NotPositiveDefiniteError,
        "complementary block at pivot 1 is not positive definite",
        lambda: icf_column_update(_pd_with_indefinite_block(), SufficientStats(eye3, n=5),
                                  1, empty3))
    _raises_without_warning(
        SingularNormalEquationsError,
        "free-coordinate Gram matrix at pivot 1 is singular; the moment matrix is degenerate",
        lambda: icf_column_update(eye3, SufficientStats(np.zeros((3, 3)), n=5), 1, empty3))
    # rank one: X-tilde is ridged; from a start of order 1e200 the
    # Gram matrix A^-1 M A^-1 underflows to zero, so the sweep fails too
    v = np.array([1.0, -2.0, 0.5])
    pat13 = ZeroPattern([(1, 3)], dim=3)
    _raises_without_warning(
        SingularNormalEquationsError,
        "free-coordinate Gram matrix at pivot 1 is singular; the moment matrix is degenerate",
        lambda: icf_solve(SufficientStats(np.outer(v, v), n=5), pat13,
                          init=SpdMatrix(1e200 * eye3, pattern=pat13)))
    _raises_without_warning(
        NotPositiveDefiniteError,
        "symmetric factorization failed: matrix is not positive definite",
        lambda: SpdMatrix(indefinite))
    # the default start, the diagonal of X-tilde, has a negative entry
    _raises_without_warning(
        NotPositiveDefiniteError,
        "symmetric factorization failed: matrix is not positive definite",
        lambda: icf_solve(SufficientStats(np.diag([-1.0, 5.0, 3.0]), n=5), pat13))
