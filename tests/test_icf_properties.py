"""Property tests of the constrained covariance solve at orders 3 to 8.

Random moment matrices and random zero patterns; the solve must keep
its zeros exact, return a positive definite matrix, not increase the
objective from its diagonal start, reach a scale-free stationary point
when it reports convergence, and equal, bit for bit, a replay of its
sweeps through the public single-column update.  It must also equal,
bit for bit and in sweep count, a replay through the reference update
of helpers.py (numpy factors, scipy's ``cho_solve``), and the
factorization's solves must equal ``cho_solve`` bitwise: faster
kernels may not drift.
"""

import numpy as np
import pytest
from scipy.linalg import cho_solve

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import reference_icf_solve  # noqa: E402
from zeromix.covariance import (  # noqa: E402
    SpdMatrix,
    SufficientStats,
    ZeroPattern,
    icf_column_update,
    icf_solve,
    objective,
)


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
    q = pat.dim
    stats = SufficientStats(xt, n=30)
    sol, diag = icf_solve(stats, pat)

    assert np.all(sol.values[pat.mask()] == 0.0)
    np.linalg.cholesky(sol.values)
    if diag.converged:
        assert _scale_free_kkt(sol.values, stats.xtilde, pat) <= 1e-5
    start = SpdMatrix(np.diag(np.diag(stats.xtilde)), pattern=pat)
    assert diag.objective <= objective(start, stats)

    cur = start
    for _ in range(diag.sweeps):
        for j in range(1, q + 1):
            cur = icf_column_update(cur, stats, j, pat)
    assert cur.values.tobytes() == sol.values.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(problems())
def test_icf_solve_replays_bitwise_through_the_reference_update(problem):
    xt, pat = problem
    stats = SufficientStats(xt, n=30)
    sol, diag = icf_solve(stats, pat)
    ref, sweeps = reference_icf_solve(stats.xtilde, pat)
    assert diag.sweeps == sweeps
    assert sol.values.tobytes() == ref.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_spd_solve_and_inv_equal_cho_solve_bitwise(q, k, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((q + 2, q))
    spd = SpdMatrix(g.T @ g)
    factor = (spd.chol_lower, True)
    # a vector, a matrix, and a Fortran-ordered matrix of right-hand sides
    for rhs in (rng.standard_normal(q), rng.standard_normal((q, k)),
                rng.standard_normal((k, q)).T):
        x, want = spd.solve(rhs), cho_solve(factor, rhs)
        assert x.shape == want.shape and x.tobytes() == want.tobytes()
    assert spd.inv().tobytes() == cho_solve(factor, np.eye(q)).tobytes()
