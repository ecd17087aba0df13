"""Covariance layer: pattern handling, the SPD wrapper, the columnwise
constrained solve, and zero-forcing repair.

Expected numbers fall in three classes: hand-derived closed forms
(frozen fractions like -12/7), values reproduced by the independent
brute-force oracle in helpers.py, and direct assertions of contracts
(exact zeros, bitwise invariance).
"""

import itertools
import pickle

import numpy as np
import pytest

from helpers import (brute_force_constrained_objective, free_positions, oracle_starts,
                     random_pattern, random_spd, reference_newton_icf_solve)
from zeromix.covariance import (
    SpdMatrix,
    SufficientStats,
    ZeroPattern,
    icf_column_update,
    icf_solve,
    kkt_residual,
    min_eig_repair,
    objective,
    zero_forced,
)
from zeromix.exceptions import (
    DiagonalZeroError,
    DuplicatePairError,
    IndexOutOfRangeError,
    NotPositiveDefiniteError,
    PatternViolationError,
    ValueOutOfRangeError,
)
from zeromix.harness import SimStudyConfig

# Running example: a 3x3 scatter matrix whose zero-forced version is
# indefinite, so the constrained solve and the naive repair genuinely
# differ on it.
XT3 = np.array([[4.0, -3.0, 3.0], [-3.0, 4.0, -3.0], [3.0, -3.0, 4.0]])
PAT13 = ZeroPattern([(1, 3)], dim=3)


def test_pattern_canonicalizes_pairs():
    pat = ZeroPattern([(3, 1), (2, 4)], dim=4)
    assert pat.pairs == ((1, 3), (2, 4))
    assert (1, 3) in pat and (3, 1) in pat
    assert (1, 2) not in pat
    assert len(pat) == 2
    assert not pat.is_empty()
    assert ZeroPattern([], dim=4).is_empty()


def test_pattern_equality_and_hash_ignore_order():
    a = ZeroPattern([(1, 3), (2, 4)], dim=4)
    b = ZeroPattern([(4, 2), (3, 1)], dim=4)
    assert a == b
    assert hash(a) == hash(b)
    assert a != ZeroPattern([(1, 3)], dim=4)


def test_pattern_mask_marks_both_triangles():
    mask = ZeroPattern([(1, 3)], dim=3).mask()
    expected = np.zeros((3, 3), dtype=bool)
    expected[0, 2] = expected[2, 0] = True
    assert np.array_equal(mask, expected)


def test_pattern_validation_errors():
    with pytest.raises(DiagonalZeroError):
        ZeroPattern([(2, 2)], dim=3)
    with pytest.raises(IndexOutOfRangeError):
        ZeroPattern([(0, 2)], dim=3)
    with pytest.raises(IndexOutOfRangeError):
        ZeroPattern([(1, 4)], dim=3)
    with pytest.raises(DuplicatePairError):
        ZeroPattern([(1, 3), (3, 1)], dim=3)


@pytest.mark.parametrize("dim", [0, -1, 2.7, "3", None, True])
def test_pattern_rejects_an_order_that_is_not_a_positive_integer(dim):
    with pytest.raises(ValueOutOfRangeError, match="integer >= 1"):
        ZeroPattern([], dim=dim)
    assert ZeroPattern([(1, 2)], dim=np.int64(2)).dim == 2


@pytest.mark.parametrize("pair", [(1.5, 3), (1, 3.0), (True, 3), ("1", 3)])
def test_pattern_rejects_an_index_that_is_not_an_integer(pair):
    # int() would read (1.5, 3) as (1, 3) and (True, 3) as (1, 3)
    with pytest.raises(IndexOutOfRangeError, match="not an integer"):
        ZeroPattern([pair], dim=4)
    assert ZeroPattern([(np.int64(1), np.int32(3))], dim=4).pairs == ((1, 3),)


def _layout_cases():
    # every pattern at q = 1..4, then 200 seeded random ones at q = 5..8
    for q in range(1, 5):
        pairs = list(itertools.combinations(range(1, q + 1), 2))
        for k in range(len(pairs) + 1):
            for chosen in itertools.combinations(pairs, k):
                yield ZeroPattern(chosen, dim=q)
    rng = np.random.default_rng(2929)
    for _ in range(200):
        q = int(rng.integers(5, 9))
        yield random_pattern(rng, q, max_pairs=q * (q - 1) // 2)


def test_only_a_solved_pattern_builds_the_solver_layouts():
    pat, stats = ZeroPattern([(1, 3)], dim=3), SufficientStats(XT3, n=10)
    assert "_pivots" not in vars(pat) and "_newton" not in vars(pat)
    first = icf_solve(stats, pat)[0].values.tobytes()
    pivots, newton = pat._pivots, pat._newton
    assert icf_solve(stats, pat)[0].values.tobytes() == first
    assert pat._pivots is pivots and pat._newton is newton
    assert "_pivots" not in vars(pickle.loads(pickle.dumps(pat)))


def test_pattern_layout_matches_the_independent_free_positions():
    cases = list(_layout_cases())
    assert len(cases) == 1 + 2 + 8 + 64 + 200
    for pat in cases:
        q = pat.dim
        expected = free_positions(pat)
        back = pickle.loads(pickle.dumps(pat))  # as pool workers receive it
        assert back == pat and hash(back) == hash(pat)
        for got in (pat.free_entries, back.free_entries):
            assert len(got) == 2
            for a, b in zip(got, expected):
                assert np.array_equal(a, b) and not a.flags.writeable
        # the solver's pivot index sets and Newton layout, built once
        solver_layout = [(pat._newton, back._newton),
                         *((p[1:], b[1:]) for p, b in zip(pat._pivots, back._pivots))]
        assert len(solver_layout) == q + 1
        for ours, theirs in solver_layout:
            for a, b in zip(ours, theirs):
                assert np.array_equal(a, b) and not a.flags.writeable and not b.flags.writeable
        mask = pat.mask()
        assert mask.dtype == bool and mask.flags.writeable
        assert np.array_equal(mask, mask.T) and int(mask.sum()) == 2 * len(pat)
        assert not mask[expected].any() and np.array_equal(back.mask(), mask)
        # -0.0 is a zero, NaN is not; the mask handed out is the caller's own
        entries = np.where(mask, -0.0, 1.0)
        assert pat.conforms(entries)
        mask[:] = ~mask
        assert pat.conforms(entries) and np.array_equal(pat.mask(), ~mask)
        if len(pat):
            entries[pat.pairs[-1][1] - 1, pat.pairs[-1][0] - 1] = np.nan
            assert not pat.conforms(entries)
        assert len(pat.free_entries[0]) == q * (q + 1) // 2 - len(pat)


def test_spd_matrix_symmetrizes_bitwise():
    m = np.array([[2.0, 0.3], [0.300000001, 1.0]])
    spd = SpdMatrix(m)
    assert spd.values[0, 1] == spd.values[1, 0]
    # lower triangle wins
    assert spd.values[0, 1] == 0.300000001


def test_spd_matrix_rejects_indefinite_and_nonfinite():
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefiniteError):
        SpdMatrix(np.zeros((2, 2)))


def test_spd_matrix_enforces_pattern_conformance():
    pat = ZeroPattern([(1, 2)], dim=2)
    with pytest.raises(PatternViolationError):
        SpdMatrix(np.array([[1.0, 0.1], [0.1, 1.0]]), pattern=pat)
    ok = SpdMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), pattern=pat)
    assert ok.pattern == pat


def test_spd_matrix_rejects_pattern_of_another_order():
    # (1, 3) lies inside both orders; only the declared order differs
    with pytest.raises(ValueError, match="declared for order 3 but the matrix has order 4"):
        SpdMatrix(np.eye(4), pattern=ZeroPattern([(1, 3)], dim=3))
    with pytest.raises(ValueError, match="declared for order 4 but the matrix has order 3"):
        SpdMatrix(np.eye(3), pattern=ZeroPattern([(1, 3)], dim=4))


def test_spd_matrix_is_read_only():
    spd = SpdMatrix(np.eye(2))
    with pytest.raises(ValueError):
        spd.values[0, 0] = 5.0


def test_an_unpickled_spd_matrix_stays_read_only():
    # pool workers receive their start covariance pickled
    rng = np.random.default_rng(12)
    pat = ZeroPattern([(1, 4), (3, 4)], dim=4)
    cases = [SpdMatrix(np.eye(2)), SpdMatrix(random_spd(rng, 3)),
             SpdMatrix(np.where(pat.mask(), 0.0, random_spd(rng, 4) + 4.0 * np.eye(4)),
                       pattern=pat)]
    for spd in cases:
        back = pickle.loads(pickle.dumps(spd))
        assert back.pattern == spd.pattern
        for got, want in ((back.values, spd.values), (back.chol_lower, spd.chol_lower)):
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
            with pytest.raises(ValueError):
                got[0, 0] = 9.0
        assert back.logdet() == spd.logdet()


def test_spd_matrix_solve_logdet_inv_match_numpy():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 4)
    spd = SpdMatrix(a)
    rhs = rng.standard_normal((4, 2))
    assert np.allclose(spd.solve(rhs), np.linalg.solve(a, rhs), atol=1e-12)
    assert np.isclose(spd.logdet(), np.linalg.slogdet(a)[1], atol=1e-12)
    assert np.allclose(spd.inv(), np.linalg.inv(a), atol=1e-10)


def test_zero_forcing_overwrites_only_the_pattern():
    zf = zero_forced(SpdMatrix(XT3).values, PAT13)
    expected = np.array([[4.0, -3.0, 0.0], [-3.0, 4.0, -3.0], [0.0, -3.0, 4.0]])
    assert np.array_equal(zf, expected)


def test_zero_forcing_can_lose_positive_definiteness():
    zf = zero_forced(XT3, PAT13)
    lam_min = float(np.linalg.eigvalsh(zf)[0])
    assert lam_min == pytest.approx(4.0 - 3.0 * np.sqrt(2.0), abs=1e-12)
    assert lam_min < 0.0


def test_min_eig_repair_restores_pd_and_keeps_zeros():
    zf = zero_forced(XT3, PAT13)
    rep = min_eig_repair(zf, 30)
    assert rep.values[0, 2] == 0.0 and rep.values[2, 0] == 0.0
    assert rep.values[0, 1] == -3.0
    expected_diag = 3.0 * np.sqrt(2.0) + 1.0 / 900.0
    assert np.allclose(np.diag(rep.values), expected_diag, atol=1e-12)


def test_min_eig_repair_barely_touches_pd_input():
    a = np.array([[2.0, 0.0], [0.0, 3.0]])
    rep = min_eig_repair(a, 10)
    assert np.allclose(np.diag(rep.values), [2.01, 3.01], atol=1e-15)


def test_sufficient_stats_validation():
    st = SufficientStats(XT3, n=5)
    assert st.dim == 3 and st.n == 5
    with pytest.raises(ValueOutOfRangeError):
        SufficientStats(XT3, n=0)
    with pytest.raises(ValueError):
        SufficientStats(np.array([[np.inf, 0.0], [0.0, 1.0]]), n=3)


def test_column_update_solves_the_reduced_least_squares_by_hand():
    # Identity current state, the running 3x3 scatter, zero at (1,3),
    # updating column 3: the single free coefficient solves 4 b = -3,
    # and the new diagonal is the residual plus the quadratic form.
    sigma = SpdMatrix(np.eye(3), pattern=PAT13)
    stats = SufficientStats(XT3, n=10)
    out = icf_column_update(sigma, stats, 3, PAT13)
    assert out.values[0, 2] == 0.0
    assert out.values[1, 2] == pytest.approx(-0.75, abs=1e-14)
    assert out.values[2, 2] == pytest.approx(2.3125, abs=1e-14)
    # the complementary block is untouched, bitwise
    assert np.array_equal(out.values[:2, :2], np.eye(2))


def test_column_update_never_increases_the_objective():
    rng = np.random.default_rng(5)
    for _ in range(60):
        q = int(rng.integers(3, 6))
        pat = random_pattern(rng, q)
        stats = SufficientStats(random_spd(rng, q), n=20)
        cur = SpdMatrix(np.diag(np.diag(stats.xtilde)), pattern=pat)
        obj = objective(cur, stats)
        for _sweep in range(3):
            for j in range(1, q + 1):
                cur = icf_column_update(cur, stats, j, pat)
                new_obj = objective(cur, stats)
                assert new_obj <= obj + 1e-12
                obj = new_obj
        assert cur.pattern == pat
        assert np.all(cur.values[pat.mask()] == 0.0)


def test_constrained_solve_on_the_running_example():
    stats = SufficientStats(XT3, n=100)
    sol, diag = icf_solve(stats, PAT13)
    assert sol.values[0, 2] == 0.0 and sol.values[2, 0] == 0.0
    assert sol.values[0, 1] == pytest.approx(-12.0 / 7.0, abs=1e-9)
    assert sol.values[1, 2] == pytest.approx(-12.0 / 7.0, abs=1e-9)
    assert sol.values[1, 1] == pytest.approx(142.0 / 49.0, abs=1e-9)
    assert sol.values[0, 0] == pytest.approx(4.0, abs=1e-9)
    assert diag.converged
    assert kkt_residual(sol, stats, PAT13) < 1e-8
    assert not diag.ridged
    # the solution is a fixed point of the column update
    resweep = icf_column_update(sol, stats, 1, PAT13)
    assert np.abs(resweep.values - sol.values).max() < 1e-8


def test_constrained_solve_beats_the_repaired_zero_forcing():
    stats = SufficientStats(XT3, n=100)
    sol, _ = icf_solve(stats, PAT13)
    naive = min_eig_repair(zero_forced(XT3, PAT13), 100)
    assert objective(sol, stats) < objective(naive, stats) - 1e-9


def test_constrained_solve_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    for _ in range(10):
        q = int(rng.integers(3, 5))
        pat = random_pattern(rng, q)
        xt = random_spd(rng, q)
        stats = SufficientStats(xt, n=25)
        sol, _ = icf_solve(stats, pat)
        best = brute_force_constrained_objective(xt, pat, oracle_starts(xt, pat))
        assert objective(sol, stats) == pytest.approx(best, abs=1e-8)
        assert kkt_residual(sol, stats, pat) < 1e-6


def test_empty_pattern_returns_the_unconstrained_optimum():
    stats = SufficientStats(XT3, n=100)
    sol, diag = icf_solve(stats, ZeroPattern([], dim=3))
    assert np.array_equal(sol.values, SpdMatrix(XT3).values)
    assert diag.sweeps == 0


def test_two_by_two_single_pair_short_circuits():
    xt = np.array([[2.0, 0.7], [0.7, 1.5]])
    sol, diag = icf_solve(SufficientStats(xt, n=10), ZeroPattern([(1, 2)], dim=2))
    assert np.array_equal(sol.values, np.diag([2.0, 1.5]))
    assert diag.sweeps == 1 and diag.converged


def test_singular_scatter_takes_the_ridge_path():
    v = np.array([1.0, -2.0, 0.5])
    xt = np.outer(v, v)
    stats = SufficientStats(xt, n=10)
    sol, diag = icf_solve(stats, ZeroPattern([(1, 3)], dim=3))
    assert diag.ridged
    np.linalg.cholesky(sol.values)
    assert sol.values[0, 2] == 0.0


def _factors(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.slow
def test_every_rank_deficient_scatter_is_ridged_and_solved():
    # X-tilde = G'G with G of rank 1..q-1 and columns scaled by 1e-3..1e3,
    # some of which factor by rounding: each solve returns a PD matrix
    # with its zeros exact, flagged as ridged.  A full-rank X-tilde whose
    # variances span six orders, as a fit's do, is solved unridged, bit
    # for bit and in both counts as by the reference solve.
    rng = np.random.default_rng(20071)
    factored = 0
    for case in range(300):
        q = int(rng.integers(3, 7))
        pat = random_pattern(rng, q)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, q)
        g = rng.standard_normal((int(rng.integers(1, q)), q)) * scales
        stats = SufficientStats(g.T @ g, n=5)
        factored += _factors(stats.xtilde)
        sol, diag = icf_solve(stats, pat)
        assert diag.ridged, case
        assert pat.conforms(sol.values), case
        assert _factors(sol.values), case
        if case % 10 == 0:
            h = rng.standard_normal((q + 3, q)) * 10.0 ** rng.uniform(-1.5, 1.5, q)
            full = SufficientStats(h.T @ h, n=5)
            sol, diag = icf_solve(full, pat)
            ref, sweeps, newton_steps = reference_newton_icf_solve(full.xtilde, pat)
            assert not diag.ridged, case
            assert (diag.sweeps, diag.newton_steps) == (sweeps, newton_steps), case
            assert sol.values.tobytes() == ref.tobytes(), case
    assert factored > 0


def test_indefinite_moments_fail_the_schur_check():
    # updating column 2 of the identity against [[1, 2], [2, 1]] gives
    # b = 2 and a new Schur complement 1 - 2*2*2 + 2*2 = -3
    xt = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        icf_column_update(SpdMatrix(np.eye(2)), SufficientStats(xt, n=5), 2,
                          ZeroPattern([], dim=2))
    embedded = np.eye(3)
    embedded[:2, :2] = xt
    with pytest.raises(NotPositiveDefiniteError):
        icf_solve(SufficientStats(embedded, n=5), PAT13)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
def test_solve_is_equivariant_under_extreme_scales(scale):
    # the solution for c X-tilde is c Sigma-hat, reached in as many
    # sweeps: the convergence test neither over- nor underflows
    pat = ZeroPattern([(1, 3), (2, 4)], dim=4)
    xt = random_spd(np.random.default_rng(11), 4, dof_extra=5)
    ref, ref_diag = icf_solve(SufficientStats(xt, n=10), pat)
    sol, diag = icf_solve(SufficientStats(scale * xt, n=10), pat)
    assert ref_diag.converged and diag.converged
    assert diag.sweeps == ref_diag.sweeps
    assert np.allclose(sol.values / scale, ref.values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("max_sweeps", range(1, 7))
def test_sweep_cap_is_exact_and_keeps_zeros_positive(max_sweeps):
    # the cap counts sweeps and Newton steps together.  This problem
    # starts at its zero-forced X-tilde and takes 1 sweep, 1 Newton step,
    # 2 sweeps where the Newton step fails, then 6 Newton steps, so every
    # cap from 1 to 6 stops the solve: on a sweep before any Newton step,
    # on a Newton step, or on a sweep taken in place of one
    pat = ZeroPattern([(1, 3), (2, 4), (1, 5)], dim=5)
    stats = SufficientStats(random_spd(np.random.default_rng(127), 5, dof_extra=5), n=10)
    sol, diag = icf_solve(stats, pat, max_sweeps=max_sweeps)
    assert diag.sweeps + diag.newton_steps == max_sweeps and not diag.converged
    assert diag.newton_steps == [0, 1, 1, 1, 2, 3][max_sweeps - 1]
    ref, sweeps, newton_steps = reference_newton_icf_solve(stats.xtilde, pat,
                                                           max_sweeps=max_sweeps)
    assert (sweeps, newton_steps) == (diag.sweeps, diag.newton_steps)
    assert sol.values.tobytes() == ref.tobytes()
    zeros = sol.values[pat.mask()]
    assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))


def test_newton_steps_start_after_one_sweep_from_any_start_but_a_diagonal_one():
    # a start with off-diagonal entries, here the tridiagonal matrix with
    # 1 on the diagonal and -0.5 beside it (a plain list, validated as
    # an SpdMatrix), takes one sweep and then a Newton step, which the cap
    # of two lets run; its diagonal, the identity, takes two sweeps first
    tridiagonal = [[1.0, -0.5, 0.0], [-0.5, 1.0, -0.5], [0.0, -0.5, 1.0]]
    stats = SufficientStats(XT3, n=10)
    _, diag = icf_solve(stats, PAT13, init=tridiagonal, max_sweeps=2)
    assert (diag.sweeps, diag.newton_steps) == (1, 1)
    _, diag = icf_solve(stats, PAT13, init=SpdMatrix(np.eye(3), pattern=PAT13), max_sweeps=2)
    assert (diag.sweeps, diag.newton_steps) == (2, 0)


def test_warm_started_chains_reach_the_cold_solves_objective():
    # as in the M-steps of a fit: sample covariances of sliding 30-draw
    # windows of the study truth (q = 4) and of its block extension
    # (q = 8), each with the pattern of its zeros, each solve started at
    # the previous window's solution
    t4 = np.asarray(SimStudyConfig().truth_sigma, dtype=float)
    rng = np.random.default_rng(35)
    for truth in (t4, np.kron([[1.0, 0.5], [0.5, 1.0]], t4)):
        q = truth.shape[0]
        pat = ZeroPattern([(i + 1, j + 1) for i, j in zip(*np.nonzero(np.triu(truth == 0.0)))],
                          dim=q)
        draws = rng.standard_normal((89, q)) @ np.linalg.cholesky(truth).T
        windows = [SufficientStats(np.cov(draws[k:k + 30], rowvar=False, bias=True), n=30)
                   for k in range(60)]
        warm, _ = icf_solve(windows[0], pat)
        for k, stats in enumerate(windows[1:], 1):
            cold, cold_diag = icf_solve(stats, pat)
            warm, diag = icf_solve(stats, pat, init=warm)
            assert cold_diag.converged and diag.converged, (q, k)
            obj, cold_obj = objective(warm, stats), objective(cold, stats)
            assert abs(obj - cold_obj) <= 1e-12 * abs(cold_obj), (q, k)


def test_a_tagged_start_is_not_rebuilt(monkeypatch):
    # an SpdMatrix tagged with the pattern was checked when built: the
    # solve builds only its result
    init = SpdMatrix(np.diag(np.diag(XT3)), pattern=PAT13)
    built = []
    spd_init = SpdMatrix.__init__

    def counting(self, entries, pattern=None):
        built.append(pattern)
        spd_init(self, entries, pattern)

    monkeypatch.setattr(SpdMatrix, "__init__", counting)
    icf_solve(SufficientStats(XT3, n=10), PAT13, init=init, max_sweeps=1)
    assert built == [PAT13]


def test_column_update_validates_array_input():
    stats = SufficientStats(XT3, n=10)
    for bad in (np.nan, np.inf):
        sigma = np.eye(3)
        sigma[1, 0] = sigma[0, 1] = bad
        with pytest.raises(NotPositiveDefiniteError):
            icf_column_update(sigma, stats, 3, PAT13)
    off_pattern = np.eye(3)
    off_pattern[2, 0] = off_pattern[0, 2] = 0.1
    with pytest.raises(PatternViolationError):
        icf_column_update(off_pattern, stats, 2, PAT13)


def test_order_one_update_and_split_solve_the_empty_block():
    # the complementary block of a 1 x 1 matrix is empty: nothing to solve
    sigma = SpdMatrix(np.array([[2.0]]))
    out = icf_column_update(sigma, SufficientStats(np.array([[3.0]]), n=5), 1,
                            ZeroPattern([], dim=1))
    assert out.values.tolist() == [[3.0]]


def test_spd_matrix_solve_rejects_mismatched_right_hand_sides():
    spd = SpdMatrix(XT3 + 10.0 * np.eye(3))
    for rhs in (np.ones(2), np.ones((4, 2)), np.ones((2, 3, 3)), 1.0):
        with pytest.raises(ValueError):
            spd.solve(rhs)


def test_solve_rejects_pattern_of_wrong_order():
    stats = SufficientStats(XT3, n=10)
    with pytest.raises(ValueError):
        icf_solve(stats, ZeroPattern([(1, 3)], dim=4))


@pytest.mark.parametrize("setting", [
    {"tol": 0.0}, {"tol": -1e-8}, {"tol": np.nan}, {"tol": np.inf}, {"max_sweeps": 0},
    {"max_sweeps": 2.5}, {"max_sweeps": True}, {"max_sweeps": 3.0},
])
def test_solve_rejects_out_of_range_settings(setting):
    with pytest.raises(ValueOutOfRangeError):
        icf_solve(SufficientStats(XT3, n=10), PAT13, **setting)


def test_kkt_residual_vanishes_only_at_the_optimum():
    stats = SufficientStats(XT3, n=100)
    sol, _ = icf_solve(stats, PAT13)
    assert kkt_residual(sol, stats, PAT13) < 1e-8
    start = SpdMatrix(np.diag(np.diag(XT3)), pattern=PAT13)
    assert kkt_residual(start, stats, PAT13) > 1e-2
