"""Observation models and datasets for nonlinear mixed effects estimation.

An observation model is the four members the engine calls: the mean
response F(x), the residual standard deviations g(x, theta) and
``draw_ok`` of one latent vector, which simulation uses, and one
vectorized density pass, ``log_cond_density_pairs``, which scores many
latent rows against their observations and returns each row's log
conditional density, -inf off the model domain, and theta statistic
(whose conditional expectation drives the theta update).  The E-step,
the importance-sampling likelihood and the standard errors draw their
latent rows from N(m, Sigma) and score them through one ``Draws``,
whose ``score`` alone decides how many rows one density call takes and
hands each call its observation rows as the transpose of a C-contiguous
(n_obs, rows) block; the estimation engine owns everything else.

Two concrete models ship with the package: a sigmoid Emax
dose-response model with constant-coefficient-of-variation residuals
(latent effects: basal level, maximal increase, shape, half-effect
dose), whose mean one block computes for simulation and densities
alike, and a linear-Gaussian model whose closed-form posterior and
marginal make it a validation target for the stochastic machinery.
"""

from __future__ import annotations

import csv
import io
import zlib

import numpy as np

from .covariance import SpdMatrix
from .exceptions import (
    DataFormatError,
    DegenerateDrawError,
    DomainError,
    InputMismatchError,
    ValueOutOfRangeError,
    _check_count,
)

__all__ = [
    "NlmeModel",
    "CortisolModel",
    "LinearGaussianModel",
    "Dataset",
    "DEFAULT_DOSES",
    "simulate_individual",
    "simulate_dataset",
    "load_dataset",
    "save_dataset",
    "Draws",
]

DEFAULT_DOSES = (0.005, 0.01, 0.1, 0.5, 1.0, 2.0, 10.0)

_LOG_2PI = float(np.log(2.0 * np.pi))

# Latent rows per density call, for the E-step and the importance-sampled
# likelihood alike.  The cortisol density's (n_obs, rows) temporaries are
# then at most 7 x 2048 x 8 = 112 KiB, under glibc's 128 KiB mmap
# threshold, so the allocator recycles them instead of mapping fresh
# pages each call.  On a 2-core Xeon VM (numpy 2.4, one BLAS thread), one
# constrained fit of the bundled example in a fresh process took 357k
# minor page faults and 0.8 s of system time with one density call per
# E-step (18,030 rows, 1 MB temporaries) and 631 faults, 0.0 s, in these
# blocks; a 1000-sample standard-error stencil took 89k and 636.  Paired
# in one process, the E-step took 0.74x its former time.
_BLOCK_ROWS = 2048


class Draws:
    """Latent draws from N(m, Sigma) and their densities, in reused arrays.

    The one draw-and-score path of the E-step, the likelihood and the
    standard errors: ``rows`` standard-normal rows ``z``, their map
    ``x``, the density's ``logp`` and ``stat``, and ``u`` (shape
    ``uniforms``, one row per individual), the E-step's accept coins.
    """

    def __init__(self, rows, q, uniforms=None):
        self.z, self.x = np.empty((rows, q)), np.empty((rows, q))
        self.logp, self.stat = np.empty(rows), np.empty(rows)
        self.u = None if uniforms is None else np.empty(uniforms)

    def draw(self, seeds, unit):
        """Per seed, ``unit`` rows of ``z`` from ``default_rng(seed)``, then its row of ``u``."""
        z = self.z[:len(seeds) * unit].reshape(len(seeds), unit, -1)
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng(seed)
            rng.standard_normal(out=z[i])
            if self.u is not None:
                rng.random(out=self.u[i])

    def score(self, model, ys, unit, m, chol, theta, starts=None):
        """Views ``(x, logp, stat)`` of the first ``len(ys) * unit`` rows.

        ``x = m + z L'``, each individual's first row replaced by its row
        of ``starts`` if given, is scored against ``ys`` (``unit`` rows per
        row) in density calls of ``_BLOCK_ROWS`` consecutive rows, the
        last one shorter, each against its rows' observations.  These are
        gathered observation-major from ``ys.T``, made contiguous once per
        call, so a density call's ``ys.T`` is C-contiguous: the cortisol
        density subtracts its (n_obs, rows) mean block from it row by row.
        """
        rows = len(ys) * unit
        x = self.x[:rows]
        np.matmul(self.z[:rows], chol.T, out=x)
        x += m
        if starts is not None:
            x[::unit] = starts
        yt = np.ascontiguousarray(ys.T)
        for start in range(0, rows, _BLOCK_ROWS):
            r = slice(start, min(start + _BLOCK_ROWS, rows))
            y = yt.take(np.arange(r.start, r.stop) // unit, axis=1).T
            self.logp[r], self.stat[r] = model.log_cond_density_pairs(y, x[r], theta)
        return x, self.logp[:rows], self.stat[:rows]


class NlmeModel:
    """Base observation model: Y = F(X) + g(X, theta) * eps, eps standard normal.

    Attributes
    ----------
    q : int
        Latent effect dimension.
    n_obs : int
        Observations per individual.
    design : ndarray, shape (n_obs,)
        Per-observation design value (dose for the Emax model).

    A model is the four members the engine calls: ``mean``, ``scale``
    and ``draw_ok`` (default: always) of one latent vector, for
    simulation, and ``log_cond_density_pairs``, the one density path,
    whose -inf rows are exactly the off-domain rows.  The theta update
    divides the mean theta statistic by ``n_obs``.
    """

    name = "base"

    def __init__(self, q, n_obs, design):
        self.q = int(q)
        self.n_obs = int(n_obs)
        self.design = np.asarray(design, dtype=float)
        self.design.setflags(write=False)
        if self.design.shape != (self.n_obs,):
            raise InputMismatchError("design must have shape (n_obs,)")

    def mean(self, x):
        """Mean response F(x) at every design point.

        Raises DomainError outside the model domain.
        """
        raise NotImplementedError

    def scale(self, x, theta):
        """Residual standard deviations g(x, theta), shape (n_obs,), for theta >= 0."""
        raise NotImplementedError

    def log_cond_density_pairs(self, ys, xs, theta):
        """Log densities of observations given latent rows, with the theta statistic.

        Parameters
        ----------
        ys : ndarray, shape (n, n_obs) or (n_obs,)
            Observation rows paired with the rows of ``xs``, or one row
            scored against every latent row.
        xs : ndarray, shape (n, q)
        theta : float

        Returns
        -------
        (logp, stat) : two (n,) arrays
            ``logp`` is -inf exactly on rows outside the model domain.
            ``stat`` is the per-row statistic whose conditional
            expectation drives the theta update; it is finite wherever
            ``logp`` is.
        """
        raise NotImplementedError

    def draw_ok(self, x):
        """Whether a simulated latent vector keeps the model well defined."""
        return True


def _column_sums(a):
    """Sums over the rows of ``a``, a chain of vector adds in row order.

    ``np.sum(a, axis=0)`` adds the rows in that order only while ``a``
    has more than one column; a single column takes numpy's unrolled
    pairwise sum from 8 rows on, so one latent row would score other
    bits than the same row in a larger call.
    """
    acc = a[0].copy()
    for row in a[1:]:
        acc += row
    return acc


class CortisolModel(NlmeModel):
    """Sigmoid Emax dose-response with multiplicative residual noise.

    The mean at dose d is F(x) = x1 + x2 / (1 + exp(x3 (log x4 - log d))),
    that is x1 + x2 * d^x3 / (x4^x3 + d^x3): basal response x1, maximal
    increase x2, shape x3, half-effect dose x4.  Residuals scale with the
    mean, g(x, sigma2) = sigma * F(x), so theta = sigma2 is the squared
    per-observation coefficient of variation, and the theta statistic is
    the sum of squared relative residuals (y - F(x)) / F(x).

    The domain requires x4 > 0 (the half-effect dose enters through
    log x4) and, for densities and simulation, F(x) bounded away from
    zero so the residual scale stays positive.

    ``_mean_block`` computes F, one ``exp`` per observation with log d
    computed once per model, for ``mean`` (one column) and the density
    alike, so simulation and estimation share its bits and domain; where
    d^x3 would overflow, F reaches its finite limit (x1 below x4, x1 + x2
    above it, x1 + x2/2 at d = x4).  The density works observation-major:
    the latent rows are transposed to (q, n), and means, residuals and
    log scales are (n_obs, n) blocks, so each per-row sum over the
    observations is a chain of n_obs - 1 vector adds, for any n.
    """

    name = "cortisol"

    def __init__(self, doses=DEFAULT_DOSES):
        doses = np.asarray(doses, dtype=float)
        if doses.ndim != 1 or doses.size == 0 or np.any(doses <= 0.0):
            raise ValueOutOfRangeError("doses must be positive numbers, at least one")
        super().__init__(q=4, n_obs=doses.shape[0], design=doses)
        self._log_design = np.log(self.design)

    def _mean_block(self, xt, out):
        """F of latent columns ``xt`` (q, n) into ``out`` (n_obs, n), in place.

        ``out`` holds x3 (log x4 - log d), then its exp, then the mean;
        the caller sets the floating-point error state.
        """
        x1, x2, x3, x4 = xt
        np.subtract(np.log(x4), self._log_design[:, None], out=out)
        out *= x3
        np.exp(out, out=out)
        out += 1.0
        np.divide(x2, out, out=out)
        out += x1
        return out

    def mean(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (4,) or not np.all(np.isfinite(x)):
            raise DomainError("latent vector must be a finite 4-vector")
        if x[3] <= 0.0:
            raise DomainError("half-effect dose x4 must be positive, got %r" % (x[3],))
        with np.errstate(over="ignore"):
            f = self._mean_block(x[:, None], np.empty((self.n_obs, 1)))[:, 0]
        if not np.all(np.isfinite(f)):
            raise DomainError("mean response overflowed at x = %r" % (x,))
        return f

    def scale(self, x, theta):
        return np.sqrt(theta) * self.mean(x)

    def draw_ok(self, x):
        try:
            return bool(np.all(self.mean(x) > 0.0))
        except DomainError:
            return False

    def log_cond_density_pairs(self, ys, xs, theta):
        # the mean, then the Gaussian log density, written in place into
        # two (n_obs, n) blocks: ``f`` holds the mean, then its log; ``r``
        # the squared relative residuals
        xt = np.ascontiguousarray(np.asarray(xs, dtype=float).T)
        x4 = xt[3]
        f = np.empty((self.n_obs, xt.shape[1]))
        r = np.empty_like(f)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            self._mean_block(xt, f)
            # a non-finite or zero mean makes logp non-finite, which the
            # last test catches
            ok = np.all(np.isfinite(xt), axis=0) & (x4 > 0.0)
            np.subtract(np.atleast_2d(np.asarray(ys, dtype=float)).T, f, out=r)
            r /= f
            r *= r
            stat = _column_sums(r)
            np.abs(f, out=f)
            np.log(f, out=f)
            logp = -0.5 * self.n_obs * (_LOG_2PI + np.log(theta)) - _column_sums(f)
            half = np.multiply(0.5, stat)
            half /= theta
            logp -= half
        logp[~(ok & np.isfinite(logp))] = -np.inf
        return logp, stat


class LinearGaussianModel(NlmeModel):
    """Identity-mean Gaussian model: Y = X + sigma * eps.

    Every conditional and marginal quantity has a closed form, which
    makes this model the oracle for testing the stochastic E-step and
    the importance-sampling likelihood: marginally Y ~ N(m, Sigma +
    sigma2 I), and the posterior of X given Y is the conjugate normal.
    The theta statistic is the sum of squared residuals y - x.
    """

    name = "linear_gaussian"

    def __init__(self, q):
        if q < 1:
            raise ValueOutOfRangeError("q must be >= 1, got %r" % (q,))
        super().__init__(q=q, n_obs=q, design=np.arange(1, q + 1, dtype=float))

    def mean(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.q,) or not np.all(np.isfinite(x)):
            raise DomainError("latent vector must be a finite %d-vector" % self.q)
        return x.copy()

    def scale(self, x, theta):
        return np.full(self.n_obs, np.sqrt(theta))

    def log_cond_density_pairs(self, ys, xs, theta):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            r = np.asarray(ys, dtype=float) - np.asarray(xs, dtype=float)
            stat = np.sum(r * r, axis=1)
            logp = -0.5 * self.n_obs * (_LOG_2PI + np.log(theta)) - 0.5 * stat / theta
        logp[~np.isfinite(logp)] = -np.inf
        return logp, stat

    # -- closed forms used as oracles -----------------------------------

    def posterior_moments(self, y, m, sigma, theta):
        """Exact conditional mean and covariance of X given Y = y.

        Precision adds: V = (Sigma^-1 + I/theta)^-1, center
        V (Sigma^-1 m + y/theta).
        """
        if not isinstance(sigma, SpdMatrix):
            sigma = SpdMatrix(sigma)
        prec = sigma.inv() + np.eye(self.q) / theta
        cov = np.linalg.inv(prec)
        cov = 0.5 * (cov + cov.T)
        mean = cov @ (sigma.solve(np.asarray(m, dtype=float)) + np.asarray(y, dtype=float) / theta)
        return mean, cov

    def marginal_loglik(self, ys, m, sigma, theta):
        """Exact log likelihood of rows of ``ys`` under N(m, Sigma + theta I)."""
        if not isinstance(sigma, SpdMatrix):
            sigma = SpdMatrix(sigma)
        marg = SpdMatrix(sigma.values + theta * np.eye(self.q))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        z = ys - np.asarray(m, dtype=float)[None, :]
        quad = np.sum(z * marg.solve(z.T).T, axis=1)
        return float(
            np.sum(-0.5 * self.q * _LOG_2PI - 0.5 * marg.logdet() - 0.5 * quad)
        )


_MAX_DRAWS = 100  # latent draws of simulate_individual before it gives up


def simulate_individual(model, m, sigma, theta, rng_seed):
    """Draw one individual: X ~ N(m, Sigma), Y = F(X) + g(X, theta) * eps.

    The latent draw is redrawn (up to 100 times) while ``model.draw_ok``
    rejects it, which keeps the residual scale positive for models like
    the Emax one.  Deterministic given the seed or Generator.

    Returns
    -------
    (x, y) : the latent q-vector and the n_obs observation vector.

    Raises
    ------
    DomainError
        If theta is negative.
    DegenerateDrawError
        If every draw lands outside the model domain; the parameters
        are implausible for the model.
    """
    if theta < 0.0:
        raise DomainError("residual variance must be nonnegative")
    rng = np.random.default_rng(rng_seed)
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)
    m = np.asarray(m, dtype=float)
    chol = sigma.chol_lower
    for _ in range(_MAX_DRAWS):
        x = m + chol @ rng.standard_normal(model.q)
        if model.draw_ok(x):
            break
    else:
        raise DegenerateDrawError(
            "no domain-valid latent draw in %d attempts" % _MAX_DRAWS
        )
    eps = rng.standard_normal(model.n_obs)
    y = model.mean(x) + model.scale(x, theta) * eps
    return x, y


def _check_order(model, m, sigma):
    """Raise InputMismatchError unless ``m`` is a q-vector and ``sigma``
    (an SpdMatrix or array-like) q x q, for the model's order q."""
    shapes = np.shape(m), np.shape(sigma.values if isinstance(sigma, SpdMatrix) else sigma)
    if shapes != ((model.q,), (model.q, model.q)):
        raise InputMismatchError("m of shape %r and Sigma of shape %r do not fit the %s model's "
                                 "order %d" % (*shapes, model.name, model.q))


def simulate_dataset(model, m, sigma, theta, n, seed):
    """Simulate a balanced dataset of ``n`` individuals.

    Individual ids are "1".."n"; each individual gets an independent
    child stream of the master seed, so the output is reproducible and
    unchanged by simulation order.

    Returns
    -------
    (Dataset, ndarray) : the dataset and the (n, q) matrix of latent draws.

    Raises ValueOutOfRangeError if ``n`` is not an integer >= 1 or
    ``seed`` not an integer >= 0, and InputMismatchError if m or Sigma
    is not of the model's order.
    """
    _check_count("n", n, 1)
    _check_count("seed", seed, 0)
    _check_order(model, m, sigma)
    if not isinstance(sigma, SpdMatrix):
        sigma = SpdMatrix(sigma)  # factored once, not once per individual
    children = np.random.SeedSequence(seed).spawn(n)
    ids = []
    xs = np.zeros((n, model.q))
    ys = np.zeros((n, model.n_obs))
    for i in range(n):
        x, y = simulate_individual(model, m, sigma, theta, np.random.default_rng(children[i]))
        ids.append(str(i + 1))
        xs[i] = x
        ys[i] = y
    return Dataset(ids, ys, model.design), xs


class Dataset:
    """Balanced panel of individuals sharing one design grid.

    Parameters
    ----------
    ids : sequence of str
        Individual identifiers, unique.
    y : array_like, shape (n, n_obs)
        Observation rows, one per individual.
    design : array_like, shape (n_obs,)
        Design value per observation slot, common to all individuals.
    """

    def __init__(self, ids, y, design):
        self.ids = tuple(str(t) for t in ids)
        self.y = np.array(y, dtype=float)
        self.design = np.array(design, dtype=float)
        if self.y.ndim != 2:
            raise InputMismatchError("y must be 2-d, got shape %r" % (self.y.shape,))
        if len(self.ids) != self.y.shape[0]:
            raise InputMismatchError("ids and y row count differ")
        if len(set(self.ids)) != len(self.ids):
            raise InputMismatchError("ids must be unique")
        if self.design.shape != (self.y.shape[1],):
            raise InputMismatchError("design length must match observation count")
        self.y.setflags(write=False)
        self.design.setflags(write=False)

    @property
    def n(self):
        return len(self.ids)

    @property
    def n_obs(self):
        return self.y.shape[1]

    def __len__(self):
        return self.n

    def for_model(self, model):
        """This dataset's rows in id-sorted order; fits and likelihoods start here.

        Raises InputMismatchError if the observation count or the design
        grid is not the model's.
        """
        if self.n_obs != model.n_obs:
            raise InputMismatchError(
                "dataset has %d observations per individual, model expects %d"
                % (self.n_obs, model.n_obs)
            )
        if not np.array_equal(self.design, model.design):
            raise InputMismatchError("dataset design grid differs from the model design")
        order = np.argsort(np.asarray(self.ids))
        return Dataset([self.ids[i] for i in order], self.y[order], self.design)

    def seeds(self, *key):
        """One ``SeedSequence((*key, crc32(id)))`` per individual, in row order."""
        key = tuple(map(int, key))
        return [np.random.SeedSequence((*key, zlib.crc32(i.encode("utf-8")))) for i in self.ids]


_HEADER = ["id", "obs_index", "design_value", "y"]


def load_dataset(path):
    """Read a dataset CSV with columns id, obs_index, design_value, y.

    Rows are grouped by individual id (first-appearance order); obs_index
    must cover 1..n_obs exactly once per individual, every individual
    must have the same number of observations, and the design grid must
    be identical across individuals.  Errors cite 1-based row numbers.
    The file is read as UTF-8; a leading byte-order mark is skipped, and
    a file that is not UTF-8 text raises DataFormatError naming it.
    """
    rows_by_id = {}
    order = []
    last_row = {}
    with open(path, encoding="utf-8-sig", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError("dataset %s is not UTF-8 text: %s" % (path, exc)) from None
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError("row 1: file is empty, expected header %s" % ",".join(_HEADER)) from None
        if [h.strip() for h in header] != _HEADER:
            raise DataFormatError(
                "row 1: expected header %s, got %s" % (",".join(_HEADER), ",".join(header))
            )
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataFormatError("row %d: expected 4 fields, got %d" % (rownum, len(row)))
            ident = row[0].strip()
            if not ident:
                raise DataFormatError("row %d: empty id" % rownum)
            try:
                obs_index = int(row[1])
            except ValueError:
                raise DataFormatError("row %d: obs_index %r is not an integer" % (rownum, row[1])) from None
            try:
                design_value = float(row[2])
                y_value = float(row[3])
            except ValueError:
                raise DataFormatError("row %d: non-numeric design_value or y" % rownum) from None
            if not np.isfinite(design_value) or not np.isfinite(y_value):
                raise DataFormatError("row %d: non-finite design_value or y" % rownum)
            if ident not in rows_by_id:
                rows_by_id[ident] = {}
                order.append(ident)
            if obs_index in rows_by_id[ident]:
                raise DataFormatError(
                    "row %d: duplicate obs_index %d for id %s" % (rownum, obs_index, ident)
                )
            rows_by_id[ident][obs_index] = (design_value, y_value)
            last_row[ident] = rownum
    if not order:
        raise DataFormatError("row 1: no data rows after header")

    first = order[0]
    n_obs = len(rows_by_id[first])
    design = None
    ys = []
    for ident in order:
        block = rows_by_id[ident]
        if len(block) != n_obs or sorted(block) != list(range(1, n_obs + 1)):
            raise DataFormatError(
                "row %d: id %s must have obs_index 1..%d exactly once (unbalanced panel)"
                % (last_row[ident], ident, n_obs)
            )
        d = np.array([block[k][0] for k in range(1, n_obs + 1)])
        y = np.array([block[k][1] for k in range(1, n_obs + 1)])
        if design is None:
            design = d
        elif not np.array_equal(design, d):
            raise DataFormatError(
                "row %d: id %s has a design grid different from id %s"
                % (last_row[ident], ident, first)
            )
        ys.append(y)
    return Dataset(order, np.array(ys), design)


def save_dataset(dataset, path):
    """Write a dataset to CSV in the load_dataset format, full precision."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_HEADER)
        for i, ident in enumerate(dataset.ids):
            for j in range(dataset.n_obs):
                writer.writerow(
                    [ident, j + 1, repr(float(dataset.design[j])), repr(float(dataset.y[i, j]))]
                )
