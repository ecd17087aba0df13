"""Property tests of the Metropolis-Hastings E-step.

Random batch sizes, chain lengths, burn-ins, warm starts and forced
off-domain proposals; the batched sampler must equal, bit for bit, a
plain per-individual loop that accepts one proposal at a time, and its
result must not depend on the order of the individuals.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zeromix.covariance import SpdMatrix  # noqa: E402
from zeromix.exceptions import DegenerateDrawError  # noqa: E402
from zeromix import models  # noqa: E402
from zeromix.mcem import _accept_pointers, run_estep  # noqa: E402
from zeromix.models import LinearGaussianModel  # noqa: E402

# the E-step works in reused buffers; a NaN or overflow it lets escape fails here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class HalfDomain(LinearGaussianModel):
    """Linear-Gaussian model whose domain ends at x1 = ``cut``."""

    def __init__(self, q, cut):
        super().__init__(q)
        self.cut = cut

    def log_cond_density_pairs(self, ys, xs, theta):
        logp, stat = super().log_cond_density_pairs(ys, xs, theta)
        return np.where(np.asarray(xs)[:, 0] < self.cut, logp, -np.inf), stat


def _reference_chain(logp, logu, burn_in):
    """One chain, one step at a time: retained pointers and accept count."""
    ptr, accepts, kept = 0, 0, []
    for t in range(1, len(logu) + 1):
        with np.errstate(invalid="ignore"):
            if logu[t - 1] < logp[t] - logp[ptr]:
                ptr, accepts = t, accepts + 1
        if t > burn_in:
            kept.append(ptr)
    return np.array(kept, dtype=np.int64), accepts


def _reference_estep(model, ys, m, sigma, theta, chain_length, burn_in, seeds, x0):
    t_total = burn_in + chain_length
    chol = sigma.chol_lower
    states, stats, rates, rejects = [], [], [], []
    for i in range(len(ys)):
        rng = np.random.default_rng(seeds[i])
        prop = m[None, :] + rng.standard_normal((t_total + 1, model.q)) @ chol.T
        logu = np.log(rng.random(t_total))
        if x0 is not None:
            prop[0] = x0[i]
        logp, stat = model.log_cond_density_pairs(ys[i], prop, theta)
        ptr, accepts = _reference_chain(logp, logu, burn_in)
        if np.any(logp[ptr] == -np.inf):
            return None
        states.append(prop[ptr])
        stats.append(stat[ptr])
        rates.append(accepts / float(t_total))
        # off-domain proposals are the -inf rows, the start excluded
        rejects.append(int(np.sum(logp[1:] == -np.inf)))
    states = np.array(states)
    return {
        "ex": states.mean(axis=1),
        "exx": np.einsum("nlq,nlr->nqr", states, states) / chain_length,
        "tstat": np.array(stats).mean(axis=1),
        "accept_rate": np.array(rates),
        "domain_rejects": np.array(rejects),
        "last_states": states[:, -1, :],
    }


@st.composite
def batches(draw):
    q = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((q + 2, q))
    sigma = SpdMatrix(g.T @ g / (q + 2) + 0.1 * np.eye(q))
    m = rng.standard_normal(q)
    ys = m + rng.standard_normal((n, q)) * 1.5
    # the cut sits in the prior's upper tail or its middle, so proposals
    # (and, with x0, some chain starts) fall off the domain
    cut = float(m[0] + draw(st.sampled_from([np.inf, 1.5, 0.0])) * np.sqrt(sigma.values[0, 0]))
    x0 = m + rng.standard_normal((n, q)) if draw(st.booleans()) else None
    return {
        "model": HalfDomain(q, cut),
        "ys": ys,
        "ids": [str(k) for k in rng.permutation(n) * 7 + 3],
        "m": m,
        "sigma": sigma,
        "theta": float(draw(st.sampled_from([0.05, 0.5, 2.0]))),
        "chain_length": draw(st.integers(1, 40)),
        "burn_in": draw(st.integers(0, 10)),
        "seeds": [np.random.SeedSequence((seed, k)) for k in range(n)],
        "x0": x0,
    }


_FIELDS = ("ex", "exx", "tstat", "accept_rate", "domain_rejects", "last_states")


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(batches())
def test_estep_equals_a_per_individual_sequential_loop(b):
    ref = _reference_estep(b["model"], b["ys"], b["m"], b["sigma"], b["theta"],
                           b["chain_length"], b["burn_in"], b["seeds"], b["x0"])
    if ref is None:
        with pytest.raises(DegenerateDrawError):
            run_estep(**b)
        return
    out = run_estep(**b)
    for name in _FIELDS:
        assert getattr(out, name).tobytes() == np.asarray(ref[name]).tobytes(), name
    # density calls of 3 rows cut every chain into pieces
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(models, "_BLOCK_ROWS", 3)
        out_3 = run_estep(**b)
    for name in _FIELDS:
        assert getattr(out_3, name).tobytes() == getattr(out, name).tobytes(), name

    perm = np.random.default_rng(len(b["ids"])).permutation(len(b["ids"]))
    shuffled = dict(b, ys=b["ys"][perm], ids=[b["ids"][k] for k in perm],
                    seeds=[b["seeds"][k] for k in perm],
                    x0=None if b["x0"] is None else b["x0"][perm])
    out_perm = run_estep(**shuffled)
    for name in _FIELDS:
        assert getattr(out_perm, name).tobytes() == getattr(out, name)[perm].tobytes(), name


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 50), st.integers(0, 10),
       st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
def test_accept_pointers_equal_the_sequential_loop(n, chain_length, burn_in, off, seed):
    rng = np.random.default_rng(seed)
    t_total = burn_in + chain_length
    logp = rng.standard_normal((n, t_total + 1))
    logp[rng.random(logp.shape) < off] = -np.inf
    logu = np.log(rng.random((n, t_total)))
    ptr, accepts = _accept_pointers(logp, logu, burn_in)
    assert ptr.flags.c_contiguous and ptr.shape == (n, chain_length)
    for i in range(n):
        ref_ptr, ref_acc = _reference_chain(logp[i], logu[i], burn_in)
        assert np.array_equal(ptr[i], ref_ptr)
        assert accepts[i] == ref_acc
