"""Seed-batched twins of the sequential filters.

Monte Carlo studies (unbiasedness checks, variance comparisons, expected
gradients) need thousands of independent filter runs and are Python-bound
if they loop run_smc or run_mpf.  The twins here evaluate R seeded runs at
once: run r's particles occupy rows r*N .. (r+1)*N-1 of one stacked array
that is pushed through the same model builders the per-run filters call,
and every draw is read through batch_keys, so run r consumes bit for bit
the noise RngStream(seed_r) hands the per-run filter.  A batched run is the
per-run filter executed R times, not an approximation of it; for
1-dimensional states the returned values are bit-identical, in higher
dimensions they agree to rounding because matrix products batch
differently.

smc_batch_logz and mpf_batch_logz are value-only and treat parameters as
constants.  vmpf_ug_batch also differentiates, replaying the
unbiased-gradient estimator: the R * N draws of a step form one node of
mixture_implicit_rule, the rule run_mpf uses with R = 1.  It is written
for d = 1 because its tape pair-density kernel, _pair_logpdf_var, is.
Discrete models are rejected: their fast path is enumeration, not
batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import particlevi.autodiff as ad
from particlevi.autodiff import Var
from particlevi import models as mo
from particlevi.distributions import LOG_2PI, TailCounter, mixture_implicit_rule
from particlevi.filters import ANCESTOR, PROPOSAL, DegeneracyError, _np_lse, _ys_of
from particlevi.rng import batch_keys, normals_at_keys, uniforms_at_keys


# ---------------------------------------------------------------------------
# shared plumbing


def _reject_discrete(model):
    if isinstance(model, mo.DiscreteHmm):
        raise TypeError(
            "batched twins cover continuous families; enumerate or loop the "
            "per-run filters for discrete models"
        )


def _dim_of(model) -> int:
    if isinstance(model, (mo.Lgssm, mo.Dmm)):
        return model.dx
    if isinstance(model, mo.StochVol):
        return model.dim
    raise TypeError(f"unsupported model: {type(model).__name__}")


def _detach_params(params) -> dict:
    if params is None:
        return {}
    return {k: (v.data if isinstance(v, Var) else v) for k, v in params.items()}


def _alive_rows(lw: np.ndarray, t: int):
    # one dead run poisons any batch statistic, so fail exactly like the run would
    if not np.all(np.any(lw > -np.inf, axis=1)):
        raise DegeneracyError(t)


def _normals(seeds, t: int, count: int) -> np.ndarray:
    return normals_at_keys(batch_keys(seeds, labels=(t, PROPOSAL)), np.arange(count))


def _uniforms(seeds, t: int, count: int) -> np.ndarray:
    return uniforms_at_keys(batch_keys(seeds, labels=(t, ANCESTOR)), np.arange(count))


def _cat_rows(probs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Rowwise inverse-CDF indices, element (r, k) from uniform us[r, k].

    Matches categorical_sample_many row for row: searchsorted-right on the
    cumulative weights, clamped, then walked back off zero-weight atoms.
    """
    if not np.all(np.any(probs > 0.0, axis=1)):
        raise ValueError("total particle degeneracy: all categorical weights zero")
    cum = np.cumsum(probs, axis=1)
    idx = np.sum(cum[:, None, :] <= us[:, :, None], axis=2)
    idx = np.minimum(idx, probs.shape[1] - 1)
    picked = np.take_along_axis(probs, idx, axis=1)
    while np.any(picked == 0.0):
        idx = np.where(picked == 0.0, idx - 1, idx)
        picked = np.take_along_axis(probs, idx, axis=1)
    return idx


def _pair_logpdf(x3: np.ndarray, m3: np.ndarray, ls3: np.ndarray) -> np.ndarray:
    """(R, N, M) log-densities of particle i under component j per run.

    The batched counterpart of gauss_logpdf_matrix's expanded quadratic;
    same term order so d = 1 values are bit-identical.
    """
    inv_var = np.exp(-2.0 * ls3)
    cross = x3 @ np.swapaxes(m3 * inv_var, 1, 2)
    sq = (x3 * x3) @ np.swapaxes(inv_var, 1, 2)
    msq = (m3 * m3 * inv_var).sum(axis=2)
    const = (-0.5 * LOG_2PI - ls3).sum(axis=2)
    return const[:, None, :] - 0.5 * (sq - 2.0 * cross + msq[:, None, :])


def _first_step(model, params, ys, n: int, seeds) -> tuple:
    """Shared t=1 draw and weight: proposal rows are state-independent."""
    r_runs = seeds.shape[0]
    p_m, p_ls = mo.proposal_build_many(model, params, 1, None, ys[0])
    p_m, p_ls = p_m.data, p_ls.data
    f_m, f_ls = mo.transition_build_many(model, 1)
    d = p_m.shape[1]
    eps = _normals(seeds, 1, n * d).reshape(r_runs, n, d)
    x = p_m[None, :, :] + np.exp(p_ls)[None, :, :] * eps
    xf = ad.constant(x.reshape(r_runs * n, d))
    logw = (
        mo.gauss_logpdf_rows(xf, f_m, f_ls)
        + mo.emission_logpdf_rows(model, 1, xf, ys[0])
        - mo.gauss_logpdf_rows(xf, ad.constant(p_m), ad.constant(p_ls))
    ).data.reshape(r_runs, n)
    return x, logw


# ---------------------------------------------------------------------------
# value twins


def smc_batch_logz(model, params, data, n_particles: int, seeds, resample: bool = True) -> np.ndarray:
    """log Z estimates of run_smc(seed=s), one per entry of seeds.

    Memory scales with len(seeds) * n_particles; slice the seed array for
    larger studies.
    """
    _reject_discrete(model)
    ys = _ys_of(data)
    seeds = np.asarray(seeds)
    params = _detach_params(params)
    n, t_max = int(n_particles), ys.shape[0]
    r_runs = seeds.shape[0]
    log_n = math.log(n)

    x = None
    lw = None
    total = np.zeros(r_runs)
    for t in range(1, t_max + 1):
        if t == 1:
            x, inc = _first_step(model, params, ys, n, seeds)
        else:
            if resample:
                probs = np.exp(lw - _np_lse(lw, axis=1)[:, None])
                anc = _cat_rows(probs, _uniforms(seeds, t, n))
                parent = np.take_along_axis(x, anc[:, :, None], axis=1)
            else:
                parent = x
            d = parent.shape[2]
            pf = ad.constant(parent.reshape(r_runs * n, d))
            p_m, p_ls = mo.proposal_build_many(model, params, t, pf, ys[t - 1])
            p_m, p_ls = p_m.data, p_ls.data
            f_m, f_ls = mo.transition_build_many(model, t, pf)
            eps = _normals(seeds, t, n * d).reshape(r_runs * n, d)
            x_flat = p_m + np.exp(p_ls) * eps
            xf = ad.constant(x_flat)
            inc = (
                mo.gauss_logpdf_rows(xf, f_m, f_ls)
                + mo.emission_logpdf_rows(model, t, xf, ys[t - 1])
                - mo.gauss_logpdf_rows(xf, ad.constant(p_m), ad.constant(p_ls))
            ).data.reshape(r_runs, n)
            x = x_flat.reshape(r_runs, n, d)
        lw = inc if (resample or t == 1) else lw + inc
        _alive_rows(lw, t)
        if resample:
            total += _np_lse(lw, axis=1) - log_n
    if not resample:
        total = _np_lse(lw, axis=1) - log_n
    return total


def mpf_batch_logz(model, params, data, n_particles: int, seeds) -> np.ndarray:
    """log Z estimates of run_mpf(seed=s), one per entry of seeds."""
    _reject_discrete(model)
    ys = _ys_of(data)
    seeds = np.asarray(seeds)
    params = _detach_params(params)
    n, t_max = int(n_particles), ys.shape[0]
    r_runs = seeds.shape[0]
    log_n = math.log(n)

    x = None
    lw = None
    total = np.zeros(r_runs)
    for t in range(1, t_max + 1):
        if t == 1:
            x, logv = _first_step(model, params, ys, n, seeds)
        else:
            d = x.shape[2]
            log_vbar = lw - _np_lse(lw, axis=1)[:, None]
            pf = ad.constant(x.reshape(r_runs * n, d))
            p_m, p_ls = mo.proposal_build_many(model, params, t, pf, ys[t - 1])
            p_m, p_ls = p_m.data, p_ls.data
            f_m, f_ls = mo.transition_build_many(model, t, pf)
            f_m, f_ls = f_m.data, f_ls.data
            anc = _cat_rows(np.exp(log_vbar), _uniforms(seeds, t, n))
            eps = _normals(seeds, t, n * d).reshape(r_runs, n, d)
            pm3 = p_m.reshape(r_runs, n, d)
            pls3 = p_ls.reshape(r_runs, n, d)
            x = np.take_along_axis(pm3, anc[:, :, None], axis=1) + np.exp(
                np.take_along_axis(pls3, anc[:, :, None], axis=1)
            ) * eps
            xf = ad.constant(x.reshape(r_runs * n, d))
            log_g = mo.emission_logpdf_rows(model, t, xf, ys[t - 1]).data.reshape(r_runs, n)
            if n == 1:
                log_f = mo.gauss_logpdf_rows(xf, f_m, f_ls).data.reshape(r_runs, 1, 1)
                log_r = mo.gauss_logpdf_rows(xf, p_m, p_ls).data.reshape(r_runs, 1, 1)
            else:
                log_f = _pair_logpdf(x, f_m.reshape(r_runs, n, d), f_ls.reshape(r_runs, n, d))
                log_r = _pair_logpdf(x, pm3, pls3)
            num = _np_lse(log_vbar[:, None, :] + log_f, axis=2)
            den = _np_lse(log_vbar[:, None, :] + log_r, axis=2)
            logv = num + log_g - den
        _alive_rows(logv, t)
        total += _np_lse(logv, axis=1) - log_n
        lw = logv
    return total


# ---------------------------------------------------------------------------
# batched unbiased gradients (d = 1)


def _pair_logpdf_var(x3: Var, m3: Var, ls3: Var) -> Var:
    """Tape version of _pair_logpdf for d = 1: products instead of matmuls.

    x3 is (R, N, 1); m3 and ls3 are (R, M, 1); returns (R, N, M).
    """
    r_runs, m = m3.data.shape[:2]
    inv_var = ad.exp(-2.0 * ls3)
    cross = x3 * ad.reshape(m3 * inv_var, (r_runs, 1, m))
    sq = (x3 * x3) * ad.reshape(inv_var, (r_runs, 1, m))
    msq3 = ad.reshape(m3 * m3 * inv_var, (r_runs, 1, m))
    const3 = ad.reshape(-0.5 * LOG_2PI - ls3, (r_runs, 1, m))
    return const3 - 0.5 * (sq - 2.0 * cross + msq3)


def _ug_chunk(model, params, ys, n: int, seeds, names, tail: TailCounter) -> tuple:
    r_runs = seeds.shape[0]
    t_max = ys.shape[0]
    log_n = math.log(n)

    with ad.Tape():
        lifted = {
            k: (ad.leaf(v) if isinstance(v, np.ndarray) else v) for k, v in params.items()
        }
        xs = None
        lw = None
        total = None
        for t in range(1, t_max + 1):
            eps = _normals(seeds, t, n)
            us = _uniforms(seeds, t, n)
            if t == 1:
                p_m, p_ls = mo.proposal_build_many(model, lifted, 1, None, ys[0])
                pad = ad.constant(np.zeros((r_runs, 1, 1)))
                logw2 = ad.constant(np.zeros((r_runs, 1)))
                m3 = p_m + pad
                ls3 = p_ls + pad
                anc = np.zeros((r_runs, n), dtype=np.intp)
            else:
                lse_prev = ad.logsumexp(lw, axis=1)
                log_vbar = lw - ad.reshape(lse_prev, (r_runs, 1))
                xpf = ad.reshape(xs, (r_runs * n, 1))
                p_m, p_ls = mo.proposal_build_many(model, lifted, t, xpf, ys[t - 1])
                m3 = ad.reshape(p_m, (r_runs, n, 1))
                ls3 = ad.reshape(p_ls, (r_runs, n, 1))
                logw2 = log_vbar
                anc = _cat_rows(np.exp(log_vbar.data), us)
                f_m, f_ls = mo.transition_build_many(model, t, xpf)

            j = anc[:, :, None]
            x = np.take_along_axis(m3.data, j, axis=1) + np.exp(
                np.take_along_axis(ls3.data, j, axis=1)
            ) * eps[:, :, None]
            rule = mixture_implicit_rule(x, logw2.data, m3.data, ls3.data, tail)
            xs_new = ad.custom_vjp(x, [logw2, m3, ls3], rule)
            xf = ad.reshape(xs_new, (r_runs * n, 1))

            log_g = ad.reshape(mo.emission_logpdf_rows(model, t, xf, ys[t - 1]), (r_runs, n))
            if t == 1:
                f_m, f_ls = mo.transition_build_many(model, 1)
                logv = (
                    ad.reshape(mo.gauss_logpdf_rows(xf, f_m, f_ls), (r_runs, n))
                    + log_g
                    - ad.reshape(mo.gauss_logpdf_rows(xf, p_m, p_ls), (r_runs, n))
                )
            else:
                if n == 1:
                    log_f3 = ad.reshape(mo.gauss_logpdf_rows(xf, f_m, f_ls), (r_runs, 1, 1))
                    log_r3 = ad.reshape(mo.gauss_logpdf_rows(xf, p_m, p_ls), (r_runs, 1, 1))
                else:
                    fm3 = ad.reshape(f_m, (r_runs, n, 1))
                    fls3 = ad.reshape(f_ls, (r_runs, n, 1))
                    log_f3 = _pair_logpdf_var(xs_new, fm3, fls3)
                    log_r3 = _pair_logpdf_var(xs_new, m3, ls3)
                lv3 = ad.reshape(log_vbar, (r_runs, 1, n))
                num = ad.logsumexp(lv3 + log_f3, axis=2)
                den = ad.logsumexp(lv3 + log_r3, axis=2)
                logv = num + log_g - den
            _alive_rows(logv.data, t)
            step = ad.logsumexp(logv, axis=1) - log_n
            total = step if total is None else total + step
            lw = logv
            xs = xs_new

        loss = total.sum()
        grads = ad.grad(loss, [lifted[k] for k in names])
    return total.data.copy(), dict(zip(names, grads))


@dataclass
class BatchGrad:
    """Batched unbiased-gradient summary over R seeded runs.

    grad_mean averages d log Z-hat / d theta over every run; chunk_means
    keeps the per-chunk averages (leading axis) so callers can attach a
    standard error without holding R gradients.
    """

    values: np.ndarray
    grad_mean: dict
    chunk_means: dict
    tail_failures: int


def vmpf_ug_batch(model, params, data, n_particles: int, seeds, chunk: int = 10_000) -> BatchGrad:
    """Values and mean parameter gradient of the unbiased estimator.

    Replays run_mpf(grad_mode="unbiased") for every seed at once, d = 1
    only; each step records one implicit node over all chunk * n_particles
    draws.  Seeds are processed in chunks of `chunk` runs; each chunk is one
    tape, so peak memory scales with chunk * n_particles**2 * T.
    tail_failures counts the tail draws of all runs, as the per-run
    ParticleRun.tail_failures does after its backward pass.
    """
    _reject_discrete(model)
    if _dim_of(model) != 1:
        raise ValueError("batched unbiased gradients are implemented for 1-dimensional states")
    ys = _ys_of(data)
    seeds = np.asarray(seeds)
    params = _detach_params(params)
    names = [k for k, v in params.items() if isinstance(v, np.ndarray)]
    n = int(n_particles)
    r_runs = seeds.shape[0]

    tail = TailCounter()
    values = []
    sums = {k: np.zeros_like(params[k]) for k in names}
    partials = {k: [] for k in names}
    for lo in range(0, r_runs, chunk):
        part = seeds[lo : lo + chunk]
        vals, grads = _ug_chunk(model, params, ys, n, part, names, tail)
        values.append(vals)
        for k in names:
            sums[k] += grads[k]
            partials[k].append(grads[k] / part.shape[0])
    return BatchGrad(
        values=np.concatenate(values),
        grad_mean={k: sums[k] / r_runs for k in names},
        chunk_means={k: np.stack(partials[k]) for k in names},
        tail_failures=tail.count,
    )
