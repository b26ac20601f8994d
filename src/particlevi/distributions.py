"""Distribution kernels: the Gaussian product, categorical sampling, implicit mixture gradients.

The closed-form product of two diagonal Gaussians takes and returns
(mean, log-std) arrays, like every kernel of ``models``; its mean and its
log-std are one tape node each.  ``categorical_sample_many`` is the one
inverse-CDF sampler, for one probability vector or a table of rows.  The
Gaussian log-densities and the reparameterized draw are the row,
all-pairs and mixture kernels of ``models``, the one implementation that
the filters and the couplings share.

A mixture draw picks a genuinely categorical component and then a Gaussian
within it (``models.GaussRows.draw_mixture``).  The implicit
reparameterization gradient of such draws (Figurnov et al. 2018; Graves
2016) is a custom-VJP node on the realized draws: it draws nothing.  One
node covers every draw of a filter step: mixture_implicit_rule takes all N
draws of one mixture at once.  A mixture keeps one log-std row per
component or, when every component has the same scale (the LGSSM and SV
proposals), one shared (1, d) row, which the rule broadcasts and whose
cotangent stays (1, d).  Writing the per-coordinate conditional CDF as

    F_e(x_e | x_{1:e-1}) = sum_j w_j(x_{1:e-1}) * Phi((x_e - mu_je)/sig_je),

with w_j proportional to the mixture weight times the likelihood of the
earlier coordinates under component j, the sample is the solution of
F(x) = u for fixed uniforms, so dx/dtheta solves a lower-triangular system
whose diagonal is the conditional mixture pdf.  The Phi derivatives are
analytic (dPhi/dmu = -pdf, dPhi/dsigma = -z*pdf), never finite differences.

The rule has no loop over coordinates: one batched product gives J^T for
all N draws, one np.linalg.solve solves them, and one product with a
triangle of ones gives their tail sums.  Two reductions stay numpy's,
although a matmul could do them.  The sums over the K components (axis 0
of the rule's (K, N, d) arrays) keep component order: a ones-vector
product for the normalization or for F moved the log-weight cotangents by
5.9e-13 relative.  The log-density prefix stays np.cumsum: a triangular
product turns one -inf log-density into NaN for its whole component row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf as _np_erf

from particlevi import autodiff as ad
from particlevi.autodiff import Var

LOG_2PI = math.log(2.0 * math.pi)
_TAIL_PDF_FLOOR = 1e-300


@dataclass
class TailCounter:
    """Counts implicit-gradient tail failures (conditional pdf underflow)."""

    count: int = 0


def gauss_product_fuse(mean_a, log_std_a, mean_b, log_std_b) -> tuple:
    """The normalized product of two diagonal Gaussian densities.

    With variances va, vb and weights wa = vb / (va + vb), wb = va / (va + vb),
    the product is proportional to the Gaussian with mean wa mu_a + wb mu_b
    and log-std ls_a + ls_b - log(va + vb) / 2.  The mean and the log-std are
    one tape node each.  Rows broadcast: a (1, d) factor pairs with every row
    of an (N, d) one, and its cotangents are summed back to (1, d).  The
    log-normalizer sum_i log N(mu_a_i; mu_b_i, va_i + vb_i) of the product
    does not depend on the state, so it is not formed.  Returns (mean,
    log_std).
    """
    parts = [ad.constant(v) for v in (mean_a, log_std_a, mean_b, log_std_b)]
    ma, la, mb, lb = (v.data for v in parts)
    va = np.exp(la * 2.0)
    vb = np.exp(lb * 2.0)
    vsum = va + vb
    wa, wb = vb / vsum, va / vsum

    def mean_rule(g):
        # d mean / d ls_a = 2 wa wb (mu_b - mu_a) = -d mean / d ls_b
        k = g * (2.0 * wa * wb) * (ma - mb)
        return (
            ad.unbroadcast(g * wa, ma.shape),
            ad.unbroadcast(-k, la.shape),
            ad.unbroadcast(g * wb, mb.shape),
            ad.unbroadcast(k, lb.shape),
        )

    def log_std_rule(g):
        return ad.unbroadcast(g * wa, la.shape), ad.unbroadcast(g * wb, lb.shape)

    mean = ad.custom_vjp((ma * vb + mb * va) / vsum, parts, mean_rule)
    log_std = ad.custom_vjp(la + lb - np.log(vsum) * 0.5, parts[1::2], log_std_rule)
    return mean, log_std


def categorical_sample_many(probs: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Inverse-CDF sampling: the first atom whose cumulative sum exceeds u.

    probs is one (K,) vector, which every uniform in us draws from, or an
    (M, K) table whose row m draws with us[m]; a table's rows may be
    zero-padded on the right.  A u beyond a row's total picks its last
    atom, and no draw lands on a zero-weight atom: stepping back through a
    row's zero padding ends where clamping to its own length would.
    """
    if not (probs > 0.0).any(axis=-1).all():
        raise ValueError("total particle degeneracy: all categorical weights zero")
    if probs.ndim == 1:
        idx = np.cumsum(probs).searchsorted(us, side="right")
        rows = ()
    else:
        idx = (np.cumsum(probs, axis=1) <= us[:, None]).sum(axis=1)
        rows = (np.arange(idx.size),)
    idx = np.minimum(idx, probs.shape[-1] - 1)
    # float-tail guard: never land on a zero-weight atom
    while (zero := probs[(*rows, idx)] == 0.0).any():
        idx = np.where(zero, idx - 1, idx)
    return idx


def mixture_implicit_rule(x, logw, means, log_stds, tail_counter: TailCounter | None = None):
    """Custom-VJP rule for realized draws x (N, d) of one mixture.

    The mixture has log-weights logw (K,), means (K, d) and log-stds
    log_stds (K, d) or one (1, d) row that every component shares.  For
    every draw the rule forms the conditional weights, CDFs and pdfs and
    solves J^T lam = g.  J is lower triangular with the conditional pdfs on
    its diagonal and J[f, e] = sum_k G[k, f] s[k, e] below it (G the
    weighted CDF gaps, s = d logphi / dx), so J^T is the strict upper
    triangle of one batched s^T G.  One product of lam * G with a
    (d, d + 1) triangle of ones gives each component's total over f and
    its tail sums sum_{f > e} lam_f G[k, f].  The cotangents of every draw
    are summed into (K,), (K, d) and the log-stds' own shape, so a shared
    row gets one (1, d) cotangent.  Where z / sigma overflows, that
    component's density at the coordinate is 0, and so are its later
    posterior weights; its terms of s^T G and of tail * z / sigma are formed
    as exact zeros.  A draw whose conditional pdf falls below
    1e-300 or is non-finite in any coordinate contributes zero and adds one
    to the counter; its J^T becomes the identity, so its NaN or inf entries
    never reach LAPACK.
    """

    def rule(g):
        sig = np.exp(log_stds)[:, None, :]
        diff = x - means[:, None, :]  # (K, N, d): components lead
        z = diff / sig
        logphi = -0.5 * LOG_2PI - log_stds[:, None, :] - 0.5 * z * z
        pdf = np.exp(logphi)
        big_phi = 0.5 * (1.0 + _np_erf(z / math.sqrt(2.0)))
        d = x.shape[1]
        lmat = np.empty_like(logphi)  # log w_k + sum_{f < e} logphi[k, n, f]
        lmat[..., 0] = 0.0
        np.cumsum(logphi[..., :-1], axis=2, out=lmat[..., 1:])
        lmat += logw[:, None, None]
        lmat -= lmat.max(axis=0)
        w_post = np.exp(lmat, out=lmat)
        w_post /= w_post.sum(axis=0)
        f_vals = (w_post * big_phi).sum(axis=0)
        w_pdf = w_post * pdf
        cond_pdf = w_pdf.sum(axis=0)  # (N, d)
        bad = np.any((cond_pdf < _TAIL_PDF_FLOOR) | ~np.isfinite(cond_pdf), axis=1)
        n_bad = int(bad.sum())
        if tail_counter is not None:
            tail_counter.count += n_bad
        z_sig = z / sig  # -d logphi / dx
        if not np.isfinite(z_sig).all():  # density 0 there and weight 0 after: inf * 0 terms are zeros
            z_sig[~np.isfinite(z_sig)] = 0.0
        g_mat = w_post * (big_phi - f_vals)
        tri = np.tri(d, d + 1, dtype=bool)  # tri[f, c] = c <= f
        s_g = -(z_sig.transpose(1, 2, 0) @ g_mat.transpose(1, 0, 2))  # (N, d, d): s^T G per draw
        jac_t = np.where(tri[:, 1:].T, s_g, 0.0)  # its strict upper triangle
        diag = np.arange(d)
        jac_t[:, diag, diag] = cond_pdf
        if n_bad:
            jac_t[bad] = np.eye(d)
        lam = np.linalg.solve(jac_t, np.asarray(g, dtype=np.float64)[..., None])[..., 0]
        sums = (lam * g_mat) @ tri  # [sum_f, then tail[e] = sum_{f > e}] of lam_f G[k, n, f]
        grad_logw = -sums[..., 0]
        tail = sums[..., 1:]
        grad_mu = lam * w_pdf - tail * z_sig
        grad_logstd = diff * grad_mu + tail  # x - mu = z sig
        if n_bad:
            grad_logw = np.where(bad, 0.0, grad_logw)
            grad_mu = np.where(bad[:, None], 0.0, grad_mu)
            grad_logstd = np.where(bad[:, None], 0.0, grad_logstd)
        return grad_logw.sum(axis=1), grad_mu.sum(axis=1), ad.unbroadcast(grad_logstd.sum(axis=1), log_stds.shape)

    return rule


def mixture_implicit_rsample(log_w, means, log_stds, x, tail_counter: TailCounter | None = None) -> Var:
    """Realized draws x (N, d) of one mixture, with implicit reparameterization gradients.

    The mixture has log-weights log_w (K,), normalized, means (K, d) and
    log-stds (K, d) or one shared (1, d) row.  x is the constant value of
    its draws, formed elsewhere (``models.GaussRows.draw_mixture``); this
    draws nothing.  One node for all N draws, mixture_implicit_rule, flows
    gradients into the log-weights and every component's mean and log-std.
    Tail draws contribute zero and are counted.  Returns (N, d).
    """
    log_w, means, log_stds = ad.constant(log_w), ad.constant(means), ad.constant(log_stds)
    lw, md, ls = log_w.data, means.data, log_stds.data
    total = float(ad.np_logsumexp(lw))
    if abs(total) > 1e-12:
        raise ValueError(f"mixture log-weights not normalized (logsumexp={total:.3e})")
    if ls.shape[1:] != md.shape[1:] or ls.shape[0] not in (1, md.shape[0]):
        raise ValueError("mixture log-stds must be one row per component or one shared row")
    if md.shape[0] != lw.shape[0]:
        raise ValueError("component count mismatch between weights and parameters")
    x = ad.constant(x).data
    return ad.custom_vjp(x, [log_w, means, log_stds], mixture_implicit_rule(x, lw, md, ls, tail_counter))
