"""Model families, their proposals, exact oracles, and synthetic data.

Four families: three continuous state space models (linear Gaussian,
stochastic volatility, deep Markov) and a finite HMM used as an
enumeration oracle.  This module is the one seam between them and the
filters.  ``bind(model, params, ys)`` is the one family dispatch on the
filter path: it returns one run's model, built on the caller's tape with
the work no particle changes done once (lifted constants, SV's B and
log det B, the DMM's observation encoder over all T rows, the HMM's
proposal tables).  The filters and the couplings bind once per run, then
call three builders that forward to the bound model and dispatch on
nothing: ``transition_build_many`` and ``proposal_build_many`` return a
rows object with one row per previous particle, and
``emission_logpdf_rows`` scores particle rows against y_t.  A step's
proposal and log f share one transition rows object.  There are two rows
types with the same methods, so no caller asks which family it holds:

  GaussRows  (means, log-stds) of diagonal Gaussians, the continuous families
  TableRows  (rows, K) categorical probabilities, the HMM

Both score a row against row i (``logpdf_rows``), every row against every
component (``logpdf_matrix``, an array, for the MPF-TMC identity check) and every
row under a weighted mixture of the components (``mixture_logpdf``), and
both draw a step's particles from their rows (``draw``) or from the
weighted mixture (``draw_mixture``).  Two dispatches score a step's
weight from two rows objects, one node each on Gaussian rows and the
composed row methods on tables.  ``mixture_log_ratio`` scores rows under
the ratio of two such mixtures that share the weights, MPF's step weight;
on Gaussian rows that is one ``gauss_mixture_pair`` node, the two-mixture
case of the one mixture kernel.  ``draw_log_ratio`` scores a draw under
the rows that drew it, f g / r, SMC's step weight (or g / r without f,
IPF's and TMC's term); on Gaussian rows that is one ``gauss_draw_ratio``
node, which takes log r from the draw's own noise, read again from the
step's draws, so the rows carry no noise.  Each density kernel,
reparameterized draw, network layer (``dense``) and Gaussian product is one
tape node with an analytic backward, which forms no cotangent for a
constant parent (the kernels' rules return None there); the filters call
the kernels on N rows and the couplings on one-row arrays, so each
log-density has one implementation.

Beyond numpy the module needs ``scipy.special`` (``expit``).  The Kalman
oracle runs on ``numpy.linalg``, and ``scipy.linalg`` is imported only
inside ``trisolve_rows``, SV's triangular solve, so LGSSM, DMM and HMM runs
never load it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.special import expit

import particlevi.autodiff as ad
from particlevi.autodiff import Var
from particlevi.distributions import (
    LOG_2PI,
    categorical_sample_many,
    gauss_product_fuse,
    mixture_implicit_rsample,
)
from particlevi.rng import RngStream

# sub-stream purposes within a time step
ANCESTOR, PROPOSAL, PERM = 0, 1, 2

LEAKY_SLOPE = 0.01
# a mixture row whose bound-shifted total is below this is redone with its own maximum
_FAR_TOTAL = 1e-280


# ---------------------------------------------------------------------------
# model families


@dataclass
class Lgssm:
    """x_t = A x_{t-1} + v_t, y_t = C x_t + e_t, with x_1 ~ N(0, I).

    Process and observation noises are unit white (Q = R = I diagonals
    kept explicit so the Kalman oracle stays general).
    """

    a: np.ndarray
    c: np.ndarray
    q_diag: np.ndarray
    r_diag: np.ndarray

    def __post_init__(self):
        if np.any(self.q_diag <= 0) or np.any(self.r_diag <= 0):
            raise ValueError("noise variances must be positive")

    @property
    def dx(self) -> int:
        return self.a.shape[0]

    @property
    def dy(self) -> int:
        return self.c.shape[0]


def lgssm_make(dx: int, dy: int, alpha: float, c_mode: str, rng: RngStream) -> Lgssm:
    """A_ij = alpha^(|i-j|+1); C either the diagonal embedding or dense normal."""
    if dx < 1 or dy < 1:
        raise ValueError("dimensions must be >= 1")
    idx = np.arange(dx)
    a = alpha ** (np.abs(idx[:, None] - idx[None, :]) + 1.0)
    if c_mode == "sparse":
        if dy > dx:
            raise ValueError("sparse C needs dy <= dx")
        c = np.zeros((dy, dx))
        c[np.arange(dy), np.arange(dy)] = 1.0
    elif c_mode == "dense":
        c = rng.split(91).normals(dy * dx).reshape(dy, dx)
    else:
        raise ValueError(f"unknown C mode: {c_mode}")
    return Lgssm(a, c, np.ones(dx), np.ones(dy))


@dataclass
class StochVol:
    """x_t = mu + Phi (x_{t-1} - mu) + v_t, y_t = diag(exp(x_t/2)) B e_t.

    Unconstrained parameterization: Phi = sigmoid(phi_logit), innovation
    std = exp(log_q_std), and B assembled from b_raw with exp on the
    diagonal (strictly-lower entries used only in triangular mode).
    Fields may be numpy arrays or tape Vars; `with_theta` swaps them.
    """

    mu: object
    phi_logit: object
    log_q_std: object
    b_raw: object
    b_mode: str = "diagonal"

    def __post_init__(self):
        if self.b_mode not in ("diagonal", "triangular"):
            raise ValueError(f"unknown B mode: {self.b_mode}")

    @property
    def dim(self) -> int:
        return int(ad.constant(self.mu).data.shape[0])

    @property
    def dy(self) -> int:
        """The observation width, which is the state dimension."""
        return self.dim

    def theta(self) -> dict:
        return {
            "mu": self.mu,
            "phi_logit": self.phi_logit,
            "log_q_std": self.log_q_std,
            "b_raw": self.b_raw,
        }

    def with_theta(self, theta: dict) -> "StochVol":
        return replace(self, **theta)


def sv_make(d: int, b_mode: str, rng: RngStream) -> StochVol:
    """Synthetic generating parameters for a d-dimensional SV model."""
    if d < 1:
        raise ValueError("dimensions must be >= 1")
    mu = rng.split(1).normals(d) * 0.5
    phi_logit = np.full(d, 2.2)  # Phi ~ 0.9, the persistent-volatility regime
    log_q_std = np.full(d, math.log(0.3))
    b_raw = np.zeros((d, d))
    if b_mode == "triangular" and d > 1:
        strict = rng.split(2).normals(d * d).reshape(d, d) * 0.2
        b_raw += np.tril(strict, -1)
    return StochVol(mu, phi_logit, log_q_std, b_raw, b_mode)


def sv_b_matrix(model: StochVol) -> Var:
    """B with positive diagonal; gradient flows only through used entries."""
    b_raw = ad.constant(model.b_raw)
    d = b_raw.data.shape[0]
    b = ad.exp(b_raw) * ad.constant(np.eye(d))
    if model.b_mode == "triangular":
        b = b + b_raw * ad.constant(np.tril(np.ones((d, d)), -1))
    return b


@dataclass
class Dmm:
    """Deep Markov model with shared-hidden two-head MLPs.

    Transition: x_t ~ N(mu(x_{t-1}), diag exp(sig(x_{t-1}))) with x_0 = 0;
    emission: y_t ~ Bernoulli(sigmoid(eta(x_t))).  The network outputs
    parameterize log variance, so log-std = head output / 2.
    """

    dx: int
    dy: int
    dh: int
    params: dict

    def theta(self) -> dict:
        return dict(self.params)

    def with_theta(self, theta: dict) -> "Dmm":
        return Dmm(self.dx, self.dy, self.dh, dict(theta))


def _mlp_init(rng: RngStream, sizes: list, names: list) -> dict:
    out = {}
    for k, (fan_in, fan_out) in enumerate(sizes):
        scale = 1.0 / math.sqrt(fan_in)
        w = (rng.split(k, 0).uniforms(fan_in * fan_out) * 2.0 - 1.0) * scale
        out[names[k] + "_w"] = w.reshape(fan_in, fan_out)
        out[names[k] + "_b"] = np.zeros(fan_out)
    return out


def dmm_make(dx: int, dy: int, dh: int, rng: RngStream) -> Dmm:
    if min(dx, dy, dh) < 1:
        raise ValueError("dimensions must be >= 1")
    params = {}
    params.update(_mlp_init(rng.split(0), [(dx, dh), (dh, dx), (dh, dx)],
                            ["trans_h", "trans_mu", "trans_sig"]))
    params.update(_mlp_init(rng.split(1), [(dx, dh), (dh, dy)], ["emis_h", "emis_out"]))
    return Dmm(dx, dy, dh, params)


def dense(x, w, b, act=None, runs: int = 1) -> Var:
    """One dense layer act(x @ w + b): (M, in) against (in, out) and (out,) -> (M, out).

    act is None, "leaky" (leaky relu with slope LEAKY_SLOPE) or "half" (times
    0.5: the log-std head, whose network output is a log variance).  One tape
    node: with G the incoming cotangent times the activation's slope, the
    cotangents are G @ w^T to x, x^T @ G to w and the column sums of G to b;
    a constant parent gets none.
    At a pre-activation of exactly 0 the leaky relu is differentiated on its
    negative side, with slope LEAKY_SLOPE.  The DMM's t=1 networks sit there
    at initialization: their biases start at zero and they read x_0 = 0, so
    their first gradients see the 0.01 slope for every hidden unit.  x may
    stack the particle rows of several runs (``ad.np_matmul``'s blocks).
    """
    x, w, b = ad.constant(x), ad.constant(w), ad.constant(b)
    xd, wd = x.data, w.data
    need_x, need_w, need_b = x.nid is not None, w.nid is not None, b.nid is not None
    out = ad.np_matmul(xd, wd, runs) + b.data
    if act == "leaky":
        pos = out > 0.0
        out = np.where(pos, out, LEAKY_SLOPE * out)
    elif act == "half":
        out = out * 0.5
    elif act is not None:
        raise ValueError(f"unknown activation {act!r}")

    def rule(g):
        if act == "leaky":
            g = np.where(pos, g, LEAKY_SLOPE * g)
        elif act == "half":
            g = g * 0.5
        return g @ wd.T if need_x else None, xd.T @ g if need_w else None, g.sum(axis=0) if need_b else None

    return ad.custom_vjp(out, [x, w, b], rule)


def mlp_two_head(params: dict, prefix: str, x, runs: int = 1) -> tuple:
    """(mean, log-std) heads over a shared leaky-relu hidden layer; x is (M, in)."""
    h = dense(x, params[prefix + "_h_w"], params[prefix + "_h_b"], "leaky", runs)
    mean = dense(h, params[prefix + "_mu_w"], params[prefix + "_mu_b"], None, runs)
    return mean, dense(h, params[prefix + "_sig_w"], params[prefix + "_sig_b"], "half", runs)


def mlp_single(params: dict, prefix: str, out_name: str, x, runs: int = 1) -> Var:
    h = dense(x, params[prefix + "_w"], params[prefix + "_b"], "leaky", runs)
    return dense(h, params[out_name + "_w"], params[out_name + "_b"], None, runs)


@dataclass
class DiscreteHmm:
    """Finite HMM used as an exact enumeration oracle."""

    pi0: np.ndarray
    trans: np.ndarray
    emis: np.ndarray

    def __post_init__(self):
        k = self.pi0.shape[0]
        for name, rows, shape in (("pi0", self.pi0, (k,)), ("trans", self.trans, (k, k)),
                                  ("emis", self.emis, (k, self.emis.shape[-1]))):
            _probability_rows(name, rows, shape)

    @property
    def dy(self) -> int:
        """The observation width: one symbol a step."""
        return 1


def _probability_rows(name: str, rows, shape: tuple) -> np.ndarray:
    """rows as an array of the given shape whose rows are non-negative and sum to 1 within 1e-10."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {rows.shape}")
    if not (np.all(rows >= 0.0) and np.all(np.abs(rows.sum(axis=-1) - 1.0) <= 1e-10)):
        raise ValueError(f"{name} rows must be non-negative and sum to 1")
    return rows


def hmm_reference() -> DiscreteHmm:
    """The 2-state reference instance; p(y=(0,0)) = 0.3525 by hand recursion."""
    return DiscreteHmm(
        pi0=np.asarray([0.5, 0.5]),
        trans=np.asarray([[0.9, 0.1], [0.1, 0.9]]),
        emis=np.asarray([[0.8, 0.2], [0.3, 0.7]]),
    )


# ---------------------------------------------------------------------------
# exact oracles


def kalman_filter(m: Lgssm, ys: np.ndarray):
    """Predict/update recursion; returns (loglik, filtered means, filtered covs).

    ys is checked as ``bind`` checks it: (T, dy) with T >= 1 and finite.
    Each innovation covariance S is factored by ``np.linalg.cholesky``,
    whose diagonal gives log det S; one that is not positive definite or
    not finite is a ``ValueError`` naming t.  The residual and the gain
    come from ``np.linalg.solve``: S and the covariance are symmetric, so
    the gain cov C^T S^{-1} is solve(S, C cov)^T.
    """
    ys = np.asarray(ys, dtype=np.float64)
    _check_observations("Lgssm", m.dy, ys)
    t_max, dx = ys.shape[0], m.dx
    q, r = np.diag(m.q_diag), np.diag(m.r_diag)
    mean = np.zeros(dx)
    cov = np.eye(dx)
    loglik = 0.0
    means = np.zeros((t_max, dx))
    covs = np.zeros((t_max, dx, dx))
    for t in range(t_max):
        if t > 0:
            mean = m.a @ mean
            cov = m.a @ cov @ m.a.T + q
        innov_cov = m.c @ cov @ m.c.T + r
        try:
            chol = np.linalg.cholesky(innov_cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"innovation covariance not positive definite at t={t + 1}") from exc
        if not np.isfinite(chol).all():
            raise ValueError(f"innovation covariance not positive definite at t={t + 1}")
        resid = ys[t] - m.c @ mean
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        loglik += -0.5 * (m.dy * LOG_2PI + logdet + resid @ np.linalg.solve(innov_cov, resid))
        gain = np.linalg.solve(innov_cov, m.c @ cov).T
        mean = mean + gain @ resid
        shrink = np.eye(dx) - gain @ m.c
        cov = shrink @ cov @ shrink.T + gain @ r @ gain.T  # Joseph form
        means[t], covs[t] = mean, cov
    return float(loglik), means, covs


def kalman_loglik(m: Lgssm, ys: np.ndarray) -> float:
    return kalman_filter(m, ys)[0]


def hmm_forward(h: DiscreteHmm, symbols: np.ndarray) -> float:
    """Exact log p(y) by the forward algorithm in log space."""
    symbols = np.asarray(symbols, dtype=np.intp)
    with np.errstate(divide="ignore"):
        log_pi = np.log(h.pi0)
        log_t = np.log(h.trans)
        log_e = np.log(h.emis)
    alpha = log_pi + log_e[:, symbols[0]]
    for sym in symbols[1:]:
        alpha = ad.np_logsumexp(alpha[:, None] + log_t, axis=0) + log_e[:, sym]
    return float(ad.np_logsumexp(alpha))


# ---------------------------------------------------------------------------
# density kernels (vectorized over particles)


def _check_dims(x: Var, means: Var, log_stds: Var):
    """The kernels broadcast rows, never coordinates: every trailing dimension must agree."""
    d_x, d_m, d_ls = x.data.shape[-1], means.data.shape[-1], log_stds.data.shape[-1]
    if not d_x == d_m == d_ls:
        raise ValueError(f"state dimensions disagree: x {d_x}, means {d_m}, log-stds {d_ls}")


def gauss_logpdf_rows(x, means, log_stds) -> Var:
    """Row-aligned diagonal Gaussian log-densities: (N|1, d) against (N|1, d) -> (N,).

    One tape node.  With z = (x - mean) / std and incoming cotangent g, the
    cotangents are -g z / std to x, g z / std to the means and g (z^2 - 1)
    to the log-stds, each summed back to its parent's shape; a constant
    parent gets none.
    """
    x, means, log_stds = ad.constant(x), ad.constant(means), ad.constant(log_stds)
    _check_dims(x, means, log_stds)
    need_x, need_m, need_ls = x.nid is not None, means.nid is not None, log_stds.nid is not None
    # the rule closes over arrays only: a Var would tie the tape into a cycle
    x_shape, m_shape, ls = x.data.shape, means.data.shape, log_stds.data
    neg_ls = -ls
    inv_std = np.exp(neg_ls)
    z = (x.data - means.data) * inv_std
    out = _standard_rows(z, neg_ls)

    def rule(g):
        g = g[:, None]
        gz = g * z * inv_std if need_x or need_m else None
        return (
            ad.unbroadcast(-gz, x_shape) if need_x else None,
            ad.unbroadcast(gz, m_shape) if need_m else None,
            ad.unbroadcast(g * (z * z - 1.0), ls.shape) if need_ls else None,
        )

    return ad.custom_vjp(out, [x, means, log_stds], rule)


def _standard_rows(z, neg_ls) -> np.ndarray:
    """sum_e (c - ls_e - 0.5 z_e^2) per row, c = -log(2 pi) / 2, given z and -ls (which it overwrites).

    The terms are formed in place, with the IEEE operations of the
    expression in their order: c - ls is c + (-ls), and 0.5 z z is (0.5 z) z.
    """
    neg_ls += -0.5 * LOG_2PI
    terms = 0.5 * z
    terms *= z
    return np.subtract(neg_ls, terms, out=terms).sum(axis=1)


def _pair_cotangents(g, xd, md, ls, inv_var, m_iv, need_ls: bool) -> tuple:
    """Cotangents of sum_ij g_ij log N(x_i; m_j, exp(ls_j)) to x, means and log-stds.

    Matmul contractions of the (N, M) cotangent G: G @ (m iv), G @ iv,
    G^T @ x and G^T @ x^2, with iv the inverse variances.  None for the
    log-stds when need_ls is False.  The fourth entry is the column sums
    of G, which a mixture's log-weights take.  G, the means and the
    log-stds may stack S mixtures that share x on a leading axis; each
    mixture's cotangents are then bit-identical to its own call's.
    """
    shared = ls.shape[-2] == 1
    col = g.sum(axis=-2)
    g_t = g.swapaxes(-1, -2)
    gt_x = g_t @ xd
    g_iv = g.sum(axis=-1)[..., None] * inv_var if shared else g @ inv_var
    grad_x = g @ m_iv - xd * g_iv
    col_d = col[..., None]
    grad_means = inv_var * (gt_x - md * col_d)
    grad_ls = None
    if need_ls:
        quad = g_t @ (xd * xd) - 2.0 * md * gt_x + md * md * col_d
        grad_ls = inv_var * quad - col_d
        if shared:
            grad_ls = grad_ls.sum(axis=-2, keepdims=True)
    return grad_x, grad_means, grad_ls, col


def gauss_logpdf_matrix(x, means, log_stds) -> np.ndarray:
    """All-pairs diagonal Gaussian log-densities: (N, d) against (M, d) -> an (N, M) array.

    Expanded quadratic form c_j - 0.5 (sq_ij - 2 cross_ij + msq_j), built in
    one (N, M) buffer.  Log-stds are (M, d), or one (1, d) row that every
    component shares; then sq is a column and the pair work is the single
    (N, d) @ (d, M) cross matmul.  The arguments may be Vars or arrays; it
    reads their values and records no node.
    """
    x, means, log_stds = ad.constant(x), ad.constant(means), ad.constant(log_stds)
    _check_dims(x, means, log_stds)
    xd, md, ls = x.data, means.data, log_stds.data
    inv_var = np.exp(-2.0 * ls)
    out = xd @ (md * inv_var).T
    out *= -2.0
    out += (xd * xd) @ inv_var.T
    out += (md * md * inv_var).sum(axis=1)
    out *= -0.5
    out += (-0.5 * LOG_2PI - ls).sum(axis=1)
    return out


def gauss_mixture_logpdf(x, log_w, means, log_stds, runs: int = 1) -> Var:
    """Mixture log-densities log sum_j exp(log_w_j) N(x_i; means_j, exp(log_stds_j)) -> (N,).

    x is (N, d), log_w (M,) and means (M, d); log-stds are (M, d) or one
    shared (1, d) row, as for ``gauss_logpdf_matrix``.  The weights are not
    normalized here.  A Gaussian density peaks at its mean, so no pair term
    exceeds top = max_j (log_w_j - sum_e (log(2 pi) / 2 + log_stds_je)), and
    the terms are shifted by that bound instead of by each row's maximum:
    one matmul with extra columns forms the shifted terms in one (N, M)
    buffer, which is exponentiated and row-summed in place.  With iv the
    inverse variances and bias_j = log_w_j - sum_e (log(2 pi) / 2 + ls_je
    + m_je^2 iv_je / 2), a shared scale contracts [x, 1, row_i - top]
    against [m iv, bias_j, 1], where row_i = -sum_e x_ie^2 iv_e / 2 is the
    same for every component; per-component scales contract [x, x^2, 1]
    against [m iv, -iv / 2, bias_j - top].  A row far below the bound (its
    total under 1e-280, some 640 nats down) is redone with its own maximum.
    A row whose weights are all -inf scores -inf.  One tape node: with
    responsibilities P = buf / rowsum and G = g P, which do not depend on
    the shift, the log_w cotangent is the column sums of G and the others
    are ``_pair_cotangents`` of G.

    runs > 1 stacks that many runs off tape: x, log_w and the means hold
    each run's rows in turn, and each run's rows mix only its own
    components.  The runs go through the one-run arithmetic in turn, so
    each is bit-identical to the run alone and a pass holds one run's (N, M)
    buffer at a time.

    This is the one-mixture case of ``_mixtures``, the kernel that
    ``gauss_mixture_pair`` runs on two mixtures at once.
    """
    x, log_w, means, log_stds = (ad.constant(v) for v in (x, log_w, means, log_stds))
    _check_mixture(x, log_w, means, log_stds)
    out, rule = _mixtures(x.data, log_w.data, means.data[None], log_stds.data[None], runs, log_stds.nid is not None)

    def one(g):
        grad_x, grad_means, grad_ls, grad_w = rule(g[None])
        return grad_x[0], grad_w[0], grad_means[0], None if grad_ls is None else grad_ls[0]

    return ad.custom_vjp(out[0], [x, log_w, means, log_stds], one)


def gauss_mixture_pair(x, log_w, num_means, num_log_stds, den_means, den_log_stds, log_g, runs: int = 1) -> Var:
    """(log sum_j w_j f_j(x_i) + log_g_i) - log sum_j w_j r_j(x_i) in one tape node -> (N,).

    f (num_means, num_log_stds) and r (den_means, den_log_stds) are two
    Gaussian mixtures over the same weights exp(log_w) and of one layout:
    (M, d) means, and (M, d) or shared (1, d) log-stds for both.  Each
    mixture scores x as ``gauss_mixture_logpdf`` does, bit for bit, and the
    result keeps the order of the composed form, (f + log_g) - r: f's
    mixture plus log_g, then minus r's.  Its rule lists r's cotangents
    before f's, as that sub and the f node would pass them back, so x and
    log_w, parents of both, sum their cotangents in the same order.  runs
    is as for ``gauss_mixture_logpdf``.
    """
    x, log_w, log_g = ad.constant(x), ad.constant(log_w), ad.constant(log_g)
    f_m, f_ls, r_m, r_ls = (ad.constant(v) for v in (num_means, num_log_stds, den_means, den_log_stds))
    if f_m.data.shape != r_m.data.shape or f_ls.data.shape != r_ls.data.shape:
        raise ValueError("the two mixtures must share one layout of means and log-stds")
    _check_mixture(x, log_w, f_m, f_ls)
    md = np.concatenate((f_m.data, r_m.data)).reshape(2, *f_m.data.shape)
    ls = np.concatenate((f_ls.data, r_ls.data)).reshape(2, *f_ls.data.shape)
    out, rule = _mixtures(x.data, log_w.data, md, ls, runs, f_ls.nid is not None or r_ls.nid is not None)
    g_shape = log_g.data.shape

    def pair(g):
        (gx_f, gx_r), (gm_f, gm_r), grad_ls, (gw_f, gw_r) = rule(np.concatenate((g, -g)).reshape(2, -1))
        gls_f, gls_r = (None, None) if grad_ls is None else grad_ls
        return gx_r, gw_r, gm_r, gls_r, gx_f, gw_f, gm_f, gls_f, ad.unbroadcast(g, g_shape)

    return ad.custom_vjp((out[0] + log_g.data) - out[1], [x, log_w, r_m, r_ls, x, log_w, f_m, f_ls, log_g], pair)


def gauss_draw_ratio(x, eps, num_means, num_log_stds, den_log_stds, log_g) -> Var:
    """(log f(x_i) + log_g_i) - log r(x_i) in one tape node, for x drawn from r -> (N,).

    x is the (N, d) draw m_r + exp(ls_r) eps of the diagonal Gaussian rows
    r, made from the constant (N, d) standard-normal noise eps
    (``gauss_rsample``); den_log_stds are r's (N|1, d) log-stds.  Under that
    change of variables log r(x) = sum_e (-ls_e - log(2 pi) / 2 - eps_e^2 / 2),
    which needs no x - m_r and no division by exp(ls_r).  f
    (num_means, num_log_stds) is one (N|1, d) Gaussian row per draw, scored
    with ``gauss_logpdf_rows``' operations in their order; num_means None
    leaves it out, for log_g - log r.  The result keeps the composed form's
    order, (log f + log_g) - log r.

    With z = (x - m_f) / std_f and incoming cotangent g, the cotangents are
    -g z / std_f to x, g z / std_f to f's means, g (z^2 - 1) to f's
    log-stds, g to log_g and +g in each coordinate to r's log-stds, each
    summed back to its parent's shape; a constant parent gets none.  r's
    means are no parent: with eps fixed, log r does not depend on them.
    With the draw's own node these give the x-form's gradients: there, log
    r's terms to x and to r's means cancel through the draw, and its terms
    to r's log-stds sum to g.
    """
    x, log_g, r_ls = ad.constant(x), ad.constant(log_g), ad.constant(den_log_stds)
    if eps.shape != x.data.shape or r_ls.data.shape[-1] != eps.shape[-1]:
        raise ValueError(f"noise {eps.shape} must match the draws {x.data.shape} and the log-stds' width")
    need_g, need_rls = log_g.nid is not None, r_ls.nid is not None
    g_shape, rls_shape = log_g.data.shape, r_ls.data.shape
    log_r = _standard_rows(eps, -r_ls.data)
    if num_means is None:

        def ratio(g):
            return (ad.unbroadcast(g, g_shape) if need_g else None,
                    ad.unbroadcast(np.repeat(g[:, None], eps.shape[1], axis=1), rls_shape) if need_rls else None)

        return ad.custom_vjp(log_g.data - log_r, [log_g, r_ls], ratio)

    means, log_stds = ad.constant(num_means), ad.constant(num_log_stds)
    _check_dims(x, means, log_stds)
    need_x, need_m, need_ls = x.nid is not None, means.nid is not None, log_stds.nid is not None
    x_shape, m_shape, ls_shape = x.data.shape, means.data.shape, log_stds.data.shape
    neg_ls = -log_stds.data
    inv_std = np.exp(neg_ls)
    z = (x.data - means.data) * inv_std
    out = _standard_rows(z, neg_ls)
    out += log_g.data
    out -= log_r

    def rule(g):
        g_col = g[:, None]
        gz = g_col * z * inv_std if need_x or need_m else None
        return (
            ad.unbroadcast(-gz, x_shape) if need_x else None,
            ad.unbroadcast(gz, m_shape) if need_m else None,
            ad.unbroadcast(g_col * (z * z - 1.0), ls_shape) if need_ls else None,
            ad.unbroadcast(g, g_shape) if need_g else None,
            ad.unbroadcast(np.repeat(g_col, eps.shape[1], axis=1), rls_shape) if need_rls else None,
        )

    return ad.custom_vjp(out, [x, means, log_stds, log_g, r_ls], rule)


def _check_mixture(x: Var, log_w: Var, means: Var, log_stds: Var):
    _check_dims(x, means, log_stds)
    if log_w.data.shape != means.data.shape[:1]:
        raise ValueError(f"log-weights {log_w.data.shape} do not match {means.data.shape[0]} components")


def _mixtures(xd, lw, md, ls, runs: int, need_ls: bool) -> tuple:
    """The kernel of ``gauss_mixture_logpdf`` on S mixtures that share x and log_w.

    md and ls stack the S mixtures' means and log-stds, all of one layout,
    on a leading axis.  Returns the (S, R N) log-densities and the rule
    that maps (S, N) cotangents to stacked ones: (S, N, d) to x, (S, M, d)
    to the means, to the log-stds (None unless need_ls) and (S, M) to
    log_w.  Each run's rows meet its own components in turn.  The pair
    buffers are kept only for a tape, which records one run, and the rule
    reads that run's.
    """
    inv_var = np.exp(-2.0 * ls)
    m_iv = md * inv_var
    n, m = xd.shape[0] // runs, md.shape[1] // runs
    keep = runs == 1 and ad.recording()
    out = np.empty((md.shape[0], xd.shape[0]))
    for r in range(runs):
        rows, comps = slice(r * n, (r + 1) * n), slice(r * m, (r + 1) * m)
        scale = comps if ls.shape[1] > 1 else slice(None)
        out[:, rows], buf, total = _mixture_rows(xd[rows], lw[comps], md[:, comps], ls[:, scale],
                                                 inv_var[:, scale], m_iv[:, comps], keep)

    def rule(g):
        # a dead row (all weights -inf) passes nothing back
        scale = np.divide(g, total, out=np.zeros_like(total), where=total > 0.0)
        resp = buf * scale[..., None]
        return _pair_cotangents(resp, xd, md, ls, inv_var, m_iv, need_ls)

    return out, rule


def _mixture_rows(xd, lw, md, ls, inv_var, m_iv, keep: bool) -> tuple:
    """One run's (log-densities, shifted pair buffers, row totals) under S stacked mixtures.

    The O(M d) work of the S mixtures (peaks, shift, bias, lhs and rhs) is
    done on the stack, and so is the work on the (S, N) row totals; each
    mixture's (N, M) buffer is formed, exponentiated and row-summed in
    turn.  keep writes the buffers into one (S, N, M) array for the
    backward; without it one (N, M) buffer serves each mixture in turn,
    and None comes back in place of the buffers.
    """
    (n, d), (count, m) = xd.shape, md.shape[:2]
    peaks = lw + (-0.5 * LOG_2PI - ls).sum(axis=2)
    top = peaks.max(axis=1)
    top[top == -np.inf] = 0.0  # every weight -inf: any finite shift leaves the rows at 0
    bias = peaks - 0.5 * (md * m_iv).sum(axis=2)
    shared = ls.shape[1] == 1
    if shared:
        lhs = np.empty((count, n, d + 2))
        rhs = np.empty((count, d + 2, m))
        lhs[:, :, :d] = xd
        lhs[:, :, d] = 1.0
        rows = np.matmul(xd * xd, -0.5 * inv_var[:, 0, :, None])  # one gemv per mixture
        np.subtract(rows[..., 0], top[:, None], out=lhs[:, :, d + 1])
        rhs[:, d] = bias
        rhs[:, d + 1] = 1.0
    else:
        lhs = np.empty((n, 2 * d + 1))  # [x, x^2, 1] serves every mixture
        rhs = np.empty((count, 2 * d + 1, m))
        lhs[:, :d] = xd
        np.multiply(xd, xd, out=lhs[:, d:-1])
        lhs[:, -1] = 1.0
        np.multiply(inv_var.swapaxes(1, 2), -0.5, out=rhs[:, d:-1])
        np.subtract(bias, top[:, None], out=rhs[:, -1])
    rhs[:, :d] = m_iv.swapaxes(1, 2)
    buf = np.empty((count if keep else 1, n, m))
    total = np.empty((count, n))
    ones = np.ones(m)
    for s in range(count):
        pair = np.matmul(lhs[s] if shared else lhs, rhs[s], out=buf[s if keep else 0])
        np.exp(pair, out=pair)
        np.matmul(pair, ones, out=total[s])
    if not keep:
        buf = None
    if total.min() >= _FAR_TOTAL:
        out = np.log(total)
        out += top[:, None]
        return out, buf, total
    shift = np.empty((count, n))
    shift[:] = top[:, None]
    for s in range(count):
        far = np.flatnonzero(total[s] < _FAR_TOTAL)
        if far.size == 0:
            continue
        # a lone far row makes this a gemv, whose rounding follows the operand's
        # layout; F order is the one the recorded golden and verify values use
        terms = (lhs[s] if shared else lhs)[far] @ np.asfortranarray(rhs[s])
        peak = terms.max(axis=1)
        peak[peak == -np.inf] = 0.0  # a dead row scores -inf below
        terms -= peak[:, None]
        np.exp(terms, out=terms)
        if buf is not None:
            buf[s, far] = terms
        total[s, far] = terms.sum(axis=1)
        shift[s, far] += peak
    with np.errstate(divide="ignore"):
        return np.log(total) + shift, buf, total


def gauss_rsample(means, log_stds, eps, rows=None) -> Var:
    """Reparameterized diagonal Gaussian draws means + exp(log_stds) * eps -> (N, d).

    eps is the (N, d) standard-normal noise, a constant.  Means and
    log-stds are (N|1, d) rows that broadcast against it; with rows, draw i
    takes component rows[i] of (M, d) means and of (M, d) log-stds, while a
    shared (1, d) log-std serves every draw.  One tape node: with incoming
    cotangent g, the means get g and the log-stds g eps std, each summed
    back to its parent's shape or scattered onto the chosen components; a
    constant parent gets none.
    """
    means, log_stds = ad.constant(means), ad.constant(log_stds)
    need_m, need_ls = means.nid is not None, log_stds.nid is not None
    md, ls = means.data, log_stds.data
    pick_ls = rows is not None and ls.shape[0] > 1
    if rows is not None:
        rows = np.asarray(rows, dtype=np.intp)
        md = md[rows]
        if pick_ls:
            ls = ls[rows]
    std = np.exp(ls)
    out = std * eps
    out += md  # md + std eps, in place: eps holds every draw's row
    m_shape, ls_shape = means.data.shape, log_stds.data.shape

    def rule(g):
        g_means = g_ls = None
        if need_ls:
            g_ls = ad.unbroadcast(g * eps, ls.shape) * std
            if pick_ls:
                acc = np.zeros(ls_shape)
                np.add.at(acc, rows, g_ls)
                g_ls = acc
        if need_m and rows is None:
            g_means = ad.unbroadcast(g, m_shape)
        elif need_m:
            g_means = np.zeros(m_shape)
            np.add.at(g_means, rows, g)
        return g_means, g_ls

    return ad.custom_vjp(out, [means, log_stds], rule)


def lgssm_proposal_mean(mu, beta, xa, t: int) -> Var:
    """LGSSM proposal means mu_t + beta_t * xa at step t: (N, d), xa the step's transition means x_prev @ A^T.

    mu and beta are the (T, d) proposal parameters.  One tape node whose
    cotangents to mu and beta are (T, d) arrays that are zero outside row
    t - 1: with incoming cotangent g, that row gets the column sums of g and
    of g * xa, and xa gets g * beta_t; a constant parent gets none.
    """
    mu, beta, xa = ad.constant(mu), ad.constant(beta), ad.constant(xa)
    i = t - 1
    m_shape, b_shape = mu.data.shape, beta.data.shape
    need_mu, need_beta, need_x = mu.nid is not None, beta.nid is not None, xa.nid is not None
    b, xd = beta.data[i], xa.data
    out = b * xd
    out += mu.data[i]  # mu_t + beta_t xa, in place

    def rule(g):
        g_mu = g_beta = None
        if need_mu:
            g_mu = np.zeros(m_shape)
            g_mu[i] = g.sum(axis=0)
        if need_beta:
            g_beta = np.zeros(b_shape)
            g_beta[i] = (g * xd).sum(axis=0)
        return g_mu, g_beta, g * b if need_x else None

    return ad.custom_vjp(out, [mu, beta, xa], rule)


def bernoulli_logpmf_rows(logits, y) -> Var:
    """Bernoulli log-pmfs of one 0/1 row y (d,) under each row of logits (N, d) -> (N,).

    log p = sum_k y_k l_k - softplus(l_k), with the softplus a two-term
    logsumexp, so logits of either sign and any size stay finite.  One tape
    node: the logits' cotangent is g (y - sigmoid(logits)).
    """
    logits = ad.constant(logits)
    ld = logits.data
    y = np.asarray(y, dtype=np.float64)
    softplus = ad.np_logsumexp(np.stack([ld, np.zeros_like(ld)]), axis=0)
    out = (y * ld - softplus).sum(axis=1)

    def rule(g):
        return (g[:, None] * (y - expit(ld)),)

    return ad.custom_vjp(out, [logits], rule)


def trisolve_rows(b: Var, u: Var, runs: int = 1) -> Var:
    """Rows of u through B^{-1} for lower-triangular B: (B^{-1} u_i)_i.

    With runs > 1, u stacks that many runs' rows and each run is solved
    alone: LAPACK rounds a lone right-hand side unlike a block of them.
    The solve is scipy's ``solve_triangular``, imported here because SV's
    emission is its only caller: no other family loads ``scipy.linalg``.
    Its finiteness check is off, so an overflowed u gives non-finite rows
    and the filter reports the step's weights, as it does for every family.
    """
    from scipy.linalg import solve_triangular  # only SV runs pay for loading scipy.linalg

    b, u = ad.constant(b), ad.constant(u)
    b_data = b.data
    z = np.concatenate([solve_triangular(b_data, rows.T, lower=True, check_finite=False).T
                        for rows in np.split(u.data, runs)])

    need_b, need_u = b.nid is not None, u.nid is not None

    def rule(g):
        gt = solve_triangular(b_data.T, np.asarray(g).T, lower=False, check_finite=False)
        return -np.tril(gt @ z) if need_b else None, gt.T if need_u else None

    return ad.custom_vjp(z, [b, u], rule)


# ---------------------------------------------------------------------------
# rows: what the builders return


class GaussRows(NamedTuple):
    """Diagonal Gaussian rows: (rows, d) means and (rows, d) or shared (1, d) log-stds.

    The draw methods of both rows types take ``draws``, a filter run's reads
    (``filters._RunDraws``, or one lane of a coupling): a step's
    ``normals``, ``uniforms``, ``choose_shared`` and ``choose_each`` at
    offsets 0..count-1, for each run of a pass in turn.  The rows of a pass
    of R runs stack each run's rows, and ``mixture_logpdf`` takes R.
    """

    means: Var
    log_stds: Var

    def logpdf_rows(self, x) -> Var:
        return gauss_logpdf_rows(x, self.means, self.log_stds)

    def logpdf_matrix(self, x) -> np.ndarray:
        return gauss_logpdf_matrix(x, self.means, self.log_stds)

    def mixture_logpdf(self, x, log_w, runs: int = 1) -> Var:
        """(N,) log sum_j exp(log_w_j) N(x_i; row j), over each run's own rows.

        One ``gauss_mixture_logpdf`` node; a single row per run (TMC's
        step at N=1) goes through the row kernel plus its log-weight
        instead.  ``mixture_log_ratio`` scores two rows objects of one
        layout in one node.
        """
        if self.means.data.shape[0] == runs:
            return log_w + gauss_logpdf_rows(x, self.means, self.log_stds)
        return gauss_mixture_logpdf(x, log_w, self.means, self.log_stds, runs)

    def _normals(self, draws, t: int, n: int) -> np.ndarray:
        d = self.means.data.shape[1]
        return draws.normals(t, PROPOSAL, n * d).reshape(-1, d)

    def draw(self, draws, t: int, n: int) -> Var:
        """n reparameterized draws of step t; every row is one draw's Gaussian, or one row serves all."""
        return gauss_rsample(self.means, self.log_stds, self._normals(draws, t, n))

    def draw_mixture(self, draws, t: int, n: int, log_w, implicit: bool, tail) -> Var:
        """n draws from the mixture of the rows weighted by exp(log_w), normalized.

        One draw serves both estimators: the ANCESTOR choices pick each
        draw's component with detached probabilities, from each run's own n
        rows, and the PROPOSAL normals reparameterize the draw within it.
        implicit instead hands the constant value of that draw to one
        ``mixture_implicit_rsample`` node, which counts its tail draws in
        tail, so the gradient flows through the mixture weights too.  Only a
        tape asks for that gradient, so off tape implicit changes nothing.
        """
        eps = self._normals(draws, t, n)
        anc = draws.choose_shared(t, ANCESTOR, n, np.exp(log_w.data).reshape(-1, n))
        if implicit and ad.recording():
            x = gauss_rsample(self.means.data, self.log_stds.data, eps, rows=anc).data
            return mixture_implicit_rsample(log_w, self.means, self.log_stds, x, tail)
        return gauss_rsample(self.means, self.log_stds, eps, rows=anc)


def _state_index(x) -> np.ndarray:
    """The (N,) state indices of a finite model's (N, 1) state column."""
    return ad.constant(x).data[:, 0].astype(np.intp)


class TableRows:
    """Categorical rows of a finite model: (rows, K) probabilities over K states.

    States are (N, 1) columns of indices, as float constants; one row may
    serve every particle.  The methods mirror ``GaussRows`` and return
    constants: the finite models carry no gradient.
    """

    __slots__ = ("probs",)

    def __init__(self, probs):
        self.probs = np.asarray(probs, dtype=np.float64)

    def logpdf_rows(self, x) -> Var:
        idx = _state_index(x)
        rows = np.arange(idx.size) if self.probs.shape[0] > 1 else 0
        with np.errstate(divide="ignore"):
            return ad.constant(np.log(self.probs[rows, idx]))

    def logpdf_matrix(self, x) -> np.ndarray:
        """(N, rows) log-probabilities of each state under each row."""
        with np.errstate(divide="ignore"):
            return np.ascontiguousarray(np.log(self.probs[:, _state_index(x)]).T)

    def mixture_logpdf(self, x, log_w, runs: int = 1) -> Var:
        """(N,) log sum_j exp(log_w_j) p_j(x_i), over each run's own rows."""
        probs = self.probs.reshape(runs, -1, self.probs.shape[1])
        idx = _state_index(x).reshape(runs, 1, -1)
        with np.errstate(divide="ignore"):
            log_p = np.log(np.take_along_axis(probs, idx, axis=2))  # [r, j, i] = log p_rj(x_ri)
        terms = ad.constant(log_w).data.reshape(runs, 1, -1) + np.ascontiguousarray(log_p.transpose(0, 2, 1))
        return ad.constant(ad.np_logsumexp(terms, axis=2).reshape(-1))

    def draw(self, draws, t: int, n: int) -> Var:
        """n PROPOSAL choices of step t: from the one row, or one from each row."""
        if self.probs.shape[0] == 1:
            idx = draws.choose_shared(t, PROPOSAL, n, self.probs[0])
        else:
            idx = draws.choose_each(t, PROPOSAL, list(self.probs))
        return ad.constant(idx[:, None].astype(np.float64))

    def draw_mixture(self, draws, t: int, n: int, log_w, implicit: bool, tail) -> Var:
        """n PROPOSAL choices per run from its marginal row exp(log_w) @ probs; no implicit draw."""
        if implicit:
            raise ValueError("a finite model has no implicit reparameterization")
        w = np.exp(ad.constant(log_w).data).reshape(-1, n)
        rows = self.probs.reshape(len(w), n, -1)
        marginals = np.stack([w_r @ rows_r for w_r, rows_r in zip(w, rows)])
        return TableRows(np.repeat(marginals, n, axis=0)).draw(draws, t, n)


def mixture_log_ratio(num, den, x, log_w, log_g, runs: int = 1) -> Var:
    """(N,) num.mixture_logpdf(x, log_w) + log_g - den.mixture_logpdf(x, log_w).

    This is the MPF step weight, with num the transition rows and den the
    proposal rows.  Two ``GaussRows`` are scored in one
    ``gauss_mixture_pair`` node, which refuses mixed scale layouts (no
    family builds them); table rows take the two mixture densities in turn.
    MPF's step at one row per run is SMC's (``draw_log_ratio``) and does
    not come here.
    """
    if isinstance(num, GaussRows) and isinstance(den, GaussRows):
        return gauss_mixture_pair(x, log_w, num.means, num.log_stds, den.means, den.log_stds, log_g, runs)
    return num.mixture_logpdf(x, log_w, runs) + log_g - den.mixture_logpdf(x, log_w, runs)


def draw_log_ratio(num, den, draws, t: int, n: int, x, log_g) -> Var:
    """(N,) (num.logpdf_rows(x) + log_g) - den.logpdf_rows(x), for x den's draw ``den.draw(draws, t, n)``.

    This is a draw's importance weight f g / r under the rows that drew it:
    SMC's step weight, with num the transition rows; num None leaves f out,
    for IPF's and TMC's log g - log r.  On Gaussian rows it is one
    ``gauss_draw_ratio`` node, which scores log r from the draw's noise:
    the step's PROPOSAL normals, read from draws again.  A backend serves
    each (t, purpose, offset) one value, so that is the noise the draw was
    made from.  Table rows are scored in turn, in the same order.
    """
    if isinstance(den, GaussRows):
        f_m, f_ls = (None, None) if num is None else num
        return gauss_draw_ratio(x, den._normals(draws, t, n), f_m, f_ls, den.log_stds, log_g)
    log_r = den.logpdf_rows(x)
    return (log_g if num is None else num.logpdf_rows(x) + log_g) - log_r


# ---------------------------------------------------------------------------
# one run's model: bind, and the three builders that forward to it


def bind(model, params, data, runs: int = 1):
    """One run's model: the model, its proposal params and data, a Dataset or (T, dy) ys.

    It has ``transition(t, x_prev)``, ``emission(t, x)``, ``proposal(t,
    x_prev)``, the (T, dy) ``ys`` and ``runs``.  What no particle changes is
    built here, once, on the caller's tape: when that tape records, the
    gradient of every step that reads it reaches params.  One object serves
    one filter pass; nothing is cached across passes.  A pass of runs > 1
    stacks that many runs' particle rows, and the bound model's products and
    solves over particle rows treat each run's rows alone.
    ys must have T >= 1 rows of the model's width ``dy`` (SV's is its dim,
    the HMM's is 1); any other shape is a ``ValueError`` naming the family
    and both shapes, and a NaN or infinite entry one naming the family, its
    row and its column.
    """
    ys = data.ys if isinstance(data, Dataset) else np.asarray(data, dtype=np.float64)
    for family, run in ((Lgssm, _LgssmRun), (StochVol, _SvRun), (Dmm, _DmmRun), (DiscreteHmm, _HmmRun)):
        if isinstance(model, family):
            _check_observations(family.__name__, model.dy, ys)
            bound = run(model, params, ys)
            bound.runs, bound.last_transition = runs, None
            return bound
    raise TypeError(f"unsupported model: {type(model).__name__}")


def _check_observations(family: str, dy: int, ys: np.ndarray):
    """Refuse ys unless it is (T, dy) with T >= 1 and finite, naming the family and both shapes."""
    if ys.ndim != 2 or ys.shape[0] < 1 or ys.shape[1] != dy:
        raise ValueError(f"{family} observations must have shape (T, {dy}) with T >= 1, got {ys.shape}")
    check_finite(ys, f"{family} observations")


def check_count(name: str, value, least: int):
    """Refuse a count that is not an integer >= least, naming it and its value; a bool is no count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_finite(ys: np.ndarray, what: str, error=ValueError):
    """Raise error, naming what and the row and column of ys's first NaN or infinite entry, if there is one."""
    if not np.isfinite(ys).all():
        row, col = np.argwhere(~np.isfinite(ys))[0]
        raise error(f"{what} must be finite; row {row}, column {col} (from 0) holds {ys[row, col]}")


def _conditional(family: str, t: int, x_prev):
    if t > 1 and x_prev is None:
        raise ValueError(f"{family} proposals condition on the previous state; none is state-independent")


def _fuse_row(rows, means, log_stds, t: int) -> GaussRows:
    """The product of Gaussian rows with row t-1 of a (T, d) Gaussian factor."""
    pick = np.asarray([t - 1])
    return GaussRows(*gauss_product_fuse(*rows, ad.gather_rows(means, pick), ad.gather_rows(log_stds, pick)))


class _LgssmRun:
    """LGSSM: free-form Gaussian proposals mu_t + beta_t * (A x_prev), A x_prev the transition means, or mu_t alone."""

    def __init__(self, model: Lgssm, params: dict, ys):
        self.ys = ys
        zeros = ad.constant(np.zeros((1, model.dx)))
        self.prior = GaussRows(zeros, zeros)
        self.a_t, self.c_t = ad.constant(model.a.T), ad.constant(model.c.T)
        self.q_ls, self.r_ls = (ad.constant(0.5 * np.log(v)[None, :]) for v in (model.q_diag, model.r_diag))
        self.mu, self.beta, self.log_sigma = (ad.constant(params[k]) for k in ("mu", "beta", "log_sigma"))

    def transition(self, t: int, x_prev=None):
        return self.prior if t == 1 else GaussRows(ad.matmul(x_prev, self.a_t, self.runs), self.q_ls)

    def emission(self, t: int, x) -> Var:
        return gauss_logpdf_rows(self.ys[t - 1 : t], ad.matmul(x, self.c_t, self.runs), self.r_ls)

    def proposal(self, t: int, x_prev=None):
        ls_t = ad.gather_rows(self.log_sigma, np.asarray([t - 1]))
        if t == 1 or x_prev is None:  # beta is unused in the state-independent form
            return GaussRows(ad.gather_rows(self.mu, np.asarray([t - 1])), ls_t)
        xa = transition_build_many(self, t, x_prev).means
        return GaussRows(lgssm_proposal_mean(self.mu, self.beta, xa, t), ls_t)


class _SvRun:
    """SV: proposals fuse the step's transition rows with a learned Gaussian factor (mu_t, log_sigma_t)."""

    def __init__(self, model: StochVol, params: dict, ys):
        self.ys, d = ys, model.dim
        self.mu = ad.constant(model.mu)
        self.q_ls = ad.reshape(ad.constant(model.log_q_std), (1, d))
        self.prior = GaussRows(ad.reshape(self.mu, (1, d)), self.q_ls)
        self.phi = ad.sigmoid(ad.constant(model.phi_logit))
        self.b = sv_b_matrix(model)
        log_det_b = (ad.constant(model.b_raw) * ad.constant(np.eye(d))).sum()
        self.log_norm = -0.5 * d * LOG_2PI - log_det_b
        self.p_mu, self.p_ls = ad.constant(params["mu"]), ad.constant(params["log_sigma"])

    def transition(self, t: int, x_prev=None):
        return self.prior if t == 1 else GaussRows(self.mu + self.phi * (ad.constant(x_prev) - self.mu), self.q_ls)

    def emission(self, t: int, x) -> Var:
        x = ad.constant(x)
        z = trisolve_rows(self.b, ad.constant(self.ys[t - 1]) * ad.exp(-0.5 * x), self.runs)
        return self.log_norm - 0.5 * x.sum(axis=1) - 0.5 * (z * z).sum(axis=1)

    def proposal(self, t: int, x_prev=None):
        _conditional("StochVol", t, x_prev)
        return _fuse_row(transition_build_many(self, t, x_prev), self.p_mu, self.p_ls, t)


class _DmmRun:
    """DMM: proposals fuse an x_prev network with an observation encoder, both two-head MLPs."""

    def __init__(self, model: Dmm, params: dict, ys):
        self.ys, self.theta, self.params = ys, model.params, params
        self.x0 = ad.constant(np.zeros((1, model.dx)))
        self.y_means, self.y_ls = mlp_two_head(params, "y", ys)

    def transition(self, t: int, x_prev=None):
        return GaussRows(*mlp_two_head(self.theta, "trans", self.x0 if t == 1 else ad.constant(x_prev), self.runs))

    def emission(self, t: int, x) -> Var:
        logits = mlp_single(self.theta, "emis_h", "emis_out", ad.constant(x), self.runs)
        return bernoulli_logpmf_rows(logits, self.ys[t - 1])

    def proposal(self, t: int, x_prev=None):
        _conditional("Dmm", t, x_prev)
        x_rows = mlp_two_head(self.params, "x", self.x0 if t == 1 else ad.constant(x_prev), self.runs)
        return _fuse_row(x_rows, self.y_means, self.y_ls, t)


class _HmmRun:
    """HMM: the model's own proposal tables (bootstrap; uniform when state-independent), or
    params' init_proposal, trans_proposal and indep_proposal: constants, with no gradient.

    A table given in params must hold probability rows, as the model's own do.
    """

    def __init__(self, model: DiscreteHmm, params, ys):
        params = params or {}
        if any(isinstance(v, Var) for v in params.values()):
            raise ValueError("the HMM's proposal tables are constants; they take no gradient")
        self.ys, self.model, k = ys, model, model.pi0.shape[0]

        def table(name, default, shape):
            return default if name not in params else _probability_rows(name, params[name], shape)

        self.prior = TableRows(model.pi0[None, :])
        self.init = TableRows(table("init_proposal", model.pi0, (k,))[None, :])
        self.indep = TableRows(table("indep_proposal", np.full(k, 1.0 / k), (k,))[None, :])
        self.trans = table("trans_proposal", model.trans, (k, k))

    def transition(self, t: int, x_prev=None):
        return self.prior if t == 1 else TableRows(self.model.trans[_state_index(x_prev)])

    def emission(self, t: int, x) -> Var:
        with np.errstate(divide="ignore"):
            return ad.constant(np.log(self.model.emis[_state_index(x), int(self.ys[t - 1, 0])]))

    def proposal(self, t: int, x_prev=None):
        if t == 1:
            return self.init
        return self.indep if x_prev is None else TableRows(self.trans[_state_index(x_prev)])


def transition_build_many(bound, t: int, x_prev=None):
    """Rows of f(. | x_prev_j) of a ``bind`` result, one per previous particle; the prior at t=1.

    The last rows are kept, keyed on t and the x_prev object, so a step's
    proposal (the LGSSM's means, SV's fused rows) and log f share them.
    The filters pass a step's particle rows; the coupling derivations pass
    a lane's (1, d) state row, the object its proposal drew.
    """
    last = bound.last_transition
    if last is None or last[0] != t or last[1] is not x_prev:
        last = bound.last_transition = (t, x_prev, bound.transition(t, x_prev))
    return last[2]


def emission_logpdf_rows(bound, t: int, x) -> Var:
    """log g(y_t | x_i) of a ``bind`` result for each particle row of x."""
    return bound.emission(t, x)


def proposal_build_many(bound, t: int, x_prev=None):
    """Proposal rows r_t(. | x_prev_j) of a ``bind`` result, one per previous particle.

    A single row at t=1; x_prev=None at t > 1 asks for the state-independent form.
    """
    return bound.proposal(t, x_prev)


def proposal_init(model, t_max: int, rng: RngStream | None = None) -> dict:
    """Default proposal parameters phi."""
    if isinstance(model, Lgssm):
        return {
            "mu": np.zeros((t_max, model.dx)),
            "beta": np.ones((t_max, model.dx)),
            "log_sigma": np.zeros((t_max, model.dx)),
        }
    if isinstance(model, StochVol):
        return {"mu": np.zeros((t_max, model.dim)), "log_sigma": np.zeros((t_max, model.dim))}
    if isinstance(model, Dmm):
        rng = rng if rng is not None else RngStream(0)
        params = {}
        params.update(_mlp_init(rng.split(2), [(model.dx, model.dh), (model.dh, model.dx), (model.dh, model.dx)],
                                ["x_h", "x_mu", "x_sig"]))
        params.update(_mlp_init(rng.split(3), [(model.dy, model.dh), (model.dh, model.dx), (model.dh, model.dx)],
                                ["y_h", "y_mu", "y_sig"]))
        return params
    raise TypeError(f"unsupported model: {type(model).__name__}")


# ---------------------------------------------------------------------------
# synthetic data


@dataclass
class Dataset:
    ys: np.ndarray


def generate(model, t_max: int, rng: RngStream) -> Dataset:
    """Ancestral sampling of y_{1:T}; deterministic in the stream."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    if isinstance(model, DiscreteHmm):
        symbols = np.zeros(t_max, dtype=np.intp)
        state = 0
        for t in range(t_max):
            u_state, u_sym = rng.split(t, 0).uniform(), rng.split(t, 1).uniform()
            probs = model.pi0 if t == 0 else model.trans[state]
            state = int(categorical_sample_many(probs, np.asarray([u_state]))[0])
            symbols[t] = categorical_sample_many(model.emis[state], np.asarray([u_sym]))[0]
        return Dataset(symbols[:, None].astype(np.float64))
    if isinstance(model, Lgssm):
        ys = np.zeros((t_max, model.dy))
        x = rng.split(0, 0).normals(model.dx)
        for t in range(t_max):
            if t > 0:
                x = model.a @ x + np.sqrt(model.q_diag) * rng.split(t, 0).normals(model.dx)
            ys[t] = model.c @ x + np.sqrt(model.r_diag) * rng.split(t, 1).normals(model.dy)
        return Dataset(ys)
    if isinstance(model, StochVol):
        d = model.dim
        mu = ad.constant(model.mu).data
        phi = 1.0 / (1.0 + np.exp(-ad.constant(model.phi_logit).data))
        q_std = np.exp(ad.constant(model.log_q_std).data)
        b = sv_b_matrix(model).data
        ys = np.zeros((t_max, d))
        x = mu + q_std * rng.split(0, 0).normals(d)
        for t in range(t_max):
            if t > 0:
                x = mu + phi * (x - mu) + q_std * rng.split(t, 0).normals(d)
            ys[t] = np.exp(x / 2.0) * (b @ rng.split(t, 1).normals(d))
        return Dataset(ys)
    if isinstance(model, Dmm):
        ys = np.zeros((t_max, model.dy))
        x = np.zeros((1, model.dx))
        for t in range(t_max):
            mean, log_std = mlp_two_head(model.params, "trans", x)
            x = mean.data + np.exp(log_std.data) * rng.split(t, 0).normals(model.dx)
            logits = mlp_single(model.params, "emis_h", "emis_out", x).data[0]
            probs = 1.0 / (1.0 + np.exp(-logits))
            ys[t] = (rng.split(t, 1).uniforms(model.dy) < probs).astype(np.float64)
        return Dataset(ys)
    raise TypeError(f"unsupported model: {type(model).__name__}")

