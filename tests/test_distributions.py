"""Distribution layer: log-densities, fusion, samplers, implicit gradients."""

import math

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.optimize import brentq
from scipy.special import erf as np_erf
from scipy.special import logsumexp
from scipy.stats import kstest

import particlevi.autodiff as ad
from particlevi import models as mo
from particlevi.distributions import (
    TailCounter,
    categorical_sample_many,
    gauss_product_fuse,
    mixture_implicit_rsample,
    mixture_implicit_rule,
)
from particlevi.rng import RngStream

HALF_LOG_2PI = 0.9189385332046727


def make_gauss(mean, log_std):
    return np.asarray(mean, dtype=float), np.asarray(log_std, dtype=float)


def gauss_logpdf_np(x, mean, log_std):
    """Numpy oracle: diagonal Gaussian log-density, summed over the last axis."""
    log_std = np.asarray(log_std, dtype=float)
    z = (np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)) * np.exp(-log_std)
    return np.sum(-HALF_LOG_2PI - log_std - 0.5 * z * z, axis=-1)


def mixture_logpdf_np(x, logw, means, log_stds):
    """Numpy oracle: mixture log-density at each row of x (n, d); logw unnormalized."""
    logw = np.asarray(logw, dtype=float)
    comp = gauss_logpdf_np(np.asarray(x, dtype=float)[:, None, :], means, log_stds)
    return logsumexp(logw - logsumexp(logw) + comp, axis=1)


def row_logpdf(x, mean, log_std):
    """Log-density of one state through the row kernel, on one-row arrays."""
    row = lambda v: ad.reshape(ad.constant(v), (1, -1))
    return mo.gauss_logpdf_rows(row(x), row(mean), row(log_std)).sum()


def mixture_logpdf_kernel(x, logw, means, log_stds):
    """Mixture log-density at each row of x through the mixture kernel that
    run_mpf calls, on the tape; logw unnormalized."""
    logw = ad.constant(logw)
    return mo.gauss_mixture_logpdf(x, logw - ad.logsumexp(logw), means, log_stds)


def make_mixture(logw, means, log_stds):
    """(log-weights, means, log-stds) leaves of one mixture; logw is normalized here."""
    logw = np.asarray(logw, dtype=float)
    logw = logw - np.logaddexp.reduce(logw)
    return ad.leaf(logw), ad.leaf(np.asarray(means, float)), ad.leaf(np.asarray(log_stds, float))


def implicit_draws(mix, us, eps, tail_counter=None):
    """Mixture draws as run_mpf forms them, with the implicit node attached.

    Draw n picks its component by inverse CDF with uniform us[n] and takes
    the reparameterized Gaussian draw with noise eps[n] within it.
    """
    log_w, means, log_stds = mix
    j = categorical_sample_many(np.exp(log_w.data), np.asarray(us))
    x = mo.gauss_rsample(means.data, log_stds.data, np.asarray(eps, dtype=float), rows=j).data
    return mixture_implicit_rsample(log_w, means, log_stds, x, tail_counter)


class TestDiagGaussian:
    """One diagonal Gaussian state through the row kernel the filters use."""

    def test_standard_normal_at_origin(self):
        with ad.Tape():
            lp = row_logpdf(np.zeros(1), [0.0], [0.0])
            assert abs(float(lp.data) + HALF_LOG_2PI) < 1e-12

    def test_at_mean_only_normalizer_remains(self):
        with ad.Tape():
            lp = row_logpdf(np.asarray([2.5]), [2.5], [0.7])
            assert abs(float(lp.data) - (-HALF_LOG_2PI - 0.7)) < 1e-12

    def test_independence_sum(self):
        with ad.Tape():
            lp = row_logpdf(np.zeros(2), [0.0, 0.0], [0.0, 0.0])
            assert abs(float(lp.data) + 2 * HALF_LOG_2PI) < 1e-12

    def test_logpdf_finite_difference(self):
        x_obs = np.asarray([0.4, -1.1, 0.0])

        def f(mu, ls):
            return row_logpdf(x_obs, mu, ls)

        err = ad.finite_diff_check(f, [np.asarray([0.1, 0.2, -0.4]), np.asarray([0.3, -0.2, 0.1])])
        assert err < 1e-5


def product_log_norm_np(ma, la, mb, lb):
    """Numpy oracle: log-normalizer sum_i log N(ma_i; mb_i, va_i + vb_i) of the
    product of two diagonal Gaussians, so that pointwise
    logpdf_a(x) + logpdf_b(x) = log-normalizer + logpdf_fused(x)."""
    vsum = np.exp(2.0 * np.asarray(la, float)) + np.exp(2.0 * np.asarray(lb, float))
    return gauss_logpdf_np(ma, mb, 0.5 * np.log(vsum))


class TestGaussProductFuse:
    def test_symmetric_pair(self):
        with ad.Tape():
            mean, log_std = gauss_product_fuse(*make_gauss([0.0], [0.0]), *make_gauss([0.0], [0.0]))
        assert abs(float(mean.data[0])) < 1e-14
        assert abs(float(np.exp(2 * log_std.data[0])) - 0.5) < 1e-14

    def test_offset_pair_closed_form(self):
        with ad.Tape():
            mean, log_std = gauss_product_fuse(*make_gauss([0.0], [0.0]), *make_gauss([2.0], [0.0]))
        assert abs(float(mean.data[0]) - 1.0) < 1e-14
        assert abs(float(np.exp(2 * log_std.data[0])) - 0.5) < 1e-14
        # log N(0; 2, var=2)
        expected = -0.5 * math.log(2 * math.pi * 2.0) - 4.0 / (2 * 2.0)
        assert abs(product_log_norm_np([0.0], [0.0], [2.0], [0.0]) - expected) < 1e-12
        assert abs(expected + 2.2655121234846454) < 1e-12

    def test_near_flat_prior_is_identity(self):
        with ad.Tape():
            g = make_gauss([1.3, -0.2], [0.4, 0.1])
            flat = make_gauss([0.0, 0.0], [0.5 * math.log(1e12)] * 2)
            mean, log_std = gauss_product_fuse(*g, *flat)
        assert np.allclose(mean.data, g[0], atol=1e-9)
        assert np.allclose(log_std.data, g[1], atol=1e-9)

    def test_pointwise_product_identity(self):
        """logpdf_a(x) + logpdf_b(x) = log_norm + logpdf_fused(x) at random x."""
        rng = RngStream(123)
        for _ in range(5):
            a = make_gauss(rng.normals(3), rng.normals(3) * 0.3)
            b = make_gauss(rng.normals(3), rng.normals(3) * 0.3)
            x = rng.normals(3) * 2.0
            with ad.Tape():
                mean, log_std = gauss_product_fuse(*a, *b)
            lhs = gauss_logpdf_np(x, *a) + gauss_logpdf_np(x, *b)
            log_norm = product_log_norm_np(*a, *b)
            rhs = log_norm + gauss_logpdf_np(x, mean.data, log_std.data)
            assert abs(lhs - rhs) < 1e-10

    def test_fuse_finite_difference(self):
        x_obs = np.asarray([0.3, -0.7])

        def f(ma, la, mb, lb):
            return row_logpdf(x_obs, *gauss_product_fuse(ma, la, mb, lb))

        point = [np.asarray([0.1, 0.5]), np.asarray([-0.2, 0.3]),
                 np.asarray([0.9, -0.1]), np.asarray([0.2, 0.0])]
        assert ad.finite_diff_check(f, point) < 1e-5

    @pytest.mark.parametrize("output", ["mean", "log_std"])
    @pytest.mark.parametrize("shared", ["a", "b"])
    def test_node_finite_difference_with_broadcast_factor(self, output, shared):
        """Each product node against central differences, with one factor a
        (1, d) row paired with every row of an (N, d) one (the SV and DMM
        proposals); a non-uniform cotangent reaches every entry of the rule."""
        rng = RngStream(130)
        weights = ad.constant(rng.split(0).normals(8).reshape(4, 2))
        rows = {"a": 4, "b": 4}
        rows[shared] = 1

        def f(ma, la, mb, lb):
            fused = dict(zip(("mean", "log_std"), gauss_product_fuse(ma, la, mb, lb)))
            return (fused[output] * weights).sum()

        point = [
            rng.split(1).normals(2 * rows["a"]).reshape(rows["a"], 2),
            rng.split(2).normals(2 * rows["a"]).reshape(rows["a"], 2) * 0.3,
            rng.split(3).normals(2 * rows["b"]).reshape(rows["b"], 2),
            rng.split(4).normals(2 * rows["b"]).reshape(rows["b"], 2) * 0.3,
        ]
        assert ad.finite_diff_check(f, point) < 1e-5

    def test_one_node_per_output(self):
        with ad.Tape() as tape:
            parts = [ad.leaf(RngStream(140 + k).normals(6).reshape(3, 2)) for k in range(4)]
            before = len(tape.nodes)
            mean, log_std = gauss_product_fuse(*parts)
            assert len(tape.nodes) == before + 2
        assert mean.data.shape == log_std.data.shape == (3, 2)


def sample_one(probs, u):
    return int(categorical_sample_many(np.asarray(probs), np.asarray([u]))[0])


def padded(rows):
    """Ragged probability rows as one (M, K) table, zero-padded on the right."""
    table = np.zeros((len(rows), max(map(len, rows), default=0)))
    for k, p in enumerate(rows):
        table[k, : len(p)] = p
    return table


class TestCategorical:
    def test_single_atom(self):
        assert sample_one([1.0], 0.999) == 0

    def test_quarter_split(self):
        assert sample_one([0.25, 0.75], 0.5) == 1

    def test_tie_break_convention(self):
        """u exactly on a cumulative boundary selects the next atom."""
        assert sample_one([0.5, 0.5], 0.5) == 1

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            categorical_sample_many(np.zeros(3), np.asarray([0.5]))

    def test_vectorized_matches_scalar(self):
        probs = np.asarray([0.2, 0.0, 0.5, 0.3])
        us = RngStream(9).uniforms(200)
        many = categorical_sample_many(probs, us)
        for k in range(200):
            assert many[k] == sample_one(probs, us[k])
        assert not np.any(many == 1)  # zero-weight atom never selected

    def test_row_table_matches_the_per_row_sampler(self):
        """An (M, K) table picks in row m what row m's own vector picks with us[m].

        Ragged rows with zero-weight atoms at the front, inside and at the
        end, one summing to 1 - 1e-11, against random uniforms plus 0, the
        top uniform and values on the cumulative sums.
        """
        rows = [
            [0.0, 0.5, 0.0, 0.5], [0.2, 0.8], [0.0, 0.0, 1.0], [1.0],
            [0.3, 0.3, 0.4 - 1e-11, 0.0, 0.0], [0.25] * 4, [0.5, 0.0, 0.5, 0.0],
        ]
        edges = [0.0, 1.0 - 2.0**-53, 0.5, 0.2, 0.3, 0.6, 0.25, 0.75]
        table = padded(rows)
        uniforms = [RngStream(s).uniforms(len(rows)) for s in range(200)]
        uniforms += [np.full(len(rows), u) for u in edges]
        for us in uniforms:
            got = categorical_sample_many(table, us)
            assert got.tolist() == [sample_one(p, u) for p, u in zip(rows, us)]
        # past the short row's total: its last live atom, not the padding
        assert categorical_sample_many(table, np.full(len(rows), 1.0 - 2.0**-53)).tolist() == [3, 1, 2, 0, 2, 3, 2]

    def test_row_table_edges(self):
        """An empty (0, 0) table picks nothing (IPF's swaps at N=1); a zero row raises."""
        assert categorical_sample_many(np.zeros((0, 0)), np.zeros(0)).tolist() == []
        with pytest.raises(ValueError, match="degeneracy"):
            categorical_sample_many(padded([[0.5, 0.5], [0.0, 0.0]]), np.zeros(2))

    def test_empirical_frequencies(self):
        probs = np.asarray([0.1, 0.6, 0.3])
        idx = categorical_sample_many(probs, RngStream(10).uniforms(100_000))
        freq = np.bincount(idx, minlength=3) / idx.size
        assert np.allclose(freq, probs, atol=0.01)


class TestMixtureLogpdf:
    """The mixture kernel that run_mpf calls, against closed forms and the numpy oracle."""

    def test_single_component_matches_gaussian(self):
        x = np.asarray([[0.3, -0.4]])
        a = mixture_logpdf_kernel(x, [0.0], [[0.1, 0.2]], [[0.0, -0.3]]).data[0]
        b = gauss_logpdf_np(x[0], [0.1, 0.2], [0.0, -0.3])
        assert abs(a - b) < 1e-12

    def test_identical_components_collapse(self):
        x = np.asarray([[1.1]])
        a = mixture_logpdf_kernel(x, [0.8, -0.4], [[0.5], [0.5]], [[0.2], [0.2]]).data[0]
        b = gauss_logpdf_np(x[0], [0.5], [0.2])
        assert abs(a - b) < 1e-12

    def test_two_component_closed_form(self):
        lp = mixture_logpdf_kernel(np.asarray([[1.0]]), [math.log(0.5)] * 2, [[0.0], [2.0]], [[0.0], [0.0]])
        v = lp.data[0]
        assert abs(v - (-HALF_LOG_2PI - 0.5)) < 1e-9

    def test_integrates_to_one_on_grid(self):
        grid = np.linspace(-12.0, 14.0, 20_001)
        args = ([0.3, -0.2], [[0.0], [2.5]], [[0.0], [0.4]])
        log_dens = mixture_logpdf_np(grid[:, None], *args)
        integral = np.trapezoid(np.exp(log_dens), grid)
        assert 0.999 < integral < 1.001
        assert np.max(np.abs(mixture_logpdf_kernel(grid[:, None], *args).data - log_dens)) < 1e-10

    def test_logpdf_finite_difference(self):
        x = np.asarray([[0.4, -0.6]])

        def f(lw, mu, ls):
            return mixture_logpdf_kernel(x, lw, mu, ls).sum()

        point = [np.asarray([0.2, -0.1]),
                 np.asarray([[0.0, 1.0], [1.0, -1.0]]),
                 np.asarray([[0.1, -0.2], [-0.3, 0.2]])]
        assert ad.finite_diff_check(f, point) < 1e-5


def mixture_cdf_1d(x, m):
    """Plain-number mixture CDF for d = 1, at every entry of x."""
    log_w, means, log_stds = (v.data for v in m)
    w = np.exp(log_w)
    z = (np.asarray(x)[..., None] - means[:, 0]) / np.exp(log_stds[:, 0])
    return np.sum(w * 0.5 * (1.0 + np_erf(z / math.sqrt(2.0))), axis=-1)


def per_draw_rule(x, logw, means, logstds, g):
    """Oracle: implicit cotangents of one draw x (d,), by a dense triangular solve.

    Returns (grad_logw, grad_mu, grad_logstd, is_tail); a tail draw gets zeros.
    """
    k, d = means.shape
    sig = np.exp(logstds)
    z = (x[None, :] - means) / sig
    logphi = -0.5 * math.log(2 * math.pi) - logstds - 0.5 * z * z
    pdf = np.exp(logphi)
    big_phi = 0.5 * (1.0 + np_erf(z / math.sqrt(2.0)))
    prefix = np.zeros((k, d))
    if d > 1:
        prefix[:, 1:] = np.cumsum(logphi, axis=1)[:, : d - 1]
    lmat = logw[:, None] + prefix
    lmat = lmat - lmat.max(axis=0, keepdims=True)
    w_post = np.exp(lmat)
    w_post /= w_post.sum(axis=0, keepdims=True)
    f_vals = (w_post * big_phi).sum(axis=0)
    cond_pdf = (w_post * pdf).sum(axis=0)
    if np.min(cond_pdf) < 1e-300 or not np.all(np.isfinite(cond_pdf)):
        return np.zeros(k), np.zeros((k, d)), np.zeros((k, d)), True
    s = -z / sig
    g_mat = w_post * (big_phi - f_vals[None, :])
    jac = np.tril(g_mat.T @ s, -1)
    np.fill_diagonal(jac, cond_pdf)
    lam = solve_triangular(jac.T, g, lower=False)
    lam_g = lam[None, :] * g_mat
    tail = np.flip(np.cumsum(np.flip(lam_g, axis=1), axis=1), axis=1) - lam_g
    grad_logw = -lam_g.sum(axis=1)
    grad_mu = lam[None, :] * w_post * pdf - tail * z / sig
    grad_logstd = lam[None, :] * w_post * z * pdf * sig - tail * (z * z - 1.0)
    return grad_logw, grad_mu, grad_logstd, False


def conditional_cdf(e, xe, xprefix, logw, means, log_stds):
    """Oracle F_e(x_e | x_{1:e-1}) evaluated with plain numerics."""
    sig = np.exp(log_stds)
    lp = logw.copy()
    for ep in range(e):
        z = (xprefix[ep] - means[:, ep]) / sig[:, ep]
        lp = lp + (-0.5 * math.log(2 * math.pi) - log_stds[:, ep] - 0.5 * z * z)
    lp = lp - lp.max()
    w = np.exp(lp)
    w /= w.sum()
    z = (xe - means[:, e]) / sig[:, e]
    return float(np.sum(w * 0.5 * (1.0 + np_erf(z / math.sqrt(2.0)))))


def invert_transform(u, logw, means, log_stds):
    d = means.shape[1]
    x = np.zeros(d)
    for e in range(d):
        x[e] = brentq(
            lambda t: conditional_cdf(e, t, x, logw, means, log_stds) - u[e],
            -60.0, 60.0, xtol=1e-14,
        )
    return x


def rsample_stream(m, rng, tail_counter=None):
    """One draw (1, d), reading u and then d normals from rng in turn."""
    u = rng.uniform()
    eps = rng.normals(m[1].data.shape[1])
    return implicit_draws(m, [u], eps[None, :], tail_counter)


class TestImplicitRsample:
    def test_single_component_reduces_to_pathwise(self):
        with ad.Tape():
            m = make_mixture([0.0], [[0.3, -0.5]], [[0.1, 0.4]])
            x = rsample_stream(m, RngStream(3))
            glw, gmu, gls = ad.grad(x.sum(), list(m))
        assert np.allclose(gmu, [[1.0, 1.0]], atol=1e-12)
        assert np.allclose(gls, x.data - m[1].data, atol=1e-10)
        assert np.allclose(glw, 0.0, atol=1e-12)

    def test_identical_components_weight_grad_zero(self):
        with ad.Tape():
            m = make_mixture([0.4, 0.4], [[0.2], [0.2]], [[-0.1], [-0.1]])
            x = rsample_stream(m, RngStream(4))
            (glw,) = ad.grad(x.sum(), [m[0]])
        assert np.allclose(glw, 0.0, atol=1e-10)

    def test_full_jacobian_matches_numeric_inversion(self):
        """d=2, two distinct components: all parameter Jacobians vs brentq inversion."""
        logw_raw = np.asarray([0.3, -0.4])
        means = np.asarray([[0.0, 1.0], [1.5, -0.5]])
        log_stds = np.asarray([[0.1, -0.2], [-0.3, 0.25]])
        logw = logw_raw - np.logaddexp.reduce(logw_raw)
        k, d = means.shape

        with ad.Tape():
            m = (ad.leaf(logw), ad.leaf(means), ad.leaf(log_stds))
            x = ad.reshape(rsample_stream(m, RngStream(7)), (d,))
            jac_lw = np.zeros((d, k))
            jac_mu = np.zeros((d, k, d))
            jac_ls = np.zeros((d, k, d))
            for e in range(d):
                sel = ad.gather_rows(x, np.asarray([e])).sum()
                glw, gmu, gls = ad.grad(sel, list(m))
                jac_lw[e], jac_mu[e], jac_ls[e] = glw, gmu, gls

        u = np.asarray([
            conditional_cdf(0, x.data[0], x.data, logw, means, log_stds),
            conditional_cdf(1, x.data[1], x.data, logw, means, log_stds),
        ])
        delta = 1e-6
        worst = 0.0
        for j in range(k):
            for e in range(d):
                for arr, jac in ((means, jac_mu), (log_stds, jac_ls)):
                    plus, minus = arr.copy(), arr.copy()
                    plus[j, e] += delta
                    minus[j, e] -= delta
                    args_p = (logw, plus, log_stds) if arr is means else (logw, means, plus)
                    args_m = (logw, minus, log_stds) if arr is means else (logw, means, minus)
                    num = (invert_transform(u, *args_p) - invert_transform(u, *args_m)) / (2 * delta)
                    worst = max(worst, float(np.max(np.abs(jac[:, j, e] - num) / np.maximum(1, np.abs(num)))))
        # raw log-weight route, chained through the normalization
        sm = np.exp(logw)
        for j in range(k):
            plus, minus = logw_raw.copy(), logw_raw.copy()
            plus[j] += delta
            minus[j] -= delta
            num = (
                invert_transform(u, plus - np.logaddexp.reduce(plus), means, log_stds)
                - invert_transform(u, minus - np.logaddexp.reduce(minus), means, log_stds)
            ) / (2 * delta)
            auto = jac_lw @ (np.eye(k)[:, j] - sm[j])
            worst = max(worst, float(np.max(np.abs(auto - num) / np.maximum(1, np.abs(num)))))
        assert worst < 1e-4

    def test_forward_marginal_matches_logpdf(self):
        """KS test on 1e5 one-dimensional draws against the mixture CDF.

        Draw k reads the uniform at offset 2k and the normal at 2k + 1, the
        order in which a stream hands out one draw at a time.
        """
        n = 100_000
        rng = RngStream(2026)
        us = rng.uniforms_at(np.arange(0, 2 * n, 2))
        eps = rng.normals_at(np.arange(1, 2 * n, 2))[:, None]
        with ad.Tape():
            m = make_mixture([0.5, -0.5], [[0.0], [3.0]], [[0.0], [0.5]])
            draws = implicit_draws(m, us, eps).data[:, 0]
        stat = kstest(draws, lambda t: mixture_cdf_1d(np.atleast_1d(t), m))
        assert stat.pvalue > 0.001

    def test_conditional_cdf_monotone(self):
        logw = np.asarray([0.3, -0.4])
        logw = logw - np.logaddexp.reduce(logw)
        means = np.asarray([[0.0, 1.0], [1.5, -0.5]])
        log_stds = np.asarray([[0.1, -0.2], [-0.3, 0.25]])
        prefix = np.asarray([0.7, 0.0])
        grid = np.linspace(-6.0, 6.0, 200)
        for e in range(2):
            vals = [conditional_cdf(e, t, prefix, logw, means, log_stds) for t in grid]
            assert np.all(np.diff(vals) > 0)

    def test_tail_sample_zeroed_and_counted(self):
        """A conditional pdf underflow zeroes the gradients and bumps the counter."""
        counter = TailCounter()
        with ad.Tape():
            m = make_mixture([0.0], [[0.0]], [[0.0]])
            x = implicit_draws(m, [0.5], [[40.0]], tail_counter=counter)
            glw, gmu, gls = ad.grad(x.sum(), list(m))
        assert counter.count == 1
        assert np.all(gmu == 0.0) and np.all(gls == 0.0) and np.all(glw == 0.0)

    def test_pinned_noise_reproduces_forward(self):
        """One call drawing N equals N calls drawing one, noise for noise."""
        us = RngStream(5).uniforms(6)
        eps = RngStream(6).normals(12).reshape(6, 2)
        with ad.Tape():
            m = make_mixture([0.1, -0.1, 0.3], [[0.0, 1.0], [2.0, -1.0], [-1.0, 0.5]],
                             [[0.0, 0.1], [0.2, -0.3], [0.1, 0.0]])
            many = implicit_draws(m, us, eps)
            ones = [implicit_draws(m, us[i : i + 1], eps[i : i + 1]) for i in range(6)]
        np.testing.assert_array_equal(many.data, np.concatenate([o.data for o in ones]))

    @pytest.mark.parametrize("d", [1, 5])
    def test_shared_log_std_row_matches_tiled(self, d):
        """A (1, d) log-std that every component shares draws the states of
        its tiled (K, d) copy, bit for bit, and its cotangent is the tiled
        one summed over the components."""
        rng = np.random.default_rng(40 + d)
        logw, means = rng.normal(size=3), rng.normal(size=(3, d))
        shared = 0.3 * rng.normal(size=(1, d))
        us, eps, g = rng.uniform(size=6), rng.normal(size=(6, d)), rng.normal(size=(6, d))
        runs = []
        for log_stds in (shared, np.tile(shared, (3, 1))):
            with ad.Tape():
                m = make_mixture(logw, means, log_stds)
                x = implicit_draws(m, us, eps)
                grads = ad.grad((x * ad.constant(g)).sum(), list(m))
            runs.append((x.data, grads))
        (x_shared, g_shared), (x_tiled, g_tiled) = runs
        np.testing.assert_array_equal(x_shared, x_tiled)
        g_tiled[2] = g_tiled[2].sum(axis=0, keepdims=True)
        for a, b in zip(g_shared, g_tiled):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-13 * max(float(np.max(np.abs(b))), 1.0)

    def test_node_keeps_the_draws_it_is_given(self):
        """The node draws nothing: its value is the x it is handed, on one tape node."""
        x = RngStream(8).normals(6).reshape(3, 2)
        with ad.Tape() as tape:
            m = make_mixture([0.2, -0.3], [[0.0, 1.0], [1.0, -1.0]], [[0.1, 0.0]])
            before = len(tape.nodes)
            out = mixture_implicit_rsample(*m, x)
            assert len(tape.nodes) == before + 1
        np.testing.assert_array_equal(out.data, x)

    def test_log_std_rows_must_match_components_or_be_shared(self):
        """The node checks its mixture: normalized weights, one weight per
        component, one log-std row per component or one shared row."""
        x = np.zeros((1, 2))
        log_w = np.log(np.full(3, 1.0 / 3.0))
        for log_stds in (np.zeros((2, 2)), np.zeros((1, 3))):
            with pytest.raises(ValueError, match="one row per component or one shared row"):
                mixture_implicit_rsample(log_w, np.zeros((3, 2)), log_stds, x)
        with pytest.raises(ValueError, match="not normalized"):
            mixture_implicit_rsample([0.1, 0.2, 0.3], np.zeros((3, 2)), np.zeros((3, 2)), x)
        with pytest.raises(ValueError, match="component count mismatch"):
            mixture_implicit_rsample(log_w, np.zeros((2, 2)), np.zeros((1, 2)), x)


def oracle_sums(x, logw, means, log_stds, g):
    """The per-draw oracle summed over the draws of x (N, d), with the
    log-std cotangent summed to the shape of log_stds; also the tail count."""
    k, d = means.shape
    want = [np.zeros(k), np.zeros((k, d)), np.zeros((k, d))]
    tails = 0
    for xi, gi in zip(x, g):
        *parts, is_tail = per_draw_rule(xi, logw, means, log_stds, gi)
        tails += is_tail
        for acc, part in zip(want, parts):
            acc += part
    if log_stds.shape[0] == 1:
        want[2] = want[2].sum(axis=0, keepdims=True)
    return want, tails


def assert_close_to(got, want, bound=1e-12):
    for a, b in zip(got, want):
        assert a.shape == b.shape
        scale = max(float(np.max(np.abs(b))), 1.0)
        assert np.max(np.abs(a - b)) / scale <= bound


class TestImplicitRule:
    @pytest.mark.parametrize(
        "d, shared",
        [(1, False), (2, False), (5, False), (10, False), (5, True), (10, True)],
        ids=["1", "2", "5", "10", "5-shared", "10-shared"],
    )
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_per_draw_oracle(self, d, shared, k, n):
        """Two mixtures, N draws each, the last draw of mixture 1 in the tail.

        The log-stds are one row per component or, shared, one (1, d) row.
        """
        rng = np.random.default_rng(100 * d + 10 * k + n + 1000 * shared)
        logw = rng.normal(size=(2, k))
        logw -= np.logaddexp.reduce(logw, axis=1, keepdims=True)
        means = rng.normal(size=(2, k, d))
        log_stds = 0.3 * rng.normal(size=(2, 1 if shared else k, d))
        x = np.empty((2, n, d))
        for r in range(2):
            j = categorical_sample_many(np.exp(logw[r]), rng.uniform(size=n))
            x[r] = means[r, j] + np.exp(log_stds[r, 0 if shared else j]) * rng.normal(size=(n, d))
        x[1, -1, 0] = 1e3
        g = rng.normal(size=(2, n, d))

        for r in range(2):
            counter = TailCounter()
            got = mixture_implicit_rule(x[r], logw[r], means[r], log_stds[r], counter)(g[r])
            want, tails = oracle_sums(x[r], logw[r], means[r], log_stds[r], g[r])
            assert tails == r and counter.count == r
            assert_close_to(got, want)

    def test_non_finite_tail_draws_are_zeroed_and_counted(self):
        """Tail draws with an inf, NaN, overflowing (z * z = inf) or far
        coordinate raise nothing, count one each and give zero cotangents;
        the other draws still match the oracle."""
        rng = np.random.default_rng(7)
        k, d, n = 3, 5, 8
        logw = rng.normal(size=k)
        logw -= np.logaddexp.reduce(logw)
        means = rng.normal(size=(k, d))
        log_stds = 0.3 * rng.normal(size=(k, d))
        j = categorical_sample_many(np.exp(logw), rng.uniform(size=n))
        x = means[j] + np.exp(log_stds[j]) * rng.normal(size=(n, d))
        for row, (e, value) in enumerate([(0, np.inf), (2, np.nan), (4, 1e200), (1, 1e3)]):
            x[row, e] = value
        g = rng.normal(size=(n, d))
        tail_only = g.copy()
        tail_only[4:] = 0.0

        counter = TailCounter()
        with np.errstate(over="ignore", invalid="ignore"):
            rule = mixture_implicit_rule(x, logw, means, log_stds, counter)
            got = rule(g)
            assert counter.count == 4
            for part in rule(tail_only):
                assert np.all(part == 0.0)
            assert counter.count == 8
            want, tails = oracle_sums(x, logw, means, log_stds, g)
        assert tails == 4
        assert_close_to(got, want)

    @pytest.mark.parametrize("log_std", [-360.0, -400.0])
    def test_vanishing_component_gives_finite_cotangents(self, log_std):
        """A component so narrow that z / sigma overflows has density 0 at the
        draw's coordinate and posterior weight 0 after it.  Its inf * 0 terms
        are zeros, so the cotangents are finite, equal those at -300 and count
        no tail draw."""
        logw = np.log([0.5, 0.5])
        means = np.array([[0.0, 0.0], [1.0, -1.0]])
        x = np.array([[0.3, -0.7]])
        g = np.array([[0.4, -1.3]])

        def rule_at(ls):
            counter = TailCounter()
            with np.errstate(over="ignore"):
                out = mixture_implicit_rule(x, logw, means, np.array([[0.0, 0.0], [ls, ls]]), counter)(g)
            return out, counter.count

        got, tails = rule_at(log_std)
        want, want_tails = rule_at(-300.0)
        assert tails == want_tails == 0
        for a, b in zip(got, want):
            assert np.isfinite(b).all()
            np.testing.assert_array_equal(a, b)


def dmm_emission(dmm, y):
    """x -> log g(y | x) per row: the DMM emission of a run bound to the one observation y."""
    bound = mo.bind(dmm, mo.proposal_init(dmm, 1, RngStream(0)), np.asarray(y, dtype=float)[None, :])
    return lambda x: mo.emission_logpdf_rows(bound, 1, x)


def dmm_emission_at(dmm, x, y):
    with ad.Tape():
        return float(dmm_emission(dmm, y)(x).data[0])


class TestBernoulli:
    """The Bernoulli log-pmf kernel `models.bernoulli_logpmf_rows`, checked
    through the DMM emission `models.emission_logpdf_rows` that calls it."""

    def test_logit_zero(self):
        dmm = mo.dmm_make(2, 3, 4, RngStream(5))
        dmm.params["emis_out_w"][:] = 0.0
        x = RngStream(6).normals(2)[None, :]
        for y in ([1.0, 0.0, 1.0], [0.0, 0.0, 0.0]):
            assert abs(dmm_emission_at(dmm, x, np.asarray(y)) + 3 * math.log(2.0)) < 1e-12

    def test_large_logit_stable(self):
        """Logits (40, -40, 40): the likely symbols cost ~e^-40 each, the
        unlikely ones 40 each, with no log(0) from a rounded sigmoid."""
        dmm = mo.dmm_make(2, 3, 4, RngStream(5))
        x = RngStream(6).normals(2)[None, :]
        with ad.Tape():
            logits = mo.mlp_single(dmm.params, "emis_h", "emis_out", ad.constant(x)).data[0]
        dmm.params["emis_out_w"] *= np.asarray([40.0, -40.0, 40.0]) / logits
        with ad.Tape():
            scaled = mo.mlp_single(dmm.params, "emis_h", "emis_out", ad.constant(x)).data[0]
        assert np.allclose(scaled, [40.0, -40.0, 40.0], atol=1e-9)
        assert abs(dmm_emission_at(dmm, x, np.asarray([1.0, 0.0, 1.0]))) < 1e-12
        assert abs(dmm_emission_at(dmm, x, np.asarray([0.0, 1.0, 0.0])) + 120.0) < 1e-6

    def test_finite_difference(self):
        dmm = mo.dmm_make(3, 4, 8, RngStream(11))
        y = np.asarray([1.0, 0.0, 1.0, 1.0])
        err = ad.finite_diff_check(
            lambda x: dmm_emission(dmm, y)(x).sum(),
            [RngStream(12).normals(6).reshape(2, 3)],
        )
        assert err < 1e-5
