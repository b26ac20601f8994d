"""Model families against exact oracles: Kalman, forward algorithm, closed forms."""

import math
import re
import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import particlevi.autodiff as ad
from particlevi import filters as fl
from particlevi import models as mo
from particlevi.rng import RngStream


def gauss_logpdf_np(x, mean, log_std):
    """Numpy oracle: diagonal Gaussian log-density, summed over the last axis."""
    log_std = np.asarray(log_std, dtype=float)
    z = (np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)) * np.exp(-log_std)
    return np.sum(-0.5 * math.log(2 * math.pi) - log_std - 0.5 * z * z, axis=-1)


KERNELS = {
    "rows": mo.gauss_logpdf_rows,
    "matrix": mo.gauss_logpdf_matrix,
    "mixture": mo.gauss_mixture_logpdf,
}


def bound_at(model, t, y_t, params=None):
    """``mo.bind`` on t observations, y_t the last; default proposal parameters."""
    params = mo.proposal_init(model, t, RngStream(0)) if params is None else params
    return mo.bind(model, params, np.tile(np.asarray(y_t, dtype=float), (t, 1)))


def log_fg(model, t, x_t, x_prev, y_t):
    """(log f, log g) at one state: the filters' builders and kernels on one-row arrays."""
    x = np.asarray(x_t, dtype=float)[None, :]
    xp = None if x_prev is None else np.asarray(x_prev, dtype=float)[None, :]
    bound = bound_at(model, t, y_t)
    f_means, f_ls = mo.transition_build_many(bound, t, xp)
    log_f = mo.gauss_logpdf_rows(x, f_means, f_ls).data[0]
    log_g = mo.emission_logpdf_rows(bound, t, x).data[0]
    return float(log_f), float(log_g)


def proposal_row(model, params, t, x_prev, y_t=None):
    """Mean and log-std (d,) of r_t(. | x_prev) for one previous state."""
    xp = None if x_prev is None else np.asarray(x_prev, dtype=float)[None, :]
    y_t = np.zeros(model.dy) if y_t is None else y_t
    means, log_stds = mo.proposal_build_many(bound_at(model, t, y_t, params), t, xp)
    return means.data[0], log_stds.data[0]


class TestLgssmMake:
    def test_transition_matrix_formula(self):
        m = mo.lgssm_make(2, 2, 0.5, "sparse", RngStream(0))
        assert np.allclose(m.a, [[0.5, 0.25], [0.25, 0.5]])

    def test_sparse_c_is_diagonal_embedding(self):
        m = mo.lgssm_make(3, 2, 0.42, "sparse", RngStream(0))
        assert np.array_equal(m.c, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_alpha_zero_annihilates(self):
        m = mo.lgssm_make(3, 3, 0.0, "sparse", RngStream(0))
        assert np.all(m.a == 0.0)

    def test_dense_c_is_seeded(self):
        a = mo.lgssm_make(2, 4, 0.42, "dense", RngStream(7)).c
        b = mo.lgssm_make(2, 4, 0.42, "dense", RngStream(7)).c
        assert np.array_equal(a, b)
        assert a.shape == (4, 2)

    def test_sparse_needs_dy_at_most_dx(self):
        with pytest.raises(ValueError):
            mo.lgssm_make(2, 3, 0.42, "sparse", RngStream(0))

    def test_noise_variances_must_be_positive(self):
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        for q, r in ((np.asarray([1.0, 0.0]), m.r_diag), (m.q_diag, np.asarray([1.0, -1.0]))):
            with pytest.raises(ValueError, match="noise variances must be positive"):
                mo.Lgssm(m.a, m.c, q, r)


class TestKalman:
    def test_t1_closed_form(self):
        """T=1, C=1, R=1, prior N(0,1): y ~ N(0,2)."""
        m = mo.Lgssm(np.asarray([[0.7]]), np.asarray([[1.0]]), np.ones(1), np.ones(1))
        ll = mo.kalman_loglik(m, np.zeros((1, 1)))
        assert abs(ll - (-0.5 * math.log(4 * math.pi))) < 1e-12

    def test_a_zero_independence(self):
        m = mo.lgssm_make(1, 1, 0.0, "sparse", RngStream(0))
        ys = np.asarray([[0.3], [-0.8]])
        expected = sum(-0.5 * math.log(4 * math.pi) - y * y / 4.0 for y in (0.3, -0.8))
        assert abs(mo.kalman_loglik(m, ys) - expected) < 1e-12

    def test_matches_grid_integration(self):
        """d=1, T=2 brute-force trapezoid integral of the joint density."""
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        y1, y2 = 0.4, -0.9
        grid = np.linspace(-8.0, 8.0, 801)

        def norm(x, mean, var):
            return np.exp(-0.5 * np.log(2 * np.pi * var) - (x - mean) ** 2 / (2 * var))

        f1 = norm(grid, 0.0, 1.0) * norm(y1, grid, 1.0)
        joint = f1[:, None] * norm(grid[None, :], 0.42 * grid[:, None], 1.0) * norm(y2, grid[None, :], 1.0)
        log_p = math.log(np.trapezoid(np.trapezoid(joint, grid, axis=1), grid))
        assert abs(mo.kalman_loglik(m, np.asarray([[y1], [y2]])) - log_p) < 1e-4

    def test_filtered_moments_d1(self):
        """One conjugate update by hand: posterior of x1 given y1."""
        m = mo.Lgssm(np.asarray([[0.7]]), np.asarray([[1.0]]), np.ones(1), np.ones(1))
        y1 = 1.2
        _, means, covs = mo.kalman_filter(m, np.asarray([[y1]]))
        assert abs(means[0, 0] - y1 / 2.0) < 1e-12
        assert abs(covs[0, 0, 0] - 0.5) < 1e-12

    def test_non_pd_innovation_raises(self):
        m = mo.Lgssm(np.asarray([[1.0]]), np.asarray([[1.0]]), np.ones(1), np.ones(1))
        m.r_diag[0] = -5.0  # sabotage past the constructor check
        with pytest.raises(ValueError):
            mo.kalman_loglik(m, np.zeros((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_innovation_raises_as_non_pd(self, bad):
        m = mo.Lgssm(np.asarray([[1.0]]), np.asarray([[1.0]]), np.ones(1), np.ones(1))
        m.r_diag[0] = bad  # sabotage past the constructor check
        with pytest.raises(ValueError, match="innovation covariance not positive definite at t=1"):
            mo.kalman_loglik(m, np.zeros((3, 1)))

    @pytest.mark.parametrize("dx, c_mode, t_max", [(3, "dense", 5), (10, "sparse", 4)])
    def test_matches_dense_joint_gaussian(self, dx, c_mode, t_max):
        """d > 1: y_{1:T} is one zero-mean Gaussian, its covariance built block by block from A, C, Q, R."""
        m = mo.lgssm_make(dx, dx, 0.42, c_mode, RngStream(3))
        ys = mo.generate(m, t_max, RngStream(13)).ys
        a, q = m.a, np.diag(m.q_diag)
        marginals = [np.eye(dx)]  # Cov(x_t), x_1 ~ N(0, I)
        for _ in range(1, t_max):
            marginals.append(a @ marginals[-1] @ a.T + q)
        cov_x = np.zeros((t_max * dx, t_max * dx))
        for t in range(t_max):
            for s in range(t + 1):  # Cov(x_t, x_s) = A^(t-s) Cov(x_s) for s <= t
                block = np.linalg.matrix_power(a, t - s) @ marginals[s]
                cov_x[t * dx:(t + 1) * dx, s * dx:(s + 1) * dx] = block
                cov_x[s * dx:(s + 1) * dx, t * dx:(t + 1) * dx] = block.T
        c_all = np.kron(np.eye(t_max), m.c)
        cov_y = c_all @ cov_x @ c_all.T + np.kron(np.eye(t_max), np.diag(m.r_diag))
        expected = multivariate_normal(np.zeros(t_max * m.dy), cov_y).logpdf(ys.ravel())
        assert mo.kalman_loglik(m, ys) == pytest.approx(expected, rel=1e-10)

    def test_refuses_what_bind_refuses(self):
        """A column short or the same data flattened would broadcast into the residual; both are refused."""
        m = mo.lgssm_make(3, 3, 0.42, "dense", RngStream(1))
        ys = mo.generate(m, 10, RngStream(2)).ys
        for bad in (ys[:, :1], ys.ravel(), np.zeros((0, 3))):
            message = re.escape(f"Lgssm observations must have shape (T, 3) with T >= 1, got {bad.shape}")
            with pytest.raises(ValueError, match=message):
                mo.kalman_loglik(m, bad)
            with pytest.raises(ValueError, match=message):
                mo.bind(m, mo.proposal_init(m, 10), bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observation_raises(self, bad):
        m = mo.lgssm_make(3, 3, 0.42, "dense", RngStream(1))
        ys = mo.generate(m, 4, RngStream(2)).ys
        ys[2, 1] = bad
        with pytest.raises(ValueError, match=r"Lgssm observations must be finite; row 2, column 1"):
            mo.kalman_loglik(m, ys)


class TestHmmForward:
    def test_reference_instance(self):
        ll = mo.hmm_forward(mo.hmm_reference(), [0, 0])
        assert abs(math.exp(ll) - 0.3525) <= 1e-12

    def test_single_state(self):
        h = mo.DiscreteHmm(np.asarray([1.0]), np.asarray([[1.0]]), np.asarray([[0.6, 0.4]]))
        assert abs(mo.hmm_forward(h, [0, 1, 0]) - math.log(0.6 * 0.4 * 0.6)) < 1e-12

    def test_uniform_everything(self):
        h = mo.DiscreteHmm(
            np.asarray([0.5, 0.5]), np.full((2, 2), 0.5), np.full((2, 3), 1.0 / 3.0)
        )
        assert abs(mo.hmm_forward(h, [2, 0, 1, 1]) - 4 * math.log(1.0 / 3.0)) < 1e-12

    def test_invalid_rows_raise(self):
        with pytest.raises(ValueError):
            mo.DiscreteHmm(np.asarray([0.7, 0.7]), np.eye(2), np.eye(2))
        with pytest.raises(ValueError, match="trans rows must be non-negative"):
            mo.DiscreteHmm(np.asarray([0.5, 0.5]), np.asarray([[1.5, -0.5], [0.5, 0.5]]), np.eye(2))
        with pytest.raises(ValueError, match="emis must have shape"):
            mo.DiscreteHmm(np.asarray([0.5, 0.5]), np.eye(2), np.eye(3))


class TestDensityKernels:
    def test_matrix_kernel_matches_rows(self):
        """The pair matrix is an array, off tape, whether its arguments are Vars or arrays."""
        x = RngStream(7).normals(8).reshape(4, 2)
        means = RngStream(8).normals(6).reshape(3, 2)
        log_stds = RngStream(9).normals(6).reshape(3, 2) * 0.3
        with ad.Tape() as tape:
            mat = mo.gauss_logpdf_matrix(ad.leaf(x), ad.leaf(means), ad.leaf(log_stds))
            assert len(tape.nodes) == 3
        assert isinstance(mat, np.ndarray)
        assert np.array_equal(mat, mo.gauss_logpdf_matrix(x, means, log_stds))
        ref = gauss_logpdf_np(x[:, None, :], means, log_stds)
        assert np.max(np.abs(mat - ref)) < 1e-9

    def test_shared_log_std_matches_tiled_and_oracle(self):
        x = RngStream(21).normals(12).reshape(4, 3)
        means = RngStream(22).normals(15).reshape(5, 3)
        shared = RngStream(23).normals(3).reshape(1, 3) * 0.3
        tiled = np.tile(shared, (5, 1))
        mat_shared = mo.gauss_logpdf_matrix(x, means, shared)
        mat_tiled = mo.gauss_logpdf_matrix(x, means, tiled)
        assert np.max(np.abs(mat_shared - mat_tiled)) < 1e-12
        ref = gauss_logpdf_np(x[:, None, :], means, shared[0])
        assert np.max(np.abs(mat_shared - ref)) < 1e-12
        rows_shared = mo.gauss_logpdf_rows(x, means[:4], shared).data
        rows_tiled = mo.gauss_logpdf_rows(x, means[:4], tiled[:4]).data
        assert np.max(np.abs(rows_shared - rows_tiled)) < 1e-12
        assert np.max(np.abs(rows_shared - np.diag(mat_shared[:, :4]))) < 1e-12

    @pytest.mark.parametrize("kernel", ["rows"])
    @pytest.mark.parametrize("ls_rows", [1, 3], ids=["shared", "per-row"])
    def test_kernel_finite_difference_in_all_arguments(self, kernel, ls_rows):
        fn = KERNELS[kernel]
        weights = RngStream(30).normals(9).reshape(3, 3)[:, 0]

        def f(x, means, log_stds):
            # a non-uniform cotangent exercises every entry of the backward
            return (fn(x, means, log_stds) * ad.constant(weights)).sum()

        point = [
            RngStream(31).normals(6).reshape(3, 2),
            RngStream(32).normals(6).reshape(3, 2),
            RngStream(33).normals(2 * ls_rows).reshape(ls_rows, 2) * 0.3,
        ]
        assert ad.finite_diff_check(f, point) < 1e-5

    @pytest.mark.parametrize("kernel", ["rows", "mixture"])
    def test_kernel_records_one_node(self, kernel):
        with ad.Tape() as tape:
            args = [ad.leaf(RngStream(40 + k).normals(6).reshape(3, 2)) for k in range(3)]
            if kernel == "mixture":
                args.insert(1, ad.leaf(RngStream(43).normals(3)))
            before = len(tape.nodes)
            KERNELS[kernel](*args)
            assert len(tape.nodes) == before + 1

    @pytest.mark.parametrize("ls_rows", [1, 256], ids=["shared", "per-row"])
    def test_mixture_kernel_matches_pairs_and_logsumexp(self, ls_rows):
        x = RngStream(50).normals(256 * 3).reshape(256, 3)
        means = RngStream(51).normals(256 * 3).reshape(256, 3)
        log_stds = RngStream(52).normals(3 * ls_rows).reshape(ls_rows, 3) * 0.3
        log_w = RngStream(53).normals(256)
        ref = ad.np_logsumexp(log_w + mo.gauss_logpdf_matrix(x, means, log_stds), axis=1)
        got = mo.gauss_mixture_logpdf(x, log_w, means, log_stds).data
        assert got.shape == (256,)
        assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("ls_rows", [1, 3], ids=["shared", "per-row"])
    def test_mixture_kernel_finite_difference_in_all_arguments(self, ls_rows):
        weights = RngStream(60).normals(4)

        def f(x, log_w, means, log_stds):
            return (mo.gauss_mixture_logpdf(x, log_w, means, log_stds) * ad.constant(weights)).sum()

        point = [
            RngStream(61).normals(8).reshape(4, 2),
            RngStream(62).normals(3),
            RngStream(63).normals(6).reshape(3, 2),
            RngStream(64).normals(2 * ls_rows).reshape(ls_rows, 2) * 0.3,
        ]
        assert ad.finite_diff_check(f, point) < 1e-5

    @staticmethod
    def mixture_matches_pairs(x, log_w, means, log_stds, min_far):
        """The mixture kernel against logsumexp over the pair matrix, to 1e-12
        relative, with finite gradients under a non-uniform cotangent.

        At least min_far rows must score more than 700 nats below the
        kernel's shift bound max_j (log_w_j - sum_e (log(2 pi) / 2 + ls_je)),
        where the bound-shifted total underflows and the row is redone with
        its own maximum.
        """
        ref = ad.np_logsumexp(log_w + mo.gauss_logpdf_matrix(x, means, log_stds), axis=1)
        bound = np.max(log_w - (0.5 * math.log(2 * math.pi) + log_stds).sum(axis=1))
        assert np.sum(ref < bound - 700.0) >= min_far
        weights = ad.constant(RngStream(89).normals(x.shape[0]))
        with ad.Tape():
            args = [ad.leaf(a) for a in (x, log_w, means, log_stds)]
            out = mo.gauss_mixture_logpdf(*args)
            grads = ad.grad((out * weights).sum(), args)
        assert np.all(np.abs(out.data - ref) <= 1e-12 * np.abs(ref))
        assert all(np.all(np.isfinite(g)) for g in grads)

    @pytest.mark.parametrize("ls_rows", [1, 5], ids=["shared", "per-row"])
    def test_mixture_kernel_rows_far_from_every_mean(self, ls_rows):
        x = RngStream(80).normals(6 * 3).reshape(6, 3)
        x[2] += 60.0
        x[4] -= 200.0
        means = RngStream(81).normals(5 * 3).reshape(5, 3)
        log_stds = RngStream(82).normals(3 * ls_rows).reshape(ls_rows, 3) * 0.3
        self.mixture_matches_pairs(x, RngStream(83).normals(5), means, log_stds, min_far=2)

    @pytest.mark.parametrize("ls_rows", [1, 64], ids=["shared", "per-row"])
    def test_mixture_kernel_weights_spread_over_a_thousand_nats(self, ls_rows):
        """Weights like TMC's unnormalized log z: a row beside a low-weight
        component sits far below the bound that the top weight sets."""
        means = RngStream(84).normals(64 * 3).reshape(64, 3) * 50.0
        x = means + 0.5 * RngStream(85).normals(64 * 3).reshape(64, 3)
        log_stds = RngStream(86).normals(3 * ls_rows).reshape(ls_rows, 3) * 0.3
        log_w = -1000.0 * RngStream(87).uniforms(64) - 300.0
        self.mixture_matches_pairs(x, log_w, means, log_stds, min_far=10)

    def test_mixture_kernel_minus_inf_weights(self):
        x = RngStream(70).normals(8).reshape(4, 2)
        means = RngStream(71).normals(6).reshape(3, 2)
        log_stds = RngStream(72).normals(2).reshape(1, 2) * 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ad.Tape():
                args = [ad.leaf(a) for a in (x, np.asarray([-np.inf, 0.2, -0.5]), means, log_stds)]
                out = mo.gauss_mixture_logpdf(*args)
                grads = ad.grad(out.sum(), args)
            ref = ad.np_logsumexp(np.asarray([0.2, -0.5]) + mo.gauss_logpdf_matrix(x, means[1:], log_stds), axis=1)
            assert np.all(np.isfinite(out.data)) and np.max(np.abs(out.data - ref)) < 1e-12
            assert grads[1][0] == 0.0 and np.all(grads[2][0] == 0.0)
            assert all(np.all(np.isfinite(g)) for g in grads)
            with ad.Tape():
                args = [ad.leaf(a) for a in (x, np.full(3, -np.inf), means, log_stds)]
                out = mo.gauss_mixture_logpdf(*args)
                grads = ad.grad((out * ad.constant(np.ones(4))).sum(), args)
        assert np.all(out.data == -np.inf)
        assert all(np.all(g == 0.0) for g in grads)

    @pytest.mark.parametrize("kernel", ["rows", "matrix", "mixture"])
    def test_kernels_reject_mismatched_state_dimensions(self, kernel):
        # x scores three coordinates, means and log-stds describe one
        args = [np.zeros((1, 3)), np.zeros((1, 1)), np.zeros((1, 1))]
        if kernel == "mixture":
            args.insert(1, np.zeros(1))
        with pytest.raises(ValueError, match="state dimensions"):
            KERNELS[kernel](*args)
        args[-1] = np.zeros((1, 3))
        with pytest.raises(ValueError, match="state dimensions"):
            KERNELS[kernel](*args)

    def test_trisolve_forward_and_gradient(self):
        b = np.tril(RngStream(5).normals(9).reshape(3, 3) * 0.3) + np.eye(3)
        u = RngStream(6).normals(6).reshape(2, 3)
        with ad.Tape():
            z = mo.trisolve_rows(ad.constant(b), ad.constant(u)).data
        assert np.allclose(b @ z.T, u.T, atol=1e-12)

        def f(bv, uv):
            eye = ad.constant(np.eye(3))
            strict = ad.constant(np.tril(np.ones((3, 3)), -1))
            z = mo.trisolve_rows(ad.exp(bv) * eye + bv * strict, uv)
            return (z * z).sum()

        assert ad.finite_diff_check(f, [RngStream(5).normals(9).reshape(3, 3) * 0.3, u]) < 1e-5


def pair_point(seed: int, n: int, runs: int, d: int, ls_rows, far: bool = False) -> list:
    """(x, log_w, f means, f log-stds, r means, r log-stds, log g) for the pair kernel.

    ls_rows is 1 (a shared scale) or None (one log-std row per component).
    far moves two rows of each run 60 units out in every coordinate, more
    than 700 nats below the kernels' shift bound, and sets each run's first
    log-weight to -inf.
    """
    stream = RngStream(seed)
    m = n * runs
    rows = m if ls_rows is None else ls_rows

    def normals(k, *shape, scale=1.0):
        return stream.split(k).normals(math.prod(shape)).reshape(shape) * scale

    x = normals(1, m, d)
    log_w = normals(2, m) - math.log(n)
    if far:
        x[0::n] += 60.0
        x[n - 1 :: n] -= 60.0
        log_w[0::n] = -np.inf
    return [x, log_w, normals(3, m, d), normals(4, rows, d, scale=0.3), normals(5, m, d),
            normals(6, rows, d, scale=0.3), normals(7, m)]


def four_nodes(x, log_w, f_m, f_ls, r_m, r_ls, log_g, runs=1):
    """The composition the pair kernel replaces: two mixture nodes, an add and a sub."""
    num = mo.gauss_mixture_logpdf(x, log_w, f_m, f_ls, runs)
    return num + log_g - mo.gauss_mixture_logpdf(x, log_w, r_m, r_ls, runs)


class TestMixturePair:
    """models.gauss_mixture_pair: MPF's step weight in one node, against the composition it replaces."""

    def test_weights_must_match_the_components(self):
        """Both mixture kernels refuse M log-weights for another number of components."""
        x, means, log_stds = np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((4, 3))
        log_w = np.zeros(5)
        with pytest.raises(ValueError, match=re.escape("log-weights (5,) do not match 4 components")):
            mo.gauss_mixture_logpdf(x, log_w, means, log_stds)
        with pytest.raises(ValueError, match=re.escape("log-weights (5,) do not match 4 components")):
            mo.gauss_mixture_pair(x, log_w, means, log_stds, means, log_stds, np.zeros(2))

    @pytest.mark.parametrize("far", [False, True], ids=["near", "far"])
    @pytest.mark.parametrize("runs", [1, 4])
    @pytest.mark.parametrize("n", [2, 16, 256])
    @pytest.mark.parametrize("ls_rows", [1, None], ids=["shared", "per-component"])
    def test_forward_is_bit_identical(self, ls_rows, n, runs, far):
        point = pair_point(90 + n + runs, n, runs, 3, ls_rows, far)
        got = mo.gauss_mixture_pair(*point, runs=runs).data
        want = four_nodes(*point, runs=runs).data
        assert got.shape == (n * runs,)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, want)
        if far:  # the far rows of the first run take the kernel's redo path under r
            x, log_w, r_m, r_ls = point[0][:n], point[1][:n], point[4][:n], point[5][:n]
            bound = np.max(log_w - (0.5 * math.log(2 * math.pi) + r_ls).sum(axis=1))
            ref = ad.np_logsumexp(log_w + mo.gauss_logpdf_matrix(x, r_m, r_ls), axis=1)
            assert ref[0] < bound - 700.0 and ref[n - 1] < bound - 700.0

    @pytest.mark.parametrize("far", [False, True], ids=["near", "far"])
    @pytest.mark.parametrize("ls_rows", [1, None], ids=["shared", "per-component"])
    def test_gradients_match_four_nodes(self, ls_rows, far):
        point = pair_point(95, 16, 1, 3, ls_rows, far)
        weights = ad.constant(RngStream(96).normals(16))
        grads = []
        for f in (mo.gauss_mixture_pair, four_nodes):
            with ad.Tape():
                args = [ad.leaf(a) for a in point]
                grads.append(ad.grad((f(*args) * weights).sum(), args))
        for got, want in zip(*grads):
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("ls_rows", [1, None], ids=["shared", "per-component"])
    def test_finite_difference_in_all_seven_parents(self, ls_rows):
        weights = ad.constant(RngStream(97).normals(4))

        def f(*args):
            return (mo.gauss_mixture_pair(*args) * weights).sum()

        assert ad.finite_diff_check(f, pair_point(98, 4, 1, 2, ls_rows)) < 1e-5

    def test_records_one_node(self):
        with ad.Tape() as tape:
            args = [ad.leaf(a) for a in pair_point(99, 3, 1, 2, 1)]
            before = len(tape.nodes)
            mo.gauss_mixture_pair(*args)
            assert len(tape.nodes) == before + 1

    def test_rejects_mixed_layouts(self):
        point = pair_point(100, 3, 1, 2, 1)
        point[5] = np.zeros((3, 2))  # per-component r against a shared f scale
        with pytest.raises(ValueError, match="one layout"):
            mo.gauss_mixture_pair(*point)

    @staticmethod
    def log_ratio_rows(n: int, runs: int, f_rows: int, r_rows: int) -> tuple:
        """(num, den, x, log_w, log_g) with f_rows and r_rows log-std rows of d = 2."""
        x, log_w, f_m, _, r_m, _, log_g = pair_point(101, n, runs, 2, 1)
        f_ls, r_ls = (RngStream(seed).normals(2 * rows).reshape(rows, 2) * 0.3
                      for seed, rows in ((102, f_rows), (103, r_rows)))
        num, den = mo.GaussRows(ad.constant(f_m), ad.constant(f_ls)), mo.GaussRows(ad.constant(r_m), ad.constant(r_ls))
        return num, den, x, log_w, log_g

    @pytest.mark.parametrize("runs", [1, 4], ids=["n1", "n1-runs4"])
    def test_log_ratio_takes_one_row_per_run_in_one_node(self, runs):
        """One row per run (N = 1) is one ``gauss_mixture_pair`` node too.

        Its value is the composition's to 1e-14 relative.  So are its
        gradients in all seven inputs at one run, the only pass whose pair
        buffers a tape keeps."""
        num, den, x, log_w, log_g = self.log_ratio_rows(1, runs, 1, 1)
        arrays = [x, log_w, log_g, num.means.data, num.log_stds.data, den.means.data, den.log_stds.data]

        def log_ratio(compose):
            with ad.Tape() as tape:
                leaves = [ad.leaf(a) for a in arrays]
                xs, lw, lg = leaves[:3]
                f, r = mo.GaussRows(*leaves[3:5]), mo.GaussRows(*leaves[5:])
                before = len(tape.nodes)
                if compose:
                    out = f.mixture_logpdf(xs, lw, runs) + lg - r.mixture_logpdf(xs, lw, runs)
                else:
                    out = mo.mixture_log_ratio(f, r, xs, lw, lg, runs)
                nodes = len(tape.nodes) - before
                grads = ad.grad(out.sum(), leaves) if runs == 1 else []
            return out.data, nodes, grads

        got, nodes, got_grads = log_ratio(False)
        want, _, want_grads = log_ratio(True)
        assert nodes == 1
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert len(got_grads) == len(want_grads) == (7 if runs == 1 else 0)
        for a, b in zip(got_grads, want_grads):
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b))

    @pytest.mark.parametrize("f_rows,r_rows", [(1, 3), (3, 1)],
                             ids=["shared-f-per-component-r", "per-component-f-shared-r"])
    def test_log_ratio_rejects_mixed_layouts(self, f_rows, r_rows):
        """No family pairs a shared scale with per-component ones, so the
        log ratio meets the pair kernel's own check."""
        num, den, x, log_w, log_g = self.log_ratio_rows(3, 1, f_rows, r_rows)
        with pytest.raises(ValueError, match="one layout"):
            mo.mixture_log_ratio(num, den, x, log_w, log_g)

    def test_log_ratio_takes_one_layout_in_one_node(self):
        x, log_w, f_m, f_ls, r_m, r_ls, log_g = pair_point(104, 3, 1, 2, None)
        num, den = mo.GaussRows(ad.constant(f_m), ad.constant(f_ls)), mo.GaussRows(ad.constant(r_m), ad.constant(r_ls))
        with ad.Tape() as tape:
            args = [ad.leaf(a) for a in (x, log_w, log_g)]
            before = len(tape.nodes)
            got = mo.mixture_log_ratio(num, den, *args)
            assert len(tape.nodes) == before + 1
        assert np.array_equal(got.data, four_nodes(x, log_w, f_m, f_ls, r_m, r_ls, log_g).data)


def draw_point(seed: int, n: int, d: int, r_rows: int, f: bool) -> dict:
    """A proposal (r_means, r_ls), its noise, f's rows (or None) and log g for n draws."""
    stream = RngStream(seed)

    def normals(k, *shape, scale=1.0):
        return stream.split(k).normals(math.prod(shape)).reshape(shape) * scale

    return {
        "r_means": normals(1, n, d), "r_ls": normals(2, r_rows, d, scale=0.3) - 0.5, "eps": normals(3, n, d),
        "f_means": normals(4, n, d) if f else None, "f_ls": normals(5, n, d, scale=0.3) if f else None,
        "log_g": normals(6, n),
    }


def draw_and_weigh(r_means, r_ls, eps, f_means, f_ls, log_g, kernel=True):
    """The draw and its (log f + log g) - log r: one ``gauss_draw_ratio`` node, or the x-form it replaces."""
    x = mo.gauss_rsample(r_means, r_ls, eps)
    if kernel:
        return x, mo.gauss_draw_ratio(x, eps, f_means, f_ls, r_ls, log_g)
    log_r = mo.gauss_logpdf_rows(x, r_means, r_ls)
    if f_means is None:
        return x, log_g - log_r
    return x, mo.gauss_logpdf_rows(x, f_means, f_ls) + log_g - log_r


# name -> (proposal log-std rows, or None for one per draw; f: "leaf", "constant" or None)
DRAW_FORMS = {
    "shared": (1, "leaf"),
    "shared-constant-f": (1, "constant"),  # the LGSSM: one log-std row, a constant transition scale
    "shared-no-f": (1, None),  # IPF's and TMC's log g - log r
    "per-row": (None, "leaf"),  # SV's and the DMM's fused products
    "per-row-constant-f": (None, "constant"),
    "per-row-no-f": (None, None),
}


class TestDrawRatio:
    """models.gauss_draw_ratio scores a draw's f g / r from its noise, against the x-form it replaces."""

    @staticmethod
    def grads(form: str, kernel: bool) -> tuple:
        r_rows, f = DRAW_FORMS[form]
        point = draw_point(45, 5, 3, 5 if r_rows is None else r_rows, f is not None)
        weights = ad.constant(RngStream(49).normals(5))
        with ad.Tape():
            live = {k: ad.leaf(v) for k, v in point.items()
                    if v is not None and k != "eps" and not (f == "constant" and k == "f_ls")}
            args = {**point, **live}
            x, out = draw_and_weigh(**args, kernel=kernel)
            # the draw feeds the loss too, as it feeds the next step and log g
            loss = (out * weights).sum() + (x * x).sum() * 0.25
            return out.data, dict(zip(live, ad.grad(loss, list(live.values()))))

    @pytest.mark.parametrize("form", list(DRAW_FORMS))
    def test_matches_the_x_form(self, form):
        got, got_grads = self.grads(form, True)
        want, want_grads = self.grads(form, False)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert sorted(got_grads) == sorted(want_grads)
        for name, g in got_grads.items():
            assert np.max(np.abs(g - want_grads[name])) <= 1e-13 * max(1.0, np.max(np.abs(want_grads[name]))), name

    @pytest.mark.parametrize("form", list(DRAW_FORMS))
    def test_pass_equals_runs_alone(self, form):
        """Each draw's weight is its own row's: R = 4 stacked runs of 3 draws give each run's bits."""
        r_rows, f = DRAW_FORMS[form]
        runs, n = 4, 3
        point = draw_point(60, runs * n, 2, runs * n if r_rows is None else r_rows, f is not None)
        _, stacked = draw_and_weigh(**point)
        for r in range(runs):
            rows = slice(r * n, (r + 1) * n)
            alone = {k: v if v is None or (k == "r_ls" and r_rows == 1) else v[rows] for k, v in point.items()}
            assert np.array_equal(stacked.data[rows], draw_and_weigh(**alone)[1].data), r

    @pytest.mark.parametrize("r_rows", [1, None], ids=["shared", "per-row"])
    def test_finite_difference_through_the_draw(self, r_rows):
        """The kernel's cotangents hold only with x drawn from r's own rows and noise, so both are differentiated."""
        point = draw_point(70, 4, 2, 4 if r_rows is None else r_rows, True)
        eps = point.pop("eps")
        weights = ad.constant(RngStream(71).normals(4))

        def f(r_means, r_ls, f_means, f_ls, log_g):
            x, out = draw_and_weigh(r_means, r_ls, eps, f_means, f_ls, log_g)
            return (out * weights).sum() + (x * x).sum() * 0.25

        assert ad.finite_diff_check(f, list(point.values())) < 1e-5

    def test_records_one_node(self):
        point = draw_point(80, 3, 2, 1, True)
        with ad.Tape() as tape:
            args = {k: ad.leaf(v) if k != "eps" else v for k, v in point.items()}
            x = mo.gauss_rsample(args["r_means"], args["r_ls"], point["eps"])
            before = len(tape.nodes)
            mo.gauss_draw_ratio(x, point["eps"], args["f_means"], args["f_ls"], args["r_ls"], args["log_g"])
            mo.gauss_draw_ratio(x, point["eps"], None, None, args["r_ls"], args["log_g"])
            assert len(tape.nodes) == before + 2

    def test_noise_must_match_the_draws(self):
        point = draw_point(81, 3, 2, 1, True)
        x = mo.gauss_rsample(point["r_means"], point["r_ls"], point["eps"])
        with pytest.raises(ValueError, match="noise"):
            mo.gauss_draw_ratio(x, point["eps"][:2], point["f_means"], point["f_ls"], point["r_ls"], point["log_g"])

    def test_table_rows_take_the_composed_form(self):
        """The HMM's rows score a draw as logpdf_rows does, with or without f."""
        num, den = mo.TableRows([[0.2, 0.8], [0.6, 0.4]]), mo.TableRows([[0.5, 0.5]])
        x, log_g = ad.constant(np.asarray([[1.0], [0.0]])), ad.constant(np.asarray([-0.3, -1.2]))
        want = num.logpdf_rows(x) + log_g - den.logpdf_rows(x)
        assert np.array_equal(mo.draw_log_ratio(num, den, None, 2, 2, x, log_g).data, want.data)
        want = log_g - den.logpdf_rows(x)
        assert np.array_equal(mo.draw_log_ratio(None, den, None, 2, 2, x, log_g).data, want.data)


class TestInPlaceKernels:
    """The row kernels form their values in place, with the elementwise expressions' IEEE operations in order."""

    FORMS = {"shared-scale": (4, 1), "per-row": (4, 4), "x-row": (1, 1), "x-row-per-row": (1, 4)}

    @pytest.mark.parametrize("form", list(FORMS))
    def test_forward_matches_elementwise_ops(self, form):
        """x is a (1, d) row in the emission form: one observation against every particle's means."""
        x_rows, ls_rows = self.FORMS[form]
        x = RngStream(90).normals(3 * x_rows).reshape(x_rows, 3)
        means = RngStream(91).normals(12).reshape(4, 3)
        log_stds = RngStream(92).normals(3 * ls_rows).reshape(ls_rows, 3)
        eps = RngStream(93).normals(12).reshape(4, 3)
        z = (x - means) * np.exp(-log_stds)
        want = (-0.5 * mo.LOG_2PI - log_stds - 0.5 * z * z).sum(axis=1)
        assert np.array_equal(mo.gauss_logpdf_rows(x, means, log_stds).data, want)
        assert np.array_equal(mo.gauss_rsample(x, log_stds, eps).data, x + np.exp(log_stds) * eps)
        beta = RngStream(94).normals(12).reshape(4, 3)
        assert np.array_equal(mo.lgssm_proposal_mean(means, beta, x, 2).data, means[1] + beta[1] * x)


class TestReparamDraw:
    """models.gauss_rsample: means + exp(log_stds) * eps in one node."""

    @pytest.mark.parametrize("m_rows,ls_rows", [(3, 1), (1, 1), (3, 3)],
                             ids=["shared-scale", "one-row", "per-row"])
    def test_forward_matches_elementwise_ops(self, m_rows, ls_rows):
        means = RngStream(60).normals(2 * m_rows).reshape(m_rows, 2)
        log_stds = RngStream(61).normals(2 * ls_rows).reshape(ls_rows, 2) * 0.3
        eps = RngStream(62).normals(6).reshape(3, 2)
        x = mo.gauss_rsample(means, log_stds, eps)
        assert np.array_equal(x.data, means + np.exp(log_stds) * eps)

    def test_rows_pick_components(self):
        means = RngStream(63).normals(8).reshape(4, 2)
        log_stds = RngStream(64).normals(8).reshape(4, 2) * 0.3
        eps = RngStream(65).normals(6).reshape(3, 2)
        rows = np.asarray([2, 0, 2])
        x = mo.gauss_rsample(means, log_stds, eps, rows=rows)
        assert np.array_equal(x.data, means[rows] + np.exp(log_stds[rows]) * eps)
        shared = mo.gauss_rsample(means, log_stds[:1], eps, rows=rows)
        assert np.array_equal(shared.data, means[rows] + np.exp(log_stds[:1]) * eps)

    @pytest.mark.parametrize("ls_rows,rows", [(1, None), (1, [3, 0, 3]), (4, [3, 0, 3])],
                             ids=["shared-scale", "rows-shared-scale", "rows-per-row"])
    def test_finite_difference(self, ls_rows, rows):
        """A (1, d) log-std broadcast against (N, d) means, and components picked by rows."""
        m_rows = 3 if rows is None else 4
        eps = RngStream(66).normals(6).reshape(3, 2)
        weights = ad.constant(RngStream(67).normals(6).reshape(3, 2))

        def f(means, log_stds):
            return (mo.gauss_rsample(means, log_stds, eps, rows=rows) * weights).sum()

        point = [
            RngStream(68).normals(2 * m_rows).reshape(m_rows, 2),
            RngStream(69).normals(2 * ls_rows).reshape(ls_rows, 2) * 0.3,
        ]
        assert ad.finite_diff_check(f, point) < 1e-5

    def test_one_node(self):
        with ad.Tape() as tape:
            means, log_stds = ad.leaf(np.zeros((3, 2))), ad.leaf(np.zeros((1, 2)))
            before = len(tape.nodes)
            mo.gauss_rsample(means, log_stds, np.ones((3, 2)))
            assert len(tape.nodes) == before + 1


class TestLgssmProposalMean:
    """models.lgssm_proposal_mean: mu_t + beta_t * xa in one node, xa the step's transition means."""

    def test_forward_matches_elementwise_ops(self):
        mu, beta = RngStream(70).normals(12).reshape(4, 3), RngStream(71).normals(12).reshape(4, 3)
        xa = RngStream(72).normals(15).reshape(5, 3)
        out = mo.lgssm_proposal_mean(mu, beta, xa, 3)
        assert np.array_equal(out.data, mu[2:3] + beta[2:3] * xa)

    def test_finite_difference(self):
        """In mu, beta and xa; the rows of mu and beta off step t get zeros."""
        weights = ad.constant(RngStream(73).normals(15).reshape(5, 3))

        def f(mu, beta, xa):
            return (mo.lgssm_proposal_mean(mu, beta, xa, 2) * weights).sum()

        point = [
            RngStream(74).normals(12).reshape(4, 3),
            RngStream(75).normals(12).reshape(4, 3),
            RngStream(76).normals(15).reshape(5, 3),
        ]
        assert ad.finite_diff_check(f, point) < 1e-5
        with ad.Tape():
            mu, beta = ad.leaf(point[0]), ad.leaf(point[1])
            g_mu, g_beta = ad.grad(f(mu, beta, ad.constant(point[2])), [mu, beta])
        for g in (g_mu, g_beta):
            assert np.all(g[[0, 2, 3]] == 0.0) and np.all(g[1] != 0.0)

    def test_means_through_bind_finite_difference_in_x_prev(self):
        """The bound proposal's means in x_prev; the model's A is symmetric, this one tells A from A^T apart."""
        a = RngStream(77).normals(9).reshape(3, 3)
        m = mo.Lgssm(a, np.eye(3), np.ones(3), np.ones(3))
        params = mo.proposal_init(m, 3)
        params["beta"] = params["beta"] + 0.5 * RngStream(78).normals(9).reshape(3, 3)
        ys = RngStream(79).normals(9).reshape(3, 3)
        weights = ad.constant(RngStream(80).normals(15).reshape(5, 3))

        def f(x_prev):
            return (mo.proposal_build_many(mo.bind(m, params, ys), 2, x_prev).means * weights).sum()

        assert ad.finite_diff_check(f, [RngStream(81).normals(15).reshape(5, 3)]) < 1e-5

    def test_one_node(self):
        with ad.Tape() as tape:
            args = [ad.leaf(np.ones((3, 2))), ad.leaf(np.ones((3, 2))), ad.leaf(np.ones((4, 2)))]
            before = len(tape.nodes)
            mo.lgssm_proposal_mean(*args, 2)
            assert len(tape.nodes) == before + 1


class TestOneTransitionPerStep:
    """A proposal that reads the step's transition rows and the weight's log f share one rows object."""

    @staticmethod
    def record(model, params, data, run, monkeypatch):
        """The tape of one run on leaves, the proposal rows of each step and its transition rows objects."""
        proposals, transitions = {}, {}
        build_proposal, build_transition = mo.proposal_build_many, mo.transition_build_many

        def spy_proposal(bound, t, x_prev=None):
            proposals[t] = build_proposal(bound, t, x_prev)
            return proposals[t]

        def spy_transition(bound, t, x_prev=None):
            rows = build_transition(bound, t, x_prev)
            transitions.setdefault(t, []).append(rows)
            return rows

        monkeypatch.setattr(mo, "proposal_build_many", spy_proposal)
        monkeypatch.setattr(mo, "transition_build_many", spy_transition)
        with ad.Tape() as tape:
            run(model, {k: ad.leaf(v) for k, v in params.items()}, data)
        return tape, proposals, transitions

    @pytest.mark.parametrize("kind", ["vsmc", "vmpf-bg"])
    def test_lgssm_proposal_mean_reads_the_transition_matmul(self, kind, monkeypatch):
        m = mo.lgssm_make(3, 3, 0.42, "sparse", RngStream(0))
        data = mo.generate(m, 4, RngStream(7))
        params = mo.proposal_init(m, 4)
        run = (lambda *a: fl.run_smc(*a, 4, 5)) if kind == "vsmc" else (lambda *a: fl.run_mpf(*a, 4, 5))
        tape, proposals, transitions = self.record(m, params, data, run, monkeypatch)
        for t in range(2, 5):
            rows = transitions[t]
            assert len(rows) == 2 and rows[0] is rows[1]  # the proposal's read, then the weight's
            xa = tape.nodes[proposals[t].means.nid][0][2]
            assert xa is not None and xa == rows[0].means.nid
            assert tape.nodes[xa][0][1] is None  # x_prev @ A^T, with A^T a constant

    def test_sv_proposal_fuses_the_weights_transition_rows(self, monkeypatch):
        m = mo.sv_make(2, "triangular", RngStream(3))
        data = mo.generate(m, 4, RngStream(11))
        tape, proposals, transitions = self.record(m, mo.proposal_init(m, 4), data,
                                                   lambda *a: fl.run_smc(*a, 4, 5), monkeypatch)
        for t in range(2, 5):
            rows = transitions[t]
            assert len(rows) == 2 and rows[0] is rows[1]
            assert tape.nodes[proposals[t].means.nid][0][0] == rows[0].means.nid


class TestDenseLayer:
    def test_leaky_slope(self):
        with ad.Tape():
            x = ad.leaf(np.asarray([[-2.0, 3.0]]))
            y = mo.dense(x, np.eye(2), np.zeros(2), "leaky")
            (g,) = ad.grad(y.sum(), [x])
        assert np.allclose(y.data, [[-0.02, 3.0]])
        assert np.allclose(g, [[0.01, 1.0]])

    def test_activations_forward(self):
        x = RngStream(80).normals(6).reshape(3, 2)
        w = RngStream(81).normals(8).reshape(2, 4)
        b = RngStream(82).normals(4)
        pre = x @ w + b
        assert np.array_equal(mo.dense(x, w, b).data, pre)
        assert np.array_equal(mo.dense(x, w, b, "half").data, 0.5 * pre)
        assert np.array_equal(mo.dense(x, w, b, "leaky").data, np.where(pre > 0.0, pre, 0.01 * pre))
        with pytest.raises(ValueError, match="activation"):
            mo.dense(x, w, b, "relu")

    def test_one_node_per_layer(self):
        """mlp_two_head is 3 nodes, mlp_single 2, binding (the encoder) 3 and the DMM emission 3."""
        dmm = mo.dmm_make(2, 3, 4, RngStream(5))
        with ad.Tape() as tape:
            params = {k: ad.leaf(v) for k, v in mo.proposal_init(dmm, 2, RngStream(6)).items()}
            theta = {k: ad.leaf(v) for k, v in dmm.params.items()}
            x = ad.leaf(RngStream(7).normals(8).reshape(4, 2))
            sizes = [len(tape.nodes)]
            mo.mlp_two_head(params, "x", x)
            sizes.append(len(tape.nodes))
            mo.mlp_single(theta, "emis_h", "emis_out", x)
            sizes.append(len(tape.nodes))
            bound = mo.bind(dmm.with_theta(theta), params, np.asarray([[1.0, 0.0, 1.0]]))
            sizes.append(len(tape.nodes))
            mo.emission_logpdf_rows(bound, 1, x)
            sizes.append(len(tape.nodes))
        assert np.diff(sizes).tolist() == [3, 2, 3, 3]


def _lower_triangular(seed: int, d: int) -> np.ndarray:
    return np.tril(RngStream(seed).normals(d * d).reshape(d, d) * 0.3) + np.eye(d)


# kernel -> (call on its parents, the parents' values)
CONSTANT_PARENT_CASES = {
    "gauss_logpdf_rows": (
        mo.gauss_logpdf_rows,
        [RngStream(90).normals(12).reshape(4, 3), RngStream(91).normals(12).reshape(4, 3),
         RngStream(92).normals(3).reshape(1, 3) * 0.3],
    ),
    "gauss_rsample": (
        lambda m, ls: mo.gauss_rsample(m, ls, RngStream(93).normals(12).reshape(4, 3)),
        [RngStream(94).normals(12).reshape(4, 3), RngStream(95).normals(3).reshape(1, 3) * 0.3],
    ),
    "gauss_rsample-rows": (
        lambda m, ls: mo.gauss_rsample(m, ls, RngStream(93).normals(12).reshape(4, 3), rows=[2, 0, 2, 1]),
        [RngStream(94).normals(9).reshape(3, 3), RngStream(95).normals(9).reshape(3, 3) * 0.3],
    ),
    "lgssm_proposal_mean": (
        lambda mu, beta, xa: mo.lgssm_proposal_mean(mu, beta, xa, 2),
        [RngStream(97).normals(15).reshape(5, 3), RngStream(98).normals(15).reshape(5, 3),
         RngStream(99).normals(12).reshape(4, 3)],
    ),
    "dense": (
        lambda x, w, b: mo.dense(x, w, b, "leaky"),
        [RngStream(100).normals(8).reshape(4, 2), RngStream(101).normals(6).reshape(2, 3), RngStream(102).normals(3)],
    ),
    "gauss_draw_ratio": (
        lambda x, f_m, f_ls, log_g, r_ls: mo.gauss_draw_ratio(x, RngStream(106).normals(12).reshape(4, 3),
                                                              f_m, f_ls, r_ls, log_g),
        [RngStream(107).normals(12).reshape(4, 3), RngStream(108).normals(12).reshape(4, 3),
         RngStream(109).normals(3).reshape(1, 3) * 0.3, RngStream(110).normals(4),
         RngStream(111).normals(3).reshape(1, 3) * 0.3],
    ),
    "gauss_draw_ratio-no-f": (
        lambda log_g, r_ls: mo.gauss_draw_ratio(np.zeros((4, 3)), RngStream(106).normals(12).reshape(4, 3),
                                                None, None, r_ls, log_g),
        [RngStream(110).normals(4), RngStream(111).normals(12).reshape(4, 3) * 0.3],
    ),
    "mixture_logpdf-one-row": (
        lambda x, m, ls, log_w: mo.GaussRows(m, ls).mixture_logpdf(x, log_w, runs=4),
        [RngStream(112).normals(12).reshape(4, 3), RngStream(113).normals(12).reshape(4, 3),
         RngStream(114).normals(3).reshape(1, 3) * 0.3, RngStream(115).normals(4)],
    ),
    "trisolve_rows": (
        mo.trisolve_rows,
        [_lower_triangular(103, 3), RngStream(104).normals(12).reshape(4, 3)],
    ),
}


class TestConstantParents:
    """A kernel forms no cotangent for a constant parent; its live parents get the same bits as when all are live."""

    @staticmethod
    def grads(call, values, live, monkeypatch):
        rules = []
        real = ad.custom_vjp

        def spy(out, parents, rule):
            rules.append(rule)
            return real(out, parents, rule)

        monkeypatch.setattr(ad, "custom_vjp", spy)
        with ad.Tape():
            parents = [ad.leaf(v) if on else ad.constant(v) for v, on in zip(values, live)]
            out = call(*parents)
            rule = rules[-1]  # the kernel's own; the loss's ops below record through custom_vjp too
            weights = ad.constant(RngStream(105).normals(out.data.size).reshape(out.data.shape))
            loss = (out * weights).sum()
            grads = ad.grad(loss, [p for p, on in zip(parents, live) if on])
            formed = rule(weights.data)
        monkeypatch.undo()
        return grads, formed

    @pytest.mark.parametrize("kernel", sorted(CONSTANT_PARENT_CASES))
    def test_constant_parents_get_no_cotangent(self, kernel, monkeypatch):
        call, values = CONSTANT_PARENT_CASES[kernel]
        every, formed = self.grads(call, values, [True] * len(values), monkeypatch)
        assert all(c is not None for c in formed)
        for mask in range(1, 2 ** len(values) - 1):
            live = [bool(mask >> k & 1) for k in range(len(values))]
            got, formed = self.grads(call, values, live, monkeypatch)
            assert [c is not None for c in formed] == live, live
            want = [g for g, on in zip(every, live) if on]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), live


def cell_value(cell):
    """A closure cell's value; None for an empty cell, a name that only another form sets."""
    try:
        return cell.cell_contents
    except ValueError:
        return None


class TestRowScore:
    """gauss_logpdf_rows, both forms of gauss_draw_ratio and the one-row mixture are one row-score node."""

    @staticmethod
    def forms():
        """Each form's (call on its parents, the parents' values), from CONSTANT_PARENT_CASES."""
        names = ("gauss_logpdf_rows", "gauss_draw_ratio", "gauss_draw_ratio-no-f", "mixture_logpdf-one-row")
        return [CONSTANT_PARENT_CASES[name] for name in names]

    def test_every_form_is_one_node_whose_rule_holds_no_var(self):
        """The rule closes over arrays, shapes and flags: a Var in it would tie the tape into a cycle."""
        for call, values in self.forms():
            with ad.Tape() as tape:
                parents = [ad.leaf(v) for v in values]
                before = len(tape.nodes)
                call(*parents)
                assert len(tape.nodes) == before + 1
                pids, rule = tape.nodes[-1]
            assert list(pids) == [p.nid for p in parents]
            cells = [c for c in map(cell_value, rule.__closure__) if c is not None]
            assert cells and not any(isinstance(c, ad.Var) for c in cells)

    @pytest.mark.parametrize("runs", [1, 3])
    def test_one_row_mixture_is_the_row_kernel_plus_its_log_weight(self, runs):
        """TMC's step at N=1: one node where a row node and an add stood, with the composition's bits."""
        stream = RngStream(116)
        arrays = [stream.split(k).normals(runs * 2).reshape(runs, 2) for k in range(2)]
        arrays += [stream.split(2).normals(2).reshape(1, 2) * 0.3, stream.split(3).normals(runs)]
        weights = ad.constant(stream.split(4).normals(runs))

        def score(compose):
            with ad.Tape() as tape:
                x, means, log_stds, log_w = (ad.leaf(a) for a in arrays)
                before = len(tape.nodes)
                if compose:
                    out = log_w + mo.gauss_logpdf_rows(x, means, log_stds)
                else:
                    out = mo.GaussRows(means, log_stds).mixture_logpdf(x, log_w, runs)
                nodes = len(tape.nodes) - before
                grads = ad.grad((out * weights).sum(), [x, means, log_stds, log_w])
            return out.data, nodes, grads

        got, nodes, got_grads = score(False)
        want, composed, want_grads = score(True)
        assert (nodes, composed) == (1, 2)
        assert got.tobytes() == want.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got_grads, want_grads))


class TestLogdensities:
    def test_lgssm_transition_is_gaussian(self):
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        x_prev = np.asarray([0.5, -1.0])
        x_t = np.asarray([0.2, 0.1])
        log_f, log_g = log_fg(m, 2, x_t, x_prev, np.zeros(2))
        ref_f = gauss_logpdf_np(x_t, m.a @ x_prev, np.zeros(2))
        ref_g = gauss_logpdf_np(np.zeros(2), m.c @ x_t, np.zeros(2))
        assert abs(log_f - ref_f) < 1e-10
        assert abs(log_g - ref_g) < 1e-10

    def test_lgssm_prior_at_t1(self):
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        log_f, _ = log_fg(m, 1, np.zeros(2), None, np.zeros(2))
        assert abs(log_f + math.log(2 * math.pi)) < 1e-12

    def test_sv_emission_matches_dense_normal(self):
        """y = diag(exp(x/2)) B e gives y ~ N(0, D B B' D)."""
        for mode in ("diagonal", "triangular"):
            sv = mo.sv_make(3, mode, RngStream(11))
            x = RngStream(12).normals(3)
            y = RngStream(13).normals(3) * 0.5
            _, log_g = log_fg(sv, 1, x, None, y)
            b = mo.sv_b_matrix(sv).data
            d = np.diag(np.exp(x / 2.0))
            oracle = multivariate_normal(np.zeros(3), d @ b @ b.T @ d).logpdf(y)
            assert abs(log_g - oracle) < 1e-9

    def test_sv_transition_definition(self):
        sv = mo.sv_make(2, "diagonal", RngStream(3))
        x_prev, x_t = np.asarray([0.4, -0.2]), np.asarray([0.1, 0.3])
        phi = 1.0 / (1.0 + np.exp(-sv.phi_logit))
        log_f, _ = log_fg(sv, 2, x_t, x_prev, np.zeros(2))
        ref = gauss_logpdf_np(x_t, sv.mu + phi * (x_prev - sv.mu), sv.log_q_std)
        assert abs(log_f - ref) < 1e-10

    def test_dmm_emission_is_bernoulli(self):
        dmm = mo.dmm_make(2, 4, 8, RngStream(5))
        x = RngStream(6).normals(2)
        y = np.asarray([1.0, 0.0, 0.0, 1.0])
        _, log_g = log_fg(dmm, 1, x, None, y)
        logits = mo.mlp_single(dmm.params, "emis_h", "emis_out", ad.constant(x[None, :])).data[0]
        probs = 1.0 / (1.0 + np.exp(-logits))
        oracle = np.sum(y * np.log(probs) + (1 - y) * np.log1p(-probs))
        assert abs(log_g - oracle) < 1e-10

    def test_transition_density_integrates_to_one(self):
        grid = np.linspace(-10.0, 10.0, 4001)
        cases = [
            mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0)),
            mo.sv_make(1, "diagonal", RngStream(1)),
            mo.dmm_make(1, 2, 4, RngStream(2)),
        ]
        x_prev = np.asarray([[0.3]])
        for m in cases:
            # the whole grid in one row-kernel call against the one transition row
            f_means, f_ls = mo.transition_build_many(bound_at(m, 2, np.zeros(m.dy)), 2, x_prev)
            vals = np.exp(mo.gauss_logpdf_rows(grid[:, None], f_means, f_ls).data)
            assert 0.999 < np.trapezoid(vals, grid) < 1.001


class TestProposals:
    def test_lgssm_proposal_formula(self):
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        params = mo.proposal_init(m, 3)
        params["mu"][1] = [0.5, -0.5]
        params["beta"][1] = [2.0, 0.5]
        params["log_sigma"][1] = [0.1, -0.1]
        x_prev = np.asarray([1.0, 2.0])
        mean, log_std = proposal_row(m, params, 2, x_prev)
        assert np.allclose(mean, np.asarray([0.5, -0.5]) + np.asarray([2.0, 0.5]) * (m.a @ x_prev))
        assert np.allclose(log_std, [0.1, -0.1])

    def test_lgssm_beta_zero_ignores_history(self):
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        params = mo.proposal_init(m, 2)
        params["beta"][:] = 0.0
        a, _ = proposal_row(m, params, 2, np.asarray([5.0, -3.0]))
        b, _ = proposal_row(m, params, 2, np.asarray([0.0, 0.0]))
        assert np.array_equal(a, b)

    def test_sv_proposal_is_fused_product(self):
        """log f + log N(mu_t, Sigma_t) = log-normalizer + log r pointwise."""
        sv = mo.sv_make(2, "diagonal", RngStream(5))
        params = mo.proposal_init(sv, 2)
        params["mu"][1] = [0.3, -0.2]
        params["log_sigma"][1] = [0.2, 0.1]
        x_prev = np.asarray([0.5, 0.8])
        x_t = np.asarray([-0.1, 0.4])
        phi = 1.0 / (1.0 + np.exp(-sv.phi_logit))
        log_r = gauss_logpdf_np(x_t, *proposal_row(sv, params, 2, x_prev))
        f_mean, f_ls = sv.mu + phi * (x_prev - sv.mu), sv.log_q_std
        factor_mean, factor_ls = np.asarray([0.3, -0.2]), np.asarray([0.2, 0.1])
        # the product's log-normalizer log N(f_mean; factor_mean, vf + vfactor)
        vsum = np.exp(2.0 * f_ls) + np.exp(2.0 * factor_ls)
        log_norm = gauss_logpdf_np(f_mean, factor_mean, 0.5 * np.log(vsum))
        lhs = gauss_logpdf_np(x_t, f_mean, f_ls) + gauss_logpdf_np(x_t, factor_mean, factor_ls)
        assert abs(lhs - (log_norm + log_r)) < 1e-10

    def test_dmm_flat_y_factor_recovers_x_network(self):
        dmm = mo.dmm_make(2, 3, 8, RngStream(9))
        params = mo.proposal_init(dmm, 2, RngStream(10))
        params["y_sig_w"][:] = 0.0
        params["y_sig_b"][:] = 40.0  # variance e^40: flat factor
        x_prev = RngStream(11).normals(2)
        y_t = np.asarray([1.0, 0.0, 1.0])
        fused_mean, fused_ls = proposal_row(dmm, params, 2, x_prev, y_t)
        x_mean, x_ls = mo.mlp_two_head(params, "x", ad.constant(x_prev[None, :]))
        assert np.allclose(fused_mean, x_mean.data[0], atol=1e-8)
        assert np.allclose(fused_ls, x_ls.data[0], atol=1e-8)

    def test_proposal_gradients_finite_difference(self):
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        x_prev = np.asarray([[0.7]])
        x_t = np.asarray([[0.2]])

        def f(mu, beta, log_sigma):
            params = {"mu": mu, "beta": beta, "log_sigma": log_sigma}
            means, log_stds = mo.proposal_build_many(bound_at(m, 2, [0.0], params), 2, ad.constant(x_prev))
            return mo.gauss_logpdf_rows(ad.constant(x_t), means, log_stds).sum()

        point = [np.zeros((2, 1)), np.ones((2, 1)), np.zeros((2, 1))]
        assert ad.finite_diff_check(f, point) < 1e-5

    def test_unused_rows_get_zero_gradient(self):
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        with ad.Tape():
            mu = ad.leaf(np.zeros((4, 1)))
            params = {"mu": mu, "beta": ad.leaf(np.ones((4, 1))), "log_sigma": ad.leaf(np.zeros((4, 1)))}
            means, _ = mo.proposal_build_many(bound_at(m, 2, [0.0], params), 2, ad.constant(np.asarray([[0.3]])))
            (g,) = ad.grad(means.sum(), [mu])
        assert np.array_equal(g[:, 0], [0.0, 1.0, 0.0, 0.0])


class TestBind:
    """models.bind takes (T, dy) observations with T >= 1 and refuses every other shape."""

    @staticmethod
    def refuses_wrong_shapes(model, params):
        dy = model.dy
        mo.bind(model, params, np.zeros((3, dy)))
        for shape in [(3, dy + 1), (3, dy - 1), (0, dy), (3,), (3, dy, 1)]:
            expected = f"{type(model).__name__} observations must have shape (T, {dy}) with T >= 1, got {shape}"
            with pytest.raises(ValueError, match=re.escape(expected)):
                mo.bind(model, params, np.zeros(shape))

    def test_lgssm(self):
        m = mo.lgssm_make(3, 2, 0.42, "sparse", RngStream(0))
        self.refuses_wrong_shapes(m, mo.proposal_init(m, 3))

    def test_sv(self):
        """SV's width is its dim: one column of a d = 2 model no longer scores."""
        sv = mo.sv_make(2, "diagonal", RngStream(0))
        assert sv.dy == 2
        self.refuses_wrong_shapes(sv, mo.proposal_init(sv, 3))

    def test_dmm(self):
        dmm = mo.dmm_make(2, 3, 4, RngStream(0))
        self.refuses_wrong_shapes(dmm, mo.proposal_init(dmm, 3, RngStream(1)))

    def test_hmm(self):
        """The HMM observes one symbol a step, so a second column is refused, not ignored."""
        self.refuses_wrong_shapes(mo.hmm_reference(), None)

    def test_unsupported_model_is_a_type_error(self):
        """bind, proposal_init and generate name a model of no family they know."""
        for call in (lambda: mo.bind(object(), None, np.zeros((3, 1))),
                     lambda: mo.proposal_init(object(), 3),
                     lambda: mo.generate(object(), 3, RngStream(0))):
            with pytest.raises(TypeError, match="unsupported model: object"):
                call()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_observations_are_refused(self, value):
        """A NaN or infinite cell fails at bind, naming the family, its row and its column, not a step later."""
        cases = [(mo.lgssm_make(3, 2, 0.42, "sparse", RngStream(0)), None),
                 (mo.sv_make(2, "diagonal", RngStream(0)), None),
                 (mo.dmm_make(2, 2, 4, RngStream(0)), RngStream(1)),
                 (mo.hmm_reference(), None)]
        for model, rng in cases:
            params = None if isinstance(model, mo.DiscreteHmm) else mo.proposal_init(model, 3, rng)
            ys = np.zeros((3, model.dy))
            ys[2, model.dy - 1] = value
            expected = f"{type(model).__name__} observations must be finite; row 2, column {model.dy - 1} (from 0)"
            with pytest.raises(ValueError, match=re.escape(expected)):
                mo.bind(model, params, ys)


class TestGenerate:
    def test_t_max_must_be_positive(self):
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        with pytest.raises(ValueError, match="t_max must be >= 1"):
            mo.generate(m, 0, RngStream(0))

    def test_deterministic(self):
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        a = mo.generate(m, 5, RngStream(33))
        b = mo.generate(m, 5, RngStream(33))
        assert np.array_equal(a.ys, b.ys)

    def test_lgssm_marginal_variance(self):
        """Var(y_1) = C C' + R elementwise on the diagonal, d=1: 2.0."""
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        n = 20_000
        y1 = np.asarray([mo.generate(m, 1, RngStream(1_000_000 + k)).ys[0, 0] for k in range(n)])
        var = y1.var()
        se = var * math.sqrt(2.0 / (n - 1))
        assert abs(var - 2.0) < 4 * se

    def test_dmm_emits_binary(self):
        ds = mo.generate(mo.dmm_make(2, 5, 8, RngStream(3)), 4, RngStream(1))
        assert set(np.unique(ds.ys)) <= {0.0, 1.0}

    def test_hmm_symbols_in_range(self):
        ds = mo.generate(mo.hmm_reference(), 10, RngStream(2))
        assert ds.ys.shape == (10, 1)
        assert set(np.unique(ds.ys)) <= {0.0, 1.0}
        # pinned: a change to the inverse-CDF draws must not move them
        assert ds.ys[:, 0].astype(int).tolist() == [1, 1, 1, 0, 1, 1, 0, 1, 1, 0]

    def test_hmm_draws_clamped_when_rows_sum_below_one(self):
        """Rows summing to 1 - 1e-11 are valid, and the top uniform stays in range."""

        class TopStream:
            def split(self, *keys):
                return self

            def uniform(self):
                return 1.0 - 2.0**-53  # above every cumulative sum of such a row

        short = np.asarray([0.5, 0.5 - 1e-11])
        h = mo.DiscreteHmm(short, np.stack([short, short]), np.stack([short, short]))
        ds = mo.generate(h, 3, TopStream())
        assert np.array_equal(ds.ys, np.ones((3, 1)))
