"""The batched twins must be the per-run filters, R at a time.

Every test here is an equality test against run_smc / run_mpf over a seed
list: values bit-identical for 1-dimensional states, equal to rounding for
wider ones (matrix products batch differently), gradients equal to
accumulation-order rounding.
"""

import numpy as np
import pytest

import particlevi.autodiff as ad
from particlevi import batched as bt
from particlevi import distributions
from particlevi import filters as fl
from particlevi import models as mo
from particlevi.distributions import categorical_sample_many
from particlevi.rng import RngStream

SEEDS = np.arange(1, 13)


def lgssm_case(dx=1, dy=1, t_max=5, c_mode="sparse", n=4):
    m = mo.lgssm_make(dx, dy, 0.42, c_mode, RngStream(0))
    ds = mo.generate(m, t_max, RngStream(7))
    p = mo.proposal_init(m, t_max)
    p["mu"] += 0.1
    p["beta"] *= 0.8
    p["log_sigma"] -= 0.2
    return m, ds, p, n


def per_run_logz(run_fn, m, p, ds, n, seeds, **cfg_kw):
    out = []
    for s in seeds:
        run = run_fn(m, p, ds, fl.FilterConfig(n, seed=int(s), **cfg_kw))
        out.append(float(run.log_evidence.data))
    return np.asarray(out)


class TestCatRows:
    def test_matches_scalar_sampler_rowwise(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.full(5, 0.4), size=50)
        probs[::7, 2] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        us = rng.uniform(size=(50, 6))
        got = bt._cat_rows(probs, us)
        for r in range(50):
            np.testing.assert_array_equal(got[r], categorical_sample_many(probs[r], us[r]))

    def test_zero_weight_walk_back(self):
        probs = np.array([[0.5, 0.5, 0.0]])
        us = np.array([[0.9999999, 1.0 - 1e-16]])
        assert bt._cat_rows(probs, us).max() == 1

    def test_dead_row_raises(self):
        with pytest.raises(ValueError, match="degeneracy"):
            bt._cat_rows(np.array([[0.0, 0.0]]), np.array([[0.5]]))


class TestSmcBatch:
    @pytest.mark.parametrize("resample", [True, False])
    def test_d1_bit_equal(self, resample):
        m, ds, p, n = lgssm_case()
        per = per_run_logz(fl.run_smc, m, p, ds, n, SEEDS, resample=resample)
        batch = bt.smc_batch_logz(m, p, ds, n, SEEDS, resample=resample)
        np.testing.assert_array_equal(batch, per)

    def test_dense_c_multivariate(self):
        m, ds, p, n = lgssm_case(dx=3, dy=3, c_mode="dense")
        per = per_run_logz(fl.run_smc, m, p, ds, n, SEEDS, resample=True)
        batch = bt.smc_batch_logz(m, p, ds, n, SEEDS)
        assert np.max(np.abs(batch - per)) < 1e-12

    def test_single_particle(self):
        m, ds, p, _ = lgssm_case(dx=3, dy=3, c_mode="dense")
        per = per_run_logz(fl.run_smc, m, p, ds, 1, SEEDS, resample=True)
        batch = bt.smc_batch_logz(m, p, ds, 1, SEEDS)
        assert np.max(np.abs(batch - per)) < 1e-12

    def test_dmm_cumulative(self):
        m = mo.dmm_make(2, 3, 8, RngStream(3))
        ds = mo.generate(m, 3, RngStream(9))
        p = mo.proposal_init(m, 3, RngStream(4))
        per = per_run_logz(fl.run_smc, m, p, ds, 4, SEEDS, resample=False)
        batch = bt.smc_batch_logz(m, p, ds, 4, SEEDS, resample=False)
        assert np.max(np.abs(batch - per)) < 1e-12

    def test_discrete_rejected(self):
        m = mo.hmm_reference()
        with pytest.raises(TypeError, match="discrete"):
            bt.smc_batch_logz(m, {}, np.zeros((2, 1)), 2, SEEDS)


class TestMpfBatch:
    def test_d1_bit_equal(self):
        m, ds, p, n = lgssm_case()
        per = per_run_logz(fl.run_mpf, m, p, ds, n, SEEDS)
        batch = bt.mpf_batch_logz(m, p, ds, n, SEEDS)
        np.testing.assert_array_equal(batch, per)

    def test_sv_triangular(self):
        m = mo.sv_make(2, "triangular", RngStream(2))
        ds = mo.generate(m, 4, RngStream(6))
        p = mo.proposal_init(m, 4)
        per = per_run_logz(fl.run_mpf, m, p, ds, 3, SEEDS)
        batch = bt.mpf_batch_logz(m, p, ds, 3, SEEDS)
        assert np.max(np.abs(batch - per)) < 1e-12

    def test_single_particle(self):
        m, ds, p, _ = lgssm_case(dx=2, dy=2)
        per = per_run_logz(fl.run_mpf, m, p, ds, 1, SEEDS)
        batch = bt.mpf_batch_logz(m, p, ds, 1, SEEDS)
        assert np.max(np.abs(batch - per)) < 1e-12


class TestPairLogpdf:
    def test_matches_matrix_kernel_sliced(self):
        rng = np.random.default_rng(11)
        for d in (1, 3):
            x3 = rng.normal(size=(5, 4, d))
            m3 = rng.normal(size=(5, 4, d))
            ls3 = rng.normal(size=(5, 4, d)) * 0.3
            got = bt._pair_logpdf(x3, m3, ls3)
            for r in range(5):
                want = mo.gauss_logpdf_matrix(
                    ad.constant(x3[r]), ad.constant(m3[r]), ad.constant(ls3[r])
                ).data
                tol = 0.0 if d == 1 else 1e-12
                assert np.max(np.abs(got[r] - want)) <= tol


class TestUgBatch:
    def per_run_reference(self, m, p, ds, n, seeds):
        names = sorted(k for k in p)
        vals, tails = [], 0
        sums = {k: np.zeros_like(p[k]) for k in names}
        for s in seeds:
            with ad.Tape():
                lift = {k: ad.leaf(v) for k, v in p.items()}
                run = fl.run_mpf(m, lift, ds, fl.FilterConfig(n, seed=int(s), grad_mode="unbiased"))
                gs = ad.grad(run.log_evidence, [lift[k] for k in names])
            vals.append(float(run.log_evidence.data))
            tails += run.tail_failures
            for k, g in zip(names, gs):
                sums[k] += g
        means = {k: sums[k] / len(seeds) for k in names}
        return np.asarray(vals), means, tails

    def test_values_grads_and_tails_match_per_run(self):
        m, ds, p, n = lgssm_case(t_max=3, n=3)
        vals, means, tails = self.per_run_reference(m, p, ds, n, SEEDS)
        res = bt.vmpf_ug_batch(m, p, ds, n, SEEDS, chunk=5)
        np.testing.assert_array_equal(res.values, vals)
        assert res.tail_failures == tails
        for k, want in means.items():
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert np.max(np.abs(res.grad_mean[k] - want)) / scale < 1e-12

    def test_tail_counts_match_per_run_under_floor(self, monkeypatch):
        # an infinite floor makes every draw a tail draw, so both counts are R*N*T
        monkeypatch.setattr(distributions, "_TAIL_PDF_FLOOR", np.inf)
        m, ds, p, n = lgssm_case(t_max=3, n=3)
        vals, means, tails = self.per_run_reference(m, p, ds, n, SEEDS)
        res = bt.vmpf_ug_batch(m, p, ds, n, SEEDS, chunk=5)
        assert tails == len(SEEDS) * n * 3
        assert res.tail_failures == tails
        np.testing.assert_array_equal(res.values, vals)
        for k, want in means.items():
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert np.max(np.abs(res.grad_mean[k] - want)) / scale < 1e-12

    def test_forward_is_the_biased_forward(self):
        # same seeds, same noise: the unbiased estimator changes gradients only
        m, ds, p, n = lgssm_case()
        np.testing.assert_array_equal(
            bt.vmpf_ug_batch(m, p, ds, n, SEEDS).values,
            bt.mpf_batch_logz(m, p, ds, n, SEEDS),
        )

    def test_single_particle_matches_per_run(self):
        m, ds, p, _ = lgssm_case(t_max=3)
        vals, means, _ = self.per_run_reference(m, p, ds, 1, SEEDS)
        res = bt.vmpf_ug_batch(m, p, ds, 1, SEEDS)
        np.testing.assert_array_equal(res.values, vals)
        for k, want in means.items():
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert np.max(np.abs(res.grad_mean[k] - want)) / scale < 1e-12

    def test_chunking_changes_nothing(self):
        m, ds, p, n = lgssm_case(t_max=3)
        a = bt.vmpf_ug_batch(m, p, ds, n, SEEDS, chunk=4)
        b = bt.vmpf_ug_batch(m, p, ds, n, SEEDS, chunk=100)
        np.testing.assert_array_equal(a.values, b.values)
        for k in a.grad_mean:
            assert np.max(np.abs(a.grad_mean[k] - b.grad_mean[k])) < 1e-13
            assert a.chunk_means[k].shape[0] == 3

    def test_chunk_means_average_to_grad_mean(self):
        m, ds, p, n = lgssm_case(t_max=3)
        res = bt.vmpf_ug_batch(m, p, ds, n, SEEDS, chunk=4)
        for k, cm in res.chunk_means.items():
            assert np.max(np.abs(cm.mean(axis=0) - res.grad_mean[k])) < 1e-13

    def test_multivariate_rejected(self):
        m, ds, p, n = lgssm_case(dx=2, dy=2)
        with pytest.raises(ValueError, match="1-dimensional"):
            bt.vmpf_ug_batch(m, p, ds, n, SEEDS)

    def test_stochvol_d1(self):
        m = mo.sv_make(1, "diagonal", RngStream(2))
        ds = mo.generate(m, 3, RngStream(6))
        p = mo.proposal_init(m, 3)
        vals, means, _ = self.per_run_reference(m, p, ds, 2, SEEDS)
        res = bt.vmpf_ug_batch(m, p, ds, 2, SEEDS)
        np.testing.assert_array_equal(res.values, vals)
        for k, want in means.items():
            scale = max(float(np.max(np.abs(want))), 1.0)
            assert np.max(np.abs(res.grad_mean[k] - want)) / scale < 1e-12
