"""Filter correctness against enumeration, Kalman, and brute-force oracles."""

import math
import re
import warnings

import numpy as np
import pytest

import particlevi.autodiff as ad
from particlevi import checks as ck
from particlevi import couplings as cp
from particlevi import distributions
from particlevi import filters as fl
from particlevi import models as mo
from particlevi import objectives as ob
from particlevi.rng import RngStream


def lgssm_setup(t_max=5, seed=7, dx=1, dy=1):
    m = mo.lgssm_make(dx, dy, 0.42, "sparse", RngStream(0))
    ds = mo.generate(m, t_max, RngStream(seed))
    return m, ds, mo.proposal_init(m, t_max)


def norm_logpdf(x, mean, var):
    return -0.5 * math.log(2 * math.pi * var) - (x - mean) ** 2 / (2 * var)


def hmm_tables():
    """A three-state HMM and proposal tables that differ from its own tables."""
    h = mo.DiscreteHmm(
        np.asarray([0.5, 0.3, 0.2]),
        np.asarray([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.2, 0.2, 0.6]]),
        np.asarray([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]]),
    )
    params = {
        "init_proposal": np.asarray([0.3, 0.3, 0.4]),
        "trans_proposal": np.asarray([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),
        "indep_proposal": np.asarray([0.25, 0.35, 0.4]),
    }
    return h, params


class TestConfig:
    def test_validation(self):
        """Every filter rejects N < 1 up front, with one message."""
        m, ds, params = lgssm_setup()
        for run in (
            lambda: fl.run_smc(m, params, ds, 0, 1),
            lambda: fl.run_mpf(m, params, ds, 0, 1),
            lambda: fl.run_ipf(m, params, ds, 0, 1, 1),
            lambda: fl.run_tmc(m, params, ds, 0, 1),
        ):
            with pytest.raises(ValueError, match="n_particles must be an integer >= 1, got 0"):
                run()
        with pytest.raises(TypeError, match="source must be"):
            fl.run_smc(m, params, ds, 2, None)

    def test_particle_counts_must_be_integers(self):
        """N and IPF's L are integers, not floats or bools; numpy integers pass.

        2.5 particles used to fail in numpy's reshape, True with "an integer
        is required" and L = 1.5 in ``range``; each now names the count and its value.
        """
        m, ds, params = lgssm_setup()
        for run, message in (
            (lambda: fl.run_smc(m, params, ds, 2.5, 1), "n_particles must be an integer >= 1, got 2.5"),
            (lambda: fl.run_mpf(m, params, ds, True, 1), "n_particles must be an integer >= 1, got True"),
            (lambda: fl.run_ipf(m, params, ds, 2, 1.5, 1), "l_perms must be an integer >= 1, got 1.5"),
            (lambda: fl.run_ipf(m, params, ds, 2.5, 1, 1), "n_particles must be an integer >= 1, got 2.5"),
            (lambda: fl.run_ipf(m, params, ds, 2, 3, 1), "l_perms must satisfy 1 <= L <= N"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                run()
        expected = float(fl.run_ipf(m, params, ds, 2, 2, 1).log_evidence.data)
        assert float(fl.run_ipf(m, params, ds, np.int64(2), np.int64(2), 1).log_evidence.data) == expected
        assert float(fl.run_smc(m, params, ds, np.int64(2), 1).log_evidence.data) == float(
            fl.run_smc(m, params, ds, 2, 1).log_evidence.data)

    def test_state_independent_filters_name_the_family(self):
        """tmc and ipf need proposals that ignore the previous state; SV and the DMM have none."""
        for model, rng in ((mo.sv_make(2, "diagonal", RngStream(0)), None),
                           (mo.dmm_make(2, 3, 4, RngStream(0)), RngStream(1))):
            ds = mo.generate(model, 3, RngStream(7))
            params = mo.proposal_init(model, 3, rng)
            expected = f"{type(model).__name__} proposals condition on the previous state; none is state-independent"
            for run in (lambda: fl.run_tmc(model, params, ds, 2, 1), lambda: fl.run_ipf(model, params, ds, 2, 1, 1)):
                with pytest.raises(ValueError, match=re.escape(expected)):
                    run()

    def test_discrete_models_are_value_only(self):
        """The HMM's mixture draw has no implicit reparameterization; the plain run works."""
        h = mo.hmm_reference()
        with pytest.raises(ValueError, match="no implicit reparameterization"):
            fl.run_mpf(h, None, np.zeros((2, 1)), 2, 1, implicit=True)
        assert np.isfinite(float(fl.run_mpf(h, None, np.zeros((2, 1)), 2, 1).log_evidence.data))
        with ad.Tape(), pytest.raises(ValueError, match="take no gradient"):
            fl.run_smc(h, {"trans_proposal": ad.leaf(h.trans)}, np.zeros((2, 1)), 2, 1)


class TestFirstStep:
    """Step 1 is the one importance step w_1 = f_1 g_1 / r_1 of every filter, bit for bit."""

    @pytest.mark.parametrize("family", ["lgssm-d10", "sv-tri", "dmm-vem", "hmm-tables"])
    @pytest.mark.parametrize("n", [1, 4])
    def test_every_filter_takes_the_same_first_step(self, family, n):
        model, params, data, _ = run_axis_cases()[family]
        ys = data.ys[:1]  # T = 1: no filter reaches its own rule
        runners = {
            "smc-no-resampling": lambda: fl.run_smc(model, params, ys, n, 5, resample=False),
            "mpf": lambda: fl.run_mpf(model, params, ys, n, 5),
            "mpf-implicit": lambda: fl.run_mpf(model, params, ys, n, 5, implicit=True),
            "ipf-l1": lambda: fl.run_ipf(model, params, ys, n, 1, 5),
            "tmc": lambda: fl.run_tmc(model, params, ys, n, 5),
        }
        smc = fl.run_smc(model, params, ys, n, 5)
        differ = []
        for name, runner in runners.items():
            run = runner()
            assert run.t_max == 1
            if not (np.array_equal(run.particles[0].data, smc.particles[0].data)
                    and np.array_equal(run.log_weights[0].data, smc.log_weights[0].data)):
                differ.append(name)
        assert differ == []


class TestSmc:
    def test_n1_is_joint_minus_proposal(self):
        """Single chain: log-evidence = log p(x, y) - log q(x) on the drawn path."""
        m, ds, params = lgssm_setup(t_max=4)
        run = fl.run_smc(m, params, ds, 1, 3)
        total = 0.0
        for t in range(1, 5):
            x_t = float(run.particles[t - 1].data[0, 0])
            # prior N(0, 1) at t=1, then N(a x_prev, q); the proposal's beta acts from t=2
            f_mean = 0.0 if t == 1 else m.a[0, 0] * float(run.particles[t - 2].data[0, 0])
            f_var = 1.0 if t == 1 else m.q_diag[0]
            q_mean = params["mu"][t - 1, 0] + (params["beta"][t - 1, 0] * f_mean if t > 1 else 0.0)
            q_var = math.exp(2.0 * params["log_sigma"][t - 1, 0])
            total += (
                norm_logpdf(x_t, f_mean, f_var)
                + norm_logpdf(ds.ys[t - 1, 0], m.c[0, 0] * x_t, m.r_diag[0])
                - norm_logpdf(x_t, q_mean, q_var)
            )
        assert abs(float(run.log_evidence.data) - total) < 1e-10

    def test_hmm_enumeration_unbiased(self):
        h = mo.hmm_reference()
        ys = np.zeros((2, 1))
        truth = math.exp(mo.hmm_forward(h, [0, 0]))

        def phat(backend):
            run = fl.run_smc(h, None, ys, 2, backend)
            return math.exp(float(run.log_evidence.data))

        assert abs(ck.enumerate_expectation(phat) - truth) <= 1e-12

    def test_hmm_enumeration_unbiased_without_resampling(self):
        """resample=False on the discrete branch: accumulated weights stay unbiased."""
        h = mo.hmm_reference()
        ys = np.zeros((2, 1))
        truth = math.exp(mo.hmm_forward(h, [0, 0]))
        for n in (2, 3):
            def phat(backend):
                run = fl.run_smc(h, None, ys, n, backend, resample=False)
                return math.exp(float(run.log_evidence.data))

            assert abs(ck.enumerate_expectation(phat) - truth) <= 1e-12, n

    def test_mean_phat_matches_kalman(self):
        m, ds, params = lgssm_setup(t_max=5)
        truth = math.exp(mo.kalman_loglik(m, ds.ys))
        phats = np.asarray(
            [
                math.exp(float(fl.run_smc(m, params, ds, 4, s).log_evidence.data))
                for s in range(1000)
            ]
        )
        se = phats.std(ddof=1) / math.sqrt(len(phats))
        assert abs(phats.mean() - truth) < 3 * se

    def test_iwvi_mode_accumulates(self):
        """resample=False: evidence = logsumexp over chains of summed increments."""
        m, ds, params = lgssm_setup(t_max=4)
        run = fl.run_smc(m, params, ds, 3, 5, resample=False)
        assert run.cumulative
        assert all(np.array_equal(a, np.arange(3)) for a in run.ancestors)
        manual = float(ad.np_logsumexp(run.log_weights[-1].data) - math.log(3))
        assert abs(float(run.log_evidence.data) - manual) < 1e-14

    def test_biased_gradient_matches_fixed_noise_fd(self):
        m, ds, params0 = lgssm_setup(t_max=3)

        def value(mu):
            with ad.Tape():
                p = {
                    "mu": ad.constant(mu),
                    "beta": ad.constant(params0["beta"]),
                    "log_sigma": ad.constant(params0["log_sigma"]),
                }
                return float(
                    fl.run_smc(m, p, ds, 3, 5).log_evidence.data
                )

        with ad.Tape():
            mu = ad.leaf(params0["mu"])
            p = {"mu": mu, "beta": ad.constant(params0["beta"]), "log_sigma": ad.constant(params0["log_sigma"])}
            run = fl.run_smc(m, p, ds, 3, 5)
            (g,) = ad.grad(run.log_evidence, [mu])
        h = 1e-6
        for k in range(3):
            up, dn = params0["mu"].copy(), params0["mu"].copy()
            up[k, 0] += h
            dn[k, 0] -= h
            assert abs(g[k, 0] - (value(up) - value(dn)) / (2 * h)) < 1e-6

    def test_degeneracy_names_step(self):
        """Symbol 1 has zero emission probability: every filter stops at t=2, alone or in a pass."""
        h = mo.DiscreteHmm(
            np.asarray([0.5, 0.5]), np.full((2, 2), 0.5), np.asarray([[1.0, 0.0], [1.0, 0.0]])
        )
        ys = np.asarray([[0.0], [1.0], [0.0]])
        for source in (1, fl.RandomBackend(RngStream(1), [0, 1, 2])):
            for run in (
                lambda: fl.run_smc(h, None, ys, 3, source),
                lambda: fl.run_mpf(h, None, ys, 3, source),
                lambda: fl.run_ipf(h, None, ys, 3, 2, source),
                lambda: fl.run_tmc(h, None, ys, 3, source),
            ):
                with pytest.raises(fl.DegeneracyError, match="t=2 in run 0") as err:
                    run()
                assert (err.value.t, err.value.sample) == (2, 0)


class TestMpf:
    def test_n1_weights_equal_smc_bitwise(self):
        m, ds, params = lgssm_setup(t_max=4)
        a = fl.run_smc(m, params, ds, 1, 3)
        b = fl.run_mpf(m, params, ds, 1, 3)
        for wa, wb in zip(a.log_weights, b.log_weights):
            assert np.array_equal(wa.data, wb.data)
        assert float(a.log_evidence.data) == float(b.log_evidence.data)

    def test_line8_hand_case(self):
        """v = (sum vbar f) g / (sum vbar r) = 0.3 * 0.5 / 0.2 = 0.75, scripted."""
        h = mo.DiscreteHmm(
            np.asarray([0.5, 0.5]),
            np.asarray([[0.2, 0.8], [0.4, 0.6]]),
            np.full((2, 2), 0.5),
        )
        params = {"trans_proposal": np.asarray([[0.3, 0.7], [0.1, 0.9]])}
        backend = ck.ScriptBackend([0, 1, 0, 0])  # states (0,1) at t=1 then (0,0)
        run = fl.run_mpf(h, params, np.zeros((2, 1)), 2, backend)
        assert abs(math.exp(run.log_weights[1].data[0]) - 0.75) < 1e-12

    def test_hmm_enumeration_unbiased(self):
        h = mo.hmm_reference()
        ys = np.zeros((2, 1))
        truth = math.exp(mo.hmm_forward(h, [0, 0]))

        def phat(backend):
            run = fl.run_mpf(h, None, ys, 2, backend)
            return math.exp(float(run.log_evidence.data))

        assert abs(ck.enumerate_expectation(phat) - truth) <= 1e-12

    def test_biased_and_unbiased_share_the_forward_trace(self):
        m, ds, params = lgssm_setup(t_max=4)
        sv = mo.sv_make(2, "diagonal", RngStream(8))
        cases = [(m, params, ds), (sv, mo.proposal_init(sv, 4), mo.generate(sv, 4, RngStream(9)))]
        for model, p0, data in cases:
            for seed in (1, 4):
                bg = fl.run_mpf(model, p0, data, 3, seed)
                with ad.Tape():
                    p = {k: ad.leaf(v) for k, v in p0.items()}
                    ug = fl.run_mpf(model, p, data, 3, seed, implicit=True)
                assert all(np.array_equal(a.data, b.data) for a, b in zip(bg.particles, ug.particles))
                assert float(bg.log_evidence.data) == float(ug.log_evidence.data)
                assert ug.tail_failures == 0

    def test_tail_failures_counted_by_grad(self, monkeypatch):
        # an infinite floor makes every draw a tail draw; the rules run in grad
        monkeypatch.setattr(distributions, "_TAIL_PDF_FLOOR", np.inf)
        m, ds, params0 = lgssm_setup(t_max=3)
        with ad.Tape():
            p = {k: ad.leaf(v) for k, v in params0.items()}
            run = fl.run_mpf(m, p, ds, 4, 2, implicit=True)
            assert run.tail_failures == 0
            ad.grad(run.log_evidence, [p["mu"]])
        # the implicit node draws steps 2 and 3; t=1 is one Gaussian, drawn pathwise
        assert run.tail_failures == 4 * 2

    def test_n1_gradients_coincide_across_modes(self):
        m, ds, params0 = lgssm_setup(t_max=2)

        def grads(implicit):
            with ad.Tape():
                p = {k: ad.leaf(v) for k, v in params0.items()}
                run = fl.run_mpf(m, p, ds, 1, 6, implicit=implicit)
                return ad.grad(run.log_evidence, [p["mu"], p["beta"], p["log_sigma"]])

        for gb, gu in zip(grads(False), grads(True)):
            assert np.max(np.abs(gb - gu)) <= 1e-10

    def test_coincident_particles_give_the_pathwise_gradient(self, monkeypatch):
        """vmpf-ug equals vmpf-bg through the implicit node at N = 3.

        A step-1 log-std of -40 puts every step-1 particle on one point, so
        step 2's mixture is one Gaussian three times and its implicit
        gradient is the pathwise one.  The case reaches the node, and at a
        step-1 log-std of 0 the two gradients differ, so the check can fail.
        """
        m = mo.lgssm_make(2, 2, 0.42, "dense", RngStream(0))
        data = mo.generate(m, 2, RngStream(7))
        calls = []
        node = mo.mixture_implicit_rsample

        def counted(*args):
            calls.append(args)
            return node(*args)

        monkeypatch.setattr(mo, "mixture_implicit_rsample", counted)

        def gap(step1_log_sigma):
            phi = mo.proposal_init(m, 2)
            phi["mu"] += 0.3
            phi["log_sigma"][0] = step1_log_sigma
            _, gb = ob.gradient_biased(ob.Objective("vmpf-bg", m, phi, 3), data, RngStream(5))
            _, gu = ob.gradient_unbiased(ob.Objective("vmpf-ug", m, phi, 3), data, RngStream(5))
            return float(np.max(np.abs(gb - gu)))

        assert gap(-40.0) <= 1e-10
        assert len(calls) == 1  # step 2 of the vmpf-ug run
        assert gap(0.0) > 1e-2

    def test_rao_blackwell_conditional_variance(self):
        """Given the step-1 outcome, the marginal weight never has more variance."""
        h = mo.DiscreteHmm(
            np.asarray([0.6, 0.4]),
            np.asarray([[0.7, 0.3], [0.2, 0.8]]),
            np.asarray([[0.9, 0.1], [0.4, 0.6]]),
        )
        params = {"trans_proposal": np.full((2, 2), 0.5)}
        ys = np.zeros((2, 1))

        def collect(runner):
            groups = {}

            def run_and_key(backend):
                run = runner(backend)
                key = tuple(k for k, _ in backend.trace[:2])
                return math.exp(float(run.log_mean_weights[1].data)), key

            for (value, key), prob, _ in ck.enumerate_paths(run_and_key):
                acc = groups.setdefault(key, [0.0, 0.0, 0.0])
                acc[0] += prob
                acc[1] += prob * value
                acc[2] += prob * value * value
            return groups

        smc_groups = collect(lambda be: fl.run_smc(h, params, ys, 2, be))
        mpf_groups = collect(lambda be: fl.run_mpf(h, params, ys, 2, be))
        assert set(smc_groups) == set(mpf_groups)
        for key in smc_groups:
            mass, s1, s2 = smc_groups[key]
            mass_m, m1, m2 = mpf_groups[key]
            assert abs(mass - mass_m) < 1e-12
            e_smc, e_mpf = s1 / mass, m1 / mass
            var_smc = s2 / mass - e_smc**2
            var_mpf = m2 / mass - e_mpf**2
            assert abs(e_smc - e_mpf) < 1e-12
            assert var_mpf <= var_smc + 1e-15


def one_particle_cases():
    """name -> (model, params, data): LGSSM d=3, SV (triangular) and the DMM at T=8.

    The proposals sit off their defaults (log-stds -1.3, means +0.37), where
    scoring a draw from x and from its noise round differently.
    """
    lgssm = mo.lgssm_make(3, 3, 0.42, "dense", RngStream(1))
    sv = mo.sv_make(3, "triangular", RngStream(3))
    dmm = mo.dmm_make(3, 4, 8, RngStream(4))
    cases = {}
    for name, model, params, ls_key, mean_key, ls_scale in (
        ("lgssm-d3", lgssm, mo.proposal_init(lgssm, 8), "log_sigma", "mu", 1.0),
        ("sv-tri", sv, mo.proposal_init(sv, 8), "log_sigma", "mu", 1.0),
        # the DMM's log-std head halves its output, so its bias moves twice as far
        ("dmm", dmm, mo.proposal_init(dmm, 8, RngStream(5)), "x_sig_b", "x_mu_b", 2.0),
    ):
        params = dict(params)
        params[ls_key] = params[ls_key] - 1.3 * ls_scale
        params[mean_key] = params[mean_key] + 0.37
        cases[name] = (model, params, mo.generate(model, 8, RngStream(17)))
    return cases


class TestOneParticle:
    """At N = 1 a step's mixture is its one row, so MPF's step is SMC's step, bit for bit."""

    @pytest.mark.parametrize("family", sorted(one_particle_cases()))
    def test_mpf_step_weights_equal_smc_bitwise(self, family):
        model, params, data = one_particle_cases()[family]
        differ = steps = 0
        for seed in range(40):
            a = fl.run_smc(model, params, data, 1, seed)
            b = fl.run_mpf(model, params, data, 1, seed)
            for xa, xb in zip(a.particles, b.particles):
                assert np.array_equal(xa.data, xb.data)
            differ += sum(not np.array_equal(wa.data, wb.data) for wa, wb in zip(a.log_weights, b.log_weights))
            steps += a.t_max
        assert differ == 0, f"{differ} of {steps} step weights differ"

    @pytest.mark.parametrize("family", sorted(one_particle_cases()))
    def test_every_kind_has_the_same_gradient(self, family):
        """vsmc, vmpf-bg and vmpf-ug agree on value and gradient, bit for bit."""
        model, params, data = one_particle_cases()[family]
        for seed in range(4):
            results = {}
            for kind in ("vsmc", "vmpf-bg", "vmpf-ug"):
                obj = ob.Objective(kind, model, params, 1)
                grad_fn = ob.gradient_unbiased if kind == "vmpf-ug" else ob.gradient_biased
                results[kind] = grad_fn(obj, data, RngStream(seed))
            value, vector = results.pop("vsmc")
            for kind, (other_value, other_vector) in results.items():
                assert other_value == value, kind
                assert np.array_equal(other_vector, vector), kind


HMM_TABLE_RUNS = {
    "smc": lambda h, p, ys, be: fl.run_smc(h, p, ys, 2, be).log_evidence,
    "smc-no-resampling": lambda h, p, ys, be: fl.run_smc(h, p, ys, 2, be, resample=False).log_evidence,
    "mpf": lambda h, p, ys, be: fl.run_mpf(h, p, ys, 2, be).log_evidence,
    "tmc": lambda h, p, ys, be: fl.run_tmc(h, p, ys, 2, be).log_evidence,
    "ipf-l1": lambda h, p, ys, be: fl.run_ipf(h, p, ys, 2, 1, be).log_evidence,
    "ipf-l2": lambda h, p, ys, be: fl.run_ipf(h, p, ys, 2, 2, be).log_evidence,
    "derive-mpf": lambda h, p, ys, be: cp.derive_mpf(h, p, ys, 2).draw(be).log_r,
}


class TestHmmProposalTables:
    """init_proposal, trans_proposal and indep_proposal replace the bootstrap and uniform rows."""

    @pytest.mark.parametrize("kind", sorted(HMM_TABLE_RUNS))
    def test_enumeration_unbiased(self, kind):
        h, params = hmm_tables()
        symbols = [1, 0]
        ys = np.asarray(symbols, dtype=np.float64)[:, None]
        truth = math.exp(mo.hmm_forward(h, symbols))

        def phat(backend):
            return math.exp(float(HMM_TABLE_RUNS[kind](h, params, ys, backend).data))

        assert abs(ck.enumerate_expectation(phat) - truth) <= 1e-12

    def test_tables_set_the_branch_probabilities(self):
        """Each choice point offers the overriding table's row."""
        h, params = hmm_tables()
        ys = np.zeros((2, 1))
        expected = {
            "smc": [params["init_proposal"]] * 2 + [params["trans_proposal"][0]] * 2,
            "tmc": [params["init_proposal"]] * 2 + [params["indep_proposal"]] * 2,
        }
        for kind, rows in expected.items():
            backend = ck.ScriptBackend([])
            HMM_TABLE_RUNS[kind](h, params, ys, backend)
            offered = [p for _, p in backend.trace if p.shape == (3,)]
            assert all(np.array_equal(a, b) for a, b in zip(offered, rows)), kind
            assert len(offered) == len(rows)


    @pytest.mark.parametrize("name,table", [
        ("trans_proposal", [[1.5, -0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]),
        ("trans_proposal", [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.3, 0.3, 0.4]]),
        ("trans_proposal", [[0.5, 0.5], [0.5, 0.5]]),
        ("init_proposal", [0.6, 0.6, -0.2]),
        ("init_proposal", [0.3, 0.3, 0.3]),
        ("indep_proposal", [0.0, 0.0, 0.0]),
        ("indep_proposal", [np.nan, 0.5, 0.5]),
    ], ids=["negative", "zero-row", "wrong-shape", "init-negative", "init-short-sum", "indep-zero", "indep-nan"])
    def test_bad_tables_are_refused_at_bind(self, name, table):
        """A table must hold probability rows; before, a negative entry gave a finite 'bound'."""
        h, _ = hmm_tables()
        ys = np.zeros((2, 1))
        with pytest.raises(ValueError, match=name):
            fl.run_smc(h, {name: np.asarray(table)}, ys, 4, 1)
        with pytest.raises(ValueError, match=name):
            mo.bind(h, {name: np.asarray(table)}, ys)


class TestIpf:
    def test_l_bounds(self):
        m, ds, params = lgssm_setup()
        with pytest.raises(ValueError):
            fl.run_ipf(m, params, ds, 2, 3, 1)
        with pytest.raises(ValueError):
            fl.run_ipf(m, params, ds, 2, 0, 1)

    def test_hmm_enumeration_unbiased_both_l(self):
        h = mo.hmm_reference()
        ys = np.zeros((2, 1))
        truth = math.exp(mo.hmm_forward(h, [0, 0]))
        for l_perms in (1, 2):
            def phat(backend):
                run = fl.run_ipf(h, None, ys, 2, l_perms, backend)
                return math.exp(float(run.log_evidence.data))

            assert abs(ck.enumerate_expectation(phat) - truth) <= 1e-12

    def test_l_equals_n_matches_tmc(self):
        m, ds, params = lgssm_setup(t_max=5, dx=2, dy=2)
        for seed in (1, 2, 3):
            a = fl.run_ipf(m, params, ds, 3, 3, seed)
            b = fl.run_tmc(m, params, ds, 3, seed)
            for wa, wb in zip(a.log_weights, b.log_weights):
                assert np.max(np.abs(wa.data - wb.data)) < 1e-12

    def test_permutations_are_valid_and_columns_distinct(self):
        for seed in range(20):
            base = fl._permutation(fl._RunDraws(fl.RandomBackend(RngStream(seed)), 3), 2, 5)
            assert sorted(base.tolist()) == list(range(5))
            # the one-read swaps are the swaps chosen one at a time
            one_by_one = fl._permutation(fl._RunDraws(OneStepBackend(RngStream(seed)), 3), 2, 5)
            assert np.array_equal(base, one_by_one)
        base = fl._permutation(fl._RunDraws(fl.RandomBackend(RngStream(0)), 3), 2, 5)
        for i in range(5):
            picks = {base[(i + l) % 5] for l in range(4)}
            assert len(picks) == 4

    def test_choose_each_matches_the_per_row_sampler(self):
        """One row-wise inverse CDF picks what categorical_sample_many picks row by row.

        Ragged rows with zero-weight atoms at the front, inside and at the
        end, one summing to 1 - 1e-11, against random uniforms plus 0, the
        top uniform and values on the cumulative sums.
        """
        rows = [
            [0.0, 0.5, 0.0, 0.5], [0.2, 0.8], [0.0, 0.0, 1.0], [1.0],
            [0.3, 0.3, 0.4 - 1e-11, 0.0, 0.0], [0.25] * 4, [0.5, 0.0, 0.5, 0.0],
        ]
        edges = [0.0, 1.0 - 2.0**-53, 0.5, 0.2, 0.3, 0.6, 0.25, 0.75]

        class Fixed:
            run_normals = None

            def __init__(self, us):
                self.us = us

            def run_uniforms(self, purpose, t_max, count):
                return self.us[None, :count]

        draws_list = [RngStream(s).uniforms(len(rows)) for s in range(200)]
        draws_list += [np.full(len(rows), u) for u in edges]
        for us in draws_list:
            got = fl._RunDraws(Fixed(us), 1).choose_each(1, fl.PERM, rows)
            want = [distributions.categorical_sample_many(np.asarray(p), us[k : k + 1])[0] for k, p in enumerate(rows)]
            assert got.tolist() == [int(w) for w in want]
        assert fl._RunDraws(Fixed(np.zeros(0)), 1).choose_each(1, fl.PERM, []).tolist() == []
        with pytest.raises(ValueError, match="degeneracy"):
            fl._RunDraws(Fixed(np.zeros(2)), 1).choose_each(1, fl.PERM, [[0.5, 0.5], [0.0, 0.0]])

    def test_l1_pairs_one_to_one(self):
        """With L=1 every particle pools exactly one parent."""
        m, ds, params = lgssm_setup(t_max=2)
        run = fl.run_ipf(m, params, ds, 4, 1, 9)
        logu = run.log_weights[1].data
        # each weight must decompose as u_prev[k] * f / r * g for a single k
        x = run.particles[1].data
        xp = run.particles[0].data
        up = run.log_weights[0].data
        matches = 0
        for i in range(4):
            for k in range(4):
                cand = (
                    up[k]
                    + norm_logpdf(x[i, 0], 0.42 * xp[k, 0], 1.0)
                    + norm_logpdf(ds.ys[1, 0], x[i, 0], 1.0)
                    - norm_logpdf(x[i, 0], 0.0, 1.0)
                )
                if abs(cand - logu[i]) < 1e-9:
                    matches += 1
        assert matches == 4


class TestTmc:
    def test_hmm_enumeration_unbiased(self):
        h = mo.hmm_reference()
        ys = np.zeros((2, 1))
        truth = math.exp(mo.hmm_forward(h, [0, 0]))

        def phat(backend):
            run = fl.run_tmc(h, None, ys, 2, backend)
            return math.exp(float(run.log_evidence.data))

        assert abs(ck.enumerate_expectation(phat) - truth) <= 1e-12

    def test_brute_force_exponential_sum(self):
        """p_hat equals the explicit N^T-term sum over all pairings."""
        m, ds, params = lgssm_setup(t_max=3)
        for n in (2, 3):
            run = fl.run_tmc(m, params, ds, n, 4)
            xs = [p.data[:, 0] for p in run.particles]
            total = 0.0
            for i1 in range(n):
                for i2 in range(n):
                    for i3 in range(n):
                        path = (
                            norm_logpdf(xs[0][i1], 0.0, 1.0)
                            + norm_logpdf(ds.ys[0, 0], xs[0][i1], 1.0)
                            - norm_logpdf(xs[0][i1], 0.0, 1.0)
                            + norm_logpdf(xs[1][i2], 0.42 * xs[0][i1], 1.0)
                            + norm_logpdf(ds.ys[1, 0], xs[1][i2], 1.0)
                            - norm_logpdf(xs[1][i2], 0.0, 1.0)
                            + norm_logpdf(xs[2][i3], 0.42 * xs[1][i2], 1.0)
                            + norm_logpdf(ds.ys[2, 0], xs[2][i3], 1.0)
                            - norm_logpdf(xs[2][i3], 0.0, 1.0)
                        )
                        total += math.exp(path)
            oracle = math.log(total / n**3)
            assert abs(float(run.log_evidence.data) - oracle) < 1e-10

    def test_n1_matches_single_chain_importance_sampling(self):
        m, ds, params = lgssm_setup(t_max=4)
        params = dict(params)
        params["beta"] = np.zeros_like(params["beta"])
        a = fl.run_tmc(m, params, ds, 1, 8)
        b = fl.run_smc(m, params, ds, 1, 8, resample=False)
        assert abs(float(a.log_evidence.data) - float(b.log_evidence.data)) < 1e-12

    def test_fully_reparameterized_gradient(self):
        m, ds, params0 = lgssm_setup(t_max=3)

        def value(mu):
            p = {"mu": mu, "beta": params0["beta"] * 0.0, "log_sigma": params0["log_sigma"]}
            return fl.run_tmc(m, p, ds, 3, 5).log_evidence

        with ad.Tape():
            mu = ad.leaf(params0["mu"])
            (g,) = ad.grad(value(mu), [mu])
        h = 1e-6
        for k in range(3):
            up, dn = params0["mu"].copy(), params0["mu"].copy()
            up[k, 0] += h
            dn[k, 0] -= h
            with ad.Tape():
                fd = (float(value(ad.constant(up)).data) - float(value(ad.constant(dn)).data)) / (2 * h)
            assert abs(g[k, 0] - fd) < 1e-6


class TestPosteriorDraw:
    """The weighted final particles estimate the filtering posterior."""

    def test_weighted_mean_matches_kalman_posterior(self):
        m, ds, params = lgssm_setup(t_max=3)
        _, means, _ = mo.kalman_filter(m, ds.ys)
        estimates = []
        for s in range(400):
            run = fl.run_smc(m, params, ds, 64, s)
            lw = run.log_weights[-1].data
            wbar = np.exp(lw - ad.np_logsumexp(lw))
            estimates.append(float(wbar @ run.particles[-1].data[:, 0]))
        estimates = np.asarray(estimates)
        se = estimates.std(ddof=1) / math.sqrt(len(estimates))
        assert abs(estimates.mean() - means[-1, 0]) < 4 * se

def taped_runs():
    """kind -> runner(params, source) on a d=2 LGSSM (T=4, N=3), and whether it reads every step."""
    m = mo.lgssm_make(2, 2, 0.42, "dense", RngStream(1))
    ds = mo.generate(m, 4, RngStream(11))
    return {
        "vsmc": (lambda p, src: fl.run_smc(m, p, ds, 3, src), True),
        "iwvi": (lambda p, src: fl.run_smc(m, p, ds, 3, src, resample=False), False),
        "vmpf-bg": (lambda p, src: fl.run_mpf(m, p, ds, 3, src), True),
        "vmpf-ug": (lambda p, src: fl.run_mpf(m, p, ds, 3, src, implicit=True), True),
        "ipf": (lambda p, src: fl.run_ipf(m, p, ds, 3, 2, src), False),
        "tmc": (lambda p, src: fl.run_tmc(m, p, ds, 3, src), False),
    }, mo.proposal_init(m, 4)


class TestLogEvidenceNode:
    """A taped run's log evidence is one node over the step logsumexps it reads."""

    @staticmethod
    def taped(runner, params, seed=5):
        with ad.Tape() as tape:
            leaves = {k: ad.leaf(v) for k, v in params.items()}
            run = runner(leaves, seed)
        return tape, run

    @pytest.mark.parametrize("kind", sorted(taped_runs()[0]))
    def test_one_node_over_the_steps_it_reads(self, kind):
        """After the last step's weights the tape holds its logsumexp and the
        evidence node, nothing else; the node's parents are the logsumexp
        nodes of every step, or of the last one only for the cumulative kinds."""
        runs, params = taped_runs()
        runner, every_step = runs[kind]
        tape, run = self.taped(runner, params)
        assert len(tape.nodes) == run.log_weights[-1].nid + 3
        assert run.log_evidence.nid == len(tape.nodes) - 1
        pids, _ = tape.nodes[run.log_evidence.nid]
        read = run.log_weights if every_step else run.log_weights[-1:]
        assert [tape.nodes[pid][0] for pid in pids] == [(w.nid,) for w in read]

    @pytest.mark.parametrize("kind", sorted(taped_runs()[0]))
    def test_rule_hands_each_step_its_cotangent(self, kind):
        """Each parent gets the incoming cotangent itself, and the rule holds no Var."""
        runs, params = taped_runs()
        tape, run = self.taped(runs[kind][0], params)
        pids, rule = tape.nodes[run.log_evidence.nid]
        g = np.asarray(-0.37)
        outs = rule(g)
        assert len(outs) == len(pids) and all(out is g for out in outs)
        assert not any(isinstance(c.cell_contents, ad.Var) for c in rule.__closure__ or ())

    @pytest.mark.parametrize("kind", sorted(taped_runs()[0]))
    def test_values_are_the_old_sums_bit_for_bit(self, kind):
        """log_mean_weights[t] is logsumexp(log w_t) - log N, a constant, and the
        evidence is their left-to-right sum (the last of them when cumulative)."""
        runs, params = taped_runs()
        runner, every_step = runs[kind]
        tape, run = self.taped(runner, params)
        lmw = [float(v.data) for v in run.log_mean_weights]
        for v, w in zip(run.log_mean_weights, run.log_weights):
            assert v.nid is None
            assert float(v.data) == float(ad.np_logsumexp(w.data)) - math.log(3)
        assert float(run.log_evidence.data) == (sum(lmw[1:], lmw[0]) if every_step else lmw[-1])
        off = runner(params, 5)
        assert off.log_evidence.nid is None and off.log_evidence.data == run.log_evidence.data

    @pytest.mark.parametrize("kind", sorted(taped_runs()[0]))
    def test_a_pass_records_no_node(self, kind):
        """A pass of four runs goes through the same code and records nothing
        (a tape refuses it); each run's evidence is that run's alone, bit for bit."""
        runs, params = taped_runs()
        runner = runs[kind][0]
        labels, root = [3, 0, 8, 1], RngStream(5)
        stacked = runner(params, fl.RandomBackend(root, labels))
        assert stacked.log_evidence.nid is None and stacked.log_evidence.data.shape == (4,)
        for r, label in enumerate(labels):
            assert stacked.log_evidence.data[r] == runner(params, root.split(label)).log_evidence.data, r


class TestBackends:
    def test_random_backend_is_offset_addressed(self):
        be = fl.RandomBackend(RngStream(4))
        a = be.normals(3, fl.PROPOSAL, np.arange(6))
        b = fl.RandomBackend(RngStream(4)).normals(3, fl.PROPOSAL, np.asarray([4, 5]))
        assert np.array_equal(a[4:], b)

    def test_labelled_backend_serves_run_level_reads_only(self):
        """Per-step reads of a backend with run labels raise; they would read the root stream.

        A plain backend's per-step reads stay the draws of rng.split(t, purpose).
        """
        labelled = fl.RandomBackend(RngStream(5), [3])
        probs = np.asarray([0.2, 0.3, 0.5])
        for read in (
            lambda: labelled.uniforms(2, fl.ANCESTOR, np.arange(3)),
            lambda: labelled.normals(2, fl.PROPOSAL, np.arange(3)),
            lambda: labelled.choose_one(2, fl.ANCESTOR, 1, probs),
        ):
            with pytest.raises(ValueError, match="run-level reads only"):
                read()
        m = mo.lgssm_make(2, 2, 0.42, "dense", RngStream(0))
        ds = mo.generate(m, 3, RngStream(7))
        params = mo.proposal_init(m, 3)
        with pytest.raises(ValueError, match="run-level reads only"):
            cp.derive_smc(m, params, ds, 3).draw(labelled)
        assert float(fl.run_smc(m, params, ds, 3, labelled).log_evidence.data) == float(
            fl.run_smc(m, params, ds, 3, RngStream(5).split(3)).log_evidence.data)

        plain, root = fl.RandomBackend(RngStream(5)), RngStream(5)
        assert np.array_equal(plain.uniforms(2, fl.ANCESTOR, np.arange(3)),
                              root.split(2, fl.ANCESTOR).uniforms_at(np.arange(3)))
        assert np.array_equal(plain.normals(2, fl.PROPOSAL, np.arange(3)),
                              root.split(2, fl.PROPOSAL).normals_at(np.arange(3)))
        u = root.split(2, fl.ANCESTOR).uniforms_at(np.asarray([1]))
        assert plain.choose_one(2, fl.ANCESTOR, 1, probs) == int(distributions.categorical_sample_many(probs, u)[0])


class TestSeeds:
    """A filter's source: a draw backend, an RngStream, or a seed by RngStream's one rule."""

    @pytest.mark.parametrize("seed", [True, False, 3.7, 3.0, "3", None], ids=repr)
    def test_a_seed_that_is_no_integer_is_refused(self, seed):
        with pytest.raises(TypeError, match=re.escape(f"a seed (an integer that is not a bool), an RngStream or a "
                                                      f"draw backend, got {seed!r}")):
            fl.make_backend(seed)

    def test_implicit_passed_as_the_source_is_refused(self):
        """run_mpf(m, p, d, 4, True), meant as implicit=True, is no run of seed 1."""
        m, ds, params = lgssm_setup(t_max=2)
        with pytest.raises(TypeError, match="got True"):
            fl.run_mpf(m, params, ds, 4, True)

    def test_a_numpy_integer_is_the_same_seed(self):
        m, ds, params = lgssm_setup(t_max=2)
        want = fl.run_smc(m, params, ds, 3, 5).log_evidence.data
        for seed in (np.int64(5), np.uint8(5)):
            assert fl.run_smc(m, params, ds, 3, seed).log_evidence.data == want
        stream = RngStream(5)
        assert fl.make_backend(stream).rng is stream


class OneStepBackend:
    """A RandomBackend that serves one (t, purpose) read at a time: no run-level reads."""

    def __init__(self, rng):
        self.inner = fl.RandomBackend(rng)

    def uniforms(self, t, purpose, offsets):
        return self.inner.uniforms(t, purpose, offsets)

    def normals(self, t, purpose, offsets):
        return self.inner.normals(t, purpose, offsets)

    def choose_one(self, t, purpose, offset, probs):
        return self.inner.choose_one(t, purpose, offset, probs)


class CountingBackend(fl.RandomBackend):
    """A RandomBackend that counts its reads by kind and purpose."""

    def __init__(self, rng):
        super().__init__(rng)
        self.reads = []

    def run_uniforms(self, purpose, t_max, count):
        self.reads.append(("run_uniforms", purpose))
        return super().run_uniforms(purpose, t_max, count)

    def run_normals(self, purpose, t_max, count):
        self.reads.append(("run_normals", purpose))
        return super().run_normals(purpose, t_max, count)

    def uniforms(self, t, purpose, offsets):
        self.reads.append(("uniforms", purpose))
        return super().uniforms(t, purpose, offsets)

    def normals(self, t, purpose, offsets):
        self.reads.append(("normals", purpose))
        return super().normals(t, purpose, offsets)


def seam_cases():
    """(model, params, data) on LGSSM (d=2, T=4), the DMM (T=4) and the HMM (T=5)."""
    m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
    params = mo.proposal_init(m, 4)
    params["beta"][:] = 0.7
    dmm = mo.dmm_make(2, 3, 8, RngStream(4))
    h, tables = hmm_tables()
    return {
        "lgssm": (m, params, mo.generate(m, 4, RngStream(7))),
        "dmm": (dmm, mo.proposal_init(dmm, 4, RngStream(5)), mo.generate(dmm, 4, RngStream(12))),
        "hmm": (h, tables, mo.generate(h, 5, RngStream(13))),
    }


SEAM_RUNS = {
    "smc": lambda m, p, ds, be: fl.run_smc(m, p, ds, 4, be),
    "smc-no-resampling": lambda m, p, ds, be: fl.run_smc(m, p, ds, 4, be, resample=False),
    "mpf-none": lambda m, p, ds, be: fl.run_mpf(m, p, ds, 4, be),
    "mpf-unbiased": lambda m, p, ds, be: fl.run_mpf(m, p, ds, 4, be, implicit=True),
    "tmc": lambda m, p, ds, be: fl.run_tmc(m, p, ds, 4, be),
    "ipf": lambda m, p, ds, be: fl.run_ipf(m, p, ds, 4, 2, be),
}

# "-none": no gradient estimator to pick (the HMM's runs carry no gradient;
# "mpf-none" draws the mixture without the implicit node)
HMM_SEAM_RUNS = {
    "smc-none": SEAM_RUNS["smc"],
    "smc-no-resampling-none": SEAM_RUNS["smc-no-resampling"],
    **{kind: SEAM_RUNS[kind] for kind in ("mpf-none", "tmc", "ipf")},
}


class TestRunLevelReads:
    """A run reads each purpose once for all its steps, as step-by-step reads would."""

    @pytest.mark.parametrize(
        "kind,family",
        [(kind, family) for family in ("lgssm", "dmm") for kind in sorted(SEAM_RUNS)]
        + [(kind, "hmm") for kind in sorted(HMM_SEAM_RUNS)],
    )
    def test_one_step_backend_gives_the_same_run(self, family, kind):
        """Particles, weights and gradients are bit-identical under both backends.

        tmc and ipf need state-independent proposals, which the DMM has only
        at t=1, so on the DMM they run one step.  The HMM has no gradient.
        """
        model, p0, data = seam_cases()[family]
        if family == "dmm" and kind in ("tmc", "ipf"):
            data = data.ys[:1]

        def run(backend):
            if family == "hmm":
                return HMM_SEAM_RUNS[kind](model, p0, data, backend), []
            with ad.Tape():
                p = {k: ad.leaf(v) for k, v in p0.items()}
                out = SEAM_RUNS[kind](model, p, data, backend)
                names = sorted(p)
                grads = ad.grad(out.log_evidence, [p[k] for k in names])
            return out, grads

        for seed in (1, 2):
            a, ga = run(fl.RandomBackend(RngStream(seed)))
            b, gb = run(OneStepBackend(RngStream(seed)))
            for xa, xb in zip(a.particles + a.log_weights, b.particles + b.log_weights):
                assert np.array_equal(xa.data, xb.data)
            assert float(a.log_evidence.data) == float(b.log_evidence.data)
            for u, v in zip(ga, gb):
                assert np.array_equal(u, v)

    @pytest.mark.parametrize("kind,purposes", [
        ("smc", {fl.PROPOSAL, fl.ANCESTOR}),
        ("smc-no-resampling", {fl.PROPOSAL}),
        ("mpf-none", {fl.PROPOSAL, fl.ANCESTOR}),
        ("mpf-unbiased", {fl.PROPOSAL, fl.ANCESTOR}),
        ("tmc", {fl.PROPOSAL}),
        ("ipf", {fl.PROPOSAL, fl.PERM}),
    ])
    def test_one_read_per_purpose(self, kind, purposes):
        """No per-step read at all, ipf's permutation swaps included."""
        model, params, data = seam_cases()["lgssm"]
        backend = CountingBackend(RngStream(3))
        with ad.Tape():
            p = {k: ad.leaf(v) for k, v in params.items()}
            SEAM_RUNS[kind](model, p, data, backend)
        kinds = {fl.PROPOSAL: "run_normals", fl.ANCESTOR: "run_uniforms", fl.PERM: "run_uniforms"}
        assert sorted(backend.reads) == sorted((kinds[q], q) for q in purposes)

    @pytest.mark.parametrize("kind,purposes", [
        ("smc-none", {fl.PROPOSAL, fl.ANCESTOR}),
        ("smc-no-resampling-none", {fl.PROPOSAL}),
        ("mpf-none", {fl.PROPOSAL}),
        ("tmc", {fl.PROPOSAL}),
        ("ipf", {fl.PROPOSAL, fl.PERM}),
    ])
    def test_hmm_one_read_per_purpose(self, kind, purposes):
        """The HMM's choices, one per particle row included, read uniforms once per purpose."""
        model, params, data = seam_cases()["hmm"]
        backend = CountingBackend(RngStream(3))
        HMM_SEAM_RUNS[kind](model, params, data, backend)
        assert sorted(backend.reads) == sorted(("run_uniforms", q) for q in purposes)

    def test_run_reads_equal_step_reads(self):
        backend = fl.RandomBackend(RngStream(9))
        normals = backend.run_normals(fl.PROPOSAL, 5, 7)
        uniforms = backend.run_uniforms(fl.ANCESTOR, 5, 3)
        for t in range(1, 6):
            assert np.array_equal(normals[t - 1], backend.normals(t, fl.PROPOSAL, np.arange(7)))
            assert np.array_equal(uniforms[t - 1], backend.uniforms(t, fl.ANCESTOR, np.arange(3)))


class TestLogSpaceSafety:
    def test_long_runs_stay_finite(self):
        m = mo.lgssm_make(5, 5, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 200, RngStream(1))
        params = mo.proposal_init(m, 200)
        for runner in (
            lambda: fl.run_smc(m, params, ds, 8, 1),
            lambda: fl.run_mpf(m, params, ds, 8, 1),
        ):
            assert np.isfinite(float(runner().log_evidence.data))


def run_axis_cases():
    """name -> (model, params, data, continuous): the golden fixture's families."""
    import make_golden as mg

    cases = {name: (m, p, ds, True) for name, (m, p, ds, _) in mg.continuous_cases().items()}
    h, tables, hd = mg.hmm_case()
    cases["hmm-tables"] = (h, tables, hd, False)
    cases["hmm-default"] = (h, None, hd, False)
    return cases


class NanParticle(fl.RandomBackend):
    """Random draws whose PROPOSAL normals are NaN for particle 1 of the listed runs."""

    def __init__(self, rng, runs=None, nan_runs=(0,), n=3):
        super().__init__(rng, runs)
        self.nan_runs, self.n = nan_runs, n

    def run_normals(self, purpose, t_max, count):
        block = super().run_normals(purpose, t_max, count)
        d = count // self.n
        for r in self.nan_runs:
            block[:, r * count + d : r * count + 2 * d] = np.nan
        return block


class TestRunAxis:
    """A pass of R runs stacks their particle rows and equals the runs one at a time, bit for bit."""

    LABELS = np.asarray([4, 0, 7, 2, 9])

    @pytest.mark.parametrize("family", sorted(run_axis_cases()))
    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_pass_equals_runs_one_at_a_time(self, family, n):
        import make_golden as mg

        model, params, data, continuous = run_axis_cases()[family]
        root = RngStream(31)
        for name, runner in mg._filter_runs(model, params, data, n, continuous).items():
            stacked = runner(fl.RandomBackend(root, self.LABELS))
            assert stacked.runs == len(self.LABELS) and stacked.n_particles == n
            for r, label in enumerate(self.LABELS):
                alone = runner(fl.RandomBackend(root.split(int(label))))
                rows = slice(r * n, (r + 1) * n)
                for a, b in zip(stacked.particles + stacked.log_weights, alone.particles + alone.log_weights):
                    assert np.array_equal(a.data[rows], b.data), (name, r)
                for a, b in zip(stacked.log_mean_weights, alone.log_mean_weights):
                    assert a.data[r] == b.data, (name, r)
                assert stacked.log_evidence.data[r] == alone.log_evidence.data, (name, r)

    def test_pass_is_off_tape_only(self):
        m, ds, params = lgssm_setup(t_max=3)
        backend = fl.RandomBackend(RngStream(1), [0, 1])
        for run in (
            lambda: fl.run_smc(m, params, ds, 4, backend),
            lambda: fl.run_mpf(m, params, ds, 4, backend),
            lambda: fl.run_ipf(m, params, ds, 4, 2, backend),
            lambda: fl.run_tmc(m, params, ds, 4, backend),
        ):
            with ad.Tape(), pytest.raises(ValueError, match="off tape only"):
                run()
        with ad.Tape():  # a pass of one run is a run
            fl.run_smc(m, params, ds, 4, fl.RandomBackend(RngStream(1), [0]))

    def test_nan_weight_is_degeneracy(self):
        """One NaN weight among finite ones stops the run at its step, not in the next step's sampler."""
        m, ds, params = lgssm_setup(t_max=3)
        for run in (fl.run_smc, fl.run_mpf, fl.run_tmc):
            with pytest.raises(fl.DegeneracyError, match="t=1 in run 0") as err:
                run(m, params, ds, 3, NanParticle(RngStream(2)))
            assert (err.value.t, err.value.sample, err.value.label) == (1, 0, "run")

    def test_pass_names_its_lowest_degenerate_run(self):
        m, ds, params = lgssm_setup(t_max=3)
        with pytest.raises(fl.DegeneracyError, match="t=1 in run 2") as err:
            fl.run_smc(m, params, ds, 3, NanParticle(RngStream(2), [5, 6, 7, 8, 9], nan_runs=(4, 2)))
        assert err.value.sample == 2

    @pytest.mark.parametrize("weights,degenerate", [
        ([np.nan, 0.0], True),
        ([np.inf, 0.0], True),
        ([-np.inf, -np.inf], True),
        ([-np.inf, 0.0], False),
        ([-700.0, 3.0], False),
    ])
    def test_check_alive(self, weights, degenerate):
        """The step loop's check, through a stub rule: the last run's step 3 gives these weights.

        A lone run and a pass of three runs; the pass names run 2.
        """
        m, ds, params = lgssm_setup(t_max=4)

        def step(bound, draws, t, x, logw, lse):
            rows = np.zeros((draws.runs, 2))
            if t == 3:
                rows[-1] = weights
            return None, ad.constant(rows.reshape(-1))

        for source, last in ((1, 0), (fl.RandomBackend(RngStream(1), [5, 6, 7]), 2)):
            if degenerate:
                with pytest.raises(fl.DegeneracyError, match=f"t=3 in run {last}") as err:
                    fl._filter("stub", m, params, ds, 2, source, step, False)
                assert (err.value.t, err.value.sample) == (3, last)
            else:
                run = fl._filter("stub", m, params, ds, 2, source, step, False)
                assert run.t_max == 4 and np.all(np.isfinite(run.log_evidence.data))

    def test_degeneracy_names_its_cause(self):
        """The step's largest log weight names the cause: -inf when every weight
        is zero, NaN or +inf otherwise; alone and in a pass of three runs.

        Every weight is zero at t=1 in an HMM whose prior starts in state 0
        while symbol 1 is emitted from state 1 only, and in an LGSSM whose
        proposal log-std is 400: z * z overflows, so the prior and emission
        densities of every draw are zero.  At log-std -400 the MPF pair
        kernel's exp(-2 log-std) overflows and leaves a NaN weight at t=2.
        The LGSSM cases keep numpy's overflow warning.
        """
        h = mo.DiscreteHmm(np.asarray([1.0, 0.0]), np.asarray([[0.9, 0.1], [0.1, 0.9]]),
                           np.asarray([[1.0, 0.0], [0.0, 1.0]]))
        m, ds, wide = lgssm_setup(t_max=3, dx=2, dy=2)
        narrow = {k: v.copy() for k, v in wide.items()}
        wide["log_sigma"][:] = 400.0
        narrow["log_sigma"][:] = -400.0
        zero, nan = "every weight is zero", "a weight is NaN or +inf"
        cases = [(run, h, None, np.asarray([[1.0], [0.0]]), 1, zero) for run in (fl.run_smc, fl.run_mpf, fl.run_tmc)]
        cases += [(run, m, wide, ds, 1, zero) for run in (fl.run_smc, fl.run_mpf, fl.run_tmc)]
        cases += [(fl.run_mpf, m, narrow, ds, 2, nan)]
        for source in (1, fl.RandomBackend(RngStream(1), [4, 5, 6])):
            for run, model, params, data, t, cause in cases:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    with pytest.raises(fl.DegeneracyError, match=re.escape(f"t={t} in run 0: {cause}")) as err:
                        run(model, params, data, 3, source)
                assert (err.value.t, err.value.cause) == (t, cause)
                overflowed = any("overflow" in str(w.message) for w in caught)
                assert overflowed == (model is m), (run.__name__, cause)
