"""Objectives: bound wiring, gradient exactness, Adam, and the train loop."""

import gc
import math
import re
import threading
import warnings

import numpy as np
import pytest

import particlevi.autodiff as ad
from particlevi import filters as fl
from particlevi import models as mo
from particlevi import objectives as ob
from particlevi.rng import RngStream


def lgssm_case(t_max=3, seed=7):
    m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
    ds = mo.generate(m, t_max, RngStream(seed))
    return m, ds, mo.proposal_init(m, t_max)


def bound_cases() -> dict:
    """name -> (model, params, data): the golden fixture's families and non-default proposals."""
    import make_golden as mg

    cases = {name: case[:3] for name, case in mg.continuous_cases().items()}
    cases["hmm-tables"] = mg.hmm_case()
    return cases


def bound_kinds(model) -> list:
    """The kinds a model runs: tmc needs state-independent proposals, and the HMM has no implicit draw."""
    kinds = [k for k in ob.KINDS if k != "tmc" or isinstance(model, (mo.Lgssm, mo.DiscreteHmm))]
    return [k for k in kinds if k != "vmpf-ug" or not isinstance(model, mo.DiscreteHmm)]


def smoothing_proposal(m, ys):
    """Exact p(x_t | x_{t-1}, y_{t:T}) for a d=1 LGSSM.

    Backward pass: p(y_{t:T} | x_t) has log-quadratic coefficients
    (-s_t/2, m_t); combining with the transition (prior at t=1) gives the
    conditional posterior the proposal family can represent exactly, so
    log p-hat is constant and equal to the evidence for any N.
    """
    a, q = float(m.a[0, 0]), float(m.q_diag[0])
    c, r = float(m.c[0, 0]), float(m.r_diag[0])
    t_max = ys.shape[0]
    s = np.zeros(t_max + 1)
    mm = np.zeros(t_max + 1)
    for t in range(t_max - 1, -1, -1):
        u = s[t + 1] / (1.0 + q * s[t + 1])
        w = mm[t + 1] / (1.0 + q * s[t + 1])
        s[t] = c * c / r + a * a * u
        mm[t] = c * ys[t, 0] / r + a * w
    p = mo.proposal_init(m, t_max)
    lam = 1.0 + s[0]  # x1 prior is N(0, 1)
    p["mu"][0, 0] = mm[0] / lam
    p["log_sigma"][0, 0] = -0.5 * math.log(lam)
    for t in range(1, t_max):
        lam = 1.0 / q + s[t]
        p["mu"][t, 0] = mm[t] / lam
        p["beta"][t, 0] = (1.0 / q) / lam
        p["log_sigma"][t, 0] = -0.5 * math.log(lam)
    return p


class TestObjective:
    def test_kind_and_count_validation(self):
        m, ds, p = lgssm_case()
        with pytest.raises(ValueError, match="kind"):
            ob.Objective("elbo", m, p, 2)
        with pytest.raises(ValueError):
            ob.Objective("vsmc", m, p, 0)

    def test_particle_count_must_be_an_integer(self):
        """2.5 used to pass and fail in the first filter's reshape, and True (an
        ``Integral``) passed as one particle; numpy integers still pass."""
        m, ds, p = lgssm_case()
        for count in (2.5, True):
            with pytest.raises(ValueError, match=f"n_particles must be an integer >= 1, got {count}"):
                ob.Objective("vsmc", m, p, count)
        assert ob.Objective("vsmc", m, p, np.int64(2)).n_particles == 2

    def test_kind_is_case_insensitive(self):
        m, ds, p = lgssm_case()
        assert ob.Objective("VMPF-BG", m, p, 2).kind == "vmpf-bg"

    def test_learn_theta_needs_a_learnable_family(self):
        m, ds, p = lgssm_case()
        with pytest.raises(ValueError, match="learnable"):
            ob.Objective("vsmc", m, p, 2, learn_theta=True)


class TestObjectiveValue:
    def test_n1_every_kind_identical(self):
        # beta = 0 keeps the proposal state-independent, so tmc shares draws too
        m, ds, p = lgssm_case()
        p["beta"][:] = 0.0
        p["mu"] += 0.3
        vals = {
            k: float(ob.objective_value(ob.Objective(k, m, p, 1), ds, RngStream(42)).data)
            for k in ob.KINDS
        }
        for k in ("vsmc", "vmpf-bg", "vmpf-ug"):
            assert vals[k] == vals["iwvi"]
        # tmc accumulates its increments in a different association order
        assert vals["tmc"] == pytest.approx(vals["iwvi"], abs=1e-12)

    def test_matches_the_underlying_filter(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("iwvi", m, p, 3)
        got = float(ob.objective_value(o, ds, RngStream(5)).data)
        run = fl.run_smc(m, p, ds, 3, fl.RandomBackend(RngStream(5)), resample=False)
        assert got == float(run.log_evidence.data)

    def test_smoothing_proposal_is_exact_for_iwvi(self):
        # without resampling every path weight telescopes to the evidence,
        # so the estimator is zero-variance draw by draw
        m, ds, _ = lgssm_case(t_max=4)
        kal = mo.kalman_loglik(m, ds.ys)
        prop = smoothing_proposal(m, ds.ys)
        for n in (1, 4):
            vals = np.array(
                [float(ob.objective_value(ob.Objective("iwvi", m, prop, n), ds, RngStream(i)).data) for i in range(12)]
            )
            assert np.ptp(vals) < 1e-12
            assert abs(vals.mean() - kal) < 1e-10

    def test_smoothing_proposal_tightens_resampling_kinds(self):
        # resampling reintroduces per-step noise, but the bound gap
        # at the optimal proposal stays a small fraction of a nat
        m, ds, _ = lgssm_case(t_max=4)
        kal = mo.kalman_loglik(m, ds.ys)
        prop = smoothing_proposal(m, ds.ys)
        for kind, n in (("vsmc", 3), ("vmpf-bg", 2)):
            vals = np.array(
                [float(ob.objective_value(ob.Objective(kind, m, prop, n), ds, RngStream(i)).data) for i in range(40)]
            )
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert vals.mean() <= kal + 3 * se
            assert vals.mean() > kal - 0.5


def named(obj, grad) -> dict:
    """A gradient vector's ``param_layout`` slices, by name and in their packed shapes."""
    return {k: grad[sl].reshape(shape) for k, shape, sl in ob.param_layout(ob.pack_params(obj))}


class TestGradients:
    def grads_of(self, kind, m, p, ds, n, seed=5):
        """(value, name -> gradient slice) of one gradient call."""
        o = ob.Objective(kind, m, p, n)
        fn = ob.gradient_unbiased if kind == "vmpf-ug" else ob.gradient_biased
        value, grad = fn(o, ds, RngStream(seed))
        return value, named(o, grad)

    @pytest.mark.parametrize("kind", ["iwvi", "tmc"])
    def test_reparameterized_kinds_match_finite_differences(self, kind):
        m, ds, p = lgssm_case()
        _, grads = self.grads_of(kind, m, p, ds, 3)
        h = 1e-6
        for arr, key in (("mu", "phi.mu"), ("log_sigma", "phi.log_sigma")):
            for t in range(3):
                pa = {k: v.copy() for k, v in p.items()}
                pb = {k: v.copy() for k, v in p.items()}
                pa[arr][t, 0] += h
                pb[arr][t, 0] -= h
                va = float(ob.objective_value(ob.Objective(kind, m, pa, 3), ds, RngStream(5)).data)
                vb = float(ob.objective_value(ob.Objective(kind, m, pb, 3), ds, RngStream(5)).data)
                fd = (va - vb) / (2 * h)
                assert abs(grads[key][t, 0] - fd) / max(abs(fd), 1.0) < 1e-5

    @pytest.mark.parametrize("kind", ["vsmc", "vmpf-ug"])
    @pytest.mark.parametrize("family", ["lgssm", "dmm-vem"])
    def test_gradient_names_follow_pack_params(self, family, kind):
        """The gradient is one float64 vector in ``param_layout(pack_params(obj))``
        order: each named slice is, bit for bit, that name's gradient on an
        independent tape with one leaf per packed array.  One order from the
        tape to Adam."""
        if family == "lgssm":
            m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        else:
            m = mo.dmm_make(2, 3, 4, RngStream(0))
        obj = ob.Objective(kind, m, mo.proposal_init(m, 3, RngStream(1)), 3, learn_theta=family == "dmm-vem")
        ds = mo.generate(m, 3, RngStream(7))
        fn = ob.gradient_unbiased if kind == "vmpf-ug" else ob.gradient_biased
        value, grad = fn(obj, ds, RngStream(5))
        packed = ob.pack_params(obj)
        with ad.Tape():
            leaves = {k: ad.leaf(v) for k, v in packed.items()}
            loss = ob.objective_value(ob.apply_params(obj, leaves), ds, RngStream(5))
            want = ad.grad(loss, list(leaves.values()))
        assert value == float(loss.data)
        assert grad.dtype == np.float64 and grad.shape == (sum(a.size for a in packed.values()),)
        for (k, shape, sl), w in zip(ob.param_layout(packed), want, strict=True):
            assert np.array_equal(grad[sl].reshape(shape), w), k
        assert {k.split(".")[0] for k in packed} == ({"phi", "theta"} if obj.learn_theta else {"phi"})

    def test_kind_gates(self):
        m, ds, p = lgssm_case()
        with pytest.raises(ValueError, match="unbiased"):
            ob.gradient_biased(ob.Objective("vmpf-ug", m, p, 2), ds, RngStream(1))
        with pytest.raises(ValueError, match="vmpf-ug"):
            ob.gradient_unbiased(ob.Objective("vsmc", m, p, 2), ds, RngStream(1))

    def test_n1_biased_equals_unbiased(self):
        m, ds, p = lgssm_case()
        _, gb = self.grads_of("vmpf-bg", m, p, ds, 1)
        _, gu = self.grads_of("vmpf-ug", m, p, ds, 1)
        for k in gb:
            assert np.max(np.abs(gb[k] - gu[k])) < 1e-10

    def test_parameters_beyond_t_get_exact_zeros(self):
        m, ds, p = lgssm_case(t_max=3)
        wide = mo.proposal_init(m, 5)
        wide["mu"][:3] = p["mu"]
        _, grads = self.grads_of("vmpf-ug", m, wide, ds, 2)
        for k, g in grads.items():
            assert np.all(g[3:] == 0.0), k

    @pytest.mark.parametrize("family", ["lgssm", "sv", "dmm"])
    def test_tape_holds_no_reference_cycle(self, family):
        """A rule closes over arrays, never over a Var, so a tape and its Vars are freed by reference counting.

        Two gradients of every kind the family runs (with VEM where it has
        model parameters), then two ``train`` iterations that probe the
        gradient variance at each (so every caller of the gradient runs),
        the cyclic collector off throughout, leave nothing for it to find.
        ``objectives._gradient`` pauses the collector on this contract.
        """
        model = {
            "lgssm": lambda: mo.lgssm_make(3, 3, 0.42, "sparse", RngStream(0)),
            "sv": lambda: mo.sv_make(3, "triangular", RngStream(0)),
            "dmm": lambda: mo.dmm_make(3, 4, 8, RngStream(0)),
        }[family]()
        ds = mo.generate(model, 4, RngStream(7))
        params = mo.proposal_init(model, 4, RngStream(1))
        objs = [ob.Objective(kind, model, params, 4, learn_theta=family != "lgssm") for kind in bound_kinds(model)]
        gc.collect()
        gc.disable()
        try:
            for obj in objs:
                fn = ob.gradient_unbiased if obj.kind == "vmpf-ug" else ob.gradient_biased
                for seed in (1, 2):
                    fn(obj, ds, RngStream(seed))
                ob.train(obj, ds, [(0.01, 2)], 3, probe_every=1, probe_samples=2)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @staticmethod
    def tape_size(monkeypatch, obj, ds):
        """Nodes on the tape of one gradient call of the objective's kind."""
        counts = []
        grad = ad.grad

        def counting_grad(loss, wrt):
            counts.append(len(loss.tape.nodes))
            return grad(loss, wrt)

        monkeypatch.setattr(ad, "grad", counting_grad)
        grad_fn = ob.gradient_unbiased if obj.kind == "vmpf-ug" else ob.gradient_biased
        grad_fn(obj, ds, RngStream(3))
        assert len(counts) == 1
        return counts[0]

    @staticmethod
    def lgssm_tape_size(monkeypatch, kind):
        m = mo.lgssm_make(10, 10, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 10, RngStream(7))
        obj = ob.Objective(kind, m, mo.proposal_init(m, 10), 16)
        return TestGradients.tape_size(monkeypatch, obj, ds)

    # One gradient on the lgssm-train shape (d=10, T=10, N=16) stays small.
    # Each density kernel, draw and proposal mean is one node, and a vsmc
    # step's weight f g / r is one ``gauss_draw_ratio`` node where two row
    # kernels, an add and a sub stood.  The run's log evidence is one node
    # over the ten step logsumexps where ten subs and nine adds stood, so a
    # step records about 9 nodes: 92 in all for vsmc.  An MPF step's weight
    # is one pair-kernel node where two mixture nodes, an add and a sub
    # stood, so vmpf-bg and vmpf-ug record 92 too.  The budgets catch a kernel that
    # falls back to elementwise ops (a three-op draw adds 20 nodes, a
    # five-op proposal mean 36, widening vmpf-ug's shared log-std for its
    # implicit draw 9).

    def test_vsmc_tape_budget(self, monkeypatch):
        assert self.lgssm_tape_size(monkeypatch, "vsmc") <= 150

    def test_vmpf_bg_tape_budget(self, monkeypatch):
        assert self.lgssm_tape_size(monkeypatch, "vmpf-bg") <= 150

    def test_vmpf_ug_tape_budget(self, monkeypatch):
        assert self.lgssm_tape_size(monkeypatch, "vmpf-ug") <= 150

    def test_dmm_vsmc_tape_budget(self, monkeypatch):
        """One VEM gradient on the dmm-vem-train shape (dx=5, dy=20, dh=16,
        T=10, N=16) stays small.

        Each network layer, Bernoulli emission, Gaussian product output,
        draw and step weight is one node, and so is the log evidence, so the
        gradient records 195 nodes; the budget
        catches a layer that falls back to elementwise ops.
        """
        m = mo.dmm_make(5, 20, 16, RngStream(0))
        ds = mo.generate(m, 10, RngStream(7))
        obj = ob.Objective("vsmc", m, mo.proposal_init(m, 10, RngStream(1)), 16, learn_theta=True)
        assert self.tape_size(monkeypatch, obj, ds) <= 250

    @staticmethod
    def vem_tape_sizes(monkeypatch, model) -> tuple:
        """Nodes of one vsmc VEM gradient (N=16) at T=10 and at T=11."""
        sizes = []
        for t_max in (10, 11):
            ds = mo.generate(model, t_max, RngStream(7))
            obj = ob.Objective("vsmc", model, mo.proposal_init(model, t_max, RngStream(1)), 16, learn_theta=True)
            sizes.append(TestGradients.tape_size(monkeypatch, obj, ds))
        return tuple(sizes)

    def test_sv_vem_step_budget(self, monkeypatch):
        """SV (d=5, triangular) builds B, log det B and Phi once per run, not per
        step (41 nodes per step when they were rebuilt), and a step's transition
        rows once for its proposal and log f (30 when built twice): at most 27
        nodes per step and 281 at T=10."""
        at_10, at_11 = self.vem_tape_sizes(monkeypatch, mo.sv_make(5, "triangular", RngStream(0)))
        assert at_10 <= 281
        assert at_11 - at_10 <= 27

    def test_dmm_vem_step_budget(self, monkeypatch):
        """The DMM's observation encoder runs once per run over all T rows: a step adds at most 23 nodes."""
        at_10, at_11 = self.vem_tape_sizes(monkeypatch, mo.dmm_make(5, 20, 16, RngStream(0)))
        assert at_11 - at_10 <= 23

    def test_lgssm_tape_size_is_pinned(self, monkeypatch):
        """Binding lifts the LGSSM's constants once and adds no node: 92 for
        vsmc, whose step weight takes one ``gauss_draw_ratio`` node beside
        the emission's where four stood, and whose log evidence is one node
        where 19 stood (110).  From t=2 on, an MPF step's weight is one
        ``gauss_mixture_pair`` node beside the emission's, and step 1 is
        vsmc's: 92 for vmpf-bg and vmpf-ug."""
        for kind, nodes in (("vsmc", 92), ("vmpf-bg", 92), ("vmpf-ug", 92)):
            assert self.lgssm_tape_size(monkeypatch, kind) == nodes, kind

    def test_dmm_vmpf_bg_tape_size_is_pinned(self, monkeypatch):
        """One vmpf-bg VEM gradient on the dmm-vem-train shape records 195
        nodes, as many as vsmc's: each of its nine mixture steps scores the
        per-component transition and proposal mixtures and log g in one node,
        as each vsmc step scores f g / r in one node.  The log evidence is one
        node over the ten step logsumexps where 19 stood (213)."""
        m = mo.dmm_make(5, 20, 16, RngStream(0))
        ds = mo.generate(m, 10, RngStream(7))
        obj = ob.Objective("vmpf-bg", m, mo.proposal_init(m, 10, RngStream(1)), 16, learn_theta=True)
        assert self.tape_size(monkeypatch, obj, ds) == 195

    def test_tmc_one_particle_tape_size_is_pinned(self, monkeypatch):
        """A tmc gradient on the lgssm-train shape records 110 nodes at N=1, as
        at N=2: from t=2 on, a step at N=1 scores its one-row mixture, f plus
        the log-weight, in one node where a row node and an add stood (128).
        tmc reads its log evidence off the last step only: one node over that
        step's logsumexp where a sub on each of the ten stood (119)."""
        m = mo.lgssm_make(10, 10, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 10, RngStream(7))
        for n in (1, 2):
            assert self.tape_size(monkeypatch, ob.Objective("tmc", m, mo.proposal_init(m, 10), n), ds) == 110, n

    @pytest.mark.parametrize("family", ["dmm", "sv"])
    def test_vem_gradients_match_finite_differences(self, family):
        """iwvi under VEM, end to end: in every phi and theta array, the
        coordinate with the largest gradient against central differences."""
        if family == "dmm":
            m = mo.dmm_make(2, 3, 4, RngStream(4))
            p = mo.proposal_init(m, 3, RngStream(5))
            # nonzero biases: with the zero initial ones, every hidden unit
            # of the t=1 networks (input x_0 = 0) sits on the leaky kink
            for k, params in enumerate((p, m.params)):
                for j, name in enumerate(sorted(params)):
                    if name.endswith("_b"):
                        params[name] = RngStream(6).split(k, j).normals(params[name].size)
        else:
            m = mo.sv_make(2, "triangular", RngStream(3))
            p = mo.proposal_init(m, 3)
            p["mu"] += 0.2
            p["log_sigma"] -= 0.3
        ds = mo.generate(m, 3, RngStream(8))
        obj = ob.Objective("iwvi", m, p, 3, learn_theta=True)
        grads = named(obj, ob.gradient_biased(obj, ds, RngStream(5))[1])
        packed = ob.pack_params(obj)
        assert set(grads) == set(packed)
        assert any(k.startswith("theta.") for k in packed)
        h = 1e-6

        def value_at(key, j, delta):
            bumped = {k: v.copy() for k, v in packed.items()}
            bumped[key].reshape(-1)[j] += delta
            return float(ob.objective_value(ob.apply_params(obj, bumped), ds, RngStream(5)).data)

        for key in sorted(packed):
            flat = grads[key].reshape(-1)
            j = int(np.argmax(np.abs(flat)))
            fd = (value_at(key, j, h) - value_at(key, j, -h)) / (2 * h)
            assert fd != 0.0, key
            assert abs(flat[j] - fd) / max(abs(fd), 1.0) < 1e-5, key

    def test_vem_reaches_model_parameters(self):
        sv = mo.sv_make(1, "diagonal", RngStream(2))
        ds = mo.generate(sv, 4, RngStream(6))
        o = ob.Objective("vsmc", sv, mo.proposal_init(sv, 4), 3, learn_theta=True)
        grads = named(o, ob.gradient_biased(o, ds, RngStream(1))[1])
        assert {"theta.mu", "theta.phi_logit", "theta.log_q_std", "theta.b_raw"} <= set(grads)
        assert np.any(grads["theta.mu"] != 0.0)
        assert np.any(grads["theta.phi_logit"] != 0.0)


class TestCollectorPause:
    """A gradient pauses the cyclic collector while its tape lives, and leaves it as it found it."""

    FAMILIES = {
        "lgssm": lambda: mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0)),
        "dmm-vem": lambda: mo.dmm_make(2, 3, 4, RngStream(0)),
    }

    @pytest.mark.parametrize("family, kind", [("lgssm", k) for k in ob.KINDS]
                             + [("dmm-vem", k) for k in ob.KINDS if k != "tmc"])
    def test_training_runs_no_collection(self, family, kind):
        """No collection of any generation during 30 iterations.  A T = 10
        tape holds more objects than generation 0's threshold, so with the
        collector on during the gradient there is about one collection an
        iteration.  ``gc.collect()`` also empties the interpreter's free
        lists, so the first gradient after it allocates afresh what later
        ones take from those lists, and leaves generation 0's count high:
        how high depends on the tape's size, and a collection, over no
        tape, follows at some later allocation.  The uncounted iteration
        refills the lists, and a generation-0 collection after it clears
        that count, so the counted iterations start from zero."""
        model = self.FAMILIES[family]()
        ds = mo.generate(model, 10, RngStream(7))
        obj = ob.Objective(kind, model, mo.proposal_init(model, 10, RngStream(1)), 4,
                           learn_theta=family == "dmm-vem")
        generations = []

        def count(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.collect()
        ob.train(obj, ds, [(0.01, 1)], 2)
        gc.collect(0)
        gc.callbacks.append(count)
        try:
            ob.train(obj, ds, [(0.01, 30)], 3)
        finally:
            gc.callbacks.remove(count)
        assert generations == []

    def test_collector_left_as_found(self):
        m, ds, p = lgssm_case()
        obj = ob.Objective("vsmc", m, p, 3)
        try:
            for enabled in (True, False, True):
                gc.enable() if enabled else gc.disable()
                ob.gradient_biased(obj, ds, RngStream(1))
                assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("make, kind, log_sigma", [
        (lambda: mo.sv_make(2, "triangular", RngStream(0)), "vsmc", 400.0),
        (lambda: mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0)), "vmpf-bg", -400.0),
    ], ids=["sv-vsmc-plus-400", "lgssm-vmpf-bg-minus-400"])
    def test_collector_restored_after_a_degenerate_run(self, make, kind, log_sigma):
        """A ``DegeneracyError`` raised inside the tape leaves the collector as it was."""
        m = make()
        ds = mo.generate(m, 3, RngStream(1))
        p = mo.proposal_init(m, 3)
        p["log_sigma"][:] = log_sigma
        obj = ob.Objective(kind, m, p, 3)
        try:
            for enabled in (True, False):
                gc.enable() if enabled else gc.disable()
                with pytest.raises(fl.DegeneracyError):
                    ob.gradient_biased(obj, ds, RngStream(1))
                assert gc.isenabled() is enabled
        finally:
            gc.enable()


def adam_state(lr, sizes: dict, clip=None) -> ob.AdamState:
    """An AdamState over 1-D parameters of the given sizes, laid out in dict order."""
    return ob.AdamState(lr=lr, layout=ob.param_layout({k: np.zeros(n) for k, n in sizes.items()}), clip=clip)


class ReferenceAdam:
    """The per-parameter Adam loop over name -> array dicts, the reference of the flat adam_step."""

    def __init__(self, lr, clip=None):
        self.lr, self.clip, self.step, self.m, self.v = lr, clip, 0, {}, {}

    def __call__(self, params: dict, grads: dict) -> tuple:
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if self.clip is not None and norm > self.clip:
            grads = {k: g * (self.clip / norm) for k, g in grads.items()}
        self.step += 1
        c1 = 1.0 - ob._BETA1**self.step
        c2 = 1.0 - ob._BETA2**self.step
        out = {}
        for k, g in grads.items():
            m, v = self.m.get(k), self.v.get(k)
            m = (1.0 - ob._BETA1) * g if m is None else ob._BETA1 * m + (1.0 - ob._BETA1) * g
            v = (1.0 - ob._BETA2) * g * g if v is None else ob._BETA2 * v + (1.0 - ob._BETA2) * g * g
            self.m[k], self.v[k] = m, v
            out[k] = params[k] + self.lr * (m / c1) / (np.sqrt(v / c2) + ob._ADAM_EPS)
        return out, norm


class TestAdam:
    def test_zero_gradient_no_move(self):
        st = adam_state(0.1, {"phi.mu": 3})
        out, norm = ob.adam_step(st, np.ones(3), np.zeros(3))
        np.testing.assert_array_equal(out, np.ones(3))
        assert norm == 0.0

    def test_constant_gradient_approaches_signed_step(self):
        st = adam_state(0.01, {"p": 1})
        params, g = np.array([0.0]), np.array([3.7])
        prev = params.copy()
        for _ in range(400):
            params, _ = ob.adam_step(st, params, g)
        step = params - prev
        # 400 steps in: the last increment is lr * sign(g) to high accuracy
        last = ob.adam_step(st, params, g)[0] - params
        assert abs(last[0] - 0.01) < 1e-6
        assert step[0] > 0

    def test_clip_rescales_to_threshold(self):
        g = np.array([120.0, 160.0])  # norm 200
        clipped, norm = ob.adam_step(adam_state(0.5, {"a": 1, "b": 1}, clip=100.0), np.zeros(2), g)
        halved, _ = ob.adam_step(adam_state(0.5, {"a": 1, "b": 1}), np.zeros(2), g / 2)
        np.testing.assert_allclose(clipped, halved, atol=1e-15)
        assert norm == 200.0  # the raw norm, before the clip

    def test_non_finite_gradient_names_the_parameter(self):
        """The first non-finite parameter in sorted order, not in layout order; nothing moves."""
        st = adam_state(0.1, {"theta.w": 2, "phi.mu": 2, "phi.sigma": 1})
        with pytest.raises(ValueError, match="'phi.mu' at iteration 0"):
            ob.adam_step(st, np.zeros(5), np.array([np.inf, 1.0, 1.0, np.nan, 1.0]))
        assert st.step == 0 and st.m is None and st.v is None
        ob.adam_step(st, np.zeros(5), np.ones(5))
        m, v = st.m.copy(), st.v.copy()
        with pytest.raises(ValueError, match="'phi.sigma' at iteration 1"):
            ob.adam_step(st, np.zeros(5), np.array([1.0, 1.0, 1.0, 1.0, -np.inf]))
        assert st.step == 1
        np.testing.assert_array_equal(st.m, m)
        np.testing.assert_array_equal(st.v, v)

    def test_moments_match_parameter_shapes(self):
        layout = ob.param_layout({"w": np.zeros((2, 3)), "b": np.zeros(2)})
        assert layout == (("w", (2, 3), slice(0, 6)), ("b", (2,), slice(6, 8)))
        st = ob.AdamState(lr=0.1, layout=layout)
        ob.adam_step(st, np.zeros(8), np.ones(8))
        assert st.m.shape == (8,) and st.v.shape == (8,)

    @pytest.mark.parametrize("clip", [None, 3.0])
    def test_flat_adam_matches_per_parameter_reference(self, clip):
        """50 steps over mixed shapes, one parameter frozen: the same bits as the
        per-parameter loop without a clip, and within 1e-15 with one (the
        flat norm is one dot product, so it and the clip scale may move in
        the last bits)."""
        gen = np.random.default_rng(0)
        shapes = {"phi.mu": (4, 3), "phi.beta": (3,), "theta.w": (2, 2, 2), "theta.b": ()}
        params = {k: np.asarray(gen.normal(size=s)) for k, s in shapes.items()}
        layout = ob.param_layout(params)
        st, ref = ob.AdamState(lr=0.05, layout=layout, clip=clip), ReferenceAdam(0.05, clip)
        theta = np.concatenate([params[k].ravel() for k, _, _ in layout])
        clipped = 0
        for _ in range(50):
            grads = {k: gen.normal(size=s) * gen.uniform(0.2, 2.0) for k, s in shapes.items()}
            grads["phi.beta"] = np.zeros(3)  # frozen, as train zeroes its slice
            params, want_norm = ref(params, grads)
            theta, norm = ob.adam_step(st, theta, np.concatenate([grads[k].ravel() for k, _, _ in layout]))
            assert abs(norm - want_norm) <= 1e-14 * want_norm
            clipped += clip is not None and want_norm > clip
            for k, shape, sl in layout:
                got = theta[sl].reshape(shape)
                if clip is None:
                    np.testing.assert_array_equal(got, params[k])
                else:
                    np.testing.assert_allclose(got, params[k], rtol=1e-15, atol=1e-15)
        assert st.step == 50 and (clip is None or 0 < clipped < 50)


class TestTrain:
    def test_zero_iterations_change_nothing(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 3)
        trained, rec = ob.train(o, ds, [(0.01, 0)], 1)
        assert not rec.rows
        for k in p:
            np.testing.assert_array_equal(trained.params[k], p[k])

    def test_empty_schedule_rejected(self):
        m, ds, p = lgssm_case()
        with pytest.raises(ValueError, match="schedule"):
            ob.train(ob.Objective("vsmc", m, p, 3), ds, [], 1)

    def test_bad_settings_rejected_before_training(self, monkeypatch):
        """A clip <= 0 would reverse or freeze the ascent; bad probing would fail late."""
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 3)
        monkeypatch.setattr(ob, "gradient_biased", None)  # no iteration may start
        for kwargs in ({"clip": 0.0}, {"clip": -1.0}, {"probe_every": -1},
                       {"probe_every": 2, "probe_samples": 1}):
            with pytest.raises(ValueError, match="clip|probe"):
                ob.train(o, ds, [(0.01, 3)], 1, **kwargs)
        # every segment is checked first, also one after a good segment
        for bad in ((math.nan, 3), (math.inf, 3), (-0.01, 3), (0.01, -1), (0.01, 2.5), (0.01, True)):
            with pytest.raises(ValueError, match="schedule segment"):
                ob.train(o, ds, [(0.01, 3), bad], 1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"probe_every": 1, "probe_samples": 2.5}, "probe_samples must be an integer >= 2, got 2.5"),
        ({"probe_every": 1.5}, "probe_every must be an integer >= 0, got 1.5"),
    ], ids=["probe_samples", "probe_every"])
    def test_probe_settings_must_be_integers(self, kwargs, message, monkeypatch):
        """Refused before the first gradient, not from inside the probe's range."""
        m, ds, p = lgssm_case()
        monkeypatch.setattr(ob, "gradient_biased", None)  # no iteration may start
        with pytest.raises(ValueError, match=re.escape(message)):
            ob.train(ob.Objective("vsmc", m, p, 3), ds, [(0.01, 3)], 1, **kwargs)

    def test_deterministic_given_seed(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vmpf-bg", m, p, 3)
        t1, r1 = ob.train(o, ds, [(0.05, 25)], 3)
        t2, r2 = ob.train(o, ds, [(0.05, 25)], 3)
        np.testing.assert_array_equal(r1.column("objective"), r2.column("objective"))
        np.testing.assert_array_equal(r1.column("grad_norm"), r2.column("grad_norm"))
        for k in t1.params:
            np.testing.assert_array_equal(t1.params[k], t2.params[k])

    def test_bound_improves(self):
        m, ds, p = lgssm_case()
        p = {k: v.copy() for k, v in p.items()}
        p["mu"] += 2.0  # start well away from the optimum
        o = ob.Objective("vsmc", m, p, 4)
        trained, rec = ob.train(o, ds, [(0.05, 120)], 3)
        objective = rec.column("objective")
        assert objective[-20:].mean() > objective[:20].mean()
        before = ob.bound_estimate(o, ds, 100, 9)[0]
        after = ob.bound_estimate(trained, ds, 100, 9)[0]
        assert after > before

    def test_probe_cadence(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 3)
        _, rec = ob.train(o, ds, [(0.02, 7)], 1, probe_every=3, probe_samples=4)
        gv = rec.column("grad_var")
        assert np.isfinite(gv[[0, 3, 6]]).all()
        assert np.isnan(gv[[1, 2, 4, 5]]).all()

    def test_non_finite_objective_aborts_with_iteration(self, monkeypatch):
        """A NaN objective stops the run at its iteration, before Adam steps on its gradient."""
        m, ds, p = lgssm_case()
        real = ob.gradient_biased
        calls = []

        def nan_at_second(obj, data, rng):
            calls.append(rng)
            value, grad = real(obj, data, rng)
            return (math.nan if len(calls) == 2 else value), grad

        monkeypatch.setattr(ob, "gradient_biased", nan_at_second)
        with pytest.raises(ValueError, match=re.escape("non-finite objective at iteration 1")):
            ob.train(ob.Objective("vsmc", m, p, 2), ds, [(0.01, 3)], 1)
        assert len(calls) == 2

    def test_divergence_aborts_with_iteration(self):
        m, ds, p = lgssm_case()
        p = {k: v.copy() for k, v in p.items()}
        p["mu"] += 1e7
        with pytest.raises(ValueError, match="iteration 0"):
            ob.train(ob.Objective("iwvi", m, p, 2), ds, [(0.01, 3)], 1)

    def test_record_csv_roundtrip(self, tmp_path):
        m, ds, p = lgssm_case()
        _, rec = ob.train(ob.Objective("vsmc", m, p, 2), ds, [(0.02, 4)], 1)
        path = tmp_path / "trace.csv"
        rec.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iter,objective,grad_norm,grad_var,wall_ms"
        assert len(lines) == 5
        back = np.array([float(lines[2].split(",")[1])])
        assert back[0] == rec.rows[1][1]

    def test_train_never_writes_its_input_arrays(self):
        sv = mo.sv_make(2, "diagonal", RngStream(2))
        ds = mo.generate(sv, 4, RngStream(6))
        o = ob.Objective("vsmc", sv, mo.proposal_init(sv, 4), 3, learn_theta=True)
        before = {k: v.copy() for k, v in ob.pack_params(o).items()}
        trained, _ = ob.train(o, ds, [(0.05, 3), (0.02, 2)], 4, freeze=("phi.mu",))
        after = ob.pack_params(trained)
        for k, v in ob.pack_params(o).items():
            np.testing.assert_array_equal(v, before[k])
        assert not np.array_equal(after["phi.log_sigma"], before["phi.log_sigma"])
        np.testing.assert_array_equal(after["phi.mu"], before["phi.mu"])

    def test_vem_moves_model_parameters(self):
        sv = mo.sv_make(1, "diagonal", RngStream(2))
        ds = mo.generate(sv, 4, RngStream(6))
        o = ob.Objective("vsmc", sv, mo.proposal_init(sv, 4), 3, learn_theta=True)
        trained, _ = ob.train(o, ds, [(0.05, 10)], 4)
        assert not np.array_equal(trained.model.mu, sv.mu)
        assert not np.array_equal(trained.params["mu"], o.params["mu"])


class TestSeeds:
    """train, bound_estimate and grad_variance_probe take an RngStream or a seed by RngStream's one rule."""

    @pytest.mark.parametrize("seed", [True, False, 3.7, 3.0, "3", None], ids=repr)
    def test_a_seed_that_is_no_integer_is_refused(self, seed, monkeypatch):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 2)
        monkeypatch.setattr(ob, "gradient_biased", None)  # no draw may start
        for call in (lambda: ob.train(o, ds, [(0.01, 1)], seed), lambda: ob.bound_estimate(o, ds, 2, seed),
                     lambda: ob.grad_variance_probe(o, ds, 2, seed)):
            with pytest.raises(TypeError, match="seed must be an integer that is not a bool"):
                call()

    def test_a_numpy_integer_is_the_same_seed(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 2)
        assert ob.bound_estimate(o, ds, 4, np.int64(3)) == ob.bound_estimate(o, ds, 4, 3)


class TestEvaluation:
    def test_bound_estimate_replicates_objective_draws(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vmpf-bg", m, p, 3)
        mean, se = ob.bound_estimate(o, ds, 16, RngStream(11))
        manual = np.array(
            [float(ob.objective_value(o, ds, RngStream(11).split(i)).data) for i in range(16)]
        )
        assert mean == manual.mean()
        assert se == manual.std(ddof=1) / 4.0

    def test_bound_estimate_runs_on_calling_thread(self, monkeypatch):
        """Each pass of the filter runs on the calling thread, the samples in index order.

        N=300 on a T=3, dy=1 model gives R = 2^18 // 300^2 = 2 runs a pass.
        """
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 300)
        passes = []
        run_smc = fl.run_smc

        def recording_run(model, params, data, n, source, **kw):
            passes.append((threading.get_ident(), list(source.runs)))
            return run_smc(model, params, data, n, source, **kw)

        monkeypatch.setattr(fl, "run_smc", recording_run)
        ob.bound_estimate(o, ds, 5, 5, workers=4)
        assert passes == [(threading.get_ident(), [0, 1]), (threading.get_ident(), [2, 3]),
                          (threading.get_ident(), [4])]

    @pytest.mark.parametrize("family", sorted(bound_cases()))
    def test_bound_estimate_equals_the_per_sample_loop(self, family, monkeypatch):
        """(mean, se) of every kind is == to the one-sample-at-a-time loop.

        N in {1, 3, 16}, with R from the shapes (one pass of all samples) and
        with R forced to 3 by a smaller pass size, so that 7 samples leave a
        last pass of one.
        """
        model, params, data = bound_cases()[family]
        t_max, dy = data.ys.shape
        for kind in bound_kinds(model):
            for n in (1, 3, 16):
                o = ob.Objective(kind, model, params, n)
                loop = np.array([float(ob.objective_value(o, data, RngStream(17).split(i)).data) for i in range(7)])
                want = (loop.mean(), loop.std(ddof=1) / math.sqrt(7))
                for words in (ob._PASS_WORDS, 3 * n * max(n, t_max * dy)):
                    monkeypatch.setattr(ob, "_PASS_WORDS", words)
                    assert ob.bound_estimate(o, data, 7, RngStream(17)) == want, (kind, n, words)

    def test_bound_estimate_names_the_degenerate_sample(self, monkeypatch):
        """A NaN weight of sample 5 stops the pass of samples 3..5, naming sample 5."""

        class NanInSampleFive(fl.RandomBackend):
            def run_normals(self, purpose, t_max, count):
                block = super().run_normals(purpose, t_max, count)
                for r in np.flatnonzero(np.asarray(self.runs) == 5):
                    block[:, r * count] = np.nan
                return block

        m, ds, p = lgssm_case()
        monkeypatch.setattr(fl, "RandomBackend", NanInSampleFive)
        monkeypatch.setattr(ob, "_PASS_WORDS", 3 * 4 * 4)  # N=4, T dy=3: R = 3
        with pytest.raises(fl.DegeneracyError, match="t=1 in sample 5") as err:
            ob.bound_estimate(ob.Objective("vsmc", m, p, 4), ds, 7, 3)
        assert (err.value.t, err.value.sample, err.value.label) == (1, 5, "sample")

    @pytest.mark.parametrize("kind, log_sigma, t, cause", [
        ("vsmc", 400.0, 1, "every weight is zero"),
        ("vmpf-bg", -400.0, 2, "a weight is NaN or +inf"),
    ], ids=["zero", "nan"])
    def test_degeneracy_cause_survives_the_relabel(self, kind, log_sigma, t, cause):
        """``train`` and ``bound_estimate`` rename the run as an iteration or a
        sample and keep its cause.  At proposal log-std 400, z * z overflows
        and every weight is zero at t=1; at -400, the MPF pair kernel's
        exp(-2 log-std) overflows and leaves a NaN weight at t=2.  Numpy's
        overflow warning stays."""
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 3, RngStream(1))
        p = mo.proposal_init(m, 3)
        p["log_sigma"][:] = log_sigma
        obj = ob.Objective(kind, m, p, 3)
        for call, label in ((lambda: ob.train(obj, ds, [(0.01, 2)], 1), "iteration"),
                            (lambda: ob.bound_estimate(obj, ds, 4, 1), "sample")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(fl.DegeneracyError, match=re.escape(f"t={t} in {label} 0: {cause}")) as err:
                    call()
            assert (err.value.t, err.value.sample, err.value.label, err.value.cause) == (t, 0, label, cause)
            assert any("overflow" in str(w.message) for w in caught)

    @pytest.mark.parametrize("make", [
        lambda: mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0)),
        lambda: mo.sv_make(2, "diagonal", RngStream(0)),
        lambda: mo.sv_make(2, "triangular", RngStream(0)),
    ], ids=["lgssm", "sv-diagonal", "sv-triangular"])
    def test_log_std_sweep_is_finite_or_names_its_cause(self, make):
        """Every kind at proposal log-std -400, -300, 0, 50 and 400 (T = 6, N = 4)
        returns a finite bound or raises ``DegeneracyError`` naming its cause.

        SV at +400 overflows its emission's scaled observation; the
        triangular solve passes the non-finite rows on, and the weights
        report them at t=1 rather than scipy refusing its input.
        """
        m = make()
        ds = mo.generate(m, 6, RngStream(1))
        for scale in (-400.0, -300.0, 0.0, 50.0, 400.0):
            p = mo.proposal_init(m, 6)
            p["log_sigma"][:] = scale
            for kind in bound_kinds(m):
                with warnings.catch_warnings(record=True):
                    warnings.simplefilter("always")
                    try:
                        value = float(ob.objective_value(ob.Objective(kind, m, p, 4), ds, 3).data)
                    except fl.DegeneracyError as err:
                        assert err.cause in ("every weight is zero", "a weight is NaN or +inf"), (scale, kind)
                        continue
                assert math.isfinite(value), (scale, kind)

    def test_bound_estimate_under_a_tape_matches_off_tape(self):
        """Under an active tape a pass holds one run; the samples and so (mean, se) are the same."""
        m, ds, p = lgssm_case()
        for kind in ob.KINDS:
            o = ob.Objective(kind, m, p, 3)
            with ad.Tape():
                taped = ob.bound_estimate(o, ds, 6, 5)
            assert taped == ob.bound_estimate(o, ds, 6, 5), kind

    def test_bound_estimate_worker_count_irrelevant(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 2)
        assert ob.bound_estimate(o, ds, 12, 5, workers=1) == ob.bound_estimate(o, ds, 12, 5, workers=8)

    def test_bound_estimate_rejects_zero_workers(self):
        m, ds, p = lgssm_case()
        with pytest.raises(ValueError, match="workers"):
            ob.bound_estimate(ob.Objective("vsmc", m, p, 2), ds, 4, 5, workers=0)

    def test_zero_variance_objective_has_tiny_se(self):
        m, ds, _ = lgssm_case()
        prop = smoothing_proposal(m, ds.ys)
        mean, se = ob.bound_estimate(ob.Objective("iwvi", m, prop, 2), ds, 10, 3)
        assert se < 1e-12
        assert mean == pytest.approx(mo.kalman_loglik(m, ds.ys), abs=1e-10)

    def test_sample_count_validated(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 2)
        with pytest.raises(ValueError):
            ob.bound_estimate(o, ds, 1, 0)
        with pytest.raises(ValueError):
            ob.grad_variance_probe(o, ds, 1, 0)

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0)], ids=["2.5", "3.0", "float64"])
    def test_bound_estimate_sample_count_must_be_an_integer(self, count):
        m, ds, p = lgssm_case()
        with pytest.raises(ValueError, match=re.escape(f"n_samples must be an integer >= 2, got {count!r}")):
            ob.bound_estimate(ob.Objective("vsmc", m, p, 2), ds, count, 0)

    def test_probe_sample_count_must_be_an_integer(self):
        m, ds, p = lgssm_case()
        with pytest.raises(ValueError, match=re.escape("n_samples must be an integer >= 2, got 2.5")):
            ob.grad_variance_probe(ob.Objective("vsmc", m, p, 2), ds, 2.5, 0)

    def test_probe_replicates_manual_variance_and_pair_halving(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 3)
        n = 80
        got = ob.grad_variance_probe(o, ds, n, RngStream(13))
        stacked = np.stack([ob.gradient_biased(o, ds, RngStream(13).split(i))[1] for i in range(n)])
        want = stacked.var(axis=0, ddof=1).mean()
        assert got == pytest.approx(want, rel=1e-12)
        pairs = 0.5 * (stacked[0::2] + stacked[1::2])
        ratio = pairs.var(axis=0, ddof=1).mean() / want
        assert 0.5 * 0.7 < ratio < 0.5 * 1.3

    def test_pack_apply_roundtrip_copies(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 2)
        packed = ob.pack_params(o)
        packed["phi.mu"] += 1.0
        assert np.array_equal(o.params["mu"], p["mu"])
        back = ob.apply_params(o, packed)
        assert np.array_equal(back.params["mu"], p["mu"] + 1.0)


class TestFreeze:
    def test_frozen_parameters_hold_their_values(self):
        m, ds, p = lgssm_case()
        o = ob.Objective("vsmc", m, p, 3)
        trained, rec = ob.train(o, ds, [(0.05, 12)], 2, freeze=("phi.beta",))
        np.testing.assert_array_equal(trained.params["beta"], p["beta"])
        assert not np.array_equal(trained.params["mu"], p["mu"])
        assert np.isfinite(rec.column("grad_norm")).all()

    def test_unknown_freeze_name_rejected(self):
        m, ds, p = lgssm_case()
        with pytest.raises(ValueError, match="frozen"):
            ob.train(ob.Objective("vsmc", m, p, 2), ds, [(0.01, 1)], 1, freeze=("phi.nope",))
