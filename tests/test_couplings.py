"""Combinator laws checked by exhaustive enumeration plus filter parity."""

import math

import numpy as np
import pytest

import particlevi.autodiff as ad
from particlevi import checks as ck
from particlevi import couplings as cp
from particlevi import filters as fl
from particlevi import models as mo
from particlevi.rng import RngStream


def _hmm_idx(value) -> int:
    """The state index of a finite model's coupling value, an array or a Var."""
    data = value.data if isinstance(value, ad.Var) else np.asarray(value)
    return int(data.reshape(-1)[0])


def trajectory_of(value) -> list:
    """Flatten the nested (history, state) pairs grown by extend_target."""
    if isinstance(value, tuple):
        return trajectory_of(value[0]) + [value[1]]
    return [value]


def table_proposal(row: np.ndarray, t: int = 1) -> cp.StepProposal:
    """Finite-support proposal shared by every parent."""
    row = np.asarray(row, dtype=np.float64)

    def sample(backend, lane, x_prev):
        return np.asarray([float(backend.choose_one(t, fl.PROPOSAL, lane, row))])

    def logpdf(x_prev, x):
        with np.errstate(divide="ignore"):
            return float(np.log(row[_hmm_idx(x)]))

    return cp.StepProposal(sample, logpdf)


def table_density(gamma: np.ndarray):
    gamma = np.asarray(gamma, dtype=np.float64)
    return lambda x: float(np.log(gamma[_hmm_idx(x)]))


def moments(pair) -> tuple:
    """(E[R], E[R^2], E[log R]) by exhaustive enumeration."""
    first = second = logmean = 0.0
    for d, prob, _ in ck.enumerate_paths(lambda be: pair.draw(be)):
        r = math.exp(float(d.log_r.data))
        first += prob * r
        second += prob * r * r
        logmean += prob * float(d.log_r.data)
    return first, second, logmean


def atom_expectations(pair) -> dict:
    """E[R * a(x)] per support point x, keyed by the flattened state path."""
    out = {}
    for d, prob, _ in ck.enumerate_paths(lambda be: pair.draw(be)):
        r = math.exp(float(d.log_r.data))
        for value, lw in d.coupling.atoms:
            key = tuple(_hmm_idx(v) for v in trajectory_of(value))
            out[key] = out.get(key, 0.0) + prob * r * math.exp(lw)
    return out


class TestDomainTypes:
    def test_normalized_invariant(self):
        cp.WeightedAtoms([(0, math.log(0.5)), (1, math.log(0.5))])
        with pytest.raises(ValueError):
            cp.WeightedAtoms([(0, 0.0), (1, 0.0)])

    def test_log_r_must_not_be_nan_or_positive_inf(self):
        atom = cp.WeightedAtoms([(0, 0.0)])
        cp.DrawResult({}, ad.constant(np.asarray(-np.inf)), atom)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                cp.DrawResult({}, ad.constant(np.asarray(bad)), atom)


class TestBasicPair:
    def test_perfect_proposal_gives_unit_estimator(self):
        pair = cp.basic_pair(table_density([0.5, 0.5]), table_proposal([0.5, 0.5]))
        for d, _, _ in ck.enumerate_paths(lambda be: pair.draw(be)):
            assert float(d.log_r.data) == 0.0

    def test_expectation_is_total_mass(self):
        gamma = np.asarray([0.3, 0.9])
        pair = cp.basic_pair(table_density(gamma), table_proposal([0.5, 0.5]))
        first, _, _ = moments(pair)
        assert abs(first - gamma.sum()) < 1e-12
        per_atom = atom_expectations(pair)
        for k in range(2):
            assert abs(per_atom[(k,)] - gamma[k]) < 1e-12

    def test_zero_density_proposal_rejected(self):
        broken = cp.StepProposal(
            sample=lambda backend, lane, x_prev: np.asarray([1.0]),
            logpdf=lambda x_prev, x: -np.inf,
        )
        pair = cp.basic_pair(table_density([0.5, 0.5]), broken)
        with pytest.raises(ValueError, match="vanished"):
            pair.draw(RngStream(0))

    def test_vanished_mass_rejected(self):
        """Lanes whose estimators are all zero leave the replicated coupling no mass."""
        pair = cp.replicate(cp.basic_pair(lambda x: -np.inf, table_proposal([0.5, 0.5])), 2)
        with pytest.raises(ValueError, match="every atom weight vanished"):
            pair.draw(RngStream(0))

    def test_matches_first_filter_weight(self):
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 1, RngStream(3))
        params = mo.proposal_init(m, 1)
        bound = mo.bind(m, params, ds.ys)
        pair = cp.basic_pair(cp.step_density(bound), cp.step_proposal(bound, 1))
        d = pair.draw(RngStream(11))
        run = fl.run_smc(m, params, ds, 1, 11)
        assert abs(float(d.log_r.data) - float(run.log_weights[0].data[0])) < 1e-12


class TestReplicate:
    def test_n1_preserves_every_path(self):
        base = cp.basic_pair(table_density([0.3, 0.9]), table_proposal([0.5, 0.5]))
        rep = cp.replicate(base, 1)
        a = [(float(d.log_r.data), p) for d, p, _ in ck.enumerate_paths(lambda be: base.draw(be))]
        b = [(float(d.log_r.data), p) for d, p, _ in ck.enumerate_paths(lambda be: rep.draw(be))]
        assert a == b

    def test_constant_estimator_stays_constant(self):
        pair = cp.replicate(cp.basic_pair(table_density([0.6, 0.6]), table_proposal([0.5, 0.5])), 3)
        for d, _, _ in ck.enumerate_paths(lambda be: pair.draw(be)):
            assert abs(float(d.log_r.data) - math.log(1.2)) < 1e-12

    def test_per_atom_unbiasedness(self):
        gamma = np.asarray([0.3, 0.9])
        pair = cp.replicate(cp.basic_pair(table_density(gamma), table_proposal([0.5, 0.5])), 3)
        per_atom = atom_expectations(pair)
        for k in range(2):
            assert abs(per_atom[(k,)] - gamma[k]) < 1e-12

    def test_variance_shrinks_as_one_over_n(self):
        base = cp.basic_pair(table_density([0.3, 0.9]), table_proposal([0.5, 0.5]))
        e1, s1, _ = moments(base)
        e3, s3, _ = moments(cp.replicate(base, 3))
        assert abs(e1 - e3) < 1e-12
        assert abs((s3 - e3**2) - (s1 - e1**2) / 3.0) < 1e-12

    def test_count_validation_and_single_use(self):
        base = cp.basic_pair(table_density([0.5, 0.5]), table_proposal([0.5, 0.5]))
        with pytest.raises(ValueError):
            cp.replicate(base, 0)
        nested = cp.replicate(cp.replicate(base, 2), 2)
        with pytest.raises(ValueError, match="lane"):
            nested.draw(RngStream(0))

    @pytest.mark.parametrize("n", [2.5, True], ids=["float", "bool"])
    def test_count_must_be_an_integer(self, n):
        """A fractional count used to fail inside ``range`` at the first draw, and True ran as 1."""
        base = cp.basic_pair(table_density([0.5, 0.5]), table_proposal([0.5, 0.5]))
        message = f"replication count must be an integer >= 1, got {n!r}"
        with pytest.raises(ValueError, match=message):
            cp.replicate(base, n)
        with pytest.raises(ValueError, match=message):
            cp.derive_smc(mo.hmm_reference(), None, np.zeros((2, 1)), n)


def two_state_chain(gamma1, trans, emit2, proposal_row, drop_old):
    """gamma'(x, x') = gamma1(x) * trans[x, x'] * emit2[x'] as one extension."""
    trans = np.asarray(trans, dtype=np.float64)
    emit2 = np.asarray(emit2, dtype=np.float64)

    def evaluator(old, new):
        with np.errstate(divide="ignore"):
            return float(np.log(trans[_hmm_idx(cp._last_state(old)), _hmm_idx(new)] * emit2[_hmm_idx(new)]))

    base = cp.basic_pair(table_density(gamma1), table_proposal([0.5, 0.5]))
    tr = cp.TargetRatio(evaluator, table_proposal(proposal_row, t=2), drop_old=drop_old, t=2)
    return base, tr


class TestExtendTarget:
    def test_independent_factor_leaves_estimator_alone(self):
        h = np.asarray([0.4, 0.6])
        base, tr = two_state_chain([0.3, 0.9], np.outer(np.ones(2), h), [1.0, 1.0], h, drop_old=False)
        ext = cp.extend_target(base, tr)
        for d, _, _ in ck.enumerate_paths(lambda be: ext.draw(be)):
            first = _hmm_idx(trajectory_of(d.coupling.atoms[0][0])[0])
            base_log_r = math.log(np.asarray([0.3, 0.9])[first] / 0.5)
            assert abs(float(d.log_r.data) - base_log_r) < 1e-12

    def test_two_step_mass(self):
        gamma1 = np.asarray([0.3, 0.9])
        trans = np.asarray([[0.2, 0.8], [0.7, 0.3]])
        emit2 = np.asarray([0.5, 0.25])
        base, tr = two_state_chain(gamma1, trans, emit2, [0.5, 0.5], drop_old=False)
        first, _, _ = moments(cp.extend_target(base, tr))
        total = sum(
            gamma1[x] * trans[x, xp] * emit2[xp] for x in range(2) for xp in range(2)
        )
        assert abs(first - total) < 1e-12
        per_atom = atom_expectations(cp.extend_target(base, tr))
        for x in range(2):
            for xp in range(2):
                assert abs(per_atom[(x, xp)] - gamma1[x] * trans[x, xp] * emit2[xp]) < 1e-12

    def test_change_target_drops_history(self):
        base, tr = two_state_chain([0.3, 0.9], [[0.2, 0.8], [0.7, 0.3]], [0.5, 0.25], [0.5, 0.5], drop_old=True)
        ct = cp.extend_target(base, tr)
        assert "ChangeTarget" in ct.description
        d = ct.draw(RngStream(4))
        assert not isinstance(d.coupling.atoms[0][0], tuple)
        per_atom = atom_expectations(ct)
        gamma1 = np.asarray([0.3, 0.9])
        trans = np.asarray([[0.2, 0.8], [0.7, 0.3]])
        emit2 = np.asarray([0.5, 0.25])
        for xp in range(2):
            marginal = sum(gamma1[x] * trans[x, xp] * emit2[xp] for x in range(2))
            assert abs(per_atom[(xp,)] - marginal) < 1e-12

    def test_zero_density_extension_rejected(self):
        base = cp.basic_pair(table_density([0.5, 0.5]), table_proposal([0.5, 0.5]))
        broken = cp.StepProposal(sample=lambda backend, lane, x_prev: np.asarray([1.0]),
                                 logpdf=lambda x_prev, x: -np.inf)
        tr = cp.TargetRatio(lambda old, new: 0.0, broken, t=2)
        with pytest.raises(ValueError, match="proposal density vanished"):
            cp.extend_target(base, tr).draw(RngStream(0))

    def test_infinite_ratio_rejected(self):
        base = cp.basic_pair(table_density([0.5, 0.5]), table_proposal([0.5, 0.5]))
        tr = cp.TargetRatio(lambda old, new: np.inf, table_proposal([0.5, 0.5], t=2), t=2)
        with pytest.raises(ValueError, match="ratio"):
            cp.extend_target(base, tr).draw(RngStream(0))


def mpf_step_pair(n=2):
    """One replicated step-1 cloud extended with a non-bootstrap proposal."""
    h = mo.DiscreteHmm(
        np.asarray([0.6, 0.4]),
        np.asarray([[0.7, 0.3], [0.2, 0.8]]),
        np.asarray([[0.9, 0.1], [0.4, 0.6]]),
    )
    params = {"trans_proposal": np.asarray([[0.55, 0.45], [0.35, 0.65]])}
    ys = np.zeros((2, 1))
    bound = mo.bind(h, params, ys)
    rep = cp.replicate(cp.basic_pair(cp.step_density(bound), cp.step_proposal(bound, 1)), n)
    proposal = cp.step_proposal(bound, 2)
    ratio = cp.step_ratio(bound, 2)
    tr = cp.TargetRatio(ratio, proposal, drop_old=True, t=2)
    changed = cp.extend_target(rep, tr)
    marged = cp.marginalize(changed, cp._ancestor_selector(proposal, ratio))
    return h, changed, marged


class TestMarginalize:
    def test_single_atom_auxiliary_is_identity(self):
        base = cp.basic_pair(table_density([0.3, 0.9]), table_proposal([0.5, 0.5]))
        same = cp.marginalize(base, lambda d: [(0.0, d.log_r, d.coupling)])
        a = [(float(d.log_r.data), p) for d, p, _ in ck.enumerate_paths(lambda be: base.draw(be))]
        b = [(float(d.log_r.data), p) for d, p, _ in ck.enumerate_paths(lambda be: same.draw(be))]
        assert a == b

    def test_ancestor_selector_needs_a_replicated_parent(self):
        """The selector reads the lanes of the replicate before the extension; a lone pair has none."""
        h = mo.hmm_reference()
        bound = mo.bind(h, None, np.zeros((2, 1)))
        proposal, ratio = cp.step_proposal(bound, 2), cp.step_ratio(bound, 2)
        lone = cp.basic_pair(cp.step_density(bound), cp.step_proposal(bound, 1))
        changed = cp.extend_target(lone, cp.TargetRatio(ratio, proposal, drop_old=True, t=2))
        with pytest.raises(ValueError, match="expects a replicated parent"):
            cp.marginalize(changed, cp._ancestor_selector(proposal, ratio)).draw(RngStream(0))

    def test_same_mean_lower_variance(self):
        _, changed, marged = mpf_step_pair()
        e0, s0, l0 = moments(changed)
        e1, s1, l1 = moments(marged)
        assert abs(e0 - e1) < 1e-12
        assert (s1 - e1**2) <= (s0 - e0**2) + 1e-15
        assert (s1 - e1**2) < (s0 - e0**2) - 1e-6  # strictly better off bootstrap

    def test_jensen_ladder(self):
        h, changed, marged = mpf_step_pair()
        _, _, l0 = moments(changed)
        _, _, l1 = moments(marged)
        log_z = mo.hmm_forward(h, [0, 0])
        assert l0 <= l1 + 1e-12
        assert l1 <= log_z + 1e-12


class TestDerivations:
    def test_t1_reduces_to_replicated_basic_pair(self):
        h = mo.hmm_reference()
        ys = np.zeros((1, 1))
        derived = cp.derive_smc(h, None, ys, 2)
        bound = mo.bind(h, None, ys)
        manual = cp.replicate(cp.basic_pair(cp.step_density(bound), cp.step_proposal(bound, 1)), 2)
        a = [(float(d.log_r.data), p) for d, p, _ in ck.enumerate_paths(lambda be: derived.draw(be))]
        b = [(float(d.log_r.data), p) for d, p, _ in ck.enumerate_paths(lambda be: manual.draw(be))]
        assert a == b
        same = cp.derive_mpf(h, None, ys, 2)
        c = [(float(d.log_r.data), p) for d, p, _ in ck.enumerate_paths(lambda be: same.draw(be))]
        assert a == c

    def test_hmm_mass_matches_forward(self):
        h = mo.hmm_reference()
        ys = np.zeros((2, 1))
        truth = math.exp(mo.hmm_forward(h, [0, 0]))
        for maker in (cp.derive_smc, cp.derive_mpf):
            first, _, _ = moments(maker(h, None, ys, 2))
            assert abs(first - truth) <= 1e-12

    def test_smc_atoms_hit_joint_density(self):
        h = mo.hmm_reference()
        ys = np.zeros((2, 1))
        per_atom = atom_expectations(cp.derive_smc(h, None, ys, 2))
        for x1 in range(2):
            for x2 in range(2):
                gamma = h.pi0[x1] * h.emis[x1, 0] * h.trans[x1, x2] * h.emis[x2, 0]
                assert abs(per_atom[(x1, x2)] - gamma) < 1e-12

    def test_shared_rng_filter_parity(self):
        """The derived pairs reproduce both filters on every continuous family."""
        cases = [
            ("lgssm-d1-sparse", mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0)), None),
            ("lgssm-d3-dense", mo.lgssm_make(3, 3, 0.42, "dense", RngStream(1)), None),
            ("sv-d2-triangular", mo.sv_make(2, "triangular", RngStream(3)), None),
            ("dmm-2-3-8", mo.dmm_make(2, 3, 8, RngStream(4)), RngStream(5)),
        ]
        for name, m, init_rng in cases:
            ds = mo.generate(m, 3, RngStream(7))
            params = mo.proposal_init(m, 3, init_rng)
            for seed in range(8):
                a = cp.derive_smc(m, params, ds, 3).draw(RngStream(seed))
                b = fl.run_smc(m, params, ds, 3, seed)
                assert abs(float(a.log_r.data) - float(b.log_evidence.data)) < 1e-10, (name, seed)
                c = cp.derive_mpf(m, params, ds, 3).draw(RngStream(seed))
                d = fl.run_mpf(m, params, ds, 3, seed)
                assert abs(float(c.log_r.data) - float(d.log_evidence.data)) < 1e-10, (name, seed)

    def test_marginal_step_equals_filter_weight(self):
        """Each lane's marginalized increment is the direct filter's v_t."""
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 2, RngStream(7))
        params = mo.proposal_init(m, 2)
        top = cp.derive_mpf(m, params, ds, 2).draw(RngStream(5))
        run = fl.run_mpf(m, params, ds, 2, 5)
        for i, lane in enumerate(top.omega["draws"]):
            inc = float(lane.log_r.data) - float(lane.omega["prev"].log_r.data)
            assert abs(inc - float(run.log_weights[1].data[i])) < 1e-10

    def test_gradient_parity_with_filters(self):
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 3, RngStream(7))
        p0 = mo.proposal_init(m, 3)

        def filter_grads(runner):
            with ad.Tape():
                p = {k: ad.leaf(v) for k, v in p0.items()}
                run = runner(m, p, ds, 2, 3)
                return ad.grad(run.log_evidence, [p["mu"], p["beta"], p["log_sigma"]])

        def pair_grads(maker):
            with ad.Tape():
                p = {k: ad.leaf(v) for k, v in p0.items()}
                d = maker(m, p, ds, 2).draw(RngStream(3))
                return ad.grad(d.log_r, [p["mu"], p["beta"], p["log_sigma"]])

        for runner, maker in ((fl.run_smc, cp.derive_smc), (fl.run_mpf, cp.derive_mpf)):
            for ga, gb in zip(filter_grads(runner), pair_grads(maker)):
                assert np.max(np.abs(ga - gb)) < 1e-10

    @pytest.mark.parametrize("maker, products", [(cp.derive_smc, 9), (cp.derive_mpf, 19)],
                             ids=["derive_smc", "derive_mpf"])
    def test_lanes_share_one_transition_per_previous_state(self, maker, products, monkeypatch):
        """A lane's proposal draw, its proposal density and the step ratio read one x_prev row.

        So ``transition_build_many`` forms x_prev A^T once per previous state
        and step.  LGSSM 2x2, T = 3, N = 2, one draw.  The count holds
        because a lane's x_prev is the (1, d) row its proposal drew, the
        same object in every call, which the bound model's transition memo
        keys on.  derive_mpf's ancestor selector scores log g (one C x
        matmul) once per lane; once per ancestor made 23.
        """
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 3, RngStream(1))
        pair = maker(m, mo.proposal_init(m, 3), ds, 2)
        calls = []
        matmul = ad.matmul
        monkeypatch.setattr(ad, "matmul", lambda *args, **kwargs: calls.append(1) or matmul(*args, **kwargs))
        pair.draw(RngStream(5))
        assert len(calls) == products

    @pytest.mark.parametrize("maker, scores", [(cp.derive_smc, 6), (cp.derive_mpf, 10)],
                             ids=["derive_smc", "derive_mpf"])
    def test_emission_scored_once_per_lane_and_step(self, maker, scores, monkeypatch):
        """One draw, LGSSM 2x2, T = 3, N = 2: derive_smc scores log g once per
        lane and step.  derive_mpf adds one score per lane at t >= 2 for its
        ancestor selector, which every branch shares; one per branch made 14.
        """
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 3, RngStream(1))
        pair = maker(m, mo.proposal_init(m, 3), ds, 2)
        calls = []
        emission = mo.emission_logpdf_rows
        monkeypatch.setattr(mo, "emission_logpdf_rows", lambda *args: calls.append(1) or emission(*args))
        pair.draw(RngStream(5))
        assert len(calls) == scores

    @pytest.mark.parametrize("maker, nodes", [(cp.derive_smc, 97), (cp.derive_mpf, 251)],
                             ids=["derive_smc", "derive_mpf"])
    def test_states_stay_the_rows_the_proposals_drew(self, maker, nodes, monkeypatch):
        """A derivation keeps each state as the (1, d) row its proposal drew.

        One draw, LGSSM 2x2, T = 3, N = 2: no ``ad.reshape`` node, every
        atom's newest state a (1, 2) ``Var``, and with mu, beta and
        log_sigma as leaves a tape of 97 (derive_smc) and 251 (derive_mpf)
        nodes.  States of shape (d,) reshaped to rows made 21 and 39
        reshapes and tapes of 118 and 290 nodes.
        """
        m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 3, RngStream(1))
        p0 = mo.proposal_init(m, 3)
        calls = []
        reshape = ad.reshape
        monkeypatch.setattr(ad, "reshape", lambda *args, **kwargs: calls.append(1) or reshape(*args, **kwargs))
        d = maker(m, p0, ds, 2).draw(RngStream(5))
        assert calls == []
        for value, _ in d.coupling.atoms:
            state = cp._last_state(value)
            assert isinstance(state, ad.Var) and state.data.shape == (1, 2)
        with ad.Tape() as tape:
            maker(m, {k: ad.leaf(v) for k, v in p0.items()}, ds, 2).draw(RngStream(5))
        assert len(tape.nodes) == nodes

    def test_description_reads_as_a_derivation(self):
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 2, RngStream(7))
        params = mo.proposal_init(m, 2)
        smc = cp.derive_smc(m, params, ds, 2).description
        mpf = cp.derive_mpf(m, params, ds, 2).description
        assert smc == "Replicate[2](ExtendTarget(Replicate[2](Step1)))"
        assert mpf == "Replicate[2](Marginalize(ChangeTarget(Replicate[2](Step1))))"

    def test_trajectory_flattening(self):
        m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
        ds = mo.generate(m, 3, RngStream(7))
        params = mo.proposal_init(m, 3)
        d = cp.derive_smc(m, params, ds, 2).draw(RngStream(1))
        for value, _ in d.coupling.atoms:
            assert len(trajectory_of(value)) == 3
