"""Verification helpers and suites: enumeration, the MPF-TMC identity, the ``verify`` rows."""

import math

import numpy as np
import pytest

from particlevi import checks as ck
from particlevi import filters as fl
from particlevi import models as mo
from particlevi.rng import RngStream
from test_filters import hmm_tables, lgssm_setup


class TestScriptBackend:
    def test_script_backend_skips_zero_probability(self):
        be = ck.ScriptBackend([])
        assert be.choose_one(1, 0, 0, np.asarray([0.0, 1.0])) == 1

    def test_script_backend_rejects_continuous(self):
        m, ds, params = lgssm_setup(t_max=2)
        with pytest.raises(RuntimeError):
            fl.run_smc(m, params, ds, 2, ck.ScriptBackend([]))

    def test_enumeration_cap(self):
        h = mo.hmm_reference()
        ys = np.zeros((2, 1))

        def phat(backend):
            run = fl.run_smc(h, None, ys, 2, backend)
            return math.exp(float(run.log_evidence.data))

        with pytest.raises(RuntimeError):
            ck.enumerate_expectation(phat, cap=3)


class TestIdentityCheck:
    def test_tmc_identity_every_family(self):
        cases = []
        m, ds, params = lgssm_setup(t_max=5, dx=2, dy=2)
        cases.append((m, params, ds))
        sv = mo.sv_make(2, "triangular", RngStream(3))
        cases.append((sv, mo.proposal_init(sv, 4), mo.generate(sv, 4, RngStream(11))))
        dmm = mo.dmm_make(2, 3, 8, RngStream(4))
        cases.append((dmm, mo.proposal_init(dmm, 4, RngStream(5)), mo.generate(dmm, 4, RngStream(12))))
        h = mo.hmm_reference()
        cases.append((h, None, mo.generate(h, 6, RngStream(13))))
        for model, params, data in cases:
            for seed in (1, 2, 3):
                run = fl.run_mpf(model, params, data, 4, seed)
                assert ck.mpf_tmc_identity_check(run) < 1e-9

    def test_hmm_identity_reads_the_proposal_table(self):
        """The check's log r matrix comes from trans_proposal, as the run's draws did."""
        h, params = hmm_tables()
        data = mo.generate(h, 6, RngStream(13))
        for seed in (1, 2, 3):
            run = fl.run_mpf(h, params, data, 4, seed)
            assert ck.mpf_tmc_identity_check(run) < 1e-9
            # r_t falls back to model.trans
            run.bound = mo.bind(h, {"init_proposal": params["init_proposal"]}, data.ys)
            assert ck.mpf_tmc_identity_check(run) > 1e-3

    def test_identity_check_rejects_other_kinds(self):
        m, ds, params = lgssm_setup()
        run = fl.run_smc(m, params, ds, 2, 1)
        with pytest.raises(ValueError):
            ck.mpf_tmc_identity_check(run)

    def test_identity_check_rejects_a_pass(self):
        """A pass stacks R runs' rows, so the check would mix the runs' weights: it names the run count."""
        m = mo.lgssm_make(2, 2, 0.42, "dense", RngStream(1))
        ds = mo.generate(m, 3, RngStream(11))
        run = fl.run_mpf(m, mo.proposal_init(m, 3), ds, 3, fl.RandomBackend(RngStream(5), [0, 1]))
        with pytest.raises(ValueError, match="pass of 2 runs"):
            ck.mpf_tmc_identity_check(run)


def suite_rows(suite):
    """The rows ``run`` yields for one suite, each tagged with that suite."""
    tagged = list(ck.run([suite]))
    assert {name for name, _ in tagged} == {suite}
    return [check for _, check in tagged]


class TestSuites:
    def test_collapse_suite_green(self):
        rows = suite_rows("collapse")
        assert [(row.name, row.limit, row.op, row.ok) for row in rows] == [("n1-all-kinds", 1e-12, "<=", True)]

    def test_unbiasedness_suite_green(self):
        rows = suite_rows("unbiasedness")
        want = [name for n in (2, 3) for name in (f"smc-n{n}", f"mpf-n{n}", f"tmc-n{n}", f"ipf-n{n}-l1", f"ipf-n{n}-l2")]
        assert [row.name for row in rows] == want
        assert {(row.limit, row.op, row.ok) for row in rows} == {(1e-12, "<=", True)}

    def test_identity_suite_has_the_derivation_rows(self):
        """The MPF-TMC rows, then the derived pairs against both filters, all green."""
        rows = suite_rows("identity")
        cases = ("lgssm", "sv", "dmm")
        want = [f"mpf-tmc-{c}" for c in cases] + [f"derive-{a}-{c}" for a in ("smc", "mpf") for c in cases]
        assert [row.name for row in rows] == want
        assert [row.limit for row in rows] == [1e-9] * 3 + [1e-10] * 6
        assert all(row.ok for row in rows)

    def test_gradients_suite_green(self):
        assert all(row.measured <= row.limit for row in suite_rows("gradients"))
