"""Verification: the oracles and property suites behind ``particlevi verify``.

The helpers check the paper's exact claims on small models.  A
``ScriptBackend`` replays a prescribed branch at each discrete choice of a
run, so ``enumerate_paths`` walks every realization of a run on a finite
model and ``enumerate_expectation`` gives an estimator's exact mean.
``mpf_tmc_identity_check`` rescores an MPF run as TMC under its mixture
proposal.

Each suite in ``SUITES`` returns ``Check`` rows: a name, the measured
value, its limit and the comparison that passes.  ``run`` runs suites by
name; the command line prints and writes the rows.  No module on the
filter path imports this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import particlevi.autodiff as ad
from particlevi import couplings as cp
from particlevi import filters as fl
from particlevi import models as mo
from particlevi import objectives as ob
from particlevi.distributions import gauss_product_fuse
from particlevi.rng import RngStream


# ---------------------------------------------------------------------------
# exhaustive enumeration


class ScriptBackend:
    """Replays a prescribed branch at each discrete choice point.

    Used by ``enumerate_paths`` to walk every realization of a run on a
    finite model.  Positions beyond the script take the first branch with
    positive probability and extend the script; the trace records every
    (branch, probability vector) so the driver can compute the path weight
    and advance to the next path.  Continuous draws are rejected.
    """

    def __init__(self, script):
        self.script = list(script)
        self.trace = []

    def uniforms(self, t, purpose, offsets):
        raise RuntimeError("exhaustive enumeration requires a fully discrete model")

    normals = uniforms

    def choose_one(self, t, purpose, offset, probs):
        probs = np.asarray(probs, dtype=np.float64)
        if len(self.trace) < len(self.script):
            k = self.script[len(self.trace)]
        else:
            nonzero = np.flatnonzero(probs > 0.0)
            if nonzero.size == 0:
                raise ValueError("all branches have zero probability")
            k = int(nonzero[0])
            self.script.append(k)
        self.trace.append((k, probs))
        return k


def enumerate_paths(run_fn, cap: int = 1_000_000):
    """Yield (value, probability, trace) for every realization of run_fn.

    run_fn(backend) -> value.  Depth-first walk with an odometer over the
    recorded choice points; zero-probability branches are skipped.  Raises
    once the number of realizations exceeds cap.
    """
    script: list = []
    realizations = 0
    while True:
        backend = ScriptBackend(script)
        value = run_fn(backend)
        prob = 1.0
        for k, probs in backend.trace:
            prob *= probs[k]
        yield value, prob, list(backend.trace)
        realizations += 1
        if realizations > cap:
            raise RuntimeError(f"enumeration exceeded {cap} realizations")
        for pos in range(len(backend.trace) - 1, -1, -1):  # the last choice with a later branch left
            k, probs = backend.trace[pos]
            later = np.flatnonzero(probs[k + 1 :] > 0.0)
            if later.size:
                break
        else:
            return
        script = [branch for branch, _ in backend.trace[:pos]] + [k + 1 + int(later[0])]


def enumerate_expectation(run_fn, cap: int = 1_000_000) -> float:
    """Exact E[run_fn] over every branch of its discrete draws."""
    return sum(value * prob for value, prob, _ in enumerate_paths(run_fn, cap))


# ---------------------------------------------------------------------------
# cross-estimator identity


def mpf_tmc_identity_check(run: fl.ParticleRun) -> float:
    """Max log-space gap between the MPF weights and TMC under its mixture.

    With proposal q_t(x) = sum_j vbar_{t-1}^j r_t(x | x_{t-1}^j), the TMC
    weight recursion applied to the recorded particles, rescored by the
    run's bound model, must reproduce z_t^i = v_t^i * prod_{tau<t}
    mean(v_tau).  Returns the largest absolute log-space discrepancy over
    all (t, i).  It takes one run: a pass stacks R runs' rows, and raises.
    """
    if run.kind != "mpf":
        raise ValueError("identity check expects an MPF run")
    if run.runs != 1:
        raise ValueError(f"identity check expects one run, got a pass of {run.runs} runs")
    log_n = math.log(run.n_particles)
    worst = 0.0
    log_z = run.log_weights[0].data
    running = 0.0
    for t in range(2, run.t_max + 1):
        x, xp = run.particles[t - 1], run.particles[t - 2]
        logv_prev = run.log_weights[t - 2].data
        log_vbar = logv_prev - ad.np_logsumexp(logv_prev)
        log_f = mo.transition_build_many(run.bound, t, xp).logpdf_matrix(x)
        log_r = mo.proposal_build_many(run.bound, t, xp).logpdf_matrix(x)
        log_g = mo.emission_logpdf_rows(run.bound, t, x).data
        log_q = ad.np_logsumexp(log_vbar[None, :] + log_r, axis=1)
        line6 = ad.np_logsumexp(log_z[None, :] + log_f, axis=1) + log_g - log_n - log_q
        running += float(run.log_mean_weights[t - 2].data)
        identity = run.log_weights[t - 1].data + running
        worst = max(worst, float(np.max(np.abs(line6 - identity))))
        log_z = identity
    return worst


# ---------------------------------------------------------------------------
# suites


@dataclass(frozen=True)
class Check:
    """One suite row: it passes when ``measured op limit`` holds ("<=" or ">=").

    A NaN measurement fails either way.
    """

    name: str
    measured: float
    limit: float
    op: str = "<="

    @property
    def ok(self) -> bool:
        return bool(self.measured <= self.limit if self.op == "<=" else self.measured >= self.limit)


def _suite_unbiasedness():
    h = mo.hmm_reference()
    ys = np.zeros((2, 1))
    truth = math.exp(mo.hmm_forward(h, [0, 0]))
    checks = []
    for n in (2, 3):
        runs = [(f"{kind}-n{n}", lambda be, f=f: f(h, None, ys, n, be))
                for kind, f in (("smc", fl.run_smc), ("mpf", fl.run_mpf), ("tmc", fl.run_tmc))]
        runs += [(f"ipf-n{n}-l{l_perms}", lambda be, l_perms=l_perms: fl.run_ipf(h, None, ys, n, l_perms, be))
                 for l_perms in (1, 2)]
        for name, run_fn in runs:
            val = enumerate_expectation(lambda be: math.exp(float(run_fn(be).log_evidence.data)))
            checks.append(Check(name, abs(val - truth), 1e-12))
    return checks


def _verify_cases():
    m = mo.lgssm_make(2, 2, 0.42, "dense", RngStream(1))
    sv = mo.sv_make(2, "triangular", RngStream(3))
    dmm = mo.dmm_make(2, 3, 8, RngStream(4))
    return [
        ("lgssm", m, mo.proposal_init(m, 4), mo.generate(m, 4, RngStream(11))),
        ("sv", sv, mo.proposal_init(sv, 4), mo.generate(sv, 4, RngStream(12))),
        ("dmm", dmm, mo.proposal_init(dmm, 4, RngStream(5)), mo.generate(dmm, 4, RngStream(13))),
    ]


def _suite_identity():
    checks = []
    cases = _verify_cases()
    for name, model, params, data in cases:
        runs = (fl.run_mpf(model, params, data, 4, seed) for seed in range(1, 21))
        checks.append(Check(f"mpf-tmc-{name}", max(map(mpf_tmc_identity_check, runs)), 1e-9))
    # the coupling derivation reproduces each filter's estimate on shared draws
    for algo, derive, run in (("smc", cp.derive_smc, fl.run_smc), ("mpf", cp.derive_mpf, fl.run_mpf)):
        for name, model, params, data in cases:
            pair = derive(model, params, data, 3)
            gap = max(abs(float(pair.draw(RngStream(seed)).log_r.data)
                          - float(run(model, params, data, 3, seed).log_evidence.data)) for seed in range(1, 5))
            checks.append(Check(f"derive-{algo}-{name}", gap, 1e-10))
    return checks


def _normals(stream: RngStream, k: int, shape, scale: float = 1.0) -> np.ndarray:
    """Child k of stream as normals of the given shape, times scale."""
    return stream.split(k).normals(math.prod(shape)).reshape(shape) * scale


def _fd_row(name: str, f, point, weights=None) -> Check:
    """Row name: ``finite_diff_check`` of f(*point) summed, entry by entry against fixed weights if given."""
    w = None if weights is None else ad.constant(weights)
    loss = (lambda *args: f(*args).sum()) if w is None else (lambda *args: (f(*args) * w).sum())
    return Check(name, ad.finite_diff_check(loss, point), 1e-5)


def _suite_gradients():
    rng = RngStream(17)
    # fixed labels, clear of the split(1..6) streams below: the points are
    # the same in every process (str hashes are salted per process) and stay
    # put when a check is added or removed
    checks = [_fd_row(f"op-{name}", op, [np.abs(_normals(rng, label, (12,)))])
              for name, op, label in (("exp", ad.exp, 100), ("sigmoid", ad.sigmoid, 104))]
    a, b = (_normals(rng, k, (6,)) + 3.0 for k in (1, 2))
    checks += [_fd_row(f"op-{name}", op, [a, b]) for name, op in (("add", ad.add), ("sub", ad.sub), ("mul", ad.mul))]
    checks.append(_fd_row("op-matmul", ad.matmul, [_normals(rng, 3, (2, 3)), _normals(rng, 4, (3, 2))]))
    checks.append(_fd_row("op-logsumexp", ad.logsumexp, [_normals(rng, 5, (8,))]))
    checks.append(_fd_row("op-gather", lambda x: ad.gather_rows(x, np.asarray([1, 0, 1])), [_normals(rng, 6, (3, 2))]))
    pts = rng.split(107)
    checks.append(_fd_row("op-stack", lambda x, y: ad.stack_rows([x, y]),
                          [_normals(pts, 1, (3,)), _normals(pts, 2, (3,))], _normals(pts, 0, (2, 3))))
    # the density kernels' analytic backwards, in x, means and log-stds (and
    # the mixture's log-weights); a fixed non-uniform cotangent reaches every
    # entry of each rule.  In the -far cases the first row sits 60 units out
    # in each coordinate, thousands of nats below the mixture kernel's shift
    # bound, so it is redone with its own maximum.
    for name, kernel, ls_rows, label in (
        ("kernel-rows", mo.gauss_logpdf_rows, 3, 200),
        ("kernel-mixture", mo.gauss_mixture_logpdf, 3, 203),
        ("kernel-mixture-shared", mo.gauss_mixture_logpdf, 1, 204),
        ("kernel-mixture-far", mo.gauss_mixture_logpdf, 3, 213),
        ("kernel-mixture-shared-far", mo.gauss_mixture_logpdf, 1, 214),
    ):
        pts = rng.split(label)
        point = [_normals(pts, 1, (3, 2)), _normals(pts, 2, (3, 2)), _normals(pts, 3, (ls_rows, 2), 0.3)]
        if name.endswith("-far"):
            point[0][0] += 60.0
        if kernel is mo.gauss_mixture_logpdf:
            point.insert(1, _normals(pts, 4, (3,)))
        checks.append(_fd_row(name, kernel, point, _normals(pts, 0, (3, 3))[:, 0]))
    # MPF's step weight in one node, in all seven parents: x, the log-weights,
    # both mixtures' means and log-stds, and log g
    for name, ls_rows, label in (("kernel-mixture-pair", 3, 215), ("kernel-mixture-pair-shared", 1, 216),
                                 ("kernel-mixture-pair-far", 3, 217)):
        pts = rng.split(label)
        point = [_normals(pts, 1, (3, 2)), _normals(pts, 2, (3,)), _normals(pts, 3, (3, 2)),
                 _normals(pts, 4, (ls_rows, 2), 0.3), _normals(pts, 5, (3, 2)), _normals(pts, 6, (ls_rows, 2), 0.3),
                 _normals(pts, 7, (3,))]
        if name.endswith("-far"):
            point[0][0] += 60.0
        checks.append(_fd_row(name, mo.gauss_mixture_pair, point, _normals(pts, 0, (3,))))
    # a draw's f g / r in one node, differentiated with the draw it scores:
    # its cotangents hold only for x made from r's own rows and noise
    for name, ls_rows, label in (("kernel-draw-ratio-shared", 1, 218), ("kernel-draw-ratio-per-row", 3, 219)):
        pts = rng.split(label)
        eps = _normals(pts, 1, (3, 2))

        def draw_ratio(r_means, r_ls, f_means, f_ls, log_g, eps=eps):
            return mo.gauss_draw_ratio(mo.gauss_rsample(r_means, r_ls, eps), eps, f_means, f_ls, r_ls, log_g)

        point = [_normals(pts, 2, (3, 2)), _normals(pts, 3, (ls_rows, 2), 0.3), _normals(pts, 4, (3, 2)),
                 _normals(pts, 5, (3, 2), 0.3), _normals(pts, 6, (3,))]
        checks.append(_fd_row(name, draw_ratio, point, _normals(pts, 0, (3,))))
    # the DMM nodes: the dense layer under each activation, the Bernoulli
    # emission, and the two outputs of the Gaussian product with a (1, d)
    # factor against (3, d) rows
    for name, act, label in (("kernel-affine", None, 205), ("kernel-affine-leaky", "leaky", 206),
                             ("kernel-affine-half", "half", 207)):
        pts = rng.split(label)
        checks.append(_fd_row(name, lambda x, w, b: mo.dense(x, w, b, act),
                              [_normals(pts, 1, (3, 2)), _normals(pts, 2, (2, 4)), _normals(pts, 3, (4,))],
                              _normals(pts, 0, (3, 4))))
    pts = rng.split(208)
    y = np.asarray([1.0, 0.0, 1.0, 0.0])
    checks.append(_fd_row("kernel-bernoulli", lambda logits: mo.bernoulli_logpmf_rows(logits, y),
                          [_normals(pts, 1, (3, 4), 2.0)], _normals(pts, 0, (3,))))
    pts = rng.split(209)
    w_mean, w_ls = (ad.constant(_normals(pts, k, (3, 2))) for k in (0, 1))

    def product(*factors):
        mean, log_std = gauss_product_fuse(*factors)
        return (mean * w_mean).sum() + (log_std * w_ls).sum()

    checks.append(_fd_row("kernel-product", product, [_normals(pts, 2, (3, 2)), _normals(pts, 3, (3, 2), 0.3),
                                                      _normals(pts, 4, (1, 2)), _normals(pts, 5, (1, 2), 0.3)]))
    # the reparameterized draw, with a (1, d) log-std shared by (3, d) means
    # and with components picked by ancestor rows, and the LGSSM proposal mean
    for name, ls_rows, rows, label in (("kernel-rsample", 1, None, 210),
                                       ("kernel-rsample-rows", 4, np.asarray([3, 0, 3]), 211)):
        pts = rng.split(label)
        eps = _normals(pts, 1, (3, 2))
        checks.append(_fd_row(name, lambda means, ls: mo.gauss_rsample(means, ls, eps, rows=rows),
                              [_normals(pts, 2, (3 if rows is None else 4, 2)), _normals(pts, 3, (ls_rows, 2), 0.3)],
                              _normals(pts, 0, (3, 2))))
    pts = rng.split(212)
    checks.append(_fd_row("kernel-lgssm-mean", lambda mu, beta, xa: mo.lgssm_proposal_mean(mu, beta, xa, 2),
                          [_normals(pts, k, (3, 2)) for k in (1, 2, 3)], _normals(pts, 0, (3, 2))))

    # biased and unbiased particle gradients coincide at a single particle
    m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
    data = mo.generate(m, 3, RngStream(7))
    phi = mo.proposal_init(m, 3)
    _, gb = ob.gradient_biased(ob.Objective("vmpf-bg", m, phi, 1), data, RngStream(5))
    _, gu = ob.gradient_unbiased(ob.Objective("vmpf-ug", m, phi, 1), data, RngStream(5))
    gap = float(np.max(np.abs(gb - gu)))
    checks.append(Check("n1-biased-vs-unbiased", gap, 1e-10))
    return checks


def _suite_collapse():
    m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
    data = mo.generate(m, 3, RngStream(7))
    phi = mo.proposal_init(m, 3)
    phi["beta"][:] = 0.0  # state-independent, so tmc draws the same points
    vals = [
        float(ob.objective_value(ob.Objective(kind, m, phi, 1), data, RngStream(42)).data)
        for kind in ob.KINDS
    ]
    spread = max(vals) - min(vals)
    return [Check("n1-all-kinds", spread, 1e-12)]


def _suite_bounds():
    m = mo.lgssm_make(2, 2, 0.42, "sparse", RngStream(1))
    data = mo.generate(m, 4, RngStream(9))
    kal = mo.kalman_loglik(m, data.ys)
    phi = mo.proposal_init(m, 4)
    checks = []
    for kind in ("iwvi", "vsmc", "vmpf-bg"):
        mean, se = ob.bound_estimate(ob.Objective(kind, m, phi, 4), data, 200, RngStream(3))
        # signed slack: positive means the bound is below kalman + 3 SE
        checks.append(Check(f"bound-{kind}", kal + 3.0 * se - mean, 0.0, ">="))
    return checks


SUITES = {
    "unbiasedness": _suite_unbiasedness,
    "identity": _suite_identity,
    "gradients": _suite_gradients,
    "collapse": _suite_collapse,
    "bounds": _suite_bounds,
}


def run(names):
    """Yield (suite, check) for every row of the named suites, in order."""
    for name in names:
        for check in SUITES[name]():
            yield name, check
