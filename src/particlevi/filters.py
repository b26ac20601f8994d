"""Particle filters: sequential (SMC), marginal (MPF), independent (IPF), tensor (TMC).

Weights live in log space end to end; normalized weights are materialized
only as exp(log w - logsumexp) at the categorical sampling boundary, which
is also where the gradient path is cut (bar MPF's ``implicit`` draw).
Resampling is multinomial inverse-CDF only.  The filters share one
signature; two switches tell the paper's bounds apart: ``run_smc``'s
``resample`` (vsmc, or iwvi) and ``run_mpf``'s ``implicit`` (vmpf-ug, or
vmpf-bg).

The four filters share one step loop, ``_filter``, and each passes it
only its weight rule.  The loop binds the model to the run once
(``models.bind``, on the caller's tape), runs step 1, the importance step
w_1 = f_1 g_1 / r_1 that every filter starts from, and calls the rule for
t = 2..T; the rules describe t >= 2 only.  It checks each step's weights
for degeneracy and records the run.  A rule asks the bound model's
builders for rows (``models.GaussRows`` or, for the HMM,
``models.TableRows``) and scores and draws through their methods and
``models``' two weight dispatches, so only ``models.bind`` decides what a
family is.  A draw scored under the rows that drew it (f g / r, or IPF's
and TMC's g / r) goes through ``models.draw_log_ratio``: on Gaussian rows
one node that takes log r from the draw's own noise.

All randomness is routed through a draw backend keyed by (step, purpose,
offset), so a run is bit-reproducible regardless of evaluation order, the
same noise can be replayed under a different estimator, and runs on finite
models can be enumerated exhaustively instead of sampled (a scripted
backend, ``checks.ScriptBackend``).  A filter's ``source`` is a seed, an
``RngStream`` or a backend with ``uniforms``, ``normals`` and
``choose_one``.  A backend may also serve one purpose for every step of a
run in one read (RandomBackend does); a run then reads each purpose it
uses once, and gets the same values as step-by-step reads.

Off tape, one pass of a filter can run R independent runs at once: a
``RandomBackend`` given R run labels serves each run the draws of its own
child stream, and the pass stacks the runs' particle rows, R N in all.
Row-wise work (proposals, draws, row kernels) is unchanged; what a run
sums or picks over its particles is done per run: the step's logsumexp and
log mean weight, resampling and mixture draws, the mixture densities, the
degeneracy check, and every matrix product or solve over particle rows,
which each run makes as it would alone (``ad.np_matmul``).  So each run is
bit-identical to the same run alone, and a step's log weights stay one
vector.  Only the loop, ``_RunDraws`` and ``models.bind`` know the pass
layout; a weight rule sees it only as ``draws.runs``.
``objectives.bound_estimate`` picks R from N, T and the observation width;
a tape records one run, so a pass of R > 1 under a tape is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import particlevi.autodiff as ad
from particlevi.autodiff import Var
from particlevi import models as mo
from particlevi.distributions import TailCounter, categorical_sample_many
from particlevi.models import ANCESTOR, PERM, PROPOSAL  # noqa: F401  (re-exported)
from particlevi.rng import RngStream

class DegeneracyError(RuntimeError):
    """A step's weights leave nothing to estimate: all are zero, or one is NaN or +inf.

    t is the step and sample the degenerate run's index, the lowest if
    several are: its index in the filter pass (``label`` "run"), which
    ``objectives.bound_estimate`` reports as a "sample" and
    ``objectives.train`` as an "iteration".  cause names which of the two
    it is, read off the step's largest log weight (``_degeneracy_cause``).
    """

    def __init__(self, t: int, sample: int, label: str, cause: str):
        super().__init__(f"particle degeneracy at t={t} in {label} {sample}: {cause}")
        self.t, self.sample, self.label, self.cause = t, sample, label, cause


def _degeneracy_cause(largest: float) -> str:
    """What a non-finite largest log weight says: -inf when every weight is zero, else NaN or +inf."""
    return "every weight is zero" if largest == -math.inf else "a weight is NaN or +inf"


# ---------------------------------------------------------------------------
# draw backends


class RandomBackend:
    """Counter-addressed pseudo-random draws from a root stream.

    The draws of (t, purpose) come from the child stream
    ``rng.split(t, purpose)``.  ``run_uniforms`` and ``run_normals`` read one
    purpose for steps 1..t_max at once, bit-identical to the per-step reads.
    A backend that changes the per-step reads must drop or change these too.

    runs, a sequence of integer labels, makes the backend serve a pass of
    len(runs) stacked runs: run r draws what ``RandomBackend(rng.split(
    runs[r]))`` draws, through the label paths (runs[r], t, purpose).  Such
    a backend serves run-level reads only: its per-step reads raise
    ``ValueError``.
    """

    def __init__(self, rng: RngStream, runs=None):
        self.rng = rng
        self.runs = runs

    def _labels(self, purpose: int, t_max: int) -> np.ndarray:
        steps = np.stack([np.arange(1, t_max + 1), np.full(t_max, purpose)], axis=1)
        if self.runs is None:
            return steps
        runs = np.asarray(self.runs)
        return np.column_stack([np.tile(runs, t_max), np.repeat(steps, len(runs), axis=0)])

    def run_uniforms(self, purpose: int, t_max: int, count: int) -> np.ndarray:
        """(t_max, R * count) uniforms; row t-1 is each run's ``uniforms(t, purpose, range(count))`` in turn."""
        return self.rng.split_uniforms_at(self._labels(purpose, t_max), np.arange(count)).reshape(t_max, -1)

    def run_normals(self, purpose: int, t_max: int, count: int) -> np.ndarray:
        """(t_max, R * count) normals; row t-1 is each run's ``normals(t, purpose, range(count))`` in turn."""
        return self.rng.split_normals_at(self._labels(purpose, t_max), np.arange(count)).reshape(t_max, -1)

    def _step(self, t: int, purpose: int) -> RngStream:
        if self.runs is not None:
            raise ValueError("a backend with run labels serves run-level reads only")
        return self.rng.split(t, purpose)

    def uniforms(self, t: int, purpose: int, offsets) -> np.ndarray:
        return self._step(t, purpose).uniforms_at(np.asarray(offsets))

    def normals(self, t: int, purpose: int, offsets) -> np.ndarray:
        return self._step(t, purpose).normals_at(np.asarray(offsets))

    def choose_one(self, t: int, purpose: int, offset: int, probs: np.ndarray) -> int:
        u = self.uniforms(t, purpose, np.asarray([offset]))[0]
        return int(categorical_sample_many(probs, np.asarray([u]))[0])


class _RunDraws:
    """One filter pass's reads from its draw backend.

    A backend with run-level reads (``run_uniforms`` and ``run_normals``) is
    read once per purpose, for every step, the first time the pass asks for
    that purpose; step t then takes row t-1.  Any other backend serves each
    step as it is asked.  Either way step t sees the backend's
    (t, purpose, offsets) draws at offsets 0..count-1, and a purpose is
    always asked for the same count within a pass.  A pass of ``runs``
    stacked runs (a backend with ``runs`` labels) gets each run's count
    draws in turn.  ``choose_shared`` and ``choose_each`` (IPF's swaps, the
    HMM's per-particle rows) pick from those draws with
    ``categorical_sample_many``, or ask a backend without run-level reads
    to choose at each offset with ``choose_one``.
    """

    __slots__ = ("backend", "t_max", "runs", "blocks")

    def __init__(self, backend, t_max: int, runs: int = 1):
        self.backend = backend
        self.t_max = t_max
        self.runs = runs
        self.blocks = {} if hasattr(backend, "run_normals") else None

    def _read(self, kind: str, t: int, purpose: int, count: int) -> np.ndarray:
        if self.blocks is None:
            return getattr(self.backend, kind)(t, purpose, np.arange(count))
        block = self.blocks.get((kind, purpose))
        if block is None:
            block = self.blocks[kind, purpose] = getattr(self.backend, "run_" + kind)(purpose, self.t_max, count)
        return block[t - 1]

    def uniforms(self, t: int, purpose: int, count: int) -> np.ndarray:
        return self._read("uniforms", t, purpose, count)

    def normals(self, t: int, purpose: int, count: int) -> np.ndarray:
        return self._read("normals", t, purpose, count)

    def choose_shared(self, t: int, purpose: int, n: int, probs: np.ndarray) -> np.ndarray:
        """n inverse-CDF choices per run at offsets 0..n-1, from one (K,) vector for every run.

        An (R, K) table gives run r its own row r, and its choice k comes
        back as r * K + k, an index into the runs' stacked rows.
        """
        if probs.ndim == 2 and probs.shape[0] == 1:
            probs = probs[0]
        if self.blocks is None:
            return self.choose_each(t, purpose, [probs] * n)
        us = self.uniforms(t, purpose, n)
        if probs.ndim == 1:
            return categorical_sample_many(probs, us)
        k = probs.shape[1]
        return np.concatenate([categorical_sample_many(p, u) + r * k
                               for r, (p, u) in enumerate(zip(probs, us.reshape(-1, n)))])

    def choose_each(self, t: int, purpose: int, rows: list) -> np.ndarray:
        """One choice per probability vector; ragged vectors are zero-padded.

        rows holds each run's vectors in turn, as many for every run, and a
        run's vector k is chosen at offset k.
        """
        if self.blocks is None:
            return np.asarray([self.backend.choose_one(t, purpose, k, p) for k, p in enumerate(rows)], np.intp)
        us = self.uniforms(t, purpose, len(rows) // self.runs)
        probs = np.zeros((len(rows), max(map(len, rows), default=0)))
        for k, p in enumerate(rows):
            probs[k, : len(p)] = p
        return categorical_sample_many(probs, us)


# ---------------------------------------------------------------------------
# run record and the step loop


@dataclass
class ParticleRun:
    """Everything a filter run produced, weights still on the tape.

    log_weights holds the per-step quantity native to the algorithm: the
    increment w_t / v_t for the resampling filters, the running product
    u_t / z_t for the cumulative ones (flagged by ``cumulative``).  Either
    way log_mean_weights[t] = logsumexp(log_weights[t]) - log N, and
    log_evidence is the last of them (cumulative) or their sum.  bound is
    the run's ``models.bind`` result: its model, proposal and observations,
    through which ``checks.mpf_tmc_identity_check`` rescores the run.
    A pass of runs > 1 stacks each run's N particle rows in turn, so each
    step's log weights stay one vector of R * N, and its log mean weights
    and the log evidence hold one value per run.
    """

    kind: str
    particles: list
    log_weights: list
    log_mean_weights: list
    cumulative: bool
    ancestors: list | None = None
    bound: object = None
    tail: TailCounter | None = None
    runs: int = 1
    log_evidence: Var = field(init=False)

    def __post_init__(self):
        lmw = self.log_mean_weights
        self.log_evidence = lmw[-1] if self.cumulative else sum(lmw[1:], lmw[0])

    @property
    def tail_failures(self) -> int:
        """Tail draws of the implicit gradient so far.

        The implicit rules run inside ``grad``, so the count is read live
        from the run's counter; it is 0 before any backward pass.
        """
        return 0 if self.tail is None else self.tail.count

    @property
    def n_particles(self) -> int:
        return self.log_weights[0].data.shape[0] // self.runs

    @property
    def t_max(self) -> int:
        return len(self.log_weights)


def make_backend(source):
    """The one seed/stream -> backend step: a seed or an ``RngStream`` gives a
    ``RandomBackend`` on that root stream, a backend is returned as it is."""
    if isinstance(source, RngStream):
        return RandomBackend(source)
    if isinstance(source, (int, np.integer)):
        return RandomBackend(RngStream(int(source)))
    if not hasattr(source, "normals"):
        raise TypeError(f"source must be a seed, an RngStream or a draw backend, got {source!r}")
    return source


def _increment(bound, draws, t: int, x, n: int) -> tuple:
    """n draws of step t's proposal given parents x (None at t=1) and their (log f + log g) - log r.

    Step 1 of every filter, each step of ``run_smc`` and ``run_mpf``'s step
    at N=1.  The weight is ``models.draw_log_ratio`` of the draw under the
    transition and proposal rows: on Gaussian rows one node, which scores
    log r from the draw's noise."""
    proposal = mo.proposal_build_many(bound, t, x)
    x_new = proposal.draw(draws, t, n)
    transition = mo.transition_build_many(bound, t, x)
    return x_new, mo.draw_log_ratio(transition, proposal, draws, t, n, x_new, mo.emission_logpdf_rows(bound, t, x_new))


def _filter(kind, model, params, data, n: int, source, step, cumulative: bool, **record) -> ParticleRun:
    """The step loop of every filter; step(bound, draws, t, x, logw, lse) is its weight rule.

    The loop runs step 1, ``_increment`` from no parents, for every filter.
    The rule returns step t >= 2's particles and log weights from the
    previous step's x, logw and their logsumexp lse, spread to each particle
    row (a scalar for one run).  A backend with ``runs`` labels asks for a
    pass of that many runs, which a tape cannot record.  record holds the
    filter's own ``ParticleRun`` fields.
    """
    mo.check_count("n_particles", n, 1)
    backend = make_backend(source)
    runs = 1 if getattr(backend, "runs", None) is None else len(backend.runs)
    if runs > 1 and ad.recording():
        raise ValueError(f"a pass of {runs} runs is off tape only; a tape records one run")
    bound = mo.bind(model, params, data, runs)
    draws = _RunDraws(backend, bound.ys.shape[0], runs)
    log_n = math.log(n)

    particles, log_weights, log_mean_weights = [], [], []
    for t in range(1, draws.t_max + 1):
        x, logw = _increment(bound, draws, 1, None, n) if t == 1 else step(bound, draws, t, x, logw, lse)
        # a run's weights are all zero or hold a NaN or +inf exactly when its largest is not finite
        if runs == 1:
            largest = logw.data.max()
            if not math.isfinite(largest):
                raise DegeneracyError(t, 0, "run", _degeneracy_cause(largest))
            lse = ad.logsumexp(logw)
            log_mean_weights.append(lse - log_n)
        else:
            per_run = logw.data.reshape(runs, -1)
            largest = per_run.max(axis=1)
            live = np.isfinite(largest)
            if not live.all():
                j = int(np.argmin(live))
                raise DegeneracyError(t, j, "run", _degeneracy_cause(largest[j]))
            each = ad.np_logsumexp(per_run, axis=1)
            log_mean_weights.append(ad.constant(each) - log_n)
            lse = ad.constant(np.repeat(each, n))
        particles.append(x)
        log_weights.append(logw)

    return ParticleRun(kind, particles, log_weights, log_mean_weights, cumulative, bound=bound, runs=runs, **record)


# ---------------------------------------------------------------------------
# Sequential Monte Carlo


def run_smc(model, params, data, n_particles: int, source, resample: bool = True) -> ParticleRun:
    """Multinomial-resampling particle filter.

    Per step: ancestors drawn from the normalized previous weights, states
    extended through the proposal, weight f*g/r.  The loop's logsumexp of
    a step's log weights also normalizes the next step's resampling
    probabilities.  The run records each step's ancestor indices.  Each
    step is ``_increment`` on the resampled parents, so its weight is one
    ``models.gauss_draw_ratio`` node on the continuous families.  Under
    a tape the reparameterization path runs through every state but none
    through the resampling probabilities (vsmc).  resample=False turns the
    run into independent importance-sampling chains (ancestors i -> i)
    whose weights accumulate across steps (iwvi).
    """
    n = n_particles
    ancestors = []

    def step(bound, draws, t, x, logw, lse):
        anc = (draws.choose_shared(t, ANCESTOR, n, np.exp(logw.data - lse.data).reshape(draws.runs, n))
               if resample else np.arange(draws.runs * n))
        ancestors.append(anc)
        x_new, inc = _increment(bound, draws, t, ad.gather_rows(x, anc), n)
        return x_new, (inc if resample else logw + inc)

    return _filter("smc", model, params, data, n, source, step, not resample, ancestors=ancestors)


# ---------------------------------------------------------------------------
# Marginal particle filter


def run_mpf(model, params, data, n_particles: int, source, implicit: bool = False) -> ParticleRun:
    """Marginal particle filter with the mixture proposal.

    New states are drawn from sum_j vbar_{t-1}^j r_t(. | x_{t-1}^j); the
    weight recursion marginalizes the ancestor:

        log v_t^i = logsumexp_j(log vbar_j + log f_ij) + log g_i
                  - logsumexp_j(log vbar_j + log r_ij)

    ``models.mixture_log_ratio`` forms the whole weight from the
    transition and the proposal rows.  On continuous models both
    logsumexps and the log g term are one ``models.gauss_mixture_pair``
    node, so the (N, N) pair terms never reach the tape.  log vbar reuses
    the loop's logsumexp node of the previous step's log weights.  The
    HMM's rows are tables: each logsumexp is one over table entries, and a
    step draws its states from the marginal row sum_j vbar_j r_t(. | x_{t-1}^j).

    At N=1 the mixture is its one row and log vbar is 0, so the step is
    run_smc's, ``_increment``: the run is run_smc's bit for bit, gradients
    included.  It skips run_smc's one-way ANCESTOR choice; draws are
    addressed by (t, purpose, offset), so no other draw moves.

    implicit picks the gradient estimator from t=2 on (the proposal rows'
    ``draw_mixture``).  Both draw the same particles: the component index
    is chosen with detached probabilities and the draw reparameterized
    within it.  By default that is the whole gradient (vmpf-bg);
    implicit=True attaches one mixture_implicit_rsample node to a step's N
    realized draws, so the mixture weights themselves carry gradients
    (vmpf-ug), and the HMM's tables reject it.  Their forward values are
    bit-identical, and off tape implicit=True changes nothing.  Step 1,
    the loop's, is drawn the same way in both, and so is every step at
    N=1.  Tail draws of the implicit gradient are counted in
    ``tail_failures`` as ``grad`` runs the rules.
    """
    n = n_particles
    tail = TailCounter()

    def step(bound, draws, t, x, logw, lse):
        if n == 1:  # the mixture is the one row: the step is SMC's
            return _increment(bound, draws, t, x, n)
        log_vbar = logw - lse
        proposal = mo.proposal_build_many(bound, t, x)
        x_new = proposal.draw_mixture(draws, t, n, log_vbar, implicit, tail)
        log_g = mo.emission_logpdf_rows(bound, t, x_new)
        transition = mo.transition_build_many(bound, t, x)
        return x_new, mo.mixture_log_ratio(transition, proposal, x_new, log_vbar, log_g, draws.runs)

    return _filter("mpf", model, params, data, n, source, step, False, tail=tail)


# ---------------------------------------------------------------------------
# Independent particle filter


def _permutation(draws: _RunDraws, t: int, n: int) -> np.ndarray:
    """Fisher-Yates permutation of step t: swap c moves position n-1-c.

    The swaps choose uniformly among 0..n-1-c, swap c at offset c of the
    step's PERM draws, so a backend with run-level reads serves a pass's
    swaps in one read and any other backend chooses them one at a time.
    A pass permutes each run's n stacked rows among themselves.
    """
    runs = draws.runs
    picks = draws.choose_each(t, PERM, [np.full(k, 1.0 / k) for k in range(n, 1, -1)] * runs)
    perm = np.tile(np.arange(n), (runs, 1))
    each = np.arange(runs)
    for i, j in zip(range(n - 1, 0, -1), picks.reshape(runs, -1).T):
        perm[each, i], perm[each, j] = perm[each, j], perm[each, i]
    return (perm + each[:, None] * n).reshape(-1)


def run_ipf(model, params, data, n_particles: int, l_perms: int, source) -> ParticleRun:
    """Independent particle filter: proposals may not condition on the past.

    Each step pairs particle i with the L parents k_{1..L,i} read off L
    columnwise-distinct permutations (a random base permutation and its
    cyclic shifts) and accumulates

        u_t^i = sum_l u_{t-1}^{k_li} f(x_t^i | x_{t-1}^{k_li}) g_i / (L r_t(x_t^i))

    The L pairings share g_i / r_t(x_t^i), ``models.draw_log_ratio`` with no
    transition: one node from the draw's noise on Gaussian rows.
    """
    n = n_particles
    mo.check_count("n_particles", n, 1)  # N is reported before L
    mo.check_count("l_perms", l_perms, 1)
    if l_perms > n:
        raise ValueError("l_perms must satisfy 1 <= L <= N")

    def step(bound, draws, t, x, logw, lse):
        proposal = mo.proposal_build_many(bound, t)
        x_new = proposal.draw(draws, t, n)
        extra = mo.draw_log_ratio(None, proposal, draws, t, n, x_new, mo.emission_logpdf_rows(bound, t, x_new))
        base = _permutation(draws, t, n).reshape(draws.runs, n)
        terms = []
        for l in range(l_perms):
            k_l = base[:, (np.arange(n) + l) % n].reshape(-1)
            log_f_l = mo.transition_build_many(bound, t, ad.gather_rows(x, k_l)).logpdf_rows(x_new)
            terms.append(ad.gather_rows(logw, k_l) + log_f_l)
        return x_new, (ad.logsumexp(ad.stack_rows(terms), axis=0) - math.log(l_perms)) + extra

    return _filter("ipf", model, params, data, n, source, step, True)


# ---------------------------------------------------------------------------
# Tensor Monte Carlo


def run_tmc(model, params, data, n_particles: int, source) -> ParticleRun:
    """Factorized tensor Monte Carlo: every pairing of consecutive particles.

        z_t^i = sum_j z_{t-1}^j f(x_t^i | x_{t-1}^j) g_i / (N r_t(x_t^i))

    Proposals must be state-independent.  There is no resampling, so a run
    under an active tape is fully reparameterized.  The sum over j is the
    transition rows' ``mixture_logpdf`` with the unnormalized log z_{t-1}
    as mixture weights; on continuous models that is one
    ``models.gauss_mixture_logpdf`` node.  Those can spread over
    hundreds of nats, so a particle near only low-weight parents can fall
    far below the node's shift bound, which the top weight sets; the node
    redoes such rows with their own maximum.  g_i / r_t(x_t^i) is
    ``models.draw_log_ratio`` with no transition, as in ``run_ipf``.
    """
    n = n_particles

    def step(bound, draws, t, x, logw, lse):
        proposal = mo.proposal_build_many(bound, t)
        x_new = proposal.draw(draws, t, n)
        extra = mo.draw_log_ratio(None, proposal, draws, t, n, x_new, mo.emission_logpdf_rows(bound, t, x_new))
        return x_new, mo.transition_build_many(bound, t, x).mixture_logpdf(x_new, logw, draws.runs) - math.log(n) + extra

    return _filter("tmc", model, params, data, n, source, step, True)
