"""Particle filters: sequential (SMC), marginal (MPF), independent (IPF), tensor (TMC).

Weights live in log space end to end; normalized weights are materialized
only as exp(log w - logsumexp) at the categorical sampling boundary, which
is also where the gradient path is cut (bar MPF's ``implicit`` draw).
Resampling is multinomial inverse-CDF only.  The filters share one
signature; two switches tell the paper's bounds apart: ``run_smc``'s
``resample`` (vsmc, or iwvi) and ``run_mpf``'s ``implicit`` (vmpf-ug, or
vmpf-bg).

Each filter has one body for every model family.  It binds the model to
the run once (``models.bind``, on the caller's tape), asks the bound
model's builders for rows (``models.GaussRows`` or, for the HMM,
``models.TableRows``) and scores and draws through their methods, so only
``models.bind`` decides what a family is.

All randomness is routed through a draw backend keyed by (step, purpose,
offset), so a run is bit-reproducible regardless of evaluation order, the
same noise can be replayed under a different estimator, and runs on finite
models can be enumerated exhaustively instead of sampled.  A filter's
``source`` is a seed, an ``RngStream`` or a backend with ``uniforms``,
``normals`` and ``choose_one``.  A backend may also serve one purpose for
every step of a run in one read (RandomBackend does); a run then reads
each purpose it uses once, and gets the same values as step-by-step reads.

Off tape, one pass of a filter can run R independent runs at once: a
``RandomBackend`` given R run labels serves each run the draws of its own
child stream, and the pass stacks the runs' particle rows, R N in all.
Row-wise work (proposals, draws, row kernels) is unchanged; what a run
sums or picks over its particles is done per run: the step's logsumexp and
log mean weight, resampling and mixture draws, the mixture densities, the
degeneracy check, and every matrix product or solve over particle rows,
which each run makes as it would alone (``ad.np_matmul``).  So each run is
bit-identical to the same run alone, and a step's log weights stay one
vector.  ``objectives.bound_estimate`` picks R from N, T and the
observation width; a tape records one run, so a pass of R > 1 under a tape
is refused.
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
    ``objectives.train`` as an "iteration".
    """

    def __init__(self, t: int, sample: int = 0, label: str = "run"):
        super().__init__(f"particle degeneracy at t={t} in {label} {sample}: "
                         "every weight is zero, or one is NaN or +inf")
        self.t, self.sample, self.label = t, sample, label


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
    a backend serves run-level reads only.
    """

    def __init__(self, rng: RngStream, runs=None):
        self.rng = rng
        self.runs = runs

    def _labels(self, purpose: int, t_max: int) -> np.ndarray:
        steps = _step_labels(purpose, t_max)
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

    def uniforms(self, t: int, purpose: int, offsets) -> np.ndarray:
        return self.rng.split(t, purpose).uniforms_at(np.asarray(offsets))

    def normals(self, t: int, purpose: int, offsets) -> np.ndarray:
        return self.rng.split(t, purpose).normals_at(np.asarray(offsets))

    def choose_one(self, t: int, purpose: int, offset: int, probs: np.ndarray) -> int:
        u = self.uniforms(t, purpose, np.asarray([offset]))[0]
        return int(categorical_sample_many(probs, np.asarray([u]))[0])


def _step_labels(purpose: int, t_max: int) -> np.ndarray:
    """The (t, purpose) label paths of steps 1..t_max, one row per step."""
    steps = np.arange(1, t_max + 1)
    return np.stack([steps, np.full(t_max, purpose)], axis=1)


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
    HMM's per-particle rows) pick by inverse CDF from those draws, with the
    clamp and zero-weight guard of ``categorical_sample_many``, or ask a
    backend without run-level reads to choose at each offset with
    ``choose_one``.
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
            block = getattr(self.backend, "run_" + kind)(purpose, self.t_max, count)
            self.blocks[kind, purpose] = block
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
        sizes = np.asarray([len(p) for p in rows], dtype=np.intp)
        probs = np.zeros((len(rows), max(sizes, default=0)))
        for k, p in enumerate(rows):
            probs[k, : sizes[k]] = p
        if not np.all(np.any(probs > 0.0, axis=1)):
            raise ValueError("total particle degeneracy: all categorical weights zero")
        idx = np.minimum((np.cumsum(probs, axis=1) <= us[:, None]).sum(axis=1), sizes - 1)
        at = np.arange(len(rows))
        while np.any(probs[at, idx] == 0.0):
            idx = np.where(probs[at, idx] == 0.0, idx - 1, idx)
        return idx


class ScriptBackend:
    """Replays a prescribed branch at each discrete choice point.

    Used by enumerate_expectation to walk every realization of a run on a
    finite model.  Positions beyond the script take the first branch with
    positive probability and extend the script; the trace records every
    (branch, probability vector) so the driver can compute the path weight
    and advance to the next path.  Continuous draws are rejected.
    """

    def __init__(self, script):
        self.script = list(script)
        self.trace = []
        self._pos = 0

    def uniforms(self, t, purpose, offsets):
        raise RuntimeError("exhaustive enumeration requires a fully discrete model")

    normals = uniforms

    def _choose(self, probs: np.ndarray) -> int:
        probs = np.asarray(probs, dtype=np.float64)
        if self._pos < len(self.script):
            k = self.script[self._pos]
        else:
            nonzero = np.flatnonzero(probs > 0.0)
            if nonzero.size == 0:
                raise ValueError("all branches have zero probability")
            k = int(nonzero[0])
            self.script.append(k)
        self.trace.append((k, probs))
        self._pos += 1
        return k

    def choose_one(self, t, purpose, offset, probs):
        return self._choose(probs)


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
        nxt = None
        pos = len(backend.trace) - 1
        while pos >= 0:
            k, probs = backend.trace[pos]
            later = np.flatnonzero(probs[k + 1 :] > 0.0)
            if later.size:
                nxt = k + 1 + int(later[0])
                break
            pos -= 1
        if nxt is None:
            return
        script = [k for k, _ in backend.trace[:pos]] + [nxt]


def enumerate_expectation(run_fn, cap: int = 1_000_000) -> float:
    """Exact E[run_fn] over every branch of its discrete draws."""
    return sum(value * prob for value, prob, _ in enumerate_paths(run_fn, cap))


# ---------------------------------------------------------------------------
# run record


@dataclass
class ParticleRun:
    """Everything a filter run produced, weights still on the tape.

    log_weights holds the per-step quantity native to the algorithm: the
    increment w_t / v_t for the resampling filters, the running product
    u_t / z_t for the cumulative ones (flagged by ``cumulative``).  Either
    way log_mean_weights[t] = logsumexp(log_weights[t]) - log N, and
    log_evidence is the last of them (cumulative) or their sum.  bound is
    the run's ``models.bind`` result: its model, proposal and observations.
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


def _check_alive(logw: Var, t: int, runs: int):
    """Raise for the lowest run whose weights are all zero or hold a NaN or +inf.

    The largest log weight of such a run, and only of such a run, is not finite.
    """
    if runs == 1:
        if not math.isfinite(logw.data.max()):
            raise DegeneracyError(t)
        return
    live = np.isfinite(logw.data.reshape(runs, -1).max(axis=1))
    if not live.all():
        raise DegeneracyError(t, int(np.argmin(live)))


def _logsumexp(logw: Var, runs: int) -> Var:
    """logsumexp of each run's weights: the tape's node for one run, (R,) values for a pass."""
    if runs == 1:
        return ad.logsumexp(logw)
    return ad.constant(ad.np_logsumexp(logw.data.reshape(runs, -1), axis=1))


def _per_row(lse: Var, n: int) -> Var:
    """Each run's value on its n particle rows; one run's scalar stays as it is."""
    return lse if lse.data.ndim == 0 else ad.constant(np.repeat(lse.data, n))


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


def _start(model, params, data, n_particles: int, source) -> tuple:
    """(the pass's ``models.bind`` result, its draws, log N): the set-up every filter shares.

    A backend with ``runs`` labels asks for a pass of that many runs, which
    a tape cannot record: it holds one run's nodes.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    backend = make_backend(source)
    runs = 1 if getattr(backend, "runs", None) is None else len(backend.runs)
    if runs > 1 and ad.recording():
        raise ValueError(f"a pass of {runs} runs is off tape only; a tape records one run")
    bound = mo.bind(model, params, data, runs)
    return bound, _RunDraws(backend, bound.ys.shape[0], runs), math.log(n_particles)


# ---------------------------------------------------------------------------
# Sequential Monte Carlo


def run_smc(model, params, data, n_particles: int, source, resample: bool = True) -> ParticleRun:
    """Multinomial-resampling particle filter.

    Per step: ancestors drawn from the normalized previous weights, states
    extended through the proposal, weight f*g/r.  The logsumexp node of a
    step's log mean weight also normalizes the next step's resampling
    probabilities.  The run records each step's ancestor indices.  Under
    a tape the reparameterization path runs through every state but none
    through the resampling probabilities (vsmc).  resample=False turns the
    run into independent importance-sampling chains (ancestors i -> i)
    whose weights accumulate across steps (iwvi).
    """
    bound, draws, log_n = _start(model, params, data, n_particles, source)
    n, t_max, runs = n_particles, bound.ys.shape[0], draws.runs

    particles, log_weights, log_mean_weights, ancestors = [], [], [], []
    x = None
    lse = None  # logsumexp of the previous step's log weights

    for t in range(1, t_max + 1):
        if t == 1:
            anc = None
        elif resample:
            probs = np.exp(log_weights[-1].data - _per_row(lse, n).data)
            anc = draws.choose_shared(t, ANCESTOR, n, probs.reshape(runs, n))
        else:
            anc = np.arange(runs * n)
        if anc is not None:
            ancestors.append(anc)

        parent = None if t == 1 else ad.gather_rows(x, anc)
        proposal = mo.proposal_build_many(bound, t, parent)
        x = proposal.draw(draws, t, n)
        inc = (
            mo.transition_build_many(bound, t, parent).logpdf_rows(x)
            + mo.emission_logpdf_rows(bound, t, x)
            - proposal.logpdf_rows(x)
        )

        logw = inc if (resample or t == 1) else log_weights[-1] + inc
        _check_alive(logw, t, runs)
        particles.append(x)
        log_weights.append(logw)
        lse = _logsumexp(logw, runs)
        log_mean_weights.append(lse - log_n)

    return ParticleRun("smc", particles, log_weights, log_mean_weights, cumulative=not resample,
                       ancestors=ancestors, bound=bound, runs=runs)


# ---------------------------------------------------------------------------
# Marginal particle filter


def run_mpf(model, params, data, n_particles: int, source, implicit: bool = False) -> ParticleRun:
    """Marginal particle filter with the mixture proposal.

    New states are drawn from sum_j vbar_{t-1}^j r_t(. | x_{t-1}^j); the
    weight recursion marginalizes the ancestor:

        log v_t^i = logsumexp_j(log vbar_j + log f_ij) + log g_i
                  - logsumexp_j(log vbar_j + log r_ij)

    Each logsumexp is the ``mixture_logpdf`` of the transition or the
    proposal rows, on continuous models one ``models.gauss_mixture_logpdf``
    node, so the (N, N) pair terms never reach the tape.  At N=1 the row
    kernel plus log vbar stands in, which keeps the run bit-aligned with
    run_smc.  log vbar reuses the logsumexp node of the previous
    step's log mean weight.  The HMM's rows are tables: each logsumexp is
    one over table entries, and a step draws its states from the marginal
    row sum_j vbar_j r_t(. | x_{t-1}^j).

    implicit picks the sampling estimator from t=2 on (the proposal rows'
    ``draw_mixture``): by default the component index is drawn with
    detached probabilities and the draw reparameterized within it
    (vmpf-bg); implicit=True draws a step's N particles through one
    mixture_implicit_rsample node, so the mixture weights themselves carry
    gradients (vmpf-ug), and the HMM's tables reject it.  Both read the
    same noise, so their forward values are bit-identical, and off tape
    implicit=True draws the vmpf-bg way.  The t=1
    proposal is drawn the same way in both.  Tail draws of the implicit
    gradient are counted in ``tail_failures`` as ``grad`` runs the rules.
    """
    bound, draws, log_n = _start(model, params, data, n_particles, source)
    n, t_max, runs = n_particles, bound.ys.shape[0], draws.runs
    tail = TailCounter()

    particles, log_weights, log_mean_weights = [], [], []
    x = None
    lse = None  # logsumexp of the previous step's log weights

    for t in range(1, t_max + 1):
        log_vbar = None if t == 1 else log_weights[-1] - _per_row(lse, n)
        proposal = mo.proposal_build_many(bound, t, x)
        if t == 1:
            x_new = proposal.draw(draws, 1, n)
            log_g = mo.emission_logpdf_rows(bound, 1, x_new)
            logv = mo.transition_build_many(bound, 1).logpdf_rows(x_new) + log_g - proposal.logpdf_rows(x_new)
        else:
            x_new = proposal.draw_mixture(draws, t, n, log_vbar, implicit, tail)
            log_g = mo.emission_logpdf_rows(bound, t, x_new)
            num = mo.transition_build_many(bound, t, x).mixture_logpdf(x_new, log_vbar, runs)
            den = proposal.mixture_logpdf(x_new, log_vbar, runs)
            logv = num + log_g - den
        x = x_new

        _check_alive(logv, t, runs)
        particles.append(x)
        log_weights.append(logv)
        lse = _logsumexp(logv, runs)
        log_mean_weights.append(lse - log_n)

    return ParticleRun("mpf", particles, log_weights, log_mean_weights, cumulative=False,
                       bound=bound, tail=tail, runs=runs)


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
    """
    bound, draws, log_n = _start(model, params, data, n_particles, source)
    if not 1 <= l_perms <= n_particles:
        raise ValueError("l_perms must satisfy 1 <= L <= N")
    n, t_max, runs = n_particles, bound.ys.shape[0], draws.runs
    log_l = math.log(l_perms)

    particles, log_weights, log_mean_weights = [], [], []
    x = None

    for t in range(1, t_max + 1):
        proposal = mo.proposal_build_many(bound, t)
        x_new = proposal.draw(draws, t, n)
        extra = mo.emission_logpdf_rows(bound, t, x_new) - proposal.logpdf_rows(x_new)
        if t == 1:
            logu = mo.transition_build_many(bound, 1).logpdf_rows(x_new) + extra
        else:
            base = _permutation(draws, t, n).reshape(runs, n)
            terms = []
            for l in range(l_perms):
                k_l = base[:, (np.arange(n) + l) % n].reshape(-1)
                log_f_l = mo.transition_build_many(bound, t, ad.gather_rows(x, k_l)).logpdf_rows(x_new)
                terms.append(ad.gather_rows(log_weights[-1], k_l) + log_f_l)
            pooled = ad.logsumexp(ad.stack_rows(terms), axis=0) - log_l
            logu = pooled + extra

        _check_alive(logu, t, runs)
        x = x_new
        particles.append(x)
        log_weights.append(logu)
        log_mean_weights.append(_logsumexp(logu, runs) - log_n)

    return ParticleRun("ipf", particles, log_weights, log_mean_weights, cumulative=True, bound=bound,
                       runs=runs)


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
    redoes such rows with their own maximum.
    """
    bound, draws, log_n = _start(model, params, data, n_particles, source)
    n, t_max, runs = n_particles, bound.ys.shape[0], draws.runs

    particles, log_weights, log_mean_weights = [], [], []
    x = None

    for t in range(1, t_max + 1):
        proposal = mo.proposal_build_many(bound, t)
        x_new = proposal.draw(draws, t, n)
        extra = mo.emission_logpdf_rows(bound, t, x_new) - proposal.logpdf_rows(x_new)
        if t == 1:
            logz = mo.transition_build_many(bound, 1).logpdf_rows(x_new) + extra
        else:
            logz = mo.transition_build_many(bound, t, x).mixture_logpdf(x_new, log_weights[-1], runs) - log_n + extra

        _check_alive(logz, t, runs)
        x = x_new
        particles.append(x)
        log_weights.append(logz)
        log_mean_weights.append(_logsumexp(logz, runs) - log_n)

    return ParticleRun("tmc", particles, log_weights, log_mean_weights, cumulative=True, bound=bound,
                       runs=runs)


# ---------------------------------------------------------------------------
# cross-estimator identity


def mpf_tmc_identity_check(run: ParticleRun) -> float:
    """Max log-space gap between the MPF weights and TMC under its mixture.

    With proposal q_t(x) = sum_j vbar_{t-1}^j r_t(x | x_{t-1}^j), the TMC
    weight recursion applied to the recorded particles, rescored by the
    run's bound model, must reproduce z_t^i = v_t^i * prod_{tau<t}
    mean(v_tau).  Returns the largest absolute log-space discrepancy over
    all (t, i).
    """
    if run.kind != "mpf":
        raise ValueError("identity check expects an MPF run")
    n = run.n_particles
    log_n = math.log(n)
    worst = 0.0
    log_z = run.log_weights[0].data
    running = 0.0
    for t in range(2, run.t_max + 1):
        x, xp = run.particles[t - 1], run.particles[t - 2]
        logv_prev = run.log_weights[t - 2].data
        log_vbar = logv_prev - ad.np_logsumexp(logv_prev)
        log_f = mo.transition_build_many(run.bound, t, xp).logpdf_matrix(x).data
        log_r = mo.proposal_build_many(run.bound, t, xp).logpdf_matrix(x).data
        log_g = mo.emission_logpdf_rows(run.bound, t, x).data
        log_q = ad.np_logsumexp(log_vbar[None, :] + log_r, axis=1)
        line6 = ad.np_logsumexp(log_z[None, :] + log_f, axis=1) + log_g - log_n - log_q
        running += float(run.log_mean_weights[t - 2].data)
        identity = run.log_weights[t - 1].data + running
        worst = max(worst, float(np.max(np.abs(line6 - identity))))
        log_z = identity
    return worst

