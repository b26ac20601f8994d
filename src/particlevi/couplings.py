"""Estimator-coupling pairs and the combinators that assemble filters from them.

An estimator-coupling pair packs a positive estimator R of an unnormalized
density's mass together with an atomic approximation a(x) of the normalized
target, tied by the validity condition E[R * a(x)] = gamma(x).  Four
combinators are enough to build particle filters out of such pairs:

  basic_pair     importance sampling against one unnormalized density
  replicate      run the nu-part in n lanes over a shared omega-part
  extend_target  grow the target by one conditional factor (optionally
                 dropping the old coordinate, which changes the target
                 to the new marginal instead of extending it)
  marginalize    replace R by its conditional expectation over a finite
                 auxiliary, which never increases variance

derive_smc and derive_mpf perform the corresponding folds literally, one
operation per time step.  Each binds the model once (``models.bind``), and
the step densities and proposals score and draw through that bound model,
as the filters do.  Randomness routes through the same (step, purpose,
offset) backend seam as the filters module, so a derived pair executed
against the same root stream reproduces the matching filter's log
estimator to float-roundoff precision.  Execution here favors mechanical
transparency over speed (lanes are drawn one by one, marginalization is
quadratic); the filters module is the vectorized path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import particlevi.autodiff as ad
from particlevi.autodiff import Var
from particlevi import models as mo
from particlevi.filters import ANCESTOR, make_backend


# ---------------------------------------------------------------------------
# domain types


@dataclass
class WeightedAtoms:
    """Finite atomic measure as (value, log-weight) pairs."""

    atoms: list
    normalized: bool = True

    def __post_init__(self):
        if self.normalized and abs(float(ad.np_logsumexp(self.log_weights()))) > 1e-10:
            raise ValueError("normalized atom weights must logsumexp to 0")

    def log_weights(self) -> np.ndarray:
        return np.asarray([lw for _, lw in self.atoms], dtype=np.float64)

    def probs(self) -> np.ndarray:
        return np.exp(self.log_weights())


@dataclass
class DrawResult:
    """One realization of a pair: internal state, estimator, coupling."""

    omega: dict
    log_r: Var
    coupling: WeightedAtoms

    def __post_init__(self):
        v = float(self.log_r.data)
        if np.isnan(v) or v == np.inf:
            raise ValueError("log-R must be finite or -inf")


@dataclass
class StepProposal:
    """Conditional proposal with draw addressing baked into its closures.

    sample(backend, lane, x_prev) -> value; logpdf(x_prev, value) -> scalar.
    x_prev may be a nested (history, state) tuple; closures unwrap it.
    """

    sample: Callable
    logpdf: Callable


@dataclass
class StepRatio:
    """log[gamma_t / gamma_{t-1}] = log f(x_t | x_{t-1}) + log g(y_t | x_t), term by term.

    log_f(x_prev, x) and log_g(x) score (1, d) state rows; ratio(old, new)
    is their sum.  The terms apart let the MPF ancestor selector score one
    new state's log g once against every ancestor's log f.
    """

    log_f: Callable
    log_g: Callable

    def __call__(self, old, new):
        x = _row(new)
        return (self.log_f(old, x) + self.log_g(x)).sum()


@dataclass
class TargetRatio:
    """The factor log[gamma'(x, x') / gamma(x)] that extends a target by one step.

    Carries the step proposal and the time index used for draw addressing;
    drop_old selects between extending the target and replacing it with the
    new marginal.
    """

    evaluator: Callable
    proposal: StepProposal
    drop_old: bool = False
    t: int = 2


@dataclass
class CouplingPair:
    """A sampler factored as shared omega-part plus per-lane nu-part.

    draw() runs both parts once (lane 0) and is the public sampler; the
    factored form exists so replicate can rerun only the nu-part.
    """

    omega_part: Callable
    nu_part: Callable
    description: str

    def draw(self, source) -> DrawResult:
        """One realization from source, which ``filters.make_backend`` takes:
        a seed, a root RngStream, or a draw backend.  Against the stream a
        filter run reads, the derived pairs draw what that run draws."""
        backend = make_backend(source)
        return self.nu_part(backend, self.omega_part(backend), 0)


def _atom(value) -> WeightedAtoms:
    return WeightedAtoms([(value, 0.0)])


def _normalized(raw: list) -> WeightedAtoms:
    # the same value object appearing twice is one support point (marginalize
    # hands every branch the same drawn atom); equal values in distinct
    # objects stay distinct, preserving particle multiplicity
    merged: dict = {}
    for value, lw in raw:
        key = id(value)
        if key in merged:
            merged[key] = (value, float(ad.np_logsumexp(np.asarray([merged[key][1], lw]))))
        else:
            merged[key] = (value, lw)
    atoms = list(merged.values())
    z = float(ad.np_logsumexp(np.asarray([lw for _, lw in atoms])))
    if z == -np.inf:
        raise ValueError("every atom weight vanished; coupling has no mass")
    return WeightedAtoms([(v, lw - z) for v, lw in atoms])


# ---------------------------------------------------------------------------
# the four operations


def basic_pair(log_density: Callable, proposal: StepProposal, description: str = "BasicPair") -> CouplingPair:
    """Importance sampling: R = gamma(x) / r(x), coupling = the drawn atom."""

    def nu(backend, omega, lane):
        x = proposal.sample(backend, lane, None)
        log_q = ad.constant(proposal.logpdf(None, x))
        if float(log_q.data) == -np.inf:
            raise ValueError("proposal density vanished at its own draw")
        log_r = ad.constant(log_density(x)) - log_q
        return DrawResult({"new": x, "prev": None, "lane": lane}, log_r, _atom(x))

    return CouplingPair(lambda backend: None, nu, description)


def replicate(p: CouplingPair, n: int) -> CouplingPair:
    """n lanes of p's nu-part over one shared omega-part.

    R = mean of the lane estimators; the coupling is the union of lane atoms
    reweighted by their estimators.
    """
    if n < 1:
        raise ValueError("replication count must be >= 1")

    def nu(backend, omega, lane):
        if lane != 0:
            raise ValueError("a replicated pair occupies every draw lane; replicate once per step")
        draws = [p.nu_part(backend, omega, i) for i in range(n)]
        log_r = ad.logsumexp(ad.stack_rows([d.log_r for d in draws])) - math.log(n)
        raw = []
        for d in draws:
            for value, lw in d.coupling.atoms:
                raw.append((value, float(d.log_r.data) + lw))
        return DrawResult({"draws": draws, "shared": omega}, log_r, _normalized(raw))

    return CouplingPair(p.omega_part, nu, f"Replicate[{n}]({p.description})")


def extend_target(p: CouplingPair, tr: TargetRatio) -> CouplingPair:
    """Select an atom, extend it through tr's proposal, multiply R by the ratio.

    The whole previous draw becomes the omega-part, so a following replicate
    reruns only the selection and extension.
    """

    def omega_part(backend):
        return p.nu_part(backend, p.omega_part(backend), 0)

    def nu(backend, prev: DrawResult, lane):
        j = backend.choose_one(tr.t, ANCESTOR, lane, prev.coupling.probs())
        old = prev.coupling.atoms[j][0]
        new = tr.proposal.sample(backend, lane, old)
        log_q = ad.constant(tr.proposal.logpdf(old, new))
        if float(log_q.data) == -np.inf:
            raise ValueError("proposal density vanished at its own draw")
        ratio = ad.constant(tr.evaluator(old, new))
        rv = float(ratio.data)
        if np.isnan(rv) or rv == np.inf:
            raise ValueError("target ratio must be finite or -inf wherever the proposal can land")
        log_r = prev.log_r + ratio - log_q
        value = new if tr.drop_old else (old, new)
        return DrawResult({"prev": prev, "atom": int(j), "new": new, "lane": lane}, log_r, _atom(value))

    name = "ChangeTarget" if tr.drop_old else "ExtendTarget"
    return CouplingPair(omega_part, nu, f"{name}({p.description})")


def marginalize(p: CouplingPair, selector: Callable) -> CouplingPair:
    """Replace R by its conditional expectation over a finite auxiliary.

    selector(draw) must return [(log conditional weight, log-R at that
    branch, coupling at that branch)] covering the auxiliary's conditional
    support given everything else.  Continuous-support auxiliaries are out
    of scope.  The result never has higher variance than the input.
    """

    def nu(backend, omega, lane):
        d0 = p.nu_part(backend, omega, lane)
        branches = selector(d0)
        terms = [ad.constant(cw) + ad.constant(lr) for cw, lr, _ in branches]
        log_r = ad.logsumexp(ad.stack_rows(terms))
        raw = []
        for (_, _, coupling), term in zip(branches, terms):
            for value, lw in coupling.atoms:
                raw.append((value, float(term.data) + lw))
        return DrawResult(d0.omega, log_r, _normalized(raw))

    return CouplingPair(p.omega_part, nu, f"Marginalize({p.description})")


# ---------------------------------------------------------------------------
# model plumbing for the filter derivations


def _last_state(value):
    while isinstance(value, tuple):
        value = value[1]
    return value


def _row(value) -> Var | None:
    """The newest state of a value as the (1, d) row the filters' kernels take.

    None, the previous state at t=1, stays None.
    """
    if value is None:
        return None
    return ad.reshape(ad.constant(_last_state(value)), (1, -1))


def _prev_row(bound, value) -> Var | None:
    """``_row`` of a previous state, the same object for the same state.

    The bound model, which every lane of a derivation shares, keeps the
    last state asked for and its row.  So a lane's proposal draw, its
    proposal density and the step ratio hand ``models.transition_build_many``
    one x_prev, and it builds that state's transition rows once.
    """
    if value is None:
        return None
    state = _last_state(value)
    last = getattr(bound, "last_prev_row", None)
    if last is None or last[0] is not state:
        last = bound.last_prev_row = (state, _row(state))
    return last[1]


class _Lane:
    """One lane's reads from a draw backend, for a rows object's draw of one particle.

    That draw asks for offsets 0..count-1 of a step; lane k serves offsets
    k*count..(k+1)*count-1, which the filters' particle k reads, so a lane
    draws exactly what the matching particle does.
    """

    __slots__ = ("backend", "lane")

    def __init__(self, backend, lane: int):
        self.backend = backend
        self.lane = lane

    def normals(self, t: int, purpose: int, count: int) -> np.ndarray:
        return self.backend.normals(t, purpose, np.arange(self.lane * count, (self.lane + 1) * count))

    def choose_shared(self, t: int, purpose: int, n: int, probs: np.ndarray) -> np.ndarray:
        return np.asarray([self.backend.choose_one(t, purpose, self.lane, probs)], dtype=np.intp)


def step_density(bound) -> Callable:
    """log gamma_1(x) = log f(x) + log g(y_1 | x) of a ``models.bind`` result."""
    ratio = step_ratio(bound, 1)  # at t=1 the transition is the prior
    return lambda x: ratio(None, x)


def step_ratio(bound, t: int) -> StepRatio:
    """log f(x_t | x_{t-1}) + log g(y_t | x_t) of a ``models.bind`` result at step t."""
    return StepRatio(
        lambda old, x: mo.transition_build_many(bound, t, _prev_row(bound, old)).logpdf_rows(x),
        lambda x: mo.emission_logpdf_rows(bound, t, x),
    )


def step_proposal(bound, t: int) -> StepProposal:
    """Lane-addressed draw from r_t plus its log-density, as the filters draw it."""

    def sample(backend, lane, x_prev):
        x = mo.proposal_build_many(bound, t, _prev_row(bound, x_prev)).draw(_Lane(backend, lane), t, 1)
        return ad.reshape(x, (x.data.shape[1],))

    def logpdf(x_prev, x):
        return mo.proposal_build_many(bound, t, _prev_row(bound, x_prev)).logpdf_rows(_row(x)).sum()

    return StepProposal(sample, logpdf)


def _ancestor_selector(proposal: StepProposal, ratio: StepRatio) -> Callable:
    """Conditional branches of the drawn ancestor given everything else.

    Reads the per-lane draws recorded by the preceding replicate so the
    conditional weights carry the same gradient paths as the direct filter:
    branch weight proportional to vbar_j * r(x' | x_j), branch estimator
    R_prev * f(x' | x_j) g(y | x') / r(x' | x_j).  g(y | x') is the same in
    every branch, so it is scored once per lane.
    """

    def selector(d0: DrawResult):
        prev = d0.omega["prev"]
        lanes = prev.omega.get("draws")
        if lanes is None or any(len(ld.coupling.atoms) != 1 for ld in lanes):
            raise ValueError("ancestor marginalization expects a replicated parent with single-atom lanes")
        new = d0.omega["new"]
        log_vs = ad.stack_rows([ld.log_r for ld in lanes])
        log_vbar = log_vs - ad.logsumexp(log_vs)
        olds = [ld.coupling.atoms[0][0] for ld in lanes]
        x = _row(new)
        log_g = ratio.log_g(x)
        # each ancestor's proposal density and log f in turn, so both read its one x_prev row
        log_qs, ratios = zip(*[(ad.constant(proposal.logpdf(old, new)), (ratio.log_f(old, x) + log_g).sum())
                               for old in olds])
        mix = [
            ad.gather_rows(log_vbar, np.asarray([j])).sum() + log_qs[j]
            for j in range(len(lanes))
        ]
        norm = ad.logsumexp(ad.stack_rows(mix))
        return [(mix[j] - norm, prev.log_r + ratios[j] - log_qs[j], _atom(new)) for j in range(len(lanes))]

    return selector


# ---------------------------------------------------------------------------
# filter derivations


def derive_smc(model, params, data, n_particles: int) -> CouplingPair:
    """Fold replicate(extend_target(...)) into the sequential filter's estimator."""
    bound = mo.bind(model, params, data)
    pair = replicate(basic_pair(step_density(bound), step_proposal(bound, 1), "Step1"), n_particles)
    for t in range(2, bound.ys.shape[0] + 1):
        tr = TargetRatio(step_ratio(bound, t), step_proposal(bound, t), drop_old=False, t=t)
        pair = replicate(extend_target(pair, tr), n_particles)
    return pair


def derive_mpf(model, params, data, n_particles: int) -> CouplingPair:
    """Like derive_smc, but each step changes target to the newest marginal and
    then integrates the drawn ancestor out of the estimator."""
    bound = mo.bind(model, params, data)
    pair = replicate(basic_pair(step_density(bound), step_proposal(bound, 1), "Step1"), n_particles)
    for t in range(2, bound.ys.shape[0] + 1):
        proposal, ratio = step_proposal(bound, t), step_ratio(bound, t)
        tr = TargetRatio(ratio, proposal, drop_old=True, t=t)
        pair = replicate(marginalize(extend_target(pair, tr), _ancestor_selector(proposal, ratio)), n_particles)
    return pair
