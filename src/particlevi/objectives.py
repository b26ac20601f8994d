"""Variational objectives over the filter estimators, and their training loop.

Five bounds, one recipe: L = E[log p-hat] where p-hat is an unbiased
evidence estimator, so every kind is a lower bound on log p(y) by Jensen.

    iwvi     SMC with resampling disabled (ancestors i -> i)
    vsmc     SMC with multinomial resampling
    tmc      tensor estimator, state-independent proposals, no resampling
    vmpf-bg  marginal particle filter, reparameterized inside the drawn
             mixture component; the categorical probabilities are detached
    vmpf-ug  marginal particle filter with implicit reparameterization
             through the mixture weights themselves

Each kind is one filter call: ``run_smc`` with or without resampling,
``run_tmc``, or ``run_mpf`` with or without its implicit mixture draw.
Gradients are single-draw: one filter run per call, differentiated in
reverse mode.  A categorical draw carries no gradient, except vmpf-ug's
implicit one; iwvi and tmc contain no categorical draw at all, so their
gradient is exactly the reparameterized gradient.  ``bound_estimate``
averages independent runs, R of them per pass of the kind's filter: the
pass stacks the runs' particle rows, off tape.  R is set by the shapes
alone, R = 2^18 // (N max(N, T dy)) capped at the sample count, so that a
pass's R N^2 pair terms and its (R T, N dy) noise reads stay near 2^18
words.  Training is Adam ascent on a (learning-rate, iterations) schedule
with optional global-norm clipping; phi (proposal) and, under VEM, theta
(model) parameters are updated jointly in one flat namespace: "phi.mu",
"theta.b_raw", and so on.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import particlevi.autodiff as ad
from particlevi.autodiff import Var
from particlevi import filters as fl
from particlevi.rng import RngStream

KINDS = ("iwvi", "vsmc", "tmc", "vmpf-bg", "vmpf-ug")

# a bound_estimate pass's pair terms and noise words stay near this many
_PASS_WORDS = 2**18


@dataclass
class Objective:
    """One bound: estimator kind, model, proposal parameters, particle count.

    learn_theta turns on VEM: model parameters join the gradient and the
    optimizer state alongside the proposal's.  Only families exposing
    theta()/with_theta() support it (SV, DMM); linear-Gaussian model
    parameters stay fixed by construction.
    """

    kind: str
    model: object
    params: dict
    n_particles: int
    learn_theta: bool = False

    def __post_init__(self):
        self.kind = self.kind.lower()
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if self.learn_theta and not hasattr(self.model, "with_theta"):
            raise ValueError(
                f"{type(self.model).__name__} has no learnable model parameters; "
                "VEM covers the SV and DMM families"
            )


def _run(obj: Objective, model, params, data, rng) -> fl.ParticleRun:
    n = obj.n_particles
    if obj.kind == "tmc":
        return fl.run_tmc(model, params, data, n, rng)
    if obj.kind in ("iwvi", "vsmc"):
        return fl.run_smc(model, params, data, n, rng, resample=obj.kind == "vsmc")
    return fl.run_mpf(model, params, data, n, rng, implicit=obj.kind == "vmpf-ug")


def objective_value(obj: Objective, data, rng) -> Var:
    """One draw of log p-hat, differentiable when evaluated under a tape.

    The filter run is the kind's own, so the same call serves value
    estimation (no tape) and training (tape active).
    """
    return _run(obj, obj.model, obj.params, data, rng).log_evidence


# ---------------------------------------------------------------------------
# gradients


def _lift(obj: Objective):
    """Leaf copies of every learnable array, prefixed phi. / theta."""
    phi = {k: (ad.leaf(v) if isinstance(v, np.ndarray) else v) for k, v in obj.params.items()}
    leaves = {"phi." + k: v for k, v in phi.items() if isinstance(v, Var)}
    model = obj.model
    if obj.learn_theta:
        theta = {k: ad.leaf(v) for k, v in model.theta().items()}
        model = model.with_theta(theta)
        leaves.update({"theta." + k: v for k, v in theta.items()})
    return model, phi, leaves


def _gradient(obj: Objective, data, rng) -> tuple:
    with ad.Tape():
        model, phi, leaves = _lift(obj)
        run = _run(obj, model, phi, data, rng)
        names = sorted(leaves)
        grads = ad.grad(run.log_evidence, [leaves[k] for k in names])
    return float(run.log_evidence.data), dict(zip(names, grads))


def gradient_biased(obj: Objective, data, rng) -> tuple:
    """(value, gradient dict), categorical draws detached.

    Exact for iwvi and tmc, which contain no categorical draw at all.
    """
    if obj.kind == "vmpf-ug":
        raise ValueError("vmpf-ug trains with gradient_unbiased")
    return _gradient(obj, data, rng)


def gradient_unbiased(obj: Objective, data, rng) -> tuple:
    """(value, gradient dict) with implicit mixture reparameterization."""
    if obj.kind != "vmpf-ug":
        raise ValueError("gradient_unbiased applies to the vmpf-ug kind only")
    return _gradient(obj, data, rng)


def _grad_fn(obj: Objective):
    return gradient_unbiased if obj.kind == "vmpf-ug" else gradient_biased


def _global_norm(grads: dict) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


# ---------------------------------------------------------------------------
# parameter packing: the optimizer sees one flat name -> array dict


def pack_params(obj: Objective) -> dict:
    packed = {
        "phi." + k: np.array(v, dtype=np.float64)
        for k, v in obj.params.items()
        if isinstance(v, np.ndarray)
    }
    if obj.learn_theta:
        packed.update(
            {"theta." + k: np.array(v, dtype=np.float64) for k, v in obj.model.theta().items()}
        )
    return packed


def apply_params(obj: Objective, packed: dict) -> Objective:
    """A copy of obj with the packed parameters installed."""
    phi = {k[4:]: v for k, v in packed.items() if k.startswith("phi.")}
    theta = {k[6:]: v for k, v in packed.items() if k.startswith("theta.")}
    model = obj.model.with_theta(theta) if theta else obj.model
    return replace(obj, model=model, params={**obj.params, **phi})


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Bias-corrected Adam moments, lazily shaped to the parameters."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip: float | None = None  # global-norm threshold, None = off
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One ascent step (bounds are maximized); returns the updated dict.

    Non-finite gradients fail before any moment is touched, naming the
    offending parameter; a clip threshold rescales the whole gradient to
    that global norm first.
    """
    for name in sorted(grads):
        if not np.all(np.isfinite(grads[name])):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
    if state.clip is not None:
        norm = _global_norm(grads)
        if norm > state.clip:
            scale = state.clip / norm
            grads = {k: g * scale for k, g in grads.items()}
    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    out = dict(params)
    for name, g in grads.items():
        m = state.m.get(name)
        v = state.v.get(name)
        m = (1.0 - state.beta1) * g if m is None else state.beta1 * m + (1.0 - state.beta1) * g
        v = (1.0 - state.beta2) * g * g if v is None else state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[name], state.v[name] = m, v
        out[name] = params[name] + state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return out


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainRecord:
    """Append-only per-iteration log; grad_var is nan unless probed."""

    rows: list = field(default_factory=list)

    FIELDS = ("iter", "objective", "grad_norm", "grad_var", "wall_ms")

    def append(self, it: int, objective: float, grad_norm: float, grad_var: float, wall_ms: float):
        self.rows.append((it, objective, grad_norm, grad_var, wall_ms))

    def column(self, name: str) -> np.ndarray:
        idx = self.FIELDS.index(name)
        return np.asarray([r[idx] for r in self.rows], dtype=np.float64)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.FIELDS)
            for row in self.rows:
                w.writerow([repr(v) if isinstance(v, float) else v for v in row])


_NORM_ABORT = 1e6


def train(
    obj: Objective,
    data,
    schedule,
    rng,
    clip: float | None = None,
    probe_every: int = 0,
    probe_samples: int = 8,
    freeze: tuple = (),
) -> tuple:
    """Adam ascent on the bound; returns (trained Objective, TrainRecord).

    schedule is a list of (learning_rate, iterations) segments; moments
    persist across segments.  One objective draw per iteration.  The run
    aborts with the iteration index if the objective goes non-finite or the
    raw gradient norm exceeds 1e6 (instability is reported, never papered
    over); a degenerate filter run raises ``DegeneracyError`` naming the
    iteration.  Deterministic for a fixed rng seed and schedule.  Parameters
    named in freeze keep their initial values; their gradients are zeroed
    before the update and excluded from the recorded norm.  A clip <= 0
    (which would freeze or reverse the ascent) or bad probe settings fail
    before the first iteration.
    """
    if not schedule:
        raise ValueError("schedule must hold at least one (learning-rate, iterations) pair")
    if clip is not None and not clip > 0:
        raise ValueError(f"clip must be > 0 (or None for no clipping), got {clip}")
    if probe_every < 0 or (probe_every and probe_samples < 2):
        raise ValueError("probe_every must be >= 0 and probe_samples >= 2")
    rng = rng if isinstance(rng, RngStream) else RngStream(int(rng))
    grad_fn = _grad_fn(obj)
    packed = pack_params(obj)
    for name in freeze:
        if name not in packed:
            raise ValueError(f"unknown frozen parameter {name!r}")
    current = apply_params(obj, packed)
    state = AdamState(lr=float(schedule[0][0]), clip=clip)
    record = TrainRecord()
    it = 0
    for lr, iters in schedule:
        state.lr = float(lr)
        for _ in range(int(iters)):
            t0 = time.perf_counter()
            try:
                value, grads = grad_fn(current, data, rng.split(10, it))
                for name in freeze:
                    grads[name] = np.zeros_like(grads[name])
                if not math.isfinite(value):
                    raise ValueError(f"non-finite objective at iteration {it}")
                gnorm = _global_norm(grads)
                if gnorm > _NORM_ABORT:
                    raise ValueError(f"gradient norm {gnorm:.3e} at iteration {it}; run diverged")
                gvar = math.nan
                if probe_every and it % probe_every == 0:
                    gvar = grad_variance_probe(current, data, probe_samples, rng.split(11, it))
            except fl.DegeneracyError as exc:
                raise fl.DegeneracyError(exc.t, it, "iteration") from None
            packed = adam_step(state, packed, grads)
            current = apply_params(obj, packed)
            record.append(it, value, gnorm, gvar, (time.perf_counter() - t0) * 1e3)
            it += 1
    return current, record


# ---------------------------------------------------------------------------
# evaluation


def _runs_per_pass(obj: Objective, data, n_samples: int) -> int:
    """R = 2^18 // (N max(N, T dy)), at least 1 and at most n_samples; 1 under a tape."""
    if ad.recording():
        return 1
    n, t_dy = obj.n_particles, np.size(getattr(data, "ys", data))
    return max(1, min(n_samples, _PASS_WORDS // (n * max(n, t_dy))))


def bound_estimate(obj: Objective, data, n_samples: int, rng, workers: int | None = None) -> tuple:
    """(mean, standard error) of log p-hat over n_samples independent runs.

    Sample i always reads the streams of rng.split(i), so the result is
    deterministic and equal to a loop of ``objective_value(obj, data,
    rng.split(i))``.  The samples go in index order on the calling thread,
    R to a pass of the kind's filter (``filters.RandomBackend``'s runs);
    R comes from N, T and the observation width alone, and is 1 under a
    tape.  A degenerate pass raises ``DegeneracyError`` for its lowest
    degenerate sample.  ``workers`` changes neither the result nor the
    thread: it is kept, with its >= 1 check, until the benchmark stops
    passing it.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    rng = rng if isinstance(rng, RngStream) else RngStream(int(rng))
    runs = _runs_per_pass(obj, data, n_samples)
    values = []
    for start in range(0, n_samples, runs):
        source = fl.RandomBackend(rng, np.arange(start, min(start + runs, n_samples)))
        try:  # keep the evidence alone: the pass's particles go before the next pass
            evidence = _run(obj, obj.model, obj.params, data, source).log_evidence
        except fl.DegeneracyError as exc:
            raise fl.DegeneracyError(exc.t, start + exc.sample, "sample") from None
        values.append(np.ravel(evidence.data))
    values = np.concatenate(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_samples))


def grad_variance_probe(obj: Objective, data, n_samples: int, rng) -> float:
    """Per-coordinate gradient variance, averaged over every coordinate.

    The n_samples gradients run one after another; draw i uses
    rng.split(i), the seeding convention of bound_estimate.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    rng = rng if isinstance(rng, RngStream) else RngStream(int(rng))
    grad_fn = _grad_fn(obj)
    grads = [grad_fn(obj, data, rng.split(i))[1] for i in range(n_samples)]
    names = sorted(grads[0])
    stacked = np.stack([np.concatenate([g[k].ravel() for k in names]) for g in grads])
    return float(stacked.var(axis=0, ddof=1).mean())
