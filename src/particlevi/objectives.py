"""Variational objectives over the filter estimators, and their training loop.

Five bounds, one recipe: L = E[log p-hat] where p-hat is an unbiased
evidence estimator, so every kind is a lower bound on log p(y) by Jensen.

    iwvi     SMC with resampling disabled (ancestors i -> i)
    vsmc     SMC with multinomial resampling
    tmc      tensor estimator, state-independent proposals, no resampling
    vmpf-bg  marginal particle filter, reparameterized inside the drawn
             mixture component; the categorical probabilities are detached
    vmpf-ug  marginal particle filter on the same draws, with implicit
             reparameterization through the mixture weights themselves

Each kind is one filter call: ``run_smc`` with or without resampling,
``run_tmc``, or ``run_mpf`` with or without the implicit gradient of its
mixture draws.  Gradients are single-draw: one filter run per call,
differentiated in reverse mode.  A gradient call makes each
``pack_params`` array one tape leaf, installs the leaves with
``apply_params`` and returns their cotangents as one flat float64 vector
in ``param_layout`` order, which Adam, the variance probe and the N=1
check read as it is.  A categorical draw carries no gradient, except
through vmpf-ug's implicit node on the realized mixture draws; iwvi and
tmc contain no categorical draw at all, so their gradient is exactly the
reparameterized gradient.
``bound_estimate`` averages independent runs, R of them per pass of the
kind's filter: the pass stacks the runs' particle rows, off tape.  R is set by the shapes
alone, R = 2^18 // (N max(N, T dy)) capped at the sample count, so that a
pass's R N^2 pair terms stay near 2^18 words.  Its (R T, N dx) noise reads
are evaluated in row blocks of at most ``rng._BLOCK_WORDS`` words, so their
temporaries are block-sized whatever R is.  Training is Adam ascent on a
(learning-rate, iterations) schedule with optional global-norm clipping;
phi (proposal) and, under VEM, theta (model) parameters are updated
jointly in one flat namespace: "phi.mu", "theta.b_raw", and so on.  Adam
works element by element, so the parameters, both moments and each
iteration's gradient are flat float64 vectors laid out by
``param_layout``; the model sees views of the vector, and the recorded
grad_norm is one dot product.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

import particlevi.autodiff as ad
from particlevi.autodiff import Var
from particlevi import filters as fl
from particlevi.models import check_count
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
        check_count("n_particles", self.n_particles, 1)
        if self.learn_theta and not hasattr(self.model, "with_theta"):
            raise ValueError(
                f"{type(self.model).__name__} has no learnable model parameters; "
                "VEM covers the SV and DMM families"
            )


def _run(obj: Objective, data, rng) -> fl.ParticleRun:
    model, params, n = obj.model, obj.params, obj.n_particles
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
    return _run(obj, data, rng).log_evidence


# ---------------------------------------------------------------------------
# gradients


def _gradient(obj: Objective, data, rng) -> tuple:
    """(value, gradient vector in ``param_layout(pack_params(obj))`` order) of one run.

    Each ``pack_params`` array becomes one leaf, ``apply_params`` installs
    the leaves for the kind's filter, and ``grad``'s cotangents are
    concatenated once, in that order.
    """
    with ad.Tape():
        leaves = {k: ad.leaf(v) for k, v in pack_params(obj).items()}
        run = _run(apply_params(obj, leaves), data, rng)
        grads = ad.grad(run.log_evidence, list(leaves.values()))
    return float(run.log_evidence.data), np.concatenate([g.ravel() for g in grads])


def gradient_biased(obj: Objective, data, rng) -> tuple:
    """(value, gradient vector), categorical draws detached.

    Exact for iwvi and tmc, which contain no categorical draw at all.
    """
    if obj.kind == "vmpf-ug":
        raise ValueError("vmpf-ug trains with gradient_unbiased")
    return _gradient(obj, data, rng)


def gradient_unbiased(obj: Objective, data, rng) -> tuple:
    """(value, gradient vector) with implicit mixture reparameterization."""
    if obj.kind != "vmpf-ug":
        raise ValueError("gradient_unbiased applies to the vmpf-ug kind only")
    return _gradient(obj, data, rng)


def _grad_fn(obj: Objective):
    return gradient_unbiased if obj.kind == "vmpf-ug" else gradient_biased


# ---------------------------------------------------------------------------
# parameter packing: one flat name -> array dict, and its layout as one vector


def pack_params(obj: Objective) -> dict:
    """Float64 copies of the learnable arrays: "phi." proposal names, then "theta." under VEM."""
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


def param_layout(packed: dict) -> tuple:
    """(name, shape, slice) of each packed array in one flat vector, in pack_params order."""
    ends = accumulate(a.size for a in packed.values())
    return tuple((k, a.shape, slice(e - a.size, e)) for (k, a), e in zip(packed.items(), ends))


# ---------------------------------------------------------------------------
# Adam


# Adam's moment decay rates and denominator guard
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments, flat vectors formed at the first step; layout names their slices."""

    lr: float
    layout: tuple  # param_layout's (name, shape, slice) per parameter
    clip: float | None = None  # global-norm threshold, None = off
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> tuple:
    """One ascent step (bounds are maximized); returns (updated vector, gradient norm).

    params and grad are flat vectors in state.layout.  The norm is one dot
    product, which also serves as the finite check: a non-finite gradient
    fails before any moment is touched, naming the first offending
    parameter in sorted order and the iteration (the steps taken so far).  A clip threshold rescales the whole
    gradient to that norm first.  params is not written to.
    """
    sq = float(grad @ grad)
    if not math.isfinite(sq) and not np.isfinite(grad).all():
        name = min(k for k, _, sl in state.layout if not np.isfinite(grad[sl]).all())
        raise ValueError(f"non-finite gradient for parameter {name!r} at iteration {state.step}")
    norm = math.sqrt(sq)
    if state.clip is not None and norm > state.clip:
        grad = grad * (state.clip / norm)
    state.step += 1
    c1 = 1.0 - _BETA1**state.step
    c2 = 1.0 - _BETA2**state.step
    g, m, v = grad, state.m, state.v
    state.m = (1.0 - _BETA1) * g if m is None else _BETA1 * m + (1.0 - _BETA1) * g
    state.v = (1.0 - _BETA2) * g * g if v is None else _BETA2 * v + (1.0 - _BETA2) * g * g
    return params + state.lr * (state.m / c1) / (np.sqrt(state.v / c2) + _ADAM_EPS), norm


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


def _stream(rng) -> RngStream:
    """A seed's root stream; an ``RngStream`` is returned as it is."""
    return rng if isinstance(rng, RngStream) else RngStream(int(rng))


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
    persist across segments.  One objective draw per iteration.  Parameters,
    moments and gradients are flat vectors in one ``param_layout``; the
    gradient function's vector goes to ``adam_step`` unconverted.  The
    trained Objective holds views of the last vector, and obj's arrays are
    never written.  grad_norm is ``adam_step``'s one dot product.  The run
    aborts with the iteration index if the objective goes non-finite or the
    raw gradient norm exceeds 1e6 (instability is reported, never papered
    over); a degenerate filter run raises ``DegeneracyError`` naming the
    iteration and the run's cause.  Deterministic for a fixed rng seed and
    schedule.  Parameters named in freeze keep their initial values; their
    gradient slices are zeroed before the update and excluded from the
    recorded norm.  A learning rate that is not finite and >= 0, an
    iteration count that is not an integer >= 0 (a bool is none), a clip
    <= 0 (which would freeze or reverse the ascent), a probe_every that is
    not an integer >= 0 or, when probing, a probe_samples that is not an
    integer >= 2 fail before the first iteration.
    """
    if not schedule:
        raise ValueError("schedule must hold at least one (learning-rate, iterations) pair")
    for lr, iters in schedule:
        if not (math.isfinite(lr) and lr >= 0):
            raise ValueError(f"schedule segment ({lr!r}, {iters!r}) needs a finite rate >= 0")
        check_count(f"schedule segment ({lr!r}, {iters!r})'s iteration count", iters, 0)
    if clip is not None and not clip > 0:
        raise ValueError(f"clip must be > 0 (or None for no clipping), got {clip}")
    check_count("probe_every", probe_every, 0)
    if probe_every:
        check_count("probe_samples", probe_samples, 2)
    rng = _stream(rng)
    grad_fn = _grad_fn(obj)
    packed = pack_params(obj)
    for name in freeze:
        if name not in packed:
            raise ValueError(f"unknown frozen parameter {name!r}")
    layout = param_layout(packed)
    frozen = [sl for k, _, sl in layout if k in freeze]
    theta = np.concatenate([a.ravel() for a in packed.values()])
    current = apply_params(obj, packed)
    state = AdamState(lr=float(schedule[0][0]), layout=layout, clip=clip)
    record = TrainRecord()
    it = 0
    for lr, iters in schedule:
        state.lr = float(lr)
        for _ in range(iters):
            t0 = time.perf_counter()
            try:
                value, grad = grad_fn(current, data, rng.split(10, it))
                if not math.isfinite(value):
                    raise ValueError(f"non-finite objective at iteration {it}")
                for sl in frozen:
                    grad[sl] = 0.0  # the vector is the gradient function's own
                theta, gnorm = adam_step(state, theta, grad)
                if gnorm > _NORM_ABORT:
                    raise ValueError(f"gradient norm {gnorm:.3e} at iteration {it}; run diverged")
                gvar = math.nan
                if probe_every and it % probe_every == 0:
                    gvar = grad_variance_probe(current, data, probe_samples, rng.split(11, it))
            except fl.DegeneracyError as exc:
                raise fl.DegeneracyError(exc.t, it, "iteration", exc.cause) from None
            current = apply_params(obj, {k: theta[sl].reshape(shape) for k, shape, sl in layout})
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
    degenerate sample, with that run's cause.  n_samples must be an
    integer >= 2.  ``workers`` changes neither the result nor the thread:
    it is kept, with its >= 1 check, until the benchmark stops passing it.
    """
    check_count("n_samples", n_samples, 2)
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    rng = _stream(rng)
    runs = _runs_per_pass(obj, data, n_samples)
    values = []
    for start in range(0, n_samples, runs):
        source = fl.RandomBackend(rng, np.arange(start, min(start + runs, n_samples)))
        try:  # keep the evidence alone: the pass's particles go before the next pass
            evidence = _run(obj, data, source).log_evidence
        except fl.DegeneracyError as exc:
            raise fl.DegeneracyError(exc.t, start + exc.sample, "sample", exc.cause) from None
        values.append(np.ravel(evidence.data))
    values = np.concatenate(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_samples))


def grad_variance_probe(obj: Objective, data, n_samples: int, rng) -> float:
    """Per-coordinate gradient variance, averaged over every coordinate.

    The n_samples gradients run one after another; draw i uses
    rng.split(i), the seeding convention of bound_estimate.  Their flat
    vectors, the ones ``train`` steps with, are stacked as they are.
    """
    check_count("n_samples", n_samples, 2)
    rng = _stream(rng)
    grad_fn = _grad_fn(obj)
    stacked = np.stack([grad_fn(obj, data, rng.split(i))[1] for i in range(n_samples)])
    return float(stacked.var(axis=0, ddof=1).mean())
