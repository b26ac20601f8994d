"""Benchmark workloads: inputs from a seed, one timed operation, correctness checks.

A workload drives the calls that ``particlevi train`` and ``particlevi
evaluate`` make.  Its set-up parses an INI config through ``cli.load_config``,
builds the model through ``cli.build_model``, writes and reads the dataset
through ``cli.cmd_generate`` and ``cli.load_dataset`` and builds one
objective per kind through ``cli.build_objective``.  The evaluate workload
then installs proposal parameters drawn from the seed with
``objectives.apply_params``, as ``cmd_evaluate`` installs a trained
parameter file.

Every workload runs the same three objective kinds, so each reports the
same end-to-end metrics.  One timed call is a training chunk of
``objectives.train`` (iterations from the initial proposal, each chunk
with its own training stream) or one ``objectives.bound_estimate`` call
with the default worker count, as the CLI passes it.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

KINDS = ("vsmc", "vmpf-bg", "vmpf-ug")

# rng stream labels below the workload seed, clear of the CLI's 1..5
_CHUNK_STREAM, _GATE_STREAM, _EVAL_PARAMS_STREAM = 71, 72, 73
_LEARNING_RATE = 0.01
# bound_estimate sizes of the untimed calls: a warm-up only has to run
# every code path once; a gate bound has enough samples for its 3 SE test
_WARMUP_SAMPLES, _GATE_SAMPLES = 2, 16


@dataclass(frozen=True)
class Workload:
    """Why each workload exists, and what it should move, is in README.md."""

    name: str
    mode: str  # "train": a call is a chunk of iterations; "evaluate": a bound_estimate call
    config: str  # INI body without the [run] section
    units: dict  # kind -> iterations per chunk, or samples per bound_estimate call


_LGSSM_MODEL = "[model]\nkind = lgssm\nt = 10\ndx = 10\ndy = 10\nalpha = 0.42\nc_mode = sparse\n"

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lgssm-train",
            "train",
            _LGSSM_MODEL + "[objective]\nkind = vsmc\nn = 16\n",
            {"vsmc": 16, "vmpf-bg": 12, "vmpf-ug": 3},
        ),
        Workload(
            "dmm-vem-train",
            "train",
            "[model]\nkind = dmm\nt = 10\ndx = 5\ndy = 20\ndh = 16\n"
            "[objective]\nkind = vsmc\nn = 16\nlearn_theta = true\n",
            {"vsmc": 10, "vmpf-bg": 8, "vmpf-ug": 3},
        ),
        Workload(
            "lgssm-evaluate",
            "evaluate",
            _LGSSM_MODEL + "[objective]\nkind = vsmc\nn = 256\n",
            # samples/s does not depend on these sizes; larger calls would
            # leave too few of them in a run ("Call sizes" in README.md)
            {"vsmc": 256, "vmpf-bg": 64, "vmpf-ug": 8},
        ),
    )
}


def import_program():
    """The particlevi modules, keyed by the short names the tracer uses."""
    import particlevi
    from particlevi import autodiff, cli, distributions, filters, models, objectives, rng

    return {
        "particlevi": particlevi,
        "autodiff": autodiff,
        "distributions": distributions,
        "models": models,
        "filters": filters,
        "rng": rng,
        "objectives": objectives,
        "cli": cli,
    }


@dataclass
class Instance:
    """One workload's inputs, built from a seed."""

    workload: Workload
    seed: int
    mods: dict
    data: object
    objectives: dict  # kind -> Objective
    kalman: float | None
    warmup: list = field(default_factory=list)  # problems found by each warm-up call

    @property
    def mode(self) -> str:
        return self.workload.mode


def _eval_params(mods, model, t_max: int, seed: int) -> dict:
    """Non-bootstrap LGSSM proposal parameters drawn from the seed.

    proposal_init gives mu=0, beta=1, log_sigma=0, which is exactly the
    bootstrap proposal; there vsmc and vmpf-bg return the same estimates.
    """
    rng = mods["rng"].RngStream(seed).split(_EVAL_PARAMS_STREAM)
    size = t_max * model.dx

    def draw(label):
        return rng.split(label).normals(size).reshape(t_max, model.dx)

    return {
        "phi.mu": 0.2 * draw(0),
        "phi.beta": 0.8 + 0.1 * draw(1),
        "phi.log_sigma": -0.35 + 0.1 * draw(2),
    }


def data_setup(mods, workload: Workload, seed: int, out_dir: Path):
    """Config, model and dataset through the CLI calls; returns (cfg, model, data)."""
    cli = mods["cli"]
    out_dir.mkdir(parents=True, exist_ok=True)
    ini = out_dir / "workload.ini"
    ini.write_text(workload.config + f"[run]\nseed = {seed}\n")
    cfg = cli.load_config(str(ini))
    model = cli.build_model(cfg)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.cmd_generate(cfg, out_dir)
    data = cli.load_dataset(cfg, out_dir)
    return cfg, model, data


def build(mods, workload: Workload, seed: int, out_dir: Path) -> Instance:
    cli, mo, ob = mods["cli"], mods["models"], mods["objectives"]
    cfg, model, data = data_setup(mods, workload, seed, out_dir)
    objectives = {}
    for kind in KINDS:
        obj = cli.build_objective(replace(cfg, objective_kind=kind), model)
        if workload.mode == "evaluate":
            obj = ob.apply_params(obj, _eval_params(mods, model, cfg.t, seed))
        objectives[kind] = obj
    kalman = mo.kalman_loglik(model, data.ys) if cfg.model_kind == "lgssm" else None
    return Instance(workload, seed, mods, data, objectives, kalman)


def warm_up(inst: Instance, kind: str) -> None:
    """One untimed call; a failure is recorded in ``inst.warmup`` for the gate."""
    degeneracy = inst.mods["filters"].DegeneracyError
    try:
        call(inst, kind, -1, units=_WARMUP_SAMPLES if inst.mode == "evaluate" else None)
    except (degeneracy, ValueError) as exc:
        inst.warmup.append([f"{kind} warm-up: {type(exc).__name__}: {exc}"])
    else:
        inst.warmup.append([])


def setup(mods, workload: Workload, seed: int, out_dir: Path) -> Instance:
    """Everything setup_s covers after the import: inputs plus one warm-up call per kind."""
    inst = build(mods, workload, seed, out_dir)
    for kind in KINDS:
        warm_up(inst, kind)
    return inst


def _rng(inst: Instance, *labels):
    return inst.mods["rng"].RngStream(inst.seed).split(*labels)


def call(inst: Instance, kind: str, index: int, stream: int = _CHUNK_STREAM, workers=None, units=None):
    """One timed call: a training chunk or a bound_estimate call.

    Returns the raw output: (trained objective, TrainRecord) or (mean, se).
    index labels the rng stream, so call i of a kind always sees the same noise.
    units overrides the workload's iterations or samples per call.
    """
    ob = inst.mods["objectives"]
    obj = inst.objectives[kind]
    units = inst.workload.units[kind] if units is None else units
    rng = _rng(inst, stream, KINDS.index(kind), index + 1)
    if inst.mode == "train":
        return ob.train(obj, inst.data, [(_LEARNING_RATE, units)], rng)
    return ob.bound_estimate(obj, inst.data, units, rng, workers=workers)


def ops_in(inst: Instance, kind: str) -> int:
    """Operations one call attempts: iterations, or one bound_estimate call."""
    return inst.workload.units[kind] if inst.mode == "train" else 1


def check(inst: Instance, kind: str, out, units: int) -> list:
    """Problems with one call's output; empty when it is correct.

    A bound is only checked to be finite here: the Kalman test of the timed
    bounds runs once per kind over all their samples, in check_pooled.
    """
    if inst.mode == "evaluate":
        mean, se = out
        return [] if math.isfinite(mean) and math.isfinite(se) else [f"{kind}: non-finite bound {mean} +- {se}"]
    problems = []
    _, record = out
    objective = record.column("objective")
    if len(objective) != units:
        problems.append(f"{kind}: {len(objective)} iterations recorded, {units} requested")
    if not all(math.isfinite(v) for v in objective):
        problems.append(f"{kind}: non-finite training objective")
    return problems


def check_bound(inst: Instance, label: str, mean: float, se: float) -> list:
    """A bound must be finite and, on LGSSM, at most Kalman + 3 SE."""
    if not (math.isfinite(mean) and math.isfinite(se)):
        return [f"{label}: non-finite bound {mean} +- {se}"]
    if inst.kalman is not None and mean > inst.kalman + 3.0 * se:
        return [f"{label}: bound {mean!r} exceeds Kalman {inst.kalman!r} + 3 SE ({se!r})"]
    return []


def check_pooled(inst: Instance, kind: str, bounds: list) -> list:
    """check_bound on all the samples of a kind's timed bound_estimate calls at once.

    bounds holds (samples, mean, se) per call.  Their streams differ, so the
    samples are independent; the pooled mean and standard error follow from
    each call's count, mean and sample variance (se**2 * samples).
    """
    total = sum(n for n, _, _ in bounds)
    mean = sum(n * m for n, m, _ in bounds) / total
    squares = sum((n - 1) * se * se * n + n * (m - mean) ** 2 for n, m, se in bounds)
    se = math.sqrt(squares / (total - 1) / total)
    return check_bound(inst, f"{kind} over {len(bounds)} timed calls", mean, se)


def _identical(inst: Instance, a, b) -> bool:
    """Bit-identical outputs: objectives and final parameters, or bound and SE."""
    if inst.mode == "evaluate":
        return a == b
    (obj_a, rec_a), (obj_b, rec_b) = a, b
    if rec_a.column("objective").tobytes() != rec_b.column("objective").tobytes():
        return False
    return all(obj_a.params[k].tobytes() == obj_b.params[k].tobytes() for k in obj_a.params)


def gate(inst: Instance) -> tuple:
    """Untimed correctness gate; returns (checks attempted, checks failed, problems).

    The warm-up calls of the set-up count as checks.  Per kind: a repeated
    call with the same seed is bit-identical (for bound_estimate the repeat
    runs with one worker, so the result must not depend on the worker count
    either).  A training chunk passes ``check``; a bound, of _GATE_SAMPLES
    samples, passes ``check_bound``.  On the train workloads the trained
    proposal's bound must pass ``check_bound`` too.  On the evaluate
    workload vsmc and vmpf-bg must disagree, which they cannot at the
    bootstrap proposal.
    """
    ob = inst.mods["objectives"]
    degeneracy = inst.mods["filters"].DegeneracyError
    outcomes = list(inst.warmup)  # problems found by each check, warm-up calls first
    firsts = {}

    def run_check(label, fn):
        try:
            problems = fn()
        except (degeneracy, ValueError) as exc:
            problems = [f"{label}: {type(exc).__name__}: {exc}"]
        outcomes.append(problems)

    def repeat(kind):
        units = _GATE_SAMPLES if inst.mode == "evaluate" else inst.workload.units[kind]
        a = call(inst, kind, 0, _GATE_STREAM, units=units)
        b = call(inst, kind, 0, _GATE_STREAM, workers=1, units=units)
        firsts[kind] = a
        if inst.mode == "evaluate":
            problems = check_bound(inst, kind, *a) + check_bound(inst, kind, *b)
        else:
            problems = check(inst, kind, a, units) + check(inst, kind, b, units)
        if not _identical(inst, a, b):
            problems.append(f"{kind}: repeat with the same seed is not bit-identical")
        return problems

    def trained_bound(kind):
        trained = firsts[kind][0]
        mean, se = ob.bound_estimate(trained, inst.data, _GATE_SAMPLES, _rng(inst, _GATE_STREAM, 9))
        return check_bound(inst, f"trained {kind}", mean, se)

    def kinds_differ():
        if firsts["vsmc"][0] == firsts["vmpf-bg"][0]:
            return ["vsmc and vmpf-bg bounds coincide: the proposal is the bootstrap"]
        return []

    for kind in KINDS:
        run_check(kind, lambda: repeat(kind))
        if inst.mode == "train" and kind in firsts:
            run_check(f"trained {kind}", lambda: trained_bound(kind))
    if inst.mode == "evaluate" and "vsmc" in firsts and "vmpf-bg" in firsts:
        run_check("vsmc vs vmpf-bg", kinds_differ)
    failed = sum(1 for problems in outcomes if problems)
    return len(outcomes), failed, [p for problems in outcomes for p in problems]
