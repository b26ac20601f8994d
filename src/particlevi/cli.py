"""Command-line harness: generate, train, evaluate, verify, bench, plot.

Experiments are described by INI config files with strict schema checking;
a typo in a key or section is an error, never a silently ignored default.
Every artifact is referenced by a 12-hex content hash of the resolved
config, so outputs are self-describing.  CSV is the canonical output
format; SVG plots are hand-rolled vector files with no extra deps.
``verify`` runs the suites of ``particlevi.checks``, prints each row as
PASS or FAIL and can write the rows to a CSV.
"""

from __future__ import annotations

import argparse
import configparser
import fcntl
import hashlib
import json
import math
import sys
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from particlevi import checks as ck
from particlevi import filters as fl
from particlevi import models as mo
from particlevi import objectives as ob
from particlevi.rng import RngStream


class CliError(Exception):
    """Config or precondition problem; exits with status 2."""


# ---------------------------------------------------------------------------
# configuration


def _to_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def parse_schedule(raw: str):
    """'10K@0.01 10K@0.001' -> ((0.01, 10000), (0.001, 10000))."""
    out = []
    for seg in raw.replace(",", " ").split():
        if "@" not in seg:
            raise ValueError(f"schedule segment {seg!r} is not ITERS@LR")
        left, right = seg.split("@", 1)
        left = left.strip().upper()
        scale = {"K": 1_000, "M": 1_000_000}.get(left[-1:], 1)
        iters = int(left[:-1] if scale > 1 else left) * scale
        lr = float(right)
        if iters < 0 or not (math.isfinite(lr) and lr >= 0):
            raise ValueError(f"schedule segment {seg!r} needs ITERS >= 0 and a finite LR >= 0")
        out.append((lr, iters))
    return tuple(out)


_MODEL_KEYS = {
    "kind": str,
    "t": int,
    "dx": int,
    "dy": int,
    "dh": int,
    "dim": int,
    "alpha": float,
    "c_mode": str,
    "b_mode": str,
}
_OBJECTIVE_KEYS = {"kind": str, "n": int, "learn_theta": _to_bool, "fix_beta": _to_bool}
_TRAIN_KEYS = {"schedule": parse_schedule, "clip": float, "probe_every": int, "probe_samples": int}
_RUN_KEYS = {"seed": int}
_SECTIONS = {"model": _MODEL_KEYS, "objective": _OBJECTIVE_KEYS, "train": _TRAIN_KEYS, "run": _RUN_KEYS}

# per model kind: which of the optional model keys must / may appear
_KIND_KEYS = {
    "lgssm": {"dx", "dy", "alpha", "c_mode"},
    "sv": {"dim", "b_mode"},
    "dmm": {"dx", "dy", "dh"},
}


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    t: int
    model: dict
    objective_kind: str
    n: int
    learn_theta: bool
    fix_beta: bool
    schedule: tuple
    clip: float | None
    probe_every: int
    probe_samples: int
    seed: int

    def _model_lines(self):
        lines = [f"model.kind={self.model_kind}", f"model.t={self.t}"]
        lines += [f"model.{k}={self.model[k]!r}" for k in sorted(self.model)]
        lines.append(f"run.seed={self.seed}")
        return lines

    def canonical(self) -> str:
        sched = " ".join(f"{iters}@{lr!r}" for lr, iters in self.schedule)
        lines = self._model_lines() + [
            f"objective.kind={self.objective_kind}",
            f"objective.n={self.n}",
            f"objective.learn_theta={self.learn_theta}",
            f"objective.fix_beta={self.fix_beta}",
            f"train.schedule={sched}",
            f"train.clip={self.clip!r}",
            f"train.probe_every={self.probe_every}",
            f"train.probe_samples={self.probe_samples}",
        ]
        return "\n".join(sorted(lines))

    @property
    def exp_hash(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()[:12]

    @property
    def data_hash(self) -> str:
        # dataset identity: model section + seed only, so every objective
        # trained on the same synthetic data shares one file
        text = "\n".join(sorted(self._model_lines()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    read = parser.read(path)
    if not read:
        raise CliError(f"config file not found: {path}")
    values: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise CliError(f"{path}: unknown section [{section}]")
        keys = _SECTIONS[section]
        for key, raw in parser.items(section):
            if key not in keys:
                raise CliError(f"{path}: unknown key {key!r} in [{section}]")
            try:
                values[f"{section}.{key}"] = keys[key](raw)
            except ValueError as exc:
                raise CliError(f"{path}: [{section}] {key}: {exc}") from exc

    def need(name):
        if name not in values:
            raise CliError(f"{path}: missing required key {name}")
        return values[name]

    model_kind = str(need("model.kind")).lower()
    if model_kind not in _KIND_KEYS:
        raise CliError(f"{path}: model.kind must be one of {sorted(_KIND_KEYS)}")
    t = need("model.t")
    if t < 1:
        raise CliError(f"{path}: model.t must be >= 1")
    allowed = _KIND_KEYS[model_kind]
    model = {}
    for key in ("dx", "dy", "dh", "dim", "alpha", "c_mode", "b_mode"):
        if f"model.{key}" in values:
            if key not in allowed:
                raise CliError(f"{path}: model.{key} does not apply to kind {model_kind!r}")
            model[key] = values[f"model.{key}"]
    missing = allowed - set(model)
    if missing:
        raise CliError(f"{path}: model kind {model_kind!r} needs keys {sorted(missing)}")

    objective_kind = str(need("objective.kind")).lower()
    if objective_kind not in ob.KINDS:
        raise CliError(f"{path}: objective.kind must be one of {list(ob.KINDS)}")
    n = need("objective.n")
    if n < 1:
        raise CliError(f"{path}: objective.n must be >= 1")
    fix_beta = values.get("objective.fix_beta", False)
    if fix_beta and model_kind != "lgssm":
        raise CliError(f"{path}: objective.fix_beta applies to the lgssm proposal only")

    clip = values.get("train.clip")
    if clip is not None and not clip > 0:
        raise CliError(f"{path}: train.clip must be > 0 (omit it for no clipping)")
    probe_every = values.get("train.probe_every", 0)
    if probe_every < 0:
        raise CliError(f"{path}: train.probe_every must be >= 0 (0 turns probing off)")
    probe_samples = values.get("train.probe_samples", 8)
    if probe_samples < 2:
        raise CliError(f"{path}: train.probe_samples must be >= 2 (a variance needs two)")

    seed = values.get("run.seed", 0)
    if seed_override is not None:
        seed = int(seed_override)
    return ExperimentConfig(
        model_kind=model_kind,
        t=t,
        model=model,
        objective_kind=objective_kind,
        n=n,
        learn_theta=values.get("objective.learn_theta", False),
        fix_beta=fix_beta,
        schedule=values.get("train.schedule", ()),
        clip=clip,
        probe_every=probe_every,
        probe_samples=probe_samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# experiment assembly

# rng stream layout per experiment seed
_MODEL_STREAM, _DATA_STREAM, _PROPOSAL_STREAM, _TRAIN_STREAM, _EVAL_STREAM = 1, 2, 3, 4, 5


def build_model(cfg: ExperimentConfig):
    """The configured model; a setting it cannot be built from is a ``CliError``."""
    rng = RngStream(cfg.seed).split(_MODEL_STREAM)
    m = cfg.model
    try:
        if cfg.model_kind == "lgssm":
            return mo.lgssm_make(m["dx"], m["dy"], m["alpha"], m["c_mode"], rng)
        if cfg.model_kind == "sv":
            return mo.sv_make(m["dim"], m["b_mode"], rng)
        return mo.dmm_make(m["dx"], m["dy"], m["dh"], rng)
    except ValueError as exc:
        raise CliError(f"[model] {exc}") from exc


def build_objective(cfg: ExperimentConfig, model) -> ob.Objective:
    phi = mo.proposal_init(model, cfg.t, RngStream(cfg.seed).split(_PROPOSAL_STREAM))
    return ob.Objective(cfg.objective_kind, model, phi, cfg.n, learn_theta=cfg.learn_theta)


def data_paths(cfg: ExperimentConfig, out: Path):
    return out / f"data_{cfg.data_hash}.csv", out / f"data_{cfg.data_hash}.json"


def load_dataset(cfg: ExperimentConfig, out: Path) -> mo.Dataset:
    """The config's dataset; no file, a table not (t, dy) (dim for SV) or a NaN or infinite cell is a ``CliError``."""
    csv_path, _ = data_paths(cfg, out)
    if not csv_path.exists():
        raise CliError(f"dataset missing: {csv_path} (run `generate` first)")
    try:
        ys = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CliError(f"dataset {csv_path} is not a numeric table: {exc}") from exc
    want = (cfg.t, cfg.model["dim"] if cfg.model_kind == "sv" else cfg.model["dy"])
    if ys.shape != want:
        raise CliError(f"dataset {csv_path} has shape {ys.shape}; the config needs {want}")
    mo.check_finite(ys, f"dataset {csv_path}", CliError)
    return mo.Dataset(ys)


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _append_row(path: Path, header: str, row: str):
    """Single-line locked append; the header is written once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        if fh.tell() == 0:
            fh.write(header + "\n")
        fh.write(row + "\n")
        fcntl.flock(fh, fcntl.LOCK_UN)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(cfg: ExperimentConfig, out: Path) -> Path:
    model = build_model(cfg)
    ds = mo.generate(model, cfg.t, RngStream(cfg.seed).split(_DATA_STREAM))
    csv_path, meta_path = data_paths(cfg, out)
    header = ",".join(f"y{j}" for j in range(ds.ys.shape[1]))
    rows = "\n".join(",".join(repr(float(v)) for v in row) for row in np.atleast_2d(ds.ys))
    _write_text(csv_path, header + "\n" + rows + "\n")

    meta = {
        "data_hash": cfg.data_hash,
        "seed": cfg.seed,
        "kind": cfg.model_kind,
        "t": cfg.t,
        "options": dict(sorted(cfg.model.items())),
    }
    if cfg.model_kind == "lgssm":
        meta["arrays"] = {
            "a": model.a.tolist(),
            "c": model.c.tolist(),
            "q_diag": model.q_diag.tolist(),
            "r_diag": model.r_diag.tolist(),
        }
        meta["kalman_loglik"] = mo.kalman_loglik(model, ds.ys)
    elif cfg.model_kind == "sv":
        meta["arrays"] = {k: np.asarray(v).tolist() for k, v in model.theta().items()}
    _write_text(meta_path, json.dumps(meta, sort_keys=True, indent=1) + "\n")
    print(f"wrote {csv_path} and {meta_path}")
    return csv_path


def _load_packed(path: Path) -> dict:
    if not path.exists():
        raise CliError(f"params file missing: {path}")
    try:
        fh = np.load(path)
        if not isinstance(fh, np.lib.npyio.NpzFile):
            raise ValueError("it holds a single array")
        with fh:
            return {k: fh[k] for k in fh.files}
    except (ValueError, OSError, EOFError, zipfile.BadZipFile) as exc:
        raise CliError(f"params file {path} is not an .npz of arrays: {exc}") from exc


def _load_params(path: Path, obj: ob.Objective, complete: bool) -> dict:
    """A params file's arrays, each checked by name and shape against ``ob.pack_params(obj)``.

    An unknown name or a wrong shape is an error; complete (evaluate) also
    asks for every name, while a warm start may set only some.  The check
    runs once here, not in ``apply_params``, which every training iteration
    calls.
    """
    packed = _load_packed(path)
    want = ob.pack_params(obj)
    for key, value in packed.items():
        if key not in want:
            raise CliError(f"params file {path}: unknown key {key!r} (this objective has {sorted(want)})")
        if value.shape != want[key].shape:
            raise CliError(f"params file {path}: key {key!r} has shape {value.shape}, "
                           f"this objective needs {want[key].shape}")
    missing = sorted(set(want) - set(packed)) if complete else []
    if missing:
        raise CliError(f"params file {path}: missing key {missing[0]!r}")
    return packed


def cmd_train(cfg: ExperimentConfig, out: Path, warm_start: Path | None = None):
    if not cfg.schedule:
        raise CliError("config has no [train] schedule")
    model = build_model(cfg)
    ds = load_dataset(cfg, out)
    obj = build_objective(cfg, model)
    if warm_start is not None:
        obj = ob.apply_params(obj, _load_params(warm_start, obj, complete=False))
    freeze = ("phi.beta",) if cfg.fix_beta else ()
    try:
        trained, record = ob.train(
            obj,
            ds,
            list(cfg.schedule),
            RngStream(cfg.seed).split(_TRAIN_STREAM),
            clip=cfg.clip,
            probe_every=cfg.probe_every,
            probe_samples=cfg.probe_samples,
            freeze=freeze,
        )
    except ValueError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return None, 1

    params_path = out / f"params_{cfg.exp_hash}.npz"
    params_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(params_path, **ob.pack_params(trained))
    record.to_csv(out / f"train_{cfg.exp_hash}.csv")
    mean, se = ob.bound_estimate(trained, ds, 64, RngStream(cfg.seed).split(_EVAL_STREAM))
    print(f"config {cfg.exp_hash}: trained {cfg.objective_kind} for {len(record.rows)} iterations")
    print(f"bound {mean:.4f} +- {se:.4f} (64 samples)")
    print(f"wrote {params_path}")
    return trained, 0


_RESULTS_HEADER = "config,objective,n,bound,se,kalman,wall_s,seed"


def cmd_evaluate(cfg: ExperimentConfig, out: Path, params_path: Path | None = None,
                 n_samples: int = 1000) -> int:
    if n_samples < 2:
        raise CliError(f"--samples must be >= 2 (a standard error needs two), got {n_samples}")
    model = build_model(cfg)
    ds = load_dataset(cfg, out)
    obj = build_objective(cfg, model)
    path = params_path if params_path is not None else out / f"params_{cfg.exp_hash}.npz"
    obj = ob.apply_params(obj, _load_params(path, obj, complete=True))

    t0 = time.perf_counter()
    mean, se = ob.bound_estimate(obj, ds, n_samples, RngStream(cfg.seed).split(_EVAL_STREAM))
    wall = time.perf_counter() - t0
    kal = mo.kalman_loglik(model, ds.ys) if cfg.model_kind == "lgssm" else None
    kal_text = "" if kal is None else repr(kal)
    row = f"{cfg.exp_hash},{cfg.objective_kind},{cfg.n},{mean!r},{se!r},{kal_text},{wall:.3f},{cfg.seed}"
    _append_row(out / "results.csv", _RESULTS_HEADER, row)
    print(f"config {cfg.exp_hash}: bound {mean:.4f} +- {se:.4f} over {n_samples} samples")
    if kal is not None:
        print(f"kalman reference {kal:.4f}")
        if mean > kal + 3.0 * se:
            print(f"FAIL bound {mean:.6f} exceeds kalman {kal:.6f} + 3*SE", file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(suite: str, out: Path | None = None) -> int:
    if suite != "all" and suite not in ck.SUITES:
        raise CliError(f"unknown suite {suite!r}; pick from {list(ck.SUITES)} or 'all'")
    failures = 0
    lines = []
    for name, check in ck.run(list(ck.SUITES) if suite == "all" else [suite]):
        status = "PASS" if check.ok else "FAIL"
        failures += 0 if check.ok else 1
        print(f"{status} {name}/{check.name} measured={check.measured:.3e} limit={check.limit:.3e}")
        lines.append(f"{name},{check.name},{float(check.measured)!r},{float(check.limit)!r},{status}")
    if out is not None:
        _write_text(out / f"verify_{suite}.csv", "suite,check,measured,limit,status\n" + "\n".join(lines) + "\n")
    print(f"FAIL: {failures} failing check(s)" if failures else "PASS: all checks green")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bench


def _time_step_ms(run_fn, t_max: int, seed: int) -> float:
    t0 = time.perf_counter()
    run_fn(seed)
    return (time.perf_counter() - t0) * 1e3 / t_max


def _fit_quadratic(ns, ms):
    # weighted by 1/time: timing noise scales with magnitude, and the raw
    # fit would let the largest-N residuals swamp the small-N regime
    design = np.stack([np.square(ns), ns, np.ones_like(ns)], axis=1).astype(np.float64)
    ms = np.asarray(ms, dtype=np.float64)
    coef, *_ = np.linalg.lstsq(design / ms[:, None], np.ones_like(ms), rcond=None)
    return coef  # (quadratic, linear, constant)


def cmd_bench(model_kind: str, n_list, reps: int, t_max: int, out: Path | None = None) -> dict:
    if reps < 1:
        raise CliError(f"--reps must be >= 1, got {reps}")
    if t_max < 1:
        raise CliError(f"--t must be >= 1, got {t_max}")
    rng = RngStream(0)
    if model_kind == "lgssm":
        model = mo.lgssm_make(5, 5, 0.42, "dense", rng.split(1))
    elif model_kind == "sv":
        model = mo.sv_make(5, "diagonal", rng.split(1))
    elif model_kind == "dmm":
        model = mo.dmm_make(5, 20, 16, rng.split(1))
    else:
        raise CliError(f"unknown bench model {model_kind!r}")
    data = mo.generate(model, t_max, rng.split(2))
    params = mo.proposal_init(model, t_max, rng.split(3))

    runners = {
        "smc": lambda n, seed: fl.run_smc(model, params, data, n, seed),
        "mpf": lambda n, seed: fl.run_mpf(model, params, data, n, seed),
    }
    # interleave every (algo, n) cell within each rep so slow machine drift
    # lands evenly across cells instead of bending the fitted curve
    cells = [(algo, n) for n in n_list for algo in runners]
    for algo, n in cells:
        runners[algo](n, 0)  # warm caches and the allocator
    samples = {cell: [] for cell in cells}
    for rep in range(1, reps + 1):
        for algo, n in cells:
            samples[(algo, n)].append(_time_step_ms(lambda s: runners[algo](n, s), t_max, rep))

    rows = []
    timings = {"smc": [], "mpf": []}
    for n in n_list:
        smc_ms = float(np.median(samples[("smc", n)]))
        mpf_ms = float(np.median(samples[("mpf", n)]))
        timings["smc"].append(smc_ms)
        timings["mpf"].append(mpf_ms)
        rows.append((n, smc_ms, mpf_ms))
        print(f"n={n:5d}  smc {smc_ms:9.4f} ms/step  mpf {mpf_ms:9.4f} ms/step  ratio {mpf_ms / smc_ms:6.2f}")

    ns = np.asarray(n_list, dtype=np.float64)
    fits = {algo: _fit_quadratic(ns, ms) for algo, ms in timings.items()}
    n_top = ns.max()
    report = {"model": model_kind, "n": list(n_list), "fits": {}, "timings": timings}
    for algo, (quad, lin, const) in fits.items():
        share = abs(quad) * n_top * n_top / max(abs(lin) * n_top, 1e-300)
        crossover = lin / quad if quad > 0 else math.inf
        report["fits"][algo] = {
            "quadratic": float(quad),
            "linear": float(lin),
            "constant": float(const),
            "quad_share_at_top": float(share),
            "crossover_n": float(crossover),
        }
        print(f"{algo}: {quad:.3e}*N^2 + {lin:.3e}*N + {const:.3e}  "
              f"(N^2 share at N={int(n_top)}: {share:.2f}, crossover N ~ {crossover:.0f})")

    if out is not None:
        body = "\n".join(f"{model_kind},{n},{smc!r},{mpf!r}" for n, smc, mpf in rows)
        _write_text(out / f"bench_{model_kind}.csv", "model,n,smc_ms,mpf_ms\n" + body + "\n")
        fit_rows = "\n".join(
            f"{model_kind},{algo},{f['quadratic']!r},{f['linear']!r},{f['constant']!r},{f['crossover_n']!r}"
            for algo, f in report["fits"].items()
        )
        _write_text(out / f"bench_fit_{model_kind}.csv", "model,algo,quadratic,linear,constant,crossover_n\n" + fit_rows + "\n")
    return report


# ---------------------------------------------------------------------------
# plotting (minimal hand-rolled SVG)

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _svg_plot(path: Path, series, title: str, xlabel: str, ylabel: str,
              log_y: bool = False, hline: float | None = None, hline_label: str = ""):
    """series: list of (label, xs, ys).  Writes a standalone SVG."""
    width, height = 640, 420
    ml, mr, mt, mb = 72, 20, 42, 52
    plot_w, plot_h = width - ml - mr, height - mt - mb

    cleaned = []
    for label, xs, ys in series:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y) and (not log_y or y > 0)]
        if pts:
            cleaned.append((label, pts))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="22" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{ml + plot_w / 2}" y="{height - 12}" text-anchor="middle">{xlabel}</text>',
        f'<text x="18" y="{mt + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 18 {mt + plot_h / 2})">{ylabel}</text>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" stroke="black"/>',
    ]

    if cleaned:
        ally = [y for _, pts in cleaned for _, y in pts]
        if hline is not None and (not log_y or hline > 0):
            ally.append(hline)
        allx = [x for _, pts in cleaned for x, _ in pts]
        tr_y = (lambda y: math.log10(y)) if log_y else (lambda y: y)
        ylo, yhi = min(tr_y(y) for y in ally), max(tr_y(y) for y in ally)
        xlo, xhi = min(allx), max(allx)
        if xhi == xlo:
            xlo, xhi = xlo - 0.5, xhi + 0.5
        if yhi == ylo:
            ylo, yhi = ylo - 0.5, yhi + 0.5
        pad = 0.05 * (yhi - ylo)
        ylo, yhi = ylo - pad, yhi + pad

        def sx(x):
            return ml + (x - xlo) / (xhi - xlo) * plot_w

        def sy(y):
            return mt + plot_h - (tr_y(y) - ylo) / (yhi - ylo) * plot_h

        for k in range(5):
            xv = xlo + k * (xhi - xlo) / 4
            yv = ylo + k * (yhi - ylo) / 4
            ylabel_v = 10.0 ** yv if log_y else yv
            parts.append(f'<line x1="{sx(xv):.1f}" y1="{mt + plot_h}" x2="{sx(xv):.1f}" '
                         f'y2="{mt + plot_h + 5}" stroke="black"/>')
            parts.append(f'<text x="{sx(xv):.1f}" y="{mt + plot_h + 18}" text-anchor="middle">{xv:.4g}</text>')
            yy = mt + plot_h - k * plot_h / 4
            parts.append(f'<line x1="{ml - 5}" y1="{yy:.1f}" x2="{ml}" y2="{yy:.1f}" stroke="black"/>')
            parts.append(f'<text x="{ml - 8}" y="{yy + 4:.1f}" text-anchor="end">{ylabel_v:.4g}</text>')

        if hline is not None and (not log_y or hline > 0):
            yy = sy(hline)
            parts.append(f'<line x1="{ml}" y1="{yy:.1f}" x2="{ml + plot_w}" y2="{yy:.1f}" '
                         f'stroke="black" stroke-dasharray="6 4"/>')
            if hline_label:
                parts.append(f'<text x="{ml + plot_w - 4}" y="{yy - 5:.1f}" text-anchor="end">{hline_label}</text>')

        for idx, (label, pts) in enumerate(cleaned):
            color = _PALETTE[idx % len(_PALETTE)]
            coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{ml + plot_w - 6}" y="{mt + 16 + 15 * idx}" '
                         f'text-anchor="end" fill="{color}">{label}</text>')
    else:
        parts.append(f'<text x="{width / 2}" y="{mt + plot_h / 2}" text-anchor="middle" '
                     f'fill="#888">no data</text>')

    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")
    print(f"wrote {path}")


def _read_csv_columns(path: Path) -> dict:
    try:
        text = Path(path).read_text().strip()
    except FileNotFoundError:
        raise CliError(f"table not found: {path}") from None
    if not text:
        return {}
    lines = text.splitlines()
    names = lines[0].split(",")
    cols: dict = {name: [] for name in names}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(names):
            raise CliError(f"{path}:{lineno}: expected {len(names)} cells, got {len(cells)}")
        for name, cell in zip(names, cells):
            cols[name].append(cell)
    return cols


def _floats(cells) -> np.ndarray:
    try:
        return np.asarray([float(c) if c else math.nan for c in cells])
    except ValueError as exc:
        raise CliError(f"plot table: {exc}") from None


_PLOT_COLUMNS = {
    "training": ("iter", "objective"),
    "variance": ("iter", "grad_var"),
    "sweep": ("objective", "n", "bound", "kalman"),
}


def cmd_plot(kind: str, table: Path, out: Path, reference: float | None = None) -> int:
    if kind not in _PLOT_COLUMNS:
        raise CliError(f"unknown plot kind {kind!r}; pick training, variance, or sweep")
    cols = _read_csv_columns(table)
    missing = [name for name in _PLOT_COLUMNS[kind] if cols and name not in cols]
    if missing:
        raise CliError(f"{table}: a {kind} plot needs the columns {missing}")
    path = out / f"plot_{kind}_{Path(table).stem}.svg"
    series = []
    if kind == "training":
        if cols:
            series.append(("objective", _floats(cols["iter"]), _floats(cols["objective"])))
        _svg_plot(path, series, "bound vs iteration", "iteration", "objective",
                  hline=reference, hline_label="reference" if reference is not None else "")
    elif kind == "variance":
        if cols:
            it, gv = _floats(cols["iter"]), _floats(cols["grad_var"])
            keep = np.isfinite(gv)
            series.append(("grad variance", it[keep], gv[keep]))
        _svg_plot(path, series, "gradient variance vs iteration", "iteration",
                  "per-coordinate variance", log_y=True)
    else:
        hline = reference
        if cols:
            kinds = sorted(set(cols["objective"]))
            n = _floats(cols["n"])
            bound = _floats(cols["bound"])
            for name in kinds:
                keep = np.asarray([k == name for k in cols["objective"]])
                order = np.argsort(n[keep])
                series.append((name, n[keep][order], bound[keep][order]))
            kal = _floats(cols["kalman"])
            if hline is None and np.isfinite(kal).any():
                hline = float(np.nanmean(kal))
        _svg_plot(path, series, "final bound vs N", "particles N", "bound",
                  hline=hline, hline_label="kalman" if hline is not None else "")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _parse_n_list(raw: str):
    """Particle counts for ``bench``: at least three distinct sizes >= 1, which its quadratic fit needs."""
    try:
        values = [int(v) for v in raw.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"bad N list: {raw!r}") from None
    if not values or any(v < 1 for v in values):
        raise CliError(f"bad N list: {raw!r}")
    if len(set(values)) != len(values) or len(values) < 3:
        raise CliError(f"--n-list needs at least three distinct sizes for the quadratic fit, got {raw!r}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="particlevi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--seed", type=int, default=None, help="override [run] seed")
        p.add_argument("--out", default="runs", help="output directory")

    add_common(sub.add_parser("generate", help="sample a synthetic dataset"))
    p_train = sub.add_parser("train", help="optimize the configured objective")
    add_common(p_train)
    p_train.add_argument("--warm-start", default=None, help="params .npz to initialize from")
    p_eval = sub.add_parser("evaluate", help="estimate the bound and append to results.csv")
    add_common(p_eval)
    p_eval.add_argument("--params", default=None, help="params .npz (default: this config's)")
    p_eval.add_argument("--samples", type=int, default=1000)

    p_verify = sub.add_parser("verify", help="run an oracle/property suite")
    p_verify.add_argument("suite", help=f"one of {list(ck.SUITES)} or 'all'")
    p_verify.add_argument("--out", default=None, help="also write a CSV report here")

    p_bench = sub.add_parser("bench", help="time SMC vs MPF across N")
    p_bench.add_argument("--model", default="dmm", help="lgssm, sv, or dmm")
    p_bench.add_argument("--n-list", default="8,16,32,64,128,256,512")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--t", type=int, default=10)
    p_bench.add_argument("--out", default=None)

    p_plot = sub.add_parser("plot", help="render a CSV artifact to SVG")
    p_plot.add_argument("kind", help="training, variance, or sweep")
    p_plot.add_argument("--table", required=True, help="input CSV")
    p_plot.add_argument("--out", default="runs")
    p_plot.add_argument("--reference", type=float, default=None, help="horizontal reference line")

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            cmd_generate(load_config(args.config, args.seed), Path(args.out))
            return 0
        if args.command == "train":
            warm = Path(args.warm_start) if args.warm_start else None
            return cmd_train(load_config(args.config, args.seed), Path(args.out), warm)[1]
        if args.command == "evaluate":
            params = Path(args.params) if args.params else None
            return cmd_evaluate(load_config(args.config, args.seed), Path(args.out),
                                params, args.samples)
        if args.command == "verify":
            return cmd_verify(args.suite, Path(args.out) if args.out else None)
        if args.command == "bench":
            cmd_bench(args.model, _parse_n_list(args.n_list), args.reps, args.t,
                      Path(args.out) if args.out else None)
            return 0
        if args.command == "plot":
            return cmd_plot(args.kind, Path(args.table), Path(args.out), args.reference)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except fl.DegeneracyError as exc:  # a run, not the config, failed: it names the step and the sample or iteration
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
