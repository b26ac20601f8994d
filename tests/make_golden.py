"""Golden values of the filters, objectives and couplings for an exact regression check.

Writes ``tests/golden.json`` when run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

With ``--check`` it writes nothing: it recomputes every entry in memory,
prints each key whose stored values differ in any bit, with that key's
largest relative move, and exits 1 if any key moved.

``tests/test_golden.py`` recomputes every entry with ``compute`` and compares
it with the file.  Forward values are stored as ``float.hex`` and compared
exactly.  Each gradient array is stored as three fixed projections plus its
max-abs and compared to 1e-13 relative.  A change that moves numbers on
purpose regenerates the file and says which entries moved, by how much and
why.

The grid: LGSSM d=1 and d=10 and SV (triangular) with non-bootstrap
proposals, a DMM trained by VEM, and a three-state HMM with proposal tables
that differ from its model tables.  Every objective kind runs as a value and
as a gradient at N = 1, 4, 16 and seeds 1-2.  Every filter runs forward at
the same sizes, with the first draws of each run-level read recorded (the
HMM with its default proposals at seed 1 only).  One HMM enumeration keeps
its path values, and the coupling derivations keep their estimators.
Training runs on LGSSM d=10, SV and the DMM under vsmc and vmpf-ug (N = 4,
seed 1, a two-segment schedule, no clip; the LGSSM vsmc run freezes
``phi.beta``) and keeps its objective column and the projections of the
trained parameters, all compared exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from particlevi import checks as ck
from particlevi import couplings as cp
from particlevi import filters as fl
from particlevi import models as mo
from particlevi import objectives as ob
from particlevi.rng import RngStream

GOLDEN = Path(__file__).resolve().parent / "golden.json"
NS = (1, 4, 16)
SEEDS = (1, 2)
N_FIRST = 3  # leading values kept of each run-level read
TRAIN_CASES = ("lgssm-d10", "sv-tri", "dmm-vem")
TRAIN_SCHEDULE = ((0.05, 3), (0.02, 3))


def _hex(v) -> str:
    return float(v).hex()


def _hexes(a) -> list:
    return [_hex(v) for v in np.ravel(np.asarray(a, dtype=np.float64))]


def _projections(g: np.ndarray) -> list:
    """Three fixed projections of g and its max-abs, each as float.hex."""
    flat = np.ravel(np.asarray(g, dtype=np.float64))
    idx = np.arange(flat.size, dtype=np.float64)
    out = [float(np.cos(0.7 * (k + 1) * idx + k) @ flat) for k in range(3)]
    out.append(float(np.max(np.abs(flat))) if flat.size else 0.0)
    return _hexes(out)


class RecordingBackend(fl.RandomBackend):
    """Random draws that keep the shape and first values of each run-level read."""

    def __init__(self, seed: int):
        super().__init__(RngStream(seed))
        self.reads = {}

    def _keep(self, kind, purpose, block):
        self.reads[f"{kind}/{purpose}"] = [list(block.shape), _hexes(block.ravel()[:N_FIRST])]
        return block

    def run_uniforms(self, purpose, t_max, count):
        return self._keep("uniforms", purpose, super().run_uniforms(purpose, t_max, count))

    def run_normals(self, purpose, t_max, count):
        return self._keep("normals", purpose, super().run_normals(purpose, t_max, count))


# ---------------------------------------------------------------------------
# cases


def _lgssm(d: int, t_max: int):
    m = mo.lgssm_make(d, d, 0.42, "sparse", RngStream(0))
    ds = mo.generate(m, t_max, RngStream(7))
    params = mo.proposal_init(m, t_max)
    noise = RngStream(21 + d)
    params["mu"] = params["mu"] + 0.3 * noise.split(0).normals(t_max * d).reshape(t_max, d)
    params["beta"] = params["beta"] * 0.7
    params["log_sigma"] = params["log_sigma"] - 0.2 + 0.1 * noise.split(1).normals(t_max * d).reshape(t_max, d)
    return m, params, ds, False


def _sv():
    m = mo.sv_make(3, "triangular", RngStream(3))
    ds = mo.generate(m, 4, RngStream(11))
    params = mo.proposal_init(m, 4)
    params["mu"] = params["mu"] + 0.2
    params["log_sigma"] = params["log_sigma"] - 0.3
    return m, params, ds, True


def _dmm():
    m = mo.dmm_make(3, 5, 8, RngStream(4))
    return m, mo.proposal_init(m, 4, RngStream(5)), mo.generate(m, 4, RngStream(12)), True


def continuous_cases() -> dict:
    """name -> (model, params, data, learn_theta)."""
    return {"lgssm-d1": _lgssm(1, 4), "lgssm-d10": _lgssm(10, 3), "sv-tri": _sv(), "dmm-vem": _dmm()}


def hmm_case():
    h = mo.DiscreteHmm(
        np.asarray([0.5, 0.3, 0.2]),
        np.asarray([[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.2, 0.2, 0.6]]),
        np.asarray([[0.8, 0.2], [0.4, 0.6], [0.1, 0.9]]),
    )
    params = {
        "init_proposal": np.asarray([0.3, 0.3, 0.4]),
        "trans_proposal": np.asarray([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]),
        "indep_proposal": np.asarray([0.25, 0.35, 0.4]),
    }
    return h, params, mo.generate(h, 4, RngStream(13))


# ---------------------------------------------------------------------------
# entries


def _run_entry(run: fl.ParticleRun, backend=None, states: bool = False) -> dict:
    out = {
        "log_evidence": _hex(run.log_evidence.data),
        "log_mean_weights": [_hex(v.data) for v in run.log_mean_weights],
        "weight_sums": [_hex(w.data.sum()) for w in run.log_weights],
    }
    if states:
        out["states"] = [p.data[:, 0].astype(int).tolist() for p in run.particles]
    else:
        out["particle_sums"] = [_hex(p.data.sum()) for p in run.particles]
    if backend is not None:
        out["reads"] = backend.reads
    return out


def _filter_runs(model, params, data, n: int, continuous: bool) -> dict:
    """name -> runner(backend) for every filter the model supports at N particles."""
    runs = {
        "smc": lambda be: fl.run_smc(model, params, data, n, be),
        "smc-no-resampling": lambda be: fl.run_smc(model, params, data, n, be, resample=False),
        "mpf": lambda be: fl.run_mpf(model, params, data, n, be),
    }
    independent = not continuous or isinstance(model, mo.Lgssm)
    if independent:
        runs["tmc"] = lambda be: fl.run_tmc(model, params, data, n, be)
        for l_perms in sorted({1, min(2, n)}):
            runs[f"ipf-l{l_perms}"] = lambda be, l=l_perms: fl.run_ipf(model, params, data, n, l, be)
    return runs


def _objective_entries(name, model, params, data, learn_theta) -> dict:
    out = {}
    for kind in ob.KINDS:
        if kind == "tmc" and not isinstance(model, mo.Lgssm):
            continue  # tmc needs state-independent proposals
        for n in NS:
            obj = ob.Objective(kind, model, params, n, learn_theta=learn_theta)
            grad_fn = ob.gradient_unbiased if kind == "vmpf-ug" else ob.gradient_biased
            names = sorted((k, sl) for k, _, sl in ob.param_layout(ob.pack_params(obj)))
            for seed in SEEDS:
                value = ob.objective_value(obj, data, seed)
                g_value, grad = grad_fn(obj, data, seed)
                out[f"objective/{name}/{kind}/n{n}/s{seed}"] = {
                    "value": _hex(value.data),
                    "grad_value": _hex(g_value),
                    "grads": {k: _projections(grad[sl]) for k, sl in names},
                }
    return out


def _train_entries(name, model, params, data, learn_theta) -> dict:
    out = {}
    for kind in ("vsmc", "vmpf-ug"):
        freeze = ("phi.beta",) if name == "lgssm-d10" and kind == "vsmc" else ()
        obj = ob.Objective(kind, model, params, 4, learn_theta=learn_theta)
        trained, record = ob.train(obj, data, list(TRAIN_SCHEDULE), 1, freeze=freeze)
        out[f"train/{name}/{kind}"] = {
            "objective": _hexes(record.column("objective")),
            "params": {k: _projections(v) for k, v in sorted(ob.pack_params(trained).items())},
        }
    return out


def _enumeration_entry(runner) -> list:
    paths = []
    for value, prob, trace in ck.enumerate_paths(lambda be: float(runner(be).log_evidence.data)):
        paths.append([_hex(value), _hex(prob), [k for k, _ in trace]])
    return paths


def compute() -> dict:
    """Every golden entry, recomputed from the current code."""
    out = {}
    for name, (model, params, data, learn_theta) in continuous_cases().items():
        out.update(_objective_entries(name, model, params, data, learn_theta))
        if name in TRAIN_CASES:
            out.update(_train_entries(name, model, params, data, learn_theta))
        for n in NS:
            for seed in SEEDS:
                for fname, runner in _filter_runs(model, params, data, n, True).items():
                    be = RecordingBackend(seed)
                    out[f"filter/{name}/{fname}/n{n}/s{seed}"] = _run_entry(runner(be), be)
        for seed in SEEDS:
            for maker in (cp.derive_smc, cp.derive_mpf):
                d = maker(model, params, data, 3).draw(RngStream(seed))
                out[f"coupling/{name}/{maker.__name__}/s{seed}"] = {"log_r": _hex(d.log_r.data)}

    h, hp, hd = hmm_case()
    for label, params, seeds in (("hmm-tables", hp, SEEDS), ("hmm-default", None, SEEDS[:1])):
        for n in NS:
            for seed in seeds:
                for fname, runner in _filter_runs(h, params, hd, n, False).items():
                    run = runner(fl.RandomBackend(RngStream(seed)))
                    out[f"filter/{label}/{fname}/n{n}/s{seed}"] = _run_entry(run, states=True)
        for seed in SEEDS:
            for maker in (cp.derive_smc, cp.derive_mpf):
                d = maker(h, params, hd, 3).draw(RngStream(seed))
                out[f"coupling/{label}/{maker.__name__}/s{seed}"] = {"log_r": _hex(d.log_r.data)}
    short = hd.ys[:2]
    out["enumeration/hmm-tables/mpf-n2"] = _enumeration_entry(
        lambda be: fl.run_mpf(h, hp, short, 2, be))
    return out


def _moves(got, want) -> list:
    """Relative moves of the leaves that differ; inf where a leaf is no float or changed form."""
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for k in want for m in _moves(got[k], want[k])]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for a, b in zip(got, want) for m in _moves(a, b)]
    if got == want:
        return []
    try:
        a, b = float.fromhex(got), float.fromhex(want)
    except (TypeError, ValueError):
        return [math.inf]
    return [abs(a - b) / abs(b) if b else math.inf]


def moved_keys(got: dict, want: dict) -> dict:
    """key -> largest relative move, for every key whose values differ in any bit."""
    out = {}
    for key in sorted(set(got) | set(want)):
        moves = _moves(got[key], want[key]) if key in got and key in want else [math.inf]
        if moves:
            out[key] = max(moves)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write tests/golden.json, or check it.")
    parser.add_argument("--check", action="store_true",
                        help="recompute every entry, write nothing, exit 1 if any key moved")
    check = parser.parse_args(argv).check
    got = compute()
    if not check:
        GOLDEN.write_text(json.dumps(got, sort_keys=True, separators=(",", ":")) + "\n")
        print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
        return 0
    moved = moved_keys(got, json.loads(GOLDEN.read_text()))
    for key, move in moved.items():
        print(f"{key}: largest relative move {move:.3e}")
    print(f"{len(moved)} of {len(got)} keys moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
