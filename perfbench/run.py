"""particlevi benchmark: training and evaluation throughput, with a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lgssm-train --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py and README.md): lgssm-train, dmm-vem-train,
lgssm-evaluate.  Each builds its inputs from --seed, passes an untimed
correctness gate, then times calls of the three objective kinds in turn
for --seconds.  The whole run is pinned to one CPU.

--trace 0 reports the end-to-end metrics: ops_s.<kind> (training
iterations/s, or bound samples/s on lgssm-evaluate; the median over the
timed calls), setup_s (median of three set-ups in fresh processes) and
peak_rss_mb.  Times are scaled to a reference machine speed measured by a
fixed loop between calls (see README.md); the report also prints them as
measured.  --trace 1 measures half the time plain and
half the time with every traced function wrapped, and reports the
per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are a
readable report and a detail record with the machine description.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The whole run, its thread pools and its set-up processes share one core;
# this comes before numpy's import so that OpenBLAS starts on that core too.
# See "One core" in README.md.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import numpy as np

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
# times are reported as if reference_loop() took this long; see README.md
REFERENCE_S = 0.002


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> dict:
    """Import particlevi from this checkout's src/, refusing any other copy."""
    if not (SRC / "particlevi" / "__init__.py").is_file():
        _fail(f"no particlevi sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = wl.import_program()
    origin = Path(mods["particlevi"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        _fail(f"particlevi imported from {origin}, not from {SRC}")
    return mods


# ---------------------------------------------------------------------------
# timing


def reference_loop() -> float:
    """Seconds taken by a fixed piece of small-array numpy work.

    The work does not touch particlevi, so no change to the program moves
    it; it moves with the speed of the machine.  It mixes the interpreter
    and small-array numpy dispatch that dominate the program's time.
    """
    a = np.linspace(0.1, 1.0, 160).reshape(16, 10)
    b = np.linspace(1.0, 2.0, 160).reshape(16, 10)
    t0 = time.perf_counter()
    for _ in range(150):
        d = np.exp(-(a * b + a)) @ b.T
        float(np.log(d.sum(axis=1)).max())
    return time.perf_counter() - t0


def reference() -> float:
    """The median of three reference loops, so that one preempted loop does not count."""
    return statistics.median(reference_loop() for _ in range(3))


def measure(inst, seconds: float, recorder=None) -> dict:
    """Time one call of each kind in turn, round after round, until the time is up.

    reference() runs between consecutive calls.  Each call is scaled by
    the mean of the reference times on either side of it, over
    REFERENCE_S.  A call that fails counts all its operations as failed:
    its iterations, or its one bound_estimate call.  On the evaluate
    workload the bounds of each kind's timed calls are then checked against
    Kalman together; if that fails, every call of the kind has failed.
    Returns {"calls": kind -> [(units, seconds, scale)] of the correct
    calls, "attempted", "failed", "problems"}.
    """
    degeneracy = inst.mods["filters"].DegeneracyError
    result = {"calls": {k: [] for k in wl.KINDS}, "attempted": 0, "failed": 0, "problems": []}
    bounds = {k: [] for k in wl.KINDS}  # (samples, mean, se) of each correct evaluate call
    reference_loop()
    before = reference()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for kind in wl.KINDS:
            if recorder is not None:
                recorder.kind = kind
            units = inst.workload.units[kind]
            result["attempted"] += wl.ops_in(inst, kind)
            t0 = time.perf_counter()
            try:
                out = wl.call(inst, kind, index)
            except (degeneracy, ValueError) as exc:
                problems = [f"{kind} call {index}: {type(exc).__name__}: {exc}"]
            else:
                dt = time.perf_counter() - t0
                problems = wl.check(inst, kind, out, units)
            after = reference()
            if problems:
                result["failed"] += wl.ops_in(inst, kind)
                result["problems"].extend(problems)
            else:
                scale = (before + after) / 2.0 / REFERENCE_S
                result["calls"][kind].append((units, dt, scale))
                if inst.mode == "evaluate":
                    bounds[kind].append((units, *out))
            before = after
        index += 1
        if time.perf_counter() >= deadline:
            break
    for kind, calls in bounds.items():
        problems = wl.check_pooled(inst, kind, calls) if calls else []
        if problems:
            result["failed"] += len(calls)
            result["problems"].extend(problems)
    return result


def _rate_summary(calls) -> dict:
    """Median units per second over the calls, at reference speed, and as measured."""
    scaled = [units / dt * scale for units, dt, scale in calls]
    raw = [units / dt for units, dt, _ in calls]
    return {
        "calls": len(calls),
        "median": statistics.median(scaled) if scaled else 0.0,  # no correct call: no throughput
        "median_measured": statistics.median(raw) if raw else 0.0,
        "reference_scale": statistics.median(s for _, _, s in calls) if calls else 0.0,
    }


def _ms_per_unit(calls) -> float:
    """Median milliseconds per unit over the calls, at reference speed."""
    ms = [dt * 1e3 / units / scale for units, dt, scale in calls]
    return statistics.median(ms) if ms else 0.0


def setup_probes(workload: str, seed: int, work: Path) -> list:
    """Set-ups in fresh processes: import, inputs and one warm-up call per kind.

    Returns one {"setup_s", "setup_s_scaled"} record per process.
    """
    samples = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", workload, "--seed", str(seed), "--work", str(work / f"probe{i}")]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            _fail(f"set-up probe failed:\n{done.stderr}", 1)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# reporting


def machine_record() -> dict:
    """Interpreter, library and BLAS versions, cores and the default pool size."""
    import concurrent.futures
    import ctypes
    import glob

    import scipy

    blas = {"version": None, "config": None, "threads": None}
    try:
        blas["version"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    # numpy wheels bundle OpenBLAS under numpy.libs; ask it for its thread count
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and blas["threads"] is None:
                    threads.restype = ctypes.c_int
                    blas["threads"] = threads()
                if config is not None and blas["config"] is None:
                    config.restype = ctypes.c_char_p
                    blas["config"] = config().decode()
    with concurrent.futures.ThreadPoolExecutor() as pool:
        pool_workers = pool._max_workers  # what bound_estimate gets with workers=None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "bound_estimate_default_workers": pool_workers,
        "platform": platform.platform(),
    }


def _metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def _print_report(workload, report, metrics):
    gate = report["gate"]
    print(f"workload {workload.name} seed {report['seed']} trace {report['trace']}")
    print(f"gate: {gate['checks']} checks, {gate['failed']} failed {gate['problems'] or ''}")
    if report["trace"] == 0:
        name, op = ("train_it_s", "iterations/s") if workload.mode == "train" else ("eval_samples_s", "samples/s")
        for kind in wl.KINDS:
            s = report["ops_s"][kind]
            print(f"  {name}.{kind:8s} {s['median']:10.3f} {op} at reference speed "
                  f"({s['median_measured']:.3f} as measured, machine at {1 / s['reference_scale']:.2f}x "
                  f"reference speed; {s['calls']} calls of {workload.units[kind]})")
        samples = ", ".join(f"{p['setup_s']:.4f}" for p in report["setup"])
        print(f"  setup_s at reference speed {metrics['setup_s']['value']:.4f} s (as measured {samples})")
        print(f"  peak_rss_mb {report['peak_rss_mb']:.2f} MB")
    else:
        for kind, entry in report["breakdown"].items():
            layers = ", ".join(f"{k} {v:.1%}" for k, v in entry["layer_self_share"].items())
            spans = ", ".join(f"{k} {own:.1%} (inclusive {incl:.1%})"
                              for k, (own, incl) in list(entry["span_shares"].items())[:8])
            print(f"  {kind}: plain {entry['plain_ms_per_op']:.3f} ms/op, traced "
                  f"{entry['traced_ms_per_op']:.3f} ms/op")
            print(f"    layer self-time shares: {layers}")
            print(f"    top spans: {spans}")
    print(f"  failed_ops_frac {report['failed_ops_frac']:.6f}")
    if report["problems"]:
        print("problems: " + "; ".join(report["problems"]))
    print("detail " + json.dumps(report))


# ---------------------------------------------------------------------------
# entry points


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _probe(args) -> int:
    """Child process: time one full set-up, stage by stage, between reference loops.

    numpy is already imported, because the reference loop needs it.  The
    stages are importing particlevi (scipy comes with it), building the
    inputs and one warm-up call per kind.  Each stage is scaled by the
    reference times on either side of it, as measure() scales a call.
    """
    stages = []
    before = reference()

    def stage(fn):
        nonlocal before
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        after = reference()
        stages.append((seconds, (before + after) / 2.0 / REFERENCE_S))
        before = after
        return out

    mods = stage(_import_program)
    inst = stage(lambda: wl.build(mods, wl.WORKLOADS[args.workload], args.seed, args.work))
    for kind in wl.KINDS:
        stage(lambda: wl.warm_up(inst, kind))
    print(json.dumps({"setup_s": sum(s for s, _ in stages),
                      "setup_s_scaled": sum(s / scale for s, scale in stages)}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _probe(args)
    mods = _import_program()
    if args.workload not in wl.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    work = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    try:
        return _run(args, mods, wl.WORKLOADS[args.workload], work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, mods, workload, work: Path) -> int:
    inst = wl.setup(mods, workload, args.seed, work / "main")
    checks, gate_failed, gate_problems = wl.gate(inst)
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "gate": {"checks": checks, "failed": gate_failed, "problems": gate_problems}}

    if args.trace == 0:
        timed = measure(inst, args.seconds)
        report["ops_s"] = {k: _rate_summary(timed["calls"][k]) for k in wl.KINDS}
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["setup"] = setup_probes(workload.name, args.seed, work)
        setup_s = statistics.median(p["setup_s_scaled"] for p in report["setup"])
        metrics = {f"ops_s.{k}": _metric(report["ops_s"][k]["median"], "1/s") for k in wl.KINDS}
        metrics["setup_s"] = _metric(setup_s, "s")
        metrics["peak_rss_mb"] = _metric(report["peak_rss_mb"], "MB")
    else:
        plain = measure(inst, args.seconds / 2.0)
        recorder = spans.Recorder(mods)
        with recorder:
            timed = measure(inst, args.seconds / 2.0, recorder)
            recorder.kind = "setup"
            wl.data_setup(mods, workload, args.seed, work / "traced")
        records = recorder.finish()
        traced_calls = [c for k in wl.KINDS for c in timed["calls"][k]]
        ops = sum(units for units, _, _ in traced_calls)
        scale = statistics.median(s for _, _, s in traced_calls) if traced_calls else 1.0
        units = spans.metric_units()
        metrics = {name: _metric(value, units[name][0])
                   for name, value in spans.layer_metrics(records, wl.KINDS, ops, scale).items()}
        report["breakdown"] = {}
        for kind in wl.KINDS:
            plain_ms, traced_ms = _ms_per_unit(plain["calls"][kind]), _ms_per_unit(timed["calls"][kind])
            metrics[f"trace.overhead_ms.{kind}"] = _metric(traced_ms - plain_ms, "ms/op")
            layers, shares = spans.self_shares(records, kind)
            report["breakdown"][kind] = {
                "plain_ms_per_op": plain_ms,
                "traced_ms_per_op": traced_ms,
                "layer_self_share": layers,
                "span_shares": shares,
                "counts": dict(records[2][kind]),
            }
        for key in ("attempted", "failed", "problems"):
            timed[key] += plain[key]

    attempted = checks + timed["attempted"]
    failed = gate_failed + timed["failed"]
    report["problems"] = timed["problems"][:20]
    report["failed_ops_frac"] = failed / attempted
    report["machine"] = machine_record()
    _print_report(workload, report, metrics)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
