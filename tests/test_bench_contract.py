"""The traced benchmark reaches the program by name: every name must resolve.

perfbench/spans.py patches the functions it lists in TRACED wherever a
module holds them, and swaps filters.TailCounter for a factory that keeps
each counter.  A rename in the program would otherwise surface only when
the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import particlevi.autodiff as ad
from particlevi import distributions
from particlevi import filters as fl
from particlevi import models as mo
from particlevi.rng import RngStream

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def program_modules():
    names = ("autodiff", "cli", "distributions", "filters", "models", "objectives", "rng")
    mods = {name: importlib.import_module(f"particlevi.{name}") for name in names}
    mods["particlevi"] = importlib.import_module("particlevi")
    return mods


def test_every_traced_function_resolves():
    mods = program_modules()
    for path, names in load_spans().TRACED.items():
        parts = path.split(".")
        owner = mods[parts[0]]
        for part in parts[1:]:
            owner = getattr(owner, part)
        for name in names:
            assert callable(getattr(owner, name, None)), f"{path}.{name} is gone"


def test_tail_counter_is_a_filters_global():
    assert isinstance(fl.TailCounter(), distributions.TailCounter)


def test_recorder_reads_tail_failures_of_unbiased_runs(monkeypatch):
    # every draw is a tail draw: the recorder's counters must see them all
    monkeypatch.setattr(distributions, "_TAIL_PDF_FLOOR", np.inf)
    m = mo.lgssm_make(1, 1, 0.42, "sparse", RngStream(0))
    ds = mo.generate(m, 3, RngStream(7))
    params0 = mo.proposal_init(m, 3)
    spans = load_spans()
    recorder = spans.Recorder(program_modules())
    with recorder:
        with ad.Tape():
            p = {k: ad.leaf(v) for k, v in params0.items()}
            run = fl.run_mpf(m, p, ds, 4, 1, implicit=True)
            ad.grad(run.log_evidence, [p["mu"]])
    stats, _, counts = recorder.finish()
    # steps 2 and 3 draw through the implicit node; t=1 is one Gaussian
    assert counts["setup"]["distributions.tail_failures"] == 4 * 2 == run.tail_failures
    assert stats["setup"]["distributions.mixture_implicit_rsample"][0] == 2
