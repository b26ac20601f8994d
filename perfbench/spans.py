"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the particlevi modules from the
outside.  While it is installed, every module attribute that holds a traced
function object is replaced by a timing wrapper, so a call is timed
wherever its caller looks the name up: ``fl.run_mpf`` in objectives,
``categorical_sample_many`` imported into filters, the ``gradient_*``
globals that ``objectives._grad_fn`` reads, the autodiff globals that
``Var``'s operators call, and so on.

Spans nest per thread: each thread keeps its own stack, so the filter runs
that ``bound_estimate`` fans out over its thread pool are timed on the
thread that runs them.  A span's self time is its duration minus the time
its child spans cover.  The children of ``bound_estimate`` run on pool
threads; for it the covered time is the union of the intervals of the root
spans those threads recorded while it was open.

Besides spans the recorder keeps the counts reported per layer: tape nodes
per gradient, tail failures of the implicit mixture draws, pairs of the
all-pairs density kernel, effective sample size per filter step,
degeneracy errors and random draws.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np

# spans whose inclusive durations are kept for percentiles
PERCENTILE_SPANS = ("objectives.gradient_biased", "objectives.gradient_unbiased",
                    "objectives.objective_value")

# owner of the traced functions, as a path from the module short names
# -> the traced function names; a span is named "<owner>.<function>"
TRACED = {
    "autodiff": ("grad", "matmul", "logsumexp", "gather_rows", "stack_rows", "custom_vjp",
                 "add", "sub", "mul", "exp"),
    "distributions": ("mixture_implicit_rsample", "gauss_product_fuse", "categorical_sample_many"),
    "models": ("proposal_build_many", "transition_build_many", "emission_logpdf_rows",
               "gauss_logpdf_rows", "gauss_logpdf_matrix", "mlp_two_head"),
    "filters": ("run_smc", "run_mpf"),
    "rng.RngStream": ("normals_at", "uniforms_at"),
    "objectives": ("gradient_biased", "gradient_unbiased", "objective_value", "adam_step",
                   "apply_params", "bound_estimate"),
    "cli": ("cmd_generate", "load_dataset"),
}

# the backward rules handed to custom_vjp get a span of their own
RULE_SPAN = "autodiff.custom_vjp_rule"


def span_names() -> list:
    out = [f"{owner}.{name}" for owner, names in TRACED.items() for name in names]
    out.insert(out.index("autodiff.custom_vjp") + 1, RULE_SPAN)
    return out


class _ThreadState(threading.local):
    """Per-thread span stack and tallies; registers itself with the recorder."""

    def __init__(self, recorder):
        self.stack = []  # one entry per open span: seconds covered by its children
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (kind, span) -> calls, total s, self s
        self.durations = defaultdict(list)  # (kind, span) -> inclusive seconds
        with recorder.lock:
            recorder.threads.append((self.stats, self.durations))


class Recorder:
    """Collects spans and counts while installed; ``kind`` labels each record.

    ``modules`` maps short names (autodiff, distributions, models, filters,
    rng, objectives, cli, particlevi) to the imported modules.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.kind = "setup"
        self.lock = threading.Lock()
        self.threads = []
        self._tls = _ThreadState(self)
        self._main = threading.current_thread()
        self._orphans = []  # (start, end) of root spans recorded on pool threads
        self._counts = defaultdict(lambda: defaultdict(float))  # kind -> count -> value
        self._tail_counters = []
        self._patched = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        after = {
            "autodiff.grad": self._after_grad,
            "models.gauss_logpdf_matrix": self._after_pairs,
            "filters.run_smc": self._after_filter,
            "filters.run_mpf": self._after_filter,
            "rng.RngStream.normals_at": self._after_draws,
            "rng.RngStream.uniforms_at": self._after_draws,
        }
        wrapped = {}
        for path, names in TRACED.items():
            parts = path.split(".")
            owner = self.modules[parts[0]]
            for part in parts[1:]:
                owner = getattr(owner, part)
            for fn_name in names:
                fn = getattr(owner, fn_name)
                span = f"{path}.{fn_name}"
                if span == "autodiff.custom_vjp":
                    wrapper = self._wrap_custom_vjp(fn)
                else:
                    wrapper = self._wrap(span, fn, after.get(span))
                wrapped[id(fn)] = (fn, wrapper)
        # replace every module-level and class-level reference to a traced function
        for module in self.modules.values():
            owners = [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__ == module.__name__]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(owner, attr, hit[1])
        self._patch(self.modules["filters"], "TailCounter", self._tail_counter_factory())
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _tail_counter_factory(self):
        """TailCounter stand-in that keeps each counter for reading after backward.

        The implicit rule increments its counter during ``grad``, after the
        filter run has returned, so the counters are read in ``finish``.
        """
        base = self.modules["filters"].TailCounter

        def make(*args, **kwargs):
            counter = base(*args, **kwargs)
            self._tail_counters.append((self.kind, counter))
            return counter

        return make

    # -- spans --------------------------------------------------------------

    def _wrap(self, span, fn, after):
        tls = self._tls
        orphans = self._orphans
        main = self._main
        perf = time.perf_counter
        keep_durations = span in PERCENTILE_SPANS
        crosses_threads = span == "objectives.bound_estimate"
        recorder = self

        def close(stack, t0):
            t1 = perf()
            dt = t1 - t0
            child = stack.pop()
            if crosses_threads:
                with recorder.lock:
                    child += _covered(orphans, t0, t1)
            key = (recorder.kind, span)
            rec = tls.stats[key]
            rec[0] += 1
            rec[1] += dt
            rec[2] += dt - child
            if keep_durations:
                tls.durations[key].append(dt)
            if stack:
                stack[-1] += dt
            elif threading.current_thread() is not main:
                with recorder.lock:
                    orphans.append((t0, t1))

        def traced(*args, **kwargs):
            stack = tls.stack
            stack.append(0.0)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                close(stack, t0)
                if after is not None:
                    after(args, None, exc)
                raise
            close(stack, t0)
            if after is not None:
                # bookkeeping after the span is charged to nobody: the
                # parent counts it as covered by a child
                t2 = perf()
                after(args, out, None)
                if stack:
                    stack[-1] += perf() - t2
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_custom_vjp(self, fn):
        """custom_vjp, plus a span around each backward rule it records."""
        traced_call = self._wrap("autodiff.custom_vjp", fn, None)
        wrap = self._wrap

        def custom_vjp(forward_value, parents, backward_rule):
            return traced_call(forward_value, parents, wrap(RULE_SPAN, backward_rule, None))

        custom_vjp.__wrapped__ = fn
        return custom_vjp

    # -- counts -------------------------------------------------------------

    def _count(self, name, value):
        with self.lock:
            self._counts[self.kind][name] += value

    def _after_grad(self, args, out, exc):
        loss = args[0]
        if exc is None and loss.tape is not None:
            self._count("autodiff.tape_nodes", len(loss.tape.nodes))
            self._count("autodiff.gradients", 1)

    def _after_pairs(self, args, out, exc):
        if exc is not None:
            return
        n, d = np.shape(getattr(args[0], "data", args[0]))
        m = np.shape(getattr(args[1], "data", args[1]))[0]
        self._count("models.gauss_logpdf_matrix.pairs", n * m)
        self._count("models.gauss_logpdf_matrix.computed_flops", pair_flops(n, m, d))
        self._count("models.gauss_logpdf_matrix.computed_bytes", pair_bytes(n, m, d))

    def _after_filter(self, args, run, exc):
        if exc is not None:
            if isinstance(exc, self.modules["filters"].DegeneracyError):
                self._count("filters.degeneracy_errors", 1)
            return
        ess = 0.0
        for logw in run.log_weights:
            w = np.exp(logw.data - np.max(logw.data))
            ess += float(w.sum() ** 2 / np.dot(w, w)) / w.shape[0]
        self._count("filters.ess_frac_sum", ess)
        self._count("filters.steps", len(run.log_weights))

    def _after_draws(self, args, out, exc):
        if exc is None:
            self._count("rng.draws", int(np.size(out)))

    # -- results ------------------------------------------------------------

    def finish(self):
        """Merged records keyed by kind: (stats, durations, counts).

        stats[kind][span] = [calls, total seconds, self seconds].
        """
        stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0.0]))
        durations = defaultdict(lambda: defaultdict(list))
        with self.lock:
            threads = list(self.threads)
        for thread_stats, thread_durations in threads:
            for (kind, span), (calls, total, own) in list(thread_stats.items()):
                rec = stats[kind][span]
                rec[0] += calls
                rec[1] += total
                rec[2] += own
            for (kind, span), values in list(thread_durations.items()):
                durations[kind][span].extend(values)
        counts = defaultdict(lambda: defaultdict(float))
        for kind, values in self._counts.items():
            counts[kind].update(values)
        for kind, counter in self._tail_counters:
            counts[kind]["distributions.tail_failures"] += counter.count
        return stats, durations, counts


def _covered(intervals: list, t0: float, t1: float) -> float:
    """Seconds of [t0, t1] covered by the union of the intervals.

    Drops the intervals that end by t1: no later span can contain them.
    """
    inside = sorted((max(a, t0), min(b, t1)) for a, b in intervals if b > t0 and a < t1)
    intervals[:] = [(a, b) for a, b in intervals if b > t1]
    total, end = 0.0, t0
    for a, b in inside:
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def pair_flops(n: int, m: int, d: int) -> int:
    """Floating-point operations of the expanded all-pairs quadratic form.

    Two (N, d) @ (d, M) products, the N x M combination
    const - 0.5 * (sq - 2 cross + msq), and the O((N + M) d) row terms.
    """
    return 4 * n * m * d + 5 * n * m + 6 * m * d + 2 * n * d


def pair_bytes(n: int, m: int, d: int) -> int:
    """float64 bytes read and written, computed from the array shapes.

    The (N, d) and (M, d) operands and row terms, plus five N x M
    temporaries, each written once and read once.
    """
    return 8 * (2 * n * d + 4 * m * d + 10 * n * m)


# per-layer count metrics: name -> unit, better
COUNT_METRICS = {
    "autodiff.tape_nodes": ("count/grad", "lower"),
    "distributions.tail_fail_frac": ("ratio", "lower"),
    "models.gauss_logpdf_matrix.pairs": ("count/op", "lower"),
    "models.gauss_logpdf_matrix.computed_flops": ("flop/op", "lower"),
    "models.gauss_logpdf_matrix.computed_bytes": ("B/op", "lower"),
    "filters.ess_frac": ("ratio", "higher"),
    "filters.degeneracy_errors": ("count", "lower"),
    "rng.draws": ("count/op", "lower"),
    "objectives.pool_inflation": ("ratio", "lower"),
}


def metric_units() -> dict:
    """Every per-layer metric the recorder yields: name -> (unit, better)."""
    out = {}
    for span in span_names():
        per_setup = span.startswith("cli.")
        out[f"{span}.calls"] = ("count" if per_setup else "count/op", "lower")
        out[f"{span}.self_ms"] = ("ms" if per_setup else "ms/op", "lower")
    for span in PERCENTILE_SPANS:
        out[f"{span}.p50_ms"] = ("ms", "lower")
        out[f"{span}.p95_ms"] = ("ms", "lower")
    out.update(COUNT_METRICS)
    return out


def layer_metrics(records, kinds, ops: int, scale: float = 1.0) -> dict:
    """Per-layer values, name -> value, from ``Recorder.finish()``.

    Spans and draws are per operation over the given kinds; the cli spans
    are per set-up, recorded under the kind "setup".  Times are divided by
    scale, the machine's slowness relative to the reference speed.
    """
    stats, durations, counts = records
    ops = max(ops, 1)
    ms = 1e3 / scale

    def span_total(span, field):
        return sum(stats[k][span][field] for k in kinds if span in stats[k])

    def count(name):
        return sum(counts[k].get(name, 0.0) for k in kinds if k in counts)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for span in span_names():
        if span.startswith("cli."):
            calls, own = (stats["setup"][span][0], stats["setup"][span][2]) if span in stats["setup"] else (0, 0.0)
            out[f"{span}.calls"], out[f"{span}.self_ms"] = calls, own * ms
        else:
            out[f"{span}.calls"] = span_total(span, 0) / ops
            out[f"{span}.self_ms"] = span_total(span, 2) * ms / ops
    for span in PERCENTILE_SPANS:
        values = [v for k in kinds for v in durations[k].get(span, ())]
        p50, p95 = np.percentile(values, [50, 95]) * ms if values else (0.0, 0.0)
        out[f"{span}.p50_ms"], out[f"{span}.p95_ms"] = float(p50), float(p95)
    out["autodiff.tape_nodes"] = ratio(count("autodiff.tape_nodes"), count("autodiff.gradients"))
    out["distributions.tail_fail_frac"] = ratio(
        count("distributions.tail_failures"), span_total("distributions.mixture_implicit_rsample", 0))
    for name in ("pairs", "computed_flops", "computed_bytes"):
        out[f"models.gauss_logpdf_matrix.{name}"] = count(f"models.gauss_logpdf_matrix.{name}") / ops
    out["filters.ess_frac"] = ratio(count("filters.ess_frac_sum"), count("filters.steps"))
    out["filters.degeneracy_errors"] = count("filters.degeneracy_errors")
    out["rng.draws"] = count("rng.draws") / ops
    out["objectives.pool_inflation"] = ratio(
        span_total("objectives.objective_value", 1), span_total("objectives.bound_estimate", 1))
    return out


def self_shares(records, kind) -> tuple:
    """Shares of the self time recorded under one kind.

    Returns (layer -> self share, span -> (self share, inclusive share));
    an inclusive share is the span's whole duration over the same total.
    """
    stats = records[0][kind]
    total = sum(rec[2] for rec in stats.values()) or 1.0
    spans, layers = {}, {}
    for span, (_, inclusive, own) in sorted(stats.items(), key=lambda kv: -kv[1][2]):
        spans[span] = (own / total, inclusive / total)
        layer = span.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own / total
    return dict(sorted(layers.items(), key=lambda kv: -kv[1])), spans
