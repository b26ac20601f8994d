"""Reverse-mode automatic differentiation on a define-by-run tape.

Values are dense float64 numpy arrays of rank at most 2 (scalars, vectors,
matrices).  Every operation computes its forward value immediately and, when
a tape is active and some parent is on it, records one node through
``custom_vjp``, the one place op nodes are made.  A node is the pair
(parent ids, rule): one id per parent in the op's own order, None for a
constant parent, and the rule, which maps the incoming cotangent to one
cotangent per parent.  A leaf is ((), None).  ``grad`` walks the node list
once in reverse id order, which is a reverse topological order because ids
strictly increase at creation, and skips the None parents.

A rule closes over arrays, shapes and flags only, never over a ``Var``: a
Var refers to its tape, so a rule holding one would tie the tape into a
reference cycle that only the cyclic collector frees.  Without cycles a
tape is freed by reference counting when its last Var goes, which
``objectives._gradient`` relies on to pause the collector while it lives.

The contract callers may rely on for elementwise shapes is scalar-with-tensor
and equal-shape; internally the library also leans on general numpy
broadcasting (row/column vectors against matrices), and cotangents are summed
back to the parent shape.  A -inf log-value (a zero weight, a mixture row
with no live component) only ever reaches logsumexp, whose softmax backward
assigns it exactly zero weight, so no infinite gradient is materialized.

A rule may return None for a constant parent (a Var off the tape);
``mul``, ``matmul`` and the analytic kernels of ``models`` form no
cotangent there.  ``np_logsumexp`` and the logsumexp node's backward take
a short path, with no masks or error-state guards, when every maximum is
finite; the guarded path serves a maximum of -inf, +inf or NaN and gives
the short path's bits on finite rows.
"""

from __future__ import annotations

import math
from contextvars import ContextVar

import numpy as np
from scipy import special as _special

_ACTIVE: ContextVar["Tape | None"] = ContextVar("particlevi_tape", default=None)


class Tape:
    """Recording context; nodes are (parent ids, rule) pairs."""

    __slots__ = ("nodes", "_token")

    def __init__(self):
        self.nodes = []

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.reset(self._token)
        return False


def recording() -> bool:
    """Whether a tape is active, so new nodes are recorded."""
    return _ACTIVE.get() is not None


class Var:
    """A float64 array plus its position on a tape (None for constants)."""

    __slots__ = ("data", "nid", "tape")

    # keeps ndarray <op> Var from silently broadcasting to an object array
    __array_ufunc__ = None

    def __init__(self, data, nid=None, tape=None):
        self.data = data
        self.nid = nid
        self.tape = tape

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = "const" if self.nid is None else f"node {self.nid}"
        return f"Var({self.data!r}, {tag})"

    # Operator sugar; all dispatch to the module-level ops below.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None):
        a = _nonempty(self)
        shape = a.data.shape

        def rule(g):
            acc = np.empty(shape)
            acc[...] = g if axis is None else np.expand_dims(g, axis)
            return (acc,)

        return custom_vjp(np.sum(a.data, axis=axis), (a,), rule)


def constant(x) -> Var:
    """Wrap a value as a non-differentiable Var; a Var passes through as is."""
    if x.__class__ is Var:
        return x
    return Var(np.asarray(x, dtype=np.float64))


def leaf(x) -> Var:
    """Wrap a value as a differentiable leaf on the active tape."""
    data = np.asarray(x, dtype=np.float64)
    tape = _ACTIVE.get()
    if tape is None:
        return Var(data)
    nid = len(tape.nodes)
    tape.nodes.append(((), None))
    return Var(data, nid, tape)


def unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a cotangent back down to a (possibly broadcast-from) shape."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise operations


def add(a, b) -> Var:
    a, b = constant(a), constant(b)
    sa, sb = a.data.shape, b.data.shape
    return custom_vjp(a.data + b.data, (a, b), lambda g: (unbroadcast(g, sa), unbroadcast(g, sb)))


def sub(a, b) -> Var:
    a, b = constant(a), constant(b)
    sa, sb = a.data.shape, b.data.shape
    return custom_vjp(a.data - b.data, (a, b), lambda g: (unbroadcast(g, sa), unbroadcast(-g, sb)))


def mul(a, b) -> Var:
    a, b = constant(a), constant(b)
    da, db = a.data, b.data
    la, lb = a.nid is not None, b.nid is not None

    def rule(g):
        return (
            unbroadcast(g * db, da.shape) if la else None,
            unbroadcast(g * da, db.shape) if lb else None,
        )

    return custom_vjp(da * db, (a, b), rule)


def exp(a) -> Var:
    a = constant(a)
    out = np.exp(a.data)
    return custom_vjp(out, (a,), lambda g: (g * out,))


def sigmoid(a) -> Var:
    a = constant(a)
    out = _special.expit(a.data)
    return custom_vjp(out, (a,), lambda g: (g * out * (1.0 - out),))


# ---------------------------------------------------------------------------
# matmul and reductions


def np_matmul(a: np.ndarray, b: np.ndarray, blocks: int = 1) -> np.ndarray:
    """a @ b, with the rows of a taken as ``blocks`` equal blocks that each get their own product.

    BLAS rounds a product by its shape, so blocks stacked into one matrix
    need not match each block's own product bit for bit; one batched
    (blocks, rows, k) product does.  A lone row is one product whatever
    blocks says: it is a row that every block shares.
    """
    if blocks == 1 or a.shape[0] == 1:
        return a @ b
    return (a.reshape(blocks, -1, a.shape[1]) @ b).reshape(a.shape[0], *b.shape[1:])


def matmul(a, b, blocks: int = 1) -> Var:
    """Matrix product of two rank-2 operands; the rows of a may stack ``blocks`` runs (``np_matmul``)."""
    a, b = constant(a), constant(b)
    da, db = a.data, b.data
    if da.ndim != 2 or db.ndim != 2:
        raise ValueError(f"matmul expects matrices, got ranks {da.ndim} and {db.ndim}")
    if da.shape[1] != db.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {da.shape} @ {db.shape}")
    la, lb = a.nid is not None, b.nid is not None

    def rule(g):
        return (np.matmul(g, db.T) if la else None, np.matmul(da.T, g) if lb else None)

    return custom_vjp(np_matmul(da, db, blocks), (a, b), rule)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry is finite, read off the extremes: no mask, and no warning for NaN or inf."""
    return math.isfinite(a.min()) and math.isfinite(a.max())


def np_logsumexp(a: np.ndarray, axis=None) -> np.ndarray:
    """Max-subtracted logsumexp of a plain array; all -inf gives -inf.

    The one numpy form: the tape op ``logsumexp`` computes its forward value
    here, and off-tape code calls it directly so it records no node.  When
    every maximum is finite the terms are shifted by it and summed with no
    masks or error-state guards; otherwise a maximum of -inf (a row of zero
    weights) shifts by 0, and +inf or NaN propagate.  Both paths make the
    same arithmetic, so a row gets the same bits either way.
    """
    if axis is None:
        m = a.max()
        if math.isfinite(m):
            e = np.asarray(a - m)  # exponentiated in place: one temporary the size of a
            np.exp(e, out=e)
            return np.asarray(np.log(e.sum()) + m)
    else:
        m = a.max(axis=axis, keepdims=True)
        if _all_finite(m):
            e = a - m
            np.exp(e, out=e)
            out = np.log(e.sum(axis=axis))
            out += m.reshape(out.shape)
            return out
    m = np.max(a, axis=axis, keepdims=True)
    safe = np.where(np.isfinite(m), m, 0.0)
    e = np.asarray(a - safe)
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.sum(e, axis=axis, keepdims=True))
    return out.reshape(()) if axis is None else np.squeeze(out, axis=axis)


def _nonempty(a) -> Var:
    a = constant(a)
    if a.data.size == 0:
        raise ValueError("empty reduction")
    return a


def logsumexp(a, axis=None) -> Var:
    a = _nonempty(a)
    data = a.data
    out = np_logsumexp(data, axis)
    outk = out if axis is None else np.expand_dims(out, axis)

    def rule(g):
        finite = math.isfinite(out) if axis is None else _all_finite(out)
        if finite:
            soft = np.exp(data - outk)
        else:  # a row whose logsumexp is -inf (all weights zero) passes back exact zeros
            with np.errstate(invalid="ignore"):
                soft = np.exp(data - outk)
            soft = np.where(np.isfinite(outk), soft, 0.0)
        soft *= g if axis is None else np.expand_dims(g, axis)
        return (soft,)

    return custom_vjp(out, (a,), rule)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a, shape) -> Var:
    a = constant(a)
    old = a.data.shape
    return custom_vjp(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def gather_rows(a, idx) -> Var:
    """Select rows (or elements of a vector) by integer index; backward scatter-adds."""
    a = constant(a)
    idx = np.asarray(idx, dtype=np.intp)
    out = a.data[idx]
    shape = a.data.shape

    def rule(g):
        acc = np.zeros(shape)
        if idx.shape == (1,):  # one row (a step's parameter row): no scatter
            acc[idx[0]] += g[0]
        else:
            np.add.at(acc, idx, g)
        return (acc,)

    return custom_vjp(out, (a,), rule)


def stack_rows(rows) -> Var:
    """Stack equal-shape Vars along a new leading axis; backward splits rows."""
    rows = [constant(r) for r in rows]
    # the rule ``tuple`` splits the cotangent into one row per parent
    return custom_vjp(np.stack([r.data for r in rows]), rows, tuple)


def custom_vjp(forward_value, parents, backward_rule) -> Var:
    """Record a node with a caller-supplied cotangent rule.

    The rule receives the incoming cotangent and must return one cotangent
    per parent, in order; it is invoked exactly once per backward call.
    Entries for constant parents are ignored, so a rule may return None
    there instead of forming them.  No node is recorded off tape or when
    every parent is a constant.
    """
    out = np.asarray(forward_value, dtype=np.float64)
    tape = _ACTIVE.get()
    if tape is None:
        return Var(out)
    pids = tuple([p.nid for p in parents])
    if pids.count(None) == len(pids):
        return Var(out)
    nid = len(tape.nodes)
    tape.nodes.append((pids, backward_rule))
    return Var(out, nid, tape)


# ---------------------------------------------------------------------------
# gradients


def grad(loss: Var, wrt) -> list:
    """Gradient of a scalar loss w.r.t. each requested Var.

    Pure given the tape: repeated calls return identical arrays.  Constants
    and untouched leaves get exact zeros.  A rule that returns a cotangent
    count other than its node's parent count raises ValueError.
    """
    if loss.data.shape != ():
        raise ValueError("grad requires a scalar loss")
    out = [None] * len(wrt)
    if loss.nid is None:
        return [np.zeros_like(np.asarray(w.data)) for w in wrt]
    tape = loss.tape
    nodes = tape.nodes
    acc = {loss.nid: np.ones(())}
    for nid in range(loss.nid, -1, -1):
        g = acc.get(nid)
        if g is None:
            continue
        pids, rule = nodes[nid]
        if rule is None:
            continue  # leaf; value stays in acc for collection
        del acc[nid]
        outs = rule(g)
        if len(outs) != len(pids):
            raise ValueError(f"custom_vjp rule returned {len(outs)} cotangents for {len(pids)} parents")
        for pid, pg in zip(pids, outs):
            if pid is None:
                continue
            prev = acc.get(pid)
            acc[pid] = pg if prev is None else prev + pg
    for k, w in enumerate(wrt):
        g = None if w.nid is None else acc.get(w.nid)
        if g is None:
            out[k] = np.zeros_like(np.asarray(w.data))
        elif isinstance(g, np.ndarray) and g.shape == w.data.shape and g.dtype == np.float64:
            out[k] = g.copy()
        else:
            out[k] = np.broadcast_to(g, w.data.shape).astype(np.float64)  # astype copies
    return out


_FD_STEP = 1e-5  # finite_diff_check's central-difference step


def finite_diff_check(f, point) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    ``f`` maps one Var per entry of ``point`` to a scalar Var.  The error
    metric per coordinate is |autodiff - numeric| / max(1, |numeric|); a
    coordinate where either is nan or infinite (say, f is -inf near the
    point) has infinite error.
    """
    point = [np.asarray(p, dtype=np.float64) for p in point]
    with Tape():
        vars_ = [leaf(p) for p in point]
        loss = f(*vars_)
        gs = grad(loss, vars_)

    def value_at(arrays):
        return float(f(*[constant(a) for a in arrays]).data)

    worst = 0.0
    for i, p in enumerate(point):
        flat = p.reshape(-1)
        gflat = gs[i].reshape(-1)
        for j in range(flat.size):
            bumped = [q.copy() for q in point]
            bumped[i].reshape(-1)[j] = flat[j] + _FD_STEP
            fp = value_at(bumped)
            bumped[i].reshape(-1)[j] = flat[j] - _FD_STEP
            fm = value_at(bumped)
            numeric = (fp - fm) / (2.0 * _FD_STEP)
            err = abs(gflat[j] - numeric) / max(1.0, abs(numeric))
            if not np.isfinite(err):
                return np.inf
            worst = max(worst, err)
    return worst
