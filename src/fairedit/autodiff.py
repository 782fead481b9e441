"""Minimal reverse-mode automatic differentiation over dense float64 matrices.

Each Tensor records its parents plus a closure that maps the output adjoint to
parent adjoints. `backward` walks the tape in reverse topological order and
accumulates gradients into the leaf tensors that require them. A parent with
requires_grad=False is a constant leaf, so ops compute no gradient for it
(None in its slot). The op set is
exactly what the GNN models and the edge-mask scoring need; no broadcasting
beyond the row-bias case. The engine knows nothing about graphs: edge
aggregation takes plain index and coefficient arrays.
"""
from __future__ import annotations

import math

import numpy as np


_FLOAT64 = np.dtype(np.float64)


class AutodiffError(ValueError):
    pass


class Tensor:
    def __init__(self, values, requires_grad=False, parents=(), backward_fn=None):
        v = values
        # every op's output is already a 2-D float64 ndarray: kept as it is
        if type(v) is not np.ndarray or v.dtype is not _FLOAT64 or v.ndim != 2:
            v = np.asarray(values, dtype=np.float64)
            if v.ndim == 0:
                v = v.reshape(1, 1)
            elif v.ndim == 1:
                v = v[:, None]
            elif v.ndim != 2:
                raise AutodiffError("tensors are 2-D matrices")
        self.values = v
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(parents)
        self._backward_fn = backward_fn

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.shape != (1, 1):
            raise AutodiffError("item() needs a scalar tensor")
        return float(self.values[0, 0])

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.values)
        self.grad += g


def _op(values, parents, backward_fn):
    for p in parents:
        if p.requires_grad:
            return Tensor(values, True, parents, backward_fn)
    return Tensor(values)


def backward(loss: Tensor) -> None:
    """Accumulate dloss/dt into t.grad for every requires_grad leaf t (a
    tensor no op produced) reachable from `loss`; intermediate tensors keep
    grad None. Repeated calls without clearing add up."""
    if loss.shape != (1, 1):
        raise AutodiffError("backward requires a scalar loss")
    topo, seen = [], set()
    stack = [(loss, False)]
    while stack:
        t, done = stack.pop()
        if done:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        for p in t._parents:
            if p.requires_grad:
                stack.append((p, False))
    adj = {id(loss): np.ones((1, 1))}
    for t in reversed(topo):
        g = adj.pop(id(t), None)
        if g is None:
            continue
        if t._backward_fn is None:
            if t.requires_grad:
                t._accumulate(g)
            continue
        for p, pg in zip(t._parents, t._backward_fn(g)):
            if pg is None or not p.requires_grad:
                continue
            if id(p) in adj:
                adj[id(p)] = adj[id(p)] + pg
            else:
                adj[id(p)] = pg


# ---------------------------------------------------------------------------
# Elementwise / linear algebra ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise AutodiffError(f"matmul shape mismatch {a.shape} x {b.shape}")
    out = a.values @ b.values

    def back(g):
        return (g @ b.values.T if a.requires_grad else None,
                a.values.T @ g if b.requires_grad else None)
    return _op(out, (a, b), back)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; b may be a (1, k) row bias broadcast over rows of a."""
    if a.shape == b.shape:
        def back(g):
            return (g, g)
    elif b.shape == (1, a.shape[1]):
        def back(g):
            return (g, g.sum(axis=0, keepdims=True) if b.requires_grad else None)
    else:
        raise AutodiffError(f"add shape mismatch {a.shape} + {b.shape}")
    return _op(a.values + b.values, (a, b), back)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise AutodiffError(f"sub shape mismatch {a.shape} - {b.shape}")

    def back(g):
        return (g, -g)
    return _op(a.values - b.values, (a, b), back)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise AutodiffError(f"mul shape mismatch {a.shape} * {b.shape}")

    def back(g):
        return (g * b.values, g * a.values)
    return _op(a.values * b.values, (a, b), back)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def back(g):
        return (g * c,)
    return _op(a.values * c, (a,), back)


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[0] != b.shape[0]:
        raise AutodiffError(f"concat_cols row mismatch {a.shape} | {b.shape}")
    k = a.shape[1]

    def back(g):
        return (g[:, :k], g[:, k:])
    return _op(np.hstack([a.values, b.values]), (a, b), back)


def row_mean(a: Tensor) -> Tensor:
    n = a.shape[0]

    def back(g):
        return (np.repeat(g, n, axis=0) / n,)
    return _op(a.values.mean(axis=0, keepdims=True), (a,), back)


def sum_all(a: Tensor) -> Tensor:
    def back(g):
        return (np.full_like(a.values, g[0, 0]),)
    return _op(np.array([[a.values.sum()]]), (a,), back)


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 taken as 0; fmax maps NaN to 0.0, and + 0.0 turns
    # -0.0 into +0.0, as np.where(x > 0, x, 0.0) would
    values = a.values

    def back(g):
        return (g * (values > 0),)
    return _op(np.fmax(values, 0.0) + 0.0, (a,), back)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) below: never
    # exp of a positive number, so nothing overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid(a.values)

    def back(g):
        return (g * s * (1.0 - s),)
    return _op(s, (a,), back)


# ---------------------------------------------------------------------------
# Losses

def bce_with_logits(logits: Tensor, targets, node_mask) -> Tensor:
    """Mean binary cross-entropy over masked nodes, in the stable
    max(z,0) - z*y + log(1 + exp(-|z|)) form."""
    node_mask = np.asarray(node_mask, dtype=bool)
    m = int(np.count_nonzero(node_mask))
    if m == 0:
        raise AutodiffError("bce_with_logits: empty node mask")
    if logits.shape[1] != 1:
        raise AutodiffError("bce_with_logits expects n x 1 logits")
    z = logits.values[node_mask, 0]
    y = np.asarray(targets, dtype=np.float64)[node_mask]
    loss = np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z))))

    def back(g):
        dz = (_sigmoid(z) - y) * (g[0, 0] / m)
        full = np.zeros_like(logits.values)
        full[node_mask, 0] = dz
        return (full,)
    return _op(np.array([[loss]]), (logits,), back)


def l1_diff(a: Tensor, b: Tensor) -> Tensor:
    """Sum of absolute differences; subgradient 0 at exact ties."""
    if a.shape != b.shape:
        raise AutodiffError(f"l1_diff shape mismatch {a.shape} vs {b.shape}")
    diff = a.values - b.values
    sign = np.sign(diff)

    def back(g):
        return (g[0, 0] * sign, -g[0, 0] * sign)
    return _op(np.array([[np.abs(diff).sum()]]), (a, b), back)


# ---------------------------------------------------------------------------
# Sparse aggregation

# most terms one np.bincount of `_segment_sum` adds up: past it, the columns
# go one bincount each; no result depends on it
SEGMENT_TERMS = 1 << 15


class _FlatBins(dict):
    """Flat (edge, column) bins of the segment ids `idx`, per column count,
    made on first use: edge e's term in column j of k goes to bin
    idx_e * k + j, edge by edge."""

    def __init__(self, idx):
        super().__init__()
        self.idx = idx

    def __missing__(self, width):
        out = self[width] = (self.idx[:, None] * width + np.arange(width)).ravel()
        return out


class EdgeIndex:
    """The directed edges src -> dst that many `edge_aggregate` calls share
    (an adjacency reused across forwards). It keeps the flat bins of
    `_segment_sum` per side, dst for the forward and src for the backward,
    and per column count, each made by the first call that needs it."""

    def __init__(self, src, dst):
        self.dst_bins = _FlatBins(np.asarray(dst, dtype=np.int64))
        self.src_bins = _FlatBins(np.asarray(src, dtype=np.int64))


class EdgeGate:
    """The factor sigmoid(scores[score_idx]) of each directed edge, zeroed
    where `active` is False, that a masked `edge_aggregate` multiplies into
    its coefficients. One gate serves every layer of a forward; its scores
    get the gradient."""

    def __init__(self, scores: Tensor, score_idx, active=None):
        self.scores = scores
        self.score_idx = np.asarray(score_idx, dtype=np.int64)
        self.sig = _sigmoid(scores.values[:, 0]).take(self.score_idx)
        self.act = None if active is None else np.asarray(active, dtype=np.float64)


def _segment_sum(idx, gather, w, x: np.ndarray, rows=None, bins=None,
                 n=None) -> np.ndarray:
    """out[i, j] = sum of w_e * x[gather_e, j] over edges e with idx_e = i,
    for i < n (default x's row count).

    With `bins`, a `_FlatBins` of idx, and k > 1 columns over E > 0 edges
    with k * E <= SEGMENT_TERMS, it is one bincount over the flat
    (edge, column) bins idx_e * k + j laid out edge by edge, so every bin
    adds its terms in edge order and the result is bitwise that of a
    sequential scatter-add of w_e * x[gather_e] into zeros. The rows
    x[gather] are gathered once (or taken from `rows`, which is not
    written to) and weighted in one (E, k) array. (With no terms,
    np.bincount returns int64, hence E > 0.)

    Otherwise it is one bincount per column of a transposed copy of x:
    contiguous gathers and no (E, k) temporary, which costs less for one
    call, or for many edges."""
    n = x.shape[0] if n is None else n
    k = x.shape[1]
    if bins is None or not len(idx) or k < 2 or k * len(idx) > SEGMENT_TERMS:
        xt = np.ascontiguousarray(x.T)
        out = np.empty((n, k))
        for j in range(k):
            out[:, j] = np.bincount(idx, weights=w * xt[j][gather], minlength=n)
        return out
    if rows is None:
        terms = x.take(gather, axis=0)
        terms *= w[:, None]
    else:
        terms = w[:, None] * rows
    return np.bincount(bins[k], weights=terms.ravel(),
                       minlength=n * k).reshape(n, k)


def edge_aggregate(h: Tensor, src, dst, coef, self_coef=None,
                   scores: Tensor | None = None, score_idx=None,
                   active=None, gate: EdgeGate | None = None,
                   index: EdgeIndex | None = None) -> Tensor:
    """out[v] = sum over directed edges e with dst_e = v of
    coef_e * w_e * h[src_e], plus self_coef[v] * h[v] when self loops are used.
    w_e = sigmoid(scores[score_idx_e]) when a score mask is attached, further
    zeroed where active_e is False; `gate`, an `EdgeGate`, attaches one
    computed beforehand instead. `index`, an `EdgeIndex` of these src and
    dst, lends the segment sums its memoized bins. Gradients flow into h and
    into the scores, each only when it requires one.

    The forward gathers h's rows by src once and keeps them when the score
    gradient needs them; the backward gathers the upstream gradient's rows
    by dst once for both the h and the score gradient."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    coef = np.asarray(coef, dtype=np.float64)
    if gate is None and scores is not None:
        gate = EdgeGate(scores, score_idx, active)
    w = coef
    if gate is not None:
        w = coef * gate.sig
        if gate.act is not None:
            w = w * gate.act
    score_grad = gate is not None and gate.scores.requires_grad
    hs = h.values.take(src, axis=0) if score_grad else None
    out = _segment_sum(dst, src, w, h.values, hs,
                       None if index is None else index.dst_bins)
    if self_coef is not None:
        out = out + np.asarray(self_coef)[:, None] * h.values

    parents = (h,) if gate is None else (h, gate.scores)

    def back(g):
        gh = gs = None
        gd = g.take(dst, axis=0) if score_grad else None
        if h.requires_grad:
            gh = _segment_sum(src, dst, w, g, gd,
                              None if index is None else index.src_bins)
            if self_coef is not None:
                gh += np.asarray(self_coef)[:, None] * g
        if score_grad:
            ds = np.einsum("ek,ek->e", gd, hs) * coef
            if gate.act is not None:
                ds = ds * gate.act
            ds = ds * gate.sig * (1.0 - gate.sig)
            gs = np.bincount(gate.score_idx, weights=ds,
                             minlength=gate.scores.shape[0]).astype(np.float64, copy=False)[:, None]
        return (gh,) if gate is None else (gh, gs)
    return _op(out, parents, back)


# ---------------------------------------------------------------------------
# Optimizers

def _learning_rate(value) -> float:
    lr = float(value)
    if not (math.isfinite(lr) and lr > 0):
        raise AutodiffError("learning_rate must be positive and finite")
    return lr


class SGD:
    def __init__(self, learning_rate: float):
        self.learning_rate = _learning_rate(learning_rate)

    def step(self, params) -> None:
        for p in params:
            if p.grad is not None:
                p.values -= self.learning_rate * p.grad
                p.grad = None


class Adam:
    def __init__(self, learning_rate: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.learning_rate = _learning_rate(learning_rate)
        # beta = 1 would divide the bias correction by zero
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise AutodiffError("beta1 and beta2 must lie in [0, 1)")
        if not (math.isfinite(eps) and eps > 0):
            raise AutodiffError("eps must be positive and finite")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self._state: dict[int, dict] = {}

    def step(self, params) -> None:
        for p in params:
            if p.grad is None:
                continue
            st = self._state.get(id(p))
            if st is None:
                st = {"ref": p, "m": np.zeros_like(p.values),
                      "v": np.zeros_like(p.values), "t": 0}
                self._state[id(p)] = st
            st["t"] += 1
            st["m"] = self.beta1 * st["m"] + (1 - self.beta1) * p.grad
            st["v"] = self.beta2 * st["v"] + (1 - self.beta2) * p.grad ** 2
            mhat = st["m"] / (1 - self.beta1 ** st["t"])
            vhat = st["v"] / (1 - self.beta2 ** st["t"])
            p.values -= self.learning_rate * mhat / (np.sqrt(vhat) + self.eps)
            p.grad = None
