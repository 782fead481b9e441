"""GCN, GraphSAGE and APPNP forward passes, the sigmoid edge-score mask they
can run through, and one optimizer training step.

`forward` is the one entry point: a pure function of (params, graph[, mask]).
A module-level counter tracks how many model forwards have run, which the
editing algorithms use to assert their per-epoch evaluation budgets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import Graph, GraphError

ARCHITECTURES = ("gcn", "sage", "appnp")

FORWARD_CALLS = 0


def reset_forward_calls() -> int:
    global FORWARD_CALLS
    old = FORWARD_CALLS
    FORWARD_CALLS = 0
    return old


def gcn_edge_coef(deg_u, deg_v):
    """D^-1/2 (A + I) D^-1/2 coefficient of edges with endpoint degrees
    `deg_u`, `deg_v` (elementwise, any shape)."""
    return 1.0 / np.sqrt((deg_u + 1.0) * (deg_v + 1.0))


def gcn_loop_coef(deg):
    """Self-loop coefficient of nodes with degrees `deg`."""
    return 1.0 / (deg + 1.0)


def sage_mean_coef(deg_dst):
    """Neighbour-mean coefficient (no self loop) of edges into nodes with
    degrees `deg_dst`: 1 / deg, with 1 for an isolated node."""
    return 1.0 / np.maximum(deg_dst, 1).astype(np.float64)


def directed_edges(pairs, coef):
    """`src`, `dst` and `coef` of the undirected edges `pairs` (..., m, 2)
    with coefficients `coef` (..., m), each edge in both directions:
    src = [u, v], dst = [v, u], and the coefficient twice."""
    u, v = pairs[..., 0], pairs[..., 1]
    return (np.concatenate([u, v], axis=-1), np.concatenate([v, u], axis=-1),
            np.concatenate([coef, coef], axis=-1))


class NormalizedAdjacency:
    """Per-edge coefficients of the self-loop-augmented, symmetrically
    normalized adjacency D^-1/2 (A + I) D^-1/2 of a graph, stored as
    `directed_edges` arrays (each undirected edge in both directions). The
    edge-score index and the neighbor-mean coefficients are built on first
    use, since only masked and SAGE forwards read them.

    The unmasked first-layer propagation of the graph's features uses no
    model parameters, so it is also computed on first use and then shared.
    `of_arrays` makes an adjacency from arrays built elsewhere with the
    functions above, optionally with its layer 0 given, e.g. one copy of
    `first_layers_patched`.
    `forward` keeps one adjacency per Graph, in the graph's memo; the
    adjacency keeps the graph's features, not the graph, so the memo makes
    no reference cycle and a dropped graph is freed at once.

    An adjacency made from a graph is reused by many forwards and
    backwards, so it also holds an `ad.EdgeIndex` of its directed edges,
    in which the aggregation kernel keeps its flat bins. One made by
    `of_arrays` serves one forward: its `index` is None, and its
    aggregations make no bins to keep."""

    index = None

    def __init__(self, graph: Graph):
        deg = graph.degrees()
        ends = deg[graph.pairs]
        src, dst, coef = directed_edges(
            graph.pairs, gcn_edge_coef(ends[:, 0], ends[:, 1]))
        self._fill(graph.features, deg, src, dst, coef, gcn_loop_coef(deg), {})
        self.index = ad.EdgeIndex(self.src, self.dst)

    @classmethod
    def of_arrays(cls, features, deg, src, dst, coef, self_coef,
                  mean_coef=None, layer0=None) -> "NormalizedAdjacency":
        """The adjacency of a graph with node `features` and degrees `deg`,
        from its `directed_edges` `src`, `dst` and `coef`, its `self_coef`
        and, if known, its `mean_coef`; `layer0`, if given, maps an
        architecture to its read-only first layer (a `Tensor`)."""
        adj = cls.__new__(cls)
        adj._fill(features, deg, src, dst, coef, self_coef, dict(layer0 or {}))
        if mean_coef is not None:
            adj.mean_coef = mean_coef
        return adj

    def _fill(self, features, deg, src, dst, coef, self_coef, first_layer) -> None:
        self.features, self.deg = features, deg
        self.src, self.dst, self.coef, self.self_coef = src, dst, coef, self_coef
        self._first_layer = first_layer

    @cached_property
    def score_idx(self) -> np.ndarray:
        m = len(self.src) // 2
        return np.concatenate([np.arange(m), np.arange(m)])

    @cached_property
    def mean_coef(self) -> np.ndarray:
        return sage_mean_coef(self.deg[self.dst])

    def first_layer(self, architecture: str) -> Tensor:
        """Layer 0 of an unmasked GCN or SAGE model on the graph's features,
        before its weights, read-only; computed on first use (unless
        `of_arrays` was given it), then shared."""
        out = self._first_layer.get(architecture)
        if out is None:
            out = _PROPAGATE[architecture](Tensor(self.features), self, None)
            out.values.flags.writeable = False   # no forward may write into it
            self._first_layer[architecture] = out
        return out


def first_layers_patched(architecture: str, x: np.ndarray, base: np.ndarray,
                         rows: np.ndarray, seg, gather, w,
                         self_coef=None) -> np.ndarray:
    """Layer 0 of c adjacencies on the node features `x` (N, d), as one
    read-only (c, N, ·) array: copy k is `base`, the layer 0 of another
    adjacency on `x`, with the rows marked in `rows` (c, N) recomputed.
    Every unmarked row of copy k must have the same incoming edges in its
    adjacency as in base's, in the same order and with the same
    coefficients. The edges into the marked rows are listed by `seg` (their
    flat row k * N + dst), `gather` (src) and `w` (coefficient: GCN `coef`,
    SAGE `mean_coef`), each copy's edges in its adjacency's edge order;
    `self_coef` (c, N) is GCN's.

    The marked rows' sums are one `ad._segment_sum` over the marked rows
    alone, with bins made for this call. It adds each row's edges in edge
    order, as the full propagation does, so a recomputed row is bitwise
    the full propagation's."""
    c, n = rows.shape
    at = np.flatnonzero(rows)      # the marked rows, flat: k * n + node
    idx = np.searchsorted(at, seg)
    nb = ad._segment_sum(idx, gather, w, x, bins=ad._FlatBins(idx), n=len(at))
    if architecture == "gcn":
        nb = nb + self_coef.ravel()[at, None] * x[at % n]
    out = np.repeat(base[None], c, axis=0)
    # a SAGE layer 0 is the features, then the neighbour means: its marked
    # rows change in the last d columns only
    out.reshape(c * n, -1)[at, out.shape[2] - nb.shape[1]:] = nb
    out.flags.writeable = False
    return out


SATURATING_SCORE = 50.0
DEFAULT_INIT_SCORE = math.log(0.95 / 0.05)   # sigmoid ~= 0.95


class ScoreMatrix:
    """One learnable score per edge of a host graph, each starting at the
    finite `init_score`. The masked adjacency multiplies each edge
    coefficient by sigmoid(score); `active` carries the binarized presence
    state used during score refinement."""

    def __init__(self, graph: Graph, init_score: float = DEFAULT_INIT_SCORE):
        init_score = float(init_score)
        if not math.isfinite(init_score):
            raise GraphError(f"ScoreMatrix: init_score must be finite, "
                             f"got {init_score!r}")
        self.host = graph
        m = len(graph.pairs)
        self.scores = Tensor(np.full((m, 1), init_score), requires_grad=True)
        self.active = np.ones(m, dtype=bool)

    def ascend(self, lr: float, threshold: float) -> np.ndarray:
        """One refinement step: move the scores by lr times their gradient
        (zero if no gradient reached them, as in an APPNP model with no
        propagation step), clear the gradient and binarize again: an edge
        stays active while sigmoid(score) > threshold. Returns the gradient
        used."""
        grad = self.scores.grad if self.scores.grad is not None \
            else np.zeros_like(self.scores.values)
        self.scores.values += lr * grad
        self.scores.zero_grad()
        self.active = ad._sigmoid(self.scores.values[:, 0]) > threshold
        return grad


@dataclass
class ModelParams:
    architecture: str
    weights: list
    biases: list
    tau: float = 0.1          # APPNP teleport probability
    power_iters: int = 10     # APPNP propagation steps

    def parameters(self) -> list:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out


def init_params(architecture: str, in_dim: int, hidden: int, depth: int,
                seed: int, tau: float = 0.1, power_iters: int = 10) -> ModelParams:
    """Glorot-uniform initialization, deterministic under seed."""
    if architecture not in ARCHITECTURES:
        raise GraphError(f"unknown architecture {architecture!r}")
    if depth < 1:
        raise GraphError("depth must be >= 1")
    if hidden < 1:
        raise GraphError("hidden must be >= 1")
    if power_iters < 0:
        raise GraphError("power_iters must be >= 0")
    # tau = 1 is allowed as the no-propagation edge case
    if architecture == "appnp" and not (0.0 < tau <= 1.0):
        raise GraphError("tau must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    dims = [in_dim] + [hidden] * (depth - 1) + [1]
    weights, biases = [], []
    for i in range(depth):
        fan_in = dims[i] * (2 if architecture == "sage" else 1)
        fan_out = dims[i + 1]
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(np.zeros((1, fan_out)), requires_grad=True))
    return ModelParams(architecture, weights, biases, tau, power_iters)


def _same_graph(a: Graph, b: Graph) -> bool:
    return a is b or (a.n == b.n and np.array_equal(a.keys, b.keys))


def _gcn_propagate(h: Tensor, adj: NormalizedAdjacency, gate) -> Tensor:
    return ad.edge_aggregate(h, adj.src, adj.dst, adj.coef,
                             self_coef=adj.self_coef, gate=gate, index=adj.index)


def _sage_propagate(h: Tensor, adj: NormalizedAdjacency, gate) -> Tensor:
    nb = ad.edge_aggregate(h, adj.src, adj.dst, adj.mean_coef,
                           gate=gate, index=adj.index)
    return ad.concat_cols(h, nb)


_PROPAGATE = {"gcn": _gcn_propagate, "sage": _sage_propagate}


def _message_passing(params: ModelParams, h: Tensor, adj: NormalizedAdjacency,
                     gate) -> Tensor:
    """GCN or SAGE: per layer, propagate through `gate` (an `ad.EdgeGate`,
    or None), then the weights; an unmasked layer 0 comes from `adj`'s
    cache."""
    propagate = _PROPAGATE[params.architecture]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if i == 0 and gate is None:
            h = adj.first_layer(params.architecture)
        else:
            h = propagate(h, adj, gate)
        h = ad.add(ad.matmul(h, w), b)
        if i < last:
            h = ad.relu(h)
    return h


def _appnp(params: ModelParams, h: Tensor, adj: NormalizedAdjacency, gate) -> Tensor:
    # the first op is a matmul with the weights: nothing to precompute
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = ad.add(ad.matmul(h, w), b)
        if i < last:
            h = ad.relu(h)
    z = h0 = h
    for _ in range(params.power_iters):
        prop = _gcn_propagate(z, adj, gate)
        z = ad.add(ad.scale(prop, 1.0 - params.tau), ad.scale(h0, params.tau))
    return z


def adjacency(graph: Graph) -> NormalizedAdjacency:
    """The normalized adjacency in `graph`'s memo, built on first use."""
    return graph._cached("_adj", lambda: NormalizedAdjacency(graph))


def forward(params: ModelParams, graph: Graph,
            mask: ScoreMatrix | None = None) -> Tensor:
    """Logits of the model on `graph`, optionally through an edge-score mask
    of the same graph. The normalized adjacency is built on the graph's first
    forward and kept in its memo, so every later forward on the same Graph
    value reuses it. An unmasked GCN or SAGE forward takes its first-layer
    propagation from the adjacency's cache; a masked one propagates layer 0
    itself. A masked forward computes its edge gate (each edge's score
    sigmoid and active flag, an `ad.EdgeGate`) once, for all its layers.
    Every call counts one model forward in FORWARD_CALLS."""
    global FORWARD_CALLS
    FORWARD_CALLS += 1
    adj = adjacency(graph)
    gate = None
    if mask is not None:
        if not _same_graph(mask.host, graph):
            raise GraphError("score mask host does not match the forward's graph")
        gate = ad.EdgeGate(mask.scores, adj.score_idx, mask.active[adj.score_idx])
    h = Tensor(graph.features)
    if params.architecture == "appnp":
        return _appnp(params, h, adj, gate)
    return _message_passing(params, h, adj, gate)


def predict(logits) -> np.ndarray:
    """Label 1 iff logit > 0; an exact zero maps to label 0."""
    vals = logits.values if isinstance(logits, Tensor) else np.asarray(logits)
    return (vals[:, 0] > 0).astype(np.int64)


def train_step(params: ModelParams, graph: Graph, optimizer) -> float:
    """One forward, BCE on training nodes, backward, optimizer step.
    Returns the pre-step loss."""
    if not graph.train_mask.any():
        raise GraphError("train_step: empty training mask")
    logits = forward(params, graph)
    loss = ad.bce_with_logits(logits, graph.labels, graph.train_mask)
    value = loss.item()
    ad.backward(loss)
    optimizer.step(params.parameters())
    return value


def train(params: ModelParams, graph: Graph, optimizer, epochs: int) -> list[float]:
    """Plain training loop: `epochs` optimizer steps, no graph editing."""
    return [train_step(params, graph, optimizer) for _ in range(epochs)]
