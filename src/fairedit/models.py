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
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .graph import Graph, GraphError, _at_least

ARCHITECTURES = ("gcn", "sage", "appnp")

FORWARD_CALLS = 0


def reset_forward_calls() -> int:
    global FORWARD_CALLS
    old = FORWARD_CALLS
    FORWARD_CALLS = 0
    return old


def edge_coefficients(pairs, deg):
    """The adjacency arrays of c graphs of N nodes at once, from their
    undirected edges `pairs` (c, m, 2) and degrees `deg` (c, N): `src`,
    `dst` and `coef` (c, 2m), each edge in both directions (src = [u, v],
    dst = [v, u], the coefficient twice), and `self_coef` (c, N), of
    D^-1/2 (A + I) D^-1/2: 1 / sqrt((deg_u + 1)(deg_v + 1)) per edge and
    1 / (deg + 1) per self loop."""
    ends = deg.ravel()[pairs + _flat_offsets(deg)[..., None]]
    coef = 1.0 / np.sqrt((ends[..., 0] + 1.0) * (ends[..., 1] + 1.0))
    u, v = pairs[..., 0], pairs[..., 1]
    return (np.concatenate([u, v], axis=-1), np.concatenate([v, u], axis=-1),
            np.concatenate([coef, coef], axis=-1), 1.0 / (deg + 1.0))


def mean_coefficients(dst, deg):
    """SAGE's neighbour-mean coefficient (no self loop) of each edge into
    `dst` (c, E) of graphs with degrees `deg` (c, N): 1 / the degree of the
    edge's target, 1 for an isolated node."""
    return 1.0 / np.maximum(deg.ravel()[dst + _flat_offsets(deg)], 1).astype(np.float64)


def _flat_offsets(deg):
    """k * N for each graph k of degrees `deg` (c, N), as a (c, 1) column:
    node x of graph k is flat node k * N + x."""
    c, n = deg.shape
    return n * np.arange(c)[:, None]


class NormalizedAdjacency:
    """Per-edge coefficients of the self-loop-augmented, symmetrically
    normalized adjacency D^-1/2 (A + I) D^-1/2 of a graph, stored as the
    `edge_coefficients` arrays of a batch of one. The edge-score index and
    the neighbor-mean coefficients are built on first use, since only
    masked and SAGE forwards read them.

    The unmasked first-layer propagation of the graph's features uses no
    model parameters, so it is also computed on first use and then shared.
    `forward` keeps one adjacency per Graph, in the graph's memo; the
    adjacency keeps the graph's features, not the graph, so the memo makes
    no reference cycle and a dropped graph is freed at once.

    An adjacency made from a graph is reused by many forwards and
    backwards, so it also holds an `ad.EdgeIndex` of its directed edges,
    in which the aggregation kernel keeps its flat bins. One made by
    `CandidateAdjacencies` serves one forward: its `index` is None, and
    its aggregations make no bins to keep."""

    index = None

    def __init__(self, graph: Graph):
        deg = graph.degrees()
        src, dst, coef, loop = edge_coefficients(graph.pairs[None], deg[None])
        self._fill(graph.features, deg, src[0], dst[0], coef[0], loop[0], {})
        self.index = ad.EdgeIndex(self.src, self.dst)

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
        return mean_coefficients(self.dst[None], self.deg[None])[0]

    def first_layer(self, architecture: str) -> Tensor:
        """Layer 0 of an unmasked GCN or SAGE model on the graph's features,
        before its weights, read-only; computed on first use (unless given
        at construction), then shared."""
        out = self._first_layer.get(architecture)
        if out is None:
            out = _PROPAGATE[architecture](Tensor(self.features), self, None)
            out.values.flags.writeable = False   # no forward may write into it
            self._first_layer[architecture] = out
        return out


class CandidateAdjacencies:
    """The adjacencies of the counterfactual twins of one brute-force
    epoch's candidates (`graph` with one edge added or deleted), a chunk at
    a time, from what the epoch shares: the base `twin`'s features and, for
    GCN and SAGE, its layer 0 and `near`, an n x n boolean matrix of the
    rows an edit at a node makes stale: the node itself, and for GCN its
    neighbours. An edit changes degrees only at u and v. A GCN edge
    coefficient depends on both endpoints' degrees, so the neighbours' rows
    change too; a SAGE row's coefficient is 1 / its own degree, so only the
    rows of u and v do. Every other row keeps its incoming edges, their
    order and their coefficients, and its base value is exact."""

    def __init__(self, graph: Graph, twin: Graph, architecture: str):
        self.architecture, self.features = architecture, twin.features
        self.layer0 = None
        if architecture != "appnp":   # APPNP starts with a matmul: no layer 0
            self.layer0 = adjacency(twin).first_layer(architecture).values
            p = graph.pairs
            self.near = np.eye(graph.n, dtype=bool)
            if architecture == "gcn":
                self.near[p[:, 0], p[:, 1]] = self.near[p[:, 1], p[:, 0]] = True

    def chunk(self, pairs, deg, u, v) -> list:
        """The adjacencies of c candidate twins with edges `pairs` (c, m, 2)
        and degrees `deg` (c, 2n), candidate k's edit being at (u[k], v[k])
        of the base graph. Each serves one forward, so it holds no
        `EdgeIndex`. For GCN and SAGE their layer 0 is one read-only
        (c, 2n, ·) array: the base twin's, with the rows `near` u or v
        recomputed in both halves by one `ad._segment_sum` over those rows
        alone, with bins made for this call. It adds each row's edges in
        edge order, as the full propagation does, so every row is bitwise
        the full propagation's."""
        src, dst, coef, loop = edge_coefficients(pairs, deg)
        mean = mean_coefficients(dst, deg) if self.architecture == "sage" else None
        for a in (src, dst, coef, loop, mean):
            if a is not None:
                a.flags.writeable = False
        c, n = deg.shape
        layer0 = None
        if self.layer0 is not None:
            x, near = self.features, self.near[u] | self.near[v]
            rows = np.concatenate([near, near], axis=1)
            at = np.flatnonzero(rows)       # the stale rows, flat: k * n + node
            seg = (dst + _flat_offsets(deg)).ravel()
            sel = np.flatnonzero(rows.ravel()[seg])
            idx = np.searchsorted(at, seg[sel])
            w = coef if mean is None else mean
            nb = ad._segment_sum(idx, src.ravel()[sel], w.ravel()[sel], x,
                                 bins=ad._FlatBins(idx), n=len(at))
            if self.architecture == "gcn":
                nb = nb + loop.ravel()[at, None] * x[at % n]
            layer0 = np.repeat(self.layer0[None], c, axis=0)
            # a SAGE layer 0 is the features, then the neighbour means: its
            # stale rows change in the last d columns only
            layer0.reshape(c * n, -1)[at, layer0.shape[2] - nb.shape[1]:] = nb
            layer0.flags.writeable = False
        adjs = []
        for k in range(c):
            adj = NormalizedAdjacency.__new__(NormalizedAdjacency)
            adj._fill(self.features, deg[k], src[k], dst[k], coef[k], loop[k],
                      {} if layer0 is None else {self.architecture: Tensor(layer0[k])})
            if mean is not None:
                adj.mean_coef = mean[k]
            adjs.append(adj)
        return adjs


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
        """One refinement step: move the scores by lr times their gradient,
        which a backward must have reached, clear the gradient and binarize
        again: an edge stays active while sigmoid(score) > threshold.
        Returns the gradient used."""
        grad = self.scores.grad
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
    sizes = SimpleNamespace(depth=depth, hidden=hidden, power_iters=power_iters,
                            seed=seed)
    _at_least(1, sizes, "depth", "hidden")
    _at_least(0, sizes, "power_iters", "seed")
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
    _at_least(0, SimpleNamespace(epochs=epochs), "epochs")
    return [train_step(params, graph, optimizer) for _ in range(epochs)]
