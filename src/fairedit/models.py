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


class NormalizedAdjacency:
    """Per-edge coefficients of the self-loop-augmented, symmetrically
    normalized adjacency D^-1/2 (A + I) D^-1/2 of a graph, stored as directed
    arrays (each undirected edge appears in both directions). The edge-score
    index and the neighbor-mean coefficients are built on first use, since
    only masked and SAGE forwards read them.

    The unmasked first-layer propagation of the graph's features uses no
    model parameters, so it is also computed on first use and then shared.
    `forward` keeps one adjacency per Graph, in the graph's memo; the
    adjacency keeps the graph's features and edge count, not the graph, so
    the memo makes no reference cycle and a dropped graph is freed at once."""

    def __init__(self, graph: Graph):
        self.features = graph.features
        self.m = len(graph.pairs)
        self.deg = deg = graph.degrees()
        u, v = graph.pairs[:, 0], graph.pairs[:, 1]
        c = 1.0 / np.sqrt((deg[u] + 1.0) * (deg[v] + 1.0))
        self.src = np.concatenate([u, v])
        self.dst = np.concatenate([v, u])
        self.coef = np.concatenate([c, c])
        self.self_coef = 1.0 / (deg + 1.0)
        self._first_layer = {}

    @cached_property
    def score_idx(self) -> np.ndarray:
        return np.concatenate([np.arange(self.m), np.arange(self.m)])

    @cached_property
    def mean_coef(self) -> np.ndarray:
        # neighbor-mean coefficients (no self loop): 1 / deg(dst)
        safe = np.maximum(self.deg, 1)
        return 1.0 / safe[self.dst].astype(np.float64)

    def first_layer(self, architecture: str) -> Tensor:
        """Layer 0 of an unmasked GCN or SAGE model on the graph's features,
        before its weights; computed on first use, then shared."""
        out = self._first_layer.get(architecture)
        if out is None:
            out = _PROPAGATE[architecture](Tensor(self.features), self, {})
            out.values.flags.writeable = False   # no forward may write into it
            self._first_layer[architecture] = out
        return out


SATURATING_SCORE = 50.0
DEFAULT_INIT_SCORE = math.log(0.95 / 0.05)   # sigmoid ~= 0.95


class ScoreMatrix:
    """One learnable score per edge of a host graph. The masked adjacency
    multiplies each edge coefficient by sigmoid(score); `active` carries the
    binarized presence state used during score refinement."""

    def __init__(self, graph: Graph, init_score: float = DEFAULT_INIT_SCORE):
        self.host = graph
        m = len(graph.pairs)
        self.scores = Tensor(np.full((m, 1), float(init_score)),
                             requires_grad=True)
        self.active = np.ones(m, dtype=bool)

    def rebinarize(self, threshold: float) -> None:
        self.active = ad._sigmoid(self.scores.values[:, 0]) > threshold

    def ascend(self, lr: float, threshold: float) -> np.ndarray:
        """One refinement step: move the scores by lr times their gradient
        (zero if no gradient reached them), clear the gradient and
        rebinarize. Returns the gradient used."""
        grad = self.scores.grad if self.scores.grad is not None \
            else np.zeros_like(self.scores.values)
        self.scores.values += lr * grad
        self.scores.zero_grad()
        self.rebinarize(threshold)
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


def _gcn_propagate(h: Tensor, adj: NormalizedAdjacency, mk: dict) -> Tensor:
    return ad.edge_aggregate(h, adj.src, adj.dst, adj.coef,
                             self_coef=adj.self_coef, **mk)


def _sage_propagate(h: Tensor, adj: NormalizedAdjacency, mk: dict) -> Tensor:
    nb = ad.edge_aggregate(h, adj.src, adj.dst, adj.mean_coef,
                           self_coef=None, **mk)
    return ad.concat_cols(h, nb)


_PROPAGATE = {"gcn": _gcn_propagate, "sage": _sage_propagate}


def _message_passing(params: ModelParams, h: Tensor, adj: NormalizedAdjacency,
                     mk: dict, cached: bool) -> Tensor:
    """GCN or SAGE: per layer, propagate, then the weights; layer 0 comes
    from `adj`'s cache when `cached`."""
    propagate = _PROPAGATE[params.architecture]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        if i == 0 and cached:
            h = adj.first_layer(params.architecture)
        else:
            h = propagate(h, adj, mk)
        h = ad.add(ad.matmul(h, w), b)
        if i < last:
            h = ad.relu(h)
    return h


def _appnp(params: ModelParams, h: Tensor, adj: NormalizedAdjacency, mk: dict) -> Tensor:
    # the first op is a matmul with the weights: nothing to precompute
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = ad.add(ad.matmul(h, w), b)
        if i < last:
            h = ad.relu(h)
    z = h0 = h
    for _ in range(params.power_iters):
        prop = ad.edge_aggregate(z, adj.src, adj.dst, adj.coef,
                                 self_coef=adj.self_coef, **mk)
        z = ad.add(ad.scale(prop, 1.0 - params.tau), ad.scale(h0, params.tau))
    return z


def forward(params: ModelParams, graph: Graph,
            mask: ScoreMatrix | None = None) -> Tensor:
    """Logits of the model on `graph`, optionally through an edge-score mask
    of the same graph. The normalized adjacency is built on the graph's first
    forward and kept in its memo, so every later forward on the same Graph
    value reuses it. An unmasked GCN or SAGE forward takes its first-layer
    propagation from the adjacency's cache; a masked one propagates layer 0
    itself. Every call counts one model forward in FORWARD_CALLS."""
    global FORWARD_CALLS
    FORWARD_CALLS += 1
    adj = graph._cached("_adj", lambda: NormalizedAdjacency(graph))
    mk = {}
    if mask is not None:
        if not _same_graph(mask.host, graph):
            raise GraphError("score mask host does not match the forward's graph")
        mk = {"scores": mask.scores, "score_idx": adj.score_idx,
              "active": mask.active[adj.score_idx] if len(adj.score_idx) else None}
    h = Tensor(graph.features)
    if params.architecture == "appnp":
        return _appnp(params, h, adj, mk)
    return _message_passing(params, h, adj, mk, cached=mask is None)


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
