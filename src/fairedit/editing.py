"""Edge-editing training: exhaustive greedy selection by counterfactual
fairness, and gradient-based selection through a sigmoid edge-score mask."""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models
from .graph import (ADD, EdgeEdit, EditBatch, Exhaustive, Graph, GraphError,
                    Sampled, _at_least, _lookup, apply_edit, apply_edits,
                    candidate_edits, counterfactual_twin)
from .metrics import counterfactual_unfairness


class CandidateCapExceeded(RuntimeError):
    """Exhaustive enumeration refused: the graph is too large."""


@dataclass
class EditTrainConfig:
    alpha: int = 10                 # edit budget: one edit per epoch for the first alpha epochs
    K: int = 1000                   # total training epochs
    rho: float = 0.01               # cross-group add sampling probability
    gamma: float = 0.05             # intra-group delete sampling probability
    mask_iters: int = 5             # score-refinement iterations
    mask_lr: float = 0.01
    binarize_threshold: float = 0.5
    # nodes whose counterfactual unfairness drives brute-force selection:
    # "train" | "val". FairEdit ignores it: its mask loss covers all nodes.
    eval_nodes: str = "train"
    seed: int = 0
    candidate_cap: int = 500        # max node count for exhaustive enumeration

    def validate(self) -> None:
        _at_least(0, self, "alpha", "K", "candidate_cap", "seed")
        _at_least(1, self, "mask_iters")
        if self.alpha > self.K:
            raise GraphError("need 0 <= alpha <= K")
        if not (0.0 <= self.rho <= 1.0 and 0.0 <= self.gamma <= 1.0):
            raise GraphError("rho and gamma must lie in [0, 1]")
        if not (0.0 < self.binarize_threshold < 1.0):
            raise GraphError("binarize_threshold must lie in (0, 1)")
        if not (math.isfinite(self.mask_lr) and self.mask_lr > 0):
            raise GraphError("mask_lr must be positive and finite")
        if self.eval_nodes not in ("train", "val"):
            raise GraphError("eval_nodes must be 'train' or 'val'")


@dataclass
class TraceEntry:
    epoch: int
    edit: EdgeEdit
    score: float


@dataclass
class EditTrace:
    entries: list = field(default_factory=list)
    skipped_epochs: list = field(default_factory=list)
    # measured model-forward counts spent on edit selection, per edit epoch
    selection_forwards: dict = field(default_factory=dict)

    def serialize(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"{e.epoch} {e.edit.kind.value} {e.edit.u} {e.edit.v} "
                         f"{e.score!r}")
        return "\n".join(lines)


def _eval_mask(graph: Graph, config: EditTrainConfig):
    return graph.train_mask if config.eval_nodes == "train" else graph.val_mask


@contextmanager
def _frozen(params):
    """Model parameters marked as needing no gradient inside the block, so
    forwards there record no tape for them; their flags are restored after."""
    tensors = params.parameters()
    flags = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, f in zip(tensors, flags):
            t.requires_grad = f


# ---------------------------------------------------------------------------
# Brute-force selection

# rows of one kind prepared by one vectorized pass of brute_force_select:
# the pass's arrays are O(CANDIDATE_CHUNK * (m + n)); no result depends on it
CANDIDATE_CHUNK = 8


class _EpochTwin:
    """What the candidates of one brute-force epoch share, built once from
    the base graph with no model forward: the base graph's counterfactual
    twin, whose node arrays every candidate's twin reuses, the base degrees,
    and for GCN and SAGE the twin's layer-0 propagation and `near`, an
    n x n boolean matrix of the rows an edit at a node makes stale: the
    node itself, and for GCN its neighbours.

    `prepare` turns edits of one kind, which `brute_force_select` has
    checked before any forward, into candidate graphs with one vectorized
    pass (a kind's candidates all have the same edge count): it finds the
    rows' positions in the base keys, then builds every edited pair array (a
    candidate's `keys` are built from it on first use, as any graph's are),
    of every twin the pairs, degrees, and `models.directed_edges` with their
    coefficients, and for GCN and SAGE the pass's layer 0 as one stacked
    array (`models.first_layers_patched`), the base one with the rows `near`
    u or v recomputed in both halves. An edit changes degrees only at u and
    v. A GCN edge coefficient depends on both endpoints' degrees, so the
    neighbours' rows change too; a SAGE row's coefficient is 1 / its own
    degree, so only the rows of u and v do. Every other row keeps its
    incoming edges, their order and their coefficients, and its base value
    is exact. Each candidate graph views those arrays, with its twin
    attached as `_twin` and the twin's adjacency as `_adj`."""

    def __init__(self, graph: Graph, architecture: str):
        self.graph, self.architecture = graph, architecture
        self.twin = counterfactual_twin(graph)
        n, p = graph.n, graph.pairs
        self.deg = graph.degrees()
        self.layer0 = None
        if architecture != "appnp":   # APPNP starts with a matmul: no layer 0
            self.layer0 = models.adjacency(self.twin).first_layer(architecture).values
            self.near = np.eye(n, dtype=bool)
            if architecture == "gcn":
                self.near[p[:, 0], p[:, 1]] = self.near[p[:, 1], p[:, 0]] = True

    def prepare(self, add: bool, pairs) -> list:
        """Candidate graphs of edits of one kind (`add`) on `pairs`, in row
        order; every row must apply to the base graph."""
        g, twin = self.graph, self.twin
        n, m, c = g.n, len(g.pairs), len(pairs)
        u, v = pairs[:, 0], pairs[:, 1]
        pos = np.searchsorted(g.keys, u * n + v)
        step = 1 if add else -1
        # edge r of candidate i: the base edge r before its edit position,
        # its own pair at it (an add), the base edges shifted after it
        i, r = np.arange(c), np.arange(m + step)
        after = r >= pos[:, None]
        take = r - after if add else r + after
        if add:
            take[i, pos] = m + i
        edges = np.concatenate([g.pairs, pairs]).take(take, axis=0)
        deg = np.repeat(self.deg[None], c, axis=0)
        deg[i, u] += step
        deg[i, v] += step
        # the twin: [E; E + n], both halves with the candidate's degrees;
        # node x of candidate k's twin is flat node off[k] + x
        twin_pairs = np.concatenate([edges, edges + n], axis=1)
        deg = np.concatenate([deg, deg], axis=1)
        off = 2 * n * i[:, None]
        ends = deg.ravel()[twin_pairs + off[:, :, None]]
        src, dst, coef = models.directed_edges(
            twin_pairs, models.gcn_edge_coef(ends[..., 0], ends[..., 1]))
        loop = models.gcn_loop_coef(deg)
        for a in (edges, twin_pairs, src, dst, coef, deg, loop):
            a.flags.writeable = False
        mean = None
        if self.architecture == "sage":
            mean = models.sage_mean_coef(deg.ravel()[dst + off])
            mean.flags.writeable = False
        layer0 = None
        if self.layer0 is not None:
            near = self.near[u] | self.near[v]
            rows = np.concatenate([near, near], axis=1)
            seg = (dst + off).ravel()
            sel = np.flatnonzero(rows.ravel()[seg])
            w = coef if mean is None else mean
            layer0 = models.first_layers_patched(
                self.architecture, twin.features, self.layer0, rows, seg[sel],
                src.ravel()[sel], w.ravel()[sel], loop)

        out = []
        for k in range(c):
            cand = g.replace(pairs=edges[k])
            t = twin.replace(pairs=twin_pairs[k])
            adj = models.NormalizedAdjacency.of_arrays(
                t.features, deg[k], src[k], dst[k], coef[k], loop[k],
                None if mean is None else mean[k],
                None if layer0 is None else {self.architecture: ad.Tensor(layer0[k])})
            t._cached("_adj", lambda: adj)
            cand._cached("_twin", lambda: t)
            out.append(cand)
        return out


def brute_force_select(params, graph: Graph, candidates, eval_mask):
    """Evaluate counterfactual unfairness of every candidate edit (an
    `EditBatch`, or `EdgeEdit`s) under the current parameters; return
    (edit, score) minimizing it. The row is picked by `select_edit` on the
    negated scores, so ties break by (Delete < Add, u, v), and a repeated
    row by its first occurrence.

    The whole batch is checked first: its first bad row is refused before
    any forward, with the message `apply_edits` gives for it. Then the
    deletes are scored, then the adds, each kind in row order and
    CANDIDATE_CHUNK rows of one kind per vectorized pass
    (`_EpochTwin.prepare`). Each candidate comes with its twin attached,
    which shares the base twin's node arrays and whose adjacency and layer
    0 (GCN, SAGE) are built for the whole chunk, bitwise equal to building
    them per candidate. It costs one `counterfactual_unfairness` call and
    with it one counted full-depth forward on its twin; layers >= 1 run in
    full. The parameters are frozen while scoring, so the forwards record
    no autodiff tape."""
    candidates = EditBatch.of(candidates)
    if not candidates:
        raise GraphError("brute_force_select: empty candidate list")
    scores = _scores(params, graph, candidates, eval_mask)
    i = select_edit(candidates, -scores)
    return candidates.edit(i), float(scores[i])


def _scores(params, graph: Graph, batch: EditBatch, eval_mask) -> np.ndarray:
    """The scores of `brute_force_select`, one per row of `batch`; a
    function of its own, so that its batch-wide row indices are freed
    before `select_edit` runs."""
    n, (u, v) = graph.n, batch.pairs.T
    add = batch.kinds == ADD
    bad = (u < 0) | (v >= n) | (_lookup(graph.keys, u * n + v)[1] == add)
    if bad.any():
        i = int(np.argmax(bad))
        apply_edits(graph, EditBatch(batch.kinds[i:i + 1], batch.pairs[i:i + 1]))  # raises
    base = _EpochTwin(graph, params.architecture)
    scores = np.empty(len(batch))
    with _frozen(params):     # scoring runs no backward
        for is_add in (False, True):
            rows = np.flatnonzero(add == is_add)
            for lo in range(0, len(rows), CANDIDATE_CHUNK):
                chunk = rows[lo:lo + CANDIDATE_CHUNK]
                # a comprehension holds no candidate once its chunk is scored,
                # so a chunk is freed before the next one is made
                scores[chunk] = [counterfactual_unfairness(params, cand, eval_mask)
                                 for cand in base.prepare(is_add, batch.pairs[chunk])]
    return scores


# ---------------------------------------------------------------------------
# Gradient-based (FairEdit) selection

def generate_counterfactual_graph(graph: Graph, rho: float, gamma: float,
                                  seed: int):
    """Sample cross-group additions (prob rho) and intra-group deletions
    (prob gamma); returns the perturbed graph and the applied `EditBatch`."""
    edits = candidate_edits(graph, Sampled(rho, gamma, seed))
    return apply_edits(graph, edits), edits


def edge_sensitivity_scores(params, graph: Graph, gstar: Graph, edits,
                            mask_iters: int = 5, mask_lr: float = 0.01,
                            binarize_threshold: float = 0.5):
    """Refine sigmoid edge masks on both graphs to maximize the L1 prediction
    gap between them, then read each edit's importance as the magnitude of the
    last-iteration score gradient: added edges from the perturbed graph's
    mask, deleted edges from the original graph's mask. Each graph's
    forwards share the adjacency in that graph's memo, so a caller that has
    already run `graph` forward pays for no new one.

    `edits` (an `EditBatch`, or `EdgeEdit`s) must map `graph` onto `gstar`;
    this is checked by applying them.

    Returns (importance array aligned with the batch rows, number of model
    forwards measured in models.FORWARD_CALLS while refining)."""
    edits = EditBatch.of(edits)
    try:
        expected = apply_edits(graph, edits)
    except GraphError as e:
        raise GraphError(f"edit list inconsistent with graphs: {e}") from e
    if not np.array_equal(expected.keys, gstar.keys):
        raise GraphError("edit list does not map the graph onto its perturbation")
    if not edits:
        return np.zeros(0), 0

    mask_g = models.ScoreMatrix(graph)
    mask_s = models.ScoreMatrix(gstar)

    start = models.FORWARD_CALLS
    # only the masks learn
    with _frozen(params):
        grad_g = np.zeros_like(mask_g.scores.values)
        grad_s = np.zeros_like(mask_s.scores.values)
        for _ in range(mask_iters):
            out_g = models.forward(params, graph, mask=mask_g)
            out_s = models.forward(params, gstar, mask=mask_s)
            ad.backward(ad.l1_diff(out_g, out_s))
            # gradient ascent on the gap, then binarize for the next forward
            grad_g = mask_g.ascend(mask_lr, binarize_threshold)
            grad_s = mask_s.ascend(mask_lr, binarize_threshold)

    # a mask's score rows follow its host graph's edge rows
    uv, add = edits.pairs, edits.kinds == ADD
    importance = np.empty(len(edits))
    importance[add] = np.abs(grad_s[gstar.edge_rows(uv[add, 0], uv[add, 1]), 0])
    importance[~add] = np.abs(grad_g[graph.edge_rows(uv[~add, 0], uv[~add, 1]), 0])
    return importance, models.FORWARD_CALLS - start


def select_edit(edits: EditBatch, importance: np.ndarray) -> int:
    """Row of `edits` with the largest `importance` (an array aligned with
    its rows); ties break by (Delete < Add, u, v), all in one `np.lexsort`."""
    if not edits:
        raise GraphError("select_edit: empty edit batch")
    uv = edits.pairs
    return int(np.lexsort((uv[:, 1], uv[:, 0], edits.kinds, -importance))[0])


# ---------------------------------------------------------------------------
# Training loops

def train_bruteforce(params, graph: Graph, optimizer, config: EditTrainConfig):
    """Alg.-style loop: one optimizer step per epoch; during the first alpha
    epochs, exhaustively pick and apply the edit minimizing counterfactual
    unfairness under the current parameters."""
    config.validate()
    if config.alpha > 0 and graph.n > config.candidate_cap:
        raise CandidateCapExceeded(
            f"exhaustive enumeration refused for n={graph.n} > "
            f"candidate_cap={config.candidate_cap}")
    trace = EditTrace()
    g = graph
    for k in range(1, config.K + 1):
        start = models.FORWARD_CALLS
        models.train_step(params, g, optimizer)
        if k <= config.alpha:
            cands = candidate_edits(g, Exhaustive())
            edit, score = brute_force_select(params, g, cands, _eval_mask(g, config))
            g = apply_edit(g, edit)
            trace.entries.append(TraceEntry(k, edit, score))
            trace.selection_forwards[k] = models.FORWARD_CALLS - start
    return params, g, trace


def train_fairedit(params, graph: Graph, optimizer, config: EditTrainConfig):
    """Gradient-approximated editing: per edit epoch, sample a counterfactual
    graph, score the sampled edits through the sigmoid mask, and apply the
    highest-importance edit."""
    config.validate()
    trace = EditTrace()
    g = graph
    for k in range(1, config.K + 1):
        models.train_step(params, g, optimizer)
        if k <= config.alpha:
            epoch_seed = config.seed * 1_000_003 + k
            gstar, edits = generate_counterfactual_graph(
                g, config.rho, config.gamma, epoch_seed)
            if not edits:
                trace.skipped_epochs.append(k)
                continue
            importance, n_fwd = edge_sensitivity_scores(
                params, g, gstar, edits,
                mask_iters=config.mask_iters, mask_lr=config.mask_lr,
                binarize_threshold=config.binarize_threshold)
            i = select_edit(edits, importance)
            edit = edits.edit(i)
            g = apply_edit(g, edit)
            trace.entries.append(TraceEntry(k, edit, float(importance[i])))
            trace.selection_forwards[k] = n_fwd
    return params, g, trace
