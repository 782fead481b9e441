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
                    Sampled, apply_edit, apply_edits, apply_pair, candidate_edits,
                    counterfactual_twin, twin_sharing_nodes)
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
        if self.alpha < 0 or self.K < 0 or self.alpha > self.K:
            raise GraphError("need 0 <= alpha <= K")
        if not (0.0 <= self.rho <= 1.0 and 0.0 <= self.gamma <= 1.0):
            raise GraphError("rho and gamma must lie in [0, 1]")
        if not (0.0 < self.binarize_threshold < 1.0):
            raise GraphError("binarize_threshold must lie in (0, 1)")
        if self.mask_iters < 1:
            raise GraphError("mask_iters must be >= 1")
        if not (math.isfinite(self.mask_lr) and self.mask_lr > 0):
            raise GraphError("mask_lr must be positive and finite")
        if self.eval_nodes not in ("train", "val"):
            raise GraphError("eval_nodes must be 'train' or 'val'")
        if self.candidate_cap < 0:
            raise GraphError("candidate_cap must be >= 0")


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

class _EpochTwin:
    """What the candidates of one brute-force epoch share, built once from
    the base graph with no model forward: the base graph's counterfactual
    twin, whose node arrays every candidate's twin reuses, and for GCN and
    SAGE the twin's layer-0 propagation and each node's rows in both halves
    of the twin (the node and its neighbours)."""

    def __init__(self, graph: Graph, architecture: str):
        self.architecture = architecture
        self.twin = counterfactual_twin(graph)
        self.layer0 = None
        if architecture == "appnp":   # no layer-0 cache to patch
            return
        self.layer0 = models.adjacency(self.twin).first_layer(architecture)
        n, p = graph.n, graph.pairs
        node = np.concatenate([p[:, 0], p[:, 1], np.arange(n)])
        rows = np.concatenate([p[:, 1], p[:, 0], np.arange(n)])
        rows = rows[np.argsort(node, kind="stable")]
        ends = np.cumsum(np.bincount(node, minlength=n))[:-1]
        self.rows = [np.concatenate([r, r + n]) for r in np.split(rows, ends)]

    def attach(self, edited: Graph, u: int, v: int) -> None:
        """Attach its counterfactual twin to `edited`, the base graph with
        pair (u, v) added or deleted. An edit changes degrees only at u and
        v, so only the rows of u, v and their neighbours see new coefficients
        or edges; for GCN and SAGE the twin's adjacency gets the base twin's
        layer 0 with just those rows recomputed, in both halves."""
        twin = twin_sharing_nodes(edited, self.twin)
        if self.layer0 is not None:
            models.adjacency(twin).patch_first_layer(
                self.architecture, self.layer0,
                np.concatenate((self.rows[u], self.rows[v])))
        edited._cached("_twin", lambda: twin)


def brute_force_select(params, graph: Graph, candidates, eval_mask):
    """Evaluate counterfactual unfairness of every candidate edit (an
    `EditBatch`, or `EdgeEdit`s) under the current parameters, walking the
    batch rows; return (edit, score) minimizing it. Ties break by
    (Delete < Add, u, v).

    Each candidate costs one `apply_pair`, one `counterfactual_unfairness`
    call and one counted full-depth forward on its twin. The twin comes
    prepared from the epoch's shared state (`_EpochTwin`), attached to the
    candidate graph: it reuses the base twin's node arrays, and its layer 0
    is the base twin's with the edit's rows recomputed, bitwise equal to a
    full recompute; layers >= 1 run in full. The parameters are frozen while
    scoring, so the forwards record no autodiff tape."""
    candidates = EditBatch.of(candidates)
    if not candidates:
        raise GraphError("brute_force_select: empty candidate list")
    base = _EpochTwin(graph, params.architecture)
    best = None
    # flat lists: no Python list per row
    uv = candidates.pairs
    rows = zip(candidates.kinds.tolist(), uv[:, 0].tolist(), uv[:, 1].tolist())
    with _frozen(params):     # scoring runs no backward
        for i, (kind, u, v) in enumerate(rows):
            edited = apply_pair(graph, kind == ADD, u, v)
            base.attach(edited, u, v)
            fc = counterfactual_unfairness(params, edited, eval_mask)
            key = (fc, kind, u, v)
            if best is None or key < best[0]:
                best = (key, i)
    (score, *_), i = best
    return candidates.edit(i), score


# ---------------------------------------------------------------------------
# Gradient-based (FairEdit) selection

def generate_counterfactual_graph(graph: Graph, rho: float, gamma: float,
                                  seed: int):
    """Sample cross-group additions (prob rho) and intra-group deletions
    (prob gamma); returns the perturbed graph and the applied `EditBatch`."""
    edits = candidate_edits(graph, Sampled(rho, gamma, seed))
    gstar = apply_edits(graph, edits)
    if gstar is not graph:
        # gstar is graph under edits by construction (the batch's arrays are
        # read-only): edge_sensitivity_scores need not replay them to check it
        gstar._cached("_edited_from", lambda: (graph, edits))
    return gstar, edits


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
    this is checked by applying them, unless `gstar` is the graph that
    `generate_counterfactual_graph` made from `graph` and this very batch.

    Returns (importance array aligned with the batch rows, number of model
    forwards measured in models.FORWARD_CALLS while refining)."""
    edits = EditBatch.of(edits)
    source = gstar.__dict__.get("_edited_from")
    if source is None or source[0] is not graph or source[1] is not edits:
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
