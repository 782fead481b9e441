"""Edge-editing training: exhaustive greedy selection by counterfactual
fairness, and gradient-based selection through a sigmoid edge-score mask."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import models
from .graph import (EdgeEdit, EditKind, Exhaustive, Graph, GraphError,
                    Sampled, apply_edit, apply_edits, candidate_edits)
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


# ---------------------------------------------------------------------------
# Brute-force selection

def brute_force_select(params, graph: Graph, candidates, eval_mask):
    """Evaluate counterfactual unfairness of every candidate edit under the
    current parameters; return (edit, score) minimizing it. Ties break by
    (Delete < Add, u, v)."""
    if not candidates:
        raise GraphError("brute_force_select: empty candidate list")
    best = None
    for cand in candidates:
        edited = apply_edit(graph, cand)
        fc = counterfactual_unfairness(params, edited, eval_mask)
        key = (fc, cand.sort_key)
        if best is None or key < best[0]:
            best = (key, cand)
    (score, _), edit = best
    return edit, score


# ---------------------------------------------------------------------------
# Gradient-based (FairEdit) selection

def generate_counterfactual_graph(graph: Graph, rho: float, gamma: float,
                                  seed: int):
    """Sample cross-group additions (prob rho) and intra-group deletions
    (prob gamma); returns the perturbed graph and the applied edit list."""
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

    Returns (importance map, number of model forwards measured in
    models.FORWARD_CALLS while refining)."""
    try:
        expected = apply_edits(graph, edits)
    except GraphError as e:
        raise GraphError(f"edit list inconsistent with graphs: {e}") from e
    if not np.array_equal(expected.keys, gstar.keys):
        raise GraphError("edit list does not map the graph onto its perturbation")
    if not edits:
        return {}, 0

    mask_g = models.ScoreMatrix(graph)
    mask_s = models.ScoreMatrix(gstar)

    # only the masks learn: freeze model parameters for the refinement loop
    tensors = params.parameters()
    flags = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    start = models.FORWARD_CALLS
    try:
        grad_g = np.zeros_like(mask_g.scores.values)
        grad_s = np.zeros_like(mask_s.scores.values)
        for _ in range(mask_iters):
            out_g = models.forward(params, graph, mask=mask_g)
            out_s = models.forward(params, gstar, mask=mask_s)
            ad.backward(ad.l1_diff(out_g, out_s))
            # gradient ascent on the gap, then binarize for the next forward
            grad_g = mask_g.ascend(mask_lr, binarize_threshold)
            grad_s = mask_s.ascend(mask_lr, binarize_threshold)
    finally:
        for t, f in zip(tensors, flags):
            t.requires_grad = f

    # a mask's score rows follow its host graph's edge rows
    uv = np.array([e.endpoints for e in edits], dtype=np.int64)
    add = np.array([e.kind is EditKind.ADD for e in edits])
    importance = np.empty(len(edits))
    importance[add] = np.abs(grad_s[gstar.edge_rows(uv[add, 0], uv[add, 1]), 0])
    importance[~add] = np.abs(grad_g[graph.edge_rows(uv[~add, 0], uv[~add, 1]), 0])
    return dict(zip(edits, importance.tolist())), models.FORWARD_CALLS - start


def select_edit(scores: dict) -> EdgeEdit:
    """Argmax of importance; ties break by (Delete < Add, u, v)."""
    if not scores:
        raise GraphError("select_edit: empty score map")
    return min(scores, key=lambda e: (-scores[e], e.sort_key))


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
            scores, n_fwd = edge_sensitivity_scores(
                params, g, gstar, edits,
                mask_iters=config.mask_iters, mask_lr=config.mask_lr,
                binarize_threshold=config.binarize_threshold)
            edit = select_edit(scores)
            g = apply_edit(g, edit)
            trace.entries.append(TraceEntry(k, edit, scores[edit]))
            trace.selection_forwards[k] = n_fwd
    return params, g, trace
