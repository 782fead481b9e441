"""Fairness-aware GNN training via edge editing."""

from .autodiff import Adam, SGD, Tensor, backward
from .editing import (CandidateCapExceeded, EditTrace, EditTrainConfig,
                      brute_force_select, edge_sensitivity_scores,
                      generate_counterfactual_graph, select_edit,
                      train_bruteforce, train_fairedit)
from .graph import (EdgeEdit, EditBatch, EditKind, Exhaustive, Graph,
                    GraphError, Sampled, SyntheticSpec, apply_edit,
                    apply_edits, candidate_edits, counterfactual_twin,
                    load_edge_list, load_node_table, normalize_features,
                    perturb_features, split, synth_biased_graph, with_split)
from .metrics import (FairnessReport, MetricUndefinedError,
                      counterfactual_unfairness, delta_eo, delta_sp,
                      evaluate, f1_score, instability)
from .models import (ModelParams, NormalizedAdjacency, ScoreMatrix, forward,
                     init_params, predict, train, train_step)

__all__ = [
    # autodiff
    "Adam", "SGD", "Tensor", "backward",
    # editing
    "CandidateCapExceeded", "EditTrace", "EditTrainConfig",
    "brute_force_select", "edge_sensitivity_scores",
    "generate_counterfactual_graph", "select_edit", "train_bruteforce",
    "train_fairedit",
    # graph
    "EdgeEdit", "EditBatch", "EditKind", "Exhaustive", "Graph", "GraphError",
    "Sampled", "SyntheticSpec", "apply_edit", "apply_edits",
    "candidate_edits", "counterfactual_twin", "load_edge_list",
    "load_node_table", "normalize_features", "perturb_features",
    "split", "synth_biased_graph", "with_split",
    # metrics
    "FairnessReport", "MetricUndefinedError", "counterfactual_unfairness",
    "delta_eo", "delta_sp", "evaluate", "f1_score", "instability",
    # models
    "ModelParams", "NormalizedAdjacency", "ScoreMatrix", "forward",
    "init_params", "predict", "train", "train_step",
]
