"""Predictive and fairness evaluation: F1, counterfactual unfairness,
instability, statistical parity gap and equal opportunity gap."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models
from .graph import Graph, counterfactual_twin, perturb_features


class MetricUndefinedError(ValueError):
    """A group-conditional probability has an empty conditioning set."""


def _checked(metric: str, name: str, arr, n: int, dtype=None) -> np.ndarray:
    """`arr` (named `name`) as an array, of `dtype` if given; refused
    (ValueError) unless it has shape (n,)."""
    arr = np.asarray(arr, dtype=dtype)
    if arr.shape != (n,):
        raise ValueError(f"{metric}: {name} shape {arr.shape}, want ({n},)")
    return arr


def f1_score(pred, truth, mask) -> float:
    """TP / (TP + (FP + FN) / 2); 0 when there are no positives anywhere."""
    mask = _checked("f1_score", "mask", mask, len(pred), bool)
    truth = _checked("f1_score", "truth", truth, len(pred))
    if not mask.any():
        raise MetricUndefinedError("f1_score: empty mask")
    p = np.asarray(pred)[mask]
    t = truth[mask]
    tp = float(np.sum((p == 1) & (t == 1)))
    fp = float(np.sum((p == 1) & (t == 0)))
    fn = float(np.sum((p == 0) & (t == 1)))
    denom = tp + (fp + fn) / 2.0
    if denom == 0.0:
        return 0.0
    return tp / denom


def delta_sp(pred, sensitive, mask) -> float:
    """|Pr(pred=1 | s=1) - Pr(pred=1 | s=0)| over masked nodes."""
    mask = _checked("delta_sp", "mask", mask, len(pred), bool)
    s = _checked("delta_sp", "sensitive", sensitive, len(pred))[mask]
    p = np.asarray(pred)[mask]
    g1, g0 = p[s == 1], p[s == 0]
    if len(g1) == 0 or len(g0) == 0:
        raise MetricUndefinedError("delta_sp: a sensitive group is empty in the mask")
    return abs(float(np.mean(g1 == 1)) - float(np.mean(g0 == 1)))


def delta_eo(pred, truth, sensitive, mask) -> float:
    """|Pr(pred=1 | y=1, s=1) - Pr(pred=1 | y=1, s=0)| over masked nodes."""
    mask = _checked("delta_eo", "mask", mask, len(pred), bool)
    t = _checked("delta_eo", "truth", truth, len(pred))[mask]
    s = _checked("delta_eo", "sensitive", sensitive, len(pred))[mask]
    p = np.asarray(pred)[mask]
    g1 = p[(s == 1) & (t == 1)]
    g0 = p[(s == 0) & (t == 1)]
    if len(g1) == 0 or len(g0) == 0:
        raise MetricUndefinedError(
            "delta_eo: a sensitive group has no positive-class nodes in the mask")
    return abs(float(np.mean(g1 == 1)) - float(np.mean(g0 == 1)))


def _node_mask(metric: str, graph: Graph, mask):
    """(`mask` as a boolean array, its count of True); refused (ValueError)
    unless it has one entry per node of `graph`, then (MetricUndefinedError)
    if it is empty."""
    mask = _checked(metric, "mask", mask, graph.n, bool)
    count = np.count_nonzero(mask)
    if not count:
        raise MetricUndefinedError(f"{metric}: empty mask")
    return mask, count


def counterfactual_unfairness(params, graph: Graph, mask) -> float:
    """Fraction of masked nodes whose predicted label changes when every
    node's sensitive attribute is flipped.

    Runs the model once on the disjoint union of the graph and its flipped
    twin, so each evaluation costs a single forward pass."""
    mask, count = _node_mask("counterfactual_unfairness", graph, mask)
    n = graph.n
    pred = models.predict(models.forward(params, counterfactual_twin(graph)))
    # the mean of the changed labels: an exact count over an exact count
    return float(np.count_nonzero((pred[:n] != pred[n:]) & mask) / count)


def instability(params, graph: Graph, mask, sigma: float = 0.1,
                seed: int = 0) -> float:
    """Fraction of masked nodes whose predicted label changes under Gaussian
    feature noise of std sigma."""
    mask, _ = _node_mask("instability", graph, mask)
    base = models.predict(models.forward(params, graph))
    return _flip_share(params, graph, mask, base, sigma, seed)


def _flip_share(params, graph: Graph, mask, base, sigma: float, seed: int) -> float:
    """Fraction of masked nodes whose label `base` changes under Gaussian
    feature noise of std sigma: one forward on the noisy graph."""
    noisy = models.predict(models.forward(params, perturb_features(graph, sigma, seed)))
    return float(np.mean(base[mask] != noisy[mask]))


@dataclass
class FairnessReport:
    f1: float
    unfairness: float
    instability: float
    delta_sp: float
    delta_eo: float
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "f1": self.f1,
            "unfairness": self.unfairness,
            "instability": self.instability,
            "delta_sp": self.delta_sp,
            "delta_eo": self.delta_eo,
            "metadata": dict(self.metadata),
        }

    def row(self) -> list[float]:
        return [self.f1, self.unfairness, self.instability,
                self.delta_sp, self.delta_eo]


def evaluate(params, graph: Graph, sigma: float = 0.1, seed: int = 0,
             metadata: dict | None = None) -> FairnessReport:
    """All five metrics on the test mask. One forward on `graph` itself
    serves F1, instability and both fairness gaps."""
    mask = graph.test_mask
    pred = models.predict(models.forward(params, graph))
    report = FairnessReport(
        f1=f1_score(pred, graph.labels, mask),
        unfairness=counterfactual_unfairness(params, graph, mask),
        instability=_flip_share(params, graph, mask, pred, sigma, seed),
        delta_sp=delta_sp(pred, graph.sensitive, mask),
        delta_eo=delta_eo(pred, graph.labels, graph.sensitive, mask),
        metadata={"seed": seed, "sigma": sigma, "nodes": "test",
                  "n_eval": int(mask.sum())},
    )
    if metadata:
        report.metadata.update(metadata)
    return report
