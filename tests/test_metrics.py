import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairedit.autodiff import Tensor
from fairedit.graph import Graph, GraphError
from fairedit.metrics import (FairnessReport, MetricUndefinedError,
                              counterfactual_unfairness, delta_eo, delta_sp,
                              evaluate, f1_score, instability)
from fairedit.models import ModelParams, init_params

from conftest import flip_sensitive, random_graph

ALL = np.ones(4, dtype=bool)


# ---------------------------------------------------------------------------
# f1

def test_f1_perfect():
    assert f1_score([1, 0, 1], [1, 0, 1], np.ones(3, dtype=bool)) == 1.0


def test_f1_fixture():
    # TP=2, FP=1, FN=1 -> 2 / (2 + 1)
    pred = np.array([1, 1, 1, 0, 0])
    truth = np.array([1, 1, 0, 1, 0])
    assert f1_score(pred, truth, np.ones(5, dtype=bool)) == pytest.approx(2 / 3, abs=1e-15)


def test_f1_all_wrong():
    assert f1_score([1, 0], [0, 1], np.ones(2, dtype=bool)) == 0.0


def test_f1_degenerate_all_negative():
    assert f1_score([0, 0], [0, 0], np.ones(2, dtype=bool)) == 0.0


def test_f1_empty_mask():
    with pytest.raises(MetricUndefinedError):
        f1_score([1], [1], np.array([False]))


def _confusion_oracle_f1(pred, truth):
    # independent confusion-matrix implementation
    tp = fp = fn = 0
    for p, t in zip(pred, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 1 and t == 0:
            fp += 1
        elif p == 0 and t == 1:
            fn += 1
    if tp == 0 and fp + fn == 0:
        return 0.0
    prec = tp / (tp + fp) if tp + fp else 0.0
    rec = tp / (tp + fn) if tp + fn else 0.0
    if prec + rec == 0:
        return 0.0
    return 2 * prec * rec / (prec + rec)


def test_f1_matches_confusion_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = rng.integers(2, 30)
        pred = rng.integers(0, 2, n)
        truth = rng.integers(0, 2, n)
        mine = f1_score(pred, truth, np.ones(n, dtype=bool))
        assert mine == pytest.approx(_confusion_oracle_f1(pred, truth), abs=1e-12)


# ---------------------------------------------------------------------------
# group gaps

def test_delta_sp_fixture():
    s = np.array([0, 0, 1, 1])
    pred = np.array([1, 0, 1, 1])
    assert delta_sp(pred, s, ALL) == pytest.approx(0.5, abs=1e-15)


def test_delta_sp_identical_rates():
    assert delta_sp([1, 0, 1, 0], [0, 0, 1, 1], ALL) == 0.0


def test_delta_sp_all_positive():
    assert delta_sp([1, 1, 1, 1], [0, 0, 1, 1], ALL) == 0.0


def test_delta_sp_empty_group():
    with pytest.raises(MetricUndefinedError):
        delta_sp([1, 0], [0, 0], np.ones(2, dtype=bool))


def test_delta_eo_fixture():
    s = np.array([0, 0, 1, 1])
    y = np.array([1, 1, 1, 1])
    pred = np.array([1, 0, 1, 1])
    assert delta_eo(pred, y, s, ALL) == pytest.approx(0.5, abs=1e-15)


def test_delta_eo_perfect_classifier():
    y = np.array([1, 0, 1, 0])
    assert delta_eo(y, y, [0, 0, 1, 1], ALL) == 0.0


def test_delta_eo_no_positives_in_group():
    with pytest.raises(MetricUndefinedError):
        delta_eo([1, 1], [1, 0], [1, 0], np.ones(2, dtype=bool))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_group_gaps_symmetric_under_relabel(seed):
    rng = np.random.default_rng(seed)
    n = 10
    pred = rng.integers(0, 2, n)
    s = np.array([0] * 5 + [1] * 5)
    y = np.concatenate([[1], rng.integers(0, 2, n - 2), [1]])
    y[:5][0] = 1
    y[5:][-1] = 1
    mask = np.ones(n, dtype=bool)
    assert delta_sp(pred, s, mask) == pytest.approx(delta_sp(pred, 1 - s, mask), abs=1e-15)
    assert delta_eo(pred, y, s, mask) == pytest.approx(delta_eo(pred, y, 1 - s, mask), abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_metrics_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    n = 12
    pred = rng.integers(0, 2, n)
    truth = rng.integers(0, 2, n)
    s = rng.integers(0, 2, n)
    mask = np.ones(n, dtype=bool)
    perm = rng.permutation(n)
    assert f1_score(pred, truth, mask) == f1_score(pred[perm], truth[perm], mask)


# ---------------------------------------------------------------------------
# model-dependent metrics

def _linear_model(weight_rows, arch="gcn"):
    """Depth-1 GCN whose single weight column is given explicitly."""
    w = Tensor(np.array(weight_rows, dtype=float).reshape(-1, 1),
               requires_grad=True)
    b = Tensor(np.zeros((1, 1)), requires_grad=True)
    return ModelParams(arch, [w], [b])


def test_counterfactual_zero_when_sensitive_ignored():
    g = random_graph(8, 0.4, 1, d_extra=2)
    params = _linear_model([0.0, 1.0, -0.5])  # zero weight on sensitive col
    assert counterfactual_unfairness(params, g, np.ones(8, dtype=bool)) == 0.0


def test_counterfactual_single_node_boundary_cross():
    # one isolated node, logit = 2*s - 1: flips sign when s flips
    g = Graph.build(np.array([[1.0]]), [], [1], [1], 0)
    params = _linear_model([2.0])
    b = params.biases[0]
    b.values[0, 0] = -1.0
    assert counterfactual_unfairness(params, g, np.ones(1, dtype=bool)) == 1.0


def test_counterfactual_symmetric_in_flip():
    g = random_graph(10, 0.4, 3)
    params = init_params("gcn", g.d, 8, 2, seed=0)
    mask = np.ones(10, dtype=bool)
    a = counterfactual_unfairness(params, g, mask)
    b = counterfactual_unfairness(params, flip_sensitive(g), mask)
    assert a == b


def test_counterfactual_empty_mask():
    g = random_graph(5, 0.4, 0)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    with pytest.raises(MetricUndefinedError):
        counterfactual_unfairness(params, g, np.zeros(5, dtype=bool))


@pytest.mark.parametrize("fill", [False, True], ids=["all-false", "all-true"])
@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), (1, 5), ()])
@pytest.mark.parametrize("metric", [counterfactual_unfairness, instability],
                         ids=lambda f: f.__name__)
def test_mask_not_one_per_node_is_refused_before_emptiness(metric, shape, fill):
    # the shape is checked first: an all-False mask of the wrong length is a
    # wrong mask, not an empty one
    g = random_graph(5, 0.4, 0)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    want = rf"{metric.__name__}: mask shape \({', '.join(map(str, shape))}" \
           rf"{',' if len(shape) == 1 else ''}\), want \(5,\)"
    with pytest.raises(ValueError, match=want) as info:
        metric(params, g, np.full(shape, fill))
    assert not isinstance(info.value, MetricUndefinedError)


_PRED = np.array([1, 0, 1, 1, 0])
_LABEL_METRICS = {
    "f1_score": lambda mask: f1_score(_PRED, [1, 1, 0, 1, 0], mask),
    "delta_sp": lambda mask: delta_sp(_PRED, [1, 0, 1, 0, 1], mask),
    "delta_eo": lambda mask: delta_eo(_PRED, [1, 1, 0, 1, 1], [1, 0, 1, 0, 1], mask),
}


@pytest.mark.parametrize("fill", [False, True], ids=["all-false", "all-true"])
@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), (1, 5), ()])
@pytest.mark.parametrize("metric", sorted(_LABEL_METRICS))
def test_label_metric_mask_not_one_per_prediction_is_refused(metric, shape, fill):
    # as for the graph metrics: a wrong-length mask is refused by its shape,
    # before its emptiness, in _node_mask's wording
    want = rf"^{metric}: mask shape \({', '.join(map(str, shape))}" \
           rf"{',' if len(shape) == 1 else ''}\), want \(5,\)$"
    with pytest.raises(ValueError, match=want) as info:
        _LABEL_METRICS[metric](np.full(shape, fill))
    assert not isinstance(info.value, MetricUndefinedError)


_LABEL_ARRAYS = {
    ("f1_score", "truth"): lambda a: f1_score(_PRED, a, np.ones(5, bool)),
    ("delta_sp", "sensitive"): lambda a: delta_sp(_PRED, a, np.ones(5, bool)),
    ("delta_eo", "truth"): lambda a: delta_eo(_PRED, a, [1, 0, 1, 0, 1],
                                              np.ones(5, bool)),
    ("delta_eo", "sensitive"): lambda a: delta_eo(_PRED, [1, 1, 0, 1, 1], a,
                                                  np.ones(5, bool)),
}


@pytest.mark.parametrize("length", [4, 6])
@pytest.mark.parametrize("metric, name", sorted(_LABEL_ARRAYS))
def test_label_metric_array_not_one_per_prediction_is_refused(metric, name, length):
    # a short truth or sensitive array would end in a bare IndexError
    want = rf"^{metric}: {name} shape \({length},\), want \(5,\)$"
    with pytest.raises(ValueError, match=want) as info:
        _LABEL_ARRAYS[metric, name]([1, 0] * 3 if length == 6 else [1, 0, 1, 0])
    assert not isinstance(info.value, MetricUndefinedError)


def test_instability_empty_mask():
    g = random_graph(5, 0.4, 0)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    with pytest.raises(MetricUndefinedError, match="instability: empty mask"):
        instability(params, g, np.zeros(5, dtype=bool))


def test_instability_sigma_zero():
    g = random_graph(8, 0.4, 2)
    params = init_params("gcn", g.d, 8, 2, seed=0)
    assert instability(params, g, np.ones(8, dtype=bool), sigma=0.0) == 0.0


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_instability_non_finite_sigma(sigma):
    g = random_graph(8, 0.4, 0)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    with pytest.raises(GraphError, match="sigma"):
        instability(params, g, np.ones(8, dtype=bool), sigma=sigma)


def test_instability_deterministic():
    g = random_graph(8, 0.4, 2)
    params = init_params("gcn", g.d, 8, 2, seed=1)
    mask = np.ones(8, dtype=bool)
    assert instability(params, g, mask, 0.5, seed=3) == \
        instability(params, g, mask, 0.5, seed=3)


def test_instability_monotone_in_sigma():
    # large noise flips more predictions than tiny noise (10-seed median)
    from fairedit.graph import SyntheticSpec, synth_biased_graph, with_split
    from fairedit.autodiff import Adam
    from fairedit.models import train
    g = with_split(synth_biased_graph(
        SyntheticSpec(n=80, homophily=0.6, edge_density=4, label_bias=0.5,
                      seed=0)), seed=0)
    params = init_params("gcn", g.d, 16, 2, seed=0)
    train(params, g, Adam(0.01), 100)
    mask = np.ones(80, dtype=bool)
    small = np.median([instability(params, g, mask, 0.01, seed=s) for s in range(10)])
    large = np.median([instability(params, g, mask, 10.0, seed=s) for s in range(10)])
    assert large > small


# ---------------------------------------------------------------------------
# report assembly

def _four_node_fixture():
    # hand-built: logit = 2*s - 1 on isolated nodes
    feats = np.array([[0.0], [0.0], [1.0], [1.0]])
    g = Graph.build(feats, [], [0, 0, 1, 1], [1, 1, 1, 1], 0,
                    test_mask=np.ones(4, dtype=bool))
    params = _linear_model([2.0])
    params.biases[0].values[0, 0] = -1.0
    return g, params


def test_evaluate_fixture_values():
    g, params = _four_node_fixture()
    rep = evaluate(params, g, sigma=0.0, seed=0)
    # preds = s: delta_sp = |1 - 0| = 1; all labels 1 so delta_eo = 1
    assert rep.delta_sp == 1.0
    assert rep.delta_eo == 1.0
    assert rep.unfairness == 1.0      # every prediction flips with s
    assert rep.instability == 0.0     # sigma = 0
    assert rep.f1 == pytest.approx(2 * 2 / (2 * 2 + 2), abs=1e-15)  # TP=2, FN=2


def test_evaluate_ranges_and_determinism():
    g = random_graph(30, 0.3, 5)
    g = g.replace(test_mask=~g.train_mask)
    params = init_params("sage", g.d, 8, 2, seed=0)
    a = evaluate(params, g, seed=7)
    b = evaluate(params, g, seed=7)
    for v in a.row():
        assert 0.0 <= v <= 1.0
    assert a.row() == b.row()


def test_report_roundtrip():
    rep = FairnessReport(0.5, 0.1, 0.2, 0.3, 0.4, {"seed": 1})
    d = rep.to_dict()
    assert d["f1"] == 0.5 and d["metadata"]["seed"] == 1
