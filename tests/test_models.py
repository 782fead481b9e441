import gc
import weakref
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairedit.models as models
from fairedit.autodiff import SGD, Adam, Tensor
from fairedit.graph import (EdgeEdit, Graph, GraphError, SyntheticSpec,
                            apply_edit, counterfactual_twin,
                            disjoint_union, flip_sensitive, synth_biased_graph,
                            with_split)
from fairedit.models import (SATURATING_SCORE, NormalizedAdjacency,
                             ScoreMatrix, forward, init_params, predict, train,
                             train_step)

from conftest import random_graph


def _edgeless(n=3, d=4):
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(n, d))
    feats[:, 0] = rng.integers(0, 2, n)
    return Graph.build(feats, [], feats[:, 0].astype(int),
                       np.zeros(n, dtype=int), 0,
                       train_mask=np.ones(n, dtype=bool))


# ---------------------------------------------------------------------------
# adjacency normalization

def test_adjacency_isolated_node_self_coef():
    g = _edgeless(1)
    adj = NormalizedAdjacency(g)
    assert adj.self_coef[0] == 1.0


def test_adjacency_two_connected_nodes():
    g = Graph.build(np.zeros((2, 1)), [(0, 1)], [0, 1], [0, 1], 0)
    adj = NormalizedAdjacency(g)
    # all four entries of D^-1/2 (A+I) D^-1/2 equal 0.5
    assert adj.coef[0] == pytest.approx(0.5)
    np.testing.assert_allclose(adj.self_coef, [0.5, 0.5])


def test_adjacency_path_graph():
    g = Graph.build(np.zeros((3, 1)), [(0, 1), (1, 2)], [0, 1, 0], [0, 1, 0], 0)
    adj = NormalizedAdjacency(g)
    idx = list(map(tuple, g.pairs)).index((0, 1))
    assert adj.coef[idx] == pytest.approx(1.0 / np.sqrt(2 * 3))


# ---------------------------------------------------------------------------
# forwards

def test_gcn_edgeless_is_per_node_mlp():
    g = _edgeless(4, 5)
    p = init_params("gcn", 5, 8, 2, seed=0)
    full = forward(p, g).values
    # dropping a node leaves the others' logits unchanged
    g3 = Graph.build(g.features[:3], [], g.sensitive[:3], g.labels[:3], 0)
    part = forward(p, g3).values
    np.testing.assert_allclose(full[:3], part, atol=1e-12)


def test_zero_weights_zero_logits():
    g = random_graph(6, 0.5, 1)
    for arch in models.ARCHITECTURES:
        p = init_params(arch, g.d, 8, 2, seed=0)
        for w in p.weights:
            w.values[:] = 0.0
        np.testing.assert_array_equal(forward(p, g).values, 0.0)


def _permute_graph(g, perm):
    inv = np.empty(g.n, dtype=int)
    inv[perm] = np.arange(g.n)
    edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges]
    return Graph.build(g.features[inv], edges, g.sensitive[inv], g.labels[inv],
                       g.sensitive_col, g.train_mask[inv], g.val_mask[inv],
                       g.test_mask[inv])


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_permutation_equivariance(arch):
    g = random_graph(10, 0.4, 5)
    p = init_params(arch, g.d, 8, 2, seed=1)
    perm = np.random.default_rng(2).permutation(10)
    out = forward(p, g).values
    out_p = forward(p, _permute_graph(g, perm)).values
    # node u of the original maps to perm[u] of the permuted graph
    assert np.abs(out_p[perm] - out).max() < 1e-9


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_saturated_mask_equals_unmasked(arch):
    g = random_graph(9, 0.4, 7)
    p = init_params(arch, g.d, 8, 2, seed=3)
    mask = ScoreMatrix(g, init_score=SATURATING_SCORE)
    plain = forward(p, g).values
    masked = forward(p, g, mask=mask).values
    assert np.abs(plain - masked).max() < 1e-6


def test_mask_host_mismatch():
    g = random_graph(6, 0.5, 0)
    other = random_graph(6, 0.5, 99)
    p = init_params("gcn", g.d, 8, 2, seed=0)
    mask = ScoreMatrix(other)
    with pytest.raises(GraphError, match="host"):
        forward(p, g, mask=mask)


def test_sage_isolated_node_self_only():
    g = Graph.build(np.random.default_rng(0).normal(size=(3, 2)),
                    [(0, 1)], [0, 1, 0], [0, 1, 0], 0)
    p = init_params("sage", 2, 4, 2, seed=0)
    out = forward(p, g).values
    # node 2 is isolated: its logit equals a 1-node graph's logit
    g1 = Graph.build(g.features[2:3], [], g.sensitive[2:3], g.labels[2:3], 0)
    np.testing.assert_allclose(out[2], forward(p, g1).values[0], atol=1e-12)


def test_appnp_tau_one_is_mlp():
    g = random_graph(6, 0.5, 3)
    p = init_params("appnp", g.d, 8, 2, seed=0, tau=1.0)
    p0 = init_params("appnp", g.d, 8, 2, seed=0, tau=1.0, power_iters=0)
    np.testing.assert_allclose(forward(p, g).values, forward(p0, g).values,
                               atol=1e-12)


def test_appnp_edgeless_fixed_point():
    g = _edgeless(5, 3)
    p = init_params("appnp", 3, 8, 2, seed=0, tau=0.3, power_iters=7)
    p0 = init_params("appnp", 3, 8, 2, seed=0, tau=0.3, power_iters=0)
    np.testing.assert_allclose(forward(p, g).values, forward(p0, g).values,
                               atol=1e-10)


def test_appnp_geometric_convergence():
    g = random_graph(12, 0.5, 8)
    tau = 0.2
    prev_gap = None
    z_prev = None
    for T in range(1, 8):
        p = init_params("appnp", g.d, 8, 2, seed=0, tau=tau, power_iters=T)
        z = forward(p, g).values
        if z_prev is not None:
            gap = np.abs(z - z_prev).max()
            if prev_gap is not None and prev_gap > 1e-14:
                assert gap <= (1 - tau) * prev_gap + 1e-12
            prev_gap = gap
        z_prev = z


# ---------------------------------------------------------------------------
# the counterfactual twin: a graph and its sensitive-flipped copy side by side

def _twin_case(n, edges, s, feats, labels, where, col):
    """A graph with `feats` as its non-sensitive columns and the sensitive
    attribute inserted at column `col`; `where` puts each node in no split
    (0) or in train/val/test (1/2/3)."""
    feats = np.insert(np.asarray(feats, dtype=float).reshape(n, -1), col,
                      s, axis=1)
    where = np.asarray(where)
    return Graph.build(feats, edges, s, labels, col, train_mask=where == 1,
                       val_mask=where == 2, test_mask=where == 3)


@st.composite
def _twin_graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return _twin_case(
        n, [p for p, k in zip(all_pairs, keep) if k], draw(bits),
        draw(st.lists(st.floats(-10, 10), min_size=2 * n, max_size=2 * n)),
        draw(bits), draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
        draw(st.integers(0, 2)))


_GRAPH_FIELDS = ("features", "pairs", "keys", "sensitive", "labels",
                 "train_mask", "val_mask", "test_mask")


@settings(max_examples=60, deadline=None)
@given(g=_twin_graphs(), depth=st.integers(1, 3))
# no edges at all; and node 3 isolated beside a path
@example(g=_twin_case(4, [], [0, 1, 1, 0], np.arange(8.0), [0, 1, 0, 1],
                      [1, 2, 3, 0], 0), depth=2)
@example(g=_twin_case(4, [(0, 1), (1, 2)], [1, 0, 1, 1], -np.arange(8.0),
                      [1, 1, 0, 0], [1, 1, 2, 3], 2), depth=2)
def test_counterfactual_twin_equals_union_of_flipped(g, depth):
    got, want = counterfactual_twin(g), disjoint_union(g, flip_sensitive(g))
    for name in _GRAPH_FIELDS:
        x, y = getattr(got, name), getattr(want, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
    assert got.sensitive_col == want.sensitive_col
    assert not got.pairs.flags.writeable
    for arch in models.ARCHITECTURES:
        p = init_params(arch, g.d, 4, depth, seed=depth)
        logits = forward(p, got).values
        assert np.isfinite(logits).all(), arch
        assert logits.tobytes() == forward(p, want).values.tobytes(), arch
        # each half is the model on its own graph
        np.testing.assert_allclose(logits[:g.n], forward(p, g).values,
                                   rtol=1e-12, atol=1e-12, err_msg=arch)
        np.testing.assert_allclose(logits[g.n:], forward(p, flip_sensitive(g)).values,
                                   rtol=1e-12, atol=1e-12, err_msg=arch)


# ---------------------------------------------------------------------------
# prediction and training

def test_predict_threshold():
    np.testing.assert_array_equal(predict(np.array([[-1.0], [0.0], [2.0]])),
                                  [0, 0, 1])


def test_predict_sign_flip_symmetry():
    logits = np.array([[-1.0], [3.0], [0.5]])
    a, b = predict(logits), predict(-logits)
    assert all(a[i] != b[i] for i in range(3))


def test_train_step_zero_lr_keeps_params():
    g = random_graph(8, 0.4, 1)
    p = init_params("gcn", g.d, 8, 2, seed=0)
    before = [w.values.copy() for w in p.parameters()]
    train_step(p, g, SGD(1e-30))  # effectively zero
    for b, w in zip(before, p.parameters()):
        np.testing.assert_allclose(w.values, b, atol=1e-25)


def test_train_drives_loss_down():
    spec = SyntheticSpec(n=10, homophily=0.5, edge_density=2, label_bias=0.0,
                         seed=4)
    g = synth_biased_graph(spec)
    g = g.replace(train_mask=np.ones(10, dtype=bool))
    p = init_params("gcn", g.d, 16, 2, seed=0)
    losses = train(p, g, Adam(0.05), 200)
    assert losses[-1] < 0.1


def test_train_deterministic_trajectory():
    g = random_graph(10, 0.4, 2)
    runs = []
    for _ in range(2):
        p = init_params("gcn", g.d, 8, 2, seed=5)
        train(p, g, Adam(0.01), 10)
        runs.append([w.values.copy() for w in p.parameters()])
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a, b)


def test_train_step_empty_mask():
    g = random_graph(6, 0.4, 0).replace(train_mask=np.zeros(6, dtype=bool))
    p = init_params("gcn", g.d, 8, 2, seed=0)
    with pytest.raises(GraphError, match="empty training mask"):
        train_step(p, g, SGD(0.1))


def test_forward_counter_increments():
    g = random_graph(5, 0.4, 0)
    p = init_params("gcn", g.d, 4, 2, seed=0)
    models.reset_forward_calls()
    forward(p, g)
    forward(p, g)
    assert models.FORWARD_CALLS == 2
    models.reset_forward_calls()


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
@pytest.mark.parametrize("kw, msg", [
    ({"hidden": 0}, "hidden"),
    ({"hidden": -3, "depth": 1}, "hidden"),
    ({"power_iters": -1}, "power_iters"),
])
def test_init_params_rejects_bad_sizes(arch, kw, msg):
    args = {"hidden": 4, "depth": 2, **kw}
    with pytest.raises(GraphError, match=msg):
        init_params(arch, 3, seed=0, **args)


# ---------------------------------------------------------------------------
# the adjacency memo and its cached first-layer propagation

def _trainable(g):
    tr = g.train_mask.copy()
    tr[0] = True
    return g.replace(train_mask=tr)


def _memo(g):
    """The adjacency a forward left in `g`'s memo, or None."""
    return g.__dict__.get("_adj")


@contextmanager
def _adjacency_builds():
    """Collects one entry per NormalizedAdjacency built inside the block."""
    built, init = [], NormalizedAdjacency.__init__

    def counting(self, graph):
        built.append(len(built))
        init(self, graph)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NormalizedAdjacency, "__init__", counting)
        yield built


@contextmanager
def _uncached_first_layer():
    """Every forward inside the block propagates layer 0 itself."""
    def propagate(adj, architecture):
        return models._PROPAGATE[architecture](Tensor(adj.features), adj, {})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NormalizedAdjacency, "first_layer", propagate)
        yield


_CACHE_EXAMPLES = (
    # no edges at all; and node 3 isolated beside a path
    _twin_case(4, [], [0, 1, 1, 0], np.arange(8.0), [0, 1, 0, 1], [1, 2, 3, 0], 0),
    _twin_case(4, [(0, 1), (1, 2)], [1, 0, 1, 1], -np.arange(8.0), [1, 1, 0, 0],
               [1, 1, 2, 3], 2),
)


def _cache_case(test):
    test = settings(max_examples=40, deadline=None)(test)
    for g in _CACHE_EXAMPLES:
        for arch in models.ARCHITECTURES:
            test = example(g=g, arch=arch, depth=2)(test)
    return given(g=_twin_graphs(), arch=st.sampled_from(models.ARCHITECTURES),
                 depth=st.integers(1, 3))(test)


def _param_bytes(p):
    return [t.values.tobytes() for t in p.parameters()]


@_cache_case
def test_train_with_one_adjacency_equals_fresh_adjacency_steps(g, arch, depth):
    g, epochs = _trainable(g), 3
    shared = init_params(arch, g.d, 4, depth, seed=depth)
    with _adjacency_builds() as built:
        train(shared, g, Adam(0.05), epochs)
    assert len(built) == 1
    # a new Graph value per step: a new adjacency and a cold layer 0 each time
    fresh = init_params(arch, g.d, 4, depth, seed=depth)
    opt = Adam(0.05)
    for _ in range(epochs):
        train_step(fresh, g.replace(features=g.features.copy()), opt)
    uncached = init_params(arch, g.d, 4, depth, seed=depth)
    with _uncached_first_layer():
        train(uncached, g, Adam(0.05), epochs)
    assert _param_bytes(shared) == _param_bytes(fresh) == _param_bytes(uncached)


@_cache_case
def test_warm_adjacency_logits_equal_cold(g, arch, depth):
    g = g.replace()     # the explicit examples are shared: start with no memo
    p = init_params(arch, g.d, 4, depth, seed=depth)
    with _adjacency_builds() as built:
        cold = forward(p, g).values
        warm = forward(p, g).values
    assert len(built) == 1
    copy = forward(p, g.replace(features=g.features.copy())).values
    with _uncached_first_layer():
        uncached = forward(p, g).values
    assert cold.tobytes() == warm.tobytes() == copy.tobytes() == uncached.tobytes()
    if arch != "appnp":
        cached = _memo(g).first_layer(arch)
        assert cached is _memo(g).first_layer(arch)
        assert not cached.requires_grad and not cached.values.flags.writeable


def test_derived_graphs_start_without_adjacency():
    g = random_graph(9, 0.4, 7)
    p = init_params("gcn", g.d, 8, 2, seed=3)
    forward(p, g)
    assert _memo(g) is not None
    u, v = map(int, g.pairs[0])
    derived = {
        "replace": g.replace(),
        "replace(features)": g.replace(features=g.features + 1.0),
        "apply_edit delete": apply_edit(g, EdgeEdit.delete(u, v)),
        "apply_edit add": apply_edit(g, EdgeEdit.add(*next(
            (a, b) for a in range(g.n) for b in range(a + 1, g.n)
            if (a, b) not in g.edge_set))),
        "counterfactual_twin": counterfactual_twin(g),
    }
    for name, h in derived.items():
        assert _memo(h) is None, name
        rebuilt = Graph.build(h.features, h.pairs, h.sensitive, h.labels,
                              h.sensitive_col, h.train_mask, h.val_mask, h.test_mask)
        assert forward(p, h).values.tobytes() == forward(p, rebuilt).values.tobytes(), name


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_masked_forward_skips_cache(arch, monkeypatch):
    g = random_graph(9, 0.4, 7)
    p = init_params(arch, g.d, 8, 2, seed=3)
    mask = ScoreMatrix(g)
    mask.scores.values[::2] = -2.0
    with _uncached_first_layer():
        want = forward(p, g, mask=mask).values
    forward(p, g)       # warms the layer-0 cache of gcn and sage

    def refuse(adj, architecture):
        raise AssertionError("a masked forward took the layer-0 cache")
    monkeypatch.setattr(NormalizedAdjacency, "first_layer", refuse)
    assert forward(p, g, mask=mask).values.tobytes() == want.tobytes()
    assert forward(p, g.replace(), mask=mask).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_forwarded_graph_is_freed_without_gc(arch):
    # the memo holds the adjacency; were the adjacency to refer back to the
    # graph, every dropped graph would wait for a full garbage collection
    g = _trainable(random_graph(9, 0.4, 7))
    p = init_params(arch, g.d, 8, 2, seed=3)
    enabled = gc.isenabled()
    gc.disable()
    try:
        forward(p, g)
        forward(p, g, mask=ScoreMatrix(g))
        train(p, g, SGD(0.1), 2)
        assert _memo(g) is not None
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
