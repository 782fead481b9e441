"""The Sampled candidate policy and the synthetic SBM graph against the
dense all-pairs code they replaced: the same arrays on the same seed, at a
fraction of the time and memory."""
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairedit.graph as graph_mod
from fairedit.graph import (FEATURE_SIGNAL, Graph, GraphError, Sampled,
                            SyntheticSpec, candidate_edits, synth_biased_graph)


def dense_sampled(graph: Graph, policy: Sampled):
    """Oracle: the former sampler. It marks every absent cross-group pair in
    an n x n matrix and draws for all of them at once. Returns (kinds, pairs)
    lexsorted by (u, v)."""
    rng = np.random.default_rng(policy.seed)
    s = graph.sensitive
    # deletes over present intra-group edges, in stored edge order
    p = graph.pairs
    intra = p[s[p[:, 0]] == s[p[:, 1]]]
    dels = intra[rng.random(len(intra)) < policy.gamma]
    # adds over absent cross-group pairs, in the row-major order of the
    # upper triangle
    cross = np.triu(s[:, None] != s[None, :], k=1)
    cross[p[:, 0], p[:, 1]] = False
    uu, vv = np.nonzero(cross)
    take = rng.random(len(uu)) < policy.rho
    adds = np.stack([uu[take], vv[take]], axis=1)
    uv = np.concatenate([dels, adds])
    kinds = np.repeat(np.array([0, 1], dtype=np.int8), [len(dels), len(adds)])
    order = np.lexsort((uv[:, 1], uv[:, 0]))
    return kinds[order], uv[order]


def _assert_same(g: Graph, policy: Sampled):
    batch = candidate_edits(g, policy)
    kinds, pairs = dense_sampled(g, policy)
    for got, want in ((batch.kinds, kinds), (batch.pairs, pairs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


def _build(s, edges):
    s = np.asarray(s, dtype=np.int64)
    return Graph.build(s[:, None].astype(float), edges, s, np.zeros(len(s), int), 0)


@st.composite
def _sampler_graphs(draw):
    """Random graphs, some with one group only (no cross pairs) and some
    with every cross pair present."""
    n = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(["random", "one group", "all cross present"]))
    if shape == "one group":
        s = [draw(st.integers(0, 1))] * n
    else:
        s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(u, v) for (u, v), k in zip(pairs, keep)
             if k or (shape == "all cross present" and s[u] != s[v])]
    return _build(s, edges)


_PROB = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)


@settings(max_examples=300, deadline=None)
@given(g=_sampler_graphs(), rho=_PROB, gamma=_PROB,
       seed=st.integers(0, 2**32 - 1), chunk=st.sampled_from([1, 2, 3, 5, 8, 1 << 16]))
def test_sampler_equals_dense_oracle(g, rho, gamma, seed, chunk):
    # small chunks put chunk boundaries inside rows of the implicit index
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_mod, "SAMPLE_CHUNK", chunk)
        _assert_same(g, Sampled(rho, gamma, seed))


@pytest.mark.parametrize("chunk", [1, 2, 4, 7])
def test_sampler_chunk_boundary_inside_row(monkeypatch, chunk):
    # alternating groups: row 0 holds the cross pairs (0, 1), (0, 3), ...,
    # (0, 11), five of them absent, so a chunk of fewer draws ends inside it
    monkeypatch.setattr(graph_mod, "SAMPLE_CHUNK", chunk)
    g = _build([0, 1] * 6, [(1, 2), (0, 3), (4, 9)])
    for seed in range(5):
        _assert_same(g, Sampled(0.5, 0.5, seed))


@pytest.mark.parametrize("rho,gamma", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (1.0, 0.0)])
def test_sampler_extreme_probabilities(rho, gamma):
    s = [0, 1, 1, 0, 1, 0, 0]
    g = _build(s, [(0, 1), (0, 3), (2, 4), (1, 5), (3, 6)])
    _assert_same(g, Sampled(rho, gamma, 3))
    batch = candidate_edits(g, Sampled(rho, gamma, 3))
    cross = sum(s[u] != s[v] for u in range(7) for v in range(u + 1, 7))
    want_adds = (cross - 2) if rho == 1.0 else 0      # two cross pairs are edges
    want_dels = 3 if gamma == 1.0 else 0
    assert (batch.kinds == 1).sum() == want_adds
    assert (batch.kinds == 0).sum() == want_dels


def _sbm(n, homophily, density, seed):
    """An n-node two-group graph with about density * n / 2 edges, a share
    `homophily` of them intra-group, without materializing all node pairs."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, n)
    groups = [np.flatnonzero(s == 0), np.flatnonzero(s == 1)]
    m = int(density * n / 2)
    u = rng.integers(0, n, m)
    same = rng.random(m) < homophily
    v = np.array([rng.choice(groups[s[a] if keep else 1 - s[a]])
                  for a, keep in zip(u, same)])
    lo, hi = np.minimum(u, v)[u != v], np.maximum(u, v)[u != v]
    keys = np.unique(lo * n + hi)
    return _build(s, np.stack([keys // n, keys % n], axis=1))


def _cost(fn):
    """(wall time, tracemalloc peak) of one call of fn."""
    tracemalloc.start()
    try:
        t = time.perf_counter()
        fn()
        return time.perf_counter() - t, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_time_and_memory_at_n4000():
    g = _sbm(4000, 0.7, 3, seed=0)
    policy = Sampled(0.0075, 0.25, seed=1)
    _assert_same(g, policy)
    # best of 3 each, the two samplers alternating so both see the same load
    new, old = [], []
    for _ in range(3):
        new.append(_cost(lambda: candidate_edits(g, policy)))
        old.append(_cost(lambda: dense_sampled(g, policy)))
    (new_t, new_peak), (old_t, old_peak) = map(min, zip(*new)), map(min, zip(*old))
    assert new_t <= 0.25 * old_t, (new_t, old_t)
    assert new_peak <= 0.25 * old_peak, (new_peak, old_peak)


# ---------------------------------------------------------------------------
# the synthetic SBM graph

def dense_synth_biased_graph(spec: SyntheticSpec) -> Graph:
    """Oracle: the former `synth_biased_graph`. It lists all n(n-1)/2 node
    pairs, splits them into intra- and cross-group lists and draws each
    kind's edges from its list."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    s = np.zeros(n, dtype=np.int64)
    n1 = int(round(spec.groups * n))
    s[rng.permutation(n)[:n1]] = 1
    agree = rng.random(n) < (1.0 + spec.label_bias) / 2.0
    y = np.where(agree, s, 1 - s)
    m = int(round(spec.edge_density * n / 2.0))
    m_intra = int(round(m * spec.homophily))
    m_cross = m - m_intra
    uu, vv = np.triu_indices(n, k=1)
    intra_mask = s[uu] == s[vv]
    intra_pairs = np.flatnonzero(intra_mask)
    cross_pairs = np.flatnonzero(~intra_mask)
    if m_intra > len(intra_pairs) or m_cross > len(cross_pairs):
        raise GraphError("infeasible edge density for this node count")
    pick_i = rng.choice(intra_pairs, size=m_intra, replace=False)
    pick_c = rng.choice(cross_pairs, size=m_cross, replace=False)
    pick = np.concatenate([pick_i, pick_c])
    feats = np.empty((n, 1 + spec.n_features))
    feats[:, 0] = s
    feats[:, 1:] = rng.normal(loc=FEATURE_SIGNAL * y[:, None],
                              size=(n, spec.n_features))
    return Graph.build(feats, np.stack([uu[pick], vv[pick]], axis=1), s, y,
                       sensitive_col=0)


_SYNTH_FIELDS = ("features", "pairs", "sensitive", "labels", "train_mask",
                 "val_mask", "test_mask")


def _synth_outcome(make, spec):
    try:
        return make(spec)
    except GraphError as e:
        return str(e)


@st.composite
def _synth_specs(draw):
    """Specs from tiny to mid-sized, one group only among them, with edge
    densities up to and past what the node count allows."""
    n = draw(st.integers(4, 60))
    unit = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0, 1)
    return SyntheticSpec(n=n, homophily=draw(unit),
                         edge_density=draw(st.floats(0.01, n + 1.0)),
                         label_bias=draw(unit), groups=draw(unit),
                         seed=draw(st.integers(0, 2**32 - 1)),
                         n_features=draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(spec=_synth_specs())
# one group only, so no cross pair to draw from; and no intra edge wanted
@example(spec=SyntheticSpec(n=8, homophily=1.0, edge_density=2, label_bias=0.5,
                            groups=0.0, seed=1))
@example(spec=SyntheticSpec(n=8, homophily=0.0, edge_density=2, label_bias=0.5,
                            groups=0.5, seed=1))
def test_synth_biased_graph_equals_dense_oracle(spec):
    got = _synth_outcome(synth_biased_graph, spec)
    want = _synth_outcome(dense_synth_biased_graph, spec)
    if isinstance(want, str):
        assert got == want
        return
    for name in _SYNTH_FIELDS:
        x, y = getattr(got, name), getattr(want, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name
    assert got.sensitive_col == want.sensitive_col


def test_synth_biased_graph_memory_at_n4000():
    spec = SyntheticSpec(n=4000, homophily=0.7, edge_density=3, label_bias=0.5,
                         seed=2)
    new, old = _cost(lambda: synth_biased_graph(spec)), \
        _cost(lambda: dense_synth_biased_graph(spec))
    assert new[1] <= 0.1 * old[1], (new[1], old[1])
