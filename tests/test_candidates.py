"""Brute-force candidates against the path they replaced: each candidate's
counterfactual twin stacked from scratch and run through a full forward.
`brute_force_select` now prepares the candidate graphs a chunk of rows of one
edit kind at a time, each with a twin that shares the epoch's node arrays,
whose adjacency is built for the whole chunk and whose layer 0 has only the
edit's rows recomputed; every array, logit and selection must stay bitwise the
same."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairedit.autodiff as ad
import fairedit.editing as editing
from fairedit import models
from fairedit.graph import (ADD, EdgeEdit, EditKind, Exhaustive, Graph,
                            GraphError, SyntheticSpec, candidate_edits,
                            counterfactual_twin, synth_biased_graph,
                            with_split)
from fairedit.autodiff import Adam
from fairedit.metrics import counterfactual_unfairness
from fairedit.models import NormalizedAdjacency, forward, init_params, predict

from conftest import apply_pair

_NODE_FIELDS = ("features", "sensitive", "labels", "train_mask", "val_mask",
                "test_mask")


def oracle_twin(graph: Graph) -> Graph:
    """The twin as it was built for every candidate: both halves stacked
    anew, the second with its sensitive attribute flipped."""
    n, col = graph.n, graph.sensitive_col
    feats = np.concatenate([graph.features, graph.features])
    feats[n:, col] = 1 - feats[n:, col]
    pairs = np.concatenate([graph.pairs, graph.pairs + n])
    pairs.flags.writeable = False
    return Graph(feats, pairs,
                 np.concatenate([graph.sensitive, 1 - graph.sensitive]),
                 np.concatenate([graph.labels, graph.labels]), col,
                 np.concatenate([graph.train_mask, graph.train_mask]),
                 np.concatenate([graph.val_mask, graph.val_mask]),
                 np.concatenate([graph.test_mask, graph.test_mask]))


def oracle_select(params, graph: Graph, mask):
    """(edit, score) of the former loop: every candidate's oracle twin,
    a full forward on it, the mean of the changed labels."""
    best = None
    batch = candidate_edits(graph, Exhaustive())
    for i, (kind, (u, v)) in enumerate(zip(batch.kinds.tolist(), batch.pairs.tolist())):
        edited = apply_pair(graph, kind == ADD, u, v)
        pred = predict(forward(params, oracle_twin(edited)))
        n = graph.n
        key = (float(np.mean(pred[:n][mask] != pred[n:][mask])), kind, u, v)
        if best is None or key < best[0]:
            best = (key, i)
    (score, *_), i = best
    return batch.edit(i), score


def _case(n, edges, s, feats, where):
    """An n-node graph with sensitive bits `s` in column 0 before `feats`;
    `where` puts each node in no split (0) or in train/val/test (1/2/3)."""
    s, where = np.asarray(s), np.asarray(where)
    x = np.column_stack([s, np.asarray(feats, dtype=float).reshape(n, -1)])
    return Graph.build(x, edges, s, 1 - s, 0, train_mask=where == 1,
                       val_mask=where == 2, test_mask=where == 3)


@st.composite
def _graphs(draw, max_n=8):
    """Sparse, mixed and near-complete graphs; sparse ones have isolated
    nodes, and deleting a leaf's only edge isolates it."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep_below = draw(st.sampled_from([2, 5, 9]))     # of 10: sparse .. near-complete
    rolls = draw(st.lists(st.integers(0, 9), min_size=len(pairs), max_size=len(pairs)))
    where = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    where[0] = 1                                      # a non-empty train mask
    d = draw(st.integers(1, 3))
    return _case(n, [p for p, r in zip(pairs, rolls) if r < keep_below],
                 draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
                 draw(st.lists(st.floats(-10, 10), min_size=n * d, max_size=n * d)),
                 where)


def _x(n, d=2):
    return np.sin(np.arange(n * d, dtype=float) * 1.7)


_CORNERS = {
    # nodes 2..4 isolated: adds between two degree-0 endpoints
    "isolated": _case(5, [(0, 1)], [0, 1, 1, 0, 1], _x(5), [1, 2, 1, 3, 1]),
    # deleting any edge of the star isolates its leaf
    "star": _case(5, [(0, 1), (0, 2), (0, 3), (0, 4)], [1, 0, 1, 0, 0], _x(5),
                  [1, 1, 1, 2, 3]),
    # every pair but (2, 4) is an edge
    "near-complete": _case(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                               if (u, v) != (2, 4)],
                           [0, 1, 0, 1, 1, 0], _x(6), [1, 1, 2, 3, 1, 0]),
    "empty": _case(4, [], [0, 1, 1, 0], _x(4), [1, 1, 1, 1]),
}


def _corner_examples(test):
    for g in _CORNERS.values():
        for arch in models.ARCHITECTURES:
            for chunk in (1, 3, editing.CANDIDATE_CHUNK):
                test = example(g=g, arch=arch, depth=2, seed=1, chunk=chunk)(test)
    return test


def _bytes_equal(x, y, what):
    assert (x.dtype, x.shape) == (y.dtype, y.shape), what
    assert x.tobytes() == y.tobytes(), what


@settings(max_examples=120, deadline=None)
@given(g=_graphs(), arch=st.sampled_from(models.ARCHITECTURES),
       depth=st.integers(1, 3), seed=st.integers(0, 2**16),
       chunk=st.sampled_from([1, 2, 3, 5, editing.CANDIDATE_CHUNK]))
@_corner_examples
def test_every_candidate_equals_full_twin_forward(g, arch, depth, seed, chunk):
    # small chunks end inside runs of adds and of deletes, and mix the two
    params = init_params(arch, g.d, 4, depth, seed=seed)
    if seed % 2:     # lean on the sensitive column, so that edits change labels
        params.weights[0].values[g.sensitive_col] += 3.0
    mask = g.train_mask
    seen = []
    score = editing.counterfactual_unfairness

    def spy(params, edited, mask):
        twin = counterfactual_twin(edited)
        out = score(params, edited, mask)
        seen.append((edited, twin, forward(params, twin).values))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(editing, "counterfactual_unfairness", spy)
        mp.setattr(editing, "CANDIDATE_CHUNK", chunk)
        got = editing.brute_force_select(params, g, candidate_edits(g, Exhaustive()), mask)

    batch = candidate_edits(g, Exhaustive())
    assert len(seen) == len(batch)
    # scoring order: the deletes, then the adds, each kind in row order
    order = np.argsort(batch.kinds, kind="stable")
    for (edited, twin, logits), kind, (u, v) in zip(seen, batch.kinds[order].tolist(),
                                                    batch.pairs[order].tolist()):
        what = f"{arch} depth {depth}, {'add' if kind == ADD else 'delete'} ({u}, {v})"
        # the twin the metric ran on is the one attached to the candidate
        assert twin is edited.__dict__["_twin"], what
        applied = apply_pair(g, kind == ADD, u, v)
        for name in ("pairs", "keys"):
            _bytes_equal(getattr(edited, name), getattr(applied, name), f"{what}: {name}")
        assert not edited.pairs.flags.writeable and not edited.keys.flags.writeable
        want = oracle_twin(applied)
        for name in _NODE_FIELDS + ("pairs",):
            _bytes_equal(getattr(twin, name), getattr(want, name), f"{what}: {name}")
        assert twin.sensitive_col == want.sensitive_col
        assert not twin.pairs.flags.writeable
        adj, want_adj = models.adjacency(twin), NormalizedAdjacency(want)
        for name in ("deg", "src", "dst", "coef", "self_coef", "mean_coef"):
            _bytes_equal(getattr(adj, name), getattr(want_adj, name), f"{what}: {name}")
        if arch != "appnp":
            _bytes_equal(adj.first_layer(arch).values,
                         want_adj.first_layer(arch).values, f"{what}: layer 0")
        want_logits = forward(params, want).values
        np.testing.assert_array_equal(logits, want_logits, err_msg=what)
        _bytes_equal(logits, want_logits, f"{what}: logits")
    # every candidate twin shares the epoch's node arrays
    for name in _NODE_FIELDS:
        assert len({id(getattr(t, name)) for _, t, _ in seen}) == 1, name
    assert got == oracle_select(params, g, mask)


def test_twin_is_attached_only_to_candidates():
    g = _CORNERS["star"]
    twin = counterfactual_twin(g)
    assert "_twin" not in g.__dict__
    assert counterfactual_twin(g) is not twin
    params = init_params("gcn", g.d, 4, 2, seed=0)
    edit, _ = editing.brute_force_select(params, g, candidate_edits(g, Exhaustive()),
                                         g.train_mask)
    assert edit.kind in (EditKind.ADD, EditKind.DELETE)
    assert "_twin" not in g.__dict__ and "_adj" not in twin.__dict__


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_candidates_count_one_forward_each(arch):
    g = _CORNERS["near-complete"]
    params = init_params(arch, g.d, 4, 2, seed=0)
    batch = candidate_edits(g, Exhaustive())
    start = models.FORWARD_CALLS
    editing.brute_force_select(params, g, batch, g.train_mask)
    assert models.FORWARD_CALLS - start == len(batch)


@pytest.mark.parametrize("arch", models.ARCHITECTURES)
def test_one_shot_candidate_adjacencies_make_no_bins(arch, monkeypatch):
    # a candidate twin's adjacency serves one forward: it holds no
    # EdgeIndex, so its aggregations keep no flat bins; a graph's own
    # adjacency, reused by training, keeps them
    made = []
    missing = ad._FlatBins.__missing__
    monkeypatch.setattr(ad._FlatBins, "__missing__",
                        lambda bins, width: made.append(width) or missing(bins, width))
    g = _CORNERS["near-complete"].replace()    # no memo from other tests
    params = init_params(arch, g.d, 4, 2, seed=0)
    batch = candidate_edits(g, Exhaustive())
    base = editing._EpochTwin(g, arch)
    cands = [cand for add in (False, True)
             for cand in base.prepare(add, batch.pairs[(batch.kinds == ADD) == add])]
    assert len(cands) == len(batch)
    made.clear()
    for cand in cands:
        counterfactual_unfairness(params, cand, g.train_mask)
        assert cand._twin._adj.index is None
    assert made == []
    models.train_step(params, g, Adam(0.01))
    assert models.adjacency(g).index is not None
    assert made != [] or arch == "appnp"    # APPNP's one column runs per column


def test_scoring_leaves_parameter_flags_as_found():
    g = _CORNERS["star"]
    params = init_params("sage", g.d, 4, 2, seed=0)
    params.biases[0].requires_grad = False
    want = [t.requires_grad for t in params.parameters()]
    editing.brute_force_select(params, g, candidate_edits(g, Exhaustive()), g.train_mask)
    assert [t.requires_grad for t in params.parameters()] == want
    # a bad candidate (an add of an existing edge) is refused before any scoring
    with pytest.raises(GraphError, match="Add of existing"):
        editing.brute_force_select(params, g, [EdgeEdit.add(0, 1)], g.train_mask)
    assert [t.requires_grad for t in params.parameters()] == want


@pytest.mark.parametrize("bad", [EdgeEdit.add(0, 1), EdgeEdit.delete(1, 2),
                                 EdgeEdit.add(3, 9)],
                         ids=["add of existing", "delete of missing", "out of range"])
def test_bad_row_in_a_later_chunk_is_refused_as_apply_pair_refuses_it(bad, monkeypatch):
    g = _CORNERS["star"]
    monkeypatch.setattr(editing, "CANDIDATE_CHUNK", 2)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    params.weights[1].requires_grad = False
    flags = [t.requires_grad for t in params.parameters()]
    # rows 0-3 are good and of both kinds, two chunks' worth; the bad row follows
    rows = [EdgeEdit.add(1, 2), EdgeEdit.delete(0, 3), EdgeEdit.add(2, 3),
            EdgeEdit.delete(0, 1), bad, EdgeEdit.add(3, 4)]
    with pytest.raises(GraphError) as want:
        apply_pair(g, bad.kind is EditKind.ADD, bad.u, bad.v)
    start = models.FORWARD_CALLS
    with pytest.raises(GraphError) as got:
        editing.brute_force_select(params, g, rows, g.train_mask)
    assert str(got.value) == str(want.value)
    # the whole batch is checked before any candidate is scored
    assert models.FORWARD_CALLS == start
    assert [t.requires_grad for t in params.parameters()] == flags


def test_unsorted_and_repeated_rows_score_as_the_oracle(monkeypatch):
    g = _CORNERS["near-complete"]
    params = init_params("sage", g.d, 4, 2, seed=3)
    params.weights[0].values[g.sensitive_col] += 3.0
    batch = candidate_edits(g, Exhaustive())
    order = np.random.default_rng(0).permutation(np.repeat(np.arange(len(batch)), 2))
    rows = [batch.edit(int(i)) for i in order]
    want = oracle_select(params, g, g.train_mask)
    for chunk in (1, 3, 5):
        monkeypatch.setattr(editing, "CANDIDATE_CHUNK", chunk)
        edit, score = editing.brute_force_select(params, g, rows, g.train_mask)
        # the same minimum, and the same tie-break over the (kind, u, v) rows
        assert (edit, score) == want


@pytest.mark.parametrize("arch", ["gcn", "sage"])
def test_one_selection_at_n200_peaks_under_2mb(arch):
    # the acceptance-5 graph and model: candidates are made a chunk at a time,
    # so the peak does not grow with the n(n-1)/2 rows; a chunk's stacked
    # layer 0 is widest for SAGE (features, then neighbour means)
    g = with_split(synth_biased_graph(SyntheticSpec(
        n=200, homophily=0.7, edge_density=2, label_bias=0.5, seed=0)), seed=0)
    params = init_params(arch, g.d, 4, 2, seed=0)
    batch = candidate_edits(g, Exhaustive())
    tracemalloc.start()
    try:
        editing.brute_force_select(params, g, batch, g.train_mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2_000_000, peak
