import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairedit.editing import generate_counterfactual_graph
from fairedit.graph import (EdgeEdit, EditBatch, EditKind, Exhaustive, Graph,
                            GraphError, Sampled, SyntheticSpec, apply_edit,
                            apply_edits, candidate_edits, disjoint_union,
                            load_edge_list, load_node_table,
                            normalize_features, perturb_features, split,
                            synth_biased_graph, with_split)

from conftest import (apply_pair, batch_edits, flip_sensitive, inverse,
                      random_graph, save_edge_list, sort_key)


# ---------------------------------------------------------------------------
# loaders

def test_load_node_table_shapes(tmp_path):
    p = tmp_path / "nodes.csv"
    p.write_text("a,b,s,c,label\n1,2,0,4,1\n5,6,1,8,0\n9,10,0,12,1\n")
    feats, sens, labels, s_idx = load_node_table(p, "s", "label")
    assert feats.shape == (3, 4)
    assert labels.shape == (3,)
    np.testing.assert_array_equal(sens, [0, 1, 0])
    assert s_idx == 2
    # sensitive column kept inside the features
    np.testing.assert_array_equal(feats[:, s_idx], sens)


def test_load_node_table_tab_delimited(tmp_path):
    p = tmp_path / "nodes.tsv"
    p.write_text("a\ts\tlabel\n1\t0\t1\n2\t1\t0\n")
    feats, sens, labels, s_idx = load_node_table(p, "s", "label")
    assert feats.shape == (2, 2)


def test_load_node_table_all_zero_sensitive(tmp_path):
    p = tmp_path / "nodes.csv"
    p.write_text("a,s,label\n1,0,1\n2,0,0\n")
    feats, sens, labels, _ = load_node_table(p, "s", "label")
    assert sens.sum() == 0


@pytest.mark.parametrize("body,msg", [
    ("a,s,label\n1,0\n", "cells"),
    ("a,s,label\n1,x,0\n", "non-numeric"),
    ("a,s,label\n1,2,0\n", "not binary"),
    ("a,s,label\n1,0,3\n", "not binary"),
    ("a,s,label\n", "no node rows"),
])
def test_load_node_table_errors(tmp_path, body, msg):
    p = tmp_path / "nodes.csv"
    p.write_text(body)
    with pytest.raises(GraphError, match=msg):
        load_node_table(p, "s", "label")


def test_load_node_table_default_columns(tmp_path):
    p = tmp_path / "nodes.csv"
    p.write_text("a,sensitive,label\n1,0,1\n2,1,0\n")
    feats, sens, labels, s_idx = load_node_table(p)
    np.testing.assert_array_equal(sens, [0, 1])
    np.testing.assert_array_equal(labels, [1, 0])
    assert s_idx == 1


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_load_node_table_rejects_non_finite(tmp_path, cell):
    p = tmp_path / "nodes.csv"
    p.write_text(f"a,s,label\n1,0,1\n{cell},1,0\n")
    with pytest.raises(GraphError, match=rf"nodes\.csv:3: non-finite cell"):
        load_node_table(p, "s", "label")


def test_load_node_table_missing_column(tmp_path):
    p = tmp_path / "nodes.csv"
    p.write_text("a,b,label\n1,2,0\n")
    with pytest.raises(GraphError, match="missing sensitive"):
        load_node_table(p, "s", "label")


def test_load_edge_list_dedup(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0 1\n1 0\n# comment\n\n")
    assert load_edge_list(p, 2) == ((0, 1),)


def test_load_edge_list_empty(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("")
    assert load_edge_list(p, 5) == ()


def test_load_edge_list_self_loop(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0 0\n")
    with pytest.raises(GraphError, match="self-loop"):
        load_edge_list(p, 2)


def test_load_edge_list_out_of_range(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("0 7\n")
    with pytest.raises(GraphError, match="out of range"):
        load_edge_list(p, 3)


def test_edge_list_roundtrip_fixed_point(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("3 1\n0 2\n1 3\n2 0\n")
    edges = load_edge_list(p, 4)
    q = tmp_path / "e2.txt"
    save_edge_list(q, edges)
    assert load_edge_list(q, 4) == edges
    save_edge_list(p, edges)
    assert load_edge_list(p, 4) == edges


# ---------------------------------------------------------------------------
# normalization and splits

def test_normalize_two_point_column():
    feats = np.array([[0.0, 1.0], [1.0, 3.0], [0.0, 99.0]])
    out = normalize_features(feats, np.array([True, True, False]),
                             sensitive_col=0)
    np.testing.assert_allclose(out[:2, 1], [-1.0, 1.0])


def test_normalize_constant_column():
    feats = np.array([[0.0, 7.0], [1.0, 7.0], [0.0, 7.0]])
    out = normalize_features(feats, np.array([True, True, True]), 0)
    np.testing.assert_array_equal(out[:, 1], 0.0)


def test_normalize_sensitive_untouched():
    feats = np.array([[0.0, 1.0], [1.0, 3.0], [1.0, 5.0]])
    out = normalize_features(feats, np.array([True, True, True]), 0)
    np.testing.assert_array_equal(out[:, 0], feats[:, 0])


@pytest.mark.parametrize("col, msg", [
    (99, "normalize_features: sensitive_col 99 out of range for 9 columns"),
    (9, "normalize_features: sensitive_col 9 out of range for 9 columns"),
    (-1, "sensitive_col must be >= 0"),
    (2.5, "sensitive_col must be an integer, got 2.5"),
])
def test_normalize_refuses_bad_sensitive_col(col, msg):
    # accepted, the real sensitive column would be z-scored
    feats = np.column_stack([np.array([0.0, 1.0, 1.0, 0.0]),
                             np.arange(32.0).reshape(4, 8)])
    with pytest.raises(GraphError) as info:
        normalize_features(feats, np.ones(4, dtype=bool), col)
    assert str(info.value) == msg


def test_split_exact_sizes():
    labels = np.array([0, 1] * 50)
    tr, va, te = split(100, (0.5, 0.25, 0.25), labels, seed=0)
    assert tr.sum() == 50 and va.sum() == 25 and te.sum() == 25
    assert not (tr & va).any() and not (tr & te).any() and not (va & te).any()
    assert (tr | va | te).all()


def test_split_deterministic():
    labels = np.random.default_rng(0).integers(0, 2, 40)
    a = split(40, (0.5, 0.25, 0.25), labels, seed=7)
    b = split(40, (0.5, 0.25, 0.25), labels, seed=7)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_split_bad_fractions():
    with pytest.raises(GraphError):
        split(10, (0.9, 0.9, 0.9), np.zeros(10, dtype=int), seed=0)


@pytest.mark.parametrize("fractions", [
    (float("nan"), 0.5, 0.5),
    (0.5, float("inf"), 0.5),
])
def test_split_non_finite_fractions(fractions):
    with pytest.raises(GraphError, match="finite"):
        split(10, fractions, np.zeros(10, dtype=int), seed=0)


def test_split_tiny_class():
    labels = np.array([0] * 10 + [1] * 2)
    with pytest.raises(GraphError, match="fewer nodes"):
        split(12, (0.5, 0.25, 0.25), labels, seed=0)


@pytest.mark.parametrize("labels", [np.zeros(9, dtype=int), np.zeros(4, dtype=int),
                                    np.zeros((6, 1), dtype=int)],
                         ids=["9 labels", "4 labels", "6x1 labels"])
def test_split_needs_one_label_per_node(labels):
    with pytest.raises(GraphError, match="one label per node"):
        split(6, (0.5, 0.25, 0.25), labels, seed=0)


def test_split_stratified():
    labels = np.array([0] * 80 + [1] * 20)
    tr, va, te = split(100, (0.5, 0.25, 0.25), labels, seed=3)
    # class balance carries into the training split (within one node)
    assert abs(labels[tr].mean() - 0.2) < 0.05


# ---------------------------------------------------------------------------
# edits and views

def test_apply_edit_delete(triangle_graph):
    g = apply_edit(triangle_graph, EdgeEdit.delete(0, 1))
    assert g.edges == ((0, 2), (1, 2))
    assert triangle_graph.edges == ((0, 1), (0, 2), (1, 2))  # input unchanged


def test_apply_edit_involution(triangle_graph):
    e = EdgeEdit.add(0, 3) if (0, 3) not in set(triangle_graph.edges) else None
    g = random_graph(6, 0.4, 0)
    for edit in [EdgeEdit.add(u, v) for u in range(6) for v in range(u + 1, 6)
                 if (u, v) not in set(g.edges)][:3]:
        g2 = apply_edit(apply_edit(g, edit), inverse(edit))
        assert g2.edges == g.edges


def test_apply_edit_errors(triangle_graph):
    with pytest.raises(GraphError):
        apply_edit(triangle_graph, EdgeEdit.add(0, 1))
    with pytest.raises(GraphError):
        apply_edit(apply_edit(triangle_graph, EdgeEdit.delete(0, 1)),
                   EdgeEdit.delete(0, 1))


def test_edge_edit_normalizes_endpoints():
    e = EdgeEdit.add(5, 2)
    assert e.endpoints == (2, 5)
    with pytest.raises(GraphError):
        EdgeEdit.add(3, 3)


def test_flip_sensitive(triangle_graph):
    g = flip_sensitive(triangle_graph)
    np.testing.assert_array_equal(g.sensitive, [1, 0, 1])
    np.testing.assert_array_equal(g.features[:, 0], g.sensitive)
    g2 = flip_sensitive(g)
    np.testing.assert_array_equal(g2.sensitive, triangle_graph.sensitive)
    np.testing.assert_array_equal(g2.features, triangle_graph.features)


def test_perturb_sigma_zero(triangle_graph):
    g = perturb_features(triangle_graph, 0.0, seed=1)
    np.testing.assert_array_equal(g.features, triangle_graph.features)


def test_perturb_deterministic(triangle_graph):
    a = perturb_features(triangle_graph, 0.3, seed=5)
    b = perturb_features(triangle_graph, 0.3, seed=5)
    np.testing.assert_array_equal(a.features, b.features)


def test_perturb_sensitive_untouched(triangle_graph):
    g = perturb_features(triangle_graph, 10.0, seed=5)
    np.testing.assert_array_equal(g.features[:, 0], triangle_graph.features[:, 0])


def test_perturb_negative_sigma(triangle_graph):
    with pytest.raises(GraphError):
        perturb_features(triangle_graph, -0.1, seed=0)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_perturb_non_finite_sigma(triangle_graph, sigma):
    # nan would make every feature nan, inf every feature +-inf
    with pytest.raises(GraphError, match="sigma"):
        perturb_features(triangle_graph, sigma, seed=0)


# ---------------------------------------------------------------------------
# candidate generation

def test_exhaustive_candidates_example():
    g = Graph.build(np.zeros((3, 1)), [(0, 1)], [0, 1, 0], [0, 1, 0], 0)
    cands = candidate_edits(g, Exhaustive())
    assert batch_edits(cands) == [EdgeEdit.delete(0, 1), EdgeEdit.add(0, 2),
                                  EdgeEdit.add(1, 2)]
    np.testing.assert_array_equal(cands.kinds, np.array([0, 1, 1], dtype=np.int8))
    np.testing.assert_array_equal(cands.pairs, np.array([[0, 1], [0, 2], [1, 2]]))
    assert not cands.kinds.flags.writeable and not cands.pairs.flags.writeable


def test_exhaustive_count(triangle_graph):
    g = random_graph(7, 0.3, 2)
    assert len(candidate_edits(g, Exhaustive())) == 7 * 6 // 2


def test_sampled_zero_probs(triangle_graph):
    assert len(candidate_edits(triangle_graph, Sampled(0.0, 0.0, seed=1))) == 0


def test_sampled_prob_one():
    g = random_graph(8, 0.4, 4)
    cands = batch_edits(candidate_edits(g, Sampled(1.0, 1.0, seed=0)))
    s = g.sensitive
    adds = [e for e in cands if e.kind is EditKind.ADD]
    dels = [e for e in cands if e.kind is EditKind.DELETE]
    # every absent cross-group pair added, every intra-group edge deleted
    expected_adds = {(u, v) for u in range(8) for v in range(u + 1, 8)
                     if s[u] != s[v] and (u, v) not in set(g.edges)}
    expected_dels = {(u, v) for u, v in g.edges if s[u] == s[v]}
    assert {e.endpoints for e in adds} == expected_adds
    assert {e.endpoints for e in dels} == expected_dels


def test_sampled_deterministic():
    g = random_graph(10, 0.3, 1)
    a = candidate_edits(g, Sampled(0.3, 0.3, seed=9))
    b = candidate_edits(g, Sampled(0.3, 0.3, seed=9))
    np.testing.assert_array_equal(a.kinds, b.kinds)
    np.testing.assert_array_equal(a.pairs, b.pairs)


def test_sampled_respects_groups():
    g = random_graph(10, 0.4, 6)
    s = g.sensitive
    for e in batch_edits(candidate_edits(g, Sampled(0.5, 0.5, seed=2))):
        if e.kind is EditKind.ADD:
            assert s[e.u] != s[e.v]
        else:
            assert s[e.u] == s[e.v]


# ---------------------------------------------------------------------------
# synthetic generator

def test_synth_homophily_one():
    spec = SyntheticSpec(n=50, homophily=1.0, edge_density=4, label_bias=0.5,
                         seed=0)
    g = synth_biased_graph(spec)
    s = g.sensitive
    assert all(s[u] == s[v] for u, v in g.edges)


def test_synth_label_bias_zero():
    # threshold 0.1 at n = 2000 validated over 20 seeds before freezing
    corrs = []
    for seed in range(20):
        spec = SyntheticSpec(n=2000, homophily=0.5, edge_density=2,
                             label_bias=0.0, seed=seed)
        g = synth_biased_graph(spec)
        corrs.append(abs(np.corrcoef(g.sensitive, g.labels)[0, 1]))
    assert max(corrs) < 0.1


def test_synth_deterministic():
    spec = SyntheticSpec(n=40, homophily=0.7, edge_density=3, label_bias=0.6,
                         seed=11)
    a, b = synth_biased_graph(spec), synth_biased_graph(spec)
    assert a.edges == b.edges
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)


def test_synth_infeasible_density():
    with pytest.raises(GraphError, match="infeasible"):
        synth_biased_graph(SyntheticSpec(n=6, homophily=1.0, edge_density=20,
                                         label_bias=0.0, seed=0))


def test_synth_homophily_concentrates():
    spec = SyntheticSpec(n=500, homophily=0.8, edge_density=6, label_bias=0.5,
                         seed=3)
    g = synth_biased_graph(spec)
    s = g.sensitive
    intra = sum(1 for u, v in g.edges if s[u] == s[v])
    assert abs(intra / len(g.edges) - 0.8) < 0.02


def test_synth_graph_valid_and_splittable():
    spec = SyntheticSpec(n=60, homophily=0.6, edge_density=4, label_bias=0.4,
                         seed=2)
    g = with_split(synth_biased_graph(spec), seed=1)
    g.validate()
    assert g.train_mask.sum() == 30


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_flip_involution(seed):
    g = random_graph(8, 0.3, seed)
    g2 = flip_sensitive(flip_sensitive(g))
    np.testing.assert_array_equal(g2.sensitive, g.sensitive)
    np.testing.assert_array_equal(g2.features, g.features)
    assert g2.edges == g.edges


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_exhaustive_length(seed):
    g = random_graph(9, 0.4, seed)
    assert len(candidate_edits(g, Exhaustive())) == 9 * 8 // 2


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), data=st.data())
def test_property_edit_inverse_identity(seed, data):
    g = random_graph(7, 0.5, seed)
    cands = candidate_edits(g, Exhaustive())
    edit = cands.edit(data.draw(st.integers(0, len(cands) - 1)))
    g2 = apply_edit(apply_edit(g, edit), inverse(edit))
    assert g2.edges == g.edges


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000))
def test_property_operations_preserve_invariants(seed):
    g = random_graph(8, 0.4, seed)
    for view in (flip_sensitive(g), perturb_features(g, 0.5, seed),
                 disjoint_union(g, g)):
        view.validate()
    for edit in batch_edits(candidate_edits(g, Sampled(0.3, 0.3, seed)))[:3]:
        apply_edit(g, edit).validate()


def test_disjoint_union_structure(triangle_graph):
    u = disjoint_union(triangle_graph, triangle_graph)
    assert u.n == 6
    assert len(u.edges) == 6
    assert (3, 4) in set(u.edges)


# ---------------------------------------------------------------------------
# differential tests: the array-backed edge core against a pure-Python
# reference, which is the tuple/set algorithm that core replaced

def _ref_build_edges(edges, n):
    edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    seen = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) endpoint out of range")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        if (u, v) in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
    return edges


def _ref_apply_edit(edges, n, edit):
    e = edit.endpoints
    if not (0 <= e[0] < n and 0 <= e[1] < n):
        raise GraphError(f"edit endpoint out of range: {e}")
    present = e in set(edges)
    if edit.kind is EditKind.ADD:
        if present:
            raise GraphError(f"Add of existing edge {e}")
        return tuple(sorted(edges + (e,)))
    if not present:
        raise GraphError(f"Delete of missing edge {e}")
    return tuple(x for x in edges if x != e)


def _ref_apply_edits(edges, n, edits):
    """One edit at a time; a batch naming a pair twice is refused."""
    pairs = [e.endpoints for e in edits]
    if len(set(pairs)) < len(pairs):
        raise GraphError("repeated pair")
    for e in edits:
        edges = _ref_apply_edit(edges, n, e)
    return edges


def _ref_sampled(edges, s, n, policy):
    rng = np.random.default_rng(policy.seed)
    out = []
    intra = [(u, v) for u, v in edges if s[u] == s[v]]
    for (u, v), r in zip(intra, rng.random(len(intra))):
        if r < policy.gamma:
            out.append(EdgeEdit.delete(u, v))
    eset = set(edges)
    absent = [(u, v) for u in range(n) for v in range(u + 1, n)
              if s[u] != s[v] and (u, v) not in eset]
    for (u, v), r in zip(absent, rng.random(len(absent))):
        if r < policy.rho:
            out.append(EdgeEdit.add(u, v))
    out.sort(key=lambda e: (e.u, e.v, sort_key(e)[0]))
    return out


def _outcome(fn, *args):
    """("ok", value) or ("error", message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except GraphError as e:
        return "error", str(e)


def _build(n, edges, s):
    s = np.asarray(s)
    return Graph.build(s[:, None].astype(float), edges, s, np.zeros(n, int), 0)


@st.composite
def _graphs(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [p for p, keep in zip(all_pairs, draw(st.lists(
        st.booleans(), min_size=len(all_pairs), max_size=len(all_pairs)))) if keep]
    s = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return _build(n, edges, s)


def _assert_stored_array(g):
    assert g.pairs.dtype == np.int64 and g.pairs.shape == (len(g.edges), 2)
    assert not g.pairs.flags.writeable
    assert (np.diff(g.keys) > 0).all()
    np.testing.assert_array_equal(g.keys, g.pairs[:, 0] * g.n + g.pairs[:, 1])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_differential_build(data):
    n = data.draw(st.integers(1, 8))
    node = st.integers(-1, n)
    raw = data.draw(st.lists(st.tuples(node, node), max_size=12))
    want = _outcome(_ref_build_edges, raw, n)
    got = _outcome(lambda: _build(n, raw, [0] * n).edges)
    assert got == want
    if got[0] == "ok":
        _assert_stored_array(_build(n, raw, [0] * n))


@pytest.mark.parametrize("edges,msg", [
    ([(0, 1), (2, 1), (1, 0)], "duplicate edge (0, 1)"),
    ([(0, 1), (2, 2)], "self-loop at node 2"),
    ([(0, 1), (1, 3)], "edge (1, 3) endpoint out of range"),
    ([(-1, 1)], "edge (-1, 1) endpoint out of range"),
])
def test_build_errors_match_reference(edges, msg):
    assert _outcome(_ref_build_edges, edges, 3) == ("error", msg)
    with pytest.raises(GraphError) as exc:
        _build(3, edges, [0, 1, 0])
    assert str(exc.value) == msg


def test_build_rejects_non_pairs():
    with pytest.raises(GraphError, match="pairs"):
        _build(3, [(0, 1, 2)], [0, 1, 0])
    with pytest.raises(GraphError, match="pairs"):
        _build(3, [(0, 1), (1,)], [0, 1, 0])


@pytest.mark.parametrize("edges", [
    [(0.7, 1.2), (1, 2)],
    [(0, 1.5)],
    np.array([[0.0, 1.0], [1.0, 2.5]]),
    [(0, float("nan"))],
    [(0, float("inf"))],
])
def test_build_rejects_non_integral_ids(edges):
    # a cast to int64 would truncate them to other, valid node ids
    with pytest.raises(GraphError, match="pairs of integer node ids"):
        _build(3, edges, [0, 1, 0])


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2)],
    np.array([[0, 1], [1, 2]], dtype=np.int32),
    np.array([[0.0, 1.0], [1.0, 2.0]]),
    [(np.int64(0), 1), (1.0, 2.0)],
])
def test_build_accepts_integral_ids(edges):
    assert _build(3, edges, [0, 1, 0]).edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("field, values, msg", [
    ("sensitive", [0.7, 1, 0], "sensitive attribute must be binary"),
    ("sensitive", [0, 1, float("nan")], "sensitive attribute must be binary"),
    ("labels", [0, 1.9, 0], "labels must be binary"),
    ("labels", np.array([0.0, 1.0, -0.5]), "labels must be binary"),
])
def test_build_rejects_non_integral_labels_and_sensitive(field, values, msg):
    # a cast to int64 would truncate 0.7 to 0 and 1.9 to 1, both binary
    given = {"sensitive": [0, 1, 0], "labels": [1, 0, 1], field: values}
    with pytest.raises(GraphError, match=f"^{msg}$"):
        Graph.build(np.ones((3, 1)), [(0, 1)], given["sensitive"],
                    given["labels"], 0)


def test_build_accepts_integral_float_labels_and_sensitive():
    g = Graph.build(np.ones((3, 1)), [(0, 1)], [0.0, 1.0, 0.0], [True, False, True], 0)
    assert g.sensitive.tolist() == [0, 1, 0] and g.labels.tolist() == [1, 0, 1]


@pytest.mark.parametrize("features", [
    np.float64(1.0),
    np.ones(3),
    np.ones((3, 2, 1)),
])
def test_build_rejects_features_not_2d(features):
    with pytest.raises(GraphError, match="2-D"):
        Graph.build(features, [], [0, 1, 0], [0, 0, 1], 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_build_rejects_non_finite_features(bad):
    # a hidden ReLU maps nan to 0, so a GCN on such a graph would return
    # finite (all-zero) logits instead of failing
    features = np.zeros((3, 2))
    features[1, 1] = bad
    with pytest.raises(GraphError, match="features must be finite"):
        Graph.build(features, [(0, 1), (1, 2)], [0, 1, 0], [0, 1, 1], 0)
    g = Graph.build(np.zeros((3, 2)), [(0, 1), (1, 2)], [0, 1, 0], [0, 1, 1], 0)
    with pytest.raises(GraphError, match="features must be finite"):
        g.replace(features=features).validate()


def _mask_of_shape(shape):
    mask = np.zeros(shape, dtype=bool)
    mask.flat[0] = True
    return mask


@pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), (1, 3), ()])
@pytest.mark.parametrize("name", ["train_mask", "val_mask", "test_mask"])
def test_build_rejects_mask_not_one_per_node(name, shape):
    # a length-2 mask used to pass and fail later in train_step with an
    # IndexError; (3, 1) and (1, 3) passed silently
    masks = {"train_mask": [False, True, False], "val_mask": [False, False, True],
             "test_mask": [True, False, False]}
    masks[name] = _mask_of_shape(shape)
    with pytest.raises(GraphError, match=rf"^{name} must have shape \(3,\)"):
        Graph.build(np.zeros((3, 2)), [(0, 1)], [0, 1, 0], [0, 1, 1], 0, **masks)
    g = Graph.build(np.zeros((3, 2)), [(0, 1)], [0, 1, 0], [0, 1, 1], 0)
    with pytest.raises(GraphError, match=rf"^{name} must have shape \(3,\)"):
        g.replace(**{name: masks[name]}).validate()


def test_build_rejects_masks_of_different_lengths():
    # the overlap check used to raise NumPy's broadcast ValueError
    with pytest.raises(GraphError, match=r"^val_mask must have shape \(3,\)"):
        Graph.build(np.zeros((3, 2)), [], [0, 1, 0], [0, 1, 1], 0,
                    train_mask=[True, False, False], val_mask=[False, True])


def test_validate_rejects_unsorted_array():
    g = _build(3, [(0, 1), (1, 2)], [0, 1, 0])
    bad = g.replace(pairs=np.array([[1, 2], [0, 1]], dtype=np.int64))
    with pytest.raises(GraphError, match="out of lexicographic order"):
        bad.validate()


@settings(max_examples=150, deadline=None)
@given(g=_graphs(), data=st.data())
def test_differential_apply_edit(g, data):
    node = st.integers(-1, g.n)
    u, v = data.draw(st.tuples(node, node).filter(lambda p: p[0] != p[1]))
    edit = EdgeEdit(data.draw(st.sampled_from(EditKind)), u, v)
    want = _outcome(_ref_apply_edit, g.edges, g.n, edit)
    got = _outcome(lambda: apply_edit(g, edit).edges)
    assert got == want
    if got[0] == "ok":
        _assert_stored_array(apply_edit(g, edit))


@settings(max_examples=150, deadline=None)
@given(g=_graphs(), data=st.data())
def test_differential_apply_edits(g, data):
    # mostly valid edits, so that both accepted and rejected batches occur
    pair = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)).filter(
        lambda p: p[0] != p[1])
    edits = []
    for u, v in data.draw(st.lists(pair, max_size=8)):
        present = (min(u, v), max(u, v)) in set(g.edges)
        valid = data.draw(st.integers(0, 9)) > 0
        kind = EditKind.DELETE if present == valid else EditKind.ADD
        edits.append(EdgeEdit(kind, u, v))
    before = g.edges
    want = _outcome(_ref_apply_edits, g.edges, g.n, edits)
    got = _outcome(lambda: apply_edits(g, edits).edges)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert got == want
        _assert_stored_array(apply_edits(g, edits))
    assert g.edges == before


@st.composite
def _split_graphs(draw, max_n=9):
    """A `_graphs` graph with random node features and labels, and each node
    in at most one of the train/val/test masks."""
    g = draw(_graphs(max_n))
    n = g.n
    where = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    feats = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    return g.replace(features=np.stack([g.sensitive.astype(float), feats], axis=1),
                     labels=labels, train_mask=where == 1, val_mask=where == 2,
                     test_mask=where == 3)


@settings(max_examples=100, deadline=None)
@given(a=_split_graphs(), b=_split_graphs())
def test_disjoint_union_equals_build_of_stacked_parts(a, b):
    got = disjoint_union(a, b)
    want = Graph.build(
        np.vstack([a.features, b.features]),
        np.concatenate([a.pairs, b.pairs + a.n]),
        np.concatenate([a.sensitive, b.sensitive]),
        np.concatenate([a.labels, b.labels]),
        a.sensitive_col,
        np.concatenate([a.train_mask, b.train_mask]),
        np.concatenate([a.val_mask, b.val_mask]),
        np.concatenate([a.test_mask, b.test_mask]))
    for name in ("features", "pairs", "keys", "sensitive", "labels",
                 "train_mask", "val_mask", "test_mask"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype, name
        np.testing.assert_array_equal(x, y, err_msg=name)
    assert got.sensitive_col == want.sensitive_col
    _assert_stored_array(got)


@pytest.mark.parametrize("bad_half", [0, 1])
@pytest.mark.parametrize("corrupt,msg", [
    (lambda g: g.replace(pairs=g.pairs[::-1].copy()), "out of lexicographic order"),
    (lambda g: g.replace(pairs=g.pairs[:, ::-1].copy()), "not stored with u < v"),
    (lambda g: g.replace(labels=g.labels + 2), "labels must be binary"),
])
def test_disjoint_union_rejects_invalid_half(triangle_graph, bad_half, corrupt, msg):
    halves = [triangle_graph, triangle_graph]
    halves[bad_half] = corrupt(triangle_graph)
    with pytest.raises(GraphError, match=msg):
        disjoint_union(*halves)


def test_apply_edits_rejects_repeated_pair(triangle_graph):
    # one at a time this pair of edits would cancel out; a batch refuses it
    with pytest.raises(GraphError, match="repeated"):
        apply_edits(triangle_graph, [EdgeEdit.delete(0, 1), EdgeEdit.add(1, 0)])
    with pytest.raises(GraphError, match="out of range"):
        apply_edits(triangle_graph, [EdgeEdit.add(0, 3)])
    assert apply_edits(triangle_graph, []) is triangle_graph


@pytest.mark.parametrize("edits,msg", [
    # range is checked before repeats, and repeats before clashes
    ([EdgeEdit.add(0, 1), EdgeEdit.add(0, 1), EdgeEdit.add(1, 5)],
     "edit endpoint out of range: (1, 5)"),
    ([EdgeEdit.add(0, 4), EdgeEdit.add(2, 3), EdgeEdit.add(1, 3), EdgeEdit.add(3, 2),
      EdgeEdit.delete(4, 0)],
     "repeated edit of pair (2, 3)"),
    ([EdgeEdit.add(1, 3), EdgeEdit.add(0, 3), EdgeEdit.delete(2, 3), EdgeEdit.delete(1, 3)],
     "repeated edit of pair (1, 3)"),
    ([EdgeEdit.add(0, 3), EdgeEdit.delete(2, 3), EdgeEdit.add(0, 1)],
     "Delete of missing edge (2, 3)"),
    ([EdgeEdit.delete(0, 1), EdgeEdit.add(1, 2), EdgeEdit.delete(0, 3)],
     "Add of existing edge (1, 2)"),
])
def test_apply_edits_names_first_bad_edit(triangle_graph, edits, msg):
    g = _build(5, triangle_graph.edges, [0, 1, 0, 1, 0])
    with pytest.raises(GraphError) as exc:
        apply_edits(g, edits)
    assert str(exc.value) == msg


@pytest.mark.parametrize("make", [EdgeEdit.add, EdgeEdit.delete])
@pytest.mark.parametrize("u, v", [(0.5, 2), (0, 2.0), (np.float64(1.5), 2), ("0", 2)])
def test_edit_rejects_non_integral_endpoint(triangle_graph, make, u, v):
    # EditBatch.of would truncate 0.5 to node 0 and edit (0, 2) instead
    want = f"edit endpoints must be integer node ids, got ({u!r}, {v!r})"
    with pytest.raises(GraphError) as exc:
        apply_edits(triangle_graph, [make(u, v)])
    assert str(exc.value) == want


@pytest.mark.parametrize("kind", ["add", "delete", 1, True, None])
def test_edit_rejects_kind_that_is_not_an_edit_kind(triangle_graph, kind):
    # EditBatch.of would read every kind but EditKind.ADD as a delete, so an
    # "add" of the edge (0, 1) would delete it
    with pytest.raises(GraphError) as exc:
        apply_edits(triangle_graph, [EdgeEdit(kind, 0, 1)])
    assert str(exc.value) == f"edit kind must be an EditKind, got {kind!r}"


_SPEC = dict(n=40, homophily=0.7, edge_density=3, label_bias=0.5)


@pytest.mark.parametrize("make, msg", [
    (lambda: Graph.build(np.ones((3, 2)), [], [0, 1, 0], [1, 0, 1], 0.9),
     "sensitive_col must be an integer, got 0.9"),
    (lambda: Graph.build(np.ones((3, 2)), [], [0, 1, 0], [1, 0, 1], "1"),
     "sensitive_col must be an integer, got '1'"),
    (lambda: Sampled(0.1, 0.1, seed=-1), "seed must be >= 0"),
    (lambda: Sampled(0.1, 0.1, seed=0.5), "seed must be an integer, got 0.5"),
    (lambda: synth_biased_graph(SyntheticSpec(**{**_SPEC, "n": 4.5})),
     "n must be an integer, got 4.5"),
    (lambda: synth_biased_graph(SyntheticSpec(**_SPEC, seed=1.0)),
     "seed must be an integer, got 1.0"),
    (lambda: synth_biased_graph(SyntheticSpec(**_SPEC, n_features=2.5)),
     "n_features must be an integer, got 2.5"),
], ids=["sensitive_col 0.9", "sensitive_col '1'", "Sampled seed -1",
        "Sampled seed 0.5", "spec n 4.5", "spec seed 1.0", "spec n_features 2.5"])
def test_integer_fields_are_refused_not_truncated(make, msg):
    # int() would make 0.9 column 0 and '1' column 1; the seeds and counts
    # would reach NumPy, which raises a bare ValueError or TypeError
    with pytest.raises(GraphError) as exc:
        make()
    assert str(exc.value) == msg


@pytest.mark.parametrize("kinds,pairs,msg", [
    (np.array([0], dtype=np.int64), np.array([[0, 1]]), "int8 kinds"),
    (np.array([0, 1], dtype=np.int8), np.array([[0, 1]]), "int8 kinds"),
    (np.array([2], dtype=np.int8), np.array([[0, 1]]), "must be 0 \\(delete\\) or 1"),
    (np.array([1, 0], dtype=np.int8), np.array([[0, 1], [2, 2]]),
     "self-loop edit on node 2"),
    (np.array([1], dtype=np.int8), np.array([[3, 1]]),
     "edit \\(3, 1\\) not stored with u < v"),
])
def test_edit_batch_rejects_malformed_rows(kinds, pairs, msg):
    with pytest.raises(GraphError, match=msg):
        EditBatch(kinds, pairs)


def test_edit_batch_round_trip():
    edits = [EdgeEdit.add(3, 1), EdgeEdit.delete(0, 2)]
    batch = EditBatch.of(edits)
    np.testing.assert_array_equal(batch.kinds, np.array([1, 0], dtype=np.int8))
    np.testing.assert_array_equal(batch.pairs, [[1, 3], [0, 2]])
    assert batch_edits(batch) == edits and batch.edit(1) == edits[1]
    assert EditBatch.of(batch) is batch and len(batch) == 2


def test_apply_edits_batch_equals_edit_list(triangle_graph):
    g = _build(5, triangle_graph.edges, [0, 1, 0, 1, 0])
    edits = [EdgeEdit.add(2, 4), EdgeEdit.delete(0, 1), EdgeEdit.add(0, 3)]
    got = apply_edits(g, EditBatch.of(edits))
    assert got.edges == apply_edits(g, edits).edges == ((0, 2), (0, 3), (1, 2), (2, 4))
    _assert_stored_array(got)


def test_apply_pair_checks_like_apply_edit(triangle_graph):
    assert apply_pair(triangle_graph, False, 0, 1).edges == ((0, 2), (1, 2))
    with pytest.raises(GraphError, match="not stored with u < v"):
        apply_pair(triangle_graph, True, 2, 0)
    with pytest.raises(GraphError, match=r"out of range: \(1, 3\)"):
        apply_pair(triangle_graph, True, 1, 3)
    with pytest.raises(GraphError, match=r"Add of existing edge \(0, 2\)"):
        apply_pair(triangle_graph, True, 0, 2)


@settings(max_examples=150, deadline=None)
@given(g=_graphs(max_n=12), rho=st.floats(0, 1), gamma=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_differential_sampled_candidates(g, rho, gamma, seed):
    policy = Sampled(rho, gamma, seed)
    assert batch_edits(candidate_edits(g, policy)) == \
        _ref_sampled(g.edges, g.sensitive, g.n, policy)


@settings(max_examples=100, deadline=None)
@given(g=_graphs(max_n=12), rho=st.floats(0, 1), gamma=st.floats(0, 1),
       seed=st.integers(0, 2**32 - 1))
def test_differential_counterfactual_graph(g, rho, gamma, seed):
    gstar, edits = generate_counterfactual_graph(g, rho, gamma, seed)
    want = _ref_sampled(g.edges, g.sensitive, g.n, Sampled(rho, gamma, seed))
    assert batch_edits(edits) == want
    expected = g.edges
    for e in want:
        expected = _ref_apply_edit(expected, g.n, e)
    assert gstar.edges == expected
    _assert_stored_array(gstar)


@settings(max_examples=50, deadline=None)
@given(g=_graphs())
def test_differential_exhaustive_candidates(g):
    want = [EdgeEdit.delete(u, v) if (u, v) in set(g.edges) else EdgeEdit.add(u, v)
            for u in range(g.n) for v in range(u + 1, g.n)]
    assert batch_edits(candidate_edits(g, Exhaustive())) == want
