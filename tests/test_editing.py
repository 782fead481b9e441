import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairedit.models as models
from fairedit.autodiff import Adam, SGD, Tensor
from fairedit.editing import (CandidateCapExceeded, EditTrainConfig,
                              brute_force_select, edge_sensitivity_scores,
                              generate_counterfactual_graph, select_edit,
                              train_bruteforce, train_fairedit)
from fairedit.graph import (EdgeEdit, EditBatch, EditKind, Exhaustive, Graph,
                            GraphError, apply_edit, candidate_edits)
from fairedit.models import init_params, train

from conftest import batch_edits, finite_diff, random_graph, sort_key


# ---------------------------------------------------------------------------
# Independent oracle: dense-matrix GCN + exhaustive F_C argmin

def _oracle_gcn_predict(params, features, edges, n):
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    A += np.eye(n)
    dinv = 1.0 / np.sqrt(A.sum(axis=1))
    Ahat = dinv[:, None] * A * dinv[None, :]
    H = features
    L = len(params.weights)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        H = Ahat @ H @ w.values + b.values
        if i < L - 1:
            H = np.maximum(H, 0.0)
    return (H[:, 0] > 0).astype(int)


def _oracle_fc(params, g, edges, mask):
    feats_flipped = g.features.copy()
    feats_flipped[:, g.sensitive_col] = 1 - feats_flipped[:, g.sensitive_col]
    a = _oracle_gcn_predict(params, g.features, edges, g.n)
    b = _oracle_gcn_predict(params, feats_flipped, edges, g.n)
    return float(np.mean(a[mask] != b[mask]))


def _oracle_best_edit(params, g, mask):
    """Exhaustive argmin-F_C enumeration, coded independently of the engine."""
    eset = set(g.edges)
    best = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (u, v) in eset:
                edges = [e for e in g.edges if e != (u, v)]
                kind_rank = 0
            else:
                edges = list(g.edges) + [(u, v)]
                kind_rank = 1
            fc = _oracle_fc(params, g, edges, mask)
            key = (fc, kind_rank, u, v)
            if best is None or key < best[0]:
                best = (key, (kind_rank, u, v))
    key, (kind_rank, u, v) = best
    kind = EditKind.DELETE if kind_rank == 0 else EditKind.ADD
    return EdgeEdit(kind, u, v), key[0]


def _planted_graph_and_model(n, seed):
    """Random graph plus a GCN whose first layer leans on the sensitive
    column, so edits genuinely move counterfactual fairness."""
    g = random_graph(n, 0.45, seed, d_extra=2)
    params = init_params("gcn", g.d, 4, 2, seed=seed + 1000)
    rng = np.random.default_rng(seed + 2000)
    params.weights[0].values[g.sensitive_col, :] += rng.normal(2.0, 0.5, size=4)
    return g, params


@pytest.mark.parametrize("seed", range(20))
def test_brute_force_matches_oracle(seed):
    g, params = _planted_graph_and_model(8, seed)
    mask = g.train_mask
    cands = candidate_edits(g, Exhaustive())
    edit, score = brute_force_select(params, g, cands, mask)
    oracle_edit, oracle_score = _oracle_best_edit(params, g, mask)
    assert edit == oracle_edit
    assert score == pytest.approx(oracle_score, abs=1e-12)


def test_brute_force_single_candidate(triangle_graph):
    params = init_params("gcn", 3, 4, 2, seed=0)
    cand = EdgeEdit.delete(0, 1)
    edit, _ = brute_force_select(params, triangle_graph, [cand],
                                 triangle_graph.train_mask)
    assert edit == cand


def test_brute_force_tie_lexicographic(triangle_graph):
    # zero-weight model: every candidate scores F_C = 0; Delete < Add
    params = init_params("gcn", 3, 4, 2, seed=0)
    for w in params.weights:
        w.values[:] = 0.0
    cands = candidate_edits(triangle_graph, Exhaustive())
    edit, score = brute_force_select(params, triangle_graph, cands,
                                     triangle_graph.train_mask)
    assert score == 0.0
    assert edit == EdgeEdit.delete(0, 1)


def test_brute_force_empty_candidates(triangle_graph):
    params = init_params("gcn", 3, 4, 2, seed=0)
    with pytest.raises(GraphError):
        brute_force_select(params, triangle_graph, [], triangle_graph.train_mask)


# ---------------------------------------------------------------------------
# counterfactual graph generation

def test_generate_counterfactual_identity():
    g = random_graph(8, 0.4, 1)
    gstar, edits = generate_counterfactual_graph(g, 0.0, 0.0, seed=0)
    assert gstar.edges == g.edges
    assert len(edits) == 0


def test_generate_counterfactual_full_delete():
    # fully intra-group graph: gamma = 1, rho = 0 empties the edge set
    feats = np.zeros((4, 1))
    g = Graph.build(feats, [(0, 1), (2, 3)], [0, 0, 0, 0], [0, 1, 0, 1], 0)
    gstar, edits = generate_counterfactual_graph(g, 0.0, 1.0, seed=0)
    assert gstar.edges == ()
    assert len(edits) == 2


def test_generate_counterfactual_deterministic():
    g = random_graph(10, 0.3, 2)
    a = generate_counterfactual_graph(g, 0.4, 0.4, seed=5)
    b = generate_counterfactual_graph(g, 0.4, 0.4, seed=5)
    assert a[0].edges == b[0].edges
    np.testing.assert_array_equal(a[1].kinds, b[1].kinds)
    np.testing.assert_array_equal(a[1].pairs, b[1].pairs)


# ---------------------------------------------------------------------------
# sensitivity scores

def test_scores_empty_edits():
    g = random_graph(6, 0.4, 0)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    start = models.FORWARD_CALLS
    scores = edge_sensitivity_scores(params, g, g, [])
    assert scores.shape == (0,) and models.FORWARD_CALLS == start


def test_scores_zero_model():
    g = random_graph(6, 0.5, 1)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    for w in params.weights:
        w.values[:] = 0.0
    gstar, edits = generate_counterfactual_graph(g, 0.5, 0.5, seed=0)
    assert len(edits)
    scores = edge_sensitivity_scores(params, g, gstar, edits)
    assert scores.shape == (len(edits),) and (scores == 0.0).all()


def test_scores_inconsistent_edits():
    g = random_graph(6, 0.5, 1)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    bogus = [EdgeEdit.add(0, 1) if (0, 1) in set(g.edges) else EdgeEdit.delete(0, 1)]
    with pytest.raises(GraphError, match="inconsistent|does not map"):
        edge_sensitivity_scores(params, g, g, bogus)


def test_scores_check_any_batch_but_the_sampled_one():
    # every batch is replayed to check it, the sampled one too: an equal
    # copy scores the same, and a batch missing a row is refused
    g = random_graph(8, 0.4, 3)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    gstar, edits = generate_counterfactual_graph(g, 0.5, 0.5, seed=1)
    assert len(edits) >= 2
    want = edge_sensitivity_scores(params, g, gstar, edits)
    copy = EditBatch(edits.kinds.copy(), edits.pairs.copy())
    got = edge_sensitivity_scores(params, g, gstar, copy)
    np.testing.assert_array_equal(got, want)
    short = EditBatch(edits.kinds[1:].copy(), edits.pairs[1:].copy())
    with pytest.raises(GraphError, match="does not map"):
        edge_sensitivity_scores(params, g, gstar, short)


def test_scores_forward_budget():
    g = random_graph(8, 0.4, 3)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    gstar, edits = generate_counterfactual_graph(g, 0.5, 0.5, seed=1)
    for iters in (1, 3, 5):
        models.reset_forward_calls()
        edge_sensitivity_scores(params, g, gstar, edits, mask_iters=iters)
        assert models.FORWARD_CALLS == 2 * iters


@pytest.mark.parametrize("arg, value, message", [
    ("mask_iters", 0, "mask_iters must be >= 1"),
    ("mask_iters", 2.5, "mask_iters must be an integer, got 2.5"),
    *[("binarize_threshold", t, "binarize_threshold must lie in (0, 1)")
      for t in (0, 1, 2.0, np.nan)],
    *[("mask_lr", lr, "mask_lr must be positive and finite")
      for lr in (0, -1, np.nan, np.inf)],
])
def test_scores_refuse_what_the_config_refuses(arg, value, message):
    cfg = EditTrainConfig()
    setattr(cfg, arg, value)
    with pytest.raises(GraphError) as info:
        cfg.validate()
    assert str(info.value) == message
    # the scorer refuses it with the same line, before any forward
    g = random_graph(8, 0.4, 3)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    gstar, edits = generate_counterfactual_graph(g, 0.5, 0.5, seed=1)
    start = models.FORWARD_CALLS
    with pytest.raises(GraphError) as info:
        edge_sensitivity_scores(params, g, gstar, edits, **{arg: value})
    assert str(info.value) == message
    assert models.FORWARD_CALLS == start


def test_scores_leave_params_unchanged():
    g = random_graph(8, 0.4, 3)
    params = init_params("gcn", g.d, 4, 2, seed=0)
    before = [t.values.copy() for t in params.parameters()]
    gstar, edits = generate_counterfactual_graph(g, 0.5, 0.5, seed=1)
    edge_sensitivity_scores(params, g, gstar, edits)
    for t, b in zip(params.parameters(), before):
        np.testing.assert_array_equal(t.values, b)
        assert t.grad is None
        assert t.requires_grad


def test_score_gradient_matches_finite_differences():
    # 2-node, single-edit instance, one mask iteration: |dL/dscore| equals
    # central finite differences on the scalar score
    from fairedit import autodiff as ad
    from fairedit.models import DEFAULT_INIT_SCORE, ScoreMatrix
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(2, 2))
    feats[:, 0] = [0, 1]
    g = Graph.build(feats, [], [0, 1], [0, 1], 0)
    gstar = Graph.build(feats, [(0, 1)], [0, 1], [0, 1], 0)
    edits = [EdgeEdit.add(0, 1)]
    params = init_params("gcn", 2, 4, 2, seed=1)

    scores = edge_sensitivity_scores(params, g, gstar, edits, mask_iters=1)

    def loss_at(score_val):
        mask = ScoreMatrix(gstar, init_score=score_val)
        out_g = models.forward(params, g)
        out_s = models.forward(params, gstar, mask=mask)
        return ad.l1_diff(out_g, out_s).item()

    s0 = DEFAULT_INIT_SCORE
    step = 1e-4
    numeric = (loss_at(s0 + step) - loss_at(s0 - step)) / (2 * step)
    got = scores[0]
    assert got == pytest.approx(abs(numeric), rel=1e-3)


def test_select_edit_rules():
    batch = EditBatch.of([EdgeEdit.add(0, 2), EdgeEdit.delete(1, 3)])
    assert select_edit(batch, np.array([0.7, 0.2])) == 0
    assert select_edit(batch, np.array([0.5, 0.5])) == 1   # Delete < Add on ties
    assert select_edit(EditBatch.of([EdgeEdit.add(0, 5)]), np.array([1.0])) == 0
    with pytest.raises(GraphError):
        select_edit(EditBatch.of([]), np.zeros(0))


@pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)])
def test_select_edit_refuses_importance_of_another_shape(shape):
    batch = EditBatch.of([EdgeEdit.add(0, 2), EdgeEdit.delete(1, 3)])
    with pytest.raises(GraphError) as info:
        select_edit(batch, np.zeros(shape))
    assert str(info.value) == f"select_edit: importance of shape {shape} for 2 edits"


@st.composite
def _scored_batches(draw):
    """An edit batch on distinct (kind, u, v) rows, in any row order, with
    importances drawn from a few values so that ties, at 0.0 too, are
    common."""
    n = draw(st.integers(2, 7))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, n - 2), st.integers(1, n - 1))
        .filter(lambda r: r[1] < r[2]), min_size=1, max_size=12, unique=True))
    values = draw(st.lists(st.floats(0, 10), min_size=1, max_size=3)) + [0.0]
    importance = np.array([draw(st.sampled_from(values)) for _ in rows])
    batch = EditBatch(np.array([r[0] for r in rows], dtype=np.int8),
                      np.array([r[1:] for r in rows], dtype=np.int64))
    return batch, importance


@settings(max_examples=300, deadline=None)
@given(case=_scored_batches())
def test_select_edit_matches_min_rule(case):
    # the former rule over a {EdgeEdit: score} map: largest score, then
    # Delete < Add, then u, then v
    batch, importance = case
    scores = dict(zip(batch_edits(batch), importance.tolist()))
    want = min(scores, key=lambda e: (-scores[e], sort_key(e)))
    assert batch.edit(select_edit(batch, importance)) == want


# ---------------------------------------------------------------------------
# training loops

def _split_graph(n, seed):
    from fairedit.graph import SyntheticSpec, synth_biased_graph, with_split
    spec = SyntheticSpec(n=n, homophily=0.7, edge_density=3, label_bias=0.5,
                         seed=seed)
    return with_split(synth_biased_graph(spec), seed=seed)


@pytest.mark.parametrize("method", ["bruteforce", "fairedit"])
def test_alpha_zero_bitwise_identical_to_plain_training(method):
    g = _split_graph(20, 0)
    cfg = EditTrainConfig(alpha=0, K=15, seed=0)
    p_plain = init_params("gcn", g.d, 8, 2, seed=3)
    train(p_plain, g, Adam(0.01), 15)
    p_edit = init_params("gcn", g.d, 8, 2, seed=3)
    fn = train_bruteforce if method == "bruteforce" else train_fairedit
    _, g_out, trace = fn(p_edit, g, Adam(0.01), cfg)
    assert trace.entries == []
    assert g_out.edges == g.edges
    for a, b in zip(p_plain.parameters(), p_edit.parameters()):
        np.testing.assert_array_equal(a.values, b.values)


def test_fairedit_zero_probs_identical_to_plain_training():
    g = _split_graph(20, 1)
    cfg = EditTrainConfig(alpha=5, K=12, rho=0.0, gamma=0.0, seed=0)
    p_plain = init_params("sage", g.d, 8, 2, seed=4)
    train(p_plain, g, Adam(0.01), 12)
    p_edit = init_params("sage", g.d, 8, 2, seed=4)
    _, g_out, trace = train_fairedit(p_edit, g, Adam(0.01), cfg)
    assert trace.entries == []
    assert trace.skipped_epochs == [1, 2, 3, 4, 5]
    for a, b in zip(p_plain.parameters(), p_edit.parameters()):
        np.testing.assert_array_equal(a.values, b.values)


def test_k_zero_params_unchanged():
    g = _split_graph(16, 2)
    p = init_params("gcn", g.d, 8, 2, seed=0)
    before = [t.values.copy() for t in p.parameters()]
    train_bruteforce(p, g, Adam(0.01), EditTrainConfig(alpha=0, K=0))
    for t, b in zip(p.parameters(), before):
        np.testing.assert_array_equal(t.values, b)


def test_bruteforce_trace_and_improvement():
    g, params = _planted_graph_and_model(8, 5)
    cfg = EditTrainConfig(alpha=3, K=5, seed=0)
    from fairedit.metrics import counterfactual_unfairness
    _, g_out, trace = train_bruteforce(params, g, SGD(1e-9), cfg)
    assert len(trace.entries) == 3
    assert len(set((e.edit.u, e.edit.v) for e in trace.entries)) <= 3
    # with frozen-in-effect params (tiny lr), each selected edit achieved the
    # minimum F_C over its candidate set by construction
    for e in trace.entries:
        assert 0.0 <= e.score <= 1.0


def test_bruteforce_candidate_cap():
    g = _split_graph(30, 3)
    cfg = EditTrainConfig(alpha=1, K=1, candidate_cap=20)
    p = init_params("gcn", g.d, 4, 2, seed=0)
    with pytest.raises(CandidateCapExceeded):
        train_bruteforce(p, g, Adam(0.01), cfg)
    # raising the cap unblocks it
    cfg2 = EditTrainConfig(alpha=1, K=1, candidate_cap=30)
    train_bruteforce(p, g, Adam(0.01), cfg2)


def test_trace_length_bounded_by_alpha():
    g = _split_graph(16, 4)
    cfg = EditTrainConfig(alpha=4, K=8, rho=0.3, gamma=0.3, seed=1)
    p = init_params("gcn", g.d, 8, 2, seed=0)
    _, _, trace = train_fairedit(p, g, Adam(0.01), cfg)
    assert len(trace.entries) + len(trace.skipped_epochs) == 4


def test_edited_graphs_valid():
    g = _split_graph(16, 5)
    cfg = EditTrainConfig(alpha=3, K=5, rho=0.3, gamma=0.3, seed=2)
    p = init_params("gcn", g.d, 8, 2, seed=0)
    _, g_out, _ = train_fairedit(p, g, Adam(0.01), cfg)
    g_out.validate()


def test_eval_nodes_leaves_fairedit_unchanged():
    # eval_nodes drives brute-force selection only: FairEdit's mask loss
    # covers all nodes, so its edits and weights do not depend on it
    g = _split_graph(16, 4)
    runs = {}
    for nodes in ("train", "val"):
        cfg = EditTrainConfig(alpha=4, K=6, rho=0.3, gamma=0.3, seed=1,
                              eval_nodes=nodes)
        p = init_params("gcn", g.d, 8, 2, seed=0)
        _, g_out, trace = train_fairedit(p, g, Adam(0.01), cfg)
        runs[nodes] = (trace.serialize(), g_out.keys.tobytes(),
                       [t.values.tobytes() for t in p.parameters()])
    assert runs["train"][0]
    assert runs["train"] == runs["val"]


def test_trace_serialization():
    g, params = _planted_graph_and_model(8, 7)
    cfg = EditTrainConfig(alpha=2, K=3, seed=0)
    _, _, trace = train_bruteforce(params, g, Adam(0.01), cfg)
    text = trace.serialize()
    lines = text.splitlines()
    assert len(lines) == 2
    for ln, entry in zip(lines, trace.entries):
        epoch, kind, u, v, score = ln.split()
        assert int(epoch) == entry.epoch
        assert kind in ("add", "delete")
        assert float(score) == entry.score


def test_fairedit_pick_ranks_well_against_bruteforce_oracle():
    """On small planted fixtures, the gradient-selected edit should land in
    the top of the brute-force F_C ranking of the same candidate set.
    Threshold calibrated once before freezing (see test body)."""
    from fairedit.metrics import counterfactual_unfairness
    hits = trials = 0
    for seed in range(50):
        g, params = _planted_graph_and_model(12, seed)
        gstar, edits = generate_counterfactual_graph(g, 0.25, 0.25, seed=seed)
        if len(edits) < 4:
            continue
        scores = edge_sensitivity_scores(params, g, gstar, edits)
        pick = edits.edit(select_edit(edits, scores))
        edits = batch_edits(edits)
        fcs = {e: counterfactual_unfairness(params, apply_edit(g, e),
                                            g.train_mask) for e in edits}
        # tie-aware rank: F_C is discrete on small masks, so many candidates
        # tie at the minimum; count only strictly better ones
        rank = sum(1 for e in edits if fcs[e] < fcs[pick])
        trials += 1
        if rank < max(1, int(np.ceil(0.2 * len(edits)))):
            hits += 1
    # calibration run measured 46/50 = 92% top-20% hits; frozen at >= 60%
    assert trials >= 30
    assert hits / trials >= 0.60


@pytest.mark.parametrize("field, value, message", [
    ("seed", -1, "seed must be >= 0"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("alpha", 2.5, "alpha must be an integer, got 2.5"),
    ("K", 3.0, "K must be an integer, got 3.0"),
    ("mask_iters", 2.5, "mask_iters must be an integer, got 2.5"),
    ("candidate_cap", 10.0, "candidate_cap must be an integer, got 10.0"),
])
def test_config_refuses_negative_seed_and_fractional_counts(field, value, message):
    cfg = EditTrainConfig(alpha=2, K=3, seed=0)
    setattr(cfg, field, value)
    with pytest.raises(GraphError) as info:
        cfg.validate()
    assert str(info.value) == message
    # both training loops refuse it before the first epoch
    g = random_graph(6, 0.5, 0)
    for run in (train_fairedit, train_bruteforce):
        p = init_params("gcn", g.d, 4, 2, seed=0)
        with pytest.raises(GraphError, match=message.split(",")[0]):
            run(p, g, Adam(0.01), cfg)


def test_config_takes_numpy_integers():
    EditTrainConfig(alpha=np.int64(2), K=np.int64(3), mask_iters=np.int32(1),
                    seed=np.int64(4), candidate_cap=np.int64(10)).validate()


def _acceptance6_graph(seed, n=400):
    from fairedit.graph import (SyntheticSpec, normalize_features,
                                synth_biased_graph, with_split)
    spec = SyntheticSpec(n=n, homophily=0.9, edge_density=2, label_bias=0.8,
                         seed=seed)
    g = with_split(synth_biased_graph(spec), seed=seed)
    return g.replace(features=normalize_features(g.features, g.train_mask,
                                                 g.sensitive_col))


def _digests(trace, g_out):
    return (hashlib.sha256(trace.serialize().encode()).hexdigest(),
            hashlib.sha256(g_out.pairs.tobytes()).hexdigest())


# SHA-256 of trace.serialize() and of the final edge pairs' bytes, recorded
# with the sampler that built an n x n cross-pair matrix and the dict-based
# selection that the array batch replaced
GOLDEN_TRACES = {
    0: ("9e6046525e1e77fd119bf50b5a496340f1a5e7ebeb8a715e74d251d175b891cc",
        "c446fad53049abc7e89dc8389f9533fac8e5d2d9e40483cd4faf1727cc8a3e1c"),
    1: ("7c7961135717f9f3d68800842fff5825cd00da3f88f70d1c449e275a3ba20b68",
        "94a6336d94cbc0264147734ab87a403b439025cc4ea373f39bcf01c9bb1f0123"),
}


def _fairedit_digests(arch, seed):
    # the acceptance-6 setup with K and alpha cut from 250/190 to 60/40
    g = _acceptance6_graph(seed)
    p = init_params(arch, g.d, 16, 3, seed=seed)
    cfg = EditTrainConfig(alpha=40, K=60, rho=0.0075, gamma=0.25, mask_iters=5,
                          seed=seed)
    _, g_out, trace = train_fairedit(p, g, Adam(0.01), cfg)
    assert len(trace.entries) == 40
    assert set(trace.selection_forwards.values()) == {10}
    return _digests(trace, g_out)


@pytest.mark.parametrize("seed", sorted(GOLDEN_TRACES))
def test_fairedit_golden_trace(seed):
    assert _fairedit_digests("gcn", seed) == GOLDEN_TRACES[seed]


# the same pins for the other two architectures, recorded with one
# np.bincount per column in every aggregation and the gate recomputed per
# layer
GOLDEN_TRACES_SAGE_APPNP = {
    ("sage", 0): (
        "cb2e5d352137cad695d84dc08e9bc19b5caa6b5557469c0af39758fdeab3d755",
        "9d7761fb0e2d7c19ff6f56272fff81ab5a26b798c8ce293ad235ae53f9fe8241"),
    ("sage", 1): (
        "51aeb95e44bb0a7b2cd733654cd01f67e3686d37798762518f5173479894b36c",
        "a27697fd722b6603290aac2e53721170a9906a74daa9bf4c286b9e6bf8bdaa96"),
    ("appnp", 0): (
        "7d36e730473da6626f99dd7561c08ded8d8ed179981b9a0f61ea92ce862418df",
        "ec169c42401ed5b166d3b70dccabdb8e08e9f6dc4d2da192230bb43ccd93f641"),
    ("appnp", 1): (
        "090b3f93f7a81d578fd2aa8b3d7609a1e815a4e8154645d915497df0da9b5b56",
        "f10eeb59c0bedc6aaac6fca32e19800fcc5b52f45e79fd7062a6988edc90ee2a"),
}


@pytest.mark.parametrize("arch, seed", sorted(GOLDEN_TRACES_SAGE_APPNP))
def test_fairedit_golden_trace_sage_appnp(arch, seed):
    assert _fairedit_digests(arch, seed) == GOLDEN_TRACES_SAGE_APPNP[arch, seed]


# SHA-256 of trace.serialize() and of the final edge pairs' bytes, recorded
# with candidate twins stacked from scratch and a full layer 0 per candidate
GOLDEN_BRUTEFORCE_TRACES = {
    ("gcn", 0): (
        "0f266d230aee54797603157197ad51f49f33a4f3937ba9510fc9e18091d51790",
        "fa8fd7b28ebffdf332a823465b41b095a0efd8090e8f39a61e603b2a72d7f77e"),
    ("gcn", 1): (
        "76194e9f1ff952702c1555249d4475c0a595b510628e536d211a4a15518a15f0",
        "f5dac3888c43256e8a205218a4cb1b8af9a556c4f355ac03437546ee184310d7"),
    ("sage", 0): (
        "4c28329bec9dddb7f62fef39248502df0d4f20577be097cb3b8ac5629c861ee7",
        "913ae257cb55e39cf0196a80b6adc453638e23f600c5c460e66ebbea9cb73ef3"),
    ("sage", 1): (
        "51b605cb2bac2883b4dc2229ea7ba7d7331670ae4eb6df5722c41130e4e4bde8",
        "031bba620ee6ec5a5f2a738be7fa25e43cf4a35c5cc75f10ea532e65fedec979"),
    # recorded with each candidate's twin edges laid out by transposes of
    # its pairs and a four-fold tile of its edge coefficients
    ("appnp", 0): (
        "fadc699f18d2d740cf8f3f01d399cfc93c47943122518f7eaf41f2ba1cb2b773",
        "83c68ec54c01b864fe64a49c115c288a70ee5b00049fb304fe00f351a25292db"),
    ("appnp", 1): (
        "6e6994c0be97c155d50a67a87cd636183ecef424edb51911c4195238715fd83a",
        "461c8d4fd28c736c636d5a40a0288e7aa276f706a087f293cb33850b4ea02fde"),
}


@pytest.mark.parametrize("arch, seed", sorted(GOLDEN_BRUTEFORCE_TRACES))
def test_bruteforce_golden_trace(arch, seed):
    # the acceptance-6 graph shape at n=40: 780 candidates per edit epoch
    g = _acceptance6_graph(seed, n=40)
    p = init_params(arch, g.d, 8, 2, seed=seed)
    _, g_out, trace = train_bruteforce(p, g, Adam(0.05),
                                       EditTrainConfig(alpha=2, K=3, seed=seed))
    assert set(trace.selection_forwards.values()) == {40 * 39 // 2 + 1}
    assert _digests(trace, g_out) == GOLDEN_BRUTEFORCE_TRACES[arch, seed]
