"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line.
Tolerances, seed counts, and runtime budgets are pinned in the assertions;
the fairness-trend thresholds were frozen after a pre-registered calibration
run of both training methods (see the repository notes).
"""
import os
import time

import numpy as np
import pytest

import fairedit.autodiff as ad
import fairedit.models as models
from fairedit.autodiff import Adam, SGD, Tensor, backward
from fairedit.editing import (EditTrainConfig, brute_force_select,
                              train_bruteforce, train_fairedit)
from fairedit.graph import (EdgeEdit, EditKind, Exhaustive, Graph,
                            SyntheticSpec, candidate_edits, load_edge_list,
                            load_node_table, normalize_features,
                            synth_biased_graph, with_split)
from fairedit.metrics import (counterfactual_unfairness, delta_eo, delta_sp,
                              evaluate, f1_score, instability)
from fairedit.models import NormalizedAdjacency, ScoreMatrix, init_params, train

from conftest import finite_diff, random_graph, rel_err


def _verdict(tag, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'} [{tag}] {detail}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# 1. every autodiff op matches central finite differences
#    (20 seeds per op, relative error < 1e-4, under 10 s)

def _fd_check(build_loss, tensors, tol=1e-4):
    loss = build_loss()
    backward(loss)
    worst = 0.0
    for t in tensors:
        numeric = finite_diff(lambda: build_loss().item(), t.values)
        worst = max(worst, rel_err(t.grad, numeric))
    return worst


_OP_CASES = {
    "matmul": (lambda a, b: ad.sum_all(ad.matmul(a, b)), [(3, 4), (4, 2)]),
    "add": (lambda a, b: ad.sum_all(ad.sigmoid(ad.add(a, b))), [(3, 2), (3, 2)]),
    "add_bias": (lambda a, b: ad.sum_all(ad.sigmoid(ad.add(a, b))), [(3, 2), (1, 2)]),
    "sub": (lambda a, b: ad.sum_all(ad.sigmoid(ad.sub(a, b))), [(3, 2), (3, 2)]),
    "mul": (lambda a, b: ad.sum_all(ad.mul(a, b)), [(3, 2), (3, 2)]),
    "scale": (lambda a: ad.sum_all(ad.scale(a, 1.7)), [(4, 3)]),
    "concat_cols": (lambda a, b: ad.sum_all(ad.sigmoid(ad.concat_cols(a, b))),
                    [(3, 2), (3, 3)]),
    "row_mean": (lambda a: ad.sum_all(ad.sigmoid(ad.row_mean(a))), [(4, 3)]),
    "sum_all": (lambda a: ad.sum_all(ad.mul(a, a)), [(4, 3)]),
    "relu": (lambda a: ad.sum_all(ad.relu(a)), [(4, 3)]),
    "sigmoid": (lambda a: ad.sum_all(ad.sigmoid(a)), [(4, 3)]),
    "l1_diff": (lambda a, b: ad.l1_diff(a, b), [(4, 2), (4, 2)]),
}


def _masked_aggregate_worst(seed):
    g = random_graph(6, 0.5, seed)
    mask = ScoreMatrix(g, init_score=0.3)
    rng = np.random.default_rng(seed + 100)
    h = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    adj = NormalizedAdjacency(g)

    def loss():
        out = ad.edge_aggregate(h, adj.src, adj.dst, adj.coef,
                                self_coef=adj.self_coef, scores=mask.scores,
                                score_idx=adj.score_idx,
                                active=mask.active[adj.score_idx])
        return ad.sum_all(ad.sigmoid(out))

    l = loss()
    backward(l)
    worst = max(
        rel_err(h.grad, finite_diff(lambda: loss().item(), h.values)),
        rel_err(mask.scores.grad,
                finite_diff(lambda: loss().item(), mask.scores.values)),
    )
    return worst


def test_acceptance_1_gradients_match_finite_differences():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        for name, (build, shapes) in _OP_CASES.items():
            tensors = [Tensor(rng.normal(size=s), requires_grad=True)
                       for s in shapes]
            worst = max(worst, _fd_check(lambda: build(*tensors), tensors))
        z = Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        y = rng.integers(0, 2, size=5)
        m = np.ones(5, dtype=bool)
        worst = max(worst, _fd_check(lambda: ad.bce_with_logits(z, y, m), [z]))
        worst = max(worst, _masked_aggregate_worst(seed))
    elapsed = time.monotonic() - t0
    _verdict("1 gradient checks",
             worst < 1e-4 and elapsed < 10.0,
             f"worst rel err {worst:.2e} (< 1e-4), {elapsed:.1f}s (< 10s), "
             f"{len(_OP_CASES) + 2} ops x 20 seeds")


# ---------------------------------------------------------------------------
# 2. brute-force edit selection equals an independently coded exhaustive
#    argmin of counterfactual unfairness (20 seeds, n <= 12, exact, < 30 s)

def _dense_gcn_predict(params, features, edges, n):
    A = np.zeros((n, n))
    for u, v in edges:
        A[u, v] = A[v, u] = 1.0
    A += np.eye(n)
    dinv = 1.0 / np.sqrt(A.sum(axis=1))
    Ahat = dinv[:, None] * A * dinv[None, :]
    H = features
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        H = Ahat @ H @ w.values + b.values
        if i < last:
            H = np.maximum(H, 0.0)
    return (H[:, 0] > 0).astype(int)


def _dense_fc(params, g, edges, mask):
    flipped = g.features.copy()
    flipped[:, g.sensitive_col] = 1 - flipped[:, g.sensitive_col]
    a = _dense_gcn_predict(params, g.features, edges, g.n)
    b = _dense_gcn_predict(params, flipped, edges, g.n)
    return float(np.mean(a[mask] != b[mask]))


def _dense_best_edit(params, g, mask):
    eset = set(g.edges)
    best = None
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if (u, v) in eset:
                edges = [e for e in g.edges if e != (u, v)]
                rank = 0
            else:
                edges = list(g.edges) + [(u, v)]
                rank = 1
            key = (_dense_fc(params, g, edges, mask), rank, u, v)
            if best is None or key < best:
                best = key
    fc, rank, u, v = best
    return EdgeEdit(EditKind.DELETE if rank == 0 else EditKind.ADD, u, v), fc


def test_acceptance_2_bruteforce_matches_exhaustive_oracle():
    t0 = time.monotonic()
    hits = 0
    for seed in range(20):
        n = 6 + seed % 7          # sizes 6..12
        g = random_graph(n, 0.45, seed, d_extra=2)
        params = init_params("gcn", g.d, 4, 2, seed=seed + 1000)
        rng = np.random.default_rng(seed + 2000)
        params.weights[0].values[g.sensitive_col, :] += rng.normal(2.0, 0.5, 4)
        cands = candidate_edits(g, Exhaustive())
        edit, score = brute_force_select(params, g, cands, g.train_mask)
        oracle_edit, oracle_score = _dense_best_edit(params, g, g.train_mask)
        if edit == oracle_edit and score == oracle_score:
            hits += 1
    elapsed = time.monotonic() - t0
    _verdict("2 brute-force oracle equivalence",
             hits == 20 and elapsed < 30.0,
             f"{hits}/20 seeds exact (need 20/20), {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# 3. hand-computed metric fixtures, exact to 1e-12

def _linear_model(weight_rows, bias=0.0):
    w = Tensor(np.array(weight_rows, dtype=float).reshape(-1, 1),
               requires_grad=True)
    b = Tensor(np.full((1, 1), bias), requires_grad=True)
    return models.ModelParams("gcn", [w], [b])


def test_acceptance_3_metric_fixtures_exact():
    tol = 1e-12
    checks = []

    # f1: TP=2, FP=1, FN=1 -> 2 / (2 + 1)
    v = f1_score([1, 1, 1, 0, 0], [1, 1, 0, 1, 0], np.ones(5, dtype=bool))
    checks.append(("f1", v, 2.0 / 3.0))

    # delta_sp on the 4-node fixture: rates 1.0 vs 0.5
    all4 = np.ones(4, dtype=bool)
    checks.append(("delta_sp",
                   delta_sp([1, 0, 1, 1], [0, 0, 1, 1], all4), 0.5))

    # delta_eo on the 4-node all-positive fixture: TPRs 1.0 vs 0.5
    checks.append(("delta_eo",
                   delta_eo([1, 0, 1, 1], [1, 1, 1, 1], [0, 0, 1, 1], all4),
                   0.5))

    # counterfactual unfairness: isolated node, logit = 2 s - 1 flips sign
    g1 = Graph.build(np.array([[1.0]]), [], [1], [1], 0)
    checks.append(("counterfactual",
                   counterfactual_unfairness(_linear_model([2.0], -1.0), g1,
                                             np.ones(1, dtype=bool)), 1.0))

    # instability: zero noise changes nothing
    g8 = random_graph(8, 0.4, 2)
    p8 = init_params("gcn", g8.d, 8, 2, seed=0)
    checks.append(("instability_sigma0",
                   instability(p8, g8, np.ones(8, dtype=bool), sigma=0.0), 0.0))

    # joint 4-node report: preds equal s, every prediction flips with s
    feats = np.array([[0.0], [0.0], [1.0], [1.0]])
    g4 = Graph.build(feats, [], [0, 0, 1, 1], [1, 1, 1, 1], 0,
                     test_mask=np.ones(4, dtype=bool))
    rep = evaluate(_linear_model([2.0], -1.0), g4, sigma=0.0, seed=0)
    checks.extend([("report_f1", rep.f1, 2.0 / 3.0),
                   ("report_unfairness", rep.unfairness, 1.0),
                   ("report_instability", rep.instability, 0.0),
                   ("report_delta_sp", rep.delta_sp, 1.0),
                   ("report_delta_eo", rep.delta_eo, 1.0)])

    bad = [(name, got, want) for name, got, want in checks
           if abs(got - want) > tol]
    _verdict("3 metric fixtures", not bad,
             f"{len(checks)} fixtures exact to 1e-12" if not bad
             else f"mismatches: {bad}")


# ---------------------------------------------------------------------------
# 4. degenerate edit settings reduce bitwise to plain training

def _split_graph(n, seed):
    spec = SyntheticSpec(n=n, homophily=0.7, edge_density=3, label_bias=0.5,
                         seed=seed)
    return with_split(synth_biased_graph(spec), seed=seed)


def test_acceptance_4_baseline_reductions_bitwise():
    g = _split_graph(20, 0)
    cases = [
        ("fairedit rho=gamma=0",
         train_fairedit, EditTrainConfig(alpha=5, K=12, rho=0.0, gamma=0.0)),
        ("fairedit alpha=0",
         train_fairedit, EditTrainConfig(alpha=0, K=12)),
        ("bruteforce alpha=0",
         train_bruteforce, EditTrainConfig(alpha=0, K=12)),
    ]
    failures = []
    for name, fn, cfg in cases:
        p_plain = init_params("gcn", g.d, 8, 2, seed=3)
        train(p_plain, g, Adam(0.01), cfg.K)
        p_edit = init_params("gcn", g.d, 8, 2, seed=3)
        _, g_out, trace = fn(p_edit, g, Adam(0.01), cfg)
        same = (g_out.edges == g.edges and not trace.entries and
                all(np.array_equal(a.values, b.values) for a, b in
                    zip(p_plain.parameters(), p_edit.parameters())))
        if not same:
            failures.append(name)
    _verdict("4 baseline reductions", not failures,
             "3/3 settings bitwise-identical to plain training"
             if not failures else f"diverged: {failures}")


# ---------------------------------------------------------------------------
# 5. measured selection cost: |candidates| + 1 forwards per brute-force edit
#    epoch, 2 * mask_iters per counterfactual-guided epoch (independent of n),
#    and brute-force wall-clock grows superlinearly in n

def test_acceptance_5_forward_counts_and_scaling():
    details = []
    ok = True

    # brute force: every edit epoch costs exactly n(n-1)/2 + 1 forwards
    for n in (12, 16):
        g = _split_graph(n, 1)
        cfg = EditTrainConfig(alpha=2, K=2, candidate_cap=10_000)
        p = init_params("gcn", g.d, 4, 2, seed=0)
        _, _, trace = train_bruteforce(p, g, SGD(1e-9), cfg)
        want = n * (n - 1) // 2 + 1
        got = sorted(trace.selection_forwards.values())
        ok &= got == [want, want]
        details.append(f"bruteforce n={n}: {got} (want {want} each)")

    # counterfactual-guided: 2 * mask_iters forwards, independent of n
    for n, iters in ((20, 3), (60, 5)):
        g = _split_graph(n, 2)
        cfg = EditTrainConfig(alpha=2, K=3, rho=0.3, gamma=0.3,
                              mask_iters=iters, seed=0)
        p = init_params("gcn", g.d, 4, 2, seed=0)
        _, _, trace = train_fairedit(p, g, Adam(0.01), cfg)
        got = sorted(set(trace.selection_forwards.values()))
        ok &= got == [2 * iters]
        details.append(f"fairedit n={n} iters={iters}: {got} (want {2 * iters})")

    # wall clock of one brute-force selection over the exhaustive candidate
    # set: monotone and faster than linear growth in n
    times = {}
    for n in (50, 100, 200):
        spec = SyntheticSpec(n=n, homophily=0.7, edge_density=2,
                             label_bias=0.5, seed=0)
        g = with_split(synth_biased_graph(spec), seed=0)
        p = init_params("gcn", g.d, 4, 2, seed=0)
        cands = candidate_edits(g, Exhaustive())
        t0 = time.monotonic()
        brute_force_select(p, g, cands, g.train_mask)
        times[n] = time.monotonic() - t0
    superlinear = (times[50] < times[100] < times[200] and
                   times[200] / times[50] > 4.0)
    ok &= superlinear
    details.append("wall clock " +
                   ", ".join(f"n={n}: {t:.2f}s" for n, t in times.items()) +
                   f", x{times[200] / times[50]:.1f} for 4x nodes (> 4)")

    _verdict("5 selection cost", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. synthetic fairness trend on the frozen biased-graph benchmark
#    (n=400, homophily 0.9, label_bias 0.8, 10 seeds, < 5 min):
#    counterfactual-guided editing cuts mean statistical parity gap to
#    <= 0.8x plain training while mean F1 stays within 0.05

def _benchmark_graph(seed):
    spec = SyntheticSpec(n=400, homophily=0.9, edge_density=2, label_bias=0.8,
                         seed=seed)
    g = with_split(synth_biased_graph(spec), seed=seed)
    feats = normalize_features(g.features, g.train_mask, g.sensitive_col)
    return g.replace(features=feats)


def test_acceptance_6_synthetic_fairness_trend():
    t0 = time.monotonic()
    std_sp, fe_sp, std_f1, fe_f1 = [], [], [], []
    for seed in range(10):
        g = _benchmark_graph(seed)
        p = init_params("gcn", g.d, 16, 3, seed=seed)
        train(p, g, Adam(0.01), 250)
        rs = evaluate(p, g, seed=seed)

        g2 = _benchmark_graph(seed)
        p2 = init_params("gcn", g2.d, 16, 3, seed=seed)
        cfg = EditTrainConfig(alpha=190, K=250, rho=0.0075, gamma=0.25,
                              mask_iters=5, seed=seed)
        _, g_edited, _ = train_fairedit(p2, g2, Adam(0.01), cfg)
        rf = evaluate(p2, g_edited, seed=seed)

        std_sp.append(rs.delta_sp)
        fe_sp.append(rf.delta_sp)
        std_f1.append(rs.f1)
        fe_f1.append(rf.f1)
    elapsed = time.monotonic() - t0
    ratio = float(np.mean(fe_sp)) / float(np.mean(std_sp))
    f1_gap = abs(float(np.mean(fe_f1)) - float(np.mean(std_f1)))
    _verdict("6 synthetic fairness trend",
             ratio <= 0.8 and f1_gap <= 0.05 and elapsed < 300.0,
             f"parity ratio {ratio:.3f} (<= 0.8), F1 gap {f1_gap:.4f} "
             f"(<= 0.05), {elapsed:.0f}s (< 300s), 10 seeds")


# ---------------------------------------------------------------------------
# 7. optional real-dataset sanity band: plain-training GCN test F1 on the
#    German credit graph lands in [0.55, 0.78] (runs only when the data
#    files are present)

_DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "data")


def test_acceptance_7_german_credit_sanity_band():
    nodes = os.path.join(_DATA_DIR, "german_nodes.csv")
    edges = os.path.join(_DATA_DIR, "german_edges.txt")
    if not (os.path.exists(nodes) and os.path.exists(edges)):
        print("\nSKIP [7 German credit sanity band] data/german_nodes.csv and "
              "data/german_edges.txt not present")
        pytest.skip("German credit data files not present")
    feats, sensitive, labels, s_col = load_node_table(nodes)
    edge_list = load_edge_list(edges, feats.shape[0])
    f1s = []
    for seed in range(5):
        g = with_split(Graph.build(feats, edge_list, sensitive, labels, s_col),
                       seed=seed)
        g = g.replace(features=normalize_features(g.features, g.train_mask,
                                                  g.sensitive_col))
        p = init_params("gcn", g.d, 16, 2, seed=seed)
        train(p, g, Adam(0.01), 200)
        pred = models.predict(models.forward(p, g))
        f1s.append(f1_score(pred, g.labels, g.test_mask))
    mean_f1 = float(np.mean(f1s))
    _verdict("7 German credit sanity band",
             0.55 <= mean_f1 <= 0.78,
             f"mean test F1 {mean_f1:.3f} over 5 seeds in [0.55, 0.78]")


# ---------------------------------------------------------------------------
# 8. exact reproduction of previously published benchmark tables is
#    explicitly out of scope (seeds, splits, and winning hyperparameters for
#    those numbers were never published); criteria 1-6 carry acceptance

def test_acceptance_8_exact_benchmark_reproduction_not_asserted():
    _verdict("8 scope note", True,
             "exact published-number reproduction intentionally not asserted; "
             "property criteria 1-6 are the gate")
