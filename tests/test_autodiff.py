import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fairedit.autodiff as ad
from fairedit.autodiff import Adam, SGD, Tensor, backward
from fairedit.graph import Graph
from fairedit.models import SATURATING_SCORE, NormalizedAdjacency, ScoreMatrix

from conftest import assert_grad_close, finite_diff


def _scalarize(t):
    return ad.sum_all(t)


def test_matmul_identity():
    b = Tensor(np.arange(6.0).reshape(2, 3))
    out = ad.matmul(Tensor(np.eye(2)), b)
    np.testing.assert_array_equal(out.values, b.values)


def test_matmul_shape_mismatch():
    with pytest.raises(ad.AutodiffError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_concat_cols_shape():
    out = ad.concat_cols(Tensor(np.ones((4, 2))), Tensor(np.ones((4, 5))))
    assert out.shape == (4, 7)


def test_sigmoid_relu_values():
    assert ad.sigmoid(Tensor([[0.0]])).item() == 0.5
    r = ad.relu(Tensor([[-3.0], [3.0]]))
    np.testing.assert_array_equal(r.values, [[0.0], [3.0]])


def test_sigmoid_grad_at_zero():
    x = Tensor([[0.0]], requires_grad=True)
    backward(_scalarize(ad.sigmoid(x)))
    assert abs(x.grad[0, 0] - 0.25) < 1e-12


def test_bce_closed_form():
    logits = Tensor([[0.0]], requires_grad=True)
    loss = ad.bce_with_logits(logits, np.array([1]), np.array([True]))
    assert abs(loss.item() - math.log(2)) < 1e-12


def test_bce_saturation():
    loss = ad.bce_with_logits(Tensor([[50.0]]), np.array([1]), np.array([True]))
    assert loss.item() < 1e-9


def test_bce_empty_mask():
    with pytest.raises(ad.AutodiffError):
        ad.bce_with_logits(Tensor([[0.0]]), np.array([1]), np.array([False]))


def test_l1_diff_values():
    a = Tensor([[1.0], [2.0]])
    b = Tensor([[0.0], [4.0]])
    assert ad.l1_diff(a, b).item() == 3.0
    assert ad.l1_diff(a, a).item() == 0.0


def test_l1_diff_sign_gradient():
    a = Tensor([[1.0], [2.0]], requires_grad=True)
    b = Tensor([[0.0], [4.0]])
    backward(ad.l1_diff(a, b))
    np.testing.assert_array_equal(a.grad, [[1.0], [-1.0]])


def test_backward_on_nonscalar():
    with pytest.raises(ad.AutodiffError):
        backward(Tensor(np.ones((2, 1)), requires_grad=True))


def test_sum_backward_ones():
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    backward(ad.sum_all(w))
    np.testing.assert_array_equal(w.grad, np.ones((3, 2)))


def test_grad_accumulation_without_clear():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    backward(ad.sum_all(w))
    backward(ad.sum_all(w))
    np.testing.assert_array_equal(w.grad, 2 * np.ones((2, 2)))


def test_sgd_step():
    w = Tensor([[1.0]], requires_grad=True)
    w.grad = np.array([[1.0]])
    SGD(0.1).step([w])
    assert abs(w.values[0, 0] - 0.9) < 1e-15
    assert w.grad is None


def test_adam_first_step_size():
    # first Adam step moves by ~lr regardless of gradient scale
    w = Tensor([[0.0]], requires_grad=True)
    w.grad = np.array([[123.0]])
    Adam(0.05).step([w])
    assert abs(w.values[0, 0] + 0.05) < 1e-6


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, 0.0, -0.1])
@pytest.mark.parametrize("opt", [SGD, Adam])
def test_optimizer_rejects_bad_learning_rate(opt, lr):
    with pytest.raises(ad.AutodiffError, match="learning_rate"):
        opt(lr)


@pytest.mark.parametrize("kw", [
    {"beta1": 1.0}, {"beta1": -0.1}, {"beta1": math.nan},
    {"beta2": 1.0}, {"beta2": 1.5}, {"beta2": math.nan},
])
def test_adam_rejects_beta_outside_unit_interval(kw):
    with pytest.raises(ad.AutodiffError, match="beta"):
        Adam(0.01, **kw)


@pytest.mark.parametrize("eps", [0.0, -1e-8, math.nan, math.inf])
def test_adam_rejects_bad_eps(eps):
    with pytest.raises(ad.AutodiffError, match="eps"):
        Adam(0.01, eps=eps)


def test_adam_accepts_zero_betas():
    w = Tensor([[0.0]], requires_grad=True)
    w.grad = np.array([[2.0]])
    Adam(0.05, beta1=0.0, beta2=0.0).step([w])
    assert np.isfinite(w.values).all()


def test_forward_does_not_mutate_inputs():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    av, bv = a.values.copy(), b.values.copy()
    backward(ad.sum_all(ad.relu(ad.matmul(a, b))))
    np.testing.assert_array_equal(a.values, av)
    np.testing.assert_array_equal(b.values, bv)


# ---------------------------------------------------------------------------
# Finite-difference gradient checks, 20 seeds per op

def _check_op(build_loss, shapes, seed, tol=1e-4):
    rng = np.random.default_rng(seed)
    tensors = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    loss = build_loss(*tensors)
    backward(loss)
    for t in tensors:
        numeric = finite_diff(lambda: build_loss(*tensors).item(), t.values)
        assert_grad_close(t.grad, numeric, tol)


OPS = {
    "matmul": (lambda a, b: ad.sum_all(ad.matmul(a, b)), [(3, 4), (4, 2)]),
    "add": (lambda a, b: ad.sum_all(ad.sigmoid(ad.add(a, b))), [(3, 2), (3, 2)]),
    "add_bias": (lambda a, b: ad.sum_all(ad.sigmoid(ad.add(a, b))), [(3, 2), (1, 2)]),
    "sub": (lambda a, b: ad.sum_all(ad.sigmoid(ad.sub(a, b))), [(3, 2), (3, 2)]),
    "mul": (lambda a, b: ad.sum_all(ad.mul(a, b)), [(3, 2), (3, 2)]),
    "concat_cols": (lambda a, b: ad.sum_all(ad.sigmoid(ad.concat_cols(a, b))),
                    [(3, 2), (3, 3)]),
    "row_mean": (lambda a: ad.sum_all(ad.sigmoid(ad.row_mean(a))), [(4, 3)]),
    "relu": (lambda a: ad.sum_all(ad.relu(a)), [(4, 3)]),
    "sigmoid": (lambda a: ad.sum_all(ad.sigmoid(a)), [(4, 3)]),
    "scale": (lambda a: ad.sum_all(ad.scale(a, 1.7)), [(4, 3)]),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", range(20))
def test_gradcheck_elementwise(name, seed):
    build, shapes = OPS[name]
    _check_op(build, shapes, seed)


@pytest.mark.parametrize("seed", range(20))
def test_gradcheck_bce(seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=5)
    mask = np.ones(5, dtype=bool)
    _check_op(lambda z: ad.bce_with_logits(z, y, mask), [(5, 1)], seed)


@pytest.mark.parametrize("seed", range(20))
def test_gradcheck_l1(seed):
    # random values never tie exactly, so the subgradient is smooth here
    _check_op(lambda a, b: ad.l1_diff(a, b), [(4, 2), (4, 2)], seed)


def _masked_loss(g, mask, h):
    adj = NormalizedAdjacency(g)
    out = ad.edge_aggregate(h, adj.src, adj.dst, adj.coef,
                            self_coef=adj.self_coef,
                            scores=mask.scores, score_idx=adj.score_idx,
                            active=mask.active[adj.score_idx])
    return ad.sum_all(ad.sigmoid(out))


@pytest.mark.parametrize("seed", range(20))
def test_gradcheck_masked_aggregate(seed):
    from conftest import random_graph
    g = random_graph(6, 0.5, seed)
    mask = ScoreMatrix(g, init_score=0.3)
    rng = np.random.default_rng(seed + 100)
    h = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    loss = _masked_loss(g, mask, h)
    backward(loss)
    num_h = finite_diff(lambda: _masked_loss(g, mask, h).item(), h.values)
    assert_grad_close(h.grad, num_h)
    num_s = finite_diff(lambda: _masked_loss(g, mask, h).item(),
                        mask.scores.values)
    assert_grad_close(mask.scores.grad, num_s)


def test_masked_aggregate_single_edge_score_grad():
    # one edge, unit features: score gradient matches finite differences
    g = Graph.build(np.ones((2, 1)), [(0, 1)], [0, 1], [0, 1], 0,
                    train_mask=[True, True])
    mask = ScoreMatrix(g, init_score=0.0)
    h = Tensor(np.ones((2, 1)))
    loss = _masked_loss(g, mask, h)
    backward(loss)
    num = finite_diff(lambda: _masked_loss(g, mask, h).item(),
                      mask.scores.values)
    assert_grad_close(mask.scores.grad, num)


def test_aggregate_saturated_mask_equals_unmasked():
    from conftest import random_graph
    g = random_graph(8, 0.4, 3)
    adj = NormalizedAdjacency(g)
    h = Tensor(np.random.default_rng(0).normal(size=(8, 3)))
    plain = ad.edge_aggregate(h, adj.src, adj.dst, adj.coef,
                              self_coef=adj.self_coef)
    mask = ScoreMatrix(g, init_score=SATURATING_SCORE)
    masked = ad.edge_aggregate(h, adj.src, adj.dst, adj.coef,
                               self_coef=adj.self_coef, scores=mask.scores,
                               score_idx=adj.score_idx,
                               active=mask.active[adj.score_idx])
    assert np.abs(plain.values - masked.values).max() < 1e-9


def test_aggregate_no_edges_zero_output():
    g = Graph.build(np.ones((3, 1)), [], [0, 1, 0], [0, 1, 0], 0)
    adj = NormalizedAdjacency(g)
    h = Tensor(np.ones((3, 2)))
    out = ad.edge_aggregate(h, adj.src, adj.dst, adj.coef)
    np.testing.assert_array_equal(out.values, np.zeros((3, 2)))


def _add_at_reference(h, src, dst, coef, self_coef, scores, score_idx,
                      active, g):
    """edge_aggregate's output, h gradient and score gradient for upstream
    gradient g, summed with np.add.at."""
    w = coef.copy()
    if scores is not None:
        sig = ad._sigmoid(scores[score_idx, 0])
        w = w * sig * active.astype(np.float64)
    out = np.zeros_like(h)
    np.add.at(out, dst, w[:, None] * h[src])
    gh = np.zeros_like(h)
    np.add.at(gh, src, w[:, None] * g[dst])
    if self_coef is not None:
        out = out + self_coef[:, None] * h
        gh += self_coef[:, None] * g
    gs = None
    if scores is not None:
        gs = np.zeros_like(scores)
        dw = np.einsum("ek,ek->e", g[dst], h[src])
        ds = dw * coef * active.astype(np.float64) * sig * (1.0 - sig)
        np.add.at(gs[:, 0], score_idx, ds)
    return out, gh, gs


_AGGREGATE_CASES = dict(
    n=st.integers(1, 6), k=st.integers(1, 4),
    edges=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
    self_loops=st.booleans(), masked=st.booleans(),
    seed=st.integers(0, 2**32 - 1))


def _check_aggregate_against_add_at(n, k, edges, self_loops, masked, seed,
                                    indexed=False):
    # the bincount kernel must add each bin in np.add.at's (edge) order;
    # magnitudes spread over 16 decades make any other order visible
    rng = np.random.default_rng(seed)
    e = np.array(edges, dtype=np.int64).reshape(-1, 2) % n
    src, dst = e[:, 0], e[:, 1]
    spread = lambda *shape: rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, shape)
    hv, g = spread(n, k), spread(n, k)
    coef = rng.random(len(src))
    self_coef = rng.random(n) if self_loops else None
    scores = score_idx = active = None
    if masked:
        m = max(len(src) // 2, 1)
        scores = rng.normal(size=(m, 1)) * 3.0
        score_idx = rng.integers(0, m, len(src))
        active = rng.random(len(src)) < 0.6
        active[:1] = False
    h = Tensor(hv, requires_grad=True)
    st_scores = None if scores is None else Tensor(scores.copy(), requires_grad=True)
    kw = {"index": ad.EdgeIndex(src, dst)} if indexed else {}
    out = ad.edge_aggregate(h, src, dst, coef, self_coef=self_coef,
                            scores=st_scores, score_idx=score_idx, active=active,
                            **kw)
    backward(ad.sum_all(ad.mul(out, Tensor(g))))
    ref_out, ref_gh, ref_gs = _add_at_reference(
        hv, src, dst, coef, self_coef, scores, score_idx, active, g)
    np.testing.assert_array_equal(out.values, ref_out)
    np.testing.assert_array_equal(h.grad, ref_gh)
    if masked:
        np.testing.assert_array_equal(st_scores.grad, ref_gs)


@settings(max_examples=150, deadline=None)
@given(**_AGGREGATE_CASES)
@example(n=3, k=2, edges=[], self_loops=True, masked=True, seed=0)
@example(n=3, k=2, edges=[], self_loops=False, masked=False, seed=0)
def test_aggregate_bitwise_equals_add_at(n, k, edges, self_loops, masked, seed):
    _check_aggregate_against_add_at(n, k, edges, self_loops, masked, seed)


@pytest.mark.parametrize("block", [1, 2, 3, None], ids=lambda b: f"block{b}")
@settings(max_examples=100, deadline=None)
@given(**_AGGREGATE_CASES)
@example(n=3, k=2, edges=[], self_loops=True, masked=True, seed=0)
@example(n=4, k=4, edges=[(0, 1)], self_loops=False, masked=True, seed=1)
def test_indexed_aggregate_bitwise_equals_add_at(block, n, k, edges, self_loops,
                                                 masked, seed):
    # with an EdgeIndex, k > 1 columns over E edges go in one flat bincount
    # when k * E <= SEGMENT_TERMS, else one bincount per column;
    # SEGMENT_TERMS = block * E makes that flat when k <= block and per
    # column otherwise, for every edge count (block 1: always per column;
    # the default: always flat)
    terms = ad.SEGMENT_TERMS if block is None else block * max(len(edges), 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "SEGMENT_TERMS", terms)
        _check_aggregate_against_add_at(n, k, edges, self_loops, masked, seed,
                                        indexed=True)


def test_index_keeps_bins_per_side_and_width():
    src, dst = np.array([0, 1, 2, 2]), np.array([1, 0, 1, 0])
    coef = np.array([1.0, 2.0, 0.5, 3.0])
    index = ad.EdgeIndex(src, dst)
    upstream = Tensor(np.arange(12.0, 0.0, -1.0).reshape(3, 4))

    def run(**kw):
        h = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = ad.edge_aggregate(h, src, dst, coef, **kw)
        backward(ad.sum_all(ad.mul(out, upstream)))
        return out.values, h.grad

    want = run()
    for _ in range(2):
        got = run(index=index)
    # one flat bincount of all 4 columns per side, its bins made once
    assert list(index.dst_bins) == list(index.src_bins) == [4]
    np.testing.assert_array_equal(index.dst_bins[4],
                                  [4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3])
    np.testing.assert_array_equal(index.src_bins[4],
                                  [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 8, 9, 10, 11])
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
    # past SEGMENT_TERMS every column is one bincount: no bins are made
    index = ad.EdgeIndex(src, dst)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "SEGMENT_TERMS", 4 * len(src) - 1)
        got = run(index=index)
    assert not index.dst_bins and not index.src_bins
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


def _two_branch_sigmoid(x):
    # the formula _sigmoid had before it went branch-free
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bitwise_equals_two_branch_formula():
    rng = np.random.default_rng(0)
    tiny = np.finfo(np.float64).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, tiny / 2**20,
                        -tiny / 2**20, 5e-324, -5e-324, 50.0, -50.0, 709.0,
                        -709.0, 710.0, -745.0, -746.0, np.nan])
    x = np.concatenate([special] + [rng.normal(size=20_000) * scale
                                    for scale in (1e-8, 1e-2, 1.0, 30.0, 1e3)])
    with np.errstate(over="ignore", under="ignore"):
        got, want = ad._sigmoid(x), _two_branch_sigmoid(x)
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()     # a NaN's sign bit may differ
    np.testing.assert_array_equal(got[~nan].view(np.uint64),
                                  want[~nan].view(np.uint64))


def test_relu_bitwise_equals_masked_where():
    # forward np.where(x > 0, x, 0.0) and backward g * (x > 0), bit for bit:
    # NaN and -0.0 map to +0.0, and a masked-out gradient keeps g's sign
    rng = np.random.default_rng(0)
    sub = 5e-324
    special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, sub, -sub,
                        1e308, -1e308])
    x = rng.normal(size=(400, 16))
    x[rng.random(x.shape) < 0.1] = -0.0
    x.ravel()[:len(special)] = special
    g = rng.normal(size=x.shape)
    out = ad.relu(Tensor(x, requires_grad=True))
    np.testing.assert_array_equal(out.values.view(np.uint64),
                                  np.where(x > 0, x, 0.0).view(np.uint64))
    np.testing.assert_array_equal(out._backward_fn(g)[0].view(np.uint64),
                                  (g * (x > 0)).view(np.uint64))


def test_backward_computes_no_gradient_for_frozen_or_constant(monkeypatch):
    # a frozen weight and constant features are leaves nobody needs a
    # gradient for: their ops return None in those slots and .grad stays None
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    weight = Tensor(rng.normal(size=(3, 2)))
    bias = Tensor(rng.normal(size=(1, 2)))
    h = Tensor(rng.normal(size=(4, 2)))
    scores = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    src, dst = np.array([0, 1, 2, 3]), np.array([1, 1, 0, 2])
    prod = ad.matmul(x, weight)
    biased = ad.add(prod, bias)
    agg = ad.edge_aggregate(h, src, dst, np.ones(4), self_coef=np.ones(4),
                            scores=scores, score_idx=np.array([0, 1, 2, 0]))
    g = np.ones((4, 2))
    assert prod._backward_fn(g)[1] is None
    assert biased._backward_fn(g)[1] is None
    calls = []
    real = ad._segment_sum
    monkeypatch.setattr(ad, "_segment_sum",
                        lambda *a: calls.append(a) or real(*a))
    assert agg._backward_fn(g)[0] is None and calls == []
    backward(ad.sum_all(ad.add(biased, agg)))
    assert calls == []
    assert weight.grad is None and bias.grad is None and h.grad is None
    # intermediates keep no gradient either; only needed leaves get one
    assert prod.grad is None and biased.grad is None and agg.grad is None
    np.testing.assert_array_equal(x.grad, g @ weight.values.T)
    assert scores.grad is not None and scores.grad.shape == (3, 1)


def test_autodiff_imports_no_package_module():
    # the tape engine stays graph-agnostic: it imports nothing from fairedit
    import ast
    from pathlib import Path
    for node in ast.walk(ast.parse(Path(ad.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("fairedit")
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("fairedit") for a in node.names)


def test_package_imports_only_stdlib_and_numpy():
    # the package is NumPy-only: every module imports the standard library,
    # numpy and the package's own modules, nothing else
    import ast
    import sys
    from pathlib import Path
    allowed = set(sys.stdlib_module_names) | {"numpy", "fairedit"}
    modules = sorted(Path(ad.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)


def test_public_surface_lists_each_import_once():
    # __all__ names every public name that __init__ imports, each once, and
    # each resolves: a name moved out of the library leaves no stale export
    import ast
    from pathlib import Path

    import fairedit
    tree = ast.parse(Path(fairedit.__file__).read_text())
    imported = {a.asname or a.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    names = fairedit.__all__
    assert len(names) == len(set(names))
    assert set(names) == {n for n in imported if not n.startswith("_")}
    assert all(hasattr(fairedit, n) for n in names)
