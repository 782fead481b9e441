import numpy as np
import pytest

from fairedit.graph import (ADD, DELETE, EdgeEdit, EditBatch, EditKind, Graph,
                            apply_edits)


def finite_diff(f, x, step=1e-4):
    """Central finite differences of scalar f w.r.t. ndarray x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = f()
        x[idx] = orig - step
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * step)
        it.iternext()
    return g


def rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


def assert_grad_close(analytic, numeric, tol=1e-4):
    assert rel_err(analytic, numeric) < tol, \
        f"gradient mismatch: rel err {rel_err(analytic, numeric):.2e}"


def batch_edits(batch):
    """Every row of an EditBatch as an EdgeEdit, in row order."""
    return [batch.edit(i) for i in range(len(batch))]


# oracles: small reference helpers that only the tests use

def apply_pair(graph, add, u, v):
    """Pair (u, v) added (`add`) or deleted: `apply_edits` on a one-row
    batch, refused as that batch is."""
    return apply_edits(graph, EditBatch(
        np.array([ADD if add else DELETE], dtype=np.int8),
        np.array([[u, v]], dtype=np.int64)))


def save_edge_list(path, edges):
    """Write edges as the "u v" lines `load_edge_list` reads, sorted."""
    with open(path, "w") as fh:
        for u, v in sorted(edges):
            fh.write(f"{u} {v}\n")


def flip_sensitive(graph):
    """`graph` with its sensitive attribute flipped, in `sensitive` and in the
    features' sensitive column: the second half of its counterfactual twin."""
    feats = graph.features.copy()
    feats[:, graph.sensitive_col] = 1 - feats[:, graph.sensitive_col]
    return graph.replace(features=feats, sensitive=1 - graph.sensitive)


def inverse(edit):
    """The edit that undoes `edit`."""
    kind = EditKind.ADD if edit.kind is EditKind.DELETE else EditKind.DELETE
    return EdgeEdit(kind, edit.u, edit.v)


def sort_key(edit):
    """(Delete < Add, u, v): the order in which edit selection breaks ties."""
    return (0 if edit.kind is EditKind.DELETE else 1, edit.u, edit.v)


@pytest.fixture
def triangle_graph():
    feats = np.array([[0.0, 1.0, -1.0],
                      [1.0, 0.5, 2.0],
                      [0.0, -2.0, 0.3]])
    return Graph.build(feats, [(0, 1), (1, 2), (0, 2)],
                       sensitive=[0, 1, 0], labels=[0, 1, 1],
                       sensitive_col=0, train_mask=[True, True, True])


def random_graph(n, p_edge, seed, d_extra=3):
    """Random Erdos-Renyi-ish graph with a binary sensitive column at 0."""
    rng = np.random.default_rng(seed)
    s = rng.integers(0, 2, size=n)
    y = rng.integers(0, 2, size=n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p_edge]
    feats = np.hstack([s[:, None].astype(float),
                       rng.normal(size=(n, d_extra))])
    tr = np.zeros(n, dtype=bool)
    tr[: max(2, n // 2)] = True
    return Graph.build(feats, edges, s, y, sensitive_col=0, train_mask=tr)
