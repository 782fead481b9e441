"""Graph data model: ingestion, splits, edge edits, counterfactual views, synthesis.

Graphs are immutable values. Every operation returns a new Graph that shares
the untouched arrays with its input, so views are cheap and safe to hand to
concurrent experiment runs.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class GraphError(ValueError):
    pass


class EditKind(Enum):
    DELETE = "delete"
    ADD = "add"


@dataclass(frozen=True)
class EdgeEdit:
    """A single edge addition or deletion on an undirected edge set."""

    kind: EditKind
    u: int
    v: int

    def __post_init__(self):
        if self.u == self.v:
            raise GraphError(f"self-loop edit on node {self.u}")
        if self.u > self.v:
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    @staticmethod
    def add(u: int, v: int) -> "EdgeEdit":
        return EdgeEdit(EditKind.ADD, u, v)

    @staticmethod
    def delete(u: int, v: int) -> "EdgeEdit":
        return EdgeEdit(EditKind.DELETE, u, v)

    @property
    def endpoints(self) -> tuple[int, int]:
        return (self.u, self.v)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        # Delete orders before Add; used for deterministic tie-breaking.
        return (0 if self.kind is EditKind.DELETE else 1, self.u, self.v)

    def inverse(self) -> "EdgeEdit":
        kind = EditKind.ADD if self.kind is EditKind.DELETE else EditKind.DELETE
        return EdgeEdit(kind, self.u, self.v)


def _lookup(keys: np.ndarray, query: np.ndarray):
    """Positions of `query` in the sorted array `keys`: (insertion positions,
    whether each query key is present)."""
    pos = np.searchsorted(keys, query)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == query[found]
    return pos, found


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected graph with node features, a binary sensitive attribute and
    binary labels. Edges are stored once as (u, v) with u < v, as the rows of
    a read-only (m, 2) int64 array in lexicographic order; the key u*n + v of
    each row is then strictly increasing, so membership is a binary search."""

    features: np.ndarray          # (n, d) float64
    pairs: np.ndarray             # (m, 2) int64, read-only, lexsorted, u < v
    sensitive: np.ndarray         # (n,) in {0, 1}
    labels: np.ndarray            # (n,) in {0, 1}
    sensitive_col: int            # column of `features` holding the sensitive attribute
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    @staticmethod
    def build(features, edges, sensitive, labels, sensitive_col,
              train_mask=None, val_mask=None, test_mask=None) -> "Graph":
        """Validated graph from any iterable of node pairs (or an (m, 2)
        integer array) in either orientation and any order."""
        features = np.asarray(features, dtype=np.float64)
        sensitive = np.asarray(sensitive, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)

        def _mask(m):
            if m is None:
                # shape (n,); validate() refuses features that are not (n, d)
                return np.zeros(features.shape[:1], dtype=bool)
            return np.asarray(m, dtype=bool)

        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            e = np.asarray(edges)
            # a cast would truncate 0.7 to node 0: only integral values pass
            if e.dtype.kind == "f" and not (np.isfinite(e) & (e == np.trunc(e))).all():
                raise ValueError("non-integral node id")
            e = e.astype(np.int64, copy=False)
        except (TypeError, ValueError, OverflowError) as exc:
            raise GraphError("edges must be pairs of integer node ids") from exc
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError("edges must be pairs of integer node ids")
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        order = np.lexsort((hi, lo))
        pairs = _readonly(np.stack([lo[order], hi[order]], axis=1))
        g = Graph(features, pairs, sensitive, labels, int(sensitive_col),
                  _mask(train_mask), _mask(val_mask), _mask(test_mask))
        g.validate()
        return g

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def _cached(self, name: str, make):
        """Memo of a value derived from this immutable graph, built on first
        use; a graph made by `replace` or an edit starts with none."""
        value = self.__dict__.get(name)
        if value is None:
            value = make()
            object.__setattr__(self, name, value)
        return value

    @property
    def keys(self) -> np.ndarray:
        """u*n + v of every stored edge, strictly increasing (read-only)."""
        return self._cached("_keys", lambda: _readonly(
            self.pairs[:, 0] * self.n + self.pairs[:, 1]))

    @property
    def edges(self) -> tuple:
        """The stored edges as a sorted tuple of (u, v) Python-int pairs.
        Built on first use; the library itself works on `pairs` and `keys`."""
        return self._cached("_edges", lambda: tuple(map(tuple, self.pairs.tolist())))

    @property
    def edge_set(self) -> frozenset:
        return self._cached("_edge_set", lambda: frozenset(self.edges))

    def edge_rows(self, u, v) -> np.ndarray:
        """Row of each edge (u[i], v[i]), u < v, in `pairs`; GraphError if
        one is not an edge of this graph."""
        q = np.asarray(u, dtype=np.int64) * self.n + np.asarray(v, dtype=np.int64)
        pos, found = _lookup(self.keys, q)
        if not found.all():
            i = int(np.flatnonzero(~found)[0])
            raise GraphError(f"({q[i] // self.n}, {q[i] % self.n}) is not an edge")
        return pos

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n).astype(
            np.int64, copy=False)

    def replace(self, **kw) -> "Graph":
        return dataclasses.replace(self, **kw)

    def validate(self) -> None:
        if self.features.ndim != 2:
            raise GraphError("features must be a 2-D (n, d) array")
        n = self.n
        if self.sensitive.shape != (n,) or self.labels.shape != (n,):
            raise GraphError("sensitive/labels length must equal node count")
        if not ((self.sensitive == 0) | (self.sensitive == 1)).all():
            raise GraphError("sensitive attribute must be binary")
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise GraphError("labels must be binary")
        if not (0 <= self.sensitive_col < self.d):
            raise GraphError("sensitive_col out of range")
        self._validate_pairs()
        overlap = (self.train_mask & self.val_mask) | \
                  (self.train_mask & self.test_mask) | \
                  (self.val_mask & self.test_mask)
        if overlap.any():
            raise GraphError("train/val/test masks overlap")

    def _validate_pairs(self) -> None:
        """Reports the first bad row in stored order, checking each row for
        range, self-loop, orientation, then its order against the row before."""
        p = self.pairs
        if p.dtype != np.int64 or p.ndim != 2 or p.shape[1] != 2:
            raise GraphError("edge array must be (m, 2) int64")
        u, v = p[:, 0], p[:, 1]
        n = self.n
        same = np.zeros(len(p), dtype=bool)
        before = np.zeros(len(p), dtype=bool)
        same[1:] = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
        before[1:] = (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] < v[:-1]))
        checks = (
            ((u < 0) | (u >= n) | (v < 0) | (v >= n),
             "edge ({u}, {v}) endpoint out of range"),
            (u == v, "self-loop at node {u}"),
            (u > v, "edge ({u}, {v}) not stored with u < v"),
            (same, "duplicate edge ({u}, {v})"),
            (before, "edge ({u}, {v}) stored out of lexicographic order"),
        )
        bad = np.logical_or.reduce([mask for mask, _ in checks])
        if bad.any():
            i = int(np.argmax(bad))
            msg = next(msg for mask, msg in checks if mask[i])
            raise GraphError(msg.format(u=int(u[i]), v=int(v[i])))


# ---------------------------------------------------------------------------
# Ingestion

def _detect_delimiter(header: str) -> str:
    return "\t" if header.count("\t") >= header.count(",") else ","


def load_node_table(path, sensitive_col: str = "sensitive",
                    label_col: str = "label"):
    """Load a delimited node table. Returns (features, sensitive, labels,
    sensitive_index) where sensitive_index locates the sensitive column inside
    the feature matrix (the sensitive column stays in the features; the label
    column is dropped)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise GraphError(f"{path}: empty node table")
    delim = _detect_delimiter(lines[0])
    header = [c.strip() for c in lines[0].split(delim)]
    if sensitive_col not in header:
        raise GraphError(f"missing sensitive column {sensitive_col!r}")
    if label_col not in header:
        raise GraphError(f"missing label column {label_col!r}")
    s_idx = header.index(sensitive_col)
    y_idx = header.index(label_col)
    if s_idx == y_idx:
        raise GraphError("sensitive and label columns must differ")

    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in ln.split(delim)]
        if len(cells) != len(header):
            raise GraphError(f"{path}:{i}: expected {len(header)} cells, got {len(cells)}")
        try:
            row = [float(c) for c in cells]
        except ValueError as e:
            raise GraphError(f"{path}:{i}: non-numeric cell") from e
        if not all(map(math.isfinite, row)):
            raise GraphError(f"{path}:{i}: non-finite cell")
        rows.append(row)
    table = np.array(rows, dtype=np.float64)

    sensitive = table[:, s_idx]
    labels = table[:, y_idx]
    for name, col in (("sensitive", sensitive), ("label", labels)):
        if not np.isin(col, (0.0, 1.0)).all():
            raise GraphError(f"{name} column is not binary")

    keep = [j for j in range(len(header)) if j != y_idx]
    features = table[:, keep]
    sensitive_index = keep.index(s_idx)
    return features, sensitive.astype(np.int64), labels.astype(np.int64), sensitive_index


def load_edge_list(path, n: int) -> tuple:
    """Read an undirected edge list ("u v" per line, '#' comments). Duplicate
    and reversed lines collapse to one edge."""
    edges = set()
    with open(path) as fh:
        for i, ln in enumerate(fh, start=1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise GraphError(f"{path}:{i}: malformed line {ln!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as e:
                raise GraphError(f"{path}:{i}: malformed line {ln!r}") from e
            if u == v:
                raise GraphError(f"{path}:{i}: self-loop {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"{path}:{i}: node id out of range")
            edges.add((min(u, v), max(u, v)))
    return tuple(sorted(edges))


def save_edge_list(path, edges) -> None:
    with open(path, "w") as fh:
        for u, v in sorted(edges):
            fh.write(f"{u} {v}\n")


# ---------------------------------------------------------------------------
# Preprocessing

def normalize_features(features: np.ndarray, train_mask: np.ndarray,
                       sensitive_col: int) -> np.ndarray:
    """Z-score every non-sensitive column using training-row statistics.
    Zero-variance columns map to all-zero; the sensitive column is untouched."""
    if int(np.count_nonzero(train_mask)) < 2:
        raise GraphError("normalize_features needs >= 2 training rows")
    out = features.astype(np.float64).copy()
    tr = out[train_mask]
    mean = tr.mean(axis=0)
    std = tr.std(axis=0)
    for j in range(out.shape[1]):
        if j == sensitive_col:
            continue
        if std[j] == 0.0:
            out[:, j] = 0.0
        else:
            out[:, j] = (out[:, j] - mean[j]) / std[j]
    return out


def _largest_remainder(fractions, total: int) -> list[int]:
    """Integer shares of `total` in proportion to `fractions`: floors, plus
    one for each of the largest fractional remainders."""
    quota = [f * total for f in fractions]
    shares = [int(q) for q in quota]
    order = sorted(range(len(quota)), key=lambda i: quota[i] - shares[i], reverse=True)
    for i in order[:total - sum(shares)]:
        shares[i] += 1
    return shares


def split(n: int, fractions, labels, seed: int):
    """Label-stratified train/val/test masks, deterministic under seed."""
    fractions = tuple(float(f) for f in fractions)
    if len(fractions) != 3 or not all(math.isfinite(f) and f > 0 for f in fractions):
        raise GraphError("need three positive finite fractions")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise GraphError("fractions must sum to 1")
    labels = np.asarray(labels)
    labeled = np.arange(n)
    rng = np.random.default_rng(seed)

    targets = _largest_remainder(fractions, len(labeled))

    masks = [np.zeros(n, dtype=bool) for _ in range(3)]
    per_class = []
    for c in np.unique(labels[labeled]):
        idx = labeled[labels[labeled] == c]
        if len(idx) < 3:
            raise GraphError(f"label class {c} has fewer nodes than splits")
        idx = rng.permutation(idx)
        per_class.append((idx, _largest_remainder(fractions, len(idx))))

    # rebalance: move single nodes between splits until global sizes match targets
    sizes = [sum(a[i] for _, a in per_class) for i in range(3)]
    while sizes != targets:
        i = next(k for k in range(3) if sizes[k] > targets[k])
        j = next(k for k in range(3) if sizes[k] < targets[k])
        donor = max(per_class, key=lambda ca: ca[1][i])
        donor[1][i] -= 1
        donor[1][j] += 1
        sizes[i] -= 1
        sizes[j] += 1

    for idx, alloc in per_class:
        a, b = alloc[0], alloc[0] + alloc[1]
        masks[0][idx[:a]] = True
        masks[1][idx[a:b]] = True
        masks[2][idx[b:]] = True
    return masks[0], masks[1], masks[2]


# ---------------------------------------------------------------------------
# Edits and views

def apply_edit(graph: Graph, edit: EdgeEdit) -> Graph:
    """One edge added or deleted."""
    return apply_edits(graph, (edit,))


def apply_edits(graph: Graph, edits) -> Graph:
    """Apply a batch of edits on distinct node pairs at once. The result
    equals applying them one at a time; the batch is refused (GraphError,
    `graph` untouched) if an endpoint is out of range, if two edits name the
    same pair, or if an edit adds an existing edge or deletes a missing one,
    checked in that order, each naming the first bad edit in input order."""
    edits = list(edits)
    if not edits:
        return graph
    n = graph.n
    q, add = [], []
    for e in edits:
        if not (0 <= e.u < n and 0 <= e.v < n):
            raise GraphError(f"edit endpoint out of range: {e.endpoints}")
        q.append(e.u * n + e.v)
        add.append(e.kind is EditKind.ADD)
    q, add = np.array(q, dtype=np.int64), np.array(add)
    if len(edits) > 1:
        order = np.argsort(q, kind="stable")
        sq = q[order]
        repeat = sq[1:] == sq[:-1]
        if repeat.any():
            # a stable sort keeps each pair's edits in input order, so the
            # repeats are the ones after the first of their run
            i = int(order[1:][repeat].min())
            raise GraphError(f"repeated edit of pair {edits[i].endpoints}")
    pos, present = _lookup(graph.keys, q)
    clash = present == add
    if clash.any():
        e = edits[int(np.argmax(clash))]
        what = "Add of existing" if e.kind is EditKind.ADD else "Delete of missing"
        raise GraphError(f"{what} edge {e.endpoints}")
    if len(edits) == 1:
        # splice the lone key and pair in (or out) at its lookup position
        i, e = int(pos[0]), edits[0]
        k, p = graph.keys, graph.pairs
        if add[0]:
            keys = np.concatenate([k[:i], q, k[i:]])
            pairs = np.concatenate([p[:i], [[e.u, e.v]], p[i:]])
        else:
            keys = np.concatenate([k[:i], k[i + 1:]])
            pairs = np.concatenate([p[:i], p[i + 1:]])
    else:
        keep = np.ones(len(graph.keys), dtype=bool)
        keep[pos[~add]] = False
        keys = np.sort(np.concatenate([graph.keys[keep], q[add]]))
        pairs = np.empty((len(keys), 2), dtype=np.int64)
        np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    g = graph.replace(pairs=_readonly(pairs))
    object.__setattr__(g, "_keys", _readonly(keys))
    return g


def flip_sensitive(graph: Graph) -> Graph:
    feats = graph.features.copy()
    feats[:, graph.sensitive_col] = 1 - feats[:, graph.sensitive_col]
    return graph.replace(features=feats, sensitive=1 - graph.sensitive)


def perturb_features(graph: Graph, sigma: float, seed: int) -> Graph:
    if not (math.isfinite(sigma) and sigma >= 0):
        raise GraphError("sigma must be finite and >= 0")
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=graph.features.shape) if sigma > 0 \
        else np.zeros_like(graph.features)
    noise[:, graph.sensitive_col] = 0.0
    return graph.replace(features=graph.features + noise)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Stack two graphs into one with no edges between the halves. Offsetting
    b's lexsorted pairs by a.n keeps the stack lexsorted, so it is stored as
    is and only validated: either half may be any Graph value."""
    g = Graph(
        np.vstack([a.features, b.features]),
        _readonly(np.concatenate([a.pairs, b.pairs + a.n])),
        np.concatenate([a.sensitive, b.sensitive]),
        np.concatenate([a.labels, b.labels]),
        a.sensitive_col,
        np.concatenate([a.train_mask, b.train_mask]),
        np.concatenate([a.val_mask, b.val_mask]),
        np.concatenate([a.test_mask, b.test_mask]),
    )
    g.validate()
    return g


def counterfactual_twin(graph: Graph) -> Graph:
    """`disjoint_union(graph, flip_sensitive(graph))`, stacked directly. Both
    halves carry `graph`'s own valid pairs, so the stack is valid by
    construction and is not validated again."""
    n, col = graph.n, graph.sensitive_col
    feats = np.concatenate([graph.features, graph.features])
    feats[n:, col] = 1 - feats[n:, col]
    return Graph(
        feats,
        _readonly(np.concatenate([graph.pairs, graph.pairs + n])),
        np.concatenate([graph.sensitive, 1 - graph.sensitive]),
        np.concatenate([graph.labels, graph.labels]),
        col,
        np.concatenate([graph.train_mask, graph.train_mask]),
        np.concatenate([graph.val_mask, graph.val_mask]),
        np.concatenate([graph.test_mask, graph.test_mask]),
    )


# ---------------------------------------------------------------------------
# Candidate edit generation

@dataclass(frozen=True)
class Exhaustive:
    pass


@dataclass(frozen=True)
class Sampled:
    rho: float     # probability of proposing each absent cross-group pair as an Add
    gamma: float   # probability of proposing each present intra-group edge as a Delete
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.rho <= 1.0 and 0.0 <= self.gamma <= 1.0):
            raise GraphError("rho and gamma must lie in [0, 1]")


def candidate_edits(graph: Graph, policy) -> list[EdgeEdit]:
    if isinstance(policy, Exhaustive):
        uu, vv = np.triu_indices(graph.n, k=1)
        present = _lookup(graph.keys, uu * graph.n + vv)[1]
        kinds = np.where(present, EditKind.DELETE, EditKind.ADD)
        return [EdgeEdit(k, u, v) for k, u, v in
                zip(kinds.tolist(), uu.tolist(), vv.tolist())]
    if isinstance(policy, Sampled):
        rng = np.random.default_rng(policy.seed)
        s = graph.sensitive
        # deletes over present intra-group edges, in stored edge order
        p = graph.pairs
        intra = p[s[p[:, 0]] == s[p[:, 1]]]
        dels = intra[rng.random(len(intra)) < policy.gamma]
        # adds over absent cross-group pairs, lexicographic pair order (the
        # row-major order of the upper triangle)
        cross = np.triu(s[:, None] != s[None, :], k=1)
        cross[p[:, 0], p[:, 1]] = False
        uu, vv = np.nonzero(cross)
        take = rng.random(len(uu)) < policy.rho
        adds = np.stack([uu[take], vv[take]], axis=1)
        # one list in (u, v) order: a pair is never both a delete and an add
        uv = np.concatenate([dels, adds])
        kinds = np.repeat([EditKind.DELETE, EditKind.ADD], [len(dels), len(adds)])
        order = np.lexsort((uv[:, 1], uv[:, 0]))
        return [EdgeEdit(k, u, v) for k, (u, v) in
                zip(kinds[order].tolist(), uv[order].tolist())]
    raise GraphError(f"unknown candidate policy {policy!r}")


# ---------------------------------------------------------------------------
# Synthetic biased graphs

@dataclass(frozen=True)
class SyntheticSpec:
    n: int
    homophily: float      # probability an edge is intra-group
    edge_density: float   # expected mean degree
    label_bias: float     # corr strength between sensitive attribute and label
    groups: float = 0.5   # fraction of nodes with s = 1
    seed: int = 0
    n_features: int = 8   # noisy continuous features appended after the sensitive column

    def validate(self):
        for name in ("homophily", "groups", "label_bias"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise GraphError(f"{name} must lie in [0, 1]")
        if not (math.isfinite(self.edge_density) and self.edge_density > 0):
            raise GraphError("edge_density must be positive and finite")
        if self.n < 4:
            raise GraphError("need at least 4 nodes")
        if self.seed < 0:
            raise GraphError("seed must be >= 0")
        if self.n_features < 0:
            raise GraphError("n_features must be >= 0")


# mean shift of the noisy synthetic features between the two label classes,
# in units of their (unit) standard deviation
FEATURE_SIGNAL = 0.5


def synth_biased_graph(spec: SyntheticSpec) -> Graph:
    """Two-block stochastic block model with homophily-controlled mixing and a
    label correlated with the sensitive attribute."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.n

    s = np.zeros(n, dtype=np.int64)
    n1 = int(round(spec.groups * n))
    s[rng.permutation(n)[:n1]] = 1

    # y agrees with s with probability (1 + label_bias) / 2
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

    # the appended features carry only a weak label signal drowned in unit
    # noise; the dominant shortcut lives in the sensitive attribute and in the
    # homophilous edge structure
    feats = np.empty((n, 1 + spec.n_features))
    feats[:, 0] = s
    feats[:, 1:] = rng.normal(loc=FEATURE_SIGNAL * y[:, None],
                              size=(n, spec.n_features))
    return Graph.build(feats, np.stack([uu[pick], vv[pick]], axis=1), s, y,
                       sensitive_col=0)


def with_split(graph: Graph, fractions=(0.5, 0.25, 0.25), seed: int = 0) -> Graph:
    tr, va, te = split(graph.n, fractions, graph.labels, seed)
    return graph.replace(train_mask=tr, val_mask=va, test_mask=te)
