"""Graph data model: ingestion, splits, edge edits, counterfactual views, synthesis.

Graphs are immutable values. Every operation returns a new Graph that shares
the untouched arrays with its input, so views are cheap and safe to hand to
concurrent experiment runs.
"""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

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
        if not isinstance(self.kind, EditKind):
            raise GraphError(f"edit kind must be an EditKind, got {self.kind!r}")
        if not all(isinstance(x, numbers.Integral) for x in (self.u, self.v)):
            raise GraphError(f"edit endpoints must be integer node ids, got "
                             f"({self.u!r}, {self.v!r})")
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


# kind codes of an EditBatch row, in tie-break order: Delete before Add
DELETE, ADD = 0, 1


@dataclass(frozen=True, eq=False)
class EditBatch:
    """Edge edits as arrays, one row per edit (the edge-index layout of
    PyG): `kinds` (k,) int8 holding DELETE or ADD, and `pairs` (k, 2) int64
    with u < v in every row. `candidate_edits` returns its batches lexsorted
    by (u, v), with read-only arrays; `edit(i)` is row i as an `EdgeEdit`."""

    kinds: np.ndarray
    pairs: np.ndarray

    def __post_init__(self):
        k, p = self.kinds, self.pairs
        if k.dtype != np.int8 or k.ndim != 1 or p.dtype != np.int64 or \
                p.shape != (len(k), 2):
            raise GraphError("edit batch needs (k,) int8 kinds and (k, 2) int64 pairs")
        if not ((k == DELETE) | (k == ADD)).all():
            raise GraphError("edit kinds must be 0 (delete) or 1 (add)")
        bad = p[:, 0] >= p[:, 1]
        if bad.any():
            u, v = p[int(np.argmax(bad))].tolist()
            raise GraphError(f"self-loop edit on node {u}" if u == v
                             else f"edit ({u}, {v}) not stored with u < v")

    @staticmethod
    def of(edits) -> "EditBatch":
        """`edits` itself if it is a batch; else a batch of the given
        `EdgeEdit`s, in their order."""
        if isinstance(edits, EditBatch):
            return edits
        edits = list(edits)
        kinds = np.array([e.kind is EditKind.ADD for e in edits], dtype=np.int8)
        pairs = np.array([e.endpoints for e in edits], dtype=np.int64).reshape(-1, 2)
        return EditBatch(kinds, pairs)

    def __len__(self) -> int:
        return len(self.kinds)

    def edit(self, i: int) -> EdgeEdit:
        u, v = self.pairs[i].tolist()
        return EdgeEdit(EditKind.ADD if self.kinds[i] == ADD else EditKind.DELETE, u, v)


def _lookup(keys: np.ndarray, query: np.ndarray):
    """Positions of `query` in the sorted array `keys`: (insertion positions,
    whether each query key is present)."""
    pos = np.searchsorted(keys, query)
    found = pos < len(keys)
    found[found] = keys[pos[found]] == query[found]
    return pos, found


def _int64(values, message: str) -> np.ndarray:
    """`values` as an int64 array; GraphError(`message`) if they are not
    integers. A cast would truncate 0.7 to 0: only integral values pass."""
    try:
        a = np.asarray(values)
        if a.dtype.kind == "f" and not (np.isfinite(a) & (a == np.trunc(a))).all():
            raise ValueError("non-integral value")
        return a.astype(np.int64, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise GraphError(message) from exc


def _at_least(low: int, owner, *names: str) -> None:
    """GraphError unless each attribute `names` of `owner` is an integer
    >= low; a cast would truncate 0.5 to 0."""
    for name in names:
        value = getattr(owner, name)
        if not isinstance(value, numbers.Integral):
            raise GraphError(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise GraphError(f"{name} must be >= {low}")


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
        sensitive = _int64(sensitive, "sensitive attribute must be binary")
        labels = _int64(labels, "labels must be binary")

        def _mask(m):
            if m is None:
                # shape (n,); validate() refuses features that are not (n, d)
                return np.zeros(features.shape[:1], dtype=bool)
            return np.asarray(m, dtype=bool)

        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        e = _int64(edges, "edges must be pairs of integer node ids")
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError("edges must be pairs of integer node ids")
        lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
        order = np.lexsort((hi, lo))
        pairs = _readonly(np.stack([lo[order], hi[order]], axis=1))
        g = Graph(features, pairs, sensitive, labels, sensitive_col,
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

    def degrees(self) -> np.ndarray:
        return np.bincount(self.pairs.ravel(), minlength=self.n).astype(
            np.int64, copy=False)

    def replace(self, **kw) -> "Graph":
        """This graph with the fields in `kw` replaced, not validated (as
        `dataclasses.replace`, without its per-call field inspection); the
        copy starts with no memo."""
        state = {name: self.__dict__[name] for name in _GRAPH_FIELDS}
        if not kw.keys() <= state.keys():
            raise TypeError(f"Graph has no field {sorted(kw.keys() - state.keys())[0]!r}")
        state.update(kw)
        g = object.__new__(Graph)
        g.__dict__.update(state)
        return g

    def validate(self) -> None:
        if self.features.ndim != 2:
            raise GraphError("features must be a 2-D (n, d) array")
        if not np.isfinite(self.features).all():
            raise GraphError("features must be finite (no nan or inf)")
        n = self.n
        if self.sensitive.shape != (n,) or self.labels.shape != (n,):
            raise GraphError("sensitive/labels length must equal node count")
        if not ((self.sensitive == 0) | (self.sensitive == 1)).all():
            raise GraphError("sensitive attribute must be binary")
        if not ((self.labels == 0) | (self.labels == 1)).all():
            raise GraphError("labels must be binary")
        _at_least(0, self, "sensitive_col")
        if self.sensitive_col >= self.d:
            raise GraphError("sensitive_col out of range")
        self._validate_pairs()
        for name in ("train_mask", "val_mask", "test_mask"):
            if np.shape(getattr(self, name)) != (n,):
                raise GraphError(f"{name} must have shape ({n},), one entry per node")
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


_GRAPH_FIELDS = tuple(f.name for f in dataclasses.fields(Graph))


# ---------------------------------------------------------------------------
# Ingestion

def text_lines(path):
    """The lines of a UTF-8 text file without their line ends or a leading
    byte order mark, read as they are iterated; GraphError, naming the first
    bad byte, if the file is not valid UTF-8."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            for ln in fh:
                yield ln.rstrip("\n")
            return
        except UnicodeDecodeError:
            pass
    # the streaming decoder's offsets are per read: decode at once to find it
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise GraphError(f"{path}: not UTF-8 text ({e.reason} at byte "
                         f"{e.start})") from None


def _detect_delimiter(header: str) -> str:
    return "\t" if header.count("\t") >= header.count(",") else ","


def load_node_table(path, sensitive_col: str = "sensitive",
                    label_col: str = "label"):
    """Load a delimited node table. Returns (features, sensitive, labels,
    sensitive_index) where sensitive_index locates the sensitive column inside
    the feature matrix (the sensitive column stays in the features; the label
    column is dropped)."""
    lines = [ln for ln in text_lines(path) if ln.strip()]
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
    if len(lines) == 1:
        raise GraphError(f"{path}: no node rows")

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
    for i, ln in enumerate(text_lines(path), start=1):
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


# ---------------------------------------------------------------------------
# Preprocessing

def normalize_features(features: np.ndarray, train_mask: np.ndarray,
                       sensitive_col: int) -> np.ndarray:
    """Z-score every non-sensitive column using training-row statistics.
    Zero-variance columns map to all-zero; the sensitive column, which must
    be one of the matrix's columns, is untouched."""
    _at_least(0, SimpleNamespace(sensitive_col=sensitive_col), "sensitive_col")
    if sensitive_col >= features.shape[1]:
        raise GraphError(f"normalize_features: sensitive_col {sensitive_col} out of "
                         f"range for {features.shape[1]} columns")
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
    if labels.shape != (n,):
        raise GraphError(f"need one label per node: {n} nodes, labels of "
                         f"shape {labels.shape}")
    rng = np.random.default_rng(seed)

    targets = _largest_remainder(fractions, n)

    masks = [np.zeros(n, dtype=bool) for _ in range(3)]
    per_class = []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
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
    """One edge added or deleted: `apply_edits` on a one-row batch, checked
    as it checks any batch."""
    return apply_edits(graph, (edit,))


def apply_edits(graph: Graph, edits) -> Graph:
    """Apply an `EditBatch` (or `EdgeEdit`s, see `EditBatch.of`) on distinct
    node pairs at once, with array operations only. The result equals
    applying the edits one at a time; the batch is refused (GraphError,
    `graph` untouched) if an endpoint is out of range, if two edits name the
    same pair, or if an edit adds an existing edge or deletes a missing one,
    checked in that order, each naming the first bad edit in row order.
    The kept and added keys are sorted once, and the result keeps them as
    its `keys`."""
    batch = EditBatch.of(edits)
    if not batch:
        return graph
    n = graph.n
    u, v = batch.pairs[:, 0], batch.pairs[:, 1]

    def refuse(bad, msg):
        if bad.any():
            i = int(np.argmax(bad))
            raise GraphError(msg.format(int(u[i]), int(v[i])))

    refuse((u < 0) | (v >= n), "edit endpoint out of range: ({}, {})")
    q = u * n + v
    add = batch.kinds == ADD
    order = np.argsort(q, kind="stable")
    repeat = np.zeros(len(q), dtype=bool)
    # a stable sort keeps each pair's edits in row order, so the repeats are
    # the ones after the first of their run
    repeat[order[1:]] = q[order[1:]] == q[order[:-1]]
    refuse(repeat, "repeated edit of pair ({}, {})")
    pos, present = _lookup(graph.keys, q)
    clash = present == add
    if clash.any():
        what = "Add of existing" if add[np.argmax(clash)] else "Delete of missing"
        refuse(clash, what + " edge ({}, {})")
    keep = np.ones(len(graph.keys), dtype=bool)
    keep[pos[~add]] = False
    keys = np.sort(np.concatenate([graph.keys[keep], q[add]]))
    pairs = np.empty((len(keys), 2), dtype=np.int64)
    np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
    g = graph.replace(pairs=_readonly(pairs))
    object.__setattr__(g, "_keys", _readonly(keys))
    return g


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
    """`graph` stacked with its counterfactual, with no edge between the
    halves: nodes n..2n-1 repeat nodes 0..n-1 with the sensitive attribute
    flipped, in `sensitive` and in the features' sensitive column. Both
    halves carry `graph`'s own valid pairs, so the stack is valid by
    construction and is not validated again.

    A twin that the maker of `graph` attached to it as `_twin` is returned
    as is: `brute_force_select` attaches one to each candidate graph it
    scores, sharing the base twin's node arrays, its pairs and adjacency
    built with those of the other candidates of its chunk. No twin is kept
    otherwise, so a graph's twin lives no longer than the caller holds it."""
    attached = graph.__dict__.get("_twin")
    if attached is not None:
        return attached
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
        _at_least(0, self, "seed")


# uniform draws per rng.random call of the cross-pair sampler: bounds its
# memory, and leaves the stream unchanged (chunked draws equal one long draw)
SAMPLE_CHUNK = 1 << 16


def _batch(kinds: np.ndarray, pairs: np.ndarray) -> EditBatch:
    return EditBatch(_readonly(kinds.astype(np.int8, copy=False)), _readonly(pairs))


class _GroupPairs:
    """The node pairs u < v within the two groups of `s` (intra), or across
    them (cross), indexed implicitly in row-major upper-triangle order.
    `part` lists group 1's nodes, then group 0's, and `at` is each node's
    place in it; the partners of row u (the same or the other group's nodes
    after u) are part[first:stop] for that row's bounds, so pair
    (u, part[i]) has index i + shift[u], and row u's pairs end at end[u]."""

    def __init__(self, s: np.ndarray, intra: bool):
        n = len(s)
        self.part = np.concatenate([np.flatnonzero(s == 1), np.flatnonzero(s == 0)])
        self.at = np.empty(n, dtype=np.int64)
        self.at[self.part] = np.arange(n)
        n1, ones = int(np.count_nonzero(s)), np.cumsum(s)   # ones: group 1 up to u
        in_ones = (s == 1) == intra        # row u's partners are in group 1
        first = np.where(in_ones, ones, n1 + np.arange(1, n + 1) - ones)
        stop = np.where(in_ones, n1, n)
        self.end = np.cumsum(stop - first)
        self.shift = self.end - stop
        self.count = int(self.end[-1]) if n else 0

    def pairs(self, c: np.ndarray) -> np.ndarray:
        """The pairs with indices `c`, as (len(c), 2) rows."""
        u = np.searchsorted(self.end, c, side="right")
        return np.stack([u, self.part[c - self.shift[u]]], axis=1)


def _sampled_adds(graph: Graph, rho: float, rng) -> np.ndarray:
    """The absent cross-group pairs drawn with probability rho, one uniform
    draw per pair in row-major upper-triangle order, as (k, 2) rows in that
    order. The cross pairs are indexed implicitly; no n x n array is built."""
    s, p = graph.sensitive, graph.pairs
    cross = _GroupPairs(s, intra=False)
    cu, cv = p[s[p[:, 0]] != s[p[:, 1]]].T
    # indices of the present cross edges, increasing as the edges are lexsorted
    present = cross.shift[cu] + cross.at[cv]
    absent = cross.count - len(present)
    draws = np.empty(min(SAMPLE_CHUNK, absent))
    taken = [np.zeros(0, dtype=np.int64)]
    for lo in range(0, absent, SAMPLE_CHUNK):
        r = rng.random(out=draws[:min(SAMPLE_CHUNK, absent - lo)])
        taken.append(lo + np.flatnonzero(r < rho))
    k = np.concatenate(taken)
    # absent index k -> cross index c, skipping the present edges before it
    return cross.pairs(k + np.searchsorted(present - np.arange(len(present)), k,
                                           side="right"))


def candidate_edits(graph: Graph, policy) -> EditBatch:
    """The candidate edits of `policy` on `graph`, as one `EditBatch`
    lexsorted by (u, v) (a pair is never both a delete and an add).

    `Exhaustive()`: every node pair, a Delete if it is an edge, else an Add.
    `Sampled(rho, gamma, seed)`: one uniform draw per present intra-group
    edge in stored order, kept as a Delete if below gamma; then one draw per
    absent cross-group pair in row-major upper-triangle order, kept as an Add
    if below rho. The cross pairs are indexed implicitly and drawn in chunks
    of SAMPLE_CHUNK, so memory is O(n + m + SAMPLE_CHUNK), not O(n^2)."""
    if isinstance(policy, Exhaustive):
        uu, vv = np.triu_indices(graph.n, k=1)
        present = _lookup(graph.keys, uu * graph.n + vv)[1]
        return _batch(~present, np.stack([uu, vv], axis=1))
    if isinstance(policy, Sampled):
        rng = np.random.default_rng(policy.seed)
        s, p = graph.sensitive, graph.pairs
        intra = p[s[p[:, 0]] == s[p[:, 1]]]
        dels = intra[rng.random(len(intra)) < policy.gamma]
        adds = _sampled_adds(graph, policy.rho, rng)
        uv = np.concatenate([dels, adds])
        kinds = np.repeat(np.array([DELETE, ADD], dtype=np.int8),
                          [len(dels), len(adds)])
        # both parts are lexsorted already, so a stable sort of the keys is a
        # cheap merge
        order = np.argsort(uv[:, 0] * graph.n + uv[:, 1], kind="stable")
        return _batch(kinds[order], uv[order])
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
        _at_least(4, self, "n")
        _at_least(0, self, "seed", "n_features")
        for name in ("homophily", "groups", "label_bias"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise GraphError(f"{name} must lie in [0, 1]")
        if not (math.isfinite(self.edge_density) and self.edge_density > 0):
            raise GraphError("edge_density must be positive and finite")


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

    # the pairs of each kind are indexed implicitly, in row-major order; a
    # draw of indices leaves the stream as a draw from the pair list would
    intra, cross = _GroupPairs(s, intra=True), _GroupPairs(s, intra=False)
    if m_intra > intra.count or m_cross > cross.count:
        raise GraphError("infeasible edge density for this node count")
    edges = np.concatenate([
        intra.pairs(rng.choice(intra.count, size=m_intra, replace=False)),
        cross.pairs(rng.choice(cross.count, size=m_cross, replace=False))])

    # the appended features carry only a weak label signal drowned in unit
    # noise; the dominant shortcut lives in the sensitive attribute and in the
    # homophilous edge structure
    feats = np.empty((n, 1 + spec.n_features))
    feats[:, 0] = s
    feats[:, 1:] = rng.normal(loc=FEATURE_SIGNAL * y[:, None],
                              size=(n, spec.n_features))
    return Graph.build(feats, edges, s, y, sensitive_col=0)


def with_split(graph: Graph, fractions=(0.5, 0.25, 0.25), seed: int = 0) -> Graph:
    tr, va, te = split(graph.n, fractions, graph.labels, seed)
    return graph.replace(train_mask=tr, val_mask=va, test_mask=te)
