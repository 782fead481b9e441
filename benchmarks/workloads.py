"""The benchmark's three workloads.

Each workload makes its inputs from a seed (``setup``) and runs one unit of
work on them (``unit``), checking the program's outputs. A unit runs either
with a clock on the workload's inner operation (the untraced run) or under a
``Tracer`` that records every layer call (the traced run); in both, a
``Probe`` tracks machine speed so that times are given in reference seconds.

* ``fairedit_sbm400`` - the frozen acceptance-6 setup, plain training and
  FairEdit on one seed. Bound by counterfactual sampling, g* building and
  mask refinement.
* ``bruteforce_sbm200`` - one brute-force edit epoch on the acceptance-5
  graph: n(n-1)/2 + 1 forward-only passes on 2n-node twin graphs. Bound by
  per-call graph construction (``disjoint_union`` -> ``Graph.build``).
* ``cli_dense1000`` - ``fairedit.cli.main`` on a generated German-shaped file
  pair with mean degree 44. No edits; bound by the aggregation kernel, with
  the files re-parsed for every grid point and seed.
"""
from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from time import perf_counter

import numpy as np

from fairedit import autodiff, cli, editing, graph, metrics, models
from fairedit.autodiff import Adam
from fairedit.editing import EditTrainConfig
from fairedit.graph import EditKind, SyntheticSpec

from tracer import Clock, Patch, Probe, Tally, Tracer

# (span name, owner, attribute) of every layer boundary the traced run records
LAYERS = (
    ("graph.candidate_edits", graph, "candidate_edits"),
    ("graph.apply_edit", graph, "apply_edit"),
    ("graph.build", graph.Graph, "build"),
    ("graph.disjoint_union", graph, "disjoint_union"),
    ("graph.ingest", graph, "load_node_table"),
    ("graph.ingest", graph, "load_edge_list"),
    ("autodiff.edge_aggregate", autodiff, "edge_aggregate"),
    ("autodiff.backward", autodiff, "backward"),
    ("autodiff.optimizer", autodiff.Adam, "step"),
    ("autodiff.optimizer", autodiff.SGD, "step"),
    ("models.forward", models, "forward"),
    ("models.adjacency", models.NormalizedAdjacency, "__init__"),
    ("models.train_step", models, "train_step"),
    ("metrics.counterfactual_unfairness", metrics, "counterfactual_unfairness"),
    ("metrics.evaluate", metrics, "evaluate"),
    ("editing.counterfactual_graph", editing, "generate_counterfactual_graph"),
    ("editing.mask_refine", editing, "edge_sensitivity_scores"),
    ("editing.brute_force_select", editing, "brute_force_select"),
    ("cli.parse_config", cli, "parse_config"),
    ("cli.emit_report", cli, "emit_report"),
)
LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

REPORT_FIELDS = ("f1", "unfairness", "instability", "delta_sp", "delta_eo")


@dataclass
class Unit:
    """What one unit of work measured and found."""

    seconds: float = 0.0                         # wall time of the whole unit
    scaled_seconds: float = 0.0                  # the same in reference seconds
    times: dict = field(default_factory=dict)    # named timings, reference seconds
    wall: dict = field(default_factory=dict)     # the same timings, wall seconds
    ops: list = field(default_factory=list)      # inner operations, reference seconds
    kernel_s: list = field(default_factory=list)  # probe kernel wall times
    problems: list = field(default_factory=list)  # failed output checks
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)   # per-layer counts (traced run)
    layers: dict = field(default_factory=dict)   # per-layer metrics (traced run)


@contextmanager
def _instrumented(tracer: Tracer | None, clock_target):
    """Rebind the package for one unit: a clock on the workload's inner
    operation when untraced, every layer wrapper when traced, and in both
    cases the speed probe on ``models.forward``. Yields (patch, clock, probe)."""
    clock, probe = Clock(), Probe(tracer=tracer)
    with Patch() as patch:
        if tracer is None:
            patch.wrap(*clock_target, clock)
        else:
            for name, owner, attr in LAYERS:
                patch.wrap(owner, attr, tracer.wrapper(name))
        patch.wrap(models, "forward", probe)
        yield patch, clock, probe


class _NoSpan:
    index = -1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


def _span(tracer: Tracer | None, name: str):
    return _NoSpan() if tracer is None else tracer.span(name)


def _timed(u: Unit, probe: Probe, marks: dict, start: float, end: float) -> None:
    """Fill the unit's times, in reference seconds, and wall times."""
    for name, (a, b) in marks.items():
        u.times[name] = float(probe.scaled(a, b))
        u.wall[name] = b - a
    u.seconds = end - start
    u.scaled_seconds = float(probe.scaled(start, end))
    u.kernel_s = probe.kernel_seconds().tolist()


def _digest(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


def _check_report(report, label: str, problems: list) -> None:
    for name in REPORT_FIELDS:
        v = getattr(report, name)
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            problems.append(f"{label}: {name}={v!r} is not a finite value in [0, 1]")


def _check_replay(g0, trace, g_final, problems: list) -> None:
    """Replaying the edit trace on the input graph must give the final edge
    set; replayed here on a plain set, independently of ``apply_edit``."""
    edges = set(g0.edges)
    for entry in trace.entries:
        e = entry.edit
        key = (e.u, e.v)
        if (e.kind is EditKind.ADD) == (key in edges):
            problems.append(f"replay: epoch {entry.epoch} {e.kind.value} {key} "
                            f"does not apply")
        if e.kind is EditKind.ADD:
            edges.add(key)
        else:
            edges.discard(key)
    if edges != set(g_final.edges):
        problems.append("replay: trace does not reproduce the final edge set")


def _finish_traced(unit: Unit, tracer: Tracer, probe: Probe, forwards: int) -> None:
    """Per-layer metrics of one traced unit, self times in reference seconds,
    plus the forward-count self-check: every counted forward must have gone
    through the ``models.forward`` wrapper, or some call site escaped the
    rebinding."""
    seconds, calls = tracer.self_times(probe.scaled)
    spans = calls["models.forward"]
    if spans != forwards:
        unit.problems.append(f"self-check: {spans} models.forward spans but "
                             f"FORWARD_CALLS moved by {forwards}")
    for name in LAYER_NAMES:
        unit.layers[f"{name}.self_s"] = seconds.get(name, 0.0)
        unit.layers[f"{name}.calls"] = calls.get(name, 0)
    unit.layers["bench.unattributed.self_s"] = sum(
        s for name, s in seconds.items()
        if name.startswith("bench.") and name != "bench.probe")
    unit.layers["models.forwards"] = forwards
    unit.layers["trace.spans"] = len(tracer.names)
    c = unit.counts
    scored = c.get("edits_scored", 0)
    applied = c.get("edits_applied", 0)
    unit.layers.update({
        "editing.selection_forwards": c.get("selection_forwards", 0),
        "editing.sampled_edits": c.get("sampled_edits", 0),
        "editing.skipped_epochs": c.get("skipped_epochs", 0),
        "editing.edits_applied": applied,
        "editing.edits_scored": scored,
        "editing.edit_yield": applied / scored if scored else 0.0,
        "cli.graph_loads": c.get("graph_loads", 0),
    })


def _check_epoch_forwards(unit: Unit, tracer: Tracer, root: int, trace,
                          within: str | None) -> None:
    traced = tracer.forwards_per_epoch(root, within)
    if traced != trace.selection_forwards:
        unit.problems.append(
            f"self-check: traced per-epoch forwards {sorted(traced.items())[:5]} "
            f"differ from EditTrace.selection_forwards "
            f"{sorted(trace.selection_forwards.items())[:5]}")


# ---------------------------------------------------------------------------

class FaireditSBM:
    """Plain training then FairEdit on one seed of the frozen acceptance-6
    setup; the inner operation is one FairEdit edit epoch."""

    name = "fairedit_sbm400"
    run_metric = "fairedit_run_s"
    op_name = "fairedit_epoch_ms"

    FULL = dict(n=400, hidden=16, depth=3, K=250, alpha=190, rho=0.0075,
                gamma=0.25, mask_iters=5)
    SMOKE = dict(n=60, hidden=4, depth=2, K=8, alpha=5, rho=0.05,
                 gamma=0.5, mask_iters=2)

    def __init__(self, smoke: bool, workdir: Path):
        self.p = self.SMOKE if smoke else self.FULL

    def setup(self, seed: int):
        spec = SyntheticSpec(n=self.p["n"], homophily=0.9, edge_density=2,
                             label_bias=0.8, seed=seed)
        g = graph.with_split(graph.synth_biased_graph(spec), seed=seed)
        feats = graph.normalize_features(g.features, g.train_mask, g.sensitive_col)
        return g.replace(features=feats)

    def unit(self, g, seed: int, tracer: Tracer | None) -> Unit:
        p = self.p
        u = Unit()
        marks = {}
        sampled = Tally(lambda args, out: len(out[1]))
        t_unit = perf_counter()
        with _instrumented(tracer, (models, "train_step")) as (patch, clock, probe):
            if tracer is not None:
                patch.wrap(editing, "generate_counterfactual_graph", sampled)
            f_unit = models.FORWARD_CALLS

            params = models.init_params("gcn", g.d, p["hidden"], p["depth"], seed)
            with _span(tracer, "bench.plain"):
                f0, t0 = models.FORWARD_CALLS, perf_counter()
                models.train(params, g, Adam(0.01), p["K"])
                marks["plain_run_s"] = (t0, perf_counter())
                if models.FORWARD_CALLS - f0 != p["K"]:
                    u.problems.append(f"plain training ran {models.FORWARD_CALLS - f0} "
                                      f"forwards, want K={p['K']}")
                plain = metrics.evaluate(params, g, seed=seed)

            params = models.init_params("gcn", g.d, p["hidden"], p["depth"], seed)
            cfg = EditTrainConfig(alpha=p["alpha"], K=p["K"], rho=p["rho"],
                                  gamma=p["gamma"], mask_iters=p["mask_iters"],
                                  seed=seed)
            with _span(tracer, "bench.fairedit") as root:
                f0, c0, t0 = models.FORWARD_CALLS, len(clock.starts), perf_counter()
                _, g_edit, trace = editing.train_fairedit(params, g, Adam(0.01), cfg)
                marks["fairedit_run_s"] = (t0, perf_counter())
                fe_forwards = models.FORWARD_CALLS - f0
                fair = metrics.evaluate(params, g_edit, seed=seed)
            forwards = models.FORWARD_CALLS - f_unit
        _timed(u, probe, marks, t_unit, perf_counter())

        # edit epoch k runs from the k-th train_step to the next one
        starts = np.asarray(clock.starts[c0:c0 + p["alpha"] + 1])
        u.ops = probe.scaled(starts[:-1], starts[1:]).tolist()

        sel = trace.selection_forwards
        per_epoch = 2 * p["mask_iters"]
        if sorted([*sel, *trace.skipped_epochs]) != list(range(1, p["alpha"] + 1)):
            u.problems.append("edit epochs are not exactly 1..alpha")
        bad = {k: v for k, v in sel.items() if v != per_epoch}
        if bad:
            u.problems.append(f"selection forwards {bad} differ from "
                              f"2*mask_iters={per_epoch}")
        want = p["K"] + per_epoch * len(sel)
        if fe_forwards != want:
            u.problems.append(f"train_fairedit ran {fe_forwards} forwards, want {want}")
        _check_replay(g, trace, g_edit, u.problems)
        _check_report(plain, "plain evaluate", u.problems)
        _check_report(fair, "fairedit evaluate", u.problems)

        u.digests[f"trace[{seed}]"] = _digest(trace.serialize())
        u.quality = {"plain_delta_sp": plain.delta_sp, "fairedit_delta_sp": fair.delta_sp,
                     "plain_f1": plain.f1, "fairedit_f1": fair.f1}
        if tracer is not None:
            u.counts = {"selection_forwards": sum(sel.values()),
                        "sampled_edits": sampled.total,
                        "edits_scored": sampled.total,
                        "skipped_epochs": len(trace.skipped_epochs),
                        "edits_applied": len(trace.entries)}
            _check_epoch_forwards(u, tracer, root.index, trace, "editing.mask_refine")
            _finish_traced(u, tracer, probe, forwards)
        return u


class BruteforceSBM:
    """One brute-force edit epoch (train_bruteforce with alpha = K = 1) on the
    acceptance-5 graph; the inner operation is scoring one candidate edit."""

    name = "bruteforce_sbm200"
    run_metric = "bruteforce_epoch_s"
    op_name = "candidate_ms"

    FULL = dict(n=200)
    SMOKE = dict(n=20)

    def __init__(self, smoke: bool, workdir: Path):
        self.p = self.SMOKE if smoke else self.FULL

    def setup(self, seed: int):
        spec = SyntheticSpec(n=self.p["n"], homophily=0.7, edge_density=2,
                             label_bias=0.5, seed=seed)
        return graph.with_split(graph.synth_biased_graph(spec), seed=seed)

    def unit(self, g, seed: int, tracer: Tracer | None) -> Unit:
        u = Unit()
        marks = {}
        candidates = Tally(lambda args, out: len(args[2]))
        n = g.n
        t_unit = perf_counter()
        clocked = (metrics, "counterfactual_unfairness")
        with _instrumented(tracer, clocked) as (patch, clock, probe):
            if tracer is not None:
                patch.wrap(editing, "brute_force_select", candidates)
            params = models.init_params("gcn", g.d, 4, 2, seed)
            cfg = EditTrainConfig(alpha=1, K=1, seed=seed)
            with _span(tracer, "bench.bruteforce") as root:
                f0, t0 = models.FORWARD_CALLS, perf_counter()
                _, g_edit, trace = editing.train_bruteforce(params, g, Adam(0.01), cfg)
                marks["bruteforce_epoch_s"] = (t0, perf_counter())
                forwards = models.FORWARD_CALLS - f0
        _timed(u, probe, marks, t_unit, perf_counter())

        # candidate i runs from its counterfactual_unfairness call to the next
        starts = np.asarray(clock.starts)
        u.ops = probe.scaled(starts[:-1], starts[1:]).tolist()

        want = n * (n - 1) // 2 + 1
        if trace.selection_forwards != {1: want} or forwards != want:
            u.problems.append(f"brute force ran {forwards} forwards "
                              f"({trace.selection_forwards}), want {want}")
        if len(trace.entries) != 1:
            u.problems.append(f"{len(trace.entries)} edits applied, want 1")
        _check_replay(g, trace, g_edit, u.problems)
        u.digests[f"trace[{seed}]"] = _digest(trace.serialize())
        if tracer is not None:
            u.counts = {"selection_forwards": sum(trace.selection_forwards.values()),
                        "edits_scored": candidates.total,
                        "edits_applied": len(trace.entries)}
            _check_epoch_forwards(u, tracer, root.index, trace, None)
            _finish_traced(u, tracer, probe, forwards)
        return u


def german_like_files(seed: int, directory: Path, n: int, columns: int,
                      edges: int) -> tuple[Path, Path]:
    """Write a node table shaped like the German credit table (a binary
    sensitive column, columns - 1 other features, a binary label with 70 %
    positives) and an undirected edge list with `edges` distinct edges that,
    like the German similarity graph, mostly join nodes with the same label
    and the same sensitive value. The mix keeps every report metric
    informative: with weaker label signal the model predicts all-positive."""
    rng = np.random.default_rng(seed)
    s = (rng.random(n) < 0.69).astype(np.int64)
    x = rng.normal(size=(n, columns - 1))
    x[:, ::3] = x[:, ::3] > 0.5                  # one-hot-like 0/1 columns
    score = 2.0 * x @ rng.normal(size=columns - 1) / math.sqrt(columns) \
        + 0.8 * s + rng.normal(size=n)
    y = (score > np.quantile(score, 0.3)).astype(np.int64)
    nodes = directory / f"nodes_{seed}.csv"
    header = ",".join(["sensitive"] + [f"x{j}" for j in range(1, columns)] + ["label"])
    np.savetxt(nodes, np.column_stack([s, x, y]), fmt="%.6g", delimiter=",",
               header=header, comments="")

    draws = 8 * edges
    a, b = rng.integers(0, n, draws), rng.integers(0, n, draws)
    accept = 1.0 - 0.45 * (y[a] != y[b]) - 0.3 * (s[a] != s[b])
    keep = (a != b) & (rng.random(draws) < accept)
    keys = np.minimum(a, b)[keep] * n + np.maximum(a, b)[keep]
    _, first = np.unique(keys, return_index=True)
    if len(first) < edges:
        raise RuntimeError(f"only {len(first)} distinct edges for n={n}")
    chosen = keys[np.sort(first)[:edges]]
    path = directory / f"edges_{seed}.txt"
    np.savetxt(path, np.column_stack([chosen // n, chosen % n]), fmt="%d")
    return nodes, path


class CliDense:
    """``fairedit.cli.main`` with the README's German grid command on a
    generated German-shaped file pair; the inner operation is one training
    step on the dense graph."""

    name = "cli_dense1000"
    run_metric = "cli_run_s"
    op_name = "train_step_ms"

    FULL = dict(n=1000, columns=27, edges=22_000, k=50)
    SMOKE = dict(n=200, columns=27, edges=1200, k=2)
    SEEDS = (0, 1, 2)

    def __init__(self, smoke: bool, workdir: Path):
        self.p = self.SMOKE if smoke else self.FULL
        self.workdir = workdir

    def setup(self, seed: int):
        return german_like_files(seed, self.workdir, self.p["n"],
                                 self.p["columns"], self.p["edges"])

    def unit(self, files, seed: int, tracer: Tracer | None) -> Unit:
        u = Unit()
        marks = {}
        loads = Tally()
        nodes, edges = files
        out = self.workdir / f"report_{seed}.csv"
        argv = ["--nodes", str(nodes), "--edges", str(edges),
                "--method", "standard", "--model", "gcn", "--lr", "0.01,0.001",
                "--hidden", "16", "--depth", "2", "--k", str(self.p["k"]),
                "--seed", ",".join(map(str, self.SEEDS)), "--out", str(out)]
        t_unit = perf_counter()
        with _instrumented(tracer, (models, "train_step")) as (patch, clock, probe):
            if tracer is not None:
                patch.wrap(graph, "load_node_table", loads)
            with _span(tracer, "bench.cli"):
                f0, t0 = models.FORWARD_CALLS, perf_counter()
                code = cli.main(argv)
                marks["cli_run_s"] = (t0, perf_counter())
                forwards = models.FORWARD_CALLS - f0
        _timed(u, probe, marks, t_unit, perf_counter())
        u.ops = probe.scaled(np.asarray(clock.starts), np.asarray(clock.ends)).tolist()

        if code != 0:
            u.problems.append(f"cli.main exited {code}")
        else:
            self._check_report(out.read_text(), u.problems)
            u.digests[f"report[{seed}]"] = _digest(out.read_bytes())
        if tracer is not None:
            u.counts = {"graph_loads": loads.calls}
            _finish_traced(u, tracer, probe, forwards)
        return u

    def _check_report(self, text: str, problems: list) -> None:
        rows = [ln.split(",") for ln in text.splitlines()]
        seeds = [r[3] for r in rows[1:]]
        want = [str(s) for s in self.SEEDS] + ["mean", "std"]
        if seeds != want:
            problems.append(f"report rows {seeds}, want {want}")
        for r in rows[1:]:
            vals = [float(v) for v in r[4:]]
            if len(vals) != len(REPORT_FIELDS) or \
                    not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in vals):
                problems.append(f"report row {r[3]}: {r[4:]} not finite in [0, 1]")


WORKLOADS = {w.name: w for w in (FaireditSBM, BruteforceSBM, CliDense)}


def quality_summary(units: list[Unit]) -> dict:
    """dsp_ratio and f1_gap over the run's FairEdit seeds, as acceptance 6
    computes them (exact for given seeds, so no spread applies)."""
    q = [u.quality for u in units if u.quality]
    if not q:
        return {}
    plain_sp = mean(x["plain_delta_sp"] for x in q)
    out = {"f1_gap": abs(mean(x["fairedit_f1"] for x in q) - mean(x["plain_f1"] for x in q))}
    if plain_sp > 0:
        out["dsp_ratio"] = mean(x["fairedit_delta_sp"] for x in q) / plain_sp
    return out
