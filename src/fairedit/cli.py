"""Command-line experiment runner: hyperparameter grid over models and
training methods, deterministic multi-seed fairness reports."""
from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import sys
import typing
from dataclasses import dataclass, field

import numpy as np

from . import models
from .autodiff import Adam, SGD
from .editing import CandidateCapExceeded, EditTrainConfig, train_bruteforce, train_fairedit
from .graph import (Graph, GraphError, SyntheticSpec, load_edge_list,
                    load_node_table, normalize_features, text_lines,
                    synth_biased_graph, with_split)
from .metrics import MetricUndefinedError, delta_eo, delta_sp, evaluate, f1_score

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_REFUSED = 3

METHODS = ("standard", "bruteforce", "fairedit")
OPTIMIZERS = ("adam", "sgd")
FORMATS = ("rows", "structured")


class ConfigError(ValueError):
    pass


class DataError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    nodes_path: str | None = None
    edges_path: str | None = None
    synthetic: SyntheticSpec | None = None
    sensitive_col: str = "sensitive"
    label_col: str = "label"
    dataset_name: str = "dataset"
    model: str = "gcn"
    method: str = "standard"
    lrs: tuple = (1e-3, 1e-4, 1e-5)     # default grid: lr x hidden x depth
    hiddens: tuple = (16, 32)
    depths: tuple = (2, 3)
    optimizer: str = "adam"
    K: int = 1000
    seeds: tuple = (0,)
    sigma: float = 0.1
    out_path: str | None = None
    out_format: str = "rows"
    edit: EditTrainConfig = field(default_factory=EditTrainConfig)

    def validate(self) -> None:
        if self.model not in models.ARCHITECTURES:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.out_format not in FORMATS:
            raise ConfigError(f"unknown format {self.out_format!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if not all(seed >= 0 for seed in self.seeds):
            raise ConfigError("seed must be >= 0")
        if self.K < 0:
            raise ConfigError("K must be >= 0")
        if not all(math.isfinite(lr) and lr > 0 for lr in self.lrs):
            raise ConfigError("lr must be positive and finite")
        if not all(h >= 1 for h in self.hiddens):
            raise ConfigError("hidden must be >= 1")
        if not all(d >= 1 for d in self.depths):
            raise ConfigError("depth must be >= 1")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError("sigma must be finite and >= 0")
        if self.synthetic is None and (self.nodes_path is None or self.edges_path is None):
            raise ConfigError("need --nodes and --edges, or --synthetic")
        try:
            _edit_config(self, self.edit.seed).validate()
        except GraphError as e:
            raise ConfigError(str(e)) from e


def _edit_config(cfg: ExperimentConfig, seed: int) -> EditTrainConfig:
    """The edit settings of a run of `cfg` with `seed`: the run's K, and the
    edit budget clamped to it. The default budget may exceed a short run;
    edits only happen in epochs k <= alpha anyway (a negative alpha stays
    negative and fails validation)."""
    return dataclasses.replace(cfg.edit, K=cfg.K, alpha=min(cfg.edit.alpha, cfg.K),
                               seed=seed)


def _parse_synthetic(text: str) -> SyntheticSpec:
    types = typing.get_type_hints(SyntheticSpec)
    kw = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ConfigError(f"bad synthetic spec item {item!r}")
        k, v = item.split("=", 1)
        k = k.strip()
        if k not in types:
            raise ConfigError(f"unknown synthetic spec key {k!r}")
        kw[k] = types[k](v)
    try:
        spec = SyntheticSpec(**kw)
        spec.validate()
    except (TypeError, GraphError) as e:
        raise ConfigError(f"bad synthetic spec: {e}") from e
    return spec


def _comma_list(item):
    """Parser for a comma-separated list of ``item`` values."""
    return lambda text: tuple(item(x) for x in text.split(","))


# The one list of config keys. Each row is key: (value parser, attribute path
# on ExperimentConfig, help); it defines both the `key = value` config-file
# key and the --key flag. Values are checked in ExperimentConfig.validate.
_KEYS = {
    "nodes": (str, "nodes_path", "node table path (delimited, header row)"),
    "edges": (str, "edges_path", "edge list path ('u v' per line)"),
    "synthetic": (_parse_synthetic, "synthetic",
                  "inline synthetic spec, e.g. "
                  "'n=400,homophily=0.9,edge_density=4,label_bias=0.8,seed=0'"),
    "sensitive_col": (str, "sensitive_col", "node-table column of the sensitive attribute"),
    "label_col": (str, "label_col", "node-table column of the label"),
    "dataset": (str, "dataset_name", "dataset name used in report rows"),
    "model": (str, "model", "GNN architecture: " + ", ".join(models.ARCHITECTURES)),
    "method": (str, "method", "training method: " + ", ".join(METHODS)),
    "lr": (_comma_list(float), "lrs", "comma-separated learning-rate grid"),
    "hidden": (_comma_list(int), "hiddens", "comma-separated hidden-size grid"),
    "depth": (_comma_list(int), "depths", "comma-separated depth grid"),
    "optimizer": (str, "optimizer", "optimizer: " + ", ".join(OPTIMIZERS)),
    "k": (int, "K", "training epochs"),
    "seed": (_comma_list(int), "seeds", "comma-separated seed list"),
    "sigma": (float, "sigma", "feature-noise scale of the instability metric"),
    "out": (str, "out_path", "output report path"),
    "format": (str, "out_format", "report format: " + ", ".join(FORMATS)),
    "alpha": (int, "edit.alpha", "edit budget (clamped to k)"),
    "rho": (float, "edit.rho", "cross-group add sampling probability"),
    "gamma": (float, "edit.gamma", "intra-group delete sampling probability"),
    "mask_iters": (int, "edit.mask_iters", "score-refinement iterations per edit"),
    "mask_lr": (float, "edit.mask_lr", "score-refinement learning rate"),
    "binarize_threshold": (float, "edit.binarize_threshold",
                           "edge-mask binarization threshold in (0, 1)"),
    "eval_nodes": (str, "edit.eval_nodes",
                   "nodes that drive brute-force edit selection: train, val "
                   "(fairedit's mask loss covers all nodes and ignores it)"),
    "candidate_cap": (int, "edit.candidate_cap",
                      "max node count for exhaustive enumeration"),
}


def _apply_kv(cfg: ExperimentConfig, key: str, value: str) -> None:
    if key not in _KEYS:
        raise ConfigError(f"unknown key {key!r}")
    parse, path, _ = _KEYS[key]
    try:
        parsed = parse(value)
    except ConfigError:
        raise
    except (ValueError, TypeError) as e:
        raise ConfigError(f"bad value for {key!r}: {value!r}") from e
    *owners, attr = path.split(".")
    setattr(functools.reduce(getattr, owners, cfg), attr, parsed)


def parse_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Flat key = value config file; overrides (CLI flags) win."""
    cfg = ExperimentConfig()
    if path is not None:
        try:
            lines = list(text_lines(path))
        except GraphError as e:
            raise ConfigError(str(e)) from e
        for i, ln in enumerate(lines, start=1):
            ln = ln.split("#", 1)[0].strip()
            if not ln:
                continue
            if "=" not in ln:
                raise ConfigError(f"{path}:{i}: expected key = value")
            key, value = (x.strip() for x in ln.split("=", 1))
            try:
                _apply_kv(cfg, key, value)
            except ConfigError as e:
                raise ConfigError(f"{path}:{i}: {e}") from e
    for key, value in (overrides or {}).items():
        if value is not None:
            _apply_kv(cfg, key, value)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Experiment execution

def _load_graph(cfg: ExperimentConfig) -> Graph:
    """The run's unsplit graph, parsed from the input files or synthesized;
    unreadable files and infeasible specs surface as DataError. Every seed of
    a run splits this one graph."""
    try:
        if cfg.synthetic is not None:
            return synth_biased_graph(cfg.synthetic)
        feats, sens, labels, s_idx = load_node_table(
            cfg.nodes_path, cfg.sensitive_col, cfg.label_col)
        edges = load_edge_list(cfg.edges_path, len(feats))
        return Graph.build(feats, edges, sens, labels, s_idx)
    except (OSError, GraphError) as e:
        raise DataError(str(e)) from e


def _split_graph(base: Graph, seed: int) -> Graph:
    """`base` split and feature-normalized for one seed; too few nodes to
    split, or a test split on which Delta_SP or Delta_EO is undefined,
    surfaces as DataError, before any training."""
    try:
        g = with_split(base, seed=seed)
        feats = normalize_features(g.features, g.train_mask, g.sensitive_col)
        # whether the group gaps are defined depends on the test split's
        # labels and groups only, not on the predictions
        delta_sp(g.labels, g.sensitive, g.test_mask)
        delta_eo(g.labels, g.labels, g.sensitive, g.test_mask)
    except (GraphError, MetricUndefinedError) as e:
        raise DataError(str(e)) from e
    return g.replace(features=feats)


def _train_one(cfg: ExperimentConfig, graph: Graph, lr: float, hidden: int,
               depth: int, seed: int):
    params = models.init_params(cfg.model, graph.d, hidden, depth, seed)
    opt = (Adam if cfg.optimizer == "adam" else SGD)(lr)
    if cfg.method == "standard":
        models.train(params, graph, opt, cfg.K)
        return params, graph, None
    edit_cfg = _edit_config(cfg, seed)
    if cfg.method == "bruteforce":
        return train_bruteforce(params, graph, opt, edit_cfg)
    return train_fairedit(params, graph, opt, edit_cfg)


def run_experiment(cfg: ExperimentConfig):
    """Grid search selected by mean validation F1, then per-seed test reports
    for the winning grid point plus a mean/std aggregate.

    Returns (reports, aggregate, selected_grid_point, traces)."""
    cfg.validate()
    # graphs are immutable: the input is parsed once, and every grid point
    # shares each seed's split of it
    base = _load_graph(cfg)
    graphs = {seed: _split_graph(base, seed) for seed in cfg.seeds}
    runs = {}
    for key in itertools.product(cfg.lrs, cfg.hiddens, cfg.depths):
        runs[key] = []
        for seed in cfg.seeds:
            params, g_final, trace = _train_one(cfg, graphs[seed], *key, seed)
            pred = models.predict(models.forward(params, g_final))
            val_f1 = f1_score(pred, g_final.labels, g_final.val_mask)
            runs[key].append((seed, params, g_final, trace, val_f1))

    best = select_grid_point({k: np.mean([r[4] for r in rs]) for k, rs in runs.items()})
    reports, traces = [], {}
    for seed, params, g_final, trace, _ in runs[best]:
        rep = evaluate(params, g_final, sigma=cfg.sigma, seed=seed,
                       metadata={"dataset": cfg.dataset_name, "model": cfg.model,
                                 "method": cfg.method, "lr": best[0],
                                 "hidden": best[1], "depth": best[2]})
        reports.append(rep)
        if trace is not None:
            traces[seed] = trace

    rows = np.array([r.row() for r in reports])
    aggregate = {
        "mean": rows.mean(axis=0).tolist(),
        "std": rows.std(axis=0).tolist(),
    }
    return reports, aggregate, best, traces


def select_grid_point(val_f1: dict) -> tuple:
    """The (lr, hidden, depth) key with the highest mean validation F1; ties
    prefer the larger lr, then the smaller hidden size, then the smaller depth."""
    return max(val_f1, key=lambda k: (val_f1[k], k[0], -k[1], -k[2]))


def emit_report(reports, aggregate, cfg: ExperimentConfig, traces,
                path, out_format: str = "rows") -> None:
    if not reports:
        raise ConfigError("emit_report: no reports")
    if out_format == "rows":
        lines = ["dataset,model,method,seed,f1,unfairness,instability,delta_sp,delta_eo"]
        for rep in reports:
            md = rep.metadata
            vals = ",".join(repr(v) for v in rep.row())
            lines.append(f"{md['dataset']},{md['model']},{md['method']},{md['seed']},{vals}")
        for name in ("mean", "std"):
            vals = ",".join(repr(v) for v in aggregate[name])
            lines.append(f"{cfg.dataset_name},{cfg.model},{cfg.method},{name},{vals}")
        text = "\n".join(lines) + "\n"
    else:
        doc = {
            "config": {
                "dataset": cfg.dataset_name, "model": cfg.model,
                "method": cfg.method, "K": cfg.K, "seeds": list(cfg.seeds),
                "sigma": cfg.sigma,
                "edit": dataclasses.asdict(_edit_config(cfg, cfg.edit.seed)),
            },
            "reports": [r.to_dict() for r in reports],
            "aggregate": aggregate,
            "traces": {str(seed): t.serialize() for seed, t in traces.items()},
        }
        text = json.dumps(doc, indent=2) + "\n"
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e}") from e


# ---------------------------------------------------------------------------
# Entry point

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a config error: one line, exit 1 (not argparse's
        # usage dump and exit 2, which means a data error here)
        raise ConfigError(message)


def build_arg_parser() -> argparse.ArgumentParser:
    p = _ArgumentParser(
        prog="fairedit",
        description="Train GNN node classifiers with fairness-driven edge "
                    "editing and report predictive and fairness metrics.")
    p.add_argument("--config", help="flat key = value config file; flags override it")
    for key, (_, _, help_text) in _KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)
    return p


def main(argv=None) -> int:
    try:
        flags = vars(build_arg_parser().parse_args(argv))
        cfg = parse_config(flags.pop("config"), flags)
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        reports, aggregate, best, traces = run_experiment(cfg)
        if cfg.out_path:
            emit_report(reports, aggregate, cfg, traces, cfg.out_path, cfg.out_format)
        else:
            for rep in reports:
                print(rep.to_dict())
            print({"aggregate": aggregate, "grid_point": best})
    except CandidateCapExceeded as e:
        print(f"refused: {e}", file=sys.stderr)
        return EXIT_REFUSED
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
