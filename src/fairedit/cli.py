"""Command-line experiment runner: hyperparameter grid over models and
training methods, deterministic multi-seed fairness reports."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import models
from .autodiff import Adam, SGD
from .editing import CandidateCapExceeded, EditTrainConfig, train_bruteforce, train_fairedit
from .graph import (Graph, GraphError, SyntheticSpec, load_edge_list,
                    load_node_table, normalize_features, split,
                    synth_biased_graph)
from .metrics import FairnessReport, evaluate, f1_score

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_REFUSED = 3

METHODS = ("standard", "bruteforce", "fairedit")

DEFAULT_GRID = {
    "lr": (1e-3, 1e-4, 1e-5),
    "hidden": (16, 32),
    "depth": (2, 3),
}


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
    lrs: tuple = DEFAULT_GRID["lr"]
    hiddens: tuple = DEFAULT_GRID["hidden"]
    depths: tuple = DEFAULT_GRID["depth"]
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
        if self.optimizer not in ("adam", "sgd"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if self.K < 0:
            raise ConfigError("K must be >= 0")
        if self.synthetic is None and (self.nodes_path is None or self.edges_path is None):
            raise ConfigError("need --nodes and --edges, or --synthetic")
        try:
            self.edit.K = self.K
            # the default edit budget may exceed a short run; edits only
            # happen in epochs k <= alpha anyway, so clamp
            self.edit.alpha = min(self.edit.alpha, self.K)
            self.edit.validate()
        except GraphError as e:
            raise ConfigError(str(e)) from e


_CONFIG_KEYS = {
    "nodes", "edges", "synthetic", "sensitive_col", "label_col", "dataset",
    "model", "method", "lr", "hidden", "depth", "optimizer", "k", "seed",
    "sigma", "out", "format", "alpha", "rho", "gamma", "mask_iters",
    "mask_lr", "binarize_threshold", "eval_nodes", "candidate_cap",
}


def _parse_synthetic(text: str) -> SyntheticSpec:
    kw = {}
    for item in text.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ConfigError(f"bad synthetic spec item {item!r}")
        k, v = item.split("=", 1)
        k = k.strip()
        if k in ("n", "seed", "n_features"):
            kw[k] = int(v)
        elif k in ("homophily", "edge_density", "label_bias", "groups"):
            kw[k] = float(v)
        else:
            raise ConfigError(f"unknown synthetic spec key {k!r}")
    try:
        spec = SyntheticSpec(**kw)
        spec.validate()
    except (TypeError, GraphError) as e:
        raise ConfigError(f"bad synthetic spec: {e}") from e
    return spec


def _apply_kv(cfg: ExperimentConfig, key: str, value: str) -> None:
    try:
        if key == "nodes":
            cfg.nodes_path = value
        elif key == "edges":
            cfg.edges_path = value
        elif key == "synthetic":
            cfg.synthetic = _parse_synthetic(value)
        elif key == "sensitive_col":
            cfg.sensitive_col = value
        elif key == "label_col":
            cfg.label_col = value
        elif key == "dataset":
            cfg.dataset_name = value
        elif key == "model":
            cfg.model = value
        elif key == "method":
            cfg.method = value
        elif key == "lr":
            cfg.lrs = tuple(float(x) for x in value.split(","))
        elif key == "hidden":
            cfg.hiddens = tuple(int(x) for x in value.split(","))
        elif key == "depth":
            cfg.depths = tuple(int(x) for x in value.split(","))
        elif key == "optimizer":
            cfg.optimizer = value
        elif key == "k":
            cfg.K = int(value)
        elif key == "seed":
            cfg.seeds = tuple(int(x) for x in value.split(","))
        elif key == "sigma":
            cfg.sigma = float(value)
        elif key == "out":
            cfg.out_path = value
        elif key == "format":
            if value not in ("rows", "structured"):
                raise ConfigError(f"unknown format {value!r}")
            cfg.out_format = value
        elif key == "alpha":
            cfg.edit.alpha = int(value)
            if cfg.edit.alpha < 0:
                raise ConfigError("alpha must be >= 0")
        elif key == "rho":
            cfg.edit.rho = float(value)
        elif key == "gamma":
            cfg.edit.gamma = float(value)
        elif key == "mask_iters":
            cfg.edit.mask_iters = int(value)
        elif key == "mask_lr":
            cfg.edit.mask_lr = float(value)
        elif key == "binarize_threshold":
            cfg.edit.binarize_threshold = float(value)
        elif key == "eval_nodes":
            cfg.edit.eval_nodes = value
        elif key == "candidate_cap":
            cfg.edit.candidate_cap = int(value)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    except (ValueError, TypeError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"bad value for {key!r}: {value!r}") from e


def parse_config(path: str | None = None, overrides: dict | None = None) -> ExperimentConfig:
    """Flat key = value config file; overrides (CLI flags) win."""
    cfg = ExperimentConfig()
    if path is not None:
        with open(path) as fh:
            for i, ln in enumerate(fh, start=1):
                ln = ln.split("#", 1)[0].strip()
                if not ln:
                    continue
                if "=" not in ln:
                    raise ConfigError(f"{path}:{i}: expected key = value")
                key, value = (x.strip() for x in ln.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{i}: unknown key {key!r}")
                _apply_kv(cfg, key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        _apply_kv(cfg, key, value)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Experiment execution

def _build_graph(cfg: ExperimentConfig, seed: int) -> Graph:
    """The experiment graph for one seed; every way the data can be unusable
    (unreadable files, infeasible synthetic spec, too few nodes to split)
    surfaces as DataError."""
    try:
        if cfg.synthetic is not None:
            g = synth_biased_graph(cfg.synthetic)
        else:
            feats, sens, labels, s_idx = load_node_table(
                cfg.nodes_path, cfg.sensitive_col, cfg.label_col)
            edges = load_edge_list(cfg.edges_path, len(feats))
            g = Graph.build(feats, edges, sens, labels, s_idx)
        tr, va, te = split(g.n, (0.5, 0.25, 0.25), g.labels, seed)
        g = g.replace(train_mask=tr, val_mask=va, test_mask=te)
        feats = normalize_features(g.features, g.train_mask, g.sensitive_col)
    except (OSError, GraphError) as e:
        raise DataError(str(e)) from e
    return g.replace(features=feats)


def _make_optimizer(cfg: ExperimentConfig, lr: float):
    return Adam(lr) if cfg.optimizer == "adam" else SGD(lr)


def _train_one(cfg: ExperimentConfig, graph: Graph, lr: float, hidden: int,
               depth: int, seed: int):
    params = models.init_params(cfg.model, graph.d, hidden, depth, seed)
    opt = _make_optimizer(cfg, lr)
    edit_cfg = EditTrainConfig(**{**cfg.edit.__dict__, "K": cfg.K, "seed": seed})
    if cfg.method == "standard":
        models.train(params, graph, opt, cfg.K)
        return params, graph, None
    if cfg.method == "bruteforce":
        return train_bruteforce(params, graph, opt, edit_cfg)
    return train_fairedit(params, graph, opt, edit_cfg)


def run_experiment(cfg: ExperimentConfig):
    """Grid search selected by mean validation F1, then per-seed test reports
    for the winning grid point plus a mean/std aggregate.

    Returns (reports, aggregate, selected_grid_point, traces)."""
    cfg.validate()
    runs = {}
    for lr in cfg.lrs:
        for hidden in cfg.hiddens:
            for depth in cfg.depths:
                key = (lr, hidden, depth)
                runs[key] = []
                for seed in cfg.seeds:
                    g = _build_graph(cfg, seed)
                    params, g_final, trace = _train_one(cfg, g, lr, hidden, depth, seed)
                    pred = models.predict(models.forward(params, g_final))
                    val_f1 = f1_score(pred, g_final.labels, g_final.val_mask)
                    runs[key].append((seed, params, g_final, trace, val_f1))

    best = max(runs, key=lambda k: (np.mean([r[4] for r in runs[k]]), -runs_order(k)))
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


def runs_order(key) -> float:
    # deterministic tiebreak for grid selection: prefer larger lr, then
    # smaller hidden/depth, encoded as a single scalar
    lr, hidden, depth = key
    return -lr * 1e9 + hidden * 10 + depth


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
                "edit": {k: v for k, v in cfg.edit.__dict__.items()},
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

def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fairedit",
        description="Train GNN node classifiers with fairness-driven edge "
                    "editing and report predictive and fairness metrics.")
    p.add_argument("--nodes", help="node table path (delimited, header row)")
    p.add_argument("--edges", help="edge list path ('u v' per line)")
    p.add_argument("--synthetic",
                   help="inline synthetic spec, e.g. "
                        "'n=400,homophily=0.9,edge_density=4,label_bias=0.8,seed=0'")
    p.add_argument("--model", choices=models.ARCHITECTURES)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--seed", help="comma-separated seed list")
    p.add_argument("--out", help="output report path")
    p.add_argument("--candidate-cap", dest="candidate_cap",
                   help="max node count for exhaustive enumeration")
    p.add_argument("--format", choices=("rows", "structured"))
    p.add_argument("--lr", help="comma-separated learning-rate grid")
    p.add_argument("--hidden", help="comma-separated hidden-size grid")
    p.add_argument("--depth", help="comma-separated depth grid")
    p.add_argument("--k", help="training epochs")
    p.add_argument("--alpha", help="edit budget")
    p.add_argument("--dataset", help="dataset name used in report rows")
    return p


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    overrides = {
        "nodes": args.nodes, "edges": args.edges, "synthetic": args.synthetic,
        "model": args.model, "method": args.method, "seed": args.seed,
        "out": args.out, "candidate_cap": args.candidate_cap,
        "format": args.format, "lr": args.lr, "hidden": args.hidden,
        "depth": args.depth, "k": args.k, "alpha": args.alpha,
        "dataset": args.dataset,
    }
    try:
        cfg = parse_config(args.config, overrides)
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
