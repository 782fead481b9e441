import dataclasses
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from fairedit.cli import (_KEYS, EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_REFUSED,
                          ConfigError, DataError, ExperimentConfig,
                          build_arg_parser, emit_report, main, parse_config,
                          run_experiment)
from fairedit.editing import EditTrainConfig
from fairedit.graph import SyntheticSpec

SYNTH = "n=80,homophily=0.7,edge_density=3,label_bias=0.5,seed=0"


def _small_overrides(**kw):
    base = {
        "synthetic": SYNTH,
        "model": "gcn",
        "method": "standard",
        "lr": "0.01",
        "hidden": "8",
        "depth": "2",
        "k": "20",
        "seed": "0,1",
    }
    base.update(kw)
    return base


# ---------------------------------------------------------------------------
# config parsing

def test_parse_defaults():
    cfg = parse_config(None, _small_overrides())
    assert cfg.edit.alpha == 10
    assert cfg.edit.mask_iters == 5
    assert cfg.edit.binarize_threshold == 0.5
    assert cfg.sigma == 0.1
    assert cfg.K == 20


def test_parse_config_file(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(f"synthetic = {SYNTH}\nmethod = fairedit\nk = 5\n# comment\n")
    cfg = parse_config(str(p), {"model": "sage"})
    assert cfg.method == "fairedit"
    assert cfg.model == "sage"     # flag overrides
    assert cfg.K == 5
    assert cfg.edit.rho == 0.01    # FairEdit defaults attached


def test_parse_unknown_key(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("bogus = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(str(p), _small_overrides())


def test_parse_bad_alpha():
    with pytest.raises(ConfigError):
        parse_config(None, _small_overrides(alpha="-1"))


def test_parse_type_mismatch():
    with pytest.raises(ConfigError):
        parse_config(None, _small_overrides(k="many"))


def test_parse_requires_dataset():
    with pytest.raises(ConfigError, match="--nodes"):
        parse_config(None, {"model": "gcn"})


# one valid, non-default value per config key
_KEY_SAMPLES = {
    "nodes": "n.csv", "edges": "e.txt",
    "synthetic": "n=90,homophily=0.8,edge_density=3,label_bias=0.5,seed=1",
    "sensitive_col": "s", "label_col": "y", "dataset": "d", "model": "sage",
    "method": "fairedit", "lr": "0.1,0.2", "hidden": "4,8", "depth": "1,2",
    "optimizer": "sgd", "k": "50", "seed": "3,4", "sigma": "0.2",
    "out": "r.csv", "format": "structured", "alpha": "3", "rho": "0.5",
    "gamma": "0.5", "mask_iters": "2", "mask_lr": "0.1",
    "binarize_threshold": "0.3", "eval_nodes": "val", "candidate_cap": "7",
}


@pytest.mark.parametrize("key", list(_KEYS))
def test_config_key_file_and_flag_agree(tmp_path, key):
    value = _KEY_SAMPLES[key]
    base = tmp_path / "base.cfg"
    base.write_text(f"synthetic = {SYNTH}\n")
    by_file = tmp_path / "key.cfg"
    by_file.write_text(f"synthetic = {SYNTH}\n{key} = {value}\n")
    flags = vars(build_arg_parser().parse_args(
        ["--config", str(base), "--" + key.replace("_", "-"), value]))
    from_flag = parse_config(flags.pop("config"), flags)
    from_file = parse_config(str(by_file))
    assert from_file == from_flag
    assert from_file != parse_config(str(base))


@pytest.mark.parametrize("key", [k for k, row in _KEYS.items() if row[0] is not str])
def test_config_key_bad_value(key):
    with pytest.raises(ConfigError, match="bad value for"):
        parse_config(None, {"synthetic": SYNTH, key: "n=x"})


# ---------------------------------------------------------------------------
# experiment runs

def test_run_standard_k0_untrained_model():
    cfg = parse_config(None, _small_overrides(k="0", seed="0",
                                              synthetic=SYNTH.replace("n=40", "n=60")))
    reports, aggregate, best, traces = run_experiment(cfg)
    assert len(reports) == 1
    for v in reports[0].row():
        assert 0.0 <= v <= 1.0


def test_run_deterministic_reports(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        cfg = parse_config(None, _small_overrides(out=str(tmp_path / name)))
        reports, aggregate, best, traces = run_experiment(cfg)
        emit_report(reports, aggregate, cfg, traces, cfg.out_path, "rows")
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1]


def test_run_fairedit_end_to_end():
    cfg = parse_config(None, _small_overrides(method="fairedit", k="10",
                                              alpha="3", seed="0"))
    cfg.edit.rho, cfg.edit.gamma = 0.2, 0.2
    reports, aggregate, best, traces = run_experiment(cfg)
    assert len(reports) == 1
    assert 0 in traces


def test_run_leaves_edit_config_unchanged(tmp_path):
    # a run's K, clamped edit budget and seed go into a per-run copy, never
    # into the config; the structured report shows that copy's values
    edit = EditTrainConfig(alpha=50, rho=0.2, gamma=0.2)
    cfg = ExperimentConfig(synthetic=SyntheticSpec(80, 0.7, 3.0, 0.5),
                           method="fairedit", lrs=(0.01,), hiddens=(4,),
                           depths=(2,), K=3, seeds=(1,),
                           edit=dataclasses.replace(edit))
    reports, aggregate, best, traces = run_experiment(cfg)
    assert cfg.edit == edit
    assert len(traces[1].entries) + len(traces[1].skipped_epochs) == 3
    path = tmp_path / "r.json"
    emit_report(reports, aggregate, cfg, traces, path, "structured")
    block = json.loads(path.read_text())["config"]["edit"]
    assert block == {**dataclasses.asdict(edit), "K": 3, "alpha": 3}
    assert cfg.edit == edit


def test_grid_selection_by_val_f1():
    from fairedit import models
    from fairedit.cli import _load_graph, _split_graph, _train_one
    from fairedit.metrics import f1_score
    cfg = parse_config(None, _small_overrides(lr="0.01,1e-9", k="60", seed="0"))
    reports, aggregate, best, traces = run_experiment(cfg)
    # recompute each grid point's validation F1 and check the argmax won
    val = {}
    for lr in cfg.lrs:
        g = _split_graph(_load_graph(cfg), 0)
        params, gf, _ = _train_one(cfg, g, lr, 8, 2, 0)
        pred = models.predict(models.forward(params, gf))
        val[lr] = f1_score(pred, gf.labels, gf.val_mask)
    assert best[0] == max(val, key=lambda lr: val[lr])


def test_grid_tie_prefers_larger_lr_before_smaller_hidden():
    from fairedit.cli import select_grid_point
    tied = {(1e-9, 16, 2): 0.5, (2e-9, 32, 2): 0.5}
    assert select_grid_point(tied) == (2e-9, 32, 2)
    assert select_grid_point({(1e-3, 16, 3): 0.5, (1e-3, 32, 2): 0.5}) == (1e-3, 16, 3)
    assert select_grid_point({(1e-3, 16, 3): 0.5, (1e-3, 16, 2): 0.5}) == (1e-3, 16, 2)


# ---------------------------------------------------------------------------
# report emission

def _run_small(tmp_path):
    cfg = parse_config(None, _small_overrides(out=str(tmp_path / "out")))
    reports, aggregate, best, traces = run_experiment(cfg)
    return cfg, reports, aggregate, traces


def test_emit_rows_layout(tmp_path):
    cfg, reports, aggregate, traces = _run_small(tmp_path)
    path = tmp_path / "rows.csv"
    emit_report(reports, aggregate, cfg, traces, path, "rows")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "dataset,model,method,seed,f1,unfairness,instability,delta_sp,delta_eo"
    # per-seed rows + mean + std
    assert len(lines) == 1 + len(reports) + 2
    cells = lines[1].split(",")
    assert cells[1] == "gcn" and cells[2] == "standard"
    for v in cells[4:]:
        assert 0.0 <= float(v) <= 1.0


def test_emit_single_report_two_lines(tmp_path):
    cfg = parse_config(None, _small_overrides(seed="0"))
    reports, aggregate, best, traces = run_experiment(cfg)
    path = tmp_path / "one.csv"
    emit_report(reports[:1], aggregate, cfg, traces, path, "rows")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 1 + 2  # header + row + mean/std


def test_emit_structured_roundtrip(tmp_path):
    cfg, reports, aggregate, traces = _run_small(tmp_path)
    path = tmp_path / "out.json"
    emit_report(reports, aggregate, cfg, traces, path, "structured")
    doc = json.loads(path.read_text())
    for rep, rec in zip(reports, doc["reports"]):
        assert rec["f1"] == rep.f1
        assert rec["delta_sp"] == rep.delta_sp
        assert rec["unfairness"] == rep.unfairness
    assert doc["config"]["method"] == "standard"


# ---------------------------------------------------------------------------
# CLI entry point and exit codes

def test_main_success(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["--synthetic", SYNTH, "--model", "gcn", "--method", "standard",
               "--lr", "0.01", "--hidden", "8", "--depth", "2", "--k", "10",
               "--seed", "0", "--out", str(out)])
    assert rc == EXIT_OK
    assert out.exists()


def test_main_config_error():
    rc = main(["--model", "gcn"])  # no dataset
    assert rc == EXIT_CONFIG


def test_main_data_error(tmp_path):
    rc = main(["--nodes", str(tmp_path / "missing.csv"),
               "--edges", str(tmp_path / "missing.txt"),
               "--model", "gcn", "--method", "standard", "--k", "1",
               "--lr", "0.01", "--hidden", "8", "--depth", "2", "--seed", "0"])
    assert rc == EXIT_DATA


def test_main_bruteforce_refusal():
    rc = main(["--synthetic", "n=60,homophily=0.7,edge_density=3,label_bias=0.5,seed=0",
               "--model", "gcn", "--method", "bruteforce", "--k", "2",
               "--alpha", "1", "--candidate-cap", "10",
               "--lr", "0.01", "--hidden", "8", "--depth", "2", "--seed", "0"])
    assert rc == EXIT_REFUSED


def test_main_loads_files(tmp_path):
    nodes = tmp_path / "nodes.csv"
    rows = ["f1,sensitive,label"]
    rng = np.random.default_rng(0)
    for i in range(24):
        rows.append(f"{rng.normal():.4f},{i % 2},{(i // 2) % 2}")
    nodes.write_text("\n".join(rows) + "\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("\n".join(f"{i} {(i + 1) % 24}" for i in range(24)) + "\n")
    out = tmp_path / "r.csv"
    rc = main(["--nodes", str(nodes), "--edges", str(edges),
               "--model", "gcn", "--method", "standard", "--k", "5",
               "--lr", "0.01", "--hidden", "4", "--depth", "2",
               "--seed", "0", "--out", str(out)])
    assert rc == EXIT_OK


def test_main_loads_each_seed_graph_once(tmp_path, monkeypatch):
    # the input files are parsed once per run, not once per seed
    import fairedit.cli
    from fairedit.graph import load_edge_list, load_node_table
    calls = []

    def counting(name, load):
        def wrapped(*args):
            calls.append(name)
            return load(*args)
        return wrapped

    monkeypatch.setattr(fairedit.cli, "load_node_table",
                        counting("nodes", load_node_table))
    monkeypatch.setattr(fairedit.cli, "load_edge_list",
                        counting("edges", load_edge_list))
    nodes = tmp_path / "nodes.csv"
    rng = np.random.default_rng(0)
    nodes.write_text("f1,sensitive,label\n" + "".join(
        f"{rng.normal():.4f},{i % 2},{(i // 2) % 2}\n" for i in range(60)))
    edges = tmp_path / "edges.txt"
    edges.write_text("".join(f"{i} {(i + 1) % 60}\n" for i in range(60)))
    rc = main(["--nodes", str(nodes), "--edges", str(edges),
               "--model", "gcn", "--method", "standard", "--k", "2",
               "--lr", "0.01,0.001", "--hidden", "4", "--depth", "2",
               "--seed", "0,1", "--out", str(tmp_path / "r.csv")])
    assert rc == EXIT_OK
    assert calls == ["nodes", "edges"]


def test_run_synthesizes_the_graph_once(monkeypatch):
    import fairedit.cli
    from fairedit.graph import synth_biased_graph
    calls = []

    def counting(spec):
        calls.append(spec)
        return synth_biased_graph(spec)

    monkeypatch.setattr(fairedit.cli, "synth_biased_graph", counting)
    cfg = parse_config(None, _small_overrides(lr="0.01,0.001", k="2"))
    run_experiment(cfg)
    assert len(calls) == 1


def test_main_undefined_metric_exits_before_training(capsys):
    from fairedit import models
    models.reset_forward_calls()
    rc = main(["--synthetic", "n=80,homophily=0.7,edge_density=3,label_bias=1.0",
               "--model", "gcn", "--method", "fairedit", "--lr", "0.01,0.001",
               "--hidden", "4", "--depth", "2", "--k", "5", "--seed", "0,1"])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.startswith("data error: delta_eo")
    assert models.FORWARD_CALLS == 0


# ---------------------------------------------------------------------------
# error contract: every bad input ends in one stderr line and its exit code

def _tiny_class_files(tmp_path):
    nodes = tmp_path / "nodes.csv"
    rows = ["f1,sensitive,label"] + [f"{i}.0,{i % 2},{int(i < 2)}" for i in range(12)]
    nodes.write_text("\n".join(rows) + "\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n1 2\n")
    return ["--nodes", str(nodes), "--edges", str(edges)]


def _header_only_files(tmp_path):
    """A node table with its header and no row, beside an empty edge list."""
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("f1,sensitive,label\n")
    edges = tmp_path / "edges.txt"
    edges.write_text("")
    return ["--nodes", str(nodes), "--edges", str(edges)]


def _not_utf8(tmp_path, which):
    """Valid inputs except that file `which` (config, nodes or edges) has a
    0xff byte, which no UTF-8 text holds, on its second line."""
    files = dict(zip(("nodes", "edges"), _tiny_class_files(tmp_path)[1::2]))
    files["config"] = str(tmp_path / "run.cfg")
    Path(files["config"]).write_text("lr = 0.01\n")
    path = Path(files[which])
    text = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join([text[0], b"\xff" + text[1], *text[2:]]))
    return ["--config", files["config"], "--nodes", files["nodes"],
            "--edges", files["edges"]]


_TRAIN = ["--model", "gcn", "--method", "standard", "--lr", "0.01",
          "--hidden", "4", "--depth", "2", "--k", "2", "--seed", "0"]


_ERROR_CASES = [
    ("infeasible synthetic spec",
     lambda tmp: ["--synthetic", "n=10,homophily=0.9,edge_density=8,label_bias=0.5"],
     EXIT_DATA, "data error: infeasible edge density"),
    ("label class under 3 nodes", _tiny_class_files,
     EXIT_DATA, "data error: label class 1 has fewer nodes than splits"),
    ("header-only node table", _header_only_files,
     EXIT_DATA, "data error: "),
    ("missing node table",
     lambda tmp: ["--nodes", str(tmp / "none.csv"), "--edges", str(tmp / "none.txt")],
     EXIT_DATA, "data error: "),
    ("unwritable --out",
     lambda tmp: ["--synthetic", SYNTH, "--out", str(tmp / "no_dir" / "r.csv")],
     EXIT_CONFIG, "config error: cannot write"),
    ("no dataset", lambda tmp: [], EXIT_CONFIG, "config error: need --nodes"),
    ("unknown flag", lambda tmp: ["--synthetic", SYNTH, "--bogus", "1"],
     EXIT_CONFIG, "config error: unrecognized arguments: --bogus 1"),
    ("unknown model", lambda tmp: ["--synthetic", SYNTH, "--model", "bogus"],
     EXIT_CONFIG, "config error: unknown model 'bogus'"),
    ("undefined fairness metric",
     lambda tmp: ["--synthetic", "n=80,homophily=0.7,edge_density=3,label_bias=1.0"],
     EXIT_DATA, "data error: delta_eo"),
    ("zero lr", lambda tmp: ["--synthetic", SYNTH, "--lr", "0.01,0"],
     EXIT_CONFIG, "config error: lr must be positive and finite"),
    ("negative lr", lambda tmp: ["--synthetic", SYNTH, "--lr", "-0.01"],
     EXIT_CONFIG, "config error: lr must be positive and finite"),
    ("nan lr", lambda tmp: ["--synthetic", SYNTH, "--lr", "nan"],
     EXIT_CONFIG, "config error: lr must be positive and finite"),
    ("infinite lr", lambda tmp: ["--synthetic", SYNTH, "--lr", "inf"],
     EXIT_CONFIG, "config error: lr must be positive and finite"),
    ("zero depth", lambda tmp: ["--synthetic", SYNTH, "--depth", "0"],
     EXIT_CONFIG, "config error: depth must be >= 1"),
    ("zero hidden", lambda tmp: ["--synthetic", SYNTH, "--hidden", "0"],
     EXIT_CONFIG, "config error: hidden must be >= 1"),
    ("negative sigma", lambda tmp: ["--synthetic", SYNTH, "--sigma", "-1"],
     EXIT_CONFIG, "config error: sigma must be finite and >= 0"),
    ("nan mask lr",
     lambda tmp: ["--synthetic", SYNTH, "--method", "fairedit", "--mask-lr", "nan"],
     EXIT_CONFIG, "config error: mask_lr must be positive and finite"),
    ("negative seed", lambda tmp: ["--synthetic", SYNTH, "--seed", "-1"],
     EXIT_CONFIG, "config error: seed must be >= 0"),
    ("negative synthetic seed", lambda tmp: ["--synthetic", SYNTH + ",seed=-1"],
     EXIT_CONFIG, "config error: bad synthetic spec: seed must be >= 0"),
    ("negative synthetic n_features",
     lambda tmp: ["--synthetic", SYNTH + ",n_features=-1"],
     EXIT_CONFIG, "config error: bad synthetic spec: n_features must be >= 0"),
    ("nan synthetic edge_density",
     lambda tmp: ["--synthetic", "n=80,homophily=0.7,edge_density=nan,label_bias=0.5"],
     EXIT_CONFIG,
     "config error: bad synthetic spec: edge_density must be positive and finite"),
    ("infinite synthetic edge_density",
     lambda tmp: ["--synthetic", "n=80,homophily=0.7,edge_density=inf,label_bias=0.5"],
     EXIT_CONFIG,
     "config error: bad synthetic spec: edge_density must be positive and finite"),
    ("negative candidate_cap",
     lambda tmp: ["--synthetic", SYNTH, "--method", "bruteforce", "--candidate-cap", "-1"],
     EXIT_CONFIG, "config error: candidate_cap must be >= 0"),
]


def _exit_code(argv) -> int:
    """`main`'s exit code; a run that raises SystemExit gives that code."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.mark.parametrize("case,args,code,prefix", _ERROR_CASES,
                         ids=[c[0] for c in _ERROR_CASES])
def test_main_error_contract(tmp_path, capsys, case, args, code, prefix):
    rc = _exit_code([*_TRAIN, *args(tmp_path)])
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert rc == code, (case, err)
    assert len(lines) == 1 and lines[0].startswith(prefix), (case, err)
    assert "Traceback" not in err


@pytest.mark.parametrize("which,code,prefix", [
    ("config", EXIT_CONFIG, "config error: "),
    ("nodes", EXIT_DATA, "data error: "),
    ("edges", EXIT_DATA, "data error: "),
], ids=["config", "nodes", "edges"])
def test_main_input_not_utf8(tmp_path, capsys, which, code, prefix):
    args = _not_utf8(tmp_path, which)
    rc = _exit_code([*_TRAIN, *args])
    err = capsys.readouterr().err
    lines = err.splitlines()
    path = args[args.index("--" + which) + 1]
    at = Path(path).read_bytes().index(0xFF)
    assert rc == code, err
    assert lines == [f"{prefix}{path}: not UTF-8 text (invalid start byte at "
                     f"byte {at})"], err


@pytest.mark.parametrize("which", ["config", "nodes", "edges"])
def test_main_input_bom(tmp_path, which):
    # a UTF-8 byte order mark (as spreadsheet exports and Notepad write) at
    # the start of any input file is read past: same report as without it
    rng = np.random.default_rng(0)
    files = {"config": tmp_path / "run.cfg", "nodes": tmp_path / "nodes.csv",
             "edges": tmp_path / "edges.txt"}
    files["config"].write_text("k = 2\n")
    # the BOM lands on the first header cell and the first edge
    files["nodes"].write_text("sensitive,f1,label\n" + "".join(
        f"{i % 2},{rng.normal():.4f},{(i // 2) % 2}\n" for i in range(60)))
    files["edges"].write_text("".join(f"{i} {(i + 1) % 60}\n" for i in range(60)))
    args = [a for name, path in files.items() for a in ("--" + name, str(path))]
    want, got = tmp_path / "want.csv", tmp_path / "got.csv"
    assert main([*_TRAIN, *args, "--out", str(want)]) == EXIT_OK
    files[which].write_bytes(b"\xef\xbb\xbf" + files[which].read_bytes())
    assert main([*_TRAIN, *args, "--out", str(got)]) == EXIT_OK
    assert got.read_bytes() == want.read_bytes()


def test_module_entry_point_error_contract(tmp_path):
    # `python -m fairedit.cli` exits with main's code and its one stderr line
    import fairedit
    case, args, code, prefix = next(c for c in _ERROR_CASES if c[0] == "unknown flag")
    env = {**os.environ, "PYTHONPATH": str(Path(fairedit.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "fairedit.cli", *_TRAIN, *args(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    lines = proc.stderr.splitlines()
    assert proc.returncode == code, (case, proc.stderr)
    assert len(lines) == 1 and lines[0].startswith(prefix), (case, proc.stderr)
    assert "Traceback" not in proc.stderr


# Generated error contract: every numeric config key and every SyntheticSpec
# field, set to each edge value, through the in-process entry point. A run
# either succeeds with a finite report, or ends in one stderr line with its
# exit code; `refused` is expected only from a zero candidate cap.
_EDGE_VALUES = ("nan", "inf", "-1", "0")
_NUMERIC_KEYS = [k for k, row in _KEYS.items() if row[0] is not str and k != "synthetic"]
_SPEC_BASE = {"n": "80", "homophily": "0.7", "edge_density": "3", "label_bias": "0.5"}
_SPEC_FIELDS = [f for f, t in typing.get_type_hints(SyntheticSpec).items()
                if t in (int, float)]
_EDGE_CASES = [(f"{k}={v}", k, None, v) for k in _NUMERIC_KEYS for v in _EDGE_VALUES] + \
              [(f"synthetic.{f}={v}", None, f, v) for f in _SPEC_FIELDS for v in _EDGE_VALUES]


@pytest.mark.parametrize("case,key,field,value", _EDGE_CASES,
                         ids=[c[0] for c in _EDGE_CASES])
def test_main_edge_values(tmp_path, capsys, case, key, field, value):
    spec = {**_SPEC_BASE, **({field: value} if field else {})}
    flags = {"synthetic": ",".join(f"{k}={v}" for k, v in spec.items()),
             "model": "gcn", "method": "fairedit", "lr": "0.01", "hidden": "4",
             "depth": "2", "k": "3", "seed": "0", "out": str(tmp_path / "r.csv")}
    if key == "candidate_cap":
        # only the exhaustive editor reads the cap
        flags["method"] = "bruteforce"
    if key:
        flags[key] = value
    rc = main([a for k, v in flags.items() for a in ("--" + k.replace("_", "-"), v)])
    err = capsys.readouterr().err.splitlines()
    if rc == EXIT_OK:
        assert err == [], case
        rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        cells = [float(c) for row in rows for c in row.split(",")[4:]]
        assert rows and all(map(math.isfinite, cells)), (case, rows)
        return
    prefix = {EXIT_CONFIG: "config error: ", EXIT_DATA: "data error: ",
              EXIT_REFUSED: "refused: "}.get(rc)
    assert prefix is not None, (case, rc)
    assert len(err) == 1 and err[0].startswith(prefix), (case, err)
    if rc == EXIT_REFUSED:
        assert (key, value) == ("candidate_cap", "0"), (case, err)
