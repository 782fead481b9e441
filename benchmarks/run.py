"""Benchmark of the fairedit package: three closed-loop workloads.

    python3 benchmarks/run.py --workload fairedit_sbm400 --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, one child each
    python3 benchmarks/run.py --smoke                 # tiny versions, checks metric names

One client, one thread: each unit of work starts after the previous one has
finished, and the next one starts only if it is expected to end within
``--seconds``. BLAS and OpenMP are pinned to one thread. Inputs are made from
``--seed``; generated files go to a temporary directory inside the checkout
that is removed at exit.

Unit times are reference seconds: wall time scaled by how fast a fixed
reference kernel ran at that moment (see ``tracer.Probe``), because load from
outside the process changes this machine's speed by up to 1.6x; wall times
are printed alongside. Set-up time is in wall seconds.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each unit
twice on the same inputs, once untraced and once traced, and prints the
per-layer split and the tracing overhead. Human-readable lines come first;
the last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Metric names, units and directions are in BENCHMARK.json at
the root of the repository.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from itertools import count  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("fairedit_sbm400", "bruteforce_sbm200", "cli_dense1000")
SETUP_REPEATS = 5
# Times the package import in a fresh interpreter; argv[1] is the src path.
IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import fairedit; "
                "print(time.perf_counter() - t)")


def load_package():
    """Import NumPy and the fairedit package from this checkout's ``src``;
    returns the workloads module."""
    sys.path.insert(0, str(ROOT / "src"))
    import fairedit
    import workloads
    if Path(fairedit.__file__).resolve().parent.parent != ROOT / "src":
        raise ImportError(f"fairedit imported from {fairedit.__file__}, "
                          f"not from {ROOT / 'src'}")
    return workloads


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the package."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def machine_info() -> str:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
    return (f"machine nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} blas={blas} {threads}")


def p90(values):
    return quantiles(values, n=10)[-1] if len(values) >= 2 else values[0]


def run_workload(wl, seed: int, seconds: float, trace: bool):
    """Closed loop of units; returns (result dict, human-readable lines)."""
    from tracer import REFERENCE_S, Tracer
    from workloads import quality_summary

    # Set-up stays in wall seconds: the reference kernel, run between
    # interpreter starts, varied more than the set-up itself did.
    imports, gen = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(import_seconds())
        t0 = perf_counter()
        inputs = wl.setup(seed * 1000)
        gen.append(perf_counter() - t0)
    import_s = median(imports)
    setup_s = import_s + median(gen)

    untraced, traced, problems = [], [], []
    attempted = failed = 0
    start = perf_counter()
    for i in count():
        t_iter = perf_counter()
        unit_seed = seed * 1000 + i
        if i:
            inputs = wl.setup(unit_seed)
        pair = []
        for tracer in ([None, Tracer()] if trace else [None]):
            attempted += 1
            try:
                u = wl.unit(inputs, unit_seed, tracer)
            except Exception:
                traceback.print_exc()
                failed += 1
                problems.append(f"unit seed {unit_seed} raised")
                pair.append(None)
                continue
            if u.problems:
                failed += 1
                problems += [f"unit seed {unit_seed}: {p}" for p in u.problems]
            pair.append(u)
        if pair[0] is not None:
            untraced.append(pair[0])
        if trace and pair[0] is not None and pair[1] is not None:
            traced.append((pair[0], pair[1]))
        # stop unless one more iteration like this one would end in time
        now = perf_counter()
        if now - start + (now - t_iter) > seconds:
            break

    lines = [f"workload {wl.name} seed={seed} seconds={seconds:g} trace={int(trace)} "
             f"units={len(untraced)}"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    if untraced:
        kernel = [k for u in untraced for k in u.kernel_s]
        lines.append(f"speed reference kernel median {1000 * median(kernel):.4f} ms "
                     f"over {len(kernel)} probes; times below are scaled to "
                     f"{1000 * REFERENCE_S:.4f} ms")
    if untraced and not trace:
        for name in untraced[0].times:
            vals = [u.times[name] for u in untraced]
            wall = [u.wall[name] for u in untraced]
            lines.append(f"metric {name} {median(vals):.4f} s (median of {len(vals)}; "
                         f"wall {median(wall):.4f} s)")
        ops = [x for u in untraced for x in u.ops]
        lines.append(f"metric {wl.op_name} median {1000 * median(ops):.3f} ms, "
                     f"p90 {1000 * p90(ops):.3f} ms (n={len(ops)})")
        for name, value in quality_summary(untraced).items():
            lines.append(f"metric {name} {value:.4f} ratio (not gated: exact per seed)")
        put("run_s", median(u.times[wl.run_metric] for u in untraced), "s")
        put("op_ms", 1000 * median(ops), "ms")
        put("setup_s", setup_s, "s")
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    if traced:
        for name in traced[0][1].layers:
            put(name, sum(t.layers[name] for _, t in traced) / len(traced),
                "s" if name.endswith("_s") else
                "ratio" if name.endswith("_yield") else "count")
        over = [t.scaled_seconds - u.scaled_seconds for u, t in traced]
        put("trace.overhead_s", median(over), "s")
        put("trace.overhead_share",
            median(o / u.scaled_seconds for o, (u, _) in zip(over, traced)), "ratio")
    lines.append(f"metric setup_s {setup_s:.4f} s (wall, medians of {SETUP_REPEATS}: "
                 f"import {import_s:.4f} s + input generation)")
    lines.append(f"metric failed_ops {failed / attempted:.4f} ratio "
                 f"({failed} of {attempted} units)")
    for name, m in metrics.items():
        lines.append(f"metric {name} {m['value']!r} {m['unit']}")
    for u in untraced:
        for key, d in u.digests.items():
            lines.append(f"digest {wl.name} {key} {d}")
    lines += [f"problem {p}" for p in problems]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool):
    wl_mod = load_package()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        wl = wl_mod.WORKLOADS[name](smoke, Path(tmp))
        return run_workload(wl, seed, seconds, trace)


def run_all(args) -> int:
    """Each workload in a child process of its own, so peak RSS is that
    workload's; prints every child's lines and one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode != 0 or not out:
            print(f"problem {name} exited {proc.returncode}")
            return 1
        res = json.loads(out[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def run_smoke(args) -> int:
    """Tiny versions of all workloads, untraced and traced; fails unless each
    is correct and emits exactly the metrics BENCHMARK.json names, each with
    its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOAD_NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run_one(name, args.seed, 0.0, trace, smoke=True)
            print("\n".join(lines))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                ok = False
                print(f"smoke FAIL {name} trace={int(trace)}: missing "
                      f"{sorted(set(want) - set(got))}, unexpected "
                      f"{sorted(set(got) - set(want))}, unit mismatch "
                      f"{sorted(k for k in set(want) & set(got) if want[k] != got[k])}")
            if not result["correct"]:
                ok = False
                print(f"smoke FAIL {name} trace={int(trace)}: not correct")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run tiny versions of every workload and check metric names")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if args.smoke:
        return run_smoke(args)
    if args.workload == "all":
        return run_all(args)
    result, lines = run_one(args.workload, args.seed, args.seconds,
                            bool(args.trace), smoke=False)
    print(machine_info())
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
