"""Benchmark of the qubit-observer CLI: four workloads, end to end and per layer.

Run from the root of a checkout (``src/`` and ``configs/`` present):

    python3 perfbench/run.py --workload simulate_csv --seed 1 --seconds 25 --trace 0

One benchmark process runs the workload's CLI commands one after another, each
in a fresh ``python -m qubit_observer.cli`` process with ``src`` on
PYTHONPATH and the environment otherwise untouched (no BLAS thread pinning).
One operation is one CLI invocation plus this benchmark's own check of its
outputs (``checks.py``, computed without the package).  A pass runs every
command of the workload once; passes repeat until ``--seconds`` have gone by
(at least ``MIN_PASSES``), and each metric is the median over the passes.

``--trace 0`` prints the end-to-end metrics: ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` per pass, and ``setup_s``, the median over fresh processes
(``SETUP_PER_PASS`` before each pass) of the time to import
``qubit_observer.cli`` and load the workload's config.  ``--trace 1``
alternates untraced passes with passes under ``traced_cli.py``, adds one
tracemalloc pass, and prints the per-layer metrics and the tracing overhead.  The last line of standard output is one
JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import copy
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
MIN_PASSES = 3
SETUP_PER_PASS = 3
CHILD_TIMEOUT_S = 120.0
MB = 1e6
REQUIRED = ("src/qubit_observer/cli.py", "configs/default.json",
            "configs/oracle_eigenstate.json")
SETUP_CODE = ("import sys, time\n"
              "t0 = time.perf_counter()\n"
              "from qubit_observer.cli import load_config\n"
              "load_config(sys.argv[1])\n"
              "print(repr(time.perf_counter() - t0))\n")


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_simulate_csv(out, cfg):
    return (checks.check_paths_csv(checks.load_table(out / "paths.csv"), cfg)
            + checks.check_simulate_report(_json(out / "report.json"), cfg))


def _check_simulate_report(out, cfg):
    return checks.check_simulate_report(_json(out / "report.json"), cfg)


def _check_filter(out, cfg):
    return (checks.check_riccati_csv(checks.load_table(out / "riccati.csv"), cfg)
            + checks.check_filter_report(_json(out / "report.json"), cfg))


def _check_self_test(out, _cfg):
    return checks.check_self_test_report(_json(out / "report.json"))


def _check_oracle(out, cfg):
    return checks.check_oracle_csv(checks.load_table(out / "oracle.csv"), cfg)


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload, its generated config and its check."""

    command: str
    base: str                      # file under configs/
    check: Callable
    artifacts: tuple = ("report.json",)
    edits: dict = field(default_factory=dict)
    flags: tuple = ()


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "simulate_csv": [
        Op("simulate", "default.json", _check_simulate_csv, ("paths.csv", "report.json")),
    ],
    "ensemble_stats": [
        Op("simulate", "default.json", _check_simulate_report,
           edits={"sim": {"n_paths": 20000}, "outputs": {"formats": ["json"]}}),
    ],
    "filter_mc": [
        Op("filter", "default.json", _check_filter, ("riccati.csv", "report.json")),
        Op("filter", "default.json", _check_self_test, flags=("--self-test",)),
    ],
    "oracle_fock": [
        Op("oracle", "oracle_eigenstate.json", _check_oracle, ("oracle.csv", "report.json")),
        Op("oracle", "default.json", _check_oracle, ("oracle.csv", "report.json")),
    ],
}

# Per-layer metric -> (how it is derived, span or counter, unit).  "process":
# median over CLI processes of the span; "total"/"self"/"cpu": summed over
# the spans of a pass, median over traced passes; "peak": tracemalloc peak
# above entry, from the tracemalloc pass; "count": exact work per pass.
LAYER_METRICS = {
    "cli.import_s": ("process", "cli.import", "s"),
    "config.load_config_s": ("process", "config.load_config", "s"),
    "model_builder.build_augmented_s": ("total", "model_builder.build_augmented", "s"),
    "sde_engine.simulate_paths_s": ("total", "sde_engine.simulate_paths", "s"),
    "sde_engine.simulate_paths_peak_mb": ("peak", "sde_engine.simulate_paths", "MB"),
    "sde_engine.ensemble_mean_cov_s": ("total", "sde_engine.ensemble_mean_cov", "s"),
    "sde_engine.write_paths_csv_s": ("total", "sde_engine.write_paths_csv", "s"),
    "cli.cmd_simulate_self_s": ("self", "cli.cmd_simulate", "s"),
    "kalman_filter.solve_riccati_s": ("total", "kalman_filter.solve_riccati", "s"),
    "kalman_filter.run_filter_ensemble_s": ("total", "kalman_filter.run_filter_ensemble", "s"),
    "kalman_filter.run_filter_ensemble_peak_mb":
        ("peak", "kalman_filter.run_filter_ensemble", "MB"),
    "kalman_filter.write_riccati_csv_s": ("total", "kalman_filter.write_riccati_csv", "s"),
    "cli.cmd_filter_self_s": ("self", "cli.cmd_filter", "s"),
    "cli.cmd_filter_peak_mb": ("peak", "cli.cmd_filter", "MB"),
    "fock_oracle.build_operators_s": ("total", "fock_oracle.build_operators", "s"),
    "fock_oracle.evolve_s": ("total", "fock_oracle.evolve", "s"),
    "fock_oracle.evolve_cpu_s": ("cpu", "fock_oracle.evolve", "s"),
    "fock_oracle.expectations_s": ("total", "fock_oracle.expectations", "s"),
    "fock_oracle.write_oracle_csv_s": ("total", "fock_oracle.write_oracle_csv", "s"),
    "cli.cmd_oracle_self_s": ("self", "cli.cmd_oracle", "s"),
    "export.write_json_s": ("total", "export.write_json", "s"),
    "sde_engine.path_steps": ("count", "path_steps", "count"),
    "sde_engine.csv_rows": ("count", "csv_rows", "count"),
    "sde_engine.csv_mb": ("count", "csv_bytes", "MB"),
    "kalman_filter.riccati_nodes": ("count", "riccati_nodes", "count"),
    "fock_oracle.me_steps": ("count", "me_steps", "count"),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot go on (not a failed operation)."""


def _merge(base: dict, edits: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in edits.items():
        out[key] = _merge(out.get(key, {}), val) if isinstance(val, dict) else val
    return out


def spawn(argv, env, log_path):
    """Run a child to completion: (exit code, wall s, user+sys CPU s, max RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / MB)


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class Workload:
    """Generated configs, child environment and the operation ledger of one run."""

    def __init__(self, root: Path, name: str, seed: int, run_dir: Path):
        self.ops = WORKLOADS[name]
        self.seed = seed
        self.run_dir = run_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        run_dir.mkdir(parents=True)
        self.configs = []
        for i, op in enumerate(self.ops):
            cfg = _merge(_json(root / "configs" / op.base), op.edits)
            path = run_dir / f"config{i}.json"
            path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
            self.configs.append((path, cfg))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.logged = set()

    def setup_probe(self) -> float:
        """Import + load_config time of the first op's config in a fresh process."""
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(self.configs[0][0])],
                             env=self.env, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{out.stderr[-2000:]}")
        return float(out.stdout.strip().splitlines()[-1])

    def run_pass(self, trace: str = ""):
        """Run every op once; trace is "", "spans" or "tracemalloc".

        Returns (wall s, CPU s, peak RSS MB, spans per op).
        """
        wall = cpu = rss = 0.0
        spans = []
        for i, op in enumerate(self.ops):
            out = self.run_dir / f"op{i}"
            shutil.rmtree(out, ignore_errors=True)
            cli = [op.command, "--config", str(self.configs[i][0]), "--out", str(out),
                   "--seed", str(self.seed), *op.flags]
            spans_path = self.run_dir / f"spans{i}.json"
            if trace:
                argv = [sys.executable, str(HERE / "traced_cli.py"), "--spans",
                        str(spans_path)] + (["--tracemalloc"] if trace == "tracemalloc" else [])
                argv += ["--", *cli]
            else:
                argv = [sys.executable, "-m", "qubit_observer.cli", *cli]
            log = self.run_dir / f"op{i}.log"
            rc, w, c, r = spawn(argv, self.env, log)
            wall += w
            cpu += c
            rss = max(rss, r)
            self.attempted += 1
            if rc != 0:
                self.failed += 1
                if i not in self.logged:
                    self.logged.add(i)
                    tail = log.read_text(errors="replace")[-1500:]
                    print(f"perfbench: op {i} ({op.command}) exited {rc}:\n{tail}",
                          file=sys.stderr)
            self._check(i, op, out)
            if trace and spans_path.is_file():
                spans.append(_json(spans_path))
        return wall, cpu, rss, spans

    def _check(self, i: int, op: Op, out: Path) -> None:
        """Full independent check the first time; byte identity with that pass after."""
        try:
            digests = {name: _digest(out / name) for name in op.artifacts}
        except FileNotFoundError as exc:
            self.problems.append(f"op {i}: missing artifact {exc.filename}")
            return
        if i not in self.digests:
            self.digests[i] = digests
            self.problems += [f"op {i} ({op.command}): {msg}"
                              for msg in op.check(out, self.configs[i][1])]
        elif digests != self.digests[i]:
            self.problems.append(f"op {i} ({op.command}): artifacts differ between passes")

    def result(self, metrics: dict) -> dict:
        for msg in self.problems:
            print(f"perfbench: check failed: {msg}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def measure(wl: Workload, seconds: float) -> dict:
    start = time.perf_counter()
    wl.setup_probe()  # warm-up: writes bytecode caches, fills the file cache
    setup, passes = [], []
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        # Probes interleave with passes so both see the same machine state.
        setup += [wl.setup_probe() for _ in range(SETUP_PER_PASS)]
        passes.append(wl.run_pass())
    walls, cpus, rsss, _ = zip(*passes)
    return wl.result({
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rsss), "unit": "MB"},
    })


def _layers(spans_per_op) -> tuple:
    """One pass's layer figures keyed by (kind, span or counter), and span
    durations per process keyed by span name."""
    acc = defaultdict(float)
    process = defaultdict(list)
    for spans in spans_per_op:
        covered = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            process[name].append(dur)
            acc["total", name] += dur
            acc["self", name] += dur - covered[s["id"]]
            acc["cpu", name] += s["cpu1"] - s["cpu0"]
            if "peak" in s:
                acc["peak", name] = max(acc["peak", name], (s["peak"] - s["mem0"]) / MB)
            for key, val in s["counts"].items():
                acc["count", key] += val
    return acc, process


def trace(wl: Workload, seconds: float) -> dict:
    start = time.perf_counter()
    plain, traced = [], []
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        plain.append(wl.run_pass())
        traced.append(wl.run_pass("spans"))
    memory = _layers(wl.run_pass("tracemalloc")[3])[0]
    per_pass = [_layers(p[3]) for p in traced]
    metrics = {}
    for metric, (kind, key, unit) in LAYER_METRICS.items():
        if kind == "process":
            value = statistics.median(
                [d for _, proc in per_pass for d in proc.get(key, [])] or [0.0])
        elif kind == "peak":
            value = memory.get((kind, key), 0.0)
        elif kind == "count":
            value = per_pass[0][0].get((kind, key), 0)
            value = value / MB if unit == "MB" else int(value)
        else:
            value = statistics.median(acc.get((kind, key), 0.0) for acc, _ in per_pass)
        metrics[metric] = {"value": value, "unit": unit}
    overhead = (statistics.median(p[0] for p in traced)
                - statistics.median(p[0] for p in plain))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return wl.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: run from the root of a qubit-observer checkout; "
              f"missing {missing}", file=sys.stderr)
        return 2
    run_dir = root / OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = Workload(root, args.workload, args.seed, run_dir)
        result = (trace if args.trace else measure)(wl, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
