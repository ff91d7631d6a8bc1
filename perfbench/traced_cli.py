"""Run one qubit-observer CLI command with spans around the calls into each layer.

Usage, from the root of a checkout with ``src`` on PYTHONPATH:

    python3 perfbench/traced_cli.py --spans FILE [--tracemalloc] -- <cli args>

The package is not edited: the public functions are wrapped under the names
the CLI calls them by, by replacing those names in ``qubit_observer.cli``.
Each span records its name, start and end (``perf_counter``), process CPU at
start and end (``process_time``, all threads), its parent, and exact work
counts taken from the call's arguments or output.  With ``--tracemalloc``
each span also records the peak of traced memory above its level at entry;
that pass is slower, so its times are not used.  Spans stay in memory and are
written as JSON when the command ends; the exit code is the CLI's.
"""

import functools
import json
import sys
import time
import tracemalloc


def _path_steps(_model, config, *_args, **_kwargs):
    return {"path_steps": config.n_paths * config.n_steps}


def _csv_size(path, *_args, **_kwargs):
    with open(path, "rb") as fh:
        data = fh.read()
    return {"csv_rows": data.count(b"\n") - 1, "csv_bytes": len(data)}


def _riccati_nodes(_model, grid, *_args, **_kwargs):
    return {"riccati_nodes": len(grid)}


def _me_steps(_state, _ops, config, *_args, **_kwargs):
    return {"me_steps": config.n_steps}


# Name in qubit_observer.cli -> (span name, work counter or None).
WRAPPED = {
    "load_config": ("config.load_config", None),
    "cmd_simulate": ("cli.cmd_simulate", None),
    "cmd_filter": ("cli.cmd_filter", None),
    "cmd_oracle": ("cli.cmd_oracle", None),
    "build_augmented": ("model_builder.build_augmented", None),
    "simulate_paths": ("sde_engine.simulate_paths", _path_steps),
    "ensemble_mean_cov": ("sde_engine.ensemble_mean_cov", None),
    "write_paths_csv": ("sde_engine.write_paths_csv", _csv_size),
    "solve_riccati": ("kalman_filter.solve_riccati", _riccati_nodes),
    "run_filter_ensemble": ("kalman_filter.run_filter_ensemble", None),
    "write_riccati_csv": ("kalman_filter.write_riccati_csv", None),
    "build_operators": ("fock_oracle.build_operators", None),
    "evolve": ("fock_oracle.evolve", _me_steps),
    "expectations": ("fock_oracle.expectations", None),
    "write_oracle_csv": ("fock_oracle.write_oracle_csv", None),
    "write_json": ("export.write_json", None),
}


class Tracer:
    """Nested spans of one process, kept in memory."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans = []
        self.stack = []

    def _fold_peak(self) -> None:
        # tracemalloc keeps one peak; fold it into every open span, then reset,
        # so a nested span's reset does not hide the outer span's peak.
        if self.memory:
            peak = tracemalloc.get_traced_memory()[1]
            for span in self.stack:
                span["peak"] = max(span["peak"], peak)
            tracemalloc.reset_peak()

    def open(self, name: str) -> dict:
        self._fold_peak()
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "counts": {}}
        if self.memory:
            span["mem0"] = span["peak"] = tracemalloc.get_traced_memory()[0]
        self.spans.append(span)
        self.stack.append(span)
        span["cpu0"] = time.process_time()
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        span["cpu1"] = time.process_time()
        self._fold_peak()
        self.stack.pop()

    def wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span["counts"] = counter(*args, **kwargs)
            return result
        return traced


def main(argv) -> int:
    if "--" not in argv or argv[:1] != ["--spans"]:
        print("usage: traced_cli.py --spans FILE [--tracemalloc] -- <cli args>",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    spans_path, memory, cli_args = argv[1], "--tracemalloc" in argv[2:split], argv[split + 1:]
    if memory:
        tracemalloc.start()
    tracer = Tracer(memory)
    span = tracer.open("cli.import")
    import qubit_observer.cli as cli
    tracer.close(span)
    for attr, (name, counter) in WRAPPED.items():
        setattr(cli, attr, tracer.wrap(getattr(cli, attr), name, counter))
    span = tracer.open("cli.main")
    try:
        return cli.main(cli_args)
    finally:
        tracer.close(span)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
