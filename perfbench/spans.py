"""Tracing from outside the program: spans around calls into each layer.

:func:`install` replaces the public functions of each module in
``src/apsabench`` (and the entries of the ``STEPPERS`` table) with wrappers
that time every call.  No file under ``src/`` is edited.  A closed span is
folded at once into a summary keyed by (span name, parent span name): call
count, total seconds and self seconds (total minus the time its child spans
cover).  Keeping every span of an ensemble run would take millions of
records, so only the summary is held in memory and written out at the end.

A function that a later version of the program removes or renames is simply
not wrapped; every layer metric that depends on it is then reported as
absent (``None``) instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module of src/apsabench, public attribute)
TARGETS = {
    "ip_gains": ("filters", "ip_gains"),
    "bs_gains": ("filters", "bs_gains"),
    "shift_memory": ("filters", "shift_memory"),
    "error_vector": ("filters", "error_vector"),
    "sign_vector": ("filters", "sign_vector"),
    "normalized_update": ("filters", "normalized_update"),
    "misalignment_db": ("harness", "misalignment_db"),
    "path_at": ("echo_path", "path_at"),
    "run_trial": ("harness", "run_trial"),
    "run_ensemble": ("harness", "run_ensemble"),
    "ar1_colored": ("signals", "ar1_colored"),
    "white_gaussian": ("signals", "white_gaussian"),
    "bernoulli_gaussian": ("signals", "bernoulli_gaussian"),
    "scale_to_ratio": ("signals", "scale_to_ratio"),
    "load_wav": ("audio", "load_wav"),
    "make_block_sparse": ("echo_path", "make_block_sparse"),
    "parse_config": ("cli", "parse_config"),
    "emit_csv": ("cli", "emit_csv"),
    "emit_plot_data": ("cli", "emit_plot_data"),
    "write_manifest": ("cli", "write_manifest"),
}
ALGORITHMS = ("apsa", "mip-apsa", "bs-mip-apsa")
SYNTH = ("ar1_colored", "white_gaussian", "bernoulli_gaussian", "scale_to_ratio")
EMIT = ("emit_csv", "emit_plot_data")


class Tracer:
    """Span summary built as spans close: (name, parent) -> [count, total, self]."""

    def __init__(self) -> None:
        self.edges: dict[tuple[str, str | None], list] = {}
        self._stack: list[list] = []  # open spans: [name, seconds covered by children]

    def wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        edges = self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record = edges.get((name, parent))
                if record is None:
                    record = edges[(name, parent)] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]

        return traced

    def summary(self) -> list:
        return [[name, parent, *record] for (name, parent), record in self.edges.items()]


def _rebind(old, new) -> None:
    # Replace every reference the program's modules hold, so calls made through
    # a re-export or a ``from ... import`` are traced too.
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "apsabench" or mod_name.startswith("apsabench.")):
            continue
        namespace = vars(module)
        for key in [k for k, v in namespace.items() if v is old]:
            namespace[key] = new


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists in the loaded program; return the span names."""
    installed = []
    for name, (mod_name, attr) in TARGETS.items():
        try:
            module = importlib.import_module(f"apsabench.{mod_name}")
        except ImportError:
            continue
        fn = getattr(module, attr, None)
        if callable(fn):
            _rebind(fn, tracer.wrap(name, fn))
            installed.append(name)
    steppers = getattr(sys.modules.get("apsabench.filters"), "STEPPERS", None)
    if isinstance(steppers, dict):
        for algo in ALGORITHMS:
            if callable(steppers.get(algo)):
                steppers[algo] = tracer.wrap(f"step.{algo}", steppers[algo])
                installed.append(f"step.{algo}")
    return installed


# metric -> (unit, better, end-to-end metrics it should move, where it shows)
PER_LAYER = {
    **{
        f"filters.step_us.{a}": ("us", "lower", "wall_s steps_per_s", "all; most on ensemble128 and echo512")
        for a in ALGORITHMS
    },
    **{
        f"filters.step_self_us.{a}": ("us", "lower", "wall_s", "ensemble128")
        for a in ALGORITHMS
    },
    "filters.gain_us.ip_gains": ("us", "lower", "wall_s", "echo512; no calls on single_wav"),
    "filters.gain_us.bs_gains": ("us", "lower", "wall_s", "echo512; no calls on single_wav"),
    "filters.memory_us": ("us", "lower", "wall_s peak_rss_mb", "ensemble128; no calls on single_wav"),
    "filters.error_sign_us": ("us", "lower", "wall_s", "all"),
    "filters.update_us": ("us", "lower", "wall_s", "all"),
    **{
        f"filters.calls.{f}": ("count", "lower", "none (confirms the work done)", "all")
        for f in (
            *(f"step.{a}" for a in ALGORITHMS),
            "ip_gains",
            "bs_gains",
            "shift_memory",
            "error_vector",
            "sign_vector",
            "normalized_update",
        )
    },
    "harness.misalign_us": ("us", "lower", "wall_s", "all; largest share on single_wav"),
    "harness.misalign_share": ("ratio", "lower", "wall_s", "all; largest on single_wav"),
    "harness.path_at_us": ("us", "lower", "wall_s", "all"),
    "harness.ensemble_s": ("s", "lower", "wall_s", "ensemble128"),
    "harness.trial_self_s": ("s", "lower", "wall_s", "ensemble128"),
    "signals.synth_ms": ("ms", "lower", "wall_s", "ensemble128; negligible elsewhere"),
    "audio.load_wav_ms": ("ms", "lower", "wall_s", "single_wav only"),
    "echo_path.make_block_sparse_ms": ("ms", "lower", "setup_s", "all"),
    "cli.parse_config_ms": ("ms", "lower", "setup_s", "all"),
    "setup.import_s": ("s", "lower", "setup_s", "all"),
    "cli.emit_csv_ms": ("ms", "lower", "wall_s", "single_wav; below 1% on ensemble128"),
    "cli.emit_plot_data_ms": ("ms", "lower", "wall_s", "single_wav; below 1% on ensemble128"),
    "cli.write_manifest_ms": ("ms", "lower", "wall_s", "all; negligible"),
    "cli.emit_share": ("ratio", "lower", "wall_s", "single_wav; below 1% on ensemble128"),
    "cli.bytes_written": ("B", "lower", "wall_s", "single_wav"),
    "cli.write_us_per_row": ("us", "lower", "wall_s", "single_wav"),
    "trace.overhead_frac": ("ratio", "lower", "none (reported)", "all"),
}


class _Summary:
    def __init__(self, rows: list, installed: list[str]) -> None:
        self.rows = rows
        self.installed = set(installed)

    def _pick(self, names, top_level: bool = False):
        names = set(names)
        return [
            r for r in self.rows if r[0] in names and not (top_level and r[1] in names)
        ]

    def has(self, *names: str) -> bool:
        return all(n in self.installed for n in names)

    def count(self, name: str) -> int:
        return sum(r[2] for r in self._pick([name]))

    def total(self, *names: str, top_level: bool = False) -> float:
        return sum(r[3] for r in self._pick(names, top_level))

    def self_time(self, name: str) -> float:
        return sum(r[4] for r in self._pick([name]))

    def per_call(self, name: str, seconds: float, scale: float):
        """``seconds`` per call of ``name`` times ``scale``; 0 when never called."""
        if not self.has(name):
            return None
        calls = self.count(name)
        return seconds * scale / calls if calls else 0.0


def layer_metrics(
    rows: list,
    installed: list[str],
    *,
    wall_s: float,
    import_s: float,
    trials: int,
    iterations: int,
    bytes_written: int,
) -> dict[str, float | None]:
    """Per-layer metrics of one traced run (``None`` marks an absent one).

    ``trace.overhead_frac`` needs an untraced run and is filled in by the caller.
    """
    s = _Summary(rows, installed)
    us, ms = 1e6, 1e3
    m: dict[str, float | None] = {}
    for a in ALGORITHMS:
        step = f"step.{a}"
        m[f"filters.step_us.{a}"] = s.per_call(step, s.total(step), us)
        m[f"filters.step_self_us.{a}"] = s.per_call(step, s.self_time(step), us)
    for g in ("ip_gains", "bs_gains"):
        m[f"filters.gain_us.{g}"] = s.per_call(g, s.total(g), us)
    m["filters.memory_us"] = s.per_call("shift_memory", s.total("shift_memory"), us)
    m["filters.error_sign_us"] = (
        s.per_call("error_vector", s.total("error_vector", "sign_vector"), us)
        if s.has("sign_vector")
        else None
    )
    m["filters.update_us"] = s.per_call("normalized_update", s.total("normalized_update"), us)
    for name in PER_LAYER:
        if name.startswith("filters.calls."):
            f = name.removeprefix("filters.calls.")
            m[name] = s.count(f) if s.has(f) else None
    m["harness.misalign_us"] = s.per_call("misalignment_db", s.total("misalignment_db"), us)
    m["harness.misalign_share"] = (
        s.total("misalignment_db") / wall_s if s.has("misalignment_db") else None
    )
    m["harness.path_at_us"] = s.per_call("path_at", s.total("path_at"), us)
    m["harness.ensemble_s"] = s.total("run_ensemble") if s.has("run_ensemble") else None
    m["harness.trial_self_s"] = s.self_time("run_trial") if s.has("run_trial") else None
    m["signals.synth_ms"] = (
        s.total(*SYNTH, top_level=True) * ms / trials if s.has(*SYNTH) else None
    )
    m["audio.load_wav_ms"] = s.total("load_wav") * ms if s.has("load_wav") else None
    m["echo_path.make_block_sparse_ms"] = s.per_call(
        "make_block_sparse", s.total("make_block_sparse"), ms
    )
    m["cli.parse_config_ms"] = s.per_call("parse_config", s.total("parse_config"), ms)
    m["setup.import_s"] = import_s
    for f in (*EMIT, "write_manifest"):
        m[f"cli.{f}_ms"] = s.total(f) * ms if s.has(f) else None
    m["cli.emit_share"] = s.total(*EMIT) / wall_s if s.has(*EMIT) else None
    m["cli.bytes_written"] = bytes_written
    m["cli.write_us_per_row"] = s.total(*EMIT) * us / iterations if s.has(*EMIT) else None
    m["trace.overhead_frac"] = None
    return m
