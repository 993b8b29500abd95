"""Command-line front end: config parsing, ensemble runs, CSV/manifest output.

Config files are flat ``key = value`` text with ``#`` comments.  Every key has
a documented default matching the reference operating point (colored input
with pole 0.8, 40 dB SNR, 0 dB SIR impulses with probability 0.1, step size
0.001, and a mid-run echo-path switch), so an empty file is a valid config.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

from apsabench import __version__
from apsabench.audio import WavFormatError
from apsabench.echo_path import EchoPath, PathSchedule, make_block_sparse
from apsabench.filters import FilterParams, GainVariant
from apsabench.harness import (
    PATH_STREAM,
    ExperimentConfig,
    MisalignmentTrace,
    run_ensemble,
)
from apsabench.signals import NoiseModel, SeededStream


class ConfigError(ValueError):
    """Bad key, bad value, or violated constraint in a config file."""


EXIT_OK = 0
EXIT_USAGE = 2  # argparse's own code for bad flags
EXIT_CONFIG = 3
EXIT_WAV = 4
EXIT_IO = 5

_EXIT_CODE_HELP = """\
exit codes:
  0  success
  2  command-line usage error
  3  config error (unknown key, bad value, or violated constraint)
  4  WAV format error (not mono 16-bit PCM)
  5  I/O error (missing or unreadable/unwritable file)
"""


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got '{text}'")


def _parse_clusters(text: str) -> tuple[tuple[int, int], ...]:
    clusters = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        offset, _, size = part.partition(":")
        clusters.append((int(offset), int(size)))
    if not clusters:
        raise ValueError(f"expected offset:length[,offset:length...], got '{text}'")
    return tuple(clusters)


def _parse_algorithms(text: str) -> tuple[str, ...]:
    return tuple(
        part.strip().lower().replace("_", "-")
        for part in text.split(",")
        if part.strip()
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{text}'")
    return value


def _optional(parser):
    def parse(text: str):
        return None if text.lower() == "none" else parser(text)

    return parse


# key -> (value parser, default as config text)
_SCHEMA: dict[str, tuple] = {
    "filter_length": (int, "512"),
    "projection_order": (int, "2"),
    "block_length": (int, "4"),
    "mu": (_finite_float, "0.001"),
    "alpha": (_finite_float, "0"),
    "epsilon": (_finite_float, "0.01"),
    "delta": (_finite_float, "0.01"),
    "gain_variant": (GainVariant, "mip_consistent"),
    "algorithms": (_parse_algorithms, "apsa,mip-apsa,bs-mip-apsa"),
    "input": (str.lower, "ar1"),
    "pole": (_finite_float, "0.8"),
    "wav_path": (_optional(str), "none"),
    "snr_db": (_optional(_finite_float), "40"),
    "sir_db": (_optional(_finite_float), "0"),
    "impulse_probability": (_finite_float, "0.1"),
    "iterations": (int, "100000"),
    "switch_iteration": (_optional(int), "50000"),
    "clusters": (_parse_clusters, "100:64"),
    "switched_clusters": (_optional(_parse_clusters), "60:32,300:32"),
    "normalize_path": (_parse_bool, "true"),
    "trials": (int, "10"),
    "seed": (int, "1"),
}


def _read_pairs(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
            key = key.strip().lower()
            if key in first_line:
                raise ConfigError(
                    f"{path}:{lineno}: key '{key}' repeats line {first_line[key]}"
                )
            first_line[key] = lineno
            pairs[key] = value.strip()
    return pairs


def parse_config(path, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Resolve a config file (plus optional key overrides) into a run config.

    Unknown keys and malformed values raise :class:`ConfigError` naming the
    key; constraint violations (for example a filter length that is not a
    multiple of the block length) surface the constraint in the message.
    """
    pairs = _read_pairs(path)
    if overrides:
        pairs.update({k.lower(): v for k, v in overrides.items()})

    resolved: dict[str, object] = {}
    for key, (parser, default) in _SCHEMA.items():
        text = pairs.pop(key, default)
        try:
            resolved[key] = parser(text)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{path}: bad value for '{key}': {exc}") from exc
    if pairs:
        unknown = ", ".join(sorted(pairs))
        raise ConfigError(f"{path}: unknown key(s): {unknown}")

    if (resolved["switch_iteration"] is None) != (resolved["switched_clusters"] is None):
        raise ConfigError(
            f"{path}: switch_iteration and switched_clusters must both be set or both 'none'"
        )

    wav_path = resolved["wav_path"]
    if wav_path is not None and not Path(wav_path).is_absolute():
        wav_path = str((Path(path).parent / wav_path).resolve())

    try:
        params = FilterParams(
            filter_length=resolved["filter_length"],
            projection_order=resolved["projection_order"],
            block_length=resolved["block_length"],
            step_size=resolved["mu"],
            proportionate_mix=resolved["alpha"],
            gain_regularizer=resolved["epsilon"],
            update_regularizer=resolved["delta"],
            gain_variant=resolved["gain_variant"],
        )
        path_stream = SeededStream(resolved["seed"], PATH_STREAM)
        initial = make_block_sparse(
            resolved["filter_length"],
            resolved["clusters"],
            path_stream,
            normalize=resolved["normalize_path"],
            label="initial",
        )
        switched = None
        if resolved["switched_clusters"] is not None:
            switched = make_block_sparse(
                resolved["filter_length"],
                resolved["switched_clusters"],
                SeededStream(resolved["seed"], PATH_STREAM + 4),
                normalize=resolved["normalize_path"],
                label="switched",
            )
        schedule = PathSchedule(
            initial=initial,
            switched=switched,
            switch_iteration=resolved["switch_iteration"],
        )
        noise = NoiseModel(
            snr_db=resolved["snr_db"],
            sir_db=resolved["sir_db"],
            impulse_probability=resolved["impulse_probability"],
        )
        return ExperimentConfig(
            params=params,
            schedule=schedule,
            algorithms=resolved["algorithms"],
            input_kind=resolved["input"],
            pole=resolved["pole"],
            wav_path=wav_path,
            noise=noise,
            iterations=resolved["iterations"],
            trials=resolved["trials"],
            base_seed=resolved["seed"],
            normalize_path=resolved["normalize_path"],
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"{path}: {exc}") from exc


def _format_float(value: float) -> str:
    return repr(float(value))


def _format_clusters(clusters) -> str:
    return ",".join(f"{offset}:{size}" for offset, size in clusters)


def config_echo(config: ExperimentConfig) -> dict[str, str]:
    """Serialize a resolved config back to config-file text values.

    Feeding the echo through :func:`parse_config` reproduces the identical
    config, which is the reproducibility contract of the manifest.
    """
    schedule = config.schedule
    noise = config.noise
    params = config.params
    return {
        "filter_length": str(params.filter_length),
        "projection_order": str(params.projection_order),
        "block_length": str(params.block_length),
        "mu": _format_float(params.step_size),
        "alpha": _format_float(params.proportionate_mix),
        "epsilon": _format_float(params.gain_regularizer),
        "delta": _format_float(params.update_regularizer),
        "gain_variant": params.gain_variant.value,
        "algorithms": ",".join(config.algorithms),
        "input": config.input_kind,
        "pole": _format_float(config.pole),
        "wav_path": "none" if config.wav_path is None else config.wav_path,
        "snr_db": "none" if noise.snr_db is None else _format_float(noise.snr_db),
        "sir_db": "none" if noise.sir_db is None else _format_float(noise.sir_db),
        "impulse_probability": _format_float(noise.impulse_probability),
        "iterations": str(config.iterations),
        "switch_iteration": (
            "none" if schedule.switch_iteration is None else str(schedule.switch_iteration)
        ),
        "clusters": _format_clusters(schedule.initial.clusters),
        "switched_clusters": (
            "none" if schedule.switched is None else _format_clusters(schedule.switched.clusters)
        ),
        "normalize_path": "true" if config.normalize_path else "false",
        "trials": str(config.trials),
        "seed": str(config.base_seed),
    }


# Rows formatted per write.  The columns are converted to Python floats a
# block at a time, so the text and floats held at once stay near 0.25 MiB
# however long the trace; 4096-row blocks raised the peak memory of
# repeated runs by about 0.6 MiB.
_WRITE_BLOCK = 1024


def _write_table(trace: MisalignmentTrace, path, sep: str, header_lead: str) -> None:
    """Write a header, then one row per iteration: the index and each
    column to 6 decimals, joined by ``sep``, LF line ends."""
    columns = list(trace.traces.values())
    names = [f"{name}_misalign_db" for name in trace.traces]
    row_format = "%d" + sep + sep.join(["%.6f"] * len(columns)) + "\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(header_lead + "iteration" + sep + sep.join(names) + "\n")
        for a in range(0, trace.iterations, _WRITE_BLOCK):
            b = min(a + _WRITE_BLOCK, trace.iterations)
            rows = zip(range(a, b), *(col[a:b].tolist() for col in columns))
            fh.write("".join(map(row_format.__mod__, rows)))


def emit_csv(trace: MisalignmentTrace, path) -> None:
    """Write the trace as CSV: header, one row per iteration, 6 decimals, LF."""
    if trace.iterations < 1 or not trace.traces:
        raise ValueError("trace is empty; nothing to write")
    try:
        _write_table(trace, path, ",", "")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def emit_plot_data(trace: MisalignmentTrace, path) -> None:
    """Write a gnuplot-friendly variant: '#'-header, space-separated columns."""
    _write_table(trace, path, " ", "# ")


def write_manifest(config: ExperimentConfig, path, output_names: list[str]) -> None:
    """Write the run manifest: metadata as comments, then the config echo.

    The manifest is itself a valid config file, so any run can be reproduced
    with ``--config manifest.txt``.  Only (config, seed)-determined bytes go
    in; wall-clock timing is reported on stdout instead.
    """
    lines = [
        "# apsabench run manifest",
        f"# version: {__version__}",
        f"# base seed: {config.base_seed}",
        f"# outputs: {' '.join(output_names)}",
        "# reproduce with: apsabench --config <this file> --out <dir>",
    ]
    lines += [f"{key} = {value}" for key, value in config_echo(config).items()]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="apsabench",
        description=(
            "Benchmark sign-algorithm adaptive filters (APSA, MIP-APSA, "
            "BS-MIP-APSA) on sparse system identification under impulsive noise."
        ),
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", required=True, help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, help="override the config's base seed")
    parser.add_argument("--trials", type=int, help="override the config's trial count")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    overrides: dict[str, str] = {}
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.trials is not None:
        overrides["trials"] = str(args.trials)

    try:
        config = parse_config(args.config, overrides)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

        started = time.perf_counter()
        trace = run_ensemble(config)
        elapsed = time.perf_counter() - started

        csv_path = out_dir / "trace.csv"
        dat_path = out_dir / "trace.dat"
        manifest_path = out_dir / "manifest.txt"
        emit_csv(trace, csv_path)
        emit_plot_data(trace, dat_path)
        write_manifest(config, manifest_path, [csv_path.name, dat_path.name])

        if not args.quiet:
            finals = {name: trace.traces[name][-1] for name in config.algorithms}
            summary = ", ".join(f"{name}: {db:.2f} dB" for name, db in finals.items())
            print(f"final misalignment ({config.trials} trials): {summary}")
            print(f"wall-clock duration: {elapsed:.2f} s")
            print(f"wrote {csv_path}, {dat_path}, {manifest_path}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except WavFormatError as exc:
        print(f"wav error: {exc}", file=sys.stderr)
        return EXIT_WAV
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # Constraint violated at run time (e.g. WAV shorter than the run).
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
