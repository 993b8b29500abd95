"""Command-line front end: config parsing, ensemble runs, CSV/manifest output.

Config files are flat ``key = value`` text with ``#`` comments.  Every key has
a documented default matching the reference operating point (colored input
with pole 0.8, 40 dB SNR, 0 dB SIR impulses with probability 0.1, step size
0.001, and a mid-run echo-path switch), so an empty file is a valid config.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time
from pathlib import Path

import numpy as np

from apsabench import __version__
from apsabench.audio import WavFormatError
from apsabench.echo_path import PathSchedule, make_block_sparse
from apsabench.filters import STEPPERS, FilterParams, GainVariant
from apsabench.harness import (
    PATH_STREAM,
    SWITCHED_PATH_STREAM,
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
  3  config error (unknown key, bad value, violated constraint, a run that
     diverges or one too large for memory)
  4  WAV format error (not mono 16-bit PCM, or data cut mid-sample)
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


def _parse_gain_variant(text: str) -> GainVariant:
    try:
        return GainVariant(text.lower())
    except ValueError:
        choices = ", ".join(variant.value for variant in GainVariant)
        raise ValueError(f"expected one of {choices}, got '{text}'") from None


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got '{text}'")
    return value


def _optional(parser):
    def parse(text: str):
        return None if text.lower() == "none" else parser(text)

    return parse


# key -> (value parser, default as config text, where the value sits in an
# ExperimentConfig).  This table is the one list of keys: parse_config builds
# the config from it, and config_echo reads the config back through it.
_SCHEMA: dict[str, tuple] = {
    "filter_length": (int, "512", "params.filter_length"),
    "projection_order": (int, "2", "params.projection_order"),
    "block_length": (int, "4", "params.block_length"),
    "mu": (_finite_float, "0.001", "params.step_size"),
    "alpha": (_finite_float, "0", "params.proportionate_mix"),
    "epsilon": (_finite_float, "0.01", "params.gain_regularizer"),
    "delta": (_finite_float, "0.01", "params.update_regularizer"),
    "gain_variant": (_parse_gain_variant, "mip_consistent", "params.gain_variant"),
    "algorithms": (_parse_algorithms, ",".join(STEPPERS), "algorithms"),
    "input": (str.lower, "ar1", "input_kind"),
    "pole": (_finite_float, "0.8", "pole"),
    "wav_path": (_optional(str), "none", "wav_path"),
    "snr_db": (_optional(_finite_float), "40", "noise.snr_db"),
    "sir_db": (_optional(_finite_float), "0", "noise.sir_db"),
    "impulse_probability": (_finite_float, "0.1", "noise.impulse_probability"),
    "iterations": (int, "100000", "iterations"),
    "switch_iteration": (_optional(int), "50000", "schedule.switch_iteration"),
    "clusters": (_parse_clusters, "100:64", "schedule.initial.clusters"),
    "switched_clusters": (
        _optional(_parse_clusters), "60:32,300:32", "schedule.switched.clusters"
    ),
    "normalize_path": (_parse_bool, "true", "normalize_path"),
    "trials": (int, "10", "trials"),
    "seed": (int, "1", "base_seed"),
}


def _read_pairs(path) -> dict[str, str]:
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: key '{key}' repeats line {first_line[key]}")
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

    # Values grouped by the object that holds them: "params" -> {field: value}.
    fields: dict[str, dict[str, object]] = {}
    for key, (parser, default, where) in _SCHEMA.items():
        text = pairs.pop(key, default)
        try:
            value = parser(text)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{path}: bad value for '{key}': {exc}") from exc
        owner, _, name = where.rpartition(".")
        fields.setdefault(owner, {})[name] = value
    if pairs:
        unknown = ", ".join(sorted(pairs))
        raise ConfigError(f"{path}: unknown key(s): {unknown}")

    top = fields[""]
    wav_path = top["wav_path"]
    if wav_path is not None:
        if not Path(wav_path).is_absolute():
            wav_path = top["wav_path"] = str((Path(path).parent / wav_path).resolve())
        # The manifest echoes the resolved path, and there '#' starts a comment.
        if "#" in wav_path:
            raise ConfigError(f"{path}: bad value for 'wav_path': '#' in {wav_path}")

    def draw_path(clusters, stream_id: int):
        return make_block_sparse(
            fields["params"]["filter_length"],
            clusters,
            SeededStream(top["base_seed"], stream_id),
            normalize=top["normalize_path"],
        )

    try:
        params = FilterParams(**fields["params"])
        initial = draw_path(fields["schedule.initial"]["clusters"], PATH_STREAM)
        switched_clusters = fields["schedule.switched"]["clusters"]
        switched = None
        if switched_clusters is not None:
            switched = draw_path(switched_clusters, SWITCHED_PATH_STREAM)
        schedule = PathSchedule(
            initial, switched, switch_iteration=fields["schedule"]["switch_iteration"]
        )
        noise = NoiseModel(**fields["noise"])
        return ExperimentConfig(params=params, schedule=schedule, noise=noise, **top)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _format_value(value) -> str:
    """Config text for a resolved value; the parsers read it back unchanged."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, GainVariant):
        return value.value
    if isinstance(value, tuple):  # algorithm names or (offset, length) clusters
        return ",".join(
            f"{item[0]}:{item[1]}" if isinstance(item, tuple) else item for item in value
        )
    return str(value)


def config_echo(config: ExperimentConfig) -> dict[str, str]:
    """Serialize a resolved config back to config-file text values.

    Feeding the echo through :func:`parse_config` reproduces the identical
    config, which is the reproducibility contract of the manifest.
    """
    echo = {}
    for key, (_, _, where) in _SCHEMA.items():
        value = config
        for name in where.split("."):
            # schedule.switched is None when the path never switches.
            value = None if value is None else getattr(value, name)
        echo[key] = _format_value(value)
    return echo


# Rows formatted per write.  The columns are converted to Python floats a
# block at a time, so the text and floats held at once stay near 0.25 MiB
# however long the trace; 4096-row blocks raised the peak memory of
# repeated runs by about 0.6 MiB.
_WRITE_BLOCK = 1024


def _write_tables(trace: MisalignmentTrace, targets) -> None:
    """Write a header, then one row per iteration: the index and each
    column to 6 decimals, LF line ends, to every (path, header lead,
    separator) of ``targets``, in one pass.

    Each block of rows is formatted once, with commas; a target with
    another separator gets them replaced, since the numbers and column
    names hold none.  Empty or ragged columns raise ValueError before any
    file is opened; a failed open, write or close raises OSError naming the
    path.
    """
    columns = list(trace.traces.values())
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"trace columns differ in length: {sorted(lengths)}")
    [count] = lengths or {0}
    if count < 1:
        raise ValueError("trace is empty; nothing to write")
    names = [f"{name}_misalign_db" for name in trace.traces]
    row_format = "%d" + ",%.6f" * len(columns) + "\n"
    header = ",".join(["iteration", *names]) + "\n"
    path = None
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path, lead, sep in targets:
                fh = stack.enter_context(open(path, "w", encoding="ascii", newline=""))
                fh.write(lead + header.replace(",", sep))
                files.append((path, fh, sep))
            for a in range(0, count, _WRITE_BLOCK):
                b = min(a + _WRITE_BLOCK, count)
                rows = zip(range(a, b), *(col[a:b].tolist() for col in columns))
                text = "".join(map(row_format.__mod__, rows))
                for path, fh, sep in files:
                    fh.write(text if sep == "," else text.replace(",", sep))
            for path, fh, _ in files:
                fh.close()
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def emit_csv(trace: MisalignmentTrace, path, plot_path=None) -> None:
    """Write the trace as CSV: header, one row per iteration, 6 decimals, LF.

    With ``plot_path``, the file of :func:`emit_plot_data` is written in the
    same pass, from the same formatted rows.
    """
    targets = [(path, "", ",")]
    if plot_path is not None:
        targets.append((plot_path, "# ", " "))
    _write_tables(trace, targets)


def emit_plot_data(trace: MisalignmentTrace, path) -> None:
    """Write a gnuplot-friendly variant: '#'-header, space-separated columns."""
    _write_tables(trace, [(path, "# ", " ")])


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
        for name, column in trace.traces.items():
            if not np.isfinite(column).all():
                raise ValueError(f"{name} misalignment is not finite: the run diverged; lower mu")

        csv_path = out_dir / "trace.csv"
        dat_path = out_dir / "trace.dat"
        manifest_path = out_dir / "manifest.txt"
        emit_csv(trace, csv_path, dat_path)
        write_manifest(config, manifest_path, [csv_path.name, dat_path.name])

        if not args.quiet:
            finals = {name: trace.traces[name][-1] for name in config.algorithms}
            summary = ", ".join(f"{name}: {db:.2f} dB" for name, db in finals.items())
            print(f"final misalignment ({config.trials} trials): {summary}")
            print(f"wall-clock duration: {elapsed:.2f} s")
            print(f"wrote {csv_path}, {dat_path}, {manifest_path}")
        return EXIT_OK
    except WavFormatError as exc:
        print(f"wav error: {exc}", file=sys.stderr)
        return EXIT_WAV
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # A ConfigError, or a constraint violated at run time (e.g. WAV
        # shorter than the run).
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("config error: the run does not fit in memory; lower iterations or trials",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
