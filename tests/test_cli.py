import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import apsabench
from apsabench.audio import WavFormatError, load_wav, save_wav
from apsabench.cli import (
    _SCHEMA,
    ConfigError,
    config_echo,
    emit_csv,
    emit_plot_data,
    main,
    parse_config,
    write_manifest,
)
from apsabench.filters import GainVariant
from apsabench.harness import MisalignmentTrace
from apsabench.signals import SeededStream, speech_like


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


QUICK = """
filter_length = 16
block_length = 4
iterations = 120
switch_iteration = 60
clusters = 2:6
switched_clusters = 9:6
trials = 2
seed = 11
mu = 0.02
"""


# --------------------------------------------------------------- parse_config


def test_empty_config_resolves_to_reference_defaults(tmp_path):
    config = parse_config(write_config(tmp_path, ""))
    p = config.params
    assert p.filter_length == 512
    assert p.projection_order == 2
    assert p.block_length == 4
    assert p.step_size == 0.001
    assert p.proportionate_mix == 0.0
    assert p.gain_regularizer == 0.01
    assert p.update_regularizer == 0.01
    assert p.gain_variant is GainVariant.MIP_CONSISTENT
    assert config.pole == 0.8
    assert config.noise.snr_db == 40.0
    assert config.noise.sir_db == 0.0
    assert config.noise.impulse_probability == 0.1
    assert config.algorithms == ("apsa", "mip-apsa", "bs-mip-apsa")
    assert config.iterations == 100_000
    assert config.schedule.switch_iteration == 50_000
    assert config.schedule.initial.clusters == ((100, 64),)
    assert config.schedule.switched.clusters == ((60, 32), (300, 32))
    assert config.trials == 10


def test_unknown_key_is_named(tmp_path):
    path = write_config(tmp_path, "stepsize = 0.1\n")
    with pytest.raises(ConfigError, match="stepsize"):
        parse_config(path)


def test_repeated_key_names_both_lines(tmp_path):
    path = write_config(tmp_path, "filter_length = 64\n# comment\nFilter_Length = 128\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:3: key 'filter_length' repeats line 1"):
        parse_config(path)


@pytest.mark.parametrize("line", ["mu 0.5", "= 5", "  =  "])
def test_line_without_key_and_value_names_its_line(tmp_path, capsys, line):
    # A line with no '=', or with nothing before it, names its line rather
    # than reaching the unknown-key check with an empty name.
    path = write_config(tmp_path, f"mu = 0.5\n{line}\n")
    message = rf"run\.cfg:2: expected 'key = value', got '{line.strip()}'"
    with pytest.raises(ConfigError, match=message):
        parse_config(path)
    assert main(["--config", str(path), "--out", str(tmp_path / "o")]) == 3
    assert "run.cfg:2: expected 'key = value'" in capsys.readouterr().err


def test_bad_value_names_key(tmp_path):
    path = write_config(tmp_path, "iterations = soon\n")
    with pytest.raises(ConfigError, match="iterations"):
        parse_config(path)


def test_divisibility_violation_cites_constraint(tmp_path):
    path = write_config(tmp_path, "filter_length = 100\nblock_length = 7\n")
    with pytest.raises(ConfigError, match="divisible"):
        parse_config(path)


def test_full_length_block_is_accepted(tmp_path):
    path = write_config(tmp_path, "block_length = 512\nclusters = 100:64\n")
    config = parse_config(path)
    assert config.params.block_length == 512


def test_switch_fields_must_agree(tmp_path):
    path = write_config(tmp_path, "switch_iteration = none\n")
    with pytest.raises(ConfigError, match="switch"):
        parse_config(path)


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "# full line comment\n\nmu = 0.5  # trailing comment\n"
    config = parse_config(write_config(tmp_path, text))
    assert config.params.step_size == 0.5


def test_overrides_replace_file_values(tmp_path):
    path = write_config(tmp_path, QUICK)
    config = parse_config(path, {"seed": "99", "trials": "5"})
    assert config.base_seed == 99
    assert config.trials == 5


def test_seed_changes_paths(tmp_path):
    path = write_config(tmp_path, QUICK)
    a = parse_config(path)
    b = parse_config(path, {"seed": "12"})
    assert not np.array_equal(a.schedule.initial.taps, b.schedule.initial.taps)


def test_gain_variant_parsing(tmp_path):
    config = parse_config(write_config(tmp_path, "gain_variant = block_balanced\n"))
    assert config.params.gain_variant is GainVariant.BLOCK_BALANCED


@pytest.mark.parametrize("value", ["BLOCK_BALANCED", "Block_Balanced"])
def test_gain_variant_is_read_in_any_case(tmp_path, capsys, value):
    # Like input and algorithms; the manifest echoes the lowercase value,
    # and a value that names no variant lists the ones that do.
    config = parse_config(write_config(tmp_path, QUICK + f"gain_variant = {value}\n"))
    assert config.params.gain_variant is GainVariant.BLOCK_BALANCED
    assert config_echo(config)["gain_variant"] == "block_balanced"
    bad = write_config(tmp_path, QUICK + "gain_variant = balanced\n", name="bad.cfg")
    assert main(["--config", str(bad), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "'gain_variant'" in err
    assert "expected one of mip_consistent, as_printed, block_balanced, got 'balanced'" in err


def test_disabled_ratios_parse_to_none(tmp_path):
    config = parse_config(write_config(tmp_path, "snr_db = none\nsir_db = none\n"))
    assert config.noise.snr_db is None
    assert config.noise.sir_db is None


def test_manifest_round_trips_to_identical_config(tmp_path):
    config = parse_config(write_config(tmp_path, QUICK))
    manifest = tmp_path / "manifest.txt"
    write_manifest(config, manifest, ["trace.csv"])
    assert parse_config(manifest) == config


def test_manifest_round_trips_disabled_values(tmp_path):
    text = QUICK + "snr_db = none\nsir_db = none\n"
    text = text.replace("switch_iteration = 60", "switch_iteration = none")
    text = text.replace("switched_clusters = 9:6", "switched_clusters = none")
    config = parse_config(write_config(tmp_path, text))
    manifest = tmp_path / "manifest.txt"
    write_manifest(config, manifest, ["trace.csv"])
    lines = manifest.read_text().splitlines()
    for key in ("wav_path", "snr_db", "sir_db", "switch_iteration", "switched_clusters"):
        assert f"{key} = none" in lines
    assert parse_config(manifest) == config


def test_config_echo_covers_every_schema_key(tmp_path):
    config = parse_config(write_config(tmp_path, ""))
    assert set(config_echo(config)) == set(_SCHEMA)


# Keys whose schema default differs from the library's by design: the
# library takes a path's length and support from the caller and has no
# switch unless one is given.
_CLI_ONLY_DEFAULTS = {"filter_length", "switch_iteration", "clusters", "switched_clusters"}


def test_empty_config_resolves_to_the_library_defaults(tmp_path):
    config = parse_config(write_config(tmp_path, ""))
    owners = {"": config, "params": config.params, "noise": config.noise}
    for key, (_, _, where) in _SCHEMA.items():
        if key in _CLI_ONLY_DEFAULTS:
            continue
        owner, _, name = where.rpartition(".")
        [field] = [f for f in dataclasses.fields(owners[owner]) if f.name == name]
        assert field.default is not dataclasses.MISSING, key
        assert getattr(owners[owner], name) == field.default, key


# ------------------------------------------------------------------ WAV files


def test_load_wav_value_mapping(tmp_path):
    path = tmp_path / "values.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(8000)
        wav.writeframes(np.array([16384, -32768, 0], dtype="<i2").tobytes())
    samples = load_wav(path)
    assert np.array_equal(samples, [0.5, -1.0, 0.0])


def test_load_wav_all_zero_file(tmp_path):
    path = tmp_path / "silence.wav"
    save_wav(np.zeros(64), path)
    assert np.array_equal(load_wav(path), np.zeros(64))


def test_save_load_round_trip_is_close(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, 500)
    path = tmp_path / "rt.wav"
    save_wav(x, path)
    assert np.allclose(load_wav(path), x, atol=1.0 / 32768)


def test_load_wav_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(2)
        wav.setsampwidth(2)
        wav.setframerate(8000)
        wav.writeframes(np.zeros(100, dtype="<i2").tobytes())
    with pytest.raises(WavFormatError, match="mono"):
        load_wav(path)


def test_load_wav_rejects_wrong_width(tmp_path):
    path = tmp_path / "w8.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(1)
        wav.setframerate(8000)
        wav.writeframes(bytes(100))
    with pytest.raises(WavFormatError, match="16-bit"):
        load_wav(path)


def test_load_wav_rejects_garbage(tmp_path):
    path = tmp_path / "noise.bin"
    path.write_bytes(b"definitely not RIFF data")
    with pytest.raises(WavFormatError, match="not a readable WAV"):
        load_wav(path)


def test_main_truncated_wav_exit_code(tmp_path, capsys):
    # A file cut mid-sample: its data holds an odd number of bytes.
    whole = tmp_path / "whole.wav"
    save_wav(speech_like(400, SeededStream(3)), whole)
    cut = tmp_path / "cut.wav"
    cut.write_bytes(whole.read_bytes()[:-1])
    with pytest.raises(WavFormatError, match="cut.wav: the data ends mid-sample"):
        load_wav(cut)
    config = write_config(tmp_path, QUICK + f"input = wav\nwav_path = {cut.name}\n")
    assert main(["--config", str(config), "--out", str(tmp_path / "o")]) == 4
    assert "cut.wav" in capsys.readouterr().err


# ------------------------------------------------------------------- outputs


def make_trace():
    return MisalignmentTrace(
        traces={"apsa": np.array([0.0, -20.0]), "bs-mip-apsa": np.array([0.0, -1.25])},
        trials=1,
    )


def test_emit_csv_format(tmp_path):
    path = tmp_path / "trace.csv"
    emit_csv(make_trace(), path)
    content = path.read_bytes().decode("ascii")
    lines = content.split("\n")
    assert lines[0] == "iteration,apsa_misalign_db,bs-mip-apsa_misalign_db"
    assert lines[1] == "0,0.000000,0.000000"
    assert lines[2] == "1,-20.000000,-1.250000"
    assert content.endswith("\n") and "\r" not in content
    assert len(lines) == 4  # header + 2 rows + trailing newline split


def test_emit_csv_rejects_empty_trace(tmp_path):
    # Both emitters and the one-pass call share the precondition, and none
    # leaves a file.
    for traces in ({}, {"apsa": np.zeros(0)}, {"apsa": np.zeros(0), "mip-apsa": np.zeros(0)}):
        empty = MisalignmentTrace(traces=traces, trials=0)
        for emit in (emit_csv, emit_plot_data):
            path = tmp_path / f"{emit.__name__}.out"
            with pytest.raises(ValueError, match="empty"):
                emit(empty, path)
            assert not path.exists()
        with pytest.raises(ValueError, match="empty"):
            emit_csv(empty, tmp_path / "both.csv", tmp_path / "both.dat")
        assert not any(tmp_path.iterdir())


def test_emitters_reject_ragged_columns(tmp_path):
    # The columns give the row count, so columns of different lengths are
    # refused before any file is opened rather than cut to the shortest.
    ragged = MisalignmentTrace(traces={"apsa": np.zeros(10), "mip-apsa": np.zeros(4)}, trials=1)
    for emit in (emit_csv, emit_plot_data):
        with pytest.raises(ValueError, match=r"differ in length: \[4, 10\]"):
            emit(ragged, tmp_path / f"{emit.__name__}.out")
    with pytest.raises(ValueError, match="differ in length"):
        emit_csv(ragged, tmp_path / "both.csv", tmp_path / "both.dat")
    assert not any(tmp_path.iterdir())


def emit_plot_data_with_csv(trace, path):
    """The one-pass call, with only its plot file unwritable in the test below."""
    emit_csv(trace, path.parents[1] / "trace.csv", path)


@pytest.mark.parametrize(
    "emit",
    [emit_csv, emit_plot_data, pytest.param(emit_plot_data_with_csv, id="emit_csv-one-pass")],
)
def test_emitters_name_the_path_on_write_failure(tmp_path, emit):
    path = tmp_path / "missing-dir" / "trace.out"
    with pytest.raises(OSError, match=r"cannot write .*missing-dir"):
        emit(make_trace(), path)


def test_main_exits_5_when_only_the_plot_file_fails(tmp_path, capsys):
    out = tmp_path / "o"
    (out / "trace.dat").mkdir(parents=True)
    assert main(["--config", str(write_config(tmp_path, QUICK)), "--out", str(out)]) == 5
    assert "cannot write " + str(out / "trace.dat") in capsys.readouterr().err


def test_emit_csv_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(make_trace(), a)
    emit_csv(make_trace(), b)
    assert a.read_bytes() == b.read_bytes()


def test_emit_plot_data_format(tmp_path):
    path = tmp_path / "trace.dat"
    emit_plot_data(make_trace(), path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# iteration ")
    assert lines[1] == "0 0.000000 0.000000"


def row_by_row(trace, sep, header_lead):
    """The emitters' former per-row loop: the oracle for their bytes."""
    columns = list(trace.traces.values())
    names = sep.join(f"{name}_misalign_db" for name in trace.traces)
    text = header_lead + "iteration" + sep + names + "\n"
    for i in range(len(columns[0])):
        text += f"{i}{sep}" + sep.join(f"{col[i]:.6f}" for col in columns) + "\n"
    return text.encode("ascii")


EDGE_VALUES = [0.0, -0.0, -300.0, 1e6, -4e-7, -5e-7, -1e-300, 5e-7, np.nan, np.inf, -np.inf]


@pytest.mark.parametrize(
    "columns",
    [
        {"apsa": np.array([-0.0])},
        {
            name: np.random.default_rng(k).standard_normal(10_001) * 10.0 ** (3 - 3 * k)
            for k, name in enumerate(("apsa", "mip-apsa", "bs-mip-apsa"))
        },
        {"apsa": np.array(EDGE_VALUES), "mip-apsa": -np.array(EDGE_VALUES)},
    ],
    ids=["one-row", "crosses-write-blocks", "edge-values"],
)
def test_emitters_match_the_row_by_row_oracle(tmp_path, columns):
    trace = MisalignmentTrace(traces=columns, trials=1)
    emit_csv(trace, tmp_path / "trace.csv")
    emit_plot_data(trace, tmp_path / "trace.dat")
    # The one-pass call writes both files from one formatting of each block.
    emit_csv(trace, tmp_path / "both.csv", tmp_path / "both.dat")
    for csv, dat in (("trace.csv", "trace.dat"), ("both.csv", "both.dat")):
        assert (tmp_path / csv).read_bytes() == row_by_row(trace, ",", "")
        assert (tmp_path / dat).read_bytes() == row_by_row(trace, " ", "# ")


# ----------------------------------------------------------------------- main


def test_main_end_to_end(tmp_path, capsys):
    config = write_config(tmp_path, QUICK)
    out = tmp_path / "results"
    assert main(["--config", str(config), "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    assert (out / "trace.dat").exists()
    assert (out / "manifest.txt").exists()
    stdout = capsys.readouterr().out
    assert "final misalignment" in stdout
    assert "duration" in stdout
    rows = (out / "trace.csv").read_text().splitlines()
    assert len(rows) == 1 + 120


def test_main_quiet_silences_stdout(tmp_path, capsys):
    config = write_config(tmp_path, QUICK)
    assert main(["--config", str(config), "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_main_missing_config_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["--config", str(missing), "--out", str(tmp_path / "o")]) == 5
    assert "nope.cfg" in capsys.readouterr().err


def test_main_non_utf8_config_names_the_file(tmp_path, capsys):
    config = tmp_path / "latin1.cfg"
    config.write_bytes("# r\u00e9glage\n".encode("latin-1") + QUICK.encode())
    with pytest.raises(ConfigError, match="latin1.cfg: not UTF-8 text"):
        parse_config(config)
    assert main(["--config", str(config), "--out", str(tmp_path / "o")]) == 3
    assert "latin1.cfg" in capsys.readouterr().err


def test_config_with_a_byte_order_mark_reads_its_first_key(tmp_path):
    # Some editors start UTF-8 files with a byte-order mark, which must not
    # stick to the first key.
    plain = write_config(tmp_path, QUICK.lstrip())
    marked = tmp_path / "bom.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    config = parse_config(marked)
    assert config.params.filter_length == 16
    assert config == parse_config(plain)


def test_main_config_error_exit_code(tmp_path, capsys):
    config = write_config(tmp_path, "filter_length = 100\nblock_length = 7\n")
    assert main(["--config", str(config), "--out", str(tmp_path / "o")]) == 3
    assert "divisible" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["mu", "alpha", "epsilon", "delta", "pole", "snr_db", "sir_db"])
def test_main_non_finite_value_exit_code(tmp_path, capsys, key, value):
    config = write_config(tmp_path, QUICK + f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "finite" in err
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize("key, value", [("snr_db", 7000), ("snr_db", -7000), ("sir_db", -3200)])
def test_main_out_of_range_ratio_exit_code(tmp_path, capsys, key, value):
    # 10**(dB/10) overflows, or the noise scale factor is 0 or inf.
    config = write_config(tmp_path, QUICK + f"{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out", str(out)]) == 3
    assert f"{float(value)} dB" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


# Each case: keys set over QUICK's, extra flags, and the message.  The
# file's path and the message must both be on stderr, and no output
# directory may be made.
@pytest.mark.parametrize(
    "changes, flags, message",
    [
        ({"seed": "-1"}, [], "seed must be >= 0, got -1"),
        ({}, ["--seed", "-2"], "seed must be >= 0, got -2"),
        ({"switch_iteration": "-5"}, [], "switch_iteration must be >= 0 or none"),
        ({"input": "ar1", "pole": "1"}, [], "pole must satisfy |pole| < 1"),
        ({"input": "ar1", "pole": "-1"}, [], "pole must satisfy |pole| < 1"),
    ],
    ids=["seed", "seed-flag", "switch-iteration", "pole-1", "pole-minus-1"],
)
def test_main_rejects_out_of_range_values_before_making_the_output(
    tmp_path, capsys, changes, flags, message
):
    values = dict(line.split(" = ") for line in QUICK.strip().splitlines())
    values.update(changes)
    config = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out", str(out), *flags]) == 3
    err = capsys.readouterr().err
    assert message in err and str(config) in err
    assert not out.exists()


def test_pole_is_only_checked_for_ar1_input(tmp_path):
    config = parse_config(write_config(tmp_path, QUICK + "input = white\npole = 1\n"))
    assert config.pole == 1.0


@pytest.mark.parametrize(
    "algorithms, trials",
    [("apsa,mip-apsa,bs-mip-apsa", 2), ("apsa", 1)],
    ids=["batched", "single-filter"],
)
def test_main_diverging_run_exit_code(tmp_path, capsys, algorithms, trials):
    # A huge step size sends the weights, or their misalignment, past
    # double precision: the run must fail instead of writing inf and nan
    # rows, and the NaN gains on the way there must not warn, so that the
    # exit code, not a numpy warning turned into an error, reports the
    # divergence.  One APSA filter over one trial runs the single-filter
    # loop.
    text = QUICK.replace("mu = 0.02", "mu = 1e300").replace("trials = 2", f"trials = {trials}")
    text += f"algorithms = {algorithms}\n"
    config = write_config(tmp_path, text)
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not (out / "trace.csv").exists()


def test_main_run_too_large_for_memory_exit_code(tmp_path, capsys):
    # Petabytes of input records: numpy fails to allocate them at once,
    # and the run must exit 3 naming the keys to lower, not with a
    # traceback.
    config = write_config(
        tmp_path, QUICK.replace("iterations = 120", "iterations = 1000000000000000")
    )
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "iterations" in err and "trials" in err and "memory" in err
    assert not (out / "trace.csv").exists()


def test_main_wav_error_exit_code(tmp_path, capsys):
    stereo = tmp_path / "stereo.wav"
    with wave.open(str(stereo), "wb") as wav:
        wav.setnchannels(2)
        wav.setsampwidth(2)
        wav.setframerate(8000)
        wav.writeframes(np.zeros(400, dtype="<i2").tobytes())
    config = write_config(
        tmp_path, QUICK + f"input = wav\nwav_path = {stereo.name}\n"
    )
    assert main(["--config", str(config), "--out", str(tmp_path / "o")]) == 4
    assert "mono" in capsys.readouterr().err


def test_wav_path_with_a_hash_is_rejected_before_the_output(tmp_path, capsys):
    # The manifest echoes the resolved wav_path, where '#' would start a
    # comment: the run could not be replayed from it.
    directory = tmp_path / "hash#dir"
    directory.mkdir()
    save_wav(speech_like(200, SeededStream(3)), directory / "speech.wav")
    config = write_config(directory, QUICK + "input = wav\nwav_path = speech.wav\n")
    out = tmp_path / "o"
    assert main(["--config", str(config), "--out", str(out)]) == 3
    assert "bad value for 'wav_path'" in capsys.readouterr().err
    assert not out.exists()


def test_main_seed_override_applies(tmp_path):
    config = write_config(tmp_path, QUICK)
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    main(["--config", str(config), "--out", str(out_a), "--seed", "50", "--quiet"])
    main(["--config", str(config), "--out", str(out_b), "--seed", "50", "--quiet"])
    main(["--config", str(config), "--out", str(out_c), "--seed", "51", "--quiet"])
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "trace.csv").read_bytes() != (out_c / "trace.csv").read_bytes()
    assert b"seed = 50" in (out_a / "manifest.txt").read_bytes()


def test_main_trials_override_applies_and_round_trips(tmp_path, capsys):
    config = write_config(tmp_path, QUICK.replace("trials = 2", "trials = 3"))
    two = write_config(tmp_path, QUICK, name="two.cfg")
    out, replay, direct = (tmp_path / d for d in ("out", "replay", "direct"))
    assert main(["--config", str(config), "--out", str(out), "--trials", "2"]) == 0
    assert "final misalignment (2 trials)" in capsys.readouterr().out
    assert "trials = 2" in (out / "manifest.txt").read_text().splitlines()
    assert main(["--config", str(two), "--out", str(direct), "--quiet"]) == 0
    assert main(["--config", str(out / "manifest.txt"), "--out", str(replay), "--quiet"]) == 0
    trace = (out / "trace.csv").read_bytes()
    assert trace == (direct / "trace.csv").read_bytes() == (replay / "trace.csv").read_bytes()
    assert main(["--config", str(config), "--out", str(tmp_path / "zero"), "--trials", "0"]) == 3
    assert "trials must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "zero").exists()


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "exit codes" in capsys.readouterr().out


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: the CLI must import and run with
    # every scipy import blocked.
    config = write_config(tmp_path, QUICK)
    out = tmp_path / "o"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from apsabench.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    src = str(Path(apsabench.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run(
        [sys.executable, "-c", code, "--config", str(config), "--out", str(out), "--quiet"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "trace.csv", "trace.dat"]


# ------------------------------------------------------------------ config fuzz

def _number(lo, hi):
    return st.floats(lo, hi).map(repr)


ALGORITHMS = ["apsa", "mip-apsa", "bs-mip-apsa"]
_JUNK = st.sampled_from(["nan", "inf", "-inf", "1e400", "0x10", "", "abc", "none"])
_SCALE = st.one_of(_number(0.0, 1.0), _number(0.0, 1e308))
_CLUSTERS = st.sampled_from(["2:4", "0:8", "1:2,5:2", "6:2"])
_BAD_CLUSTERS = st.one_of(
    st.lists(st.tuples(st.integers(-1, 20), st.integers(-1, 10)), max_size=3).map(
        lambda pairs: ",".join(f"{o}:{s}" for o, s in pairs)
    ),
    st.sampled_from(["a:b", "3", ",", "2:4,3:4"]),
)
# key -> (usual values, junk values).  The usual ones are small so that a
# run stays short (iterations <= 64, trials <= 3); they may still break a
# constraint between keys, or, like a huge mu, diverge.
_KEY_VALUES = {
    "filter_length": (st.sampled_from(["8", "16"]), st.sampled_from(["0", "-4", "7", "12", "x"])),
    "projection_order": (st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-1", "1.5"])),
    "block_length": (st.sampled_from(["1", "2", "4", "8"]), st.sampled_from(["0", "3", "16"])),
    "mu": (
        st.one_of(_SCALE, st.sampled_from(["1e200", "1e300"])),
        st.one_of(_JUNK, _number(-1e308, -1e-300)),
    ),
    "alpha": (_number(-1.0, 0.99), st.one_of(_JUNK, st.just("1"))),
    "epsilon": (_SCALE, st.one_of(_JUNK, st.just("-1"))),
    "delta": (_SCALE, st.one_of(_JUNK, st.just("-1"))),
    "gain_variant": (
        st.sampled_from([*(v.value for v in GainVariant), "MIP_CONSISTENT"]),
        st.sampled_from(["mip-consistent", "bogus"]),
    ),
    "algorithms": (
        st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=3, unique=True).map(",".join),
        st.sampled_from(["rls", "", "apsa,apsa", "BS_MIP_APSA, ,apsa"]),
    ),
    "input": (st.sampled_from(["white", "ar1", "wav", "WHITE"]), st.just("pink")),
    "pole": (_number(-0.99, 0.99), st.one_of(_JUNK, st.sampled_from(["1", "-1"]))),
    "wav_path": (
        st.sampled_from(["none", "input.wav"]),
        st.sampled_from(["missing.wav", "junk.wav"]),
    ),
    "snr_db": (st.one_of(st.just("none"), _number(-1e4, 1e4)), _JUNK),
    "sir_db": (st.one_of(st.just("none"), _number(-1e4, 1e4)), _JUNK),
    "impulse_probability": (_number(0.0, 1.0), st.one_of(_JUNK, st.just("1.5"))),
    "iterations": (st.integers(1, 64).map(str), st.sampled_from(["0", "-2", "1e3"])),
    "switch_iteration": (
        st.one_of(st.just("none"), st.integers(0, 80).map(str)), st.sampled_from(["x", "-5"])
    ),
    "clusters": (_CLUSTERS, _BAD_CLUSTERS),
    "switched_clusters": (st.one_of(st.just("none"), _CLUSTERS), _BAD_CLUSTERS),
    "normalize_path": (st.sampled_from(["true", "false", "yes", "0"]), st.just("maybe")),
    "trials": (st.integers(1, 3).map(str), st.sampled_from(["0", "-1"])),
    "seed": (st.integers(0, 2**64).map(str), st.sampled_from(["-1", "1.0"])),
}
_EXTRA_LINE = st.one_of(
    st.sampled_from(sorted(_KEY_VALUES)).flatmap(
        lambda key: _KEY_VALUES[key][0].map(lambda value: f"{key} = {value}")
    ),
    st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
    .filter(lambda key: key not in _SCHEMA)
    .map(lambda key: f"{key} = 1"),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=20),
)


@st.composite
def config_lines(draw):
    """Known keys with drawn values (one in ten junk), half the time with
    the switch off, and half the time a few extra lines (a repeated key, an
    unknown key or junk), in drawn order."""
    known = {}
    for key in draw(st.lists(st.sampled_from(sorted(_KEY_VALUES)), unique=True)):
        usual, junk = _KEY_VALUES[key]
        known[key] = draw(junk if draw(st.integers(0, 9)) == 0 else usual)
    known.setdefault("iterations", "64")  # not the 100,000-sample default
    if draw(st.booleans()):  # no switch, which takes both keys
        known.update(switch_iteration="none", switched_clusters="none")
    lines = [f"{key} = {value}" for key, value in known.items()]
    if draw(st.booleans()):
        lines += draw(st.lists(_EXTRA_LINE, min_size=1, max_size=2))
    return draw(st.permutations(lines))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lines=config_lines())
def test_fuzzed_config_runs_or_fails_with_a_documented_code(lines):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_wav(speech_like(100, SeededStream(3)), tmp / "input.wav")
        (tmp / "junk.wav").write_bytes(b"not a wav file")
        cfg = tmp / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp / "out"
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(cfg), "--out", str(out), "--quiet"])
        assert code in (0, 2, 3, 4, 5)
        if code == 0:
            rows = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1, ndmin=2)
            assert np.all(np.isfinite(rows))
        try:
            config = parse_config(cfg)
        except ConfigError:
            return
        write_manifest(config, tmp / "manifest.txt", [])
        assert parse_config(tmp / "manifest.txt") == config
