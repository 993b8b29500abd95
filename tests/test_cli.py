import wave

import numpy as np
import pytest

from apsabench.audio import WavFormatError, load_wav, save_wav
from apsabench.cli import (
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


def test_disabled_ratios_parse_to_none(tmp_path):
    config = parse_config(write_config(tmp_path, "snr_db = none\nsir_db = none\n"))
    assert config.noise.snr_db is None
    assert config.noise.sir_db is None


def test_manifest_round_trips_to_identical_config(tmp_path):
    config = parse_config(write_config(tmp_path, QUICK))
    manifest = tmp_path / "manifest.txt"
    write_manifest(config, manifest, ["trace.csv"])
    assert parse_config(manifest) == config


def test_config_echo_covers_every_schema_key(tmp_path):
    from apsabench.cli import _SCHEMA

    config = parse_config(write_config(tmp_path, ""))
    assert set(config_echo(config)) == set(_SCHEMA)


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


# ------------------------------------------------------------------- outputs


def make_trace():
    return MisalignmentTrace(
        traces={"apsa": np.array([0.0, -20.0]), "bs-mip-apsa": np.array([0.0, -1.25])},
        iterations=2,
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


def test_emit_csv_rejects_empty_trace():
    with pytest.raises(ValueError, match="empty"):
        emit_csv(MisalignmentTrace(traces={}, iterations=0, trials=0), "/tmp/x.csv")


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
    for i in range(trace.iterations):
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
    iterations = len(next(iter(columns.values())))
    trace = MisalignmentTrace(traces=columns, iterations=iterations, trials=1)
    emit_csv(trace, tmp_path / "trace.csv")
    emit_plot_data(trace, tmp_path / "trace.dat")
    assert (tmp_path / "trace.csv").read_bytes() == row_by_row(trace, ",", "")
    assert (tmp_path / "trace.dat").read_bytes() == row_by_row(trace, " ", "# ")


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


def test_main_seed_override_applies(tmp_path):
    config = write_config(tmp_path, QUICK)
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    main(["--config", str(config), "--out", str(out_a), "--seed", "50", "--quiet"])
    main(["--config", str(config), "--out", str(out_b), "--seed", "50", "--quiet"])
    main(["--config", str(config), "--out", str(out_c), "--seed", "51", "--quiet"])
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "trace.csv").read_bytes() != (out_c / "trace.csv").read_bytes()
    assert b"seed = 50" in (out_a / "manifest.txt").read_bytes()


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "exit codes" in capsys.readouterr().out
