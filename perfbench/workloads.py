"""The benchmark's workloads: complete config values, seeds and recorded digests.

Every config key is spelled out here, so neither an edit to ``configs/`` nor a
change of the CLI's built-in defaults can change what a workload runs.  The
workload seed is the config's ``seed``; the WAV input of ``single_wav`` is
written by this module from the same seed.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WAV_RATE = 8000
_WAV_STREAM = 0x5741  # substream of the workload seed that draws the WAV samples


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    values: dict[str, str]  # every config key except seed and wav_path
    default_seed: int
    digests: dict[str, str]  # sha256 of output files at the default seed

    @property
    def iterations(self) -> int:
        return int(self.values["iterations"])

    @property
    def trials(self) -> int:
        return int(self.values["trials"])

    @property
    def algorithms(self) -> list[str]:
        return self.values["algorithms"].split(",")

    @property
    def steps(self) -> int:
        """Filter steps per run: iterations x trials x algorithms."""
        return self.iterations * self.trials * len(self.algorithms)

    @property
    def reads_wav(self) -> bool:
        return self.values["input"] == "wav"

    def write_inputs(self, directory: Path, seed: int) -> Path:
        """Write this workload's config (and WAV input) for ``seed``; return the config."""
        lines = [f"{key} = {value}" for key, value in self.values.items()]
        lines.append(f"seed = {seed}")
        if self.reads_wav:
            wav_path = directory / "input.wav"
            write_wav(wav_path, self.iterations, seed)
            lines.append(f"wav_path = {wav_path.resolve()}")
        else:
            lines.append("wav_path = none")
        config_path = directory / f"{self.name}.cfg"
        config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return config_path


def write_wav(path: Path, count: int, seed: int) -> None:
    """Write ``count`` samples of mono 16-bit PCM drawn from ``seed``.

    White Gaussian noise under a piecewise-linear envelope with one knot per
    400 samples (a syllabic rate at 8 kHz), scaled to a 0.9 peak so that no
    sample clips.  Nonstationary like speech, so the input power varies.
    """
    rng = np.random.default_rng([seed, _WAV_STREAM])
    carrier = rng.standard_normal(count)
    n_knots = count // 400 + 2
    envelope = np.interp(
        np.arange(count), np.linspace(0, count - 1, n_knots), 0.05 + 0.95 * rng.random(n_knots)
    )
    samples = carrier * envelope
    samples *= 0.9 / np.max(np.abs(samples))
    pcm = np.round(samples * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(WAV_RATE)
        fh.writeframes(pcm.tobytes())


# The values of configs/colored_input_tracking.cfg with the horizon cut from
# 100k to 10k iterations (switch kept mid-run) and the trials from 10 to 2.
_ECHO512 = {
    "filter_length": "512",
    "projection_order": "2",
    "block_length": "4",
    "mu": "0.001",
    "alpha": "0",
    "epsilon": "0.01",
    "delta": "0.01",
    "gain_variant": "mip_consistent",
    "algorithms": "apsa,mip-apsa,bs-mip-apsa",
    "input": "ar1",
    "pole": "0.8",
    "snr_db": "40",
    "sir_db": "0",
    "impulse_probability": "0.1",
    "iterations": "10000",
    "switch_iteration": "5000",
    "clusters": "100:64",
    "switched_clusters": "60:32,300:32",
    "normalize_path": "true",
    "trials": "2",
}

# The values of configs/block_balanced_tracking.cfg with the horizon cut from
# 16k to 8k iterations (switch kept mid-run); all 10 trials are kept, so a
# batched engine still has 30 filters to advance per sample.
_ENSEMBLE128 = {
    **_ECHO512,
    "filter_length": "128",
    "gain_variant": "block_balanced",
    "iterations": "8000",
    "switch_iteration": "4000",
    "clusters": "24:32",
    "switched_clusters": "16:16,88:16",
    "trials": "10",
}

# One APSA trial at L=64 over a long WAV input; the path layout and step size
# are those of configs/quick_check.cfg.
_SINGLE_WAV = {
    **_ECHO512,
    "filter_length": "64",
    "mu": "0.005",
    "algorithms": "apsa",
    "input": "wav",
    "iterations": "100000",
    "switch_iteration": "50000",
    "clusters": "12:16",
    "switched_clusters": "8:8,40:8",
    "trials": "1",
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="echo512",
            why=(
                "paper's default point (L=512, all three algorithms): most arithmetic "
                "per step, heaviest gain rule, least per-call overhead"
            ),
            values=_ECHO512,
            default_seed=1,
            digests={
                "trace.csv": "ad173e1d9531ec1695e9bfd27663343f37ab9297fffaf2a0e8811cb473aa09a8",
                "trace.dat": "482a825be5c5abafa565b631e049c47cb5fcfcd88f6fca4fb3f4023b5966e47f",
            },
        ),
        Workload(
            name="ensemble128",
            why=(
                "many small filters (L=128, 10 trials x 3 algorithms): interpreter "
                "overhead per call dominates, where batching across trials gains"
            ),
            values=_ENSEMBLE128,
            default_seed=7,
            digests={
                "trace.csv": "9ec65260dcb2f61aee1e9d9cc2d0a34ab152bc3ed8aaa56cea649e392f5ca5c8",
                "trace.dat": "979c58ce729f767414cc041f7184b9f473fd05f670f8bf25129c83ab796cc3b2",
            },
        ),
        Workload(
            name="single_wav",
            why=(
                "one APSA filter on WAV input: batch of one, no gain or memory work, "
                "file input, and output writing at its largest share"
            ),
            values=_SINGLE_WAV,
            default_seed=1,
            digests={
                "trace.csv": "464dc6917611d70913a9670cab47b4fe29f96d889568b6068c278b054a0f0992",
                "trace.dat": "f50542faac61aa38ac843ae52225d93d140d22870de39552902366326d0094f0",
            },
        ),
    )
}
