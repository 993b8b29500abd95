"""Mono 16-bit PCM WAV ingestion and the matching writer for test fixtures."""

from __future__ import annotations

import wave

import numpy as np


class WavFormatError(ValueError):
    """The file exists but is not mono 16-bit PCM WAV."""


def load_wav(path) -> np.ndarray:
    """Read a mono 16-bit PCM WAV file into samples in [-1, 1).

    Sample values map as value/32768, so -32768 becomes exactly -1.0.  Any
    other channel count, sample width, or compression, and data that ends
    mid-sample, are rejected with a format diagnostic; the sample rate is
    ignored.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            channels = wav.getnchannels()
            if channels != 1:
                raise WavFormatError(f"{path}: expected mono, got {channels} channels")
            width = wav.getsampwidth()
            if width != 2:
                raise WavFormatError(
                    f"{path}: expected 16-bit samples, got {8 * width}-bit"
                )
            if wav.getcomptype() != "NONE":
                raise WavFormatError(
                    f"{path}: expected uncompressed PCM, got {wav.getcomptype()}"
                )
            frames = wav.readframes(wav.getnframes())
    except wave.Error as exc:
        raise WavFormatError(f"{path}: not a readable WAV file ({exc})") from exc
    if len(frames) % 2:
        raise WavFormatError(f"{path}: the data ends mid-sample ({len(frames)} bytes)")
    return np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0


def save_wav(samples: np.ndarray, path, sample_rate: int = 8000) -> None:
    """Quantize samples in [-1, 1) to mono 16-bit PCM and write a WAV file."""
    quantized = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(sample_rate)
        wav.writeframes(quantized.tobytes())
