"""Log-spectrogram features over non-overlapping 20 ms windows at 8 kHz.

Stride equals window width, so a waveform of N samples yields floor(N/160)
frames of 81 magnitude bins. The text-matrix file format shared by `.feat`
files and CTC grid files is read and written here.
"""

from __future__ import annotations

import re
import wave

import numpy as np

from .vocab import MalformedFile, read_utf8

SAMPLE_RATE = 8000
WINDOW_SAMPLES = 160  # 20 ms
LOG_FLOOR = 1e-10
FRAME_MS = 1000 * WINDOW_SAMPLES // SAMPLE_RATE


class TooShort(ValueError):
    """Waveform shorter than one analysis window."""


class MalformedFeatures(MalformedFile):
    pass


def extract_features(waveform) -> np.ndarray:
    """Per-window magnitude spectrum on a log scale; trailing partial window dropped."""
    w = np.asarray(waveform, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"expected mono waveform, got shape {w.shape}")
    if w.shape[0] < WINDOW_SAMPLES:
        raise TooShort(f"{w.shape[0]} samples < one window of {WINDOW_SAMPLES}")
    t = w.shape[0] // WINDOW_SAMPLES
    windows = w[: t * WINDOW_SAMPLES].reshape(t, WINDOW_SAMPLES)
    magnitude = np.abs(np.fft.rfft(windows, axis=1))
    return np.log(magnitude + LOG_FLOOR)


def read_wav(path) -> np.ndarray:
    """Mono 16-bit PCM at 8 kHz, scaled to [-1, 1)."""
    try:
        with wave.open(str(path), "rb") as f:
            channels, width, rate = f.getnchannels(), f.getsampwidth(), f.getframerate()
            raw = f.readframes(f.getnframes())
    except (wave.Error, EOFError) as e:
        reason = str(e) or "file ends inside the RIFF header"
        raise MalformedFile(path, 1, reason) from None
    if channels != 1:
        raise MalformedFile(path, 1, f"expected mono, got {channels} channels")
    if width != 2:
        raise MalformedFile(path, 1, "expected 16-bit samples")
    if rate != SAMPLE_RATE:
        raise MalformedFile(path, 1, f"expected {SAMPLE_RATE} Hz, got {rate}")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def write_matrix(matrix, path, magic: str, cols: str) -> None:
    """A `{magic} T=<rows> {cols}=<columns>` header, then one line of
    "%.17g" values per row, so floats (and infinities) round-trip exactly."""
    matrix = np.asarray(matrix, dtype=np.float64)
    t, width = matrix.shape
    row = " ".join(["%.17g"] * width) + "\n"
    rows = "".join(row % tuple(r) for r in matrix.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"{magic} T={t} {cols}={width}\n" + rows)


def read_matrix(path, magic: str, cols: str, error: type[MalformedFile]) -> np.ndarray:
    """Inverse of write_matrix; raises error(path, line_number, reason)."""
    lines = read_utf8(path).splitlines()
    if not lines:
        raise error(path, 1, "empty file")
    m = re.match(rf"^{re.escape(magic)} T=(\d+) {cols}=(\d+)$", lines[0])
    if not m:
        raise error(path, 1, f"bad header {lines[0]!r}")
    t, width = int(m.group(1)), int(m.group(2))
    if len(lines) - 1 != t:
        raise error(path, len(lines), f"expected {t} rows, found {len(lines) - 1}")
    rows = []  # parsed before allocating, so no header alone sizes the array
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != width:
            raise error(path, i, f"expected {width} values, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise error(path, i, str(e)) from None
    return np.array(rows, dtype=np.float64).reshape(t, width)


def write_feat(frames: np.ndarray, path) -> None:
    write_matrix(frames, path, "FEAT v1", "F")


def read_feat(path) -> np.ndarray:
    """Inverse of write_feat; a header with no frames, or a value that is
    not finite, raises MalformedFeatures at its line."""
    frames = read_matrix(path, "FEAT v1", "F", MalformedFeatures)
    if not len(frames):
        raise MalformedFeatures(path, 1, "no frames (T=0)")
    finite = np.isfinite(frames)
    if not finite.all():
        t, f = map(int, np.argwhere(~finite)[0])
        raise MalformedFeatures(path, t + 2, f"value {frames[t, f]} is not finite")
    return frames
