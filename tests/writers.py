"""Writers only the tests need: 16-bit PCM `.wav` files for the `.wav`
reader, and CTC grid files for `decode --grid` and `read_grid`."""

import wave

import numpy as np

from csasr.ctc import PosteriorGrid
from csasr.features import SAMPLE_RATE, write_matrix


def write_wav(waveform: np.ndarray, path) -> None:
    samples = np.clip(np.asarray(waveform) * 32767.0, -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(samples.tobytes())


def write_grid(grid: PosteriorGrid, path) -> None:
    write_matrix(grid.logp, path, "CTCGRID v1", "V")
