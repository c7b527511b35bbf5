import numpy as np
import pytest

from csasr.features import (
    FRAME_MS,
    LOG_FLOOR,
    SAMPLE_RATE,
    WINDOW_SAMPLES,
    MalformedFeatures,
    TooShort,
    extract_features,
    read_feat,
    read_wav,
    write_feat,
)
from writers import write_wav

# the one-sided spectrum of a real window: bins 0 to WINDOW_SAMPLES / 2
NUM_BINS = WINDOW_SAMPLES // 2 + 1


def test_constants_are_consistent():
    assert WINDOW_SAMPLES == SAMPLE_RATE * FRAME_MS // 1000
    assert extract_features(np.zeros(WINDOW_SAMPLES)).shape == (1, NUM_BINS)


def test_frame_count_drops_trailing_partial_window():
    wave = np.zeros(WINDOW_SAMPLES * 3 + 59)
    assert extract_features(wave).shape == (3, NUM_BINS)


def test_too_short_waveform_raises():
    with pytest.raises(TooShort):
        extract_features(np.zeros(WINDOW_SAMPLES - 1))
    with pytest.raises(ValueError):
        extract_features(np.zeros((2, WINDOW_SAMPLES)))


def test_pure_tone_concentrates_in_one_bin():
    # bin k of an N-point window sees frequency k * fs / N; pick k = 10
    k = 10
    n = np.arange(WINDOW_SAMPLES * 2)
    tone = np.cos(2 * np.pi * k * n / WINDOW_SAMPLES)
    frames = extract_features(tone)
    assert frames.shape == (2, NUM_BINS)
    assert np.argmax(frames[0]) == k
    # an exact-period cosine has magnitude N/2 in its bin
    assert frames[0, k] == pytest.approx(np.log(WINDOW_SAMPLES / 2 + LOG_FLOOR))


def test_silence_hits_the_log_floor():
    frames = extract_features(np.zeros(WINDOW_SAMPLES))
    np.testing.assert_allclose(frames, np.log(LOG_FLOOR))


def test_matches_direct_dft_definition():
    rng = np.random.default_rng(0)
    wave = rng.normal(size=WINDOW_SAMPLES)
    frames = extract_features(wave)
    ks = np.arange(NUM_BINS)
    n = np.arange(WINDOW_SAMPLES)
    dft = np.exp(-2j * np.pi * np.outer(ks, n) / WINDOW_SAMPLES) @ wave
    np.testing.assert_allclose(frames[0], np.log(np.abs(dft) + LOG_FLOOR), atol=1e-9)


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    wave = rng.uniform(-0.5, 0.5, size=WINDOW_SAMPLES * 2)
    path = tmp_path / "x.wav"
    write_wav(wave, path)
    back = read_wav(path)
    assert back.shape == wave.shape
    # truncation plus the 32767/32768 scale gap bound the error by (1+|x|)/32768
    np.testing.assert_allclose(back, wave, atol=2.0 / 32768)


def test_feat_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(3)
    frames = rng.normal(size=(5, 7))
    path = tmp_path / "x.feat"
    write_feat(frames, path)
    back = read_feat(path)
    np.testing.assert_array_equal(back, frames)
    assert path.read_text(encoding="utf-8").splitlines()[0] == "FEAT v1 T=5 F=7"


def test_read_feat_rejects_bad_header(tmp_path):
    path = tmp_path / "x.feat"
    path.write_text("FEAT v2 T=1 F=1\n0\n", encoding="utf-8")
    with pytest.raises(MalformedFeatures) as info:
        read_feat(path)
    assert info.value.line_number == 1


def test_read_feat_rejects_row_mismatch(tmp_path):
    path = tmp_path / "x.feat"
    path.write_text("FEAT v1 T=2 F=1\n0.5\n", encoding="utf-8")
    with pytest.raises(MalformedFeatures):
        read_feat(path)


def test_read_feat_rejects_non_numeric_cell_with_its_line(tmp_path):
    path = tmp_path / "x.feat"
    path.write_text("FEAT v1 T=2 F=2\n0.5 abc\n1 2\n", encoding="utf-8")
    with pytest.raises(MalformedFeatures) as info:
        read_feat(path)
    assert info.value.line_number == 2
