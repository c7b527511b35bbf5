import numpy as np
import pytest

from csasr import synth
from csasr.cli import DEFAULT_CJK, DEFAULT_LATIN
from csasr.features import FRAME_MS
from csasr.lm import tokenize_lm
from csasr.synth import (
    MissingTemplate,
    make_spec,
    sample_text_corpus,
    sample_transcript,
    synth_corpus,
    synth_utterance,
)
from csasr.training import load_manifest
from csasr.vocab import is_cjk


def oracle_decode(spec, frames: np.ndarray) -> str:
    """Nearest template per frame, adjacent repeats merged; 0% CER at sigma=0."""
    graphemes = sorted(spec.templates)
    bank = np.stack([spec.templates[g] for g in graphemes])
    dists = ((frames[:, None, :] - bank[None, :, :]) ** 2).sum(axis=2)
    picks = np.argmin(dists, axis=1)
    out = []
    prev = None
    for p in picks:
        if p != prev:
            out.append(graphemes[p])
        prev = p
    return "".join(out)


@pytest.fixture(scope="module")
def spec():
    return make_spec("abcd", "你我他", feature_dim=6, sigma=0.4, p_switch=0.3, seed=0)


def test_spec_inventory(spec):
    assert spec.latin_letters == ["a", "b", "c", "d"]
    assert spec.cjk_chars == ["他", "你", "我"]
    assert " " in spec.templates
    assert spec.feature_dim == 6


def test_templates_are_separated(spec):
    required = 3.0 * spec.sigma * np.sqrt(spec.feature_dim)
    graphemes = sorted(spec.templates)
    for i, g in enumerate(graphemes):
        for h in graphemes[i + 1 :]:
            dist = np.linalg.norm(spec.templates[g] - spec.templates[h])
            assert dist > required, (g, h)


LETTERS = "abcdefghijklmnopqrstuvwxyz"
HAN_150 = "".join(map(chr, range(0x4E00, 0x4E00 + 150)))


def loop_min_distance(vals) -> float:
    """The least pairwise template distance, one np.linalg.norm per pair."""
    return min(
        float(np.linalg.norm(vals[i] - vals[j]))
        for i in range(len(vals))
        for j in range(i + 1, len(vals))
    )


def test_min_distance_equals_the_pairwise_norm_loop_to_the_bit():
    rng = np.random.default_rng(7)
    for _ in range(60):
        G, F = int(rng.integers(2, 61)), int(rng.integers(1, 41))
        vals = rng.normal(0.0, 1.0, (G, F)) * rng.uniform(0.01, 100.0)
        assert synth._min_distance(vals) == loop_min_distance(vals), (G, F)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "latin, cjk, feature_dim, sigma",
    [
        pytest.param(DEFAULT_LATIN, DEFAULT_CJK, 12, 0.4, id="default"),
        pytest.param("ab", "你", 1, 0.4, id="4-F1"),
        pytest.param(LETTERS, HAN_150, 40, 0.3, id="177-F40"),
        pytest.param(LETTERS, HAN_150, 3, 0.05, id="177-F3"),
        pytest.param(LETTERS, HAN_150, 40, 0.1, id="177-F40-unscaled"),
        pytest.param("abc", "你我", 6, 0.0, id="6-sigma0"),
    ],
)
def test_make_spec_equals_the_pairwise_norm_loop_spec(
    latin, cjk, feature_dim, sigma, seed, monkeypatch
):
    # the same templates as with the loop deciding the scale: every case
    # is scaled at each seed but the unscaled and sigma-0 ones
    got = make_spec(latin, cjk, feature_dim, sigma, seed=seed)
    monkeypatch.setattr(synth, "_min_distance", loop_min_distance)
    want = make_spec(latin, cjk, feature_dim, sigma, seed=seed)
    assert list(got.templates) == list(want.templates)
    for g, t in want.templates.items():
        assert got.templates[g].tobytes() == t.tobytes(), g


def test_spec_rejects_bad_p_switch():
    with pytest.raises(ValueError):
        make_spec("ab", "你", p_switch=1.5)


@pytest.mark.parametrize("latin, cjk", [("a", "你"), ("aa", "你"), ("ab", "")])
def test_spec_rejects_too_small_inventory(latin, cjk):
    # one letter would make the word sampler redraw forever
    with pytest.raises(ValueError):
        make_spec(latin, cjk)


def test_utterance_length_is_sum_of_durations(spec):
    text = "ab 你"
    frames = synth_utterance(spec, text)
    expected = sum(spec.durations[ch] for ch in text)
    assert frames.shape == (expected, spec.feature_dim)


def test_utterance_is_deterministic_per_transcript(spec):
    a = synth_utterance(spec, "ab 你")
    b = synth_utterance(spec, "ab 你")
    np.testing.assert_array_equal(a, b)
    c = synth_utterance(spec, "ba 你")
    assert not np.array_equal(a, c)


def test_unknown_grapheme_raises(spec):
    with pytest.raises(MissingTemplate):
        synth_utterance(spec, "xyz")


def test_oracle_decode_recovers_clean_transcripts():
    quiet = make_spec("abcd", "你我他", feature_dim=6, sigma=0.0, seed=0)
    for text in ("ab 你", "dcba", "你我他 a"):
        assert oracle_decode(quiet, synth_utterance(quiet, text)) == text


def test_oracle_decode_is_robust_at_working_noise(spec):
    rng = np.random.default_rng(1)
    errors = 0
    for _ in range(30):
        text = sample_transcript(spec, "mixed", rng)
        if oracle_decode(spec, synth_utterance(spec, text)) != text:
            errors += 1
    assert errors == 0


def test_sample_transcript_length_bounds(spec):
    # spaces are graphemes too (they carry templates), so they count
    rng = np.random.default_rng(2)
    for _ in range(200):
        text = sample_transcript(spec, "mixed", rng)
        assert 3 <= len(text) <= 12
        assert "  " not in text
        assert text == text.strip()


def test_sample_transcript_scripts_by_language(spec):
    rng = np.random.default_rng(3)
    latin_only = sample_transcript(spec, "L1", rng)
    assert all(not is_cjk(ch) for ch in latin_only)
    cjk_only = sample_transcript(spec, "L2", rng)
    assert all(is_cjk(ch) or ch == " " for ch in cjk_only)


def test_words_have_no_adjacent_repeats(spec):
    rng = np.random.default_rng(4)
    for _ in range(100):
        text = sample_transcript(spec, "L1", rng)
        for word in text.split(" "):
            assert all(a != b for a, b in zip(word, word[1:]))


def test_mixed_switch_rate_tracks_probability():
    spec_hi = make_spec("abcd", "你我他", feature_dim=6, p_switch=0.9, seed=0)
    spec_lo = make_spec("abcd", "你我他", feature_dim=6, p_switch=0.05, seed=0)

    def rate(sp, seed):
        rng = np.random.default_rng(seed)
        switches = boundaries = 0
        for _ in range(300):
            tokens = tokenize_lm(sample_transcript(sp, "mixed", rng))
            for a, b in zip(tokens, tokens[1:]):
                boundaries += 1
                switches += is_cjk(a[0]) != is_cjk(b[0])
        return switches / boundaries

    assert rate(spec_hi, 5) > rate(spec_lo, 5) + 0.3


def test_mixed_switch_rate_is_calibrated(spec):
    switches = boundaries = 0
    for line in sample_text_corpus(spec, "mixed", 1000, "rate_check"):
        tokens = tokenize_lm(line)
        for a, b in zip(tokens, tokens[1:]):
            boundaries += 1
            switches += is_cjk(a[0]) != is_cjk(b[0])
    assert switches / boundaries == pytest.approx(spec.p_switch, abs=0.05)


def test_corpus_writes_features_and_manifest(tmp_path, spec):
    entries = synth_corpus(spec, "mixed", 5, tmp_path, tag="dev")
    assert len(entries) == 5
    manifest = load_manifest(tmp_path / "dev_manifest.csv")
    assert manifest == entries
    for e in entries:
        assert (tmp_path / e.path).exists()
        assert e.language == "mixed"
        assert e.duration_ms % FRAME_MS == 0


def test_corpus_is_deterministic(tmp_path, spec):
    a = synth_corpus(spec, "L1", 4, tmp_path / "a", tag="t")
    b = synth_corpus(spec, "L1", 4, tmp_path / "b", tag="t")
    assert [e.transcript for e in a] == [e.transcript for e in b]
    for e in a:
        assert (tmp_path / "a" / e.path).read_bytes() == (
            tmp_path / "b" / e.path
        ).read_bytes()


def test_distinct_tags_give_distinct_corpora(tmp_path, spec):
    a = synth_corpus(spec, "mixed", 6, tmp_path, tag="train")
    b = synth_corpus(spec, "mixed", 6, tmp_path, tag="test")
    assert [e.transcript for e in a] != [e.transcript for e in b]


def test_text_corpus_is_deterministic(spec):
    a = sample_text_corpus(spec, "mixed", 10, "lm")
    b = sample_text_corpus(spec, "mixed", 10, "lm")
    assert a == b
    assert len(a) == 10
    assert a != sample_text_corpus(spec, "mixed", 10, "other")
