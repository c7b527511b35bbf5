"""Deterministic synthetic bilingual feature corpora.

Each grapheme (including the space) owns a spectral template and a frame
duration; an utterance is the concatenation of its graphemes' templates
plus Gaussian noise. Templates are rescaled at construction so every pair
is separated by more than 3*sigma*sqrt(F), which keeps a nearest-template
decoder exact at sigma=0 and the task learnable above it. All randomness
derives from the spec seed; per-utterance noise is seeded from a hash of
(seed, transcript), so corpora reproduce byte-for-byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

import numpy as np

from .features import FRAME_MS, write_feat
from .training import LANGUAGES, ManifestEntry, save_manifest
from .vocab import is_cjk


# frames per grapheme, and graphemes per transcript (spaces included)
MIN_FRAMES, MAX_FRAMES = 2, 3
MIN_GRAPHEMES, MAX_GRAPHEMES = 3, 12


class MissingTemplate(KeyError):
    pass


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    templates: dict[str, np.ndarray]  # grapheme -> (F,) spectral template
    durations: dict[str, int]  # grapheme -> frames
    sigma: float
    p_switch: float

    def __post_init__(self):
        if not 0.0 <= self.p_switch <= 1.0:
            raise ValueError(f"p_switch must be in [0, 1], got {self.p_switch}")
        if len(self.latin_letters) < 2 or not self.cjk_chars:
            raise ValueError("need at least two Latin letters a-z and one CJK character")

    @property
    def feature_dim(self) -> int:
        return next(iter(self.templates.values())).shape[0]

    @cached_property
    def latin_letters(self) -> list[str]:
        return sorted(g for g in self.templates if "a" <= g <= "z")

    @cached_property
    def cjk_chars(self) -> list[str]:
        return sorted(g for g in self.templates if is_cjk(g))


def make_spec(
    latin_letters: str,
    cjk_chars: str,
    feature_dim: int = 12,
    sigma: float = 0.4,
    p_switch: float = 0.3,
    seed: int = 0,
) -> SynthSpec:
    graphemes = sorted(set(latin_letters)) + [" "] + sorted(set(cjk_chars))
    rng = np.random.default_rng(seed)
    templates = {g: rng.normal(0.0, 1.0, feature_dim) for g in graphemes}
    durations = {g: int(rng.integers(MIN_FRAMES, MAX_FRAMES + 1)) for g in graphemes}

    required = 3.0 * sigma * np.sqrt(feature_dim)
    min_dist = _min_distance(np.stack(list(templates.values())))
    if min_dist <= 0.0:
        raise ValueError("degenerate template draw; change the seed")
    if min_dist <= required:
        scale = 1.05 * required / min_dist
        templates = {g: t * scale for g, t in templates.items()}
    return SynthSpec(seed, templates, durations, sigma, p_switch)


def _min_distance(vals: np.ndarray) -> float:
    """The least distance between two rows, np.linalg.norm's to the bit: one
    matmul per row gives the dot products norm takes the sqrt of."""
    return float(np.sqrt(min(
        np.matmul(d[:, None, :], d[:, :, None]).min()
        for d in (vals[i] - vals[i + 1 :] for i in range(len(vals) - 1))
    )))


def _hashed_rng(key: str) -> np.random.Generator:
    """A generator seeded by the sha256 of key, so its draws depend on key alone."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def synth_utterance(spec: SynthSpec, transcript: str) -> np.ndarray:
    """Template concatenation plus noise; T = sum of grapheme durations."""
    rows = []
    for ch in transcript:
        template = spec.templates.get(ch)
        if template is None:
            raise MissingTemplate(ch)
        rows.extend([template] * spec.durations[ch])
    frames = np.stack(rows)
    if spec.sigma > 0.0:
        rng = _hashed_rng(f"{spec.seed}|{transcript}")
        frames = frames + rng.normal(0.0, spec.sigma, frames.shape)
    return frames


def _sample_word(rng: np.random.Generator, letters: list[str], max_len: int) -> str:
    length = int(rng.integers(1, max_len + 1))
    word = []
    for _ in range(length):
        ch = letters[int(rng.integers(len(letters)))]
        while word and ch == word[-1]:
            ch = letters[int(rng.integers(len(letters)))]
        word.append(ch)
    return "".join(word)


def sample_transcript(spec: SynthSpec, language: str, rng: np.random.Generator) -> str:
    """Token sequence joined by spaces; mixed utterances switch script at a
    token boundary with probability p_switch."""
    if language not in LANGUAGES:
        raise ValueError(f"language must be one of {LANGUAGES}, got {language!r}")
    latin, cjk = spec.latin_letters, spec.cjk_chars
    target = int(rng.integers(MIN_GRAPHEMES, MAX_GRAPHEMES + 1))
    if language == "mixed":
        script = "latin" if rng.random() < 0.5 else "cjk"
    else:
        script = "latin" if language == "L1" else "cjk"
    tokens = []
    length = 0
    while True:
        if script == "latin":
            token = _sample_word(rng, latin, max_len=3)
        else:
            token = cjk[int(rng.integers(len(cjk)))]
        added = len(token) + (1 if tokens else 0)
        if tokens and length >= MIN_GRAPHEMES and length + added > target:
            break
        tokens.append(token)
        length += added
        if length >= target:
            break
        if language == "mixed" and rng.random() < spec.p_switch:
            script = "cjk" if script == "latin" else "latin"
    return " ".join(tokens)


def sample_text_corpus(
    spec: SynthSpec, language: str, count: int, tag: str
) -> list[str]:
    """Transcripts only, no audio; cheap way to get extra LM training text."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = _hashed_rng(f"{spec.seed}|corpus|{tag}")
    return [sample_transcript(spec, language, rng) for _ in range(count)]


def synth_utterances(
    spec: SynthSpec, language: str, count: int, tag: str
) -> Iterator[tuple[ManifestEntry, np.ndarray]]:
    """The transcripts sample_text_corpus draws for tag, each with its
    frames and the manifest entry synth_corpus writes for it."""
    for i, transcript in enumerate(sample_text_corpus(spec, language, count, tag)):
        frames = synth_utterance(spec, transcript)
        name = f"{tag}_{i:04d}.feat"
        yield ManifestEntry(name, transcript, language, frames.shape[0] * FRAME_MS), frames


def synth_corpus(
    spec: SynthSpec, language: str, count: int, out_dir, tag: str
) -> list[ManifestEntry]:
    """Write synth_utterances' frames as feature files plus the manifest
    `<tag>_manifest.csv`; returns the entries."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for entry, frames in synth_utterances(spec, language, count, tag):
        write_feat(frames, out / entry.path)
        entries.append(entry)
    save_manifest(entries, out / f"{tag}_manifest.csv")
    return entries
