"""Shared fixtures: random posterior grids, tiny vocabularies, and LMs
that test the LM states."""

import numpy as np
import pytest
from hypothesis import strategies as st

from csasr import decoder
from csasr import lm as lm_mod
from csasr.ctc import PosteriorGrid
from csasr.vocab import GraphemeVocab


def random_grid(rng, t: int, v: int, sharpness: float = 1.0) -> PosteriorGrid:
    logits = rng.normal(0.0, sharpness, size=(t, v))
    logp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    return PosteriorGrid(logp)


def latin_run_grid(rng, transcript: str, vocab: GraphemeVocab) -> PosteriorGrid:
    """A grid that favours the transcript: each unit holds 1-3 frames, a
    blank sits between repeated units and now and then elsewhere; coarse
    logits tie some candidates."""
    frames = []
    for prev, unit in zip(" " + transcript, transcript):
        if unit == prev or rng.random() < 0.3:
            frames.append(0)
        frames += [vocab.id_of(unit)] * int(rng.integers(1, 4))
    if rng.random() < 0.5:
        logits = rng.integers(0, 3, size=(len(frames), len(vocab))).astype(float)
    else:
        logits = rng.normal(0.0, 1.0, size=(len(frames), len(vocab)))
    logits[np.arange(len(frames)), frames] += 3.0
    return PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))


def tables_of(model) -> dict:
    """The decoder's tables of an LM model, by vocabulary; empty until a
    fused decode with the model."""
    return decoder._TABLES.get(id(model), {})


@pytest.fixture
def grid_factory():
    return random_grid


@pytest.fixture
def tiny_vocab() -> GraphemeVocab:
    return GraphemeVocab(("<blank>", "a", "b", " ", "你"))


# trigram ARPA whose 3-grams "你 好 a" and "你 好 你" have the context
# "你 好", while "你" itself has no follower and no backoff weight: only
# the prefix closure of the LM states keeps "你" as a state, so that a
# context ending in 你 still leads to "你 好" after 好
CLOSURE_ARPA = """\\data\\
ngram 1=7
ngram 2=4
ngram 3=3

\\1-grams:
-1.2\t<unk>
-99\t<s>\t-0.4
-0.6\ta\t-0.3
-0.9\tb\t-0.2
-0.7\t你
-0.8\t好\t-0.35
-1.0\t</s>

\\2-grams:
-0.5\t<s> 你\t-0.2
-0.3\ta b
-0.4\t好 a\t-0.1
-0.6\tb 你

\\3-grams:
-0.05\t你 好 a
-0.1\t你 好 你
-0.2\ta b 你

\\end\\
"""

# LMs whose vocabularies nest: "a" and "b'" start "abc" and "b'" but "ab"
# and "b" are no words, so a beam over NESTED_VOCAB holds runs in the
# vocabulary, runs outside it that start a word, and runs that start none
NESTED_VOCAB = GraphemeVocab(("<blank>", "a", "b", "c", "'", " ", "你"))
NESTED_CORPUS = ("a abc 你", "b' a abc", "abc b' 你 a", "a 你 b'")
NESTED_WORDS = {"a", "abc", "b'", "你"}
NESTED_RUNS = (
    "ab abc b'c", "abcab a 你", "ca b' ab你", "b'b abc'a", "a'bc ba abc", "bb a abcc 你b",
)

# the same words in a trigram ARPA with positive backoff weights, so that
# a backed-off log10 can read above 0
NESTED_ARPA = """\\data\\
ngram 1=7
ngram 2=5
ngram 3=2

\\1-grams:
-1.1\t<unk>
-99\t<s>\t0.2
-0.6\ta\t0.25
-0.9\tabc\t-0.2
-0.8\tb'\t0.1
-0.7\t你\t0.3
-1.0\t</s>

\\2-grams:
-0.3\t<s> a\t0.15
-0.2\ta abc
-0.4\tabc b'\t-0.1
-0.5\tb' 你
-0.35\t你 a

\\3-grams:
-0.1\t<s> a abc
-0.2\tabc b' 你

\\end\\
"""


def nested_lms(tmp_path) -> list:
    """A trigram KN model of NESTED_CORPUS and the model of NESTED_ARPA."""
    path = tmp_path / "nested.arpa"
    path.write_text(NESTED_ARPA, encoding="utf-8")
    trained = lm_mod.train_kn([lm_mod.tokenize_lm(s) for s in NESTED_CORPUS], order=3)
    return [trained, lm_mod.read_arpa(path)]


_TOKENS = ("a", "b", "ab", "ba'", "你", "好", lm_mod.BOS, lm_mod.EOS)
# log10 values and weights: -0.0 and 0.0 included
_LOG10 = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-3.0, 0.0))
_BOW = st.one_of(st.none(), st.sampled_from((0.0, -0.0)), st.floats(-1.5, 1.5))


@st.composite
def random_lms(draw):
    """NGramModels built straight from random tables: grams whose prefixes
    or suffixes are missing, contexts with a weight and no follower, -0.0
    log10 values and weights."""
    order = draw(st.integers(1, 4))
    tables = {1: {(lm_mod.UNK,): (draw(_LOG10), None)}}
    for word in draw(st.sets(st.sampled_from(_TOKENS))):
        tables[1][(word,)] = (draw(_LOG10), draw(_BOW))
    for k in range(2, order + 1):
        grams = draw(st.sets(st.tuples(*[st.sampled_from(_TOKENS)] * k), max_size=12))
        tables[k] = {gram: (draw(_LOG10), draw(_BOW)) for gram in grams}
    return lm_mod.NGramModel(order, tables)
