"""Shared fixtures: random posterior grids, tiny vocabularies, and LMs
that test the LM states."""

import numpy as np
import pytest
from hypothesis import strategies as st

from csasr import lm as lm_mod
from csasr.ctc import PosteriorGrid
from csasr.vocab import GraphemeVocab


def random_grid(rng, t: int, v: int, sharpness: float = 1.0) -> PosteriorGrid:
    logits = rng.normal(0.0, sharpness, size=(t, v))
    logp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
    return PosteriorGrid(logp)


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
