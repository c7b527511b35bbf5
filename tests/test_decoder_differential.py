"""Differential test: the array-native beam search against the verbatim
dict-based decoder it replaced (tests/reference_decoder.py).

Equality is exact (ids, text and float score of the whole n-best), not
approximate: the rewrite only reorders exact float work.
"""

import numpy as np
import pytest

from csasr import lm as lm_mod
from csasr.ctc import PosteriorGrid
from csasr.decoder import FusionConfig, beam_decode
from csasr.vocab import GraphemeVocab

import reference_decoder

WIDTHS = (1, 2, 3, 7, 30, 100)
ORDERS = (1, 2, 3, 5)
VOCAB = GraphemeVocab(("<blank>", "a", "b", "'", " ", "你", "好"))
CORPUS = (
    "ab a'b 你好", "好 ab 你", "a 你 b'a", "你好 ab ab", "b 好好 a", "ba 你 好 a"
)
MODELS = {
    order: lm_mod.train_kn([lm_mod.tokenize_lm(s) for s in CORPUS], order)
    for order in ORDERS
}
# (alpha, beta); alpha=0 with a model present still exercises the LM state
WEIGHTS = ((0.0, 0.0), (0.0, 1.0), (0.2, 1.0), (1.5, -0.5))


def _grid(rng) -> PosteriorGrid:
    t = int(rng.integers(1, 9))
    kind = rng.integers(4)
    if kind == 0:  # coarse logits: many exactly tied masses
        logits = rng.integers(0, 3, size=(t, len(VOCAB))).astype(float)
    else:
        scale = float(rng.choice([0.5, 1.0, 3.0]))
        logits = rng.normal(0.0, scale, size=(t, len(VOCAB)))
    if kind == 2:  # one unit, possibly the blank, never emitted
        logits[:, rng.integers(len(VOCAB))] = -np.inf
    elif kind == 3:  # scattered zero cells, each row keeps one finite cell
        mask = rng.random(logits.shape) < 0.4
        mask[np.arange(t), rng.integers(len(VOCAB), size=t)] = False
        logits[mask] = -np.inf
    return PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))


def _nbest(decode, grid, cfg, model):
    return [(h.ids, h.text, h.score) for h in decode(grid, VOCAB, cfg, model)]


@pytest.mark.parametrize("width", WIDTHS)
def test_beam_decode_equals_reference_decoder(width):
    rng = np.random.default_rng(1000 + width)
    for case in range(300):
        grid = _grid(rng)
        alpha, beta = WEIGHTS[case % len(WEIGHTS)]
        cfg = FusionConfig(alpha, beta, width)
        order = ORDERS[(case // len(WEIGHTS)) % len(ORDERS)]
        for model in (None, MODELS[order]):
            got = _nbest(beam_decode, grid, cfg, model)
            want = _nbest(reference_decoder.beam_decode, grid, cfg, model)
            assert got == want, (case, width, cfg, model and model.order)
