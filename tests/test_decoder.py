import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csasr import lm as lm_mod
from csasr.ctc import InfeasibleTarget, PosteriorGrid, ctc_loss
from csasr.decoder import FusionConfig, beam_decode, fused_score, greedy_decode
from csasr.vocab import GraphemeVocab
from conftest import random_grid

EXHAUSTIVE = FusionConfig(alpha=0.2, beta=1.0, beam_width=100_000)
NO_LM = FusionConfig(alpha=0.0, beta=0.0, beam_width=100_000)
TINY = GraphemeVocab(("<blank>", "a", "b", " ", "你"))


def _feasible_labelings(num_units, t):
    """Every label sequence CTC can produce from t frames (ids 1..num_units)."""
    out = [()]
    for length in range(1, t + 1):
        for combo in itertools.product(range(1, num_units + 1), repeat=length):
            repeats = sum(a == b for a, b in zip(combo, combo[1:]))
            if length + repeats <= t:
                out.append(combo)
    return out


def _exact_q(grid, ids, vocab, model, cfg):
    """Fused objective computed from scratch, bypassing the beam entirely."""
    try:
        ctc_logp = -ctc_loss(grid, list(ids)).loss
    except InfeasibleTarget:
        return None
    text = "".join(vocab.units[i] for i in ids)
    tokens = lm_mod.tokenize_lm(text)
    q = ctc_logp + cfg.beta * len(tokens)
    if model is not None:
        state = lm_mod.initial_state(model)
        total = 0.0
        for token in tokens:
            lp, state = lm_mod.score(model, state, token)
            total += lp
        q += cfg.alpha * math.log(10.0) * total
    return q


def _bruteforce_best(grid, vocab, model, cfg):
    scored = []
    for ids in _feasible_labelings(len(vocab) - 1, grid.num_frames):
        q = _exact_q(grid, ids, vocab, model, cfg)
        if q is not None:
            scored.append((-q, ids))
    scored.sort()
    return scored[0][1]


def test_greedy_decode_is_collapsed_argmax():
    logp = np.log(
        np.array(
            [
                [0.1, 0.8, 0.1],
                [0.1, 0.8, 0.1],
                [0.8, 0.1, 0.1],
                [0.1, 0.1, 0.8],
            ]
        )
    )
    assert greedy_decode(PosteriorGrid(logp)) == [1, 2]


def test_fusion_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(beam_width=0)
    with pytest.raises(ValueError):
        FusionConfig(alpha=float("nan"))


def test_beam_without_lm_matches_exhaustive_argmax(tiny_vocab):
    rng = np.random.default_rng(2)
    for _ in range(30):
        grid = random_grid(rng, 4, len(tiny_vocab))
        best = beam_decode(grid, tiny_vocab, NO_LM)[0]
        assert best.ids == _bruteforce_best(grid, tiny_vocab, None, NO_LM)


def test_beam_with_lm_matches_exhaustive_argmax(tiny_vocab):
    corpus = [lm_mod.tokenize_lm(s) for s in ("ab a 你", "a 你 你", "ba ab", "你 a")]
    model = lm_mod.train_kn(corpus, order=1)
    rng = np.random.default_rng(3)
    for _ in range(30):
        grid = random_grid(rng, 4, len(tiny_vocab))
        best = beam_decode(grid, tiny_vocab, EXHAUSTIVE, model)[0]
        assert best.ids == _bruteforce_best(grid, tiny_vocab, model, EXHAUSTIVE)


def test_hypothesis_scores_telescope_to_fused_score(tiny_vocab):
    corpus = [lm_mod.tokenize_lm(s) for s in ("ab a 你", "a 你", "ba ab")]
    model = lm_mod.train_kn(corpus, order=2)
    rng = np.random.default_rng(4)
    grid = random_grid(rng, 5, len(tiny_vocab))
    for hyp in beam_decode(grid, tiny_vocab, EXHAUSTIVE, model, nbest=10):
        ctc_logp = -ctc_loss(grid, list(hyp.ids)).loss
        assert hyp.score == pytest.approx(
            fused_score(hyp.text, ctc_logp, model, EXHAUSTIVE), abs=1e-9
        )


def test_fused_score_without_model_keeps_word_bonus():
    cfg = FusionConfig(alpha=0.5, beta=2.0, beam_width=1)
    assert fused_score("ab 你", -1.0, None, cfg) == pytest.approx(-1.0 + 2.0 * 2)


def test_nbest_is_sorted_and_deduplicated(tiny_vocab):
    rng = np.random.default_rng(5)
    grid = random_grid(rng, 4, len(tiny_vocab))
    hyps = beam_decode(grid, tiny_vocab, NO_LM, nbest=8)
    assert len(hyps) == len({h.ids for h in hyps})
    scores = [h.score for h in hyps]
    assert scores == sorted(scores, reverse=True)


def test_beam_width_one_on_dominant_grid_equals_greedy(tiny_vocab):
    # when one unit holds >= 0.9 per frame the modal prefix is the greedy path
    rng = np.random.default_rng(12)
    for _ in range(20):
        t = int(rng.integers(1, 6))
        rows = []
        for _ in range(t):
            winner = int(rng.integers(len(tiny_vocab)))
            row = np.full(len(tiny_vocab), 0.1 / (len(tiny_vocab) - 1))
            row[winner] = 0.9
            rows.append(np.log(row))
        grid = PosteriorGrid(np.array(rows))
        best = beam_decode(grid, tiny_vocab, FusionConfig(0.0, 0.0, 1))[0]
        assert list(best.ids) == greedy_decode(grid)


def test_beam_width_one_returns_something(tiny_vocab):
    rng = np.random.default_rng(6)
    grid = random_grid(rng, 6, len(tiny_vocab))
    hyps = beam_decode(grid, tiny_vocab, FusionConfig(0.0, 0.0, 1))
    assert len(hyps) == 1


def test_decode_is_deterministic(tiny_vocab):
    rng = np.random.default_rng(7)
    grid = random_grid(rng, 5, len(tiny_vocab))
    a = beam_decode(grid, tiny_vocab, EXHAUSTIVE, nbest=5)
    b = beam_decode(grid, tiny_vocab, EXHAUSTIVE, nbest=5)
    assert a == b


def test_trailing_latin_word_completes_at_utterance_end():
    vocab = GraphemeVocab(("<blank>", "a", "b"))
    corpus = [lm_mod.tokenize_lm(s) for s in ("ab", "ab", "a")]
    model = lm_mod.train_kn(corpus, order=1)
    # force the emission path a, b with near certainty
    logp = np.log(
        np.array(
            [
                [0.01, 0.98, 0.01],
                [0.01, 0.01, 0.98],
            ]
        )
    )
    logp -= np.logaddexp.reduce(logp, axis=1, keepdims=True)
    cfg = FusionConfig(alpha=0.2, beta=1.0, beam_width=50)
    best = beam_decode(PosteriorGrid(logp), vocab, cfg, model)[0]
    assert best.text == "ab"
    ctc_logp = -ctc_loss(PosteriorGrid(logp), [1, 2]).loss
    assert best.score == pytest.approx(fused_score("ab", ctc_logp, model, cfg), abs=1e-9)


def test_lm_cache_scores_each_context_token_pair_once(monkeypatch):
    corpus = [
        lm_mod.tokenize_lm(s)
        for s in ("ab a 你", "a 你 你", "ba ab", "你 a", "ab ab 你 a", "b 你 ab")
    ]
    model = lm_mod.train_kn(corpus, order=5)
    calls = []
    real_score = lm_mod.score

    def recording(model, state, token):
        calls.append((state.context, token))
        return real_score(model, state, token)

    monkeypatch.setattr(lm_mod, "score", recording)
    grid = random_grid(np.random.default_rng(8), 12, len(TINY))
    beam_decode(grid, TINY, FusionConfig(0.2, 1.0, 100), model)
    assert calls
    assert len(calls) == len(set(calls))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_beam_matches_exhaustive_on_random_small_instances(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    t = data.draw(st.integers(1, 4))
    grid = random_grid(rng, t, len(TINY))
    use_lm = data.draw(st.booleans())
    model = (
        lm_mod.train_kn([lm_mod.tokenize_lm("ab a 你"), lm_mod.tokenize_lm("你 a")], 1)
        if use_lm
        else None
    )
    cfg = EXHAUSTIVE if use_lm else NO_LM
    best = beam_decode(grid, TINY, cfg, model)[0]
    assert best.ids == _bruteforce_best(grid, TINY, model, cfg)
