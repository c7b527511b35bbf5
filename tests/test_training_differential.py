"""Differential test: the one-loop CTC loss and the reduce-after-loop BPTT
against the verbatim versions they replaced (tests/reference_training.py).

Equality is exact (`==` on the loss, `tobytes()` on every gradient and
parameter): the rewrite only regroups elementwise float work and keeps
every sum in its old order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csasr import model as model_mod
from csasr import synth, training
from csasr.ctc import InfeasibleTarget, PosteriorGrid, _adjacent_equal_pairs, ctc_loss
from csasr.model import backward, forward_states, init_model
from csasr.training import Example, TrainConfig
from csasr.vocab import build_vocab, encode

import reference_training


@st.composite
def ctc_cases(draw):
    V = draw(st.integers(2, 41))
    kind = draw(st.sampled_from(("random", "repeats", "tight", "empty")))
    if kind == "empty":
        target = []
    elif kind == "repeats":  # every neighbour equal: no skip anywhere
        target = [draw(st.integers(1, V - 1))] * draw(st.integers(1, 15))
    else:
        target = draw(st.lists(st.integers(1, V - 1), max_size=15))
    need = len(target) + _adjacent_equal_pairs(target)
    T = max(need, 1) if kind == "tight" else draw(st.integers(1, 30))
    cells = draw(st.sampled_from(("finite", "scattered", "blank")))
    scale = draw(st.sampled_from((0.3, 1.0, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logits = rng.normal(0.0, scale, (T, V))
    if cells == "blank":  # the blank column is never emitted
        logits[:, 0] = -np.inf
    elif cells == "scattered":  # -inf cells, each row keeps one finite cell
        mask = rng.random(logits.shape) < 0.4
        mask[np.arange(T), rng.integers(V, size=T)] = False
        logits[mask] = -np.inf
    grid = PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))
    return grid, target


@settings(max_examples=600, deadline=None)
@given(ctc_cases())
def test_ctc_loss_equals_reference(case):
    grid, target = case
    try:
        want = reference_training.ctc_loss(grid, target)
    except InfeasibleTarget:
        with pytest.raises(InfeasibleTarget):
            ctc_loss(grid, target)
        return
    got = ctc_loss(grid, target)
    assert got.loss == want.loss
    assert got.grad.tobytes() == want.grad.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 20),
    st.integers(2, 41),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
)
def test_backward_equals_reference(hidden, width, V, T, seed):
    rng = np.random.default_rng(seed)
    m = init_model(width, V, hidden, seed=seed % 1000)
    frames = rng.normal(0.0, 2.0, (T, width))
    frames[rng.random(T) < 0.2] = 0.0  # zero inputs give signed-zero products
    hs, logp = forward_states(m, frames)
    dlogits = rng.normal(0.0, 1.0, (T, V))
    dlogits[rng.random((T, V)) < 0.2] = 0.0
    got = backward(m, frames, hs, dlogits)
    want = reference_training.backward(m, frames, hs, dlogits)
    assert list(got) == list(want)
    for k in want:
        assert got[k].shape == want[k].shape, k
        assert got[k].tobytes() == want[k].tobytes(), k


def _examples(spec, vocab, language, texts):
    return [
        Example(synth.synth_utterance(spec, t), tuple(encode(t, vocab)), 0, language)
        for t in texts
    ]


def test_training_run_is_byte_identical_to_reference(monkeypatch):
    spec = synth.make_spec("abcdef", "你我他是", feature_dim=6, seed=3)
    vocab = build_vocab(["".join(sorted(spec.templates))])
    # the sampler never repeats a unit back to back; the extra texts do, so
    # their reversed skip masks differ from the forward ones
    l1 = synth.sample_text_corpus(spec, "L1", 20, "l1") + ["aab", "abba", "cc dd"]
    l2 = synth.sample_text_corpus(spec, "L2", 20, "l2") + ["你你我", "是 是是"]
    cs = synth.sample_text_corpus(spec, "mixed", 20, "cs")
    pool = _examples(spec, vocab, "L1", l1) + _examples(spec, vocab, "L2", l2)
    mixed = _examples(spec, vocab, "mixed", cs)
    # an utterance too short for its target is skipped by both
    pool.append(Example(pool[0].frames[:1], pool[0].target, 0, "L1"))

    def run():
        am = init_model(spec.feature_dim, len(vocab), 8, seed=5)
        cfg = TrainConfig(learning_rate=0.01, batch_size=7, epochs=2, seed=1)
        training.train_epochs(am, pool, cfg)
        training.train_epochs(am, mixed, cfg)
        return am

    new = run()
    monkeypatch.setattr(training, "ctc_loss", reference_training.ctc_loss)
    monkeypatch.setattr(model_mod, "backward", reference_training.backward)
    old = run()
    for k in model_mod.PARAM_NAMES:
        assert new.params[k].tobytes() == old.params[k].tobytes(), k
