"""Differential test: the batched SGD step, the one-loop CTC loss and the
reduce-after-loop BPTT against the verbatim versions they replaced
(tests/reference_training.py).

Equality is exact (`==` on losses, `tobytes()` on every gradient,
parameter and velocity): the rewrites only regroup elementwise float work
and stack per-utterance BLAS calls, and keep every sum in its old order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csasr import model as model_mod
from csasr import synth, training
from csasr.ctc import (
    InfeasibleTarget,
    PosteriorGrid,
    _adjacent_equal_pairs,
    ctc_loss,
    ctc_loss_batch,
)
from csasr.model import (
    backward,
    backward_batch,
    forward_batch,
    forward_states,
    init_model,
)
from csasr.training import AllInfeasible, Example, SgdTrainer, TrainConfig
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
@given(st.lists(ctc_cases(), min_size=1, max_size=6))
def test_ctc_loss_equals_reference(cases):
    got = ctc_loss_batch([grid for grid, _ in cases], [target for _, target in cases])
    assert len(got) == len(cases)
    for (grid, target), result in zip(cases, got):
        try:
            want = reference_training.ctc_loss(grid, target)
        except InfeasibleTarget:
            assert isinstance(result, InfeasibleTarget)
            continue
        assert result.loss == want.loss
        assert result.grad.tobytes() == want.grad.tobytes()
    grid, target = cases[0]  # the per-utterance entry point is the same code
    if isinstance(got[0], InfeasibleTarget):
        with pytest.raises(InfeasibleTarget):
            ctc_loss(grid, target)
    else:
        assert ctc_loss(grid, target).grad.tobytes() == got[0].grad.tobytes()


def _summed(m, per_utterance):
    """Zeros plus each utterance's gradients, added in batch order."""
    total = {k: np.zeros_like(v) for k, v in m.params.items()}
    for grads in per_utterance:
        for k in total:
            total[k] += grads[k]
    return total


def _assert_same_grads(got, want):
    assert sorted(got) == sorted(want)
    for k in want:
        assert got[k].shape == want[k].shape, k
        assert got[k].tobytes() == want[k].tobytes(), k


@settings(max_examples=400, deadline=None)
@given(
    st.integers(1, 16),
    st.integers(1, 20),
    st.integers(2, 41),
    st.lists(st.integers(1, 30), min_size=1, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_backward_equals_reference(hidden, width, V, lengths, seed):
    rng = np.random.default_rng(seed)
    m = init_model(width, V, hidden, seed=seed % 1000)
    batch_frames, batch_dlogits = [], []
    for T in lengths:
        frames = rng.normal(0.0, 2.0, (T, width))
        frames[rng.random(T) < 0.2] = 0.0  # zero inputs give signed-zero products
        dlogits = rng.normal(0.0, 1.0, (T, V))
        dlogits[rng.random((T, V)) < 0.2] = 0.0
        batch_frames.append(frames)
        batch_dlogits.append(dlogits)
    states = forward_batch(m, batch_frames)
    got = backward_batch(m, batch_frames, [hs for hs, _ in states], batch_dlogits)
    want = []
    for frames, dlogits, (hs, logp) in zip(batch_frames, batch_dlogits, states):
        want_hs, want_logp = reference_training.forward_states(m, frames)
        assert hs.tobytes() == want_hs.tobytes()
        assert logp.tobytes() == want_logp.tobytes()
        want.append(reference_training.backward(m, frames, hs, dlogits))
    _assert_same_grads(got, _summed(m, want))
    # the per-utterance entry points are the same code
    hs, logp = forward_states(m, batch_frames[0])
    assert logp.tobytes() == states[0][1].tobytes()
    single = backward(m, batch_frames[0], hs, batch_dlogits[0])
    _assert_same_grads(single, _summed(m, want[:1]))


@st.composite
def step_cases(draw):
    """A model, a config and a batch of 1-20 utterances of 1-31 frames whose
    targets are random, empty, one repeated unit, or too long to align; half
    the batches that are not all infeasible also get, at drawn places, one
    frame aligning one unit or none, a target too long for its frames, and
    one unit repeated in the fewest frames that align it."""
    V = draw(st.integers(2, 12))
    hidden = draw(st.sampled_from((1, 2, 5, 12)))
    width = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = init_model(width, V, hidden, seed=seed % 1000)
    gain = draw(st.sampled_from((0.5, 1.0, 3.0)))  # 3.0 saturates tanh
    for v in m.params.values():
        v *= gain
    all_infeasible = draw(st.integers(0, 9)) == 0
    batch = []
    for _ in range(draw(st.integers(1, 20))):
        T = draw(st.integers(1, 31))
        kind = "infeasible" if all_infeasible else draw(
            st.sampled_from(("random", "empty", "repeats", "infeasible"))
        )
        if kind == "empty":
            target = []
        elif kind == "repeats":  # 2k-1 frames align k copies of one unit
            unit = draw(st.integers(1, V - 1))
            target = [unit] * draw(st.integers(1, (T + 1) // 2))
        elif kind == "infeasible":  # T + 1 units never fit in T frames
            target = draw(st.lists(st.integers(1, V - 1), min_size=T + 1, max_size=T + 1))
        else:
            target = draw(st.lists(st.integers(1, V - 1), max_size=T))
        frames = rng.normal(0.0, 1.0, (T, width))
        frames[rng.random(T) < 0.1] = 0.0
        language = draw(st.sampled_from(training.LANGUAGES))
        batch.append(Example(frames, tuple(target), 0, language))
    if not all_infeasible and draw(st.booleans()):
        unit = draw(st.integers(1, V - 1))
        k = draw(st.integers(2, 8))
        for T, target in (
            (1, [unit] * draw(st.integers(0, 1))),
            (k, [unit] * (k + 1)),
            (2 * k - 1, [unit] * k),
        ):
            frames = rng.normal(0.0, 1.0, (T, width))
            batch.insert(draw(st.integers(0, len(batch))), Example(frames, tuple(target), 0, "L1"))
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from((0.0, 0.01, 0.3))),
        momentum=draw(st.sampled_from((0.0, 0.9))),
        nesterov=draw(st.booleans()),
    )
    return m, cfg, batch


@settings(max_examples=150, deadline=None)
@given(step_cases())
def test_step_equals_reference(case):
    m, cfg, batch = case
    new, old = SgdTrainer(m.copy(), cfg), SgdTrainer(m.copy(), cfg)
    for _ in range(2):  # the second step starts from the first one's velocity
        try:
            want = reference_training.reference_step(old, batch)
        except AllInfeasible:
            with pytest.raises(AllInfeasible):
                new.step(batch)
            break
        got = new.step(batch)
        assert got == want
        for k in model_mod.PARAM_NAMES:
            assert new.model.params[k].tobytes() == old.model.params[k].tobytes(), k
            assert new.velocity[k].tobytes() == old.velocity[k].tobytes(), k
    for k in model_mod.PARAM_NAMES:
        assert new.model.params[k].tobytes() == old.model.params[k].tobytes(), k


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
        history = training.train_epochs(am, pool, cfg)
        history += training.train_epochs(am, mixed, cfg)
        return am, history

    new, new_history = run()
    monkeypatch.setattr(training.SgdTrainer, "step", reference_training.reference_step)
    old, old_history = run()
    assert new_history == old_history
    for k in model_mod.PARAM_NAMES:
        assert new.params[k].tobytes() == old.params[k].tobytes(), k
