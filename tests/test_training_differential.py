"""Differential test: the batched SGD step, the one-loop CTC loss and the
reduce-after-loop BPTT against the verbatim versions they replaced
(tests/reference_training.py).

Equality is exact (`==` on losses, `tobytes()` on every gradient,
parameter and velocity): the rewrites only regroup elementwise float work
and stack per-utterance BLAS calls, and keep every sum in its old order.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    kind = draw(st.sampled_from(("random", "repeats", "tight", "empty", "too long")))
    if kind == "empty":
        target = []
    elif kind == "repeats":  # every neighbour equal: no skip anywhere
        target = [draw(st.integers(1, V - 1))] * draw(st.integers(1, 15))
    else:
        target = draw(st.lists(st.integers(1, V - 1), max_size=15))
    need = len(target) + _adjacent_equal_pairs(target)
    if kind == "tight":
        T = max(need, 1)
    elif kind == "too long" and need > 1:  # fails the length check
        T = draw(st.integers(1, need - 1))
    else:
        T = draw(st.integers(1, 30))
    cells = draw(st.sampled_from(("finite", "scattered", "blank")))
    scale = draw(st.sampled_from((0.3, 1.0, 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _grid(rng, T, V, cells, scale), target


def _grid(rng, T, V, cells="finite", scale=1.0):
    logits = rng.normal(0.0, scale, (T, V))
    if cells == "blank":  # the blank column is never emitted
        logits[:, 0] = -np.inf
    elif cells == "scattered":  # -inf cells, each row keeps one finite cell
        mask = rng.random(logits.shape) < 0.4
        mask[np.arange(T), rng.integers(V, size=T)] = False
        logits[mask] = -np.inf
    return PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))


def _assert_ctc_equals_reference(grids, targets):
    """One ctc_loss_batch per vocabulary size, over the stacked rows of its
    grids in order; returns each pair's loss, or its InfeasibleTarget, and
    gradient rows."""
    got = [None] * len(grids)
    for V in {grid.logp.shape[1] for grid in grids}:
        idx = [i for i, grid in enumerate(grids) if grid.logp.shape[1] == V]
        stacked = np.concatenate([grids[i].logp for i in idx])
        losses, grads = ctc_loss_batch(
            stacked, [grids[i].num_frames for i in idx], [targets[i] for i in idx]
        )
        assert grads is stacked and len(losses) == len(idx)
        bounds = np.cumsum([0] + [grids[i].num_frames for i in idx])
        for i, loss, start, stop in zip(idx, losses, bounds, bounds[1:]):
            got[i] = loss, grads[start:stop]
    for grid, target, (loss, grad) in zip(grids, targets, got):
        try:
            want = reference_training.ctc_loss(grid, target)
        except InfeasibleTarget:
            assert isinstance(loss, InfeasibleTarget)
            assert grad.tobytes() == np.zeros(grad.shape).tobytes()
            continue
        assert loss == want.loss
        assert grad.shape == want.grad.shape
        assert grad.tobytes() == want.grad.tobytes()
    return got


def _large_vocabulary_cases(V=3029, seed=23):
    """A few short utterances over thousands of units, targets reaching the
    last unit, one with a repeat and one too long for its frames."""
    rng = np.random.default_rng(seed)
    return [
        (_grid(rng, 5, V, scale=4.0), [V - 1, 7, 7]),
        (_grid(rng, 1, V), []),
        (_grid(rng, 3, V, "scattered"), [1, 2, 3, 3]),
        (_grid(rng, 9, V), [int(u) for u in rng.integers(1, V, 4)]),
    ]


@settings(max_examples=600, deadline=None)
@given(st.lists(ctc_cases(), min_size=1, max_size=20))
@example(_large_vocabulary_cases())
@example(_large_vocabulary_cases(1200, 29) + _large_vocabulary_cases(seed=31))
def test_ctc_loss_equals_reference(cases):
    got = _assert_ctc_equals_reference([grid for grid, _ in cases], [t for _, t in cases])
    grid, target = cases[0]  # the per-utterance entry point is the same code
    if isinstance(got[0][0], InfeasibleTarget):
        with pytest.raises(InfeasibleTarget):
            ctc_loss(grid, target)
    else:
        assert ctc_loss(grid, target).grad.tobytes() == got[0][1].tobytes()


def test_ctc_loss_with_one_feasible_pair_of_the_shortest_t_equals_reference():
    """Two pairs pass the length check but have no path; they share the
    batch arrays, up to the longest T and target, with the one pair that
    aligns, whose frames are the fewest."""
    rng = np.random.default_rng(19)
    cases = [
        (_grid(rng, 30, 41, "blank"), []),  # passes the length check, no path
        (_grid(rng, 4, 41), [5, 5, 6, 7]),  # too long for its frames
        (_grid(rng, 1, 41), [1]),  # the feasible pair
        (_grid(rng, 25, 41, "blank"), [2, 2, 3]),  # no path: blanks needed
        (_grid(rng, 12, 41), list(range(1, 14))),  # too long
    ]
    got = _assert_ctc_equals_reference(*zip(*cases))
    infeasible = [isinstance(loss, InfeasibleTarget) for loss, _ in got]
    assert infeasible == [True, True, False, True, True]


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
    st.lists(st.tuples(st.integers(1, 30), st.booleans()), min_size=1, max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_backward_equals_reference(hidden, width, V, utterances, seed):
    """Utterances drawn False get all-zero gradient rows, as the step gives
    the infeasible ones, and must add nothing. The first is always kept."""
    rng = np.random.default_rng(seed)
    m = init_model(width, V, hidden, seed=seed % 1000)
    batch_frames, batch_dlogits = [], []
    for T, _ in utterances:
        frames = rng.normal(0.0, 2.0, (T, width))
        frames[rng.random(T) < 0.2] = 0.0  # zero inputs give signed-zero products
        dlogits = rng.normal(0.0, 1.0, (T, V))
        dlogits[rng.random((T, V)) < 0.2] = 0.0
        batch_frames.append(frames)
        batch_dlogits.append(dlogits)
    kept = [n == 0 or keep for n, (_, keep) in enumerate(utterances)]
    hs, logp = forward_batch(m, batch_frames)
    stacked = np.concatenate(
        [dl if k else np.zeros_like(dl) for dl, k in zip(batch_dlogits, kept)]
    )
    got = backward_batch(m, batch_frames, hs, stacked)
    want = []
    start = 0
    for b, (frames, dlogits) in enumerate(zip(batch_frames, batch_dlogits)):
        T = len(frames)
        want_hs, want_logp = reference_training.forward_states(m, frames)
        assert hs[b, 1 : T + 1, :, 0].tobytes() == want_hs.tobytes()
        assert logp[start : start + T].tobytes() == want_logp.tobytes()
        start += T
        if kept[b]:
            want.append(reference_training.backward(m, frames, want_hs, dlogits))
    _assert_same_grads(got, _summed(m, want))
    # the per-utterance entry points are the same code
    one_hs, one_logp = forward_states(m, batch_frames[0])
    assert one_logp.tobytes() == logp[: len(batch_frames[0])].tobytes()
    single = backward(m, batch_frames[0], one_hs, batch_dlogits[0])
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


def _large_vocabulary_step_case(V=3029, seed=37):
    """A few short utterances over thousands of units: targets reaching the
    last unit, one with a repeat, one empty and one too long to align."""
    rng = np.random.default_rng(seed)
    m = init_model(4, V, 5, seed=seed)
    targets = [(V - 1, 9), (3, 3), (), (1, 2, 3), (int(rng.integers(1, V)), 5)]
    batch = [
        Example(rng.normal(0.0, 1.0, (T, 4)), target, 0, language)
        for T, target, language in zip((6, 3, 1, 2, 8), targets, ("L1", "L2", "mixed", "L1", "L2"))
    ]
    return m, TrainConfig(learning_rate=0.3, momentum=0.9), batch


@settings(max_examples=150, deadline=None)
@given(step_cases())
@example(_large_vocabulary_step_case())
@example(_large_vocabulary_step_case(1500, 41))
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
