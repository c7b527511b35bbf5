"""Differential test: the array-native beam search against the verbatim
dict-based decoder it replaced (tests/reference_decoder.py).

Equality is exact (ids, text and float score of the whole n-best), not
approximate: the rewrite only reorders exact float work.
"""

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csasr import lm as lm_mod
from csasr.ctc import PosteriorGrid
from csasr.decoder import FusionConfig, _LmCache, beam_decode
from csasr.vocab import GraphemeVocab
from conftest import CLOSURE_ARPA, random_lms

import reference_decoder
import reference_lm

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
# (alpha, beta); a zero alpha, of either sign, drops the model, and with a
# zero beta too the decode keeps no fusion state
WEIGHTS = ((0.0, 0.0), (0.0, 1.0), (0.2, 1.0), (1.5, -0.5), (-0.0, -0.0), (-0.0, -0.5))


def _grid(rng, t=None) -> PosteriorGrid:
    t = int(rng.integers(1, 9)) if t is None else t
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
        grid = _grid(rng, 1 if case < len(WEIGHTS) else None)  # T = 1 at every weight
        alpha, beta = WEIGHTS[case % len(WEIGHTS)]
        cfg = FusionConfig(alpha, beta, width)
        order = ORDERS[(case // len(WEIGHTS)) % len(ORDERS)]
        for model in (None, MODELS[order]):
            got = _nbest(beam_decode, grid, cfg, model)
            want = _nbest(reference_decoder.beam_decode, grid, cfg, model)
            assert got == want, (case, width, cfg, model and model.order)


@pytest.mark.parametrize("width", (1, 2, 3, 7))
def test_beam_decode_equals_reference_on_long_tied_grids(width):
    # coarse logits over up to 30 frames: narrow beams prune prefixes that
    # an extension of their parent re-creates later, and exact score ties
    # fall on the width cut
    rng = np.random.default_rng(2000 + width)
    for case in range(40):
        t = int(rng.integers(10, 31))
        logits = rng.integers(0, 3, size=(t, len(VOCAB))).astype(float)
        if case % 4 == 3:
            logits[rng.random(logits.shape) < 0.2] = -np.inf
            logits[:, 0] = 0.0
        logits -= np.logaddexp.reduce(logits, axis=1, keepdims=True)
        grid = PosteriorGrid(logits)
        alpha, beta = WEIGHTS[case % len(WEIGHTS)]
        cfg = FusionConfig(alpha, beta, width)
        for model in (None, MODELS[ORDERS[case % len(ORDERS)]]):
            got = _nbest(beam_decode, grid, cfg, model)
            want = _nbest(reference_decoder.beam_decode, grid, cfg, model)
            assert got == want, (case, width, cfg, model and model.order)


def test_width_far_above_the_candidates_decodes_in_memory_sized_by_the_beam():
    # every candidate survives each of the 4 frames; the decoder's tables
    # grow with the beam, never with the width (10**6 x V floats is 56 MB)
    rng = np.random.default_rng(2500)
    for case, (alpha, beta) in enumerate(WEIGHTS):
        cfg = FusionConfig(alpha, beta, 10**6)
        grid = _grid(rng, 4)
        for model in (None, MODELS[ORDERS[case % len(ORDERS)]]):
            want = _nbest(reference_decoder.beam_decode, grid, cfg, model)
            tracemalloc.start()
            try:
                got = _nbest(beam_decode, grid, cfg, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want, (case, cfg, model and model.order)
            assert peak < 2**20, (case, peak)


@pytest.mark.parametrize("width", (1, 3, 10, 100))
def test_beam_decode_equals_reference_with_an_lm_lacking_prefixes(width, tmp_path):
    path = tmp_path / "closure.arpa"
    path.write_text(CLOSURE_ARPA, encoding="utf-8")
    model = lm_mod.read_arpa(path)
    assert ("你", "好", "a") in model.tables[3]
    assert not any(g[0] == "你" for g in model.tables[2])
    assert model.tables[1][("你",)][1] is None
    rng = np.random.default_rng(3000 + width)
    for case in range(150):
        t = int(rng.integers(3, 9))
        logits = rng.normal(0.0, 1.0, size=(t, len(VOCAB)))
        logits[:, 5:] += 1.5  # favour 你 and 好
        logp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        alpha, beta = WEIGHTS[2 + case % 2]
        cfg = FusionConfig(alpha, beta, width)
        got = _nbest(beam_decode, PosteriorGrid(logp), cfg, model)
        want = _nbest(reference_decoder.beam_decode, PosteriorGrid(logp), cfg, model)
        assert got == want, (case, width)


@settings(max_examples=60, deadline=None)
@given(model=random_lms(), seed=st.integers(0, 2**32 - 1))
def test_beam_decode_equals_reference_on_random_lm_tables(model, seed):
    rng = np.random.default_rng(seed)
    for case in range(6):
        grid = _grid(rng)
        alpha, beta = WEIGHTS[case % len(WEIGHTS)]
        cfg = FusionConfig(alpha, beta, (1, 3, 10, 100)[case % 4])
        got = _nbest(beam_decode, grid, cfg, model)
        want = _nbest(reference_decoder.beam_decode, grid, cfg, model)
        assert got == want, (case, cfg)


def test_shared_tables_decode_as_a_fresh_model_does():
    # a model's tables fill across decodes; a warm model, its second pass
    # in the other grid order, and an equal fresh model all decode alike
    model = lm_mod.train_kn([lm_mod.tokenize_lm(s) for s in CORPUS], 3)
    rng = np.random.default_rng(4000)
    grids = [_grid(rng) for _ in range(40)]
    cfg = FusionConfig(0.2, 1.0, 30)
    cold = [_nbest(beam_decode, g, cfg, model) for g in grids]
    warm = [_nbest(beam_decode, g, cfg, model) for g in reversed(grids)][::-1]
    fresh = dataclasses.replace(model)
    assert fresh == model and not fresh.decoding_tables
    assert [_nbest(beam_decode, g, cfg, fresh) for g in grids] == cold == warm


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _check_rows(model, cache):
    """Every built row is the recursion's value of each CJK word at the
    row's state. `==` ignores only the sign of a zero, in which a state's
    value may differ from the recursion's and which no log10 sum keeps
    (the `lm` module docstring says why)."""
    for i, state in enumerate(cache.states):
        want = [reference_lm._cond_log10(model, state, w) for w in cache.cjk_words]
        assert cache.rows[i].tolist() == want, state


def test_rows_of_states_reached_before_their_suffix_states(tmp_path):
    path = tmp_path / "closure.arpa"
    path.write_text(CLOSURE_ARPA, encoding="utf-8")
    model = lm_mod.read_arpa(path)
    # a one-wide beam over 你 then 好 reaches "<s> 你" and "你 好", and
    # none of their suffix states
    logits = np.full((2, len(VOCAB)), -5.0)
    logits[[0, 1], [5, 6]] = 5.0
    grid = PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))
    assert beam_decode(grid, VOCAB, FusionConfig(0.2, 1.0, 1), model)[0].text == "你好"
    (cache,) = model.decoding_tables.values()
    assert cache.states == [("<s>",), ("<s>", "你"), ("你", "好")]
    _check_rows(model, cache)
    rng = np.random.default_rng(5000)
    for width in (1, 3, 10, 100):
        beam_decode(_grid(rng), VOCAB, FusionConfig(0.2, 1.0, width), model)
    _check_rows(model, cache)


@settings(max_examples=60, deadline=None)
@given(model=random_lms(), seed=st.integers(0, 2**32 - 1))
def test_rows_built_at_the_deepest_state_first_on_random_lm_tables(model, seed):
    deepest = max(sorted(model.states), key=len)
    cjk_words = tuple(w if w in model.vocabulary else lm_mod.UNK for w in ("你", "好"))
    cache = _LmCache(cjk_words)
    cache.id_of(model, deepest)
    assert cache.states == [deepest]
    _check_rows(model, cache)
    rng = np.random.default_rng(seed)
    for width in (1, 10):
        beam_decode(_grid(rng), VOCAB, FusionConfig(0.2, 1.0, width), model)
    (cache,) = model.decoding_tables.values()
    _check_rows(model, cache)


# -0.0 is left out: the decoder never holds it, since every mass is a sum
# that starts from the empty prefix's +0.0, and a sum is -0.0 only when
# both terms are
_OPERANDS = st.one_of(
    st.just(-np.inf),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-60.0, 0.0),
).map(lambda x: 0.0 if x == 0.0 else x)


@settings(max_examples=3000, deadline=None)
@given(a=_OPERANDS, b=_OPERANDS, equal=st.booleans())
def test_np_logaddexp_equals_scalar_logaddexp_bit_for_bit(a, b, equal):
    # the decoder's exactness rests on this: np.logaddexp over arrays and
    # the scalar max + log1p(exp(min - max)) it replaced agree to the bit
    if equal:
        b = a
    want = _bits(reference_decoder._logaddexp(a, b))
    # near the float64 limits numpy's internal a - b overflows to inf and
    # warns, though the result still agrees; only the bits are under test
    with np.errstate(over="ignore"):
        got = np.logaddexp(np.array([a, b]), np.array([b, a])).tolist()
    assert [_bits(x) for x in got] == [want, want]
