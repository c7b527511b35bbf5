import gc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csasr import decoder as decoder_mod
from csasr import lm as lm_mod
from csasr.ctc import PosteriorGrid, ctc_loss
from csasr.decoder import FusionConfig, beam_decode, fused_score, greedy_decode
from csasr.vocab import SCRIPT_LATIN, GraphemeVocab
from conftest import NESTED_RUNS, NESTED_VOCAB, latin_run_grid, nested_lms, random_grid
from reference_decoder import beam_decode as reference_beam_decode, exhaustive_best

EXHAUSTIVE = FusionConfig(alpha=0.2, beta=1.0, beam_width=100_000)
NO_LM = FusionConfig(alpha=0.0, beta=0.0, beam_width=100_000)
TINY = GraphemeVocab(("<blank>", "a", "b", " ", "你"))


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
        assert best.ids == exhaustive_best(grid, tiny_vocab, None, NO_LM)


def test_beam_with_lm_matches_exhaustive_argmax(tiny_vocab):
    corpus = [lm_mod.tokenize_lm(s) for s in ("ab a 你", "a 你 你", "ba ab", "你 a")]
    model = lm_mod.train_kn(corpus, order=1)
    rng = np.random.default_rng(3)
    for _ in range(30):
        grid = random_grid(rng, 4, len(tiny_vocab))
        best = beam_decode(grid, tiny_vocab, EXHAUSTIVE, model)[0]
        assert best.ids == exhaustive_best(grid, tiny_vocab, model, EXHAUSTIVE)


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


CACHE_VOCAB = GraphemeVocab(("<blank>", "a", "b", " ", "你", "好", "他"))
CACHE_CORPUS = ("ab a 你", "a 你 好", "ba ab", "你 a", "ab ab 你好 a", "b 好 ab")
CACHE_CFG = FusionConfig(0.2, 1.0, 100)


def _cache_model():
    return lm_mod.train_kn([lm_mod.tokenize_lm(s) for s in CACHE_CORPUS], order=5)


def _record_lm(monkeypatch):
    """Lists of the (model id, context, word) that `lm.score` sees and of
    the (model id, state, word) of every CJK row element, an `lm.log10`
    call from outside `lm.score` and outside `lm.log10`'s own recursion."""
    calls, rows, inside = [], [], []
    real_score, real_log10 = lm_mod.score, lm_mod.log10

    def recording_score(model, context, token):
        calls.append((id(model), context, token))
        inside.append(True)
        try:
            return real_score(model, context, token)
        finally:
            inside.pop()

    def recording_log10(model, state, w):
        if not inside:
            rows.append((id(model), state, w))
        inside.append(True)
        try:
            return real_log10(model, state, w)
        finally:
            inside.pop()

    monkeypatch.setattr(lm_mod, "score", recording_score)
    monkeypatch.setattr(lm_mod, "log10", recording_log10)
    return calls, rows


def test_lm_cache_scores_each_context_token_pair_once(monkeypatch):
    # 他 is outside the LM's vocabulary, so its column scores as <unk>;
    # two decodes with one model, then one with an equal second model
    model, other = _cache_model(), _cache_model()
    calls, rows = _record_lm(monkeypatch)
    rng = np.random.default_rng(8)
    for m in (model, model, other):
        beam_decode(random_grid(rng, 12, len(CACHE_VOCAB)), CACHE_VOCAB, CACHE_CFG, m)
    assert calls
    assert len(calls) == len(set(calls))
    assert not {token for _, _, token in calls} & {"你", "好", "他"}
    # each model has one table, and no state's row is built twice in it,
    # however many decodes reach that state
    assert len(model.decoding_tables) == len(other.decoding_tables) == 1
    assert {m for m, _, _ in rows} == {id(model), id(other)}
    built = [(state, w) for m, state, w in rows if m == id(model)]
    assert len(built) == len(set(built))
    per_state = Counter(state for state, _ in built)
    assert set(per_state.values()) == {3}  # 你, 好 and <unk> for 他
    assert {len(c) for c in per_state} == {0, 1, 2, 3, 4}


def test_second_decode_with_the_same_model_scores_and_builds_nothing(monkeypatch):
    model = _cache_model()
    calls, rows = _record_lm(monkeypatch)
    grid = random_grid(np.random.default_rng(9), 12, len(CACHE_VOCAB))
    first = beam_decode(grid, CACHE_VOCAB, CACHE_CFG, model, nbest=5)
    assert calls and rows
    calls.clear()
    rows.clear()
    assert beam_decode(grid, CACHE_VOCAB, CACHE_CFG, model, nbest=5) == first
    assert calls == [] and rows == []


def test_equal_models_never_share_a_table(monkeypatch):
    a, b = _cache_model(), _cache_model()
    assert a == b
    calls, rows = _record_lm(monkeypatch)
    grid = random_grid(np.random.default_rng(10), 12, len(CACHE_VOCAB))
    beam_decode(grid, CACHE_VOCAB, CACHE_CFG, a)
    built_by_a = len(rows)
    beam_decode(grid, CACHE_VOCAB, CACHE_CFG, b)
    assert built_by_a and len(rows) == 2 * built_by_a
    (table_a,) = a.decoding_tables.values()
    (table_b,) = b.decoding_tables.values()
    assert table_a is not table_b


def _nested_grids(seed):
    rng = np.random.default_rng(seed)
    return [latin_run_grid(rng, t, NESTED_VOCAB) for t in NESTED_RUNS]


def test_lm_work_is_one_score_per_state_and_word_or_unk(monkeypatch, tmp_path):
    # beams at widths 10 then 100 over runs in the vocabulary, runs outside
    # it that start a word and runs that start none. Each (state, word or
    # <unk>) pair is scored once, however many runs reach <unk> at one LM
    # state; the counts are pinned. A second pass scores nothing and makes
    # no fusion state, and none is ever made twice
    calls, _ = _record_lm(monkeypatch)
    grids = _nested_grids(16)
    for model, pinned in zip(nested_lms(tmp_path), (44, 25)):
        calls.clear()
        for width in (10, 100):
            for grid in grids:
                beam_decode(grid, NESTED_VOCAB, FusionConfig(0.2, 1.0, width), model)
        assert len(calls) == len(set(calls)) == pinned
        (cache,) = model.decoding_tables.values()
        states = cache.run_state[: len(cache.runs)].tolist()
        unk_runs = Counter(
            i for i, run in zip(states, cache.runs) if run != "" and run not in model.vocabulary
        )
        assert max(unk_runs.values()) == 3  # the <unk> state, "ab" and "b"
        assert len(set(zip(states, cache.runs))) == len(cache.runs)
        made = len(cache.runs)
        calls.clear()
        for grid in grids:
            beam_decode(grid, NESTED_VOCAB, FusionConfig(0.2, 1.0, 100), model)
        assert calls == [] and len(cache.runs) == made


def test_every_filled_transition_names_the_fusion_state_it_leads_to(tmp_path):
    # after cold fused decodes over runs in the vocabulary, runs that only
    # start words and runs that start none: a CJK or separator cell names
    # the empty run at the LM state it leads to, and a Latin cell the run
    # one unit longer at the same LM state, or that state's <unk> state
    vocab = NESTED_VOCAB
    latin = [u for v, u in enumerate(vocab.units) if vocab.script_of_id(v) == SCRIPT_LATIN]
    for model in nested_lms(tmp_path):
        for width in (10, 100):
            for grid in _nested_grids(19):
                beam_decode(grid, vocab, FusionConfig(0.2, 1.0, width), model)
        (cache,) = model.decoding_tables.values()
        made = len(cache.runs)
        assert len(cache.latin) >= made
        after = [(i, 0, i) for i in range(len(cache.states))] + [
            (i, 1 + j, cache.ids[lm_mod.state_of(model, state + (word,))])
            for i, state in enumerate(cache.states)
            for j, word in enumerate(cache.cjk_words)
            if cache.next_fid[i, 1 + j] >= 0
        ]
        assert len(after) > len(cache.states)
        for i, col, to in after:
            f = cache.next_fid[i, col]
            assert (cache.runs[f], cache.run_state[f]) == ("", to), (i, col)
        filled = 0
        for f in range(made):
            run, i = cache.runs[f], cache.run_state[f]
            for col, unit in enumerate(latin):
                to = cache.latin[f, col]
                if to < 0:
                    continue
                filled += 1
                if run is None:
                    assert to == f
                else:
                    assert cache.run_state[to] == i
                    assert cache.runs[to] == run + unit or to == cache.unk[i], (run, unit)
        assert filled > made // 2
        assert (cache.latin[made:] == -1).all()


def test_word_bonus_decode_without_an_lm_keeps_two_fusion_states(monkeypatch):
    # without an LM every non-empty run scores 0.0 as <unk>, so a decode's
    # own cache holds the empty run and the <unk> state, however many runs
    # its beams spell
    caches, real = [], decoder_mod._LmCache.of

    def recording_of(model, vocab):
        caches.append(real(model, vocab))
        return caches[-1]

    monkeypatch.setattr(decoder_mod._LmCache, "of", staticmethod(recording_of))
    grids = _nested_grids(17)
    for grid in grids:
        hyps = beam_decode(grid, NESTED_VOCAB, FusionConfig(0.0, 1.0, 100), None)
        assert len({run for h in hyps for run in h.text.split()}) > 10
    assert [cache.runs for cache in caches] == [["", None]] * len(grids)


# the same CJK units, and other Latin units in another order
LATIN_VOCABS = (
    GraphemeVocab(("<blank>", "a", "b", " ", "你", "好")),
    GraphemeVocab(("<blank>", "c", "'", "b", " ", "你", "a", "好")),
)
LATIN_VOCAB_RUNS = (("ab 你 ba", "a 好 bab a"), ("c'a b 你", "ab'c 好 ca b"))


def test_one_table_per_vocabulary_that_differs_in_latin_units(monkeypatch):
    # each vocabulary gets a table of its own, whose `latin` has one column
    # per Latin unit of the vocabulary from its first decode on; every
    # n-best is the reference's, and a second pass calls the LM not at all
    corpus = ("ab a 你", "c'a b 好", "a 你 好 ca", "b'c ab", "ba 好 a")
    model = lm_mod.train_kn([lm_mod.tokenize_lm(s) for s in corpus], order=3)
    rng = np.random.default_rng(18)
    cases = [
        (vocab, latin_run_grid(rng, t, vocab), FusionConfig(0.2, 1.0, width))
        for width in (1, 10, 100)
        for vocab, runs in zip(LATIN_VOCABS, LATIN_VOCAB_RUNS)
        for t in runs
    ]
    want = [reference_beam_decode(grid, vocab, cfg, model) for vocab, grid, cfg in cases]
    calls, _ = _record_lm(monkeypatch)
    for (vocab, grid, cfg), hyps in zip(cases, want):
        assert beam_decode(grid, vocab, cfg, model) == hyps, (vocab, cfg)
        latin = sum(vocab.script_of_id(v) == SCRIPT_LATIN for v in range(len(vocab)))
        assert model.decoding_tables[vocab].latin.shape[1] == latin
    assert calls and list(model.decoding_tables) == list(LATIN_VOCABS)
    calls.clear()
    for (vocab, grid, cfg), hyps in zip(cases, want):
        assert beam_decode(grid, vocab, cfg, model) == hyps, (vocab, cfg)
    assert calls == []


def _record_fusion(monkeypatch):
    """The list that gets one entry per fusion state a decode builds."""
    built, real = [], decoder_mod._Fusion

    def recording_fusion(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(decoder_mod, "_Fusion", recording_fusion)
    return built


@pytest.mark.parametrize("alpha, beta", [(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)])
def test_zero_weight_decode_with_a_model_does_no_fusion_work(monkeypatch, alpha, beta):
    model = _cache_model()
    calls, rows = _record_lm(monkeypatch)
    built = _record_fusion(monkeypatch)
    grid = random_grid(np.random.default_rng(13), 12, len(CACHE_VOCAB))
    cfg = FusionConfig(alpha, beta, 100)
    hyps = beam_decode(grid, CACHE_VOCAB, cfg, model)
    assert calls == [] and rows == [] and built == []
    assert model.decoding_tables == {}
    assert hyps == beam_decode(grid, CACHE_VOCAB, FusionConfig(0.0, 0.0, 100))
    # a prefix scores its total mass: unpruned, that is its CTC marginal
    grid = random_grid(np.random.default_rng(15), 4, len(CACHE_VOCAB))
    for hyp in beam_decode(grid, CACHE_VOCAB, FusionConfig(alpha, beta, 100_000), model):
        assert hyp.score == pytest.approx(-ctc_loss(grid, list(hyp.ids)).loss, abs=1e-9)


@pytest.mark.parametrize("alpha", [0.0, -0.0])
def test_word_bonus_without_lm_weight_decodes_as_without_the_model(monkeypatch, alpha):
    model = _cache_model()
    calls, rows = _record_lm(monkeypatch)
    rng = np.random.default_rng(14)
    cfg = FusionConfig(alpha, 1.0, 100_000)
    for t in (1, 3, 5):
        grid = random_grid(rng, t, len(CACHE_VOCAB))
        hyps = beam_decode(grid, CACHE_VOCAB, cfg, model, nbest=10)
        assert hyps == beam_decode(grid, CACHE_VOCAB, cfg, None, nbest=10)
        # the word bonus is in every score: each telescopes to Q without an LM
        for hyp in hyps:
            ctc_logp = -ctc_loss(grid, list(hyp.ids)).loss
            assert hyp.score == pytest.approx(
                fused_score(hyp.text, ctc_logp, None, cfg), abs=1e-9
            )
    assert calls == [] and rows == []
    assert model.decoding_tables == {}


def test_decoded_model_is_freed_without_a_garbage_collection():
    # the tables on a model hold no reference back to it, so its last
    # reference going frees it and its tables, with no cycle to collect
    gc.disable()
    try:
        model = _cache_model()
        grid = random_grid(np.random.default_rng(11), 12, len(CACHE_VOCAB))
        beam_decode(grid, CACHE_VOCAB, CACHE_CFG, model)
        (table,) = model.decoding_tables.values()
        refs = [weakref.ref(model), weakref.ref(table)]
        del model, table
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


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
    assert best.ids == exhaustive_best(grid, TINY, model, cfg)
