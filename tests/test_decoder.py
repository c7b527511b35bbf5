import copy
import gc
import pickle
import re
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
from conftest import (
    NESTED_RUNS, NESTED_VOCAB, latin_run_grid, nested_lms, random_grid, tables_of,
)
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "alpha, beta, with_lm",
    [(1e308, 1.0, True), (1e308, 1.0, False), (0.0, 1e308, True), (0.0, 1e308, False),
     (-1e308, 0.0, True)],
)
def test_fusion_weights_that_overflow_raise_naming_them(alpha, beta, with_lm):
    # such weights once made numpy warn and returned an empty n-best
    corpus = [lm_mod.tokenize_lm(s) for s in ("ab a 你", "a 你 你", "ba ab")]
    model = lm_mod.train_kn(corpus, order=2) if with_lm else None
    grid = random_grid(np.random.default_rng(11), 6, len(TINY))
    named = re.escape(f"alpha={alpha!r} and beta={beta!r}")
    with pytest.raises(decoder_mod.FusionOverflow, match=named) as info:
        beam_decode(grid, TINY, FusionConfig(alpha, beta, 10), model)
    assert isinstance(info.value, ValueError)
    # weights just as far from 1 that leave every score finite still rank
    assert beam_decode(grid, TINY, FusionConfig(alpha and 1e300, beta and 1e300, 10), model)


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
    assert len(tables_of(model)) == len(tables_of(other)) == 1
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
    (table_a,) = tables_of(a).values()
    (table_b,) = tables_of(b).values()
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
        (cache,) = tables_of(model).values()
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


def _missed_per_frame(monkeypatch):
    """The list that gets, per frame of a fused decode, the set of unit
    classes ("latin" or "cjk") whose transition cells the frame made."""
    frames, keep, after = [], decoder_mod._Fusion.keep, decoder_mod._LmCache.after

    def recording_keep(fusion, *args):
        frames.append(set())
        keep(fusion, *args)

    def recording_after(cache, model, f, v):
        frames[-1].add("latin" if cache.is_latin[v] else "cjk")
        return after(cache, model, f, v)

    monkeypatch.setattr(decoder_mod._Fusion, "keep", recording_keep)
    monkeypatch.setattr(decoder_mod._LmCache, "after", recording_after)
    return frames


def test_every_filled_transition_names_the_fusion_state_it_leads_to(monkeypatch, tmp_path):
    # after cold fused decodes over runs in the vocabulary, runs that only
    # start words and runs that start none: an LM state's <unk> cell names
    # its <unk> state, a CJK or separator cell the empty run at the LM
    # state it leads to, and a Latin cell the run one unit longer at the
    # same LM state, or that state's <unk> state.
    # The first decode has a frame past its first whose survivors miss a
    # Latin and a CJK cell together, both made in the one miss loop
    vocab = NESTED_VOCAB
    latin = [u for v, u in enumerate(vocab.units) if vocab.script_of_id(v) == SCRIPT_LATIN]
    missed = _missed_per_frame(monkeypatch)
    mixed = latin_run_grid(np.random.default_rng(20), "你a", vocab)
    for model in nested_lms(tmp_path):
        missed.clear()
        beam_decode(mixed, vocab, FusionConfig(0.2, 1.0, 10), model)
        assert {"latin", "cjk"} in missed[1:]
        for width in (10, 100):
            for grid in _nested_grids(19):
                beam_decode(grid, vocab, FusionConfig(0.2, 1.0, width), model)
        (cache,) = tables_of(model).values()
        made = len(cache.runs)
        assert len(cache.latin) >= made
        after = [(i, 1, i) for i in range(len(cache.states))] + [
            (i, 2 + j, cache.ids[lm_mod.state_of(model, state + (word,))])
            for i, state in enumerate(cache.states)
            for j, word in enumerate(cache.cjk_words)
            if cache.next_fid[i, 2 + j] >= 0
        ]
        assert len(after) > len(cache.states)
        for i, col, to in after:
            f = cache.next_fid[i, col]
            assert (cache.runs[f], cache.run_state[f]) == ("", to), (i, col)
        unk = [(i, f) for i, f in enumerate(cache.next_fid[: len(cache.states), 0]) if f >= 0]
        assert unk
        for i, f in unk:
            assert (cache.runs[f], cache.run_state[f]) == (None, i), i
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
                    assert cache.runs[to] == run + unit or to == cache.next_fid[i, 0], (run, unit)
        assert filled > made // 2
        assert (cache.latin[made:] == -1).all()


def test_word_bonus_decode_without_an_lm_keeps_two_fusion_states(monkeypatch):
    # without an LM every non-empty run scores 0.0 as <unk>, so the table
    # that every such decode with the vocabulary shares holds the empty run
    # and the <unk> state, however many runs its beams spell
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
        assert tables_of(model)[vocab].latin.shape[1] == latin
    assert calls and list(tables_of(model)) == list(LATIN_VOCABS)
    calls.clear()
    for (vocab, grid, cfg), hyps in zip(cases, want):
        assert beam_decode(grid, vocab, cfg, model) == hyps, (vocab, cfg)
    assert calls == []


def test_word_bonus_decodes_without_an_lm_share_one_table_per_vocabulary(monkeypatch):
    # cold, warm and cold again in the other order, every n-best is the
    # reference's. Equal vocabularies read one table, which only its first
    # decode grows; one with other Latin units gets a table of its own
    rng = np.random.default_rng(19)
    cases = [
        (vocab, latin_run_grid(rng, t, vocab), FusionConfig(0.0, beta, width))
        for width in (1, 3, 10, 100)
        for vocab, runs in zip(LATIN_VOCABS, LATIN_VOCAB_RUNS)
        for t, beta in zip(runs, (1.0, -0.5))
    ]
    want = [reference_beam_decode(grid, vocab, cfg, None) for vocab, grid, cfg in cases]
    decoder_mod._no_lm_table.cache_clear()
    cold = [beam_decode(grid, vocab, cfg) for vocab, grid, cfg in cases]
    warm = [beam_decode(grid, vocab, cfg) for vocab, grid, cfg in cases]
    decoder_mod._no_lm_table.cache_clear()
    reordered = [beam_decode(grid, vocab, cfg) for vocab, grid, cfg in reversed(cases)]
    assert cold == warm == reordered[::-1] == want

    decoder_mod._no_lm_table.cache_clear()
    tables, real_of = [], decoder_mod._LmCache.of
    made, real_add = [], decoder_mod._LmCache._add

    def recording_of(model, vocab):
        tables.append(real_of(model, vocab))
        return tables[-1]

    def recording_add(table, *args):
        made.append(table)
        return real_add(table, *args)

    monkeypatch.setattr(decoder_mod._LmCache, "of", staticmethod(recording_of))
    monkeypatch.setattr(decoder_mod._LmCache, "_add", recording_add)
    vocab, other, cfg = *LATIN_VOCABS, FusionConfig(0.0, 1.0, 100)
    equal = GraphemeVocab(vocab.units)
    assert equal == vocab and equal is not vocab
    grid = latin_run_grid(rng, "ab ba 你 a", vocab)
    beam_decode(grid, vocab, cfg)
    assert made and tables[0].runs == ["", None]
    # the one LM state's row: its <unk> state, its empty run, and after
    # each CJK unit reached the empty run again
    row = tables[0].next_fid[0].tolist()
    assert row[:2] == [1, 0] and set(row[2:]) <= {-1, 0}
    made.clear()
    beam_decode(grid, equal, cfg)
    assert made == [] and tables[1] is tables[0]
    beam_decode(latin_run_grid(rng, "c'a b 好", other), other, cfg)
    assert tables[2] is not tables[0] and tables[2].latin_unit != tables[0].latin_unit
    for table, v in zip(tables, (vocab, equal, other)):
        latin = sum(v.script_of_id(u) == SCRIPT_LATIN for u in range(len(v)))
        assert table.latin.shape[1] == latin
        assert table.next_fid.shape[1] == 2 + len(table.cjk_words)
        for units in (table.is_latin, table.latin_col, table.log10_row, table.words_row):
            assert not units.flags.writeable
            with pytest.raises(ValueError):
                units[0] = 0


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
    assert tables_of(model) == {}
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
    assert tables_of(model) == {}


def test_decoded_model_is_freed_without_a_garbage_collection():
    # the decoder's tables of a model hold no reference back to it, so its
    # last reference going frees it, its registry entry and its tables,
    # with no cycle to collect
    gc.disable()
    try:
        model = _cache_model()
        grid = random_grid(np.random.default_rng(11), 12, len(CACHE_VOCAB))
        beam_decode(grid, CACHE_VOCAB, CACHE_CFG, model)
        (table,) = tables_of(model).values()
        key, refs = id(model), [weakref.ref(model), weakref.ref(table)]
        assert key in decoder_mod._TABLES
        del model, table
        assert [ref() for ref in refs] == [None, None]
        assert key not in decoder_mod._TABLES
    finally:
        gc.enable()


def _nbest_bits(hyps):
    return [(h.ids, h.text, h.score.hex()) for h in hyps]


@pytest.mark.parametrize("duplicate", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_decoded_model_pickles_and_deep_copies_and_its_copy_decodes_alike(duplicate):
    # the decoder keeps a model's tables off the model, so one that has
    # decoded still pickles and deep-copies: the copy is equal, has no
    # tables, and decodes the same n-best cold, to the bit
    model = _cache_model()
    grid = random_grid(np.random.default_rng(12), 12, len(CACHE_VOCAB))
    want = _nbest_bits(beam_decode(grid, CACHE_VOCAB, CACHE_CFG, model, nbest=5))
    assert tables_of(model)
    dup = duplicate(model)
    assert dup == model and dup is not model and tables_of(dup) == {}
    assert _nbest_bits(beam_decode(grid, CACHE_VOCAB, CACHE_CFG, dup, nbest=5)) == want
    (table,) = tables_of(dup).values()
    assert table is not tables_of(model)[CACHE_VOCAB]


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
