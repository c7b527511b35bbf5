"""Differential test: the array-native beam search against the verbatim
dict-based decoder it replaced (tests/reference_decoder.py).

Equality is exact (ids, text and float score of the whole n-best), not
approximate: the rewrite only reorders exact float work.
"""

import dataclasses
import itertools
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csasr import decoder
from csasr import lm as lm_mod
from csasr.ctc import PosteriorGrid, collapse
from csasr.decoder import FusionConfig, _LmCache, beam_decode
from csasr.vocab import GraphemeVocab
from conftest import (
    CLOSURE_ARPA, NESTED_RUNS, NESTED_VOCAB, NESTED_WORDS, latin_run_grid, nested_lms,
    random_lms,
)

import reference_decoder
import reference_lm

WIDTHS = (1, 2, 3, 7, 30, 100)
ORDERS = (1, 2, 3, 5)
VOCAB = GraphemeVocab(("<blank>", "a", "b", "'", " ", "你", "好"))
# a second vocabulary size, with a unit that no LM here knows
SMALL_VOCAB = GraphemeVocab(("<blank>", "a", "b", " ", "们"))
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


def _grid(rng, t=None, vocab=VOCAB) -> PosteriorGrid:
    t = int(rng.integers(1, 9)) if t is None else t
    V = len(vocab)
    kind = rng.integers(4)
    if kind == 0:  # coarse logits: many exactly tied masses
        logits = rng.integers(0, 3, size=(t, V)).astype(float)
    else:
        scale = float(rng.choice([0.5, 1.0, 3.0]))
        logits = rng.normal(0.0, scale, size=(t, V))
    if kind == 2:  # one unit, possibly the blank, never emitted
        logits[:, rng.integers(V)] = -np.inf
    elif kind == 3:  # scattered zero cells, each row keeps one finite cell
        mask = rng.random(logits.shape) < 0.4
        mask[np.arange(t), rng.integers(V, size=t)] = False
        logits[mask] = -np.inf
    return PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))


def _nbest(decode, grid, cfg, model, vocab=VOCAB):
    return [(h.ids, h.text, h.score) for h in decode(grid, vocab, cfg, model)]


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


# the rows of a cut grid, each over coarse logits so that exact score ties
# fall on the width cut: "F" every unit, "B" the blank alone (each prefix
# keeps only itself, so a beam of K < width prefixes has K finite
# candidates out of V x K), "S" the blank and one or two units, and "U" one
# non-blank unit alone (every prefix not ending in it is left at -inf)
CUT_PATTERNS = (
    "B", "FB", "FFB", "FFFB", "FFFFB", "BFB", "UFB", "FUFB", "SSBSU", "FSUSB", "FFUUF", "UUFFB"
)


def _cut_grid(rng, pattern: str) -> PosteriorGrid:
    logits = rng.integers(0, 3, size=(len(pattern), len(VOCAB))).astype(float)
    for row, kind in zip(logits, pattern):
        if kind == "B":
            row[1:] = -np.inf
        elif kind == "S":
            row[1:][rng.permutation(len(VOCAB) - 1) >= int(rng.integers(1, 3))] = -np.inf
        elif kind == "U":
            row[np.arange(len(VOCAB)) != rng.integers(1, len(VOCAB))] = -np.inf
    return PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))


@pytest.mark.parametrize("width", (1, 2, 10, 100))
def test_beam_decode_equals_reference_on_both_paths_of_the_cut(width):
    # frames with fewer than width finite candidates out of more than width
    # (the live filter), with exactly width (the cut on all V x K scores,
    # its threshold the last finite one), and with ties at a finite cut;
    # a width-1 frame always has a finite candidate, so only the cut runs
    rng = np.random.default_rng(6000 + width)
    for case in range(4 * len(CUT_PATTERNS)):
        grid = _cut_grid(rng, CUT_PATTERNS[case % len(CUT_PATTERNS)])
        alpha, beta = WEIGHTS[case % len(WEIGHTS)]
        cfg = FusionConfig(alpha, beta, width)
        for model in (None, MODELS[ORDERS[case % len(ORDERS)]]):
            got = _nbest(beam_decode, grid, cfg, model)
            want = _nbest(reference_decoder.beam_decode, grid, cfg, model)
            assert got == want, (case, width, cfg, model and model.order)


# transcripts whose Latin runs stay pending over many frames: they cross
# blanks, repeated letters and apostrophes, end at a separator, at a CJK
# unit and at the utterance end, and many are outside the LM vocabulary
# (ab, a'b, b'a, ba, a and b are in it), so they score as <unk>
LATIN_RUNS = (
    "abba'b ab", "a'b'ab你", "bb'aa b'a", "ab a'b 你好 baab", "''ab''ba 好", "aab'ba'bb",
    "b'a 你abab'", "ba ab'b a'ba", "好a''a'bb", "ab'ab'ab'ab",
)


def _latin_run_grid(rng, transcript: str) -> PosteriorGrid:
    return latin_run_grid(rng, transcript, VOCAB)


@pytest.mark.parametrize("width", (1, 10, 100))
def test_beam_decode_equals_reference_on_long_latin_runs(width):
    # each grid decodes with a fresh model, first with its LM cache cold,
    # then warm; both give the reference's full n-best
    rng = np.random.default_rng(7000 + width)
    for case in range(2 * len(LATIN_RUNS)):
        grid = _latin_run_grid(rng, LATIN_RUNS[case % len(LATIN_RUNS)])
        alpha, beta = WEIGHTS[2 + case % 2]
        cfg = FusionConfig(alpha, beta, width)
        model = dataclasses.replace(MODELS[ORDERS[case % len(ORDERS)]])
        assert not model.decoding_tables
        cold = _nbest(beam_decode, grid, cfg, model)
        warm = _nbest(beam_decode, grid, cfg, model)
        want = _nbest(reference_decoder.beam_decode, grid, cfg, model)
        assert cold == warm == want, (case, width, cfg, model.order)


def _nested_nbests(decode, grids, cfg, model):
    return [_nbest(decode, g, cfg, model, NESTED_VOCAB) for g in grids]


@pytest.mark.parametrize("width", (1, 10, 100))
def test_beam_decode_equals_reference_on_out_of_vocabulary_runs(width, tmp_path):
    # runs in the vocabulary, runs outside it that start a word ("ab", "b")
    # and runs that start none ("ca", "abca") all reach the beams, at
    # alpha > 0 and alpha < 0, under a KN model and an ARPA with positive
    # backoff weights; a cold model, the same model warm, its pass in the
    # reversed grid order and an equal fresh model all decode alike
    rng = np.random.default_rng(7500 + width)
    grids = [latin_run_grid(rng, t, NESTED_VOCAB) for t in NESTED_RUNS * 2]
    for model in nested_lms(tmp_path):
        assert NESTED_WORDS <= model.vocabulary and not {"ab", "b"} & model.vocabulary
        for alpha, beta in ((0.2, 1.0), (-0.3, 0.5)):
            cfg = FusionConfig(alpha, beta, width)
            want = _nested_nbests(reference_decoder.beam_decode, grids, cfg, model)
            used = dataclasses.replace(model)
            cold = _nested_nbests(beam_decode, grids, cfg, used)
            warm = _nested_nbests(beam_decode, grids, cfg, used)
            backwards = _nested_nbests(beam_decode, grids[::-1], cfg, used)[::-1]
            fresh = _nested_nbests(beam_decode, grids, cfg, dataclasses.replace(model))
            assert cold == warm == backwards == fresh == want, (width, cfg, model.order)
            if width > 1:
                (cache,) = used.decoding_tables.values()
                assert {"a", "abc", "b'"} <= set(cache.runs), cache.runs
                assert {"ab", "b"} <= set(cache.runs) and None in cache.runs
    # the word bonus alone, without an LM
    cfg = FusionConfig(0.0, 1.0, width)
    want = _nested_nbests(reference_decoder.beam_decode, grids, cfg, None)
    assert _nested_nbests(beam_decode, grids, cfg, None) == want


def _prefixes_reached(grid) -> int:
    """The number of prefixes, the empty one included, that some alignment
    of finite cells over the first t frames collapses to, for any t: the
    nodes a beam too wide to prune makes."""
    finite = [np.isfinite(row).nonzero()[0].tolist() for row in grid.logp]
    return len({
        tuple(collapse(path))
        for t in range(len(finite) + 1)
        for path in itertools.product(*finite[:t])
    })


FLAT_TABLES = decoder._flat_tables


def _recorded_flat_tables(monkeypatch) -> list:
    """The (V, K) of every flat table set decodes ask for from now on,
    with the cache emptied, so that each is built under the caller's eye."""
    asked = []

    def recorded(V, K):
        asked.append((V, K))
        return FLAT_TABLES(V, K)

    FLAT_TABLES.cache_clear()
    monkeypatch.setattr(decoder, "_flat_tables", recorded)
    return asked


def test_width_far_above_the_candidates_decodes_in_memory_sized_by_the_beam(monkeypatch):
    # every candidate survives each of the 4 frames; the decoder's tables
    # grow with the beam, never with the width (10**6 x V floats is 56 MB):
    # built under the trace, the flat tables hold at most twice the
    # largest beam, whose prefixes are distinct
    rng = np.random.default_rng(2500)
    for case, (alpha, beta) in enumerate(WEIGHTS):
        cfg = FusionConfig(alpha, beta, 10**6)
        grid = _grid(rng, 4)
        nodes = _prefixes_reached(grid)
        for model in (None, MODELS[ORDERS[case % len(ORDERS)]]):
            want = _nbest(reference_decoder.beam_decode, grid, cfg, model)
            asked = _recorded_flat_tables(monkeypatch)
            tracemalloc.start()
            try:
                got = _nbest(beam_decode, grid, cfg, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got == want, (case, cfg, model and model.order)
            assert peak < 2**20, (case, peak)
            assert max(slots for _, slots in asked) <= 2 * nodes, (case, nodes, asked)


def test_long_large_vocabulary_decode_keeps_no_table_per_node_and_unit():
    # 200 frames at beam 100 over V = 500 reach ~19,000 prefixes: a node x
    # unit table would hold ~190 times one beam x V float array (75 MB).
    # The decode's peak stays within two dozen such arrays
    units = ("<blank>", "a", "b", " ", *(chr(0x4E00 + i) for i in range(496)))
    vocab = GraphemeVocab(units)
    V, width = len(vocab), 100
    rng = np.random.default_rng(2600)
    logits = rng.normal(0.0, 3.0, size=(200, V))
    logits[:, 0] += 4.0
    grid = PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))
    FLAT_TABLES.cache_clear()
    tracemalloc.start()
    try:
        (best,) = beam_decode(grid, vocab, FusionConfig(0.0, 0.0, width), nbest=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(best.ids) > 50
    assert peak < 24 * width * V * 8, peak


def test_fusion_states_cost_the_same_bytes_with_12_and_3000_cjk_units():
    # a Latin-heavy grid, every CJK unit at -inf so that both inventories
    # reach the same prefixes, decoded with a model whose LM states were
    # all made first: what the decode keeps is its fusion states and their
    # Latin transitions, and each costs the same whatever the CJK units
    latin = tuple("abcdefghijklmnopqrstuvwxyz'")
    rng = np.random.default_rng(2700)
    words = ["".join(rng.choice(latin[:8], size=rng.integers(1, 6))) for _ in range(30)]
    corpus = [list(rng.choice(words, size=rng.integers(1, 8))) for _ in range(200)]
    transcript = " ".join(rng.choice(words, size=40))
    logits = latin_run_grid(rng, transcript, GraphemeVocab(("<blank>", *latin, " "))).logp
    cfg = FusionConfig(0.2, 1.0, 30)
    per_state = {}
    for cjk in (12, 3000):
        vocab = GraphemeVocab(("<blank>", *latin, " ", *(chr(0x4E00 + i) for i in range(cjk))))
        cjk_logits = np.full((len(logits), cjk), -np.inf)
        grid = PosteriorGrid(np.concatenate([logits, cjk_logits], axis=1))
        model, other = (lm_mod.train_kn(corpus, order=2) for _ in range(2))
        beam_decode(grid, vocab, cfg, other)  # builds the tables decodes share
        cache = _LmCache.of(model, vocab)
        for state in sorted(model.states):
            cache.id_of(model, state)
        made = len(cache.runs)
        tracemalloc.start()
        try:
            beam_decode(grid, vocab, cfg, model)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        per_state[cjk] = (len(cache.runs) - made, kept / (len(cache.runs) - made))
    (n_small, small), (n_large, large) = per_state[12], per_state[3000]
    assert n_small == n_large > 300, per_state
    # one cell per CJK unit and state would be 24,000 bytes more at 3,000
    assert large == pytest.approx(small, rel=0.05), per_state


def _assert_tables_fresh(asked):
    """Every flat table set that decodes asked for is read-only and holds
    what a fresh build would."""
    for V, K in set(asked):
        fresh = FLAT_TABLES.__wrapped__(V, K)
        for shared, want in zip(FLAT_TABLES(V, K), fresh):
            assert not shared.flags.writeable, (V, K)
            assert np.array_equal(shared, want), (V, K)


# VOCAB's units with the unit classes interleaved: CJK, Latin and separator
# rows alternate, so every class's rows of the per-frame fusion tables are
# gathered out of order
INTERLEAVED_VOCAB = GraphemeVocab(("<blank>", "你", "a", " ", "好", "'", "b"))


@pytest.mark.parametrize("width", (1, 3, 10, 100, 10**6))
def test_beam_decode_equals_reference_with_interleaved_unit_classes(monkeypatch, width):
    # every weight, with and without an LM, cold and warm; from width 10 up
    # the beam outgrows V, so K passes V during the decode
    vocab, V = INTERLEAVED_VOCAB, len(INTERLEAVED_VOCAB)
    rng = np.random.default_rng(8500 + min(width, 1000))
    grids = [_grid(rng, 4 if width == 10**6 else int(rng.integers(3, 9)), vocab) for _ in range(8)]
    if width < 10**6:  # too long for a beam that keeps every prefix
        grids += [latin_run_grid(rng, t, vocab) for t in ("ab 你a'b", "好 ba'a 你")]
    asked = _recorded_flat_tables(monkeypatch)
    for case, (alpha, beta) in enumerate(itertools.product((-0.3, 0.0, 0.2), (0.0, 1.0))):
        cfg = FusionConfig(alpha, beta, width)
        for model in (None, dataclasses.replace(MODELS[ORDERS[case % len(ORDERS)]])):
            want = [_nbest(reference_decoder.beam_decode, g, cfg, model, vocab) for g in grids]
            cold = [_nbest(beam_decode, g, cfg, model, vocab) for g in grids]
            warm = [_nbest(beam_decode, g, cfg, model, vocab) for g in grids]
            assert cold == warm == want, (width, cfg, model and model.order)
    _assert_tables_fresh(asked)
    if width >= 10:
        assert max(K for _, K in asked) > V, asked


def _doubling_grid(rng, t: int, vocab) -> PosteriorGrid:
    """t frames, each with the blank and one unit unlike the last frame's
    finite: every prefix survives, itself and extended, so the live
    candidates and the beam grow every frame and no frame fills it."""
    logits = np.full((t, len(vocab)), -np.inf)
    logits[:, 0] = rng.normal(0.0, 1.0, size=t)
    unit = 0
    for row in logits:
        unit = int(rng.choice([v for v in range(1, len(vocab)) if v != unit]))
        row[unit] = rng.normal(0.0, 1.0)
    return PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))


@pytest.mark.parametrize("width", (5, 40, 10**6))
def test_flat_tables_of_a_beam_that_changes_every_frame_stay_beam_sized(monkeypatch, width):
    # a beam of 1, 2, 4, ... prefixes, less where two extensions spell one
    # prefix: each frame has fewer live candidates than the width (until
    # the width cuts them), so the cut ranks the live ones, and each frame
    # asks for the flat tables of a new beam size. The decode equals the
    # reference, every table it asked for is read-only and fresh, and none
    # holds more than V x (largest beam) entries
    rng = np.random.default_rng(8700 + min(width, 1000))
    for case in range(12):
        vocab = (VOCAB, INTERLEAVED_VOCAB, SMALL_VOCAB)[case % 3]
        V, t = len(vocab), 7
        grid = _doubling_grid(rng, t, vocab)
        largest = min(width, _prefixes_reached(grid))
        cfg = FusionConfig(*WEIGHTS[case % len(WEIGHTS)], width)
        for model in (None, MODELS[ORDERS[case % len(ORDERS)]]):
            want = _nbest(reference_decoder.beam_decode, grid, cfg, model, vocab)
            asked = _recorded_flat_tables(monkeypatch)
            assert _nbest(beam_decode, grid, cfg, model, vocab) == want, (case, width, cfg)
            _assert_tables_fresh(asked)
            if width == 10**6:  # a larger beam in every frame
                Ks = [K for _, K in asked]
                assert len(Ks) == t and Ks == sorted(set(Ks)), asked
            for V_asked, K in asked:
                for table in FLAT_TABLES(V_asked, K):
                    assert table.size <= V * largest, (case, width, K, largest)


class _ScoreFailed(RuntimeError):
    pass


def test_shared_tables_decode_as_fresh_ones(monkeypatch):
    # one sequence of decodes over two vocabulary sizes, every width from
    # one to far above the candidates, with and without an LM; one decode
    # raises mid-grid. Each decode equals the reference, and leaves every
    # V's flat tables as a fresh build would make them
    rng = np.random.default_rng(8000)
    widths = (1, 3, 10, 100, 10**6)
    asked = _recorded_flat_tables(monkeypatch)
    for case in range(60):
        vocab = (VOCAB, SMALL_VOCAB)[case % 2]
        width = widths[(case // 2) % len(widths)]
        grid = _grid(rng, 4 if width == 10**6 else None, vocab)
        cfg = FusionConfig(*WEIGHTS[case % len(WEIGHTS)], width)
        for model in (None, MODELS[ORDERS[case % len(ORDERS)]]):
            got = _nbest(beam_decode, grid, cfg, model, vocab)
            want = _nbest(reference_decoder.beam_decode, grid, cfg, model, vocab)
            assert got == want, (case, width, cfg, model and model.order)
            _assert_tables_fresh(asked)
        if case == 30:
            # a model with a cold cache scores its words through lm.score,
            # which fails on its third call, frames into the grid
            calls = itertools.count(1)
            score = lm_mod.score

            def failing_score(*args):
                if next(calls) == 3:
                    raise _ScoreFailed
                return score(*args)

            grid = _latin_run_grid(rng, LATIN_RUNS[0])
            with monkeypatch.context() as patch:
                patch.setattr(lm_mod, "score", failing_score)
                cold = dataclasses.replace(MODELS[2])
                with pytest.raises(_ScoreFailed):
                    beam_decode(grid, VOCAB, FusionConfig(0.2, 1.0, 10), cold)
            assert next(calls) == 4
            _assert_tables_fresh(asked)


def test_concurrent_decodes_equal_the_reference(monkeypatch):
    # two threads decode different grids, each without an LM and with a
    # model of its own, switching as often as the interpreter allows; the
    # flat tables are dropped first, so that both threads build them
    rng = np.random.default_rng(9000)
    jobs = [
        [(_grid(rng), model) for _ in range(25) for model in (None, own)]
        for own in (dataclasses.replace(MODELS[3]), dataclasses.replace(MODELS[5]))
    ]
    cfg = FusionConfig(0.2, 1.0, 10)
    want = [[_nbest(reference_decoder.beam_decode, g, cfg, m) for g, m in job] for job in jobs]
    got = [None, None]
    start = threading.Barrier(2)

    def run(i):
        start.wait(timeout=30)
        got[i] = [_nbest(beam_decode, g, cfg, m) for g, m in jobs[i]]

    # daemon threads, joined with a timeout, so that a hung decode fails
    # the test rather than the run
    threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)]
    asked = _recorded_flat_tables(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want
    _assert_tables_fresh(asked)


def _fusion_states(cache):
    """Each fusion state of a table as its LM state and pending run."""
    return sorted(
        (cache.states[cache.run_state[f]], run or "", run is None)
        for f, run in enumerate(cache.runs)
    )


def test_two_threads_growing_one_model_table_decode_as_one_thread(tmp_path):
    # both threads decode the 12 nested-fixture grids with one fresh model,
    # or with no model and the shared table of the vocabulary made afresh,
    # so they miss the same cells of its one table at about the same time,
    # switching as often as the interpreter allows
    rng = np.random.default_rng(7600)
    grids = [latin_run_grid(rng, t, NESTED_VOCAB) for t in NESTED_RUNS * 2]
    cfg = FusionConfig(0.2, 1.0, 100)

    def fresh(kn):
        if kn is None:
            decoder._no_lm_table.cache_clear()
            return None
        return dataclasses.replace(kn)

    def table_of(model):
        if model is None:
            return _LmCache.of(None, NESTED_VOCAB)
        (cache,) = model.decoding_tables.values()
        return cache

    interval = sys.getswitchinterval()
    for kn in (nested_lms(tmp_path)[0], None):
        alone = fresh(kn)
        want = _nested_nbests(beam_decode, grids, cfg, alone)
        table = table_of(alone)
        if kn is None:
            assert _fusion_states(table) == [((), "", False), ((), "", True)]
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                shared = fresh(kn)
                got = [None, None]
                start = threading.Barrier(2)

                def run(i):
                    start.wait(timeout=30)
                    got[i] = _nested_nbests(beam_decode, grids, cfg, shared)

                threads = [
                    threading.Thread(target=run, args=(i,), daemon=True) for i in range(2)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                case = (trial, "no LM" if kn is None else "KN")
                assert got == [want, want], case
                assert _fusion_states(table_of(shared)) == _fusion_states(table), case
        finally:
            sys.setswitchinterval(interval)


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
    cache = _LmCache(model, VOCAB)
    cache.id_of(model, deepest)
    # a table is built with the state of <s>, its beam's start
    assert cache.states == list(dict.fromkeys([lm_mod.state_of(model, (lm_mod.BOS,)), deepest]))
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
