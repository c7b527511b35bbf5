"""Greedy and prefix beam search decoding with shallow LM fusion.

The beam objective is Q(Y) = log P_ctc(Y|X) + alpha * ln p_lm(Y) + beta * wc(Y),
with the LM stored base-10 and converted to natural log at this boundary.
The LM term and word bonus are applied once per completed token: a CJK
character on emission, a Latin word when a space or the end of the
utterance terminates it. Partial Latin words therefore carry no bonus,
and the final fused score telescopes to Q evaluated on the whole
transcript.

Beam search layout. `beam_decode` is one CTC prefix beam search core
plus one `_Fusion` state. Prefixes are nodes of a per-decode trie: node
0 is the empty prefix, and every other node is hash-consed from its
(parent node, last unit) pair, so a prefix keeps one node id even after
it was pruned and re-created. The core's beam of K prefixes is a set of
parallel arrays: node, parent node and last unit, and the blank- and
non-blank-ending masses pb/pnb. `_Fusion` keeps, per beam entry, the LM
state id, log10 LM sum and word count, the same three as they are once
the pending Latin run is scored as a word, and that run, the only field
that stays a string. `_Fusion.keep` gives the survivors of a frame their
fields, with one Python pass over the new prefixes alone; its docstring
says how, and why that is exact.

Each frame is a fixed number of whole-beam numpy operations on a K x V
candidate array: column 0 is the prefix itself (pb from total + blank,
pnb from repeating the last unit), column v its extension by unit v
(total + row[v], or pb + row[v] when v repeats the last unit). A prefix
whose parent is in the beam, found as pos[parent] through a node ->
beam-slot array, takes the parent's extension mass into its own pnb,
and that extension is masked out. `_Fusion.scores` adds each
candidate's fused bonus, its log10 sum and word count gathered from
small per-beam tables: the beam's own fields (itself, or a Latin unit,
which only grows the pending run), the completed ones (a separator), or
those plus the CJK row of the LM state, taken from the model's matrix of
rows (without an LM, one zero row). The cut is one partition of all
K x V scores for the width-th best. A score is -inf exactly when its
candidate is dead (no mass) or merged into its child, so when that
threshold is finite the scores at or above it are exactly the top live
candidates. Only when fewer than width candidates are finite (a
decode's first frames, or rows holding -inf) does the cut rank the live
candidates instead: every prefix itself, even at -inf, as the reference
keeps it, and each finite extension. Exact score ties at the cut go to
the smallest prefix, spelled from its candidate index, the only place
besides the returned n-best where prefixes are spelled out as tuples.
Which tied candidates survive is the only thing the order of the beam
could change, so the beam is kept in candidate order, unsorted.

The frame loop makes only calls that do array work. At beam 10 a
frame's arrays hold a few hundred elements, so a numpy call costs about
its fixed dispatch (~0.5 us for a 1-D index, a ufunc or `nonzero`), and
a call that adds its own overhead costs several of them. So a frame
uses no `np.flatnonzero` (3.0 us; `x.nonzero()[0]` is 0.5), no
`np.divmod` of flat candidate indices (3.5 us; the beam slot and unit
of each are gathered from the tables `k_of` and `v_of`), no new
`np.arange` of slot numbers (a slice of one), no `np.partition` wrapper
(a copy, then `ndarray.partition`), no 2-D fancy index where a flat
index or `take` does (the parent merge indexes the flat candidates), no
Python list as an index more than once (it is converted to an array
first), and no live mask while the beam can fill (the mask, its
`nonzero` and the two gathers through it were a tenth of a zero-weight
beam-100 frame). The flat candidate tables depend only on V and their
length, a power of two up to twice the beam (never sized by the width
alone), so `_flat_tables` builds them once per V and length, not once
per decode. They are read-only arrays, so decodes in any number of
threads share them. The fusion state's per-unit tables are built once
per vocabulary too.

Hash-consing. The trie is a dict from key parent * V + unit to node id,
so it costs under a hundred bytes per node reached, whatever V is. Each
frame gives its surviving extensions their nodes in extension order,
one `setdefault` each: a new prefix takes the next id, and one that
re-creates a pruned prefix gets its old node back. That is O(1) per
node at every V. A node x unit child table finds a frame's nodes in one
gather, but holds V cells per node: a 300-frame beam-100 decode at
V = 3,029 peaked at 2.1 GB with one.

Zero weights. A decode drops an LM whose alpha * ln 10 is zero, and one
left with neither an LM nor a word bonus keeps no fusion state
(`_CtcOnly`): the cut ranks the candidate masses themselves, and a
hypothesis scores its total mass. That is exact. Every term left out is
0.0 times a finite log10 sum or word count (the counts do not depend on
the LM), so +0.0 or -0.0, and a mass plus either zero is that mass to
the bit, no mass being -0.0 (see below).

LM states. The fused score needs only p(word | context), so each prefix
carries the id of its LM state (`lm.state_of`), which gives every log10
sum to the bit as the full context would (the `lm` module docstring says
why). A state's CJK row holds `lm.log10` of every CJK unit
(out-of-vocabulary ones as `<unk>`) at that state, rather than one
`lm.score` per unit.
Rows, the state after each CJK unit, and Latin words (one `lm.score` per
state and word) are kept in one `_LmCache` per model, shared by every
decode with that model, so a decode builds only what no earlier one
reached.

This is bit-identical to scoring each candidate separately in Python
(tests/reference_decoder.py): numpy adds, multiplies and compares
float64 exactly as Python floats do, with the same operands in the same
association, and np.logaddexp is max + log1p(exp(min - max)) through
the same libm calls as that scalar code (the two differ only in the
sign of a zero result from a -0.0 operand, and no mass is ever -0.0:
each is a sum that starts from the empty prefix's +0.0). A prefix gets
at most two pnb terms (its own repeat and its parent's extension) and
logaddexp is symmetric, so the merge order cannot change a result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from . import lm as lm_mod
from .ctc import PosteriorGrid, collapse
from .vocab import (
    SCRIPT_CJK,
    SCRIPT_LATIN,
    GraphemeVocab,
    decode_ids,
)

LN10 = math.log(10.0)
NEG_INF = float("-inf")


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = 0.2
    beta: float = 1.0
    beam_width: int = 100

    def __post_init__(self):
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {self.beam_width}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")


@dataclass(frozen=True)
class Hypothesis:
    ids: tuple[int, ...]
    text: str
    score: float


def greedy_decode(grid: PosteriorGrid) -> list[int]:
    """Collapse of the per-frame argmax path."""
    return collapse(np.argmax(grid.logp, axis=1))


def fused_score(
    transcript: str,
    ctc_logp: float,
    model: lm_mod.NGramModel | None,
    cfg: FusionConfig,
) -> float:
    """Q(Y) for a complete transcript; the LM term is dropped when absent."""
    tokens = lm_mod.tokenize_lm(transcript)
    q = ctc_logp + cfg.beta * len(tokens)
    if model is not None:
        q += cfg.alpha * LN10 * lm_mod.tokens_log10(model, tokens)
    return q


class _LmCache:
    """LM tables of one model and one tuple of CJK words, by state id.

    `rows[i]` holds `lm.log10` of each CJK word in order at state i and is
    built when state i is first reached. `next_ids[i, 1 + j]` is the state
    after CJK word j, -1 until asked for; `next_ids[i, 0]` is i itself, the
    state that a unit which completes no CJK token leaves. `steps` maps
    (state id, Latin word) to (log10 p, next state id), a word outside the
    LM vocabulary keyed as `<unk>`, so each pair costs one `lm.score` call.
    Every table is bounded by the model: at most |states| rows, |states| x
    CJK words transitions and |states| x |vocabulary| steps.

    A model keeps one cache per tuple of CJK words in its
    `decoding_tables`, shared by every decode with it; the methods take
    the model as an argument, so the cache holds no reference back to it.
    Without a model each decode makes its own cache with the one state
    `()`, whose row is all zeros and whose every word scores 0.0, which
    leaves the log10 sums exactly at 0.0 as if no LM were applied.
    """

    def __init__(self, cjk_words):
        self.cjk_words = cjk_words
        self.ids: dict = {}
        self.states: list = []
        self.rows = np.zeros((8, len(cjk_words)))
        self.next_ids = np.full((8, 1 + len(cjk_words)), -1)
        self.steps: dict = {}

    @staticmethod
    def of(model, cjk_words) -> _LmCache:
        """The cache that decodes with model and these CJK words use."""
        if model is None:
            return _LmCache(cjk_words)
        cache = model.decoding_tables.get(cjk_words)
        if cache is None:
            cache = model.decoding_tables[cjk_words] = _LmCache(cjk_words)
        return cache

    def id_of(self, model, context) -> int:
        """The id of the state that context is looked up as, its row built
        when the state is new."""
        state = lm_mod.state_of(model, context) if model is not None else ()
        i = self.ids.get(state)
        if i is None:
            i = self.ids[state] = len(self.states)
            self.states.append(state)
            if i == len(self.rows):
                self.rows = np.concatenate([self.rows, np.zeros_like(self.rows)])
                self.next_ids = np.concatenate(
                    [self.next_ids, np.full_like(self.next_ids, -1)]
                )
            self.next_ids[i, 0] = i
            if model is not None:
                self.rows[i] = [lm_mod.log10(model, state, w) for w in self.cjk_words]
        return i

    def step(self, model, i: int, word: str) -> tuple[float, int]:
        """(log10 p(word | state i), next state id)."""
        if model is None:
            return 0.0, i
        if word not in model.vocabulary:
            word = lm_mod.UNK
        key = (i, word)
        hit = self.steps.get(key)
        if hit is None:
            lp, state = lm_mod.score(model, self.states[i], word)
            hit = self.steps[key] = (lp, self.id_of(model, state))
        return hit

    def advance(self, model, i: int, j: int) -> int:
        """The id of the state after CJK word j from state i."""
        k = self.id_of(model, self.states[i] + (self.cjk_words[j],))
        self.next_ids[i, 1 + j] = k
        return k


def _nth(scores: np.ndarray, n: int) -> float:
    """The n-th highest score, or -inf when there are at most n."""
    cut = len(scores) - n
    if cut <= 0:
        return NEG_INF
    part = scores.copy()
    part.partition(cut)
    return part[cut]


def _best(scores: np.ndarray, n: int, spell, threshold: float) -> np.ndarray:
    """Positions of the n highest scores, unordered, threshold being
    `_nth(scores, n)`; exact ties at the cut go to the smallest prefixes,
    spell(positions) giving those."""
    kept = (scores >= threshold).nonzero()[0]
    if len(kept) > n:
        above = kept[scores[kept] > threshold]
        tied = kept[scores[kept] == threshold]
        tied = [i for _, i in sorted(zip(spell(tied), tied.tolist()))]
        kept = np.concatenate([above, np.array(tied[: n - len(above)], dtype=int)])
    return kept


@functools.lru_cache(maxsize=8)
def _unit_tables(vocab: GraphemeVocab):
    """The per-unit tables of a fusion state, built once per vocabulary:
    whether unit v is Latin, the run it adds to a pending word, the column
    of the per-frame log10 and word tables it reads, the column of the LM
    state transitions it takes, and the CJK units in order. Every decode
    with the vocabulary shares them, so they are read-only."""
    units = vocab.units
    scripts = [None] + [vocab.script_of_id(v) for v in range(1, len(units))]
    latin_cols = np.array([s == SCRIPT_LATIN for s in scripts])
    cjk_cols = np.array([s == SCRIPT_CJK for s in scripts])
    cjk_ids = np.flatnonzero(cjk_cols)
    latin_unit = tuple(u if latin else "" for u, latin in zip(units, latin_cols))
    # which column of the per-frame log10 and word tables candidate
    # column v reads: 0 the beam's own fields (the beam itself, or a
    # Latin unit that only grows the pending run), 1 those with the
    # pending word completed (a separator), 2 + j that plus the j-th
    # CJK unit
    log10_col = np.where(latin_cols, 0, 1)
    log10_col[0] = 0
    log10_col[cjk_ids] = 2 + np.arange(len(cjk_ids))
    # the column of the LM state transitions unit v takes: 1 + j for
    # the j-th CJK unit, 0 (the state itself) for every other unit
    next_col = np.where(cjk_cols, log10_col - 1, 0)
    words_col = np.minimum(log10_col, 2)
    for table in (latin_cols, log10_col, words_col, next_col):
        table.flags.writeable = False
    cjk_units = tuple(units[v] for v in cjk_ids)
    return latin_cols, latin_unit, log10_col, words_col, next_col, cjk_units


class _Fusion:
    """The fusion fields of each beam entry (module docstring), in beam
    order. `scores` adds the fused bonus to the K x V candidate masses,
    `keep` gives the survivors their fields, and `final` adds the
    completed terms to the total masses. Without a model every log10
    field stays +0.0."""

    def __init__(self, vocab: GraphemeVocab, cfg: FusionConfig, model):
        (
            self.latin_cols, self.latin_unit, self.log10_col, self.words_col,
            self.next_col, cjk_units,
        ) = _unit_tables(vocab)
        self.lm_weight, self.beta, self.model = cfg.alpha * LN10, cfg.beta, model
        vocabulary = model.vocabulary if model is not None else ()
        self.cache = _LmCache.of(
            model, tuple(u if u in vocabulary else lm_mod.UNK for u in cjk_units)
        )
        self.ctx = np.array([self.cache.id_of(model, (lm_mod.BOS,))])
        self.log10, self.words = np.zeros(1), np.zeros(1)
        self.done_ctx, self.done_log10, self.done_words = self.ctx, self.log10, self.words
        self.pending = [""]

    def scores(self, cand: np.ndarray) -> np.ndarray:
        """The fused partial score of every candidate; each candidate's
        log10 sum and word count are kept for `keep`."""
        done = self.done_log10[:, None]
        rows = self.cache.rows.take(self.done_ctx, axis=0)
        tab = np.concatenate((self.log10[:, None], done, done + rows), axis=1)
        self.cand_log10 = tab.take(self.log10_col, axis=1)
        done = self.done_words[:, None]
        tab = np.concatenate((self.words[:, None], done, done + 1), axis=1)
        self.cand_words = tab.take(self.words_col, axis=1)
        return cand + self.lm_weight * self.cand_log10 + self.beta * self.cand_words

    def keep(self, flat, ks, ext, k_ext, v_ext) -> None:
        """Survivor i is candidate flat[i]: entry ks[i] itself, or for
        i = ext[n] its extension by unit v_ext[n] (k_ext[n] being ks[i]).

        Every survivor first takes its entry's fields, by whole-beam
        gathers, the pending runs with one C-level `itemgetter`; only an
        extension, a new prefix, gets new ones. Its LM state and log10
        sums and word counts come from array lookups. The rest is one
        Python pass over the extensions alone, in ascending order: each
        sets its pending run (the old one plus a Latin unit, or "" after
        a separator or CJK unit), and a run that a Latin unit grew is
        scored as a word through the cache, the scored positions, log10
        values and states collected for the three updates of the
        completed fields. This is exact: a survivor that is its own entry
        keeps its run unchanged and scores nothing, so a pass over all
        survivors would make the same cache calls on the same operands,
        in the same order."""
        model, cache = self.model, self.cache
        base = np.where(self.latin_cols[v_ext], self.ctx[k_ext], self.done_ctx[k_ext])
        cols = self.next_col[v_ext]
        ctx_ext = cache.next_ids[base, cols]
        for j in (ctx_ext < 0).nonzero()[0].tolist():
            ctx_ext[j] = cache.advance(model, int(base[j]), int(cols[j]) - 1)
        ctx, done_ctx = self.ctx[ks], self.done_ctx[ks]
        ctx[ext] = done_ctx[ext] = ctx_ext
        log10 = self.cand_log10.ravel()[flat]
        words = self.cand_words.ravel()[flat]
        done_log10, done_words = self.done_log10[ks], self.done_words[ks]
        done_log10[ext] = log10[ext]
        done_words[ext] = words[ext]

        ks, old = ks.tolist(), self.pending
        pending = list(itemgetter(*ks)(old)) if len(ks) > 1 else [old[ks[0]]]
        latin_unit, step = self.latin_unit, cache.step
        scored, lps, ids = [], [], []
        for j, v, i in zip(ext.tolist(), v_ext.tolist(), ctx_ext.tolist()):
            unit = latin_unit[v]
            if unit:
                pending[j] = run = pending[j] + unit
                lp, i = step(model, i, run)
                scored.append(j)
                lps.append(lp)
                ids.append(i)
            else:
                pending[j] = ""
        if scored:
            scored = np.array(scored)  # one conversion for the three updates
            done_ctx[scored] = ids
            done_log10[scored] += lps
            done_words[scored] += 1
        self.pending = pending
        self.ctx, self.log10, self.words = ctx, log10, words
        self.done_ctx, self.done_log10, self.done_words = done_ctx, done_log10, done_words

    def final(self, totals: np.ndarray) -> np.ndarray:
        """Q of every prefix in the beam, its pending run scored as a word."""
        return totals + self.lm_weight * self.done_log10 + self.beta * self.done_words


class _CtcOnly:
    """The fusion state of a decode with no LM term and no word bonus:
    candidates rank by their CTC mass, and a prefix scores its total mass."""

    scores = final = staticmethod(lambda masses: masses)
    keep = staticmethod(lambda *survivors: None)


@functools.lru_cache(maxsize=16)
def _flat_tables(V: int, slots: int) -> tuple[np.ndarray, ...]:
    """Slot numbers, each slot's first flat K x V candidate index, and the
    beam slot and unit of each flat index, for beams of up to `slots`
    entries. Read-only: every decode with this V shares them."""
    slots_of = np.arange(slots)
    starts_of = slots_of * V
    k_of, v_of = np.divmod(np.arange(slots * V), V)
    for table in (slots_of, starts_of, k_of, v_of):
        table.flags.writeable = False
    return slots_of, starts_of, k_of, v_of


def beam_decode(
    grid: PosteriorGrid,
    vocab: GraphemeVocab,
    cfg: FusionConfig,
    model: lm_mod.NGramModel | None = None,
    nbest: int | None = None,
) -> list[Hypothesis]:
    """Prefix beam search over the grid, ranked by fused score Q.

    Prefixes carry blank-ending and non-blank-ending mass separately;
    pruning keys on the fused partial score. Ties break lexicographically
    by prefix ids, so identical inputs give identical outputs.
    """
    logp = grid.logp
    V = logp.shape[1]
    if V != len(vocab):
        raise ValueError(f"grid V={V} does not match vocab size {len(vocab)}")
    width = cfg.beam_width
    # zero weights do no fusion work ("Zero weights" above)
    if not cfg.alpha * LN10:
        model = None
    fusion = _Fusion(vocab, cfg, model) if model is not None or cfg.beta else _CtcOnly

    # the trie: node n > 0 extends its parent by one unit and is keyed by
    # parent * V + unit; node 0 is the empty prefix ("Hash-consing" above)
    trie: dict[int, int] = {}

    def spell(nodes: np.ndarray) -> list[tuple[int, ...]]:
        keys = [0, *trie]  # node n's key, nodes being numbered in order
        out = []
        for node in nodes.tolist():
            path = []
            while node:
                node, unit = divmod(keys[node], V)
                path.append(unit)
            out.append(tuple(reversed(path)))
        return out

    def spell_candidates(f):
        return [p + (u,) if u else p for p, u in zip(spell(node[k_of[f]]), v_of[f].tolist())]

    # the beam: node, parent node and last unit of each prefix, and its
    # blank- and non-blank-ending masses
    node, par, last = np.zeros(1, int), np.full(1, -1), np.zeros(1, int)
    pb, pnb = np.zeros(1), np.full(1, NEG_INF)
    # beam slot of each node in the beam, -1 elsewhere; the last element
    # stays -1 for the empty prefix's parent (-1)
    pos = np.full(64, -1)
    # the flat candidate tables, for beams of up to len(slots_of) entries
    slots_of = starts_of = k_of = v_of = np.zeros(0, int)

    for row in logp:
        K = len(node)
        if K > len(slots_of):  # a power of two, so that decodes share them
            slots_of, starts_of, k_of, v_of = _flat_tables(V, 1 << K.bit_length())
        slots = slots_of[:K]
        totals = np.logaddexp(pb, pnb)
        row_last = row[last]

        # cand[k, v]: mass of prefix k extended by unit v; a repeat of the
        # last unit only continues from the blank-ending mass. Column 0 is
        # filled with the mass of prefix k itself below.
        cand = totals[:, None] + row
        flat_cand = cand.ravel()
        flat_cand[starts_of[:K] + last] = pb + row_last
        same_pb = totals + row[0]
        same_pnb = pnb + row_last

        # a prefix whose parent is in the beam takes the parent's extension
        # into its own pnb; each prefix gets at most this one extra term.
        # into[k] is that extension's flat candidate index, negative for a
        # prefix whose parent is not in the beam.
        pos[node] = slots
        into = pos[par] * V + last
        pos[node] = -1
        merged = (into >= 0).nonzero()[0]
        if len(merged):
            into = into[merged]
            same_pnb[merged] = np.logaddexp(same_pnb[merged], flat_cand[into])
            flat_cand[into] = NEG_INF
        cand[:, 0] = np.logaddexp(same_pb, same_pnb)
        scores = fusion.scores(cand)

        # the survivors as flat candidate indices, ascending but for ties
        # at the cut ("The cut" above): with a finite threshold, the scores
        # at or above it; else the live candidates, cut if there are more
        # than width
        scores = scores.ravel()
        threshold = _nth(scores, width)
        if threshold != NEG_INF:
            flat = _best(scores, width, spell_candidates, threshold)
        else:
            live = cand != NEG_INF
            live[:, 0] = True
            flat = live.ravel().nonzero()[0]
            if len(flat) > width:
                flat = flat[
                    _best(scores[flat], width, lambda p: spell_candidates(flat[p]), NEG_INF)
                ]
        ks, vs = k_of[flat], v_of[flat]

        # a survivor's masses: pb and pnb of its beam entry's own
        # candidate, or no pb and the candidate mass for an extension (so
        # with column 0 set to the pnbs, pnb is one gather of the ranked
        # candidates); then extensions take their new fields, and each
        # extension's node is hash-consed ("Hash-consing" above)
        ext = vs.nonzero()[0]
        k_ext, v_ext = ks[ext], vs[ext]
        fusion.keep(flat, ks, ext, k_ext, v_ext)
        pb = same_pb[ks]
        pb[ext] = NEG_INF
        cand[:, 0] = same_pnb
        pnb = flat_cand[flat]
        parent_node = node[k_ext]
        node, par, last = node[ks], par[ks], last[ks]
        par[ext] = parent_node
        last[ext] = v_ext
        node[ext] = [
            trie.setdefault(n * V + v, len(trie) + 1)
            for n, v in zip(parent_node.tolist(), v_ext.tolist())
        ]
        if len(trie) >= len(pos) - 1:
            pos = np.full(2 * len(trie) + 2, -1)

    q = fusion.final(np.logaddexp(pb, pnb))
    n = nbest if nbest is not None else width
    top = _best(q, n, lambda ks: spell(node[ks]), _nth(q, n)) if n > 0 else slice(0)
    ranked = sorted(zip((-q[top]).tolist(), spell(node[top])))
    return [Hypothesis(p, decode_ids(p, vocab), -neg_q) for neg_q, p in ranked]
