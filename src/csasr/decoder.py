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
non-blank-ending masses pb/pnb. `_Fusion` keeps three fields per beam
entry: the id of its fusion state (its LM state and pending Latin run,
"LM states" below), and the log10 LM sum and word count of its completed
tokens. `_Fusion.keep` gives the survivors of a frame their fields with
array gathers alone; only a table cell that no decode has filled yet
goes through Python.

Each frame is a fixed number of whole-beam numpy operations on a V x K
candidate array, unit-major: row 0 holds the prefixes themselves (pb
from total + blank, pnb from repeating the last unit), row v their
extensions by unit v (total + row[v], or pb + row[v] when v repeats the
last unit), so candidate (v, k) has the flat index v * K + k. A prefix
whose parent is in the beam, found as pos[parent] through a node ->
beam-slot array, takes the parent's extension mass into its own pnb,
and that extension is masked out; a node outside the beam has a slot so
far below 0 that last * K plus it stays negative, so one `>= 0` test
finds the merges. `_Fusion.scores` adds each candidate's fused bonus,
its log10 sum and word count gathered, one whole row of K per unit,
from small per-beam tables: a log10 table of 2 + C rows of K (C CJK
units) and a word table of 3 rows of K. Row 0 is the beam's own fields
(the prefix itself, or a Latin unit, which only grows the pending run),
row 1 those plus the pending run's scores from its fusion state (a
separator), and rows 2 + j those plus the j-th entry of the completed LM
state's CJK row, taken from the model's matrix of rows (without an LM,
one zero row); the word table's row 2 counts the CJK word. The cut is
one partition of all V x K scores for the width-th best. A score is
-inf exactly when its candidate is dead (no mass) or merged into its
child, so when that threshold is finite the scores at or above it are
exactly the top live candidates. Only when fewer than width candidates
are finite (a decode's first frames, or rows holding -inf) does the cut
rank the live candidates instead: every prefix itself, even at -inf, as
the reference keeps it, and each finite extension. Exact score ties at
the cut go to the smallest prefix, spelled from its candidate index, the
only place besides the returned n-best where prefixes are spelled out as
tuples. Which tied candidates survive is the only thing the order of the
beam could change, so the beam is kept in candidate order, unsorted:
the prefixes themselves first, then extensions by unit, and by beam
slot within a unit.

Hash-consing. The trie is a dict from key parent * V + unit to node id,
so it costs under a hundred bytes per node reached, whatever V is. Each
frame gives its surviving extensions their nodes in extension order,
one `setdefault` each: a new prefix takes the next id, and one that
re-creates a pruned prefix gets its old node back. That is O(1) per
node at every V.

Rejected forms, with their timings in CHANGES.md:
- a K x V candidate array, whose gathers copy one element, not a row;
- in the frame loop, numpy wrappers with their own overhead (`np.divmod`);
- a node x unit child table for hash-consing (2.1 GB at V = 3,029).

Zero weights. A decode drops an LM whose alpha * ln 10 is zero, and one
left with neither an LM nor a word bonus keeps no fusion state
(`_CtcOnly`): the cut ranks the candidate masses themselves, and a
hypothesis scores its total mass. That is exact. Every term left out is
0.0 times a finite log10 sum or word count (the counts do not depend on
the LM), so +0.0 or -0.0, and a mass plus either zero is that mass to
the bit, no mass being -0.0 (see below).

LM states. The fused score needs only p(word | context), so a prefix's
context is kept as its LM state (`lm.state_of`), which gives every log10
sum to the bit as the full context would (the `lm` module docstring says
why). A state's CJK row holds `lm.log10` of every CJK unit
(out-of-vocabulary ones as `<unk>`) at that state, rather than one
`lm.score` per unit. A prefix carries the id of its fusion state: the LM
state before its pending Latin run, and that run, with the run's score
as a word and the LM state after it. So each unit leads from a fusion
state to the next by one table lookup: a Latin unit through a fusion
state x Latin unit table, a separator or a CJK unit through the
completed LM state's transitions, each naming the empty run's fusion
state at the LM state it leads to. Neither is a node x unit table: the
model bounds the states, which decodes share, and a fusion state's Latin
row holds the Latin units alone. Rows, transitions and fusion states
(`_LmCache` gives their bounds) are kept in one table per model and
vocabulary, shared by every decode with both, so a decode builds only
what no earlier one reached, and a decode that reaches nothing new calls
the LM not at all.

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

import numpy as np

from . import lm as lm_mod
from .ctc import PosteriorGrid, collapse
from .vocab import SCRIPT_CJK, SCRIPT_LATIN, GraphemeVocab, decode_ids

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
    """LM tables of one model and one vocabulary: its LM states and the
    fusion states over them, each by id, built once from the vocabulary.
    `cjk_words` are its CJK units in order, each one outside the LM
    vocabulary as `<unk>`; the per-unit tables that `_Fusion` reads come
    from `_unit_tables`.

    `rows[i]` holds `lm.log10` of each CJK word at LM state i, built when
    state i is first reached. Fusion state f is an LM state, `run_state[f]`,
    and the Latin run pending after it, `runs[f]`; `done[f]` is the LM
    state once the run is scored as a word, `log10[f]` its log10
    p(run | state) and `words[f]` the one word it adds. A run outside the
    LM vocabulary scores as `<unk>`. A run that no vocabulary word starts
    with stays `<unk>` as it grows, so all such runs at state i are one
    fusion state, `unk[i]` (run None, made when first reached, -1 before);
    a run that only starts words copies its scores.

    Every transition names a fusion state, -1 until asked for.
    `next_fid[i, 0]` is the empty run at LM state i, made with i, with done
    state i and adding 0.0 and 0.0 (`start` is that of `<s>`'s state), and
    `next_fid[i, 1 + j]` the empty run at the LM state after CJK word j.
    `latin[f, k]` is the fusion state after the k-th Latin unit: f itself
    for a `<unk>` state, else the run one unit longer, made once from its
    one parent f, or the `<unk>` state if no word starts with that run.

    The fusion state of a vocabulary word, and each `<unk>` state, makes
    one `lm.score` call, so each (state, word-or-`<unk>`) pair costs one.
    With S LM states, C CJK words, L Latin units and P non-empty prefixes
    of vocabulary words, the tables hold S x C row entries, S x (1 + C)
    transitions, at most S x (2 + P) fusion states and L `latin` cells per
    fusion state: only `rows` and `next_fid` grow with C, and a fusion
    state costs the same at every V.

    A model keeps one table per vocabulary in its `decoding_tables`,
    shared by every decode with both; the methods take the model as an
    argument, so the table holds no reference back to it. Without a model
    each decode makes its own table with the one state `()`, whose row is
    all zeros and whose every run scores 0.0 as `<unk>`, so that it has
    two fusion states and leaves the log10 sums exactly at 0.0 as if no
    LM were applied.
    """

    def __init__(self, model, vocab: GraphemeVocab):
        (
            self.is_latin, self.latin_unit, self.latin_col, self.log10_row,
            self.words_row, self.next_col, cjk_units,
        ) = _unit_tables(vocab)
        vocabulary = model.vocabulary if model is not None else ()
        self.cjk_words = tuple(u if u in vocabulary else lm_mod.UNK for u in cjk_units)
        # every non-empty prefix of a vocabulary word, mapped to itself so
        # that the fusion states with one run share its string
        self.prefixes = {w[:n]: w[:n] for w in vocabulary for n in range(1, len(w) + 1)}
        self.ids: dict = {}
        self.states: list = []
        self.rows = np.zeros((8, len(self.cjk_words)))
        self.next_fid = np.full((8, 1 + len(self.cjk_words)), -1)
        self.unk: list = []
        self.runs: list = []
        self.run_state, self.done = np.zeros(8, int), np.zeros(8, int)
        self.log10, self.words = np.zeros(8), np.zeros(8)
        self.latin = np.full((8, np.count_nonzero(self.is_latin)), -1, dtype=np.int32)
        self.start = int(self.next_fid[self.id_of(model, (lm_mod.BOS,)), 0])

    @staticmethod
    def of(model, vocab: GraphemeVocab) -> _LmCache:
        """The table that decodes with model and vocab use: the model's
        own for vocab, or without a model a fresh one."""
        if model is None:
            return _LmCache(None, vocab)
        cache = model.decoding_tables.get(vocab)
        if cache is None:
            cache = model.decoding_tables[vocab] = _LmCache(model, vocab)
        return cache

    def id_of(self, model, context) -> int:
        """The id of the LM state that context is looked up as, its row and
        empty-run fusion state made when the state is new."""
        state = lm_mod.state_of(model, context) if model is not None else ()
        i = self.ids.get(state)
        if i is None:
            row = 0.0 if model is None else [lm_mod.log10(model, state, w) for w in self.cjk_words]
            i = self.ids[state] = len(self.states)
            self.states.append(state)
            self.unk.append(-1)
            if i == len(self.rows):
                self.rows, self.next_fid = _doubled(self.rows, 0.0), _doubled(self.next_fid, -1)
            self.rows[i] = row
            self.next_fid[i, 0] = self._add(i, "", 0.0, i, 0.0)
        return i

    def advance(self, model, i: int, j: int) -> int:
        """The fusion state of the empty run after CJK word j at LM state i."""
        k = self.id_of(model, self.states[i] + (self.cjk_words[j],))
        f = self.next_fid[i, 1 + j] = self.next_fid[k, 0]  # id_of may reallocate
        return int(f)

    def extend(self, model, f: int, v: int) -> int:
        """The fusion state after Latin unit v from fusion state f."""
        col = self.latin_col[v]
        to = self.latin[f, col]
        if to < 0:
            run, i = self.runs[f], int(self.run_state[f])
            to = f if run is None else self._run(model, i, run + self.latin_unit[v])
            self.latin[f, col] = to
        return int(to)

    def _run(self, model, i: int, run: str) -> int:
        """The fusion state of LM state i and the non-empty run, new unless
        no word starts with the run."""
        run = self.prefixes.get(run)
        if run is None:
            return self._unk(model, i)
        if run in model.vocabulary:
            lp, state = lm_mod.score(model, self.states[i], run)
            return self._add(i, run, lp, self.id_of(model, state), 1.0)
        u = self._unk(model, i)
        return self._add(i, run, self.log10[u], self.done[u], 1.0)

    def _unk(self, model, i: int) -> int:
        """The fusion state of every run at LM state i that no word starts with."""
        u = self.unk[i]
        if u < 0:
            if model is None:
                lp, state = 0.0, self.states[i]
            else:
                lp, state = lm_mod.score(model, self.states[i], lm_mod.UNK)
            u = self.unk[i] = self._add(i, None, lp, self.id_of(model, state), 1.0)
        return u

    def _add(self, i: int, run, log10: float, done: int, words: float) -> int:
        """A new fusion state's id."""
        f = len(self.runs)
        if f == len(self.done):
            self.run_state, self.done = _doubled(self.run_state, 0), _doubled(self.done, 0)
            self.log10, self.words = _doubled(self.log10, 0.0), _doubled(self.words, 0.0)
            self.latin = _doubled(self.latin, -1)
        self.runs.append(run)
        self.run_state[f], self.done[f], self.log10[f], self.words[f] = i, done, log10, words
        return f


def _doubled(table: np.ndarray, fill) -> np.ndarray:
    """table with as many rows again, filled with fill."""
    return np.concatenate([table, np.full_like(table, fill)])


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
    whether unit v is Latin, the run it adds to a pending word, its column
    of `_LmCache.latin` (the k-th Latin unit's is k), the row of the
    per-frame log10 and word tables it reads, the column of the LM state
    transitions it takes, and the CJK units in order. Every table with the
    vocabulary shares them, so they are read-only."""
    units = vocab.units
    scripts = [None] + [vocab.script_of_id(v) for v in range(1, len(units))]
    is_latin = np.array([s == SCRIPT_LATIN for s in scripts])
    cjk_cols = np.array([s == SCRIPT_CJK for s in scripts])
    cjk_ids = np.flatnonzero(cjk_cols)
    latin_unit = tuple(u if latin else "" for u, latin in zip(units, is_latin))
    latin_col = np.where(is_latin, np.cumsum(is_latin) - 1, 0)
    # which row of the per-frame log10 and word tables candidate row v
    # reads: 0 the beam's own fields (the beam itself, or a Latin unit
    # that only grows the pending run), 1 those with the pending word
    # completed (a separator), 2 + j that plus the j-th CJK unit
    log10_row = np.where(is_latin, 0, 1)
    log10_row[0] = 0
    log10_row[cjk_ids] = 2 + np.arange(len(cjk_ids))
    # the column of the LM state transitions unit v takes: 1 + j for
    # the j-th CJK unit, 0 (the state itself) for every other unit
    next_col = np.where(cjk_cols, log10_row - 1, 0)
    words_row = np.minimum(log10_row, 2)
    for table in (is_latin, latin_col, log10_row, words_row, next_col):
        table.flags.writeable = False
    cjk_units = tuple(units[v] for v in cjk_ids)
    return is_latin, latin_unit, latin_col, log10_row, words_row, next_col, cjk_units


class _Fusion:
    """The fusion fields of each beam entry, in beam order: its fusion
    state id, and the log10 LM sum and word count of its completed
    tokens. Its fusion states and per-unit tables are one `_LmCache`, one
    table per model and vocabulary. `scores` adds the fused bonus to the
    V x K candidate masses, `keep` gives the survivors their fields, and
    `final` adds the completed terms to the total masses.

    An entry's done fields, its sums with the pending run scored as a
    word, are its own plus its fusion state's `log10` and `words`. That is
    exact for an entry with no pending run too, whose state adds 0.0: a
    sum x + 0.0 is x to the bit unless x is -0.0, and no sum here is. Each
    starts at +0.0, and a float sum is -0.0 only when both terms are."""

    def __init__(self, vocab: GraphemeVocab, cfg: FusionConfig, model):
        self.cache = _LmCache.of(model, vocab)
        self.lm_weight, self.beta, self.model = cfg.alpha * LN10, cfg.beta, model
        self.fid = np.full(1, self.cache.start)
        self.log10, self.words = np.zeros(1), np.zeros(1)

    def scores(self, cand: np.ndarray) -> np.ndarray:
        """The fused partial score of every candidate; each candidate's
        log10 sum and word count, and each entry's completed LM state,
        are kept for `keep`."""
        cache, fid = self.cache, self.fid
        self.done_state = cache.done[fid]
        done = self.log10 + cache.log10[fid]
        tab = np.empty((2 + len(cache.cjk_words), len(fid)))
        tab[0], tab[1] = self.log10, done
        np.add(done, cache.rows.take(self.done_state, axis=0).T, out=tab[2:])
        self.cand_log10 = tab.take(cache.log10_row, axis=0)
        done = self.words + cache.words[fid]
        tab = np.empty((3, len(fid)))
        tab[0], tab[1] = self.words, done
        np.add(done, 1, out=tab[2])
        self.cand_words = tab.take(cache.words_row, axis=0)
        # cand + lm_weight * log10 + beta * words, in that association
        scores = self.lm_weight * self.cand_log10
        scores += cand
        scores += self.beta * self.cand_words
        return scores

    def keep(self, flat, ks, ext, k_ext, v_ext) -> None:
        """Survivor i is candidate flat[i]: entry ks[i] itself, or for
        i = ext[n] its extension by unit v_ext[n] (k_ext[n] being ks[i]).

        Every survivor takes its candidate's log10 sum and word count, and
        its entry's fusion state, by whole-beam gathers; an extension then
        takes the fusion state its unit leads to, from `next_fid` at the
        entry's completed LM state, or for a Latin unit from `latin` at the
        entry's fusion state. Only cells not yet filled go through the cache
        in Python, in ascending order, the `next_fid` cells first; a cell
        that two survivors miss in one frame is made by the first alone."""
        model, cache = self.model, self.cache
        fid = self.fid[ks]
        self.log10 = self.cand_log10.ravel()[flat]
        self.words = self.cand_words.ravel()[flat]
        # a Latin unit reads column 0 of `next_fid` here, the completed
        # state's empty run, and takes its fusion state from `latin` below
        base, cols = self.done_state[k_ext], cache.next_col[v_ext]
        fid_ext = cache.next_fid[base, cols]
        for j in (fid_ext < 0).nonzero()[0].tolist():
            fid_ext[j] = cache.advance(model, int(base[j]), int(cols[j]) - 1)
        latin = cache.is_latin[v_ext].nonzero()[0]
        if len(latin):
            f, v = self.fid[k_ext[latin]], v_ext[latin]
            got = cache.latin[f, cache.latin_col[v]]
            for j in (got < 0).nonzero()[0].tolist():
                got[j] = cache.extend(model, int(f[j]), int(v[j]))
            fid_ext[latin] = got
        fid[ext] = fid_ext
        self.fid = fid

    def final(self, totals: np.ndarray) -> np.ndarray:
        """Q of every prefix in the beam, its pending run scored as a word."""
        cache, fid = self.cache, self.fid
        return (
            totals
            + self.lm_weight * (self.log10 + cache.log10[fid])
            + self.beta * (self.words + cache.words[fid])
        )


class _CtcOnly:
    """The fusion state of a decode with no LM term and no word bonus:
    candidates rank by their CTC mass, and a prefix scores its total mass."""

    scores = final = staticmethod(lambda masses: masses)
    keep = staticmethod(lambda *survivors: None)


@functools.lru_cache(maxsize=16)
def _flat_tables(V: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """The beam slot and the unit of each flat index v * K + k of a V x K
    candidate array; its first K slots are the slot numbers. Keyed by the
    exact K, a beam size a decode reached, so that slot and unit stay one
    gather each rather than a division by K. Read-only: every decode, in
    any thread, with this V and beam size shares them."""
    k_of = np.tile(np.arange(K), V)
    v_of = np.repeat(np.arange(V), K)
    for table in (k_of, v_of):
        table.flags.writeable = False
    return k_of, v_of


# the beam slot of a node not in the beam: so far below 0 that last * K plus
# it stays negative
_NOT_IN_BEAM = -(1 << 62)


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
    # beam slot of each node in the beam, _NOT_IN_BEAM elsewhere; the last
    # element stays so for the empty prefix's parent (-1)
    pos = np.full(64, _NOT_IN_BEAM)
    # the flat candidate tables of a beam of len(k_of) // V entries
    k_of = v_of = np.zeros(0, int)

    for row in logp:
        K = len(node)
        if K * V != len(k_of):
            k_of, v_of = _flat_tables(V, K)
        slots = k_of[:K]
        totals = np.logaddexp(pb, pnb)
        row_last = row[last]

        # cand[v, k]: mass of prefix k extended by unit v; a repeat of the
        # last unit only continues from the blank-ending mass. Row 0 is
        # filled with the mass of prefix k itself below.
        cand = row[:, None] + totals
        flat_cand = cand.ravel()
        last_start = last * K
        flat_cand[last_start + slots] = pb + row_last
        same_pb = totals + row[0]
        same_pnb = pnb + row_last

        # a prefix whose parent is in the beam takes the parent's extension
        # into its own pnb; each prefix gets at most this one extra term.
        # into[k] is that extension's flat candidate index, negative for a
        # prefix whose parent is not in the beam.
        pos[node] = slots
        into = last_start + pos[par]
        pos[node] = _NOT_IN_BEAM
        merged = (into >= 0).nonzero()[0]
        if len(merged):
            into = into[merged]
            same_pnb[merged] = np.logaddexp(same_pnb[merged], flat_cand[into])
            flat_cand[into] = NEG_INF
        cand[0] = np.logaddexp(same_pb, same_pnb)
        scores = fusion.scores(cand)

        # the survivors as flat candidate indices, ascending but for ties
        # at the cut: the scores at or above a finite threshold, else the
        # live candidates, cut if there are more than width
        scores = scores.ravel()
        threshold = _nth(scores, width)
        if threshold != NEG_INF:
            flat = _best(scores, width, spell_candidates, threshold)
        else:
            live = cand != NEG_INF
            live[0] = True
            flat = live.ravel().nonzero()[0]
            if len(flat) > width:
                flat = flat[
                    _best(scores[flat], width, lambda p: spell_candidates(flat[p]), NEG_INF)
                ]
        ks, vs = k_of[flat], v_of[flat]

        # a survivor's masses: pb and pnb of its beam entry's own
        # candidate, or no pb and the candidate mass for an extension (so
        # with row 0 set to the pnbs, pnb is one gather of the ranked
        # candidates); then extensions take their new fields, and each
        # extension's node is hash-consed ("Hash-consing" above)
        ext = vs.nonzero()[0]
        k_ext, v_ext = ks[ext], vs[ext]
        fusion.keep(flat, ks, ext, k_ext, v_ext)
        pb = same_pb[ks]
        pb[ext] = NEG_INF
        cand[0] = same_pnb
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
            pos = np.full(2 * len(trie) + 2, _NOT_IN_BEAM)

    q = fusion.final(np.logaddexp(pb, pnb))
    n = nbest if nbest is not None else width
    top = _best(q, n, lambda ks: spell(node[ks]), _nth(q, n)) if n > 0 else slice(0)
    ranked = sorted(zip((-q[top]).tolist(), spell(node[top])))
    return [Hypothesis(p, decode_ids(p, vocab), -neg_q) for neg_q, p in ranked]
