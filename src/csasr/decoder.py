"""Greedy and prefix beam search decoding with shallow LM fusion.

The beam objective is Q(Y) = log P_ctc(Y|X) + alpha * ln p_lm(Y) + beta * wc(Y),
with the LM stored base-10 and converted to natural log at this boundary.
The LM term and word bonus are applied once per completed token: a CJK
character on emission, a Latin word when a space or the end of the
utterance terminates it. Partial Latin words therefore carry no bonus,
and the final fused score telescopes to Q evaluated on the whole
transcript.

Beam search layout: the beam of K prefixes is a set of parallel lists
(prefix tuples, blank- and non-blank-ending masses pb/pnb, LM context,
log10 LM sum, word count, pending Latin run). Each frame scores every
candidate at once: a K x (V-1) array holds the mass of each one-unit
extension (total + row[v], or pb + row[v] when v repeats the prefix's last
unit), and each row's LM term comes from the beam's fields with its
pending word completed plus a per-context vector of CJK-unit log10
probabilities. An extension equal to a prefix already in the beam is
folded into that prefix's own candidate and masked out of the array. The
top K are cut with np.partition, keeping every candidate tied at the cut,
and only those are sorted by (-score, prefix) and turned into tuples and
LM states. LM transitions are memoized per decode, so each (context,
token) pair is scored once.

This is bit-identical to scoring each candidate separately in Python:
numpy only adds, multiplies and compares float64, which rounds exactly
as Python floats do, with the same operands in the same association;
every exp and log stays in `math`. A prefix gets at most two pnb terms
(its own repeat and one parent's extension) and `_logaddexp` is
symmetric, so the merge order cannot change a result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


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
        state = lm_mod.initial_state(model)
        for token in tokens:
            _, state = lm_mod.score(model, state, token)
        q += cfg.alpha * LN10 * state.log10_total
    return q


class _LmCache:
    """Per-decode memo of LM transitions, so each (context, token) pair
    costs one `lm.score` call per decode however many beams reach it.

    Without a model every token scores 0.0 and the context stays None,
    which leaves the log10 sums exactly at 0.0 as if no LM were applied.
    """

    def __init__(self, model, units, cjk_cols):
        self.model = model
        self.units = units
        self.cjk_cols = cjk_cols  # boolean mask over ids 1..V-1
        self.steps: dict = {}
        self.rows: dict = {}

    def step(self, context, surface: str):
        """(log10 p(surface | context), next context)."""
        if self.model is None:
            return 0.0, None
        key = (context, surface)
        hit = self.steps.get(key)
        if hit is None:
            lp, state = lm_mod.score(self.model, lm_mod.LmState(context), surface)
            hit = self.steps[key] = (lp, state.context)
        return hit

    def complete(self, context, log10: float, words: int, pending: str):
        """(context, log10 sum, word count) once the pending Latin run is
        scored as a word."""
        if not pending:
            return context, log10, words
        lp, context = self.step(context, pending)
        return context, log10 + lp, words + 1

    def cjk_row(self, context) -> np.ndarray:
        """log10 p(unit | context) at every CJK column, 0.0 elsewhere."""
        row = self.rows.get(context)
        if row is None:
            row = self.rows[context] = np.zeros(len(self.cjk_cols))
            for c in np.flatnonzero(self.cjk_cols):
                row[c] = self.step(context, self.units[c + 1])[0]
        return row


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
    T, V = logp.shape
    if V != len(vocab):
        raise ValueError(f"grid V={V} does not match vocab size {len(vocab)}")
    units = vocab.units
    scripts = np.array([vocab.script_of_id(v) for v in range(1, V)])
    latin_cols = scripts == SCRIPT_LATIN
    cjk_cols = scripts == SCRIPT_CJK
    lm_weight = cfg.alpha * LN10
    width = cfg.beam_width
    cache = _LmCache(model, units, cjk_cols)
    init_context = lm_mod.initial_state(model).context if model is not None else None

    # the beam: prefixes, their blank- and non-blank-ending masses, and
    # their token fields (LM context, log10 LM sum, word count, pending
    # Latin run), which depend only on the prefix
    prefixes = [()]
    pb, pnb = [0.0], [NEG_INF]
    fields = [(init_context, 0.0, 0, "")]

    for t in range(T):
        row_arr = logp[t]
        row = row_arr.tolist()
        K = len(prefixes)
        totals = [_logaddexp(b, nb) for b, nb in zip(pb, pnb)]
        done = [cache.complete(*f) for f in fields]

        # ext[k, v-1]: mass of prefixes[k] + (v,); a repeat of the last
        # unit only continues from the blank-ending mass
        ext = np.add.outer(totals, row_arr[1:])
        lasts = [p[-1] if p else 0 for p in prefixes]
        rep = [k for k in range(K) if lasts[k]]
        rep_last = [lasts[k] for k in rep]
        ext[rep, [v - 1 for v in rep_last]] = [
            pb[k] + row[v] for k, v in zip(rep, rep_last)
        ]

        # an extension that is itself in the beam merges into that beam's
        # own candidate; each prefix gets at most this one extra pnb term
        index = {p: k for k, p in enumerate(prefixes)}
        same_pnb = [NEG_INF] * K
        for k in rep:
            same_pnb[k] = pnb[k] + row[lasts[k]]
            parent = index.get(prefixes[k][:-1])
            if parent is not None:
                col = lasts[k] - 1
                same_pnb[k] = _logaddexp(same_pnb[k], float(ext[parent, col]))
                ext[parent, col] = NEG_INF
        same_pb = [total + row[0] for total in totals]
        same_mass = [_logaddexp(b, nb) for b, nb in zip(same_pb, same_pnb)]

        log10_arr = np.array([f[1] for f in fields])
        words_arr = np.array([f[2] for f in fields])
        cjk_log10 = np.array([cache.cjk_row(d[0]) for d in done])
        ext_log10 = np.where(
            latin_cols, log10_arr[:, None], np.array([[d[1]] for d in done]) + cjk_log10
        )
        ext_words = np.where(
            latin_cols, words_arr[:, None], np.array([[d[2]] for d in done]) + cjk_cols
        )
        same_score = np.array(same_mass) + lm_weight * log10_arr + cfg.beta * words_arr
        ext_score = ext + lm_weight * ext_log10 + cfg.beta * ext_words

        # candidates: every beam's own prefix, then each live extension;
        # everything tied with the width-th best survives to the exact sort
        live = np.flatnonzero(ext != NEG_INF)
        scores = np.concatenate([same_score, ext_score.ravel()[live]])
        if len(scores) > width:
            cut = len(scores) - width
            kept = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
        else:
            kept = np.arange(len(scores))
        ranked = []
        for i, score in zip(kept.tolist(), scores[kept].tolist()):
            if i < K:
                ranked.append((-score, prefixes[i], i, -1))
            else:
                k, c = divmod(int(live[i - K]), V - 1)
                ranked.append((-score, prefixes[k] + (c + 1,), k, c))
        ranked.sort()

        survivors = []
        for _, prefix, k, c in ranked[:width]:
            if c < 0:
                survivors.append((prefix, same_pb[k], same_pnb[k], fields[k]))
                continue
            unit = units[c + 1]
            if latin_cols[c]:
                ctx, log10, n, word = fields[k]
                token_fields = ctx, log10, n, word + unit
            elif cjk_cols[c]:
                ctx = cache.step(done[k][0], unit)[1]
                token_fields = ctx, float(ext_log10[k, c]), done[k][2] + 1, ""
            else:
                token_fields = *done[k], ""
            survivors.append((prefix, NEG_INF, float(ext[k, c]), token_fields))
        prefixes, pb, pnb, fields = zip(*survivors)

    hyps = []
    for prefix, b, nb, token_fields in zip(prefixes, pb, pnb, fields):
        _, log10, n = cache.complete(*token_fields)
        q = _logaddexp(b, nb) + lm_weight * log10 + cfg.beta * n
        hyps.append(Hypothesis(prefix, decode_ids(prefix, vocab), q))
    hyps.sort(key=lambda h: (-h.score, h.ids))
    return hyps[: nbest if nbest is not None else width]
