"""Reference oracle: the dict-of-entries prefix beam search csasr shipped
before the array-native rewrite, kept verbatim so the differential test in
test_decoder_differential.py can demand exact equality with it.

Deliberately slow (O(beam x V) Python work per frame); not part of the
package.
"""

from __future__ import annotations

import math

from csasr import lm as lm_mod
from csasr.ctc import PosteriorGrid
from csasr.decoder import FusionConfig, Hypothesis
from csasr.vocab import (
    SCRIPT_CJK,
    SCRIPT_LATIN,
    SCRIPT_SEPARATOR,
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


class _Entry:
    """Per-prefix beam bookkeeping; token fields depend only on the prefix."""

    __slots__ = ("pb", "pnb", "lm_state", "lm_log10", "words", "pending")

    def __init__(self, pb, pnb, lm_state, lm_log10, words, pending):
        self.pb = pb
        self.pnb = pnb
        self.lm_state = lm_state
        self.lm_log10 = lm_log10
        self.words = words
        self.pending = pending

    def total(self) -> float:
        return _logaddexp(self.pb, self.pnb)


def _complete_token(model, lm_state, lm_log10, words, surface):
    if model is not None:
        lp, lm_state = lm_mod.score(model, lm_state, surface)
        lm_log10 += lp
    return lm_state, lm_log10, words + 1


def _extend_bookkeeping(entry: _Entry, unit: str, script: str, model):
    """Token-level fields for the prefix extended by one emitted unit."""
    lm_state, lm_log10, words = entry.lm_state, entry.lm_log10, entry.words
    if script == SCRIPT_LATIN:
        return lm_state, lm_log10, words, entry.pending + unit
    if entry.pending:
        lm_state, lm_log10, words = _complete_token(
            model, lm_state, lm_log10, words, entry.pending
        )
    if script == SCRIPT_CJK:
        lm_state, lm_log10, words = _complete_token(
            model, lm_state, lm_log10, words, unit
        )
    elif script != SCRIPT_SEPARATOR:
        raise ValueError(f"unit {unit!r} has unexpected script {script}")
    return lm_state, lm_log10, words, ""


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
    T, V = grid.logp.shape
    if V != len(vocab):
        raise ValueError(f"grid V={V} does not match vocab size {len(vocab)}")
    units = vocab.units
    scripts = [None] + [vocab.script_of_id(v) for v in range(1, V)]
    init_state = lm_mod.initial_state(model) if model is not None else None
    lm_weight = cfg.alpha * LN10

    def partial_score(item):
        prefix, e = item
        return -(e.total() + lm_weight * e.lm_log10 + cfg.beta * e.words), prefix

    beams: dict[tuple[int, ...], _Entry] = {
        (): _Entry(0.0, NEG_INF, init_state, 0.0, 0, "")
    }
    for t in range(T):
        row = grid.logp[t].tolist()
        nxt: dict[tuple[int, ...], _Entry] = {}

        def successor(prefix, parent: _Entry, extended_by: int | None) -> _Entry:
            e = nxt.get(prefix)
            if e is None:
                if extended_by is None:
                    fields = (
                        parent.lm_state,
                        parent.lm_log10,
                        parent.words,
                        parent.pending,
                    )
                else:
                    fields = _extend_bookkeeping(
                        parent, units[extended_by], scripts[extended_by], model
                    )
                e = _Entry(NEG_INF, NEG_INF, *fields)
                nxt[prefix] = e
            return e

        for prefix, entry in beams.items():
            total = entry.total()
            same = successor(prefix, entry, None)
            same.pb = _logaddexp(same.pb, total + row[0])
            last = prefix[-1] if prefix else None
            if last is not None:
                same.pnb = _logaddexp(same.pnb, entry.pnb + row[last])
            for v in range(1, V):
                mass = (entry.pb if v == last else total) + row[v]
                if mass == NEG_INF:
                    continue
                ext = successor(prefix + (v,), entry, v)
                ext.pnb = _logaddexp(ext.pnb, mass)

        kept = sorted(nxt.items(), key=partial_score)[: cfg.beam_width]
        beams = dict(kept)

    ranked = []
    for prefix, e in beams.items():
        lm_state, lm_log10, words = e.lm_state, e.lm_log10, e.words
        if e.pending:
            lm_state, lm_log10, words = _complete_token(
                model, lm_state, lm_log10, words, e.pending
            )
        q = e.total() + lm_weight * lm_log10 + cfg.beta * words
        ranked.append(Hypothesis(prefix, decode_ids(prefix, vocab), q))
    ranked.sort(key=lambda h: (-h.score, h.ids))
    return ranked[: nbest if nbest is not None else cfg.beam_width]
