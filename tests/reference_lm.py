"""Reference oracles, each kept verbatim so test_lm_differential.py can
demand exact equality with it:
- the per-word recursive backoff lookup over full contexts that csasr
  shipped before LM states (with its rolling-context `LmState` and
  `initial_state`, plus `sentence_log10` and `perplexity` on top of it).
  It reads the model's tables and nothing of `csasr.lm` that it checks;
- `train_kn` as it was before it streamed its orders: every order's raw
  counts, adjusted counts, probabilities and backoff weights held at
  once, then every table written.

Not part of the package.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from csasr.lm import BOS, EOS, UNK, NGramModel, NGramTable


@dataclass(frozen=True)
class LmState:
    """Rolling context (at most order-1 tokens) plus the score so far."""

    context: tuple[str, ...]
    log10_total: float = 0.0


def initial_state(model: NGramModel) -> LmState:
    return LmState((BOS,) if model.order > 1 else ())


def _cond_log10(model: NGramModel, context: tuple[str, ...], w: str) -> float:
    entry = model.tables[len(context) + 1].get(context + (w,))
    if entry is not None:
        return entry[0]
    if not context:
        return model.tables[1][(UNK,)][0]
    bow_entry = model.tables[len(context)].get(context)
    bow = bow_entry[1] if bow_entry is not None and bow_entry[1] is not None else 0.0
    return bow + _cond_log10(model, context[1:], w)


def score(model: NGramModel, state: LmState, w: str) -> tuple[float, LmState]:
    """Log10 probability of the next word plus the advanced state."""
    if w not in model.vocabulary:
        w = UNK
    context = state.context[-(model.order - 1) :] if model.order > 1 else ()
    lp = _cond_log10(model, context, w)
    new_context = (context + (w,))[-(model.order - 1) :] if model.order > 1 else ()
    return lp, LmState(new_context, state.log10_total + lp)


def sentence_log10(model: NGramModel, sentence: Sequence) -> float:
    """Sum of token scores given left context, including the end event."""
    state = initial_state(model)
    for token in list(sentence) + [EOS]:
        _, state = score(model, state, token)
    return state.log10_total


def perplexity(model: NGramModel, corpus: Iterable[Sequence]) -> float:
    """10^(-mean log10 prob); `</s>` counts as an event, `<s>` does not."""
    total = 0.0
    n_events = 0
    for sentence in corpus:
        total += sentence_log10(model, sentence)
        n_events += len(sentence) + 1
    if n_events == 0:
        raise ValueError("empty corpus")
    return 10.0 ** (-total / n_events)


def train_kn(corpus: Iterable[Sequence[str]], order: int = 5) -> NGramModel:
    """Interpolated Kneser-Ney with one discount per order.

    Discounts use the Ney/Essen/Kneser estimate D = n1/(n1+2*n2) over the
    count-of-counts of the counts actually used at that order; any order
    where that estimate is undefined or falls outside (0,1) falls back to
    D = 0.5 and is reported in degenerate_orders.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    sentences = [list(s) for s in corpus]
    if not sentences:
        raise ValueError("empty corpus")

    raw: dict[int, Counter] = {k: Counter() for k in range(1, order + 1)}
    for sent in sentences:
        padded = ([BOS] if order > 1 else []) + sent + [EOS]
        for k in range(1, order + 1):
            for i in range(len(padded) - k + 1):
                raw[k][tuple(padded[i : i + k])] += 1

    adjusted: dict[int, dict[tuple[str, ...], int]] = {}
    for k in range(1, order + 1):
        if k == order:
            adj = {g: c for g, c in raw[k].items()}
        else:
            continuation = Counter()
            for gram in raw[k + 1]:
                continuation[gram[1:]] += 1
            adj = {}
            for gram, c in raw[k].items():
                adj[gram] = c if gram[0] == BOS else continuation[gram]
        adj.pop((BOS,), None)
        adjusted[k] = adj

    discounts: dict[int, float] = {}
    degenerate = []
    for k in range(1, order + 1):
        n1 = sum(1 for c in adjusted[k].values() if c == 1)
        n2 = sum(1 for c in adjusted[k].values() if c == 2)
        if n1 > 0 and n2 > 0:
            discounts[k] = n1 / (n1 + 2 * n2)
        else:
            # count-of-counts give no discount in (0,1) at this order
            discounts[k] = 0.5
            degenerate.append(k)

    # linear-domain interpolated probabilities, built bottom-up
    prob: dict[tuple[str, ...], float] = {}
    bows: dict[int, dict[tuple[str, ...], float]] = {}

    d1 = discounts[1]
    total1 = sum(adjusted[1].values())
    prob[(UNK,)] = d1 * len(adjusted[1]) / total1
    for gram, a in adjusted[1].items():
        prob[gram] = (a - d1) / total1

    for k in range(2, order + 1):
        dk = discounts[k]
        ctx_total: Counter = Counter()
        ctx_types: Counter = Counter()
        for gram, a in adjusted[k].items():
            ctx_total[gram[:-1]] += a
            ctx_types[gram[:-1]] += 1
        bows[k - 1] = {
            h: dk * ctx_types[h] / ctx_total[h] for h in ctx_total
        }
        for gram, a in adjusted[k].items():
            h = gram[:-1]
            prob[gram] = (a - dk) / ctx_total[h] + bows[k - 1][h] * prob[gram[1:]]

    tables: dict[int, NGramTable] = {k: {} for k in range(1, order + 1)}
    for k in range(1, order + 1):
        kbows = bows.get(k, {})
        for gram in adjusted[k]:
            tables[k][gram] = (math.log10(prob[gram]), _log10_bow(kbows.get(gram)))
    tables[1][(UNK,)] = (math.log10(prob[(UNK,)]), None)
    if order > 1:
        tables[1][(BOS,)] = (-99.0, _log10_bow(bows.get(1, {}).get((BOS,))))

    return NGramModel(order, tables, discounts, tuple(degenerate))


def _log10_bow(b: float | None) -> float | None:
    return None if b is None else math.log10(b)
