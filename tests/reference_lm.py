"""Reference oracle: the per-word recursive backoff lookup over full
contexts that csasr shipped before LM states, kept verbatim (with its
rolling-context `LmState` and `initial_state`, plus `sentence_log10` and
`perplexity` on top of it) so test_lm_differential.py can demand exact
equality with it. It reads the model's tables and nothing of `csasr.lm`
that it checks.

Not part of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from csasr.lm import BOS, EOS, UNK, NGramModel


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
