"""Error-rate metrics: edit distance, CER, WER, switch-point precision/recall.

CER alignment units are single characters (one per CJK ideograph or Latin
letter) with all spaces removed before comparison; the reference length used
as the percent denominator, however, keeps the single inter-token spaces.
Both choices are fixed here so reported numbers are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .lm import tokenize_lm
from .vocab import script_of


class EmptyReference(ValueError):
    """The reference is empty; the rate denominator would be zero."""


@dataclass(frozen=True)
class ErrorRateReport:
    substitutions: int
    insertions: int
    deletions: int
    reference_length: int
    rate: float  # percent


def align(a: Sequence, b: Sequence) -> tuple[int, int, int, int, list[tuple[int, int]]]:
    """Unit-cost alignment of reference a to hypothesis b.

    Returns (distance, substitutions, insertions, deletions, pairs), where
    pairs are the index pairs (i, j) matched or substituted, in order. Ties
    in the backtrace prefer substitution over insertion over deletion.
    """
    n, m = len(a), len(b)
    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row, above = dist[i], dist[i - 1]
        ai = a[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                above[j - 1] + (ai != b[j - 1]),
                row[j - 1] + 1,
                above[j] + 1,
            )

    subs = ins = dels = 0
    pairs = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and j > 0 and dist[i - 1][j - 1] + (a[i - 1] != b[j - 1]) == here:
            subs += a[i - 1] != b[j - 1]
            pairs.append((i - 1, j - 1))
            i, j = i - 1, j - 1
        elif j > 0 and dist[i][j - 1] + 1 == here:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    pairs.reverse()
    return dist[n][m], subs, ins, dels, pairs


def edit_distance(a: Sequence, b: Sequence) -> tuple[int, int, int, int]:
    """(distance, substitutions, insertions, deletions) of `align`."""
    return align(a, b)[:4]


def _report(s: int, i: int, d: int, n: int) -> ErrorRateReport:
    return ErrorRateReport(s, i, d, n, 100.0 * (s + i + d) / n)


def cer(reference: str, hypothesis: str) -> ErrorRateReport:
    """Character error rate in percent.

    Distance is computed on space-stripped characters; the denominator is
    the reference length with its single spaces kept (see module docstring).
    """
    if not reference:
        raise EmptyReference("reference is empty")
    ref_units = [ch for ch in reference if ch != " "]
    hyp_units = [ch for ch in hypothesis if ch != " "]
    _, s, i, d = edit_distance(ref_units, hyp_units)
    return _report(s, i, d, len(reference))


def wer(reference: str, hypothesis: str) -> ErrorRateReport:
    """Token error rate over LM tokens (Latin words and single CJK chars)."""
    ref_tokens = tokenize_lm(reference)
    if not ref_tokens:
        raise EmptyReference("reference has no tokens")
    hyp_tokens = tokenize_lm(hypothesis)
    _, s, i, d = edit_distance(ref_tokens, hyp_tokens)
    return _report(s, i, d, len(ref_tokens))


def _pooled(rate, refs: Sequence[str], hyps: Sequence[str]) -> ErrorRateReport:
    """The edits `rate` counts over every pair, over the summed reference length."""
    if len(refs) != len(hyps):
        raise ValueError("reference and hypothesis counts differ")
    reports = [rate(r, h) for r, h in zip(refs, hyps)]
    return _report(
        sum(r.substitutions for r in reports),
        sum(r.insertions for r in reports),
        sum(r.deletions for r in reports),
        sum(r.reference_length for r in reports),
    )


def corpus_cer(references: Sequence[str], hypotheses: Sequence[str]) -> ErrorRateReport:
    """Pooled CER: total edits over total reference length."""
    return _pooled(cer, references, hypotheses)


def corpus_wer(references: Sequence[str], hypotheses: Sequence[str]) -> ErrorRateReport:
    return _pooled(wer, references, hypotheses)


def _switch_boundaries(tokens: list[str]) -> set[int]:
    scripts = [script_of(tok[0]) for tok in tokens]
    return {i for i in range(len(tokens) - 1) if scripts[i] != scripts[i + 1]}


def switch_point_score(reference: str, hypothesis: str) -> tuple[float, float]:
    """Precision/recall of script-switch boundaries after token alignment.

    A switch point is the boundary between adjacent tokens of different
    scripts. A hypothesis switch counts as correct when the alignment maps
    both tokens around it onto the tokens around a reference switch. With
    no switch points on a side, that side's ratio is vacuously 1.0.
    """
    ref_tokens = tokenize_lm(reference)
    hyp_tokens = tokenize_lm(hypothesis)
    ref_sw = _switch_boundaries(ref_tokens)
    hyp_sw = _switch_boundaries(hyp_tokens)
    pairs = set(align(ref_tokens, hyp_tokens)[4])
    hit = sum(
        1
        for i, j in pairs
        if i in ref_sw and j in hyp_sw and (i + 1, j + 1) in pairs
    )
    precision = hit / len(hyp_sw) if hyp_sw else 1.0
    recall = hit / len(ref_sw) if ref_sw else 1.0
    return precision, recall
