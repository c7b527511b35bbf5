"""Differential test: the one edit-distance DP (`metrics.align`) against the
two verbatim DPs it replaced (tests/reference_metrics.py).

Equality is exact: the counts and the matched pairs come from the same
table filled in the same `min` order and the same backtrace priority.
"""

import itertools

from hypothesis import given, settings, strategies as st

from csasr import metrics
from csasr.lm import tokenize_lm

import reference_metrics

TOKENS = ("a", "b", "ab", "ba", "b'a", "你", "好", "他")
strings = st.text(alphabet="ab你好 ", max_size=10)
token_lists = st.lists(st.sampled_from(TOKENS), max_size=10)


def _check(a, b):
    d, s, i, dl, pairs = metrics.align(a, b)
    assert (d, s, i, dl) == reference_metrics.edit_distance(a, b)
    assert pairs == reference_metrics.align_pairs(a, b)
    assert metrics.edit_distance(a, b) == (d, s, i, dl)


@settings(max_examples=300, deadline=None)
@given(strings, strings)
def test_align_matches_old_dps_on_strings(a, b):
    _check(a, b)
    _check(list(a), list(b))


@settings(max_examples=300, deadline=None)
@given(token_lists, token_lists)
def test_align_matches_old_dps_on_token_lists(a, b):
    _check(a, b)


def test_align_matches_old_dps_on_every_short_binary_pair():
    words = [
        "".join(w) for n in range(6) for w in itertools.product("ab", repeat=n)
    ]
    for a in words:
        for b in words:
            _check(a, b)


def _old_switch_point_score(reference, hypothesis):
    ref_tokens = tokenize_lm(reference)
    hyp_tokens = tokenize_lm(hypothesis)
    ref_sw = metrics._switch_boundaries(ref_tokens)
    hyp_sw = metrics._switch_boundaries(hyp_tokens)
    pairs = set(reference_metrics.align_pairs(ref_tokens, hyp_tokens))
    hit = sum(
        1
        for i, j in pairs
        if i in ref_sw and j in hyp_sw and (i + 1, j + 1) in pairs
    )
    precision = hit / len(hyp_sw) if hyp_sw else 1.0
    recall = hit / len(ref_sw) if ref_sw else 1.0
    return precision, recall


@settings(max_examples=200, deadline=None)
@given(token_lists, token_lists)
def test_switch_point_score_matches_old_alignment(ref, hyp):
    reference, hypothesis = " ".join(ref), " ".join(hyp)
    assert metrics.switch_point_score(reference, hypothesis) == _old_switch_point_score(
        reference, hypothesis
    )
