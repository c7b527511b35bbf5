import pytest
from hypothesis import given, settings, strategies as st

from csasr.metrics import (
    EmptyReference,
    align,
    cer,
    corpus_cer,
    corpus_wer,
    edit_distance,
    switch_point_score,
    wer,
)
from reference_metrics import recursive_distance


def test_edit_distance_hand_cases():
    assert edit_distance("", "") == (0, 0, 0, 0)
    assert edit_distance("abc", "abc") == (0, 0, 0, 0)
    assert edit_distance("abc", "axc") == (1, 1, 0, 0)
    assert edit_distance("abc", "abxc") == (1, 0, 1, 0)
    assert edit_distance("abc", "ac") == (1, 0, 0, 1)
    assert edit_distance("kitten", "sitting") == (3, 2, 1, 0)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
def test_edit_distance_matches_recursive_oracle(a, b):
    d, s, i, dl = edit_distance(a, b)
    assert d == recursive_distance(a, b)
    assert d == s + i + dl
    # insertions and deletions must account for the length difference
    assert len(b) == len(a) - dl + i


@given(st.text(alphabet="ab", max_size=8), st.text(alphabet="ab", max_size=8))
def test_edit_distance_is_symmetric_in_distance(a, b):
    assert edit_distance(a, b)[0] == edit_distance(b, a)[0]


def test_align_pairs_is_monotone_and_valid():
    a, b = "abcd", "axcd"
    pairs = align(a, b)[4]
    assert all(0 <= i < len(a) and 0 <= j < len(b) for i, j in pairs)
    assert pairs == sorted(pairs)
    assert (0, 0) in pairs and (3, 3) in pairs


def test_cer_strips_spaces_but_keeps_them_in_denominator():
    report = cer("ab cd", "abcd")
    assert report.substitutions + report.insertions + report.deletions == 0
    assert report.reference_length == 5
    assert report.rate == 0.0


def test_cer_counts_cjk_chars_as_units():
    report = cer("你好", "你坏")
    assert (report.substitutions, report.rate) == (1, 50.0)


def test_transposition_costs_two_substitutions():
    report = cer("ab", "ba")
    assert report.substitutions == 2
    assert report.rate == 100.0


def test_cer_of_empty_hypothesis_is_all_deletions():
    report = cer("abc", "")
    assert report.deletions == 3
    assert report.rate == 100.0


def test_cer_rejects_empty_reference():
    with pytest.raises(EmptyReference):
        cer("", "abc")


def test_wer_uses_hybrid_tokens():
    report = wer("the 猫 sat", "the 狗 sat")
    assert report.reference_length == 3
    assert report.substitutions == 1
    assert report.rate == pytest.approx(100.0 / 3)


def test_corpus_rates_pool_counts_not_rates():
    refs = ["aaaa aaaa", "ab"]
    hyps = ["aaaa aaaa", "xy"]
    pooled = corpus_cer(refs, hyps)
    assert pooled.substitutions + pooled.insertions + pooled.deletions == 2
    assert pooled.reference_length == 11
    assert pooled.rate == pytest.approx(100.0 * 2 / 11)
    with pytest.raises(ValueError):
        corpus_cer(["a"], [])


def test_corpus_wer_pools_too():
    pooled = corpus_wer(["a b", "c"], ["a b", "d"])
    assert pooled.reference_length == 3
    assert pooled.substitutions + pooled.insertions + pooled.deletions == 1


def test_switch_score_perfect_hypothesis():
    assert switch_point_score("ab 你 cd", "ab 你 cd") == (1.0, 1.0)


def test_switch_score_missed_switch():
    precision, recall = switch_point_score("ab 你", "ab ab")
    assert recall == 0.0
    assert precision == 1.0  # hypothesis has no switches to be wrong about


def test_switch_score_spurious_switch():
    precision, recall = switch_point_score("ab cd", "ab 你")
    assert precision == 0.0
    assert recall == 1.0


def test_switch_score_vacuous_sides():
    assert switch_point_score("ab cd", "ab cd") == (1.0, 1.0)


def test_switch_score_half_recall_when_one_of_two_missed():
    precision, recall = switch_point_score("ab 你 cd", "ab 你 你")
    assert precision == 1.0
    assert recall == 0.5


def test_switch_score_survives_nearby_errors():
    # one Latin substitution away from the switch still aligns the boundary
    precision, recall = switch_point_score("ab cd 你 ef", "ab cx 你 ef")
    assert precision == 1.0
    assert recall == 1.0
