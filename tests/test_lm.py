import pytest
from hypothesis import given, settings, strategies as st

from csasr.lm import (
    BOS,
    EOS,
    UNK,
    MalformedArpa,
    initial_state,
    perplexity,
    read_arpa,
    score,
    sentence_log10,
    tokenize_lm,
    train_kn,
    write_arpa,
)

CORPUS = [
    "the cat sat",
    "the cat ran",
    "a dog sat",
    "他 说 the cat 很 好",
    "他 说 a dog 很 好",
    "the dog ran",
]


def _tokens(line):
    return tokenize_lm(line)


@pytest.fixture(scope="module")
def trigram():
    return train_kn([_tokens(s) for s in CORPUS], order=3)


def test_tokenizer_splits_latin_words_and_cjk_chars():
    assert tokenize_lm("don't 你好 ok") == ["don't", "你", "好", "ok"]


def test_tokenizer_handles_script_boundary_without_space():
    assert tokenize_lm("ab你cd") == ["ab", "你", "cd"]


def test_tokenizer_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        tokenize_lm("Hello!")


def _event_vocab(model):
    # everything predictable: observed types plus the unknown, minus <s>
    return {g[0] for g in model.tables[1]} - {BOS}


def _context_sum(model, context):
    return sum(10.0 ** score(model, context, w)[0] for w in _event_vocab(model))


def test_every_stored_context_normalizes(trigram):
    contexts = {()} | {g[:-1] for k in (2, 3) for g in trigram.tables[k]}
    for ctx in contexts:
        assert _context_sum(trigram, ctx) == pytest.approx(1.0, abs=1e-9)


def test_unseen_context_normalizes_via_backoff(trigram):
    assert _context_sum(trigram, ("sat", "他")) == pytest.approx(1.0, abs=1e-9)


def test_oov_tokens_map_to_unk(trigram):
    state = initial_state(trigram)
    lp_oov, _ = score(trigram, state, "zebra")
    lp_unk, _ = score(trigram, state, UNK)
    assert lp_oov == lp_unk


def test_unigram_unk_mass_is_positive(trigram):
    logp, bow = trigram.tables[1][(UNK,)]
    assert logp < 0.0
    assert bow is None


def test_bos_is_context_only(trigram):
    logp, bow = trigram.tables[1][(BOS,)]
    assert logp == -99.0
    assert bow is not None


def test_sentence_log10_includes_end_event(trigram):
    sent = _tokens("the cat sat")
    total = sentence_log10(trigram, sent)
    state = initial_state(trigram)
    manual = 0.0
    for tok in sent + [EOS]:
        lp, state = score(trigram, state, tok)
        manual += lp
    assert total == pytest.approx(manual, abs=1e-12)


def test_perplexity_of_certain_corpus_is_one():
    # single repeated unigram event: model predicts it with near certainty
    model = train_kn([["x"]] * 50, order=1)
    assert perplexity(model, [["x"]]) == pytest.approx(
        10.0 ** (-sentence_log10(model, ["x"]) / 2), rel=1e-12
    )


def test_training_rejects_empty_corpus():
    with pytest.raises(ValueError):
        train_kn([], order=2)
    with pytest.raises(ValueError):
        train_kn([["a"]], order=0)


def test_bigram_probability_by_hand():
    # corpus "a a b" x3, n=2. Continuation unigrams: a=2, b=1, </s>=1 (sum 4),
    # D1 = 2/(2+2) = 0.5; bigram counts are all 3 so D2 falls back to 0.5.
    # P(b|a) = (3-0.5)/6 + (0.5*2/6)*((1-0.5)/4) = 0.4375
    model = train_kn([_tokens("a a b")] * 3, order=2)
    lp, _ = score(model, ("a",), "b")
    assert 10.0**lp == pytest.approx(0.4375, abs=1e-12)
    # unseen bigram (b, a): bow(b) * P1(a) = (0.5*1/3) * 0.375 = 0.0625
    lp_backoff, _ = score(model, ("b",), "a")
    assert 10.0**lp_backoff == pytest.approx(0.0625, abs=1e-12)
    assert 2 in model.degenerate_orders and 1 not in model.degenerate_orders


def test_degenerate_count_of_counts_falls_back():
    model = train_kn([_tokens("a b")], order=2)
    assert model.degenerate_orders  # singleton corpus has no n2 anywhere
    assert all(d == 0.5 for k, d in model.discounts.items() if k in model.degenerate_orders)


def test_arpa_round_trip_is_within_write_precision(trigram, tmp_path):
    path = tmp_path / "m.arpa"
    write_arpa(trigram, path)
    back = read_arpa(path)
    assert back.order == trigram.order
    for k in range(1, 4):
        assert back.tables[k].keys() == trigram.tables[k].keys()
        for gram, (logp, bow) in trigram.tables[k].items():
            logp2, bow2 = back.tables[k][gram]
            assert logp2 == pytest.approx(logp, abs=1e-6)
            if bow is None:
                assert bow2 is None
            else:
                assert bow2 == pytest.approx(bow, abs=1e-6)


def test_arpa_round_trip_preserves_scores(trigram, tmp_path):
    path = tmp_path / "m.arpa"
    write_arpa(trigram, path)
    back = read_arpa(path)
    for line in ("the cat sat", "他 很 好", "dog 说"):
        assert sentence_log10(back, _tokens(line)) == pytest.approx(
            sentence_log10(trigram, _tokens(line)), abs=1e-5
        )


def test_arpa_output_is_deterministic(trigram, tmp_path):
    a, b = tmp_path / "a.arpa", tmp_path / "b.arpa"
    write_arpa(trigram, a)
    write_arpa(trigram, b)
    assert a.read_bytes() == b.read_bytes()


def test_read_arpa_rejects_count_mismatch(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3 a\n\n\\end\\\n", encoding="utf-8"
    )
    with pytest.raises(MalformedArpa):
        read_arpa(path)


def test_read_arpa_rejects_missing_end(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3 a\n", encoding="utf-8")
    with pytest.raises(MalformedArpa):
        read_arpa(path)


def test_read_arpa_rejects_garbage_probability(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=1\n\n\\1-grams:\nxyz a\n\n\\end\\\n", encoding="utf-8"
    )
    with pytest.raises(MalformedArpa) as info:
        read_arpa(path)
    assert info.value.line_number == 5


def test_read_arpa_rejects_unigrams_without_unk_at_their_section(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3 a\n-0.3 </s>\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedArpa) as info:
        read_arpa(path)
    assert info.value.line_number == 4
    assert "<unk>" in info.value.reason


def test_read_arpa_rejects_a_repeated_ngram_at_its_second_line(tmp_path):
    # the count header counts the copy, so only the repeat is wrong
    path = tmp_path / "bad.arpa"
    path.write_text(
        "\\data\\\nngram 1=3\nngram 2=2\n\n\\1-grams:\n-0.3 <unk>\n-0.3 a\n-0.3 b\n\n"
        "\\2-grams:\n-0.1 a b\n-0.2 a b\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(MalformedArpa) as info:
        read_arpa(path)
    assert info.value.line_number == 12
    assert info.value.reason == "repeated 2-gram, first at line 11"


@pytest.mark.parametrize(
    "text, line_number, reason",
    [
        (
            "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3 <unk>\n\n\\end\\\n\\1-grams:\n-0.3 a\n",
            8,
            "text after \\end\\: '\\\\1-grams:'",
        ),
        (
            "\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3 <unk>\n\n\\1-grams:\n-0.3 a\n\n\\end\\\n",
            7,
            "second \\1-grams: section",
        ),
        (
            "\\data\\\nngram 1=5\nngram 1=1\n\n\\1-grams:\n-0.3 <unk>\n\n\\end\\\n",
            3,
            "second count for 1-grams",
        ),
    ],
    ids=["text-after-end", "repeated-section", "repeated-count"],
)
def test_read_arpa_rejects_a_second_section_or_count_at_its_line(
    tmp_path, text, line_number, reason
):
    # each of these loaded once, merging the n-grams or taking the last count
    path = tmp_path / "bad.arpa"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedArpa) as info:
        read_arpa(path)
    assert (info.value.line_number, info.value.reason) == (line_number, reason)


def test_read_arpa_takes_an_indented_section_header_after_any_line(tmp_path):
    # right after a 1-gram line it once failed: "expected 2 or 3 fields"
    head = (
        "\\data\\\nngram 1=3\nngram 2=1\n\n"
        "\\1-grams:\n-0.5\t<unk>\n-0.3\ta\t-0.1\n-99\t<s>\n"
    )
    tail = " \\2-grams:\n-0.2\t<s> a\n\n\\end\\\n"
    tight, spaced = tmp_path / "tight.arpa", tmp_path / "spaced.arpa"
    tight.write_text(head + tail, encoding="utf-8")
    spaced.write_text(head + "\n" + tail, encoding="utf-8")
    model = read_arpa(tight)
    assert model == read_arpa(spaced)
    assert model.tables[2] == {(BOS, "a"): (-0.2, None)}


def test_read_arpa_refuses_a_log10_probability_above_0_but_not_a_backoff_weight(tmp_path):
    # a probability above 1 once loaded, and perplexity came out below 1
    head = "\\data\\\nngram 1=2\n\n\\1-grams:\n"
    path = tmp_path / "lm.arpa"
    path.write_text(head + "1.0\t<unk>\n-0.3\ta\n\n\\end\\\n", encoding="utf-8")
    with pytest.raises(MalformedArpa) as info:
        read_arpa(path)
    assert (info.value.line_number, info.value.reason) == (5, "log10 probability 1.0 is above 0")
    path.write_text(head + "-0.0\t<unk>\t0.25\n-0.3\ta\n\n\\end\\\n", encoding="utf-8")
    assert read_arpa(path).tables[1][(UNK,)] == (-0.0, 0.25)


def test_read_arpa_reports_line_1_for_an_empty_file(tmp_path):
    path = tmp_path / "empty.arpa"
    path.write_text("", encoding="utf-8")
    with pytest.raises(MalformedArpa) as info:
        read_arpa(path)
    assert info.value.line_number == 1


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_normalization_holds_on_random_corpora(data):
    words = ["a", "b", "cd", "你", "好"]
    corpus = data.draw(
        st.lists(
            st.lists(st.sampled_from(words), min_size=1, max_size=5),
            min_size=1,
            max_size=8,
        )
    )
    order = data.draw(st.integers(1, 4))
    model = train_kn(corpus, order=order)
    contexts = {()} | {
        g[:-1] for k in range(2, order + 1) for g in model.tables.get(k, {})
    }
    for ctx in contexts:
        assert _context_sum(model, ctx) == pytest.approx(1.0, abs=1e-8)
