import pytest

from csasr.vocab import (
    BLANK_ID,
    BLANK_TOKEN,
    GraphemeVocab,
    InvalidId,
    MalformedFile,
    UnknownGrapheme,
    build_vocab,
    decode_ids,
    encode,
    load_vocab,
    save_vocab,
    script_of,
)

CJK_SAMPLE = "你我他是好了的在有个这中"


def test_script_of_partitions_units():
    assert script_of(BLANK_TOKEN) == "blank"
    assert script_of(" ") == "separator"
    assert script_of("q") == "latin"
    assert script_of("'") == "latin"
    assert script_of("你") == "cjk"
    with pytest.raises(ValueError):
        script_of("?")


@pytest.mark.parametrize("unit", ["hello", "a'b", "ab", "b'", "你好", ""])
def test_only_single_graphemes_are_units(unit):
    # a string of several letters sorts between "a" and "z" but is no unit
    with pytest.raises(ValueError, match="not a recognized grapheme unit"):
        script_of(unit)
    with pytest.raises(ValueError, match="not a recognized grapheme unit"):
        GraphemeVocab((BLANK_TOKEN, "a", unit))


def test_load_rejects_a_multi_letter_line_at_its_line_number(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text(f"{BLANK_TOKEN}\na\n \nhello\nb\n", encoding="utf-8")
    with pytest.raises(MalformedFile) as err:
        load_vocab(path)
    assert err.value.line_number == 4
    assert "'hello'" in err.value.reason


def test_vocab_requires_blank_first():
    with pytest.raises(ValueError):
        GraphemeVocab(("a", BLANK_TOKEN))
    with pytest.raises(ValueError):
        GraphemeVocab((BLANK_TOKEN, "a", "a"))


def test_build_vocab_layout():
    vocab = build_vocab(["ab 你", "我 cd"])
    assert vocab.units[0] == BLANK_TOKEN
    # 26 letters + space + apostrophe after blank, then code-point order
    assert vocab.units[1:27] == tuple(chr(c) for c in range(ord("a"), ord("z") + 1))
    assert vocab.units[27:29] == (" ", "'")
    cjk_tail = vocab.units[29:]
    assert cjk_tail == tuple(sorted(cjk_tail))
    assert set(cjk_tail) == {"你", "我"}


def test_build_vocab_ignores_corpus_order():
    a = build_vocab(["你 我"])
    b = build_vocab(["我", "你"])
    assert a.units == b.units


def test_build_vocab_rejects_unnormalized_text():
    with pytest.raises(ValueError):
        build_vocab(["Hello"])


def test_encode_decode_round_trip():
    vocab = build_vocab([CJK_SAMPLE])
    text = "ab 你好 don't"
    ids = encode(text, vocab)
    assert decode_ids(ids, vocab) == text
    assert BLANK_ID not in ids


def test_encode_reports_byte_offset_of_unknown():
    vocab = build_vocab([""])
    with pytest.raises(UnknownGrapheme) as info:
        encode("ab好", vocab)
    assert info.value.char == "好"
    assert info.value.byte_offset == 2  # two single-byte letters precede it


def test_decode_rejects_blank_and_out_of_range():
    vocab = build_vocab([""])
    with pytest.raises(InvalidId):
        decode_ids([BLANK_ID], vocab)
    with pytest.raises(InvalidId):
        decode_ids([len(vocab)], vocab)


def test_save_load_round_trip(tmp_path):
    vocab = build_vocab([CJK_SAMPLE, "abc'"])
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    assert load_vocab(path).units == vocab.units
    # first line is the literal blank token
    assert path.read_text(encoding="utf-8").split("\n")[0] == BLANK_TOKEN


def test_load_takes_crlf_line_ends_like_the_other_readers(tmp_path):
    vocab = build_vocab([CJK_SAMPLE, "abc'"])
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    save_vocab(vocab, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert load_vocab(crlf) == load_vocab(lf) == vocab


def test_load_rejects_missing_blank_header(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_vocab(path)
