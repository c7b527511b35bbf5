"""run-matrix trains and tests on the frames it synthesizes: its in-memory
corpora equal what `synth` writes and `load_examples` reads back, and it
leaves no feature files behind."""

import pytest

from csasr import cli, synth, training
from csasr.cli import main
from csasr.features import FRAME_MS
from csasr.synth import make_spec, synth_corpus
from csasr.vocab import build_vocab

# run-matrix's corpora: (language, tag)
MATRIX_CORPORA = (
    ("L1", "l1_train"),
    ("L2", "l2_train"),
    ("mixed", "cs_train"),
    ("mixed", "cs_test"),
)


@pytest.mark.parametrize("language,tag", MATRIX_CORPORA)
def test_in_memory_examples_equal_the_written_and_read_back_corpus(tmp_path, language, tag):
    spec = make_spec("abcd", "你我他", feature_dim=6, seed=5)
    vocab = build_vocab(["".join(sorted(spec.templates))])
    transcripts, examples = cli._synth_examples(spec, vocab, language, 9, tag)

    entries = synth_corpus(spec, language, 9, tmp_path, tag=tag)
    read_back = training.load_examples(entries, vocab, tmp_path)

    assert transcripts == [e.transcript for e in entries]
    assert len(examples) == len(read_back) == 9
    for got, want in zip(examples, read_back):
        assert got.frames.shape == want.frames.shape
        assert got.frames.dtype == want.frames.dtype
        assert got.frames.tobytes() == want.frames.tobytes()
        assert got.target == want.target
        assert got.duration_ms == want.duration_ms == got.frames.shape[0] * FRAME_MS
        assert got.language == want.language == language


def test_run_matrix_writes_only_its_artifacts_and_no_feature_files(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run-matrix touched a .feat file")

    monkeypatch.setattr(training, "read_feat", refuse)
    monkeypatch.setattr(synth, "write_feat", refuse)
    out = tmp_path / "matrix"
    argv = [
        "--seed", "0", "--output-dir", str(out), "run-matrix",
        "--latin", "abc", "--cjk", "你我", "--mono-count", "4", "--cs-count", "10",
        "--test-count", "3", "--hidden", "4", "--pretrain-epochs", "1",
        "--finetune-epochs", "1", "--lm-order", "2", "--lm-text-count", "5", "--beam", "2",
    ]
    assert main(argv) == 0
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*"))
    assert written == ["cer_matrix.csv", "config.json", "lm.arpa", "vocab.txt"]
