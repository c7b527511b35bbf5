import csv
import io
import json
import logging
import os
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

import csasr
from csasr import decoder, training
from csasr import model as model_mod
from csasr.cli import build_parser, main
from csasr.ctc import PosteriorGrid
from csasr.features import SAMPLE_RATE
from csasr.lm import read_arpa
from csasr.training import load_manifest
from csasr.vocab import GraphemeVocab, load_vocab, save_vocab
from writers import write_grid, write_wav

LATIN = "abc"
CJK = "你我"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full synth -> train-lm -> train -> finetune -> decode -> evaluate run."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    vocab_path = root / "vocab.txt"

    def run(*argv):
        assert main(list(argv)) == 0

    for language, count, tag in (
        ("L1", 20, "l1"),
        ("L2", 20, "l2"),
        ("mixed", 24, "cs"),
        ("mixed", 6, "test"),
    ):
        run(
            "--seed", "0", "--output-dir", str(data),
            "synth", "--language", language, "--count", str(count),
            "--latin", LATIN, "--cjk", CJK, "--tag", tag,
            "--vocab-out", str(vocab_path),
        )

    transcripts = root / "lm_text.txt"
    entries = load_manifest(data / "cs_manifest.csv")
    transcripts.write_text(
        "".join(e.transcript + "\n" for e in entries), encoding="utf-8"
    )
    arpa = root / "lm.arpa"
    run("train-lm", "--corpus", str(transcripts), "--order", "3", "--out", str(arpa))

    ckpt = root / "joint.ckpt"
    run(
        "--seed", "0", "train", "--vocab", str(vocab_path),
        "--l1-manifest", str(data / "l1_manifest.csv"),
        "--l2-manifest", str(data / "l2_manifest.csv"),
        "--hidden", "12", "--epochs", "3", "--lr", "0.01", "--out", str(ckpt),
    )

    tuned = root / "tuned.ckpt"
    run(
        "--seed", "0", "finetune", "--vocab", str(vocab_path),
        "--checkpoint", str(ckpt), "--manifest", str(data / "cs_manifest.csv"),
        "--epochs", "2", "--lr", "0.01", "--out", str(tuned),
    )

    hyp = root / "hyp.txt"
    run(
        "decode", "--vocab", str(vocab_path), "--checkpoint", str(tuned),
        "--manifest", str(data / "test_manifest.csv"), "--lm", str(arpa),
        "--beam", "40", "--hyp-out", str(hyp),
    )

    refs = root / "refs.txt"
    test_entries = load_manifest(data / "test_manifest.csv")
    refs.write_text("".join(e.transcript + "\n" for e in test_entries), encoding="utf-8")
    return {
        "root": root, "data": data, "vocab": vocab_path, "arpa": arpa,
        "ckpt": ckpt, "tuned": tuned, "hyp": hyp, "refs": refs,
    }


def test_synth_writes_manifest_vocab_and_config(pipeline):
    manifest = load_manifest(pipeline["data"] / "cs_manifest.csv")
    assert len(manifest) == 24
    assert all((pipeline["data"] / e.path).exists() for e in manifest)
    vocab = load_vocab(pipeline["vocab"])
    assert set(CJK) <= set(vocab.units)
    config = json.loads((pipeline["data"] / "config.json").read_text(encoding="utf-8"))
    assert config["seed"] == 0
    assert config["latin"] == LATIN


def test_trained_lm_is_valid_arpa(pipeline):
    model = read_arpa(pipeline["arpa"])
    assert model.order == 3


def test_train_lm_warns_of_the_orders_whose_discount_fell_back(tmp_path, caplog):
    # one sentence of two words has no count of 2 at any order
    corpus, arpa = tmp_path / "one.txt", tmp_path / "one.arpa"
    corpus.write_text("a b\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="csasr"):
        assert main(["train-lm", "--corpus", str(corpus), "--order", "3", "--out", str(arpa)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "discount fell back to 0.5 at orders [1, 2, 3]"
    ]
    assert read_arpa(arpa).order == 3


def test_perplexity_command_prints_value(pipeline, capsys):
    text = pipeline["root"] / "ppl_input.txt"
    text.write_text("a 你\n", encoding="utf-8")
    assert main([
        "perplexity", "--lm", str(pipeline["arpa"]), "--corpus", str(text)
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("perplexity=")
    assert float(out.split("=")[1]) > 1.0


def test_decode_wrote_one_hypothesis_per_utterance(pipeline):
    hyp_lines = pipeline["hyp"].read_text(encoding="utf-8").splitlines()
    assert len(hyp_lines) == 6


def test_decode_emits_scored_hypotheses(pipeline, capsys):
    rng = np.random.default_rng(0)
    vocab = load_vocab(pipeline["vocab"])
    logits = rng.normal(size=(4, len(vocab)))
    grid = PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))
    grid_path = pipeline["root"] / "one.grid"
    write_grid(grid, grid_path)
    assert main([
        "decode", "--vocab", str(pipeline["vocab"]), "--grid", str(grid_path),
        "--beam", "200", "--nbest", "3",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    scores = [float(line.split("\t")[0]) for line in lines]
    assert scores == sorted(scores, reverse=True)


def test_evaluate_reports_metrics(pipeline, capsys):
    assert main([
        "evaluate", "--ref", str(pipeline["refs"]), "--hyp", str(pipeline["hyp"])
    ]) == 0
    out = capsys.readouterr().out
    tail = {
        line.split("=")[0]: line
        for line in out.splitlines()
        if "=" in line and " " not in line.split("=")[0]
    }
    assert "cer" in tail and "wer" in tail
    assert "switch_precision" in tail
    cer_value = float(tail["cer"].split("=")[1])
    assert 0.0 <= cer_value <= 100.0


def _evaluate(tmp_path, refs: str, hyps: str) -> int:
    ref, hyp = tmp_path / "ref.txt", tmp_path / "hyp.txt"
    ref.write_text(refs, encoding="utf-8")
    hyp.write_text(hyps, encoding="utf-8")
    return main(["evaluate", "--ref", str(ref), "--hyp", str(hyp)])


def test_evaluate_files_of_different_line_counts_exit_2(tmp_path, capsys):
    assert _evaluate(tmp_path, "ab 你\nba\nab\n", "ab\nba\n") == 2
    assert capsys.readouterr().err == (
        "error: line counts differ: 3 references vs 2 hypotheses\n"
    )


def test_evaluate_empty_files_exit_2(tmp_path, capsys):
    assert _evaluate(tmp_path, "", "") == 2
    assert "no references" in capsys.readouterr().err


def test_evaluate_empty_reference_line_exits_2_naming_it(tmp_path, capsys):
    assert _evaluate(tmp_path, "ab 你\n\nba\n", "ab\nab\nba\n") == 2
    assert "line 2: reference is empty" in capsys.readouterr().err


def test_evaluate_reference_outside_inventory_exits_2_naming_it(tmp_path, capsys):
    assert _evaluate(tmp_path, "ab\nHello\n", "ab\nab\n") == 2
    err = capsys.readouterr().err
    assert "ref.txt: line 2: unexpected character 'H'" in err


def test_evaluate_hypothesis_outside_inventory_exits_2_naming_it(tmp_path, capsys):
    assert _evaluate(tmp_path, "ab 你\nba\n", "X1\nba\n") == 2
    err = capsys.readouterr().err
    assert "hyp.txt: line 1: unexpected character 'X'" in err


def test_missing_file_exits_2(tmp_path, capsys):
    code = main([
        "decode", "--vocab", str(tmp_path / "nope.txt"), "--grid", str(tmp_path / "g")
    ])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2(pipeline, capsys):
    code = main(["train", "--vocab", str(pipeline["vocab"]), "--out", "x.ckpt"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command, sources",
    [
        ("train", ["--manifest", "cs", "--l1-manifest", "l1"]),
        ("train", ["--manifest", "cs", "--l1-manifest", "l1", "--l2-manifest", "l2"]),
        ("train", ["--l1-manifest", "l1"]),
        ("train", ["--l2-manifest", "l2"]),
        ("decode", ["--grid", "grid", "--checkpoint", "tuned"]),
        ("decode", ["--grid", "grid", "--manifest", "test"]),
        ("decode", ["--grid", "grid", "--checkpoint", "tuned", "--manifest", "test"]),
        ("decode", ["--checkpoint", "tuned"]),
        ("decode", ["--manifest", "test"]),
        ("decode", []),
    ],
)
def test_not_exactly_one_input_source_exits_2_and_writes_nothing(
    pipeline, tmp_path, capsys, command, sources
):
    data = pipeline["data"]
    vocab_size = len(load_vocab(pipeline["vocab"]))
    grid = tmp_path / "uniform.grid"
    write_grid(PosteriorGrid(np.full((3, vocab_size), -np.log(vocab_size))), grid)
    paths = {
        "cs": data / "cs_manifest.csv",
        "l1": data / "l1_manifest.csv",
        "l2": data / "l2_manifest.csv",
        "test": data / "test_manifest.csv",
        "tuned": pipeline["tuned"],
        "grid": grid,
    }
    out = tmp_path / "out"
    rest = [str(paths.get(arg, arg)) for arg in sources]
    if command == "train":
        rest += ["--out", str(out), "--epochs", "1"]
    else:
        rest += ["--hyp-out", str(out)]
    for vocab in (pipeline["vocab"], tmp_path / "absent.txt"):  # checked first
        assert main([command, "--vocab", str(vocab)] + rest) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: provide either --")
        assert captured.out == ""
        assert not out.exists()


@pytest.mark.parametrize("path", ["dir", "nodir/out"])
@pytest.mark.parametrize("command", ["train", "finetune", "decode", "train-lm", "synth"])
def test_output_path_that_cannot_be_a_file_exits_2_before_any_work(
    pipeline, tmp_path, capsys, caplog, command, path
):
    # once, train and finetune ran every epoch and decode printed every
    # hypothesis before failing to write
    (tmp_path / "dir").mkdir()
    out = str(tmp_path / path)
    vocab, data = str(pipeline["vocab"]), pipeline["data"]
    argv = {
        "train": ["train", "--vocab", vocab, "--manifest", str(data / "cs_manifest.csv"),
                  "--hidden", "12", "--epochs", "1", "--out", out],
        "finetune": ["finetune", "--vocab", vocab, "--checkpoint", str(pipeline["tuned"]),
                     "--manifest", str(data / "cs_manifest.csv"), "--epochs", "1",
                     "--out", out],
        "decode": ["decode", "--vocab", vocab, "--checkpoint", str(pipeline["tuned"]),
                   "--manifest", str(data / "test_manifest.csv"), "--hyp-out", out],
        "train-lm": ["train-lm", "--corpus", str(pipeline["refs"]), "--out", out],
        "synth": ["--output-dir", str(tmp_path / "data"), "synth", "--language", "L1",
                  "--count", "2", "--latin", LATIN, "--cjk", CJK, "--vocab-out", out],
    }[command]
    with caplog.at_level(logging.INFO):
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: not a file in an existing directory\n"
    assert captured.out == ""
    assert not [r for r in caplog.records if "epoch" in r.getMessage()]
    assert {p.name for p in tmp_path.rglob("*")} <= {"dir", "data"}


def _lm_command(pipeline, command, corpus, arpa) -> int:
    if command == "train-lm":
        return main(["train-lm", "--corpus", str(corpus), "--out", str(arpa)])
    return main(["perplexity", "--lm", str(pipeline["arpa"]), "--corpus", str(corpus)])


@pytest.mark.parametrize("command", ["train-lm", "perplexity"])
def test_lm_text_outside_inventory_exits_2_naming_file_and_line(
    pipeline, tmp_path, capsys, command
):
    corpus, arpa = tmp_path / "text.txt", tmp_path / "out.arpa"
    corpus.write_text("ab 你\n\nab A\n", encoding="utf-8")
    assert _lm_command(pipeline, command, corpus, arpa) == 2
    captured = capsys.readouterr()
    assert f"{corpus}: line 3: unexpected character 'A'" in captured.err
    assert captured.out == ""
    assert not arpa.exists()


@pytest.mark.parametrize("command", ["train-lm", "perplexity"])
@pytest.mark.parametrize("text", ["", "\n  \n\n"])
def test_lm_text_without_any_utterance_exits_2_naming_the_file(
    pipeline, tmp_path, capsys, command, text
):
    corpus, arpa = tmp_path / "text.txt", tmp_path / "out.arpa"
    corpus.write_text(text, encoding="utf-8")
    assert _lm_command(pipeline, command, corpus, arpa) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no text in {corpus}\n"
    assert captured.out == ""
    assert not arpa.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights", [["--alpha", "1e308"], ["--alpha", "0", "--beta", "1e308"]])
def test_fusion_weights_that_overflow_exit_2_naming_them(pipeline, weights, capsys):
    # these once printed numpy overflow warnings, then "error: list index
    # out of range", and exited 1
    code = main([
        "decode", "--vocab", str(pipeline["vocab"]), "--checkpoint", str(pipeline["tuned"]),
        "--manifest", str(pipeline["data"] / "test_manifest.csv"), "--lm", str(pipeline["arpa"]),
        "--beam", "10", *weights,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    alpha, beta = (1e308, 1.0) if len(weights) == 2 else (0.0, 1e308)
    assert captured.err.startswith(f"error: fusion weights alpha={alpha!r} and beta={beta!r}")


@pytest.mark.filterwarnings("error")
def test_decode_without_an_lm_or_word_bonus_takes_any_finite_alpha(pipeline, capsys):
    # no LM term and no bonus leave nothing to fuse, so the decode is plain CTC
    outputs = []
    for alpha in ("1e308", "0"):
        assert main([
            "decode", "--vocab", str(pipeline["vocab"]), "--checkpoint", str(pipeline["tuned"]),
            "--manifest", str(pipeline["data"] / "test_manifest.csv"), "--beam", "10",
            "--alpha", alpha, "--beta", "0",
        ]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out and outputs[0].err == ""


@pytest.mark.filterwarnings("error")
def test_run_matrix_with_fusion_weights_that_overflow_exits_2(tmp_path, capsys, monkeypatch):
    # the fused column once failed with "error: list index out of range".
    # An infinite alpha * ln 10 fails every fused decode at its first frame,
    # so it is refused before any file is written or model trained; a beta
    # that overflows only once a prefix has two words fails at that column
    def run_matrix(alpha, beta):
        out = tmp_path / f"matrix_{alpha}_{beta}"
        code = main([
            "--seed", "0", "--output-dir", str(out), "run-matrix",
            "--latin", "abc", "--cjk", "你我", "--mono-count", "4", "--cs-count", "10",
            "--test-count", "3", "--hidden", "4", "--pretrain-epochs", "1",
            "--finetune-epochs", "1", "--lm-order", "2", "--lm-text-count", "5",
            "--beam", "2", f"--alpha={alpha}", f"--beta={beta}",
        ])
        err = capsys.readouterr().err
        assert err.startswith(f"error: fusion weights alpha={float(alpha)!r} and beta={beta}")
        return code, sorted(p.name for p in out.iterdir())

    def train(*args):
        raise AssertionError("trained a model")

    with monkeypatch.context() as patched:
        patched.setattr(training, "run_joint_training", train)
        assert run_matrix("1e308", "1.0") == (2, [])
        assert run_matrix("-1e308", "1.0") == (2, [])
    assert run_matrix("0.2", "1e+308") == (2, ["lm.arpa", "vocab.txt"])


def test_synth_without_output_dir_exits_2(capsys):
    code = main(["synth", "--language", "L1", "--count", "1"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "command", [["synth", "--language", "L1", "--count", "1"], ["run-matrix"]]
)
@pytest.mark.parametrize("under", [(), ("sub", "dir")], ids=["file", "under-file"])
def test_output_dir_that_is_a_file_or_under_one_exits_2_before_any_work(
    command, under, tmp_path, capsys, monkeypatch
):
    # once synth exited 1 with "[Errno 17] File exists" and run-matrix
    # with "[Errno 20] Not a directory"
    monkeypatch.chdir(tmp_path)
    afile = tmp_path / "afile"
    afile.write_text("kept\n", encoding="utf-8")
    out = afile.joinpath(*under)
    assert main(["--output-dir", str(out)] + command) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot use --output-dir {out}: not a directory\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [afile]
    assert afile.read_text(encoding="utf-8") == "kept\n"


def test_diverging_train_exits_1_naming_the_epoch_and_writes_no_checkpoint(
    pipeline, tmp_path, capsys
):
    # at --lr 50 the joint loss goes from ~1467 to ~6072 in epoch 2
    ckpt = tmp_path / "diverged.ckpt"
    data = pipeline["data"]
    code = main([
        "--seed", "0", "train", "--vocab", str(pipeline["vocab"]),
        "--l1-manifest", str(data / "l1_manifest.csv"),
        "--l2-manifest", str(data / "l2_manifest.csv"),
        "--hidden", "12", "--epochs", "3", "--lr", "50", "--out", str(ckpt),
    ])
    assert code == 1
    assert "joint diverged at epoch 2, batch 2" in capsys.readouterr().err
    assert not ckpt.exists()


def _manifest_of(pipeline, path, transcripts):
    """A manifest at path whose rows take the first cs utterances' audio,
    by absolute path, with these transcripts, and a blank line after the
    first row."""
    data = pipeline["data"]
    header, *rows = (data / "cs_manifest.csv").read_text(encoding="utf-8").splitlines()
    lines = [header]
    for row, transcript in zip(rows, transcripts):
        audio, _, language, duration = row.split(",")
        lines.append(f"{data / audio},{transcript},{language},{duration}")
    lines.insert(2, "")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["train", "finetune"])
def test_manifest_transcript_outside_vocab_exits_2_naming_its_line(
    pipeline, tmp_path, capsys, command
):
    manifest = _manifest_of(pipeline, tmp_path / "m.csv", ["ab", "a", "ab 龍"])
    ckpt = tmp_path / "out.ckpt"
    argv = [command, "--vocab", str(pipeline["vocab"]), "--manifest", str(manifest)]
    if command == "finetune":
        argv += ["--checkpoint", str(pipeline["ckpt"])]
    assert main(argv + ["--out", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {manifest}: line 5: unknown grapheme '龍' at byte offset 3"
        " in the transcript\n"
    )
    assert not ckpt.exists()


@pytest.mark.parametrize("fraction, transcripts", [("0.1", ["ab", "a", "b", "a"]), ("1", [])])
def test_finetune_fraction_selecting_no_utterance_exits_2(
    pipeline, tmp_path, capsys, fraction, transcripts
):
    manifest = _manifest_of(pipeline, tmp_path / "m.csv", transcripts)
    ckpt = tmp_path / "out.ckpt"
    assert main([
        "finetune", "--vocab", str(pipeline["vocab"]), "--manifest", str(manifest),
        "--checkpoint", str(pipeline["ckpt"]),
        "--fraction", fraction, "--out", str(ckpt),
    ]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: --fraction {fraction} selects none of the "
        f"{len(transcripts)} utterances in {manifest}\n"
    )
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "sources",
    [
        ["--l1-manifest", "empty", "--l2-manifest", "l2"],
        ["--l1-manifest", "l1", "--l2-manifest", "empty"],
        ["--manifest", "empty"],
    ],
)
def test_train_on_an_empty_manifest_exits_2_naming_it(pipeline, tmp_path, capsys, sources):
    data = pipeline["data"]
    empty = tmp_path / "empty.csv"
    empty.write_text("path,transcript,language,duration_ms\n", encoding="utf-8")
    paths = {"empty": empty, "l1": data / "l1_manifest.csv", "l2": data / "l2_manifest.csv"}
    ckpt = tmp_path / "out.ckpt"
    assert main([
        "train", "--vocab", str(pipeline["vocab"]), *[str(paths.get(a, a)) for a in sources],
        "--hidden", "12", "--out", str(ckpt),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no training examples in {empty}\n"
    assert captured.out == ""
    assert not ckpt.exists()


def test_train_on_one_manifest_writes_the_model_that_train_epochs_makes(pipeline, tmp_path):
    # a single set trains through `training.train_epochs` alone: the
    # checkpoint holds the parameters that loop gives here, on the same
    # examples and config, bit for bit
    manifest, vocab = pipeline["data"] / "cs_manifest.csv", load_vocab(pipeline["vocab"])
    ckpt = tmp_path / "one.ckpt"
    assert main([
        "--seed", "3", "train", "--vocab", str(pipeline["vocab"]), "--manifest", str(manifest),
        "--hidden", "8", "--epochs", "2", "--lr", "0.01", "--batch-size", "4",
        "--out", str(ckpt),
    ]) == 0
    examples = [
        training.make_example(e, training.load_frames(e, manifest.parent), vocab)
        for e in load_manifest(manifest, vocab)
    ]
    want = model_mod.init_model(examples[0].frames.shape[1], len(vocab), 8, 3)
    start = want.copy()
    cfg = training.TrainConfig(learning_rate=0.01, batch_size=4, epochs=2, seed=3)
    training.train_epochs(want, examples, cfg)
    got = model_mod.load_checkpoint(ckpt, vocab)
    for name in model_mod.PARAM_NAMES:
        assert got.params[name].tobytes() == want.params[name].tobytes(), name
    assert not np.array_equal(want.params["w_hy"], start.params["w_hy"])


def test_decode_on_an_empty_manifest_exits_2_naming_it(pipeline, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("path,transcript,language,duration_ms\n", encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    assert main([
        "decode", "--vocab", str(pipeline["vocab"]), "--checkpoint", str(pipeline["tuned"]),
        "--manifest", str(empty), "--hyp-out", str(hyp),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: no utterances in {empty}\n"
    assert captured.out == ""
    assert not hyp.exists()


def test_internal_error_exits_1(pipeline, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("the decoder broke")

    monkeypatch.setattr(decoder, "beam_decode", broken)
    code = _decode_with_checkpoint(pipeline, pipeline["tuned"])
    assert code == 1
    assert capsys.readouterr().err == "error: the decoder broke\n"


def test_grid_not_fitting_the_vocab_exits_2_naming_its_header(pipeline, tmp_path, capsys):
    # a well-formed grid whose width does not match the vocabulary
    grid = tmp_path / "narrow.grid"
    half = "-0.69314718055994529"
    grid.write_text(f"CTCGRID v1 T=1 V=2\n{half} {half}\n", encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    code = main([
        "decode", "--vocab", str(pipeline["vocab"]), "--grid", str(grid),
        "--hyp-out", str(hyp),
    ])
    assert code == 2
    n = len(load_vocab(pipeline["vocab"]))
    assert capsys.readouterr().err == (
        f"error: {grid}: line 1: grid V=2 does not match vocab size {n}\n"
    )
    assert not hyp.exists()


@pytest.fixture(scope="module")
def narrow(tmp_path_factory):
    """A manifest of 3 code-switched utterances with 8 feature columns,
    where the pipeline's models take 12."""
    out = tmp_path_factory.mktemp("narrow")
    assert main([
        "--seed", "1", "--output-dir", str(out), "synth", "--language", "mixed",
        "--count", "3", "--latin", LATIN, "--cjk", CJK, "--tag", "narrow",
        "--feature-dim", "8",
    ]) == 0
    return out / "narrow_manifest.csv"


@pytest.mark.parametrize("command", ["decode", "finetune", "train"])
def test_feature_width_not_fitting_the_model_exits_2_naming_the_row(
    pipeline, narrow, tmp_path, capsys, command
):
    out = tmp_path / "out"
    vocab = ["--vocab", str(pipeline["vocab"])]
    argv = {
        "decode": ["decode", *vocab, "--checkpoint", str(pipeline["tuned"]),
                   "--manifest", str(narrow), "--hyp-out", str(out)],
        "finetune": ["finetune", *vocab, "--checkpoint", str(pipeline["ckpt"]),
                     "--manifest", str(narrow), "--out", str(out)],
        # the model takes the width of the L1 set's first utterance
        "train": ["train", *vocab, "--l1-manifest", str(pipeline["data"] / "l1_manifest.csv"),
                  "--l2-manifest", str(narrow), "--hidden", "12", "--out", str(out)],
    }[command]
    assert main(argv) == 2
    first = load_manifest(narrow)[0].path
    assert capsys.readouterr().err == (
        f"error: {narrow}: line 2: {first} has 8 feature columns, the model takes 12\n"
    )
    assert not out.exists()


def test_malformed_grid_exits_2_naming_file_and_line(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text("CTCGRID v1 T=2 V=2\n-0.5 -0.9\n-0.5 x\n", encoding="utf-8")
    code = main(["decode", "--vocab", str(pipeline["vocab"]), "--grid", str(bad)])
    assert code == 2
    assert f"{bad}: line 3: could not convert" in capsys.readouterr().err


def test_malformed_vocab_and_arpa_exit_2_naming_file_and_line(pipeline, tmp_path, capsys):
    vocab = tmp_path / "bad_vocab.txt"
    vocab.write_text("<blank>\na\nb\na\n", encoding="utf-8")
    code = main(["decode", "--vocab", str(vocab), "--grid", str(tmp_path / "g")])
    assert code == 2
    assert f"{vocab}: line 4: unit 'a' repeats line 2" in capsys.readouterr().err

    arpa = tmp_path / "bad.arpa"
    lines = pipeline["arpa"].read_text(encoding="utf-8").splitlines()
    lines[lines.index("\\1-grams:") + 1] += " extra"
    arpa.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = tmp_path / "ppl.txt"
    text.write_text("a\n", encoding="utf-8")
    code = main(["perplexity", "--lm", str(arpa), "--corpus", str(text)])
    assert code == 2
    line = lines.index("\\1-grams:") + 2
    assert f"{arpa}: line {line}: non-numeric probability field" in capsys.readouterr().err


def test_arpa_with_a_repeated_ngram_exits_2_naming_both_lines(pipeline, tmp_path, capsys):
    # the header still declares the distinct count, so only the repeat is wrong
    arpa = tmp_path / "repeated.arpa"
    lines = pipeline["arpa"].read_text(encoding="utf-8").splitlines()
    n = lines.index("\\2-grams:") + 1
    lines.insert(n + 1, lines[n])
    arpa.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = tmp_path / "ppl.txt"
    text.write_text("a\n", encoding="utf-8")
    assert main(["perplexity", "--lm", str(arpa), "--corpus", str(text)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {arpa}: line {n + 2}: repeated 2-gram, first at line {n + 1}\n"


def _fields_short(lines):
    n = lines.index("\\2-grams:") + 1
    lines[n] = lines[n].split("\t")[0]
    return n + 1, "expected 3 or 4 fields, got 1"


def _stray_line(lines):
    # after the blank line that ends the 1-grams, outside any section
    n = lines.index("\\2-grams:")
    lines.insert(n, "stray")
    return n + 1, "unexpected line 'stray'"


def _undeclared_section(lines):
    n = lines.index("\\end\\")
    lines[n:n] = ["\\4-grams:", "-0.1\ta b c d", ""]
    return n + 1, "section order 4 not declared"


@pytest.mark.parametrize(
    "edit", [_fields_short, _stray_line, _undeclared_section],
    ids=["fields", "unexpected-line", "undeclared-section"],
)
def test_arpa_with_a_malformed_line_exits_2_naming_file_and_line(
    pipeline, tmp_path, capsys, edit
):
    arpa = tmp_path / "bad.arpa"
    lines = pipeline["arpa"].read_text(encoding="utf-8").splitlines()
    line, reason = edit(lines)
    arpa.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = tmp_path / "ppl.txt"
    text.write_text("a\n", encoding="utf-8")
    assert main(["perplexity", "--lm", str(arpa), "--corpus", str(text)]) == 2
    assert capsys.readouterr().err == f"error: {arpa}: line {line}: {reason}\n"


@pytest.mark.parametrize("column", ["probability", "backoff"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_arpa_with_a_non_finite_field_exits_2_naming_file_and_line(
    pipeline, tmp_path, capsys, value, column
):
    arpa = tmp_path / "bad.arpa"
    lines = pipeline["arpa"].read_text(encoding="utf-8").splitlines()
    start = lines.index("\\2-grams:") + 1
    n = next(i for i in range(start, len(lines)) if lines[i].count("\t") == 2)
    fields = lines[n].split("\t")
    fields[0 if column == "probability" else 2] = value
    lines[n] = "\t".join(fields)
    arpa.write_text("\n".join(lines) + "\n", encoding="utf-8")
    text = tmp_path / "ppl.txt"
    text.write_text("a\n", encoding="utf-8")
    assert main(["perplexity", "--lm", str(arpa), "--corpus", str(text)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {arpa}: line {n + 1}: non-finite {column} field\n"


def _not_utf8_case(pipeline, tmp_path, reader):
    """(argv, path, line): a command whose `reader` input holds a byte that
    is not UTF-8 on that line of that file."""
    bad = tmp_path / f"bad_{reader}"
    text = tmp_path / "text.txt"
    text.write_text("ab 你\nab\n", encoding="utf-8")
    vocab = str(pipeline["vocab"])
    if reader in ("corpus", "ref", "hyp"):
        bad.write_bytes(b"ab\n\nab \xff\n")
        argv = {
            "corpus": ["train-lm", "--corpus", str(bad), "--out", str(tmp_path / "o.arpa")],
            "ref": ["evaluate", "--ref", str(bad), "--hyp", str(text)],
            "hyp": ["evaluate", "--ref", str(text), "--hyp", str(bad)],
        }[reader]
        return argv, bad, 3
    if reader == "vocab":
        bad.write_bytes("<blank>\na\n你".encode("utf-8") + b"\xff\n")
        return ["decode", "--vocab", str(bad), "--grid", str(tmp_path / "g")], bad, 3
    if reader == "manifest":
        lines = (pipeline["data"] / "l1_manifest.csv").read_bytes().split(b"\n")
        lines[2] = lines[2].replace(b",", b"\xff,", 2)
        bad.write_bytes(b"\n".join(lines))
        argv = ["train", "--vocab", vocab, "--manifest", str(bad), "--out", str(tmp_path / "m")]
        return argv, bad, 3
    if reader == "grid":
        bad.write_bytes(b"CTCGRID v1 T=2 V=2\n-0.5 -0.9\n-0.5 \xff\n")
        return ["decode", "--vocab", vocab, "--grid", str(bad)], bad, 3
    lines = pipeline["arpa"].read_bytes().split(b"\n")
    n = lines.index(b"\\2-grams:") + 2
    lines[n - 1] = b"\xff" + lines[n - 1]
    bad.write_bytes(b"\n".join(lines))
    return ["perplexity", "--lm", str(bad), "--corpus", str(text)], bad, n


@pytest.mark.parametrize(
    "reader", ["corpus", "ref", "hyp", "vocab", "manifest", "grid", "arpa"]
)
def test_input_that_is_not_utf8_exits_2_naming_file_and_line(
    pipeline, tmp_path, capsys, reader
):
    argv, bad, line = _not_utf8_case(pipeline, tmp_path, reader)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {bad}: line {line}: not UTF-8\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([bad.name, "text.txt"])


@pytest.mark.parametrize(
    "argv",
    [
        ["decode", "--vocab", "v", "--grid", "g", "--nbest", "0"],
        ["decode", "--vocab", "v", "--grid", "g", "--beam", "-3"],
        ["run-matrix", "--beam", "0"],
        ["run-matrix", "--batch-size", "0"],
        ["run-matrix", "--hidden", "0"],
        ["finetune", "--vocab", "v", "--checkpoint", "c", "--manifest", "m",
         "--out", "o", "--fraction", "0"],
        ["finetune", "--vocab", "v", "--checkpoint", "c", "--manifest", "m",
         "--out", "o", "--fraction", "1.5"],
        # a negative rate or noise level once ran: the rate failed only
        # after run-matrix had built its corpora and LM, the noise never
        ["train", "--vocab", "v", "--manifest", "m", "--out", "o", "--lr", "-1"],
        ["finetune", "--vocab", "v", "--checkpoint", "c", "--manifest", "m",
         "--out", "o", "--lr=-0.5"],
        ["run-matrix", "--lr", "-1"],
        ["synth", "--language", "mixed", "--count", "2", "--sigma", "-1"],
        ["run-matrix", "--sigma=-0.1"],
        # a momentum of -1 once trained to a CER above 100%, and one of 5
        # diverged only after run-matrix had written its vocabulary and LM
        *(
            command + [f"--momentum={value}"]
            for command in (
                ["train", "--vocab", "v", "--manifest", "m", "--out", "o"],
                ["finetune", "--vocab", "v", "--checkpoint", "c", "--manifest", "m",
                 "--out", "o"],
                ["run-matrix"],
            )
            for value in ("-1", "1", "5")
        ),
    ],
)
def test_out_of_range_numeric_option_exits_2_before_any_work(argv, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["--output-dir", str(out)] + argv)
    assert info.value.code == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--vocab", "v", "--manifest", "m", "--out", "o", "--epochs", "1",
         "--lr", "nan"],
        ["finetune", "--vocab", "v", "--checkpoint", "c", "--manifest", "m",
         "--out", "o", "--momentum", "inf"],
        ["synth", "--language", "mixed", "--count", "2", "--sigma", "nan"],
        ["decode", "--vocab", "v", "--grid", "g", "--alpha", "inf"],
        ["decode", "--vocab", "v", "--grid", "g", "--beta=-inf"],
        ["run-matrix", "--lr", "inf"],
        ["run-matrix", "--momentum", "nan"],
        ["run-matrix", "--sigma", "inf"],
        ["run-matrix", "--alpha", "nan"],
        ["run-matrix", "--beta", "nan"],
        # range checks alone once refused these as out of range
        ["finetune", "--vocab", "v", "--checkpoint", "c", "--manifest", "m",
         "--out", "o", "--fraction", "nan"],
        ["synth", "--language", "mixed", "--count", "2", "--p-switch", "inf"],
    ],
)
def test_non_finite_float_option_exits_2_before_any_work(
    argv, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["--output-dir", str(out)] + argv)
    assert info.value.code == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decode", "--vocab", "v", "--grid", "g", "--beam", "abc"],
         "argument --beam: invalid positive_int value: 'abc'"),
        # finetune takes its width from the checkpoint
        (["finetune", "--vocab", "v", "--checkpoint", "c", "--manifest", "m",
          "--out", "o", "--hidden", "12"],
         "unrecognized arguments: --hidden 12"),
    ],
)
def test_option_that_does_not_parse_exits_2_before_any_work(
    argv, message, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["--output-dir", str(tmp_path / "out")] + argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command", [["synth", "--language", "L1", "--count", "1"], ["run-matrix"]]
)
@pytest.mark.parametrize(
    "flag",
    [
        ["--p-switch", "1.5"],
        ["--p-switch", "-0.1"],
        ["--p-switch", "nan"],
        ["--latin", "ABC"],
        ["--latin", "a"],
        ["--latin", "aaa"],
        ["--latin", "ab1"],
        ["--cjk", "ab"],
        ["--cjk", ""],
        ["--cjk", "你a"],
    ],
)
def test_bad_spec_flag_exits_2_before_any_work(
    command, flag, tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["--output-dir", str(out)] + command + flag)
    assert info.value.code == 2
    assert f"argument {flag[0]}: must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# the count is compared as an int: once, 401 digits overflowed a float
@pytest.mark.parametrize(
    "count", ["1", "9", pytest.param("-1" + "0" * 400, id="minus-401-digits")]
)
def test_run_matrix_cs_count_leaving_the_10_percent_cells_empty_exits_2_before_any_work(
    count, tmp_path, capsys, monkeypatch
):
    # floor(0.1 * count) utterances fine-tune each 10% cell
    monkeypatch.chdir(tmp_path)
    trained = []
    monkeypatch.setattr(training, "train_epochs", lambda *args, **kw: trained.append(args))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main(["--output-dir", str(out), "run-matrix", "--cs-count", count])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --cs-count: must be at least 10 so that the 10% cells"
        f" fine-tune on an utterance, got {count}\n"
    )
    assert not trained
    assert list(tmp_path.iterdir()) == []
    for accepted in (10, 10**400):
        argv = ["run-matrix", "--cs-count", str(accepted)]
        assert build_parser().parse_args(argv).cs_count == accepted


def _decode_with_checkpoint(pipeline, ckpt) -> int:
    return main([
        "decode", "--vocab", str(pipeline["vocab"]), "--checkpoint", str(ckpt),
        "--manifest", str(pipeline["data"] / "test_manifest.csv"),
    ])


def test_checkpoint_that_is_not_json_exits_2_naming_file_and_line(
    pipeline, tmp_path, capsys
):
    bad = tmp_path / "bad.ckpt"
    bad.write_text('{\n "format": "csasr-checkpoint",\n oops\n}\n', encoding="utf-8")
    assert _decode_with_checkpoint(pipeline, bad) == 2
    assert f"{bad}: line 3: Expecting property name" in capsys.readouterr().err


def test_checkpoint_that_is_not_an_object_exits_2_naming_file(
    pipeline, tmp_path, capsys
):
    bad = tmp_path / "list.ckpt"
    bad.write_text("[1, 2]\n", encoding="utf-8")
    assert _decode_with_checkpoint(pipeline, bad) == 2
    assert f"{bad}: line 1: top level is not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decode", "finetune"])
def test_checkpoint_under_another_vocabulary_exits_2(command, pipeline, tmp_path, capsys):
    # a config error, not a computation error: it once exited 1
    other = tmp_path / "other_vocab.txt"
    blank, *units = load_vocab(pipeline["vocab"]).units
    save_vocab(GraphemeVocab((blank, *reversed(units))), other)  # the units reordered
    out = tmp_path / "tuned.ckpt"
    data, tuned = pipeline["data"], pipeline["tuned"]
    argv = {
        "decode": ["--manifest", str(data / "test_manifest.csv")],
        "finetune": ["--manifest", str(data / "cs_manifest.csv"), "--out", str(out)],
    }[command]
    code = main([command, "--vocab", str(other), "--checkpoint", str(tuned)] + argv)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {tuned}: checkpoint was trained with a different vocabulary\n"
    assert captured.out == ""
    assert not out.exists()


def test_checkpoint_shape_not_fitting_data_exits_2_naming_file(
    pipeline, tmp_path, capsys
):
    payload = json.loads(pipeline["tuned"].read_text(encoding="utf-8"))
    payload["params"]["b_h"]["shape"] = [3]
    bad = tmp_path / "shape.ckpt"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert _decode_with_checkpoint(pipeline, bad) == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 1: parameter b_h: shape [3] does not fit" in err


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"hello", "file ends inside the RIFF header"),
        (b"hello, world", "file does not start with RIFF id"),
    ],
)
def test_wav_entry_that_is_not_riff_exits_2_naming_it(
    pipeline, tmp_path, capsys, data, reason
):
    wav = tmp_path / "u0.wav"
    wav.write_bytes(data)
    manifest = tmp_path / "m.csv"
    header = (pipeline["data"] / "test_manifest.csv").read_text(encoding="utf-8")
    manifest.write_text(
        header.splitlines()[0] + "\nu0.wav,ab,mixed,100\n", encoding="utf-8"
    )
    code = main([
        "decode", "--vocab", str(pipeline["vocab"]),
        "--checkpoint", str(pipeline["tuned"]), "--manifest", str(manifest),
    ])
    assert code == 2
    assert f"{wav}: line 1: {reason}" in capsys.readouterr().err


def _one_entry_command(pipeline, tmp_path, command, audio):
    """Run train or decode on a manifest whose one entry is `audio`."""
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        f"path,transcript,language,duration_ms\n{audio.name},ab,mixed,40\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    vocab = ["--vocab", str(pipeline["vocab"]), "--manifest", str(manifest)]
    argv = {
        "decode": ["decode", *vocab, "--checkpoint", str(pipeline["tuned"]),
                   "--hyp-out", str(out)],
        "train": ["train", *vocab, "--hidden", "12", "--out", str(out)],
    }[command]
    code = main(argv)
    assert not out.exists()
    return code


def _wav_bytes(channels: int, width: int, rate: int) -> bytes:
    out = io.BytesIO()
    with wave.open(out, "wb") as f:
        f.setnchannels(channels)
        f.setsampwidth(width)
        f.setframerate(rate)
        f.writeframes(bytes(channels * width * 400))
    return out.getvalue()


@pytest.mark.parametrize("command", ["decode", "train"])
@pytest.mark.parametrize(
    "data, reason",
    [
        (_wav_bytes(2, 2, SAMPLE_RATE), "expected mono, got 2 channels"),
        (_wav_bytes(1, 1, SAMPLE_RATE), "expected 16-bit samples"),
        (_wav_bytes(1, 2, 16000), f"expected {SAMPLE_RATE} Hz, got 16000"),
    ],
    ids=["stereo", "8-bit", "16-kHz"],
)
def test_wav_entry_in_another_format_exits_2_naming_it(
    pipeline, tmp_path, capsys, command, data, reason
):
    wav = tmp_path / "u0.wav"
    wav.write_bytes(data)
    assert _one_entry_command(pipeline, tmp_path, command, wav) == 2
    assert capsys.readouterr().err == f"error: {wav}: line 1: {reason}\n"


@pytest.mark.parametrize("command", ["decode", "train"])
def test_manifest_with_a_field_over_the_csv_limit_exits_2_naming_its_line(
    pipeline, tmp_path, capsys, command
):
    limit = csv.field_size_limit()
    long_name = tmp_path / ("u" * (limit + 1))
    assert _one_entry_command(pipeline, tmp_path, command, long_name) == 2
    manifest = tmp_path / "m.csv"
    assert capsys.readouterr().err == (
        f"error: {manifest}: line 2: field larger than field limit ({limit})\n"
    )


@pytest.mark.parametrize("command", ["decode", "train"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_feat_entry_with_a_non_finite_value_exits_2_naming_file_and_line(
    pipeline, tmp_path, capsys, command, value
):
    feat = tmp_path / "u0.feat"
    cells = ["0.5"] * 12
    cells[3] = value
    feat.write_text(
        "FEAT v1 T=2 F=12\n" + " ".join(["0.5"] * 12) + "\n" + " ".join(cells) + "\n",
        encoding="utf-8",
    )
    assert _one_entry_command(pipeline, tmp_path, command, feat) == 2
    assert capsys.readouterr().err == f"error: {feat}: line 3: value {value} is not finite\n"


@pytest.mark.parametrize("command", ["decode", "train"])
def test_entry_with_no_frames_exits_2_naming_it(pipeline, tmp_path, capsys, command):
    feat = tmp_path / "u0.feat"
    feat.write_text("FEAT v1 T=0 F=12\n", encoding="utf-8")
    assert _one_entry_command(pipeline, tmp_path, command, feat) == 2
    assert capsys.readouterr().err == f"error: {feat}: line 1: no frames (T=0)\n"

    wav = tmp_path / "u1.wav"
    write_wav(np.zeros(100), wav)
    assert _one_entry_command(pipeline, tmp_path, command, wav) == 2
    assert capsys.readouterr().err == (
        f"error: {wav}: line 1: 100 samples < one window of 160\n"
    )


@pytest.mark.parametrize("command", ["decode", "train"])
def test_entry_with_no_feature_columns_exits_2_naming_it(
    pipeline, tmp_path, capsys, command
):
    # train once took its width from it and wrote a width-0 checkpoint
    feat = tmp_path / "u0.feat"
    feat.write_text("FEAT v1 T=3 F=0\n\n\n\n", encoding="utf-8")
    assert _one_entry_command(pipeline, tmp_path, command, feat) == 2
    assert capsys.readouterr().err == f"error: {feat}: line 1: no feature columns (F=0)\n"


@pytest.mark.parametrize("command", ["decode", "train"])
@pytest.mark.parametrize("name", ["d", "d.wav"])
def test_entry_that_is_a_directory_exits_2_naming_it(
    pipeline, tmp_path, capsys, command, name
):
    entry = tmp_path / name
    entry.mkdir()
    assert _one_entry_command(pipeline, tmp_path, command, entry) == 2
    assert capsys.readouterr().err == f"error: missing file: {entry}\n"


def test_decode_defaults():
    args = build_parser().parse_args(["decode", "--vocab", "v", "--grid", "g"])
    assert (args.alpha, args.beta, args.beam) == (0.2, 1.0, 100)


def test_run_matrix_defaults_are_recorded():
    args = build_parser().parse_args(["run-matrix"])
    assert args.alpha == 0.2 and args.beta == 1.0
    assert args.lm_order == 5
    assert args.seed == 0


def test_help_text_renders_for_every_command():
    # argparse %-formats help strings; a stray % in one would blow up here
    parser = build_parser()
    text = parser.format_help()
    for command in ("synth", "train-lm", "decode", "run-matrix"):
        assert command in text
    for action in parser._subparsers._group_actions[0].choices.values():
        assert action.format_help()


def test_importing_the_entry_module_runs_nothing():
    # `python -m csasr` runs the CLI; importing csasr.__main__ must not, or
    # it would parse the importer's argv
    env = {**os.environ, "PYTHONPATH": str(Path(csasr.__file__).parent.parent)}

    def run(*args):
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
        )

    imported = run("-c", "import csasr.__main__")
    assert (imported.returncode, imported.stdout, imported.stderr) == (0, "", "")
    helped = run("-m", "csasr", "--help")
    assert helped.returncode == 0 and "run-matrix" in helped.stdout
