import json

import numpy as np
import pytest

from csasr.cli import build_parser, main
from csasr.ctc import PosteriorGrid, write_grid
from csasr.lm import read_arpa
from csasr.training import load_manifest
from csasr.vocab import load_vocab

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
        "--hidden", "12", "--epochs", "2", "--lr", "0.01", "--out", str(tuned),
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


def test_evaluate_empty_files_exit_2(tmp_path, capsys):
    assert _evaluate(tmp_path, "", "") == 2
    assert "no references" in capsys.readouterr().err


def test_evaluate_empty_reference_line_exits_2_naming_it(tmp_path, capsys):
    assert _evaluate(tmp_path, "ab 你\n\nba\n", "ab\nab\nba\n") == 2
    assert "line 2: reference is empty" in capsys.readouterr().err


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


def test_synth_without_output_dir_exits_2(capsys):
    code = main(["synth", "--language", "L1", "--count", "1"])
    assert code == 2
    capsys.readouterr()


def test_internal_error_exits_1(pipeline, tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text("CTCGRID v1 T=1 V=2\nnot numbers\n", encoding="utf-8")
    code = main(["decode", "--vocab", str(pipeline["vocab"]), "--grid", str(bad)])
    assert code == 1
    capsys.readouterr()


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
