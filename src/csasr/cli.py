"""Command-line entry point wiring all modules into reproducible runs.

One binary with subcommands sharing config/provenance handling: every
command that owns an output directory drops a config.json snapshot with
the seed, so a run can be reproduced from its artifacts alone. Exit
codes: 0 ok, 1 computation error, 2 usage or config error or a malformed
input file.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from pathlib import Path

from . import ctc, decoder, lm, metrics, synth, training
from . import model as model_mod
from .vocab import MalformedFile, build_vocab, is_cjk, load_vocab, read_utf8, save_vocab

logger = logging.getLogger("csasr")

DEFAULT_LATIN = "abcdefghijkl"
DEFAULT_CJK = "你我他是好了的在有个这中"


class UsageError(Exception):
    pass


def _require_file(path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"missing file: {p}")
    return p


def _output_file(path) -> None:
    """UsageError unless `path` (if given) can name a file; checked before any work."""
    if path is not None and (Path(path).is_dir() or not Path(path).parent.is_dir()):
        raise UsageError(f"cannot write {path}: not a file in an existing directory")


def _output_dir(args) -> Path:
    if args.output_dir is None:
        raise UsageError("--output-dir is required for this command")
    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise UsageError(f"cannot use --output-dir {out}: not a directory") from None
    return out


def _write_config(out_dir: Path, args: argparse.Namespace) -> None:
    payload = {
        k: str(v) if isinstance(v, Path) else v
        for k, v in sorted(vars(args).items())
        if k != "func"
    }
    with open(out_dir / "config.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=1, sort_keys=True, ensure_ascii=False)
        f.write("\n")


def _inventory_vocab(spec: synth.SynthSpec):
    return build_vocab(["".join(sorted(spec.templates))])


def _train_config(opts, epochs: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        learning_rate=opts.lr,
        momentum=opts.momentum,
        # run-matrix has no --no-nesterov: it always trains with Nesterov
        nesterov=not getattr(opts, "no_nesterov", False),
        batch_size=opts.batch_size,
        epochs=epochs,
        seed=seed,
    )


def _one_source(single, pair: tuple, usage: str) -> bool:
    """True for `single` alone, False for both of `pair`, else UsageError(usage)."""
    if (single and any(pair)) or (not single and not all(pair)):
        raise UsageError(usage)
    return bool(single)


def _load_frames(manifest_path, width=None, vocab=None):
    """A manifest's entries and their frames, each `width` columns wide (by
    default the first entry's), else MalformedManifest at the first row
    that is not; with a vocab, transcripts are checked against it."""
    p = _require_file(manifest_path)
    entries = training.load_manifest(p, vocab)
    frames = []
    for entry in entries:
        f = training.load_frames(entry, p.parent)
        width = f.shape[1] if width is None else width
        if f.shape[1] != width:
            raise training.MalformedManifest(
                p, entry.line,
                f"{entry.path} has {f.shape[1]} feature columns, the model takes {width}",
            )
        frames.append(f)
    return entries, frames


def _load_examples(manifest_path, vocab, width=None):
    entries, frames = _load_frames(manifest_path, width, vocab)
    return [training.make_example(e, f, vocab) for e, f in zip(entries, frames)]


def cmd_synth(args) -> None:
    out = _output_dir(args)
    _output_file(args.vocab_out)  # after --output-dir, which may hold it
    spec = _spec(args, args.seed)
    tag = args.tag or args.language
    entries = synth.synth_corpus(spec, args.language, args.count, out, tag=tag)
    if args.vocab_out:
        save_vocab(_inventory_vocab(spec), args.vocab_out)
    _write_config(out, args)
    print(f"wrote {len(entries)} utterances under {out / (tag + '_manifest.csv')}")


def _read_text(path) -> tuple[list[str], list[list[str]]]:
    """Lines of a normalized-text file and their LM tokens, or MalformedFile."""
    lines = read_utf8(_require_file(path)).splitlines()
    tokens = []
    for n, line in enumerate(lines, 1):
        try:
            tokens.append(lm.tokenize_lm(line))
        except ValueError as e:
            raise MalformedFile(path, n, str(e)) from None
    return lines, tokens


def _read_lm_corpus(path) -> list[list[str]]:
    corpus = [tokens for tokens in _read_text(path)[1] if tokens]
    if not corpus:
        raise UsageError(f"no text in {path}")
    return corpus


def cmd_train_lm(args) -> None:
    _output_file(args.out)
    corpus = _read_lm_corpus(args.corpus)
    model = lm.train_kn(corpus, order=args.order)
    if model.degenerate_orders:
        logger.warning(
            "discount fell back to 0.5 at orders %s", list(model.degenerate_orders)
        )
    lm.write_arpa(model, args.out)
    sizes = " ".join(f"{k}:{len(model.tables[k])}" for k in range(1, model.order + 1))
    print(f"wrote {args.out} ({sizes})")


def cmd_perplexity(args) -> None:
    model = lm.read_arpa(_require_file(args.lm))
    corpus = _read_lm_corpus(args.corpus)
    print(f"perplexity={lm.perplexity(model, corpus):.6f}")


def cmd_train(args) -> None:
    _output_file(args.out)
    usage = "provide either --manifest or both --l1-manifest and --l2-manifest"
    joint = not _one_source(args.manifest, (args.l1_manifest, args.l2_manifest), usage)
    vocab = load_vocab(_require_file(args.vocab))
    sets, width = [], None
    for manifest in (args.l1_manifest, args.l2_manifest) if joint else (args.manifest,):
        examples = _load_examples(manifest, vocab, width)
        if not examples:
            raise UsageError(f"no training examples in {manifest}")
        sets.append(examples)
        width = examples[0].frames.shape[1]
    cfg = _train_config(args, args.epochs, args.seed)
    model = model_mod.init_model(width, len(vocab), args.hidden, args.seed)
    if joint:
        training.run_joint_training(model, *sets, cfg)
    else:
        training.train_epochs(model, *sets, cfg)
    model_mod.save_checkpoint(model, args.out, vocab)
    print(f"wrote {args.out}")


def cmd_finetune(args) -> None:
    _output_file(args.out)
    vocab = load_vocab(_require_file(args.vocab))
    model = model_mod.load_checkpoint(_require_file(args.checkpoint), vocab)
    examples = _load_examples(args.manifest, vocab, model.input_dim)
    if not training.stratified_subset(examples, args.fraction):
        raise UsageError(
            f"--fraction {args.fraction:g} selects none of the "
            f"{len(examples)} utterances in {args.manifest}"
        )
    cfg = _train_config(args, args.epochs, args.seed)
    training.run_finetune(model, examples, cfg, args.fraction)
    model_mod.save_checkpoint(model, args.out, vocab)
    print(f"wrote {args.out}")


def cmd_decode(args) -> None:
    _output_file(args.hyp_out)
    usage = "provide either --grid or both --checkpoint and --manifest"
    from_grid = _one_source(args.grid, (args.checkpoint, args.manifest), usage)
    vocab = load_vocab(_require_file(args.vocab))
    lm_model = lm.read_arpa(_require_file(args.lm)) if args.lm else None
    cfg = decoder.FusionConfig(args.alpha, args.beta, args.beam)
    if from_grid:
        path = _require_file(args.grid)
        grids = [ctc.read_grid(path)]
        V = grids[0].logp.shape[1]
        if V != len(vocab):
            raise ctc.MalformedGrid(path, 1, f"grid V={V} does not match vocab size {len(vocab)}")
    else:
        am = model_mod.load_checkpoint(_require_file(args.checkpoint), vocab)
        _, frames = _load_frames(args.manifest, am.input_dim)
        if not frames:
            raise UsageError(f"no utterances in {args.manifest}")
        grids = model_mod.forward_grids(am, frames)

    top_texts = []
    for grid in grids:
        hyps = decoder.beam_decode(grid, vocab, cfg, lm_model, nbest=args.nbest)
        top_texts.append(hyps[0].text)
        for h in hyps:
            print(f"{h.score:.6f}\t{h.text}")
    if args.hyp_out:
        Path(args.hyp_out).write_text(
            "".join(t + "\n" for t in top_texts), encoding="utf-8"
        )


def cmd_evaluate(args) -> None:
    refs, ref_tokens = _read_text(args.ref)
    hyps, _ = _read_text(args.hyp)
    if len(refs) != len(hyps):
        raise UsageError(
            f"line counts differ: {len(refs)} references vs {len(hyps)} hypotheses"
        )
    if not refs:
        raise UsageError(f"no references in {args.ref}")
    for n, tokens in enumerate(ref_tokens, 1):
        if not tokens:
            raise MalformedFile(args.ref, n, "reference is empty")
    cer_report = metrics.corpus_cer(refs, hyps)
    wer_report = metrics.corpus_wer(refs, hyps)
    points = [metrics.switch_point_score(r, h) for r, h in zip(refs, hyps)]
    precision = sum(p for p, _ in points) / len(points)
    recall = sum(r for _, r in points) / len(points)

    print(f"cer={cer_report.rate:.2f}")
    print(f"wer={wer_report.rate:.2f}")
    print(
        f"substitutions={cer_report.substitutions} insertions={cer_report.insertions} "
        f"deletions={cer_report.deletions} reference_length={cer_report.reference_length}"
    )
    print(f"switch_precision={precision:.4f} switch_recall={recall:.4f}")


def _synth_examples(spec, vocab, language: str, count: int, tag: str):
    """The transcripts and training examples of the corpus synth_corpus
    writes for tag, kept in memory: nothing is written or read back."""
    utterances = list(synth.synth_utterances(spec, language, count, tag))
    examples = [training.make_example(e, frames, vocab) for e, frames in utterances]
    return [e.transcript for e, _ in utterances], examples


TABLE_ROWS = ("scratch", "joint+finetune")
FRACTIONS = ((0.1, "10%"), (0.5, "50%"), (1.0, "100%"))
TABLE_COLS = (*(col for _, col in FRACTIONS), FRACTIONS[-1][1] + "+LM")


def run_matrix(out_dir: Path, seed: int, opts) -> dict[tuple[str, str], float]:
    """Train the 2x{10%,50%,100%,100%+LM} grid on synthetic data and write
    the CER matrix; identical seeds give byte-identical artifacts. The
    corpora stay in memory: only vocab.txt, lm.arpa and cer_matrix.csv
    are written."""
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = _spec(opts, seed)
    vocab = _inventory_vocab(spec)
    save_vocab(vocab, out_dir / "vocab.txt")

    _, l1_x = _synth_examples(spec, vocab, "L1", opts.mono_count, "l1_train")
    _, l2_x = _synth_examples(spec, vocab, "L2", opts.mono_count, "l2_train")
    cs_texts, cs_x = _synth_examples(spec, vocab, "mixed", opts.cs_count, "cs_train")
    refs, test_x = _synth_examples(spec, vocab, "mixed", opts.test_count, "cs_test")

    lm_text = synth.sample_text_corpus(spec, "mixed", opts.lm_text_count, "lm_text")
    lm_lines = cs_texts + lm_text
    lm_model = lm.train_kn([lm.tokenize_lm(s) for s in lm_lines], order=opts.lm_order)
    lm.write_arpa(lm_model, out_dir / "lm.arpa")

    feature_dim = opts.feature_dim
    base_cfg = decoder.FusionConfig(alpha=0.0, beta=0.0, beam_width=opts.beam)
    fused_cfg = decoder.FusionConfig(opts.alpha, opts.beta, opts.beam)
    pretrain_cfg = _train_config(opts, opts.pretrain_epochs, seed + 1)
    scratch_cfg = _train_config(opts, opts.finetune_epochs, seed + 2)
    tune_cfg = _train_config(opts, opts.finetune_epochs, seed + 3)

    test_frames = [ex.frames for ex in test_x]

    def test_cer(grids, cfg, fusion_lm) -> float:
        hyps = [decoder.beam_decode(g, vocab, cfg, fusion_lm, nbest=1)[0].text for g in grids]
        return metrics.corpus_cer(refs, hyps).rate

    joint = model_mod.init_model(feature_dim, len(vocab), opts.hidden, seed + 11)
    training.run_joint_training(joint, l1_x, l2_x, pretrain_cfg)

    matrix: dict[tuple[str, str], float] = {}
    grids = {}  # each row's test grids, one forward per model
    for fraction, col in FRACTIONS:
        scratch = model_mod.init_model(feature_dim, len(vocab), opts.hidden, seed + 12)
        training.run_finetune(scratch, cs_x, scratch_cfg, fraction)
        tuned = joint.copy()
        training.run_finetune(tuned, cs_x, tune_cfg, fraction)
        for row, am in zip(TABLE_ROWS, (scratch, tuned)):
            grids[row] = model_mod.forward_grids(am, test_frames)
            matrix[(row, col)] = test_cer(grids[row], base_cfg, None)
        logger.info(
            "fraction %s: %s", col, ", ".join(f"{r} {matrix[(r, col)]:.2f}" for r in TABLE_ROWS)
        )

    # the LM column decodes the grids of the last fraction's models
    for row in TABLE_ROWS:
        matrix[(row, TABLE_COLS[-1])] = test_cer(grids[row], fused_cfg, lm_model)

    lines = ["training," + ",".join(TABLE_COLS)]
    for row in TABLE_ROWS:
        lines.append(row + "," + ",".join(f"{matrix[(row, c)]:.2f}" for c in TABLE_COLS))
    (out_dir / "cer_matrix.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    for row in TABLE_ROWS:
        cells = "  ".join(f"{c}={matrix[(row, c)]:6.2f}" for c in TABLE_COLS)
        print(f"{row:<16} {cells}")
    return matrix


def cmd_run_matrix(args) -> None:
    out = _output_dir(args)
    run_matrix(out, args.seed, args)
    _write_config(out, args)
    print(f"wrote {out / 'cer_matrix.csv'}")


def _option(name: str, parse, rule: str = "", ok=lambda value: True):
    """An argparse type named `name`: `parse(text)`, then a float that is
    not finite and any value failing `ok` are refused, the latter as
    "must be <rule>"."""

    def check(text: str):
        value = parse(text)
        if parse is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        if not ok(value):
            got = repr(text) if parse is str else text
            raise argparse.ArgumentTypeError(f"must be {rule}, got {got}")
        return value

    check.__name__ = name  # argparse names it in "invalid <name> value"
    return check


# floor(count * fraction) utterances fine-tune each cell of the smallest fraction
_SMALLEST, _SMALLEST_COL = min(FRACTIONS)
_MIN_CS_COUNT = math.ceil(1 / _SMALLEST)  # an int: counts of any size compare

positive_int = _option("positive_int", int, "at least 1", lambda v: v >= 1)
cs_count = _option(
    "cs_count", int,
    f"at least {_MIN_CS_COUNT} so that the {_SMALLEST_COL} cells "
    "fine-tune on an utterance",
    lambda v: v >= _MIN_CS_COUNT,
)
finite_float = _option("finite_float", float)
nonnegative_float = _option("nonnegative_float", float, "at least 0", lambda v: v >= 0)
unit_fraction = _option("unit_fraction", float, "in (0, 1]", lambda v: 0 < v <= 1)
probability = _option("probability", float, "in [0, 1]", lambda v: 0 <= v <= 1)
momentum_factor = _option("momentum_factor", float, "in [0, 1)", lambda v: 0 <= v < 1)
latin_letters = _option(
    "latin_letters", str, "letters a-z, at least two distinct",
    lambda s: all("a" <= ch <= "z" for ch in s) and len(set(s)) >= 2,
)
cjk_chars = _option(
    "cjk_chars", str, "CJK ideographs", lambda s: bool(s) and all(map(is_cjk, s))
)


def _add_spec_flags(p: argparse.ArgumentParser):
    p.add_argument("--latin", type=latin_letters, default=DEFAULT_LATIN)
    p.add_argument("--cjk", type=cjk_chars, default=DEFAULT_CJK)
    p.add_argument("--feature-dim", type=positive_int, default=12)
    p.add_argument("--sigma", type=nonnegative_float, default=0.4)
    p.add_argument("--p-switch", type=probability, default=0.3)


def _spec(args, seed: int) -> synth.SynthSpec:
    return synth.make_spec(
        args.latin, args.cjk, args.feature_dim, args.sigma, args.p_switch, seed
    )


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--lr", type=nonnegative_float, default=training.TrainConfig.learning_rate)
    p.add_argument("--momentum", type=momentum_factor, default=training.TrainConfig.momentum)
    p.add_argument("--no-nesterov", action="store_true")
    p.add_argument("--batch-size", type=positive_int, default=training.TrainConfig.batch_size)
    p.add_argument("--epochs", type=positive_int, default=10)


def _add_fusion_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=finite_float, default=decoder.FusionConfig.alpha)
    p.add_argument("--beta", type=finite_float, default=decoder.FusionConfig.beta)
    p.add_argument("--beam", type=positive_int, default=decoder.FusionConfig.beam_width)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csasr",
        description="Bilingual CTC speech recognition toolkit on synthetic data.",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-dir", type=Path, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic feature corpus")
    p.add_argument("--language", choices=training.LANGUAGES, required=True)
    p.add_argument("--count", type=positive_int, required=True)
    _add_spec_flags(p)
    p.add_argument("--tag", default=None)
    p.add_argument("--vocab-out", type=Path, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-lm", help="train a Kneser-Ney n-gram LM to ARPA")
    p.add_argument("--corpus", required=True, help="normalized text, one utterance per line")
    p.add_argument("--order", type=positive_int, default=5)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_lm)

    p = sub.add_parser("perplexity", help="evaluate an ARPA LM on a text corpus")
    p.add_argument("--lm", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("train", help="train an acoustic model (joint or single-set)")
    p.add_argument("--vocab", required=True)
    p.add_argument("--manifest")
    p.add_argument("--l1-manifest")
    p.add_argument("--l2-manifest")
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.add_argument("--hidden", type=positive_int, default=64)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="continue training from a checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--fraction", type=unit_fraction, default=1.0)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("decode", help="beam-search decode grids or a manifest")
    p.add_argument("--vocab", required=True)
    p.add_argument("--grid")
    p.add_argument("--checkpoint")
    p.add_argument("--manifest")
    p.add_argument("--lm")
    _add_fusion_flags(p)
    p.add_argument("--nbest", type=positive_int, default=1)
    p.add_argument("--hyp-out", type=Path, default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("evaluate", help="score line-aligned hypothesis/reference files")
    p.add_argument("--ref", required=True)
    p.add_argument("--hyp", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "run-matrix",
        help="CER grid: {scratch, pretrained+finetuned} x data fractions x LM fusion",
    )
    _add_spec_flags(p)
    p.add_argument("--mono-count", type=positive_int, default=150)
    p.add_argument("--cs-count", type=cs_count, default=240)
    p.add_argument("--test-count", type=positive_int, default=100)
    p.add_argument("--hidden", type=positive_int, default=12)
    p.add_argument("--lr", type=nonnegative_float, default=0.008)
    p.add_argument("--momentum", type=momentum_factor, default=training.TrainConfig.momentum)
    p.add_argument("--batch-size", type=positive_int, default=training.TrainConfig.batch_size)
    p.add_argument("--pretrain-epochs", type=positive_int, default=6)
    p.add_argument("--finetune-epochs", type=positive_int, default=3)
    p.add_argument("--lm-order", type=positive_int, default=5)
    p.add_argument("--lm-text-count", type=positive_int, default=1500)
    _add_fusion_flags(p)
    p.set_defaults(func=cmd_run_matrix)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not logging.getLogger().handlers:
        logging.basicConfig(
            level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
        )
    try:
        args.func(args)
        return 0
    except (UsageError, MalformedFile, model_mod.VocabMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError) as e:
        print(f"error: missing file: {e.filename or e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
