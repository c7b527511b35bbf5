"""Command-line entry point wiring all modules into reproducible runs.

One binary with subcommands sharing config/provenance handling: every
command that owns an output directory drops a config.json snapshot with
the seed, so a run can be reproduced from its artifacts alone. Exit
codes: 0 ok, 1 computation error, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import ctc, decoder, lm, metrics, synth, training
from . import model as model_mod
from .features import extract_features, read_feat, read_wav
from .vocab import build_vocab, load_vocab, save_vocab

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


def _output_dir(args) -> Path:
    if args.output_dir is None:
        raise UsageError("--output-dir is required for this command")
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def _train_config(args, epochs: int, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        learning_rate=args.lr,
        momentum=args.momentum,
        nesterov=not args.no_nesterov,
        batch_size=args.batch_size,
        epochs=epochs,
        seed=seed,
    )


def _load_examples(manifest_path, vocab):
    p = _require_file(manifest_path)
    entries = training.load_manifest(p)
    return training.load_examples(entries, vocab, base_dir=p.parent)


def cmd_synth(args) -> None:
    out = _output_dir(args)
    spec = synth.make_spec(
        args.latin, args.cjk, args.feature_dim, args.sigma, args.p_switch, args.seed
    )
    tag = args.tag or args.language
    entries = synth.synth_corpus(spec, args.language, args.count, out, tag=tag)
    if args.vocab_out:
        save_vocab(_inventory_vocab(spec), args.vocab_out)
    _write_config(out, args)
    print(f"wrote {len(entries)} utterances under {out / (tag + '_manifest.csv')}")


def _read_lm_corpus(path) -> list[list[lm.Token]]:
    lines = _require_file(path).read_text(encoding="utf-8").splitlines()
    return [lm.tokenize_lm(line) for line in lines if line.strip()]


def cmd_train_lm(args) -> None:
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
    vocab = load_vocab(_require_file(args.vocab))
    if args.l1_manifest and args.l2_manifest:
        l1 = _load_examples(args.l1_manifest, vocab)
        l2 = _load_examples(args.l2_manifest, vocab)
        pool = l1 + l2
    elif args.manifest:
        pool = _load_examples(args.manifest, vocab)
    else:
        raise UsageError("provide --manifest or both --l1-manifest and --l2-manifest")
    if not pool:
        raise UsageError("no training examples in manifest")
    cfg = _train_config(args, args.epochs, args.seed)
    model = model_mod.init_model(
        pool[0].frames.shape[1], len(vocab), args.hidden, args.seed
    )
    if args.l1_manifest and args.l2_manifest:
        training.run_joint_training(model, l1, l2, cfg)
    else:
        training.train_epochs(model, pool, cfg)
    model_mod.save_checkpoint(model, args.out, vocab)
    print(f"wrote {args.out}")


def cmd_finetune(args) -> None:
    vocab = load_vocab(_require_file(args.vocab))
    model = model_mod.load_checkpoint(_require_file(args.checkpoint), vocab)
    examples = _load_examples(args.manifest, vocab)
    cfg = _train_config(args, args.epochs, args.seed)
    training.run_finetune(model, examples, cfg, args.fraction)
    model_mod.save_checkpoint(model, args.out, vocab)
    print(f"wrote {args.out}")


def _decode_grid(grid, vocab, cfg, lm_model, nbest):
    return decoder.beam_decode(grid, vocab, cfg, lm_model, nbest=nbest)


def cmd_decode(args) -> None:
    vocab = load_vocab(_require_file(args.vocab))
    lm_model = lm.read_arpa(_require_file(args.lm)) if args.lm else None
    cfg = decoder.FusionConfig(args.alpha, args.beta, args.beam)
    if args.grid:
        grids = [ctc.read_grid(_require_file(args.grid))]
    elif args.checkpoint and args.manifest:
        am = model_mod.load_checkpoint(_require_file(args.checkpoint), vocab)
        manifest = _require_file(args.manifest)
        grids = []
        for entry in training.load_manifest(manifest):
            p = Path(entry.path)
            if not p.is_absolute():
                p = manifest.parent / p
            frames = extract_features(read_wav(p)) if p.suffix == ".wav" else read_feat(p)
            grids.append(model_mod.forward(am, frames))
    else:
        raise UsageError("provide --grid or both --checkpoint and --manifest")

    top_texts = []
    for grid in grids:
        hyps = _decode_grid(grid, vocab, cfg, lm_model, args.nbest)
        top_texts.append(hyps[0].text)
        for h in hyps:
            print(f"{h.score:.6f}\t{h.text}")
    if args.hyp_out:
        Path(args.hyp_out).write_text(
            "".join(t + "\n" for t in top_texts), encoding="utf-8"
        )


def cmd_evaluate(args) -> None:
    refs = _require_file(args.ref).read_text(encoding="utf-8").splitlines()
    hyps = _require_file(args.hyp).read_text(encoding="utf-8").splitlines()
    if len(refs) != len(hyps):
        raise UsageError(
            f"line counts differ: {len(refs)} references vs {len(hyps)} hypotheses"
        )
    if not refs:
        raise UsageError(f"no references in {args.ref}")
    for n, ref in enumerate(refs, 1):
        if not ref.strip():
            raise UsageError(f"{args.ref}: line {n}: reference is empty")
    cer_report = metrics.corpus_cer(refs, hyps)
    wer_report = metrics.corpus_wer(refs, hyps)
    points = [metrics.switch_point_score(r, h) for r, h in zip(refs, hyps)]
    precision = sum(p for p, _ in points) / len(points)
    recall = sum(r for _, r in points) / len(points)

    print(f"{'metric':<18}{'value':>10}")
    print(f"{'cer %':<18}{cer_report.rate:>10.2f}")
    print(f"{'wer %':<18}{wer_report.rate:>10.2f}")
    print(f"{'switch precision':<18}{precision:>10.2f}")
    print(f"{'switch recall':<18}{recall:>10.2f}")
    print(f"cer={cer_report.rate:.2f}")
    print(f"wer={wer_report.rate:.2f}")
    print(
        f"substitutions={cer_report.substitutions} insertions={cer_report.insertions} "
        f"deletions={cer_report.deletions} reference_length={cer_report.reference_length}"
    )
    print(f"switch_precision={precision:.4f} switch_recall={recall:.4f}")


TABLE_ROWS = ("scratch", "joint+finetune")
TABLE_COLS = ("10%", "50%", "100%", "100%+LM")


def run_matrix(out_dir: Path, seed: int, opts) -> dict[tuple[str, str], float]:
    """Train the 2x{10%,50%,100%,100%+LM} grid on synthetic data and write
    the CER matrix; identical seeds give byte-identical artifacts."""
    out_dir.mkdir(parents=True, exist_ok=True)
    data_dir = out_dir / "data"
    spec = synth.make_spec(
        opts.latin, opts.cjk, opts.feature_dim, opts.sigma, opts.p_switch, seed
    )
    vocab = _inventory_vocab(spec)
    save_vocab(vocab, out_dir / "vocab.txt")

    l1 = synth.synth_corpus(spec, "L1", opts.mono_count, data_dir, tag="l1_train")
    l2 = synth.synth_corpus(spec, "L2", opts.mono_count, data_dir, tag="l2_train")
    cs_train = synth.synth_corpus(spec, "mixed", opts.cs_count, data_dir, tag="cs_train")
    cs_test = synth.synth_corpus(spec, "mixed", opts.test_count, data_dir, tag="cs_test")

    lm_text = synth.sample_text_corpus(spec, "mixed", opts.lm_text_count, "lm_text")
    lm_lines = [e.transcript for e in cs_train] + lm_text
    lm_model = lm.train_kn([lm.tokenize_lm(s) for s in lm_lines], order=opts.lm_order)
    lm.write_arpa(lm_model, out_dir / "lm.arpa")

    l1_x = training.load_examples(l1, vocab, data_dir)
    l2_x = training.load_examples(l2, vocab, data_dir)
    cs_x = training.load_examples(cs_train, vocab, data_dir)
    test_x = training.load_examples(cs_test, vocab, data_dir)
    refs = [e.transcript for e in cs_test]

    feature_dim = opts.feature_dim
    base_cfg = decoder.FusionConfig(alpha=0.0, beta=0.0, beam_width=opts.beam)
    fused_cfg = decoder.FusionConfig(opts.alpha, opts.beta, opts.beam)

    def new_cfg(epochs: int, seed_offset: int) -> training.TrainConfig:
        return training.TrainConfig(
            learning_rate=opts.lr,
            momentum=opts.momentum,
            nesterov=True,
            batch_size=opts.batch_size,
            epochs=epochs,
            seed=seed + seed_offset,
        )

    def test_cer(am, cfg, fusion_lm) -> float:
        hyps = []
        for ex in test_x:
            grid = model_mod.forward(am, ex.frames)
            hyps.append(decoder.beam_decode(grid, vocab, cfg, fusion_lm, nbest=1)[0].text)
        return metrics.corpus_cer(refs, hyps).rate

    joint = model_mod.init_model(feature_dim, len(vocab), opts.hidden, seed + 11)
    training.run_joint_training(joint, l1_x, l2_x, new_cfg(opts.pretrain_epochs, 1))

    matrix: dict[tuple[str, str], float] = {}
    full_models = {}
    for fraction, col in ((0.1, "10%"), (0.5, "50%"), (1.0, "100%")):
        scratch = model_mod.init_model(feature_dim, len(vocab), opts.hidden, seed + 12)
        training.run_finetune(scratch, cs_x, new_cfg(opts.finetune_epochs, 2), fraction)
        matrix[("scratch", col)] = test_cer(scratch, base_cfg, None)

        tuned = joint.copy()
        training.run_finetune(tuned, cs_x, new_cfg(opts.finetune_epochs, 3), fraction)
        matrix[("joint+finetune", col)] = test_cer(tuned, base_cfg, None)
        logger.info(
            "fraction %s: scratch %.2f, joint+finetune %.2f",
            col, matrix[("scratch", col)], matrix[("joint+finetune", col)],
        )
        if fraction == 1.0:
            full_models = {"scratch": scratch, "joint+finetune": tuned}

    for row in TABLE_ROWS:
        matrix[(row, "100%+LM")] = test_cer(full_models[row], fused_cfg, lm_model)

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


def _add_train_flags(p: argparse.ArgumentParser, default_lr: float, default_epochs: int):
    p.add_argument("--lr", type=float, default=default_lr)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--no-nesterov", action="store_true")
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--epochs", type=int, default=default_epochs)
    p.add_argument("--hidden", type=int, default=64)


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
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--latin", default=DEFAULT_LATIN)
    p.add_argument("--cjk", default=DEFAULT_CJK)
    p.add_argument("--feature-dim", type=int, default=12)
    p.add_argument("--sigma", type=float, default=0.4)
    p.add_argument("--p-switch", type=float, default=0.3)
    p.add_argument("--tag", default=None)
    p.add_argument("--vocab-out", type=Path, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train-lm", help="train a Kneser-Ney n-gram LM to ARPA")
    p.add_argument("--corpus", required=True, help="normalized text, one utterance per line")
    p.add_argument("--order", type=int, default=5)
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
    _add_train_flags(p, default_lr=3e-4, default_epochs=10)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("finetune", help="continue training from a checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_train_flags(p, default_lr=3e-4, default_epochs=10)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("decode", help="beam-search decode grids or a manifest")
    p.add_argument("--vocab", required=True)
    p.add_argument("--grid")
    p.add_argument("--checkpoint")
    p.add_argument("--manifest")
    p.add_argument("--lm")
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--beam", type=int, default=100)
    p.add_argument("--nbest", type=int, default=1)
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
    p.add_argument("--latin", default=DEFAULT_LATIN)
    p.add_argument("--cjk", default=DEFAULT_CJK)
    p.add_argument("--feature-dim", type=int, default=12)
    p.add_argument("--sigma", type=float, default=0.4)
    p.add_argument("--p-switch", type=float, default=0.3)
    p.add_argument("--mono-count", type=int, default=150)
    p.add_argument("--cs-count", type=int, default=240)
    p.add_argument("--test-count", type=int, default=100)
    p.add_argument("--hidden", type=int, default=12)
    p.add_argument("--lr", type=float, default=0.008)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--batch-size", type=int, default=20)
    p.add_argument("--pretrain-epochs", type=int, default=6)
    p.add_argument("--finetune-epochs", type=int, default=3)
    p.add_argument("--lm-order", type=int, default=5)
    p.add_argument("--lm-text-count", type=int, default=1500)
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--beam", type=int, default=100)
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
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: missing file: {e.filename or e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
