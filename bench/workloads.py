"""The benchmark's workloads: `decode`, `train` and `recipe`.

Each workload makes its inputs from the workload seed, sets up, runs timed
passes, and checks every output of a pass. The sizes are run-matrix's
defaults (`cli.build_parser()` supplies them), so the workloads follow the
CLI; the smoke test shrinks them through `overrides`.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path

from csasr import cli, ctc, decoder, lm, metrics, model, synth, training
from csasr import vocab as vocab_mod

# cer_matrix.csv of `run-matrix --seed 0 --beam 10` at the default sizes.
RECIPE_SEED0_SHA256 = "88a192ac2161fd341584a402f34b8d7971976fd980f424bfb37a232e734cf2e7"

# run-matrix draws utterance lengths from its seed: over seeds 0-9 the frame
# totals of its corpora spread by 12-19% (interquartile range over median),
# and run-matrix at beam 10 took 19.1-28.6 s over seeds 0-6. That is seed
# noise larger than any timing bound, so a workload seed n uses the first
# run-matrix seed of n, n + SEED_STRIDE, n + 2 * SEED_STRIDE, ... whose frame
# totals lie within SIZE_TOLERANCE of seed 0's: the content follows the seed,
# the work per pass does not. Seed 0 maps to itself.
SIZE_TOLERANCE = 0.03
SEED_STRIDE = 1000
MAX_CANDIDATES = 20000

# Tiny run-matrix run that warms imports and lazily built state in recipe's
# set-up; 10 code-switched utterances is the least that leaves one for the
# 10% fine-tuning cell. Its seed is fixed: with so few utterances, lengths
# drawn from the workload seed moved the warm-up's time by up to 1.7x
# between seeds, and it exists only to warm up.
WARMUP_SIZES = dict(
    mono_count=4, cs_count=10, test_count=2, lm_text_count=10,
    pretrain_epochs=1, finetune_epochs=1,
)
WARMUP_SEED = 0


@dataclass(frozen=True)
class Sizes:
    overrides: dict = field(default_factory=dict)  # run-matrix options
    decode_beam: int = 100
    recipe_beam: int = 10
    decode_utts: int = 50  # test utterances per decode pass, each decoded twice
    min_decodes: int = 100  # per run, so that 10 lie beyond p90
    setup_reps: int = 3  # at least, and
    setup_min_s: float = 6.0  # until set-up has taken this long in all

    def opts(self):
        opts = cli.build_parser().parse_args(["run-matrix"])
        for key, value in self.overrides.items():
            if not hasattr(opts, key):
                raise ValueError(f"unknown run-matrix option {key!r}")
            setattr(opts, key, value)
        return opts

    def flags(self) -> list[str]:
        out = []
        for key, value in self.overrides.items():
            out += ["--" + key.replace("_", "-"), str(value)]
        return out


def make_spec(opts, seed: int) -> synth.SynthSpec:
    return synth.make_spec(
        opts.latin, opts.cjk, opts.feature_dim, opts.sigma, opts.p_switch, seed
    )


def _lengths(spec, language: str, count: int, tag: str) -> list[int]:
    # sample_text_corpus draws the transcripts synth_corpus writes for a tag
    texts = synth.sample_text_corpus(spec, language, count, tag)
    return [sum(spec.durations[ch] for ch in text) for text in texts]


def _frame_totals(sizes: Sizes, seed: int):
    """Decode-pass, test-set and training frame totals, cheapest first."""
    opts = sizes.opts()
    spec = make_spec(opts, seed)
    test = _lengths(spec, "mixed", opts.test_count, "cs_test")
    yield sum(test[: sizes.decode_utts])
    yield sum(test)
    yield (
        sum(_lengths(spec, "L1", opts.mono_count, "l1_train"))
        + sum(_lengths(spec, "L2", opts.mono_count, "l2_train"))
        + sum(_lengths(spec, "mixed", opts.cs_count, "cs_train"))
    )


def data_seed(seed: int, sizes: Sizes) -> int:
    """The run-matrix seed whose corpora workload seed `seed` uses."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    reference = list(_frame_totals(sizes, 0))
    for k in range(MAX_CANDIDATES):
        candidate = seed + SEED_STRIDE * k
        if all(
            abs(got - want) <= SIZE_TOLERANCE * want
            for got, want in zip(_frame_totals(sizes, candidate), reference)
        ):
            return candidate
    raise RuntimeError(f"no size-matched corpus seed for seed {seed}")


@dataclass
class Corpora:
    vocab: vocab_mod.GraphemeVocab
    l1: list
    l2: list
    cs: list
    test: list
    refs: list[str]
    cs_texts: list[str]


def write_corpora(opts, seed: int, out_dir: Path) -> Corpora:
    """run-matrix's four corpora, written to disk and read back as it does."""
    spec = make_spec(opts, seed)
    vocab = vocab_mod.build_vocab(["".join(sorted(spec.templates))])
    data = out_dir / "data"
    plan = (
        ("L1", opts.mono_count, "l1_train"),
        ("L2", opts.mono_count, "l2_train"),
        ("mixed", opts.cs_count, "cs_train"),
        ("mixed", opts.test_count, "cs_test"),
    )
    entries = [synth.synth_corpus(spec, lang, n, data, tag=tag) for lang, n, tag in plan]
    l1, l2, cs, test = (training.load_examples(e, vocab, data) for e in entries)
    return Corpora(
        vocab, l1, l2, cs, test,
        [e.transcript for e in entries[3]], [e.transcript for e in entries[2]],
    )


def train_model(opts, seed: int, data: Corpora):
    """Joint pretraining then full fine-tuning, seeded like run-matrix's
    joint+finetune 100% cell. Returns the model and both loss histories."""

    def config(epochs: int, offset: int) -> training.TrainConfig:
        return training.TrainConfig(
            opts.lr, opts.momentum, True, opts.batch_size, epochs, seed + offset
        )

    am = model.init_model(opts.feature_dim, len(data.vocab), opts.hidden, seed + 11)
    joint = training.run_joint_training(am, data.l1, data.l2, config(opts.pretrain_epochs, 1))
    tuned = training.run_finetune(am, data.cs, config(opts.finetune_epochs, 3), 1.0)
    return am, joint, tuned


def check_hypothesis(grid, hyp, vocab, cfg, lm_model) -> str | None:
    """None if the beam's top hypothesis is consistent, else the reason.

    Pruning only drops paths, so the beam's score can never exceed the
    exact fused score Q of its transcript, recomputed here from the full
    CTC marginal."""
    if not math.isfinite(hyp.score):
        return f"non-finite score {hyp.score}"
    try:
        if hyp.text != vocab_mod.decode_ids(hyp.ids, vocab):
            return f"text {hyp.text!r} does not spell ids {hyp.ids}"
        ctc_logp = -ctc.ctc_loss(grid, hyp.ids).loss
    except ValueError as e:  # invalid ids, or a target the grid cannot align
        return f"hypothesis {hyp.text!r} is not a CTC output of its grid: {e}"
    q = decoder.fused_score(hyp.text, ctc_logp, lm_model, cfg)
    if hyp.score > q + 1e-9 * max(1.0, abs(q)):
        return f"beam score {hyp.score!r} exceeds exact Q {q!r} for {hyp.text!r}"
    return None


class Workload:
    min_passes = 1
    traced_setup = True  # set-up builds what the passes consume

    def __init__(self, sizes: Sizes, seed: int):
        self.sizes = sizes
        self.opts = sizes.opts()
        self.seed = data_seed(seed, sizes)
        self.first = None  # output of the first pass, for determinism checks

    def setup(self, work_dir: Path):
        raise NotImplementedError

    def run_pass(self, state, work_dir: Path):
        raise NotImplementedError

    def check(self, state, output) -> list[str]:
        raise NotImplementedError

    def cer_pct(self, output) -> float:
        raise NotImplementedError

    def same_as_first(self, key) -> list[str]:
        if self.first is None:
            self.first = key
            return []
        return [] if key == self.first else ["pass output differs from the first pass"]


@dataclass
class DecodeState:
    data: Corpora
    am: model.ToyAcousticModel
    configs: tuple  # (FusionConfig, LM or None): without the LM, then with it


class Decode(Workload):
    def setup(self, work_dir):
        opts, beam = self.opts, self.sizes.decode_beam
        data = write_corpora(opts, self.seed, work_dir)
        lm_text = synth.sample_text_corpus(
            make_spec(opts, self.seed), "mixed", opts.lm_text_count, "lm_text"
        )
        lm_model = lm.train_kn(
            [lm.tokenize_lm(s) for s in data.cs_texts + lm_text], order=opts.lm_order
        )
        lm.write_arpa(lm_model, work_dir / "lm.arpa")
        am, _, _ = train_model(opts, self.seed, data)
        configs = (
            (decoder.FusionConfig(0.0, 0.0, beam), None),
            (decoder.FusionConfig(opts.alpha, opts.beta, beam), lm_model),
        )
        return DecodeState(data, am, configs)

    def run_pass(self, state, work_dir):
        decodes = []
        for ex in state.data.test[: self.sizes.decode_utts]:
            for cfg, lm_model in state.configs:
                grid = model.forward(state.am, ex.frames)
                hyp = decoder.beam_decode(grid, state.data.vocab, cfg, lm_model, nbest=1)[0]
                decodes.append((grid, hyp, cfg, lm_model))
        fused = [hyp.text for _, hyp, _, lm_model in decodes if lm_model is not None]
        return decodes, metrics.corpus_cer(state.data.refs[: len(fused)], fused).rate

    def check(self, state, output):
        decodes, _ = output
        failures = []
        for i, (grid, hyp, cfg, lm_model) in enumerate(decodes):
            reason = check_hypothesis(grid, hyp, state.data.vocab, cfg, lm_model)
            if reason:
                failures.append(f"decode {i}: {reason}")
        return failures + self.same_as_first([(d[1].ids, d[1].score) for d in decodes])

    def cer_pct(self, output):
        return output[1]


class Train(Workload):
    min_passes = 2  # the second pass checks that training is deterministic

    def setup(self, work_dir):
        return write_corpora(self.opts, self.seed, work_dir)

    def run_pass(self, data, work_dir):
        am, joint, tuned = train_model(self.opts, self.seed, data)
        hyps = [
            vocab_mod.decode_ids(decoder.greedy_decode(model.forward(am, ex.frames)), data.vocab)
            for ex in data.test
        ]
        return joint, tuned, metrics.corpus_cer(data.refs, hyps).rate

    def check(self, data, output):
        failures = []
        for tag, history in zip(("joint", "finetune"), output[:2]):
            if not all(math.isfinite(x) for x in history):
                failures.append(f"{tag}: non-finite epoch loss in {history}")
            elif len(history) > 1 and not history[-1] < history[0]:
                failures.append(f"{tag}: last epoch loss {history[-1]} not below first {history[0]}")
        return failures + self.same_as_first(output)

    def cer_pct(self, output):
        return output[2]


class Recipe(Workload):
    min_passes = 2  # cer_matrix.csv must repeat byte for byte
    traced_setup = False  # set-up only warms up; its layers are not the workload's

    def _run_matrix(self, seed, out_dir, flags) -> bytes:
        argv = ["--seed", str(seed), "--output-dir", str(out_dir), "run-matrix"] + flags
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"run-matrix exited with {code}")
        table = (out_dir / "cer_matrix.csv").read_bytes()
        shutil.rmtree(out_dir)
        return table

    def setup(self, work_dir):
        warmup = Sizes({**WARMUP_SIZES, "beam": self.sizes.recipe_beam}).flags()
        self._run_matrix(WARMUP_SEED, work_dir / "warmup", warmup)

    def run_pass(self, state, work_dir):
        flags = ["--beam", str(self.sizes.recipe_beam)] + self.sizes.flags()
        return self._run_matrix(self.seed, work_dir / "matrix", flags)

    def check(self, state, table):
        failures = self.same_as_first(table)
        m = self.matrix(table)
        ft, sc = m["joint+finetune"], m["scratch"]
        # criterion 7's ordering: pretraining beats scratch at every fraction,
        # and half the data fine-tuned is within 3 points of all of it from
        # scratch. Its fusion-gain clause is a beam-100 seed-0 result: at beam
        # 10 fusion raised CER on seeds 2 and 3, so it is not checked here.
        for col in ("10%", "50%", "100%"):
            if not ft[col] < sc[col]:
                failures.append(f"joint+finetune {ft[col]} not below scratch {sc[col]} at {col}")
        if not ft["50%"] <= sc["100%"] + 3.0:
            failures.append(f"joint+finetune 50% {ft['50%']} not within 3 of scratch 100% {sc['100%']}")
        default = self.seed == 0 and not self.sizes.overrides and self.sizes.recipe_beam == 10
        if default and hashlib.sha256(table).hexdigest() != RECIPE_SEED0_SHA256:
            failures.append("cer_matrix.csv differs from the known seed-0 table")
        return failures

    @staticmethod
    def matrix(table: bytes) -> dict[str, dict[str, float]]:
        rows = list(csv.reader(io.StringIO(table.decode("utf-8"))))
        header = rows[0][1:]
        return {row[0]: dict(zip(header, map(float, row[1:]))) for row in rows[1:]}

    def cer_pct(self, table):
        return self.matrix(table)["joint+finetune"]["100%+LM"]


WORKLOADS = {"decode": Decode, "train": Train, "recipe": Recipe}
