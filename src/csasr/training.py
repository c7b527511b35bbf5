"""Training loops: Nesterov SGD on CTC loss, bucketed batching, and the
joint-training-then-fine-tune schedule.

Batches come from duration-sorted buckets whose order is shuffled per
epoch by seed; infeasible utterances inside a batch are skipped and
counted rather than raised, so long as at least one item is usable.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import model as model_mod
from .ctc import InfeasibleTarget, ctc_loss_batch
from .ctc import ctc_loss  # noqa: F401 - bench/tracer.py wraps training.ctc_loss by name
from .features import TooShort, extract_features, read_feat, read_wav
from .vocab import GraphemeVocab, MalformedFile, UnknownGrapheme, encode, read_utf8

logger = logging.getLogger(__name__)

MANIFEST_FIELDS = ("path", "transcript", "language", "duration_ms")
LANGUAGES = ("L1", "L2", "mixed")


class MalformedManifest(MalformedFile):
    pass


class EmptyBatch(ValueError):
    pass


class AllInfeasible(ValueError):
    """Every utterance in the batch failed the CTC length precondition."""


# an epoch loss above this multiple of the first epoch's means training diverged
DIVERGENCE_FACTOR = 2.0


class Diverged(ArithmeticError):
    """Training produced a non-finite batch loss or update, or an epoch loss
    above DIVERGENCE_FACTOR times the first epoch's; no model should be kept."""

    def __init__(self, tag: str, epoch: int, batch: int, reason: str):
        super().__init__(f"{tag} diverged at epoch {epoch}, batch {batch}: {reason}")
        self.tag, self.epoch, self.batch = tag, epoch, batch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 3e-4
    momentum: float = 0.9
    nesterov: bool = True
    batch_size: int = 20
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if not 0.0 <= self.momentum < 1.0:  # also refuses nan
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    transcript: str
    language: str
    duration_ms: int
    # the manifest row it was read from, 0 for an entry made in memory
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Example:
    frames: np.ndarray
    target: tuple[int, ...]
    duration_ms: int
    language: str


def save_manifest(entries: Sequence[ManifestEntry], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(MANIFEST_FIELDS)
        for e in entries:
            writer.writerow([e.path, e.transcript, e.language, e.duration_ms])


def load_manifest(path, vocab: GraphemeVocab | None = None) -> list[ManifestEntry]:
    """The entries of a manifest; with a vocab, a transcript holding a
    grapheme outside it raises MalformedManifest at its row."""
    reader = csv.reader(io.StringIO(read_utf8(path), newline=""))
    try:
        header = next(reader, ())
        rows = [(reader.line_num, row) for row in reader if row]
    except csv.Error as e:
        raise MalformedManifest(path, reader.line_num, str(e)) from None
    if tuple(header) != MANIFEST_FIELDS:
        raise MalformedManifest(path, 1, f"expected header {','.join(MANIFEST_FIELDS)}")
    entries = []
    for line, row in rows:
        if len(row) != len(MANIFEST_FIELDS):
            raise MalformedManifest(
                path, line, f"expected {len(MANIFEST_FIELDS)} fields, found {len(row)}"
            )
        try:
            entries.append(ManifestEntry(*row[:3], int(row[3]), line))
        except ValueError:
            raise MalformedManifest(
                path, line, f"duration_ms {row[3]!r} is not an integer"
            ) from None
        if vocab is not None:
            try:
                encode(row[1], vocab)
            except UnknownGrapheme as e:
                raise MalformedManifest(path, line, f"{e} in the transcript") from None
    return entries


def load_frames(entry: ManifestEntry, base_dir=None) -> np.ndarray:
    """Features of one entry, its path taken relative to base_dir: .wav
    files go through extraction, other files are read as .feat matrices.
    A .wav shorter than one analysis window raises MalformedFile at it."""
    p = Path(entry.path)
    if base_dir is not None and not p.is_absolute():
        p = Path(base_dir) / p
    if p.suffix != ".wav":
        return read_feat(p)
    try:
        return extract_features(read_wav(p))
    except TooShort as e:
        raise MalformedFile(p, 1, str(e)) from None


def make_example(entry: ManifestEntry, frames: np.ndarray, vocab: GraphemeVocab) -> Example:
    target = tuple(encode(entry.transcript, vocab))
    return Example(frames, target, entry.duration_ms, entry.language)


def load_examples(
    entries: Iterable[ManifestEntry], vocab: GraphemeVocab, base_dir=None
) -> list[Example]:
    return [make_example(e, load_frames(e, base_dir), vocab) for e in entries]


def _by_duration(examples: Sequence[Example]) -> list[int]:
    return sorted(range(len(examples)), key=lambda i: (examples[i].duration_ms, i))


def make_batches(
    examples: Sequence[Example], batch_size: int, seed: int
) -> list[list[Example]]:
    """Duration-sorted buckets of batch_size; bucket order shuffled by seed,
    order within each bucket preserved."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = _by_duration(examples)
    buckets = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    random.Random(seed).shuffle(buckets)
    return [[examples[i] for i in bucket] for bucket in buckets]


class SgdTrainer:
    """SGD with momentum and optional Nesterov acceleration.

    v <- mu*v + g; step = g + mu*v when nesterov, else v. With mu = 0 both
    reduce to plain SGD.
    """

    def __init__(self, model: model_mod.ToyAcousticModel, cfg: TrainConfig):
        self.model = model
        self.cfg = cfg
        self.velocity = {k: np.zeros_like(v) for k, v in model.params.items()}

    def step(
        self, batch: Sequence[Example]
    ) -> tuple[float, int, dict[str, list[float]]]:
        """One update from the mean CTC gradient over the feasible batch items.

        Forward, CTC and BPTT each run one frame loop for the whole batch,
        and hand each other one stacked (sum of T, V) array: forward's
        log-probabilities, which CTC checks once, row by row, and
        overwrites with the gradients, which BPTT reads as they are, with
        forward's padded states. Every item goes to BPTT; an infeasible
        one's gradient rows are zeros, so it adds +-0.0 to sums that start
        from +0.0 and leaves them as they were. The update is bit-identical
        to one built an utterance at a time: every value is the same
        elementwise operation or per-utterance BLAS call, each gamma cell
        adds in s order from 0.0, each utterance's w_xh, b_h and w_hh
        gradients add frame by frame from 0.0, padded cells add +-0.0, and
        the per-utterance gradients are summed in batch order.

        Returns (mean loss, count skipped as infeasible, the feasible
        losses by language).
        """
        if not batch:
            raise EmptyBatch("batch has no items")
        frames = [ex.frames for ex in batch]
        hs, logp = model_mod.forward_batch(self.model, frames)
        results, grads = ctc_loss_batch(
            logp, [len(x) for x in frames], [ex.target for ex in batch]
        )
        losses = []
        by_language: dict[str, list[float]] = {}
        for ex, loss in zip(batch, results):
            if not isinstance(loss, InfeasibleTarget):
                losses.append(loss)
                by_language.setdefault(ex.language, []).append(loss)
        if not losses:
            raise AllInfeasible(f"all {len(batch)} items infeasible")
        total = model_mod.backward_batch(self.model, frames, hs, grads)

        cfg = self.cfg
        scale = 1.0 / len(losses)
        for k, p in self.model.params.items():
            g = total[k] * scale
            v = self.velocity[k]
            v *= cfg.momentum
            v += g
            step = g + cfg.momentum * v if cfg.nesterov else v
            p -= cfg.learning_rate * step
        return float(np.mean(losses)), len(batch) - len(losses), by_language


def train_epochs(
    model: model_mod.ToyAcousticModel,
    examples: Sequence[Example],
    cfg: TrainConfig,
    tag: str = "train",
) -> list[float]:
    """Standard epoch loop; returns per-epoch mean losses.

    Raises Diverged, naming the tag, epoch and batch (both counted from 1),
    as soon as a batch loss or the update it made is not finite, or after
    logging an epoch whose mean loss is above DIVERGENCE_FACTOR times the
    first epoch's (the batch named is then the epoch's last).
    """
    if not examples:
        raise ValueError("no training examples")
    trainer = SgdTrainer(model, cfg)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        batches = make_batches(examples, cfg.batch_size, cfg.seed + epoch - 1)
        epoch_losses = []
        lang_losses: dict[str, list[float]] = {}
        skipped = 0
        for b, batch in enumerate(batches, 1):
            loss, n_skip, by_language = trainer.step(batch)
            if not math.isfinite(loss):
                raise Diverged(tag, epoch, b, f"batch loss is {loss}")
            if not all(np.isfinite(v).all() for v in model.params.values()):
                raise Diverged(tag, epoch, b, "the update left non-finite parameters")
            epoch_losses.append(loss)
            skipped += n_skip
            for lang, vals in by_language.items():
                lang_losses.setdefault(lang, []).extend(vals)
        mean_loss = float(np.mean(epoch_losses))
        history.append(mean_loss)
        per_lang = " ".join(
            f"{lang}={np.mean(vals):.4f}" for lang, vals in sorted(lang_losses.items())
        )
        logger.info(
            "%s epoch %d/%d loss=%.4f %s skipped=%d",
            tag, epoch, cfg.epochs, mean_loss, per_lang, skipped,
        )
        if mean_loss > DIVERGENCE_FACTOR * history[0]:
            raise Diverged(
                tag, epoch, len(batches),
                f"epoch loss {mean_loss:.4f} is above {DIVERGENCE_FACTOR:g}x "
                f"the first epoch's {history[0]:.4f}",
            )
    return history


def run_joint_training(
    model: model_mod.ToyAcousticModel,
    l1_examples: Sequence[Example],
    l2_examples: Sequence[Example],
    cfg: TrainConfig,
) -> list[float]:
    """Train on the merged monolingual pool so batches interleave both
    languages; sequential per-language phases are deliberately not offered."""
    if not l1_examples or not l2_examples:
        raise ValueError("joint training requires non-empty sets for both languages")
    pool = list(l1_examples) + list(l2_examples)
    return train_epochs(model, pool, cfg, tag="joint")


def stratified_subset(examples: Sequence[Example], fraction: float) -> list[Example]:
    """Deterministic duration-stratified subset with floor(n*fraction) items."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    order = _by_duration(examples)
    chosen = [
        i
        for pos, i in enumerate(order)
        if math.floor((pos + 1) * fraction) > math.floor(pos * fraction)
    ]
    return [examples[i] for i in sorted(chosen)]


def run_finetune(
    model: model_mod.ToyAcousticModel,
    cs_examples: Sequence[Example],
    cfg: TrainConfig,
    fraction: float = 1.0,
) -> list[float]:
    subset = stratified_subset(cs_examples, fraction)
    return train_epochs(model, subset, cfg, tag=f"finetune[{fraction:g}]")
