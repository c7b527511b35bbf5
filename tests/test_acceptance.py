"""End-to-end acceptance gate.

One test per shipped guarantee, each printing a single pass/fail line.
Oracles are coded independently of the library: path enumeration for CTC
(reference_ctc.py), the exhaustive argmax of the fused objective over every
feasible labeling (reference_decoder.py), a from-counts Kneser-Ney
recursion for the LM (here), memoized recursion for edit distance
(reference_metrics.py), and central finite differences for gradients.
"""

import hashlib
import itertools
import math
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from csasr import lm as lm_mod
from csasr.cli import main
from csasr.ctc import PosteriorGrid, ctc_loss
from csasr.decoder import FusionConfig, beam_decode
from csasr.metrics import cer, edit_distance
from csasr.model import backward, forward, forward_states, init_model
from csasr.synth import make_spec, sample_text_corpus
from csasr.vocab import GraphemeVocab
from conftest import random_grid
from reference_ctc import ctc_loss_bruteforce
from reference_decoder import exhaustive_best
from reference_metrics import recursive_distance


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --- criterion 1: forward algorithm equals brute-force path enumeration ----


def test_criterion_1_ctc_loss_matches_bruteforce():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    worst = 0.0
    checked = 0
    while checked < 500:
        t = int(rng.integers(1, 7))
        v = int(rng.integers(2, 5))
        grid = random_grid(rng, t, v)
        length = int(rng.integers(0, 4))
        target = [int(rng.integers(1, v)) for _ in range(length)]
        if t < length + sum(a == b for a, b in zip(target, target[1:])):
            continue
        gap = abs(ctc_loss(grid, target).loss - ctc_loss_bruteforce(grid, target))
        worst = max(worst, gap)
        checked += 1
    elapsed = time.monotonic() - started
    _report(
        1,
        worst <= 1e-10 and elapsed < 30.0,
        f"max |loss - enumeration| = {worst:.2e} over 500 instances "
        f"(tol 1e-10), {elapsed:.1f}s (budget 30s)",
    )


# --- criterion 2: CTC gradient vs central finite differences ---------------


def test_criterion_2_ctc_gradient_matches_finite_differences():
    rng = np.random.default_rng(202)
    h = 1e-5
    worst = 0.0
    checked = 0
    while checked < 100:
        t = int(rng.integers(2, 7))
        v = int(rng.integers(2, 5))
        logits = rng.normal(size=(t, v))
        length = int(rng.integers(1, 3))
        target = [int(rng.integers(1, v)) for _ in range(length)]
        if t < length + sum(a == b for a, b in zip(target, target[1:])):
            continue
        checked += 1

        def loss_of(lg):
            lp = lg - np.logaddexp.reduce(lg, axis=1, keepdims=True)
            return ctc_loss(PosteriorGrid(lp), target).loss

        analytic = ctc_loss(
            PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)),
            target,
        ).grad
        for ti in range(t):
            for vi in range(v):
                up = logits.copy()
                up[ti, vi] += h
                down = logits.copy()
                down[ti, vi] -= h
                fd = (loss_of(up) - loss_of(down)) / (2 * h)
                a = analytic[ti, vi]
                rel = abs(a - fd) / max(abs(a), abs(fd), 1e-8)
                worst = max(worst, rel)
    _report(
        2,
        worst <= 1e-4,
        f"max relative gradient error = {worst:.2e} over 100 instances, "
        f"h = 1e-5 (tol 1e-4)",
    )


# --- criterion 3: beam search equals exhaustive argmax of the objective ----


def test_criterion_3_beam_search_is_exact_with_exhaustive_beam():
    setups = [
        (GraphemeVocab(("<blank>", "a", "b")), ("ab", "ba", "a", "aba")),
        (GraphemeVocab(("<blank>", "a", " ")), ("a a", "aa", "a", "a a a")),
        (GraphemeVocab(("<blank>", "a", "你")), ("a你", "你a", "你你a", "a")),
    ]
    prepared = [
        (vocab, lm_mod.train_kn([lm_mod.tokenize_lm(s) for s in corpus], order=1))
        for vocab, corpus in setups
    ]
    no_lm = FusionConfig(alpha=0.0, beta=0.0, beam_width=10_000)
    fused = FusionConfig(alpha=0.2, beta=1.0, beam_width=10_000)

    rng = np.random.default_rng(303)
    started = time.monotonic()
    mismatches = 0
    for i in range(200):
        vocab, unigram = prepared[i % len(prepared)]
        t = int(rng.integers(1, 6))
        grid = random_grid(rng, t, len(vocab))
        for cfg, model in ((no_lm, None), (fused, unigram)):
            got = beam_decode(grid, vocab, cfg, model)[0].ids
            want = exhaustive_best(grid, vocab, model, cfg)
            mismatches += got != want
    elapsed = time.monotonic() - started
    _report(
        3,
        mismatches == 0 and elapsed < 60.0,
        f"{mismatches} top-1 mismatches over 200 instances x "
        f"{{no LM, unigram LM (alpha=0.2, beta=1)}}, {elapsed:.1f}s (budget 60s)",
    )


# --- criterion 4: Kneser-Ney normalization, ARPA round-trip, perplexity ----


class KnOracle:
    """Interpolated Kneser-Ney recomputed from counts at every query.

    Same counting conventions as the library (top order raw, lower orders
    continuation except sentence-initial, one discount per order with the
    0.5 fallback, leftover unigram mass on the unknown token), but evaluated
    by direct top-down recursion instead of precomputed backoff tables.
    """

    BOS, EOS, UNK = "<s>", "</s>", "<unk>"

    def __init__(self, corpus, order):
        self.order = order
        raw = {k: Counter() for k in range(1, order + 1)}
        for sentence in corpus:
            words = list(sentence)
            padded = ([self.BOS] if order > 1 else []) + words + [self.EOS]
            for k in range(1, order + 1):
                for i in range(len(padded) - k + 1):
                    raw[k][tuple(padded[i : i + k])] += 1

        self.counts = {}
        for k in range(1, order + 1):
            if k == order:
                adjusted = dict(raw[k])
            else:
                continuation = Counter()
                for gram in raw[k + 1]:
                    continuation[gram[1:]] += 1
                adjusted = {
                    g: (n if g[0] == self.BOS else continuation[g])
                    for g, n in raw[k].items()
                }
            adjusted.pop((self.BOS,), None)
            self.counts[k] = adjusted

        self.discount = {}
        for k in range(1, order + 1):
            n1 = sum(1 for c in self.counts[k].values() if c == 1)
            n2 = sum(1 for c in self.counts[k].values() if c == 2)
            self.discount[k] = n1 / (n1 + 2 * n2) if n1 > 0 and n2 > 0 else 0.5

        self.ctx_sum = {k: Counter() for k in range(2, order + 1)}
        self.ctx_types = {k: Counter() for k in range(2, order + 1)}
        for k in range(2, order + 1):
            for gram, n in self.counts[k].items():
                self.ctx_sum[k][gram[:-1]] += n
                self.ctx_types[k][gram[:-1]] += 1

        self.total1 = sum(self.counts[1].values())
        self.types1 = len(self.counts[1])
        self.seen = {g[0] for g in self.counts[1]} | {self.BOS, self.UNK}

    def _p(self, context, w):
        k = len(context) + 1
        if k == 1:
            count = self.counts[1].get((w,))
            if count is None:
                return self.discount[1] * self.types1 / self.total1
            return (count - self.discount[1]) / self.total1
        total = self.ctx_sum[k].get(context)
        if not total:
            return self._p(context[1:], w)
        d = self.discount[k]
        held = max(self.counts[k].get(context + (w,), 0) - d, 0.0)
        bow = d * self.ctx_types[k][context] / total
        return held / total + bow * self._p(context[1:], w)

    def perplexity(self, corpus):
        total_log10 = 0.0
        events = 0
        for sentence in corpus:
            context = (self.BOS,) if self.order > 1 else ()
            words = list(sentence)
            for w in words + [self.EOS]:
                w = w if w in self.seen else self.UNK
                total_log10 += math.log10(self._p(context, w))
                context = (context + (w,))[-(self.order - 1) :] if self.order > 1 else ()
                events += 1
        return 10.0 ** (-total_log10 / events)


def test_criterion_4_kneser_ney_normalization_and_oracle():
    spec = make_spec("ab", "你我", feature_dim=4, seed=4)
    lines, tokens = [], 0
    for line in sample_text_corpus(spec, "mixed", 4000, "lm_acceptance"):
        lines.append(lm_mod.tokenize_lm(line))
        tokens += len(lines[-1])
        if tokens >= 10_000:
            break
    assert tokens >= 10_000
    model = lm_mod.train_kn(lines, order=5)

    events = {g[0] for g in model.tables[1]} - {lm_mod.BOS}
    contexts = {()} | {
        g[:-1] for k in range(2, 6) for g in model.tables[k]
    }
    worst_gap = 0.0
    for ctx in contexts:
        mass = sum(10.0 ** lm_mod.score(model, ctx, w)[0] for w in events)
        worst_gap = max(worst_gap, abs(mass - 1.0))
    norm_ok = worst_gap <= 1e-8

    with tempfile.TemporaryDirectory() as tmp:
        arpa = Path(tmp) / "m.arpa"
        lm_mod.write_arpa(model, arpa)
        back = lm_mod.read_arpa(arpa)
    round_gap = 0.0
    for k in range(1, 6):
        for gram, (logp, bow) in model.tables[k].items():
            logp2, bow2 = back.tables[k][gram]
            round_gap = max(round_gap, abs(logp2 - logp))
            if bow is not None:
                round_gap = max(round_gap, abs(bow2 - bow))
    round_ok = round_gap <= 1e-6

    # 20-token evaluation corpus, one deliberately out-of-vocabulary event
    eval_sentences, count = [], 0
    for line in sample_text_corpus(spec, "mixed", 50, "lm_acceptance_eval"):
        sent = lm_mod.tokenize_lm(line)
        if count + len(sent) > 19:
            sent = sent[: 19 - count]
        if sent:
            eval_sentences.append(sent)
        count += len(sent)
        if count >= 19:
            break
    eval_sentences[-1] = eval_sentences[-1] + ["zzzq"]  # one OOV event
    assert sum(len(s) for s in eval_sentences) == 20

    got = lm_mod.perplexity(model, eval_sentences)
    want = KnOracle(lines, 5).perplexity(eval_sentences)
    ppl_rel = abs(got - want) / want
    ppl_ok = ppl_rel <= 1e-6

    _report(
        4,
        norm_ok and round_ok and ppl_ok,
        f"context-mass gap {worst_gap:.2e} over {len(contexts)} contexts "
        f"(tol 1e-8); ARPA round-trip gap {round_gap:.2e} (tol 1e-6); "
        f"perplexity vs oracle rel {ppl_rel:.2e} (tol 1e-6)",
    )


# --- criterion 5: edit distance oracle + known bilingual CER pair ----------


CER_PAIR_REF = "then 你 做 什么 before what kind of job"
CER_PAIR_HYP = "你 做 什么 可是 what 他 要 dro"
CER_PAIR_RATE = 48.57


def test_criterion_5_edit_distance_oracle_and_known_pair():
    alphabet = "abc"
    mismatches = 0
    strings_by_len = {
        n: ["".join(c) for c in itertools.product(alphabet, repeat=n)]
        for n in range(9)
    }
    # exhaustive where the cross product is small, sampled above that
    for a in (s for n in range(4) for s in strings_by_len[n]):
        for b in (s for n in range(4) for s in strings_by_len[n]):
            mismatches += edit_distance(a, b)[0] != recursive_distance(a, b)
    rng = np.random.default_rng(505)
    for la in range(9):
        for lb in range(9):
            for _ in range(12):
                a = "".join(rng.choice(list(alphabet), size=la))
                b = "".join(rng.choice(list(alphabet), size=lb))
                mismatches += edit_distance(a, b)[0] != recursive_distance(a, b)

    rate = cer(CER_PAIR_REF, CER_PAIR_HYP).rate
    gap = abs(rate - CER_PAIR_RATE)
    _report(
        5,
        mismatches == 0 and gap <= 3.0,
        f"{mismatches} oracle mismatches (lengths <= 8, 3-symbol alphabet); "
        f"known bilingual pair recomputes to {rate:.2f}% vs {CER_PAIR_RATE}% "
        f"(gap {gap:.2f}, tol 3.0)",
    )


# --- criterion 6: end-to-end gradient through the recurrent model ----------


def test_criterion_6_end_to_end_gradient_matches_finite_differences():
    rng = np.random.default_rng(606)
    model = init_model(input_dim=5, vocab_size=4, hidden_dim=6, seed=66)
    frames = rng.normal(size=(8, 5))
    target = [1, 3, 2]

    def loss_of(m):
        return ctc_loss(forward(m, frames), target).loss

    hs, logp = forward_states(model, frames)
    dlogits = ctc_loss(PosteriorGrid(logp), target).grad
    grads = backward(model, frames, hs, dlogits)

    h = 1e-5
    names = sorted(model.params)
    worst = 0.0
    for _ in range(10):
        name = names[int(rng.integers(len(names)))]
        flat_index = int(rng.integers(model.params[name].size))
        up = model.copy()
        up.params[name].reshape(-1)[flat_index] += h
        down = model.copy()
        down.params[name].reshape(-1)[flat_index] -= h
        fd = (loss_of(up) - loss_of(down)) / (2 * h)
        analytic = grads[name].reshape(-1)[flat_index]
        rel = abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8)
        worst = max(worst, rel)
    _report(
        6,
        worst <= 1e-3,
        f"max relative error {worst:.2e} on 10 sampled parameters (tol 1e-3)",
    )


# --- criteria 7 and 8: synthetic transfer-learning grid + determinism ------


def _parse_matrix(path: Path) -> dict[tuple[str, str], float]:
    lines = path.read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")[1:]
    out = {}
    for line in lines[1:]:
        fields = line.split(",")
        for col, value in zip(cols, fields[1:]):
            out[(fields[0], col)] = float(value)
    return out


@pytest.fixture(scope="module")
def matrix_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("matrix")
    started = time.monotonic()
    assert main(["--seed", "0", "--output-dir", str(out), "run-matrix"]) == 0
    elapsed = time.monotonic() - started
    return out, _parse_matrix(out / "cer_matrix.csv"), elapsed


def test_criterion_7_pretraining_beats_scratch_and_fusion_helps(matrix_run):
    _, m, elapsed = matrix_run
    ft = {c: m[("joint+finetune", c)] for c in ("10%", "50%", "100%", "100%+LM")}
    sc = {c: m[("scratch", c)] for c in ("10%", "50%", "100%", "100%+LM")}

    strict = all(ft[c] < sc[c] for c in ("10%", "50%", "100%"))
    half_data = ft["50%"] <= sc["100%"] + 3.0
    lm_never_worse = ft["100%+LM"] <= ft["100%"] and sc["100%+LM"] <= sc["100%"]
    lm_full_gain = ft["100%"] - ft["100%+LM"]
    fusion = lm_never_worse and lm_full_gain >= 0.5
    _report(
        7,
        strict and half_data and fusion and elapsed < 900.0,
        "fine-tuned vs scratch CER "
        + ", ".join(f"{c} {ft[c]:.2f}<{sc[c]:.2f}" for c in ("10%", "50%", "100%"))
        + f"; 50% fine-tuned {ft['50%']:.2f} within 3 of scratch-100% {sc['100%']:.2f}; "
        f"LM cells no worse and full-data gain {lm_full_gain:.2f} >= 0.5; "
        f"{elapsed:.0f}s (budget 900s)",
    )


def test_criterion_8_rerun_is_byte_identical(matrix_run, tmp_path):
    first_dir, _, _ = matrix_run
    second_dir = tmp_path / "again"
    assert main(["--seed", "0", "--output-dir", str(second_dir), "run-matrix"]) == 0
    first = (first_dir / "cer_matrix.csv").read_bytes()
    second = (second_dir / "cer_matrix.csv").read_bytes()
    _report(
        8,
        first == second,
        f"cer_matrix.csv identical across reruns ({len(first)} bytes)",
    )


# the behaviour guard: default run-matrix at seed 0 writes exactly these bytes
SEED_0_CER_MATRIX_SHA256 = "7eabf51ffd25673dc000397c94f9373d4b3b1f82f2dafe49b49cd0c435363689"


def test_criterion_8_seed_0_cer_matrix_matches_the_recorded_sha256(matrix_run):
    out_dir, _, _ = matrix_run
    digest = hashlib.sha256((out_dir / "cer_matrix.csv").read_bytes()).hexdigest()
    ok = digest == SEED_0_CER_MATRIX_SHA256
    _report(8, ok, f"seed-0 cer_matrix.csv sha256 {digest}")


# run-matrix --beam 10 at seed 0, the table the benchmark's recipe workload
# demands at its default sizes, writes exactly these bytes
SEED_0_BEAM_10_CER_MATRIX_SHA256 = (
    "88a192ac2161fd341584a402f34b8d7971976fd980f424bfb37a232e734cf2e7"
)


def test_criterion_8_seed_0_cer_matrix_at_beam_10_matches_the_recorded_sha256(tmp_path):
    argv = ["--seed", "0", "--output-dir", str(tmp_path), "run-matrix", "--beam", "10"]
    assert main(argv) == 0
    digest = hashlib.sha256((tmp_path / "cer_matrix.csv").read_bytes()).hexdigest()
    ok = digest == SEED_0_BEAM_10_CER_MATRIX_SHA256
    _report(8, ok, f"seed-0 beam-10 cer_matrix.csv sha256 {digest}")
