"""Reference oracle: the CTC loss with separate alpha and beta loops and
the BPTT that accumulated every gradient inside its frame loop, as csasr
shipped them before the one-loop CTC and the reduce-after-loop BPTT; the
forward pass with its recurrence run over one utterance; and the SGD step
that ran forward, CTC and BPTT once per utterance, as csasr shipped it
before the batched step. All kept verbatim so test_training_differential.py
can demand exact equality.

Not part of the package.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from csasr.ctc import (
    NEG_INF,
    CtcLossResult,
    InfeasibleTarget,
    PosteriorGrid,
    _check_target,
    _extended_labels,
)
from csasr.model import ShapeMismatch, ToyAcousticModel, _log_softmax
from csasr.training import AllInfeasible, EmptyBatch, Example


def ctc_loss(grid: PosteriorGrid, target: Sequence[int]) -> CtcLossResult:
    lp = grid.logp
    T, V = lp.shape
    target = list(target)
    _check_target(target, V, T)

    ext, skip = _extended_labels(target)
    S = ext.shape[0]
    emit = lp[:, ext]  # T x S

    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = emit[0, 0]
    if S > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, T):
        prev = alpha[t - 1]
        stay = prev
        step = np.concatenate(([NEG_INF], prev))[:S]
        jump = np.concatenate(([NEG_INF, NEG_INF], prev))[:S]
        jump = np.where(skip, jump, NEG_INF)
        alpha[t] = emit[t] + np.logaddexp(stay, np.logaddexp(step, jump))

    beta = np.full((T, S), NEG_INF)
    beta[T - 1, S - 1] = emit[T - 1, S - 1]
    if S > 1:
        beta[T - 1, S - 2] = emit[T - 1, S - 2]
    for t in range(T - 2, -1, -1):
        nxt = beta[t + 1]
        stay = nxt
        step = np.concatenate((nxt, [NEG_INF]))[1 : S + 1]
        jump = np.concatenate((nxt, [NEG_INF, NEG_INF]))[2 : S + 2]
        skip_ahead = np.concatenate((skip, [False, False]))[2 : S + 2]
        jump = np.where(skip_ahead, jump, NEG_INF)
        beta[t] = emit[t] + np.logaddexp(stay, np.logaddexp(step, jump))

    tail = alpha[T - 1, S - 1]
    if S > 1:
        tail = np.logaddexp(tail, alpha[T - 1, S - 2])
    loglik = min(float(tail), 0.0)
    if loglik == NEG_INF:
        raise InfeasibleTarget("no feasible path despite length check")

    # occupancy of extended state s at frame t; alpha and beta both include
    # the frame-t emission, so divide it out once
    with np.errstate(invalid="ignore"):
        occ = alpha + beta - emit - loglik
    occ[np.isnan(occ)] = NEG_INF

    gamma = np.zeros((T, V))
    np.add.at(gamma.T, ext, np.exp(occ).T)
    grad = np.exp(lp) - gamma
    return CtcLossResult(loss=-loglik, grad=grad)


def backward(
    model: ToyAcousticModel,
    frames: np.ndarray,
    hs: np.ndarray,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    p = model.params
    frames = np.asarray(frames, dtype=np.float64)
    t_len = frames.shape[0]
    grads = {
        "w_hy": dlogits.T @ hs,
        "b_y": dlogits.sum(axis=0),
        "w_xh": np.zeros_like(p["w_xh"]),
        "w_hh": np.zeros_like(p["w_hh"]),
        "b_h": np.zeros_like(p["b_h"]),
    }
    dh_next = np.zeros(model.hidden_dim)
    for t in range(t_len - 1, -1, -1):
        dh = p["w_hy"].T @ dlogits[t] + dh_next
        da = dh * (1.0 - hs[t] ** 2)
        grads["w_xh"] += np.outer(da, frames[t])
        if t > 0:
            grads["w_hh"] += np.outer(da, hs[t - 1])
        grads["b_h"] += da
        dh_next = p["w_hh"].T @ da
    return grads


def forward_states(model: ToyAcousticModel, frames: np.ndarray):
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2 or frames.shape[1] != model.input_dim:
        raise ShapeMismatch(
            f"frames shape {frames.shape} vs model input width {model.input_dim}"
        )
    p = model.params
    t_len = frames.shape[0]
    hs = np.zeros((t_len, model.hidden_dim))
    h = np.zeros(model.hidden_dim)
    pre = frames @ p["w_xh"].T + p["b_h"]
    w_hh = p["w_hh"]
    for t in range(t_len):
        h = np.tanh(pre[t] + w_hh @ h)
        hs[t] = h
    logits = hs @ p["w_hy"].T + p["b_y"]
    return hs, _log_softmax(logits)


def reference_step(
    self, batch: Sequence[Example]
) -> tuple[float, int, dict[str, list[float]]]:
    """SgdTrainer.step with one forward, CTC and BPTT per utterance; takes
    the trainer as `self` so it can stand in for the method."""
    if not batch:
        raise EmptyBatch("batch has no items")
    total = {k: np.zeros_like(v) for k, v in self.model.params.items()}
    losses = []
    by_language: dict[str, list[float]] = {}
    skipped = 0
    for ex in batch:
        hs, logp = forward_states(self.model, ex.frames)
        try:
            result = ctc_loss(PosteriorGrid(logp), ex.target)
        except InfeasibleTarget:
            skipped += 1
            continue
        grads = backward(self.model, ex.frames, hs, result.grad)
        for k in total:
            total[k] += grads[k]
        losses.append(result.loss)
        by_language.setdefault(ex.language, []).append(result.loss)
    if not losses:
        raise AllInfeasible(f"all {len(batch)} items infeasible")

    cfg = self.cfg
    scale = 1.0 / len(losses)
    for k, p in self.model.params.items():
        g = total[k] * scale
        v = self.velocity[k]
        v *= cfg.momentum
        v += g
        step = g + cfg.momentum * v if cfg.nesterov else v
        p -= cfg.learning_rate * step
    return float(np.mean(losses)), skipped, by_language
