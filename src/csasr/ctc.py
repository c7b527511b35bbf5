"""Exact CTC loss, gradient, and alignment collapse in log domain.

The loss marginalizes over all frame-level paths that collapse to the
target (merge adjacent repeats, then drop blanks). Forward-backward runs
over the blank-interleaved extended label sequence of length 2L+1. The
gradient is taken with respect to the log-probability grid under the
constraint that each row stays log-softmax-normalized, so rows of the
gradient sum to zero and it composes directly with a log-softmax output
layer.

The backward variables beta are the forward recursion run over the
reversed frames and the reversed extended labels (Graves et al., 2006),
so `ctc_loss` runs alpha and beta in one frame loop whose numpy calls
cover both. Values are bit-identical to two separate loops: every
element is the same `emit + logaddexp(stay, logaddexp(step, jump))` of
the same float64 operands, and numpy's elementwise ufuncs round each
element alike whatever the array around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import read_matrix, write_matrix
from .vocab import BLANK_ID, MalformedFile

NEG_INF = float("-inf")


class InfeasibleTarget(ValueError):
    """Target cannot be aligned: T < |target| + count of adjacent equal pairs."""


class MalformedGrid(MalformedFile):
    pass


@dataclass(frozen=True)
class PosteriorGrid:
    """T x V grid of per-frame log-probabilities; rows normalized."""

    logp: np.ndarray

    def __post_init__(self):
        lp = np.asarray(self.logp, dtype=np.float64)
        if lp.ndim != 2:
            raise ValueError(f"logp must be 2-D, got shape {lp.shape}")
        T, V = lp.shape
        if T < 1 or V < 2:
            raise ValueError(f"need T >= 1 and V >= 2, got T={T}, V={V}")
        row_mass = np.logaddexp.reduce(lp, axis=1)
        if not np.all(np.abs(row_mass) <= 1e-6):
            worst = int(np.argmax(np.abs(row_mass)))
            raise ValueError(
                f"row {worst} not normalized: logsumexp = {row_mass[worst]:.3e}"
            )
        object.__setattr__(self, "logp", lp)

    @property
    def num_frames(self) -> int:
        return self.logp.shape[0]


@dataclass(frozen=True)
class CtcLossResult:
    loss: float
    grad: np.ndarray  # T x V, rows sum to 0


def collapse(path: Sequence[int]) -> list[int]:
    """Apply the CTC collapse map: merge adjacent repeats, then drop blanks."""
    out = []
    prev = None
    for p in path:
        if p != prev and p != BLANK_ID:
            out.append(p)
        prev = p
    return out


def _adjacent_equal_pairs(target: Sequence[int]) -> int:
    return sum(1 for a, b in zip(target, target[1:]) if a == b)


def _check_target(target: Sequence[int], V: int, T: int) -> None:
    for y in target:
        if not 0 < y < V:
            raise ValueError(f"target id {y} invalid for vocab size {V}")
    need = len(target) + _adjacent_equal_pairs(target)
    if T < need:
        raise InfeasibleTarget(
            f"T={T} frames cannot align target of length {len(target)} "
            f"needing at least {need}"
        )


def _extended_labels(target: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Blank-interleaved labels and the mask of positions allowing an s-2 skip."""
    S = 2 * len(target) + 1
    ext = np.full(S, BLANK_ID, dtype=np.int64)
    ext[1::2] = np.asarray(target, dtype=np.int64)
    skip = np.zeros(S, dtype=bool)
    if S > 2:
        skip[2:] = (ext[2:] != BLANK_ID) & (ext[2:] != ext[:-2])
    return ext, skip


def ctc_loss(grid: PosteriorGrid, target: Sequence[int]) -> CtcLossResult:
    """Negative log-likelihood of the target plus its exact gradient.

    Raises InfeasibleTarget instead of returning an infinite loss; a silent
    +inf would corrupt training averages.
    """
    lp = grid.logp
    T, V = lp.shape
    target = list(target)
    _check_target(target, V, T)

    ext, skip = _extended_labels(target)
    S = ext.shape[0]
    emit = lp[:, ext]  # T x S

    # row 0 of each frame is alpha; row 1 is beta run as the same recursion
    # over reversed frames and reversed labels (whose skip mask is that of
    # the reversed target); two -inf columns pad each row on the left
    emits = np.stack((emit, emit[::-1, ::-1]), axis=1)  # T x 2 x S
    skips = np.stack((skip, _extended_labels(target[::-1])[1]))
    ab = np.full((T, 2, S + 2), NEG_INF)
    ab[0, :, 2:4] = emits[0, :, :2]
    for t in range(1, T):
        prev = ab[t - 1]
        jump = np.where(skips, prev[:, :-2], NEG_INF)
        step_or_jump = np.logaddexp(prev[:, 1:-1], jump)
        ab[t, :, 2:] = emits[t] + np.logaddexp(prev[:, 2:], step_or_jump)
    alpha = ab[:, 0, 2:]
    beta = ab[::-1, 1, :1:-1]  # beta[t, s] = ab[T-1-t, 1, S+1-s]

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


def write_grid(grid: PosteriorGrid, path) -> None:
    write_matrix(grid.logp, path, "CTCGRID v1", "V")


def read_grid(path) -> PosteriorGrid:
    rows = read_matrix(path, "CTCGRID v1", "V", MalformedGrid)
    try:
        return PosteriorGrid(rows)
    except ValueError as e:
        raise MalformedGrid(path, 1, str(e)) from None
