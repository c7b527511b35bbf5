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
so `ctc_loss_batch` runs alpha and beta of a whole batch in one frame
loop whose numpy calls cover them all; `ctc_loss` is that code with a
batch of one. Values are bit-identical to separate loops per utterance:
every element is the same `emit + logaddexp(stay, logaddexp(step, jump))`
of the same float64 operands, and numpy's elementwise ufuncs round each
element alike whatever the array around it. The occupancy and gradient
that follow, with their sums, are computed per utterance.
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


def ctc_loss_batch(
    grids: Sequence[PosteriorGrid], targets: Sequence[Sequence[int]]
) -> list[CtcLossResult | InfeasibleTarget]:
    """Loss and gradient of each (grid, target) pair of a batch, in order;
    a pair that cannot be aligned gets its InfeasibleTarget in place of a
    result, so one infeasible item does not stop the others.

    Alpha and beta of every feasible pair run in one frame loop over a
    (T_max, B, 2, S_max+2) array. Each pair is reversed at its own length
    for beta, so its frames fill steps 0..T-1 of both rows. Emissions past
    its frames or its extended labels are -inf, so those cells stay -inf
    with no NaN or overflow. They are never read back: a state reads only
    the states at or left of it one step earlier, and a pair's result is
    read at its own last step. So each of its cells is the same elementwise
    operation on the same operands as with no batch around it.
    """
    results: list = [None] * len(grids)
    items = []
    for i, (grid, target) in enumerate(zip(grids, targets)):
        lp = grid.logp
        T, V = lp.shape
        target = list(target)
        try:
            _check_target(target, V, T)
        except InfeasibleTarget as e:
            results[i] = e
            continue
        ext, skip = _extended_labels(target)
        rskip = _extended_labels(target[::-1])[1]
        items.append((i, lp, ext, lp[:, ext], skip, rskip))  # emit is T x S
    if not items:
        return results

    # row 0 of each pair is alpha; row 1 is beta run as the same recursion
    # over reversed frames and reversed labels (whose skip mask is that of
    # the reversed target); two -inf columns pad each row on the left. Each
    # step holds its emissions until the recursion adds to them.
    t_max = max(lp.shape[0] for _, lp, *_ in items)
    s_max = max(ext.shape[0] for _, _, ext, *_ in items)
    ab = np.full((t_max, len(items), 2, s_max + 2), NEG_INF)
    skips = np.zeros((len(items), 2, s_max), dtype=bool)
    for j, (_, _, _, emit, skip, rskip) in enumerate(items):
        T, S = emit.shape
        ab[:T, j, 0, 2 : S + 2] = emit
        ab[:T, j, 1, 2 : S + 2] = emit[::-1, ::-1]
        skips[j, 0, :S] = skip
        skips[j, 1, :S] = rskip
    ab[0, ..., 4:] = NEG_INF  # both recursions start in their first two states
    for t in range(1, t_max):
        prev = ab[t - 1]
        jump = np.where(skips, prev[..., :-2], NEG_INF)
        step_or_jump = np.logaddexp(prev[..., 1:-1], jump)
        ab[t, ..., 2:] += np.logaddexp(prev[..., 2:], step_or_jump)

    for j, (i, lp, ext, emit, _, _) in enumerate(items):
        T, V = lp.shape
        S = ext.shape[0]
        alpha = ab[:T, j, 0, 2 : S + 2]
        # beta[t, s] = ab[T-1-t, j, 1, S+1-s]
        beta = ab[T - 1 :: -1, j, 1, S + 1 : 1 : -1]

        tail = alpha[T - 1, S - 1]
        if S > 1:
            tail = np.logaddexp(tail, alpha[T - 1, S - 2])
        loglik = min(float(tail), 0.0)
        if loglik == NEG_INF:
            results[i] = InfeasibleTarget("no feasible path despite length check")
            continue

        # occupancy of extended state s at frame t; alpha and beta both
        # include the frame-t emission, so divide it out once
        with np.errstate(invalid="ignore"):
            occ = alpha + beta - emit - loglik
        occ[np.isnan(occ)] = NEG_INF

        gamma = np.zeros((T, V))
        np.add.at(gamma.T, ext, np.exp(occ).T)
        grad = np.exp(lp) - gamma
        results[i] = CtcLossResult(loss=-loglik, grad=grad)
    return results


def ctc_loss(grid: PosteriorGrid, target: Sequence[int]) -> CtcLossResult:
    """Negative log-likelihood of the target plus its exact gradient.

    Raises InfeasibleTarget instead of returning an infinite loss; a silent
    +inf would corrupt training averages.
    """
    (result,) = ctc_loss_batch([grid], [target])
    if isinstance(result, InfeasibleTarget):
        raise result
    return result


def write_grid(grid: PosteriorGrid, path) -> None:
    write_matrix(grid.logp, path, "CTCGRID v1", "V")


def read_grid(path) -> PosteriorGrid:
    rows = read_matrix(path, "CTCGRID v1", "V", MalformedGrid)
    try:
        return PosteriorGrid(rows)
    except ValueError as e:
        raise MalformedGrid(path, 1, str(e)) from None
