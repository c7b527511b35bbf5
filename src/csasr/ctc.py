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


def _check_rows(logp: np.ndarray) -> None:
    """Raise ValueError unless every row of a 2-D log-probability array is
    normalized: |log sum(exp(row))| <= 1e-6.

    No max is subtracted first: a row that passes has values of at most
    about 0, whose exps cannot overflow. A row holding NaN or +inf, an all
    -inf row and a row whose exps overflow get a non-finite mass and fail,
    with no numpy warning.
    """
    with np.errstate(all="ignore"):
        row_mass = np.log(np.exp(logp).sum(axis=1))
    if not np.all(np.abs(row_mass) <= 1e-6):
        worst = int(np.argmax(np.abs(row_mass)))
        raise ValueError(
            f"row {worst} not normalized: logsumexp = {row_mass[worst]:.3e}"
        )


def _grid_array(logp) -> np.ndarray:
    lp = np.asarray(logp, dtype=np.float64)
    if lp.ndim != 2:
        raise ValueError(f"logp must be 2-D, got shape {lp.shape}")
    T, V = lp.shape
    if T < 1 or V < 2:
        raise ValueError(f"need T >= 1 and V >= 2, got T={T}, V={V}")
    return lp


@dataclass(frozen=True)
class PosteriorGrid:
    """T x V grid of per-frame log-probabilities; rows normalized, which
    construction checks (PosteriorGrid.batch with one check per batch)."""

    logp: np.ndarray

    def __post_init__(self):
        lp = _grid_array(self.logp)
        _check_rows(lp)
        object.__setattr__(self, "logp", lp)

    @classmethod
    def batch(cls, logps: Sequence[np.ndarray]) -> list["PosteriorGrid"]:
        """One grid per array, in order, the arrays all of one width; their
        rows are checked by one _check_rows call over all of them stacked,
        not once per array, so each row is still checked exactly once. A
        row that fails is named by its index in that stack."""
        arrays = [_grid_array(lp) for lp in logps]
        _check_rows(np.concatenate(arrays))
        grids = []
        for lp in arrays:
            grid = object.__new__(cls)
            object.__setattr__(grid, "logp", lp)
            grids.append(grid)
        return grids

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


def _extended_labels(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blank-interleaved labels of each row of an (..., L) array of targets,
    and the mask of positions allowing an s-2 skip, both (..., 2L+1)."""
    ext = np.full(targets.shape[:-1] + (2 * targets.shape[-1] + 1,), BLANK_ID)
    ext[..., 1::2] = targets
    skip = np.zeros(ext.shape, dtype=bool)
    skip[..., 2:] = (ext[..., 2:] != BLANK_ID) & (ext[..., 2:] != ext[..., :-2])
    return ext, skip


def ctc_loss_batch(
    grids: Sequence[PosteriorGrid], targets: Sequence[Sequence[int]]
) -> list[CtcLossResult | InfeasibleTarget]:
    """Loss and gradient of each (grid, target) pair of a batch, in order;
    a pair that cannot be aligned gets its InfeasibleTarget in place of a
    result, so one infeasible item does not stop the others. Grids may
    differ in V.

    Alpha and beta of every feasible pair run in one frame loop over a
    (T_max, 2, B, S_max+2) array: row 0 is alpha, row 1 beta run as the
    same recursion over the pair's frames and extended labels reversed at
    their own lengths, and two -inf columns pad each row on the left. The
    targets, forward and reversed, are padded with blanks into one
    (2, B, L_max) array, and the extended labels and skip masks are built
    from it once for the batch. The emissions of both rows are one gather
    from the grids padded with -inf into a (B, T_max, V_max) array: cells
    past a pair's frames emit -inf, and cells past its extended labels
    emit blank. Neither is ever read back: a state reads only the states
    at or left of it one step earlier, and a pair's result is read at its
    own last step. So each of its cells is the same elementwise operation
    on the same operands as with no batch around it.
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
        items.append((i, lp, target))
    if not items:
        return results

    B = len(items)
    n_frames = np.array([lp.shape[0] for _, lp, _ in items])
    t_max = int(n_frames.max())
    l_max = max(len(target) for *_, target in items)
    labels = np.full((2, B, l_max), BLANK_ID)
    padded = np.full((B, t_max, max(lp.shape[1] for _, lp, _ in items)), NEG_INF)
    for j, (_, lp, target) in enumerate(items):
        labels[0, j, : len(target)] = target
        labels[1, j, : len(target)] = target[::-1]
        padded[j, : lp.shape[0], : lp.shape[1]] = lp
    ext, skip = _extended_labels(labels)
    # frame t of a reversed pair is frame T-1-t; past T it wraps into the
    # -inf padding, as frame t does forwards
    steps = np.arange(t_max)[:, None]
    first = np.arange(B) * t_max  # each pair's frame 0 among padded's rows
    rows = np.stack((first + steps, first + (n_frames - 1 - steps) % t_max), axis=1)
    emit = np.take(padded, rows[..., None] * padded.shape[2] + ext)

    # both recursions start in their first two states; each later step adds
    # the recursion to its emissions
    ab = np.full((t_max, 2, B, 2 * l_max + 3), NEG_INF)
    ab[0, ..., 2:4] = emit[0, ..., :2]
    for t in range(1, t_max):
        prev = ab[t - 1]
        jump = np.where(skip, prev[..., :-2], NEG_INF)
        step_or_jump = np.logaddexp(prev[..., 1:-1], jump)
        np.add(emit[t], np.logaddexp(prev[..., 2:], step_or_jump), out=ab[t, ..., 2:])

    for j, (i, lp, target) in enumerate(items):
        T, V = lp.shape
        S = 2 * len(target) + 1
        alpha = ab[:T, 0, j, 2 : S + 2]
        # beta[t, s] = ab[T-1-t, 1, j, S+1-s]
        beta = ab[T - 1 :: -1, 1, j, S + 1 : 1 : -1]

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
            occ = alpha + beta - emit[:T, 0, j, :S] - loglik
        occ[np.isnan(occ)] = NEG_INF

        gamma = np.zeros((T, V))
        np.add.at(gamma.T, ext[0, j, :S], np.exp(occ).T)
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
