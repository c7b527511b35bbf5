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
that follow are computed once for the batch too, in the stacked rows its
log-probabilities come in, which become its gradients: each is the same
elementwise operation, and each gamma cell adds its states' occupancies
in s order from 0.0, as it did one utterance at a time, with the steps
past a pair's end adding +0.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .features import read_matrix
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
    construction checks (PosteriorGrid.split with one check per batch)."""

    logp: np.ndarray

    def __post_init__(self):
        lp = _grid_array(self.logp)
        _check_rows(lp)
        object.__setattr__(self, "logp", lp)

    @classmethod
    def split(cls, logp: np.ndarray, lengths: Sequence[int]) -> list["PosteriorGrid"]:
        """One grid per run of rows of a stacked (sum of lengths, V) array,
        in order, each a view of its rows. The rows are checked by one
        _check_rows call over the whole stack, so each row is still checked
        exactly once; a row that fails is named by its index in the stack."""
        grids = []
        start = 0
        for n in lengths:
            grid = object.__new__(cls)
            object.__setattr__(grid, "logp", _grid_array(logp[start : start + n]))
            grids.append(grid)
            start += n
        _check_rows(logp)
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
    logp: np.ndarray, lengths: Sequence[int], targets: Sequence[Sequence[int]]
) -> tuple[list[float | InfeasibleTarget], np.ndarray]:
    """Loss of each (utterance, target) pair of a batch, in order, and the
    gradients of them all: (losses, grads). logp stacks the pairs'
    log-probability rows, lengths[i] rows for pair i, and its rows are
    checked once here. A pair that cannot be aligned gets its
    InfeasibleTarget in place of a loss, so one infeasible item does not
    stop the others. grads is logp itself, overwritten with
    `exp(logp) - gamma`; the rows of a pair that cannot be aligned are
    zeros.

    Alpha and beta of every feasible pair run in one frame loop over a
    (T_max, 2, B, S_max+2) array: row 0 is alpha, row 1 beta run as the
    same recursion over the pair's frames and extended labels reversed at
    their own lengths, and two -inf columns pad each row on the left. The
    targets, forward and reversed, are padded with blanks into one
    (2, B, L_max) array, and the extended labels and skip masks are built
    from it once for the batch. The emissions of both rows are one gather
    from the stacked rows: steps past a pair's frames read its frame 0
    and are set to -inf, and states past its extended labels emit blank.
    Neither is ever read back: a state reads only the states at or left
    of it one step earlier, and a pair's result is read at its own last
    step. So each of its cells is the same elementwise operation on the
    same operands as with no batch around it.

    The rest runs once for the batch as well. Each pair's loglik comes
    from one gather of the last alpha rows. Alpha is read in place and
    beta with one gather, at each pair's own T and S, into one
    (T_max, B, S_max) occupancy whose cells past a pair's end are -inf.
    One np.add.at adds the occupancies into a zero gamma of logp's shape
    at the cells the forward emissions were read from; its indices run t,
    pair, s in C order, so each cell adds its states in s order from 0.0,
    as with one pair, and a step past a pair's end adds +0.0 to its frame
    0, which leaves every sum as it was.
    """
    V = logp.shape[1]
    if V < 2 or min(lengths, default=1) < 1:
        raise ValueError(f"need T >= 1 and V >= 2, got T={min(lengths, default=0)}, V={V}")
    _check_rows(logp)
    starts = np.cumsum(lengths, dtype=np.int64) - lengths
    losses: list = [None] * len(lengths)
    feasible, items = [], []
    for i, (T, target) in enumerate(zip(lengths, targets)):
        target = list(target)
        try:
            _check_target(target, V, T)
        except InfeasibleTarget as e:
            losses[i] = e
            continue
        feasible.append(i)
        items.append(target)

    B = len(items)
    pairs = np.arange(B)
    n_frames = np.array([lengths[i] for i in feasible], dtype=np.int64)
    n_states = np.array([2 * len(target) + 1 for target in items], dtype=np.int64)
    t_max = int(n_frames.max(initial=1))
    l_max = int(n_states.max(initial=1)) // 2
    labels = np.full((2, B, l_max), BLANK_ID)
    for j, target in enumerate(items):
        labels[0, j, : len(target)] = target
        labels[1, j, : len(target)] = target[::-1]
    ext, skip = _extended_labels(labels)
    # frame t of a reversed pair is frame T-1-t; steps past T read frame 0
    steps = np.arange(t_max)[:, None]
    live = steps < n_frames
    frame = np.stack((steps * live, (n_frames - 1 - steps) * live), axis=1)
    cells = (starts[feasible] + frame)[..., None] * V + ext  # (t, row, pair, s)
    emit = np.take(logp, cells)
    np.copyto(emit, NEG_INF, where=~live[:, None, :, None])

    # both recursions start in their first two states; each later step adds
    # the recursion to its emissions
    width = 2 * l_max + 3
    ab = np.full((t_max, 2, B, width), NEG_INF)
    ab[0, ..., 2:4] = emit[0, ..., :2]
    for t in range(1, t_max):
        prev = ab[t - 1]
        jump = np.where(skip, prev[..., :-2], NEG_INF)
        step_or_jump = np.logaddexp(prev[..., 1:-1], jump)
        np.add(emit[t], np.logaddexp(prev[..., 2:], step_or_jump), out=ab[t, ..., 2:])

    # alpha of the last frame in the last two states (the state left of
    # state 0 is a -inf pad column)
    last = ab[n_frames - 1, 0, pairs]
    tail = last[pairs, n_states + 1]
    tail = np.where(n_states > 1, np.logaddexp(tail, last[pairs, n_states]), tail)
    logliks = [min(x, 0.0) for x in tail.tolist()]

    # occupancy of extended state s at frame t; alpha and beta both include
    # the frame-t emission, so divide it out once. beta[t, j, s] is
    # ab[T-1-t, 1, j, S+1-s]: past T the time wraps into rows the -inf
    # emissions left at -inf, and past S the state clips to a -inf pad
    # column, so those cells get -inf or NaN and then -inf, as do all cells
    # of a pair whose loglik is -inf
    reversed_steps = (n_frames - 1 - steps) % t_max
    beta_rows = ((reversed_steps * 2 + 1) * B + pairs) * width
    beta_cols = np.maximum(n_states[:, None] + 1 - np.arange(2 * l_max + 1), 0)
    with np.errstate(invalid="ignore"):
        occ = ab[:, 0, :, 2:] + np.take(ab, beta_rows[..., None] + beta_cols)
        occ -= emit[:, 0]
        occ -= np.array(logliks)[:, None]
    occ[np.isnan(occ)] = NEG_INF

    # gamma[r, v] adds exp(occ[t, j, s]) over the s with ext[j, s] == v at
    # the row r pair j's step t read, in s order from 0.0
    gamma = np.zeros(logp.shape)
    np.add.at(gamma.reshape(-1), cells[:, 0].ravel(), np.exp(occ, out=occ).ravel())
    grads = np.exp(logp, out=logp)
    grads -= gamma
    for i, loglik in zip(feasible, logliks):
        if loglik == NEG_INF:
            losses[i] = InfeasibleTarget("no feasible path despite length check")
        else:
            losses[i] = -loglik
    for i, loss in enumerate(losses):
        if isinstance(loss, InfeasibleTarget):
            grads[starts[i] : starts[i] + lengths[i]] = 0.0
    return losses, grads


def ctc_loss(grid: PosteriorGrid, target: Sequence[int]) -> CtcLossResult:
    """Negative log-likelihood of the target plus its exact gradient: the
    batch of one, on a copy of the grid's rows.

    Raises InfeasibleTarget instead of returning an infinite loss; a silent
    +inf would corrupt training averages.
    """
    (loss,), grad = ctc_loss_batch(grid.logp.copy(), [grid.num_frames], [target])
    if isinstance(loss, InfeasibleTarget):
        raise loss
    return CtcLossResult(loss=loss, grad=grad)


def read_grid(path) -> PosteriorGrid:
    rows = read_matrix(path, "CTCGRID v1", "V", MalformedGrid)
    try:
        return PosteriorGrid(rows)
    except ValueError as e:
        raise MalformedGrid(path, 1, str(e)) from None
