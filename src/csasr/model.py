"""Minimal recurrent acoustic model with manual backpropagation.

h_t = tanh(W_xh x_t + W_hh h_{t-1} + b_h), logits_t = W_hy h_t + b_y,
followed by log-softmax, so forward always yields a normalized posterior
grid. Gradients expected by backward() are with respect to the logits
(the CTC gradient convention used here).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .ctc import PosteriorGrid
from .vocab import GraphemeVocab, MalformedFile, read_utf8

CHECKPOINT_FORMAT = "csasr-checkpoint"
CHECKPOINT_VERSION = 1
PARAM_NAMES = ("w_xh", "w_hh", "b_h", "w_hy", "b_y")
# each parameter's axes, by the model size they must equal
_PARAM_DIMS = {
    "w_xh": ("hidden", "input"),
    "w_hh": ("hidden", "hidden"),
    "b_h": ("hidden",),
    "w_hy": ("vocab", "hidden"),
    "b_y": ("vocab",),
}


class ShapeMismatch(ValueError):
    """Feature width does not match the model input width."""


@dataclass
class ToyAcousticModel:
    params: dict[str, np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.params["w_xh"].shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.params["w_xh"].shape[0]

    @property
    def vocab_size(self) -> int:
        return self.params["w_hy"].shape[0]

    def copy(self) -> "ToyAcousticModel":
        return ToyAcousticModel({k: v.copy() for k, v in self.params.items()})


def init_model(
    input_dim: int, vocab_size: int, hidden_dim: int = 64, seed: int = 0
) -> ToyAcousticModel:
    rng = np.random.default_rng(seed)

    def gauss(rows, cols, fan_in):
        return rng.normal(0.0, 1.0 / np.sqrt(fan_in), (rows, cols))

    return ToyAcousticModel(
        {
            "w_xh": gauss(hidden_dim, input_dim, input_dim),
            "w_hh": gauss(hidden_dim, hidden_dim, hidden_dim),
            "b_h": np.zeros(hidden_dim),
            "w_hy": gauss(vocab_size, hidden_dim, hidden_dim),
            "b_y": np.zeros(vocab_size),
        }
    )


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a 2-D array, computed in place and returned."""
    logits -= logits.max(axis=1, keepdims=True)
    logits -= np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return logits


def forward_batch(model: ToyAcousticModel, batch_frames: Sequence[np.ndarray]):
    """Hidden states and normalized log-probabilities of a batch, kept for
    backward_batch: (hs, logp). hs is (B, T_max + 1, H, 1): hs[b, t + 1]
    is utterance b's state h_t and hs[b, 0] the zero initial state, so b's
    states are the contiguous rows hs[b, 1 : T_b + 1, :, 0], and the states
    past its end are finite but meaningless. logp stacks the utterances'
    (T_b, V) log-probabilities in order.

    The tanh recurrence runs once over the batch, padded to the longest
    utterance, and each state is bit-equal to what a loop over one
    utterance computes. `w_hh @ h` with h of shape (B, H, 1) is a stacked
    matmul that makes one BLAS gemv per utterance, the same call as
    `w_hh @ h` on one utterance's (H,) state; adding it in place to the
    input term is the same sum, and the add and the tanh are elementwise,
    so they round each element alike whatever the array around it. Padded
    frames have zero inputs and their states are never read, as the
    recurrence only looks back. The gemm form `h @ w_hh.T` over (B, H)
    states is ruled out: BLAS may order its sums unlike gemv, and on some
    shapes the bits differ. For the same reason the input and output layers
    stay one gemm per utterance, of that utterance's own shape.

    The output gemms write their rows into one stacked (sum T, V) array,
    which gets the bias and one log-softmax in place, and that array is
    logp. The log-softmax reduces each row on its own, over that row's V
    contiguous values, so no row's bits depend on the rows around it, and
    in place it makes the same subtractions.
    """
    batch = [np.asarray(frames, dtype=np.float64) for frames in batch_frames]
    for frames in batch:
        if frames.ndim != 2 or frames.shape[1] != model.input_dim:
            raise ShapeMismatch(
                f"frames shape {frames.shape} vs model input width {model.input_dim}"
            )
    p = model.params
    steps = np.zeros((max(map(len, batch)) + 1, len(batch), model.hidden_dim, 1))
    for b, frames in enumerate(batch):
        steps[1 : len(frames) + 1, b, :, 0] = frames @ p["w_xh"].T + p["b_h"]
    w_hh, h = p["w_hh"], steps[0]
    for hs_t in steps[1:]:  # holds the input term until it becomes h_t
        hs_t += w_hh @ h
        h = np.tanh(hs_t, out=hs_t)
    hs = np.ascontiguousarray(steps.swapaxes(0, 1))
    bounds = np.cumsum([0] + [len(frames) for frames in batch])
    logits = np.empty((bounds[-1], model.vocab_size))
    for b, (frames, start, stop) in enumerate(zip(batch, bounds, bounds[1:])):
        np.matmul(hs[b, 1 : len(frames) + 1, :, 0], p["w_hy"].T, out=logits[start:stop])
    logits += p["b_y"]
    return hs, _log_softmax(logits)


def forward_states(model: ToyAcousticModel, frames: np.ndarray):
    """Hidden states and normalized log-probabilities, kept for backward."""
    hs, logp = forward_batch(model, [frames])
    return hs[0, 1:, :, 0], logp


def forward(model: ToyAcousticModel, frames: np.ndarray) -> PosteriorGrid:
    _, logp = forward_states(model, frames)
    return PosteriorGrid(logp)


def forward_grids(
    model: ToyAcousticModel, batch_frames: Sequence[np.ndarray]
) -> list[PosteriorGrid]:
    """forward's grid of each utterance of a batch, bit for bit, from one
    forward_batch and one PosteriorGrid.split row check over them all."""
    _, logp = forward_batch(model, batch_frames)
    return PosteriorGrid.split(logp, [len(frames) for frames in batch_frames])


def backward_batch(
    model: ToyAcousticModel,
    batch_frames: Sequence[np.ndarray],
    hs: np.ndarray,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Backpropagation through time for a batch of at least one utterance,
    from forward_batch's padded states hs and the gradients with respect
    to the logits stacked as forward_batch stacks its log-probabilities.
    Returns the gradients per parameter summed over the utterances, in
    batch order from 0.0.

    Only the dh recursion runs per frame, once over the batch, and each
    step is bit-equal to one utterance's. The w_hy term `w_hy.T @ row`
    is taken of every stacked row first, a stacked gemv that makes the
    same BLAS call per frame as on one utterance (the gemm form is ruled
    out as in forward_batch). Utterance j's step k is its frame T_j-1-k,
    and that term, the frame and the states of every step are gathered
    once before the loop, by step, from the stacked rows and from hs.
    Steps past frame 0 read frame 0's rows and the zero initial state and
    get a zero tanh derivative, so their da is +-0.0. The w_hh products
    are stacked gemvs too, and the rest is elementwise.

    Each step adds the outer products of da with [x_t, 1, h_{t-1}] into a
    (B, H, F+1+H) accumulator, so each utterance's w_xh, b_h and w_hh
    gradients add frame by frame, last frame first, from 0.0. Frame 0 has
    the zero state as h_{-1}, and the padded steps' products are +-0.0, so
    what they add leaves every sum as it was: a sum that starts from +0.0
    is never -0.0. An utterance whose gradient rows are all zero adds
    +-0.0 in the same way. After the loop the accumulator is summed over
    axis 0 from 0.0, which adds the utterances in batch order, one
    H x (F+1+H) block at a time. A matrix product such as `das.T @ X`
    would let BLAS reorder the sums, and so would one reduce over frames
    and utterances at once. Two things stay per utterance, on its own run
    of rows: the w_hy gradient `dlogits.T @ hs`, a gemm whose bits depend
    on its shape, and the b_y sum, as `np.add.reduceat` differed from
    `sum(axis=0)` in the last bits; both are written into stacks summed
    over axis 0 in the same way.
    """
    p = model.params
    frames = [np.asarray(x, dtype=np.float64) for x in batch_frames]
    lengths = np.array([len(x) for x in frames])
    n_steps, f, hidden = int(lengths.max()), model.input_dim, model.hidden_dim
    # left[k, j] = T_j - k, the frames of utterance j not yet backpropagated
    # at step k, and 0 past its frame 0
    left = np.maximum(lengths - np.arange(n_steps + 1)[:, None], 0)
    valid = left[:-1, :, None] > 0
    # step k reads frame left[k + 1] of the stacked rows: T_j-1-k, or frame 0
    starts = np.cumsum(lengths) - lengths
    rows = starts + left[1:]
    x_rev = np.take(np.concatenate(frames), rows, axis=0)
    # utterance j's h_{T_j-1-k} sits at hs[j, left[k]], and left 0 is the
    # zero initial state
    h_rev = np.take(hs.reshape(-1, hidden), np.arange(len(frames)) * hs.shape[1] + left, axis=0)
    dtanh = (1.0 - h_rev[:-1] ** 2) * valid
    inputs = np.concatenate((x_rev, np.ones(valid.shape), h_rev[1:]), axis=2)

    w_hy_t, w_hh_t = p["w_hy"].T, p["w_hh"].T
    das = np.take(w_hy_t @ dlogits[..., None], rows, axis=0)  # the w_hy term, then da
    dh_next = np.zeros(das.shape[1:])
    acc = np.zeros((len(frames), hidden, inputs.shape[2]))
    outer = np.empty_like(acc)
    for da_t, dtanh_t, inputs_t in zip(das, dtanh[..., None], inputs):
        da_t += dh_next
        da_t *= dtanh_t
        dh_next = w_hh_t @ da_t
        acc += np.multiply(da_t, inputs_t[:, None, :], out=outer)
    summed = np.add.reduce(acc, axis=0, initial=0.0)

    w_hy = np.empty((len(frames),) + p["w_hy"].shape)
    b_y = np.empty((len(frames),) + p["b_y"].shape)
    for j, (start, t_len) in enumerate(zip(starts.tolist(), lengths.tolist())):
        dl = dlogits[start : start + t_len]
        np.matmul(dl.T, hs[j, 1 : t_len + 1, :, 0], out=w_hy[j])
        dl.sum(axis=0, out=b_y[j])
    return {
        "w_xh": summed[:, :f],
        "w_hh": summed[:, f + 1 :],
        "b_h": summed[:, f],
        "w_hy": np.add.reduce(w_hy, axis=0, initial=0.0),
        "b_y": np.add.reduce(b_y, axis=0, initial=0.0),
    }


def backward(
    model: ToyAcousticModel,
    frames: np.ndarray,
    hs: np.ndarray,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Backpropagation through time for one utterance from its (T, H)
    states; returns gradients per parameter, added to zeros as
    backward_batch does."""
    padded = np.zeros((1, len(hs) + 1, model.hidden_dim, 1))
    padded[0, 1:, :, 0] = hs
    return backward_batch(model, [frames], padded, dlogits)


class VocabMismatch(ValueError):
    """A checkpoint loaded under a vocabulary other than its own."""


def vocab_fingerprint(vocab: GraphemeVocab) -> str:
    return hashlib.sha256("\n".join(vocab.units).encode("utf-8")).hexdigest()


def save_checkpoint(model: ToyAcousticModel, path, vocab: GraphemeVocab) -> None:
    for name in PARAM_NAMES:
        if not np.isfinite(model.params[name]).all():
            raise ValueError(f"{path}: parameter {name} has non-finite values")
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "vocab_sha256": vocab_fingerprint(vocab),
        "params": {
            name: {
                "shape": list(model.params[name].shape),
                "data": base64.b64encode(
                    np.ascontiguousarray(model.params[name], dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for name in PARAM_NAMES
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
        f.write("\n")


def load_checkpoint(path, vocab: GraphemeVocab | None = None) -> ToyAcousticModel:
    """The model saved at path; a file that is not a well-formed checkpoint
    raises MalformedFile (bytes that are not UTF-8 and JSON syntax errors
    at their line, the rest at line 1)."""
    try:
        payload = json.loads(read_utf8(path))
    except json.JSONDecodeError as e:
        raise MalformedFile(path, e.lineno, e.msg) from None
    if not isinstance(payload, dict):
        raise MalformedFile(path, 1, "top level is not a JSON object")
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise MalformedFile(path, 1, f"not a {CHECKPOINT_FORMAT} file")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise MalformedFile(path, 1, f"unsupported version {payload.get('version')}")
    if vocab is not None and payload.get("vocab_sha256") != vocab_fingerprint(vocab):
        raise VocabMismatch(f"{path}: checkpoint was trained with a different vocabulary")
    entries = payload.get("params")
    sizes: dict[str, int] = {}
    params = {}
    for name in PARAM_NAMES:
        where = f"parameter {name}"
        entry = entries.get(name) if isinstance(entries, dict) else None
        if not (isinstance(entry, dict) and {"shape", "data"} <= entry.keys()):
            raise MalformedFile(path, 1, f"{where} is missing")
        shape = entry["shape"]
        try:
            data = base64.b64decode(entry["data"])
        except (TypeError, ValueError):
            raise MalformedFile(path, 1, f"{where}: data is not base64") from None
        dims = _PARAM_DIMS[name]
        if not (
            isinstance(shape, list)
            and len(shape) == len(dims)
            and all(type(n) is int and n >= 0 for n in shape)
        ):
            raise MalformedFile(
                path, 1, f"{where}: shape {shape!r} is not {len(dims)} sizes"
            )
        if 8 * math.prod(shape) != len(data):
            raise MalformedFile(
                path, 1, f"{where}: shape {shape} does not fit {len(data)} data bytes"
            )
        for dim, n in zip(dims, shape):
            if sizes.setdefault(dim, n) != n:
                raise MalformedFile(
                    path,
                    1,
                    f"{where}: shape {shape} disagrees with the {dim} size "
                    f"{sizes[dim]} of the other parameters",
                )
        arr = np.frombuffer(data, dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise MalformedFile(path, 1, f"{where} has non-finite values")
        params[name] = arr.copy()
    return ToyAcousticModel(params)
