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
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward_batch(model: ToyAcousticModel, batch_frames: Sequence[np.ndarray]):
    """Hidden states and normalized log-probabilities of each utterance in a
    batch, kept for backward: one (hs, logp) pair per utterance, in order.

    The tanh recurrence runs once over the batch, time-major and padded to
    the longest utterance, and each state is bit-equal to what a loop over
    one utterance computes. `w_hh @ h` with h of shape (B, H, 1) is a
    stacked matmul that makes one BLAS gemv per utterance, the same call as
    `w_hh @ h` on one utterance's (H,) state; adding it in place to the
    input term is the same sum, and the add and the tanh are elementwise,
    so they round each element alike whatever the array around it. Padded
    frames have zero inputs and their states are never read, as the
    recurrence only looks back. The gemm form `h @ w_hh.T` over (B, H)
    states is ruled out: BLAS may order its sums unlike gemv, and on some
    shapes the bits differ. For the same reason the input and output layers
    stay one gemm per utterance, of that utterance's own shape.

    The output gemms write their rows into one stacked (sum T, V) array,
    which gets the bias and one log-softmax; each utterance's logp is a
    view of its rows of the result. The log-softmax reduces each row on its
    own, over that row's V contiguous values, so no row's bits depend on
    the rows around it.
    """
    batch = [np.asarray(frames, dtype=np.float64) for frames in batch_frames]
    for frames in batch:
        if frames.ndim != 2 or frames.shape[1] != model.input_dim:
            raise ShapeMismatch(
                f"frames shape {frames.shape} vs model input width {model.input_dim}"
            )
    p = model.params
    t_max = max(map(len, batch))
    hs = np.zeros((t_max, len(batch), model.hidden_dim, 1))
    for b, frames in enumerate(batch):
        hs[: len(frames), b, :, 0] = frames @ p["w_xh"].T + p["b_h"]
    h = np.zeros(hs.shape[1:])
    w_hh = p["w_hh"]
    for hs_t in hs:  # holds the input term until it becomes h_t
        hs_t += w_hh @ h
        h = np.tanh(hs_t, out=hs_t)
    batch_hs = [np.ascontiguousarray(hs[: len(f), b, :, 0]) for b, f in enumerate(batch)]
    bounds = np.cumsum([0] + [len(frames) for frames in batch])
    logits = np.empty((bounds[-1], model.vocab_size))
    for hs_b, start, stop in zip(batch_hs, bounds, bounds[1:]):
        np.matmul(hs_b, p["w_hy"].T, out=logits[start:stop])
    logits += p["b_y"]
    logp = _log_softmax(logits)
    return [
        (hs_b, logp[start:stop]) for hs_b, start, stop in zip(batch_hs, bounds, bounds[1:])
    ]


def forward_states(model: ToyAcousticModel, frames: np.ndarray):
    """Hidden states and normalized log-probabilities, kept for backward."""
    return forward_batch(model, [frames])[0]


def forward(model: ToyAcousticModel, frames: np.ndarray) -> PosteriorGrid:
    _, logp = forward_states(model, frames)
    return PosteriorGrid(logp)


def forward_grids(
    model: ToyAcousticModel, batch_frames: Sequence[np.ndarray]
) -> list[PosteriorGrid]:
    """forward's grid of each utterance of a batch, bit for bit, from one
    forward_batch and one PosteriorGrid.batch row check over them all."""
    return PosteriorGrid.batch([logp for _, logp in forward_batch(model, batch_frames)])


def backward_batch(
    model: ToyAcousticModel,
    batch_frames: Sequence[np.ndarray],
    batch_hs: Sequence[np.ndarray],
    batch_dlogits: Sequence[np.ndarray],
) -> dict[str, np.ndarray]:
    """Backpropagation through time for a batch; returns the gradients per
    parameter summed over it, from zeros, one utterance at a time in order.

    Only the dh recursion runs per frame, once over the batch, and each
    step is bit-equal to one utterance's. Each utterance is reversed at its
    own length, so its frame t is step T_b-1-t, and the padded steps after
    its frame 0 have a zero w_hy term and a zero tanh derivative. The w_hy
    and w_hh products are stacked gemvs, the same BLAS call per frame as
    `w_hy.T @ dlogits[t]` on one utterance (the gemm form is ruled out as
    in forward_batch), and the rest is elementwise.

    Each utterance's da is kept last frame first, and its w_xh, b_h and
    w_hh gradients are one reduce over the per-frame outer products of da
    with [x_t, 1, h_{t-1}] in that order (frame 0, which has no h_{t-1}, is
    added to w_xh and b_h alone). The values are bit-identical to
    accumulating `+= np.outer(...)` inside the loop: the products are the
    same, and `np.add.reduce` over axis 0 adds them one frame at a time from
    0.0 when each frame's block has more than one element, which [x_t, 1,
    ...] ensures (a one-element block, such as b_h alone with one hidden
    unit, is summed pairwise). A matrix product such as `das.T @ X` would
    let BLAS reorder the sums, and so would one reduce over the whole batch,
    so the reduces stay one per utterance.
    """
    p = model.params
    batch = [np.asarray(frames, dtype=np.float64) for frames in batch_frames]
    t_max = max(map(len, batch))
    w_hy_t, w_hh_t = p["w_hy"].T, p["w_hh"].T
    das = np.zeros((t_max, len(batch), model.hidden_dim, 1))  # w_hy term, then da
    dtanh_rev = np.zeros_like(das)
    for b, (hs, dlogits) in enumerate(zip(batch_hs, batch_dlogits)):
        das[: len(hs), b] = w_hy_t @ dlogits[::-1, :, None]
        dtanh_rev[: len(hs), b, :, 0] = (1.0 - hs**2)[::-1]
    dh_next = np.zeros(das.shape[1:])
    for da_t, dtanh_t in zip(das, dtanh_rev):
        da_t += dh_next
        da_t *= dtanh_t
        dh_next = w_hh_t @ da_t

    total = {k: np.zeros_like(v) for k, v in p.items()}
    for b, (frames, hs, dlogits) in enumerate(zip(batch, batch_hs, batch_dlogits)):
        t_len, f = frames.shape
        inputs = np.zeros((t_len, f + 1 + model.hidden_dim))
        inputs[:, :f] = frames[::-1]
        inputs[:, f] = 1.0
        inputs[:-1, f + 1 :] = hs[-2::-1]
        da = np.ascontiguousarray(das[:t_len, b, :, 0])  # frame t at row t_len-1-t
        terms = da[:, :, None] * inputs[:, None, :]
        reduced = np.add.reduce(terms[:-1], axis=0, initial=0.0)
        reduced[:, : f + 1] += terms[-1, :, : f + 1]
        total["w_hy"] += dlogits.T @ hs
        total["b_y"] += dlogits.sum(axis=0)
        total["w_xh"] += reduced[:, :f]
        total["w_hh"] += reduced[:, f + 1 :]
        total["b_h"] += reduced[:, f]
    return total


def backward(
    model: ToyAcousticModel,
    frames: np.ndarray,
    hs: np.ndarray,
    dlogits: np.ndarray,
) -> dict[str, np.ndarray]:
    """Backpropagation through time for one utterance; returns gradients
    per parameter, added to zeros as backward_batch does."""
    return backward_batch(model, [frames], [hs], [dlogits])


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
        raise ValueError(f"{path}: checkpoint was trained with a different vocabulary")
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
