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
    backward_batch, which reads hs in place: (hs, logp). hs is the
    step-major buffer the recurrence ran in, (T_max + 1, B, H, 1):
    hs[t + 1, b] is utterance b's h_t, hs[0] the zero initial state, and
    the states past an utterance's end are finite but meaningless. logp
    stacks the utterances' (T_b, V) log-probabilities in order.

    Each state and row is bit-equal to one utterance's. `w_hh @ h` over
    (B, H, 1) states makes one BLAS gemv per utterance, the call `w_hh @ h`
    makes on one (H,) state, and the add and the tanh are elementwise.
    Padded frames have zero inputs, and the recurrence only looks back.
    The input and output layers are one gemm per utterance, of its own
    shape; the output gemms write one stacked (sum T, V) array that gets
    the bias and a log-softmax in place, each row reduced over its own V
    values.

    Ruled out: the gemm `h @ w_hh.T` over (B, H) states and one gemm over
    the stacked rows (their bits differ on some shapes); a batch-major
    copy of hs for BPTT (it nearly doubled the traced peak).
    """
    batch = [np.asarray(frames, dtype=np.float64) for frames in batch_frames]
    for frames in batch:
        if frames.ndim != 2 or frames.shape[1] != model.input_dim:
            raise ShapeMismatch(
                f"frames shape {frames.shape} vs model input width {model.input_dim}"
            )
    p = model.params
    hs = np.zeros((max(map(len, batch)) + 1, len(batch), model.hidden_dim, 1))
    for b, frames in enumerate(batch):
        hs[1 : len(frames) + 1, b, :, 0] = frames @ p["w_xh"].T + p["b_h"]
    w_hh, h = p["w_hh"], hs[0]
    for hs_t in hs[1:]:  # holds the input term until it becomes h_t
        hs_t += w_hh @ h
        h = np.tanh(hs_t, out=hs_t)
    bounds = np.cumsum([0] + [len(frames) for frames in batch])
    logits = np.empty((bounds[-1], model.vocab_size))
    for b, (frames, start, stop) in enumerate(zip(batch, bounds, bounds[1:])):
        np.matmul(hs[1 : len(frames) + 1, b, :, 0], p["w_hy"].T, out=logits[start:stop])
    logits += p["b_y"]
    return hs, _log_softmax(logits)


def forward_states(model: ToyAcousticModel, frames: np.ndarray):
    """Hidden states and normalized log-probabilities, kept for backward."""
    hs, logp = forward_batch(model, [frames])
    return hs[1:, 0, :, 0], logp


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
    from forward_batch's step-major states hs and the gradients with
    respect to the logits, stacked as forward_batch stacks logp. Returns
    the gradients per parameter summed over the utterances, in batch order
    from 0.0.

    One loop runs over hs from the last step to the first, and each step
    is bit-equal to one utterance's. The w_hy term `w_hy.T @ row` of every
    stacked row, a stacked gemv making the per-frame BLAS call, is first
    scattered into zeroed step-major cells through one flat index t * B + b,
    and the frames likewise into zero-padded inputs. Step t reads
    [x_t, 1, h_{t-1}] from those and hs[:-1], and its tanh derivative from
    hs[1:]; the w_hh products are stacked gemvs, the rest elementwise. An
    utterance's steps past its end come first and have no w_hy term, so
    their da and dh are +-0.0: they leave sums that start from +0.0 as they
    were, and the last frame's w_hy term, a sum from +0.0 and so never
    -0.0, absorbs the sign of their zero dh. All-zero gradient rows add
    +-0.0 likewise.

    Each step adds the outer products of da with [x_t, 1, h_{t-1}] into a
    (B, H, F+1+H) accumulator, so each utterance's w_xh, b_h and w_hh
    gradients add frame by frame, last first, from 0.0; it is then summed
    over axis 0 from 0.0, in batch order. The b_y sum and the w_hy gradient
    `dlogits.T @ h` stay per utterance, summed the same way. That gemm
    reads a contiguous copy of the utterance's states: at H = 1 numpy
    multiplies a strided view by another path, which rounds differently.

    Ruled out: `das.T @ X` or one reduce over frames and utterances
    (reordered sums); `np.add.reduceat` for b_y (last bits differ); one
    tensor of every frame's outer products (25 MiB at H 64); a 2-D
    fancy-index scatter by (t, b) (slower than the flat index).
    """
    p = model.params
    frames = [np.asarray(x, dtype=np.float64) for x in batch_frames]
    lengths = np.array([len(x) for x in frames])
    n_utts, f, hidden = len(frames), model.input_dim, model.hidden_dim
    steps = np.arange(len(hs) - 1)
    # each stacked row's flat step-major cell t * B + b, utterance by utterance
    cells = (steps[:, None] * n_utts + np.arange(n_utts)).T[lengths[:, None] > steps]
    das = np.zeros(hs[1:].shape)  # the w_hy term, then da
    das.reshape(-1, hidden, 1)[cells] = p["w_hy"].T @ dlogits[..., None]
    xs = np.zeros(das.shape[:2] + (f,))
    xs.reshape(-1, f)[cells] = np.concatenate(frames)
    inputs = np.concatenate((xs, np.ones(das.shape[:2] + (1,)), hs[:-1, :, :, 0]), axis=2)
    dtanh = 1.0 - hs[1:] ** 2

    w_hh_t = p["w_hh"].T
    dh_next = np.zeros(das.shape[1:])
    acc = np.zeros((n_utts, hidden, inputs.shape[2]))
    outer = np.empty_like(acc)
    for da_t, dtanh_t, inputs_t in zip(das[::-1], dtanh[::-1], inputs[::-1]):
        da_t += dh_next
        da_t *= dtanh_t
        dh_next = w_hh_t @ da_t
        acc += np.multiply(da_t, inputs_t[:, None, :], out=outer)
    summed = np.add.reduce(acc, axis=0, initial=0.0)

    w_hy = np.empty((n_utts,) + p["w_hy"].shape)
    b_y = np.empty((n_utts,) + p["b_y"].shape)
    starts = np.cumsum(lengths) - lengths
    for j, (start, t_len) in enumerate(zip(starts.tolist(), lengths.tolist())):
        dl = dlogits[start : start + t_len]
        np.matmul(dl.T, np.ascontiguousarray(hs[1 : t_len + 1, j, :, 0]), out=w_hy[j])
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
    padded = np.zeros((len(hs) + 1, 1, model.hidden_dim, 1))
    padded[1:, 0, :, 0] = hs
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
