import base64
import json
import tracemalloc

import numpy as np
import pytest

from csasr.ctc import ctc_loss
from csasr.model import (
    PARAM_NAMES,
    ShapeMismatch,
    backward,
    backward_batch,
    forward,
    forward_batch,
    forward_grids,
    forward_states,
    init_model,
    load_checkpoint,
    save_checkpoint,
    vocab_fingerprint,
)
from csasr.vocab import GraphemeVocab, MalformedFile

VOCAB = GraphemeVocab(("<blank>", "a", "b", " ", "你"))


def test_init_shapes_and_determinism():
    m = init_model(6, 5, hidden_dim=4, seed=7)
    assert set(m.params) == set(PARAM_NAMES)
    assert m.input_dim == 6
    assert m.hidden_dim == 4
    assert m.vocab_size == 5
    again = init_model(6, 5, hidden_dim=4, seed=7)
    for name in PARAM_NAMES:
        np.testing.assert_array_equal(m.params[name], again.params[name])
    assert np.all(m.params["b_h"] == 0.0) and np.all(m.params["b_y"] == 0.0)


def test_forward_rows_are_normalized():
    rng = np.random.default_rng(0)
    m = init_model(3, 4, hidden_dim=5, seed=1)
    grid = forward(m, rng.normal(size=(6, 3)))
    np.testing.assert_allclose(
        np.logaddexp.reduce(grid.logp, axis=1), 0.0, atol=1e-12
    )


def test_forward_rejects_wrong_width():
    m = init_model(3, 4)
    with pytest.raises(ShapeMismatch):
        forward(m, np.zeros((2, 5)))


def test_forward_grids_equal_forward_per_utterance_bit_for_bit():
    rng = np.random.default_rng(4)
    m = init_model(3, 5, hidden_dim=4, seed=5)
    batch = [rng.normal(size=(t, 3)) for t in (6, 1, 9, 3, 1, 4)]
    grids = forward_grids(m, batch)
    assert len(grids) == len(batch)
    for grid, frames in zip(grids, batch):
        alone = forward(m, frames).logp
        assert grid.logp.shape == alone.shape
        assert grid.logp.tobytes() == alone.tobytes()


@pytest.mark.parametrize("bad", range(3))
def test_forward_grids_refuse_a_nan_row_in_any_utterance(bad):
    rng = np.random.default_rng(6)
    batch = [rng.normal(size=(t, 3)) for t in (2, 1, 4)]
    batch[bad][-1, 0] = np.nan  # only the utterance's last row is NaN
    with pytest.raises(ValueError, match="not normalized: logsumexp = nan"):
        forward_grids(init_model(3, 5, hidden_dim=4, seed=5), batch)


def test_recurrence_matches_manual_unroll():
    rng = np.random.default_rng(2)
    m = init_model(2, 3, hidden_dim=3, seed=3)
    frames = rng.normal(size=(4, 2))
    hs, logp = forward_states(m, frames)
    p = m.params
    h = np.zeros(3)
    for t in range(4):
        h = np.tanh(p["w_xh"] @ frames[t] + p["w_hh"] @ h + p["b_h"])
        np.testing.assert_allclose(hs[t], h, atol=1e-12)
        logits = p["w_hy"] @ h + p["b_y"]
        np.testing.assert_allclose(
            logp[t], logits - np.log(np.exp(logits).sum()), atol=1e-12
        )


def test_backward_matches_finite_differences_through_ctc():
    rng = np.random.default_rng(4)
    m = init_model(3, 4, hidden_dim=4, seed=5)
    frames = rng.normal(size=(5, 3))
    target = [1, 2]

    def loss_of(model):
        return ctc_loss(forward(model, frames), target).loss

    hs, _ = forward_states(m, frames)
    dlogits = ctc_loss(forward(m, frames), target).grad
    grads = backward(m, frames, hs, dlogits)
    h = 1e-6
    for name in PARAM_NAMES:
        flat = m.params[name].reshape(-1)
        for idx in range(0, flat.size, max(1, flat.size // 5)):
            bumped = m.copy()
            bumped.params[name].reshape(-1)[idx] += h
            dipped = m.copy()
            dipped.params[name].reshape(-1)[idx] -= h
            fd = (loss_of(bumped) - loss_of(dipped)) / (2 * h)
            assert grads[name].reshape(-1)[idx] == pytest.approx(fd, abs=5e-6), name


def test_backward_batch_memory_stays_per_frame():
    """BPTT adds each frame's outer products into a (B, H, F+1+H)
    accumulator; one tensor of every frame's products would take 25 MiB
    here. The traced peak was 3.1-3.5 MiB when this test was written."""
    rng = np.random.default_rng(8)
    m = init_model(12, 41, hidden_dim=64, seed=2)
    frames = [rng.normal(size=(30, 12)) for _ in range(20)]
    dlogits = np.concatenate([rng.normal(size=(30, 41)) for _ in range(20)])
    hs, _ = forward_batch(m, frames)
    tracemalloc.start()
    try:
        backward_batch(m, frames, hs, dlogits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_copy_is_deep():
    m = init_model(2, 3)
    c = m.copy()
    c.params["b_y"][0] = 99.0
    assert m.params["b_y"][0] == 0.0


def test_checkpoint_round_trip_is_exact(tmp_path):
    m = init_model(4, len(VOCAB), hidden_dim=3, seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path, VOCAB)
    back = load_checkpoint(path, VOCAB)
    for name in PARAM_NAMES:
        np.testing.assert_array_equal(back.params[name], m.params[name])


def test_checkpoint_rejects_other_vocab(tmp_path):
    m = init_model(4, len(VOCAB), hidden_dim=3, seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(m, path, VOCAB)
    other = GraphemeVocab(("<blank>", "a", "b", " ", "我"))
    with pytest.raises(ValueError):
        load_checkpoint(path, other)


def test_checkpoint_is_byte_deterministic(tmp_path):
    m = init_model(4, len(VOCAB), hidden_dim=3, seed=9)
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(m, a, VOCAB)
    save_checkpoint(m, b, VOCAB)
    assert a.read_bytes() == b.read_bytes()


def test_vocab_fingerprint_distinguishes_inventories():
    v2 = GraphemeVocab(("<blank>", "a", "b", " ", "我"))
    assert vocab_fingerprint(VOCAB) != vocab_fingerprint(v2)
    assert vocab_fingerprint(VOCAB) == vocab_fingerprint(VOCAB)


def _corrupt_checkpoint(tmp_path, edit):
    path = tmp_path / "m.ckpt"
    save_checkpoint(init_model(4, len(VOCAB), hidden_dim=3, seed=9), path, VOCAB)
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload["params"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def _f8(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def test_checkpoint_rejects_missing_parameter(tmp_path):
    path = _corrupt_checkpoint(tmp_path, lambda p: p.pop("w_hh"))
    with pytest.raises(
        MalformedFile, match=r"m\.ckpt: line 1: parameter w_hh is missing"
    ):
        load_checkpoint(path, VOCAB)


def test_checkpoint_rejects_shape_that_does_not_fit_data(tmp_path):
    path = _corrupt_checkpoint(tmp_path, lambda p: p["b_h"].update(shape=[4]))
    with pytest.raises(
        MalformedFile, match=r"m\.ckpt: line 1: parameter b_h: shape \[4\] does not fit"
    ):
        load_checkpoint(path, VOCAB)


def test_checkpoint_rejects_shape_disagreeing_with_other_parameters(tmp_path):
    def edit(p):
        p["b_h"] = {"shape": [4], "data": _f8(np.zeros(4))}

    path = _corrupt_checkpoint(tmp_path, edit)
    with pytest.raises(
        MalformedFile, match=r"m\.ckpt: line 1: parameter b_h: .* hidden size 3"
    ):
        load_checkpoint(path, VOCAB)


def test_checkpoint_rejects_non_finite_values(tmp_path):
    def edit(p):
        p["b_y"]["data"] = _f8([0.0, 1.0, np.nan, 0.0, 0.0])

    path = _corrupt_checkpoint(tmp_path, edit)
    with pytest.raises(
        MalformedFile, match=r"m\.ckpt: line 1: parameter b_y has non-finite"
    ):
        load_checkpoint(path, VOCAB)


def test_save_checkpoint_refuses_non_finite_parameters_before_writing(tmp_path):
    m = init_model(4, len(VOCAB), hidden_dim=3, seed=9)
    m.params["w_hh"][1, 2] = np.inf
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match=r"m\.ckpt: parameter w_hh has non-finite"):
        save_checkpoint(m, path, VOCAB)
    assert not path.exists()


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda p: p.update(w_hh=[1, 2]), "parameter w_hh is missing"),
        (lambda p: p["w_hh"].pop("data"), "parameter w_hh is missing"),
        (lambda p: p["b_y"].update(data="abc"), "parameter b_y: data is not base64"),
        (lambda p: p["b_y"].update(data=5), "parameter b_y: data is not base64"),
    ],
)
def test_checkpoint_rejects_malformed_parameter_entries(tmp_path, edit, reason):
    path = _corrupt_checkpoint(tmp_path, edit)
    with pytest.raises(MalformedFile, match=rf"m\.ckpt: line 1: {reason}"):
        load_checkpoint(path, VOCAB)


def test_checkpoint_that_is_not_utf8_is_malformed(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b'{\n  "format": "csasr",\n  "version": "\xff"\n}\n')
    with pytest.raises(MalformedFile, match=r"m\.ckpt: line 3: not UTF-8$"):
        load_checkpoint(path, VOCAB)
