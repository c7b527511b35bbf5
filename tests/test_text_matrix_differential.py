"""Differential test: `write_feat`/`write_grid`, now thin wrappers over the
one text-matrix writer in `features`, against the two writers they
replaced, kept verbatim below. Files must be byte-identical and read back
to the same array, except a `.feat` with no frames or an infinity, which
`read_feat` refuses at its line.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from csasr.ctc import PosteriorGrid, read_grid, write_grid
from csasr.features import MalformedFeatures, read_feat, write_feat


def old_write_feat(frames: np.ndarray, path) -> None:
    frames = np.asarray(frames, dtype=np.float64)
    t, f_dim = frames.shape
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"FEAT v1 T={t} F={f_dim}\n")
        for row in frames:
            f.write(" ".join("%.17g" % x for x in row) + "\n")


def old_write_grid(grid: PosteriorGrid, path) -> None:
    T, V = grid.logp.shape
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"CTCGRID v1 T={T} V={V}\n")
        for row in grid.logp:
            f.write(" ".join("%.17g" % x for x in row) + "\n")


feat_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(0, 5), st.integers(1, 6)),
    elements=st.floats(allow_nan=False),
)


@settings(max_examples=150, deadline=None)
@given(feat_arrays)
def test_write_feat_is_byte_identical_and_round_trips(tmp_path_factory, frames):
    d = tmp_path_factory.mktemp("feat")
    old_write_feat(frames, d / "old.feat")
    write_feat(frames, d / "new.feat")
    assert (d / "new.feat").read_bytes() == (d / "old.feat").read_bytes()
    if not len(frames) or not np.isfinite(frames).all():
        # the writer writes them; the reader refuses no frames at the header
        # and an infinity at its row
        with pytest.raises(MalformedFeatures) as info:
            read_feat(d / "new.feat")
        rows = np.flatnonzero(~np.isfinite(frames).all(axis=1))
        assert info.value.line_number == (rows[0] + 2 if len(frames) else 1)
        return
    back = read_feat(d / "new.feat")
    assert back.shape == frames.shape
    np.testing.assert_array_equal(back, frames)
    assert np.array_equal(np.signbit(back), np.signbit(frames))


@st.composite
def grids(draw):
    """Normalized rows with some `-inf` cells (never a whole row)."""
    t, v = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    logits = draw(
        hnp.arrays(np.float64, (t, v), elements=st.floats(-30.0, 30.0))
    )
    dead = draw(hnp.arrays(np.bool_, (t, v)))
    dead[np.arange(t), draw(hnp.arrays(np.int64, t, elements=st.integers(0, v - 1)))] = False
    logits[dead] = -np.inf
    return PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True))


@settings(max_examples=150, deadline=None)
@given(grids())
def test_write_grid_is_byte_identical_and_round_trips(tmp_path_factory, grid):
    d = tmp_path_factory.mktemp("grid")
    old_write_grid(grid, d / "old.grid")
    write_grid(grid, d / "new.grid")
    assert (d / "new.grid").read_bytes() == (d / "old.grid").read_bytes()
    back = read_grid(d / "new.grid")
    np.testing.assert_array_equal(back.logp, grid.logp)
