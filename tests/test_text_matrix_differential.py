"""Differential tests: `write_feat`/`write_grid`, now thin wrappers over the
one text-matrix writer in `features`, against the two writers they
replaced, kept verbatim below. Files must be byte-identical and read back
to the same array, except a `.feat` with no frames or an infinity, which
`read_feat` refuses at its line. And `read_matrix`, which parses each line
with numpy, against the reader that parsed each value with `float()`, kept
verbatim below: the same bits or the same error, line and message.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from csasr.ctc import PosteriorGrid, read_grid
from csasr.features import MalformedFeatures, read_feat, read_matrix, write_feat
from csasr.vocab import read_utf8
from writers import write_grid


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


def old_read_matrix(path, magic, cols, error):
    lines = read_utf8(path).splitlines()
    if not lines:
        raise error(path, 1, "empty file")
    m = re.match(rf"^{re.escape(magic)} T=(\d+) {cols}=(\d+)$", lines[0])
    if not m:
        raise error(path, 1, f"bad header {lines[0]!r}")
    t, width = int(m.group(1)), int(m.group(2))
    if len(lines) - 1 != t:
        raise error(path, len(lines), f"expected {t} rows, found {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != width:
            raise error(path, i, f"expected {width} values, found {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as e:
            raise error(path, i, str(e)) from None
    return np.array(rows, dtype=np.float64).reshape(t, width)


def _read_both(path):
    """What each reader makes of the file: the array's bytes (so the sign of
    a zero or a NaN counts), or the error's line and message."""
    results = []
    for reader in (read_matrix, old_read_matrix):
        try:
            results.append(reader(path, "FEAT v1", "F", MalformedFeatures).tobytes())
        except MalformedFeatures as e:
            results.append((e.line_number, str(e)))
    return results


ACCEPTED = (
    "1_0", "Infinity", "-Infinity", "-nan", "nan", "1e400", "-1e-400", "-0",
    "4.9406564584124654e-324", "+.5", "5.", "\u0661\u0662", "\uff11", "1.5\xa0",
)
REJECTED = ("junk", "1__0", "_1", "0x10", "1e", "1.2.3", "\u0661\u066b\u0665", "1j")


@pytest.mark.parametrize("token", ACCEPTED + REJECTED)
def test_read_matrix_parses_a_value_as_float_does(tmp_path, token):
    path = tmp_path / "m.feat"
    path.write_text(f"FEAT v1 T=3 F=2\n0.5 1\n2 {token}\n{token} 3\n", encoding="utf-8")
    new, old = _read_both(path)
    assert new == old
    if token in REJECTED:
        assert new == (3, f"{path}: line 3: could not convert string to float: {token!r}")


# float reprs, number-like strings and junk, mostly two a line (a drawn
# space or no-break space can split one)
_VALUE = st.one_of(
    st.floats().map(repr),
    st.from_regex(r"[+-]?[0-9_\u0662]{1,4}(\.[0-9]*)?([eE][+-]?[0-9_]{1,3})?", fullmatch=True),
    st.text(alphabet="0123456789.eE+-_ \xa0nafiIN\u0662x", min_size=1, max_size=8),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_VALUE, _VALUE), max_size=6))
def test_read_matrix_reads_drawn_lines_as_the_float_reader_does(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("matrix") / "m.feat"
    body = "".join(f"{a} {b}\n" for a, b in rows)
    path.write_text(f"FEAT v1 T={len(rows)} F=2\n" + body, encoding="utf-8")
    new, old = _read_both(path)
    assert new == old
