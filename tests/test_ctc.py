import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csasr.ctc import (
    InfeasibleTarget,
    MalformedGrid,
    PosteriorGrid,
    _check_rows,
    collapse,
    ctc_loss,
    read_grid,
    write_grid,
)
from conftest import random_grid
from reference_ctc import TooLarge, ctc_loss_bruteforce, row_mass


def test_collapse_merges_then_drops_blanks():
    assert collapse([0, 1, 1, 0, 1, 2, 2, 0]) == [1, 1, 2]
    assert collapse([0, 0, 0]) == []
    assert collapse([]) == []


@given(st.lists(st.integers(0, 3), max_size=12))
def test_collapse_output_has_no_blanks_and_round_trips(path):
    out = collapse(path)
    assert 0 not in out
    # a blank between every label is the canonical path for any labeling
    padded = [0] + [x for label in out for x in (label, 0)]
    assert collapse(padded) == out


def test_grid_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        PosteriorGrid(np.zeros((2, 3)))


def _passes_check(rows) -> bool:
    try:
        _check_rows(rows)
    except ValueError:
        return False
    return True


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_check_gives_the_logaddexp_verdict(seed):
    """Rows whose log-mass lies 1e-9 to 1e-3 off zero, log-uniformly and of
    either sign, get the verdict |mass| <= 1e-6 of the np.logaddexp.reduce
    oracle. Only a mass within rounding of the bound may get the other
    verdict, so rows within 1e-12 of it are not judged."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        t, v = rng.integers(1, 20), rng.integers(2, 42)
        logits = rng.normal(0.0, rng.choice((0.3, 1.0, 4.0)), (t, v))
        lp = logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)
        lp += rng.choice((-1.0, 1.0), (t, 1)) * 10.0 ** rng.uniform(-9.0, -3.0, (t, 1))
        want = row_mass(lp)
        for row, mass in zip(lp, want):
            if abs(abs(mass) - 1e-6) > 1e-12:
                assert _passes_check(row[None]) == (abs(mass) <= 1e-6), mass
        judged = np.abs(np.abs(want) - 1e-6) > 1e-12
        if judged.all():  # a grid passes only if every row does
            assert _passes_check(lp) == bool(np.all(np.abs(want) <= 1e-6))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", ["nan", "inf", "all -inf"])
def test_grid_rejects_a_non_finite_row_without_numpy_warnings(bad):
    lp = np.log(np.full((3, 4), 0.25))
    if bad == "all -inf":
        lp[1] = -np.inf
    else:
        lp[1, 2] = float(bad)
    with pytest.raises(ValueError, match="row 1 not normalized"):
        PosteriorGrid(lp)
    with pytest.raises(ValueError, match="row 4 not normalized"):
        PosteriorGrid.batch([np.log(np.full((3, 4), 0.25)), lp])


def test_grid_batch_checks_every_row():
    good = [random_grid(np.random.default_rng(t), t, 5).logp for t in (1, 3, 2)]
    grids = PosteriorGrid.batch(good)
    assert [g.logp.tobytes() for g in grids] == [lp.tobytes() for lp in good]
    for n, lp in enumerate(good):
        for t in range(len(lp)):
            batch = [x.copy() for x in good]
            batch[n][t] += 1e-5  # log-mass 1e-5 off zero
            with pytest.raises(ValueError, match="not normalized"):
                PosteriorGrid.batch(batch)
    with pytest.raises(ValueError, match="need T >= 1"):
        PosteriorGrid.batch([good[0], good[1][:0]])


def test_grid_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        PosteriorGrid(np.zeros(3))
    with pytest.raises(ValueError):
        PosteriorGrid(np.log(np.ones((2, 1))))


def test_uniform_grid_single_label_loss_by_hand():
    # T=1, V=2, target [1]: only path is [1], probability 1/2
    grid = PosteriorGrid(np.log(np.full((1, 2), 0.5)))
    res = ctc_loss(grid, [1])
    assert res.loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_two_frame_uniform_loss_by_hand():
    # T=2, V=2, target [1]: paths blank-a, a-blank, a-a, each 0.25
    grid = PosteriorGrid(np.log(np.full((2, 2), 0.5)))
    expected = -math.log(0.75)
    assert ctc_loss(grid, [1]).loss == pytest.approx(expected, abs=1e-12)
    assert ctc_loss_bruteforce(grid, [1]) == pytest.approx(expected, abs=1e-12)


def test_empty_target_is_all_blank_probability():
    rng = np.random.default_rng(0)
    grid = random_grid(rng, 4, 3)
    res = ctc_loss(grid, [])
    assert res.loss == pytest.approx(-grid.logp[:, 0].sum(), abs=1e-10)


def test_infeasible_when_too_short():
    grid = PosteriorGrid(np.log(np.full((2, 3), 1 / 3)))
    with pytest.raises(InfeasibleTarget):
        ctc_loss(grid, [1, 1])  # needs T >= 3 for the repeat
    with pytest.raises(InfeasibleTarget):
        ctc_loss(grid, [1, 2, 1])


def test_target_ids_validated():
    grid = PosteriorGrid(np.log(np.full((3, 3), 1 / 3)))
    with pytest.raises(ValueError):
        ctc_loss(grid, [0])
    with pytest.raises(ValueError):
        ctc_loss(grid, [3])


def test_matches_bruteforce_on_fixed_case():
    rng = np.random.default_rng(7)
    grid = random_grid(rng, 5, 4)
    for target in ([1], [1, 2], [2, 2], [1, 2, 3], [3, 1]):
        assert ctc_loss(grid, target).loss == pytest.approx(
            ctc_loss_bruteforce(grid, target), abs=1e-10
        )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_bruteforce_on_random_instances(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    t = data.draw(st.integers(1, 6))
    v = data.draw(st.integers(2, 4))
    grid = random_grid(rng, t, v)
    target = data.draw(
        st.lists(st.integers(1, v - 1), max_size=3).filter(
            lambda y: t >= len(y) + sum(a == b for a, b in zip(y, y[1:]))
        )
    )
    assert ctc_loss(grid, target).loss == pytest.approx(
        ctc_loss_bruteforce(grid, target), abs=1e-10
    )


def test_bruteforce_guard_trips_on_big_grids():
    rng = np.random.default_rng(1)
    grid = random_grid(rng, 12, 30)
    with pytest.raises(TooLarge):
        ctc_loss_bruteforce(grid, [1])


def test_grad_rows_sum_to_zero():
    rng = np.random.default_rng(3)
    grid = random_grid(rng, 6, 4)
    res = ctc_loss(grid, [1, 2, 1])
    np.testing.assert_allclose(res.grad.sum(axis=1), 0.0, atol=1e-12)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(5, 4))

    def loss_of(lg):
        lp = lg - np.logaddexp.reduce(lg, axis=1, keepdims=True)
        return ctc_loss(PosteriorGrid(lp), [1, 3]).loss

    analytic = ctc_loss(
        PosteriorGrid(logits - np.logaddexp.reduce(logits, axis=1, keepdims=True)),
        [1, 3],
    ).grad
    h = 1e-6
    for t in range(5):
        for v in range(4):
            bumped = logits.copy()
            bumped[t, v] += h
            dipped = logits.copy()
            dipped[t, v] -= h
            fd = (loss_of(bumped) - loss_of(dipped)) / (2 * h)
            assert analytic[t, v] == pytest.approx(fd, abs=1e-6)


def test_loss_is_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        grid = random_grid(rng, 5, 3, sharpness=3.0)
        target = [1, 2]
        assert ctc_loss(grid, target).loss >= 0.0


def test_grid_file_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    grid = random_grid(rng, 4, 5)
    path = tmp_path / "g.grid"
    write_grid(grid, path)
    back = read_grid(path)
    np.testing.assert_array_equal(back.logp, grid.logp)
    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "CTCGRID v1 T=4 V=5"


def test_read_grid_rejects_bad_header(tmp_path):
    path = tmp_path / "g.grid"
    path.write_text("CTCGRID v2 T=1 V=2\n0 0\n", encoding="utf-8")
    with pytest.raises(MalformedGrid) as info:
        read_grid(path)
    assert info.value.line_number == 1


def test_read_grid_rejects_wrong_row_count(tmp_path):
    path = tmp_path / "g.grid"
    lp = math.log(0.5)
    path.write_text(f"CTCGRID v1 T=2 V=2\n{lp} {lp}\n", encoding="utf-8")
    with pytest.raises(MalformedGrid):
        read_grid(path)


def test_read_grid_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "g.grid"
    lp = math.log(0.5)
    path.write_text(f"CTCGRID v1 T=1 V=2\n{lp} {lp} {lp}\n", encoding="utf-8")
    with pytest.raises(MalformedGrid) as info:
        read_grid(path)
    assert info.value.line_number == 2
