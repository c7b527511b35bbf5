"""Reference oracles: the CTC loss by enumerating every frame-level path
(Graves et al., 2006), the gate for `ctc.ctc_loss` in test_ctc.py and
acceptance criterion 1; and each row's log-mass by `np.logaddexp.reduce`,
as PosteriorGrid measured it before, the gate for its row check.

The enumeration is exponential in T, so it refuses grids with more than
BRUTEFORCE_PATH_LIMIT paths; not part of the package.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from csasr.ctc import InfeasibleTarget, PosteriorGrid, collapse

BRUTEFORCE_PATH_LIMIT = 10**7


class TooLarge(ValueError):
    """Brute-force enumeration would exceed the path-count guard."""


def ctc_loss_bruteforce(grid: PosteriorGrid, target: Sequence[int]) -> float:
    """Loss by enumerating every V^T path; oracle for ctc_loss."""
    lp = grid.logp
    T, V = lp.shape
    if V**T > BRUTEFORCE_PATH_LIMIT:
        raise TooLarge(f"V^T = {V}**{T} exceeds {BRUTEFORCE_PATH_LIMIT}")
    want = list(target)
    rows = [lp[t] for t in range(T)]
    matched = []
    for path in itertools.product(range(V), repeat=T):
        if collapse(path) != want:
            continue
        matched.append(sum(rows[t][path[t]] for t in range(T)))
    if not matched:
        raise InfeasibleTarget("no path collapses to the target")
    return -float(np.logaddexp.reduce(np.array(matched)))


def row_mass(logp: np.ndarray) -> np.ndarray:
    """Each row's log-mass, log(sum(exp(row))), by np.logaddexp.reduce."""
    return np.logaddexp.reduce(logp, axis=1)
