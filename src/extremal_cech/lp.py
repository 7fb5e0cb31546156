"""Small dense linear-program solver.

Primal simplex on a dense tableau with Bland's rule, which cannot cycle.
Every right-hand side must be nonnegative, so x = 0 is feasible and the
slack basis is the start: the solver is the simplex's second phase alone,
with no artificial columns.  The empty-sphere oracle meets this by shifting
its margin by the smallest clearance at its start center.  Problem sizes
here are tiny (at most a dozen variables, a few dozen constraints), so the
textbook method is accurate and fast enough; no external solver dependency
is needed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OPTIMAL", "UNBOUNDED", "solve_lp_max"]

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-10


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Make column col a unit column with its 1 in row.

    One dense rank-1 update over all rows: each entry gets the same multiply
    and subtract as a row-by-row elimination, and a row whose factor is 0
    comes out unchanged."""
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    tab -= np.multiply.outer(factor, tab[row])


def _simplex(tab: np.ndarray, basis: list[int], n_cols: int) -> str:
    """Minimize the objective in the last tableau row over the first n_cols
    columns.  Bland's rule: smallest eligible entering index, smallest basic
    variable on ratio ties."""
    m = tab.shape[0] - 1
    while True:
        eligible = np.flatnonzero(tab[-1, :n_cols] < -_PIVOT_TOL)
        if eligible.size == 0:
            return OPTIMAL
        enter = int(eligible[0])
        rows = np.flatnonzero(tab[:m, enter] > _PIVOT_TOL)
        ratios = tab[rows, -1] / tab[rows, enter]
        leave = -1
        best = np.inf
        for i, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - _PIVOT_TOL or (
                    abs(ratio - best) <= _PIVOT_TOL
                    and (leave < 0 or basis[i] < basis[leave])):
                best = ratio
                leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, leave, enter)
        basis[leave] = enter


def solve_lp_max(c, A, b):
    """Maximize c.x subject to A x <= b with x free, from the feasible
    start x = 0.

    Raises ValueError if some b_i is negative, where x = 0 is not feasible.
    Returns (status, x, objective); x and objective are None unless the
    status is OPTIMAL.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(b < 0.0):
        raise ValueError(f"right-hand side {b.min()!r} is negative: x = 0 is not feasible")
    m, n = A.shape

    # free variables split as x = u - w, then one slack per row, basic at b
    n_split = 2 * n
    tab = np.zeros((m + 1, n_split + m + 1))
    tab[:m, :n] = A
    tab[:m, n:n_split] = -A
    tab[:m, n_split:-1] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :n] = -c  # minimize -objective
    tab[-1, n:n_split] = c
    basis = list(range(n_split, n_split + m))
    status = _simplex(tab, basis, n_split + m)
    if status != OPTIMAL:
        return status, None, None

    xs = np.zeros(n_split)
    for i, j in enumerate(basis):
        if j < n_split:
            xs[j] = tab[i, -1]
    x = xs[:n] - xs[n:]
    return OPTIMAL, x, float(c @ x)
