"""Small dense linear-program solver.

Two-phase primal simplex on a dense tableau with Bland's rule, which cannot
cycle.  Problem sizes here are tiny (at most a dozen variables, a few dozen
constraints), so the textbook method is accurate and fast enough; no
external solver dependency is needed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OPTIMAL", "INFEASIBLE", "UNBOUNDED", "solve_lp_max"]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-10
_FEASIBLE_TOL = 1e-9  # phase 1 may end this far below a zero artificial sum


def _pivot(tab: np.ndarray, row: int, col: int) -> None:
    """Make column col a unit column with its 1 in row.

    One rank-1 update over the rows with a nonzero entry in col: each entry
    gets the same multiply and subtract as a row-by-row elimination."""
    tab[row] /= tab[row, col]
    rows = np.flatnonzero(tab[:, col])
    rows = rows[rows != row]
    tab[rows] -= np.multiply.outer(tab[rows, col], tab[row])


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
    """Maximize c.x subject to A x <= b with x free.

    Returns (status, x, objective); x and objective are None unless the
    status is OPTIMAL.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape

    # free variables split as x = u - w, then slacks; artificials for rows
    # whose slack cannot start basic.
    n_split = 2 * n
    A2 = np.hstack([A, -A])
    c2 = np.concatenate([-c, c])  # minimize -objective

    rows = []
    basis = []
    art_cols = []
    n_struct = n_split + m  # split vars + slacks
    for i in range(m):
        row = np.zeros(n_struct + 1)
        sign = 1.0 if b[i] >= 0.0 else -1.0
        row[:n_split] = sign * A2[i]
        row[n_split + i] = sign  # slack
        row[-1] = sign * b[i]
        rows.append(row)
        if sign > 0:
            basis.append(n_split + i)
        else:
            art_cols.append(i)
            basis.append(-1)  # placeholder, fixed below

    n_art = len(art_cols)
    tab = np.zeros((m + 1, n_struct + n_art + 1))
    for i, row in enumerate(rows):
        tab[i, :n_struct] = row[:n_struct]
        tab[i, -1] = row[-1]
    for a, i in enumerate(art_cols):
        tab[i, n_struct + a] = 1.0
        basis[i] = n_struct + a

    n_total = n_struct + n_art
    if n_art:
        # phase 1: minimize the artificial sum
        tab[-1, n_struct:n_total] = 1.0
        for i in range(m):
            if basis[i] >= n_struct:
                tab[-1] -= tab[i]
        status = _simplex(tab, basis, n_total)
        if status != OPTIMAL or tab[-1, -1] < -_FEASIBLE_TOL:
            return INFEASIBLE, None, None
        # drive leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= n_struct:
                for j in range(n_struct):
                    if abs(tab[i, j]) > _PIVOT_TOL:
                        _pivot(tab, i, j)
                        basis[i] = j
                        break
        tab[:, n_struct:n_total] = 0.0  # bar artificials from phase 2

    # phase 2: the real objective, reduced against the current basis
    tab[-1, :] = 0.0
    tab[-1, :n_split] = c2
    for i in range(m):
        if 0 <= basis[i] < n_struct and abs(tab[-1, basis[i]]) > 0.0:
            tab[-1] -= tab[-1, basis[i]] * tab[i]
    status = _simplex(tab, basis, n_struct)
    if status != OPTIMAL:
        return status, None, None

    xs = np.zeros(n_split)
    for i in range(m):
        if 0 <= basis[i] < n_split:
            xs[basis[i]] = tab[i, -1]
    x = xs[:n] - xs[n:]
    return OPTIMAL, x, float(c @ x)
