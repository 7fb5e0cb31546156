import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from extremal_cech import construct, lp, oracle
from extremal_cech.geometry import DEFAULT_TOL
from extremal_cech.lp import OPTIMAL, UNBOUNDED, solve_lp_max


def scipy_max(c, A, b):
    res = linprog(-np.asarray(c), A_ub=A, b_ub=b, bounds=[(None, None)] * len(c),
                  method="highs")
    return res


def test_simple_box():
    # maximize x + y on the unit box
    status, x, val = solve_lp_max([1.0, 1.0],
                                  np.array([[1.0, 0.0], [0.0, 1.0],
                                            [-1.0, 0.0], [0.0, -1.0]]),
                                  np.array([1.0, 1.0, 0.0, 0.0]))
    assert status == OPTIMAL
    assert val == pytest.approx(2.0)


def test_negative_rhs_feasible():
    # x >= 2 encoded as -x <= -2, maximize -x: feasible, but x = 0 is not a
    # feasible start, so the solver refuses it; shifting x = 2 + x', as the
    # oracle shifts its margin, gives b >= 0 and the same optimum
    A = np.array([[-1.0], [1.0]])
    b = np.array([-2.0, 10.0])
    with pytest.raises(ValueError, match="is negative"):
        solve_lp_max([-1.0], A, b)
    status, x, val = solve_lp_max([-1.0], A, b - A[:, 0] * 2.0)
    assert status == OPTIMAL
    assert val - 2.0 == pytest.approx(-2.0)
    assert x[0] + 2.0 == pytest.approx(2.0)


def test_infeasible():
    # x <= 0 and x >= 1: an infeasible LP has no feasible start, so some
    # right-hand side is negative and the solver raises rather than returning
    with pytest.raises(ValueError, match="is negative"):
        solve_lp_max([1.0], np.array([[1.0], [-1.0]]), np.array([0.0, -1.0]))


def test_unbounded():
    status, _, _ = solve_lp_max([1.0], np.array([[-1.0]]), np.array([0.0]))
    assert status == UNBOUNDED


def test_degenerate_ties():
    # multiple constraints active at the optimum
    A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    b = np.array([1.0, 1.0, 1.0, 1.0])
    status, _, val = solve_lp_max([1.0, 1.0], A, b)
    assert status == OPTIMAL
    assert val == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(40))
def test_random_against_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 12))
    A = rng.normal(size=(m, n))
    b = np.abs(rng.normal(size=m))
    c = rng.normal(size=n)
    # box the problem so it is always bounded; b >= 0 keeps x = 0 feasible
    A = np.vstack([A, np.eye(n), -np.eye(n)])
    b = np.concatenate([b, np.full(2 * n, 10.0)])

    status, x, val = solve_lp_max(c, A, b)
    ref = scipy_max(c, A, b)
    assert status == OPTIMAL and ref.status == 0
    assert val == pytest.approx(-ref.fun, rel=1e-7, abs=1e-7)
    assert np.all(A @ x <= b + 1e-7)


@pytest.mark.parametrize("seed", range(10))
def test_margin_shape_against_scipy(seed):
    # the empty-sphere feasibility shape: maximize m s.t. m <= f_i(y), y boxed;
    # solved, as the oracle solves it, for m' = m - min_i f_i(0), whose
    # right-hand sides are all >= 0
    rng = np.random.default_rng(100 + seed)
    q = int(rng.integers(1, 4))
    rows = []
    rhs = []
    for _ in range(int(rng.integers(2, 10))):
        w = rng.normal(size=q)
        row = np.concatenate([-w, [1.0]])
        rows.append(row)
        rhs.append(float(rng.normal()))
    shift = min(rhs)  # the smallest f_i(0)
    for i in range(q):
        e = np.zeros(q + 1)
        e[i] = 1.0
        rows.extend([e, -e])
        rhs.extend([10.0, 10.0])
    A = np.array(rows)
    b = np.array(rhs)
    c = np.zeros(q + 1)
    c[q] = 1.0
    status, _, val = solve_lp_max(c, A, b - shift * A[:, q])
    ref = scipy_max(c, A, b)
    assert status == OPTIMAL and ref.status == 0
    assert val + shift == pytest.approx(-ref.fun, rel=1e-8, abs=1e-8)


def highs_face_margin(pts, verts):
    """The empty-sphere LP written afresh for HiGHS: maximize the margin m
    over the center z in the box |z|_inf <= 10, with the vertices equidistant
    from z as equality rows and |p_b - z|^2 - |a0 - z|^2 >= m for every
    other point b.  Returns the optimal m, or None if no center exists."""
    d = pts.shape[1]
    a0 = pts[verts[0]]
    others = [i for i in range(len(pts)) if i not in verts]
    cost = np.zeros(d + 1)
    cost[d] = -1.0
    # |p_b - z|^2 - |a0 - z|^2 = |p_b|^2 - |a0|^2 + 2 <z, a0 - p_b>
    A_ub = np.array([[*(-2.0 * (a0 - pts[b])), 1.0] for b in others])
    b_ub = np.array([pts[b] @ pts[b] - a0 @ a0 for b in others])
    eq = {}
    if len(verts) > 1:
        eq["A_eq"] = np.array([[*(2.0 * (a0 - pts[i])), 0.0] for i in verts[1:]])
        eq["b_eq"] = np.array([a0 @ a0 - pts[i] @ pts[i] for i in verts[1:]])
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, **eq,
                  bounds=[(-10.0, 10.0)] * d + [(None, None)], method="highs")
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def test_face_test_refuses_a_point_inside_every_sphere():
    # every sphere through 3, 6, 9 and 11 holds a point 2.5e-5 deep, so an
    # LP center that breaks its own rows by that much would accept it
    ps = construct.build("odd", 3, 2)
    assert highs_face_margin(ps.points, (3, 6, 9, 11)) == pytest.approx(-2.5e-5, rel=1e-3)
    assert not oracle.delaunay_face_test(ps, (3, 6, 9, 11))


@pytest.mark.parametrize("k", [2, 3])
def test_face_test_agrees_with_highs(k):
    # every subset of size <= 4 of odd k n=2 whose optimal margin is clear
    # of 0 by 1e-9, so the tolerance of neither solver decides it
    ps = construct.build("odd", k, 2)
    compared = 0
    for size in range(1, 5):
        for verts in itertools.combinations(range(len(ps)), size):
            margin = highs_face_margin(ps.points, verts)
            if margin is not None and abs(margin) < 1e-9:
                continue
            expected = margin is not None and margin > DEFAULT_TOL.abs_eps
            assert oracle.delaunay_face_test(ps, verts) == expected, (verts, margin)
            compared += 1
    assert compared > 0


def reference_pivot(tab, row, col):
    """Row-by-row elimination, the reference for the rank-1 update."""
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and tab[i, col] != 0.0:
            tab[i] -= tab[i, col] * tab[row]


def reference_simplex(tab, basis, n_cols):
    """Scalar entering scan and ratio test, the reference for `lp._simplex`."""
    m = tab.shape[0] - 1
    while True:
        enter = -1
        for j in range(n_cols):
            if tab[-1, j] < -lp._PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = np.inf
        for i in range(m):
            if tab[i, enter] > lp._PIVOT_TOL:
                ratio = tab[i, -1] / tab[i, enter]
                if ratio < best - lp._PIVOT_TOL or (
                        abs(ratio - best) <= lp._PIVOT_TOL
                        and (leave < 0 or basis[i] < basis[leave])):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        reference_pivot(tab, leave, enter)
        basis[leave] = enter


def test_bit_identical_to_row_loop_on_face_test_lps(even_2_5, monkeypatch):
    # the LP the empty-sphere test sets up for every subset of even k=2
    # n=5, also where the smallest sphere accepts before any LP is solved
    ps, _, _, _ = even_2_5
    lps = [oracle._face_lp(*oracle._equidistant_centers(ps, verts))
           for size in range(1, ps.dim + 2)
           for verts in itertools.combinations(range(len(ps)), size)]
    assert len(lps) == 637

    fast = [solve_lp_max(*args) for args in lps]
    monkeypatch.setattr(lp, "_pivot", reference_pivot)
    monkeypatch.setattr(lp, "_simplex", reference_simplex)
    for args, (status, x, val) in zip(lps, fast):
        ref_status, ref_x, ref_val = solve_lp_max(*args)
        assert status == ref_status
        if status == OPTIMAL:
            assert x.tobytes() == ref_x.tobytes()
            assert val == ref_val
