"""The memo of boundary solves in `geometry.min_enclosing_ball` against the
Welzl miniball without it, bit for bit, on every subset the CLI's cross
checks hand to the miniball."""

import functools
import math
import sys

import numpy as np
import pytest

from extremal_cech import cli, complexgen, geometry, oracle
from extremal_cech.geometry import DEFAULT_TOL, Sphere, min_enclosing_ball

from conftest import cached_pipeline, reset_memos


def reference_ball_through(pts):
    p0 = pts[0]
    if len(pts) == 1:
        return Sphere(p0.copy(), 0.0)
    rel = pts[1:] - p0
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    gram = rel @ rel.T
    alpha, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    center = p0 + rel.T @ alpha
    diffs = pts - center
    radius = math.sqrt(float(np.max(np.einsum("ij,ij->i", diffs, diffs))))
    return Sphere(center, radius)


def reference_min_enclosing_ball(points):
    """The move-to-front Welzl miniball before the memo: every boundary is
    solved where the recursion meets it."""
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    order = list(range(len(pts)))

    def inside_limit(ball):
        if ball is None:
            return -math.inf
        r2 = ball.radius**2
        return r2 + DEFAULT_TOL.abs_eps * min(1.0, r2)

    def recurse(end, boundary):
        ball = reference_ball_through(np.asarray(boundary)) if boundary else None
        if len(boundary) == d + 1:
            return ball
        limit = inside_limit(ball)
        i = 0
        while i < end:
            p = pts[order[i]]
            if ball is None or geometry.squared_distance(p, ball.center) > limit:
                ball = recurse(i, boundary + [p])
                limit = inside_limit(ball)
                order.insert(0, order.pop(i))
            i += 1
        return ball

    return recurse(len(order), [])


CROSSCHECK = (["verify", "--all"], ["oracle", "--kind", "even", "--k", "2", "--n", "5"])


@functools.lru_cache(maxsize=None)
def crosscheck_subsets():
    """The distinct point arrays that the two CLI runs of the benchmark's
    crosscheck hand to `min_enclosing_ball`, in order of first call, each
    run starting cold as in a fresh interpreter."""
    seen = {}

    def recording(real):
        def wrapper(points):
            seen.setdefault((points.shape, points.tobytes()), points.copy())
            return real(points)
        return wrapper

    for argv in CROSSCHECK:
        with pytest.MonkeyPatch.context() as mp:
            reset_memos()
            for module in (oracle, complexgen):
                mp.setattr(module, "min_enclosing_ball", recording(min_enclosing_ball))
            assert cli.main(argv) == 0
    return list(seen.values())


def odd_2_3_found_simplex():
    """Simplex (1,2,4,5,9,10) of odd k=2 n=3, where Welzl's radius is 8 ulp
    above the rational circumradius."""
    ps = cached_pipeline("odd", 2, 3)[0]
    return ps.points[[1, 2, 4, 5, 9, 10]]


def assert_as_reference(points):
    ball, reference = min_enclosing_ball(points), reference_min_enclosing_ball(points)
    assert ball.center.tobytes() == reference.center.tobytes()
    assert ball.radius.hex() == reference.radius.hex()


def test_crosscheck_subsets():
    assert len(crosscheck_subsets()) == 293


def test_cold_memo_matches_reference(fresh_memos):
    for points in [*crosscheck_subsets(), odd_2_3_found_simplex()]:
        geometry._memo_ball_through.cache_clear()
        assert_as_reference(points)


def test_warm_memo_matches_reference(fresh_memos):
    subsets = [*crosscheck_subsets(), odd_2_3_found_simplex()]
    for _ in range(2):
        for points in subsets:
            assert_as_reference(points)
    info = geometry._memo_ball_through.cache_info()
    assert 0 < info.currsize < info.maxsize


def test_found_simplex_is_eight_ulp_over_the_batch(fresh_memos):
    points = odd_2_3_found_simplex()
    batch = geometry.circumspheres(points, [tuple(range(len(points)))])
    radius = min_enclosing_ball(points).radius
    assert radius == batch.radius[0] + 8 * math.ulp(batch.radius[0])
    assert_as_reference(points)


def test_returned_center_is_the_callers_own(fresh_memos):
    points = odd_2_3_found_simplex()
    before = min_enclosing_ball(points)
    expected = before.center.tobytes()
    before.center[:] = np.nan
    # the first boundary solved is the first point alone: a hit, read-only
    hits = geometry._memo_ball_through.cache_info().hits
    memoized = geometry._memo_ball_through(points[:1].shape, points[:1].tobytes())
    assert geometry._memo_ball_through.cache_info().hits == hits + 1
    assert memoized.center.flags.writeable is False
    assert min_enclosing_ball(points).center.tobytes() == expected
    assert_as_reference(points)


def test_memo_stays_within_its_bound(fresh_memos):
    """The memo holds at most its 4096 boundaries and drops the least
    recently used: a point read again after each new one stays, and the
    first of the others is gone."""
    memo = geometry._memo_ball_through
    size = memo.cache_info().maxsize
    assert size == 4096
    points = np.random.default_rng(0).random((size + 100, 2))
    for p in points[1:]:
        min_enclosing_ball(p[None])
        min_enclosing_ball(points[:1])
        assert memo.cache_info().currsize <= size
    assert memo.cache_info().currsize == size
    misses = memo.cache_info().misses
    min_enclosing_ball(points[:1])
    assert memo.cache_info().misses == misses
    min_enclosing_ball(points[1:2])
    assert memo.cache_info().misses == misses + 1


def test_verify_all_solves_each_boundary_once(fresh_memos, monkeypatch, capsys):
    real = np.linalg.lstsq
    solves = []

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == geometry.__name__:
            solves.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    assert cli.main(["verify", "--all"]) == 0
    assert "53 claims, 0 failures" in capsys.readouterr().out
    assert 0 < len(solves) <= 200  # 165 distinct boundaries; 832 without the memo
