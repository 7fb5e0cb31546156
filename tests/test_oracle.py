import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from extremal_cech import complexgen, homology, oracle
from extremal_cech.construct import PointSet, build_3d, build_suspended
from extremal_cech.geometry import DEFAULT_TOL, min_enclosing_ball
from extremal_cech.lp import OPTIMAL, solve_lp_max
from extremal_cech.oracle import (
    BudgetExceededError,
    cech,
    cech_betti,
    cech_equals_alpha_betti,
    delaunay_face_test,
    enumeration_matches_oracle,
)

from conftest import rank_betti


def alpha_side_by_ranks(fc, reports, pmax):
    """Each report's alpha vector against boundary ranks of the sublevel,
    read with the oracle's abs_eps slack."""
    return all(rep.alpha_vector == rank_betti(fc, rep.radius, pmax, eps=DEFAULT_TOL.abs_eps)
               for rep in reports)


def rigid_copy(ps, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(ps.dim, ps.dim)))
    moved = ps.points @ q.T + rng.normal(size=ps.dim) * 0.5
    return replace(ps, points=moved)


class TestCech:
    def test_radius_zero_vertices_only(self, threed_n2):
        ps, _, _, _ = threed_n2
        cx = cech(ps.points, 0.0, 2)
        assert all(len(v) == 1 for _, v in cx)
        assert len(cx) == len(ps)

    def test_monotone_in_radius(self, threed_n2):
        ps, _, thresholds, _ = threed_n2
        rhos = sorted(t.rho for t in thresholds)
        prev = set()
        for rho in rhos:
            cur = {v for _, v in cech(ps.points, rho, 3)}
            assert prev <= cur
            prev = cur

    def test_face_closed_and_value_monotone(self, threed_n2):
        ps, _, thresholds, _ = threed_n2
        cx = cech(ps.points, thresholds[-1].rho, 3)
        values = {verts: value for value, verts in cx}
        for value, verts in cx:
            for facet in itertools.combinations(verts, len(verts) - 1):
                if facet:
                    assert facet in values
                    assert values[facet] <= value

    def test_budget_guard(self, threed_n2):
        ps, _, _, _ = threed_n2
        with pytest.raises(BudgetExceededError):
            cech(ps.points, 1.0, 3, budget=10)

    def test_3d_betti_at_thresholds(self, threed_n2):
        ps, _, thresholds, _ = threed_n2
        rho1 = complexgen.threshold_after(thresholds, (1, -1))
        assert cech_betti(ps.points, [rho1], 1)[0][1] == 8

    def test_even_betti_at_half(self, even_2_5):
        ps, _, _, _ = even_2_5
        assert cech_betti(ps.points, [0.5], 1)[0][1] == 26


def brute_force_values(ps, maxdim):
    """The miniball radius of every subset, made monotone by the max over
    its facets."""
    values = {}
    for size in range(1, maxdim + 2):
        for verts in itertools.combinations(range(len(ps)), size):
            value = min_enclosing_ball(ps.points[list(verts)]).radius
            if size > 1:
                value = max(value, max(values[f] for f in itertools.combinations(verts, size - 1)))
            values[verts] = value
    return values


def brute_force_cech(values, r):
    """Reference Cech complex: all subsets with value <= r + abs_eps."""
    kept = [(value, verts) for verts, value in values.items() if value <= r + DEFAULT_TOL.abs_eps]
    kept.sort(key=lambda vs: (vs[0], len(vs[1]), vs[1]))
    return kept


def reference_cech_betti(ps, r, pmax):
    """Betti numbers at r from the Cech complex built and reduced at r."""
    pd = homology.reduce(cech(ps.points, r, min(pmax + 1, ps.dim)))
    return [homology.betti_at(pd, p, r, DEFAULT_TOL.abs_eps) for p in range(pmax + 1)]


class TestOneComplexForAllRadii:
    """The complex at the largest radius answers every smaller radius as
    the complex built at that radius does."""

    @pytest.mark.parametrize("kind,k,n", [("3d", 1, 2), ("even", 2, 5), ("odd", 2, 2),
                                          ("suspended", 2, 2)])
    def test_equals_one_complex_per_radius(self, pipeline, kind, k, n):
        if kind == "suspended":
            base, _, thresholds, _ = pipeline("odd", k - 1, n)
            ps = build_suspended(k, n, base.delta, 0.5)
        else:
            ps, _, thresholds, _ = pipeline(kind, k, n)
        # descending, so the largest radius is not the last one
        radii = [*sorted((th.rho for th in thresholds), reverse=True), 0.0]
        pmax = ps.dim - 1
        assert cech_betti(ps.points, radii, pmax) == [reference_cech_betti(ps, r, pmax)
                                                      for r in radii]


class TestPrunedCech:
    """The oracle computes a subset's miniball only when all its facets lie
    in the complex; the result must be the brute-force complex exactly."""

    @pytest.mark.parametrize("kind,k,n", [("3d", 1, 2), ("3d", 1, 3), ("even", 2, 5),
                                          ("odd", 2, 2), ("suspended", 2, 2)])
    def test_equals_brute_force_bit_for_bit(self, pipeline, kind, k, n):
        if kind == "suspended":
            # the hyperplane set's thresholds, as the suspension claims use them
            base, _, thresholds, _ = pipeline("odd", k - 1, n)
            ps = build_suspended(k, n, base.delta, 0.5)
        else:
            ps, _, thresholds, _ = pipeline(kind, k, n)
        values = brute_force_values(ps, ps.dim)
        above = max(values.values()) + 1.0
        for r in [0.0, *(th.rho for th in thresholds), above]:
            assert cech(ps.points, r, ps.dim) == brute_force_cech(values, r), r
        assert len(cech(ps.points, above, ps.dim)) == len(values)

    def test_skips_miniballs_above_the_cut(self, even_2_5, monkeypatch):
        ps, _, thresholds, _ = even_2_5
        calls = []

        def counting(points):
            calls.append(len(points))
            return min_enclosing_ball(points)

        monkeypatch.setattr(oracle, "min_enclosing_ball", counting)
        cech(ps.points, min(th.rho for th in thresholds), 4)
        assert len(calls) <= 55  # vertices and pairs; a full scan makes 637

    def test_one_miniball_per_subset_across_radii(self, even_2_5, monkeypatch):
        ps, _, thresholds, _ = even_2_5
        calls = []
        cechs = []

        def counting(points):
            calls.append(points.tobytes())
            return min_enclosing_ball(points)

        def recording(*args, **kwargs):
            cechs.append(args[1])
            return cech(*args, **kwargs)

        monkeypatch.setattr(oracle, "min_enclosing_ball", counting)
        monkeypatch.setattr(oracle, "cech", recording)
        rhos = [th.rho for th in thresholds]
        cech_betti(ps.points, rhos, 3)
        assert len(thresholds) == 4
        assert cechs == [max(rhos)]
        assert len(calls) == len(set(calls)) == 130  # one complex per radius: 345


class TestCechEqualsAlpha:
    def test_3d_rho2(self, threed_n2):
        ps, fc, thresholds, _ = threed_n2
        rho2 = complexgen.threshold_after(thresholds, (1, 0))
        [report] = cech_equals_alpha_betti(ps, [rho2], 2, fc=fc)
        assert report.ok
        assert report.cech_vector == [0, 0, 4]
        assert alpha_side_by_ranks(fc, [report], 2)

    def test_radius_zero(self, threed_n2):
        ps, fc, _, _ = threed_n2
        [report] = cech_equals_alpha_betti(ps, [0.0], 2, fc=fc)
        assert report.ok
        assert report.cech_vector[0] == len(ps) - 1
        assert alpha_side_by_ranks(fc, [report], 2)

    def test_even_top_radius_rejected(self, even_2_5):
        ps, fc, _, _ = even_2_5
        with pytest.raises(ValueError):
            cech_equals_alpha_betti(ps, [0.5, 0.71], 2, fc=fc)

    def test_all_thresholds_agree(self, odd_2_2):
        ps, fc, thresholds, _ = odd_2_2
        rhos = [th.rho for th in thresholds]
        reports = cech_equals_alpha_betti(ps, rhos, 4, fc=fc)
        assert [rep.radius for rep in reports] == rhos
        assert all(rep.ok for rep in reports)
        assert alpha_side_by_ranks(fc, reports, 4)


class TestDelaunayFaceTest:
    def test_single_vertex(self, threed_n2):
        ps, _, _, _ = threed_n2
        assert delaunay_face_test(ps, (0,))

    def test_long_edge(self, threed_n2):
        ps, _, _, _ = threed_n2
        assert delaunay_face_test(ps, (0, 3))

    def test_non_consecutive_pair_rejected(self):
        ps = build_3d(3, 0.01)
        assert not delaunay_face_test(ps, (0, 2))

    def test_non_consecutive_even_pair_rejected(self, even_2_5):
        ps, _, _, _ = even_2_5
        assert not delaunay_face_test(ps, (0, 2))

    def test_relabel_and_rigid_invariance(self, threed_n2):
        ps, _, _, _ = threed_n2
        moved = rigid_copy(ps, 3)
        for verts in [(0,), (0, 1), (0, 3), (0, 2), (0, 1, 3, 4)]:
            assert delaunay_face_test(ps, verts) == delaunay_face_test(moved, verts)

    def test_full_set_trivially_true(self):
        tiny = PointSet("3d", 1, 0, 0.1, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        assert delaunay_face_test(tiny, (0, 1))

    # id lists that name no simplex of the 10 points
    @pytest.mark.parametrize("verts", [(0, 0), (3, 3, 4), (-1, 2), (0, 25), ()],
                             ids=["repeated-edge", "repeated-triangle", "negative",
                                  "out-of-range", "empty"])
    def test_not_a_simplex_refused(self, even_2_5, verts):
        ps, _, _, _ = even_2_5
        assert len(ps) == 10
        with pytest.raises(ValueError,
                           match=rf"^not a simplex of points 0\.\.9: {re.escape(str(verts))}$"):
            delaunay_face_test(ps, verts)


def lp_only_verdict(ps, verts):
    """(verdict, smallest sphere) for one subset.  The verdict is the LP's
    alone: the refusals before any LP, then `solve_lp_max` on the LP that
    `oracle._face_lp` sets up and the clearance at the center it returns.
    The smallest sphere is whether the equidistant center nearest a0
    accepts, or None where a refusal or an empty complement decides before
    it is tried."""
    centers = oracle._equidistant_centers(ps, verts)
    if centers is None:
        return False, None
    a0, others, z0, null = centers
    if not len(others):
        return True, None
    if np.any(np.abs(z0) > oracle._LP_BOX):
        return False, None
    abs_eps = DEFAULT_TOL.abs_eps
    status, x, _ = solve_lp_max(*oracle._face_lp(*centers))
    verdict = (status == OPTIMAL
               and oracle._clearances(others, a0, z0 + null @ x[:-1]).min() > abs_eps)
    smallest = z0 + null @ (null.T @ (a0 - z0))
    accepts = bool(np.all(np.abs(smallest) <= oracle._LP_BOX)
                   and oracle._clearances(others, a0, smallest).min() > abs_eps)
    return bool(verdict), accepts


@pytest.fixture
def lp_calls(monkeypatch):
    """The arguments of every `solve_lp_max` call the oracle makes."""
    calls = []

    def recording(*args):
        calls.append(args)
        return solve_lp_max(*args)

    monkeypatch.setattr(oracle, "solve_lp_max", recording)
    return calls


class TestSmallestSphereFirst:
    """The smallest sphere through the vertices is tried before the LP;
    the verdict must be the LP's alone, on every subset."""

    @pytest.mark.parametrize("kind,k,n", [("even", 2, 5), ("odd", 2, 2), ("3d", 1, 3)])
    def test_verdict_equals_the_lp_alone(self, pipeline, lp_calls, kind, k, n):
        ps, _, _, _ = pipeline(kind, k, n)
        reached, refused_by_smallest, faces = set(), set(), set()
        for size in range(1, ps.dim + 2):
            for verts in itertools.combinations(range(len(ps)), size):
                before = len(lp_calls)
                verdict = delaunay_face_test(ps, verts)
                assert len(lp_calls) - before in (0, 1)
                if len(lp_calls) > before:
                    reached.add(verts)
                expected, smallest = lp_only_verdict(ps, verts)
                assert verdict == expected, verts
                if smallest is False:
                    refused_by_smallest.add(verts)
                if verdict:
                    faces.add(verts)
        assert reached == refused_by_smallest
        # every face of these mosaics is critical: its smallest sphere is empty
        assert reached and faces and not reached & faces

    def test_non_critical_face_accepted_by_the_lp(self, threed_n2, lp_calls):
        # the long edge (0, 1) of an obtuse triangle: its smallest sphere,
        # about the edge's midpoint, holds point 2, yet a sphere centered
        # far out on the side of the edge away from 2 leaves it outside
        ps = replace(threed_n2[0], points=np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                                     [0.0, 0.2, 0.0]]))
        ball = min_enclosing_ball(ps.points[:2])
        assert np.sum((ps.points[2] - ball.center) ** 2) < ball.radius ** 2
        assert delaunay_face_test(ps, (0, 1))
        assert len(lp_calls) == 1
        assert lp_only_verdict(ps, (0, 1)) == (True, False)


class TestEnumerationMatch:
    @pytest.mark.parametrize("n", [2, 3])
    def test_3d(self, pipeline, n):
        ps, _, _, _ = pipeline("3d", 1, n)
        report = enumeration_matches_oracle(ps, 3)
        assert report.ok, (report.missing, report.extra)

    def test_even_2_5(self, even_2_5):
        ps, _, _, _ = even_2_5
        report = enumeration_matches_oracle(ps, 3)
        assert report.ok
        assert report.n_enumerated == 120

    def test_odd_2_2(self, odd_2_2):
        ps, _, _, _ = odd_2_2
        report = enumeration_matches_oracle(ps, 5)
        assert report.ok
        assert report.n_enumerated == 215

    def test_budget_guard(self, even_2_5):
        ps, _, _, _ = even_2_5
        with pytest.raises(BudgetExceededError):
            enumeration_matches_oracle(ps, 3, budget=5)

    @pytest.mark.parametrize("maxdim", [-1, 4])
    def test_maxdim_outside_the_dimension(self, threed_n2, maxdim):
        ps, _, _, _ = threed_n2
        with pytest.raises(ValueError, match=f"maxdim {maxdim} is outside 0..3"):
            enumeration_matches_oracle(ps, maxdim)


def full_scan_match(ps, maxdim):
    """Reference: the empty-sphere test on every subset up to maxdim+1."""
    enumerated = {cs.vertices for cs in complexgen.enumerate_mosaic(ps) if cs.dim <= maxdim}
    faces = {verts for size in range(1, maxdim + 2)
             for verts in itertools.combinations(range(len(ps)), size)
             if delaunay_face_test(ps, verts)}
    return oracle.MatchReport(len(enumerated), len(faces),
                              sorted(faces - enumerated), sorted(enumerated - faces))


def jittered_3d(seed):
    ps = build_3d(3, 0.05)
    noise = np.random.default_rng(seed).normal(scale=0.05, size=ps.points.shape)
    return replace(ps, points=ps.points + noise)


class TestFaceGrownOracle:
    """The LP runs only on subsets whose facets all passed; the report must
    equal the scan of every subset exactly."""

    # ok: the verdict the report must give
    @pytest.mark.parametrize("kind,k,n,ok", [("3d", 1, 2, True), ("3d", 1, 3, True),
                                             ("even", 2, 5, True), ("odd", 2, 2, True)])
    def test_equals_full_scan(self, pipeline, kind, k, n, ok):
        ps, _, _, _ = pipeline(kind, k, n)
        report = enumeration_matches_oracle(ps, ps.dim)
        assert report.ok is ok
        assert report == full_scan_match(ps, ps.dim)

    # disagrees: faces missing from the enumeration and extra in it, both
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("disagrees", [True])
    def test_equals_full_scan_on_jittered_points(self, seed, disagrees):
        ps = jittered_3d(seed)
        report = enumeration_matches_oracle(ps, 3)
        assert bool(report.missing and report.extra) is disagrees
        assert report == full_scan_match(ps, 3)

    def test_tests_only_subsets_with_accepted_facets(self, even_2_5, monkeypatch):
        ps, _, _, _ = even_2_5
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return delaunay_face_test(*args, **kwargs)

        monkeypatch.setattr(oracle, "delaunay_face_test", counting)
        assert enumeration_matches_oracle(ps, 4).ok
        assert len(calls) <= 130  # a full scan makes 637
