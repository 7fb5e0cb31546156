import dataclasses
import itertools
import math
from collections import Counter
from math import comb

import numpy as np
import pytest

from extremal_cech import complexgen, homology
from extremal_cech.complexgen import (
    ClassifiedSimplex,
    FilteredComplex,
    InvalidSimplexError,
    NotCriticalError,
    OverlapError,
    build_filtration,
    classify,
    criticality_check,
    enumerate_mosaic,
    load_filtration,
    pick_thresholds,
    radius_value,
    save_filtration,
)
from extremal_cech.construct import build_3d, build_even, build_odd, build_validated, half_edge
from extremal_cech.geometry import (
    DEFAULT_TOL,
    barycentric_interior,
    circumsphere,
    circumspheres,
    is_empty_sphere,
    min_enclosing_ball,
)

from conftest import cached_pipeline, mosaic_complex
from test_acceptance import ACCEPTED


def class_counts(simplices):
    out = {}
    for cs in simplices:
        out[cs.cls] = out.get(cs.cls, 0) + 1
    return out


def even_class_count(k, n, ell, j):
    return comb(k, ell + 1) * comb(ell + 1, j + 1) * n ** (ell + 1)


def odd_class_count(k, n, ell, j):
    return comb(k + 1, ell + 1) * comb(ell + 1, j + 1) * n ** (j + 1) * (n + 1) ** (ell - j)


class TestClassify:
    def test_vertex(self):
        ps = build_even(2, 5)
        cs = classify(ps, (3,))
        assert (cs.touch, cs.short, cs.dim) == (0, -1, 0)

    def test_long_edge(self):
        ps = build_even(2, 5)
        cs = classify(ps, (0, 5))
        assert cs.cls == (1, -1)

    def test_3d_tetrahedron(self):
        ps = build_3d(2, 0.01)
        cs = classify(ps, (0, 1, 3, 4))
        assert cs.cls == (1, 1)
        assert cs.dim == 3

    def test_even_wraparound_pair(self):
        ps = build_even(2, 5)
        assert classify(ps, (0, 4)).cls == (0, 0)

    def test_non_consecutive_rejected(self):
        ps = build_3d(3, 0.01)
        with pytest.raises(InvalidSimplexError):
            classify(ps, (0, 2))

    def test_three_on_circle_rejected(self):
        ps = build_3d(3, 0.01)
        with pytest.raises(InvalidSimplexError):
            classify(ps, (0, 1, 2))


def circle_items(ps, circle, want_pair):
    """Single points or consecutive pairs available on one circle; pairs
    wrap around on the even kind's full n-gons."""
    base = circle * ps.points_per_circle
    n = ps.n
    if want_pair:
        if ps.kind == "even":
            return [(base + t, base + (t + 1) % n) for t in range(n)]
        return [(base + t, base + t + 1) for t in range(n)]
    return [(base + t,) for t in range(ps.points_per_circle)]


def even_reference(ps):
    """Reference enumeration of the even mosaic, in touch-major order:
    choose touch+1 circles, short+1 of which contribute a consecutive pair,
    the rest one point."""
    out = []
    for ell in range(ps.k):
        for circles in itertools.combinations(range(ps.k), ell + 1):
            for j in range(-1, ell + 1):
                for pair_circles in itertools.combinations(circles, j + 1):
                    options = [circle_items(ps, c, c in pair_circles) for c in circles]
                    for combo in itertools.product(*options):
                        verts = tuple(sorted(v for item in combo for v in item))
                        out.append(ClassifiedSimplex(verts, touch=ell, short=j))
    return out


class TestEnumerateEven:
    def test_census_2_5(self):
        ps = build_even(2, 5)
        counts = class_counts(enumerate_mosaic(ps))
        assert counts[(0, -1)] == 10
        assert counts[(1, -1)] == 25  # one circle pair, n^2 long edges
        for (ell, j), c in counts.items():
            assert c == even_class_count(2, 5, ell, j)
        assert sum(counts.values()) == len(list(enumerate_mosaic(ps)))

    def test_census_3_6(self):
        ps = build_even(3, 6)
        counts = class_counts(enumerate_mosaic(ps))
        for ell in range(3):
            for j in range(-1, ell + 1):
                assert counts[(ell, j)] == even_class_count(3, 6, ell, j)

    def test_below_min_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_mosaic(build_even(2, 4))

    @pytest.mark.parametrize("k,n", [(2, 5), (2, 8), (3, 6)])
    def test_matches_reference_in_size_then_vertex_order(self, k, n):
        ps = build_even(k, n)
        reference = even_reference(ps)
        assert enumerate_mosaic(ps) == sorted(reference, key=lambda cs: (cs.dim, cs.vertices))


def face_closure_odd(ps):
    """Reference enumeration: every subset of every top simplex (one
    consecutive pair from each circle), classified from its labels."""
    pair_options = [circle_items(ps, c, True) for c in range(ps.n_circles)]
    seen = set()
    for combo in itertools.product(*pair_options):
        top = tuple(sorted(v for pair in combo for v in pair))
        for size in range(1, len(top) + 1):
            seen.update(itertools.combinations(top, size))
    return [classify(ps, verts) for verts in sorted(seen, key=lambda v: (len(v), v))]


class TestEnumerateOdd:
    @pytest.mark.parametrize("ps", [build_3d(n, 0.01) for n in (2, 3, 4, 30)]
                             + [build_odd(2, n, 0.005) for n in (2, 3)]
                             + [build_odd(3, 3, 0.005)],
                             ids=["3d-2", "3d-3", "3d-4", "3d-30", "odd-2-2", "odd-2-3", "odd-3-3"])
    def test_matches_face_closure(self, ps):
        assert enumerate_mosaic(ps) == face_closure_odd(ps)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_3d_census(self, n):
        ps = build_3d(n, 0.01)
        counts = class_counts(enumerate_mosaic(ps))
        assert counts[(0, -1)] == 2 * n + 2
        assert counts[(0, 0)] + counts[(1, -1)] == 2 * n + (n + 1) ** 2
        assert counts[(1, 0)] == 2 * n * (n + 1)
        assert counts[(1, 1)] == n**2

    def test_odd_top_simplices(self):
        ps = build_odd(2, 2, 0.005)
        simplices = enumerate_mosaic(ps)
        assert sum(1 for cs in simplices if cs.dim == 5) == 8  # n^(k+1)
        counts = class_counts(simplices)
        for (ell, j), c in counts.items():
            assert c == odd_class_count(2, 2, ell, j)

    def test_no_short_edge_count(self):
        # p-simplices touching p+1 circles, one point each
        ps = build_odd(2, 3, 0.005)
        counts = class_counts(enumerate_mosaic(ps))
        for p in range(3):
            assert counts[(p, -1)] == comb(3, p + 1) * 4 ** (p + 1)


class TestRadiusValue:
    def test_vertex_is_zero(self):
        ps = build_even(2, 5)
        assert radius_value(ps, (0,)) == 0.0

    def test_even_long_edge_is_half(self):
        ps = build_even(2, 5)
        assert radius_value(ps, (0, 5)) == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
    def test_even_closed_forms(self, k, n):
        ps = build_even(k, n)
        s2 = half_edge(ps) ** 2
        fc = build_filtration(ps)
        for (ell, j), (lo, hi, _) in fc.class_ranges().items():
            if j == -1:
                want = math.sqrt(ell / (2.0 * ell + 2.0))
            elif j == ell:
                want = math.sqrt((ell + 2.0 * s2) / (2.0 * ell + 2.0))
            else:
                continue
            assert lo == pytest.approx(want, rel=1e-9)
            assert hi == pytest.approx(want, rel=1e-9)

    def test_not_critical_raises_with_offender(self):
        ps = build_3d(10, 0.5)
        with pytest.raises(NotCriticalError) as err:
            build_filtration(ps)
        assert err.value.offender >= 0


class TestFiltration:
    def test_3d_n2_entry_count(self, threed_n2):
        _, fc, _, _ = threed_n2
        assert len(fc) == 35  # 6 + 13 + 12 + 4

    def test_sorted_and_face_closed(self, threed_n2):
        _, fc, _, _ = threed_n2
        keys = [(v, cs.dim, cs.vertices) for v, cs in fc.entries]
        assert keys == sorted(keys)

    def test_equal_entries_compare_equal(self):
        fc = build_filtration(build_3d(2, 0.01))
        assert fc == FilteredComplex(list(fc.entries))

    def test_coface_value_raised_to_its_facets(self, monkeypatch):
        # one tetrahedron's radius is set one ulp below its largest facet's
        ps = build_3d(2, 0.01)
        verts = [cs.vertices for cs in complexgen.enumerate_mosaic(ps)]
        tet = next(i for i, v in enumerate(verts) if len(v) == 4)
        facets = [verts.index(f) for f in itertools.combinations(verts[tet], 3)]
        facet_max = []
        batched = complexgen.circumspheres

        def one_ulp_low(*args):
            batch = batched(*args)
            facet_max.append(batch.radius[facets].max())
            batch.radius[tet] = np.nextafter(facet_max[0], 0.0)
            return batch

        monkeypatch.setattr(complexgen, "circumspheres", one_ulp_low)
        values = {cs.vertices: value for value, cs in build_filtration(ps).entries}
        assert values[verts[tet]] == facet_max[0]

    def test_vertices_have_value_zero(self, even_2_5):
        _, fc, _, _ = even_2_5
        for value, cs in fc.entries:
            if cs.dim == 0:
                assert value == 0.0

    def test_even_2_5_distinct_values(self, even_2_5):
        # five proper-face classes, one value each (congruent simplices)
        _, fc, _, _ = even_2_5
        distinct = {round(v, 12) for v, _ in fc.entries}
        assert len(distinct) == 5

    def test_class_order_is_value_order(self, odd_2_2):
        # touch-then-short class order sorts the value ranges
        _, fc, _, _ = odd_2_2
        ranges = fc.class_ranges()
        classes = sorted(ranges)
        for cur, nxt in zip(classes, classes[1:]):
            assert ranges[cur][1] < ranges[nxt][0]

    def test_file_roundtrip_bit_exact(self, threed_n2, tmp_path):
        _, fc, _, _ = threed_n2
        path = tmp_path / "filt.txt"
        save_filtration(fc, path)
        back = load_filtration(path)
        assert [(v, cs) for v, cs in back.entries] == [(v, cs) for v, cs in fc.entries]
        path2 = tmp_path / "filt2.txt"
        save_filtration(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_deterministic_output(self, tmp_path):
        ps = build_3d(3, 0.01)
        a = build_filtration(ps)
        b = build_filtration(ps)
        assert a.entries == b.entries
        save_filtration(a, tmp_path / "a.txt")
        save_filtration(b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def welzl_filtration(simplices, radii):
    """Filtration assembled from per-simplex miniball radii, the way it was
    built before the batched pass: monotone under faces, then sorted."""
    by_verts = {}
    for cs, value in sorted(zip(simplices, radii), key=lambda e: e[0].dim):
        if cs.dim > 0:
            value = max(value, max(by_verts[f]
                                   for f in itertools.combinations(cs.vertices, cs.dim)))
        by_verts[cs.vertices] = value
    return FilteredComplex(sorted(((by_verts[cs.vertices], cs) for cs in simplices),
                                  key=lambda e: (e[0], e[1].dim, e[1].vertices)))


def diagram_multiset(pd):
    return Counter((dim, round(birth, 12), round(death, 12)) for dim, birth, death in pd.pairs)


def scalar_predicates(ps, verts):
    pts = ps.points[list(verts)]
    sphere = circumsphere(pts)
    return (barycentric_interior(pts, sphere.center),
            is_empty_sphere(sphere, ps, exclude=verts, strict=True))


class TestBatchedSpheres:
    @pytest.mark.parametrize("kind,k,n", ACCEPTED + (("even", 3, 6),))
    def test_radii_match_welzl(self, kind, k, n):
        ps, _, _, pd = cached_pipeline(kind, k, n)
        simplices = complexgen.enumerate_mosaic(ps)
        batched = circumspheres(ps, [cs.vertices for cs in simplices]).radius
        welzl = np.array([min_enclosing_ball(ps.points[list(cs.vertices)]).radius
                          for cs in simplices])
        assert np.all(np.abs(batched - welzl) <= 8 * np.spacing(welzl))
        reference = homology.reduce(welzl_filtration(simplices, welzl))
        assert diagram_multiset(pd) == diagram_multiset(reference)

    def test_criticality_matches_scalar(self):
        ps = build_3d(10, 0.5)
        fc = mosaic_complex(ps)
        verts = [cs.vertices for _, cs in fc.entries]
        scalar = [complexgen._criticality_failure(ps, v, DEFAULT_TOL) for v in verts]
        for shift in range(4):  # each predicate, under every vertex order
            rotated = [v[shift % len(v):] + v[:shift % len(v)] for v in verts]
            batch = circumspheres(ps, rotated)
            assert list(zip(batch.interior, batch.empty)) == [
                scalar_predicates(ps, v) for v in rotated]
        assert criticality_check(ps, fc).failures == [
            (v, f.reason) for v, f in zip(verts, scalar) if f is not None]

    def test_degenerate_and_oversized_go_to_scalar_path(self):
        base = build_3d(3, 0.01)
        pts = base.points.copy()
        pts[2] = 0.5 * (pts[0] + pts[1])  # (0, 1, 2) collinear
        ps = dataclasses.replace(base, points=pts)
        odd_ones = [(0, 1, 2), (0, 1, 4, 5, 6)]
        good = [cs.vertices for cs in complexgen.enumerate_mosaic(base)
                if cs.dim == 3 and 2 not in cs.vertices]
        batch = circumspheres(ps, odd_ones + good)
        assert list(batch.degenerate) == [True, True] + [False] * len(good)
        assert np.all(np.isnan(batch.radius[:2]))
        fc = FilteredComplex([(0.0, ClassifiedSimplex(v, 1, 1)) for v in odd_ones + good])
        failures = criticality_check(ps, fc).failures
        assert [v for v, _ in failures[:2]] == odd_ones
        assert all(r.startswith("degenerate circumsphere") for _, r in failures[:2])
        scalar = [(v, complexgen._criticality_failure(ps, v, DEFAULT_TOL)) for v in good]
        assert failures[2:] == [(v, f.reason) for v, f in scalar if f is not None]


class TestSinglePass:
    def test_one_sphere_pass_per_build(self, monkeypatch):
        calls = []
        batched = complexgen.circumspheres

        def counting(*args, **kwargs):
            calls.append(args)
            return batched(*args, **kwargs)

        monkeypatch.setattr(complexgen, "circumspheres", counting)
        build_validated("3d", k=1, n=4)  # validates at its first delta
        assert len(calls) == 1

    @pytest.mark.parametrize("kind,k,n", ACCEPTED)
    def test_enumeration_lists_faces_first(self, kind, k, n):
        ps = cached_pipeline(kind, k, n)[0]
        seen = set()
        for cs in complexgen.enumerate_mosaic(ps):
            if cs.dim > 0:
                assert seen.issuperset(itertools.combinations(cs.vertices, cs.dim))
            seen.add(cs.vertices)

    @staticmethod
    def fresh_check(ps, fc):
        """The check on a hand-made filtration with the same entries."""
        return criticality_check(ps, FilteredComplex(fc.entries))

    def test_failing_build_reports_as_fresh_check(self):
        # the build raises the check's first failure in enumeration order
        ps = build_3d(10, 0.5)
        report = criticality_check(ps, mosaic_complex(ps))
        with pytest.raises(NotCriticalError) as err:
            build_filtration(ps)
        assert report.failures[0] == (err.value.simplex, err.value.reason)

    @pytest.mark.parametrize("kind,k,n", ACCEPTED)
    def test_accepted_instances_report_as_fresh_check(self, kind, k, n):
        ps, fc, _, _ = cached_pipeline(kind, k, n)
        report = criticality_check(ps, fc)
        assert report.ok
        assert report == self.fresh_check(ps, fc)


DIFFERENTIAL = ACCEPTED + (("3d", 1, 30), ("odd", 3, 4))


def reference_build(ps, tol=DEFAULT_TOL):
    """The list-of-tuples build on the reference enumeration: one sphere
    pass, the face relation from boundary_columns, the sequential monotone
    fix, and a sort by (value, dim, vertex list)."""
    simplices = even_reference(ps) if ps.kind == "even" else face_closure_odd(ps)
    verts = [cs.vertices for cs in simplices]
    columns = homology.boundary_columns(verts)
    batch = circumspheres(ps, verts, tol)
    assert batch.critical.all()
    values = batch.radius.tolist()
    for j, rows in enumerate(columns):
        if rows:
            values[j] = max(values[j], max(values[r] for r in rows))
    order = sorted(range(len(simplices)),
                   key=lambda i: (values[i], simplices[i].dim, simplices[i].vertices))
    return [(values[i], simplices[i]) for i in order]


def exact(entries):
    return [(value.hex(), cs.vertices, cs.touch, cs.short) for value, cs in entries]


class TestArrayBuild:
    @pytest.mark.parametrize("kind,k,n", DIFFERENTIAL)
    def test_closed_form_facets_match_boundary_columns(self, kind, k, n):
        m = complexgen._mosaic(cached_pipeline(kind, k, n)[0])
        closed = [sorted(row[row != i].tolist()) for i, row in enumerate(m.facets)]
        assert closed == homology.boundary_columns(m.vertex_tuples())

    @pytest.mark.parametrize("kind,k,n", DIFFERENTIAL)
    def test_bit_identical_to_reference_build(self, kind, k, n):
        ps = cached_pipeline(kind, k, n)[0]
        fc = build_filtration(ps)
        entries = reference_build(ps)
        assert exact(fc.entries) == exact(entries)
        assert fc.class_ranges() == FilteredComplex(entries).class_ranges()


def face_order_message(columns, rank, verts):
    """The face-order check as a loop over boundary_columns: the message
    for the first coface in rank order with a facet ranked after it."""
    for i in sorted(range(len(verts)), key=lambda i: rank[i]):
        for r in columns[i]:
            if rank[r] > rank[i]:
                return f"face {verts[r]} does not precede coface {verts[i]} in the filtration"
    return None


class TestFaceOrderCheck:
    @pytest.mark.parametrize("ps", [build_3d(3, 0.01), build_even(2, 5), build_odd(2, 2, 0.005)],
                             ids=["3d-3", "even-2-5", "odd-2-2"])
    def test_permuted_orders_raise_the_loop_message(self, ps):
        m = complexgen._mosaic(ps)
        verts = m.vertex_tuples()
        columns = homology.boundary_columns(verts)
        rng = np.random.default_rng(20240811)
        ranks = [np.arange(len(verts))[::-1]] + [rng.permutation(len(verts)) for _ in range(20)]
        for rank in ranks:
            message = face_order_message(columns, rank.tolist(), verts)
            assert message is not None
            with pytest.raises(RuntimeError) as err:
                complexgen._check_face_order(m.facets, rank, verts)
            assert str(err.value) == message

    def test_one_facet_moved_after_its_coface(self):
        m = complexgen._mosaic(build_3d(3, 0.01))
        verts = m.vertex_tuples()
        tet = next(i for i, v in enumerate(verts) if len(v) == 4)
        facet = int(m.facets[tet].min())
        rank = np.arange(len(verts))
        complexgen._check_face_order(m.facets, rank, verts)
        rank[[facet, tet]] = rank[[tet, facet]]
        with pytest.raises(RuntimeError, match="does not precede") as err:
            complexgen._check_face_order(m.facets, rank, verts)
        assert str(err.value) == (f"face {verts[facet]} does not precede coface "
                                  f"{verts[tet]} in the filtration")


class TestThresholds:
    def test_3d_rho1_in_gap(self, threed_n2):
        _, fc, thresholds, _ = threed_n2
        ranges = fc.class_ranges()
        rho1 = complexgen.threshold_after(thresholds, (1, -1))
        assert ranges[(1, -1)][1] < rho1 < ranges[(1, 0)][0]

    def test_even_rho_between_half_and_triangle(self, even_2_5):
        ps, fc, thresholds, _ = even_2_5
        rho = complexgen.threshold_after(thresholds, (1, -1))
        s2 = half_edge(ps) ** 2
        assert 0.5 < rho < math.sqrt(1.0 / (1.0 - s2)) / 2.0

    def test_single_class_gives_empty_list(self):
        fc = complexgen.FilteredComplex(
            [(0.0, complexgen.ClassifiedSimplex((i,), 0, -1)) for i in range(3)])
        assert pick_thresholds(fc) == []

    def test_overlap_detected(self):
        with pytest.raises(OverlapError):
            pick_thresholds(mosaic_complex(build_3d(3, 0.5)))


class TestCriticality:
    def test_all_critical_small_delta(self, threed_n2, odd_2_2):
        for ps, fc, _, _ in (threed_n2, odd_2_2):
            assert criticality_check(ps, fc).ok

    def test_detector_fires_at_large_delta(self):
        ps = build_3d(10, 0.5)
        report = criticality_check(ps, mosaic_complex(ps))
        assert len(report.failures) >= 1

    def test_build_refuses_a_center_off_the_interior(self):
        # Point 1 lies outside the diametral sphere of edge (0, 3) by 1e-11 in
        # squared distance, more than abs_eps: the edge is critical, and the
        # miniball of triangle (0, 1, 3) is its strictly empty circumsphere.
        # That sphere's center lies on the edge, with a barycentric weight
        # of about 3e-11 < interior_eps on point 1, so the triangle is not
        # critical, and the build must raise rather than value it.
        base = build_3d(2, 0.5)
        pts = base.points.copy()
        mid = 0.5 * (pts[0] + pts[3])
        axis = (pts[3] - pts[0]) / np.linalg.norm(pts[3] - pts[0])
        # turn point 1 by pi/12 about the edge, clear of the other spheres
        v = pts[1] - mid
        c, s = math.cos(math.pi / 12), math.sin(math.pi / 12)
        v = c * v + s * np.cross(axis, v) + (1.0 - c) * np.dot(axis, v) * axis
        r2 = 0.25 * np.dot(pts[3] - pts[0], pts[3] - pts[0])
        pts[1] = mid + v * math.sqrt((r2 + 1e-11) / np.dot(v, v))
        ps = dataclasses.replace(base, points=pts)
        triangle = (0, 1, 3)
        assert is_empty_sphere(min_enclosing_ball(pts[list(triangle)]), ps, exclude=triangle)
        assert criticality_check(ps, mosaic_complex(ps)).failures == [
            (triangle, "circumcenter not in simplex interior")]
        with pytest.raises(NotCriticalError) as err:
            build_filtration(ps)
        assert (err.value.simplex, err.value.offender) == (triangle, None)
        assert str(err.value) == ("simplex (0, 1, 3) is not critical: "
                                  "circumcenter not in simplex interior")
