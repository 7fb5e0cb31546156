import dataclasses
import decimal
import gc
import itertools
import math
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from extremal_cech import complexgen, geometry, homology
from extremal_cech.complexgen import (
    ClassifiedSimplex,
    NotCriticalError,
    OverlapError,
    build_filtration,
    criticality_check,
    enumerate_mosaic,
    pick_thresholds,
    radius_value,
    save_filtration,
    threshold_after,
)
from extremal_cech.construct import build_3d, build_even, build_odd, build_validated, half_edge
from extremal_cech.geometry import (
    barycentric_interior,
    circumsphere,
    circumspheres,
    is_empty_sphere,
    min_enclosing_ball,
)

from conftest import (
    as_filtration,
    cached_pipeline,
    circumspheres_in_order,
    euler_characteristic_ok,
    hand_made,
    mosaic_complex,
    rank_betti,
)
from test_acceptance import ACCEPTED
from test_spheres import bits, reference_circumspheres


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
    def test_simplex_is_an_immutable_hashable_tuple(self):
        cs = ClassifiedSimplex(vertices=(0, 1, 3), touch=1, short=0)
        assert cs == ClassifiedSimplex((0, 1, 3), 1, 0) == ((0, 1, 3), 1, 0)
        assert (cs.dim, cs.cls) == (2, (1, 0))
        assert hash(cs) == hash(((0, 1, 3), 1, 0))
        assert len({cs, ClassifiedSimplex((0, 1, 3), 1, 0)}) == 1
        with pytest.raises(AttributeError):
            cs.touch = 0


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
        # a class has one size, and the enumeration lists the classes in
        # (touch, short) order, each in vertex-list order
        ps = build_even(k, n)
        reference = even_reference(ps)
        assert enumerate_mosaic(ps) == sorted(reference, key=lambda cs: (cs.cls, cs.vertices))


def classify_by_labels(circle, verts):
    """Reference classification from the labels' circle ids: touch is the
    circles touched less one, short the circles giving a pair less one."""
    per_circle = Counter(circle[v] for v in verts)
    pairs = sum(1 for count in per_circle.values() if count == 2)
    return ClassifiedSimplex(verts, touch=len(per_circle) - 1, short=pairs - 1)


def face_closure_odd(ps):
    """Reference enumeration: every subset of every top simplex (one
    consecutive pair from each circle), classified from its labels, in
    (touch, short, vertex list) order."""
    pair_options = [circle_items(ps, c, True) for c in range(ps.n_circles)]
    seen = set()
    for combo in itertools.product(*pair_options):
        top = tuple(sorted(v for pair in combo for v in pair))
        for size in range(1, len(top) + 1):
            seen.update(itertools.combinations(top, size))
    circle = ps.labels[:, 0].tolist()
    return sorted((classify_by_labels(circle, verts) for verts in seen),
                  key=lambda cs: (cs.cls, cs.vertices))


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

    def test_is_the_batch_row(self):
        ps = cached_pipeline("odd", 2, 2)[0]
        m = complexgen._mosaic(ps)
        values = [radius_value(ps, v) for v in complexgen._vertex_tuples(m.ids)]
        assert bits(values) == bits(circumspheres_in_order(ps, m.ids).radius)

    def test_not_critical_raises_the_builds_error(self):
        ps = build_3d(10, 0.5)
        with pytest.raises(NotCriticalError) as built:
            build_filtration(ps)
        with pytest.raises(NotCriticalError) as one:
            radius_value(ps, built.value.simplex)
        assert ((one.value.simplex, one.value.offender, one.value.reason)
                == (built.value.simplex, built.value.offender, built.value.reason))

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
        """A built complex equals its hand-made copy (per-class against
        per-size blocks); a copy that differs in one value, one vertex id or
        one class does not."""
        fc = build_filtration(build_3d(2, 0.01))
        entries = list(fc.entries)
        assert fc == hand_made(entries)
        value, cs = entries[-1]
        assert cs.dim == 3 and cs.vertices[0] > 0
        # a hand-made complex does not check dim = touch + short + 1, so the
        # class also changes in touch alone and in short alone; each copy
        # takes the built face relation, as the changed vertex list has
        # facets the complex lacks
        changed = [(float(np.nextafter(value, np.inf)), cs),
                   (value, cs._replace(vertices=(0, *cs.vertices[1:]))),
                   (value, cs._replace(touch=cs.touch + 1, short=cs.short - 1)),
                   (value, cs._replace(touch=cs.touch + 1)),
                   (value, cs._replace(short=cs.short - 1))]
        for last in changed:
            other = hand_made(entries[:-1] + [last], fc.faces())
            assert fc != other and other != fc, last

    def test_entries_is_a_fresh_iterator(self):
        """Each read of `entries` is a new iterator over the same pairs,
        spent after one pass, and `hand_made` takes one as it takes a
        list."""
        fc = build_filtration(build_3d(2, 0.01))
        first, second = fc.entries, fc.entries
        assert first is not second and iter(first) is first
        pairs = list(first)
        assert len(pairs) == len(fc) and exact(pairs) == exact(second)
        assert list(first) == []
        assert hand_made(fc.entries) == fc

    def test_hand_made_complex_keeps_no_list(self):
        entries = list(build_filtration(build_3d(2, 0.01)).entries)
        fc = hand_made(entries)
        assert list(fc.entries) == entries
        mine = (fc, vars(fc), fc.entries)
        assert not any(r is obj for r in gc.get_referrers(entries) for obj in mine)
        assert not any(r is obj for r in gc.get_referrers(*entries) for obj in mine)

    def test_complex_and_its_view_make_no_cycle(self):
        """A complex, its entries and what their reading makes are freed by
        reference counting alone: with the collector off, the complex dies
        on `del`, and a collection afterwards finds no garbage."""
        gc.collect()
        gc.disable()
        try:
            ps, fc, thresholds = build_validated("3d", k=1, n=6)
            pd = homology.reduce(fc)
            assert homology.betti_at(pd, 1, threshold_after(thresholds, (1, -1))) == 7**2 - 1
            assert sum(1 for _ in fc.entries) == len(fc)
            assert fc == fc
            alive = weakref.ref(fc)
            del ps, fc, thresholds, pd
            assert alive() is None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_coface_below_its_facet_raises(self, monkeypatch):
        # one tetrahedron's radius is set one ulp below its largest facet's:
        # the build names the tetrahedron, and rewrites no value
        ps = build_3d(2, 0.01)
        tet = next(cs.vertices for cs in complexgen.enumerate_mosaic(ps) if cs.dim == 3)
        facets = list(itertools.combinations(tet, 3))
        low = np.nextafter(circumspheres(ps, facets).radius.max(), 0.0)
        batched = complexgen.circumspheres

        def one_ulp_low(ps, block):
            batch = batched(ps, block)
            if block.shape[1] == len(tet):
                batch.radius[(block == tet).all(axis=1)] = low
            return batch

        monkeypatch.setattr(complexgen, "circumspheres", one_ulp_low)
        with pytest.raises(NotCriticalError) as err:
            build_filtration(ps)
        assert (err.value.simplex, err.value.offender) == (tet, None)
        assert err.value.reason.startswith(f"radius {low!r} is below its facet (")
        assert str(err.value).startswith(f"simplex {tet} is not critical: ")

    def test_overlapping_classes_still_sort_faces_first(self):
        # 3d n=3 at delta 0.5 builds, but classes (1, -1) and (1, 0)
        # overlap: the one stable sort by value still puts every facet first
        fc = build_filtration(build_3d(3, 0.5))
        assert len(fc) == 63
        values, faces = fc.values(), fc.faces()
        classes = list(zip(*(c.tolist() for c in fc.classes())))
        assert classes != sorted(classes)  # not the build's row order
        assert np.all(values[:-1] <= values[1:])
        assert np.all(faces.max(axis=1) < np.arange(len(fc)))
        with pytest.raises(OverlapError) as err:
            pick_thresholds(fc)
        assert err.value.classes == ((1, -1), (1, 0))

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

    @pytest.mark.parametrize("name", ["threed_n2", "even_2_5", "odd_2_2"])
    def test_file_is_the_complex_line_by_line(self, name, request, tmp_path):
        """Saved twice, a complex gives the same bytes, and each line is its
        simplex: the value bit for bit through 17 digits, the dim, the
        vertex ids, touch and short."""
        _, fc, _, _ = request.getfixturevalue(name)
        save_filtration(fc, tmp_path / "a.txt")
        save_filtration(fc, tmp_path / "b.txt")
        text = (tmp_path / "a.txt").read_bytes()
        assert text == (tmp_path / "b.txt").read_bytes()
        lines = text.decode().split("\n")
        assert lines.pop() == "" and len(lines) == len(fc)
        for line, (value, cs) in zip(lines, fc.entries):
            parts = line.split(" ")
            assert len(parts) == cs.dim + 5, line
            assert float(parts[0]).hex() == value.hex() and parts[0] == format(value, ".17g")
            dim, *verts, touch, short = map(int, parts[1:])
            assert (dim, tuple(verts), touch, short) == (cs.dim, cs.vertices, cs.touch, cs.short)

    def test_empty_complex(self):
        """An empty complex has no simplices, classes, thresholds or pairs,
        and beta_0 = 0."""
        fc = hand_made([])
        assert len(fc) == 0
        assert fc.class_ranges() == {}
        assert pick_thresholds(fc) == []
        assert homology.reduce(fc).pairs == []
        assert homology.betti_of_subcomplex(fc, 0.5) == rank_betti(fc, 0.5) == [0]
        assert criticality_check(build_3d(2, 0.01), fc).ok

    def test_deterministic_output(self, tmp_path):
        ps = build_3d(3, 0.01)
        a = build_filtration(ps)
        b = build_filtration(ps)
        assert list(a.entries) == list(b.entries)
        save_filtration(a, tmp_path / "a.txt")
        save_filtration(b, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_save_leaves_entries_unbuilt(self, tmp_path, monkeypatch):
        """A built complex is written from its arrays, with no
        ClassifiedSimplex per simplex, in the format its entries give."""
        fc = build_filtration(build_3d(3, 0.01))
        with monkeypatch.context() as mp:
            # a pass over the entries would fail on tuple.__new__(None, ...)
            mp.setattr(complexgen, "ClassifiedSimplex", None)
            save_filtration(fc, tmp_path / "f.txt")
        lines = [f"{format(value, '.17g')} {cs.dim} {' '.join(map(str, cs.vertices))} "
                 f"{cs.touch} {cs.short}" for value, cs in fc.entries]
        assert (tmp_path / "f.txt").read_text() == "\n".join(lines) + "\n"

    def test_save_streams_its_lines(self, tmp_path):
        """`save_filtration` writes line by line: on the same complex its
        traced peak is below that of making every line and their joined
        string first, and the two files are the same bytes."""
        fc = cached_pipeline("3d", 1, 30)[1]

        def joined(fc, path):
            touch, short = fc.classes()
            lines = [f"{format(value, '.17g')} {dim} {' '.join(map(str, verts))} {t} {s}"
                     for (value, verts), dim, t, s in zip(as_filtration(fc), fc.dims().tolist(),
                                                          touch.tolist(), short.tolist())]
            with open(path, "w") as fh:
                fh.write("\n".join(lines) + "\n")

        peaks = []
        for save in (save_filtration, joined):
            save(fc, tmp_path / "warm.txt")  # leaves out one-time allocations
            tracemalloc.start()
            try:
                save(fc, tmp_path / f"{save.__name__}.txt")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        text = (tmp_path / "save_filtration.txt").read_bytes()
        assert text == (tmp_path / "joined.txt").read_bytes()
        assert peaks[0] < peaks[1], peaks


def welzl_filtration(simplices, radii):
    """Filtration assembled from per-simplex miniball radii, the way it was
    built before the batched pass: monotone under faces, then sorted."""
    by_verts = {}
    for cs, value in sorted(zip(simplices, radii), key=lambda e: e[0].dim):
        if cs.dim > 0:
            value = max(value, max(by_verts[f]
                                   for f in itertools.combinations(cs.vertices, cs.dim)))
        by_verts[cs.vertices] = value
    return hand_made(sorted(((by_verts[cs.vertices], cs) for cs in simplices),
                            key=lambda e: (e[0], e[1].dim, e[1].vertices)))


def diagram_multiset(pd):
    return Counter((dim, round(birth, 12), round(death, 12)) for dim, birth, death in pd.pairs)


def reference_failures(ps, simplices):
    """`criticality_check`'s failures for simplices none of which is
    degenerate, from the reference kernel: a circumcenter outside the
    simplex, or else the first point inside the circumsphere."""
    ref = reference_circumspheres(ps, simplices)
    assert not ref["degenerate"].any()
    failures = []
    for v, inside, offender in zip(simplices, ref["interior"].tolist(),
                                   ref["offender"].tolist()):
        if not inside:
            failures.append((v, "circumcenter not in simplex interior"))
        elif offender >= 0:
            failures.append((v, f"circumsphere not strictly empty: point {offender}"))
    return failures


def scalar_predicates(ps, verts):
    pts = ps.points[list(verts)]
    sphere = circumsphere(pts)
    return (barycentric_interior(pts, sphere.center),
            is_empty_sphere(sphere, ps, exclude=verts))


def exact_circumradius(points) -> float:
    """The circumradius of float points as their exact rationals define
    it, rounded once: the Gram system of the kernel, rel rel^T alpha =
    |rel|^2 / 2 with rel the vertices less the first, solved in
    `Fraction`s by Gauss-Jordan elimination, and the square root of
    |alpha rel|^2 taken to 60 digits."""
    verts = [[Fraction(x) for x in row] for row in points.tolist()]
    rel = [[x - x0 for x, x0 in zip(row, verts[0])] for row in verts[1:]]
    rows = [[sum(a * b for a, b in zip(ri, rj)) for rj in rel] + [sum(a * a for a in ri) / 2]
            for ri in rel]
    for c in range(len(rows)):
        pivot = next(i for i in range(c, len(rows)) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for i in range(len(rows)):
            if i != c and rows[i][c]:
                f = rows[i][c] / rows[c][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    alpha = [row[-1] / row[i] for i, row in enumerate(rows)]
    offset = [sum(a * r[j] for a, r in zip(alpha, rel)) for j in range(len(verts[0]))]
    r2 = sum(x * x for x in offset)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        return float((decimal.Decimal(r2.numerator) / r2.denominator).sqrt())


class TestBatchedSpheres:
    @pytest.mark.parametrize("kind,k,n", ACCEPTED + (("even", 3, 6),))
    def test_radii_match_welzl(self, kind, k, n):
        ps, _, _, pd = cached_pipeline(kind, k, n)
        simplices = complexgen.enumerate_mosaic(ps)
        batched = circumspheres_in_order(ps, [cs.vertices for cs in simplices]).radius
        welzl = np.array([min_enclosing_ball(ps.points[list(cs.vertices)]).radius
                          for cs in simplices])
        assert np.all(np.abs(batched - welzl) <= 8 * np.spacing(welzl))
        reference = homology.reduce(welzl_filtration(simplices, welzl))
        assert diagram_multiset(pd) == diagram_multiset(reference)

    @pytest.mark.parametrize("kind,k,n", [("3d", 1, 5), ("even", 2, 5), ("odd", 2, 3)])
    def test_radii_match_the_exact_solve(self, kind, k, n):
        # every value of the build, the batch radius, within 4 ulp of the
        # exact circumradius; the worst is 4 ulp, on the edge (10, 11) of
        # odd k=2 n=3, where Welzl's ground truth is itself up to 8 ulp off
        ps, fc, _, _ = cached_pipeline(kind, k, n)
        batched = fc.values()
        exact = np.array([exact_circumradius(ps.points[list(verts)])
                          for _, verts in as_filtration(fc)])
        assert np.all(np.abs(batched - exact) <= 4 * np.spacing(exact))

    def test_criticality_matches_scalar(self):
        ps = build_3d(10, 0.5)
        fc = mosaic_complex(ps)
        verts = [cs.vertices for _, cs in fc.entries]
        for shift in range(4):  # each predicate, under every vertex order
            rotated = [v[shift % len(v):] + v[:shift % len(v)] for v in verts]
            batch = circumspheres_in_order(ps, rotated)
            assert list(zip(batch.interior, batch.empty)) == [
                scalar_predicates(ps, v) for v in rotated]
        failures = criticality_check(ps, fc).failures
        assert failures and failures == reference_failures(ps, verts)

    def test_degenerate_and_oversized_go_to_scalar_path(self):
        base = build_3d(3, 0.01)
        pts = base.points.copy()
        pts[2] = 0.5 * (pts[0] + pts[1])  # (0, 1, 2) collinear
        ps = dataclasses.replace(base, points=pts)
        odd_ones = [(0, 1, 2), (0, 1, 4, 5, 6)]
        good = [cs.vertices for cs in complexgen.enumerate_mosaic(base)
                if cs.dim == 3 and 2 not in cs.vertices]
        batch = circumspheres_in_order(ps, odd_ones + good)
        assert list(batch.degenerate) == [True, True] + [False] * len(good)
        assert np.all(np.isnan(batch.radius[:2]))
        # not face-closed and never reduced: a relation with no facets
        fc = hand_made([(0.0, ClassifiedSimplex(v, 1, 1)) for v in odd_ones + good],
                       np.full((len(odd_ones + good), 1), -1))
        failures = criticality_check(ps, fc).failures
        assert failures[:2] == [
            ((0, 1, 2), "degenerate circumsphere: points are affinely dependent beyond tolerance"),
            ((0, 1, 4, 5, 6), "degenerate circumsphere: 5 points cannot be affinely "
                              "independent in R^3")]
        assert failures[2:] == reference_failures(ps, good)


def sphere_calls(monkeypatch):
    """Record, per call of `circumspheres` from `complexgen`, the vertex
    tuples of the block's rows, in order."""
    batched = complexgen.circumspheres
    calls = []

    def counting(ps, block):
        calls.append([tuple(row) for row in np.asarray(block).tolist()])
        return batched(ps, block)

    monkeypatch.setattr(complexgen, "circumspheres", counting)
    return calls


class TestSinglePass:
    def test_one_sphere_pass_per_build(self, monkeypatch):
        # every mosaic row gets one sphere, in class order, a class a call
        calls = sphere_calls(monkeypatch)
        ps, fc, _ = build_validated("3d", k=1, n=4)  # validates at its first delta
        m = complexgen._mosaic(ps)
        assert [len(rows) for rows in calls] == [hi - lo for lo, hi in m.blocks]
        assert sum(calls, []) == complexgen._vertex_tuples(m.ids)

    def test_failures_come_from_the_one_pass(self, monkeypatch):
        # a failing build sees each row of the classes up to its failing one
        # once, and a check each row of the mosaic once, a block a call; the
        # scalar sphere functions are never reached
        def scalar(*args, **kwargs):
            raise AssertionError("scalar sphere function called")

        calls = sphere_calls(monkeypatch)
        for module in (complexgen, geometry):
            for name in ("circumsphere", "barycentric_interior", "is_empty_sphere"):
                monkeypatch.setattr(module, name, scalar)
        ps = build_3d(10, 0.5)
        verts = complexgen._vertex_tuples(complexgen._mosaic(ps).ids)
        with pytest.raises(NotCriticalError):
            build_filtration(ps)
        built = sum(calls, [])
        assert built == verts[:len(built)]
        calls.clear()
        fc = mosaic_complex(ps)
        assert not criticality_check(ps, fc).ok
        assert [len(rows) for rows in calls] == [len(block) for block in fc.blocks()[1]]
        assert sorted(sum(calls, [])) == sorted(verts)

    def test_failing_build_computes_no_later_class(self, monkeypatch):
        # 3d n=10 at delta 0.5 fails at (0, 11) in class (1, -1): the pass
        # saw classes (0, -1), (0, 0) and (1, -1), and no sphere after them
        calls = sphere_calls(monkeypatch)
        ps = build_3d(10, 0.5)
        with pytest.raises(NotCriticalError) as err:
            build_filtration(ps)
        assert err.value.simplex == (0, 11)
        assert [len(rows) for rows in calls] == [22, 20, 121]
        m = complexgen._mosaic(ps)
        assert m.classes[:4] == [(0, -1), (0, 0), (1, -1), (1, 0)]
        assert sum(calls, []) == complexgen._vertex_tuples(m.ids)[:m.blocks[3][0]]

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
        return criticality_check(ps, hand_made(fc.entries))

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


def reference_build(ps):
    """The list-of-tuples build on the reference enumeration: one sphere
    pass, the face relation from boundary_columns, the sequential monotone
    fix, and a sort by (value, dim, vertex list)."""
    simplices = even_reference(ps) if ps.kind == "even" else face_closure_odd(ps)
    verts = [cs.vertices for cs in simplices]
    columns = homology.boundary_columns(verts)
    batch = circumspheres_in_order(ps, verts)
    assert batch.critical.all()
    values = batch.radius.tolist()
    for j, rows in enumerate(columns):
        if rows:
            values[j] = max(values[j], max(values[r] for r in rows))
    order = sorted(range(len(simplices)),
                   key=lambda i: (values[i], simplices[i].dim, simplices[i].vertices))
    return [(values[i], simplices[i]) for i in order]


def hexed(obj):
    """obj with every float, in arrays, tuples, lists and dicts, by its hex
    form, and arrays as (dtype, list): equal only when equal bit for bit."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, bits(obj)
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {key: hexed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(map(hexed, obj))
    return obj


def exact(entries):
    return [(value.hex(), cs.vertices, cs.touch, cs.short) for value, cs in entries]


class TestArrayBuild:
    @pytest.mark.parametrize("kind,k,n", DIFFERENTIAL)
    def test_closed_form_facets_match_boundary_columns(self, kind, k, n):
        m = complexgen._mosaic(cached_pipeline(kind, k, n)[0])
        closed = [sorted(row[row >= 0].tolist()) for row in m.facets]
        assert closed == homology.boundary_columns(complexgen._vertex_tuples(m.ids))

    @pytest.mark.parametrize("kind,k,n", DIFFERENTIAL)
    def test_bit_identical_to_reference_build(self, kind, k, n):
        ps = cached_pipeline(kind, k, n)[0]
        fc = build_filtration(ps)
        entries = reference_build(ps)
        assert exact(fc.entries) == exact(entries)
        assert fc.class_ranges() == hand_made(entries).class_ranges()

    @pytest.mark.parametrize("kind,k,n", ACCEPTED)
    def test_values_are_the_circumradii(self, kind, k, n):
        # no value is rewritten: each is its simplex's radius from the pass
        ps, fc = cached_pipeline(kind, k, n)[:2]
        _, ids, rows = fc.blocks()
        assert bits(fc.values()) == bits(circumspheres_in_order(ps, ids).radius[rows])

    @pytest.mark.parametrize("kind,k,n", ACCEPTED)
    def test_lazy_entries_match_eager_ones(self, kind, k, n):
        """The entries a build makes on first read, against entries built
        eagerly from the enumeration, the batch radii, the monotone fix
        over boundary_columns and a stable sort by value."""
        ps = cached_pipeline(kind, k, n)[0]
        simplices = enumerate_mosaic(ps)
        values = circumspheres_in_order(ps, [cs.vertices for cs in simplices]).radius.tolist()
        for j, rows in enumerate(homology.boundary_columns([cs.vertices for cs in simplices])):
            values[j] = max([values[j]] + [values[r] for r in rows])
        order = sorted(range(len(simplices)), key=values.__getitem__)
        eager = [(values[i], simplices[i]) for i in order]
        fc = build_filtration(ps)
        assert len(fc) == len(eager)
        assert exact(fc.entries) == exact(eager)
        assert all(type(cs) is ClassifiedSimplex for _, cs in fc.entries)
        # Python ints, not numpy ones: error texts and the file print them
        vertex_lists = [cs.vertices for _, cs in fc.entries]
        assert {type(v) for verts in vertex_lists for v in verts} == {int}
        assert {type(verts) for verts in vertex_lists} == {tuple}
        made = hand_made(eager)
        assert fc == made
        # the same arrays, class ranges and diagram, bit for bit, and the
        # same face relation, whose rows list the facets in another order
        for read in ("values", "dims", "classes", "max_dim", "class_ranges"):
            assert hexed(getattr(made, read)()) == hexed(getattr(fc, read)()), read
        assert bits(np.sort(made.faces(), axis=1)) == bits(np.sort(fc.faces(), axis=1))
        built, pd = homology.reduce(fc), homology.reduce(made)
        assert hexed(pd.pairs) == hexed(built.pairs) and pd == built

    def test_built_complex_is_read_without_entries(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a ClassifiedSimplex was constructed")

        monkeypatch.setattr(complexgen, "ClassifiedSimplex", forbidden)
        ps, fc, thresholds = build_validated("3d", k=1, n=4)
        pd = homology.reduce(fc)
        assert pick_thresholds(fc) == thresholds
        assert fc.class_ranges()[(1, 1)][2] == 4**2
        assert len(fc) == 10 + 33 + 40 + 16  # vertices, edges, triangles, tetrahedra
        assert fc.max_dim() == 3
        assert homology.betti_at(pd, 2, threshold_after(thresholds, (1, 0))) == 4**2
        assert criticality_check(ps, fc).ok
        rho2 = threshold_after(thresholds, (1, 0))
        assert homology.betti_of_subcomplex(fc, rho2) == [0, 0, 4**2, 0]
        assert euler_characteristic_ok(fc)
        monkeypatch.undo()  # the rank oracle reads the entries
        assert rank_betti(fc, rho2) == [0, 0, 4**2, 0]


@pytest.mark.slow
def test_3d_300_build_keeps_arrays_only():
    """A built 3d n=300 complex (362,403 simplices) holds its arrays, not
    per-simplex objects: at most 32 MB stays allocated after the build
    (127 MB when it held a list of entries, 35 MB when it held a touch and
    a short array beside its blocks' classes), and a pass over its entries
    keeps at most 5 MB more (101 MB when the view kept the list it made)."""
    tracemalloc.start()
    try:
        built = build_validated("3d", k=1, n=300)
        held = tracemalloc.get_traced_memory()[0] / 1e6
        census = [0] * 4
        for _, cs in built[1].entries:
            census[cs.dim] += 1
        kept = tracemalloc.get_traced_memory()[0] / 1e6 - held
    finally:
        tracemalloc.stop()
    assert len(built[1]) == 362_403
    assert census == [602, 91_201, 180_600, 90_000]
    assert held <= 32.0
    assert kept <= 5.0


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
        fc = hand_made([(0.0, complexgen.ClassifiedSimplex((i,), 0, -1)) for i in range(3)])
        assert pick_thresholds(fc) == []

    def test_overlap_detected(self):
        with pytest.raises(OverlapError):
            pick_thresholds(mosaic_complex(build_3d(3, 0.5)))

    def test_a_class_over_two_blocks(self, threed_n2):
        # a block holds one size and one class, so a class at two sizes is
        # two blocks: its range is theirs merged, and each position's class
        # is its block's
        cs = complexgen.ClassifiedSimplex
        entries = [(0.0, cs((0,), 0, -1)), (0.0, cs((1,), 0, -1)), (0.0, cs((2,), 0, -1)),
                   (0.5, cs((0, 1), 1, -1)), (0.6, cs((1, 2), 1, -1)),
                   (0.7, cs((0, 1, 2), 1, -1))]
        faces = np.array([[-1, -1, -1]] * 3 + [[0, 1, -1], [1, 2, -1], [3, 4, -1]])
        fc = hand_made(entries, faces)
        classes, ids, _ = fc.blocks()
        assert classes == [(0, -1), (1, -1), (1, -1)]
        assert [block.shape for block in ids] == [(3, 1), (2, 2), (1, 3)]
        assert fc.class_ranges() == {(0, -1): (0.0, 0.0, 3), (1, -1): (0.5, 0.7, 3)}
        assert list(zip(*(c.tolist() for c in fc.classes()))) == [e.cls for _, e in entries]
        assert [e for _, e in fc.entries] == [e for _, e in entries]
        assert pick_thresholds(fc) == [complexgen.Threshold((0, -1), (1, -1), 0.25)]
        # the built 3d n=2 complex with every block cut in two keeps its
        # rows, its class ranges and its thresholds
        _, built, thresholds, _ = threed_n2
        classes, ids, rows = built.blocks()
        halves = [part for block in ids for part in np.array_split(block, 2)]
        cut = complexgen.FilteredComplex(built.values(), [c for c in classes for _ in range(2)],
                                         halves, rows, built.faces())
        assert len(cut.blocks()[1]) == 2 * len(ids)
        assert cut == built
        assert cut.class_ranges() == built.class_ranges()
        assert pick_thresholds(cut) == pick_thresholds(built) == thresholds


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
