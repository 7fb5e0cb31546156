import dataclasses
import itertools
import math

import numpy as np
import pytest

from extremal_cech import cli, complexgen, construct
from extremal_cech.complexgen import NotCriticalError, OverlapError
from extremal_cech.construct import (
    build,
    build_3d,
    build_even,
    build_odd,
    build_suspended,
    build_validated,
    class_table,
    construction_labels,
    default_delta,
    half_edge,
    load_points,
    min_n,
    mosaic_size,
    save_points,
)

from conftest import cached_pipeline
from test_acceptance import ACCEPTED


def pairwise_distances(ps):
    return sorted(
        float(np.linalg.norm(a - b))
        for a, b in itertools.combinations(ps.points, 2))


class TestMinN:
    def test_known_values(self):
        assert min_n(1) == 3
        assert min_n(2) == 5

    def test_k3_by_definition(self):
        # scan the defining inequality directly
        bound = 1.0 / math.sqrt(3.0)
        assert not math.sin(math.pi / 5) < bound
        assert math.sin(math.pi / 6) < bound
        assert min_n(3) == 6

    def test_inscribed_square_is_excluded(self):
        # at k=2, n=4 the edge length equals the bound exactly
        assert min_n(2) > 4

    def test_bad_k(self):
        with pytest.raises(ValueError):
            min_n(0)


class TestBuildEven:
    def test_counts_and_norms(self):
        ps = build_even(2, 5)
        assert len(ps) == 10
        assert ps.dim == 4
        assert np.allclose(np.linalg.norm(ps.points, axis=1), math.sqrt(2) / 2)

    def test_coordinate_planes(self):
        ps = build_even(3, 5)
        circle = ps.labels[:, 0]
        for i in range(len(ps)):
            ell = circle[i]
            off_plane = [c for j, c in enumerate(ps.points[i]) if j not in (2 * ell, 2 * ell + 1)]
            assert np.allclose(off_plane, 0.0)

    def test_two_distance_values(self):
        ps = build_even(2, 5)
        s = half_edge(ps)
        labels = ps.labels
        for i, j in itertools.combinations(range(len(ps)), 2):
            d = float(np.linalg.norm(ps.points[i] - ps.points[j]))
            (ci, ti), (cj, tj) = labels[i], labels[j]
            if ci != cj:
                assert d == pytest.approx(1.0, rel=1e-12)
            elif (ti - tj) % ps.n in (1, ps.n - 1):  # neighbors on the n-gon
                assert d == pytest.approx(2 * s, rel=1e-12)
            else:
                assert d > 2 * s + 1e-9

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_even(0, 5)
        with pytest.raises(ValueError):
            build_even(2, 2)


class TestBuild3d:
    def test_first_point_coordinates(self):
        ps = build_3d(2, 0.01)
        a0 = ps.points[0]
        assert a0[0] == pytest.approx(-0.5 + math.sqrt(1 - 1e-4), rel=1e-15)
        assert a0[1] == pytest.approx(-0.01, rel=1e-15)
        assert a0[2] == 0.0

    def test_counts_and_band(self):
        ps = build_3d(4, 0.02)
        assert len(ps) == 10
        # a-points stay in the y-band, b-points in the z-band
        assert np.all(np.abs(ps.points[:5, 1]) <= 0.02 + 1e-15)
        assert np.all(np.abs(ps.points[5:, 2]) <= 0.02 + 1e-15)

    def test_points_on_unit_circles(self):
        ps = build_3d(3, 0.05)
        vz = np.array([-0.5, 0.0, 0.0])
        vy = np.array([0.5, 0.0, 0.0])
        # each circle passes through the center of the other
        assert np.allclose(np.linalg.norm(ps.points[:4] - vz, axis=1), 1.0)
        assert np.allclose(np.linalg.norm(ps.points[4:] - vy, axis=1), 1.0)

    def test_half_edge_bounds(self):
        for n, delta in ((2, 0.01), (5, 0.003), (8, 0.05)):
            eps = half_edge(build_3d(n, delta))
            assert delta / n < eps < math.pi / 2 * delta / n

    def test_half_edge_limit(self):
        # eps * n / delta -> 1 as delta -> 0
        ratios = [half_edge(build_3d(3, d)) * 3 / d for d in (1e-2, 1e-4, 1e-6)]
        assert abs(ratios[-1] - 1.0) < 1e-9
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)

    def test_long_edge_squared_lengths(self):
        delta = 0.01
        ps = build_3d(3, delta)
        for i in range(4):
            for j in range(4, 8):
                d2 = float(np.dot(ps.points[i] - ps.points[j], ps.points[i] - ps.points[j]))
                assert 1.0 - 1e-12 <= d2 <= 1.0 + 2.0 * delta**4 + 1e-12

    def test_delta_range(self):
        with pytest.raises(ValueError):
            build_3d(3, 0.0)
        with pytest.raises(ValueError):
            build_3d(3, 1.0)


class TestBuildOdd:
    def test_counts(self):
        ps = build_odd(2, 2, 0.005)
        assert len(ps) == 9
        assert ps.dim == 5

    def test_circle_radius(self):
        # circles pass through the simplex vertex at distance H_k from the
        # opposite facet's barycenter
        for k in (1, 2, 3):
            ps = build_odd(k, 2, 0.005)
            hk2 = (k + 1) / (2.0 * k)
            verts = construct.simplex_vertices(k)
            for ell in range(k + 1):
                center = np.zeros(ps.dim)
                center[:k] = -verts[ell] / k
                for t in range(3):
                    p = ps.points[ell * 3 + t]
                    assert np.dot(p - center, p - center) == pytest.approx(hk2, rel=1e-12)

    def test_long_edges(self):
        delta = 0.008
        ps = build_odd(2, 3, delta)
        circle = ps.labels[:, 0]
        for i, j in itertools.combinations(range(len(ps)), 2):
            if circle[i] != circle[j]:
                d2 = float(np.dot(ps.points[i] - ps.points[j], ps.points[i] - ps.points[j]))
                assert 1.0 - 1e-12 <= d2 <= 1.0 + 2.0 * delta**4 + 1e-12

    def test_equal_spacing(self):
        ps = build_odd(2, 4, 0.01)
        for ell in range(3):
            base = ell * 5
            gaps = [float(np.linalg.norm(ps.points[base + t + 1] - ps.points[base + t]))
                    for t in range(4)]
            assert np.allclose(gaps, gaps[0], rtol=1e-12)

    def test_band_endpoints_inclusive(self):
        delta = 0.01
        ps = build_odd(2, 2, delta)
        for ell in range(3):
            last = ps.points[ell * 3:(ell + 1) * 3, 2 + ell]
            assert last[0] == pytest.approx(-delta, rel=1e-12)
            assert last[-1] == pytest.approx(delta, rel=1e-12)

    def test_k1_matches_3d_up_to_rigid_motion(self):
        for n in (2, 3):
            d_odd = pairwise_distances(build_odd(1, n, 0.01))
            d_3d = pairwise_distances(build_3d(n, 0.01))
            assert np.allclose(d_odd, d_3d, rtol=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 30, 200, 1023])
    def test_k1_is_3d_within_one_ulp(self, n):
        # simplex_vertices(1) is +-0.49999999999999994, not +-0.5, so the
        # x coordinates of the odd k=1 set may sit one ulp from the 3d set's
        odd = build("odd", 1, n).points
        threed = build("3d", None, n).points
        np.testing.assert_array_max_ulp(odd, threed, maxulp=1)

    def test_delta_range(self):
        with pytest.raises(ValueError):
            build_odd(2, 2, 0.9)  # >= H_2


class TestBuildSuspended:
    def test_counts_and_apexes(self):
        ps = build_suspended(2, 2, 0.005, 0.5)
        assert len(ps) == 8  # k(n+1) + 2
        assert ps.dim == 4
        top, bot = len(ps) - 2, len(ps) - 1
        assert np.allclose(ps.points[top], [0, 0, 0, 0.5])
        assert np.allclose(ps.points[bot], -ps.points[top])
        # hyperplane points have trailing zero
        assert np.allclose(ps.points[:6, 3], 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_suspended(1, 2, 0.005, 0.5)
        with pytest.raises(ValueError):
            build_suspended(2, 2, 0.005, 0.0)


def test_labels_are_bijective():
    for ps in (build_even(3, 6), build_3d(4, 0.01), build_odd(2, 3, 0.005)):
        seen = {tuple(lbl) for lbl in ps.labels}
        assert len(seen) == len(ps)
        per_circle = ps.points_per_circle
        assert seen == {(c, t) for c in range(ps.n_circles) for t in range(per_circle)}


@pytest.mark.parametrize("kind,k,n,dim", [("even", 2, 5, 4), ("3d", 1, 3, 3),
                                          ("odd", 2, 2, 5), ("suspended", 2, 2, 4)])
def test_layout_is_derived_from_the_parameters(kind, k, n, dim, tmp_path):
    built = build(kind, k, n)
    path = tmp_path / "pts.csv"
    save_points(built, path)
    for ps in (built, load_points(path)):
        assert np.array_equal(ps.labels, construction_labels(kind, k, n))
        assert ps.dim == dim


def test_point_set_is_frozen_and_compares_identity():
    a, b = build_3d(3, 0.01), build_3d(3, 0.01)
    for field in dataclasses.fields(a):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, field.name, getattr(a, field.name))
    assert (a == b) is False
    assert a == a


def test_even_half_edge_closed_form():
    assert half_edge(build_even(2, 5)) == pytest.approx(
        math.sqrt(2) / 2 * math.sin(math.pi / 5), rel=1e-15)


@pytest.mark.parametrize("kind,k,delta,h,expected", [
    ("even", 2, "auto", None, build_even(2, 5)),
    ("3d", 1, "auto", None, build_3d(5, default_delta(5))),
    ("odd", 2, 0.003, None, build_odd(2, 5, 0.003)),
    ("suspended", 2, "auto", 0.5, build_suspended(2, 5, default_delta(5), 0.5)),
], ids=["even", "3d", "odd", "suspended"])
def test_build_dispatches_to_the_kinds_builder(kind, k, delta, h, expected):
    ps = construct.build(kind, k, 5, delta, h=h)
    assert (ps.kind, ps.k, ps.delta, ps.h) == (expected.kind, expected.k, expected.delta, expected.h)
    assert np.array_equal(ps.points, expected.points)


def test_build_refuses_an_unknown_kind_and_a_missing_apex_height():
    with pytest.raises(ValueError, match="unknown kind 'cube'"):
        construct.build("cube", 1, 5)
    # a missing apex height is the default 0.5, not a refusal
    a = construct.build("suspended", 2, 2)
    b = construct.build("suspended", 2, 2, "auto", 0.5)
    assert (a.delta, a.h) == (b.delta, b.h) == (default_delta(2), 0.5)
    assert a.points.tobytes() == b.points.tobytes()


class TestParameterRule:
    """`build` is the one place that knows which of k, delta and h a kind
    reads, and it refuses the rest with a ValueError naming the parameter."""

    @pytest.mark.parametrize("args,message", [
        (("even", None, 5), "k is required for kind even"),
        (("odd", None, 5), "k is required for kind odd"),
        (("suspended", None, 2), "k is required for kind suspended"),
        (("3d", 5, 3), "k=5 is not 1, the only k of kind 3d"),
        (("3d", 0, 3), "k=0 is not 1, the only k of kind 3d"),
        (("even", 2, 5, 0.3), "delta=0.3 is given, but kind even has no delta"),
        (("3d", None, 2, "auto", 0.3),
         "h=0.3 is given, but only kind suspended has an apex height"),
        (("even", 2, 5, "auto", 0.3),
         "h=0.3 is given, but only kind suspended has an apex height"),
        (("odd", 2, 2, "auto", 0.3),
         "h=0.3 is given, but only kind suspended has an apex height"),
    ], ids=["even-no-k", "odd-no-k", "suspended-no-k", "3d-k-5", "3d-k-0", "even-delta",
            "3d-h", "even-h", "odd-h"])
    def test_build_refuses_an_unread_or_missing_parameter(self, args, message):
        with pytest.raises(ValueError) as exc:
            construct.build(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_build_validated_names_a_missing_k(self, kind):
        with pytest.raises(ValueError, match=f"^k is required for kind {kind}$"):
            build_validated(kind, None, 3)

    @pytest.mark.parametrize("kind,k", [("3d", None), ("even", 2), ("odd", 2)])
    def test_build_validated_names_a_missing_n(self, kind, k):
        with pytest.raises(ValueError, match=f"^n is required for kind {kind}$"):
            build_validated(kind, k)

    def test_build_validated_names_an_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown kind 'cube'$"):
            build_validated("cube", 1, 5)


@pytest.mark.parametrize("kind,k,n", ACCEPTED + (("3d", 1, 30),))
def test_mosaic_size_is_the_built_count(kind, k, n):
    # and the class table is the built classes: each class once, in order,
    # with its simplices' dimension and count
    fc = cached_pipeline(kind, k, n)[1]
    touch, short = fc.classes()
    table = class_table(kind, k, n)
    built = sorted((cls, count) for cls, (_, _, count) in fc.class_ranges().items())
    assert [(row[:2], row[3]) for row in table] == built
    assert {row[:3] for row in table} == set(zip(touch.tolist(), short.tolist(),
                                                 fc.dims().tolist()))
    assert mosaic_size(kind, k, n) == sum(row[3] for row in table) == len(fc)
    # and the build's blocks are the table's rows: one class each, in order,
    # with its count and size
    m = complexgen._mosaic(cached_pipeline(kind, k, n)[0])
    assert [(*cls, hi - lo, ids.shape[1])
            for cls, (lo, hi), ids in zip(m.classes, m.blocks, m.ids)] == [
        (t, s, count, dim + 1) for t, s, dim, count, _ in table]
    assert fc.blocks()[0] == m.classes


@pytest.mark.parametrize("n", [1, 2])
def test_even_n_below_3_is_refused_by_its_builder(n):
    # the size rule sums the class table first, which has no even radius
    # below n = 3 (at n = 2 its closed form divides by zero)
    assert class_table("even", 2, n)[1][4] is None
    assert mosaic_size("even", 2, n) == (1 + 2 * n) ** 2 - 1
    with pytest.raises(ValueError, match="^n must be >= 3$"):
        build_validated("even", 2, n)


def test_mosaic_too_large_is_refused_before_the_build(monkeypatch):
    monkeypatch.setattr(construct, "build", lambda *args: pytest.fail("point set built"))
    with pytest.raises(ValueError, match="the mosaic has 11390624 simplices"):
        build_validated("even", k=6, n=7)


def counting_builds(monkeypatch):
    """Record each `complexgen.build_filtration` call of `build_validated`
    as its point set's delta and the error it raised, or None."""
    real = complexgen.build_filtration
    builds = []

    def counting(ps):
        builds.append([ps.delta, None])
        try:
            return real(ps)
        except Exception as exc:
            builds[-1][1] = exc
            raise

    monkeypatch.setattr(complexgen, "build_filtration", counting)
    return builds


class TestOneDelta:
    """`build_validated` builds once, at `default_delta(n)` or the explicit
    delta, and a failure is the build's own error, naming the delta."""

    @pytest.mark.parametrize("n,error", [(10, NotCriticalError), (3, OverlapError)])
    def test_explicit_delta_fails_in_one_build(self, monkeypatch, n, error):
        builds = counting_builds(monkeypatch)
        with pytest.raises(error) as exc:
            build_validated("3d", k=1, n=n, delta=0.5)
        assert str(exc.value).startswith(f"kind=3d k=1 n={n} at delta=0.5: ")
        assert len(builds) == 1

    @pytest.mark.slow
    def test_3d_400_fails_in_one_build(self, monkeypatch, tmp_path, capsys):
        # the strict-emptiness clearance 2(delta/n)^2 = 7.8e-13 is below
        # abs_eps = 1e-12 at the default delta
        builds = counting_builds(monkeypatch)
        out = tmp_path / "f.txt"
        code = cli.main(["filtration", "--kind", "3d", "--n", "400", "-o", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("error: kind=3d k=1 n=400 at delta=0.00025: "
                                "sphere of (0, 401) not strictly empty: point 1 inside\n")
        [(delta, error)] = builds
        assert delta == default_delta(400) == 0.00025
        assert isinstance(error, NotCriticalError) and error.offender == 1
        assert not out.exists()

    @pytest.mark.slow
    @pytest.mark.parametrize("kind,k,ns", [
        ("3d", 1, range(2, 61)),
        ("odd", 1, range(2, 30)),
        ("odd", 2, range(2, 25)),
        ("odd", 3, range(2, 9)),
        ("odd", 4, range(2, 5)),
    ])
    def test_every_swept_size_validates_at_the_default_delta(self, kind, k, ns):
        for n in ns:
            ps, _, _ = build_validated(kind, k=k, n=n)
            assert ps.delta == default_delta(n)


class TestPointFile:
    @pytest.mark.parametrize("ps", [
        build_even(2, 5),
        build_3d(3, 0.01),
        build_odd(2, 2, 0.005),
        build_suspended(2, 2, 0.005, 0.5),
    ], ids=["even", "3d", "odd", "suspended"])
    def test_roundtrip_bit_exact(self, ps, tmp_path):
        path = tmp_path / "pts.csv"
        save_points(ps, path)
        back = load_points(path)
        assert back.kind == ps.kind
        assert (back.dim, back.k, back.n) == (ps.dim, ps.k, ps.n)
        assert back.delta == ps.delta and back.h == ps.h
        assert np.array_equal(back.points, ps.points)
        assert np.array_equal(back.labels, ps.labels)
        # writing again is byte-identical
        path2 = tmp_path / "pts2.csv"
        save_points(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_size_checked_before_labels_are_listed(self, tmp_path):
        path = tmp_path / "pts.csv"
        save_points(build_3d(3, 0.01), path)
        lines = path.read_text().splitlines()
        lines[0] = lines[0].replace(",1,3,", ",1,1000000000,", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="holds 8 points.*has 2000000002"):
            load_points(path)

    @pytest.mark.parametrize("ps,field,value,message", [
        (build_even(2, 5), 4, "0.5", "delta=0.5 is given, but kind even has no delta"),
        (build_3d(3, 0.01), 5, "0.3",
         "h=0.3 is given, but only kind suspended has an apex height"),
        (build_suspended(2, 2, 0.005, 0.5), 5, "nan", "h must be positive and finite, not nan"),
        # a 0 stands for a parameter the kind does not read: built at its
        # default, it does not reproduce the header
        (build_suspended(2, 2, 0.005, 0.5), 5, "0", "build makes k=2 delta=0.005 h=0.5"),
        (build_3d(3, 0.01), 4, "0", "build makes k=1 delta=0.01 h=0.0"),
        # a delta or h its coordinates do not have
        (build_3d(3, 0.01), 4, "0.011", "its points 0 and 1 give half edge "
         f"{half_edge(build_3d(3, 0.01))!r}, not {half_edge(build_3d(3, 0.011))!r}"),
        (build_odd(2, 2, 0.005), 4, "0.004", "its points 0 and 1 give half edge "
         f"{half_edge(build_odd(2, 2, 0.005))!r}, not {half_edge(build_odd(2, 2, 0.004))!r}"),
        (build_suspended(2, 2, 0.005, 0.5), 4, "0.006", "its points 0 and 1 give half edge "
         f"{half_edge(build_odd(1, 2, 0.005))!r}, not {half_edge(build_odd(1, 2, 0.006))!r}"),
        (build_suspended(2, 2, 0.005, 0.5), 5, "0.6",
         "its apexes have last coordinates 0.5 and -0.5"),
    ], ids=["even-delta", "3d-h", "suspended-h-nan", "suspended-h-0", "3d-delta-0",
            "3d-delta-moved", "odd-delta-moved", "suspended-delta-moved", "suspended-h-moved"])
    def test_header_build_refuses_or_does_not_reproduce(self, ps, field, value, message,
                                                        tmp_path):
        path = tmp_path / "pts.csv"
        save_points(ps, path)
        lines = path.read_text().splitlines()
        header = lines[0][2:].split(",")
        header[field] = value
        lines[0] = "# " + ",".join(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as exc:
            load_points(path)
        assert str(exc.value).startswith(f"{path} has header kind={ps.kind} k={ps.k} ")
        assert str(exc.value).endswith(message)

    def test_a_moved_apex_is_refused(self, tmp_path):
        path = tmp_path / "pts.csv"
        save_points(build_suspended(2, 2, 0.005, 0.5), path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",-0.50001"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="last coordinates 0.5 and -0.50001$"):
            load_points(path)

    def test_missing_header(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0,1.0,2.0\n")
        with pytest.raises(ValueError):
            load_points(bad)


def test_builders_are_deterministic():
    # labels plus parameters reconstruct coordinates exactly
    for build in (lambda: build_even(3, 7), lambda: build_3d(4, 0.01),
                  lambda: build_odd(2, 3, 0.005),
                  lambda: build_suspended(2, 2, 0.005, 0.5)):
        a, b = build(), build()
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)


def test_scales_invariants():
    assert 0.006 / 3 < half_edge(build_odd(2, 3, 0.006)) < math.pi / 2 * 0.006 / 3
    assert construct.regular_simplex_circumradius_sq(2) == pytest.approx(2 / 6)  # k/(2k+2)
    assert construct.regular_simplex_height_sq(2) == pytest.approx(3 / 4)        # (k+1)/(2k)
    assert construct.regular_simplex_inradius_gap_sq(2) == pytest.approx(1 / 12)  # 1/(2k(k+1))
    assert half_edge(build_even(2, 5)) == pytest.approx(math.sqrt(2) / 2 * math.sin(math.pi / 5))
    # the 3d set's circles, and the suspended k=2 set's, are the k=1 case
    assert construct.regular_simplex_height_sq(1) == pytest.approx(1.0)
