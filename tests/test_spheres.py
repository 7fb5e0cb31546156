"""The batched sphere kernel (`geometry.circumspheres`) against the kernel
it replaced, which decided degeneracy by a stacked SVD and emptiness by
differences alone, and against the per-simplex scalar predicates."""

import math
import tracemalloc

import numpy as np
import pytest

from extremal_cech import complexgen, geometry
from extremal_cech.construct import build_3d
from extremal_cech.geometry import (
    DEFAULT_TOL,
    AffineDegeneracyError,
    Sphere,
    Tolerance,
    barycentric_interior,
    circumsphere,
    circumspheres,
    emptiness_violations,
    is_empty_sphere,
    squared_distance,
)

from conftest import cached_pipeline
from test_acceptance import ACCEPTED


def reference_circumspheres(pts, simplices, tol=DEFAULT_TOL):
    """The kernel before the filters: a stacked SVD test for degeneracy,
    and every point-to-center distance summed over the differences."""
    pts = np.asarray(getattr(pts, "points", pts), dtype=float)
    n_pts, d = pts.shape
    count = len(simplices)
    radius = np.full(count, np.nan)
    degenerate = np.ones(count, dtype=bool)
    interior = np.zeros(count, dtype=bool)
    empty = np.zeros(count, dtype=bool)
    groups = {}
    for i, verts in enumerate(simplices):
        groups.setdefault(len(verts), []).append(i)
    for m, rows in groups.items():
        if m > d + 1:
            continue
        rows = np.asarray(rows, dtype=np.intp)
        idx = np.asarray([simplices[i] for i in rows], dtype=np.intp).reshape(len(rows), m)
        verts = pts[idx]
        if m == 1:
            deg = np.zeros(len(rows), dtype=bool)
            center = verts[:, 0]
            r2 = np.zeros(len(rows))
            inside = np.ones(len(rows), dtype=bool)
        else:
            rel = verts[:, 1:] - verts[:, :1]
            sv = np.linalg.svd(rel, compute_uv=False)
            deg = sv[:, -1] <= tol.rel_eps * sv[:, 0]
            gram = rel @ rel.transpose(0, 2, 1)
            gram[deg] = np.eye(m - 1)
            rhs = 0.5 * np.einsum("bij,bij->bi", rel, rel)
            alpha = np.linalg.solve(gram, rhs[..., None])[..., 0]
            center = verts[:, 0] + np.einsum("bi,bij->bj", alpha, rel)
            diffs = verts - center[:, None]
            r2 = np.max(np.einsum("bij,bij->bi", diffs, diffs), axis=1)
            inside = ((1.0 - alpha.sum(axis=1) > tol.interior_eps)
                      & np.all(alpha > tol.interior_eps, axis=1) & ~deg)
        degenerate[rows] = deg
        radius[rows] = np.where(deg, np.nan, np.sqrt(r2))
        interior[rows] = inside
        diffs = pts[None, :, :] - center[:, None, :]
        d2 = np.einsum("bij,bij->bi", diffs, diffs)
        d2[np.arange(len(rows))[:, None], idx] = np.inf
        empty[rows] = np.all(d2 >= (r2 + tol.abs_eps)[:, None], axis=1) & ~deg
    return radius, degenerate, interior, empty


def fields(batch):
    return ([r.hex() for r in batch[0].tolist()],) + tuple(f.tolist() for f in batch[1:])


def assert_as_reference(pts, simplices, tol=DEFAULT_TOL):
    batch = circumspheres(pts, simplices, tol)
    assert fields((batch.radius, batch.degenerate, batch.interior, batch.empty)) == fields(
        reference_circumspheres(pts, simplices, tol))
    return batch


class TestAsReference:
    @pytest.mark.parametrize("kind,k,n", ACCEPTED + (("3d", 1, 100),))
    def test_mosaics_bit_identical(self, kind, k, n):
        ps = cached_pipeline(kind, k, n)[0]
        m = complexgen._mosaic(ps)
        verts = m.vertex_tuples()
        batch = assert_as_reference(ps, verts)
        blocks = circumspheres(ps, m.ids)
        for name in ("radius", "degenerate", "interior", "empty"):
            assert np.array_equal(getattr(blocks, name), getattr(batch, name), equal_nan=True)

    @pytest.mark.parametrize("kind,k,n", ACCEPTED)
    def test_mosaics_as_scalar_predicates(self, kind, k, n):
        ps = cached_pipeline(kind, k, n)[0]
        verts = complexgen._mosaic(ps).vertex_tuples()
        batch = circumspheres(ps, verts)
        scalar = []
        for v in verts:
            pts = ps.points[list(v)]
            try:
                sphere = circumsphere(pts)
            except AffineDegeneracyError:
                scalar.append((True, False, False))
                continue
            scalar.append((False, barycentric_interior(pts, sphere.center),
                           is_empty_sphere(sphere, ps, exclude=v, strict=True)))
        assert list(zip(batch.degenerate.tolist(), batch.interior.tolist(),
                        batch.empty.tolist())) == scalar

    def test_failing_point_set_under_every_vertex_order(self):
        ps = build_3d(10, 0.5)
        verts = complexgen._mosaic(ps).vertex_tuples()
        for shift in range(4):
            batch = assert_as_reference(
                ps, [v[shift % len(v):] + v[:shift % len(v)] for v in verts])
            assert not batch.empty.all()

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_mixed_sizes_and_degenerate_rows(self, d):
        rng = np.random.default_rng(d)
        pts = rng.random((40, d))
        pts[5] = 0.5 * (pts[0] + pts[1])
        simplices = [tuple(rng.choice(40, size=int(rng.integers(1, d + 3)),
                                      replace=False).tolist()) for _ in range(2000)]
        simplices += [(0, 1, 5), (3, 3)]
        batch = assert_as_reference(pts, simplices)
        assert batch.degenerate[-2:].tolist() == [True, True]
        assert batch.degenerate[[len(s) > d + 1 for s in simplices]].all()

    def test_cospherical_grid(self):
        # points of a coarse grid: many lie exactly on each other's spheres
        rng = np.random.default_rng(5)
        pts = np.unique(np.round(rng.random((80, 3)) * 4) / 4, axis=0)
        simplices = [tuple(rng.choice(len(pts), size=int(rng.integers(2, 5)),
                                      replace=False).tolist()) for _ in range(2000)]
        assert_as_reference(pts, simplices)


class TestEmptinessBand:
    """Points within the band of the strict bound, where the expanded form
    |p|^2 - 2 c.p + |c|^2 cannot decide: far from the origin it errs by up
    to about |p|^2 eps ~ 4e-6, while the points sit 1e-9 to 1e-7 off the
    bound in squared distance, well inside the band 2(d + 3) eps
    (|p| + |c|)^2 ~ 2e-4, and well clear of the ~1e-10 that rounding the
    coordinates moves them.  Each verdict must be the difference form's."""

    CENTER = np.array([1e5, 1e5])

    def triangle_and_point(self, offset):
        """A unit-circumradius triangle about CENTER and one point whose
        squared distance to CENTER is 1 + abs_eps + offset."""
        angles = np.array([0.3, 2.2, 4.1])
        tri = self.CENTER + np.column_stack((np.cos(angles), np.sin(angles)))
        direction = np.array([math.cos(5.3), math.sin(5.3)])
        point = self.CENTER + math.sqrt(1.0 + DEFAULT_TOL.abs_eps + offset) * direction
        return np.vstack((tri, point))

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["outside", "inside"])
    def test_band_points_get_the_difference_verdict(self, sign):
        offsets = sign * np.linspace(1e-9, 1e-7, 60)
        verdicts = [assert_as_reference(self.triangle_and_point(t), [(0, 1, 2)]).empty[0]
                    for t in offsets]
        assert verdicts == [sign > 0] * len(offsets)


def test_subnormal_distances_get_the_difference_verdict():
    # points ~1e-161 apart and an abs_eps of a few subnormals: the distances
    # underflow, with absolute rounding errors the relative band alone
    # would not cover (only vertices: the Gram systems of larger simplices
    # underflow to singular)
    rng = np.random.default_rng(3)
    for units in range(1, 40):
        tol = Tolerance(abs_eps=units * 5e-324)
        pts = rng.random((30, 2)) * 1e-161
        assert_as_reference(pts, [(i,) for i in range(30)], tol)


class TestDegeneracyFallback:
    """Simplices whose smallest-to-largest singular value ratio is near
    rel_eps: their Gram eigenvalue ratio, about 1e-18, is below eps, so the
    certificate cannot clear them and the SVD decides, as in `circumsphere`.
    The rows just above rel_eps pass the SVD test, but their Gram systems
    are numerically singular: where the solve finds one exactly singular,
    the batch reports the row degenerate and `circumsphere` raises
    AffineDegeneracyError."""

    REL_EPS = DEFAULT_TOL.rel_eps

    @staticmethod
    def flat_rel(d, ratio):
        """d edge vectors in R^d with singular values 1, ..., 1, ratio."""
        rng = np.random.default_rng(d)
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        p, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return q @ np.diag([1.0] * (d - 1) + [ratio]) @ p

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_svd_decides_uncertified_rows(self, d):
        factors = (1.002, 0.998, 1.5, 0.5)
        rel = np.stack([self.flat_rel(d, f * self.REL_EPS) for f in factors] + [np.eye(d)])
        gram = rel @ rel.transpose(0, 2, 1)
        lam = np.linalg.eigvalsh(gram)
        assert np.all(lam[:-1, 0] < geometry.EPS * lam[:-1, -1])
        sv = np.linalg.svd(rel, compute_uv=False)
        flat = (sv[:, -1] <= self.REL_EPS * sv[:, 0]).tolist()
        assert flat == [False, True, False, True, False]
        assert geometry._degenerate(rel, gram, self.REL_EPS).tolist() == flat

    def test_underflowing_gram_goes_to_svd(self):
        # at edge lengths ~1e-155 the Gram entries are subnormal, their
        # relative errors unbounded, and the eigenvalues could certify a
        # flat row; such rows must reach the SVD
        rng = np.random.default_rng(11)
        ratios = 10.0 ** rng.uniform(-12, -6, size=200)
        rel = np.stack([self.flat_rel(3, r) for r in ratios]) * 1e-155
        gram = rel @ rel.transpose(0, 2, 1)
        sv = np.linalg.svd(rel, compute_uv=False)
        flat = sv[:, -1] <= self.REL_EPS * sv[:, 0]
        assert flat.any() and not flat.all()
        assert np.array_equal(geometry._degenerate(rel, gram, self.REL_EPS), flat)

    @pytest.mark.parametrize("d,singular", [(2, True), (3, True), (4, False)])
    def test_singular_gram_system_is_degenerate(self, d, singular):
        pts = np.vstack((np.zeros(d), self.flat_rel(d, 1.002 * self.REL_EPS))) + 0.25
        rel = (pts[1:] - pts[0])[None]
        assert not geometry._degenerate(rel, rel @ rel.transpose(0, 2, 1), self.REL_EPS).any()
        # with a regular simplex on each side, whose verdicts must not move
        regular = np.vstack((np.zeros(d), np.eye(d))) + 2.0
        both = np.vstack((pts, regular))
        simplices = [tuple(range(d + 1, 2 * d + 2)), tuple(range(d + 1)),
                     tuple(range(d + 1, 2 * d + 2))]
        batch = circumspheres(both, simplices)
        alone = circumspheres(both, simplices[:1])
        assert batch.degenerate.tolist() == [False, singular, False]
        for field in ("radius", "interior", "empty"):
            row = getattr(alone, field).tolist()
            assert [getattr(batch, field)[i].tolist() for i in (0, 2)] == row + row
        if singular:
            assert math.isnan(batch.radius[1]) and not batch.critical[1]
            with pytest.raises(AffineDegeneracyError, match="singular"):
                circumsphere(pts)
        else:
            assert circumsphere(pts).radius > 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_flat_simplex_is_degenerate(self, d):
        pts = np.vstack((np.zeros(d), self.flat_rel(d, 0.998 * self.REL_EPS))) + 0.25
        batch = assert_as_reference(pts, [tuple(range(d + 1))])
        assert batch.degenerate.tolist() == [True]
        with pytest.raises(AffineDegeneracyError):
            circumsphere(pts)


def test_peak_memory_is_blocked():
    """One call on 3d n=60 stays within 3(d+1)^2 doubles per simplex for the
    per-size arrays plus 8 distance blocks; a (simplices x points) distance
    matrix for the triangles alone would take 7 MB of the 6 MB allowed."""
    ps = build_3d(60, 0.1 / 60)
    m = complexgen._mosaic(ps)
    count = sum(len(block) for block in m.ids)
    d = ps.points.shape[1]
    bound = 8 * (3 * (d + 1) ** 2 * count + 8 * geometry.DISTANCE_BLOCK)
    circumspheres(ps, m.ids)
    tracemalloc.start()
    try:
        circumspheres(ps, m.ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def violations_loop(sphere, pts, exclude, strict):
    """`emptiness_violations` as it was: one squared distance per point."""
    r2 = sphere.radius**2
    bound = r2 + DEFAULT_TOL.abs_eps if strict else r2 - DEFAULT_TOL.abs_eps
    return [i for i in range(len(pts))
            if i not in set(exclude) and squared_distance(pts[i], sphere.center) < bound]


def test_emptiness_violations_match_the_loop():
    ps = build_3d(10, 0.5)
    checked = 0
    for v in complexgen._mosaic(ps).vertex_tuples():
        sphere = circumsphere(ps.points[list(v)])
        for strict in (True, False):
            found = emptiness_violations(sphere, ps, exclude=v, strict=strict)
            assert found == violations_loop(sphere, ps.points, v, strict)
            assert (found == []) == is_empty_sphere(sphere, ps, exclude=v, strict=strict)
            checked += bool(found)
    assert checked > 0
    assert emptiness_violations(Sphere(np.zeros(3), 1.0), np.zeros((0, 3))) == []
