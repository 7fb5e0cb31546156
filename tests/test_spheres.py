"""The batched sphere kernel (`geometry.circumspheres`) against the kernel
it replaced, which decided degeneracy by a stacked SVD and emptiness by
differences alone, and against the per-simplex scalar predicates.  The
kernel takes one block of one size; simplices of several sizes go through
`circumspheres_in_order`, a block per size."""

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
    barycentric_interior,
    circumsphere,
    circumspheres,
    is_empty_sphere,
    squared_distance,
)

from conftest import cached_pipeline, circumspheres_in_order
from test_acceptance import ACCEPTED


FIELDS = ("center", "radius", "degenerate", "interior", "offender", "empty")


def reference_circumspheres(pts, simplices):
    """The kernel before the filters, as a dict of FIELDS: a stacked SVD
    test for degeneracy, and every point-to-center distance summed over the
    differences; the offender is the first point of the distance matrix
    below the strict bound."""
    tol = DEFAULT_TOL
    pts = np.asarray(getattr(pts, "points", pts), dtype=float)
    n_pts, d = pts.shape
    count = len(simplices)
    center_out = np.full((count, d), np.nan)
    radius = np.full(count, np.nan)
    degenerate = np.ones(count, dtype=bool)
    interior = np.zeros(count, dtype=bool)
    offender = np.full(count, -1)
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
        center_out[rows] = np.where(deg[:, None], np.nan, center)
        radius[rows] = np.where(deg, np.nan, np.sqrt(r2))
        interior[rows] = inside
        diffs = pts[None, :, :] - center[:, None, :]
        d2 = np.einsum("bij,bij->bi", diffs, diffs)
        d2[np.arange(len(rows))[:, None], idx] = np.inf
        bound = (r2 + tol.abs_eps)[:, None]
        empty[rows] = np.all(d2 >= bound, axis=1) & ~deg
        below = d2 < bound
        offender[rows] = np.where(below.any(axis=1) & ~deg, below.argmax(axis=1), -1)
    return {"center": center_out, "radius": radius, "degenerate": degenerate,
            "interior": interior, "offender": offender, "empty": empty}


def bits(values):
    """An array as a list, floats by their hex form (so bit for bit)."""
    values = np.asarray(values)
    if values.dtype.kind == "f":
        return [x.hex() for x in values.ravel().tolist()]
    return values.tolist()


def assert_as_reference(pts, simplices):
    batch = circumspheres_in_order(pts, simplices)
    reference = reference_circumspheres(pts, simplices)
    for name in FIELDS:
        assert bits(getattr(batch, name)) == bits(reference[name]), name
    return batch


class TestAsReference:
    @pytest.mark.parametrize("kind,k,n", ACCEPTED + (("3d", 1, 100),))
    def test_mosaics_bit_identical(self, kind, k, n):
        ps = cached_pipeline(kind, k, n)[0]
        m = complexgen._mosaic(ps)
        verts = complexgen._vertex_tuples(m.ids)
        batch = assert_as_reference(ps, verts)
        blocks = circumspheres_in_order(ps, m.ids)
        for name in FIELDS:
            assert bits(getattr(blocks, name)) == bits(getattr(batch, name)), name
        # each class block through the kernel alone, as the build passes it,
        # equals its rows of the batch of all blocks
        for block, (lo, hi) in zip(m.ids, m.blocks):
            alone = circumspheres(ps, block)
            for name in FIELDS:
                assert bits(getattr(alone, name)) == bits(getattr(blocks, name)[lo:hi]), name

    @pytest.mark.parametrize("kind,k,n", ACCEPTED)
    def test_mosaics_as_scalar_predicates(self, kind, k, n):
        ps = cached_pipeline(kind, k, n)[0]
        verts = complexgen._vertex_tuples(complexgen._mosaic(ps).ids)
        batch = circumspheres_in_order(ps, verts)
        scalar = []
        for v in verts:
            pts = ps.points[list(v)]
            try:
                sphere = circumsphere(pts)
            except AffineDegeneracyError:
                scalar.append((True, False, False))
                continue
            scalar.append((False, barycentric_interior(pts, sphere.center),
                           is_empty_sphere(sphere, ps, exclude=v)))
        assert list(zip(batch.degenerate.tolist(), batch.interior.tolist(),
                        batch.empty.tolist())) == scalar

    def test_failing_point_set_under_every_vertex_order(self):
        ps = build_3d(10, 0.5)
        verts = complexgen._vertex_tuples(complexgen._mosaic(ps).ids)
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

    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_and_oversized_blocks_are_degenerate(self, d):
        pts = np.random.default_rng(d).random((10, d))
        for idx in (np.empty((4, 0), dtype=np.intp), np.arange(3 * (d + 2)).reshape(3, d + 2)):
            batch = circumspheres(pts, idx)
            b = len(idx)
            assert batch.center.shape == (b, d) and np.isnan(batch.center).all()
            assert np.isnan(batch.radius).all() and batch.degenerate.tolist() == [True] * b
            assert batch.offender.tolist() == [-1] * b
            assert not batch.interior.any() and not batch.empty.any()

    def test_offenders_across_row_blocks(self):
        # 600 triangles of random points fill 5 blocks of DISTANCE_ROWS
        # rows, and all but one row has points inside: each row's offender
        # is its lowest inside id, whichever block the row falls in
        rng = np.random.default_rng(10)
        pts = rng.random((200, 3))
        simplices = [tuple(rng.choice(200, size=3, replace=False).tolist()) for _ in range(600)]
        batch = assert_as_reference(pts, simplices)
        rows = np.flatnonzero(batch.offender >= 0)
        assert len(rows) == 599 and len(set(batch.offender[rows].tolist())) > 1
        assert set((rows // geometry.DISTANCE_ROWS).tolist()) == {0, 1, 2, 3, 4}

    def test_cospherical_grid(self):
        # points of a coarse grid: many lie exactly on each other's spheres
        rng = np.random.default_rng(5)
        pts = np.unique(np.round(rng.random((80, 3)) * 4) / 4, axis=0)
        simplices = [tuple(rng.choice(len(pts), size=int(rng.integers(2, 5)),
                                      replace=False).tolist()) for _ in range(2000)]
        assert_as_reference(pts, simplices)


def assert_circumsphere_is_its_row(pts, simplices):
    """`circumsphere` of each simplex's points is its batch row bit for bit,
    and raises exactly where the row is degenerate."""
    batch = circumspheres_in_order(pts, simplices)
    for i, v in enumerate(simplices):
        if batch.degenerate[i]:
            with pytest.raises(AffineDegeneracyError):
                circumsphere(pts[list(v)])
        else:
            sphere = circumsphere(pts[list(v)])
            assert (bits(sphere.center), sphere.radius.hex()) == (
                bits(batch.center[i]), batch.radius[i].hex())
    return batch


class TestCircumsphereIsOneRow:
    @pytest.mark.parametrize("kind,k,n", ACCEPTED)
    def test_mosaic_rows(self, kind, k, n):
        ps = cached_pipeline(kind, k, n)[0]
        verts = complexgen._vertex_tuples(complexgen._mosaic(ps).ids)
        assert_circumsphere_is_its_row(ps.points, verts)

    @pytest.mark.parametrize("d", [2, 3])
    def test_degenerate_rows_raise(self, d):
        rng = np.random.default_rng(d)
        pts = rng.random((12, d))
        pts[5] = 0.5 * (pts[0] + pts[1])
        simplices = [tuple(rng.choice(12, size=int(rng.integers(1, d + 3)),
                                      replace=False).tolist()) for _ in range(300)]
        batch = assert_circumsphere_is_its_row(pts, simplices + [(0, 1, 5)])
        assert batch.degenerate.any() and not batch.degenerate.all()


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
        # the batch row and `is_empty_sphere`, its one-row case, alike
        offsets = sign * np.linspace(1e-9, 1e-7, 60)
        verdicts = []
        for t in offsets:
            pts = self.triangle_and_point(t)
            batch = assert_as_reference(pts, [(0, 1, 2)])
            one_row = is_empty_sphere(circumsphere(pts[:3]), pts, exclude=(0, 1, 2))
            verdicts.append((bool(batch.empty[0]), one_row))
        assert verdicts == [(sign > 0, sign > 0)] * len(offsets)


def test_subnormal_distances_get_the_difference_verdict():
    # points ~1e-161 apart and a bound of a few subnormals: the distances
    # underflow, with absolute rounding errors the relative band alone
    # would not cover (only vertices, each its own center at radius 0: the
    # Gram systems of larger simplices underflow to singular)
    rng = np.random.default_rng(3)
    idx = np.arange(30)[:, None]
    for units in range(1, 40):
        pts = rng.random((30, 2)) * 1e-161
        bound = np.full(30, units * 5e-324)
        first = geometry._first_inside(pts, idx, pts, bound)
        diffs = pts[None, :, :] - pts[:, None, :]
        below = np.einsum("bij,bij->bi", diffs, diffs) < bound[:, None]
        below[idx[:, 0], idx[:, 0]] = False
        assert first.tolist() == np.where(below.any(axis=1), below.argmax(axis=1), -1).tolist()


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
        with pytest.raises(AffineDegeneracyError, match="affinely dependent beyond tolerance"):
            circumsphere(pts)


@pytest.mark.parametrize("d", range(2, 9))
def test_certificate_matches_svd_on_near_flat_rows(d):
    """`_degenerate` is the SVD test on rows of k = 1..d edge vectors in
    R^d whose smallest-to-largest singular value ratio is log-uniform in
    [1e-12, 1e-6], across rel_eps, so on both sides of the test and of the
    Cholesky certificate's margin."""
    rng = np.random.default_rng(100 + d)
    rel_eps = DEFAULT_TOL.rel_eps
    for k in range(1, d + 1):
        b = 200
        ratio = 10.0 ** rng.uniform(-12, -6, size=b)
        sv = np.sort(ratio[:, None] ** rng.uniform(0, 1, size=(b, k)), axis=1)[:, ::-1]
        sv[:, 0], sv[:, -1] = 1.0, ratio if k > 1 else 1.0
        u, _ = np.linalg.qr(rng.normal(size=(b, k, k)))
        v, _ = np.linalg.qr(rng.normal(size=(b, d, k)))
        scale = 10.0 ** rng.uniform(-3, 3, size=(b, 1, 1))
        rel = scale * (u * sv[:, None, :]) @ v.transpose(0, 2, 1)
        computed = np.linalg.svd(rel, compute_uv=False)
        flat = computed[:, -1] <= rel_eps * computed[:, 0]
        gram = rel @ rel.transpose(0, 2, 1)
        assert np.array_equal(geometry._degenerate(rel, gram, rel_eps), flat), (d, k)


def test_row_sums_are_numpys_sums():
    """`_row_sums` is `sum(axis=1)` bit for bit, on either side of the 8
    terms from which numpy adds in pairs, and on the strided diagonal view
    the Gram trace reads."""
    rng = np.random.default_rng(8)
    for k in range(1, 12):
        a = rng.normal(size=(4000, k)) * 10.0 ** rng.uniform(-8, 8, size=(4000, k))
        assert bits(geometry._row_sums(a)) == bits(a.sum(axis=1)), k
        square = rng.normal(size=(1000, k, k))
        diagonal = np.diagonal(square, axis1=1, axis2=2)
        assert bits(geometry._row_sums(diagonal)) == bits(np.trace(square, axis1=1, axis2=2)), k


def test_peak_memory_is_blocked():
    """One pass over the class blocks of 3d n=60 stays within 3(d+1)^2
    doubles per simplex plus 8 distance blocks of DISTANCE_ROWS rows by
    all 122 points; a (simplices x points) distance matrix for the
    triangles alone would take 6.81 MiB of the 6.40 MiB allowed."""
    ps = build_3d(60, 0.1 / 60)
    m = complexgen._mosaic(ps)
    count = sum(len(block) for block in m.ids)
    d = ps.points.shape[1]
    bound = 8 * (3 * (d + 1) ** 2 * count + 8 * geometry.DISTANCE_ROWS * len(ps.points))
    for block in m.ids:
        circumspheres(ps, block)
    tracemalloc.start()
    try:
        for block in m.ids:
            circumspheres(ps, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def violations_loop(sphere, pts, exclude):
    """The points not strictly outside the sphere, by one squared distance
    per point: the reference for `is_empty_sphere`."""
    bound = sphere.radius**2 + DEFAULT_TOL.abs_eps
    return [i for i in range(len(pts))
            if i not in set(exclude) and squared_distance(pts[i], sphere.center) < bound]


def test_emptiness_violations_match_the_loop():
    ps = build_3d(10, 0.5)
    checked = 0
    for v in complexgen._vertex_tuples(complexgen._mosaic(ps).ids):
        sphere = circumsphere(ps.points[list(v)])
        found = violations_loop(sphere, ps.points, v)
        assert (found == []) == is_empty_sphere(sphere, ps, exclude=v)
        assert is_empty_sphere(sphere, ps, exclude=v + tuple(found))
        checked += bool(found)
    assert checked > 0
    assert is_empty_sphere(Sphere(np.zeros(3), 1.0), np.zeros((0, 3)))


def test_nan_sphere_is_not_empty():
    # a nan distance or bound is not >= the bound, so it counts as inside
    pts = np.random.default_rng(4).random((20, 3))
    assert not is_empty_sphere(Sphere(np.array([0.5, np.nan, 0.5]), 1.0), pts)
    assert not is_empty_sphere(Sphere(np.full(3, 0.5), math.nan), pts)
