"""Floating-point geometric kernel.

Distances, smallest enclosing balls, circumspheres (one at a time, or
batched over many simplices), barycentric interiority and empty-sphere
predicates, all in plain 64-bit arithmetic with fixed tolerances; exact
predicates are out of scope.  The fixed tolerances are not safe at every
size: on the 3d family the smallest strict-emptiness clearance is 2(delta/n)^2,
which at the default delta = 0.1/n falls below abs_eps = 1e-12 from n ~ 376.

Every function is pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AffineDegeneracyError",
    "DimensionMismatchError",
    "Sphere",
    "SphereBatch",
    "Tolerance",
    "DEFAULT_TOL",
    "affine_distance",
    "barycentric_coordinates",
    "barycentric_interior",
    "circumsphere",
    "circumspheres",
    "is_empty_sphere",
    "min_enclosing_ball",
    "squared_distance",
]


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class AffineDegeneracyError(ValueError):
    """Input points are affinely dependent beyond tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical slack used by the predicates.

    abs_eps guards comparisons of squared lengths, rel_eps guards relative
    residuals (affine-hull membership, equidistance), interior_eps is the
    margin a barycentric coordinate must clear to count as interior.  In
    `min_enclosing_ball` the slack is abs_eps * min(1, r^2) for a ball of
    radius r, so it shrinks with the ball and points a tiny distance apart
    are not merged.
    """

    abs_eps: float = 1e-12
    rel_eps: float = 1e-9
    interior_eps: float = 1e-10

    def __post_init__(self):
        if min(self.abs_eps, self.rel_eps, self.interior_eps) <= 0.0:
            raise ValueError("tolerances must be strictly positive")
        if self.abs_eps > self.rel_eps:
            raise ValueError("abs_eps must not exceed rel_eps")


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, eq=False)
class Sphere:
    """A (d-1)-sphere given by center and nonnegative radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")


def squared_distance(a, b) -> float:
    """Squared Euclidean distance between two points of equal dimension."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"dimension mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.dot(diff, diff))


def _as_matrix(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("expected a nonempty sequence of points")
    if pts.ndim == 1:
        pts = pts.reshape(1, -1)
    if pts.ndim != 2:
        raise ValueError("expected a sequence of points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must have finite coordinates")
    return pts


def _ball_through(pts: np.ndarray) -> Sphere:
    """Smallest sphere having all of `pts` on its boundary.

    Solved in the affine hull via the Gram system; least squares keeps the
    center well-defined when the boundary set is affinely dependent, which
    can occur transiently inside the Welzl recursion.
    """
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


def min_enclosing_ball(points, tol: Tolerance = DEFAULT_TOL) -> Sphere:
    """Smallest ball containing all the points (miniball).

    Recursive move-to-front Welzl scheme processed in input order; no
    randomization, so results are reproducible bit for bit.  A point counts
    as inside when its squared distance exceeds r^2 by at most
    abs_eps * min(1, r^2): an absolute slack alone would put two points
    up to sqrt(abs_eps) apart inside a ball of radius 0.
    """
    pts = _as_matrix(points)
    d = pts.shape[1]
    order = list(range(len(pts)))

    def inside_limit(ball: Sphere | None) -> float:
        """Largest squared distance from the center that counts as inside."""
        if ball is None:
            return -math.inf
        r2 = ball.radius**2
        return r2 + tol.abs_eps * min(1.0, r2)

    def recurse(end: int, boundary: list) -> Sphere | None:
        ball = _ball_through(np.asarray(boundary)) if boundary else None
        if len(boundary) == d + 1:
            return ball
        limit = inside_limit(ball)
        i = 0
        while i < end:
            p = pts[order[i]]
            if ball is None or squared_distance(p, ball.center) > limit:
                ball = recurse(i, boundary + [p])
                limit = inside_limit(ball)
                order.insert(0, order.pop(i))
            i += 1
        return ball

    ball = recurse(len(order), [])
    assert ball is not None
    return ball


def circumsphere(points, tol: Tolerance = DEFAULT_TOL) -> Sphere:
    """Smallest sphere through all the points, center in their affine hull.

    Requires affinely independent points; degenerate input is rejected with
    AffineDegeneracyError rather than regularized.
    """
    pts = _as_matrix(points)
    m, d = pts.shape
    if m > d + 1:
        raise AffineDegeneracyError(f"{m} points cannot be affinely independent in R^{d}")
    if m == 1:
        return Sphere(pts[0].copy(), 0.0)
    rel = pts[1:] - pts[0]
    sv = np.linalg.svd(rel, compute_uv=False)
    if sv[-1] <= tol.rel_eps * sv[0]:
        raise AffineDegeneracyError("points are affinely dependent beyond tolerance")
    rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
    alpha = np.linalg.solve(rel @ rel.T, rhs)
    center = pts[0] + rel.T @ alpha
    diffs = pts - center
    radius = float(np.mean(np.sqrt(np.einsum("ij,ij->i", diffs, diffs))))
    return Sphere(center, radius)


# Entries of one point-to-center distance block in `circumspheres`; bounds
# the temporary arrays so memory grows with the complex, not its square.
DISTANCE_BLOCK = 8192


@dataclass(frozen=True, eq=False)
class SphereBatch:
    """Per-simplex circumsphere data from `circumspheres`, in input order.

    radius is the circumradius; interior says every barycentric coordinate
    of the circumcenter exceeds interior_eps; empty says every point other
    than the simplex's own vertices lies strictly outside the circumsphere.
    Where degenerate, radius is nan and interior and empty are False.
    """

    radius: np.ndarray
    degenerate: np.ndarray
    interior: np.ndarray
    empty: np.ndarray

    @property
    def critical(self) -> np.ndarray:
        """Circumcenter interior and circumsphere strictly empty."""
        return self.interior & self.empty


def circumspheres(points, simplices, tol: Tolerance = DEFAULT_TOL) -> SphereBatch:
    """Circumspheres of many simplices of one point set at once.

    `points` may be a PointSet or a coordinate array; `simplices` is a
    sequence of vertex-index tuples.  Simplices are grouped by size and each
    group's Gram systems are solved in one stacked call; the solution
    coefficients are the barycentric coordinates of the circumcenter.  The
    degeneracy test is `circumsphere`'s and the interior and emptiness tests
    are `barycentric_interior`'s and strict `is_empty_sphere`'s, with the same
    tolerances.  A simplex of more than d+1 points is reported degenerate.
    """
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    n_pts, d = pts.shape
    count = len(simplices)
    radius = np.full(count, np.nan)
    degenerate = np.ones(count, dtype=bool)
    interior = np.zeros(count, dtype=bool)
    empty = np.zeros(count, dtype=bool)
    groups: dict[int, list[int]] = {}
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
            gram[deg] = np.eye(m - 1)  # keeps the stacked solve nonsingular
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
        step = max(1, DISTANCE_BLOCK // n_pts)
        for lo in range(0, len(rows), step):
            hi = min(lo + step, len(rows))
            diffs = pts[None, :, :] - center[lo:hi, None, :]
            d2 = np.einsum("bij,bij->bi", diffs, diffs)
            d2[np.arange(hi - lo)[:, None], idx[lo:hi]] = np.inf
            clear = np.all(d2 >= (r2[lo:hi] + tol.abs_eps)[:, None], axis=1)
            empty[rows[lo:hi]] = clear & ~deg[lo:hi]
    return SphereBatch(radius, degenerate, interior, empty)


def affine_distance(points, x) -> float:
    """Distance from x to the affine hull of the points."""
    pts = _as_matrix(points)
    x = np.asarray(x, dtype=float)
    if x.shape != (pts.shape[1],):
        raise DimensionMismatchError("query point dimension differs from hull points")
    if len(pts) == 1:
        return math.sqrt(squared_distance(x, pts[0]))
    basis = (pts[1:] - pts[0]).T
    coeff, *_ = np.linalg.lstsq(basis, x - pts[0], rcond=None)
    return float(np.linalg.norm(basis @ coeff - (x - pts[0])))


def barycentric_coordinates(simplex_points, x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Barycentric coordinates of x with respect to an affinely independent
    simplex.  Raises if x is farther from the affine hull than
    rel_eps * diameter."""
    pts = _as_matrix(simplex_points)
    x = np.asarray(x, dtype=float)
    m = len(pts)
    if m == 1:
        resid = math.sqrt(squared_distance(x, pts[0]))
        if resid > tol.abs_eps:
            raise ValueError("point is not in the affine hull of the simplex")
        return np.array([1.0])
    basis = (pts[1:] - pts[0]).T
    sv = np.linalg.svd(basis, compute_uv=False)
    if sv[-1] <= tol.rel_eps * sv[0]:
        raise AffineDegeneracyError("simplex is affinely degenerate")
    coeff, *_ = np.linalg.lstsq(basis, x - pts[0], rcond=None)
    resid = float(np.linalg.norm(basis @ coeff - (x - pts[0])))
    diam = math.sqrt(max(squared_distance(p, q) for p in pts for q in pts))
    if resid > max(tol.abs_eps, tol.rel_eps * diam):
        raise ValueError("point is not in the affine hull of the simplex")
    return np.concatenate([[1.0 - float(np.sum(coeff))], coeff])


def barycentric_interior(simplex_points, x, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every barycentric coordinate of x exceeds interior_eps."""
    coords = barycentric_coordinates(simplex_points, x, tol)
    return bool(np.all(coords > tol.interior_eps))


def is_empty_sphere(sphere: Sphere, points, exclude=(), strict: bool = True,
                    tol: Tolerance = DEFAULT_TOL) -> bool:
    """Emptiness predicate for a sphere against a point set.

    Strict mode demands every non-excluded point lie strictly outside
    (squared distance >= radius^2 + abs_eps); relaxed mode allows points on
    the sphere (>= radius^2 - abs_eps).  `points` may be a PointSet or a
    coordinate array; `exclude` holds point indices to skip.
    """
    pts = getattr(points, "points", points)
    pts = np.asarray(pts, dtype=float)
    if len(pts) == 0:
        return True
    mask = np.ones(len(pts), dtype=bool)
    for idx in exclude:
        mask[idx] = False
    if not np.any(mask):
        return True
    diffs = pts[mask] - sphere.center
    d2 = np.einsum("ij,ij->i", diffs, diffs)
    r2 = sphere.radius**2
    bound = r2 + tol.abs_eps if strict else r2 - tol.abs_eps
    return bool(np.all(d2 >= bound))


def emptiness_violations(sphere: Sphere, points, exclude=(), strict: bool = True,
                         tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """Indices of points that violate the emptiness predicate, for reporting."""
    pts = getattr(points, "points", points)
    pts = np.asarray(pts, dtype=float)
    excl = set(exclude)
    r2 = sphere.radius**2
    bound = r2 + tol.abs_eps if strict else r2 - tol.abs_eps
    out = []
    for i in range(len(pts)):
        if i in excl:
            continue
        if squared_distance(pts[i], sphere.center) < bound:
            out.append(i)
    return out
