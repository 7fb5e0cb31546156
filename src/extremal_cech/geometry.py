"""Floating-point geometric kernel.

Distances, smallest enclosing balls, circumspheres (one at a time, or
batched over many simplices), barycentric interiority and empty-sphere
predicates, all in 64-bit arithmetic with fixed tolerances.  The batched
pass puts filters in front of two of its tests, as in Shewchuk's filtered
predicates (Adaptive precision floating-point arithmetic and fast robust
geometric predicates, DCG 1997).  Emptiness is read first from an
expanded-form distance, and only an entry within a forward-error band of
the bound is computed again from differences.  Degeneracy is certified
first from the Gram eigenvalues, and only a row they cannot certify runs
the SVD test.  So every verdict is the plain floating-point test's; no
predicate is decided in exact arithmetic.  The fixed tolerances are not
safe at every size: on the 3d family the smallest strict-emptiness
clearance is 2(delta/n)^2, which at the default delta = 0.1/n falls below
abs_eps = 1e-12 from n ~ 376.

Every function is pure and thread-safe.
"""

from __future__ import annotations

import itertools
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
    try:
        alpha = np.linalg.solve(rel @ rel.T, rhs)
    except np.linalg.LinAlgError:
        raise AffineDegeneracyError("Gram system is numerically singular") from None
    center = pts[0] + rel.T @ alpha
    diffs = pts - center
    radius = float(np.mean(np.sqrt(np.einsum("ij,ij->i", diffs, diffs))))
    return Sphere(center, radius)


# Entries of one point-to-center distance block in `circumspheres`; bounds
# the temporary arrays so memory grows with the complex, not its square.
DISTANCE_BLOCK = 8192

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class SphereBatch:
    """Per-simplex circumsphere data from `circumspheres`, in input order.

    radius is the circumradius; interior says every barycentric coordinate
    of the circumcenter exceeds interior_eps; empty says every point other
    than the simplex's own vertices lies strictly outside the circumsphere.
    Where degenerate, radius is nan and interior and empty are False.
    degenerate is the verdict of `circumsphere`'s SVD test, or a Gram
    system the solve finds singular, where `circumsphere` raises
    AffineDegeneracyError too; empty is the verdict of strict
    `is_empty_sphere`'s differences from the batch's centers.  The filters
    in front of the two tests settle only the rows and entries their error
    bounds allow.
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

    `points` may be a PointSet or a coordinate array.  `simplices` is a
    sequence of vertex-index tuples of any sizes, or a sequence of (b, m)
    int arrays, each a block of b simplices of size m, whose rows are taken
    in order.  Tuples are first grouped by size; each group or block then
    goes through one kernel, `_sphere_block`.  The degeneracy test is
    `circumsphere`'s and the interior and emptiness tests are
    `barycentric_interior`'s and strict `is_empty_sphere`'s, with the same
    tolerances; the filters of `_degenerate` and `_strictly_empty` change
    no verdict.  An empty simplex or one of more than d+1 points is
    reported degenerate.
    """
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    if len(simplices) and all(np.ndim(block) == 2 for block in simplices):
        ends = np.cumsum([len(block) for block in simplices]).tolist()
        groups = [(slice(end - len(block), end), np.asarray(block, dtype=np.intp))
                  for end, block in zip(ends, simplices)]
        count = ends[-1]
    else:
        groups = _group_by_size(simplices)
        count = len(simplices)
    radius = np.full(count, np.nan)
    degenerate = np.ones(count, dtype=bool)
    interior = np.zeros(count, dtype=bool)
    empty = np.zeros(count, dtype=bool)
    sq = np.einsum("ij,ij->i", pts, pts)
    for rows, idx in groups:
        if 1 <= idx.shape[1] <= pts.shape[1] + 1:
            radius[rows], degenerate[rows], interior[rows], empty[rows] = (
                _sphere_block(pts, sq, idx, tol))
    return SphereBatch(radius, degenerate, interior, empty)


def _group_by_size(simplices) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, (b, m) vertex ids) per simplex size m, for vertex tuples."""
    sizes = np.fromiter(map(len, simplices), dtype=np.intp, count=len(simplices))
    flat = np.fromiter(itertools.chain.from_iterable(simplices), dtype=np.intp,
                       count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    groups = []
    for m in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == m)
        groups.append((rows, flat[starts[rows, None] + np.arange(m)]))
    return groups


def _sphere_block(pts: np.ndarray, sq: np.ndarray, idx: np.ndarray, tol: Tolerance):
    """radius, degenerate, interior and empty of the b simplices of size m
    (1 <= m <= d+1) whose vertex ids are the rows of `idx`; `sq` holds the
    squared norms of `pts`.  The Gram systems are solved in one stacked
    call; the solution coefficients are the barycentric coordinates of the
    circumcenter."""
    b, m = idx.shape
    verts = pts[idx]
    if m == 1:
        deg = np.zeros(b, dtype=bool)
        center = verts[:, 0]
        r2 = np.zeros(b)
        inside = np.ones(b, dtype=bool)
    else:
        rel = verts[:, 1:] - verts[:, :1]
        gram = rel @ rel.transpose(0, 2, 1)
        rhs = 0.5 * np.einsum("bij,bij->bi", rel, rel)
        alpha, deg = _gram_solve(gram, rhs, _degenerate(rel, gram, tol.rel_eps))
        center = verts[:, 0] + np.einsum("bi,bij->bj", alpha, rel)
        diffs = verts - center[:, None]
        r2 = np.max(np.einsum("bij,bij->bi", diffs, diffs), axis=1)
        inside = ((1.0 - alpha.sum(axis=1) > tol.interior_eps)
                  & np.all(alpha > tol.interior_eps, axis=1) & ~deg)
    empty = _strictly_empty(pts, sq, idx, center, r2 + tol.abs_eps) & ~deg
    return np.where(deg, np.nan, np.sqrt(r2)), deg, inside, empty


def _gram_solve(gram: np.ndarray, rhs: np.ndarray, deg: np.ndarray):
    """(alpha, deg): the stacked Gram systems solved in one call, with the
    identity in place of each degenerate row's.  A row whose system LAPACK
    finds exactly singular, where `circumsphere` raises, is made degenerate
    as well; each system is solved on its own, so no other row changes."""
    gram[deg] = np.eye(gram.shape[1])  # keeps the stacked solve nonsingular
    try:
        return np.linalg.solve(gram, rhs[..., None])[..., 0], deg
    except np.linalg.LinAlgError:
        return _gram_solve(gram, rhs, deg | np.array([_singular(g) for g in gram], dtype=bool))


def _singular(gram: np.ndarray) -> bool:
    """Whether `np.linalg.solve` rejects one Gram system as singular."""
    try:
        np.linalg.solve(gram, np.zeros(len(gram)))
    except np.linalg.LinAlgError:
        return True
    return False


def _degenerate(rel: np.ndarray, gram: np.ndarray, rel_eps: float) -> np.ndarray:
    """`circumsphere`'s test `sv[-1] <= rel_eps * sv[0]` on the singular
    values of each stacked `rel` (k = m-1 rows in R^d), with `gram` its
    computed rel @ rel.T.

    A row is certified independent, with no SVD, when its Gram eigenvalues
    give lam_min > (rel_eps^2 + C eps) lam_max with C = 4k(d + 4), and
    lam_max is far enough above underflow (tiny / eps) for relative error
    bounds to hold.  With s = sigma_max^2: forming the Gram matrix errs by
    at most gamma_d s per entry, so by k gamma_d s in norm, and LAPACK's
    bound on a computed symmetric eigenvalue is p(k) eps ||G|| (the Users'
    Guide takes p = 1; here p = k).  So each computed eigenvalue is within
    E eps s of sigma_i^2, E = k(d + 2)/2, and the computed singular values
    are within k eps sigma_max of the exact ones by the same bound.  A
    certified row has sigma_min^2 > (rel_eps^2 + (C - 2E - 1) eps) s, while
    the SVD test can hold only if sigma_min^2 <= (rel_eps^2 + (4k + 2) eps) s;
    C exceeds 2E + 4k + 3.  Only the other rows run the SVD.
    """
    k, d = rel.shape[1:]
    lam = np.linalg.eigvalsh(gram)
    certified = ((lam[:, 0] > (rel_eps**2 + 4 * k * (d + 4) * EPS) * lam[:, -1])
                 & (lam[:, -1] > np.finfo(float).tiny / EPS))
    deg = np.zeros(len(rel), dtype=bool)
    if not certified.all():
        sv = np.linalg.svd(rel[~certified], compute_uv=False)
        deg[~certified] = sv[:, -1] <= rel_eps * sv[:, 0]
    return deg


def _strictly_empty(pts: np.ndarray, sq: np.ndarray, idx: np.ndarray,
                    center: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per row: every point but the row's vertices has |p - center|^2 >=
    bound, each |p - center|^2 summed over the differences as
    `is_empty_sphere` does.

    A block of DISTANCE_BLOCK distances at a time takes the expanded form
    |p|^2 - 2 c.p + |c|^2 from one matrix product, as the (d+2)-term dot
    product of (-2c, 1, |c|^2) with (p, |p|^2, 1).  In units of
    (|p| + |c|)^2, the expanded form is within gamma_(d+2) + gamma_d of the
    exact value (the dot product, and the squared norms in it) and the
    difference form within gamma_(d+2) (a difference, a square and the
    additions).  So the two computed forms differ by less than
    band = 2(d + 3) (eps (max|p| + |c|)^2 + the smallest subnormal), which
    also covers rounding the band itself and any underflow.  An entry above
    the computed bound + band exceeds the exact sum, so it passes in the
    difference form too, and one below bound - band fails in both; the
    entries in between, and any nan, are computed again in the difference
    form.
    """
    d = pts.shape[1]
    csq = np.einsum("ij,ij->i", center, center)
    scale = (math.sqrt(sq.max()) + np.sqrt(csq)) ** 2
    band = 2 * (d + 3) * (EPS * scale + np.finfo(float).smallest_subnormal)
    above, below = bound + band, bound - band
    lhs = np.column_stack((-2.0 * center, np.ones(len(center)), csq))
    rhs = np.vstack((pts.T, sq, np.ones(len(pts))))
    empty = np.empty(len(center), dtype=bool)
    step = max(1, DISTANCE_BLOCK // len(pts))
    for lo in range(0, len(center), step):
        d2 = lhs[lo:lo + step] @ rhs
        ok = d2 > above[lo:lo + step, None]
        ok[np.arange(len(ok))[:, None], idx[lo:lo + step]] = True
        clear = ok.all(axis=1)
        unsure = np.flatnonzero(~clear)
        if len(unsure):
            rows, cols = np.nonzero(~(ok[unsure] | (d2[unsure] < below[lo + unsure, None])))
            rows = unsure[rows]
            diffs = pts[cols] - center[lo + rows]
            ok[rows, cols] = np.einsum("ij,ij->i", diffs, diffs) >= bound[lo + rows]
            clear[unsure] = ok[unsure].all(axis=1)
        empty[lo:lo + step] = clear
    return empty


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
    return not _violations(sphere, points, exclude, strict, tol).any()


def emptiness_violations(sphere: Sphere, points, exclude=(), strict: bool = True,
                         tol: Tolerance = DEFAULT_TOL) -> list[int]:
    """Indices of points that violate the emptiness predicate, ascending,
    for reporting."""
    return np.flatnonzero(_violations(sphere, points, exclude, strict, tol)).tolist()


def _violations(sphere: Sphere, points, exclude, strict: bool, tol: Tolerance) -> np.ndarray:
    """Per point: not excluded, and its squared distance to the center,
    summed over the differences as in the recheck of `circumspheres`, is
    not at least radius^2 + abs_eps (strict) or radius^2 - abs_eps."""
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    diffs = pts.reshape(-1, len(sphere.center)) - sphere.center
    r2 = sphere.radius**2
    bound = r2 + tol.abs_eps if strict else r2 - tol.abs_eps
    bad = ~(np.einsum("ij,ij->i", diffs, diffs) >= bound)
    for idx in exclude:
        bad[idx] = False
    return bad
