"""Floating-point geometric kernel.

Distances, smallest enclosing balls, circumspheres, barycentric
interiority and the strict empty-sphere test, all in 64-bit arithmetic with
fixed tolerances.  Every circumsphere, `circumsphere`'s one included, comes
from one batched kernel, `circumspheres`, which takes one block of vertex
ids of one size and gives each row's center, radius, degeneracy,
interiority and first point inside, in row order.  Its emptiness test,
`_first_inside`, is the only one, and `is_empty_sphere` is its one-row
case.  The kernel puts filters in front of two of its tests, as in
Shewchuk's filtered predicates (Adaptive precision floating-point
arithmetic and fast robust geometric predicates, DCG 1997).  Emptiness
is read first from an expanded-form distance, and only an entry within a
forward-error band of the bound is computed again from differences.
Non-degeneracy is certified first by a batched Cholesky factorization of
each shifted Gram matrix, and only a row it cannot certify runs the SVD
test.  So every verdict is the plain
floating-point test's; no predicate is decided in exact arithmetic.

The slacks live here and nowhere else: every predicate reads the one
record `DEFAULT_TOL`, no function takes a tolerance, and the other modules
read `DEFAULT_TOL.abs_eps` where they compare radii.  So a change of how a
slack is decided is a change to this module alone.  The fixed slacks are
not safe at every size: on the 3d family the smallest strict-emptiness
clearance is 2(delta/n)^2, which at the default delta = 0.1/n falls below
abs_eps = 1e-12 from n ~ 376.

Every function is pure and thread-safe.  The one piece of state, the
`functools.lru_cache` of `min_enclosing_ball`'s boundary solves (4096
boundaries, least recently used out first), changes no result: a hit
returns what the same boundary bytes gave on the miss.
"""

from __future__ import annotations

import functools
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
    "degeneracy_reason",
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
    """The type of `DEFAULT_TOL`, the one record of the numerical slacks.
    Every predicate reads that instance and takes no other; the other
    modules read its abs_eps where they compare radii.

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


@functools.lru_cache(maxsize=1 << 12)
def _memo_ball_through(shape: tuple[int, ...], data: bytes) -> Sphere:
    """`_ball_through` of the float boundary of this shape and these bytes,
    memoized (see `min_enclosing_ball`); a memoized center is read-only."""
    ball = _ball_through(np.frombuffer(data).reshape(shape))
    ball.center.flags.writeable = False
    return ball


def min_enclosing_ball(points) -> Sphere:
    """Smallest ball containing all the points (miniball).

    Recursive move-to-front Welzl scheme processed in input order; no
    randomization, so results are reproducible bit for bit.  A point counts
    as inside when its squared distance exceeds r^2 by at most
    abs_eps * min(1, r^2): an absolute slack alone would put two points
    up to sqrt(abs_eps) apart inside a ball of radius 0.

    Processing in input order, the call on a set replays every boundary
    solve of the call on its prefix, so the solves go through one
    `lru_cache` of 4096 boundaries, least recently used out first.  A hit
    returns the sphere the same boundary bytes gave before, so the memo
    changes no result, and the returned center is the caller's own copy.
    """
    pts = _as_matrix(points)
    d = pts.shape[1]
    order = list(range(len(pts)))

    def inside_limit(ball: Sphere | None) -> float:
        """Largest squared distance from the center that counts as inside."""
        if ball is None:
            return -math.inf
        r2 = ball.radius**2
        return r2 + DEFAULT_TOL.abs_eps * min(1.0, r2)

    def recurse(end: int, boundary: list) -> Sphere | None:
        block = np.asarray(boundary)
        ball = _memo_ball_through(block.shape, block.tobytes()) if boundary else None
        if len(boundary) == d + 1:
            return ball
        limit = inside_limit(ball)
        i = 0
        while i < end:
            p = pts[order[i]]
            # `squared_distance`'s arithmetic, without its conversions and checks
            if ball is None or float(np.dot(diff := p - ball.center, diff)) > limit:
                ball = recurse(i, boundary + [p])
                limit = inside_limit(ball)
                order.insert(0, order.pop(i))
            i += 1
        return ball

    ball = recurse(len(order), [])
    assert ball is not None
    return Sphere(ball.center.copy(), ball.radius)


def circumsphere(points) -> Sphere:
    """Smallest sphere through all the points, center in their affine hull:
    the one-row case of `circumspheres`, bit for bit.  Degenerate input is
    rejected with AffineDegeneracyError (see `degeneracy_reason`)."""
    pts = _as_matrix(points)
    batch = circumspheres(pts, np.arange(len(pts))[None])
    if batch.degenerate[0]:
        raise AffineDegeneracyError(degeneracy_reason(pts))
    return Sphere(batch.center[0], float(batch.radius[0]))


def degeneracy_reason(points) -> str:
    """Why `circumspheres` finds a simplex with these vertices degenerate:
    too many points, the SVD test, or else a singular Gram system."""
    pts = _as_matrix(points)
    m, d = pts.shape
    if m > d + 1:
        return f"{m} points cannot be affinely independent in R^{d}"
    rel = (pts[1:] - pts[0])[None]
    if _degenerate(rel, rel @ rel.transpose(0, 2, 1), DEFAULT_TOL.rel_eps)[0]:
        return "points are affinely dependent beyond tolerance"
    return "Gram system is numerically singular"


# Entries of one point-to-center distance block in `circumspheres`; bounds
# the temporary arrays so memory grows with the complex, not its square.
DISTANCE_BLOCK = 8192

EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, eq=False)
class SphereBatch:
    """Per-simplex circumsphere data of one block, in its row order.

    center (b, d) is the circumcenter and radius its largest vertex
    distance; interior says every barycentric coordinate of the center
    exceeds interior_eps; offender is the lowest id of a point other than
    the simplex's own vertices that is not strictly outside the sphere, its
    squared distance to the center, summed over the differences, below
    radius^2 + abs_eps, or -1.  degenerate is the SVD test of
    `_degenerate`, a Gram system the solve finds singular, or a block of
    no ids or of more than d+1 ids; there center and radius are nan,
    interior is False and offender is -1.
    """

    center: np.ndarray
    radius: np.ndarray
    degenerate: np.ndarray
    interior: np.ndarray
    offender: np.ndarray

    @property
    def empty(self) -> np.ndarray:
        """Every point but the simplex's vertices strictly outside."""
        return (self.offender < 0) & ~self.degenerate

    @property
    def critical(self) -> np.ndarray:
        """Circumcenter interior and circumsphere strictly empty."""
        return self.interior & self.empty


def circumspheres(points, idx) -> SphereBatch:
    """Circumspheres of the b simplices of one size m whose vertex ids are
    the rows of the (b, m) int block `idx`, in row order.

    `points` may be a PointSet or a coordinate array.  The Gram systems are
    solved in one stacked call, and their solution coefficients are the
    barycentric coordinates of the circumcenter.  The interior test is
    `barycentric_interior`'s, with the same tolerance, and the emptiness
    test `_first_inside`, which `is_empty_sphere` runs on one sphere; the
    filters of `_degenerate` and `_first_inside` change no verdict.  A
    block of empty simplices or of more than d+1 points comes back all
    degenerate; simplices of several sizes take a block, and a call, each.
    """
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    idx = np.asarray(idx, dtype=np.intp)
    (b, m), d = idx.shape, pts.shape[1]
    if not 1 <= m <= d + 1:
        return SphereBatch(np.full((b, d), np.nan), np.full(b, np.nan), np.ones(b, dtype=bool),
                           np.zeros(b, dtype=bool), np.full(b, -1, dtype=np.intp))
    verts = np.take(pts, idx, axis=0)  # pts[idx], without the slower row indexing
    if m == 1:
        deg = np.zeros(b, dtype=bool)
        center = verts[:, 0]
        r2 = np.zeros(b)
        inside = np.ones(b, dtype=bool)
    else:
        rel = verts[:, 1:] - verts[:, :1]
        gram = rel @ rel.transpose(0, 2, 1)
        rhs = 0.5 * np.einsum("bij,bij->bi", rel, rel)
        alpha, deg = _gram_solve(gram, rhs, _degenerate(rel, gram, DEFAULT_TOL.rel_eps))
        center = verts[:, 0] + np.einsum("bi,bij->bj", alpha, rel)
        diffs = verts - center[:, None]
        r2 = functools.reduce(np.maximum, np.einsum("bij,bij->bi", diffs, diffs).T)
        total, lowest = _row_sums(alpha), functools.reduce(np.minimum, alpha.T)
        interior_eps = DEFAULT_TOL.interior_eps
        inside = (1.0 - total > interior_eps) & (lowest > interior_eps) & ~deg
    sq = np.einsum("ij,ij->i", pts, pts)
    offender = _first_inside(pts, sq, idx, center, r2 + DEFAULT_TOL.abs_eps)
    center[deg], r2[deg], offender[deg] = np.nan, np.nan, -1
    return SphereBatch(center, np.sqrt(r2), deg, inside, offender)


def _row_sums(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=1)` of a (b, k) array bit for bit, by one pass per
    column where that is numpy's order: it adds fewer than 8 terms in
    order, and more in pairs.  A pass per row of a few terms is the slow
    way through numpy."""
    return functools.reduce(np.add, a.T) if a.shape[1] < 8 else a.sum(axis=1)


def _gram_solve(gram: np.ndarray, rhs: np.ndarray, deg: np.ndarray):
    """(alpha, deg): the stacked Gram systems solved in one call, with the
    identity in place of each degenerate row's.  A row whose system LAPACK
    finds exactly singular is made degenerate as well; each system is
    solved on its own, so no other row changes."""
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
    """The degeneracy test `sv[-1] <= rel_eps * sv[0]` on the singular
    values of each stacked `rel` (k = m-1 rows in R^d), with `gram` its
    computed rel @ rel.T.

    A row is certified independent, with no SVD, when the Cholesky
    factorization of A = G - s I, s = c tr(G) with c = rel_eps^2 + C eps
    and C = 8k(d + 4), finds every pivot > 0, and tr(G) is far enough above
    underflow (tiny / eps) for relative error bounds to hold.  Write G0 for
    the exact rel @ rel.T and T = tr(G0) >= sigma_max^2, and bound gamma_n
    by n eps.  Forming G errs by at most gamma_d |rel||rel|^T entrywise, so
    by d eps T in norm, and tr(G) by as much.  Subtracting s rounds each
    diagonal entry by at most eps tr(G).  A successful factorization gives
    R^T R = A + dA with |dA| <= gamma_(k+1) |R^T||R| (Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 10.3), so ||dA|| is at most
    gamma_(k+1) ||R||_F^2, about (k + 1) eps tr(G), while A + dA is positive
    definite.  So lam_min(G) > s - (k + 2) eps tr(G), and with the computed
    s >= c (1 - (k + 2) eps) tr(G) and c <= 1 (a larger c certifies
    nothing), sigma_min^2 = lam_min(G0) > (rel_eps^2 + (C - 2(k + d + 2)) eps) T
    up to eps^2 terms.  The computed singular values are within
    k eps sigma_max of the exact ones (LAPACK's bound p(k) eps ||rel||
    with p = k), so the SVD test can hold only if
    sigma_min^2 <= (rel_eps^2 + (4k + 2) eps) T.  Certifying soundly needs
    C > 6k + 2d + 6; C = 8k(d + 4) leaves a wide margin, since p = k is a
    convention, not a proven bound.  A nan or inf pivot is not > 0, so an
    overflowing row reaches the SVD, as does every uncertified row.
    """
    k, d = rel.shape[1:]
    trace = _row_sums(np.diagonal(gram, axis1=1, axis2=2))
    shift = (rel_eps**2 + 8 * k * (d + 4) * EPS) * trace
    certified = (trace > np.finfo(float).tiny / EPS) & _positive_pivots(gram, shift)
    deg = np.zeros(len(rel), dtype=bool)
    if not certified.all():
        sv = np.linalg.svd(rel[~certified], compute_uv=False)
        deg[~certified] = sv[:, -1] <= rel_eps * sv[:, 0]
    return deg


def _positive_pivots(a: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Per stacked symmetric matrix a and number s of `shift`: whether the
    Cholesky factorization a - s I = L L^T, one column at a time over the
    whole stack, finds every pivot > 0.  Each diagonal entry is shifted
    where its pivot is formed, so a is not copied.  A row that fails goes
    on with nan or inf entries and stays failed."""
    k = a.shape[1]
    low = np.zeros_like(a)
    ok = np.ones(len(a), dtype=bool)
    with np.errstate(all="ignore"):
        for j in range(k):
            row = low[:, j, :j]
            pivot = a[:, j, j] - shift - np.einsum("bp,bp->b", row, row)
            ok &= pivot > 0.0
            low[:, j, j] = root = np.sqrt(pivot)
            low[:, j + 1:, j] = (a[:, j + 1:, j]
                                 - np.einsum("bip,bp->bi", low[:, j + 1:, :j], row)) / root[:, None]
    return ok


def _first_inside(pts: np.ndarray, sq: np.ndarray, idx: np.ndarray,
                  center: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Per row: the lowest id of a point other than the row's vertices with
    |p - center|^2 < bound, each |p - center|^2 summed over the differences
    (the difference form), or -1 if there is none.

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
    first = np.full(len(center), -1, dtype=np.intp)
    step = max(1, DISTANCE_BLOCK // len(pts))
    for lo in range(0, len(center), step):
        d2 = lhs[lo:lo + step] @ rhs
        ok = d2 > above[lo:lo + step, None]
        ok[np.arange(len(ok))[:, None], idx[lo:lo + step]] = True
        if ok.all():  # the usual block: one pass, not one per row
            continue
        unsure = np.flatnonzero(~ok.all(axis=1))
        rows, cols = np.nonzero(~(ok[unsure] | (d2[unsure] < below[lo + unsure, None])))
        rows = unsure[rows]
        diffs = pts[cols] - center[lo + rows]
        ok[rows, cols] = np.einsum("ij,ij->i", diffs, diffs) >= bound[lo + rows]
        bad = unsure[~ok[unsure].all(axis=1)]
        first[lo + bad] = np.argmin(ok[bad], axis=1)
    return first


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


def barycentric_coordinates(simplex_points, x) -> np.ndarray:
    """Barycentric coordinates of x with respect to an affinely independent
    simplex.  Raises if x is farther from the affine hull than
    rel_eps * diameter."""
    pts = _as_matrix(simplex_points)
    x = np.asarray(x, dtype=float)
    m = len(pts)
    if m == 1:
        resid = math.sqrt(squared_distance(x, pts[0]))
        if resid > DEFAULT_TOL.abs_eps:
            raise ValueError("point is not in the affine hull of the simplex")
        return np.array([1.0])
    basis = (pts[1:] - pts[0]).T
    sv = np.linalg.svd(basis, compute_uv=False)
    if sv[-1] <= DEFAULT_TOL.rel_eps * sv[0]:
        raise AffineDegeneracyError("simplex is affinely degenerate")
    coeff, *_ = np.linalg.lstsq(basis, x - pts[0], rcond=None)
    resid = float(np.linalg.norm(basis @ coeff - (x - pts[0])))
    diam = math.sqrt(max(squared_distance(p, q) for p in pts for q in pts))
    if resid > max(DEFAULT_TOL.abs_eps, DEFAULT_TOL.rel_eps * diam):
        raise ValueError("point is not in the affine hull of the simplex")
    return np.concatenate([[1.0 - float(np.sum(coeff))], coeff])


def barycentric_interior(simplex_points, x) -> bool:
    """True iff every barycentric coordinate of x exceeds interior_eps."""
    coords = barycentric_coordinates(simplex_points, x)
    return bool(np.all(coords > DEFAULT_TOL.interior_eps))


def is_empty_sphere(sphere: Sphere, points, exclude=()) -> bool:
    """Whether every point but those indexed by `exclude` lies strictly
    outside the sphere: its squared distance to the center, summed over the
    differences, at least radius^2 + abs_eps.  The one-row case of the
    emptiness test of `circumspheres`, `_first_inside`.  `points` may be a
    PointSet or a coordinate array; an empty one gives True.
    """
    center = np.asarray(sphere.center, dtype=float)
    pts = np.asarray(getattr(points, "points", points), dtype=float).reshape(-1, len(center))
    if not len(pts):
        return True
    idx = np.asarray(exclude, dtype=np.intp).reshape(1, -1)
    bound = np.array([sphere.radius**2 + DEFAULT_TOL.abs_eps])
    sq = np.einsum("ij,ij->i", pts, pts)
    return bool(_first_inside(pts, sq, idx, center[None], bound)[0] < 0)
