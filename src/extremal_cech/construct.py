"""Generators for the four extremal point-set families.

Each family places points on circles so that same-circle neighbors are close
("short" edges) while points on different circles sit at unit-ish distance
("long" edges):

* even kind: k concentric circles of radius sqrt(2)/2 in mutually orthogonal
  coordinate planes of R^{2k}, a regular n-gon on each;
* 3d kind: two linked unit circles in R^3, n+1 points on each, clustered
  within last-coordinate band [-delta, delta] around the other circle's
  center;
* odd kind: k+1 circles through the vertices of a regular unit-edge
  k-simplex, in R^{2k+1}, again with n+1 points per circle on the arc cut at
  last-coordinate +-delta;
* suspended kind: the odd set for one dimension lower embedded in a
  hyperplane, plus two apex points straddling it.

Construction metadata (circle id, index along circle) travels with the
points; the complex enumeration is driven entirely by these labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Tolerance, DEFAULT_TOL, squared_distance

__all__ = [
    "KIND_EVEN",
    "KIND_3D",
    "KIND_ODD",
    "KIND_SUSPENDED",
    "DeltaExhaustedError",
    "PointSet",
    "build_3d",
    "build_even",
    "build_odd",
    "build_suspended",
    "build_validated",
    "construction_labels",
    "default_delta",
    "half_edge",
    "load_points",
    "min_n",
    "save_points",
]

KIND_EVEN = "even"
KIND_3D = "3d"
KIND_ODD = "odd"
KIND_SUSPENDED = "suspended"

_KINDS = (KIND_EVEN, KIND_3D, KIND_ODD, KIND_SUSPENDED)

# Delta policy: start small, halve on downstream validation failure.
DELTA_HALVINGS = 12
DELTA_FLOOR = 1e-4


class DeltaExhaustedError(RuntimeError):
    """The halving controller ran out of candidate delta values."""


def regular_simplex_circumradius_sq(k: int) -> float:
    """Squared circumradius of the regular unit-edge k-simplex."""
    return k / (2.0 * (k + 1))


def regular_simplex_height_sq(k: int) -> float:
    """Squared vertex-to-opposite-facet height of the regular unit-edge k-simplex."""
    return (k + 1) / (2.0 * k)


def regular_simplex_inradius_gap_sq(k: int) -> float:
    """Squared distance from circumcenter to a facet's circumcenter."""
    return 1.0 / (2.0 * k * (k + 1))


@dataclass
class PointSet:
    """A labeled point cloud plus the parameters that generated it.

    labels[i] = (circle_id, index_on_circle); apexes of the suspended kind
    carry circle_id -1.
    """

    kind: str
    dim: int
    k: int
    n: int
    delta: float
    points: np.ndarray
    labels: np.ndarray
    h: float = 0.0
    apex_ids: tuple[int, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def n_circles(self) -> int:
        return _layout(self.kind, self.k, self.n)[0]

    @property
    def points_per_circle(self) -> int:
        return _layout(self.kind, self.k, self.n)[1]

    def circle_of(self, i: int) -> int:
        return int(self.labels[i, 0])

    def index_of(self, i: int) -> int:
        return int(self.labels[i, 1])

    def consecutive(self, i: int, j: int) -> bool:
        """True if points i and j are adjacent on the same circle.  Even-kind
        circles are full n-gons, so adjacency wraps around."""
        ci, cj = self.circle_of(i), self.circle_of(j)
        if ci != cj or ci < 0:
            return False
        a, b = self.index_of(i), self.index_of(j)
        if abs(a - b) == 1:
            return True
        return self.kind == KIND_EVEN and {a, b} == {0, self.n - 1}


def min_n(k: int) -> int:
    """Smallest n for which the edges of a regular n-gon inscribed in a
    circle of radius 1/sqrt(2) are strictly shorter than sqrt(2/k).

    The strictness guard keeps the exact-equality case (k=2, n=4, where the
    inscribed square has unit edges) on the rejected side.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    bound = 1.0 / math.sqrt(k)
    n = 3
    while not (math.sin(math.pi / n) < bound - 1e-12):
        n += 1
    return n


def _layout(kind: str, k: int, n: int) -> tuple[int, int, int]:
    """(circles, points per circle, apexes) of the kind's construction.  The
    suspended kind embeds the odd set for k-1, which has k circles."""
    if kind == KIND_EVEN:
        return k, n, 0
    circles = {KIND_3D: 2, KIND_ODD: k + 1, KIND_SUSPENDED: k}[kind]
    return circles, n + 1, 2 if kind == KIND_SUSPENDED else 0


def construction_labels(kind: str, k: int, n: int) -> np.ndarray:
    """The (circle_id, index_on_circle) rows of the kind's construction for
    k and n, in point order: circle by circle, then the suspended kind's two
    apexes (-1, 0) and (-1, 1)."""
    circles, per_circle, apexes = _layout(kind, k, n)
    rows = [(c, t) for c in range(circles) for t in range(per_circle)]
    rows += [(-1, a) for a in range(apexes)]
    return np.array(rows, dtype=int).reshape(-1, 2)


def build_even(k: int, n: int) -> PointSet:
    """n points on each of k orthogonal-plane circles of radius sqrt(2)/2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 3:
        raise ValueError("n must be >= 3")
    d = 2 * k
    rad = math.sqrt(2.0) / 2.0
    pts = np.zeros((k * n, d))
    for ell in range(k):
        for t in range(n):
            angle = 2.0 * math.pi * t / n
            i = ell * n + t
            pts[i, 2 * ell] = rad * math.cos(angle)
            pts[i, 2 * ell + 1] = rad * math.sin(angle)
    return PointSet(KIND_EVEN, d, k, n, 0.0, pts, construction_labels(KIND_EVEN, k, n))


def build_3d(n: int, delta: float) -> PointSet:
    """Two linked unit circles in R^3 with n+1 points on each short arc.

    The a-points live on the circle around (-1/2, 0, 0) in the z=0 plane,
    starting at (-1/2 + sqrt(1 - delta^2), -delta, 0); the b-points mirror
    them on the circle around (1/2, 0, 0) in the y=0 plane.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    cut = math.asin(delta)
    pts = np.zeros((2 * (n + 1), 3))
    for t in range(n + 1):
        phi = -cut + t * (2.0 * cut / n)
        pts[t] = (-0.5 + math.cos(phi), math.sin(phi), 0.0)
        pts[(n + 1) + t] = (0.5 - math.cos(phi), 0.0, math.sin(phi))
    return PointSet(KIND_3D, 3, 1, n, delta, pts, construction_labels(KIND_3D, 1, n))


def _sum_zero_basis(m: int) -> np.ndarray:
    # Helmert rows: an orthonormal basis of {x in R^m : sum x = 0}
    basis = np.zeros((m - 1, m))
    for i in range(1, m):
        basis[i - 1, :i] = 1.0
        basis[i - 1, i] = -i
        basis[i - 1] /= math.sqrt(i * (i + 1))
    return basis


def simplex_vertices(k: int) -> np.ndarray:
    """Vertices of a regular unit-edge k-simplex in R^k, barycenter at the
    origin.  Canonical: the scaled standard simplex mapped isometrically."""
    return _sum_zero_basis(k + 1).T / math.sqrt(2.0)


def build_odd(k: int, n: int, delta: float) -> PointSet:
    """(k+1)(n+1) points on the circles through the vertices of a regular
    k-simplex in R^{2k+1}, each circle cut at last-coordinate +-delta."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 2:
        raise ValueError("n must be >= 2")
    height = math.sqrt(regular_simplex_height_sq(k))
    if not (0.0 < delta < height):
        raise ValueError(f"delta must lie in (0, {height})")
    d = 2 * k + 1
    verts = simplex_vertices(k)  # (k+1, k)
    cut = math.asin(delta / height)
    pts = np.zeros(((k + 1) * (n + 1), d))
    for ell in range(k + 1):
        u = verts[ell]
        v = -u / k  # barycenter of the opposite facet
        w = (u - v) / height
        for t in range(n + 1):
            theta = -cut + t * (2.0 * cut / n)
            i = ell * (n + 1) + t
            pts[i, :k] = v + height * math.cos(theta) * w
            pts[i, k + ell] = height * math.sin(theta)
    return PointSet(KIND_ODD, d, k, n, delta, pts, construction_labels(KIND_ODD, k, n))


def build_suspended(k: int, n: int, delta: float, h: float) -> PointSet:
    """The odd set for dimension 2k-1 embedded in the hyperplane x_{2k} = 0
    of R^{2k}, plus two apex points at (0, ..., 0, +-h)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if h <= 0.0:
        raise ValueError("h must be positive")
    base = build_odd(k - 1, n, delta)
    d = 2 * k
    n_base = len(base)
    pts = np.zeros((n_base + 2, d))
    pts[:n_base, : d - 1] = base.points
    pts[n_base, d - 1] = h
    pts[n_base + 1, d - 1] = -h
    return PointSet(KIND_SUSPENDED, d, k, n, delta, pts,
                    construction_labels(KIND_SUSPENDED, k, n), h=h,
                    apex_ids=(n_base, n_base + 1))


def half_edge(ps: PointSet) -> float:
    """Half-length of the edge between consecutive same-circle points.

    For the even kind this is the closed form s = (sqrt(2)/2) sin(pi/n);
    otherwise it is measured from the coordinates.
    """
    if ps.kind == KIND_EVEN:
        return math.sqrt(2.0) / 2.0 * math.sin(math.pi / ps.n)
    first = np.flatnonzero(ps.labels[:, 0] == 0)[:2]
    return 0.5 * math.sqrt(squared_distance(ps.points[first[0]], ps.points[first[1]]))


@dataclass(frozen=True)
class ConstructionScales:
    """The scale parameters a construction is analyzed in terms of: the
    half short-edge lengths and the regular-simplex circumradius, height
    and circumcenter-to-facet gap (all squared) for the circle count."""

    half_short_edge: float
    circumradius_sq: float
    height_sq: float
    center_gap_sq: float


def scales(ps: PointSet) -> ConstructionScales:
    k = 1 if ps.kind == KIND_3D else ps.k
    if ps.kind == KIND_SUSPENDED:
        k = ps.k - 1
    return ConstructionScales(
        half_short_edge=half_edge(ps),
        circumradius_sq=regular_simplex_circumradius_sq(k),
        height_sq=regular_simplex_height_sq(k),
        center_gap_sq=regular_simplex_inradius_gap_sq(k),
    )


def default_delta(n: int) -> float:
    return min(1e-2, 1e-1 / n)


def delta_candidates(n: int, delta="auto"):
    """The sequence the halving controller tries: either the single explicit
    value, or the default followed by up to DELTA_HALVINGS halvings, floored
    at DELTA_FLOOR to stay clear of double-precision noise."""
    if delta != "auto":
        return [float(delta)]
    out = [default_delta(n)]
    for _ in range(DELTA_HALVINGS):
        nxt = out[-1] / 2.0
        if nxt < DELTA_FLOOR:
            break
        out.append(nxt)
    return out


def build_validated(kind: str, k: int | None = None, n: int | None = None,
                    delta="auto", tol: Tolerance = DEFAULT_TOL):
    """Build a point set together with a validated filtration and thresholds.

    For the delta-bearing kinds the controller halves delta (policy above)
    until the filtration passes radius-class separation and the criticality
    check; this function is the single authority for retries.  Returns
    (point_set, filtered_complex, thresholds).
    """
    from . import complexgen  # deferred: complexgen imports this module

    if kind == KIND_EVEN:
        ps = build_even(k, n)
        fc = complexgen.build_filtration(ps, tol=tol)
        thresholds = complexgen.pick_thresholds(fc)
        report = complexgen.criticality_check(ps, fc, tol=tol)
        if report.failures:
            raise RuntimeError(f"even construction failed criticality: {report.failures[:3]}")
        return ps, fc, thresholds

    if kind not in (KIND_3D, KIND_ODD):
        raise ValueError(f"build_validated does not handle kind {kind!r}")

    last_error = None
    for cand in delta_candidates(n, delta):
        ps = build_3d(n, cand) if kind == KIND_3D else build_odd(k, n, cand)
        try:
            fc = complexgen.build_filtration(ps, tol=tol)
            thresholds = complexgen.pick_thresholds(fc)
        except (complexgen.NotCriticalError, complexgen.OverlapError) as exc:
            last_error = exc
            continue
        report = complexgen.criticality_check(ps, fc, tol=tol)
        if report.failures:
            last_error = RuntimeError(f"criticality failures at delta={cand}")
            continue
        return ps, fc, thresholds
    raise DeltaExhaustedError(
        f"no delta in {delta_candidates(n, delta)} validated for kind={kind}, "
        f"k={k}, n={n}: {last_error}"
    )


# ---------------------------------------------------------------------------
# point-set file format: header `# kind,d,k,n,delta,h`, then one row per
# point `circle_id,index_on_circle,x_1,...,x_d` at 17 significant digits.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_points(ps: PointSet, path) -> None:
    lines = [f"# {ps.kind},{ps.dim},{ps.k},{ps.n},{_fmt(ps.delta)},{_fmt(ps.h)}"]
    for i in range(len(ps)):
        coords = ",".join(_fmt(c) for c in ps.points[i])
        lines.append(f"{ps.labels[i, 0]},{ps.labels[i, 1]},{coords}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_points(path) -> PointSet:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError("missing point-set header line")
    kind, d, k, n, delta, h = lines[0][1:].strip().split(",")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    d, k, n = int(d), int(k), int(n)
    rows = [ln.split(",") for ln in lines[1:]]
    pts = np.array([[float(c) for c in row[2:]] for row in rows])
    labels = np.array([[int(row[0]), int(row[1])] for row in rows], dtype=int)
    if pts.shape != (len(rows), d):
        raise ValueError("row width does not match header dimension")
    nonfinite = np.flatnonzero(~np.all(np.isfinite(pts), axis=1))
    if nonfinite.size:
        i = int(nonfinite[0])
        raise ValueError(f"{path} row {i + 1} after the header has a non-finite "
                         f"coordinate: {','.join(rows[i])}")
    # count before listing the labels, so a huge k or n in the header fails fast
    circles, per_circle, apexes = _layout(kind, k, n)
    n_expected = max(circles, 0) * max(per_circle, 0) + apexes
    header = f"kind={kind} k={k} n={n}"
    if len(labels) != n_expected:
        raise ValueError(f"{path} holds {len(labels)} points, but its header "
                         f"{header} has {n_expected}")
    expected = construction_labels(kind, k, n)
    bad = np.flatnonzero(np.any(labels != expected, axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path} labels point {i} {tuple(labels[i].tolist())}, but its "
                         f"header {header} gives it {tuple(expected[i].tolist())}")
    apex_ids = tuple(int(i) for i in np.flatnonzero(labels[:, 0] == -1))
    return PointSet(kind, d, k, n, float(delta), pts, labels, h=float(h),
                    apex_ids=apex_ids)
