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

A `PointSet` holds the parameters and the coordinates, nothing else: the
layout (circle id and index along the circle of each point, the suspended
kind's two apexes last) is a function of kind, k and n, and `PointSet`
derives it.  The labels are what a point file stores and what `load_points`
checks against its header.

`build` is the one dispatch from a kind, k, n, delta and h to its point
set, and the one place that knows which of k, delta and h a kind reads;
`validate` is the one step from a point set, constructed or loaded, to its
validated filtration and thresholds; `build_validated` is the two in turn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .geometry import DEFAULT_TOL, squared_distance

__all__ = [
    "KIND_EVEN",
    "KIND_3D",
    "KIND_ODD",
    "KIND_SUSPENDED",
    "PointSet",
    "EVEN_RADIUS",
    "KINDS",
    "MAX_SIMPLICES",
    "MOSAIC_KINDS",
    "build",
    "build_3d",
    "build_even",
    "build_odd",
    "build_suspended",
    "build_validated",
    "check_below_even_top",
    "class_table",
    "construction_labels",
    "default_delta",
    "half_edge",
    "load_points",
    "min_n",
    "mosaic_size",
    "save_points",
    "validate",
]

KIND_EVEN = "even"
KIND_3D = "3d"
KIND_ODD = "odd"
KIND_SUSPENDED = "suspended"

KINDS = (KIND_EVEN, KIND_3D, KIND_ODD, KIND_SUSPENDED)
# the kinds whose mosaic the enumeration builds
MOSAIC_KINDS = (KIND_EVEN, KIND_3D, KIND_ODD)

# The radius of the even kind's circles.  All even points lie on the sphere
# of this radius about the origin, so conv(A), the top cell the even mosaic
# leaves out, enters the filtration at this value.
EVEN_RADIUS = math.sqrt(2.0) / 2.0

# The most simplices one build may hold.  The ladder's peak RSS is about
# 900 bytes a simplex, so 2^22 is about 4 GB.  It admits 3d up to n = 1023,
# even k=5 up to n = 10 and odd k=3 up to n = 21, and no even k=6 at or
# above min_n(6) = 8.
MAX_SIMPLICES = 1 << 22


def regular_simplex_circumradius_sq(k: int) -> float:
    """Squared circumradius of the regular unit-edge k-simplex."""
    return k / (2.0 * (k + 1))


def regular_simplex_height_sq(k: int) -> float:
    """Squared vertex-to-opposite-facet height of the regular unit-edge k-simplex."""
    return (k + 1) / (2.0 * k)


def regular_simplex_inradius_gap_sq(k: int) -> float:
    """Squared distance from circumcenter to a facet's circumcenter."""
    return 1.0 / (2.0 * k * (k + 1))


@dataclass(frozen=True, eq=False)
class PointSet:
    """The parameters that generated a point set, and its coordinates; dim
    and labels[i] = (circle_id, index_on_circle) are derived.  The suspended
    kind's apexes are the last two points, with circle_id -1."""

    kind: str
    k: int
    n: int
    delta: float
    points: np.ndarray
    h: float = 0.0

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def labels(self) -> np.ndarray:
        return construction_labels(self.kind, self.k, self.n)

    @property
    def n_circles(self) -> int:
        return _layout(self.kind, self.k, self.n)[0]

    @property
    def points_per_circle(self) -> int:
        return _layout(self.kind, self.k, self.n)[1]


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


def class_table(kind: str, k: int, n: int) -> list[tuple]:
    """The (touch, short, dim, count, radius) rows of the classes of the
    mosaic of an even, 3d or odd point set for k and n, in class order.

    C circles carry P points and n consecutive pairs each, so class (t, s)
    holds C(C, t+1) C(t+1, s+1) P^(t-s) n^(s+1) simplices of dimension
    t+s+1.  On the even kind, with half edge eps and sin^2 = sin(pi/n)^2 =
    2 eps^2, their circumradius r has r^2 = 1/2 - 1/(2(t - s + (s+1)/(1 -
    2 eps^2))) = (t - (t-s-1) sin^2) / (2(t+1 - (t-s) sin^2)), the last
    form free of cancellation at large n.  Radius is None on the other
    kinds and below the n = 3 that `build_even` needs."""
    circles, points, _ = _layout(kind, k, n)
    sin2 = math.sin(math.pi / n) ** 2 if kind == KIND_EVEN and n >= 3 else None
    return [(t, s, t + s + 1,
             math.comb(circles, t + 1) * math.comb(t + 1, s + 1) * points ** (t - s) * n ** (s + 1),
             None if sin2 is None
             else math.sqrt((t - (t - s - 1) * sin2) / (2 * (t + 1 - (t - s) * sin2))))
            for t in range(circles) for s in range(-1, t + 1)]


def mosaic_size(kind: str, k: int, n: int) -> int:
    """The number of simplices of a mosaic: the sum of its `class_table` counts."""
    return sum(count for _, _, _, count, _ in class_table(kind, k, n))


def _check_mosaic_size(kind: str, k: int | None, n: int | None) -> None:
    """Raise ValueError, naming the count, if the mosaic of kind, k and n
    has more than MAX_SIMPLICES simplices.  A missing k or n, a k or n below
    1 and a kind other than even, 3d or odd, which `build` names, pass."""
    k = 1 if kind == KIND_3D else k
    if kind not in MOSAIC_KINDS or k is None or n is None or min(k, n) < 1:
        return
    circles, per_circle, _ = _layout(kind, k, n)
    options = 1 + per_circle + n
    # the table is formed only where options^circles - 1 is small, so a huge k fails fast
    if circles * math.log2(options) > 64:
        count = f"{options}^{circles} - 1"
    elif (count := mosaic_size(kind, k, n)) <= MAX_SIMPLICES:
        return
    raise ValueError(f"kind={kind} k={k} n={n}: the mosaic has {count} simplices, "
                     f"more than the {MAX_SIMPLICES} one build may hold")


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
    pts = np.zeros((k * n, 2 * k))
    for ell in range(k):
        for t in range(n):
            angle = 2.0 * math.pi * t / n
            i = ell * n + t
            pts[i, 2 * ell] = EVEN_RADIUS * math.cos(angle)
            pts[i, 2 * ell + 1] = EVEN_RADIUS * math.sin(angle)
    return PointSet(KIND_EVEN, k, n, 0.0, pts)


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
    return PointSet(KIND_3D, 1, n, delta, pts)


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
    verts = simplex_vertices(k)  # (k+1, k)
    cut = math.asin(delta / height)
    pts = np.zeros(((k + 1) * (n + 1), 2 * k + 1))
    for ell in range(k + 1):
        u = verts[ell]
        v = -u / k  # barycenter of the opposite facet
        w = (u - v) / height
        for t in range(n + 1):
            theta = -cut + t * (2.0 * cut / n)
            i = ell * (n + 1) + t
            pts[i, :k] = v + height * math.cos(theta) * w
            pts[i, k + ell] = height * math.sin(theta)
    return PointSet(KIND_ODD, k, n, delta, pts)


def build_suspended(k: int, n: int, delta: float, h: float) -> PointSet:
    """The odd set for dimension 2k-1 embedded in the hyperplane x_{2k} = 0
    of R^{2k}, plus two apex points at (0, ..., 0, +-h)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if h is None or not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, not {h!r}")
    base = build_odd(k - 1, n, delta).points
    pts = np.zeros((len(base) + 2, 2 * k))
    pts[:-2, :-1] = base
    pts[-2:, -1] = (h, -h)
    return PointSet(KIND_SUSPENDED, k, n, delta, pts, h)


def half_edge(ps: PointSet) -> float:
    """Half-length of the edge between consecutive same-circle points.

    For the even kind this is the closed form s = (sqrt(2)/2) sin(pi/n);
    otherwise it is measured between points 0 and 1, the first two of
    circle 0.
    """
    if ps.kind == KIND_EVEN:
        return EVEN_RADIUS * math.sin(math.pi / ps.n)
    return 0.5 * math.sqrt(squared_distance(ps.points[0], ps.points[1]))


def default_delta(n: int) -> float:
    """The delta of `build_validated(..., delta="auto")`, 0.1/n capped at
    0.01; n below 2 is refused as the delta-bearing builders refuse it."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return min(1e-2, 1e-1 / n)


def check_below_even_top(kind: str, radius: float) -> None:
    """For the even kind, raise ValueError unless `radius` lies below
    `EVEN_RADIUS` less `abs_eps`; every other kind passes.  From there on
    conv(A), which the even mosaic leaves out, would fill the
    (2k-1)-sphere, so the mosaic's Betti numbers are not those of the union
    of balls."""
    if kind == KIND_EVEN and radius >= EVEN_RADIUS - DEFAULT_TOL.abs_eps:
        raise ValueError(f"radius {radius!r} is not below the even top-cell value "
                         f"sqrt(2)/2 less abs_eps")


def build(kind: str, k: int | None, n: int, delta="auto", h: float | None = None) -> PointSet:
    """The point set of `kind` for k and n, unvalidated.  The delta-bearing
    kinds are built at `default_delta(n)` for delta="auto", else at the
    given delta, and the suspended kind at h=0.5 for h=None.

    A parameter the kind does not read is refused, with ValueError naming
    it: a k other than None or 1 for the 3d kind, a missing k for any
    other, a missing n, a delta other than "auto" for the even kind, and
    an h for any kind but suspended."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == KIND_3D and k not in (None, 1):
        raise ValueError(f"k={k} is not 1, the only k of kind 3d")
    if kind != KIND_3D and k is None:
        raise ValueError(f"k is required for kind {kind}")
    if n is None:
        raise ValueError(f"n is required for kind {kind}")
    if kind == KIND_EVEN and delta != "auto":
        raise ValueError(f"delta={delta!r} is given, but kind even has no delta")
    if kind != KIND_SUSPENDED and h is not None:
        raise ValueError(f"h={h!r} is given, but only kind suspended has an apex height")
    if kind == KIND_EVEN:
        return build_even(k, n)
    delta = default_delta(n) if delta == "auto" else float(delta)
    if kind == KIND_3D:
        return build_3d(n, delta)
    if kind == KIND_ODD:
        return build_odd(k, n, delta)
    return build_suspended(k, n, delta, 0.5 if h is None else h)


def validate(ps: PointSet):
    """The filtration and thresholds of a point set, constructed or loaded.

    The build refuses a mosaic over MAX_SIMPLICES simplices (ValueError),
    proves every simplex critical or raises NotCriticalError, and
    `pick_thresholds` separates the radius classes or raises OverlapError.
    Either of the last two names the set, `kind=... k=... n=...` and for
    the delta-bearing kinds ` at delta=...`, before the build's own
    message (the simplex and the offender).  Returns (filtered_complex,
    thresholds).
    """
    from . import complexgen  # deferred: complexgen imports this module

    try:
        fc = complexgen.build_filtration(ps)
        return fc, complexgen.pick_thresholds(fc)
    except (complexgen.NotCriticalError, complexgen.OverlapError) as exc:
        where = f"kind={ps.kind} k={ps.k} n={ps.n}"
        if ps.kind != KIND_EVEN:
            where += f" at delta={ps.delta!r}"
        exc.args = (f"{where}: {exc}",)
        raise


def build_validated(kind: str, k: int | None = None, n: int | None = None,
                    delta="auto"):
    """`build`, then `validate`: a point set with its validated filtration
    and thresholds.  A mosaic of more than MAX_SIMPLICES simplices is
    refused with ValueError, by the enumeration's rule, before the point
    set is built.  There is one build, at `default_delta(n)` for
    delta="auto" or at the explicit delta:
    no instance is known that a smaller delta rescues, and the
    strict-emptiness clearance 2(delta/n)^2 only shrinks with it.
    Returns (point_set, filtered_complex, thresholds).
    """
    _check_mosaic_size(kind, k, n)
    ps = build(kind, k, n, delta)
    return (ps, *validate(ps))


# ---------------------------------------------------------------------------
# point-set file format: header `# kind,d,k,n,delta,h`, then one row per
# point `circle_id,index_on_circle,x_1,...,x_d` at 17 significant digits.


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_points(ps: PointSet, path) -> None:
    lines = [f"# {ps.kind},{ps.dim},{ps.k},{ps.n},{_fmt(ps.delta)},{_fmt(ps.h)}"]
    labels = ps.labels
    for i in range(len(ps)):
        coords = ",".join(_fmt(c) for c in ps.points[i])
        lines.append(f"{labels[i, 0]},{labels[i, 1]},{coords}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_points(path) -> PointSet:
    """Read a `save_points` file: the set `build` makes from its header,
    with the file's coordinates.  A header that is not `# kind,d,k,n,delta,h`
    with the kind's d, or a row that is not two labels and d coordinates,
    raises ValueError naming the path and the line; naming the path, so do
    a non-finite coordinate, a point count other than the header's, a
    header `build` refuses or does not reproduce, other labels, and a delta
    or h the coordinates do not have (beyond rel_eps, relative): points 0
    and 1 a half edge apart other than `build`'s, or apexes not at +-h.

    The header's delta or h of 0, written for a kind that does not read it,
    goes to `build` as absent, so `build` alone refuses a delta or h the
    kind does not read; a 0 the kind does read builds at its default and
    is caught as not reproduced."""
    with open(path) as fh:
        lines = [(lineno, ln.strip()) for lineno, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or not lines[0][1].startswith("#"):
        raise ValueError(f"{path}: missing point-set header line")
    lineno, text = lines[0]
    try:
        fields = text[1:].strip().split(",")
        if len(fields) != 6:
            raise ValueError(f"header has {len(fields)} fields, not kind,d,k,n,delta,h")
        kind, d, k, n, delta, h = fields
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        d, k, n, delta, h = int(d), int(k), int(n), float(delta), float(h)
        dim = {KIND_3D: 3, KIND_ODD: 2 * k + 1}.get(kind, 2 * k)
        if d != dim:
            raise ValueError(f"d={d}, but kind={kind} k={k} has d={dim}")
        labels, pts = [], []
        for lineno, text in lines[1:]:
            fields = text.split(",")
            if len(fields) != d + 2:
                raise ValueError(f"{len(fields)} fields, expected 2 + d = {d + 2}")
            labels.append((int(fields[0]), int(fields[1])))
            pts.append([float(c) for c in fields[2:]])
    except ValueError as exc:
        raise ValueError(f"{path}, line {lineno}: {exc}") from None
    pts = np.array(pts, dtype=float).reshape(len(pts), d)
    labels = np.array(labels, dtype=int).reshape(len(labels), 2)
    nonfinite = np.flatnonzero(~np.all(np.isfinite(pts), axis=1))
    if nonfinite.size:
        i = int(nonfinite[0])
        raise ValueError(f"{path} row {i + 1} after the header has a non-finite "
                         f"coordinate: {lines[i + 1][1]}")
    # count before listing the labels, so a huge k or n in the header fails fast
    circles, per_circle, apexes = _layout(kind, k, n)
    n_expected = max(circles, 0) * max(per_circle, 0) + apexes
    header = f"kind={kind} k={k} n={n}"
    if len(labels) != n_expected:
        raise ValueError(f"{path} holds {len(labels)} points, but its header "
                         f"{header} has {n_expected}")
    where = f"{path} has header {header} delta={delta!r} h={h!r}"
    try:
        built = build(kind, k, n, delta or "auto", h or None)
        if (built.k, built.delta, built.h) != (k, delta, h):
            raise ValueError(f"build makes k={built.k} delta={built.delta!r} h={built.h!r}")
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    expected = built.labels
    bad = np.flatnonzero(np.any(labels != expected, axis=1))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{path} labels point {i} {tuple(labels[i].tolist())}, but its "
                         f"header {header} gives it {tuple(expected[i].tolist())}")
    ps, rel_eps = replace(built, points=pts), DEFAULT_TOL.rel_eps
    want, got = (0.5 * math.sqrt(squared_distance(p[0], p[1])) for p in (built.points, pts))
    if abs(got - want) > rel_eps * want:
        raise ValueError(f"{where}: its points 0 and 1 give half edge {got!r}, not {want!r}")
    top, bottom = pts[-2:, -1].tolist()  # the suspended kind's apexes
    if kind == KIND_SUSPENDED and max(abs(top - h), abs(bottom + h)) > rel_eps * h:
        raise ValueError(f"{where}: its apexes have last coordinates {top!r} and {bottom!r}")
    return ps
