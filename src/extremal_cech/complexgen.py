"""Combinatorial enumeration of the Delaunay mosaics, radius assignment,
simplex classification and filtration assembly.

The mosaics of the constructed families have a closed combinatorial form:
every simplex picks one point or two consecutive points from each of a
subset of the circles.  Simplices are classified by

* touch = number of circles touched minus one,
* short = number of circles contributing a consecutive pair minus one,

so dim = touch + short + 1.  Radius values are miniball radii, asserted to
be realized by strictly empty spheres.  Every simplex of a validated
construction is critical, and the miniball of a critical simplex is its
circumsphere, so values are circumradii from one batched circumsphere pass
(`geometry.circumspheres`) per build; a simplex that pass does not clear
falls back to the Welzl miniball in `radius_value`.  The filtration keeps
the pass's criticality verdicts, and `criticality_check` reuses them for
the same point set and tolerance instead of computing the spheres again.
Both enumerations list faces first, so one `homology.boundary_columns`
call on the enumeration is a build's face relation: it drives the
monotone fix and the face-order check.  Sorting by (value, dim, vertex
list) passes that check: after the fix no facet's value exceeds its
coface's, and dim breaks ties.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import construct
from .construct import PointSet, KIND_EVEN, KIND_3D, KIND_ODD
from .geometry import (
    AffineDegeneracyError,
    Tolerance,
    DEFAULT_TOL,
    barycentric_interior,
    circumsphere,
    circumspheres,
    emptiness_violations,
    is_empty_sphere,
    min_enclosing_ball,
)
from .homology import boundary_columns

__all__ = [
    "ClassifiedSimplex",
    "CriticalityReport",
    "FilteredComplex",
    "InvalidSimplexError",
    "NotCriticalError",
    "OverlapError",
    "Threshold",
    "build_filtration",
    "classify",
    "criticality_check",
    "enumerate_even",
    "enumerate_odd",
    "load_filtration",
    "pick_thresholds",
    "radius_value",
    "save_filtration",
    "threshold_after",
]


class NotCriticalError(RuntimeError):
    """A simplex's miniball sphere is not strictly empty; carries the id of
    the first offending point.  Signals that delta is too large."""

    def __init__(self, simplex, offender: int):
        super().__init__(f"sphere of {simplex} not strictly empty: point {offender} inside")
        self.simplex = simplex
        self.offender = offender


class OverlapError(RuntimeError):
    """Two radius classes have overlapping value ranges."""

    def __init__(self, class_a, class_b):
        super().__init__(f"radius ranges of classes {class_a} and {class_b} overlap")
        self.classes = (class_a, class_b)


class InvalidSimplexError(ValueError):
    """Vertex labels do not describe a mosaic simplex."""


@dataclass(frozen=True)
class ClassifiedSimplex:
    """Sorted vertex-id tuple plus its (touch, short) class."""

    vertices: tuple[int, ...]
    touch: int
    short: int

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    @property
    def cls(self) -> tuple[int, int]:
        return (self.touch, self.short)


@dataclass
class FilteredComplex:
    """Radius-sorted list of (value, simplex), closed under faces, with every
    face preceding its cofaces.

    A filtration from `build_filtration` also carries the criticality
    verdicts of its sphere pass, tagged with the point set and tolerance
    they hold for; `criticality_check` reads them only for that same pair.
    Loaded and hand-made filtrations carry none.
    """

    entries: list[tuple[float, ClassifiedSimplex]]
    # (point set, tolerance, critical flag per entry) from the sphere pass
    _critical: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def max_dim(self) -> int:
        return max(cs.dim for _, cs in self.entries)

    def class_ranges(self) -> dict[tuple[int, int], tuple[float, float, int]]:
        """Per (touch, short) class: (min value, max value, count)."""
        out: dict[tuple[int, int], list] = {}
        for value, cs in self.entries:
            rec = out.setdefault(cs.cls, [value, value, 0])
            rec[0] = min(rec[0], value)
            rec[1] = max(rec[1], value)
            rec[2] += 1
        return {c: tuple(v) for c, v in out.items()}

    def as_filtration(self) -> list[tuple[float, tuple[int, ...]]]:
        return [(value, cs.vertices) for value, cs in self.entries]


def classify(ps: PointSet, vertices) -> ClassifiedSimplex:
    """Classify a vertex set by its labels; rejects same-circle pairs that
    are not consecutive and anything touching more than two points per
    circle."""
    verts = tuple(sorted(int(v) for v in vertices))
    if not verts:
        raise InvalidSimplexError("empty simplex")
    by_circle: dict[int, list[int]] = {}
    for v in verts:
        by_circle.setdefault(ps.circle_of(v), []).append(v)
    pairs = 0
    for circle, members in by_circle.items():
        if circle < 0:
            raise InvalidSimplexError("apex points are not mosaic vertices")
        if len(members) == 1:
            continue
        if len(members) != 2 or not ps.consecutive(members[0], members[1]):
            raise InvalidSimplexError(
                f"vertices {members} on circle {circle} are not a consecutive pair")
        pairs += 1
    return ClassifiedSimplex(verts, touch=len(by_circle) - 1, short=pairs - 1)


def _circle_items(ps: PointSet, circle: int, want_pair: bool):
    """Single points or consecutive pairs available on one circle."""
    base = circle * ps.points_per_circle
    n = ps.n
    if want_pair:
        if ps.kind == KIND_EVEN:
            return [(base + t, base + (t + 1) % n) for t in range(n)]
        return [(base + t, base + t + 1) for t in range(n)]
    return [(base + t,) for t in range(ps.points_per_circle)]


def enumerate_even(ps: PointSet) -> list[ClassifiedSimplex]:
    """All ideal simplices of the even construction: choose touch+1 circles,
    short+1 of which contribute a consecutive pair, the rest one point.
    The single top polytope cell conv(A) is not emitted."""
    if ps.kind != KIND_EVEN:
        raise ValueError("point set is not of even kind")
    if ps.n < construct.min_n(ps.k):
        raise ValueError(f"n={ps.n} is below min_n({ps.k})={construct.min_n(ps.k)}")
    out = []
    for ell in range(ps.k):
        for circles in itertools.combinations(range(ps.k), ell + 1):
            for j in range(-1, ell + 1):
                for pair_circles in itertools.combinations(circles, j + 1):
                    pair_set = set(pair_circles)
                    options = [_circle_items(ps, c, c in pair_set) for c in circles]
                    for combo in itertools.product(*options):
                        verts = tuple(sorted(v for item in combo for v in item))
                        out.append(ClassifiedSimplex(verts, touch=ell, short=j))
    return out


def enumerate_odd(ps: PointSet) -> list[ClassifiedSimplex]:
    """Face closure of the top simplices of the 3d/odd constructions, sorted
    by (size, vertex list).  A top simplex takes one consecutive pair from
    every circle, so a face takes nothing, one point or one consecutive pair
    from each circle, and not nothing from all of them."""
    if ps.kind not in (KIND_3D, KIND_ODD):
        raise ValueError("point set is not of 3d/odd kind")
    # (vertices, touch, short); circles own increasing blocks of ids, so
    # appending circle by circle keeps every vertex tuple sorted
    faces = [((), -1, -1)]
    for c in range(ps.n_circles):
        options = ([((), 0, 0)] + [(item, 1, 0) for item in _circle_items(ps, c, False)]
                   + [(item, 1, 1) for item in _circle_items(ps, c, True)])
        faces = [(verts + item, touch + t, short + p)
                 for verts, touch, short in faces for item, t, p in options]
    faces = faces[1:]  # the choice of nothing from every circle
    faces.sort(key=lambda f: (len(f[0]), f[0]))
    return [ClassifiedSimplex(*f) for f in faces]


def enumerate_mosaic(ps: PointSet) -> list[ClassifiedSimplex]:
    if ps.kind == KIND_EVEN:
        return enumerate_even(ps)
    return enumerate_odd(ps)


def radius_value(ps: PointSet, simplex, tol: Tolerance = DEFAULT_TOL,
                 assert_empty: bool = True) -> float:
    """Radius-function value of a mosaic simplex: the miniball radius of its
    vertices, whose bounding sphere must be strictly empty against the rest
    of the point set.  For critical simplices this equals the circumradius."""
    verts = simplex.vertices if isinstance(simplex, ClassifiedSimplex) else tuple(simplex)
    ball = min_enclosing_ball(ps.points[list(verts)], tol)
    if assert_empty and not is_empty_sphere(ball, ps, exclude=verts, strict=True, tol=tol):
        offenders = emptiness_violations(ball, ps, exclude=verts, strict=True, tol=tol)
        raise NotCriticalError(verts, offenders[0])
    return ball.radius


def build_filtration(ps: PointSet, tol: Tolerance = DEFAULT_TOL,
                     assert_empty: bool = True) -> FilteredComplex:
    """Enumerate the mosaic, assign radius values, sort face-before-coface.

    A simplex the batched pass clears as critical (without `assert_empty`:
    as having an interior circumcenter) takes its circumradius; every other
    one goes through `radius_value`, in enumeration order, so the first
    non-empty sphere raises the same NotCriticalError as a per-simplex pass
    would.  The pass's criticality verdicts stay on the result for
    `criticality_check`, whatever `assert_empty` is.

    The face relation, one `boundary_columns` call on the enumeration,
    raises each value to its facets' maximum and is the face-order check:
    a facet sorted after its coface raises RuntimeError.
    """
    simplices = enumerate_mosaic(ps)
    verts = [cs.vertices for cs in simplices]
    columns = boundary_columns(verts)
    batch = circumspheres(ps, verts, tol)
    cleared = batch.critical if assert_empty else batch.interior
    values = [float(r) if ok else radius_value(ps, cs, tol, assert_empty)
              for cs, r, ok in zip(simplices, batch.radius, cleared)]

    # enforce exact monotonicity under face inclusion: a face and a coface
    # can determine the same ball, and floating point may then disagree by
    # one ulp about which radius is larger; facets come first, so their
    # values are final when a coface reads them
    for j, rows in enumerate(columns):
        if rows:
            values[j] = max(values[j], max(values[r] for r in rows))

    order = sorted(range(len(simplices)),
                   key=lambda i: (values[i], simplices[i].dim, simplices[i].vertices))
    rank = {i: pos for pos, i in enumerate(order)}
    for i in order:
        for r in columns[i]:
            if rank[r] > rank[i]:
                raise RuntimeError(
                    f"face {verts[r]} does not precede coface {verts[i]} in the filtration")
    fc = FilteredComplex([(values[i], simplices[i]) for i in order])
    fc._critical = (ps, tol, batch.critical[order])
    return fc


@dataclass(frozen=True)
class Threshold:
    """A radius strictly inside the gap between two consecutive classes."""

    below: tuple[int, int]
    above: tuple[int, int]
    rho: float


def pick_thresholds(fc: FilteredComplex) -> list[Threshold]:
    """Gap midpoints between consecutive (touch, short) classes in
    lexicographic class order.  Raises OverlapError if any two consecutive
    class value ranges intersect."""
    ranges = fc.class_ranges()
    classes = sorted(ranges)
    out = []
    for cur, nxt in zip(classes, classes[1:]):
        hi_cur = ranges[cur][1]
        lo_nxt = ranges[nxt][0]
        if hi_cur >= lo_nxt:
            raise OverlapError(cur, nxt)
        out.append(Threshold(cur, nxt, 0.5 * (hi_cur + lo_nxt)))
    return out


def threshold_after(thresholds: list[Threshold], cls: tuple[int, int]) -> float:
    """The threshold closing the sublevel complex of a class."""
    for th in thresholds:
        if th.below == cls:
            return th.rho
    raise KeyError(f"no threshold after class {cls}")


@dataclass
class CriticalityReport:
    n_checked: int
    failures: list[tuple[tuple[int, ...], str]]

    @property
    def ok(self) -> bool:
        return not self.failures


def criticality_check(ps: PointSet, fc: FilteredComplex,
                      tol: Tolerance = DEFAULT_TOL) -> CriticalityReport:
    """Check every simplex for the two criticality conditions: circumcenter
    in the simplex interior, and strict emptiness of the circumsphere.
    Failures are data, not errors.  One batched pass clears the critical
    simplices; each simplex it does not clear is checked again one at a
    time, in filtration order, which gives the verdict and the failure
    message.  When `fc` was built by `build_filtration` from this very
    point set with an equal tolerance, the build's pass stands in for it."""
    if fc._critical is not None and fc._critical[0] is ps and fc._critical[1] == tol:
        critical = fc._critical[2]
    else:
        critical = circumspheres(ps, [cs.vertices for _, cs in fc.entries], tol).critical
    failures = []
    for i in np.flatnonzero(~critical):
        cs = fc.entries[i][1]
        reason = _criticality_failure(ps, cs.vertices, tol)
        if reason is not None:
            failures.append((cs.vertices, reason))
    return CriticalityReport(len(fc), failures)


def _criticality_failure(ps: PointSet, verts: tuple[int, ...], tol: Tolerance) -> str | None:
    """Why one simplex is not critical, or None if it is."""
    pts = ps.points[list(verts)]
    try:
        sphere = circumsphere(pts, tol)
    except AffineDegeneracyError as exc:
        return f"degenerate circumsphere: {exc}"
    if not barycentric_interior(pts, sphere.center, tol):
        return "circumcenter not in simplex interior"
    if not is_empty_sphere(sphere, ps, exclude=verts, strict=True, tol=tol):
        bad = emptiness_violations(sphere, ps, exclude=verts, strict=True, tol=tol)
        return f"circumsphere not strictly empty: point {bad[0]}"
    return None


# ---------------------------------------------------------------------------
# filtration file format: one line per simplex,
# `value dim v_0 ... v_dim touch short`, 17 significant digits, sorted.


def save_filtration(fc: FilteredComplex, path) -> None:
    lines = []
    for value, cs in fc.entries:
        verts = " ".join(str(v) for v in cs.vertices)
        lines.append(f"{format(value, '.17g')} {cs.dim} {verts} {cs.touch} {cs.short}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_filtration(path) -> FilteredComplex:
    entries = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            value = float(parts[0])
            dim = int(parts[1])
            verts = tuple(int(v) for v in parts[2:2 + dim + 1])
            touch, short = int(parts[-2]), int(parts[-1])
            entries.append((value, ClassifiedSimplex(verts, touch, short)))
    return FilteredComplex(entries)
