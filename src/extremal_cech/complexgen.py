"""Combinatorial enumeration of the Delaunay mosaics, radius assignment,
simplex classification and filtration assembly.

The mosaics of the constructed families have a closed combinatorial form:
every simplex picks one point or two consecutive points from each of a
subset of the circles.  Simplices are classified by

* touch = number of circles touched minus one,
* short = number of circles contributing a consecutive pair minus one,

so dim = touch + short + 1.  Every simplex of a validated construction is
critical: its circumcenter is interior and its circumsphere strictly empty,
so its radius value is its circumradius (Bauer & Edelsbrunner, The Morse
theory of Cech and Delaunay complexes, 2017).  The build proves this with
one batched circumsphere pass (`geometry.circumspheres`); a simplex that
pass does not clear is checked one at a time, and the first one that is
not critical raises NotCriticalError.  So every built filtration is
critical, and its values are the pass's circumradii.
`criticality_check` recomputes the spheres for any point set and
filtration, loaded or hand-made ones included.
One product-form enumeration serves all three kinds: each circle
contributes nothing, one point or one consecutive pair.  It emits int
arrays (vertex ids, touch, short) and each simplex's facet positions in
closed form, and the build works on those arrays: the monotone fix is a
max over the facets per size, the sort is one stable argsort of the
values over rows already in (dim, vertex list) order, and the face-order
check is a rank compare over the facets.  The (value, ClassifiedSimplex)
entries are built once, at the end.  Sorting by (value, dim, vertex list)
passes the check: after the fix no facet's value exceeds its coface's,
and dim breaks ties.
"""

from __future__ import annotations

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
    "enumerate_mosaic",
    "load_filtration",
    "pick_thresholds",
    "radius_value",
    "save_filtration",
    "threshold_after",
]


class NotCriticalError(RuntimeError):
    """A simplex is not critical.  When its sphere is not strictly empty,
    `offender` is the id of the first point inside; otherwise it is None and
    `reason` says what failed.  Signals that delta is too large."""

    def __init__(self, simplex, offender: int | None = None, reason: str | None = None):
        if offender is not None:
            reason = f"circumsphere not strictly empty: point {offender}"
            message = f"sphere of {simplex} not strictly empty: point {offender} inside"
        else:
            message = f"simplex {simplex} is not critical: {reason}"
        super().__init__(message)
        self.simplex = simplex
        self.offender = offender
        self.reason = reason


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

    A filtration from `build_filtration` has every simplex critical, and
    carries its class ranges and, for `homology.reduce`, its face relation,
    values and dimensions in filtration order, all from the build's arrays:
    `_faces[i]` holds the positions of simplex i's facets, padded with -1.
    Loaded and hand-made filtrations carry none of these and no proof of
    criticality.
    """

    entries: list[tuple[float, ClassifiedSimplex]]
    _class_ranges: dict | None = field(default=None, init=False, repr=False, compare=False)
    _faces: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _values: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _dims: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.entries)

    def max_dim(self) -> int:
        return max(cs.dim for _, cs in self.entries)

    def class_ranges(self) -> dict[tuple[int, int], tuple[float, float, int]]:
        """Per (touch, short) class: (min value, max value, count)."""
        if self._class_ranges is not None:
            return dict(self._class_ranges)
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


@dataclass(frozen=True, eq=False)
class _Mosaic:
    """A point set's mosaic as arrays, one row per simplex, rows in
    (size, vertex list) order.

    A row has two slots per circle, in circle order: a lone point fills
    the first, a pair fills both with its ascending ids, and the others
    stay empty; so the ids of a row, read in slot order, are its ascending
    vertex list.  `facets[i, j]` is the row of the facet that drops the
    vertex in slot j; where there is none (an empty slot, or i is a vertex)
    it is i itself, which leaves a max of values or a rank compare with row
    i unchanged.  Rows `blocks[s - 1]` are the simplices of size s, and
    `ids[s - 1]` holds their vertex lists as one (rows, s) int array, the
    block form `geometry.circumspheres` takes.
    """

    ids: list[np.ndarray]
    touch: np.ndarray
    short: np.ndarray
    facets: np.ndarray
    blocks: list[tuple[int, int]]

    def vertex_tuples(self) -> list[tuple[int, ...]]:
        out = []
        for block in self.ids:
            out += map(tuple, block.tolist())
        return out


def _mosaic(ps: PointSet) -> _Mosaic:
    """Enumerate the mosaic as a product over circles.

    Each circle contributes nothing, one point or one consecutive pair
    (pairs wrap around on the even kind's full n-gons), and not every
    circle contributes nothing; on the even kind that leaves out only the
    top polytope cell conv(A).  A simplex is coded by its options, one digit
    per circle in base R = options per circle, so the codes are 1 .. R^C - 1
    for C circles and a dense code -> row table has one entry per simplex
    plus one.  Facets come in closed form: dropping a lone point leaves
    nothing on its circle, and dropping one end of a pair leaves the other
    end as a lone point.
    """
    if ps.kind == KIND_EVEN:
        if ps.n < construct.min_n(ps.k):
            raise ValueError(f"n={ps.n} is below min_n({ps.k})={construct.min_n(ps.k)}")
    elif ps.kind not in (KIND_3D, KIND_ODD):
        raise ValueError(f"no mosaic enumeration for kind {ps.kind!r}")
    circles, per = ps.n_circles, ps.points_per_circle
    pad = circles * per
    # option 0 is nothing, 1..per a point, per+1.. a pair (t, t+1 mod per);
    # lo/hi are the option's ascending on-circle ids, pad where it has none
    t = np.arange(ps.n)
    lo = np.concatenate(([pad], np.arange(per), np.minimum(t, (t + 1) % per)))
    hi = np.concatenate(([pad], np.full(per, pad), np.maximum(t, (t + 1) % per)))
    # digit change when the vertex in the lo or hi slot is dropped: to
    # nothing from a lone point, to the other end (option 1 + id) from a pair
    option = np.arange(len(lo))
    pair = option > per
    drop = np.stack((np.where(pair, 1 + hi, 0) - option, np.where(pair, 1 + lo, 0) - option), 1)

    weight = len(lo) ** np.arange(circles)
    codes = np.arange(1, len(lo) ** circles)
    digits = codes[:, None] // weight % len(lo)
    base = np.arange(circles) * per
    slots = np.stack((base + lo[digits], base + hi[digits]), 2).reshape(len(codes), -1)
    facet_codes = (codes[:, None, None]
                   + drop[digits] * weight[:, None]).reshape(len(codes), -1)
    real = slots < pad
    size = real.sum(axis=1)
    # slot order with pad is vertex-list order within a size: at the first
    # slot where two rows differ, a pad stands for a later, larger id
    order = np.lexsort((*slots.T[::-1], size))
    slots, real, size = slots[order], real[order], size[order]
    codes, facet_codes = codes[order], facet_codes[order]
    rows = np.arange(len(codes))
    row_of = np.zeros(len(codes) + 1, dtype=np.intp)
    row_of[codes] = rows
    facets = np.where(real & (size > 1)[:, None], row_of[facet_codes], rows[:, None])
    touch = real[:, 0::2].sum(axis=1) - 1
    starts = np.searchsorted(size, np.arange(1, slots.shape[1] + 2)).tolist()
    blocks = list(zip(starts[:-1], starts[1:]))
    ids = [slots[lo:hi][real[lo:hi]].reshape(hi - lo, s)
           for s, (lo, hi) in enumerate(blocks, 1)]
    return _Mosaic(ids, touch, size - touch - 2, facets, blocks)


def enumerate_mosaic(ps: PointSet) -> list[ClassifiedSimplex]:
    """All simplices of the mosaic of an even, 3d or odd point set, sorted by
    (size, vertex list), so every face precedes its cofaces."""
    m = _mosaic(ps)
    return [ClassifiedSimplex(v, t, s)
            for v, t, s in zip(m.vertex_tuples(), m.touch.tolist(), m.short.tolist())]


def radius_value(ps: PointSet, simplex, tol: Tolerance = DEFAULT_TOL) -> float:
    """Radius-function value of a mosaic simplex: the miniball radius of its
    vertices, whose bounding sphere must be strictly empty against the rest
    of the point set.  For critical simplices this equals the circumradius."""
    verts = simplex.vertices if isinstance(simplex, ClassifiedSimplex) else tuple(simplex)
    ball = min_enclosing_ball(ps.points[list(verts)], tol)
    if not is_empty_sphere(ball, ps, exclude=verts, strict=True, tol=tol):
        offenders = emptiness_violations(ball, ps, exclude=verts, strict=True, tol=tol)
        raise NotCriticalError(verts, offenders[0])
    return ball.radius


def _check_face_order(facets: np.ndarray, rank: np.ndarray, verts) -> None:
    """Raise RuntimeError unless every facet ranks below its coface.

    `facets` rows hold facet rows as in `_Mosaic.facets`, `rank` is each
    row's filtration position, and `verts` names the rows.  The error names
    the first coface in filtration order and its first late facet."""
    late = rank[facets] > rank[:, None]
    if late.any():
        bad = np.flatnonzero(late.any(axis=1))
        i = bad[np.argmin(rank[bad])]
        r = facets[i][late[i]].min()
        raise RuntimeError(
            f"face {verts[r]} does not precede coface {verts[i]} in the filtration")


def _class_ranges(touch, short, values) -> dict[tuple[int, int], tuple[float, float, int]]:
    """`FilteredComplex.class_ranges` from per-simplex arrays."""
    key = touch * (short.max() + 2) + short + 1
    order = np.lexsort((values, key))
    key = key[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    last = np.append(first[1:], len(key)) - 1
    head = order[first]
    return {(t, s): (lo, hi, count) for t, s, lo, hi, count in zip(
        touch[head].tolist(), short[head].tolist(), values[head].tolist(),
        values[order[last]].tolist(), (last - first + 1).tolist())}


def build_filtration(ps: PointSet, tol: Tolerance = DEFAULT_TOL) -> FilteredComplex:
    """Enumerate the mosaic, prove every simplex critical, take circumradii
    as values and sort face-before-coface.

    Each simplex the batched pass does not clear goes, in enumeration
    order, through the one-at-a-time check of `criticality_check`; the first
    one that is not critical raises NotCriticalError, so a per-simplex pass
    would raise the same error.

    The closed-form facets raise each value to its facets' maximum and are
    the face-order check: a facet sorted after its coface raises
    RuntimeError.
    """
    m = _mosaic(ps)
    batch = circumspheres(ps, m.ids, tol)
    verts = m.vertex_tuples()
    for i in np.flatnonzero(~batch.critical):
        failure = _criticality_failure(ps, verts[i], tol)
        if failure is not None:
            raise failure
    values = batch.radius.copy()

    # enforce exact monotonicity under face inclusion: a face and a coface
    # can determine the same ball, and floating point may then disagree by
    # one ulp about which radius is larger; one size at a time, so facets
    # are final when their cofaces read them
    for lo, hi in m.blocks[1:]:
        values[lo:hi] = np.maximum(values[lo:hi], values[m.facets[lo:hi]].max(axis=1))

    # rows are in (dim, vertex list) order, so a stable sort by value gives
    # the (value, dim, vertex list) order
    order = np.argsort(values, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    _check_face_order(m.facets, rank, verts)
    sorted_values = values[order]
    fc = FilteredComplex([
        (value, ClassifiedSimplex(verts[i], t, s))
        for value, i, t, s in zip(sorted_values.tolist(), order.tolist(),
                                  m.touch[order].tolist(), m.short[order].tolist())])
    fc._class_ranges = _class_ranges(m.touch, m.short, values)
    own = m.facets == np.arange(len(order))[:, None]
    fc._faces = np.where(own, -1, rank[m.facets])[order]
    fc._values = sorted_values
    fc._dims = (m.touch + m.short + 1)[order]
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
    message.  The spheres are always computed afresh; a filtration from
    `build_filtration` passes by construction."""
    critical = circumspheres(ps, [cs.vertices for _, cs in fc.entries], tol).critical
    failures = []
    for i in np.flatnonzero(~critical):
        cs = fc.entries[i][1]
        failure = _criticality_failure(ps, cs.vertices, tol)
        if failure is not None:
            failures.append((cs.vertices, failure.reason))
    return CriticalityReport(len(fc), failures)


def _criticality_failure(ps: PointSet, verts: tuple[int, ...],
                         tol: Tolerance) -> NotCriticalError | None:
    """Why one simplex is not critical, as the error to raise, or None if it is."""
    pts = ps.points[list(verts)]
    try:
        sphere = circumsphere(pts, tol)
    except AffineDegeneracyError as exc:
        return NotCriticalError(verts, reason=f"degenerate circumsphere: {exc}")
    if not barycentric_interior(pts, sphere.center, tol):
        return NotCriticalError(verts, reason="circumcenter not in simplex interior")
    if not is_empty_sphere(sphere, ps, exclude=verts, strict=True, tol=tol):
        bad = emptiness_violations(sphere, ps, exclude=verts, strict=True, tol=tol)
        return NotCriticalError(verts, bad[0])
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
