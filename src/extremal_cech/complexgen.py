"""Combinatorial enumeration of the Delaunay mosaics, radius assignment,
simplex classification and filtration assembly.

Every simplex of a mosaic of the constructed families picks nothing, one
point or two consecutive points from each circle, and is classified by

* touch = number of circles touched minus one,
* short = number of circles contributing a consecutive pair minus one,

so dim = touch + short + 1.  One product-form enumeration serves all three
kinds and emits int arrays with each simplex's facets in closed form, its
rows in (touch, short, vertex list) order: one vertex-id block per class,
which carries the class.  Every simplex of a validated construction is
critical, its circumcenter interior and its circumsphere strictly empty,
so its radius value is its circumradius (Bauer & Edelsbrunner, The Morse
theory of Cech and Delaunay complexes, 2017).  The build proves this with
one circumsphere pass (`geometry.circumspheres`) per class, in class
order, and raises NotCriticalError on the first simplex that fails,
computing no later class; `criticality_check` runs the same kernel, one
pass per block, on any point set and filtration.  The sort is one stable
argsort of the values.  A facet lies in an earlier class than its coface,
so in an earlier row: a facet tied with its coface stays before it, and a
facet valued above it raises.

A FilteredComplex is made from arrays in filtration order and is nothing
else: a built one keeps the build's, its face relation included, and makes
no Python object per simplex.  A simplex's class is stored once, on its
block, and every per-class read walks the blocks.  Each read of its
`entries` is a fresh iterator over its (value, ClassifiedSimplex) pairs,
made from the arrays as it goes; `len(fc)` counts them and
`list(fc.entries)` keeps them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import construct
from .construct import PointSet, KIND_EVEN
from .geometry import circumspheres, degeneracy_reason
# only the benchmark's trace reads these
from .geometry import barycentric_interior, circumsphere, is_empty_sphere, min_enclosing_ball

__all__ = [
    "ClassifiedSimplex",
    "CriticalityReport",
    "FilteredComplex",
    "NotCriticalError",
    "OverlapError",
    "Threshold",
    "build_filtration",
    "criticality_check",
    "enumerate_mosaic",
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


class ClassifiedSimplex(NamedTuple):
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


class FilteredComplex:
    """Radius-sorted simplices, closed under faces, with every face
    preceding its cofaces; equal when their values, classes and vertex
    lists are, in order.

    A complex is made from its arrays in filtration order and keeps them:
    `values`; `ids`, vertex-id blocks of one size and one class each,
    block b's class being `classes[b]`, its (touch, short); position i is
    row `rows[i]` of the blocks read one after another, so its dim and
    class are its block's, and `faces` is the face relation (see
    `faces()`).  A built complex's blocks are its classes in order, and
    every simplex of it is critical.  `entries` is a fresh iterator over
    the (value, ClassifiedSimplex) pairs on each read; the complex keeps
    none of them.
    """

    def __init__(self, values, classes, ids, rows, faces):
        sizes = np.repeat(np.array([b.shape[1] for b in ids], dtype=np.intp), [len(b) for b in ids])
        self._values, self._classes = values, classes
        self._ids, self._rows, self._dims = ids, rows, sizes[rows] - 1
        self._faces = faces

    @property
    def entries(self) -> Iterator[tuple[float, ClassifiedSimplex]]:
        # what the NamedTuple's constructor does, without a Python call per
        # simplex: tuple.__new__(ClassifiedSimplex, fields)
        touch, short = self.classes()
        return zip(self._values.tolist(), map(
            tuple.__new__, itertools.repeat(ClassifiedSimplex), zip(
                self._vertex_lists(), touch.tolist(), short.tolist())))

    def _vertex_lists(self):
        return map(_vertex_tuples(self._ids).__getitem__, self._rows.tolist())

    def __eq__(self, other):
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return (all(np.array_equal(a, b) for a, b in zip(
                    (self._values, self._dims, *self.classes()),
                    (other._values, other._dims, *other.classes())))
                and list(self._vertex_lists()) == list(other._vertex_lists()))

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> np.ndarray:
        """The values in filtration order."""
        return self._values

    def dims(self) -> np.ndarray:
        """The dimensions in filtration order."""
        return self._dims

    def classes(self) -> tuple[np.ndarray, np.ndarray]:
        """touch and short in filtration order, read from the blocks."""
        per_row = np.repeat(np.array(self._classes, dtype=np.intp).reshape(-1, 2),
                            [len(b) for b in self._ids], axis=0)
        return tuple(per_row[self._rows].T)

    def blocks(self) -> tuple[list[tuple[int, int]], list[np.ndarray], np.ndarray]:
        """Each block's class, the vertex-id blocks, one size and one class
        each, and each position's row in them."""
        return self._classes, self._ids, self._rows

    def faces(self) -> np.ndarray:
        """Row i: the positions of simplex i's facets, padded with -1."""
        return self._faces

    def max_dim(self) -> int:
        return int(self.dims().max())

    def class_ranges(self) -> dict[tuple[int, int], tuple[float, float, int]]:
        """Per (touch, short) class: (min value, max value, count), read
        block by block; blocks of one class are merged."""
        by_row = np.empty_like(self._values)
        by_row[self._rows] = self._values
        ends = np.cumsum([len(b) for b in self._ids], dtype=np.intp)
        out = {}
        for cls, part in zip(self._classes, np.split(by_row, ends[:-1])):
            lo, hi, count = out.get(cls, (np.inf, -np.inf, 0))
            out[cls] = (min(lo, float(part.min())), max(hi, float(part.max())), count + len(part))
        return out


@dataclass(frozen=True, eq=False)
class _Mosaic:
    """A point set's mosaic as arrays, one row per simplex, rows in
    (touch, short, vertex list) order.

    A row has two slots per circle, in circle order: a lone point fills
    the first, a pair fills both with its ascending ids, and the others
    stay empty; so the ids of a row, read in slot order, are its ascending
    vertex list.  `facets[i, j]` is the row of the facet that drops the
    vertex in slot j, or -1 where there is none (an empty slot, or i is a
    vertex).  `blocks[c]` is the (lo, hi) row range of the c-th class in
    class order, `classes[c]` its (touch, short), whose simplices all have
    one size s, and `ids[c]` holds their vertex lists as one (hi - lo, s)
    int array, the block form `geometry.circumspheres` takes.
    """

    ids: list[np.ndarray]
    classes: list[tuple[int, int]]
    facets: np.ndarray
    blocks: list[tuple[int, int]]

    def vertex_tuples(self) -> list[tuple[int, ...]]:
        return _vertex_tuples(self.ids)


def _vertex_tuples(ids: list[np.ndarray]) -> list[tuple[int, ...]]:
    """The vertex tuples of id blocks, row after row, of Python ints: each
    block's columns zipped, with no list per row."""
    out = []
    for block in ids:
        out += zip(*block.T.tolist())
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
    end as a lone point.  Every build and enumeration passes here, so the
    size rule is checked first: a mosaic over `construct.MAX_SIMPLICES`
    simplices raises ValueError before any array is allocated.
    """
    construct._check_mosaic_size(ps.kind, ps.k, ps.n)
    if ps.kind not in construct.MOSAIC_KINDS:
        raise ValueError(f"no mosaic enumeration for kind {ps.kind!r}")
    if ps.kind == KIND_EVEN and ps.n < construct.min_n(ps.k):
        raise ValueError(f"n={ps.n} is below min_n({ps.k})={construct.min_n(ps.k)}")
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
    # counts by a product with ones, not a pass per row of a few slots
    ones = np.ones(2 * circles, dtype=np.intp)
    size = real @ ones
    touch = real[:, 0::2] @ ones[:circles] - 1
    # class (touch, short) in lexicographic order, short = size - touch - 2;
    # a class has one size, and within it slot order with pad is vertex-list
    # order: at the first slot where two rows differ, a pad stands for a
    # later, larger id
    cls = touch * (circles + 1) + size - touch - 1
    order = np.lexsort((*slots.T[::-1], cls))
    # rows of 2-d arrays by np.take, faster than indexing with `order`
    slots, facet_codes = np.take(slots, order, axis=0), np.take(facet_codes, order, axis=0)
    real = slots < pad
    size, cls, codes = size[order], cls[order], codes[order]
    row_of = np.zeros(len(codes) + 1, dtype=np.intp)
    row_of[codes] = np.arange(len(codes))
    facets = np.where(real & (size > 1)[:, None], row_of[facet_codes], -1)
    starts = [0, *(np.flatnonzero(cls[1:] != cls[:-1]) + 1).tolist(), len(cls)]
    blocks = list(zip(starts[:-1], starts[1:]))
    ids = [slots[lo:hi][real[lo:hi]].reshape(hi - lo, size[lo]) for lo, hi in blocks]
    # each block's class from its key: touch, then short + 1
    classes = [(c // (circles + 1), c % (circles + 1) - 1) for c in cls[starts[:-1]].tolist()]
    return _Mosaic(ids, classes, facets, blocks)


def enumerate_mosaic(ps: PointSet) -> list[ClassifiedSimplex]:
    """All simplices of the mosaic of an even, 3d or odd point set, sorted by
    (touch, short, vertex list), so every face precedes its cofaces."""
    m = _mosaic(ps)
    return [ClassifiedSimplex(v, t, s)
            for (t, s), block in zip(m.classes, m.ids) for v in _vertex_tuples([block])]


def radius_value(ps: PointSet, simplex) -> float:
    """Radius-function value of a critical simplex, its circumradius: the
    one-row case of the build's check.  A simplex that is not critical
    raises the NotCriticalError the build raises for it."""
    verts = simplex.vertices if isinstance(simplex, ClassifiedSimplex) else tuple(simplex)
    batch = circumspheres(ps, [verts])
    if not batch.critical[0]:
        raise _not_critical(ps, verts, batch, 0)
    return float(batch.radius[0])


def build_filtration(ps: PointSet) -> FilteredComplex:
    """Enumerate the mosaic, prove every simplex critical class by class,
    take circumradii as values and sort them.

    One sphere pass per class, in class order: the first simplex of the
    first class that the pass finds not critical raises NotCriticalError,
    with the reason `criticality_check` gives for it, and no later class
    is computed.

    Every facet lies in an earlier class, so in an earlier row, and the
    stable sort by value keeps a facet tied with its coface first.  A facet
    valued above its coface raises NotCriticalError naming the coface.
    """
    m = _mosaic(ps)
    values = np.empty(len(m.facets))
    for block, (lo, hi) in zip(m.ids, m.blocks):
        batch = circumspheres(ps, block)
        bad = np.flatnonzero(~batch.critical)
        if len(bad):
            raise _not_critical(ps, tuple(block[bad[0]].tolist()), batch, bad[0])
        values[lo:hi] = batch.radius

    # rows are in (class, vertex list) order, so a stable sort by value gives
    # the (value, class, vertex list) order
    order = np.argsort(values, kind="stable")
    rank = np.full(len(order) + 1, -1, dtype=np.intp)  # rank[-1] keeps a facet -1 at -1
    rank[order] = np.arange(len(order))
    faces = rank[np.take(m.facets, order, axis=0)]
    late = faces > np.arange(len(order))[:, None]
    if late.any():
        position, slot = np.argwhere(late)[0]
        row, facet = order[position], order[faces[position, slot]]
        verts = m.vertex_tuples()
        raise NotCriticalError(verts[row], reason=f"radius {values[row]!r} is below "
                               f"its facet {verts[facet]}'s {values[facet]!r}")
    return FilteredComplex(values[order], m.classes, m.ids, order, faces)


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
    failures: list[tuple[tuple[int, ...], str]]

    @property
    def ok(self) -> bool:
        return not self.failures


def criticality_check(ps: PointSet, fc: FilteredComplex) -> CriticalityReport:
    """Check every simplex for the two criticality conditions: circumcenter
    in the simplex interior, and strict emptiness of the circumsphere.
    Failures are data, not errors, in filtration order, each with its
    reason from its block's pass (see `_not_critical`).  The spheres are
    always computed afresh; a filtration from `build_filtration` passes."""
    _, ids, rows = fc.blocks()
    failures, start = {}, 0
    for block in ids:
        batch = circumspheres(ps, block)
        for i in np.flatnonzero(~batch.critical).tolist():
            err = _not_critical(ps, tuple(block[i].tolist()), batch, i)
            failures[start + i] = (err.simplex, err.reason)
        start += len(block)
    bad = rows[np.isin(rows, list(failures))].tolist()  # in filtration order
    return CriticalityReport([failures[row] for row in bad])


def _not_critical(ps: PointSet, verts: tuple[int, ...], batch, i: int) -> NotCriticalError:
    """Why simplex `verts`, row i of `batch`, is not critical: degenerate,
    else a circumcenter outside it, else the first point inside its sphere."""
    if batch.degenerate[i]:
        reason = degeneracy_reason(ps.points[list(verts)])
        return NotCriticalError(verts, reason=f"degenerate circumsphere: {reason}")
    if not batch.interior[i]:
        return NotCriticalError(verts, reason="circumcenter not in simplex interior")
    return NotCriticalError(verts, int(batch.offender[i]))


# ---------------------------------------------------------------------------
# filtration file format, the output of `filtration -o`: one line per
# simplex, `value dim v_0 ... v_dim touch short`, 17 significant digits,
# sorted.


def save_filtration(fc: FilteredComplex, path) -> None:
    touch, short = fc.classes()
    lines = (f"{format(value, '.17g')} {dim} {' '.join(map(str, verts))} {t} {s}\n"
             for value, verts, dim, t, s in zip(fc.values().tolist(), fc._vertex_lists(),
                                                fc.dims().tolist(), touch.tolist(), short.tolist()))
    with open(path, "w") as fh:
        fh.writelines(lines)
