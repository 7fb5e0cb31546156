"""Z/2 persistent homology of a filtered complex.

The boundary matrix in filtration order is one (n, w) int array: row j
holds the filtration positions of simplex j's facets, padded with -1.  A
`complexgen.FilteredComplex` gives it (`faces()`); a (value, vertices)
list, such as the Cech complex of `oracle.cech`, gets it from
`face_array`.  One kernel, `reduce_columns`, pairs the apparent pairs with
array operations and reduces the residue with clearing; the lowest ones
define birth/death pairs and unkilled births are essential classes.  The
diagram is three arrays in (dim, birth, death) order, `dims`, `births`
and `deaths`, with no Python object per pair; its tuple list `pairs` is
derived on demand and read by no query.  Every Betti query reads the one
diagram of the whole filtration: a sublevel complex is a prefix, and the
reduction of a prefix is the prefix of the reduction.  `betti_at` is one
array count, and a query over all filtration values (`betti_profile`)
sorts the births and deaths once and counts by binary search.  Both count
reduced Betti numbers; only `betti_of_subcomplex` gives unreduced ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PersistenceDiagram",
    "betti_at",
    "betti_of_subcomplex",
    "betti_profile",
    "boundary_columns",
    "diagram_svg",
    "face_array",
    "reduce",
    "reduce_columns",
    "save_diagram",
]

INF = math.inf

# No compiled kernel exists; perfbench/run.py (run_metadata) still reads this.
HAVE_COMPILED = False


def boundary_columns(simplices) -> list[list[int]]:
    """The face relation of a face-closed list of vertex tuples in which
    every facet precedes its cofaces: per simplex, the ascending positions
    of its facets in the list (empty for a vertex).  Raises ValueError when
    a facet is missing or comes later than its coface, or when a simplex
    is listed twice."""
    index: dict[tuple[int, ...], int] = {}
    columns = []
    for pos, verts in enumerate(simplices):
        rows = []
        if len(verts) > 1:
            for facet in itertools.combinations(verts, len(verts) - 1):
                fpos = index.get(facet)
                if fpos is None:
                    raise ValueError(
                        f"filtration not closed/sorted: facet {facet} missing before {verts}")
                rows.append(fpos)
            rows.sort()
        columns.append(rows)
        if index.setdefault(verts, pos) != pos:
            raise ValueError(f"filtration repeats simplex {verts}")
    return columns


def face_array(simplices) -> np.ndarray:
    """`boundary_columns(simplices)` as the (n, w) int array `reduce_columns`
    takes: w the longest column (at least 1), each row padded with -1."""
    columns = boundary_columns(simplices)
    sizes = np.fromiter(map(len, columns), dtype=np.intp, count=len(columns))
    faces = np.full((len(columns), max(int(sizes.max(initial=0)), 1)), -1, dtype=np.intp)
    cols = np.arange(int(sizes.sum())) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    faces[np.repeat(np.arange(len(columns)), sizes), cols] = np.fromiter(
        itertools.chain.from_iterable(columns), dtype=np.intp, count=len(cols))
    return faces


def _apparent_pairs(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(deaths, births) of the apparent pairs of `reduce_columns`'s face
    array: column j and row i with i j's youngest facet and j i's oldest
    cofacet.  Both come from one pass over the slots (the columns of
    `faces`): a running max, and an `np.minimum.at` into an array with one
    extra slot, which the -1 pads index and nothing reads."""
    n = len(faces)
    columns = np.arange(n)
    young = np.full(n, -1, dtype=np.intp)
    oldest = np.full(n + 1, n, dtype=np.intp)
    for slot in faces.T:
        np.maximum(young, slot, out=young)
        np.minimum.at(oldest, slot, columns)
    deaths = np.flatnonzero(young >= 0)
    deaths = deaths[oldest[young[deaths]] == deaths]
    return deaths, young[deaths]


# Residue columns whose rows are read into Python lists at a time; bounds
# those lists, which for every residue row at once would take about
# 200 B per row.
ROW_BLOCK = 4096


def reduce_columns(faces: np.ndarray) -> np.ndarray:
    """Persistence reduction over Z/2: apparent pairs first, then the rest
    with clearing.

    Row j of `faces` holds the filtration positions of the facets of
    simplex j in any order, padded with -1 (a vertex has none); rows and
    positions share the filtration order, in which every facet precedes its
    cofaces.  Returns, per column, the row index of its lowest one after
    reduction, or -1 if the column reduces to zero.  The lows are those of
    the standard left-to-right reduction.

    A pair (i, j) is apparent when i is j's youngest facet and j is i's
    oldest cofacet (Bauer, "Ripser", J. Appl. Comput. Topol. 2021): no
    column before j has i in its boundary, so j's unreduced boundary is
    already reduced, with low i.  The residue, the columns no apparent pair
    decides, is reduced from the highest dimension down, in index order
    within a dimension, with clearing (Chen & Kerber, "Persistent homology
    computation with a twist", EuroCG 2011): a column already paired as a
    birth reduces to zero and is skipped.  Columns are sets of rows, adding
    one is a symmetric difference and the low is the max; only the reduced
    residue columns are kept, and an apparent column is read again from
    `faces` when it is added.  A low i met in column j is owned, if at all,
    by a column before j: an apparent owner is i's oldest cofacet, and i is
    in column j only if some column up to j has it in its boundary.  So
    the lows are the standard ones.
    """
    n = len(faces)
    lows = np.full(n, -1, dtype=np.intp)
    owner = np.full(n, -1, dtype=np.intp)  # row -> column whose low it is
    deaths, births = _apparent_pairs(faces)
    lows[deaths] = births
    owner[births] = deaths
    size = np.zeros(n, dtype=np.intp)  # dimension + 1, or 0 for a vertex
    for slot in faces.T:
        size += slot >= 0
    reduced: dict[int, set[int]] = {}
    for s in range(faces.shape[1], 0, -1):
        # the dimension above is done, so every column it pairs is cleared
        todo = np.flatnonzero((size == s) & (lows < 0) & (owner < 0))
        for lo in range(0, len(todo), ROW_BLOCK):
            block = todo[lo:lo + ROW_BLOCK]
            for j, rows in zip(block.tolist(), faces[block].tolist()):
                col = set(rows)
                col.discard(-1)
                while col:
                    low = max(col)
                    other = int(owner[low])
                    if other < 0:
                        owner[low] = j
                        lows[j] = low
                        reduced[j] = col
                        break
                    col ^= reduced.get(other) or set(faces[other].tolist())
                    col.discard(-1)
    return lows


@dataclass(eq=False)
class PersistenceDiagram:
    """Birth-death pairs as three arrays in (dim, birth, death) order, the
    order `save_diagram` and `diagram_svg` write them in: `dims` (intp),
    `births` and `deaths` (float64), death = inf for essential classes.
    `len(pd)` counts the pairs; `pairs`, the (dim, birth, death) tuple
    list, is derived from the arrays on demand.  Two diagrams are equal
    when their arrays are."""

    dims: np.ndarray
    births: np.ndarray
    deaths: np.ndarray

    def __len__(self) -> int:
        return len(self.dims)

    def __eq__(self, other):
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return all(map(np.array_equal, (self.dims, self.births, self.deaths),
                       (other.dims, other.births, other.deaths)))

    @property
    def pairs(self) -> list[tuple[int, float, float]]:
        """The (dim, birth, death) tuples, in the arrays' order: a new list
        per read."""
        return list(zip(self.dims.tolist(), self.births.tolist(), self.deaths.tolist()))


def _arrays(filtration):
    """(values, dims, a call giving the face relation) of a FilteredComplex,
    or of a list of (value, vertices) pairs."""
    if hasattr(filtration, "faces"):
        return filtration.values(), filtration.dims(), filtration.faces
    verts = [tuple(v) for _, v in filtration]
    return (np.array([value for value, _ in filtration], dtype=float),
            np.array([len(v) - 1 for v in verts], dtype=np.intp), lambda: face_array(verts))


def reduce(filtration) -> PersistenceDiagram:
    """Reduce a face-closed, face-before-coface sorted filtration.

    A FilteredComplex gives its values, dims and face relation through
    its methods; a (value, vertices) list gets them through
    `face_array`.  A value that is not at least its predecessor, nan
    included, is refused with its position.  The pairing is unique for
    any valid order, so permuting entries within equal (value, dim)
    groups leaves the diagram unchanged.
    """
    values, dims, faces = _arrays(filtration)
    bad = np.flatnonzero(~(values >= np.concatenate(([-INF], values[:-1]))))  # nan too
    if len(bad):
        at = int(bad[0])
        raise ValueError(f"filtration value at position {at} is nan" if math.isnan(values[at])
                         else f"filtration values decrease at position {at}: "
                         f"{float(values[at])!r} after {float(values[at - 1])!r}")
    lows = reduce_columns(faces())
    deaths = np.flatnonzero(lows >= 0)
    births = lows[deaths]
    unpaired = lows < 0
    unpaired[births] = False
    essential = np.flatnonzero(unpaired)
    dim = np.concatenate((dims[births], dims[essential]))
    birth = np.concatenate((values[births], values[essential]))
    death = np.concatenate((values[deaths], np.full(len(essential), INF)))
    order = np.lexsort((death, birth, dim))
    return PersistenceDiagram(dim[order], birth[order], death[order])


def betti_at(pd: PersistenceDiagram, p: int, r: float, eps: float = 0.0) -> int:
    """Reduced dimension-p Betti number at radius r: the pairs with
    birth <= r < death, one count over the diagram's arrays, less the one
    component for p = 0 when any is alive.  The optional eps admits values
    equal to r up to floating-point noise."""
    limit = r + eps
    count = int(np.count_nonzero((pd.dims == p) & (pd.births <= limit) & (limit < pd.deaths)))
    return max(count - 1, 0) if p == 0 else count


def betti_profile(pd: PersistenceDiagram, p: int) -> list[tuple[float, int]]:
    """The reduced dimension-p Betti number as a right-continuous step
    function, returned as (radius, value) breakpoints at filtration values.
    Each breakpoint's value is `betti_at`'s, counted by `np.searchsorted`
    in the sorted births and deaths of the diagram's arrays.  A pair with
    birth >= death is never alive and is left out of the count, so every
    counted death is preceded by its birth."""
    at_p = pd.dims == p
    births, deaths = pd.births[at_p], pd.deaths[at_p]
    breaks = np.unique(np.concatenate((births, deaths[deaths != INF])))
    live = births < deaths
    value = (np.searchsorted(np.sort(births[live]), breaks, side="right")
             - np.searchsorted(np.sort(deaths[live]), breaks, side="right"))
    value = np.maximum(value - (p == 0), 0)
    steps = np.ones(len(value), dtype=bool)
    steps[1:] = value[1:] != value[:-1]
    return list(zip(breaks[steps].tolist(), value[steps].tolist()))


def betti_of_subcomplex(fc, r: float, reduced: bool = True, eps: float = 0.0) -> list[int]:
    """Betti numbers beta_0 up to the top dimension of the sublevel complex
    at r, values <= r + eps, of a FilteredComplex: one `reduce` of the
    whole complex, then one `betti_at` per dimension.  Unreduced, beta_0
    adds back the component of a nonempty sublevel complex."""
    pd = reduce(fc)
    vec = [betti_at(pd, p, r, eps) for p in range(int(fc.dims().max(initial=0)) + 1)]
    vec[0] += int(not reduced and fc.values().min(initial=INF) <= r + eps)
    return vec


# ---------------------------------------------------------------------------
# diagram file format: CSV `dim,birth,death` with `inf` for essential
# classes, in the diagram's (dim, birth, death) order.


def save_diagram(pd: PersistenceDiagram, path) -> None:
    lines = (f"{dim},{format(birth, '.17g')},{'inf' if death == INF else format(death, '.17g')}\n"
             for dim, birth, death in zip(pd.dims.tolist(), pd.births.tolist(),
                                         pd.deaths.tolist()))
    with open(path, "w") as fh:
        fh.write("dim,birth,death\n")
        fh.writelines(lines)


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
_SVG_SIZE = 420


def diagram_svg(pd: PersistenceDiagram, path) -> None:
    """Births-vs-deaths scatter as a standalone SVG, one color per dimension;
    essential classes are drawn on the top border."""
    finite = np.concatenate((pd.births, pd.deaths))
    finite = finite[finite != INF]
    hi = (float(finite.max()) if len(finite) else 1.0) * 1.05 or 1.0
    margin, plot = 40.0, float(_SVG_SIZE - 60)

    def sx(v):
        return margin + plot * v / hi

    def sy(v):
        return margin + plot * (1.0 - v / hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}">',
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        'fill="white" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(hi)}" y2="{sy(hi)}" '
        'stroke="#999" stroke-dasharray="4"/>',
    ]
    for dim, birth, death in zip(pd.dims.tolist(), pd.births.tolist(), pd.deaths.tolist()):
        color = _SVG_COLORS[dim % len(_SVG_COLORS)]
        y = sy(hi) if death == INF else sy(death)
        shape = (f'<circle cx="{sx(birth):.2f}" cy="{y:.2f}" r="3" fill="{color}" '
                 f'fill-opacity="0.7"><title>dim {dim}</title></circle>')
        parts.append(shape)
    for dim in np.unique(pd.dims).tolist():
        color = _SVG_COLORS[dim % len(_SVG_COLORS)]
        parts.append(f'<text x="{margin + 8 + 52 * dim}" y="{margin - 10}" '
                     f'fill="{color}" font-size="12">dim {dim}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
