"""Z/2 persistent homology of a filtered complex.

The boundary matrix in filtration order is one (n, w) int array: row j
holds the filtration positions of simplex j's facets, padded with -1.  A
filtration from `complexgen.build_filtration` carries it from the build's
closed-form facets; any other gets it from `boundary_columns` (the facet
positions of each simplex in a face-before-coface list).  There is one
kernel, `reduce_columns`.  It pairs the apparent pairs first, with array
operations (Bauer, "Ripser", J. Appl. Comput. Topol. 2021), and reduces
only the residue, top dimension first with clearing (Chen & Kerber,
"Persistent homology computation with a twist", EuroCG 2011), on columns
kept as sparse Python sets, so its memory grows with the complex.  The
lowest ones define birth/death pairs and unkilled births are essential
classes.  Queries over all filtration values (`betti_profile`,
`euler_characteristic_ok`) sort the births, deaths and values once and
count by binary search.
"""

from __future__ import annotations

import bisect
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
    "load_diagram",
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
    a facet is missing or comes later than its coface."""
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
        index[verts] = pos
    return columns


def _face_array(columns) -> np.ndarray:
    """`boundary_columns` output as one (n, w) int array, w the longest
    column (at least 1), each row padded with -1: the form
    `reduce_columns` takes."""
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


@dataclass
class PersistenceDiagram:
    """Birth-death pairs (dim, birth, death), death = inf for essential
    classes.  `reduced` records whether Betti queries drop the essential
    connected component in dimension 0."""

    pairs: list[tuple[int, float, float]]
    reduced: bool = True
    n_simplices: int = 0

    def essentials(self) -> list[tuple[int, float, float]]:
        return [p for p in self.pairs if p[2] == INF]

    def finite(self) -> list[tuple[int, float, float]]:
        return [p for p in self.pairs if p[2] != INF]


def _normalize_filtration(filtration):
    """Accept a FilteredComplex, a CechComplex-style object, or a raw list of
    (value, vertex-tuple)."""
    if hasattr(filtration, "as_filtration"):
        return filtration.as_filtration()
    return [(float(v), tuple(verts)) for v, verts in filtration]


def reduce(filtration, reduced: bool = True) -> PersistenceDiagram:
    """Reduce a face-closed, face-before-coface sorted filtration.

    A filtration from `complexgen.build_filtration` carries its face
    relation, values and dimensions in filtration order; any other one gets
    them from its entries through `boundary_columns`.  The pairing is unique
    for any valid order, so permuting entries within equal (value, dim)
    groups leaves the diagram unchanged.
    """
    faces = getattr(filtration, "_faces", None)
    if faces is not None:
        values, dims = filtration._values, filtration._dims
    else:
        entries = _normalize_filtration(filtration)
        faces = _face_array(boundary_columns([verts for _, verts in entries]))
        values = np.array([value for value, _ in entries], dtype=float)
        dims = np.array([len(verts) - 1 for _, verts in entries], dtype=np.intp)
    lows = reduce_columns(faces)
    deaths = np.flatnonzero(lows >= 0)
    births = lows[deaths]
    unpaired = lows < 0
    unpaired[births] = False
    essential = np.flatnonzero(unpaired)
    dim = np.concatenate((dims[births], dims[essential]))
    birth = np.concatenate((values[births], values[essential]))
    death = np.concatenate((values[deaths], np.full(len(essential), INF)))
    order = np.lexsort((death, birth, dim))
    pairs = list(zip(dim[order].tolist(), birth[order].tolist(), death[order].tolist()))
    return PersistenceDiagram(pairs, reduced=reduced, n_simplices=len(values))


def betti_at(pd: PersistenceDiagram, p: int, r: float, eps: float = 0.0) -> int:
    """Number of dimension-p classes alive at radius r: pairs with
    birth <= r < death.  The optional eps admits values equal to r up to
    floating-point noise.  Under the reduced convention the essential
    component is dropped for p = 0."""
    count = sum(1 for dim, birth, death in pd.pairs
                if dim == p and birth <= r + eps < death)
    if pd.reduced and p == 0 and count > 0:
        count -= 1
    return count


def _alive_counter(pd: PersistenceDiagram, dims):
    """r -> the number of pairs of the given dimensions alive at r, that is
    with birth <= r < death, from two binary searches over the sorted births
    and deaths.  A pair with birth >= death is never alive and is left out,
    so every counted death is preceded by its birth."""
    live = [(birth, death) for dim, birth, death in pd.pairs if dim in dims and birth < death]
    births = sorted(birth for birth, _ in live)
    deaths = sorted(death for _, death in live)
    return lambda r: bisect.bisect_right(births, r) - bisect.bisect_right(deaths, r)


def betti_profile(pd: PersistenceDiagram, p: int) -> list[tuple[float, int]]:
    """The dimension-p Betti number as a right-continuous step function,
    returned as (radius, value) breakpoints; the value changes only at
    filtration values.  Each breakpoint's value is `betti_at`'s, counted by
    binary search in the sorted births and deaths."""
    breaks = sorted({b for dim, b, _ in pd.pairs if dim == p}
                    | {d for dim, _, d in pd.pairs if dim == p and d != INF})
    alive = _alive_counter(pd, (p,))
    drop = 1 if pd.reduced and p == 0 else 0
    profile = []
    last = None
    for r in breaks:
        value = max(alive(r) - drop, 0)
        if value != last:
            profile.append((r, value))
            last = value
    return profile


def _rank_z2(columns) -> int:
    """Rank of a Z/2 matrix given as columns of row indices (plain Gaussian
    elimination, independent of the persistence pairing)."""
    pivots: dict[int, int] = {}
    rank = 0
    for rows in columns:
        col = 0
        for r in rows:
            col |= 1 << r
        while col:
            top = col.bit_length() - 1
            if top in pivots:
                col ^= pivots[top]
            else:
                pivots[top] = col
                rank += 1
                break
    return rank


def _betti_by_rank(entries, pmax: int) -> list[int]:
    """Unreduced Betti numbers of a complex via boundary ranks:
    beta_p = n_p - rank d_p - rank d_{p+1}."""
    by_dim: dict[int, dict[tuple[int, ...], int]] = {}
    for _, verts in entries:
        dim_map = by_dim.setdefault(len(verts) - 1, {})
        dim_map[verts] = len(dim_map)
    ranks = {0: 0}
    for p in range(1, pmax + 2):
        cols = []
        lower = by_dim.get(p - 1, {})
        for verts in by_dim.get(p, {}):
            cols.append([lower[f] for f in itertools.combinations(verts, p)])
        ranks[p] = _rank_z2(cols)
    return [len(by_dim.get(p, {})) - ranks[p] - ranks[p + 1] for p in range(pmax + 1)]


def betti_of_subcomplex(fc, r: float, pmax: int | None = None, reduced: bool = True,
                        eps: float = 0.0) -> list[int]:
    """All Betti numbers of the sublevel complex at r, via reduction, cross
    checked against direct rank computations on the same subcomplex."""
    entries = _normalize_filtration(fc)
    if pmax is None:
        pmax = max((len(v) - 1 for _, v in entries), default=0)
    sub = [(value, verts) for value, verts in entries if value <= r + eps]
    if not sub:
        return [0] * (pmax + 1)
    pd = reduce(sub, reduced=reduced)
    vec = [betti_at(pd, p, r, eps) for p in range(pmax + 1)]
    check = _betti_by_rank(sub, pmax)
    if reduced:
        check[0] = max(0, check[0] - 1)
    if vec != check:
        raise RuntimeError(f"reduction/rank cross-check failed: {vec} vs {check}")
    return vec


def euler_characteristic_ok(fc, eps: float = 0.0) -> bool:
    """Sanity identity at every filtration value: the alternating simplex
    count equals the alternating sum of unreduced Betti numbers.  Both sides
    are counted by binary search in values sorted once, per dimension
    parity."""
    entries = _normalize_filtration(fc)
    pd = reduce(fc, reduced=False)
    pmax = max(len(v) - 1 for _, v in entries)
    parities = (range(0, pmax + 1, 2), range(1, pmax + 1, 2))
    cells = [sorted(value for value, verts in entries if len(verts) - 1 in dims)
             for dims in parities]
    alive = [_alive_counter(pd, dims) for dims in parities]
    for r in sorted({v for v, _ in entries}):
        x = r + eps
        chi_cells = bisect.bisect_right(cells[0], x) - bisect.bisect_right(cells[1], x)
        if chi_cells != alive[0](x) - alive[1](x):
            return False
    return True


# ---------------------------------------------------------------------------
# diagram file format: CSV `dim,birth,death` with `inf` for essential
# classes, sorted by (dim, birth, death).


def save_diagram(pd: PersistenceDiagram, path) -> None:
    lines = ["dim,birth,death"]
    for dim, birth, death in sorted(pd.pairs):
        death_s = "inf" if death == INF else format(death, ".17g")
        lines.append(f"{dim},{format(birth, '.17g')},{death_s}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_diagram(path, reduced: bool = True) -> PersistenceDiagram:
    pairs = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "dim,birth,death":
            raise ValueError("missing diagram header")
        for line in fh:
            if not line.strip():
                continue
            dim_s, birth_s, death_s = line.strip().split(",")
            death = INF if death_s == "inf" else float(death_s)
            pairs.append((int(dim_s), float(birth_s), death))
    return PersistenceDiagram(pairs, reduced=reduced)


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def diagram_svg(pd: PersistenceDiagram, path, size: int = 420) -> None:
    """Births-vs-deaths scatter as a standalone SVG, one color per dimension;
    essential classes are drawn on the top border."""
    finite_vals = [v for p in pd.pairs for v in (p[1], p[2]) if v != INF]
    hi = max(finite_vals, default=1.0) * 1.05 or 1.0
    margin, plot = 40.0, float(size - 60)

    def sx(v):
        return margin + plot * v / hi

    def sy(v):
        return margin + plot * (1.0 - v / hi)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">',
        f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
        'fill="white" stroke="black"/>',
        f'<line x1="{sx(0)}" y1="{sy(0)}" x2="{sx(hi)}" y2="{sy(hi)}" '
        'stroke="#999" stroke-dasharray="4"/>',
    ]
    for dim, birth, death in sorted(pd.pairs):
        color = _SVG_COLORS[dim % len(_SVG_COLORS)]
        y = sy(hi) if death == INF else sy(death)
        shape = (f'<circle cx="{sx(birth):.2f}" cy="{y:.2f}" r="3" fill="{color}" '
                 f'fill-opacity="0.7"><title>dim {dim}</title></circle>')
        parts.append(shape)
    for dim in sorted({p[0] for p in pd.pairs}):
        color = _SVG_COLORS[dim % len(_SVG_COLORS)]
        parts.append(f'<text x="{margin + 8 + 52 * dim}" y="{margin - 10}" '
                     f'fill="{color}" font-size="12">dim {dim}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
