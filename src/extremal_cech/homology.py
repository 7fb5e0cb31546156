"""Z/2 persistent homology of a filtered complex.

The boundary matrix in filtration order (`boundary_columns`: the facet
positions of each simplex in a face-before-coface list) is reduced column
by column; the lowest ones define birth/death pairs and unkilled births
are essential classes.  There is one kernel, in pure Python: columns are
Python integers used as bitsets over row indices, and it reduces with
clearing (Chen & Kerber, "Persistent homology computation with a twist",
EuroCG 2011).  Queries over all filtration values (`betti_profile`,
`euler_characteristic_ok`) sort the births, deaths and values once and
count by binary search.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

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


def reduce_columns(columns: list[list[int]]) -> list[int]:
    """Persistence reduction over Z/2 with clearing.

    `columns[j]` lists the row indices of the nonzero entries of boundary
    column j; rows and columns share the filtration order, and a column of
    a p-simplex has p + 1 rows, all of them (p-1)-simplices.  Returns, per
    column, the row index of its lowest one after reduction, or -1 if the
    column reduces to zero.  The lows are those of the standard
    left-to-right reduction.

    Columns are visited from the highest dimension down, in index order
    within a dimension.  A column j that ends with low i pairs i as a
    birth, so column i reduces to zero and is skipped (cleared) when its
    dimension comes up.  Lowest ones come from int.bit_length; a column's
    lowest one is a row of the dimension below, so one owner table serves
    every dimension.
    """
    n = len(columns)
    masks = [0] * n
    low_owner = [-1] * n  # row -> column currently holding that lowest one
    lows = [-1] * n
    for j in sorted(range(n), key=lambda j: -len(columns[j])):
        if low_owner[j] >= 0:  # cleared: j is already paired as a birth
            continue
        col = 0
        for r in columns[j]:
            col |= 1 << r
        while col:
            low = col.bit_length() - 1
            other = low_owner[low]
            if other < 0:
                lows[j] = low
                low_owner[low] = j
                break
            col ^= masks[other]
        masks[j] = col
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

    The pairing is unique for any valid order, so permuting entries within
    equal (value, dim) groups leaves the diagram unchanged.
    """
    entries = _normalize_filtration(filtration)
    lows = reduce_columns(boundary_columns([verts for _, verts in entries]))
    killed = set()
    pairs = []
    for j, low in enumerate(lows):
        if low >= 0:
            killed.add(low)
            birth_value, birth_verts = entries[low]
            pairs.append((len(birth_verts) - 1, birth_value, entries[j][0]))
    for j, low in enumerate(lows):
        if low < 0 and j not in killed:
            value, verts = entries[j]
            pairs.append((len(verts) - 1, value, INF))
    pairs.sort(key=lambda p: (p[0], p[1], p[2]))
    return PersistenceDiagram(pairs, reduced=reduced, n_simplices=len(entries))


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
    pd = reduce(entries, reduced=False)
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
