import bisect
import functools
import itertools

import numpy as np
import pytest

from extremal_cech import complexgen, geometry, homology, verify
from extremal_cech.construct import build_validated
from extremal_cech.geometry import SphereBatch, circumspheres


@functools.lru_cache(maxsize=None)
def cached_pipeline(kind, k, n, delta="auto"):
    """Validated (point set, filtration, thresholds, diagram), shared across
    test modules to keep the suite fast."""
    ps, fc, thresholds = build_validated(kind, k=k, n=n, delta=delta)
    return ps, fc, thresholds, homology.reduce(fc)


def reset_memos():
    """Clear `geometry`'s memo of boundary solves and `verify`'s caches, so
    a run in the process starts cold."""
    geometry._memo_ball_through.cache_clear()
    for cached in vars(verify).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


@pytest.fixture
def fresh_memos():
    """Empty memos and cleared caches for one test (see `reset_memos`)."""
    reset_memos()


@pytest.fixture(scope="session")
def pipeline():
    return cached_pipeline


@pytest.fixture(scope="session")
def threed_n2():
    return cached_pipeline("3d", 1, 2)


@pytest.fixture(scope="session")
def even_2_5():
    return cached_pipeline("even", 2, 5)


@pytest.fixture(scope="session")
def odd_2_2():
    return cached_pipeline("odd", 2, 2)


def blocks_by_size(simplices):
    """(positions, (b, m) vertex-id block) per size m of a list of vertex
    tuples of any sizes: sizes ascending, positions ascending in a size."""
    sizes = np.fromiter(map(len, simplices), dtype=np.intp, count=len(simplices))
    flat = np.fromiter(itertools.chain.from_iterable(simplices), dtype=np.intp,
                       count=int(sizes.sum()))
    starts = np.cumsum(sizes) - sizes
    groups = []
    for m in np.unique(sizes).tolist():
        rows = np.flatnonzero(sizes == m)
        groups.append((rows, flat[starts[rows, None] + np.arange(m)]))
    return groups


def circumspheres_in_order(points, simplices):
    """One SphereBatch for simplices of several sizes, in input order:
    `simplices` is a list of vertex tuples, grouped by `blocks_by_size`, or
    a list of (b, m) blocks read row after row.  Each group or block goes
    through `circumspheres` alone, and its batch is scattered into place."""
    pts = np.asarray(getattr(points, "points", points), dtype=float)
    if len(simplices) and all(np.ndim(block) == 2 for block in simplices):
        ends = np.cumsum([len(block) for block in simplices]).tolist()
        groups = [(np.arange(end - len(block), end), block)
                  for end, block in zip(ends, simplices)]
    else:
        groups = blocks_by_size(simplices)
    count = sum(len(rows) for rows, _ in groups)
    out = SphereBatch(np.full((count, pts.shape[1]), np.nan), np.full(count, np.nan),
                      np.ones(count, dtype=bool), np.zeros(count, dtype=bool),
                      np.full(count, -1, dtype=np.intp))
    for rows, block in groups:
        batch = circumspheres(pts, block)
        for name in ("center", "radius", "degenerate", "interior", "offender"):
            getattr(out, name)[rows] = getattr(batch, name)
    return out


def hand_made(entries, faces=None):
    """A FilteredComplex of (value, ClassifiedSimplex) entries taken in
    their order, with a block per (class, simplex size), classes ascending
    and sizes ascending in a class.  Its face relation is `faces`, or else
    `homology.face_array` of the vertex lists, which must then be
    face-closed."""
    entries = list(entries)
    vertex_lists = [cs.vertices for _, cs in entries]
    classes = np.array([cs.cls for _, cs in entries], dtype=np.intp).reshape(-1, 2)
    block_classes, blocks, taken = [], [], []
    for cls in np.unique(classes, axis=0).tolist():
        at = np.flatnonzero((classes == cls).all(axis=1))
        for positions, block in blocks_by_size([vertex_lists[i] for i in at.tolist()]):
            block_classes.append(tuple(cls))
            blocks.append(block)
            taken.append(at[positions])
    # each position's row: the inverse of the positions taken block by block
    rows = np.argsort(np.concatenate([np.empty(0, np.intp), *taken]))
    if faces is None:
        faces = homology.face_array(vertex_lists)
    return complexgen.FilteredComplex(np.array([value for value, _ in entries], dtype=float),
                                      block_classes, blocks, rows, faces)


def diagram(pairs):
    """A PersistenceDiagram of hand-made (dim, birth, death) tuples, made
    from its three arrays in the (dim, birth, death) order `reduce` gives."""
    dims, births, deaths = zip(*sorted(pairs)) if pairs else ((), (), ())
    return homology.PersistenceDiagram(np.array(dims, dtype=np.intp),
                                       np.array(births, dtype=float),
                                       np.array(deaths, dtype=float))


def mosaic_complex(ps):
    """A hand-made filtration over the mosaic of `ps`, in enumeration order
    and valued by circumradius: the simplices and values of a build, without
    its proof of criticality, so a detector can be checked on any point set."""
    simplices = complexgen.enumerate_mosaic(ps)
    radii = circumspheres_in_order(ps, [cs.vertices for cs in simplices]).radius
    return hand_made(zip(radii.tolist(), simplices))


def euler_characteristic_ok(filtration, eps=0.0):
    """Sanity identity at every filtration value of a FilteredComplex or
    a (value, vertices) list: the alternating simplex count equals the
    alternating sum of unreduced Betti numbers.  Both sides are counted by
    binary search in values sorted once, per dimension parity."""
    values, dims, _ = homology._arrays(filtration)
    pd = homology.reduce(filtration)
    cells = [np.sort(values[dims % 2 == parity]).tolist() for parity in (0, 1)]
    # per parity, the sorted births and deaths of the pairs ever alive
    live = [[(birth, death) for dim, birth, death in pd.pairs
             if dim % 2 == parity and birth < death] for parity in (0, 1)]
    births = [sorted(birth for birth, _ in pairs) for pairs in live]
    deaths = [sorted(death for _, death in pairs) for pairs in live]

    def chi(counts, x):
        return bisect.bisect_right(counts[0], x) - bisect.bisect_right(counts[1], x)

    for r in sorted(set(values.tolist())):
        x = r + eps
        if chi(cells, x) != chi(births, x) - chi(deaths, x):
            return False
    return True


def as_filtration(fc):
    """The (value, vertex tuple) list of a FilteredComplex, in filtration
    order, read from its entries."""
    return [(value, cs.vertices) for value, cs in fc.entries]


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


def rank_betti(fc, r, pmax=None, reduced=True, eps=0.0):
    """Test oracle for `homology.betti_of_subcomplex`: the Betti numbers of
    the sublevel complex at r (values <= r + eps) of a FilteredComplex, by
    boundary ranks of that sublevel alone.  It shares no code with
    `homology.reduce_columns`: no apparent pairs, no clearing, no diagram."""
    pmax = int(fc.dims().max(initial=0)) if pmax is None else pmax
    sublevel = as_filtration(fc)[:np.searchsorted(fc.values(), r + eps, side="right")]
    vec = _betti_by_rank(sublevel, pmax)
    if reduced:
        vec[0] = max(0, vec[0] - 1)
    return vec


def threshold(thresholds, cls):
    return complexgen.threshold_after(thresholds, cls)
