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


def reset_memos(mp):
    """Give `geometry` a fresh, empty memo through the MonkeyPatch `mp`,
    which puts the old one back when it is undone, and clear `verify`'s
    caches, so a run in the process starts cold."""
    mp.setattr(geometry, "_ball_memo", {})
    for cached in vars(verify).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty memos and cleared caches for one test (see `reset_memos`)."""
    reset_memos(monkeypatch)


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


def hand_made(entries):
    """A FilteredComplex of (value, ClassifiedSimplex) entries taken in
    their order, with a block per simplex size, as a loaded one has."""
    entries = list(entries)
    groups = blocks_by_size([cs.vertices for _, cs in entries])
    # each position's row: the inverse of the positions taken block by block
    rows = np.argsort(np.concatenate([np.empty(0, np.intp), *(g for g, _ in groups)]))
    touch, short = np.array([cs.cls for _, cs in entries], dtype=np.intp).reshape(-1, 2).T
    return complexgen.FilteredComplex(np.array([value for value, _ in entries], dtype=float),
                                      touch, short, [block for _, block in groups], rows)


def mosaic_complex(ps):
    """A hand-made filtration over the mosaic of `ps`, in enumeration order
    and valued by circumradius: the simplices and values of a build, without
    its proof of criticality, so a detector can be checked on any point set."""
    simplices = complexgen.enumerate_mosaic(ps)
    radii = circumspheres_in_order(ps, [cs.vertices for cs in simplices]).radius
    return hand_made(zip(radii.tolist(), simplices))


def threshold(thresholds, cls):
    return complexgen.threshold_after(thresholds, cls)
