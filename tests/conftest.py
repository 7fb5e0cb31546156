import functools

import pytest

from extremal_cech import complexgen, geometry, homology, verify
from extremal_cech.construct import build_validated
from extremal_cech.geometry import circumspheres


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


def mosaic_complex(ps):
    """A hand-made filtration over the mosaic of `ps`, in enumeration order
    and valued by circumradius: the simplices and values of a build, without
    its proof of criticality, so a detector can be checked on any point set."""
    simplices = complexgen.enumerate_mosaic(ps)
    radii = circumspheres(ps, [cs.vertices for cs in simplices]).radius
    return complexgen.FilteredComplex(list(zip(radii.tolist(), simplices)))


def threshold(thresholds, cls):
    return complexgen.threshold_after(thresholds, cls)
