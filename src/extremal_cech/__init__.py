"""Extremal point sets for Cech/Alpha complexes.

Constructs point-set families whose Cech complexes attain the maximal Betti
numbers allowed in their dimension, builds their filtrations, computes Z/2
persistence, and verifies the radius formulas, orderings, criticality and
Betti counts the families are designed to realize.
"""

from .construct import (
    KIND_3D,
    KIND_EVEN,
    KIND_ODD,
    KIND_SUSPENDED,
    PointSet,
    build_3d,
    build_even,
    build_odd,
    build_suspended,
    build_validated,
    half_edge,
    load_points,
    min_n,
    save_points,
)
from .complexgen import (
    ClassifiedSimplex,
    FilteredComplex,
    build_filtration,
    criticality_check,
    pick_thresholds,
    radius_value,
)
from .geometry import (
    Sphere,
    barycentric_interior,
    circumsphere,
    is_empty_sphere,
    min_enclosing_ball,
    squared_distance,
)
from .homology import (
    PersistenceDiagram,
    betti_at,
    betti_of_subcomplex,
    betti_profile,
    reduce,
)

__version__ = "0.1.0"
