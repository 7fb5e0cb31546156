"""Brute-force ground truth, independent of the combinatorial enumeration.

Two oracles:

* the Cech complex at radius r, whose Betti numbers must agree with the
  alpha sublevel complex at equal radius.  It takes miniballs of vertex
  subsets (up to a size budget);
* a Delaunay-membership test by empty-sphere feasibility: a vertex set spans
  a mosaic face iff some sphere through it keeps every other point outside
  with positive margin.  The first sphere tried is the smallest one through
  the vertices, whose center is the equidistant center nearest a vertex; it
  shows every critical simplex to be a face, and every simplex of these
  mosaics is critical.  Where it fails, a small linear program in the
  sphere center searches the rest.  The LP starts feasible, at the
  equidistant center nearest the origin with the margin shifted by the
  smallest clearance there.  Either way the verdict is the clearance
  measured at the center found, not the LP's objective.  Of the 130
  subsets `oracle --kind even --k 2 --n 5` tests, 10 reach the LP.  The
  test keeps its own LP and arithmetic and never calls the emptiness
  kernel of `geometry` that the build uses.

Both grow their candidates from accepted faces: a subset of size m is
tested only when each of its m facets was accepted at size m-1.  A Cech
value is the max of the subset's own miniball radius and its facets'
values, so a subset with a facet above r is above r too, and the grown
complex is exactly the one a scan of all subsets keeps.  The Delaunay
complex is a simplicial complex (Edelsbrunner & Harer, *Computational
Topology*, 2010, ch. III): the empty sphere of a face, nudged so that one
vertex falls outside, is an empty sphere of the facet without that vertex,
so no face of the mosaic has a facet outside it.  The test decides emptiness up to a
clearance tolerance, so the tests keep the scan of every subset as the
reference and require the same `MatchReport` from the grown run.

The Cech oracle answers several radii on one point set with one complex:
a subset's value does not depend on the cut, so the complex at r is the
prefix of the complex at R >= r, and the diagram of a prefix is the prefix
of the diagram.  It builds the complex once, at the largest radius, reduces
it once and reads every radius from that diagram.  Its only memo is the one
in `geometry`, of each boundary solve of the Welzl recursion, which the
miniball of a subset grown by one vertex replays from the miniball of the
subset.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import complexgen, homology
from .construct import KIND_EVEN, PointSet, check_below_even_top
from .geometry import DEFAULT_TOL, min_enclosing_ball
from .lp import OPTIMAL, solve_lp_max

__all__ = [
    "BudgetExceededError",
    "EqualityReport",
    "MatchReport",
    "cech",
    "cech_betti",
    "cech_equals_alpha_betti",
    "delaunay_face_test",
    "enumeration_matches_oracle",
]

DEFAULT_BUDGET = 10_000_000
_LP_BOX = 10.0  # all constructions live well inside this box


class BudgetExceededError(RuntimeError):
    """Subset enumeration would exceed the configured budget."""


def _check_maxdim(dim: int, maxdim: int) -> None:
    """Refuse a maxdim outside 0..dim, where no simplex exists or none fits
    in the ambient space of dimension dim."""
    if not 0 <= maxdim <= dim:
        raise ValueError(f"maxdim {maxdim} is outside 0..{dim}")


def _check_budget(n_points: int, maxdim: int, budget: int) -> None:
    """Refuse an input with more than `budget` subsets of size <= maxdim+1.

    The budget counts all those subsets, not the miniballs or LPs solved:
    both oracles test only subsets whose facets were accepted, but the
    inputs refused are the same as for a scan of every subset, at every
    radius.  A budget below 1 admits no subset and is refused as a bad
    parameter."""
    if budget < 1:
        raise ValueError(f"budget {budget} is below 1")
    total = sum(math.comb(n_points, m) for m in range(1, maxdim + 2))
    if total > budget:
        raise BudgetExceededError(
            f"{total} subsets exceed the budget of {budget}")


def _grow_faces(n_points: int, maxdim: int, accept) -> set[tuple[int, ...]]:
    """The subsets of size <= maxdim+1 that `accept` takes.

    Subsets are visited by size, each as an accepted subset plus one larger
    vertex, and `accept` is called only on a subset whose facets were all
    accepted.  For a predicate closed under taking faces these are all the
    subsets it takes.
    """
    kept: set[tuple[int, ...]] = set()
    layer = [()]
    for size in range(1, maxdim + 2):
        grown = []
        for base in layer:
            for v in range(base[-1] + 1 if base else 0, n_points):
                verts = base + (v,)
                if size > 1 and not all(
                        f in kept for f in itertools.combinations(verts, size - 1)):
                    continue
                if accept(verts):
                    kept.add(verts)
                    grown.append(verts)
        layer = grown
    return kept


def _miniball_radii(points: np.ndarray, maxdim: int, r: float):
    """Miniball radius per subset in the Cech complex at r, made exactly
    monotone under face inclusion (a face's value may exceed its coface's by
    floating-point noise when both determine the same ball).

    A subset's value is the max of its own radius and its facets' values,
    so one with a facet above the cut lies above it too: growing from kept
    faces drops only values the cut discards, and every kept value is
    computed exactly as a scan of all subsets computes it.
    """
    cut = r + DEFAULT_TOL.abs_eps
    values: dict[tuple[int, ...], float] = {}

    def accept(verts):
        value = min_enclosing_ball(points[list(verts)]).radius
        if len(verts) > 1:
            value = max(value, max(values[f] for f in
                                   itertools.combinations(verts, len(verts) - 1)))
        if value <= cut:
            values[verts] = value
            return True
        return False

    _grow_faces(len(points), maxdim, accept)
    return values


def cech(points: np.ndarray, r: float, maxdim: int,
         budget: int = DEFAULT_BUDGET) -> list[tuple[float, tuple[int, ...]]]:
    """Cech complex of the points, one per row, at radius r, up to dimension
    maxdim: miniballs over every subset whose facets all lie in the complex
    at r.  Returns the (value, vertices) filtration `homology.reduce` reads,
    sorted by (value, size, vertices)."""
    _check_maxdim(points.shape[1], maxdim)
    _check_budget(len(points), maxdim, budget)
    kept = [(value, verts) for verts, value in _miniball_radii(points, maxdim, r).items()]
    kept.sort(key=lambda vs: (vs[0], len(vs[1]), vs[1]))
    return kept


def cech_betti(points: np.ndarray, radii, pmax: int,
               budget: int = DEFAULT_BUDGET) -> list[list[int]]:
    """Betti numbers beta_0..beta_pmax of the Cech complex of the points at
    each radius, all read from the diagram of the complex at the largest
    radius.  Needs simplices one dimension above pmax to witness deaths."""
    cx = cech(points, max(radii), min(pmax + 1, points.shape[1]), budget)
    return _betti_vectors(homology.reduce(cx), radii, pmax)


def _betti_vectors(pd: homology.PersistenceDiagram, radii, pmax: int) -> list[list[int]]:
    """beta_0..beta_pmax at each radius, read from `pd` with abs_eps slack."""
    return [[homology.betti_at(pd, p, r, DEFAULT_TOL.abs_eps) for p in range(pmax + 1)]
            for r in radii]


@dataclass
class EqualityReport:
    radius: float
    cech_vector: list[int]
    alpha_vector: list[int]

    @property
    def ok(self) -> bool:
        return self.cech_vector == self.alpha_vector


def cech_equals_alpha_betti(ps: PointSet, radii, pmax: int, fc: complexgen.FilteredComplex,
                            budget: int = DEFAULT_BUDGET) -> list[EqualityReport]:
    """Compare Betti vectors of the Cech complex and of `fc`, the alpha
    filtration of `ps`, at each radius (both share the homotopy type of the
    union of balls, so the vectors must agree).  Each side is reduced once
    for all radii, and both are read alike: `betti_at` per radius and
    dimension, with abs_eps slack."""
    check_below_even_top(ps.kind, max(radii, default=0.0))
    cvecs = cech_betti(ps.points, radii, pmax, budget)
    avecs = _betti_vectors(homology.reduce(fc), radii, pmax)
    return [EqualityReport(*row) for row in zip(radii, cvecs, avecs)]


def delaunay_face_test(ps: PointSet, vertices) -> bool:
    """True iff some sphere passes through the given vertices with every
    other point strictly farther out.  An id list that is not a simplex
    of `ps`, one that is empty, repeats an id or has an id outside
    0..len(ps)-1, raises ValueError.

    The clearance of a non-vertex b at a center z, |p_b - z|^2 - |a0 - z|^2
    with a0 a vertex, is the power of b for the sphere about z through a0:
    positive iff b lies outside it, and linear in z.  The centers
    equidistant from the vertices are z = z0 + V y, with z0 the one nearest
    the origin (see `_equidistant_centers`).  A vertex set with no such
    center, or whose z0 lies outside the box |z|_inf <= _LP_BOX, where
    every equidistant center lies farther than _LP_BOX from the origin, is
    refused first.  The first center tried is z* = z0 + V V^T (a0 - z0),
    the equidistant center nearest a0: the center of the smallest sphere
    through the vertices, which shows every critical simplex to be a face.
    Only where z* fails does the LP run (see `_face_lp`): it maximizes the
    smallest clearance over the centers in the box, from y = 0.  Either
    way the rule is one: a center in the box whose clearance, measured
    anew, is above abs_eps, the threshold of the geometry module's strict
    emptiness test, so an LP that stops at an infeasible point cannot
    accept a non-face, and z* accepts only where the LP's optimum would.
    """
    abs_eps = DEFAULT_TOL.abs_eps
    centers = _equidistant_centers(ps, vertices)
    if centers is None:
        return False  # no equidistant center at all
    a0, others, z0, null = centers
    if not len(others):
        return True
    if np.any(np.abs(z0) > _LP_BOX):
        return False

    z = z0 + null @ (null.T @ (a0 - z0))
    if np.all(np.abs(z) <= _LP_BOX) and _clearances(others, a0, z).min() > abs_eps:
        return True

    status, x, _ = solve_lp_max(*_face_lp(a0, others, z0, null))
    if status != OPTIMAL:
        return False
    z = z0 + null @ x[:-1]
    return bool(_clearances(others, a0, z).min() > abs_eps)


def _equidistant_centers(ps: PointSet, vertices):
    """(a0, others, z0, V) for the vertices of `ps`, or None when no center
    is equidistant from them; an id list that is empty, repeats an id or
    has an id outside 0..len(ps)-1 raises ValueError.  a0 is the lowest
    vertex, `others` the coordinates of every other point, and the
    equidistant centers z0 + V y, with z0 the one nearest the origin and V
    an orthonormal basis of the directions the rank cut at rel_eps leaves
    free."""
    rel_eps = DEFAULT_TOL.rel_eps
    verts = tuple(sorted(int(v) for v in vertices))
    if not verts or verts[0] < 0 or verts[-1] >= len(ps) or len(set(verts)) < len(verts):
        raise ValueError(f"not a simplex of points 0..{len(ps) - 1}: {verts}")
    pts = ps.points
    a0 = pts[verts[0]]

    # equalities 2 <z, a0 - a_i> = |a0|^2 - |a_i|^2 solved as z = z0 + V y
    if len(verts) > 1:
        eq_lhs = 2.0 * (a0 - pts[list(verts[1:])])
        eq_rhs = np.array([float(a0 @ a0 - pts[i] @ pts[i]) for i in verts[1:]])
        z0, *_ = np.linalg.lstsq(eq_lhs, eq_rhs, rcond=None)
        if np.linalg.norm(eq_lhs @ z0 - eq_rhs) > rel_eps * (1.0 + np.linalg.norm(eq_rhs)):
            return None
        _, sv, vt = np.linalg.svd(eq_lhs)
        rank = int(np.sum(sv > rel_eps * sv[0]))
        null = vt[rank:].T  # (d, q)
    else:
        z0 = np.zeros(ps.dim)
        null = np.eye(ps.dim)

    off_sphere = np.ones(len(ps), dtype=bool)
    off_sphere[list(verts)] = False
    return a0, pts[off_sphere], z0, null


def _face_lp(a0: np.ndarray, others: np.ndarray, z0: np.ndarray, null: np.ndarray):
    """(c, A, b) for `solve_lp_max`: the LP over (y, m') that maximizes the
    smallest clearance m = m' + shift at the centers z0 + V y in the box,
    with shift the smallest clearance at z0.  Per non-vertex b,
      m' - <w_b, V y> <= clearance_b(z0) - shift,  w_b = 2 (a0 - p_b),
    plus +-V y <= box -+ z0.  With z0 in the box every right-hand side is
    nonnegative, so the start y = 0, m' = 0 is feasible."""
    d, q = null.shape
    clear0 = _clearances(others, a0, z0)
    w_null = 2.0 * (a0 - others) @ null
    A = np.zeros((len(others) + 2 * d, q + 1))
    A[:len(others), :q] = -w_null
    A[:len(others), q] = 1.0
    A[len(others):len(others) + d, :q] = null
    A[len(others) + d:, :q] = -null
    b = np.concatenate([clear0 - clear0.min(), _LP_BOX - z0, _LP_BOX + z0])
    c = np.zeros(q + 1)
    c[q] = 1.0
    return c, A, b


def _clearances(others: np.ndarray, a0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|p_b - z|^2 - |a0 - z|^2 per row p_b of `others`: how far, in squared
    length, each point lies outside the sphere about z through a0."""
    return ((others - z) ** 2).sum(axis=1) - float((a0 - z) @ (a0 - z))


@dataclass
class MatchReport:
    """Symmetric difference between the combinatorial enumeration and the
    empty-sphere oracle."""

    n_enumerated: int
    n_oracle: int
    missing: list[tuple[int, ...]]  # oracle says face, enumeration lacks it
    extra: list[tuple[int, ...]]    # enumeration emits it, oracle denies it

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def enumeration_matches_oracle(ps: PointSet, maxdim: int,
                               budget: int = DEFAULT_BUDGET) -> MatchReport:
    """Compare the enumerated mosaic (up to maxdim) against the subsets
    passing the empty-sphere feasibility test.

    The test runs only on subsets whose facets all passed, since a face of
    a Delaunay face is a Delaunay face.  The budget still counts all
    C(N, <= maxdim+1) subsets, so the inputs a scan of every subset refuses
    are refused here too.  On the even kind the oracle leaves out the top
    cell conv(A), the set of all points, as the mosaic does; it is a
    candidate only when it has at most maxdim+1 points, as at k=1 n=3."""
    _check_maxdim(ps.dim, maxdim)
    _check_budget(len(ps), maxdim, budget)
    enumerated = {cs.vertices for cs in complexgen.enumerate_mosaic(ps)
                  if cs.dim <= maxdim}
    oracle_faces = _grow_faces(len(ps), maxdim, lambda verts: delaunay_face_test(ps, verts))
    if ps.kind == KIND_EVEN:
        oracle_faces.discard(tuple(range(len(ps))))
    missing = sorted(oracle_faces - enumerated)
    extra = sorted(enumerated - oracle_faces)
    return MatchReport(len(enumerated), len(oracle_faces), missing, extra)
