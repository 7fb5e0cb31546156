"""End-to-end verification of the quantitative claims the constructions
realize: exact Betti numbers, closed-form radii, interval bounds,
radius-class orderings, criticality, convergence orders of the
second-order radius expansions, and the suspended-void count.

Every per-class count and even radius comes from `construct.class_table`.
An even or odd Betti claim passes only if the whole reduced Betti vector
at its threshold is the exact one (`_exact_betti`): beta_p from the Euler
characteristic of the classes up to the one read, the spheres of the even
kind's polyhedral join above p, and nothing below p.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import complexgen, construct, homology, oracle
from .complexgen import threshold_after
from .construct import (
    KIND_3D,
    KIND_EVEN,
    KIND_ODD,
    KIND_SUSPENDED,
    PointSet,
    build_validated,
    half_edge,
)
from .geometry import AffineDegeneracyError, circumspheres
from .geometry import affine_distance, circumsphere  # only the benchmark's trace reads these

__all__ = [
    "PASS",
    "FAIL",
    "SKIPPED",
    "ClaimResult",
    "claims_csv",
    "claims_lines",
    "verify_betti_3d",
    "verify_betti_even",
    "verify_betti_odd",
    "verify_hypotheses",
    "verify_radius_formulas",
    "verify_suspension",
]

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

# delta grid for the convergence studies (each value half the previous)
DELTA_GRID = (1e-2, 5e-3, 2.5e-3, 1.25e-3)

# absolute floor below which a measured discrepancy is indistinguishable
# from double-precision noise in the squared radii
NOISE_FLOOR = 1e-12

SLOPE_THIRD_ORDER = 3.0 - 0.3
SLOPE_SECOND_ORDER = 2.0 - 0.3
SLOPE_FOURTH_ORDER = 4.0 - 0.4


@dataclass
class ClaimResult:
    claim_id: str
    params: dict
    expected: object
    observed: object
    status: str
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL


def _claim(claim_id, params, expected, observed, ok, detail="") -> ClaimResult:
    return ClaimResult(claim_id, params, expected, observed, PASS if ok else FAIL, detail)


def claims_lines(claims: list[ClaimResult]) -> list[str]:
    out = []
    for c in sorted(claims, key=lambda c: c.claim_id):
        params = ",".join(f"{k}={v}" for k, v in sorted(c.params.items()))
        line = f"{c.status:7s} {c.claim_id} [{params}] expected={c.expected} observed={c.observed}"
        if c.detail:
            line += f" ({c.detail})"
        out.append(line)
    return out


def claims_csv(claims: list[ClaimResult]) -> str:
    """The claims as CSV rows sorted by id; a field with a comma, such as
    the id `hyp/radius/class(1, 0)`, is quoted."""
    import csv
    import io

    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["claim_id", "params", "expected", "observed", "status"])
    for c in sorted(claims, key=lambda c: c.claim_id):
        params = ";".join(f"{k}={v}" for k, v in sorted(c.params.items()))
        out.writerow([c.claim_id, params, c.expected, c.observed, c.status])
    return buf.getvalue()


@functools.lru_cache(maxsize=None)
def _validated(kind: str, k: int | None, n: int):
    """Validated construction at the default delta, cached across claims.
    Every caller passes all three arguments positionally, so each (kind, k,
    n) has one cache key."""
    return build_validated(kind, k=k, n=n)


@functools.lru_cache(maxsize=None)
def _pipeline(kind: str, k: int | None, n: int):
    """`_validated` plus its reduced persistence diagram, cached across
    claims."""
    ps, fc, thresholds = _validated(kind, k, n)
    return ps, fc, thresholds, homology.reduce(fc)


def _betti_at_class(pd, thresholds, cls, p) -> int:
    """Betti number at the gap midpoint after a class, with no slack: the
    gaps at 3d n >= 200 are narrower than abs_eps."""
    return homology.betti_at(pd, p, threshold_after(thresholds, cls))


# ---------------------------------------------------------------------------
# exact three-dimensional counts


def verify_betti_3d(n: int) -> list[ClaimResult]:
    """Exact first/second Betti numbers and the simplex census of the
    two-linked-circles construction, checked by the Cech oracle at n <= 3."""
    ps, fc, thresholds, pd = _pipeline(KIND_3D, 1, n)
    params = {"n": n, "delta": ps.delta}
    claims = []

    b1 = _betti_at_class(pd, thresholds, (1, -1), 1)
    claims.append(_claim("3d/b1", params, (n + 1) ** 2 - 1, b1, b1 == (n + 1) ** 2 - 1))
    b2 = _betti_at_class(pd, thresholds, (1, 0), 2)
    claims.append(_claim("3d/b2", params, n**2, b2, b2 == n**2))

    got = np.bincount(fc.dims(), minlength=4).tolist()
    rows = construct.class_table(KIND_3D, 1, n)
    for d, name in enumerate(("vertices", "edges", "triangles", "tetrahedra")):
        want = sum(count for _, _, dim, count, _ in rows if dim == d)
        claims.append(_claim(f"3d/census/{name}", params, want, got[d], got[d] == want))

    if n <= 3:
        rho1 = threshold_after(thresholds, (1, -1))
        rho2 = threshold_after(thresholds, (1, 0))
        at_rho1, at_rho2 = oracle.cech_betti(ps.points, (rho1, rho2), 2)
        c1, c2 = at_rho1[1], at_rho2[2]
        claims.append(_claim("3d/oracle/b1", params, b1, c1, c1 == b1))
        claims.append(_claim("3d/oracle/b2", params, b2, c2, c2 == b2))
    return claims


# ---------------------------------------------------------------------------
# exact even and odd counts


def _exact_betti(kind: str, k: int, n: int, cls: tuple[int, int], p: int) -> list[int]:
    """Reduced Betti vector of the even or odd mosaic closed by class `cls`,
    where beta_p is claimed: zero below p, beta_p, and the homology above p.

    The rows of `construct.class_table` up to `cls` give the reduced Euler
    characteristic chi.  On the even kind the simplices on at most t
    circles, t = cls[0], form a polyhedral join of the n-gons, a wedge of
    C(k,j) C(k-j-1,t-j) spheres S^(t+j-1) by the wedge lemma (Ziegler and
    Zivaljevic 1993); the cells added at the class have dimension <= p and
    leave that homology above p in place.  The odd kind has none above p."""
    rows, t = construct.class_table(kind, k, n), cls[0]
    vector = [0] * (rows[-1][2] + 1)  # up to the top class's dimension
    for j in range(max(2, p - t + 2), t + 1 if kind == KIND_EVEN else 0):  # t+j-1 > p
        vector[t + j - 1] = comb(k, j) * comb(k - j - 1, t - j)
    chi = -1 + sum((-1) ** dim * count
                   for touch, short, dim, count, _ in rows if (touch, short) <= cls)
    vector[p] = (-1) ** p * chi - sum((-1) ** i * b for i, b in enumerate(vector[p + 1:], 1))
    return vector


def _betti_claims(kind: str, k: int, n: int) -> list[ClaimResult]:
    """One claim per p, read after the first class that touches p+1 circles
    in the low range, and walking the classes that touch every circle in
    the high range."""
    _, _, thresholds, pd = _pipeline(kind, k, n)
    top = k - 1 if kind == KIND_EVEN else k
    claims = []
    for p in range(2 * top + 1):
        cls = (p, -1) if p <= top else (top, p - top - 1)
        expected = _exact_betti(kind, k, n, cls, p)
        observed = [_betti_at_class(pd, thresholds, cls, q) for q in range(len(expected))]
        ok = observed == expected
        claims.append(_claim(f"{kind}/b{p}", {"k": k, "n": n}, expected[p], observed[p], ok,
                             f"after class {cls}" + ("" if ok else f", vector {observed}")))
    return claims


def verify_betti_even(k: int, n: int) -> list[ClaimResult]:
    """Reduced Betti numbers of the even construction against the exact
    Euler count of `_exact_betti`."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return _betti_claims(KIND_EVEN, k, n)


def verify_betti_odd(k: int, n: int) -> list[ClaimResult]:
    """Reduced Betti numbers of the odd construction against the exact
    Euler count of `_exact_betti`, and at k=1 against the 3d pipeline."""
    claims = _betti_claims(KIND_ODD, k, n)
    if k == 1:
        # the dedicated 3d pipeline must agree with the odd one at k=1
        _, _, th3, pd3 = _pipeline(KIND_3D, 1, n)
        _, _, tho, pdo = _pipeline(KIND_ODD, 1, n)
        for p, cls in ((1, (1, -1)), (2, (1, 0))):
            a = _betti_at_class(pd3, th3, cls, p)
            b = _betti_at_class(pdo, tho, cls, p)
            claims.append(_claim(f"odd/equals-3d/b{p}", {"n": n}, a, b, a == b))
    return claims


# ---------------------------------------------------------------------------
# suspension: voids in even dimension from the odd set one dimension down


# Apex height above the verifying radius rho, in units of the half edge eps
# (verify_suspension gives the argument).
APEX_OFFSET = 0.2


def verify_suspension(k: int, n: int) -> list[ClaimResult]:
    """beta_{2k-1} of the suspended set at the verifying radius rho: zero
    without the apexes, equal to the hyperplane set's void count, and equal
    to n^k, the top count of the odd set for k-1, one dimension up.

    The apexes sit at h = rho + APEX_OFFSET * eps, fixed before any Betti
    number is computed.  As h > rho, no subset holding both apexes fits in
    a rho-ball, so the complex at rho is the two apex cones over the
    simplices whose cones stay below rho.  If that is every simplex below
    rho, it is the suspension of the hyperplane complex, and each void moves
    one dimension up.  At k=2, to leading order, a simplex below rho has
    r^2 <= 1/4 + eps^2/4, and rho^2 = 1/4 + 3 eps^2/8 lies midway to the
    next class.  The cone over a simplex centered on the apex axis stays
    below rho while (h - rho)^2 <= rho^2 - r^2, that is while
    APEX_OFFSET^2 <= 1/8.  At n = 2..7, offsets up to 0.3 give n^2 and 0.36
    gives 0.

    An apex below rho lets sets with both apexes in.  At h = 0.5, where
    rho - 0.5 is about 3 eps^2/8, that costs one void at odd n: the void spanned
    by the two middle points of each circle is centered on the apex axis,
    each triangle of its boundary fits in one ball with both apexes, of
    radius about 1/2 + eps^2/4 < rho, and those 4-simplices fill its
    suspended class, which leaves n^2 - 1.  At even n the middle of each
    circle is a point, not an edge, so no void is centered on the axis.
    """
    if k != 2:
        raise ValueError(f"k={k} is not 2, the only k of the suspension claims (desk scale)")
    ps, _, thresholds, pd = _pipeline(KIND_ODD, k - 1, n)
    p = 2 * k - 1  # the suspended voids' dimension
    rho = threshold_after(thresholds, (k - 1, k - 2))
    expected = homology.betti_at(pd, p - 1, rho)
    sps = construct.build(KIND_SUSPENDED, k, n, ps.delta, rho + APEX_OFFSET * half_edge(ps))
    observed = oracle.cech_betti(sps.points, [rho], p)[0][p]
    # the apexes are the last two points by construction
    no_apex = oracle.cech_betti(sps.points[:-2], [rho], p)[0][p]
    params = {"k": k, "n": n}
    return [
        _claim("suspension/no-apex", params, 0, no_apex, no_apex == 0),
        _claim("suspension/voids", params, expected, observed, observed == expected,
               f"h={sps.h:.6g}, rho={rho:.6g}"),
        _claim("suspension/band", params, n**k, observed, observed == n**k,
               f"n^{k}, the top count of odd k={k - 1} one dimension up"),
    ]


# ---------------------------------------------------------------------------
# closed-form radii and interval bounds


def _even_class_radii(ps: PointSet, fc):
    """Max relative error of the values of `fc`, the validated filtration of
    the even set `ps`, against the closed-form circumradii of
    `construct.class_table`, per class.  Every simplex of a validated build
    is critical, so its value is its circumradius.  A class's error is at
    its least or greatest value: rounding x - R keeps the order of the x."""
    ranges, errs = fc.class_ranges(), {}
    for t, s, _, _, radius in construct.class_table(KIND_EVEN, ps.k, ps.n):
        lo, hi, _ = ranges[(t, s)]
        err = max(abs(lo - radius), abs(hi - radius))
        errs[(t, s)] = err / radius if radius else err
    return errs


def verify_radius_formulas(k: int, n: int) -> list[ClaimResult]:
    """Closed-form circumradii for the even families, the numeric bounds on
    the ideal triangle/tetrahedron size, and the interval bounds for the
    three-dimensional construction."""
    if k < 2:
        raise ValueError("k must be >= 2")
    claims = []
    params = {"k": k, "n": n}

    ps, fc, _ = _validated(KIND_EVEN, k, n)
    for cls, err in sorted(_even_class_radii(ps, fc).items()):
        claims.append(_claim(
            f"radii/even/class{cls}", params, "rel err <= 1e-9", f"{err:.3g}",
            err <= 1e-9))

    s = half_edge(ps)
    radius = {row[:2]: row[4] for row in construct.class_table(KIND_EVEN, k, n)}
    two_r, two_R = 2.0 * radius[(1, 0)], 2.0 * radius[(1, 1)]  # triangle, tetrahedron
    ok_r = 1.0 + 0.5 * s * s < two_r <= 1.0 + s * s / (2.0 - 2.0 * s * s)
    if 2.0 - 2.0 * s * s > 1.9:
        ok_r = ok_r and two_r < 1.0 + (10.0 / 19.0) * s * s
    ok_R = two_R <= 1.0 + s * s
    if s * s <= 0.1:
        ok_R = ok_R and 1.0 + (10.0 / 11.0) * s * s <= two_R
    claims.append(_claim("radii/triangle-diameter-bounds", params,
                         "1+s^2/2 < 2r <= 1+s^2/(2-2s^2)", f"{two_r:.12g}", ok_r))
    claims.append(_claim("radii/tetra-diameter-bounds", params,
                         "1+(10/11)s^2 <= 2R <= 1+s^2", f"{two_R:.12g}", ok_R))

    r_tiny = {row[:2]: row[4] for row in construct.class_table(KIND_EVEN, 2, 1000)}[(1, 0)]
    claims.append(_claim("radii/triangle-limit", {"n": 1000}, 0.5, f"{r_tiny:.12g}",
                         abs(r_tiny - 0.5) < 1e-5))

    claims.extend(_threed_interval_claims(n))
    return claims


def _swept(kind: str, k: int, n: int, delta: float):
    """Point set and filtration at one delta of a sweep, which reads values
    alone and picks no thresholds."""
    ps = construct.build(kind, k, n, delta)
    return ps, complexgen.build_filtration(ps)


def _threed_interval_claims(n: int) -> list[ClaimResult]:
    """Edge/triangle/tetrahedron circumradius intervals for the 3d family.
    Constant-free bounds are asserted outright at every grid delta; the
    triangle upper bound's fourth-order slack is checked as a slope fit."""
    edge_ok, tri_lo_ok, tet_lo_ok = True, True, True
    excesses, epss = [], []
    params = {"n": n}
    for delta in DELTA_GRID:
        ps, fc = _swept(KIND_3D, 1, n, delta)
        eps = half_edge(ps)
        # long edges, triangles and tetrahedra: (lo, hi, count) each
        edges, tris, tets = map(fc.class_ranges().__getitem__, ((1, -1), (1, 0), (1, 1)))
        edge_ok &= 0.5 - 1e-15 <= edges[0] and edges[1] <= 0.5 * (1.0 + delta**4) + 1e-15
        tri_lo_ok &= tris[0] >= 0.5 + 0.25 * eps * eps - 1e-15
        tet_lo_ok &= tets[0] >= 0.5 + (5.0 / 11.0) * eps * eps - 1e-15
        excesses.append(max(0.0, tris[1] - (0.5 + 0.25 * eps * eps)))
        epss.append(delta)
    claims = [
        _claim("radii/3d/edge-interval", params, "1/2 <= R_E <= (1+delta^4)/2",
               "all edges", edge_ok),
        _claim("radii/3d/triangle-lower", params, "R_F >= 1/2 + eps^2/4",
               "all triangles", tri_lo_ok),
        _claim("radii/3d/tetra-lower", params, "R_T >= 1/2 + (5/11) eps^2",
               "all tetrahedra", tet_lo_ok),
    ]
    claims.append(_slope_claim("radii/3d/triangle-upper-order", params, epss,
                               excesses, SLOPE_FOURTH_ORDER))
    return claims


def _slope_claim(claim_id, params, xs, errs, threshold) -> ClaimResult:
    """Log-log slope of errs against xs must reach the claimed order; points
    at the double-precision noise floor are excluded, and a discrepancy that
    never rises above the floor passes outright."""
    if max(errs) < NOISE_FLOOR:
        return ClaimResult(claim_id, params, f"order >= {threshold:g}",
                           "below noise floor", PASS, f"max err {max(errs):.2g}")
    pts = [(x, e) for x, e in zip(xs, errs) if e > NOISE_FLOOR / 100.0]
    if len(pts) < 2:
        return ClaimResult(claim_id, params, f"order >= {threshold:g}", "too few points",
                           SKIPPED, "errors straddle the noise floor")
    lx = np.log([p[0] for p in pts])
    le = np.log([p[1] for p in pts])
    slope = float(np.polyfit(lx, le, 1)[0])
    return _claim(claim_id, params, f"order >= {threshold:g}", f"{slope:.3f}",
                  slope >= threshold)


# ---------------------------------------------------------------------------
# convergence of the second-order radius expansions


def _facet_distances(points: np.ndarray, block: np.ndarray, centers: np.ndarray):
    """(h2, dist2), two (b, m) arrays for a (b, m) vertex-id block, m >= 2,
    with circumcenters `centers`: the squared distance of each vertex, and
    of the simplex's center, to the affine hull of the facet opposite that
    vertex.  One batch per dropped vertex: a stacked QR of the facet's edge
    vectors gives each distance as the residual of a projection, as
    `affine_distance` does by least squares.  The closed forms from the
    Gram inverse of the simplex's own edges cancel catastrophically where
    those edges are nearly parallel."""
    m = block.shape[1]
    verts = points[block]
    h2, dist2 = np.empty((len(block), m)), np.empty((len(block), m))
    for drop in range(m):
        rest = np.delete(verts, drop, axis=1)
        q, _ = np.linalg.qr((rest[:, 1:] - rest[:, :1]).transpose(0, 2, 1))
        for out_col, x in ((h2, verts[:, drop]), (dist2, centers)):
            y = x - rest[:, 0]
            resid = y - np.einsum("bij,bkj,bk->bi", q, q, y)
            out_col[:, drop] = np.einsum("bi,bi->b", resid, resid)
    return h2, dist2


def _hypothesis_errors(ps: PointSet, fc):
    """Max absolute discrepancies, per simplex class, between the measured
    squared radii/heights/offsets of an odd construction and the
    second-order expansions around the regular-simplex values.  Each block
    is one class (ell, j), so each discrepancy is one numpy maximum over
    the block's simplices, or over their vertices that are paired, or not,
    on their circle; a class with no such vertex records none."""
    eps2 = half_edge(ps) ** 2
    errs: dict[str, dict[tuple[int, int], float]] = {
        "radius": {}, "center_noshort": {}, "center_short": {},
        "pyramid_height": {}, "pyramid_offset": {}, "bipyramid_offset": {},
    }

    def record(kind, cls, err):
        if err.size:
            errs[kind][cls] = max(errs[kind].get(cls, 0.0), float(np.abs(err).max()))

    circle = ps.labels[:, 0]
    classes, blocks, _ = fc.blocks()
    for cls, block in zip(classes, blocks):
        ell, j = cls
        batch = circumspheres(ps, block)
        if batch.degenerate.any():
            raise AffineDegeneracyError("points are affinely dependent beyond tolerance")
        r_ell2 = construct.regular_simplex_circumradius_sq(ell)
        record("radius", cls, batch.radius**2 - r_ell2 - (j + 1) * eps2 / (ell + 1) ** 2)
        if block.shape[1] < 2:
            continue

        vertex_h2, facet_dist2 = _facet_distances(ps.points, block, batch.center)
        d_s2 = facet_dist2.min(axis=1)
        if j == -1:
            record("center_noshort", cls, d_s2 - construct.regular_simplex_inradius_gap_sq(ell))
        else:
            record("center_short", cls, d_s2 - eps2 / (ell + 1) ** 2)

        # one consecutive pair at most per circle: paired iff sharing a circle
        on = circle[block]
        paired = (on[:, :, None] == on[:, None, :]).sum(axis=2) > 1
        if ell >= 1:
            h_ell2 = construct.regular_simplex_height_sq(ell)
            record("pyramid_height", cls, vertex_h2[~paired] - h_ell2 + (j + 1) * eps2 / ell**2)
            d_ell2 = construct.regular_simplex_inradius_gap_sq(ell)
            shift = (2 * ell + 1) * (j + 1) * eps2 / (ell**2 * (ell + 1) ** 2)
            record("pyramid_offset", cls, facet_dist2[~paired] - d_ell2 + shift)
        record("bipyramid_offset", cls, facet_dist2[paired] - eps2 / (ell + 1) ** 2)
    return errs


def _bisector_violations(ps: PointSet, fc, bound: float) -> int:
    """Count vertices whose distance to the bisector hyperplane of a mosaic
    edge they are long-connected to exceeds the cubic bound."""
    b, c = np.vstack([np.empty((0, 2), np.intp),
                      *(block for block in fc.blocks()[1] if block.shape[1] == 2)]).T
    pts, circle = ps.points, ps.labels[:, 0]
    diffs = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("abi,abi->ab", diffs, diffs)
    far = (circle != circle[b, None]) & (circle != circle[c, None])
    num = np.abs(dist2[b] - dist2[c])
    gap = np.sqrt(dist2[b, c])
    return int(np.count_nonzero(far & (num / (2.0 * gap[:, None]) > bound + 1e-15)))


def verify_hypotheses(k: int, n: int) -> list[ClaimResult]:
    """Slope fits of the expansion errors across the delta grid: third order
    for the squared circumradius and the pyramid/bi-pyramid terms, second
    order for the circumcenter depth of short-edge-free simplices, plus the
    cubic bisector bound with zero violations."""
    params = {"k": k, "n": n}
    per_delta = []
    epss = []
    bisector_bad = 0
    for delta in DELTA_GRID:
        ps, fc = _swept(KIND_ODD, k, n, delta)
        per_delta.append(_hypothesis_errors(ps, fc))
        epss.append(half_edge(ps))
        bisector_bad += _bisector_violations(ps, fc, n * delta**3 / 2.0)

    thresholds = {
        "radius": SLOPE_THIRD_ORDER,
        "center_noshort": SLOPE_SECOND_ORDER,
        "center_short": SLOPE_THIRD_ORDER,
        "pyramid_height": SLOPE_THIRD_ORDER,
        "pyramid_offset": SLOPE_THIRD_ORDER,
        "bipyramid_offset": SLOPE_THIRD_ORDER,
    }
    claims = []
    for kind, threshold in thresholds.items():
        classes = sorted({cls for errs in per_delta for cls in errs[kind]})
        for cls in classes:
            series = [errs[kind].get(cls, 0.0) for errs in per_delta]
            claims.append(_slope_claim(
                f"hyp/{kind}/class{cls}", params, epss, series, threshold))
    claims.append(_claim("hyp/bisector", params, 0, bisector_bad, bisector_bad == 0,
                         "distance <= n*delta^3/2 for all long-connected vertices"))
    return claims
