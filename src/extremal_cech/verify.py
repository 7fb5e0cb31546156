"""End-to-end verification of the quantitative claims the constructions
realize: exact and leading-order Betti numbers, closed-form radii, interval
bounds, radius-class orderings, criticality, convergence orders of the
second-order radius expansions, and the suspended-void count.

Asymptotic "plus/minus big-Oh" claims are made testable by a baseline
procedure: the deviation from the leading term, normalized by the claimed
slack scale, is measured at the two smallest admissible n and the maximum
becomes the acceptance bound for every larger n.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from math import comb

import numpy as np

from . import complexgen, construct, homology, oracle
from .complexgen import threshold_after
from .construct import (
    KIND_3D,
    KIND_EVEN,
    KIND_ODD,
    PointSet,
    build_odd,
    build_suspended,
    build_validated,
    half_edge,
    min_n,
)
from .geometry import DEFAULT_TOL, affine_distance, circumsphere, circumspheres

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
    "verify_upper_bound_sanity",
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
    rows = ["claim_id,params,expected,observed,status"]
    for c in sorted(claims, key=lambda c: c.claim_id):
        params = ";".join(f"{k}={v}" for k, v in sorted(c.params.items()))
        rows.append(f"{c.claim_id},{params},{c.expected},{c.observed},{c.status}")
    return "\n".join(rows) + "\n"


@functools.lru_cache(maxsize=None)
def _pipeline(kind: str, k: int | None, n: int, delta):
    """Validated construction plus its reduced persistence diagram, cached
    across claims.  Every caller passes all four arguments positionally, so
    each (kind, k, n, delta) has exactly one cache key."""
    ps, fc, thresholds = build_validated(kind, k=k, n=n, delta=delta)
    pd = homology.reduce(fc)
    return ps, fc, thresholds, pd


def _betti_at_class(pd, thresholds, cls, p) -> int:
    rho = threshold_after(thresholds, cls)
    return homology.betti_at(pd, p, rho, eps=DEFAULT_TOL.abs_eps)


# ---------------------------------------------------------------------------
# exact three-dimensional counts


def verify_betti_3d(n: int, delta="auto", oracle_check: bool | None = None) -> list[ClaimResult]:
    """Exact first/second Betti numbers and the simplex census of the
    two-linked-circles construction."""
    if n < 2:
        raise ValueError("n must be >= 2")
    ps, fc, thresholds, pd = _pipeline(KIND_3D, 1, n, delta)
    params = {"n": n, "delta": ps.delta}
    claims = []

    b1 = _betti_at_class(pd, thresholds, (1, -1), 1)
    claims.append(_claim("3d/b1", params, (n + 1) ** 2 - 1, b1, b1 == (n + 1) ** 2 - 1))
    b2 = _betti_at_class(pd, thresholds, (1, 0), 2)
    claims.append(_claim("3d/b2", params, n**2, b2, b2 == n**2))

    counts = {d: 0 for d in range(4)}
    for _, cs in fc.entries:
        counts[cs.dim] += 1
    census = {
        "vertices": (counts[0], 2 * n + 2),
        "edges": (counts[1], 2 * n + (n + 1) ** 2),
        "triangles": (counts[2], 2 * n * (n + 1)),
        "tetrahedra": (counts[3], n**2),
    }
    for name, (got, want) in census.items():
        claims.append(_claim(f"3d/census/{name}", params, want, got, got == want))

    if oracle_check is None:
        oracle_check = n <= 3
    if oracle_check:
        rho1 = threshold_after(thresholds, (1, -1))
        rho2 = threshold_after(thresholds, (1, 0))
        c1 = oracle.cech_betti(ps, rho1, 1)[1]
        c2 = oracle.cech_betti(ps, rho2, 2)[2]
        claims.append(_claim("3d/oracle/b1", params, b1, c1, c1 == b1))
        claims.append(_claim("3d/oracle/b2", params, b2, c2, c2 == b2))
    return claims


# ---------------------------------------------------------------------------
# leading-term counts with baseline deviation bounds


def _even_cases(k: int, n: int):
    """Per p: (class threshold, leading term, slack scale).  Low range uses
    the first class that touches p+1 circles; the high range walks the
    classes touching all k circles."""
    for p in range(0, 2 * k - 1):
        if p <= k - 1:
            yield p, (p, -1), comb(k, p + 1) * n ** (p + 1), 1.0
        else:
            yield p, (k - 1, p - k), comb(k - 1, p + 1 - k) * n**k, 1.0


def _odd_cases(k: int, n: int):
    for p in range(0, 2 * k + 1):
        if p <= k:
            yield p, (p, -1), comb(k + 1, p + 1) * (n + 1) ** (p + 1), 1.0
        else:
            yield p, (k, p - k - 1), comb(k, p - k) * (n + 1) ** (k + 1), float(n**k)


def _deviations(family: str, k: int, n: int) -> list[tuple[int, int, int, float]]:
    """(p, observed, leading, normalized deviation) per homology dimension."""
    if family == "even":
        ps, fc, thresholds, pd = _pipeline(KIND_EVEN, k, n, "auto")
        cases = _even_cases(k, n)
    else:
        ps, fc, thresholds, pd = _pipeline(KIND_ODD, k, n, "auto")
        cases = _odd_cases(k, n)
    out = []
    for p, cls, leading, scale in cases:
        observed = _betti_at_class(pd, thresholds, cls, p)
        out.append((p, observed, leading, abs(observed - leading) / scale))
    return out


@functools.lru_cache(maxsize=None)
def baseline_bound(family: str, k: int) -> float:
    """Acceptance bound for the normalized deviations: the maximum observed
    at the two smallest admissible n."""
    ns = [min_n(k), min_n(k) + 1] if family == "even" else [2, 3]
    return max(dev for n in ns for _, _, _, dev in _deviations(family, k, n))


def verify_betti_even(k: int, n: int) -> list[ClaimResult]:
    """Betti numbers of the even construction against the closed-form
    leading terms, within the two-smallest-n baseline bound."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < min_n(k):
        raise ValueError(f"n must be >= min_n({k}) = {min_n(k)}")
    bound = baseline_bound("even", k)
    claims = []
    for p, observed, leading, dev in _deviations("even", k, n):
        claims.append(_claim(
            f"even/b{p}", {"k": k, "n": n}, f"{leading}+-{bound:g}", observed,
            dev <= bound + 1e-9, f"deviation {dev:g}"))
    return claims


def verify_betti_odd(k: int, n: int) -> list[ClaimResult]:
    """Betti numbers of the odd construction against the closed-form leading
    terms; the range above dimension k is normalized by n^k."""
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    bound = baseline_bound("odd", k)
    claims = []
    for p, observed, leading, dev in _deviations("odd", k, n):
        claims.append(_claim(
            f"odd/b{p}", {"k": k, "n": n}, f"{leading}+-{bound:g}*scale", observed,
            dev <= bound + 1e-9, f"normalized deviation {dev:g}"))
    if k == 1:
        # the dedicated 3d pipeline must agree with the odd one at k=1
        _, _, th3, pd3 = _pipeline(KIND_3D, 1, n, "auto")
        _, _, tho, pdo = _pipeline(KIND_ODD, 1, n, "auto")
        for p, cls in ((1, (1, -1)), (2, (1, 0))):
            a = _betti_at_class(pd3, th3, cls, p)
            b = _betti_at_class(pdo, tho, cls, p)
            claims.append(_claim(f"odd/equals-3d/b{p}", {"n": n}, a, b, a == b))
    return claims


# ---------------------------------------------------------------------------
# suspension: voids in even dimension from the odd set one dimension down


def _strip_apexes(sps: PointSet) -> PointSet:
    keep = [i for i in range(len(sps)) if i not in set(sps.apex_ids)]
    return PointSet(sps.kind, sps.dim, sps.k, sps.n, sps.delta,
                    sps.points[keep], sps.labels[keep], h=0.0)


@functools.lru_cache(maxsize=None)
def _suspension_run(k: int, n: int, delta):
    """Search apex heights until the suspended Cech complex turns every void
    of the hyperplane set into one dimension higher.  Returns
    (expected voids, observed, accepted h, rho, no-apex betti).  Called
    with all three arguments positionally, for one cache key per run."""
    ps, fc, thresholds, pd = _pipeline(KIND_ODD, k - 1, n, delta)
    p_void = 2 * k - 2
    rho = threshold_after(thresholds, (k - 1, k - 2))
    expected = homology.betti_at(pd, p_void, rho, eps=DEFAULT_TOL.abs_eps)

    bare = _strip_apexes(build_suspended(k, n, ps.delta, 0.5))
    no_apex = oracle.cech_betti(bare, rho, 2 * k - 1)[2 * k - 1]

    # Candidate heights: the default, then a logarithmic ladder of offsets
    # just above the verifying radius.  Above rho no subset containing both
    # apexes fits in a rho-ball (its miniball radius is at least h), so the
    # suspended cycles cannot be filled from within, while an O(eps) offset
    # keeps every single-apex cone below rho.
    eps = half_edge(ps)
    candidates = [0.5]
    candidates += [rho + c * eps for c in (0.2, 0.1, 0.05, 0.025)]
    candidates += [0.5 / 2**i for i in range(1, 6)]
    observed = None
    accepted_h = None
    for h in candidates:
        sps = build_suspended(k, n, ps.delta, h)
        betti = oracle.cech_betti(sps, rho, 2 * k - 1)[2 * k - 1]
        if betti == expected:
            observed, accepted_h = betti, h
            break
    return expected, observed, accepted_h, rho, no_apex


@functools.lru_cache(maxsize=None)
def _suspension_baseline(k: int) -> float:
    devs = []
    for n in (2, 3):
        expected, observed, accepted_h, _, _ = _suspension_run(k, n, "auto")
        if observed is None:
            observed = expected  # bound falls back to the hyperplane count
        devs.append(abs(observed - (n + 1) ** k) / n ** (k - 1))
    return max(devs)


def verify_suspension(k: int, n: int, delta="auto") -> list[ClaimResult]:
    """beta_{2k-1} of the suspended set at the verifying radius: equals the
    hyperplane set's void count, and sits within the baseline band around
    (n+1)^k."""
    if k != 2:
        raise ValueError("suspension verification runs at k = 2 desk scale")
    params = {"k": k, "n": n}
    expected, observed, accepted_h, rho, no_apex = _suspension_run(k, n, delta)
    claims = [
        _claim("suspension/no-apex", params, 0, no_apex, no_apex == 0),
    ]
    if observed is None:
        claims.append(ClaimResult(
            "suspension/voids", params, expected, None, SKIPPED,
            "apex-height search exhausted without matching the void count"))
        return claims
    claims.append(_claim("suspension/voids", params, expected, observed,
                         observed == expected, f"h={accepted_h}, rho={rho:.6g}"))
    bound = _suspension_baseline(k)
    dev = abs(observed - (n + 1) ** k) / n ** (k - 1)
    claims.append(_claim(
        "suspension/band", params, f"{(n + 1) ** k}+-{bound:g}*n^{k - 1}", observed,
        dev <= bound + 1e-9, f"normalized deviation {dev:g}"))
    return claims


# ---------------------------------------------------------------------------
# closed-form radii and interval bounds


def _rel_err(observed: float, expected: float) -> float:
    if expected == 0.0:
        return abs(observed)
    return abs(observed - expected) / abs(expected)


def _even_class_radii(ps: PointSet):
    """Max relative error of computed circumradii against the closed forms,
    per checked class family, on an even point set."""
    s2 = half_edge(ps) ** 2
    expected = {}
    for ell in range(ps.k):
        expected[(ell, -1)] = math.sqrt(ell / (2.0 * ell + 2.0))
        expected[(ell, ell)] = math.sqrt((ell + 2.0 * s2) / (2.0 * ell + 2.0))
    if ps.k >= 2:
        expected[(1, 0)] = math.sqrt(1.0 / (1.0 - s2)) / 2.0
        expected[(1, 1)] = math.sqrt(1.0 + 2.0 * s2) / 2.0
    errs = {cls: 0.0 for cls in expected}
    checked = [cs for cs in complexgen.enumerate_mosaic(ps) if cs.cls in expected]
    radii = circumspheres(ps, [cs.vertices for cs in checked]).radius
    for cs, r in zip(checked, radii.tolist()):
        errs[cs.cls] = max(errs[cs.cls], _rel_err(r, expected[cs.cls]))
    return errs


def verify_radius_formulas(k: int, n: int, delta_grid=DELTA_GRID) -> list[ClaimResult]:
    """Closed-form circumradii for the even families, the numeric bounds on
    the ideal triangle/tetrahedron size, and the interval bounds for the
    three-dimensional construction."""
    claims = []
    params = {"k": k, "n": n}

    ps = construct.build_even(k, n)
    for cls, err in sorted(_even_class_radii(ps).items()):
        claims.append(_claim(
            f"radii/even/class{cls}", params, "rel err <= 1e-9", f"{err:.3g}",
            err <= 1e-9))

    s = half_edge(ps)
    two_r = math.sqrt(1.0 / (1.0 - s * s))
    two_R = math.sqrt(1.0 + 2.0 * s * s)
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

    s_tiny = math.sqrt(2.0) / 2.0 * math.sin(math.pi / 1000.0)
    r_tiny = math.sqrt(1.0 / (1.0 - s_tiny**2)) / 2.0
    claims.append(_claim("radii/triangle-limit", {"n": 1000}, 0.5, f"{r_tiny:.12g}",
                         abs(r_tiny - 0.5) < 1e-5))

    claims.extend(_threed_interval_claims(n, delta_grid))
    return claims


def _threed_interval_claims(n: int, delta_grid) -> list[ClaimResult]:
    """Edge/triangle/tetrahedron circumradius intervals for the 3d family.
    Constant-free bounds are asserted outright at every grid delta; the
    triangle upper bound's fourth-order slack is checked as a slope fit."""
    edge_ok, tri_lo_ok, tet_lo_ok = True, True, True
    excesses, epss = [], []
    params = {"n": n}
    for delta in delta_grid:
        ps = construct.build_3d(n, delta)
        eps = half_edge(ps)
        fc = complexgen.build_filtration(ps)
        tri_max = 0.0
        for r, cs in fc.entries:
            if cs.dim == 1 and cs.short == -1:
                edge_ok &= 0.5 - 1e-15 <= r <= 0.5 * (1.0 + delta**4) + 1e-15
            elif cs.dim == 2:
                tri_lo_ok &= r >= 0.5 + 0.25 * eps * eps - 1e-15
                tri_max = max(tri_max, r)
            elif cs.dim == 3:
                tet_lo_ok &= r >= 0.5 + (5.0 / 11.0) * eps * eps - 1e-15
        excesses.append(max(0.0, tri_max - (0.5 + 0.25 * eps * eps)))
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


def _twin_partner(ps: PointSet, cs, v: int) -> int | None:
    for w in cs.vertices:
        if w != v and ps.consecutive(v, w):
            return w
    return None


def _hypothesis_errors(ps: PointSet, fc):
    """Max absolute discrepancies, per simplex class, between the measured
    squared radii/heights/offsets of an odd construction and the
    second-order expansions around the regular-simplex values."""
    eps2 = half_edge(ps) ** 2
    errs: dict[str, dict[tuple[int, int], float]] = {
        "radius": {}, "center_noshort": {}, "center_short": {},
        "pyramid_height": {}, "pyramid_offset": {}, "bipyramid_offset": {},
    }

    def bump(kind, cls, err):
        errs[kind][cls] = max(errs[kind].get(cls, 0.0), err)

    for _, cs in fc.entries:
        ell, j = cs.touch, cs.short
        pts = ps.points[list(cs.vertices)]
        sphere = circumsphere(pts)
        r_ell2 = construct.regular_simplex_circumradius_sq(ell)
        bump("radius", cs.cls,
             abs(sphere.radius**2 - r_ell2 - (j + 1) * eps2 / (ell + 1) ** 2))
        if cs.dim == 0:
            continue

        facet_dist2 = []
        for drop in cs.vertices:
            rest = [v for v in cs.vertices if v != drop]
            facet_dist2.append(affine_distance(ps.points[rest], sphere.center) ** 2)
        d_s2 = min(facet_dist2)
        if j == -1:
            bump("center_noshort", cs.cls,
                 abs(d_s2 - construct.regular_simplex_inradius_gap_sq(ell)))
        else:
            bump("center_short", cs.cls, abs(d_s2 - eps2 / (ell + 1) ** 2))

        for idx, drop in enumerate(cs.vertices):
            rest = [v for v in cs.vertices if v != drop]
            twin = _twin_partner(ps, cs, drop)
            if twin is None:
                if ell < 1:
                    continue
                h2 = affine_distance(ps.points[rest], ps.points[drop]) ** 2
                h_ell2 = construct.regular_simplex_height_sq(ell)
                bump("pyramid_height", cs.cls,
                     abs(h2 - h_ell2 + (j + 1) * eps2 / ell**2))
                d_ell2 = construct.regular_simplex_inradius_gap_sq(ell)
                shift = (2 * ell + 1) * (j + 1) * eps2 / (ell**2 * (ell + 1) ** 2)
                bump("pyramid_offset", cs.cls,
                     abs(facet_dist2[idx] - d_ell2 + shift))
            else:
                bump("bipyramid_offset", cs.cls,
                     abs(facet_dist2[idx] - eps2 / (ell + 1) ** 2))
    return errs


def _bisector_violations(ps: PointSet, fc, bound: float) -> int:
    """Count vertices whose distance to the bisector hyperplane of a mosaic
    edge they are long-connected to exceeds the cubic bound."""
    b, c = np.array([cs.vertices for _, cs in fc.entries if cs.dim == 1],
                    dtype=np.intp).reshape(-1, 2).T
    pts, circle = ps.points, ps.labels[:, 0]
    diffs = pts[:, None, :] - pts[None, :, :]
    dist2 = np.einsum("abi,abi->ab", diffs, diffs)
    far = (circle != circle[b, None]) & (circle != circle[c, None])
    num = np.abs(dist2[b] - dist2[c])
    gap = np.sqrt(dist2[b, c])
    return int(np.count_nonzero(far & (num / (2.0 * gap[:, None]) > bound + 1e-15)))


def verify_hypotheses(k: int, n: int, delta_grid=DELTA_GRID) -> list[ClaimResult]:
    """Slope fits of the expansion errors across the delta grid: third order
    for the squared circumradius and the pyramid/bi-pyramid terms, second
    order for the circumcenter depth of short-edge-free simplices, plus the
    cubic bisector bound with zero violations."""
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    params = {"k": k, "n": n}
    per_delta = []
    epss = []
    bisector_bad = 0
    for delta in delta_grid:
        ps = build_odd(k, n, delta)
        fc = complexgen.build_filtration(ps)
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


# ---------------------------------------------------------------------------
# cell-count sanity bound


def verify_upper_bound_sanity(ps: PointSet, fc=None) -> list[ClaimResult]:
    """beta_p at every filtration value never exceeds the number of
    p-simplices present (every p-cycle needs a p-cell to be born).  Both
    counts come from binary searches: in each dimension's sorted cell
    values, and in its unreduced Betti profile."""
    if fc is None:
        fc = complexgen.build_filtration(ps)
    pd = homology.reduce(fc, reduced=False)
    pmax = fc.max_dim()
    values = sorted({value for value, _ in fc.entries})
    reach = [r + DEFAULT_TOL.abs_eps for r in values]
    violations = 0
    for p in range(pmax + 1):
        cells = sorted(value for value, cs in fc.entries if cs.dim == p)
        profile = homology.betti_profile(pd, p)
        radii = [r for r, _ in profile]
        for x in reach:
            at = bisect.bisect_right(radii, x)
            betti = profile[at - 1][1] if at else 0
            violations += betti > bisect.bisect_right(cells, x)
    params = {"kind": ps.kind, "k": ps.k, "n": ps.n}
    return [_claim("upper-bound/cells", params, 0, violations, violations == 0,
                   f"checked {len(values)} filtration values, dims 0..{pmax}")]
