"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion asserts at its stated tolerance (exact integers where
the claim is exact).
"""

import random
import time

from extremal_cech import complexgen, homology, oracle, verify
from extremal_cech.complexgen import threshold_after
from extremal_cech.construct import build_3d, build_even, min_n
from extremal_cech.geometry import DEFAULT_TOL

from conftest import (
    as_filtration,
    cached_pipeline,
    euler_characteristic_ok,
    mosaic_complex,
    rank_betti,
)

EPS = DEFAULT_TOL.abs_eps

THREED_NS = (2, 3, 4, 5, 8)
EVEN_KN = tuple(("even", 2, n) for n in (5, 6, 7, 8))
ODD_KN = tuple(("odd", 1, n) for n in (2, 3, 4, 5, 6)) + tuple(
    ("odd", 2, n) for n in (2, 3))
ACCEPTED = tuple(("3d", 1, n) for n in THREED_NS) + EVEN_KN + ODD_KN


def report(criterion, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_3d_betti_exact():
    t0 = time.time()
    for n in THREED_NS:
        _, _, thresholds, pd = cached_pipeline("3d", 1, n)
        b1 = homology.betti_at(pd, 1, threshold_after(thresholds, (1, -1)), EPS)
        b2 = homology.betti_at(pd, 2, threshold_after(thresholds, (1, 0)), EPS)
        assert b1 == (n + 1) ** 2 - 1, (n, b1)
        assert b2 == n**2, (n, b2)
    elapsed = time.time() - t0
    report(1, elapsed < 5.0,
           f"3d beta1/beta2 exact for n in {THREED_NS} ({elapsed:.2f}s < 5s)")


def test_criterion_02_3d_census():
    ok = True
    for n in THREED_NS:
        _, fc, _, _ = cached_pipeline("3d", 1, n)
        counts = {}
        for _, cs in fc.entries:
            counts[cs.dim] = counts.get(cs.dim, 0) + 1
        ok &= counts[1] == 2 * n + (n + 1) ** 2
        ok &= counts[2] == 2 * n * (n + 1)
        ok &= counts[3] == n**2
    report(2, ok, f"edge/triangle/tetra counts exact for n in {THREED_NS}")


def test_criterion_03_even_exact_anchors():
    ok = True
    detail = []
    for n in (5, 6, 7):
        _, fc, thresholds, pd = cached_pipeline("even", 2, n)
        b1 = homology.betti_at(pd, 1, 0.5, EPS)
        ok &= b1 == n**2 + 1
        below_short = threshold_after(thresholds, (0, -1))
        b0 = homology.betti_at(pd, 0, below_short, EPS)
        ok &= b0 == 2 * n - 1
        detail.append(f"n={n}: b1@1/2={b1}, reduced b0={b0}")
    report(3, ok, "; ".join(detail))


def test_criterion_04_leading_terms():
    t0 = time.time()
    claims = []
    for _, k, n in EVEN_KN:
        claims += verify.verify_betti_even(k, n)
    for _, k, n in ODD_KN:
        claims += verify.verify_betti_odd(k, n)
    bad = [c for c in claims if c.status == verify.FAIL]
    elapsed = time.time() - t0
    report(4, not bad and elapsed < 120.0,
           f"{len(claims)} even/odd Betti claims equal to their exact Euler counts "
           f"({elapsed:.1f}s < 120s)" + (f"; failures: {bad}" if bad else ""))


def test_criterion_05_closed_form_radii():
    worst = 0.0
    for k in (1, 2, 3, 4):
        for n in range(max(3, min_n(k)), 11):
            ps = build_even(k, n)
            for err in verify._even_class_radii(ps, complexgen.build_filtration(ps)).values():
                worst = max(worst, err)
    report(5, worst <= 1e-9,
           f"max relative error {worst:.2e} <= 1e-9 over k<=4, n<=10")


def test_criterion_06_radius_ordering():
    ok = True
    for kind, k, n in ACCEPTED:
        _, fc, thresholds, _ = cached_pipeline(kind, k, n)
        ranges = fc.class_ranges()
        classes = sorted(ranges)
        for cur, nxt in zip(classes, classes[1:]):
            ok &= ranges[cur][1] < ranges[nxt][0]
        ok &= len(thresholds) == len(classes) - 1
        ok &= all(t.rho > 0 for t in thresholds)
    report(6, ok, f"class ranges disjoint and ordered for {len(ACCEPTED)} instances")


def test_criterion_07_criticality():
    ok = True
    for kind, k, n in ACCEPTED:
        ps, fc, _, _ = cached_pipeline(kind, k, n)
        ok &= complexgen.criticality_check(ps, fc).ok
    # detector sensitivity: a deliberately coarse band width must trip it
    ps_bad = build_3d(10, 0.5)
    failures = len(complexgen.criticality_check(ps_bad, mosaic_complex(ps_bad)).failures)
    ok &= failures >= 1
    report(7, ok,
           f"zero failures on {len(ACCEPTED)} accepted instances; "
           f"delta=0.5 (n=10) trips the detector with {failures} failures")


def test_criterion_08_oracle_equivalence():
    t0 = time.time()
    ok = True
    detail = []
    instances = (("3d", 1, 2, 3), ("3d", 1, 3, 3), ("even", 2, 5, 3), ("odd", 2, 2, 5))
    for kind, k, n, maxdim in instances:
        ps, fc, thresholds, _ = cached_pipeline(kind, k, n)
        match = oracle.enumeration_matches_oracle(ps, maxdim)
        ok &= match.ok
        pmax = min(ps.dim - 1, fc.max_dim())
        reports = oracle.cech_equals_alpha_betti(ps, [th.rho for th in thresholds], pmax, fc=fc)
        # the alpha side against boundary ranks of each sublevel
        agree = all(eq.ok and eq.alpha_vector == rank_betti(fc, eq.radius, pmax, eps=EPS)
                    for eq in reports)
        ok &= agree
        detail.append(f"{kind}(k={k},n={n}): match={match.ok}, cech=alpha={agree}")
    elapsed = time.time() - t0
    report(8, ok and elapsed < 180.0, "; ".join(detail) + f" ({elapsed:.1f}s < 180s)")


def test_criterion_09_hypothesis_convergence():
    claims = []
    for k, n in ((1, 2), (1, 3), (2, 2)):
        claims += verify.verify_hypotheses(k, n)
    bad = [c for c in claims if c.status != verify.PASS]
    report(9, not bad,
           f"{len(claims)} slope/bisector claims pass"
           + (f"; non-pass: {verify.claims_lines(bad)}" if bad else ""))


def test_criterion_10_suspension():
    ok = True
    detail = []
    for n in (2, 3):
        claims = verify.verify_suspension(2, n)
        by_id = {c.claim_id: c for c in claims}
        ok &= all(c.status == verify.PASS for c in claims)
        detail.append(f"n={n}: voids={by_id['suspension/voids'].observed}, "
                      f"band={by_id['suspension/band'].status}, "
                      f"no-apex={by_id['suspension/no-apex'].observed}")
    report(10, ok, "; ".join(detail))


def test_criterion_11_homology_self_checks():
    ok = True
    rng = random.Random(11)
    for kind, k, n in ACCEPTED:
        _, fc, _, _ = cached_pipeline(kind, k, n)
        ok &= euler_characteristic_ok(fc)
        base = homology.reduce(fc).pairs
        entries = as_filtration(fc)
        for _ in range(10):
            # permute only within exactly-equal (value, dim) runs; the
            # pairing is unique for any such order, so diagrams must match
            # bit for bit
            groups = {}
            for pos, (value, verts) in enumerate(entries):
                groups.setdefault((value, len(verts)), []).append(pos)
            order = list(range(len(entries)))
            for key, block in groups.items():
                perm = block[:]
                rng.shuffle(perm)
                for src, dst in zip(block, perm):
                    order[src] = dst
            shuffled = [entries[i] for i in order]
            ok &= homology.reduce(shuffled).pairs == base
    report(11, ok,
           f"Euler identity and 10-shuffle diagram invariance on "
           f"{len(ACCEPTED)} instances")
