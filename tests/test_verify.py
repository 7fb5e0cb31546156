import collections
from math import comb

import numpy as np
import pytest

from extremal_cech import cli, complexgen, construct, geometry, homology, oracle, verify
from extremal_cech.complexgen import ClassifiedSimplex
from extremal_cech.construct import build_odd
from extremal_cech.geometry import DEFAULT_TOL
from extremal_cech.verify import FAIL, PASS, SKIPPED

from conftest import hand_made


def assert_no_failures(claims):
    bad = [c for c in claims if c.status == FAIL]
    assert not bad, verify.claims_lines(bad)


class TestBetti3d:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_counts(self, n):
        claims = verify.verify_betti_3d(n)
        assert_no_failures(claims)
        by_id = {c.claim_id: c for c in claims}
        assert by_id["3d/b1"].observed == (n + 1) ** 2 - 1
        assert by_id["3d/b2"].observed == n**2

    def test_oracle_cross_check_included_small_n(self):
        ids = {c.claim_id for c in verify.verify_betti_3d(2)}
        assert "3d/oracle/b1" in ids and "3d/oracle/b2" in ids

    def test_class_read_inside_a_gap_narrower_than_abs_eps(self):
        # a triangle's boundary cycle lives for 0.8 abs_eps between the
        # edge class and the triangle class: the gap midpoint sees it, a
        # read at midpoint + abs_eps would not
        gap = 0.8 * DEFAULT_TOL.abs_eps
        entries = [(0.0, ClassifiedSimplex((v,), 0, -1)) for v in range(3)]
        entries += [(0.5, ClassifiedSimplex(e, 1, -1)) for e in ((0, 1), (0, 2), (1, 2))]
        entries.append((0.5 + gap, ClassifiedSimplex((0, 1, 2), 1, 0)))
        fc = hand_made(entries)
        thresholds = complexgen.pick_thresholds(fc)
        pd = homology.reduce(fc)
        assert verify._betti_at_class(pd, thresholds, (1, -1), 1) == 1
        assert verify._betti_at_class(pd, thresholds, (0, -1), 0) == 2

    @pytest.mark.slow
    def test_exact_counts_at_200(self):
        # the class gaps at n=200 are below 2 abs_eps
        assert_no_failures(verify.verify_betti_3d(200))


def assert_whole_vectors(kind, k, n):
    """At every threshold a Betti claim reads, the whole reduced vector: 0
    below p, the exact count at p, and above p the spheres of the even
    kind's polyhedral join, C(k,j) C(k-j-1,t-j) of dimension t+j-1 for
    j = 2..t with t = cls[0]; the odd kind has none."""
    _, fc, thresholds, pd = verify._pipeline(kind, k, n)
    top = k - 1 if kind == "even" else k
    for p in range(2 * top + 1):
        cls = (p, -1) if p <= top else (top, p - top - 1)
        t = cls[0]
        expected = [0] * (fc.max_dim() + 1)
        expected[p] = verify._exact_betti(kind, k, n, cls, p)[p]
        if kind == "even":
            for j in range(2, t + 1):
                if t + j - 1 > p:
                    expected[t + j - 1] += comb(k, j) * comb(k - j - 1, t - j)
        observed = [verify._betti_at_class(pd, thresholds, cls, q)
                    for q in range(len(expected))]
        assert observed == expected, (kind, k, n, cls)


EVEN_KN = [(2, n) for n in range(5, 10)] + [(3, n) for n in range(6, 9)]
ODD_KN = ([(1, n) for n in range(2, 8)] + [(2, n) for n in range(2, 7)]
          + [(3, n) for n in range(2, 5)])


class TestBettiEvenOdd:
    @pytest.mark.parametrize("k,n", EVEN_KN)
    def test_even_exact(self, k, n):
        assert_no_failures(verify.verify_betti_even(k, n))

    def test_even_parameter_checks(self):
        with pytest.raises(ValueError):
            verify.verify_betti_even(1, 5)
        with pytest.raises(ValueError):
            verify.verify_betti_even(2, 4)

    @pytest.mark.parametrize("k,n", ODD_KN)
    def test_odd_exact(self, k, n):
        assert_no_failures(verify.verify_betti_odd(k, n))

    @pytest.mark.parametrize("kind,k,n", [("even", 2, 5), ("odd", 1, 2), ("odd", 2, 2)])
    def test_whole_vector_at_every_claimed_threshold(self, kind, k, n):
        # the even and odd instances of verify --all
        assert_whole_vectors(kind, k, n)

    def test_odd_k1_matches_3d(self):
        claims = verify.verify_betti_odd(1, 3)
        agree = [c for c in claims if c.claim_id.startswith("odd/equals-3d")]
        assert len(agree) == 2
        assert_no_failures(agree)

    def test_count_off_by_one_fails(self, fresh_memos, monkeypatch):
        # 10 is the leading term 2n: a bound around it would let the count
        # off by one pass
        real = verify._betti_at_class

        def one_more_b0(pd, thresholds, cls, p):
            return real(pd, thresholds, cls, p) + (cls == (0, -1) and p == 0)

        monkeypatch.setattr(verify, "_betti_at_class", one_more_b0)
        by_id = {c.claim_id: c for c in verify.verify_betti_even(2, 5)}
        b0 = by_id["even/b0"]
        assert (b0.status, b0.expected, b0.observed) == (FAIL, 9, 10)
        assert b0.detail == "after class (0, -1), vector [10, 0, 0, 0]"
        assert by_id["even/b1"].status == PASS

    @pytest.mark.parametrize("kind,k,n", [("even", 2, 5), ("odd", 2, 2)])
    def test_a_homology_class_above_p_fails_the_claim(self, monkeypatch, kind, k, n):
        # beta_1 is right, but one more class in dimension 3 at its threshold
        real = verify._betti_at_class

        def one_more_above(pd, thresholds, cls, p):
            return real(pd, thresholds, cls, p) + (cls == (1, -1) and p == 3)

        monkeypatch.setattr(verify, "_betti_at_class", one_more_above)
        by_id = {c.claim_id: c for c in verify._betti_claims(kind, k, n)}
        b1 = by_id.pop(f"{kind}/b1")
        assert (b1.status, b1.expected) == (FAIL, b1.observed)
        assert b1.detail.startswith("after class (1, -1), vector [0, ")
        assert_no_failures(list(by_id.values()))

    def test_a_shifted_class_count_fails_its_claims(self, monkeypatch):
        # one more short edge, class (0, 0), in the table
        real = construct.class_table

        def shifted(kind, k, n):
            rows = real(kind, k, n)
            t, s, dim, count, radius = rows[1]
            rows[1] = (t, s, dim, count + 1, radius)
            return rows

        monkeypatch.setattr(construct, "class_table", shifted)
        by_id = {c.claim_id: c for c in verify.verify_betti_3d(2) + verify.verify_betti_even(2, 5)}
        edges, b1 = by_id["3d/census/edges"], by_id["even/b1"]
        assert (edges.status, edges.expected, edges.observed) == (FAIL, 14, 13)
        assert (b1.status, b1.expected, b1.observed) == (FAIL, 27, 26)
        assert b1.detail == "after class (1, -1), vector [0, 26, 0, 0]"
        assert [c.claim_id for c in by_id.values() if c.status == FAIL] == [
            "3d/census/edges", "even/b1", "even/b2"]

    @pytest.mark.slow
    def test_exact_at_scale(self):
        claims = verify.verify_betti_even(3, 20) + verify.verify_betti_even(4, 10)
        claims += verify.verify_betti_odd(3, 8) + verify.verify_betti_odd(4, 4)
        assert len(claims) == 5 + 7 + 7 + 9
        assert_no_failures(claims)
        for kind, k, n in (("even", 3, 20), ("even", 4, 10), ("odd", 3, 8), ("odd", 4, 4)):
            assert_whole_vectors(kind, k, n)


class TestSuspension:
    @pytest.mark.parametrize("n,expected", [(n, n**2) for n in range(2, 8)])
    def test_void_counts(self, n, expected, monkeypatch):
        heights = []
        real = construct.build_suspended

        def recording(k, n, delta, h):
            heights.append(h)
            return real(k, n, delta, h)

        monkeypatch.setattr(construct, "build_suspended", recording)
        claims = verify.verify_suspension(2, n)
        assert_no_failures(claims)
        by_id = {c.claim_id: c for c in claims}
        assert by_id["suspension/voids"].observed == expected
        assert by_id["suspension/band"].expected == expected
        assert by_id["suspension/no-apex"].observed == 0
        assert len(heights) == 1

    def test_apex_below_rho_loses_a_void_at_odd_n(self, monkeypatch):
        real = construct.build_suspended
        monkeypatch.setattr(construct, "build_suspended",
                            lambda k, n, delta, h: real(k, n, delta, 0.5))
        by_id = {c.claim_id: c for c in verify.verify_suspension(2, 3)}
        voids = by_id["suspension/voids"]
        assert (voids.status, voids.expected, voids.observed) == (FAIL, 9, 8)
        assert voids.detail.startswith("h=0.5, ")
        assert by_id["suspension/band"].status == FAIL

    def test_count_off_by_one_fails_the_band(self, monkeypatch):
        # 5 at n=2 lies inside the band 9+-2.5*n fitted at n = 2, 3
        real = oracle.cech_betti

        def one_more(points, radii, pmax):
            vecs = real(points, radii, pmax)
            if points[-1, -1] != 0.0:  # the last point is an apex, off the hyperplane
                vecs[0][pmax] += 1
            return vecs

        monkeypatch.setattr(oracle, "cech_betti", one_more)
        by_id = {c.claim_id: c for c in verify.verify_suspension(2, 2)}
        band = by_id["suspension/band"]
        assert (band.status, band.expected, band.observed) == (FAIL, 4, 5)
        assert by_id["suspension/no-apex"].status == PASS

    def test_k_restricted(self):
        with pytest.raises(ValueError):
            verify.verify_suspension(3, 2)


class TestRadiusFormulas:
    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6)])
    def test_all_pass(self, k, n):
        assert_no_failures(verify.verify_radius_formulas(k, n))

    def test_a_perturbed_class_radius_fails_its_claim(self, monkeypatch):
        # (2, 1) is one of the k=3 classes the radius claims first covered
        # with the class table
        real = construct.class_table

        def perturbed(kind, k, n):
            return [(t, s, dim, count, radius * (1 + 1e-6) if (t, s) == (2, 1) else radius)
                    for t, s, dim, count, radius in real(kind, k, n)]

        monkeypatch.setattr(construct, "class_table", perturbed)
        claims = verify.verify_radius_formulas(3, 6)
        assert [c.claim_id for c in claims if c.status == FAIL] == ["radii/even/class(2, 1)"]


class TestHypotheses:
    @pytest.mark.parametrize("k,n", [(1, 2), (2, 2)])
    def test_all_pass(self, k, n):
        claims = verify.verify_hypotheses(k, n)
        assert_no_failures(claims)
        assert not any(c.status == SKIPPED for c in claims)

    def test_expected_claim_families_present(self):
        ids = {c.claim_id for c in verify.verify_hypotheses(1, 2)}
        assert "hyp/bisector" in ids
        assert "hyp/radius/class(1, 0)" in ids
        assert "hyp/center_noshort/class(1, -1)" in ids

    def test_oversized_sweep_is_refused_before_its_build(self, monkeypatch):
        # odd k=1 n=5 has (1 + 6 + 5)^2 - 1 = 143 simplices
        monkeypatch.setattr(construct, "MAX_SIMPLICES", 100)
        monkeypatch.setattr(complexgen, "circumspheres",
                            lambda *args: pytest.fail("the sweep built a filtration"))
        with pytest.raises(ValueError, match=r"^kind=odd k=1 n=5: the mosaic has 143 "
                                             r"simplices, more than the 100 one build"):
            verify.verify_hypotheses(1, 5)

    @pytest.mark.parametrize("k,n", [(1, 2), (1, 4), (2, 2)])
    def test_bisector_count_matches_the_loop(self, k, n):
        # the claim's bound, and smaller ones that some vertices exceed
        delta = verify.DELTA_GRID[0]
        ps = build_odd(k, n, delta)
        fc = complexgen.build_filtration(ps)
        bounds = [f * n * delta**3 / 2.0 for f in (1.0, 0.25, 0.1, 0.01)]
        counts = [verify._bisector_violations(ps, fc, b) for b in bounds]
        assert counts == [bisector_loop(ps, fc, b) for b in bounds]
        assert counts[0] == 0 and counts[-1] > 0


def bisector_loop(ps, fc, bound):
    """`verify._bisector_violations` as a loop over edges and points."""
    violations = 0
    circle = ps.labels[:, 0]
    for _, cs in fc.entries:
        if cs.dim != 1:
            continue
        b, c = cs.vertices
        gap = np.linalg.norm(ps.points[b] - ps.points[c])
        for a in range(len(ps)):
            if circle[a] in (circle[b], circle[c]):
                continue
            num = abs(float(np.dot(ps.points[a] - ps.points[b], ps.points[a] - ps.points[b]))
                      - float(np.dot(ps.points[a] - ps.points[c], ps.points[a] - ps.points[c])))
            violations += num / (2.0 * gap) > bound + 1e-15
    return violations


class TestReporting:
    def test_lines_and_csv_cover_all_claims(self):
        claims = verify.verify_betti_3d(2)
        lines = verify.claims_lines(claims)
        assert len(lines) == len(claims)
        assert all(line.startswith(PASS) for line in lines)
        csv = verify.claims_csv(claims)
        assert csv.splitlines()[0] == "claim_id,params,expected,observed,status"
        assert len(csv.splitlines()) == len(claims) + 1

    def test_reproducible(self):
        a = verify.claims_csv(verify.verify_betti_3d(3))
        b = verify.claims_csv(verify.verify_betti_3d(3))
        assert a == b


class TestCaching:
    def test_all_builds_each_pipeline_once(self, fresh_memos, monkeypatch, capsys):
        builds = collections.Counter()
        real = verify.build_validated

        def counting(kind, k=None, n=None, delta="auto", **kwargs):
            builds[(kind, k, n, delta)] += 1
            return real(kind, k=k, n=n, delta=delta, **kwargs)

        monkeypatch.setattr(verify, "build_validated", counting)
        assert cli.main(["verify", "--all"]) == 0
        assert "53 claims, 0 failures" in capsys.readouterr().out
        assert builds and set(builds.values()) == {1}, builds
        # 3d n=2, even k=2 n=5, odd k=1 n=2 and odd k=2 n=2: each Betti suite
        # builds only the instance it reads
        assert len(builds) == 4, builds

    def test_all_makes_three_cech_complexes(self, fresh_memos, monkeypatch, capsys):
        # the 3d n=2 cross-check, and the suspended set at its one apex
        # height with and without the apexes
        cechs = []
        balls = []
        real_cech, real_ball = oracle.cech, oracle.min_enclosing_ball

        def recording(points, *args, **kwargs):
            cechs.append(points.shape)
            return real_cech(points, *args, **kwargs)

        def counting(points):
            balls.append(1)
            return real_ball(points)

        monkeypatch.setattr(oracle, "cech", recording)
        monkeypatch.setattr(oracle, "min_enclosing_ball", counting)
        assert cli.main(["verify", "--all"]) == 0
        assert "53 claims, 0 failures" in capsys.readouterr().out
        # 3d n=2 has 6 points in R^3; suspended k=2 n=2 has 8 in R^4, 6 without apexes
        assert sorted(cechs) == [(6, 3), (6, 4), (8, 4)]
        assert len(balls) == 208

    def test_all_makes_one_sphere_pass_per_even_instance(self, fresh_memos, monkeypatch,
                                                          capsys):
        # one sphere a mosaic row per validated build (35 + 120 + 35 + 215),
        # per 3d interval build (4 x 143) and per hypothesis delta, build and
        # errors (4 x 2 x 35): the radius claims read the validated even
        # filtration that the even Betti claims built, and a second pass
        # over its mosaic would add 120 rows
        real = geometry.circumspheres
        rows = []

        def counting(*args, **kwargs):
            batch = real(*args, **kwargs)
            rows.append(len(batch.radius))
            return batch

        for module in (geometry, complexgen, verify):
            monkeypatch.setattr(module, "circumspheres", counting)
        assert cli.main(["verify", "--all"]) == 0
        assert "53 claims, 0 failures" in capsys.readouterr().out
        assert sum(rows) == 35 + 120 + 35 + 215 + 4 * 143 + 4 * 2 * 35

    def test_radii_alone_reduces_nothing(self, fresh_memos, monkeypatch, capsys):
        reductions = []
        monkeypatch.setattr(homology, "reduce", lambda *args, **kwargs: reductions.append(1))
        assert cli.main(["verify", "--radii", "--k", "2", "--n", "5"]) == 0
        assert "0 failures" in capsys.readouterr().out
        assert reductions == []
