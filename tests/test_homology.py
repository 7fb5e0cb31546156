import math
import random

import pytest

from extremal_cech import complexgen, homology
from extremal_cech.homology import (
    PersistenceDiagram,
    betti_at,
    betti_of_subcomplex,
    diagram_svg,
    load_diagram,
    reduce,
    save_diagram,
)

INF = math.inf


def standard_lows(columns):
    """Reference: the plain left-to-right Z/2 reduction, no clearing."""
    masks = [0] * len(columns)
    low_owner = [-1] * len(columns)
    lows = [-1] * len(columns)
    for j, rows in enumerate(columns):
        col = 0
        for r in rows:
            col |= 1 << r
        while col:
            low = col.bit_length() - 1
            other = low_owner[low]
            if other < 0:
                break
            col ^= masks[other]
        masks[j] = col
        if col:
            low = col.bit_length() - 1
            lows[j] = low
            low_owner[low] = j
    return lows


def boundary_columns(filtration, monkeypatch):
    """The columns `reduce` hands to `homology.reduce_columns`."""
    seen = []
    kernel = homology.reduce_columns

    def record(columns):
        seen.append(columns)
        return kernel(columns)

    with monkeypatch.context() as m:
        m.setattr(homology, "reduce_columns", record)
        reduce(filtration)
    return seen[0]


def shuffled_equal_value_orders(fc, count):
    """`count` filtrations of fc, each permuting entries within exactly-equal
    (value, dim) groups."""
    rng = random.Random(20240811)
    entries = list(fc.as_filtration())
    for _ in range(count):
        groups = {}
        for pos, (value, verts) in enumerate(entries):
            groups.setdefault((value, len(verts)), []).append(pos)
        order = list(range(len(entries)))
        for block in groups.values():
            perm = block[:]
            rng.shuffle(perm)
            for src, dst in zip(block, perm):
                order[src] = dst
        yield [entries[i] for i in order]


def triangle_boundary():
    # three vertices at value 0, three edges at value 1, no face
    return [
        (0.0, (0,)), (0.0, (1,)), (0.0, (2,)),
        (1.0, (0, 1)), (1.0, (0, 2)), (1.0, (1, 2)),
    ]


class TestReduce:
    def test_single_vertex(self):
        pd = reduce([(0.0, (0,))])
        assert pd.pairs == [(0, 0.0, INF)]

    def test_triangle_boundary_has_circle_homology(self):
        pd = reduce(triangle_boundary())
        assert betti_at(pd, 1, 1.0) == 1
        assert betti_at(pd, 0, 1.0) == 0  # reduced
        assert betti_at(pd, 0, 0.5) == 2

    def test_filled_triangle(self):
        filt = triangle_boundary() + [(2.0, (0, 1, 2))]
        pd = reduce(filt)
        assert betti_at(pd, 1, 2.0) == 0
        assert betti_at(pd, 1, 1.5) == 1

    def test_pairing_counts_reconcile(self, threed_n2):
        _, fc, _, pd = threed_n2
        assert 2 * len(pd.finite()) + len(pd.essentials()) == len(fc)

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            reduce([(1.0, (0, 1)), (0.0, (0,)), (0.0, (1,))])

    def test_missing_face_rejected(self):
        with pytest.raises(ValueError):
            reduce([(0.0, (0,)), (1.0, (0, 1))])

    def test_3d_n2_void_band(self, threed_n2):
        # four 2-cycles live between the triangle and tetrahedron classes
        _, fc, thresholds, pd = threed_n2
        rho2 = complexgen.threshold_after(thresholds, (1, 0))
        assert betti_at(pd, 2, rho2) == 4
        top = max(v for v, _ in fc.entries)
        assert betti_at(pd, 2, top + 1.0) == 0

    def test_clearing_matches_standard_reduction(self, threed_n2, even_2_5, odd_2_2,
                                                 monkeypatch):
        filtrations = [fc for _, fc, _, _ in (threed_n2, even_2_5, odd_2_2)]
        filtrations += shuffled_equal_value_orders(even_2_5[1], 10)
        for filtration in filtrations:
            columns = boundary_columns(filtration, monkeypatch)
            assert homology.reduce_columns(columns) == standard_lows(columns)


class TestBettiAt:
    def test_empty_diagram(self):
        assert betti_at(PersistenceDiagram([]), 0, 1.0) == 0

    def test_3d_tunnel_count(self, pipeline):
        for n in (2, 3):
            _, _, thresholds, pd = pipeline("3d", 1, n)
            rho1 = complexgen.threshold_after(thresholds, (1, -1))
            assert betti_at(pd, 1, rho1) == (n + 1) ** 2 - 1

    def test_even_reduced_components(self, even_2_5):
        _, _, _, pd = even_2_5
        assert betti_at(pd, 0, 0.2) == 9  # kn - 1 isolated points

    def test_inclusion_eps(self):
        pd = PersistenceDiagram([(0, 0.5 + 1e-15, INF)])
        assert betti_at(pd, 0, 0.5) == 0  # reduced drops the last component
        assert not pd.reduced or betti_at(pd, 0, 0.5, eps=1e-12) == 0
        assert betti_at(PersistenceDiagram([(1, 0.5 + 1e-15, INF)]), 1, 0.5, eps=1e-12) == 1


class TestBettiOfSubcomplex:
    def test_negative_radius_all_zero(self, threed_n2):
        _, fc, _, _ = threed_n2
        assert betti_of_subcomplex(fc, -1.0) == [0, 0, 0, 0]

    def test_3d_vector_at_rho2(self, threed_n2):
        _, fc, thresholds, _ = threed_n2
        rho2 = complexgen.threshold_after(thresholds, (1, 0))
        assert betti_of_subcomplex(fc, rho2) == [0, 0, 4, 0]

    def test_even_at_half(self, even_2_5):
        _, fc, _, _ = even_2_5
        assert betti_of_subcomplex(fc, 0.5, eps=1e-12) == [0, 26, 0, 0]

    def test_unreduced_component_count(self, even_2_5):
        _, fc, _, _ = even_2_5
        assert betti_of_subcomplex(fc, 0.2, reduced=False)[0] == 10


class TestInvariants:
    def test_euler_characteristic(self, threed_n2, even_2_5, odd_2_2):
        for _, fc, _, _ in (threed_n2, even_2_5, odd_2_2):
            assert homology.euler_characteristic_ok(fc)

    def test_unreduced_beta0_monotone_after_vertices(self, odd_2_2):
        _, fc, _, _ = odd_2_2
        pd = reduce(fc, reduced=False)
        values = sorted({v for v, _ in fc.entries})
        prev = None
        for r in values:
            b0 = betti_at(pd, 0, r, eps=1e-12)
            if prev is not None:
                assert b0 <= prev
            prev = b0

    def test_shuffle_invariance(self, even_2_5):
        # permuting entries within exactly-equal (value, dim) groups leaves
        # the diagram unchanged (pairing uniqueness); the even construction
        # has large such groups since class members are congruent
        _, fc, _, _ = even_2_5
        base = reduce(fc).pairs
        for shuffled in shuffled_equal_value_orders(fc, 10):
            assert reduce(shuffled).pairs == base


class TestDiagramIO:
    def test_roundtrip(self, threed_n2, tmp_path):
        _, _, _, pd = threed_n2
        path = tmp_path / "diag.csv"
        save_diagram(pd, path)
        back = load_diagram(path)
        assert back.pairs == sorted(pd.pairs)
        path2 = tmp_path / "diag2.csv"
        save_diagram(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_required(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("0,0.0,inf\n")
        with pytest.raises(ValueError):
            load_diagram(bad)

    def test_svg_smoke(self, threed_n2, tmp_path):
        _, _, _, pd = threed_n2
        out = tmp_path / "diag.svg"
        diagram_svg(pd, out)
        text = out.read_text()
        assert text.startswith("<svg") and "circle" in text


class TestBettiProfile:
    def test_3d_tunnel_profile(self, threed_n2):
        _, fc, thresholds, pd = threed_n2
        profile = homology.betti_profile(pd, 2)
        # right-continuous steps: rises to 4 at the triangle class, back to
        # 0 at the tetrahedron class
        values = [v for _, v in profile]
        assert max(values) == 4
        assert values[-1] == 0
        radii = [r for r, _ in profile]
        assert radii == sorted(radii)

    def test_changes_only_at_filtration_values(self, threed_n2):
        _, fc, _, pd = threed_n2
        filt_values = {v for v, _ in fc.entries}
        for r, _ in homology.betti_profile(pd, 1):
            assert any(abs(r - v) < 1e-15 for v in filt_values)
