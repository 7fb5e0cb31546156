import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from extremal_cech import complexgen, homology, oracle
from extremal_cech.homology import (
    betti_at,
    betti_of_subcomplex,
    boundary_columns,
    diagram_svg,
    reduce,
    save_diagram,
)

from conftest import as_filtration, cached_pipeline, diagram, euler_characteristic_ok, rank_betti

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


def shuffled_equal_value_orders(fc, count):
    """`count` filtrations of fc, each permuting entries within exactly-equal
    (value, dim) groups."""
    rng = random.Random(20240811)
    entries = as_filtration(fc)
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
        finite = sum(1 for _, _, death in pd.pairs if death != math.inf)
        essential = sum(1 for _, _, death in pd.pairs if death == math.inf)
        assert 2 * finite + essential == len(fc)

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError):
            reduce([(1.0, (0, 1)), (0.0, (0,)), (0.0, (1,))])

    def test_decreasing_values_rejected(self):
        # reduced, the first would pair as (0, 0.5, 0.2): a class that dies
        # before it is born
        with pytest.raises(ValueError, match=r"^filtration values decrease at position 1: "
                                             r"0\.5 after 1\.0$"):
            reduce([(1.0, (0,)), (0.5, (1,)), (0.2, (0, 1))])
        with pytest.raises(ValueError, match="at position 3: 0.5 after 1.0"):
            reduce([(0.0, (0,)), (0.0, (1,)), (1.0, (0, 1)), (0.5, (2,))])

    @pytest.mark.parametrize("entries,at", [
        ([(math.nan, (0,))], 0),
        ([(math.nan, (0,)), (0.0, (1,))], 0),
        ([(0.0, (0,)), (math.nan, (1,))], 1),
        ([(0.0, (0,)), (0.0, (1,)), (math.nan, (0, 1))], 2),
    ], ids=["lone", "first", "second", "edge"])
    def test_nan_value_rejected(self, entries, at):
        # a nan is not at least its predecessor, nor is a value after it
        with pytest.raises(ValueError, match=f"^filtration value at position {at} is nan$"):
            reduce(entries)

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

    def test_clearing_matches_standard_reduction(self, threed_n2, even_2_5, odd_2_2):
        filtrations = [as_filtration(fc) for _, fc, _, _ in (threed_n2, even_2_5, odd_2_2)]
        filtrations += shuffled_equal_value_orders(even_2_5[1], 10)
        for filtration in filtrations:
            verts = [verts for _, verts in filtration]
            lows = homology.reduce_columns(homology.face_array(verts))
            assert lows.tolist() == standard_lows(boundary_columns(verts))


BUILT = [("3d", 1, 2), ("3d", 1, 8), ("even", 2, 5), ("even", 3, 6), ("odd", 2, 2),
         ("odd", 2, 3), ("odd", 3, 3)]


class TestBuiltFaceRelation:
    """`reduce` on a built filtration reads the build's face relation; on
    a raw list it pads `boundary_columns`.  The two must agree, and so must
    the Betti vectors of either convention read at every class threshold."""

    @pytest.mark.parametrize("kind,k,n", BUILT)
    def test_faces_match_boundary_columns(self, kind, k, n, pipeline):
        _, fc, _, _ = pipeline(kind, k, n)
        columns = boundary_columns([verts for _, verts in as_filtration(fc)])
        assert [sorted(row[row >= 0].tolist()) for row in fc.faces()] == columns
        assert fc.values().tolist() == [value for value, _ in fc.entries]
        assert fc.dims().tolist() == [cs.dim for _, cs in fc.entries]

    @pytest.mark.parametrize("kind,k,n", BUILT)
    @pytest.mark.parametrize("reduced", [True, False])
    def test_pairs_match_boundary_path(self, kind, k, n, reduced, pipeline):
        _, fc, thresholds, _ = pipeline(kind, k, n)
        assert reduce(fc).pairs == reduce(as_filtration(fc)).pairs
        for th in thresholds:
            assert betti_of_subcomplex(fc, th.rho, reduced=reduced) == \
                sublevel_betti(fc, th.rho, reduced, 0.0), th

    # even_2_5, whose equal-value groups are largest, is in test_shuffle_invariance
    @pytest.mark.parametrize("name", ["threed_n2", "odd_2_2"])
    def test_pairs_match_shuffled_orders(self, name, request):
        _, fc, _, _ = request.getfixturevalue(name)
        base = reduce(fc).pairs
        for shuffled in shuffled_equal_value_orders(fc, 5):
            assert reduce(shuffled).pairs == base

    @pytest.mark.parametrize("kind,k,n", BUILT)
    def test_apparent_pairs_are_standard_lows(self, kind, k, n, pipeline):
        _, fc, _, _ = pipeline(kind, k, n)
        lows = standard_lows(boundary_columns([verts for _, verts in as_filtration(fc)]))
        deaths, births = homology._apparent_pairs(fc.faces())
        assert len(deaths) > 0
        assert [lows[j] for j in deaths.tolist()] == births.tolist()

    def test_apparent_pairs_on_shuffled_orders(self, even_2_5):
        for filtration in shuffled_equal_value_orders(even_2_5[1], 10):
            verts = [verts for _, verts in filtration]
            deaths, births = homology._apparent_pairs(homology.face_array(verts))
            lows = standard_lows(boundary_columns(verts))
            assert [lows[j] for j in deaths.tolist()] == births.tolist()

    def test_peak_memory_3d_100(self, pipeline):
        """The reduction keeps its columns sparse: one `reduce` of 3d n=100
        (40,803 simplices) stays within 10 MB; bitset columns peaked near
        45 MB."""
        _, fc, _, _ = pipeline("3d", 1, 100)
        assert reduce_peak_mb(fc) <= 10.0


def tuple_assembly(filtration):
    """Reference: the diagram as a (dim, birth, death) tuple list, made
    from the lows by one lexsort, `tolist` and `zip`."""
    values, dims, faces = homology._arrays(filtration)
    lows = homology.reduce_columns(faces())
    deaths = np.flatnonzero(lows >= 0)
    births = lows[deaths]
    unpaired = lows < 0
    unpaired[births] = False
    essential = np.flatnonzero(unpaired)
    dim = np.concatenate((dims[births], dims[essential]))
    birth = np.concatenate((values[births], values[essential]))
    death = np.concatenate((values[deaths], np.full(len(essential), INF)))
    order = np.lexsort((death, birth, dim))
    return list(zip(dim[order].tolist(), birth[order].tolist(), death[order].tolist()))


def generator_count(pairs, p, r, eps):
    """Reference: the dimension-p classes alive at r + eps, the unreduced
    Betti number, as a walk over the tuple list."""
    limit = r + eps
    return sum(1 for dim, birth, death in pairs if dim == p and birth <= limit < death)


def hexed_pairs(pairs):
    return [(dim, birth.hex(), death.hex()) for dim, birth, death in pairs]


def array_filtrations():
    """The built 3d n=30, even k=3 n=6 and odd k=2 n=3 complexes, and the
    Cech complex of odd k=2 n=2 at its last threshold."""
    out = [cached_pipeline(*args)[1] for args in (("3d", 1, 30), ("even", 3, 6), ("odd", 2, 3))]
    ps, _, thresholds, _ = cached_pipeline("odd", 2, 2)
    out.append(oracle.cech(ps.points, thresholds[-1].rho, 3))
    return out


class TestDiagramArrays:
    """A diagram is three arrays; the tuples it was are derived from them."""

    @pytest.fixture(scope="class")
    def filtrations(self):
        return array_filtrations()

    def test_arrays_match_the_tuple_assembly(self, filtrations):
        for filtration in filtrations:
            pd = reduce(filtration)
            assert (pd.dims.dtype, pd.births.dtype, pd.deaths.dtype) == \
                (np.dtype(np.intp), np.dtype(np.float64), np.dtype(np.float64))
            ref = tuple_assembly(filtration)
            assert len(pd) == len(ref) > 0
            assert hexed_pairs(pd.pairs) == hexed_pairs(ref)

    def test_betti_at_matches_the_generator_count(self, filtrations):
        # at every birth and death and one ulp either side, in every
        # dimension, with and without eps: the count less the component
        # of beta_0
        for filtration in filtrations:
            pd = reduce(filtration)
            pairs = pd.pairs
            values = np.unique(np.concatenate((pd.births, pd.deaths[pd.deaths != INF])))
            radii = np.concatenate((np.nextafter(values, -INF), values, np.nextafter(values, INF)))
            # one dimension above the top has no pairs
            by_dim = {p: [pair for pair in pairs if pair[0] == p]
                      for p in range(int(pd.dims.max()) + 2)}
            assert sum(map(len, by_dim.values())) == len(pd)
            for p, at_p in by_dim.items():
                for eps in (0.0, 1e-12):
                    got = [betti_at(pd, p, r, eps) for r in radii.tolist()]
                    assert got == [max(generator_count(at_p, p, r, eps) - (p == 0), 0)
                                   for r in radii.tolist()], (p, eps)

    def test_equality_reads_the_arrays(self, threed_n2):
        _, fc, _, pd = threed_n2
        assert reduce(fc) == pd and len(pd) == len(pd.pairs)
        moved = diagram(pd.pairs)
        moved.deaths[0] = np.nextafter(moved.deaths[0], INF)
        assert moved != pd and pd != pd.pairs

    def test_pairs_is_read_only(self, threed_n2):
        _, _, _, pd = threed_n2
        with pytest.raises(AttributeError):
            pd.pairs = []

    def test_memory_per_pair(self, pipeline):
        """A reduced 3d n=100 diagram (40,803 simplices) is held in its three
        arrays, within 32 B per pair; the tuple list took about 120 B."""
        _, fc, _, _ = pipeline("3d", 1, 100)
        tracemalloc.start()
        try:
            pd = reduce(fc)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(pd) > 20_000
        assert held <= 32 * len(pd)


def reduce_peak_mb(fc):
    """tracemalloc peak of one `reduce(fc)`, in MB."""
    tracemalloc.start()
    try:
        reduce(fc)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.slow
def test_3d_300_exact_counts_and_peak_memory(pipeline):
    """The paper's 3d counts at n=300, beta_1 = (n+1)^2 - 1 and beta_2 = n^2,
    from a reduction whose peak stays within 60 MB.  The thresholds are gap
    midpoints, read with no slack: the class gaps here are a few 1e-13."""
    _, fc, thresholds, pd = pipeline("3d", 1, 300)
    assert betti_at(pd, 1, complexgen.threshold_after(thresholds, (1, -1))) == 90_600
    assert betti_at(pd, 2, complexgen.threshold_after(thresholds, (1, 0))) == 90_000
    assert reduce_peak_mb(fc) <= 60.0


class TestBoundaryColumns:
    def test_missing_facet_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            boundary_columns([(0,), (1,), (0, 1, 2)])

    def test_facet_after_coface_rejected(self):
        with pytest.raises(ValueError, match=r"facet \(1, 2\) missing"):
            boundary_columns([(0,), (1,), (2,), (0, 1), (0, 2), (0, 1, 2), (1, 2)])

    # a repeated simplex would be indexed at its second copy and paired
    @pytest.mark.parametrize("simplices,repeated", [
        ([(3,), (3,)], "(3,)"),
        ([(3,), (4,), (3, 4), (3, 4)], "(3, 4)"),
    ], ids=["repeated-vertex", "repeated-edge"])
    def test_repeated_simplex_rejected(self, simplices, repeated):
        with pytest.raises(ValueError) as err:
            boundary_columns(simplices)
        assert str(err.value) == f"filtration repeats simplex {repeated}"

    def test_matches_bruteforce(self, threed_n2, even_2_5, odd_2_2):
        for _, fc, _, _ in (threed_n2, even_2_5, odd_2_2):
            simplices = [verts for _, verts in as_filtration(fc)]
            expected = [sorted(simplices.index(f)
                               for f in itertools.combinations(verts, len(verts) - 1))
                        if len(verts) > 1 else []
                        for verts in simplices]
            assert boundary_columns(simplices) == expected


class TestBettiAt:
    def test_empty_diagram(self):
        assert betti_at(diagram([]), 0, 1.0) == 0

    def test_3d_tunnel_count(self, pipeline):
        for n in (2, 3):
            _, _, thresholds, pd = pipeline("3d", 1, n)
            rho1 = complexgen.threshold_after(thresholds, (1, -1))
            assert betti_at(pd, 1, rho1) == (n + 1) ** 2 - 1

    def test_even_reduced_components(self, even_2_5):
        _, _, _, pd = even_2_5
        assert betti_at(pd, 0, 0.2) == 9  # kn - 1 isolated points

    def test_inclusion_eps(self):
        pd = diagram([(0, 0.5 + 1e-15, INF)])
        assert betti_at(pd, 0, 0.5) == 0  # reduced drops the last component
        assert betti_at(pd, 0, 0.5, eps=1e-12) == 0
        assert betti_at(diagram([(1, 0.5 + 1e-15, INF)]), 1, 0.5, eps=1e-12) == 1


class TestBettiOfSubcomplex:
    def test_negative_radius_all_zero(self, threed_n2):
        _, fc, _, _ = threed_n2
        assert betti_of_subcomplex(fc, -1.0) == rank_betti(fc, -1.0) == [0, 0, 0, 0]
        # the empty complex has no component to add back
        assert betti_of_subcomplex(fc, -1.0, reduced=False) == \
            rank_betti(fc, -1.0, reduced=False) == [0, 0, 0, 0]

    def test_3d_vector_at_rho2(self, threed_n2):
        _, fc, thresholds, _ = threed_n2
        rho2 = complexgen.threshold_after(thresholds, (1, 0))
        assert betti_of_subcomplex(fc, rho2) == rank_betti(fc, rho2) == [0, 0, 4, 0]

    def test_even_at_half(self, even_2_5):
        _, fc, _, _ = even_2_5
        assert betti_of_subcomplex(fc, 0.5, eps=1e-12) == rank_betti(fc, 0.5, eps=1e-12) == \
            [0, 26, 0, 0]

    def test_unreduced_component_count(self, even_2_5):
        _, fc, _, _ = even_2_5
        vec = betti_of_subcomplex(fc, 0.2, reduced=False)
        assert vec == rank_betti(fc, 0.2, reduced=False)
        assert vec[0] == 10
        # at the least value, 0, the sublevel complex is the 10 vertices
        assert betti_of_subcomplex(fc, 0.0, reduced=False)[0] == 10

    @pytest.mark.parametrize("kind,k,n", [("3d", 1, 8), ("even", 2, 5), ("odd", 2, 2)])
    def test_matches_reduction_of_the_sublevel(self, kind, k, n, pipeline):
        """The Betti numbers read from the whole diagram, against a second
        reduction of the sublevel list and against its boundary ranks: at
        every class threshold and at 8 midpoints of gaps between distinct
        values."""
        _, fc, thresholds, _ = pipeline(kind, k, n)
        values = sorted(set(fc.values().tolist()))
        step = (len(values) - 1) / 8
        gaps = [int(i * step) for i in range(8)]
        radii = [th.rho for th in thresholds]
        radii += [0.5 * (values[i] + values[i + 1]) for i in gaps]
        for r in radii:
            for eps in (0.0, 1e-12):
                for reduced in (True, False):
                    vec = betti_of_subcomplex(fc, r, reduced=reduced, eps=eps)
                    assert vec == sublevel_betti(fc, r, reduced, eps), (r, eps, reduced)
                    assert vec == rank_betti(fc, r, reduced=reduced, eps=eps), (r, eps, reduced)

    def test_reads_the_whole_diagram(self, even_2_5, monkeypatch):
        """One reduction, of the whole complex, and no second face relation."""
        _, fc, thresholds, _ = even_2_5
        calls = []
        real = homology.reduce

        def reduce_once(filtration, **kwargs):
            calls.append(filtration)
            return real(filtration, **kwargs)

        monkeypatch.setattr(homology, "reduce", reduce_once)
        monkeypatch.setattr(homology, "boundary_columns", None)
        for th in thresholds:
            assert betti_of_subcomplex(fc, th.rho) == rank_betti(fc, th.rho)
        assert len(calls) == len(thresholds) and all(call is fc for call in calls)


def sublevel_betti(fc, r, reduced, eps):
    """Reference: reduce the sublevel complex at r again, as a pair list;
    unreduced, beta_0 counts every class alive."""
    entries = as_filtration(fc)
    pmax = max(len(v) - 1 for _, v in entries)
    sub = [(value, verts) for value, verts in entries if value <= r + eps]
    if not sub:
        return [0] * (pmax + 1)
    pairs = reduce(sub).pairs
    vec = [generator_count(pairs, p, r, eps) for p in range(pmax + 1)]
    if reduced:
        vec[0] -= 1
    return vec


class TestInvariants:
    def test_euler_characteristic(self, threed_n2, even_2_5, odd_2_2):
        for _, fc, _, _ in (threed_n2, even_2_5, odd_2_2):
            assert euler_characteristic_ok(fc)

    def test_unreduced_beta0_monotone_after_vertices(self, odd_2_2):
        _, fc, _, _ = odd_2_2
        values = sorted({v for v, _ in fc.entries})
        prev = None
        for r in values:
            b0 = betti_of_subcomplex(fc, r, reduced=False, eps=1e-12)[0]
            assert b0 == rank_betti(fc, r, reduced=False, eps=1e-12)[0] > 0
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
        header, *rows = path.read_text().splitlines()
        assert header == "dim,birth,death"
        # 17 significant digits read back to the same floats
        assert [(int(d), float(b), float(x)) for d, b, x in
                (row.split(",") for row in rows)] == sorted(pd.pairs)
        path2 = tmp_path / "diag2.csv"
        save_diagram(pd, path2)
        assert path.read_bytes() == path2.read_bytes()

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


def profile_reference(pd, p):
    """The profile by one `betti_at` call per breakpoint."""
    breaks = sorted({b for dim, b, _ in pd.pairs if dim == p}
                    | {d for dim, _, d in pd.pairs if dim == p and d != INF})
    out = []
    for r in breaks:
        value = betti_at(pd, p, r)
        if not out or out[-1][1] != value:
            out.append((r, value))
    return out


def euler_reference(entries, pd, eps):
    """The Euler identity recounted from scratch at every value, against
    the unreduced Betti numbers of `pd`."""
    pmax = max(len(v) - 1 for _, v in entries)
    for r in sorted({v for v, _ in entries}):
        counts = [0] * (pmax + 1)
        for value, verts in entries:
            if value <= r + eps:
                counts[len(verts) - 1] += 1
        chi_betti = sum((-1) ** p * generator_count(pd.pairs, p, r, eps)
                        for p in range(pmax + 1))
        if sum((-1) ** p * c for p, c in enumerate(counts)) != chi_betti:
            return False
    return True


FIXTURES = ("threed_n2", "even_2_5", "odd_2_2")


class TestSweepQueries:
    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("reduced", [True, False])
    def test_profile_matches_betti_at_at_every_breakpoint(self, name, reduced, request):
        # and unreduced, each breakpoint's value is betti_of_subcomplex's
        # less the one component of the nonempty complex
        _, fc, _, pd = request.getfixturevalue(name)
        for p in range(fc.max_dim() + 1):
            profile = homology.betti_profile(pd, p)
            assert profile == profile_reference(pd, p)
            if not reduced:
                for r, value in profile:
                    vec = betti_of_subcomplex(fc, r, reduced=False)
                    assert vec[p] == value + (p == 0), (p, r)

    def test_profile_ignores_pairs_that_are_never_alive(self):
        pd = diagram([(1, 0.5, 0.5), (1, 0.7, 0.6), (1, 0.2, 0.8)])
        assert homology.betti_profile(pd, 1) == profile_reference(pd, 1)

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("eps", [0.0, 1e-12])
    def test_euler_matches_per_value_recount(self, name, eps, request, monkeypatch):
        # intact, then with one pair dropped, which breaks the identity
        _, fc, _, _ = request.getfixturevalue(name)
        entries = as_filtration(fc)
        full = reduce(entries)
        assert euler_characteristic_ok(fc, eps)
        assert euler_reference(entries, full, eps)
        for drop in range(0, len(full.pairs), max(1, len(full.pairs) // 7)):
            pd = diagram(full.pairs[:drop] + full.pairs[drop + 1:])
            monkeypatch.setattr(homology, "reduce", lambda *args, pd=pd, **kwargs: pd)
            verdict = euler_characteristic_ok(fc, eps)
            assert verdict == euler_reference(entries, pd, eps)
            assert not verdict

    def test_euler_counts_values_within_eps_as_one(self, monkeypatch):
        # a 1-cycle born and killed 3e-13 apart: within eps = 1e-12 it never
        # shows, so a diagram without its pair still passes; at eps = 0 it
        # does show, and the missing pair is caught
        entries = [(0.0, (0,)), (0.0, (1,)), (0.0, (2,)), (1.0, (0, 1)), (1.0, (1, 2)),
                   (1.0 + 5e-13, (0, 2)), (1.0 + 8e-13, (0, 1, 2))]
        full = reduce(entries)
        assert (1, 1.0 + 5e-13, 1.0 + 8e-13) in full.pairs
        pd = diagram([p for p in full.pairs if p[0] != 1])
        monkeypatch.setattr(homology, "reduce", lambda *args, **kwargs: pd)
        for eps, verdict in ((1e-12, True), (0.0, False)):
            assert euler_characteristic_ok(entries, eps) is verdict
            assert euler_reference(entries, pd, eps) is verdict
