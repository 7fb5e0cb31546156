import csv
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from extremal_cech import cli, complexgen, construct, homology, verify
from extremal_cech.geometry import DEFAULT_TOL

from conftest import cached_pipeline, rank_betti


SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def popen(argv, **kwargs):
    """`python -m extremal_cech.cli ARGV` in a fresh interpreter."""
    return subprocess.Popen([sys.executable, "-m", "extremal_cech.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=str(SRC)), text=True, **kwargs)


class TestGenerate:
    def test_3d_row_count(self, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        code, _, _ = run(["generate", "--kind", "3d", "--n", "2", "--delta", "auto",
                          "-o", str(out)], capsys)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 6  # header + N = 2n+2 rows

    def test_deterministic_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["generate", "--kind", "even", "--k", "2", "--n", "5", "-o", str(a)], capsys)
        run(["generate", "--kind", "even", "--k", "2", "--n", "5", "-o", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_auto_delta_builds_no_filtration(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(complexgen, "build_filtration", lambda ps: calls.append(ps))
        out = tmp_path / "pts.csv"
        code, _, _ = run(["generate", "--kind", "3d", "--n", "2", "--delta", "auto",
                          "-o", str(out)], capsys)
        assert (code, calls) == (0, [])
        assert out.read_text().startswith(f"# 3d,3,1,2,{construct.default_delta(2)!r},")

    def test_suspended(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(["generate", "--kind", "suspended", "--k", "2", "--n", "2",
                          "--delta", "0.005", "--h", "0.5", "-o", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 8

    def test_suspended_apex_height_defaults_to_half(self, tmp_path, capsys):
        files = [tmp_path / "default.csv", tmp_path / "half.csv"]
        for out, flags in zip(files, [[], ["--h", "0.5"]]):
            code, _, _ = run(["generate", "--kind", "suspended", "--k", "2", "--n", "3",
                              *flags, "-o", str(out)], capsys)
            assert code == 0
        assert files[0].read_text().splitlines()[0].endswith(",0.5")
        assert files[0].read_bytes() == files[1].read_bytes()


class TestFiltration:
    def test_from_params_and_from_file(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "2", "--delta", "auto", "-o", str(pts)],
            capsys)
        f1 = tmp_path / "f1.txt"
        f2 = tmp_path / "f2.txt"
        code1, _, _ = run(["filtration", "--kind", "3d", "--n", "2", "-o", str(f1)], capsys)
        code2, _, _ = run(["filtration", "--kind", "3d", "--n", "2",
                           "--points", str(pts), "-o", str(f2)], capsys)
        assert code1 == code2 == 0
        assert f1.read_bytes() == f2.read_bytes()
        assert len(f1.read_text().strip().splitlines()) == 35

    def test_points_take_no_delta(self, tmp_path, capsys):
        # the file's header fixes delta, so a --delta X would go unread
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "-o", str(pts)], capsys)
        out = tmp_path / "f.txt"
        code, stdout, err = run(["filtration", "--kind", "3d", "--n", "3", "--points", str(pts),
                                 "--delta", "0.7", "-o", str(out)], capsys)
        assert (code, stdout, err) == (2, "", f"error: --delta 0.7 is given, but the header "
                                              f"of {pts} fixes delta\n")
        assert not out.exists()

    def test_explicit_bad_delta_exits_3(self, tmp_path, capsys):
        code, _, err = run(["filtration", "--kind", "3d", "--n", "10",
                            "--delta", "0.5", "-o", str(tmp_path / "f.txt")], capsys)
        assert code == 3
        assert "empty" in err

    def test_loaded_points_are_validated(self, tmp_path, capsys):
        # a loaded set fails with the message of the same set constructed
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "--delta", "0.5", "-o", str(pts)],
            capsys)
        out = tmp_path / "f.txt"
        flags = ["filtration", "--kind", "3d", "--n", "3", "-o", str(out)]
        for extra in (["--points", str(pts)], ["--delta", "0.5"]):
            assert run([*flags, *extra], capsys) == (
                3, "", "error: kind=3d k=1 n=3 at delta=0.5: "
                       "radius ranges of classes (1, -1) and (1, 0) overlap\n")
        assert not out.exists()

    @pytest.mark.parametrize("line,text,keep,message", [
        (2, "0", 9, "1 fields, expected 2 + d = 5"),
        (3, "0,1,0.5,0.5", 9, "4 fields, expected 2 + d = 5"),
        (2, "0,0,a,0,0", 9, "could not convert string to float: 'a'"),
        (1, "# 3d,3,1,3", 9, "header has 4 fields, not kind,d,k,n,delta,h"),
        (1, "# 3d,3,1,3,zz,0", 1, "could not convert string to float: 'zz'"),
    ], ids=["one-field-row", "short-row", "non-numeric", "short-header", "bad-delta-no-rows"])
    def test_unreadable_point_file_names_the_line(self, tmp_path, capsys, line, text, keep,
                                                  message):
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "--delta", "auto", "-o", str(pts)],
            capsys)
        lines = pts.read_text().splitlines()
        lines[line - 1] = text
        pts.write_text("\n".join(lines[:keep]) + "\n")
        code, out, err = run(["filtration", "--kind", "3d", "--n", "3", "--points", str(pts),
                              "-o", str(tmp_path / "f.txt")], capsys)
        assert (code, out, err) == (2, "", f"error: {pts}, line {line}: {message}\n")

    def test_loaded_points_must_match_flags(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "--delta", "auto", "-o", str(pts)],
            capsys)
        for flags in (["--kind", "odd", "--k", "2", "--n", "9"], ["--kind", "3d", "--n", "4"]):
            code, _, err = run(["filtration", *flags, "--points", str(pts),
                                "-o", str(tmp_path / "f.txt")], capsys)
            assert code == 2
            assert "kind=3d k=1 n=3" in err

    @pytest.mark.parametrize("edit", ["truncated", "relabelled"])
    def test_loaded_labels_must_match_header(self, tmp_path, capsys, edit):
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "--delta", "auto", "-o", str(pts)],
            capsys)
        lines = pts.read_text().splitlines()
        if edit == "truncated":
            lines = lines[:6]  # header and 5 of the 8 rows
        else:
            lines[2] = "0,2," + lines[2].split(",", 2)[2]  # second row claims index 2
        pts.write_text("\n".join(lines) + "\n")
        code, _, err = run(["filtration", "--kind", "3d", "--n", "3", "--points", str(pts),
                            "-o", str(tmp_path / "f.txt")], capsys)
        assert code == 2
        assert "kind=3d k=1 n=3" in err
        assert ("holds 5 points" if edit == "truncated" else "labels point 1 (0, 2)") in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_loaded_coordinates_must_be_finite(self, tmp_path, capsys, value):
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "--delta", "auto", "-o", str(pts)],
            capsys)
        lines = pts.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + value  # third point's last coordinate
        pts.write_text("\n".join(lines) + "\n")
        code, _, err = run(["filtration", "--kind", "3d", "--n", "3", "--points", str(pts),
                            "-o", str(tmp_path / "f.txt")], capsys)
        assert code == 2
        assert f"{pts} row 3 after the header has a non-finite coordinate" in err
        assert err.rstrip().endswith(value)


class TestBetti:
    def test_even_anchor(self, capsys):
        code, out, _ = run(["betti", "--kind", "even", "--k", "2", "--n", "5",
                            "--radius", "0.5", "--p", "1"], capsys)
        assert code == 0
        assert out.strip() == "26"

    @pytest.mark.parametrize("radius", ["0.7072", "1.0"])
    def test_even_radius_at_the_top_cell_is_a_usage_error(self, radius, capsys):
        # conv(A), which the even mosaic leaves out, fills the sphere at sqrt(2)/2
        code, out, err = run(["betti", "--kind", "even", "--k", "2", "--n", "5",
                              "--radius", radius], capsys)
        assert (code, out) == (2, "")
        assert err == (f"error: radius {float(radius)!r} is not below the even top-cell "
                       "value sqrt(2)/2 less abs_eps\n")

    def test_even_radius_below_the_top_cell(self, capsys):
        code, out, _ = run(["betti", "--kind", "even", "--k", "2", "--n", "5",
                            "--radius", "0.70"], capsys)
        assert (code, out) == (0, "0 0 0 1\n")

    def test_vector_output(self, capsys):
        code, out, _ = run(["betti", "--kind", "3d", "--n", "2", "--radius", "0.0"],
                           capsys)
        assert code == 0
        assert out.strip() == "5 0 0 0"

    def test_unreduced(self, capsys):
        code, out, _ = run(["betti", "--kind", "3d", "--n", "2", "--radius", "0.0",
                            "--unreduced"], capsys)
        assert code == 0
        assert out.strip() == "6 0 0 0"

    @pytest.mark.parametrize("p", ["7", "4", "-1"])
    def test_p_out_of_range_is_a_usage_error(self, p, capsys):
        code, out, err = run(["betti", "--kind", "3d", "--n", "2", "--radius", "0.6",
                              "--p", p], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --p {p} is outside 0..3\n"

    def test_nan_radius_is_a_usage_error(self, capsys):
        code, out, err = run(["betti", "--kind", "3d", "--n", "8", "--radius", "nan"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --radius must be a number, not nan\n"

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_infinite_radius_is_a_usage_error(self, value, capsys):
        # at r = inf no essential class satisfies birth <= r < death
        code, out, err = run(["betti", "--kind", "3d", "--n", "2", f"--radius={value}",
                              "--unreduced"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --radius must be finite, not {value}\n"

    @pytest.mark.parametrize("kind,k,n", [("3d", 1, 30), ("even", 2, 5), ("odd", 2, 3)])
    @pytest.mark.parametrize("flags", [[], ["--unreduced"]])
    def test_every_threshold_matches_ranks(self, kind, k, n, flags, capsys):
        # the vector read from the diagram, against boundary ranks of the
        # sublevel at the CLI's slack
        _, fc, thresholds, _ = cached_pipeline(kind, k, n)
        for th in thresholds:
            code, out, _ = run(["betti", "--kind", kind, "--k", str(k), "--n", str(n),
                                "--radius", format(th.rho, ".17g"), *flags], capsys)
            expected = rank_betti(fc, th.rho, reduced=not flags, eps=DEFAULT_TOL.abs_eps)
            assert (code, out) == (0, " ".join(map(str, expected)) + "\n"), th

    # (0, -1), the vertices, is the first class: no threshold precedes it
    @pytest.mark.parametrize("cls", [(1, 0), (0, -1)])
    def test_slack_that_would_start_a_class_is_a_usage_error(self, cls, capsys):
        _, fc, thresholds, _ = cached_pipeline("3d", 1, 2)
        radius = fc.class_ranges()[cls][0] - 0.5 * DEFAULT_TOL.abs_eps
        code, out, err = run(["betti", "--kind", "3d", "--n", "2", f"--radius={radius!r}"],
                             capsys)
        printed = next((format(th.rho, ".17g") for th in thresholds if th.above == cls),
                       "no threshold")
        assert (code, out) == (2, "")
        assert err == (f"error: radius {radius!r} is less than abs_eps below class {cls}, "
                       f"which the slack would start; radii prints {printed} before that "
                       "class\n")

    def test_3d_200_reads_verify_counts_or_refuses(self, capsys):
        # the class gaps here are about 1.55e-12: the slack at the threshold
        # after (1, -1) or (1, 0) would start the next class
        _, _, thresholds, pd = cached_pipeline("3d", 1, 200)
        refused = []
        for th in thresholds:
            rho = format(th.rho, ".17g")
            code, out, err = run(["betti", "--kind", "3d", "--n", "200", "--radius", rho],
                                 capsys)
            if code == 2:
                refused.append(th.below)
                assert err == (f"error: radius {th.rho!r} is less than abs_eps below class "
                               f"{th.above}, which the slack would start; radii prints "
                               f"{rho} before that class\n")
            else:
                expected = [homology.betti_at(pd, p, th.rho) for p in range(4)]
                assert (code, out) == (0, " ".join(map(str, expected)) + "\n"), th
        assert refused == [(1, -1), (1, 0)]


class TestPersistence:
    def test_diagram_and_svg(self, tmp_path, capsys):
        diag = tmp_path / "d.csv"
        svg = tmp_path / "d.svg"
        code, out, _ = run(["persistence", "--kind", "3d", "--n", "2",
                            "-o", str(diag), "--svg", str(svg)], capsys)
        assert code == 0
        header, *rows = diag.read_text().splitlines()
        assert header == "dim,birth,death"
        assert out.splitlines()[0] == f"wrote {len(rows)} pairs to {diag}"
        assert svg.read_text().startswith("<svg")

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["persistence", "--kind", "even", "--k", "2", "--n", "5", "-o", str(a)], capsys)
        run(["persistence", "--kind", "even", "--k", "2", "--n", "5", "-o", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_unreduced_is_not_an_option(self, tmp_path, capsys):
        # the diagram file holds the same pairs under either convention
        with pytest.raises(SystemExit) as exc:
            cli.main(["persistence", "--kind", "3d", "--n", "2",
                      "-o", str(tmp_path / "d.csv"), "--unreduced"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unreduced" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists()


class TestVerify:
    def test_betti_suite_3d(self, tmp_path, capsys):
        csv = tmp_path / "claims.csv"
        code, out, _ = run(["verify", "--theorem", "3.1", "--n", "5",
                            "--csv", str(csv)], capsys)
        assert code == 0
        assert "3d/b1" in out and "observed=35" in out
        assert "3d/b2" in out and "observed=25" in out
        assert "0 failures" in out
        assert csv.read_text().startswith("claim_id,")

    def test_all_csv_rows_have_five_fields(self, tmp_path, capsys):
        """Each row of `verify --all --csv` parses into five fields, an id
        with a comma in it quoted, and the rows' ids are stdout's."""
        path = tmp_path / "claims.csv"
        code, out, _ = run(["verify", "--all", "--csv", str(path)], capsys)
        assert code == 0
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["claim_id", "params", "expected", "observed", "status"]
        assert {len(row) for row in rows} == {5}
        ids = [re.match(r"\S+ +(.*?) \[", line)[1] for line in out.splitlines()[:-1]]
        assert [row[0] for row in rows] == ids and len(ids) == 53
        assert sum("," in claim_id for claim_id in ids) == 21

    def test_nothing_selected_is_usage_error(self, capsys):
        code, out, err = run(["verify", "--n", "2"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: nothing selected; pass --theorem/--suspension/"
                       "--radii/--hypotheses/--all\n")

    @pytest.mark.parametrize("flags", [["--theorem", "4.1", "--n", "2"],
                                       ["--theorem", "2.1", "--n", "5"],
                                       ["--hypotheses", "--n", "2"]])
    def test_k_zero_is_not_the_default(self, flags, capsys):
        code, out, err = run(["verify", *flags, "--k", "0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("flags", [["--n", "9"], ["--k", "4"], ["--n", "9", "--k", "4"]])
    def test_all_takes_no_n_or_k(self, flags, capsys):
        code, out, err = run(["verify", "--all", *flags], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --all runs a fixed claim set and takes no --n or --k\n"

    @pytest.mark.parametrize("k,n", [(3, 6), (4, 7)])
    def test_radii_claim_every_even_class(self, k, n, capsys):
        code, out, _ = run(["verify", "--radii", "--k", str(k), "--n", str(n)], capsys)
        assert code == 0 and out.endswith(" 0 failures\n")
        claimed = {line.split(" [")[0].split(None, 1)[1] for line in out.splitlines()
                   if line.startswith("PASS    radii/even/class")}
        classes = verify._validated("even", k, n)[1].class_ranges()
        assert len(classes) == k * (k + 3) // 2
        assert claimed == {f"radii/even/class{cls}" for cls in classes}

    def test_theorem_3_1_takes_only_k_1(self, capsys):
        code, out, err = run(["verify", "--theorem", "3.1", "--n", "2", "--k", "5"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: --k 5 is not 1, the only k of theorem 3.1\n"
        code, out, _ = run(["verify", "--theorem", "3.1", "--n", "2", "--k", "1"], capsys)
        assert code == 0 and out.endswith("8 claims, 0 failures\n")

    def test_suspension_takes_only_k_2(self, capsys):
        code, out, err = run(["verify", "--suspension", "--k", "3"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: k=3 is not 2, the only k of the suspension claims (desk scale)\n"


class TestOracleCommand:
    def test_reduces_each_side_once(self, monkeypatch, capsys):
        # one Cech and one alpha diagram for all eight thresholds; one alpha
        # reduction per threshold would make 9
        real = homology.reduce
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(homology, "reduce", counting)
        code, out, _ = run(["oracle", "--kind", "odd", "--k", "2", "--n", "2"], capsys)
        assert code == 0 and "FAIL" not in out
        assert len(calls) == 2

    def test_3d_n2(self, capsys):
        code, out, _ = run(["oracle", "--kind", "3d", "--n", "2"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_budget_exit_3(self, capsys):
        code, _, err = run(["oracle", "--kind", "3d", "--n", "2", "--budget", "3"],
                           capsys)
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one_exits_2(self, budget, capsys):
        code, out, err = run(["oracle", "--kind", "3d", "--n", "2", "--budget", budget],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"error: budget {budget} is below 1\n"

    def test_even_top_cell_simplex_passes(self, capsys):
        # conv(A) of even k=1 n=3 is a triangle that the mosaic leaves out
        code, out, _ = run(["oracle", "--kind", "even", "--k", "1", "--n", "3"], capsys)
        assert code == 0
        assert "6 enumerated, 6 oracle, 0 missing, 0 extra -> PASS" in out
        assert "FAIL" not in out

    @pytest.mark.slow
    @pytest.mark.parametrize("k,n,faces", [(3, 2, 1295), (2, 3, 511)])
    def test_odd_all_pass(self, k, n, faces, capsys):
        # sizes where the LP's optimal margins sit closest to 0
        code, out, _ = run(["oracle", "--kind", "odd", "--k", str(k), "--n", str(n)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert f"{faces} enumerated, {faces} oracle, 0 missing, 0 extra -> PASS" in lines[0]
        assert all(line.endswith("-> PASS") for line in lines)

    @pytest.mark.parametrize("maxdim", ["-1", "4"])
    def test_maxdim_outside_the_dimension_exits_2(self, maxdim, capsys):
        code, out, err = run(["oracle", "--kind", "3d", "--n", "2", "--maxdim", maxdim],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"error: maxdim {maxdim} is outside 0..3\n"

    def test_relaxed_is_not_an_option(self, capsys):
        # the face test has one rule, a clearance above abs_eps at the LP's center
        with pytest.raises(SystemExit) as exc:
            cli.main(["oracle", "--kind", "3d", "--n", "2", "--relaxed"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --relaxed" in capsys.readouterr().err


class TestRadiiCommand:
    def test_table(self, capsys):
        code, out, _ = run(["radii", "--kind", "even", "--k", "2", "--n", "5"], capsys)
        assert code == 0
        assert "thresholds:" in out
        assert "0.5" in out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["betti", "--kind", "nope", "--n", "2", "--radius", "1"])
    assert exc.value.code == 2


def test_apex_height_is_a_generate_option_only(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["filtration", "--kind", "3d", "--n", "2", "--h", "0.3",
                  "-o", str(tmp_path / "f.txt")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --h 0.3" in capsys.readouterr().err
    assert not (tmp_path / "f.txt").exists()


class TestBadInputExit2:
    """A size no construction accepts, a --k a kind cannot take, and a file
    that cannot be read or written end as one `error: ...` line on stderr
    and exit 2."""

    @pytest.mark.parametrize("command", [["radii"], ["betti", "--radius", "0.5"],
                                         ["generate", "-o", os.devnull]])
    @pytest.mark.parametrize("kind", ["even", "odd"])
    def test_missing_k(self, command, kind, capsys):
        code, out, err = run([command[0], "--kind", kind, "--n", "3", *command[1:]], capsys)
        assert (code, out, err) == (2, "", f"error: k is required for kind {kind}\n")

    @pytest.mark.parametrize("k", ["5", "0"])
    def test_3d_k_other_than_1(self, k, capsys):
        code, out, err = run(["radii", "--kind", "3d", "--n", "2", "--k", k], capsys)
        assert (code, out, err) == (2, "", f"error: k={k} is not 1, the only k of kind 3d\n")

    @pytest.mark.parametrize("suite", [["--theorem", "3.1"], ["--theorem", "2.1"],
                                       ["--suspension"], ["--radii"], ["--hypotheses"]])
    def test_all_takes_no_other_suite(self, suite, tmp_path, capsys):
        # --all already runs every suite: another one would print, and
        # write, each of its claims twice
        csv = tmp_path / "claims.csv"
        code, out, err = run(["verify", "--all", *suite, "--csv", str(csv)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: --all runs every suite and takes no --theorem, --suspension, "
                       "--radii or --hypotheses\n")
        assert not csv.exists()

    @pytest.mark.parametrize("command", ["generate", "filtration"])
    @pytest.mark.parametrize("kind", [["--kind", "3d"], ["--kind", "odd", "--k", "2"]])
    def test_n_0_with_the_default_delta(self, command, kind, tmp_path, capsys):
        code, out, err = run([command, *kind, "--n", "0", "-o", str(tmp_path / "x")], capsys)
        assert (code, out, err) == (2, "", "error: n must be >= 2\n")

    @pytest.mark.parametrize("command", [["generate", "-o", os.devnull], ["filtration", "-o"],
                                         ["betti", "--radius", "0.5"], ["persistence", "-o"],
                                         ["radii"], ["oracle"]])
    def test_even_takes_no_delta(self, command, tmp_path, capsys):
        if command[-1] == "-o":
            command = [*command, str(tmp_path / "x")]
        code, out, err = run([command[0], "--kind", "even", "--k", "2", "--n", "5",
                              "--delta", "0.3", *command[1:]], capsys)
        assert (code, out, err) == (2, "", "error: delta=0.3 is given, but kind even "
                                           "has no delta\n")
        assert not (tmp_path / "x").exists()

    def test_even_takes_delta_auto(self, capsys):
        runs = [run(["radii", "--kind", "even", "--k", "2", "--n", "5", *flags], capsys)
                for flags in ([], ["--delta", "auto"])]
        assert runs[0][0] == 0 and runs[0] == runs[1]

    @pytest.mark.parametrize("kind", [["--kind", "3d"], ["--kind", "even", "--k", "2"],
                                      ["--kind", "odd", "--k", "2"]])
    def test_apex_height_only_for_suspended(self, kind, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        code, stdout, err = run(["generate", *kind, "--n", "5", "--h", "0.3", "-o", str(out)],
                                capsys)
        assert (code, stdout, err) == (2, "", "error: h=0.3 is given, but only kind "
                                              "suspended has an apex height\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind,count", [(["--kind", "even", "--k", "6", "--n", "7"],
                                             11390624),
                                            (["--kind", "3d", "--n", "100000000"],
                                             40000000800000003)])
    def test_mosaic_too_large(self, kind, count, capsys):
        start = time.perf_counter()
        code, out, err = run(["radii", *kind], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"the mosaic has {count} simplices, more than the 4194304" in err

    def test_loaded_mosaic_too_large(self, tmp_path, capsys):
        # even k=6 n=8 is the first even k=6 at min_n(6); its file holds 48 points
        pts = tmp_path / "pts.csv"
        flags = ["--kind", "even", "--k", "6", "--n", "8"]
        assert run(["generate", *flags, "-o", str(pts)], capsys)[0] == 0
        start = time.perf_counter()
        code, out, err = run(["filtration", *flags, "--points", str(pts),
                              "-o", str(tmp_path / "f.txt")], capsys)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err == ("error: kind=even k=6 n=8: the mosaic has 24137568 simplices, "
                       "more than the 4194304 one build may hold\n")

    def test_verify_sweep_too_large(self, fresh_memos, monkeypatch, capsys):
        # the even k=2 n=5 build of the radius claims has 120 simplices, the
        # 3d n=5 sweep 143
        monkeypatch.setattr(construct, "MAX_SIMPLICES", 130)
        code, out, err = run(["verify", "--radii", "--k", "2", "--n", "5"], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: kind=3d k=1 n=5: the mosaic has 143 simplices, "
                       "more than the 130 one build may hold\n")

    def test_verify_radii_takes_k_from_2(self, capsys):
        # the one-circle even set has no classes (1, 0) and (1, 1)
        code, out, err = run(["verify", "--radii", "--k", "1", "--n", "5"], capsys)
        assert (code, out, err) == (2, "", "error: k must be >= 2\n")

    @pytest.mark.parametrize("field,value", [(4, "5.0"), (4, "nan"), (2, "5")],
                             ids=["delta-5", "delta-nan", "k-5"])
    def test_loaded_header_the_builder_refuses(self, field, value, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "-o", str(pts)], capsys)
        lines = pts.read_text().splitlines()
        header = lines[0][2:].split(",")
        header[field] = value
        lines[0] = "# " + ",".join(header)
        pts.write_text("\n".join(lines) + "\n")
        code, out, err = run(["filtration", "--kind", "3d", "--n", "3", "--points", str(pts),
                              "-o", str(tmp_path / "f.txt")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {pts} has header kind=3d k={header[2]} n=3 ")
        assert err.count("\n") == 1
        assert not (tmp_path / "f.txt").exists()

    def test_loaded_delta_its_coordinates_do_not_have(self, tmp_path, capsys):
        # the points are those of delta=0.01, the header says 0.011
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "-o", str(pts)], capsys)
        lines = pts.read_text().splitlines()
        lines[0] = lines[0].replace(",0.01,", ",0.011,")
        assert lines[0] == "# 3d,3,1,3,0.011,0"
        pts.write_text("\n".join(lines) + "\n")
        code, out, err = run(["filtration", "--kind", "3d", "--n", "3", "--points", str(pts),
                              "-o", str(tmp_path / "f.txt")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {pts} has header kind=3d k=1 n=3 delta=0.011 h=0.0: "
                              "its points 0 and 1 give half edge ")
        assert err.count("\n") == 1
        assert not (tmp_path / "f.txt").exists()

    def test_loaded_even_points_scaled_off_their_circles(self, tmp_path, capsys):
        # the even half edge has a closed form in n, and the load measures
        # the file's points 0 and 1 against it, as on every other kind
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "even", "--k", "2", "--n", "5", "-o", str(pts)], capsys)
        header, *rows = pts.read_text().splitlines()
        rows = [",".join(fields[:2] + [repr(1.05 * float(c)) for c in fields[2:]])
                for fields in (row.split(",") for row in rows)]
        pts.write_text("\n".join([header, *rows]) + "\n")
        code, out, err = run(["filtration", "--kind", "even", "--k", "2", "--n", "5",
                              "--points", str(pts), "-o", str(tmp_path / "f.txt")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {pts} has header kind=even k=2 n=5 delta=0.0 h=0.0: "
                              "its points 0 and 1 give half edge ")
        assert err.count("\n") == 1
        assert not (tmp_path / "f.txt").exists()

    @pytest.mark.parametrize("h", ["nan", "inf", "-1"])
    def test_apex_height_positive_and_finite(self, h, tmp_path, capsys):
        out = tmp_path / "pts.csv"
        code, stdout, err = run(["generate", "--kind", "suspended", "--k", "2", "--n", "2",
                                 f"--h={h}", "-o", str(out)], capsys)
        assert (code, stdout) == (2, "")
        assert err == f"error: h must be positive and finite, not {float(h)!r}\n"
        assert not out.exists()

    def test_missing_points_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code, out, err = run(["filtration", "--kind", "3d", "--n", "3", "--points", str(missing),
                              "-o", str(tmp_path / "x")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "x.csv"
        code, out, err = run(["persistence", "--kind", "3d", "--n", "3", "-o", str(target)],
                             capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(target) in err and err.count("\n") == 1


class TestNumericFailuresExit3:
    """A numeric or consistency failure anywhere in a command ends as
    `error: ...` on stderr and exit 3, not as a traceback."""

    def test_even_criticality_failure(self, monkeypatch, tmp_path, capsys):
        real = construct.build_even

        def crowded(k, n):
            ps = real(k, n)
            ps.points[1] = ps.points[0] + 1e-7  # inside the sphere of vertex 0
            return ps

        monkeypatch.setattr(construct, "build_even", crowded)
        code, out, err = run(["filtration", "--kind", "even", "--k", "2", "--n", "5",
                              "-o", str(tmp_path / "f.txt")], capsys)
        assert (code, out) == (3, "")
        assert err == ("error: kind=even k=2 n=5: "
                       "sphere of (0,) not strictly empty: point 1 inside\n")

    def test_affine_degeneracy(self, monkeypatch, capsys):
        real = verify.circumspheres
        monkeypatch.setattr(verify, "circumspheres",
                            lambda ps, simplices: real(np.zeros_like(ps.points), simplices))
        code, out, err = run(["verify", "--hypotheses", "--k", "1", "--n", "2"], capsys)
        assert (code, out) == (3, "")
        assert err == "error: points are affinely dependent beyond tolerance\n"


def test_closed_stdout_exits_141_quietly():
    # the read end is closed before the child writes: no `error:` line, and
    # the exit a shell gives a process that SIGPIPE ended
    proc = popen(["radii", "--kind", "3d", "--n", "30"], stdout=subprocess.PIPE,
                 stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, "")


def test_benchmark_correctness_gate():
    # what the benchmark's crosscheck workload requires of its two runs
    verify_run = popen(["verify", "--all"], stdout=subprocess.PIPE)
    out = verify_run.communicate(timeout=120)[0]
    assert verify_run.returncode == 0
    assert "53 claims, 0 failures" in out.splitlines()
    oracle_run = popen(["oracle", "--kind", "even", "--k", "2", "--n", "5"],
                       stdout=subprocess.PIPE)
    out = oracle_run.communicate(timeout=120)[0]
    assert oracle_run.returncode == 0
    lines = [line for line in out.splitlines() if " -> " in line]
    assert len(lines) == 5 and all(line.endswith("PASS") for line in lines)
