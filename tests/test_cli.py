import pytest

from extremal_cech import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_suspended(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code, _, _ = run(["generate", "--kind", "suspended", "--k", "2", "--n", "2",
                          "--delta", "0.005", "--h", "0.5", "-o", str(out)], capsys)
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 1 + 8


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

    def test_explicit_bad_delta_exits_3(self, tmp_path, capsys):
        code, _, err = run(["filtration", "--kind", "3d", "--n", "10",
                            "--delta", "0.5", "-o", str(tmp_path / "f.txt")], capsys)
        assert code == 3
        assert "empty" in err

    def test_loaded_points_are_validated(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        run(["generate", "--kind", "3d", "--n", "3", "--delta", "0.5", "-o", str(pts)],
            capsys)
        out = tmp_path / "f.txt"
        code, _, err = run(["filtration", "--kind", "3d", "--n", "3", "--points", str(pts),
                            "-o", str(out)], capsys)
        assert code == 3
        assert "overlap" in err
        assert not out.exists()

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


class TestPersistence:
    def test_diagram_and_svg(self, tmp_path, capsys):
        diag = tmp_path / "d.csv"
        svg = tmp_path / "d.svg"
        code, _, _ = run(["persistence", "--kind", "3d", "--n", "2",
                          "-o", str(diag), "--svg", str(svg)], capsys)
        assert code == 0
        assert diag.read_text().splitlines()[0] == "dim,birth,death"
        assert svg.read_text().startswith("<svg")

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["persistence", "--kind", "even", "--k", "2", "--n", "5", "-o", str(a)], capsys)
        run(["persistence", "--kind", "even", "--k", "2", "--n", "5", "-o", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


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

    def test_nothing_selected_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["verify", "--n", "2"])


class TestOracleCommand:
    def test_3d_n2(self, capsys):
        code, out, _ = run(["oracle", "--kind", "3d", "--n", "2"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_budget_exit_3(self, capsys):
        code, _, err = run(["oracle", "--kind", "3d", "--n", "2", "--budget", "3"],
                           capsys)
        assert code == 3
        assert "budget" in err


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
