"""End-to-end tests for the command-line interface."""

import csv

import numpy as np
import pytest

from adgm import harness
from adgm.cli import main
from adgm.constraints import ConstraintSpec, SideMode
from adgm.io import read_instance, read_points, read_truth

pytestmark = pytest.mark.usefixtures("capsys")


def run(*argv):
    return main(list(argv))


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run() == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1

    def test_unknown_flag(self, capsys):
        assert run("gen", "--inliers", "3", "--out", "x", "--bogus") == 1

    def test_bad_choice(self, capsys):
        assert (
            run("build", "--points1", "a", "--points2", "b", "--model", "z", "--out", "i")
            == 1
        )

    def test_missing_required_flag(self, capsys):
        assert run("gen", "--out", "somewhere") == 1

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0
        assert "usage" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--rows", "--cols"])
    def test_unconstrained_side_is_refused_before_reading(self, tmp_path, capsys, flag):
        missing = str(tmp_path / "missing.txt")
        code = run(
            "build", "--points1", missing, "--points2", missing, "--model", "c",
            flag, "unconstrained", "--out", str(tmp_path / "instance.txt"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid choice: 'unconstrained'" in err
        assert "missing.txt" not in err
        assert not (tmp_path / "instance.txt").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        assert run("solve", str(tmp_path / "nope.txt")) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_parameter_value(self, tmp_path, capsys):
        assert run("gen", "--inliers", "0", "--out", str(tmp_path)) == 1
        assert "error:" in capsys.readouterr().err

    def test_instance_truth_target_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "instance.txt"
        path.write_text(
            "matching-instance\n"
            "n1 2\nn2 2\nrows exactly-one\ncols exactly-one\nsense minimize\n"
            "truth 5 0\ntensor\norder 2 dim 4\n0 3 1.0\n"
        )
        assert run("solve", str(path)) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: truth target 5 of row 0 not in [-1, 2)\n"
        )

    def test_truth_file_matching_a_column_twice(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run("gen", "--inliers", "3", "--out", str(data)) == 0
        (data / "truth.txt").write_text("0 1\n1 1\n")
        code = run(
            "build", "--points1", str(data / "points1.txt"),
            "--points2", str(data / "points2.txt"), "--truth", str(data / "truth.txt"),
            "--model", "c", "--out", str(tmp_path / "instance.txt"),
        )
        assert code == 1
        assert "truth matches column 1 more than once" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new",
        [("n1 2", "n1 2x"), ("n2 2", "n2 2\nn1 3"), ("truth 0 1", "truth 0 x"),
         ("truth 0 1", "truth 0 1\ntruth 1 0"), ("order 2 dim 4", "order 2 dim x"),
         ("rows exactly-one", "rows unconstrained"),
         ("order 2 dim 4", "order 0 dim 4\n5.0\ntensor\norder 2 dim 4")],
    )
    def test_malformed_or_repeated_instance_field_names_the_file(
        self, tmp_path, capsys, old, new
    ):
        path = tmp_path / "instance.txt"
        path.write_text(
            "matching-instance\n"
            "n1 2\nn2 2\nrows exactly-one\ncols exactly-one\nsense minimize\n"
            "truth 0 1\ntensor\norder 2 dim 4\n0 3 1.0\n".replace(old, new)
        )
        assert run("solve", str(path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "name, text, flag",
        [("truth.txt", "0 1 2\n", "--truth"), ("unary.txt", "3 3 3\n", "--unary")],
    )
    def test_malformed_build_input_names_the_file_and_line(
        self, tmp_path, capsys, name, text, flag
    ):
        data = tmp_path / "data"
        assert run("gen", "--inliers", "3", "--out", str(data)) == 0
        (data / name).write_text(text)
        code = run(
            "build", "--points1", str(data / "points1.txt"),
            "--points2", str(data / "points2.txt"), flag, str(data / name),
            "--model", "a", "--out", str(tmp_path / "instance.txt"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / name}: ")
        assert err.endswith(f"got {text.strip()!r}\n")


class TestGen:
    def test_writes_point_and_truth_files(self, tmp_path, capsys):
        assert run("gen", "--inliers", "5", "--outliers", "2", "--out", str(tmp_path)) == 0
        points1 = read_points(tmp_path / "points1.txt")
        points2 = read_points(tmp_path / "points2.txt")
        truth = read_truth(tmp_path / "truth.txt", 5, 7)
        assert points1.shape == (5, 2)
        assert points2.shape == (7, 2)
        assert truth.sum() == 5.0
        out = capsys.readouterr().out
        assert out.count("wrote") == 3

    def test_same_seed_gives_identical_files(self, tmp_path):
        for name in ("one", "two"):
            assert (
                run(
                    "gen", "--inliers", "4", "--noise", "0.05", "--seed", "11",
                    "--out", str(tmp_path / name),
                )
                == 0
            )
        for name in ("points1.txt", "points2.txt", "truth.txt"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()


def _gen_and_build(tmp_path, model="c", inliers=4, outliers=0, extra=()):
    data = tmp_path / "data"
    assert (
        run(
            "gen", "--inliers", str(inliers), "--outliers", str(outliers),
            "--seed", "3", "--out", str(data),
        )
        == 0
    )
    instance_path = tmp_path / "instance.txt"
    assert (
        run(
            "build",
            "--points1", str(data / "points1.txt"),
            "--points2", str(data / "points2.txt"),
            "--truth", str(data / "truth.txt"),
            "--model", model,
            "--out", str(instance_path),
            *extra,
        )
        == 0
    )
    return instance_path


class TestBuild:
    def test_pairwise_instance_round_trips(self, tmp_path):
        path = _gen_and_build(tmp_path, model="c", inliers=4, outliers=1)
        instance = read_instance(path)
        assert (instance.n1, instance.n2) == (4, 5)
        assert len(instance.potentials) == 2
        assert instance.ground_truth is not None
        assert instance.spec.row_mode is SideMode.EXACTLY_ONE
        assert instance.spec.col_mode is SideMode.AT_MOST_ONE

    def test_explicit_side_modes(self, tmp_path):
        path = _gen_and_build(
            tmp_path, model="c",
            extra=("--rows", "at-most-one", "--cols", "at-most-one"),
        )
        spec = read_instance(path).spec
        assert spec.row_mode is SideMode.AT_MOST_ONE
        assert spec.col_mode is SideMode.AT_MOST_ONE

    @pytest.mark.parametrize("swap", [False, True])
    def test_left_out_rows_default_to_the_injective_side(self, tmp_path, swap):
        # 4+5 points, or 5+4 with the sets swapped: naming the smaller set's
        # side exactly-one builds the same instance as no side flags.
        data = tmp_path / "data"
        assert run("gen", "--inliers", "4", "--outliers", "1", "--out", str(data)) == 0
        sets = [str(data / "points1.txt"), str(data / "points2.txt")]
        first, second = sets[::-1] if swap else sets
        n1, n2 = (5, 4) if swap else (4, 5)

        def build(name, *sides):
            path = tmp_path / name
            assert run(
                "build", "--points1", first, "--points2", second, "--model", "c",
                "--out", str(path), *sides,
            ) == 0
            return path

        default = build("default.txt")
        assert read_instance(default).spec == ConstraintSpec.injective(n1, n2)
        exact = build("exact.txt", "--cols" if swap else "--rows", "exactly-one")
        assert exact.read_bytes() == default.read_bytes()
        soft = read_instance(build("soft.txt", "--cols", "at-most-one")).spec
        assert soft.col_mode is SideMode.AT_MOST_ONE
        assert soft.row_mode is (SideMode.AT_MOST_ONE if swap else SideMode.EXACTLY_ONE)

    def test_edge_model_defaults_to_delaunay_and_zero_unary(self, tmp_path):
        path = _gen_and_build(tmp_path, model="a", inliers=5)
        instance = read_instance(path)
        assert instance.potentials[0].nnz == 0  # all-zero unary drops out
        assert instance.potentials[1].nnz > 0

    def test_third_order_instance(self, tmp_path):
        path = _gen_and_build(tmp_path, model="third", inliers=4)
        instance = read_instance(path)
        assert len(instance.potentials) == 3
        assert instance.potentials[2].order == 3
        assert instance.potentials[2].nnz > 0

    def test_third_order_builds_without_a_seed_are_byte_identical(self, tmp_path):
        # 455 source triangles, so the budget of 50 samples them.
        paths = []
        for name in ("one", "two"):
            (tmp_path / name).mkdir()
            paths.append(
                _gen_and_build(
                    tmp_path / name, model="third", inliers=12, outliers=3,
                    extra=("--triangles", "50"),
                )
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSolve:
    def test_prints_report_and_writes_solution_and_trace(self, tmp_path, capsys):
        instance_path = _gen_and_build(tmp_path, inliers=3)
        solution_path = tmp_path / "solution.txt"
        trace_path = tmp_path / "trace.csv"
        assert (
            run(
                "solve", str(instance_path), "--variant", "adgm1",
                "--out", str(solution_path), "--trace", str(trace_path),
            )
            == 0
        )
        out = capsys.readouterr().out
        for key in (
            "variant adgm1", "iterations", "converged", "energy_continuous",
            "energy_discrete", "matched", "rho_final", "rho_increases", "time_ms",
        ):
            assert key in out

        solution = read_truth(solution_path, 3, 3)
        assert solution.sum() == 3.0
        text = solution_path.read_text()
        assert "# variant adgm1" in text
        assert "# energy_discrete" in text

        with open(trace_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["iteration", "residual", "rho", "energy"]
        assert len(rows) > 1

    def test_recovers_planted_permutation(self, tmp_path, capsys):
        instance_path = _gen_and_build(tmp_path, inliers=4)
        solution_path = tmp_path / "solution.txt"
        assert run("solve", str(instance_path), "--out", str(solution_path)) == 0
        instance = read_instance(instance_path)
        solution = read_truth(solution_path, 4, 4)
        assert np.array_equal(solution, instance.ground_truth)

    def test_variants_agree_on_pairwise_instances(self, tmp_path, capsys):
        instance_path = _gen_and_build(tmp_path, inliers=4)
        energies = []
        for variant in ("adgm1", "adgm2"):
            assert run("solve", str(instance_path), "--variant", variant) == 0
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("energy_discrete"))
            energies.append(float(line.split()[1]))
        assert energies[0] == energies[1]

    def test_bad_solver_configuration_is_refused(self, tmp_path, capsys):
        instance_path = _gen_and_build(tmp_path, inliers=3)
        assert run("solve", str(instance_path), "--beta", "0.5") == 2
        assert "refused:" in capsys.readouterr().err

    def test_bad_solver_configuration_is_refused_before_reading(self, tmp_path, capsys):
        assert run("solve", str(tmp_path / "missing.txt"), "--beta", "0.5") == 2
        assert capsys.readouterr().err.startswith("refused: beta must be > 1")


class TestOracle:
    def test_finds_optimum_and_writes_solution(self, tmp_path, capsys):
        instance_path = _gen_and_build(tmp_path, inliers=4)
        out_path = tmp_path / "best.txt"
        assert run("oracle", str(instance_path), "--out", str(out_path)) == 0
        printed = capsys.readouterr().out
        assert "energy" in printed and "matched 4" in printed
        assert "# energy" in out_path.read_text()
        solution = read_truth(out_path, 4, 4)
        assert solution.sum() == 4.0

    def test_oversized_occlusion_instance_is_refused(self, tmp_path, capsys):
        instance_path = _gen_and_build(
            tmp_path, inliers=8, outliers=1,
            extra=("--rows", "at-most-one", "--cols", "at-most-one"),
        )
        assert run("oracle", str(instance_path)) == 2
        err = capsys.readouterr().err
        assert "refused:" in err
        assert "occlusion" in err

    def test_limits_are_configurable(self, tmp_path, capsys):
        instance_path = _gen_and_build(
            tmp_path, inliers=6, outliers=0,
            extra=("--rows", "at-most-one", "--cols", "at-most-one"),
        )
        assert run("oracle", str(instance_path)) == 2
        assert run("oracle", str(instance_path), "--max-occluded", "6") == 0


class TestBench:
    def test_runs_sweep_and_writes_reports(self, tmp_path, capsys):
        config_path = tmp_path / "bench.cfg"
        config_path.write_text(
            "model = c\nvalues = 0, 1\ninliers = 4\ntrials = 2\n"
            "methods = adgm1, adgm2\nseed = 5\n"
        )
        out_dir = tmp_path / "reports"
        assert run("bench", str(config_path), "--out", str(out_dir)) == 0
        assert "ran 8 trials" in capsys.readouterr().out
        with open(out_dir / "trials.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 9
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "plot.py").exists()

    def test_config_out_directory_is_used_without_override(self, tmp_path, capsys):
        out_dir = tmp_path / "from-config"
        config_path = tmp_path / "bench.cfg"
        config_path.write_text(
            f"model = c\nvalues = 0\ninliers = 3\nout = {out_dir}\n"
        )
        assert run("bench", str(config_path)) == 0
        assert (out_dir / "trials.csv").exists()

    def test_bad_config_is_an_input_error(self, tmp_path, capsys):
        config_path = tmp_path / "bench.cfg"
        config_path.write_text("model = c\n")
        assert run("bench", str(config_path)) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("beta = 0.5\n", 2, "refused: beta must be > 1"),
            ("eta = 0.4\nknn = 3\n", 1, "error: model b does not take 'eta'"),
            ("values = 1,1\n", 1, "error: sweep value 1 is listed more than once"),
            ("methods = adgm1,ADGM1\n", 1, "error: method 'adgm1' is listed more than once"),
        ],
    )
    def test_bad_config_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, text, code, message
    ):
        def never(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(harness, "generate_synthetic", never)
        monkeypatch.setattr(harness, "brute_force_optimum", never)
        out_dir = tmp_path / "reports"
        config_path = tmp_path / "bench.cfg"
        # A key may be given once, so the sweep-value case brings its own values.
        values = "" if text.startswith("values") else "values = 0\n"
        config_path.write_text(f"model = b\n{values}inliers = 3\n{text}")
        assert run("bench", str(config_path), "--out", str(out_dir)) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out_dir.exists()

    def test_repeated_key_is_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(harness, "generate_synthetic", never)
        out_dir = tmp_path / "reports"
        config_path = tmp_path / "bench.cfg"
        config_path.write_text("model = c\nvalues = 0\ninliers = 3\nmodel = b\n")
        assert run("bench", str(config_path), "--out", str(out_dir)) == 1
        err = capsys.readouterr().err
        assert err == f"error: {config_path}: config key 'model' is given twice\n"
        assert not out_dir.exists()
