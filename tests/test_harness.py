"""Tests for the synthetic benchmark harness."""

import csv
import math
import re
import warnings

import numpy as np
import pytest

from adgm.harness import (
    SUMMARY_COLUMNS,
    TRIAL_COLUMNS,
    ExperimentConfig,
    Transform,
    TrialReport,
    accuracy,
    generate_synthetic,
    read_experiment_config,
    run_experiment,
)
from adgm.solver import SolverConfig, Variant


class TestTransform:
    def test_identity_by_default(self):
        pts = np.array([[0.25, 0.75], [1.0, -2.0]])
        assert np.array_equal(Transform().apply(pts), pts)

    def test_rotation_scale_translation(self):
        pts = np.array([[1.0, 0.0]])
        moved = Transform(rotation=math.pi / 2, scale=2.0, tx=3.0, ty=4.0).apply(pts)
        assert moved[0] == pytest.approx([3.0, 6.0], abs=1e-12)

    @pytest.mark.parametrize("name", ["rotation", "scale", "tx", "ty"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_refuses_a_non_finite_field(self, name, value):
        with pytest.raises(ValueError, match=f"^transform {name} must be finite, got {value}$"):
            Transform(**{name: value})


class TestGenerateSynthetic:
    def test_noiseless_second_set_is_a_permutation(self):
        points1, points2, truth = generate_synthetic(6, seed=3)
        assert points2.shape == points1.shape
        # Each first-set point appears exactly once in the second set, and
        # the truth vector selects exactly that slot.
        for i in range(6):
            matches = np.nonzero((points2 == points1[i]).all(axis=1))[0]
            assert matches.shape == (1,)
            assert truth[matches[0] * 6 + i] == 1.0
        assert truth.sum() == 6.0

    def test_outliers_extend_second_set(self):
        points1, points2, truth = generate_synthetic(4, n_outliers=5, seed=0)
        assert points1.shape == (4, 2)
        assert points2.shape == (9, 2)
        assert truth.shape == (4 * 9,)
        matrix = truth.reshape(4, 9, order="F")
        assert np.array_equal(matrix.sum(axis=1), np.ones(4))
        assert matrix.sum(axis=0).max() <= 1.0

    def test_fixed_seed_is_bit_identical(self):
        first = generate_synthetic(5, n_outliers=3, noise_sigma=0.1, seed=42)
        second = generate_synthetic(5, n_outliers=3, noise_sigma=0.1, seed=42)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = generate_synthetic(5, seed=1)[0]
        b = generate_synthetic(5, seed=2)[0]
        assert not np.array_equal(a, b)

    def test_transform_is_applied(self):
        transform = Transform(scale=10.0, tx=100.0, ty=-50.0)
        points1, points2, truth = generate_synthetic(5, transform=transform, seed=7)
        expected = transform.apply(points1)
        matrix = truth.reshape(5, 5, order="F")
        slots = np.argmax(matrix, axis=1)
        assert np.allclose(points2[slots], expected, atol=1e-12)

    def test_outliers_stay_inside_the_mapped_bounding_box(self):
        transform = Transform(scale=50.0, tx=5.0)
        points1, points2, truth = generate_synthetic(
            8, n_outliers=20, transform=transform, seed=11
        )
        mapped = transform.apply(points1)
        lo, hi = mapped.min(axis=0), mapped.max(axis=0)
        assert np.all(points2 >= lo - 1e-12) and np.all(points2 <= hi + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_inliers"):
            generate_synthetic(0)
        with pytest.raises(ValueError, match="n_outliers"):
            generate_synthetic(3, n_outliers=-1)
        with pytest.raises(ValueError, match="noise_sigma"):
            generate_synthetic(3, noise_sigma=-0.5)

    @pytest.mark.parametrize(
        "noise_sigma, message",
        [(math.nan, "must be >= 0, got nan"), (math.inf, "must be finite, got inf")],
    )
    def test_refuses_a_non_finite_noise(self, noise_sigma, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^noise_sigma {message}$"):
                generate_synthetic(3, noise_sigma=noise_sigma)


class TestAccuracy:
    def test_exact_match_scores_one(self):
        _, _, truth = generate_synthetic(6, n_outliers=2, seed=5)
        assert accuracy(truth, truth, 6) == 1.0

    def test_empty_matching_scores_zero(self):
        _, _, truth = generate_synthetic(6, seed=5)
        assert accuracy(np.zeros_like(truth), truth, 6) == 0.0

    def test_half_correct_on_twenty(self):
        truth = np.eye(20).ravel(order="F")
        result = np.eye(20)
        result[10:, :] = 0.0
        assert accuracy(result.ravel(order="F"), truth, 20) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError, match="same shape"):
            accuracy(np.zeros(4), np.zeros(6), 2)
        with pytest.raises(ValueError, match="n_inliers"):
            accuracy(np.zeros(4), np.zeros(4), 0)


class TestExperimentConfig:
    def test_outlier_sweep_sizes(self):
        config = ExperimentConfig(model="c", values=(0, 5), inliers=10)
        assert config.resolve_sizes(0) == (10, 0)
        assert config.resolve_sizes(5) == (10, 5)

    def test_subset_sweep_sizes(self):
        config = ExperimentConfig(model="b", values=(10, 20), sweep="subset", total=30)
        assert config.resolve_sizes(10) == (10, 20)
        assert config.resolve_sizes(20) == (20, 10)

    def test_validation(self):
        with pytest.raises(ValueError, match="model"):
            ExperimentConfig(model="d", values=(0,))
        with pytest.raises(ValueError, match="sweep"):
            ExperimentConfig(model="c", values=(0,), sweep="noise")
        with pytest.raises(ValueError, match="sweep value"):
            ExperimentConfig(model="c", values=(-1,))
        with pytest.raises(ValueError, match="sweep value"):
            ExperimentConfig(model="c", values=(40,), sweep="subset", total=30)
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(model="c", values=(0,), trials=0)
        with pytest.raises(ValueError, match="at least one sweep value"):
            ExperimentConfig(model="c", values=())
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(model="c", values=(0,), methods=())
        with pytest.raises(ValueError, match="sweep value 2 is listed more than once"):
            ExperimentConfig(model="c", values=(0, 2, 1, 2))
        methods = (("adgm1", SolverConfig()), ("adgm2", SolverConfig()), ("adgm1", SolverConfig()))
        with pytest.raises(ValueError, match="^method 'adgm1' is listed more than once$"):
            ExperimentConfig(model="c", values=(0,), methods=methods)
        with pytest.raises(ValueError, match="model c does not take 'knn'"):
            ExperimentConfig(model="c", values=(0,), knn=3)
        with pytest.raises(ValueError, match="model a does not take 'triangles'"):
            ExperimentConfig(model="a", values=(0,), triangles=4)
        with pytest.raises(ValueError, match="model third does not take 'eta'"):
            ExperimentConfig(model="third", values=(0,), eta=0.5)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(values=(0.5,)), "sweep value 0.5 is not an integer"),
            (dict(values=(0, 2.0)), "sweep value 2.0 is not an integer"),
            (dict(inliers=4.5), "inliers must be an integer, got 4.5"),
            (dict(total=30.0, sweep="subset"), "total must be an integer, got 30.0"),
            (dict(trials=1.5), "trials must be an integer, got 1.5"),
            (dict(seed=0.5), "seed must be an integer, got 0.5"),
            (dict(noise_sigma=-1.0), "noise_sigma must be >= 0, got -1.0"),
            (dict(noise_sigma=math.nan), "noise_sigma must be >= 0, got nan"),
            (dict(noise_sigma=math.inf), "noise_sigma must be finite, got inf"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
        ],
    )
    def test_refuses_a_bad_setting_before_any_work(self, tmp_path, kwargs, message):
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=re.escape(message)):
            run_experiment(ExperimentConfig(**{"model": "c", "values": (0,), **kwargs}), out)
        assert not out.exists()

    def test_takes_numpy_integers(self):
        config = ExperimentConfig(
            model="c", values=(np.int64(0), 1), inliers=np.int64(4), trials=np.int32(2)
        )
        assert config.resolve_sizes(config.values[0]) == (4, 0)


class TestReadExperimentConfig:
    def test_full_file(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "# model-C outlier sweep\n"
            "model = c\n"
            "sweep = outliers\n"
            "values = 0, 5, 10\n"
            "inliers = 8\n"
            "trials = 3\n"
            "noise_sigma = 0.02\n"
            "rotation = 0.5\n"
            "scale = 2.0\n"
            "tx = 1.0\n"
            "ty = -1.0\n"
            "methods = adgm1, adgm2\n"
            "seed = 7\n"
            "eta = 0.4\n"
            "rho0 = 0.125\n"
            "max_iter = 500\n"
            "out = reports\n"
        )
        config = read_experiment_config(path)
        assert config.model == "c"
        assert config.values == (0, 5, 10)
        assert config.inliers == 8
        assert config.trials == 3
        assert config.noise_sigma == 0.02
        assert config.transform == Transform(rotation=0.5, scale=2.0, tx=1.0, ty=-1.0)
        assert config.seed == 7
        assert config.eta == 0.4
        assert config.out_dir == "reports"
        assert [name for name, _ in config.methods] == ["adgm1", "adgm2"]
        for name, solver_config in config.methods:
            assert solver_config.variant is Variant.parse(name)
            assert solver_config.rho0 == 0.125
            assert solver_config.max_iter == 500

    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("model = b\nvalues = 0\n")
        config = read_experiment_config(path)
        assert config.sweep == "outliers"
        assert config.trials == 1
        assert config.methods[0][0] == "adgm1"
        assert config.out_dir is None

    def test_errors(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("model = c\nvalues = 0\ncolor = red\n")
        with pytest.raises(ValueError, match="unknown config key"):
            read_experiment_config(path)
        path.write_text("values = 0\n")
        with pytest.raises(ValueError, match="model"):
            read_experiment_config(path)
        path.write_text("model = c\n")
        with pytest.raises(ValueError, match="values"):
            read_experiment_config(path)
        path.write_text("model c\n")
        with pytest.raises(ValueError, match="key = value"):
            read_experiment_config(path)
        path.write_text("model = c\nvalues = 0\nmodel = b\n")
        with pytest.raises(ValueError, match="config key 'model' is given twice"):
            read_experiment_config(path)

    @pytest.mark.parametrize(
        "line, message",
        [("trials = x", "config key 'trials': invalid literal for int() with base 10: 'x'"),
         ("values = 0,a", "config key 'values': invalid literal for int() with base 10: 'a'"),
         ("beta = fast", "config key 'beta': could not convert string to float: 'fast'")],
        ids=["trials", "values", "beta"],
    )
    def test_malformed_value_names_the_file_and_the_key(self, tmp_path, line, message):
        path = tmp_path / "bench.cfg"
        values = "" if line.startswith("values") else "values = 0\n"
        path.write_text(f"model = c\n{values}{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_experiment_config(path)


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestRunExperiment:
    def test_schema_and_artifacts(self, tmp_path):
        config = ExperimentConfig(
            model="c",
            values=(0,),
            inliers=4,
            trials=1,
            methods=(("adgm1", SolverConfig()), ("adgm2", SolverConfig(variant=Variant.ADGM2))),
        )
        reports = run_experiment(config, out_dir=tmp_path)
        assert len(reports) == 2
        assert all(isinstance(r, TrialReport) for r in reports)
        assert [r.method for r in reports] == ["adgm1", "adgm2"]
        assert all(r.instance_id == "out0_t0" for r in reports)

        trials = _read_csv(tmp_path / "trials.csv")
        assert trials[0] == TRIAL_COLUMNS
        assert len(trials) == 3
        summary = _read_csv(tmp_path / "summary.csv")
        assert summary[0] == SUMMARY_COLUMNS
        assert len(summary) == 3
        plot = (tmp_path / "plot.py").read_text()
        assert "summary.csv" in plot

    def test_subset_sweep_ids(self, tmp_path):
        config = ExperimentConfig(
            model="c", values=(3,), sweep="subset", total=5, trials=2
        )
        reports = run_experiment(config, out_dir=tmp_path)
        assert [r.instance_id for r in reports] == ["sub3_t0", "sub3_t1"]

    def test_noiseless_recovery_has_unit_accuracy(self, tmp_path):
        # Identical point sets make the ground-truth energy exactly zero,
        # so the objective ratio is undefined and left blank.
        config = ExperimentConfig(model="c", values=(0,), inliers=4, trials=2)
        reports = run_experiment(config, out_dir=tmp_path)
        for report in reports:
            assert report.accuracy == 1.0
            assert report.matched == 4
            assert report.converged
            assert report.objective_ratio is None
            assert report.global_opt is True
        rows = _read_csv(tmp_path / "trials.csv")[1:]
        ratio_col = TRIAL_COLUMNS.index("objective_ratio")
        assert all(row[ratio_col] == "" for row in rows)

    def test_ratio_is_one_when_solution_equals_truth(self, tmp_path):
        config = ExperimentConfig(
            model="c", values=(0,), inliers=4, trials=3, noise_sigma=0.02, seed=1
        )
        reports = run_experiment(config, out_dir=tmp_path)
        hits = [r for r in reports if r.accuracy == 1.0]
        assert hits, "expected at least one exact recovery at this noise level"
        for report in hits:
            assert report.objective_ratio == 1.0

    def test_oracle_refusal_leaves_global_opt_blank(self, tmp_path):
        config = ExperimentConfig(
            model="c",
            values=(0,),
            inliers=8,  # 8x8 one-to-one is beyond the default oracle limits
            trials=1,
        )
        reports = run_experiment(config, out_dir=tmp_path)
        assert reports[0].global_opt is None
        summary = _read_csv(tmp_path / "summary.csv")
        opt_col = SUMMARY_COLUMNS.index("global_opt_rate")
        assert summary[1][opt_col] == ""

    def test_fixed_seed_reruns_are_identical_apart_from_timing(self, tmp_path):
        config = ExperimentConfig(
            model="c", values=(0, 2), inliers=4, trials=2, noise_sigma=0.05, seed=9
        )
        run_experiment(config, out_dir=tmp_path / "first")
        run_experiment(config, out_dir=tmp_path / "second")

        first = _read_csv(tmp_path / "first" / "trials.csv")
        second = _read_csv(tmp_path / "second" / "trials.csv")
        time_col = TRIAL_COLUMNS.index("time_ms")
        for a, b in zip(first, second):
            assert a[:time_col] == b[:time_col]
        assert len(first) == len(second)

        first = _read_csv(tmp_path / "first" / "summary.csv")
        second = _read_csv(tmp_path / "second" / "summary.csv")
        t_col = SUMMARY_COLUMNS.index("mean_time_ms")
        for a, b in zip(first, second):
            stripped_a = a[:t_col] + a[t_col + 1 :]
            stripped_b = b[:t_col] + b[t_col + 1 :]
            assert stripped_a == stripped_b

    def test_requires_an_output_directory(self):
        config = ExperimentConfig(model="c", values=(0,), inliers=4)
        with pytest.raises(ValueError, match="output directory"):
            run_experiment(config)
