"""One model dispatch: ``build_model``, and the CLI and harness on top of it.

Flags and config keys left out must give the builder's own defaults, and
the dispatch must call the builder bound in ``adgm.models`` at call time,
so that a rebound module attribute (a test double, a tracing wrapper) is
the one that runs.
"""

import functools

import numpy as np
import pytest

from adgm import cli, harness, models
from adgm.cli import main
from adgm.discretize import BruteForceLimits
from adgm.harness import (
    ExperimentConfig,
    generate_synthetic,
    read_experiment_config,
    run_experiment,
)
from adgm.io import read_instance, read_points
from adgm.models import (
    MODELS,
    build_model,
    build_pairwise_a,
    build_pairwise_b,
    build_pairwise_c,
    build_third_order,
    delaunay_edges,
)

BUILDERS = {
    "a": build_pairwise_a,
    "b": build_pairwise_b,
    "c": build_pairwise_c,
    "third": build_third_order,
}


@pytest.fixture
def points(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen", "--inliers", "5", "--outliers", "1", "--noise", "0.02",
                 "--seed", "4", "--out", str(data)]) == 0
    return data


def _cli_build(data, model, *flags):
    out = data / f"{model}.txt"
    assert main(["build", "--points1", str(data / "points1.txt"),
                 "--points2", str(data / "points2.txt"),
                 "--model", model, "--out", str(out), *flags]) == 0
    return read_instance(out)


def _recording(monkeypatch, module, name):
    """Rebind ``module.name`` to a wrapper that records each call as
    ``(args, kwargs, result)``."""
    original = getattr(module, name)
    calls = []

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCliDefaults:
    @pytest.mark.parametrize("model", MODELS)
    def test_no_model_flags_give_the_builder_defaults(self, points, model):
        p1 = read_points(points / "points1.txt")
        p2 = read_points(points / "points2.txt")
        assert _cli_build(points, model) == BUILDERS[model](p1, p2)

    def test_explicit_flags_reach_the_builder(self, points):
        p1 = read_points(points / "points1.txt")
        p2 = read_points(points / "points2.txt")
        built = _cli_build(points, "third", "--knn", "7", "--triangles", "4", "--seed", "2")
        assert built == build_third_order(p1, p2, knn=7, triangle_budget=4, seed=2)
        assert built != build_third_order(p1, p2)

    @pytest.mark.parametrize(
        "model, flag, value",
        [("c", "--knn", "3"), ("c", "--sigma2", "9"), ("c", "--seed", "1"),
         ("b", "--edges1", "edges.txt"), ("a", "--triangles", "4"), ("third", "--eta", "0.2")],
    )
    def test_flags_of_other_models_are_refused(self, tmp_path, capsys, model, flag, value):
        # The point files do not exist: the flag is refused before any read.
        out = tmp_path / "instance.txt"
        code = main(["build", "--points1", str(tmp_path / "p1.txt"),
                     "--points2", str(tmp_path / "p2.txt"),
                     "--model", model, flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: model {model} does not take {flag}\n"
        assert not out.exists()

    def test_accepted_flags_follow_the_dispatched_builder(self, points, monkeypatch):
        calls = []

        def builder(points1, points2, knn=None, spec=None, ground_truth=None):
            calls.append(knn)
            return build_pairwise_c(points1, points2, spec=spec, ground_truth=ground_truth)

        monkeypatch.setattr(models, "build_pairwise_c", builder)
        _cli_build(points, "c", "--knn", "3")
        assert calls == [3]

    def test_solve_seed_flag_is_gone(self, points):
        _cli_build(points, "c")
        assert main(["solve", str(points / "c.txt"), "--seed", "1"]) == 1

    def test_oracle_limits_default_to_brute_force_limits(self, points, monkeypatch):
        calls = _recording(monkeypatch, cli, "brute_force_optimum")
        _cli_build(points, "c")
        instance = str(points / "c.txt")
        assert main(["oracle", instance]) == 0
        assert main(["oracle", instance, "--max-occluded", "6"]) == 0
        assert main(["oracle", instance, "--max-injective", "8", "--max-occluded", "4"]) == 0
        assert [args[1] for args, _, _ in calls] == [
            BruteForceLimits(),
            BruteForceLimits(max_occluded=6),
            BruteForceLimits(max_injective=8, max_occluded=4),
        ]


class TestBuildModel:
    def test_dispatches_to_each_builder(self):
        p1, p2, _ = generate_synthetic(5, 1, 0.02, seed=9)
        for model in MODELS:
            assert build_model(model, p1, p2) == BUILDERS[model](p1, p2)

    def test_model_a_defaults_are_delaunay_edges_and_zero_unary(self):
        p1, p2, _ = generate_synthetic(5, 2, 0.02, seed=9)
        explicit = build_pairwise_a(
            p1, p2, delaunay_edges(p1), delaunay_edges(p2), np.zeros((5, 7))
        )
        assert build_pairwise_a(p1, p2) == explicit

    def test_model_a_default_edges_of_two_points_are_one_edge(self):
        p1, p2, _ = generate_synthetic(2, 0, 0.02, seed=9)
        explicit = build_pairwise_a(p1, p2, [(0, 1)], [(0, 1)], np.zeros((2, 2)))
        assert build_model("a", p1, p2) == explicit

    def test_drops_parameters_the_builder_does_not_take(self):
        p1, p2, _ = generate_synthetic(4, 0, seed=1)
        assert build_model("b", p1, p2, eta=0.1, knn=3, seed=5) == build_pairwise_b(p1, p2)

    def test_unknown_model_is_rejected(self):
        p1, p2, _ = generate_synthetic(4, 0, seed=1)
        with pytest.raises(ValueError, match="model must be one of"):
            build_model("d", p1, p2)

    def test_looks_up_the_builder_at_call_time(self, points, monkeypatch):
        calls = _recording(monkeypatch, models, "build_pairwise_c")
        p1, p2, _ = generate_synthetic(4, 0, seed=1)
        build_model("c", p1, p2, eta=0.3)
        assert [kwargs for _, kwargs, _ in calls] == [{"eta": 0.3}]
        _cli_build(points, "c", "--eta", "0.2")
        assert len(calls) == 2 and calls[1][1]["eta"] == 0.2


class TestHarnessDefaults:
    def _bench(self, tmp_path, monkeypatch, text):
        """Run a one-instance bench config; return its points, truth and instance."""
        generated = _recording(monkeypatch, harness, "generate_synthetic")
        # run_experiment scores the truth on each instance it builds.
        scored = _recording(monkeypatch, harness, "energy")
        path = tmp_path / "bench.cfg"
        path.write_text(text)
        run_experiment(read_experiment_config(path), out_dir=tmp_path / "out")
        ((_, _, (p1, p2, truth)),) = generated
        (((instance, _), _, _),) = scored
        return p1, p2, truth, instance

    @staticmethod
    def _same(instance, expected):
        assert instance.potentials == expected.potentials
        assert (instance.spec, instance.sense) == (expected.spec, expected.sense)
        assert np.array_equal(instance.ground_truth, expected.ground_truth)

    def test_config_eta_builds_the_same_instance(self, tmp_path, monkeypatch):
        p1, p2, truth, instance = self._bench(
            tmp_path, monkeypatch, "model = c\nvalues = 1\ninliers = 4\neta = 0.4\n"
        )
        self._same(instance, build_pairwise_c(p1, p2, eta=0.4, ground_truth=truth))
        assert instance.potentials != build_pairwise_c(p1, p2).potentials

    def test_keys_left_out_take_the_builder_defaults(self, tmp_path, monkeypatch):
        p1, p2, truth, instance = self._bench(
            tmp_path, monkeypatch, "model = a\nvalues = 1\ninliers = 4\n"
        )
        self._same(instance, build_pairwise_a(p1, p2, ground_truth=truth))

    def test_triangles_field_is_the_triangle_budget(self, tmp_path, monkeypatch):
        calls = _recording(monkeypatch, models, "build_third_order")
        config = ExperimentConfig(model="third", values=(1,), inliers=5, knn=6, triangles=4)
        run_experiment(config, out_dir=tmp_path)
        ((_, kwargs, _),) = calls
        assert (kwargs["knn"], kwargs["triangle_budget"]) == (6, 4)
        assert "eta" not in kwargs and isinstance(kwargs["seed"], int)


class TestConfigValues:
    def test_empty_model_parameter_is_rejected(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("model = c\nvalues = 0\neta =\n")
        with pytest.raises(ValueError):
            read_experiment_config(path)

    def test_empty_out_is_rejected(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("model = a\nvalues = 0\nout =\n")
        with pytest.raises(ValueError, match="'out'"):
            read_experiment_config(path)

    def test_empty_rho0_and_eps_mean_the_default(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("model = c\nvalues = 0\nrho0 =\neps =\nt1 = 400\n")
        config = read_experiment_config(path)
        (_, solver_config), = config.methods
        assert (solver_config.rho0, solver_config.eps, solver_config.t1) == (None, None, 400)

    def test_model_parameters_left_out_stay_unset(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("model = b\nvalues = 0\nsigma2 = 10\n")
        config = read_experiment_config(path)
        assert config.sigma2 == 10.0
        assert (config.eta, config.knn, config.triangles) == (None, None, None)
