"""Command-line interface.

Subcommands cover the full workflow: ``gen`` synthesizes a planted
point-matching problem, ``build`` turns point sets into a matching
instance file under one of the affinity models, ``solve`` runs the
solver on an instance, ``bench`` runs a sweep experiment from a config
file, and ``oracle`` exhaustively finds the discrete optimum of a small
instance.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a request
is refused (oracle limits, bad solver configuration).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from .constraints import ConstraintSpec, SideMode
from .discretize import BruteForceLimits, brute_force_optimum
from .errors import ConfigurationError, OracleRefusalError
from .harness import Transform, generate_synthetic, read_experiment_config, run_experiment
from .io import (
    read_edges,
    read_instance,
    read_points,
    read_truth,
    read_unary,
    write_instance,
    write_points,
    write_solution,
    write_trace,
    write_truth,
)
from .models import MODELS, build_model, model_parameters
from .solver import SolverConfig, Variant, solve

# `build` flags naming a file, and the reader that turns it into the value
# the builder takes.
_MODEL_FILES = {"edges1": read_edges, "edges2": read_edges, "unary": read_unary}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage errors with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _path(text):
    """A file or directory argument: the empty string names none."""
    if not text:
        raise argparse.ArgumentTypeError("a path must not be empty")
    return text


def _cmd_gen(args):
    moves = {f.name: getattr(args, f.name) for f in fields(Transform) if f.name in args}
    given = {name: getattr(args, name) for name in ("n_outliers", "noise_sigma") if name in args}
    points1, points2, truth = generate_synthetic(
        args.inliers, transform=Transform(**moves), seed=args.seed, **given
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_points(out / "points1.txt", points1)
    write_points(out / "points2.txt", points2)
    write_truth(out / "truth.txt", truth, args.inliers, points2.shape[0])
    print(f"wrote {out / 'points1.txt'}")
    print(f"wrote {out / 'points2.txt'}")
    print(f"wrote {out / 'truth.txt'}")
    return 0


def _resolve_cli_spec(args, n1, n2):
    if args.rows is None and args.cols is None:
        return None  # builders default to an injective matching
    # A left-out side is matched exactly once only when it is the smaller.
    row_mode = SideMode.parse(args.rows or ("exactly-one" if n1 <= n2 else "at-most-one"))
    col_mode = SideMode.parse(args.cols or "at-most-one")
    return ConstraintSpec(n1, n2, row_mode, col_mode)


def _cmd_build(args):
    given = [action for action in args.model_flags if action.dest in args]
    taken = model_parameters(args.model)
    for action in given:
        if action.dest not in taken:
            raise ValueError(f"model {args.model} does not take {action.option_strings[0]}")
    points1 = read_points(args.points1)
    points2 = read_points(args.points2)
    n1, n2 = points1.shape[0], points2.shape[0]
    spec = _resolve_cli_spec(args, n1, n2)
    truth = read_truth(args.truth, n1, n2) if args.truth else None
    params = {}
    for action in given:
        value = getattr(args, action.dest)
        read = _MODEL_FILES.get(action.dest)
        params[action.dest] = read(value) if read else value
    instance = build_model(args.model, points1, points2, spec=spec, ground_truth=truth, **params)
    write_instance(args.out, instance)
    print(f"wrote {args.out}")
    return 0


def _solver_config(args):
    given = {f.name: getattr(args, f.name) for f in fields(SolverConfig) if f.name in args}
    if "variant" in given:
        given["variant"] = Variant.parse(given["variant"])
    return SolverConfig(**given)


def _cmd_solve(args):
    config = _solver_config(args)
    instance = read_instance(args.instance)
    start = time.perf_counter()
    result = solve(instance, config, collect_trace=args.trace is not None)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.trace:
        write_trace(args.trace, result.trace)
    if args.out:
        write_solution(
            args.out,
            result.discrete,
            instance.n1,
            instance.n2,
            metadata={
                "variant": config.variant.value,
                "iterations": result.iterations,
                "converged": "true" if result.converged else "false",
                "energy_discrete": repr(result.energy_discrete),
                "energy_continuous": repr(result.energy_continuous),
            },
        )
    print(f"variant {config.variant.value}")
    print(f"iterations {result.iterations}")
    print(f"converged {'true' if result.converged else 'false'}")
    print(f"energy_continuous {result.energy_continuous!r}")
    print(f"energy_discrete {result.energy_discrete!r}")
    print(f"matched {int(round(float(result.discrete.sum())))}")
    print(f"rho_final {result.rho_final!r}")
    print(f"rho_increases {len(result.rho_increases)}")
    print(f"time_ms {elapsed_ms:.3f}")
    return 0


def _cmd_bench(args):
    config = read_experiment_config(args.config)
    reports = run_experiment(config, out_dir=args.out)
    target = Path(args.out if args.out is not None else config.out_dir)
    print(f"ran {len(reports)} trials")
    for name in ("trials.csv", "summary.csv", "plot.py"):
        print(f"wrote {target / name}")
    return 0


def _cmd_oracle(args):
    instance = read_instance(args.instance)
    given = {f.name: getattr(args, f.name) for f in fields(BruteForceLimits) if f.name in args}
    assignment, best = brute_force_optimum(instance, BruteForceLimits(**given))
    if args.out:
        write_solution(
            args.out,
            assignment,
            instance.n1,
            instance.n2,
            metadata={"energy": repr(best)},
        )
        print(f"wrote {args.out}")
    print(f"energy {best!r}")
    print(f"matched {int(round(float(assignment.sum())))}")
    return 0


def _add_solver_flags(parser):
    # A flag left out takes the SolverConfig default.
    group = parser.add_argument_group("solver", argument_default=argparse.SUPPRESS)
    group.add_argument("--variant", choices=[v.value for v in Variant])
    group.add_argument("--rho0", type=float, help="initial penalty (default n/1000)")
    group.add_argument("--t1", type=int)
    group.add_argument("--t2", type=int)
    group.add_argument("--beta", type=float)
    group.add_argument("--eps", type=float, help="stop threshold (default 1e-6 * n)")
    group.add_argument("--max-iter", type=int)


def build_parser():
    parser = _Parser(prog="adgm", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a planted synthetic problem")
    gen.add_argument("--inliers", type=int, required=True)
    # A flag left out takes the generate_synthetic or Transform default.
    planted = gen.add_argument_group("problem", argument_default=argparse.SUPPRESS)
    planted.add_argument("--outliers", type=int, dest="n_outliers")
    planted.add_argument("--noise", type=float, dest="noise_sigma")
    planted.add_argument("--rotation", type=float)
    planted.add_argument("--scale", type=float)
    planted.add_argument("--tx", type=float)
    planted.add_argument("--ty", type=float)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=_path, required=True, help="output directory")
    gen.set_defaults(func=_cmd_gen)

    build = sub.add_parser("build", help="build an instance file from point sets")
    build.add_argument("--points1", type=_path, required=True)
    build.add_argument("--points2", type=_path, required=True)
    build.add_argument("--model", choices=MODELS, required=True)
    sides = [mode.value for mode in SideMode]
    build.add_argument("--rows", choices=sides, default=None)
    build.add_argument("--cols", choices=sides, default=None)
    build.add_argument("--truth", type=_path, help="ground-truth correspondence file")
    build.add_argument("--out", type=_path, required=True, help="output instance file")
    # A flag left out takes the builder's default; a flag the builder does
    # not take is refused.
    model = build.add_argument_group("model", argument_default=argparse.SUPPRESS)
    model_flags = [
        model.add_argument("--eta", type=float),
        model.add_argument("--sigma-l", type=float),
        model.add_argument("--sigma-a", type=float),
        model.add_argument("--sigma2", type=float),
        model.add_argument("--knn", type=int),
        model.add_argument("--triangles", type=int, dest="triangle_budget"),
        model.add_argument("--gamma", type=float),
        model.add_argument("--unary", type=_path, help="unary potential file (model a)"),
        model.add_argument("--unary-offset", type=float),
        model.add_argument("--edges1", type=_path, help="edge list for the first set (model a)"),
        model.add_argument("--edges2", type=_path, help="edge list for the second set (model a)"),
        model.add_argument("--seed", type=int),
    ]
    build.set_defaults(func=_cmd_build, model_flags=model_flags)

    solve_cmd = sub.add_parser("solve", help="solve an instance file")
    solve_cmd.add_argument("instance", type=_path)
    _add_solver_flags(solve_cmd)
    solve_cmd.add_argument("--trace", type=_path, help="write per-iteration trace CSV here")
    solve_cmd.add_argument("--out", type=_path, help="write the discrete solution here")
    solve_cmd.set_defaults(func=_cmd_solve)

    bench = sub.add_parser("bench", help="run a sweep experiment from a config file")
    bench.add_argument("config", type=_path)
    bench.add_argument("--out", type=_path, help="output directory (overrides the config)")
    bench.set_defaults(func=_cmd_bench)

    oracle = sub.add_parser("oracle", help="exhaustive discrete optimum of a small instance")
    oracle.add_argument("instance", type=_path)
    # A flag left out takes the BruteForceLimits default.
    limits = oracle.add_argument_group("limits", argument_default=argparse.SUPPRESS)
    limits.add_argument("--max-injective", type=int)
    limits.add_argument("--max-occluded", type=int)
    oracle.add_argument("--out", type=_path, help="write the optimal solution here")
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (OracleRefusalError, ConfigurationError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
