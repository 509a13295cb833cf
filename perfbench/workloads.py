"""The benchmark's workloads.

Each workload drives the adgm package the way a user would, on inputs
made from a seed, in three steps per instance: ``prepare`` (untimed input
files), ``run`` (the timed pipeline) and ``check`` (untimed correctness
checks that return an :class:`Outcome`).  A workload reaches the package
only through the modules it is given, looking functions up at call time,
so that a tracer installed on those modules sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import shutil
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = ("models", "tensor", "io", "constraints", "solver", "discretize", "harness", "cli")

# Planted-problem settings shared by every workload.
NOISE = 0.02
ROTATION = 0.3

# Input sizes.  They let a run of 30 s hold about ten instances of
# cli_pairwise and third_order: the solver's iteration count varies from
# seed to seed by about 13%, so fewer instances per run leave the
# run-to-run spread too wide to bound.
SIZES = {
    "cli_pairwise": {"inliers": 20, "outliers": 5},
    "third_order": {"inliers": 10, "outliers": 5, "knn": 300, "triangles": 5000},
    "oracle_sweep": {"inliers": 6, "outliers": (0, 1, 2)},
}


def load_adgm():
    """Import the adgm package afresh; return its modules by layer name."""
    for name in [m for m in sys.modules if m == "adgm" or m.startswith("adgm.")]:
        del sys.modules[name]
    modules = {"adgm": importlib.import_module("adgm")}
    for layer in LAYERS:
        modules[layer] = importlib.import_module(f"adgm.{layer}")
    return modules


@dataclass
class Outcome:
    """What one timed pipeline run produced, as read after it."""

    instances: int = 1
    solve_s: list = field(default_factory=list)
    accuracy: list = field(default_factory=list)
    global_opt: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)


def instance_digest(instance):
    """A bit-exact fingerprint of a matching instance.

    Two instances have the same digest when their sizes, constraints, sense,
    ground truth and every potential's indices and values agree bit for bit.
    Keeping the digest instead of the instance frees its memory.
    """
    h = hashlib.blake2b()
    arrays = [] if instance.ground_truth is None else [instance.ground_truth]
    h.update(f"{len(arrays)} truth;".encode())
    for t in instance.potentials:
        h.update(f"{t.order} {t.dim};".encode())
        arrays += [t.indices, t.values]
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str} {a.shape};".encode())
        h.update(a)
    return (instance.n1, instance.n2, instance.spec, instance.sense, h.hexdigest())


class _Workload:
    """Shared plumbing: capture hooks on module names, restored by close()."""

    def __init__(self, modules, workdir):
        self.m = modules
        self.size = SIZES[self.name]
        self.workdir = workdir / self.name
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.captured = {}
        self._saved = []

    def _capture(self, holder, attr, home, keep=lambda args, result: (args, result)):
        """Record ``keep(args, result)`` of every ``holder.attr`` call.

        The hook calls ``home.attr`` looked up at call time, so a tracer
        that later wraps the function in its home module still sees it.
        """
        original = getattr(holder, attr)

        def hook(*args, **kwargs):
            result = getattr(home, attr)(*args, **kwargs)
            self.captured.setdefault(attr, []).append(keep(args, result))
            return result

        self._saved.append((holder, attr, original))
        setattr(holder, attr, hook)

    def _take_captured(self):
        """Hand over what the hooks recorded, so the workload keeps none of it."""
        captured, self.captured = self.captured, {}
        return captured

    def close(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def _check_solution(self, out, instance, discrete, energy_discrete, what):
        """The answer is a hard matching and its energy is what was reported."""
        m = self.m
        report = m["constraints"].feasibility(discrete, instance.spec, hard=True)
        out.expect(report.feasible, f"{what}: discrete answer not hard-feasible ({report})")
        recomputed = m["solver"].energy(instance, discrete)
        out.expect(
            recomputed == energy_discrete,
            f"{what}: energy_discrete {energy_discrete!r} != recomputed {recomputed!r}",
        )


class CliPairwise(_Workload):
    """``adgm gen -> adgm build --model c -> adgm solve --out``, in process."""

    name = "cli_pairwise"

    def __init__(self, modules, workdir):
        super().__init__(modules, workdir)
        cli = modules["cli"]
        # write_instance(path, instance): keep only the digest, so that the
        # built instance is freed before `adgm solve` runs, as in the CLI.
        self._capture(cli, "write_instance", modules["io"],
                      keep=lambda args, result: instance_digest(args[1]))
        self._capture(cli, "read_instance", modules["io"],
                      keep=lambda args, result: result)

    def prepare(self, seed, warmup=False):
        return seed

    def run(self, seed):
        d = self.workdir
        main = self.m["cli"].main
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            codes = [
                main(
                    ["gen", "--inliers", str(self.size["inliers"]),
                     "--outliers", str(self.size["outliers"]),
                     "--noise", str(NOISE), "--rotation", str(ROTATION),
                     "--seed", str(seed), "--out", str(d)]
                ),
                main(
                    ["build", "--points1", str(d / "points1.txt"),
                     "--points2", str(d / "points2.txt"), "--truth", str(d / "truth.txt"),
                     "--model", "c", "--out", str(d / "instance.txt")]
                ),
                main(["solve", str(d / "instance.txt"), "--out", str(d / "solution.txt")]),
            ]
        return codes, text.getvalue(), self._take_captured()

    def check(self, state):
        codes, stdout, captured = state
        out = Outcome()
        if codes != [0, 0, 0]:
            out.failures.append(f"cli exit codes {codes}")
            return out
        read = captured["read_instance"][0]
        out.expect(
            instance_digest(read) == captured["write_instance"][0],
            "instance read back differs from the one built",
        )

        solution = self.workdir / "solution.txt"
        discrete = self.m["io"].read_truth(solution, read.n1, read.n2)
        meta = {}
        for line in solution.read_text().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition(" ")
                meta[key] = value
        self._check_solution(out, read, discrete, float(meta["energy_discrete"]), "solve")
        out.accuracy.append(
            self.m["harness"].accuracy(discrete, read.ground_truth, self.size["inliers"])
        )
        times = [line.split()[1] for line in stdout.splitlines() if line.startswith("time_ms ")]
        out.solve_s = [float(t) / 1000.0 for t in times]
        return out


class ThirdOrder(_Workload):
    """``generate_synthetic -> build_third_order -> solve(ADGM1) -> solve(ADGM2)``."""

    name = "third_order"

    def prepare(self, seed, warmup=False):
        return seed

    def run(self, seed):
        m = self.m
        harness, solver = m["harness"], m["solver"]
        s = self.size
        points1, points2, truth = harness.generate_synthetic(
            s["inliers"], s["outliers"], NOISE, harness.Transform(rotation=ROTATION), seed
        )
        instance = m["models"].build_third_order(
            points1, points2, knn=s["knn"], triangle_budget=s["triangles"],
            seed=seed, ground_truth=truth,
        )
        solves = []
        for variant in (solver.Variant.ADGM1, solver.Variant.ADGM2):
            start = perf_counter()
            result = solver.solve(instance, solver.SolverConfig(variant=variant))
            solves.append((perf_counter() - start, result))
        return instance, solves

    def check(self, state):
        instance, solves = state
        out = Outcome()
        for elapsed, result in solves:
            self._check_solution(out, instance, result.discrete, result.energy_discrete, "solve")
            out.solve_s.append(elapsed)
            out.accuracy.append(
                self.m["harness"].accuracy(
                    result.discrete, instance.ground_truth, self.size["inliers"]
                )
            )
        return out


class OracleSweep(_Workload):
    """``adgm bench <config>`` in process: one instance per outlier count.

    The warm-up sweep holds one instance, at the middle outlier count.
    """

    name = "oracle_sweep"

    def __init__(self, modules, workdir):
        super().__init__(modules, workdir)
        harness = modules["harness"]
        self._capture(harness, "solve", modules["solver"])
        # brute_force_optimum returns (assignment, energy); keep the energy.
        self._capture(harness, "brute_force_optimum", modules["discretize"],
                      keep=lambda args, result: result[1])

    def prepare(self, seed, warmup=False):
        outliers = self.size["outliers"]
        if warmup:
            outliers = outliers[len(outliers) // 2 :][:1]
        config = self.workdir / "sweep.cfg"
        config.write_text(
            "model = a\n"
            f"values = {','.join(str(v) for v in outliers)}\n"
            f"inliers = {self.size['inliers']}\n"
            "methods = adgm1,adgm2\n"
            f"noise_sigma = {NOISE}\n"
            f"rotation = {ROTATION}\n"
            f"seed = {seed}\n"
        )
        result_dir = self.workdir / "out"
        shutil.rmtree(result_dir, ignore_errors=True)
        return config, result_dir, len(outliers)

    def run(self, prepared):
        config, result_dir, instances = prepared
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.m["cli"].main(["bench", str(config), "--out", str(result_dir)])
        return code, result_dir, instances, self._take_captured()

    def check(self, state):
        code, result_dir, instances, captured = state
        out = Outcome(instances=instances)
        if code != 0:
            out.failures.append(f"bench exit code {code}")
            return out
        sense = self.m["solver"].Sense
        optima = captured.get("brute_force_optimum", [])
        solves = captured.get("solve", [])
        if len(optima) != instances or len(solves) != 2 * instances:
            out.failures.append(
                f"{instances} instances gave {len(optima)} oracle optima and {len(solves)} solves"
            )
            return out
        # run_experiment solves each instance with both methods right after its oracle.
        for k, (args, result) in enumerate(solves):
            instance = args[0]
            self._check_solution(out, instance, result.discrete, result.energy_discrete, "solve")
            best = optima[k // 2]
            tol = 1e-9 * max(1.0, abs(best))
            if instance.sense is sense.MAXIMIZE:
                beats = result.energy_discrete > best + tol
            else:
                beats = result.energy_discrete < best - tol
            out.expect(not beats, f"solve energy {result.energy_discrete!r} beats oracle {best!r}")
        with open(result_dir / "trials.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                out.accuracy.append(float(row["accuracy"]))
                out.solve_s.append(float(row["time_ms"]) / 1000.0)
        with open(result_dir / "summary.csv", newline="") as handle:
            for row in csv.DictReader(handle):
                if row["global_opt_rate"]:
                    out.global_opt.append(float(row["global_opt_rate"]))
        return out


WORKLOADS = {w.name: w for w in (CliPairwise, ThirdOrder, OracleSweep)}
