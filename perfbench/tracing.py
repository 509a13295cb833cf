"""Spans around the adgm package's public functions, recorded from outside.

A :class:`Tracer` replaces the named functions, in every loaded ``adgm``
module that binds them, with wrappers that record one span per call:
name, start, end, parent span and instance id, plus an optional payload
of sizes read from the arguments or the result.  Spans live in compact
in-memory arrays and are written out once, by :meth:`Tracer.save`.
:meth:`Tracer.uninstall` puts every replaced name back.

:data:`LAYER_METRICS` turns the spans of the traced instances into the
per-layer metrics, each with the end-to-end metric it should move.
"""

from __future__ import annotations

import contextlib
import math
import os
from array import array
from time import perf_counter

import numpy as np

ROOT = "instance"


def _path_bytes(args, kwargs, result):
    path = kwargs.get("path", args[0] if args else None)
    return (float(os.path.getsize(path)),)


def _entries(args, kwargs, result):
    return (float(sum(t.nnz for t in result.potentials)),)


def _canon_entries(args, kwargs, result):
    # SparseTensor.__init__(self, order, dim, indices=None, values=None)
    values = kwargs.get("values", args[4] if len(args) > 4 else None)
    return (0.0 if values is None else float(len(values)),)


def _pull(args, kwargs, result):
    tensor = args[0]
    # Computed, not measured: CSR values (8 B) and column indices (4 B) per
    # entry, row pointers, the dense closed-mode work vector and the output.
    moved = (
        12.0 * tensor.nnz
        + 4.0 * (tensor.dim + 1)
        + 8.0 * float(tensor.dim) ** (tensor.order - 1)
        + 8.0 * tensor.dim
    )
    return (float(tensor.nnz), moved)


def _solve(args, kwargs, result):
    return (
        float(result.iterations),
        1.0 if result.converged else 0.0,
        float(len(result.rho_increases)),
        float(result.wall_time),
    )


def _oracle_candidates(args, kwargs, result):
    # The number of one-to-one assignments the oracle enumerates.  Counted
    # here, not taken from a private helper of adgm.discretize, so that the
    # benchmark does not break when that helper changes.
    spec = args[0].spec
    n1, n2 = spec.n1, spec.n2
    rows = spec.row_mode.value == "exactly-one"
    cols = spec.col_mode.value == "exactly-one"
    if rows and cols:
        count = math.factorial(n1)
    elif rows:
        count = math.perm(n2, n1)
    elif cols:
        count = math.perm(n1, n2)
    else:
        count = sum(
            math.comb(n1, k) * math.comb(n2, k) * math.factorial(k)
            for k in range(min(n1, n2) + 1)
        )
    return (float(count),)


# (span name, defining module, function names, payload)
TARGETS = [
    ("cli.main", "cli", ("main",), None),
    ("harness.run", "harness", ("run_experiment",), None),
    ("harness.config", "harness", ("read_experiment_config",), None),
    ("harness.generate", "harness", ("generate_synthetic",), None),
    (
        "models.build",
        "models",
        ("build_pairwise_a", "build_pairwise_b", "build_pairwise_c", "build_third_order"),
        _entries,
    ),
    ("models.delaunay", "models", ("delaunay_edges",), None),
    (
        "io.read",
        "io",
        ("read_points", "read_edges", "read_unary", "read_tensor", "read_truth", "read_instance"),
        _path_bytes,
    ),
    (
        "io.write",
        "io",
        (
            "write_points",
            "write_edges",
            "write_unary",
            "write_tensor",
            "write_truth",
            "write_instance",
            "write_solution",
            "write_trace",
        ),
        _path_bytes,
    ),
    ("tensor.pull", "tensor", ("partial_contraction",), _pull),
    ("tensor.form", "tensor", ("multilinear_form",), None),
    ("constraints.project", "constraints", ("project_rowwise", "project_colwise"), None),
    ("solver.solve", "solver", ("solve",), _solve),
    ("solver.target", "solver", ("projection_target",), None),
    ("solver.dual", "solver", ("update_multipliers",), None),
    ("solver.residual", "solver", ("residual",), None),
    ("discretize.lap", "discretize", ("hungarian",), None),
    ("discretize.oracle", "discretize", ("brute_force_optimum",), _oracle_candidates),
]
CANON = "tensor.canon"  # wraps SparseTensor.__init__
NAMES = [ROOT, CANON] + [t[0] for t in TARGETS]


class Tracer:
    """Records spans for calls into the adgm modules given at construction.

    ``modules`` maps a short layer name (``"cli"``, ``"tensor"``, ...) to
    the loaded module.  Spans are recorded only between :meth:`install`
    and :meth:`uninstall`; :meth:`instance` opens the root span that every
    layer span of one pipeline instance nests under.
    """

    def __init__(self, modules):
        self.modules = modules
        self.name = array("i")
        self.parent = array("i")
        self.inst = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.payload = {}
        self._stack = [-1]
        self._instance = -1
        self._saved = []

    # -- recording -----------------------------------------------------

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.inst.append(self._instance)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, payload):
        name_id = NAMES.index(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                tracer.raised[idx] = 1
                raise
            tracer._close(idx)
            if payload is not None:
                tracer.payload[idx] = payload(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def instance(self, instance_id):
        """The root span of one pipeline instance."""
        self._instance = instance_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self._instance = -1

    # -- installing ----------------------------------------------------

    def install(self):
        """Wrap every target wherever an adgm module binds it."""
        bindings = list(self.modules.values())
        for name, home, attrs, payload in TARGETS:
            module = self.modules[home]
            for attr in attrs:
                original = getattr(module, attr)
                wrapped = self._wrap(name, original, payload)
                for holder in bindings:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._saved.append((holder, key, original))
                            setattr(holder, key, wrapped)
        cls = self.modules["tensor"].SparseTensor
        original = cls.__dict__["__init__"]
        self._saved.append((cls, "__init__", original))
        cls.__init__ = self._wrap(CANON, original, _canon_entries)

    def uninstall(self):
        """Put back every name :meth:`install` replaced."""
        while self._saved:
            holder, key, original = self._saved.pop()
            setattr(holder, key, original)

    # -- output --------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays, one entry per span."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "instance": np.frombuffer(self.inst, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path):
        """Write every span, its payload and the name table to ``path`` (.npz)."""
        spans = self.arrays()
        index = np.array(sorted(self.payload), dtype=np.int64)
        table = np.full((index.size, 4), np.nan)
        for row, idx in enumerate(index):
            values = self.payload[int(idx)]
            table[row, : len(values)] = values
        np.savez(
            path,
            names=np.array(NAMES),
            payload_index=index,
            payload=table,
            **spans,
        )


class SpanStats:
    """Per-name aggregates over the spans of the given pipeline runs.

    ``runs`` are the root-span ids to keep; ``instances`` is the number of
    problem instances they processed, the divisor of :meth:`per_instance`.
    """

    def __init__(self, tracer, runs, instances):
        spans = tracer.arrays()
        keep = np.isin(spans["instance"], np.asarray(list(runs), dtype=np.int32))
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self.self_time = dur - covered
        self.dur = dur
        self.keep = keep
        self.name = spans["name"]
        self.parent = parent
        self.raised = spans["raised"]
        self.payload = tracer.payload
        self.count = max(1, instances)

    def _mask(self, name):
        return self.keep & (self.name == NAMES.index(name))

    def calls(self, name):
        return float(self._mask(name).sum())

    def total(self, name):
        return float(self.dur[self._mask(name)].sum())

    def self_total(self, prefix):
        ids = [i for i, n in enumerate(NAMES) if n.startswith(prefix)]
        return float(self.self_time[self.keep & np.isin(self.name, ids)].sum())

    def column(self, name, col):
        idx = np.flatnonzero(self._mask(name))
        return np.array([self.payload[int(i)][col] for i in idx if int(i) in self.payload])

    def raised_calls(self, name):
        return float((self._mask(name) & (self.raised == 1)).sum())

    def child_calls(self, name, parent_name):
        mask = self._mask(name) & (self.parent >= 0)
        parents = self.parent[mask]
        return float((self.name[parents] == NAMES.index(parent_name)).sum())

    def per_instance(self, value):
        return value / self.count


def _mean(values):
    return float(values.mean()) if values.size else 0.0


def _iter_ms(s):
    iterations = s.column("solver.solve", 0)
    wall = s.column("solver.solve", 3)
    return 1000.0 * float(wall.sum()) / float(iterations.sum()) if iterations.sum() else 0.0


# (metric, unit, better, value from SpanStats, what it should move)
LAYER_METRICS = [
    ("tensor.canon_calls", "count/instance", "lower",
     lambda s: s.per_instance(s.calls(CANON)),
     "instance_s_p50 on cli_pairwise (build, read); solve_s_p50 on third_order; nothing on oracle_sweep"),
    ("tensor.canon_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total(CANON)),
     "instance_s_p50 on cli_pairwise (build, read); solve_s_p50 on third_order; nothing on oracle_sweep"),
    ("tensor.canon_entries", "entries/instance", "lower",
     lambda s: s.per_instance(float(s.column(CANON, 0).sum())),
     "instance_s_p50 on cli_pairwise (build, read); solve_s_p50 on third_order; nothing on oracle_sweep"),
    ("tensor.canon_in_solve_calls", "count/instance", "lower",
     lambda s: s.per_instance(s.child_calls(CANON, "solver.solve")),
     "solve_s_p50 on third_order (re-sorts of a maximization instance inside solve)"),
    ("io.write_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("io.write")),
     "instance_s_p50 and instances_per_s on cli_pairwise; does not run elsewhere"),
    ("io.read_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("io.read")),
     "instance_s_p50 and instances_per_s on cli_pairwise; does not run elsewhere"),
    ("io.bytes", "B/instance", "lower",
     lambda s: s.per_instance(float(s.column("io.read", 0).sum() + s.column("io.write", 0).sum())),
     "instance_s_p50 and instances_per_s on cli_pairwise; does not run elsewhere"),
    ("tensor.pull_calls", "count/instance", "lower",
     lambda s: s.per_instance(s.calls("tensor.pull")),
     "solve_s_p50 on third_order; little elsewhere"),
    ("tensor.pull_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("tensor.pull")),
     "solve_s_p50 on third_order; little elsewhere"),
    ("tensor.pull_entries", "entries/instance", "lower",
     lambda s: s.per_instance(float(s.column("tensor.pull", 0).sum())),
     "solve_s_p50 on third_order; little elsewhere"),
    ("tensor.pull_bytes", "B/instance", "lower",
     lambda s: s.per_instance(float(s.column("tensor.pull", 1).sum())),
     "computed, not measured: solve_s_p50 on third_order; little elsewhere"),
    ("tensor.form_calls", "count/instance", "lower",
     lambda s: s.per_instance(s.calls("tensor.form")),
     "solve_s_p50 on third_order"),
    ("tensor.form_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("tensor.form")),
     "solve_s_p50 on third_order"),
    ("constraints.project_calls", "count/instance", "lower",
     lambda s: s.per_instance(s.calls("constraints.project")),
     "solve_s_p50 on oracle_sweep; little on third_order"),
    ("constraints.project_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("constraints.project")),
     "solve_s_p50 on oracle_sweep; little on third_order"),
    ("solver.target_s", "s/instance", "lower",
     lambda s: s.per_instance(s.self_total("solver.target")),
     "solve_s_p50 on oracle_sweep; little on third_order (self time of projection_target)"),
    ("solver.dual_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("solver.dual")),
     "solve_s_p50 on oracle_sweep; little on third_order"),
    ("solver.residual_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("solver.residual")),
     "solve_s_p50 on oracle_sweep; little on third_order"),
    ("solver.self_s", "s/instance", "lower",
     lambda s: s.per_instance(s.self_total("solver.solve")),
     "solve_s_p50 on oracle_sweep; little on third_order"),
    ("solver.iter_ms", "ms/iteration", "lower",
     _iter_ms,
     "solve_s_p50 on oracle_sweep; little on third_order"),
    ("solver.iterations", "count/solve", "lower",
     lambda s: _mean(s.column("solver.solve", 0)),
     "solve_s_p50 and accuracy_mean on every workload"),
    ("solver.converged_rate", "ratio", "higher",
     lambda s: _mean(s.column("solver.solve", 1)),
     "solve_s_p50 and accuracy_mean on every workload"),
    ("solver.rho_increases", "count/solve", "lower",
     lambda s: _mean(s.column("solver.solve", 2)),
     "solve_s_p50 and accuracy_mean on every workload"),
    ("discretize.lap_calls", "count/instance", "lower",
     lambda s: s.per_instance(s.calls("discretize.lap")),
     "nothing: under 2% of solve_s_p50 everywhere"),
    ("discretize.lap_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("discretize.lap")),
     "nothing: under 2% of solve_s_p50 everywhere"),
    ("discretize.oracle_calls", "count/instance", "lower",
     lambda s: s.per_instance(s.calls("discretize.oracle")),
     "instances_per_s on oracle_sweep"),
    ("discretize.oracle_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("discretize.oracle")),
     "instances_per_s on oracle_sweep"),
    ("discretize.oracle_candidates", "count/instance", "lower",
     lambda s: s.per_instance(float(s.column("discretize.oracle", 0).sum())),
     "instances_per_s on oracle_sweep"),
    ("discretize.oracle_refusals", "count/instance", "lower",
     lambda s: s.per_instance(s.raised_calls("discretize.oracle")),
     "instances_per_s on oracle_sweep"),
    ("models.build_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("models.build")),
     "instance_s_p50 on cli_pairwise and third_order; peak_rss_mb on third_order"),
    ("models.delaunay_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("models.delaunay")),
     "instance_s_p50 on cli_pairwise and third_order; peak_rss_mb on third_order"),
    ("models.entries", "entries/instance", "lower",
     lambda s: s.per_instance(float(s.column("models.build", 0).sum())),
     "instance_s_p50 on cli_pairwise and third_order; peak_rss_mb on third_order"),
    ("harness.generate_s", "s/instance", "lower",
     lambda s: s.per_instance(s.total("harness.generate")),
     "time outside the named layers"),
    ("harness.self_s", "s/instance", "lower",
     lambda s: s.per_instance(s.self_total("harness.")),
     "time outside the named layers"),
    ("cli.self_s", "s/instance", "lower",
     lambda s: s.per_instance(s.self_total("cli.")),
     "time outside the named layers"),
]
