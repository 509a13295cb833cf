"""Shared generators, spies and probes for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import adgm
from adgm import tensor as tensor_module
from adgm.constraints import ConstraintSpec
from adgm.solver import MatchingInstance, Sense, SolverState
from adgm.tensor import SparseTensor


def random_sparse_tensor(rng, order, dim, nnz=None, scale=1.0):
    if nnz is None:
        nnz = int(rng.integers(0, min(dim**order, 30) + 1))
    indices = rng.integers(0, dim, size=(nnz, order))
    values = rng.normal(0.0, scale, size=nnz)
    return SparseTensor(order, dim, indices, values)


def random_instance(rng, n1, n2, max_order=2, sense=Sense.MINIMIZE, spec=None, nnz=None):
    """Instance with random sparse potentials at every order 1..max_order."""
    if spec is None:
        spec = ConstraintSpec.injective(n1, n2)
    n = n1 * n2
    potentials = []
    for d in range(1, max_order + 1):
        count = min(nnz if nnz is not None else max(1, 2 * n), n**d)
        potentials.append(random_sparse_tensor(rng, d, n, count))
    return MatchingInstance(n1, n2, tuple(potentials), spec, sense)


def dense_random_instance(rng, n1, n2, sense=Sense.MINIMIZE, spec=None):
    """Pairwise instance whose potentials have full support (every cell)."""
    if spec is None:
        spec = ConstraintSpec(n1, n2)
    n = n1 * n2
    first = SparseTensor(1, n, np.arange(n)[:, None], rng.normal(0.0, 1.0, n))
    grid = np.stack(
        np.meshgrid(np.arange(n), np.arange(n), indexing="ij"), axis=-1
    ).reshape(-1, 2)
    second = SparseTensor(2, n, grid, rng.normal(0.0, 1.0, n * n))
    return MatchingInstance(n1, n2, (first, second), spec, sense)


def random_state(rng, instance, rho=None):
    """Synthetic mid-run solver state with random blocks and multipliers."""
    D = instance.order
    n = instance.n
    return SolverState(
        blocks=[rng.random(n) for _ in range(D)],
        prev_blocks=[rng.random(n) for _ in range(D)],
        multipliers=[rng.normal(0.0, 1.0, n) for _ in range(D - 1)],
        rho=float(rng.uniform(0.5, 3.0)) if rho is None else rho,
    )


def operator_builds(monkeypatch):
    """Record each contraction cache that ``adgm.tensor`` builds, until
    ``monkeypatch`` is undone: ``"half"`` for a supersymmetric order-3
    tensor's half operator, ``"columns"`` for a coordinate tensor's
    contiguous index columns.  Returns the list of records."""
    built = []
    half_entries = tensor_module._half_entries
    index_columns = SparseTensor._index_columns

    def spy_half(tensor):
        built.append("half")
        return half_entries(tensor)

    def spy_columns(tensor):
        if "columns" not in tensor._contract_cache:
            built.append("columns")
        return index_columns(tensor)

    monkeypatch.setattr(tensor_module, "_half_entries", spy_half)
    monkeypatch.setattr(SparseTensor, "_index_columns", spy_columns)
    return built


def dense_reads(monkeypatch, tensor):
    """Record each time ``tensor``'s held array is read into entries, until
    ``monkeypatch`` is undone: ``"indices"`` or ``"values"``.  Returns the
    list of records."""
    reads = []
    for name in ("indices", "values"):
        original = getattr(tensor_module, f"_dense_{name}")

        def spy(dense, name=name, original=original):
            if dense is tensor._dense:
                reads.append(name)
            return original(dense)

        monkeypatch.setattr(tensor_module, f"_dense_{name}", spy)
    return reads


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this ``adgm``, and
    return what it prints."""
    src = str(Path(adgm.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout
