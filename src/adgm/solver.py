"""Alternating-direction matching solver.

The matching energy is decomposed over D coupled copies of the assignment
vector, one per tensor order.  Each iteration sweeps the blocks in order,
moving block d to the projection of a closed-form target onto its assigned
constraint set (rows for odd blocks, columns for even ones), then updates
the scaled dual multipliers and a consensus residual.  Two coupling
layouts are provided: ADGM1 ties every block to the first (x1 = xd),
ADGM2 chains consecutive blocks (x_{d-1} = xd).  A slowly increasing
penalty drives the nonconvex iteration to consensus in practice.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .constraints import (
    ConstraintSpec,
    as_matrix,
    project_colwise,
    project_rowwise,
)
from .discretize import hungarian
from .errors import ConfigurationError
from .tensor import SparseTensor, multilinear_form, partial_contraction

# Residual improvements smaller than this count as "no improvement"
# for the adaptive penalty schedule.
IMPROVEMENT_TOL = 1e-12


class Sense(Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    @classmethod
    def parse(cls, text):
        key = str(text).strip().lower()
        for sense in cls:
            if sense.value == key:
                return sense
        raise ValueError(f"unknown sense {text!r}")


class Variant(Enum):
    ADGM1 = "adgm1"  # star coupling: x1 = xd for every d >= 2
    ADGM2 = "adgm2"  # chain coupling: x_{d-1} = xd

    @classmethod
    def parse(cls, text):
        key = str(text).strip().lower()
        for variant in cls:
            if variant.value == key:
                return variant
        raise ValueError(f"unknown variant {text!r}")


class SetLabel(Enum):
    ROWWISE = "rowwise"
    COLWISE = "colwise"


@dataclass(frozen=True)
class MatchingInstance:
    """A matching problem: potentials of orders 1..D plus constraints."""

    n1: int
    n2: int
    potentials: tuple
    spec: ConstraintSpec
    sense: Sense = Sense.MINIMIZE
    ground_truth: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "potentials", tuple(self.potentials))
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be >= 1")
        if len(self.potentials) < 1:
            raise ValueError("at least an order-1 potential slot is required")
        n = self.n1 * self.n2
        for k, tensor in enumerate(self.potentials, start=1):
            if not isinstance(tensor, SparseTensor):
                raise TypeError("potentials must be SparseTensor instances")
            if tensor.order != k:
                raise ValueError(
                    f"potential slot {k} must have order {k}, got {tensor.order}"
                )
            if tensor.dim != n:
                raise ValueError(
                    f"potential of order {k} must have dim {n}, got {tensor.dim}"
                )
        if (self.spec.n1, self.spec.n2) != (self.n1, self.n2):
            raise ValueError("constraint spec sizes must match the instance")
        if self.ground_truth is not None:
            truth = np.asarray(self.ground_truth, dtype=np.float64)
            if truth.shape != (n,):
                raise ValueError(f"ground_truth must have shape ({n},)")
            if not np.all((truth == 0.0) | (truth == 1.0)):
                raise ValueError("ground_truth must be a hard 0/1 vector")
            object.__setattr__(self, "ground_truth", truth)

    @property
    def n(self):
        return self.n1 * self.n2

    @property
    def order(self):
        return len(self.potentials)


@dataclass(frozen=True)
class SolverConfig:
    """Solver parameters.  ``rho0`` and ``eps`` default to n-dependent
    values (n/1000 and 1e-6*n) resolved when the solve starts."""

    variant: Variant = Variant.ADGM1
    rho0: float | None = None
    t1: int = 300
    t2: int = 50
    beta: float = 2.0
    eps: float | None = None
    max_iter: int = 10000

    def validate(self):
        if self.rho0 is not None and not self.rho0 > 0:
            raise ConfigurationError(f"rho0 must be > 0, got {self.rho0}")
        if not self.beta > 1:
            raise ConfigurationError(f"beta must be > 1, got {self.beta}")
        if not (self.t1 >= self.t2 >= 1):
            raise ConfigurationError(
                f"need t1 >= t2 >= 1, got t1={self.t1}, t2={self.t2}"
            )
        if self.eps is not None and not self.eps > 0:
            raise ConfigurationError(f"eps must be > 0, got {self.eps}")
        if self.max_iter < 1:
            raise ConfigurationError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class SolverState:
    """Mutable per-run state: block iterates, multipliers, penalty."""

    blocks: list
    prev_blocks: list
    multipliers: list  # y_d for d = 2..D, stored at index d-2
    rho: float
    iteration: int = 0
    residual_history: list = field(default_factory=list)
    best_residual_since_increase: float = np.inf
    best_at_prev_check: float = np.inf
    next_check_iter: int = 0
    rho_increases: list = field(default_factory=list)


@dataclass
class SolverResult:
    continuous: np.ndarray
    discrete: np.ndarray
    energy_continuous: float
    energy_discrete: float
    iterations: int
    converged: bool
    residual_trace: np.ndarray
    wall_time: float
    rho_final: float
    rho_increases: list
    trace: list | None = None  # (iteration, residual, rho, energy) rows


def energy(instance, x):
    """Total matching energy at ``x``: the sum over orders of each
    potential's multilinear form with ``x`` in every slot."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (instance.n,):
        raise ValueError(f"x must have shape ({instance.n},), got {x.shape}")
    return sum(
        multilinear_form(tensor, [x] * tensor.order) for tensor in instance.potentials
    )


def assign_constraint_sets(D):
    """Alternate row and column constraint sets over the D blocks."""
    if D < 2:
        raise ValueError("constraint assignment needs at least two blocks")
    return [SetLabel.ROWWISE if d % 2 == 1 else SetLabel.COLWISE for d in range(1, D + 1)]


def _tensor_pull(instance, d, blocks):
    """Sum over orders i >= d of the order-i potential contracted down to
    mode d: modes below d see the current sweep's new iterates, modes
    above d the previous ones (blocks are read as currently stored)."""
    n = instance.n
    total = np.zeros(n)
    for tensor in instance.potentials[d - 1 :]:
        if tensor.nnz == 0:
            continue
        total += partial_contraction(
            tensor, d, blocks[: d - 1], blocks[d : tensor.order]
        )
    return total


def projection_target(variant, d, state, instance):
    """Point whose projection onto block d's constraint set gives the next
    iterate.  Expects minimization-sense potentials; blocks 1..d-1 must
    already hold this sweep's values."""
    blocks = state.blocks
    D = len(blocks)
    rho = state.rho
    pull = _tensor_pull(instance, d, blocks)
    if variant is Variant.ADGM1:
        if d == 1:
            others = blocks[1].copy()
            for b in blocks[2:]:
                others += b
            dual = state.multipliers[0].copy()
            for y in state.multipliers[1:]:
                dual += y
            target = others - dual / rho - pull / rho
            target /= D - 1
            return target
        return blocks[0] + state.multipliers[d - 2] / rho - pull / rho
    if d == 1:
        return blocks[1] - state.multipliers[0] / rho - pull / rho
    if d == D:
        return blocks[D - 2] + state.multipliers[D - 2] / rho - pull / rho
    return (
        0.5 * (blocks[d - 2] + blocks[d])
        + (state.multipliers[d - 2] - state.multipliers[d - 1]) / (2.0 * rho)
        - pull / (2.0 * rho)
    )


def residual(state, variant):
    """Consensus residual after a completed sweep: squared coupling gaps
    plus squared per-block movement (movement weighted by the number of
    couplings touching the block)."""
    blocks = state.blocks
    prev = state.prev_blocks
    D = len(blocks)
    total = 0.0
    if variant is Variant.ADGM1:
        for d in range(1, D):
            diff = blocks[0] - blocks[d]
            total += float(diff @ diff)
        move = blocks[0] - prev[0]
        total += (D - 1) * float(move @ move)
        for d in range(1, D):
            move = blocks[d] - prev[d]
            total += float(move @ move)
    else:
        for d in range(1, D):
            diff = blocks[d - 1] - blocks[d]
            total += float(diff @ diff)
        for d in range(D):
            weight = 1.0 if d in (0, D - 1) else 2.0
            move = blocks[d] - prev[d]
            total += weight * float(move @ move)
    return total


def update_multipliers(state, variant, rho):
    """Dual ascent on the coupling constraints (in place)."""
    blocks = state.blocks
    D = len(blocks)
    for d in range(2, D + 1):
        if variant is Variant.ADGM1:
            gap = blocks[0] - blocks[d - 1]
        else:
            gap = blocks[d - 2] - blocks[d - 1]
        state.multipliers[d - 2] += rho * gap


def adapt_penalty(state, config):
    """Increase rho by beta when the windowed best residual stalls.

    Bookkeeping starts once ``t1`` iterations have completed; checks fire
    every ``t2`` iterations after that.  The first check only seeds the
    reference window.  Call once per iteration, after the residual is
    appended to the history."""
    k = state.iteration
    if k < config.t1:
        return
    r = state.residual_history[-1]
    if r < state.best_residual_since_increase:
        state.best_residual_since_increase = r
    if state.next_check_iter < config.t1:
        state.next_check_iter = config.t1
    if k != state.next_check_iter:
        return
    stalled = (
        state.best_residual_since_increase
        >= state.best_at_prev_check - IMPROVEMENT_TOL
    )
    if k > config.t1 and stalled:
        state.rho *= config.beta
        state.rho_increases.append(k)
        state.best_at_prev_check = state.best_residual_since_increase
        state.best_residual_since_increase = np.inf
    else:
        state.best_at_prev_check = state.best_residual_since_increase
    state.next_check_iter = k + config.t2


def to_minimization(instance):
    """Convert a maximization instance to minimization by the max-shift
    rule: every stored entry v becomes (v_max - v) with v_max the largest
    entry across all potentials.  Returns ``(converted, v_max)``.

    Unlike plain negation this keeps potentials nonnegative, which some
    comparison protocols require.  Absent (implicitly zero) entries stay
    absent, so only assignments touching stored entries are re-scored;
    over families selecting a fixed number of stored entries (e.g. full
    permutations of dense potentials), argmin of the converted instance
    equals argmax of the original.
    """
    if instance.sense is Sense.MINIMIZE:
        warnings.warn("instance already minimizes; returning it unchanged")
        return instance, 0.0
    entry_maxes = [float(t.values.max()) for t in instance.potentials if t.nnz]
    v_max = max(entry_maxes) if entry_maxes else 0.0
    converted = tuple(
        SparseTensor(t.order, t.dim, t.indices, v_max - t.values)
        for t in instance.potentials
    )
    flipped = replace(instance, potentials=converted, sense=Sense.MINIMIZE)
    return flipped, v_max


def _canonical_minimization(instance):
    """Negate potentials of a maximization instance and lift unary-only
    problems to two blocks with an empty pairwise potential."""
    potentials = instance.potentials
    if instance.sense is Sense.MAXIMIZE:
        potentials = tuple(t.scaled(-1.0) for t in potentials)
    if len(potentials) == 1:
        potentials = potentials + (SparseTensor.empty(2, instance.n),)
    return replace(instance, potentials=potentials, sense=Sense.MINIMIZE)


def _initial_state(instance, rho0):
    n = instance.n
    D = instance.order
    uniform = np.full(n, 1.0 / max(instance.n1, instance.n2))
    return SolverState(
        blocks=[uniform.copy() for _ in range(D)],
        prev_blocks=[uniform.copy() for _ in range(D)],
        multipliers=[np.zeros(n) for _ in range(D - 1)],
        rho=float(rho0),
    )


def solve(instance, config=None, collect_trace=False):
    """Run the alternating-direction iteration and discretize the result.

    Continuous and discrete energies are reported in the instance's
    native sense.  ``collect_trace`` additionally records one
    (iteration, residual, rho, energy) row per iteration.
    """
    if config is None:
        config = SolverConfig()
    config.validate()

    work = _canonical_minimization(instance)
    n = work.n
    D = work.order
    rho0 = config.rho0 if config.rho0 is not None else n / 1000.0
    eps = config.eps if config.eps is not None else 1e-6 * n
    labels = assign_constraint_sets(D)
    projectors = [
        project_rowwise if label is SetLabel.ROWWISE else project_colwise
        for label in labels
    ]

    state = _initial_state(work, rho0)
    trace = [] if collect_trace else None
    converged = False
    start = time.perf_counter()
    for k in range(1, config.max_iter + 1):
        for d in range(D):
            np.copyto(state.prev_blocks[d], state.blocks[d])
        for d in range(1, D + 1):
            target = projection_target(config.variant, d, state, work)
            state.blocks[d - 1] = projectors[d - 1](target, work.spec)
        update_multipliers(state, config.variant, state.rho)
        r = residual(state, config.variant)
        state.iteration = k
        state.residual_history.append(r)
        rho_used = state.rho
        adapt_penalty(state, config)
        if collect_trace:
            trace.append((k, r, rho_used, energy(instance, state.blocks[0])))
        if r <= eps:
            converged = True
            break
    wall = time.perf_counter() - start

    x1 = state.blocks[0]
    discrete = hungarian(as_matrix(x1, instance.n1, instance.n2), instance.spec)
    return SolverResult(
        continuous=x1.copy(),
        discrete=discrete,
        energy_continuous=energy(instance, x1),
        energy_discrete=energy(instance, discrete),
        iterations=state.iteration,
        converged=converged,
        residual_trace=np.asarray(state.residual_history),
        wall_time=wall,
        rho_final=state.rho,
        rho_increases=list(state.rho_increases),
        trace=trace,
    )
