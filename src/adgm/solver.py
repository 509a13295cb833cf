"""Alternating-direction matching solver.

The matching energy is decomposed over D = max(2, order) coupled copies
of the assignment vector, one per tensor order.  Each iteration sweeps the
blocks in order, moving block d to the projection of a closed-form target
onto its assigned constraint set (rows for odd blocks, columns for even
ones), then updates the scaled dual multipliers and a consensus residual.
A variant is only a table of coupled block pairs, one per multiplier:
ADGM1 ties every block to the first (x1 = xd), ADGM2 chains consecutive
blocks (x_{d-1} = xd).  A slowly increasing penalty drives the nonconvex
iteration to consensus in practice.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from numbers import Integral

import numpy as np

from .constraints import (
    ConstraintSpec,
    TextEnum,
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


class Sense(TextEnum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Variant(TextEnum):
    ADGM1 = "adgm1"  # star coupling: x1 = xd for every d >= 2
    ADGM2 = "adgm2"  # chain coupling: x_{d-1} = xd

    @lru_cache(maxsize=None)
    def couplings(self, D):
        """The variant's consensus constraints over D blocks, as data.

        ``pairs[e] = (p, q)`` couples x_p = x_q (0-based blocks) under
        multiplier y_e: ADGM1 ties block 0 to every other, ADGM2 chains
        neighbours.  ``links[i]`` lists block i's couplings in multiplier
        order as ``(neighbour, e, plus)``, ``plus`` when i is the
        coupling's q (so +y_e enters its target).  Returns
        ``(pairs, links)``.
        """
        pairs = tuple((q - 1 if self is Variant.ADGM2 else 0, q) for q in range(1, D))
        links = [[] for _ in range(D)]
        for e, (p, q) in enumerate(pairs):
            links[p].append((q, e, False))
            links[q].append((p, e, True))
        return pairs, tuple(map(tuple, links))


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
    values (n/1000 and 1e-6*n) resolved when the solve starts.  Invalid
    values raise ConfigurationError when the config is built."""

    variant: Variant = Variant.ADGM1
    rho0: float | None = None
    t1: int = 300
    t2: int = 50
    beta: float = 2.0
    eps: float | None = None
    max_iter: int = 10000

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name, value in (("t1", self.t1), ("t2", self.t2), ("max_iter", self.max_iter)):
            if not isinstance(value, Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
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


def _tensor_pull(instance, d, blocks):
    """Sum over orders i >= d of the order-i potential contracted down to
    mode d: modes below d see the current sweep's new iterates, modes
    above d the previous ones (blocks are read as currently stored).
    A maximization instance's potentials enter negated, so every block
    minimizes.  Returns a fresh array."""
    maximize = instance.sense is Sense.MAXIMIZE
    total = None
    for tensor in instance.potentials[d - 1 :]:
        if tensor.nnz == 0:
            continue
        part = partial_contraction(tensor, d, blocks[: d - 1], blocks[d : tensor.order])
        if total is None:
            # A pull holds no -0.0 (each sparse row sum starts at +0.0), so
            # part is 0 + part bit for bit; and 0 - part, unlike -part,
            # keeps its zeros +0.0.
            total = np.subtract(0.0, part, out=part) if maximize else part
        elif maximize:
            total -= part
        else:
            total += part
    return np.zeros(instance.n) if total is None else total


def projection_target(variant, d, state, instance):
    """Point whose projection onto block d's constraint set gives the next
    iterate: ``(sum(x_j) + sum(+-y_e) / rho - pull / rho) / k`` over the k
    couplings ``e`` of block d with neighbours ``j``, taking ``+y_e`` where
    block d is the coupling's q.  Blocks 1..d-1 must already hold this
    sweep's values."""
    blocks, ys, rho = state.blocks, state.multipliers, state.rho
    (j, e, plus), *rest = variant.couplings(len(blocks))[1][d - 1]
    # A lone -y_e is divided by -rho: the bits of -y_e / rho, one array
    # operation fewer.
    near, dual, scale = blocks[j], ys[e], (rho if plus else -rho)
    if rest and not plus:
        dual, scale = -dual, rho
    for j, e, plus in rest:
        near = near + blocks[j]
        dual = dual + ys[e] if plus else dual - ys[e]
    target = np.divide(dual, scale)
    target += near
    pull = _tensor_pull(instance, d, blocks)
    pull /= rho
    target -= pull
    if rest:
        target /= len(rest) + 1
    return target


def residual(state, variant):
    """Consensus residual after a completed sweep: squared coupling gaps
    plus squared per-block movement (movement weighted by the number of
    couplings touching the block)."""
    blocks = state.blocks
    pairs, links = variant.couplings(len(blocks))
    total = 0.0
    for p, q in pairs:
        diff = blocks[p] - blocks[q]
        total += float(diff @ diff)
    for block, prev, incident in zip(blocks, state.prev_blocks, links):
        move = block - prev
        total += len(incident) * float(move @ move)
    return total


def update_multipliers(state, variant, rho):
    """Dual ascent on the coupling constraints (in place)."""
    blocks = state.blocks
    pairs = variant.couplings(len(blocks))[0]
    for e, (p, q) in enumerate(pairs):
        state.multipliers[e] += rho * (blocks[p] - blocks[q])


def adapt_penalty(state, config):
    """Increase rho by beta when the windowed best residual stalls.

    From iteration ``t1`` on, the best residual is tracked, and it is
    checked at the iterations ``k = t1 + j * t2``.  The check at ``t1``
    only seeds the reference window.  A later check multiplies rho by
    beta, records ``k`` and restarts the tracking, unless the best
    residual beat the one at the previous check by more than
    ``IMPROVEMENT_TOL``.  Call once per iteration, after the residual is
    appended to the history."""
    k = state.iteration
    if k < config.t1:
        return
    best = min(state.best_residual_since_increase, state.residual_history[-1])
    state.best_residual_since_increase = best
    if (k - config.t1) % config.t2:
        return
    if k > config.t1 and best >= state.best_at_prev_check - IMPROVEMENT_TOL:
        state.rho *= config.beta
        state.rho_increases.append(k)
        state.best_residual_since_increase = np.inf
    state.best_at_prev_check = best


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
    converted = []
    for t in instance.potentials:
        with np.errstate(over="ignore"):
            shifted = v_max - t.values
        if not np.all(np.isfinite(shifted)):
            raise ValueError(
                "the potentials span more than the float range: every shifted "
                "value v_max - v must be finite"
            )
        converted.append(SparseTensor(t.order, t.dim, t.indices, shifted))
    flipped = replace(instance, potentials=tuple(converted), sense=Sense.MINIMIZE)
    return flipped, v_max


def solve(instance, config=None, collect_trace=False):
    """Run the alternating-direction iteration and discretize the result.

    Continuous and discrete energies are reported in the instance's
    native sense.  ``collect_trace`` additionally records one
    (iteration, residual, rho, energy) row per iteration.
    """
    if config is None:
        config = SolverConfig()
    n = instance.n
    # Unary-only problems still iterate on two blocks.
    D = max(2, instance.order)
    rho0 = config.rho0 if config.rho0 is not None else n / 1000.0
    eps = config.eps if config.eps is not None else 1e-6 * n

    # The blocks are only ever replaced, so they may share one start array;
    # update_multipliers adds into each multiplier in place.
    uniform = np.full(n, 1.0 / max(instance.n1, instance.n2))
    state = SolverState(
        blocks=[uniform] * D,
        prev_blocks=[uniform] * D,
        multipliers=[np.zeros(n) for _ in range(D - 1)],
        rho=float(rho0),
    )
    trace = [] if collect_trace else None
    converged = False
    start = time.perf_counter()
    for k in range(1, config.max_iter + 1):
        # Every projection returns a fresh array, so the blocks of the last
        # sweep are never written again.
        state.prev_blocks = list(state.blocks)
        for d in range(1, D + 1):
            target = projection_target(config.variant, d, state, instance)
            # Odd blocks carry the row constraints, even blocks the columns.
            # Looked up on each call, so a rebound module attribute (a
            # tracing wrapper, a test double) is the projection that runs.
            project = project_rowwise if d % 2 else project_colwise
            state.blocks[d - 1] = project(target, instance.spec)
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
        continuous=x1,
        discrete=discrete,
        energy_continuous=energy(instance, x1),
        energy_discrete=energy(instance, discrete),
        iterations=state.iteration,
        converged=converged,
        residual_trace=np.asarray(state.residual_history),
        wall_time=wall,
        rho_final=state.rho,
        rho_increases=state.rho_increases,
        trace=trace,
    )
