"""Hard-assignment extraction and exhaustive enumeration.

``hungarian`` turns a profit matrix into the exact best hard assignment
under the instance's side constraints; ``brute_force_optimum`` enumerates
every hard assignment of a small instance and returns the exact optimizer,
refusing loudly when the instance is too large to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice, permutations, repeat
from math import comb, factorial, perm
from operator import add

import numpy as np

from .constraints import SideMode, assignment_index
from .errors import OracleRefusalError


@dataclass(frozen=True)
class BruteForceLimits:
    """Size gates for exhaustive enumeration.

    ``max_injective`` bounds min(n1, n2) when one side must be fully
    matched; ``max_occluded`` bounds both sides when both may stay
    unmatched (the candidate count grows much faster there).
    ``max_candidates`` is a defensive cap on the total enumeration size.
    """

    max_injective: int = 7
    max_occluded: int = 5
    max_candidates: int = 2_000_000


# Floats of work per scoring batch: brute_force_optimum scores
# max(1, _BATCH_FLOATS // max(n, nnz)) candidates at a time, so its peak
# memory does not grow with the candidate count.
_BATCH_FLOATS = 1 << 15


def _assignment_min_cost(cost):
    """Exact square linear assignment by augmenting paths with potentials.

    Returns ``match_row`` of length nn+1 where ``match_row[j]`` is the
    1-based row assigned to 1-based column j.  O(n^3) with vectorized
    inner scans.
    """
    nn = cost.shape[0]
    u = np.zeros(nn + 1)
    v = np.zeros(nn + 1)
    match_row = np.zeros(nn + 1, dtype=np.int64)
    way = np.zeros(nn + 1, dtype=np.int64)
    for i in range(1, nn + 1):
        match_row[0] = i
        j0 = 0
        minv = np.full(nn + 1, np.inf)
        used = np.zeros(nn + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            # Tighten the tentative costs of unused columns via row i0.
            cur = cost[i0 - 1, :] - u[i0] - v[1:]
            better = ~used[1:] & (cur < minv[1:])
            minv[1:][better] = cur[better]
            way[1:][better] = j0
            scan = np.where(used[1:], np.inf, minv[1:])
            j1 = int(np.argmin(scan)) + 1
            delta = scan[j1 - 1]
            # Shift potentials so the chosen column becomes tight.
            u[match_row[used]] += delta
            v[used] -= delta
            minv[~used] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    return match_row


def hungarian(profit, spec):
    """Hard assignment maximizing total profit under ``spec``.

    Sides constrained to at-most-one are handled by padding to a square
    matrix with zero-profit dummy rows/columns, so leaving a point
    unmatched always beats a negative-profit match.  Returns the flat
    0/1 assignment vector; the optimum total is exact.
    """
    profit = np.asarray(profit, dtype=np.float64)
    if profit.shape != (spec.n1, spec.n2):
        raise ValueError(
            f"profit must have shape ({spec.n1}, {spec.n2}), got {profit.shape}"
        )
    if profit.size and not np.all(np.isfinite(profit)):
        raise ValueError("profit entries must be finite")

    n1, n2 = spec.n1, spec.n2
    # Dummies on an exactly-one side, the smaller one, absorb the other
    # side's surplus; with none, every real point may go unmatched.
    exact = SideMode.EXACTLY_ONE in (spec.row_mode, spec.col_mode)
    size = max(n1, n2) if exact else n1 + n2

    padded = np.zeros((size, size))
    padded[:n1, :n2] = profit
    match_row = _assignment_min_cost(-padded)

    # 0-based row of each real column; rows past n1 are dummies.
    rows = match_row[1 : n2 + 1] - 1
    real = rows < n1
    x = np.zeros(spec.n)
    x[assignment_index(rows[real], np.flatnonzero(real), n1)] = 1.0
    return x


def _index_rows(tuples, width, batch):
    """Stack a stream of length-``width`` int tuples into ``(B, width)``
    int64 arrays of at most ``batch`` rows each (``width >= 1``)."""
    while True:
        flat = np.fromiter(chain.from_iterable(islice(tuples, batch)), dtype=np.int64)
        if flat.size == 0:
            return
        yield flat.reshape(-1, width)


def _candidate_batches(spec, batch):
    """Yield every hard assignment allowed by ``spec`` as a ``(B, k)``
    int64 array of the flat indices (``assignment_index``) it selects.

    Candidates are streamed from ``itertools``, at most ``batch`` per
    array; ``k`` is fixed within an array.
    """
    n1, n2 = spec.n1, spec.n2
    if spec.row_mode is SideMode.EXACTLY_ONE:
        # Row i goes to column cols[i]; covers the square both-exact case.
        for cols in _index_rows(permutations(range(n2), n1), n1, batch):
            yield assignment_index(np.arange(n1), cols, n1)
    elif spec.col_mode is SideMode.EXACTLY_ONE:
        # Column j takes row rows[j].
        for rows in _index_rows(permutations(range(n1), n2), n2, batch):
            yield assignment_index(rows, np.arange(n2), n1)
    else:
        yield np.empty((1, 0), dtype=np.int64)  # nothing matched
        for k in range(1, min(n1, n2) + 1):
            # Each candidate is its k matched rows followed by their columns.
            pairs = chain.from_iterable(
                map(add, repeat(rows), permutations(range(n2), k))
                for rows in combinations(range(n1), k)
            )
            for both in _index_rows(pairs, 2 * k, batch):
                yield assignment_index(both[:, :k], both[:, k:], n1)


def _batch_energies(entries, x, gathered, factors):
    """``energy`` of each row of the 0/1 matrix ``x``, with the same
    operations in the same order, so every value is bit-identical.

    ``entries`` holds the ``(indices, values)`` of each potential that
    stores any.  ``gathered`` and ``factors`` are flat float buffers of at
    least ``x.shape[0]`` times the largest ``nnz`` entries, which the
    products are written into instead of new arrays."""
    # energy adds each tensor's float to an int 0.  The total is never
    # -0.0, so the 0.0 of an empty tensor can be skipped.
    total = np.zeros(x.shape[0])
    for indices, values in entries:
        size = x.shape[0] * values.size
        gather = gathered[:size].reshape(x.shape[0], values.size)
        factor = factors[:size].reshape(x.shape[0], values.size)
        # take keeps factor C-ordered, so each row is summed pairwise like
        # multilinear_form's 1-D sum (x[:, idx] would be F-ordered).  The
        # indices are in range; "clip" spares take a buffered copy of out.
        x.take(indices[:, 0], axis=1, out=gather, mode="clip")
        np.multiply(values, gather, out=factor)
        for m in range(1, indices.shape[1]):
            x.take(indices[:, m], axis=1, out=gather, mode="clip")
            factor *= gather
        total += factor.sum(axis=1)
    return total


def _candidate_count(spec):
    n1, n2 = spec.n1, spec.n2
    if spec.row_mode is SideMode.EXACTLY_ONE:
        return perm(n2, n1)
    if spec.col_mode is SideMode.EXACTLY_ONE:
        return perm(n1, n2)
    return sum(comb(n1, k) * comb(n2, k) * factorial(k) for k in range(min(n1, n2) + 1))


def brute_force_optimum(instance, limits=None):
    """Exact optimizer of the instance energy over all hard assignments.

    Returns ``(assignment_vector, energy)`` in the instance's native
    sense.  Ties are broken by the lexicographically smallest assignment
    vector.  Raises OracleRefusalError when the enumeration would exceed
    ``limits`` instead of silently truncating.  Candidates are scored in
    fixed-size batches, each score bit-identical to ``energy``.
    """
    from .solver import Sense  # local import to avoid a module cycle

    if limits is None:
        limits = BruteForceLimits()
    spec = instance.spec
    if SideMode.EXACTLY_ONE not in (spec.row_mode, spec.col_mode):
        if max(spec.n1, spec.n2) > limits.max_occluded:
            raise OracleRefusalError(
                f"occlusion enumeration needs n1, n2 <= {limits.max_occluded}, "
                f"got {spec.n1} x {spec.n2}"
            )
    elif min(spec.n1, spec.n2) > limits.max_injective:
        raise OracleRefusalError(
            f"injective enumeration needs min(n1, n2) <= {limits.max_injective}, "
            f"got {spec.n1} x {spec.n2}"
        )
    count = _candidate_count(spec)
    if count > limits.max_candidates:
        raise OracleRefusalError(
            f"enumeration of {count} candidates exceeds the cap of "
            f"{limits.max_candidates}"
        )

    maximize = instance.sense is Sense.MAXIMIZE
    n = spec.n
    widest = max(n, max(tensor.nnz for tensor in instance.potentials))
    batch = max(1, _BATCH_FLOATS // widest)
    # Allocated once: a process whose allocator returns each freed batch
    # temporary to the system faults its pages in again on every batch.
    gathered, factors = np.empty(batch * widest), np.empty(batch * widest)
    # A tensor held as a dense array makes its entries on each access.
    entries = [(t.indices, t.values) for t in instance.potentials if t.nnz]
    best_score = best_vec = best_energy = None
    for selected in _candidate_batches(spec, batch):
        x = np.zeros((selected.shape[0], n))
        x[np.arange(selected.shape[0])[:, None], selected] = 1.0
        values = _batch_energies(entries, x, gathered, factors)
        scores = -values if maximize else values
        score = scores.min()
        tied = np.flatnonzero(scores == score)
        # lexsort's last key is the primary one: put entry 0 last.
        i = tied[np.lexsort(x[tied].T[::-1])[0]]
        if best_score is None or score < best_score or (
            score == best_score and tuple(x[i]) < tuple(best_vec)
        ):
            best_score, best_vec, best_energy = score, x[i].copy(), float(values[i])
    return best_vec, best_energy
