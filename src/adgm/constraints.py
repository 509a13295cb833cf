"""Matching polytopes, simplex projections, and feasibility checks.

An assignment between ``n1`` source points and ``n2`` target points is a
vector ``x`` of length ``n1 * n2`` laid out column-major: the candidate
pairing source ``i1`` with target ``i2`` lives at ``a = i2 * n1 + i1``.
Viewed as the ``n1 x n2`` matrix ``X`` with ``X[i1, i2] = x[a]``, each side
of the matching constrains its own sums: every row (source point) and every
column (target point) is matched either exactly once or at most once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Tolerance used by feasibility checks.
FEASIBILITY_TOL = 1e-9

# Rows whose largest entry reaches this in magnitude are projected again
# after subtracting it: beyond it, the partial sums of large, close entries
# round by more than the sum's tolerance.  The rows a solve projects on the
# shipped models stay below it.
_EXACT_LIMIT = 2.0**12

# The arrays of _ranks, by row count and row length.
_RANKS = {}


class TextEnum(Enum):
    """An enum read from text by its values, which are lower-case words
    joined by ``-``."""

    @classmethod
    def parse(cls, text):
        """The member spelled ``text``, ignoring case, surrounding blanks
        and ``_`` for ``-``.  Anything else raises ValueError naming the
        enum: ``SideMode`` says ``unknown side mode 'x'``."""
        try:
            return cls(str(text).strip().lower().replace("_", "-"))
        except ValueError:
            noun = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
            raise ValueError(f"unknown {noun} {text!r}") from None


class SideMode(TextEnum):
    """How one side of the matching constrains its sums."""

    EXACTLY_ONE = "exactly-one"
    AT_MOST_ONE = "at-most-one"


class SimplexMode(Enum):
    """Which scaled-simplex variant a vector is projected onto."""

    SUM_EQUALS_ONE = "sum-equals-one"
    SUM_AT_MOST_ONE = "sum-at-most-one"


@dataclass(frozen=True)
class ConstraintSpec:
    """Constraint modes for the two sides of an ``n1 x n2`` matching."""

    n1: int
    n2: int
    row_mode: SideMode = SideMode.EXACTLY_ONE
    col_mode: SideMode = SideMode.EXACTLY_ONE

    def __post_init__(self):
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("n1 and n2 must be >= 1")
        # A side matched exactly once needs enough partners on the other side.
        if self.row_mode is SideMode.EXACTLY_ONE and self.n1 > self.n2:
            raise ValueError(
                f"every row matched exactly once needs n1 <= n2, got {self.n1} x {self.n2}"
            )
        if self.col_mode is SideMode.EXACTLY_ONE and self.n2 > self.n1:
            raise ValueError(
                f"every column matched exactly once needs n2 <= n1, got {self.n1} x {self.n2}"
            )

    @property
    def n(self):
        """Length of the flat assignment vector."""
        return self.n1 * self.n2

    @classmethod
    def injective(cls, n1, n2):
        """Every point on the smaller side matched once, the larger side
        at most once (both exactly once when the sides are equal)."""
        exact, at_most = SideMode.EXACTLY_ONE, SideMode.AT_MOST_ONE
        return cls(n1, n2, exact if n1 <= n2 else at_most, exact if n2 <= n1 else at_most)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    max_violation: float


def assignment_index(i1, i2, n1):
    """Flat index of the candidate pairing source ``i1`` with target ``i2``.

    Accepts scalars or arrays.
    """
    return np.asarray(i2) * n1 + np.asarray(i1)


def as_matrix(x, n1, n2):
    """View the flat assignment vector as its ``n1 x n2`` matrix."""
    return np.asarray(x, dtype=np.float64).reshape((n1, n2), order="F")


def as_vector(matrix):
    """Flatten an ``n1 x n2`` assignment matrix back to its vector."""
    return np.asarray(matrix, dtype=np.float64).ravel(order="F")


def project_simplex(v, mode):
    """Euclidean projection of a vector onto the chosen simplex variant.

    SUM_EQUALS_ONE:  {x >= 0, sum(x) = 1}
    SUM_AT_MOST_ONE: {x >= 0, sum(x) <= 1}
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("cannot project an empty vector")
    return _project_rows(v[None, :], mode is SimplexMode.SUM_EQUALS_ONE)[0]


def _project_rows(rows, exact):
    """Project each row of a 2-D float64 array onto {x >= 0, sum(x) = 1}
    when ``exact``, else onto {x >= 0, sum(x) <= 1}."""
    if exact:
        return _project_rows_equality(rows)
    # A clipped row that sums to at most 1 is its own projection; only the
    # others go through the equality projection.  Rows are independent.
    clipped = np.maximum(rows, 0.0)
    inside = clipped.sum(axis=1) <= 1.0
    if not inside.all():
        over = ~inside
        clipped[over] = _project_rows_equality(rows[over])
    return clipped


def _project_rows_equality(rows):
    """Row-wise projection onto {x >= 0, sum(x) = 1} by sort and threshold.

    Where a row's largest entry is large in magnitude, its partial sums
    round before the 1 is taken off them: ``[1e15 + 0.125, 1e15]`` summed
    to 1.125, and from 2**53 on the 1 is lost altogether, so the threshold
    finds no support, or one a unit off (``[1.26e16, 2.7e15, 8.7e15]`` gave
    ``[2, 0, 0]``).  Rows whose largest entry is ``_EXACT_LIMIT`` or more
    in magnitude are projected again after subtracting their maximum,
    which does not move the projection."""
    out, top = _sort_threshold(rows)
    if np.abs(top).max() >= _EXACT_LIMIT:
        huge = np.abs(top) >= _EXACT_LIMIT
        out[huge] = _sort_threshold(rows[huge] + top[huge, None])[0]
    return out


def _sort_threshold(rows):
    """``max(row - theta, 0)`` for each row, with theta ``(csum_k - 1) / k``
    for the largest k whose k-th largest entry exceeds it (Duchi et al.,
    2008), and the negated row maxima.

    It sorts the negated rows ascending, so every quantity is the negative
    of the textbook one: ``-csum_k`` exactly, and ``-theta`` up to the sign
    of a zero, which the final clip to ``+0.0`` erases."""
    sizes, starts = _ranks(*rows.shape)
    low = np.negative(rows, order="C")
    low.sort(axis=1)
    tau = low.cumsum(axis=1)
    tau += 1.0
    tau /= sizes
    # The support, where -low_k > -tau_k, is a prefix of each sorted row.
    k = (low < tau).sum(axis=1)
    k += starts
    out = rows + tau.take(k)[:, None]
    np.maximum(out, 0.0, out=out)
    return out, low[:, 0]


def _ranks(r, m):
    """For ``r`` rows of length ``m``: the support sizes ``1..m`` as floats,
    and the flat index of each row's first entry less 1.  Built once per
    shape and read-only: a solve meets only its matrix, the transpose and
    the row subsets an at-most-one side projects."""
    ranks = _RANKS.get((r, m))
    if ranks is None:
        ranks = (np.arange(1, m + 1, dtype=np.float64), np.arange(-1, r * m - 1, m))
        for a in ranks:
            a.flags.writeable = False
        _RANKS[r, m] = ranks
    return ranks


def project_rowwise(x, spec):
    """Project each row of the assignment matrix per the row constraint."""
    matrix = as_matrix(x, spec.n1, spec.n2)
    return as_vector(_project_rows(matrix, spec.row_mode is SideMode.EXACTLY_ONE))


def project_colwise(x, spec):
    """Project each column of the assignment matrix per the column constraint."""
    matrix = as_matrix(x, spec.n1, spec.n2)
    return as_vector(_project_rows(matrix.T, spec.col_mode is SideMode.EXACTLY_ONE).T)


def feasibility(x, spec, hard=False, tol=FEASIBILITY_TOL):
    """Check membership of ``x`` in the matching polytope of ``spec``.

    With ``hard=True`` additionally require every entry to be 0 or 1.
    Returns a FeasibilityReport with the largest constraint violation.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.n,):
        raise ValueError(f"x must have shape ({spec.n},), got {x.shape}")
    matrix = as_matrix(x, spec.n1, spec.n2)

    violation = max(float(np.max(-x, initial=0.0)), float(np.max(x - 1.0, initial=0.0)))
    for sums, mode in ((matrix.sum(axis=1), spec.row_mode), (matrix.sum(axis=0), spec.col_mode)):
        if mode is SideMode.EXACTLY_ONE:
            violation = max(violation, float(np.max(np.abs(sums - 1.0))))
        else:
            violation = max(violation, float(np.max(sums - 1.0, initial=0.0)))
    if hard:
        violation = max(violation, float(np.min(np.abs(np.stack([x, x - 1.0])), axis=0).max()))
    return FeasibilityReport(feasible=violation <= tol, max_violation=violation)
