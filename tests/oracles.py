"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense tensors, generic convex
solvers, finite differences, and exhaustive enumeration.  The point is
that these routines share no code (and no algorithmic shortcuts) with
the implementations under test.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize

from adgm.constraints import SideMode
from adgm.solver import Sense, Variant
from adgm.tensor import partial_contraction


# -- dense tensor algebra ----------------------------------------------


def dense_tensor(sparse):
    """Materialize a sparse tensor as a dense ndarray (order 0 -> scalar)."""
    if sparse.order == 0:
        return float(sparse.values.sum()) if sparse.nnz else 0.0
    out = np.zeros((sparse.dim,) * sparse.order)
    if sparse.nnz:
        np.add.at(out, tuple(sparse.indices.T), sparse.values)
    return out


def dense_multilinear_form(dense, vectors):
    """F(v_1, ..., v_k) by contracting one mode at a time."""
    result = np.asarray(dense, dtype=np.float64)
    for vector in vectors:
        result = np.tensordot(result, np.asarray(vector, dtype=np.float64), axes=([0], [0]))
    return float(result)


def dense_mode_product(dense, mode, vector):
    """Contract a single mode against a vector; result drops that mode."""
    return np.tensordot(np.asarray(dense, dtype=np.float64), np.asarray(vector, dtype=np.float64), axes=([mode], [0]))


def dense_partial_contraction(dense, open_mode, left, right):
    """Contract every mode except ``open_mode``: modes before it against
    ``left`` (in order), modes after it against ``right``."""
    result = np.asarray(dense, dtype=np.float64)
    # Contract trailing modes first so earlier mode numbers stay valid.
    for vector in reversed(right):
        result = dense_mode_product(result, result.ndim - 1, vector)
    for vector in left:
        result = dense_mode_product(result, 0, vector)
    return result


def per_mode_partial_contraction(tensor, open_mode, left, right):
    """``partial_contraction`` through the open mode's own CSR operator:
    rows along the open mode, columns the mixed-radix combination of the
    closed modes, applied to their outer product (the one entry 1.0 for an
    order-1 tensor).  No symmetry shortcut."""
    closed = [m for m in range(tensor.order) if m != open_mode - 1]
    cols = np.zeros(tensor.nnz, dtype=np.int64)
    for m in closed:
        cols = cols * tensor.dim + tensor.indices[:, m]
    op = sparse.csr_matrix(
        (tensor.values, (tensor.indices[:, open_mode - 1], cols)),
        shape=(tensor.dim, tensor.dim ** len(closed)),
    )
    vectors = [np.asarray(v, dtype=np.float64) for v in list(left) + list(right)]
    work = vectors[0] if vectors else np.ones(1)
    for v in vectors[1:]:
        work = np.multiply.outer(work, v)
    return op @ work.ravel()


def half_operator_partial_contraction(tensor, left, right):
    """Any mode's pull of an exactly supersymmetric order-3 tensor through
    one row-major CSR matrix of its entries with ``b <= c`` (those with
    ``b == c`` at half their value): row ``a``, column ``b * dim + c``,
    applied to the whole ``u (x) v + v (x) u`` in one sparse product.
    Nothing is skipped, so every row sums all of its terms in column
    order."""
    u, v = [np.asarray(x, dtype=np.float64) for x in list(left) + list(right)]
    a, b, c = tensor.indices.T
    keep = b <= c
    values = np.where(b == c, 0.5 * tensor.values, tensor.values)[keep]
    op = sparse.csr_matrix(
        (values, (a[keep], b[keep] * tensor.dim + c[keep])),
        shape=(tensor.dim, tensor.dim**2),
    )
    return op @ (np.column_stack((u, v)) @ np.vstack((v, u))).ravel()


def gather_partial_contraction(tensor, open_mode, left, right):
    """``partial_contraction`` entry by entry: gather each entry's
    closed-mode vector factors, multiply them into its value, and
    scatter-add the products along the open mode.  No operator."""
    closed = iter(np.asarray(v, dtype=np.float64) for v in list(left) + list(right))
    factor = tensor.values.copy()
    for m in range(tensor.order):
        if m != open_mode - 1:
            factor *= next(closed)[tensor.indices[:, m]]
    return np.bincount(
        tensor.indices[:, open_mode - 1], weights=factor, minlength=tensor.dim
    )


def argsort_is_supersymmetric(tensor):
    """The symmetry check by argsort: for each swap of adjacent modes, the
    swapped rows' keys, put in order by an argsort permutation, must be
    the stored rows' keys, and that permutation must carry every stored
    value onto an equal one.  A row's key is its row-major ravelled index
    into the dense ``dim**order`` grid."""
    order, dim = tensor.order, tensor.dim
    if order < 2:
        return True
    shape = (dim,) * order
    columns = list(tensor.indices.T)
    keys = np.ravel_multi_index(columns, shape)
    for m in range(order - 1):
        swapped_columns = list(columns)
        swapped_columns[m : m + 2] = columns[m + 1], columns[m]
        swapped = np.ravel_multi_index(swapped_columns, shape)
        perm = np.argsort(swapped)
        if not (
            np.array_equal(swapped[perm], keys)
            and np.array_equal(tensor.values[perm], tensor.values)
        ):
            return False
    return True


def dense_symmetrize(dense):
    """Average of a dense tensor over every permutation of its axes."""
    perms = list(itertools.permutations(range(dense.ndim)))
    return sum(np.transpose(dense, perm) for perm in perms) / len(perms)


# -- canonical form and text of sparse tensors ---------------------------


def rowwise_canonicalize(order, indices, values):
    """Canonical coordinate form by sorting index rows as rows
    (``np.unique(axis=0)``): lexicographic order, duplicate rows summed in
    input order, exact zeros dropped."""
    values = np.asarray(values, dtype=np.float64)
    indices = np.asarray(indices, dtype=np.int64).reshape(values.size, order)
    if indices.shape[0] == 0:
        return indices.copy(), values.copy()
    uniq, inverse = np.unique(indices, axis=0, return_inverse=True)
    merged = np.bincount(inverse.ravel(), weights=values, minlength=uniq.shape[0])
    keep = merged != 0.0
    return uniq[keep], merged[keep]


class CooTensor:
    """A tensor kept in coordinate form, made by ``rowwise_canonicalize``
    from any entries: the reference that a tensor held as a dense array is
    compared with.  It has the attributes the reference routines here read
    (``order``, ``dim``, ``nnz``, ``indices``, ``values``, ``items``)."""

    def __init__(self, order, dim, indices, values):
        self.order, self.dim = order, dim
        self.indices, self.values = rowwise_canonicalize(order, indices, values)

    @property
    def nnz(self):
        return self.values.size

    def items(self):
        for row, v in zip(self.indices.tolist(), self.values.tolist()):
            yield tuple(row), v

    def form(self, vectors):
        """The multilinear form: each entry's value times its vector
        entries, in mode order, summed in canonical order by one sum."""
        if self.nnz == 0:
            return 0.0
        terms = self.values.copy()
        for m, v in enumerate(vectors):
            terms *= np.asarray(v, dtype=np.float64)[self.indices[:, m]]
        return float(terms.sum())

    def minimized(self, v_max):
        """``to_minimization``'s tensor: ``v_max - v`` at every stored
        entry, those that become zero dropped."""
        return CooTensor(self.order, self.dim, self.indices, v_max - self.values)


def linewise_tensor_lines(tensor):
    """Tensor section text, formatted one entry at a time with ``str`` and
    ``repr``."""
    lines = [f"order {tensor.order} dim {tensor.dim}"]
    for idx, value in tensor.items():
        lines.append(" ".join(str(i) for i in idx) + f" {float(value)!r}")
    return lines


def linewise_read_tensor(text):
    """Parse tensor section text one line at a time with ``int`` and
    ``float``; returns ``(order, dim, indices, values)`` in canonical form."""
    lines = [raw.split("#", 1)[0].strip() for raw in text.splitlines()]
    lines = [line for line in lines if line]
    head = lines[0].split()
    order, dim = int(head[1]), int(head[3])
    indices, values = [], []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != order + 1:
            raise ValueError(f"tensor entry needs {order} indices and a value")
        indices.append([int(p) for p in parts[:order]])
        values.append(float(parts[order]))
    return (order, dim) + rowwise_canonicalize(order, indices, values)


# -- simplex projections ------------------------------------------------


def kkt_simplex_projection(v, equality):
    """Euclidean projection of ``v`` onto {x >= 0, sum x = 1} (equality)
    or {x >= 0, sum x <= 1}, by searching over KKT active sets.

    The projection keeps a support set S with x_i = v_i - theta on S and
    x_i = 0 off S; theta solves the sum constraint.  Trying every support
    size and keeping the feasible candidate closest to ``v`` is exact.
    """
    v = np.asarray(v, dtype=np.float64)
    if not equality:
        clipped = np.maximum(v, 0.0)
        if clipped.sum() <= 1.0 + 1e-15:
            return clipped
    order = np.argsort(v)[::-1]
    best = None
    best_dist = np.inf
    for k in range(1, v.size + 1):
        support = order[:k]
        theta = (v[support].sum() - 1.0) / k
        x = np.zeros_like(v)
        x[support] = v[support] - theta
        if x[support].min() < -1e-12:
            continue
        x = np.maximum(x, 0.0)
        dist = float(np.sum((x - v) ** 2))
        if dist < best_dist - 1e-15:
            best_dist = dist
            best = x
    return best


def sort_threshold_reference(rows, equality):
    """Row-wise projection in the textbook sort-and-threshold form (Duchi
    et al., 2008), written as the package wrote it before its kernel cut
    numpy calls: the kernel must match it bit for bit on every row whose
    support count is at least 1.

    With ``equality`` false, a row whose clipped sum is at most 1 keeps the
    clipped row and any other row takes the equality projection.
    """
    rows = np.asarray(rows, dtype=np.float64)
    m = rows.shape[1]
    desc = -np.sort(-rows, axis=1)
    csum = np.cumsum(desc, axis=1)
    counts = np.arange(1, m + 1, dtype=np.float64)
    support = desc - (csum - 1.0) / counts > 0.0
    k = support.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        theta = (csum[np.arange(rows.shape[0]), k - 1] - 1.0) / k
    projected = np.maximum(rows - theta[:, None], 0.0)
    if equality:
        return projected
    clipped = np.maximum(rows, 0.0)
    inside = clipped.sum(axis=1) <= 1.0
    return np.where(inside[:, None], clipped, projected)


def slsqp_simplex_projection(v, equality):
    """Projection via a general-purpose constrained optimizer (slow,
    used only for spot checks of the KKT oracle itself)."""
    v = np.asarray(v, dtype=np.float64)
    kind = "eq" if equality else "ineq"
    sign = 1.0 if equality else -1.0
    result = minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        np.full_like(v, 1.0 / v.size),
        jac=lambda x: x - v,
        bounds=[(0.0, None)] * v.size,
        constraints=[{"type": kind, "fun": lambda x: sign * (np.sum(x) - 1.0)}],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-14},
    )
    return result.x


# -- augmented Lagrangian -----------------------------------------------


def constraint_gaps(blocks, variant):
    """The list of consensus gap vectors g_d, d = 2..D."""
    D = len(blocks)
    gaps = []
    for d in range(2, D + 1):
        if variant is Variant.ADGM1:
            gaps.append(blocks[0] - blocks[d - 1])
        else:
            gaps.append(blocks[d - 2] - blocks[d - 1])
    return gaps


def augmented_lagrangian(dense_potentials, blocks, multipliers, rho, variant):
    """L = sum_d F^d(x_1, ..., x_d) + sum_d <y_d, g_d> + rho/2 sum_d |g_d|^2

    with F^d the order-d potential evaluated on the first d blocks and
    g_d the variant's consensus gaps.
    """
    total = 0.0
    for d, dense in enumerate(dense_potentials, start=1):
        if np.ndim(dense) == 0:
            total += float(dense)
        else:
            total += dense_multilinear_form(dense, blocks[:d])
    for y, gap in zip(multipliers, constraint_gaps(blocks, variant)):
        total += float(np.dot(y, gap))
        total += 0.5 * rho * float(np.dot(gap, gap))
    return total


def lagrangian_block_gradient(dense_potentials, blocks, multipliers, rho, variant, d, step=1e-6):
    """Central-difference gradient of the augmented Lagrangian in block d
    (1-based), holding every other block fixed."""
    base = [np.array(b, dtype=np.float64) for b in blocks]
    n = base[d - 1].size
    grad = np.zeros(n)
    for j in range(n):
        plus = [b.copy() for b in base]
        minus = [b.copy() for b in base]
        plus[d - 1][j] += step
        minus[d - 1][j] -= step
        up = augmented_lagrangian(dense_potentials, plus, multipliers, rho, variant)
        down = augmented_lagrangian(dense_potentials, minus, multipliers, rho, variant)
        grad[j] = (up - down) / (2.0 * step)
    return grad


def quadratic_weight(variant, d, D):
    """Coefficient k_d of rho |x_d|^2 / 2 ... i.e. how many consensus terms
    involve block d under the given variant."""
    if variant is Variant.ADGM1:
        return D - 1 if d == 1 else 1
    return 1 if d in (1, D) else 2


def projection_target_oracle(dense_potentials, blocks, multipliers, rho, variant, d, step=1e-6):
    """The unconstrained minimizer of the block-d subproblem, recovered
    from the gradient: the subproblem is (rho k_d / 2)|x|^2 plus linear
    terms, so the minimizer is z - grad(z) / (rho k_d) for any point z."""
    z = np.asarray(blocks[d - 1], dtype=np.float64)
    grad = lagrangian_block_gradient(dense_potentials, blocks, multipliers, rho, variant, d, step)
    k = quadratic_weight(variant, d, len(blocks))
    return z - grad / (rho * k)


def stacked_residual(blocks, prev_blocks, variant):
    """Squared consensus gaps plus weighted squared block changes."""
    D = len(blocks)
    total = 0.0
    for gap in constraint_gaps(blocks, variant):
        total += float(np.dot(gap, gap))
    for d in range(1, D + 1):
        delta = blocks[d - 1] - prev_blocks[d - 1]
        if variant is Variant.ADGM1:
            weight = D - 1 if d == 1 else 1.0
        else:
            weight = 1.0 if d in (1, D) else 2.0
        total += weight * float(np.dot(delta, delta))
    return total


# -- per-variant ADMM step -----------------------------------------------
#
# The solver's step as it was written before a variant became a table of
# coupling pairs: one branch per variant and block position.  Potentials
# must be in minimization sense.  The tests require the table-driven step
# to reproduce these byte for byte.


def minimization_pull(instance, d, blocks):
    """Sum over orders i >= d of the order-i potential contracted down to
    mode d (the minimization-sense tensor pull)."""
    total = np.zeros(instance.n)
    for tensor in instance.potentials[d - 1 :]:
        if tensor.nnz == 0:
            continue
        total += partial_contraction(tensor, d, blocks[: d - 1], blocks[d : tensor.order])
    return total


def per_variant_projection_target(variant, d, state, instance):
    blocks = state.blocks
    D = len(blocks)
    rho = state.rho
    pull = minimization_pull(instance, d, blocks)
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


def per_variant_residual(state, variant):
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


def per_variant_update_multipliers(state, variant, rho):
    blocks = state.blocks
    D = len(blocks)
    for d in range(2, D + 1):
        if variant is Variant.ADGM1:
            gap = blocks[0] - blocks[d - 1]
        else:
            gap = blocks[d - 2] - blocks[d - 1]
        state.multipliers[d - 2] += rho * gap


class StoredCheckPenaltySchedule:
    """``adapt_penalty`` as it was written with the next check iteration
    stored, clamped up to ``t1`` and advanced by ``t2`` after each check.
    One instance follows one solver state; call it once per iteration."""

    def __init__(self):
        self.next_check_iter = 0

    def __call__(self, state, config, improvement_tol=1e-12):
        k = state.iteration
        if k < config.t1:
            return
        r = state.residual_history[-1]
        if r < state.best_residual_since_increase:
            state.best_residual_since_increase = r
        if self.next_check_iter < config.t1:
            self.next_check_iter = config.t1
        if k != self.next_check_iter:
            return
        stalled = (
            state.best_residual_since_increase
            >= state.best_at_prev_check - improvement_tol
        )
        if k > config.t1 and stalled:
            state.rho *= config.beta
            state.rho_increases.append(k)
            state.best_at_prev_check = state.best_residual_since_increase
            state.best_residual_since_increase = np.inf
        else:
            state.best_at_prev_check = state.best_residual_since_increase
        self.next_check_iter = k + config.t2


# -- exhaustive assignment search ---------------------------------------


def enumerate_assignment_matrices(n1, n2, row_mode, col_mode):
    """Yield every 0/1 matrix satisfying the side constraints (rows of the
    first kind, columns of the second).  Purely combinatorial; exponential."""
    row_options = []
    for i in range(n1):
        options = [np.eye(n2)[j] for j in range(n2)]
        if row_mode is not SideMode.EXACTLY_ONE:
            options = [np.zeros(n2)] + options
        row_options.append(options)
    for rows in itertools.product(*row_options):
        matrix = np.vstack(rows)
        sums = matrix.sum(axis=0)
        if col_mode is SideMode.EXACTLY_ONE and not np.all(sums == 1):
            continue
        if col_mode is SideMode.AT_MOST_ONE and not np.all(sums <= 1):
            continue
        yield matrix


def exhaustive_optimum(instance):
    """Best feasible hard assignment by direct enumeration, with the
    same lexicographic tie-break as the package oracle."""
    from adgm.constraints import as_vector
    from adgm.solver import energy

    best_key = None
    best = None
    for matrix in enumerate_assignment_matrices(
        instance.n1, instance.n2, instance.spec.row_mode, instance.spec.col_mode
    ):
        x = as_vector(matrix)
        value = energy(instance, x)
        score = -value if instance.sense is Sense.MAXIMIZE else value
        key = (score, tuple(int(round(e)) for e in x))
        if best_key is None or key < best_key:
            best_key = key
            best = (x, value)
    return best


def lp_feasible_maximum(profit, row_mode, col_mode):
    """Assignment-polytope LP bound used to sanity-check hungarian():
    the LP optimum of a totally unimodular polytope is integral, so it
    equals the best hard matching's profit."""
    n1, n2 = profit.shape
    n = n1 * n2
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for i in range(n1):
        row = np.zeros(n)
        for j in range(n2):
            row[j * n1 + i] = 1.0
        (a_eq if row_mode is SideMode.EXACTLY_ONE else a_ub).append(row)
        (b_eq if row_mode is SideMode.EXACTLY_ONE else b_ub).append(1.0)
    for j in range(n2):
        col = np.zeros(n)
        for i in range(n1):
            col[j * n1 + i] = 1.0
        (a_eq if col_mode is SideMode.EXACTLY_ONE else a_ub).append(col)
        (b_eq if col_mode is SideMode.EXACTLY_ONE else b_ub).append(1.0)
    cost = -profit.reshape(-1, order="F")
    result = linprog(
        cost,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=(0.0, 1.0),
        method="highs",
    )
    return -float(result.fun)
