"""Sparse tensors over assignment vectors.

A matching problem between two point sets is scored by potentials of
increasing order: an order-1 tensor holds unary scores, an order-2 tensor
pairwise scores, an order-3 tensor triple scores, and so on.  Every mode of
such a tensor indexes the same flat space of candidate assignments, so all
modes share a single dimension ``dim``.

A tensor's entries are canonical by construction: indices sorted
lexicographically, duplicate indices merged by summation, exact zeros
dropped.  An order-2 tensor that stores at least half of its ``dim**2``
cells, such as a fully connected pairwise model's, is held as one
read-only ``(dim, dim)`` float64 array whose absent cells are zero; its
``indices`` and ``values`` are made from that array, in canonical order,
on each access.  Every other tensor is held in coordinate format, an
``(nnz, order)`` index array and a parallel value array.  Instances are
immutable: canonical input arrays that are read-only, own their memory and
are C-contiguous are kept as given, since nothing can write to them, and
any other input is copied.  A tensor built from another's arrays, such as
``symmetrize``'s of an order-1 tensor, shares them.

``partial_contraction`` takes one of three paths, each adding a row's
terms to +0.0 in the order of their closed indices.  A coordinate tensor
adds each entry's value times its closed-mode vector entries into its
open index with one ``np.bincount``, in canonical order, from one
contiguous copy of its index columns that every mode shares.  A
dense-held tensor's array is mode 2's operator, and mode 1's too when it
is symmetric; otherwise mode 1 keeps a contiguous copy of its transpose.
A work vector holding an inf or a NaN takes the entries instead, since
``0 * inf`` is NaN.  An exactly supersymmetric order-3 tensor caches one
half-size set of entries, grouped by closed column, that every mode
shares.  Its pull forms ``u (x) v + v (x) u`` only on the blocks'
support ``S``, the indices where either is nonzero, and applies a plan of
the entries in the columns of ``S x S``, cached for the last few supports.
Only the full support, which a solve's uniform start and non-finite blocks
take, forms the dense ``dim**2`` work vector, and it applies the whole
half operator, with no plan.
"""

from __future__ import annotations

import math
import operator
from itertools import permutations

import numpy as np

# Largest dim**2 for which a supersymmetric order-3 tensor takes the half
# operator, whose column pointers have dim**2 + 1 entries and whose pull
# forms a dense dim**2 work vector for the full support; beyond it the
# tensor is pulled through its entries.
_MATVEC_CAP = 1 << 20

# Supports whose half-operator pull plans a tensor keeps, the most recently
# used last.  A solve's late pulls mostly repeat a recent support.
_PLANS = 8

# Mixed-radix index keys run over [0, dim**order); np.ravel_multi_index makes
# them while dim**order fits intp.  Larger tensors sort their rows as rows.
_KEY_LIMIT = np.iinfo(np.intp).max

# Entries that a pass over a tensor's values reads at once where it walks
# them in chunks, so that its temporaries stay a fraction of the tensor.
_CHUNK = 1 << 15

# Entries, or cells of a dense order-2 array, that the multilinear form
# reads at once.  A cell read makes up to ~40 bytes of temporaries (its
# row, column, value or product).
_BLOCK = 1 << 12


class SparseTensor:
    """Immutable sparse tensor with ``order`` modes of common size ``dim``."""

    __slots__ = ("order", "dim", "nnz", "_indices", "_values", "_dense", "_contract_cache")

    def __init__(self, order, dim, indices=None, values=None):
        order = _checked_int("order", order)
        dim = _checked_int("dim", dim)
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        if dim < 0:
            raise ValueError(f"dim must be >= 0, got {dim}")

        if indices is None:
            indices = np.empty((0, order), dtype=np.int64)
        indices = np.asarray(indices)
        if indices.ndim != 2 or indices.shape[1] != order:
            raise ValueError(
                f"indices must have shape (nnz, {order}), got {indices.shape}"
            )
        if indices.dtype.kind not in "iu":
            with np.errstate(invalid="ignore"):
                cast = indices.astype(np.int64)
            changed = np.argwhere(cast != indices)
            if changed.size:
                entry, mode = changed[0]
                raise ValueError(
                    f"tensor indices must be integers, got {indices[entry, mode]} "
                    f"in entry {entry}"
                )
            indices = cast
        indices = indices.astype(np.int64, copy=False)
        if values is None:
            values = np.empty(0, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (indices.shape[0],):
            raise ValueError(
                f"values must have shape ({indices.shape[0]},), got {values.shape}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= dim):
            raise ValueError("tensor indices out of range [0, dim)")
        if values.size and not np.all(np.isfinite(values)):
            raise ValueError("tensor values must be finite")

        if order == 2 and 0 < dim * dim <= 2 * values.size:
            self._hold(2, dim, dense=_scattered(dim, indices, values))
        else:
            self._hold(order, dim, *_canonicalize(order, dim, indices, values))

    @classmethod
    def _from_dense(cls, dense):
        """The order-2 tensor whose entries are the nonzeros of the float64
        ``(dim, dim)`` array ``dense``, which it takes over: the caller
        keeps no reference to it.  Builders that score every index pair
        hand their entries over this way, with no index arrays and no
        canonicalization."""
        if not np.all(np.isfinite(dense)):
            raise ValueError("tensor values must be finite")
        tensor = object.__new__(cls)
        tensor._hold(2, dense.shape[0], dense=dense)
        return tensor

    def _hold(self, order, dim, indices=None, values=None, dense=None):
        """Keep the canonical ``indices`` and ``values``, or the order-2
        ``(dim, dim)`` array ``dense`` of the entries, absent ones +-0.0.
        ``dense`` is held itself while at least half of it is stored, and
        is replaced by its entries otherwise.  Every array kept is made
        read-only."""
        if dense is None:
            nnz = values.shape[0]
        else:
            nnz = int(np.count_nonzero(dense))
            if 2 * nnz < dim * dim:
                indices, values = _dense_indices(dense), _dense_values(dense)
                dense = None
        for array in (indices, values, dense):
            if array is not None:
                array.flags.writeable = False
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "nnz", nnz)
        object.__setattr__(self, "_indices", indices)
        object.__setattr__(self, "_values", values)
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_contract_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("SparseTensor is immutable")

    @classmethod
    def empty(cls, order, dim):
        """Tensor with no stored entries."""
        return cls(order, dim)

    @classmethod
    def from_entries(cls, order, dim, entries):
        """Build from ``{index_tuple: value}`` or an iterable of pairs."""
        if isinstance(entries, dict):
            entries = entries.items()
        pairs = list(entries)
        if not pairs:
            return cls(order, dim)
        indices = np.array([idx for idx, _ in pairs], dtype=np.int64)
        if indices.ndim == 1:
            # Entries given as bare ints only make sense for order 1.
            indices = indices.reshape(-1, 1)
        values = np.array([v for _, v in pairs], dtype=np.float64)
        return cls(order, dim, indices, values)

    @property
    def indices(self):
        """The stored entries' index rows, an ``(nnz, order)`` int64 array in
        canonical order, read-only.  A tensor held as a dense array makes
        them anew on each access."""
        if self._dense is None:
            return self._indices
        return _dense_indices(self._dense)

    @property
    def values(self):
        """The stored entries' values, in canonical order, read-only.  A
        tensor held as a dense array makes them anew on each access."""
        if self._dense is None:
            return self._values
        return _dense_values(self._dense)

    def items(self):
        """Yield ``(index_tuple, value)`` in canonical (sorted) order."""
        for row, v in zip(self.indices, self.values):
            yield tuple(int(i) for i in row), float(v)

    def __eq__(self, other):
        if not isinstance(other, SparseTensor):
            return NotImplemented
        if (self.order, self.dim, self.nnz) != (other.order, other.dim, other.nnz):
            return False
        if self._dense is not None and other._dense is not None:
            return np.array_equal(self._dense, other._dense)
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self):
        return f"SparseTensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"

    def _entry_chunks(self, size):
        """The stored entries in canonical order, about ``size`` at a time
        (the cells of at least one row of a dense array), as ``(columns,
        values)``: one index array per mode, and the values."""
        if self._dense is not None:
            step = max(1, size // self.dim)
            for lo in range(0, self.dim, step):
                block = self._dense[lo : lo + step]
                present = block != 0.0
                rows, cols = present.nonzero()
                rows += lo
                yield [rows, cols], block[present]
            return
        for lo in range(0, self.nnz, size):
            part = slice(lo, lo + size)
            yield list(self._indices[part].T), self._values[part]

    # -- cached contraction helpers ------------------------------------

    def _dense_operator(self, open_mode):
        """The held array of a dense-held tensor as the operator of
        ``open_mode``: row = closed index, column = open index.

        Mode 2's operator is the array itself, and mode 1's its transpose:
        the array again when it is symmetric, else a contiguous copy (a
        strided view would take numpy's own loop, which rounds apart).
        """
        cache = self._contract_cache
        if open_mode not in cache:
            op = self._dense
            if open_mode == 1 and not np.array_equal(op, op.T):
                op = np.ascontiguousarray(op.T)
            cache[open_mode] = op
        return cache[open_mode]

    def _index_columns(self):
        """A coordinate tensor's index columns, one contiguous ``(order,
        nnz)`` array made on first use and shared by every mode's pull."""
        cache = self._contract_cache
        if "columns" not in cache:
            cache["columns"] = np.ascontiguousarray(self._indices.T)
        return cache["columns"]

    def _half_operator(self):
        """The entries every mode's pull of a supersymmetric order-3 tensor
        reads, grouped by column, or None for any other tensor.

        Only the entries ``T[a, b, c]`` with ``b <= c`` are kept, those with
        ``b == c`` at half their value.  They come back as ``(starts, rows,
        values)``: the entries of column ``k = b * dim + c`` are
        ``starts[k]:starts[k + 1]``, with their rows ``a`` ascending.
        Applied to the symmetric ``u (x) v + v (x) u`` they sum
        ``T[a, b, c] u_b v_c`` over all ``(b, c)``, as a pull of every
        entry does.  Whether the tensor is exactly supersymmetric is
        checked on the first call and cached with the entries.
        """
        cache = self._contract_cache
        if "half" not in cache:
            cache["half"] = None
            fits = self.order == 3 and self.dim**2 <= _MATVEC_CAP
            if fits and _is_supersymmetric(self):
                cache["plans"] = {}
                cache["half"] = _half_entries(self)
        return cache["half"]

    def _support_plan(self, support):
        """The half operator's entries in the columns ``b * dim + c`` with
        ``b`` and ``c`` in ``support``, a sorted index array, as ``(rows,
        values, which)``: ``which`` is each entry's flat index into the
        row-major ``|support| x |support|`` grid of those columns.  Entries
        come in ascending column order, rows ascending inside a column.

        Plans of the last ``_PLANS`` supports are cached.  The full
        support's, which is the uniform start of a solve, is the operator's
        own ``rows`` and ``values`` and is not cached.
        """
        starts, rows, values = self._half_operator()
        m = support.size
        if m == self.dim:
            # Every column in order: the plan is the whole operator.
            return rows, values, np.repeat(np.arange(m * m), np.diff(starts))
        plans = self._contract_cache["plans"]
        key = support.tobytes()
        plan = plans.pop(key, None)
        if plan is None:
            # Columns with b > c hold no entries, so the whole grid is taken.
            cols = (support[:, None] * self.dim + support).ravel()
            first = starts[cols]
            lens = starts[cols + 1] - first
            # The columns' entries, one column's run after another.
            offsets = np.repeat(first - np.cumsum(lens) + lens, lens)
            picked = np.arange(offsets.size) + offsets
            plan = rows[picked], values[picked], np.repeat(np.arange(m * m), lens)
            if len(plans) == _PLANS:
                del plans[next(iter(plans))]
        plans[key] = plan
        return plan


def _canonicalize(order, dim, indices, values):
    """Sort lexicographically, merge duplicate indices, drop exact zeros.

    Rows already sorted and distinct, as in every tensor file this package
    writes and every order-3 tensor ``build_third_order`` builds, skip the
    sort; ``_ascending`` finds them a chunk of keys at a time.  When none
    of their values is zero, arrays that are read-only, own their memory
    and are C-contiguous are stored as given, since nothing can write to
    them; other arrays are copied.

    Other rows are sorted by their int64 keys with ``_sorted_runs``.  When
    they are distinct they are only permuted; when some repeat,
    ``np.bincount`` merges each run, adding its values in input order, so
    the bits do not depend on how the sort orders equal keys.
    Both give the bits of merging every row: a lone row's merged value is
    ``0.0 + v``, which is ``v``, or ``+0.0`` and dropped when ``v`` is
    ``-0.0``.  A merged sum that overflows is refused.
    """
    if indices.shape[0] == 0:
        return indices.copy(), values.copy()
    if order == 0:
        with np.errstate(over="ignore"):
            total = float(_finite_sums(values.sum()))
        if total == 0.0:
            return np.empty((0, 0), dtype=np.int64), np.empty(0, dtype=np.float64)
        return np.empty((1, 0), dtype=np.int64), np.array([total])
    ascending, key = _ascending(order, dim, indices)
    if ascending:
        keep = values != 0.0
        if keep.all():
            return _stored(indices), _stored(values)
        return indices[keep], values[keep]
    runs = None if key is None else _sorted_runs(key)
    del key
    if runs is not None and runs[1].all():
        # Distinct rows: the sort's permutation is the whole work.
        rows, merged = indices.take(runs[0], axis=0), values.take(runs[0])
    else:
        rows, inverse = _unique_rows(order, dim, indices, runs)
        merged = _finite_sums(np.bincount(inverse, weights=values, minlength=rows.shape[0]))
    if not merged.all():
        keep = merged != 0.0
        rows, merged = rows[keep], merged[keep]
    return rows, merged


def _ascending(order, dim, indices):
    """Whether the index rows ascend strictly, and, when they do not, the
    int64 keys of all of them for the sort (None where ``dim**order`` does
    not fit int64).

    The keys are compared a chunk at a time, each chunk against the last
    key of the one before, so no key array of all rows is made for rows
    that ascend.  Rows that fit one chunk are keyed once either way."""
    if dim**order > _KEY_LIMIT:
        return False, None
    nnz, last = indices.shape[0], -1
    for lo in range(0, nnz, _CHUNK):
        key = _row_keys(order, dim, indices[lo : lo + _CHUNK])
        if key[0] <= last or not np.all(key[1:] > key[:-1]):
            return False, key if key.size == nnz else _row_keys(order, dim, indices)
        last = key[-1]
    return True, None


def _stored(array):
    """``array`` itself when nothing else can write to it: it is read-only,
    owns its memory (no writable base behind it) and is C-contiguous.
    Any other array is copied."""
    flags = array.flags
    if flags.owndata and not flags.writeable and flags.c_contiguous:
        return array
    return array.copy()


def _scattered(dim, indices, values):
    """The ``(dim, dim)`` array of the order-2 entries ``indices`` and
    ``values``: each cell the sum of its entries' values, added in input
    order to +0.0 as ``_canonicalize``'s merge adds them, or +-0.0.

    The values are first written as they are.  Only where an index pair
    repeats can the cells hold fewer nonzeros than the values do, since a
    later write replaces an earlier one; then the cells are summed anew,
    and a sum that overflows is refused."""
    dense = np.zeros((dim, dim))
    for lo in range(0, values.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        dense[indices[part, 0], indices[part, 1]] = values[part]
    if np.count_nonzero(dense) != np.count_nonzero(values):
        dense.fill(0.0)
        with np.errstate(over="ignore"):
            np.add.at(dense, (indices[:, 0], indices[:, 1]), values)
        _finite_sums(dense)
    return dense


def _finite_sums(sums):
    """``sums``, the merged values of repeated index rows, when none of
    them overflowed; a ValueError otherwise."""
    if not np.all(np.isfinite(sums)):
        raise ValueError("tensor values must be finite: a sum of repeated entries overflows")
    return sums


def _dense_indices(dense):
    """The index rows of the nonzero cells of ``dense``, in row-major
    order, read-only."""
    flat = np.flatnonzero(dense != 0.0)
    indices = np.empty((flat.size, 2), dtype=np.int64)
    np.divmod(flat, dense.shape[1], out=(indices[:, 0], indices[:, 1]))
    indices.flags.writeable = False
    return indices


def _dense_values(dense):
    """The nonzero cells of ``dense``, in row-major order, read-only."""
    values = dense[dense != 0.0]
    values.flags.writeable = False
    return values


def _unique_rows(order, dim, indices, runs=None):
    """Distinct index rows in lexicographic order, and the position of each
    input row among them.

    Each row is encoded as the mixed-radix int64 key
    ``(i_1 * dim + i_2) * dim + ... + i_D``, whose numeric order is the
    lexicographic row order, so one 1-D sort (``_sorted_runs``) does the
    work, and the first row of each run of equal keys is taken as it is.
    Only when ``dim**order`` does not fit in int64 are the rows sorted as
    rows.  ``runs`` is the ``_sorted_runs`` of the rows' keys, when the
    caller has it already.
    """
    if runs is None:
        key = _row_keys(order, dim, indices)
        if key is None:
            rows, inverse = np.unique(indices, axis=0, return_inverse=True)
            return rows, inverse.ravel()
        runs = _sorted_runs(key)
    perm, first = runs
    rank = first.cumsum()
    rank -= 1
    inverse = np.empty_like(perm)
    inverse[perm] = rank
    return indices.take(perm[first], axis=0), inverse


def _sorted_runs(key):
    """The permutation that sorts the 1-D ``key``, and a mask of the sorted
    keys that differ from their predecessor, each the first of its run of
    equal keys.

    The sort is numpy's default quicksort, which is not stable: callers
    read only the runs, and which equal key comes first does not matter."""
    perm = key.argsort()
    key = key.take(perm)
    first = np.empty(key.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return perm, first


def _row_keys(order, dim, indices, modes=None):
    """Mixed-radix int64 key of every index row, reading the row's modes in
    the order ``modes`` (all, in order, by default), or None when
    ``dim**order`` exceeds the largest intp."""
    if dim**order > _KEY_LIMIT:
        return None
    columns = tuple(indices[:, m] for m in modes or range(order))
    return np.ravel_multi_index(columns, (dim,) * order)


def _is_supersymmetric(tensor):
    """Whether every permutation of the modes leaves the tensor unchanged,
    bit for bit.  Adjacent transpositions generate all permutations, so it
    checks that swapping modes m and m+1 maps the stored index rows onto
    themselves and every value onto an equal one: the stored rows are
    sorted and distinct, so sorting the swapped rows must give them back.

    Each swapped row's int64 key is packed with its row number as ``key *
    nnz + row`` and the packed keys are sorted in place: the sorted keys
    and the rows they came from, read back a chunk at a time, must be the
    stored keys and values.  Where ``dim**order * nnz`` does not fit int64
    it returns False; every tensor _half_operator checks fits, as ``dim <=
    1024`` keeps the packed keys below ``2**60``."""
    order, dim, nnz = tensor.order, tensor.dim, tensor.nnz
    if order > 1 and dim**order * nnz > _KEY_LIMIT:
        return False
    indices, values = tensor.indices, tensor.values
    for m in range(order - 1):
        modes = list(range(order))
        modes[m : m + 2] = m + 1, m
        packed = _row_keys(order, dim, indices, modes)
        packed *= nnz
        for lo in range(0, nnz, _CHUNK):
            packed[lo : lo + _CHUNK] += np.arange(lo, min(lo + _CHUNK, nnz))
        packed.sort()
        for lo in range(0, nnz, _CHUNK):
            keys, rows = np.divmod(packed[lo : lo + _CHUNK], nnz)
            stored = slice(lo, lo + keys.size)
            if not (
                np.array_equal(keys, _row_keys(order, dim, indices[stored]))
                and np.array_equal(values.take(rows), values[stored])
            ):
                return False
        # Freed before the next swap's keys are made.
        del packed
    return True


def _half_entries(tensor):
    """The half operator's ``(starts, rows, values)`` of an exactly
    supersymmetric order-3 tensor (see ``SparseTensor._half_operator``).

    Its stored rows are closed under the cyclic shift of the modes, so a
    canonical row ``(x, y, z)`` also stores ``T[z, x, y]``, with the same
    value.  Read as ``(b, c, a)``, the rows with ``x <= y`` are the kept
    entries, already in column order with their rows ascending inside each
    column: no sort is needed.
    """
    dim = tensor.dim
    x, y, z = tensor.indices.T
    keep = x <= y
    x, y, values = x[keep], y[keep], tensor.values[keep]
    # In place, 0.5 * v has the bits of v * 0.5.
    np.multiply(values, 0.5, out=values, where=x == y)
    # The column keys replace x, which is freed before the bincount.
    x = np.ravel_multi_index((x, y), (dim, dim))
    starts = np.zeros(dim**2 + 1, dtype=np.intp)
    np.cumsum(np.bincount(x, minlength=dim**2), out=starts[1:])
    return starts, z[keep].astype(np.intp, copy=False), values


def multilinear_form(tensor, vectors):
    """Evaluate ``F(x_1, ..., x_D)``: contract every mode with a vector.

    ``vectors`` must hold exactly ``tensor.order`` arrays of length
    ``tensor.dim``.  Returns a float (0.0 for an empty tensor).
    """
    vectors = [np.asarray(v, dtype=np.float64) for v in vectors]
    if len(vectors) != tensor.order:
        raise ValueError(
            f"expected {tensor.order} vectors, got {len(vectors)}"
        )
    for v in vectors:
        if v.shape != (tensor.dim,):
            raise ValueError(f"vectors must have shape ({tensor.dim},)")
    if tensor.nnz == 0:
        return 0.0
    # Each entry's product (v * x_1) * x_2 ... is taken in mode order, a
    # block of entries at a time into one buffer, so only the buffer is
    # held; one sum adds the terms, in canonical order.
    factor, at = np.empty(tensor.nnz), 0
    for columns, values in tensor._entry_chunks(_BLOCK):
        part = factor[at : at + values.size]
        part[...] = values
        for v, index in zip(vectors, columns):
            part *= v[index]
        at += values.size
    return float(factor.sum())


def _checked_int(name, value):
    """``value`` as an int; a ValueError names it when it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _checked_mode(name, mode, order):
    """``mode`` as an int in ``[1, order]``; a ValueError names it otherwise."""
    mode = _checked_int(name, mode)
    if not 1 <= mode <= order:
        raise ValueError(f"{name} must be in [1, {order}], got {mode}")
    return mode


def mode_product(tensor, mode, vector):
    """Contract one mode with a vector, returning an order-1 lower tensor."""
    mode = _checked_mode("mode", mode, tensor.order)
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (tensor.dim,):
        raise ValueError(f"vector must have shape ({tensor.dim},)")
    new_values = tensor.values * vector[tensor.indices[:, mode - 1]]
    new_indices = np.delete(tensor.indices, mode - 1, axis=1)
    return SparseTensor(tensor.order - 1, tensor.dim, new_indices, new_values)


def partial_contraction(tensor, open_mode, left, right):
    """Contract every mode except ``open_mode`` with the given vectors.

    ``left`` holds vectors for modes ``1 .. open_mode-1`` and ``right`` for
    modes ``open_mode+1 .. order``, each of length ``dim``.  Returns the
    dense length-``dim`` result: for each index ``a`` along the open mode,
    the sum of ``value * prod(closed-mode vector entries)`` over stored
    entries whose open-mode index is ``a``.
    """
    open_mode = _checked_mode("open_mode", open_mode, tensor.order)
    left, right = list(left), list(right)
    if len(left) != open_mode - 1:
        raise ValueError(f"expected {open_mode - 1} left vectors, got {len(left)}")
    if len(right) != tensor.order - open_mode:
        raise ValueError(
            f"expected {tensor.order - open_mode} right vectors, got {len(right)}"
        )
    closed = []
    for v in left + right:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (tensor.dim,):
            raise ValueError(f"vectors must have shape ({tensor.dim},)")
        closed.append(v)
    if tensor.nnz == 0:
        return np.zeros(tensor.dim)

    if tensor._half_operator() is not None:
        u, v = closed
        stack = np.concatenate((u, v)).reshape(2, tensor.dim)
        # Outside S x S, for the support S of the two blocks, u (x) v + v (x) u
        # is exactly zero, and a zero term only adds +-0.0 to a row sum that
        # starts at +0.0, which leaves it unchanged.  An inf or NaN block
        # breaks that (inf * 0 is NaN), and so takes the full support; an
        # overflowing sum only sends finite blocks there too.
        if math.isfinite(stack.sum()):
            support = np.logical_or(u, v).nonzero()[0]
        else:
            support = np.arange(tensor.dim)
        # The full product's BLAS kernel on S x S gives the same bits.  Both
        # operands are contiguous: one with a non-unit stride would take
        # numpy's own loop instead, which rounds the two products apart.
        pair = stack.take(support, axis=1)
        work = pair.T @ pair[::-1].copy()
        rows, values, which = tensor._support_plan(support)
        # The plan adds each row's terms in ascending column order, as the
        # row-major product does: bit-identical to applying every entry.
        terms = work.ravel().take(which)
        terms *= values
        # bincount gives int64 zeros when no term is left.
        pull = np.bincount(rows, weights=terms, minlength=tensor.dim)
        return pull.astype(np.float64, copy=False)

    if tensor._dense is not None:
        work = np.ascontiguousarray(closed[0])
        if math.isfinite(work.sum()):
            # A zero entry of the work, like an absent (+-0.0) cell, adds
            # only +-0.0 terms to sums that start at +0.0, which leaves them
            # unchanged, so its row of the operator is skipped.  This
            # einsum's kernel adds each product, unfused, into the zeroed
            # output, the rows in order.
            nonzero = work.nonzero()[0]
            if nonzero.size == 0:
                return np.zeros(tensor.dim)
            op = tensor._dense_operator(open_mode)
            if 2 * nonzero.size < work.size:
                op, work = op.take(nonzero, axis=0), work.take(nonzero)
            return np.einsum("ka,k->a", op, work)
        # 0 * inf is NaN: only the stored entries may meet the work.
        columns, values = tensor.indices.T, tensor.values
    else:
        columns, values = tensor._index_columns(), tensor._values
    # Each entry's term is its value times the product of its closed-mode
    # vector entries, taken in mode order.  Read at one open index, the
    # canonical order is the lexicographic order of the closed indices, so
    # every row adds its terms to +0.0 in that order.
    modes = [m for m in range(tensor.order) if m != open_mode - 1]
    terms = values
    if closed:
        work = closed[0].take(columns[modes[0]])
        for v, m in zip(closed[1:], modes[1:]):
            work *= v.take(columns[m])
        terms = np.multiply(values, work, out=work)
    return np.bincount(columns[open_mode - 1], weights=terms, minlength=tensor.dim)


def symmetrize(tensor):
    """Average the tensor over all permutations of its modes.

    Index rows that are permutations of one another form an orbit.  Each
    orbit's values are summed once, and every distinct permutation of its
    row gets ``sum / (number of distinct permutations)``: the average of
    the ``order!`` permuted copies, given to all of them as the same float,
    so the result is exactly symmetric.  The multilinear form is unchanged
    when all argument vectors are equal.
    """
    order, dim = tensor.order, tensor.dim
    if order <= 1 or tensor.nnz == 0:
        return SparseTensor(order, dim, tensor.indices, tensor.values)
    orbits, inverse = _unique_rows(order, dim, np.sort(tensor.indices, axis=1))
    mass = np.bincount(inverse, weights=tensor.values, minlength=orbits.shape[0])
    perms = list(permutations(range(order)))
    copies = np.concatenate([orbits[:, perm] for perm in perms], axis=0)
    rows, inverse = _unique_rows(order, dim, copies)
    owner = np.empty(rows.shape[0], dtype=np.int64)
    owner[inverse] = np.tile(np.arange(orbits.shape[0]), len(perms))
    size = np.bincount(owner, minlength=orbits.shape[0])
    return SparseTensor(order, dim, rows, (mass / size)[owner])
