import re
import tracemalloc
import warnings
from itertools import permutations

import numpy as np
import pytest

import oracles
from helpers import dense_reads, operator_builds, random_sparse_tensor

from adgm import io as io_module
from adgm import tensor as tensor_module
from adgm.io import tensor_to_lines
from adgm.harness import Transform, generate_synthetic
from adgm.models import build_third_order
from adgm.tensor import (
    SparseTensor,
    _is_supersymmetric,
    mode_product,
    multilinear_form,
    partial_contraction,
    symmetrize,
)


# -- construction and canonicalization ----------------------------------


def test_duplicates_merge_and_zeros_drop():
    t = SparseTensor(2, 3, [(0, 1), (0, 1), (2, 2), (1, 0)], [1.0, 2.0, 0.0, -4.0])
    assert t.nnz == 2
    assert dict(t.items()) == {(0, 1): 3.0, (1, 0): -4.0}


def test_canonicalization_is_idempotent():
    rng = np.random.default_rng(0)
    t = random_sparse_tensor(rng, 3, 4, nnz=25)
    again = SparseTensor(t.order, t.dim, t.indices, t.values)
    assert again == t
    assert np.array_equal(again.indices, t.indices)


def test_entries_cancelling_to_zero_are_dropped():
    t = SparseTensor(1, 2, [(0,), (0,)], [1.5, -1.5])
    assert t.nnz == 0


@pytest.mark.parametrize(
    "order, dim, indices, values",
    [
        (2, 3, [[0, 0], [1, 2], [0, 0]], [1e308, 1.0, 1e308]),
        (2, 2, [[0, 0], [0, 1], [1, 0], [0, 0]], [-1e308, 1.0, 2.0, -1e308]),
        (3, 3, [[0, 1, 2], [1, 1, 1], [0, 1, 2]], [1.5e308, 1.0, 0.5e308]),
        (0, 4, [[], []], [1e308, 1e308]),
    ],
    ids=["coordinate-order-2", "dense-held-order-2", "order-3", "order-0"],
)
def test_a_merged_sum_that_overflows_is_refused(order, dim, indices, values):
    # Each value is finite, but the repeated entries sum past the float range.
    indices = np.array(indices, dtype=np.int64).reshape(len(values), order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            SparseTensor(order, dim, indices, values)
    # One repeat less leaves a finite tensor, held as the rule says.
    t = SparseTensor(order, dim, indices[:-1], values[:-1])
    assert np.all(np.isfinite(t.values))
    assert (t._dense is not None) == (dim == 2)


def test_from_entries_accepts_dict_and_pairs():
    a = SparseTensor.from_entries(2, 3, {(0, 1): 2.0, (1, 2): -1.0})
    b = SparseTensor.from_entries(2, 3, [((0, 1), 2.0), ((1, 2), -1.0)])
    assert a == b


def test_empty_tensor():
    t = SparseTensor.empty(3, 5)
    assert t.nnz == 0
    assert multilinear_form(t, [np.ones(5)] * 3) == 0.0


def _assert_same_arrays(tensor, indices, values):
    assert tensor.indices.dtype == indices.dtype and tensor.indices.shape == indices.shape
    assert tensor.indices.tobytes() == indices.tobytes()
    assert tensor.values.dtype == values.dtype and tensor.values.shape == values.shape
    assert tensor.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_key_sort_matches_rowwise_reference(order):
    rng = np.random.default_rng(order)
    dim = 7
    indices = rng.integers(0, dim, size=(400, order))
    values = rng.normal(size=400)
    # Duplicates to merge, and one row whose entries cancel to zero.
    indices = np.concatenate([indices, indices[:50], indices[:1]])
    values = np.concatenate([values, rng.normal(size=50), [0.0]])
    values[np.all(indices == indices[0], axis=1)] = 0.0
    values[0], values[-1] = 1.5, -1.5
    perm = rng.permutation(values.size)
    tensor = SparseTensor(order, dim, indices[perm], values[perm])
    _assert_same_arrays(
        tensor, *oracles.rowwise_canonicalize(order, indices[perm], values[perm])
    )
    assert not np.any(np.all(tensor.indices == indices[0], axis=1))


def _sort_spies(monkeypatch):
    """Count the key sorts (``_sorted_runs``) and record the ``axis``
    argument of every ``np.unique`` call."""
    calls = {"key": 0, "unique": []}
    sorted_runs, unique = tensor_module._sorted_runs, np.unique

    def key_spy(key):
        calls["key"] += 1
        return sorted_runs(key)

    def unique_spy(*args, **kwargs):
        calls["unique"].append(kwargs.get("axis"))
        return unique(*args, **kwargs)

    monkeypatch.setattr(tensor_module, "_sorted_runs", key_spy)
    monkeypatch.setattr(np, "unique", unique_spy)
    return calls


# 2**65 overflows int64; (2**21 - 1)**3 is the largest order-3 key range
# np.ravel_multi_index takes, as (2**21)**3 = 2**63 exceeds the largest intp.
@pytest.mark.parametrize(
    "order, dim, row_sort",
    [(5, 1 << 13, True), (3, (1 << 21) - 1, False)],
    ids=["key-overflows-int64", "key-fills-int64"],
)
def test_key_range_selects_the_sort(monkeypatch, order, dim, row_sort):
    rng = np.random.default_rng(5)
    indices = rng.integers(dim - 4, dim, size=(300, order))
    indices[:100] = rng.integers(0, dim, size=(100, order))
    values = rng.normal(size=300)
    calls = _sort_spies(monkeypatch)
    tensor = SparseTensor(order, dim, indices, values)
    expected = {"key": 0, "unique": [0]} if row_sort else {"key": 1, "unique": []}
    assert calls == expected
    monkeypatch.undo()
    _assert_same_arrays(tensor, *oracles.rowwise_canonicalize(order, indices, values))


# A dim per order whose dim**order fits the int64 row keys, and one whose
# dim**order does not, so the rows are sorted as rows.
_KEY_DIMS = {1: 50, 2: 50, 3: 50, 4: 50}
_ROW_DIMS = {1: 1 << 64, 2: 1 << 32, 3: 1 << 22, 4: 1 << 16}


def _shuffled_rows(rng, order, dim, distinct):
    """400 shuffled index rows drawn from a pool of 150 distinct ones, all
    distinct when ``distinct``, with normal values."""
    high = min(dim, 1 << 62)
    pool = rng.integers(0, high, size=(150, order))
    pool[0] = high - 1
    pool = np.unique(pool, axis=0)
    rows = pool if distinct else pool[rng.integers(0, pool.shape[0], size=400)]
    rows = rows[rng.permutation(rows.shape[0])]
    return rows.astype(np.int64), rng.normal(size=rows.shape[0])


@pytest.mark.parametrize("path", ["key", "row"])
@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "repeated"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_sort_paths_match_the_rowwise_references(order, distinct, path):
    dim = (_KEY_DIMS if path == "key" else _ROW_DIMS)[order]
    assert (tensor_module._row_keys(order, dim, np.zeros((1, order), np.int64)) is None) == (
        path == "row"
    )
    rng = np.random.default_rng(10 * order + distinct)
    indices, values = _shuffled_rows(rng, order, dim, distinct)
    values[::7] = 0.0
    values[1::9] = -0.0
    before = indices.copy(), values.copy()
    got = tensor_module._canonicalize(order, dim, indices, values)
    for a, b in zip(got, oracles.rowwise_canonicalize(order, indices, values)):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    rows, inverse = tensor_module._unique_rows(order, dim, indices)
    expected_rows, expected_inverse = np.unique(indices, axis=0, return_inverse=True)
    assert rows.dtype == np.int64 and np.array_equal(rows, expected_rows)
    assert inverse.shape == (indices.shape[0],)
    assert np.array_equal(inverse, expected_inverse.ravel())
    assert indices.tobytes() == before[0].tobytes()
    assert values.tobytes() == before[1].tobytes()


@pytest.mark.parametrize("terms", list(permutations([1e16, 1.0, -1e16])))
def test_repeated_rows_add_their_values_in_input_order(terms):
    # Floating-point addition is not associative: the three terms sum to
    # 0.0 or 1.0 depending on their order, so a merge in any other order
    # than the input's changes the bits.
    rng = np.random.default_rng(3)
    others = rng.integers(0, 9, size=(60, 3))
    others = others[np.any(others != [4, 4, 4], axis=1)]
    indices = np.concatenate([others, [[4, 4, 4]] * 3])
    values = np.concatenate([rng.normal(size=others.shape[0]), terms])
    perm = rng.permutation(values.size)
    indices, values = indices[perm], values[perm]
    total = 0.0
    for term in values[np.all(indices == 4, axis=1)]:
        total += term
    tensor = SparseTensor(3, 9, indices, values)
    _assert_same_arrays(tensor, *oracles.rowwise_canonicalize(3, indices, values))
    at = np.all(tensor.indices == 4, axis=1)
    assert tensor.values[at].tolist() == ([total] if total else [])


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_eight_or_more_repeats_add_in_input_order(order):
    # numpy's pairwise sum adds eight or more terms in another order, and
    # gives 8.0 here; in input order the ones are lost and the sum is 0.0.
    values = np.array([1e16] + [1.0] * 8 + [-1e16])
    indices = np.ones((values.size, order), dtype=np.int64)
    tensor = SparseTensor(order, 3, indices, values)
    _assert_same_arrays(tensor, *oracles.rowwise_canonicalize(order, indices, values))
    assert tensor.nnz == 0


def test_signed_zeros_and_cancelling_pairs_are_dropped():
    indices = [[5, 1], [0, 2], [3, 3], [0, 2], [4, 0], [3, 3], [1, 1], [4, 0], [2, 2]]
    values = [-0.0, 2.5, 1.25, -2.5, 0.0, -1.25, 7.0, -0.0, 5e-324]
    tensor = SparseTensor(2, 6, indices, values)
    assert dict(tensor.items()) == {(1, 1): 7.0, (2, 2): 5e-324}
    _assert_same_arrays(tensor, *oracles.rowwise_canonicalize(2, indices, values))
    lone = SparseTensor(2, 6, [[5, 1], [0, 2]], [-0.0, 3.0])
    _assert_same_arrays(lone, np.array([[0, 2]]), np.array([3.0]))


def _traced_peak(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_canonicalizing_shuffled_rows_peaks_below_twice_their_bytes():
    rng = np.random.default_rng(4)
    dim, nnz = 150, 216_000
    keys = rng.choice(dim**3, size=nnz, replace=False)
    indices = np.stack(np.unravel_index(keys, (dim,) * 3), axis=1).astype(np.int64)
    values = rng.normal(size=nnz)
    tensor, peak = _traced_peak(lambda: SparseTensor(3, dim, indices, values))
    assert tensor.nnz == nnz
    assert peak < 2 * (indices.nbytes + values.nbytes)


def test_immutable():
    t = SparseTensor.from_entries(1, 2, {(0,): 1.0})
    with pytest.raises(AttributeError):
        t.dim = 5
    with pytest.raises(ValueError):
        t.values[0] = 2.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(order=-1, dim=2),
        dict(order=1, dim=-1),
        dict(order=2, dim=2, indices=[(0, 2)], values=[1.0]),  # index out of range
        dict(order=2, dim=2, indices=[(0,)], values=[1.0]),  # wrong arity
        dict(order=1, dim=2, indices=[(0,)], values=[np.nan]),
        dict(order=1, dim=2, indices=[(0,), (1,)], values=[1.0]),  # length mismatch
    ],
)
def test_construction_errors(kwargs):
    with pytest.raises(ValueError):
        SparseTensor(**kwargs)


@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
def test_a_dense_array_holding_a_non_finite_cell_is_refused(special):
    dense = np.zeros((3, 3))
    dense[1, 2] = special
    with pytest.raises(ValueError, match="tensor values must be finite"):
        SparseTensor._from_dense(dense)


@pytest.mark.parametrize("bad", [1.7, -0.5, 2.0**70, np.inf, np.nan])
def test_non_integral_indices_are_refused_by_name(bad):
    with pytest.raises(ValueError, match=re.escape(f"integers, got {bad} in entry 1")):
        SparseTensor(2, 3, [[0.0, 1.0], [2.0, bad]], [1.0, 2.0])


def test_integral_float_indices_are_taken_as_ints():
    t = SparseTensor(2, 3, np.array([[2.0, 0.0], [1.0, -0.0]]), [1.0, 2.0])
    _assert_same_arrays(t, *oracles.rowwise_canonicalize(2, [[2, 0], [1, 0]], [1.0, 2.0]))


@pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(3.0), "2", None])
def test_non_integer_order_and_dim_are_refused_by_name(bad):
    with pytest.raises(ValueError, match=re.escape(f"order must be an integer, got {bad!r}")):
        SparseTensor(bad, 3, [[0, 1]], [1.0])
    with pytest.raises(ValueError, match=re.escape(f"dim must be an integer, got {bad!r}")):
        SparseTensor(2, bad, [[0, 1]], [1.0])
    t = SparseTensor(np.int64(2), np.int64(3), [[0, 1]], [1.0])
    assert (type(t.order), type(t.dim)) == (int, int)
    assert (t.order, t.dim) == (2, 3)


@pytest.mark.parametrize("zeros", [False, True], ids=["no-zeros", "zeros"])
def test_canonical_input_skips_the_sort_bit_for_bit(monkeypatch, zeros):
    rng = np.random.default_rng(8)
    dim = 9
    keys = np.sort(rng.choice(dim**3, size=200, replace=False))
    indices = np.stack(np.unravel_index(keys, (dim,) * 3), axis=1).astype(np.int64)
    values = rng.normal(size=200)
    values[9], values[10] = 5e-324, -5e-324
    if zeros:
        values[[3, 50]] = 0.0
        values[[7, 120]] = -0.0
    before = indices.copy(), values.copy()
    expected = oracles.rowwise_canonicalize(3, indices, values)
    # Reversed rows are not canonical, so they take the sort.
    sorted_path = SparseTensor(3, dim, indices[::-1], values[::-1])

    def no_sort(*args):
        raise AssertionError("canonical input was sorted")

    monkeypatch.setattr(tensor_module, "_unique_rows", no_sort)
    tensor = SparseTensor(3, dim, indices, values)
    monkeypatch.undo()
    _assert_same_arrays(tensor, *expected)
    _assert_same_arrays(sorted_path, *expected)
    assert tensor.nnz == (196 if zeros else 200)
    assert not np.any(tensor.values == 0.0)
    # The caller's arrays are untouched and stay writeable.
    assert indices.tobytes() == before[0].tobytes()
    assert values.tobytes() == before[1].tobytes()
    assert indices.flags.writeable and values.flags.writeable
    assert not np.shares_memory(tensor.indices, indices)
    assert not np.shares_memory(tensor.values, values)


@pytest.mark.parametrize(
    "dim, indices",
    [(5, [[3, 1], [0, 2], [3, 1]]), (5, [[0, 1], [0, 1], [3, 1]]), (2, [[1, 0], [0, 1], [1, 0]])],
    ids=["unsorted", "repeated", "half-full"],
)
def test_input_that_needs_the_sort_keys_its_rows_once(monkeypatch, dim, indices):
    calls = []
    row_keys = tensor_module._row_keys

    def spy(*args, **kwargs):
        calls.append(args)
        return row_keys(*args, **kwargs)

    monkeypatch.setattr(tensor_module, "_row_keys", spy)
    t = SparseTensor(2, dim, indices, [1.0, 2.0, 3.0])
    assert len(calls) == 1
    monkeypatch.undo()
    _assert_same_arrays(t, *oracles.rowwise_canonicalize(2, indices, [1.0, 2.0, 3.0]))


# -- hand-over of canonical arrays ----------------------------------------


def _canonical_order3(rng, dim=9, nnz=60):
    """Sorted, distinct order-3 rows and nonzero values, in fresh arrays."""
    keys = np.sort(rng.choice(dim**3, size=nnz, replace=False))
    indices = np.stack(np.unravel_index(keys, (dim,) * 3), axis=1).astype(np.int64)
    return indices, rng.normal(size=nnz)


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def test_read_only_owning_canonical_arrays_are_stored_as_given():
    indices, values = _read_only(*_canonical_order3(np.random.default_rng(30)))
    before = indices.tobytes(), values.tobytes()
    tensor = SparseTensor(3, 9, indices, values)
    assert tensor.indices is indices and tensor.values is values
    assert (indices.tobytes(), values.tobytes()) == before
    # A tensor built from another's arrays shares them too.
    again = SparseTensor(3, 9, tensor.indices, tensor.values)
    assert again.indices is indices and again.values is values


@pytest.mark.parametrize("kind", ["read-only-view", "non-contiguous", "writable", "zero-value"])
def test_other_canonical_arrays_are_copied(kind):
    rng = np.random.default_rng(31)
    indices, values = _canonical_order3(rng)
    if kind == "zero-value":
        values[[4, 17]] = 0.0, -0.0
    expected = oracles.rowwise_canonicalize(3, indices, values)
    if kind == "read-only-view":
        # Read-only views of writable arrays, which can still change them.
        indices, values = _read_only(indices[:], values[:])
    elif kind == "non-contiguous":
        wide = np.zeros((values.size, 2))
        wide[:, 0] = values
        indices, values = _read_only(np.asfortranarray(indices), wide[:, 0])
    elif kind == "zero-value":
        _read_only(indices, values)
    before = indices.tobytes(), values.tobytes()
    tensor = SparseTensor(3, 9, indices, values)
    _assert_same_arrays(tensor, *expected)
    assert not np.shares_memory(tensor.indices, indices)
    assert not np.shares_memory(tensor.values, values)
    assert (indices.tobytes(), values.tobytes()) == before
    assert tensor.indices.flags.c_contiguous and tensor.values.flags.c_contiguous
    assert not (tensor.indices.flags.writeable or tensor.values.flags.writeable)


def test_read_only_input_that_needs_the_sort_is_left_untouched(monkeypatch):
    rng = np.random.default_rng(32)
    indices, values = _canonical_order3(rng)
    perm = rng.permutation(values.size)
    indices, values = _read_only(indices[perm], values[perm])
    before = indices.tobytes(), values.tobytes()
    sorts = []
    sorted_runs = tensor_module._sorted_runs

    def spy(key):
        sorts.append(key)
        return sorted_runs(key)

    monkeypatch.setattr(tensor_module, "_sorted_runs", spy)
    tensor = SparseTensor(3, 9, indices, values)
    monkeypatch.undo()
    assert len(sorts) == 1
    _assert_same_arrays(tensor, *oracles.rowwise_canonicalize(3, indices, values))
    assert (indices.tobytes(), values.tobytes()) == before
    assert not (indices.flags.writeable or values.flags.writeable)
    assert not np.shares_memory(tensor.indices, indices)
    assert not np.shares_memory(tensor.values, values)


def test_symmetrize_of_an_order1_tensor_shares_its_arrays():
    t = random_sparse_tensor(np.random.default_rng(33), 1, 12, nnz=8)
    averaged = symmetrize(t)
    assert averaged == t
    assert averaged.indices is t.indices and averaged.values is t.values


@pytest.mark.parametrize("across", ["descending", "repeated"])
def test_rows_that_ascend_only_inside_each_chunk_take_the_sort(monkeypatch, across):
    # The sorted-input check reads the keys a chunk at a time; each chunk's
    # first key is compared with the last key of the chunk before.
    monkeypatch.setattr(tensor_module, "_CHUNK", 4)
    rng = np.random.default_rng(34)
    indices, values = _canonical_order3(rng, nnz=12)
    if across == "descending":
        swapped = [4, 5, 6, 7, 0, 1, 2, 3, 8, 9, 10, 11]
        indices, values = indices[swapped], values[swapped]
    else:
        indices[4] = indices[3]
    tensor = SparseTensor(3, 9, indices, values)
    _assert_same_arrays(tensor, *oracles.rowwise_canonicalize(3, indices, values))
    assert tensor.nnz == (12 if across == "descending" else 11)


def test_a_dense_tensor_over_several_row_blocks_keeps_its_text_and_form():
    # 70 x 70 cells: the text writer's and the form's row blocks each take
    # 58 rows, so both read two blocks.
    rng = np.random.default_rng(35)
    dim = 70
    stored = rng.random((dim, dim)) < 0.75
    indices, values = np.argwhere(stored), rng.normal(size=np.count_nonzero(stored))
    tensor, ref = SparseTensor(2, dim, indices, values), oracles.CooTensor(2, dim, indices, values)
    assert tensor._dense is not None
    assert dim * dim > max(tensor_module._BLOCK, io_module._CHUNK_ROWS)
    _assert_same_arrays(tensor, ref.indices, ref.values)
    assert tensor_to_lines(tensor) == oracles.linewise_tensor_lines(ref)
    x, y = rng.normal(size=dim), rng.normal(size=dim)
    assert multilinear_form(tensor, [x, y]) == ref.form([x, y])


# -- multilinear form ----------------------------------------------------


def test_form_single_surviving_entry():
    t = SparseTensor.from_entries(2, 2, {(0, 0): 1.0, (0, 1): 2.0})
    assert multilinear_form(t, [np.array([1.0, 1.0]), np.array([1.0, 0.0])]) == 1.0


def test_form_zero_vector_gives_zero():
    rng = np.random.default_rng(1)
    t = random_sparse_tensor(rng, 3, 4)
    vectors = [rng.normal(0, 1, 4), np.zeros(4), rng.normal(0, 1, 4)]
    assert multilinear_form(t, vectors) == 0.0


def test_form_matches_dense_enumeration():
    rng = np.random.default_rng(2)
    for order in (1, 2, 3, 4):
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            t = random_sparse_tensor(rng, order, dim)
            vectors = [rng.normal(0, 1, dim) for _ in range(order)]
            expected = oracles.dense_multilinear_form(oracles.dense_tensor(t), vectors)
            got = multilinear_form(t, vectors)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_form_is_multilinear():
    rng = np.random.default_rng(3)
    t = random_sparse_tensor(rng, 3, 5, nnz=20)
    u, v = rng.normal(0, 1, 5), rng.normal(0, 1, 5)
    others = [rng.normal(0, 1, 5), rng.normal(0, 1, 5)]
    alpha = 1.7
    for slot in range(3):
        def at(vec):
            vectors = list(others)
            vectors.insert(slot, vec)
            return multilinear_form(t, vectors)

        assert at(alpha * u + v) == pytest.approx(
            alpha * at(u) + at(v), rel=1e-12, abs=1e-12
        )


@pytest.fixture(scope="module")
def third_order_tensor():
    """third_order's size: 10+5 points, a 216k-entry order-3 tensor."""
    p, q, _ = generate_synthetic(10, 5, 0.02, Transform(rotation=0.3), seed=1)
    return build_third_order(p, q, knn=300, triangle_budget=5000, seed=1).potentials[2]


def test_form_peaks_below_one_and_a_half_times_the_values(third_order_tensor):
    t = third_order_tensor
    x = np.full(t.dim, 0.2)
    form, peak = _traced_peak(lambda: multilinear_form(t, [x] * 3))
    assert t.nnz == 216_000
    expected = t.values.copy()
    for m in range(3):
        expected *= x[t.indices[:, m]]
    assert form == float(expected.sum())
    assert peak < 1.5 * t.values.nbytes


def test_form_validates_arguments():
    t = SparseTensor.from_entries(2, 3, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        multilinear_form(t, [np.ones(3)])
    with pytest.raises(ValueError):
        multilinear_form(t, [np.ones(3), np.ones(4)])


# -- mode product ---------------------------------------------------------


def test_mode_product_single_entry():
    t = SparseTensor.from_entries(2, 2, {(0, 1): 3.0})
    got = mode_product(t, 2, np.array([0.0, 2.0]))
    assert got == SparseTensor.from_entries(1, 2, {(0,): 6.0})


def test_mode_product_zero_vector_is_empty():
    rng = np.random.default_rng(4)
    t = random_sparse_tensor(rng, 3, 4)
    assert mode_product(t, 1, np.zeros(4)).nnz == 0


def test_mode_product_matches_dense():
    rng = np.random.default_rng(5)
    for _ in range(30):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 5))
        t = random_sparse_tensor(rng, order, dim)
        mode = int(rng.integers(1, order + 1))
        v = rng.normal(0, 1, dim)
        got = oracles.dense_tensor(mode_product(t, mode, v))
        expected = oracles.dense_mode_product(oracles.dense_tensor(t), mode - 1, v)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_mode_product_chain_equals_form():
    rng = np.random.default_rng(6)
    t = random_sparse_tensor(rng, 4, 3, nnz=25)
    vectors = [rng.normal(0, 1, 3) for _ in range(4)]
    folded = t
    for v in vectors:
        folded = mode_product(folded, 1, v)
    chained = folded.values.sum() if folded.nnz else 0.0
    assert chained == pytest.approx(multilinear_form(t, vectors), rel=1e-12, abs=1e-12)


def test_mode_product_reads_a_dense_held_tensor_once(monkeypatch):
    rng = np.random.default_rng(7)
    t = SparseTensor(2, 4, np.argwhere(np.ones((4, 4))), rng.normal(size=16))
    assert t._dense is not None
    reads = dense_reads(monkeypatch, t)
    got = mode_product(t, 2, np.arange(4.0))
    assert sorted(reads) == ["indices", "values"]
    assert np.allclose(oracles.dense_tensor(got), t._dense @ np.arange(4.0), rtol=1e-12)


def test_mode_product_validates_mode():
    t = SparseTensor.from_entries(2, 3, {(0, 0): 1.0})
    with pytest.raises(ValueError):
        mode_product(t, 0, np.ones(3))
    with pytest.raises(ValueError):
        mode_product(t, 3, np.ones(3))


def test_mode_product_refuses_a_vector_of_the_wrong_length():
    t = SparseTensor.from_entries(2, 3, {(0, 2): 1.0})
    for vector in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match=re.escape("vector must have shape (3,)")):
            mode_product(t, 1, vector)


@pytest.mark.parametrize("mode", [1.5, 2.0, "2", None])
def test_non_integer_modes_are_refused_by_name(mode):
    t = symmetrize(SparseTensor.from_entries(3, 3, {(0, 1, 2): 1.0}))
    u = np.ones(3)
    with pytest.raises(ValueError, match=re.escape(f"mode must be an integer, got {mode!r}")):
        mode_product(t, mode, u)
    with pytest.raises(ValueError, match=re.escape(f"open_mode must be an integer, got {mode!r}")):
        partial_contraction(t, mode, [], [u, u])
    assert np.array_equal(
        partial_contraction(t, np.int64(2), [u], [u]), partial_contraction(t, 2, [u], [u])
    )


# -- partial contraction --------------------------------------------------


def test_partial_contraction_order1_identity():
    t = SparseTensor.from_entries(1, 4, {(1,): 2.0, (3,): -1.0})
    got = partial_contraction(t, 1, [], [])
    assert np.array_equal(got, [0.0, 2.0, 0.0, -1.0])


def test_partial_contraction_row_sums():
    t = SparseTensor.from_entries(2, 2, {(0, 0): 1.0, (1, 1): 2.0})
    got = partial_contraction(t, 1, [], [np.array([1.0, 1.0])])
    assert np.array_equal(got, [1.0, 2.0])


def test_partial_contraction_matches_dense():
    rng = np.random.default_rng(7)
    for _ in range(40):
        order = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 5))
        t = random_sparse_tensor(rng, order, dim)
        open_mode = int(rng.integers(1, order + 1))
        left = [rng.normal(0, 1, dim) for _ in range(open_mode - 1)]
        right = [rng.normal(0, 1, dim) for _ in range(order - open_mode)]
        got = partial_contraction(t, open_mode, left, right)
        expected = oracles.dense_partial_contraction(
            oracles.dense_tensor(t), open_mode - 1, left, right
        )
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)


def test_partial_contraction_duality_with_form():
    rng = np.random.default_rng(8)
    t = random_sparse_tensor(rng, 3, 4, nnz=20)
    left = [rng.normal(0, 1, 4)]
    right = [rng.normal(0, 1, 4)]
    g = partial_contraction(t, 2, left, right)
    for _ in range(20):
        x = rng.normal(0, 1, 4)
        assert float(g @ x) == pytest.approx(
            multilinear_form(t, left + [x] + right), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_pulls_are_byte_equal_to_the_per_mode_reference(order):
    rng = np.random.default_rng(30 + order)
    for _ in range(30):
        dim = int(rng.integers(1, 7))
        t = random_sparse_tensor(rng, order, dim, nnz=int(rng.integers(1, 40)))
        if t._half_operator() is not None:
            continue  # supersymmetric by chance: the half operator's test
        for open_mode in range(1, order + 1):
            left = [rng.normal(0, 1, dim) for _ in range(open_mode - 1)]
            right = [rng.normal(0, 1, dim) for _ in range(order - open_mode)]
            got = partial_contraction(t, open_mode, left, right)
            if order == 1:
                expected = np.bincount(t.indices[:, 0], weights=t.values, minlength=dim)
            else:
                expected = oracles.per_mode_partial_contraction(t, open_mode, left, right)
            assert got.tobytes() == expected.tobytes()


def _closed_vector(rng, dim, kind):
    """A closed-mode vector: all +-0.0, partly +-0.0, without zeros, or
    partly +-0.0 with an inf or NaN, whose products with zero are NaN."""
    x = rng.normal(size=dim)
    if kind != "full":
        zero = rng.random(dim) < (1.0 if kind == "zero" else 0.5)
        x[zero] = rng.choice([0.0, -0.0], size=np.count_nonzero(zero))
    if kind == "non-finite":
        x[rng.integers(dim)] = rng.choice([np.inf, -np.inf, np.nan])
    return x


@pytest.mark.parametrize("layout", ["dense", "sparse"])
@pytest.mark.parametrize("order", [2, 3, 4])
def test_both_operator_layouts_are_bit_equal_to_the_csr_reference(order, layout):
    # Grids at least half full and sparse ones.  A coordinate tensor's pulls
    # go through its entries, one np.bincount over the index columns that
    # every mode shares; the order-2 grid at least half full is dense-held.
    rng = np.random.default_rng(90 + order)
    dim = {2: 9, 3: 5, 4: 4}[order] if layout == "dense" else 12
    for _ in range(12):
        scale = rng.choice([1.0, 1e-300, 1e300])
        if layout == "dense":
            grid = np.indices((dim,) * order).reshape(order, -1).T
            rows = grid[rng.random(grid.shape[0]) < 0.7]
            t = SparseTensor(order, dim, rows, rng.normal(0.0, scale, rows.shape[0]))
        else:
            t = random_sparse_tensor(rng, order, dim, nnz=3 * dim, scale=scale)
        held = order == 2 and layout == "dense"
        assert (t._dense is not None) == held and t._half_operator() is None
        for open_mode in range(1, order + 1):
            for kind in ("zero", "signed-zero", "full", "non-finite"):
                vectors = [_closed_vector(rng, dim, kind) for _ in range(order - 1)]
                left, right = vectors[: open_mode - 1], vectors[open_mode - 1 :]
                with np.errstate(over="ignore", invalid="ignore"):
                    got = partial_contraction(t, open_mode, left, right)
                    expected = oracles.per_mode_partial_contraction(t, open_mode, left, right)
                assert got.dtype == np.float64
                assert got.tobytes() == expected.tobytes()
        if not held:
            columns = t._contract_cache["columns"]
            assert columns.shape == (order, t.nnz) and columns.flags.c_contiguous
            assert np.array_equal(columns, t.indices.T)


def _symmetric_pair_tensor(rng, dim, missing=None):
    """An exactly symmetric order-2 tensor about 70% full, with every index
    present, or every index but ``missing``."""
    near = np.arange(dim)
    mask = rng.random((dim, dim)) < 0.7
    mask |= mask.T
    mask[near, near] = True
    grid = rng.normal(size=(dim, dim))
    # The upper triangle and its mirror image, the same floats.
    grid = np.where(near[:, None] <= near, grid, grid.T)
    if missing is not None:
        mask[missing, :] = mask[:, missing] = False
    return SparseTensor(2, dim, np.argwhere(mask), grid[mask])


@pytest.mark.parametrize(
    "case, operators", [("symmetric", 1), ("one-ulp-off", 2), ("index-missing", 1)]
)
def test_symmetric_dense_order2_tensor_shares_one_operator(monkeypatch, case, operators):
    # An order-2 tensor at least half full is held as one dense array, which
    # is mode 2's operator.  Exactly symmetric, it is mode 1's too, whether
    # or not every index holds an entry; one ulp off symmetry, mode 1 makes
    # its own contiguous transpose.  A non-finite work vector takes the
    # entries, made for that pull, so neither caches index columns.
    rng = np.random.default_rng(31)
    dims = {"symmetric": (1, 2, 5, 9), "one-ulp-off": (2, 5, 9), "index-missing": (5, 9)}
    for dim in dims[case]:
        t = _symmetric_pair_tensor(rng, dim, missing=dim - 1 if case == "index-missing" else None)
        if case == "one-ulp-off":
            values = t.values.copy()
            k = int(np.flatnonzero(t.indices[:, 0] != t.indices[:, 1])[0])
            values[k] = np.nextafter(values[k], np.inf)
            t = SparseTensor(2, dim, t.indices, values)
        assert t._dense is not None
        built = operator_builds(monkeypatch)
        for kind in ("zero", "signed-zero", "full", "non-finite"):
            for open_mode in (1, 2):
                work = _closed_vector(rng, dim, kind)
                left, right = ([work], []) if open_mode == 2 else ([], [work])
                with np.errstate(over="ignore", invalid="ignore"):
                    got = partial_contraction(t, open_mode, left, right)
                    expected = oracles.per_mode_partial_contraction(t, open_mode, left, right)
                assert got.tobytes() == expected.tobytes()
        monkeypatch.undo()
        assert built == []
        assert "columns" not in t._contract_cache
        first, second = (t._contract_cache[m] for m in (1, 2))
        assert second is t._dense and first.flags.c_contiguous
        assert len({id(first), id(second)}) == operators


@pytest.mark.parametrize("order, dim, nnz", [(3, 1100, 4000), (4, 110, 4000)])
def test_pulls_beyond_the_old_cap_match_the_gather_reference(order, dim, nnz):
    # A dense work vector over every closed-index combination would need
    # dim**(order-1) > 2**20 entries; the pull reads only the stored ones.
    rng = np.random.default_rng(9)
    t = random_sparse_tensor(rng, order, dim, nnz=nnz)
    assert dim ** (order - 1) > 1 << 20
    for open_mode in range(1, order + 1):
        left = [rng.normal(0, 1, dim) for _ in range(open_mode - 1)]
        right = [rng.normal(0, 1, dim) for _ in range(order - open_mode)]
        got = partial_contraction(t, open_mode, left, right)
        expected = oracles.gather_partial_contraction(t, open_mode, left, right)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert t._contract_cache["columns"].shape == (order, t.nnz)


def test_closed_rows_beyond_int64_keys_match_an_entry_loop():
    # (2**21 + 1)**3 > 2**63, so no int64 key holds the closed-mode rows of
    # this order-4 tensor.  Copy m of the first row differs from it only in
    # mode m, so with mode m open the two share their closed indices.
    rng = np.random.default_rng(15)
    dim = (1 << 21) + 1
    base = rng.integers(0, dim, size=(4, 4))
    copies = np.repeat(base[:1], 4, axis=0)
    copies[np.arange(4), np.arange(4)] = rng.integers(0, dim, size=4)
    t = SparseTensor(4, dim, np.vstack((base, copies)), rng.normal(0, 1, 8))
    assert tensor_module._row_keys(3, dim, t.indices[:, 1:]) is None
    vectors = [rng.normal(0, 1, dim) for _ in range(3)]
    for open_mode in range(1, 5):
        left, right = vectors[: open_mode - 1], vectors[open_mode - 1 :]
        got = partial_contraction(t, open_mode, left, right)
        expected = np.zeros(dim)
        for idx, value in t.items():
            closed = idx[: open_mode - 1] + idx[open_mode:]
            expected[idx[open_mode - 1]] += value * np.prod(
                [v[i] for v, i in zip(vectors, closed)]
            )
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert t._contract_cache["columns"].shape == (4, 8)


def test_partial_contraction_validates_lengths():
    t = SparseTensor.from_entries(3, 2, {(0, 0, 0): 1.0})
    ones = np.ones(2)
    with pytest.raises(ValueError):
        partial_contraction(t, 2, [], [ones])
    with pytest.raises(ValueError):
        partial_contraction(t, 4, [ones, ones, ones], [])
    with pytest.raises(ValueError, match="expected 1 right vectors, got 2"):
        partial_contraction(t, 2, [ones], [ones, ones])
    with pytest.raises(ValueError, match="expected 2 right vectors, got 0"):
        partial_contraction(t, 1, [], [])
    for short in ([ones], [np.ones(3)]), ([np.ones(1)], [ones]):
        with pytest.raises(ValueError, match=re.escape("vectors must have shape (2,)")):
            partial_contraction(t, 2, *short)


# -- one half-size operator for a supersymmetric order-3 tensor ------------


def _orbit_tensor(rng, dim, count=12):
    """Supersymmetric order-3 tensor by explicit orbit expansion: random
    rows plus rows with ``a == b``, ``b == c`` and ``a == b == c``, each
    stored under every distinct permutation at one value."""
    rows = [tuple(row) for row in rng.integers(0, dim, size=(count, 3))]
    a, b = (int(i) for i in rng.choice(dim, size=2, replace=False))
    rows += [(a, a, b), (b, a, a), (a, b, b), (b, b, b)]
    entries = {}
    for row in rows:
        value = float(rng.normal())
        for perm in permutations(row):
            entries[perm] = value
    return SparseTensor.from_entries(3, dim, entries)


def _mode_vectors(rng, dim, open_mode):
    vectors = [rng.normal(0, 1, dim), rng.normal(0, 1, dim)]
    return vectors[: open_mode - 1], vectors[open_mode - 1 :]


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_supersymmetric_order3_contracts_through_one_half_operator(monkeypatch, dim):
    rng = np.random.default_rng(dim)
    for _ in range(10):
        t = _orbit_tensor(rng, dim)
        assert _is_supersymmetric(t)
        dense = oracles.dense_tensor(t)
        built = operator_builds(monkeypatch)
        for open_mode in (1, 2, 3):
            left, right = _mode_vectors(rng, dim, open_mode)
            got = partial_contraction(t, open_mode, left, right)
            expected = oracles.dense_partial_contraction(
                dense, open_mode - 1, left, right
            )
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        monkeypatch.undo()
        # One set of entries for all modes: only b <= c, grouped by column
        # b * dim + c, with the rows a ascending inside each column.
        assert built == ["half"]
        starts, rows, values = t._contract_cache["half"]
        a, b, c = t.indices.T
        keep = b <= c
        assert starts.shape == (dim**2 + 1,) and starts[0] == 0
        assert rows.size == values.size == starts[-1] == np.count_nonzero(keep)
        cols = np.repeat(np.arange(dim**2), np.diff(starts))
        assert np.all(cols // dim <= cols % dim)
        kept = np.sort(((b * dim + c) * dim + a)[keep])
        assert np.array_equal(cols * dim + rows, kept)


# Floats that stress a sum: signed zeros, subnormals, huge values, inf, NaN.
_SPECIAL = np.array(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.inf, -np.inf, np.nan]
)


def _block(rng, dim, density):
    """A block vector that is zero outside a random support, as a simplex
    projection mostly is, with some entries swapped for special floats."""
    x = np.where(rng.random(dim) < density, rng.normal(size=dim), 0.0)
    special = rng.random(dim) < 0.1
    x[special] = rng.choice(_SPECIAL, size=np.count_nonzero(special))
    return x


@pytest.mark.parametrize("dim", [1, 2, 5, 12])
def test_half_operator_pulls_are_bit_equal_to_the_row_major_product(dim):
    # Skipping the zero work columns must not move one bit of any pull.
    rng = np.random.default_rng(40 + dim)
    for _ in range(40):
        scale = rng.choice([1.0, 1e-310, 1e300])
        nnz = int(rng.integers(1, 4 * dim**2 + 1))
        t = symmetrize(random_sparse_tensor(rng, 3, dim, nnz=nnz, scale=scale))
        assert t._half_operator() is not None
        for open_mode in (1, 2, 3):
            density = rng.choice([0.1, 0.5, 1.0])
            blocks = [_block(rng, dim, density), _block(rng, dim, density)]
            left, right = blocks[: open_mode - 1], blocks[open_mode - 1 :]
            with np.errstate(over="ignore", invalid="ignore"):
                got = partial_contraction(t, open_mode, left, right)
                expected = oracles.half_operator_partial_contraction(t, left, right)
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [1, 4])
def test_half_operator_pull_of_a_zero_block_is_positive_zero(dim):
    rng = np.random.default_rng(50 + dim)
    t = symmetrize(random_sparse_tensor(rng, 3, dim, nnz=3 * dim))
    assert t._half_operator() is not None
    # A negative partner turns every product with +0.0 into -0.0.
    other = -1.0 - np.abs(rng.normal(size=dim))
    for zero in (np.zeros(dim), np.full(dim, -0.0)):
        for blocks in ([zero, other], [other, zero]):
            for open_mode in (1, 2, 3):
                left, right = blocks[: open_mode - 1], blocks[open_mode - 1 :]
                got = partial_contraction(t, open_mode, left, right)
                assert got.dtype == np.float64
                assert got.tobytes() == np.zeros(dim).tobytes()
                expected = oracles.half_operator_partial_contraction(t, left, right)
                assert got.tobytes() == expected.tobytes()


# -- per-support plans of the half operator's pull ------------------------


def _pull_every_mode(t, u, v):
    """Pull ``t`` with the blocks ``u, v`` through each open mode; every pull
    must equal the whole row-major product bit for bit, and the plan cache
    must stay within its bound."""
    with np.errstate(over="ignore", invalid="ignore"):
        expected = oracles.half_operator_partial_contraction(t, [u], [v]).tobytes()
        for open_mode in (1, 2, 3):
            left, right = [u, v][: open_mode - 1], [u, v][open_mode - 1 :]
            assert partial_contraction(t, open_mode, left, right).tobytes() == expected
    assert len(t._contract_cache["plans"]) <= tensor_module._PLANS


def _blocks_on(rng, dim, support, scale=1.0):
    """Two blocks, +-0.0 outside ``support``, whose own supports are random
    parts of it that together cover it."""
    u, v = (rng.choice([0.0, -0.0], size=dim) for _ in range(2))
    owner = rng.integers(0, 3, size=support.size)  # u only, v only, or both
    in_u, in_v = support[owner != 1], support[owner != 0]
    u[in_u] = rng.normal(0.0, scale, in_u.size)
    v[in_v] = rng.normal(0.0, scale, in_v.size)
    return u, v


@pytest.mark.parametrize("dim, nnz", [(6, 216), (24, 24**3), (150, 30000)])
def test_support_plan_pulls_are_bit_equal_to_the_row_major_product(dim, nnz):
    rng = np.random.default_rng(60 + dim)
    t = symmetrize(random_sparse_tensor(rng, 3, dim, nnz=nnz))
    assert t._half_operator() is not None
    sizes = [0, 1, 1, 2, 2, 3, 3, dim] + list(rng.integers(1, dim + 1, size=12))
    for size in sizes:
        support = np.sort(rng.choice(dim, size=size, replace=False))
        scale = rng.choice([1.0, 1e-160, 1e150])
        _pull_every_mode(t, *_blocks_on(rng, dim, support, scale))


def test_support_plans_interleave_hits_misses_and_evictions():
    rng = np.random.default_rng(70)
    dim = 30
    t = symmetrize(random_sparse_tensor(rng, 3, dim, nnz=dim**3))
    pool = [np.sort(rng.choice(dim, size=int(k), replace=False)) for k in rng.integers(1, 9, 12)]
    # Recurring, alternating, then cycling through more supports than the
    # cache holds, so that evicted supports come back as misses.
    order = [0, 0, 0, 1, 0, 1, 0, 1] + list(range(12)) + [0, 11, 3, 3, 10, 2, 0, 7]
    order += list(rng.integers(0, 12, size=24))
    for k in order:
        _pull_every_mode(t, *_blocks_on(rng, dim, pool[k]))
    assert len(t._contract_cache["plans"]) == tensor_module._PLANS


@pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan, "overflow"])
def test_non_finite_blocks_take_the_full_support(special):
    rng = np.random.default_rng(80)
    dim = 20
    t = symmetrize(random_sparse_tensor(rng, 3, dim, nnz=dim**3))
    # A cached plan first, so that a wrongly cached full support would show.
    _pull_every_mode(t, *_blocks_on(rng, dim, np.array([1, 4, 9])))
    cached = list(t._contract_cache["plans"])
    for _ in range(10):
        support = np.sort(rng.choice(dim, size=int(rng.integers(1, 6)), replace=False))
        u, v = _blocks_on(rng, dim, support)
        if special == "overflow":
            u[support] = v[support] = 1e308  # finite blocks whose sum overflows
        else:
            u[support[0]] = special
        _pull_every_mode(t, u, v)
        assert list(t._contract_cache["plans"]) == cached


def test_full_support_pull_applies_the_whole_operator():
    rng = np.random.default_rng(85)
    dim = 20
    t = symmetrize(random_sparse_tensor(rng, 3, dim, nnz=dim**3 // 2))
    _pull_every_mode(t, *_blocks_on(rng, dim, np.array([2, 5, 11])))
    plans = list(t._contract_cache["plans"].items())
    # A solve's uniform start.
    uniform = np.full(dim, 1.0 / dim)
    _pull_every_mode(t, uniform, uniform)
    after = list(t._contract_cache["plans"].items())
    assert [key for key, _ in after] == [key for key, _ in plans]
    assert all(new is old for (_, new), (_, old) in zip(after, plans))
    starts, rows, values = t._half_operator()
    plan = t._support_plan(np.arange(dim))
    assert plan[0] is rows and plan[1] is values
    assert np.array_equal(plan[2], np.repeat(np.arange(dim**2), np.diff(starts)))


def _off_symmetry(rng, dim, kind):
    t = _orbit_tensor(rng, dim)
    # A row with two distinct indices has a permuted copy that differs.
    k = int(np.flatnonzero(t.indices[:, 0] != t.indices[:, 1])[0])
    indices, values = t.indices, t.values.copy()
    if kind == "missing-copy":
        indices, values = np.delete(indices, k, axis=0), np.delete(values, k)
    else:
        values[k] = np.nextafter(values[k], np.inf)
    return SparseTensor(3, dim, indices, values)


@pytest.mark.parametrize("kind", ["missing-copy", "one-ulp-off"])
def test_tensor_off_symmetry_takes_the_entries_pull(monkeypatch, kind):
    rng = np.random.default_rng(11)
    for dim in (2, 4, 7):
        t = _off_symmetry(rng, dim, kind)
        assert not _is_supersymmetric(t)
        built = operator_builds(monkeypatch)
        for open_mode in (1, 2, 3):
            left, right = _mode_vectors(rng, dim, open_mode)
            got = partial_contraction(t, open_mode, left, right)
            expected = oracles.per_mode_partial_contraction(t, open_mode, left, right)
            assert got.tobytes() == expected.tobytes()
        monkeypatch.undo()
        assert built == ["columns"]
        assert t._contract_cache["half"] is None


def test_supersymmetric_tensor_beyond_the_cap_takes_the_entries_pull(monkeypatch):
    rng = np.random.default_rng(12)
    dim = 6
    t = _orbit_tensor(rng, dim)
    monkeypatch.setattr(tensor_module, "_MATVEC_CAP", dim**2 - 1)
    built = operator_builds(monkeypatch)
    for open_mode in (1, 2, 3):
        left, right = _mode_vectors(rng, dim, open_mode)
        got = partial_contraction(t, open_mode, left, right)
        expected = oracles.per_mode_partial_contraction(t, open_mode, left, right)
        assert got.tobytes() == expected.tobytes()
    assert built == ["columns"]
    assert t._contract_cache["half"] is None


def test_symmetry_check_finds_a_missing_copy_and_a_one_ulp_change():
    rng = np.random.default_rng(14)
    assert _is_supersymmetric(_orbit_tensor(rng, 7))
    for kind in ("missing-copy", "one-ulp-off"):
        assert not _is_supersymmetric(_off_symmetry(rng, 7, kind))


def _diagonal_tensor(rng, dim, nudge):
    """Supersymmetric order-3 tensor whose rows all repeat an index, the
    ``b == c`` rows among them; with ``nudge``, one ``b == c`` row with
    ``a != b`` is one ulp off its permuted copies."""
    entries = {}
    for a, b in rng.integers(0, dim, size=(6, 2)):
        value = float(rng.normal())
        for perm in set(permutations((int(a), int(b), int(b)))):
            entries[perm] = value
    t = SparseTensor.from_entries(3, dim, entries)
    a, b, c = t.indices.T
    off = np.flatnonzero((b == c) & (a != b))
    if not nudge or off.size == 0:
        return t
    values = t.values.copy()
    values[off[0]] = np.nextafter(values[off[0]], np.inf)
    return SparseTensor(3, dim, t.indices, values)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_symmetry_check_agrees_with_the_argsort_reference(dim):
    rng = np.random.default_rng(90 + dim)
    cases = []
    for _ in range(10):
        cases += [
            _orbit_tensor(rng, dim),
            _off_symmetry(rng, dim, "missing-copy"),
            _off_symmetry(rng, dim, "one-ulp-off"),
            _diagonal_tensor(rng, dim, nudge=False),
            _diagonal_tensor(rng, dim, nudge=True),
            symmetrize(random_sparse_tensor(rng, 3, dim)),
            random_sparse_tensor(rng, 3, dim),
            symmetrize(random_sparse_tensor(rng, 2, dim)),
            symmetrize(random_sparse_tensor(rng, 4, dim)),
            random_sparse_tensor(rng, 4, dim),
        ]
    verdicts = [_is_supersymmetric(t) for t in cases]
    assert verdicts == [oracles.argsort_is_supersymmetric(t) for t in cases]
    assert any(verdicts) and not all(verdicts)


def test_symmetry_check_refuses_packed_keys_beyond_int64(monkeypatch):
    rng = np.random.default_rng(15)
    dim = 6
    t = _orbit_tensor(rng, dim)
    monkeypatch.setattr(tensor_module, "_KEY_LIMIT", dim**3 * t.nnz)
    assert _is_supersymmetric(t)
    monkeypatch.setattr(tensor_module, "_KEY_LIMIT", dim**3 * t.nnz - 1)
    assert not _is_supersymmetric(t)


def test_symmetry_check_peaks_below_half_the_tensor(third_order_tensor):
    t = third_order_tensor
    symmetric, peak = _traced_peak(lambda: _is_supersymmetric(t))
    assert symmetric
    assert peak < 0.5 * (t.indices.nbytes + t.values.nbytes)


def test_symmetry_is_checked_once_per_tensor(monkeypatch):
    rng = np.random.default_rng(13)
    calls = []
    check = tensor_module._is_supersymmetric

    def spy(tensor):
        calls.append(tensor)
        return check(tensor)

    monkeypatch.setattr(tensor_module, "_is_supersymmetric", spy)
    symmetric = _orbit_tensor(rng, 5)
    asymmetric = _off_symmetry(rng, 5, "one-ulp-off")
    for t in (symmetric, asymmetric):
        for _ in range(2):
            for open_mode in (1, 2, 3):
                partial_contraction(t, open_mode, *_mode_vectors(rng, 5, open_mode))
    assert calls == [symmetric, asymmetric]


# -- symmetrize -----------------------------------------------------------


def test_symmetrize_order2():
    t = SparseTensor.from_entries(2, 2, {(0, 1): 2.0})
    assert dict(symmetrize(t).items()) == {(0, 1): 1.0, (1, 0): 1.0}


def test_symmetrize_order3_six_copies():
    t = SparseTensor.from_entries(3, 3, {(0, 1, 2): 6.0})
    got = dict(symmetrize(t).items())
    assert len(got) == 6
    assert all(v == 1.0 for v in got.values())


def test_symmetrize_fixed_point():
    t = SparseTensor.from_entries(2, 2, {(0, 1): 1.0, (1, 0): 1.0})
    assert symmetrize(t) == t


def test_symmetrize_preserves_diagonal_form():
    rng = np.random.default_rng(10)
    t = random_sparse_tensor(rng, 3, 4, nnz=15)
    x = rng.normal(0, 1, 4)
    assert multilinear_form(symmetrize(t), [x] * 3) == pytest.approx(
        multilinear_form(t, [x] * 3), rel=1e-12, abs=1e-12
    )


@pytest.mark.parametrize("order", [2, 3, 4])
def test_symmetrize_is_exactly_symmetric(order):
    rng = np.random.default_rng(20 + order)
    for _ in range(50):
        t = random_sparse_tensor(rng, order, 4, nnz=int(rng.integers(1, 40)))
        averaged = symmetrize(t)
        assert _is_supersymmetric(averaged)
        np.testing.assert_allclose(
            oracles.dense_tensor(averaged),
            oracles.dense_symmetrize(oracles.dense_tensor(t)),
            rtol=1e-12,
            atol=1e-15,
        )
