"""Round-trip and error-path tests for the text file formats."""

import csv
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import oracles
import pytest

import adgm
from adgm import io as io_module
from adgm.constraints import ConstraintSpec, SideMode
from adgm.harness import Transform, generate_synthetic, read_experiment_config
from adgm.io import (
    read_edges,
    read_instance,
    read_points,
    read_tensor,
    read_truth,
    read_unary,
    row_targets_to_truth,
    tensor_from_lines,
    tensor_to_lines,
    truth_to_row_targets,
    write_edges,
    write_instance,
    write_points,
    write_solution,
    write_tensor,
    write_trace,
    write_truth,
    write_unary,
)
from adgm.models import build_pairwise_c
from adgm.solver import MatchingInstance, Sense
from adgm.tensor import SparseTensor


class TestPoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(7, 2)) * 1e3
        path = tmp_path / "points.txt"
        write_points(path, points)
        assert np.array_equal(read_points(path), points)

    def test_empty_set_round_trips(self, tmp_path):
        path = tmp_path / "points.txt"
        write_points(path, np.empty((0, 2)))
        assert read_points(path).shape == (0, 2)

    def test_comments_and_blanks_are_ignored(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("# a point set\n2\n\n0.0 1.0  # first\n2.0 3.0\n")
        assert np.array_equal(read_points(path), [[0.0, 1.0], [2.0, 3.0]])

    def test_count_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("3\n0.0 1.0\n")
        with pytest.raises(ValueError, match="expected 3 points"):
            read_points(path)

    def test_extra_coordinate_is_rejected(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("2\n0.0 1.0\n2.0 3.0 4.0\n")
        with pytest.raises(ValueError, match="two coordinates"):
            read_points(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValueError, match="empty"):
            read_points(path)

    @pytest.mark.parametrize("header", ["2 2", "x", "1.5"])
    def test_bad_count_header_names_the_file_and_line(self, tmp_path, header):
        path = tmp_path / "points.txt"
        path.write_text(f"{header}\n0.0 1.0\n2.0 3.0\n")
        message = f"^{re.escape(str(path))}: .*point count, got '{re.escape(header)}'$"
        with pytest.raises(ValueError, match=message):
            read_points(path)


class TestEdges:
    def test_round_trip(self, tmp_path):
        edges = [(0, 1), (1, 2), (0, 4)]
        path = tmp_path / "edges.txt"
        write_edges(path, edges)
        assert read_edges(path) == edges

    def test_empty_list_round_trips(self, tmp_path):
        path = tmp_path / "edges.txt"
        write_edges(path, [])
        assert read_edges(path) == []

    @pytest.mark.parametrize("line", ["0 1 2", "0 x", "1"])
    def test_bad_line_is_rejected(self, tmp_path, line):
        path = tmp_path / "edges.txt"
        path.write_text(f"0 1\n{line}\n")
        message = f"^{re.escape(str(path))}: .*two indices, got '{line}'$"
        with pytest.raises(ValueError, match=message):
            read_edges(path)


class TestUnary:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        matrix = rng.normal(size=(3, 5))
        path = tmp_path / "unary.txt"
        write_unary(path, matrix)
        assert np.array_equal(read_unary(path), matrix)

    def test_shape_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "unary.txt"
        path.write_text("2 2\n1.0 2.0\n")
        with pytest.raises(ValueError, match="2 x 2"):
            read_unary(path)

    def test_ragged_row_is_rejected(self, tmp_path):
        path = tmp_path / "unary.txt"
        path.write_text("2 2\n1.0 2.0\n3.0\n")
        with pytest.raises(ValueError, match="2 x 2"):
            read_unary(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "unary.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_unary(path)

    @pytest.mark.parametrize("header", ["2 2 2", "2", "2 x"])
    def test_bad_header_names_the_file_and_line(self, tmp_path, header):
        path = tmp_path / "unary.txt"
        path.write_text(f"{header}\n1.0 2.0\n3.0 4.0\n")
        message = f"^{re.escape(str(path))}: .*two sizes 'n1 n2', got '{header}'$"
        with pytest.raises(ValueError, match=message):
            read_unary(path)


# Values that stress the text round trip: subnormals, the largest finite
# magnitudes, and a power of ten with a short repr.
_EXTREMES = [
    5e-324,
    2.225073858507201e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
    1e22,
    0.1,
]


class TestTensor:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        indices = rng.integers(0, 12, size=(9, 3))
        tensor = SparseTensor(3, 12, indices, rng.normal(size=9))
        path = tmp_path / "tensor.txt"
        write_tensor(path, tensor)
        assert read_tensor(path) == tensor

    def test_empty_tensor_round_trips(self, tmp_path):
        path = tmp_path / "tensor.txt"
        write_tensor(path, SparseTensor.empty(2, 6))
        assert read_tensor(path) == SparseTensor.empty(2, 6)

    def test_lines_form_is_inverse(self):
        tensor = SparseTensor(2, 4, [[0, 1], [3, 2]], [0.5, -1.5])
        assert tensor_from_lines(tensor_to_lines(tensor)) == tensor

    def test_bad_header_is_rejected(self):
        with pytest.raises(ValueError, match="header"):
            tensor_from_lines(["order 2 size 4"])
        with pytest.raises(ValueError, match="empty"):
            tensor_from_lines([])

    @pytest.mark.parametrize("lines", [["order -1 dim 4"], ["order -1 dim 4", "0 1.0"]])
    def test_negative_order_is_refused_naming_the_file(self, lines):
        with pytest.raises(ValueError, match=r"^t\.txt: order must be >= 0, got -1$"):
            tensor_from_lines(lines, path="t.txt")

    def test_wrong_arity_entry_is_rejected(self):
        with pytest.raises(ValueError, match="2 indices"):
            tensor_from_lines(["order 2 dim 4", "0 1 2 3.0"])

    @pytest.mark.parametrize("index", ["1.5", "1.0", "1e0", "0x1"])
    def test_non_integer_index_is_rejected(self, index):
        with pytest.raises(ValueError, match="2 indices"):
            tensor_from_lines(["order 2 dim 4", f"0 {index} 3.0"])

    def test_empty_section_round_trips_without_warnings(self, tmp_path):
        path = tmp_path / "tensor.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_tensor(path, SparseTensor.empty(2, 6))
            path.write_text(path.read_text() + "# no entries\n\n")
            assert read_tensor(path) == SparseTensor.empty(2, 6)

    @pytest.mark.parametrize(
        "values",
        [[v] for v in _EXTREMES] + [[0.75, -0.75], [0.1, 0.2, -0.3, 1e-17]],
    )
    def test_order_zero_matches_linewise_reference(self, values):
        tensor = SparseTensor(0, 1, np.empty((len(values), 0)), values)
        lines = tensor_to_lines(tensor)
        assert lines == oracles.linewise_tensor_lines(tensor)
        _, _, r_indices, r_values = oracles.linewise_read_tensor("\n".join(lines))
        _assert_same_tensor(tensor_from_lines(lines), tensor, r_indices, r_values)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_text_and_arrays_match_linewise_reference(self, tmp_path, order):
        rng = np.random.default_rng(10 + order)
        dim = 8
        indices, values = _awkward_entries(rng, order, dim)
        tensor = SparseTensor(order, dim, indices, values)
        lines = tensor_to_lines(tensor)
        assert lines == oracles.linewise_tensor_lines(tensor)
        _assert_same_tensor(tensor_from_lines(lines), tensor)

        # An uncanonical section: shuffled, with duplicates, comments and
        # blank lines.
        text = [f"order {order} dim {dim}  # header", ""]
        for row, value in zip(indices.tolist(), values.tolist()):
            text.append(" ".join(map(str, row)) + f" {value!r}")
            if rng.random() < 0.2:
                text.append(rng.choice(["", "   ", "# comment", "\t# indented"]))
        text[-1] += "  # trailing"
        path = tmp_path / "tensor.txt"
        path.write_text("\n".join(text) + "\n")
        r_order, r_dim, r_indices, r_values = oracles.linewise_read_tensor(path.read_text())
        _assert_same_tensor(read_tensor(path), SparseTensor(r_order, r_dim), r_indices, r_values)
        _assert_same_tensor(read_tensor(path), tensor)


def _awkward_entries(rng, order, dim):
    """Shuffled index rows with duplicates, one row whose entries cancel to
    zero, and the extreme values each on a row of their own."""
    cells = dim**order
    extreme_keys = rng.choice(cells, size=len(_EXTREMES), replace=False)
    keys = rng.integers(0, cells, size=60)
    keys = keys[~np.isin(keys, extreme_keys)]
    keys = np.concatenate([keys, keys[:15], keys[:1], keys[:1]])
    values = rng.normal(size=keys.size)
    values[keys == keys[0]] = 0.0
    values[-2], values[-1] = 0.75, -0.75
    keys = np.concatenate([keys, extreme_keys])
    values = np.concatenate([values, _EXTREMES])
    perm = rng.permutation(keys.size)
    indices = np.stack(np.unravel_index(keys[perm], (dim,) * order), axis=1)
    return indices.astype(np.int64), values[perm]


def _assert_same_tensor(actual, expected, indices=None, values=None):
    """Same order and dim, and the same index and value bytes."""
    indices = expected.indices if indices is None else indices
    values = expected.values if values is None else values
    assert (actual.order, actual.dim) == (expected.order, expected.dim)
    assert actual.indices.shape == indices.shape
    assert actual.indices.dtype == indices.dtype == np.int64
    assert actual.indices.tobytes() == indices.tobytes()
    assert actual.values.dtype == values.dtype == np.float64
    assert actual.values.tobytes() == values.tobytes()


# Rows per chunk when tables are written, and the entry counts around it.
_C = io_module._CHUNK_ROWS
_CHUNK_COUNTS = [0, 1, _C - 1, _C, _C + 1, 2 * _C + 1]
# An order-0 tensor holds at most one entry; other orders get dims with room
# for every count above.
_ORDER_COUNTS = [(0, 0), (0, 1)] + [(k, nnz) for k in (1, 2, 3) for nnz in _CHUNK_COUNTS]
_DIMS = {0: 1, 1: 3 * _C, 2: 200, 3: 30}


def _distinct_tensor(rng, order, dim, nnz):
    """``nnz`` distinct entries with values of every magnitude."""
    keys = rng.choice(dim**order, size=nnz, replace=False)
    indices = np.empty((nnz, 0), dtype=np.int64)
    if order:
        indices = np.stack(np.unravel_index(keys, (dim,) * order), axis=1)
    values = rng.normal(size=nnz) * 10.0 ** rng.integers(-300, 300, size=nnz)
    return SparseTensor(order, dim, indices, values)


def _with_separators(rng, lines, separators):
    """``lines`` joined into one text, each line ended by a separator drawn
    from ``separators``."""
    return "".join(line + separators[rng.integers(len(separators))] for line in lines)


# Line ends that str.splitlines honours, and comment and blank-line noise.
_SEPARATORS = [
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    "\n\n# comment\n", "  # note\n", "\x0c# comment \u2028 \t\n",
]


class TestStreamedText:
    @pytest.mark.parametrize("order, nnz", _ORDER_COUNTS)
    def test_tensor_text_matches_linewise_reference_across_chunks(self, tmp_path, order, nnz):
        tensor = _distinct_tensor(np.random.default_rng(nnz + order), order, _DIMS[order], nnz)
        expected = oracles.linewise_tensor_lines(tensor)
        assert tensor_to_lines(tensor) == expected
        path = tmp_path / "tensor.txt"
        write_tensor(path, tensor)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        _assert_same_tensor(read_tensor(path), tensor)

    @pytest.mark.parametrize("nnz", _CHUNK_COUNTS)
    def test_instance_file_matches_linewise_reference_across_chunks(self, tmp_path, nnz):
        rng = np.random.default_rng(nnz)
        n1, n2 = 91, 92  # n = 8372 > 2C + 1
        n = n1 * n2
        potentials = tuple(_distinct_tensor(rng, k, n, nnz) for k in (1, 2, 3))
        spec = ConstraintSpec(n1, n2, SideMode.EXACTLY_ONE, SideMode.AT_MOST_ONE)
        targets = rng.permutation(n2)[:n1]
        truth = row_targets_to_truth(targets, n1, n2)
        instance = MatchingInstance(n1, n2, potentials, spec, Sense.MAXIMIZE, truth)
        expected = [
            "matching-instance", f"n1 {n1}", f"n2 {n2}", "rows exactly-one",
            "cols at-most-one", "sense maximize", "truth " + " ".join(map(str, targets)),
        ]
        for tensor in potentials:
            expected += ["tensor"] + oracles.linewise_tensor_lines(tensor)
        path = tmp_path / "instance.txt"
        write_instance(path, instance)
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        loaded = read_instance(path)
        for actual, tensor in zip(loaded.potentials, potentials, strict=True):
            _assert_same_tensor(actual, tensor)
        assert loaded.ground_truth.tobytes() == truth.tobytes()

    @pytest.mark.parametrize("chars", [1, 7, None], ids=["1-char", "7-chars", "default"])
    def test_tensor_lines_split_as_str_splitlines_does(self, tmp_path, monkeypatch, chars):
        if chars is not None:
            monkeypatch.setattr(io_module, "_CHUNK_CHARS", chars)
        rng = np.random.default_rng(21)
        # About 3.5 default read blocks of text, so sections cross block ends.
        tensor = _distinct_tensor(rng, 2, 200, 400 if chars else 9000)
        lines = tensor_to_lines(tensor)
        lines[0] += "  # header"
        text = _with_separators(rng, lines, _SEPARATORS)
        path = tmp_path / "tensor.txt"
        path.write_bytes(text.encode())
        assert chars or len(text) > 3 * io_module._CHUNK_CHARS
        order, dim, indices, values = oracles.linewise_read_tensor(text)
        assert (order, dim) == (2, 200)
        _assert_same_tensor(read_tensor(path), tensor, indices, values)

    @pytest.mark.parametrize("separator", ["\x0c", "\x0b", "\x1e", "\x85", "\u2028", "\u2029"])
    @pytest.mark.parametrize("chars", [1, None], ids=["1-char", "default"])
    def test_a_line_end_inside_an_entry_is_refused_as_before(
        self, tmp_path, monkeypatch, separator, chars
    ):
        if chars is not None:
            monkeypatch.setattr(io_module, "_CHUNK_CHARS", chars)
        path = tmp_path / "tensor.txt"
        # Accepted: two entries on one physical line.
        text = f"order 2 dim 4\n0 1 0.5{separator}1 2 0.25\n"
        path.write_bytes(text.encode())
        _, _, indices, values = oracles.linewise_read_tensor(text)
        _assert_same_tensor(read_tensor(path), SparseTensor(2, 4), indices, values)
        # Refused: one entry cut in two.
        text = f"order 2 dim 4\n0 1{separator}0.5\n"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="entry needs 2 indices"):
            oracles.linewise_read_tensor(text)
        with pytest.raises(ValueError, match="tensor entry needs 2 indices and a value"):
            read_tensor(path)

    @pytest.mark.parametrize("chars", [1, 7, None], ids=["1-char", "7-chars", "default"])
    def test_instance_lines_split_as_str_splitlines_does(self, tmp_path, monkeypatch, chars):
        if chars is not None:
            monkeypatch.setattr(io_module, "_CHUNK_CHARS", chars)
        rng = np.random.default_rng(22)
        instance = _sample_instance()
        path = tmp_path / "instance.txt"
        write_instance(path, instance)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [line + "  # note" if line == "tensor" else line for line in lines]
        path.write_bytes(_with_separators(rng, lines, _SEPARATORS).encode())
        loaded = read_instance(path)
        assert loaded.potentials == instance.potentials
        assert loaded.ground_truth.tobytes() == instance.ground_truth.tobytes()
        lines[lines.index("0 3 0.25")] = "0\u20283 0.25"
        path.write_bytes(_with_separators(rng, lines, _SEPARATORS).encode())
        with pytest.raises(ValueError, match="tensor entry needs 2 indices and a value"):
            read_instance(path)

    def test_instance_io_memory_stays_below_the_data_it_moves(self, tmp_path):
        n1 = n2 = 22
        n = n1 * n2
        pair = _distinct_tensor(np.random.default_rng(23), 2, n, 150_000)
        spec = ConstraintSpec(n1, n2, SideMode.EXACTLY_ONE, SideMode.EXACTLY_ONE)
        instance = MatchingInstance(
            n1, n2, (SparseTensor.empty(1, n), pair), spec, Sense.MINIMIZE
        )
        path = tmp_path / "instance.txt"
        tracemalloc.start()
        try:
            write_instance(path, instance)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracemalloc.start()
            loaded = read_instance(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.potentials == instance.potentials
        array_bytes = pair.indices.nbytes + pair.values.nbytes
        assert write_peak < path.stat().st_size
        assert read_peak < 3 * array_bytes


    def test_reading_a_model_c_instance_peaks_below_2_2_tensors(self, tmp_path):
        # cli_pairwise's size: 20+5 points, a 228k-entry pairwise tensor.
        p, q, _ = generate_synthetic(20, 5, 0.02, Transform(rotation=0.3), seed=1)
        path = tmp_path / "instance.txt"
        write_instance(path, build_pairwise_c(p, q))
        tracemalloc.start()
        try:
            loaded = read_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pair = loaded.potentials[1]
        assert pair.nnz == 228_000
        assert peak < 2.2 * (pair.indices.nbytes + pair.values.nbytes)

    def test_reading_a_model_c_instance_peaks_below_1_6_coordinate_tensors(self, tmp_path):
        # The parsed columns and the tensor's one dense array, no copy of
        # the columns and no sort.
        p, q, _ = generate_synthetic(20, 5, 0.02, Transform(rotation=0.3), seed=1)
        path = tmp_path / "instance.txt"
        write_instance(path, build_pairwise_c(p, q))
        tracemalloc.start()
        try:
            loaded = read_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pair = loaded.potentials[1]
        assert pair.nnz == 228_000 and pair._dense is not None
        assert peak < 1.6 * (pair.indices.nbytes + pair.values.nbytes)


def test_text_is_utf8_whatever_the_locale(tmp_path):
    (tmp_path / "tensor.txt").write_bytes("# café\norder 1 dim 3\n0 1.5  # naïve\n".encode())
    (tmp_path / "points.txt").write_bytes("# café\n1\n0.5 0.25\n".encode())
    (tmp_path / "config.txt").write_bytes(
        "# café\nmodel = a\nvalues = 0, 1\n".encode()
    )
    code = (
        "import sys\n"
        "from adgm.harness import read_experiment_config\n"
        "from adgm.io import read_points, read_tensor, write_solution\n"
        "d = sys.argv[1]\n"
        "read_experiment_config(d + '/config.txt')\n"
        "assert read_tensor(d + '/tensor.txt').values.tolist() == [1.5]\n"
        "assert read_points(d + '/points.txt').tolist() == [[0.5, 0.25]]\n"
        # An ASCII command line: the C locale cannot decode a non-ASCII one.
        "write_solution(d + '/solution.txt', [1.0], 1, 1, {'note': 'caf\\u00e9'})\n"
    )
    src = str(Path(adgm.__file__).resolve().parents[1])
    env = dict(
        os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
        check=True,
    )
    assert (tmp_path / "solution.txt").read_bytes() == "# note café\n0 0\n".encode()


def _write_config(path):
    path.write_text("model = a\nvalues = 0, 1\n", encoding="utf-8")


# Each reader with a writer of a file it reads.
_READERS = {
    "points": (lambda p: write_points(p, np.array([[0.5, 0.25], [1.0, -2.0]])), read_points),
    "edges": (lambda p: write_edges(p, [(0, 1), (1, 2)]), read_edges),
    "unary": (lambda p: write_unary(p, np.arange(6.0).reshape(2, 3) / 7), read_unary),
    "truth": (
        lambda p: write_truth(p, row_targets_to_truth([1, 2], 2, 3), 2, 3),
        lambda p: read_truth(p, 2, 3),
    ),
    "tensor": (
        lambda p: write_tensor(p, SparseTensor(2, 4, [[0, 1], [3, 2]], [1.5, -2.0])),
        read_tensor,
    ),
    "instance": (lambda p: write_instance(p, _sample_instance()), read_instance),
    "config": (_write_config, read_experiment_config),
}


def _same_read(a, b):
    if isinstance(a, MatchingInstance):
        return (
            (a.n1, a.n2, a.spec, a.sense, a.potentials) == (b.n1, b.n2, b.spec, b.sense, b.potentials)
            and np.array_equal(a.ground_truth, b.ground_truth)
        )
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("reader", list(_READERS))
def test_a_leading_byte_order_mark_is_skipped_and_never_written(tmp_path, reader):
    write, read = _READERS[reader]
    path = tmp_path / "plain.txt"
    write(path)
    data = path.read_bytes()
    assert not data.startswith(b"\xef\xbb\xbf")
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + data)
    assert _same_read(read(marked), read(path))


class TestTruth:
    def test_target_conversions_are_inverse(self):
        truth = np.zeros(12)
        truth[np.ravel_multi_index((np.array([0, 2]), np.array([1, 3])), (3, 4), order="F")] = 1.0
        targets = truth_to_row_targets(truth, 3, 4)
        assert targets.tolist() == [1, -1, 3]
        assert np.array_equal(row_targets_to_truth(targets, 3, 4), truth)

    def test_round_trip(self, tmp_path):
        truth = row_targets_to_truth([2, 0, -1], 3, 3)
        path = tmp_path / "truth.txt"
        write_truth(path, truth, 3, 3)
        assert np.array_equal(read_truth(path, 3, 3), truth)

    @pytest.mark.parametrize("line", ["0 1 2", "0 x", "2"])
    def test_malformed_line_names_the_file_and_line(self, tmp_path, line):
        path = tmp_path / "truth.txt"
        path.write_text(f"1 0\n{line}\n")
        message = f"^{re.escape(str(path))}: .*two indices 'i j', got '{line}'$"
        with pytest.raises(ValueError, match=message):
            read_truth(path, 3, 3)

    def test_out_of_range_pair_is_rejected(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("0 5\n")
        with pytest.raises(ValueError, match="out of range"):
            read_truth(path, 3, 3)

    @pytest.mark.parametrize(
        "text, message",
        [("0 1\n0 2\n", "row 0 is listed twice"), ("0 1\n2 1\n", "column 1 more than once")],
    )
    def test_a_row_or_column_listed_twice_is_rejected(self, tmp_path, text, message):
        path = tmp_path / "truth.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{message}"):
            read_truth(path, 3, 3)

    @pytest.mark.parametrize(
        "targets, message",
        [([0, 1], "must list 3 row targets"), ([0, 3, -1], "target 3 of row 1 not in"),
         ([-2, 0, 1], "target -2 of row 0 not in"), ([2, -1, 2], "column 2 more than once")],
    )
    def test_bad_row_targets_are_rejected(self, targets, message):
        with pytest.raises(ValueError, match=message):
            row_targets_to_truth(targets, 3, 3)

    def test_row_targets_lay_out_column_major(self):
        truth = row_targets_to_truth([2, -1, 0], 3, 4)
        expected = np.zeros((3, 4))
        expected[0, 2] = expected[2, 0] = 1.0
        assert truth.tobytes() == expected.ravel(order="F").tobytes()


def _sample_instance():
    n1, n2 = 2, 3
    n = n1 * n2
    unary = SparseTensor(1, n, [[0], [4]], [1.5, -2.0])
    pair = SparseTensor(2, n, [[0, 3], [3, 0], [1, 4]], [0.25, 0.25, 1.0])
    spec = ConstraintSpec(n1, n2, SideMode.EXACTLY_ONE, SideMode.AT_MOST_ONE)
    truth = row_targets_to_truth([1, 2], n1, n2)
    return MatchingInstance(n1, n2, (unary, pair), spec, Sense.MINIMIZE, truth)


class TestInstance:
    def test_round_trip_preserves_everything(self, tmp_path):
        instance = _sample_instance()
        path = tmp_path / "instance.txt"
        write_instance(path, instance)
        loaded = read_instance(path)
        assert (loaded.n1, loaded.n2) == (instance.n1, instance.n2)
        assert loaded.spec == instance.spec
        assert loaded.sense is instance.sense
        assert loaded.potentials == instance.potentials
        assert np.array_equal(loaded.ground_truth, instance.ground_truth)

    def test_round_trip_without_truth(self, tmp_path):
        instance = _sample_instance()
        bare = MatchingInstance(
            instance.n1, instance.n2, instance.potentials, instance.spec, instance.sense
        )
        path = tmp_path / "instance.txt"
        write_instance(path, bare)
        assert read_instance(path).ground_truth is None

    def test_comments_and_blanks_inside_sections_are_ignored(self, tmp_path):
        instance = _sample_instance()
        path = tmp_path / "instance.txt"
        write_instance(path, instance)
        text = path.read_text().replace("\n0 3 ", "\n\n# pairs\n  0 3 ")
        path.write_text(text.replace("\ntensor\n", "\ntensor  # next\n\n"))
        assert read_instance(path).potentials == instance.potentials

    def test_empty_pairwise_section_round_trips_without_warnings(self, tmp_path):
        instance = _sample_instance()
        empty = (instance.potentials[0], SparseTensor.empty(2, instance.n))
        bare = MatchingInstance(
            instance.n1, instance.n2, empty, instance.spec, instance.sense
        )
        path = tmp_path / "instance.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            write_instance(path, bare)
            assert read_instance(path).potentials == empty

    def test_missing_orders_are_filled_with_empty_tensors(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text(
            "matching-instance\n"
            "n1 2\nn2 2\nrows exactly-one\ncols exactly-one\nsense minimize\n"
            "tensor\norder 3 dim 4\n0 1 2 1.0\n"
        )
        loaded = read_instance(path)
        assert [t.order for t in loaded.potentials] == [1, 2, 3]
        assert loaded.potentials[0].nnz == 0
        assert loaded.potentials[1].nnz == 0
        assert loaded.potentials[2].nnz == 1

    def test_missing_magic_is_rejected(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text("n1 2\n")
        with pytest.raises(ValueError, match="not an instance file"):
            read_instance(path)

    def test_unknown_field_is_rejected(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text("matching-instance\nn3 2\n")
        with pytest.raises(ValueError, match="unknown instance field"):
            read_instance(path)

    def test_missing_fields_are_rejected(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text("matching-instance\nn1 2\nn2 2\n")
        with pytest.raises(ValueError, match="missing instance fields"):
            read_instance(path)

    def test_duplicate_order_is_rejected(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text(
            "matching-instance\n"
            "n1 2\nn2 2\nrows exactly-one\ncols exactly-one\nsense minimize\n"
            "tensor\norder 1 dim 4\n0 1.0\n"
            "tensor\norder 1 dim 4\n1 2.0\n"
        )
        with pytest.raises(ValueError, match="duplicate tensor"):
            read_instance(path)

    def test_dim_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text(
            "matching-instance\n"
            "n1 2\nn2 2\nrows exactly-one\ncols exactly-one\nsense minimize\n"
            "tensor\norder 1 dim 5\n0 1.0\n"
        )
        with pytest.raises(ValueError, match="does not match"):
            read_instance(path)

    def test_bad_truth_length_is_rejected(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text(
            "matching-instance\n"
            "n1 2\nn2 2\nrows exactly-one\ncols exactly-one\nsense minimize\n"
            "truth 0\n"
        )
        with pytest.raises(ValueError, match="must list 2 row targets"):
            read_instance(path)

    @pytest.mark.parametrize(
        "line, message",
        [("truth 5 0", "target 5 of row 0 not in"), ("truth 0 -2", "target -2 of row 1 not in"),
         ("truth 1 1", "matches column 1 more than once")],
    )
    def test_bad_truth_targets_are_rejected(self, tmp_path, line, message):
        path = tmp_path / "instance.txt"
        path.write_text(
            "matching-instance\n"
            "n1 2\nn2 2\nrows exactly-one\ncols exactly-one\nsense minimize\n"
            f"{line}\n"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truth {message}"):
            read_instance(path)

    @pytest.mark.parametrize(
        "old, new",
        [("n1 2", "n1 2x"), ("n2 2", "n2"), ("sense minimize", "sense minimize\ntruth 0 x"),
         ("order 1 dim 4", "order 1 dim x"), ("order 1 dim 4", "order 1 size 4")],
    )
    def test_malformed_integer_field_names_the_file_and_quotes_the_line(
        self, tmp_path, old, new
    ):
        path = tmp_path / "instance.txt"
        path.write_text(_HEADER.replace(old, new))
        line = new.splitlines()[-1]
        message = f"^{re.escape(str(path))}: .*, got {re.escape(repr(line))}$"
        with pytest.raises(ValueError, match=message):
            read_instance(path)

    @pytest.mark.parametrize("field, line", [("n1", "n1 3"), ("truth", "truth 1 0")])
    def test_repeated_field_is_rejected(self, tmp_path, field, line):
        path = tmp_path / "instance.txt"
        path.write_text(_HEADER.replace("sense minimize", f"sense minimize\ntruth 0 1\n{line}"))
        message = f"^{re.escape(str(path))}: instance field {field!r} is given twice$"
        with pytest.raises(ValueError, match=message):
            read_instance(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [("n1 2", "n1 0", "n1 and n2 must be >= 1"),
         ("n1 2", "n1 3", "every row matched exactly once needs n1 <= n2, got 3 x 2"),
         ("rows exactly-one", "rows bogus", "unknown side mode 'bogus'"),
         ("cols exactly-one", "cols bogus", "unknown side mode 'bogus'"),
         ("rows exactly-one", "rows unconstrained", "unknown side mode 'unconstrained'"),
         ("sense minimize", "sense bogus", "unknown sense 'bogus'")],
    )
    def test_bad_header_value_names_the_file(self, tmp_path, old, new, message):
        path = tmp_path / "instance.txt"
        path.write_text(_HEADER.replace(old, new))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_instance(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [("n1 2", "n1 0", "n1 and n2 must be >= 1"),
         ("sense minimize\n", "", "missing instance fields ['sense']"),
         ("rows exactly-one", "rows bogus", "unknown side mode 'bogus'")],
        ids=["n1-zero", "no-sense", "bogus-rows"],
    )
    def test_header_is_refused_before_any_tensor_section_is_parsed(
        self, tmp_path, monkeypatch, old, new, message
    ):
        def parse(*args):
            raise AssertionError("a tensor section was parsed")

        monkeypatch.setattr(io_module, "tensor_from_lines", parse)
        path = tmp_path / "instance.txt"
        path.write_text(_HEADER.replace(old, new))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_instance(path)

    @pytest.mark.parametrize(
        "section, message",
        [("order 0 dim 4\n5.0", "a potential tensor needs order >= 1, got 0"),
         ("order -1 dim 4\n0 1.0", "order must be >= 0, got -1"),
         ("order 2 dim 4\n0 4 1.0", "tensor indices out of range [0, dim)"),
         ("order 2 dim 4\n0 1 inf", "tensor values must be finite")],
    )
    def test_bad_tensor_section_names_the_file(self, tmp_path, section, message):
        path = tmp_path / "instance.txt"
        path.write_text(f"{_HEADER}tensor\n{section}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_instance(path)

    def test_tensor_header_error_keeps_its_wording(self, tmp_path):
        path = tmp_path / "tensor.txt"
        path.write_text("order 2 dim\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: bad tensor header"):
            read_tensor(path)


_HEADER = (
    "matching-instance\n"
    "n1 2\nn2 2\nrows exactly-one\ncols exactly-one\nsense minimize\n"
    "tensor\norder 1 dim 4\n0 1.0\n"
)


class TestSolutionAndTrace:
    def test_solution_file_lists_matches_and_metadata(self, tmp_path):
        assignment = row_targets_to_truth([1, -1, 0], 3, 2)
        path = tmp_path / "solution.txt"
        write_solution(path, assignment, 3, 2, metadata={"energy": -1.25})
        text = path.read_text()
        assert "# energy -1.25" in text
        assert np.array_equal(read_truth(path, 3, 2), assignment)

    def test_trace_round_trips_through_csv(self, tmp_path):
        rows = [(0, 0.5, 1.0, -3.25), (1, 0.25, 2.0, -3.5)]
        path = tmp_path / "trace.csv"
        write_trace(path, rows)
        with open(path, newline="") as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == ["iteration", "residual", "rho", "energy"]
        for row, (iteration, res, rho, energy_value) in zip(parsed[1:], rows):
            assert int(row[0]) == iteration
            assert float(row[1]) == res
            assert float(row[2]) == rho
            assert float(row[3]) == energy_value
