"""Text file formats: point sets, edge lists, tensors, instances,
solutions, and solver traces.

All formats are line-oriented UTF-8 text with ``#`` comments and blank
lines ignored.  Floats are written with ``repr`` so reads round-trip
bit-exactly.  Tensors and instances are written and read in bounded chunks,
so neither holds a whole file as text.  See the README for worked examples
of every format.
"""

from __future__ import annotations

import csv
import itertools

import numpy as np

from .constraints import ConstraintSpec, SideMode, as_matrix, assignment_index
from .solver import MatchingInstance, Sense
from .tensor import SparseTensor


# Rows formatted at a time when a table is written, and characters read at
# a time (then completed to the end of their line) when a file is read, so
# that neither holds a whole file as text.
_CHUNK_ROWS = 4096
_CHUNK_CHARS = 1 << 16

# Text is read as UTF-8 with or without a leading byte-order mark, which
# some editors add; it is written without one.
_READ_ENCODING = "utf-8-sig"


def _data_lines(handle):
    """The data lines of the open text file ``handle``: each line cut at its
    first ``#`` and stripped, blank lines dropped.

    The file is read in blocks of whole lines.  A line ends wherever
    ``str.splitlines`` ends one (at ``\\f`` or ``\\u2028`` too, not only at
    ``\\n``), as when a whole file was split at once.
    """

    # Lists chained in C: a generator that yields line by line costs about
    # a tenth more per read.
    def blocks():
        while block := handle.read(_CHUNK_CHARS):
            block += handle.readline()
            if "#" in block:
                yield [
                    line for raw in block.splitlines() if (line := raw.split("#", 1)[0].strip())
                ]
            else:
                # No comment to cut: the lines are stripped in C.
                yield list(filter(None, map(str.strip, block.splitlines())))

    return itertools.chain.from_iterable(blocks())


def _read_data_lines(path):
    """The data lines of the UTF-8 text file ``path``, as a list."""
    with open(path, encoding=_READ_ENCODING) as handle:
        return list(_data_lines(handle))


def _write_text(path, chunks):
    """Write the lists of lines ``chunks`` to ``path`` as UTF-8, one after
    another, each line ended by a newline."""
    with open(path, "w", encoding="utf-8") as handle:
        for lines in chunks:
            if lines:
                handle.write("\n".join(lines))
                handle.write("\n")
            # Not held while the next chunk is made.
            del lines


def _fmt(value):
    return repr(float(value))


def _row_chunks(columns):
    """Lines of the equal-length 1-D arrays ``columns``, one per row, in
    lists of at most ``_CHUNK_ROWS``: float fields written with ``repr``,
    integer fields with ``str``, joined by single spaces."""
    rows = len(columns[0]) if columns else 0
    if rows == 0:
        return
    formats = [
        _float_texts if c.dtype.kind == "f" else _int_format(int(c.min()), int(c.max()), c.size)
        for c in columns
    ]
    for start in range(0, rows, _CHUNK_ROWS):
        part = slice(start, start + _CHUNK_ROWS)
        yield _lines(formats, [c[part] for c in columns])


def _lines(formats, columns):
    """The lines of the equal-length 1-D arrays ``columns``, each field
    written by its function in ``formats``.  The fields go as soon as their
    lines are joined."""
    return list(map(" ".join, zip(*[fmt(c) for fmt, c in zip(formats, columns)])))


def _float_texts(part):
    """``repr`` of each float of the 1-D array ``part``."""
    return list(map(repr, part.tolist()))


def _int_format(low, high, size):
    """A function from a slice of a 1-D integer array of ``size`` values in
    ``[low, high]`` to the ``str`` of each of its fields.

    When the range holds no more values than the array, as a tensor's index
    column does once it stores more entries than its dim, the texts come
    from a table of ``str`` of each value in it, made once: no int and no
    str is made per field.  A wider range keeps ``str`` per field, so the
    table is never larger than the array."""
    if high - low >= size:
        return lambda part: list(map(str, part.tolist()))
    texts = np.array([str(i) for i in range(low, high + 1)], dtype=object)
    return lambda part: texts.take(part - low).tolist()


def _ints(path, line, count, need, parts=None):
    """The ``count`` integer fields of the data line ``line`` (any number
    of them when ``count`` is None); ``parts`` picks which fields, all by
    default.  Otherwise a ValueError that names the file, says what the
    line ``need``s and quotes it."""
    parts = line.split() if parts is None else parts
    if count is None or len(parts) == count:
        try:
            return [int(p) for p in parts]
        except ValueError:
            pass
    raise ValueError(f"{path}: {need}, got {line!r}")


def _named(path, build, *args):
    """``build(*args)``, with the file ``path`` named in its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_rows(lines, dtype):
    """Parse whitespace-separated data lines (no comments, no blank lines),
    from any iterable, into a 1-D structured array of ``dtype``.

    Ragged rows, extra columns and non-integer text in an integer field
    raise ValueError.  No lines give an empty array; they never reach
    ``np.loadtxt``, which warns on empty input.
    """
    lines = iter(lines)
    first = next(lines, None)
    if first is None:
        return np.empty(0, dtype=dtype)
    return np.loadtxt(itertools.chain([first], lines), dtype=dtype, ndmin=1)


# -- point sets -------------------------------------------------------


def write_points(path, points):
    """Point-set file: header line ``n``, then one ``x y`` line per point."""
    points = np.asarray(points, dtype=np.float64)
    head = [str(points.shape[0])]
    _write_text(path, itertools.chain([head], _row_chunks(list(points.T))))


def read_points(path):
    lines = _read_data_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty point file")
    (count,) = _ints(path, lines[0], 1, "the header needs one point count")
    if len(lines) - 1 != count:
        raise ValueError(f"{path}: expected {count} points, found {len(lines) - 1}")
    try:
        rows = _parse_rows(lines[1:], [("xy", np.float64, (2,))])
    except ValueError as exc:
        raise ValueError(f"{path}: points must have two coordinates ({exc})") from None
    return rows["xy"]


# -- edge lists -------------------------------------------------------


def write_edges(path, edges):
    """Edge-list file: one ``i j`` line per unordered edge."""
    _write_text(path, [[f"{int(i)} {int(j)}" for i, j in edges]])


def read_edges(path):
    return [
        tuple(_ints(path, line, 2, "edge lines need two indices"))
        for line in _read_data_lines(path)
    ]


# -- unary score matrices ---------------------------------------------


def write_unary(path, matrix):
    """Unary matrix file: header ``n1 n2``, then one row per line."""
    matrix = np.asarray(matrix, dtype=np.float64)
    head = [f"{matrix.shape[0]} {matrix.shape[1]}"]
    _write_text(path, itertools.chain([head], _row_chunks(list(matrix.T))))


def read_unary(path):
    lines = _read_data_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty unary file")
    n1, n2 = _ints(path, lines[0], 2, "the header needs two sizes 'n1 n2'")
    try:
        matrix = _parse_rows(lines[1:], [("row", np.float64, (n2,))])["row"]
    except ValueError as exc:
        raise ValueError(f"{path}: expected a {n1} x {n2} matrix ({exc})") from None
    if matrix.shape != (n1, n2):
        raise ValueError(f"{path}: expected a {n1} x {n2} matrix, got {matrix.shape}")
    return matrix


# -- tensors ----------------------------------------------------------


def _tensor_chunks(tensor):
    """The lines of tensor_to_lines, in lists of at most ``_CHUNK_ROWS``
    (or one row of a tensor held as a dense array), made from the entries a
    chunk at a time."""
    yield [f"order {tensor.order} dim {tensor.dim}"]
    # Every index lies in [0, dim).
    formats = [_int_format(0, tensor.dim - 1, tensor.nnz)] * tensor.order + [_float_texts]
    for columns, values in tensor._entry_chunks(_CHUNK_ROWS):
        lines = _lines(formats, [*columns, values])
        # An order-0 entry keeps the space that follows the indices it lacks.
        yield [" " + line for line in lines] if tensor.order == 0 else lines


def tensor_to_lines(tensor):
    """Tensor section: header ``order D dim n`` then ``i_1 ... i_D value``
    per entry (0-based indices, canonical order)."""
    return list(itertools.chain.from_iterable(_tensor_chunks(tensor)))


def tensor_from_lines(lines, path="tensor section"):
    """Inverse of tensor_to_lines; ``lines``, any iterable, hold no comments
    or blank lines.  Errors name ``path``, the file the lines came from."""
    lines = iter(lines)
    header = next(lines, None)
    if header is None:
        raise ValueError(f"{path}: empty tensor section")
    head = header.split()
    keyed = len(head) == 4 and head[0] == "order" and head[2] == "dim"
    order, dim = _ints(
        path, header, 2, "bad tensor header, need 'order D dim n'", head[1::2] if keyed else []
    )
    if order < 0:
        # Refused here, as SparseTensor would: no entry dtype has -1 indices.
        raise ValueError(f"{path}: order must be >= 0, got {order}")
    try:
        rows = _parse_rows(lines, [("idx", np.int64, (order,)), ("val", np.float64)])
    except ValueError as exc:
        raise ValueError(
            f"{path}: tensor entry needs {order} indices and a value ({exc})"
        ) from None
    return _named(path, SparseTensor, order, dim, rows["idx"], rows["val"])


def write_tensor(path, tensor):
    _write_text(path, _tensor_chunks(tensor))


def read_tensor(path):
    with open(path, encoding=_READ_ENCODING) as handle:
        return tensor_from_lines(_data_lines(handle), path)


# -- ground truth -----------------------------------------------------


def truth_to_row_targets(truth, n1, n2):
    """Convert a hard assignment vector to per-row target indices (-1 =
    unmatched)."""
    matrix = as_matrix(truth, n1, n2)
    targets = np.full(n1, -1, dtype=np.int64)
    rows, cols = np.nonzero(matrix)
    targets[rows] = cols
    return targets


def row_targets_to_truth(targets, n1, n2):
    """Inverse of truth_to_row_targets.

    Raises ValueError unless ``targets`` lists one target per row, each a
    column in ``[0, n2)`` or -1, and no column twice.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n1,):
        raise ValueError(f"truth must list {n1} row targets, got {targets.size}")
    bad = np.flatnonzero((targets < -1) | (targets >= n2))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"truth target {int(targets[i])} of row {i} not in [-1, {n2})")
    rows = np.flatnonzero(targets >= 0)
    cols, counts = np.unique(targets[rows], return_counts=True)
    if np.any(counts > 1):
        raise ValueError(f"truth matches column {int(cols[counts > 1][0])} more than once")
    truth = np.zeros(n1 * n2)
    truth[assignment_index(rows, targets[rows], n1)] = 1.0
    return truth


def write_truth(path, truth, n1, n2):
    """Truth file: one ``i j`` line per matched pair."""
    targets = truth_to_row_targets(truth, n1, n2)
    _write_text(path, [[f"{i} {int(j)}" for i, j in enumerate(targets) if j >= 0]])


def read_truth(path, n1, n2):
    targets = np.full(n1, -1, dtype=np.int64)
    for line in _read_data_lines(path):
        i, j = _ints(path, line, 2, "truth lines need two indices 'i j'")
        if not (0 <= i < n1 and 0 <= j < n2):
            raise ValueError(f"{path}: pair ({i}, {j}) out of range")
        if targets[i] >= 0:
            raise ValueError(f"{path}: row {i} is listed twice")
        targets[i] = j
    return _named(path, row_targets_to_truth, targets, n1, n2)


# -- matching instances -----------------------------------------------

_MAGIC = "matching-instance"
_FIELDS = ("n1", "n2", "rows", "cols", "sense", "truth")


def write_instance(path, instance):
    """Self-describing instance container: sizes, side modes, sense, an
    optional truth line (per-row target index, -1 = unmatched), then one
    ``tensor`` section per potential order."""
    head = [
        _MAGIC,
        f"n1 {instance.n1}",
        f"n2 {instance.n2}",
        f"rows {instance.spec.row_mode.value}",
        f"cols {instance.spec.col_mode.value}",
        f"sense {instance.sense.value}",
    ]
    if instance.ground_truth is not None:
        targets = truth_to_row_targets(instance.ground_truth, instance.n1, instance.n2)
        head.append("truth " + " ".join(str(int(j)) for j in targets))

    def chunks():
        yield head
        for tensor in instance.potentials:
            yield ["tensor"]
            yield from _tensor_chunks(tensor)

    _write_text(path, chunks())


def read_instance(path):
    with open(path, encoding=_READ_ENCODING) as handle:
        return _instance_from_lines(_data_lines(handle), path)


def _instance_from_lines(lines, path):
    """The instance that the data lines ``lines`` of the file ``path`` hold,
    read section by section as they come."""
    # Each "tensor" line opens a section.  One more closes the last, so that
    # every section ends at a "tensor" line.
    lines = itertools.chain(lines, ["tensor"])
    header = list(itertools.takewhile("tensor".__ne__, lines))
    if not header or header[0] != _MAGIC:
        raise ValueError(f"{path}: not an instance file (missing {_MAGIC!r} header)")
    fields = {}  # field -> (its line, the text after the field name)
    for line in header[1:]:
        key, _, rest = line.partition(" ")
        if key not in _FIELDS:
            raise ValueError(f"{path}: unknown instance field {key!r}")
        if key in fields:
            raise ValueError(f"{path}: instance field {key!r} is given twice")
        fields[key] = line, rest.strip()

    # Every header field is checked before any tensor section is parsed.
    missing = set(_FIELDS) - {"truth"} - set(fields)
    if missing:
        raise ValueError(f"{path}: missing instance fields {sorted(missing)}")

    def ints(key, count, need):
        line, rest = fields[key]
        return _ints(path, line, count, f"field {key!r} needs {need}", rest.split())

    (n1,), (n2,) = ints("n1", 1, "one integer"), ints("n2", 1, "one integer")
    rows, cols = (_named(path, SideMode.parse, fields[key][1]) for key in ("rows", "cols"))
    spec = _named(path, ConstraintSpec, n1, n2, rows, cols)
    truth = None
    if "truth" in fields:
        targets = ints("truth", None, "integer row targets")
        truth = _named(path, row_targets_to_truth, targets, n1, n2)
    sense = _named(path, Sense.parse, fields["sense"][1])
    n = n1 * n2
    by_order = {}
    while (first := next(lines, None)) is not None:
        # tensor_from_lines reads its section up to the "tensor" line that
        # closes it.  A section with no lines is refused as empty.
        section = [] if first == "tensor" else itertools.chain(
            [first], itertools.takewhile("tensor".__ne__, lines)
        )
        tensor = tensor_from_lines(section, path)
        if tensor.order < 1:
            raise ValueError(f"{path}: a potential tensor needs order >= 1, got {tensor.order}")
        if tensor.dim != n:
            raise ValueError(f"{path}: tensor dim {tensor.dim} does not match n={n}")
        if tensor.order in by_order:
            raise ValueError(f"{path}: duplicate tensor of order {tensor.order}")
        by_order[tensor.order] = tensor
    max_order = max(by_order) if by_order else 1
    potentials = tuple(
        by_order.get(k, SparseTensor.empty(k, n)) for k in range(1, max_order + 1)
    )
    return _named(path, MatchingInstance, n1, n2, potentials, spec, sense, truth)


# -- solutions and traces ---------------------------------------------


def write_solution(path, assignment, n1, n2, metadata=None):
    """Solution file: ``# key value`` metadata lines, then one matched
    ``i j`` pair per line."""
    lines = []
    for key, value in (metadata or {}).items():
        lines.append(f"# {key} {value}")
    targets = truth_to_row_targets(assignment, n1, n2)
    lines += [f"{i} {int(j)}" for i, j in enumerate(targets) if j >= 0]
    _write_text(path, [lines])


def write_trace(path, rows):
    """Solver trace CSV: iteration, residual, rho, energy."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "residual", "rho", "energy"])
        for iteration, res, rho, energy_value in rows:
            writer.writerow([iteration, _fmt(res), _fmt(rho), _fmt(energy_value)])
