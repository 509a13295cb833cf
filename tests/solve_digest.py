"""Print digests of everything the solver stack computes on a fixed set.

Run it on two checkouts to check that a change leaves results
byte-identical::

    python3 tests/solve_digest.py

The first line is the digest of all sections together; then follows one
``name digest`` line per section, so a change that deliberately alters
one section shows every other one unchanged.  It imports the ``adgm``
package of the checkout it lives in and hashes, section by section
(models, schedules, random, hungarian, injective, parse, bench, pulls,
coordinate_pulls, delaunay):

- every ``SolverResult`` field except ``wall_time``, traced, for both
  variants, on models a, b, c and third (seeds 0-2, 6 inliers plus 2
  outliers) and on 30 random instances (sizes 1-4, orders 1-3, both
  senses, every exactly-one / at-most-one side combination the sizes
  allow);
- the same on the seed-0 models under short penalty schedules
  (``t1 = t2 = 1``; ``t1 = 5, t2 = 2, beta = 3``; ``t1 = t2 = 7``) and
  under ``max_iter = 40``;
- ``brute_force_optimum`` on the random instances;
- ``hungarian`` on random and on tie-heavy integer profits;
- ``ConstraintSpec.injective`` for sizes 1-5;
- ``SideMode.parse``, ``Sense.parse`` and ``Variant.parse`` on a fixed
  list of spellings: the member, or the text of the refusal;
- the ``trials.csv`` and ``summary.csv`` of one ``adgm bench`` sweep,
  without their time columns;
- ``partial_contraction`` of a supersymmetric order-3 tensor, through
  every mode, for blocks on a recurring pool of supports (more than the
  pull keeps plans for), with +-0.0, subnormal, huge, infinite and NaN
  entries;
- ``partial_contraction`` through every open mode of coordinate tensors of
  orders 1-4, sparse ones and ones at least half full (an order-2 one held
  as a dense array, another with its entries in a few full columns), for
  work vectors with +-0.0, subnormal, huge, infinite and NaN entries, all
  zero, mostly zero or without zeros;
- ``delaunay_edges`` on uniform sets of 2-20, 25, 30, 40 and 60 points, a
  6 x 5 grid and scaled, shifted and rotated copies of it, collinear points
  (exactly and up to rounding), near-duplicate, cocircular (with and
  without the centre) and repeated points, and coordinates scaled by 1e80,
  1e150 and 1e-150.

Floats are hashed bit for bit, so a digest depends on the platform and
its numpy build: compare digests taken on one machine.  Pytest does not
collect this file; ``test_digest.py`` checks each section against the
digests pinned there.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from dataclasses import fields
from enum import Enum
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from adgm.cli import main as cli_main  # noqa: E402
from adgm.constraints import ConstraintSpec, SideMode  # noqa: E402
from adgm.discretize import brute_force_optimum, hungarian  # noqa: E402
from adgm.harness import generate_synthetic  # noqa: E402
from adgm.models import MODELS, build_model, delaunay_edges  # noqa: E402
from adgm.solver import MatchingInstance, Sense, SolverConfig, Variant, solve  # noqa: E402
from adgm.tensor import SparseTensor, partial_contraction, symmetrize  # noqa: E402

ONE_TO_ONE = (SideMode.EXACTLY_ONE, SideMode.AT_MOST_ONE)
BENCH_CONFIG = """\
model = a
values = 0,1
inliers = 5
trials = 2
methods = adgm1,adgm2
seed = 4
"""
TIME_COLUMNS = {"time_ms", "mean_time_ms"}
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.inf, -np.inf, np.nan)
SCHEDULES = (
    dict(t1=1, t2=1),
    dict(t1=5, t2=2, beta=3.0),
    dict(t1=7, t2=7),
    dict(max_iter=40),
)
SPELLINGS = (
    "exactly-one", "AT_MOST_ONE", " Unconstrained ", "at most one", "exactly_one\t",
    "minimize", " MAXIMIZE", "Maxi_mize", "adgm1", "ADGM2 ", "adgm-1", "adgm_2",
    "", "x", None, 1,
)


def feed(digest, value):
    """Hash ``value`` with its type and shape, floats bit for bit."""
    if isinstance(value, np.ndarray):
        digest.update(f"array{value.shape}{value.dtype.str}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.generic):
        feed(digest, value.item())
    elif isinstance(value, float):
        digest.update(b"f" + value.hex().encode())
    elif isinstance(value, (list, tuple)):
        digest.update(f"seq{len(value)}".encode())
        for item in value:
            feed(digest, item)
    elif isinstance(value, Enum):
        feed(digest, value.value)
    else:  # bool, int, str, None
        digest.update(f"{type(value).__name__}:{value!r}".encode())


def feed_solves(digest, instance, **overrides):
    for variant in Variant:
        config = SolverConfig(variant=variant, **overrides)
        result = solve(instance, config, collect_trace=True)
        for f in fields(result):
            if f.name != "wall_time":
                feed(digest, (f.name, getattr(result, f.name)))


def random_tensor(rng, order, dim):
    nnz = min(dim**order, 2 * dim)
    indices = rng.integers(0, dim, size=(nnz, order))
    return SparseTensor(order, dim, indices, rng.normal(0.0, 1.0, nnz))


def one_to_one_specs(n1, n2):
    """Every exactly-one / at-most-one spec that ``n1 x n2`` allows."""
    for rows, cols in product(ONE_TO_ONE, ONE_TO_ONE):
        if rows is SideMode.EXACTLY_ONE and n1 > n2:
            continue
        if cols is SideMode.EXACTLY_ONE and n2 > n1:
            continue
        yield ConstraintSpec(n1, n2, rows, cols)


def model_instance(model, seed):
    points1, points2, truth = generate_synthetic(6, 2, 0.02, seed=seed)
    return build_model(model, points1, points2, seed=seed, ground_truth=truth)


def feed_models(digest):
    for model, seed in product(MODELS, range(3)):
        feed_solves(digest, model_instance(model, seed))


def feed_schedules(digest):
    for model, overrides in product(MODELS, SCHEDULES):
        feed_solves(digest, model_instance(model, 0), **overrides)


def feed_random(digest):
    rng = np.random.default_rng(2017)
    for _ in range(30):
        n1, n2, order = (int(v) for v in rng.integers(1, [5, 5, 4]))
        sense = Sense.MAXIMIZE if rng.random() < 0.5 else Sense.MINIMIZE
        n = n1 * n2
        potentials = tuple(random_tensor(rng, k, n) for k in range(1, order + 1))
        for spec in one_to_one_specs(n1, n2):
            instance = MatchingInstance(n1, n2, potentials, spec, sense)
            feed_solves(digest, instance)
            feed(digest, brute_force_optimum(instance))


def feed_hungarian(digest):
    rng = np.random.default_rng(1611)
    for n1, n2 in product(range(1, 6), repeat=2):
        for spec in one_to_one_specs(n1, n2):
            feed(digest, hungarian(rng.normal(0.0, 1.0, (n1, n2)), spec))
            ties = rng.integers(-2, 3, (n1, n2)).astype(np.float64)
            feed(digest, hungarian(ties, spec))


def feed_injective(digest):
    for n1, n2 in product(range(1, 6), repeat=2):
        spec = ConstraintSpec.injective(n1, n2)
        feed(digest, (spec.n1, spec.n2, spec.row_mode, spec.col_mode))


def feed_parse(digest):
    for enum, text in product((SideMode, Sense, Variant), SPELLINGS):
        try:
            feed(digest, enum.parse(text))
        except ValueError as exc:
            feed(digest, str(exc))


def feed_bench(digest):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sweep.cfg"
        config.write_text(BENCH_CONFIG)
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main(["bench", str(config), "--out", str(out)])
        feed(digest, status)
        for name in ("trials.csv", "summary.csv"):
            with open(out / name, newline="") as handle:
                for row in csv.DictReader(handle):
                    feed(digest, [(k, v) for k, v in row.items() if k not in TIME_COLUMNS])


def feed_pulls(digest):
    rng = np.random.default_rng(1703)
    dim, nnz = 40, 6000
    indices = rng.integers(0, dim, size=(nnz, 3))
    tensor = symmetrize(SparseTensor(3, dim, indices, rng.normal(0.0, 1.0, nnz)))
    sizes = (0, 1, 2, 3, 5, 8, 8, 12, 13, 21, 30, dim)
    pool = [np.sort(rng.choice(dim, size=k, replace=False)) for k in sizes]
    for k in rng.integers(0, len(pool), size=300):
        support = pool[k]
        scale = rng.choice([1.0, 1e-310, 1e300])
        blocks = []
        for _ in range(2):
            block = np.full(dim, rng.choice([0.0, -0.0]))
            block[support] = rng.normal(0.0, scale, support.size)
            special = support[rng.random(support.size) < 0.1]
            block[special] = rng.choice(SPECIAL_FLOATS, size=special.size)
            blocks.append(block)
        mode = int(rng.integers(1, 4))
        with np.errstate(over="ignore", invalid="ignore"):
            feed(digest, partial_contraction(tensor, mode, blocks[: mode - 1], blocks[mode - 1 :]))


def coordinate_tensors(rng):
    """Tensors of orders 1-4 that no half operator serves, each built from
    shuffled rows so that it is canonicalized: sparse and at least half
    full grids, an order-2 one whose entries fill three columns, and one
    order-2 one held as a dense array."""
    for order, dim in ((1, 20), (2, 9), (3, 6), (4, 4)):
        grid = np.indices((dim,) * order).reshape(order, -1).T
        for density in (0.15, 0.7):
            yield grid[rng.random(grid.shape[0]) < density], order, dim
    yield np.indices((9, 3)).reshape(2, -1).T, 2, 9


def feed_coordinate_pulls(digest):
    rng = np.random.default_rng(2402)
    for rows, order, dim in coordinate_tensors(rng):
        rows = rng.permutation(rows)
        scale = rng.choice([1.0, 1e-310, 1e300])
        tensor = SparseTensor(order, dim, rows, rng.normal(0.0, scale, rows.shape[0]))
        feed(digest, (tensor.order, tensor.nnz, tensor._dense is not None))
        kinds = product(range(1, order + 1), (0.0, 0.8, 1.0), (0.0, 0.15), range(2))
        for open_mode, zeros, specials, _ in kinds:
            vectors = []
            for _ in range(order - 1):
                work = rng.normal(0.0, rng.choice([1.0, 1e-310, 1e300]), dim)
                zero = rng.random(dim) < zeros
                work[zero] = rng.choice([0.0, -0.0], size=np.count_nonzero(zero))
                special = rng.random(dim) < specials
                work[special] = rng.choice(SPECIAL_FLOATS, size=np.count_nonzero(special))
                vectors.append(work)
            left, right = vectors[: open_mode - 1], vectors[open_mode - 1 :]
            with np.errstate(over="ignore", invalid="ignore"):
                feed(digest, partial_contraction(tensor, open_mode, left, right))


def delaunay_point_sets(rng):
    """Point sets that exercise the empty-circle test and the cocircular
    tie rule of ``delaunay_edges``, degenerate sets included."""
    for n in (*range(2, 21), 25, 30, 40, 60):
        yield rng.random((n, 2))
    grid = np.indices((6, 5)).reshape(2, -1).T.astype(np.float64)
    turn = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    yield from (grid, grid * 3.7, grid + [12.5, -4.25], grid @ turn.T)
    # Collinear exactly, and up to rounding.
    yield np.arange(8)[:, None] * [2.0, 1.0] + [1.0, 3.0]
    yield np.linspace(0.0, 1.0, 8)[:, None] * [2.0, 1.0] + [1.0, 3.0]
    base = rng.random((13, 2))
    yield np.concatenate([base, base[:12] + rng.normal(0.0, 1e-12, (12, 2))])
    angles = 2.0 * np.pi * np.arange(12) / 12
    circle = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    yield from (circle, np.concatenate([circle, [[0.0, 0.0]]]))
    points = rng.random((10, 2))
    yield from (points[[0, 1, 2, 3, 1, 4, 5, 6, 0, 7, 8, 9, 3]], np.ones((4, 2)))
    # Crossing tests overflow near 1e80; circles near 1e120.
    points = rng.random((12, 2))
    yield from (points * 1e80, points * 1e150, points * 1e-150)


def feed_delaunay(digest):
    rng = np.random.default_rng(1405)
    for points in delaunay_point_sets(rng):
        feed(digest, delaunay_edges(points))


SECTIONS = (
    ("models", feed_models),
    ("schedules", feed_schedules),
    ("random", feed_random),
    ("hungarian", feed_hungarian),
    ("injective", feed_injective),
    ("parse", feed_parse),
    ("bench", feed_bench),
    ("pulls", feed_pulls),
    ("coordinate_pulls", feed_coordinate_pulls),
    ("delaunay", feed_delaunay),
)


class Tee:
    """Feeds every update to each of several digests."""

    def __init__(self, *digests):
        self.digests = digests

    def update(self, data):
        for digest in self.digests:
            digest.update(data)


def new_digest():
    return hashlib.blake2b(digest_size=16)


def section_digest(feed_section):
    """The hex digest of one section, as ``main`` prints it."""
    section = new_digest()
    feed_section(section)
    return section.hexdigest()


def main():
    total = new_digest()
    lines = []
    for name, feed_section in SECTIONS:
        section = new_digest()
        feed_section(Tee(total, section))
        lines.append(f"{name} {section.hexdigest()}")
    print(total.hexdigest())
    print("\n".join(lines))


if __name__ == "__main__":
    main()
