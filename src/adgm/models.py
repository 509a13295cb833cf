"""Geometric energy models for point-set matching.

Four instance builders score candidate correspondences by how well they
preserve geometry between two 2-D point sets:

* ``build_pairwise_a`` — edge-based dissimilarity over given graph edges
  (relative length change and turning angle, exponentially weighted),
  plus an externally supplied unary score matrix.  Minimization.
* ``build_pairwise_b`` — fully connected length-preservation affinity.
  Maximization.
* ``build_pairwise_c`` — fully connected length + direction
  dissimilarity.  Minimization.
* ``build_third_order`` — triangle-shape affinity over sampled source
  triangles and their nearest target triangles in angle space.
  Maximization.

``build_model`` dispatches on a model name (``MODELS``) and
``model_parameters`` names what that builder takes; ``delaunay_edges``
supplies the default graph edges of the edge-based model.
"""

from __future__ import annotations

import inspect
from itertools import combinations, permutations

import numpy as np

from .constraints import ConstraintSpec, as_vector, assignment_index
from .solver import MatchingInstance, Sense
from .tensor import SparseTensor

# Below this total length a segment pair carries no usable geometry.
_DEGENERATE_LENGTH = 1e-12
# Triangles with a smaller minimum sine of any interior angle are treated
# as collinear and skipped.
_COLLINEAR_SIN = 1e-9


def _as_points(points, min_count=1):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {pts.shape}")
    if pts.shape[0] < min_count:
        raise ValueError(f"need at least {min_count} points, got {pts.shape[0]}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point coordinates must be finite")
    return pts


def pair_geometry(points1, i, j, points2, i2, j2):
    """Compare segment (i -> j) of the first set with (i2 -> j2) of the
    second: returns ``(delta, cos_alpha)`` where delta is the relative
    length difference |d1 - d2| / (d1 + d2) and cos_alpha the cosine of
    the turning angle between the segments, exactly as the builders
    compute them.

    Coincident endpoints carry no geometric evidence: when both segments
    are degenerate the pair scores as identical (0, 1); when only one is,
    the angle is treated as aligned (cos 1) while delta keeps its value.
    Every endpoint must lie in ``[0, n)`` for its set of ``n`` points.
    """
    points1, points2 = _as_points(points1), _as_points(points2)
    for points, index in ((points1, i), (points1, j), (points2, i2), (points2, j2)):
        if not 0 <= index < len(points):
            raise ValueError(
                f"segment endpoint {index} out of range for {len(points)} points"
            )
    d1, u1 = _segment_table(points1, [i], [j])
    d2, u2 = _segment_table(points2, [i2], [j2])
    delta, cos_alpha = _pair_values(d1, u1, d2, u2)
    return float(delta[0, 0]), float(cos_alpha[0, 0])


def _segment_table(points, sources, targets):
    """Lengths and unit vectors for the segments sources[k] -> targets[k]."""
    vecs = points[targets] - points[sources]
    lengths = np.hypot(vecs[:, 0], vecs[:, 1])
    safe = np.where(lengths < _DEGENERATE_LENGTH, 1.0, lengths)
    units = vecs / safe[:, None]
    return lengths, units


def _pair_values(d1, u1, d2, u2):
    """delta and cos_alpha (see pair_geometry) for every segment of set 1
    against every segment of set 2."""
    return _pair_terms(d1, d2, u1 @ u2.T)


def _pair_terms(d1, d2, dots):
    """delta and cos_alpha of the segments of lengths ``d1`` against those
    of lengths ``d2``, given the dot products ``dots`` of their unit
    vectors.  Every operation is elementwise, so rows of the result are
    the result for rows of ``d1`` and ``dots``."""
    sums = d1[:, None] + d2[None, :]
    diffs = np.abs(d1[:, None] - d2[None, :])
    both_degenerate = sums < _DEGENERATE_LENGTH
    delta = np.where(both_degenerate, 0.0, diffs / np.where(both_degenerate, 1.0, sums))
    cos_alpha = np.clip(dots, -1.0, 1.0)
    any_degenerate = (d1 < _DEGENERATE_LENGTH)[:, None] | (
        d2 < _DEGENERATE_LENGTH
    )[None, :]
    cos_alpha = np.where(any_degenerate, 1.0, cos_alpha)
    return delta, cos_alpha


def _pairwise_tensor(n1, n2, srcs1, tgts1, srcs2, tgts2, values):
    """Assemble an order-2 tensor from per-(segment1, segment2) values."""
    a = assignment_index(srcs1[:, None], srcs2[None, :], n1)
    b = assignment_index(tgts1[:, None], tgts2[None, :], n1)
    indices = np.stack([a.ravel(), b.ravel()], axis=1)
    return SparseTensor(2, n1 * n2, indices, values.ravel())


def _directed_pairs(n):
    """All ordered index pairs (i, j), i != j, in row-major order."""
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    return i, j


def _resolve_spec(spec, n1, n2):
    if spec is None:
        return ConstraintSpec.injective(n1, n2)
    if (spec.n1, spec.n2) != (n1, n2):
        raise ValueError("constraint spec sizes must match the point sets")
    return spec


def _normalized_edges(edges, n):
    """Validate and dedupe an unordered edge list."""
    seen = set()
    for edge in edges:
        i, j = (int(edge[0]), int(edge[1]))
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for {n} points")
        if i == j:
            raise ValueError(f"self-loop edge ({i}, {j}) is not allowed")
        seen.add((min(i, j), max(i, j)))
    return sorted(seen)


def build_pairwise_a(
    points1,
    points2,
    edges1=None,
    edges2=None,
    unary=None,
    eta=0.5,
    sigma_l=0.5,
    sigma_a=np.pi / 2,
    unary_offset=0.0,
    spec=None,
    ground_truth=None,
):
    """Edge-based dissimilarity instance (minimization).

    Pairwise entries exist only where a graph edge of the first set meets
    a graph edge of the second, scored
    ``eta * exp(delta^2 / sigma_l^2) + (1 - eta) * exp(alpha^2 / sigma_a^2) - 1``
    with alpha the turning angle; each unordered edge pair is emitted in
    both orientations.  Unary entries are the supplied matrix minus
    ``unary_offset`` (a large offset discourages occlusion).  Edges left
    out are the Delaunay edges of their set; a unary left out is zero.
    """
    for name, value in (("sigma_l", sigma_l), ("sigma_a", sigma_a)):
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")
    pts1 = _as_points(points1)
    pts2 = _as_points(points2)
    n1, n2 = pts1.shape[0], pts2.shape[0]
    spec = _resolve_spec(spec, n1, n2)
    if edges1 is None:
        edges1 = delaunay_edges(pts1)
    if edges2 is None:
        edges2 = delaunay_edges(pts2)
    unary = np.zeros((n1, n2)) if unary is None else np.asarray(unary, dtype=np.float64)
    if unary.shape != (n1, n2):
        raise ValueError(f"unary must have shape ({n1}, {n2}), got {unary.shape}")

    unary_tensor = SparseTensor(
        1, n1 * n2, np.arange(n1 * n2)[:, None], as_vector(unary - unary_offset)
    )

    pair1 = _normalized_edges(edges1, n1)
    pair2 = _normalized_edges(edges2, n2)
    if pair1 and pair2:
        # Both orientations of every unordered edge.
        (s1, t1), (s2, t2) = (
            np.concatenate([pairs, np.flip(pairs, axis=1)]).T
            for pairs in (np.array(pair1), np.array(pair2))
        )
        d1, u1 = _segment_table(pts1, s1, t1)
        d2, u2 = _segment_table(pts2, s2, t2)
        delta, cos_alpha = _pair_values(d1, u1, d2, u2)
        alpha = np.arccos(cos_alpha)
        values = (
            eta * np.exp(delta**2 / sigma_l**2)
            + (1.0 - eta) * np.exp(alpha**2 / sigma_a**2)
            - 1.0
        )
        pairwise = _pairwise_tensor(n1, n2, s1, t1, s2, t2, values)
    else:
        pairwise = SparseTensor.empty(2, n1 * n2)
    return MatchingInstance(
        n1, n2, (unary_tensor, pairwise), spec, Sense.MINIMIZE, ground_truth
    )


def _fully_connected(points1, points2, spec, sense, ground_truth, score, directions=False):
    """Instance with one pairwise entry per ordered node pair of each set,
    valued ``score(d1, d2, dots)`` over the lengths of the segments of a
    block of set 1 and of all of set 2 (see _segment_table) and, with
    ``directions``, the dot products of their unit vectors (None
    otherwise); unaries zero.

    The entry of segments ``i1 -> j1`` and ``i2 -> j2`` has the indices
    ``(i2 * n1 + i1, j2 * n1 + j1)``.  The scores are written straight
    into the pairwise tensor's dense array, a block of the segments that
    leave one point of set 1 at a time, and the tensor takes that array."""
    pts1 = _as_points(points1)
    pts2 = _as_points(points2)
    n1, n2 = pts1.shape[0], pts2.shape[0]
    spec = _resolve_spec(spec, n1, n2)
    s1, t1 = _directed_pairs(n1)
    s2, t2 = _directed_pairs(n2)
    d1, u1 = _segment_table(pts1, s1, t1)
    d2, u2 = _segment_table(pts2, s2, t2)
    # One product for every pair: a product taken a block of rows at a time
    # can round some rows apart from it.
    dots = u1 @ u2.T if directions else None
    # Segment k = i * (n - 1) + j' of a set runs from i to its j'-th other
    # point, so a block's scores read (j1', i2, j2') and land on the cells
    # (i2 * n1 + i1, j2 * n1 + j1) of the array read as (i2, i1, j2, j1).
    dense = np.zeros((n1 * n2, n1 * n2))
    cells = dense.reshape(n2, n1, n2, n1)
    i2 = np.arange(n2)[:, None]
    j1s, j2 = t1.reshape(n1, n1 - 1), t2.reshape(n2, n2 - 1)
    for i1, j1 in enumerate(j1s):
        block = slice(i1 * (n1 - 1), (i1 + 1) * (n1 - 1))
        values = score(d1[block], d2, None if dots is None else dots[block])
        cells[i2, i1, j2, j1[:, None, None]] = values.reshape(n1 - 1, n2, n2 - 1)
    # No writable view of the array outlives its hand-over.
    del cells
    pairwise = SparseTensor._from_dense(dense)
    potentials = (SparseTensor.empty(1, n1 * n2), pairwise)
    return MatchingInstance(n1, n2, potentials, spec, sense, ground_truth)


def build_pairwise_b(points1, points2, sigma2=2500.0, spec=None, ground_truth=None):
    """Fully connected length-preservation affinity (maximization):
    ``exp(-|d1 - d2| / sigma2)`` for every ordered node pair of each set;
    unaries zero."""
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")

    def score(d1, d2, dots):
        return np.exp(-np.abs(d1[:, None] - d2[None, :]) / sigma2)

    return _fully_connected(points1, points2, spec, Sense.MAXIMIZE, ground_truth, score)


def build_pairwise_c(points1, points2, eta=0.5, spec=None, ground_truth=None):
    """Fully connected length + direction dissimilarity (minimization):
    ``eta * delta + (1 - eta) * (1 - cos_alpha) / 2``; unaries zero."""

    def score(d1, d2, dots):
        delta, cos_alpha = _pair_terms(d1, d2, dots)
        return eta * delta + (1.0 - eta) * (1.0 - cos_alpha) / 2.0

    return _fully_connected(
        points1, points2, spec, Sense.MINIMIZE, ground_truth, score, directions=True
    )


def _triangle_features(points, triples):
    """Interior angles (radians) of each triple, in listed-vertex order.

    Returns (features, keep_mask); degenerate (collinear or coincident)
    triples are masked out.
    """
    p0 = points[triples[:, 0]]
    p1 = points[triples[:, 1]]
    p2 = points[triples[:, 2]]
    features = np.empty((triples.shape[0], 3))
    keep = np.ones(triples.shape[0], dtype=bool)
    for slot, (apex, first, second) in enumerate(
        ((p0, p1, p2), (p1, p0, p2), (p2, p0, p1))
    ):
        v1 = first - apex
        v2 = second - apex
        l1 = np.hypot(v1[:, 0], v1[:, 1])
        l2 = np.hypot(v2[:, 0], v2[:, 1])
        keep &= (l1 >= _DEGENERATE_LENGTH) & (l2 >= _DEGENERATE_LENGTH)
        denom = np.where(keep, l1 * l2, 1.0)
        cos = np.clip((v1 * v2).sum(axis=1) / denom, -1.0, 1.0)
        cross = v1[:, 0] * v2[:, 1] - v1[:, 1] * v2[:, 0]
        keep &= np.abs(cross) / denom >= _COLLINEAR_SIN
        features[:, slot] = np.arccos(cos)
    return features, keep


def _nearest_targets(src_features, tgt_features, k):
    """The ``k`` nearest target features of every source feature by
    squared distance, as ``(source, target, squared distance)`` arrays
    ordered by source.  The distance tables live only inside this call."""
    src_rows = []
    tgt_rows = []
    dist_rows = []
    # Chunk the source side: the full distance table can be large.  The
    # chunk must stay as it is: a row of ``block @ tgt_features.T`` can
    # differ in its last bit when the product has fewer rows (BLAS picks
    # its kernel by shape), and a changed distance can change which targets
    # are kept.
    chunk = max(1, int(2_000_000 // max(1, tgt_features.shape[0])))
    tgt_sq = (tgt_features**2).sum(axis=1)
    for lo in range(0, src_features.shape[0], chunk):
        block = src_features[lo : lo + chunk]
        # The bits of a + b - 2.0 * product, with one table fewer held and
        # fewer passes over it.
        dists = (block**2).sum(axis=1)[:, None] + tgt_sq[None, :]
        product = block @ tgt_features.T
        product *= 2.0
        dists -= product
        # Freed before the next chunk's tables are made.
        del product
        np.maximum(dists, 0.0, out=dists)
        if k < dists.shape[1]:
            nearest = np.argpartition(dists, k - 1, axis=1)[:, :k]
        else:
            nearest = np.broadcast_to(
                np.arange(dists.shape[1]), (dists.shape[0], dists.shape[1])
            )
        rows = np.repeat(np.arange(lo, lo + dists.shape[0]), nearest.shape[1])
        cols = nearest.ravel()
        src_rows.append(rows)
        tgt_rows.append(cols)
        dist_rows.append(dists[rows - lo, cols])
    return np.concatenate(src_rows), np.concatenate(tgt_rows), np.concatenate(dist_rows)


def _orbit_keys(columns, n):
    """The int64 row keys ``(a * n + b) * n + c`` of every match under all
    6 simultaneous vertex permutations of its three assignment ``columns``,
    one block of rows per permutation: row r of a block is match r.
    ``n**3`` fits int64, as no set whose triples can be listed reaches it."""
    m = columns[0].shape[0]
    keys = np.empty(6 * m, dtype=np.int64)
    for block, permuted in zip(keys.reshape(6, m), permutations(columns)):
        block[:] = np.ravel_multi_index(permuted, (n, n, n))
    return keys


def build_third_order(
    points1,
    points2,
    knn=300,
    triangle_budget=5000,
    gamma=None,
    seed=0,
    spec=None,
    ground_truth=None,
):
    """Triangle-shape affinity instance (maximization).

    Source triangles are all unordered point triples of the first set, or
    a seeded uniform sample of ``triangle_budget`` of them when there are
    more.  Each source triangle's feature (its three interior angles, in
    vertex order) is compared against every ordered triple of the second
    set; the ``knn`` nearest by squared feature distance are kept.  Kept
    pairs score ``exp(-dist^2 / gamma)`` with gamma the mean kept squared
    distance (overridable), and each match is emitted under all 6
    simultaneous vertex permutations.  Unary and pairwise terms are zero.
    """
    pts1 = _as_points(points1, min_count=3)
    pts2 = _as_points(points2, min_count=3)
    n1, n2 = pts1.shape[0], pts2.shape[0]
    spec = _resolve_spec(spec, n1, n2)
    if knn < 1:
        raise ValueError(f"knn must be >= 1, got {knn}")
    if triangle_budget < 1:
        raise ValueError(f"triangle_budget must be >= 1, got {triangle_budget}")
    if gamma is not None and not gamma > 0:
        raise ValueError(f"gamma override must be > 0, got {gamma}")

    source_triples = np.array(list(combinations(range(n1), 3)), dtype=np.int64)
    if source_triples.shape[0] > triangle_budget:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(source_triples.shape[0], size=triangle_budget, replace=False)
        source_triples = source_triples[np.sort(chosen)]
    src_features, src_keep = _triangle_features(pts1, source_triples)
    source_triples = source_triples[src_keep]
    src_features = src_features[src_keep]

    target_triples = np.array(list(permutations(range(n2), 3)), dtype=np.int64)
    tgt_features, tgt_keep = _triangle_features(pts2, target_triples)
    target_triples = target_triples[tgt_keep]
    tgt_features = tgt_features[tgt_keep]

    n = n1 * n2
    empty = (SparseTensor.empty(1, n), SparseTensor.empty(2, n))
    if source_triples.shape[0] == 0 or target_triples.shape[0] == 0:
        potentials = empty + (SparseTensor.empty(3, n),)
        return MatchingInstance(n1, n2, potentials, spec, Sense.MAXIMIZE, ground_truth)

    src_idx, tgt_idx, sq_dists = _nearest_targets(
        src_features, tgt_features, min(knn, target_triples.shape[0])
    )
    if gamma is None:
        gamma = float(sq_dists.mean())
    if gamma > 0.0:
        values = np.exp(-sq_dists / gamma)
    else:
        # All kept distances vanish: every kept match is a perfect one.
        values = np.ones_like(sq_dists)

    keys = _orbit_keys(
        [
            assignment_index(source_triples[src_idx, slot], target_triples[tgt_idx, slot], n1)
            for slot in range(3)
        ],
        n,
    )
    del src_idx, tgt_idx
    m = values.shape[0]
    # The rows are distinct: a row gives its source triple, sorted, and the
    # targets paired with it, and a source's nearest targets are distinct.
    # So one sort orders them canonically, and SparseTensor takes them as
    # they come.  Key r is match r % m.
    order = keys.argsort()
    # Distinct keys sorted in place are keys.take(order).
    keys.sort()
    order %= m
    # Held in the narrowest type until the values are gathered, after the
    # keys are decoded and freed.
    order = order.astype(np.min_scalar_type(m))
    indices = np.empty((6 * m, 3), dtype=np.int64)
    for mode in (2, 1):
        np.remainder(keys, n, out=indices[:, mode])
        keys //= n
    indices[:, 0] = keys
    del keys
    # Gathered a block at a time, since take widens a narrow index array to
    # intp.  The indices are in range; "clip" spares take a buffered out.
    gathered = np.empty(order.size)
    for lo in range(0, order.size, 1 << 15):
        part = slice(lo, lo + (1 << 15))
        values.take(order[part], out=gathered[part], mode="clip")
    values = gathered
    del order, gathered
    indices.flags.writeable = values.flags.writeable = False
    third = SparseTensor(3, n, indices, values)
    potentials = empty + (third,)
    return MatchingInstance(n1, n2, potentials, spec, Sense.MAXIMIZE, ground_truth)


MODELS = ("a", "b", "c", "third")


def _builder(model):
    # Looked up on each call, so that a rebound module attribute (a
    # tracing wrapper, a test double) is the builder that runs.  Such a
    # wrapper must keep the builder's signature (functools.wraps).
    builders = {
        "a": build_pairwise_a,
        "b": build_pairwise_b,
        "c": build_pairwise_c,
        "third": build_third_order,
    }
    if model not in builders:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    return builders[model]


def model_parameters(model):
    """Names of the parameters that the builder named by ``model`` takes."""
    return inspect.signature(_builder(model)).parameters.keys()


def build_model(model, points1, points2, **params):
    """Build an instance with the builder named by ``model`` (one of
    ``MODELS``).  Parameters that builder does not take are dropped, and
    parameters left out take the builder's defaults."""
    accepted = model_parameters(model)
    return _builder(model)(
        points1, points2, **{key: value for key, value in params.items() if key in accepted}
    )


def _orientation(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _properly_cross(p1, p2, p3, p4):
    """Where segments p1p2 and p3p4 intersect at an interior point; each
    point is an (x, y) pair of arrays that broadcast together."""
    o1 = _orientation(p1, p2, p3)
    o2 = _orientation(p1, p2, p4)
    o3 = _orientation(p3, p4, p1)
    o4 = _orientation(p3, p4, p2)
    return (o1 * o2 < 0) & (o3 * o4 < 0)


def delaunay_edges(points):
    """Edges of a Delaunay triangulation by the empty-circumcircle test.

    Every point triple whose circumcircle contains no other point strictly
    inside is a candidate triangle; candidates are accepted greedily in
    lexicographic vertex order, rejecting any whose edges properly cross
    an accepted edge (this resolves cocircular ties deterministically).
    Both tests are array arithmetic, over blocks of triples and over all
    accepted edges at once.  If all points are collinear, or there are
    only two, returns the path along the sorted order.
    """
    pts = _as_points(points, min_count=2)
    x, y = pts.T
    triples = np.fromiter(combinations(range(len(x)), 3), dtype=np.dtype((np.intp, 3)))
    keep = np.empty(triples.shape[0], dtype=bool)
    # Blocks of at most ~2**15 point distances keep the tables to ~256 kB.
    step = max(1, (1 << 15) // len(x))
    # Only comparisons are read: a circle that overflows or is undefined
    # (d == 0) is no candidate, and a product of orientations keeps its sign.
    with np.errstate(all="ignore"):
        # The circle's squares of scalars take libm's pow, as a scalar's
        # ** 2 does; it can round apart from the array square x * x.
        sq = np.float_power(x, 2.0) + np.float_power(y, 2.0)
        for lo in range(0, triples.shape[0], step):
            i, j, k = block = triples[lo : lo + step].T
            (ax, ay), (bx, by), (cx, cy) = pts[i].T, pts[j].T, pts[k].T
            d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
            ux = (sq[i] * (by - cy) + sq[j] * (cy - ay) + sq[k] * (ay - by)) / d
            uy = (sq[i] * (cx - bx) + sq[j] * (ax - cx) + sq[k] * (bx - ax)) / d
            r2 = np.float_power(ax - ux, 2.0) + np.float_power(ay - uy, 2.0)
            d2 = (x - ux[:, None]) ** 2 + (y - uy[:, None]) ** 2
            outside = d2 >= (r2 * (1.0 - 1e-9))[:, None]
            # A triple's own points are not tested.
            np.put_along_axis(outside, block.T, True, axis=1)
            keep[lo : lo + step] = (d != 0.0) & outside.all(axis=1)
        candidates = triples[keep]
        # accepted[i, j] marks the accepted edge (i, j), i < j.
        accepted = np.zeros((len(x), len(x)), dtype=bool)
        if candidates.shape[0] == 0:
            # All triples collinear: connect the points along their sorted order.
            order = np.lexsort((y, x))
            accepted[tuple(np.sort([order[:-1], order[1:]], axis=0))] = True
        for i, j, k in candidates.tolist():
            new = [e for e in ((i, j), (i, k), (j, k)) if not accepted[e]]
            if not new:
                continue
            a, b = np.array(new).T[:, :, None]
            c, d = accepted.nonzero()
            # Edges that share an endpoint do not cross.
            apart = (a != c) & (a != d) & (b != c) & (b != d)
            if not np.any(apart & _properly_cross(*(pts.T[:, e] for e in (a, b, c, d)))):
                accepted[a, b] = True
    return list(map(tuple, np.argwhere(accepted).tolist()))
