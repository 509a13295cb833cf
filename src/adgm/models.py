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

``build_model`` dispatches on a model name (``MODELS``);
``delaunay_edges`` supplies the default graph edges of the edge-based model.
"""

from __future__ import annotations

import inspect
from itertools import combinations, permutations

import numpy as np

from .constraints import ConstraintSpec, assignment_index
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
    the turning angle between the segments.

    Coincident endpoints carry no geometric evidence: when both segments
    are degenerate the pair scores as identical (0, 1); when only one is,
    the angle is treated as aligned (cos 1) while delta keeps its value.
    """
    points1 = _as_points(points1)
    points2 = _as_points(points2)
    v1 = points1[j] - points1[i]
    v2 = points2[j2] - points2[i2]
    d1 = float(np.hypot(*v1))
    d2 = float(np.hypot(*v2))
    if d1 + d2 < _DEGENERATE_LENGTH:
        return 0.0, 1.0
    delta = abs(d1 - d2) / (d1 + d2)
    if d1 < _DEGENERATE_LENGTH or d2 < _DEGENERATE_LENGTH:
        return delta, 1.0
    cos_alpha = float(np.dot(v1, v2) / (d1 * d2))
    return delta, float(np.clip(cos_alpha, -1.0, 1.0))


def _segment_table(points, sources, targets):
    """Lengths and unit vectors for the segments sources[k] -> targets[k]."""
    vecs = points[targets] - points[sources]
    lengths = np.hypot(vecs[:, 0], vecs[:, 1])
    safe = np.where(lengths < _DEGENERATE_LENGTH, 1.0, lengths)
    units = vecs / safe[:, None]
    return lengths, units


def _pair_values(d1, u1, d2, u2):
    """delta and cos_alpha for every segment of set 1 against set 2.

    Returns (E1, E2) arrays mirroring pair_geometry's guards.
    """
    sums = d1[:, None] + d2[None, :]
    diffs = np.abs(d1[:, None] - d2[None, :])
    both_degenerate = sums < _DEGENERATE_LENGTH
    delta = np.where(both_degenerate, 0.0, diffs / np.where(both_degenerate, 1.0, sums))
    cos_alpha = np.clip(u1 @ u2.T, -1.0, 1.0)
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

    i1, i2 = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    unary_tensor = SparseTensor(
        1,
        n1 * n2,
        assignment_index(i1.ravel(), i2.ravel(), n1)[:, None],
        (unary - unary_offset).ravel(),
    )

    pair1 = _normalized_edges(edges1, n1)
    pair2 = _normalized_edges(edges2, n2)
    if pair1 and pair2:
        # Both orientations of every unordered edge.
        s1 = np.array([e[0] for e in pair1] + [e[1] for e in pair1])
        t1 = np.array([e[1] for e in pair1] + [e[0] for e in pair1])
        s2 = np.array([e[0] for e in pair2] + [e[1] for e in pair2])
        t2 = np.array([e[1] for e in pair2] + [e[0] for e in pair2])
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


def build_pairwise_b(points1, points2, sigma2=2500.0, spec=None, ground_truth=None):
    """Fully connected length-preservation affinity (maximization):
    ``exp(-|d1 - d2| / sigma2)`` for every ordered node pair of each set;
    unaries zero."""
    pts1 = _as_points(points1)
    pts2 = _as_points(points2)
    n1, n2 = pts1.shape[0], pts2.shape[0]
    spec = _resolve_spec(spec, n1, n2)
    s1, t1 = _directed_pairs(n1)
    s2, t2 = _directed_pairs(n2)
    d1, _ = _segment_table(pts1, s1, t1)
    d2, _ = _segment_table(pts2, s2, t2)
    values = np.exp(-np.abs(d1[:, None] - d2[None, :]) / sigma2)
    pairwise = _pairwise_tensor(n1, n2, s1, t1, s2, t2, values)
    potentials = (SparseTensor.empty(1, n1 * n2), pairwise)
    return MatchingInstance(n1, n2, potentials, spec, Sense.MAXIMIZE, ground_truth)


def build_pairwise_c(points1, points2, eta=0.5, spec=None, ground_truth=None):
    """Fully connected length + direction dissimilarity (minimization):
    ``eta * delta + (1 - eta) * (1 - cos_alpha) / 2``; unaries zero."""
    pts1 = _as_points(points1)
    pts2 = _as_points(points2)
    n1, n2 = pts1.shape[0], pts2.shape[0]
    spec = _resolve_spec(spec, n1, n2)
    s1, t1 = _directed_pairs(n1)
    s2, t2 = _directed_pairs(n2)
    d1, u1 = _segment_table(pts1, s1, t1)
    d2, u2 = _segment_table(pts2, s2, t2)
    delta, cos_alpha = _pair_values(d1, u1, d2, u2)
    values = eta * delta + (1.0 - eta) * (1.0 - cos_alpha) / 2.0
    pairwise = _pairwise_tensor(n1, n2, s1, t1, s2, t2, values)
    potentials = (SparseTensor.empty(1, n1 * n2), pairwise)
    return MatchingInstance(n1, n2, potentials, spec, Sense.MINIMIZE, ground_truth)


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


def build_third_order(
    points1,
    points2,
    knn=300,
    triangle_budget=5000,
    gamma=None,
    seed=None,
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

    k = min(knn, target_triples.shape[0])
    src_rows = []
    tgt_rows = []
    dist_rows = []
    # Chunk the source side: the full distance table can be large.
    chunk = max(1, int(2_000_000 // max(1, target_triples.shape[0])))
    tgt_sq = (tgt_features**2).sum(axis=1)
    for lo in range(0, source_triples.shape[0], chunk):
        block = src_features[lo : lo + chunk]
        dists = (
            (block**2).sum(axis=1)[:, None]
            + tgt_sq[None, :]
            - 2.0 * (block @ tgt_features.T)
        )
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
    src_idx = np.concatenate(src_rows)
    tgt_idx = np.concatenate(tgt_rows)
    sq_dists = np.concatenate(dist_rows)

    if gamma is None:
        gamma = float(sq_dists.mean())
    if gamma > 0.0:
        values = np.exp(-sq_dists / gamma)
    else:
        # All kept distances vanish: every kept match is a perfect one.
        values = np.ones_like(sq_dists)

    base = np.empty((src_idx.shape[0], 3), dtype=np.int64)
    for slot in range(3):
        base[:, slot] = assignment_index(
            source_triples[src_idx, slot], target_triples[tgt_idx, slot], n1
        )
    perms = list(permutations(range(3)))
    indices = np.concatenate([base[:, perm] for perm in perms], axis=0)
    all_values = np.tile(values, len(perms))
    third = SparseTensor(3, n, indices, all_values)
    potentials = empty + (third,)
    return MatchingInstance(n1, n2, potentials, spec, Sense.MAXIMIZE, ground_truth)


MODELS = ("a", "b", "c", "third")


def build_model(model, points1, points2, **params):
    """Build an instance with the builder named by ``model`` (one of
    ``MODELS``).  Parameters that builder does not take are dropped, and
    parameters left out take the builder's defaults."""
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
    builder = builders[model]
    accepted = inspect.signature(builder).parameters
    return builder(
        points1, points2, **{key: value for key, value in params.items() if key in accepted}
    )


def _circumcircle(a, b, c):
    """Center and squared radius of the circle through three points."""
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        return None
    asq = a[0] ** 2 + a[1] ** 2
    bsq = b[0] ** 2 + b[1] ** 2
    csq = c[0] ** 2 + c[1] ** 2
    ux = (asq * (b[1] - c[1]) + bsq * (c[1] - a[1]) + csq * (a[1] - b[1])) / d
    uy = (asq * (c[0] - b[0]) + bsq * (a[0] - c[0]) + csq * (b[0] - a[0])) / d
    r2 = (a[0] - ux) ** 2 + (a[1] - uy) ** 2
    return (ux, uy), r2


def _orientation(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _properly_cross(p1, p2, p3, p4):
    """True when segments p1p2 and p3p4 intersect at an interior point."""
    o1 = _orientation(p1, p2, p3)
    o2 = _orientation(p1, p2, p4)
    o3 = _orientation(p3, p4, p1)
    o4 = _orientation(p3, p4, p2)
    return o1 * o2 < 0 and o3 * o4 < 0


def delaunay_edges(points):
    """Edges of a Delaunay triangulation by the empty-circumcircle test.

    Every point triple whose circumcircle contains no other point strictly
    inside is a candidate triangle; candidates are accepted greedily in
    lexicographic vertex order, rejecting any whose edges properly cross
    an accepted edge (this resolves cocircular ties deterministically).
    O(n^4); fine for the point counts this package targets.  If all
    points are collinear, returns the path along the sorted order.
    """
    pts = _as_points(points, min_count=3)
    n = pts.shape[0]

    candidates = []
    for i, j, k in combinations(range(n), 3):
        circle = _circumcircle(pts[i], pts[j], pts[k])
        if circle is None:
            continue
        (cx, cy), r2 = circle
        others = np.delete(np.arange(n), [i, j, k])
        d2 = (pts[others, 0] - cx) ** 2 + (pts[others, 1] - cy) ** 2
        if np.all(d2 >= r2 * (1.0 - 1e-9)):
            candidates.append((i, j, k))

    if not candidates:
        # All triples collinear: connect the points along their sorted order.
        order = np.lexsort((pts[:, 1], pts[:, 0]))
        return sorted(
            (min(int(a), int(b)), max(int(a), int(b)))
            for a, b in zip(order[:-1], order[1:])
        )

    accepted_edges = set()
    for i, j, k in candidates:
        tri_edges = [(i, j), (i, k), (j, k)]
        crosses = False
        for a, b in tri_edges:
            if (a, b) in accepted_edges:
                continue
            for c, d in accepted_edges:
                if len({a, b, c, d}) == 4 and _properly_cross(
                    pts[a], pts[b], pts[c], pts[d]
                ):
                    crosses = True
                    break
            if crosses:
                break
        if not crosses:
            accepted_edges.update(tri_edges)
    return sorted(accepted_edges)
