"""Tests for the geometric model builders and their helpers."""

import math
import re
import tracemalloc
import warnings
from itertools import combinations, permutations, product

import numpy as np
import oracles
import pytest
import scipy.spatial

from adgm.constraints import ConstraintSpec, assignment_index
from adgm.discretize import brute_force_optimum
from adgm import tensor as tensor_module
from adgm.harness import Transform, generate_synthetic
from adgm.models import (
    MODELS,
    _pair_values,
    _segment_table,
    _triangle_features,
    build_pairwise_a,
    build_pairwise_b,
    build_pairwise_c,
    build_model,
    build_third_order,
    delaunay_edges,
    pair_geometry,
)
from adgm.solver import Sense, energy
from adgm.tensor import _is_supersymmetric, symmetrize


def entries(tensor):
    """Tensor contents as an index-tuple -> value dict."""
    return dict(tensor.items())


def scalar_pair_geometry(p1, p2):
    """Independent delta / cos-alpha computation for two 2-vectors."""
    d1 = math.hypot(*p1)
    d2 = math.hypot(*p2)
    if d1 + d2 < 1e-12:
        return 0.0, 1.0
    delta = abs(d1 - d2) / (d1 + d2)
    if d1 < 1e-12 or d2 < 1e-12:
        return delta, 1.0
    cos = (p1[0] * p2[0] + p1[1] * p2[1]) / (d1 * d2)
    return delta, max(-1.0, min(1.0, cos))


def interior_angles(a, b, c):
    """Interior angles of triangle (a, b, c) at the vertices in that order."""
    out = []
    for apex, first, second in ((a, b, c), (b, a, c), (c, a, b)):
        v1 = np.asarray(first, dtype=float) - apex
        v2 = np.asarray(second, dtype=float) - apex
        cos = float(v1 @ v2 / (np.hypot(*v1) * np.hypot(*v2)))
        out.append(math.acos(max(-1.0, min(1.0, cos))))
    return np.array(out)


class TestPairGeometry:
    def test_identical_segments(self):
        axis = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert pair_geometry(axis, 0, 1, axis, 0, 1) == (0.0, 1.0)
        skewed = np.array([[0.0, 0.0], [2.0, 1.0]])
        delta, cos_alpha = pair_geometry(skewed, 0, 1, skewed, 0, 1)
        assert delta == 0.0
        assert cos_alpha == pytest.approx(1.0, abs=1e-12)

    def test_perpendicular_unit_segments(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        delta, cos_alpha = pair_geometry(p, 0, 1, q, 0, 1)
        assert delta == 0.0
        assert abs(cos_alpha) < 1e-15

    def test_parallel_one_vs_three(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 0.0], [3.0, 0.0]])
        assert pair_geometry(p, 0, 1, q, 0, 1) == (0.5, 1.0)

    def test_anti_parallel(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 0.0], [-1.0, 0.0]])
        delta, cos_alpha = pair_geometry(p, 0, 1, q, 0, 1)
        assert delta == 0.0
        assert cos_alpha == -1.0

    def test_both_segments_degenerate(self):
        p = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert pair_geometry(p, 0, 1, p, 0, 1) == (0.0, 1.0)

    def test_one_segment_degenerate(self):
        p = np.array([[1.0, 1.0], [1.0, 1.0]])
        q = np.array([[0.0, 0.0], [2.0, 0.0]])
        delta, cos_alpha = pair_geometry(p, 0, 1, q, 0, 1)
        assert delta == 1.0  # |0 - 2| / (0 + 2)
        assert cos_alpha == 1.0

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = rng.normal(size=(2, 2))
            q = rng.normal(size=(2, 2))
            delta, cos_alpha = pair_geometry(p, 0, 1, q, 0, 1)
            ref_d, ref_c = scalar_pair_geometry(p[1] - p[0], q[1] - q[0])
            assert delta == pytest.approx(ref_d, abs=1e-12)
            assert cos_alpha == pytest.approx(ref_c, abs=1e-12)
            assert 0.0 <= delta <= 1.0
            assert -1.0 <= cos_alpha <= 1.0

    @pytest.mark.parametrize("endpoint", [0, 1, 2, 3])
    @pytest.mark.parametrize("index", [-1, 3])
    def test_refuses_an_endpoint_outside_its_set(self, endpoint, index):
        p = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        args = [p, 0, 1, p, 2, 0]
        args[[1, 2, 4, 5][endpoint]] = index
        message = f"endpoint {index} out of range for 3 points"
        with pytest.raises(ValueError, match=message):
            pair_geometry(*args)

    def test_returns_the_values_the_builders_store(self):
        rng = np.random.default_rng(3)
        eta = 0.5
        for _ in range(10):
            p = rng.normal(size=(5, 2)) * rng.uniform(0.01, 100.0)
            q = rng.normal(size=(4, 2))
            q[3] = q[0]  # one coincident pair: degenerate segments
            stored = entries(build_pairwise_c(p, q, eta=eta).potentials[1])
            for (i, j), (i2, j2) in product(permutations(range(5), 2), permutations(range(4), 2)):
                delta, cos_alpha = pair_geometry(p, i, j, q, i2, j2)
                value = eta * delta + (1.0 - eta) * (1.0 - cos_alpha) / 2.0
                key = (assignment_index(i, i2, 5), assignment_index(j, j2, 5))
                assert stored.get(key, 0.0) == value

    def test_invariant_to_translation_and_uniform_scale(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.normal(size=(3, 2))
            q = rng.normal(size=(3, 2))
            scale = float(rng.uniform(0.1, 10.0))
            shift = rng.normal(size=2) * 100.0
            base = pair_geometry(p, 0, 1, q, 1, 2)
            moved = pair_geometry(scale * p + shift, 0, 1, scale * q + shift, 1, 2)
            assert moved[0] == pytest.approx(base[0], abs=1e-12)
            assert moved[1] == pytest.approx(base[1], abs=1e-12)


class TestModelA:
    def test_identical_edges_score_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        inst = build_pairwise_a(pts, pts, [(0, 1)], [(0, 1)], np.zeros((2, 2)), eta=0.5)
        pairwise = entries(inst.potentials[1])
        key = (assignment_index(0, 0, 2), assignment_index(1, 1, 2))
        assert pairwise.get(key, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert inst.sense is Sense.MINIMIZE

    def test_length_mismatch_at_scale_parameter(self):
        # delta = |1-3|/4 = 0.5 = sigma_l and alpha = 0, all weight on length.
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 0.0], [3.0, 0.0]])
        inst = build_pairwise_a(
            p, q, [(0, 1)], [(0, 1)], np.zeros((2, 2)), eta=1.0, sigma_l=0.5
        )
        key = (assignment_index(0, 0, 2), assignment_index(1, 1, 2))
        assert entries(inst.potentials[1])[key] == pytest.approx(math.e - 1.0)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(23)
        p = rng.uniform(size=(5, 2))
        q = rng.uniform(size=(6, 2))
        edges1 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        edges2 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        unary = rng.normal(size=(5, 6))
        eta, sigma_l, sigma_a, offset = 0.7, 0.4, 1.1, 2.5
        inst = build_pairwise_a(
            p, q, edges1, edges2, unary,
            eta=eta, sigma_l=sigma_l, sigma_a=sigma_a, unary_offset=offset,
        )

        expected_unary = {}
        for i in range(5):
            for j in range(6):
                expected_unary[(assignment_index(i, j, 5),)] = unary[i, j] - offset
        got_unary = entries(inst.potentials[0])
        assert got_unary.keys() == expected_unary.keys()
        for key, value in expected_unary.items():
            assert got_unary[key] == pytest.approx(value, abs=1e-12)

        expected_pair = {}
        for i1, j1 in edges1:
            for i2, j2 in edges2:
                for s1, t1 in ((i1, j1), (j1, i1)):
                    for s2, t2 in ((i2, j2), (j2, i2)):
                        delta, cos_alpha = scalar_pair_geometry(
                            p[t1] - p[s1], q[t2] - q[s2]
                        )
                        alpha = math.acos(cos_alpha)
                        value = (
                            eta * math.exp(delta**2 / sigma_l**2)
                            + (1.0 - eta) * math.exp(alpha**2 / sigma_a**2)
                            - 1.0
                        )
                        key = (
                            assignment_index(s1, s2, 5),
                            assignment_index(t1, t2, 5),
                        )
                        expected_pair[key] = value
        got_pair = entries(inst.potentials[1])
        assert got_pair.keys() == expected_pair.keys()
        # The angle exponential amplifies last-ulp arccos differences between
        # the vectorized and scalar paths, so compare relatively.
        for key, value in expected_pair.items():
            assert got_pair[key] == pytest.approx(value, rel=1e-9, abs=1e-12)

    def test_values_bounded_below(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(size=(6, 2))
        q = rng.uniform(size=(6, 2))
        inst = build_pairwise_a(
            p, q, delaunay_edges(p), delaunay_edges(q), np.zeros((6, 6))
        )
        assert np.all(inst.potentials[1].values >= -1.0)

    def test_no_edges_gives_empty_pairwise(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        inst = build_pairwise_a(pts, pts, [], [(0, 1)], np.ones((2, 2)))
        assert inst.potentials[1].nnz == 0

    def test_rejects_bad_edges(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="out of range"):
            build_pairwise_a(pts, pts, [(0, 2)], [(0, 1)], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="self-loop"):
            build_pairwise_a(pts, pts, [(1, 1)], [(0, 1)], np.zeros((2, 2)))

    def test_rejects_bad_unary_shape(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="unary"):
            build_pairwise_a(pts, pts, [(0, 1)], [(0, 1)], np.zeros((3, 2)))

    @pytest.mark.parametrize("name", ["sigma_l", "sigma_a"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
    def test_refuses_a_scale_that_is_not_positive(self, name, bad):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=f"{name} must be > 0, got {bad}"):
            build_pairwise_a(pts, pts, **{name: bad})


class TestModelB:
    @pytest.mark.parametrize("bad", [0.0, -2500.0, np.nan])
    def test_refuses_a_scale_that_is_not_positive(self, bad):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=f"sigma2 must be > 0, got {bad}"):
            build_pairwise_b(pts, pts, sigma2=bad)

    def test_equal_lengths_score_one(self):
        pts = np.array([[0.0, 0.0], [7.0, 0.0]])
        inst = build_pairwise_b(pts, pts)
        key = (assignment_index(0, 0, 2), assignment_index(1, 1, 2))
        assert entries(inst.potentials[1])[key] == 1.0
        assert inst.sense is Sense.MAXIMIZE

    def test_length_gap_equal_to_scale(self):
        p = np.array([[0.0, 0.0], [5000.0, 0.0]])
        q = np.array([[0.0, 0.0], [2500.0, 0.0]])
        inst = build_pairwise_b(p, q, sigma2=2500.0)
        key = (assignment_index(0, 0, 2), assignment_index(1, 1, 2))
        assert entries(inst.potentials[1])[key] == pytest.approx(math.exp(-1.0))

    def test_matches_dense_recomputation(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=(5, 2)) * 100.0
        q = rng.uniform(size=(5, 2)) * 100.0
        sigma2 = 40.0
        inst = build_pairwise_b(p, q, sigma2=sigma2)
        expected = {}
        for i1 in range(5):
            for j1 in range(5):
                if i1 == j1:
                    continue
                d1 = math.hypot(*(p[j1] - p[i1]))
                for i2 in range(5):
                    for j2 in range(5):
                        if i2 == j2:
                            continue
                        d2 = math.hypot(*(q[j2] - q[i2]))
                        key = (
                            assignment_index(i1, i2, 5),
                            assignment_index(j1, j2, 5),
                        )
                        expected[key] = math.exp(-abs(d1 - d2) / sigma2)
        got = entries(inst.potentials[1])
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-12)
        assert inst.potentials[0].nnz == 0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(9)
        inst = build_pairwise_b(rng.uniform(size=(6, 2)), rng.uniform(size=(7, 2)))
        values = inst.potentials[1].values
        assert np.all(values > 0.0) and np.all(values <= 1.0)


class TestModelC:
    def test_identical_segments_score_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        inst = build_pairwise_c(pts, pts)
        key = (assignment_index(0, 0, 2), assignment_index(1, 1, 2))
        assert entries(inst.potentials[1]).get(key, 0.0) == 0.0
        assert inst.sense is Sense.MINIMIZE

    def test_perpendicular_equal_lengths(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        inst = build_pairwise_c(p, q, eta=0.5)
        key = (assignment_index(0, 0, 2), assignment_index(1, 1, 2))
        assert entries(inst.potentials[1])[key] == pytest.approx(0.25)

    def test_anti_parallel_equal_lengths(self):
        p = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[0.0, 0.0], [-1.0, 0.0]])
        inst = build_pairwise_c(p, q, eta=0.5)
        key = (assignment_index(0, 0, 2), assignment_index(1, 1, 2))
        assert entries(inst.potentials[1])[key] == pytest.approx(0.5)

    def test_matches_dense_recomputation(self):
        rng = np.random.default_rng(13)
        p = rng.uniform(size=(4, 2))
        q = rng.uniform(size=(5, 2))
        eta = 0.3
        inst = build_pairwise_c(p, q, eta=eta)
        got = entries(inst.potentials[1])
        for i1 in range(4):
            for j1 in range(4):
                if i1 == j1:
                    continue
                for i2 in range(5):
                    for j2 in range(5):
                        if i2 == j2:
                            continue
                        delta, cos_alpha = scalar_pair_geometry(
                            p[j1] - p[i1], q[j2] - q[i2]
                        )
                        value = eta * delta + (1 - eta) * (1 - cos_alpha) / 2
                        key = (
                            assignment_index(i1, i2, 4),
                            assignment_index(j1, j2, 4),
                        )
                        assert got.get(key, 0.0) == pytest.approx(value, abs=1e-12)

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(17)
        inst = build_pairwise_c(rng.uniform(size=(6, 2)), rng.uniform(size=(6, 2)))
        values = inst.potentials[1].values
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


def _row_major_pairwise(model, p, q):
    """Model b's or c's pairwise indices and values at default parameters,
    one entry per segment pair with the first set's segments major, each
    set's segments ``i -> j`` in row-major ``(i, j)`` order."""
    (s1, t1), (s2, t2) = (np.nonzero(~np.eye(len(x), dtype=bool)) for x in (p, q))
    d1, u1 = _segment_table(p, s1, t1)
    d2, u2 = _segment_table(q, s2, t2)
    if model == "b":
        values = np.exp(-np.abs(d1[:, None] - d2[None, :]) / 2500.0)
    else:
        delta, cos_alpha = _pair_values(d1, u1, d2, u2)
        values = 0.5 * delta + 0.5 * (1.0 - cos_alpha) / 2.0
    a = assignment_index(s1[:, None], s2[None, :], len(p))
    b = assignment_index(t1[:, None], t2[None, :], len(p))
    return np.stack([a.ravel(), b.ravel()], axis=1), values.ravel()


class TestFullyConnectedBuild:
    @pytest.mark.parametrize("model", ["b", "c"])
    @pytest.mark.parametrize(
        "n1, n2", [(1, 1), (1, 4), (4, 1), (2, 2), (2, 5), (5, 2), (6, 4), (7, 7)]
    )
    def test_entries_reach_the_tensor_in_canonical_order(self, monkeypatch, model, n1, n2):
        rng = np.random.default_rng(10 * n1 + n2)
        p, q = rng.uniform(size=(n1, 2)), rng.uniform(size=(n2, 2))
        if n1 > 2 and n2 > 2:
            # Coincident points: degenerate segments, and model c's exact zeros.
            p[1] = p[0]
            q[2] = q[1] = q[0]
        sorts = []
        sorted_runs = tensor_module._sorted_runs

        def spy(key):
            sorts.append(key)
            return sorted_runs(key)

        monkeypatch.setattr(tensor_module, "_sorted_runs", spy)
        build = build_pairwise_b if model == "b" else build_pairwise_c
        pair = build(p, q).potentials[1]
        monkeypatch.undo()
        assert sorts == []
        indices, values = oracles.rowwise_canonicalize(2, *_row_major_pairwise(model, p, q))
        assert pair.indices.tobytes() == indices.tobytes()
        assert pair.values.tobytes() == values.tobytes()

    def test_build_peaks_below_two_and_a_half_tensors(self):
        # cli_pairwise's size: 20+5 points, a 228k-entry pairwise tensor.
        p, q, _ = generate_synthetic(20, 5, 0.02, Transform(rotation=0.3), seed=1)
        tracemalloc.start()
        try:
            inst = build_pairwise_c(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pair = inst.potentials[1]
        assert pair.nnz == 228_000
        assert peak < 2.5 * (pair.indices.nbytes + pair.values.nbytes)

    def test_build_and_its_entries_peak_below_1_5_coordinate_tensors(self):
        # The tensor is held as one 500 x 500 array; its index rows and
        # values are made on access, as a writer or a digest reads them.
        p, q, _ = generate_synthetic(20, 5, 0.02, Transform(rotation=0.3), seed=1)
        tracemalloc.start()
        try:
            pair = build_pairwise_c(p, q).potentials[1]
            entries = pair.indices, pair.values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pair.nnz == 228_000 and pair._dense is not None
        assert peak < 1.5 * sum(a.nbytes for a in entries)


def _permuted_blocks(p, q, knn=300, triangle_budget=5000, gamma=None, seed=None):
    """build_third_order's entries before canonicalization: the kept
    matches' rows under each of the 6 simultaneous vertex permutations,
    one block per permutation, and the match values tiled to match.  The
    nearest targets are read from one whole distance table, which takes
    the builder's GEMM while its sources fit one chunk of it."""
    n1 = len(p)
    sources = np.array(list(combinations(range(n1), 3)))
    if len(sources) > triangle_budget:
        chosen = np.random.default_rng(seed).choice(len(sources), triangle_budget, replace=False)
        sources = sources[np.sort(chosen)]
    targets = np.array(list(permutations(range(len(q)), 3)))
    f1, keep1 = _triangle_features(p, sources)
    f2, keep2 = _triangle_features(q, targets)
    (sources, f1), (targets, f2) = (sources[keep1], f1[keep1]), (targets[keep2], f2[keep2])
    assert len(sources) <= 2_000_000 // len(targets)
    dists = (f1**2).sum(axis=1)[:, None] + (f2**2).sum(axis=1)[None, :] - 2.0 * (f1 @ f2.T)
    np.maximum(dists, 0.0, out=dists)
    k = min(knn, len(targets))
    nearest = np.argpartition(dists, k - 1, axis=1)[:, :k] if k < len(targets) else (
        np.broadcast_to(np.arange(len(targets)), dists.shape)
    )
    src, tgt = np.repeat(np.arange(len(sources)), k), nearest.ravel()
    sq = dists[src, tgt]
    gamma = float(sq.mean()) if gamma is None else gamma
    values = np.exp(-sq / gamma) if gamma > 0.0 else np.ones_like(sq)
    columns = [assignment_index(sources[src, s], targets[tgt, s], n1) for s in range(3)]
    blocks = [np.stack([columns[s] for s in perm], axis=1) for perm in permutations(range(3))]
    return np.concatenate(blocks), np.tile(values, 6)


def _third_order_case(case):
    """Point sets and build_third_order parameters of one named case."""
    rng = np.random.default_rng(len(case))
    if case == "10+5":
        # third_order's size: a table of 120 x 2730 distances.
        p, q, _ = generate_synthetic(10, 5, 0.02, Transform(rotation=0.3), seed=1)
        return p, q, dict(knn=300, triangle_budget=5000, seed=1)
    p, q = rng.uniform(size=(7, 2)), rng.uniform(size=(6, 2))
    if case == "coincident":
        p[3] = p[0]
        q[2] = q[1] = q[0]
        return p, q, dict(knn=40)
    if case == "collinear":
        p[:4] = np.column_stack((np.arange(4.0), np.zeros(4)))
        return p, q, dict(knn=40)
    if case == "knn-at-or-above-the-targets":
        return p, q, dict(knn=6 * 5 * 4)
    if case == "sampled":
        return rng.uniform(size=(12, 2)), q, dict(knn=30, triangle_budget=40, seed=5)
    # exp(-d / gamma) underflows to 0.0 for all but the nearest matches.
    return p, q, dict(knn=60, gamma=1e-4)


class TestThirdOrder:
    @pytest.mark.parametrize(
        "case",
        ["10+5", "coincident", "collinear", "knn-at-or-above-the-targets", "sampled", "tiny-gamma"],
    )
    def test_entries_reach_the_tensor_in_canonical_order(self, monkeypatch, case):
        p, q, params = _third_order_case(case)
        sorts = []
        sorted_runs = tensor_module._sorted_runs

        def spy(key):
            sorts.append(key)
            return sorted_runs(key)

        monkeypatch.setattr(tensor_module, "_sorted_runs", spy)
        third = build_third_order(p, q, **params).potentials[2]
        monkeypatch.undo()
        assert sorts == []
        blocks, tiled = _permuted_blocks(p, q, **params)
        indices, values = oracles.rowwise_canonicalize(3, blocks, tiled)
        assert third.indices.tobytes() == indices.tobytes()
        assert third.values.tobytes() == values.tobytes()
        assert third.nnz == np.count_nonzero(tiled) > 0
        assert (third.nnz < tiled.size) == (case == "tiny-gamma")
        for array in (third.indices, third.values):
            assert array.flags.owndata and not array.flags.writeable

    def test_congruent_triangles_score_one(self):
        p = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
        theta = 0.8
        rot = np.array(
            [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
        )
        q = p @ rot + np.array([3.0, -1.0])
        inst = build_third_order(p, q, knn=10)
        third = entries(inst.potentials[2])
        base = tuple(assignment_index(i, i, 3) for i in range(3))
        assert third[base] == pytest.approx(1.0, abs=1e-12)
        # All six simultaneous relabelings carry the same perfect score.
        for perm in permutations(range(3)):
            key = tuple(assignment_index(i, i, 3) for i in perm)
            assert third[key] == pytest.approx(1.0, abs=1e-12)
        assert inst.sense is Sense.MAXIMIZE

    def test_feature_distance_equal_to_gamma(self):
        p = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
        q = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.9]])
        f1 = interior_angles(p[0], p[1], p[2])
        f2 = interior_angles(q[0], q[1], q[2])
        gamma = float(((f1 - f2) ** 2).sum())
        inst = build_third_order(p, q, knn=10, gamma=gamma)
        base = tuple(assignment_index(i, i, 3) for i in range(3))
        assert entries(inst.potentials[2])[base] == pytest.approx(math.exp(-1.0))

    def test_matches_dense_double_enumeration(self):
        rng = np.random.default_rng(31)
        p = rng.uniform(size=(6, 2))
        q = rng.uniform(size=(6, 2))
        inst = build_third_order(p, q, knn=6**3)

        pairs = []
        for i1, j1, k1 in combinations(range(6), 3):
            f1 = interior_angles(p[i1], p[j1], p[k1])
            for i2, j2, k2 in permutations(range(6), 3):
                f2 = interior_angles(q[i2], q[j2], q[k2])
                d2 = float(((f1 - f2) ** 2).sum())
                pairs.append(((i1, j1, k1), (i2, j2, k2), d2))
        gamma = sum(d for _, _, d in pairs) / len(pairs)
        expected = {}
        for (i1, j1, k1), (i2, j2, k2), d2 in pairs:
            value = math.exp(-d2 / gamma)
            matched = ((i1, i2), (j1, j2), (k1, k2))
            for perm in permutations(range(3)):
                key = tuple(assignment_index(*matched[s], 6) for s in perm)
                expected[key] = value
        got = entries(inst.potentials[2])
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert got[key] == pytest.approx(value, abs=1e-12)
        assert inst.potentials[0].nnz == 0
        assert inst.potentials[1].nnz == 0

    def test_all_kept_distances_zero_score_one(self):
        # Every ordered triple of an equilateral triangle has the source's
        # features, so the kept distances, and their mean gamma, are 0.
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
        third = build_third_order(tri, tri, knn=1).potentials[2]
        assert third.nnz == 6
        assert np.array_equal(third.values, np.ones(6))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(37)
        inst = build_third_order(rng.uniform(size=(6, 2)), rng.uniform(size=(7, 2)))
        values = inst.potentials[2].values
        assert np.all(values > 0.0) and np.all(values <= 1.0)

    def test_collinear_source_triangles_are_skipped(self):
        line = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert build_third_order(line, tri).potentials[2].nnz == 0
        assert build_third_order(tri, line).potentials[2].nnz == 0

    def test_triangle_sampling_is_seeded(self):
        rng = np.random.default_rng(41)
        p = rng.uniform(size=(8, 2))
        q = rng.uniform(size=(6, 2))
        first = build_third_order(p, q, triangle_budget=10, seed=99)
        second = build_third_order(p, q, triangle_budget=10, seed=99)
        assert first.potentials[2] == second.potentials[2]

    def test_build_peaks_below_1_3_times_the_instance(self):
        # 10+5 points: 36k kept matches, a 216k-entry order-3 tensor.
        p, q, _ = generate_synthetic(10, 5, 0.02, Transform(rotation=0.3), seed=1)
        tracemalloc.start()
        try:
            inst = build_third_order(p, q, knn=300, triangle_budget=5000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.potentials[2].nnz == 216_000
        kept = sum(t.indices.nbytes + t.values.nbytes for t in inst.potentials)
        assert peak < 1.3 * kept

    def test_parameter_validation(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="knn"):
            build_third_order(tri, tri, knn=0)
        with pytest.raises(ValueError, match="triangle_budget"):
            build_third_order(tri, tri, triangle_budget=0)
        with pytest.raises(ValueError, match="gamma"):
            build_third_order(tri, tri, gamma=0.0)
        with pytest.raises(ValueError, match="points"):
            build_third_order(tri[:2], tri)


class TestDelaunayEdges:
    def test_triangle_gives_all_edges(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert delaunay_edges(pts) == [(0, 1), (0, 2), (1, 2)]

    def test_unit_square_gives_five_edges(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        edges = delaunay_edges(pts)
        assert len(edges) == 5
        boundary = {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert boundary < set(edges)
        assert set(edges) - boundary in ({(0, 2)}, {(1, 3)})

    def test_matches_scipy_triangulation(self):
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            pts = rng.uniform(size=(12, 2))
            expected = set()
            for simplex in scipy.spatial.Delaunay(pts).simplices:
                for a, b in combinations(sorted(int(v) for v in simplex), 2):
                    expected.add((a, b))
            assert set(delaunay_edges(pts)) == expected

    def test_collinear_points_fall_back_to_path(self):
        pts = np.array([[2.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        # Sorted by coordinate the order is 1, 2, 0, so the path is 1-2, 2-0.
        assert delaunay_edges(pts) == [(0, 2), (1, 2)]

    def test_two_points_give_their_single_edge(self):
        assert delaunay_edges(np.array([[1.0, 1.0], [0.0, 0.0]])) == [(0, 1)]

    def test_requires_two_points(self):
        with pytest.raises(ValueError, match="points"):
            delaunay_edges(np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1e80, 1e150, 1e-150])
    def test_coordinates_near_the_float_range_warn_nothing(self, scale):
        pts = np.random.default_rng(8).random((12, 2)) * scale
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = delaunay_edges(pts)
        assert len(edges) >= 11
        assert np.geterr() == before


class TestBuilderInputs:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("shape", [(4, 3), (4,), (4, 2, 1)])
    def test_points_not_shaped_n_by_2_are_refused(self, model, shape):
        good = np.random.default_rng(9).random((4, 2))
        bad = np.ones(shape)
        message = re.escape(f"points must have shape (n, 2), got {shape}")
        for points1, points2 in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=message):
                build_model(model, points1, points2)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_coordinate_is_refused(self, model, special):
        good = np.random.default_rng(9).random((4, 2))
        bad = good.copy()
        bad[2, 1] = special
        for points1, points2 in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match="point coordinates must be finite"):
                build_model(model, points1, points2)

    @pytest.mark.parametrize("model", MODELS)
    def test_a_spec_whose_sizes_differ_from_the_points_is_refused(self, model):
        rng = np.random.default_rng(9)
        points1, points2 = rng.random((4, 2)), rng.random((5, 2))
        for spec in (ConstraintSpec.injective(*sizes) for sizes in ((5, 4), (4, 4), (4, 6))):
            with pytest.raises(ValueError, match="spec sizes must match the point sets"):
                build_model(model, points1, points2, spec=spec)


def _small_instances(rng):
    p4 = rng.uniform(size=(4, 2))
    p5 = rng.uniform(size=(5, 2)) * 50.0
    return [
        build_pairwise_a(
            p4, p4, delaunay_edges(p4), delaunay_edges(p4), np.zeros((4, 4))
        ),
        build_pairwise_b(p5, p5),
        build_pairwise_c(p4, p4),
        build_third_order(p4, p4, knn=30),
    ]


class TestModelInvariants:
    def test_emitted_tensors_are_symmetric(self):
        rng = np.random.default_rng(43)
        for inst in _small_instances(rng):
            for tensor in inst.potentials:
                if tensor.order < 2:
                    continue
                averaged = symmetrize(tensor)
                assert np.array_equal(averaged.indices, tensor.indices)
                np.testing.assert_allclose(
                    averaged.values, tensor.values, rtol=1e-12, atol=1e-15
                )

    def test_third_order_tensors_are_exactly_supersymmetric(self):
        # Bit for bit, so that every mode contracts through one half-size
        # operator; allclose would not tell.
        rng = np.random.default_rng(53)
        instances = [_small_instances(rng)[3]]
        for seed, (inliers, outliers) in enumerate([(6, 2), (8, 0), (10, 5)]):
            p1, p2, _ = generate_synthetic(inliers, outliers, 0.02, seed=seed)
            instances.append(build_third_order(p1, p2, knn=50, seed=seed))
        for inst in instances:
            third = inst.potentials[2]
            assert third.nnz > 0
            assert _is_supersymmetric(third)
            assert third._half_operator() is not None

    def test_identity_is_optimal_on_identical_point_sets(self):
        rng = np.random.default_rng(47)
        for inst in _small_instances(rng):
            n = inst.n1
            identity = np.eye(n).ravel(order="F")
            _, best_energy = brute_force_optimum(inst)
            assert energy(inst, identity) == pytest.approx(best_energy, abs=1e-9)
