"""Clustering tests against brute-force oracles.

The partition oracle enumerates every assignment of N points to k clusters
and scores it with within-cluster sums of squares, so it is exact for the
small instances used here.
"""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spotalign import grouping, model
from spotalign.errors import ContractError


def brute_force_best_inertia(points: np.ndarray, k: int) -> float:
    """Exhaustively search all k^N assignments for the optimal inertia."""
    n = points.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.array(assign)
        total = 0.0
        for j in range(k):
            members = points[assign == j]
            if members.shape[0] == 0:
                continue
            centroid = members.mean(axis=0)
            total += float(((members - centroid) ** 2).sum())
        best = min(best, total)
    return best


def squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=-1)


def reference_lloyd(points, centroids):
    """The direct-form Lloyd loop, kept verbatim as the bit-identity oracle:
    every distance from the (N, k, d) broadcast and one mean per cluster."""
    k = centroids.shape[0]
    n_iter = 0
    trace = []
    for n_iter in range(1, grouping._MAX_ITER + 1):
        dists = squared_distances(points, centroids)
        assign = dists.argmin(axis=1)
        member_dist = dists[np.arange(points.shape[0]), assign]
        trace.append(float(member_dist.sum()))
        new_centroids = np.empty_like(centroids)
        for j in range(k):
            members = points[assign == j]
            if members.shape[0] == 0:
                far = int(member_dist.argmax())
                new_centroids[j] = points[far]
                member_dist[far] = -1.0  # a later empty cluster must steal elsewhere
            else:
                new_centroids[j] = members.mean(axis=0)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=-1)).max()
        centroids = new_centroids
        if shift < grouping._SHIFT_TOL:
            break
    dists = squared_distances(points, centroids)
    assign = dists.argmin(axis=1)
    inertia = float(dists[np.arange(points.shape[0]), assign].sum())
    trace.append(inertia)
    return grouping.GroupState(centroids, assign, inertia, n_iter, tuple(trace))


def oracle_points(seed: int) -> tuple[np.ndarray, int]:
    """A seeded instance: d in 1..8 or 24, scales from 1e-160 to 1e150, and
    duplicated, mirrored or lattice rows, which give exact and near distance
    ties.  Every other instance has k <= 4, so that clusters reach the eight
    members from which numpy sums a single column pairwise."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 80))
    d = int(rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 24]))
    scale = float(rng.choice([1e-160, 1e-8, 1.0, 1e8, 1e150]))
    points = rng.normal(size=(n, d))
    kind = seed % 4
    if kind == 3:  # a coarse lattice
        points = rng.integers(-2, 3, size=(n, d)) * 0.1
    elif kind == 1:  # duplicated points
        points[n // 2:] = points[: n - n // 2]
    elif kind == 2:  # mirrored points
        points[n // 2:] = -points[: n - n // 2]
    k = int(rng.integers(1, min(n, 4) + 1)) if seed % 2 else int(rng.integers(1, n + 1))
    return scale * points, k


class TestGroupProject:
    @pytest.mark.parametrize("modality", ["image", "gene"])
    def test_returns_its_rows_unchanged(self, modality):
        cfg = model.ModelConfig(n_genes=4, d_in=4, d=4, heads=2, d_ff=8, dropout=0.0)
        x = np.random.default_rng(0).normal(size=(5, 4))
        out = grouping.group_project(model.as_tensors(model.init_params(cfg, 0)), x, modality)
        assert out.data.tobytes() == x.tobytes() and out.shape == x.shape

    def test_unknown_modality(self):
        cfg = model.ModelConfig(n_genes=4, d_in=4, d=4, heads=2, d_ff=8, dropout=0.0)
        params = model.as_tensors(model.init_params(cfg, 0))
        with pytest.raises(ContractError):
            grouping.group_project(params, np.ones((2, 4)), "audio")


class TestL2Normalize:
    def test_hand_case(self):
        out = grouping.l2_normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-15)

    def test_zero_row_raises(self):
        with pytest.raises(ContractError, match="zero row"):
            grouping.l2_normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_overflowing_row_raises(self):
        # squares of 1e155 overflow, so these rows would normalize to zeros
        rows = np.random.default_rng(9).normal(size=(30, 4))
        rows[5:] *= 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="overflow"):
                grouping.l2_normalize_rows(rows)
            for init in (None, np.eye(4)):
                with pytest.raises(ContractError, match="overflow"):
                    grouping.kmeans(rows, k=4, seed=0, init=init)


class TestKMeans:
    def test_saturation_each_point_its_own_centroid(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(5, 3))
        state = grouping.kmeans(points, k=5, seed=0)
        assert state.inertia == 0.0
        normalized = points / np.linalg.norm(points, axis=1, keepdims=True)
        recovered = state.centroids[state.assignments]
        np.testing.assert_allclose(recovered, normalized, atol=1e-12)

    def test_raw_mode_two_cluster_toy_matches_partition_oracle(self):
        points = np.array([[0.0], [0.0], [10.0], [10.0]])
        state = grouping.kmeans(points, k=2, seed=3, normalize=False)
        assert state.inertia == pytest.approx(brute_force_best_inertia(points, 2), abs=1e-12)
        assert state.assignments[0] == state.assignments[1]
        assert state.assignments[2] == state.assignments[3]
        assert state.assignments[0] != state.assignments[2]

    def test_matches_partition_oracle_on_random_instances(self):
        # n_init=32: enough restarts that Lloyd provably reaches the global
        # optimum on every instance in this seeded family
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 8))
            k = int(rng.integers(2, min(n, 3) + 1))
            points = rng.normal(size=(n, 2))
            state = grouping.kmeans(points, k=k, seed=seed, normalize=False, n_init=32)
            best = brute_force_best_inertia(points, k)
            assert state.inertia == pytest.approx(best, rel=1e-9, abs=1e-12), (
                f"seed {seed}: kmeans {state.inertia} vs brute force {best}"
            )

    @pytest.mark.parametrize("n_init", [0, -2])
    def test_n_init_below_one_rejected(self, n_init):
        points = np.random.default_rng(4).normal(size=(10, 3))
        with pytest.raises(ContractError, match="n_init"):
            grouping.kmeans(points, k=2, seed=0, n_init=n_init)

    def test_inertia_trace_non_increasing(self):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            points = rng.normal(size=(30, 4))
            state = grouping.kmeans(points, k=4, seed=seed, n_init=1)
            trace = np.array(state.inertia_trace)
            assert np.all(np.diff(trace) <= 1e-12), f"seed {seed}: {trace}"

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 6))
        a = grouping.kmeans(points, k=5, seed=11)
        b = grouping.kmeans(points, k=5, seed=11)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.assignments.tobytes() == b.assignments.tobytes()
        assert a.inertia == b.inertia

    def test_assignments_are_nearest_centroids(self):
        rng = np.random.default_rng(6)
        points = rng.normal(size=(50, 4))
        state = grouping.kmeans(points, k=6, seed=0)
        normalized = points / np.linalg.norm(points, axis=1, keepdims=True)
        # reassigning any single point to any other centroid cannot reduce inertia
        for i in range(50):
            own = ((normalized[i] - state.centroids[state.assignments[i]]) ** 2).sum()
            for j in range(6):
                other = ((normalized[i] - state.centroids[j]) ** 2).sum()
                assert own <= other + 1e-12

    def test_plus_plus_selects_distinct_rows(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            points = rng.normal(size=(12, 3))
            centroids = grouping._kmeans_pp_init(points, 5, np.random.default_rng(seed))
            assert len({tuple(c) for c in centroids}) == 5

    @pytest.mark.parametrize("normalize", [True, False])
    def test_bit_identical_to_direct_form(self, normalize, monkeypatch):
        """Cold fits from k-means++ draws, and warm fits from k distinct rows
        of the clustered points scaled by 1.01."""
        screened_lloyd = grouping._lloyd
        n_warm = 0
        for seed in range(300):
            points, k = oracle_points(seed)
            if normalize and not np.all((points * points).sum(axis=1) > 0):
                continue  # the squared norm underflows and normalizing refuses the row
            rows = np.unique(grouping.l2_normalize_rows(points) if normalize else points, axis=0)
            warm = 1.01 * rows[np.random.default_rng(seed).permutation(len(rows))[:k]]
            n_warm += len(rows) >= k
            for init in (None, warm) if len(rows) >= k else (None,):
                runs = []
                for lloyd in (reference_lloyd, screened_lloyd):
                    monkeypatch.setattr(grouping, "_lloyd", lloyd)
                    runs.append(grouping.kmeans(points, k, seed, normalize=normalize, n_init=2, init=init))
                want, got = runs
                where = f"seed {seed}: n={points.shape[0]} d={points.shape[1]} k={k} warm={init is not None}"
                assert got.centroids.tobytes() == want.centroids.tobytes(), where
                assert got.assignments.tobytes() == want.assignments.tobytes(), where
                assert repr(got.inertia) == repr(want.inertia), where
                assert repr(got.inertia_trace) == repr(want.inertia_trace), where
                assert got.n_iter == want.n_iter, where
        assert n_warm >= 250

    @staticmethod
    def _four_blobs():
        rng = np.random.default_rng(8)
        return np.concatenate([c + 0.05 * rng.normal(size=(10, 4)) for c in np.eye(4)])

    def test_warm_start_from_converged_centroids_stops_at_once(self):
        points = self._four_blobs()
        cold = grouping.kmeans(points, k=4, seed=0)
        warm = grouping.kmeans(points, k=4, seed=1, n_init=3, init=cold.centroids)
        assert warm.centroids.tobytes() == cold.centroids.tobytes()
        assert warm.assignments.tobytes() == cold.assignments.tobytes()
        assert warm.inertia == cold.inertia
        assert warm.n_iter == 1

    def test_earliest_restart_wins_a_tie(self):
        points = self._four_blobs()
        unit = grouping.l2_normalize_rows(points)
        restarts = [
            grouping._lloyd(unit, grouping._kmeans_pp_init(
                unit, 4, np.random.default_rng(np.random.SeedSequence([0, r]))))
            for r in range(5)
        ]
        # the premise: every restart ties on inertia, in some other centroid order
        assert len({run.inertia for run in restarts}) == 1
        assert len({run.centroids.tobytes() for run in restarts}) > 1
        first = grouping.kmeans(points, k=4, seed=0, n_init=1)
        best = grouping.kmeans(points, k=4, seed=0, n_init=5)
        assert best.centroids.tobytes() == first.centroids.tobytes()
        assert best.assignments.tobytes() == first.assignments.tobytes()

    def test_warm_fit_leaves_init_unchanged(self):
        points = np.random.default_rng(10).normal(size=(40, 4))
        init = 1.01 * points[:5]
        before = init.copy()
        state = grouping.kmeans(points, k=5, seed=0, normalize=False, init=init)
        assert state.n_iter > 1
        assert init.tobytes() == before.tobytes()

    @pytest.mark.parametrize("init", [
        np.eye(4)[:3], np.eye(4)[:, :3], np.eye(4).ravel(), np.eye(5),
        np.where(np.eye(4) > 0, np.nan, 0.0), np.where(np.eye(4) > 0, np.inf, 0.0),
    ])
    def test_init_of_wrong_shape_or_not_finite_rejected(self, init):
        points = np.random.default_rng(4).normal(size=(10, 4))
        with pytest.raises(ContractError, match="init"):
            grouping.kmeans(points, k=4, seed=0, init=init)

    def test_contract_errors(self):
        points = np.ones((3, 2)) + np.arange(3)[:, None]
        with pytest.raises(ContractError):
            grouping.kmeans(points, k=4, seed=0)
        with pytest.raises(ContractError):
            grouping.kmeans(points, k=0, seed=0)
        with pytest.raises(ContractError):
            grouping.kmeans(np.array([[np.inf, 0.0], [0.0, 1.0]]), k=1, seed=0)


def nearest_of_unit_rows(instances, centroids):
    """Per row: the centroid at the least squared Euclidean distance from the
    row scaled to unit length, by exhaustive scan, lowest index on a tie."""
    out = []
    for row in instances:
        unit = row / math.sqrt(sum(v * v for v in row))
        dists = [sum((u - c) ** 2 for u, c in zip(unit, centroid)) for centroid in centroids]
        out.append(min(range(len(centroids)), key=lambda j: (dists[j], j)))
    return out


class TestAssignCross:
    def test_orthogonal_basis(self):
        centroids = np.eye(2)
        out = grouping.assign_cross(np.array([[1.0, 0.0]]), centroids)
        assert out.tolist() == [0]

    def test_tie_goes_to_lowest_index(self):
        centroids = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = grouping.assign_cross(np.array([[2.0, 0.0]]), centroids)
        assert out.tolist() == [0]

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(9)
        instances = rng.normal(size=(10, 4))
        centroids = rng.normal(size=(3, 4))
        out = grouping.assign_cross(instances, centroids)
        assert out.dtype == np.int64
        assert out.tolist() == nearest_of_unit_rows(instances, centroids)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_scan_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 5))
        instances = rng.normal(size=(n, d))
        centroids = rng.normal(size=(k, d))
        out = grouping.assign_cross(instances, centroids)
        assert out.tolist() == nearest_of_unit_rows(instances, centroids)

    def test_differs_from_the_dot_product_rule(self):
        # the nearer centroid is not the one of largest dot product
        centroids = np.array([[0.9, 0.1], [2.0, 1.5]])
        x = np.array([[1.0, 0.0]])
        assert (x @ centroids.T).argmax() == 1
        assert grouping.assign_cross(x, centroids).tolist() == [0]

    def test_rows_of_a_fit_fall_where_the_fit_put_them(self):
        rng = np.random.default_rng(4)
        for k in (1, 3, 7):
            points = rng.normal(size=(40, 5))
            state = grouping.kmeans(points, k=k, seed=k, n_init=3)
            assert grouping.assign_cross(points, state.centroids).tolist() == state.assignments.tolist()
            # scale does not move a row's group
            assert grouping.assign_cross(points * 1e3, state.centroids).tolist() == state.assignments.tolist()

    def test_zero_row_raises(self):
        with pytest.raises(ContractError, match="zero row"):
            grouping.assign_cross(np.zeros((1, 2)), np.eye(2))

    def test_dim_mismatch(self):
        with pytest.raises(ContractError):
            grouping.assign_cross(np.ones((2, 3)), np.ones((2, 4)))
