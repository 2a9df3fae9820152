import hashlib
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from subevents import cluster as cluster_module
from subevents._util import write_json
from subevents.cluster import (
    MIRROR_TILE,
    SPECTRUM_LAYOUT,
    AffinityMatrix,
    _assign,
    _mirror_upper,
    _spectrum_key,
    build_affinity,
    eig_topk,
    kmeans,
    spectral_cluster,
    summarize_clusters,
)
from subevents.extract import Candidate, CandidateKind
from subevents.rank import RankedCandidate


def unit(values, dim=None):
    arr = np.zeros(dim) if dim else np.array(values, dtype=float)
    if dim:
        arr[: len(values)] = values
    return arr / np.linalg.norm(arr)


def block_vectors(sizes=(4, 5, 6), dim=6):
    """(n, dim) rows in blocks on orthogonal coordinate planes; members of
    one block are rotated at most 25 degrees apart (pairwise cosine >= 0.9),
    members of different blocks are orthogonal."""
    vectors = np.zeros((sum(sizes), dim))
    truth = []
    for b, size in enumerate(sizes):
        for j in range(size):
            phi = math.radians(5.0 * j)
            vectors[len(truth), 2 * b] = math.cos(phi)
            vectors[len(truth), 2 * b + 1] = math.sin(phi)
            truth.append(b)
    return vectors, truth


# Sizes within one tile of _mirror_upper and across several.
ACROSS_TILES = st.one_of(st.integers(2, 24), st.sampled_from(
    [MIRROR_TILE - 1, MIRROR_TILE, MIRROR_TILE + 1, 2 * MIRROR_TILE + 3]))


def _expression_affinity(vectors):
    """build_affinity written with whole-matrix expressions."""
    stacked = np.asarray(vectors, dtype=np.float64)
    unit_rows = stacked / np.linalg.norm(stacked, axis=1)[:, None]
    upper = np.triu(unit_rows @ unit_rows.T, 1)
    return np.clip(upper + upper.T, 0.0, 1.0)


def _expression_matrix(entries):
    """The matrix spectral_cluster decomposes, written with whole-matrix
    expressions: D^-1/2 A D^-1/2 over the rows of nonzero degree."""
    connected = np.flatnonzero(entries.sum(axis=1) > 0.0)
    sub = entries[np.ix_(connected, connected)] if len(connected) < len(entries) else entries
    inv_sqrt = 1.0 / np.sqrt(sub.sum(axis=1))
    scaled = sub * inv_sqrt[:, None]
    scaled *= inv_sqrt[None, :]
    upper = np.triu(scaled, 1)
    return upper + upper.T


class TestBuildAffinity:
    def test_hand_cosines(self):
        vecs = [unit([1, 0]), unit([0, 1]), unit([1, 1])]
        aff = build_affinity(vecs)
        assert aff.entries[0, 1] == 0.0
        assert aff.entries[0, 2] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert aff.entries[1, 2] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_diagonal_zero_even_for_identical_vectors(self):
        vecs = [unit([1, 0]), unit([1, 0])]
        aff = build_affinity(vecs)
        assert aff.entries[0, 0] == 0.0
        assert aff.entries[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negative_cosine_clamped(self):
        vecs = [unit([1, 0]), unit([-1, 0])]
        aff = build_affinity(vecs)
        assert aff.entries[0, 1] == 0.0

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        vecs = [unit(rng.normal(size=7)) for _ in range(12)]
        aff = build_affinity(vecs)
        assert np.array_equal(aff.entries, aff.entries.T)
        aff.validate()

    @settings(deadline=None, max_examples=30)
    @given(n=ACROSS_TILES, seed=st.integers(0, 2**32 - 1))
    def test_mirror_upper_matches_the_expression(self, n, seed):
        # -0.0 in the upper triangle must come out as the sum's +0.0.
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        m[rng.random((n, n)) < 0.3] = -0.0
        upper = np.triu(m, 1)
        expected = upper + upper.T
        _mirror_upper(m)
        assert m.tobytes() == expected.tobytes()

    @settings(deadline=None, max_examples=30)
    @given(
        n=ACROSS_TILES,
        dim=st.integers(1, 6),
        integer_rows=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_entries_match_the_expression(self, n, dim, integer_rows, seed):
        # Integer rows give exact 0 and +-1 cosines.
        rng = np.random.default_rng(seed)
        if integer_rows:
            vectors = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
            vectors[~vectors.any(axis=1), 0] = -1.0
        else:
            vectors = rng.normal(size=(n, dim))
        assert build_affinity(vectors).entries.tobytes() == _expression_affinity(vectors).tobytes()

    def test_too_few_vectors(self):
        with pytest.raises(ValueError):
            build_affinity([unit([1, 0])])

    def test_null_vector_rejected(self):
        with pytest.raises(ValueError):
            build_affinity(np.array([unit([1, 0]), np.zeros(2)]))

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            build_affinity([unit([1, 0]), unit([1, 0, 0])])
        with pytest.raises(ValueError):
            build_affinity(unit([1, 0, 0]))  # one vector, not an (n, dim) array

    def test_validate_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            AffinityMatrix(np.zeros((2, 3))).validate()
        asym = np.array([[0.0, 0.5], [0.4, 0.0]])
        with pytest.raises(ValueError):
            AffinityMatrix(asym).validate()
        diag = np.array([[0.5, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            AffinityMatrix(diag).validate()
        big = np.array([[0.0, 1.5], [1.5, 0.0]])
        with pytest.raises(ValueError):
            AffinityMatrix(big).validate()


class TestEigTopk:
    def test_diagonal_matrix(self):
        values, vectors = eig_topk(np.diag([3.0, 1.0, 2.0]), 2)
        assert values.tolist() == [3.0, 2.0]
        assert vectors.shape == (3, 2)
        assert np.allclose(vectors[:, 0], [1.0, 0.0, 0.0])
        assert np.allclose(vectors[:, 1], [0.0, 0.0, 1.0])

    def test_two_by_two_exchange(self):
        values, vectors = eig_topk(np.array([[0.0, 1.0], [1.0, 0.0]]), 2)
        root_half = 1.0 / math.sqrt(2.0)
        assert values[0] == pytest.approx(1.0, abs=1e-12)
        assert values[1] == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(vectors[:, 0], [root_half, root_half])
        # Sign convention points the first-index component positive on
        # magnitude ties.
        assert np.allclose(vectors[:, 1], [root_half, -root_half])

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(11)
        raw = rng.normal(size=(9, 9))
        m = (raw + raw.T) / 2.0
        values, vectors = eig_topk(m, 4)
        slow_vals, slow_vecs = oracles.jacobi_eigh(m)
        for i, (value, vector) in enumerate(zip(values, vectors.T)):
            assert value == pytest.approx(slow_vals[i], abs=1e-8)
            oracle_vec = slow_vecs[:, i]
            if oracle_vec[int(np.argmax(np.abs(oracle_vec)))] < 0.0:
                oracle_vec = -oracle_vec
            assert np.allclose(vector, oracle_vec, atol=1e-7)

    def test_eigen_properties_random(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            raw = rng.normal(size=(n, n))
            m = (raw + raw.T) / 2.0
            values, basis = eig_topk(m, n)
            assert values.tolist() == sorted(values.tolist(), reverse=True)
            for value, vector in zip(values, basis.T):
                assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-10)
                assert np.allclose(m @ vector, value * vector, atol=1e-8)
            assert np.allclose(basis.T @ basis, np.eye(n), atol=1e-8)

    def test_sign_deterministic(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(6, 6))
        m = (raw + raw.T) / 2.0
        first = eig_topk(m, 3)
        second = eig_topk(m.copy(), 3)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_largest_component_positive(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(8, 8))
        m = (raw + raw.T) / 2.0
        for vector in eig_topk(m, 8)[1].T:
            assert vector[int(np.argmax(np.abs(vector)))] > 0.0

    def test_stable_order_for_repeated_eigenvalues(self):
        values, basis = eig_topk(np.eye(4), 4)
        assert all(v == pytest.approx(1.0, abs=1e-12) for v in values)
        assert np.allclose(np.abs(basis), np.eye(4), atol=1e-12)

    def test_symmetric_within_tolerance_accepted(self):
        m = np.array([[2.0, 1.0], [1.0 + 1e-13, 2.0]])
        assert not np.array_equal(m, m.T)
        values, _ = eig_topk(m, 2)
        assert values.tolist() == pytest.approx([3.0, 1.0], abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eig_topk(np.zeros((2, 3)), 1)
        with pytest.raises(ValueError):
            eig_topk(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)
        with pytest.raises(ValueError):
            eig_topk(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1)
        with pytest.raises(ValueError):
            eig_topk(np.eye(3), 0)
        with pytest.raises(ValueError):
            eig_topk(np.eye(3), 4)


def _bits(result):
    """The bytes of eig_topk's (values, vectors). tobytes() reads in C
    order whatever the layout, so the layout is checked on its own."""
    values, vectors = result
    assert vectors.flags.c_contiguous
    return values.tobytes(), vectors.tobytes()


def _symmetric(n, seed):
    raw = np.random.default_rng(seed).normal(size=(n, n))
    return (raw + raw.T) / 2.0


class TestEigTopkCache:
    @settings(deadline=None, max_examples=40)
    @given(
        sizes=st.tuples(st.integers(2, 12), st.integers(2, 12)),
        data_seed=st.integers(0, 2**32 - 1),
        steps=st.lists(st.tuples(st.integers(0, 1), st.integers(1, 12)), min_size=1, max_size=6),
    )
    def test_cached_pairs_bit_identical(self, sizes, data_seed, steps):
        # Two matrices in one file: a switch between them is a key (and
        # often a shape) mismatch, a repeat is a hit at any k.
        matrices = [_symmetric(n, data_seed + i) for i, n in enumerate(sizes)]
        with tempfile.TemporaryDirectory() as tmp:
            cache = Path(tmp) / "spectrum.npz"
            for which, k in steps:
                m = matrices[which]
                k = 1 + (k - 1) % len(m)
                assert _bits(eig_topk(m, k, cache=cache)) == _bits(eig_topk(m, k))
            assert [p.name for p in Path(tmp).iterdir()] == ["spectrum.npz"]

    @pytest.mark.parametrize("bad", [
        np.array([[np.nan, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
    ], ids=["nan", "asymmetric"])
    def test_bad_matrix_raises_before_the_cache_is_touched(self, tmp_path, bad):
        cache = tmp_path / "spectrum.npz"
        with pytest.raises(ValueError):
            eig_topk(bad, 1, cache=cache)
        assert list(tmp_path.iterdir()) == []
        eig_topk(np.diag([1.0, 2.0]), 1, cache=cache)
        before = cache.read_bytes(), cache.stat().st_mtime_ns
        with pytest.raises(ValueError):
            eig_topk(bad, 1, cache=cache)
        assert (cache.read_bytes(), cache.stat().st_mtime_ns) == before
        assert [p.name for p in tmp_path.iterdir()] == ["spectrum.npz"]

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS"])
    def test_blas_thread_setting_is_in_the_key(self, tmp_path, monkeypatch, name):
        m = _symmetric(6, 0)
        cache = tmp_path / "spectrum.npz"
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        expected = _bits(eig_topk(m, 2))
        for value, misses in [("1", 2), ("1", 2), ("2", 3), ("2", 3), (None, 4)]:
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
            assert _bits(eig_topk(m, 2, cache=cache)) == expected
            assert len(calls) == misses, value

    def test_openblas_kernel_set_is_in_the_key(self, monkeypatch):
        # OpenBLAS picks its kernels at start-up, by CPU or by this variable,
        # and they can change the eigenvector bits.
        m = _symmetric(6, 0)
        monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        keys = {_spectrum_key(m)}
        for value in ["Haswell", "Prescott"]:
            monkeypatch.setenv("OPENBLAS_CORETYPE", value)
            keys.add(_spectrum_key(m.copy()))
        assert len(keys) == 3

    def test_key_without_the_kernel_set_is_a_miss(self, tmp_path, monkeypatch):
        # A file keyed before OPENBLAS_CORETYPE entered the key: same layout,
        # the three thread variables, the CPU count, the shape and the bytes.
        m = _symmetric(6, 0)
        digest = hashlib.sha256(SPECTRUM_LAYOUT.encode())
        digest.update(np.__version__.encode())
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            digest.update(f"\0{name}={os.environ.get(name)!r}".encode())
        digest.update(f"\0cpus={os.cpu_count()!r}\0".encode())
        digest.update(repr(m.shape).encode())
        digest.update(np.ascontiguousarray(m))
        cache = tmp_path / "spectrum.npz"
        values, vectors = np.linalg.eigh(m)
        np.savez(cache, key=np.array(digest.hexdigest()), values=values, vectors=vectors)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        expected = _bits(eig_topk(m, 2))
        for misses in (2, 2):
            assert _bits(eig_topk(m, 2, cache=cache)) == expected
            assert len(calls) == misses

    # At k >= 8 numpy's row norms of the embedding can differ in the last bit
    # between a C- and an F-ordered copy, so a hit and a miss must hand
    # k-means the same layout.
    @pytest.mark.parametrize("k", [3, 9], ids=["k3", "k9"])
    def test_spectral_cluster_passes_the_cache(self, tmp_path, monkeypatch, k):
        affinity = build_affinity(block_vectors()[0])
        cache = tmp_path / "spectrum.npz"
        embeddings = []
        real = cluster_module.kmeans

        def capturing(points, k, seed):
            embeddings.append(points.tobytes())
            return real(points, k, seed)

        monkeypatch.setattr(cluster_module, "kmeans", capturing)
        fresh = spectral_cluster(affinity, k, seed=0)
        assert np.array_equal(spectral_cluster(affinity, k, 0, cache=cache), fresh)
        assert cache.is_file()
        assert np.array_equal(spectral_cluster(affinity, k, 0, cache=cache), fresh)
        assert len(embeddings) == 3 and len(set(embeddings)) == 1


class TestKmeans:
    def _two_blobs(self, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(loc=(0.0, 0.0), scale=0.05, size=(20, 2))
        b = rng.normal(loc=(10.0, 10.0), scale=0.05, size=(20, 2))
        return np.vstack([a, b])

    def test_recovers_separated_blobs(self):
        pts = self._two_blobs()
        labels, centers, history = kmeans(pts, 2, seed=0)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[20]
        assert len(centers) == 2

    def test_deterministic_per_seed(self):
        pts = self._two_blobs()
        first = kmeans(pts, 2, seed=42)
        second = kmeans(pts, 2, seed=42)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])
        assert first[2] == second[2]

    def test_history_non_increasing(self):
        rng = np.random.default_rng(8)
        for seed in range(10):
            pts = rng.normal(size=(40, 3))
            _, _, history = kmeans(pts, 7, seed=seed)
            assert all(a >= b - 1e-9 for a, b in zip(history, history[1:]))

    def test_k_equals_n_reaches_zero_inertia(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(6, 2))
        labels, _, history = kmeans(pts, 6, seed=1)
        assert sorted(labels) == list(range(6))
        assert history[-1] == pytest.approx(0.0, abs=1e-18)

    def test_k_one_center_is_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        labels, centers, _ = kmeans(pts, 1, seed=0)
        assert set(labels) == {0}
        assert np.allclose(centers[0], [1.0, 1.0])

    def test_coincident_points_terminate(self):
        pts = np.ones((5, 2))
        labels, _, history = kmeans(pts, 2, seed=0)
        assert history[-1] == 0.0
        assert len(history) <= 3

    def test_k_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            kmeans(pts, 0, seed=0)
        with pytest.raises(ValueError):
            kmeans(pts, 4, seed=0)

    @settings(deadline=None, max_examples=100)
    @given(
        shape=st.tuples(st.integers(1, 40), st.integers(1, 6)),
        k_frac=st.floats(0.0, 1.0),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        coarse=st.booleans(),
        scale_exp=st.integers(-3, 3),
        offset=st.sampled_from([0.0, 1e2, 1e5]),
    )
    def test_matches_reference_bit_for_bit(self, shape, k_frac, data_seed, seed, coarse,
                                           scale_exp, offset):
        rng = np.random.default_rng(data_seed)
        pts = rng.normal(size=shape)
        if coarse:  # repeated points and tied distances
            pts = np.round(pts)
        # Far from the origin the product form cancels most of its digits,
        # so near ties reach the exact recheck.
        pts = (pts + offset) * 10.0 ** scale_exp
        k = 1 + int(k_frac * (shape[0] - 1))
        labels, centers, history = kmeans(pts, k, seed)
        ref_labels, ref_centers, ref_history = oracles.reference_kmeans(pts, k, seed)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(centers, ref_centers)
        assert history == ref_history

    @pytest.mark.parametrize("seed", range(5))
    def test_assign_decides_bisector_points_by_the_per_center_form(self, seed):
        """Points on the perpendicular bisector of two centers are near ties
        that ||x||^2 - 2 x.c + ||c||^2 often breaks the other way; the
        per-center form must decide them. Points near a third center are
        screened without a recheck."""
        rng = np.random.default_rng(seed)
        d = 8
        centers = rng.normal(size=(3, d))
        centers[2] += 50.0
        normal = centers[1] - centers[0]
        along = rng.normal(size=(200, d))
        along -= np.outer(along @ normal / (normal @ normal), normal)
        bisector = (centers[0] + centers[1]) / 2 + along
        pts = np.vstack([bisector, centers[2] + 0.1 * rng.normal(size=(50, d))])
        sq_norms = (pts ** 2).sum(axis=1)
        per_center = np.stack([((pts - c) ** 2).sum(axis=1) for c in centers], axis=1)
        expected = np.argmin(per_center, axis=1)
        product = sq_norms[:, None] - 2.0 * pts @ centers.T + (centers ** 2).sum(axis=1)
        # The screen alone would get some rows wrong, not only break ties.
        screened = np.argmin(product, axis=1)
        wrong = screened != expected
        assert np.any(product[wrong, screened[wrong]] < product[wrong, expected[wrong]])

        labels, contributions, rechecked = _assign(pts, sq_norms, centers)
        assert np.array_equal(labels, expected)
        assert np.array_equal(contributions, per_center[np.arange(len(pts)), expected])
        assert rechecked == len(bisector)

    def test_logs_iterations_inertia_and_rechecks(self, caplog):
        def logged(pts, k):
            caplog.clear()
            with caplog.at_level("INFO", logger="subevents.cluster"):
                _, _, history = kmeans(pts, k, seed=0)
            (line,) = [rec.getMessage() for rec in caplog.records
                       if rec.name == "subevents.cluster"]
            return line, history

        line, history = logged(self._two_blobs(), 2)
        assert line == (f"k-means: {len(history)} iterations, final inertia {history[-1]!r},"
                        f" 0 of {40 * len(history)} row assignments decided by the exact recheck")
        # Coincident points tie with every center: each row is rechecked.
        line, history = logged(np.ones((5, 2)), 2)
        assert line.endswith(f", {5 * len(history)} of {5 * len(history)} row assignments"
                             " decided by the exact recheck")

    def test_assignment_memory_is_not_n_k_d(self):
        n, d, k = 2000, 64, 64
        pts = np.random.default_rng(3).normal(size=(n, d))
        tracemalloc.start()
        try:
            kmeans(pts, k, seed=0, max_iter=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * k * d * 8 / 10


class TestSpectralCluster:
    def test_three_blocks_exact_recovery(self):
        vectors, truth = block_vectors()
        aff = build_affinity(vectors)
        for seed in (0, 1, 2):
            labels = spectral_cluster(aff, k=3, seed=seed)
            assert oracles.adjusted_rand_index(labels.tolist(), truth) == 1.0

    def test_labels_canonical_by_first_appearance(self):
        vectors, _ = block_vectors(sizes=(3, 3, 3))
        labels = spectral_cluster(build_affinity(vectors), k=3, seed=0)
        assert labels.dtype == np.int64
        seen = []
        for label in labels.tolist():
            if label not in seen:
                seen.append(label)
        assert seen == [0, 1, 2]

    def test_deterministic(self):
        vectors, _ = block_vectors()
        aff = build_affinity(vectors)
        a = spectral_cluster(aff, k=3, seed=5)
        b = spectral_cluster(aff, k=3, seed=5)
        assert np.array_equal(a, b)

    def test_permutation_equivariant_partition(self):
        vectors, truth = block_vectors()
        rng = np.random.default_rng(4)
        perm = rng.permutation(len(vectors))
        shuffled = vectors[perm]
        base = spectral_cluster(build_affinity(vectors), k=3, seed=0)
        moved = spectral_cluster(build_affinity(shuffled), k=3, seed=0)
        assert oracles.adjusted_rand_index(moved.tolist(), base[perm].tolist()) == 1.0

    def test_k_equals_n_identity(self):
        vectors, _ = block_vectors(sizes=(2, 2))
        labels = spectral_cluster(build_affinity(vectors), k=4, seed=0)
        assert labels.tolist() == [0, 1, 2, 3]
        # One row orthogonal to the rest, and then every row isolated.
        with_isolated = [unit([1, 0], dim=4), unit([0, 0, 0, 1], dim=4), unit([1, 0.1], dim=4)]
        labels = spectral_cluster(build_affinity(with_isolated), k=3, seed=0)
        assert labels.tolist() == [0, 1, 2]
        labels = spectral_cluster(build_affinity(np.eye(3)), k=3, seed=0)
        assert labels.tolist() == [0, 1, 2]

    def test_zero_degree_rows_become_singletons(self):
        vectors = [
            unit([1, 0], dim=6),
            unit([1, 0.1], dim=6),
            unit([0, 0, 1], dim=6),
            unit([0, 0, 1, 0.1], dim=6),
            unit([0, 0, 0, 0, 1], dim=6),  # orthogonal to everything
        ]
        labels = spectral_cluster(build_affinity(vectors), k=3, seed=0)
        assert np.unique(labels).tolist() == [0, 1, 2]
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert np.bincount(labels)[labels[4]] == 1

    def test_isolated_rows_exceeding_k_is_error(self):
        vectors = [unit([1, 0], dim=6), unit([0, 1], dim=6), unit([0, 0, 1], dim=6)]
        aff = build_affinity(vectors)  # all pairwise orthogonal
        with pytest.raises(ValueError):
            spectral_cluster(aff, k=2, seed=0)

    def test_budget_exactly_covers_connected(self):
        # 2 connected + 1 isolated with k=3: every connected row gets its
        # own cluster without running the eigensolver.
        vectors = [unit([1, 0], dim=4), unit([1, 0.2], dim=4), unit([0, 0, 1], dim=4)]
        labels = spectral_cluster(build_affinity(vectors), k=3, seed=0)
        assert labels.tolist() == [0, 1, 2]

    def test_single_remaining_cluster_groups_all_connected(self):
        vectors = [unit([1, 0], dim=4), unit([1, 0.2], dim=4), unit([0, 0, 1], dim=4)]
        labels = spectral_cluster(build_affinity(vectors), k=2, seed=0)
        assert labels.tolist() == [0, 0, 1]

    def test_k_bounds(self):
        vectors, _ = block_vectors(sizes=(2, 2))
        aff = build_affinity(vectors)
        with pytest.raises(ValueError):
            spectral_cluster(aff, k=1, seed=0)
        with pytest.raises(ValueError):
            spectral_cluster(aff, k=5, seed=0)

    def test_component_count_shows_in_spectrum(self):
        # The scaled affinity D^{-1/2} A D^{-1/2} of a graph with three
        # connected components has eigenvalue 1 with multiplicity three.
        vectors, _ = block_vectors()
        aff = build_affinity(vectors)
        deg = aff.entries.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(deg)
        scaled = inv_sqrt[:, None] * aff.entries * inv_sqrt[None, :]
        upper = np.triu(scaled, 1)
        values, _ = eig_topk(upper + upper.T, 4)
        for value in values[:3]:
            assert value == pytest.approx(1.0, abs=1e-10)
        assert values[3] < 0.999

    @settings(deadline=None, max_examples=40)
    @given(
        n_grouped=st.integers(4, 30),
        n_isolated=st.integers(0, 3),
        integer_rows=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_decomposed_matrix_matches_the_expression(self, n_grouped, n_isolated, integer_rows,
                                                      seed, data):
        # Nonnegative rows; the isolated ones are unit vectors on their own
        # axes. Integer rows also give exact zero affinities between grouped
        # rows.
        rng = np.random.default_rng(seed)
        dim = 4
        vectors = np.zeros((n_grouped + n_isolated, dim + n_isolated))
        grouped = vectors[:n_grouped, :dim]
        if integer_rows:
            grouped[:] = rng.integers(0, 3, size=(n_grouped, dim))
            grouped[~grouped.any(axis=1), 0] = 1.0
        else:
            grouped[:] = np.abs(rng.normal(size=(n_grouped, dim)))
        for j in range(n_isolated):
            vectors[n_grouped + j, dim + j] = 1.0
        affinity = build_affinity(vectors[rng.permutation(len(vectors))])
        isolated = int(np.sum(affinity.entries.sum(axis=1) == 0.0))
        assume(affinity.n - isolated >= 3)
        k = isolated + data.draw(st.integers(2, affinity.n - isolated - 1))
        seen = []
        real = cluster_module.eig_topk

        def capturing(m, k, cache=None):
            seen.append(m.copy())
            return real(m, k, cache)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cluster_module, "eig_topk", capturing)
            labels = spectral_cluster(affinity, k, seed=0)
        (matrix,) = seen
        assert matrix.tobytes() == _expression_matrix(affinity.entries).tobytes()
        in_order = list(dict.fromkeys(labels.tolist()))
        assert in_order == list(range(len(in_order)))
        assert np.all(np.bincount(labels)[labels[affinity.entries.sum(axis=1) == 0.0]] == 1)
        assert len(in_order) == k

    def test_affinity_and_cache_hit_hold_two_n_by_n_arrays(self, tmp_path, monkeypatch):
        n, k = 600, 10
        budget = 1.6 * n * n * 8
        vectors = np.random.default_rng(5).normal(size=(n, 50))
        tracemalloc.start()
        try:
            affinity = build_affinity(vectors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < budget
        cache = tmp_path / "spectrum.npz"
        fresh = spectral_cluster(affinity, k, seed=0, cache=cache)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m.shape) or eigh(m))
        # The affinity (one n x n array) is held before tracing starts.
        tracemalloc.start()
        try:
            hit = spectral_cluster(affinity, k, seed=0, cache=cache)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert calls == [] and np.array_equal(hit, fresh)
        assert peak < budget


class TestSummaries:
    def _ranked(self, n):
        out = []
        for i in range(n):
            cand = Candidate(CandidateKind.NOUN_VERB_PAIR, f"word{i}", "verbs", 2)
            out.append(RankedCandidate(candidate=cand, score=1.0 - 0.1 * i,
                                       best_term="storm", rank=i + 1))
        return out

    def test_medoid_closest_to_centroid(self):
        vectors = np.array([
            unit([1, 0]),
            unit([math.cos(0.3), math.sin(0.3)]),
            unit([math.cos(0.6), math.sin(0.6)]),
        ])
        labels = np.array((0, 0, 0))
        summaries = summarize_clusters(labels, self._ranked(3), vectors)
        assert len(summaries) == 1
        # The middle vector is nearest the centroid of the arc.
        assert summaries[0]["medoid"]["first"] == "word1"

    def test_medoid_tie_prefers_better_rank(self):
        vectors = np.array([unit([1, 0]), unit([0, 1])])
        labels = np.array((0, 0))
        summaries = summarize_clusters(labels, self._ranked(2), vectors)
        assert summaries[0]["medoid"]["first"] == "word0"

    def test_members_in_rank_order_and_ids_sorted(self):
        vectors = np.array([unit([1, 0]), unit([0, 1]), unit([1, 0.1])])
        ranked = self._ranked(3)
        labels = np.array((0, 1, 0))
        summaries = summarize_clusters(labels, ranked, vectors)
        assert [s["cluster_id"] for s in summaries] == [0, 1]
        assert [m["first"] for m in summaries[0]["members"]] == ["word0", "word2"]

    def test_member_dict_fields(self):
        vectors = np.array([unit([1, 0]), unit([0, 1])])
        labels = np.array((0, 1))
        summaries = summarize_clusters(labels, self._ranked(2), vectors)
        member = summaries[0]["members"][0]
        assert set(member) == {"kind", "first", "second", "score"}

    def test_length_mismatch_rejected(self):
        vectors = np.array([unit([1, 0])])
        labels = np.array((0, 0))
        with pytest.raises(ValueError):
            summarize_clusters(labels, self._ranked(2), vectors)

    def test_json_round_trip(self, tmp_path):
        vectors = np.array([unit([1, 0]), unit([0, 1]), unit([1, 0.1])])
        labels = np.array((0, 1, 0))
        summaries = summarize_clusters(labels, self._ranked(3), vectors)
        path = tmp_path / "clusters.json"
        write_json(path, summaries)
        assert json.loads(path.read_text(encoding="utf-8")) == summaries
