"""Spectral clustering of top-ranked candidates.

The normalized variant builds D^{-1/2} A D^{-1/2} from a clamped-cosine
affinity matrix, embeds each candidate as its row in the matrix of the k
leading eigenvectors (row-normalized), and runs k-means on the rows. An
unnormalized-Laplacian variant (L = D - A, smallest eigenvectors, no row
normalization) is available behind the `normalized` flag.
"""

from __future__ import annotations

import hashlib
import logging
import os
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import replacing, write_json
from .rank import RankedCandidate

logger = logging.getLogger(__name__)

EIG_RESIDUAL_TOL = 1e-8
KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-6
# 2 * (d + 4) * eps * R^2 covers the rounding of both k-means distance forms
# in any summation order; 64 leaves a 32x margin (see _assign).
KMEANS_SCREEN_SLACK = 64


@dataclass(frozen=True, eq=False)
class AffinityMatrix:
    """Symmetric nonnegative similarity matrix with zero diagonal."""

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def validate(self) -> None:
        m = self.entries
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("affinity matrix must be square")
        if not np.array_equal(m, m.T):
            raise ValueError("affinity matrix must be symmetric")
        if np.any(np.diagonal(m) != 0.0):
            raise ValueError("affinity diagonal must be zero")
        if np.any(m < 0.0) or np.any(m > 1.0):
            raise ValueError("affinity entries must lie in [0, 1]")


@dataclass(frozen=True)
class ClusterAssignment:
    """k clusters over n candidates; ids are canonical by first appearance."""

    k: int
    labels: tuple[int, ...]

    def validate(self) -> None:
        if any(not 0 <= lab < self.k for lab in self.labels):
            raise ValueError("cluster ids must lie in [0, k)")


def build_affinity(vectors: np.ndarray) -> AffinityMatrix:
    """Pairwise clamped cosine similarity of the rows of an (n, dim) array:
    max(0, cos(v_i, v_j)), zero diagonal.

    Negative cosines are clamped to 0 so the matrix satisfies the
    nonnegativity spectral clustering assumes.
    """
    stacked = np.asarray(vectors, dtype=np.float64)
    if stacked.ndim != 2 or stacked.shape[0] < 2:
        raise ValueError(f"affinity needs an (n >= 2, dim) array, got shape {stacked.shape}")
    norms = np.linalg.norm(stacked, axis=1)
    if not np.all(norms > 0.0):
        raise ValueError("null vectors cannot be clustered; filter them first")
    unit = stacked / norms[:, None]
    sims = unit @ unit.T
    # Mirror the upper triangle so the matrix is exactly symmetric, then
    # clamp float drift and negatives into [0, 1]. Diagonal stays zero.
    upper = np.triu(sims, 1)
    entries = np.clip(upper + upper.T, 0.0, 1.0)
    return AffinityMatrix(entries=entries)


def _load_spectrum(path: Path, key: str, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The (values, vectors) saved in `path` under `key`; None when the file
    is unreadable, is no .npz, holds another key or the wrong shapes."""
    try:
        # Opened here: np.load leaves its own handle open when the zip
        # directory cannot be read.
        with open(path, "rb") as fh:
            saved = np.load(fh, allow_pickle=False)
            if not isinstance(saved, np.lib.npyio.NpzFile):
                return None
            with saved:
                stored_key, values, vectors = saved["key"], saved["values"], saved["vectors"]
    # BadZipFile is no OSError; np.load raises EOFError on an empty file.
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    if (stored_key.shape == () and stored_key.item() == key
            and values.dtype == vectors.dtype == np.float64
            and values.shape == (n,) and vectors.shape == (n, n)):
        return values, vectors
    return None


def _save_spectrum(path: Path, key: str, values: np.ndarray, vectors: np.ndarray) -> bool:
    """Write the decomposition as every artifact is written (`replacing`),
    so a reader sees the old file or the new one whole; False on OSError."""
    try:
        with replacing(path, "xb") as fh:
            np.savez(fh, key=np.array(key), values=values, vectors=vectors)
    except OSError as exc:
        logger.warning("could not save the eigendecomposition to %s: %s", path, exc)
        return False
    return True


def _eigh(m: np.ndarray, cache: str | os.PathLike | None) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(m), read from the .npz file `cache` when it holds the
    decomposition of these exact matrix bytes, else computed and saved there.
    The key is the sha256 of the numpy version, the shape and the bytes of
    m. A failed save only logs a warning."""
    if cache is None:
        return np.linalg.eigh(m)
    path = Path(cache)
    n = m.shape[0]
    digest = hashlib.sha256(np.__version__.encode())
    digest.update(repr(m.shape).encode())
    # The buffer of a C-contiguous array is m.tobytes() without the copy.
    digest.update(np.ascontiguousarray(m))
    key = digest.hexdigest()
    saved = _load_spectrum(path, key, n)
    if saved is not None:
        logger.info("reused the eigendecomposition of the %dx%d matrix (key %s) from %s",
                    n, n, key[:12], path)
        return saved
    values, vectors = np.linalg.eigh(m)
    if _save_spectrum(path, key, values, vectors):
        logger.info("computed the eigendecomposition of the %dx%d matrix (key %s) and saved"
                    " it to %s", n, n, key[:12], path)
    return values, vectors


def eig_topk(
    matrix: np.ndarray, k: int, cache: str | os.PathLike | None = None
) -> list[tuple[float, np.ndarray]]:
    """k eigenpairs of a symmetric matrix with the largest eigenvalues.

    Eigenvalues descend; eigenvectors are unit-norm with a deterministic
    sign (largest-magnitude component positive, first index on ties).
    Each pair is checked against the residual bound
    ||Mv - lv|| <= 1e-8 * max(1, ||M||_F).

    With `cache`, the path of an .npz file, the full decomposition is kept
    there keyed by the exact matrix bytes: a later call on the same matrix,
    at any k, reads it back instead of decomposing again and returns the
    same bits the first call did. The input checks run before the file is
    read or written; pairs read back pass the same ordering, sign and
    residual steps as fresh ones.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    # The exact test is cheap and passes for the mirrored matrices
    # spectral_cluster builds; only a near-symmetric input pays for allclose.
    if not np.array_equal(m, m.T) and not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise ValueError("matrix must be symmetric")
    n = m.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    values, vectors = _eigh(m, cache)
    order = np.argsort(-values, kind="stable")[:k]
    top_values = values[order]
    top = vectors[:, order]
    cols = np.arange(k)
    flip = top[np.argmax(np.abs(top), axis=0), cols] < 0.0
    top[:, flip] = -top[:, flip]
    # All k residuals from one matrix product; they only gate the result.
    residuals = np.linalg.norm(m @ top - top * top_values, axis=0)
    bound = EIG_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(m)))
    worst = int(np.argmax(residuals))
    if residuals[worst] > bound:
        raise ArithmeticError(
            f"eigenpair residual {residuals[worst]:.3e} exceeds bound {bound:.3e}"
        )
    return [(float(top_values[i]), top[:, i].copy()) for i in cols]


def _assign(
    pts: np.ndarray, sq_norms: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Each row's nearest center, as the per-center form decides it.

    Returns (labels, contributions, rechecked): labels[i] is the argmin over
    c of ((pts[i] - centers[c]) ** 2).sum(), first index on ties;
    contributions[i] is that sum for the chosen c, the same bits; rechecked
    counts the rows the per-center form had to compare. `sq_norms` holds
    (pts ** 2).sum(axis=1).

    One matrix product gives every ||x||^2 - 2 x.c + ||c||^2. In any
    summation order, it and the per-center form each lie within
    (d + 4) * u * R^2 of the exact squared distance, where u = eps / 2 is the
    unit roundoff and R = ||x|| + max ||c||. A row whose second-best product
    distance exceeds its best by more than four times that,
    2 * (d + 4) * eps * R^2, has one nearest center, the same in both forms.
    The screen asks for KMEANS_SCREEN_SLACK * (d + 4) * eps * R^2, 32 times
    that; the other rows (ties and near ties) are compared with every center
    in the per-center form.
    """
    d = pts.shape[1]
    center_sq = (centers ** 2).sum(axis=1)
    dists = pts @ centers.T
    dists *= -2.0
    dists += sq_norms[:, None]
    dists += center_sq
    labels = np.argmin(dists, axis=1)
    rows = np.arange(len(pts))
    best = dists[rows, labels]
    dists[rows, labels] = np.inf
    gap = dists.min(axis=1) - best
    width = KMEANS_SCREEN_SLACK * (d + 4) * np.finfo(np.float64).eps
    bound = width * (np.sqrt(sq_norms) + np.sqrt(center_sq.max())) ** 2
    # A NaN gap (overflow in the product form) is rechecked too.
    doubt = np.flatnonzero(~(gap > bound))
    if len(doubt):
        sub = pts[doubt]
        exact = dists[: len(doubt)]
        for c in range(len(centers)):
            exact[:, c] = ((sub - centers[c]) ** 2).sum(axis=1)
        labels[doubt] = np.argmin(exact, axis=1)
    # Sums the same d squares in the same order as the per-center form.
    contributions = ((pts - centers[labels]) ** 2).sum(axis=1)
    return labels, contributions, len(doubt)


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iter: int = KMEANS_MAX_ITER,
    tol: float = KMEANS_REL_TOL,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations from k-means++ seeding.

    Stops when the relative inertia improvement drops to tol or after
    max_iter assignment rounds. Returns (labels, centers, inertia history);
    the history is non-increasing. A cluster emptied during an update is
    re-seeded at the point contributing most to inertia, so descent holds
    on the next assignment too. Every label and inertia term is the
    per-center sum of squared differences (see `_assign`); logs one info
    line with the iterations, the final inertia and the rechecked rows.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, pts.shape[1]), dtype=np.float64)
    centers[0] = pts[int(rng.integers(n))]
    nearest_sq = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(nearest_sq.sum())
        if total <= 0.0:
            # All points coincide with a chosen center; any pick works.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=nearest_sq / total))
        centers[c] = pts[idx]
        nearest_sq = np.minimum(nearest_sq, ((pts - centers[c]) ** 2).sum(axis=1))

    history: list[float] = []
    labels = np.zeros(n, dtype=np.int64)
    prev = np.inf
    sq_norms = (pts ** 2).sum(axis=1)
    rechecked = 0
    for _ in range(max_iter):
        labels, contributions, doubtful = _assign(pts, sq_norms, centers)
        rechecked += doubtful
        inertia = float(contributions.sum())
        history.append(inertia)
        if np.isfinite(prev) and prev - inertia <= tol * max(prev, 1e-12):
            break
        prev = inertia
        taken: set[int] = set()
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
                continue
            # Revive an empty cluster at the worst-fit point not already
            # claimed by another empty cluster this round.
            order = np.argsort(-contributions, kind="stable")
            far = next(int(i) for i in order if int(i) not in taken)
            taken.add(far)
            centers[c] = pts[far]
    logger.info("k-means: %d iterations, final inertia %r, %d of %d row assignments"
                " decided by the exact recheck", len(history),
                history[-1] if history else float("nan"), rechecked, n * len(history))
    return labels, centers, history


def _canonical(raw_keys: Sequence[object]) -> tuple[int, ...]:
    mapping: dict[object, int] = {}
    labels = []
    for key in raw_keys:
        if key not in mapping:
            mapping[key] = len(mapping)
        labels.append(mapping[key])
    return tuple(labels)


def spectral_cluster(
    affinity: AffinityMatrix,
    k: int,
    seed: int,
    normalized: bool = True,
    cache: str | os.PathLike | None = None,
) -> ClusterAssignment:
    """Cluster the affinity graph into k groups.

    Zero-degree rows (similar to nothing) become singleton clusters first
    and the remaining rows are decomposed into the leftover cluster budget,
    so the output always has exactly k cluster ids. Labels are canonical by
    first appearance, making the result deterministic for (A, k, seed).

    `cache` is passed to `eig_topk` in both variants: runs at several k on
    one affinity decompose its (normalized or Laplacian) matrix once.
    """
    affinity.validate()
    n = affinity.n
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} candidates")

    degrees = affinity.entries.sum(axis=1)
    isolated = np.flatnonzero(degrees == 0.0)
    connected = np.flatnonzero(degrees > 0.0)
    k_rem = k - len(isolated)
    if len(isolated):
        logger.info("%d zero-degree candidates become singleton clusters", len(isolated))
    # With k == n every row is its own cluster, even when all are isolated.
    if k_rem < 1 and k < n:
        raise ValueError(
            f"{len(isolated)} isolated candidates already exceed k={k}; raise k"
        )

    if k_rem == len(connected):
        sub_labels = np.arange(len(connected), dtype=np.int64)
    elif k_rem == 1:
        sub_labels = np.zeros(len(connected), dtype=np.int64)
    else:
        if len(isolated):
            sub = affinity.entries[np.ix_(connected, connected)]
        else:
            sub = affinity.entries
        deg = sub.sum(axis=1)
        if normalized:
            inv_sqrt = 1.0 / np.sqrt(deg)
            scaled = sub * inv_sqrt[:, None]
            scaled *= inv_sqrt[None, :]
            upper = np.triu(scaled, 1)
            pairs = eig_topk(np.add(upper, upper.T, out=scaled), k_rem, cache)
            embedding = np.stack([vec for _, vec in pairs], axis=1)
            row_norms = np.linalg.norm(embedding, axis=1)
            nonzero = row_norms > 0.0
            embedding[nonzero] = embedding[nonzero] / row_norms[nonzero, None]
        else:
            laplacian = np.diag(deg) - sub
            # Smallest eigenvalues of L are the largest of -L.
            pairs = eig_topk(-laplacian, k_rem, cache)
            embedding = np.stack([vec for _, vec in pairs], axis=1)
        sub_labels, _, _ = kmeans(embedding, k_rem, seed)

    raw_keys: list[object] = [None] * n
    for i in isolated:
        raw_keys[i] = ("singleton", int(i))
    for pos, i in enumerate(connected):
        raw_keys[i] = ("grouped", int(sub_labels[pos]))
    assignment = ClusterAssignment(k=k, labels=_canonical(raw_keys))
    assignment.validate()
    return assignment


def summarize_clusters(
    assignment: ClusterAssignment,
    ranked: Sequence[RankedCandidate],
    vectors: np.ndarray,
) -> list[dict]:
    """Group ranked candidates by cluster id and pick each cluster's medoid.

    `vectors` holds one composed vector per ranked candidate, as the rows
    of an (n, dim) array. The medoid is the member whose vector is closest
    to the cluster centroid (first by rank on ties). Members are listed in
    rank order.
    """
    if not len(ranked) == len(vectors) == len(assignment.labels):
        raise ValueError("ranked candidates, vectors, and labels must align")
    by_cluster: dict[int, list[int]] = {}
    for idx, label in enumerate(assignment.labels):
        by_cluster.setdefault(label, []).append(idx)
    summaries = []
    for cluster_id in sorted(by_cluster):
        indices = sorted(by_cluster[cluster_id], key=lambda i: ranked[i].rank)
        centroid = np.mean(vectors[indices], axis=0)
        medoid_idx = indices[0]
        best = np.inf
        for i in indices:
            dist = float(np.linalg.norm(vectors[i] - centroid))
            if dist < best:
                best = dist
                medoid_idx = i
        summaries.append({
            "cluster_id": cluster_id,
            "members": [_member_dict(ranked[i]) for i in indices],
            "medoid": _member_dict(ranked[medoid_idx]),
        })
    return summaries


def _member_dict(rc: RankedCandidate) -> dict:
    return {
        "kind": rc.candidate.kind.value,
        "first": rc.candidate.first,
        "second": rc.candidate.second,
        "score": rc.score,
    }


def write_clusters(summaries: list[dict], path: str | Path) -> None:
    write_json(path, summaries)

