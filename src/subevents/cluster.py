"""Spectral clustering of top-ranked candidates.

The normalized variant builds D^{-1/2} A D^{-1/2} from a clamped-cosine
affinity matrix, embeds each candidate as its row in the matrix of the k
leading eigenvectors (row-normalized), and runs k-means on the rows. An
unnormalized-Laplacian variant (L = D - A, smallest eigenvectors, no row
normalization) is available behind the `normalized` flag.

Every step hands over arrays: `eig_topk` returns the eigenvalues and an
(n, k) eigenvector matrix, `spectral_cluster` an int64 label per row, and
`summarize_clusters` reads those labels.
"""

from __future__ import annotations

import hashlib
import logging
import os
import zipfile
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import replacing
from .embed import row_norms
from .rank import RankedCandidate

logger = logging.getLogger(__name__)

EIG_RESIDUAL_TOL = 1e-8
KMEANS_MAX_ITER = 300
KMEANS_REL_TOL = 1e-6
# 2 * (d + 4) * eps * R^2 covers the rounding of both k-means distance forms
# in any summation order; 64 leaves a 32x margin (see _assign).
KMEANS_SCREEN_SLACK = 64
# Side of the square blocks _mirror_upper copies at a time (512 KiB each).
MIRROR_TILE = 256
# spectrum.npz: the layout tag in its key, and the chunk size in which its
# eigenvector matrix is read to gather the columns a run uses.
SPECTRUM_LAYOUT = "np.linalg.eigh as returned: values ascending, eigenvectors as columns"
SPECTRUM_READ_CHUNK = 1 << 18
# Read by BLAS at start-up: its thread counts and OpenBLAS's kernel set can
# change the eigenvector bits, so each is in the spectrum.npz key.
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "OPENBLAS_CORETYPE")


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
    entries = unit @ unit.T
    # Mirror the upper triangle so the matrix is exactly symmetric, then
    # clamp float drift and negatives into [0, 1]. Diagonal stays zero.
    _mirror_upper(entries)
    np.clip(entries, 0.0, 1.0, out=entries)
    return AffinityMatrix(entries=entries)


def _mirror_upper(m: np.ndarray) -> None:
    """Set the square array m, in place, to np.triu(m, 1) + np.triu(m, 1).T:
    the strict upper triangle copied onto the lower one, a zero diagonal
    and no -0.0. Copies MIRROR_TILE x MIRROR_TILE tiles, so the scratch
    memory does not grow with n."""
    n = m.shape[0]
    below = np.tri(MIRROR_TILE, k=-1, dtype=bool)
    for start in range(0, n, MIRROR_TILE):
        stop = min(start + MIRROR_TILE, n)
        for left in range(0, start, MIRROR_TILE):
            m[start:stop, left:left + MIRROR_TILE] = m[left:left + MIRROR_TILE, start:stop].T
        tile = m[start:stop, start:stop]
        np.copyto(tile, tile.T, where=below[: stop - start, : stop - start])
    np.fill_diagonal(m, 0.0)
    # x + 0.0 is x except that -0.0 becomes +0.0, as in the sum above.
    m += 0.0


def _read_columns(member, n: int, columns: np.ndarray) -> np.ndarray | None:
    """The given columns of the (n, n) float64 .npy stream `member`, as an
    (n, len(columns)) array gathered from chunks of rows read to the end,
    so that zipfile checks the CRC-32 of the whole member; None when the
    header differs or bytes are left over, ValueError when they run out."""
    if np.lib.format.read_magic(member) != (1, 0):
        return None
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(member)
    if shape != (n, n) or fortran_order or dtype != np.dtype(np.float64):
        return None
    gathered = np.empty((n, len(columns)))
    step = max(1, SPECTRUM_READ_CHUNK // (n * 8))
    for start in range(0, n, step):
        stop = min(start + step, n)
        chunk = np.frombuffer(member.read((stop - start) * n * 8), np.float64)
        gathered[start:stop] = chunk.reshape(stop - start, n)[:, columns]
    return None if member.read(1) else gathered


def _load_spectrum(path: Path, key: str, n: int, leading: Callable[[np.ndarray], np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray] | None:
    """The values saved in `path` under `key` at `leading(values)` and
    those columns of the saved eigenvectors; None when the file is
    unreadable, is no .npz, fails its CRC check, holds another key or the
    wrong shapes."""
    try:
        with open(path, "rb") as fh, zipfile.ZipFile(fh) as saved:
            with saved.open("key.npy") as member:
                stored_key = np.lib.format.read_array(member, allow_pickle=False)
            if stored_key.shape != () or stored_key.item() != key:
                return None
            with saved.open("values.npy") as member:
                values = np.lib.format.read_array(member, allow_pickle=False)
            if values.dtype != np.float64 or values.shape != (n,):
                return None
            order = leading(values)
            with saved.open("vectors.npy") as member:
                top = _read_columns(member, n, order)
    # BadZipFile (no zip, or a CRC mismatch) is no OSError; a short
    # member raises EOFError or ValueError.
    except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile):
        return None
    return None if top is None else (values[order], top)


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


def _spectrum_key(m: np.ndarray) -> str:
    """sha256 of the file layout, the numpy version, the BLAS settings
    (BLAS_ENV_VARS), the CPU count, the shape and the bytes of m. The BLAS
    build itself is not in the key."""
    digest = hashlib.sha256(SPECTRUM_LAYOUT.encode())
    digest.update(np.__version__.encode())
    for name in BLAS_ENV_VARS:
        digest.update(f"\0{name}={os.environ.get(name)!r}".encode())
    digest.update(f"\0cpus={os.cpu_count()!r}\0".encode())
    digest.update(repr(m.shape).encode())
    # The buffer of a C-contiguous array is m.tobytes() without the copy.
    digest.update(np.ascontiguousarray(m))
    return digest.hexdigest()


def _descending_eigh(m: np.ndarray, k: int,
                     cache: str | os.PathLike | None) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenvalues of m in descending order and their
    eigenvectors as the columns of an (n, k) array: the columns of
    np.linalg.eigh(m) at the first k of a stable argsort of -values, read
    from or saved to `cache` as `eig_topk` says; a failed save only warns."""

    def leading(values: np.ndarray) -> np.ndarray:
        return np.argsort(-values, kind="stable")[:k]

    n = m.shape[0]
    if cache is not None:
        path, key = Path(cache), _spectrum_key(m)
        saved = _load_spectrum(path, key, n, leading)
        if saved is not None:
            logger.info("reused the eigendecomposition of the %dx%d matrix (key %s) from %s",
                        n, n, key[:12], path)
            return saved
    values, vectors = np.linalg.eigh(m)
    if cache is not None and _save_spectrum(path, key, values, vectors):
        logger.info("computed the eigendecomposition of the %dx%d matrix (key %s) and saved"
                    " it to %s", n, n, key[:12], path)
    order = leading(values)
    return values[order], vectors[:, order]


def eig_topk(
    matrix: np.ndarray, k: int, cache: str | os.PathLike | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenpairs of a symmetric matrix with the largest eigenvalues,
    as (values, vectors).

    `values` has shape (k,) and descends; column i of the C-contiguous
    (n, k) array `vectors` is the eigenvector of values[i], unit-norm with
    a deterministic sign (largest-magnitude component positive, first
    index on ties). Each pair is checked against the residual bound
    ||Mv - lv|| <= 1e-8 * max(1, ||M||_F).

    With `cache`, the path of an .npz file, the full decomposition is kept
    there keyed by the exact matrix bytes and the BLAS settings:
    the values and vectors exactly as np.linalg.eigh returns them (values
    ascending, eigenvectors as columns). A later call on the same matrix,
    at any k, reads back the values and gathers only the k columns it
    needs instead of decomposing again, and returns the same bits the
    first call did. The whole file is read in chunks, so a damaged file is
    still a miss, as is a file in an earlier layout. The input checks run
    before the file is read or written; pairs read back pass the same
    sign and residual steps as fresh ones.
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
    top_values, top = _descending_eigh(m, k, cache)
    flip = top[np.argmax(np.abs(top), axis=0), np.arange(k)] < 0.0
    top[:, flip] = -top[:, flip]
    # All k residuals from one matrix product; they only gate the result.
    residuals = np.linalg.norm(m @ top - top * top_values, axis=0)
    bound = EIG_RESIDUAL_TOL * max(1.0, float(np.linalg.norm(m)))
    worst = int(np.argmax(residuals))
    if residuals[worst] > bound:
        raise ArithmeticError(
            f"eigenpair residual {residuals[worst]:.3e} exceeds bound {bound:.3e}"
        )
    # A fresh decomposition gives F-ordered columns, a saved one C-ordered
    # rows; numpy's row norms of the two can differ in the last bit, so a
    # cache hit and a miss hand over one layout.
    return top_values, np.ascontiguousarray(top)


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


def spectral_cluster(
    affinity: AffinityMatrix,
    k: int,
    seed: int,
    normalized: bool = True,
    cache: str | os.PathLike | None = None,
) -> np.ndarray:
    """Cluster the affinity graph into k groups: an int64 cluster id per row.

    Zero-degree rows (similar to nothing) become singleton clusters first
    and the remaining rows are decomposed into the leftover cluster budget,
    so the output always holds each of the ids 0..k-1. Labels are canonical
    by first appearance, making the result deterministic for (A, k, seed).

    `cache` is passed to `eig_topk` in both variants, so runs at several k
    on one affinity decompose its (normalized or Laplacian) matrix once.
    The matrix is built in one n x n array (D^-1/2 A D^-1/2 scaled and
    mirrored in place, or -L), so a run that reads its pairs from `cache`
    holds two n x n arrays: the affinity and that matrix.
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
        sub = affinity.entries[np.ix_(connected, connected)] if len(isolated) else affinity.entries
        deg = sub.sum(axis=1)
        if normalized:
            inv_sqrt = 1.0 / np.sqrt(deg)
            # The submatrix without the isolated rows is already a copy.
            matrix = np.multiply(sub, inv_sqrt[:, None], out=sub if len(isolated) else None)
            matrix *= inv_sqrt[None, :]
            _mirror_upper(matrix)
        else:
            # -L = -(D - A) in one array; -(0.0 - 0.0) is -0.0 off the
            # diagonal, as in the expression. Smallest eigenvalues of L are
            # the largest of -L.
            matrix = np.diag(deg)
            np.subtract(matrix, sub, out=matrix)
            np.negative(matrix, out=matrix)
        _, embedding = eig_topk(matrix, k_rem, cache)
        if normalized:
            lengths = np.linalg.norm(embedding, axis=1)
            nonzero = lengths > 0.0
            embedding[nonzero] = embedding[nonzero] / lengths[nonzero, None]
        sub_labels, _, _ = kmeans(embedding, k_rem, seed)

    # Each row's k-means id, or for a singleton k_rem + its index, past
    # every k-means id; then relabelled by first appearance.
    raw = k_rem + np.arange(n)
    raw[connected] = sub_labels
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def summarize_clusters(
    labels: np.ndarray,
    ranked: Sequence[RankedCandidate],
    vectors: np.ndarray,
) -> list[dict]:
    """Group ranked candidates by cluster id and pick each cluster's medoid.

    `labels` holds a cluster id per ranked candidate, as `spectral_cluster`
    returns them, and `vectors` one composed vector per ranked candidate,
    as the rows of an (n, dim) array. Clusters are listed by id. The
    medoid is the member whose vector is closest to the cluster centroid
    (first by rank on ties). Members are listed in rank order.
    """
    if not len(ranked) == len(vectors) == len(labels):
        raise ValueError("ranked candidates, vectors, and labels must align")
    summaries = []
    for cluster_id in np.unique(labels).tolist():
        indices = sorted(np.flatnonzero(labels == cluster_id), key=lambda i: ranked[i].rank)
        members = vectors[indices]
        diffs = members - np.mean(members, axis=0)
        medoid = indices[int(np.argmin(row_norms(diffs)))]
        summaries.append({
            "cluster_id": cluster_id,
            "members": [_member_dict(ranked[i]) for i in indices],
            "medoid": _member_dict(ranked[medoid]),
        })
    return summaries


def _member_dict(rc: RankedCandidate) -> dict:
    return {
        "kind": rc.candidate.kind.value,
        "first": rc.candidate.first,
        "second": rc.candidate.second,
        "score": rc.score,
    }
