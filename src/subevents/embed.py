"""Word vectors and composition of multiword expressions.

Vectors load from word2vec text format (header line `<vocab> <dim>`, then
one `<word> <f1> ... <f_dim>` row per word). A multiword expression is
composed by summing its word vectors and L2-normalizing the sum, so cosine
similarity downstream is scale-free. Out-of-vocabulary words are either
skipped or synthesized from hashed character n-grams, mimicking
subword-based embedding models.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from ._util import fnv1a_32, open_text
from .errors import InputFormatError

logger = logging.getLogger(__name__)

SUBWORD_MIN_GRAM = 3
SUBWORD_MAX_GRAM = 6
SUBWORD_BUCKETS = 1 << 16
# Largest |value| a vector row may hold. The squared norm of a sum of W such
# rows in d dimensions stays finite while W * sqrt(d) < ~1e54, so `compose`
# and the cosines after it never overflow.
VALUE_BOUND = 1e100
# Rows load_vectors parses with one np.loadtxt call; it holds the text of
# at most one block. Larger blocks parse no faster on the benchmark inputs
# and raise a stage's peak RSS: a fresh-process `rank` on the cluster_sweep
# inputs peaked at 41.1 MB with 128 rows and 44.9 MB with 4096 (2-core VM).
VECTOR_BLOCK_ROWS = 128


class OovPolicy(Enum):
    SKIP_WORD = "skip"
    SUBWORD_HASH = "subword"


@dataclass
class EmbeddingStore:
    """Immutable-after-load store of word vectors plus how to compose them.

    Under SUBWORD_HASH, an OOV word gets the average of per-n-gram
    vectors drawn from a table of SUBWORD_BUCKETS buckets generated
    deterministically from (hash_seed, bucket); bucket vectors are
    materialized lazily but are a pure function of the seed, and each OOV
    word's vector is made once and kept read-only.
    """

    dim: int
    vectors: dict[str, np.ndarray]
    oov_policy: OovPolicy = OovPolicy.SKIP_WORD
    hash_seed: int = 0
    _bucket_cache: dict[int, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    _subword_cache: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def _bucket_vector(self, bucket: int) -> np.ndarray:
        vec = self._bucket_cache.get(bucket)
        if vec is None:
            rng = np.random.default_rng([self.hash_seed, bucket])
            vec = rng.uniform(-1.0 / self.dim, 1.0 / self.dim, self.dim)
            self._bucket_cache[bucket] = vec
        return vec

    def subword_vector(self, word: str) -> np.ndarray | None:
        """Average of hashed 3-6 character-gram vectors of '<word>'; the
        same read-only array on every call for the same word."""
        if not word:
            return None
        vec = self._subword_cache.get(word)
        if vec is not None:
            return vec
        marked = f"<{word}>"
        grams = [
            marked[i : i + n]
            for n in range(SUBWORD_MIN_GRAM, SUBWORD_MAX_GRAM + 1)
            for i in range(len(marked) - n + 1)
        ]
        total = np.zeros(self.dim)
        for gram in grams:
            total += self._bucket_vector(fnv1a_32(gram.encode("utf-8")) % SUBWORD_BUCKETS)
        vec = total / len(grams)
        vec.flags.writeable = False
        self._subword_cache[word] = vec
        return vec


@dataclass(frozen=True)
class ComposedVector:
    """Unit vector for a multiword expression; null when nothing composed."""

    values: np.ndarray
    is_null: bool


def load_vectors(
    path: str | Path,
    oov_policy: OovPolicy = OovPolicy.SKIP_WORD,
    hash_seed: int = 0,
    words: Collection[str] | None = None,
) -> EmbeddingStore:
    """Load word2vec-text-format vectors: every row, or with `words` only
    the rows whose first field is one of them. The rows of other words are
    skipped unparsed, so they are neither checked nor warned about.

    The rows that are read are parsed VECTOR_BLOCK_ROWS at a time: the text
    after each row's word goes to one ``np.loadtxt``, whose C reader rounds
    as ``float()`` does and splits fields where ``str.split()`` does. A
    block is taken whole only when every row holds `dim` finite values no
    larger in magnitude than VALUE_BOUND. Any other block (one holding a
    row of only a word, too) is parsed row by row, by numpy's
    string-to-float64 cast, which reads every value as ``float()`` does;
    only there is a row rejected with a warning, when its arity disagrees
    with the declared dimension or a value is non-numeric, non-finite or
    larger in magnitude than VALUE_BOUND. A duplicate word keeps the first
    accepted row; the warnings come in line order. A malformed header is
    fatal.
    """
    with open_text(path) as fh:
        header = fh.readline().split()
        try:
            declared, dim = int(header[0]), int(header[1])
        except (IndexError, ValueError) as exc:
            raise InputFormatError(
                f"{path}: expected '<vocab_size> <dim>' header, got {header!r}"
            ) from exc
        if len(header) != 2 or declared < 0 or dim < 1:
            raise InputFormatError(f"{path}: invalid header {header!r}")
        vectors: dict[str, np.ndarray] = {}
        for block in _row_blocks(fh, words):
            for lineno, word, values in _parse_block(path, dim, block):
                if values is None:
                    continue
                if word in vectors:
                    logger.warning("%s:%d: duplicate word %r, keeping first", path, lineno, word)
                    continue
                vectors[word] = values
    if words is not None:
        logger.info("%s: loaded %d of the %d words asked for", path, len(vectors), len(words))
    elif declared != len(vectors):
        logger.info("%s: header declared %d words, loaded %d", path, declared, len(vectors))
    return EmbeddingStore(dim=dim, vectors=vectors, oov_policy=oov_policy, hash_seed=hash_seed)


_Row = tuple[int, str, str | None]


def _row_blocks(lines: Iterable[str], words: Collection[str] | None) -> Iterator[list[_Row]]:
    """The non-blank rows after the header (of `words` only, if given) as
    (line number, word, the text after the word or None), in blocks of
    VECTOR_BLOCK_ROWS."""
    block: list[_Row] = []
    for lineno, line in enumerate(lines, start=2):
        head = line.split(None, 1)
        if not head or (words is not None and head[0] not in words):
            continue
        block.append((lineno, head[0], head[1] if len(head) == 2 else None))
        if len(block) == VECTOR_BLOCK_ROWS:
            yield block
            block = []
    if block:
        yield block


def _parse_block(path: str | Path, dim: int,
                 block: list[_Row]) -> Iterator[tuple[int, str, np.ndarray | None]]:
    """(line number, word, values) for each row of `block`, in order, with
    values None for a row rejected with a warning. The block is taken whole
    from one ``np.loadtxt`` when every row holds `dim` finite values within
    VALUE_BOUND; any other block goes row by row through `_parse_row`.
    ``np.loadtxt`` warns on empty input, so a block holding a row of only a
    word is never passed to it."""
    tails = [tail for _, _, tail in block]
    table = None
    if None not in tails:
        try:
            table = np.loadtxt(tails, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            pass
    if table is not None and table.shape == (len(block), dim) and (
            np.abs(table) <= VALUE_BOUND).all():
        for (lineno, word, _), values in zip(block, table):
            yield lineno, word, values
    else:
        for lineno, word, tail in block:
            yield lineno, word, _parse_row(path, dim, lineno, word, tail)


def _parse_row(path: str | Path, dim: int, lineno: int, word: str,
               tail: str | None) -> np.ndarray | None:
    """The values of one row, or None after a warning: the one owner of the row rules."""
    fields = tail.split() if tail is not None else []
    if len(fields) != dim:
        return _reject(path, lineno, word, f"{len(fields)} values, expected {dim}")
    try:
        values = np.array(fields, dtype=np.float64)
    except ValueError:
        return _reject(path, lineno, word, "non-numeric")
    if not np.isfinite(values).all():
        return _reject(path, lineno, word, "non-finite")
    if np.abs(values).max() > VALUE_BOUND:
        return _reject(path, lineno, word, f"|value| > {VALUE_BOUND:g}")
    return values


def _reject(path: str | Path, lineno: int, word: str, reason: str) -> None:
    logger.warning("%s:%d: rejecting row for %r (%s)", path, lineno, word, reason)


def row_products(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``matrix @ row`` for each row, summed by einsum, not BLAS: the bits
    depend neither on the BLAS kernels nor on a row's alignment, and are
    the same for ``row[None]`` as batched (``optimize=True`` is BLAS)."""
    return np.einsum("td,nd->nt", matrix, rows, optimize=False)


def row_norms(rows: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(row)`` for each row, with einsum's bits as in `row_products`."""
    return np.sqrt(np.einsum("nd,nd->n", rows, rows, optimize=False))


def compose(words: Sequence[str], store: EmbeddingStore) -> ComposedVector:
    """Sum the words' vectors and L2-normalize the sum.

    OOV words follow the store's policy. Returns a null vector when no word
    contributes or the sum is zero.
    """
    if not words:
        raise ValueError("compose requires at least one word")
    total = np.zeros(store.dim)
    for word in words:
        vec = store.vectors.get(word)
        if vec is None and store.oov_policy is OovPolicy.SUBWORD_HASH:
            vec = store.subword_vector(word)
        if vec is not None:
            total = total + vec
    norm = float(row_norms(total[None])[0])
    if norm == 0.0:
        return ComposedVector(values=np.zeros(store.dim), is_null=True)
    return ComposedVector(values=total / norm, is_null=False)
