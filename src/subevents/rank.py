"""Candidate ranking against a crisis term list, plus the overlap baseline.

The main ranker scores each candidate by the maximum cosine similarity
between its composed vector and the composed vectors of the ontology
terms. The baseline ranker scores a candidate by the Szymkiewicz-Simpson
overlap coefficient of its two words' tweet-occurrence sets, discounted by
log(1 + co-occurrence count).
"""

from __future__ import annotations

import csv
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from ._util import format_float
from .corpus import Corpus
from .embed import ComposedVector, EmbeddingStore, compose
from .errors import InputFormatError
from .extract import Candidate, CandidateKind, CandidateSet

logger = logging.getLogger(__name__)

NULL_SCORE = -1.0
DISCOUNTS = ("log", "none")


@dataclass(frozen=True)
class Ontology:
    """Term list with composed vectors; terms that composed to null are kept
    for reporting but excluded from max-cosine scoring."""

    terms: tuple[str, ...]
    term_vectors: tuple[ComposedVector, ...]

    @property
    def usable_indices(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.term_vectors) if not v.is_null)

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class RankedCandidate:
    candidate: Candidate
    score: float
    best_term: str | None
    rank: int


def load_ontology(
    path: str | Path | None,
    store: EmbeddingStore,
    normalize_words: bool = False,
) -> Ontology:
    """Load a one-term-per-line term list and compose a vector per term.

    '#' comment lines and blank lines are ignored; terms are lowercased.
    The bundled crisis term list is used when no path is given. Zero usable
    (non-null) terms is fatal.
    """
    if path is None:
        text = resources.files("subevents.data").joinpath("moac_terms.txt").read_text("utf-8")
        path = "<bundled term list>"
    else:
        text = Path(path).read_text(encoding="utf-8")
    terms = []
    for line in text.splitlines():
        term = line.strip().lower()
        if term and not term.startswith("#"):
            terms.append(term)
    if not terms:
        raise InputFormatError(f"{path}: no terms found")
    vectors = tuple(compose(term.split(), store, normalize_words) for term in terms)
    ontology = Ontology(terms=tuple(terms), term_vectors=vectors)
    usable = len(ontology.usable_indices)
    if usable == 0:
        raise InputFormatError(f"{path}: no term has an in-vocabulary vector")
    if usable < len(terms):
        logger.warning(
            "%s: %d of %d terms have null vectors and are excluded from scoring",
            path, len(terms) - usable, len(terms),
        )
    return ontology


def _as_candidates(candidates: CandidateSet | Sequence[Candidate]) -> Sequence[Candidate]:
    if isinstance(candidates, CandidateSet):
        return candidates.candidates
    return candidates


def _sort_and_rank(scored: list[tuple[Candidate, float, str | None]]) -> list[RankedCandidate]:
    # Ties: frequency descending, then (first, second) lexicographic; kind is
    # a final key so same-worded pair/phrase candidates order deterministically.
    scored.sort(key=lambda item: (-item[1], -item[0].frequency, item[0].first,
                                  item[0].second, item[0].kind.value))
    return [
        RankedCandidate(candidate=cand, score=score, best_term=term, rank=i)
        for i, (cand, score, term) in enumerate(scored, start=1)
    ]


def rank_candidates(
    candidates: CandidateSet | Sequence[Candidate],
    ontology: Ontology,
    store: EmbeddingStore,
    normalize_words: bool = False,
) -> list[RankedCandidate]:
    """Rank candidates by max cosine similarity to the ontology terms.

    best_term is the argmax term (the first listed on exact ties).
    Candidates whose composed vector is null score -1 and sink to the
    bottom, kept for auditability.
    """
    usable = ontology.usable_indices
    term_matrix = np.stack([ontology.term_vectors[i].values for i in usable])
    scored: list[tuple[Candidate, float, str | None]] = []
    for cand in _as_candidates(candidates):
        vec = compose(list(cand.words), store, normalize_words)
        if vec.is_null:
            scored.append((cand, NULL_SCORE, None))
            continue
        sims = term_matrix @ vec.values
        best = int(np.argmax(sims))
        scored.append((cand, float(sims[best]), ontology.terms[usable[best]]))
    return _sort_and_rank(scored)


def rank_baseline_overlap(
    candidates: CandidateSet | Sequence[Candidate],
    corpus: Corpus,
    discount: str = "log",
) -> list[RankedCandidate]:
    """Overlap-coefficient baseline ranking.

    For candidate (a, b) with tweet-id occurrence sets A and B, the score is
    |A∩B| / min(|A|, |B|) times a discounting factor: log(1 + |A∩B|) by
    default, or 1 with discount="none". Candidates with an empty occurrence
    set score 0.
    """
    if discount not in DISCOUNTS:
        raise ValueError(f"unknown discount {discount!r}")
    postings: dict[str, set[str]] = {}
    for tweet in corpus.tweets:
        for token in set(tweet.tokens):
            postings.setdefault(token, set()).add(tweet.id)
    scored: list[tuple[Candidate, float, str | None]] = []
    for cand in _as_candidates(candidates):
        ids_a = postings.get(cand.first, set())
        ids_b = postings.get(cand.second, set())
        smaller = min(len(ids_a), len(ids_b))
        if smaller == 0:
            scored.append((cand, 0.0, None))
            continue
        co_count = len(ids_a & ids_b)
        score = co_count / smaller
        if discount == "log":
            score *= math.log1p(co_count)
        scored.append((cand, score, None))
    return _sort_and_rank(scored)


def top_k(ranked: Sequence[RankedCandidate], k: int) -> list[RankedCandidate]:
    """First min(k, len) entries of the ranking."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(ranked[:k])


RANKED_CSV_HEADER = ["rank", "kind", "first", "second", "frequency", "score", "best_term"]


def write_ranked(ranked: Sequence[RankedCandidate], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RANKED_CSV_HEADER)
        for rc in ranked:
            writer.writerow([
                rc.rank,
                rc.candidate.kind.value,
                rc.candidate.first,
                rc.candidate.second,
                rc.candidate.frequency,
                format_float(rc.score),
                rc.best_term or "",
            ])


def read_ranked(path: str | Path) -> list[RankedCandidate]:
    ranked = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RANKED_CSV_HEADER:
            raise InputFormatError(f"{path}: expected header {','.join(RANKED_CSV_HEADER)}")
        for row in reader:
            if len(row) != 7:
                raise InputFormatError(f"{path}: malformed row {row!r}")
            try:
                candidate = Candidate(CandidateKind(row[1]), row[2], row[3], int(row[4]))
                ranked.append(
                    RankedCandidate(
                        candidate=candidate,
                        score=float(row[5]),
                        best_term=row[6] or None,
                        rank=int(row[0]),
                    )
                )
            except ValueError as exc:
                raise InputFormatError(f"{path}: malformed row {row!r}") from exc
    return ranked
