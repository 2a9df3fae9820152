"""Candidate ranking against a crisis term list, plus the overlap baseline.

The main ranker scores each candidate by the maximum cosine similarity
between its composed vector and the composed vectors of the ontology
terms. The baseline ranker scores a candidate by the Szymkiewicz-Simpson
overlap coefficient of its two words' tweet-occurrence sets, discounted by
log(1 + co-occurrence count).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import format_float, read_list_file, read_table, write_table
from .corpus import TokenCleaner
from .embed import EmbeddingStore, compose, row_products
from .errors import InputFormatError
from .extract import Candidate, CandidateSet, _parse_candidate

NULL_SCORE = -1.0
DISCOUNTS = ("log", "none")


@dataclass(frozen=True, eq=False)
class Ontology:
    """Term list plus the unit vectors of its usable terms, one row per
    usable term in list order. Terms that composed to null are kept in
    `terms` for reporting but excluded from max-cosine scoring."""

    terms: tuple[str, ...]
    usable_terms: tuple[str, ...]
    matrix: np.ndarray

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class RankedCandidate:
    candidate: Candidate
    score: float
    best_term: str | None
    rank: int


def compose_rows(
    word_lists: Sequence[Sequence[str]], store: EmbeddingStore
) -> tuple[np.ndarray, np.ndarray]:
    """Compose each word list into one row of an (n, dim) array.

    Returns the array and a boolean mask of the null rows; a null row is
    all zeros, every other row has unit norm.
    """
    rows = np.zeros((len(word_lists), store.dim))
    null = np.zeros(len(word_lists), dtype=bool)
    for i, words in enumerate(word_lists):
        vec = compose(words, store)
        rows[i], null[i] = vec.values, vec.is_null
    return rows, null


def read_terms(path: str | Path | None) -> tuple[str | Path, list[str], list[list[str]]]:
    """A one-term-per-line term list: the name to report it by, its terms
    in list order and each term's words.

    '#' comment lines and blank lines are ignored; terms are lowercased.
    The bundled crisis term list is read when no path is given.
    """
    path, entries = read_list_file(path, "moac_terms.txt", "<bundled term list>")
    terms = [term.lower() for _, term in entries]
    return path, terms, [term.split() for term in terms]


def load_ontology(term_list: tuple[str | Path, list[str], list[list[str]]],
                  store: EmbeddingStore) -> Ontology:
    """Compose a vector per term of a term list as `read_terms` returns it,
    so the words a caller loaded vectors for are the words composed here.
    Zero usable (non-null) terms is fatal."""
    path, terms, words = term_list
    if not terms:
        raise InputFormatError(f"{path}: no terms found")
    rows, null = compose_rows(words, store)
    if null.all():
        raise InputFormatError(f"{path}: no term has an in-vocabulary vector")
    usable = tuple(term for term, is_null in zip(terms, null) if not is_null)
    return Ontology(terms=tuple(terms), usable_terms=usable, matrix=rows[~null])


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
) -> list[RankedCandidate]:
    """Rank candidates by max cosine similarity to the ontology terms.

    best_term is the argmax term (the first listed on exact ties).
    Candidates whose composed vector is null score -1 and sink to the
    bottom, kept for auditability.
    """
    cands = _as_candidates(candidates)
    rows, null = compose_rows([cand.words for cand in cands], store)
    sims = row_products(ontology.matrix, rows)
    best = np.argmax(sims, axis=1)
    scores = np.where(null, NULL_SCORE, sims[np.arange(len(cands)), best])
    del sims, rows  # freed before the per-candidate objects are made
    terms = np.where(null, None, np.array(ontology.usable_terms, dtype=object)[best])
    return _sort_and_rank(list(zip(cands, scores.tolist(), terms.tolist())))


def rank_baseline_overlap(
    candidates: CandidateSet | Sequence[Candidate],
    texts: Iterable[tuple[str, str]],
    cleaner: TokenCleaner,
    discount: str = "log",
) -> list[RankedCandidate]:
    """Overlap-coefficient baseline ranking over ``(tweet_id, raw_text)``
    pairs, such as ``TweetTokens.texts`` yields, each text read as the ids
    of its words in `cleaner`.

    For candidate (a, b) with tweet-id occurrence sets A and B, the score is
    |A∩B| / min(|A|, |B|) times a discounting factor: log(1 + |A∩B|) by
    default, or 1 with discount="none". A repeated tweet id counts once.
    Candidates with an empty occurrence set score 0. Only the occurrence
    sets of candidate words are kept, so memory does not grow with tweets
    that hold none.
    """
    if discount not in DISCOUNTS:
        raise ValueError(f"unknown discount {discount!r}")
    cands = _as_candidates(candidates)
    # Candidate words take ids as they are, not cleaned: a cleaned stopword
    # would take REMOVED, the id of every removed token.
    word_id = cleaner.word_id
    postings: dict[int, set[str]] = {word_id(word): set() for cand in cands for word in cand.words}
    raw_ids, posting = cleaner.__getitem__, postings.get
    for tweet_id, text in texts:
        for word in map(raw_ids, text.lower().split()):
            ids = posting(word)
            if ids is not None:
                ids.add(tweet_id)
    scored: list[tuple[Candidate, float, str | None]] = []
    for cand in cands:
        ids_a = postings[word_id(cand.first)]
        ids_b = postings[word_id(cand.second)]
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


RANKED_CSV_HEADER = ["rank", "kind", "first", "second", "frequency", "score", "best_term"]


def write_ranked(ranked: Sequence[RankedCandidate], path: str | Path) -> None:
    write_table(path, RANKED_CSV_HEADER, (
        (rc.rank, rc.candidate.kind.value, rc.candidate.first, rc.candidate.second,
         rc.candidate.frequency, format_float(rc.score), rc.best_term or "")
        for rc in ranked
    ))


def read_ranked(path: str | Path) -> list[RankedCandidate]:
    """The records of a ranked.csv, whose candidate fields are read as
    candidates.csv's are. A rank other than the record's 1-based position
    is malformed: cluster takes the top candidates by position, evaluate by
    rank, and only the file rank writes makes the two agree."""
    positions = itertools.count(1)

    def parse(row: list[str]) -> RankedCandidate:
        ranked = RankedCandidate(candidate=_parse_candidate(row[1:5]), score=float(row[5]),
                                 best_term=row[6] or None, rank=int(row[0]))
        if ranked.rank != next(positions):
            raise ValueError(f"rank {ranked.rank} out of position")
        return ranked

    return read_table(path, RANKED_CSV_HEADER, parse)
