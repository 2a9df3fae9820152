"""Candidate sub-event extraction.

Candidates are noun-verb pairs read off dependency-parse edges (with a
window-based lexicon fallback for corpora without parses) plus adjacent
two-word phrases detected with a vocabulary-scaled co-occurrence score.
Noun-verb pairs are kept only when they occur at least ``filter_min_freq``
times corpus-wide (default 2); phrases are frequency-gated by the detector
itself. ``ExtractCounts`` folds a corpus into the counts behind both, one
tweet at a time.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from ._util import read_list_file, read_table, write_table
from .corpus import NvEdges, TokenCleaner
from .errors import InputFormatError

logger = logging.getLogger(__name__)

DEFAULT_MIN_FREQ = 2
DEFAULT_WINDOW = 4

_NO_TAGS: frozenset[str] = frozenset()


class CandidateKind(Enum):
    NOUN_VERB_PAIR = "nv"
    PHRASE = "phrase"


@dataclass(frozen=True)
class Candidate:
    """A candidate sub-event; identity is (kind, first, second).

    For noun-verb pairs `first` is the noun and `second` the verb, whatever
    the direction of the parse edge. For phrases (first, second) is an
    adjacent bigram. Frequencies aggregate over the whole corpus.
    """

    kind: CandidateKind
    first: str
    second: str
    frequency: int = 1

    @property
    def words(self) -> tuple[str, str]:
        return (self.first, self.second)


@dataclass(frozen=True)
class PhraseConfig:
    min_count: int = 2
    threshold: float = 10.0

    def __post_init__(self) -> None:
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not (math.isfinite(self.threshold) and self.threshold >= 0):
            raise ValueError("threshold must be finite and >= 0")


@dataclass(frozen=True)
class CandidateSet:
    """Filtered candidates plus the accounting the extract stage reports.

    `overlap` is 0 by construction: kind is part of a candidate's identity,
    so a noun-verb pair and a phrase never collide. It stays in
    ``accounting.json``.
    """

    candidates: tuple[Candidate, ...]
    nv_before: int
    nv_after: int
    phrase_count: int
    total: int
    overlap: int

    def __len__(self) -> int:
        return len(self.candidates)


def _edge_pairs(edges: NvEdges, cleaner: TokenCleaner) -> Iterator[tuple[str, str]]:
    """(noun, verb) of each parse edge, lowercased and cleaned, for the
    edges whose two words both survive preprocessing."""
    for noun, verb in edges:
        noun = cleaner[noun.lower()]
        verb = cleaner[verb.lower()]
        if noun is not None and verb is not None:
            yield noun, verb


def load_pos_lexicon(path: str | Path) -> dict[str, frozenset[str]]:
    """Load a `word TAB tags` lexicon (tags a subset of {N, V})."""
    _, entries = read_list_file(path)
    lexicon: dict[str, frozenset[str]] = {}
    for lineno, line in entries:
        parts = line.split("\t")
        if len(parts) != 2 or not set(parts[1]) <= {"N", "V"}:
            raise InputFormatError(f"{path}:{lineno}: expected 'word<TAB>tags' with tags in {{N,V}}")
        lexicon[parts[0].lower()] = frozenset(parts[1])
    return lexicon


def _window_pairs(
    tokens: Sequence[str], lexicon: dict[str, frozenset[str]]
) -> Iterator[tuple[str, str]]:
    """(noun, verb) for each lexicon noun and each lexicon verb that follows
    it within a sliding window of DEFAULT_WINDOW tokens (both inside one
    window, so at distance < DEFAULT_WINDOW), left to right."""
    for i, noun in enumerate(tokens):
        if "N" not in lexicon.get(noun, _NO_TAGS):
            continue
        for j in range(i + 1, min(i + DEFAULT_WINDOW, len(tokens))):
            verb = tokens[j]
            if "V" in lexicon.get(verb, _NO_TAGS):
                yield noun, verb


class ExtractCounts:
    """The corpus-wide counts extraction reads, folded one tweet at a time.

    ``add`` takes one tweet's id and cleaned tokens (as ``TweetTokens``
    yields them): it counts the tweet's noun-verb pairs and its unigrams
    and adjacent bigrams, and keeps nothing else of it. A tweet whose id
    has an entry in ``parses`` takes its pairs from that parse's edges,
    their words cleaned by ``cleaner``; one without takes them from the
    lexicon window when a lexicon is given, and has none otherwise. Memory
    grows with the vocabulary, not with the number of tweets.
    """

    def __init__(
        self,
        cleaner: TokenCleaner,
        parses: Mapping[str, NvEdges] | None = None,
        lexicon: dict[str, frozenset[str]] | None = None,
    ) -> None:
        self.cleaner = cleaner
        self.parses = parses if parses is not None else {}
        self.lexicon = lexicon
        self.pairs: Counter[tuple[str, str]] = Counter()
        self.unigrams: Counter[str] = Counter()
        self.bigrams: Counter[tuple[str, str]] = Counter()
        self.tweets = 0
        self.parsed = self.fallback = self.neither = 0

    def add(self, tweet_id: str, tokens: Sequence[str]) -> None:
        self.tweets += 1
        self.count_nv(self.parses.get(tweet_id), tokens)
        self.count_grams(tokens)

    def count_nv(self, parse: NvEdges | None, tokens: Sequence[str]) -> None:
        """Count one tweet's noun-verb pairs. With a parse, each of its
        (noun, verb) edges counts once, both words lowercased and cleaned
        by ``cleaner``; an edge whose words do not both survive is dropped.
        Without a parse but with a lexicon, the pairs are those of
        ``_window_pairs`` over the tokens. Otherwise the tweet has none."""
        if parse is not None:
            self.parsed += 1
            self.pairs.update(_edge_pairs(parse, self.cleaner))
        elif self.lexicon is not None:
            self.fallback += 1
            self.pairs.update(_window_pairs(tokens, self.lexicon))
        else:
            self.neither += 1

    def count_grams(self, tokens: Sequence[str]) -> None:
        """Count one tweet's unigrams and adjacent bigrams."""
        self.unigrams.update(tokens)
        self.bigrams.update(zip(tokens, tokens[1:]))

    def phrases(self, cfg: PhraseConfig = PhraseConfig()) -> list[Candidate]:
        """Adjacent two-word phrases over the counted tokens.

        A bigram (a, b) with count(a,b) >= min_count is scored by
        ``phrase_score`` with V the distinct-unigram count; one whose score
        is above threshold becomes a Phrase candidate with frequency
        count(a,b). Output is sorted by (first, second) and so independent
        of tweet order.
        """
        unigrams = self.unigrams
        vocab_size = len(unigrams)
        phrases = []
        for (a, b), count_ab in self.bigrams.items():
            if count_ab < cfg.min_count:
                continue
            score = phrase_score(count_ab, unigrams[a], unigrams[b], vocab_size, cfg.min_count)
            if score > cfg.threshold:
                phrases.append(Candidate(CandidateKind.PHRASE, a, b, frequency=count_ab))
        phrases.sort(key=lambda c: (c.first, c.second))
        return phrases

    def candidates(
        self, cfg: PhraseConfig = PhraseConfig(), min_freq: int = DEFAULT_MIN_FREQ
    ) -> CandidateSet:
        """The pairs counted at least ``min_freq`` times, sorted by (noun,
        verb), then the phrases, sorted by (first, second). "nv" sorts
        before "phrase", so the whole is in (kind, first, second) order;
        ``nv_before`` is the number of distinct pairs counted."""
        kept = [
            Candidate(CandidateKind.NOUN_VERB_PAIR, noun, verb, frequency=count)
            for (noun, verb), count in sorted(p for p in self.pairs.items() if p[1] >= min_freq)
        ]
        phrases = self.phrases(cfg)
        return CandidateSet(
            candidates=(*kept, *phrases),
            nv_before=len(self.pairs),
            nv_after=len(kept),
            phrase_count=len(phrases),
            total=len(kept) + len(phrases),
            overlap=0,
        )


def phrase_score(
    count_ab: int, count_a: int, count_b: int, vocab_size: int, min_count: int
) -> float:
    """The raw bigram score ``ExtractCounts.phrases`` thresholds:
    (count(a,b) - min_count) * V / (count(a) * count(b)), with V the
    distinct-unigram count."""
    return (count_ab - min_count) * vocab_size / (count_a * count_b)


def reduction_percent(before: int, after: int) -> float:
    """Percentage reduction from `before` to `after` counts (0.0 when before is 0)."""
    if before == 0:
        return 0.0
    return 100.0 * (1.0 - after / before)


CANDIDATE_CSV_HEADER = ["kind", "first", "second", "frequency"]


def write_candidates(candidates: Iterable[Candidate], path: str | Path) -> None:
    write_table(path, CANDIDATE_CSV_HEADER,
                ((c.kind.value, c.first, c.second, c.frequency) for c in candidates))


def _parse_candidate(row: list[str]) -> Candidate:
    return Candidate(CandidateKind(row[0]), row[1], row[2], int(row[3]))


def read_candidates(path: str | Path) -> list[Candidate]:
    return read_table(path, CANDIDATE_CSV_HEADER, _parse_candidate)
