"""Candidate sub-event extraction.

Candidates are noun-verb pairs read off dependency-parse edges (with a
window-based lexicon fallback for corpora without parses) plus adjacent
two-word phrases detected with a vocabulary-scaled co-occurrence score.
Noun-verb pairs are kept only when they occur at least twice corpus-wide;
phrases are frequency-gated by the detector itself.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from ._util import read_list_file, read_table, write_table
from .corpus import NOUN_TAGS, VERB_TAG  # noqa: F401  (re-exported: the edge rule's tags)
from .corpus import Corpus, TokenCleaner, Tweet, clean_token
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
    def identity(self) -> tuple[str, str, str]:
        return (self.kind.value, self.first, self.second)

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
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")


@dataclass(frozen=True)
class CandidateSet:
    """Filtered candidate union plus the accounting the extract stage reports."""

    candidates: tuple[Candidate, ...]
    nv_before: int
    nv_after: int
    phrase_count: int
    total: int
    overlap: int

    def __len__(self) -> int:
        return len(self.candidates)


def extract_nv_pairs(tweet: Tweet, stopwords: frozenset[str]) -> list[Candidate]:
    """Noun-verb pairs from the tweet's dependency parse.

    Every head-dependent edge joining a {NOUN, PROPN} node and a VERB node
    yields one pair, noun first regardless of edge direction, lowercase
    surface forms. Pairs whose members would not survive preprocessing
    (too short, digits, stopwords) are dropped.
    """
    if tweet.parse is None:
        raise ValueError(
            f"tweet {tweet.id} has no dependency parse; use extract_nv_pairs_fallback"
        )
    pairs: list[Candidate] = []
    for noun, verb in tweet.parse.edges:
        noun = clean_token(noun.lower(), stopwords)
        verb = clean_token(verb.lower(), stopwords)
        if noun is None or verb is None:
            continue
        pairs.append(Candidate(CandidateKind.NOUN_VERB_PAIR, noun, verb))
    return pairs


def load_pos_lexicon(path: str | Path | None = None) -> dict[str, frozenset[str]]:
    """Load a `word TAB tags` lexicon (tags a subset of {N, V}); the bundled
    small lexicon is used when no path is given."""
    path, entries = read_list_file(path, "pos_lexicon.txt", "<bundled lexicon>")
    lexicon: dict[str, frozenset[str]] = {}
    for lineno, line in entries:
        parts = line.split("\t")
        if len(parts) != 2 or not set(parts[1]) <= {"N", "V"}:
            raise InputFormatError(f"{path}:{lineno}: expected 'word<TAB>tags' with tags in {{N,V}}")
        lexicon[parts[0].lower()] = frozenset(parts[1])
    return lexicon


def _window_pairs(
    tokens: Sequence[str], lexicon: dict[str, frozenset[str]], window: int
) -> Iterator[tuple[str, str]]:
    """(noun, verb) for each lexicon noun and each lexicon verb that follows
    it at distance < window, left to right."""
    for i, noun in enumerate(tokens):
        if "N" not in lexicon.get(noun, _NO_TAGS):
            continue
        for j in range(i + 1, min(i + window, len(tokens))):
            verb = tokens[j]
            if "V" in lexicon.get(verb, _NO_TAGS):
                yield noun, verb


def extract_nv_pairs_fallback(
    tweet: Tweet,
    lexicon: dict[str, frozenset[str]],
    window: int = DEFAULT_WINDOW,
) -> list[Candidate]:
    """Window-based noun-verb pairing for tweets without a parse.

    Pairs each lexicon noun with each lexicon verb that follows it within a
    sliding window of `window` tokens (both tokens inside one window, so at
    distance < window), emitted left to right.
    """
    return [
        Candidate(CandidateKind.NOUN_VERB_PAIR, noun, verb)
        for noun, verb in _window_pairs(tweet.tokens, lexicon, window)
    ]


@dataclass(frozen=True)
class NvCounts:
    """Corpus-wide noun-verb pair occurrences and the source each tweet used."""

    pairs: Counter[tuple[str, str]]
    parsed: int
    fallback: int
    neither: int

    @property
    def candidates(self) -> list[Candidate]:
        """One candidate per (noun, verb), frequency = occurrences; sorted by
        identity, as ``aggregate`` sorts."""
        return [
            Candidate(CandidateKind.NOUN_VERB_PAIR, noun, verb, frequency=count)
            for (noun, verb), count in sorted(self.pairs.items())
        ]


def count_nv_pairs(
    tweets: Iterable[Tweet],
    stopwords: frozenset[str],
    lexicon: dict[str, frozenset[str]] | None = None,
) -> NvCounts:
    """Count noun-verb pairs over the corpus without one object per occurrence.

    A tweet with a parse counts the pairs ``extract_nv_pairs`` gives; one
    without counts those of ``extract_nv_pairs_fallback`` when a lexicon is
    given, and nothing otherwise. Each distinct surface form is cleaned once.
    """
    pairs: Counter[tuple[str, str]] = Counter()
    cleaner = TokenCleaner(stopwords)
    parsed = fallback = neither = 0
    for tweet in tweets:
        if tweet.parse is not None:
            parsed += 1
            for noun, verb in tweet.parse.edges:
                noun = cleaner[noun.lower()]
                verb = cleaner[verb.lower()]
                if noun is not None and verb is not None:
                    pairs[noun, verb] += 1
        elif lexicon is not None:
            fallback += 1
            pairs.update(_window_pairs(tweet.tokens, lexicon, DEFAULT_WINDOW))
        else:
            neither += 1
    return NvCounts(pairs=pairs, parsed=parsed, fallback=fallback, neither=neither)


def detect_phrases(corpus: Corpus, cfg: PhraseConfig = PhraseConfig()) -> list[Candidate]:
    """Adjacent two-word phrases over the preprocessed corpus.

    A bigram (a, b) scores (count(a,b) - min_count) * V / (count(a) * count(b))
    with V the distinct-unigram count; bigrams with count(a,b) >= min_count
    and score > threshold become Phrase candidates with frequency count(a,b).
    Output is sorted by (first, second) and so independent of tweet order.
    """
    unigrams: Counter[str] = Counter()
    bigrams: Counter[tuple[str, str]] = Counter()
    for tweet in corpus.tweets:
        tokens = tweet.tokens
        unigrams.update(tokens)
        bigrams.update(zip(tokens, tokens[1:]))
    vocab_size = len(unigrams)
    phrases = []
    for (a, b), count_ab in bigrams.items():
        if count_ab < cfg.min_count:
            continue
        score = phrase_score(count_ab, unigrams[a], unigrams[b], vocab_size, cfg.min_count)
        if score > cfg.threshold:
            phrases.append(Candidate(CandidateKind.PHRASE, a, b, frequency=count_ab))
    phrases.sort(key=lambda c: (c.first, c.second))
    return phrases


def phrase_score(
    count_ab: int, count_a: int, count_b: int, vocab_size: int, min_count: int
) -> float:
    """The raw bigram score used by detect_phrases, exposed for inspection."""
    return (count_ab - min_count) * vocab_size / (count_a * count_b)


def aggregate(candidates: Iterable[Candidate]) -> list[Candidate]:
    """Merge candidates by identity, summing frequencies; sorted by identity."""
    merged: dict[tuple[str, str, str], int] = {}
    kinds: dict[tuple[str, str, str], CandidateKind] = {}
    for cand in candidates:
        merged[cand.identity] = merged.get(cand.identity, 0) + cand.frequency
        kinds[cand.identity] = cand.kind
    return [
        Candidate(kinds[identity], identity[1], identity[2], frequency=freq)
        for identity, freq in sorted(merged.items())
    ]


def filter_candidates(
    nv: Sequence[Candidate],
    phrases: Sequence[Candidate],
    min_freq: int = DEFAULT_MIN_FREQ,
) -> CandidateSet:
    """Frequency-filter noun-verb pairs, union with phrases, and account.

    Noun-verb pairs below `min_freq` corpus-wide occurrences are dropped;
    phrases are already gated by the detector. The union deduplicates on
    (kind, first, second); `overlap` reports how many identities collided
    (expected zero, since kind is part of the identity).
    """
    nv_agg = aggregate(nv)
    phrase_agg = aggregate(phrases)
    nv_kept = [c for c in nv_agg if c.frequency >= min_freq]
    union: dict[tuple[str, str, str], Candidate] = {}
    for cand in nv_kept + phrase_agg:
        union.setdefault(cand.identity, cand)
    candidates = tuple(sorted(union.values(), key=lambda c: c.identity))
    overlap = len(nv_kept) + len(phrase_agg) - len(candidates)
    return CandidateSet(
        candidates=candidates,
        nv_before=len(nv_agg),
        nv_after=len(nv_kept),
        phrase_count=len(phrase_agg),
        total=len(candidates),
        overlap=overlap,
    )


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
