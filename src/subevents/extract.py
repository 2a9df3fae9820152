"""Candidate sub-event extraction.

Candidates are noun-verb pairs read off dependency-parse edges (with a
window-based lexicon fallback for corpora without parses) plus adjacent
two-word phrases detected with a vocabulary-scaled co-occurrence score.
Noun-verb pairs are kept only when they occur at least ``filter_min_freq``
times corpus-wide (default 2); phrases are frequency-gated by the detector
itself. ``ExtractCounts`` folds a corpus into the counts behind both on
integer word ids, a buffer of tweets at a time.
"""

from __future__ import annotations

import functools
import logging
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from ._util import read_list_file, read_table, write_table
from .corpus import REMOVED, Parses, TokenCleaner, clean_token
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


@dataclass
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


# The id buffer holds word ids, REMOVED for a removed raw token, and one end
# entry per tweet, which says whether the tweet takes the lexicon window.
_END = -2  # the end of a tweet
_END_WINDOW = -3  # the end of a tweet whose pairs come from the lexicon window

_NOUN, _VERB = 1, 2  # bits of a word's lexicon tag

# The fold of the id buffer runs once the buffer holds more than this many
# entries, or more than the distinct bigrams held, whichever is larger.
FOLD_ENTRIES = 4096

_WORD_BITS = 32
_WORD_MASK = (1 << _WORD_BITS) - 1

# Below this a float64 holds every integer exactly, so dividing two such
# values rounds as Python's int true division does.
_EXACT_BELOW = float(1 << 53)


def _keys(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    return first.astype(np.int64) << _WORD_BITS | second


def _no_counts() -> tuple[np.ndarray, np.ndarray]:
    return np.zeros(0, np.int64), np.zeros(0, np.int64)


def _merge(
    keys: np.ndarray, counts: np.ndarray, new_keys: np.ndarray, new_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two (sorted distinct keys, their counts) merged, the counts of a key
    in both added; `counts` is updated in place."""
    at = np.searchsorted(keys, new_keys)
    held = at < len(keys)
    held[held] = keys[at[held]] == new_keys[held]
    counts[at[held]] += new_counts[held]
    fresh = np.flatnonzero(~held)
    to = at[fresh] + np.arange(len(fresh))  # where each fresh key lands
    old = np.ones(len(keys) + len(fresh), bool)
    old[to] = False
    merged_keys, merged_counts = np.empty(len(old), np.int64), np.empty(len(old), np.int64)
    merged_keys[to], merged_keys[old] = new_keys[fresh], keys
    merged_counts[to], merged_counts[old] = new_counts[fresh], counts
    return merged_keys, merged_counts


def _at_least(counts: np.ndarray, bound: int) -> np.ndarray:
    """counts >= bound for a Python int bound of any size (counts < 2**62)."""
    return counts >= min(max(bound, -(1 << 62)), 1 << 62)


class ExtractCounts:
    """The corpus-wide counts extraction reads, folded on integer word ids.

    A tweet comes in only as raw text (``add_texts``, the path
    ``cmd_extract`` takes) or as cleaned tokens (``add``). Both map its
    words to their ids in ``cleaner`` into one buffer of ids, closed by an
    entry that says whether the tweet takes the lexicon window, and count
    it in one of ``parsed``, ``fallback`` and ``neither``, whose sum is
    ``tweets``. The cleaner may be shared: a word it holds that no tweet
    counted here has a unigram count of 0. Once the buffer (and the list of
    parse rows not yet counted) holds more than max(``FOLD_ENTRIES``,
    distinct bigrams held) entries it is folded: unigrams into one count
    per id, bigram and pair keys (``first << 32 | second``) into sorted
    arrays of distinct keys and their counts. Every form of ``parses`` is
    mapped to its word id when this is made, and a parse's edges are
    gathered from its columns by row. Memory grows with the distinct words,
    bigrams and pairs, not with the number of tweets.
    """

    def __init__(
        self,
        cleaner: TokenCleaner,
        parses: Parses | None = None,
        lexicon: dict[str, frozenset[str]] | None = None,
    ) -> None:
        self.cleaner = cleaner
        self.parses = parses if parses is not None else Parses.empty()
        self.lexicon = lexicon
        self._tags = bytearray()  # lexicon tag bits by word id, extended by a fold
        self._ids: list[int] = []  # word ids and tweet ends, not yet folded
        self._parsed: list[int] = []  # rows of the parses whose edges are not yet folded
        # The word id of each form of the parses, or REMOVED.
        self._form_ids = np.fromiter(map(cleaner.__getitem__, map(str.lower, self.parses.forms)),
                                     np.int32, len(self.parses.forms))
        self._fold_at = FOLD_ENTRIES
        self._unigrams = np.zeros(0, np.int64)
        self._bigrams = _no_counts()
        self._pairs = _no_counts()
        self._pair_counter: Counter[tuple[str, str]] = Counter()
        self.parsed = self.fallback = self.neither = 0

    @property
    def tweets(self) -> int:
        """The tweets counted, each in one of the three pair sources."""
        return self.parsed + self.fallback + self.neither

    def add_texts(self, texts: Iterable[tuple[str, str]]) -> None:
        """Count each ``(tweet_id, raw_text)`` as ``add`` counts the
        tweet's cleaned tokens."""
        text_ids, row = self.cleaner.text_ids, self.parses.rows.get
        self._count((row(tweet_id), text_ids(text)) for tweet_id, text in texts)

    def add(self, tweet_id: str, tokens: Sequence[str]) -> None:
        """Count one tweet's unigrams, adjacent bigrams and noun-verb pairs.

        A tweet whose id has a row in ``parses`` counts in ``parsed``:
        each (noun, verb) edge of its parse counts once, both words
        lowercased and cleaned by ``cleaner``'s rule, and an edge whose
        words do not both survive is dropped. Otherwise, with a lexicon,
        it counts in ``fallback``: its pairs are (noun, verb) for each
        lexicon noun and each lexicon verb that follows it within a
        sliding window of DEFAULT_WINDOW tokens (at distance <
        DEFAULT_WINDOW). Otherwise it counts in ``neither`` and has no
        pair."""
        self._count([(self.parses.rows.get(tweet_id), map(self.cleaner.word_id, tokens))])

    def _count(self, tweets: Iterable[tuple[int | None, Iterable[int]]]) -> None:
        """Count each tweet's word ids, given with its parse's row or None."""
        ids, parsed = self._ids, self._parsed
        window = self.lexicon is not None
        for row, words in tweets:
            ids.extend(words)
            if row is not None:
                self.parsed += 1
                parsed.append(row)
                ids.append(_END)
            elif window:
                self.fallback += 1
                ids.append(_END_WINDOW)
            else:
                self.neither += 1
                ids.append(_END)
            if len(ids) + len(parsed) > self._fold_at:
                self._fold()

    def _fold(self) -> None:
        """Fold the buffers (and the pair ``Counter``, if any) into the
        held counts; with nothing to fold, do nothing."""
        if not self._ids and not self._pair_counter:
            return  # every counted tweet put an end entry in _ids
        ids = np.fromiter(self._ids, np.int32, len(self._ids))
        rows = np.fromiter(self._parsed, np.int64, len(self._parsed))
        del self._ids[:], self._parsed[:]
        edges = self._edge_ids(rows)
        edges = edges[(edges != REMOVED).all(axis=1)]
        pair_keys = [_keys(edges[:, 0], edges[:, 1])]
        ids = ids[ids != REMOVED]
        end = ids < 0
        grams = ~end
        windowed = ids[end] == _END_WINDOW
        words = self.cleaner.words
        if windowed.any():
            for word in words[len(self._tags):]:
                tags = self.lexicon.get(word, _NO_TAGS)
                self._tags.append(_NOUN * ("N" in tags) | _VERB * ("V" in tags))
            tweet = np.cumsum(end) - end  # the tweet each entry is part of
            word_tags = np.zeros(len(ids), np.uint8)
            word_tags[grams] = np.frombuffer(bytes(self._tags), np.uint8)[ids[grams]]
            nouns = np.flatnonzero((word_tags & _NOUN > 0) & windowed[tweet])
            for distance in range(1, DEFAULT_WINDOW):
                verbs = nouns + distance
                verbs = verbs[verbs < len(ids)]
                first = nouns[: len(verbs)]
                first = first[(tweet[verbs] == tweet[first]) & (word_tags[verbs] & _VERB > 0)]
                pair_keys.append(_keys(ids[first], ids[first + distance]))
        unigrams = np.bincount(ids[grams], minlength=len(words))
        unigrams[: len(self._unigrams)] += self._unigrams
        self._unigrams = unigrams
        bigram = grams[:-1] & grams[1:]
        self._bigrams = _merge(*self._bigrams, *np.unique(
            _keys(ids[:-1][bigram], ids[1:][bigram]), return_counts=True))
        self._pairs = _merge(*self._pairs, *np.unique(
            np.concatenate(pair_keys), return_counts=True))
        if self._pair_counter:
            word = self.cleaner.word_id
            counter = self._pair_counter
            keys = np.fromiter((word(n) << _WORD_BITS | word(v) for n, v in counter), np.int64)
            order = np.argsort(keys)
            self._pairs = _merge(*self._pairs, keys[order],
                                 np.fromiter(counter.values(), np.int64)[order])
            counter.clear()
        self._fold_at = max(FOLD_ENTRIES, len(self._bigrams[0]))

    def _edge_ids(self, rows: np.ndarray) -> np.ndarray:
        """The (noun, verb) word ids of the edges of the parses in `rows`,
        in order: each form lowercased and cleaned as a raw token."""
        offsets = self.parses.offsets
        start, count = offsets[rows], offsets[rows + 1] - offsets[rows]
        end = np.cumsum(count)
        forms = self.parses.edges[np.repeat(start - (end - count), count)
                                  + np.arange(end[-1] if len(end) else 0)]
        return self._form_ids[forms]

    @property
    def pairs(self) -> Counter[tuple[str, str]]:
        """The pair counts as a ``Counter`` of (noun, verb) words, the
        buffers folded first. What is added to it counts as pairs too: the
        next fold takes it back into the held counts."""
        self._fold()
        keys, counts = self._pairs
        self._pair_counter.update(dict(zip(self._words(keys), counts.tolist())))
        self._pairs = _no_counts()
        return self._pair_counter

    def _words(self, keys: np.ndarray) -> list[tuple[str, str]]:
        """The (first, second) words of each key."""
        words = self.cleaner.words
        return list(zip(map(words.__getitem__, (keys >> _WORD_BITS).tolist()),
                        map(words.__getitem__, (keys & _WORD_MASK).tolist())))

    def phrases(self, cfg: PhraseConfig = PhraseConfig()) -> list[Candidate]:
        """Adjacent two-word phrases over the counted tokens.

        A bigram (a, b) with count(a,b) >= min_count is scored by
        ``phrase_scores`` with V the distinct-unigram count; one whose
        score is above threshold becomes a Phrase candidate with frequency
        count(a,b). Output is sorted by (first, second) and so independent
        of tweet order.
        """
        self._fold()
        keys, counts = self._bigrams
        gate = _at_least(counts, cfg.min_count)
        if not gate.any():
            return []
        keys, counts = keys[gate], counts[gate]
        unigrams = self._unigrams
        scores = phrase_scores(counts, unigrams[keys >> _WORD_BITS], unigrams[keys & _WORD_MASK],
                               int(np.count_nonzero(unigrams)), cfg.min_count)
        kept = scores > cfg.threshold
        return [Candidate(CandidateKind.PHRASE, a, b, frequency=count)
                for (a, b), count in sorted(zip(self._words(keys[kept]), counts[kept].tolist()))]

    def candidates(
        self, cfg: PhraseConfig = PhraseConfig(), min_freq: int = DEFAULT_MIN_FREQ
    ) -> CandidateSet:
        """The pairs counted at least ``min_freq`` times, sorted by (noun,
        verb), then the phrases, sorted by (first, second). "nv" sorts
        before "phrase", so the whole is in (kind, first, second) order;
        ``nv_before`` is the number of distinct pairs counted."""
        self._fold()
        keys, counts = self._pairs
        often = _at_least(counts, min_freq)
        kept = [Candidate(CandidateKind.NOUN_VERB_PAIR, noun, verb, frequency=count)
                for (noun, verb), count in sorted(zip(self._words(keys[often]),
                                                      counts[often].tolist()))]
        phrases = self.phrases(cfg)
        return CandidateSet(
            candidates=(*kept, *phrases),
            nv_before=len(keys),
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


def phrase_scores(
    count_ab: np.ndarray, count_a: np.ndarray, count_b: np.ndarray,
    vocab_size: int, min_count: int,
) -> np.ndarray:
    """``phrase_score`` of each row of int64 counts, each count_ab at least
    min_count, bit for bit: in float64 where the numerator and denominator
    are both below 2**53, and on Python ints in the other rows."""
    numerator = (count_ab - min_count).astype(np.float64) * vocab_size
    denominator = count_a.astype(np.float64) * count_b
    scores = numerator / denominator
    for i in np.flatnonzero((numerator >= _EXACT_BELOW) | (denominator >= _EXACT_BELOW)).tolist():
        scores[i] = phrase_score(int(count_ab[i]), int(count_a[i]), int(count_b[i]),
                                 vocab_size, min_count)
    return scores


def reduction_percent(before: int, after: int) -> float:
    """Percentage reduction from `before` to `after` counts (0.0 when before is 0)."""
    if before == 0:
        return 0.0
    return 100.0 * (1.0 - after / before)


CANDIDATE_CSV_HEADER = ["kind", "first", "second", "frequency"]


def write_candidates(candidates: Iterable[Candidate], path: str | Path) -> None:
    write_table(path, CANDIDATE_CSV_HEADER,
                ((c.kind.value, c.first, c.second, c.frequency) for c in candidates))


@functools.lru_cache(maxsize=1 << 16)
def _written_by_extract(word: str) -> bool:
    """Whether extract can write `word`: it is lowercase and ``clean_token``
    keeps it as it is (stopwords aside: rank may read no stopword list).
    Cached, as a ranking repeats few distinct words in many rows."""
    return word == word.lower() and clean_token(word, frozenset()) == word


def _parse_candidate(row: list[str]) -> Candidate:
    """The candidate of a (kind, first, second, frequency) record; ValueError
    for a frequency below 1 or a word extract never writes."""
    candidate = Candidate(CandidateKind(row[0]), row[1], row[2], int(row[3]))
    if candidate.frequency < 1 or not all(map(_written_by_extract, candidate.words)):
        raise ValueError(f"a word or frequency extract never writes in {row!r}")
    return candidate


def read_candidates(path: str | Path) -> list[Candidate]:
    return read_table(path, CANDIDATE_CSV_HEADER, _parse_candidate)
