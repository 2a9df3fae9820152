"""Tweet corpus loading, preprocessing, and dependency-parse sidecars.

Corpora arrive as JSON Lines files (one object per line with ``id``,
``text``, and an optional ``label`` of "informative"/"uninformative").
Dependency parses arrive as an optional CoNLL-U sidecar keyed by a
``# tweet_id = <id>`` sentence comment.

Preprocessing lowercases, splits on whitespace, strips punctuation from
token edges, and removes stopwords, tokens shorter than three characters,
tokens containing a digit, hashtags, and user mentions. Tweets and corpora
are treated as immutable: preprocessing returns new objects.

The CLI stages read corpus files one line at a time, never as a whole
``Corpus``: ``CorpusLines`` yields each line's (id, text, label), and
``TokenCleaner`` applies the preprocessing rules to its text.
``TweetTokens`` builds on both for a stream of (tweet id, tokens) over
several files; evaluation pairs each label with its tokens.
``load_corpus`` and ``preprocess_corpus`` build a ``Corpus`` from the
same rules, for library use.
"""

from __future__ import annotations

import json
import logging
import string
import unicodedata
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from ._util import open_text, read_list_file
from .errors import InputFormatError

logger = logging.getLogger(__name__)

MIN_TOKEN_LEN = 3

_PUNCT_CHARS = set(string.punctuation)


class Label(Enum):
    INFORMATIVE = "informative"
    UNINFORMATIVE = "uninformative"
    UNLABELED = "unlabeled"


class LabelMode(Enum):
    UNLABELED = "unlabeled"
    LABELED = "labeled"


NOUN_TAGS = frozenset({"NOUN", "PROPN"})
VERB_TAG = "VERB"

# What extraction reads of a sentence's dependency parse: the (noun, verb)
# surface forms of each head-dependent edge joining a {NOUN, PROPN} token
# and a VERB token, noun first, in token order (see ``_nv_edges``). Only
# these edges are kept, not the tree: a parse file holds one token per
# word, and most of them take part in no such edge.
NvEdges = tuple[tuple[str, str], ...]


_REACHES_ROOT = -1


def validate_heads(ids: Sequence[int], heads: Sequence[int]) -> None:
    """Raise ValueError unless the token ids run 1..n, every head (1-based,
    0 for the root) is in range, there is exactly one root, and the head
    relation is acyclic."""
    n = len(heads)
    roots = 0
    for i, (index, head) in enumerate(zip(ids, heads)):
        if index != i + 1:
            raise ValueError(f"node index {index} at position {i}")
        if not 0 <= head <= n:
            raise ValueError(f"head {head} out of range [0, {n}]")
        if head == 0:
            roots += 1
    if roots != 1:
        raise ValueError(f"expected exactly one root, found {roots}")
    # Walk up from each node in order, stopping at any node an earlier
    # walk showed to reach the root. A walk that ends in a cycle meets no
    # such node, so it raises on the same node as a full walk would.
    on_walk = [0] * (n + 1)  # start index of the walk that visited it
    on_walk[0] = _REACHES_ROOT
    for start in range(1, n + 1):
        current = start
        while on_walk[current] != _REACHES_ROOT:
            if on_walk[current] == start:
                raise ValueError(f"cycle through node {current}")
            on_walk[current] = start
            current = heads[current - 1]
        current = start
        while on_walk[current] == start:
            on_walk[current] = _REACHES_ROOT
            current = heads[current - 1]


def _nv_edges(
    forms: Sequence[str], upos: Sequence[str], heads: Sequence[int]
) -> list[tuple[str, str]]:
    """(noun, verb) surface forms of each head-dependent edge joining a
    {NOUN, PROPN} token and a VERB token, noun first, in token order, for a
    sentence given as columns (heads 1-based, 0 for the root)."""
    edges = []
    for i, head in enumerate(heads):
        if head == 0:
            continue
        tag, parent_tag = upos[i], upos[head - 1]
        if tag in NOUN_TAGS and parent_tag == VERB_TAG:
            edges.append((forms[i], forms[head - 1]))
        elif tag == VERB_TAG and parent_tag in NOUN_TAGS:
            edges.append((forms[head - 1], forms[i]))
    return edges


@dataclass(frozen=True)
class Tweet:
    """One tweet. ``parse`` is the noun-verb edges of its dependency parse:
    None when it has no parse, ``()`` when its parse has no such edge."""

    id: str
    raw_text: str
    label: Label = Label.UNLABELED
    tokens: tuple[str, ...] = ()
    parse: NvEdges | None = None


@dataclass(frozen=True)
class Corpus:
    tweets: tuple[Tweet, ...]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.tweets)


def _parse_line(line: str, label_mode: LabelMode) -> tuple[str, str, Label]:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    tweet_id = obj.get("id")
    text = obj.get("text")
    if not isinstance(tweet_id, str) or not isinstance(text, str):
        raise ValueError("missing string 'id' or 'text'")
    label = Label.UNLABELED
    if label_mode is LabelMode.LABELED and "label" in obj:
        raw = obj["label"]
        if raw == "informative":
            label = Label.INFORMATIVE
        elif raw == "uninformative":
            label = Label.UNINFORMATIVE
        else:
            raise ValueError(f"unknown label {raw!r}")
    return tweet_id, text, label


class CorpusLines:
    """The ``(id, raw_text, label)`` records of a JSON Lines corpus, read
    one line at a time.

    Malformed lines are logged, skipped and, once the file has been read
    to its end, counted in ``skipped``; blank lines are ignored. More than
    50% malformed lines raises InputFormatError at the end of the file.
    """

    def __init__(self, path: str | Path, label_mode: LabelMode = LabelMode.UNLABELED) -> None:
        self.path = path
        self.label_mode = label_mode
        self.skipped = 0

    def __iter__(self) -> Iterator[tuple[str, str, Label]]:
        path, label_mode = self.path, self.label_mode
        skipped = 0
        total = 0
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                total += 1
                try:
                    record = _parse_line(line, label_mode)
                except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
                    skipped += 1
                    logger.warning("%s:%d: skipping malformed line (%s)", path, lineno, exc)
                    continue
                yield record
        self.skipped = skipped
        if total > 0 and skipped * 2 > total:
            raise InputFormatError(
                f"{path}: {skipped} of {total} lines malformed; not a JSONL tweet corpus?"
            )
        if skipped:
            logger.info("%s: loaded %d tweets, skipped %d malformed lines",
                        path, total - skipped, skipped)


def load_corpus(path: str | Path, label_mode: LabelMode = LabelMode.UNLABELED) -> Corpus:
    """Load a JSON Lines corpus read by ``CorpusLines``; its malformed
    lines are counted on the returned ``Corpus.skipped``."""
    lines = CorpusLines(path, label_mode)
    tweets = tuple(Tweet(id=tweet_id, raw_text=text, label=label)
                   for tweet_id, text, label in lines)
    return Corpus(tweets=tweets, skipped=lines.skipped)


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Serialize (id, text, label) back to JSON Lines; inverse of load_corpus."""
    # A lone surrogate (load_corpus reads one from a "\ud800" escape) has no
    # UTF-8 form; backslashreplace writes it back as that same JSON escape.
    with open(path, "w", encoding="utf-8", errors="backslashreplace") as fh:
        for tweet in corpus.tweets:
            obj: dict = {"id": tweet.id, "text": tweet.raw_text}
            if tweet.label is not Label.UNLABELED:
                obj["label"] = tweet.label.value
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def concat_corpora(*corpora: Corpus) -> Corpus:
    tweets: list[Tweet] = []
    skipped = 0
    for corpus in corpora:
        tweets.extend(corpus.tweets)
        skipped += corpus.skipped
    return Corpus(tweets=tuple(tweets), skipped=skipped)


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list (one word per line, '#' comments); the bundled
    English list is used when no path is given."""
    _, entries = read_list_file(path, "stopwords.txt", "<bundled stopword list>")
    return frozenset(word.lower() for _, word in entries)


def _is_edge_punct(ch: str) -> bool:
    return ch in _PUNCT_CHARS or unicodedata.category(ch).startswith("P")


def _strip_edge_punct(token: str) -> str:
    start = 0
    end = len(token)
    while start < end and _is_edge_punct(token[start]):
        start += 1
    while end > start and _is_edge_punct(token[end - 1]):
        end -= 1
    return token[start:end]


def clean_token(token: str, stopwords: frozenset[str]) -> str | None:
    """Apply the per-token preprocessing rules; None when the token is removed.

    Hashtags and mentions are checked on the raw token (before punctuation
    stripping, otherwise the leading '#'/'@' would be stripped and the rule
    could never fire); length, digit, and stopword rules apply after.
    """
    if token.startswith("#") or token.startswith("@"):
        return None
    token = _strip_edge_punct(token)
    if len(token) < MIN_TOKEN_LEN:
        return None
    if any(ch.isdigit() for ch in token):
        return None
    if token in stopwords:
        return None
    return token


class TokenCleaner(dict):
    """``clean_token`` memoized per distinct raw token.

    ``cleaner[token]`` is the cleaned token, or None when it is removed.
    Tweet vocabularies are Zipfian, so a corpus holds few distinct tokens
    for its size. Make one per batch of work: it holds every token seen.
    """

    def __init__(self, stopwords: frozenset[str]) -> None:
        super().__init__()
        self.stopwords = stopwords

    def __missing__(self, token: str) -> str | None:
        cleaned = self[token] = clean_token(token, self.stopwords)
        return cleaned

    def tokens(self, raw_text: str) -> list[str]:
        """The tokens of a raw tweet text: lowercased, split on whitespace,
        each cleaned, the removed ones dropped."""
        return [tok for raw in raw_text.lower().split() if (tok := self[raw]) is not None]


def preprocess(tweet: Tweet, stopwords: frozenset[str]) -> Tweet:
    """Return a copy of the tweet with ``tokens`` filled from ``raw_text``
    by ``TokenCleaner.tokens``.

    A tweet may legitimately end up with zero tokens.
    """
    return replace(tweet, tokens=tuple(TokenCleaner(stopwords).tokens(tweet.raw_text)))


def preprocess_corpus(corpus: Corpus, stopwords: frozenset[str]) -> Corpus:
    """``preprocess`` every tweet, cleaning each distinct raw token once."""
    cleaner = TokenCleaner(stopwords)
    tweets = tuple(
        Tweet(id=t.id, raw_text=t.raw_text, label=t.label,
              tokens=tuple(cleaner.tokens(t.raw_text)), parse=t.parse)
        for t in corpus.tweets
    )
    return Corpus(tweets=tweets, skipped=corpus.skipped)


class TweetTokens:
    """The ``(tweet_id, tokens)`` of each tweet kept from a list of
    ``(path, label_mode)`` JSON Lines corpus files, read in list order one
    line at a time by ``CorpusLines``.

    With ``dedupe``, a tweet whose exact raw text was read before is
    dropped (the first is kept, across files) and counted in
    ``duplicates``; it then holds every distinct text read. Malformed lines
    are counted in ``skipped``. Tokens are cleaned by ``cleaner``, one
    ``TokenCleaner`` for the whole read. Each iteration reads the files
    anew and recounts.
    """

    def __init__(
        self,
        files: Sequence[tuple[str | Path, LabelMode]],
        stopwords: frozenset[str],
        dedupe: bool = False,
    ) -> None:
        self.files = files
        self.cleaner = TokenCleaner(stopwords)
        self.dedupe = dedupe
        self.skipped = self.duplicates = 0

    def __iter__(self) -> Iterator[tuple[str, list[str]]]:
        self.skipped = self.duplicates = 0
        seen: set[str] | None = set() if self.dedupe else None
        tokens = self.cleaner.tokens
        for path, label_mode in self.files:
            lines = CorpusLines(path, label_mode)
            for tweet_id, raw_text, _ in lines:
                if seen is not None:
                    if raw_text in seen:
                        self.duplicates += 1
                        continue
                    seen.add(raw_text)
                yield tweet_id, tokens(raw_text)
            self.skipped += lines.skipped


# CoNLL-U column offsets (ID, FORM, UPOS, HEAD are the ones used here).
_COL_ID, _COL_FORM, _COL_UPOS, _COL_HEAD = 0, 1, 3, 6


def load_parses(path: str | Path) -> dict[str, NvEdges]:
    """Read a CoNLL-U sidecar keyed by ``# tweet_id = <id>`` comments into
    tweet id -> the (noun, verb) edges of its parse (``NvEdges``); ``()``
    is a parse with no noun-verb edge.

    A sentence ends at a blank line or at the next ``# tweet_id`` comment.
    Multiword-token and empty-node lines (ranged or dotted IDs) are skipped.
    A sentence without a tweet_id comment or violating parse invariants
    (``validate_heads``) is dropped with a warning; so is one with an
    unparseable token line, with a warning per such line. Each warning
    counts toward the "dropped N malformed parse entries" total. A repeated
    tweet_id keeps the first valid parse. Each sentence is read into
    transient columns and only its noun-verb edges are kept.
    """
    parses: dict[str, NvEdges] = {}
    current_id: str | None = None
    dropped = False  # the sentence read so far was already reported
    first_line = 0  # line number of its first token line
    ids: list[int] = []
    forms: list[str] = []
    upos: list[str] = []
    heads: list[int] = []
    columns = (ids, forms, upos, heads)
    bad = 0

    def flush() -> None:
        nonlocal current_id, dropped, bad
        if heads and not dropped:
            if current_id is None:
                bad += 1
                logger.warning("%s:%d: dropping sentence with no tweet_id comment",
                               path, first_line)
            else:
                try:
                    validate_heads(ids, heads)
                except ValueError as exc:
                    bad += 1
                    logger.warning("%s: dropping parse for %s (%s)", path, current_id, exc)
                else:
                    if current_id in parses:
                        logger.warning("%s: duplicate tweet_id %r, keeping first",
                                       path, current_id)
                    else:
                        parses[current_id] = tuple(_nv_edges(forms, upos, heads))
        current_id = None
        dropped = False
        for column in columns:
            column.clear()

    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                flush()
                continue
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("tweet_id"):
                    flush()
                    _, _, value = comment.partition("=")
                    current_id = value.strip()
                continue
            cols = line.split("\t", _COL_HEAD + 1)
            if len(cols) <= _COL_HEAD:
                continue
            token_id = cols[_COL_ID]
            if "-" in token_id or "." in token_id:
                continue
            try:
                index = int(token_id)
                head = int(cols[_COL_HEAD])
            except ValueError:
                bad += 1
                logger.warning("%s: unparseable token line %r", path, line)
                dropped = True  # the rest of the sentence is read, then dropped
                continue
            if not heads:
                first_line = lineno
            ids.append(index)
            forms.append(cols[_COL_FORM])
            upos.append(cols[_COL_UPOS])
            heads.append(head)
    flush()
    if bad:
        logger.info("%s: dropped %d malformed parse entries", path, bad)
    return parses


def attach_parses(corpus: Corpus, parses: dict[str, NvEdges]) -> Corpus:
    """Return a corpus whose tweets carry their sidecar parse, if any."""
    tweets = tuple(
        Tweet(id=t.id, raw_text=t.raw_text, label=t.label, tokens=t.tokens, parse=parses[t.id])
        if t.id in parses
        else t
        for t in corpus.tweets
    )
    return Corpus(tweets=tweets, skipped=corpus.skipped)
