"""Reading and preprocessing tweet corpora, and dependency-parse sidecars.

Corpora arrive as JSON Lines files (one object per line with ``id``,
``text``, and an optional ``label`` of "informative"/"uninformative").
Dependency parses arrive as an optional CoNLL-U sidecar keyed by a
``# tweet_id = <id>`` sentence comment.

Preprocessing lowercases, splits on whitespace, strips punctuation from
token edges, and removes stopwords, tokens shorter than three characters,
tokens containing a digit, hashtags, and user mentions.

Corpus files are read one line at a time and no tweet is kept:
``CorpusLines`` yields each line's (id, text, label), and ``TweetTokens``
builds on it for a stream of (tweet id, raw text) over several files.
``TokenCleaner`` applies the preprocessing rules to a text's tokens and
numbers the words kept; extraction and the overlap baseline read texts as
its word ids, and evaluation pairs each label with its tokens.
"""

from __future__ import annotations

import json
import logging
import string
import unicodedata
from collections.abc import Iterable, Iterator, Sequence
from enum import Enum
from pathlib import Path

import numpy as np

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
# and a VERB token, noun first, in token order (see ``load_parses``). Only
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


_DECODER = json.JSONDecoder()


def _loads(line: str):
    """``json.loads(line)``. A line that is one JSON value from its first
    character, then JSON whitespace, is decoded by ``raw_decode`` alone,
    without the wrapper's per-call work; any other line goes through
    ``json.loads``, so its value or error is the same."""
    try:
        obj, end = _DECODER.raw_decode(line)
    except ValueError:
        return json.loads(line)
    if line[end:].strip(" \t\n\r"):
        return json.loads(line)
    return obj


def _parse_line(line: str, label_mode: LabelMode) -> tuple[str, str, Label]:
    obj = _loads(line)
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


REMOVED = -1  # the id of a raw token that preprocessing removes


class TokenCleaner(dict):
    """Raw lowercased token -> the id of its word cleaned by
    ``clean_token``, or ``REMOVED``; ``clean_token`` runs once per
    distinct raw token.

    ``words[id]`` is the word of an id. Ids count up from 0 in order of
    first appearance, of a word kept from a raw token or one given to
    ``word_id``. The vocabulary of tweets is Zipfian, so a corpus holds few
    distinct tokens for its size. Make one per batch of work: it holds
    every token seen.
    """

    def __init__(self, stopwords: frozenset[str]) -> None:
        super().__init__()
        self.stopwords = stopwords
        self.words: list[str] = []
        self._ids: dict[str, int] = {}  # word -> id

    def __missing__(self, raw: str) -> int:
        word = clean_token(raw, self.stopwords)
        words = self.words
        index = self[raw] = REMOVED if word is None else self._ids.setdefault(word, len(words))
        if index == len(words):
            words.append(word)
        return index

    def word_id(self, word: str) -> int:
        """The id of `word` as it is, not cleaned; a new word gets the next id."""
        index = self._ids.setdefault(word, len(self.words))
        if index == len(self.words):
            self.words.append(word)
        return index

    def tokens(self, raw_text: str) -> list[str]:
        """The tokens of a raw tweet text: lowercased, split on whitespace,
        each cleaned, the removed ones dropped."""
        words = self.words
        return [words[i] for i in map(self.__getitem__, raw_text.lower().split()) if i != REMOVED]


class TweetTokens:
    """The tweets kept from a list of ``(path, label_mode)`` JSON Lines
    corpus files, read in list order one line at a time by ``CorpusLines``.

    ``texts()`` yields each kept tweet's ``(tweet_id, raw_text)``, and
    ``cleaner`` is the one ``TokenCleaner`` for reading them. With
    ``dedupe``, a tweet whose exact raw text was read before is dropped
    (the first is kept, across files) and counted in ``duplicates``; the
    read then holds every distinct text. Malformed lines are counted in
    ``skipped``. Each read opens the files anew and recounts.
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

    def texts(self) -> Iterator[tuple[str, str]]:
        self.skipped = self.duplicates = 0
        seen: set[str] | None = set() if self.dedupe else None
        for path, label_mode in self.files:
            lines = CorpusLines(path, label_mode)
            for tweet_id, raw_text, _ in lines:
                if seen is not None:
                    if raw_text in seen:
                        self.duplicates += 1
                        continue
                    seen.add(raw_text)
                yield tweet_id, raw_text
            self.skipped += lines.skipped


# Characters of a parse sidecar read at a time. A block is cut at a sentence
# boundary, so it grows past this to hold a longer sentence.
PARSE_BLOCK_CHARS = 1 << 18

# CoNLL-U column offsets (ID, FORM, UPOS, HEAD are the ones used here).
_COL_ID, _COL_FORM, _COL_UPOS, _COL_HEAD = 0, 1, 3, 6

# An ID or HEAD field of 1 to this many ASCII digits is read by numpy; any
# other field is left to int().
_FAST_DIGITS = 6


def load_parses(path: str | Path) -> dict[str, NvEdges]:
    """Read a CoNLL-U sidecar keyed by ``# tweet_id = <id>`` comments into
    tweet id -> the (noun, verb) edges of its parse (``NvEdges``); ``()``
    is a parse with no noun-verb edge.

    A sentence ends at a blank line or at the next ``# tweet_id`` comment.
    A line of fewer than 7 columns is skipped, and so are multiword-token
    and empty-node lines (an ID holding ``-`` or ``.``). A sentence without
    a tweet_id comment or violating parse invariants (``validate_heads``)
    is dropped with a warning; so is one with a token line whose ID or HEAD
    ``int()`` rejects, with a warning per such line. Each warning counts
    toward the "dropped N malformed parse entries" total. A repeated
    tweet_id keeps the first valid parse.

    The file is read in blocks of about ``PARSE_BLOCK_CHARS`` characters,
    each cut just before its last blank line or ``# tweet_id`` comment
    line, so a block holds whole sentences. numpy finds the columns of
    every line of a block as byte offsets, reads IDs and HEADs of plain
    ASCII digits, checks each sentence's tree and finds its edges; Python
    reads only comment lines, ID and HEAD fields of any other form (by
    ``int()``), the words of the edges (one str per distinct word and one
    tuple per distinct edge for the whole read), and the message for a
    rejected tree (``validate_heads``).
    """
    parses: dict[str, NvEdges] = {}
    interned: dict = {}
    bad = lines_before = 0
    text = ""
    with open_text(path) as fh:
        while True:
            chunk = fh.read(PARSE_BLOCK_CHARS)
            carried, text = len(text), text + chunk
            cut = _block_end(text, carried) if chunk else len(text)
            if cut:
                bad += _read_block(text[:cut], lines_before, path, parses, interned)
                lines_before += text.count("\n", 0, cut)
                text = text[cut:]
            if not chunk:
                break
    if bad:
        logger.info("%s: dropped %d malformed parse entries", path, bad)
    return parses


def _block_end(text: str, carried: int) -> int:
    """The start of the last blank line or ``# tweet_id`` comment line of
    `text` after position 0, or 0 when there is none. The search starts at
    the last line of the first `carried` characters, which an earlier call
    searched up to that line."""
    start = max(text.rfind("\n", 0, carried), 0)
    cut = text.rfind("\n\n", start) + 1
    end = len(text)
    while (newline := text.rfind("\n#", max(start, cut), end)) >= 0:
        line_end = text.find("\n", newline + 1)
        comment = text[newline + 2 : line_end if line_end >= 0 else None]
        if comment.strip().startswith("tweet_id"):
            return newline + 1
        end = newline + 1
    return cut


def _ascii_digits(buf: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The value of each field ``buf[start:stop]`` of 1 to ``_FAST_DIGITS``
    ASCII digits, and -1 for any other field."""
    width = stop - start
    plain = (width >= 1) & (width <= _FAST_DIGITS)
    value = np.zeros(len(start), np.int64)
    for k in range(min(int(width.max(initial=0)), _FAST_DIGITS)):
        inside = width > k
        digit = buf[np.where(inside, start + k, 0)].astype(np.int64) - ord("0")
        plain &= ~inside | ((digit >= 0) & (digit <= 9))
        value = np.where(inside, value * 10 + digit, value)
    return np.where(plain, value, -1)


def _field_in(
    buf: np.ndarray, start: np.ndarray, stop: np.ndarray, words: Iterable[str]
) -> np.ndarray:
    """Whether each field ``buf[start:stop]`` is one of `words`."""
    found = np.zeros(len(start), bool)
    for word in map(str.encode, words):
        equal = stop - start == len(word)
        for k, byte in enumerate(word):
            equal &= buf[np.where(equal, start + k, 0)] == byte
        found |= equal
    return found


def _read_block(
    text: str, lines_before: int, path: str | Path,
    parses: dict[str, NvEdges], interned: dict,
) -> int:
    """Read the whole sentences in `text`, the lines of a sidecar after its
    first `lines_before`, into `parses`, logging as ``load_parses`` does,
    and return the number of malformed entries met. `interned` holds the
    one str of each edge word and the one tuple of each edge read so far."""
    data = text.encode()
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if not data.endswith(b"\n"):
        ends = np.append(ends, len(buf))
    starts = np.concatenate(([0], ends[:-1] + 1))
    comment = (starts < ends) & (buf[np.minimum(starts, len(buf) - 1)] == ord("#"))

    # A sentence ends at each blank line and each tweet_id comment line.
    flush = starts == ends
    tid_rows, tids = [], []
    rows = np.flatnonzero(comment)
    for row, start, end in zip(rows.tolist(), starts[rows].tolist(), ends[rows].tolist()):
        body = data[start + 1 : end].decode().strip()
        if body.startswith("tweet_id"):
            tid_rows.append(row)
            tids.append(body.partition("=")[2].strip())
    flush[tid_rows] = True
    segment = np.cumsum(flush)  # line -> the sentence it is read into
    tweet_id = dict(zip(segment[tid_rows].tolist(), tids))

    # Token lines: at least 7 columns, found from the line's first tab on.
    tabs = np.flatnonzero(buf == ord("\t"))
    first_tab = np.searchsorted(tabs, starts)
    n_tabs = np.searchsorted(tabs, ends) - first_tab
    rows = np.flatnonzero(~comment & (n_tabs >= _COL_HEAD))
    tab = first_tab[rows]
    head_stop = np.where(n_tabs[rows] > _COL_HEAD,
                         tabs[np.minimum(tab + _COL_HEAD, len(tabs) - 1)], ends[rows])
    ids = _ascii_digits(buf, starts[rows], tabs[tab])
    heads = _ascii_digits(buf, tabs[tab + _COL_HEAD - 1] + 1, head_stop)
    keep = (ids >= 0) & (heads >= 0)
    unparseable = []  # (sentence, text) of each token line int() rejects
    for j in np.flatnonzero(~keep).tolist():
        row = rows[j]
        line = data[starts[row] : ends[row]].decode()
        cols = line.split("\t", _COL_HEAD + 1)
        if "-" in cols[_COL_ID] or "." in cols[_COL_ID]:
            continue
        try:
            index, head = int(cols[_COL_ID]), int(cols[_COL_HEAD])
        except ValueError:
            unparseable.append((int(segment[row]), line))
            continue
        keep[j] = True
        # Beyond -1..len(buf) a value fails the tree check as those two do.
        ids[j], heads[j] = (min(max(value, -1), len(buf)) for value in (index, head))
    rows, tab, ids, heads = rows[keep], tab[keep], ids[keep], heads[keep]

    # Tree check: ids run 1..n, heads in range, one root, and every token
    # reaches the root by pointer jumping (up[i] is 2**k steps up after k).
    seg = segment[rows]
    n = len(rows)
    new = np.ones(n, bool)
    new[1:] = seg[1:] != seg[:-1]
    first = np.flatnonzero(new)  # each sentence's first token
    sentence = np.cumsum(new) - 1
    base = first[sentence]
    size = np.diff(first, append=n)
    root = heads == 0
    in_range = (ids == np.arange(n) - base + 1) & (heads >= 0) & (heads <= size[sentence])
    good = np.logical_and.reduceat(in_range, first) & (np.add.reduceat(root, first) == 1)
    up = np.where(good[sentence] & ~root, base + heads - 1, np.arange(n))
    for _ in range(int(size.max(initial=0)).bit_length()):
        up = up[up]
    good &= np.logical_and.reduceat(root[up], first)

    # Noun-verb edges of the good trees, in token order, and their words.
    def column(col: int) -> tuple[np.ndarray, np.ndarray]:
        return tabs[tab + col - 1] + 1, tabs[tab + col]

    noun, verb = (_field_in(buf, *column(_COL_UPOS), tags) for tags in (NOUN_TAGS, [VERB_TAG]))
    child = np.flatnonzero(good[sentence] & ~root)
    parent = base[child] + heads[child] - 1
    noun_child = noun[child] & verb[parent]
    edge = noun_child | verb[child] & noun[parent]
    child, parent, noun_child = child[edge], parent[edge], noun_child[edge]
    pair_tokens = np.stack([np.where(noun_child, child, parent),
                            np.where(noun_child, parent, child)], axis=1).ravel()
    start, stop = (field[pair_tokens] for field in column(_COL_FORM))
    width = stop - start + 1  # each form with the tab after it
    at = np.repeat(start - (np.cumsum(width) - width), width) + np.arange(width.sum())
    forms = buf[at].tobytes().decode().split("\t")
    canonical = map(interned.setdefault, forms, forms)
    edges = list(zip(canonical, canonical))
    pairs = tuple(map(interned.setdefault, edges, edges))
    bounds = np.searchsorted(sentence[child], np.arange(len(first) + 1)).tolist()

    # Sentences in order; each unparseable line is logged before the
    # sentence after it.
    bad = len(unparseable)
    dropped = {k for k, _ in unparseable}
    unparseable.append((len(starts), None))  # after every sentence
    u = 0
    for k, token, count, ok, lo, hi in zip(seg[first].tolist(), first.tolist(), size.tolist(),
                                           good.tolist(), bounds, bounds[1:]):
        while unparseable[u][0] <= k:
            logger.warning("%s: unparseable token line %r", path, unparseable[u][1])
            u += 1
        if k in dropped:
            continue
        tid = tweet_id.get(k)
        if tid is None:
            bad += 1
            logger.warning("%s:%d: dropping sentence with no tweet_id comment",
                           path, lines_before + int(rows[token]) + 1)
        elif not ok:
            lines = rows[token : token + count]
            try:
                validate_heads(*_int_columns(data, starts[lines], ends[lines]))
            except ValueError as exc:
                bad += 1
                logger.warning("%s: dropping parse for %s (%s)", path, tid, exc)
        elif tid in parses:
            logger.warning("%s: duplicate tweet_id %r, keeping first", path, tid)
        else:
            parses[tid] = pairs[lo:hi]
    for _, line in unparseable[u:-1]:
        logger.warning("%s: unparseable token line %r", path, line)
    return bad


def _int_columns(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[list[int], list[int]]:
    """The IDs and HEADs, as int() reads them, of the token lines
    ``data[starts:ends]``."""
    cols = [data[s:e].decode().split("\t", _COL_HEAD + 1)
            for s, e in zip(starts.tolist(), ends.tolist())]
    return [int(c[_COL_ID]) for c in cols], [int(c[_COL_HEAD]) for c in cols]
