"""Reading and preprocessing tweet corpora, and dependency-parse sidecars.

Corpora arrive as JSON Lines files (one object per line with ``id``,
``text``, and an optional ``label`` of "informative"/"uninformative").
Dependency parses arrive as an optional CoNLL-U sidecar keyed by a
``# tweet_id = <id>`` sentence comment. ``load_parses`` reads it in blocks
into ``Parses``: the noun-verb edges of each parsed tweet as columns of
int indexes into one table of the distinct surface forms.

Preprocessing lowercases, splits on whitespace, strips punctuation from
token edges, and removes stopwords, tokens shorter than three characters,
tokens containing a digit, hashtags, and user mentions.

Corpus files are read one line at a time and no tweet is kept:
``CorpusLines`` yields each line's (id, text, label) over a list of files,
with an optional dedupe, and counts what it drops. ``TokenCleaner``
applies the preprocessing rules to a text's tokens and numbers the words
kept; extraction and the overlap baseline read texts as its word ids, and
evaluation pairs each label with its tokens.
"""

from __future__ import annotations

import itertools
import json
import logging
import string
import unicodedata
from array import array
from collections.abc import Iterator, Sequence
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
    """The ``(id, raw_text, label)`` records of a list of ``(path,
    label_mode)`` JSON Lines corpus files, read in list order one line at a
    time.

    Blank lines are ignored. Malformed lines are logged, skipped and
    counted in ``skipped``; more than 50% malformed lines in a file raises
    InputFormatError at the end of that file. With ``dedupe``, a record
    whose exact raw text was read before is dropped (the first is kept,
    across files) and counted in ``duplicates``; the read then holds every
    distinct text. Each read opens the files anew and recounts.
    """

    def __init__(
        self, files: Sequence[tuple[str | Path, LabelMode]], dedupe: bool = False
    ) -> None:
        self.files = files
        self.dedupe = dedupe
        self.skipped = self.duplicates = 0

    def __iter__(self) -> Iterator[tuple[str, str, Label]]:
        self.skipped = self.duplicates = 0
        seen: set[str] | None = set() if self.dedupe else None
        for path, label_mode in self.files:
            skipped = total = 0
            with open_text(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.strip():
                        continue
                    total += 1
                    try:
                        record = _parse_line(line, label_mode)
                    except (ValueError, RecursionError) as exc:  # RecursionError: too deep JSON
                        skipped += 1
                        logger.warning("%s:%d: skipping malformed line (%s)", path, lineno, exc)
                        continue
                    if seen is not None:
                        if record[1] in seen:
                            self.duplicates += 1
                            continue
                        seen.add(record[1])
                    yield record
            self.skipped += skipped
            if total > 0 and skipped * 2 > total:
                raise InputFormatError(
                    f"{path}: {skipped} of {total} lines malformed; not a JSONL tweet corpus?"
                )
            if skipped:
                logger.info("%s: loaded %d tweets, skipped %d malformed lines",
                            path, total - skipped, skipped)
        if seen is not None:
            logger.info("dedupe removed %d duplicate tweets", self.duplicates)

    def texts(self) -> Iterator[tuple[str, str]]:
        """The ``(tweet_id, raw_text)`` of each record a read yields."""
        return ((tweet_id, text) for tweet_id, text, _ in self)


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
        index = self[raw] = REMOVED if word is None else self.word_id(word)
        return index

    def word_id(self, word: str) -> int:
        """The id of `word` as it is, not cleaned; a new word gets the next id."""
        index = self._ids.setdefault(word, len(self.words))
        if index == len(self.words):
            self.words.append(word)
        return index

    def text_ids(self, raw_text: str) -> Iterator[int]:
        """The ids of a raw tweet text's tokens, lowercased and split on
        whitespace, in order: a word id, or ``REMOVED``."""
        return map(self.__getitem__, raw_text.lower().split())

    def tokens(self, raw_text: str) -> list[str]:
        """The tokens of a raw tweet text, each cleaned, the removed ones
        dropped."""
        words = self.words
        return [words[i] for i in self.text_ids(raw_text) if i != REMOVED]


# Characters of a parse sidecar read at a time. A block is cut at a sentence
# boundary, so it grows past this to hold a longer sentence.
PARSE_BLOCK_CHARS = 1 << 18

# CoNLL-U column offsets (ID, FORM, UPOS, HEAD are the ones used here).
_COL_ID, _COL_FORM, _COL_UPOS, _COL_HEAD = 0, 1, 3, 6

# An ID or HEAD field of 1 to this many ASCII digits is read by numpy; any
# other field is left to int().
_FAST_DIGITS = 6

# _MASKS[n] keeps the first n bytes of a little-endian window.
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], np.uint64)


def _word(text: bytes) -> int:
    """The bytes of `text` as the window where `text` starts holds them,
    masked to len(text) bytes."""
    return int.from_bytes(text, "little")


# The comment line numpy reads: "# tweet_id = <id>", the id starting and
# ending with a printable ASCII character. Python reads any other comment.
_TWEET_, _ID_IS = _word(b"# tweet_"), _word(b"id = ")
# A UPOS field with the tab after it: the noun tags and the verb tag.
_NOUN, _PROPN, _VERB = _word(b"NOUN\t"), _word(b"PROPN\t"), _word(b"VERB\t")


class Parses:
    """The noun-verb edges ``load_parses`` reads, as columns.

    ``rows`` maps each parsed tweet id, in file order, to its row; row r's
    edges are ``edges[offsets[r]:offsets[r + 1]]``, each a (noun, verb)
    pair of int32 indexes into ``forms``, the distinct surface forms.
    ``len()`` is the number of parsed tweets.
    """

    def __init__(
        self, rows: dict[str, int], offsets: np.ndarray, edges: np.ndarray, forms: list[str]
    ) -> None:
        self.rows, self.offsets, self.edges, self.forms = rows, offsets, edges, forms

    @classmethod
    def empty(cls) -> Parses:
        """No parses."""
        return cls({}, np.zeros(1, np.int64), np.zeros((0, 2), np.int32), [])

    def __len__(self) -> int:
        return len(self.rows)


def load_parses(path: str | Path) -> Parses:
    """Read a CoNLL-U sidecar keyed by ``# tweet_id = <id>`` comments into
    the (noun, verb) edges of each tweet's parse (``Parses``); a parse with
    no noun-verb edge has none.

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
    every line of a block as byte offsets, reads tweet ids, IDs and HEADs
    of the usual forms, checks each sentence's tree and finds its edges.
    Tweet ids and edge forms are numbered by dict methods that ``map``
    calls from C. Python code runs per block, per line of an unusual form
    (a comment numpy does not read, an ID or HEAD left to ``int()``) and
    per sentence that logs a warning, not per sentence or per edge.
    """
    reader = _ParseReader(path)
    text = ""
    with open_text(path) as fh:
        while True:
            chunk = fh.read(PARSE_BLOCK_CHARS)
            carried, text = len(text), text + chunk
            cut = _block_end(text, carried) if chunk else len(text)
            if cut:
                reader.read_block(text[:cut])
                text = text[cut:]
            if not chunk:
                break
    if reader.bad:
        logger.info("%s: dropped %d malformed parse entries", path, reader.bad)
    return Parses(reader.rows, np.frombuffer(reader.offsets, np.int64),
                  np.frombuffer(reader.edges, np.int32).reshape(-1, 2), list(reader.form_numbers))


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
        if _comment_tweet_id(text[newline + 2 : line_end if line_end >= 0 else None]) is not None:
            return newline + 1
        end = newline + 1
    return cut


def _comment_tweet_id(body: str) -> str | None:
    """The tweet id of a comment line's `body` after its ``#``: what
    follows ``=`` when the body starts with ``tweet_id``, else None."""
    body = body.strip()
    return body.partition("=")[2].strip() if body.startswith("tweet_id") else None


def _numbers(keys: list[str], numbers: dict[str, int]) -> np.ndarray:
    """The number of each of `keys` in `numbers`; a new key takes the next
    number, in order of first appearance."""
    n = len(numbers)
    got = np.fromiter(map(numbers.setdefault, keys, itertools.count(n)), np.int64, len(keys))
    new = got == np.arange(n, n + len(keys))  # the first appearance of each new key
    if not new.all():  # a key met before took a number: renumber the new keys from n
        numbers.update(zip(itertools.compress(keys, new.tolist()), itertools.count(n)))
        got[got >= n] = n - 1 + np.cumsum(new)[got[got >= n] - n]
    return got


def _printable(byte: np.ndarray) -> np.ndarray:
    """Whether each byte is a printable ASCII character other than space."""
    return (byte > ord(" ")) & (byte < 0x7F)


def _ascii_digits(windows: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The value of each field ``[start, stop)`` of 1 to ``_FAST_DIGITS``
    ASCII digits, and -1 for any other field."""
    width = stop - start
    plain = (width >= 1) & (width <= _FAST_DIGITS)
    window = windows[start]
    value = np.zeros(len(start), np.int64)
    for k in range(min(int(width.max(initial=0)), _FAST_DIGITS)):
        digit = (window >> 8 * k & 0xFF).astype(np.int64) - ord("0")
        inside = width > k
        plain &= ~inside | ((digit >= 0) & (digit <= 9))
        value = np.where(inside, value * 10 + digit, value)
    return np.where(plain, value, -1)


def _fields(padded: np.ndarray, start: np.ndarray, stop: np.ndarray) -> list[str]:
    """The fields ``padded[start:stop]``, which hold no newline, as str:
    one gather and one split for all of them."""
    width = stop - start + 1  # each field and a newline after it
    end = np.cumsum(width)
    at = np.repeat(start - (end - width), width) + np.arange(end[-1] if len(end) else 0)
    at[end - 1] = len(padded) - 1
    return padded[at].tobytes().decode().split("\n")[:-1]


class _ParseReader:
    """The columns of ``Parses`` as read so far, a block of whole sentences
    at a time, and the malformed entries met."""

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self.rows: dict[str, int] = {}
        self.form_numbers: dict[str, int] = {}  # in the order of the numbers
        # The columns grow in place, a block at a time.
        self.edges, self.offsets = array("i"), array("q", [0])
        self.bad = self.lines = 0

    def read_block(self, text: str) -> None:
        """Read the whole sentences in `text`, the sidecar's lines after
        the first ``lines``, logging as ``load_parses`` does."""
        path = self.path
        data = text.encode()
        # A view in which item i is the 8 bytes from position i as a
        # little-endian uint64, newlines past the end, so that a field is
        # tested by one gather.
        padded = np.frombuffer(data + b"\n" * 16, np.uint8)
        windows = np.ndarray((len(data) + 9,), "<u8", padded, 0, (1,))
        buf = padded[: len(data)]
        # Tabs and newlines in order; a line's tabs lie between its newline
        # and the one before, and the last line ends at a newline or at
        # len(buf).
        seps = np.flatnonzero((buf == ord("\t")) | (buf == ord("\n")))
        newlines = np.flatnonzero(buf[seps] == ord("\n"))
        lines_before, self.lines = self.lines, self.lines + len(newlines)
        if not data.endswith(b"\n"):
            seps = np.append(seps, len(buf))
            newlines = np.append(newlines, len(seps) - 1)
        ends = seps[newlines]
        starts = np.concatenate(([0], ends[:-1] + 1))
        first_sep = np.concatenate(([0], newlines[:-1] + 1))
        comment = (starts < ends) & (padded[starts] == ord("#"))

        # Tweet id comments; a sentence ends at each of them and each blank line.
        comments = np.flatnonzero(comment)
        lead, after = windows[starts[comments]], windows[starts[comments] + 8]
        is_tid = ((lead == _TWEET_) & (after & _MASKS[5] == _ID_IS)
                  & _printable(after >> 40 & 0xFF) & _printable(buf[ends[comments] - 1]))
        tid_rows = comments[is_tid]
        tids = _fields(padded, starts[tid_rows] + 13, ends[tid_rows])
        slow_rows = []
        for row in comments[~is_tid].tolist():
            tweet_id = _comment_tweet_id(data[starts[row] + 1 : ends[row]].decode())
            if tweet_id is not None:
                slow_rows.append(row)
                tids.append(tweet_id)
        if slow_rows:
            tid_rows = np.concatenate((tid_rows, slow_rows))
            order = np.argsort(tid_rows, kind="stable")
            tid_rows, tids = tid_rows[order], list(map(tids.__getitem__, order.tolist()))
        flush = starts == ends
        flush[tid_rows] = True
        segment = np.cumsum(flush)  # line -> the sentence it is read into
        tid_of = np.full(segment[-1] + 1, -1)  # sentence -> its index in tids
        tid_of[segment[tid_rows]] = np.arange(len(tids))

        # Token lines: at least 7 columns. HEAD ends at the seventh tab or
        # at the end of the line.
        lines = np.flatnonzero(~comment & (newlines - first_sep >= _COL_HEAD))
        tab = first_sep[lines]
        ids = _ascii_digits(windows, starts[lines], seps[tab])
        heads = _ascii_digits(windows, seps[tab + _COL_HEAD - 1] + 1, seps[tab + _COL_HEAD])
        keep = (ids >= 0) & (heads >= 0)
        unparseable = []  # (line, sentence, text) of each token line int() rejects
        for j in np.flatnonzero(~keep).tolist():
            row = lines[j]
            line = data[starts[row] : ends[row]].decode()
            cols = line.split("\t", _COL_HEAD + 1)
            if "-" in cols[_COL_ID] or "." in cols[_COL_ID]:
                continue
            try:
                index, head = int(cols[_COL_ID]), int(cols[_COL_HEAD])
            except ValueError:
                unparseable.append((int(row), int(segment[row]), line))
                continue
            keep[j] = True
            # Beyond -1..len(buf) a value fails the tree check as those two do.
            ids[j], heads[j] = (min(max(value, -1), len(buf)) for value in (index, head))
        if not keep.all():
            lines, tab, ids, heads = lines[keep], tab[keep], ids[keep], heads[keep]

        # Tree check: ids run 1..n, heads in range, one root, and every token
        # reaches the root by pointer jumping (up[i] is 2**k steps up after k).
        seg = segment[lines]
        n = len(lines)
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

        # The parses kept: those with a tweet id, no unparseable line and a
        # good tree, each the first such parse of its tweet id.
        tid = tid_of[seg[first]]
        dropped = np.zeros(len(tid_of), bool)
        dropped[[k for _, k, _ in unparseable]] = True
        dropped = dropped[seg[first]]
        valid = np.flatnonzero((tid >= 0) & ~dropped & good)
        n_rows = len(self.rows)
        rows, at = np.unique(_numbers(list(map(tids.__getitem__, tid[valid].tolist())), self.rows),
                             return_index=True)
        kept = np.zeros(len(first), bool)
        kept[valid[at[rows >= n_rows]]] = True

        # Warnings in line order: each unparseable line, and each other
        # sentence not kept: with no tweet id, a bad tree, or a tweet id kept
        # before.
        self.bad += len(unparseable)
        events = sorted([(row, -1, line) for row, _, line in unparseable]
                        + [(int(lines[first[j]]), j, "") for j in np.flatnonzero(~dropped & ~kept)])
        for row, j, line in events:
            if j < 0:
                logger.warning("%s: unparseable token line %r", path, line)
            elif tid[j] < 0:
                self.bad += 1
                logger.warning("%s:%d: dropping sentence with no tweet_id comment",
                               path, lines_before + row + 1)
            elif not good[j]:
                token = lines[first[j] : first[j] + size[j]]
                try:
                    validate_heads(*_int_columns(data, starts[token], ends[token]))
                except ValueError as exc:
                    self.bad += 1
                    logger.warning("%s: dropping parse for %s (%s)", path, tids[tid[j]], exc)
            else:
                logger.warning("%s: duplicate tweet_id %r, keeping first", path, tids[tid[j]])

        # Noun-verb edges of the kept parses, in token order, and their forms.
        upos = windows[seps[tab + _COL_UPOS - 1] + 1]
        noun = (upos & _MASKS[5] == _NOUN) | (upos & _MASKS[6] == _PROPN)
        verb = upos & _MASKS[5] == _VERB
        child = np.flatnonzero(kept[sentence] & ~root)
        parent = base[child] + heads[child] - 1
        noun_child = noun[child] & verb[parent]
        edge = noun_child | verb[child] & noun[parent]
        child, parent, noun_child = child[edge], parent[edge], noun_child[edge]
        pair_tokens = tab[np.stack([np.where(noun_child, child, parent),
                                    np.where(noun_child, parent, child)], axis=1).ravel()]
        numbers = _numbers(_fields(padded, seps[pair_tokens] + 1, seps[pair_tokens + 1]),
                           self.form_numbers)
        self.edges.frombytes(numbers.astype(np.int32).tobytes())
        counts = np.bincount(sentence[child], minlength=len(first))[kept]
        self.offsets.frombytes((self.offsets[-1] + np.cumsum(counts)).tobytes())


def _int_columns(data: bytes, starts: np.ndarray, ends: np.ndarray) -> tuple[list[int], list[int]]:
    """The IDs and HEADs, as int() reads them, of the token lines
    ``data[starts:ends]``."""
    cols = [data[s:e].decode().split("\t", _COL_HEAD + 1)
            for s, e in zip(starts.tolist(), ends.tolist())]
    return [int(c[_COL_ID]) for c in cols], [int(c[_COL_HEAD]) for c in cols]
