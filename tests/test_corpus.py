import gc
import json
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles

from subevents import corpus
from subevents.corpus import (
    REMOVED,
    CorpusLines,
    Label,
    LabelMode,
    TokenCleaner,
    clean_token,
    load_parses,
    load_stopwords,
    validate_heads,
)
from subevents.errors import InputFormatError
from subevents.extract import ExtractCounts, PhraseConfig

STOPWORDS = load_stopwords()


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _tweet_tokens(tweets):
    """The ``(tweet_id, tokens)`` of each tweet one read of `tweets` keeps."""
    cleaner = TokenCleaner(STOPWORDS)
    return [(tweet_id, cleaner.tokens(text)) for tweet_id, text in tweets.texts()]


def _read(path, label_mode=LabelMode.UNLABELED):
    """The (id, raw_text, label) records ``CorpusLines`` yields for a file,
    and its count of malformed lines."""
    lines = CorpusLines([(path, label_mode)])
    records = list(lines)
    return records, lines.skipped


class TestLoadCorpus:
    """Corpus files as ``CorpusLines`` reads them."""

    def test_unlabeled_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [
            json.dumps({"id": "1", "text": "power outage in west kingman due to flooding"}),
            json.dumps({"id": "2", "text": "second tweet"}),
        ])
        records, _ = _read(path)
        assert len(records) == 2
        assert records[0] == (
            "1", "power outage in west kingman due to flooding", Label.UNLABELED)
        assert all(label is Label.UNLABELED for _, _, label in records)

    def test_labeled_mode_parses_labels(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [
            json.dumps({"id": "1", "text": "a", "label": "informative"}),
            json.dumps({"id": "2", "text": "b", "label": "uninformative"}),
            json.dumps({"id": "3", "text": "c"}),
        ])
        records, _ = _read(path, LabelMode.LABELED)
        labels = [label for _, _, label in records]
        assert labels == [Label.INFORMATIVE, Label.UNINFORMATIVE, Label.UNLABELED]

    def test_unlabeled_mode_ignores_label_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [json.dumps({"id": "1", "text": "a", "label": "informative"})])
        records, _ = _read(path, LabelMode.UNLABELED)
        assert records[0][2] is Label.UNLABELED

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("", encoding="utf-8")
        assert _read(path) == ([], 0)

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [
            json.dumps({"id": "1", "text": "a"}),
            "{not json",
            json.dumps({"id": "2", "text": "b"}),
        ])
        records, skipped = _read(path)
        assert len(records) == 2
        assert skipped == 1

    def test_unknown_label_counts_as_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [
            json.dumps({"id": "1", "text": "a", "label": "spam"}),
            json.dumps({"id": "2", "text": "b", "label": "informative"}),
            json.dumps({"id": "3", "text": "c", "label": "informative"}),
        ])
        records, skipped = _read(path, LabelMode.LABELED)
        assert len(records) == 2
        assert skipped == 1

    def test_missing_fields_are_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, [
            json.dumps({"id": "1"}),
            json.dumps({"text": "b"}),
            json.dumps({"id": 3, "text": "c"}),
            json.dumps({"id": "4", "text": "d"}),
            json.dumps({"id": "5", "text": "e"}),
            json.dumps({"id": "6", "text": "f"}),
            json.dumps({"id": "7", "text": "g"}),
        ])
        records, skipped = _read(path)
        assert len(records) == 4
        assert skipped == 3

    def test_majority_malformed_is_fatal(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, ["oops", "also bad", json.dumps({"id": "1", "text": "a"})])
        with pytest.raises(InputFormatError):
            _read(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_lines(path, ["", json.dumps({"id": "1", "text": "a"}), "", ""])
        records, skipped = _read(path)
        assert len(records) == 1
        assert skipped == 0

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            _read(tmp_path / "absent.jsonl")

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("\ufeff" + json.dumps({"id": "1", "text": "first"}) + "\n",
                        encoding="utf-8")
        assert _read(path) == ([("1", "first", Label.UNLABELED)], 0)


class TestPreprocess:
    def _tokens(self, text):
        return tuple(TokenCleaner(STOPWORDS).tokens(text))

    def test_reference_sentence(self):
        text = "Waterborne diseases on the rise in Texas as hurricane water recedes #harvey2017"
        assert self._tokens(text) == (
            "waterborne", "diseases", "rise", "texas", "hurricane", "water", "recedes",
        )

    def test_all_stopwords_or_short(self):
        assert self._tokens("at an in on") == ()

    def test_hashtags_digits_and_short_tokens(self):
        # "rt" falls to the length rule, the hashtags to the prefix rule,
        # "2017" to the digit rule.
        assert self._tokens("#harvey #hurricane 2017 RT") == ()

    def test_mentions_removed(self):
        assert self._tokens("@reporter flooding downtown") == ("flooding", "downtown")

    def test_edge_punctuation_stripped(self):
        assert self._tokens('(water)!! "flooding..." bridge--') == (
            "water", "flooding", "bridge",
        )

    def test_unicode_punctuation_stripped(self):
        assert self._tokens("“flooding” —roads—") == ("flooding", "roads")

    def test_hashtag_rule_applies_before_stripping(self):
        # If '#' were stripped as edge punctuation first, "#flood" would
        # survive as "flood"; the prefix rule must see the raw token.
        assert self._tokens("#flood flood") == ("flood",)

    def test_interior_punctuation_kept(self):
        assert self._tokens("o'clock e-mail") == ("o'clock", "e-mail")

    def test_zero_token_tweet_is_legitimate(self, tmp_path):
        # A tweet whose every token is removed is still read, with no tokens.
        path = tmp_path / "c.jsonl"
        _write_lines(path, [json.dumps({"id": "t", "text": "#only @refs 12"})])
        tweets = CorpusLines([(path, LabelMode.UNLABELED)])
        assert _tweet_tokens(tweets) == [("t", [])]
        assert tweets.skipped == 0

    def test_no_forbidden_tokens_property(self):
        rng = np.random.default_rng(42)
        charset = list("abcdefzy #@.,!?-123“”—'\"()")
        for _ in range(300):
            length = int(rng.integers(0, 40))
            text = "".join(rng.choice(charset) for _ in range(length))
            for token in self._tokens(text):
                assert len(token) >= 3
                assert not token.startswith("#")
                assert not token.startswith("@")
                assert not any(ch.isdigit() for ch in token)
                assert token not in STOPWORDS

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(7)
        charset = list("abcdefgh stuv#@.!?-09'’¿")
        for _ in range(200):
            length = int(rng.integers(0, 50))
            text = "".join(rng.choice(charset) for _ in range(length))
            once = self._tokens(text)
            again = self._tokens(" ".join(once))
            assert once == again


class TestCleanToken:
    def test_stopword_removed(self):
        assert clean_token("the", STOPWORDS) is None

    def test_kept_token_returned(self):
        assert clean_token("flooding", STOPWORDS) == "flooding"

    def test_punctuation_only_token_removed(self):
        assert clean_token("!!!", STOPWORDS) is None


def test_text_ids_are_the_ids_of_the_lowercased_whitespace_split_tokens():
    cleaner = TokenCleaner(STOPWORDS)
    ids = list(cleaner.text_ids("Flood, the #Rescue 2017 bridge\u00a0flood CREWS"))
    flood, bridge, crews = range(3)
    assert ids == [flood, REMOVED, REMOVED, REMOVED, bridge, flood, crews]
    assert cleaner.words == ["flood", "bridge", "crews"]
    assert cleaner["flood,"] == cleaner["flood"] == flood


# Words that repeat across tweets (so the per-call cache is hit), stopwords,
# and tokens the prefix, digit and punctuation rules act on, including
# Unicode punctuation of several P* categories.
_WORDS = st.sampled_from([
    "flood", "Flood", "FLOOD", "bridge", "the", "and", "rt", "#flood", "@user",
    "2017", "covid19", "o'clock", "e-mail", "“flood”", "¿water?", "—roads—",
    "(road)", "«smoke»", "water!!", "...", "#", "@", "ab", "café", "naïve",
])
_TEXT = st.lists(
    st.one_of(_WORDS, st.text(min_size=1, max_size=8)), max_size=12
).map(" ".join)


_LEXICON = st.none() | st.dictionaries(
    st.sampled_from(["flood", "bridge", "water", "roads", "e-mail", "café", "naïve"]),
    st.sampled_from([frozenset("N"), frozenset("V"), frozenset("NV")]))


@given(texts=st.lists(_TEXT, max_size=8), earlier=st.lists(_TEXT, max_size=4),
       fill=st.sampled_from(["tokens", "counts"]), earlier_lexicon=_LEXICON,
       counted=st.lists(st.lists(_WORDS, max_size=10).map(" ".join), max_size=10),
       lexicon=_LEXICON, parses=st.dictionaries(st.sampled_from("0123"), st.lists(
           st.tuples(_WORDS, _WORDS), max_size=3).map(tuple)),
       phrase=st.builds(PhraseConfig, st.integers(1, 2),
                        st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])))
@settings(max_examples=200, deadline=None)
def test_shared_cleaner_equals_per_tweet_cleaner(texts, earlier, fill, earlier_lexicon, counted,
                                                 lexicon, parses, phrase):
    """One ``TokenCleaner`` over many texts, reusing what it cached, gives
    each text the tokens a fresh one does; each raw token's id is that of
    the word ``clean_token`` keeps, or REMOVED, and ids count up in order
    of first appearance. ``ExtractCounts`` on a cleaner that earlier texts
    filled (through ``tokens`` or other counts) counts the same texts as
    one on a fresh cleaner does."""
    shared = TokenCleaner(STOPWORDS)
    assert [shared.tokens(text) for text in texts] == [
        TokenCleaner(STOPWORDS).tokens(text) for text in texts]
    assert shared.words == list(dict.fromkeys(
        token for text in texts for token in shared.tokens(text)))
    for raw in {raw for text in texts for raw in text.lower().split()}:
        index = shared[raw]
        assert (shared.words[index] if index != REMOVED else None) == clean_token(raw, STOPWORDS)

    parses = oracles.parses_from_edges(parses)
    filled = TokenCleaner(STOPWORDS)
    if fill == "tokens":
        for text in earlier:
            filled.tokens(text)
    else:
        earlier_counts = ExtractCounts(filled, parses, earlier_lexicon)
        earlier_counts.add_texts((str(i), text) for i, text in enumerate(earlier))
        earlier_counts.candidates()
    runs = []
    for cleaner in (filled, TokenCleaner(STOPWORDS)):
        counts = ExtractCounts(cleaner, parses, lexicon)
        counts.add_texts((str(i), text) for i, text in enumerate(counted))
        runs.append((counts.candidates(phrase, 1), counts.parsed, counts.fallback,
                     counts.neither))
    assert runs[0] == runs[1]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
# Text around a JSON value: JSON whitespace, and characters that are
# whitespace to str.strip() but not to JSON, or a byte order mark.
_JSON_SPACE = st.sampled_from(["", "", "\n", " \t\r\n", "\x0c", "\u00a0", "\ufeff", "\n\x0c"])


def _outcome(fn, line):
    try:
        return "value", fn(line)
    except ValueError as exc:
        return type(exc), str(exc)


@given(line=st.one_of(
    st.tuples(_JSON_SPACE, _JSON.map(json.dumps), _JSON_SPACE,
              st.sampled_from(["", "", "x", "}", "{}", " 1"])).map("".join),
    st.text(max_size=12),
))
@settings(max_examples=300, deadline=None)
def test_line_decoding_equals_json_loads(line):
    """The corpus reader decodes a line to the value ``json.loads`` gives,
    or raises its error with its message, whatever whitespace or text
    surrounds the JSON value."""
    got, want = _outcome(corpus._loads, line), _outcome(json.loads, line)
    assert repr(got) == repr(want)


class TestStopwords:
    def test_bundled_list(self):
        assert "the" in STOPWORDS
        assert "water" not in STOPWORDS

    def test_custom_file_with_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nFoo\n\nbar\n", encoding="utf-8")
        words = load_stopwords(path)
        assert words == frozenset({"foo", "bar"})


    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("\ufeffthe\nbar\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"the", "bar"})


class TestTweetTokens:
    """The tweets ``CorpusLines`` keeps from an unlabeled and a labeled
    file, with and without dedupe."""

    def _files(self, tmp_path):
        unlabeled, labeled = tmp_path / "u.jsonl", tmp_path / "l.jsonl"
        _write_lines(unlabeled, [
            json.dumps({"id": "1", "text": "Flood waters rise"}),
            "not json",
            json.dumps({"id": "2", "text": "bridge gone"}),
            json.dumps({"id": "3", "text": "Flood waters rise"}),
        ])
        _write_lines(labeled, [
            json.dumps({"id": "4", "text": "bridge gone", "label": "informative"}),
            json.dumps({"id": "5", "text": "#help the roads!", "label": "uninformative"}),
            json.dumps({"id": "6", "text": "road", "label": "maybe"}),
        ])
        return [(unlabeled, LabelMode.UNLABELED), (labeled, LabelMode.LABELED)]

    def test_dedupe_across_files_keeps_first(self, tmp_path):
        tweets = CorpusLines(self._files(tmp_path), dedupe=True)
        for _ in range(2):  # each read recounts
            assert _tweet_tokens(tweets) == [
                ("1", ["flood", "waters", "rise"]), ("2", ["bridge", "gone"]), ("5", ["roads"])]
            assert (tweets.skipped, tweets.duplicates) == (2, 2)

    def test_without_dedupe_keeps_every_tweet_in_file_order(self, tmp_path):
        tweets = CorpusLines(self._files(tmp_path))
        assert [tweet_id for tweet_id, _ in tweets.texts()] == ["1", "2", "3", "4", "5"]
        assert (tweets.skipped, tweets.duplicates) == (2, 0)

    @pytest.mark.parametrize("dedupe", [False, True])
    def test_texts_are_the_raw_texts_of_the_tweets_kept(self, tmp_path, dedupe):
        tweets = CorpusLines(self._files(tmp_path), dedupe=dedupe)
        tokens, counts = _tweet_tokens(tweets), (tweets.skipped, tweets.duplicates)
        texts = list(tweets.texts())
        cleaner = TokenCleaner(STOPWORDS)
        assert [tweet_id for tweet_id, _ in texts] == [tweet_id for tweet_id, _ in tokens]
        assert [cleaner.tokens(text) for _, text in texts] == [t for _, t in tokens]
        assert texts[0] == ("1", "Flood waters rise")
        assert (tweets.skipped, tweets.duplicates) == counts


class TestCorpusOps:
    def test_concat_preserves_order_and_skips(self, tmp_path):
        # CorpusLines reads its files one after the other: tweets in file
        # order, malformed lines summed over the files.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_lines(a, [json.dumps({"id": "1", "text": "x"}), "bad", "bad",
                         json.dumps({"id": "3", "text": "z"})])
        _write_lines(b, [json.dumps({"id": "2", "text": "y"}), "bad",
                         json.dumps({"id": "4", "text": "w"})])
        tweets = CorpusLines([(a, LabelMode.UNLABELED), (b, LabelMode.UNLABELED)])
        assert [tweet_id for tweet_id, _ in tweets.texts()] == ["1", "3", "2", "4"]
        assert tweets.skipped == 3


_TEXTS = ["flood rising", "flood rising ", "bridge gone", "Roads closed"]
_BLANK = ["", "   ", "\t"]
_MALFORMED = ["{", "not json", "[]", '{"id": 1, "text": "x"}', '{"id": "1"}']


@st.composite
def _corpus_file(draw):
    """A label mode and the lines of one corpus file, each as (kind,
    line, record): valid lines whose few ids and texts repeat, malformed
    lines (in labeled mode an unknown label too) and blank lines."""
    mode = draw(st.sampled_from(LabelMode))
    malformed = _MALFORMED + (['{"id": "1", "text": "x", "label": "maybe"}']
                              if mode is LabelMode.LABELED else [])
    lines = []
    for kind in draw(st.lists(st.sampled_from(["valid", "valid", "malformed", "blank"]),
                              max_size=10)):
        if kind == "blank":
            lines.append((kind, draw(st.sampled_from(_BLANK)), None))
        elif kind == "malformed":
            lines.append((kind, draw(st.sampled_from(malformed)), None))
        else:
            tweet_id, text = draw(st.sampled_from("1234")), draw(st.sampled_from(_TEXTS))
            label = draw(st.sampled_from(Label))
            obj = {"id": tweet_id, "text": text}
            if label is not Label.UNLABELED:
                obj["label"] = label.value
            if mode is LabelMode.UNLABELED:
                label = Label.UNLABELED  # an unlabeled file's label field is ignored
            lines.append((kind, json.dumps(obj), (tweet_id, text, label)))
    return mode, lines


def _expected_read(files, dedupe):
    """The records, skipped and duplicate counts, and non-blank lines of a
    read of `files`, and whether it ends in InputFormatError: a file whose
    lines are more than half malformed stops the read at its end."""
    records, seen = [], set()
    skipped = duplicates = nonblank = 0
    for _, lines in files:
        bad = total = 0
        for kind, _, record in lines:
            if kind == "blank":
                continue
            total += 1
            if kind == "malformed":
                bad += 1
            elif dedupe and record[1] in seen:
                duplicates += 1
            else:
                seen.add(record[1])
                records.append(record)
        skipped += bad
        nonblank += total
        if bad * 2 > total:
            return records, skipped, duplicates, nonblank, True
    return records, skipped, duplicates, nonblank, False


def _read_all(reader):
    """The records one read of `reader` yields, and whether it raised
    InputFormatError."""
    records = []
    try:
        for record in reader:
            records.append(record)
    except InputFormatError:
        return records, True
    return records, False


@settings(max_examples=200, deadline=None)
@given(files=st.lists(_corpus_file(), min_size=1, max_size=3), dedupe=st.booleans())
def test_reader_accounts_for_every_non_blank_line(files, dedupe, reader_dir):
    """Over several files in both label modes, each non-blank line read is
    a record, a duplicate or a skipped line; each file's malformed lines
    are its ``skipped``; dedupe keeps the first copy of a text across
    files; and a second read gives the same records and counts."""
    paths = []
    for i, (mode, lines) in enumerate(files):
        path = reader_dir / f"part{i}.jsonl"
        path.write_text("".join(line + "\n" for _, line, _ in lines), encoding="utf-8")
        paths.append((path, mode))
    want, skipped, duplicates, nonblank, fails = _expected_read(files, dedupe)
    reader = CorpusLines(paths, dedupe)
    for _ in range(2):
        assert _read_all(reader) == (want, fails)
        assert (reader.skipped, reader.duplicates) == (skipped, duplicates)
        assert len(want) + reader.duplicates + reader.skipped == nonblank
    for path, (mode, lines) in zip(paths, files):
        alone = CorpusLines([path])
        _read_all(alone)
        assert alone.skipped == sum(kind == "malformed" for kind, _, _ in lines)
    if not fails and dedupe:
        every, _ = _read_all(CorpusLines(paths))
        firsts = {}
        for record in every:
            firsts.setdefault(record[1], record)
        assert want == list(firsts.values())
        assert reader.duplicates == len(every) - len(want)


class TestParses:
    def _write(self, tmp_path, text):
        path = tmp_path / "p.conllu"
        path.write_text(text, encoding="utf-8")
        return path

    def test_two_sentences(self, tmp_path):
        path = self._write(tmp_path, (
            "# tweet_id = a\n"
            "1\tfloods\tflood\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\trise\trise\tVERB\t_\t_\t0\troot\t_\t_\n"
            "\n"
            "# tweet_id = b\n"
            "1\tcalm\tcalm\tADJ\t_\t_\t0\troot\t_\t_\n"
        ))
        parses = oracles.edges_from_parses(load_parses(path))
        assert parses == {"a": (("floods", "rise"),), "b": ()}

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = self._write(tmp_path, (
            "\ufeff# tweet_id = a\n"
            "1\tfloods\tflood\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\trise\trise\tVERB\t_\t_\t0\troot\t_\t_\n"
            "\n"
            "# tweet_id = b\n"
            "1\tcalm\tcalm\tADJ\t_\t_\t0\troot\t_\t_\n"
        ))
        parses = oracles.edges_from_parses(load_parses(path))
        assert set(parses) == {"a", "b"}
        assert parses["a"] == (("floods", "rise"),)

    def test_range_and_decimal_ids_skipped(self, tmp_path):
        path = self._write(tmp_path, (
            "# tweet_id = a\n"
            "1-2\tcannot\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tcan\tcan\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "1.1\telided\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "2\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
        ))
        assert oracles.edges_from_parses(load_parses(path))["a"] == (("can", "go"),)

    def test_invalid_sentence_dropped_others_kept(self, tmp_path, caplog):
        path = self._write(tmp_path, (
            "# tweet_id = bad\n"
            "1\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "2\ty\ty\tVERB\t_\t_\t0\troot\t_\t_\n"
            "\n"
            "# tweet_id = good\n"
            "1\tz\tz\tNOUN\t_\t_\t0\troot\t_\t_\n"
        ))
        with caplog.at_level("WARNING"):
            parses = load_parses(path)
        assert set(oracles.edges_from_parses(parses)) == {"good"}
        assert any("bad" in rec.message for rec in caplog.records)

    def test_sentence_without_tweet_id_ignored(self, tmp_path):
        path = self._write(tmp_path, (
            "# sent_id = 1\n"
            "1\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n"
        ))
        assert oracles.edges_from_parses(load_parses(path)) == {}

    def test_sentence_without_tweet_id_is_warned_and_counted(self, tmp_path, caplog):
        path = self._write(tmp_path, (
            "# tweet_id = a\n"
            "1\tfloods\tflood\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "\n"
            "# sent_id = 1\n"
            "1\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n"
            "\n"
            "1\tx\tx\tNOUN\t_\t_\tnot-a-head\troot\t_\t_\n"
            "2\ty\ty\tVERB\t_\t_\t1\tdep\t_\t_\n"
        ))
        with caplog.at_level("INFO"):
            parses = load_parses(path)
        assert list(oracles.edges_from_parses(parses)) == ["a"]
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{path}:5: dropping sentence with no tweet_id comment",
            f"{path}: unparseable token line '1\\tx\\tx\\tNOUN\\t_\\t_\\tnot-a-head\\troot\\t_\\t_'",
            f"{path}: dropped 2 malformed parse entries",
        ]

    def test_tweet_id_comment_ends_pending_sentence(self, tmp_path, caplog):
        path = self._write(tmp_path, (
            "# tweet_id = a\n"
            "1\tfloods\tflood\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\trise\trise\tVERB\t_\t_\t0\troot\t_\t_\n"
            "# tweet_id = b\n"
            "1\tcalm\tcalm\tADJ\t_\t_\t0\troot\t_\t_\n"
        ))
        with caplog.at_level("WARNING"):
            parses = oracles.edges_from_parses(load_parses(path))
        assert parses == {"a": (("floods", "rise"),), "b": ()}
        assert not caplog.records

    def test_duplicate_tweet_id_keeps_first(self, tmp_path, caplog):
        path = self._write(tmp_path, (
            "# tweet_id = a\n"
            "1\tfirst\tfirst\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
            "\n"
            "# tweet_id = a\n"
            "1\tsecond\tsecond\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\tgo\tgo\tVERB\t_\t_\t0\troot\t_\t_\n"
        ))
        with caplog.at_level("WARNING"):
            parses = oracles.edges_from_parses(load_parses(path))
        assert parses["a"] == (("first", "go"),)
        assert any("duplicate tweet_id 'a'" in rec.message for rec in caplog.records)

    def test_attach_matches_ids(self, tmp_path):
        path = self._write(tmp_path, (
            "# tweet_id = 2\n"
            "1\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n"
        ))
        # ExtractCounts looks each tweet's parse up by id: tweet "2" takes
        # the parse, tweet "1" has none.
        counts = ExtractCounts(TokenCleaner(STOPWORDS), load_parses(path))
        counts.add_texts([("1", "aaa")])
        assert (counts.parsed, counts.neither) == (0, 1)
        counts.add_texts([("2", "bbb")])
        assert (counts.parsed, counts.neither) == (1, 1)


class TestDependencyParseValidate:
    """``validate_heads``: the tree invariants ``load_parses`` checks on a
    sentence's id and head columns before keeping its edges."""

    def _validate(self, heads):
        validate_heads(list(range(1, len(heads) + 1)), heads)

    def test_valid_tree(self):
        self._validate([2, 0, 2])

    def test_head_out_of_range(self):
        with pytest.raises(ValueError):
            self._validate([5, 0])

    def test_zero_or_multiple_roots(self):
        with pytest.raises(ValueError):
            self._validate([0, 0])
        with pytest.raises(ValueError):
            self._validate([2, 1])

    def test_cycle_detected(self):
        with pytest.raises(ValueError):
            self._validate([2, 1, 0])

    def test_bad_index_sequence(self):
        with pytest.raises(ValueError, match="node index 2 at position 0"):
            validate_heads([2], [0])


def _validate_brute_force(heads: list[int]) -> str | None:
    """The error message a full head walk from every node gives, or None."""
    n = len(heads)
    for head in heads:
        if not 0 <= head <= n:
            return f"head {head} out of range [0, {n}]"
    roots = heads.count(0)
    if roots != 1:
        return f"expected exactly one root, found {roots}"
    for index in range(1, n + 1):
        seen = set()
        current = index
        while current != 0:
            if current in seen:
                return f"cycle through node {current}"
            seen.add(current)
            current = heads[current - 1]
    return None


@given(st.integers(1, 12).flatmap(lambda n: st.one_of(
    st.lists(st.integers(0, n), min_size=n, max_size=n),
    st.lists(st.integers(-1, n + 1), min_size=n, max_size=n),
)))
@settings(max_examples=500, deadline=None)
def test_validate_matches_brute_force_walk(heads):
    ids = list(range(1, len(heads) + 1))
    expected = _validate_brute_force(heads)
    if expected is None:
        validate_heads(ids, heads)
    else:
        with pytest.raises(ValueError) as info:
            validate_heads(ids, heads)
        assert str(info.value) == expected


@pytest.fixture(scope="module")
def reader_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


def _lines(*lines):
    """Bytes that are either arbitrary or lines drawn from `lines` (text
    made into UTF-8) and short arbitrary runs, so structure and junk both
    occur."""
    return st.binary() | st.lists(
        st.sampled_from([line.encode("utf-8") for line in lines]) | st.binary(max_size=8),
        max_size=12,
    ).map(b"\n".join)


CORPUS_BYTES = _lines(
    '{"id": "1", "text": "flood rising"}', '{"id": "2", "text": "x", "label": "informative"}',
    '{"id": "3", "text": "x", "label": "nope"}', '{"id": "4", "text": "\\ude00 \\\\ud800"}',
    '{"id": "5", "text": "caf\u00e9\\r\u2028"}', '{"id": 1}', "[]", "{", "", " ",
)
PARSE_BYTES = _lines(
    "# tweet_id = a", "# tweet_id = b", "# tweet_id", "#", "", " ", "\t\t\t\t\t\t",
    "1\tflood\tflood\tNOUN\t_\t_\t0\troot\t_\t_", "1\tx\t_\tNOUN\t_\t_\t-1",
    "2\trise\trise\tVERB\t_\t_\t1\tdep\t_\t_", "2\tx\t_\tVERB\t_\t_\t2",
    "1-2\tx\t_\t_\t_\t_\t_", "1.1\tx\t_\t_\t_\t_\t_", "\u0661\tx\t_\tNOUN\t_\t_\t0",
    "99999999999999999999\tx\t_\tNOUN\t_\t_\t0",
)


class TestReaderProperties:
    @settings(deadline=None)
    @given(data=CORPUS_BYTES)
    @example(data=b"[" * 100_000 + b'\n{"id": "1", "text": "a"}\n{"id": "2", "text": "b"}')
    def test_corpus_written_back_loads_the_same(self, data, reader_dir):
        """Any bytes are read, each non-blank line as a record or a counted
        malformed line, or rejected with InputFormatError; the records,
        written back as JSON Lines, read back the same."""
        path = reader_dir / "c.jsonl"
        path.write_bytes(data)
        try:
            first, skipped = _read(path, LabelMode.LABELED)
        except InputFormatError:
            return
        with open(path, encoding="utf-8-sig") as fh:
            assert len(first) + skipped == sum(1 for line in fh if line.strip())
        _write_lines(path, [
            json.dumps({"id": tweet_id, "text": text}
                       | ({} if label is Label.UNLABELED else {"label": label.value}))
            for tweet_id, text, label in first
        ])
        assert _read(path, LabelMode.LABELED) == (first, 0)

    @settings(deadline=None)
    @given(data=PARSE_BYTES)
    def test_parses_load_or_raise_input_format_error(self, data, reader_dir):
        path = reader_dir / "p.conllu"
        path.write_bytes(data)
        try:
            oracles.reference_load_parses(path)
        except UnicodeDecodeError:
            for block_chars in BLOCK_CHARS:
                with mock.patch.object(corpus, "PARSE_BLOCK_CHARS", block_chars):
                    with pytest.raises(InputFormatError):
                        load_parses(path)
            return
        expected = _reference_edges(path)
        for block_chars in BLOCK_CHARS:
            with mock.patch.object(corpus, "PARSE_BLOCK_CHARS", block_chars):
                assert oracles.edges_from_parses(load_parses(path)) == expected


# Block sizes the parse reader is checked at: its own, and reads of 16 and
# 1 characters, which end inside nearly every line, so that nearly every
# sentence is cut out as a block of its own.
BLOCK_CHARS = (corpus.PARSE_BLOCK_CHARS, 16, 1)


def _reference_edges(path):
    parses = oracles.reference_load_parses(path)
    return {tweet_id: oracles.reference_nv_edges(nodes) for tweet_id, nodes in parses.items()}


_TAGS = ("NOUN", "PROPN", "VERB", "ADJ", "X")


@st.composite
def _sentences(draw):
    """Lines of one CoNLL-U sentence: an optional tweet_id comment (ids
    repeat across sentences) and 1-6 token lines (7-40 in one sentence of
    four) forming a tree, now and then a chain (a tree 16 or more deep
    needs five rounds of pointer jumping). Now and then a head is replaced by any integer or a
    non-integer, or a token id is off, so cycles, several roots,
    out-of-range heads, id gaps and unparseable lines occur, as do ranged
    and dotted ids, and ids and heads that int() reads though they are not
    plain ASCII digits (" 2 ", "+1", "1_0", Arabic-Indic digits) or are
    too large for any tree."""
    lines = []
    if draw(st.integers(0, 7)):
        lines.append(f"# tweet_id = {draw(st.sampled_from('abcd'))}")
    if draw(st.integers(0, 3)) == 0:
        lines.append("# text = flood rising")
    n = draw(st.integers(7, 40) if draw(st.integers(0, 3)) == 0 else st.integers(1, 6))
    order = draw(st.permutations(range(1, n + 1)))
    chain = draw(st.integers(0, 3)) == 0
    heads = {order[0]: "0"}
    for k in range(1, n):
        heads[order[k]] = str(order[k - 1 if chain else draw(st.integers(0, k - 1))])
    if draw(st.integers(0, 5)) == 0:
        heads[draw(st.integers(1, n))] = draw(st.sampled_from(
            [str(h) for h in range(-1, n + 2)]
            + ["_", "1.5", " 2 ", "+1", "1_0", "\u0661", "9" * 20]))
    for i in range(1, n + 1):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from([f"{i}-{i + 1}", f"{i}.1"])) + "\tx\t_\t_\t_\t_\t_")
        token_id = str(i) if draw(st.integers(0, 24)) else draw(
            st.sampled_from([str(i + 1), "x", f" {i} ", f"+{i}", f"0{i}", "9" * 20]))
        form = draw(st.sampled_from(["floods", "rise", "Bridge", "gone", "x y"]))
        tag = draw(st.sampled_from(_TAGS))
        lines.append("\t".join([token_id, form, "_", tag, "_", "_", heads[i], "dep", "_", "_"]))
    return lines


@st.composite
def _sidecars(draw):
    """Sentences separated by a blank line or by nothing (the next
    tweet_id comment then ends a sentence), with LF or CRLF line ends;
    now and then a file holds no blank line at all."""
    parts = []
    blank_lines = draw(st.integers(0, 3)) > 0
    for lines in draw(st.lists(_sentences(), max_size=6)):
        parts.extend(lines)
        if blank_lines and draw(st.integers(0, 3)):
            parts.append("")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(parts).encode("utf-8")


# caplog is cleared before each example, so sharing it across examples is safe.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_sidecars())
def test_load_parses_matches_node_reference(data, reader_dir, caplog):
    """The block reader keeps the ids, edges and log records, in order, of
    the node-based reader it replaced, at every block size."""
    path = reader_dir / "sidecar.conllu"
    path.write_bytes(data)
    caplog.clear()
    with caplog.at_level("INFO"):
        expected = _reference_edges(path)
        want = [(rec.levelname, rec.getMessage()) for rec in caplog.records]
        for block_chars in BLOCK_CHARS:
            caplog.clear()
            with mock.patch.object(corpus, "PARSE_BLOCK_CHARS", block_chars):
                parses = oracles.edges_from_parses(load_parses(path))
            got = [(rec.levelname, rec.getMessage()) for rec in caplog.records]
            assert list(parses) == list(expected)
            assert parses == expected
            assert got == want


def _traced_bytes(load, path):
    """Bytes still allocated (tracemalloc) while the result of load(path) is
    held, and the peak allocated while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = load(path)  # noqa: F841  (held while measured)
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def _bulk_sidecar(path, sentences=2000, vocabulary=None, blank_lines=True):
    """Write `sentences` well-formed fifteen-token sentences to `path`: a
    star around the second token, tags cycling through nouns, verbs and
    others. Each word is new unless `vocabulary` bounds how many differ."""
    tags = ["NOUN", "VERB", "ADV", "ADJ", "PROPN"]
    lines = []
    for s in range(sentences):
        lines.append(f"# tweet_id = t{s:05d}")
        for i in range(1, 16):
            head = 0 if i == 2 else 2
            word = f"w{s}x{i}" if vocabulary is None else f"w{(s * 15 + i) % vocabulary}"
            lines.append(f"{i}\t{word}\t_\t{tags[(s + i) % 5]}\t_\t_\t{head}\tdep\t_\t_")
        if blank_lines:
            lines.append("")
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


def test_load_parses_retains_a_fraction_of_the_tree_reader(tmp_path):
    """Keeping only noun-verb edges holds under a third of what one node
    per token held, on 2,000 fifteen-token sentences."""
    path = _bulk_sidecar(tmp_path / "bulk.conllu")
    assert len(load_parses(path)) == 2000
    assert 3 * _traced_bytes(load_parses, path)[0] < _traced_bytes(
        oracles.reference_load_parses, path
    )[0]


def test_equal_edge_words_are_one_form_across_blocks(tmp_path, monkeypatch):
    """An edge word is one entry of the form table however many sentences
    and blocks hold it, and each edge holds its index."""
    monkeypatch.setattr(corpus, "PARSE_BLOCK_CHARS", 64)
    sentence = ("1\tfloods\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
                "2\trise\t_\tVERB\t_\t_\t0\troot\t_\t_\n\n")
    path = tmp_path / "p.conllu"
    path.write_text("".join(f"# tweet_id = {i}\n{sentence}" for i in range(4)), encoding="utf-8")
    parses = load_parses(path)
    assert oracles.edges_from_parses(parses) == {str(i): (("floods", "rise"),) for i in range(4)}
    assert parses.forms == ["floods", "rise"]
    assert parses.edges.tolist() == [[0, 1]] * 4


def test_edge_columns_index_in_range_across_blocks(tmp_path, monkeypatch):
    """Across blocks the form table holds each distinct form once, every
    edge indexes into it, and the row offsets run from 0, never down, to
    the number of edges. The rows number the kept tweet ids 0..n-1 in file
    order, though one id repeats inside a block and another in a later
    block."""
    monkeypatch.setattr(corpus, "PARSE_BLOCK_CHARS", 64)
    blocks = []
    read_block = corpus._ParseReader.read_block

    def recording_read_block(reader, text):
        blocks.append(text)
        read_block(reader, text)

    monkeypatch.setattr(corpus._ParseReader, "read_block", recording_read_block)
    floods, rise, roads = ("1\tfloods\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n",
                           "2\trise\t_\tVERB\t_\t_\t0\troot\t_\t_\n",
                           "3\troads\t_\tNOUN\t_\t_\t2\tobj\t_\t_\n")
    calm, short = "1\tcalm\t_\tADJ\t_\t_\t0\troot\t_\t_\n", "1\tx\t_\tX\t_\t_\t0\n"
    sentences = [("0", floods + rise), ("1", floods + rise + roads), ("2", short), ("2", short),
                 ("3", floods + rise), ("4", floods + rise + roads), ("1", short), ("5", calm),
                 ("6", floods + rise), ("7", floods + rise + roads)]
    path = tmp_path / "p.conllu"
    path.write_text("".join(f"# tweet_id = {i}\n{sentence}\n" for i, sentence in sentences),
                    encoding="utf-8")
    parses = load_parses(path)
    assert any(block.count("# tweet_id = 2\n") == 2 for block in blocks)
    assert not any(block.count("# tweet_id = 1\n") == 2 for block in blocks)
    assert parses.rows == {str(i): i for i in range(8)}
    assert len(parses) == 8
    assert parses.forms == ["floods", "rise", "roads"]
    assert parses.edges.dtype == np.int32 and parses.edges.shape[1] == 2
    assert ((parses.edges >= 0) & (parses.edges < len(parses.forms))).all()
    offsets = parses.offsets
    assert offsets[0] == 0 and offsets[-1] == len(parses.edges) and len(offsets) == 9
    assert (np.diff(offsets) >= 0).all()
    edges = oracles.edges_from_parses(parses)
    assert [edges[str(i)] for i in range(3)] == [
        (("floods", "rise"),), (("floods", "rise"), ("roads", "rise")), ()]


@pytest.mark.parametrize("blank_lines", [True, False], ids=["blank_lines", "tweet_id_only"])
def test_load_parses_transient_memory_is_bounded_by_the_block(tmp_path, monkeypatch, blank_lines):
    """What the read uses beyond its result grows by under 25% from a
    4-block sidecar to a 16-block one, with or without blank lines between
    sentences. The words repeat: the read keeps one str per distinct edge
    word, which this measure counts."""
    monkeypatch.setattr(corpus, "PARSE_BLOCK_CHARS", 1 << 14)
    sizes = []
    for blocks in (4, 16):
        # About 40 of these sentences fill a block.
        path = _bulk_sidecar(tmp_path / f"{blocks}.conllu", sentences=40 * blocks,
                             vocabulary=50, blank_lines=blank_lines)
        assert path.stat().st_size > blocks * corpus.PARSE_BLOCK_CHARS
        held, peak = _traced_bytes(load_parses, path)
        sizes.append(peak - held)
    small, large = sizes
    assert large < 1.25 * small


def test_load_parses_does_no_per_line_python_work(tmp_path, monkeypatch):
    """Read in one block, 1,000 well-formed sentences take as many Python
    and C function calls (profile events) as 500, give or take one per 20
    sentences: numpy reads the lines, the sentences and their edges, not
    Python one at a time."""
    monkeypatch.setattr(corpus, "PARSE_BLOCK_CHARS", 1 << 20)
    # The first read makes one-time calls: it imports the file's codec.
    load_parses(_bulk_sidecar(tmp_path / "warm.conllu", sentences=10))
    calls = []
    for sentences in (500, 1000):
        path = _bulk_sidecar(tmp_path / f"{sentences}.conllu", sentences=sentences)
        assert path.stat().st_size < corpus.PARSE_BLOCK_CHARS
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event in ("call", "c_call")

        sys.setprofile(profile)
        try:
            parses = load_parses(path)
        finally:
            sys.setprofile(None)
        assert len(parses) == sentences
        calls.append(count)
    assert calls[1] - calls[0] < 500 / 20
