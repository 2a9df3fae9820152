import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles

from subevents.corpus import (
    CorpusLines,
    Label,
    LabelMode,
    TokenCleaner,
    TweetTokens,
    clean_token,
    load_parses,
    load_stopwords,
    validate_heads,
)
from subevents.errors import InputFormatError
from subevents.extract import ExtractCounts

STOPWORDS = load_stopwords()


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")


def _read(path, label_mode=LabelMode.UNLABELED):
    """The (id, raw_text, label) records ``CorpusLines`` yields for a file,
    and its count of malformed lines."""
    lines = CorpusLines(path, label_mode)
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
        tweets = TweetTokens([(path, LabelMode.UNLABELED)], STOPWORDS)
        assert list(tweets) == [("t", [])]
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


@given(texts=st.lists(_TEXT, max_size=8))
@settings(max_examples=200, deadline=None)
def test_shared_cleaner_equals_per_tweet_cleaner(texts):
    """One ``TokenCleaner`` over many texts, reusing what it cached, gives
    each text the tokens a fresh one does."""
    shared = TokenCleaner(STOPWORDS)
    assert [shared.tokens(text) for text in texts] == [
        TokenCleaner(STOPWORDS).tokens(text) for text in texts]


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
        tweets = TweetTokens(self._files(tmp_path), STOPWORDS, dedupe=True)
        for _ in range(2):  # each read recounts
            assert list(tweets) == [
                ("1", ["flood", "waters", "rise"]), ("2", ["bridge", "gone"]), ("5", ["roads"])]
            assert (tweets.skipped, tweets.duplicates) == (2, 2)

    def test_without_dedupe_keeps_every_tweet_in_file_order(self, tmp_path):
        tweets = TweetTokens(self._files(tmp_path), STOPWORDS)
        assert [tweet_id for tweet_id, _ in tweets] == ["1", "2", "3", "4", "5"]
        assert (tweets.skipped, tweets.duplicates) == (2, 0)


class TestCorpusOps:
    def test_concat_preserves_order_and_skips(self, tmp_path):
        # TweetTokens reads its files one after the other: tweets in file
        # order, malformed lines summed over the files.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _write_lines(a, [json.dumps({"id": "1", "text": "x"}), "bad", "bad",
                         json.dumps({"id": "3", "text": "z"})])
        _write_lines(b, [json.dumps({"id": "2", "text": "y"}), "bad",
                         json.dumps({"id": "4", "text": "w"})])
        tweets = TweetTokens([(a, LabelMode.UNLABELED), (b, LabelMode.UNLABELED)], STOPWORDS)
        assert [tweet_id for tweet_id, _ in tweets] == ["1", "3", "2", "4"]
        assert tweets.skipped == 3


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
        assert load_parses(path) == {"a": (("floods", "rise"),), "b": ()}

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = self._write(tmp_path, (
            "\ufeff# tweet_id = a\n"
            "1\tfloods\tflood\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
            "2\trise\trise\tVERB\t_\t_\t0\troot\t_\t_\n"
            "\n"
            "# tweet_id = b\n"
            "1\tcalm\tcalm\tADJ\t_\t_\t0\troot\t_\t_\n"
        ))
        parses = load_parses(path)
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
        parses = load_parses(path)
        assert parses["a"] == (("can", "go"),)

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
        assert set(parses) == {"good"}
        assert any("bad" in rec.message for rec in caplog.records)

    def test_sentence_without_tweet_id_ignored(self, tmp_path):
        path = self._write(tmp_path, (
            "# sent_id = 1\n"
            "1\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n"
        ))
        assert load_parses(path) == {}

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
        assert list(parses) == ["a"]
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
            parses = load_parses(path)
        assert set(parses) == {"a", "b"}
        assert parses["a"] == (("floods", "rise"),)
        assert parses["b"] == ()
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
            parses = load_parses(path)
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
        counts.add("1", ["aaa"])
        assert (counts.parsed, counts.neither) == (0, 1)
        counts.add("2", ["bbb"])
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
            parses = load_parses(path)
        except InputFormatError:
            with pytest.raises(UnicodeDecodeError):
                oracles.reference_load_parses(path)
            return
        assert parses == _reference_edges(path)


def _reference_edges(path):
    parses = oracles.reference_load_parses(path)
    return {tweet_id: oracles.reference_nv_edges(nodes) for tweet_id, nodes in parses.items()}


_TAGS = ("NOUN", "PROPN", "VERB", "ADJ", "X")


@st.composite
def _sentences(draw):
    """Lines of one CoNLL-U sentence: an optional tweet_id comment (ids
    repeat across sentences) and 1-6 token lines forming a tree. Now and
    then a head is replaced by any integer or a non-integer, or a token id
    is off, so cycles, several roots, out-of-range heads, id gaps and
    unparseable lines occur, as do ranged and dotted ids."""
    lines = []
    if draw(st.integers(0, 7)):
        lines.append(f"# tweet_id = {draw(st.sampled_from('abcd'))}")
    if draw(st.integers(0, 3)) == 0:
        lines.append("# text = flood rising")
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(1, n + 1)))
    heads = {order[0]: "0"}
    for k in range(1, n):
        heads[order[k]] = str(order[draw(st.integers(0, k - 1))])
    if draw(st.integers(0, 5)) == 0:
        heads[draw(st.integers(1, n))] = draw(st.sampled_from(
            [str(h) for h in range(-1, n + 2)] + ["_", "1.5", " 2 "]))
    for i in range(1, n + 1):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from([f"{i}-{i + 1}", f"{i}.1"])) + "\tx\t_\t_\t_\t_\t_")
        token_id = str(i) if draw(st.integers(0, 24)) else draw(st.sampled_from([str(i + 1), "x"]))
        form = draw(st.sampled_from(["floods", "rise", "Bridge", "gone", "x y"]))
        tag = draw(st.sampled_from(_TAGS))
        lines.append("\t".join([token_id, form, "_", tag, "_", "_", heads[i], "dep", "_", "_"]))
    return lines


@st.composite
def _sidecars(draw):
    """Sentences separated by a blank line or by nothing (the next
    tweet_id comment then ends a sentence), with LF or CRLF line ends."""
    parts = []
    for lines in draw(st.lists(_sentences(), max_size=6)):
        parts.extend(lines)
        if draw(st.integers(0, 3)):
            parts.append("")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(parts).encode("utf-8")


# caplog is cleared before each example, so sharing it across examples is safe.
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_sidecars())
def test_load_parses_matches_node_reference(data, reader_dir, caplog):
    """The column reader keeps the ids, edges and log records, in order, of
    the node-based reader it replaced."""
    path = reader_dir / "sidecar.conllu"
    path.write_bytes(data)
    caplog.clear()
    with caplog.at_level("INFO"):
        parses = load_parses(path)
        got = [(rec.levelname, rec.getMessage()) for rec in caplog.records]
        caplog.clear()
        expected = _reference_edges(path)
        want = [(rec.levelname, rec.getMessage()) for rec in caplog.records]
    assert list(parses) == list(expected)
    assert parses == expected
    assert got == want


def _retained_bytes(load, path):
    """Bytes still allocated (tracemalloc) while the result of load(path) is held."""
    gc.collect()
    tracemalloc.start()
    try:
        result = load(path)  # noqa: F841  (held while measured)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_load_parses_retains_a_fraction_of_the_tree_reader(tmp_path):
    """Keeping only noun-verb edges holds under a third of what one node
    per token held, on 2,000 fifteen-token sentences."""
    tags = ["NOUN", "VERB", "ADV", "ADJ", "PROPN"]
    lines = []
    for s in range(2000):
        lines.append(f"# tweet_id = t{s:05d}")
        for i in range(1, 16):
            head = 0 if i == 2 else 2
            lines.append(f"{i}\tw{s}x{i}\t_\t{tags[(s + i) % 5]}\t_\t_\t{head}\tdep\t_\t_")
        lines.append("")
    path = tmp_path / "bulk.conllu"
    path.write_text("\n".join(lines), encoding="utf-8")
    assert len(load_parses(path)) == 2000
    assert 3 * _retained_bytes(load_parses, path) < _retained_bytes(
        oracles.reference_load_parses, path
    )
