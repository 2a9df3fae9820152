import ast
import gc
import json
import random
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from subevents.corpus import (
    LabelMode,
    TokenCleaner,
    TweetTokens,
    load_parses,
    load_stopwords,
)
from subevents.errors import InputFormatError
from subevents.extract import (
    Candidate,
    CandidateKind,
    ExtractCounts,
    PhraseConfig,
    load_pos_lexicon,
    phrase_score,
    phrase_scores,
    read_candidates,
    reduction_percent,
    write_candidates,
)

STOPWORDS = load_stopwords()


def _parse(words):
    """The noun-verb edges ``load_parses`` keeps of a sentence given as
    (surface, upos, head) triples."""
    lines = [f"{i}\t{surface}\t_\t{upos}\t_\t_\t{head}\t_\t_\t_\n"
             for i, (surface, upos, head) in enumerate(words, start=1)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sentence.conllu"
        path.write_text("# tweet_id = s\n" + "".join(lines), encoding="utf-8")
        return oracles.edges_from_parses(load_parses(path))["s"]


def _nv_counts(counts):
    """The noun-verb pairs ``counts`` holds, all of them: (noun, verb) ->
    count, read off the candidates at min_freq 1."""
    return Counter({c.words: c.frequency for c in counts.candidates(min_freq=1).candidates
                    if c.kind is CandidateKind.NOUN_VERB_PAIR})


def _pairs(parse, text="", lexicon=None):
    """The distinct (noun, verb) pairs ``ExtractCounts.add_texts`` counts
    for one tweet, sorted."""
    parses = oracles.parses_from_edges({"t": parse}) if parse is not None else None
    counts = ExtractCounts(TokenCleaner(STOPWORDS), parses, lexicon)
    counts.add_texts([("t", text)])
    return sorted(_nv_counts(counts))


def _phrases(texts, cfg):
    """``ExtractCounts.phrases`` after counting the grams of each raw text."""
    counts = ExtractCounts(TokenCleaner(frozenset()))
    counts.add_texts(("", text) for text in texts)
    return counts.phrases(cfg)


def nv(first, second, freq=1):
    return Candidate(CandidateKind.NOUN_VERB_PAIR, first, second, frequency=freq)


def ph(first, second, freq=1):
    return Candidate(CandidateKind.PHRASE, first, second, frequency=freq)


class TestNvPairs:
    def test_sample_parse(self, fixtures_dir):
        tweets = TweetTokens([(fixtures_dir / "worked_corpus.jsonl", LabelMode.UNLABELED)],
                             STOPWORDS)
        key_id, text = next(tweets.texts())
        assert key_id == "w000"
        parses = load_parses(fixtures_dir / "worked_parses.conllu")
        parse = oracles.edges_from_parses(parses)[key_id]
        assert _pairs(parse, text) == [("water", "recedes"), ("waterborne", "recedes")]

    def test_noun_first_both_edge_directions(self):
        # floods(NOUN) <- destroyed(VERB) root, bridge(NOUN) -> destroyed:
        # dependent noun and dependent verb cases must both come out noun first.
        parse = _parse([
            ("floods", "NOUN", 2),
            ("destroyed", "VERB", 0),
            ("bridge", "NOUN", 2),
        ])
        assert _pairs(parse) == [("bridge", "destroyed"), ("floods", "destroyed")]

    def test_verb_with_noun_head(self):
        parse = _parse([
            ("bridge", "NOUN", 0),
            ("collapsed", "VERB", 1),
        ])
        assert _pairs(parse) == [("bridge", "collapsed")]

    def test_propn_counts_as_noun(self):
        # Headline case: both words are lowercased before cleaning.
        parse = _parse([
            ("Texas", "PROPN", 2),
            ("Floods", "VERB", 0),
        ])
        assert _pairs(parse) == [("texas", "floods")]

    def test_non_nv_edges_ignored(self):
        parse = _parse([
            ("quickly", "ADV", 2),
            ("rises", "VERB", 0),
            ("river", "NOUN", 4),
            ("deep", "ADJ", 2),
        ])
        assert _pairs(parse) == []

    def test_members_failing_token_rules_drop_pair(self):
        parse = _parse([
            ("it", "NOUN", 2),          # too short
            ("flooded", "VERB", 0),
            ("road66", "NOUN", 2),      # digit
            ("being", "NOUN", 2),       # stopword
            ("bridge", "NOUN", 2),      # survives
        ])
        assert _pairs(parse) == [("bridge", "flooded")]

    def test_requires_parse(self):
        # Without a parse and without a lexicon a tweet has no pair, however
        # its tokens read, and is counted as having neither source.
        counts = ExtractCounts(TokenCleaner(STOPWORDS))
        counts.add_texts([("t", "bridge collapsed")])
        assert not _nv_counts(counts)
        assert (counts.parsed, counts.fallback, counts.neither) == (0, 0, 1)


class TestFallback:
    LEXICON = load_pos_lexicon(Path(__file__).parent / "fixtures" / "pos_lexicon.txt")

    def test_window_four_reaches_farther_verb(self):
        assert _pairs(None, "house burning road blocked", self.LEXICON) == [
            ("house", "blocked"),
            ("house", "burning"),
            ("road", "blocked"),
        ]

    def test_noun_must_precede_verb(self):
        assert _pairs(None, "burning house", self.LEXICON) == []

    def test_dual_tag_word_pairs_both_ways(self):
        # "flood" is tagged NV in the fixture lexicon.
        pairs = _pairs(None, "flood blocked road flood", self.LEXICON)
        assert ("flood", "blocked") in pairs
        assert ("road", "flood") in pairs

    def test_unknown_words_ignored(self):
        pairs = _pairs(None, "zzzz house qqqq burning", self.LEXICON)
        assert pairs == [("house", "burning")]

    def test_custom_lexicon_file(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("# comment\nfoo\tN\nbar\tV\n", encoding="utf-8")
        lexicon = load_pos_lexicon(path)
        assert lexicon == {"foo": frozenset("N"), "bar": frozenset("V")}

    def test_malformed_lexicon_rejected(self, tmp_path):
        path = tmp_path / "lex.txt"
        path.write_text("foo\tX\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            load_pos_lexicon(path)
        path.write_text("no tab here\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            load_pos_lexicon(path)


class TestPhrases:
    def test_hand_counted_example(self):
        # unigrams: storm 3, surge 3, hits 1, calm 1, waters 1 -> V = 5
        # bigram (storm, surge) occurs 3 times, score (3-2)*5/(3*3) = 5/9.
        texts = ["storm surge storm surge", "storm surge hits", "calm waters"]
        phrases = _phrases(texts, PhraseConfig(min_count=2, threshold=0.5))
        assert len(phrases) == 1
        assert phrases[0].words == ("storm", "surge")
        assert phrases[0].frequency == 3
        assert phrases[0].kind is CandidateKind.PHRASE

    def test_threshold_is_strict(self):
        texts = ["storm surge storm surge", "storm surge hits", "calm waters"]
        exactly = 5.0 / 9.0
        assert _phrases(texts, PhraseConfig(2, exactly)) == []
        assert len(_phrases(texts, PhraseConfig(2, exactly - 1e-9))) == 1

    def test_min_count_gates_before_scoring(self):
        # (rare, pair) occurs once; even a huge score cannot rescue it.
        texts = ["rare pair", "rare", "pair"]
        assert _phrases(texts, PhraseConfig(min_count=2, threshold=0.0)) == []

    def test_count_equal_to_min_count_scores_zero(self):
        texts = ["aaa bbb", "aaa bbb"]
        assert _phrases(texts, PhraseConfig(min_count=2, threshold=0.0)) == []

    def test_tweet_order_independent(self):
        texts = ["storm surge storm surge", "storm surge hits", "calm waters",
                 "fire spreads fire spreads fire spreads"]
        forward = _phrases(texts, PhraseConfig(2, 0.1))
        backward = _phrases(texts[::-1], PhraseConfig(2, 0.1))
        assert forward == backward

    def test_no_cross_tweet_bigrams(self):
        assert _phrases(["aaa", "bbb", "aaa", "bbb"], PhraseConfig(1, 0.0)) == []

    def test_worked_corpus_score(self, fixtures_dir):
        tweets = TweetTokens([(fixtures_dir / "worked_corpus.jsonl", LabelMode.UNLABELED)],
                             STOPWORDS)
        counts = ExtractCounts(tweets.cleaner)
        counts.add_texts(tweets.texts())
        phrases = counts.phrases(PhraseConfig(min_count=2, threshold=10.0))
        assert [c.words for c in phrases] == [("waterborne", "diseases")]
        assert phrases[0].frequency == 6
        assert phrase_score(6, 6, 6, 111, 2) == pytest.approx(37.0 / 3.0, abs=1e-12)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PhraseConfig(min_count=0)
        with pytest.raises(ValueError):
            PhraseConfig(threshold=-1.0)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        # With NaN no score would pass ``score > threshold``: no phrase at all.
        with pytest.raises(ValueError, match="finite"):
            PhraseConfig(threshold=threshold)


class TestPhraseScore:
    def test_exact_fraction(self):
        assert phrase_score(6, 6, 6, 111, 2) == (6 - 2) * 111 / 36

    def test_linear_in_vocab_size(self):
        assert phrase_score(4, 2, 3, 200, 2) == 2 * phrase_score(4, 2, 3, 100, 2)

    def test_zero_at_min_count(self):
        assert phrase_score(3, 5, 7, 50, 3) == 0.0


@pytest.fixture(scope="module")
def pipeline_tweets(generated_fixtures):
    """(raw text, cleaned tokens, parse) of each tweet of the pipeline
    fixtures, the parse None for a tweet without one."""
    tweets = TweetTokens([
        (generated_fixtures / "pipeline_unlabeled.jsonl", LabelMode.UNLABELED),
        (generated_fixtures / "pipeline_labeled.jsonl", LabelMode.LABELED),
    ], STOPWORDS)
    parses = oracles.edges_from_parses(load_parses(generated_fixtures / "pipeline_parses.conllu"))
    return [(text, tweets.cleaner.tokens(text), parses.get(tweet_id))
            for tweet_id, text in tweets.texts()]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_count_nv_pairs_equals_per_tweet_aggregate(pipeline_tweets, data):
    """Folding ``ExtractCounts.add_texts`` over the pipeline fixtures gives
    the ``Counter`` of each tweet's ``oracles.reference_nv_pairs``, for a
    random tweet subset and a random lexicon over those tweets' own tokens
    (one over the whole fixture vocabulary seldom tags a noun and a verb
    within a window of a parsed tweet)."""
    tweets = data.draw(st.lists(st.sampled_from(pipeline_tweets), max_size=60))
    vocabulary = sorted({token for _, tokens, _ in tweets for token in tokens})
    lexicon = data.draw(st.none() | st.dictionaries(
        st.sampled_from(vocabulary) if vocabulary else st.nothing(),
        st.sampled_from([frozenset("N"), frozenset("V"), frozenset("NV")]),
    ))
    expected = Counter(
        pair for _, tokens, parse in tweets
        for pair in oracles.reference_nv_pairs(parse, tokens, lexicon, STOPWORDS)
    )
    parses = oracles.parses_from_edges(
        {str(i): parse for i, (_, _, parse) in enumerate(tweets) if parse is not None})
    counts = ExtractCounts(TokenCleaner(STOPWORDS), parses, lexicon)
    counts.add_texts((str(i), text) for i, (text, _, _) in enumerate(tweets))
    assert _nv_counts(counts) == expected
    parsed = sum(1 for _, _, parse in tweets if parse is not None)
    assert counts.parsed == parsed
    assert (counts.fallback, counts.neither) == (
        (len(tweets) - parsed, 0) if lexicon is not None else (0, len(tweets) - parsed)
    )


_IDS = ("a", "b", "c", "d", "e")
_WORDS = ("flood", "rise", "bridge", "gone", "water", "storm", "the", "#help", "@user", "x1")
_MALFORMED = ("not json", '{"id": 1, "text": "x"}', "[]", '{"id": "a"}')


@st.composite
def _jsonl_lines(draw, texts, labeled):
    """Lines of a corpus file: tweets whose ids repeat and whose texts come
    from a shared pool (so duplicates occur within and across files), blank
    lines, and malformed lines (an unknown label too, in a labeled file)."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(_MALFORMED)))
        elif kind == 1:
            lines.append("")
        else:
            obj = {"id": draw(st.sampled_from(_IDS)), "text": draw(st.sampled_from(texts))}
            if labeled:
                obj["label"] = draw(st.sampled_from(["informative", "uninformative", "maybe"]))
            lines.append(json.dumps(obj))
    return lines


@st.composite
def _sidecar(draw):
    """A CoNLL-U sidecar over the tweet ids (some missing, some repeated),
    each sentence a chain of tokens headed by its first."""
    lines = []
    for tweet_id in draw(st.lists(st.sampled_from(_IDS), max_size=6)):
        lines.append(f"# tweet_id = {tweet_id}")
        n = draw(st.integers(1, 4))
        for i in range(1, n + 1):
            form = draw(st.sampled_from(_WORDS)).capitalize()
            tag = draw(st.sampled_from(["NOUN", "PROPN", "VERB", "ADJ"]))
            lines.append(f"{i}\t{form}\t_\t{tag}\t_\t_\t{i - 1}\tdep\t_\t_")
        lines.append("")
    return lines


@st.composite
def _extract_inputs(draw):
    texts = draw(st.lists(
        st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join), min_size=1, max_size=6))
    return {
        "unlabeled": draw(st.none() | _jsonl_lines(texts, labeled=False)),
        "labeled": draw(st.none() | _jsonl_lines(texts, labeled=True)),
        "sidecar": draw(st.none() | _sidecar()),
        "lexicon": draw(st.none() | st.dictionaries(
            st.sampled_from(_WORDS), st.sampled_from([frozenset("N"), frozenset("V"),
                                                      frozenset("NV")]))),
        "dedupe": draw(st.booleans()),
        "phrase": PhraseConfig(draw(st.integers(1, 3)),
                               draw(st.sampled_from([0.0, 0.5, 2.0, 10.0]))),
        "min_freq": draw(st.integers(1, 3)),
    }


def _plain(result):
    """A CandidateSet as the rows and accounting ``oracles.reference_extract`` returns."""
    rows = [(c.kind.value, c.first, c.second, c.frequency) for c in result.candidates]
    return {**vars(result), "candidates": rows}


def _run_logged(caplog, fn):
    """fn()'s result, or the InputFormatError it raised, and its log records."""
    caplog.clear()
    with caplog.at_level("INFO", logger="subevents"):
        try:
            result = fn()
        except InputFormatError as exc:
            result = str(exc)
        records = [(rec.levelname, rec.getMessage()) for rec in caplog.records]
    caplog.clear()
    return result, records


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(inputs=_extract_inputs())
def test_fold_matches_whole_corpus_reference(inputs, tmp_path, caplog):
    """Folding the raw texts of the corpus files line by line gives the
    candidates, counts and log records of loading, deduping, preprocessing
    and counting whole corpora; only the parse file's records move ahead of
    the corpus ones. So it does with the id buffer folded once it holds
    more than 1 or 7 entries (or more than the distinct bigrams held), and
    with the parse file read in blocks of 16 or 1 characters, so that
    nearly every sentence, a repeated tweet id's first parse and its repeat
    among them, is a block of its own."""
    files = []
    for name, mode in (("unlabeled", LabelMode.UNLABELED), ("labeled", LabelMode.LABELED)):
        if inputs[name] is not None:
            path = tmp_path / f"{name}.jsonl"
            path.write_text("".join(line + "\n" for line in inputs[name]), encoding="utf-8")
            files.append((path, mode))
    parses_path = None
    if inputs["sidecar"] is not None:
        parses_path = tmp_path / "parses.conllu"
        parses_path.write_text("\n".join(inputs["sidecar"]), encoding="utf-8")
    lexicon, dedupe = inputs["lexicon"], inputs["dedupe"]

    def fold():
        parses = load_parses(parses_path) if parses_path is not None else None
        tweets = TweetTokens(files, STOPWORDS, dedupe)
        counts = ExtractCounts(tweets.cleaner, parses, lexicon)
        counts.add_texts(tweets.texts())
        got = {"tweets": counts.tweets, "skipped": tweets.skipped,
               "duplicates": tweets.duplicates, "parsed": counts.parsed,
               "fallback": counts.fallback, "neither": counts.neither}
        return _plain(counts.candidates(inputs["phrase"], inputs["min_freq"])), got

    def reference():
        return oracles.reference_extract(files, STOPWORDS, parses_path, lexicon, dedupe,
                                         inputs["phrase"], inputs["min_freq"])

    want, want_log = _run_logged(caplog, reference)
    got_runs = [_run_logged(caplog, fold)]
    for name, value in [("extract.FOLD_ENTRIES", 1), ("extract.FOLD_ENTRIES", 7),
                        ("corpus.PARSE_BLOCK_CHARS", 16), ("corpus.PARSE_BLOCK_CHARS", 1)]:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(f"subevents.{name}", value)
            got_runs.append(_run_logged(caplog, fold))
    for got, got_log in got_runs:
        assert got == want
        if isinstance(got, str) and parses_path is not None:
            # A mostly malformed corpus file stops the reference before it
            # reads the parse file, and the fold after.
            got_log = [r for r in got_log if str(parses_path) not in r[1]]
        assert sorted(got_log) == sorted(want_log)
        for path in [str(p) for p, _ in files] + [str(parses_path)]:
            assert [r for r in got_log if path in r[1]] == [r for r in want_log if path in r[1]]


_EDGES = st.lists(st.tuples(st.sampled_from(_WORDS).map(str.capitalize),
                            st.sampled_from(_WORDS)), max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(texts=st.lists(st.tuples(st.sampled_from(_IDS),
                                st.lists(st.sampled_from(_WORDS), max_size=6).map(" ".join)),
                      max_size=20),
       parses=st.dictionaries(st.sampled_from(_IDS), _EDGES),
       lexicon=st.none() | st.dictionaries(st.sampled_from(_WORDS), st.sampled_from(
           [frozenset("N"), frozenset("V"), frozenset("NV")])),
       fold_entries=st.sampled_from([1, 7, 4096]))
def test_add_texts_counts_each_tweet_in_one_source(texts, parses, lexicon, fold_entries):
    """A stream of raw tweets, some of their ids parsed, gives through
    ``add_texts`` the pairs of ``oracles.reference_nv_pairs``, and each
    tweet counts in exactly one source: ``tweets == parsed + fallback +
    neither``."""
    cleaner = TokenCleaner(STOPWORDS)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("subevents.extract.FOLD_ENTRIES", fold_entries)
        counts = ExtractCounts(cleaner, oracles.parses_from_edges(parses), lexicon)
        counts.add_texts(texts)
        sources = (counts.parsed, counts.fallback, counts.neither)
        pairs = _nv_counts(counts)
    assert counts.tweets == sum(sources) == len(texts)
    parsed = sum(tweet_id in parses for tweet_id, _ in texts)
    unparsed = len(texts) - parsed
    assert sources == ((parsed, unparsed, 0) if lexicon is not None else (parsed, 0, unparsed))
    assert pairs == Counter(
        pair for tweet_id, text in texts for pair in oracles.reference_nv_pairs(
            parses.get(tweet_id), cleaner.tokens(text), lexicon, STOPWORDS))


def test_oracles_take_only_readers_from_the_package():
    """``tests/oracles.py`` imports only the line reader, the token rule and
    the parse reader from ``subevents``, so the fold is checked against its
    own counting, filter and score."""
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("subevents"):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.startswith("subevents"))
    assert names == {"CorpusLines", "clean_token", "load_parses"}


def _fold_peak(path) -> int:
    """tracemalloc peak of folding one corpus file with a lexicon only."""
    lexicon = {"flood": frozenset("N"), "rise": frozenset("V")}
    gc.collect()
    tracemalloc.start()
    try:
        tweets = TweetTokens([(path, LabelMode.UNLABELED)], STOPWORDS)
        counts = ExtractCounts(tweets.cleaner, lexicon=lexicon)
        counts.add_texts(tweets.texts())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fold_memory_does_not_grow_with_tweets(tmp_path):
    """Doubling a corpus (the same texts again under new ids) leaves the
    fold's peak within 10%: it holds counts, not tweets."""
    vocab = [f"word{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(300)]
    texts = [" ".join(vocab[(7 * t + 13 * j) % len(vocab)] for j in range(12)) + " flood rise"
             for t in range(3000)]
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    once.write_text("".join(json.dumps({"id": f"a{i}", "text": text}) + "\n"
                            for i, text in enumerate(texts)), encoding="utf-8")
    twice.write_text("".join(json.dumps({"id": f"{p}{i}", "text": text}) + "\n"
                             for p in "ab" for i, text in enumerate(texts)), encoding="utf-8")
    assert _fold_peak(twice) <= 1.1 * _fold_peak(once)


def test_fold_holds_arrays_not_a_counter_per_bigram(tmp_path):
    """What the fold holds after a corpus of about 44k distinct bigrams:
    at most 40 bytes per distinct bigram (one key and one count of int64,
    the unfolded id buffer, the cleaner's word ids). Measured on CPython
    3.11, numpy 2.4: 23 bytes per bigram, and 118 for per-tweet
    ``Counter``s of str tuples."""
    rng = random.Random(7)
    vocab = [f"word{chr(97 + i % 26)}{chr(97 + i // 26 % 26)}{chr(97 + i // 676)}"
             for i in range(2000)]
    texts = [" ".join(rng.choice(vocab) for _ in range(12)) for _ in range(4000)]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps({"id": f"t{i}", "text": text}) + "\n"
                            for i, text in enumerate(texts)), encoding="utf-8")
    distinct = len({bigram for text in texts
                    for bigram in zip(text.split(), text.split()[1:])})
    gc.collect()
    tracemalloc.start()
    try:
        tweets = TweetTokens([(path, LabelMode.UNLABELED)], STOPWORDS)
        counts = ExtractCounts(tweets.cleaner)
        counts.add_texts(tweets.texts())
        del tweets
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert distinct > 40_000
    assert held <= 40 * distinct
    assert counts.tweets == len(texts)


_EXACT = 1 << 53


@pytest.mark.parametrize("count_ab, count_a, count_b, vocab_size, min_count", [
    (_EXACT, 1, 3, 1, 1),  # numerator 2**53 - 1
    (_EXACT + 1, 1, 3, 1, 1),  # numerator 2**53
    (_EXACT + 2, 1, 3, 1, 1),  # numerator 2**53 + 1
    (_EXACT + 4, 1, 7, 1, 1),  # numerator 2**53 + 3
    ((1 << 26) + 2, 1, 3, 1 << 27, 1),  # (2**26 + 1) * 2**27, above by V
    (5, 1, _EXACT - 1, 1, 2),  # denominator 2**53 - 1
    (5, 1, _EXACT + 1, 1, 2),  # denominator 2**53 + 1
    (9, (1 << 27) - 1, (1 << 27) - 1, 1, 2),  # denominator about 2**54
    (4, (1 << 26) - 1, (1 << 27) + 1, 1, 1),  # denominator 2**53 - 2**26 - 1
])
def test_phrase_scores_equal_python_int_scores(count_ab, count_a, count_b, vocab_size,
                                               min_count):
    """``phrase_scores`` on int64 arrays gives ``phrase_score``'s bits on
    Python ints just below, at and above 2**53, where float64 stops holding
    every integer."""
    scores = phrase_scores(*(np.array([x], np.int64) for x in (count_ab, count_a, count_b)),
                           vocab_size, min_count)
    want = phrase_score(count_ab, count_a, count_b, vocab_size, min_count)
    assert scores.dtype == np.float64
    assert float(scores[0]).hex() == want.hex()


def test_phrase_scores_past_two_to_53_differ_from_float_division():
    """Above 2**53 dividing the float64 operands rounds otherwise than
    Python ints do, so the rows past the bound take the int path."""
    rows = [(_EXACT + 2, 1, 3, 1, 1), (9, (1 << 27) - 1, (1 << 27) - 1, 1, 2)]
    for count_ab, count_a, count_b, vocab_size, min_count in rows:
        naive = float((count_ab - min_count) * vocab_size) / (float(count_a) * float(count_b))
        assert naive != phrase_score(count_ab, count_a, count_b, vocab_size, min_count)


def _candidates(pairs, texts=(), min_freq=2):
    """``ExtractCounts.candidates`` after counting a tweet whose parse has
    the given (noun, verb) edges and no text, and the grams of each raw
    text; a bigram counted twice or more is a phrase."""
    parses = oracles.parses_from_edges({"p": tuple(pairs)})
    counts = ExtractCounts(TokenCleaner(frozenset()), parses)
    counts.add_texts([("p", ""), *(("", text) for text in texts)])
    return counts.candidates(PhraseConfig(min_count=1, threshold=0.0), min_freq)


class TestAggregateAndFilter:
    def test_min_freq_boundary(self):
        result = _candidates(
            [("road", "blocked"), ("road", "blocked"), ("house", "burning")], min_freq=2)
        assert [c.words for c in result.candidates] == [("road", "blocked")]
        assert result.nv_before == 2
        assert result.nv_after == 1
        assert result.total == 1

    def test_phrases_not_refiltered(self):
        result = _candidates([], ["storm surge"] * 2, min_freq=5)
        assert result.candidates == (ph("storm", "surge", 2),)
        assert result.phrase_count == 1
        assert result.total == 1

    def test_union_counts_and_overlap_zero(self):
        result = _candidates([("road", "blocked")] * 2, ["road blocked"] * 2)
        assert result.candidates == (nv("road", "blocked", 2), ph("road", "blocked", 2))
        assert result.total == 2
        assert result.overlap == 0

    def test_output_sorted_by_identity(self):
        result = _candidates([("zebra", "runs"), ("apple", "falls")] * 2,
                             ["mid point", "able bodied"] * 2)
        identities = [(c.kind.value, c.first, c.second) for c in result.candidates]
        assert identities == [("nv", "apple", "falls"), ("nv", "zebra", "runs"),
                              ("phrase", "able", "bodied"), ("phrase", "mid", "point")]
        assert identities == sorted(identities)
        assert result.overlap == 0

    def test_reduction_percent(self):
        assert reduction_percent(100, 25) == 75.0
        assert reduction_percent(0, 0) == 0.0
        assert reduction_percent(7, 7) == 0.0


class TestCandidateCsv:
    def test_round_trip(self, tmp_path):
        cands = [nv("road", "blocked", 3), ph("storm", "surge", 7)]
        path = tmp_path / "c.csv"
        write_candidates(cands, path)
        assert read_candidates(path) == cands

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("wrong,header\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_candidates(path)

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("kind,first,second,frequency\nnv,road\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_candidates(path)
        path.write_text("kind,first,second,frequency\nbogus,a,b,1\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_candidates(path)
        path.write_text("kind,first,second,frequency\nnv,a,b,many\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_candidates(path)
