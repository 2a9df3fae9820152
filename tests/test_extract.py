import gc
import json
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from subevents.corpus import (
    LabelMode,
    TokenCleaner,
    TweetTokens,
    _nv_edges,
    load_parses,
    load_stopwords,
)
from subevents.errors import InputFormatError
from subevents.extract import (
    Candidate,
    CandidateKind,
    ExtractCounts,
    PhraseConfig,
    aggregate,
    filter_candidates,
    load_pos_lexicon,
    phrase_score,
    read_candidates,
    reduction_percent,
    write_candidates,
)

STOPWORDS = load_stopwords()


def _parse(words):
    """The noun-verb edges ``load_parses`` keeps of a sentence given as
    (surface, upos, head) triples."""
    forms, upos, heads = zip(*words)
    return tuple(_nv_edges(forms, upos, heads))


def _pairs(parse, tokens=(), lexicon=None):
    """The (noun, verb) pairs ``ExtractCounts.count_nv`` counts for one
    tweet, in the order first counted."""
    counts = ExtractCounts(TokenCleaner(STOPWORDS), lexicon=lexicon)
    counts.count_nv(parse, tokens)
    return list(counts.pairs)


def _phrases(token_lists, cfg):
    """``ExtractCounts.phrases`` after counting the grams of each token list."""
    counts = ExtractCounts(TokenCleaner(frozenset()))
    for tokens in token_lists:
        counts.count_grams(tokens)
    return counts.phrases(cfg)


def nv(first, second, freq=1):
    return Candidate(CandidateKind.NOUN_VERB_PAIR, first, second, frequency=freq)


def ph(first, second, freq=1):
    return Candidate(CandidateKind.PHRASE, first, second, frequency=freq)


class TestNvPairs:
    def test_sample_parse(self, fixtures_dir):
        tweets = TweetTokens([(fixtures_dir / "worked_corpus.jsonl", LabelMode.UNLABELED)],
                             STOPWORDS)
        key_id, tokens = next(iter(tweets))
        assert key_id == "w000"
        parse = load_parses(fixtures_dir / "worked_parses.conllu")[key_id]
        assert _pairs(parse, tokens) == [("waterborne", "recedes"), ("water", "recedes")]

    def test_noun_first_both_edge_directions(self):
        # floods(NOUN) <- destroyed(VERB) root, bridge(NOUN) -> destroyed:
        # dependent noun and dependent verb cases must both come out noun first.
        parse = _parse([
            ("floods", "NOUN", 2),
            ("destroyed", "VERB", 0),
            ("bridge", "NOUN", 2),
        ])
        assert _pairs(parse) == [("floods", "destroyed"), ("bridge", "destroyed")]

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
        counts.count_nv(None, ["bridge", "collapsed"])
        assert not counts.pairs
        assert (counts.parsed, counts.fallback, counts.neither) == (0, 0, 1)


class TestFallback:
    LEXICON = load_pos_lexicon()

    def test_window_four_reaches_farther_verb(self):
        tokens = ["house", "burning", "road", "blocked"]
        assert _pairs(None, tokens, self.LEXICON) == [
            ("house", "burning"),
            ("house", "blocked"),
            ("road", "blocked"),
        ]

    def test_noun_must_precede_verb(self):
        assert _pairs(None, ["burning", "house"], self.LEXICON) == []

    def test_dual_tag_word_pairs_both_ways(self):
        # "flood" is tagged NV in the bundled lexicon.
        pairs = _pairs(None, ["flood", "blocked", "road", "flood"], self.LEXICON)
        assert ("flood", "blocked") in pairs
        assert ("road", "flood") in pairs

    def test_unknown_words_ignored(self):
        pairs = _pairs(None, ["zzzz", "house", "qqqq", "burning"], self.LEXICON)
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
        token_lists = [
            ["storm", "surge", "storm", "surge"],
            ["storm", "surge", "hits"],
            ["calm", "waters"],
        ]
        phrases = _phrases(token_lists, PhraseConfig(min_count=2, threshold=0.5))
        assert len(phrases) == 1
        assert phrases[0].words == ("storm", "surge")
        assert phrases[0].frequency == 3
        assert phrases[0].kind is CandidateKind.PHRASE

    def test_threshold_is_strict(self):
        token_lists = [
            ["storm", "surge", "storm", "surge"],
            ["storm", "surge", "hits"],
            ["calm", "waters"],
        ]
        exactly = 5.0 / 9.0
        assert _phrases(token_lists, PhraseConfig(2, exactly)) == []
        assert len(_phrases(token_lists, PhraseConfig(2, exactly - 1e-9))) == 1

    def test_min_count_gates_before_scoring(self):
        # (rare, pair) occurs once; even a huge score cannot rescue it.
        token_lists = [["rare", "pair"], ["rare"], ["pair"]]
        assert _phrases(token_lists, PhraseConfig(min_count=2, threshold=0.0)) == []

    def test_count_equal_to_min_count_scores_zero(self):
        token_lists = [["aaa", "bbb"], ["aaa", "bbb"]]
        assert _phrases(token_lists, PhraseConfig(min_count=2, threshold=0.0)) == []

    def test_tweet_order_independent(self):
        lists = [
            ["storm", "surge", "storm", "surge"],
            ["storm", "surge", "hits"],
            ["calm", "waters"],
            ["fire", "spreads", "fire", "spreads", "fire", "spreads"],
        ]
        forward = _phrases(lists, PhraseConfig(2, 0.1))
        backward = _phrases(lists[::-1], PhraseConfig(2, 0.1))
        assert forward == backward

    def test_no_cross_tweet_bigrams(self):
        assert _phrases([["aaa"], ["bbb"], ["aaa"], ["bbb"]], PhraseConfig(1, 0.0)) == []

    def test_worked_corpus_score(self, fixtures_dir):
        tweets = TweetTokens([(fixtures_dir / "worked_corpus.jsonl", LabelMode.UNLABELED)],
                             STOPWORDS)
        phrases = _phrases((tokens for _, tokens in tweets),
                           PhraseConfig(min_count=2, threshold=10.0))
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
    """(tokens, parse) of each tweet of the pipeline fixtures, the parse
    None for a tweet without one."""
    tweets = TweetTokens([
        (generated_fixtures / "pipeline_unlabeled.jsonl", LabelMode.UNLABELED),
        (generated_fixtures / "pipeline_labeled.jsonl", LabelMode.LABELED),
    ], STOPWORDS)
    parses = load_parses(generated_fixtures / "pipeline_parses.conllu")
    return [(tokens, parses.get(tweet_id)) for tweet_id, tokens in tweets]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_count_nv_pairs_equals_per_tweet_aggregate(pipeline_tweets, data):
    """Folding ``ExtractCounts.count_nv`` over the pipeline fixtures gives
    what aggregating each tweet's ``oracles.reference_nv_pairs`` gives, for
    a random tweet subset and a random lexicon over the fixture vocabulary."""
    tweets = data.draw(st.lists(st.sampled_from(pipeline_tweets), max_size=60))
    vocabulary = sorted({token for tokens, _ in pipeline_tweets for token in tokens})
    lexicon = data.draw(st.none() | st.dictionaries(
        st.sampled_from(vocabulary),
        st.sampled_from([frozenset("N"), frozenset("V"), frozenset("NV")]),
    ))
    expected = [
        nv(noun, verb) for tokens, parse in tweets
        for noun, verb in oracles.reference_nv_pairs(parse, tokens, lexicon, STOPWORDS)
    ]
    counts = ExtractCounts(TokenCleaner(STOPWORDS), lexicon=lexicon)
    for tokens, parse in tweets:
        counts.count_nv(parse, tokens)
    assert [nv(noun, verb, freq) for (noun, verb), freq in sorted(counts.pairs.items())] == (
        aggregate(expected))
    assert sum(counts.pairs.values()) == len(expected)
    parsed = sum(1 for _, parse in tweets if parse is not None)
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
    """Folding the corpus files line by line gives the candidates, counts
    and log records of loading, deduping, preprocessing and counting whole
    corpora; only the parse file's records move ahead of the corpus ones."""
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
        for tweet_id, tokens in tweets:
            counts.add(tweet_id, tokens)
        got = {"tweets": counts.tweets, "skipped": tweets.skipped,
               "duplicates": tweets.duplicates, "parsed": counts.parsed,
               "fallback": counts.fallback, "neither": counts.neither}
        return counts.candidates(inputs["phrase"], inputs["min_freq"]), got

    def reference():
        return oracles.reference_extract(files, STOPWORDS, parses_path, lexicon, dedupe,
                                         inputs["phrase"], inputs["min_freq"])

    got, got_log = _run_logged(caplog, fold)
    want, want_log = _run_logged(caplog, reference)
    assert got == want
    if isinstance(got, str) and parses_path is not None:
        # A mostly malformed corpus file stops the reference before it reads
        # the parse file, and the fold after.
        got_log = [r for r in got_log if str(parses_path) not in r[1]]
    assert sorted(got_log) == sorted(want_log)
    for path in [str(p) for p, _ in files] + [str(parses_path)]:
        assert [r for r in got_log if path in r[1]] == [r for r in want_log if path in r[1]]


def _fold_peak(path) -> int:
    """tracemalloc peak of folding one corpus file with a lexicon only."""
    lexicon = {"flood": frozenset("N"), "rise": frozenset("V")}
    gc.collect()
    tracemalloc.start()
    try:
        tweets = TweetTokens([(path, LabelMode.UNLABELED)], STOPWORDS)
        counts = ExtractCounts(tweets.cleaner, lexicon=lexicon)
        for tweet_id, tokens in tweets:
            counts.add(tweet_id, tokens)
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


class TestAggregateAndFilter:
    def test_aggregate_sums_by_identity(self):
        merged = aggregate([nv("road", "blocked"), nv("road", "blocked"), nv("house", "burning")])
        assert merged == [nv("house", "burning", 1), nv("road", "blocked", 2)]

    def test_aggregate_separates_kinds(self):
        merged = aggregate([nv("storm", "surge"), ph("storm", "surge", 3)])
        assert len(merged) == 2

    def test_min_freq_boundary(self):
        result = filter_candidates(
            [nv("road", "blocked"), nv("road", "blocked"), nv("house", "burning")],
            [],
            min_freq=2,
        )
        assert [c.words for c in result.candidates] == [("road", "blocked")]
        assert result.nv_before == 2
        assert result.nv_after == 1
        assert result.total == 1

    def test_phrases_not_refiltered(self):
        result = filter_candidates([], [ph("storm", "surge", 1)], min_freq=5)
        assert result.phrase_count == 1
        assert result.total == 1

    def test_union_counts_and_overlap_zero(self):
        result = filter_candidates(
            [nv("road", "blocked", 2)],
            [ph("road", "blocked", 4)],
            min_freq=2,
        )
        assert result.total == 2
        assert result.overlap == 0

    def test_overlap_counts_identity_collisions(self):
        # The same phrase identity arriving through both inputs collapses
        # in the union and is reported.
        result = filter_candidates(
            [ph("storm", "surge", 5)],
            [ph("storm", "surge", 2)],
            min_freq=2,
        )
        assert result.total == 1
        assert result.overlap == 1

    def test_output_sorted_by_identity(self):
        result = filter_candidates(
            [nv("zebra", "runs", 2), nv("apple", "falls", 2)],
            [ph("mid", "point", 2)],
        )
        identities = [c.identity for c in result.candidates]
        assert identities == sorted(identities)

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
