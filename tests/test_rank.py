import csv
import gc
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from subevents.cli import cmd_rank
from subevents.config import PipelineConfig
from subevents.corpus import TokenCleaner, load_stopwords
from subevents.embed import EmbeddingStore, compose, load_vectors
from subevents.errors import InputFormatError
from subevents.extract import Candidate, CandidateKind, write_candidates
from subevents.rank import (
    NULL_SCORE,
    compose_rows,
    load_ontology,
    rank_baseline_overlap,
    rank_candidates,
    read_ranked,
    read_terms,
    write_ranked,
)


def nv(first, second, freq=1):
    return Candidate(CandidateKind.NOUN_VERB_PAIR, first, second, frequency=freq)


def ph(first, second, freq=1):
    return Candidate(CandidateKind.PHRASE, first, second, frequency=freq)


STOPWORDS = load_stopwords()


def written_ranks(ranked):
    """The rank column `write_ranked` writes for `ranked`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ranked.csv"
        write_ranked(ranked, path)
        with open(path, newline="", encoding="utf-8") as fh:
            return [int(record[0]) for record in list(csv.reader(fh))[1:]]


def _store(vectors, dim):
    return EmbeddingStore(
        dim=dim, vectors={w: np.array(v, dtype=float) for w, v in vectors.items()}
    )


@pytest.fixture
def axis_store():
    # Words on coordinate axes so candidate/term cosines are hand-computable.
    return _store(
        {
            "north": [1.0, 0.0, 0.0],
            "east": [0.0, 1.0, 0.0],
            "upww": [0.0, 0.0, 1.0],
            "mixx": [1.0, 1.0, 0.0],
        },
        dim=3,
    )


class TestComposeRows:
    def test_rows_are_compose_values_and_mask_marks_nulls(self, axis_store):
        word_lists = [("north", "east"), ("absent",), ("upww",)]
        rows, null = compose_rows(word_lists, axis_store)
        assert rows.shape == (3, 3)
        assert null.tolist() == [False, True, False]
        for row, words in zip(rows, word_lists):
            assert np.array_equal(row, compose(words, axis_store).values)


class TestLoadOntology:
    def test_custom_file(self, tmp_path, axis_store):
        path = tmp_path / "terms.txt"
        path.write_text("# crisis terms\nNorth\n\neast mixx\n", encoding="utf-8")
        ontology = load_ontology(read_terms(path), axis_store)
        assert ontology.terms == ("north", "east mixx")
        assert ontology.usable_terms == ontology.terms
        assert ontology.matrix.shape == (2, 3)

    def test_multiword_term_composes(self, tmp_path, axis_store):
        path = tmp_path / "terms.txt"
        path.write_text("north east\n", encoding="utf-8")
        ontology = load_ontology(read_terms(path), axis_store)
        expected = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        assert np.allclose(ontology.matrix[0], expected)

    def test_empty_file_fatal(self, tmp_path, axis_store):
        path = tmp_path / "terms.txt"
        path.write_text("# only comments\n\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            load_ontology(read_terms(path), axis_store)

    def test_all_terms_oov_fatal(self, tmp_path, axis_store):
        path = tmp_path / "terms.txt"
        path.write_text("absent\nmissing\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            load_ontology(read_terms(path), axis_store)

    def test_partial_oov_terms_kept_but_unusable(self, tmp_path, axis_store):
        path = tmp_path / "terms.txt"
        path.write_text("north\nabsent\n", encoding="utf-8")
        ontology = load_ontology(read_terms(path), axis_store)
        assert len(ontology) == 2
        assert ontology.usable_terms == ("north",)
        assert np.array_equal(ontology.matrix, [[1.0, 0.0, 0.0]])

    def test_bundled_list_loads(self, fixtures_dir):
        store = load_vectors(fixtures_dir / "worked_vectors.txt")
        ontology = load_ontology(read_terms(None), store)
        # The bundled crisis vocabulary is substantial and contains the
        # terms the worked fixtures embed.
        assert len(ontology) >= 60
        assert "infectious disease" in ontology.terms


class TestRankCandidates:
    def _ontology(self, tmp_path, store, lines):
        path = tmp_path / "terms.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_ontology(read_terms(path), store)

    def test_max_cosine_and_best_term(self, tmp_path, axis_store):
        ontology = self._ontology(tmp_path, axis_store, ["north", "east"])
        ranked = rank_candidates([nv("mixx", "upww")], ontology, axis_store)
        # mixx + upww = (1, 1, 1)/sqrt(3); cosine with each axis term is
        # 1/sqrt(3); the tie picks the first term listed.
        assert ranked[0].score == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)
        assert ranked[0].best_term == "north"

    def test_scores_order_ranking(self, tmp_path, axis_store):
        ontology = self._ontology(tmp_path, axis_store, ["north"])
        ranked = rank_candidates(
            [nv("east", "east"), nv("north", "north"), nv("north", "east")],
            ontology,
            axis_store,
        )
        assert [rc.candidate.words for rc in ranked] == [
            ("north", "north"),
            ("north", "east"),
            ("east", "east"),
        ]
        assert written_ranks(ranked) == [1, 2, 3]
        assert ranked[0].score == pytest.approx(1.0, abs=1e-12)
        assert ranked[1].score == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
        assert ranked[2].score == pytest.approx(0.0, abs=1e-12)

    def test_tie_break_frequency_then_lexicographic(self, tmp_path, axis_store):
        ontology = self._ontology(tmp_path, axis_store, ["north"])
        ranked = rank_candidates(
            [
                nv("north", "north", freq=2),
                nv("north", "north", freq=9),
                ph("north", "north", freq=9),
            ],
            ontology,
            axis_store,
        )
        # Same score 1.0: frequency 9 beats 2; within frequency 9 the
        # noun-verb kind string "nv" sorts before "phrase".
        assert [(rc.candidate.frequency, rc.candidate.kind.value) for rc in ranked] == [
            (9, "nv"), (9, "phrase"), (2, "nv"),
        ]

    def test_null_candidates_sink_with_sentinel(self, tmp_path, axis_store):
        ontology = self._ontology(tmp_path, axis_store, ["north"])
        ranked = rank_candidates(
            [nv("absent", "missing"), nv("east", "east")], ontology, axis_store
        )
        assert ranked[0].candidate.words == ("east", "east")
        assert ranked[1].score == NULL_SCORE
        assert ranked[1].best_term is None
        assert written_ranks(ranked) == [1, 2]

    def test_null_terms_excluded_from_max(self, tmp_path, axis_store):
        ontology = self._ontology(tmp_path, axis_store, ["absent", "north"])
        ranked = rank_candidates([nv("north", "north")], ontology, axis_store)
        assert ranked[0].best_term == "north"
        assert ranked[0].score == pytest.approx(1.0, abs=1e-12)

    def test_negative_cosines_preserved(self, tmp_path):
        store = _store({"neg": [-1.0, 0.0], "pos": [1.0, 0.0]}, dim=2)
        path = tmp_path / "terms.txt"
        path.write_text("pos\n", encoding="utf-8")
        ontology = load_ontology(read_terms(path), store)
        ranked = rank_candidates([nv("neg", "neg")], ontology, store)
        assert ranked[0].score == pytest.approx(-1.0, abs=1e-12)


class TestBaselineOverlap:
    def _corpus(self):
        return [
            ("1", "road blocked tree"),
            ("2", "road blocked"),
            ("3", "road clear"),
            ("4", "tree fell"),
        ]

    def _rank(self, candidates, corpus=None):
        """The baseline over `corpus` (``_corpus`` by default) read by a
        fresh cleaner."""
        corpus = self._corpus() if corpus is None else corpus
        return rank_baseline_overlap(candidates, corpus, TokenCleaner(STOPWORDS))

    def test_hand_counted_overlap(self):
        # road in {1,2,3}, blocked in {1,2}: overlap 2 / min(3,2) = 1.0,
        # discounted by log(1+2).
        ranked = self._rank([nv("road", "blocked")])
        assert ranked[0].score == pytest.approx(math.log(3.0), abs=1e-12)
        assert ranked[0].best_term is None

    def test_partial_overlap(self):
        # tree in {1,4}, road in {1,2,3}: overlap 1 / min(2,3) = 0.5,
        # discounted by log(1+1).
        ranked = self._rank([nv("tree", "road")])
        assert ranked[0].score == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_unknown_word_scores_zero(self):
        ranked = self._rank([nv("road", "absent")])
        assert ranked[0].score == 0.0

    def test_duplicate_tokens_in_tweet_count_once(self):
        ranked = self._rank([nv("fire", "spreads")], [("1", "fire fire spreads"), ("2", "fire")])
        # fire in {1,2}, spreads in {1}: 1 / min(2,1) = 1.0, times log(1+1).
        assert ranked[0].score == pytest.approx(math.log(2.0), abs=1e-12)

    def test_repeated_tweet_id_counts_once(self):
        corpus = [("1", "fire spreads"), ("1", "fire"), ("2", "spreads")]
        ranked = self._rank([nv("fire", "spreads")], corpus)
        # fire in {1}, spreads in {1,2}: 1 / min(1,2) = 1.0, times log(1+1).
        assert ranked[0].score == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ordering_matches_scores(self):
        ranked = self._rank([nv("tree", "road"), nv("road", "blocked"), nv("road", "absent")])
        scores = [rc.score for rc in ranked]
        assert scores == sorted(scores, reverse=True)
        assert written_ranks(ranked) == [1, 2, 3]


# Raw tokens in mixed case and with edge punctuation, repeated across
# tweets, and tokens preprocessing removes (stopwords, hashtags, mentions,
# digits, short tokens).
_RAW_TOKENS = st.sampled_from([
    "fire", "Fire", "FIRE!", "(fire)", "road", "Road,", "“road”", "spreads", "spreads...",
    "the", "The", "and", "#fire", "@road", "x1", "ab", "",
])
# Candidate words: words the texts hold, a word they never hold, and
# stopwords, whose tweets must not be those of the removed tokens.
_CANDIDATE_WORDS = st.sampled_from(["fire", "road", "spreads", "absent", "the", "and"])


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.tuples(st.sampled_from("123"),
                                st.lists(_RAW_TOKENS, max_size=6).map(" ".join)), max_size=8),
       candidates=st.lists(st.builds(Candidate, st.sampled_from(CandidateKind), _CANDIDATE_WORDS,
                                     _CANDIDATE_WORDS, st.integers(1, 3)), max_size=6))
@example(texts=[("1", "the fire"), ("2", "#fire and")], candidates=[nv("the", "fire")])
def test_baseline_equals_reference_overlap(texts, candidates):
    """The baseline on word ids gives ``oracles.reference_overlap``'s order
    and scores, bit for bit, on str tokens."""
    ranked = rank_baseline_overlap(candidates, texts, TokenCleaner(STOPWORDS))
    want = oracles.reference_overlap(
        [(c.kind.value, c.first, c.second, c.frequency) for c in candidates], texts, STOPWORDS)
    assert [(rc.candidate.kind.value, *rc.candidate.words, rc.candidate.frequency, rc.score)
            for rc in ranked] == want
    assert written_ranks(ranked) == list(range(1, len(candidates) + 1))


def _baseline_peak(corpus, out) -> int:
    """tracemalloc peak of a baseline ``rank`` of one candidate over one
    corpus file."""
    cfg = PipelineConfig()
    cfg.paths.corpus_unlabeled = str(corpus)
    cfg.rank.method = "baseline"
    out.mkdir()
    write_candidates([nv("flood", "rise", 2)], out / "candidates.csv")
    gc.collect()
    tracemalloc.start()
    try:
        cmd_rank(cfg, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_baseline_memory_does_not_grow_with_tweets_without_candidate_words(tmp_path):
    """Doubling the tweets that hold no candidate word (the same texts
    again under new ids) leaves the baseline's peak within 10%: it keeps
    the tweet ids of candidate words, not the tweets."""
    vocab = [f"word{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(300)]
    background = [" ".join(vocab[(7 * t + 13 * j) % len(vocab)] for j in range(12))
                  for t in range(3000)]
    lines = [json.dumps({"id": f"c{i}", "text": f"flood rise {vocab[i]}"}) for i in range(300)]
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    once.write_text("".join(line + "\n" for line in lines + [
        json.dumps({"id": f"a{i}", "text": text}) for i, text in enumerate(background)]),
        encoding="utf-8")
    twice.write_text("".join(line + "\n" for line in lines + [
        json.dumps({"id": f"{p}{i}", "text": text})
        for p in "ab" for i, text in enumerate(background)]), encoding="utf-8")
    once_peak = _baseline_peak(once, tmp_path / "once")  # first: it pays any first-call set-up
    assert _baseline_peak(twice, tmp_path / "twice") <= 1.1 * once_peak


class TestRankedCsv:
    def _ranked(self, axis_store, tmp_path):
        path = tmp_path / "terms.txt"
        path.write_text("north\n", encoding="utf-8")
        ontology = load_ontology(read_terms(path), axis_store)
        return rank_candidates(
            [nv("north", "east", 4), nv("absent", "missing")], ontology, axis_store
        )

    def test_round_trip_exact(self, axis_store, tmp_path):
        ranked = self._ranked(axis_store, tmp_path)
        path = tmp_path / "ranked.csv"
        write_ranked(ranked, path)
        back = read_ranked(path)
        assert back == ranked

    def test_bytes_stable(self, axis_store, tmp_path):
        ranked = self._ranked(axis_store, tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_ranked(ranked, a)
        write_ranked(ranked, b)
        assert a.read_bytes() == b.read_bytes()

    def test_null_best_term_serialized_empty(self, axis_store, tmp_path):
        ranked = self._ranked(axis_store, tmp_path)
        path = tmp_path / "ranked.csv"
        write_ranked(ranked, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-1].endswith(",")  # empty best_term column

    def test_header_and_rows_validated(self, tmp_path):
        path = tmp_path / "ranked.csv"
        path.write_text("nope\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_ranked(path)
        header = "rank,kind,first,second,frequency,score,best_term"
        path.write_text(header + "\n1,nv,a,b\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_ranked(path)
        path.write_text(header + "\none,nv,a,b,1,0.5,\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_ranked(path)
