import gc
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from subevents.cli import cmd_evaluate
from subevents.config import PipelineConfig
from subevents.corpus import Label
from subevents.errors import InputFormatError
from subevents.evaluate import (
    MetricsPoint,
    evaluate_labeled,
    read_metrics,
    roc_points,
    write_metrics,
)
from subevents.extract import Candidate, CandidateKind
from subevents.rank import RankedCandidate, write_ranked


def nv(first, second):
    return Candidate(CandidateKind.NOUN_VERB_PAIR, first, second, 2)


def ph(first, second):
    return Candidate(CandidateKind.PHRASE, first, second, 2)


def ranked_list(candidates):
    return [
        RankedCandidate(candidate=c, score=1.0 - 0.01 * i, best_term=None, rank=i + 1)
        for i, c in enumerate(candidates)
    ]


def one_tweet_matches(tokens, candidate):
    """Whether the candidate, ranked alone, identifies one informative
    tweet at k = 1, checked against the direct-scan oracle; an empty
    uninformative tweet makes the labels valid."""
    labeled = [(Label.INFORMATIVE, tokens), (Label.UNINFORMATIVE, [])]
    (point,) = evaluate_labeled(ranked_list([candidate]), labeled, [1])
    assert point.tp == oracles.tweet_matches(tokens, candidate.kind.value, candidate.first,
                                             candidate.second)
    return point.tp == 1


class TestTweetMatches:
    def test_nv_unordered_containment(self):
        t = ["blocked", "tree", "road"]
        assert one_tweet_matches(t, nv("road", "blocked"))
        assert one_tweet_matches(t, nv("blocked", "road"))
        assert not one_tweet_matches(t, nv("road", "closed"))

    def test_phrase_requires_ordered_adjacency(self):
        t = ["storm", "surge", "coming"]
        assert one_tweet_matches(t, ph("storm", "surge"))
        assert one_tweet_matches(t, ph("surge", "coming"))
        assert not one_tweet_matches(t, ph("surge", "storm"))
        assert not one_tweet_matches(t, ph("storm", "coming"))

    def test_empty_tweet_never_matches(self):
        assert not one_tweet_matches([], nv("road", "blocked"))
        assert not one_tweet_matches([], ph("road", "blocked"))


class _HandFixture:
    """Six labeled tweets engineered so k=2 yields tp=2 fp=1 fn=2 tn=1."""

    def corpus(self):
        """The (label, tokens) of the six tweets, in order."""
        return [
            (Label.INFORMATIVE, ["road", "blocked", "tree"]),
            (Label.INFORMATIVE, ["storm", "surge", "coming"]),
            (Label.INFORMATIVE, ["fire", "spreads", "fast"]),
            (Label.INFORMATIVE, ["quiet", "evening", "walk"]),
            (Label.UNINFORMATIVE, ["blocked", "joke", "road"]),
            (Label.UNINFORMATIVE, ["calm", "waters", "today"]),
        ]

    def ranking(self):
        return ranked_list([
            nv("road", "blocked"),    # rank 1: tweets 1 and 5
            ph("storm", "surge"),     # rank 2: tweet 2
            nv("fire", "spreads"),    # rank 3: tweet 3
        ])


class TestEvaluateAtK(_HandFixture):
    """``evaluate_labeled`` at top-k cuts."""

    def test_exact_fractions_at_k2(self):
        points = evaluate_labeled(self.ranking(), self.corpus(), ks=[2])
        p = points[0]
        assert (p.tp, p.fp, p.fn, p.tn) == (2, 1, 2, 1)
        assert p.precision == 2 / 3
        assert p.recall == 1 / 2
        assert p.f1 == 4 / 7
        assert p.fpr == 1 / 2
        assert p.tpr == p.recall

    def test_k_zero_origin(self):
        p = evaluate_labeled(self.ranking(), self.corpus(), ks=[0])[0]
        assert (p.tp, p.fp, p.fn, p.tn) == (0, 0, 4, 2)
        assert p.precision == 0.0
        assert p.recall == 0.0
        assert p.f1 == 0.0
        assert p.fpr == 0.0

    def test_full_sweep(self):
        points = evaluate_labeled(self.ranking(), self.corpus(), ks=[0, 1, 2, 3, 10])
        assert [(p.tp, p.fp) for p in points] == [(0, 0), (1, 1), (2, 1), (3, 1), (3, 1)]
        # Saturates past the ranking length.
        assert points[-1].recall == 3 / 4
        assert points[-1].f1 == 6 / 8

    def test_empty_ks(self):
        assert evaluate_labeled(self.ranking(), self.corpus(), ks=[]) == []
        with pytest.raises(InputFormatError):
            evaluate_labeled(self.ranking(), [(Label.INFORMATIVE, ["road"])], ks=[])

    def test_tweet_counted_once_at_lowest_matching_rank(self):
        # The first tweet matches both rank 1 and a duplicate at rank 3; the
        # counts at k=1 already include it and never double-count.
        ranking = ranked_list([
            nv("road", "blocked"),
            ph("storm", "surge"),
            nv("blocked", "tree"),
        ])
        points = evaluate_labeled(ranking, self.corpus(), ks=[1, 3])
        assert points[0].tp == 1
        assert points[1].tp == 2

    def test_requires_both_classes(self):
        labeled = [(Label.INFORMATIVE, ["road"]), (Label.INFORMATIVE, ["tree"])]
        with pytest.raises(InputFormatError):
            evaluate_labeled(self.ranking(), labeled, ks=[1])

    def test_unlabeled_tweets_excluded(self):
        extra = self.corpus() + [(Label.UNLABELED, ["road", "blocked"])]
        base = evaluate_labeled(self.ranking(), self.corpus(), ks=[2])[0]
        with_extra = evaluate_labeled(self.ranking(), extra, ks=[2])[0]
        assert base == with_extra

    def test_ks_validation(self):
        with pytest.raises(ValueError):
            evaluate_labeled(self.ranking(), self.corpus(), ks=[-1])
        with pytest.raises(ValueError):
            evaluate_labeled(self.ranking(), self.corpus(), ks=[2, 1])
        with pytest.raises(ValueError):
            evaluate_labeled(self.ranking(), self.corpus(), ks=[1, 1])

    def test_matches_brute_force_on_random_inputs(self):
        # Unlabeled and empty tweets are interleaved; candidates include
        # first == second and one word pair as both an nv pair and a phrase.
        rng = np.random.default_rng(29)
        vocab = [f"w{i}" for i in range(10)]
        labels = [Label.INFORMATIVE, Label.UNINFORMATIVE, Label.UNLABELED]
        for trial in range(25):
            labeled = [(Label.INFORMATIVE, []), (Label.UNINFORMATIVE, [])]
            for _ in range(int(rng.integers(4, 25))):
                n = int(rng.integers(0, 7))
                toks = [vocab[int(j)] for j in rng.integers(0, len(vocab), n)]
                labeled.append((labels[int(rng.integers(0, 3))], toks))
            a, b, c = (vocab[int(j)] for j in rng.integers(0, len(vocab), 3))
            cands = [nv(c, c), ph(a, b), nv(a, b)]
            for _ in range(int(rng.integers(1, 12))):
                a, b = (vocab[int(j)] for j in rng.integers(0, len(vocab), 2))
                cands.append(nv(a, b) if rng.random() < 0.5 else ph(a, b))
            order = rng.permutation(len(cands))
            ranking = ranked_list([cands[int(j)] for j in order])
            # The second sweep stops below the ranking's length, so the
            # candidates ranked past its last k are left out of the maps.
            cut = trial % len(cands)
            sweeps = [list(range(0, len(cands) + 2)), sorted({0, cut // 2, cut})]
            oracle_tweets = [
                (toks, label is Label.INFORMATIVE)
                for label, toks in labeled if label is not Label.UNLABELED
            ]
            oracle_cands = [
                (rc.candidate.kind.value, rc.candidate.first, rc.candidate.second)
                for rc in ranking
            ]
            for ks in sweeps:
                streamed = evaluate_labeled(ranking, iter(labeled), ks)
                assert [p.k for p in streamed] == ks
                for k, p in zip(ks, streamed):
                    expected = oracles.brute_force_confusion(oracle_tweets, oracle_cands, k)
                    assert (p.tp, p.fp, p.fn, p.tn) == expected

    def test_checks_arguments_before_reading_the_stream(self):
        def stream():
            raise AssertionError("stream read")
            yield

        for ks in ([-1], [2, 1]):
            with pytest.raises(ValueError):
                evaluate_labeled(self.ranking(), stream(), ks)

    def test_counts_monotone_in_k(self):
        points = evaluate_labeled(self.ranking(), self.corpus(), ks=list(range(0, 8)))
        tps = [p.tp for p in points]
        fps = [p.fp for p in points]
        assert tps == sorted(tps)
        assert fps == sorted(fps)
        for p in points:
            assert p.tp + p.fn == 4
            assert p.fp + p.tn == 2


def _evaluate_peak(labeled, out) -> int:
    """tracemalloc peak of ``evaluate`` of a two-candidate ranking over one
    labeled file."""
    cfg = PipelineConfig()
    cfg.paths.corpus_labeled = str(labeled)
    out.mkdir()
    write_ranked(ranked_list([nv("flood", "rise"), ph("water", "rise")]), out / "ranked.csv")
    gc.collect()
    tracemalloc.start()
    try:
        cmd_evaluate(cfg, out)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_memory_does_not_grow_with_tweets_without_candidate_words(tmp_path):
    """Doubling the labeled tweets of both classes that hold no candidate
    word (the same texts again under new ids) leaves evaluate's peak within
    10%: it keeps postings of candidate words only, not the tweets."""
    vocab = [f"word{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(300)]
    background = [" ".join(vocab[(7 * t + 13 * j) % len(vocab)] for j in range(12))
                  for t in range(3000)]
    labels = ("informative", "uninformative")

    def line(tweet_id, text, i):
        return json.dumps({"id": tweet_id, "text": text, "label": labels[i % 2]}) + "\n"

    lines = [line(f"c{i}", f"flood rise water {vocab[i]}", i) for i in range(300)]
    once, twice = tmp_path / "once.jsonl", tmp_path / "twice.jsonl"
    once.write_text("".join(lines + [line(f"a{i}", text, i)
                                     for i, text in enumerate(background)]), encoding="utf-8")
    twice.write_text("".join(lines + [line(f"{p}{i}", text, i) for p in "ab"
                                      for i, text in enumerate(background)]), encoding="utf-8")
    once_peak = _evaluate_peak(once, tmp_path / "once")  # first: it pays any first-call set-up
    assert _evaluate_peak(twice, tmp_path / "twice") <= 1.1 * once_peak


class TestMetricsPoint:
    def test_from_counts_exact(self):
        p = MetricsPoint.from_counts(k=2, tp=2, fp=1, fn=2, tn=1)
        assert p.precision == 2 / 3
        assert p.f1 == 4 / 7

    def test_zero_denominators(self):
        p = MetricsPoint.from_counts(k=0, tp=0, fp=0, fn=0, tn=0)
        assert (p.precision, p.recall, p.f1, p.fpr) == (0.0, 0.0, 0.0, 0.0)


class TestRoc(_HandFixture):
    def test_endpoints_added(self):
        points = evaluate_labeled(self.ranking(), self.corpus(), ks=[2])
        curve = roc_points(points)
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert curve.points[1] == (1 / 2, 1 / 2)

    def test_single_point_trapezoid_exact(self):
        point = MetricsPoint.from_counts(k=1, tp=4, fp=1, fn=1, tn=1)
        # (0,0) -> (0.5, 0.8) -> (1,1): area 0.2 + 0.45.
        curve = roc_points([point])
        assert curve.auc == pytest.approx(0.65, abs=1e-12)

    def test_degenerate_sweep_scores_half(self):
        points = [MetricsPoint.from_counts(k=k, tp=0, fp=0, fn=3, tn=3) for k in (0, 1)]
        curve = roc_points(points)
        assert curve.auc == pytest.approx(0.5, abs=1e-12)

    def test_perfect_ranking_scores_one(self):
        points = [
            MetricsPoint.from_counts(k=1, tp=3, fp=0, fn=0, tn=3),
            MetricsPoint.from_counts(k=2, tp=3, fp=3, fn=0, tn=0),
        ]
        assert roc_points(points).auc == pytest.approx(1.0, abs=1e-12)

    def test_out_of_order_metrics_rejected(self):
        points = [
            MetricsPoint.from_counts(k=2, tp=1, fp=0, fn=1, tn=1),
            MetricsPoint.from_counts(k=1, tp=1, fp=0, fn=1, tn=1),
        ]
        with pytest.raises(ValueError):
            roc_points(points)


class TestMetricsCsv(_HandFixture):
    def test_round_trip(self, tmp_path):
        points = evaluate_labeled(self.ranking(), self.corpus(), ks=[0, 1, 2, 3])
        path = tmp_path / "metrics.csv"
        write_metrics(points, path)
        assert read_metrics(path) == points

    def test_bytes_stable(self, tmp_path):
        points = evaluate_labeled(self.ranking(), self.corpus(), ks=[0, 2])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics(points, a)
        write_metrics(points, b)
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("bad header\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_metrics(path)
        header = "k,tp,fp,fn,tn,precision,recall,f1,fpr,tpr"
        path.write_text(header + "\n1,2,3\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_metrics(path)
        path.write_text(header + "\nx,0,0,0,0,0,0,0,0,0\n", encoding="utf-8")
        with pytest.raises(InputFormatError):
            read_metrics(path)
