"""Acceptance gate: eight criteria, one pass/fail line each.

Each test prints "ACCEPTANCE n (<name>): PASS" or "... FAIL" so the gate
can be read off the run log. The criteria mix exact hand-computed values,
independent oracles (Jacobi eigensolver, brute-force ranking and
confusion counts, contingency-table ARI), statistical properties with
fixed seeds, and end-to-end determinism of the command-line pipeline.
"""

import json
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
import oracles
from subevents.cluster import AffinityMatrix, eig_topk, spectral_cluster
from subevents.corpus import (
    CorpusLines,
    Label,
    LabelMode,
    TokenCleaner,
    load_parses,
    load_stopwords,
)
from subevents.embed import EmbeddingStore, load_vectors
from subevents.evaluate import evaluate_labeled, roc_points
from subevents.extract import (
    Candidate,
    CandidateKind,
    ExtractCounts,
    PhraseConfig,
    phrase_score,
    reduction_percent,
)
from subevents.rank import RankedCandidate, load_ontology, rank_candidates, read_terms


def _gate_line(text: str) -> None:
    # pytest captures per-test stdout, so also record the line for the
    # uncaptured end-of-run summary section (see conftest).
    print(text)
    conftest.ACCEPTANCE_LINES.append(text)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        _gate_line(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    _gate_line(f"ACCEPTANCE {number} ({name}): PASS")


def nv(first, second, freq=1):
    return Candidate(CandidateKind.NOUN_VERB_PAIR, first, second, frequency=freq)


def ph(first, second, freq=1):
    return Candidate(CandidateKind.PHRASE, first, second, frequency=freq)


@pytest.fixture(scope="module")
def fixture_ranking(fixtures_dir):
    """The bundled synthetic corpus pushed through extract and rank, and
    the (label, tokens) of its labeled file."""
    tweets = CorpusLines([
        (fixtures_dir / "pipeline_unlabeled.jsonl", LabelMode.UNLABELED),
        (fixtures_dir / "pipeline_labeled.jsonl", LabelMode.LABELED),
    ])
    cleaner = TokenCleaner(load_stopwords())
    counts = ExtractCounts(cleaner, load_parses(fixtures_dir / "pipeline_parses.conllu"))
    counts.add_texts(tweets.texts())
    candidates = counts.candidates(PhraseConfig(2, 10.0), 2)
    store = load_vectors(fixtures_dir / "pipeline_vectors.txt")
    ontology = load_ontology(read_terms(fixtures_dir / "pipeline_ontology.txt"), store)
    ranked = rank_candidates(candidates.candidates, ontology, store)
    lines = CorpusLines([(fixtures_dir / "pipeline_labeled.jsonl", LabelMode.LABELED)])
    labeled = [(label, cleaner.tokens(text)) for _, text, label in lines]
    return ranked, labeled


def test_1_worked_example(fixtures_dir):
    with criterion(1, "worked example"):
        start = time.perf_counter()
        reader = CorpusLines([(fixtures_dir / "worked_corpus.jsonl", LabelMode.UNLABELED)])
        cleaner = TokenCleaner(load_stopwords())
        texts = list(reader.texts())
        parses = load_parses(fixtures_dir / "worked_parses.conllu")
        key_id, key_text = texts[0]
        assert cleaner.tokens(key_text) == [
            "waterborne", "diseases", "hurricane", "water", "recedes"]

        counts = ExtractCounts(cleaner, parses)
        counts.add_texts([(key_id, key_text)])
        pairs = counts.candidates(min_freq=1).candidates
        assert {c.words for c in pairs if c.kind is CandidateKind.NOUN_VERB_PAIR} == {
            ("waterborne", "recedes"), ("water", "recedes")}

        counts = ExtractCounts(cleaner)
        counts.add_texts(texts)
        phrases = counts.phrases(PhraseConfig(min_count=2, threshold=10.0))
        assert [c.words for c in phrases] == [("waterborne", "diseases")]

        store = load_vectors(fixtures_dir / "worked_vectors.txt")
        ontology = load_ontology(read_terms(None), store)  # bundled 62-term crisis list
        ranked = rank_candidates(
            [ph("waterborne", "diseases", 6), nv("water", "recedes", 2)],
            ontology,
            store,
        )
        assert ranked[0].candidate.words == ("waterborne", "diseases")
        assert ranked[1].candidate.words == ("water", "recedes")
        assert ranked[0].score > ranked[1].score

        assert time.perf_counter() - start < 1.0


def test_2_accounting_identities(fixtures_dir):
    with criterion(2, "accounting identities"):
        rng = np.random.default_rng(404)
        words = [f"word{letter}" for letter in "abcdefghijkl"]
        for _ in range(200):
            pair_pool = [
                nv(words[int(a)], words[int(b)])
                for a, b in rng.integers(0, len(words), size=(int(rng.integers(0, 30)), 2))
            ]
            phrase_pool = [
                ph(words[int(a)], words[int(b)], freq=int(rng.integers(2, 6)))
                for a, b in rng.integers(0, len(words), size=(int(rng.integers(0, 8)), 2))
            ]
            # The fold counts each pool pair once, as an edge of one parsed
            # tweet without text, and each pool phrase's bigram `freq`
            # times; at min_count 1 and threshold 0 every bigram counted
            # twice or more is a phrase.
            parses = oracles.parses_from_edges({"p": tuple(c.words for c in pair_pool)})
            counts = ExtractCounts(TokenCleaner(frozenset()), parses)
            counts.add_texts([("p", ""), *(("", f"{c.first} {c.second}")
                                           for c in phrase_pool for _ in range(c.frequency))])
            result = counts.candidates(PhraseConfig(min_count=1, threshold=0.0),
                                       min_freq=int(rng.integers(1, 4)))
            assert result.phrase_count == len({c.words for c in phrase_pool})
            assert result.total == result.nv_after + result.phrase_count - result.overlap
            assert result.overlap == 0
            assert result.total == result.nv_after + result.phrase_count

        golden = json.loads(
            (fixtures_dir / "pipeline_accounting.json").read_text(encoding="utf-8")
        )
        assert golden["total"] == golden["nv_after"] + golden["phrases"]

        # Reduction arithmetic on published large-corpus candidate counts.
        assert reduction_percent(769670, 3187) == pytest.approx(99.59, abs=0.05)
        assert reduction_percent(796792, 30309) == pytest.approx(96.20, abs=0.05)
        assert reduction_percent(577914, 19229) == pytest.approx(96.67, abs=0.05)


def test_3_phrase_scorer(fixtures_dir):
    with criterion(3, "phrase scorer"):
        # Toy corpus tallied by hand, with a for the word aaa, b for bbb
        # and so on:
        #   t1: a b a b | t2: a b c | t3: c d | t4: d c d
        #   t5: e f     | t6: e f e f e f | t7: g h | t8: h g
        # unigrams a=3 b=3 c=3 d=3 e=4 f=4 g=2 h=2, V=8
        # bigrams (a,b)=3 (b,a)=1 (b,c)=1 (c,d)=2 (d,c)=1 (e,f)=4 (f,e)=2
        #         (g,h)=1 (h,g)=1
        texts = [
            "aaa bbb aaa bbb", "aaa bbb ccc", "ccc ddd", "ddd ccc ddd",
            "eee fff", "eee fff eee fff eee fff", "ggg hhh", "hhh ggg",
        ]
        counts = ExtractCounts(TokenCleaner(frozenset()))
        counts.add_texts(("", text) for text in texts)
        hand_scores = [
            (3, 3, 3, 8, 2, (3 - 2) * 8 / 9),   # (a,b)
            (2, 3, 3, 8, 2, 0.0),               # (c,d)
            (4, 4, 4, 8, 2, (4 - 2) * 8 / 16),  # (e,f)
            (2, 4, 4, 8, 2, 0.0),               # (f,e)
            (3, 3, 3, 8, 1, (3 - 1) * 8 / 9),   # (a,b), min_count 1
            (4, 4, 4, 8, 1, (4 - 1) * 8 / 16),  # (e,f), min_count 1
            (1, 3, 3, 8, 1, 0.0),               # (b,a), min_count 1
            (2, 3, 3, 8, 1, (2 - 1) * 8 / 9),   # (c,d), min_count 1
            (1, 2, 2, 8, 1, 0.0),               # (g,h), min_count 1
            (1, 3, 3, 8, 1, 0.0),               # (d,c), min_count 1
        ]
        for count_ab, count_a, count_b, vocab, min_count, expected in hand_scores:
            got = phrase_score(count_ab, count_a, count_b, vocab, min_count)
            assert got == pytest.approx(expected, abs=1e-12)

        # The detector emits exactly the bigrams whose hand score clears
        # the threshold: (e,f)=1.0 and (a,b)=8/9 at min_count 2.
        out = counts.phrases(PhraseConfig(min_count=2, threshold=0.95))
        assert [c.words for c in out] == [("eee", "fff")]
        out = counts.phrases(PhraseConfig(min_count=2, threshold=0.5))
        assert [c.words for c in out] == [("aaa", "bbb"), ("eee", "fff")]

        # Property: no bigram below min_count is ever emitted, and emitted
        # frequencies equal true corpus counts. Threshold 0 maximizes
        # emission, making the count gate the only defense.
        rng = np.random.default_rng(5150)
        for _ in range(1000):
            vocab_words = [f"word{letter}" for letter in "abcdef"[:int(rng.integers(2, 7))]]
            rand_lists = []
            for i in range(int(rng.integers(1, 6))):
                length = int(rng.integers(0, 9))
                toks = tuple(vocab_words[int(j)] for j in rng.integers(0, len(vocab_words), length))
                rand_lists.append(toks)
            rand_counts = ExtractCounts(TokenCleaner(frozenset()))
            rand_counts.add_texts(("", " ".join(toks)) for toks in rand_lists)
            min_count = int(rng.integers(1, 4))
            emitted = rand_counts.phrases(PhraseConfig(min_count, 0.0))
            true_counts: Counter = Counter()
            for toks in rand_lists:
                true_counts.update(zip(toks, toks[1:]))
            for cand in emitted:
                assert true_counts[(cand.first, cand.second)] >= min_count
                assert cand.frequency == true_counts[(cand.first, cand.second)]


def test_4_ranking_oracle(tmp_path):
    with criterion(4, "ranking oracle"):
        # Candidate words and term words come from disjoint pools so no
        # candidate composes exactly parallel to a term; exact-cosine-1
        # ties would otherwise make "equal ordering" ill-posed at the
        # last floating-point ulp. Both pools keep out-of-vocabulary
        # words to exercise null terms and null candidates.
        rng = np.random.default_rng(77)
        dim = 16
        cand_vocab = [f"cand{i:03d}" for i in range(100)]
        term_vocab = [f"term{i:03d}" for i in range(60)]
        known = {w: rng.normal(size=dim).tolist() for w in cand_vocab[:80]}
        known.update({w: rng.normal(size=dim).tolist() for w in term_vocab[:50]})

        term_rows = []
        seen = set()
        while len(term_rows) < 62:
            n_words = int(rng.integers(1, 3))
            words = tuple(term_vocab[int(i)] for i in rng.integers(0, len(term_vocab), n_words))
            if words in seen:
                continue
            seen.add(words)
            term_rows.append((" ".join(words), list(words)))
        term_path = tmp_path / "terms.txt"
        term_path.write_text("\n".join(name for name, _ in term_rows) + "\n", encoding="utf-8")

        candidates = []
        for _ in range(1000):
            kind = CandidateKind.NOUN_VERB_PAIR if rng.random() < 0.5 else CandidateKind.PHRASE
            a, b = (cand_vocab[int(i)] for i in rng.integers(0, len(cand_vocab), 2))
            candidates.append(Candidate(kind, a, b, int(rng.integers(1, 10))))

        def build_store(scale):
            return EmbeddingStore(
                dim=dim,
                vectors={w: np.array(v) * scale for w, v in known.items()},
            )

        store = build_store(1.0)
        ontology = load_ontology(read_terms(term_path), store)
        ranked = rank_candidates(candidates, ontology, store)

        oracle_rows = oracles.brute_force_rank(
            [(c.kind.value, c.first, c.second, c.frequency) for c in candidates],
            known,
            term_rows,
        )
        assert len(ranked) == len(oracle_rows) == 1000
        for rc, row in zip(ranked, oracle_rows):
            got = (rc.candidate.kind.value, rc.candidate.first,
                   rc.candidate.second, rc.candidate.frequency)
            assert got == row[:4]
            assert rc.best_term == row[5]
            assert rc.score == pytest.approx(row[4], abs=1e-10)
        assert any(rc.score == -1.0 for rc in ranked)  # null candidates present

        # Power-of-two rescaling is exact in floating point, so the whole
        # ranking (scores included) must be bit-identical.
        for scale in (2.0, 0.25):
            scaled_store = build_store(scale)
            scaled_ontology = load_ontology(read_terms(term_path), scaled_store)
            rescaled = rank_candidates(candidates, scaled_ontology, scaled_store)
            for base, other in zip(ranked, rescaled):
                assert base.candidate == other.candidate
                assert base.best_term == other.best_term
                assert base.score == other.score


def test_5_eigensolver():
    with criterion(5, "eigensolver"):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(2, 33))
            raw = rng.normal(size=(n, n))
            m = (raw + raw.T) / 2.0
            k = int(rng.integers(1, n + 1))
            values, vectors = eig_topk(m, k)
            oracle_values, _ = oracles.jacobi_eigh(m)
            bound = 1e-8 * max(1.0, float(np.linalg.norm(m)))
            for i, (value, vector) in enumerate(zip(values, vectors.T)):
                residual = float(np.linalg.norm(m @ vector - value * vector))
                assert residual <= bound
                assert abs(value - float(oracle_values[i])) <= 1e-8


def test_6_spectral_clustering():
    with criterion(6, "spectral clustering"):
        sizes = (10, 15, 20)
        n = sum(sizes)
        truth = [b for b, size in enumerate(sizes) for _ in range(size)]
        entries = np.zeros((n, n))
        offset = 0
        for size in sizes:
            entries[offset:offset + size, offset:offset + size] = 0.9
            offset += size
        np.fill_diagonal(entries, 0.0)
        affinity = AffinityMatrix(entries=entries)
        affinity.validate()
        for seed in range(10):
            labels = spectral_cluster(affinity, k=3, seed=seed)
            repeat = spectral_cluster(affinity, k=3, seed=seed)
            assert np.array_equal(labels, repeat)
            ari = oracles.adjusted_rand_index(labels.tolist(), truth)
            assert ari == 1.0


def test_7_metrics(fixture_ranking):
    with criterion(7, "metrics"):
        # Hand-counted fixture: at k=2 the confusion is tp=2 fp=1 fn=2 tn=1.
        labeled_tweets = [
            (Label.INFORMATIVE, ("road", "blocked", "tree")),
            (Label.INFORMATIVE, ("storm", "surge", "coming")),
            (Label.INFORMATIVE, ("fire", "spreads", "fast")),
            (Label.INFORMATIVE, ("quiet", "evening", "walk")),
            (Label.UNINFORMATIVE, ("blocked", "joke", "road")),
            (Label.UNINFORMATIVE, ("calm", "waters", "today")),
        ]
        hand_ranking = [
            RankedCandidate(candidate=nv("road", "blocked", 2), score=0.9,
                            best_term=None, rank=1),
            RankedCandidate(candidate=ph("storm", "surge", 2), score=0.8,
                            best_term=None, rank=2),
            RankedCandidate(candidate=nv("fire", "spreads", 2), score=0.7,
                            best_term=None, rank=3),
        ]
        point = evaluate_labeled(hand_ranking, labeled_tweets, ks=[2])[0]
        assert point.precision == 2 / 3
        assert point.recall == 1 / 2
        assert point.f1 == 4 / 7

        # Monotonicity of tp and fp in k over 1,000 random fixtures.
        rng = np.random.default_rng(1234)
        vocab = [f"w{i}" for i in range(8)]
        for _ in range(1000):
            rand_tweets = [
                (Label.INFORMATIVE, ("w0", "w1")),
                (Label.UNINFORMATIVE, ("w2", "w3")),
            ]
            for i in range(int(rng.integers(0, 10))):
                length = int(rng.integers(0, 6))
                toks = tuple(vocab[int(j)] for j in rng.integers(0, len(vocab), length))
                label = Label.INFORMATIVE if rng.random() < 0.5 else Label.UNINFORMATIVE
                rand_tweets.append((label, toks))
            ranking = []
            for pos in range(int(rng.integers(1, 8))):
                a, b = (vocab[int(j)] for j in rng.integers(0, len(vocab), 2))
                cand = nv(a, b) if rng.random() < 0.5 else ph(a, b)
                ranking.append(RankedCandidate(candidate=cand, score=float(-pos),
                                               best_term=None, rank=pos + 1))
            ks = list(range(0, len(ranking) + 2))
            points = evaluate_labeled(ranking, rand_tweets, ks=ks)
            tps = [p.tp for p in points]
            fps = [p.fp for p in points]
            assert tps == sorted(tps)
            assert fps == sorted(fps)

        # Random rankings of the synthetic corpus's candidates score
        # chance-level AUC on average; the max-cosine ranking separates
        # the planted crisis candidates almost perfectly.
        ranked, labeled = fixture_ranking
        ks = list(range(1, len(ranked) + 1))
        planted_auc = roc_points(evaluate_labeled(ranked, labeled, ks)).auc
        assert planted_auc >= 0.8

        candidates = [rc.candidate for rc in ranked]
        aucs = []
        for seed in range(20):
            perm = np.random.default_rng(seed).permutation(len(candidates))
            shuffled = [
                RankedCandidate(candidate=candidates[int(idx)], score=0.0,
                                best_term=None, rank=pos + 1)
                for pos, idx in enumerate(perm)
            ]
            aucs.append(roc_points(evaluate_labeled(shuffled, labeled, ks)).auc)
        mean_auc = sum(aucs) / len(aucs)
        assert abs(mean_auc - 0.5) <= 0.05


def test_8_end_to_end(run_cli, tmp_path, write_config, pipeline_config_dict):
    with criterion(8, "end-to-end pipeline"):
        stage_artifacts = (
            "candidates.csv", "accounting.json", "ranked.csv",
            "clusters.json", "metrics.csv",
        )
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        out_c = tmp_path / "run_threads"
        cfg_a = write_config(pipeline_config_dict, out_a)
        cfg_b = write_config(pipeline_config_dict, out_b)
        cfg_c = write_config(pipeline_config_dict, out_c)

        start = time.perf_counter()
        code, _, _ = run_cli("pipeline", "--config", cfg_a, "--threads", "1")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 10.0

        assert run_cli("pipeline", "--config", cfg_b, "--threads", "1")[0] == 0
        for name in stage_artifacts:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

        assert run_cli("pipeline", "--config", cfg_c, "--threads", "8")[0] == 0
        for name in stage_artifacts:
            assert (out_a / name).read_bytes() == (out_c / name).read_bytes(), name
