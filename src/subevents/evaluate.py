"""Top-k retrieval evaluation of ranked candidates against labeled tweets.

A labeled tweet is "identified" at cut k when it matches at least one of
the top-k candidates. Noun-verb pairs match by unordered token
containment (dependency pairs need not be adjacent in text); phrases match
by ordered adjacent bigram. Both match modes can be overridden.

The labeled tweets arrive as a stream of ``(label, tokens)``, one per
corpus line, and are read once; only their labels and the postings of the
words and bigrams the ranking names are kept.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from ._util import format_float, read_table, write_table
from .corpus import Corpus, Label
from .errors import InputFormatError
from .extract import Candidate, CandidateKind
from .rank import RankedCandidate

MATCH_MODES = ("tokens", "bigram")


@dataclass(frozen=True)
class MetricsPoint:
    """Confusion counts and derived rates for one top-k cut."""

    k: int
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float
    fpr: float
    tpr: float

    @classmethod
    def from_counts(cls, k: int, tp: int, fp: int, fn: int, tn: int) -> "MetricsPoint":
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        # Single-division form of the harmonic mean, so small fixtures
        # produce exact fractions like 4/7.
        f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
        fpr = fp / (fp + tn) if fp + tn else 0.0
        return cls(k=k, tp=tp, fp=fp, fn=fn, tn=tn, precision=precision,
                   recall=recall, f1=f1, fpr=fpr, tpr=recall)


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]
    auc: float


def _check_mode(name: str, mode: str) -> None:
    if mode not in MATCH_MODES:
        raise ValueError(f"{name} must be one of {MATCH_MODES}, got {mode!r}")


class MatchIndex:
    """The labels of the labeled tweets of a ``(label, tokens)`` stream, in
    stream order, and postings into them: the tweets holding each word a
    candidate names, and the tweets holding each candidate's ``(first,
    second)`` as an adjacent bigram. Unlabeled tweets are skipped; every
    other one counts by its place in the stream, so a tweet read twice
    counts twice."""

    def __init__(
        self, labeled: Iterable[tuple[Label, Sequence[str]]], candidates: Iterable[Candidate]
    ):
        pairs = {(candidate.first, candidate.second) for candidate in candidates}
        words = {word for pair in pairs for word in pair}
        self.labels: list[Label] = []
        self.token_postings: dict[str, set[int]] = {}
        self.bigram_postings: dict[tuple[str, str], set[int]] = {}
        for label, tokens in labeled:
            if label is Label.UNLABELED:
                continue
            idx = len(self.labels)
            self.labels.append(label)
            for token in words.intersection(tokens):
                self.token_postings.setdefault(token, set()).add(idx)
            for pair in pairs.intersection(zip(tokens, tokens[1:])):
                self.bigram_postings.setdefault(pair, set()).add(idx)
        self.n_informative = self.labels.count(Label.INFORMATIVE)
        self.n_uninformative = len(self.labels) - self.n_informative

    def candidate_matches(
        self, candidate: Candidate, nv_mode: str, phrase_mode: str
    ) -> set[int]:
        mode = nv_mode if candidate.kind is CandidateKind.NOUN_VERB_PAIR else phrase_mode
        if mode == "tokens":
            first = self.token_postings.get(candidate.first)
            second = self.token_postings.get(candidate.second)
            if not first or not second:
                return set()
            return first & second
        return self.bigram_postings.get((candidate.first, candidate.second), set())


def evaluate_labeled(
    ranked: Sequence[RankedCandidate],
    labeled: Iterable[tuple[Label, Sequence[str]]],
    ks: Sequence[int],
    nv_mode: str = "tokens",
    phrase_mode: str = "bigram",
) -> list[MetricsPoint]:
    """Metrics for each top-k cut of the ranking over a stream of
    ``(label, tokens)``, one per tweet, read once after the arguments are
    checked.

    The sweep is incremental: each tweet's lowest matching rank is found
    once via the postings index, then every k is answered by binary
    search, so cost scales with total matches rather than |ks| * n * k.
    k = 0 is allowed as a curve origin.
    """
    _check_mode("nv_mode", nv_mode)
    _check_mode("phrase_mode", phrase_mode)
    if any(k < 0 for k in ks):
        raise ValueError("ks must be >= 0")
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly ascending")
    ranked = sorted(ranked, key=lambda r: r.rank)
    index = MatchIndex(labeled, (rc.candidate for rc in ranked))
    if index.n_informative == 0 or index.n_uninformative == 0:
        raise InputFormatError(
            "labeled corpus must contain both informative and uninformative "
            "tweets (fpr is undefined otherwise)"
        )
    first_rank: dict[int, int] = {}
    for rc in ranked:
        for tweet_idx in index.candidate_matches(rc.candidate, nv_mode, phrase_mode):
            first_rank.setdefault(tweet_idx, rc.rank)
        if len(first_rank) == len(index.labels):
            break
    informative_ranks = sorted(
        rank for idx, rank in first_rank.items() if index.labels[idx] is Label.INFORMATIVE
    )
    uninformative_ranks = sorted(
        rank for idx, rank in first_rank.items() if index.labels[idx] is Label.UNINFORMATIVE
    )
    points = []
    for k in ks:
        tp = bisect_right(informative_ranks, k)
        fp = bisect_right(uninformative_ranks, k)
        points.append(MetricsPoint.from_counts(
            k=k, tp=tp, fp=fp,
            fn=index.n_informative - tp,
            tn=index.n_uninformative - fp,
        ))
    return points


def evaluate_at_k(
    ranked: Sequence[RankedCandidate],
    labeled: Corpus,
    ks: Sequence[int],
    nv_mode: str = "tokens",
    phrase_mode: str = "bigram",
) -> list[MetricsPoint]:
    """``evaluate_labeled`` over the tweets of a preprocessed ``Corpus``."""
    return evaluate_labeled(
        ranked, ((t.label, t.tokens) for t in labeled.tweets), ks, nv_mode, phrase_mode)


def roc_points(metrics: Sequence[MetricsPoint]) -> RocCurve:
    """(fpr, tpr) polyline for one ks sweep, with trapezoidal AUC.

    (0, 0) is prepended and (1, 1) appended so the curve is well formed
    even when the sweep saturates early.
    """
    if any(a.k >= b.k for a, b in zip(metrics, metrics[1:])):
        raise ValueError("metrics must come from one ascending ks sweep")
    points = [(0.0, 0.0)]
    points.extend((m.fpr, m.tpr) for m in metrics)
    points.append((1.0, 1.0))
    auc = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        auc += (x2 - x1) * (y1 + y2) / 2.0
    return RocCurve(points=tuple(points), auc=auc)


METRICS_CSV_HEADER = ["k", "tp", "fp", "fn", "tn", "precision", "recall", "f1", "fpr", "tpr"]


def write_metrics(metrics: Sequence[MetricsPoint], path: str | Path) -> None:
    write_table(path, METRICS_CSV_HEADER, (
        (m.k, m.tp, m.fp, m.fn, m.tn,
         format_float(m.precision), format_float(m.recall),
         format_float(m.f1), format_float(m.fpr), format_float(m.tpr))
        for m in metrics
    ))


def _parse_metrics_point(row: list[str]) -> MetricsPoint:
    # Header order is field order: five counts, then five rates.
    return MetricsPoint(*map(int, row[:5]), *map(float, row[5:]))


def read_metrics(path: str | Path) -> list[MetricsPoint]:
    return read_table(path, METRICS_CSV_HEADER, _parse_metrics_point)
