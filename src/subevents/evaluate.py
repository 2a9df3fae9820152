"""Top-k retrieval evaluation of ranked candidates against labeled tweets.

A labeled tweet is "identified" at cut k when it matches at least one of
the top-k candidates. Noun-verb pairs match by unordered token
containment (dependency pairs need not be adjacent in text); phrases match
by ordered adjacent bigram.

The labeled tweets arrive as a stream of ``(label, tokens)``, one per
corpus line, and are read once; of each, only its label and its lowest
matching rank are kept.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, product, repeat
from math import inf
from pathlib import Path

from ._util import format_float, read_table, write_table
from .corpus import Label
from .errors import InputFormatError
from .extract import Candidate, CandidateKind


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


def evaluate_labeled(
    ranking: Sequence[Candidate],
    labeled: Iterable[tuple[Label, Sequence[str]]],
    ks: Sequence[int],
) -> list[MetricsPoint]:
    """Metrics for each top-k cut of a ranking, the candidates in rank
    order (a candidate's rank is its 1-based position), over a stream of
    ``(label, tokens)``, one per tweet, read once after the arguments are
    checked. Unlabeled tweets are skipped; a tweet read twice counts twice.

    Each of the first ``ks[-1]`` candidates (no later one can change a
    metric) maps its ``(first, second)`` to its lowest rank, in one map for
    the noun-verb pairs, matched by containment, and one for the phrases,
    matched by bigram. A tweet's lowest matching rank is then the least
    rank looked up by its adjacent bigrams and by the ordered pairs of its
    distinct words that a noun-verb pair could name (a first word then a
    second word, which covers first == second); every k is answered by
    binary search over those ranks. k = 0 is allowed as a curve origin.
    """
    if any(k < 0 for k in ks):
        raise ValueError("ks must be >= 0")
    if any(a >= b for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly ascending")
    by_tokens: dict[tuple[str, str], int] = {}
    by_bigram: dict[tuple[str, str], int] = {}
    for rank, c in enumerate(ranking[: ks[-1] if ks else 0], start=1):
        by_kind = by_tokens if c.kind is CandidateKind.NOUN_VERB_PAIR else by_bigram
        by_kind.setdefault((c.first, c.second), rank)
    firsts = {first for first, _ in by_tokens}
    seconds = {second for _, second in by_tokens}
    # Each labeled tweet's lowest matching rank, inf when none matches.
    ranks: dict[Label, list[float]] = {Label.INFORMATIVE: [], Label.UNINFORMATIVE: []}
    for label, tokens in labeled:
        if label is Label.UNLABELED:
            continue
        pairs = product(firsts.intersection(tokens), seconds.intersection(tokens))
        found = chain(map(by_tokens.get, pairs, repeat(inf)),
                      map(by_bigram.get, zip(tokens, tokens[1:]), repeat(inf)))
        ranks[label].append(min(found, default=inf))
    n_informative, n_uninformative = map(len, ranks.values())
    if n_informative == 0 or n_uninformative == 0:
        raise InputFormatError(
            "labeled corpus must contain both informative and uninformative "
            "tweets (fpr is undefined otherwise)"
        )
    informative_ranks, uninformative_ranks = map(sorted, ranks.values())
    points = []
    for k in ks:
        tp = bisect_right(informative_ranks, k)
        fp = bisect_right(uninformative_ranks, k)
        points.append(MetricsPoint.from_counts(
            k=k, tp=tp, fp=fp, fn=n_informative - tp, tn=n_uninformative - fp,
        ))
    return points


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
