"""Run one ``subevents`` CLI command in this process and report on it.

    python3 perfbench/child.py REPORT.json TRACE(0|1) -- CLI ARGS...

The parent notes the time just before it starts this process; the report
holds the monotonic times after ``import subevents.cli`` and after
``main`` returned, and ``ru_maxrss``. With TRACE=1 the
package's public functions are wrapped first (see ``Tracer``) and the
report also holds the spans, counters and per-layer metrics of the call.
"""

from __future__ import annotations

import sys
import time

import subevents.cli as cli  # noqa: E402  (timed as part of set-up)

T_IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
from collections import defaultdict  # noqa: E402

import subevents.cluster  # noqa: E402
import subevents.embed  # noqa: E402
import subevents.rank  # noqa: E402

LAYERS = ("corpus", "extract", "embed", "rank", "cluster", "evaluate")
STAGES = ("extract", "rank", "cluster", "evaluate", "pipeline")
# Called once per tweet or per candidate: counted, not given a span each.
PER_ITEM = {"extract_nv_pairs", "extract_nv_pairs_fallback", "compose", "subword_vector"}
# Span name -> metric stem, where the reported metric name differs from the span name.
STEMS = {
    "corpus.preprocess_corpus": "corpus.preprocess",
    "corpus.dedupe_corpus": "corpus.dedupe",
    "extract.extract_nv_pairs": "extract.nv_parse",
    "extract.extract_nv_pairs_fallback": "extract.nv_fallback",
    "extract.filter_candidates": "extract.filter",
    "embed.subword_vector": "embed.subword",
    "cluster.summarize_clusters": "cluster.summarize",
    "cluster.spectral_cluster": "cluster.spectral",
}
# Spans whose self time is reported, and under which metric name.
SELF_TIME = {
    "cli.pipeline": "cli.pipeline_self_s",
    "cluster.spectral_cluster": "cluster.spectral_self_s",
    "rank.rank_candidates": "rank.self_s",
}


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans (name, start, end, parent) for stages and whole-layer
    calls; call counts and busy time for per-item calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item_cover: dict[int, float] = defaultdict(float)
        self.item_depth = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = {}

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def item(self, name, fn, after=None):
        stem = STEMS.get(name, name)

        def wrapper(*args, **kwargs):
            self.item_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.item_depth -= 1
            self.counters[stem + "_calls"] += 1
            self.counters[stem + "_s"] += elapsed
            if self.item_depth == 0 and self.stack:
                self.item_cover[self.stack[-1]] += elapsed
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def self_time(self, idx: int) -> float:
        name, start, end, _ = self.spans[idx]
        children = sum(s[2] - s[1] for s in self.spans if s[3] == idx)
        return end - start - children - self.item_cover[idx]


# -- counters read off arguments and results --------------------------------

def _set(key, fn):
    def after(tracer, args, result):
        tracer.values[key] = fn(args, result)
    return after


def _add(key, fn):
    def after(tracer, args, result):
        tracer.counters[key] += fn(args, result)
    return after


def _stage_end(stage):
    def after(tracer, args, result):
        tracer.values[f"cli.{stage}_peak_rss_mb"] = _rss_mb()
    return after


def _filtered(args, result):
    return result.nv_after / result.nv_before if result.nv_before else 0.0


def _matched(args, result):
    labeled = args[1]
    last = result[-1]
    return (last.tp + last.fp) / len(labeled) if len(labeled) else 0.0


def _isolated(args, result):
    return int((result.entries.sum(axis=1) == 0.0).sum())


AFTER = {
    "corpus.load_parses": _set("corpus.parses_n", lambda a, r: len(r)),
    "corpus.dedupe_corpus": _add("corpus.dedupe_removed_n", lambda a, r: len(a[0]) - len(r)),
    "extract.extract_nv_pairs": _add("extract.nv_occurrences_n", lambda a, r: len(r)),
    "extract.extract_nv_pairs_fallback": _add("extract.nv_occurrences_n", lambda a, r: len(r)),
    "extract.detect_phrases": _set("extract.phrases_n", lambda a, r: len(r)),
    "extract.filter_candidates": lambda t, a, r: t.values.update({
        "extract.nv_kept_ratio": _filtered(a, r), "extract.candidates_n": r.total}),
    "embed.load_vectors": _set("embed.vectors_n", lambda a, r: len(r.vectors)),
    "embed.compose": _add("embed.compose_null_n", lambda a, r: int(r.is_null)),
    "rank.rank_candidates": _set(
        "rank.null_candidates_n", lambda a, r: sum(1 for rc in r if rc.best_term is None)),
    "cluster.build_affinity": lambda t, a, r: t.values.update({
        "cluster.n": r.n, "cluster.affinity_bytes": r.n * r.n * 8,
        "cluster.isolated_n": _isolated(a, r)}),
    "cluster.kmeans": _add("cluster.kmeans_iters", lambda a, r: len(r[2])),
    "evaluate.evaluate_at_k": lambda t, a, r: t.values.update({
        "evaluate.labeled_n": len(a[1]), "evaluate.matched_share": _matched(a, r)}),
}


def install(tracer: Tracer) -> None:
    """Wrap each public layer function where the CLI (or, for compose,
    eig_topk, kmeans and subword hashing, the calling module) looks it up."""
    for attr, fn in list(vars(cli).items()):
        module = getattr(fn, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if not callable(fn) or isinstance(fn, type) or layer not in LAYERS:
            continue
        name = f"{layer}.{attr}"
        wrap = tracer.item if attr in PER_ITEM else tracer.span
        setattr(cli, attr, wrap(name, fn, AFTER.get(name)))
    subevents.rank.compose = tracer.item("embed.compose", subevents.rank.compose,
                                         AFTER["embed.compose"])
    for attr in ("eig_topk", "kmeans"):
        fn = getattr(subevents.cluster, attr)
        setattr(subevents.cluster, attr, tracer.span(f"cluster.{attr}", fn, AFTER.get(f"cluster.{attr}")))
    store = subevents.embed.EmbeddingStore
    store.subword_vector = tracer.item("embed.subword_vector", store.subword_vector)
    for stage in STAGES:
        handler = tracer.span(f"cli.{stage}", getattr(cli, f"cmd_{stage}"), _stage_end(stage))
        setattr(cli, f"cmd_{stage}", handler)
        cli.COMMANDS[stage] = handler


def layer_metrics(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per-layer metrics of this process. ``sums`` add up over the
    operations of a round: busy seconds and calls per span name, self
    times and the per-item counters. ``levels`` do not: sizes, ratios and
    peak RSS read off results."""
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _) in enumerate(tracer.spans):
        stem = STEMS.get(name, name)
        out[stem + "_s"] += end - start
        out[stem + "_calls"] += 1
        if name in SELF_TIME:
            out[SELF_TIME[name]] += tracer.self_time(idx)
    out.update(tracer.counters)
    return {"sums": dict(out), "levels": dict(tracer.values)}


def main() -> int:
    report_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py REPORT TRACE -- CLI ARGS")
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    code = cli.main(sys.argv[4:])
    report = {"imported": T_IMPORTED, "end": time.monotonic(), "rss_mb": _rss_mb()}
    if tracer is not None:
        report["layers"] = layer_metrics(tracer)
        report["spans"] = tracer.spans
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
