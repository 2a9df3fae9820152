"""Command-line interface orchestrating the sub-event pipeline.

Each subcommand reads its inputs from the files named in the config and
the artifacts of the prior stage, so any stage can be re-run on its own.
Exit codes: 0 success, 1 usage or configuration error, 2 data or format
error.
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from collections import Counter
from collections.abc import Iterable, Sequence
from pathlib import Path

from . import __version__
from ._util import sha256_file, write_json, write_text
from .cluster import build_affinity, spectral_cluster, summarize_clusters, write_clusters
from .config import OVERRIDABLE, PipelineConfig, apply_override, load_config
from .corpus import (
    CorpusLines,
    Label,
    LabelMode,
    TokenCleaner,
    TweetTokens,
    load_parses,
    load_stopwords,
)
from .embed import EmbeddingStore, OovPolicy, load_vectors
from .errors import ConfigError, SubeventsError
from .evaluate import evaluate_labeled, read_metrics, roc_points, write_metrics
from .extract import (
    ExtractCounts,
    PhraseConfig,
    load_pos_lexicon,
    read_candidates,
    reduction_percent,
    write_candidates,
)
from .rank import (
    NULL_SCORE,
    compose_rows,
    load_ontology,
    rank_baseline_overlap,
    rank_candidates,
    read_ranked,
    read_terms,
    write_ranked,
)
from .report import f1_plot_svg, roc_plot_svg

logger = logging.getLogger(__name__)

ARTIFACTS = {
    "candidates": "candidates.csv",
    "accounting": "accounting.json",
    "ranked": "ranked.csv",
    "clusters": "clusters.json",
    "metrics": "metrics.csv",
    "f1_plot": "report_f1.svg",
    "roc_plot": "report_roc.svg",
    "manifest": "manifest.json",
}
# Written by cluster into out_dir: a cache of the last eigendecomposition,
# not an artifact (see eig_topk).
SPECTRUM_CACHE = "spectrum.npz"


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors, but 2 is reserved for
    data errors here, so usage problems are remapped to exit 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument(
        "--threads", type=int, default=1, metavar="N",
        help="accepted for compatibility; has no effect (every stage runs on one thread)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="override cluster.seed, the single source of randomness",
    )
    parser.add_argument(
        "--dedupe", nargs="?", const="true", default=None, metavar="BOOL",
        help="drop exact duplicate tweet texts before extraction",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress details")
    for dotted in OVERRIDABLE:
        if dotted == "dedupe":
            continue
        parser.add_argument(
            f"--{dotted}", default=None, metavar="VALUE", dest=dotted,
            help=argparse.SUPPRESS,
        )


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="subevents",
        description="Detect, rank, and cluster crisis sub-events from tweet corpora.",
        epilog=(
            "Any config key can be overridden with a flag of the same dotted "
            "name, e.g. --cluster.k 40 or --phrase.threshold 12.5."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text in [
        ("extract", "extract and filter candidate sub-events"),
        ("rank", "rank candidates against the crisis term list"),
        ("cluster", "group top-ranked candidates into sub-event clusters"),
        ("evaluate", "score the ranking against labeled tweets"),
        ("pipeline", "run extract, rank, cluster, and evaluate in sequence"),
        ("report", "render F1 and ROC plots from the metrics artifact"),
    ]:
        _add_common(sub.add_parser(name, help=help_text, epilog=parser.epilog))
    return parser


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    values = vars(args)
    for dotted in OVERRIDABLE:
        raw = values.get(dotted)
        if raw is not None:
            apply_override(cfg, dotted, raw)
    if args.seed is not None:
        cfg.cluster.seed = args.seed
    cfg.validate()
    return cfg


def _artifact(out_dir: Path, name: str) -> Path:
    return out_dir / ARTIFACTS[name]


def _require_artifact(out_dir: Path, name: str, producer: str) -> Path:
    path = _artifact(out_dir, name)
    if not path.exists():
        raise ConfigError(f"{path} not found; run the {producer} stage first")
    return path


def _cluster_k(cfg: PipelineConfig) -> int:
    if cfg.cluster.k is None:
        raise ConfigError("cluster.k is required: choose the number of sub-event clusters")
    return cfg.cluster.k


def _corpus_labeled(cfg: PipelineConfig) -> str:
    if not cfg.paths.corpus_labeled:
        raise ConfigError("paths.corpus_labeled is required: evaluation needs labels")
    return cfg.paths.corpus_labeled


def _vectors(cfg: PipelineConfig) -> str:
    if not cfg.paths.vectors:
        raise ConfigError("paths.vectors is required for ranking and clustering")
    return cfg.paths.vectors


def _tweet_tokens(cfg: PipelineConfig) -> TweetTokens:
    """The reader of the configured corpus files, unlabeled before labeled."""
    paths = cfg.paths
    stopwords = load_stopwords(paths.stopwords)
    files = [(path, mode) for path, mode in [(paths.corpus_unlabeled, LabelMode.UNLABELED),
                                             (paths.corpus_labeled, LabelMode.LABELED)] if path]
    if not files:
        raise ConfigError("set paths.corpus_unlabeled and/or paths.corpus_labeled")
    return TweetTokens(files, stopwords, cfg.dedupe)


def _log_dedupe(tweets: TweetTokens) -> None:
    if tweets.dedupe:
        logger.info("dedupe removed %d duplicate tweets", tweets.duplicates)


def _load_store(cfg: PipelineConfig, word_lists: Iterable[Sequence[str]]) -> EmbeddingStore:
    """The configured vectors of the words in `word_lists`; the rows of
    other words are not read."""
    return load_vectors(
        _vectors(cfg),
        OovPolicy(cfg.rank.oov_policy),
        hash_seed=cfg.cluster.seed,
        normalize_words=cfg.rank.normalize_words,
        words={word for words in word_lists for word in words},
    )


def cmd_extract(cfg: PipelineConfig, out_dir: Path) -> None:
    lexicon = load_pos_lexicon(cfg.paths.lexicon) if cfg.paths.lexicon else None
    if cfg.paths.parses is None and lexicon is None:
        raise ConfigError(
            "noun-verb extraction needs dependency parses (paths.parses) or a "
            "part-of-speech lexicon (paths.lexicon); point one of them at a file"
        )
    tweets = _tweet_tokens(cfg)
    parses = load_parses(cfg.paths.parses) if cfg.paths.parses else None
    counts = ExtractCounts(tweets.cleaner, parses, lexicon)
    for tweet_id, tokens in tweets:
        counts.add(tweet_id, tokens)
    _log_dedupe(tweets)
    if cfg.paths.parses and counts.parsed == 0:
        logger.warning("no tweet id in the corpus matched the parse file %s", cfg.paths.parses)
    result = counts.candidates(
        PhraseConfig(cfg.phrase.min_count, cfg.phrase.threshold), cfg.filter_min_freq
    )
    write_candidates(result.candidates, _artifact(out_dir, "candidates"))
    accounting = {
        "tweets": counts.tweets,
        "skipped_lines": tweets.skipped,
        "nv_before": result.nv_before,
        "nv_after": result.nv_after,
        "nv_reduction_percent": reduction_percent(result.nv_before, result.nv_after),
        "phrases": result.phrase_count,
        "candidates_before": result.nv_before + result.phrase_count,
        "total": result.total,
        "overall_reduction_percent": reduction_percent(
            result.nv_before + result.phrase_count, result.total
        ),
        "overlap": result.overlap,
    }
    write_json(_artifact(out_dir, "accounting"), accounting)
    print("extraction accounting:")
    print(f"  tweets processed:  {accounting['tweets']}")
    print(
        f"  discarded:         {tweets.skipped} malformed lines,"
        f" {tweets.duplicates} duplicate tweets"
    )
    print(
        f"  nv pair source:    {counts.parsed} parsed, {counts.fallback} lexicon fallback,"
        f" {counts.neither} neither"
    )
    print(
        f"  nv pairs (unique): {result.nv_before} -> {result.nv_after}"
        f" ({accounting['nv_reduction_percent']:.2f}% reduction)"
    )
    print(f"  phrases:           {result.phrase_count}")
    print(
        f"  candidates:        {accounting['candidates_before']} -> {result.total}"
        f" ({accounting['overall_reduction_percent']:.2f}% reduction)"
    )


def cmd_rank(cfg: PipelineConfig, out_dir: Path) -> None:
    candidates = read_candidates(_require_artifact(out_dir, "candidates", "extract"))
    if cfg.rank.method == "baseline":
        tweets = _tweet_tokens(cfg)
        ranked = rank_baseline_overlap(candidates, tweets, cfg.rank.discount)
        _log_dedupe(tweets)
    else:
        _, _, term_words = read_terms(cfg.paths.ontology)
        store = _load_store(cfg, [*(cand.words for cand in candidates), *term_words])
        ontology = load_ontology(cfg.paths.ontology, store)
        ranked = rank_candidates(candidates, ontology, store)
    write_ranked(ranked, _artifact(out_dir, "ranked"))
    print(f"ranked {len(ranked)} candidates with the {cfg.rank.method} method")
    if cfg.rank.method == "moac":
        no_vector = sum(1 for rc in ranked if rc.best_term is None)
        unusable = len(ontology) - len(ontology.usable_terms)
        print(f"  candidates without a vector: {no_vector} (scored {NULL_SCORE:g}, ranked last)")
        print(f"  terms without a vector:      {unusable} of {len(ontology)}"
              " (not used for scoring)")


def cmd_cluster(cfg: PipelineConfig, out_dir: Path) -> None:
    """Cluster the top `cluster.top_m` candidates of the ranking, composed
    from the vectors of their words only."""
    k = _cluster_k(cfg)
    ranked = read_ranked(_require_artifact(out_dir, "ranked", "rank"))
    top = ranked[: cfg.cluster.top_m]
    word_lists = [rc.candidate.words for rc in top]
    # The store is freed once composed, before the affinity is built.
    rows, null = compose_rows(word_lists, _load_store(cfg, word_lists))
    kept = [rc for rc, is_null in zip(top, null) if not is_null]
    vectors = rows[~null]
    affinity = build_affinity(vectors)
    assignment = spectral_cluster(affinity, k, cfg.cluster.seed, cfg.cluster.normalized,
                                  cache=out_dir / SPECTRUM_CACHE)
    summaries = summarize_clusters(assignment, kept, vectors)
    write_clusters(summaries, _artifact(out_dir, "clusters"))
    print(f"clustered {len(kept)} candidates into {len(summaries)} clusters")
    print(f"  top {len(top)} candidates without a vector: {int(null.sum())} (left unclustered)")


def cmd_evaluate(cfg: PipelineConfig, out_dir: Path) -> None:
    lines = CorpusLines(_corpus_labeled(cfg), LabelMode.LABELED)
    ranked = read_ranked(_require_artifact(out_dir, "ranked", "rank"))
    cleaner = TokenCleaner(load_stopwords(cfg.paths.stopwords))
    read: Counter[Label] = Counter()

    def labeled():
        for _, text, label in lines:
            read[label] += 1
            yield label, cleaner.tokens(text)

    metrics = evaluate_labeled(
        ranked, labeled(), list(cfg.eval.ks),
        nv_mode=cfg.eval.nv_match, phrase_mode=cfg.eval.phrase_match,
    )
    write_metrics(metrics, _artifact(out_dir, "metrics"))
    best = max(metrics, key=lambda m: m.f1)
    curve = roc_points(metrics)
    print(
        f"evaluated {len(metrics)} cuts: best f1 {best.f1:.4f} at k={best.k},"
        f" auc {curve.auc:.4f}"
    )
    print(
        f"  labeled file:      {read[Label.INFORMATIVE]} informative,"
        f" {read[Label.UNINFORMATIVE]} uninformative; discarded {lines.skipped} malformed"
        f" lines, {read[Label.UNLABELED]} without a label"
    )


def cmd_report(cfg: PipelineConfig, out_dir: Path) -> None:
    metrics = read_metrics(_require_artifact(out_dir, "metrics", "evaluate"))
    curve = roc_points(metrics)
    write_text(_artifact(out_dir, "f1_plot"), f1_plot_svg(metrics))
    write_text(_artifact(out_dir, "roc_plot"), roc_plot_svg(curve))
    print(f"wrote {ARTIFACTS['f1_plot']} and {ARTIFACTS['roc_plot']} (auc {curve.auc:.4f})")


def _input_hashes(cfg: PipelineConfig) -> dict:
    return {
        name: {"path": value, "sha256": sha256_file(value)}
        for name, value in vars(cfg.paths).items()
        if value and name != "out_dir"
    }


def cmd_pipeline(cfg: PipelineConfig, out_dir: Path) -> None:
    # Fail on configuration gaps before any stage runs.
    _cluster_k(cfg)
    _corpus_labeled(cfg)
    _vectors(cfg)
    timings = {}
    start = time.perf_counter()
    for name in ("extract", "rank", "cluster", "evaluate"):
        stage_start = time.perf_counter()
        COMMANDS[name](cfg, out_dir)
        timings[name] = round(time.perf_counter() - stage_start, 6)
    total = round(time.perf_counter() - start, 6)
    manifest = {
        "tool_version": __version__,
        "config": cfg.to_dict(),
        "inputs": _input_hashes(cfg),
        "artifacts": {
            name: {
                "path": ARTIFACTS[name],
                "sha256": sha256_file(str(_artifact(out_dir, name))),
            }
            for name in ("candidates", "accounting", "ranked", "clusters", "metrics")
        },
        "stage_seconds": timings,
        "total_seconds": total,
    }
    write_json(_artifact(out_dir, "manifest"), manifest)
    print(f"pipeline complete in {total:.2f}s; manifest at {_artifact(out_dir, 'manifest')}")


COMMANDS = {
    "extract": cmd_extract,
    "rank": cmd_rank,
    "cluster": cmd_cluster,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # basicConfig adds a stderr handler only to a root logger without one;
    # the package logger's level is set for this call and restored after.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    package_logger = logging.getLogger("subevents")
    level = package_logger.level
    package_logger.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg = _resolve_config(args)
        out_dir = Path(cfg.paths.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SubeventsError, OSError, ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    finally:
        package_logger.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
