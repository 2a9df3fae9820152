"""Command-line interface orchestrating the sub-event pipeline.

Each subcommand reads its inputs from the files named in the config and
the artifacts of the prior stage, so any stage can be re-run on its own.
Exit codes: 0 success, 1 usage or configuration error, 2 data or format
error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from ._util import sha256_file, write_json, write_text
from .cluster import build_affinity, spectral_cluster, summarize_clusters
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
from .errors import ConfigError, InputFormatError, SubeventsError
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

Need = tuple[Callable[[PipelineConfig], object], str]
_CORPUS: Need = (lambda cfg: cfg.paths.corpus_unlabeled or cfg.paths.corpus_labeled,
                 "set paths.corpus_unlabeled and/or paths.corpus_labeled")
_VECTORS: Need = (lambda cfg: cfg.paths.vectors,
                  "paths.vectors is required for ranking and clustering")


def _under(method: str, need: Need) -> Need:
    """`need`, checked only when rank.method is `method`."""
    test, message = need
    return (lambda cfg: cfg.rank.method != method or test(cfg)), message


@dataclass(frozen=True)
class Stage:
    """What a command needs of the config, as (test, error message) pairs
    checked in order, and the ARTIFACTS it reads and writes in out_dir. A
    command that `runs` other stages has their needs and writes too."""

    help: str
    needs: tuple[Need, ...] = ()
    reads: tuple[str, ...] = ()
    writes: tuple[str, ...] = ()
    runs: tuple[str, ...] = ()


PIPELINE = ("extract", "rank", "cluster", "evaluate")
STAGES = {
    "extract": Stage(
        "extract and filter candidate sub-events",
        needs=((lambda cfg: cfg.paths.parses or cfg.paths.lexicon,
                "noun-verb extraction needs dependency parses (paths.parses) or a "
                "part-of-speech lexicon (paths.lexicon); point one of them at a file"),
               _CORPUS),
        writes=("candidates", "accounting")),
    "rank": Stage(
        "rank candidates against the crisis term list",
        needs=(_under("moac", _VECTORS), _under("baseline", _CORPUS)),
        reads=("candidates",), writes=("ranked",)),
    "cluster": Stage(
        "group top-ranked candidates into sub-event clusters",
        needs=((lambda cfg: cfg.cluster.k is not None,
                "cluster.k is required: choose the number of sub-event clusters"), _VECTORS),
        reads=("ranked",), writes=("clusters",)),
    "evaluate": Stage(
        "score the ranking against labeled tweets",
        needs=((lambda cfg: cfg.paths.corpus_labeled,
                "paths.corpus_labeled is required: evaluation needs labels"),),
        reads=("ranked",), writes=("metrics",)),
    "pipeline": Stage(
        "run extract, rank, cluster, and evaluate in sequence",
        writes=("manifest",), runs=PIPELINE),
    "report": Stage(
        "render F1 and ROC plots from the metrics artifact",
        reads=("metrics",), writes=("f1_plot", "roc_plot")),
}
PRODUCER = {artifact: name for name, stage in STAGES.items() for artifact in stage.writes}
# The artifacts whose checksums manifest.json records, in pipeline order.
MANIFESTED = tuple(artifact for name in PIPELINE for artifact in STAGES[name].writes)
# Keys of every manifest.json cmd_pipeline writes: a file without them is
# not the package's, and no command removes or overwrites it.
MANIFEST_KEYS = ("tool_version", "artifacts", "stage_seconds")


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
    for name, stage in STAGES.items():
        _add_common(sub.add_parser(name, help=stage.help, epilog=parser.epilog))
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


def _prepare(command: str, cfg: PipelineConfig, out_dir: Path) -> None:
    """Check the needs of `command` (of each stage it runs, in turn), the
    artifacts it reads and, if it writes manifest.json, that a file there is
    the package's own, before out_dir is made; then drop the package's
    manifest.json that the command's writes would leave stale. A
    manifest.json the package did not write is never removed. The stages a
    command runs write what each later one reads (tests check it)."""
    spec = STAGES[command]
    stages = [*(STAGES[name] for name in spec.runs), spec]
    for test, message in (need for stage in stages for need in stage.needs):
        if not test(cfg):
            raise ConfigError(message)
    for name in spec.reads:
        path = _artifact(out_dir, name)
        if not path.exists():
            raise ConfigError(f"{path} not found; run the {PRODUCER[name]} stage first")
    manifest = _artifact(out_dir, "manifest")
    foreign = manifest.exists() and not _own_manifest(manifest)
    if foreign and "manifest" in spec.writes:
        raise ConfigError(f"{manifest} was not written by subevents; move it or choose"
                          " another paths.out_dir")
    out_dir.mkdir(parents=True, exist_ok=True)
    if not foreign and any(name in MANIFESTED for stage in stages for name in stage.writes):
        manifest.unlink(missing_ok=True)


def _own_manifest(path: Path) -> bool:
    """Whether `path` reads as a JSON object with the keys cmd_pipeline
    writes; a file that cannot be read or parsed is not the package's."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        return False
    return isinstance(data, dict) and all(key in data for key in MANIFEST_KEYS)


def _tweet_tokens(cfg: PipelineConfig) -> TweetTokens:
    """The reader of the configured corpus files, unlabeled before labeled."""
    paths = cfg.paths
    stopwords = load_stopwords(paths.stopwords)
    files = [(path, mode) for path, mode in [(paths.corpus_unlabeled, LabelMode.UNLABELED),
                                             (paths.corpus_labeled, LabelMode.LABELED)] if path]
    return TweetTokens(files, stopwords, cfg.dedupe)


def _log_dedupe(tweets: TweetTokens) -> None:
    if tweets.dedupe:
        logger.info("dedupe removed %d duplicate tweets", tweets.duplicates)


def _print_discarded(tweets: TweetTokens) -> None:
    print(f"  discarded:         {tweets.skipped} malformed lines,"
          f" {tweets.duplicates} duplicate tweets")


def _load_store(cfg: PipelineConfig, word_lists: Iterable[Sequence[str]]) -> EmbeddingStore:
    """The configured vectors of the words in `word_lists`; the rows of
    other words are not read."""
    return load_vectors(
        cfg.paths.vectors,
        OovPolicy(cfg.rank.oov_policy),
        hash_seed=cfg.cluster.seed,
        normalize_words=cfg.rank.normalize_words,
        words={word for words in word_lists for word in words},
    )


def cmd_extract(cfg: PipelineConfig, out_dir: Path) -> None:
    lexicon = load_pos_lexicon(cfg.paths.lexicon) if cfg.paths.lexicon else None
    tweets = _tweet_tokens(cfg)
    parses = load_parses(cfg.paths.parses) if cfg.paths.parses else None
    counts = ExtractCounts(tweets.cleaner, parses, lexicon)
    counts.add_texts(tweets.texts())
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
    _print_discarded(tweets)
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
    candidates = read_candidates(_artifact(out_dir, "candidates"))
    if cfg.rank.method == "baseline":
        tweets = _tweet_tokens(cfg)
        ranked = rank_baseline_overlap(candidates, tweets.texts(), tweets.cleaner,
                                       cfg.rank.discount)
        _log_dedupe(tweets)
    else:
        term_list = read_terms(cfg.paths.ontology)
        store = _load_store(cfg, [*(cand.words for cand in candidates), *term_list[2]])
        ontology = load_ontology(term_list, store)
        ranked = rank_candidates(candidates, ontology, store)
    write_ranked(ranked, _artifact(out_dir, "ranked"))
    print(f"ranked {len(ranked)} candidates with the {cfg.rank.method} method")
    if cfg.rank.method == "baseline":
        _print_discarded(tweets)
    else:
        no_vector = sum(1 for rc in ranked if rc.best_term is None)
        unusable = len(ontology) - len(ontology.usable_terms)
        print(f"  candidates without a vector: {no_vector} (scored {NULL_SCORE:g}, ranked last)")
        print(f"  terms without a vector:      {unusable} of {len(ontology)}"
              " (not used for scoring)")


def cmd_cluster(cfg: PipelineConfig, out_dir: Path) -> None:
    """Cluster the top `cluster.top_m` candidates of the ranking, composed
    from the vectors of their words only."""
    ranked = read_ranked(_artifact(out_dir, "ranked"))
    top = ranked[: cfg.cluster.top_m]
    word_lists = [rc.candidate.words for rc in top]
    # The store is freed once composed, before the affinity is built.
    rows, null = compose_rows(word_lists, _load_store(cfg, word_lists))
    kept = [rc for rc, is_null in zip(top, null) if not is_null]
    # The config holds k >= 2, which build_affinity needs too.
    if len(kept) < cfg.cluster.k:
        raise InputFormatError(
            f"cannot cluster into cluster.k {cfg.cluster.k} clusters: {len(kept)} of the top"
            f" {len(top)} candidates (cluster.top_m {cfg.cluster.top_m}) have a vector, and at"
            f" least {cfg.cluster.k} are needed")
    vectors = rows[~null]
    affinity = build_affinity(vectors)
    labels = spectral_cluster(affinity, cfg.cluster.k, cfg.cluster.seed,
                              cfg.cluster.normalized, cache=out_dir / SPECTRUM_CACHE)
    summaries = summarize_clusters(labels, kept, vectors)
    write_json(_artifact(out_dir, "clusters"), summaries)
    print(f"clustered {len(kept)} candidates into {len(summaries)} clusters")
    print(f"  top {len(top)} candidates without a vector: {int(null.sum())} (left unclustered)")


def cmd_evaluate(cfg: PipelineConfig, out_dir: Path) -> None:
    lines = CorpusLines(cfg.paths.corpus_labeled, LabelMode.LABELED)
    ranked = read_ranked(_artifact(out_dir, "ranked"))
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
    metrics = read_metrics(_artifact(out_dir, "metrics"))
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
    timings = {}
    start = time.perf_counter()
    for name in PIPELINE:
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
            for name in MANIFESTED
        },
        "stage_seconds": timings,
        "total_seconds": total,
    }
    write_json(_artifact(out_dir, "manifest"), manifest)
    print(f"pipeline complete in {total:.2f}s; manifest at {_artifact(out_dir, 'manifest')}")


# Each command's handler, cmd_<command>; main and pipeline dispatch through this dict.
COMMANDS = {name: globals()[f"cmd_{name}"] for name in STAGES}


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
        _prepare(args.command, cfg, out_dir)
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
