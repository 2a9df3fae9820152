"""Detect, rank, and cluster crisis sub-events from tweet corpora.

Pipeline: preprocess tweets, extract noun-verb pairs (dependency parses)
and two-word phrases (collocation scoring), frequency-filter them into
candidates, rank candidates by embedding similarity to a crisis term
list, spectrally cluster the top of the ranking, and evaluate how well
the ranking retrieves labeled informative tweets.
"""

from .cluster import (
    AffinityMatrix,
    ClusterAssignment,
    build_affinity,
    eig_topk,
    kmeans,
    spectral_cluster,
    summarize_clusters,
)
from .config import PipelineConfig, load_config
from .corpus import (
    Corpus,
    Label,
    LabelMode,
    Tweet,
    TweetTokens,
    load_corpus,
    load_parses,
    load_stopwords,
    preprocess,
    preprocess_corpus,
)
from .embed import ComposedVector, EmbeddingStore, OovPolicy, compose, load_vectors
from .errors import ConfigError, InputFormatError, SubeventsError
from .evaluate import (
    MatchIndex,
    MetricsPoint,
    RocCurve,
    evaluate_at_k,
    evaluate_labeled,
    roc_points,
)
from .extract import (
    Candidate,
    CandidateKind,
    CandidateSet,
    ExtractCounts,
    PhraseConfig,
    detect_phrases,
    extract_nv_pairs,
    extract_nv_pairs_fallback,
    filter_candidates,
    phrase_score,
)
from .rank import Ontology, RankedCandidate, load_ontology, rank_baseline_overlap, rank_candidates

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "Candidate",
    "CandidateKind",
    "CandidateSet",
    "ClusterAssignment",
    "ComposedVector",
    "ConfigError",
    "Corpus",
    "EmbeddingStore",
    "ExtractCounts",
    "InputFormatError",
    "Label",
    "LabelMode",
    "MatchIndex",
    "MetricsPoint",
    "Ontology",
    "OovPolicy",
    "PhraseConfig",
    "PipelineConfig",
    "RankedCandidate",
    "RocCurve",
    "SubeventsError",
    "Tweet",
    "TweetTokens",
    "build_affinity",
    "compose",
    "detect_phrases",
    "eig_topk",
    "evaluate_at_k",
    "evaluate_labeled",
    "extract_nv_pairs",
    "extract_nv_pairs_fallback",
    "filter_candidates",
    "kmeans",
    "load_config",
    "load_corpus",
    "load_ontology",
    "load_parses",
    "load_stopwords",
    "load_vectors",
    "phrase_score",
    "preprocess",
    "preprocess_corpus",
    "rank_baseline_overlap",
    "rank_candidates",
    "roc_points",
    "spectral_cluster",
    "summarize_clusters",
    "__version__",
]
