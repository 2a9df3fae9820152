"""Detect, rank, and cluster crisis sub-events from tweet corpora.

Pipeline: clean tweet tokens, extract noun-verb pairs (dependency parses)
and two-word phrases (collocation scoring), frequency-filter them into
candidates, rank candidates by embedding similarity to a crisis term
list, spectrally cluster the top of the ranking, and evaluate how well
the ranking retrieves labeled informative tweets.
"""

from .cluster import (
    AffinityMatrix,
    build_affinity,
    eig_topk,
    kmeans,
    spectral_cluster,
    summarize_clusters,
)
from .config import PipelineConfig, load_config
from .corpus import Label, LabelMode, TweetTokens, load_parses, load_stopwords
from .embed import ComposedVector, EmbeddingStore, OovPolicy, compose, load_vectors
from .errors import ConfigError, InputFormatError, SubeventsError
from .evaluate import MetricsPoint, RocCurve, evaluate_labeled, roc_points
from .extract import (
    Candidate,
    CandidateKind,
    CandidateSet,
    ExtractCounts,
    PhraseConfig,
    phrase_score,
)
from .rank import Ontology, RankedCandidate, load_ontology, rank_baseline_overlap, rank_candidates

__version__ = "0.1.0"

__all__ = [
    "AffinityMatrix",
    "Candidate",
    "CandidateKind",
    "CandidateSet",
    "ComposedVector",
    "ConfigError",
    "EmbeddingStore",
    "ExtractCounts",
    "InputFormatError",
    "Label",
    "LabelMode",
    "MetricsPoint",
    "Ontology",
    "OovPolicy",
    "PhraseConfig",
    "PipelineConfig",
    "RankedCandidate",
    "RocCurve",
    "SubeventsError",
    "TweetTokens",
    "build_affinity",
    "compose",
    "eig_topk",
    "evaluate_labeled",
    "kmeans",
    "load_config",
    "load_ontology",
    "load_parses",
    "load_stopwords",
    "load_vectors",
    "phrase_score",
    "rank_baseline_overlap",
    "rank_candidates",
    "roc_points",
    "spectral_cluster",
    "summarize_clusters",
    "__version__",
]
