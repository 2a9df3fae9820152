"""The benchmark's workloads: generator parameters and why each exists.

On every workload top_m is the number of planted crisis candidates
(crisis_groups x (pairs_per_group + phrases_per_group)), which rank far
above everything else, so the clustered set is exactly those candidates
and the cluster.k equal to crisis_groups can recover the planted groups.
"""

from generate import Workload

WORKLOADS = {
    # corpus + extract do most of the work, cluster is small (top_m=240)
    "bulk_parsed": Workload(
        n_unlabeled=24000, n_labeled=2400, parsed_share=0.8, lexicon=True,
        dup_share=0.0, oov_share=0.0, n_fillers=6000, n_bg_nouns=1500, n_bg_verbs=600,
        crisis_groups=20, noise_groups=10, pairs_per_group=10, phrases_per_group=2,
        top_m=240, ks=(20,), threads=1, dedupe=False, oov_policy="skip",
    ),
    # stage-alone cluster at three k: eigensolver, k-means and the dense affinity
    "cluster_sweep": Workload(
        n_unlabeled=7000, n_labeled=2000, parsed_share=1.0, lexicon=False,
        dup_share=0.0, oov_share=0.0, n_fillers=3000, n_bg_nouns=800, n_bg_verbs=300,
        crisis_groups=20, noise_groups=5, pairs_per_group=72, phrases_per_group=3,
        top_m=1500, ks=(20, 40, 80), threads=1, dedupe=False, oov_policy="skip",
    ),
    # no parses, 30% retweets with dedupe, half the vocabulary OOV, two threads
    "retweet_fallback": Workload(
        n_unlabeled=22000, n_labeled=2200, parsed_share=0.0, lexicon=True,
        dup_share=0.3, oov_share=0.5, n_fillers=5000, n_bg_nouns=1200, n_bg_verbs=500,
        crisis_groups=20, noise_groups=10, pairs_per_group=10, phrases_per_group=2,
        top_m=240, ks=(20,), threads=2, dedupe=True, oov_policy="subword",
    ),
}
