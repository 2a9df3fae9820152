"""Seeded input generator for the subevents benchmark.

Builds one workload's inputs from (workload parameters, seed): the
unlabeled and labeled JSONL corpora, an optional CoNLL-U sidecar, an
optional part-of-speech lexicon, word2vec-text vectors, a term list, the
pipeline config, and ``truth.json`` with the ground truth the output
checker compares against.

Everything apart from the seed is closed-form, so one (workload, seed)
always gives the same bytes. The vocabulary is Zipfian. A small share of
malformed JSONL lines, non-tree parses and bad vector rows is planted so
the reject paths of the loaders are exercised and timed too.

Tweet shape: fillers, then one or two noun-verb clauses ``NOUN FILLER
VERB`` separated by at least three fillers, so the dependency-parse
extractor and the lexicon window fallback (window 4) both see exactly the
clause pairs. The generator therefore knows every noun-verb pair's
frequency. The filler inside a clause keeps a noun-verb pair from also
being detected as a phrase, so each planted candidate is found once.

Run directly to inspect a workload:

    python3 perfbench/generate.py bulk_parsed 1 out/bulk_parsed-1
"""

from __future__ import annotations

import json
import sys
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

DIM = 100
FILTER_MIN_FREQ = 2
SIGMA = 0.1            # spread of a planted word around its group direction
TERM_SPREAD = 0.3      # spread of a crisis group's term around its direction
# Retrieval cuts, fine enough that best F1 and the ROC area do not hinge
# on where a few candidates fall relative to a coarse cut.
EVAL_KS = [1, 2, 5, 10, 20, 50, 100, 150, 200, 300, 400, 500, 700, 1000, 1300, 1600,
           2000, 2500, 3000, 4000, 5000]
MALFORMED_SHARE = 0.004
BAD_PARSE_SHARE = 0.01
BAD_VECTOR_SHARE = 0.004

_CONS = "bcdfghklmnprstvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONS for v in _VOWELS]

# Word classes differ by ending, so no two classes can share a word and no
# generated word is an English stopword.
FILLER, BG_NOUN, BG_VERB = "ek", "om", "ir"
PLANT_NOUN, PLANT_VERB = "un", "ax"
PHRASE_A, PHRASE_B = "el", "ot"
TERM_WORD, NULL_TERM_WORD = "is", "oz"
EXTRAS = ["the", "and", "in", "of", "to", "#relief", "@newsdesk", "2024", "rt"]


@dataclass(frozen=True)
class Workload:
    n_unlabeled: int
    n_labeled: int
    parsed_share: float      # share of tweets with a CoNLL-U parse
    lexicon: bool            # write a POS lexicon for the fallback extractor
    dup_share: float         # share of unlabeled lines that copy an earlier text
    oov_share: float         # share of background words without a vector
    n_fillers: int
    n_bg_nouns: int
    n_bg_verbs: int
    crisis_groups: int       # planted groups near a term of the term list
    noise_groups: int        # planted groups away from every term
    pairs_per_group: int
    phrases_per_group: int
    top_m: int
    ks: tuple[int, ...]      # cluster.k of each timed operation in a round
    threads: int
    dedupe: bool
    oov_policy: str


def word(index: int, ending: str) -> str:
    """Letters-only pseudo-word: at least two syllables plus a class ending."""
    syl = []
    index += len(_SYLLABLES)  # guarantees two syllables
    while index:
        index, r = divmod(index, len(_SYLLABLES))
        syl.append(_SYLLABLES[r])
    return "".join(reversed(syl)) + ending


def _zipf_p(n: int, s: float = 1.07) -> np.ndarray:
    p = 1.0 / (np.arange(n) + 2.7) ** s
    return p / p.sum()


class _Zipf:
    """Zipfian draws over `words`, taken from a buffer filled in bulk."""

    def __init__(self, words: list[str], rng: np.random.Generator):
        self.words = words
        self.cdf = np.cumsum(_zipf_p(len(words)))
        self.rng = rng
        self.buf: list[str] = []
        self.pos = 0

    def take(self, n: int) -> list[str]:
        if self.pos + n > len(self.buf):
            draw = np.searchsorted(self.cdf, self.rng.random(1 << 16) * self.cdf[-1])
            fresh = [self.words[i] for i in np.minimum(draw, len(self.words) - 1).tolist()]
            self.buf, self.pos = self.buf[self.pos:] + fresh, 0
        self.pos += n
        return self.buf[self.pos - n : self.pos]


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class _Gen:
    def __init__(self, name: str, wl: Workload, seed: int):
        self.rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        rng = self.rng
        self.fillers = [word(i, FILLER) for i in range(wl.n_fillers)]
        self.nouns = [word(i, BG_NOUN) for i in range(wl.n_bg_nouns)]
        self.verbs = [word(i, BG_VERB) for i in range(wl.n_bg_verbs)]
        self.draw_filler = _Zipf(self.fillers, rng)
        self.draw_noun = _Zipf(self.nouns, rng)
        self.draw_verb = _Zipf(self.verbs, rng)

        n_groups = wl.crisis_groups + wl.noise_groups
        self.terms = [word(i, TERM_WORD) for i in range(wl.crisis_groups + 10)]
        # Groups and spare terms take orthonormal directions, so no two
        # groups lie close by chance and the quality figures vary little
        # from seed to seed. A crisis group's term lies near its direction.
        basis = np.linalg.qr(rng.standard_normal((DIM, n_groups + 10)))[0].T
        group_dirs = basis[:n_groups]
        term_vecs = np.vstack([
            _unit(group_dirs[: wl.crisis_groups]
                  + TERM_SPREAD * rng.standard_normal((wl.crisis_groups, DIM)) / np.sqrt(DIM)),
            basis[n_groups:],
        ])

        # planted candidates: (kind, first, second, group)
        self.planted: list[tuple[str, str, str, int]] = []
        vecs: dict[str, np.ndarray] = {}
        for g in range(n_groups):
            for j in range(wl.pairs_per_group):
                i = g * wl.pairs_per_group + j
                n, v = word(i, PLANT_NOUN), word(i, PLANT_VERB)
                self.planted.append(("nv", n, v, g))
            for j in range(wl.phrases_per_group):
                i = g * wl.phrases_per_group + j
                a, b = word(i, PHRASE_A), word(i, PHRASE_B)
                self.planted.append(("phrase", a, b, g))
        for _, a, b, g in self.planted:
            for w in (a, b):
                vecs[w] = _unit(group_dirs[g] + SIGMA * rng.standard_normal(DIM) / np.sqrt(DIM))
        for t, vec in zip(self.terms, term_vecs):
            vecs[t] = vec
        background = self.fillers + self.nouns + self.verbs
        has_vec = rng.random(len(background)) >= wl.oov_share
        bg_vecs = _unit(rng.standard_normal((len(background), DIM)))
        for w, keep, vec in zip(background, has_vec, bg_vecs):
            if keep:
                vecs[w] = vec
        self.vecs = vecs
        self.crisis_nv = [p for p in self.planted if p[0] == "nv" and p[3] < wl.crisis_groups]
        self.noise_nv = [p for p in self.planted if p[0] == "nv" and p[3] >= wl.crisis_groups]

    # -- tweet building ---------------------------------------------------

    def _fillers(self, n: int) -> list[str]:
        return self.draw_filler.take(n)

    def _bg_clause(self) -> tuple[str, str]:
        return self.draw_noun.take(1)[0], self.draw_verb.take(1)[0]

    def tweet(self, clauses: list[tuple[str, str]], phrase: tuple[str, str] | None):
        """Tokens with (surface, upos, role) where role is the clause index
        for clause words and -1 otherwise."""
        rng = self.rng
        toks: list[tuple[str, str, int]] = []
        for f in self._fillers(int(rng.integers(1, 4))):
            toks.append((f, "ADV", -1))
        for c, (n, v) in enumerate(clauses):
            if c:
                for f in self._fillers(3):
                    toks.append((f, "ADV", -1))
            toks.append((n, "NOUN", c))
            toks.append((self._fillers(1)[0], "ADV", -1))
            toks.append((v, "VERB", c))
        tail = self._fillers(int(rng.integers(3, 6)))
        if phrase is not None:
            tail[1:1] = list(phrase)
        for f in tail:
            toks.append((f, "ADJ" if f in (phrase or ()) else "ADV", -1))
        if rng.random() < 0.5:
            extra = EXTRAS[int(rng.integers(len(EXTRAS)))]
            pos = int(rng.integers(len(toks) + 1))
            # never right before a clause verb, so the noun stays in its window
            while 0 < pos < len(toks) and toks[pos][2] >= 0 and toks[pos][1] == "VERB":
                pos += 1
            toks.insert(pos, (extra, "X", -1))
        return toks

    def planted_slots(self, n_tweets: int) -> tuple[list[list[tuple[str, str]]], np.ndarray]:
        """Clause lists for n tweets, and each planted candidate's base
        frequency: a planted pair fills 2..30 of the clause slots, the rest
        are background noun-verb pairs."""
        rng = self.rng
        n_clauses = rng.integers(1, 3, size=n_tweets)
        slots = [(t, c) for t in range(n_tweets) for c in range(int(n_clauses[t]))]
        freqs = np.minimum(1 + rng.zipf(1.8, size=len(self.planted)), 30)
        fill: dict[tuple[int, int], tuple[str, str]] = {}
        order = rng.permutation(len(slots))
        pos = 0
        for (kind, a, b, _), f in zip(self.planted, freqs):
            if kind != "nv":
                continue
            for _ in range(int(f)):
                fill[slots[order[pos]]] = (a, b)
                pos += 1
        out = []
        for t in range(n_tweets):
            out.append([fill.get((t, c)) or self._bg_clause() for c in range(int(n_clauses[t]))])
        return out, freqs


def _conllu(tweet_id: str, toks: list[tuple[str, str, int]], broken: bool) -> list[str]:
    root = next(i for i, t in enumerate(toks) if t[1] == "VERB") + 1
    verb_of = {t[2]: i + 1 for i, t in enumerate(toks) if t[1] == "VERB"}
    lines = [f"# tweet_id = {tweet_id}"]
    for i, (surface, upos, role) in enumerate(toks, start=1):
        if i == root:
            head = 0
        elif upos == "NOUN":
            head = verb_of[role]
        else:
            head = root
        if broken and i == len(toks) and head != 0:
            head = 0  # a second root: not a tree, so the loader drops it
        lines.append(f"{i}\t{surface}\t{surface.lower()}\t{upos}\t_\t_\t{head}\t_\t_\t_")
    lines.append("")
    return lines


def _malformed(i: int) -> str:
    kinds = [
        '{"id": "bad%d", "text": "truncated' % i,
        '["not", "an", "object"]',
        '{"id": %d, "text": "numeric id"}' % i,
        '{"id": "bad%d"}' % i,
    ]
    return kinds[i % len(kinds)]


def generate(name: str, wl: Workload, seed: int, out: Path) -> dict:
    """Write the workload's inputs into `out` and return the ground truth."""
    out.mkdir(parents=True, exist_ok=True)
    gen = _Gen(name, wl, seed)
    rng = gen.rng

    # Unlabeled tweets: the base tweets carry every planted clause; the
    # duplicates (retweets) copy the text of a base tweet under a new id.
    n_dup = int(round(wl.n_unlabeled * wl.dup_share))
    n_base = wl.n_unlabeled - n_dup
    clause_lists, freqs = gen.planted_slots(n_base)
    phrases = [p for p in gen.planted if p[0] == "phrase"]
    phrase_at: dict[int, tuple[str, str]] = {}
    phrase_freqs = [int(f) + 2 for (kind, *_), f in zip(gen.planted, freqs) if kind == "phrase"]
    free = rng.permutation(n_base)
    pos = 0
    for (_, a, b, _), f in zip(phrases, phrase_freqs):
        for _ in range(f):
            phrase_at[int(free[pos])] = (a, b)
            pos += 1
    base = []
    for t in range(n_base):
        base.append(gen.tweet(clause_lists[t], phrase_at.get(t)))
    unlabeled = [(f"u{t:06d}", toks) for t, toks in enumerate(base)]
    popular = _zipf_p(n_base, 1.0)
    for d, src in enumerate(rng.choice(n_base, size=n_dup, p=popular)):
        unlabeled.append((f"r{d:06d}", base[int(src)]))
    if n_dup:
        unlabeled = [unlabeled[i] for i in rng.permutation(len(unlabeled))]

    # Labeled tweets: informative ones mostly hold a crisis pair, the rest
    # are hard positives with background pairs only; uninformative ones
    # hold a noise pair, background only, or (hard negatives) a crisis pair.
    n_inf = round(wl.n_labeled * 0.45)
    n_hard_pos = round(n_inf * 0.15)
    n_noise = round((wl.n_labeled - n_inf) * 0.5)
    n_hard_neg = round((wl.n_labeled - n_inf) * 0.1)
    kinds = ([(True, "crisis")] * (n_inf - n_hard_pos) + [(True, None)] * n_hard_pos
             + [(False, "noise")] * n_noise + [(False, "crisis")] * n_hard_neg)
    kinds += [(False, None)] * (wl.n_labeled - len(kinds))
    pools = {"crisis": gen.crisis_nv, "noise": gen.noise_nv}
    turn = dict.fromkeys(pools, 0)
    labeled = []
    for t, i in enumerate(rng.permutation(wl.n_labeled)):
        informative, pool = kinds[i]
        if pool is None:
            clause = gen._bg_clause()
        else:  # round-robin over the pool, so every planted pair is used evenly
            clause = pools[pool][turn[pool] % len(pools[pool])][1:3]
            turn[pool] += 1
        clauses = [clause] + ([gen._bg_clause()] if rng.random() < 0.5 else [])
        labeled.append((f"l{t:06d}", gen.tweet(clauses, None), informative))

    # Which tweets carry a parse, and which of those parses are broken.
    tweets = unlabeled + [(tid, toks) for tid, toks, _ in labeled]
    all_ids = [tid for tid, _ in tweets]
    parsed = set()
    broken = set()
    if wl.parsed_share > 0:
        roll = rng.random(len(all_ids))
        parsed = {tid for tid, r in zip(all_ids, roll) if r < wl.parsed_share}
        planted_words = {a for _, a, _, _ in gen.planted}
        for tid, toks in tweets:
            if tid in parsed and not any(s in planted_words for s, _, _ in toks):
                if rng.random() < BAD_PARSE_SHARE:
                    broken.add(tid)

    def text(toks):
        words = [s for s, _, _ in toks]
        words[0] = words[0].capitalize()
        return " ".join(words)

    # Write corpora with malformed lines planted between valid ones.
    skipped = 0
    for fname, rows in (
        ("unlabeled.jsonl", [(tid, toks, None) for tid, toks in unlabeled]),
        ("labeled.jsonl", [(tid, toks, "informative" if inf else "uninformative")
                           for tid, toks, inf in labeled]),
    ):
        lines = []
        for tid, toks, label in rows:
            if rng.random() < MALFORMED_SHARE:
                lines.append(_malformed(skipped))
                skipped += 1
            obj = {"id": tid, "text": text(toks)}
            if label is not None:
                obj["label"] = label
            lines.append(json.dumps(obj))
        (out / fname).write_text("\n".join(lines) + "\n", encoding="utf-8")

    conllu: list[str] = []
    for tid, toks in tweets:
        if tid in parsed:
            conllu.extend(_conllu(tid, toks, tid in broken))
    if parsed:
        (out / "parses.conllu").write_text("\n".join(conllu) + "\n", encoding="utf-8")

    if wl.lexicon:
        lex = [f"{w}\tN" for w in gen.nouns] + [f"{w}\tV" for w in gen.verbs]
        lex += [f"{a}\tN\n{b}\tV" for kind, a, b, _ in gen.planted if kind == "nv"]
        (out / "lexicon.tsv").write_text("\n".join(lex) + "\n", encoding="utf-8")

    # Vectors: good rows, then bad rows (wrong arity, non-finite,
    # non-numeric, a second row for a known word); header counts every row.
    vec_rows = [w + " " + " ".join(f"{x:.6f}" for x in v) for w, v in gen.vecs.items()]
    n_bad = max(4, int(len(vec_rows) * BAD_VECTOR_SHARE))
    known = list(gen.vecs)
    for i in range(n_bad):
        w = word(i, NULL_TERM_WORD)
        vals = [f"{x:.6f}" for x in rng.standard_normal(DIM) / 10]
        kind = i % 4
        if kind == 0:
            vals = vals[:-1]
        elif kind == 1:
            vals[3] = "nan"
        elif kind == 2:
            vals[5] = "x1"
        else:
            w = known[int(rng.integers(len(known) // 2))]  # after its good row
        vec_rows.insert(int(rng.integers(len(vec_rows) // 2, len(vec_rows) + 1)), w + " " + " ".join(vals))
    (out / "vectors.txt").write_text(f"{len(vec_rows)} {DIM}\n" + "\n".join(vec_rows) + "\n",
                                     encoding="utf-8")

    # Term list: one single-word term per group direction plus spare
    # single-word terms, a few two-word terms, and two terms with no vector.
    terms = list(gen.terms)
    terms += [f"{gen.terms[i]} {gen.terms[-1 - i]}" for i in range(4)]
    terms += [word(i, NULL_TERM_WORD) for i in range(1000, 1002)]
    (out / "terms.txt").write_text("# generated term list\n" + "\n".join(terms) + "\n",
                                   encoding="utf-8")

    config = {
        "paths": {
            "corpus_unlabeled": str(out / "unlabeled.jsonl"),
            "corpus_labeled": str(out / "labeled.jsonl"),
            "parses": str(out / "parses.conllu") if parsed else None,
            "lexicon": str(out / "lexicon.tsv") if wl.lexicon else None,
            "vectors": str(out / "vectors.txt"),
            "ontology": str(out / "terms.txt"),
            "out_dir": str(out / "out"),
        },
        "filter_min_freq": FILTER_MIN_FREQ,
        "dedupe": wl.dedupe,
        "rank": {"method": "moac", "oov_policy": wl.oov_policy},
        "cluster": {"k": wl.ks[0], "top_m": wl.top_m, "seed": 0},
        # A cut at top_m holds exactly the planted crisis candidates, so best
        # F1 does not depend on where the background pairs rank.
        "eval": {"ks": sorted(set(EVAL_KS) | {wl.top_m})},
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    # Ground truth the checker uses. Extraction applies to a kept tweet
    # through its parse, else through the lexicon when there is one.
    seen: set[str] = set()
    nv_freq: dict[tuple[str, str], int] = {}
    kept = 0
    for tid, toks in tweets:
        t = text(toks)
        if wl.dedupe and t in seen:
            continue
        seen.add(t)
        kept += 1
        if (tid in parsed and tid not in broken) or wl.lexicon:
            nouns = [(s, role) for s, upos, role in toks if upos == "NOUN"]
            verbs = {role: s for s, upos, role in toks if upos == "VERB"}
            for n, role in nouns:
                key = (n, verbs[role])
                nv_freq[key] = nv_freq.get(key, 0) + 1
    planted = [
        {"kind": kind, "first": a, "second": b, "group": g,
         "crisis": g < wl.crisis_groups,
         "expected_freq": nv_freq.get((a, b), 0) if kind == "nv" else None}
        for kind, a, b, g in gen.planted
    ]
    truth = {
        "workload": name,
        "seed": seed,
        "params": asdict(wl),
        "tweets": kept,
        "skipped_lines": skipped,
        "nv_before": len(nv_freq),
        "nv_after": sum(1 for f in nv_freq.values() if f >= FILTER_MIN_FREQ),
        "n_informative": n_inf,
        "n_uninformative": wl.n_labeled - n_inf,
        "filter_min_freq": FILTER_MIN_FREQ,
        "vector_rows": len(vec_rows),
        "parse_sentences": len(parsed),
        "planted": planted,
        "properties": _properties([text(toks) for _, toks in tweets], gen.vecs, len(parsed)),
    }
    (out / "truth.json").write_text(json.dumps(truth, indent=1) + "\n", encoding="utf-8")
    return truth


def _properties(texts: list[str], vecs: dict, n_parsed: int) -> dict:
    """Input properties later optimisations depend on, over the valid
    tweets of both corpora."""
    raw = 0
    distinct: set[str] = set()
    for t in texts:
        toks = t.lower().split()
        raw += len(toks)
        distinct.update(toks)
    vocab = {w for w in distinct if w.isalpha() and len(w) >= 3 and w not in EXTRAS}
    return {
        "distinct_token_share": len(distinct) / raw,
        "parsed_share": n_parsed / len(texts),
        "duplicate_share": 1.0 - len(set(texts)) / len(texts),
        "oov_share": sum(1 for w in vocab if w not in vecs) / len(vocab),
    }


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent))
    from workloads import WORKLOADS  # noqa: E402

    name, seed, target = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    print(json.dumps(generate(name, WORKLOADS[name], seed, target)["properties"]))
