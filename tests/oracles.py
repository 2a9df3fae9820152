"""Independent reference implementations used only by tests.

These deliberately avoid the package's own numerics: the eigensolver is a
dense cyclic Jacobi, the ranking oracle composes and compares vectors with
plain Python floats, and the ARI comes straight from the contingency-table
formula. Slow is fine; independent is the point.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from typing import NamedTuple

import numpy as np

logger = logging.getLogger(__name__)


def jacobi_eigh(matrix, tol: float = 1e-12, max_sweeps: int = 100):
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi
    rotations. Returns (values, vectors) with values descending and
    vectors as columns."""
    a = np.array(matrix, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(max_sweeps):
        off = math.sqrt(sum(a[p, q] ** 2 for p in range(n) for q in range(n) if p != q))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= tol / (n * n):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    else:
        raise ArithmeticError("jacobi oracle did not converge")
    order = np.argsort(-np.diag(a), kind="stable")
    return np.diag(a)[order], v[:, order]


def _py_cosine(u: list[float], v: list[float]) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def brute_force_rank(candidates, word_vectors: dict[str, list[float]], terms):
    """Reference ranking: plain-Python composition and max-cosine scan.

    `candidates` are (kind, first, second, frequency) tuples; `terms` are
    (name, words) pairs. Returns the sorted list of
    (kind, first, second, frequency, score, best_term) with the same
    ordering contract as the implementation: score desc, frequency desc,
    (first, second, kind) ascending; candidates with no known words score
    -1 with no best term.
    """
    dim = len(next(iter(word_vectors.values())))
    term_vecs = []
    for name, words in terms:
        total = [0.0] * dim
        known = 0
        for word in words:
            vec = word_vectors.get(word)
            if vec is None:
                continue
            known += 1
            for i in range(dim):
                total[i] += vec[i]
        if known and any(x != 0.0 for x in total):
            term_vecs.append((name, total))
    scored = []
    for kind, first, second, freq in candidates:
        total = [0.0] * dim
        known = 0
        for word in (first, second):
            vec = word_vectors.get(word)
            if vec is None:
                continue
            known += 1
            for i in range(dim):
                total[i] += vec[i]
        if known == 0 or all(x == 0.0 for x in total):
            scored.append((kind, first, second, freq, -1.0, None))
            continue
        best_score = -math.inf
        best_term = None
        for name, tvec in term_vecs:
            sim = _py_cosine(total, tvec)
            if sim > best_score:
                best_score = sim
                best_term = name
        scored.append((kind, first, second, freq, best_score, best_term))
    scored.sort(key=lambda row: (-row[4], -row[3], row[1], row[2], row[0]))
    return scored


def reference_overlap(candidates, texts, stopwords):
    """Reference overlap baseline on str tokens: each text of the
    ``(tweet_id, raw_text)`` pairs lowercased, split on whitespace and
    cleaned by ``clean_token``; per candidate word, the set of ids of the
    tweets whose tokens hold it, scored as |A∩B| / min(|A|, |B|) times
    log(1 + |A∩B|), and 0 for an empty set. `candidates` are (kind, first, second, frequency) tuples.
    Returns the sorted list of (kind, first, second, frequency, score) with
    the ordering contract of ``brute_force_rank``."""
    from subevents.corpus import clean_token

    postings = {word: set() for _, first, second, _ in candidates for word in (first, second)}
    for tweet_id, text in texts:
        tokens = [token for raw in text.lower().split()
                  if (token := clean_token(raw, stopwords)) is not None]
        for token in tokens:
            ids = postings.get(token)
            if ids is not None:
                ids.add(tweet_id)
    scored = []
    for kind, first, second, freq in candidates:
        ids_a = postings[first]
        ids_b = postings[second]
        smaller = min(len(ids_a), len(ids_b))
        if smaller == 0:
            scored.append((kind, first, second, freq, 0.0))
            continue
        co_count = len(ids_a & ids_b)
        score = co_count / smaller
        score *= math.log1p(co_count)
        scored.append((kind, first, second, freq, score))
    scored.sort(key=lambda row: (-row[4], -row[3], row[1], row[2], row[0]))
    return scored


def adjusted_rand_index(labels_a, labels_b) -> float:
    """ARI from the contingency table; 1.0 iff the partitions agree."""
    if len(labels_a) != len(labels_b):
        raise ValueError("label lists must align")
    n = len(labels_a)
    contingency: Counter = Counter(zip(labels_a, labels_b))
    sum_cells = sum(math.comb(c, 2) for c in contingency.values())
    sum_rows = sum(math.comb(c, 2) for c in Counter(labels_a).values())
    sum_cols = sum(math.comb(c, 2) for c in Counter(labels_b).values())
    total = math.comb(n, 2)
    expected = sum_rows * sum_cols / total if total else 0.0
    max_index = (sum_rows + sum_cols) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_cells - expected) / (max_index - expected)


def brute_force_confusion(tweets, candidates, k):
    """Reference top-k confusion counts via a full double loop.

    `tweets` are (tokens, is_informative) pairs; `candidates` are
    (kind, first, second) in rank order. An nv candidate matches when both
    words are anywhere in the tweet, a phrase when (first, second) is an
    adjacent ordered pair.
    """
    top = candidates[:k]
    tp = fp = fn = tn = 0
    for tokens, informative in tweets:
        token_set = set(tokens)
        bigrams = set(zip(tokens, tokens[1:]))
        matched = False
        for kind, first, second in top:
            if kind == "nv":
                if first in token_set and second in token_set:
                    matched = True
                    break
            else:
                if (first, second) in bigrams:
                    matched = True
                    break
        if informative:
            tp += matched
            fn += not matched
        else:
            fp += matched
            tn += not matched
    return tp, fp, fn, tn


def tweet_matches(tokens, kind, first, second):
    """Reference match of one candidate against one tweet's tokens by a
    direct scan. `kind` is "nv", which needs both words anywhere in the
    tweet, or "phrase", which needs (first, second) as an adjacent ordered
    pair."""
    if kind == "nv":
        return first in tokens and second in tokens
    return any(tokens[i] == first and tokens[i + 1] == second for i in range(len(tokens) - 1))


def reference_kmeans(points, k: int, seed: int, max_iter: int = 300, tol: float = 1e-6):
    """Lloyd iterations from k-means++ seeding with one (n, k, d) difference
    array per assignment: the package's k-means as first written.

    Not independent: it makes the same random draws and the same float
    operations as `subevents.cluster.kmeans` in every step that decides a
    label or an inertia term, so the two must agree bit for bit. The
    package screens the assignment with a matrix product first and
    decides only the near ties with these sums; this one sums every
    (point, center) pair.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, pts.shape[1]), dtype=np.float64)
    centers[0] = pts[int(rng.integers(n))]
    nearest_sq = ((pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = float(nearest_sq.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=nearest_sq / total))
        centers[c] = pts[idx]
        nearest_sq = np.minimum(nearest_sq, ((pts - centers[c]) ** 2).sum(axis=1))
    history = []
    labels = np.zeros(n, dtype=np.int64)
    prev = math.inf
    for _ in range(max_iter):
        dists = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = np.argmin(dists, axis=1)
        inertia = float(dists[np.arange(n), labels].sum())
        history.append(inertia)
        if math.isfinite(prev) and prev - inertia <= tol * max(prev, 1e-12):
            break
        prev = inertia
        contributions = dists[np.arange(n), labels]
        taken: set[int] = set()
        for c in range(k):
            members = pts[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
                continue
            order = np.argsort(-contributions, kind="stable")
            far = next(int(i) for i in order if int(i) not in taken)
            taken.add(far)
            centers[c] = pts[far]
    return labels, centers, history


class _Node(NamedTuple):
    index: int
    surface: str
    upos: str
    head: int


def _reference_tree_error(nodes) -> str | None:
    """The first invariant a sentence's nodes break, as ``load_parses``
    words it, or None for a tree (full walk from every node)."""
    n = len(nodes)
    for i, node in enumerate(nodes):
        if node.index != i + 1:
            return f"node index {node.index} at position {i}"
        if not 0 <= node.head <= n:
            return f"head {node.head} out of range [0, {n}]"
    roots = sum(1 for node in nodes if node.head == 0)
    if roots != 1:
        return f"expected exactly one root, found {roots}"
    for start in range(1, n + 1):
        seen = set()
        current = start
        while current != 0:
            if current in seen:
                return f"cycle through node {current}"
            seen.add(current)
            current = nodes[current - 1].head
    return None


def reference_nv_edges(nodes) -> tuple[tuple[str, str], ...]:
    """(noun, verb) surface forms of the noun-verb edges of one sentence
    from `reference_load_parses`, noun first, in node order."""
    return tuple(_nv_edges(nodes))


def _nv_edges(nodes):
    nouns = {"NOUN", "PROPN"}
    for node in nodes:
        if node.head == 0:
            continue
        parent = nodes[node.head - 1]
        if node.upos in nouns and parent.upos == "VERB":
            yield node.surface, parent.surface
        elif node.upos == "VERB" and parent.upos in nouns:
            yield parent.surface, node.surface


def reference_load_parses(path) -> dict[str, tuple[_Node, ...]]:
    """tweet_id -> the sentence's nodes (index, surface, upos, head), read
    the way `subevents.corpus.load_parses` read a sidecar when it kept one
    node per token, logging the same messages in the same order. Like the
    package, it also warns of and counts a sentence with no tweet_id
    comment, unless an unparseable token line already dropped it.

    Not independent: it is that loader, and with `reference_nv_edges` its
    edge rule, kept as written so the block reader can be checked against
    it. Bytes that are not UTF-8 raise UnicodeDecodeError (the package
    raises InputFormatError).
    """
    parses: dict[str, tuple[_Node, ...]] = {}
    current_id = None
    dropped = False
    first_line = 0
    nodes: list[_Node] = []
    bad = 0

    def flush():
        nonlocal current_id, dropped, nodes, bad
        if current_id is None and nodes and not dropped:
            bad += 1
            logger.warning("%s:%d: dropping sentence with no tweet_id comment", path, first_line)
        elif current_id is not None and nodes:
            error = _reference_tree_error(nodes)
            if error is not None:
                bad += 1
                logger.warning("%s: dropping parse for %s (%s)", path, current_id, error)
            elif current_id in parses:
                logger.warning("%s: duplicate tweet_id %r, keeping first", path, current_id)
            else:
                parses[current_id] = tuple(nodes)
        current_id = None
        dropped = False
        nodes = []

    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                flush()
                continue
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("tweet_id"):
                    flush()
                    _, _, value = comment.partition("=")
                    current_id = value.strip()
                continue
            cols = line.split("\t", 7)
            if len(cols) <= 6:
                continue
            if "-" in cols[0] or "." in cols[0]:
                continue
            try:
                node = _Node(int(cols[0]), cols[1], cols[3], int(cols[6]))
            except ValueError:
                bad += 1
                logger.warning("%s: unparseable token line %r", path, line)
                current_id = None
                dropped = True
                nodes = []
                continue
            if not nodes:
                first_line = lineno
            nodes.append(node)
    flush()
    if bad:
        logger.info("%s: dropped %d malformed parse entries", path, bad)
    return parses


def parses_from_edges(edges_by_id):
    """``load_parses`` of a sidecar written so that each tweet id's parse
    holds exactly the given (noun, verb) surface forms, in order: the i-th
    noun a dependent of the i-th verb, and each verb after the first a
    dependent of the first (a verb-verb edge). A parse with no edge is one
    untagged token."""
    import tempfile
    from pathlib import Path

    from subevents.corpus import load_parses

    lines = []
    for tweet_id, edges in edges_by_id.items():
        lines.append(f"# tweet_id = {tweet_id}")
        for i, (noun, verb) in enumerate(edges):
            lines.append(f"{2 * i + 1}\t{noun}\t_\tNOUN\t_\t_\t{2 * i + 2}\tdep\t_\t_")
            lines.append(f"{2 * i + 2}\t{verb}\t_\tVERB\t_\t_\t{2 if i else 0}\tdep\t_\t_")
        if not edges:
            lines.append("1\t_\t_\tX\t_\t_\t0\troot\t_\t_")
        lines.append("")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.conllu"
        path.write_text("\n".join(lines), encoding="utf-8")
        parses = load_parses(path)
    assert edges_from_parses(parses) == dict(edges_by_id)
    return parses


def edges_from_parses(parses):
    """The inverse of `parses_from_edges`: each parsed tweet id of a
    ``corpus.Parses``, in row order, with the (noun, verb) surface forms of
    its edges, ``{tweet_id: ((noun, verb), ...)}``."""
    forms, offsets = parses.forms, parses.offsets
    return {tweet_id: tuple((forms[noun], forms[verb])
                            for noun, verb in parses.edges[offsets[row]:offsets[row + 1]].tolist())
            for tweet_id, row in sorted(parses.rows.items(), key=lambda item: item[1])}


def reference_nv_pairs(parse, tokens, lexicon, stopwords):
    """One tweet's (noun, verb) pairs, in order: each edge of its parse (as
    ``load_parses`` gives it) with both words lowercased and surviving
    ``clean_token``; without a parse, each lexicon noun with each lexicon
    verb among the next 3 tokens (a window of 4), when there is a lexicon;
    else none."""
    from subevents.corpus import clean_token

    window = 4
    pairs = []
    if parse is not None:
        for noun, verb in parse:
            noun, verb = clean_token(noun.lower(), stopwords), clean_token(verb.lower(), stopwords)
            if noun is not None and verb is not None:
                pairs.append((noun, verb))
    elif lexicon is not None:
        for i, noun in enumerate(tokens):
            if "N" in lexicon.get(noun, ""):
                pairs.extend((noun, verb) for verb in tokens[i + 1:i + window]
                             if "V" in lexicon.get(verb, ""))
    return pairs


def reference_extract(files, stopwords, parses_path, lexicon, dedupe, phrase_cfg, min_freq):
    """The extract stage as whole-corpus steps over plain lists: read every
    ``(path, label_mode)`` corpus file whole with ``CorpusLines``, one file
    at a time and without its dedupe, drop a tweet whose exact raw text
    came before when ``dedupe`` (the first kept, across files), clean each
    whitespace token of the lowercased text with ``clean_token``, read the
    parses, then count each tweet's noun-verb pairs
    (``reference_nv_pairs``), the unigrams and the adjacent bigrams.
    A pair counted at least ``min_freq`` times is kept; a bigram counted at
    least ``phrase_cfg.min_count`` times whose word2phrase score
    (count(a,b) - min_count) * V / (count(a) * count(b)), V the number of
    distinct unigrams, is above ``phrase_cfg.threshold`` is a phrase.

    Returns a dict of the candidate rows ``(kind, first, second,
    frequency)`` in (kind, first, second) order with the accounting of
    ``CandidateSet``, and a dict of the counts the stage reports.

    It shares the package's line reader, token rule and parse reader: what
    counts as a corpus line, a token and a parse edge is checked by their
    own tests, and rewriting them here would copy them. It checks the fold's
    order of work (file order, dedupe across files, per-file malformed
    checks, counting before filtering), its counting, filter and score.
    """
    from subevents.corpus import CorpusLines, clean_token, load_parses

    records = []
    skipped = 0
    for path, mode in files:
        lines = CorpusLines([(path, mode)])
        records.extend(lines)
        skipped += lines.skipped
    loaded = len(records)
    if dedupe:  # drop a tweet whose exact raw text came before, keeping the first
        seen: set[str] = set()
        kept = []
        for record in records:
            if record[1] not in seen:
                seen.add(record[1])
                kept.append(record)
        records = kept
    tweets = [
        (tweet_id, [token for raw in text.lower().split()
                    if (token := clean_token(raw, stopwords)) is not None])
        for tweet_id, text, _ in records
    ]
    parses = edges_from_parses(load_parses(parses_path)) if parses_path is not None else {}
    counts = {
        "tweets": len(tweets), "skipped": skipped, "duplicates": loaded - len(tweets),
        "parsed": 0, "fallback": 0, "neither": 0,
    }
    pairs: Counter = Counter()
    for tweet_id, tokens in tweets:
        parse = parses.get(tweet_id)
        if parse is not None:
            counts["parsed"] += 1
        elif lexicon is not None:
            counts["fallback"] += 1
        else:
            counts["neither"] += 1
        pairs.update(reference_nv_pairs(parse, tokens, lexicon, stopwords))
    unigrams = Counter(token for _, tokens in tweets for token in tokens)
    bigrams = Counter(pair for _, tokens in tweets for pair in zip(tokens, tokens[1:]))
    min_count = phrase_cfg.min_count
    kept_nv = sorted(("nv", noun, verb, count)
                     for (noun, verb), count in pairs.items() if count >= min_freq)
    phrases = sorted(
        ("phrase", a, b, count) for (a, b), count in bigrams.items()
        if count >= min_count and (count - min_count) * len(unigrams)
        / (unigrams[a] * unigrams[b]) > phrase_cfg.threshold
    )
    rows = kept_nv + phrases
    candidates = {
        "candidates": rows, "nv_before": len(pairs), "nv_after": len(kept_nv),
        "phrase_count": len(phrases), "total": len(rows),
        "overlap": len(rows) - len({row[:3] for row in rows}),
    }
    return candidates, counts
