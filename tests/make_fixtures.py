"""Deterministic fixture generator.

Two corpora are generated:

* "worked": a tiny corpus arranged so the tweet "waterborne diseases
  hurricane water recedes" yields exactly the noun-verb pairs
  (waterborne, recedes) and (water, recedes) via its dependency parse,
  and (waterborne, diseases) clears the phrase gate corpus-wide.

* "pipeline": a 200-tweet unlabeled corpus plus an 80-tweet labeled
  corpus with planted candidates. 15 crisis + 15 noise noun-verb pairs
  (4 parsed tweets each), 5 crisis + 5 noise phrases (4 tweets each,
  plus adjacency in 2 labeled tweets), and 40 frequency-1 chaff pairs
  that the filter must drop. Crisis words embed near 8 anchor terms
  (dims 0-7); noise words live in dims 8-15, exactly orthogonal to
  every anchor. Every informative labeled tweet contains exactly one
  crisis candidate, every uninformative tweet exactly one noise
  candidate, so a good ranking separates them perfectly and a random
  one averages AUC 0.5.

Everything is closed-form (no RNG), so regeneration is byte-stable. The
golden accounting file is derived from the plant design, not from
running the extractor.
"""

from __future__ import annotations

import json
import string
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"

DIM = 16
N_ANCHORS = 8
N_NV = 15        # per side (crisis / noise)
N_PHRASE = 5     # per side
N_CHAFF = 40
PLANT_REPS = 4   # unlabeled tweets per planted candidate
LABELED_REPS = 2  # labeled tweets per planted candidate

ANCHORS = [
    "anchoralpha", "anchorbeta", "anchorgamma", "anchordelta",
    "anchorepsilon", "anchorzeta", "anchoreta", "anchortheta",
]


def alpha(i: int) -> str:
    """Two lowercase letters: aa, ab, ... (letters only, never digits)."""
    if not 0 <= i < 26 * 26:
        raise ValueError(f"alpha index out of range: {i}")
    return string.ascii_lowercase[i // 26] + string.ascii_lowercase[i % 26]


def _fmt_row(word: str, values: list[float]) -> str:
    return word + " " + " ".join(repr(float(v)) for v in values)


def _basis(dim: int, components: dict[int, float]) -> list[float]:
    vec = [0.0] * dim
    for idx, value in components.items():
        vec[idx] += value
    return vec


class _PadSource:
    """Unique filler words; uniqueness keeps unwanted bigrams at count 1."""

    def __init__(self) -> None:
        self.counter = 0

    def take(self) -> str:
        word = "pad" + alpha(self.counter)
        self.counter += 1
        return word


def write_worked(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    pads = _PadSource()
    lines = [
        {"id": "w000", "text": "waterborne diseases hurricane water recedes"},
    ]
    for i in range(1, 6):
        lines.append({
            "id": f"w{i:03d}",
            "text": f"waterborne diseases {pads.take()} {pads.take()}",
        })
    # Filler tweets push the distinct-unigram count V past 90 so the
    # planted bigram's score (6-2)*V/36 clears the threshold of 10.
    for i in range(6, 30):
        words = " ".join(pads.take() for _ in range(4))
        lines.append({"id": f"w{i:03d}", "text": words})
    with open(out_dir / "worked_corpus.jsonl", "w", encoding="utf-8") as fh:
        for obj in lines:
            fh.write(json.dumps(obj) + "\n")

    conllu = [
        "# tweet_id = w000",
        "1\twaterborne\twaterborne\tNOUN\t_\t_\t5\tnsubj\t_\t_",
        "2\tdiseases\tdiseases\tNOUN\t_\t_\t1\tcompound\t_\t_",
        "3\thurricane\thurricane\tNOUN\t_\t_\t4\tcompound\t_\t_",
        "4\twater\twater\tNOUN\t_\t_\t5\tnsubj\t_\t_",
        "5\trecedes\trecedes\tVERB\t_\t_\t0\troot\t_\t_",
        "",
    ]
    (out_dir / "worked_parses.conllu").write_text("\n".join(conllu), encoding="utf-8")

    # 8-dim vectors: the phrase words point along the "infectious disease"
    # direction (dim 0), the pair words along an unrelated direction.
    rows = [
        _fmt_row("infectious", _basis(8, {0: 1.0})),
        _fmt_row("disease", _basis(8, {0: 1.0})),
        _fmt_row("waterborne", _basis(8, {0: 1.0})),
        _fmt_row("diseases", _basis(8, {0: 0.8, 1: 0.6})),
        _fmt_row("water", _basis(8, {2: 1.0})),
        _fmt_row("recedes", _basis(8, {2: 0.6, 3: 0.8})),
    ]
    (out_dir / "worked_vectors.txt").write_text(
        f"{len(rows)} 8\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )


def crisis_candidates() -> list[tuple[str, str, str]]:
    """(kind, first, second) for the 20 planted crisis candidates."""
    out = [("nv", f"cnoun{alpha(i)}", f"cverb{alpha(i)}") for i in range(N_NV)]
    out += [("phrase", f"cphrasea{alpha(i)}", f"cphraseb{alpha(i)}") for i in range(N_PHRASE)]
    return out


def noise_candidates() -> list[tuple[str, str, str]]:
    out = [("nv", f"nnoun{alpha(i)}", f"nverb{alpha(i)}") for i in range(N_NV)]
    out += [("phrase", f"nphrasea{alpha(i)}", f"nphraseb{alpha(i)}") for i in range(N_PHRASE)]
    return out


def chaff_candidates() -> list[tuple[str, str]]:
    return [(f"xnoun{alpha(i)}", f"xverb{alpha(i)}") for i in range(N_CHAFF)]


def _nv_parse(tweet_id: str, noun: str, pad1: str, verb: str, pad2: str | None) -> list[str]:
    lines = [
        f"# tweet_id = {tweet_id}",
        f"1\t{noun}\t{noun}\tNOUN\t_\t_\t3\tnsubj\t_\t_",
        f"2\t{pad1}\t{pad1}\tADV\t_\t_\t3\tadvmod\t_\t_",
        f"3\t{verb}\t{verb}\tVERB\t_\t_\t0\troot\t_\t_",
    ]
    if pad2 is not None:
        lines.append(f"4\t{pad2}\t{pad2}\tADV\t_\t_\t3\tadvmod\t_\t_")
    lines.append("")
    return lines


def _word_vector(offset: int, slot: int, wiggle: int, position: int) -> list[float]:
    """Vector in the 8-dim half starting at `offset`, dominated by `slot`.

    position 0 is the candidate's first word (pure basis vector),
    position 1 the second (basis plus small distinguishing components).
    """
    base = {offset + slot: 1.0}
    if position == 1:
        base[offset + (slot + 1) % 8] = base.get(offset + (slot + 1) % 8, 0.0) + 0.2
        base[offset + (slot + 2) % 8] = base.get(offset + (slot + 2) % 8, 0.0) + 0.01 * (wiggle + 1)
    return _basis(DIM, base)


def write_pipeline(out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    pads = _PadSource()
    crisis = crisis_candidates()
    noise = noise_candidates()
    chaff = chaff_candidates()
    all_words = [w for _, a, b in crisis + noise for w in (a, b)]
    all_words += [w for pair in chaff for w in pair]
    if len(set(all_words)) != len(all_words):
        raise AssertionError("candidate words must be globally unique")

    unlabeled = []
    parses: list[str] = []
    uid = 0

    def next_id() -> str:
        nonlocal uid
        tweet_id = f"u{uid:03d}"
        uid += 1
        return tweet_id

    for kind, first, second in crisis + noise:
        if kind != "nv":
            continue
        for _ in range(PLANT_REPS):
            tweet_id = next_id()
            pad1, pad2 = pads.take(), pads.take()
            unlabeled.append({"id": tweet_id, "text": f"{first} {pad1} {second} {pad2}"})
            parses.extend(_nv_parse(tweet_id, first, pad1, second, pad2))
    for kind, first, second in crisis + noise:
        if kind != "phrase":
            continue
        for _ in range(PLANT_REPS):
            tweet_id = next_id()
            unlabeled.append({
                "id": tweet_id,
                "text": f"{first} {second} {pads.take()} {pads.take()}",
            })
    for noun, verb in chaff:
        tweet_id = next_id()
        pad1 = pads.take()
        unlabeled.append({"id": tweet_id, "text": f"{noun} {pad1} {verb}"})
        parses.extend(_nv_parse(tweet_id, noun, pad1, verb, None))
    if len(unlabeled) != 200:
        raise AssertionError(f"expected 200 unlabeled tweets, built {len(unlabeled)}")

    labeled = []
    lid = 0
    for side, label in ((crisis, "informative"), (noise, "uninformative")):
        for kind, first, second in side:
            for _ in range(LABELED_REPS):
                if kind == "nv":
                    text = f"{first} {pads.take()} {second} {pads.take()}"
                else:
                    text = f"{first} {second} {pads.take()} {pads.take()}"
                labeled.append({"id": f"l{lid:03d}", "text": text, "label": label})
                lid += 1
    if len(labeled) != 80:
        raise AssertionError(f"expected 80 labeled tweets, built {len(labeled)}")

    with open(out_dir / "pipeline_unlabeled.jsonl", "w", encoding="utf-8") as fh:
        for obj in unlabeled:
            fh.write(json.dumps(obj) + "\n")
    with open(out_dir / "pipeline_labeled.jsonl", "w", encoding="utf-8") as fh:
        for obj in labeled:
            fh.write(json.dumps(obj) + "\n")
    (out_dir / "pipeline_parses.conllu").write_text("\n".join(parses), encoding="utf-8")

    rows = [_fmt_row(ANCHORS[j], _basis(DIM, {j: 1.0})) for j in range(N_ANCHORS)]
    for g, (_, first, second) in enumerate(crisis):
        slot = g % N_ANCHORS
        rows.append(_fmt_row(first, _word_vector(0, slot, g, 0)))
        rows.append(_fmt_row(second, _word_vector(0, slot, g, 1)))
    for h, (_, first, second) in enumerate(noise):
        slot = h % N_ANCHORS
        rows.append(_fmt_row(first, _word_vector(8, slot, h, 0)))
        rows.append(_fmt_row(second, _word_vector(8, slot, h, 1)))
    (out_dir / "pipeline_vectors.txt").write_text(
        f"{len(rows)} {DIM}\n" + "\n".join(rows) + "\n", encoding="utf-8"
    )
    (out_dir / "pipeline_ontology.txt").write_text(
        "# fixture anchor terms\n" + "\n".join(ANCHORS) + "\n", encoding="utf-8"
    )

    config = {
        "paths": {
            "corpus_unlabeled": "tests/fixtures/pipeline_unlabeled.jsonl",
            "corpus_labeled": "tests/fixtures/pipeline_labeled.jsonl",
            "parses": "tests/fixtures/pipeline_parses.conllu",
            "vectors": "tests/fixtures/pipeline_vectors.txt",
            "ontology": "tests/fixtures/pipeline_ontology.txt",
            "out_dir": "out",
        },
        "phrase": {"min_count": 2, "threshold": 10.0},
        "filter_min_freq": 2,
        "rank": {"method": "moac", "oov_policy": "skip"},
        "cluster": {"k": 8, "top_m": 40, "seed": 7},
        "eval": {"ks": list(range(1, 41))},
    }
    with open(out_dir / "pipeline_config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
        fh.write("\n")

    # Golden accounting from the plant design itself: 30 planted pairs kept,
    # 40 frequency-1 chaff pairs dropped, 10 phrases, no kind collisions.
    nv_before = 2 * N_NV + N_CHAFF
    nv_after = 2 * N_NV
    phrases = 2 * N_PHRASE
    total = nv_after + phrases
    golden = {
        "tweets": len(unlabeled) + len(labeled),
        "skipped_lines": 0,
        "nv_before": nv_before,
        "nv_after": nv_after,
        "nv_reduction_percent": 100.0 * (1.0 - nv_after / nv_before),
        "phrases": phrases,
        "candidates_before": nv_before + phrases,
        "total": total,
        "overall_reduction_percent": 100.0 * (1.0 - total / (nv_before + phrases)),
        "overlap": 0,
    }
    with open(out_dir / "pipeline_accounting.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2)
        fh.write("\n")
    return config


def main() -> None:
    write_worked(FIXTURES)
    write_pipeline(FIXTURES)


if __name__ == "__main__":
    main()
