"""Output checks and quality figures for the benchmark's artifacts.

Reads the CSV and JSON artifacts directly and compares them with the
generator's ground truth (``truth.json``); it shares no code with the
package. Each ``check_*`` function returns a list of problems, empty when
the artifact is correct.
"""

from __future__ import annotations

import csv
import json
from math import comb
from pathlib import Path


def _rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_extract(out: Path, truth: dict) -> list[str]:
    problems = []
    acc = json.loads((out / "accounting.json").read_text(encoding="utf-8"))
    if acc["candidates_before"] != acc["nv_before"] + acc["phrases"]:
        problems.append("accounting: candidates_before != nv_before + phrases")
    if acc["total"] != acc["nv_after"] + acc["phrases"] - acc["overlap"]:
        problems.append("accounting: total != nv_after + phrases - overlap")
    for key in ("tweets", "skipped_lines", "nv_before", "nv_after"):
        if acc[key] != truth[key]:
            problems.append(f"accounting: {key} {acc[key]} != generated {truth[key]}")
    rows = _rows(out / "candidates.csv")
    if len(rows) != acc["total"]:
        problems.append(f"candidates.csv has {len(rows)} rows, accounting says {acc['total']}")
    freq = {(r["first"], r["second"]): int(r["frequency"]) for r in rows if r["kind"] == "nv"}
    if len(freq) != acc["nv_after"]:
        problems.append(f"candidates.csv has {len(freq)} nv rows, accounting says {acc['nv_after']}")
    for p in truth["planted"]:
        want = p["expected_freq"]
        if p["kind"] != "nv" or want < truth["filter_min_freq"]:
            continue
        got = freq.get((p["first"], p["second"]))
        if got != want:
            problems.append(f"planted pair {p['first']} {p['second']}: frequency {got}, expected {want}")
    return problems


def check_ranked(out: Path, n_candidates: int) -> list[str]:
    rows = _rows(out / "ranked.csv")
    problems = []
    if len(rows) != n_candidates:
        problems.append(f"ranked.csv has {len(rows)} rows, expected {n_candidates}")
    if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("ranked.csv ranks are not 1..n")
    scores = [float(r["score"]) for r in rows]
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("ranked.csv is not sorted by descending score")
    return problems


def _key(member: dict) -> tuple[str, str, str]:
    return (member["kind"], member["first"], member["second"])


def check_clusters(out: Path, k: int, top_m: int) -> list[str]:
    clusters = json.loads((out / "clusters.json").read_text(encoding="utf-8"))
    ranked = _rows(out / "ranked.csv")[:top_m]
    # Null-vector candidates score -1 with no best term and stay unclustered.
    expected = {(r["kind"], r["first"], r["second"]) for r in ranked if r["best_term"]}
    problems = []
    if sorted(c["cluster_id"] for c in clusters) != list(range(k)):
        problems.append(f"clusters.json ids are not exactly 0..{k - 1}")
    seen: set = set()
    for c in clusters:
        members = [_key(m) for m in c["members"]]
        if not members:
            problems.append(f"cluster {c['cluster_id']} is empty")
        if seen & set(members):
            problems.append(f"cluster {c['cluster_id']} shares members with another cluster")
        seen.update(members)
        if _key(c["medoid"]) not in members:
            problems.append(f"cluster {c['cluster_id']} medoid is not a member")
    if seen != expected:
        problems.append(f"clustered set has {len(seen)} candidates, expected {len(expected)}")
    return problems


def check_metrics(out: Path, truth: dict) -> list[str]:
    rows = _rows(out / "metrics.csv")
    problems = []
    ks = [int(r["k"]) for r in rows]
    if ks != sorted(set(ks)):
        problems.append("metrics.csv k is not strictly ascending")
    for col in ("tp", "fp"):
        vals = [int(r[col]) for r in rows]
        if any(a > b for a, b in zip(vals, vals[1:])):
            problems.append(f"metrics.csv {col} decreases as k grows")
    for r in rows:
        if int(r["tp"]) + int(r["fn"]) != truth["n_informative"]:
            problems.append(f"k={r['k']}: tp+fn != {truth['n_informative']} informative tweets")
            break
        if int(r["fp"]) + int(r["tn"]) != truth["n_uninformative"]:
            problems.append(f"k={r['k']}: fp+tn != {truth['n_uninformative']} uninformative tweets")
            break
    return problems


def auc_and_best_f1(out: Path) -> tuple[float, float]:
    """Trapezoidal area under (0,0), the (fpr, tpr) points, (1,1); max F1."""
    rows = _rows(out / "metrics.csv")
    pts = [(0.0, 0.0)] + [(float(r["fpr"]), float(r["tpr"])) for r in rows] + [(1.0, 1.0)]
    auc = sum((x2 - x1) * (y1 + y2) / 2.0 for (x1, y1), (x2, y2) in zip(pts, pts[1:]))
    return auc, max(float(r["f1"]) for r in rows)


def adjusted_rand(a: list, b: list) -> float:
    """Adjusted Rand index of two labelings (Hubert & Arabie 1985)."""
    n = len(a)
    cells: dict = {}
    rows: dict = {}
    cols: dict = {}
    for x, y in zip(a, b):
        cells[(x, y)] = cells.get((x, y), 0) + 1
        rows[x] = rows.get(x, 0) + 1
        cols[y] = cols.get(y, 0) + 1
    index = sum(comb(v, 2) for v in cells.values())
    sum_a = sum(comb(v, 2) for v in rows.values())
    sum_b = sum(comb(v, 2) for v in cols.values())
    expected = sum_a * sum_b / comb(n, 2) if n > 1 else 0.0
    top = (sum_a + sum_b) / 2.0
    return 1.0 if top == expected else (index - expected) / (top - expected)


def planted_ari(out: Path, truth: dict) -> tuple[float, int]:
    """ARI of cluster ids against planted groups, over the planted
    candidates that were clustered; also the size of the clustered set."""
    group = {(p["kind"], p["first"], p["second"]): p["group"] for p in truth["planted"]}
    clusters = json.loads((out / "clusters.json").read_text(encoding="utf-8"))
    planted, assigned, clustered = [], [], 0
    for c in clusters:
        for m in c["members"]:
            clustered += 1
            g = group.get(_key(m))
            if g is not None:
                planted.append(g)
                assigned.append(c["cluster_id"])
    return adjusted_rand(planted, assigned), clustered
