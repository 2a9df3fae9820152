"""Benchmark runner for the subevents pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The inputs are generated from the seed
(cached under ``.perfbench/`` per workload, seed and generator version,
never timed). Each operation is one ``subevents`` CLI command in a fresh
process; operations run one at a time (a closed loop with a single
client). A round is one ``pipeline`` (bulk_parsed, retweet_fallback) or
three stage-alone ``cluster`` commands at k = 20, 40, 80 (cluster_sweep),
which in an untraced run follow a repeat of the set-up's ``extract`` and
``rank``. Rounds start while one more is expected to end within S
seconds, and each figure is the median over rounds.

Every operation's artifacts are checked against the generator's ground
truth and hashed; any difference between the hashes of the same
operation on the same code, within a run or across runs, is a failure.

With ``--trace 0`` the last line of output holds the end-to-end metrics
named in BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics
of traced rounds, which alternate with untraced rounds so the tracing
overhead can be reported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from generate import generate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
ARTIFACTS = ("candidates.csv", "accounting.json", "ranked.csv", "clusters.json", "metrics.csv")
OP_TIMEOUT_S = 150


def code_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "subevents").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def inputs_hash(name: str) -> str:
    """Hash of what the generated inputs depend on apart from the seed."""
    digest = hashlib.sha256(repr(WORKLOADS[name]).encode())
    for fname in ("generate.py", "workloads.py"):
        digest.update((HERE / fname).read_bytes())
    return digest.hexdigest()[:16]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def prepare(name: str, seed: int) -> Path:
    """Generated inputs for (workload, seed) from the current generator;
    truth.json marks completion."""
    data = WORK / "data" / f"{name}-{seed}-{inputs_hash(name)}"
    if not (data / "truth.json").is_file():
        for stale in data.parent.glob(f"{name}-{seed}-*"):
            shutil.rmtree(stale)
        generate(name, WORKLOADS[name], seed, data)
    return data


class SetupError(Exception):
    """An operation the timed rounds depend on failed."""


class Bench:
    def __init__(self, name: str, seed: int):
        self.wl = WORKLOADS[name]
        self.data = prepare(name, seed)
        self.out = self.data / "out"
        self.out.mkdir(exist_ok=True)
        self.truth = json.loads((self.data / "truth.json").read_text(encoding="utf-8"))
        self.config = str(self.data / "config.json")
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict[str, str]] = {}
        self.import_s: list[float] = []
        self.stage_s: list[float] = []  # cluster_sweep: extract + rank time of each set-up
        self.quality: dict[str, float] = {}
        self.ari = 0.0  # planted ARI of the operation whose cluster.k is crisis_groups
        self.clustered_n = 0
        self.digest_file = WORK / "digests" / f"{name}-{seed}.json"
        self.code = f"{code_hash()}-{inputs_hash(name)}"

    def _spawn(self, cli_args: list[str], trace: bool) -> tuple[dict | None, str]:
        report = self.data / "report.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(report), "1" if trace else "0", "--",
               *cli_args, "--config", self.config]
        spawned = time.monotonic()
        with open(self.data / "stderr.txt", "w+", encoding="utf-8") as err:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                      stderr=err, timeout=OP_TIMEOUT_S)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            err.seek(0)
            stderr = err.read()
        exited = time.monotonic()
        result = json.loads(report.read_text()) if report.is_file() else None
        problem = ""
        if code != 0 or result is None:
            problem = f"exit {code}: {stderr.strip().splitlines()[-1:] or ''}"
        elif "Traceback" in stderr:
            problem = "traceback on stderr"
        if result is not None:
            result["spawned"] = spawned
            result["exited"] = exited
        return result, problem

    def op(self, key: str, cli_args: list[str], checks, artifacts, trace=False) -> dict | None:
        """Run one operation, check and hash its artifacts; None on failure."""
        for name in artifacts:
            (self.out / name).unlink(missing_ok=True)
        self.attempted += 1
        result, problem = self._spawn(cli_args, trace)
        problems = [problem] if problem else []
        if not problems:
            try:
                for fn in checks:
                    problems += fn()
                digest = {name: sha256(self.out / name) for name in artifacts}
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable artifact: {exc!r}")
            else:
                if self.digests.setdefault(key, digest) != digest:
                    problems.append("artifacts differ from an earlier run of the same code")
        if problems:
            self.failed += 1
            self.problems += [f"{key}: {p}" for p in problems]
            return None
        self.import_s.append(result["imported"] - result["spawned"])
        return result

    # -- rounds ---------------------------------------------------------------

    def _total(self) -> int:
        acc = json.loads((self.out / "accounting.json").read_text(encoding="utf-8"))
        return acc["total"]

    def round(self, trace: bool) -> list[dict] | None:
        wl = self.wl
        results = []
        if len(wl.ks) == 1:
            checks = [lambda: check.check_extract(self.out, self.truth),
                      lambda: check.check_ranked(self.out, self._total()),
                      lambda: check.check_clusters(self.out, wl.ks[0], wl.top_m),
                      lambda: check.check_metrics(self.out, self.truth)]
            results.append(self.op("pipeline", ["pipeline", "--threads", str(wl.threads)],
                                   checks, ARTIFACTS, trace))
            if results[-1] is not None:
                self.quality["auc"], self.quality["best_f1"] = check.auc_and_best_f1(self.out)
                self._ari(wl.ks[0])
        else:
            for k in wl.ks:
                checks = [lambda k=k: check.check_clusters(self.out, k, wl.top_m)]
                results.append(self.op(f"cluster-k{k}", ["cluster", "--cluster.k", str(k)],
                                       checks, ("clusters.json",), trace))
                if results[-1] is not None:
                    self._ari(k)
        return None if None in results else results

    def _ari(self, k: int) -> None:
        ari, self.clustered_n = check.planted_ari(self.out, self.truth)
        if k == self.wl.crisis_groups:
            self.ari = ari

    def stage(self) -> bool:
        """cluster_sweep: run extract and rank, which write the artifacts a
        round reads, and record their combined time as set-up time. The
        artifacts come out byte-identical each time (the digests check it),
        so repeating this between rounds spreads the set-up samples over
        the run without changing what the rounds read."""
        r1 = self.op("extract", ["extract"], [lambda: check.check_extract(self.out, self.truth)],
                     ARTIFACTS[:2])
        r2 = self.op("rank", ["rank"], [lambda: check.check_ranked(self.out, self._total())],
                     ARTIFACTS[2:3]) if r1 is not None else None
        if r2 is None:
            return False
        self.stage_s.append(r1["exited"] - r1["spawned"] + r2["exited"] - r2["spawned"])
        return True

    def setup(self) -> None:
        """cluster_sweep: the first stage(), then an untimed evaluate for
        this workload's retrieval figures."""
        if not self.stage() or self.op(
                "evaluate", ["evaluate"], [lambda: check.check_metrics(self.out, self.truth)],
                ARTIFACTS[4:]) is None:
            raise SetupError("; ".join(self.problems))
        self.quality["auc"], self.quality["best_f1"] = check.auc_and_best_f1(self.out)

    def close(self) -> None:
        """Compare digests with earlier runs of the same code and seed."""
        self.digest_file.parent.mkdir(parents=True, exist_ok=True)
        stored = {}
        if self.digest_file.is_file():
            stored = json.loads(self.digest_file.read_text(encoding="utf-8"))
        earlier = stored.get(self.code, {})
        for key, digest in self.digests.items():
            if key in earlier and earlier[key] != digest:
                self.failed += 1
                self.problems.append(f"{key}: artifacts differ from an earlier run")
        stored[self.code] = {**earlier, **self.digests}
        self.digest_file.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")


def _round_layers(results: list[dict]) -> dict[str, float]:
    """Per-layer figures of one round: sums of times and counts, the
    largest of each level (sizes, ratios, peak RSS)."""
    out: dict[str, float] = {}
    for r in results:
        for k, v in r["layers"]["sums"].items():
            out[k] = out.get(k, 0.0) + v
        for k, v in r["layers"]["levels"].items():
            out[k] = max(out.get(k, v), v)
    return out


def _wall(results: list[dict]) -> float:
    return sum(r["end"] - r["imported"] for r in results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "subevents" / "cli.py").is_file():
        print(f"error: no subevents package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    bench = Bench(args.workload, args.seed)
    # Compile the package's bytecode once, so no timed process pays for it.
    subprocess.run([sys.executable, "-c", "import subevents.cli"], cwd=ROOT, env=bench.env,
                   check=True, timeout=OP_TIMEOUT_S)
    sweep = len(bench.wl.ks) > 1
    try:
        if sweep:
            bench.setup()
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    round_s: list[float] = []
    start = time.monotonic()
    # Rounds start while one more is expected to end within --seconds.
    while (not plain or (args.trace and not traced)
           or time.monotonic() - start + statistics.median(round_s) < args.seconds):
        began = time.monotonic()
        trace = bool(args.trace) and len(traced) < len(plain)
        if sweep and not args.trace and plain and not bench.stage():
            results = None
        else:
            results = bench.round(trace)
        round_s.append(time.monotonic() - began)
        if results is not None:
            (traced if trace else plain).append(results)
        elif bench.failed > 2 * (len(plain) + len(traced)) + 3:
            break  # failing every time: stop early and report

    bench.close()

    walls = [_wall(r) for r in plain]
    values = {
        "wall_s": statistics.median(walls) if walls else 0.0,
        "setup_s": (statistics.median(bench.import_s) if bench.import_s else 0.0)
                   + (statistics.median(bench.stage_s) if bench.stage_s else 0.0),
        "peak_rss_mb": statistics.median(max(x["rss_mb"] for x in r) for r in plain) if plain else 0.0,
        "ok_ratio": (bench.attempted - bench.failed) / max(bench.attempted, 1),
        "auc": bench.quality.get("auc", 0.0),
        "best_f1": bench.quality.get("best_f1", 0.0),
        "planted_ari": bench.ari,
    }
    if args.trace:
        rounds = [_round_layers(r) for r in traced]
        names = {k for r in rounds for k in r}
        values.update({k: statistics.median(r.get(k, 0.0) for r in rounds) for k in names})
        truth = bench.truth
        if values.get("embed.load_vectors_calls"):
            values["embed.rows_rejected_n"] = truth["vector_rows"] - values["embed.vectors_n"]
        if values.get("corpus.load_parses_calls"):
            values["corpus.parses_dropped_n"] = truth["parse_sentences"] - values["corpus.parses_n"]
        traced_walls = [_wall(r) for r in traced]
        values["trace.overhead_s"] = statistics.median(traced_walls) - values["wall_s"] if traced else 0.0
        (WORK / f"spans-{args.workload}.json").write_text(
            json.dumps([x["spans"] for x in traced[-1]]) if traced else "[]", encoding="utf-8")

    print(json.dumps({"workload_properties": {**bench.truth["properties"],
                                              "clustered_n": bench.clustered_n},
                      "digests": bench.digests}))
    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
