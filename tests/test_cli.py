import csv
import hashlib
import json
import os
import re
import reprlib
import shutil
import stat
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import make_fixtures
import subevents.cli as cli
from subevents import __version__
from subevents.extract import PhraseConfig, read_candidates
from subevents.rank import read_ranked

REPO_ROOT = Path(__file__).resolve().parent.parent


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestExitCodes:
    def test_no_command_is_usage_error(self, run_cli):
        code, _, err = run_cli()
        assert code == 1
        assert "error" in err

    def test_unknown_command(self, run_cli):
        code, _, _ = run_cli("transmogrify")
        assert code == 1

    # A flag that never existed, then the keys removed with the code paths
    # they chose and the removed shorthand for --cluster.seed, each with a
    # value the removed flag accepted.
    UNKNOWN_FLAGS = {"bogus": "1", "rank.normalize_words": "true", "rank.discount": "none",
                     "cluster.normalized": "false", "eval.nv_match": "bigram",
                     "eval.phrase_match": "tokens", "seed": "3"}

    def test_unknown_flag(self, run_cli):
        for flag, value in self.UNKNOWN_FLAGS.items():
            code, out, err = run_cli("extract", f"--{flag}", value)
            assert (code, out) == (1, ""), flag
            assert err.endswith(f"subevents: error: unrecognized arguments: --{flag} {value}\n")
            assert "Traceback" not in err

    def test_version(self, run_cli):
        code, out, _ = run_cli("--version")
        assert code == 0
        assert __version__ in out

    def test_missing_config_file(self, run_cli, tmp_path):
        code, _, err = run_cli("extract", "--config", str(tmp_path / "absent.json"))
        assert code == 1
        assert "error" in err

    def test_invalid_config_json(self, run_cli, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops", encoding="utf-8")
        code, _, _ = run_cli("extract", "--config", str(path))
        assert code == 1

    def test_non_utf8_config_names_the_file(self, run_cli, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes('{"cluster": {"k": 8}, "x": "caf\u00e9"}'.encode("latin-1"))
        code, _, err = run_cli("extract", "--config", str(path))
        assert code == 1
        assert err.startswith(f"error: config {path}: not UTF-8 text: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_deeply_nested_config_is_config_error(self, run_cli, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("[" * 100_000 + "\n", encoding="utf-8")
        code, _, err = run_cli("extract", "--config", str(path))
        assert code == 1
        assert err.startswith(f"error: config {path} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_invalid_override_value(self, run_cli, tmp_path):
        code, _, _ = run_cli("extract", "--cluster.k", "many")
        assert code == 1

    def test_threads_below_one(self, run_cli):
        code, _, err = run_cli("extract", "--threads", "0")
        assert code == 1
        assert "--threads" in err

    def test_extract_needs_parses_or_lexicon(self, run_cli, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "1", "text": "road blocked"}\n', encoding="utf-8")
        code, _, err = run_cli(
            "extract",
            "--paths.corpus_unlabeled", str(corpus),
            "--paths.out_dir", str(tmp_path / "out"),
        )
        assert code == 1
        assert "paths.parses" in err and "paths.lexicon" in err

    def test_empty_parses_path_in_json_is_no_source(self, run_cli, tmp_path, write_config,
                                                    pipeline_config_dict):
        # JSON keeps "" as a string, where the command line reads it as null.
        pipeline_config_dict["paths"]["parses"] = ""
        out = tmp_path / "out"
        code, stdout, err = run_cli("extract", "--config", write_config(pipeline_config_dict, out))
        assert (code, stdout, err) == (1, "", f"error: {PARSES_OR_LEXICON}\n")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["json", "flag"])
    def test_empty_out_dir_is_a_config_error(self, run_cli, tmp_path, write_config,
                                             pipeline_config_dict, monkeypatch, where):
        # Path("") is the current directory.
        monkeypatch.chdir(tmp_path)
        cfg = write_config(pipeline_config_dict, "" if where == "json" else tmp_path / "out")
        flags = ["--paths.out_dir", ""] if where == "flag" else []
        code, stdout, err = run_cli("extract", "--config", cfg, *flags)
        assert (code, stdout, err) == (1, "", "error: paths.out_dir must not be empty\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [Path(cfg).name]

    def test_majority_malformed_corpus_is_data_error(self, run_cli, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("junk\nmore junk\n" + '{"id": "1", "text": "a"}\n', encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("road\tN\nblocked\tV\n", encoding="utf-8")
        code, _, err = run_cli(
            "extract",
            "--paths.corpus_unlabeled", str(corpus),
            "--paths.lexicon", str(lexicon),
            "--paths.out_dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert "error" in err

    def test_majority_malformed_labeled_file_writes_no_candidates(self, run_cli, tmp_path):
        # The unlabeled file is fine and read first; the labeled file fails
        # at its end, before any artifact is written.
        unlabeled = tmp_path / "u.jsonl"
        unlabeled.write_text('{"id": "1", "text": "road blocked badly"}\n', encoding="utf-8")
        labeled = tmp_path / "l.jsonl"
        labeled.write_text(
            'junk\n{"id": "2", "text": "road", "label": "maybe"}\n'
            '{"id": "3", "text": "road blocked", "label": "informative"}\n', encoding="utf-8")
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("road\tN\nblocked\tV\n", encoding="utf-8")
        out = tmp_path / "out"
        code, _, err = run_cli(
            "extract",
            "--paths.corpus_unlabeled", str(unlabeled),
            "--paths.corpus_labeled", str(labeled),
            "--paths.lexicon", str(lexicon),
            "--paths.out_dir", str(out),
        )
        assert code == 2
        assert err.splitlines()[-1] == (
            f"error: {labeled}: 2 of 3 lines malformed; not a JSONL tweet corpus?")
        assert not (out / "candidates.csv").exists()

    def test_stage_missing_artifact_names_producer(self, run_cli, tmp_path, write_config, pipeline_config_dict):
        cfg = write_config(pipeline_config_dict, tmp_path / "empty_out")
        code, _, err = run_cli("cluster", "--config", cfg)
        assert code == 1
        assert "rank stage" in err
        code, _, err = run_cli("rank", "--config", cfg)
        assert code == 1
        assert "extract stage" in err
        code, _, err = run_cli("report", "--config", cfg)
        assert code == 1
        assert "evaluate stage" in err

    @pytest.mark.parametrize("stage, artifact, column, value", [
        pytest.param("rank", "candidates.csv", "frequency", "-5", id="candidates-frequency-negative"),
        pytest.param("rank", "candidates.csv", "frequency", "0", id="candidates-frequency-zero"),
        pytest.param("rank", "candidates.csv", "first", "", id="candidates-empty-word"),
        pytest.param("rank", "candidates.csv", "first", "Flood Water",
                     id="candidates-word-not-lowercase"),
        pytest.param("rank", "candidates.csv", "second", "rise!", id="candidates-word-uncleaned"),
        pytest.param("cluster", "ranked.csv", "frequency", "0", id="ranked-frequency-zero"),
        pytest.param("evaluate", "ranked.csv", "second", "", id="ranked-empty-word"),
        pytest.param("cluster", "ranked.csv", "rank", "2", id="ranked-rank-off-position-cluster"),
        pytest.param("evaluate", "ranked.csv", "rank", "2", id="ranked-rank-off-position-evaluate"),
    ])
    def test_record_no_stage_writes_is_data_error(self, run_cli, tmp_path, write_config,
                                                  pipeline_config_dict, stage, artifact, column,
                                                  value):
        """A first record with a frequency below 1, a word extract never
        writes (empty, not lowercase, or one clean_token changes) or, in
        ranked.csv, a rank other than its position 1 (cluster cuts the top
        by position, evaluate by rank) exits 2 with one line."""
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        for producer in ("extract", "rank"):
            assert run_cli(producer, "--config", cfg)[0] == 0
        path = out / artifact
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
        records[1][records[0].index(column)] = value
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(records)
        code, _, err = run_cli(stage, "--config", cfg)
        assert code == 2
        assert err == f"error: {path}:2: malformed row {reprlib.repr(records[1])}\n"

    def test_cluster_without_two_vectors_names_top_m_and_k(self, run_cli, tmp_path, write_config,
                                                           pipeline_config_dict):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("extract", "--config", cfg)[0] == 0
        (out / "ranked.csv").write_text(
            "rank,kind,first,second,frequency,score,best_term\n"
            "1,nv,novector,nowhere,3,-1.0,\n2,phrase,absent,words,2,-1.0,\n", encoding="utf-8")
        code, _, err = run_cli("cluster", "--config", cfg)
        assert code == 2
        assert err == ("error: cannot cluster into cluster.k 8 clusters: 0 of the top 2 candidates"
                       " (cluster.top_m 40) have a vector, and at least 8 are needed\n")

    def test_cluster_k_above_candidates_with_a_vector_names_top_m(self, run_cli, tmp_path,
                                                                  write_config,
                                                                  pipeline_config_dict):
        cfg = write_config(pipeline_config_dict, tmp_path / "out")
        for stage in ("extract", "rank"):
            assert run_cli(stage, "--config", cfg)[0] == 0
        code, _, err = run_cli("cluster", "--config", cfg, "--cluster.k", "41",
                               "--cluster.top_m", "1000")
        assert code == 2
        assert err == ("error: cannot cluster into cluster.k 41 clusters: 40 of the top 40"
                       " candidates (cluster.top_m 1000) have a vector, and at least 41 are"
                       " needed\n")

    def test_malformed_vectors_is_data_error(self, run_cli, tmp_path, write_config, pipeline_config_dict):
        out = tmp_path / "out"
        cfg_dict = dict(pipeline_config_dict)
        cfg = write_config(cfg_dict, out)
        assert run_cli("extract", "--config", cfg)[0] == 0
        bad = tmp_path / "bad_vectors.txt"
        bad.write_text("not a header\n", encoding="utf-8")
        code, _, _ = run_cli("rank", "--config", cfg, "--paths.vectors", str(bad))
        assert code == 2

    def test_impossible_vector_dimension_is_data_error(self, run_cli, tmp_path, write_config,
                                                       pipeline_config_dict):
        # numpy refuses a 10^15-column array before it touches any memory.
        cfg = write_config(pipeline_config_dict, tmp_path / "out")
        assert run_cli("extract", "--config", cfg)[0] == 0
        huge = tmp_path / "huge_vectors.txt"
        huge.write_text("1 1000000000000000\nflood 0.1 0.2\n", encoding="utf-8")
        code, _, err = run_cli("rank", "--config", cfg, "--paths.vectors", str(huge))
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, start", [
        ("corpus_unlabeled", None), ("corpus_labeled", None), ("parses", None),
        ("vectors", None), ("ontology", None),
        ("stopwords", "stopwords.txt"), ("lexicon", "pos_lexicon.txt"),
    ])
    def test_non_utf8_input_names_the_file(self, run_cli, tmp_path, write_config, fixtures_dir,
                                           pipeline_config_dict, key, start):
        # Each file starts well-formed: the configured input, the bundled
        # stopword list or the test lexicon.
        if start is None:
            text = Path(pipeline_config_dict["paths"][key]).read_bytes()
        elif key == "stopwords":
            text = resources.files("subevents.data").joinpath(start).read_bytes()
        else:
            text = (fixtures_dir / start).read_bytes()
        bad = tmp_path / f"latin1_{key}.txt"
        bad.write_bytes(text + "caf\u00e9\n".encode("latin-1"))
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        cfg_dict["paths"][key] = str(bad)
        code, _, err = run_cli("pipeline", "--config", write_config(cfg_dict, tmp_path / "out"))
        assert code == 2
        assert err.startswith(f"error: {bad}: not UTF-8 text: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("missing, named", [
        (("stopwords", "parses"), "stopwords"),
        (("lexicon", "stopwords", "parses"), "lexicon"),
    ], ids=["stopwords-before-parses", "lexicon-before-stopwords"])
    def test_extract_names_the_first_missing_input_it_loads(self, run_cli, tmp_path,
                                                            write_config, pipeline_config_dict,
                                                            missing, named):
        """Extract loads the lexicon, then the stopwords, then the parses:
        with several of them missing, its one-line error names the first."""
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        for key in missing:
            cfg_dict["paths"][key] = str(tmp_path / f"absent_{key}.txt")
        code, out, err = run_cli("extract", "--config", write_config(cfg_dict, tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [key for key in missing if str(tmp_path / f"absent_{key}.txt") in err] == [named]

    def test_pipeline_requires_cluster_k(self, run_cli, tmp_path, write_config, pipeline_config_dict):
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        del cfg_dict["cluster"]["k"]
        cfg = write_config(cfg_dict, tmp_path / "out")
        code, _, err = run_cli("pipeline", "--config", cfg)
        assert code == 1
        assert "cluster.k" in err
        assert not (tmp_path / "out" / "candidates.csv").exists()

    @pytest.mark.parametrize("source, key, value, message", [
        pytest.param("flag", "threshold", -1, "phrase.threshold must be finite and >= 0",
                     id="flag"),
        pytest.param("json", "threshold", -1, "phrase.threshold must be finite and >= 0",
                     id="json"),
        pytest.param("flag", "min_count", 0, "phrase.min_count must be >= 1",
                     id="min_count-flag"),
        pytest.param("json", "min_count", 0, "phrase.min_count must be >= 1",
                     id="min_count-json"),
    ])
    def test_negative_phrase_threshold_rejected_before_any_stage(
            self, run_cli, tmp_path, write_config, pipeline_config_dict, source, key, value,
            message):
        """A negative phrase.threshold, or a phrase.min_count of 0, stops the
        run with ``PhraseConfig``'s own message before any stage."""
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        flags = [f"--phrase.{key}", str(value)]
        if source == "json":
            cfg_dict["phrase"][key] = value
            flags = []
        out = tmp_path / "out"
        code, _, err = run_cli("extract", "--config", write_config(cfg_dict, out), *flags)
        assert code == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_phrase_section_and_flag_reach_candidates_as_one_phrase_config(
            self, run_cli, tmp_path, write_config, pipeline_config_dict, monkeypatch):
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        cfg_dict["phrase"]["min_count"] = 3
        resolved, passed = [], []
        resolve, candidates = cli._resolve_config, cli.ExtractCounts.candidates

        def spy_resolve(args):
            resolved.append(resolve(args))
            return resolved[-1]

        def spy_candidates(counts, phrase, min_freq):
            passed.append(phrase)
            return candidates(counts, phrase, min_freq)

        monkeypatch.setattr(cli, "_resolve_config", spy_resolve)
        monkeypatch.setattr(cli.ExtractCounts, "candidates", spy_candidates)
        code, _, _ = run_cli("extract", "--config", write_config(cfg_dict, tmp_path / "out"),
                             "--phrase.threshold", "7.5")
        assert code == 0
        (cfg,) = resolved
        (phrase,) = passed
        assert phrase is cfg.phrase
        assert phrase == PhraseConfig(min_count=3, threshold=7.5)

    @pytest.mark.parametrize("source", ["flag", "json"])
    def test_cluster_k_above_top_m_rejected_before_any_stage(
            self, run_cli, tmp_path, write_config, pipeline_config_dict, source):
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        flags = ["--cluster.k", "41"]
        if source == "json":
            cfg_dict["cluster"]["k"] = 41
            flags = []
        out = tmp_path / "out"
        code, _, err = run_cli("pipeline", "--config", write_config(cfg_dict, out), *flags)
        assert code == 1
        assert err.startswith("error: cluster.k=41 exceeds cluster.top_m=40")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_evaluate_requires_labeled_corpus(self, run_cli, tmp_path, write_config, pipeline_config_dict):
        out = tmp_path / "out"
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        cfg = write_config(cfg_dict, out)
        assert run_cli("extract", "--config", cfg)[0] == 0
        assert run_cli("rank", "--config", cfg)[0] == 0
        code, _, err = run_cli("evaluate", "--config", cfg, "--paths.corpus_labeled", "")
        assert code == 1
        assert "corpus_labeled" in err


PARSES_OR_LEXICON = ("noun-verb extraction needs dependency parses (paths.parses) or a "
                     "part-of-speech lexicon (paths.lexicon); point one of them at a file")
CORPUS = "set paths.corpus_unlabeled and/or paths.corpus_labeled"
VECTORS = "paths.vectors is required for ranking and clustering"
NO_CORPUS = ["--paths.corpus_unlabeled", "", "--paths.corpus_labeled", ""]
# (command, message of one of its config needs) -> flags that leave that
# need, and none the command checks before it, unmet on the fixture config.
# Under pipeline an earlier stage's need with the same message may fail first.
NEED_GAPS = {
    ("extract", PARSES_OR_LEXICON): ["--paths.parses", ""],
    ("extract", CORPUS): NO_CORPUS,
    ("rank", VECTORS): ["--paths.vectors", ""],
    ("rank", CORPUS): ["--rank.method", "baseline", *NO_CORPUS],
    ("cluster", "cluster.k is required: choose the number of sub-event clusters"):
        ["--cluster.k", ""],
    ("cluster", VECTORS): ["--paths.vectors", ""],
    ("evaluate", "paths.corpus_labeled is required: evaluation needs labels"):
        ["--paths.corpus_labeled", ""],
}
# (command, artifact it reads) -> the stage that writes the artifact.
READ_PRODUCERS = {
    ("rank", "candidates"): "extract",
    ("cluster", "ranked"): "rank",
    ("evaluate", "ranked"): "rank",
    ("report", "metrics"): "evaluate",
}


class TestStageTable:
    """cli.STAGES: what each command needs, reads and writes."""

    def test_each_read_is_written_earlier_in_the_pipeline(self):
        written = set()
        for name in cli.PIPELINE:
            stage = cli.STAGES[name]
            assert set(stage.reads) <= written, name
            written.update(stage.writes)

    def test_each_artifact_has_one_producer(self):
        writes = [artifact for stage in cli.STAGES.values() for artifact in stage.writes]
        assert sorted(writes) == sorted(set(writes))
        assert set(writes) <= set(cli.ARTIFACTS)
        assert set(cli.PRODUCER) == set(writes)

    def test_commands_are_the_stages(self):
        assert list(cli.COMMANDS) == list(cli.STAGES)
        assert cli.STAGES["pipeline"].runs == cli.PIPELINE

    def test_manifest_lists_the_pipeline_writes_in_order(self, run_cli, tmp_path, write_config,
                                                       pipeline_config_dict):
        out = tmp_path / "out"
        assert run_cli("pipeline", "--config", write_config(pipeline_config_dict, out))[0] == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert list(manifest["artifacts"]) == [
            artifact for name in cli.PIPELINE for artifact in cli.STAGES[name].writes]

    def test_every_need_and_read_has_a_case(self):
        assert set(NEED_GAPS) == {(name, message) for name, stage in cli.STAGES.items()
                                  for _, message in stage.needs}
        assert set(READ_PRODUCERS) == {(name, artifact) for name, stage in cli.STAGES.items()
                                       for artifact in stage.reads}

    @pytest.mark.parametrize("command, stage, message", [
        pytest.param(command, stage, message, id=f"{command}:{stage}:" + ",".join(
            flag[2:] for flag in NEED_GAPS[stage, message] if flag.startswith("--")))
        for stage, message in NEED_GAPS
        for command in [stage, *(["pipeline"] if stage in cli.PIPELINE else [])]
    ])
    def test_unmet_need_exits_1_without_out_dir(self, run_cli, tmp_path, write_config,
                                               pipeline_config_dict, command, stage, message):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        code, stdout, err = run_cli(command, "--config", cfg, *NEED_GAPS[stage, message])
        assert (code, stdout, err) == (1, "", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, artifact", list(READ_PRODUCERS))
    def test_missing_artifact_names_its_producer(self, run_cli, tmp_path, write_config,
                                                 pipeline_config_dict, command, artifact):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        code, stdout, err = run_cli(command, "--config", cfg)
        path = out / cli.ARTIFACTS[artifact]
        producer = READ_PRODUCERS[command, artifact]
        assert (code, stdout) == (1, "")
        assert err == f"error: {path} not found; run the {producer} stage first\n"
        assert not out.exists()


class TestStagedFlow:
    def test_stage_by_stage(self, run_cli, tmp_path, write_config, pipeline_config_dict):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)

        code, stdout, _ = run_cli("extract", "--config", cfg)
        assert code == 0
        assert "extraction accounting" in stdout
        assert (out / "candidates.csv").exists()
        assert (out / "accounting.json").exists()

        code, stdout, _ = run_cli("rank", "--config", cfg)
        assert code == 0
        assert "moac" in stdout
        assert "candidates without a vector: 0 (scored -1, ranked last)" in stdout
        assert "terms without a vector:      0 of 8 (not used for scoring)" in stdout
        assert (out / "ranked.csv").exists()

        code, stdout, _ = run_cli("cluster", "--config", cfg)
        assert code == 0
        assert "top 40 candidates without a vector: 0 (left unclustered)" in stdout
        assert (out / "clusters.json").exists()

        code, stdout, _ = run_cli("evaluate", "--config", cfg)
        assert code == 0
        assert "best f1" in stdout
        assert (out / "metrics.csv").exists()

        code, stdout, _ = run_cli("report", "--config", cfg)
        assert code == 0
        for name in ("report_f1.svg", "report_roc.svg"):
            svg = (out / name).read_text(encoding="utf-8")
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")

    def test_rank_and_cluster_report_what_has_no_vector(
            self, run_cli, tmp_path, write_config, pipeline_config_dict):
        # Drop the vectors of one term and of both words of the top candidate.
        dropped = ("anchortheta ", "cnounaa ", "cverbaa ")
        lines = Path(pipeline_config_dict["paths"]["vectors"]).read_text(
            encoding="utf-8").splitlines(keepends=True)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("".join(line for line in lines if not line.startswith(dropped)),
                           encoding="utf-8")
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        cfg_dict["paths"]["vectors"] = str(vectors)
        cfg = write_config(cfg_dict, tmp_path / "out")
        assert run_cli("extract", "--config", cfg)[0] == 0
        code, stdout, _ = run_cli("rank", "--config", cfg)
        assert code == 0
        assert "candidates without a vector: 1 (scored -1, ranked last)" in stdout
        assert "terms without a vector:      1 of 8 (not used for scoring)" in stdout
        code, stdout, _ = run_cli("cluster", "--config", cfg)
        assert code == 0
        assert "clustered 39 candidates into 8 clusters" in stdout
        assert "top 40 candidates without a vector: 1 (left unclustered)" in stdout

    def test_accounting_matches_golden(self, run_cli, tmp_path, write_config,
                                       pipeline_config_dict, fixtures_dir):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("extract", "--config", cfg)[0] == 0
        got = json.loads((out / "accounting.json").read_text(encoding="utf-8"))
        golden = json.loads((fixtures_dir / "pipeline_accounting.json").read_text(encoding="utf-8"))
        assert got == golden

    def test_baseline_rank_method(self, run_cli, tmp_path, write_config, pipeline_config_dict):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("extract", "--config", cfg)[0] == 0
        code, stdout, _ = run_cli("rank", "--config", cfg, "--rank.method", "baseline")
        assert code == 0
        assert "baseline" in stdout
        ranked = read_ranked(out / "ranked.csv")
        assert ranked
        assert all(rc.best_term is None for rc in ranked)
        assert all(rc.score >= 0.0 for rc in ranked)

    def test_baseline_rank_reads_no_parses(self, run_cli, tmp_path, write_config,
                                           pipeline_config_dict, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("extract", "--config", cfg)[0] == 0

        def no_parses(path):
            raise AssertionError(f"baseline rank loaded parses from {path}")

        monkeypatch.setattr("subevents.cli.load_parses", no_parses)
        code, _, err = run_cli("rank", "--config", cfg, "--rank.method", "baseline")
        assert code == 0, err

    def test_extract_reports_nv_sources(self, run_cli, tmp_path, write_config,
                                        pipeline_config_dict):
        cfg = write_config(pipeline_config_dict, tmp_path / "out")
        code, stdout, _ = run_cli("extract", "--config", cfg)
        assert code == 0
        assert "160 parsed, 0 lexicon fallback, 120 neither" in stdout

    @pytest.mark.parametrize("lexicon_only", [False, True], ids=["parsed", "lexicon-only"])
    def test_extract_nv_sources_sum_to_tweets_processed(self, run_cli, tmp_path, write_config,
                                                        pipeline_config_dict, fixtures_dir,
                                                        lexicon_only):
        """Each tweet processed takes its pairs from exactly one source."""
        flags = ["--paths.parses", "", "--paths.lexicon",
                 str(fixtures_dir / "pos_lexicon.txt")] if lexicon_only else []
        cfg = write_config(pipeline_config_dict, tmp_path / "out")
        code, stdout, _ = run_cli("extract", "--config", cfg, *flags)
        assert code == 0
        tweets = int(re.search(r"\n  tweets processed: +(\d+)\n", stdout)[1])
        sources = re.search(r"\n  nv pair source: +(\d+) parsed, (\d+) lexicon fallback,"
                            r" (\d+) neither\n", stdout)
        parsed, fallback, neither = map(int, sources.groups())
        assert tweets == 280
        assert parsed + fallback + neither == tweets
        if lexicon_only:
            assert (parsed, fallback, neither) == (0, tweets, 0)

    def test_unmatched_parse_file_warns_with_lexicon(self, run_cli, tmp_path, write_config,
                                                      pipeline_config_dict, caplog):
        parses = tmp_path / "other.conllu"
        parses.write_text(
            "# tweet_id = nobody\n1\tx\tx\tNOUN\t_\t_\t0\troot\t_\t_\n", encoding="utf-8"
        )
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("flood\tN\nrise\tV\n", encoding="utf-8")
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        cfg_dict["paths"].update(parses=str(parses), lexicon=str(lexicon))
        cfg = write_config(cfg_dict, tmp_path / "out")
        with caplog.at_level("WARNING"):
            code, stdout, _ = run_cli("extract", "--config", cfg)
        assert code == 0
        assert "0 parsed, 280 lexicon fallback, 0 neither" in stdout
        assert any("matched the parse file" in rec.message for rec in caplog.records)


def _oov_vectors(pipeline_config_dict: dict, tmp_path: Path) -> Path:
    """The fixture vectors without the rows of four words of top-ranked
    candidates, so that those words are out of vocabulary."""
    dropped = ("cnounaa ", "cverbaa ", "cnounab ", "nverbac ")
    lines = Path(pipeline_config_dict["paths"]["vectors"]).read_text(
        encoding="utf-8").splitlines(keepends=True)
    vectors = tmp_path / "oov_vectors.txt"
    vectors.write_text("".join(line for line in lines if not line.startswith(dropped)),
                       encoding="utf-8")
    return vectors


class TestPipeline:
    def test_manifest_records_run(self, run_cli, tmp_path, write_config, pipeline_config_dict):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        code, stdout, _ = run_cli("pipeline", "--config", cfg)
        assert code == 0
        assert "pipeline complete" in stdout

        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["tool_version"] == __version__
        assert manifest["config"]["cluster"]["k"] == 8

        for name, entry in manifest["artifacts"].items():
            assert entry["sha256"] == sha256(out / entry["path"]), name
        vectors_path = pipeline_config_dict["paths"]["vectors"]
        assert manifest["inputs"]["vectors"]["sha256"] == sha256(vectors_path)

        stages = manifest["stage_seconds"]
        assert set(stages) == {"extract", "rank", "cluster", "evaluate"}
        assert all(v >= 0 for v in stages.values())
        assert manifest["total_seconds"] >= max(stages.values())

    def test_stage_alone_removes_the_manifest(self, run_cli, tmp_path, write_config,
                                              pipeline_config_dict):
        # A manifest whose checksums no longer match the artifacts is gone;
        # report writes no artifact the manifest lists, so it keeps it.
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("pipeline", "--config", cfg)[0] == 0
        assert run_cli("report", "--config", cfg)[0] == 0
        assert (out / "manifest.json").exists()
        code, _, _ = run_cli("extract", "--config", cfg,
                             "--phrase.threshold", "0", "--filter_min_freq", "5")
        assert code == 0
        assert not (out / "manifest.json").exists()

    # manifest.json files the package did not write: another tool's JSON,
    # a JSON object short of one key cmd_pipeline writes, other JSON, text
    # that is no JSON, and bytes that are no UTF-8.
    FOREIGN_MANIFESTS = [
        pytest.param(b'{"name": "my-web-app", "version": "1.0"}', id="other-tool"),
        pytest.param(b'{"tool_version": "0", "artifacts": {}}', id="no-stage-seconds"),
        pytest.param(b'["tool_version", "artifacts", "stage_seconds"]', id="json-list"),
        pytest.param(b"manifest: yes\n", id="not-json"),
        pytest.param(b'{"tool_version": "\xff"}', id="not-utf8"),
    ]

    @pytest.mark.parametrize("foreign", FOREIGN_MANIFESTS)
    def test_stages_keep_a_foreign_manifest(self, run_cli, tmp_path, write_config,
                                            pipeline_config_dict, foreign):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("pipeline", "--config", cfg)[0] == 0
        (out / "manifest.json").write_bytes(foreign)
        for stage in ("extract", "rank", "cluster", "evaluate", "report"):
            assert run_cli(stage, "--config", cfg)[0] == 0, stage
            assert (out / "manifest.json").read_bytes() == foreign, stage

    @pytest.mark.parametrize("foreign", FOREIGN_MANIFESTS)
    def test_pipeline_refuses_a_foreign_manifest(self, run_cli, tmp_path, write_config,
                                                 pipeline_config_dict, foreign):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_bytes(foreign)
        cfg = write_config(pipeline_config_dict, out)
        code, stdout, stderr = run_cli("pipeline", "--config", cfg)
        assert code == 1
        assert stdout == ""
        assert stderr == (f"error: {out / 'manifest.json'} was not written by subevents;"
                          " move it or choose another paths.out_dir\n")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert (out / "manifest.json").read_bytes() == foreign

    def test_pipeline_replaces_its_own_manifest(self, run_cli, tmp_path, write_config,
                                                pipeline_config_dict):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("pipeline", "--config", cfg)[0] == 0
        first = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert set(cli.MANIFEST_KEYS) <= set(first)
        assert run_cli("pipeline", "--config", cfg, "--cluster.k", "5")[0] == 0
        second = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert second["config"]["cluster"]["k"] == 5

    def test_pipeline_failing_part_way_leaves_no_manifest(self, run_cli, tmp_path, write_config,
                                                         pipeline_config_dict):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("pipeline", "--config", cfg)[0] == 0
        bad = tmp_path / "bad_vectors.txt"
        bad.write_text("not a header\n", encoding="utf-8")
        assert run_cli("pipeline", "--config", cfg, "--paths.vectors", str(bad))[0] == 2
        assert (out / "candidates.csv").exists()
        assert not (out / "manifest.json").exists()

    def test_artifacts_byte_identical_across_runs(self, run_cli, tmp_path, write_config,
                                                  pipeline_config_dict):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write_config(pipeline_config_dict, out_a)
        cfg_b = write_config(pipeline_config_dict, out_b)
        assert run_cli("pipeline", "--config", cfg_a)[0] == 0
        assert run_cli("pipeline", "--config", cfg_b)[0] == 0
        for name in ("candidates.csv", "accounting.json", "ranked.csv",
                     "clusters.json", "metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_override_lands_in_manifest(self, run_cli, tmp_path, write_config,
                                             pipeline_config_dict):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("pipeline", "--config", cfg, "--cluster.seed", "9")[0] == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["cluster"]["seed"] == 9

    def test_dotted_override_lands_in_manifest(self, run_cli, tmp_path, write_config,
                                               pipeline_config_dict):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("pipeline", "--config", cfg, "--cluster.k", "5")[0] == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["cluster"]["k"] == 5
        clusters = json.loads((out / "clusters.json").read_text(encoding="utf-8"))
        assert len(clusters) == 5


    @pytest.mark.parametrize("variant", ["moac", "baseline", "subword"])
    def test_pipeline_is_the_staged_run(self, run_cli, tmp_path, write_config,
                                        pipeline_config_dict, monkeypatch, caplog, variant):
        # A second, malformed row for a top candidate's word, which every
        # stage that reads it warns about. Under "subword" the word has no
        # other row, so it is composed from subword bucket vectors.
        flags = {"moac": [], "baseline": ["--rank.method", "baseline"],
                 "subword": ["--rank.oov_policy", "subword"]}[variant]
        base = (_oov_vectors(pipeline_config_dict, tmp_path) if variant == "subword"
                else Path(pipeline_config_dict["paths"]["vectors"]))
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(base.read_text(encoding="utf-8") + "cnounaa 1 2\n", encoding="utf-8")
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        cfg_dict["paths"]["vectors"] = str(vectors)
        out = tmp_path / "out"
        cfg = write_config(cfg_dict, out)

        # Each stage handler entered and each set of words whose vectors
        # are loaded, in order.
        events = []
        for name in ("extract", "rank", "cluster", "evaluate"):
            def handler(cfg, out_dir, name=name, run=cli.COMMANDS[name]):
                events.append(name)
                run(cfg, out_dir)
            monkeypatch.setitem(cli.COMMANDS, name, handler)
        load_vectors = cli.load_vectors

        def recording_load(*args, words, **kwargs):
            events.append(frozenset(words))
            return load_vectors(*args, words=words, **kwargs)

        monkeypatch.setattr(cli, "load_vectors", recording_load)

        def run(*stages):
            """The events, stderr lines and artifacts of `stages` run one
            by one on a fresh out dir."""
            shutil.rmtree(out, ignore_errors=True)
            events.clear()
            caplog.clear()
            stderr = []
            with caplog.at_level("INFO"):
                for stage in stages:
                    code, _, err = run_cli(stage, "--config", cfg, "--verbose", *flags)
                    assert code == 0
                    stderr += [f"{rec.levelname} {rec.name}: {rec.getMessage()}"
                               for rec in caplog.records] + err.splitlines()
                    caplog.clear()
            artifacts = {name: (out / name).read_bytes() for name in (
                "candidates.csv", "accounting.json", "ranked.csv", "clusters.json",
                "metrics.csv")}
            return list(events), stderr, artifacts

        staged = run("extract", "rank", "cluster", "evaluate")
        assert run("pipeline") == staged
        events, stderr, _ = staged
        loads = [event for event in events if isinstance(event, frozenset)]
        assert len(loads) == (1 if variant == "baseline" else 2)
        assert "cnounaa" in loads[-1]
        rejected = [line for line in stderr if "rejecting row for 'cnounaa'" in line]
        assert len(rejected) == len(loads)

    @pytest.mark.parametrize("variant", ["shipped", "subword"])
    def test_staged_run_matches_pipeline(self, run_cli, tmp_path, write_config,
                                         pipeline_config_dict, variant):
        # Run alone, rank loads the vectors of the candidate and term words
        # and cluster only those of the top candidates' words; the pipeline
        # loads rank's words once for both. Under "subword", top candidates'
        # words without a vector are composed from subword bucket vectors.
        flags, ranked_sha, clusters_sha, _ = _golden_flags(variant, pipeline_config_dict, tmp_path)
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("extract", "--config", cfg, *flags)[0] == 0
        code, stdout, _ = run_cli("rank", "--config", cfg, *flags)
        assert code == 0
        assert "candidates without a vector: 0 " in stdout
        code, stdout, _ = run_cli("cluster", "--config", cfg, *flags)
        assert code == 0
        assert "top 40 candidates without a vector: 0 " in stdout
        top = [rc.candidate.first for rc in read_ranked(out / "ranked.csv")[:40]]
        assert {"cnounaa", "cnounab"} <= set(top)
        assert sha256(out / "ranked.csv") == ranked_sha
        assert sha256(out / "clusters.json") == clusters_sha

    def test_vector_rows_are_checked_only_for_words_looked_up(
            self, run_cli, tmp_path, write_config, pipeline_config_dict, caplog):
        # A second, malformed row for a top candidate's word, for a term's
        # word and for a word that no candidate or term uses.
        vectors = tmp_path / "vectors.txt"
        vectors.write_text(
            Path(pipeline_config_dict["paths"]["vectors"]).read_text(encoding="utf-8")
            + "cnounaa 1 2\nanchortheta 1 2\nunusedword 1 2\n", encoding="utf-8")
        cfg_dict = json.loads(json.dumps(pipeline_config_dict))
        cfg_dict["paths"]["vectors"] = str(vectors)
        cfg = write_config(cfg_dict, tmp_path / "out")

        def warned(stage):
            caplog.clear()
            with caplog.at_level("WARNING", logger="subevents.embed"):
                assert run_cli(stage, "--config", cfg)[0] == 0
            return [rec.getMessage().split("'")[1] for rec in caplog.records
                    if rec.name == "subevents.embed"]

        assert warned("pipeline") == ["cnounaa", "anchortheta", "cnounaa"]
        assert warned("rank") == ["cnounaa", "anchortheta"]
        assert warned("cluster") == ["cnounaa"]

    def test_overflowing_vector_rows_score_as_out_of_vocabulary(
            self, run_cli, tmp_path, write_config, pipeline_config_dict):
        # Finite rows too large to sum and normalize in float64: 1e308 sums
        # to inf, and 1e200 has an infinite squared norm.
        source = Path(pipeline_config_dict["paths"]["vectors"]).read_text(encoding="utf-8")
        big = {"cnounaa": "1e308", "cverbaa": "1e308", "cnounab": "1e200"}
        overflowing, dropped = [], []
        for line in source.splitlines(keepends=True):
            word, *values = line.split()
            if word in big:
                overflowing.append(" ".join([word] + [big[word]] * len(values)) + "\n")
            else:
                overflowing.append(line)
                dropped.append(line)
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("extract", "--config", cfg)[0] == 0

        def ranked(lines, name):
            path = tmp_path / name
            path.write_text("".join(lines), encoding="utf-8")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert run_cli("rank", "--config", cfg, "--paths.vectors", str(path))[0] == 0
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            return (out / "ranked.csv").read_bytes()

        got = ranked(overflowing, "overflowing.txt")
        assert all(np.isfinite(rc.score) for rc in read_ranked(out / "ranked.csv"))
        assert got == ranked(dropped, "dropped.txt")

    def test_bad_vectors_fail_at_rank_after_extract(self, run_cli, tmp_path, write_config,
                                                    pipeline_config_dict):
        bad = tmp_path / "bad_vectors.txt"
        bad.write_text("not a header\n", encoding="utf-8")
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        code, _, _ = run_cli("pipeline", "--config", cfg, "--paths.vectors", str(bad))
        assert code == 2
        assert (out / "candidates.csv").exists() and (out / "accounting.json").exists()
        assert not (out / "ranked.csv").exists()


def _count_eigh(monkeypatch) -> list:
    """Record the shape of each numpy.linalg.eigh call from here on."""
    calls = []
    eigh = np.linalg.eigh

    def counting(m):
        calls.append(m.shape)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def _truncate(path, monkeypatch):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _empty(path, monkeypatch):
    path.write_bytes(b"")


def _flip_data_byte(path, monkeypatch):
    # The middle of the file lies in the eigenvector data; the zip CRC
    # check makes np.load raise BadZipFile, which is no OSError.
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _flip_last_row_byte(path, monkeypatch):
    # The middle of the last row of the saved eigenvector matrix lies in
    # the column of a middling eigenvalue, which a hit does not gather; only
    # the CRC check of the whole member, read to its end, finds it.
    with np.load(path) as saved:
        last = saved["vectors"][-1].tobytes()
    data = bytearray(path.read_bytes())
    data[data.rindex(last) + len(last) // 2] ^= 1
    path.write_bytes(bytes(data))


def _other_matrix(path, monkeypatch):
    # Well-formed, but keyed by another matrix: the identity's eigenvectors
    # would fail the residual gate if they were used.
    with np.load(path) as saved:
        n = len(saved["values"])
    np.savez(path, key=np.array(hashlib.sha256(b"another matrix").hexdigest()),
             values=np.ones(n), vectors=np.eye(n))


def _text(path, monkeypatch):
    path.write_text("not an npz file\n", encoding="utf-8")


def _npy(path, monkeypatch):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _write_fails(path, monkeypatch):
    path.unlink()

    def failing_savez(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(np, "savez", failing_savez)


class TestSpectrumCache:
    """cluster keeps the eigendecomposition in out_dir/spectrum.npz, so runs
    at several k on one ranking decompose the matrix once."""

    def _ranked(self, run_cli, write_config, pipeline_config_dict, out: Path) -> str:
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("extract", "--config", cfg)[0] == 0
        assert run_cli("rank", "--config", cfg)[0] == 0
        return cfg

    def _fresh(self, run_cli, cfg, out: Path, k: int) -> bytes:
        """clusters.json of cluster at k in a new out_dir holding only ranked.csv."""
        fresh = out.parent / f"fresh-{k}"
        fresh.mkdir()
        (fresh / "ranked.csv").write_bytes((out / "ranked.csv").read_bytes())
        args = ("cluster", "--config", cfg, "--paths.out_dir", str(fresh), "--cluster.k", str(k))
        assert run_cli(*args)[0] == 0
        return (fresh / "clusters.json").read_bytes()

    def test_sweep_decomposes_once(self, run_cli, tmp_path, write_config, pipeline_config_dict,
                                   monkeypatch):
        out = tmp_path / "out"
        cfg = self._ranked(run_cli, write_config, pipeline_config_dict, out)
        fresh = {k: self._fresh(run_cli, cfg, out, k) for k in (2, 3)}
        calls = _count_eigh(monkeypatch)
        for k in (2, 3, 2):
            assert run_cli("cluster", "--config", cfg, "--cluster.k", str(k))[0] == 0
            assert (out / "clusters.json").read_bytes() == fresh[k], k
        assert calls == [(40, 40)]
        assert (out / "spectrum.npz").is_file()

    def test_cluster_after_pipeline_reuses_its_decomposition(
            self, run_cli, tmp_path, write_config, pipeline_config_dict, monkeypatch):
        out = tmp_path / "out"
        cfg = write_config(pipeline_config_dict, out)
        assert run_cli("pipeline", "--config", cfg)[0] == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert "spectrum.npz" not in {entry["path"] for entry in manifest["artifacts"].values()}
        fresh = self._fresh(run_cli, cfg, out, 5)
        calls = _count_eigh(monkeypatch)
        assert run_cli("cluster", "--config", cfg, "--cluster.k", "5")[0] == 0
        assert calls == []
        assert (out / "clusters.json").read_bytes() == fresh

    @pytest.mark.parametrize("damage", [_truncate, _empty, _flip_data_byte, _flip_last_row_byte,
                                        _other_matrix, _text, _npy, _write_fails],
                             ids=lambda fn: fn.__name__.lstrip("_"))
    def test_bad_cache_is_a_miss(self, run_cli, tmp_path, write_config, pipeline_config_dict,
                                 monkeypatch, caplog, damage):
        out = tmp_path / "out"
        cfg = self._ranked(run_cli, write_config, pipeline_config_dict, out)
        assert run_cli("cluster", "--config", cfg)[0] == 0
        expected = (out / "clusters.json").read_bytes()
        damage(out / "spectrum.npz", monkeypatch)
        calls = _count_eigh(monkeypatch)
        with caplog.at_level("WARNING", logger="subevents.cluster"):
            code, _, err = run_cli("cluster", "--config", cfg)
        assert code == 0, err
        assert (out / "clusters.json").read_bytes() == expected
        assert calls == [(40, 40)]
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        warnings = [rec.getMessage() for rec in caplog.records if rec.name == "subevents.cluster"]
        if damage is _write_fails:
            assert not (out / "spectrum.npz").exists()
            assert len(warnings) == 1 and "could not save" in warnings[0]
        else:
            # The miss rewrote the file: the next run reads it.
            assert warnings == []
            assert run_cli("cluster", "--config", cfg)[0] == 0
            assert calls == [(40, 40)]
            assert (out / "clusters.json").read_bytes() == expected

    def test_old_layout_is_a_miss(self, run_cli, tmp_path, write_config, pipeline_config_dict,
                                  monkeypatch):
        # Before the layout tag: eigh's ascending values and the eigenvectors
        # as columns, keyed by the numpy version, the shape and the bytes.
        out = tmp_path / "out"
        cfg = self._ranked(run_cli, write_config, pipeline_config_dict, out)
        matrices = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: matrices.append(m.copy()) or eigh(m))
        assert run_cli("cluster", "--config", cfg)[0] == 0
        expected = (out / "clusters.json").read_bytes()
        (m,) = matrices
        digest = hashlib.sha256(np.__version__.encode())
        digest.update(repr(m.shape).encode())
        digest.update(m)
        old_key = digest.hexdigest()
        values, vectors = eigh(m)
        np.savez(out / "spectrum.npz", key=np.array(old_key), values=values, vectors=vectors)
        assert run_cli("cluster", "--config", cfg)[0] == 0
        assert len(matrices) == 2
        assert (out / "clusters.json").read_bytes() == expected
        with np.load(out / "spectrum.npz") as saved:
            assert saved["key"].item() != old_key
            assert np.all(np.diff(saved["values"]) >= 0.0)
        assert run_cli("cluster", "--config", cfg)[0] == 0
        assert len(matrices) == 2

    def test_descending_rows_layout_is_a_miss(self, run_cli, tmp_path, write_config,
                                              pipeline_config_dict, monkeypatch):
        # The layout before the file held eigh's output as returned: values
        # descending and the eigenvectors as rows in that order, under a key
        # of that layout tag, the numpy version, the BLAS thread settings,
        # the CPU count, the shape and the bytes.
        out = tmp_path / "out"
        cfg = self._ranked(run_cli, write_config, pipeline_config_dict, out)
        matrices = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: matrices.append(m.copy()) or eigh(m))
        assert run_cli("cluster", "--config", cfg)[0] == 0
        expected = (out / "clusters.json").read_bytes()
        (m,) = matrices
        digest = hashlib.sha256(b"values descending, eigenvectors as rows")
        digest.update(np.__version__.encode())
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            digest.update(f"\0{name}={os.environ.get(name)!r}".encode())
        digest.update(f"\0cpus={os.cpu_count()!r}\0".encode())
        digest.update(repr(m.shape).encode())
        digest.update(m)
        old_key = digest.hexdigest()
        values, vectors = eigh(m)
        order = np.argsort(-values, kind="stable")
        np.savez(out / "spectrum.npz", key=np.array(old_key), values=values[order],
                 vectors=vectors.T[order])
        assert run_cli("cluster", "--config", cfg)[0] == 0
        assert len(matrices) == 2
        assert (out / "clusters.json").read_bytes() == expected
        with np.load(out / "spectrum.npz") as saved:
            assert saved["key"].item() != old_key
        assert run_cli("cluster", "--config", cfg)[0] == 0
        assert len(matrices) == 2
        assert (out / "clusters.json").read_bytes() == expected

    def test_cache_file_mode_follows_umask(self, run_cli, tmp_path, write_config,
                                           pipeline_config_dict):
        out = tmp_path / "out"
        cfg = self._ranked(run_cli, write_config, pipeline_config_dict, out)
        old = os.umask(0o027)
        try:
            assert run_cli("cluster", "--config", cfg)[0] == 0
        finally:
            os.umask(old)

        def mode(name):
            return stat.S_IMODE((out / name).stat().st_mode)

        assert mode("spectrum.npz") == mode("clusters.json") == 0o640

    def test_verbose_logs_reuse_with_key(self, run_cli, tmp_path, write_config,
                                         pipeline_config_dict, caplog):
        out = tmp_path / "out"
        cfg = self._ranked(run_cli, write_config, pipeline_config_dict, out)

        def logged(k):
            caplog.clear()
            with caplog.at_level("INFO", logger="subevents.cluster"):
                assert run_cli("cluster", "--config", cfg, "--verbose", "--cluster.k", k)[0] == 0
            return [rec.getMessage() for rec in caplog.records
                    if rec.name == "subevents.cluster" and "eigendecomposition" in rec.getMessage()]

        (computed,) = logged("3")
        (reused,) = logged("2")
        assert computed.startswith("computed the eigendecomposition of the 40x40 matrix (key ")
        assert computed.endswith(f"and saved it to {out / 'spectrum.npz'}")
        assert reused.startswith("reused the eigendecomposition of the 40x40 matrix (key ")
        key = computed.split("(key ")[1].split(")")[0]
        assert len(key) == 12 and f"(key {key})" in reused


# sha256 of the two numpy-free artifacts on the fixture config, recorded
# with the tree-based parse reader: faster extraction must leave them be.
GOLDEN_EXTRACT = {
    "shipped": ([], "eb91bcc38b16a154d27ef8bf7f98e4d6d9132af8bb676130bfe7c71a560869f3",
                "11110fc75e7b89bfef5c0e7bc2e8130e1540df61f055f40ea2d0b015db33089f"),
    "lexicon": (["--paths.lexicon", "LEXICON"],
                "90a8791014b9d69b11ad949d3a1ea42e1974c2857ff84499721ef9ea3fe8e801",
                "da64818da5d01d23f9388aa272a12f3af0afe1e7091471c1769a5bf3e4d5a245"),
    "dedupe": (["--dedupe"], "eb91bcc38b16a154d27ef8bf7f98e4d6d9132af8bb676130bfe7c71a560869f3",
               "11110fc75e7b89bfef5c0e7bc2e8130e1540df61f055f40ea2d0b015db33089f"),
    # Recorded before extract became one counting pass.
    "edge_cases": (["--dedupe", "--paths.lexicon", "LEXICON",
                    "--paths.corpus_unlabeled", "UNLABELED", "--paths.corpus_labeled", "LABELED"],
                   "e08aeef3ac446b462e062218fb7d4984efdfeb89e4e8f1912ca905ad64983e00",
                   "3bbce7caaa5084de2e13a101f92273043b2cfa8570acb198ee4e9116f3d243e7"),
}


def _edge_case_corpora(paths: dict, tmp_path: Path) -> tuple[Path, Path]:
    """The fixture corpora with malformed lines in both files, duplicate
    texts within and across the files, and repeated tweet ids."""
    unlabeled = Path(paths["corpus_unlabeled"]).read_text(encoding="utf-8").splitlines()
    labeled = Path(paths["corpus_labeled"]).read_text(encoding="utf-8").splitlines()
    texts = {json.loads(line)["id"]: json.loads(line)["text"] for line in unlabeled + labeled}
    malformed = ["not json", '{"id": 7, "text": "x"}', '["list"]', '{"id": "m", "text": "a"']
    edge_unlabeled = []
    for i, line in enumerate(unlabeled):
        edge_unlabeled.append(line)
        if i % 20 == 0:
            edge_unlabeled.append(malformed[(i // 20) % len(malformed)])
    edge_unlabeled += [json.dumps({"id": f"xu{i}", "text": texts[f"l{i:03d}"]}) for i in range(10)]
    edge_unlabeled += [
        json.dumps({"id": "du0", "text": texts["u000"]}),   # duplicate text in the same file
        json.dumps({"id": "u001", "text": "cnounaa storm cverbaa surge"}),  # repeated id
        json.dumps({"id": "l003", "text": "cnounab storm cverbab"}),  # a labeled tweet's id
    ]
    edge_labeled = labeled + [
        json.dumps({"id": "b1", "text": "x", "label": "maybe"}),
        "garbage",
        json.dumps({"id": "b2"}),
        json.dumps({"id": "l000", "text": texts["l000"], "label": "informative"}),
    ] + [
        json.dumps({"id": f"xl{i}", "text": texts[f"u{i + 10:03d}"], "label": "uninformative"})
        for i in range(5)
    ]
    paths_out = tmp_path / "edge_unlabeled.jsonl", tmp_path / "edge_labeled.jsonl"
    for path, lines in zip(paths_out, (edge_unlabeled, edge_labeled)):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return paths_out


# Each variant also reads the parse sidecar in 7-character blocks, which
# cut a block at nearly every sentence, and folds the id buffer of extract's
# counts once it holds more than 1 or 7 entries (or more than the distinct
# bigrams held), so the held counts are merged many times.
_EXTRACT_PATCHES = {
    "block7": ("subevents.corpus.PARSE_BLOCK_CHARS", 7),
    "flush1": ("subevents.extract.FOLD_ENTRIES", 1),
    "flush7": ("subevents.extract.FOLD_ENTRIES", 7),
}


@pytest.mark.parametrize("variant, patch", [
    *(pytest.param(variant, None, id=variant) for variant in sorted(GOLDEN_EXTRACT)),
    *(pytest.param(variant, patch, id=f"{variant}-{patch}")
      for patch in _EXTRACT_PATCHES for variant in sorted(GOLDEN_EXTRACT)),
])
def test_extract_artifacts_match_golden_digests(run_cli, tmp_path, write_config, monkeypatch,
                                                pipeline_config_dict, variant, patch):
    # The lexicon tags each planted candidate's first word N and second word
    # V, so the 120 tweets without a parse add window pairs.
    if patch is not None:
        monkeypatch.setattr(*_EXTRACT_PATCHES[patch])
    planted = make_fixtures.crisis_candidates() + make_fixtures.noise_candidates()
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("".join(f"{first}\tN\n{second}\tV\n" for _, first, second in planted),
                       encoding="utf-8")
    flags, candidates_sha, accounting_sha = GOLDEN_EXTRACT[variant]
    unlabeled, labeled = _edge_case_corpora(pipeline_config_dict["paths"], tmp_path)
    placeholders = {"LEXICON": lexicon, "UNLABELED": unlabeled, "LABELED": labeled}
    flags = [str(placeholders.get(flag, flag)) for flag in flags]
    out = tmp_path / "out"
    assert run_cli("extract", "--config", write_config(pipeline_config_dict, out), *flags)[0] == 0
    assert sha256(out / "candidates.csv") == candidates_sha
    assert sha256(out / "accounting.json") == accounting_sha


# sha256 of ranked.csv, clusters.json and metrics.csv of the fixture
# pipeline, recorded with numpy 2.4 on x86-64; they hold under OpenBLAS's
# SkylakeX, Haswell and Prescott kernels. "subword" was re-recorded when
# the row helpers moved from BLAS to einsum: one score changed in its last
# digit. No variant changes what extract reads (the fixture corpora hold no
# duplicate texts), so each also gives the "shipped" extract digests above.
# The fixture holds no word without a vector, so "subword" ranks with
# OOV_VECTORS (``_oov_vectors``).
GOLDEN_PIPELINE = {
    "shipped": ([], "b716adb4c52c9362a9983b8f88023a2190ec3209afc1a58dcbbea3d91836f28d",
                "b4d88bbe8d9c557b142e06227856fb4b6352d4846c9f5753ec425e879b1b6438",
                "f120e9c03500394be4ccf58c3b626ae295c1091147096a9f99ea6239952ef487"),
    "baseline": (["--rank.method", "baseline"],
                 "4a29cab8818afd4210ec893f1395c26d45207c2cc37b9b1427d6d87845fa4ae9",
                 "f84bdd022da75ed91407b4cf4495c6ac7f5b126c983fde909ee42cd6a5327849",
                 "d3fe7250096d9b55039a1c612e19595ab40a4576ff0b7bc38942d240d42835c8"),
    "baseline_dedupe": (["--rank.method", "baseline", "--dedupe"],
                        "4a29cab8818afd4210ec893f1395c26d45207c2cc37b9b1427d6d87845fa4ae9",
                        "f84bdd022da75ed91407b4cf4495c6ac7f5b126c983fde909ee42cd6a5327849",
                        "d3fe7250096d9b55039a1c612e19595ab40a4576ff0b7bc38942d240d42835c8"),
    "subword": (["--rank.oov_policy", "subword", "--paths.vectors", "OOV_VECTORS"],
                "b124c5295110526cd668d87ab40d5d6ccf2214592b26b2d689f8f80e1ddb33ba",
                "8ce93ca22fff48d94d9480906760d495ed781ecec8162febf4ac5bbd41b3303d",
                "f120e9c03500394be4ccf58c3b626ae295c1091147096a9f99ea6239952ef487"),
}


PIPELINE_ARTIFACTS = ("candidates.csv", "accounting.json", "ranked.csv", "clusters.json",
                      "metrics.csv")


def _pipeline_digests(out: Path) -> dict[str, str]:
    return {name: sha256(out / name) for name in PIPELINE_ARTIFACTS}


def _golden_pipeline_digests(variant: str) -> dict[str, str]:
    _, *digests = GOLDEN_PIPELINE[variant]
    return dict(zip(PIPELINE_ARTIFACTS, [*GOLDEN_EXTRACT["shipped"][1:], *digests]))


def _golden_flags(variant: str, pipeline_config_dict: dict, tmp_path: Path) -> tuple:
    """``GOLDEN_PIPELINE[variant]`` with OOV_VECTORS in its flags replaced
    by the path of ``_oov_vectors``."""
    flags, *digests = GOLDEN_PIPELINE[variant]
    oov_vectors = str(_oov_vectors(pipeline_config_dict, tmp_path))
    return ([oov_vectors if flag == "OOV_VECTORS" else flag for flag in flags], *digests)


@pytest.mark.parametrize("variant", sorted(GOLDEN_PIPELINE))
def test_pipeline_artifacts_match_golden_digests(run_cli, tmp_path, write_config,
                                                 pipeline_config_dict, variant):
    flags, *_ = _golden_flags(variant, pipeline_config_dict, tmp_path)
    out = tmp_path / "out"
    assert run_cli("pipeline", "--config", write_config(pipeline_config_dict, out), *flags)[0] == 0
    assert _pipeline_digests(out) == _golden_pipeline_digests(variant)


def _openblas_configuration() -> str:
    """The build string numpy reports for its OpenBLAS; empty when it
    reports none (numpy before 1.26 has no ``mode`` for show_config)."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:
        return ""
    return config.get("Build Dependencies", {}).get("blas", {}).get("openblas configuration", "")


_NEEDS_DYNAMIC_ARCH = pytest.mark.skipif(
    "DYNAMIC_ARCH" not in _openblas_configuration(),
    reason="numpy's OpenBLAS is not built with DYNAMIC_ARCH, so OPENBLAS_CORETYPE cannot"
           " choose its kernel set")


@pytest.mark.parametrize("variable, value", [
    pytest.param("OPENBLAS_CORETYPE", "Haswell", id="Haswell", marks=_NEEDS_DYNAMIC_ARCH),
    pytest.param("OPENBLAS_CORETYPE", "Prescott", id="Prescott", marks=_NEEDS_DYNAMIC_ARCH),
    pytest.param("OPENBLAS_NUM_THREADS", "1", id="threads1"),
    pytest.param("OPENBLAS_NUM_THREADS", "4", id="threads4"),
])
def test_pipeline_digests_hold_under_other_blas_kernels(tmp_path, write_config,
                                                        pipeline_config_dict, variable, value):
    """Every golden pipeline variant, run in one child process under another
    OpenBLAS kernel set or BLAS thread count, writes the five artifacts of
    the default: no artifact float comes from BLAS, and the affinity, eigh
    and k-means screen that do use it give the same partitions."""
    outs, calls = {}, []
    for variant in GOLDEN_PIPELINE:
        flags, *_ = _golden_flags(variant, pipeline_config_dict, tmp_path)
        outs[variant] = tmp_path / variant
        calls.append(["pipeline", "--config", write_config(pipeline_config_dict, outs[variant]),
                      *flags])
    script = ("import json, sys\n"
              "from subevents.cli import main\n"
              "for args in json.loads(sys.argv[1]):\n"
              "    assert main(args) == 0, args\n")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), variable: value}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert {variant: _pipeline_digests(out) for variant, out in outs.items()} == {
        variant: _golden_pipeline_digests(variant) for variant in GOLDEN_PIPELINE}


# sha256 of ranked.csv from the overlap baseline (extract, then rank) on
# ``_edge_case_corpora``, whose duplicate texts and repeated tweet ids the
# fixture corpora lack: they pin the baseline's dedupe and its counting of
# a repeated id once.
GOLDEN_BASELINE_EDGE_CASES = {
    "keep_duplicates": ([], "a05133fdc3dd9ab44e33b8bcf76e055d2094c5d7ba7560ec454c19d4313429e9"),
    "dedupe": (["--dedupe"], "4a9d9eccd5323efc3690595a7094461705e9aff3e2caeaee3230328b915a55ba"),
}


@pytest.mark.parametrize("variant", sorted(GOLDEN_BASELINE_EDGE_CASES))
def test_baseline_rank_on_edge_cases_matches_golden_digest(run_cli, tmp_path, write_config,
                                                           pipeline_config_dict, variant):
    flags, ranked_sha = GOLDEN_BASELINE_EDGE_CASES[variant]
    unlabeled, labeled = _edge_case_corpora(pipeline_config_dict["paths"], tmp_path)
    out = tmp_path / "out"
    args = ["--config", write_config(pipeline_config_dict, out), *flags,
            "--paths.corpus_unlabeled", str(unlabeled), "--paths.corpus_labeled", str(labeled)]
    assert run_cli("extract", *args)[0] == 0
    assert run_cli("rank", *args, "--rank.method", "baseline")[0] == 0
    assert sha256(out / "ranked.csv") == ranked_sha


# sha256 of metrics.csv from ``evaluate`` run alone (after extract and rank
# on the fixture) on the labeled file of ``_edge_case_corpora`` plus one
# line with no label: malformed, unknown-label and unlabeled lines count
# for neither class, and the repeated id ``l000`` counts twice.
GOLDEN_EVALUATE_EDGE_CASES = (
    "443e1e458a95ee1e77c992aea4ea5271929784626d9074b48006c95e0204bf9c")


def _evaluate_edge_cases(run_cli, tmp_path, write_config, pipeline_config_dict):
    """stdout and the metrics.csv path of ``evaluate`` on the edge-case
    labeled file (see ``GOLDEN_EVALUATE_EDGE_CASES``)."""
    _, labeled = _edge_case_corpora(pipeline_config_dict["paths"], tmp_path)
    with labeled.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({"id": "nl0", "text": "cnounaa storm cverbaa surge"}) + "\n")
    out = tmp_path / "out"
    cfg = write_config(pipeline_config_dict, out)
    assert run_cli("extract", "--config", cfg)[0] == 0
    assert run_cli("rank", "--config", cfg)[0] == 0
    code, stdout, _ = run_cli("evaluate", "--config", cfg, "--paths.corpus_labeled", str(labeled))
    assert code == 0
    return stdout, out / "metrics.csv"


def test_evaluate_on_edge_cases_matches_golden_digest(run_cli, tmp_path, write_config,
                                                      pipeline_config_dict):
    _, metrics = _evaluate_edge_cases(run_cli, tmp_path, write_config, pipeline_config_dict)
    assert sha256(metrics) == GOLDEN_EVALUATE_EDGE_CASES


def test_evaluate_reports_what_it_read(run_cli, tmp_path, write_config, pipeline_config_dict):
    stdout, _ = _evaluate_edge_cases(run_cli, tmp_path, write_config, pipeline_config_dict)
    # 40 + 40 fixture tweets, the repeated l000 and five more uninformative;
    # the unknown label, "garbage" and the line with no text are malformed.
    assert stdout.splitlines()[-1] == (
        "  labeled file:      41 informative, 45 uninformative;"
        " discarded 3 malformed lines, 1 without a label")


def test_extract_reports_what_it_discarded(run_cli, tmp_path, write_config, pipeline_config_dict):
    unlabeled, labeled = _edge_case_corpora(pipeline_config_dict["paths"], tmp_path)
    cfg = write_config(pipeline_config_dict, tmp_path / "out")
    args = ["extract", "--config", cfg,
            "--paths.corpus_unlabeled", str(unlabeled), "--paths.corpus_labeled", str(labeled)]
    code, stdout, _ = run_cli(*args, "--dedupe")
    assert code == 0
    assert "  discarded:         13 malformed lines, 17 duplicate tweets\n" in stdout
    code, stdout, _ = run_cli(*args)
    assert code == 0
    assert "  discarded:         13 malformed lines, 0 duplicate tweets\n" in stdout


def test_baseline_rank_reports_what_it_discarded(run_cli, tmp_path, write_config,
                                                 pipeline_config_dict):
    """The baseline reads the corpus again and reports what it discarded as
    extract does; the MOAC ranking reads no corpus and reports nothing."""
    unlabeled, labeled = _edge_case_corpora(pipeline_config_dict["paths"], tmp_path)
    cfg = write_config(pipeline_config_dict, tmp_path / "out")
    args = ["--config", cfg,
            "--paths.corpus_unlabeled", str(unlabeled), "--paths.corpus_labeled", str(labeled)]
    assert run_cli("extract", *args)[0] == 0
    for flags, duplicates in (["--dedupe"], 17), ([], 0):
        code, stdout, _ = run_cli("rank", *args, "--rank.method", "baseline", *flags)
        assert code == 0
        assert stdout.splitlines()[1:] == [
            f"  discarded:         13 malformed lines, {duplicates} duplicate tweets"]
    code, stdout, _ = run_cli("rank", *args)
    assert code == 0
    assert "discarded" not in stdout



@pytest.mark.parametrize("flags", [
    ["--phrase.min_count", "99999999999999999999", "--filter_min_freq", "99999999999999999999"],
    ["--phrase.threshold", "1e308", "--filter_min_freq", "99999999999999999999"],
])
def test_extract_takes_huge_gates(run_cli, tmp_path, write_config, pipeline_config_dict, flags):
    """Gates past int64 or near the float64 maximum keep every candidate
    out, and the distinct pairs are counted as with the default gates."""
    cfg = write_config(pipeline_config_dict, tmp_path / "out")
    assert run_cli("extract", "--config", cfg)[0] == 0
    default = json.loads((tmp_path / "out" / "accounting.json").read_text(encoding="utf-8"))
    code, _, err = run_cli("extract", "--config", cfg, *flags)
    assert code == 0, err
    got = json.loads((tmp_path / "out" / "accounting.json").read_text(encoding="utf-8"))
    assert (got["phrases"], got["nv_after"], got["total"]) == (0, 0, 0)
    assert got["nv_before"] == default["nv_before"] > 0
    assert read_candidates(tmp_path / "out" / "candidates.csv") == []


def test_verbose_cluster_logs_one_kmeans_line(run_cli, tmp_path, write_config,
                                              pipeline_config_dict, caplog):
    cfg = write_config(pipeline_config_dict, tmp_path / "out")
    assert run_cli("extract", "--config", cfg)[0] == 0
    assert run_cli("rank", "--config", cfg)[0] == 0
    code, quiet, _ = run_cli("cluster", "--config", cfg)
    assert code == 0
    with caplog.at_level("INFO", logger="subevents.cluster"):
        code, verbose, _ = run_cli("cluster", "--config", cfg, "--verbose")
    assert code == 0 and verbose == quiet
    (line,) = [rec.getMessage() for rec in caplog.records
               if rec.name == "subevents.cluster" and rec.getMessage().startswith("k-means: ")]
    assert " iterations, final inertia " in line
    assert line.endswith(" row assignments decided by the exact recheck")


@pytest.mark.parametrize("calls", ["010", "101"], ids=["quiet_first", "verbose_first"])
def test_verbose_holds_for_each_in_process_call(tmp_path, write_config, pipeline_config_dict,
                                                calls):
    """Calls of ``main`` in one process, each quiet (0) or verbose (1),
    print INFO lines to stderr exactly when verbose, whatever came before.
    A fresh process is used because the first call sets up the root
    logger's stderr handler."""
    cfg = write_config(pipeline_config_dict, tmp_path / "out")
    script = ("import sys\n"
              "from subevents.cli import main\n"
              "for verbose in sys.argv[1]:\n"
              "    print('-- call', file=sys.stderr)\n"
              "    assert main(sys.argv[2:] + ['--verbose'] * (verbose == '1')) == 0\n")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script, calls, "pipeline", "--config", cfg],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    logs = proc.stderr.split("-- call\n")[1:]
    assert [str(int("\nINFO subevents." in "\n" + log)) for log in logs] == list(calls)

class TestBenchmarkTrace:
    def test_traced_pipeline_reports_layer_metrics(self, tmp_path):
        # perfbench/child.py wraps package functions by name; a renamed or
        # retyped one shows up here as a traceback or a missing metric.
        report = tmp_path / "report.json"
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "perfbench/child.py", str(report), "1", "--",
             "pipeline", "--config", "tests/fixtures/pipeline_config.json",
             "--paths.out_dir", str(tmp_path / "out")],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        layers = json.loads(report.read_text(encoding="utf-8"))["layers"]
        assert {"embed.vectors_n", "cluster.n", "rank.null_candidates_n"} <= set(layers["levels"])
        # len() of load_parses' result, the one dunder Parses keeps for the tracer.
        assert layers["levels"]["corpus.parses_n"] == 160
        assert layers["sums"]["embed.compose_calls"] > 0


class TestDedupeFlag:
    def _mini_setup(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        rows = [
            {"id": "1", "text": "road blocked badly"},
            {"id": "2", "text": "road blocked badly"},
            {"id": "3", "text": "road blocked badly"},
            {"id": "4", "text": "calm waters flow"},
        ]
        corpus.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        lexicon = tmp_path / "lex.txt"
        lexicon.write_text("road\tN\nblocked\tV\n", encoding="utf-8")
        return corpus, lexicon

    def _accounting(self, tmp_path):
        return json.loads((tmp_path / "out" / "accounting.json").read_text(encoding="utf-8"))

    def test_bare_flag_enables_dedupe(self, run_cli, tmp_path):
        corpus, lexicon = self._mini_setup(tmp_path)
        code, _, _ = run_cli(
            "extract", "--dedupe",
            "--paths.corpus_unlabeled", str(corpus),
            "--paths.lexicon", str(lexicon),
            "--paths.out_dir", str(tmp_path / "out"),
        )
        assert code == 0
        assert self._accounting(tmp_path)["tweets"] == 2

    def test_explicit_false_keeps_duplicates(self, run_cli, tmp_path):
        corpus, lexicon = self._mini_setup(tmp_path)
        code, _, _ = run_cli(
            "extract", "--dedupe", "false",
            "--paths.corpus_unlabeled", str(corpus),
            "--paths.lexicon", str(lexicon),
            "--paths.out_dir", str(tmp_path / "out"),
        )
        assert code == 0
        assert self._accounting(tmp_path)["tweets"] == 4

    def test_default_keeps_duplicates(self, run_cli, tmp_path):
        corpus, lexicon = self._mini_setup(tmp_path)
        code, _, _ = run_cli(
            "extract",
            "--paths.corpus_unlabeled", str(corpus),
            "--paths.lexicon", str(lexicon),
            "--paths.out_dir", str(tmp_path / "out"),
        )
        assert code == 0
        assert self._accounting(tmp_path)["tweets"] == 4
