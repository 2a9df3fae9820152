"""The exit-code contract under damaged inputs: a stage fed a mutated copy
of a file it reads exits 0, 1 or 2 and prints no traceback.

The files are the five pipeline fixture inputs and the artifacts a fixture
pipeline writes. A mutation is a few steps, each a cut at a random byte, a
byte changed, or a line repeated, emptied or the lines shuffled. An exit 0
on a damaged artifact is allowed here: stages do not yet check what they
read against what the stage before them wrote.
"""

import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import conftest
from subevents.cli import main

# Each mutated file, and the stages that read it.
READERS = {
    "pipeline_unlabeled.jsonl": ("extract",),
    "pipeline_labeled.jsonl": ("extract", "evaluate"),
    "pipeline_parses.conllu": ("extract",),
    "pipeline_vectors.txt": ("rank", "cluster"),
    "pipeline_ontology.txt": ("rank",),
    "candidates.csv": ("rank",),
    "ranked.csv": ("cluster", "evaluate"),
    "metrics.csv": ("report",),
    "spectrum.npz": ("cluster",),
}
# The config key of each fixture input.
INPUT_KEYS = {
    "pipeline_unlabeled.jsonl": "corpus_unlabeled",
    "pipeline_labeled.jsonl": "corpus_labeled",
    "pipeline_parses.conllu": "parses",
    "pipeline_vectors.txt": "vectors",
    "pipeline_ontology.txt": "ontology",
}


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        step = draw(st.sampled_from(["cut", "change", "repeat", "empty", "shuffle"]))
        if step == "cut":
            data = data[:draw(st.integers(0, len(data)))]
        elif step == "change":
            if data:
                i = draw(st.integers(0, len(data) - 1))
                data = data[:i] + bytes([data[i] ^ draw(st.integers(1, 255))]) + data[i + 1:]
        else:
            lines = data.split(b"\n")
            i = draw(st.integers(0, len(lines) - 1))
            if step == "repeat":
                lines.insert(i, lines[i])
            elif step == "empty":
                lines[i] = b""
            else:
                draw(st.randoms(use_true_random=False)).shuffle(lines)
            data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def pipeline_run(fixtures_dir, tmp_path_factory):
    """A config with absolute input paths, and the out_dir of one pipeline
    and report run on it."""
    root = tmp_path_factory.mktemp("exit_codes")
    cfg = json.loads((fixtures_dir / "pipeline_config.json").read_text(encoding="utf-8"))
    for key, value in cfg["paths"].items():
        cfg["paths"][key] = str(conftest.REPO_ROOT / value)
    config = root / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = root / "out"
    for stage in ("pipeline", "report"):
        assert main([stage, "--config", str(config), "--paths.out_dir", str(out)]) == 0
    return root, config, out


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_file_exits_0_1_or_2_without_traceback(data, pipeline_run, fixtures_dir,
                                                       capsys):
    root, config, base_out = pipeline_run
    name = data.draw(st.sampled_from(sorted(READERS)), label="file")
    stage = data.draw(st.sampled_from(READERS[name]), label="stage")
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    shutil.copytree(base_out, out)
    args = [stage, "--config", str(config), "--paths.out_dir", str(out)]
    if name in INPUT_KEYS:
        path = work / name
        args += [f"--paths.{INPUT_KEYS[name]}", str(path)]
        original = (fixtures_dir / name).read_bytes()
    else:
        path = out / name
        original = path.read_bytes()
    path.write_bytes(data.draw(_mutated(original), label="bytes"))
    capsys.readouterr()
    code = main(args)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
