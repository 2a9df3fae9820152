"""README.md checked against the package: the python blocks of its
"Library use" section run as written, and its per-command table matches
``cli.STAGES``."""

import re
import shutil
from types import ModuleType

import numpy as np

import conftest
from subevents import cli
from subevents.config import OVERRIDABLE

README = conftest.REPO_ROOT / "README.md"

# The file names the README uses, and the pipeline fixture behind each.
README_FILES = {
    "unlabeled.jsonl": "pipeline_unlabeled.jsonl",
    "labeled.jsonl": "pipeline_labeled.jsonl",
    "tweets.conllu": "pipeline_parses.conllu",
    "vectors.txt": "pipeline_vectors.txt",
    "terms.txt": "pipeline_ontology.txt",
}


def _section(title: str) -> str:
    return README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _library_use_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", _section("Library use"),
                      flags=re.DOTALL | re.MULTILINE)


def test_library_use_blocks_run_in_order(fixtures_dir, tmp_path, monkeypatch):
    """Each block runs on the pipeline fixtures, seeing the values the
    blocks before it made but not their imports, so a block that uses a
    name it does not import fails."""
    for name, fixture in README_FILES.items():
        shutil.copy(fixtures_dir / fixture, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    blocks = _library_use_blocks()
    assert len(blocks) == 2
    values: dict = {}
    for block in blocks:
        namespace = dict(values)
        exec(compile(block, str(README), "exec"), namespace)
        values = {name: value for name, value in namespace.items()
                  if not name.startswith("__")
                  and not callable(value) and not isinstance(value, ModuleType)}
    assert values["ranked"]
    assert values["labels"].dtype == np.int64
    assert [summary["cluster_id"] for summary in values["summaries"]] == list(range(8))
    assert [point.k for point in values["metrics"]] == [1, 10, 100]


def _ticked(cell: str) -> list[str]:
    return re.findall(r"`([^`]+)`", cell)


def test_quick_start_stage_table_matches_stages():
    """Each row of the needs/reads/writes table is its STAGES entry: the
    config keys its needs' messages name, the stages it runs, and the files
    it reads and writes, in order."""
    rows = re.findall(r"^\| `(\w+)` \|([^|]*)\|([^|]*)\|([^|]*)\|$",
                      _section("Quick start"), flags=re.MULTILINE)
    assert [row[0] for row in rows] == list(cli.STAGES)
    for command, needs, reads, writes in rows:
        stage = cli.STAGES[command]
        named = {key for _, message in stage.needs
                 for key in re.findall(r"[\w.]+", message) if key in OVERRIDABLE}
        assert {key for key in _ticked(needs) if key in OVERRIDABLE} == named, command
        for cell in (needs, writes):
            assert [name for name in _ticked(cell) if name in cli.STAGES] == list(stage.runs)
        assert _ticked(reads) == [cli.ARTIFACTS[name] for name in stage.reads], command
        files = [name for name in _ticked(writes) if "." in name]
        assert files == [cli.ARTIFACTS[name] for name in stage.writes], command
