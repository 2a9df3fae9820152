"""The python blocks of README.md's "Library use" section run as written."""

import re
import shutil
from types import ModuleType

import conftest

README = conftest.REPO_ROOT / "README.md"

# The file names the README uses, and the pipeline fixture behind each.
README_FILES = {
    "unlabeled.jsonl": "pipeline_unlabeled.jsonl",
    "labeled.jsonl": "pipeline_labeled.jsonl",
    "tweets.conllu": "pipeline_parses.conllu",
    "vectors.txt": "pipeline_vectors.txt",
    "terms.txt": "pipeline_ontology.txt",
}


def _library_use_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, flags=re.DOTALL | re.MULTILINE)


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
    assert [point.k for point in values["metrics"]] == [1, 10, 100]
