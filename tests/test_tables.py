"""The three CSV artifacts: framing errors seen through the CLI stage that
reads each file, and write/read round trips and reader robustness as
hypothesis properties."""

import csv
from collections.abc import Callable
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subevents.errors import InputFormatError
from subevents.evaluate import METRICS_CSV_HEADER, MetricsPoint, read_metrics, write_metrics
from subevents.extract import (
    CANDIDATE_CSV_HEADER,
    Candidate,
    CandidateKind,
    read_candidates,
    write_candidates,
)
from subevents.rank import RANKED_CSV_HEADER, RankedCandidate, read_ranked, write_ranked

INTS = st.integers(min_value=-(2**63), max_value=2**63)
FLOATS = st.floats(allow_nan=False)
# Words with the characters CSV framing must quote, plus any character UTF-8
# can encode (lone surrogates cannot be written to a UTF-8 file).
WORDS = st.text(st.characters(codec="utf-8") | st.sampled_from(',"\n\r '))
CANDIDATES = st.builds(Candidate, st.sampled_from(list(CandidateKind)), WORDS, WORDS, INTS)


class Table(NamedTuple):
    stage: str  # the CLI stage that reads the file
    header: list[str]
    good_row: str
    write: Callable
    read: Callable
    rows: st.SearchStrategy


TABLES = {
    "candidates.csv": Table(
        "rank", CANDIDATE_CSV_HEADER, "nv,road,blocked,3",
        write_candidates, read_candidates, CANDIDATES,
    ),
    "ranked.csv": Table(
        "cluster", RANKED_CSV_HEADER, "1,nv,road,blocked,3,0.5,flood",
        write_ranked, read_ranked,
        st.builds(RankedCandidate, CANDIDATES, FLOATS, st.none() | WORDS.filter(bool), INTS),
    ),
    "metrics.csv": Table(
        "report", METRICS_CSV_HEADER, "1,1,0,0,1,1.0,1.0,1.0,0.0,1.0",
        write_metrics, read_metrics,
        st.builds(MetricsPoint, INTS, INTS, INTS, INTS, INTS,
                  FLOATS, FLOATS, FLOATS, FLOATS, FLOATS),
    ),
}


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


@pytest.mark.parametrize("name", sorted(TABLES))
@pytest.mark.parametrize("case", ["field_over_limit", "unterminated_quote", "not_utf8"])
def test_stage_reports_framing_error_on_one_line(name, case, run_cli, tmp_path, write_config,
                                                  pipeline_config_dict):
    table = TABLES[name]
    good = table.good_row
    rows, tail, where = [good], b"", ":3: "
    if case == "field_over_limit":
        rows.append("x" * (csv.field_size_limit() + 1))
    elif case == "unterminated_quote":
        rows, where = ['"' + good, good], ":2: "
    else:
        tail, where = b"\xff\n", ": not UTF-8 text: "
    out = tmp_path / "out"
    out.mkdir()
    path = out / name
    path.write_bytes(("\n".join([",".join(table.header), *rows]) + "\n").encode("utf-8") + tail)
    code, _, err = run_cli(table.stage, "--config", write_config(pipeline_config_dict, out))
    assert code == 2
    assert err.startswith(f"error: {path}{where}")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(deadline=None)
@given(data=st.data())
def test_write_then_read_round_trips(name, data, table_dir):
    table = TABLES[name]
    rows = data.draw(st.lists(table.rows, max_size=5))
    path = table_dir / name
    table.write(rows, path)
    assert table.read(path) == rows


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(deadline=None)
@given(data=st.data())
def test_any_text_loads_or_raises_input_format_error(name, data, table_dir):
    table = TABLES[name]
    body = st.text(st.characters(codec="utf-8") | st.sampled_from(',"\n\r0123456789.-nv'))
    text = data.draw(body | body.map(lambda t: ",".join(table.header) + "\r\n" + t))
    path = table_dir / name
    path.write_bytes(text.encode("utf-8"))
    try:
        table.read(path)
    except InputFormatError:
        pass


def test_failed_write_leaves_previous_file_whole(tmp_path):
    """A write whose rows raise midway leaves the file it would replace
    byte-identical and no temp file behind."""
    path = tmp_path / "candidates.csv"
    write_candidates([Candidate(CandidateKind.NOUN_VERB_PAIR, "road", "blocked", 3)], path)
    before = path.read_bytes()

    def rows():
        yield Candidate(CandidateKind.PHRASE, "storm", "surge", 7)
        raise RuntimeError("stage stopped")

    with pytest.raises(RuntimeError, match="stage stopped"):
        write_candidates(rows(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["candidates.csv"]
