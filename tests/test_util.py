import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subevents._util import fnv1a_32, format_float, sha256_file, write_json
from subevents.corpus import load_stopwords
from subevents.embed import EmbeddingStore
from subevents.errors import InputFormatError
from subevents.extract import load_pos_lexicon
from subevents.rank import load_ontology, read_terms


class TestFnv1a:
    def test_published_test_vectors(self):
        assert fnv1a_32(b"") == 0x811C9DC5
        assert fnv1a_32(b"a") == 0xE40C292C
        assert fnv1a_32(b"foobar") == 0xBF9CF968

    def test_fits_32_bits(self):
        for data in (b"x" * 100, bytes(range(256))):
            assert 0 <= fnv1a_32(data) < 1 << 32


class TestSha256File:
    def test_known_digest(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc")
        expected = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        assert sha256_file(str(path)) == expected


class TestFormatFloat:
    def test_round_trip_exact(self):
        for value in (0.1, 1 / 3, 2 / 3, 4 / 7, -1.0, 12.333333333333334):
            assert float(format_float(value)) == value

    def test_integers_keep_point(self):
        assert format_float(1.0) == "1.0"
        assert format_float(0) == "0.0"


LIST_LINES = [
    "flood", "Fire", "flood rise", "flood\tN", "rise\tNV", "x\tQ", "a\tN\tV", "\tV",
    "#", "# flood", " #x", "", " ", "\t", "\r", "\x85", "\u2028", "caf\u00e9", "\u0130",
]
LIST_BYTES = st.binary() | st.lists(
    st.sampled_from([line.encode("utf-8") for line in LIST_LINES]) | st.binary(max_size=8),
    max_size=12,
).map(b"\n".join)
_FLOOD_STORE = EmbeddingStore(dim=2, vectors={"flood": np.array([1.0, 0.0])})


@pytest.fixture(scope="module")
def list_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("lists")


class TestListFileProperties:
    @pytest.mark.parametrize("load", [
        load_stopwords, load_pos_lexicon,
        lambda path: load_ontology(read_terms(path), _FLOOD_STORE),
    ], ids=["stopwords", "lexicon", "term_list"])
    @settings(deadline=None)
    @given(data=LIST_BYTES)
    def test_any_bytes_load_or_raise_input_format_error(self, load, data, list_dir):
        path = list_dir / "list.txt"
        path.write_bytes(data)
        try:
            load(path)
        except InputFormatError:
            pass


class TestReplacing:
    def test_new_file_appears_whole_with_umask_mode(self, tmp_path):
        # The temp file renamed into place keeps its mode, so it must be
        # created as any new file is (mkstemp would make it 0600).
        path = tmp_path / "a.json"
        old = os.umask(0o027)
        try:
            write_json(path, {"k": [1, 2]})
        finally:
            os.umask(old)
        assert path.read_text(encoding="utf-8") == '{\n  "k": [\n    1,\n    2\n  ]\n}\n'
        assert stat.S_IMODE(path.stat().st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]
