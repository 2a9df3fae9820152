import dataclasses
import logging
import math
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from subevents import embed
from subevents._util import fnv1a_32
from subevents.embed import EmbeddingStore, OovPolicy, compose, load_vectors
from subevents.errors import InputFormatError


def _store(vectors, dim=3, policy=OovPolicy.SKIP_WORD, hash_seed=0):
    return EmbeddingStore(
        dim=dim,
        vectors={w: np.array(v, dtype=float) for w, v in vectors.items()},
        oov_policy=policy,
        hash_seed=hash_seed,
    )


class TestLoadVectors:
    def _write(self, tmp_path, text):
        path = tmp_path / "v.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_well_formed(self, tmp_path):
        path = self._write(tmp_path, "2 3\nflood 1 0 0\nfire 0 1 0\n")
        store = load_vectors(path)
        assert store.dim == 3
        assert set(store.vectors) == {"flood", "fire"}
        assert np.array_equal(store.vectors["flood"], [1.0, 0.0, 0.0])
        assert "flood" in store
        assert "absent" not in store

    def test_leading_byte_order_mark_is_ignored(self, tmp_path):
        path = self._write(tmp_path, "\ufeff2 3\nflood 1 0 0\nfire 0 1 0\n")
        assert set(load_vectors(path).vectors) == {"flood", "fire"}

    def test_bad_header_fatal(self, tmp_path):
        for header in ["", "3", "x y", "2 3 4", "-1 3", "2 0"]:
            path = self._write(tmp_path, header + "\nflood 1 0 0\n")
            with pytest.raises(InputFormatError):
                load_vectors(path)

    def test_wrong_arity_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "2 3\nflood 1 0\nfire 0 1 0\n")
        store = load_vectors(path)
        assert set(store.vectors) == {"fire"}

    def test_non_numeric_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "2 2\nflood 1 oops\nfire 0 1\n")
        assert set(load_vectors(path).vectors) == {"fire"}

    def test_non_finite_row_rejected(self, tmp_path):
        path = self._write(tmp_path, "2 2\nflood nan 0\nfire inf 1\n")
        assert load_vectors(path).vectors == {}

    def test_row_beyond_value_bound_rejected(self, tmp_path):
        path = self._write(tmp_path, "3 2\nflood 1e308 0\nfire 0 -1e101\nrain 1e100 -1e100\n")
        assert set(load_vectors(path).vectors) == {"rain"}

    def test_duplicate_keeps_first(self, tmp_path):
        path = self._write(tmp_path, "2 2\nflood 1 0\nflood 0 1\n")
        store = load_vectors(path)
        assert np.array_equal(store.vectors["flood"], [1.0, 0.0])

    def test_blank_lines_ignored(self, tmp_path):
        path = self._write(tmp_path, "1 2\n\nflood 1 0\n\n")
        assert set(load_vectors(path).vectors) == {"flood"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_vectors(tmp_path / "absent.txt")

    def test_worked_fixture(self, fixtures_dir):
        store = load_vectors(fixtures_dir / "worked_vectors.txt")
        assert store.dim == 8
        assert "waterborne" in store


def _reference_load(path):
    """The loader as first written, with the later |value| bound: every
    value parsed by `float()`, one row at a time. Takes a valid header;
    returns (dim, vectors, warnings), each warning as (the row's word,
    message)."""
    warnings = []
    with open(path, encoding="utf-8") as fh:
        dim = int(fh.readline().split()[1])
        vectors = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            word, raw_values = parts[0], parts[1:]
            if len(raw_values) != dim:
                warnings.append((word, f"{path}:{lineno}: rejecting row for {word!r} "
                                       f"({len(raw_values)} values, expected {dim})"))
                continue
            try:
                values = np.array([float(v) for v in raw_values])
            except ValueError:
                warnings.append(
                    (word, f"{path}:{lineno}: rejecting row for {word!r} (non-numeric)"))
                continue
            if not np.all(np.isfinite(values)):
                warnings.append(
                    (word, f"{path}:{lineno}: rejecting row for {word!r} (non-finite)"))
                continue
            if np.any(np.abs(values) > 1e100):
                warnings.append(
                    (word, f"{path}:{lineno}: rejecting row for {word!r} (|value| > 1e+100)"))
                continue
            if word in vectors:
                warnings.append(
                    (word, f"{path}:{lineno}: duplicate word {word!r}, keeping first"))
                continue
            vectors[word] = values
    return dim, vectors, warnings


# Tokens numpy's C parser rejects but float() reads (underscores, non-ASCII
# digits), ones both reject, non-finite ones, and plain numbers.
ODD_TOKENS = ["x1", "1_0", "\u0661\u0662", "\uff11", "nan", "inf", "-inf", "1e999", "#", "-0.0", ""]
TOKENS = st.sampled_from(ODD_TOKENS) | st.floats().map(repr) | st.integers(-99, 99).map(str)
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\xa0", "\u2003", "\u3000", "\x0c", "\x1f", "\r"])
WORDS = st.sampled_from(["flood", "fire", "x1", "#", "\u0661", "caf\u00e9"])
# Words no drawn row has, including ones that cannot be a row's first field.
ABSENT_WORDS = st.sampled_from(["rain", "", "flood fire", "flood\t"])


@st.composite
def vector_files(draw, max_rows=30):
    dim = draw(st.integers(1, 4))
    lines = [f"{draw(st.integers(0, 9))} {dim}"]
    for _ in range(draw(st.integers(0, max_rows))):
        n_values = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
        fields = [draw(WORDS)] + [draw(TOKENS) for _ in range(n_values)]
        line = draw(SEPARATORS).join(fields) if draw(st.booleans()) else " ".join(fields)
        lines.append(line if draw(st.integers(0, 9)) else draw(st.sampled_from(["", " \t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"


@pytest.fixture(scope="module")
def vector_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("vectors")


class TestLoadVectorsProperties:
    # Short files search the header and first rows closely; long ones give
    # duplicates and rejected rows far apart. Small blocks put block edges
    # next to rejected and duplicate rows, and let clean blocks take the
    # one-call path between them.
    @pytest.mark.parametrize("max_rows, block_rows", [
        pytest.param(3, None, id="3"),
        pytest.param(64, None, id="64"),
        pytest.param(64, 4, id="64-blocks-of-4"),
        pytest.param(3, 1, id="3-blocks-of-1"),
    ])
    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), words=st.sets(WORDS | ABSENT_WORDS))
    def test_same_as_per_row_reference(self, data, words, max_rows, block_rows, vector_dir,
                                       caplog, monkeypatch):
        if block_rows is not None:
            monkeypatch.setattr(embed, "VECTOR_BLOCK_ROWS", block_rows)
        text = data.draw(vector_files(max_rows))
        path = vector_dir / "v.txt"
        path.write_bytes(text.encode("utf-8"))
        caplog.set_level(logging.WARNING, logger="subevents.embed")
        dim, vectors, warnings = _reference_load(path)

        def load_and_warnings(**kwargs):
            caplog.clear()
            store = load_vectors(path, **kwargs)
            return store, [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]

        store, got_warnings = load_and_warnings()
        assert store.dim == dim
        assert list(store.vectors) == list(vectors)
        for word, values in vectors.items():
            got = store.vectors[word]
            assert got.dtype == np.float64 and got.shape == (dim,)
            assert got.tobytes() == values.tobytes()
        assert got_warnings == [message for _, message in warnings]

        # Asked for `words` only: the reference's rows of those words.
        store, got_warnings = load_and_warnings(words=words)
        assert store.dim == dim
        assert list(store.vectors) == [word for word in vectors if word in words]
        for word, got in store.vectors.items():
            assert got.tobytes() == vectors[word].tobytes()
        assert got_warnings == [message for word, message in warnings if word in words]

    @settings(deadline=None)
    @given(data=st.binary() | st.binary().map(lambda b: b"2 2\nflood " + b))
    def test_any_bytes_load_or_raise_input_format_error(self, data, vector_dir):
        path = vector_dir / "v.txt"
        path.write_bytes(data)
        try:
            load_vectors(path)
        except InputFormatError:
            pass


# Every character str.split() splits on, except the line ends a text-mode
# read never leaves inside a line; then characters it does not split on.
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\n\r"]
NOT_WHITESPACE = ["\u200b", "\ufeff", "\u180e", "\x00"]


@pytest.mark.parametrize("sep", WHITESPACE + NOT_WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
def test_loadtxt_splits_fields_where_str_split_does(sep, tmp_path):
    """The one-call parse of a block relies on np.loadtxt splitting a row
    into the fields str.split() gives, or rejecting it."""
    tail = f"1{sep}{sep}2{sep}\n"
    try:
        table = np.loadtxt([tail], dtype=np.float64, comments=None, ndmin=2).tolist()
    except ValueError:
        table = None
    if sep.isspace():
        assert tail.split() == ["1", "2"]
        assert table == [[1.0, 2.0]]
    else:
        assert len(tail.split()) == 1
        assert table is None
    path = tmp_path / "v.txt"
    path.write_text(f"1 2\nflood {tail}", encoding="utf-8")
    assert {w: v.tolist() for w, v in load_vectors(path).vectors.items()} == (
        {"flood": [1.0, 2.0]} if sep.isspace() else {})


def test_clean_rows_take_no_per_row_numpy_call(tmp_path):
    """A file whose rows are all well formed makes as many numpy.array
    calls (profile events) at 500 rows as at 50: the rows are parsed by one
    np.loadtxt per block, not one by one."""
    rng = np.random.default_rng(0)
    counts = []
    for rows in (50, 500):
        path = tmp_path / f"{rows}.txt"
        path.write_text(f"{rows} 8\n" + "".join(
            f"w{i} " + " ".join(map(repr, rng.standard_normal(8).tolist())) + "\n"
            for i in range(rows)), encoding="utf-8")
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            calls += event == "c_call" and arg is np.array

        sys.setprofile(count)
        try:
            store = load_vectors(path)
        finally:
            sys.setprofile(None)
        assert len(store.vectors) == rows
        counts.append(calls)
    assert counts[0] == counts[1]


@pytest.mark.parametrize("bad", [
    pytest.param("bad 0.5 nan -1.5", id="non-finite"),
    pytest.param("bad 0.5 -1e101 -1.5", id="beyond-bound"),
    pytest.param("bad", id="word-only"),
    pytest.param("bad 0.5 -1.5", id="wrong-arity"),
    pytest.param("bad 0.5 x -1.5", id="non-numeric"),
])
def test_one_bad_row_sends_its_block_row_by_row(bad, tmp_path, caplog, monkeypatch):
    """In blocks of 4, one bad row inside an otherwise clean block, then a
    duplicate of a good word: the rows, bits and warnings (text and order)
    of the per-row reference, and no word-only row given to np.loadtxt."""
    monkeypatch.setattr(embed, "VECTOR_BLOCK_ROWS", 4)
    rows = ["a 0.1 0.2 0.3", "b 1e-5 -2.5 3.0", "c 7 8 9", "d 0.25 0.5 0.75",
            "e 0.3 0.2 0.1", bad, "a 9 9 9", "f -0.1 -0.2 -0.3", "g 1 2 3"]
    path = tmp_path / "v.txt"
    path.write_text("9 3\n" + "\n".join(rows) + "\n", encoding="utf-8")
    given = []
    loadtxt = np.loadtxt

    def spy(lines, *args, **kwargs):
        given.extend(lines)
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    caplog.set_level(logging.WARNING, logger="subevents.embed")
    store = load_vectors(path)
    _, vectors, warnings = _reference_load(path)
    assert list(store.vectors) == list(vectors) == ["a", "b", "c", "d", "e", "f", "g"]
    for word, values in vectors.items():
        assert store.vectors[word].tobytes() == values.tobytes()
    assert [r.getMessage() for r in caplog.records] == [message for _, message in warnings]
    assert [word for word, _ in warnings] == ["bad", "a"]
    assert all(line is not None and line.strip() for line in given)


def _offset_copy(a):
    """A C-contiguous copy of `a` that starts 8 bytes past a 16-byte boundary."""
    buf = np.empty(a.size + 2)
    start = 1 if buf.ctypes.data % 16 == 0 else 2
    copy = buf[start:start + a.size].reshape(a.shape)
    copy[...] = a
    return copy


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_row_helpers_same_bits_alone_batched_and_misaligned(data):
    """row_products and row_norms give each row the same bits batched, alone
    (``row[None]``, as compose calls row_norms) and from an 8-byte-offset
    copy, at odd and even d with zero rows; the values lie within the
    forward error bound of a length-d sum from ``matrix @ row`` and
    ``np.linalg.norm(row)``."""
    d, t = data.draw(st.integers(1, 320)), data.draw(st.integers(1, 70))
    n = data.draw(st.integers(0, 60))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    matrix = rng.standard_normal((t, d))
    matrix /= np.linalg.norm(matrix, axis=1)[:, None]
    rows = rng.standard_normal((n, d)) * data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rows[rng.random(n) < 0.2] = 0.0
    products, norms = embed.row_products(matrix, rows), embed.row_norms(rows)
    assert products.shape == (n, t) and norms.shape == (n,)
    alone = [(embed.row_products(matrix, row[None])[0], embed.row_norms(row[None])[0])
             for row in rows]
    assert [p.tobytes() for p, _ in alone] == [p.tobytes() for p in products]
    assert np.array([m for _, m in alone]).tobytes() == norms.tobytes()
    shifted = _offset_copy(rows)
    assert embed.row_products(_offset_copy(matrix), shifted).tobytes() == products.tobytes()
    assert embed.row_norms(shifted).tobytes() == norms.tobytes()
    width = 2 * d * np.finfo(np.float64).eps
    for row, product, norm in zip(rows, products, norms):
        assert (np.abs(product - matrix @ row) <= width * (np.abs(matrix) @ np.abs(row))).all()
        assert abs(norm - np.linalg.norm(row)) <= width * norm


class TestCompose:
    def test_sum_then_normalize(self):
        store = _store({"aaa": [3.0, 0.0, 0.0], "bbb": [0.0, 4.0, 0.0]})
        vec = compose(["aaa", "bbb"], store)
        assert not vec.is_null
        assert np.allclose(vec.values, [0.6, 0.8, 0.0])
        assert math.isclose(float(np.linalg.norm(vec.values)), 1.0, rel_tol=1e-12)

    def test_sum_not_average(self):
        # Summation weights repeated words; (2a + b) is not parallel to (a + b).
        store = _store({"aaa": [1.0, 0.0, 0.0], "bbb": [0.0, 1.0, 0.0]})
        vec = compose(["aaa", "aaa", "bbb"], store)
        assert np.allclose(vec.values, np.array([2.0, 1.0, 0.0]) / math.sqrt(5.0))

    def test_skip_policy_ignores_oov(self):
        store = _store({"aaa": [1.0, 0.0, 0.0]})
        vec = compose(["aaa", "missing"], store)
        assert np.allclose(vec.values, [1.0, 0.0, 0.0])

    def test_all_oov_is_null_under_skip(self):
        store = _store({"aaa": [1.0, 0.0, 0.0]})
        vec = compose(["missing", "also"], store)
        assert vec.is_null
        assert np.array_equal(vec.values, np.zeros(3))

    def test_cancelling_sum_is_null(self):
        store = _store({"pos": [1.0, 0.0, 0.0], "neg": [-1.0, 0.0, 0.0]})
        assert compose(["pos", "neg"], store).is_null

    def test_empty_words_rejected(self):
        with pytest.raises(ValueError):
            compose([], _store({}))

    def test_worked_fixture_composition(self, fixtures_dir):
        # diseases = 0.8 e0 + 0.6 e1 and waterborne = e0; their sum is
        # (1.8, 0.6)/|.| in the first two coordinates.
        store = load_vectors(fixtures_dir / "worked_vectors.txt")
        vec = compose(["waterborne", "diseases"], store)
        expected = np.zeros(8)
        expected[0], expected[1] = 1.8, 0.6
        assert np.allclose(vec.values, expected / np.linalg.norm(expected))


class TestSubwordHash:
    def test_oov_fills_in_under_subword(self):
        store = _store({}, policy=OovPolicy.SUBWORD_HASH)
        vec = compose(["novelword"], store)
        assert not vec.is_null

    def test_known_word_still_preferred(self):
        store = _store({"aaa": [1.0, 0.0, 0.0]}, policy=OovPolicy.SUBWORD_HASH)
        vec = compose(["aaa"], store)
        assert np.allclose(vec.values, [1.0, 0.0, 0.0])

    def test_deterministic_per_seed(self):
        a = _store({}, policy=OovPolicy.SUBWORD_HASH, hash_seed=5)
        b = _store({}, policy=OovPolicy.SUBWORD_HASH, hash_seed=5)
        c = _store({}, policy=OovPolicy.SUBWORD_HASH, hash_seed=6)
        va = a.subword_vector("novelword")
        vb = b.subword_vector("novelword")
        vc = c.subword_vector("novelword")
        assert np.array_equal(va, vb)
        assert not np.array_equal(va, vc)

    def test_gram_inventory(self):
        # '<cat>' has length 5: three 3-grams, two 4-grams, one 5-gram.
        store = _store({}, policy=OovPolicy.SUBWORD_HASH)
        marked = "<cat>"
        grams = [
            marked[i : i + n]
            for n in range(3, 7)
            for i in range(len(marked) - n + 1)
        ]
        assert grams == ["<ca", "cat", "at>", "<cat", "cat>", "<cat>"]
        total = np.zeros(store.dim)
        for gram in grams:
            total += store._bucket_vector(fnv1a_32(gram.encode("utf-8")) % embed.SUBWORD_BUCKETS)
        assert np.allclose(store.subword_vector("cat"), total / len(grams))

    def test_short_word_uses_whole_marked_form(self):
        # '<a>' is a single 3-gram, so the vector equals that bucket's vector.
        store = _store({}, policy=OovPolicy.SUBWORD_HASH)
        vec = store.subword_vector("a")
        assert vec is not None
        assert vec.shape == (3,)

    def test_empty_word_is_none(self):
        store = _store({}, policy=OovPolicy.SUBWORD_HASH)
        assert store.subword_vector("") is None

    def test_bucket_cache_is_pure(self):
        store = _store({}, policy=OovPolicy.SUBWORD_HASH, hash_seed=3)
        first = store._bucket_vector(17).copy()
        again = store._bucket_vector(17)
        assert np.array_equal(first, again)

    def test_copy_shares_vectors_with_an_empty_bucket_cache(self):
        # A copy keeps the loaded vectors and drops the caches built since.
        store = _store({"flood": [1.0, 0.0, 0.0]}, policy=OovPolicy.SUBWORD_HASH, hash_seed=3)
        expected = store.subword_vector("rain")
        copy = dataclasses.replace(store)
        assert copy.vectors is store.vectors
        assert store._bucket_cache and not copy._bucket_cache
        assert store._subword_cache and not copy._subword_cache
        assert np.array_equal(copy.subword_vector("rain"), expected)

    def test_each_oov_word_is_hashed_once(self, monkeypatch):
        words = ["rain", "flood", "rain", "storm", "rain", "storm"]
        fresh = {word: _store({}, policy=OovPolicy.SUBWORD_HASH, hash_seed=3).subword_vector(word)
                 for word in set(words)}
        calls = []

        def counting_hash(data):
            calls.append(data)
            return fnv1a_32(data)

        monkeypatch.setattr(embed, "fnv1a_32", counting_hash)
        store = _store({"flood": [1.0, 0.0, 0.0]}, policy=OovPolicy.SUBWORD_HASH, hash_seed=3)
        got = [store.subword_vector(word) for word in words if word not in store]
        compose(words, store)
        # '<rain>' and '<storm>' have 4+3+2+1 and 5+4+3+2 grams of 3-6 characters.
        assert len(calls) == 10 + 14
        for word, vec in zip([w for w in words if w not in store], got):
            assert vec.tobytes() == fresh[word].tobytes()
            assert not vec.flags.writeable

