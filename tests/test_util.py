from subevents._util import fnv1a_32, format_float, sha256_file


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
