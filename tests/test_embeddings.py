import json

import numpy as np
import pytest

from crystalembed.embeddings import (
    ElementEmbeddingTable,
    load_table,
    load_table_csv,
    load_table_json,
    project_2d,
    save_table_csv,
    save_table_json,
    table_from_sums,
)
from crystalembed.errors import ParseError, ValidationError


def random_table(rng, dim=5, present_zs=(1, 8, 26, 79)):
    vectors = np.zeros((118, dim))
    counts = np.zeros(118, dtype=np.int64)
    for z in present_zs:
        v = rng.normal(size=dim)
        vectors[z - 1] = v / np.linalg.norm(v)
        counts[z - 1] = int(rng.integers(1, 50))
    return ElementEmbeddingTable(vectors=vectors, counts=counts)


class TestTableConstruction:
    def test_from_sums_normalizes(self):
        sums = np.zeros((118, 3))
        counts = np.zeros(118, dtype=np.int64)
        sums[0] = [6.0, 8.0, 0.0]
        counts[0] = 2  # mean (3, 4, 0) -> unit (0.6, 0.8, 0)
        table = table_from_sums(sums, counts)
        assert np.allclose(table.row(1), [0.6, 0.8, 0.0], atol=1e-15)
        assert not table.present[1]

    def test_absent_rows_must_be_zero(self):
        vectors = np.zeros((118, 2))
        vectors[5] = [1.0, 0.0]
        with pytest.raises(ValidationError):
            ElementEmbeddingTable(vectors=vectors,
                                  counts=np.zeros(118, dtype=np.int64))

    def test_degenerate_mean_rejected(self):
        sums = np.zeros((118, 2))
        counts = np.zeros(118, dtype=np.int64)
        counts[3] = 4  # sum exactly zero -> no direction
        with pytest.raises(ValidationError):
            table_from_sums(sums, counts)

    def test_row_bounds(self):
        table = random_table(np.random.default_rng(0))
        with pytest.raises(ValidationError):
            table.row(0)
        with pytest.raises(ValidationError):
            table.row(119)


class TestCsvRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        table = random_table(np.random.default_rng(1), dim=7)
        path = tmp_path / "emb.csv"
        save_table_csv(table, path)
        loaded = load_table_csv(path)
        assert np.array_equal(loaded.vectors, table.vectors)
        assert np.array_equal(loaded.counts, table.counts)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,H,0\n")
        with pytest.raises(ParseError):
            load_table_csv(path)

    def test_duplicate_z_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("Z,symbol,count,e0\n1,H,1,0.5\n1,H,1,0.5\n")
        with pytest.raises(ParseError):
            load_table_csv(path)

    def test_symbol_mismatch_rejected(self, tmp_path):
        path = tmp_path / "sym.csv"
        path.write_text("Z,symbol,count,e0\n1,He,1,1.0\n")
        with pytest.raises(ParseError):
            load_table_csv(path)

    def test_seventeen_digit_text(self, tmp_path):
        # e0 has a shortest decimal representation needing 17 digits
        x = 0.1 + 0.2  # 0.30000000000000004
        vectors = np.zeros((118, 2))
        counts = np.zeros(118, dtype=np.int64)
        vectors[0] = [x, np.sqrt(1.0 - x * x)]
        counts[0] = 1
        table = ElementEmbeddingTable(vectors=vectors, counts=counts)
        path = tmp_path / "digits.csv"
        save_table_csv(table, path)
        line = path.read_text().splitlines()[1]
        assert "0.30000000000000004" in line
        assert load_table_csv(path).vectors[0, 0] == x


class TestJsonRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        table = random_table(np.random.default_rng(2), dim=4)
        path = tmp_path / "emb.json"
        save_table_json(table, path)
        loaded = load_table_json(path)
        assert np.array_equal(loaded.vectors, table.vectors)
        assert np.array_equal(loaded.counts, table.counts)

    def test_dispatch_by_extension(self, tmp_path):
        table = random_table(np.random.default_rng(3))
        save_table_csv(table, tmp_path / "t.csv")
        save_table_json(table, tmp_path / "t.json")
        assert np.array_equal(load_table(tmp_path / "t.csv").vectors,
                              load_table(tmp_path / "t.json").vectors)
        with pytest.raises(ValidationError):
            load_table(tmp_path / "t.txt")

    @pytest.mark.parametrize("edit, message", [
        (lambda els: els[0].update(z=0), "Z=0 out of range"),
        (lambda els: els[0].update(z=-1), "Z=-1 out of range"),
        (lambda els: els[0].update(z=119), "Z=119 out of range"),
        (lambda els: els[1].update(z=1, symbol="H"), "element 1: duplicate Z=1"),
        (lambda els: els[0].update(symbol="He"), "symbol/Z mismatch"),
        (lambda els: els[0].pop("symbol"), "malformed embedding JSON"),
    ], ids=["z-0", "z-negative", "z-119", "duplicate", "symbol-mismatch",
            "no-symbol"])
    def test_bad_z_rejected(self, tmp_path, edit, message):
        path = tmp_path / "emb.json"
        save_table_json(random_table(np.random.default_rng(4)), path)
        obj = json.loads(path.read_text())
        edit(obj["elements"])
        path.write_text(json.dumps(obj))
        with pytest.raises(ParseError, match=message):
            load_table_json(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"dim\": 2, \"elements\": [{\"z\": 1}]}")
        with pytest.raises(ParseError):
            load_table_json(path)


class TestProjection:
    def test_needs_three_elements(self):
        table = random_table(np.random.default_rng(4), present_zs=(1, 2))
        with pytest.raises(ValidationError):
            project_2d(table)

    def test_identical_rows_coincide(self):
        vectors = np.zeros((118, 3))
        counts = np.zeros(118, dtype=np.int64)
        for z in (1, 2, 3, 4):
            vectors[z - 1] = [1.0, 0.0, 0.0]
            counts[z - 1] = 1
        zs, coords = project_2d(ElementEmbeddingTable(vectors, counts))
        assert np.array_equal(zs, [1, 2, 3, 4])
        assert np.max(np.abs(coords)) < 1e-12

    def test_collinear_rows_have_zero_second_component(self):
        # unit rows can only be collinear as +-u; centered they stay rank 1
        vectors = np.zeros((118, 3))
        counts = np.zeros(118, dtype=np.int64)
        u = np.array([3.0, 4.0, 0.0]) / 5.0
        for z, sign in ((1, 1.0), (2, 1.0), (3, 1.0), (4, -1.0), (5, -1.0)):
            vectors[z - 1] = sign * u
            counts[z - 1] = 1
        zs, coords = project_2d(ElementEmbeddingTable(vectors, counts))
        assert np.max(np.abs(coords[:, 1])) < 1e-9
        spread = np.sort(coords[:, 0])
        assert spread[0] < spread[-1]

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(5)
        table = random_table(rng, dim=4, present_zs=(1, 6, 8, 26, 79))
        zs, coords = project_2d(table)
        rows = table.vectors[zs - 1]
        centered = rows - rows.mean(axis=0)
        # independent oracle via SVD of the centered matrix
        _u, s, vt = np.linalg.svd(centered, full_matrices=False)
        oracle = centered @ vt[:2].T
        assert np.allclose(np.abs(coords), np.abs(oracle), atol=1e-9)
        var = coords.var(axis=0)
        assert var[0] >= var[1]

    def test_deterministic_sign(self):
        table = random_table(np.random.default_rng(6), dim=3,
                             present_zs=(1, 2, 3, 4, 5, 6))
        _, a = project_2d(table)
        _, b = project_2d(table)
        assert np.array_equal(a, b)
