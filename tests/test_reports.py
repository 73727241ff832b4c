"""Round-trips through the CSV/JSON writers and readers."""

import math
import os
import re
import stat
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from adft1024 import reports
from adft1024.factors import build_w
from adft1024.radix32 import Variant, transform_matrix
from adft1024.reports import (FLOAT_FMT, _table_text, read_json, read_matrix_csv, read_table_csv,
                              write_dense_matrix_csv, write_json,
                              write_sparse_factor_csv, write_table_csv)

from conftest import traced_peak


def test_sparse_factor_round_trip(tmp_path):
    factor = build_w(7)
    path = tmp_path / "W7.csv"
    write_sparse_factor_csv(path, factor)
    np.testing.assert_array_equal(read_matrix_csv(path, size=32),
                                  factor.to_dense())


def test_dense_matrix_round_trip_is_exact(tmp_path, rng):
    m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    path = tmp_path / "dense.csv"
    write_dense_matrix_csv(path, m)
    np.testing.assert_array_equal(read_matrix_csv(path, size=16), m)


def test_matrix_reader_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c,d\n0,0,1,0\n")
    with pytest.raises(ValueError):
        read_matrix_csv(path, size=1)


@pytest.mark.parametrize("reader", [partial(read_matrix_csv, size=1), read_table_csv],
                         ids=["read_matrix_csv", "read_table_csv"])
def test_readers_reject_an_empty_file_by_name(tmp_path, reader):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv"):
        reader(path)


@pytest.mark.parametrize("body, where, problem", [
    ("0,0,5,5\n-1,0,1,2\n", ", line 3", "row -1 is not an integer in [0, 2)"),
    ("0,0,1,2\n0,0,1,2\n0,0,1,2\n0.5,0,1,2\n", ", line 5", "row 0.5 is not an integer"),
    ("0,1,1,2\n0,2,1,2\n", ", line 3", "col 2 is not an integer in [0, 2)"),
    ("0,0,1\n", ", line 2", "3 fields, not 4"),
    ("0,0,1,2\n0,0,1\n", ", line 3", "3 fields, not 4"),
    ("0,0,1,2,3\n", ", line 2", "5 fields, not 4"),
    ("0,0,1,2\n\n", ", line 3", "1 fields, not 4"),
    ("0,0,1,2\n0,0,1,2\n0,0,1,x\n", ", line 4", "'x' is not a number"),
    ("0,0,1,2\n0,0,1,2\n0,0,1_0,0\n", ", lines 4-4", "could not convert string '1_0'"),
    ("", "", "no entries after the header"),
], ids=["negative", "fraction", "too-large", "short-row", "short-row-after-good",
        "long-row", "blank-line", "not-a-number", "numpy-rejects", "header-only"])
def test_matrix_reader_names_the_broken_line(tmp_path, body, where, problem):
    # Two lines per chunk: line numbers count from the top of the file, not
    # from the start of the chunk.
    path = tmp_path / "broken.csv"
    path.write_text("row,col,re,im\n" + body)
    with mock.patch.object(reports, "_READ_LINES", 2):
        with pytest.raises(ValueError, match=re.escape(f"{path}{where}: {problem}")):
            read_matrix_csv(path, size=2)


@pytest.mark.parametrize("text, problem", [
    ("a,b\n1\n", "1 fields, not 2"),
    ("a,b\n1,2,3\n", "3 fields, not 2"),
    ("a,b\n0,1\n1,x\n", "'x' is not a number"),
], ids=["short-row", "long-row", "not-a-number"])
def test_table_reader_names_the_broken_line(tmp_path, text, problem):
    path = tmp_path / "broken.csv"
    path.write_text(text)
    line = text.count("\n")   # the last line is the broken one
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: {problem}")):
        read_table_csv(path)


def test_table_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    bins = np.array([0, 16, 32])
    vals = np.array([30.1, 29.7, 29.9])
    write_table_csv(path, ("bin", "snr_db"), (bins, vals))
    back = read_table_csv(path)
    np.testing.assert_array_equal(back["bin"], bins)
    np.testing.assert_array_equal(back["snr_db"], vals)
    assert back["bin"].dtype.kind == "i"


def test_table_requires_matching_header(tmp_path):
    with pytest.raises(ValueError):
        write_table_csv(tmp_path / "x.csv", ("a", "b"), (np.arange(3),))


def test_json_round_trip(tmp_path):
    payload = [{"variant": "alg1", "real_mults": 2883}]
    path = tmp_path / "report.json"
    write_json(path, payload)
    assert read_json(path) == payload


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_artifacts_take_their_mode_from_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_json(tmp_path / "out.json", {"ok": True})
        write_sparse_factor_csv(tmp_path / "W0.csv", build_w(0))
    finally:
        os.umask(old)
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name


def test_no_temp_files_left_behind(tmp_path):
    write_json(tmp_path / "out.json", {"ok": True})
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_dense_matrix_stream_matches_joined_rendering(tmp_path):
    m = np.array([[-0.0, 1e-300, -1.5e300, 1 / 3, 2.0],
                  [1j / 3, -0.0j, 1e-300j, -1.5e300 + 0.5j, -1.0],
                  [0.1 + 0.2j, -2.5, 7.0, -0.0 - 0.0j, 1e300]])
    path = tmp_path / "dense.csv"
    write_dense_matrix_csv(path, m)
    joined = ["row,col,re,im"] + [
        f"{r},{c},{'%.17g' % m[r, c].real},{'%.17g' % m[r, c].imag}"
        for r in range(m.shape[0]) for c in range(m.shape[1])]
    assert path.read_bytes() == ("\n".join(joined) + "\n").encode()
    back = read_matrix_csv(path, size=5)[:3]   # the reader pads to a square matrix
    assert np.array_equal(back, m)
    assert np.array_equal(np.signbit(back.view(float)), np.signbit(m.view(float)))


def test_dense_matrix_write_memory_is_bounded(tmp_path, rng):
    m = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    _, peak = traced_peak(lambda: write_dense_matrix_csv(tmp_path / "dense.csv", m))
    assert peak < 4 * 2 ** 20


def test_dense_matrix_read_memory_is_bounded(tmp_path, rng):
    m = rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))
    path = tmp_path / "dense.csv"
    write_dense_matrix_csv(path, m)
    back, peak = traced_peak(lambda: read_matrix_csv(path, size=1024))
    assert np.array_equal(back, m)
    assert peak < 4 * back.nbytes


def test_sized_dense_read_places_each_chunk_as_parsed(tmp_path):
    m = transform_matrix(Variant.ALG1)
    path = tmp_path / "dense_alg1.csv"
    write_dense_matrix_csv(path, m)
    back, peak = traced_peak(lambda: read_matrix_csv(path, size=1024))
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))
    assert peak < 1.5 * back.nbytes


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.5e300, -1.5e300])
PARTS = st.one_of(EDGE_FLOATS, st.floats(allow_nan=False))


@settings(max_examples=50, deadline=None)
@given(arrays(float, st.tuples(st.integers(1, 5), st.integers(1, 5), st.just(2)),
              elements=PARTS))
def test_dense_matrix_round_trip_keeps_every_bit(tmp_path_factory, parts):
    m = parts.view(complex)[..., 0]   # a view keeps the sign of every -0.0
    path = tmp_path_factory.mktemp("dense") / "m.csv"
    write_dense_matrix_csv(path, m)
    back = read_matrix_csv(path, size=max(m.shape))[:m.shape[0], :m.shape[1]]
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


INTEGRAL_FLOATS = st.integers(-1000, 1000).map(float)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    arrays(np.int64, n, elements=st.integers(-2 ** 62, 2 ** 62)),
    arrays(float, n, elements=st.one_of(PARTS, INTEGRAL_FLOATS)))))
@example(columns=(np.array([1, 2]), np.array([-0.0, 2.0])))
def test_table_round_trip_keeps_values_and_int_columns(tmp_path_factory, columns):
    ints, floats = columns
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table_csv(path, ("k", "x"), (ints, floats))
    back = read_table_csv(path)
    assert back["k"].dtype.kind == "i"
    assert np.array_equal(back["k"], ints)
    assert np.array_equal(back["x"], floats)
    assert np.array_equal(np.signbit(back["x"]), np.signbit(floats))


TABLE_FLOATS = st.one_of(
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300]),
    st.floats())


def _table_columns(n):
    int_column = arrays(np.int64, n, elements=st.integers(-2 ** 63, 2 ** 63 - 1))
    float_column = arrays(float, n, elements=TABLE_FLOATS)
    return st.lists(st.one_of(int_column, float_column), min_size=1, max_size=5)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12).flatmap(_table_columns))
@example(columns=[np.array([3, -4]), np.array([-0.0, math.nan]),
                  np.array([math.inf, -1e-300])])
@example(columns=[np.array([], dtype=np.int64), np.array([], dtype=float)])
def test_table_text_equals_per_value_formatting(columns):
    header = tuple(f"c{i}" for i in range(len(columns)))
    expected = "".join(
        [",".join(header) + "\n"]
        + [",".join(str(v) if isinstance(v, (int, np.integer)) else "%.17g" % v
                    for v in row) + "\n" for row in zip(*columns)])
    assert _table_text(header, zip(*columns)) == expected
    assert _table_text(header, zip(*(c.tolist() for c in columns))) == expected


# A small pool gives rows of repeated values, which the memo already holds;
# st.floats() gives rows of mostly new values, which fill it.
DENSE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -1e-300, 1 / 3]),
    st.floats())


@settings(max_examples=100, deadline=None)
@given(memo_size=st.sampled_from([1, 4, reports._MEMO_SIZE]),
       parts=arrays(float, st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(2)),
                    elements=DENSE_FLOATS))
@example(memo_size=2, parts=np.array([[[0.0, -0.0], [-0.0, 0.0]],
                                      [[1e-300, -1e-300], [0.0, 1e-300]]]))
def test_dense_matrix_text_equals_per_value_formatting(tmp_path_factory, memo_size, parts):
    # Memos smaller than the distinct values of a matrix are emptied and
    # refilled as the rows go by.
    m = parts.view(complex)[..., 0]
    path = tmp_path_factory.mktemp("dense") / "m.csv"
    with mock.patch.object(reports, "_MEMO_SIZE", memo_size):
        write_dense_matrix_csv(path, m)
    expected = ["row,col,re,im\n"] + [
        f"{r},{c},{FLOAT_FMT % m[r, c].real},{FLOAT_FMT % m[r, c].imag}\n"
        for r in range(m.shape[0]) for c in range(m.shape[1])]
    assert path.read_text() == "".join(expected)
