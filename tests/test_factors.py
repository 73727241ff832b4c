"""Structure and counting checks on the sparse kernel stages."""

import numpy as np
import pytest

from adft1024.factors import SparseFactor, all_factors, build_b, build_w

from conftest import complex_vector


def test_b2_matches_hadamard():
    np.testing.assert_array_equal(build_b(2).to_dense(),
                                  np.array([[1, 1], [1, -1]], dtype=complex))


def test_b3_literal():
    expected = np.array([[1, 0, 1], [0, 1, 0], [1, 0, -1]], dtype=complex)
    np.testing.assert_array_equal(build_b(3).to_dense(), expected)


def test_b17_has_sixteen_paired_rows_and_one_passthrough():
    nnz = build_b(17).nonzeros_per_row()
    assert (nnz == 2).sum() == 16
    assert (nnz == 1).sum() == 1


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 7, 8, 15, 16, 17])
def test_bt_squares_to_doubled_identity(t):
    b = build_b(t).to_dense()
    expected = 2 * np.eye(t)
    if t % 2 == 1:
        expected[(t - 1) // 2, (t - 1) // 2] = 1  # untouched centre row
    np.testing.assert_allclose(b @ b, expected, atol=0)


def test_bt_rejects_zero_order():
    with pytest.raises(ValueError):
        build_b(0)


def test_build_w_rejects_bad_stage():
    with pytest.raises(ValueError):
        build_w(8)


def test_stage_sizes():
    for f in all_factors():
        assert f.size == 32


def test_sparsity_and_coefficient_domain():
    units = {1 + 0j, -1 + 0j, 1j, -1j}
    three_entry_rows = []
    for f in all_factors():
        nnz = f.nonzeros_per_row()
        assert nnz.min() >= 1 and nnz.max() <= 3
        three_entry_rows.append(int((nnz == 3).sum()))
        assert {v for _, _, v in f.entries} <= units
    # only the two middle mixing stages need three-input rows
    assert three_entry_rows == [0, 0, 0, 0, 2, 2, 0, 0]


def test_only_last_stage_is_complex():
    for f in all_factors()[:7]:
        assert np.all(f.to_dense().imag == 0), f.label
    w7 = build_w(7).to_dense()
    assert np.any(w7.imag != 0)
    assert [f.is_real for f in all_factors()] == [True] * 7 + [False]


def test_every_stage_is_invertible():
    for f in all_factors():
        assert abs(np.linalg.det(f.to_dense())) > 1e-9, f.label


def test_apply_matches_dense_product(rng):
    batch = complex_vector(rng, 32 * 5).reshape(32, 5)
    for f in all_factors():
        re, im = f.apply_scalars(list(batch.real), list(batch.imag))
        np.testing.assert_allclose(np.array(re) + 1j * np.array(im),
                                   f.to_dense() @ batch, atol=1e-13)


def test_apply_scalars_matches_dense_on_vector(rng):
    x = complex_vector(rng, 32)
    for f in all_factors():
        re, im = f.apply_scalars(list(x.real), list(x.imag))
        np.testing.assert_allclose(np.array(re) + 1j * np.array(im),
                                   f.to_dense() @ x, atol=1e-13)


def test_apply_rejects_wrong_length():
    with pytest.raises(ValueError):
        build_w(0).apply_scalars([0.0] * 31, [0.0] * 31)


def test_duplicate_entries_rejected():
    with pytest.raises(ValueError):
        SparseFactor("bad", 2, ((0, 0, 1 + 0j), (0, 0, -1 + 0j), (1, 1, 1 + 0j)))


def test_empty_row_rejected():
    with pytest.raises(ValueError):
        SparseFactor("bad", 2, ((0, 0, 1 + 0j),))


def test_non_unit_coefficient_rejected():
    with pytest.raises(ValueError):
        SparseFactor("bad", 1, ((0, 0, 2 + 0j),))
