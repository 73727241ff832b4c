"""Exact transform oracles and the 32-point kernel contracts."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adft1024 import transforms
from adft1024.factors import all_factors
from adft1024.transforms import (_COLUMN_CHUNK, OUTPUT_SCALE, adft32_apply,
                                 adft32_matrix, dft_direct, dft_matrix,
                                 factor_product)

from conftest import complex_vector, traced_peak


def test_dft_matrix_n1():
    np.testing.assert_array_equal(dft_matrix(1), np.array([[1.0 + 0j]]))


def test_dft_matrix_n2():
    expected = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    np.testing.assert_allclose(dft_matrix(2), expected, atol=1e-15)


def test_dft_matrix_rejects_zero():
    with pytest.raises(ValueError):
        dft_matrix(0)
    # A 0-d input has no length: the direct path names the shapes it takes.
    with pytest.raises(ValueError, match=r"\(N,\) or \(N, B\)"):
        dft_direct(np.float64(1.0))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 37, 64, 1000, 1024, 2048])
def test_dft_matrix_equals_elementwise_formula(n):
    # The matrix indexes its n distinct roots; each entry must keep the
    # bits of the root taken for that entry alone.
    k, m = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    expected = np.exp(-2j * np.pi * (k * m % n) / n) / math.sqrt(n)
    assert np.array_equal(dft_matrix(n).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_dft_matrix_unitary(n):
    f = dft_matrix(n)
    np.testing.assert_allclose(f @ f.conj().T, np.eye(n), atol=1e-10)


def test_impulse_transforms_to_constant():
    x = np.zeros(32, dtype=complex)
    x[0] = 1.0
    np.testing.assert_allclose(dft_direct(x), np.full(32, 1 / math.sqrt(32)),
                               atol=1e-12)


def test_dc_concentrates_in_bin_zero():
    got = dft_direct(np.ones(32, dtype=complex))
    expected = np.zeros(32, dtype=complex)
    expected[0] = math.sqrt(32)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_pure_exponential_hits_single_bin():
    n = np.arange(32)
    got = dft_direct(np.exp(2j * np.pi * n * 5 / 32))
    assert abs(abs(got[5]) - math.sqrt(32)) < 1e-10
    rest = np.delete(np.abs(got), 5)
    assert rest.max() <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_parseval_energy_preserved(seed):
    x = complex_vector(np.random.default_rng(seed), 32)
    assert abs(np.linalg.norm(dft_direct(x)) - np.linalg.norm(x)) < 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 37, 64, 256, 1024])
def test_dft_direct_matches_numpy_fft(n, rng):
    x = complex_vector(rng, n)
    ref = np.fft.fft(x, norm="ortho")
    assert np.linalg.norm(dft_direct(x) - ref) / np.linalg.norm(ref) < 1e-12


def test_factorization_shape_and_scale():
    factors = all_factors()
    assert len(factors) == 8
    assert OUTPUT_SCALE == pytest.approx(1 / math.sqrt(32))


def _raw_chain(x):
    """The unscaled adds-only chain: SparseFactor.apply_scalars on re/im row lanes."""
    re, im = list(x.real), list(x.imag)
    for f in all_factors():
        re, im = f.apply_scalars(re, im)
    y = np.empty(x.shape, dtype=complex)
    y.real, y.imag = re, im
    return y


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_product_identical_under_two_evaluation_orders():
    left_fold = factor_product(all_factors())
    by_columns = adft32_apply(np.eye(32, dtype=complex))
    # Exact equality; the chain and the dense fold may give zeros opposite signs.
    np.testing.assert_array_equal(by_columns, OUTPUT_SCALE * left_fold)


def test_kernel_matrix_is_one_cached_readonly_scaled_product():
    m = adft32_matrix()
    assert m is adft32_matrix()
    assert not m.flags.writeable
    np.testing.assert_array_equal(_bits(m), _bits(OUTPUT_SCALE * factor_product(all_factors())))


def test_raw_product_is_gaussian_integer():
    m = factor_product(all_factors())
    assert np.all(m.real == np.rint(m.real))
    assert np.all(m.imag == np.rint(m.imag))


def test_raw_product_rounds_the_unnormalized_kernel():
    # independent oracle: entrywise nearest-Gaussian-integer rounding of the
    # unnormalized exact kernel
    k, m = np.meshgrid(np.arange(32), np.arange(32), indexing="ij")
    unnormalized = np.exp(-2j * np.pi * k * m / 32)
    rounded = np.round(unnormalized.real) + 1j * np.round(unnormalized.imag)
    np.testing.assert_array_equal(factor_product(all_factors()), rounded)


def test_kernel_is_symmetric():
    m = factor_product(all_factors())
    np.testing.assert_array_equal(m, m.T)


@pytest.mark.parametrize("columns", [1, 5, 2 * _COLUMN_CHUNK + 7])
def test_apply_matches_dense_kernel(rng, columns):
    x = complex_vector(rng, 32 * columns).reshape(32, columns)
    np.testing.assert_allclose(adft32_apply(x), adft32_matrix() @ x, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda b: st.lists(st.integers(-8, 8), min_size=64 * b, max_size=64 * b)))
@example([(7 * k) % 17 - 8 for k in range(64 * (_COLUMN_CHUNK + 5))])  # two passes
def test_apply_is_exact_on_gaussian_integers(entries):
    parts = np.array(entries, dtype=float).reshape(2, 32, -1)
    x = parts[0] + 1j * parts[1]
    y = _raw_chain(x)
    np.testing.assert_array_equal(y, factor_product(all_factors()) @ x)
    assert np.all(y.real == np.rint(y.real)) and np.all(y.imag == np.rint(y.imag))


@pytest.mark.parametrize("a, b", [
    (_COLUMN_CHUNK - 3, _COLUMN_CHUNK + 3),
    (1, 2 * _COLUMN_CHUNK + 1),
    (2 * _COLUMN_CHUNK - 1, 2 * _COLUMN_CHUNK + 7),
    (2 * _COLUMN_CHUNK + 2, 2 * _COLUMN_CHUNK + 7),
], ids=["first-boundary", "both-boundaries", "into-remainder", "remainder"])
def test_apply_output_does_not_depend_on_pass_boundaries(rng, a, b):
    columns = 2 * _COLUMN_CHUNK + 7
    x = complex_vector(rng, 32 * columns).reshape(32, columns)
    np.testing.assert_array_equal(_bits(adft32_apply(x)[:, a:b]),
                                  _bits(adft32_apply(x[:, a:b])))


def test_per_pass_scale_equals_whole_array_scale(rng):
    columns = 2 * _COLUMN_CHUNK + 7
    x = complex_vector(rng, 32 * columns).reshape(32, columns)
    np.testing.assert_array_equal(_bits(adft32_apply(x)),
                                  _bits(OUTPUT_SCALE * _raw_chain(x)))


@np.errstate(invalid="ignore")   # inf - inf and inf * 0 make NaNs on purpose
def test_complex_lanes_keep_the_split_chain_bits_on_zeros_and_infinities(rng):
    # The +-1 stages run on complex lanes: each complex add, subtract and
    # negate must give both parts the bits of the two re/im lane ops, signed
    # zeros and infinities included.  NaN payloads may differ, so NaNs are
    # compared by where they fall.
    columns = _COLUMN_CHUNK + 5
    parts = rng.choice([0.0, -0.0, 0.0, -0.0, 1.0, -2.5], size=(2, 32, columns))
    # One infinite part in every third column, so most outputs keep it.
    infinite = np.arange(0, columns, 3)
    parts[rng.integers(0, 2, infinite.size), rng.integers(0, 32, infinite.size),
          infinite] = rng.choice([np.inf, -np.inf], infinite.size)
    x = np.empty((32, columns), dtype=complex)
    x.real, x.imag = parts
    got, want = adft32_apply(x).view(float), (OUTPUT_SCALE * _raw_chain(x)).view(float)
    nan = np.isnan(want)
    assert nan.any() and np.isinf(want).any() and (np.signbit(want) & (want == 0)).any()
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(_bits(got[~nan]), _bits(want[~nan]))


@pytest.mark.parametrize("order", [(7, 0, 1, 2, 3, 4, 5, 6), (0, 1, 2, 7, 3, 4, 5, 6)],
                         ids=["j-stage-first", "j-stage-fourth"])
def test_apply_picks_its_lanes_by_coefficient_not_position(monkeypatch, order):
    # Stages before the first +-j stage run on complex lanes with a zero im
    # lane; a +-j stage reaching those lanes would route the zeros in.
    factors = tuple(all_factors()[k] for k in order)
    monkeypatch.setattr(transforms, "all_factors", lambda: factors)
    x = np.array([[(5 * r + 3 * c) % 17 - 8 + 1j * ((7 * r + c) % 13 - 6) for c in range(5)]
                  for r in range(32)])
    np.testing.assert_array_equal(adft32_apply(x), OUTPUT_SCALE * (factor_product(factors) @ x))


def test_apply_peak_memory_stays_near_output_size():
    x = np.ones((32, 32768), dtype=complex)
    y, peak = traced_peak(lambda: adft32_apply(x))
    assert peak < 1.5 * y.nbytes


def test_apply_is_linear(rng):
    x, y = complex_vector(rng, 32), complex_vector(rng, 32)
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    lhs = adft32_apply(a * x + b * y)
    rhs = a * adft32_apply(x) + b * adft32_apply(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_impulse_extracts_first_column():
    x = np.zeros(32, dtype=complex)
    x[0] = 1.0
    np.testing.assert_allclose(adft32_apply(x), adft32_matrix()[:, 0], atol=1e-14)


def test_apply_rejects_wrong_length():
    for x in (np.zeros(33, dtype=complex), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"\(32,\) or \(32, B\)"):
            adft32_apply(x)


def test_worst_row_response_error_near_minus_ten_db():
    grid = 8192
    omega = -np.pi + 2 * np.pi * np.arange(grid) / grid
    kernel = np.exp(-1j * np.outer(np.arange(32), omega))
    h_exact = dft_matrix(32) @ kernel
    h_hat = adft32_matrix() @ kernel
    peak = np.abs(h_exact).max(axis=1)
    worst_db = 20 * np.log10((np.abs(h_hat - h_exact).max(axis=1) / peak).max())
    assert -11.5 <= worst_db <= -9.5

