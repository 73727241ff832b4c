"""Reshaping, twiddles, and the four 1024-point transform pipelines."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adft1024 import radix32
from adft1024.radix32 import (APPROX_VARIANTS, SIZE, TransformSpec, Variant,
                              VARIANTS, _rows, invvec, transform_1024,
                              transform_matrix, twiddle_matrix, vec)
from adft1024.factors import all_factors
from adft1024.transforms import (_COLUMN_CHUNK, adft32_apply, dft_direct, dft_matrix,
                                 factor_product)

from conftest import complex_vector, traced_peak


def test_invvec_2x2_pattern():
    out = invvec(np.array([10, 11, 12, 13]))
    np.testing.assert_array_equal(out, np.array([[10, 12], [11, 13]]))


def test_invvec_rejects_non_square_length():
    for x in (np.zeros(12), np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"not shape {np.shape(x)}")):
            invvec(x)


def test_vec_rejects_a_vector():
    with pytest.raises(ValueError, match=re.escape("not shape (4,)")):
        vec(np.zeros(4))


def test_vec_2x2_column_major():
    np.testing.assert_array_equal(vec(np.array([["a", "c"], ["b", "d"]])),
                                  np.array(["a", "b", "c", "d"]))


def test_vec_places_single_entry_at_expected_index():
    m = np.zeros((32, 32))
    m[3, 5] = 1.0
    flat = vec(m)
    assert flat[5 * 32 + 3] == 1.0
    assert flat.sum() == 1.0


def test_invvec_ramp_fills_columns():
    cols = invvec(np.arange(1024))
    for c in range(32):
        np.testing.assert_array_equal(cols[:, c], np.arange(32 * c, 32 * c + 32))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 32), st.integers(0, 2 ** 31 - 1))
def test_vec_invvec_round_trip(n, seed):
    x = complex_vector(np.random.default_rng(seed), n * n)
    np.testing.assert_array_equal(vec(invvec(x)), x)
    m = invvec(x)
    np.testing.assert_array_equal(invvec(vec(m)), m)


def test_twiddle_counts_and_symmetry():
    tw = twiddle_matrix()
    assert int(tw.trivial_mask.sum()) == 63
    assert tw.nontrivial_count == 961
    np.testing.assert_array_equal(tw.entries, tw.entries.T)
    np.testing.assert_allclose(np.abs(tw.entries), 1.0, atol=1e-14)
    np.testing.assert_array_equal(tw.entries[0], np.ones(32))
    np.testing.assert_array_equal(tw.entries[:, 0], np.ones(32))


def test_twiddle_first_nontrivial_value():
    tw = twiddle_matrix()
    assert tw.entries[1, 1] == pytest.approx(np.exp(-2j * np.pi / 1024), abs=1e-15)


def test_exact_pipeline_matches_direct_dft(rng):
    x = complex_vector(rng, SIZE * 10).reshape(SIZE, 10)
    got = transform_1024(x, Variant.EXACT)
    ref = dft_direct(x)
    rel = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert rel.max() < 1e-9


def test_transform_rejects_wrong_length():
    with pytest.raises(ValueError):
        transform_1024(np.zeros(512, dtype=complex), Variant.EXACT)
    with pytest.raises(ValueError, match=r"\(1024,\) or \(1024, B\)"):
        transform_1024(np.zeros((SIZE, 2, 3)), Variant.EXACT)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_is_linear(variant, rng):
    x, y = complex_vector(rng, SIZE), complex_vector(rng, SIZE)
    a, b = 1.1 - 0.3j, -0.4 + 0.9j
    lhs = transform_1024(a * x + b * y, variant)
    rhs = a * transform_1024(x, variant) + b * transform_1024(y, variant)
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-10


def test_alg1_impulse_extracts_matrix_column():
    x = np.zeros(SIZE, dtype=complex)
    x[0] = 1.0
    np.testing.assert_allclose(transform_1024(x, Variant.ALG1),
                               transform_matrix(Variant.ALG1)[:, 0], atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_matches_dense_matrix(variant, rng):
    # The rows are products of kernel and twiddle entries and never run the
    # pipeline, so this compares two independent computations of the same
    # operator.
    x = complex_vector(rng, SIZE * 7).reshape(SIZE, 7)
    got = transform_1024(x, variant)
    ref = _rows(variant, range(SIZE)) @ x
    rel = np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)
    assert rel.max() <= 1e-13


@pytest.mark.parametrize("variant", VARIANTS)
def test_matrix_equals_pipeline_on_identity(variant):
    # The matrix is built from slabs of unit impulses; a single batch of all
    # of them gives the same bits, the sign of every zero included.
    np.testing.assert_array_equal(transform_matrix(variant).view(np.uint64),
                                  transform_1024(np.eye(SIZE), variant).view(np.uint64))


@pytest.mark.parametrize("variant", VARIANTS)
def test_rows_from_factors_match_dense_matrix(variant):
    # The factored rows round their products in another order than the
    # pipeline, so they agree up to rounding.
    np.testing.assert_allclose(_rows(variant, range(SIZE)), transform_matrix(variant),
                               rtol=0, atol=1e-15)


def _three_array_transform(x, variant):
    """The pipeline laid out as three full-size arrays: the row-kernel output,
    twiddled in place, a transposed copy of it, and the column-kernel output."""
    nbatch = x.shape[1]
    row, col = variant.place(lambda block: dft_matrix(32) @ block, adft32_apply)
    p = row(x.reshape(32, 32 * nbatch)).reshape(32, 32, nbatch)
    np.multiply(twiddle_matrix().entries[:, :, None], p, out=p)
    cols = p.transpose(1, 0, 2).reshape(32, 32 * nbatch)
    return col(cols).reshape(SIZE, nbatch)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_equals_three_array_layout(variant, rng):
    # B = _COLUMN_CHUNK + 4 makes the in-place passes slice the batch axis.
    for nbatch in (1, 7, 300, 1000, _COLUMN_CHUNK + 4):
        x = complex_vector(rng, SIZE * nbatch).reshape(SIZE, nbatch)
        ref = _three_array_transform(x, variant)
        assert np.array_equal(transform_1024(x, variant), ref)
        if nbatch == 1:
            assert np.array_equal(transform_1024(x[:, 0], variant), ref[:, 0])


@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_looks_up_each_kernel_by_name_rows_first(variant, monkeypatch, rng):
    # perfbench times the kernel by replacing radix32.adft32_apply, so the
    # pipeline must find both kernels on the module when it runs.
    calls = {Variant.EXACT: ["exact", "exact"], Variant.ALG1: ["approx", "approx"],
             Variant.ALG2: ["approx", "exact"], Variant.ALG3: ["exact", "approx"]}
    seen = []

    def counting(name, kernel):
        def wrapper(cols):
            seen.append(name)
            return kernel(cols)
        return wrapper

    monkeypatch.setattr(radix32, "dft_direct", counting("exact", dft_direct))
    monkeypatch.setattr(radix32, "adft32_apply", counting("approx", adft32_apply))
    transform_1024(complex_vector(rng, SIZE), variant)
    assert seen == calls[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_orientation_with_asymmetric_kernels(variant, monkeypatch):
    # The library's kernels and twiddle grid are all symmetric, so they
    # cannot tell K from K.T.  Two random kernels can: the pipeline and the
    # factored rows must equal (Kc x I) diag(vec(T)) (I x Kr) P, built here
    # with P the stride permutation (P x)[32i + c] = x[32c + i].
    rng = np.random.default_rng(13)
    exact, approx = (rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
                     for _ in range(2))
    assert not np.allclose(exact, exact.T) and not np.allclose(approx, approx.T)
    monkeypatch.setattr(radix32, "dft_direct", lambda cols: exact @ cols)
    monkeypatch.setattr(radix32, "adft32_apply", lambda cols: approx @ cols)
    monkeypatch.setattr(radix32, "dft_matrix", lambda n: exact)
    monkeypatch.setattr(radix32, "adft32_matrix", lambda: approx)
    kr, kc = {Variant.EXACT: (exact, exact), Variant.ALG1: (approx, approx),
              Variant.ALG2: (approx, exact), Variant.ALG3: (exact, approx)}[variant]
    m = np.arange(32)
    t = np.exp(-2j * np.pi * (np.outer(m, m) % SIZE) / SIZE).ravel(order="F")
    n = np.arange(SIZE)
    p = np.eye(SIZE)[32 * (n % 32) + n // 32]
    eye = np.eye(32)
    x = complex_vector(rng, SIZE * 4).reshape(SIZE, 4)
    ref = np.kron(kc, eye) @ (t[:, None] * (np.kron(eye, kr) @ (p @ x)))
    for got in (transform_1024(x, variant), _rows(variant, range(SIZE)) @ x):
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) < 1e-12


@pytest.mark.parametrize("variant", VARIANTS)
def test_batch_columns_at_pass_boundaries_equal_single_calls(variant, rng):
    # Each kernel works along axis 0 of a (32, 32, B) view, at most
    # _COLUMN_CHUNK columns per pass.  Up to _COLUMN_CHUNK vectors, a pass
    # takes whole slices j of the middle axis, all B vectors each, so no
    # pass boundary falls between two vectors.  A wider batch is cut along
    # its batch axis, between vectors b-1 and b at each multiple b of
    # _COLUMN_CHUNK.  alg1 has no BLAS step and must match bit for bit; a
    # gemm and a gemv may sum the exact kernel in another order.
    for nbatch in (300, _COLUMN_CHUNK + 4):
        x = complex_vector(rng, SIZE * nbatch).reshape(SIZE, nbatch)
        batch = transform_1024(x, variant)
        edges = list(range(_COLUMN_CHUNK, nbatch, _COLUMN_CHUNK))
        assert bool(edges) == (nbatch > _COLUMN_CHUNK)
        for b in sorted({0, nbatch - 1} | {c for e in edges for c in (e - 1, e)}):
            single = transform_1024(x[:, b], variant)
            if variant is Variant.ALG1:
                np.testing.assert_array_equal(
                    np.ascontiguousarray(batch[:, b]).view(np.uint64),
                    single.view(np.uint64))
            else:
                np.testing.assert_allclose(batch[:, b], single, rtol=0,
                                           atol=1e-12 * np.abs(single).max())


@pytest.mark.parametrize("variant", VARIANTS)
def test_pipeline_memory_is_bounded(variant, rng):
    # The output is the only full-size buffer; each kernel pass adds
    # temporaries of at most _COLUMN_CHUNK columns.
    x = complex_vector(rng, SIZE * 1000).reshape(SIZE, 1000)
    out, peak = traced_peak(lambda: transform_1024(x, variant))
    assert peak < 2.0 * out.nbytes


@pytest.mark.parametrize("variant", VARIANTS)
def test_cold_matrix_build_memory_is_bounded(variant):
    # A cold build holds little beyond its 16 MiB output.
    _, peak = traced_peak(lambda: transform_matrix.__wrapped__(variant))
    assert peak < 2.5 * SIZE * SIZE * 16


def test_exact_matrix_is_unitary():
    m = transform_matrix(Variant.EXACT)
    gram = m @ m.conj().T
    assert np.abs(gram - np.eye(SIZE)).max() < 1e-9


def test_alg1_matrix_is_invertible():
    m = transform_matrix(Variant.ALG1)
    singular = np.linalg.svd(m, compute_uv=False)
    assert singular.min() > 1e-3
    assert np.isfinite(singular.max() / singular.min())


def test_alg2_alg3_matrices_are_transposes():
    # holds because the shared 32-point kernels are symmetric matrices
    kernel = factor_product(all_factors())
    np.testing.assert_array_equal(kernel, kernel.T)
    m2 = transform_matrix(Variant.ALG2)
    m3 = transform_matrix(Variant.ALG3)
    np.testing.assert_allclose(m3, m2.T, atol=1e-12)


@pytest.mark.parametrize("variant", APPROX_VARIANTS)
def test_energy_ratio_bounded(variant, rng):
    x = complex_vector(rng, SIZE * 50).reshape(SIZE, 50)
    ratios = (np.linalg.norm(transform_1024(x, variant), axis=0)
              / np.linalg.norm(x, axis=0))
    assert ratios.min() > 0.5
    assert ratios.max() < 2.0


def test_transform_matrix_is_cached_and_readonly():
    m1 = transform_matrix(Variant.ALG2)
    m2 = transform_matrix(Variant.ALG2)
    assert m1 is m2
    assert not m1.flags.writeable


@pytest.mark.parametrize("variant", VARIANTS)
def test_transform_spec_is_an_alias_of_variant(variant):
    assert TransformSpec(variant) is variant
    assert transform_matrix(TransformSpec(variant)) is transform_matrix(variant)
