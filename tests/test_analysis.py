"""Frequency responses, error statistics, side lobes, SNR and beams."""

import math
import re
import warnings

import numpy as np
import pytest

from adft1024.analysis import (_ZERO_ENERGY, DB_FLOOR, GRID_SIZE, beam_pattern,
                               default_angles, filterbank_error, grid_points,
                               snr_monte_carlo, worst_side_lobe)
from adft1024.radix32 import SIZE, VARIANTS, Variant, transform_matrix

from conftest import side_lobe_walk, traced_peak

EXACT, ALG1, ALG2, ALG3 = Variant.EXACT, Variant.ALG1, Variant.ALG2, Variant.ALG3


def _over_variants(*variants):
    """Parametrize "variant" over variants, with the ids spec0, spec1, ... by position."""
    return pytest.mark.parametrize("variant", variants,
                                   ids=[f"spec{i}" for i in range(len(variants))])


def test_default_grid_shape():
    points = grid_points(GRID_SIZE)
    assert points.shape == (8192,)
    assert points[0] == pytest.approx(-np.pi)
    assert points[-1] < np.pi


def test_grid_needs_two_points():
    with pytest.raises(ValueError, match="at least two points"):
        grid_points(1)


def test_filterbank_exact_sits_at_floor():
    stats = filterbank_error(EXACT)
    assert stats.min_db == stats.mean_db == stats.max_db == DB_FLOOR
    assert np.all(stats.upper_envelope == DB_FLOOR)
    assert np.all(stats.lower_envelope == DB_FLOOR)


@_over_variants(ALG1, ALG2, ALG3)
def test_filterbank_quartiles_ordered_pointwise(variant):
    stats = filterbank_error(variant)
    assert np.all(stats.lower_envelope <= stats.q1 + 1e-12)
    assert np.all(stats.q1 <= stats.q2 + 1e-12)
    assert np.all(stats.q2 <= stats.q3 + 1e-12)
    assert np.all(stats.q3 <= stats.upper_envelope + 1e-12)
    assert stats.max_db > DB_FLOOR


def test_filterbank_row_statistics_reproduce_reference_table():
    # row squared-error magnitudes: (min nonzero, mean, max) in dB
    expected = {
        Variant.ALG1: ((-10.7, -5.5, -4.4), 16),
        Variant.ALG2: ((-10.7, -9.9, -9.0), 128),
        Variant.ALG3: ((-10.7, -9.9, -9.0), 128),
    }
    for variant, ((lo, mid, hi), zero_rows) in expected.items():
        stats = filterbank_error(variant)
        assert stats.min_db == pytest.approx(lo, abs=0.5)
        assert stats.mean_db == pytest.approx(mid, abs=0.5)
        assert stats.max_db == pytest.approx(hi, abs=0.5)
        assert int((stats.row_error_energy <= 1e-20).sum()) == zero_rows


def test_filterbank_alg2_alg3_share_row_energy_statistics():
    s2 = filterbank_error(ALG2)
    s3 = filterbank_error(ALG3)
    np.testing.assert_allclose(sorted(s2.row_error_energy),
                               sorted(s3.row_error_energy), atol=1e-12)


@pytest.mark.parametrize("analysis", [filterbank_error, worst_side_lobe])
def test_row_analyses_reject_grids_on_exact_nulls(analysis):
    # A grid shorter than 1024 whose size divides 1024 meets every exact row
    # whose peak it misses only at its nulls: the row's grid peak, which
    # both analyses divide by, would be rounding noise.
    from adft1024.analysis import _check_row_grid
    for m in (2, 16, 512):
        with pytest.raises(ValueError, match=f"grid size {m} divides 1024"):
            analysis(ALG1, m)
    for m in (3, 37, 1000, 1024, 2048, GRID_SIZE):
        _check_row_grid(m)


def test_sidelobe_vectorized_scan_matches_reference(rng):
    from adft1024.analysis import _side_lobe_rows
    taps = rng.standard_normal((40, 24)) + 1j * rng.standard_normal((40, 24))
    mags = np.abs(np.fft.fft(taps, n=512, axis=1)) + 1e-9
    got = _side_lobe_rows(mags)
    expected = np.array([side_lobe_walk(row)[0] for row in mags])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_sidelobe_dirichlet_calibration():
    report = worst_side_lobe(EXACT, 32768)
    assert report.worst_db == pytest.approx(-13.26, abs=0.05)


def test_sidelobe_exact_rows_all_alike():
    report = worst_side_lobe(EXACT, 8192)
    assert report.per_row_db.max() - report.per_row_db.min() < 0.01


def test_sidelobe_variant_regression_values():
    # frozen outputs of the first-minima / own-peak-normalized definition
    expected = {Variant.ALG1: -11.158, Variant.ALG2: -11.919, Variant.ALG3: -11.158}
    worst_rows = []
    for variant, value in expected.items():
        report = worst_side_lobe(variant, 8192)
        assert report.worst_db == pytest.approx(value, abs=0.05)
        assert report.worst_db == report.per_row_db.max()
        # Rows tied with the worst up to rounding: the lowest index is reported.
        tied = report.per_row_db >= report.worst_db - 1e-9
        assert tied[report.worst_row]
        assert not tied[:report.worst_row].any()
        worst_rows.append(report.worst_row)
    assert worst_rows == [64, 2, 64]


def test_sidelobe_rows_match_direct_dtft_oracle():
    # Every 8th row of each dense matrix, its response summed directly on the
    # grid, walked by the scalar reference: 1000 points is shorter than a row.
    n = np.arange(SIZE)
    rows = np.concatenate([transform_matrix(v)[::8] for v in VARIANTS])
    for m in (1000, 8192):
        w = grid_points(m)
        mags = np.empty((rows.shape[0], m))
        for start in range(0, m, 1024):
            block = slice(start, start + 1024)
            mags[:, block] = np.abs(rows @ np.exp(-1j * np.outer(n, w[block])))
        oracle = np.array([side_lobe_walk(mag)[0] for mag in mags]).reshape(len(VARIANTS), -1)
        for variant, expected in zip(VARIANTS, oracle):
            np.testing.assert_allclose(worst_side_lobe(variant, m).per_row_db[::8], expected,
                                       rtol=0, atol=1e-9)
    # Two 8192 x 32 tap tables and one block's responses, not 1024 dense rows.
    _, peak = traced_peak(lambda: worst_side_lobe(ALG1, 8192))
    assert peak < 24 * 2 ** 20


def test_snr_exact_gain_matches_block_length():
    rep = snr_monte_carlo(ALG1, [0, 512], replicates=4000, seed=11)
    gain = 10 * np.log10(SIZE)
    assert np.all(np.abs(rep.snr_exact_db - gain) < 0.3)


def test_snr_reproducible_bit_for_bit():
    a = snr_monte_carlo(ALG2, [3, 99], replicates=500, seed=42)
    b = snr_monte_carlo(ALG2, [3, 99], replicates=500, seed=42)
    assert np.array_equal(a.snr_variant_db, b.snr_variant_db)
    assert np.array_equal(a.snr_exact_db, b.snr_exact_db)
    c = snr_monte_carlo(ALG2, [3, 99], replicates=500, seed=43)
    assert not np.array_equal(a.snr_variant_db, c.snr_variant_db)


def test_snr_degradation_holds_at_high_snr():
    # The variance is taken from the noise part, so a probe far above the
    # noise does not cancel it: the estimate stays put and finite.
    def degradation(noise_var):
        return snr_monte_carlo(ALG1, [5, 600], replicates=2000, noise_var=noise_var,
                               seed=3).degradation_db
    reference = degradation(1e-6)
    np.testing.assert_allclose(degradation(1e-12), reference, rtol=0, atol=1e-3)
    assert np.all(np.isfinite(degradation(1e-16)))


def test_snr_estimates_converge_with_replicates():
    coarse = snr_monte_carlo(ALG1, [160], replicates=1000, seed=5)
    fine = snr_monte_carlo(ALG1, [160], replicates=10_000, seed=5)
    assert abs(coarse.snr_variant_db[0] - fine.snr_variant_db[0]) < 0.3


def test_snr_matches_analytic_value(rng):
    # oracle: SNR = |row . probe|^2 / (sigma^2 ||row||^2) per bin
    k = 978
    row = transform_matrix(ALG1)[k]
    probe = np.exp(2j * np.pi * np.arange(SIZE) * k / SIZE)
    analytic = 10 * np.log10(abs(row @ probe) ** 2 / np.real(np.vdot(row, row)))
    rep = snr_monte_carlo(ALG1, [k], replicates=20_000, seed=3)
    assert rep.snr_variant_db[0] == pytest.approx(analytic, abs=0.15)


def test_mean_degradation_over_all_bins_matches_reference_column():
    # analytic per-bin SNR: |row . probe|^2 / ||row||^2 against the exact
    # 10*log10(1024); the reference table quotes the mean as 0.6 / 0.3 dB
    probes = np.sqrt(SIZE) * np.conj(transform_matrix(EXACT))
    expected = {Variant.ALG1: 0.6, Variant.ALG2: 0.3, Variant.ALG3: 0.3}
    for variant, mean_deg in expected.items():
        m = transform_matrix(variant)
        det = np.abs(np.einsum("kn,kn->k", m, probes)) ** 2
        norms = np.real(np.einsum("kn,kn->k", m, m.conj()))
        degs = 10 * np.log10(SIZE) - 10 * np.log10(det / norms)
        assert degs.mean() == pytest.approx(mean_deg, abs=0.05)
        assert degs.max() == pytest.approx({Variant.ALG1: 0.836}.get(variant, 0.418),
                                           abs=0.01)


def test_snr_input_validation():
    # Bad bins: test_analyses_reject_bad_bins_alike.
    with pytest.raises(ValueError):
        snr_monte_carlo(ALG1, [5], replicates=1)
    with pytest.raises(ValueError):
        snr_monte_carlo(ALG1, [5], replicates=100, noise_var=0.0)


@pytest.mark.parametrize("noise_var", [1e308, 1e-320])
def test_snr_refuses_an_estimate_outside_the_float_range(noise_var):
    # Squares of the outputs overflow at 1e308 and underflow at 1e-320.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(f"noise variance {noise_var}")):
            snr_monte_carlo(ALG1, [0, 5], replicates=50, noise_var=noise_var)


def test_beam_zero_points_broadside():
    # An odd angle count puts one angle at broadside, bin 0's main-lobe peak.
    pattern = beam_pattern(EXACT, [0], default_angles(4095))[0]
    step = pattern.angles[1] - pattern.angles[0]
    assert abs(pattern.angles[np.argmax(pattern.magnitude)]) <= step
    assert pattern.magnitude.max() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", [100, 300, 511, 700])
def test_beam_peak_direction_matches_bin(k):
    pattern = beam_pattern(EXACT, [k])[0]
    sin_expected = 2 * k / SIZE
    if sin_expected >= 1.0:
        sin_expected -= 2.0
    theta_expected = math.asin(sin_expected)
    theta_peak = pattern.angles[np.argmax(pattern.magnitude)]
    step = pattern.angles[1] - pattern.angles[0]
    assert abs(theta_peak - theta_expected) <= step


def test_beam_mirror_symmetry():
    k = 200
    left = beam_pattern(EXACT, [k])[0]
    right = beam_pattern(EXACT, [SIZE - k])[0]
    np.testing.assert_allclose(left.magnitude, right.magnitude[::-1], atol=1e-9)


@pytest.mark.parametrize("analysis", [
    lambda bins: snr_monte_carlo(ALG1, bins, replicates=100),
    lambda bins: beam_pattern(EXACT, bins),
], ids=["snr_monte_carlo", "beam_pattern"])
@pytest.mark.parametrize("bins, message", [
    ([], "at least one bin is required"),
    ([-1], f"bins must lie in 0..{SIZE - 1}"),
    ([SIZE], f"bins must lie in 0..{SIZE - 1}"),
    ([3, SIZE], f"bins must lie in 0..{SIZE - 1}"),
    ([3, -1], f"bins must lie in 0..{SIZE - 1}"),
    ([3.7], "bins must be integers"),
    ([3, 16.5], "bins must be integers"),
    ([True], "bins must be integers"),
    ([3, True], "bins must be integers"),
    ([float("inf")], "bins must be integers"),
], ids=["empty", "negative", "size", "good-and-size", "good-and-negative",
        "fraction", "good-and-fraction", "bool", "good-and-bool", "inf"])
def test_analyses_reject_bad_bins_alike(analysis, bins, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        analysis(bins)


def test_beam_variant_error_regression():
    # worst normalized complex beam error over bins 200..203, frozen from the
    # implemented convention
    worst = 0.0
    for k in (200, 201, 202, 203):
        exact = beam_pattern(EXACT, [k])[0]
        approx = beam_pattern(ALG1, [k])[0]
        worst = max(worst, np.abs(approx.gain - exact.gain).max())
    assert 0.25 < worst < 0.40


def test_default_angles_cover_half_circle():
    angles = default_angles(101)
    assert angles[0] == pytest.approx(-np.pi / 2)
    assert angles[-1] == pytest.approx(np.pi / 2)


def _unchunked_filterbank(variant, m):
    """The whole-matrix formula: every row's response held at once.

    Each response is one length-m FFT of the row times (-1)^n, folded
    modulo m first (time aliasing), so grids shorter than a row are exact.
    """
    def responses(rows):
        folded = np.zeros((SIZE, -(-SIZE // m) * m), dtype=complex)
        folded[:, :SIZE] = rows * (-1.0) ** np.arange(SIZE)
        return np.fft.fft(folded.reshape(SIZE, -1, m).sum(axis=1), axis=1)

    exact, approx = transform_matrix(EXACT), transform_matrix(variant)
    h_exact = responses(exact)
    h_err = responses(approx) - h_exact
    with np.errstate(divide="ignore"):
        err_db = np.maximum(20 * np.log10(
            np.abs(h_err) / np.abs(h_exact).max(axis=1, keepdims=True)), DB_FLOOR)
    diff = approx - exact
    energy = np.real(np.einsum("ij,ij->i", diff, diff.conj()))
    return (err_db.min(axis=0), *np.percentile(err_db, [25, 50, 75], axis=0),
            err_db.max(axis=0), energy)


@pytest.mark.parametrize("variant", [Variant.ALG1, Variant.ALG2, Variant.ALG3])
def test_filterbank_chunked_rows_equal_unchunked_formula(variant):
    # 1024 divides none of these grids, and 37 is shorter than a row.  (A
    # divisor such as 16 lands on exact nulls of most exact rows, so their
    # grid peaks, and both sides' curves, would be rounding noise.)
    for m in (2048, 1000, 37):
        stats = filterbank_error(variant, m)
        *oracle_curves, oracle_energy = _unchunked_filterbank(variant, m)
        curves = (stats.lower_envelope, stats.q1, stats.q2, stats.q3, stats.upper_envelope)
        for got, expected in zip(curves, oracle_curves):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
        # Rows are rebuilt from their factors: equal to the oracle up to
        # rounding, and the exactly reproduced rows are the same rows.
        zero = stats.row_error_energy <= _ZERO_ENERGY
        assert np.array_equal(zero, oracle_energy <= _ZERO_ENERGY)
        assert zero.sum() == {ALG1: 16, ALG2: 128, ALG3: 128}[variant]
        np.testing.assert_allclose(stats.row_error_energy[~zero], oracle_energy[~zero],
                                   rtol=0, atol=1e-15)


def test_filterbank_memory_is_bounded_by_its_db_matrix():
    m = 2048
    _, peak = traced_peak(lambda: filterbank_error(ALG1, m))
    assert peak < 2.5 * SIZE * m * 8


def test_filterbank_memory_is_flat_in_grid_size():
    # A rows x grid dB matrix at the default grid alone is 64 MiB.
    _, peak = traced_peak(lambda: filterbank_error(ALG1, GRID_SIZE))
    assert peak < 48 * 2 ** 20


@pytest.mark.parametrize("count", [1, 1000, 4096])
@_over_variants(EXACT, ALG1, ALG3, ALG2)
def test_beam_chunked_angles_equal_full_steering(variant, count):
    angles = default_angles(count)
    steering = np.exp(1j * np.pi * np.outer(np.arange(SIZE), np.sin(angles)))
    exact = transform_matrix(EXACT)
    # One bin, then several: unsorted and with a repeat.
    for bins in ((100,), (1023, 3, 100, 3)):
        patterns = beam_pattern(variant, bins, angles)
        assert [p.bin_index for p in patterns] == list(bins)
        for k, pattern in zip(bins, patterns):
            # Gains are relative to the exact beam's main-lobe peak, sum |row|.
            peak = np.abs(exact[k]).sum()
            expected = transform_matrix(variant)[k] @ steering
            np.testing.assert_allclose(pattern.gain, expected / peak, rtol=0, atol=1e-12)


@_over_variants(EXACT, ALG1)
def test_beam_gain_does_not_depend_on_the_other_angles(variant):
    # -pi/2 is an exact null of every exact beam but bin 512's.  The fixed
    # angles are requested alone, then among 33 and among 4096 angles.
    fixed = np.array([-np.pi / 2, -0.3, 0.0, 0.7])
    bins = (3, 100, 512, 1023)
    alone = np.array([[p.gain[0] for p in beam_pattern(variant, bins, [theta])]
                      for theta in fixed]).T   # (bins, fixed)
    for others in (default_angles(29), default_angles(4092)):
        angles = np.concatenate([others[:7], fixed, others[7:]])
        patterns = beam_pattern(variant, bins, angles)
        among = np.array([p.gain[7:7 + fixed.size] for p in patterns])
        np.testing.assert_allclose(among, alone, rtol=0, atol=1e-12)


@pytest.mark.parametrize("run", [
    lambda: filterbank_error(ALG1, 1000),
    lambda: worst_side_lobe(ALG1, 1000),
    lambda: snr_monte_carlo(ALG1, [3, 100], replicates=50),
    lambda: beam_pattern(ALG1, [3, 100], default_angles(64)),
], ids=["filterbank_error", "worst_side_lobe", "snr_monte_carlo", "beam_pattern"])
def test_analysis_builds_no_dense_matrix(run):
    transform_matrix.cache_clear()
    run()
    assert transform_matrix.cache_info().currsize == 0


def test_beam_memory_is_bounded():
    # The full 1024 x 4096 steering matrix alone is 64 MiB.
    bins = range(100, 116)
    _, peak = traced_peak(lambda: beam_pattern(ALG1, bins, default_angles(4096)))
    assert peak < 32 * 2 ** 20
