"""Acceptance suite: one test per acceptance criterion, printed pass/fail.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
Two published figures are not reproduced: the approximate variants' worst
side lobes (-12.8/-12.8/-12.9 dB) and the Algorithm-3 degradation bound
(< 0.4 dB).  Neither states the definition behind it, and the definitions
pinned in the README give other values.  Criteria 6b and 7b therefore check
those quantities under the pinned definitions against oracles built here,
independently of the library, and print the published figure beside them;
the README's reproduction notes record what was tried.
"""

import time

import numpy as np
import pytest

import adft1024 as lib
from adft1024.analysis import filterbank_error, snr_monte_carlo, worst_side_lobe
from adft1024.complexity import (ComplexMultScheme, CostModel, circuit_complexity,
                                 count_instrumented_adft32, count_sequential,
                                 adft32_addition_profile)
from adft1024.radix32 import SIZE, Variant, invvec, transform_1024, twiddle_matrix, vec
from adft1024.transforms import OUTPUT_SCALE, adft32_apply, dft_direct, factor_product

from conftest import side_lobe_walk

SEED = 7
SAMPLED_BINS = list(range(0, SIZE, SIZE // 64))


def _composed_matrix(variant):
    """Dense 1024-point matrix of a variant, built without the library.

    The approximate kernel is the unnormalized 32-point DFT rounded to the
    nearest Gaussian integers over sqrt(32).  Input sample c*32+i sits at
    (i, c) of the column-major reshape; each row i is transformed over c by
    the row kernel R, weighted by the exact twiddle w^(k*i), and each column
    k transformed over i by the column kernel C into bin d*32+k, so entry
    (d*32+k, c*32+i) is C[d, i] * w^(k*i) * R[k, c].
    """
    k = np.arange(32)
    raw = np.exp(-2j * np.pi * np.outer(k, k) / 32)
    exact = raw / np.sqrt(32)
    approx = (np.rint(raw.real) + 1j * np.rint(raw.imag)) / np.sqrt(32)
    row_kernel = approx if variant in (Variant.ALG1, Variant.ALG2) else exact
    col_kernel = approx if variant in (Variant.ALG1, Variant.ALG3) else exact
    twiddle = np.exp(-2j * np.pi * np.outer(k, k) / SIZE)
    return np.einsum("di,ki,kc->dkci", col_kernel, twiddle,
                     row_kernel).reshape(SIZE, SIZE)


def _refined_peak(row, omega, step, rounds=5, points=65):
    """max |sum_n row[n] e^{-j w n}| near omega, by direct summation on
    successively finer local grids (the first spans +-step)."""
    n = np.arange(row.size)
    for _ in range(rounds):
        omegas = omega + np.linspace(-step, step, points)
        mag = np.abs(np.exp(-1j * np.outer(omegas, n)) @ row)
        omega = omegas[np.argmax(mag)]
        step *= 2 / (points - 1)
    return omega, mag.max()


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_exact_path_oracle(rng):
    start = time.perf_counter()
    x = rng.standard_normal((SIZE, 100)) + 1j * rng.standard_normal((SIZE, 100))
    got = transform_1024(x, Variant.EXACT)
    ref = dft_direct(x)
    rel = (np.linalg.norm(got - ref, axis=0) / np.linalg.norm(ref, axis=0)).max()
    elapsed = time.perf_counter() - start
    ok = rel < 1e-9 and elapsed < 30
    assert report(1, ok, f"exact path vs direct DFT on 100 vectors: "
                         f"worst rel err {rel:.2e}, {elapsed:.1f} s")


def test_criterion_02_kernel_addition_count():
    start = time.perf_counter()
    counts = count_instrumented_adft32()
    profile = adft32_addition_profile()
    elapsed = time.perf_counter() - start
    ok = (counts == (0, 348)
          and profile == [60, 60, 28, 28, 60, 28, 24, 60]
          and elapsed < 1)
    assert report(2, ok, f"instrumented {counts}, per-stage {profile}, {elapsed:.2f} s")


def test_criterion_03_sequential_table():
    start = time.perf_counter()
    model = CostModel(ComplexMultScheme.PAPER_3M3A)
    got = {v: (count_sequential(v, model).real_mults,
               count_sequential(v, model).real_adds)
           for v in (Variant.ALG1, Variant.ALG2, Variant.ALG3)}
    expected = {Variant.ALG1: (2883, 25155), Variant.ALG2: (5699, 27075),
                Variant.ALG3: (5699, 27075)}
    elapsed = time.perf_counter() - start
    ok = got == expected and elapsed < 1
    assert report(3, ok, f"sequential counts {[got[v] for v in got]}, {elapsed:.2f} s")


def test_criterion_04_circuit_table():
    reps = {v: circuit_complexity(v) for v in lib.VARIANTS}
    approx_ok = all(
        (reps[v].multiplier_circuits, reps[v].adder_circuits) == want
        for v, want in [(Variant.ALG1, (96, 856)), (Variant.ALG2, (174, 906)),
                        (Variant.ALG3, (174, 906))])
    exact = reps[Variant.EXACT]
    exact_ok = (exact.multiplier_circuits == 252
                and exact.adder_circuits == 956
                and exact.paper_table_values == (252, 959)
                and not exact.matches_paper_table)
    ok = approx_ok and exact_ok
    assert report(4, ok, "circuits alg1 (96,856), alg2/3 (174,906), exact "
                         f"(252, computed {exact.adder_circuits}; published "
                         f"{exact.paper_table_values[1]} flagged)")


def test_criterion_05_error_statistics_table():
    start = time.perf_counter()
    table = {Variant.ALG1: (-10.7, -5.5, -4.4),
             Variant.ALG2: (-10.7, -9.9, -9.0),
             Variant.ALG3: (-10.7, -9.9, -9.0)}
    got = {}
    ok = True
    for variant, want in table.items():
        stats = filterbank_error(variant, 8192)
        got[variant] = (stats.min_db, stats.mean_db, stats.max_db)
        ok = ok and all(abs(g - w) <= 0.5 for g, w in zip(got[variant], want))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300
    detail = "; ".join(
        f"{v.value} ({g[0]:.2f}, {g[1]:.2f}, {g[2]:.2f}) vs {w}"
        for (v, g), w in zip(got.items(), table.values()))
    assert report(5, ok, f"{detail}; {elapsed:.1f} s")


def test_criterion_06a_dirichlet_calibration():
    rep = worst_side_lobe(Variant.EXACT, 32768)
    ok = abs(rep.worst_db - (-13.26)) <= 0.05
    assert report("6a", ok, f"exact-DFT side lobe {rep.worst_db:.3f} dB vs -13.26 +-0.05")


def test_criterion_06b_variant_side_lobe_targets():
    """Worst side lobe of each approximate variant under the pinned definition.

    Pinned definition (README "Conventions"): main lobe bounded by the first
    strict local minima, level relative to the row's own peak, worst = max
    over all 1024 rows.  The oracle builds each variant's matrix without the
    library, takes zero-padded FFT responses on [0, 2*pi) and walks every
    row with the scalar reference walk; the library's per-row levels and
    worst must match it within 0.01 dB.  The worst row's peak and crest are
    then refined off-grid by direct summation, which must agree within
    0.01 dB (the value is not a grid artifact), and for alg1 and alg3 the
    crest must be the quarter-band image 256 bins from the peak.

    The published -12.8/-12.8/-12.9 dB are printed but not asserted: the
    definition behind them is not stated, the pinned one gives about
    -11.16/-11.92/-11.16 dB, and no nearby convention (largest or mean
    nearest crest, per-row median) matches all three; see the README.
    """
    m = 8192
    published = {Variant.ALG1: -12.8, Variant.ALG2: -12.8, Variant.ALG3: -12.9}
    ok = True
    details = []
    for variant, quoted in published.items():
        rep = worst_side_lobe(variant, m)
        rows = _composed_matrix(variant)
        walks = [side_lobe_walk(mag)
                 for start in range(0, SIZE, 128)
                 for mag in np.abs(np.fft.fft(rows[start:start + 128], n=m, axis=1))]
        oracle = np.array([level for level, _, _ in walks])

        _, peak, crest = walks[rep.worst_row]
        step = 2 * np.pi / m
        w_peak, h_peak = _refined_peak(rows[rep.worst_row], step * peak, step)
        w_crest, h_crest = _refined_peak(rows[rep.worst_row], step * crest, step)
        refined = 20 * np.log10(h_crest / h_peak)
        offset = ((w_crest - w_peak) * SIZE / (2 * np.pi) + SIZE / 2) % SIZE - SIZE / 2

        ok = (ok
              and abs(rep.worst_db - oracle.max()) <= 0.01
              and bool(np.all(np.abs(rep.per_row_db - oracle) <= 0.01))
              and abs(refined - rep.worst_db) <= 0.01
              and (variant is Variant.ALG2 or abs(abs(offset) - 256) <= 0.5))
        details.append(f"{variant.value} {rep.worst_db:.3f} (row {rep.worst_row}; "
                       f"oracle {oracle.max():.3f}, off-grid {refined:.3f}, "
                       f"crest {offset:+.1f} bins; published {quoted})")
    assert report("6b", ok, "worst side lobe dB vs independent oracle +-0.01: "
                  + "; ".join(details))


@pytest.fixture(scope="module")
def snr_reports():
    t0 = time.perf_counter()
    reps = {v: snr_monte_carlo(v, SAMPLED_BINS, replicates=10_000,
                               noise_var=1.0, seed=SEED)
            for v in (Variant.ALG1, Variant.ALG2, Variant.ALG3)}
    return reps, time.perf_counter() - t0


def test_criterion_07_snr_core(snr_reports):
    """Per-bin SNR on the 64 stride-16 sampled bins.

    Every sampled bin d*32+k has k in {0, 16}, and rows 0 and 16 of the
    rounded kernel are exact, so alg2 (approximate rows, exact columns)
    sees no approximation there and reads 0.000; alg1 reads the same as
    alg3 for the same reason.  Criterion 7b checks alg2 and alg3 over all
    bins in closed form.
    """
    reps, elapsed = snr_reports
    gain = 10 * np.log10(SIZE)  # 30.1 dB for a 0 dB element SNR
    exact_ok = all(np.all(np.abs(r.snr_exact_db - gain) <= 0.2) for r in reps.values())
    alg1 = reps[Variant.ALG1].worst_degradation_db
    alg2 = reps[Variant.ALG2].worst_degradation_db
    floor_ok = all(r.snr_variant_db.min() >= 29.2 for r in reps.values())
    ok = exact_ok and alg1 < 0.9 and alg2 < 0.4 and floor_ok and elapsed < 600
    assert report(7, ok,
                  f"exact per-bin SNR within 30.1 +-0.2: {exact_ok}; "
                  f"alg1 worst {alg1:.3f} < 0.9; alg2 worst {alg2:.3f} < 0.4 "
                  f"(sampled bins hit only exact kernel rows 0 and 16); "
                  f"all sampled bins >= 29.2 dB: {floor_ok}; {elapsed:.1f} s")


def test_criterion_07b_alg3_degradation_bound(snr_reports):
    """Worst per-bin SNR degradation of the hybrids, in closed form.

    For a variant row r_k and the bin-k probe p_k in white noise, the
    degradation against the exact (unit-norm) row is -10*log10(rho_k^2)
    with rho_k^2 = |r_k . p_k|^2 / (1024 * ||r_k||^2).  Over all 1024 bins
    of a matrix built here without the library, the worst is 0.4181 dB for
    alg3 (and alg2), attained at 256 bins.  The Monte-Carlo degradation on
    every sampled bin must lie within 4 standard errors of the closed form,
    SE_k = (10/ln 10) * sqrt(2 * (1 - rho_k^2) / (R - 1)) for the paired
    log-variance ratio of R replicates, plus 1e-9 dB where the row is exact.

    The published < 0.4 dB is printed but not asserted: the closed-form
    worst is above it on 16 of the sampled bins (64, 704, ...), so no
    faithful estimator of the pinned SNR meets it; at seed 7 the sampled
    Monte-Carlo maximum reads 0.442 dB (bin 448, 1.3 SE above).
    """
    reps, _ = snr_reports
    n = np.arange(SIZE)
    probes = np.exp(2j * np.pi * np.outer(n, n) / SIZE)   # row k: probe for bin k
    ok = True
    details = []
    for variant in (Variant.ALG2, Variant.ALG3):
        rows = _composed_matrix(variant)
        rho2 = (np.abs(np.einsum("kn,kn->k", rows, probes)) ** 2
                / (SIZE * np.real(np.einsum("kn,kn->k", rows, rows.conj()))))
        rho2 = np.clip(rho2, 0.0, 1.0)
        closed = -10 * np.log10(rho2)
        worst = closed.max()
        attained = np.flatnonzero(closed >= worst - 1e-9)

        rep = reps[variant]
        se = (10 / np.log(10)) * np.sqrt(2 * (1 - rho2[rep.bins]) / (rep.replicates - 1))
        miss = np.abs(rep.degradation_db - closed[rep.bins])
        z = miss / np.maximum(se, 1e-9)
        ok = (ok and abs(worst - 0.4181) <= 0.001
              and bool(np.all(miss <= 4 * se + 1e-9)))
        details.append(f"{variant.value} closed-form worst {worst:.4f} dB at "
                       f"{attained.size} bins, sampled max {rep.worst_degradation_db:.3f}, "
                       f"max |z| {z.max():.2f}")
    assert report("7b", ok, "; ".join(details)
                  + " (closed form 0.4181 +-0.001, MC within 4 SE; published < 0.4)")


def test_criterion_08_property_suite(rng):
    start = time.perf_counter()
    checks = {}
    x, y = (rng.standard_normal(SIZE) + 1j * rng.standard_normal(SIZE) for _ in range(2))
    a, b = 0.8 - 0.1j, -0.6 + 0.5j
    lin = max(
        np.linalg.norm(transform_1024(a * x + b * y, v)
                       - a * transform_1024(x, v)
                       - b * transform_1024(y, v))
        / np.linalg.norm(transform_1024(y, v))
        for v in lib.VARIANTS)
    checks["linearity"] = lin < 1e-10
    checks["vec-invvec"] = bool(np.array_equal(vec(invvec(x)), x))
    tw = twiddle_matrix()
    checks["twiddle-63/961"] = (int(tw.trivial_mask.sum()) == 63
                                and tw.nontrivial_count == 961)
    raw = factor_product(lib.all_factors())
    checks["gaussian-integer"] = bool(np.all(raw.real == np.rint(raw.real))
                                      and np.all(raw.imag == np.rint(raw.imag)))
    checks["stage-sizes-32"] = all(f.size == 32 for f in lib.all_factors())
    kernel_cols = adft32_apply(np.eye(32, dtype=complex))
    checks["fold-vs-columns"] = bool(np.array_equal(OUTPUT_SCALE * raw, kernel_cols))
    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < 60
    assert report(8, ok, f"{checks}; {elapsed:.1f} s")


def test_criterion_09_synthesis_metrics_excluded():
    # physical-design figures (area, delay, power) are out of scope; nothing
    # in the public API pretends to provide them
    banned = ("area", "power", "delay", "fmax", "synthesis")
    leaked = [name for name in lib.__all__
              if any(term in name.lower() for term in banned)]
    ok = leaked == []
    assert report(9, ok, "no synthesis/physical metrics exposed "
                         f"(scope exclusion); leaked: {leaked}")
