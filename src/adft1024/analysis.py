"""Filter-bank error, side-lobe, SNR and beam-pattern analysis.

Each row of a 1024-point transform matrix is treated as an FIR filter; its
frequency response on a uniform grid over [-pi, pi) drives the error
envelopes and side-lobe extraction.  SNR degradation is estimated by Monte
Carlo with a complex-exponential probe per bin in additive white Gaussian
noise, and beam patterns come from steering a half-wavelength uniform
linear array across the same rows.  Each row of the radix-32 pipeline is
the outer product of a column-kernel row and a row-kernel row, so a beam
gain is the product of two 32-tap sums; beams never build the dense
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radix32 import (N, SIZE, TransformSpec, Variant, _kernel_matrices,
                      transform_matrix, twiddle_matrix)

DB_FLOOR = -60.0
# Defaults of the analyses, shared with the CLI.
GRID_SIZE = 8192
REPLICATES = 10_000
ANGLES = 4096
_ZERO_ENERGY = 1e-20
_ROW_CHUNK = 128
_ANGLE_CHUNK = 512
_REPLICATE_CHUNK = 512


def grid_points(m: int) -> np.ndarray:
    """m angular frequencies covering [-pi, pi), endpoint excluded."""
    if m < 2:
        raise ValueError("a frequency grid needs at least two points")
    return -np.pi + 2 * np.pi * np.arange(m) / m


def row_response(rows: np.ndarray, grid_size: int) -> np.ndarray:
    """H(w) = sum_n c_n e^{-jwn} on grid_points(grid_size) for a row (n,) or each of (r, n).

    A grid at least as long as the rows is evaluated with a zero-padded FFT
    (the half-turn phase ramp shifts the origin to -pi); a shorter one falls
    back to a direct inner product.
    """
    rows = np.asarray(rows, dtype=complex)
    n = rows.shape[-1]
    if grid_size >= n:
        return np.fft.fft(rows * (-1.0) ** np.arange(n), n=grid_size, axis=-1)
    return rows @ np.exp(-1j * np.outer(np.arange(n), grid_points(grid_size)))


def _checked_bins(bins) -> list[int]:
    """The requested bins as ints, at least one, each in 0..SIZE-1."""
    bins = [int(k) for k in np.atleast_1d(bins)]
    if not bins:
        raise ValueError("at least one bin is required")
    if any(not 0 <= k < SIZE for k in bins):
        raise ValueError(f"bins must lie in 0..{SIZE - 1}")
    return bins


@dataclass(frozen=True)
class RowErrorStats:
    """Per-frequency error spread across rows plus per-row summary scalars.

    The curves hold, per grid frequency, the envelope and quartiles across
    rows of 20*log10(|H_variant - H_exact| / per-row exact peak), floored at
    -60 dB.  The scalars summarize per-row squared error magnitudes
    (10*log10 of each row's error energy, exact rows being unit-energy):
    min_db over rows with nonzero error, linear-mean and max over all rows.
    """

    frequencies: np.ndarray
    lower_envelope: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    upper_envelope: np.ndarray
    min_db: float
    mean_db: float
    max_db: float
    row_error_energy: np.ndarray


def _energy_db(value: float) -> float:
    if value <= _ZERO_ENERGY:
        return DB_FLOOR
    return float(max(10 * np.log10(value), DB_FLOOR))


def _error_db_rows(exact: np.ndarray, approx: np.ndarray, grid_size: int,
                   out: np.ndarray) -> None:
    """Floored dB response error of approx rows against exact rows, into out."""
    h_exact = row_response(exact, grid_size)
    peak = np.abs(h_exact).max(axis=1, keepdims=True)
    h_err = row_response(approx, grid_size)
    np.subtract(h_err, h_exact, out=h_err)
    del h_exact
    err = np.abs(h_err)
    del h_err
    err /= peak
    with np.errstate(divide="ignore"):
        np.log10(err, out=err)
    err *= 20
    np.maximum(err, DB_FLOOR, out=out)


def filterbank_error(spec: TransformSpec, grid_size: int = GRID_SIZE) -> RowErrorStats:
    """Frequency-response error of every row of a variant against the exact DFT."""
    frequencies = grid_points(grid_size)
    exact = transform_matrix(TransformSpec(Variant.EXACT))
    approx = transform_matrix(spec)

    # Only the rows x grid dB matrix is kept whole; responses are formed
    # _ROW_CHUNK rows at a time.
    err_db = np.empty((SIZE, grid_size))
    energy = np.empty(SIZE)
    for start in range(0, SIZE, _ROW_CHUNK):
        chunk = slice(start, start + _ROW_CHUNK)
        _error_db_rows(exact[chunk], approx[chunk], grid_size, out=err_db[chunk])
        diff = approx[chunk] - exact[chunk]
        energy[chunk] = np.real(np.einsum("ij,ij->i", diff, diff.conj()))

    lower, upper = err_db.min(axis=0), err_db.max(axis=0)
    q1, q2, q3 = np.percentile(err_db, [25, 50, 75], axis=0, overwrite_input=True)
    nonzero = energy[energy > _ZERO_ENERGY]
    return RowErrorStats(
        frequencies=frequencies,
        lower_envelope=lower,
        q1=q1,
        q2=q2,
        q3=q3,
        upper_envelope=upper,
        min_db=_energy_db(nonzero.min()) if nonzero.size else DB_FLOOR,
        mean_db=_energy_db(energy.mean()),
        max_db=_energy_db(energy.max()),
        row_error_energy=energy,
    )


@dataclass(frozen=True)
class SideLobeReport:
    """Worst side lobe per row (dB below that row's main-lobe peak)."""

    per_row_db: np.ndarray
    worst_db: float
    worst_row: int


def _side_lobe_rows(mag: np.ndarray) -> np.ndarray:
    """Per-row worst side lobe of magnitude responses (rows x grid).

    The main lobe is the contiguous region around the global peak bounded by
    the first strict local minima on each side; plateaus are walked through
    (broken toward the peak).  Responses are treated as 2*pi-periodic.
    """
    nrows, m = mag.shape
    centre = m // 2
    shift = (np.argmax(mag, axis=1) - centre) % m
    cols = (np.arange(m)[None, :] + shift[:, None]) % m
    rolled = np.take_along_axis(mag, cols, axis=1)

    diffs = np.diff(rolled, axis=1)
    rising_right = diffs[:, centre:] > 0
    any_right = rising_right.any(axis=1)
    right = centre + np.argmax(rising_right, axis=1)
    right[~any_right] = m - 1

    falling_left = diffs[:, :centre] < 0
    rev = falling_left[:, ::-1]
    any_left = rev.any(axis=1)
    left = centre - np.argmax(rev, axis=1)
    left[~any_left] = 0

    idx = np.arange(m)[None, :]
    outside = (idx < left[:, None]) | (idx > right[:, None])
    side = np.where(outside, rolled, -np.inf).max(axis=1)
    peak = rolled[:, centre]
    return 20 * np.log10(side / peak)


def worst_side_lobe(spec: TransformSpec, grid_size: int = GRID_SIZE) -> SideLobeReport:
    """Side-lobe levels of all rows of a variant; worst = largest (max dB)."""
    rows = transform_matrix(spec)
    per_row = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _ROW_CHUNK):
        block = rows[start:start + _ROW_CHUNK]
        per_row[start:start + block.shape[0]] = _side_lobe_rows(
            np.abs(row_response(block, grid_size)))
    worst = int(np.argmax(per_row))
    return SideLobeReport(
        per_row_db=per_row,
        worst_db=float(per_row[worst]),
        worst_row=worst,
    )


@dataclass(frozen=True)
class SnrReport:
    """Per-bin SNR of the exact and approximate paths plus the degradation."""

    bins: np.ndarray
    snr_exact_db: np.ndarray
    snr_variant_db: np.ndarray
    degradation_db: np.ndarray
    worst_degradation_db: float
    mean_degradation_db: float
    replicates: int
    noise_var: float
    seed: int


def _noise_stream(seed: int, replicate: int, n: int, sigma2: float) -> np.ndarray:
    """Complex AWGN for one replicate from its own (seed, index) substream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(replicate,))
    raw = np.random.Generator(np.random.PCG64(ss)).standard_normal(2 * n)
    return np.sqrt(sigma2 / 2.0) * raw.view(complex)


def snr_monte_carlo(spec: TransformSpec, bins, replicates: int = REPLICATES,
                    noise_var: float = 1.0, seed: int = 0) -> SnrReport:
    """Monte-Carlo per-bin SNR for a variant, paired with the exact path.

    For each requested bin k the probe is exp(j*2*pi*n*k/1024) plus i.i.d.
    complex AWGN of variance noise_var per element.  Per bin, SNR is the
    squared magnitude of the ensemble mean of the transformed bin output
    over its ensemble variance.  The same noise replicates drive the exact
    and approximate paths, so degradations are paired; results are
    bit-for-bit reproducible for a fixed seed and replicate count.
    """
    bins = np.array(sorted(set(_checked_bins(bins))), dtype=int)
    if replicates < 2:
        raise ValueError("variance estimation needs at least two replicates")
    if not (np.isfinite(noise_var) and noise_var > 0):
        raise ValueError("noise variance must be positive and finite")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    # Variant rows, then exact rows: each noise chunk feeds both in one matmul.
    rows = np.concatenate([transform_matrix(spec)[bins],
                           transform_matrix(TransformSpec(Variant.EXACT))[bins]])
    n = np.arange(SIZE)
    probes = np.exp(2j * np.pi * np.outer(bins, n) / SIZE)
    det = np.einsum("bn,bn->b", rows, np.concatenate([probes, probes]))

    sums = np.zeros(rows.shape[0], complex)
    sq = np.zeros(rows.shape[0])
    done = 0
    while done < replicates:
        count = min(_REPLICATE_CHUNK, replicates - done)
        noise = np.empty((count, SIZE), dtype=complex)
        for i in range(count):
            noise[i] = _noise_stream(seed, done + i, SIZE, noise_var)
        outputs = noise @ rows.T + det
        sums += outputs.sum(axis=0)
        sq += (outputs.real ** 2 + outputs.imag ** 2).sum(axis=0)
        done += count

    mean = sums / replicates
    var = (sq - replicates * np.abs(mean) ** 2) / (replicates - 1)
    snr = 10 * np.log10(np.abs(mean) ** 2 / var)
    snr_var, snr_ex = snr[:bins.size], snr[bins.size:]
    deg = snr_ex - snr_var
    return SnrReport(
        bins=bins,
        snr_exact_db=snr_ex,
        snr_variant_db=snr_var,
        degradation_db=deg,
        worst_degradation_db=float(deg.max()),
        mean_degradation_db=float(deg.mean()),
        replicates=replicates,
        noise_var=noise_var,
        seed=seed,
    )


@dataclass(frozen=True)
class BeamPattern:
    """Complex gain of one transform row steered across a half-wavelength ULA.

    Gains are normalized so the exact-DFT beam for the same bin peaks at 1;
    for the exact DFT, beam k points at sin(theta) = 2k/1024 wrapped into
    [-1, 1).
    """

    bin_index: int
    angles: np.ndarray
    gain: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.gain)


def default_angles(count: int = ANGLES) -> np.ndarray:
    if count < 1:
        raise ValueError(f"angle count must be >= 1, got {count}")
    return np.linspace(-np.pi / 2, np.pi / 2, count)


def _beam_factors(variant: Variant, bins: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The 32-tap factors of each bin's row, (bins, 32) each: fine over i, coarse over c.

    Row d*32+k, laid out over (c, i) with n = 32c + i, is the outer product
    of Kr[k] over c and Kc[d] * tw[k] over i (the Kronecker form of
    transform_matrix).
    """
    d, k = np.divmod(bins, N)
    kr, kc = _kernel_matrices(variant)
    return kc[d] * twiddle_matrix().entries[k], kr[k]


def beam_pattern(spec: TransformSpec, bins,
                 angles: np.ndarray | None = None) -> list[BeamPattern]:
    """Beam patterns of the requested bins, one per bin in the order given.

    Bin k's pattern is row_k of the variant against e^{j*pi*n*sin(theta)}.
    With n = 32c + i that sum factors into a 32-tap sum over i and one over
    c, so the dense matrix is never built.
    """
    bins = _checked_bins(bins)
    angles = default_angles() if angles is None else np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("at least one steering angle is required")
    # Variant rows, then exact rows: each steering chunk serves both.
    fine_var, coarse_var = _beam_factors(spec.variant, bins)
    fine_ex, coarse_ex = _beam_factors(Variant.EXACT, bins)
    fine = np.concatenate([fine_var, fine_ex])
    coarse = np.concatenate([coarse_var, coarse_ex])
    # _ANGLE_CHUNK angles at a time keeps memory flat in the angle count.
    sines = np.sin(angles).ravel()
    taps = 1j * np.pi * np.arange(N)
    gains = np.empty((len(bins), sines.size), dtype=complex)
    norms = np.zeros(len(bins))
    for start in range(0, sines.size, _ANGLE_CHUNK):
        chunk = sines[start:start + _ANGLE_CHUNK]
        gain = ((fine @ np.exp(np.outer(taps, chunk)))
                * (coarse @ np.exp(np.outer(N * taps, chunk))))
        gains[:, start:start + chunk.size] = gain[:len(bins)]
        np.maximum(norms, np.abs(gain[len(bins):]).max(axis=1), out=norms)
    return [BeamPattern(bin_index=k, angles=angles, gain=gain / norm)
            for k, gain, norm in zip(bins, gains, norms)]
