"""Filter-bank error, side-lobe, SNR and beam-pattern analysis.

Each row of a 1024-point transform matrix is treated as an FIR filter; its
frequency response on a uniform grid over [-pi, pi) drives the error
envelopes and side-lobe extraction.  SNR degradation is estimated by Monte
Carlo with a complex-exponential probe per bin in additive white Gaussian
noise, and beam patterns come from steering a half-wavelength uniform
linear array across the same rows.  Each row of the radix-32 pipeline is
the outer product of a column-kernel row and a row-kernel row, so its
response at any frequency is the product of two 32-tap sums.  The filter
bank, the beams and the side lobes are computed that way, a block of
frequencies (or of 32 rows) at a time, so none builds a rows x grid array.
Dense rows come from the factors too (radix32._rows); transform_matrix
serves only the dense export, perfbench's dense check and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radix32 import N, SIZE, Variant, _row_factors, _rows
from .radix32 import transform_matrix  # noqa: F401 - unused; perfbench wraps it by name
from .transforms import _roots

DB_FLOOR = -60.0
# Defaults of the analyses, shared with the CLI.
GRID_SIZE = 8192
REPLICATES = 10_000
ANGLES = 4096
_ZERO_ENERGY = 1e-20
_FREQ_BLOCK = 512   # frequencies (or steering angles) per factored-response block
_ROW_BLOCKS = np.arange(SIZE).reshape(N, N)   # bins d*32 .. d*32+31, one d per block
_WORST_ROW_TOL_DB = 1e-9   # side lobes this close to the worst tie with it
_REPLICATE_CHUNK = 512


def grid_points(m: int) -> np.ndarray:
    """m angular frequencies covering [-pi, pi), endpoint excluded."""
    if m < 2:
        raise ValueError("a frequency grid needs at least two points")
    return -np.pi + 2 * np.pi * np.arange(m) / m


def _check_row_grid(m: int) -> None:
    """Refuse a grid on which each exact row's grid peak would be rounding noise.

    A grid shorter than 1024 whose size divides 1024 lies on exact nulls of
    every exact row whose peak it misses; the analyses that divide by a
    row's grid peak cannot use it.
    """
    if 2 <= m < SIZE and SIZE % m == 0:
        raise ValueError(f"grid size {m} divides {SIZE}: it samples most exact rows"
                         " only at their nulls")


def _checked_bins(bins) -> list[int]:
    """The requested bins as ints, at least one, each an integer in 0..SIZE-1."""
    # Check the elements as passed: an array would cast True to 1.
    bins = list(bins) if np.iterable(bins) else [np.asarray(bins)[()]]
    if any(isinstance(k, bool) or not isinstance(k, (int, np.integer)) for k in bins):
        raise ValueError("bins must be integers")
    bins = [int(k) for k in bins]
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


def _taps(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (w, 32) tap tables e^{-jwi} and e^{-j32wc} of _factored_response."""
    taps = -1j * np.arange(N)
    return np.exp(np.outer(w, taps)), np.exp(np.outer(N * w, taps))


def _factored_response(fine: np.ndarray, coarse: np.ndarray, taps) -> np.ndarray:
    """H(w) = sum_n row[n] e^{-jwn} of rows given by their factors, (w, rows).

    H_r(w) = (fine[:, r] . e^{-jwi}) (coarse[:, r % K] . e^{-j32wc}) with K
    coarse columns, so rows sharing a coarse factor share its 32-tap sums.
    """
    fine_taps, coarse_taps = taps
    h = fine_taps @ fine
    by_coarse = h.reshape(h.shape[0], -1, coarse.shape[1])
    by_coarse *= (coarse_taps @ coarse)[:, None, :]
    return h


def filterbank_error(variant: Variant, grid_size: int = GRID_SIZE) -> RowErrorStats:
    """Frequency-response error of every row of a variant against the exact DFT.

    Responses come from each row's two 32-tap factors, _FREQ_BLOCK
    frequencies at a time.  A first pass takes each exact row's peak over
    the grid; a second forms the floored dB error of each (frequencies x
    rows) block and reduces it across rows, so no rows x grid array is
    built.  Row error energies come from dense rows rebuilt 32 at a time.
    """
    _check_row_grid(grid_size)
    frequencies = grid_points(grid_size)
    blocks = [slice(start, start + _FREQ_BLOCK) for start in range(0, grid_size, _FREQ_BLOCK)]
    exact, approx = (_row_factors(v, range(SIZE)) for v in (Variant.EXACT, variant))
    # Bins 0..31 hold coarse factors k = 0..31 and bin d*32+k uses factor k,
    # so only those 32 columns are kept: each k's sums are formed once.
    exact, approx = ((fine, coarse[:, :N]) for fine, coarse in (exact, approx))

    peak = np.zeros(SIZE)
    for block in blocks:
        taps = _taps(frequencies[block])
        np.maximum(peak, np.abs(_factored_response(*exact, taps)).max(axis=0), out=peak)
    lower, q1, q2, q3, upper = curves = np.empty((5, grid_size))
    for block in blocks:
        taps = _taps(frequencies[block])
        h_err = _factored_response(*approx, taps)
        h_err -= _factored_response(*exact, taps)
        err = np.abs(h_err)
        del h_err
        err /= peak
        with np.errstate(divide="ignore"):
            np.log10(err, out=err)
        err *= 20
        np.maximum(err, DB_FLOOR, out=err)
        lower[block], upper[block] = err.min(axis=1), err.max(axis=1)
        err.sort(axis=1)
        curves[1:4, block] = np.percentile(err, [25, 50, 75], axis=1, overwrite_input=True)

    energy = np.empty(SIZE)
    for block in _ROW_BLOCKS:
        diff = _rows(variant, block) - _rows(Variant.EXACT, block)
        energy[block] = np.real(np.einsum("ij,ij->i", diff, diff.conj()))
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


def worst_side_lobe(variant: Variant, grid_size: int = GRID_SIZE) -> SideLobeReport:
    """Side-lobe levels of all rows of a variant; worst = largest (max dB).

    worst_row is the lowest-index row within _WORST_ROW_TOL_DB of it.
    """
    _check_row_grid(grid_size)
    fine_taps, coarse_taps = _taps(grid_points(grid_size))
    fine, coarse = _row_factors(variant, range(SIZE))
    # Bin d*32+k has coarse factor Kr[k] for every d: one set of coarse sums
    # serves all blocks.
    coarse_sums = coarse_taps @ coarse[:, :N]
    mags = (np.abs((fine_taps @ fine[:, block] * coarse_sums).T, order="C")
            for block in _ROW_BLOCKS)
    per_row = np.concatenate([_side_lobe_rows(mag) for mag in mags])
    worst_db = per_row.max()
    return SideLobeReport(
        per_row_db=per_row,
        worst_db=float(worst_db),
        worst_row=int(np.argmax(per_row >= worst_db - _WORST_ROW_TOL_DB)),
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


@np.errstate(all="ignore")   # a non-finite estimate is refused below instead
def snr_monte_carlo(variant: Variant, bins, replicates: int = REPLICATES,
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
    rows = np.concatenate([_rows(variant, bins), _rows(Variant.EXACT, bins)])
    # From the root table: exp(j*2*pi*k*n/SIZE) with k*n reduced mod SIZE exactly.
    probes = _roots(SIZE)[np.outer(bins, np.arange(SIZE)) % SIZE].conj()
    det = np.einsum("bn,bn->b", rows, np.concatenate([probes, probes]))

    sums = np.zeros(rows.shape[0], complex)
    sq = np.zeros(rows.shape[0])
    done = 0
    while done < replicates:
        count = min(_REPLICATE_CHUNK, replicates - done)
        # Each replicate's AWGN comes from its own (seed, index) substream,
        # drawn straight into its row; the chunk is scaled once.
        noise = np.empty((count, SIZE), dtype=complex)
        parts = noise.view(float)
        for i in range(count):
            ss = np.random.SeedSequence(entropy=seed, spawn_key=(done + i,))
            np.random.Generator(np.random.PCG64(ss)).standard_normal(out=parts[i])
        parts *= np.sqrt(noise_var / 2.0)
        outputs = noise @ rows.T
        sums += outputs.sum(axis=0)
        sq += (outputs.real ** 2 + outputs.imag ** 2).sum(axis=0)
        done += count

    # det stays out of the sums, where it would cancel the variance at high SNR.
    noise_mean = sums / replicates
    var = (sq - replicates * np.abs(noise_mean) ** 2) / (replicates - 1)
    snr = 10 * np.log10(np.abs(det + noise_mean) ** 2 / var)
    if not np.isfinite(snr).all():
        raise ValueError(f"noise variance {noise_var} puts the SNR estimate "
                         "outside the float range")
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

    Gains are divided by the exact row's main-lobe peak, so the exact-DFT
    beam for the same bin peaks at 1 in its main-lobe direction, whatever
    angles are requested; beam k points at sin(theta) = 2k/1024 wrapped
    into [-1, 1).
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


def beam_pattern(variant: Variant, bins,
                 angles: np.ndarray | None = None) -> list[BeamPattern]:
    """Beam patterns of the requested bins, one per bin in the order given.

    Bin k's pattern is row_k of the variant against e^{j*pi*n*sin(theta)},
    its response at w = -pi*sin(theta), taken from the row's two 32-tap
    factors, so the dense matrix is never built.  Gains are divided by the
    exact row's main-lobe peak, sum |row|: the product of its factors' l1
    norms.
    """
    bins = _checked_bins(bins)
    angles = default_angles() if angles is None else np.asarray(angles, dtype=float)
    if angles.size == 0:
        raise ValueError("at least one steering angle is required")
    fine, coarse = _row_factors(variant, bins)
    fine_ex, coarse_ex = _row_factors(Variant.EXACT, bins)
    peaks = np.abs(fine_ex).sum(axis=0) * np.abs(coarse_ex).sum(axis=0)
    # _FREQ_BLOCK angles at a time keeps memory flat in the angle count.
    w = -np.pi * np.sin(angles).ravel()
    gains = np.empty((len(bins), w.size), dtype=complex)
    for start in range(0, w.size, _FREQ_BLOCK):
        block = slice(start, start + _FREQ_BLOCK)
        gains[:, block] = _factored_response(fine, coarse, _taps(w[block])).T
    gains /= peaks[:, None]
    return [BeamPattern(bin_index=k, angles=angles, gain=gain)
            for k, gain in zip(bins, gains)]
