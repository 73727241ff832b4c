"""Reference DFT/FFT paths and the multiplierless 32-point kernel.

The exact transforms use the unitary convention (1/sqrt(N) on both the
forward and inverse paths).  The 32-point kernel is the eight-stage sparse
product from :mod:`adft1024.factors`; the raw product has Gaussian-integer
entries and coincides with the unnormalized exact kernel rounded entrywise
to the nearest Gaussian integer, so the unitary-comparable version is the
raw product scaled by 1/sqrt(32).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .factors import all_factors

# Normalization applied after the adds-only factor chain.  The raw product
# approximates the unnormalized exact kernel one-for-one (unit-magnitude
# entries rounded to Gaussian integers), so the unitary-matched scale is
# 1/sqrt(32); this is the scale under which the reported error statistics
# reproduce.
OUTPUT_SCALE = 1.0 / math.sqrt(32.0)

# Columns per kernel pass, in adft32_apply and in the 1024-point pipeline's
# in-place passes (radix32._kernel): 1 MiB per re/im lane set.  Wider passes
# spread the chains' fixed per-call cost further, but the pass buffers grow
# with the width; 4096 is the widest that keeps the kernel's peak memory
# below 1.5x its output.
_COLUMN_CHUNK = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=16)
def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix: entry (k, m) = omega_n^{km} / sqrt(n).

    The n distinct roots are computed once and indexed by k*m mod n; each
    entry has the bits of exp(-2j*pi*(k*m % n)/n) / sqrt(n) taken directly.
    """
    if n < 1:
        raise ValueError("transform size must be >= 1")
    k = np.arange(n)
    roots = np.exp(-2j * np.pi * k / n) / math.sqrt(n)
    return _readonly(roots[np.multiply.outer(k, k) % n])


def dft_direct(x: np.ndarray) -> np.ndarray:
    """Direct O(N^2) unitary DFT; the oracle for every other transform path.

    Accepts a vector (N,) or a batch (N, B) of column vectors.
    """
    x = np.asarray(x, dtype=complex)
    return dft_matrix(x.shape[0]) @ x


def idft_direct(X: np.ndarray) -> np.ndarray:
    """Direct unitary inverse DFT; round-trips dft_direct to 1e-10."""
    X = np.asarray(X, dtype=complex)
    return dft_matrix(X.shape[0]).conj() @ X


@lru_cache(maxsize=16)
def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    rev = np.zeros(n, dtype=np.intp)
    for i in range(n):
        rev[i] = int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
    return _readonly(rev)


def fft_radix2(x: np.ndarray) -> np.ndarray:
    """Iterative radix-2 decimation-in-time FFT, unitary scaling.

    Matches dft_direct to 1e-10 relative; input length must be a power of
    two.
    """
    x = np.asarray(x, dtype=complex)
    n = x.shape[0]
    if n < 1 or n & (n - 1):
        raise ValueError("radix-2 FFT requires a power-of-two length")
    y = x[_bit_reverse_indices(n)].copy()
    m = 2
    while m <= n:
        half = m // 2
        tw = np.exp(-2j * np.pi * np.arange(half) / m)
        blocks = y.reshape(n // m, m)
        even = blocks[:, :half].copy()
        odd = blocks[:, half:] * tw
        blocks[:, :half] = even + odd
        blocks[:, half:] = even - odd
        m *= 2
    return y / math.sqrt(n)


def factor_product(factors) -> np.ndarray:
    """Unscaled dense product of factors in application order: F[-1] @ ... @ F[0]."""
    out = np.eye(32, dtype=complex)
    for f in factors:
        out = f.to_dense() @ out
    return out


@lru_cache(maxsize=1)
def adft32_matrix() -> np.ndarray:
    """Dense 32-point kernel OUTPUT_SCALE * (W7 @ ... @ W0); cached and read-only.

    The raw Gaussian-integer product is factor_product(all_factors()).
    """
    return _readonly(OUTPUT_SCALE * factor_product(all_factors()))


def adft32_apply(x: np.ndarray) -> np.ndarray:
    """Apply the 32-point kernel, OUTPUT_SCALE included, to x ((32,) or (32, B)).

    Runs the counted adds-only row chains (SparseFactor.apply_scalars) on
    contiguous re/im row lanes, _COLUMN_CHUNK columns per pass.  The output
    scale is one scalar multiply of each pass's output slice while it is
    still in cache.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[0] != 32:
        raise ValueError("kernel input must have leading dimension 32")
    y = np.empty(x.shape, dtype=complex)
    cols_in = x.reshape(32, x.size // 32)
    cols_out = y.reshape(cols_in.shape)
    for start in range(0, cols_in.shape[1], _COLUMN_CHUNK):
        cols = slice(start, start + _COLUMN_CHUNK)
        re = list(np.ascontiguousarray(cols_in[:, cols].real))
        im = list(np.ascontiguousarray(cols_in[:, cols].imag))
        for f in all_factors():
            re, im = f.apply_scalars(re, im)
        cols_out.real[:, cols] = re
        cols_out.imag[:, cols] = im
        cols_out[:, cols] *= OUTPUT_SCALE
    return y


def best_fit_scale(approx: np.ndarray, exact: np.ndarray) -> float:
    """Real s minimizing ||s*approx - exact||_F (closed-form least squares)."""
    approx = np.asarray(approx, dtype=complex)
    exact = np.asarray(exact, dtype=complex)
    if approx.shape != exact.shape:
        raise ValueError("matrices must have the same shape")
    denom = float(np.real(np.vdot(approx, approx)))
    if denom == 0.0:
        raise ValueError("cannot fit a scale to the zero matrix")
    return float(np.real(np.vdot(approx, exact)) / denom)
