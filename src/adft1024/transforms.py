"""The exact DFT and the multiplierless 32-point kernel.

The one exact transform is the direct matmul dft_direct, in the unitary
convention (scaled by 1/sqrt(N)).
The 32-point kernel is the eight-stage sparse product from
:mod:`adft1024.factors`; the raw product has Gaussian-integer entries and
coincides with the unnormalized exact kernel rounded entrywise to the
nearest Gaussian integer, so the unitary-comparable version is the raw
product scaled by 1/sqrt(32).
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
# in-place passes (radix32._kernel): 2 MiB per complex lane set.  Wider passes
# spread the chains' fixed per-call cost further, but the pass buffers grow
# with the width; 4096 is the widest that keeps the kernel's peak memory
# below 1.5x its output.
_COLUMN_CHUNK = 4096


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@lru_cache(maxsize=16)
def _roots(n: int) -> np.ndarray:
    """The n roots of unity omega_n^k = exp(-2j*pi*k/n), k = 0..n-1; read-only.

    The one root table of the exact references: dft_matrix, the twiddle grid
    and the SNR probes index it.
    """
    return _readonly(np.exp(-2j * np.pi * np.arange(n) / n))


@lru_cache(maxsize=16)
def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT matrix: entry (k, m) = omega_n^{km} / sqrt(n).

    Entry (k, m) is _roots(n)[k*m mod n] / sqrt(n).
    """
    if n < 1:
        raise ValueError("transform size must be >= 1")
    k = np.arange(n)
    return _readonly((_roots(n) / math.sqrt(n))[np.multiply.outer(k, k) % n])


def dft_direct(x: np.ndarray) -> np.ndarray:
    """Direct O(N^2) unitary DFT; the oracle for every other transform path.

    Accepts a vector (N,) or a batch (N, B) of column vectors.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2):
        raise ValueError(f"input must have shape (N,) or (N, B), not {x.shape}")
    return dft_matrix(x.shape[0]) @ x


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

    Runs the counted adds-only row chains (SparseFactor.apply_scalars),
    _COLUMN_CHUNK columns per pass.  The leading stages whose coefficients
    are all +-1 act alike on both parts, so they run on complex row lanes,
    one numpy add per complex add, beside an im lane of float zeros whose
    results are dropped.  From the first stage with a +-j coefficient on,
    the lanes split into re/im views of those rows.  numpy's complex add,
    subtract and negate do the two lane operations part by part, so the
    output has the bits of the split chain, NaN payloads aside.  The output
    scale is one scalar multiply of each pass's output slice while it is
    still in cache.
    """
    x = np.asarray(x, dtype=complex)
    if x.shape[:1] != (32,):
        raise ValueError(f"kernel input must have shape (32,) or (32, B), not {x.shape}")
    factors = all_factors()
    split = next((i for i, f in enumerate(factors) if not f.is_real), len(factors))
    zeros = [0.0] * 32
    y = np.empty(x.shape, dtype=complex)
    cols_in = x.reshape(32, x.size // 32)
    cols_out = y.reshape(cols_in.shape)
    for start in range(0, cols_in.shape[1], _COLUMN_CHUNK):
        cols = slice(start, start + _COLUMN_CHUNK)
        z = list(np.ascontiguousarray(cols_in[:, cols]))
        for f in factors[:split]:
            z, _ = f.apply_scalars(z, zeros)
        re, im = [v.real for v in z], [v.imag for v in z]
        for f in factors[split:]:
            re, im = f.apply_scalars(re, im)
        cols_out.real[:, cols] = re
        cols_out.imag[:, cols] = im
        cols_out[:, cols] *= OUTPUT_SCALE
    return y

