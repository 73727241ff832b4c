"""1024-point transforms composed from 32-point kernels.

A length-1024 vector is reshaped column-major into a 32x32 array, its rows
are transformed by one 32-point kernel, the result is weighted elementwise
by exact 1024th roots of unity, the columns are transformed by a second
32-point kernel, and the array is flattened back.  Choosing the exact DFT
for both kernels reproduces the exact 1024-point DFT; the three approximate
variants swap the multiplierless kernel into one or both positions.

The pipeline holds one full-size buffer, its output (the four-step layout
of Bailey's "FFTs in external or hierarchical memory", 1990).  The row
kernel writes each row's bins straight into it in [i, k, b] order, the
twiddle weights it in place, and the column kernel transforms it in place
to [d, k, b], which is bin order d*32 + k: no transposed copy is made.
Each kernel runs in passes of at most _COLUMN_CHUNK columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .transforms import _COLUMN_CHUNK, _readonly, adft32_apply, adft32_matrix, dft_matrix

N = 32
SIZE = N * N


class Variant(enum.Enum):
    """Which 32-point kernel goes into the row/column positions."""

    EXACT = "exact"   # exact rows, exact columns
    ALG1 = "alg1"     # approximate rows, approximate columns
    ALG2 = "alg2"     # approximate rows, exact columns
    ALG3 = "alg3"     # exact rows, approximate columns

    @property
    def row_kernel_exact(self) -> bool:
        return self in (Variant.EXACT, Variant.ALG3)

    @property
    def col_kernel_exact(self) -> bool:
        return self in (Variant.EXACT, Variant.ALG2)


VARIANTS = (Variant.EXACT, Variant.ALG1, Variant.ALG2, Variant.ALG3)
APPROX_VARIANTS = (Variant.ALG1, Variant.ALG2, Variant.ALG3)


# Kept for callers that still write TransformSpec(v): Variant(v) is v itself.
TransformSpec = Variant


@dataclass(frozen=True)
class TwiddleMatrix:
    """32x32 grid of exact 1024th roots of unity, entry (m, n) = w^(m*n).

    trivial_mask marks the entries equal to one (m or n zero): 63 cells,
    leaving 961 nontrivial complex weights.
    """

    entries: np.ndarray
    trivial_mask: np.ndarray

    @property
    def nontrivial_count(self) -> int:
        return int((~self.trivial_mask).sum())


@lru_cache(maxsize=1)
def twiddle_matrix() -> TwiddleMatrix:
    m, n = np.meshgrid(np.arange(N), np.arange(N), indexing="ij")
    prod = m * n
    entries = np.exp(-2j * np.pi * (prod % SIZE) / SIZE)
    return TwiddleMatrix(entries=_readonly(entries),
                         trivial_mask=_readonly(prod % SIZE == 0))


def invvec(x: np.ndarray) -> np.ndarray:
    """Column-major reshape of a length-N^2 vector to N x N: (i, c) = x[c*N+i].

    Accepts an extra trailing batch axis.
    """
    x = np.asarray(x)
    n = int(round(np.sqrt(x.shape[0])))
    if n * n != x.shape[0]:
        raise ValueError("input length must be a perfect square")
    return x.reshape((n, n) + x.shape[1:], order="F")


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-major flatten; exact inverse of invvec."""
    mat = np.asarray(mat)
    r, c = mat.shape[:2]
    return mat.reshape((r * c,) + mat.shape[2:], order="F")


def _passes(m: int, nbatch: int) -> list[tuple[slice, slice]]:
    """(m, b) slices of the passes over the columns of a (32, m, nbatch) view.

    A pass holds at most _COLUMN_CHUNK columns: whole m-slices while a batch
    fits, else one m-slice and a run of the batch axis.
    """
    step = max(_COLUMN_CHUNK // max(nbatch, 1), 1)
    return [(slice(j, j + step), slice(b, b + _COLUMN_CHUNK))
            for j in range(0, m, step) for b in range(0, nbatch, _COLUMN_CHUNK)]


def _kernel(exact: bool, src: np.ndarray, dst: np.ndarray) -> None:
    """Apply the configured 32-point kernel along axis 0 of (32, M, B) views.

    One pass at a time: a pass's columns are read from src as one 2-D
    (32, columns) block, transformed into a pass-sized temporary and written
    to dst, so dst may be src itself or a strided view such as a transpose.
    """
    for m, b in _passes(*src.shape[1:]):
        block = src[:, m, b]
        cols = block.reshape(N, block.size // N)
        dst[:, m, b] = (dft_matrix(N) @ cols if exact
                        else adft32_apply(cols)).reshape(block.shape)


def transform_1024(x: np.ndarray, variant: Variant) -> np.ndarray:
    """Evaluate the selected 1024-point transform on x ((1024,) or (1024, B)).

    The exact variant equals dft_direct to 1e-9 relative.  The output is the
    only full-size buffer (see the module docstring).
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim not in (1, 2) or x.shape[0] != SIZE:
        raise ValueError(f"input must have shape ({SIZE},) or ({SIZE}, B), not {x.shape}")
    batched = x.ndim == 2
    xb = x if batched else x[:, None]
    nbatch = xb.shape[1]

    y = np.empty((N, N, nbatch), dtype=complex)
    # Rows: [c, i, b] = x[c*N+i, b] in, row i's bin k out to y[i, k, b].
    _kernel(variant.row_kernel_exact, xb.reshape(N, N, nbatch), y.transpose(1, 0, 2))

    # Twiddle in place: y[i, k, b] *= tw[k, i], which is tw[i, k] (the grid is
    # symmetric).  numpy's complex product is not symmetric in its operands,
    # so keep tw * y: y * tw differs in the last bit.
    np.multiply(twiddle_matrix().entries[:, :, None], y, out=y)

    # Columns in place: y[i, k, b] -> y[d, k, b], so bin d*N + k is y[d, k].
    _kernel(variant.col_kernel_exact, y, y)

    out = y.reshape(SIZE, nbatch)
    return out if batched else out[:, 0]


@lru_cache(maxsize=len(VARIANTS))
def transform_matrix(variant: Variant) -> np.ndarray:
    """Dense 1024x1024 matrix of the selected transform: column c is
    transform_1024 of the c-th unit impulse, bit for bit.  Cached and
    read-only.  Its users are the dense export, perfbench's dense check and
    the tests; the analyses take rows from _row_factors and _rows instead.

    The impulses go through the pipeline _COLUMN_CHUNK // 32 at a time, one
    kernel pass per slab.
    """
    out = np.empty((SIZE, SIZE), dtype=complex)
    step = _COLUMN_CHUNK // N
    for c in range(0, SIZE, step):
        out[:, c:c + step] = transform_1024(np.eye(SIZE, step, -c, dtype=complex), variant)
    return _readonly(out)


def _row_factors(variant: Variant, bins) -> tuple[np.ndarray, np.ndarray]:
    """The 32-tap factors of each bin's row, (32, bins) each: fine over i, coarse over c.

    The pipeline is the Kronecker factorization (Kc x I) T (I x Kr) P, where
    Kr and Kc are the 32-point kernels in the row and column positions
    (dft_matrix(32) or adft32_matrix()) and T holds the twiddles.  A unit
    impulse meets one nonzero per kernel, so entry (d*32+k, 32c+i) is the
    single product Kc[d,i] tw[k,i] Kr[k,c]: row d*32+k is the outer product
    of Kr[k] over c and Kc[d] * tw[k] over i.
    """
    d, k = np.divmod(np.asarray(bins), N)
    kr, kc = (dft_matrix(N) if exact else adft32_matrix()
              for exact in (variant.row_kernel_exact, variant.col_kernel_exact))
    return np.ascontiguousarray((kc[d] * twiddle_matrix().entries[k]).T), kr[k].T


def _rows(variant: Variant, bins) -> np.ndarray:
    """Dense rows (bins, 1024) built from their factors: entry 32c+i = coarse[c] fine[i]."""
    fine, coarse = _row_factors(variant, bins)
    return (coarse.T[:, :, None] * fine.T[:, None, :]).reshape(-1, SIZE)
