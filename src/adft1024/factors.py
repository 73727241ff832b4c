"""Sparse building blocks of the multiplierless 32-point transform kernel.

The kernel is a product of eight sparse factors, applied in order
W0, W1, ..., W7.  W0..W6 are real with coefficients in {+1, -1}; W7 is the
only stage that also carries +-j coefficients.  Every row combines at most
three inputs, so applying a factor to a complex vector needs additions,
subtractions and re/im lane swaps only -- never a general multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

COEFFICIENTS = (1 + 0j, -1 + 0j, 1j, -1j)

FACTOR_LABELS = tuple(f"W{k}" for k in range(8))

# Real additions needed by each stage for one complex input vector: a row
# with e nonzero coefficients costs 2*(e-1) (one chain per lane).
STAGE_ADDITIONS = (60, 60, 28, 28, 60, 28, 24, 60)


class MultiplicationError(RuntimeError):
    """Raised when a multiplication sneaks into an adds-only evaluation."""


def _route(coeff, re, im):
    """Apply a unit coefficient to (re, im) with sign flips and lane swaps."""
    if coeff == 1:
        return re, im
    if coeff == -1:
        return -re, -im
    if coeff == 1j:
        return -im, re
    if coeff == -1j:
        return im, -re
    raise ValueError(f"coefficient {coeff!r} is not in {{+1, -1, +j, -j}}")


@dataclass
class SparseFactor:
    """One sparse stage: positioned unit coefficients applied with adds only.

    entries holds (row, col, coeff) triples with coeff in {+1, -1, +j, -j};
    is_real is True when every coefficient is +1 or -1.  Instances are
    treated as immutable after construction.
    """

    label: str
    size: int
    entries: tuple[tuple[int, int, complex], ...]
    is_real: bool = field(init=False, repr=False, compare=False)
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for r, c, v in self.entries:
            if not (0 <= r < self.size and 0 <= c < self.size):
                raise ValueError(f"{self.label}: entry ({r},{c}) out of range")
            if v not in COEFFICIENTS:
                raise ValueError(f"{self.label}: coefficient {v!r} not a unit")
            if (r, c) in seen:
                raise ValueError(f"{self.label}: duplicate entry ({r},{c})")
            seen.add((r, c))
        self.entries = tuple(sorted(self.entries, key=lambda e: (e[0], e[1])))
        rows = [[] for _ in range(self.size)]
        for r, c, v in self.entries:
            rows[r].append((c, v))
        if any(not terms for terms in rows):
            raise ValueError(f"{self.label}: has an all-zero row")
        self._rows = tuple(tuple(t) for t in rows)
        self.is_real = all(v.imag == 0 for _, _, v in self.entries)

    def nonzeros_per_row(self) -> np.ndarray:
        return np.array([len(t) for t in self._rows])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.size, self.size), dtype=complex)
        for r, c, v in self.entries:
            out[r, c] = v
        return out

    def apply_scalars(self, re: list, im: list) -> tuple[list, list]:
        """Apply to separate re/im lanes of scalar-like objects.

        A lane is anything supporting +, - and unary negation: a float, a
        real or complex numpy row array (as adft32_apply passes) or an
        op-counting stand-in.
        Each output row is one add/subtract chain from a routed first term.
        """
        if len(re) != self.size or len(im) != self.size:
            raise ValueError(f"{self.label}: expected {self.size} re/im lanes")
        out_re, out_im = [], []
        for terms in self._rows:
            c0, v0 = terms[0]
            acc_re, acc_im = _route(v0, re[c0], im[c0])
            for c, v in terms[1:]:
                if v == 1:
                    acc_re, acc_im = acc_re + re[c], acc_im + im[c]
                elif v == -1:
                    acc_re, acc_im = acc_re - re[c], acc_im - im[c]
                elif v == 1j:
                    acc_re, acc_im = acc_re - im[c], acc_im + re[c]
                else:
                    acc_re, acc_im = acc_re + im[c], acc_im - re[c]
            out_re.append(acc_re)
            out_im.append(acc_im)
        return out_re, out_im


def _parse_table(label: str, text: str, size: int) -> SparseFactor:
    symbols = {"1": 1 + 0j, "-1": -1 + 0j, "j": 1j, "-j": -1j}
    entries = []
    lines = [ln for ln in text.strip().splitlines()]
    if len(lines) != size:
        raise ValueError(f"{label}: expected {size} rows, got {len(lines)}")
    for r, line in enumerate(lines):
        toks = line.split()
        if len(toks) != size:
            raise ValueError(f"{label}: row {r} has {len(toks)} columns")
        for c, tok in enumerate(toks):
            if tok == ".":
                continue
            entries.append((r, c, symbols[tok]))
    return SparseFactor(label=label, size=size, entries=tuple(entries))


def identity_block(n: int) -> SparseFactor:
    return SparseFactor("I", n, tuple((i, i, 1 + 0j) for i in range(n)))


def build_b(t: int) -> SparseFactor:
    """The t x t add/subtract butterfly used throughout the kernel stages.

    Even t pairs input i with its mirror t-1-i:  [[I, J], [J, -I]] with J the
    counter-identity.  Odd t does the same around an untouched centre row.
    Every output row has two nonzeros (except the odd centre), so B_t squares
    to 2*I apart from that centre.
    """
    if t < 1:
        raise ValueError("block order must be >= 1")
    entries = []
    for i in range(t // 2):
        m = t - 1 - i
        entries += [(i, i, 1 + 0j), (i, m, 1 + 0j), (m, i, 1 + 0j), (m, m, -1 + 0j)]
    if t % 2:
        entries.append((t // 2, t // 2, 1 + 0j))
    return SparseFactor(f"B{t}", t, tuple(entries))


def _block_diag(label: str, blocks: list[SparseFactor]) -> SparseFactor:
    entries = []
    offset = 0
    for b in blocks:
        entries.extend((r + offset, c + offset, v) for r, c, v in b.entries)
        offset += b.size
    return SparseFactor(label, offset, tuple(entries))


# Mixing blocks that have no regular butterfly structure; transcribed as
# literal coefficient tables ('.' marks a zero).

_Z1 = """
1 . . . . . . . . . . . 1 . . .
. 1 . . . . . . . . . . . . . .
. . 1 . . . . . . . . . . . . .
. . . 1 . . . . . . . . . . . .
. . . . 1 . . . 1 . . . . . . .
. . . . . 1 . . . . . . . . . .
. . . . . . 1 . . . . . . . . .
. . . . . . . 1 . . . . . . . .
. . . . 1 . . . -1 . . . . . . .
. . . . . . . . . 1 . . . . . .
. . . . . . . . . . 1 . . . . .
. . . . . . . . . . . 1 . . . .
1 . . . . . . . . . . . -1 . . .
. . . . . . . . . . . . . 1 . .
. . . . . . . . . . . . . . 1 .
. . . . . . . . . . . . . . . 1
"""

_Z2 = """
1 . . . . . . . . . . . . . . . .
. -1 . . . . . . . . . . . . . 1 .
. . 1 . . . . . . . . . . . . . .
. . . 1 . . . . . 1 . . . . . . .
. . . . 1 . 1 . 1 . . . . . . . .
. . . . . 1 . 1 . . . . . . . . .
. . . . 1 . -1 . . . . . . . . . .
. . . . . 1 . -1 . . . . . . . . .
. . . . 1 . . . -1 . . . . . . . .
. . . 1 . . . . . -1 . . . . . . .
. . . . . . . . . . 1 . . . . . .
. . . . . . . . . . . 1 . 1 . . .
. . . . . . . . . . . . 1 . 1 . 1
. . . . . . . . . . . 1 . -1 . . .
. . . . . . . . . . . . 1 . -1 . .
. 1 . . . . . . . . . . . . . 1 .
. . . . . . . . . . . . 1 . . . -1
"""

_Z3 = """
1 . . . 1 . -1 . . . . . . . .
. 1 . . . . . . . . . . . . .
. . 1 1 . . . . . . . . . . .
. . 1 -1 . . . . . . . . . . .
1 . . . -1 . . . . . . . . . .
. . . . . 1 . . . . . . . . .
1 . . . . . 1 . . . . . . . .
. . . . . . . 1 . . . . . . .
. . . . . . . . 1 . . . 1 . -1
. . . . . . . . . 1 . . . . .
. . . . . . . . . . 1 . . 1 .
. . . . . . . . . . . 1 . . .
. . . . . . . . 1 . . . -1 . .
. . . . . . . . . . 1 . . -1 .
. . . . . . . . 1 . . . . . 1
"""

_W6_TAIL = """
1 . . . . . . . . . . . . 1 . .
. 1 . . . . . . 1 . . . . . . .
. . -1 . . . . 1 . . . . . . . .
. . . 1 . . . . . . . . . . . .
. . . . 1 . . . . . . . . . . .
. . . . . 1 1 . . . . . . . . .
. . . . . 1 -1 . . . . . . . . .
. . 1 . . . . 1 . . . . . . . .
. 1 . . . . . . -1 . . . . . . .
. . . . . . . . . 1 1 . . . . .
. . . . . . . . . 1 -1 . . . . .
. . . . . . . . . . . 1 . . . .
. . . . . . . . . . . . 1 . . 1
1 . . . . . . . . . . . . -1 . .
. . . . . . . . . . . . . . 1 .
. . . . . . . . . . . . 1 . . -1
"""

_W7 = """
1 . . . . . . . . . . . . . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . -j . . . . . . . 1 . . . .
. . . . . . 1 . . . -j . . . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . . . . . -j . . . . -1 . . .
. . . 1 . . . . . . . . . j . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . -j . . . . . . . 1 . . . . . .
. . . . . -1 . . . -j . . . . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . -1 . . . . . -j . . . . . . . . .
. . 1 . . . . . . . . . . . . -j . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . . . -j . . . . . . . -1 . .
. . . . . . . . 1 . . . -j . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . . . . . . -j . -1 . . . . .
. . . . -1 . . . . . . . . . j . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . -j . . . . . . . . . . . . -1
. . . . . . . 1 . . . j . . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . . -j . . . . . . . . . -1 .
. 1 . . . . . . . . . . . . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . . j . . . . . . . . . -1 .
. . . . . . . 1 . . . -j . . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . j . . . . . . . . . . . . -1
. . . . -1 . . . . . . . . . -j . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . . . . . . j . -1 . . . . .
. . . . . . . . 1 . . . j . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . . . j . . . . . . . -1 . .
. . 1 . . . . . . . . . . . . j . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . -1 . . . . . j . . . . . . . . .
. . . . . -1 . . . j . . . . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . j . . . . . . . 1 . . . . . .
. . . 1 . . . . . . . . . -j . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . . . . . j . . . . -1 . . .
. . . . . . 1 . . . j . . . . . . . . . . . . . . . . . . . . .
. . . . . . . . . . . . . . . . . . . j . . . . . . . 1 . . . .
"""


def _build_w1() -> SparseFactor:
    # [[I16, diag(0, I15)], [diag(0, I15), diag(1, -I15)]]
    entries = [(i, i, 1 + 0j) for i in range(16)]
    entries += [(i, 16 + i, 1 + 0j) for i in range(1, 16)]
    entries += [(16 + i, i, 1 + 0j) for i in range(1, 16)]
    entries.append((16, 16, 1 + 0j))
    entries += [(16 + i, 16 + i, -1 + 0j) for i in range(1, 16)]
    return SparseFactor("W1", 32, tuple(entries))


@lru_cache(maxsize=None)
def build_w(k: int) -> SparseFactor:
    """Return stage W_k of the 32-point kernel factorization."""
    if k not in range(8):
        raise ValueError("stage index must be in 0..7")
    if k == 0:
        w = _block_diag("W0", [build_b(17), build_b(15)])
    elif k == 1:
        w = _build_w1()
    elif k == 2:
        w = _block_diag("W2", [build_b(9), build_b(7), identity_block(16)])
    elif k == 3:
        w = _block_diag("W3", [build_b(5), build_b(1), build_b(3), build_b(1),
                               build_b(3), build_b(3), _parse_table("Z1", _Z1, 16)])
    elif k == 4:
        w = _block_diag("W4", [build_b(3), build_b(2), build_b(4), build_b(4),
                               build_b(2), _parse_table("Z2", _Z2, 17)])
    elif k == 5:
        w = _block_diag("W5", [build_b(2), identity_block(15),
                               _parse_table("Z3", _Z3, 15)])
    elif k == 6:
        w = _block_diag("W6", [identity_block(16), _parse_table("W6t", _W6_TAIL, 16)])
    else:
        w = _parse_table("W7", _W7, 32)
    if w.size != 32:
        raise AssertionError(f"stage {k} has size {w.size}, wanted 32")
    return w


@lru_cache(maxsize=1)
def all_factors() -> tuple[SparseFactor, ...]:
    """All eight stages in application order (W0 first)."""
    return tuple(build_w(k) for k in range(8))
