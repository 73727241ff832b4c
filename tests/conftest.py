import tracemalloc

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def complex_vector(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc saw while fn ran)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def side_lobe_walk(mag):
    """Straightforward scalar walk over one magnitude response, used as an
    oracle for the vectorized side-lobe scan.

    The main lobe runs from the global peak to the first strict local
    minimum on each side (plateaus walked through), the response being
    2*pi-periodic.  Returns (level_db, peak, crest): the largest magnitude
    outside the main lobe relative to the peak, and the indices into mag of
    the peak and of that side-lobe crest.
    """
    m = len(mag)
    peak = int(np.argmax(mag))
    shift = m // 2 - peak
    rolled = np.roll(mag, shift)
    centre = m // 2
    i = centre
    while i + 1 < m and rolled[i + 1] <= rolled[i]:
        i += 1
    j = centre
    while j - 1 >= 0 and rolled[j - 1] <= rolled[j]:
        j -= 1
    outside = np.r_[0:j, i + 1:m]
    crest = int(outside[np.argmax(rolled[outside])])
    level = 20 * np.log10(rolled[crest] / rolled[centre])
    return level, peak, (crest - shift) % m
