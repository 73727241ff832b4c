"""Sequential operation counts, instrumented counting, and circuit totals."""

import numpy as np
import pytest

from adft1024 import complexity
from adft1024.complexity import (ComplexMultScheme, CostModel,
                                 adft32_addition_profile, circuit_complexity,
                                 count_instrumented_adft32, count_sequential,
                                 radix2_cost, twiddle_cost)
from adft1024.factors import (MultiplicationError, STAGE_ADDITIONS, SparseFactor,
                              all_factors)
from adft1024.complexity import CountingFloat, _OpCounter
from adft1024.radix32 import Variant

PAPER = CostModel(ComplexMultScheme.PAPER_3M3A)
GAUSS = CostModel(ComplexMultScheme.GAUSS_3M5A)
DIRECT = CostModel(ComplexMultScheme.DIRECT_4M2A)


def test_sequential_table_under_3m3a_convention():
    expected = {
        Variant.EXACT: (10248, 30728),
        Variant.ALG1: (2883, 25155),
        Variant.ALG2: (5699, 27075),
        Variant.ALG3: (5699, 27075),
    }
    for variant, (mults, adds) in expected.items():
        rep = count_sequential(variant, PAPER)
        assert (rep.real_mults, rep.real_adds) == (mults, adds)
        assert rep.matches_reference


def test_alg1_under_gauss_convention():
    rep = count_sequential(Variant.ALG1, GAUSS)
    assert rep.real_mults == 2883
    assert rep.real_adds == 961 * 5 + 22272 == 27077


def test_direct_convention_twiddle_cost():
    assert twiddle_cost(DIRECT) == (961 * 4, 961 * 2)
    assert twiddle_cost(PAPER) == (2883, 2883)


def test_counting_trivial_twiddles_uses_all_products():
    model = CostModel(ComplexMultScheme.GAUSS_3M5A, count_trivial_twiddles=True)
    assert twiddle_cost(model) == (1024 * 3, 1024 * 5)


def test_alg2_alg3_identical_under_every_model():
    for model in (PAPER, GAUSS, DIRECT,
                  CostModel(ComplexMultScheme.GAUSS_3M5A, True)):
        r2 = count_sequential(Variant.ALG2, model)
        r3 = count_sequential(Variant.ALG3, model)
        assert (r2.real_mults, r2.real_adds) == (r3.real_mults, r3.real_adds)


def test_multiplication_counts_are_monotone():
    mults = [count_sequential(v, PAPER).real_mults
             for v in (Variant.ALG1, Variant.ALG2, Variant.EXACT)]
    assert mults[0] < mults[1] < mults[2]


def test_reference_constants():
    assert radix2_cost(1024, ComplexMultScheme.PAPER_3M3A) == (10248, 30728)
    assert radix2_cost(32, ComplexMultScheme.PAPER_3M3A) == (88, 408)


def _radix2_oracle(n, scheme):
    """Radix-2 DIT count from the twiddle values: stage m uses omega_m^j, j < m/2,
    in n/m butterflies; each butterfly adds two complex values twice."""
    mults, adds = 0, 0
    m = 2
    while m <= n:
        w = np.exp(-2j * np.pi * np.arange(m // 2) / m)
        re, im = np.abs(w.real), np.abs(w.imag)
        free = np.isclose(re, 0, rtol=0, atol=1e-12) | np.isclose(im, 0, rtol=0, atol=1e-12)
        eighth = ~free & np.isclose(re, im, rtol=0, atol=1e-12)
        general = ~free & ~eighth
        per_m, per_a = scheme.real_ops
        mults += n // m * (2 * int(eighth.sum()) + per_m * int(general.sum()))
        adds += n // m * (2 * int(eighth.sum()) + per_a * int(general.sum()) + 4 * (m // 2))
        m *= 2
    return mults, adds


@pytest.mark.parametrize("scheme", list(ComplexMultScheme), ids=lambda s: s.value)
def test_radix2_cost_matches_the_twiddle_values(scheme):
    for k in range(13):
        assert radix2_cost(2 ** k, scheme) == _radix2_oracle(2 ** k, scheme), k


def test_exact_kernels_follow_the_cost_model():
    expected = {
        GAUSS: {Variant.EXACT: (10248, 36880), Variant.ALG1: (2883, 27077),
                Variant.ALG2: (5699, 30277), Variant.ALG3: (5699, 30277)},
        DIRECT: {Variant.EXACT: (13324, 27652), Variant.ALG1: (3844, 24194),
                 Variant.ALG2: (7300, 25474), Variant.ALG3: (7300, 25474)},
    }
    assert radix2_cost(32, GAUSS.complex_mult_scheme) == (88, 448)
    assert radix2_cost(32, DIRECT.complex_mult_scheme) == (108, 388)
    for model, rows in expected.items():
        for variant, counts in rows.items():
            rep = count_sequential(variant, model)
            assert (rep.real_mults, rep.real_adds) == counts, (model, variant)


@pytest.mark.parametrize("n", [0, 24])
def test_radix2_cost_rejects_non_power_of_two(n):
    with pytest.raises(ValueError, match="power of two"):
        radix2_cost(n, ComplexMultScheme.PAPER_3M3A)


def test_instrumented_kernel_run():
    assert count_instrumented_adft32() == (0, 348)


def test_instrumented_per_stage_profile():
    assert adft32_addition_profile() == list(STAGE_ADDITIONS)


def test_counting_is_data_independent():
    # structural counting: a second run on any values gives the same profile
    assert adft32_addition_profile() == adft32_addition_profile()


def test_counting_float_rejects_multiplication():
    counter = _OpCounter()
    x = CountingFloat(1.0, counter)
    with pytest.raises(MultiplicationError):
        _ = x * x
    with pytest.raises(MultiplicationError):
        _ = 2.0 * x


def test_circuit_table():
    expected = {
        Variant.ALG1: (96, 856),
        Variant.ALG2: (174, 906),
        Variant.ALG3: (174, 906),
    }
    for variant, vals in expected.items():
        rep = circuit_complexity(variant)
        assert (rep.multiplier_circuits, rep.adder_circuits) == vals
        assert rep.matches_paper_table


def test_counts_follow_the_kernel_factors(monkeypatch):
    # One more term in W3's one-term B1 row (row 5) costs two more adds a block.
    factors = list(all_factors())
    w3 = factors[3]
    factors[3] = SparseFactor(w3.label, w3.size, w3.entries + ((5, 0, 1 + 0j),))
    monkeypatch.setattr(complexity, "all_factors", lambda: tuple(factors))
    assert count_instrumented_adft32() == (0, 350)
    # alg1 runs the kernel in both positions, N blocks each; alg2 in one.
    assert count_sequential(Variant.ALG1, PAPER).real_adds == 25155 + 128
    assert count_sequential(Variant.ALG2, PAPER).real_adds == 27075 + 64
    assert circuit_complexity(Variant.ALG1).adder_circuits == 856 + 4


def test_circuit_exact_discrepancy_flagged():
    rep = circuit_complexity(Variant.EXACT)
    assert rep.multiplier_circuits == 78 * 2 + 96 == 252
    assert rep.adder_circuits == 398 * 2 + 160 == 956
    assert rep.paper_table_values == (252, 959)
    assert not rep.matches_paper_table


def test_json_payloads_round_trip_semantics():
    rep = count_sequential(Variant.ALG1, PAPER)
    payload = rep.to_json_dict()
    assert set(payload) == {"variant", "real_mults", "real_adds", "paper_reference_mults",
                            "paper_reference_adds", "convention", "matches_reference"}
    assert payload["convention"] == {"complex_mult_scheme": "paper",
                                     "count_trivial_twiddles": False}
    assert payload["variant"] == "alg1"
    assert payload["real_mults"] == 2883
    assert payload["matches_reference"] is True
    circ = circuit_complexity(Variant.EXACT).to_json_dict()
    assert set(circ) == {"variant", "multiplier_circuits", "adder_circuits",
                         "paper_table_values", "matches_paper_table"}
    assert circ["paper_table_values"] == [252, 959]
    assert circ["matches_paper_table"] is False
