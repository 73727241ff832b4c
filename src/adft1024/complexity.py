"""Arithmetic and circuit complexity accounting for the 1024-point variants.

Two kinds of numbers live here.  Sequential counts tally real operations of
a one-at-a-time evaluation under one complex-multiplication convention: the
twiddle stage contributes one complex product per nontrivial weight of the
twiddle grid, an exact transform (the 1024-point reference, or a 32-point
kernel inside the radix-32 variants) is costed by counting a radix-2 FFT over
its twiddle schedule, and the multiplierless kernel at the addition count
observed by running its factors on counting lanes.  Circuit counts model the
time-multiplexed radix-32 datapath: one bank of 32 Gauss complex multipliers
for the twiddles plus one hardware core per kernel position.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

from .factors import MultiplicationError, all_factors
from .radix32 import N, SIZE, Variant, twiddle_matrix

# Multiplier/adder circuits of the exact 32-point core: the published figure.
# It lies on adds = mults + 320, as every 3M/3A count of a 32-point
# Cooley-Tukey FFT does (320 butterfly adds), but no schedule gives its 78
# multipliers: radix-2 gives 88, radix-4 with one radix-2 stage 80 or 72, and
# split-radix 68 (Duhamel and Hollmann, Electron. Lett. 20(1), 1984).
DFT32_CIRCUIT = (78, 398)

# Reference sequential totals per variant (multiplications, additions).
REFERENCE_SEQUENTIAL = {
    Variant.EXACT: (10248, 30728),
    Variant.ALG1: (2883, 25155),
    Variant.ALG2: (5699, 27075),
    Variant.ALG3: (5699, 27075),
}

# Reference circuit totals per variant; the exact row is also recomputed
# from the block model, which gives 956 adders against the published 959.
REFERENCE_CIRCUIT = {
    Variant.EXACT: (252, 959),
    Variant.ALG1: (96, 856),
    Variant.ALG2: (174, 906),
    Variant.ALG3: (174, 906),
}


class ComplexMultScheme(enum.Enum):
    """Real-operation cost of one complex multiplication."""

    GAUSS_3M5A = "gauss"      # 3 mult, 5 add
    DIRECT_4M2A = "direct"    # 4 mult, 2 add
    PAPER_3M3A = "paper"      # 3 mult, 3 add; reproduces the reference totals

    @property
    def real_ops(self) -> tuple[int, int]:
        return {
            ComplexMultScheme.GAUSS_3M5A: (3, 5),
            ComplexMultScheme.DIRECT_4M2A: (4, 2),
            ComplexMultScheme.PAPER_3M3A: (3, 3),
        }[self]


@dataclass(frozen=True)
class CostModel:
    complex_mult_scheme: ComplexMultScheme = ComplexMultScheme.PAPER_3M3A
    count_trivial_twiddles: bool = False


def _json_fields(items) -> dict:
    return {k: v.value if isinstance(v, enum.Enum) else list(v) if isinstance(v, tuple) else v
            for k, v in items}


def _json_record(report, **derived) -> dict:
    """A report dataclass's fields, then the derived values, as one JSON object.

    Enums become their values, tuples lists and nested dataclasses objects.
    """
    return asdict(report, dict_factory=_json_fields) | derived


@dataclass(frozen=True)
class ComplexityReport:
    """Sequential real multiplication/addition counts under one convention."""

    variant: Variant
    real_mults: int
    real_adds: int
    paper_reference_mults: int
    paper_reference_adds: int
    convention: CostModel

    @property
    def matches_reference(self) -> bool:
        return (self.real_mults, self.real_adds) == (
            self.paper_reference_mults, self.paper_reference_adds)

    def to_json_dict(self) -> dict:
        return _json_record(self, matches_reference=self.matches_reference)


@dataclass(frozen=True)
class CircuitReport:
    """Multiplier/adder circuit counts for the time-multiplexed datapath."""

    variant: Variant
    multiplier_circuits: int
    adder_circuits: int
    paper_table_values: tuple[int, int]

    @property
    def matches_paper_table(self) -> bool:
        return (self.multiplier_circuits, self.adder_circuits) == self.paper_table_values

    def to_json_dict(self) -> dict:
        return _json_record(self, matches_paper_table=self.matches_paper_table)


def twiddle_cost(model: CostModel) -> tuple[int, int]:
    """(mults, adds) of the elementwise twiddle stage under a cost model."""
    products = SIZE if model.count_trivial_twiddles else twiddle_matrix().nontrivial_count
    m_per, a_per = model.complex_mult_scheme.real_ops
    return products * m_per, products * a_per


def radix2_cost(n: int, scheme: ComplexMultScheme) -> tuple[int, int]:
    """(mults, adds) of an n-point radix-2 decimation-in-time FFT, n a power of two.

    Counted from the twiddle schedule: every butterfly costs two complex adds;
    the stage-m twiddle omega_m^j is free when it is +-1 or +-j, costs 2M/2A
    when it is (+-1 +-j)/sqrt(2), and otherwise one complex product under
    the scheme.  The final 1/sqrt(n) scaling is not counted.
    """
    if n < 1 or n & (n - 1):
        raise ValueError(f"radix-2 FFT size must be a power of two, not {n}")
    stages = n.bit_length() - 1
    mults, adds = 0, 2 * n * stages   # n/2 butterflies a stage, 2 complex adds each
    for m in (2 ** s for s in range(1, stages + 1)):
        for j in range(m // 2):       # omega_m^j, used by n/m butterflies
            if 4 * j % m:
                cost = (2, 2) if 8 * j % m == 0 else scheme.real_ops
                mults, adds = mults + n // m * cost[0], adds + n // m * cost[1]
    return mults, adds


def _kernel_positions(variant: Variant, exact: tuple[int, int],
                      approx: tuple[int, int]) -> tuple[int, int]:
    """Summed (mults, adds) of one row-position and one column-position block."""
    row, col = variant.place(exact, approx)
    return row[0] + col[0], row[1] + col[1]


def count_sequential(variant: Variant, model: CostModel = CostModel()) -> ComplexityReport:
    """Sequential operation count of one 1024-point evaluation."""
    ref_m, ref_a = REFERENCE_SEQUENTIAL[variant]
    scheme = model.complex_mult_scheme
    if variant is Variant.EXACT:
        mults, adds = radix2_cost(SIZE, scheme)
    else:
        tw_m, tw_a = twiddle_cost(model)
        # Each kernel position runs N blocks.
        block_m, block_a = _kernel_positions(variant, radix2_cost(N, scheme),
                                              count_instrumented_adft32())
        mults, adds = tw_m + N * block_m, tw_a + N * block_a
    return ComplexityReport(
        variant=variant,
        real_mults=mults,
        real_adds=adds,
        paper_reference_mults=ref_m,
        paper_reference_adds=ref_a,
        convention=model,
    )


def circuit_complexity(variant: Variant) -> CircuitReport:
    """Circuit counts: twiddle multiplier bank plus two kernel cores."""
    core_m, core_a = _kernel_positions(variant, DFT32_CIRCUIT, count_instrumented_adft32())
    # The twiddle bank: 32 parallel Gauss multipliers.
    bank_m, bank_a = ComplexMultScheme.GAUSS_3M5A.real_ops
    return CircuitReport(
        variant=variant,
        multiplier_circuits=core_m + N * bank_m,
        adder_circuits=core_a + N * bank_a,
        paper_table_values=REFERENCE_CIRCUIT[variant],
    )


class _OpCounter:
    __slots__ = ("adds",)

    def __init__(self):
        self.adds = 0


class CountingFloat:
    """Float stand-in that tallies adds and refuses multiplications."""

    __slots__ = ("value", "counter")

    def __init__(self, value: float, counter: _OpCounter):
        self.value = value
        self.counter = counter

    def __add__(self, other):
        self.counter.adds += 1
        return CountingFloat(self.value + other.value, self.counter)

    def __sub__(self, other):
        self.counter.adds += 1
        return CountingFloat(self.value - other.value, self.counter)

    def __neg__(self):
        return CountingFloat(-self.value, self.counter)

    def __mul__(self, other):
        raise MultiplicationError(
            "multiplication observed inside the adds-only kernel chain")

    __rmul__ = __mul__


def adft32_addition_profile() -> list[int]:
    """Instrumented per-stage real-addition counts of one kernel evaluation.

    Counting is structural: it does not depend on the input values.
    """
    counter = _OpCounter()
    re = [CountingFloat(0.0, counter) for _ in range(32)]
    im = [CountingFloat(0.0, counter) for _ in range(32)]
    profile = []
    for f in all_factors():
        before = counter.adds
        re, im = f.apply_scalars(re, im)
        profile.append(counter.adds - before)
    return profile


def count_instrumented_adft32() -> tuple[int, int]:
    """Observed (multiplications, additions) of one adds-only kernel run."""
    profile = adft32_addition_profile()
    return 0, int(sum(profile))
