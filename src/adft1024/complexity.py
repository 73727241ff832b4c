"""Arithmetic and circuit complexity accounting for the 1024-point variants.

Two kinds of numbers live here.  Sequential counts tally real operations of
a one-at-a-time evaluation: the twiddle stage contributes one complex
product per nontrivial weight, the exact 32-point kernel is costed at its
radix-2 figure, and the multiplierless kernel at its instrumented addition
count.  Circuit counts model the time-multiplexed radix-32 datapath: one
bank of 32 Gauss complex multipliers for the twiddles plus one hardware
core per kernel position.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass

from .factors import MultiplicationError, TOTAL_ADDITIONS, all_factors
from .radix32 import Variant

# Sequential real-operation reference totals for the full 1024-point
# transform paths (multiplications, additions).
RADIX2_1024 = (10248, 30728)

# One 32-point block, sequential: exact kernel via radix-2, and the
# adds-only kernel.
DFT32_SEQUENTIAL = (88, 408)
ADFT32_SEQUENTIAL = (0, TOTAL_ADDITIONS)

NONTRIVIAL_TWIDDLES = 961
ALL_TWIDDLES = 1024

# Hardware multiplier/adder circuit counts per block.
TWIDDLE_CIRCUIT = (96, 160)     # 32 parallel Gauss complex multipliers
DFT32_CIRCUIT = (78, 398)
ADFT32_CIRCUIT = (0, TOTAL_ADDITIONS)

# Reference sequential totals per variant (multiplications, additions).
REFERENCE_SEQUENTIAL = {
    Variant.EXACT: RADIX2_1024,
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
    products = ALL_TWIDDLES if model.count_trivial_twiddles else NONTRIVIAL_TWIDDLES
    m_per, a_per = model.complex_mult_scheme.real_ops
    return products * m_per, products * a_per


def _kernel_positions(variant: Variant, exact: tuple[int, int],
                      approx: tuple[int, int]) -> tuple[int, int]:
    """Summed (mults, adds) of one row-position and one column-position block."""
    row = exact if variant.row_kernel_exact else approx
    col = exact if variant.col_kernel_exact else approx
    return row[0] + col[0], row[1] + col[1]


def count_sequential(variant: Variant, model: CostModel = CostModel()) -> ComplexityReport:
    """Sequential operation count of one 1024-point evaluation."""
    ref_m, ref_a = REFERENCE_SEQUENTIAL[variant]
    if variant is Variant.EXACT:
        # Stored radix-2 reference totals; not derived from the block model.
        mults, adds = RADIX2_1024
    else:
        tw_m, tw_a = twiddle_cost(model)
        # Each kernel position runs 32 blocks.
        block_m, block_a = _kernel_positions(variant, DFT32_SEQUENTIAL, ADFT32_SEQUENTIAL)
        mults, adds = tw_m + 32 * block_m, tw_a + 32 * block_a
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
    core_m, core_a = _kernel_positions(variant, DFT32_CIRCUIT, ADFT32_CIRCUIT)
    return CircuitReport(
        variant=variant,
        multiplier_circuits=core_m + TWIDDLE_CIRCUIT[0],
        adder_circuits=core_a + TWIDDLE_CIRCUIT[1],
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
