"""Multiplierless 32-point approximate DFT, its 1024-point radix-32
compositions, and the accompanying accuracy/complexity analysis toolkit."""

from .factors import (FACTOR_LABELS, MultiplicationError, STAGE_ADDITIONS,
                      SparseFactor, all_factors, build_b, build_w)
from .transforms import (OUTPUT_SCALE, adft32_apply, adft32_matrix, dft_direct,
                         dft_matrix, factor_product)
from .radix32 import (APPROX_VARIANTS, SIZE, TwiddleMatrix, Variant, VARIANTS,
                      invvec, transform_1024, transform_matrix, twiddle_matrix, vec)
from .complexity import (CircuitReport, ComplexMultScheme, ComplexityReport,
                         CostModel, DFT32_CIRCUIT, adft32_addition_profile,
                         circuit_complexity, count_instrumented_adft32,
                         count_sequential, radix2_cost, twiddle_cost)
from .analysis import (BeamPattern, DB_FLOOR, GRID_SIZE, RowErrorStats,
                       SideLobeReport, SnrReport, beam_pattern, default_angles,
                       filterbank_error, grid_points, snr_monte_carlo,
                       worst_side_lobe)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
