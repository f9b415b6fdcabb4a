"""Reproduction experiments — one module per paper table/figure.

=======  ==========================================================
module   reproduces
=======  ==========================================================
speedup  E1: the §V results table (sum / sgemm speedups, int & fp)
prec     E2: the §V precision finding (15-bit mantissa band)
fig2     E3: Figure 2 (CPU vs GPU float byte layout)
rtrip    E4: §IV round-trip correctness across all formats
ablation E5: readback-ordering and packing-overhead ablations
peak     E6: the 24 GFlops device peak sanity check
half     E7: fp16 extension path vs the §IV fp32 transformations
=======  ==========================================================

Each module exposes a ``run_*`` function returning plain dataclasses,
so the pytest benches, the examples and EXPERIMENTS.md generation all
share one implementation.
"""

from .speedup import (
    PAPER_SPEEDUPS,
    SpeedupRow,
    format_speedup_table,
    run_speedup_table,
)
from .prec import PrecisionRow, run_precision_experiment
from .fig2 import Fig2Row, run_fig2_layout
from .ablation import AblationResult, run_packing_ablation, run_readback_ablation
from .peak import run_peak_check
from .half import run_half_float_comparison
from .sweep import SweepResult, format_sweep, run_size_sweep

__all__ = [
    "PAPER_SPEEDUPS",
    "SpeedupRow",
    "run_speedup_table",
    "format_speedup_table",
    "PrecisionRow",
    "run_precision_experiment",
    "Fig2Row",
    "run_fig2_layout",
    "AblationResult",
    "run_readback_ablation",
    "run_packing_ablation",
    "run_peak_check",
    "run_half_float_comparison",
    "SweepResult",
    "run_size_sweep",
    "format_sweep",
]
