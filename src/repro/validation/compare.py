"""CPU-vs-GPU result comparison.

Implements the paper's validation methodology: integer results must
match the CPU exactly; floating-point results are scored by how many
most-significant mantissa bits agree with the CPU fp32 reference
("accurate ... within the 15 most significant bits of the mantissa",
§V).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gles2.precision import mantissa_agreement_bits


def validate_exact(reference: np.ndarray, measured: np.ndarray) -> bool:
    """Exact elementwise equality (integer formats)."""
    return bool(np.array_equal(np.asarray(reference), np.asarray(measured)))


@dataclass
class PrecisionReport:
    """Summary of mantissa-bit agreement between GPU and CPU results."""

    min_bits: float
    mean_bits: float
    median_bits: float
    #: Fraction of elements agreeing in >= 15 mantissa bits (the
    #: paper's reported band).
    fraction_ge_15: float
    count: int

    def meets_paper_band(self) -> bool:
        """True when results sit in the paper's precision band: the
        typical element agrees in >= 15 mantissa bits (better than
        fp16's 10-bit mantissa, below full fp32).  The median is used
        because catastrophic cancellation makes the worst element's
        *relative* agreement unbounded for any finite-precision device.
        """
        return self.median_bits >= 15.0 and self.fraction_ge_15 >= 0.5

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"mantissa agreement over {self.count} elements: "
            f"min {self.min_bits:.1f}, mean {self.mean_bits:.1f}, "
            f"median {self.median_bits:.1f} bits; "
            f">=15 bits: {self.fraction_ge_15 * 100:.1f}%"
        )


def _median(values: np.ndarray) -> float:
    """``np.median`` of a NaN-free array, bit for bit, without the
    ``numpy.ma`` import ``np.median`` pulls in on first use."""
    ordered = np.sort(values)
    mid = ordered.size // 2
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2.0)


def precision_report(reference: np.ndarray, measured: np.ndarray) -> PrecisionReport:
    """Score float results against a reference."""
    bits = mantissa_agreement_bits(
        np.asarray(reference, dtype=np.float64).reshape(-1),
        np.asarray(measured, dtype=np.float64).reshape(-1),
    )
    return PrecisionReport(
        min_bits=float(bits.min()),
        mean_bits=float(bits.mean()),
        median_bits=_median(bits),
        fraction_ge_15=float((bits >= 15.0).mean()),
        count=int(bits.size),
    )


def mantissa_histogram(reference: np.ndarray, measured: np.ndarray, bins=None):
    """Histogram of matched-mantissa-bit counts (for the E2 bench)."""
    bits = mantissa_agreement_bits(
        np.asarray(reference, dtype=np.float64).reshape(-1),
        np.asarray(measured, dtype=np.float64).reshape(-1),
    )
    if bins is None:
        bins = np.arange(0, 25)
    counts, edges = np.histogram(bits, bins=bins)
    return counts, edges
