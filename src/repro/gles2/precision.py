"""Shader float-precision models and ``glGetShaderPrecisionFormat``.

The paper (§IV-E and §V) leans on two facts about real low-end mobile
GPUs:

1. ``glGetShaderPrecisionFormat`` reports the device's exponent and
   mantissa widths; VideoCore IV, PowerVR SGX, Adreno 2XX and Mali-4XX
   all match IEEE 754 single precision (8-bit exponent, 23-bit
   mantissa).
2. The *platform* (hardware + compiler) still only delivers results
   "accurate within the 15 most significant bits of the mantissa" —
   non-IEEE rounding in the QPU pipeline and transcendental
   approximations degrade a computation chain, while the identical
   transformations executed on the CPU are bit-exact.

This module models both: every float operation executed by the GLSL
interpreter is filtered through a :class:`FloatModel` whose
``quantize`` hook can truncate results to an effective mantissa width.
Three models are provided:

``ExactModel``
    float64, no rounding — "the same transformations on the CPU are
    precise".
``Ieee32Model``
    strict IEEE 754 single precision (what an ideal fp32 GPU would do).
``VideoCoreModel``
    float32 with per-operation mantissa truncation, calibrated so a
    typical kernel's output agrees with the CPU fp32 reference in the
    15-16 most significant mantissa bits — the paper's observed band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PrecisionFormat:
    """Result of glGetShaderPrecisionFormat: log2 ranges + precision."""

    range_min: int
    range_max: int
    precision: int


class FloatModel:
    """Base float model: subclasses set ``dtype`` and override
    ``quantize``."""

    name = "base"
    dtype = np.float64

    def quantize(self, data: np.ndarray, category: str = "alu") -> np.ndarray:
        return data

    def quantize_is_cast(self, category: str = "alu") -> bool:
        """True when ``quantize(x, category)`` equals
        ``np.asarray(x, self.dtype)`` bit-for-bit.  Compiled backends
        use this to elide the call entirely for arrays that are
        already in the model dtype.  Conservative default: False."""
        return False

    def precision_format(self, precision_enum_name: str) -> PrecisionFormat:
        """The glGetShaderPrecisionFormat response for this device."""
        table = {
            "highp_float": PrecisionFormat(127, 127, 23),
            "mediump_float": PrecisionFormat(127, 127, 23),
            "lowp_float": PrecisionFormat(127, 127, 23),
            # Integers are emulated in float on these GPUs: 2^24 range.
            "highp_int": PrecisionFormat(24, 24, 0),
            "mediump_int": PrecisionFormat(24, 24, 0),
            "lowp_int": PrecisionFormat(24, 24, 0),
        }
        return table[precision_enum_name]


class ExactModel(FloatModel):
    """Reference model: float64, bit-exact transformations."""

    name = "exact"
    dtype = np.float64

    def quantize_is_cast(self, category: str = "alu") -> bool:
        return True


class Ieee32Model(FloatModel):
    """Ideal IEEE 754 single-precision device."""

    name = "ieee32"
    dtype = np.float32

    def quantize(self, data: np.ndarray, category: str = "alu") -> np.ndarray:
        return np.asarray(data, dtype=np.float32)

    def quantize_is_cast(self, category: str = "alu") -> bool:
        return True


class VideoCoreModel(FloatModel):
    """VideoCore IV-like device arithmetic.

    Plain ALU ops (add/mul) behave as fp32 — the QPU datapath is
    single precision.  *Special-function* results (``exp2``, ``log2``,
    ``rsqrt``, ``recip`` and everything built on them) come from the
    QPU's SFU, a lookup-table + interpolation unit: the model truncates
    them to ``sfu_mantissa_bits`` and applies a small deterministic
    relative bias (the LUT approximation never rounds to nearest).

    The paper's §IV float transformations reconstruct and decompose
    values through ``exp2``/``log2``, so every float that crosses the
    pack/unpack boundary inherits the SFU's error — which is exactly
    why the paper observes results "accurate within the 15 most
    significant bits of the mantissa": better than fp16 (10 bits),
    between the fp24 of early desktop GPGPU and full fp32, while the
    identical transformations on the CPU are bit-exact.  The defaults
    land kernels in that band.
    """

    name = "videocore"
    dtype = np.float32

    def __init__(self, sfu_mantissa_bits: int = 16, sfu_relative_bias: float = 2.0**-18):
        if not 1 <= sfu_mantissa_bits <= 23:
            raise ValueError("sfu_mantissa_bits must be in [1, 23]")
        self.sfu_mantissa_bits = sfu_mantissa_bits
        self.sfu_relative_bias = sfu_relative_bias

    def quantize(self, data: np.ndarray, category: str = "alu") -> np.ndarray:
        data = np.asarray(data, dtype=np.float32)
        if category != "sfu":
            return data
        truncated = truncate_mantissa(data, self.sfu_mantissa_bits)
        perturbed = truncated * np.float32(1.0 + self.sfu_relative_bias)
        return np.where(np.isfinite(truncated), perturbed, truncated)

    def quantize_is_cast(self, category: str = "alu") -> bool:
        return category != "sfu"


def truncate_mantissa(data: np.ndarray, keep_bits: int) -> np.ndarray:
    """Truncate float32 values to ``keep_bits`` mantissa bits
    (round-toward-zero, the QPU's cheap rounding mode).

    Non-finite values pass through unchanged.
    """
    if keep_bits >= 23:
        return data
    drop = 23 - keep_bits
    raw = np.asarray(data, dtype=np.float32)
    bits = raw.view(np.uint32).copy()
    mask = np.uint32(0xFFFFFFFF) << np.uint32(drop)
    truncated = (bits & mask).view(np.float32)
    return np.where(np.isfinite(raw), truncated, raw)


def mantissa_agreement_bits(reference: np.ndarray, measured: np.ndarray) -> np.ndarray:
    """How many most-significant mantissa bits agree between two float32
    arrays — the metric behind the paper's precision claim.

    For each element the relative error ``|m - r| / |r|`` is converted
    to matched bits: ``-log2(rel_err) - 1`` clamped to [0, 23]; exact
    matches count as the full 23.  A NaN or infinite measurement of a
    finite reference agrees in no bits.
    """
    ref = np.asarray(reference, dtype=np.float64)
    mea = np.asarray(measured, dtype=np.float64)
    out = np.full(ref.shape, 23.0)
    nonzero = ref != 0
    rel = np.zeros_like(ref)
    rel[nonzero] = np.abs(mea[nonzero] - ref[nonzero]) / np.abs(ref[nonzero])
    inexact = rel > 0
    with np.errstate(divide="ignore"):
        bits = -np.log2(rel, where=inexact, out=np.full_like(rel, np.inf)) - 1.0
    out[inexact] = np.clip(bits[inexact], 0.0, 23.0)
    # Zero reference but nonzero measurement: no agreement.
    out[~nonzero & (mea != 0)] = 0.0
    out[np.isfinite(ref) & ~np.isfinite(mea)] = 0.0
    return out


#: Registry used by GpgpuDevice / context configuration.
MODELS = {
    "exact": ExactModel,
    "ieee32": Ieee32Model,
    "videocore": VideoCoreModel,
}


def make_model(name: str, **kwargs) -> FloatModel:
    """Instantiate a float model by name ('exact', 'ieee32',
    'videocore')."""
    try:
        cls = MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown float model '{name}' (choose from {sorted(MODELS)})"
        )
    return cls(**kwargs)
