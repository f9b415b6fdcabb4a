"""Min/max reductions (same ladder as the sum reduction).

Used by the nearest-neighbour example: the argmin is found by packing
``value * scale + index`` so the minimum carries its position — the
classic trick for ES 2, which has no atomics.
"""

from __future__ import annotations

import numpy as np

from ..core.api.buffer import GpuArray
from ..core.api.device import GpgpuDevice
from ..core.api.kernel import Kernel
from ..core.numerics.formats import get_format
from .reduction import halving_ladder, ladder_scalar

_STEP_BODY_TEMPLATE = """
float lo = gpgpu_index * 2.0;
float hi = lo + 1.0;
float left = fetch_a(lo);
float right = hi < u_len ? fetch_a(hi) : left;
result = {op}(left, right);
"""


def make_minmax_step_kernel(device: GpgpuDevice, fmt, op: str) -> Kernel:
    """One halving pass computing pairwise min or max."""
    if op not in ("min", "max"):
        raise ValueError("op must be 'min' or 'max'")
    fmt = get_format(fmt)
    return device.kernel(
        name=f"reduce_{op}_{fmt.name}",
        inputs=[("a", fmt)],
        output=fmt,
        body=_STEP_BODY_TEMPLATE.format(op=op),
        uniforms=[("u_len", "float")],
        mode="gather",
    )


def _reduce(device: GpgpuDevice, array: GpuArray, op: str):
    kernel = make_minmax_step_kernel(device, array.format, op)
    return ladder_scalar(device, array, kernel)


def reduce_min(device: GpgpuDevice, array: GpuArray):
    """Minimum element of the array, computed on the GPU."""
    return _reduce(device, array, "min")


def reduce_max(device: GpgpuDevice, array: GpuArray):
    """Maximum element of the array, computed on the GPU."""
    return _reduce(device, array, "max")


def argmin_via_encoding(device: GpgpuDevice, values: np.ndarray) -> int:
    """Index of the minimum of a float32 host array, computed on the
    GPU by encoding ``rank * n + index`` so min() carries the index.

    The encoding quantises values to their rank ordering capacity
    within fp32's 2^24 exact-integer envelope: exact for n < 2^12
    distinct keys.
    """
    values = np.asarray(values, dtype=np.float32).reshape(-1)
    n = values.shape[0]
    # Normalise values to [0, 1] then quantise to 4096 levels.
    lo, hi = float(values.min()), float(values.max())
    span = (hi - lo) or 1.0
    encode = device.kernel(
        "argmin_encode",
        [("v", "float32")],
        "float32",
        "float value = fetch_v(gpgpu_index);\n"
        "float level = floor((value - u_lo) / u_span * 4095.0 + 0.5);\n"
        "result = level * u_n + gpgpu_index;",
        uniforms=[("u_lo", "float"), ("u_span", "float"), ("u_n", "float")],
        mode="gather",
    )
    uniforms = {"u_lo": lo, "u_span": span, "u_n": float(n)}
    kernel = make_minmax_step_kernel(device, "float32", "min")
    # One scope for encode + ladder: under graph mode the encode output
    # and every ladder intermediate are freed after their last reader.
    with device.launches() as scope:
        array = scope.array(values)
        encoded = scope.scratch(n, "float32")
        scope.launch(encode, encoded, {"v": array}, uniforms)
        best = scope.keep(halving_ladder(encoded, kernel, scope))
    try:
        return int(best.to_host()[0] % n)
    finally:
        best.release()
