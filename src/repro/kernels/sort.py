"""Bitonic merge sort — the classic GPGPU sorting network.

Sorting on ES 2 cannot scatter, but bitonic sort never needs to: every
pass is a gather-only map where element i compares itself with its
partner ``i XOR j`` and keeps either the min or the max.  With no
integer bitwise ops in GLSL ES (§II-B again), the XOR of an index with
a power of two is computed with ``floor``/``mod`` arithmetic:

    partner = i + j   if i's j-bit is 0
              i - j   if i's j-bit is 1
    bit(i, j) = mod(floor(i / j), 2)

For an n = 2^k input the full sort runs k(k+1)/2 passes — all compiled
from one kernel, parameterised by uniforms.
"""

from __future__ import annotations

import numpy as np

from ..core.api.buffer import GpuArray
from ..core.api.device import GpgpuDevice
from ..core.api.errors import GpgpuError
from ..core.api.kernel import Kernel
from ..core.numerics.formats import get_format

_BITONIC_BODY = """
float i = gpgpu_index;
float jbit = mod(floor(i / u_j), 2.0);
float partner = jbit < 0.5 ? i + u_j : i - u_j;
float self_ = fetch_a(i);
float other = fetch_a(partner);
// Sort direction flips with the k-block parity (ascending overall).
float kbit = mod(floor(i / u_k), 2.0);
bool ascending = kbit < 0.5;
float lo = min(self_, other);
float hi = max(self_, other);
if (ascending) {
    result = jbit < 0.5 ? lo : hi;
} else {
    result = jbit < 0.5 ? hi : lo;
}
"""


def make_bitonic_step_kernel(device: GpgpuDevice, fmt) -> Kernel:
    """One compare-exchange pass of the bitonic network."""
    fmt = get_format(fmt)
    return device.kernel(
        name=f"bitonic_step_{fmt.name}",
        inputs=[("a", fmt)],
        output=fmt,
        body=_BITONIC_BODY,
        uniforms=[("u_j", "float"), ("u_k", "float")],
        mode="gather",
    )


def _bitonic_passes(source, identity, kernel, n, fmt, scope):
    """The sorting-network schedule: seed copy plus the k(k+1)/2
    compare-exchange passes over two ``scope`` scratches.  Returns the
    one holding the sorted array."""
    ping = scope.scratch(n, fmt)
    pong = scope.scratch(n, fmt)
    scope.launch(identity, ping, {"a": source}, None)
    k = 2
    while k <= n:
        j = k // 2
        while j >= 1:
            scope.launch(kernel, pong, {"a": ping},
                         {"u_j": float(j), "u_k": float(k)})
            ping, pong = pong, ping
            j //= 2
        k *= 2
    return ping


def bitonic_sort(device: GpgpuDevice, array: GpuArray,
                 kernel: Kernel = None) -> GpuArray:
    """Sort a power-of-two-length GpuArray ascending on the GPU.

    Returns a new array (a kept graph scratch in graph mode —
    ``release()`` frees its texture); the input is untouched.
    Runs log2(n)·(log2(n)+1)/2 passes.
    """
    n = array.length
    if n & (n - 1):
        raise GpgpuError(
            f"bitonic sort requires a power-of-two length, got {n}"
        )
    fmt = array.format
    if kernel is None:
        kernel = make_bitonic_step_kernel(device, fmt)
    identity = device.kernel(
        f"bitonic_copy_{fmt.name}", [("a", fmt)], fmt, "result = a;"
    )
    with device.launches() as scope:
        return scope.keep(
            _bitonic_passes(array, identity, kernel, n, fmt, scope)
        )


def sort_host_array(device: GpgpuDevice, values: np.ndarray) -> np.ndarray:
    """Convenience: upload, sort, read back (pads to the next power of
    two with the dtype's maximum, then trims)."""
    values = np.asarray(values).reshape(-1)
    n = values.shape[0]
    size = 1
    while size < n:
        size *= 2
    if np.issubdtype(values.dtype, np.floating):
        pad_value = np.finfo(values.dtype).max
    elif values.dtype.itemsize >= 4:
        # Stay inside the fp32 24-bit exact-integer envelope (§IV-C):
        # 32-bit integer sorting is valid for |v| < 2^23.
        pad_value = 2**23 - 1
    else:
        pad_value = np.iinfo(values.dtype).max
    padded = np.full(size, pad_value, dtype=values.dtype)
    padded[:n] = values
    array = device.array(padded)
    try:
        sorted_array = bitonic_sort(device, array)
    finally:
        array.release()
    try:
        return sorted_array.to_host()[:n]
    finally:
        sorted_array.release()
