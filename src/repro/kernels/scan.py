"""Parallel prefix sum (scan) — the Hillis-Steele ladder.

Scan is the canonical building block GPGPU frameworks are judged by
(stream compaction, sorting, histogram).  On ES 2 it runs as
ceil(log2(n)) ping-pong passes: pass d adds the element 2^d to the
left, fragments with no left neighbour pass through.

The ladder runs in a :meth:`~repro.core.api.device.GpgpuDevice.launches`
scope that frees the spare ping-pong buffer.  Under graph mode that
scope is a deferred :class:`~repro.core.api.graph.LaunchGraph`, and
``exclusive_scan``'s shift pass fuses with the ladder's seed copy into
a single draw (the copy consumes the shifted array element-for-element
— the scheduler's map-chain rule).
"""

from __future__ import annotations

import numpy as np

from ..core.api.buffer import GpuArray
from ..core.api.device import GpgpuDevice
from ..core.api.kernel import Kernel
from ..core.numerics.formats import get_format

_SCAN_STEP_BODY = """
float self_ = fetch_a(gpgpu_index);
float partner = gpgpu_index - u_offset;
result = partner >= 0.0 ? self_ + fetch_a(partner) : self_;
"""


def make_scan_step_kernel(device: GpgpuDevice, fmt) -> Kernel:
    """One Hillis-Steele pass: ``out[i] = a[i] + a[i - offset]``."""
    fmt = get_format(fmt)
    return device.kernel(
        name=f"scan_step_{fmt.name}",
        inputs=[("a", fmt)],
        output=fmt,
        body=_SCAN_STEP_BODY,
        uniforms=[("u_offset", "float")],
        mode="gather",
    )


def make_scan_copy_kernel(device: GpgpuDevice, fmt) -> Kernel:
    """The identity pass seeding the ping-pong ladder."""
    fmt = get_format(fmt)
    return device.kernel(
        f"scan_copy_{fmt.name}", [("a", fmt)], fmt, "result = a;"
    )


def _scan_passes(source, identity, kernel, n, fmt, scope):
    """The scan schedule: seed copy + Hillis-Steele ladder over two
    ``scope`` scratches.  Returns the one holding the result."""
    ping = scope.scratch(n, fmt)
    pong = scope.scratch(n, fmt)
    scope.launch(identity, ping, {"a": source}, None)
    offset = 1
    while offset < n:
        scope.launch(kernel, pong, {"a": ping}, {"u_offset": float(offset)})
        ping, pong = pong, ping
        offset *= 2
    return ping


def inclusive_scan(device: GpgpuDevice, array: GpuArray,
                   kernel: Kernel = None) -> GpuArray:
    """Inclusive prefix sum of ``array`` on the GPU.

    Returns a new array of the same length/format (a kept graph
    scratch in graph mode — ``release()`` frees its texture); the
    input is left untouched.  Runs ceil(log2(n)) passes.
    """
    fmt = array.format
    if kernel is None:
        kernel = make_scan_step_kernel(device, fmt)
    identity = make_scan_copy_kernel(device, fmt)
    with device.launches() as scope:
        return scope.keep(
            _scan_passes(array, identity, kernel, array.length, fmt, scope)
        )


def exclusive_scan(device: GpgpuDevice, array: GpuArray) -> GpuArray:
    """Exclusive prefix sum: ``out[i] = sum(a[0:i])`` — an inclusive
    scan of the right-shifted input."""
    fmt = array.format
    shift = device.kernel(
        f"scan_shift_{fmt.name}",
        [("a", fmt)],
        fmt,
        "result = gpgpu_index > 0.5 ? fetch_a(gpgpu_index - 1.0) : 0.0;",
        mode="gather",
    )
    kernel = make_scan_step_kernel(device, fmt)
    identity = make_scan_copy_kernel(device, fmt)
    n = array.length
    # One scope for shift + ladder: under graph mode the shift output
    # feeds the seed copy element-for-element, so the scheduler fuses
    # the pair into a single draw.
    with device.launches() as scope:
        shifted = scope.scratch(n, fmt)
        scope.launch(shift, shifted, {"a": array})
        return scope.keep(
            _scan_passes(shifted, identity, kernel, n, fmt, scope)
        )
