"""Multi-pass parallel reduction.

ES 2 fragments cannot communicate, so reductions run as a ping-pong
of gather kernels, each pass halving the array until one element
remains — the classic GPGPU pattern the paper's framework enables.

Under the device's graph mode (``REPRO_GRAPH``), the ladder records
into a deferred :class:`~repro.core.api.graph.LaunchGraph`: each
per-pass intermediate is a graph scratch, allocated when its pass runs
and freed right after the next pass has read it, so at most two are
alive at once.
"""

from __future__ import annotations

import numpy as np

from ..core.api.buffer import GpuArray
from ..core.api.device import GpgpuDevice
from ..core.api.kernel import Kernel
from ..core.numerics.formats import get_format

_REDUCE_BODY = """
float lo = gpgpu_index * 2.0;
float hi = lo + 1.0;
float left = fetch_a(lo);
float right = hi < u_len ? fetch_a(hi) : 0.0;
result = left + right;
"""


def make_reduce_step_kernel(device: GpgpuDevice, fmt) -> Kernel:
    """One halving pass: ``out[i] = a[2i] + a[2i+1]`` (odd tail padded
    with zero via the ``u_len`` guard)."""
    fmt = get_format(fmt)
    return device.kernel(
        name=f"reduce_step_{fmt.name}",
        inputs=[("a", fmt)],
        output=fmt,
        body=_REDUCE_BODY,
        uniforms=[("u_len", "float")],
        mode="gather",
    )


def halving_ladder(array, kernel, alloc, launch):
    """The shared reduction pass loop, parameterised over allocation
    and launch so the eager path (``device.empty`` + direct call) and
    the graph path (``graph.scratch`` + ``graph.launch``) run the same
    schedule.  Returns (final array, intermediates made)."""
    current = array
    length = current.length
    made = []
    while length > 1:
        next_length = (length + 1) // 2
        target = alloc(next_length, current.format)
        made.append(target)
        launch(kernel, target, {"a": current}, {"u_len": float(length)})
        current = target
        length = next_length
    return current, made


def eager_launch(kernel, out, inputs, uniforms=None):
    """The eager ``launch`` callable for :func:`halving_ladder`."""
    return kernel(out, inputs, uniforms)


def reduce_sum(device: GpgpuDevice, array: GpuArray, kernel: Kernel = None):
    """Sum all elements of ``array`` on the GPU.

    Returns a Python scalar of the array's format.  Runs
    ceil(log2(n)) kernel passes; intermediate arrays are released
    after use (eagerly, or by the replay in graph mode).
    """
    fmt = array.format
    if kernel is None:
        kernel = make_reduce_step_kernel(device, fmt)
    if device.graph_enabled:
        with device.record() as graph:
            current, __ = halving_ladder(
                array, kernel, graph.scratch, graph.launch
            )
            graph.keep(current)
        result = current.to_host()[0]
        if current is not array:
            current.release()
        return result
    current, owned = halving_ladder(
        array, kernel, device.empty, eager_launch
    )
    result = current.to_host()[0]
    for array_ in owned:
        if array_ is not current:
            array_.release()
    return result
