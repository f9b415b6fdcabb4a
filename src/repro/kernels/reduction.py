"""Multi-pass parallel reduction.

ES 2 fragments cannot communicate, so reductions run as a ping-pong
of gather kernels, each pass halving the array until one element
remains — the classic GPGPU pattern the paper's framework enables.

The ladder runs in a :meth:`~repro.core.api.device.GpgpuDevice.launches`
scope, which frees every per-pass intermediate when the driver is
done.  Under the device's graph mode (``REPRO_GRAPH``) that scope is
a deferred :class:`~repro.core.api.graph.LaunchGraph`: each
intermediate is allocated when its pass runs and freed right after the
next pass has read it, so at most two are alive at once.
"""

from __future__ import annotations

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


def halving_ladder(array, kernel, scope):
    """The reduction pass loop: halve ``array`` with ``kernel`` until
    one element is left, allocating each pass's output as a ``scope``
    scratch.  Returns the final one-element array (``array`` itself
    when it already has one element)."""
    current = array
    length = current.length
    while length > 1:
        next_length = (length + 1) // 2
        target = scope.scratch(next_length, current.format)
        scope.launch(kernel, target, {"a": current}, {"u_len": float(length)})
        current = target
        length = next_length
    return current


def ladder_scalar(device: GpgpuDevice, array: GpuArray, kernel: Kernel):
    """Run :func:`halving_ladder` over ``array`` and read back the
    single element left; every array the ladder made is freed."""
    with device.launches() as scope:
        result = scope.keep(halving_ladder(array, kernel, scope))
    try:
        return result.to_host()[0]
    finally:
        if result is not array:
            result.release()


def reduce_sum(device: GpgpuDevice, array: GpuArray, kernel: Kernel = None):
    """Sum all elements of ``array`` on the GPU.

    Returns a Python scalar of the array's format.  Runs
    ceil(log2(n)) kernel passes and frees every intermediate.
    """
    if kernel is None:
        kernel = make_reduce_step_kernel(device, array.format)
    return ladder_scalar(device, array, kernel)
