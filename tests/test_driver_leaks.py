"""Every multi-pass driver frees what it allocates.

GL names are never reused, so everything a call creates lies strictly
between two probe names generated before and after it.  After a
driver returns, the only live textures and framebuffers in that window
are the ones the caller owns (a returned ``GpuArray``); after the
caller releases it, none.  This holds eagerly and under graph mode,
and also when a launch raises halfway through the driver.
"""

import numpy as np
import pytest

from repro import GpgpuDevice
from repro.core.api.kernel import Kernel
from repro.kernels.minmax import argmin_via_encoding, reduce_max, reduce_min
from repro.kernels.reduction import reduce_sum
from repro.kernels.scan import exclusive_scan, inclusive_scan
from repro.kernels.sort import bitonic_sort, sort_host_array
from repro.workloads.hotspot import hotspot_gpu
from repro.workloads.kmeans import kmeans_assign_gpu
from repro.workloads.nn import nearest_neighbor_gpu
from repro.workloads.pathfinder import pathfinder_gpu

RNG = np.random.default_rng(31)
INTS = (RNG.integers(-50, 50, 1024)).astype(np.int32)
FLOATS = RNG.uniform(-1e3, 1e3, 64).astype(np.float32)
POINTS = RNG.standard_normal((48, 2)).astype(np.float32)
CENTROIDS = RNG.standard_normal((4, 2)).astype(np.float32) * 2
TEMP = RNG.uniform(20, 90, (8, 8)).astype(np.float32)
POWER = RNG.uniform(0, 1, (8, 8)).astype(np.float32)
GRID = RNG.integers(0, 10, (6, 16)).astype(np.int32)
LAT, LON = RNG.uniform(-60, 60, (2, 64)).astype(np.float32)


#: name -> call(device, caller-owned int32 array of 1024 elements)
DRIVERS = {
    "reduce_sum": reduce_sum,
    "reduce_min": reduce_min,
    "reduce_max": reduce_max,
    "inclusive_scan": inclusive_scan,
    "exclusive_scan": exclusive_scan,
    "bitonic_sort": bitonic_sort,
    "sort_host_array": lambda d, a: sort_host_array(d, FLOATS),
    "argmin_via_encoding": lambda d, a: argmin_via_encoding(d, FLOATS),
    "kmeans": lambda d, a: kmeans_assign_gpu(d, POINTS, CENTROIDS),
    "kmeans_normalized": lambda d, a: kmeans_assign_gpu(
        d, POINTS, CENTROIDS, shift=0.5, scale=2.0
    ),
    "hotspot": lambda d, a: hotspot_gpu(d, TEMP, POWER, 3),
    "pathfinder": lambda d, a: pathfinder_gpu(d, GRID),
    "nearest_neighbor": lambda d, a: nearest_neighbor_gpu(
        d, LAT, LON, (12.5, -7.25)
    ),
}

#: Drivers that return a GpuArray the caller must release.
RETURNS_ARRAY = {inclusive_scan, exclusive_scan, bitonic_sort}

MODES = [pytest.param(False, id="eager"), pytest.param(True, id="graph")]


def live_names(device, call):
    """Run ``call()``; return its result and the textures and
    framebuffers it left alive."""
    ctx = device.ctx
    (tex_lo,) = ctx.glGenTextures(1)
    (fbo_lo,) = ctx.glGenFramebuffers(1)
    result = call()
    (tex_hi,) = ctx.glGenTextures(1)
    (fbo_hi,) = ctx.glGenFramebuffers(1)
    textures = [n for n in range(tex_lo + 1, tex_hi) if ctx.glIsTexture(n)]
    framebuffers = [
        n for n in range(fbo_lo + 1, fbo_hi) if ctx.glIsFramebuffer(n)
    ]
    return result, textures, framebuffers


def make_device(graph_mode):
    device = GpgpuDevice(float_model="ieee32", graph_mode=graph_mode)
    return device, device.array(INTS)


@pytest.mark.parametrize("graph_mode", MODES)
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_driver_leaves_only_what_it_returns(name, graph_mode):
    call = DRIVERS[name]
    device, source = make_device(graph_mode)
    # A first call builds the kernels and the device's cached readback
    # scratch, which live as long as the device.
    first = call(device, source)
    if call in RETURNS_ARRAY:
        first.release()
    result, textures, framebuffers = live_names(
        device, lambda: call(device, source)
    )
    if call in RETURNS_ARRAY:
        assert textures == [result.texture]
        assert framebuffers == [result.framebuffer()]
        result.release()
        ctx = device.ctx
        assert not any(ctx.glIsTexture(n) for n in textures)
        assert not any(ctx.glIsFramebuffer(n) for n in framebuffers)
    else:
        assert (textures, framebuffers) == ([], [])
    assert device._active_graph is None


class LaunchFault(RuntimeError):
    pass


def fail_launch(monkeypatch, at):
    """Make the ``at``-th kernel execution from now on raise."""
    original = Kernel._execute
    seen = []

    def execute(self, out, inputs, uniforms):
        seen.append(self.name)
        if len(seen) == at:
            raise LaunchFault(f"injected failure in launch {at}")
        return original(self, out, inputs, uniforms)

    monkeypatch.setattr(Kernel, "_execute", execute)


def raising_call_leaves(monkeypatch, device, call, at):
    """Run ``call()`` with its ``at``-th launch raising; return the
    textures and framebuffers it left alive."""
    def failing():
        fail_launch(monkeypatch, at)
        try:
            with pytest.raises(LaunchFault):
                call()
        finally:
            monkeypatch.undo()

    __, textures, framebuffers = live_names(device, failing)
    assert device._active_graph is None
    return textures, framebuffers


#: Which launch raises: the second by default (one pass has drawn into
#: a framebuffer); kmeans makes only one launch; reduce_sum on 1024
#: ints fails in its 4th pass, halfway down the ladder;
#: nearest_neighbor fails in its own distance pass, before the argmin.
FAIL_AT = {"kmeans": 1, "reduce_sum": 4, "nearest_neighbor": 1}


@pytest.mark.parametrize("graph_mode", MODES)
@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_raising_launch_frees_everything(monkeypatch, name, graph_mode):
    call = DRIVERS[name]
    device, source = make_device(graph_mode)
    assert raising_call_leaves(
        monkeypatch, device, lambda: call(device, source),
        FAIL_AT.get(name, 2),
    ) == ([], [])
    # The device still works after the failed call.
    result = call(device, source)
    if call in RETURNS_ARRAY:
        result.release()
    elif name == "reduce_sum":
        assert result == INTS.sum()
