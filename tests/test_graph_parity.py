"""Eager-vs-graph bit-identity matrix (ISSUE 7 satellite).

Every multi-pass kernel driver (reduce, scan, sort) and the graph-aware
workloads run twice — eagerly and through the launch-graph scheduler —
on every execution backend, plus multiprocess shading for the JIT.  The contract: byte-identical results, equal readback traffic, and
an exact draw-count ledger (eager draws = graph executed + elided).
Where fusion applies, the counters must show it, and every
materialised scratch is one fresh allocation.
"""

import numpy as np
import pytest

from repro import GpgpuDevice
from repro.kernels.minmax import argmin_via_encoding, reduce_max, reduce_min
from repro.kernels.reduction import reduce_sum
from repro.kernels.scan import exclusive_scan, inclusive_scan
from repro.kernels.sort import sort_host_array
from repro.workloads.hotspot import hotspot_cpu, hotspot_gpu
from repro.workloads.kmeans import kmeans_assign_cpu, kmeans_assign_gpu
from repro.workloads.pathfinder import pathfinder_cpu, pathfinder_gpu

#: The worker configs run with the pool floor lowered (the
#: ``pool_floor`` fixture), so every draw of these small drivers
#: splits across the pool: ``jit-tiled`` into three contiguous chunks,
#: ``jit-workers`` into two.
CONFIGS = [
    pytest.param("ir", {}, id="ir"),
    pytest.param("jit", {}, id="jit"),
    pytest.param("jit", {"shade_workers": 3}, id="jit-tiled"),
    pytest.param("jit", {"shade_workers": 2}, id="jit-workers"),
]


def make_pair(backend, opts):
    """A fresh (eager, graph) device pair with identical settings."""
    eager = GpgpuDevice(
        float_model="ieee32", execution_backend=backend,
        graph_mode=False, **opts,
    )
    graph = GpgpuDevice(
        float_model="ieee32", execution_backend=backend,
        graph_mode=True, **opts,
    )
    return eager, graph


def bits(array):
    array = np.asarray(array)
    if array.dtype == np.float32:
        return array.view(np.uint32)
    return array


def assert_ledger(eager_dev, graph_dev, fused=0):
    """The non-elided DrawStats must match launch-for-launch."""
    es, gs = eager_dev.ctx.stats, graph_dev.ctx.stats
    assert gs.fused_draws == fused
    assert len(es.draws) == len(gs.draws) + gs.elided_draws
    assert es.readback_bytes == gs.readback_bytes
    if fused == 0:
        assert gs.elided_draws == 0
        assert gs.elided_intermediate_bytes == 0
        assert [d.fragment_invocations for d in es.draws] == [
            d.fragment_invocations for d in gs.draws
        ]
        assert [d.framebuffer_writes for d in es.draws] == [
            d.framebuffer_writes for d in gs.draws
        ]
        assert es.texture_upload_bytes == gs.texture_upload_bytes
    else:
        # Fusion's only upload delta is the never-materialised
        # intermediates (each elided byte count covers the write + the
        # re-read of one w*h*4 texel surface).
        assert es.texture_upload_bytes - gs.texture_upload_bytes == (
            gs.elided_intermediate_bytes // 2
        )


@pytest.mark.usefixtures("pool_floor")
@pytest.mark.parametrize("backend,opts", CONFIGS)
class TestDriverParity:
    def test_reduce_sum(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        host = np.linspace(-40.0, 25.0, 300, dtype=np.float32)
        expected = reduce_sum(eager_dev, eager_dev.array(host))
        got = reduce_sum(graph_dev, graph_dev.array(host))
        assert np.float32(expected).tobytes() == np.float32(got).tobytes()
        assert_ledger(eager_dev, graph_dev)
        # 300 -> 9 halving passes, one fresh scratch each.
        assert graph_dev.ctx.stats.scratch_allocs == 9

    def test_reduce_min_max(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        host = np.linspace(9.0, -13.0, 150, dtype=np.float32)
        for fn in (reduce_min, reduce_max):
            expected = fn(eager_dev, eager_dev.array(host))
            got = fn(graph_dev, graph_dev.array(host))
            assert np.float32(expected).tobytes() == np.float32(got).tobytes()
        assert_ledger(eager_dev, graph_dev)

    def test_inclusive_scan(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        host = (np.arange(65, dtype=np.int32) % 11 - 5).astype(np.int32)
        expected = inclusive_scan(eager_dev, eager_dev.array(host))
        got = inclusive_scan(graph_dev, graph_dev.array(host))
        assert np.array_equal(bits(expected.to_host()), bits(got.to_host()))
        got.release()
        # the seed copy feeds a gather ladder: nothing fuses; the
        # ladder ping-pongs between two scratches
        assert_ledger(eager_dev, graph_dev)
        assert graph_dev.ctx.stats.scratch_allocs == 2

    def test_exclusive_scan_fuses_shift_into_seed(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        host = np.linspace(0.25, 16.0, 64, dtype=np.float32)
        expected = exclusive_scan(eager_dev, eager_dev.array(host))
        got = exclusive_scan(graph_dev, graph_dev.array(host))
        assert np.array_equal(bits(expected.to_host()), bits(got.to_host()))
        got.release()
        assert_ledger(eager_dev, graph_dev, fused=1)
        # the fused shift never materialises: only ping and pong do
        assert graph_dev.ctx.stats.scratch_allocs == 2

    def test_bitonic_sort(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        rng = np.random.RandomState(7)
        host = rng.uniform(-50.0, 50.0, 64).astype(np.float32)
        expected = sort_host_array(eager_dev, host)
        got = sort_host_array(graph_dev, host)
        assert np.array_equal(bits(expected), bits(got))
        assert np.array_equal(got, np.sort(host))
        assert_ledger(eager_dev, graph_dev)

    def test_argmin_via_encoding(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        rng = np.random.RandomState(11)
        host = rng.uniform(-4.0, 4.0, 96).astype(np.float32)
        expected = argmin_via_encoding(eager_dev, host)
        got = argmin_via_encoding(graph_dev, host)
        assert expected == got == int(np.argmin(host))
        # encode feeds a gather ladder: no fusion; the encoded array
        # plus 96 -> 7 halving passes, one fresh scratch each
        assert_ledger(eager_dev, graph_dev)
        assert graph_dev.ctx.stats.scratch_allocs == 8


@pytest.mark.usefixtures("pool_floor")
@pytest.mark.parametrize("backend,opts", CONFIGS)
class TestWorkloadParity:
    def test_hotspot(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        rng = np.random.RandomState(3)
        temp = rng.uniform(20.0, 80.0, (8, 8)).astype(np.float32)
        power = rng.uniform(0.0, 1.0, (8, 8)).astype(np.float32)
        expected = hotspot_gpu(eager_dev, temp, power, iterations=3)
        got = hotspot_gpu(graph_dev, temp, power, iterations=3)
        assert np.array_equal(bits(expected), bits(got))
        assert np.allclose(got, hotspot_cpu(temp, power, 3), atol=1e-3)
        assert_ledger(eager_dev, graph_dev)

    def test_pathfinder(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        rng = np.random.RandomState(5)
        grid = rng.randint(0, 10, (6, 16)).astype(np.int32)
        expected = pathfinder_gpu(eager_dev, grid)
        got = pathfinder_gpu(graph_dev, grid)
        assert np.array_equal(expected, got)
        assert np.array_equal(got, pathfinder_cpu(grid))
        assert_ledger(eager_dev, graph_dev)

    def test_kmeans_normalized_assign_fuses(self, backend, opts):
        eager_dev, graph_dev = make_pair(backend, opts)
        rng = np.random.RandomState(13)
        points = rng.uniform(90.0, 110.0, (40, 2)).astype(np.float32)
        centroids = np.array(
            [[95.0, 95.0], [100.0, 105.0], [108.0, 96.0]],
            dtype=np.float32,
        )
        expected = kmeans_assign_gpu(
            eager_dev, points, centroids, shift=100.0, scale=0.25
        )
        got = kmeans_assign_gpu(
            graph_dev, points, centroids, shift=100.0, scale=0.25
        )
        assert np.array_equal(expected, got)
        assert np.array_equal(got, kmeans_assign_cpu(points, centroids))
        # one shift->scale fusion per coordinate set
        assert_ledger(eager_dev, graph_dev, fused=2)
