"""Launch-graph tests: recording, fusion, scratch lifetimes.

The eager-vs-graph bit-identity matrix over drivers and workloads
lives in ``test_graph_parity.py``; this file unit-tests the scheduler
itself.
"""

import numpy as np
import pytest

from repro import GpgpuDevice, GpgpuError
from repro.core.api.device import Launches
from repro.core.api.graph import LaunchGraph
from repro.core.codegen.fuse import (
    FusedStage,
    compose_chain,
    stage_unfusable_reason,
)
from repro.kernels.reduction import make_reduce_step_kernel


def make_chain_kernels(device, fmt="float32"):
    k1 = device.kernel(
        "gshift", [("a", fmt)], fmt,
        "result = a + u_shift;", uniforms=[("u_shift", "float")],
    )
    k2 = device.kernel(
        "gscale", [("a", fmt)], fmt,
        "result = u_factor * a;", uniforms=[("u_factor", "float")],
    )
    return k1, k2


def run_chain_eager(device, host, fmt="float32"):
    k1, k2 = make_chain_kernels(device, fmt)
    src = device.array(host)
    mid = device.empty(len(host), fmt)
    k1(mid, {"a": src}, {"u_shift": 1.5})
    out = device.empty(len(host), fmt)
    k2(out, {"a": mid}, {"u_factor": 2.0})
    return out.to_host()


def run_chain_graph(device, host, fmt="float32"):
    k1, k2 = make_chain_kernels(device, fmt)
    src = device.array(host)
    with device.record() as graph:
        mid = graph.scratch(len(host), fmt)
        graph.launch(k1, mid, {"a": src}, {"u_shift": 1.5})
        out = graph.scratch(len(host), fmt)
        graph.launch(k2, out, {"a": mid}, {"u_factor": 2.0})
        graph.keep(out)
    host_out = out.to_host()
    out.release()
    return host_out, graph.stats


HOST = np.linspace(-5.0, 9.0, 77, dtype=np.float32)


class TestRecording:
    def test_record_validates_eagerly(self, device):
        k1, __ = make_chain_kernels(device)
        src = device.array(HOST)
        with pytest.raises(GpgpuError, match="expects inputs"):
            with device.record() as graph:
                out = graph.scratch(len(HOST), "float32")
                graph.launch(k1, out, {"wrong": src})

    def test_record_is_not_reentrant(self, device):
        with device.record():
            with pytest.raises(GpgpuError, match="not reentrant"):
                device.record()
        # after the block a new recording may start
        with device.record():
            pass

    def test_launches_records_only_under_the_knob_and_no_active_graph(self):
        device = GpgpuDevice(graph_mode=True)
        scope = device.launches()
        assert isinstance(scope, LaunchGraph)
        assert device._active_graph is scope
        with scope:
            nested = device.launches()
            assert type(nested) is Launches
        assert device._active_graph is None
        with device.launches() as again:
            assert isinstance(again, LaunchGraph)
        assert type(GpgpuDevice(graph_mode=False).launches()) is Launches

    def test_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH", "1")
        assert GpgpuDevice().graph_mode
        monkeypatch.setenv("REPRO_GRAPH", "0")
        assert not GpgpuDevice().graph_mode

    def test_replay_twice_raises(self, device):
        with device.record() as graph:
            pass
        with pytest.raises(GpgpuError, match="already been replayed"):
            graph.replay()

    def test_exception_aborts_without_replay(self, device):
        k1, __ = make_chain_kernels(device)
        src = device.array(HOST)
        with pytest.raises(RuntimeError):
            with device.record() as graph:
                out = graph.scratch(len(HOST), "float32")
                graph.launch(k1, out, {"a": src}, {"u_shift": 1.0})
                raise RuntimeError("abort")
        assert not graph.closed or graph.stats is None
        assert device._active_graph is None


class TestFusion:
    def test_map_chain_fuses_and_matches_eager(self):
        eager = run_chain_eager(GpgpuDevice(float_model="ieee32"), HOST)
        graph_out, stats = run_chain_graph(
            GpgpuDevice(float_model="ieee32", graph_mode=True), HOST
        )
        assert np.array_equal(
            eager.view(np.uint32), graph_out.view(np.uint32)
        )
        assert stats.fused_draws == 1
        assert stats.elided_draws == 1
        assert stats.executed_draws == 1
        assert stats.elided_intermediate_bytes > 0

    def test_three_stage_chain_is_one_draw(self, device):
        k1, k2 = make_chain_kernels(device)
        src = device.array(HOST)
        # eager
        a = device.empty(len(HOST), "float32")
        k1(a, {"a": src}, {"u_shift": 1.0})
        b = device.empty(len(HOST), "float32")
        k2(b, {"a": a}, {"u_factor": 3.0})
        c = device.empty(len(HOST), "float32")
        k1(c, {"a": b}, {"u_shift": -2.0})
        expected = c.to_host()
        draws_before = len(device.ctx.stats.draws)
        with device.record() as graph:
            ga = graph.scratch(len(HOST), "float32")
            graph.launch(k1, ga, {"a": src}, {"u_shift": 1.0})
            gb = graph.scratch(len(HOST), "float32")
            graph.launch(k2, gb, {"a": ga}, {"u_factor": 3.0})
            gc = graph.scratch(len(HOST), "float32")
            graph.launch(k1, gc, {"a": gb}, {"u_shift": -2.0})
            graph.keep(gc)
        assert graph.stats.fused_draws == 1
        assert graph.stats.elided_draws == 2
        assert len(device.ctx.stats.draws) == draws_before + 1
        assert np.array_equal(
            expected.view(np.uint32), gc.to_host().view(np.uint32)
        )

    def test_fused_program_is_cached(self, device):
        hits_before = device.kernel_cache_hits
        run_chain_graph(device, HOST)
        hits_mid = device.kernel_cache_hits
        run_chain_graph(device, HOST)
        # second replay builds the identical fused source -> cache hit
        assert device.kernel_cache_hits > hits_mid >= hits_before

    def test_integer_chain_roundtrip_matches_eager(self):
        host = (np.arange(77, dtype=np.int32) * 13 - 450).astype(np.int32)
        eager = run_chain_eager(GpgpuDevice(), host, fmt="int32")
        graph_out, stats = run_chain_graph(
            GpgpuDevice(graph_mode=True), host, fmt="int32"
        )
        assert stats.fused_draws == 1
        assert np.array_equal(eager, graph_out)

    def test_gather_consumer_does_not_fuse(self, device):
        """A consumer reading the intermediate at non-identity indices
        must stay on the eager path — and still be correct."""
        k1, __ = make_chain_kernels(device)
        rev = device.kernel(
            "grev", [("a", "float32")], "float32",
            "result = fetch_a(u_len - 1.0 - gpgpu_index);",
            uniforms=[("u_len", "float")], mode="gather",
        )
        src = device.array(HOST)
        mid = device.empty(len(HOST), "float32")
        k1(mid, {"a": src}, {"u_shift": 1.5})
        out = device.empty(len(HOST), "float32")
        rev(out, {"a": mid}, {"u_len": float(len(HOST))})
        expected = out.to_host()
        with device.record() as graph:
            gm = graph.scratch(len(HOST), "float32")
            graph.launch(k1, gm, {"a": src}, {"u_shift": 1.5})
            go = graph.scratch(len(HOST), "float32")
            graph.launch(rev, go, {"a": gm}, {"u_len": float(len(HOST))})
            graph.keep(go)
        assert graph.stats.fused_draws == 0
        assert graph.stats.executed_draws == 2
        assert np.array_equal(
            expected.view(np.uint32), go.to_host().view(np.uint32)
        )

    def test_multi_consumer_intermediate_does_not_fuse(self, device):
        k1, k2 = make_chain_kernels(device)
        src = device.array(HOST)
        with device.record() as graph:
            mid = graph.scratch(len(HOST), "float32")
            graph.launch(k1, mid, {"a": src}, {"u_shift": 1.0})
            # mid has two consumers (both kept) -> nothing fuses.
            left = graph.scratch(len(HOST), "float32")
            graph.launch(k2, left, {"a": mid}, {"u_factor": 2.0})
            right = graph.scratch(len(HOST), "float32")
            graph.launch(k2, right, {"a": mid}, {"u_factor": 3.0})
            graph.keep(left)
            graph.keep(right)
        assert graph.stats.fused_draws == 0
        assert graph.stats.executed_draws == 3
        assert np.allclose(left.to_host(), (HOST + 1.0) * 2.0, atol=1e-2)
        assert np.allclose(right.to_host(), (HOST + 1.0) * 3.0, atol=1e-2)
        left.release()
        right.release()

    def test_single_intermediate_into_two_input_map_fuses(self, device):
        """A two-input map whose *other* input is external still fuses
        with the producer of its scratch input."""
        k1, __ = make_chain_kernels(device)
        add = device.kernel(
            "gadd", [("a", "float32"), ("b", "float32")], "float32",
            "result = a + b;",
        )
        src = device.array(HOST)
        other = device.array(np.flip(HOST).copy())
        # eager reference
        mid_e = device.empty(len(HOST), "float32")
        k1(mid_e, {"a": src}, {"u_shift": 1.0})
        out_e = device.empty(len(HOST), "float32")
        add(out_e, {"a": mid_e, "b": other})
        expected = out_e.to_host()
        with device.record() as graph:
            mid = graph.scratch(len(HOST), "float32")
            graph.launch(k1, mid, {"a": src}, {"u_shift": 1.0})
            out = graph.scratch(len(HOST), "float32")
            graph.launch(add, out, {"a": mid, "b": other})
            graph.keep(out)
        assert graph.stats.fused_draws == 1
        assert np.array_equal(
            expected.view(np.uint32), out.to_host().view(np.uint32)
        )

    def test_mismatched_lengths_do_not_fuse(self, device):
        kernel = make_reduce_step_kernel(device, "int32")
        src = device.array(np.arange(64, dtype=np.int32))
        with device.record() as graph:
            mid = graph.scratch(32, "int32")
            graph.launch(kernel, mid, {"a": src}, {"u_len": 64.0})
            out = graph.scratch(16, "int32")
            graph.launch(kernel, out, {"a": mid}, {"u_len": 32.0})
            graph.keep(out)
        assert graph.stats.fused_draws == 0
        assert np.array_equal(
            out.to_host(),
            np.arange(64).reshape(16, 4).sum(axis=1).astype(np.int32),
        )

    def test_rewritten_producer_input_blocks_fusion(self, device):
        """Fusing moves the producer's reads to the consumer's
        position; a write to the producer's input in between must
        prevent that."""
        k1, k2 = make_chain_kernels(device)
        copy = device.kernel(
            "gcopy", [("a", "float32")], "float32", "result = a;"
        )
        src = device.array(HOST)
        other = device.array(-HOST)
        target = device.array(np.zeros_like(HOST))
        # eager reference
        mid_e = device.empty(len(HOST), "float32")
        k1(mid_e, {"a": target}, {"u_shift": 1.5})
        copy(target, {"a": other})
        out_e = device.empty(len(HOST), "float32")
        k2(out_e, {"a": mid_e}, {"u_factor": 2.0})
        expected = out_e.to_host()
        target.upload(np.zeros_like(HOST))
        with device.record() as graph:
            mid = graph.scratch(len(HOST), "float32")
            graph.launch(k1, mid, {"a": target}, {"u_shift": 1.5})
            graph.launch(copy, target, {"a": other})
            out = graph.scratch(len(HOST), "float32")
            graph.launch(k2, out, {"a": mid}, {"u_factor": 2.0})
            graph.keep(out)
        assert graph.stats.fused_draws == 0
        assert np.array_equal(
            expected.view(np.uint32), out.to_host().view(np.uint32)
        )

    def test_floor_quantization_stays_eager(self):
        """The printed-equation floor conversion is not reproducible
        in fused shader arithmetic; the scheduler must not fuse."""
        eager = run_chain_eager(
            GpgpuDevice(quantization="floor", float_model="ieee32"), HOST
        )
        device = GpgpuDevice(
            quantization="floor", float_model="ieee32", graph_mode=True
        )
        graph_out, stats = run_chain_graph(device, HOST)
        assert stats.fused_draws == 0
        assert np.array_equal(
            eager.view(np.uint32), graph_out.view(np.uint32)
        )

    def test_uniforms_route_to_their_stage(self, device):
        """The same kernel twice in one chain with different uniform
        values — each stage must receive its own."""
        __, k2 = make_chain_kernels(device)
        src = device.array(HOST)
        with device.record() as graph:
            mid = graph.scratch(len(HOST), "float32")
            graph.launch(k2, mid, {"a": src}, {"u_factor": 2.0})
            out = graph.scratch(len(HOST), "float32")
            graph.launch(k2, out, {"a": mid}, {"u_factor": 3.0})
            graph.keep(out)
        assert graph.stats.fused_draws == 1
        mid_e = device.empty(len(HOST), "float32")
        k2(mid_e, {"a": src}, {"u_factor": 2.0})
        out_e = device.empty(len(HOST), "float32")
        k2(out_e, {"a": mid_e}, {"u_factor": 3.0})
        assert np.array_equal(
            out_e.to_host().view(np.uint32),
            out.to_host().view(np.uint32),
        )


def record_reduce_ladder(device, src):
    """Record a halving reduce ladder over ``src``; returns the graph
    and its kept one-element result."""
    kernel = make_reduce_step_kernel(device, src.format)
    with device.record() as graph:
        current = src
        length = src.length
        while length > 1:
            next_length = (length + 1) // 2
            target = graph.scratch(next_length, src.format)
            graph.launch(
                kernel, target, {"a": current}, {"u_len": float(length)},
            )
            current = target
            length = next_length
        graph.keep(current)
    return graph, current


class TestPoolingAndLiveness:
    def test_reduce_ladder_allocates_one_scratch_per_pass(self):
        device = GpgpuDevice(execution_backend="jit", graph_mode=True)
        host = (np.arange(2**14) % 7).astype(np.int32)
        graph, result = record_reduce_ladder(device, device.array(host))
        assert graph.stats.recorded == 14
        assert graph.stats.scratch_allocs == 14
        assert graph.stats.scratch_reuses == 0
        assert result.to_host()[0] == host.sum()

    def test_replay_deletes_unkept_scratch_objects(self):
        device = GpgpuDevice(execution_backend="jit", graph_mode=True)
        ctx = device.ctx
        src = device.array(np.arange(16, dtype=np.int32))
        # GL names are never reused: everything the replay created
        # lies strictly between two probe names.
        (tex_lo,) = ctx.glGenTextures(1)
        (fbo_lo,) = ctx.glGenFramebuffers(1)
        graph, result = record_reduce_ladder(device, src)
        (tex_hi,) = ctx.glGenTextures(1)
        (fbo_hi,) = ctx.glGenFramebuffers(1)
        kept_tex, kept_fbo = result.texture, result.framebuffer()
        assert [
            n for n in range(tex_lo + 1, tex_hi) if ctx.glIsTexture(n)
        ] == [kept_tex]
        assert [
            n for n in range(fbo_lo + 1, fbo_hi) if ctx.glIsFramebuffer(n)
        ] == [kept_fbo]
        assert graph.stats.scratch_allocs == 4
        assert result.to_host()[0] == np.arange(16).sum()
        result.release()
        assert not ctx.glIsTexture(kept_tex)
        assert not ctx.glIsFramebuffer(kept_fbo)

    def test_each_graph_allocates_its_own_scratch(self, device):
        __, first = run_chain_graph(device, HOST)
        __, second = run_chain_graph(device, HOST)
        # the fused chain materialises only its kept output
        assert first.scratch_allocs == second.scratch_allocs == 1
        assert second.scratch_reuses == 0

    def test_unobserved_launch_still_runs(self, device):
        k1, __ = make_chain_kernels(device)
        src = device.array(HOST)
        draws_before = len(device.ctx.stats.draws)
        with device.record() as graph:
            unread = graph.scratch(len(HOST), "float32")
            graph.launch(k1, unread, {"a": src}, {"u_shift": 1.0})
            out = graph.scratch(len(HOST), "float32")
            graph.launch(k1, out, {"a": src}, {"u_shift": 2.0})
            graph.keep(out)
        assert graph.stats.executed_draws == 2
        assert len(device.ctx.stats.draws) == draws_before + 2
        with pytest.raises(GpgpuError, match="keep"):
            unread.to_host()

    def test_write_to_real_array_is_never_dead(self, device):
        k1, __ = make_chain_kernels(device)
        src = device.array(HOST)
        out = device.empty(len(HOST), "float32")
        with device.record() as graph:
            graph.launch(k1, out, {"a": src}, {"u_shift": 4.0})
        assert graph.stats.executed_draws == 1
        assert np.allclose(out.to_host(), HOST + 1.5 + 2.5, atol=1e-4)

    def test_unkept_scratch_cannot_be_read_after_replay(self, device):
        k1, __ = make_chain_kernels(device)
        src = device.array(HOST)
        with device.record() as graph:
            mid = graph.scratch(len(HOST), "float32")
            graph.launch(k1, mid, {"a": src}, {"u_shift": 1.0})
            out = graph.scratch(len(HOST), "float32")
            graph.launch(k1, out, {"a": mid}, {"u_shift": 1.0})
            graph.keep(out)
        with pytest.raises(GpgpuError, match="keep"):
            mid.to_host()

    def test_scratch_before_replay_has_no_storage(self, device):
        with device.record() as graph:
            s = graph.scratch(8, "float32")
            with pytest.raises(GpgpuError, match="not.*replayed"):
                s.to_host()
            graph.keep(s)
        # kept but never written: materialised as zeros, like empty()
        assert np.array_equal(s.to_host(), np.zeros(8, dtype=np.float32))

    def test_kept_result_is_direct_readback(self, device):
        k1, __ = make_chain_kernels(device)
        src = device.array(HOST)
        with device.record() as graph:
            out = graph.scratch(len(HOST), "float32")
            graph.launch(k1, out, {"a": src}, {"u_shift": 1.0})
            graph.keep(out)
        readbacks_before = device.ctx.stats.readback_bytes
        draws_before = len(device.ctx.stats.draws)
        out.to_host()
        # framebuffer-resident: no copy-shader draw was needed
        assert len(device.ctx.stats.draws) == draws_before
        assert device.ctx.stats.readback_bytes > readbacks_before


class TestElidedTransferAccounting:
    def test_wall_clock_reports_elided_transfers(self, device):
        run_chain_graph(device, HOST)
        timeline = device.wall_time()
        assert timeline.elided_transfer_seconds > 0.0
        assert "(elided)" in timeline.breakdown()
        # time saved is reported, never added to the spent total
        total = (
            timeline.compile_seconds + timeline.upload_seconds
            + timeline.execute_seconds + timeline.readback_seconds
        )
        assert timeline.total_seconds == total


class TestFuseModule:
    def test_stage_needs_spec(self):
        assert stage_unfusable_reason(None, []) is not None

    def test_compose_requires_two_stages(self, device):
        k1, __ = make_chain_kernels(device)
        with pytest.raises(ValueError):
            compose_chain([FusedStage(spec=k1.spec)])

    def test_from_source_kernels_have_no_spec_and_skip_fusion(self, device):
        multi = device.multi_output_kernel(
            "pair", [("a", "float32")], ["float32", "float32"],
            "result0 = a + 1.0;\nresult1 = a * 2.0;",
        )
        assert all(k.spec is None for k in multi.kernels)
        assert stage_unfusable_reason(multi.kernels[0].spec, []) is not None
