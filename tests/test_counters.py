"""The counter registry (:mod:`repro.perf.counters`).

Pins down the properties the rest of the suite leans on:

* every counter is declared exactly once, and the generic
  snapshot/delta/merge/reset work on any tally;
* a context counts only its own work: interleaved devices each report
  the process delta of their own launches, and the per-context counts
  add up to the process total;
* a JIT run that fails part-way (a ``NameError``/``UnboundLocalError``
  after some gather sites fired) leaks none of its increments: the
  draw reports only the IR rerun, plus one ``jit.fallbacks``.
"""

from __future__ import annotations

import numpy as np

from repro import GpgpuDevice
from repro.glsl import jit
from repro.kernels import make_sum_kernel
from repro.perf import counters
from repro.perf.counters import ContextStats, DrawStats
from repro.testing import faults


def test_every_counter_is_declared_once():
    names = [name for name, __, __ in counters.DECLARATIONS]
    assert len(names) == len(set(names))
    aliases = [alias for __, __, alias in counters.DECLARATIONS if alias]
    assert len(aliases) == len(set(aliases))
    assert set(counters.SCOPES.values()) == {
        counters.PROCESS, counters.CONTEXT, counters.DRAW,
    }
    # Context counters live on the context, never in the process totals.
    assert set(counters.values) == {
        name for name, scope in counters.SCOPES.items()
        if scope != counters.CONTEXT
    }


def test_snapshot_delta_merge_reset(isolated_counters):
    before = counters.snapshot()
    counters.values["cache.disk.hits"] += 2
    counters.values["draw.texture_gathers"] += 5
    changed = counters.delta(before)
    assert changed == {"cache.disk.hits": 2, "draw.texture_gathers": 5}
    assert counters.snapshot(counters.DRAW)["draw.texture_gathers"] == 5
    tally = counters.zeros()
    counters.merge(changed, tally)
    counters.merge(changed, tally)
    assert counters.delta(counters.zeros(), tally) == {
        "cache.disk.hits": 4, "draw.texture_gathers": 10,
    }
    counters.restore(before)
    assert counters.delta(before) == {}
    counters.values["pool.draws"] += 1
    counters.reset()
    assert not any(counters.values.values())


def test_stats_aliases_read_and_write_the_tally():
    stats = ContextStats()
    stats.shader_compiles = 4
    stats.disk_cache_misses += 3
    assert stats.counts["compile.shaders"] == 4
    assert stats.counts["cache.disk.misses"] == 3
    stats.reset()
    assert stats.shader_compiles == 0 and stats.disk_cache_misses == 0
    draw = DrawStats(counts={"draw.texture_gathers": 7})
    assert draw.texture_gathers == 7 and draw.gather_fallbacks == 0


def _launch(device, scale):
    kernel = device.kernel(
        f"xctx_{scale}", [("a", "float32")], "float32",
        f"result = a * {scale}.0;",
    )
    out = device.empty(16, "float32")
    kernel(out, {"a": device.array(np.arange(16, dtype=np.float32))})
    return out.to_host()


def test_contexts_count_only_their_own_work(monkeypatch, tmp_path,
                                            isolated_counters):
    # A fresh private store, so every compile misses; interleaving the
    # devices A/B/A means a context that counted since its own last
    # read would absorb the other's misses.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    device_a = GpgpuDevice()
    device_b = GpgpuDevice()
    own = {id(device_a): 0, id(device_b): 0}
    start = counters.snapshot()
    for device, scale in ((device_a, 2), (device_b, 3), (device_a, 5)):
        before = counters.snapshot()
        _launch(device, scale)
        own[id(device)] += counters.delta(before).get("cache.disk.misses", 0)
    total = counters.delta(start)["cache.disk.misses"]
    assert device_a.ctx.stats.disk_cache_misses == own[id(device_a)]
    assert device_b.ctx.stats.disk_cache_misses == own[id(device_b)]
    assert own[id(device_a)] > 0 and own[id(device_b)] > 0
    assert (device_a.ctx.stats.disk_cache_misses
            + device_b.ctx.stats.disk_cache_misses) == total


def _sum_draw():
    # One in-process draw, whatever the environment asks for.
    device = GpgpuDevice(float_model="videocore", execution_backend="jit",
                         shade_workers=0)
    kernel = make_sum_kernel(device, "int32")
    a = np.arange(64, dtype=np.int32) - 7
    b = (np.arange(64, dtype=np.int32) * 3) % 41
    out = device.empty(64, "int32")
    kernel(out, {"a": device.array(a), "b": device.array(b)})
    return out.to_host(), device.ctx.stats.draws[-1]


def test_jit_partial_run_reports_only_the_ir_rerun(monkeypatch,
                                                   isolated_counters):
    with faults.suppress():
        expected, healthy = _sum_draw()
    assert healthy.texture_gathers > 0
    real = jit._jit_function
    failed = []

    def fails_after_gathering(program, fmodel, wide):
        fn = real(program, fmodel, wide)
        if fn is None or program.checked.stage != "fragment":
            return fn

        def run(regs, n, maxit):
            fn(regs, n, maxit)  # every gather site fires
            failed.append(n)
            raise UnboundLocalError("cross-region local never bound")

        return run

    monkeypatch.setattr(jit, "_jit_function", fails_after_gathering)
    before = counters.snapshot()
    with faults.suppress():
        got, draw = _sum_draw()
    changed = counters.delta(before)
    assert failed
    assert np.array_equal(got, expected)
    assert draw.texture_gathers == 0 and draw.gather_fallbacks == 0
    assert changed["jit.fallbacks"] == 1
    assert "draw.texture_gathers" not in changed
    assert "draw.gather_fallbacks" not in changed

