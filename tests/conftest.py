"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import os
import tempfile

import pytest

from repro import GpgpuDevice

# Keep test runs out of the user's real artifact store (~/.cache/repro):
# unless the invoker pins REPRO_CACHE_DIR (the warm-CI leg does, to
# share a store across two runs), each session writes to its own
# throwaway directory.  Set at import time, before any test touches
# repro.core.cache (which reads the environment lazily per lookup).
if "REPRO_CACHE_DIR" not in os.environ and os.environ.get("REPRO_CACHE") != "0":
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-cache-")

try:
    from hypothesis import settings
except ImportError:  # hypothesis is optional outside the test extra
    settings = None

if settings is not None:
    # "ci" (the default) is fully deterministic: a fixed example budget,
    # derandomized search, and no deadline so loaded CI hosts don't
    # produce flaky timing failures.  "dev" explores new random examples
    # every run; select it with HYPOTHESIS_PROFILE=dev.
    settings.register_profile(
        "ci", max_examples=50, deadline=None, derandomize=True
    )
    settings.register_profile("dev", max_examples=100, deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


#: The pool floor (``pipeline.POOL_MIN_FRAGMENTS``) the ``pool_floor``
#: fixture sets, and that the workers CI legs run the whole suite at:
#: every test draw of more than two fragments shades on the pool.
TEST_POOL_FLOOR = 2


def _env_shade_workers() -> int:
    from repro.core.knobs import int_knob

    return int_knob("REPRO_SHADE_WORKERS", 0, minimum=0)


def _fail_session(session, message):
    session.exitstatus = 1
    tr = session.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        tr.write_line(message, red=True)
    else:
        print(message)


def pytest_sessionfinish(session, exitstatus):
    """End-of-run CI assertions.

    With REPRO_CACHE_EXPECT_WARM=1 the run must have served every
    cacheable IR/JIT compile from the persistent store — zero
    ``compile.*.fresh``.  (Tests that deliberately cold-compile point at
    their own private cache dirs and use the ``isolated_counters``
    fixture, so they don't trip this.)

    With REPRO_FAULTS_EXPECT_FIRED=1 (the fault-injection CI leg,
    which also sets REPRO_FAULTS) the configured sites must actually
    have misbehaved: passing because the injection never ran is not
    passing.  Leader-evaluated sites are checked by their fire tally;
    worker-evaluated sites fire inside pool processes, so their
    evidence is the leader-side degraded-path counters
    (``pool.retries + pool.restarts + fault.fallbacks``).

    With REPRO_SHADE_WORKERS > 0 (the workers CI legs, which lower the
    pool floor for the whole session) some draw must have shaded on the
    worker pool: passing because every draw stayed in-process is not
    passing.

    With REPRO_DECODES_EXPECT_RUN=1 (the plain tier-1 leg) some fused
    read must have decoded a whole texel storage: a rephrased unpack
    template that no longer matches as a decode tail
    (:mod:`repro.glsl.ir.gather`) keeps kernels correct and silently
    loses the once-per-draw decode."""
    from repro.perf.counters import values

    if _env_shade_workers() > 0 and values["pool.draws"] == 0:
        _fail_session(session, (
            "REPRO_SHADE_WORKERS > 0 but no draw shaded on the worker "
            "pool (pool.draws == 0)"
        ))
    if (os.environ.get("REPRO_DECODES_EXPECT_RUN") == "1"
            and values["jit.storage_decodes"] == 0):
        _fail_session(session, (
            "REPRO_DECODES_EXPECT_RUN=1 but no fused read decoded a "
            "whole texel storage (jit.storage_decodes == 0)"
        ))
    if os.environ.get("REPRO_CACHE_EXPECT_WARM") == "1":
        fresh = {
            name: count for name, count in values.items()
            if name.startswith("compile.") and name.endswith(".fresh")
        }
        total = sum(fresh.values())
        if total:
            _fail_session(session, (
                f"REPRO_CACHE_EXPECT_WARM=1 but {total} compile(s) ran "
                f"fresh instead of loading from the artifact store "
                f"({fresh})"
            ))
    if os.environ.get("REPRO_FAULTS_EXPECT_FIRED") == "1":
        from repro.testing import faults

        plan = faults.active_plan()
        problems = []
        if plan is None:
            problems.append(
                "REPRO_FAULTS_EXPECT_FIRED=1 but no fault plan is "
                "active (is REPRO_FAULTS set and well-formed?)"
            )
        else:
            # plan.fired counts this (memoised) environment plan's own
            # fires, so a test-local inject_faults() plan can never
            # satisfy the leg on the environment plan's behalf.
            for site in sorted(set(plan.specs) - faults.WORKER_SITES):
                if not plan.fired.get(site):
                    problems.append(
                        f"fault site '{site}' was configured but "
                        f"never fired"
                    )
            if set(plan.specs) & faults.WORKER_SITES:
                degraded = (
                    values["pool.retries"] + values["pool.restarts"]
                    + values["fault.fallbacks"]
                )
                if degraded == 0:
                    problems.append(
                        "worker fault sites were configured but no "
                        "retry/restart/fallback was ever counted"
                    )
        for problem in problems:
            _fail_session(session, problem)


def pytest_terminal_summary(terminalreporter):
    """Report how many draws shaded on the pool and how many whole
    texel storages fused reads decoded."""
    from repro.perf.counters import values

    terminalreporter.write_line(
        f"pool.draws: {values['pool.draws']}  "
        f"jit.storage_decodes: {values['jit.storage_decodes']}"
    )


@pytest.fixture(scope="session", autouse=True)
def _workers_leg_pool_floor():
    """Under REPRO_SHADE_WORKERS > 0, lower the pool floor for the
    whole session, so the suite's small draws split across the worker
    pool instead of all staying under the production floor."""
    if _env_shade_workers() == 0:
        yield
        return
    from repro.gles2 import pipeline

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "POOL_MIN_FRAGMENTS", TEST_POOL_FLOOR)
        yield


@pytest.fixture
def pool_floor(monkeypatch):
    """Lower the pool floor for one test, so its draws with
    ``shade_workers`` > 0 split across the worker pool."""
    from repro.gles2 import pipeline

    monkeypatch.setattr(pipeline, "POOL_MIN_FRAGMENTS", TEST_POOL_FLOOR)


@pytest.fixture
def isolated_counters():
    """Isolate the counter registry (:mod:`repro.perf.counters`): the
    test starts from all-zero process totals, and the earlier totals
    come back afterwards, so a test's deliberate cold compiles and
    injected faults never reach the session-end checks above.  Yields
    the registry module."""
    from repro.perf import counters

    saved = counters.snapshot()
    counters.reset()
    yield counters
    counters.restore(saved)


@pytest.fixture
def device():
    """A fresh exact-arithmetic GPGPU device (deterministic tests)."""
    return GpgpuDevice(float_model="exact")


@pytest.fixture
def device_ieee32():
    """A device with IEEE single-precision arithmetic."""
    return GpgpuDevice(float_model="ieee32")
