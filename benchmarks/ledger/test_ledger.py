"""Self-test of the ledger benchmark harness (``pytest benchmarks/``; not
part of tier 1).  Runs every workload once in ``--smoke`` mode — small
op counts, one set-up sample — so the numbers are not measurements."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Bindings each workload must reach, from the "exercised by" column of
#: the layer table in README.md.  A wrapper bound at a name no caller
#: looks up would leave its layer reading as free.
MUST_FIRE = {
    "launch_small": [
        "repro.core.api.kernel:Kernel.__call__",
        "repro.core.api.buffer:GpuArray.upload",
        "repro.core.api.buffer:GpuArray.to_host",
        "repro.core.numerics.formats:int32.host_pack",
        "repro.core.numerics.formats:int32.host_unpack",
        "repro.gles2.context:GLES2Context.glTexImage2D",
        "repro.gles2.context:GLES2Context.glReadPixels",
        "repro.gles2.context:execute_draw",
        "repro.gles2.raster:rasterize_triangles",
        "repro.gles2.raster:interpolate_varying",
        "repro.glsl.jit:JitExecutor.execute",
        "repro.glsl.jit:get_compiled",
    ],
    "shade_heavy": [
        "repro.gles2.parallel:shade_draw",
        "repro.gles2.raster:partition_tiles",
        "repro.glsl.ir:get_compiled",
    ],
    "graph_pipeline": [
        "repro.core.api.device:GpgpuDevice.kernel",
        "repro.core.api.device:generate_kernel_source",
        "repro.core.api.graph:LaunchGraph.replay",
        "repro.core.api.graph:compose_chain_cached",
        "repro.kernels.reduction:reduce_sum",
        "repro.kernels.scan:inclusive_scan",
        "repro.kernels.sort:sort_host_array",
        "repro.workloads.kmeans:kmeans_assign_gpu",
        "repro.workloads.hotspot:hotspot_gpu",
        "repro.workloads.pathfinder:pathfinder_gpu",
    ],
    "first_launch": [
        "repro.core.cache:get",
        "repro.core.cache:put",
        "repro.gles2.shader:preprocess",
        "repro.gles2.shader:parse",
        "repro.gles2.shader:optimize",
        "repro.gles2.shader:check",
        "repro.glsl.jit:generate",
    ],
    "paper_repro": [
        "repro.core.api.device:GpgpuDevice.copy_texture_and_read",
        "repro.glsl.interp:Interpreter.execute",
        "repro.experiments.report:run_speedup_table",
        "repro.experiments.report:run_precision_experiment",
        "repro.experiments.report:run_fig2_layout",
        "repro.experiments.report:run_readback_ablation",
        "repro.experiments.report:run_packing_ablation",
        "repro.experiments.report:run_peak_check",
        "repro.experiments.report:_run_half_float_comparison",
        "repro.experiments.report:_run_rodinia",
        "repro.experiments.report:_run_vertex_vs_fragment",
        "repro.experiments.sweep:run_size_sweep",
    ],
}
#: Reached only when the JIT falls back; covered by the jit_error smoke.
IR_EXECUTE = "repro.glsl.ir.executor:IRExecutor.execute"


def run_bench(*args, env=None, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env={**os.environ, **(env or {})},
    )
    return proc


def run_smoke(workload, out, trace_dir, env=None):
    proc = run_bench("--workload", workload, "--smoke", "--trace", "1",
                     "--out", str(out), "--trace-dir", str(trace_dir), env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), \
        json.loads(out.read_text())["workloads"][workload]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    base = tmp_path_factory.mktemp("ledger")
    return {w: run_smoke(w, base / f"{w}.json", base / "traces")
            for w in WORKLOADS} | {"traces": base / "traces"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(smoke, workload):
    printed, full = smoke[workload]
    assert printed["correct"] and printed["failed"] == 0
    assert printed["attempted"] >= 1
    for row in SPEC["per_layer"]:
        assert printed["metrics"][row["name"]]["unit"] == row["unit"]
    for row in SPEC["end_to_end"]:
        metric = full["metrics"][row["name"]]
        assert metric["unit"] == row["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrapped_functions_fire_on_their_workload(smoke, workload):
    fired = smoke[workload][1]["fired"]
    missing = [key for key in MUST_FIRE[workload] if not fired.get(key)]
    assert not missing


def test_every_binding_is_claimed_by_a_workload():
    from ledger import BINDINGS

    claimed = {key for keys in MUST_FIRE.values() for key in keys}
    bindings = {f"{module}:{path}" for __, module, path in BINDINGS}
    assert bindings - claimed == {IR_EXECUTE}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_files_pass_repro_trace_view(smoke, workload):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.trace", "view",
         str(smoke["traces"] / f"{workload}.json")],
        cwd=ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload, plan, counter, fired", [
    ("shade_heavy", "worker_crash:0.2,cache_corrupt:0.2",
     "gles2.parallel.retries", None),
    ("first_launch", "worker_crash:0.2,cache_corrupt:0.2",
     "core.cache.failures", None),
    ("first_launch", "jit_error:0.3", "glsl.jit.fallback_ratio", IR_EXECUTE),
])
def test_injected_faults_count_in_their_layer_not_as_failed_ops(
        tmp_path, workload, plan, counter, fired):
    printed, full = run_smoke(
        workload, tmp_path / "out.json", tmp_path / "traces",
        env={"REPRO_FAULTS": plan, "REPRO_FAULTS_SEED": "0"})
    assert printed["correct"] and printed["failed"] == 0
    assert printed["metrics"]["failed_ops_ratio"]["value"] == 0
    assert printed["metrics"][counter]["value"] > 0
    if fired:
        assert full["fired"].get(fired)


def test_corrupted_results_and_raising_ops_count_as_failed(
        monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    import child
    import workloads
    from repro.core.api.buffer import GpuArray

    wl = workloads.make("launch_small", seed=0, smoke=True)
    child.setup(wl)
    start = wl.round_size
    to_host = GpuArray.to_host
    monkeypatch.setattr(GpuArray, "to_host",
                        lambda self: to_host(self) + 1)
    tally = child.timed_rounds(wl, start, seconds=0)
    assert tally.attempted == wl.round_size
    assert tally.failed == wl.round_size

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(GpuArray, "to_host", broken)
    tally = child.timed_rounds(wl, start, seconds=0)
    assert tally.failed == tally.attempted == wl.round_size


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "launch_small", "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result(path, value):
    path.write_text(json.dumps({
        "provenance": {"seed": 0},
        "workloads": {"launch_small": {"digest": "d", "metrics": {
            "op_ms.p50": {"value": value, "unit": "ms"}}}},
    }))
    return str(path)


@pytest.mark.parametrize("head, status", [
    ((100.5, 99.5, 100.0), 0),  # unchanged
    ((80.0, 79.0, 81.0), 0),  # improved
    ((130.0, 131.0, 129.0), 1),  # regressed beyond the bound
])
def test_compare_exits_nonzero_on_regression(tmp_path, head, status):
    import compare

    base = [_result(tmp_path / f"b{i}.json", v)
            for i, v in enumerate((100.0, 101.0, 99.0))]
    heads = [_result(tmp_path / f"h{i}.json", v) for i, v in enumerate(head)]
    assert compare.main(["--base", *base, "--head", *heads]) == status
