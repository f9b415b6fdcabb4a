"""The repository benchmark: five host-to-host workloads, end-to-end
metrics, and a traced per-layer ledger.

Run from the repository root (see README.md in this directory)::

    python3 benchmarks/ledger/run.py --seed 0 [--workload W] [--trace 1]
        [--seconds S] [--trace-dir DIR] [--out FILE] [--smoke]

Load model: closed loop, one client.  One process and one thread issue
every op and block on its result; the only other processes are the
program's own (two shading workers on ``shade_heavy``) and this
script's fresh children, run one at a time.  Each workload runs in its
own fresh child with its own empty artifact store (``REPRO_CACHE_DIR``
under ``.ledger_work/``); every other ``REPRO_*`` knob is cleared, except
``REPRO_FAULTS``/``REPRO_FAULTS_SEED``, which pass through for the
failure-accounting smoke.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` adds a separate traced child per workload and prints the
per-layer metrics.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from ledger import counter_metrics, percentile, traced_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Set-up samples per workload (fresh children, empty stores).
SETUP_SAMPLES = 3
#: Wall budget for one workload's children; a run must end within 180 s.
BUDGET_S = 170.0
PASS_THROUGH = ("REPRO_FAULTS", "REPRO_FAULTS_SEED")


class Runner:
    """Starts the children of one workload, each with a fresh store."""

    def __init__(self, args, work: Path, name: str):
        self.args = args
        self.work = work
        self.name = name
        self.deadline = time.monotonic() + BUDGET_S
        self._stores = 0

    def store(self) -> Path:
        self._stores += 1
        return self.work / f"{self.name}-store{self._stores}"

    def path(self, label: str) -> Path:
        return self.work / f"{self.name}-{label}"

    def trace_file(self) -> Path:
        """Where this workload's Chrome trace goes."""
        directory = Path(self.args.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        return directory / f"{self.name}.json"

    def child(self, role: str, store: Path, *extra: str,
              may_fail: bool = False):
        """Run one child and return its result; a child that exits
        non-zero ends the run, or returns None with ``may_fail``."""
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_") or key in PASS_THROUGH}
        env["REPRO_CACHE_DIR"] = str(store)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        command = [sys.executable, str(HERE / "child.py"), role,
                   "--workload", self.name, "--seed", str(self.args.seed),
                   "--seconds", repr(self.args.seconds), *extra]
        if self.args.smoke:
            command.append("--smoke")
        proc = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if proc.returncode != 0:
            if may_fail:
                return None
            raise RuntimeError(
                f"{self.name}: {role} child exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _merge_traces(paths, out: Path) -> None:
    events = []
    for path in paths:
        events += json.loads(path.read_text())["traceEvents"]
    events.sort(key=lambda event: event["ts"])
    out.write_text(json.dumps({"traceEvents": events,
                               "displayTimeUnit": "ms"}))


def _sum(dicts) -> dict:
    total = {}
    for part in dicts:
        for key, value in part.items():
            total[key] = total.get(key, 0) + value
    return total


def _merge_summaries(summaries) -> dict:
    summaries = list(summaries)
    spans = {}
    for summary in summaries:
        for name, row in summary["spans"].items():
            spans[name] = [a + b for a, b in
                           zip(spans.get(name, (0, 0.0, 0.0)), row)]
    return {"spans": spans,
            "extra": _sum(s["extra"] for s in summaries),
            "fired": _sum(s["fired"] for s in summaries)}


def _traced(children) -> dict:
    """Per-layer inputs from traced children; ``children[0]`` holds the
    samples compared with the untraced op latency."""
    summary = _merge_summaries(c["ledger"] for c in children)
    return {"summary": summary,
            "ops": summary["spans"].get("op", [0])[0],
            "samples_ms": children[0]["samples_ms"]}


def measure_in_process(r: Runner) -> dict:
    """launch_small, shade_heavy, graph_pipeline: set-up children, one
    timed leader, one traced child."""
    setups = [r.child("leader", r.store(), "--setup-only")["setup_s"]
              for _ in range(r.args.setup_samples - 1)]
    lead = r.child("leader", r.store())
    m = {
        "setup_s": setups + [lead["setup_s"]],
        "samples_ms": lead["samples_ms"], "warm_samples_ms": [],
        "attempted": lead["attempted"], "failed": lead["failed"],
        "digests": [lead["digest"]], "rss_mb": [lead["rss_mb"]],
        "counters": lead["counters"], "device": lead["device"],
        "counted_ops": lead["attempted"],
        "modeled": lead["modeled"], "modeled_ops": lead["modeled_ops"],
        "busy_ms": sum(lead["samples_ms"]), "env": lead["env"],
    }
    if r.args.trace:
        m["traced"] = _traced([r.child("traced", r.store(), "--trace-file",
                                       str(r.trace_file()))])
    return m


def measure_first_launch(r: Runner) -> dict:
    """Cold/warm child pairs, each pair on a fresh store, until the time
    budget is spent; every pair replays the same seeded kernel list."""
    colds, warms = [], []
    began = time.monotonic()
    while not colds or time.monotonic() - began < r.args.seconds:
        store = r.store()
        colds.append(r.child("first", store, "--phase", "cold"))
        warms.append(r.child("first", store, "--phase", "warm"))
    setups = [c["setup_s"] for c in colds]
    while len(setups) < r.args.setup_samples:
        setups.append(r.child("first", r.store(), "--count", "1")["setup_s"])
    both = colds + warms
    m = {
        "setup_s": setups,
        "samples_ms": [s for c in colds for s in c["samples_ms"]],
        "warm_samples_ms": [s for w in warms for s in w["samples_ms"]],
        "attempted": sum(c["attempted"] for c in both),
        "failed": sum(c["failed"] for c in both),
        "digests": [c["digest"] for c in both],
        "rss_mb": [c["rss_mb"] for c in colds],
        "counters": _sum(c["counters"] for c in both),
        "device": _sum(c["device"] for c in both),
        "counted_ops": sum(c["attempted"] for c in both),
        # One cold/warm pair: modeled time is a float sum and must not
        # depend on how many pairs fit the budget.
        "modeled": _sum(c["device"] for c in (colds[0], warms[0])),
        "modeled_ops": colds[0]["attempted"] + warms[0]["attempted"],
        "busy_ms": sum(sum(c["samples_ms"]) for c in both),
        "env": colds[0]["env"],
    }
    if r.args.trace:
        # The first quarter of the kernel list, cold then warm.
        count = str(max(2, (colds[0]["attempted"] + 1) // 4))
        store, files = r.store(), [r.path("cold.json"), r.path("warm.json")]
        children = [
            r.child("first", store, "--phase", phase, "--count", count,
                    "--trace-file", str(path))
            for phase, path in zip(("cold", "warm"), files)
        ]
        _merge_traces(files, r.trace_file())
        m["traced"] = _traced(children)
    return m


def measure_paper_repro(r: Runner) -> dict:
    """Cold regenerations (each on an empty store) give the set-up
    samples; timed ops regenerate against the first one's store."""
    stores = [r.store() for _ in range(r.args.setup_samples)]
    colds = [r.child("report", store,
                     "--report-file", str(r.path(f"cold{k}.md")))
             for k, store in enumerate(stores)]
    if not all(c["ok"] for c in colds):
        raise RuntimeError("paper_repro: a cold regeneration differs from "
                           "the committed EXPERIMENTS.md")
    ops, attempted = [], 0
    began = time.monotonic()
    while not attempted or time.monotonic() - began < r.args.seconds:
        op = r.child("report", stores[0], "--report-file",
                     str(r.path(f"op{attempted}.md")), may_fail=True)
        attempted += 1
        if op is not None and op["ok"]:
            ops.append(op)
    good = [op["op_ms"] for op in ops]
    m = {
        "setup_s": [c["setup_s"] for c in colds],
        "samples_ms": good, "warm_samples_ms": [],
        "attempted": attempted, "failed": attempted - len(ops),
        "digests": [op["digest"] for op in colds + ops],
        "rss_mb": [op["rss_mb"] for op in ops],
        "counters": _sum(op["counters"] for op in ops), "device": {},
        "counted_ops": len(ops), "modeled": {}, "modeled_ops": 0,
        "busy_ms": sum(good), "env": colds[0]["env"],
    }
    if r.args.trace:
        traced = r.child("report", stores[0], "--trace-file",
                         str(r.trace_file()),
                         "--report-file", str(r.path("traced.md")))
        traced["samples_ms"] = [traced["op_ms"]]
        m["traced"] = _traced([traced])
    return m


MEASURE = {"first_launch": measure_first_launch,
           "paper_repro": measure_paper_repro}


def workload_metrics(m: dict) -> dict:
    """Every metric this run can give for one workload, by name."""
    samples = m["samples_ms"]
    values = {
        "setup_s": statistics.median(m["setup_s"]),
        "op_ms.p50": statistics.median(samples),
        "op_ms.p90": percentile(samples, 90),
        "peak_rss_mb": max(m["rss_mb"]),
        "warm_op_ms.p50": (statistics.median(m["warm_samples_ms"])
                           if m["warm_samples_ms"] else 0.0),
        "fragments_per_s": 1e3 * m["device"].get("fragments", 0) / m["busy_ms"],
        "failed_ops_ratio": m["failed"] / m["attempted"],
    }
    values.update(counter_metrics(m["counters"], m["counted_ops"],
                                  m["modeled"], m["modeled_ops"]))
    traced = m.get("traced")
    if traced:
        values.update(traced_metrics(traced["summary"], traced["ops"]))
        values["trace.overhead_ratio"] = (
            statistics.median(traced["samples_ms"]) / values["op_ms.p50"] - 1)
    return values


def git_commit():
    """HEAD of the checkout, read without running git (None outside a
    git work tree)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args, work: Path, name: str, spec: dict) -> dict:
    runner = Runner(args, work, name)
    m = MEASURE.get(name, measure_in_process)(runner)
    values = workload_metrics(m)
    units = {row["name"]: row["unit"]
             for row in spec["end_to_end"] + spec["per_layer"]}
    required = spec["end_to_end"] + (spec["per_layer"] if args.trace else [])
    missing = [row["name"] for row in required if row["name"] not in values]
    if missing:
        raise RuntimeError(f"{name}: metrics not produced: {missing}")
    return {
        "correct": m["failed"] == 0 and len(set(m["digests"])) == 1,
        "attempted": m["attempted"],
        "failed": m["failed"],
        "digest": m["digests"][0],
        "op_counts": {"setup_children": len(m["setup_s"]),
                      "timed": len(m["samples_ms"]),
                      "warm_timed": len(m["warm_samples_ms"]),
                      "attempted": m["attempted"]},
        "env": m["env"],
        "fired": m["traced"]["summary"]["fired"] if m.get("traced") else {},
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in units if n in values},
    }


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: "
                             "run_seconds of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", default=str(ROOT / ".ledger_out" / "traces"))
    parser.add_argument("--out", default=None,
                        help="also write the full result (provenance, "
                             "every metric) to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="small op counts and one set-up sample "
                             "(harness self-test, not a measurement)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    args.setup_samples = 1 if args.smoke else SETUP_SAMPLES
    args.workloads = names if args.workload == "all" else [args.workload]
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program sources ({ROOT / 'src' / 'repro'}) are "
              "missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    work = ROOT / ".ledger_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        results = {name: run_workload(args, work, name, spec)
                   for name in args.workloads}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    shown = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for name, result in results.items():
        print(f"== {name}: {result['attempted']} ops attempted, "
              f"{result['failed']} failed, digest {result['digest'][:16]}")
        for row in shown:
            metric = result["metrics"][row["name"]]
            print(f"  {row['name']:<42} {metric['value']:>16.6f} {metric['unit']}")
            key = row["name"] if len(results) == 1 else f"{name}.{row['name']}"
            metrics[key] = metric
    if args.out:
        env = next(iter(results.values()))["env"]
        document = {
            "schema": 1,
            "provenance": {
                "cpu_count": os.cpu_count(),
                "sched_affinity": len(os.sched_getaffinity(0)),
                **env,
                "git_commit": git_commit(),
                "seed": args.seed,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "trace": bool(args.trace),
                "op_counts": {n: r["op_counts"] for n, r in results.items()},
                "digests": {n: r["digest"] for n, r in results.items()},
            },
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
