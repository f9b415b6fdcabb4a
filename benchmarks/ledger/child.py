"""One child process of the ledger benchmark; ``run.py`` starts them.

Roles:

``leader``  set up an in-process workload, warm up, then time whole
            rounds of ops for ``--seconds`` (``--setup-only`` stops after
            the first verified op)
``traced``  the same ops for a quarter of ``--seconds``, with the
            ledger's wrappers installed before the device is built
``first``   one ``first_launch`` child: build and first-launch every
            kernel of the seeded plan against the store in
            ``REPRO_CACHE_DIR`` (``--phase cold`` or ``warm``)
``report``  one ``paper_repro`` op: regenerate EXPERIMENTS.md in this
            interpreter and compare it with the committed file

The child prints one JSON object as the last line of its stdout.
"""

import time

#: Child start, taken before numpy and the program are imported.
T0 = time.perf_counter()

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import platform
import sys
import traceback
from pathlib import Path


class Tally:
    """Outcome of a sequence of ops: latencies of the verified ones,
    failures (raised or failed the check), and the output digest."""

    def __init__(self, digest_ops=()):
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self._digest_ops = set(digest_ops)
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def run(self, wl, i, ledger=None, verify=None) -> bool:
        """Run op ``i``, time it, and check it outside the timed interval.
        ``verify`` adds a per-op condition (warm first launches)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with ledger.op(i) if ledger else contextlib.nullcontext():
                out = wl.op(i)
            elapsed = time.perf_counter() - start
            ok = bool(wl.check(i, out)) and (verify is None or verify())
        except Exception:  # one failed op must not end the run
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += 1
            print(f"{wl.name}: op {i} failed", file=sys.stderr)
            return False
        self.samples.append(elapsed)
        if i in self._digest_ops:
            self._digest.update(wl.fingerprint(out))
        return True

    def result(self):
        return {"samples_ms": [s * 1e3 for s in self.samples],
                "attempted": self.attempted, "failed": self.failed,
                "digest": self.digest}


def setup(wl):
    """Build the workload and verify its first op; returns set-up seconds
    since child start."""
    wl.build()
    out = wl.op(0)
    if not wl.check(0, out):
        raise SystemExit(f"{wl.name}: set-up op failed its output check")
    return time.perf_counter() - T0, out


def timed_rounds(wl, start, seconds, ledger=None, after_first_round=None):
    """Whole rounds from op ``start`` until ``seconds`` have elapsed (at
    least one round); the digest covers the first round."""
    tally = Tally(range(start, start + wl.round_size))
    i, began = start, time.perf_counter()
    while True:
        for _ in range(wl.round_size):
            tally.run(wl, i, ledger)
            i += 1
        if after_first_round is not None:
            after_first_round()
            after_first_round = None
        if time.perf_counter() - began >= seconds:
            return tally


def _warm_up(wl):
    """Ops after the set-up op up to the first timed round boundary."""
    first_timed = max(wl.warmup_rounds, 1) * wl.round_size
    for i in range(1, first_timed):
        out = wl.op(i)
        if not wl.check(i, out):
            raise SystemExit(f"{wl.name}: warm-up op {i} failed")
    return first_timed


def _start_ledger(trace_file):
    """The ledger, installed, when this child is traced; else None."""
    if not trace_file:
        return None
    from ledger import Ledger

    ledger = Ledger()
    ledger.install()
    return ledger


def _stop_ledger(ledger, trace_file, result):
    if ledger is not None:
        ledger.uninstall()
        ledger.write_chrome_trace(trace_file)
        result["ledger"] = ledger.summary()
    return result


def _rss_mb() -> float:
    """Peak resident set of this process (``VmHWM``).  ``ru_maxrss``
    would also count the parent's resident set, which Linux carries
    into a child across fork and exec."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def role_leader(args):
    import workloads
    from ledger import counter_snapshot, delta, device_snapshot

    wl = workloads.make(args.workload, args.seed, args.smoke)
    setup_s, __ = setup(wl)
    result = {"setup_s": setup_s}
    if not args.setup_only:
        start = _warm_up(wl)
        counters, device = counter_snapshot(), device_snapshot(wl.device)
        # Modeled time (a float sum) and peak memory are read after the
        # first timed round, so neither depends on how many rounds fit
        # the budget: drivers that keep their inputs alive would
        # otherwise show more memory on a faster commit.
        first_round = {}

        def read_first_round():
            first_round["modeled"] = delta(device_snapshot(wl.device), device)
            first_round["rss_mb"] = _rss_mb()

        tally = timed_rounds(wl, start, args.seconds,
                             after_first_round=read_first_round)
        result.update(tally.result(), **first_round)
        result["counters"] = delta(counter_snapshot(), counters)
        result["device"] = delta(device_snapshot(wl.device), device)
        result["modeled_ops"] = wl.round_size
    return result


def role_traced(args):
    ledger = _start_ledger(args.trace_file)
    import workloads

    wl = workloads.make(args.workload, args.seed, args.smoke)
    setup(wl)
    start = _warm_up(wl)
    tally = timed_rounds(wl, start, args.seconds / 4, ledger)
    return _stop_ledger(ledger, args.trace_file, tally.result())


def _served_warm(before) -> bool:
    """A warm first launch compiles nothing fresh and reads the store,
    unless the store reported a fault during it."""
    from ledger import counter_snapshot, delta

    c = delta(counter_snapshot(), before)
    fresh = (c["ir.fresh"] + c["jit.fresh"] + c["frontend.misses"]
             - c["frontend.disk_hits"])
    faults = c["cache.corrupt"] + c["cache.load_failures"] + c["cache.write_failures"]
    return faults > 0 or (fresh == 0 and c["cache.hits"] > 0)


def role_first(args):
    """Cold: every op compiles a kernel no process has built.  Warm:
    the same kernels in a fresh process against the store the cold
    twin wrote."""
    ledger = _start_ledger(args.trace_file)
    import workloads
    from ledger import counter_snapshot, delta, device_snapshot

    wl = workloads.make("first_launch", args.seed, args.smoke, args.count)
    setup_s, __ = setup(wl)
    tally = Tally(range(1, wl.round_size))
    counters, device = counter_snapshot(), device_snapshot(wl.device)
    for i in range(1, wl.round_size):
        before = counter_snapshot()
        verify = (lambda: _served_warm(before)) if args.phase == "warm" else None
        tally.run(wl, i, ledger, verify)
    result = {**tally.result(), "setup_s": setup_s, "rss_mb": _rss_mb(),
              "counters": delta(counter_snapshot(), counters),
              "device": delta(device_snapshot(wl.device), device)}
    return _stop_ledger(ledger, args.trace_file, result)


def role_report(args):
    """One regeneration of EXPERIMENTS.md; the op time runs from child
    start (the interpreter a reader launches) to the report on disk."""
    ledger = _start_ledger(args.trace_file)
    import workloads
    from ledger import counter_snapshot, delta

    counters = counter_snapshot()
    path = Path(args.report_file)
    with ledger.op(0) if ledger else contextlib.nullcontext():
        workloads.run_report(path)
    op_s = time.perf_counter() - T0
    ok = workloads.check_report(path)
    result = {"op_ms": op_s * 1e3, "setup_s": time.perf_counter() - T0,
              "ok": ok, "rss_mb": _rss_mb(),
              "digest": hashlib.sha256(path.read_bytes()).hexdigest(),
              "counters": delta(counter_snapshot(), counters)}
    return _stop_ledger(ledger, args.trace_file, result)


ROLES = {"leader": role_leader, "traced": role_traced, "first": role_first,
         "report": role_report}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--phase", choices=("cold", "warm"), default="cold")
    parser.add_argument("--count", type=int, default=None,
                        help="first_launch: use the first COUNT kernels")
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--report-file", default="")
    args = parser.parse_args(argv)
    result = ROLES[args.role](args)
    import numpy
    from repro.gles2 import parallel

    parallel.shutdown_pool()  # join shade_heavy's workers before exiting

    result["env"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
