"""Compare ledger results of two commits, or measure one commit's spread.

Each FILE is a result written by ``run.py --out FILE``; take three or
more runs per side::

    python3 benchmarks/ledger/compare.py --base a1.json a2.json a3.json \\
        --head b1.json b2.json b3.json
    python3 benchmarks/ledger/compare.py --self a1.json a2.json a3.json

Diff mode prints one row per workload and end-to-end metric: median and
quartiles of each side and a verdict against the metric's bound in
``BENCHMARK.json`` — ``regressed`` (the head median is worse by more
than the bound), ``improved`` (better by more than the base runs'
quartile spread), ``unchanged``, or ``unresolved`` when either side's
spread exceeds the bound and the runs do not separate completely.  A
per-layer table of medians follows, so the layer where a saving shows
can be read off.  The exit status is 1 when any row regressed.

``--self`` prints each metric's spread across one commit's runs — the
quartile distance over the median, as ``statistics.quantiles`` gives it
— beside its bound, and whether count-type metrics and the output
digest repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Units of metrics that must repeat exactly on a deterministic program
#: (the ``trace.*`` ratios are derived from host time and do not).
EXACT_UNITS = ("count", "ratio", "bytes", "sim_ms")


def _exact(row) -> bool:
    return row["unit"] in EXACT_UNITS and not row["name"].startswith("trace.")


def load(paths):
    """``{workload: {metric: [value per file]}}`` plus digests by seed."""
    values, digests = {}, {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        seed = document["provenance"]["seed"]
        for name, result in document["workloads"].items():
            digests.setdefault(name, {}).setdefault(seed, set()).add(
                result["digest"])
            for metric, entry in result["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(
                    entry["value"])
    return values, digests


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def verdict(base, head, better: str, bound: float) -> str:
    """A gain needs the head to win nine tenths of all (head, base) run
    pairs and a median shift beyond the base runs' quartile spread."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (statistics.median(head) - statistics.median(base))
    q1, __, q3 = quartiles(base)
    wins = sum(sign * (h - b) < 0 for h in head for b in base)
    gained = -worse > q3 - q1 and wins >= 0.9 * len(head) * len(base)
    if max(spread(base), spread(head)) > bound:
        return "improved" if gained and wins == len(head) * len(base) \
            else "unresolved"
    if worse > bound * statistics.median(base):
        return "regressed"
    return "improved" if gained else "unchanged"


def _fmt(values) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:12.4f} [{q1:.4f}, {q3:.4f}]"


def diff(spec, base_paths, head_paths) -> int:
    base, __ = load(base_paths)
    head, __ = load(head_paths)
    regressed = 0
    print(f"{'workload':<15} {'metric':<14} {'base median [q1, q3]':>34} "
          f"{'head median [q1, q3]':>34} {'bound':>6}  verdict")
    for name in sorted(set(base) & set(head)):
        for row in spec["end_to_end"]:
            metric = row["name"]
            if metric not in base[name] or metric not in head[name]:
                continue
            outcome = verdict(base[name][metric], head[name][metric],
                              row["better"], row["bound"])
            regressed += outcome == "regressed"
            print(f"{name:<15} {metric:<14} {_fmt(base[name][metric]):>34} "
                  f"{_fmt(head[name][metric]):>34} {row['bound']:>6.2f}  "
                  f"{outcome}")
    print(f"\n{'workload':<15} {'per-layer metric':<40} {'base':>14} "
          f"{'head':>14} {'delta':>14}")
    for name in sorted(set(base) & set(head)):
        for row in spec["per_layer"]:
            metric = row["name"]
            if metric not in base[name] or metric not in head[name]:
                continue
            b = statistics.median(base[name][metric])
            h = statistics.median(head[name][metric])
            if b or h:
                print(f"{name:<15} {metric:<40} {b:14.4f} {h:14.4f} "
                      f"{h - b:+14.4f} {row['unit']}")
    return 1 if regressed else 0


def self_spread(spec, paths) -> int:
    values, digests = load(paths)
    print(f"{'workload':<15} {'metric':<40} {'median':>14} {'spread':>8} "
          f"{'bound':>6}")
    for name in sorted(values):
        for row in spec["end_to_end"] + spec["per_layer"]:
            metric = row["name"]
            if metric not in values[name]:
                continue
            runs = values[name][metric]
            if _exact(row):
                status = "identical" if len(set(runs)) == 1 else "varies"
                print(f"{name:<15} {metric:<40} "
                      f"{statistics.median(runs):14.4f} {status:>8}")
            else:
                bound = f"{row['bound']:6.2f}" if "bound" in row else ""
                print(f"{name:<15} {metric:<40} "
                      f"{statistics.median(runs):14.4f} "
                      f"{spread(runs):8.4f} {bound}")
        for seed, seen in sorted(digests[name].items()):
            print(f"{name:<15} digest (seed {seed}): "
                  f"{'identical' if len(seen) == 1 else 'DIFFERS'}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", metavar="FILE")
    parser.add_argument("--head", nargs="+", metavar="FILE")
    parser.add_argument("--self", nargs="+", metavar="FILE", dest="own")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.own:
        return self_spread(spec, args.own)
    if not (args.base and args.head):
        parser.error("give --base and --head result files, or --self")
    return diff(spec, args.base, args.head)


if __name__ == "__main__":
    sys.exit(main())
