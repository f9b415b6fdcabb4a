"""CLI for trace files produced by :mod:`repro.perf.trace`::

    python -m repro.trace view out.json            # validate + summarise
    python -m repro.trace export out.json -o p.json  # normalise for Perfetto

``view`` validates the Chrome trace-event schema (non-zero exit on an
invalid or empty trace — the CI tracing leg relies on this) and prints
a per-category summary plus the self time of each span name (its
spans' durations less their direct children's, so nested spans are
not counted twice).  ``export`` rewrites the file with events
sorted by timestamp — the canonical form Perfetto and
``chrome://tracing`` load directly.  Both accept ``--json`` for
machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Tuple


def load_trace(path: str) -> Tuple[Optional[Dict], List[str]]:
    """Read and structurally validate one trace file.  Returns
    ``(document, problems)``; ``document`` is None when the file could
    not be read or parsed at all."""
    problems: List[str] = []
    try:
        with open(path) as handle:
            document = json.load(handle)
    except OSError as exc:
        return None, [f"cannot read {path}: {exc}"]
    except json.JSONDecodeError as exc:
        return None, [f"{path} is not valid JSON: {exc}"]
    if not isinstance(document, dict):
        return None, [f"{path}: top level must be a JSON object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        problems.append("missing or non-list 'traceEvents'")
        return document, problems
    if not events:
        problems.append("'traceEvents' is empty")
    for i, event in enumerate(events):
        label = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{label}: not an object")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{label}: missing string 'name'")
        if not isinstance(event.get("ph"), str):
            problems.append(f"{label}: missing string 'ph'")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{label}: missing non-negative 'ts'")
        if event.get("ph") == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(
                    f"{label}: complete event missing non-negative 'dur'"
                )
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
    return document, problems


def self_times(events: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Span count and self time (µs) per span name.  A complete span's
    self time is its duration less its direct children's; nesting is
    resolved per (pid, tid) track, so spans on other threads or
    processes never count as children."""
    tracks: Dict[Tuple, List[Dict]] = {}
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "X":
            key = (event.get("pid"), event.get("tid"))
            tracks.setdefault(key, []).append(event)
    totals: Dict[str, Dict[str, float]] = {}
    for spans in tracks.values():
        open_spans: List[Tuple[float, str]] = []  # (end, name)
        for event in sorted(spans, key=lambda e: (e["ts"], -e["dur"])):
            while open_spans and open_spans[-1][0] <= event["ts"]:
                open_spans.pop()
            name, dur = event["name"], float(event["dur"])
            total = totals.setdefault(name, {"spans": 0, "self_us": 0.0})
            total["spans"] += 1
            total["self_us"] += dur
            if open_spans:  # the direct parent
                totals[open_spans[-1][1]]["self_us"] -= dur
            open_spans.append((event["ts"] + dur, name))
    return totals


def summarize(document: Dict) -> Dict:
    events = document.get("traceEvents", [])
    by_category: Dict[str, Dict[str, float]] = {}
    pids = set()
    ts_min = ts_max = None
    for event in events:
        if not isinstance(event, dict):
            continue
        cat = event.get("cat") or "(none)"
        bucket = by_category.setdefault(
            cat, {"events": 0, "spans": 0, "span_us": 0.0}
        )
        bucket["events"] += 1
        if event.get("ph") == "X":
            bucket["spans"] += 1
            bucket["span_us"] += float(event.get("dur", 0))
        pids.add(event.get("pid"))
        ts = event.get("ts")
        if isinstance(ts, (int, float)):
            ts_min = ts if ts_min is None else min(ts_min, ts)
            end = ts + float(event.get("dur", 0) or 0)
            ts_max = end if ts_max is None else max(ts_max, end)
    return {
        "events": len(events),
        "processes": len(pids),
        "wall_us": (ts_max - ts_min) if events and ts_min is not None else 0.0,
        "dropped_events": document.get("otherData", {}).get(
            "dropped_events", 0
        ),
        "categories": by_category,
        "self_time": self_times(events),
    }


def _cmd_view(path: str, as_json: bool) -> int:
    document, problems = load_trace(path)
    if document is None or problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    info = summarize(document)
    if as_json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(
        f"{path}: {info['events']} events across "
        f"{info['processes']} process(es), "
        f"{info['wall_us'] / 1e3:.3f} ms of timeline"
    )
    if info["dropped_events"]:
        print(f"  dropped (buffer cap): {info['dropped_events']}")
    for cat, bucket in sorted(info["categories"].items()):
        print(
            f"  {cat:>10}: {bucket['events']:6d} events, "
            f"{bucket['spans']:6d} spans, "
            f"{bucket['span_us'] / 1e3:10.3f} ms in spans"
        )
    print("  self time per span name (direct children subtracted):")
    for name, total in sorted(info["self_time"].items(),
                              key=lambda item: -item[1]["self_us"]):
        print(
            f"  {name:>24}: {total['spans']:6d} spans, "
            f"{total['self_us'] / 1e3:10.3f} ms self"
        )
    print("load in Perfetto: https://ui.perfetto.dev → Open trace file")
    return 0


def _cmd_export(path: str, out: str, as_json: bool) -> int:
    document, problems = load_trace(path)
    if document is None or problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    document["traceEvents"] = sorted(
        document["traceEvents"], key=lambda e: e.get("ts", 0)
    )
    document.setdefault("displayTimeUnit", "ms")
    with open(out, "w") as handle:
        json.dump(document, handle)
    if as_json:
        print(json.dumps({"written": out,
                          "events": len(document["traceEvents"])}))
    else:
        print(f"wrote {len(document['traceEvents'])} events to {out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Validate, summarise and normalise Chrome trace-"
        "event files recorded via REPRO_TRACE / device.trace().",
    )
    parser.add_argument(
        "command", choices=("view", "export"),
        help="view: validate and summarise; export: validate, sort by "
        "timestamp and rewrite for Perfetto",
    )
    parser.add_argument("file", help="trace JSON file to read")
    parser.add_argument(
        "-o", "--out", help="output path for export (default: in place)"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)
    if args.command == "view":
        return _cmd_view(args.file, args.json)
    return _cmd_export(args.file, args.out or args.file, args.json)


if __name__ == "__main__":
    sys.exit(main())
