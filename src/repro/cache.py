"""Maintenance CLI for the persistent compile-artifact store.

Thin command wrapper around :mod:`repro.core.cache`::

    python -m repro.cache stats    # entries / bytes (scanned and tracked) / budget
    python -m repro.cache clear    # drop every entry, reset the total
    python -m repro.cache verify   # re-validate entries, drop corrupt ones

All subcommands accept ``--json`` for machine-readable output and
honour ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MAX_BYTES`` the same way the
runtime does, so pointing the CLI at a CI cache directory inspects
exactly what the test run used (``make cache-stats`` wraps the first
form).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .core import cache as store


def _collect_stats() -> Dict[str, object]:
    entries, total = store.usage()
    kinds: Dict[str, int] = {}
    for path in store.iter_entries():
        try:
            unpacked = store._unpack(path.read_bytes())
        except OSError:
            continue
        if unpacked is None:
            kinds["corrupt"] = kinds.get("corrupt", 0) + 1
            continue
        kind = unpacked[0].get("kind", "unknown")
        kinds[kind] = kinds.get(kind, 0) + 1
    return {
        "cache_dir": str(store.cache_dir()),
        "schema_version": store.SCHEMA_VERSION,
        "enabled": store.enabled(),
        "entries": entries,
        "bytes": total,
        "tracked_bytes": store.tracked_bytes(),
        "max_bytes": store.max_bytes(),
        "kinds": kinds,
    }


def _cmd_stats(as_json: bool) -> int:
    info = _collect_stats()
    if as_json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"cache dir:  {info['cache_dir']} (schema v{info['schema_version']})")
    print(f"enabled:    {'yes' if info['enabled'] else 'no (REPRO_CACHE=0)'}")
    print(
        f"entries:    {info['entries']} "
        f"({info['bytes'] / 1024.0:.1f} KiB of "
        f"{info['max_bytes'] / (1024.0 * 1024.0):.0f} MiB budget)"
    )
    tracked = info["tracked_bytes"]
    print(
        "tracked:    "
        + ("unknown (the next publish rescans)" if tracked is None
           else f"{tracked / 1024.0:.1f} KiB (running total of publishes)")
    )
    kinds = info["kinds"]
    if kinds:
        breakdown = ", ".join(
            f"{kind}={count}" for kind, count in sorted(kinds.items())
        )
        print(f"by kind:    {breakdown}")
    return 0


def _cmd_clear(as_json: bool) -> int:
    removed = store.clear()
    if as_json:
        print(json.dumps({"removed": removed}))
    else:
        print(f"removed {removed} entr{'y' if removed == 1 else 'ies'}")
    return 0


def _cmd_verify(as_json: bool) -> int:
    report = store.verify()
    if as_json:
        print(json.dumps(report, sort_keys=True))
    else:
        print(
            f"kept {report['kept']} entr"
            f"{'y' if report['kept'] == 1 else 'ies'}, "
            f"dropped {report['dropped']} corrupt"
        )
    # Non-zero exit when corruption was found makes the CI step loud.
    return 1 if report["dropped"] else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cache",
        description="Inspect and maintain the on-disk compile-artifact "
        "cache (location: REPRO_CACHE_DIR, default ~/.cache/repro).",
    )
    parser.add_argument(
        "command", choices=("stats", "clear", "verify"),
        help="stats: show usage; clear: drop all entries; "
        "verify: re-validate entries and drop corrupt ones",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)
    if args.command == "stats":
        return _cmd_stats(args.json)
    if args.command == "clear":
        return _cmd_clear(args.json)
    return _cmd_verify(args.json)


if __name__ == "__main__":
    sys.exit(main())
