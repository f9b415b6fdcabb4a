"""``repro.testing.faults`` — deterministic fault injection for the
degraded paths.

The paper's platform is a *flaky* one: mobile drivers crash, compiles
fail, storage fills up and slows down.  The repro's answer to each of
those is a fallback path — pool death falls back to in-process
shading, a corrupt disk-cache entry recompiles, a failed fusion
replays eagerly — and those paths must be exercised, counted, and
bit-identical to the healthy ones, not merely believed to work.  This
module is the lever that forces them to run.

A **fault site** is a named point in the runtime that asks
:func:`fire` whether to misbehave right now.  The registered sites:

===================  ==================================================
``worker_crash``     a :mod:`repro.gles2.parallel` worker process dies
                     mid-chunk (``os._exit`` → ``BrokenProcessPool``)
``worker_hang``      a worker sleeps past the per-draw pool timeout
``worker_garble``    a worker returns a malformed chunk result
``cache_corrupt``    a :mod:`repro.core.cache` entry reads back as
                     garbage (validation fails, entry dropped)
``cache_enospc``     a cache publish fails with ``ENOSPC``
``cache_lock``       the LRU trim's advisory lock is contended
``fuse_fail``        :func:`repro.core.codegen.fuse.compose_chain_cached`
                     raises (graph replay falls back to eager)
``jit_error``        JIT codegen fails (draw falls back to the IR
                     executor)
===================  ==================================================

Firing is **deterministic**: site *i*'s *n*-th query fires iff
``sha256(seed:site:n)`` maps below the site's rate.  Same seed, same
query sequence → same faults, so a failing fault run reproduces
exactly.  Two front ends share the machinery:

* the ``REPRO_FAULTS`` environment knob —
  ``REPRO_FAULTS="worker_crash:0.1,cache_corrupt:0.1"`` with
  ``REPRO_FAULTS_SEED=<int>`` (CI runs whole suites this way); an
  optional ``@N`` suffix (``site:1@2``) caps a site at N total fires;
* the :func:`inject_faults` context manager for tests —
  ``with inject_faults(worker_crash=1.0):`` — which overrides any
  environment plan for the dynamic extent of the block.

:func:`suppress` masks both for tests that pin healthy-path behaviour
(exact cache-hit counts, pool-usage assertions) so they stay valid
inside a fault-injected CI run.

The module is dependency-free (stdlib only) and safe to import from
any layer; runtime call sites import it lazily so the engine stays out
of cold-start paths.  ``REPRO_DEBUG_FAULTS=1`` additionally makes the
hardened ``except`` blocks report (to stderr) every exception they
swallow, via :func:`note_swallowed`.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SITES",
    "FaultPlan",
    "active_plan",
    "encode_active",
    "fire",
    "hang_seconds",
    "inject_faults",
    "install_encoded",
    "note_swallowed",
    "parse_spec",
    "suppress",
]

#: Every fault site the runtime consults.  Unknown names are a
#: ``ValueError`` from :func:`inject_faults` (typo protection) and a
#: one-shot warning when they come from the environment.
SITES = frozenset({
    "worker_crash",
    "worker_hang",
    "worker_garble",
    "cache_corrupt",
    "cache_enospc",
    "cache_lock",
    "fuse_fail",
    "jit_error",
})

#: Sites evaluated inside pool worker processes.  The leader ships the
#: active plan in every worker plan payload so overrides made after the
#: pool forked (and :func:`suppress` blocks) still govern the workers.
WORKER_SITES = frozenset({"worker_crash", "worker_hang", "worker_garble"})

def _u01(seed: int, site: str, n: int) -> float:
    """The deterministic uniform variate for one site query."""
    digest = hashlib.sha256(f"{seed}:{site}:{n}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class FaultPlan:
    """One resolved injection configuration: per-site rates (with
    optional total-fire caps), a seed, and the per-site query counters
    that make firing deterministic within a process."""

    __slots__ = ("specs", "seed", "hang_seconds", "_counts", "fired")

    def __init__(
        self,
        specs: Dict[str, Tuple[float, Optional[int]]],
        seed: int = 0,
        hang_seconds: float = 2.0,
    ):
        self.specs = dict(specs)
        self.seed = int(seed)
        self.hang_seconds = float(hang_seconds)
        self._counts: Dict[str, int] = {}
        self.fired: Dict[str, int] = {}

    def should_fire(self, site: str) -> bool:
        spec = self.specs.get(site)
        if spec is None:
            return False
        rate, max_fires = spec
        if rate <= 0.0:
            return False
        if max_fires is not None and self.fired.get(site, 0) >= max_fires:
            return False
        n = self._counts.get(site, 0)
        self._counts[site] = n + 1
        if _u01(self.seed, site, n) >= rate:
            return False
        self.fired[site] = self.fired.get(site, 0) + 1
        if os.environ.get("REPRO_DEBUG_FAULTS") == "1":
            print(
                f"[repro.faults] injecting {site} "
                f"(query {n}, seed {self.seed})",
                file=sys.stderr,
            )
        return True

    def encode(self) -> Dict[str, object]:
        """Picklable form for shipping to pool workers (only the
        worker-evaluated sites ride along)."""
        return {
            "specs": sorted(
                (site, rate, max_fires)
                for site, (rate, max_fires) in self.specs.items()
                if site in WORKER_SITES
            ),
            "seed": self.seed,
            "hang_seconds": self.hang_seconds,
        }


def parse_spec(text: str) -> Dict[str, Tuple[float, Optional[int]]]:
    """Parse ``"site:rate[@max],site:rate"`` into a spec dict.
    Raises ``ValueError`` on malformed entries or unknown sites."""
    specs: Dict[str, Tuple[float, Optional[int]]] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        site, sep, rest = item.partition(":")
        site = site.strip()
        if site not in SITES:
            raise ValueError(
                f"unknown fault site '{site}' "
                f"(known: {', '.join(sorted(SITES))})"
            )
        rate_text, at, max_text = rest.partition("@")
        rate = float(rate_text) if sep and rate_text.strip() else 1.0
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate for '{site}' must be in [0, 1]")
        max_fires = int(max_text) if at else None
        specs[site] = (rate, max_fires)
    return specs


# ----------------------------------------------------------------------
# Plan resolution: context-manager override > environment > nothing.
# ----------------------------------------------------------------------
_OVERRIDE: Optional[FaultPlan] = None
_SUPPRESSED = False
#: Environment plan memo, keyed on the raw knob strings so tests that
#: monkeypatch the environment get a fresh plan while steady state
#: keeps its query counters across calls.
_ENV_PLAN: Tuple[Optional[Tuple[str, str]], Optional[FaultPlan]] = (None, None)
_ENV_WARNED: set = set()


def _env_plan() -> Optional[FaultPlan]:
    global _ENV_PLAN
    text = os.environ.get("REPRO_FAULTS", "")
    if not text:
        return None
    seed_text = os.environ.get("REPRO_FAULTS_SEED", "0")
    key = (text, seed_text)
    cached_key, cached_plan = _ENV_PLAN
    if cached_key == key:
        return cached_plan
    try:
        specs = parse_spec(text)
        seed = int(seed_text)
    except ValueError as exc:
        if key not in _ENV_WARNED:
            _ENV_WARNED.add(key)
            print(
                f"[repro.faults] ignoring REPRO_FAULTS={text!r}: {exc}",
                file=sys.stderr,
            )
        _ENV_PLAN = (key, None)
        return None
    plan = FaultPlan(specs, seed=seed) if specs else None
    _ENV_PLAN = (key, plan)
    return plan


def active_plan() -> Optional[FaultPlan]:
    """The plan governing this process right now, or None."""
    if _SUPPRESSED:
        return None
    if _OVERRIDE is not None:
        return _OVERRIDE
    return _env_plan()


def fire(site: str) -> bool:
    """Should the named site misbehave on this query?  The single
    entry point the runtime calls; a no-plan process answers False in
    two dict lookups."""
    plan = active_plan()
    if plan is None:
        return False
    return plan.should_fire(site)


def hang_seconds() -> float:
    """How long an injected ``worker_hang`` sleeps (bounded so stray
    workers exit promptly after the leader times out and moves on)."""
    plan = active_plan()
    return plan.hang_seconds if plan is not None else 2.0


@contextlib.contextmanager
def inject_faults(
    spec: Optional[str] = None,
    *,
    seed: int = 0,
    hang_seconds: float = 2.0,
    **rates: float,
) -> Iterator[FaultPlan]:
    """Install a fault plan for the dynamic extent of the block.

    ``spec`` is the same mini-language as ``REPRO_FAULTS``; keyword
    arguments name sites directly (``inject_faults(worker_crash=1.0)``)
    and may carry ``(rate, max_fires)`` tuples.  Yields the plan so
    tests can read ``plan.fired``.
    """
    specs = parse_spec(spec) if spec else {}
    for site, value in rates.items():
        if site not in SITES:
            raise ValueError(f"unknown fault site '{site}'")
        if isinstance(value, tuple):
            rate, max_fires = value
        else:
            rate, max_fires = float(value), None
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate for '{site}' must be in [0, 1]")
        specs[site] = (rate, max_fires)
    plan = FaultPlan(specs, seed=seed, hang_seconds=hang_seconds)
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = plan
    try:
        yield plan
    finally:
        _OVERRIDE = previous


@contextlib.contextmanager
def suppress() -> Iterator[None]:
    """Mask every fault source (override *and* environment) — for
    tests that pin exact healthy-path behaviour and must stay valid
    inside a fault-injected CI run."""
    global _SUPPRESSED
    previous = _SUPPRESSED
    _SUPPRESSED = True
    try:
        yield
    finally:
        _SUPPRESSED = previous


# ----------------------------------------------------------------------
# Worker-side installation (repro.gles2.parallel ships plans by value)
# ----------------------------------------------------------------------
#: The encoded plans this worker has installed, keyed on their
#: canonical encoding so counter state survives across chunks of the
#: same plan (re-installing per chunk would restart the deterministic
#: sequence every dispatch).
_INSTALLED: Dict[Tuple, FaultPlan] = {}


def encode_active() -> Optional[Dict[str, object]]:
    """The active plan's worker-shippable encoding — None when no plan
    is active or it touches no worker site (workers then inject
    nothing, even if their inherited environment says otherwise: the
    leader's view wins)."""
    plan = active_plan()
    if plan is None:
        return None
    encoded = plan.encode()
    return encoded if encoded["specs"] else None


def install_encoded(encoded: Optional[Dict[str, object]]) -> None:
    """Adopt a leader-shipped plan in a worker process (None masks all
    injection, mirroring the leader's :func:`suppress`)."""
    global _OVERRIDE, _SUPPRESSED
    if encoded is None:
        _OVERRIDE = None
        _SUPPRESSED = True
        return
    _SUPPRESSED = False
    key = (
        tuple(tuple(s) for s in encoded["specs"]),
        encoded["seed"],
        encoded["hang_seconds"],
    )
    plan = _INSTALLED.get(key)
    if plan is None:
        specs = {
            site: (rate, max_fires)
            for site, rate, max_fires in encoded["specs"]
        }
        plan = FaultPlan(
            specs,
            seed=int(encoded["seed"]),
            hang_seconds=float(encoded["hang_seconds"]),
        )
        _INSTALLED[key] = plan
    _OVERRIDE = plan


def note_swallowed(site: str, exc: BaseException) -> None:
    """Report an exception a hardened fallback path absorbed.  Silent
    unless ``REPRO_DEBUG_FAULTS=1`` — degraded paths must not spam —
    but always available, so 'what did that bare except hide?' has a
    one-knob answer."""
    if os.environ.get("REPRO_DEBUG_FAULTS") == "1":
        print(
            f"[repro.faults] {site}: absorbed "
            f"{type(exc).__name__}: {exc}",
            file=sys.stderr,
        )
