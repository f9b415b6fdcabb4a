"""Event counters — one registry — and dynamic operation counters.

Every event tally in the runtime (artifact-store traffic, compile
provenance, pool retries, degraded paths, texture gathers, transfer
bytes, graph scheduling) is declared once in :data:`DECLARATIONS` by
dotted name and scope, and read through one generic
:func:`snapshot`/:func:`delta`/:func:`merge`/:func:`reset`.  The GLES2
context takes its scoped delta around its own compiles, draws and
graph replays, so a context counts only its own work.

The GLSL interpreter reports every executed operation (per active
lane) to an :class:`OpCounters` sink; the GLES2 context aggregates
them per draw call (:class:`DrawStats`) and per context lifetime
(:class:`ContextStats`).  The performance models in this package turn
these counts into simulated wall time.

:func:`static_shader_ops` is the static counterpart: it projects the
same counter totals from the *compiled IR artifact*
(:mod:`repro.glsl.ir`) without running the shader at all — op table ×
invocation count.  For straight-line shaders (the paper's E1 kernels
after select-conversion) the projection is exact; divergent control
flow degrades it to an estimate and clears the ``exact`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


#: Counter scopes.  ``process`` and ``draw`` counters are bumped in
#: :data:`values`, the process totals; a context attributes to itself
#: the part that accrued during its own compiles, draws and graph
#: replays.  ``draw`` counters are also captured per draw
#: (``DrawStats.counts``) and shipped back from pool workers, which
#: bump them in their own process.  ``context`` counters are bumped by
#: a context directly on its own ``ContextStats.counts``.
PROCESS, CONTEXT, DRAW = "process", "context", "draw"

#: Every event counter, declared once: dotted name, scope, and the
#: attribute that reads it on ``ContextStats`` (and on ``DrawStats``
#: for ``draw.*``, ``ReplayStats`` for ``graph.*``), if any.
DECLARATIONS = (
    ("cache.disk.hits", PROCESS, "disk_cache_hits"),
    ("cache.disk.misses", PROCESS, "disk_cache_misses"),
    ("cache.disk.evictions", PROCESS, "disk_cache_evictions"),
    ("cache.disk.corrupt", PROCESS, "disk_cache_corrupt"),
    ("cache.disk.write_failures", PROCESS, "cache_write_failures"),
    ("cache.disk.orphans_removed", PROCESS, "cache_orphans_removed"),
    ("cache.disk.load_failures", PROCESS, None),
    ("cache.disk.lock_skips", PROCESS, None),
    ("compile.frontend.memo_hits", PROCESS, None),
    ("compile.frontend.memo_misses", PROCESS, None),
    ("compile.frontend.disk", PROCESS, "disk_warm_compiles"),
    # Always 0 since IR programs left the artifact store; declared
    # because the benchmark ledger reads them.
    ("compile.ir.fresh", PROCESS, None),
    ("compile.ir.disk", PROCESS, None),
    # IR pipeline runs (lowering and passes): at most one per shader
    # and float model in a process.
    ("compile.ir.uncached", PROCESS, None),
    # Pass-pipeline rounds run by every IR compile (at most 4 each).
    ("compile.ir.pass_rounds", PROCESS, None),
    ("compile.jit.fresh", PROCESS, None),
    ("compile.jit.disk", PROCESS, None),
    ("compile.jit.uncached", PROCESS, None),
    ("jit.fallbacks", PROCESS, None),
    ("pool.draws", PROCESS, None),
    ("pool.retries", PROCESS, "worker_retries"),
    ("pool.restarts", PROCESS, "pool_restarts"),
    ("fault.fallbacks", PROCESS, "fault_fallbacks"),
    ("draw.texture_gathers", DRAW, "texture_gathers"),
    ("draw.gather_fallbacks", DRAW, "gather_fallbacks"),
    ("jit.storage_decodes", DRAW, None),
    ("compile.shaders", CONTEXT, "shader_compiles"),
    ("compile.links", CONTEXT, "program_links"),
    ("gl.uniform_updates", CONTEXT, "uniform_updates"),
    ("transfer.texture_upload_bytes", CONTEXT, "texture_upload_bytes"),
    ("transfer.buffer_upload_bytes", CONTEXT, "buffer_upload_bytes"),
    ("transfer.readback_bytes", CONTEXT, "readback_bytes"),
    ("kernel.cache_hits", CONTEXT, None),
    ("graph.fused_draws", CONTEXT, "fused_draws"),
    ("graph.elided_draws", CONTEXT, "elided_draws"),
    # Always 0 (replay drops no launch); only the ledger reads it.
    ("graph.dead_launches", CONTEXT, "dead_launches"),
    ("graph.scratch_allocs", CONTEXT, "scratch_allocs"),
    # Always 0 (scratches are never pooled); only the ledger reads it.
    ("graph.scratch_reuses", CONTEXT, "scratch_reuses"),
    ("graph.elided_intermediate_bytes", CONTEXT, "elided_intermediate_bytes"),
)

SCOPES: Dict[str, str] = {name: scope for name, scope, __ in DECLARATIONS}

#: Process totals of every ``process`` and ``draw`` counter.  Always
#: mutated in place: hot paths (the JIT gather sites) hold a reference.
values: Dict[str, int] = {
    name: 0 for name, scope in SCOPES.items() if scope != CONTEXT
}

_NAMES = {
    scope: tuple(name for name in values if SCOPES[name] == scope)
    for scope in (PROCESS, DRAW)
}


def zeros() -> Dict[str, int]:
    """A fresh all-zero tally of every declared counter."""
    return dict.fromkeys(SCOPES, 0)


def snapshot(scope: Optional[str] = None) -> Dict[str, int]:
    """A copy of the process totals, optionally of one scope only."""
    if scope is None:
        return values.copy()
    return {name: values[name] for name in _NAMES[scope]}


def delta(before: Dict[str, int],
          after: Optional[Dict[str, int]] = None) -> Dict[str, int]:
    """The non-zero changes from ``before`` to ``after`` (default: the
    process totals now), over the names in ``before``."""
    if after is None:
        after = values
    return {
        name: after[name] - old
        for name, old in before.items() if after[name] != old
    }


def merge(changes: Dict[str, int],
          into: Optional[Dict[str, int]] = None) -> None:
    """Add ``changes`` into a tally (default: the process totals)."""
    if into is None:
        into = values
    for name, count in changes.items():
        into[name] = into.get(name, 0) + count


def restore(saved: Dict[str, int]) -> None:
    """Put the process totals back to an earlier :func:`snapshot`."""
    values.update(saved)


def reset() -> None:
    """Zero the process totals."""
    values.update(dict.fromkeys(values, 0))


def _counter_property(name: str) -> property:
    def get(self):
        return self.counts.get(name, 0)

    def set_(self, count):
        self.counts[name] = count

    return property(get, set_, doc=f"The ``{name}`` counter.")


def expose(prefix: str = ""):
    """Class decorator: one read/write attribute per declared alias
    whose counter name starts with ``prefix``, backed by the
    instance's ``counts`` tally."""

    def decorate(cls):
        for name, __, alias in DECLARATIONS:
            if alias is not None and name.startswith(prefix):
                setattr(cls, alias, _counter_property(name))
        return cls

    return decorate


class View:
    """Read-only view of registry counters under short keys, for the
    callers that read the older per-module tallies (the benchmark
    ledger): ``View("compile.ir.")`` maps ``fresh`` to
    ``compile.ir.fresh``; an explicit ``{short: name}`` dict renames."""

    __slots__ = ("names",)

    def __init__(self, names):
        if isinstance(names, str):
            names = {
                name[len(names):]: name
                for name in SCOPES if name.startswith(names)
            }
        self.names: Dict[str, str] = names

    def snapshot(self) -> Dict[str, int]:
        return {short: values[name] for short, name in self.names.items()}

    def items(self):
        return self.snapshot().items()


#: The degraded-path counters under their older names, for the ledger.
fault_path_stats = View({
    "worker_retries": "pool.retries",
    "pool_restarts": "pool.restarts",
    "fault_fallbacks": "fault.fallbacks",
})


class OpCounters:
    """Counts of dynamic shader operations by category.

    Categories: ``alu`` (adds/muls/compares/moves), ``sfu``
    (transcendentals: the QPU services these through lookup +
    iteration, several cycles each), ``tex`` (texture fetches through
    the TMU).
    """

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: Dict[str, int] = {"alu": 0, "sfu": 0, "tex": 0}

    def add(self, category: str, count: int) -> None:
        self.counts[category] = self.counts.get(category, 0) + count

    def merge(self, other: "OpCounters") -> None:
        for key, value in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    @property
    def alu(self) -> int:
        return self.counts.get("alu", 0)

    @property
    def sfu(self) -> int:
        return self.counts.get("sfu", 0)

    @property
    def tex(self) -> int:
        return self.counts.get("tex", 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, int]:
        return dict(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpCounters({self.counts})"


def static_shader_ops(checked, float_model=None, invocations=1):
    """Static IR-cost mode: project the dynamic counter totals of one
    shader stage from its compiled IR artifact.

    Returns ``(OpCounters, exact)`` — the projected counts for a draw
    shading ``invocations`` lanes, and whether the projection is
    guaranteed to equal the runtime tally (no data-dependent control
    flow survives compilation).  Lazy-imports the IR layer so the
    counter module stays dependency-free for plain dynamic use.
    """
    from ..glsl.ir import get_compiled, static_cost

    program = get_compiled(checked, float_model)
    cost = static_cost(program)
    counters = OpCounters()
    for category, count in cost.totals(invocations).items():
        counters.add(category, count)
    return counters, cost.exact


@expose("draw.")
@dataclass
class DrawStats:
    """Everything one draw call did.

    The invocation and op fields are per-lane model inputs.  ``counts``
    holds the ``draw`` counters that changed during the draw;
    ``texture_gathers``/``gather_fallbacks`` read the JIT fused-read
    tallies (see repro.glsl.ir.gather): site executions that read the
    stored bytes directly, and those that failed the runtime check
    and ran the original coordinates, sample and decode instead.
    """

    vertex_invocations: int = 0
    fragment_invocations: int = 0
    discarded_fragments: int = 0
    vertex_ops: OpCounters = field(default_factory=OpCounters)
    fragment_ops: OpCounters = field(default_factory=OpCounters)
    framebuffer_writes: int = 0  # pixels written
    counts: Dict[str, int] = field(default_factory=dict)


@expose()
@dataclass
class ContextStats:
    """Lifetime counters for one GL context — the raw material for the
    wall-time model.

    ``counts`` tallies every declared counter for this context: the
    ``context`` counters the context bumps itself, plus the process
    counters that accrued during its own compiles, draws and graph
    replays.  The declared aliases (``shader_compiles``,
    ``disk_cache_misses``, ...) read and write it.
    """

    draws: List[DrawStats] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=zeros)

    def total_fragments(self) -> int:
        return sum(d.fragment_invocations for d in self.draws)

    def total_vertices(self) -> int:
        return sum(d.vertex_invocations for d in self.draws)

    def total_ops(self) -> OpCounters:
        acc = OpCounters()
        for draw in self.draws:
            acc.merge(draw.vertex_ops)
            acc.merge(draw.fragment_ops)
        return acc

    def reset(self) -> None:
        self.draws.clear()
        self.counts = zeros()
