"""Deferred launch graphs: record/replay kernel scheduling.

Eager execution pays per-launch GL state churn, a fresh texture per
intermediate, and a full pack→store→unpack round-trip between every
pair of dependent passes.  A :class:`LaunchGraph` defers instead:
launches recorded through :meth:`LaunchGraph.launch` build a dataflow
graph (nodes = launches, edges = GpuArray versions) that is replayed
by a scheduler doing three things the eager path cannot:

* **map-chain fusion** — a producer whose scratch output is consumed
  at matching length by exactly one launch is folded into its
  consumer: one fused program (:mod:`repro.core.codegen.fuse`), one
  draw, no intermediate texture.  The §IV byte transformations are
  lossless, so inserting the explicit per-format round-trip between
  the concatenated stages keeps the fused result bit-identical to
  eager execution on every backend.

* **scratch-array lifetime pooling** — intermediates declared with
  :meth:`LaunchGraph.scratch` draw their storage from a per-device,
  format-keyed :class:`ScratchPool` and return it the moment their
  last reader has run.  A ping-pong ladder that eagerly allocates
  O(log n) textures runs from two pooled backings.

* **dead-launch elimination** — launches whose output no kept array
  and no later launch observes are dropped.

Recording validates every launch eagerly (mistakes surface where they
were made); replay happens when the ``with device.record() as graph:``
block exits.  Any node the scheduler cannot prove fusable — multiple
consumers, non-identity gathers, missing kernel spec, non-"round"
quantization, a failed fused build — simply executes on the ordinary
eager path, so the graph is never less correct than eager, only
cheaper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ...perf import counters, trace
from ..codegen.fuse import (
    FusedStage,
    compose_chain_cached,
    stage_unfusable_reason,
)
from ..numerics.formats import NumericFormat, get_format
from .buffer import GpuArray, texture_shape
from .errors import GpgpuError, ShaderBuildError
from .kernel import Kernel


class ScratchPool:
    """Device-lifetime pool of scratch backing arrays, keyed by format.

    ``acquire`` recycles a free backing by re-specifying its texture
    storage to the requested length — the same zero-filled
    ``glTexImage2D`` a fresh :class:`GpuArray` performs, so a pooled
    scratch is bit-indistinguishable (contents *and* upload counters)
    from a new allocation while the GL object churn is skipped.
    """

    def __init__(self, device):
        self.device = device
        self._free: Dict[str, List[GpuArray]] = {}

    def acquire(self, length: int, fmt) -> GpuArray:
        fmt = get_format(fmt)
        counts = self.device.ctx.stats.counts
        free = self._free.get(fmt.name)
        if free:
            backing = free.pop()
            backing.respecify(length)
            counts["graph.scratch_reuses"] += 1
            return backing
        counts["graph.scratch_allocs"] += 1
        return GpuArray(self.device, length, fmt)

    def release(self, backing: GpuArray) -> None:
        self._free.setdefault(backing.format.name, []).append(backing)

    def free_count(self) -> int:
        return sum(len(backings) for backings in self._free.values())

    def drain(self) -> None:
        """Release the GL objects of every pooled backing."""
        for backings in self._free.values():
            for backing in backings:
                backing.release()
        self._free.clear()


class ScratchArray:
    """A recorded intermediate: length and format fixed at record time,
    storage assigned from the device :class:`ScratchPool` at replay.

    Mirrors the :class:`~repro.core.api.buffer.GpuArray` surface that
    kernels and readback touch, delegating to its pooled backing.  An
    unkept scratch is recycled as soon as its last recorded reader has
    executed; call :meth:`LaunchGraph.keep` on arrays that must
    survive replay (final results read back after the ``with`` block).
    """

    def __init__(self, graph: "LaunchGraph", length: int, fmt):
        if length <= 0:
            raise GpgpuError("array length must be positive")
        self.graph = graph
        self.device = graph.device
        self.length = length
        self.format: NumericFormat = get_format(fmt)
        self.width, self.height = texture_shape(
            length, self.device.ctx.limits.max_texture_size
        )
        self.backing: Optional[GpuArray] = None
        self.kept = False
        self.recycled = False

    # -- GpuArray surface ----------------------------------------------
    @property
    def texel_count(self) -> int:
        return self.width * self.height

    @property
    def size_vec2(self) -> "tuple[float, float]":
        return float(self.width), float(self.height)

    @property
    def texture(self) -> int:
        return self._materialised().texture

    def framebuffer(self) -> int:
        return self._materialised().framebuffer()

    def to_host(self):
        return self._materialised().to_host()

    def release(self) -> None:
        """Return the backing to the scratch pool."""
        if self.backing is not None and not self.recycled:
            self.device.scratch_pool.release(self.backing)
        self.backing = None
        self.recycled = True

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "recycled" if self.recycled
            else "materialised" if self.backing is not None
            else "recorded"
        )
        return (
            f"ScratchArray({self.length} x {self.format.name}, {state})"
        )

    # ------------------------------------------------------------------
    def _materialised(self) -> GpuArray:
        if self.recycled:
            raise GpgpuError(
                "scratch array was recycled at replay — graph.keep() "
                "arrays that must be read back after the record block"
            )
        if self.backing is None:
            raise GpgpuError(
                "scratch array has no storage yet (the graph has not "
                "been replayed)"
            )
        return self.backing


@dataclass
class LaunchNode:
    """One recorded launch."""

    index: int
    kernel: Kernel
    out: object
    inputs: Dict[str, object]
    uniforms: Dict[str, object]
    out_version: int
    input_versions: Dict[str, int] = field(default_factory=dict)


@counters.expose("graph.")
@dataclass
class ReplayStats:
    """What one replay did.  ``counts`` is the change it made to the
    context's :class:`~repro.perf.counters.ContextStats` tally; the
    ``graph.*`` scheduling counters read as ``fused_draws``,
    ``elided_draws``, ``dead_launches``, ``scratch_allocs``,
    ``scratch_reuses`` and ``elided_intermediate_bytes``."""

    recorded: int = 0
    executed_draws: int = 0
    counts: Dict[str, int] = field(default_factory=dict)


class LaunchGraph:
    """A deferred sequence of kernel launches (see module docstring).

    Obtained from :meth:`GpgpuDevice.record`; replays on clean exit of
    the ``with`` block (or via an explicit :meth:`replay`).
    """

    def __init__(self, device):
        self.device = device
        self.nodes: List[LaunchNode] = []
        self.closed = False
        self.stats: Optional[ReplayStats] = None
        self._versions: Dict[int, int] = {}
        self._arrays: Dict[int, object] = {}

    # -- recording -----------------------------------------------------
    def _check_open(self) -> None:
        if self.closed:
            raise GpgpuError("LaunchGraph has already been replayed")

    def scratch(self, length: int, fmt) -> ScratchArray:
        """Declare a pooled intermediate array."""
        self._check_open()
        array = ScratchArray(self, length, fmt)
        # Registered immediately so a kept-but-never-written scratch
        # still materialises (zero-filled) at replay.
        self._arrays.setdefault(id(array), array)
        return array

    def keep(self, array):
        """Mark a scratch array as surviving replay (final results).
        Passing a real GpuArray is a no-op, so drivers can keep
        whatever they are about to return."""
        if isinstance(array, ScratchArray):
            array.kept = True
        return array

    def launch(self, kernel: Kernel, out, inputs=None, uniforms=None):
        """Record one launch.  Validated immediately with the same
        checks as an eager ``kernel(out, inputs, uniforms)`` call;
        execution is deferred to replay."""
        self._check_open()
        if not isinstance(kernel, Kernel):
            raise GpgpuError(
                "graph.launch() records single-output Kernel objects"
            )
        inputs = dict(inputs or {})
        uniforms = dict(uniforms or {})
        kernel.validate_launch(out, inputs, uniforms)
        input_versions: Dict[str, int] = {}
        for name, arr in inputs.items():
            self._arrays.setdefault(id(arr), arr)
            input_versions[name] = self._versions.get(id(arr), 0)
        self._arrays.setdefault(id(out), out)
        version = self._versions.get(id(out), 0) + 1
        self._versions[id(out)] = version
        self.nodes.append(
            LaunchNode(
                index=len(self.nodes),
                kernel=kernel,
                out=out,
                inputs=inputs,
                uniforms=uniforms,
                out_version=version,
                input_versions=input_versions,
            )
        )
        return out

    def __enter__(self) -> "LaunchGraph":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.device._active_graph is self:
            self.device._active_graph = None
        if exc_type is None and not self.closed:
            self.replay()
        return False

    # -- scheduling ----------------------------------------------------
    def replay(self) -> ReplayStats:
        """Schedule and execute the recorded launches."""
        self._check_open()
        self.closed = True
        if self.device._active_graph is self:
            self.device._active_graph = None
        ctx = self.device.ctx
        before = dict(ctx.stats.counts)
        # Manual span (rather than ``with``) keeps the disabled path
        # down to one attribute load.
        recorder = trace.active()
        span_t0 = perf_counter() if recorder is not None else 0.0

        stats = ReplayStats(recorded=len(self.nodes))
        with ctx.attributed():
            self._schedule(stats, ctx.stats.counts)
        stats.counts = counters.delta(before, ctx.stats.counts)
        if recorder is not None:
            recorder.complete(
                "graph.replay", "graph", span_t0, perf_counter(), {
                    "recorded": stats.recorded,
                    "executed_draws": stats.executed_draws,
                    "fused_draws": stats.fused_draws,
                    "elided_draws": stats.elided_draws,
                    "dead_launches": stats.dead_launches,
                    "scratch_allocs": stats.scratch_allocs,
                    "scratch_reuses": stats.scratch_reuses,
                    "elided_intermediate_bytes": (
                        stats.elided_intermediate_bytes
                    ),
                },
            )
        self.stats = stats
        return stats

    def _schedule(self, stats: ReplayStats, counts: Dict[str, int]) -> None:
        """The replay body: ``stats`` takes the draw tallies, ``counts``
        (the context's tally) the ``graph.*`` counters."""
        live = self._eliminate_dead(counts)
        chains, fused_member = self._plan_chains(live)
        steps = self._plan_steps(live, chains, fused_member)
        release_at = self._plan_lifetimes(steps, chains)

        for pos, (kind, payload) in enumerate(steps):
            if kind == "node":
                self._execute_node(payload)
                stats.executed_draws += 1
            else:
                chain = payload
                if self._execute_chain(chain):
                    stats.executed_draws += 1
                    counts["graph.fused_draws"] += 1
                    counts["graph.elided_draws"] += len(chain) - 1
                    chain_bytes = 0
                    for node in chain[:-1]:
                        inter = node.out
                        # One texture write plus one re-read that
                        # never happened: the elided transfer.
                        chain_bytes += (
                            inter.width * inter.height * 4 * 2
                        )
                        inter.recycled = True
                    counts["graph.elided_intermediate_bytes"] += chain_bytes
                    trace.instant("graph.fuse", "graph", {
                        "stages": len(chain),
                        "elided_bytes": chain_bytes,
                    })
                else:
                    # Fused build/validation failed: run the chain on
                    # the eager path, then recycle its intermediates.
                    for node in chain:
                        self._execute_node(node)
                        stats.executed_draws += 1
                    for node in chain[:-1]:
                        if isinstance(node.out, ScratchArray):
                            node.out.release()
            for scratch in release_at.get(pos, ()):
                if not scratch.kept and not scratch.recycled:
                    scratch.release()

        # Kept scratch arrays no live launch wrote still honour their
        # keep: materialise them (zero-filled, like a fresh empty()).
        for arr in self._arrays.values():
            if (
                isinstance(arr, ScratchArray)
                and arr.kept
                and arr.backing is None
                and not arr.recycled
            ):
                self._materialise(arr)

    # ------------------------------------------------------------------
    def _eliminate_dead(self, counts: Dict[str, int]) -> List[LaunchNode]:
        """Backward liveness over (array, version) pairs: a launch is
        live iff its written version is observable — read by a live
        later launch, or the final version of a real / kept array."""
        required: set = set()
        for aid, arr in self._arrays.items():
            final = self._versions.get(aid, 0)
            if final and (
                not isinstance(arr, ScratchArray) or arr.kept
            ):
                required.add((aid, final))
        live: List[LaunchNode] = []
        for node in reversed(self.nodes):
            if (id(node.out), node.out_version) in required:
                live.append(node)
                for name, arr in node.inputs.items():
                    required.add((id(arr), node.input_versions[name]))
            else:
                counts["graph.dead_launches"] += 1
        live.reverse()
        return live

    def _plan_chains(
        self, live: List[LaunchNode]
    ) -> Tuple[List[List[LaunchNode]], Dict[int, int]]:
        """Find maximal fusable map chains among the live launches."""
        chains: List[List[LaunchNode]] = []
        fused_member: Dict[int, int] = {}
        if self.device.ctx.quantization != "round":
            # The eager intermediate's floor-mode byte conversion is
            # not reproducible in shader float arithmetic across float
            # models; stay on the eager path (see codegen.fuse).
            return chains, fused_member

        readers: Dict[Tuple[int, int], List[Tuple[LaunchNode, str]]] = {}
        for node in live:
            for name, arr in node.inputs.items():
                readers.setdefault(
                    (id(arr), node.input_versions[name]), []
                ).append((node, name))

        by_index = {node.index: node for node in live}
        fuse_next: Dict[int, Tuple[int, str]] = {}
        consumed: set = set()
        for p in live:
            out = p.out
            if not isinstance(out, ScratchArray) or out.kept:
                continue
            if self._versions.get(id(out), 0) != 1:
                continue  # rewritten later — not a simple intermediate
            reads = readers.get((id(out), 1), [])
            if len(reads) != 1:
                continue  # zero or multiple consumers / input slots
            consumer, iname = reads[0]
            if consumer.index <= p.index or consumer.index in consumed:
                continue
            if p.kernel.spec is None or consumer.kernel.spec is None:
                continue
            if out.length != consumer.out.length:
                continue
            if (out.width, out.height) != (
                consumer.out.width,
                consumer.out.height,
            ):
                continue
            if stage_unfusable_reason(p.kernel.spec, []) is not None:
                continue
            if (
                stage_unfusable_reason(consumer.kernel.spec, [iname])
                is not None
            ):
                continue
            fuse_next[p.index] = (consumer.index, iname)
            consumed.add(consumer.index)

        for p in live:
            if p.index not in fuse_next or p.index in consumed:
                continue  # not a chain head
            chain = [p]
            cur = p
            while cur.index in fuse_next:
                consumer = by_index[fuse_next[cur.index][0]]
                candidate = chain + [consumer]
                if not self._chain_inputs_stable(candidate, live):
                    break
                chain = candidate
                cur = consumer
            if len(chain) >= 2:
                cid = len(chains)
                chains.append(chain)
                for node in chain:
                    fused_member[node.index] = cid
        return chains, fused_member

    def _chain_inputs_stable(
        self, stages: List[LaunchNode], live: List[LaunchNode]
    ) -> bool:
        """Fusing executes every stage at the last stage's position:
        each stage's external inputs must still hold the version it
        recorded against, and none may alias the fused output."""
        final = stages[-1]
        chain_set = {node.index for node in stages}
        intermediates = {id(node.out) for node in stages[:-1]}
        for node in stages:
            for arr in node.inputs.values():
                if id(arr) in intermediates:
                    continue
                if arr is final.out:
                    return False
                for writer in live:
                    if writer.index in chain_set:
                        continue
                    if (
                        node.index < writer.index < final.index
                        and writer.out is arr
                    ):
                        return False
        return True

    def _plan_steps(self, live, chains, fused_member):
        steps: List[Tuple[str, object]] = []
        for node in live:
            cid = fused_member.get(node.index)
            if cid is None:
                steps.append(("node", node))
            elif node is chains[cid][-1]:
                steps.append(("chain", chains[cid]))
            # chain heads/middles are folded into the chain step
        return steps

    def _plan_lifetimes(self, steps, chains):
        """Last step position touching each scratch array → the step
        after which it returns to the pool.  Elided intermediates are
        excluded: they are never materialised at all."""
        last_use: Dict[int, int] = {}
        by_id: Dict[int, ScratchArray] = {}
        for pos, (kind, payload) in enumerate(steps):
            if kind == "node":
                touched = [payload.out, *payload.inputs.values()]
            else:
                chain = payload
                intermediates = {id(node.out) for node in chain[:-1]}
                touched = [chain[-1].out]
                for node in chain:
                    for arr in node.inputs.values():
                        if id(arr) not in intermediates:
                            touched.append(arr)
            for arr in touched:
                if isinstance(arr, ScratchArray):
                    by_id[id(arr)] = arr
                    last_use[id(arr)] = pos
        release_at: Dict[int, List[ScratchArray]] = {}
        for aid, pos in last_use.items():
            release_at.setdefault(pos, []).append(by_id[aid])
        return release_at

    # -- execution -----------------------------------------------------
    def _materialise(self, arr):
        if isinstance(arr, ScratchArray):
            if arr.recycled:  # pragma: no cover - scheduler invariant
                raise GpgpuError(
                    "internal: recycled scratch reached execution"
                )
            if arr.backing is None:
                arr.backing = self.device.scratch_pool.acquire(
                    arr.length, arr.format
                )
            return arr.backing
        return arr

    def _execute_node(self, node: LaunchNode) -> None:
        out = self._materialise(node.out)
        inputs = {
            name: self._materialise(arr)
            for name, arr in node.inputs.items()
        }
        node.kernel._execute(out, inputs, node.uniforms)

    def _execute_chain(self, chain: List[LaunchNode]) -> bool:
        """Build and run the fused program for one chain.  Returns
        False (caller falls back to eager) if the fused source fails
        to build or validate."""
        device = self.device
        stages = []
        for pos, node in enumerate(chain):
            inter = []
            for name, arr in node.inputs.items():
                for j, prev in enumerate(chain[:pos]):
                    if arr is prev.out:
                        inter.append((name, j))
                        break
            stages.append(
                FusedStage(
                    spec=node.kernel.spec, intermediates=tuple(inter)
                )
            )
        final = chain[-1]
        try:
            recipe = compose_chain_cached(stages)
            fused = device.kernel(
                name=recipe.name,
                inputs=recipe.inputs,
                output=recipe.output,
                body=recipe.body,
                uniforms=recipe.uniforms,
                mode="gather",
                preamble=recipe.preamble,
                extra_formats=recipe.extra_formats,
            )
        except (ValueError, ShaderBuildError) as exc:
            # Composition or build failure (injected or organic):
            # count the degraded path and replay the chain eagerly —
            # fusion is an optimisation, the eager ladder is always
            # semantically complete.
            from ...testing import faults

            counters.values["fault.fallbacks"] += 1
            faults.note_swallowed("fuse_compose", exc)
            trace.instant("graph.fallback", "graph", {
                "stages": len(chain), "reason": type(exc).__name__,
            })
            return False
        fused_inputs = {
            fname: self._materialise(chain[si].inputs[orig])
            for si, orig, fname in recipe.input_map
        }
        fused_uniforms = {}
        for si, orig, fname in recipe.uniform_map:
            if orig in chain[si].uniforms:
                fused_uniforms[fname] = chain[si].uniforms[orig]
        out = self._materialise(final.out)
        try:
            fused.validate_launch(out, fused_inputs, fused_uniforms)
        except GpgpuError:
            trace.instant("graph.fallback", "graph", {
                "stages": len(chain), "reason": "validate_launch",
            })
            return False
        fused._execute(out, fused_inputs, fused_uniforms)
        return True
