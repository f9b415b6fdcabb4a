"""Shader and program objects (ES 2 §2.10).

``Shader`` wraps the GLSL front end: ``glCompileShader`` runs the
preprocessor, parser and type checker and produces a driver-style info
log on failure.  What a shader object keeps of a successful compile is
its :class:`LinkSummary` — the stage, source digest and fusion
signature, the interface symbols with their types and precisions, the
struct types, the written builtins and ``has_main`` — which is all
``glLinkProgram`` and a draw read of it, and which also carries the
JIT kernels generated for it (:func:`repro.glsl.jit.get_compiled`).
Summaries are memoised per (stage, source hash): recompiling identical
source — e.g. relaunching the same GPGPU kernel — returns the memoised
summary without touching the front end.  The artifact store's
``frontend`` entry is the pickled summary.

The full front-end result — the typed AST (:class:`CheckedShader`)
and the IR programs lowered from it — lives only in a small LRU of
:data:`FRONTEND_CAPACITY` entries, the way a GLES2 driver keeps a
program's binary but releases its compiler's intermediate forms.  An
IR consumer (an IR-executor draw, a JIT miss or fallback, an unfolded
global initialiser, a pooled draw, the capture hook) asks the summary
for it through :meth:`LinkSummary.frontend`, which reruns the front
end from the summary's source when the LRU has dropped it, counted in
``compile.frontend.reruns``.

``Program`` links a vertex + fragment pair: varyings
are matched by name and type, uniforms from both stages are merged and
flattened into locations (including struct members and arrays, with
``glGetUniformLocation("s.field[3]")`` syntax), and attribute
locations are assigned (respecting ``glBindAttribLocation``).
"""

from __future__ import annotations

import hashlib
import re
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..glsl import ast_nodes  # noqa: F401  (re-exported for tooling)
from ..glsl.errors import GlslError
from ..glsl.optimize import optimize
from ..glsl.typecheck import CheckedShader, ShaderStage, check
from ..glsl.types import BaseType, GlslType, TypeKind
from ..glsl.values import INT_DTYPE, Value
from ..perf import counters, trace
from . import enums


# The front end's compile-only stages, imported on the first cold
# compile: a process whose shaders all come from the memo or the
# artifact store never loads them (``optimize`` defers its own import).
def preprocess(source: str):
    """:func:`repro.glsl.preprocessor.preprocess`."""
    from ..glsl.preprocessor import preprocess as run

    return run(source)


def parse(source: str):
    """:func:`repro.glsl.parser.parse`."""
    from ..glsl.parser import parse as run

    return run(source)


#: Fusion-signature marker the map-chain composer embeds in fused
#: kernel sources (see repro.core.codegen.fuse.compose_chain); the
#: signature becomes a component of the disk-cache keys of every
#: artifact compiled from that source.
_FUSION_MARKER = re.compile(r"//\s*gpgpu-fusion:\s*([0-9a-f]+)")


def frontend_cache_key(stage: str, source: str) -> Tuple[str, str]:
    """The program-cache key: (stage, source hash).  The second half of
    the full key — the float/precision model — is applied downstream by
    :func:`repro.glsl.ir.get_compiled` and
    :func:`repro.glsl.jit.get_compiled`."""
    return (stage, hashlib.sha1(source.encode("utf-8")).hexdigest())


def run_frontend(source: str, stage: str) -> CheckedShader:
    """Preprocess, parse, optimise and type-check ``source``, stamped
    with the identity the compile caches key on (source digest and
    fusion signature).  Raises :class:`~repro.glsl.errors.GlslError`."""
    checked = check(optimize(parse(preprocess(source).source)), stage)
    checked.source_digest = frontend_cache_key(stage, source)[1]
    match = _FUSION_MARKER.search(source)
    checked.fusion_signature = match.group(1) if match else ""
    return checked


class LinkSymbol(NamedTuple):
    """One interface global of a link summary: a uniform, attribute,
    varying or builtin, without its initialiser."""

    name: str
    type: GlslType
    qualifier: str
    precision: Optional[str]


#: The global qualifiers a link summary keeps.
_LINKED_QUALIFIERS = frozenset({"uniform", "attribute", "varying", "builtin"})


class LinkSummary:
    """What linking and drawing read of a compiled shader, and the JIT
    kernels generated for it.  Pickled as the ``frontend`` artifact
    without ``source`` and ``kernels``, which the loading shader object
    attaches."""

    __slots__ = ("stage", "source_digest", "fusion_signature", "globals",
                 "structs", "written_builtins", "has_main", "source",
                 "kernels")

    #: The fields a ``frontend`` entry stores, in order.
    _STORED = __slots__[:7]

    def __init__(self, checked: CheckedShader, source: str):
        self.stage = checked.stage
        self.source_digest = checked.source_digest
        self.fusion_signature = checked.fusion_signature
        self.globals = tuple(
            LinkSymbol(g.name, g.type, g.qualifier, g.precision)
            for g in checked.globals.values()
            if g.qualifier in _LINKED_QUALIFIERS
        )
        self.structs = dict(checked.structs)
        self.written_builtins = frozenset(checked.written_builtins)
        self.has_main = checked.has_main
        self.source = source
        self.kernels = checked.kernels

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self._STORED)

    def __setstate__(self, state) -> None:
        # A summary pickled with another field layout is bad data: the
        # store counts it as a load failure and recompiles.
        if not isinstance(state, tuple) or len(state) != len(self._STORED):
            raise ValueError("link summary of another layout")
        for name, value in zip(self._STORED, state):
            setattr(self, name, value)
        self.source = ""
        self.kernels = {}

    def active_uniforms(self) -> List[LinkSymbol]:
        return [g for g in self.globals if g.qualifier == "uniform"]

    def active_attributes(self) -> List[LinkSymbol]:
        return [g for g in self.globals if g.qualifier == "attribute"]

    def varyings(self) -> List[LinkSymbol]:
        return [g for g in self.globals if g.qualifier == "varying"]

    def frontend(self) -> CheckedShader:
        """The full front-end result: from the LRU when it still holds
        this shader's, otherwise the front end reruns on the summary's
        source (counted in ``compile.frontend.reruns``, traced as a
        ``compile.shader`` span with ``event="rerun"``) and the result
        joins the LRU, sharing this summary's kernels."""
        key = (self.stage, self.source_digest)
        checked = _FRONTEND_RESULTS.get(key)
        if checked is not None:
            _FRONTEND_RESULTS.move_to_end(key)
            return checked
        with trace.span("compile.shader", "compile",
                        {"stage": self.stage, "event": "rerun"}):
            checked = run_frontend(self.source, self.stage)
        counters.values["compile.frontend.reruns"] += 1
        checked.kernels = self.kernels
        _remember(_FRONTEND_RESULTS, key, checked, FRONTEND_CAPACITY)
        return checked


#: Full front-end results (CheckedShader, with the IR programs memoised
#: on it) the process keeps: a small LRU, so a many-kernel process
#: holds the typed ASTs and IR programs of its most recent shaders only.
FRONTEND_CAPACITY = 16
_FRONTEND_RESULTS: "OrderedDict[Tuple[str, str], CheckedShader]" = (
    OrderedDict()
)

#: (stage, sha1(source)) -> LinkSummary for successful compiles, least
#: recently used first.  Failures are never cached so the info log is
#: regenerated each time.
_SUMMARIES: "OrderedDict[Tuple[str, str], LinkSummary]" = OrderedDict()
_SUMMARY_CAPACITY = 256

#: The front-end cache counters under their short names, read-only,
#: for the benchmark ledger.
#: ``compile.frontend.disk`` counts the in-memory misses that the
#: persistent artifact store (:mod:`repro.core.cache`) served instead
#: of a fresh parse/typecheck; they also count as memo misses.
frontend_cache_stats = counters.View({
    "hits": "compile.frontend.memo_hits",
    "misses": "compile.frontend.memo_misses",
    "disk_hits": "compile.frontend.disk",
})


def _remember(cache: OrderedDict, key, value, capacity: int) -> None:
    cache[key] = value
    cache.move_to_end(key)
    while len(cache) > capacity:
        cache.popitem(last=False)


def clear_frontend_cache() -> None:
    """Drop every memoised summary and front-end result, as a fresh
    process starts."""
    _SUMMARIES.clear()
    _FRONTEND_RESULTS.clear()


class Shader:
    """One shader object."""

    def __init__(self, name: int, shader_type: int):
        self.name = name
        self.type = shader_type
        self.source = ""
        self.compiled = False
        self.info_log = ""
        #: The link summary of the last successful compile.
        self.summary: Optional[LinkSummary] = None
        self.deleted = False
        #: Whether the last successful compile was served by the
        #: persistent artifact store (no fresh parse/typecheck ran in
        #: this process for this source).  The context counts these as
        #: ``disk_warm_compiles`` for the wall-time model.
        self.loaded_from_disk = False

    @property
    def stage(self) -> str:
        if self.type == enums.GL_VERTEX_SHADER:
            return ShaderStage.VERTEX
        return ShaderStage.FRAGMENT

    def compile(self) -> None:
        """glCompileShader: run the full front end — or hit the
        in-process memo, or warm-start from the persistent artifact
        store (:mod:`repro.core.cache`)."""
        from ..core import cache as artifact_cache

        self.compiled = False
        self.summary = None
        self.info_log = ""
        self.loaded_from_disk = False
        key = frontend_cache_key(self.stage, self.source)
        cached = _SUMMARIES.get(key)
        if cached is not None:
            counters.values["compile.frontend.memo_hits"] += 1
            _SUMMARIES.move_to_end(key)
            self.summary = cached
            self.compiled = True
            return
        counters.values["compile.frontend.memo_misses"] += 1
        disk_key = None
        if artifact_cache.enabled():
            disk_key = artifact_cache.artifact_key(
                "frontend", key[1], stage=self.stage
            )
            data = artifact_cache.get(disk_key)
            if data is not None:
                summary = artifact_cache.load_summary(data)
                if summary is not None and \
                        (summary.stage, summary.source_digest) == key:
                    counters.values["compile.frontend.disk"] += 1
                    summary.source = self.source
                    self._compiled(summary)
                    self.loaded_from_disk = True
                    return
                # Undeserialisable payload or wrong stage under a
                # colliding key: drop the entry and recompile.
                artifact_cache.invalidate(disk_key)
        try:
            checked = run_frontend(self.source, self.stage)
        except GlslError as exc:
            self.info_log = exc.info_log_entry() + "\n"
            return
        _remember(_FRONTEND_RESULTS, key, checked, FRONTEND_CAPACITY)
        summary = LinkSummary(checked, self.source)
        self._compiled(summary)
        if disk_key is not None:
            artifact_cache.put(
                disk_key, artifact_cache.dump_summary(summary), "frontend"
            )

    def _compiled(self, summary: LinkSummary) -> None:
        self.summary = summary
        self.compiled = True
        _remember(_SUMMARIES, (summary.stage, summary.source_digest),
                  summary, _SUMMARY_CAPACITY)


class UniformLeaf:
    """One flattened uniform slot (a scalar/vector/matrix/sampler leaf,
    possibly an array of them)."""

    def __init__(self, full_name: str, gtype: GlslType, length: int, location: int):
        self.full_name = full_name
        self.type = gtype  # element type (never an array)
        self.length = length
        self.location = location
        self.storage = _allocate_storage(gtype, length)
        #: For samplers: the bound texture unit per element.
        self.units = np.zeros(length, dtype=np.int64) if gtype.is_sampler() else None


def _allocate_storage(gtype: GlslType, length: int) -> Optional[np.ndarray]:
    if gtype.is_sampler():
        return None
    if gtype.kind == TypeKind.SCALAR:
        shape: Tuple[int, ...] = (length,)
    elif gtype.kind == TypeKind.VECTOR:
        shape = (length, gtype.size)
    elif gtype.kind == TypeKind.MATRIX:
        shape = (length, gtype.size, gtype.size)
    else:
        raise ValueError(f"cannot allocate uniform storage for {gtype}")
    if gtype.base == BaseType.INT:
        return np.zeros(shape, dtype=INT_DTYPE)
    if gtype.base == BaseType.BOOL:
        return np.zeros(shape, dtype=bool)
    return np.zeros(shape, dtype=np.float64)


class Program:
    """One program object."""

    def __init__(self, name: int):
        self.name = name
        self.shaders: List[Shader] = []
        self.linked = False
        self.validated = False
        self.info_log = ""
        self.deleted = False
        #: The link summaries of the linked stages.
        self.vertex: Optional[LinkSummary] = None
        self.fragment: Optional[LinkSummary] = None
        #: leaf full name -> UniformLeaf
        self.uniform_leaves: Dict[str, UniformLeaf] = {}
        #: location -> (leaf, element offset)
        self.uniform_locations: Dict[int, Tuple[UniformLeaf, int]] = {}
        #: top-level uniform name -> GlslType (merged across stages)
        self.uniform_types: Dict[str, GlslType] = {}
        #: attribute name -> location
        self.attribute_locations: Dict[str, int] = {}
        self.bound_attributes: Dict[str, int] = {}
        #: varying name -> GlslType (the linked interface)
        self.varying_types: Dict[str, GlslType] = {}
        #: Vertex plans of draws with this linked program (LRU, owned
        #: by :func:`repro.gles2.pipeline.execute_draw`).
        self.vertex_plans: "OrderedDict[tuple, object]" = OrderedDict()

    # ------------------------------------------------------------------
    def attach(self, shader: Shader) -> bool:
        if any(s.type == shader.type for s in self.shaders):
            return False
        self.shaders.append(shader)
        return True

    def detach(self, shader: Shader) -> bool:
        if shader in self.shaders:
            self.shaders.remove(shader)
            return True
        return False

    # ------------------------------------------------------------------
    def link(self, max_vertex_attribs: int = 8) -> None:
        """glLinkProgram."""
        self.linked = False
        self.info_log = ""
        self.uniform_leaves.clear()
        self.uniform_locations.clear()
        self.uniform_types.clear()
        self.attribute_locations.clear()
        self.varying_types.clear()
        self.vertex_plans.clear()

        vertex = next((s for s in self.shaders if s.type == enums.GL_VERTEX_SHADER), None)
        fragment = next((s for s in self.shaders if s.type == enums.GL_FRAGMENT_SHADER), None)
        if vertex is None or fragment is None:
            self.info_log = "ERROR: a program needs one vertex and one fragment shader\n"
            return
        if not (vertex.compiled and fragment.compiled):
            self.info_log = "ERROR: attached shaders are not compiled\n"
            return
        self.vertex = vertex.summary
        self.fragment = fragment.summary

        # --- varying interface ------------------------------------------------
        vs_varyings = {g.name: g.type for g in self.vertex.varyings()}
        for symbol in self.fragment.varyings():
            if symbol.name not in vs_varyings:
                self.info_log = (
                    f"ERROR: varying '{symbol.name}' read in the fragment "
                    "shader but never declared in the vertex shader\n"
                )
                return
            if vs_varyings[symbol.name] != symbol.type:
                self.info_log = (
                    f"ERROR: varying '{symbol.name}' declared as "
                    f"{vs_varyings[symbol.name]} in the vertex shader but "
                    f"{symbol.type} in the fragment shader\n"
                )
                return
        self.varying_types = dict(vs_varyings)

        # --- uniforms ---------------------------------------------------------
        merged: Dict[str, GlslType] = {}
        for checked in (self.vertex, self.fragment):
            for symbol in checked.active_uniforms():
                existing = merged.get(symbol.name)
                if existing is not None and existing != symbol.type:
                    self.info_log = (
                        f"ERROR: uniform '{symbol.name}' has conflicting "
                        f"types across stages ({existing} vs {symbol.type})\n"
                    )
                    return
                merged[symbol.name] = symbol.type
        self.uniform_types = merged
        next_location = 0
        for uname in sorted(merged):
            next_location = self._flatten_uniform(uname, merged[uname], next_location)

        # --- attributes -------------------------------------------------------
        taken = set(self.bound_attributes.values())
        next_attr = 0
        for symbol in sorted(self.vertex.active_attributes(), key=lambda s: s.name):
            if symbol.name in self.bound_attributes:
                self.attribute_locations[symbol.name] = self.bound_attributes[symbol.name]
                continue
            while next_attr in taken:
                next_attr += 1
            if next_attr >= max_vertex_attribs:
                self.info_log = "ERROR: too many attributes\n"
                return
            self.attribute_locations[symbol.name] = next_attr
            taken.add(next_attr)
        self.linked = True

    def _flatten_uniform(self, name: str, gtype: GlslType, location: int) -> int:
        if gtype.is_struct():
            for fname, ftype in gtype.fields:
                location = self._flatten_uniform(f"{name}.{fname}", ftype, location)
            return location
        if gtype.is_array():
            element = gtype.element
            if element.is_struct():
                for i in range(gtype.length):
                    location = self._flatten_uniform(f"{name}[{i}]", element, location)
                return location
            leaf = UniformLeaf(name, element, gtype.length, location)
            self._register_leaf(leaf)
            return location + gtype.length
        leaf = UniformLeaf(name, gtype, 1, location)
        self._register_leaf(leaf)
        return location + 1

    def _register_leaf(self, leaf: UniformLeaf) -> None:
        self.uniform_leaves[leaf.full_name] = leaf
        for i in range(leaf.length):
            self.uniform_locations[leaf.location + i] = (leaf, i)

    # ------------------------------------------------------------------
    def uniform_location(self, name: str) -> int:
        """glGetUniformLocation (supports 'a[3]' and 's.f' forms)."""
        if name in self.uniform_leaves:
            return self.uniform_leaves[name].location
        if name.endswith("]") and "[" in name:
            base, __, index_text = name.rpartition("[")
            try:
                index = int(index_text[:-1])
            except ValueError:
                return -1
            leaf = self.uniform_leaves.get(base)
            if leaf is not None and 0 <= index < leaf.length:
                return leaf.location + index
        # 'name[0]' also addresses plain leaves.
        return -1

    def attribute_location(self, name: str) -> int:
        return self.attribute_locations.get(name, -1)

    # ------------------------------------------------------------------
    # Uniform setters (shared validation for the glUniform* family)
    # ------------------------------------------------------------------
    def set_uniform_floats(self, location: int, components: int, values: np.ndarray,
                           count: int) -> Optional[str]:
        """glUniform{1..4}f[v].  Returns an error message or None."""
        entry = self.uniform_locations.get(location)
        if entry is None:
            return "no uniform at this location"
        leaf, offset = entry
        if leaf.type.is_sampler() or leaf.type.base == BaseType.INT:
            return "float setter on a non-float uniform"
        expected = 1 if leaf.type.is_scalar() else leaf.type.size
        if leaf.type.is_matrix():
            return "use glUniformMatrix*fv for matrices"
        if components != expected and leaf.type.base != BaseType.BOOL:
            return f"uniform expects {expected} components, got {components}"
        values = np.asarray(values, dtype=np.float64).reshape(count, components)
        end = min(offset + count, leaf.length)
        span = end - offset
        if leaf.type.base == BaseType.BOOL:
            data = values[:span] != 0
        else:
            data = values[:span]
        if leaf.type.is_scalar():
            leaf.storage[offset:end] = data[:, 0]
        else:
            leaf.storage[offset:end] = data
        return None

    def set_uniform_ints(self, location: int, components: int, values: np.ndarray,
                         count: int) -> Optional[str]:
        """glUniform{1..4}i[v]."""
        entry = self.uniform_locations.get(location)
        if entry is None:
            return "no uniform at this location"
        leaf, offset = entry
        values = np.asarray(values, dtype=np.int64).reshape(count, components)
        end = min(offset + count, leaf.length)
        span = end - offset
        if leaf.type.is_sampler():
            if components != 1:
                return "samplers take a single int"
            leaf.units[offset:end] = values[:span, 0]
            return None
        if leaf.type.base == BaseType.FLOAT:
            return "int setter on a float uniform"
        expected = 1 if leaf.type.is_scalar() else leaf.type.size
        if components != expected:
            return f"uniform expects {expected} components, got {components}"
        if leaf.type.base == BaseType.BOOL:
            data = values[:span] != 0
        else:
            data = values[:span].astype(INT_DTYPE)
        if leaf.type.is_scalar():
            leaf.storage[offset:end] = data[:, 0]
        else:
            leaf.storage[offset:end] = data
        return None

    def set_uniform_matrix(self, location: int, order: int, values: np.ndarray,
                           count: int, transpose: bool) -> Optional[str]:
        """glUniformMatrix{2,3,4}fv.  ES 2 requires transpose == False."""
        if transpose:
            return "transpose must be GL_FALSE in OpenGL ES 2"
        entry = self.uniform_locations.get(location)
        if entry is None:
            return "no uniform at this location"
        leaf, offset = entry
        if not (leaf.type.is_matrix() and leaf.type.size == order):
            return f"uniform is not a mat{order}"
        values = np.asarray(values, dtype=np.float64).reshape(count, order, order)
        end = min(offset + count, leaf.length)
        # Column-major input matches our (col, row) storage directly.
        leaf.storage[offset:end] = values[: end - offset]
        return None

    # ------------------------------------------------------------------
    # Draw-time uniform Value assembly
    # ------------------------------------------------------------------
    def build_uniform_values(self, resolve_sampler) -> Dict[str, Value]:
        """Build interpreter Values for all uniforms.

        ``resolve_sampler(unit, gtype)`` maps a texture unit to the
        sampler backend object (or None).
        """
        float_cache: Dict[str, Value] = {}
        for name, gtype in self.uniform_types.items():
            float_cache[name] = self._build_value(name, gtype, resolve_sampler)
        return float_cache

    def _build_value(self, name: str, gtype: GlslType, resolve_sampler) -> Value:
        if gtype.is_struct():
            fields = {
                fname: self._build_value(f"{name}.{fname}", ftype, resolve_sampler)
                for fname, ftype in gtype.fields
            }
            return Value(gtype, fields=fields)
        if gtype.is_array() and gtype.element.is_struct():
            fields = {
                str(i): self._build_value(f"{name}[{i}]", gtype.element, resolve_sampler)
                for i in range(gtype.length)
            }
            return Value(gtype, fields=fields)
        leaf = self.uniform_leaves[name]
        if gtype.is_sampler():
            backend = resolve_sampler(int(leaf.units[0]), gtype)
            return Value(gtype, sampler=backend)
        if gtype.is_array():
            data = leaf.storage[None, ...]  # (1, L, ...)
            return Value(gtype, np.array(data))
        data = leaf.storage[0][None, ...]  # (1, ...) single element
        return Value(gtype, np.array(data))
