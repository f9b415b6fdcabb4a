"""Shader and program objects (ES 2 §2.10).

``Shader`` wraps the GLSL front end: ``glCompileShader`` runs the
preprocessor, parser and type checker and produces a driver-style info
log on failure.  Successful compiles are memoised in a module-level
front-end cache keyed by (stage, source hash): recompiling identical
source — e.g. relaunching the same GPGPU kernel — returns the cached
``CheckedShader`` without touching the front end, and because the IR
compile cache (:func:`repro.glsl.ir.get_compiled`) hangs off the
``CheckedShader`` object itself, the lowered program artifact is
shared too.  ``Program`` links a vertex + fragment pair: varyings
are matched by name and type, uniforms from both stages are merged and
flattened into locations (including struct members and arrays, with
``glGetUniformLocation("s.field[3]")`` syntax), and attribute
locations are assigned (respecting ``glBindAttribLocation``).
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..glsl import ast_nodes  # noqa: F401  (re-exported for tooling)
from ..glsl.errors import GlslError
from ..glsl.optimize import optimize
from ..glsl.parser import parse
from ..glsl.preprocessor import preprocess
from ..glsl.typecheck import CheckedShader, ShaderStage, check
from ..glsl.types import BaseType, GlslType, TypeKind
from ..glsl.values import INT_DTYPE, Value
from ..perf import counters
from . import enums


#: (stage, sha1(source)) -> CheckedShader for successful compiles.
#: Failures are never cached so the info log is regenerated each time.
_FRONTEND_CACHE: Dict[Tuple[str, str], CheckedShader] = {}
_FRONTEND_CACHE_MAX = 256

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

#: Fusion-signature marker the map-chain composer embeds in fused
#: kernel sources (see repro.core.codegen.fuse.compose_chain); the
#: signature becomes a component of the disk-cache keys of every
#: artifact compiled from that source.
_FUSION_MARKER = re.compile(r"//\s*gpgpu-fusion:\s*([0-9a-f]+)")


def _attach_artifact_attrs(checked: CheckedShader, source_digest: str,
                           source: str) -> None:
    """Stamp the front-end artifact with the identity the disk-cache
    layers key on: the source digest and (for fused map chains) the
    fusion signature."""
    checked.source_digest = source_digest
    match = _FUSION_MARKER.search(source)
    checked.fusion_signature = match.group(1) if match else ""


def frontend_cache_key(stage: str, source: str) -> Tuple[str, str]:
    """The program-cache key: (stage, source hash).  The second half of
    the full key — the float/precision model — is applied downstream by
    :func:`repro.glsl.ir.get_compiled`, which memoises per model on the
    CheckedShader this cache returns."""
    return (stage, hashlib.sha1(source.encode("utf-8")).hexdigest())


def clear_frontend_cache() -> None:
    """Drop all cached front-end artifacts."""
    _FRONTEND_CACHE.clear()


class Shader:
    """One shader object."""

    def __init__(self, name: int, shader_type: int):
        self.name = name
        self.type = shader_type
        self.source = ""
        self.compiled = False
        self.info_log = ""
        self.checked: Optional[CheckedShader] = None
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
        in-process cache, or warm-start from the persistent artifact
        store (:mod:`repro.core.cache`)."""
        from ..core import cache as artifact_cache

        self.compiled = False
        self.checked = None
        self.info_log = ""
        self.loaded_from_disk = False
        key = frontend_cache_key(self.stage, self.source)
        cached = _FRONTEND_CACHE.get(key)
        if cached is not None:
            counters.values["compile.frontend.memo_hits"] += 1
            self.checked = cached
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
                checked = artifact_cache.load_checked(data)
                if checked is not None and checked.stage == self.stage:
                    _attach_artifact_attrs(checked, key[1], self.source)
                    counters.values["compile.frontend.disk"] += 1
                    self.checked = checked
                    self.compiled = True
                    self.loaded_from_disk = True
                    if len(_FRONTEND_CACHE) >= _FRONTEND_CACHE_MAX:
                        _FRONTEND_CACHE.clear()
                    _FRONTEND_CACHE[key] = checked
                    return
                # Undeserialisable payload or wrong stage under a
                # colliding key: drop the entry and recompile.
                artifact_cache.invalidate(disk_key)
        try:
            preprocessed = preprocess(self.source)
            unit = optimize(parse(preprocessed.source))
            self.checked = check(unit, self.stage)
            _attach_artifact_attrs(self.checked, key[1], self.source)
            self.compiled = True
            if len(_FRONTEND_CACHE) >= _FRONTEND_CACHE_MAX:
                _FRONTEND_CACHE.clear()
            _FRONTEND_CACHE[key] = self.checked
            if disk_key is not None:
                artifact_cache.put(
                    disk_key, artifact_cache.dump_checked(self.checked),
                    "frontend",
                )
        except GlslError as exc:
            self.info_log = exc.info_log_entry() + "\n"


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
        self.vertex: Optional[CheckedShader] = None
        self.fragment: Optional[CheckedShader] = None
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

        vertex = next((s for s in self.shaders if s.type == enums.GL_VERTEX_SHADER), None)
        fragment = next((s for s in self.shaders if s.type == enums.GL_FRAGMENT_SHADER), None)
        if vertex is None or fragment is None:
            self.info_log = "ERROR: a program needs one vertex and one fragment shader\n"
            return
        if not (vertex.compiled and fragment.compiled):
            self.info_log = "ERROR: attached shaders are not compiled\n"
            return
        self.vertex = vertex.checked
        self.fragment = fragment.checked

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
