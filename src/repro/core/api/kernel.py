"""Kernel: a compiled GPGPU computation.

A kernel is one generated fragment shader (plus the pass-through
vertex shader of challenge 1) compiled into a GL program.  Launching
it renders the fullscreen quad (challenge 2) into the output array's
framebuffer, with inputs bound as textures.

``MultiOutputKernel`` wraps the challenge-(8) split: a body assigning
``result0..resultN`` becomes N+1 programs executed back to back.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...gles2 import enums as gl
from ..codegen.kernelsplit import split_multi_output
from ..codegen.templates import (
    FULLSCREEN_QUAD_VERTICES,
    KernelSource,
    generate_kernel_source,
)
from ..numerics.formats import get_format
from .buffer import GpuArray
from .errors import GpgpuError, ShaderBuildError


@dataclass(frozen=True)
class KernelSpec:
    """The generation-time recipe of a kernel — everything needed to
    re-derive (and therefore to *compose*) its fragment shader.

    The launch-graph scheduler (:mod:`repro.core.api.graph`) fuses a
    map chain by concatenating the stages' bodies into one program;
    that is only possible for kernels whose recipe was captured here.
    Kernels built directly from sources (multi-output splits, hand
    supplied programs) carry no spec and never fuse.
    """

    name: str
    inputs: Tuple[Tuple[str, str], ...]  # (input name, format name)
    output: str  # format name
    body: str
    uniforms: Tuple[Tuple[str, str], ...] = ()
    mode: str = "map"
    preamble: str = ""


def program_cache_key(vertex_source: str, fragment_source: str) -> Tuple[str, str]:
    """The source-hash half of the program-cache key.

    Two kernels with the same key compile to the same GL program; the
    other half of the full key — the device float/precision model — is
    applied downstream (the gles2 front-end cache shares the link
    summary per source hash, and :func:`repro.glsl.jit.get_compiled`
    memoises the generated code per float model on it)."""
    return (
        hashlib.sha1(vertex_source.encode("utf-8")).hexdigest(),
        hashlib.sha1(fragment_source.encode("utf-8")).hexdigest(),
    )


class Kernel:
    """One single-output GPGPU kernel."""

    def __init__(
        self,
        device,
        name: str,
        inputs: Sequence[Tuple[str, object]],
        output: object,
        body: str,
        uniforms: Sequence[Tuple[str, str]] = (),
        mode: str = "map",
        preamble: str = "",
    ):
        self.device = device
        self.name = name
        self.input_formats = [(iname, get_format(fmt)) for iname, fmt in inputs]
        self.output_format = get_format(output)
        self.source: KernelSource = generate_kernel_source(
            name=name,
            inputs=inputs,
            output_format=output,
            body=body,
            uniforms=uniforms,
            mode=mode,
            preamble=preamble,
        )
        self.spec: Optional[KernelSpec] = KernelSpec(
            name=name,
            inputs=tuple((n, get_format(f).name) for n, f in inputs),
            output=self.output_format.name,
            body=body,
            uniforms=tuple(uniforms),
            mode=mode,
            preamble=preamble,
        )
        self._bind_program()

    @classmethod
    def from_source(
        cls,
        device,
        name: str,
        inputs: Sequence[Tuple[str, object]],
        output: object,
        source: KernelSource,
        spec: Optional[KernelSpec] = None,
    ) -> "Kernel":
        """Build a kernel from an already-generated source (used by
        the multi-output splitter and the device kernel cache)."""
        kernel = cls.__new__(cls)
        kernel.device = device
        kernel.name = name
        kernel.input_formats = [(n, get_format(f)) for n, f in inputs]
        kernel.output_format = get_format(output)
        kernel.source = source
        kernel.spec = spec
        kernel._bind_program()
        return kernel

    def _bind_program(self) -> None:
        """Compile/link the generated sources and cache locations."""
        device = self.device
        self.cache_key = program_cache_key(self.source.vertex, self.source.fragment)
        self.program = device.build_program(self.source.vertex, self.source.fragment)
        ctx = device.ctx
        self._position_location = ctx.glGetAttribLocation(self.program, "a_position")
        self._uniform_locations: Dict[str, int] = {}
        for uname in (
            [self.source.out_size_uniform]
            + list(self.source.sampler_uniforms.values())
            + list(self.source.size_uniforms.values())
            + [u for u, __ in self.source.user_uniforms]
        ):
            self._uniform_locations[uname] = ctx.glGetUniformLocation(
                self.program, uname
            )
        self._user_uniform_types = dict(self.source.user_uniforms)

    # ------------------------------------------------------------------
    def __call__(
        self,
        out: GpuArray,
        inputs: Optional[Dict[str, GpuArray]] = None,
        uniforms: Optional[Dict[str, object]] = None,
    ) -> GpuArray:
        """Launch the kernel: one fragment per output texel."""
        inputs = inputs or {}
        uniforms = uniforms or {}
        self.validate_launch(out, inputs, uniforms)
        return self._execute(out, inputs, uniforms)

    def validate_launch(
        self,
        out,
        inputs: Dict[str, object],
        uniforms: Dict[str, object],
    ) -> None:
        """Check a (out, inputs, uniforms) binding without executing.

        Shared between the eager launch path and the launch-graph
        recorder (which validates at record time so mistakes surface
        where they were made, not at replay)."""
        device = self.device
        expected = {iname for iname, __ in self.input_formats}
        provided = set(inputs)
        if expected != provided:
            raise GpgpuError(
                f"kernel '{self.name}' expects inputs {sorted(expected)}, "
                f"got {sorted(provided)}"
            )
        for iname, fmt in self.input_formats:
            array = inputs[iname]
            if array.device is not device:
                raise GpgpuError(
                    f"input '{iname}' belongs to a different GpgpuDevice "
                    "(GL objects are not shareable across contexts)"
                )
            if array.format.name != fmt.name:
                raise GpgpuError(
                    f"input '{iname}' of kernel '{self.name}' must be "
                    f"{fmt.name}, got {array.format.name}"
                )
        if out.device is not device:
            raise GpgpuError(
                "output array belongs to a different GpgpuDevice"
            )
        if out.format.name != self.output_format.name:
            raise GpgpuError(
                f"kernel '{self.name}' writes {self.output_format.name}, "
                f"output array is {out.format.name}"
            )
        if any(array is out for array in inputs.values()):
            raise GpgpuError(
                "an array cannot be both input and output of the same "
                "launch (feedback through a texture is undefined in GL)"
            )
        unknown = set(uniforms) - set(self._user_uniform_types)
        if unknown:
            raise GpgpuError(
                f"unknown uniforms {sorted(unknown)} for kernel '{self.name}'"
            )

    def _execute(
        self,
        out,
        inputs: Dict[str, "GpuArray"],
        uniforms: Dict[str, object],
    ):
        """Run an already-validated launch through the GL state
        machine.  ``out``/``inputs`` must be materialised arrays."""
        device = self.device
        ctx = device.ctx
        ctx.glUseProgram(self.program)
        ctx.glBindFramebuffer(gl.GL_FRAMEBUFFER, out.framebuffer())
        ctx.glViewport(0, 0, out.width, out.height)

        for unit, (iname, __) in enumerate(self.input_formats):
            array = inputs[iname]
            ctx.glActiveTexture(gl.GL_TEXTURE0 + unit)
            ctx.glBindTexture(gl.GL_TEXTURE_2D, array.texture)
            ctx.glUniform1i(self._uniform_locations[self.source.sampler_uniforms[iname]], unit)
            ctx.glUniform2f(
                self._uniform_locations[self.source.size_uniforms[iname]],
                *array.size_vec2,
            )
        ctx.glUniform2f(
            self._uniform_locations[self.source.out_size_uniform], *out.size_vec2
        )
        for uname, value in uniforms.items():
            self._set_user_uniform(uname, value)

        loc = self._position_location
        ctx.glEnableVertexAttribArray(loc)
        ctx.glVertexAttribPointer(
            loc, 2, gl.GL_FLOAT, False, 0, FULLSCREEN_QUAD_VERTICES
        )
        ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)
        device.fb_resident = out
        return out

    # ------------------------------------------------------------------
    def _set_user_uniform(self, name: str, value) -> None:
        ctx = self.device.ctx
        location = self._uniform_locations[name]
        utype = self._user_uniform_types[name]
        try:
            if utype == "float":
                ctx.glUniform1f(location, float(value))
            elif utype in ("int", "bool"):
                ctx.glUniform1i(location, int(value))
            elif utype in ("vec2", "vec3", "vec4"):
                comps = int(utype[-1])
                values = np.asarray(value, dtype=np.float64).reshape(comps)
                getattr(ctx, f"glUniform{comps}f")(location, *values)
            elif utype in ("ivec2", "ivec3", "ivec4"):
                comps = int(utype[-1])
                values = np.asarray(value, dtype=np.int64).reshape(comps)
                getattr(ctx, f"glUniform{comps}i")(location, *values)
            elif utype in ("mat2", "mat3", "mat4"):
                order = int(utype[-1])
                getattr(ctx, f"glUniformMatrix{order}fv")(
                    location, 1, False, np.asarray(value, dtype=np.float64)
                )
            else:  # pragma: no cover - guarded at generation time
                raise GpgpuError(f"unsupported uniform type {utype}")
        except (TypeError, ValueError) as exc:
            received = np.asarray(value)
            raise GpgpuError(
                f"kernel '{self.name}': uniform '{name}' expects a "
                f"{utype} value, got shape {received.shape} "
                f"(dtype {received.dtype}): {exc}"
            ) from exc


class MultiOutputKernel:
    """Challenge (8): a kernel with several outputs, executed as one
    generated program per output."""

    def __init__(
        self,
        device,
        name: str,
        inputs: Sequence[Tuple[str, object]],
        outputs: Sequence[object],
        body: str,
        uniforms: Sequence[Tuple[str, str]] = (),
        mode: str = "map",
        preamble: str = "",
    ):
        self.device = device
        self.name = name
        sources = split_multi_output(
            name=name,
            inputs=inputs,
            output_formats=list(outputs),
            body=body,
            uniforms=uniforms,
            mode=mode,
            preamble=preamble,
        )
        self.kernels: List[Kernel] = [
            Kernel.from_source(device, f"{name}.out{i}", inputs, outputs[i], source)
            for i, source in enumerate(sources)
        ]

    def __call__(
        self,
        outs: Sequence[GpuArray],
        inputs: Optional[Dict[str, GpuArray]] = None,
        uniforms: Optional[Dict[str, object]] = None,
    ) -> Sequence[GpuArray]:
        if len(outs) != len(self.kernels):
            raise GpgpuError(
                f"kernel '{self.name}' produces {len(self.kernels)} outputs, "
                f"got {len(outs)} arrays"
            )
        for kernel, out in zip(self.kernels, outs):
            kernel(out, inputs=inputs, uniforms=uniforms)
        return outs
