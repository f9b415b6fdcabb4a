"""The OpenGL ES 2 context: state machine and gl* entry points.

``GLES2Context`` exposes the C API's functions as methods with the
same names and argument conventions, so GPGPU code written against it
reads like real EGL/GLES client code.  The simulator enforces the ES 2
restrictions that motivate the paper (§II-B):

* textures and framebuffers are unsigned-byte only (limitations 5/6),
* quads do not exist; triangles must be used (limitation 2),
* there is no ``glGetTexImage`` — texture data returns to the CPU only
  through ``glReadPixels`` on a framebuffer the texture is attached to
  (limitation 7),
* one color attachment / draw buffer (limitation 8).

Construction parameters choose the device float model (``exact``,
``ieee32``, ``videocore`` — see :mod:`repro.gles2.precision`) and the
framebuffer quantisation mode (spec ``round`` vs paper-eq.(2)
``floor``).
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..perf import counters, trace
from ..perf.counters import ContextStats
from ..perf.gpu_model import GpuModel
from . import enums
from .buffer_objects import BufferObject
from .errors import ErrorState, SimulatorLimitation
from .framebuffer import DefaultFramebuffer, FramebufferObject
from .limits import VIDEOCORE_IV_LIMITS, DeviceLimits
from .pipeline import (
    DEFAULT_EXECUTION_BACKEND,
    EXECUTORS,
    VertexAttribState,
    execute_draw,
    quantize_color,
)
from .precision import FloatModel, make_model
from .shader import Program, Shader
from .texture import Texture

_INDEX_DTYPES = {
    enums.GL_UNSIGNED_BYTE: np.uint8,
    enums.GL_UNSIGNED_SHORT: np.uint16,
    enums.GL_UNSIGNED_INT: np.uint32,  # OES_element_index_uint
}


class GLES2Context:
    """A software OpenGL ES 2 rendering context."""

    def __init__(
        self,
        width: int = 64,
        height: int = 64,
        float_model: Union[str, FloatModel] = "ieee32",
        quantization: str = "round",
        limits: DeviceLimits = VIDEOCORE_IV_LIMITS,
        strict_errors: bool = True,
        max_loop_iterations: int = 65536,
        execution_backend: str = DEFAULT_EXECUTION_BACKEND,
        tile_size: Optional[int] = None,
        shade_workers: Optional[int] = None,
    ):
        if isinstance(float_model, str):
            float_model = make_model(float_model)
        if execution_backend not in EXECUTORS:
            raise ValueError(
                f"unknown execution backend '{execution_backend}' "
                f"(expected one of {sorted(EXECUTORS)})"
            )
        self.float_model = float_model
        self.quantization = quantization
        self.limits = limits
        self.max_loop_iterations = max_loop_iterations
        #: How shaders run: a key of pipeline.EXECUTORS ("jit" or "ir").
        self.execution_backend = execution_backend
        # Tiled / multiprocess fragment shading knobs.  Constructor
        # arguments left unset fall back to the environment
        # (REPRO_TILE_SIZE / REPRO_SHADE_WORKERS), so deployments can
        # turn on worker shading without touching call sites.
        # Validated centrally (repro.core.knobs): a malformed or
        # out-of-range knob falls back to its default with a single
        # warning instead of raising ValueError mid-draw.
        from ..core.knobs import int_knob

        if tile_size is None:
            tile_size = int_knob("REPRO_TILE_SIZE", None, minimum=1)
        if shade_workers is None:
            shade_workers = int_knob("REPRO_SHADE_WORKERS", 0, minimum=0)
        #: Fragment-tile edge in pixels (None = automatic policy, see
        #: pipeline.execute_draw).
        self.tile_size = tile_size
        #: Worker processes for fragment shading (0 = in-process).
        self.shade_workers = shade_workers
        self.error_state = ErrorState(strict=strict_errors)
        self.stats = ContextStats()
        self._attributing = False
        trace.instant("device.context", "device", {
            "float_model": getattr(float_model, "name",
                                   type(float_model).__name__),
            "backend": execution_backend,
            "tile_size": tile_size,
            "shade_workers": shade_workers,
        })

        self._default_framebuffer = DefaultFramebuffer(width, height)
        self._textures: Dict[int, Texture] = {}
        self._buffers: Dict[int, BufferObject] = {}
        self._shaders: Dict[int, Shader] = {}
        self._programs: Dict[int, Program] = {}
        self._framebuffers: Dict[int, FramebufferObject] = {}
        self._next_name = {"texture": 1, "buffer": 1, "shader": 1,
                           "program": 1, "framebuffer": 1}

        self._bound_texture_2d: Dict[int, int] = {}  # unit -> texture name
        self._active_texture_unit = 0
        self._bound_array_buffer = 0
        self._bound_element_buffer = 0
        self._bound_framebuffer = 0
        self._current_program = 0
        self._attribs: Dict[int, VertexAttribState] = {}
        self._viewport = (0, 0, width, height)
        self._clear_color = (0.0, 0.0, 0.0, 0.0)
        #: glScissor box; takes effect only while GL_SCISSOR_TEST is
        #: enabled.  Initial box covers the window (ES 2 §4.1.2).
        self._scissor = (0, 0, width, height)
        self._capabilities: Dict[int, bool] = {}
        self._pixel_store: Dict[int, int] = {
            enums.GL_UNPACK_ALIGNMENT: 4,
            enums.GL_PACK_ALIGNMENT: 4,
        }

    # ==================================================================
    # Error handling
    # ==================================================================
    def glGetError(self) -> int:
        return self.error_state.fetch()

    def _error(self, code: int, message: str = "") -> None:
        self.error_state.record(code, message)

    # ==================================================================
    # State queries
    # ==================================================================
    def glGetString(self, name: int) -> str:
        table = {
            enums.GL_VENDOR: self.limits.vendor,
            enums.GL_RENDERER: self.limits.renderer,
            enums.GL_VERSION: self.limits.version,
            enums.GL_SHADING_LANGUAGE_VERSION: self.limits.shading_language_version,
            enums.GL_EXTENSIONS: " ".join(self.limits.extensions),
        }
        if name not in table:
            self._error(enums.GL_INVALID_ENUM, "glGetString")
            return ""
        return table[name]

    def glGetIntegerv(self, pname: int) -> int:
        table = {
            enums.GL_MAX_TEXTURE_SIZE: self.limits.max_texture_size,
            enums.GL_MAX_VERTEX_ATTRIBS: self.limits.max_vertex_attribs,
            enums.GL_MAX_VERTEX_UNIFORM_VECTORS: self.limits.max_vertex_uniform_vectors,
            enums.GL_MAX_FRAGMENT_UNIFORM_VECTORS: self.limits.max_fragment_uniform_vectors,
            enums.GL_MAX_VARYING_VECTORS: self.limits.max_varying_vectors,
            enums.GL_MAX_TEXTURE_IMAGE_UNITS: self.limits.max_texture_image_units,
            enums.GL_MAX_VERTEX_TEXTURE_IMAGE_UNITS: self.limits.max_vertex_texture_image_units,
            enums.GL_MAX_COMBINED_TEXTURE_IMAGE_UNITS: self.limits.max_combined_texture_image_units,
            enums.GL_MAX_RENDERBUFFER_SIZE: self.limits.max_renderbuffer_size,
            enums.GL_FRAMEBUFFER_BINDING: self._bound_framebuffer,
            enums.GL_ARRAY_BUFFER_BINDING: self._bound_array_buffer,
            enums.GL_ELEMENT_ARRAY_BUFFER_BINDING: self._bound_element_buffer,
            enums.GL_CURRENT_PROGRAM: self._current_program,
            enums.GL_ACTIVE_TEXTURE: enums.GL_TEXTURE0 + self._active_texture_unit,
        }
        if pname not in table:
            self._error(enums.GL_INVALID_ENUM, "glGetIntegerv")
            return 0
        return table[pname]

    def glGetShaderPrecisionFormat(self, shadertype: int, precisiontype: int):
        """Returns ((range_min, range_max), precision) — the call the
        paper's §IV-E uses to discover the device float format."""
        names = {
            enums.GL_LOW_FLOAT: "lowp_float",
            enums.GL_MEDIUM_FLOAT: "mediump_float",
            enums.GL_HIGH_FLOAT: "highp_float",
            enums.GL_LOW_INT: "lowp_int",
            enums.GL_MEDIUM_INT: "mediump_int",
            enums.GL_HIGH_INT: "highp_int",
        }
        if precisiontype not in names or shadertype not in (
            enums.GL_VERTEX_SHADER,
            enums.GL_FRAGMENT_SHADER,
        ):
            self._error(enums.GL_INVALID_ENUM, "glGetShaderPrecisionFormat")
            return (0, 0), 0
        fmt = self.float_model.precision_format(names[precisiontype])
        return (fmt.range_min, fmt.range_max), fmt.precision

    def glEnable(self, cap: int) -> None:
        self._capabilities[cap] = True

    def glDisable(self, cap: int) -> None:
        self._capabilities[cap] = False

    def glIsEnabled(self, cap: int) -> bool:
        return self._capabilities.get(cap, False)

    def glFinish(self) -> None:
        pass  # execution is synchronous in the simulator

    def glFlush(self) -> None:
        pass

    def glPixelStorei(self, pname: int, param: int) -> None:
        if pname not in (enums.GL_UNPACK_ALIGNMENT, enums.GL_PACK_ALIGNMENT):
            self._error(enums.GL_INVALID_ENUM, "glPixelStorei")
            return
        if param not in (1, 2, 4, 8):
            self._error(enums.GL_INVALID_VALUE, "glPixelStorei")
            return
        self._pixel_store[pname] = param

    # ------------------------------------------------------------------
    # Object predicates
    # ------------------------------------------------------------------
    def glIsTexture(self, name: int) -> bool:
        return name in self._textures and not self._textures[name].deleted

    def glIsBuffer(self, name: int) -> bool:
        return name in self._buffers and not self._buffers[name].deleted

    def glIsShader(self, name: int) -> bool:
        return name in self._shaders and not self._shaders[name].deleted

    def glIsProgram(self, name: int) -> bool:
        return name in self._programs and not self._programs[name].deleted

    def glIsFramebuffer(self, name: int) -> bool:
        return name in self._framebuffers and not self._framebuffers[name].deleted

    # ==================================================================
    # Textures
    # ==================================================================
    def glGenTextures(self, n: int) -> List[int]:
        names = []
        for __ in range(n):
            name = self._next_name["texture"]
            self._next_name["texture"] += 1
            self._textures[name] = Texture(name)
            names.append(name)
        return names

    def glDeleteTextures(self, names) -> None:
        for name in names:
            tex = self._textures.pop(name, None)
            if tex is not None:
                tex.deleted = True
        for unit, bound in list(self._bound_texture_2d.items()):
            if bound in names:
                del self._bound_texture_2d[unit]

    def glActiveTexture(self, texture: int) -> None:
        unit = texture - enums.GL_TEXTURE0
        if not 0 <= unit < self.limits.max_combined_texture_image_units:
            self._error(enums.GL_INVALID_ENUM, "glActiveTexture")
            return
        self._active_texture_unit = unit

    def glBindTexture(self, target: int, texture: int) -> None:
        if target != enums.GL_TEXTURE_2D:
            if target == enums.GL_TEXTURE_CUBE_MAP:
                raise SimulatorLimitation("cube maps are not simulated")
            self._error(enums.GL_INVALID_ENUM, "glBindTexture")
            return
        if texture != 0 and texture not in self._textures:
            # ES allows binding unused names (they spring into being).
            self._textures[texture] = Texture(texture)
        self._bound_texture_2d[self._active_texture_unit] = texture

    def _texture_at_unit(self, unit: int) -> Optional[Texture]:
        name = self._bound_texture_2d.get(unit, 0)
        return self._textures.get(name)

    def _current_texture(self) -> Optional[Texture]:
        return self._texture_at_unit(self._active_texture_unit)

    def glTexParameteri(self, target: int, pname: int, param: int) -> None:
        if target != enums.GL_TEXTURE_2D:
            self._error(enums.GL_INVALID_ENUM, "glTexParameteri target")
            return
        tex = self._current_texture()
        if tex is None:
            self._error(enums.GL_INVALID_OPERATION, "no texture bound")
            return
        if pname not in tex.params:
            self._error(enums.GL_INVALID_ENUM, "glTexParameteri pname")
            return
        tex.params[pname] = param

    def glGetTexParameteriv(self, target: int, pname: int) -> int:
        if target != enums.GL_TEXTURE_2D:
            self._error(enums.GL_INVALID_ENUM, "glGetTexParameteriv")
            return 0
        tex = self._current_texture()
        if tex is None:
            self._error(enums.GL_INVALID_OPERATION, "no texture bound")
            return 0
        if pname not in tex.params:
            self._error(enums.GL_INVALID_ENUM, "glGetTexParameteriv pname")
            return 0
        return tex.params[pname]

    def glGenerateMipmap(self, target: int) -> None:
        """Mark the bound texture's mipmap chain as generated.

        The simulator keeps no pyramid (minified samples read the base
        level), but completeness rules honour the flag — including the
        ES 2 rule that NPOT textures cannot have mipmaps.
        """
        if target != enums.GL_TEXTURE_2D:
            self._error(enums.GL_INVALID_ENUM, "glGenerateMipmap")
            return
        tex = self._current_texture()
        if tex is None or tex.data is None:
            self._error(enums.GL_INVALID_OPERATION, "glGenerateMipmap")
            return
        width, height = tex.width, tex.height
        if width & (width - 1) or height & (height - 1):
            self._error(
                enums.GL_INVALID_OPERATION,
                "glGenerateMipmap on a non-power-of-two texture "
                "(illegal in OpenGL ES 2)",
            )
            return
        tex.has_mipmaps = True

    def glTexImage2D(
        self,
        target: int,
        level: int,
        internalformat: int,
        width: int,
        height: int,
        border: int,
        fmt: int,
        type_: int,
        pixels,
    ) -> None:
        """Upload texel data.

        This is where the ES 2 restriction bites: ``type`` must be
        GL_UNSIGNED_BYTE (no GL_FLOAT — limitation 5).  Any numeric
        payload must already be packed into bytes by the paper's §IV
        transformations.
        """
        if target != enums.GL_TEXTURE_2D:
            self._error(enums.GL_INVALID_ENUM, "glTexImage2D target")
            return
        if type_ != enums.GL_UNSIGNED_BYTE:
            # GL_FLOAT textures are exactly what ES 2 does not have.
            self._error(
                enums.GL_INVALID_ENUM,
                "OpenGL ES 2 textures accept GL_UNSIGNED_BYTE data only "
                "(no float texture formats — see paper §II-B limitation 5)",
            )
            return
        if internalformat != fmt:
            self._error(
                enums.GL_INVALID_OPERATION,
                "internalformat must match format in OpenGL ES 2",
            )
            return
        if fmt not in enums.FORMAT_COMPONENTS:
            self._error(enums.GL_INVALID_ENUM, "glTexImage2D format")
            return
        if border != 0:
            self._error(enums.GL_INVALID_VALUE, "border must be 0")
            return
        if level != 0:
            raise SimulatorLimitation("mipmap levels are not simulated")
        if not (0 < width <= self.limits.max_texture_size
                and 0 < height <= self.limits.max_texture_size):
            self._error(enums.GL_INVALID_VALUE, "texture size")
            return
        tex = self._current_texture()
        if tex is None:
            self._error(enums.GL_INVALID_OPERATION, "no texture bound")
            return
        nbytes = width * height * enums.FORMAT_COMPONENTS[fmt]
        with trace.span("upload.texture", "upload", {"bytes": nbytes}):
            array = None
            if pixels is not None:
                array = np.asarray(pixels, dtype=np.uint8)
            tex.set_image(width, height, fmt, array)
        self.stats.counts["transfer.texture_upload_bytes"] += nbytes

    def glCopyTexImage2D(self, target: int, level: int, internalformat: int,
                         x: int, y: int, width: int, height: int,
                         border: int) -> None:
        """Copy the current framebuffer into the bound texture — the
        GPU-side alternative to readback when data should *stay* on
        the device between passes."""
        if target != enums.GL_TEXTURE_2D or border != 0 or level != 0:
            self._error(enums.GL_INVALID_VALUE, "glCopyTexImage2D")
            return
        if internalformat not in (enums.GL_RGBA, enums.GL_RGB):
            self._error(enums.GL_INVALID_ENUM, "glCopyTexImage2D format")
            return
        fb = self._current_framebuffer()
        if fb.status() != enums.GL_FRAMEBUFFER_COMPLETE:
            self._error(enums.GL_INVALID_FRAMEBUFFER_OPERATION,
                        "glCopyTexImage2D")
            return
        tex = self._current_texture()
        if tex is None:
            self._error(enums.GL_INVALID_OPERATION, "no texture bound")
            return
        buffer = fb.color_buffer()
        fb_h, fb_w = buffer.shape[0], buffer.shape[1]
        pixels = np.zeros((height, width, 4), dtype=np.uint8)
        pixels[:, :, 3] = 255
        x0, x1 = max(x, 0), min(x + width, fb_w)
        y0, y1 = max(y, 0), min(y + height, fb_h)
        if x0 < x1 and y0 < y1:
            pixels[y0 - y : y1 - y, x0 - x : x1 - x] = buffer[y0:y1, x0:x1]
        components = enums.FORMAT_COMPONENTS[internalformat]
        tex.set_image(width, height, internalformat,
                      pixels[:, :, :components])

    def glTexSubImage2D(self, target, level, xoffset, yoffset, width, height,
                        fmt, type_, pixels) -> None:
        """Overwrite a region of the bound texture's storage in place.

        ES 2 §3.7.2 errors: GL_INVALID_ENUM for a bad target, format
        or type; GL_INVALID_VALUE for a region outside the image;
        GL_INVALID_OPERATION without storage or when ``fmt`` differs
        from the image's format."""
        if target != enums.GL_TEXTURE_2D:
            self._error(enums.GL_INVALID_ENUM, "glTexSubImage2D target")
            return
        if type_ != enums.GL_UNSIGNED_BYTE:
            self._error(enums.GL_INVALID_ENUM, "GL_UNSIGNED_BYTE only")
            return
        if fmt not in enums.FORMAT_COMPONENTS:
            self._error(enums.GL_INVALID_ENUM, "glTexSubImage2D format")
            return
        tex = self._current_texture()
        if tex is None or tex.data is None:
            self._error(enums.GL_INVALID_OPERATION, "no texture storage")
            return
        if (xoffset < 0 or yoffset < 0 or width < 0 or height < 0
                or xoffset + width > tex.width
                or yoffset + height > tex.height):
            self._error(enums.GL_INVALID_VALUE,
                        "glTexSubImage2D region outside the image")
            return
        if fmt != tex.format:
            self._error(enums.GL_INVALID_OPERATION,
                        "glTexSubImage2D format must match the image")
            return
        with trace.span("upload.texture", "upload") as sp:
            array = np.asarray(pixels, dtype=np.uint8).reshape(
                height, width, enums.FORMAT_COMPONENTS[fmt]
            )
            tex.set_sub_image(xoffset, yoffset, array, fmt)
            if sp is not None:
                sp.args["bytes"] = array.nbytes
        self.stats.counts["transfer.texture_upload_bytes"] += array.nbytes

    # ==================================================================
    # Buffers
    # ==================================================================
    def glGenBuffers(self, n: int) -> List[int]:
        names = []
        for __ in range(n):
            name = self._next_name["buffer"]
            self._next_name["buffer"] += 1
            self._buffers[name] = BufferObject(name)
            names.append(name)
        return names

    def glDeleteBuffers(self, names) -> None:
        for name in names:
            buf = self._buffers.pop(name, None)
            if buf is not None:
                buf.deleted = True
        if self._bound_array_buffer in names:
            self._bound_array_buffer = 0
        if self._bound_element_buffer in names:
            self._bound_element_buffer = 0

    def glBindBuffer(self, target: int, buffer: int) -> None:
        if buffer != 0 and buffer not in self._buffers:
            self._buffers[buffer] = BufferObject(buffer)
        if target == enums.GL_ARRAY_BUFFER:
            self._bound_array_buffer = buffer
        elif target == enums.GL_ELEMENT_ARRAY_BUFFER:
            self._bound_element_buffer = buffer
        else:
            self._error(enums.GL_INVALID_ENUM, "glBindBuffer")

    def _bound_buffer(self, target: int) -> Optional[BufferObject]:
        name = (
            self._bound_array_buffer
            if target == enums.GL_ARRAY_BUFFER
            else self._bound_element_buffer
        )
        return self._buffers.get(name)

    def glBufferData(self, target: int, size_or_data, usage: int,
                     data=None) -> None:
        """glBufferData(target, size, usage) or (target, data, usage).

        Mirrors the common Python binding convenience: pass bytes or an
        ndarray directly as the second argument.
        """
        buf = self._bound_buffer(target)
        if buf is None:
            self._error(enums.GL_INVALID_OPERATION, "no buffer bound")
            return
        if isinstance(size_or_data, (int, np.integer)):
            size = int(size_or_data)
        else:
            data = size_or_data
            size = np.asarray(data).nbytes if not isinstance(
                data, (bytes, bytearray, memoryview)
            ) else len(data)
        with trace.span("upload.buffer", "upload", {"bytes": size}):
            buf.set_data(data, size, usage)
        self.stats.counts["transfer.buffer_upload_bytes"] += size

    def glGetBufferParameteriv(self, target: int, pname: int) -> int:
        buf = self._bound_buffer(target)
        if buf is None:
            self._error(enums.GL_INVALID_OPERATION, "no buffer bound")
            return 0
        if pname == enums.GL_BUFFER_SIZE:
            return buf.size
        if pname == enums.GL_BUFFER_USAGE:
            return buf.usage
        self._error(enums.GL_INVALID_ENUM, "glGetBufferParameteriv")
        return 0

    def glBufferSubData(self, target: int, offset: int, data) -> None:
        buf = self._bound_buffer(target)
        if buf is None or buf.data is None:
            self._error(enums.GL_INVALID_OPERATION, "no buffer storage")
            return
        buf.set_sub_data(offset, data)

    # ==================================================================
    # Shaders and programs
    # ==================================================================
    def glCreateShader(self, shader_type: int) -> int:
        if shader_type not in (enums.GL_VERTEX_SHADER, enums.GL_FRAGMENT_SHADER):
            self._error(enums.GL_INVALID_ENUM, "glCreateShader")
            return 0
        name = self._next_name["shader"]
        self._next_name["shader"] += 1
        self._shaders[name] = Shader(name, shader_type)
        return name

    def glDeleteShader(self, shader: int) -> None:
        obj = self._shaders.get(shader)
        if obj is not None:
            obj.deleted = True

    def glShaderSource(self, shader: int, source: str) -> None:
        obj = self._shaders.get(shader)
        if obj is None:
            self._error(enums.GL_INVALID_VALUE, "glShaderSource")
            return
        obj.source = source

    def glCompileShader(self, shader: int) -> None:
        obj = self._shaders.get(shader)
        if obj is None:
            self._error(enums.GL_INVALID_VALUE, "glCompileShader")
            return
        with trace.span("compile.shader", "compile") as sp:
            with self.attributed():
                obj.compile()
            if sp is not None:
                sp.args["shader"] = shader
                sp.args["stage"] = (
                    "vertex" if obj.type == enums.GL_VERTEX_SHADER
                    else "fragment"
                )
                sp.args["from_disk"] = bool(
                    getattr(obj, "loaded_from_disk", False)
                )
        self.stats.counts["compile.shaders"] += 1

    def glGetShaderiv(self, shader: int, pname: int) -> int:
        obj = self._shaders.get(shader)
        if obj is None:
            self._error(enums.GL_INVALID_VALUE, "glGetShaderiv")
            return 0
        if pname == enums.GL_COMPILE_STATUS:
            return enums.GL_TRUE if obj.compiled else enums.GL_FALSE
        if pname == enums.GL_INFO_LOG_LENGTH:
            return len(obj.info_log)
        if pname == enums.GL_SHADER_TYPE:
            return obj.type
        if pname == enums.GL_DELETE_STATUS:
            return enums.GL_TRUE if obj.deleted else enums.GL_FALSE
        self._error(enums.GL_INVALID_ENUM, "glGetShaderiv")
        return 0

    def glGetShaderInfoLog(self, shader: int) -> str:
        obj = self._shaders.get(shader)
        return "" if obj is None else obj.info_log

    def glCreateProgram(self) -> int:
        name = self._next_name["program"]
        self._next_name["program"] += 1
        self._programs[name] = Program(name)
        return name

    def glDeleteProgram(self, program: int) -> None:
        obj = self._programs.get(program)
        if obj is not None:
            obj.deleted = True

    def glAttachShader(self, program: int, shader: int) -> None:
        prog = self._programs.get(program)
        sh = self._shaders.get(shader)
        if prog is None or sh is None:
            self._error(enums.GL_INVALID_VALUE, "glAttachShader")
            return
        if not prog.attach(sh):
            self._error(enums.GL_INVALID_OPERATION, "shader of this type "
                        "already attached")

    def glDetachShader(self, program: int, shader: int) -> None:
        prog = self._programs.get(program)
        sh = self._shaders.get(shader)
        if prog is None or sh is None or not prog.detach(sh):
            self._error(enums.GL_INVALID_VALUE, "glDetachShader")

    def glBindAttribLocation(self, program: int, index: int, name: str) -> None:
        prog = self._programs.get(program)
        if prog is None:
            self._error(enums.GL_INVALID_VALUE, "glBindAttribLocation")
            return
        if not 0 <= index < self.limits.max_vertex_attribs:
            self._error(enums.GL_INVALID_VALUE, "attrib index out of range")
            return
        prog.bound_attributes[name] = index

    def glLinkProgram(self, program: int) -> None:
        prog = self._programs.get(program)
        if prog is None:
            self._error(enums.GL_INVALID_VALUE, "glLinkProgram")
            return
        prog.link(max_vertex_attribs=self.limits.max_vertex_attribs)
        self.stats.counts["compile.links"] += 1

    def glGetProgramiv(self, program: int, pname: int) -> int:
        prog = self._programs.get(program)
        if prog is None:
            self._error(enums.GL_INVALID_VALUE, "glGetProgramiv")
            return 0
        if pname == enums.GL_LINK_STATUS:
            return enums.GL_TRUE if prog.linked else enums.GL_FALSE
        if pname == enums.GL_VALIDATE_STATUS:
            return enums.GL_TRUE if prog.validated else enums.GL_FALSE
        if pname == enums.GL_INFO_LOG_LENGTH:
            return len(prog.info_log)
        if pname == enums.GL_ATTACHED_SHADERS:
            return len(prog.shaders)
        if pname == enums.GL_ACTIVE_UNIFORMS:
            return len(prog.uniform_leaves)
        if pname == enums.GL_ACTIVE_ATTRIBUTES:
            return len(prog.attribute_locations)
        self._error(enums.GL_INVALID_ENUM, "glGetProgramiv")
        return 0

    def glGetProgramInfoLog(self, program: int) -> str:
        prog = self._programs.get(program)
        return "" if prog is None else prog.info_log

    def glUseProgram(self, program: int) -> None:
        if program != 0 and program not in self._programs:
            self._error(enums.GL_INVALID_VALUE, "glUseProgram")
            return
        self._current_program = program

    def glGetUniformLocation(self, program: int, name: str) -> int:
        prog = self._programs.get(program)
        if prog is None or not prog.linked:
            self._error(enums.GL_INVALID_OPERATION, "program not linked")
            return -1
        return prog.uniform_location(name)

    def glGetAttribLocation(self, program: int, name: str) -> int:
        prog = self._programs.get(program)
        if prog is None or not prog.linked:
            self._error(enums.GL_INVALID_OPERATION, "program not linked")
            return -1
        return prog.attribute_location(name)

    def glValidateProgram(self, program: int) -> None:
        prog = self._programs.get(program)
        if prog is None:
            self._error(enums.GL_INVALID_VALUE, "glValidateProgram")
            return
        prog.validated = prog.linked

    def glGetActiveUniform(self, program: int, index: int):
        """Returns (name, size, gl_type) of the index-th active
        uniform leaf, like the C API (size > 1 for arrays)."""
        prog = self._programs.get(program)
        if prog is None or not prog.linked:
            self._error(enums.GL_INVALID_OPERATION, "program not linked")
            return "", 0, 0
        leaves = sorted(prog.uniform_leaves.values(), key=lambda l: l.location)
        if not 0 <= index < len(leaves):
            self._error(enums.GL_INVALID_VALUE, "glGetActiveUniform index")
            return "", 0, 0
        leaf = leaves[index]
        name = leaf.full_name + ("[0]" if leaf.length > 1 else "")
        return name, leaf.length, _gl_type_of(leaf.type)

    def glGetActiveAttrib(self, program: int, index: int):
        """Returns (name, size, gl_type) of the index-th attribute."""
        prog = self._programs.get(program)
        if prog is None or not prog.linked:
            self._error(enums.GL_INVALID_OPERATION, "program not linked")
            return "", 0, 0
        names = sorted(prog.attribute_locations,
                       key=lambda n: prog.attribute_locations[n])
        if not 0 <= index < len(names):
            self._error(enums.GL_INVALID_VALUE, "glGetActiveAttrib index")
            return "", 0, 0
        name = names[index]
        symbol = next(
            s for s in prog.vertex.active_attributes() if s.name == name
        )
        return name, 1, _gl_type_of(symbol.type)

    def glGetUniformfv(self, program: int, location: int):
        """Read back a float uniform's current value (numpy array)."""
        prog = self._programs.get(program)
        if prog is None or not prog.linked:
            self._error(enums.GL_INVALID_OPERATION, "program not linked")
            return np.zeros(0)
        entry = prog.uniform_locations.get(location)
        if entry is None or entry[0].storage is None:
            self._error(enums.GL_INVALID_OPERATION, "glGetUniformfv")
            return np.zeros(0)
        leaf, offset = entry
        return np.array(leaf.storage[offset], dtype=np.float64).reshape(-1)

    # ------------------------------------------------------------------
    # glUniform* family
    # ------------------------------------------------------------------
    def _uniform_program(self) -> Optional[Program]:
        prog = self._programs.get(self._current_program)
        if prog is None or not prog.linked:
            self._error(enums.GL_INVALID_OPERATION, "no program in use")
            return None
        return prog

    def _set_uniform_f(self, location: int, components: int, values, count: int) -> None:
        prog = self._uniform_program()
        if prog is None:
            return
        if location == -1:
            return  # silently ignored, per spec
        message = prog.set_uniform_floats(location, components,
                                          np.asarray(values, dtype=np.float64),
                                          count)
        if message:
            self._error(enums.GL_INVALID_OPERATION, message)
        else:
            self.stats.counts["gl.uniform_updates"] += 1

    def _set_uniform_i(self, location: int, components: int, values, count: int) -> None:
        prog = self._uniform_program()
        if prog is None:
            return
        if location == -1:
            return
        message = prog.set_uniform_ints(location, components,
                                        np.asarray(values, dtype=np.int64),
                                        count)
        if message:
            self._error(enums.GL_INVALID_OPERATION, message)
        else:
            self.stats.counts["gl.uniform_updates"] += 1

    def glUniform1f(self, location, x):
        self._set_uniform_f(location, 1, [x], 1)

    def glUniform2f(self, location, x, y):
        self._set_uniform_f(location, 2, [x, y], 1)

    def glUniform3f(self, location, x, y, z):
        self._set_uniform_f(location, 3, [x, y, z], 1)

    def glUniform4f(self, location, x, y, z, w):
        self._set_uniform_f(location, 4, [x, y, z, w], 1)

    def glUniform1i(self, location, x):
        self._set_uniform_i(location, 1, [x], 1)

    def glUniform2i(self, location, x, y):
        self._set_uniform_i(location, 2, [x, y], 1)

    def glUniform3i(self, location, x, y, z):
        self._set_uniform_i(location, 3, [x, y, z], 1)

    def glUniform4i(self, location, x, y, z, w):
        self._set_uniform_i(location, 4, [x, y, z, w], 1)

    def glUniform1fv(self, location, count, values):
        self._set_uniform_f(location, 1, values, count)

    def glUniform2fv(self, location, count, values):
        self._set_uniform_f(location, 2, values, count)

    def glUniform3fv(self, location, count, values):
        self._set_uniform_f(location, 3, values, count)

    def glUniform4fv(self, location, count, values):
        self._set_uniform_f(location, 4, values, count)

    def glUniform1iv(self, location, count, values):
        self._set_uniform_i(location, 1, values, count)

    def glUniform2iv(self, location, count, values):
        self._set_uniform_i(location, 2, values, count)

    def glUniform3iv(self, location, count, values):
        self._set_uniform_i(location, 3, values, count)

    def glUniform4iv(self, location, count, values):
        self._set_uniform_i(location, 4, values, count)

    def _set_uniform_matrix(self, location, order, count, transpose, values):
        prog = self._uniform_program()
        if prog is None or location == -1:
            return
        message = prog.set_uniform_matrix(
            location, order, np.asarray(values, dtype=np.float64), count,
            bool(transpose),
        )
        if message:
            self._error(enums.GL_INVALID_OPERATION, message)
        else:
            self.stats.counts["gl.uniform_updates"] += 1

    def glUniformMatrix2fv(self, location, count, transpose, values):
        self._set_uniform_matrix(location, 2, count, transpose, values)

    def glUniformMatrix3fv(self, location, count, transpose, values):
        self._set_uniform_matrix(location, 3, count, transpose, values)

    def glUniformMatrix4fv(self, location, count, transpose, values):
        self._set_uniform_matrix(location, 4, count, transpose, values)

    # ==================================================================
    # Vertex attributes
    # ==================================================================
    def _attrib(self, index: int) -> Optional[VertexAttribState]:
        if not 0 <= index < self.limits.max_vertex_attribs:
            self._error(enums.GL_INVALID_VALUE, "attrib index out of range")
            return None
        return self._attribs.setdefault(index, VertexAttribState())

    def glEnableVertexAttribArray(self, index: int) -> None:
        state = self._attrib(index)
        if state is not None:
            state.enabled = True

    def glDisableVertexAttribArray(self, index: int) -> None:
        state = self._attrib(index)
        if state is not None:
            state.enabled = False

    def glVertexAttribPointer(self, index: int, size: int, type_: int,
                              normalized: bool, stride: int, pointer) -> None:
        state = self._attrib(index)
        if state is None:
            return
        if not 1 <= size <= 4:
            self._error(enums.GL_INVALID_VALUE, "attrib size")
            return
        if type_ not in (enums.GL_FLOAT, enums.GL_BYTE, enums.GL_UNSIGNED_BYTE,
                         enums.GL_SHORT, enums.GL_UNSIGNED_SHORT):
            self._error(enums.GL_INVALID_ENUM, "attrib type")
            return
        state.size = size
        state.type = type_
        state.normalized = bool(normalized)
        state.stride = stride
        state.pointer = pointer
        state.buffer = self._buffers.get(self._bound_array_buffer)

    def glVertexAttrib4f(self, index: int, x, y, z, w) -> None:
        state = self._attrib(index)
        if state is not None:
            state.generic_value = np.array([x, y, z, w], dtype=np.float64)

    def glGetAttachedShaders(self, program: int):
        prog = self._programs.get(program)
        if prog is None:
            self._error(enums.GL_INVALID_VALUE, "glGetAttachedShaders")
            return []
        return [shader.name for shader in prog.shaders]

    def glGetVertexAttribfv(self, index: int, pname: int):
        """Supports GL_CURRENT_VERTEX_ATTRIB (0x8626): the generic
        attribute value."""
        state = self._attrib(index)
        if state is None:
            return np.zeros(4)
        if pname == 0x8626:  # GL_CURRENT_VERTEX_ATTRIB
            return np.array(state.generic_value, dtype=np.float64)
        self._error(enums.GL_INVALID_ENUM, "glGetVertexAttribfv")
        return np.zeros(4)

    def glVertexAttrib1f(self, index: int, x) -> None:
        self.glVertexAttrib4f(index, x, 0.0, 0.0, 1.0)

    def glVertexAttrib2f(self, index: int, x, y) -> None:
        self.glVertexAttrib4f(index, x, y, 0.0, 1.0)

    def glVertexAttrib3f(self, index: int, x, y, z) -> None:
        self.glVertexAttrib4f(index, x, y, z, 1.0)

    # ==================================================================
    # Framebuffers
    # ==================================================================
    def glGenFramebuffers(self, n: int) -> List[int]:
        names = []
        for __ in range(n):
            name = self._next_name["framebuffer"]
            self._next_name["framebuffer"] += 1
            self._framebuffers[name] = FramebufferObject(name)
            names.append(name)
        return names

    def glDeleteFramebuffers(self, names) -> None:
        for name in names:
            fbo = self._framebuffers.pop(name, None)
            if fbo is not None:
                fbo.deleted = True
        if self._bound_framebuffer in names:
            self._bound_framebuffer = 0

    def glBindFramebuffer(self, target: int, framebuffer: int) -> None:
        if target != enums.GL_FRAMEBUFFER:
            self._error(enums.GL_INVALID_ENUM, "glBindFramebuffer")
            return
        if framebuffer != 0 and framebuffer not in self._framebuffers:
            self._framebuffers[framebuffer] = FramebufferObject(framebuffer)
        self._bound_framebuffer = framebuffer

    def glFramebufferTexture2D(self, target: int, attachment: int,
                               textarget: int, texture: int, level: int) -> None:
        if target != enums.GL_FRAMEBUFFER:
            self._error(enums.GL_INVALID_ENUM, "glFramebufferTexture2D")
            return
        if attachment != enums.GL_COLOR_ATTACHMENT0:
            # Limitation (8): one color attachment in ES 2.
            self._error(
                enums.GL_INVALID_ENUM,
                "OpenGL ES 2 has a single color attachment "
                "(GL_COLOR_ATTACHMENT0)",
            )
            return
        fbo = self._framebuffers.get(self._bound_framebuffer)
        if fbo is None:
            self._error(enums.GL_INVALID_OPERATION,
                        "the default framebuffer has no attachment points")
            return
        fbo.attach_color(self._textures.get(texture) if texture else None)

    def glCheckFramebufferStatus(self, target: int) -> int:
        fb = self._current_framebuffer()
        return fb.status()

    def _current_framebuffer(self):
        if self._bound_framebuffer == 0:
            return self._default_framebuffer
        return self._framebuffers[self._bound_framebuffer]

    # ==================================================================
    # Clearing and reading
    # ==================================================================
    def glViewport(self, x: int, y: int, width: int, height: int) -> None:
        if width < 0 or height < 0:
            self._error(enums.GL_INVALID_VALUE, "glViewport")
            return
        self._viewport = (x, y, width, height)

    def glClearColor(self, r, g, b, a) -> None:
        self._clear_color = (r, g, b, a)

    def glScissor(self, x: int, y: int, width: int, height: int) -> None:
        if width < 0 or height < 0:
            self._error(enums.GL_INVALID_VALUE, "glScissor")
            return
        self._scissor = (int(x), int(y), int(width), int(height))

    def _active_scissor(self) -> Optional[Tuple[int, int, int, int]]:
        """The scissor box when GL_SCISSOR_TEST is enabled, else None."""
        if not self._capabilities.get(enums.GL_SCISSOR_TEST, False):
            return None
        return self._scissor

    def glClear(self, mask: int) -> None:
        if mask & enums.GL_COLOR_BUFFER_BIT:
            fb = self._current_framebuffer()
            buffer = fb.color_buffer()
            if buffer is None:
                self._error(enums.GL_INVALID_FRAMEBUFFER_OPERATION, "glClear")
                return
            rgba = quantize_color(
                np.array([self._clear_color]), self.quantization
            )[0]
            scissor = self._active_scissor()
            if scissor is None:
                buffer[:, :] = rgba
            else:
                # ES 2 §4.2.3: clears honour the scissor test.
                sx, sy, sw, sh = scissor
                fb_h, fb_w = buffer.shape[0], buffer.shape[1]
                x0, x1 = max(sx, 0), min(sx + sw, fb_w)
                y0, y1 = max(sy, 0), min(sy + sh, fb_h)
                if x0 < x1 and y0 < y1:
                    buffer[y0:y1, x0:x1] = rgba

    def glReadPixels(self, x: int, y: int, width: int, height: int,
                     fmt: int, type_: int) -> np.ndarray:
        """Read back framebuffer contents — the *only* route from GPU
        to CPU memory in OpenGL ES 2 (limitation 7: no glGetTexImage).

        Returns an (height, width, components) uint8 array, bottom row
        first (GL convention).
        """
        if width < 0 or height < 0:
            self._error(enums.GL_INVALID_VALUE, "glReadPixels")
            return np.zeros((0,), dtype=np.uint8)
        if type_ != enums.GL_UNSIGNED_BYTE:
            self._error(enums.GL_INVALID_ENUM,
                        "glReadPixels supports GL_UNSIGNED_BYTE only")
            return np.zeros((0,), dtype=np.uint8)
        if fmt not in (enums.GL_RGBA, enums.GL_RGB):
            self._error(enums.GL_INVALID_ENUM, "glReadPixels format")
            return np.zeros((0,), dtype=np.uint8)
        fb = self._current_framebuffer()
        if fb.status() != enums.GL_FRAMEBUFFER_COMPLETE:
            self._error(enums.GL_INVALID_FRAMEBUFFER_OPERATION, "glReadPixels")
            return np.zeros((0,), dtype=np.uint8)
        with trace.span("readback.pixels", "readback") as sp:
            buffer = fb.color_buffer()
            fb_h, fb_w = buffer.shape[0], buffer.shape[1]
            out = np.zeros((height, width, 4), dtype=np.uint8)
            x0, x1 = max(x, 0), min(x + width, fb_w)
            y0, y1 = max(y, 0), min(y + height, fb_h)
            if x0 < x1 and y0 < y1:
                out[y0 - y : y1 - y, x0 - x : x1 - x] = buffer[y0:y1, x0:x1]
            components = 4 if fmt == enums.GL_RGBA else 3
            result = out[:, :, :components]
            if sp is not None:
                sp.args["bytes"] = result.nbytes
        self.stats.counts["transfer.readback_bytes"] += result.nbytes
        return result

    # ==================================================================
    # Drawing
    # ==================================================================
    def glDrawArrays(self, mode: int, first: int, count: int) -> None:
        if count < 0 or first < 0:
            self._error(enums.GL_INVALID_VALUE, "glDrawArrays")
            return
        index_stream = np.arange(first, first + count, dtype=np.int64)
        self._draw(mode, index_stream)

    def glDrawElements(self, mode: int, count: int, type_: int, indices) -> None:
        if count < 0:
            self._error(enums.GL_INVALID_VALUE, "glDrawElements")
            return
        if type_ not in _INDEX_DTYPES:
            self._error(enums.GL_INVALID_ENUM, "glDrawElements type")
            return
        dtype = _INDEX_DTYPES[type_]
        element_buffer = self._buffers.get(self._bound_element_buffer)
        if element_buffer is not None and element_buffer.data is not None \
                and isinstance(indices, (int, np.integer)):
            offset = int(indices)
            raw = element_buffer.data[offset:]
            stream = np.frombuffer(raw.tobytes(), dtype=dtype)[:count]
        else:
            stream = np.asarray(indices, dtype=dtype).reshape(-1)[:count]
        self._draw(mode, stream.astype(np.int64))

    def _draw(self, mode: int, index_stream: np.ndarray) -> None:
        prog = self._programs.get(self._current_program)
        if prog is None or not prog.linked:
            self._error(enums.GL_INVALID_OPERATION, "no linked program in use")
            return
        fb = self._current_framebuffer()
        if fb.status() != enums.GL_FRAMEBUFFER_COMPLETE:
            self._error(enums.GL_INVALID_FRAMEBUFFER_OPERATION, "draw")
            return
        color_buffer = fb.color_buffer()

        def resolve_sampler(unit: int, gtype):
            return self._texture_at_unit(unit)

        with trace.span("draw", "draw") as sp:
            # IR/JIT artifacts load lazily at first draw, so the draw's
            # counters include compile and artifact-store traffic.
            with self.attributed() as changed:
                stats = execute_draw(
                    prog,
                    self._attribs,
                    index_stream,
                    mode,
                    self._viewport,
                    color_buffer,
                    self.float_model,
                    resolve_sampler,
                    quantization=self.quantization,
                    max_loop_iterations=self.max_loop_iterations,
                    execution_backend=self.execution_backend,
                    scissor=self._active_scissor(),
                    tile_size=self.tile_size,
                    shade_workers=self.shade_workers,
                )
            if sp is not None:
                sp.args.update({
                    "draw_index": len(self.stats.draws),
                    "backend": self.execution_backend,
                    "vertex_invocations": stats.vertex_invocations,
                    "fragment_invocations": stats.fragment_invocations,
                    "framebuffer_writes": stats.framebuffer_writes,
                    "discarded_fragments": stats.discarded_fragments,
                    # Modeled VideoCore-IV cost next to the span's real
                    # elapsed time, so measured and predicted compare
                    # on the same event.
                    "modeled_seconds": GpuModel().draw_time(
                        stats
                    ).total_seconds,
                    "counters": dict(changed),
                })
        self.stats.draws.append(stats)

    @contextlib.contextmanager
    def attributed(self) -> Iterator[Dict[str, int]]:
        """Attribute to this context the process counters that change
        inside the block (its compiles, draws and graph replays), so a
        context counts only its own work.  Yields a dict that receives
        the block's counter delta on exit.  Nested blocks fold into
        ``stats.counts`` once, at the outermost."""
        before = counters.snapshot()
        outer = not self._attributing
        self._attributing = True
        changed: Dict[str, int] = {}
        try:
            yield changed
        finally:
            changed.update(counters.delta(before))
            if outer:
                self._attributing = False
                counters.merge(changed, self.stats.counts)


def _gl_type_of(gtype) -> int:
    """Map a GlslType to the GL uniform/attribute type enum."""
    from ..glsl.types import BaseType, TypeKind

    if gtype.kind == TypeKind.SCALAR:
        return {
            BaseType.FLOAT: enums.GL_FLOAT,
            BaseType.INT: enums.GL_INT,
            BaseType.BOOL: enums.GL_BOOL,
        }[gtype.base]
    if gtype.kind == TypeKind.VECTOR:
        table = {
            BaseType.FLOAT: [enums.GL_FLOAT_VEC2, enums.GL_FLOAT_VEC3,
                             enums.GL_FLOAT_VEC4],
            BaseType.INT: [enums.GL_INT_VEC2, enums.GL_INT_VEC3,
                           enums.GL_INT_VEC4],
            BaseType.BOOL: [enums.GL_BOOL_VEC2, enums.GL_BOOL_VEC3,
                            enums.GL_BOOL_VEC4],
        }
        return table[gtype.base][gtype.size - 2]
    if gtype.kind == TypeKind.MATRIX:
        return {2: enums.GL_FLOAT_MAT2, 3: enums.GL_FLOAT_MAT3,
                4: enums.GL_FLOAT_MAT4}[gtype.size]
    if gtype.kind == TypeKind.SAMPLER:
        if gtype.name == "samplerCube":
            return enums.GL_SAMPLER_CUBE
        return enums.GL_SAMPLER_2D
    return 0
