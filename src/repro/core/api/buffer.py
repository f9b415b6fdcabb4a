"""GpuArray: a 1-D host array living in an RGBA8 texture.

Each logical element occupies one RGBA texel whose four bytes carry
the element's §IV byte layout.  The 1-D index space is folded into a
2-D texture (challenge 3) of power-of-two width so the normalised-
coordinate addressing (challenge 4) is exact.

Reading data back follows the paper's challenge (7): if the array is
the one currently attached to the framebuffer (it was just computed),
``to_host`` reads it directly with ``glReadPixels``; otherwise a
pass-through copy shader first moves the texture into a framebuffer.
The framework tracks residency so well-ordered pipelines never pay for
the copy — the ablation benchmark measures exactly this difference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...gles2 import enums as gl
from ..numerics.formats import NumericFormat, get_format
from .errors import GpgpuError


def texture_shape(length: int, max_size: int) -> "tuple[int, int]":
    """Choose a (width, height) folding for ``length`` elements.

    Width is the smallest power of two >= sqrt(length) (clamped to the
    device limit); height is whatever is needed to cover the rest.
    """
    if length <= 0:
        raise GpgpuError("array length must be positive")
    width = 1
    while width * width < length and width < max_size:
        width *= 2
    height = (length + width - 1) // width
    if height > max_size:
        raise GpgpuError(
            f"array of {length} elements exceeds the device texture "
            f"limit ({max_size}x{max_size})"
        )
    return width, height


class GpuArray:
    """A typed 1-D array stored in GPU texture memory."""

    def __init__(self, device, length: int, fmt, shape=None):
        self.device = device
        self.length = length
        self.format: NumericFormat = get_format(fmt)
        if shape is not None:
            self.width, self.height = shape
            if self.width * self.height < length:
                raise GpgpuError(
                    f"explicit texture shape {shape} cannot hold "
                    f"{length} elements"
                )
        else:
            self.width, self.height = texture_shape(
                length, device.ctx.limits.max_texture_size
            )
        ctx = device.ctx
        (self.texture,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, self.texture)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_MIN_FILTER, gl.GL_NEAREST)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_MAG_FILTER, gl.GL_NEAREST)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_WRAP_S, gl.GL_CLAMP_TO_EDGE)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_WRAP_T, gl.GL_CLAMP_TO_EDGE)
        # Allocate with explicit zero bytes: a graphics texture's
        # "undefined" default (opaque alpha) would read back as -2^24
        # through the int32 unpack.  Fresh arrays read as zero.
        ctx.glTexImage2D(
            gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, self.width, self.height, 0,
            gl.GL_RGBA, gl.GL_UNSIGNED_BYTE,
            np.zeros((self.height, self.width, 4), dtype=np.uint8),
        )
        self._fbo: Optional[int] = None
        self.released = False

    # ------------------------------------------------------------------
    @property
    def texel_count(self) -> int:
        return self.width * self.height

    @property
    def size_vec2(self) -> "tuple[float, float]":
        """The (width, height) pair shaders receive as the size uniform."""
        return float(self.width), float(self.height)

    def _check_alive(self) -> None:
        if self.released:
            raise GpgpuError("GpuArray has been released")

    # ------------------------------------------------------------------
    def upload(self, host: np.ndarray) -> "GpuArray":
        """Pack a host array (§IV layout) and upload it as texels."""
        self._check_alive()
        host = np.asarray(host, dtype=self.format.dtype).reshape(-1)
        if host.shape[0] != self.length:
            raise GpgpuError(
                f"host array has {host.shape[0]} elements, GpuArray holds "
                f"{self.length}"
            )
        texels = self.format.host_pack(host)
        padded = np.zeros((self.texel_count, 4), dtype=np.uint8)
        padded[: self.length] = texels
        ctx = self.device.ctx
        ctx.glBindTexture(gl.GL_TEXTURE_2D, self.texture)
        ctx.glTexImage2D(
            gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, self.width, self.height, 0,
            gl.GL_RGBA, gl.GL_UNSIGNED_BYTE,
            padded.reshape(self.height, self.width, 4),
        )
        if self.device.fb_resident is self:
            self.device.fb_resident = None
        return self

    def to_host(self) -> np.ndarray:
        """Read the array back to CPU memory.

        Direct ``glReadPixels`` when this array is framebuffer-resident
        (challenge 7's "careful kernel ordering" case); otherwise a
        copy shader runs first.
        """
        self._check_alive()
        device = self.device
        if device.fb_resident is self and not device.force_copy_readback:
            texels = device.read_framebuffer(self)
        else:
            texels = device.copy_texture_and_read(self)
        flat = texels.reshape(-1, 4)[: self.length]
        return self.format.host_unpack(flat)

    # ------------------------------------------------------------------
    def framebuffer(self) -> int:
        """The FBO rendering into this array's texture (lazily made)."""
        self._check_alive()
        if self._fbo is None:
            ctx = self.device.ctx
            (self._fbo,) = ctx.glGenFramebuffers(1)
            ctx.glBindFramebuffer(gl.GL_FRAMEBUFFER, self._fbo)
            ctx.glFramebufferTexture2D(
                gl.GL_FRAMEBUFFER, gl.GL_COLOR_ATTACHMENT0,
                gl.GL_TEXTURE_2D, self.texture, 0,
            )
            status = ctx.glCheckFramebufferStatus(gl.GL_FRAMEBUFFER)
            if status != gl.GL_FRAMEBUFFER_COMPLETE:
                raise GpgpuError(f"framebuffer incomplete: {hex(status)}")
        return self._fbo

    def release(self) -> None:
        """Free the GL objects backing this array."""
        if self.released:
            return
        ctx = self.device.ctx
        ctx.glDeleteTextures([self.texture])
        if self._fbo is not None:
            ctx.glDeleteFramebuffers([self._fbo])
        if self.device.fb_resident is self:
            self.device.fb_resident = None
        self.released = True

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GpuArray({self.length} x {self.format.name}, "
            f"{self.width}x{self.height} texels)"
        )
