"""Texture objects and sampling.

OpenGL ES 2 textures in this simulator enforce the restriction at the
heart of the paper: **texel storage is unsigned bytes only** (the API
offers no float texture formats — limitation 5 in §II-B).  Texels are
handed to the shader as floats in [0, 1] following spec equation (1):
``f = c / (2^8 - 1)``.

Sampling implements NEAREST and LINEAR filtering with REPEAT,
MIRRORED_REPEAT and CLAMP_TO_EDGE wrap modes, vectorised over all
fragments.  ES 2's non-power-of-two rule is enforced: NPOT textures
may only use CLAMP_TO_EDGE wrapping and NEAREST/LINEAR (no mipmap)
filtering, otherwise the texture is *incomplete* and samples return
opaque black — exactly the silent failure mode every Raspberry Pi
GPGPU programmer meets once.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from . import enums

_WRAP_MODES = (enums.GL_REPEAT, enums.GL_CLAMP_TO_EDGE, enums.GL_MIRRORED_REPEAT)
_MIN_FILTERS = (
    enums.GL_NEAREST,
    enums.GL_LINEAR,
    enums.GL_NEAREST_MIPMAP_NEAREST,
    enums.GL_LINEAR_MIPMAP_NEAREST,
    enums.GL_NEAREST_MIPMAP_LINEAR,
    enums.GL_LINEAR_MIPMAP_LINEAR,
)
_MAG_FILTERS = (enums.GL_NEAREST, enums.GL_LINEAR)


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


class Texture:
    """One texture object (name + storage + sampler state)."""

    def __init__(self, name: int):
        self.name = name
        #: (height, width, 4) uint8, RGBA expanded, or None before
        #: glTexImage2D.
        self.data: Optional[np.ndarray] = None
        self.width = 0
        self.height = 0
        self.format = enums.GL_RGBA
        self.params: Dict[int, int] = {
            enums.GL_TEXTURE_MIN_FILTER: enums.GL_NEAREST_MIPMAP_LINEAR,
            enums.GL_TEXTURE_MAG_FILTER: enums.GL_LINEAR,
            enums.GL_TEXTURE_WRAP_S: enums.GL_REPEAT,
            enums.GL_TEXTURE_WRAP_T: enums.GL_REPEAT,
        }
        self.deleted = False
        #: Set by glGenerateMipmap.  The simulator keeps no actual
        #: chain — minification samples the base level — but the
        #: completeness rules honour the flag.
        self.has_mipmaps = False

    # ------------------------------------------------------------------
    def set_image(self, width: int, height: int, fmt: int, pixels: Optional[np.ndarray]) -> None:
        """glTexImage2D body: store as RGBA8.

        ``pixels`` is a (height, width, components) uint8 array or
        None (texture allocated but undefined — zeros here).
        """
        components = enums.FORMAT_COMPONENTS[fmt]
        rgba = np.zeros((height, width, 4), dtype=np.uint8)
        rgba[:, :, 3] = 255
        if pixels is not None:
            pixels = np.asarray(pixels, dtype=np.uint8).reshape(height, width, components)
            if fmt == enums.GL_RGBA:
                rgba[:] = pixels
            elif fmt == enums.GL_RGB:
                rgba[:, :, :3] = pixels
            elif fmt == enums.GL_LUMINANCE:
                rgba[:, :, 0] = rgba[:, :, 1] = rgba[:, :, 2] = pixels[:, :, 0]
            elif fmt == enums.GL_LUMINANCE_ALPHA:
                rgba[:, :, 0] = rgba[:, :, 1] = rgba[:, :, 2] = pixels[:, :, 0]
                rgba[:, :, 3] = pixels[:, :, 1]
            elif fmt == enums.GL_ALPHA:
                rgba[:, :, :3] = 0
                rgba[:, :, 3] = pixels[:, :, 0]
        self.data = rgba
        self.width = width
        self.height = height
        self.format = fmt

    def set_sub_image(self, x: int, y: int, pixels: np.ndarray, fmt: int) -> None:
        """glTexSubImage2D body: ``pixels`` is a (height, width,
        components) array in the image's own format, already checked
        to lie inside the image.  Writes the storage in place."""
        pixels = np.asarray(pixels, dtype=np.uint8)
        h, w = pixels.shape[0], pixels.shape[1]
        region = self.data[y : y + h, x : x + w]
        if fmt == enums.GL_RGBA:
            region[:] = pixels
        elif fmt == enums.GL_RGB:
            region[:, :, :3] = pixels
        elif fmt in (enums.GL_LUMINANCE, enums.GL_LUMINANCE_ALPHA):
            lum = pixels[:, :, 0]
            region[:, :, 0] = region[:, :, 1] = region[:, :, 2] = lum
            if fmt == enums.GL_LUMINANCE_ALPHA:
                region[:, :, 3] = pixels[:, :, 1]
        elif fmt == enums.GL_ALPHA:
            region[:, :, 3] = pixels[:, :, 0]

    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        """ES 2 §3.8.2 completeness, including the NPOT restrictions."""
        if self.data is None:
            return False
        min_filter = self.params[enums.GL_TEXTURE_MIN_FILTER]
        uses_mipmaps = min_filter not in (enums.GL_NEAREST, enums.GL_LINEAR)
        if uses_mipmaps and not self.has_mipmaps:
            # Mipmap filtering without a generated chain leaves the
            # texture incomplete — the classic black-texture pitfall.
            return False
        if uses_mipmaps and not (_is_pow2(self.width) and _is_pow2(self.height)):
            return False  # ES 2: NPOT textures cannot have mipmaps
        if not (_is_pow2(self.width) and _is_pow2(self.height)):
            wrap_s = self.params[enums.GL_TEXTURE_WRAP_S]
            wrap_t = self.params[enums.GL_TEXTURE_WRAP_T]
            if wrap_s != enums.GL_CLAMP_TO_EDGE or wrap_t != enums.GL_CLAMP_TO_EDGE:
                return False
        return True

    # ------------------------------------------------------------------
    def gather_info(self, width: float, height: float) -> Optional[np.ndarray]:
        """Texel storage for the JIT's fused texel fetch, or None.

        The fetch replaces the whole :meth:`sample` pipeline with
        ``data[y, x]``, which is only equivalent to nearest sampling
        of texel-centre coordinates when every stage it skips is the
        identity: the texture must be complete (else samples are
        constant black), magnified with NEAREST (no bilinear blend),
        wrapped CLAMP_TO_EDGE on both axes (identity on in-range
        indices), and its dimensions must equal the kernel's size
        uniform (``width``/``height``, floats from the shader) so the
        in-range proof carried by the IR annotation applies to *this*
        storage.  Dimensions are capped at 2^20 so the float32
        texel-centre round-trip ``floor(((x+0.5)/W)*W) == x`` is exact
        (see :mod:`repro.glsl.ir.gather`).
        """
        if (self.data is None
                or float(self.width) != width
                or float(self.height) != height
                or self.width > 1 << 20 or self.height > 1 << 20
                or self.params[enums.GL_TEXTURE_MAG_FILTER] != enums.GL_NEAREST
                or self.params[enums.GL_TEXTURE_WRAP_S] != enums.GL_CLAMP_TO_EDGE
                or self.params[enums.GL_TEXTURE_WRAP_T] != enums.GL_CLAMP_TO_EDGE
                or not self.is_complete()):
            return None
        return self.data

    # ------------------------------------------------------------------
    # Sampling (vectorised over fragments)
    # ------------------------------------------------------------------
    def sample(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """texture2D: normalised coordinates -> (N, 4) floats in [0,1].

        Spec equation (1): each byte c is seen as c / 255.
        """
        n = max(s.shape[0], t.shape[0])
        if not self.is_complete():
            # Incomplete textures sample as (0, 0, 0, 1).
            out = np.zeros((n, 4), dtype=np.float64)
            out[:, 3] = 1.0
            return out
        mag = self.params[enums.GL_TEXTURE_MAG_FILTER]
        # Without mipmaps and with a full-screen quad, the mag filter
        # applies; GPGPU kernels use NEAREST.
        if mag == enums.GL_NEAREST:
            # uint8 / float divides in float64 directly (every uint8
            # is exact in float64) — same bits as astype-then-divide
            # without the intermediate copy.
            return self._sample_nearest(s, t) / 255.0
        return self._sample_linear(s, t) / 255.0

    def _wrap(self, coord: np.ndarray, mode: int, size: int) -> np.ndarray:
        """Map texel indices through the wrap mode onto [0, size)."""
        if mode == enums.GL_REPEAT:
            return np.mod(coord, size)
        if mode == enums.GL_MIRRORED_REPEAT:
            period = np.mod(coord, 2 * size)
            return np.where(period < size, period, 2 * size - 1 - period)
        # Same result as np.clip for integer indices, without the
        # method-dispatch detour (this is the hot clamp-to-edge path).
        return np.minimum(np.maximum(coord, 0), size - 1)

    def _sample_nearest(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        i = np.floor(s * self.width).astype(np.int64)
        j = np.floor(t * self.height).astype(np.int64)
        i = self._wrap(i, self.params[enums.GL_TEXTURE_WRAP_S], self.width)
        j = self._wrap(j, self.params[enums.GL_TEXTURE_WRAP_T], self.height)
        n = max(i.shape[0], j.shape[0])
        if i.shape[0] != n:
            i = np.broadcast_to(i, (n,))
        if j.shape[0] != n:
            j = np.broadcast_to(j, (n,))
        return self.data[j, i]

    def _sample_linear(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        x = s * self.width - 0.5
        y = t * self.height - 0.5
        x0 = np.floor(x).astype(np.int64)
        y0 = np.floor(y).astype(np.int64)
        fx = (x - x0)[:, None]
        fy = (y - y0)[:, None]
        wrap_s = self.params[enums.GL_TEXTURE_WRAP_S]
        wrap_t = self.params[enums.GL_TEXTURE_WRAP_T]
        x0w = self._wrap(x0, wrap_s, self.width)
        x1w = self._wrap(x0 + 1, wrap_s, self.width)
        y0w = self._wrap(y0, wrap_t, self.height)
        y1w = self._wrap(y0 + 1, wrap_t, self.height)
        c00 = self.data[y0w, x0w].astype(np.float64)
        c10 = self.data[y0w, x1w].astype(np.float64)
        c01 = self.data[y1w, x0w].astype(np.float64)
        c11 = self.data[y1w, x1w].astype(np.float64)
        top = c00 * (1.0 - fx) + c10 * fx
        bottom = c01 * (1.0 - fx) + c11 * fx
        return top * (1.0 - fy) + bottom * fy

    def sample_cube(self, coords: np.ndarray) -> np.ndarray:
        """textureCube placeholder: the simulator stores no cube faces;
        GPGPU never uses them.  Returns opaque black."""
        out = np.zeros((coords.shape[0], 4), dtype=np.float64)
        out[:, 3] = 1.0
        return out
