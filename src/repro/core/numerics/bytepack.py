"""Unsigned and signed char transformations (§IV-A, §IV-B).

These are the simplest of the paper's numeric formats: one byte per
element, carried in the R channel of an RGBA8 texel.  The host-side
layout is the identity (a byte is a byte); the interesting part — the
bijective mappings M and M2 between shader floats in [0, 1] and byte
values — lives in the shader and is mirrored here in numpy for
validation (:func:`shader_unpack_uchar` etc. compute exactly what the
generated GLSL computes).
"""

from __future__ import annotations

import numpy as np

from .delta import BYTE_MAX, reconstruct_byte

# ----------------------------------------------------------------------
# Host side: value array <-> texel bytes (identity layout)
# ----------------------------------------------------------------------
def pack_uchar(values: np.ndarray) -> np.ndarray:
    """uint8 host array -> (N, 4) RGBA texel bytes (value in R)."""
    values = np.asarray(values, dtype=np.uint8).reshape(-1)
    texels = np.zeros((values.shape[0], 4), dtype=np.uint8)
    texels[:, 0] = values
    texels[:, 3] = 255
    return texels


def unpack_uchar(texels: np.ndarray) -> np.ndarray:
    """(N, 4) RGBA texel bytes -> uint8 host array."""
    return np.asarray(texels, dtype=np.uint8).reshape(-1, 4)[:, 0].copy()


def pack_schar(values: np.ndarray) -> np.ndarray:
    """int8 host array -> RGBA texels (two's-complement byte in R)."""
    return pack_uchar(np.asarray(values, dtype=np.int8).view(np.uint8))


def unpack_schar(texels: np.ndarray) -> np.ndarray:
    """RGBA texels -> int8 host array."""
    return unpack_uchar(texels).view(np.int8)


# ----------------------------------------------------------------------
# Shader side (mirrored in numpy): M and M2 of §IV-A / §IV-B
# ----------------------------------------------------------------------
def shader_unpack_uchar(f: np.ndarray) -> np.ndarray:
    """M: [0,1] -> [0,255].  Eq. (4) in rounding form."""
    return reconstruct_byte(f)


def shader_pack_uchar(b: np.ndarray) -> np.ndarray:
    """M^-1: byte value -> [0,1] fragment output (eq. (5)).

    The emitted float is exactly b/255, which the framebuffer's
    eq. (2) conversion maps back to b.
    """
    return np.asarray(b, dtype=np.float64) / BYTE_MAX


def shader_unpack_schar(f: np.ndarray) -> np.ndarray:
    """M2: [0,1] -> [-128, 127] via the two's-complement split."""
    b = reconstruct_byte(f)
    return np.where(b < 128, b, b - 256)


def shader_pack_schar(v: np.ndarray) -> np.ndarray:
    """M2^-1: signed value -> [0,1] fragment output."""
    v = np.asarray(v, dtype=np.float64)
    unsigned = np.where(v < 0, v + 256.0, v)
    return unsigned / BYTE_MAX
