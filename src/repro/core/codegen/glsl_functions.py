"""GLSL ES 1.00 source for the §IV transformations and the §III
addressing helpers.

These strings are compiled by the real shader front end
(:mod:`repro.glsl`) — nothing here is pseudocode.  Each function has a
numpy mirror in :mod:`repro.core.numerics` that the tests compare
against bit-for-bit.

Reserved-operator note: GLSL ES 1.00 has no integer ``%``/``>>``/``&``
(§II-B), so every byte manipulation below is expressed with ``floor``
and ``mod`` on floats — this is the technique that makes the paper's
transformations possible at all on these devices.
"""

from __future__ import annotations

#: Challenge (3)/(4): 1-D array index <-> normalised 2-D texture
#: coordinates, after Lefohn et al. / Purcell et al., adapted to
#: normalised-only coordinates.
#:
#: Contract note: the exact shape of ``gpgpu_index_to_coord`` —
#: ``mod``/``floor`` of the flat index by ``size.x``, texel-centre
#: ``+ 0.5``, divide by ``size`` — is load-bearing beyond correctness.
#: The IR-level gather annotation (:mod:`repro.glsl.ir.gather`)
#: pattern-matches this chain to prove sample coordinates address
#: texel centres.  So is the shape of the byte decode in
#: ``COMMON_GLSL`` — ``floor(texel * 255.0 + vec4(0.5))`` and
#: ``floor(channel * 255.0 + 0.5)`` applied to ``texel.r``, reading the
#: sample directly: the same pass matches it, and the JIT then turns
#: coordinates, sample and decode into one read of the stored bytes.
#: Rephrasing either (hoisting the divide, fusing the +0.5, scaling by
#: 1/255, decoding a copy of the texel) keeps kernels correct but
#: silently loses that fast path — ``tests/test_texture_gather.py``
#: pins the fused read on every kernel family and format.
ADDRESSING_GLSL = """
vec2 gpgpu_index_to_coord(float index, vec2 size) {
    float x = mod(index, size.x);
    float y = floor(index / size.x);
    return (vec2(x, y) + 0.5) / size;
}

float gpgpu_coord_to_index(vec2 coord, vec2 size) {
    vec2 p = floor(coord * size);
    return p.y * size.x + p.x;
}
"""

#: Shared byte reconstruction: eq. (4) in rounding form.
COMMON_GLSL = """
float gpgpu_byte(float channel) {
    return floor(channel * 255.0 + 0.5);
}

vec4 gpgpu_bytes(vec4 texel) {
    return floor(texel * 255.0 + vec4(0.5));
}
"""

UCHAR_GLSL = """
float gpgpu_unpack_uchar(vec4 texel) {
    return gpgpu_byte(texel.r);
}

vec4 gpgpu_pack_uchar(float value) {
    float b = mod(floor(value + 0.5), 256.0);
    return vec4(b / 255.0, 0.0, 0.0, 1.0);
}
"""

SCHAR_GLSL = """
float gpgpu_unpack_schar(vec4 texel) {
    float b = gpgpu_byte(texel.r);
    return b < 128.0 ? b : b - 256.0;
}

vec4 gpgpu_pack_schar(float value) {
    float v = floor(value + 0.5);
    float u = v < 0.0 ? v + 256.0 : v;
    return vec4(mod(u, 256.0) / 255.0, 0.0, 0.0, 1.0);
}
"""

UINT_GLSL = """
float gpgpu_unpack_uint(vec4 texel) {
    vec4 b = gpgpu_bytes(texel);
    return b.r + b.g * 256.0 + b.b * 65536.0 + b.a * 16777216.0;
}

vec4 gpgpu_pack_uint(float value) {
    float v = floor(value + 0.5);
    vec4 b;
    b.r = mod(v, 256.0);
    b.g = mod(floor(v / 256.0), 256.0);
    b.b = mod(floor(v / 65536.0), 256.0);
    b.a = mod(floor(v / 16777216.0), 256.0);
    return b / 255.0;
}
"""

INT_GLSL = """
float gpgpu_unpack_int(vec4 texel) {
    vec4 b = gpgpu_bytes(texel);
    float low = b.r + b.g * 256.0 + b.b * 65536.0;
    float hi = b.a < 128.0 ? b.a : b.a - 256.0;
    return low + hi * 16777216.0;
}

vec4 gpgpu_pack_int(float value) {
    float v = floor(value + 0.5);
    float low = v < 0.0 ? v + 16777216.0 : v;
    vec4 b;
    b.r = mod(low, 256.0);
    b.g = mod(floor(low / 256.0), 256.0);
    b.b = mod(floor(low / 65536.0), 256.0);
    b.a = v < 0.0 ? 255.0 : mod(floor(v / 16777216.0), 256.0);
    return b / 255.0;
}
"""

FLOAT_GLSL = """
float gpgpu_unpack_float32(vec4 texel) {
    vec4 b = gpgpu_bytes(texel);
    float sign_ = b.b >= 128.0 ? -1.0 : 1.0;
    float mhi = b.b >= 128.0 ? b.b - 128.0 : b.b;
    float mant = b.r + b.g * 256.0 + mhi * 65536.0;
    if (b.a == 0.0) {
        return 0.0;
    }
    if (b.a == 255.0) {
        return mant == 0.0 ? sign_ / 0.0 : 0.0 / 0.0;
    }
    return sign_ * (1.0 + mant / 8388608.0) * exp2(b.a - 127.0);
}

vec4 gpgpu_pack_float32(float value) {
    if (value == 0.0) {
        return vec4(0.0);
    }
    if (value != value) {
        // NaN: quiet-NaN pattern (exponent 255, mantissa bit 22 set).
        return vec4(0.0, 0.0, 64.0, 255.0) / 255.0;
    }
    float sign_ = value < 0.0 ? 1.0 : 0.0;
    float a = abs(value);
    if (a > 3.4028235e38) {
        // Infinity: exponent 255, zero mantissa, sign in byte 2.
        return vec4(0.0, 0.0, sign_ * 128.0, 255.0) / 255.0;
    }
    float e = floor(log2(a));
    float p = a * exp2(-e);
    if (p >= 2.0) {
        e += 1.0;
        p *= 0.5;
    }
    if (p < 1.0) {
        e -= 1.0;
        p *= 2.0;
    }
    float mant = floor((p - 1.0) * 8388608.0 + 0.5);
    if (mant >= 8388608.0) {
        e += 1.0;
        mant = 0.0;
    }
    e = clamp(e, -126.0, 128.0);
    vec4 b;
    b.r = mod(mant, 256.0);
    b.g = mod(floor(mant / 256.0), 256.0);
    b.b = mod(floor(mant / 65536.0), 128.0) + sign_ * 128.0;
    b.a = e + 127.0;
    return b / 255.0;
}
"""

UINT16_GLSL = """
float gpgpu_unpack_uint16(vec4 texel) {
    vec4 b = gpgpu_bytes(texel);
    return b.r + b.g * 256.0;
}

vec4 gpgpu_pack_uint16(float value) {
    float v = floor(value + 0.5);
    return vec4(mod(v, 256.0), mod(floor(v / 256.0), 256.0), 0.0, 255.0)
        / 255.0;
}
"""

INT16_GLSL = """
float gpgpu_unpack_int16(vec4 texel) {
    vec4 b = gpgpu_bytes(texel);
    float hi = b.g < 128.0 ? b.g : b.g - 256.0;
    return b.r + hi * 256.0;
}

vec4 gpgpu_pack_int16(float value) {
    float v = floor(value + 0.5);
    float w = v < 0.0 ? v + 65536.0 : v;
    return vec4(mod(w, 256.0), mod(floor(w / 256.0), 256.0), 0.0, 255.0)
        / 255.0;
}
"""

HALF_GLSL = """
float gpgpu_unpack_half(vec4 texel) {
    vec4 b = gpgpu_bytes(texel);
    float sign_ = b.g >= 128.0 ? -1.0 : 1.0;
    float rest = b.g >= 128.0 ? b.g - 128.0 : b.g;
    float e = floor(rest / 4.0);
    float mant = (rest - e * 4.0) * 256.0 + b.r;
    if (e == 0.0) {
        return sign_ * mant * exp2(-24.0);
    }
    if (e == 31.0) {
        return mant == 0.0 ? sign_ / 0.0 : 0.0 / 0.0;
    }
    return sign_ * (1.0 + mant / 1024.0) * exp2(e - 15.0);
}

vec4 gpgpu_pack_half(float value) {
    // One exit, no early returns: a return under divergent control
    // flow keeps a function off the JIT (see repro.glsl.jit).
    vec4 texel;
    float sign_ = value < 0.0 ? 1.0 : 0.0;
    float a = abs(value);
    if (value == 0.0) {
        texel = vec4(0.0, 0.0, 0.0, 1.0);
    } else if (value != value) {
        texel = vec4(0.0, 126.0, 0.0, 255.0) / 255.0;  // quiet NaN
    } else if (a > 65504.0) {
        texel = vec4(0.0, sign_ * 128.0 + 124.0, 0.0, 255.0) / 255.0;
    } else {
        float e = floor(log2(a));
        float p = a * exp2(-e);
        if (p >= 2.0) {
            e += 1.0;
            p *= 0.5;
        }
        if (p < 1.0) {
            e -= 1.0;
            p *= 2.0;
        }
        float mant = floor((p - 1.0) * 1024.0 + 0.5);
        if (mant >= 1024.0) {
            e += 1.0;
            mant = 0.0;
        }
        float biased = e + 15.0;
        if (e < -14.0) {
            mant = floor(a * exp2(24.0) + 0.5);
            biased = 0.0;
            if (mant >= 1024.0) {
                biased = 1.0;
                mant = 0.0;
            }
        }
        float high = sign_ * 128.0 + biased * 4.0 + floor(mant / 256.0);
        texel = vec4(mod(mant, 256.0), high, 0.0, 255.0) / 255.0;
    }
    return texel;
}
"""

#: GLSL function-group source keyed by format name.
FORMAT_GLSL = {
    "uint8": UCHAR_GLSL,
    "int8": SCHAR_GLSL,
    "uint16": UINT16_GLSL,
    "int16": INT16_GLSL,
    "uint32": UINT_GLSL,
    "int32": INT_GLSL,
    "float16": HALF_GLSL,
    "float32": FLOAT_GLSL,
}


def functions_for(format_names) -> str:
    """Assemble the GLSL helper block needed for a set of formats
    (common byte helpers + addressing + each format's pack/unpack)."""
    parts = [COMMON_GLSL, ADDRESSING_GLSL]
    seen = set()
    for name in format_names:
        if name not in seen:
            parts.append(FORMAT_GLSL[name])
            seen.add(name)
    return "\n".join(parts)
