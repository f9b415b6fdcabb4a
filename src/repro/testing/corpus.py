"""Golden shader corpus: known programs with pinned framebuffers.

The fuzzer explores random programs; the corpus pins down the *real*
shaders the project ships — the challenge-(7) copy shader, the §IV
hand-written packing shader from ``examples/raw_gl_sum.py``,
generated GPGPU kernels (identity in every §IV format, saxpy, int
scaling), and a texture-sampling matrix covering the filter/wrap/
completeness legs of ``Texture.sample`` (NEAREST vs LINEAR
magnification, REPEAT/MIRRORED_REPEAT/CLAMP_TO_EDGE wrap, NPOT- and
mipmap-incomplete samplers, the LINEAR weight-0.5 texel-boundary
tie).  Each entry is rendered through the full four-way
differential oracle and, additionally, compared bit-exactly against a
framebuffer stored in ``tests/corpus/``; a change in any of the
lexer, parser, executors, rasteriser or quantiser that alters the
output of a known-good program is caught even when the four paths
drift together.

Golden files::

    tests/corpus/<name>.glsl       fragment shader source
    tests/corpus/<name>.expected   "W H" header + one row of RGBA8
                                   hex texels per framebuffer row
    tests/corpus/<name>.ir         optimised linear-IR dump of the
                                   fragment shader (exact float model)

The ``.ir`` dumps pin the *compiler*, not just the end result: an
unintended change anywhere in lowering or the pass pipeline (constant
folding, select conversion, frame elision, CSE, DCE) shows up as a
textual diff against the golden dump even when the rendered output
happens to stay the same.

Regenerate after an intentional behaviour change with::

    python -m repro.testing.corpus --regen
"""

from __future__ import annotations

import argparse
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.codegen.templates import (
    COPY_FRAGMENT_SHADER,
    PASSTHROUGH_VERTEX_SHADER,
    generate_kernel_source,
)
from ..gles2 import enums as gl
from .oracle import (
    STANDARD_VERTEX_SHADER,
    TextureSpec,
    draw_for_capture,
    run_differential,
)

#: All §IV numeric formats a kernel can consume or produce.
KERNEL_FORMATS = (
    "uint8", "int8", "uint16", "int16",
    "uint32", "int32", "float16", "float32",
)

_REPO_ROOT = Path(__file__).resolve().parents[3]
DEFAULT_CORPUS_DIR = _REPO_ROOT / "tests" / "corpus"


@dataclass
class CorpusEntry:
    """One pinned shader plus everything needed to render it."""

    name: str
    fragment: str
    vertex: str = STANDARD_VERTEX_SHADER
    uniforms: Dict[str, object] = field(default_factory=dict)
    #: sampler uniform -> (H, W, 4) uint8 array or TextureSpec
    textures: Dict[str, object] = field(default_factory=dict)
    size: int = 4
    quantization: str = "round"


def _texture(
    name: str, size: int = 4, lo: int = 0, hi: int = 255,
    height: Optional[int] = None,
) -> np.ndarray:
    """Deterministic RGBA8 texture derived from the entry name.

    ``size`` is the width; ``height`` defaults to ``size`` (square)."""
    h = size if height is None else height
    rng = random.Random(f"corpus:{name}")
    data = [rng.randrange(lo, hi + 1) for __ in range(size * h * 4)]
    return np.array(data, dtype=np.uint8).reshape(h, size, 4)


def _tex_matrix_fragment(coord_expr: str) -> str:
    """Minimal sampling shader for the filter/wrap matrix entries."""
    return (
        "precision highp float;\n"
        "varying vec2 v_uv;\n"
        "uniform sampler2D u_t;\n"
        "void main() {\n"
        f"    gl_FragColor = texture2D(u_t, {coord_expr});\n"
        "}\n"
    )


def _example_fragment(filename: str) -> Optional[str]:
    """Extract ``FRAGMENT_SHADER`` from an example script's source.

    Returns None when the examples directory is unavailable (e.g. an
    installed package); the corresponding entry is then skipped."""
    path = _REPO_ROOT / "examples" / filename
    if not path.is_file():
        return None
    match = re.search(
        r'^FRAGMENT_SHADER = """(.*?)"""',
        path.read_text(),
        re.MULTILINE | re.DOTALL,
    )
    return match.group(1) if match else None


def _kernel_entry(
    name: str,
    inputs: List[Tuple[str, str]],
    output_format: str,
    body: str,
    uniforms: List[Tuple[str, str]] = (),
    uniform_values: Optional[Dict[str, object]] = None,
    size: int = 4,
) -> CorpusEntry:
    source = generate_kernel_source(
        name, inputs, output_format, body, uniforms=list(uniforms)
    )
    values: Dict[str, object] = {"u_out_size": (float(size), float(size))}
    textures: Dict[str, np.ndarray] = {}
    for iname in source.input_names:
        values[source.size_uniforms[iname]] = (float(size), float(size))
        textures[source.sampler_uniforms[iname]] = _texture(
            f"{name}:{iname}", size
        )
    values.update(uniform_values or {})
    return CorpusEntry(
        name=name,
        fragment=source.fragment,
        vertex=source.vertex,
        uniforms=values,
        textures=textures,
        size=size,
    )


def build_entries() -> List[CorpusEntry]:
    """Assemble the corpus.  Deterministic: same entries every call."""
    entries: List[CorpusEntry] = []

    # Challenge (7) readback path: texture -> framebuffer copy.
    entries.append(
        CorpusEntry(
            name="copy",
            fragment=COPY_FRAGMENT_SHADER,
            vertex=PASSTHROUGH_VERTEX_SHADER,
            textures={"u_source": _texture("copy:u_source")},
        )
    )

    # The hand-written §IV int32 packing shader from the raw-GL example.
    # Texel bytes are kept small so a+b stays far from int32 overflow.
    raw_sum = _example_fragment("raw_gl_sum.py")
    if raw_sum is not None:
        entries.append(
            CorpusEntry(
                name="raw_gl_sum",
                fragment=raw_sum,
                vertex=PASSTHROUGH_VERTEX_SHADER,
                textures={
                    "u_a": _texture("raw_gl_sum:u_a", hi=100),
                    "u_b": _texture("raw_gl_sum:u_b", hi=100),
                },
            )
        )

    # Identity kernel in every §IV format: unpack(pack) round-trips
    # through the full generated fetch/pack machinery.
    for fmt in KERNEL_FORMATS:
        entries.append(
            _kernel_entry(
                f"identity_{fmt}", [("x", fmt)], fmt, "result = x;"
            )
        )

    # Two small arithmetic kernels.
    entries.append(
        _kernel_entry(
            "saxpy",
            [("x", "float32"), ("y", "float32")],
            "float32",
            "result = u_alpha * x + y;",
            uniforms=[("u_alpha", "float")],
            uniform_values={"u_alpha": 1.5},
        )
    )
    entries.append(
        _kernel_entry(
            "scale_int32", [("x", "int32")], "int32", "result = x * 3.0;"
        )
    )

    # ------------------------------------------------------------------
    # Texture-sampling matrix: filter x wrap x completeness.  Each entry
    # pins one leg of the Texture.sample decision tree — the same code
    # all five oracle paths (and the JIT's gather-disqualification
    # fallback) funnel through.
    # ------------------------------------------------------------------
    # NEAREST mag + CLAMP_TO_EDGE on coordinates straddling [0,1]: the
    # exact configuration the JIT gather fast path requires.
    entries.append(
        CorpusEntry(
            name="tex_nearest_clamp",
            fragment=_tex_matrix_fragment("v_uv * 2.0 - 0.5"),
            textures={
                "u_t": TextureSpec(data=_texture("tex_nearest_clamp:u_t")),
            },
        )
    )
    # LINEAR magnification: bilinear blend of a 2x2 footprint.
    entries.append(
        CorpusEntry(
            name="tex_linear_mag",
            fragment=_tex_matrix_fragment("v_uv"),
            textures={
                "u_t": TextureSpec(
                    data=_texture("tex_linear_mag:u_t"),
                    min_filter=gl.GL_LINEAR,
                    mag_filter=gl.GL_LINEAR,
                ),
            },
        )
    )
    # LINEAR at an exact texel boundary: fx == fy == 0.5, the blend
    # weights tie and all four texels contribute a quarter each.
    entries.append(
        CorpusEntry(
            name="tex_linear_boundary",
            fragment=_tex_matrix_fragment("vec2(0.5, 0.5)"),
            textures={
                "u_t": TextureSpec(
                    data=_texture("tex_linear_boundary:u_t"),
                    min_filter=gl.GL_LINEAR,
                    mag_filter=gl.GL_LINEAR,
                ),
            },
        )
    )
    # REPEAT and MIRRORED_REPEAT wrap arithmetic on out-of-range
    # coordinates (v_uv * 3 - 1 spans [-0.625, 1.625] at 4x4).
    entries.append(
        CorpusEntry(
            name="tex_wrap_repeat",
            fragment=_tex_matrix_fragment("v_uv * 3.0 - 1.0"),
            textures={
                "u_t": TextureSpec(
                    data=_texture("tex_wrap_repeat:u_t"),
                    wrap_s=gl.GL_REPEAT,
                    wrap_t=gl.GL_REPEAT,
                ),
            },
        )
    )
    entries.append(
        CorpusEntry(
            name="tex_wrap_mirror",
            fragment=_tex_matrix_fragment("v_uv * 3.0 - 1.0"),
            textures={
                "u_t": TextureSpec(
                    data=_texture("tex_wrap_mirror:u_t"),
                    wrap_s=gl.GL_MIRRORED_REPEAT,
                    wrap_t=gl.GL_MIRRORED_REPEAT,
                ),
            },
        )
    )
    # Incompleteness legs: both must sample as opaque black (0,0,0,1).
    # NPOT dimensions with a non-CLAMP wrap (ES 2 §3.8.2)...
    entries.append(
        CorpusEntry(
            name="tex_npot_incomplete",
            fragment=_tex_matrix_fragment("v_uv"),
            textures={
                "u_t": TextureSpec(
                    data=_texture("tex_npot_incomplete:u_t", size=5, height=3),
                    wrap_s=gl.GL_REPEAT,
                    wrap_t=gl.GL_REPEAT,
                ),
            },
        )
    )
    # ...and the default GL_NEAREST_MIPMAP_LINEAR min filter with no
    # mipmap chain uploaded (min_filter=None keeps the GL default).
    entries.append(
        CorpusEntry(
            name="tex_mipmap_incomplete",
            fragment=_tex_matrix_fragment("v_uv"),
            textures={
                "u_t": TextureSpec(
                    data=_texture("tex_mipmap_incomplete:u_t"),
                    min_filter=None,
                ),
            },
        )
    )
    return entries


# ----------------------------------------------------------------------
# Golden-file serialisation
# ----------------------------------------------------------------------
def format_framebuffer(framebuffer: np.ndarray) -> str:
    """Text form: 'W H' header, then one row of hex RGBA8 per line
    (row 0 first, i.e. the bottom scanline in GL convention)."""
    h, w, __ = framebuffer.shape
    lines = [f"{w} {h}"]
    for y in range(h):
        lines.append(
            " ".join(
                "".join(f"{int(b):02x}" for b in framebuffer[y, x])
                for x in range(w)
            )
        )
    return "\n".join(lines) + "\n"


def parse_framebuffer(text: str) -> np.ndarray:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    w, h = (int(tok) for tok in lines[0].split())
    out = np.zeros((h, w, 4), dtype=np.uint8)
    for y, line in enumerate(lines[1 : 1 + h]):
        for x, texel in enumerate(line.split()):
            out[y, x] = [int(texel[i : i + 2], 16) for i in (0, 2, 4, 6)]
    return out


def render_entry(entry: CorpusEntry) -> np.ndarray:
    """Render one entry through the pipeline and return its RGBA8
    framebuffer."""
    framebuffer, __ = draw_for_capture(
        entry.fragment,
        size=entry.size,
        quantization=entry.quantization,
        uniforms=entry.uniforms,
        textures=entry.textures,
        vertex_source=entry.vertex,
    )
    return framebuffer


def ir_dump_text(entry: CorpusEntry) -> str:
    """Compile the entry's fragment shader to optimised linear IR and
    return the deterministic textual dump (exact float model, the
    compile default, so dumps are independent of device precision)."""
    from ..glsl.interp import compile_shader
    from ..glsl.ir import compile_ir, dump_ir

    checked = compile_shader(entry.fragment, "fragment")
    return dump_ir(compile_ir(checked))


def check_entry(entry: CorpusEntry):
    """Run one entry through the four-way differential oracle."""
    return run_differential(
        entry.fragment,
        size=entry.size,
        quantization=entry.quantization,
        uniforms=entry.uniforms,
        textures=entry.textures,
        vertex_source=entry.vertex,
    )


def regenerate(corpus_dir: Path = DEFAULT_CORPUS_DIR) -> List[str]:
    """(Re)write all golden files.  Returns the entry names written."""
    corpus_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in build_entries():
        (corpus_dir / f"{entry.name}.glsl").write_text(entry.fragment)
        (corpus_dir / f"{entry.name}.expected").write_text(
            format_framebuffer(render_entry(entry))
        )
        (corpus_dir / f"{entry.name}.ir").write_text(ir_dump_text(entry))
        written.append(entry.name)
    return written


def verify(corpus_dir: Path = DEFAULT_CORPUS_DIR) -> List[str]:
    """Compare every entry against its golden files; returns a list of
    human-readable failure descriptions (empty = all good)."""
    failures: List[str] = []
    for entry in build_entries():
        glsl_path = corpus_dir / f"{entry.name}.glsl"
        expected_path = corpus_dir / f"{entry.name}.expected"
        if not glsl_path.is_file() or not expected_path.is_file():
            failures.append(f"{entry.name}: golden files missing "
                            f"(run --regen)")
            continue
        if glsl_path.read_text() != entry.fragment:
            failures.append(
                f"{entry.name}: stored source differs from the entry "
                f"builder (run --regen if intentional)"
            )
            continue
        ir_path = corpus_dir / f"{entry.name}.ir"
        if not ir_path.is_file():
            failures.append(f"{entry.name}: golden IR dump missing "
                            f"(run --regen)")
            continue
        if ir_path.read_text() != ir_dump_text(entry):
            failures.append(
                f"{entry.name}: compiled IR differs from golden dump "
                f"(run --regen if intentional)"
            )
            continue
        result = check_entry(entry)
        if not result.ok:
            failures.append(f"{entry.name}: differential oracle failed:\n"
                            + result.describe())
            continue
        expected = parse_framebuffer(expected_path.read_text())
        if not np.array_equal(result.framebuffer, expected):
            failures.append(
                f"{entry.name}: framebuffer differs from golden "
                f"(run --regen if intentional)"
            )
    return failures


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.corpus",
        description="Verify or regenerate the golden shader corpus.",
    )
    parser.add_argument("--regen", action="store_true",
                        help="rewrite tests/corpus/ golden files")
    parser.add_argument("--dir", type=Path, default=DEFAULT_CORPUS_DIR,
                        help="corpus directory")
    args = parser.parse_args(argv)
    if args.regen:
        for name in regenerate(args.dir):
            print(f"wrote {name}")
        return 0
    failures = verify(args.dir)
    for failure in failures:
        print(failure)
    if failures:
        print(f"FAIL: {len(failures)} corpus entr"
              f"{'y' if len(failures) == 1 else 'ies'} diverged")
        return 1
    print(f"ok: {len(build_entries())} corpus entries verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
