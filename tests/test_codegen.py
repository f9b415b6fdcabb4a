"""Code-generation tests: every GLSL snippet compiles through the real
front end and matches its numpy mirror when executed."""

import numpy as np
import pytest

from repro.core.codegen import (
    COPY_FRAGMENT_SHADER,
    FULLSCREEN_QUAD_VERTICES,
    PASSTHROUGH_VERTEX_SHADER,
    count_outputs,
    functions_for,
    generate_kernel_source,
    split_multi_output,
)
from repro.core.numerics import FORMATS, texel_to_float
from repro.glsl import ShaderStage, compile_shader
from repro.glsl.ir import IRExecutor
from repro.glsl.types import FLOAT, VEC4
from repro.glsl.values import Value


class TestStaticSources:
    def test_passthrough_vertex_compiles(self):
        checked = compile_shader(PASSTHROUGH_VERTEX_SHADER, ShaderStage.VERTEX)
        assert {a.name for a in checked.active_attributes()} == {"a_position"}
        assert "gl_Position" in checked.written_builtins

    def test_copy_fragment_compiles(self):
        checked = compile_shader(COPY_FRAGMENT_SHADER, ShaderStage.FRAGMENT)
        assert checked.has_main

    def test_quad_is_two_ccw_triangles(self):
        quad = FULLSCREEN_QUAD_VERTICES
        assert quad.shape == (6, 2)
        for tri in (quad[:3], quad[3:]):
            v0, v1, v2 = tri
            cross = (v1[0] - v0[0]) * (v2[1] - v0[1]) - (v1[1] - v0[1]) * (
                v2[0] - v0[0]
            )
            assert cross > 0  # counter-clockwise

    def test_quad_covers_ndc(self):
        quad = FULLSCREEN_QUAD_VERTICES
        assert quad.min() == -1.0 and quad.max() == 1.0


def run_format_function(glsl_name, texels_or_values, direction, fmt_name):
    """Execute one generated pack/unpack GLSL function over a batch."""
    helpers = functions_for([fmt_name])
    if direction == "unpack":
        source = f"""
        precision highp float;
        varying vec4 v_in;
        {helpers}
        void main() {{
            gl_FragColor = vec4({glsl_name}(v_in), 0.0, 0.0, 1.0);
        }}
        """
        preset_type, preset = VEC4, np.asarray(texels_or_values, dtype=np.float64)
    else:
        source = f"""
        precision highp float;
        varying float v_in;
        {helpers}
        void main() {{
            gl_FragColor = {glsl_name}(v_in);
        }}
        """
        preset_type, preset = FLOAT, np.asarray(texels_or_values, dtype=np.float64)
    checked = compile_shader(source, ShaderStage.FRAGMENT)
    interp = IRExecutor(checked)
    env = interp.execute(
        preset.shape[0], {"v_in": Value(preset_type, preset)}
    )
    data = env["gl_FragColor"].data
    if direction == "unpack":
        return data[:, 0]
    return data


class TestGlslMatchesNumpyMirror:
    """The generated GLSL and the numpy mirrors in core.numerics must
    compute identical results — this is what makes the mirrors valid
    stand-ins in the precision analysis."""

    def batch_for(self, fmt):
        rng = np.random.default_rng(17)
        if fmt.name == "float16":
            values = np.concatenate([
                rng.standard_normal(200) * 100.0,
                [1.0, -1.0, 0.5, 2.0, 60000.0, -6e-5],
            ]).astype(np.float16)
        elif fmt.name == "float32":
            values = np.concatenate([
                (rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200)),
                [1.0, -1.0, 0.5, 2.0, 1e10, -1e-10],
            ]).astype(np.float32)
        elif fmt.limited_to_24_bits:
            lo = -(2**23) if fmt.dtype.kind == "i" else 0
            values = rng.integers(lo, 2**23, 200).astype(fmt.dtype)
        else:
            info = np.iinfo(fmt.dtype)
            values = rng.integers(info.min, info.max + 1, 200).astype(fmt.dtype)
        return values

    @pytest.mark.parametrize("name", list(FORMATS))
    def test_unpack_glsl_equals_mirror(self, name):
        fmt = FORMATS[name]
        values = self.batch_for(fmt)
        texels = texel_to_float(fmt.host_pack(values))
        glsl_result = run_format_function(
            fmt.glsl_unpack_name, texels, "unpack", name
        )
        mirror_result = fmt.shader_unpack(texels)
        assert np.allclose(glsl_result, mirror_result, rtol=0, atol=0)

    @pytest.mark.parametrize("name", list(FORMATS))
    def test_pack_glsl_equals_mirror(self, name):
        fmt = FORMATS[name]
        values = self.batch_for(fmt)
        unpacked = fmt.shader_unpack(texel_to_float(fmt.host_pack(values)))
        glsl_result = run_format_function(
            fmt.glsl_pack_name, unpacked, "pack", name
        )
        mirror_result = fmt.shader_pack(unpacked)
        assert np.allclose(glsl_result, mirror_result, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", list(FORMATS))
    def test_full_shader_roundtrip(self, name):
        """texels -> GLSL unpack -> GLSL pack -> eq.(2) -> bytes ==
        original bytes."""
        fmt = FORMATS[name]
        values = self.batch_for(fmt)
        texel_bytes = fmt.host_pack(values)
        texels = texel_to_float(texel_bytes)
        unpacked = run_format_function(fmt.glsl_unpack_name, texels, "unpack", name)
        packed = run_format_function(fmt.glsl_pack_name, unpacked, "pack", name)
        out_bytes = np.floor(np.clip(packed, 0, 1) * 255 + 0.5).astype(np.uint8)
        recovered = fmt.host_unpack(out_bytes)
        assert np.array_equal(recovered, values)


class TestAddressingGlsl:
    def test_index_coord_roundtrip_in_shader(self):
        helpers = functions_for([])
        source = f"""
        precision highp float;
        varying float v_index;
        {helpers}
        void main() {{
            vec2 size = vec2(16.0, 8.0);
            vec2 coord = gpgpu_index_to_coord(v_index, size);
            float back = gpgpu_coord_to_index(coord, size);
            gl_FragColor = vec4(back, coord, 1.0);
        }}
        """
        checked = compile_shader(source, ShaderStage.FRAGMENT)
        interp = IRExecutor(checked)
        indices = np.arange(128, dtype=np.float64)
        env = interp.execute(128, {"v_index": Value(FLOAT, indices)})
        back = env["gl_FragColor"].data[:, 0]
        assert np.array_equal(back, indices)

    def test_coords_are_normalised_texel_centers(self):
        helpers = functions_for([])
        source = f"""
        precision highp float;
        {helpers}
        void main() {{
            vec2 coord = gpgpu_index_to_coord(5.0, vec2(4.0, 4.0));
            gl_FragColor = vec4(coord, 0.0, 1.0);
        }}
        """
        checked = compile_shader(source, ShaderStage.FRAGMENT)
        env = IRExecutor(checked).execute(1, {})
        # index 5 in a 4-wide texture -> texel (1, 1) -> center (1.5/4, 1.5/4)
        assert env["gl_FragColor"].data[0, 0] == pytest.approx(1.5 / 4)
        assert env["gl_FragColor"].data[0, 1] == pytest.approx(1.5 / 4)


class TestKernelSourceGeneration:
    def test_map_kernel_fetches_inputs(self):
        source = generate_kernel_source(
            "k", [("a", "int32"), ("b", "int32")], "int32", "result = a + b;"
        )
        assert "float a = fetch_a(gpgpu_index);" in source.fragment
        assert "float b = fetch_b(gpgpu_index);" in source.fragment
        compile_shader(source.fragment, ShaderStage.FRAGMENT)

    def test_gather_kernel_no_prefetch(self):
        source = generate_kernel_source(
            "k", [("a", "int32")], "int32",
            "result = fetch_a(0.0);", mode="gather",
        )
        assert "float a = fetch_a" not in source.fragment
        compile_shader(source.fragment, ShaderStage.FRAGMENT)

    def test_helpers_deduplicated(self):
        source = generate_kernel_source(
            "k", [("a", "int32"), ("b", "int32")], "int32", "result = a + b;"
        )
        assert source.fragment.count("float gpgpu_unpack_int(") == 1

    def test_uniform_declarations(self):
        source = generate_kernel_source(
            "k", [("a", "float32")], "float32", "result = a * u_k;",
            uniforms=[("u_k", "float"), ("u_m", "mat2")],
        )
        assert "uniform float u_k;" in source.fragment
        assert "uniform mat2 u_m;" in source.fragment


class TestKernelSplit:
    def test_count_outputs(self):
        assert count_outputs("result0 = 1.0; result1 = 2.0;") == 2
        assert count_outputs("float x = 1.0;") == 0

    def test_sparse_outputs_rejected(self):
        with pytest.raises(ValueError, match="dense"):
            count_outputs("result0 = 1.0; result2 = 2.0;")

    def test_split_generates_one_source_per_output(self):
        sources = split_multi_output(
            "k", [("a", "int32")], ["int32", "int32"],
            "result0 = a;\nresult1 = a * 2.0;",
        )
        assert len(sources) == 2
        for source in sources:
            compile_shader(source.fragment, ShaderStage.FRAGMENT)

    def test_output_format_mismatch(self):
        with pytest.raises(ValueError, match="2 outputs"):
            split_multi_output(
                "k", [("a", "int32")], ["int32"],
                "result0 = a;\nresult1 = a;",
            )

    def test_no_outputs_rejected(self):
        with pytest.raises(ValueError, match="no result"):
            split_multi_output("k", [("a", "int32")], [], "float x = 1.0;")
