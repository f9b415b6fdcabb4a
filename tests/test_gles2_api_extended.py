"""Tests for the extended GL API surface: predicates, active-variable
queries, validation, glCopyTexImage2D, pixel store, generic attribs,
and line rasterisation."""

import numpy as np
import pytest

from repro.gles2 import GLES2Context, GLError, enums as gl

VS = """
attribute vec2 a_position;
attribute float a_extra;
varying vec2 v_uv;
void main() {
    v_uv = a_position * 0.5 + 0.5 + vec2(a_extra * 0.0);
    gl_Position = vec4(a_position, 0.0, 1.0);
}
"""

FS = """
precision mediump float;
varying vec2 v_uv;
uniform float u_scale;
uniform vec3 u_color[2];
uniform sampler2D u_tex;
void main() {
    gl_FragColor = vec4(u_color[0] + u_color[1], u_scale)
        + texture2D(u_tex, v_uv) * 0.0;
}
"""


@pytest.fixture
def ctx():
    return GLES2Context(width=8, height=8)


def build(ctx, vs_source=VS, fs_source=FS):
    vs = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
    ctx.glShaderSource(vs, vs_source)
    ctx.glCompileShader(vs)
    fs = ctx.glCreateShader(gl.GL_FRAGMENT_SHADER)
    ctx.glShaderSource(fs, fs_source)
    ctx.glCompileShader(fs)
    prog = ctx.glCreateProgram()
    ctx.glAttachShader(prog, vs)
    ctx.glAttachShader(prog, fs)
    ctx.glLinkProgram(prog)
    assert ctx.glGetProgramiv(prog, gl.GL_LINK_STATUS), \
        ctx.glGetProgramInfoLog(prog)
    return prog


class TestPredicates:
    def test_is_texture(self, ctx):
        (tex,) = ctx.glGenTextures(1)
        assert ctx.glIsTexture(tex)
        assert not ctx.glIsTexture(tex + 100)
        ctx.glDeleteTextures([tex])
        assert not ctx.glIsTexture(tex)

    def test_is_buffer(self, ctx):
        (buf,) = ctx.glGenBuffers(1)
        assert ctx.glIsBuffer(buf)
        ctx.glDeleteBuffers([buf])
        assert not ctx.glIsBuffer(buf)

    def test_is_shader_and_program(self, ctx):
        sh = ctx.glCreateShader(gl.GL_VERTEX_SHADER)
        prog = ctx.glCreateProgram()
        assert ctx.glIsShader(sh)
        assert ctx.glIsProgram(prog)
        assert not ctx.glIsShader(prog + sh + 50)

    def test_is_framebuffer(self, ctx):
        (fbo,) = ctx.glGenFramebuffers(1)
        assert ctx.glIsFramebuffer(fbo)


class TestValidateProgram:
    def test_validate_after_link(self, ctx):
        prog = build(ctx)
        assert ctx.glGetProgramiv(prog, gl.GL_VALIDATE_STATUS) == gl.GL_FALSE
        ctx.glValidateProgram(prog)
        assert ctx.glGetProgramiv(prog, gl.GL_VALIDATE_STATUS) == gl.GL_TRUE

    def test_validate_unknown_program(self, ctx):
        with pytest.raises(GLError):
            ctx.glValidateProgram(12345)


class TestActiveVariableQueries:
    def test_active_uniform_enumeration(self, ctx):
        prog = build(ctx)
        count = ctx.glGetProgramiv(prog, gl.GL_ACTIVE_UNIFORMS)
        entries = [ctx.glGetActiveUniform(prog, i) for i in range(count)]
        names = {name for name, __, __ in entries}
        assert names == {"u_scale", "u_color[0]", "u_tex"}
        by_name = {name: (size, type_) for name, size, type_ in entries}
        assert by_name["u_scale"] == (1, gl.GL_FLOAT)
        assert by_name["u_color[0]"] == (2, gl.GL_FLOAT_VEC3)
        assert by_name["u_tex"] == (1, gl.GL_SAMPLER_2D)

    def test_active_uniform_bad_index(self, ctx):
        prog = build(ctx)
        with pytest.raises(GLError):
            ctx.glGetActiveUniform(prog, 99)

    def test_active_attrib_enumeration(self, ctx):
        prog = build(ctx)
        count = ctx.glGetProgramiv(prog, gl.GL_ACTIVE_ATTRIBUTES)
        entries = [ctx.glGetActiveAttrib(prog, i) for i in range(count)]
        by_name = {name: type_ for name, __, type_ in entries}
        assert by_name == {
            "a_position": gl.GL_FLOAT_VEC2,
            "a_extra": gl.GL_FLOAT,
        }

    def test_get_uniformfv_roundtrip(self, ctx):
        prog = build(ctx)
        ctx.glUseProgram(prog)
        loc = ctx.glGetUniformLocation(prog, "u_scale")
        ctx.glUniform1f(loc, 0.75)
        assert ctx.glGetUniformfv(prog, loc)[0] == 0.75

    def test_get_uniformfv_vector_element(self, ctx):
        prog = build(ctx)
        ctx.glUseProgram(prog)
        base = ctx.glGetUniformLocation(prog, "u_color")
        ctx.glUniform3fv(base, 2, [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
        assert list(ctx.glGetUniformfv(prog, base + 1)) == pytest.approx(
            [0.4, 0.5, 0.6]
        )


class TestPixelStore:
    def test_valid_alignments(self, ctx):
        for value in (1, 2, 4, 8):
            ctx.glPixelStorei(gl.GL_UNPACK_ALIGNMENT, value)

    def test_invalid_alignment(self, ctx):
        with pytest.raises(GLError):
            ctx.glPixelStorei(gl.GL_UNPACK_ALIGNMENT, 3)

    def test_invalid_pname(self, ctx):
        with pytest.raises(GLError):
            ctx.glPixelStorei(0x9999, 4)


class TestGenericAttribs:
    def test_vertex_attrib_shorthand_fill(self, ctx):
        ctx.glVertexAttrib2f(3, 5.0, 6.0)
        state = ctx._attribs[3]
        assert list(state.generic_value) == [5.0, 6.0, 0.0, 1.0]
        ctx.glVertexAttrib1f(3, 9.0)
        assert list(ctx._attribs[3].generic_value) == [9.0, 0.0, 0.0, 1.0]
        ctx.glVertexAttrib3f(3, 1.0, 2.0, 3.0)
        assert list(ctx._attribs[3].generic_value) == [1.0, 2.0, 3.0, 1.0]

    def test_disabled_attrib_uses_generic_value(self, ctx):
        """An attribute without an enabled array reads the constant."""
        prog = build(ctx)
        ctx.glUseProgram(prog)
        quad = np.array([[-1, -1], [1, -1], [1, 1], [-1, -1], [1, 1], [-1, 1]],
                        dtype=np.float32)
        pos = ctx.glGetAttribLocation(prog, "a_position")
        ctx.glEnableVertexAttribArray(pos)
        ctx.glVertexAttribPointer(pos, 2, gl.GL_FLOAT, False, 0, quad)
        extra = ctx.glGetAttribLocation(prog, "a_extra")
        ctx.glVertexAttrib1f(extra, 42.0)  # not enabled as an array
        ctx.glViewport(0, 0, 8, 8)
        ctx.glDrawArrays(gl.GL_TRIANGLES, 0, 6)  # must not raise


class TestCopyTexImage2D:
    def test_copies_framebuffer_to_texture(self, ctx):
        ctx.glClearColor(0.25, 0.5, 0.75, 1.0)
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        (tex,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        ctx.glCopyTexImage2D(gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 0, 0, 4, 4, 0)
        data = ctx._textures[tex].data
        assert data.shape == (4, 4, 4)
        assert np.all(data[:, :, 0] == 64)
        assert np.all(data[:, :, 1] == 128)

    def test_region_outside_framebuffer_zero_filled(self, ctx):
        ctx.glClearColor(1.0, 1.0, 1.0, 1.0)
        ctx.glClear(gl.GL_COLOR_BUFFER_BIT)
        (tex,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        ctx.glCopyTexImage2D(gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 6, 6, 4, 4, 0)
        data = ctx._textures[tex].data
        assert np.all(data[:2, :2, 0] == 255)  # overlapping corner
        assert np.all(data[2:, 2:, 0] == 0)  # out of bounds

    def test_requires_bound_texture(self, ctx):
        with pytest.raises(GLError):
            ctx.glCopyTexImage2D(gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 0, 0, 2, 2, 0)


class TestLineRasterisation:
    def build_line_program(self, ctx):
        vs = """
        attribute vec2 a_position;
        void main() { gl_Position = vec4(a_position, 0.0, 1.0); }
        """
        fs = "void main() { gl_FragColor = vec4(1.0); }"
        return build(ctx, vs_source=vs, fs_source=fs)

    def draw_lines(self, ctx, vertices, mode, count):
        prog = self.build_line_program(ctx)
        ctx.glUseProgram(prog)
        loc = ctx.glGetAttribLocation(prog, "a_position")
        ctx.glEnableVertexAttribArray(loc)
        ctx.glVertexAttribPointer(loc, 2, gl.GL_FLOAT, False, 0, vertices)
        ctx.glViewport(0, 0, 8, 8)
        ctx.glDrawArrays(mode, 0, count)
        return ctx.glReadPixels(0, 0, 8, 8, gl.GL_RGBA, gl.GL_UNSIGNED_BYTE)

    def test_horizontal_line(self, ctx):
        vertices = np.array([[-1, 0], [1, 0]], dtype=np.float32)
        out = self.draw_lines(ctx, vertices, gl.GL_LINES, 2)
        assert out[4, :, 0].sum() == 8 * 255  # full row lit

    def test_diagonal_line_one_fragment_per_column(self, ctx):
        vertices = np.array([[-1, -1], [1, 1]], dtype=np.float32)
        out = self.draw_lines(ctx, vertices, gl.GL_LINES, 2)
        lit = (out[:, :, 0] == 255).sum()
        assert lit == 8

    def test_line_strip(self, ctx):
        vertices = np.array([[-1, -1], [0.99, -1], [0.99, 0.99]],
                            dtype=np.float32)
        out = self.draw_lines(ctx, vertices, gl.GL_LINE_STRIP, 3)
        assert (out[:, :, 0] == 255).sum() >= 14

    def test_line_loop_closes(self, ctx):
        vertices = np.array([[-0.99, -0.99], [0.99, -0.99], [0.99, 0.99]],
                            dtype=np.float32)
        loop = self.draw_lines(ctx, vertices, gl.GL_LINE_LOOP, 3)
        ctx2 = GLES2Context(width=8, height=8)
        strip = self.draw_lines(ctx2, vertices, gl.GL_LINE_STRIP, 3)
        assert (loop[:, :, 0] == 255).sum() > (strip[:, :, 0] == 255).sum()


class TestMoreGetters:
    def test_get_tex_parameter(self, ctx):
        (tex,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        ctx.glTexParameteri(gl.GL_TEXTURE_2D, gl.GL_TEXTURE_MIN_FILTER,
                            gl.GL_NEAREST)
        assert ctx.glGetTexParameteriv(
            gl.GL_TEXTURE_2D, gl.GL_TEXTURE_MIN_FILTER
        ) == gl.GL_NEAREST

    def test_get_buffer_parameter(self, ctx):
        (buf,) = ctx.glGenBuffers(1)
        ctx.glBindBuffer(gl.GL_ARRAY_BUFFER, buf)
        ctx.glBufferData(gl.GL_ARRAY_BUFFER, 64, gl.GL_DYNAMIC_DRAW)
        assert ctx.glGetBufferParameteriv(
            gl.GL_ARRAY_BUFFER, gl.GL_BUFFER_SIZE
        ) == 64
        assert ctx.glGetBufferParameteriv(
            gl.GL_ARRAY_BUFFER, gl.GL_BUFFER_USAGE
        ) == gl.GL_DYNAMIC_DRAW

    def test_get_attached_shaders(self, ctx):
        prog = build(ctx)
        assert len(ctx.glGetAttachedShaders(prog)) == 2

    def test_get_current_vertex_attrib(self, ctx):
        ctx.glVertexAttrib3f(2, 1.0, 2.0, 3.0)
        value = ctx.glGetVertexAttribfv(2, 0x8626)
        assert list(value) == [1.0, 2.0, 3.0, 1.0]


class TestTexSubImage2D:
    """glTexSubImage2D validation (ES 2 §3.7.2) and in-place writes."""

    def _texture(self, ctx, fmt=gl.GL_RGBA, components=4):
        (tex,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        ctx.glTexImage2D(gl.GL_TEXTURE_2D, 0, fmt, 4, 4, 0, fmt,
                         gl.GL_UNSIGNED_BYTE,
                         np.zeros((4, 4, components), dtype=np.uint8))
        return ctx._textures[tex]

    def _sub(self, ctx, x, y, w, h, fmt, components):
        ctx.glTexSubImage2D(gl.GL_TEXTURE_2D, 0, x, y, w, h, fmt,
                            gl.GL_UNSIGNED_BYTE,
                            np.full((h, w, components), 9, dtype=np.uint8))

    def test_luminance_alpha_sub_image_is_written(self, ctx):
        texture = self._texture(ctx, gl.GL_LUMINANCE_ALPHA, 2)
        ctx.glTexSubImage2D(gl.GL_TEXTURE_2D, 0, 1, 2, 1, 1,
                            gl.GL_LUMINANCE_ALPHA, gl.GL_UNSIGNED_BYTE,
                            np.array([[[7, 200]]], dtype=np.uint8))
        assert list(texture.data[2, 1]) == [7, 7, 7, 200]
        assert list(texture.data[0, 0]) == [0, 0, 0, 0]

    def test_negative_offset_is_invalid_value(self, ctx):
        texture = self._texture(ctx)
        with pytest.raises(GLError) as exc:
            self._sub(ctx, -1, 0, 2, 2, gl.GL_RGBA, 4)
        assert exc.value.code == gl.GL_INVALID_VALUE
        assert not texture.data.any()

    def test_region_past_the_edge_is_invalid_value(self, ctx):
        texture = self._texture(ctx)
        with pytest.raises(GLError) as exc:
            self._sub(ctx, 3, 0, 2, 1, gl.GL_RGBA, 4)
        assert exc.value.code == gl.GL_INVALID_VALUE
        assert not texture.data.any()

    def test_mismatched_format_is_invalid_operation(self, ctx):
        texture = self._texture(ctx)
        with pytest.raises(GLError) as exc:
            self._sub(ctx, 0, 0, 2, 2, gl.GL_LUMINANCE, 1)
        assert exc.value.code == gl.GL_INVALID_OPERATION
        assert not texture.data.any()

    def test_unknown_format_is_invalid_enum(self, ctx):
        texture = self._texture(ctx)
        with pytest.raises(GLError) as exc:
            self._sub(ctx, 0, 0, 2, 2, 0x1234, 4)
        assert exc.value.code == gl.GL_INVALID_ENUM
        assert not texture.data.any()


class TestGenerateMipmap:
    def test_mipmap_completes_texture(self, ctx):
        (tex,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        ctx.glTexImage2D(gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 4, 4, 0,
                         gl.GL_RGBA, gl.GL_UNSIGNED_BYTE,
                         np.zeros((4, 4, 4), dtype=np.uint8))
        texture = ctx._textures[tex]
        # Default min filter is mipmap-based: incomplete until the
        # chain exists.
        assert not texture.is_complete()
        ctx.glGenerateMipmap(gl.GL_TEXTURE_2D)
        assert texture.is_complete()

    def test_npot_mipmap_rejected(self, ctx):
        (tex,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        ctx.glTexImage2D(gl.GL_TEXTURE_2D, 0, gl.GL_RGBA, 3, 4, 0,
                         gl.GL_RGBA, gl.GL_UNSIGNED_BYTE,
                         np.zeros((4, 3, 4), dtype=np.uint8))
        with pytest.raises(GLError):
            ctx.glGenerateMipmap(gl.GL_TEXTURE_2D)

    def test_mipmap_without_storage_rejected(self, ctx):
        (tex,) = ctx.glGenTextures(1)
        ctx.glBindTexture(gl.GL_TEXTURE_2D, tex)
        with pytest.raises(GLError):
            ctx.glGenerateMipmap(gl.GL_TEXTURE_2D)
