"""Unit tests for the linear IR: lowering, the individual optimisation
passes, executor equivalence with the AST-level scalar reference, and
the compile caches."""

import pytest

from repro.glsl.interp import compile_shader, _ExactModel
from repro.glsl.ir import (
    compile_ir,
    dump_ir,
    get_compiled,
    lower_shader,
    static_cost,
)
from repro.glsl.ir import nodes, passes
from repro.testing.oracle import run_differential


def _compile(source):
    return compile_ir(compile_shader(source, "fragment"))


def _instrs(block):
    """All Instr objects in a block, recursing through regions."""
    for item in block.items:
        if isinstance(item, nodes.Instr):
            yield item
        else:
            for sub in passes._region_blocks(item):
                yield from _instrs(sub)


def _body_ops(program):
    return [ins.op for ins in _instrs(program.body)]


def _regions(block, kind):
    for item in block.items:
        if isinstance(item, kind):
            yield item
        if not isinstance(item, nodes.Instr):
            for sub in passes._region_blocks(item):
                yield from _regions(sub, kind)


def _frag(body):
    return "precision mediump float;\nvarying vec2 v_uv;\n" + body


# ----------------------------------------------------------------------
# Individual passes
# ----------------------------------------------------------------------
def test_fold_collapses_constant_arithmetic():
    program = _compile(_frag(
        "void main() { gl_FragColor = vec4((2.0 * 3.0 + 1.0) / 7.0); }"
    ))
    ops = _body_ops(program)
    assert "arith" not in ops, dump_ir(program)


def test_elide_removes_function_frames():
    program = _compile(_frag("""
float twice(float x) { return x * 2.0; }
void main() { gl_FragColor = vec4(twice(v_uv.x)); }
"""))
    assert not list(_regions(program.body, nodes.FuncRegion)), \
        dump_ir(program)
    # main's own frame is gone too: the body is fully flat.
    assert not any(
        not isinstance(item, nodes.Instr) for item in program.body.items
    ), dump_ir(program)


def test_copy_propagation_eliminates_parameter_copies():
    program = _compile(_frag("""
float twice(float x) { return x * 2.0; }
void main() { gl_FragColor = vec4(twice(v_uv.x) + twice(v_uv.y)); }
"""))
    assert "copy" not in _body_ops(program), dump_ir(program)


def test_select_convert_flattens_ternary():
    program = _compile(_frag("""
void main() {
    float x = (v_uv.x > 0.5) ? 1.0 : v_uv.y;
    gl_FragColor = vec4(x);
}
"""))
    assert not list(_regions(program.body, nodes.CondRegion)), \
        dump_ir(program)
    assert "select" in _body_ops(program)


def test_select_convert_flattens_short_circuit():
    program = _compile(_frag("""
void main() {
    bool both = v_uv.x > 0.5 && v_uv.y > 0.5;
    gl_FragColor = vec4(both ? 1.0 : 0.0);
}
"""))
    assert not list(_regions(program.body, nodes.ScRegion)), \
        dump_ir(program)
    assert "sc_combine" in _body_ops(program)


def test_cse_deduplicates_repeated_subexpressions():
    program = _compile(_frag(
        "void main() {"
        " gl_FragColor = vec4(v_uv.x * v_uv.y + v_uv.x * v_uv.y); }"
    ))
    muls = [
        ins for ins in _instrs(program.body)
        if ins.op == "arith" and "*" in ins.imm
    ]
    assert len(muls) == 1, dump_ir(program)


def test_cse_invalidates_across_stores():
    # Regression: int->float construct reads the variable root directly
    # (no load), so its availability entry must die when the variable
    # is stored to — otherwise the second float(i) reuses a stale value.
    source = _frag("""
void main() {
    float f = 1.0;
    int i = 5;
    f = float(i);
    i *= 0;
    gl_FragColor = clamp(vec4(0.6, f, float(i), 1.0), 0.0, 1.0);
}
""")
    program = _compile(source)
    constructs = [
        ins for ins in _instrs(program.body)
        if ins.op == "construct" and str(ins.type) == "float"
    ]
    assert len(constructs) == 2, dump_ir(program)
    result = run_differential(source, size=4, backend="ir")
    assert result.ok, result.describe()


def test_dce_removes_dead_declarations():
    program = _compile(_frag(
        "void main() {"
        " float dead = v_uv.x * 3.0;"
        " gl_FragColor = vec4(v_uv.y); }"
    ))
    ops = _body_ops(program)
    assert "arith" not in ops, dump_ir(program)


def test_run_passes_is_idempotent():
    checked = compile_shader(_frag("""
float twice(float x) { return x * 2.0; }
void main() {
    float x;
    if (v_uv.x > 0.5) { x = twice(v_uv.x); } else { x = v_uv.y; }
    gl_FragColor = vec4(x);
}
"""), "fragment")
    program = compile_ir(checked)
    before = dump_ir(program)
    passes.run_passes(program, _ExactModel())
    assert dump_ir(program) == before


# ----------------------------------------------------------------------
# Executor equivalence (bit-exact against the scalar reference)
# ----------------------------------------------------------------------
DIVERGENT_SHADERS = [
    pytest.param(_frag("""
void main() {
    float acc = 0.0;
    for (int i = 0; i < 8; i++) { acc += v_uv.x * float(i); }
    gl_FragColor = vec4(fract(acc));
}
"""), id="for_loop"),
    pytest.param(_frag("""
void main() {
    vec4 c = vec4(0.0);
    if (v_uv.x > 0.5) {
        if (v_uv.y > 0.5) { c = vec4(1.0, 0.0, 0.0, 1.0); }
        else { c = vec4(0.0, 1.0, 0.0, 1.0); }
    } else {
        c = vec4(v_uv, 0.0, 1.0);
    }
    gl_FragColor = c;
}
"""), id="nested_if"),
    pytest.param(_frag("""
void split(in float v, out float hi, out float lo) {
    hi = floor(v * 4.0);
    lo = fract(v * 4.0);
}
void main() {
    float hi; float lo;
    split(v_uv.x, hi, lo);
    gl_FragColor = vec4(hi * 0.25, lo, v_uv.y, 1.0);
}
"""), id="out_params"),
    pytest.param(_frag("""
void main() {
    float acc = 0.0;
    for (int i = 0; i < 16; i++) {
        if (acc > 2.0) { break; }
        acc += v_uv.x + 0.3;
    }
    gl_FragColor = vec4(fract(acc));
}
"""), id="loop_break"),
]


@pytest.mark.parametrize("source", DIVERGENT_SHADERS)
def test_ir_backend_bit_equal_on_control_flow(source):
    result = run_differential(source, size=8, backend="ir")
    assert result.ok, result.describe()


# ----------------------------------------------------------------------
# Compile cache
# ----------------------------------------------------------------------
def test_get_compiled_memoises_per_model():
    checked = compile_shader(
        _frag("void main() { gl_FragColor = vec4(v_uv, 0.0, 1.0); }"),
        "fragment",
    )
    model = _ExactModel()
    first = get_compiled(checked, model)
    assert get_compiled(checked, model) is first
    # A different float model gets its own artifact.
    from repro.gles2.precision import make_model

    other = get_compiled(checked, make_model("videocore"))
    assert other is not first


def test_static_cost_exact_for_straight_line():
    program = _compile(_frag(
        "void main() {"
        " gl_FragColor = vec4(v_uv.x * 2.0 + v_uv.y, v_uv, 1.0); }"
    ))
    cost = static_cost(program)
    assert cost.exact
    totals = cost.totals(7)
    assert totals["alu"] % 7 == 0
    assert totals["alu"] > 0
