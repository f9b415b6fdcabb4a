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


# ----------------------------------------------------------------------
# The pass fixpoint: run_passes stops when no pass changes anything
# ----------------------------------------------------------------------
def _fixpoint_sources():
    from glsl_helpers import library_kernel_sources
    from repro.testing.corpus import build_entries

    sources = [(f"corpus:{e.name}", e.fragment, "fragment")
               for e in build_entries()]
    for family, shaders in library_kernel_sources().items():
        sources += [(family, source, stage) for source, stage in shaders]
    return sources


def _pass_functions(fmodel):
    return {
        "fold": lambda program: passes._FoldPass(program, fmodel).run(),
        "flatten_return_ladders": passes.flatten_return_ladders,
        "elide_frames": passes.elide_frames,
        "propagate_copies": passes.propagate_copies,
        "forward_stores": passes.forward_stores,
        "select_convert": passes.select_convert,
        "cse": passes.cse,
        "dce": passes.dce,
    }


@pytest.mark.parametrize("model", ["exact", "ieee32", "videocore"])
def test_every_pass_is_idle_on_run_passes_output(model):
    """Each pass reports no change when re-run on what ``run_passes``
    produced, and really changes nothing (the dump stays the same):
    the pipeline's fixpoint is a true one."""
    from repro.gles2.precision import make_model

    fmodel = make_model(model)
    for label, source, stage in _fixpoint_sources():
        program = compile_ir(compile_shader(source, stage), fmodel)
        before = dump_ir(program)
        for name, run in _pass_functions(fmodel).items():
            assert run(program) is False, (label, name)
            assert dump_ir(program) == before, (label, name)


def test_library_kernels_settle_in_at_most_three_rounds():
    """Every library kernel family reaches the fixpoint in 2-3 of the
    4 allowed rounds, counted in ``compile.ir.pass_rounds``."""
    from glsl_helpers import library_kernel_sources
    from repro.gles2.precision import make_model
    from repro.perf import counters

    rounds = {}
    for family, shaders in library_kernel_sources().items():
        for source, stage in shaders:
            checked = compile_shader(source, stage)
            for model in ("exact", "ieee32", "videocore"):
                before = counters.values["compile.ir.pass_rounds"]
                compile_ir(checked, make_model(model))
                count = counters.values["compile.ir.pass_rounds"] - before
                rounds[family] = max(rounds.get(family, 0), count)
    assert rounds and all(2 <= count <= 3 for count in rounds.values()), \
        rounds


def test_forward_stores_reports_only_rewrites():
    """``gl_FragColor``'s one top-level store keeps it eligible for
    forwarding after ``run_passes``, but with nothing left to rewrite
    the pass reports no change (it used to report one whenever a
    variable was eligible, so every shader ran all 4 rounds)."""
    program = _compile("""
        precision highp float;
        uniform float u;
        void main() {
            float k = u * 2.0;
            gl_FragColor = vec4(k, k, 0.0, 1.0);
        }
    """)
    assert passes.forward_stores(program) is False


_FORWARD_CASES = {
    # (main body, region holding the store, forwarded?)
    "loop_body": ("""
        float acc = 0.0;
        for (int i = 0; i < 3; i++) {
            float t = v_uv.x * float(i);
            acc += t * t;
        }
        gl_FragColor = vec4(acc);""", nodes.LoopRegion, True),
    "if_arm": ("""
        vec4 c = vec4(0.0);
        if (v_uv.x > 0.5) {
            float t = v_uv.y * 2.0;
            if (t > 1.5) discard;
            c = vec4(t, t, 0.0, 1.0);
        }
        gl_FragColor = c;""", nodes.IfRegion, True),
    "declared_outside_the_loop": ("""
        float acc = 0.0;
        float t;
        for (int i = 0; i < 3; i++) {
            t = v_uv.x * float(i);
            acc += t * t;
        }
        gl_FragColor = vec4(acc);""", nodes.LoopRegion, False),
}


@pytest.mark.parametrize("case", sorted(_FORWARD_CASES))
def test_forward_stores_in_the_declaring_block(case):
    """A local declared and stored once in a loop body or an if-arm is
    forwarded, and DCE drops its ``decl`` and ``store``: the block keeps
    only the store to the variable declared outside it.  A local
    declared outside the loop that stores it keeps its store."""
    body, kind, forwarded = _FORWARD_CASES[case]
    program = _compile(_frag("void main() {" + body + "\n}"))
    region = next(_regions(program.body, kind))
    block = (region.body_block if kind is nodes.LoopRegion
             else region.then_block)
    ops = [item.op for item in block.items if isinstance(item, nodes.Instr)]
    assert ops.count("store") == (1 if forwarded else 2), dump_ir(program)
    assert "decl" not in ops, dump_ir(program)


#: ``a`` copies ``b`` (lowering stores ``b``'s own storage register, or
#: a field of it, into ``a``), then ``b`` changes: ``a`` must keep the
#: old value wherever the copy sits.
_SNAPSHOT_VARIANTS = {
    "top_level": """
        float b = v_uv.x;
        float a = b;
        b = 0.25;
        gl_FragColor = vec4(a, b, 0.0, 1.0);""",
    "loop_body": """
        float s = 0.0;
        for (int i = 0; i < 2; i++) {
            float b = v_uv.x + float(i);
            float a = b;
            b = 0.25;
            s += a + b;
        }
        gl_FragColor = vec4(s * 0.25, 0.0, 0.0, 1.0);""",
    "if_arm": """
        vec4 c = vec4(0.0);
        if (v_uv.y > 0.3) {
            float b = v_uv.x;
            float a = b;
            b = 0.25;
            c = vec4(a, b, 0.0, 1.0);
        }
        gl_FragColor = c;""",
    "swizzled_store": """
        vec2 b = v_uv;
        vec2 a = b;
        b.x = 0.25;
        gl_FragColor = vec4(a, b);""",
    "struct_field": """
        S b = S(v_uv.x, 0.0);
        float a = b.x;
        b.x = 0.25;
        gl_FragColor = vec4(a, b.x, 0.0, 1.0);""",
}


@pytest.mark.parametrize("backend", ["ir", "jit"])
@pytest.mark.parametrize("variant", sorted(_SNAPSHOT_VARIANTS))
def test_forwarded_copy_ignores_later_stores_to_its_source(variant, backend):
    source = _frag("struct S { float x; float y; };\nvoid main() {"
                   + _SNAPSHOT_VARIANTS[variant] + "\n}")
    result = run_differential(source, backend=backend)
    assert result.ok, result.message


@pytest.mark.parametrize("backend", ["ir", "jit"])
def test_parameter_alias_ignores_later_stores_to_its_source(backend):
    """``g`` reads its ``in`` parameter after overwriting the global
    struct field the argument came from; propagate_copies may alias
    the parameter only when no store to that storage follows."""
    source = _frag("""
struct S { float x; float y; };
S s;
float g(float p) { s.x = 0.25; return p; }
void main() {
    s = S(v_uv.x, 0.0);
    gl_FragColor = vec4(g(s.x), s.x, 0.0, 1.0);
}
""")
    result = run_differential(source, backend=backend)
    assert result.ok, result.message


@pytest.mark.parametrize("backend", ["ir", "jit"])
def test_out_parameter_stays_unwritten_on_early_return(backend):
    """Lanes that return before ``x = 0.75`` leave ``y`` zero: past
    ``f``'s body they are live again, so forwarding the store must not
    reach the copy-out."""
    source = _frag("""
void f(out float x, float c) { if (c > 0.5) return; x = 0.75; }
void main() {
    float y;
    f(y, v_uv.x);
    gl_FragColor = vec4(y, 0.0, 0.0, 1.0);
}
""")
    result = run_differential(source, backend=backend)
    assert result.ok, result.message
