"""Map-chain fusion: composing recorded kernel recipes into one
fragment shader.

The launch-graph scheduler (:mod:`repro.core.api.graph`) replaces a
producer→consumer pair of launches whose intermediate array is used
nowhere else with a single draw of a *fused* program.  This module
owns the two halves of that transformation:

* the **legality check** (:func:`stage_unfusable_reason`): the
  consumer may read the intermediate only as the exact textual
  ``fetch_<name>(gpgpu_index)`` — the one access pattern whose value
  is, fragment for fragment, the producer's own ``result`` at the same
  index (matching lengths and texture shapes are checked by the
  scheduler).  Anything else — neighbour reads, arbitrary gathers,
  sampler-state references — keeps the launch on the eager path.

* the **composition** (:func:`compose_chain`): stage bodies are
  concatenated inside their own ``{}`` scopes, with every
  inter-stage value routed through an explicit per-format round-trip
  (pack → framebuffer quantise → unpack).  The §IV transformations are
  lossless, so the round-trip reproduces *exactly* the bytes the eager
  intermediate texture would have held — this is what keeps fused
  replay bit-identical to eager execution on every backend.  The
  scheduler only fuses under ``quantization="round"``: the GL ES
  rounding conversion ``floor(c*255+0.5)`` is reproducible in shader
  float arithmetic, while the paper's printed floor variant sits on a
  float32-vs-float64 ``floor`` boundary and must stay eager.

Because the composition is a plain GLSL source program, every backend
(ast / ir / jit) executes the fused chain through its ordinary
pipeline: the IR compiler linearises the concatenated bodies into one
instruction stream, the JIT emits one straight-line numpy function for
the whole chain, and the program cache keys on the fused source hash
like any other kernel.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..numerics.formats import NumericFormat, get_format
from .templates import _GLSL_UNIFORM_TYPES

#: The explicit inter-stage round-trip: what the eager path does to an
#: intermediate value between two launches — pack to RGBA bytes,
#: quantise through the framebuffer's fixed-point store (GL ES
#: rounding form), unpack on the consumer's fetch.  Written with the
#: same ``/ 255.0`` division as the texture sampler so the quantised
#: channels are bit-identical to sampled texels under every float
#: model.
_ROUNDTRIP_TEMPLATE = """
float gpgpu_fuse_roundtrip_{name}(float value) {{
    vec4 packed_ = {pack}(value);
    vec4 stored = floor(clamp(packed_, vec4(0.0), vec4(1.0)) * 255.0
        + vec4(0.5)) / 255.0;
    return {unpack}(stored);
}}
"""


def roundtrip_function(fmt) -> str:
    """The GLSL round-trip helper for one format."""
    fmt = get_format(fmt)
    return _ROUNDTRIP_TEMPLATE.format(
        name=fmt.name,
        pack=fmt.glsl_pack_name,
        unpack=fmt.glsl_unpack_name,
    )


def stage_unfusable_reason(
    spec, intermediate_inputs: Sequence[str]
) -> Optional[str]:
    """Why this stage cannot join a fused chain — or None if it can.

    ``spec`` is the stage's :class:`~repro.core.api.kernel.KernelSpec`;
    ``intermediate_inputs`` names the inputs that would be replaced by
    in-register values from earlier stages.
    """
    if spec is None:
        return "kernel has no recorded generation spec"
    if spec.mode not in ("map", "gather"):
        return f"unknown kernel mode '{spec.mode}'"
    if "fetch_" in spec.preamble:
        # Preambles are concatenated verbatim; a fetch call inside one
        # could not be renamed to the stage's namespaced helpers.
        return "stage preamble calls fetch helpers"
    for iname in intermediate_inputs:
        any_pat = re.compile(rf"\bfetch_{re.escape(iname)}\s*\(")
        exact_pat = re.compile(
            rf"\bfetch_{re.escape(iname)}\s*\(\s*gpgpu_index\s*\)"
        )
        total = len(any_pat.findall(spec.body))
        if spec.mode == "map":
            if total:
                return (
                    f"map stage re-fetches intermediate '{iname}' "
                    "explicitly"
                )
        elif total != len(exact_pat.findall(spec.body)):
            return (
                f"stage reads intermediate '{iname}' at an index other "
                "than gpgpu_index"
            )
        if (
            f"u_tex_{iname}" in spec.body
            or f"u_size_{iname}" in spec.body
        ):
            return (
                f"stage references the sampler state of intermediate "
                f"'{iname}'"
            )
    return None


@dataclass(frozen=True)
class FusedStage:
    """One launch in a chain being fused.

    ``intermediates`` maps this stage's input names to the (0-based)
    index of the earlier stage whose output they consume.
    """

    spec: object  # KernelSpec (duck-typed to avoid an api import)
    intermediates: Tuple[Tuple[str, int], ...] = ()


@dataclass
class FusedRecipe:
    """Everything ``device.kernel()`` needs to build the fused program,
    plus the binding maps the scheduler uses at launch time."""

    name: str
    inputs: List[Tuple[str, str]]
    output: str
    body: str
    uniforms: List[Tuple[str, str]]
    preamble: str
    extra_formats: List[str]
    #: (stage index, original input name, fused input name)
    input_map: List[Tuple[int, str, str]] = field(default_factory=list)
    #: (stage index, original uniform name, fused uniform name)
    uniform_map: List[Tuple[int, str, str]] = field(default_factory=list)
    #: Content digest of the chain (stage recipes + wiring) — embedded
    #: in the generated source as a ``// gpgpu-fusion:`` marker so the
    #: persistent artifact store keys fused compiles on the chain
    #: identity, and used to memoise recompositions across replays.
    signature: str = ""


def fusion_signature(stages: Sequence[FusedStage]) -> str:
    """Content digest of a fused chain: every field of every stage
    recipe that reaches the generated source, plus the intermediate
    wiring.  Two chains with the same signature compose to textually
    identical fused programs, so the signature is safe to use both as
    the recomposition memo key and as the persistent artifact-store
    key component for fused compiles."""
    h = hashlib.sha1()
    for stage in stages:
        spec = stage.spec
        h.update(repr((
            spec.name,
            tuple(spec.inputs),
            spec.output,
            spec.body,
            tuple(spec.uniforms),
            spec.mode,
            spec.preamble,
            tuple(sorted(stage.intermediates)),
        )).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def compose_chain(stages: Sequence[FusedStage]) -> FusedRecipe:
    """Concatenate a legal chain of stages into one kernel recipe.

    Each stage runs inside its own ``{}`` scope: its uniforms are
    aliased from namespaced ``s<i>_`` outer uniforms, its external
    inputs renamed to namespaced fetch helpers, and its intermediate
    reads substituted with the in-register ``s<j>_value`` of the
    producing stage — which is the producer's result passed through
    :func:`roundtrip_function` for the producer's output format.
    """
    if len(stages) < 2:
        raise ValueError("a fused chain needs at least two stages")
    inputs: List[Tuple[str, str]] = []
    uniforms: List[Tuple[str, str]] = []
    input_map: List[Tuple[int, str, str]] = []
    uniform_map: List[Tuple[int, str, str]] = []
    body_lines: List[str] = []
    roundtrips: List[str] = []
    preambles: List[str] = []
    seen_roundtrips: set = set()
    seen_preambles: set = set()
    last = len(stages) - 1
    for i, stage in enumerate(stages):
        spec = stage.spec
        inter: Dict[str, int] = dict(stage.intermediates)
        reason = stage_unfusable_reason(spec, list(inter))
        if reason is not None:
            raise ValueError(f"stage {i} ({spec.name}): {reason}")
        for iname, fname in spec.inputs:
            if iname in inter:
                continue
            fused_name = f"s{i}_{iname}"
            inputs.append((fused_name, fname))
            input_map.append((i, iname, fused_name))
        for uname, utype in spec.uniforms:
            fused_name = f"s{i}_{uname}"
            uniforms.append((fused_name, utype))
            uniform_map.append((i, uname, fused_name))
        if spec.preamble and spec.preamble not in seen_preambles:
            preambles.append(spec.preamble)
            seen_preambles.add(spec.preamble)

        body = spec.body
        for iname, j in inter.items():
            body = re.sub(
                rf"\bfetch_{re.escape(iname)}\s*\(\s*gpgpu_index\s*\)",
                f"s{j}_value",
                body,
            )
        for iname, __ in spec.inputs:
            if iname not in inter:
                body = re.sub(
                    rf"\bfetch_{re.escape(iname)}\s*\(",
                    f"fetch_s{i}_{iname}(",
                    body,
                )

        body_lines.append(f"// stage {i}: {spec.name}")
        body_lines.append("{")
        for uname, utype in spec.uniforms:
            body_lines.append(
                f"    {_GLSL_UNIFORM_TYPES[utype]} {uname} = s{i}_{uname};"
            )
        if spec.mode == "map":
            for iname, __ in spec.inputs:
                if iname in inter:
                    body_lines.append(
                        f"    float {iname} = s{inter[iname]}_value;"
                    )
                else:
                    body_lines.append(
                        f"    float {iname} = "
                        f"fetch_s{i}_{iname}(gpgpu_index);"
                    )
        # Each stage starts from the zeroed result the eager launch
        # would have seen, and may freely shadow names in its scope.
        body_lines.append("    result = 0.0;")
        body_lines.append("    {")
        for line in body.strip("\n").split("\n"):
            body_lines.append("        " + line)
        body_lines.append("    }")
        body_lines.append("}")
        if i != last:
            fmt: NumericFormat = get_format(spec.output)
            if fmt.name not in seen_roundtrips:
                roundtrips.append(roundtrip_function(fmt))
                seen_roundtrips.add(fmt.name)
            body_lines.append(
                f"float s{i}_value = "
                f"gpgpu_fuse_roundtrip_{fmt.name}(result);"
            )

    name = "fuse[" + "+".join(stage.spec.name for stage in stages) + "]"
    signature = fusion_signature(stages)
    # The marker rides in the generated GLSL so the front end can stamp
    # the chain identity onto the shader's link summary (see
    # repro.gles2.shader._FUSION_MARKER) and key persistent JIT
    # artifacts on it.
    preamble = "\n".join(
        [f"// gpgpu-fusion: {signature}"] + roundtrips + preambles
    )
    extra_formats = sorted(
        {get_format(stage.spec.output).name for stage in stages[:-1]}
    )
    return FusedRecipe(
        name=name,
        inputs=inputs,
        output=stages[-1].spec.output,
        body="\n".join(body_lines),
        uniforms=uniforms,
        preamble=preamble,
        extra_formats=extra_formats,
        input_map=input_map,
        uniform_map=uniform_map,
        signature=signature,
    )


#: Recipes memoised on their fusion signature: replaying the same
#: recorded graph re-composes each chain once per process instead of
#: once per replay, and repeated replays hand ``device.kernel()`` a
#: textually identical program so its own memo hits too.
_RECIPE_MEMO: Dict[str, FusedRecipe] = {}


def compose_chain_cached(stages: Sequence[FusedStage]) -> FusedRecipe:
    """Memoised :func:`compose_chain` (keyed on the chain signature).

    The graph scheduler's entry point, and therefore the
    ``fuse_fail`` fault site: an injected failure raises the same
    ``ValueError`` a real composition bug would, which the scheduler
    answers by replaying the chain eagerly (bit-identical — fusion is
    an optimisation, never a semantic requirement)."""
    from ...testing import faults

    if faults.fire("fuse_fail"):
        raise ValueError("injected fault: fusion composition failed")
    signature = fusion_signature(stages)
    recipe = _RECIPE_MEMO.get(signature)
    if recipe is None:
        recipe = _RECIPE_MEMO[signature] = compose_chain(stages)
    return recipe
