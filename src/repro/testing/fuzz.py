"""Differential fuzz runner (CLI).

Generates random GLSL ES 1.00 fragment shaders and pushes each one
through the four-way differential oracle (raster pipeline / compiled
IR replay / JIT replay / scalar reference interpreter), comparing
outputs bit-exactly.  On divergence the failing program is shrunk to a
minimal reproducer.

``--backend`` picks the executor the raster pipeline shades with:
``jit`` (default) or ``ir``.  The IR and JIT replays and the scalar
reference run either way.

Usage::

    python -m repro.testing.fuzz --n 500 --seed 0
    python -m repro.testing.fuzz --n 200 --seed 0 --backend ir
    python -m repro.testing.fuzz --n 50 --seed 3 --inject eq2   # must fail

Exit status 0 means zero divergences (or, with ``--inject``, that the
injected bug *was* caught and shrunk); 1 otherwise.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Optional

from ..gles2.pipeline import DEFAULT_EXECUTION_BACKEND, EXECUTORS
from ..glsl.errors import GlslError
from .generator import GeneratorConfig, generate_program
from .oracle import DifferentialResult, inject_eq2_off_by_one, run_differential
from .shrink import shrink_source


def program_rng(seed: int, index: int) -> random.Random:
    """The per-program RNG: deterministic in (seed, index) so any
    failing index can be replayed in isolation."""
    return random.Random(f"{seed}:{index}")


def run_one(
    source: str, *, size: int = 4, quantization: str = "round",
    backend: str = DEFAULT_EXECUTION_BACKEND,
) -> DifferentialResult:
    return run_differential(
        source, size=size, quantization=quantization, backend=backend
    )


def _still_fails(size: int, quantization: str,
                 backend: str = DEFAULT_EXECUTION_BACKEND):
    """Shrink predicate: a candidate 'still fails' when it compiles
    and its differential run diverges."""

    def predicate(candidate: str) -> bool:
        try:
            result = run_one(candidate, size=size,
                             quantization=quantization, backend=backend)
        except (GlslError, ValueError, RuntimeError):
            return False
        return not result.ok

    return predicate


def shrink_failure(
    source: str, *, size: int = 4, quantization: str = "round",
    backend: str = DEFAULT_EXECUTION_BACKEND,
) -> str:
    return shrink_source(source, _still_fails(size, quantization, backend))


def fuzz(
    n: int,
    seed: int,
    *,
    size: int = 4,
    quantization: str = "round",
    backend: str = DEFAULT_EXECUTION_BACKEND,
    keep_going: bool = False,
    do_shrink: bool = True,
    progress_every: int = 50,
    p_texture: Optional[float] = None,
    out=sys.stdout,
) -> int:
    """Run ``n`` generated programs; returns the divergence count.

    ``p_texture`` overrides the generator's texture2D emission
    probability (None keeps the GeneratorConfig default)."""
    config = GeneratorConfig()
    if p_texture is not None:
        config.p_texture = p_texture
    divergences = 0
    for i in range(n):
        source = generate_program(program_rng(seed, i), config)
        try:
            result = run_one(source, size=size,
                             quantization=quantization, backend=backend)
        except GlslError as exc:
            # A generated program must always compile and execute: a
            # front-end rejection is itself a harness bug.
            print(f"[{i}] generator produced invalid program: {exc}",
                  file=out)
            print(source, file=out)
            divergences += 1
            if not keep_going:
                return divergences
            continue
        if not result.ok:
            divergences += 1
            print(f"[{i}] DIVERGENCE (seed={seed})", file=out)
            print(result.describe(), file=out)
            if do_shrink:
                reduced = shrink_failure(
                    source, size=size, quantization=quantization,
                    backend=backend,
                )
                lines = reduced.count("\n") + 1
                print(f"--- shrunk reproducer ({lines} lines) ---", file=out)
                print(reduced, file=out)
            else:
                print("--- failing program ---", file=out)
                print(source, file=out)
            if not keep_going:
                return divergences
        if progress_every and (i + 1) % progress_every == 0:
            print(f"  {i + 1}/{n} programs, {divergences} divergences",
                  file=out)
    return divergences


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential conformance fuzzer for the software GPU.",
    )
    parser.add_argument("--n", type=int, default=200,
                        help="number of programs to generate")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed")
    parser.add_argument("--size", type=int, default=4,
                        help="framebuffer side length in pixels")
    parser.add_argument("--quantization", choices=("round", "floor"),
                        default="round", help="eq. (2) quantisation mode")
    parser.add_argument("--backend", choices=sorted(EXECUTORS),
                        default=DEFAULT_EXECUTION_BACKEND,
                        help="executor the raster pipeline shades with "
                             "(the IR/JIT replays and the scalar "
                             "reference always run)")
    parser.add_argument("--p-texture", type=float, default=None,
                        help="probability that a vec4 expression node "
                             "becomes a texture2D sample of a standard "
                             "sampler (default: the GeneratorConfig "
                             "value; 0 disables texture generation)")
    parser.add_argument("--inject", choices=("eq2",), default=None,
                        help="deliberately inject a pipeline bug; the "
                             "run then must diverge (self-test)")
    parser.add_argument("--keep-going", action="store_true",
                        help="continue after the first divergence")
    parser.add_argument("--no-shrink", action="store_true",
                        help="print failing programs without shrinking")
    args = parser.parse_args(argv)

    kwargs = dict(
        size=args.size,
        quantization=args.quantization,
        backend=args.backend,
        keep_going=args.keep_going,
        do_shrink=not args.no_shrink,
        p_texture=args.p_texture,
    )
    if args.inject == "eq2":
        with inject_eq2_off_by_one():
            divergences = fuzz(args.n, args.seed, **kwargs)
        if divergences == 0:
            print("FAIL: injected eq. (2) off-by-one was NOT detected")
            return 1
        print(f"ok: injected bug detected ({divergences} divergence(s))")
        return 0

    divergences = fuzz(args.n, args.seed, **kwargs)
    if divergences:
        print(f"FAIL: {divergences} divergence(s) in {args.n} programs")
        return 1
    print(f"ok: {args.n} programs, zero divergences "
          f"(seed={args.seed}, size={args.size}x{args.size})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
