"""AST optimisation entry point (compatibility shim).

The constant-folding / static-branch-pruning walk that used to live
here is now the front half of the IR pass pipeline —
:mod:`repro.glsl.ir.foldrules` — where it runs before type checking,
ahead of the typed abstract-execution folding, select-conversion, CSE
and DCE passes in :mod:`repro.glsl.ir.passes` that subsume everything
else this module used to do.

:func:`optimize` keeps its historical signature and in-place folding
behaviour so existing imports and tests keep working.
"""

from __future__ import annotations

from . import ast_nodes as ast


def optimize(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Fold constants and prune static branches in place.

    Thin shim over :func:`repro.glsl.ir.foldrules.fold_unit`."""
    from .ir.foldrules import fold_unit

    return fold_unit(unit)
