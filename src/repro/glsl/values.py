r"""Runtime values for the vectorised GLSL interpreter.

The interpreter executes a shader for *all* vertices or fragments of a
draw call at once (a software SIMT model, matching how the VideoCore
IV's QPUs execute 16-way warps).  Every GLSL variable therefore holds a
numpy array whose leading axis is the batch (lane) axis:

========  =======================  =========================
GLSL      shape                    dtype
========  =======================  =========================
float     ``(N,)``                 float model dtype
int       ``(N,)``                 int32
bool      ``(N,)``                 bool\_
vecK      ``(N, K)``               float model dtype
ivecK     ``(N, K)``               int32
bvecK     ``(N, K)``               bool\_
matK      ``(N, K, K)``            float model dtype, ``[n, col, row]``
array[L]  ``(N, L, *elem shape)``  element dtype
========  =======================  =========================

Uniform (per-draw) quantities use ``N == 1`` and rely on numpy
broadcasting; :func:`batch_of` computes the joint batch size.

Matrices are stored column-major like GLSL itself: ``data[n, c, r]`` is
column ``c``, row ``r``, so ``m[c]`` is a cheap slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from .errors import GlslRuntimeError
from .types import BaseType, GlslType, TypeKind

#: dtype used for int and bool data (floats come from the float model).
INT_DTYPE = np.int32
BOOL_DTYPE = np.bool_


@dataclass
class Value:
    """A typed runtime value: a GLSL type plus its batched numpy data.

    Struct values use ``fields`` instead of ``data``; arrays of structs
    hold a list of struct Values in ``fields[str(i)]``.
    """

    type: GlslType
    data: Optional[np.ndarray] = None
    fields: Optional[Dict[str, "Value"]] = None
    #: Opaque handle for sampler types (set when binding uniforms).
    sampler: object = None

    def clone(self) -> "Value":
        """Deep copy (needed for out-parameter snapshots and masked
        assignment fallbacks)."""
        return Value(
            type=self.type,
            data=None if self.data is None else self.data.copy(),
            fields=None
            if self.fields is None
            else {k: v.clone() for k, v in self.fields.items()},
            sampler=self.sampler,
        )

    @property
    def batch(self) -> int:
        """Lane count of this value (1 for uniforms)."""
        if self.data is not None:
            return self.data.shape[0]
        if self.fields:
            return max(v.batch for v in self.fields.values())
        return 1


def batch_of(*values: Value) -> int:
    """The joint batch size of several values (all must be 1 or equal)."""
    n = 1
    for v in values:
        b = v.batch
        if b != 1:
            if n != 1 and n != b:
                raise GlslRuntimeError(f"incompatible batch sizes {n} vs {b}")
            n = b
    return n


# ----------------------------------------------------------------------
# Constructors for fresh values
# ----------------------------------------------------------------------
def zeros_for(gtype: GlslType, n: int, float_dtype) -> Value:
    """A zero-initialised value of the given type and batch size."""
    if gtype.kind == TypeKind.SCALAR:
        dtype = _dtype_for_base(gtype.base, float_dtype)
        return Value(gtype, np.zeros((n,), dtype=dtype))
    if gtype.kind == TypeKind.VECTOR:
        dtype = _dtype_for_base(gtype.base, float_dtype)
        return Value(gtype, np.zeros((n, gtype.size), dtype=dtype))
    if gtype.kind == TypeKind.MATRIX:
        return Value(gtype, np.zeros((n, gtype.size, gtype.size), dtype=float_dtype))
    if gtype.kind == TypeKind.ARRAY:
        elem = zeros_for(gtype.element, n, float_dtype)
        if elem.data is None:
            # Array of structs: store as numbered fields.
            return Value(
                gtype,
                fields={
                    str(i): zeros_for(gtype.element, n, float_dtype)
                    for i in range(gtype.length)
                },
            )
        shape = (n, gtype.length) + elem.data.shape[1:]
        return Value(gtype, np.zeros(shape, dtype=elem.data.dtype))
    if gtype.kind == TypeKind.STRUCT:
        return Value(
            gtype,
            fields={
                name: zeros_for(ftype, n, float_dtype)
                for name, ftype in gtype.fields
            },
        )
    if gtype.kind == TypeKind.SAMPLER:
        return Value(gtype)
    raise GlslRuntimeError(f"cannot allocate value of type {gtype}")


def _dtype_for_base(base: str, float_dtype) -> np.dtype:
    if base == BaseType.FLOAT:
        return float_dtype
    if base == BaseType.INT:
        return INT_DTYPE
    return BOOL_DTYPE


# ----------------------------------------------------------------------
# Masked assignment
# ----------------------------------------------------------------------
def masked_blend(old: np.ndarray, new: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Combine two data arrays under a lane mask.

    ``mask`` has shape (N,) or (1,); trailing axes of the data arrays
    broadcast.  The result always has the widest batch of the three.
    """
    if mask.all() and new.shape[0] >= old.shape[0]:
        return new.copy() if new is old else np.array(new, copy=True)
    expanded = mask.reshape(mask.shape + (1,) * (old.ndim - 1))
    return np.where(expanded, new, old)


def assign_masked(target: Value, source: Value, mask: np.ndarray) -> None:
    """Write ``source`` into ``target`` for lanes where ``mask`` is set.

    Handles struct and array-of-struct values recursively.
    """
    if target.fields is not None:
        for key, tfield in target.fields.items():
            assign_masked(tfield, source.fields[key], mask)
        return
    new_data = masked_blend(target.data, source.data, mask)
    if new_data.dtype != target.data.dtype:
        new_data = new_data.astype(target.data.dtype)
    target.data = new_data


# ----------------------------------------------------------------------
# Shape helpers used by the interpreter
# ----------------------------------------------------------------------
def broadcast_lanes(data: np.ndarray, n: int) -> np.ndarray:
    """Materialise a (1, ...) array to n lanes (no copy if already n)."""
    if data.shape[0] == n:
        return data
    return np.broadcast_to(data, (n,) + data.shape[1:]).copy()


def flatten_components(values: Iterable[Value]) -> np.ndarray:
    """Concatenate the scalar components of several numeric values
    along the component axis — the core of constructor semantics
    (spec §5.4.2: arguments are consumed left to right, component by
    component)."""
    parts = []
    n = batch_of(*values)
    for v in values:
        data = v.data
        if data.shape[0] != n:
            data = np.broadcast_to(data, (n,) + data.shape[1:])
        if v.type.kind == TypeKind.SCALAR:
            parts.append(data.reshape(n, 1))
        elif v.type.kind == TypeKind.VECTOR:
            parts.append(data.reshape(n, v.type.size))
        elif v.type.kind == TypeKind.MATRIX:
            # Column-major flattening, matching GLSL.
            parts.append(data.reshape(n, v.type.size * v.type.size))
        else:
            raise GlslRuntimeError(f"{v.type} not allowed in a constructor")
    return np.concatenate(parts, axis=1)
