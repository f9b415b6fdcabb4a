"""The GLSL ES 1.00 type system.

GLSL ES 1.00 (the shading language mandated by OpenGL ES 2) has a
small, closed type universe: ``void``, the scalars ``bool``/``int``/
``float``, vectors of 2..4 components over each scalar, square float
matrices of order 2..4, the opaque ``sampler2D``/``samplerCube``
types, fixed-size arrays, and user-declared structs.

Unlike desktop GLSL there are **no implicit conversions** — an ``int``
never silently becomes a ``float`` (spec §4.1.10).  All conversions go
through constructor syntax, which this module models via
:func:`constructor_result`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class TypeKind:
    """Enumeration of type categories (plain class constants: explicit
    and cheap to compare)."""

    VOID = "void"
    SCALAR = "scalar"
    VECTOR = "vector"
    MATRIX = "matrix"
    SAMPLER = "sampler"
    ARRAY = "array"
    STRUCT = "struct"


class BaseType:
    """Scalar base categories."""

    FLOAT = "float"
    INT = "int"
    BOOL = "bool"


@dataclass(frozen=True)
class GlslType:
    """An immutable GLSL type descriptor.

    Instances are interned for the built-in types (see the module-level
    constants ``FLOAT``, ``VEC3``, ...) so identity comparison usually
    works, but equality is structural to cover arrays and structs.
    """

    kind: str
    base: Optional[str] = None
    #: Component count for vectors, order for square matrices.
    size: int = 1
    #: Element type for arrays.
    element: Optional["GlslType"] = None
    #: Declared length for arrays.
    length: int = 0
    #: Struct name and ordered field table.
    name: Optional[str] = None
    fields: Tuple[Tuple[str, "GlslType"], ...] = field(default=())

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def is_void(self) -> bool:
        return self.kind == TypeKind.VOID

    def is_scalar(self) -> bool:
        return self.kind == TypeKind.SCALAR

    def is_vector(self) -> bool:
        return self.kind == TypeKind.VECTOR

    def is_matrix(self) -> bool:
        return self.kind == TypeKind.MATRIX

    def is_array(self) -> bool:
        return self.kind == TypeKind.ARRAY

    def is_struct(self) -> bool:
        return self.kind == TypeKind.STRUCT

    def is_sampler(self) -> bool:
        return self.kind == TypeKind.SAMPLER

    def is_float_based(self) -> bool:
        return self.base == BaseType.FLOAT and self.kind in (
            TypeKind.SCALAR,
            TypeKind.VECTOR,
            TypeKind.MATRIX,
        )

    def is_int_based(self) -> bool:
        return self.base == BaseType.INT and self.kind in (
            TypeKind.SCALAR,
            TypeKind.VECTOR,
        )

    def is_bool_based(self) -> bool:
        return self.base == BaseType.BOOL and self.kind in (
            TypeKind.SCALAR,
            TypeKind.VECTOR,
        )

    def is_numeric(self) -> bool:
        """True for types valid in arithmetic (float/int scalars,
        vectors; float matrices)."""
        return self.is_float_based() or self.is_int_based()

    # ------------------------------------------------------------------
    # Derived shapes
    # ------------------------------------------------------------------
    def component_count(self) -> int:
        """Number of scalar components (1 for scalars, N for vectors,
        N*N for matrices)."""
        if self.kind == TypeKind.SCALAR:
            return 1
        if self.kind == TypeKind.VECTOR:
            return self.size
        if self.kind == TypeKind.MATRIX:
            return self.size * self.size
        raise ValueError(f"{self} has no scalar component count")

    def component_type(self) -> "GlslType":
        """The scalar type of one component."""
        if self.kind == TypeKind.SCALAR:
            return self
        if self.kind in (TypeKind.VECTOR, TypeKind.MATRIX):
            return scalar_type(self.base)
        if self.kind == TypeKind.ARRAY:
            return self.element
        raise ValueError(f"{self} has no component type")

    def column_type(self) -> "GlslType":
        """For matrices: the vector type of one column."""
        if not self.is_matrix():
            raise ValueError(f"{self} is not a matrix")
        return vector_type(BaseType.FLOAT, self.size)

    # ------------------------------------------------------------------
    def glsl_name(self) -> str:
        """The type's spelling in GLSL source."""
        if self.kind == TypeKind.VOID:
            return "void"
        if self.kind == TypeKind.SCALAR:
            return self.base
        if self.kind == TypeKind.VECTOR:
            prefix = {"float": "", "int": "i", "bool": "b"}[self.base]
            return f"{prefix}vec{self.size}"
        if self.kind == TypeKind.MATRIX:
            return f"mat{self.size}"
        if self.kind == TypeKind.SAMPLER:
            return self.name
        if self.kind == TypeKind.ARRAY:
            return f"{self.element.glsl_name()}[{self.length}]"
        if self.kind == TypeKind.STRUCT:
            return self.name
        return "<?>"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.glsl_name()


# ----------------------------------------------------------------------
# Interned built-in types
# ----------------------------------------------------------------------
VOID = GlslType(TypeKind.VOID)
FLOAT = GlslType(TypeKind.SCALAR, BaseType.FLOAT, 1)
INT = GlslType(TypeKind.SCALAR, BaseType.INT, 1)
BOOL = GlslType(TypeKind.SCALAR, BaseType.BOOL, 1)
VEC2 = GlslType(TypeKind.VECTOR, BaseType.FLOAT, 2)
VEC3 = GlslType(TypeKind.VECTOR, BaseType.FLOAT, 3)
VEC4 = GlslType(TypeKind.VECTOR, BaseType.FLOAT, 4)
IVEC2 = GlslType(TypeKind.VECTOR, BaseType.INT, 2)
IVEC3 = GlslType(TypeKind.VECTOR, BaseType.INT, 3)
IVEC4 = GlslType(TypeKind.VECTOR, BaseType.INT, 4)
BVEC2 = GlslType(TypeKind.VECTOR, BaseType.BOOL, 2)
BVEC3 = GlslType(TypeKind.VECTOR, BaseType.BOOL, 3)
BVEC4 = GlslType(TypeKind.VECTOR, BaseType.BOOL, 4)
MAT2 = GlslType(TypeKind.MATRIX, BaseType.FLOAT, 2)
MAT3 = GlslType(TypeKind.MATRIX, BaseType.FLOAT, 3)
MAT4 = GlslType(TypeKind.MATRIX, BaseType.FLOAT, 4)
SAMPLER2D = GlslType(TypeKind.SAMPLER, name="sampler2D")
SAMPLERCUBE = GlslType(TypeKind.SAMPLER, name="samplerCube")

#: Keyword -> type table used by the parser for type specifiers.
BUILTIN_TYPE_NAMES: Dict[str, GlslType] = {
    "void": VOID,
    "float": FLOAT,
    "int": INT,
    "bool": BOOL,
    "vec2": VEC2,
    "vec3": VEC3,
    "vec4": VEC4,
    "ivec2": IVEC2,
    "ivec3": IVEC3,
    "ivec4": IVEC4,
    "bvec2": BVEC2,
    "bvec3": BVEC3,
    "bvec4": BVEC4,
    "mat2": MAT2,
    "mat3": MAT3,
    "mat4": MAT4,
    "sampler2D": SAMPLER2D,
    "samplerCube": SAMPLERCUBE,
}


def scalar_type(base: str) -> GlslType:
    """The interned scalar type for a base category."""
    return {BaseType.FLOAT: FLOAT, BaseType.INT: INT, BaseType.BOOL: BOOL}[base]


def vector_type(base: str, size: int) -> GlslType:
    """The interned vector type ``<base>vec<size>``."""
    table = {
        (BaseType.FLOAT, 2): VEC2,
        (BaseType.FLOAT, 3): VEC3,
        (BaseType.FLOAT, 4): VEC4,
        (BaseType.INT, 2): IVEC2,
        (BaseType.INT, 3): IVEC3,
        (BaseType.INT, 4): IVEC4,
        (BaseType.BOOL, 2): BVEC2,
        (BaseType.BOOL, 3): BVEC3,
        (BaseType.BOOL, 4): BVEC4,
    }
    return table[(base, size)]


def array_of(element: GlslType, length: int) -> GlslType:
    """A fixed-size array type."""
    return GlslType(TypeKind.ARRAY, element=element, length=length)


def struct_type(name: str, fields) -> GlslType:
    """A struct type with an ordered ``(name, type)`` field list."""
    return GlslType(TypeKind.STRUCT, name=name, fields=tuple(fields))


#: Swizzle character sets (spec §5.5).  All characters of one swizzle
#: must come from the same set.
SWIZZLE_SETS = ("xyzw", "rgba", "stpq")


def swizzle_indices(swizzle: str) -> Optional[Tuple[int, ...]]:
    """Translate a swizzle string into component indices, or None if
    the string is not a valid swizzle (mixed sets, bad chars, len>4)."""
    if not 1 <= len(swizzle) <= 4:
        return None
    for charset in SWIZZLE_SETS:
        if all(ch in charset for ch in swizzle):
            return tuple(charset.index(ch) for ch in swizzle)
    return None
