"""Column-major (Fortran) array layout and address computation.

Arrays are laid out consecutively in a flat byte address space with
line-aligned bases, column-major element order, 1-based subscripts —
matching the storage assumptions of the paper's cost model (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ExecutionError
from repro.ir.affine import Affine
from repro.ir.expr import Ref
from repro.ir.nodes import Program

__all__ = ["ArrayLayout", "MemoryLayout"]

#: Address of the first array.
_BASE = 0x10000

#: Default alignment for array base addresses (a large cache line).
_BASE_ALIGN = 128


@dataclass(frozen=True)
class ArrayLayout:
    """Placement of one array: base address, extents, element size."""

    name: str
    base: int
    extents: tuple[int, ...]
    elem_size: int

    @property
    def strides(self) -> tuple[int, ...]:
        """Byte stride per dimension; the first dimension is contiguous."""
        out = []
        stride = self.elem_size
        for extent in self.extents:
            out.append(stride)
            stride *= extent
        return tuple(out)

    @property
    def total_bytes(self) -> int:
        total = self.elem_size
        for extent in self.extents:
            total *= extent
        return total

    def address(self, subscripts: Sequence[int]) -> int:
        """Byte address of the element at 1-based ``subscripts``."""
        if len(subscripts) != len(self.extents):
            raise ExecutionError(
                f"{self.name}: rank {len(self.extents)} accessed with "
                f"{len(subscripts)} subscripts"
            )
        offset = 0
        for value, extent, stride in zip(subscripts, self.extents, self.strides):
            if not 1 <= value <= extent:
                raise ExecutionError(
                    f"{self.name}{tuple(subscripts)}: subscript {value} outside "
                    f"1..{extent}"
                )
            offset += (value - 1) * stride
        return self.base + offset

    def address_form(self, ref: Ref, env: Mapping[str, int]) -> Affine:
        """Byte address of ``ref`` as one affine form, ``base + sum of
        (sub - 1) * stride``, with the names bound in ``env`` folded in."""
        coeffs: dict[str, int] = {}
        const = self.base
        for sub, stride in zip(ref.subs, self.strides):
            const += (sub.const - 1) * stride
            for name, coeff in sub.terms:
                if name in env:
                    const += coeff * int(env[name]) * stride
                else:
                    coeffs[name] = coeffs.get(name, 0) + coeff * stride
        return Affine.build(coeffs, const)


@dataclass(frozen=True)
class MemoryLayout:
    """Layouts for every array of a program."""

    arrays: dict[str, ArrayLayout]

    @staticmethod
    def for_program(program: Program) -> "MemoryLayout":
        """Lay the program's arrays out consecutively from ``_BASE``."""
        env = program.param_env
        layouts: dict[str, ArrayLayout] = {}
        cursor = _BASE
        for decl in program.arrays:
            extents = decl.extents(env)
            if any(e <= 0 for e in extents):
                raise ExecutionError(
                    f"array {decl.name} has non-positive extent {extents}"
                )
            layout = ArrayLayout(decl.name, cursor, extents, decl.elem_size)
            layouts[decl.name] = layout
            cursor += layout.total_bytes
            cursor = (cursor + _BASE_ALIGN - 1) // _BASE_ALIGN * _BASE_ALIGN
        return MemoryLayout(layouts)

    def __getitem__(self, name: str) -> ArrayLayout:
        try:
            return self.arrays[name]
        except KeyError:
            raise ExecutionError(f"array {name!r} has no layout") from None
