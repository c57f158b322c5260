"""Unroll-and-jam (register tiling), the paper's framework step 3 [CCK88].

Unrolls an *outer* loop of a perfect nest by a factor and jams the
copies into the innermost body, so that references differing only in the
unrolled index become simultaneously live — scalar replacement can then
keep them in registers. The paper applies it after memory ordering to
recover low-level parallelism (§5.7, Simple) and promote register reuse.

Legality equals interchange legality: jamming moves instances of later
outer iterations ahead of inner-loop iterations, which is exactly the
reordering an interchange of the unrolled band performs. We require the
outer loop's dependences to permit interchange with everything inside
(checked via the nest's dependence vectors), plus unit step, constant
bounds, and a divisible trip count (no cleanup loop generation).
"""

from __future__ import annotations

from repro.errors import TransformError
from repro.ir.affine import Affine
from repro.ir.nodes import Assign, Loop
from repro.ir.visit import substitute_expr
from repro.transforms.legality import constraining_vectors

__all__ = ["unroll_and_jam", "unroll_and_jam_program"]


def unroll_and_jam(nest_root: Loop, factor: int, check: bool = True) -> Loop:
    """Unroll ``nest_root`` (the outer loop) by ``factor`` and jam.

    ``check=False`` skips the dependence-legality check only (mechanical
    restrictions still raise); the differential verifier uses it to
    force-apply rejected unrolls and measure over-conservatism.

    Raises:
        TransformError: illegal (dependence carried by the outer loop
            whose inner components could run backwards), non-unit step,
            symbolic bounds, or a non-divisible trip count.
    """
    if factor <= 0:
        raise TransformError(f"unroll factor must be positive, got {factor}")
    if factor == 1:
        return nest_root
    if nest_root.step != 1:
        raise TransformError(
            f"cannot unroll-and-jam loop {nest_root.var} with step {nest_root.step}"
        )
    trip = nest_root.constant_trip()
    if trip is None:
        raise TransformError(
            f"cannot unroll-and-jam loop {nest_root.var}: symbolic trip count"
        )
    if trip % factor:
        raise TransformError(
            f"loop {nest_root.var}: trip {trip} not divisible by {factor}"
        )
    if not nest_root.is_perfect_nest() or not isinstance(
        nest_root.body[0], Loop
    ):
        raise TransformError("unroll-and-jam needs a perfect nest of depth >= 2")
    # Inner bounds must not depend on the unrolled variable: the jammed
    # copy for iteration i+k would otherwise run under iteration i's
    # bounds, executing a different inner iteration space. (A mechanical
    # restriction, enforced regardless of ``check``.)
    for inner in nest_root.perfect_nest_loops()[1:]:
        if inner.lb.depends_on((nest_root.var,)) or inner.ub.depends_on(
            (nest_root.var,)
        ):
            raise TransformError(
                f"cannot unroll-and-jam {nest_root.var}: bounds of inner "
                f"loop {inner.var} depend on it (triangular nest)"
            )

    # Legality: jamming interleaves outer iterations i..i+factor-1 within
    # the inner loops. Any dependence carried by the outer loop must not
    # run backward in the inner loops: components after a '<' outer
    # component must not be negative ('>' or '*').
    for vec in constraining_vectors(nest_root) if check else ():
        outer = vec[0]
        carried = (isinstance(outer, int) and 0 < outer < factor) or (
            not isinstance(outer, int) and outer in ("<", "*")
        )
        if not carried:
            continue
        for comp in vec.components[1:]:
            if (isinstance(comp, int) and comp < 0) or comp in (">", "*"):
                raise TransformError(
                    f"dependence {vec} prevents unroll-and-jam of "
                    f"{nest_root.var} by {factor}"
                )

    var = nest_root.var

    def jam(node: "Loop | Assign") -> "list[Loop | Assign]":
        if isinstance(node, Loop):
            new_body: list[Loop | Assign] = []
            for child in node.body:
                new_body.extend(jam(child))
            return [node.with_body(new_body)]
        copies = []
        for offset in range(factor):
            replacement = Affine.var(var) + offset
            copy = Assign(
                node.lhs.substitute(var, replacement),
                substitute_expr(node.rhs, var, replacement),
                node.sid if offset == 0 else -1,
            )
            copies.append(copy)
        return copies

    new_inner: list[Loop | Assign] = []
    for child in nest_root.body:
        new_inner.extend(jam(child))
    return Loop(var, nest_root.lb, nest_root.ub, factor, tuple(new_inner))


def unroll_and_jam_program(program, outer_var: str, factor: int):
    """Apply unroll-and-jam to the top-level nest headed by ``outer_var``.

    Statement ids are renumbered program-wide (the jammed copies are new
    statements), so apply this as a terminal transformation — like scalar
    replacement — after Compound's bookkeeping is done.
    """
    new_body = []
    found = False
    for item in program.body:
        if isinstance(item, Loop) and item.var == outer_var:
            new_body.append(unroll_and_jam(item, factor))
            found = True
        else:
            new_body.append(item)
    if not found:
        raise TransformError(f"no top-level loop named {outer_var!r}")
    return program.with_body(new_body).renumbered()
