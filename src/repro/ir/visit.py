"""Tree walkers and query helpers over the IR.

These are free functions (not a visitor class hierarchy): the IR is small
and immutable, and most analyses want simple generators or index maps.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

from repro.errors import IRError
from repro.ir.affine import Affine, as_affine
from repro.ir.expr import Bin, Call, Const, Expr, Ref, Sym, Var
from repro.ir.nodes import Assign, Loop, Program

__all__ = [
    "iter_nodes",
    "iter_loops",
    "innermost_loops",
    "iter_statements",
    "enclosing_loops",
    "statement_positions",
    "loop_index_names",
    "map_statements",
    "rename_expr_indices",
    "rename_loops",
    "fresh_name",
    "substitute_expr",
]


def iter_nodes(root: "Program | Loop") -> Iterator["Loop | Assign"]:
    """Yield every node under ``root`` in pre-order (excluding ``root``
    itself when it is a Program)."""
    body = root.body
    for node in body:
        yield node
        if isinstance(node, Loop):
            yield from iter_nodes(node)


def iter_loops(root: "Program | Loop") -> Iterator[Loop]:
    """Yield every loop under ``root`` in pre-order."""
    if isinstance(root, Loop):
        yield root
    for node in root.body:
        if isinstance(node, Loop):
            yield from iter_loops(node)


def innermost_loops(root: "Program | Loop") -> list[Loop]:
    """The loops under ``root`` with no loop in their body, in pre-order."""
    return [
        loop
        for loop in iter_loops(root)
        if not any(isinstance(item, Loop) for item in loop.body)
    ]


def iter_statements(root: "Program | Loop") -> Iterator[Assign]:
    """Yield every statement under ``root`` in source order."""
    for node in root.body:
        if isinstance(node, Assign):
            yield node
        else:
            yield from iter_statements(node)


def enclosing_loops(root: "Program | Loop") -> dict[int, tuple[Loop, ...]]:
    """Map each statement sid to its enclosing loop chain, outermost first.

    When ``root`` is a Loop, the chain includes ``root``.
    """
    out: dict[int, tuple[Loop, ...]] = {}

    def walk(node: "Loop | Assign", chain: tuple[Loop, ...]) -> None:
        if isinstance(node, Assign):
            if node.sid in out:
                raise IRError(f"duplicate statement sid {node.sid}")
            out[node.sid] = chain
            return
        for child in node.body:
            walk(child, chain + (node,))

    if isinstance(root, Loop):
        for child in root.body:
            walk(child, (root,))
    else:
        for child in root.body:
            walk(child, ())
    return out


def statement_positions(root: "Program | Loop") -> dict[int, int]:
    """Map each statement sid to its 0-based source-order position."""
    return {stmt.sid: i for i, stmt in enumerate(iter_statements(root))}


def loop_index_names(root: "Program | Loop") -> frozenset[str]:
    """All loop index variable names appearing under ``root``."""
    names = {loop.var for loop in iter_loops(root)}
    return frozenset(names)


def map_statements(
    node: "Loop | Assign", fn: Callable[[Assign], Assign]
) -> "Loop | Assign":
    """Rebuild the tree with ``fn`` applied to every statement."""
    if isinstance(node, Assign):
        return fn(node)
    return node.with_body([map_statements(c, fn) for c in node.body])


def rename_loops(node: "Loop | Assign", mapping: Mapping[str, str]) -> "Loop | Assign":
    """Rename loop index variables throughout a subtree.

    Renames loop headers (var, bounds) and every occurrence in statement
    subscripts and value expressions.
    """
    if isinstance(node, Assign):
        return node.rename_indices(mapping)
    return Loop(
        mapping.get(node.var, node.var),
        node.lb.rename(mapping),
        node.ub.rename(mapping),
        node.step,
        tuple(rename_loops(child, mapping) for child in node.body),
    )


def fresh_name(base: str, used: set[str]) -> str:
    """A name not in ``used``, derived from ``base`` (``I``, ``I_2``, ...)."""
    if base not in used:
        return base
    counter = 2
    while f"{base}_{counter}" in used:
        counter += 1
    return f"{base}_{counter}"


def rename_expr_indices(expr: Expr, mapping: Mapping[str, str]) -> Expr:
    """Rename loop index variables inside an expression tree."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Sym):
        return Sym(mapping.get(expr.name, expr.name))
    if isinstance(expr, Var):
        return Var(mapping.get(expr.name, expr.name))
    if isinstance(expr, Bin):
        return Bin(
            expr.op,
            rename_expr_indices(expr.left, mapping),
            rename_expr_indices(expr.right, mapping),
        )
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(rename_expr_indices(a, mapping) for a in expr.args))
    if isinstance(expr, Ref):
        return expr.rename_indices(mapping)
    raise IRError(f"unknown expression node {expr!r}")


def substitute_expr(
    expr: Expr, name: str, replacement: Affine, values: bool = True
) -> Expr:
    """Substitute an affine form for an index variable.

    Rewrites both subscript occurrences and — when ``values`` is true —
    value-position occurrences (bare :class:`Var` nodes), lowering the
    replacement back to an expression tree for the latter.  Transformations
    that duplicate statements under a shifted index (unroll-and-jam) need
    the value rewrite: ``A(I) = I`` unrolled by 2 must read ``I + 1`` in
    the second copy, not ``I``.
    """
    if isinstance(expr, Var):
        if values and expr.name == name:
            from repro.ir.expr import affine_to_expr

            return affine_to_expr(as_affine(replacement))
        return expr
    if isinstance(expr, (Const, Sym)):
        return expr
    if isinstance(expr, Bin):
        return Bin(
            expr.op,
            substitute_expr(expr.left, name, replacement, values),
            substitute_expr(expr.right, name, replacement, values),
        )
    if isinstance(expr, Call):
        return Call(
            expr.fn,
            tuple(substitute_expr(a, name, replacement, values) for a in expr.args),
        )
    if isinstance(expr, Ref):
        return expr.substitute(name, replacement)
    raise IRError(f"unknown expression node {expr!r}")
