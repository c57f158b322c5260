"""Statement-pair dependence driver.

Walks a program region, runs :func:`analyze_ref_pair` on every pair of
references to the same array, orients the resulting vectors, and produces
:class:`Dependence` records. True (flow), anti, output, and — optionally —
input dependences are reported; input dependences carry reuse information
for the cost model's ``RefGroup`` but never constrain legality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.ir.expr import Ref
from repro.ir.nodes import Assign, Loop, Program
from repro.ir.visit import enclosing_loops, iter_statements, statement_positions
from repro.dependence.tests import analyze_ref_pair
from repro.dependence.vector import DIR_GT, DIR_LT, DIR_STAR, DepVector

__all__ = ["Dependence", "RefSite", "region_dependences"]

#: Dependence kinds, named from the source access to the sink access.
FLOW = "flow"  # write -> read
ANTI = "anti"  # read -> write
OUTPUT = "output"  # write -> write
INPUT = "input"  # read -> read (reuse only)


@dataclass(frozen=True)
class RefSite:
    """One reference occurrence: which statement, which ref, read or write.

    ``slot`` is the index of the reference inside ``Assign.refs`` (0 is the
    write), making every occurrence uniquely addressable.
    """

    sid: int
    slot: int
    ref: Ref
    is_write: bool


@dataclass(frozen=True)
class Dependence:
    """An oriented dependence between two reference occurrences.

    ``vector`` has one component per loop *common* to source and sink,
    outermost first; ``loop_vars`` names those loops. Loop-independent
    dependences have an all-zero / all-'=' vector.
    """

    kind: str
    source: RefSite
    sink: RefSite
    vector: DepVector
    loop_vars: tuple[str, ...]

    @property
    def is_loop_independent(self) -> bool:
        return self.vector.is_loop_independent()

    def carried_level(self) -> int | None:
        """1-based common-loop level carrying the dependence (None = LI)."""
        return self.vector.carried_level()

    @property
    def constrains_legality(self) -> bool:
        """Input dependences never constrain transformations."""
        return self.kind != INPUT

    def __str__(self) -> str:
        arrow = {FLOW: "->", ANTI: "-/>", OUTPUT: "=>", INPUT: "~>"}[self.kind]
        return (
            f"{self.source.ref}@S{self.source.sid} {arrow} "
            f"{self.sink.ref}@S{self.sink.sid} {self.vector}"
        )


def _ref_sites(stmt: Assign) -> list[RefSite]:
    sites = []
    for slot, ref in enumerate(stmt.refs):
        sites.append(RefSite(stmt.sid, slot, ref, is_write=(slot == 0)))
    return sites


def _kind(src_write: bool, dst_write: bool) -> str:
    if src_write and dst_write:
        return OUTPUT
    if src_write:
        return FLOW
    if dst_write:
        return ANTI
    return INPUT


def region_dependences(
    root: "Program | Loop", include_inputs: bool = False
) -> list[Dependence]:
    """All dependences between statements inside ``root``.

    When ``root`` is a :class:`Loop`, that loop and its inner loops form
    the common nesting; when it is a :class:`Program`, statements in
    disjoint top-level nests share no loops and their dependences are
    loop-independent orderings at nesting depth zero.
    """
    from repro.obs import get_obs

    chains = enclosing_loops(root)
    positions = statement_positions(root)
    statements = list(iter_statements(root))
    deps: list[Dependence] = []

    with get_obs().span("dependence.region", statements=len(statements)):
        for i, stmt_a in enumerate(statements):
            for stmt_b in statements[i:]:
                deps.extend(
                    _pair_dependences(
                        stmt_a,
                        stmt_b,
                        chains[stmt_a.sid],
                        chains[stmt_b.sid],
                        positions,
                        include_inputs,
                    )
                )
    return deps


def _pair_dependences(
    stmt_a: Assign,
    stmt_b: Assign,
    chain_a: tuple[Loop, ...],
    chain_b: tuple[Loop, ...],
    positions: dict[int, int],
    include_inputs: bool,
) -> Iterator[Dependence]:
    # Common prefix of the two loop chains.
    k = 0
    while k < len(chain_a) and k < len(chain_b) and chain_a[k] is chain_b[k]:
        k += 1
    common = chain_a[:k]
    only_a = chain_a[k:]
    only_b = chain_b[k:]
    loop_vars = tuple(l.var for l in common)
    same_stmt = stmt_a.sid == stmt_b.sid

    sites_a = _ref_sites(stmt_a)
    sites_b = _ref_sites(stmt_b)

    for site_a in sites_a:
        for site_b in sites_b:
            if same_stmt and site_b.slot < site_a.slot:
                continue  # each unordered pair once
            if not (site_a.is_write or site_b.is_write):
                if not include_inputs:
                    continue
                if site_a.ref.array != site_b.ref.array:
                    continue
            if site_a.ref.array != site_b.ref.array:
                continue
            identical_occurrence = same_stmt and site_a.slot == site_b.slot
            vectors = analyze_ref_pair(
                site_a.ref, site_b.ref, common, only_a, only_b
            )
            kind_fwd = _kind(site_a.is_write, site_b.is_write)
            kind_bwd = _kind(site_b.is_write, site_a.is_write)
            for vec in vectors:
                yield from _orient(
                    site_a,
                    site_b,
                    vec,
                    loop_vars,
                    positions,
                    kind_fwd,
                    kind_bwd,
                    identical_occurrence,
                    same_stmt,
                )


def _orient(
    site_a: RefSite,
    site_b: RefSite,
    vec: DepVector,
    loop_vars: tuple[str, ...],
    positions: dict[int, int],
    kind_fwd: str,
    kind_bwd: str,
    identical_occurrence: bool,
    same_stmt: bool,
) -> Iterator[Dependence]:
    """Turn a B-minus-A vector into oriented Dependence records."""
    if vec.is_lex_positive():
        yield Dependence(kind_fwd, site_a, site_b, vec, loop_vars)
        return
    if vec.is_lex_negative():
        yield Dependence(kind_bwd, site_b, site_a, vec.negated(), loop_vars)
        return
    if vec.is_loop_independent():
        if identical_occurrence:
            return  # the access itself, not a dependence
        if same_stmt:
            # Within one instance reads precede the write.
            read, write = (
                (site_a, site_b) if site_b.is_write else (site_b, site_a)
            )
            if site_a.is_write and site_b.is_write:
                return  # single write slot; unreachable for sane IR
            if not (site_a.is_write or site_b.is_write):
                yield Dependence(INPUT, site_a, site_b, vec, loop_vars)
                return
            yield Dependence(_kind(read.is_write, write.is_write), read, write, vec, loop_vars)
            return
        first, second = (
            (site_a, site_b)
            if positions[site_a.sid] < positions[site_b.sid]
            else (site_b, site_a)
        )
        yield Dependence(
            _kind(first.is_write, second.is_write), first, second, vec, loop_vars
        )
        return
    # Ambiguous: the leading '*' admits <, 0 and > cases. Split the first
    # ambiguous component and orient each case; deeper '*'s are harmless
    # once a leading '<' decides the orientation.
    split_at = next(
        i for i, comp in enumerate(vec.components) if vec.direction(i) == DIR_STAR
    )
    for refined in (DIR_LT, 0, DIR_GT):
        comps = list(vec.components)
        comps[split_at] = refined
        yield from _orient(
            site_a,
            site_b,
            DepVector(tuple(comps)),
            loop_vars,
            positions,
            kind_fwd,
            kind_bwd,
            identical_occurrence,
            same_stmt,
        )
