"""Tests for the index-path tree editor in repro.ir.visit."""

from repro.frontend import parse_program
from repro.ir import Assign, Loop, pretty_program
from repro.ir.visit import innermost_loops, loops_above, node_at, replace_at

SOURCE = """
PROGRAM p
PARAMETER N = 4
REAL A(N,N), B(N,N), C(N)
C(1) = 0.0
DO I = 1, N
  C(I) = 1.0
  DO J = 1, N
    A(I,J) = B(I,J)
    B(I,J) = 2.0
  ENDDO
  DO K = 1, N
    A(K,I) = 3.0
  ENDDO
ENDDO
END
"""


def program():
    return parse_program(SOURCE)


def stmt_text(node):
    assert isinstance(node, Assign)
    return f"{node.lhs} = {node.rhs}"


class TestProgramRoot:
    def test_node_at_each_depth(self):
        body = program().body
        assert stmt_text(node_at(body, (0,))) == "C(1) = 0.0"
        assert node_at(body, (1,)).var == "I"
        assert node_at(body, (1, 1)).var == "J"
        assert stmt_text(node_at(body, (1, 1, 1))) == "B(I, J) = 2.0"

    def test_loops_above(self):
        body = program().body
        assert loops_above(body, (0,)) == ()
        assert [l.var for l in loops_above(body, (1, 1, 0))] == ["I", "J"]
        assert [l.var for l in loops_above(body, (1, 2))] == ["I"]

    def test_replace_with_several_nodes_at_depth_two(self):
        prog = program()
        first, second = node_at(prog.body, (1, 1)).body
        body = replace_at(prog.body, (1, 1, 0), (first, first))
        assert isinstance(body, tuple)
        inner = node_at(body, (1, 1))
        assert inner.body == (first, first, second)
        # Everything off the path is kept as is.
        assert body[0] is prog.body[0]
        assert node_at(body, (1, 2)) is node_at(prog.body, (1, 2))

    def test_replace_with_none_deletes(self):
        prog = program()
        edited = prog.with_body(replace_at(prog.body, (1, 2), ()))
        assert [l.var for l in edited.top_loops[0].inner_loops] == ["J"]
        assert "DO K" not in pretty_program(edited)

    def test_replace_top_level(self):
        prog = program()
        nest = prog.body[1]
        body = replace_at(prog.body, (1,), nest.body)
        assert len(body) == 1 + len(nest.body)
        assert body[1:] == nest.body
        assert replace_at(prog.body, (0,), ()) == prog.body[1:]


class TestLoopRoot:
    def test_nest_is_addressed_under_a_one_item_body(self):
        nest = program().body[1]
        body = (nest,)
        assert node_at(body, (0,)) is nest
        assert node_at(body, (0, 1)).var == "J"
        assert loops_above(body, (0,)) == ()
        assert [l.var for l in loops_above(body, (0, 1, 0))] == ["I", "J"]

    def test_replace_the_root_itself(self):
        nest = program().body[1]
        a, b, c = nest.body
        assert replace_at((nest,), (0,), (b, c)) == (b, c)
        assert replace_at((nest,), (0,), ()) == ()

    def test_replace_at_depth_two(self):
        nest = program().body[1]
        (new,) = replace_at((nest,), (0, 1, 1), ())
        assert isinstance(new, Loop) and new.var == "I"
        assert len(new.body[1].body) == 1
        assert stmt_text(new.body[1].body[0]) == "A(I, J) = B(I, J)"
        assert new.body[2] is nest.body[2]


class TestInnermostLoops:
    def test_preorder_leaves(self):
        prog = program()
        assert [l.var for l in innermost_loops(prog)] == ["J", "K"]
        assert [l.var for l in innermost_loops(prog.body[1])] == ["J", "K"]
        assert innermost_loops(prog.body[1].body[1]) == [prog.body[1].body[1]]
