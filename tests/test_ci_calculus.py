"""Conditional-independence moves and the breadth-first derivation search."""

import pytest

from snakeweaver.ci_calculus import (
    CIStatement,
    derivation_closure,
    derive,
    mono_children,
    rev_mono,
)
from snakeweaver.lattice import GeometryError
from snakeweaver.marginal_store import Window, c_m_conditions
from snakeweaver.operator_core import cmi
from snakeweaver.oracles import gen_row_markov

A, B, C, D = (0, 0), (1, 0), (2, 0), (3, 0)

# the level-1 snake statement, cluster-local coordinates of the anchor-(2,0) cluster
SNAKE_TARGET = CIStatement((((2, 1)),), (((1, 1)),), (((0, 1)),))


def cluster_axioms(anchor):
    return [CIStatement.from_condition(c) for c in c_m_conditions(anchor)]


def test_statement_canonical_orientation():
    s1 = CIStatement(((A),), ((B),), ((C),))
    s2 = CIStatement(((C),), ((B),), ((A),))
    assert s1 == s2
    assert s1.A == ((0, 0),)  # lexicographically smaller side first


def test_statement_validation():
    with pytest.raises(GeometryError):
        CIStatement(((A),), ((A),), ((C),))  # overlap
    with pytest.raises(GeometryError):
        CIStatement((), ((B),), ((C),))  # empty A


def test_mono_children_examples():
    s = CIStatement(((A),), ((B),), (C, D))  # I(A : CD | B)
    kids = mono_children(s)
    assert CIStatement(((A),), ((B),), ((C),)) in kids      # drop D
    assert CIStatement(((A),), (B, D), ((C),)) in kids      # absorb D into B
    assert CIStatement(((A),), ((B),), ((D),)) in kids
    # singleton A and C: no proper nonempty subsets to move
    assert mono_children(CIStatement(((A),), ((B),), ((C),))) == set()


def test_rev_mono_example():
    s1 = CIStatement(((A),), (B, C), ((D),))  # I(A : D | B u C)
    s2 = CIStatement(((A),), ((B),), ((C),))  # I(A : C | B)
    out = rev_mono(s1, s2)
    assert out == CIStatement(((A),), ((B),), (C, D))
    assert rev_mono(s2, s2) is None  # B != B u C


def test_rev_mono_outputs_regenerate_inputs():
    s1 = CIStatement(((A),), (B, C), ((D),))
    s2 = CIStatement(((A),), ((B),), ((C),))
    out = rev_mono(s1, s2)
    kids = mono_children(out)
    assert s1 in kids
    assert s2 in kids


def test_rev_mono_reproduces_paper_chain_step():
    # from the anchor-(2,0) cluster: the shrunk second diagram plus the rotated
    # first diagram of the cluster anchored one step down-left
    shrunk = CIStatement(((2, 0), (2, 1)), ((1, 0), (1, 1)), ((0, 1),))
    neighbor = CIStatement(((1, 0),), ((1, 1),), ((0, 1),))
    out = rev_mono(shrunk, neighbor)
    assert out == CIStatement(((0, 1),), ((1, 1),), ((1, 0), (2, 0), (2, 1)))
    assert neighbor in cluster_axioms((1, -1))


def test_snake_statement_needs_the_neighbor_cluster():
    closure = derivation_closure(cluster_axioms((2, 0)), max_depth=8)
    assert SNAKE_TARGET not in closure  # one cluster alone cannot see it
    minimal = cluster_axioms((2, 0)) + cluster_axioms((1, -1))
    trace = derive(minimal, SNAKE_TARGET, max_depth=6)
    assert trace is not None
    assert [step.move for step in trace] == ["mono", "revmono", "mono"]


def test_derive_trivial_cases():
    axioms = cluster_axioms((2, 0))
    assert derive(axioms, axioms[0]) == []
    assert derive([], SNAKE_TARGET) is None


def test_a_target_from_reverse_monotonicity_stops_the_closure():
    # I(A:C|B) and I(A:D|BC) have no mono child; one revmono move gives I(A:CD|B), and the search stops there
    axioms = [CIStatement(((A),), ((B),), ((C),)), CIStatement(((A),), (B, C), ((D),))]
    target = CIStatement(((A),), ((B),), (C, D))
    [step] = derive(axioms, target)
    assert (step.move, step.inputs, step.output) == ("revmono", tuple(axioms), target)
    assert len(derivation_closure(axioms, stop_at=target)) == 3
    assert len(derivation_closure(axioms)) == 5


def test_derive_deterministic():
    axioms = cluster_axioms((2, 0)) + cluster_axioms((1, -1))
    t1 = derive(axioms, SNAKE_TARGET, max_depth=6)
    t2 = derive(axioms, SNAKE_TARGET, max_depth=6)
    assert t1 == t2


def test_trace_json_shape():
    axioms = cluster_axioms((2, 0)) + cluster_axioms((1, -1))
    trace = derive(axioms, SNAKE_TARGET, max_depth=6)
    for step in trace:
        assert step.move in ("mono", "revmono")
        assert len(step.inputs) == (1 if step.move == "mono" else 2)
        assert all(isinstance(s, CIStatement) for s in step.inputs)
        assert isinstance(step.output, CIStatement)


def test_derived_statements_hold_numerically():
    # soundness spot check: depth-2 closure of one cluster evaluated on oracle data
    axioms = cluster_axioms((2, 0))
    closure = derivation_closure(axioms, max_depth=2)
    ms = gen_row_markov(Window(3, 3), seed=1).marginal_set()
    marg = ms.marginals[(2, 0)]
    worst = max(abs(cmi(marg, s.A, s.B, s.C)) for s in closure)
    assert worst <= 1e-9
