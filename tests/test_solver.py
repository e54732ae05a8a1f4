"""Reachability solver: exact toys, qualitative states, cyclic accuracy."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qkdmc.explorer import Dtmc, build
from qkdmc.lang import ast, parse, validate
from qkdmc.properties import parse_property
from qkdmc.solver import prob0_states, prob1_states, prob_until

CHAIN = (
    "dtmc\nmodule m\n  x : [0..2] init 0;\n"
    "  [] x=0 -> 0.3:(x'=1) + 0.7:(x'=2);\nendmodule\n"
    'label "t" = x=1;\n'
)

GEOMETRIC = (
    "dtmc\nmodule m\n  x : [0..1] init 0;\n"
    "  [] x=0 -> 0.5:(x'=0) + 0.5:(x'=1);\nendmodule\n"
    'label "t" = x=1;\n'
)

# two states feeding each other, with a small escape to goal or sink on each
# visit: the smallest cyclic SCC
PING_PONG = (
    "dtmc\nmodule m\n  x : [0..3] init 0;\n"
    "  [] x=0 -> 0.9:(x'=1) + 0.1:(x'=2);\n"
    "  [] x=1 -> 0.9:(x'=0) + 0.1:(x'=3);\nendmodule\n"
    'label "goal" = x=2;\n'
)

UNTIL_TOY = (
    "dtmc\nmodule m\n  x : [0..3] init 0;\n"
    "  [] x=0 -> 0.5:(x'=1) + 0.5:(x'=2);\n"
    "  [] x=1 -> (x'=3);\n  [] x=2 -> (x'=3);\nendmodule\n"
    'label "safe" = !x=1;\nlabel "goal" = x=3;\n'
)


WALK = (
    "dtmc\nmodule walk\n  x : [0..200] init 100;\n"
    "  [] x>0 & x<200 -> 0.5:(x'=x+1) + 0.5:(x'=x-1);\nendmodule\n"
    'label "win" = x=200;\n'
)

# Interior moves one step in each direction; the four sides absorb. From the
# centre the sides are hit with equal probability, so P(x=20 first) = 1/4.
GRID = (
    "dtmc\nmodule grid\n  x : [0..20] init 10;\n  y : [0..20] init 10;\n"
    "  [] x>0 & x<20 & y>0 & y<20 -> 0.25:(x'=x+1) + 0.25:(x'=x-1)"
    " + 0.25:(y'=y+1) + 0.25:(y'=y-1);\nendmodule\n"
    'label "win" = x=20;\n'
)


def solve(source: str, prop: str):
    dtmc = build(validate(parse(source)))
    return prob_until(dtmc, parse_property(prop)), dtmc


class TestExactToys:
    def test_one_step_chain(self):
        report, _ = solve(CHAIN, 'P=? [ F "t" ]')
        assert report.probability == 0.3
        assert report.iterations <= 3

    def test_geometric_self_loop_reaches_with_certainty(self):
        # the diagonal is eliminated exactly, so 0.5/(1-0.5) lands on 1.0
        report, _ = solve(GEOMETRIC, 'P=? [ F "t" ]')
        assert report.probability == 1.0

    def test_initial_state_inside_target(self):
        report, _ = solve(
            'dtmc\nmodule m\n  x : [0..1] init 1;\nendmodule\nlabel "t" = x=1;\n',
            'P=? [ F "t" ]',
        )
        assert report.probability == 1.0
        assert report.iterations == 0

    def test_unreachable_target_is_exactly_zero(self):
        report, _ = solve(
            'dtmc\nmodule m\n  x : [0..1] init 0;\nendmodule\nlabel "t" = x=1;\n',
            'P=? [ F "t" ]',
        )
        assert report.probability == 0.0
        assert report.iterations == 0
        assert report.prob0_count == 1

    def test_cyclic_pair_matches_the_closed_form(self):
        # P(x0) = 0.1 + 0.81 P(x0)  =>  10/19
        report, _ = solve(PING_PONG, 'P=? [ F "goal" ]')
        assert report.probability == pytest.approx(10 / 19, abs=1e-14)

    def test_until_excludes_paths_leaving_the_constraint(self):
        report, _ = solve(UNTIL_TOY, 'P=? [ "safe" U "goal" ]')
        assert report.probability == pytest.approx(0.5, abs=1e-12)

    def test_expression_operands(self):
        report, _ = solve(CHAIN, "P=? [ F (x=1) ]")
        assert report.probability == 0.3


class TestQualitativeStates:
    def test_absorbing_non_target_is_in_prob0(self):
        dtmc = build(validate(parse(CHAIN)))
        query = parse_property('P=? [ F "t" ]')
        zero = prob0_states(dtmc, query)
        assert {dtmc.states[i] for i in zero} == {(2,)}

    def test_prob1_contains_the_target_and_sure_predecessors(self):
        dtmc = build(validate(parse(GEOMETRIC)))
        query = parse_property('P=? [ F "t" ]')
        assert prob1_states(dtmc, query) == frozenset(range(dtmc.state_count))

    def test_constraint_violating_states_are_prob0(self):
        dtmc = build(validate(parse(UNTIL_TOY)))
        query = parse_property('P=? [ "safe" U "goal" ]')
        zero = prob0_states(dtmc, query)
        assert {dtmc.states[i] for i in zero} == {(1,)}

    def test_report_counts_match_the_sets(self):
        dtmc = build(validate(parse(CHAIN)))
        query = parse_property('P=? [ F "t" ]')
        report = prob_until(dtmc, query)
        assert report.prob0_count == len(prob0_states(dtmc, query))
        assert report.prob1_count == len(prob1_states(dtmc, query))


class TestConvergence:
    def test_residual_below_tolerance_at_the_end(self):
        report, _ = solve(PING_PONG, 'P=? [ F "goal" ]')
        assert report.residual < 1e-12


class TestCyclicAccuracy:
    def test_symmetric_walk_is_exact(self):
        report, dtmc = solve(WALK, 'P=? [ F "win" ]')
        assert dtmc.state_count == 201
        assert report.probability == pytest.approx(0.5, abs=1e-14)
        assert report.residual < 1e-14
        assert report.iterations == 1

    def test_grid_walk_hits_each_side_equally(self):
        report, _ = solve(GRID, 'P=? [ F "win" ]')
        assert report.probability == pytest.approx(0.25, abs=1e-13)


@st.composite
def small_chains(draw):
    """(Dtmc, query) over at most 8 states with arbitrary cycles.

    Each row spreads 1, 2, 4 or 8 equal dyadic units over random successors,
    so every probability and every row sum is exact in binary.
    """
    size = draw(st.integers(1, 8))
    rows = []
    for _ in range(size):
        units = draw(st.sampled_from([1, 2, 4, 8]))
        picks = draw(st.lists(st.integers(0, size - 1), min_size=units, max_size=units))
        rows.append(tuple((t, picks.count(t) / units) for t in sorted(set(picks))))
    states = range(size)
    target = draw(st.frozensets(st.sampled_from(states)))
    constraint = draw(st.none() | st.frozensets(st.sampled_from(states)))
    labels = {"t": target, "c": constraint if constraint is not None else frozenset()}
    dtmc = Dtmc(
        variables=(ast.VarDecl("x", 0, size - 1, 0),),
        constants={},
        states=tuple((s,) for s in states),
        initial=0,
        rows=tuple(rows),
        labels=labels,
        deadlocks=frozenset(),
    )
    prop = 'P=? [ F "t" ]' if constraint is None else 'P=? [ "c" U "t" ]'
    return dtmc, parse_property(prop), target, constraint


def _backward(seeds: set[int], allowed: set[int], rows) -> set[int]:
    """Seeds plus every state reaching them through `allowed` states."""
    reach = set(seeds)
    grew = True
    while grew:
        grew = False
        for s, row in enumerate(rows):
            if s not in reach and s in allowed and any(t in reach for t, _ in row):
                reach.add(s)
                grew = True
    return reach


def _exact_values(rows, target, zero) -> list[Fraction]:
    """x = P x with targets at 1 and prob0 at 0, by Fraction Gaussian elimination."""
    unknowns = [s for s in range(len(rows)) if s not in target and s not in zero]
    slot = {s: i for i, s in enumerate(unknowns)}
    size = len(unknowns)
    matrix = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for s in unknowns:
        line = matrix[slot[s]]
        line[slot[s]] += 1
        for t, prob in rows[s]:
            if t in target:
                line[size] += Fraction(prob)
            elif t in slot:
                line[slot[t]] -= Fraction(prob)
    for col in range(size):
        pivot = next(r for r in range(col, size) if matrix[r][col] != 0)
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        for r in range(size):
            if r != col and matrix[r][col] != 0:
                factor = matrix[r][col] / matrix[col][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[col])]
    values = [Fraction(1) if s in target else Fraction(0) for s in range(len(rows))]
    for s in unknowns:
        values[s] = matrix[slot[s]][size] / matrix[slot[s]][slot[s]]
    return values


class TestAgainstExactArithmetic:
    @given(small_chains())
    def test_values_and_qualitative_sets_match_a_brute_force_solve(self, case):
        dtmc, query, target, constraint = case
        everything = set(range(dtmc.state_count))
        allowed = everything if constraint is None else set(constraint)
        zero = everything - _backward(set(target), allowed, dtmc.rows)
        one = everything - _backward(zero, allowed - target, dtmc.rows)
        assert prob0_states(dtmc, query) == zero
        assert prob1_states(dtmc, query) == one

        report = prob_until(dtmc, query)
        exact = _exact_values(dtmc.rows, target, zero)
        for value, truth in zip(report.values, exact):
            assert abs(value - float(truth)) <= 1e-12
        assert report.prob0_count == len(zero)
        assert report.prob1_count == len(one)
