"""Reachability solver: exact toys, qualitative states, cyclic accuracy."""

import hashlib
import struct
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from _qualitative import prob0_states, prob1_states
from qkdmc.bb84 import Bb84Params, Passthrough, generate
from qkdmc.explorer import Dtmc, build
from qkdmc.lang import ast, parse, validate
from qkdmc.properties import parse_property
from qkdmc.solver import prob_until
from qkdmc.sweep import DETECTED_PROPERTY, HEAVY_NOISE_CHANNEL

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
        # the self-loop is divided out exactly: 0.5 over the 0.5 leaving is 1.0
        report, _ = solve(GEOMETRIC, 'P=? [ F "t" ]')
        assert report.probability == 1.0

    @pytest.mark.parametrize(
        "updates",
        [
            # 1 - 0.7 is 0.30000000000000004, and 0.3 over it 0.9999999999999999.
            "0.7:(x'=0) + 0.3:(x'=1)",
            # 1 - 1.0 is 0.0: the self-loop must not divide by it.
            "1:(x'=0) + 1e-200:(x'=1)",
        ],
    )
    def test_a_self_loop_divides_by_the_mass_leaving_it(self, updates):
        report, _ = solve(
            f"dtmc\nmodule m\n  x : [0..1] init 0;\n  [] x=0 -> {updates};\nendmodule\n",
            "P=? [ F (x=1) ]",
        )
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
        # A cyclic SCC that cannot reach the target is settled without solving.
        report, _ = solve(
            "dtmc\nmodule m\n  x : [0..2] init 0;\n"
            "  [] x=0 -> (x'=1);\n  [] x=1 -> (x'=0);\nendmodule\n"
            'label "t" = x=2;\n',
            'P=? [ F "t" ]',
        )
        assert report.probability == 0.0
        assert report.iterations == 0
        assert report.prob0_count == 2

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
        assert {dtmc.state(i) for i in zero} == {(2,)}

    def test_prob1_contains_the_target_and_sure_predecessors(self):
        dtmc = build(validate(parse(GEOMETRIC)))
        query = parse_property('P=? [ F "t" ]')
        assert prob1_states(dtmc, query) == frozenset(range(dtmc.state_count))

    def test_constraint_violating_states_are_prob0(self):
        dtmc = build(validate(parse(UNTIL_TOY)))
        query = parse_property('P=? [ "safe" U "goal" ]')
        zero = prob0_states(dtmc, query)
        assert {dtmc.state(i) for i in zero} == {(1,)}

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


# sha256 of each solved vector as little-endian doubles, recorded before the
# search took its roots from the highest index: any change to a value's bits
# shows here. The protocol models are those of test_explorer's export digests.
VALUE_DIGESTS = [
    (
        Bb84Params(photons=70, channel=HEAVY_NOISE_CHANNEL, eve_q=0.5),
        DETECTED_PROPERTY,
        "95cc2447872337b9f7cd4ff2d4753d3e7748ae1adf2288fbb8c29f942426e107",
    ),
    (
        Bb84Params(
            photons=40,
            channel=HEAVY_NOISE_CHANNEL,
            eve_q=0.5,
            bias=0.3,
            passthrough=Passthrough.SOURCE_VALUES,
        ),
        DETECTED_PROPERTY,
        "fb3be9915982bd5cd29c6abc6e47e351d2b3918b694dcdd85de6d5c70e3e0c46",
    ),
    (WALK, 'P=? [ F "win" ]', "fb1cb48f34b5e30c8711cd27793233498ad63b3dfdfaaf28e66a71bc230c2e85"),
]


class TestPinnedValues:
    @pytest.mark.parametrize("model, prop, digest", VALUE_DIGESTS)
    def test_solved_vector_bits(self, model, prop, digest):
        tree = parse(model if isinstance(model, str) else generate(model))
        report = prob_until(build(validate(tree)), parse_property(prop))
        packed = struct.pack(f"<{len(report.values)}d", *report.values)
        assert hashlib.sha256(packed).hexdigest() == digest


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

    def test_a_ring_entered_at_one_state_is_one_scc(self):
        # 0 -> 1 -> 2 -> 0, and 2 exits to the goal 3. The search meets the
        # back edge 2 -> 0 two levels below 0, so 1 must inherit 2's low
        # link; split into {0} and {1, 2}, the ring would settle at 0.5.
        report, _ = solve(
            "dtmc\nmodule m\n  x : [0..3] init 0;\n"
            "  [] x=0 -> (x'=1);\n  [] x=1 -> (x'=2);\n"
            "  [] x=2 -> 0.5:(x'=0) + 0.5:(x'=3);\nendmodule\n"
            'label "goal" = x=3;\n',
            'P=? [ F "goal" ]',
        )
        assert report.values[:3] == pytest.approx([1.0, 1.0, 1.0], abs=1e-15)
        assert report.prob1_count == 4


def _one_of(states: frozenset[int]) -> ast.Expr:
    """The label x=a | x=b | ... over the given values of x; false if none."""
    terms = [ast.Binary("=", ast.Name("x"), ast.IntLit(s)) for s in sorted(states)]
    expr: ast.Expr = terms[0] if terms else ast.BoolLit(False)
    for term in terms[1:]:
        expr = ast.Binary("|", expr, term)
    return expr


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
    labels = {"t": _one_of(target), "c": _one_of(constraint or frozenset())}
    row_starts = array("q", [0])
    for row in rows:
        row_starts.append(row_starts[-1] + len(row))
    dtmc = Dtmc(
        variables=(ast.VarDecl("x", 0, size - 1, 0),),
        constants={},
        codes=array("Q", states),  # x is the only field, at offset 0
        initial=0,
        row_starts=row_starts,
        targets=array("q", [t for row in rows for t, _ in row]),
        probs=array("d", [prob for row in rows for _, prob in row]),
        labels=labels,
        deadlocks=frozenset(),
    )
    prop = 'P=? [ F "t" ]' if constraint is None else 'P=? [ "c" U "t" ]'
    return dtmc, parse_property(prop), target, constraint


def _backward(seeds: set[int], allowed: set[int], dtmc: Dtmc) -> set[int]:
    """Seeds plus every state reaching them through `allowed` states."""
    reach = set(seeds)
    grew = True
    while grew:
        grew = False
        for s in range(dtmc.state_count):
            if s not in reach and s in allowed and any(t in reach for t, _ in dtmc.row(s)):
                reach.add(s)
                grew = True
    return reach


def _exact_values(dtmc: Dtmc, target, zero) -> list[Fraction]:
    """x = P x with targets at 1 and prob0 at 0, by Fraction Gaussian elimination."""
    unknowns = [s for s in range(dtmc.state_count) if s not in target and s not in zero]
    slot = {s: i for i, s in enumerate(unknowns)}
    size = len(unknowns)
    matrix = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for s in unknowns:
        line = matrix[slot[s]]
        line[slot[s]] += 1
        for t, prob in dtmc.row(s):
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
    values = [Fraction(1) if s in target else Fraction(0) for s in range(dtmc.state_count)]
    for s in unknowns:
        values[s] = matrix[slot[s]][size] / matrix[slot[s]][slot[s]]
    return values


class TestAgainstExactArithmetic:
    @given(small_chains())
    def test_values_and_qualitative_sets_match_a_brute_force_solve(self, case):
        dtmc, query, target, constraint = case
        everything = set(range(dtmc.state_count))
        allowed = everything if constraint is None else set(constraint)
        zero = everything - _backward(set(target), allowed, dtmc)
        one = everything - _backward(zero, allowed - target, dtmc)
        assert prob0_states(dtmc, query) == zero
        assert prob1_states(dtmc, query) == one

        report = prob_until(dtmc, query)
        exact = _exact_values(dtmc, target, zero)
        for value, truth in zip(report.values, exact):
            assert abs(value - float(truth)) <= 1e-12
        assert report.prob0_count == len(zero)
        assert report.prob1_count == len(one)


def _chain(rows: list[tuple[tuple[int, float], ...]], target, constraint) -> tuple:
    """(Dtmc, query, target, constraint) with the given (target, probability)
    rows, each sorted by target, over one variable x whose value is the state."""
    size = len(rows)
    row_starts = array("q", [0])
    for row in rows:
        row_starts.append(row_starts[-1] + len(row))
    dtmc = Dtmc(
        variables=(ast.VarDecl("x", 0, size - 1, 0),),
        constants={},
        codes=array("Q", range(size)),  # x is the only field, at offset 0
        initial=0,
        row_starts=row_starts,
        targets=array("q", [t for row in rows for t, _ in row]),
        probs=array("d", [prob for row in rows for _, prob in row]),
        labels={"t": _one_of(target), "c": _one_of(constraint or frozenset())},
        deadlocks=frozenset(),
    )
    prop = 'P=? [ F "t" ]' if constraint is None else 'P=? [ "c" U "t" ]'
    return dtmc, parse_property(prop), target, constraint


@st.composite
def bfs_chains(draw):
    """A chain over at most 30 states shaped like a BFS build: most edges go
    to a higher index, a few go back or loop on their state.

    The solver takes its roots from the top, so a row often reaches settled
    states (higher ones, targets, states outside the constraint) beside
    unsettled lower ones. Rows spread 1, 2 or 4 dyadic units, as in
    `small_chains`.
    """
    size = draw(st.integers(1, 30))
    rows = []
    for s in range(size):
        units = draw(st.sampled_from([1, 2, 4]))
        picks = []
        for _ in range(units):
            way = draw(st.integers(0, 9)) if s < size - 1 else draw(st.integers(0, 1))
            if way == 0:
                picks.append(s)
            elif way == 1:
                picks.append(draw(st.integers(0, s)))
            else:
                picks.append(draw(st.integers(s + 1, size - 1)))
        rows.append(tuple((t, picks.count(t) / units) for t in sorted(set(picks))))
    states = range(size)
    target = draw(st.frozensets(st.sampled_from(states), max_size=3))
    constraint = draw(st.none() | st.frozensets(st.sampled_from(states), min_size=size // 2))
    return _chain(rows, target, constraint)


def _assert_matches_the_references(dtmc, query, target, constraint):
    everything = set(range(dtmc.state_count))
    allowed = everything if constraint is None else set(constraint)
    zero = everything - _backward(set(target), allowed, dtmc)
    one = everything - _backward(zero, allowed - target, dtmc)
    report = prob_until(dtmc, query)
    exact = _exact_values(dtmc, target, zero)
    for value, truth in zip(report.values, exact):
        assert abs(value - float(truth)) <= 1e-12
    assert prob0_states(dtmc, query) == zero
    assert prob1_states(dtmc, query) == one
    assert report.prob0_count == len(zero)
    assert report.prob1_count == len(one)


class TestBfsShapedChains:
    @given(bfs_chains())
    def test_values_and_qualitative_sets_match_a_brute_force_solve(self, case):
        _assert_matches_the_references(*case)

    def test_a_root_carries_its_settled_mass_into_the_search(self):
        # Root 3 reads the target 0 (settled) and then descends to 1, which
        # reads 0 and then descends to the sink 2. Each must keep the mass of
        # the edges it read before descending: 3 settles at 1/4 + 3/4 * 1/2.
        rows = [((0, 1.0),), ((0, 0.5), (2, 0.5)), ((2, 1.0),), ((0, 0.25), (1, 0.75))]
        case = _chain(rows, frozenset({0}), None)
        _assert_matches_the_references(*case)
        report = prob_until(case[0], case[1])
        assert tuple(report.values) == (1.0, 0.5, 0.0, 0.625)
        assert (report.prob0_count, report.prob1_count) == (1, 1)
