"""What every record class promises: immutability, equality, hashing, repr,
defaults and input checks. These hold whatever implements the records.
"""

import copy
import inspect
import pickle

import pytest

from qkdmc import oracle
from qkdmc.bb84 import Bb84Params, Passthrough
from qkdmc.explorer import build
from qkdmc.lang import ast, parse, validate
from qkdmc.properties import ExprOperand, LabelOperand, parse_property
from qkdmc.solver import SolveReport, prob_until
from qkdmc.sweep import CurveSpec, FigureResult, FigureSpec, ResultRow, SweepSpec

SOURCE = """dtmc
const int k = 1;
module m
  x : [0..2] init 0;
  [] x<2 -> 0.5:(x'=x+1) + 0.5:(x'=x);
endmodule
label "top" = x=2;
"""

P = ast.Pos(3, 4)
X = ast.Name("x", P)
ONE = ast.IntLit(1, P)

# One instance of each syntax node class, with a position.
NODES = [
    ONE,
    ast.RealLit(0.5, P),
    ast.BoolLit(True, P),
    X,
    ast.Unary("-", ONE, P),
    ast.Binary("+", X, ONE, P),
    ast.Assignment("x", ONE, P),
    ast.Update(None, (ast.Assignment("x", ONE, P),), P),
    ast.Command(None, ast.BoolLit(True), (ast.Update(None, ()),), P),
    ast.VarDecl("x", 0, 2, 0, P),
    ast.ConstDecl("k", "int", ONE, P),
    ast.Module("m", (), (), P),
    ast.LabelDef("top", X, P),
    ast.Model((), (), (), P),
]


def fields(record) -> dict:
    """A record's fields by name, read through its constructor's parameters."""
    return {name: getattr(record, name) for name in inspect.signature(type(record)).parameters}


def instances():
    """One instance of every record class in the package."""
    vm = validate(parse(SOURCE))
    dtmc = build(vm)
    query = parse_property('P=? [ F "top" ]')
    report = prob_until(dtmc, query)
    row = ResultRow(1, 0.5, 0.5, 0.0, 1, 2.0)
    curve = CurveSpec("perfect", (1.0, 0.0, 0.0, 0.0), 1.0)
    figure = FigureSpec("f", 1, 2, (curve,))
    return [
        ast.Pos(1, 2),
        ast.Expr(),
        *NODES,
        vm,
        dtmc,
        dtmc.terms,
        report,
        LabelOperand("top"),
        ExprOperand(X),
        query,
        SweepSpec(1, 3),
        row,
        curve,
        figure,
        FigureResult(figure, ((curve, (row,)),), ()),
        Bb84Params(3),
        oracle.photon_outcomes()[0],
    ]


@pytest.mark.parametrize("record", instances(), ids=lambda record: type(record).__name__)
def test_a_record_refuses_assignment_and_deletion(record):
    with pytest.raises(AttributeError):
        record.value = 1
    with pytest.raises(AttributeError):
        del record.pos


@pytest.mark.parametrize("record", instances(), ids=lambda record: type(record).__name__)
def test_a_record_copies_and_pickles(record):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert repr(twin) == repr(record)
        if type(record).__name__ != "Dtmc":
            assert twin == record


def test_every_record_class_is_covered():
    covered = {type(record).__name__ for record in instances()}
    assert len(covered) == 30


@pytest.mark.parametrize("node", NODES, ids=lambda node: type(node).__name__)
def test_node_equality_and_hash_ignore_the_position(node):
    given = fields(node)
    moved = type(node)(**{**given, "pos": ast.Pos(9, 9)})
    assert moved.pos != node.pos
    assert moved == node and hash(moved) == hash(node)
    assert type(node)(**{name: value for name, value in given.items() if name != "pos"}) == node


def test_nodes_of_different_classes_differ():
    assert ast.IntLit(1) != ast.RealLit(1.0)
    assert ast.IntLit(1) != ast.BoolLit(True)
    assert ast.Name("x") != ast.LabelDef("x", X)
    assert ast.Pos(1, 2) != (1, 2)
    assert len({ast.IntLit(1), ast.RealLit(1.0), ast.IntLit(1, P)}) == 2


def test_node_fields_are_compared():
    assert ast.Binary("+", X, ONE) != ast.Binary("-", X, ONE)
    assert ast.Binary("+", X, ONE) != ast.Binary("+", ONE, X)
    assert ast.VarDecl("x", 0, 2, 0) != ast.VarDecl("x", 0, 2, 1)
    assert ast.Pos(1, 2) != ast.Pos(1, 3)


def test_defaults_apply():
    assert ast.IntLit(1).pos == ast.NO_POS == ast.Pos(0, 0)
    params = Bb84Params(3)
    assert params.channel == (1.0, 0.0, 0.0, 0.0)
    assert (params.eve_q, params.bias, params.passthrough) == (1.0, 0.5, Passthrough.CHANNEL_OUTPUT)
    spec = SweepSpec(2, 5)
    assert (spec.n_step, spec.eve_q, spec.bias, spec.oracle_check) == (1, 1.0, 0.5, False)
    assert SweepSpec(n_start=2, n_stop=5, oracle_check=True).oracle_check


def test_validated_model_compares_the_model_only():
    vm = validate(parse(SOURCE))
    again = validate(parse(SOURCE))
    assert vm == again and hash(vm) == hash(again)
    other = type(vm)(**{**fields(vm), "constants": {}, "disjoint_groups": not vm.disjoint_groups})
    assert other == vm and hash(other) == hash(vm)
    assert vm != validate(parse(SOURCE.replace("init 0", "init 1")))


def test_dtmc_equality_is_identity_and_layout_is_cached():
    vm = validate(parse(SOURCE))
    dtmc = build(vm)
    assert dtmc == dtmc and dtmc != build(vm)
    assert hash(dtmc) == hash(dtmc)
    assert dtmc.layout is dtmc.layout


def test_solve_report_compares_its_values():
    fields = dict(probability=0.5, iterations=1, residual=0.0, prob0_count=0, prob1_count=1)
    assert SolveReport(**fields, values=(0.5,)) == SolveReport(**fields, values=(0.5,))
    assert SolveReport(**fields, values=(0.5,)) != SolveReport(**fields, values=(0.25,))


def test_a_solved_report_hashes_without_its_vector():
    # prob_until hands over its 'd' array uncopied, and an array is
    # unhashable: the hash skips it, and equal reports still hash alike.
    dtmc = build(validate(parse(SOURCE)))
    query = parse_property('P=? [ F "top" ]')
    report, again = prob_until(dtmc, query), prob_until(dtmc, query)
    assert report.values.typecode == "d"
    assert report == again and hash(report) == hash(again)
    assert hash(copy.deepcopy(report)) == hash(report)
    # The hash still reads the other fields.
    halved = SolveReport(report.probability / 2, report.iterations, report.residual,
                         report.prob0_count, report.prob1_count, report.values)
    assert hash(halved) != hash(report)


def test_repr_is_unchanged():
    assert repr(ast.Name("x", P)) == "Name(ident='x')"
    assert repr(ast.Pos(1, 2)) == "Pos(line=1, col=2)" and str(ast.Pos(1, 2)) == "1:2"
    assert repr(ast.Binary("+", X, ONE, P)) == (
        "Binary(op='+', left=Name(ident='x'), right=IntLit(value=1))"
    )
    assert repr(ast.Expr()) == "Expr()"
    report = SolveReport(0.5, 1, 0.0, 0, 1, (0.5, 1.0))
    assert repr(report) == (
        "SolveReport(probability=0.5, iterations=1, residual=0.0, prob0_count=0, prob1_count=1)"
    )
    assert repr(Bb84Params(3)) == (
        "Bb84Params(photons=3, channel=(1.0, 0.0, 0.0, 0.0), eve_q=1.0, bias=0.5, "
        "passthrough=<Passthrough.CHANNEL_OUTPUT: 'channel'>)"
    )
    assert repr(parse_property('P=? [ F "top" ]')) == (
        "PropertyQuery(constraint=None, target=LabelOperand(name='top'))"
    )
    vm = validate(parse(SOURCE))
    assert repr(vm).startswith("ValidatedModel(model=Model(constants=(ConstDecl(name='k', ")
    assert repr(vm).endswith(", disjoint_groups=True)")
    assert repr(build(vm)).startswith("Dtmc(variables=(VarDecl(name='x', low=0, high=2, init=0),)")


@pytest.mark.parametrize(
    "make",
    [
        lambda: Bb84Params(0),
        lambda: Bb84Params(True),
        lambda: Bb84Params(2.0),
        lambda: Bb84Params(3, channel=(0.5, 0.5, 0.5, 0.5)),
        lambda: Bb84Params(3, eve_q=1.5),
        lambda: Bb84Params(3, bias=-0.1),
        lambda: SweepSpec(0, 3),
        lambda: SweepSpec(3, 2),
        lambda: SweepSpec(1, 3, 0),
        lambda: SweepSpec(1, 3.0),
    ],
)
def test_bad_parameters_raise_value_error(make):
    with pytest.raises(ValueError):
        make()
