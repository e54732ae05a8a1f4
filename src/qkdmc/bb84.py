"""Generator for BB84 intercept-resend models in the modeling language.

The emitted model has four modules (Alice, QuantumChannel, Eve, Bob) that
move through a per-photon round driven by a contiguous protocol phase owned
by the channel:

  phase 0  Alice draws a fresh basis (uniform) and data bit (per bias)
  phase 1  the channel loads Alice's photon, applying the noise 4-vector
  phase 2  Eve measures: correct basis keeps the bit, wrong basis is a coin
  phase 3  Eve resends her record with probability eve_q, else passes through
  phase 4  Bob draws a basis and measures by the same rule
  phase 5  compare: basis match with differing bits sets detected (absorbing);
           otherwise the next round starts, or the run stops after photon n
  phase 6  stopped (absorbing; deadlock self-loop added by the explorer)

Interception always records (eve_bas, eve_bit) at phase 2; the eve_q coin
sits at the resend step, which yields the same joint distribution as gating
the measurement itself and keeps the degenerate eve_q values single-update.
What a passthrough forwards is configurable: ChannelOutput forwards the
noisy photon as received, SourceValues restores Alice's original values
(indistinguishable for a perfect channel or eve_q = 1).

Every probabilistic choice inside one phase is merged into a single
command's update distribution, so each reachable state enables exactly one
synchronized action and the model builds without nondeterminism. All
per-round scratch variables reset on the compare step, which keeps the
reachable state count affine in the photon count.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from qkdmc.lang import ast
from qkdmc.lang.printer import print_model

CHANNEL_SUM_TOL = 1e-12

PHASE_DRAW = 0
PHASE_LOAD = 1
PHASE_EVE_MEASURE = 2
PHASE_RESEND = 3
PHASE_BOB_MEASURE = 4
PHASE_COMPARE = 5
PHASE_STOPPED = 6


class Passthrough(enum.Enum):
    """What Eve forwards when the interception coin comes up tails."""

    CHANNEL_OUTPUT = "channel"
    SOURCE_VALUES = "source"


def check_channel(channel: tuple[float, float, float, float]) -> None:
    if len(channel) != 4:
        raise ValueError(f"channel needs 4 probabilities, got {len(channel)}")
    for value in channel:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"channel probability {value} outside [0, 1]")
    total = math.fsum(channel)
    if abs(total - 1.0) > CHANNEL_SUM_TOL:
        raise ValueError(f"channel probabilities sum to {total!r}, expected 1")


def check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class Bb84Params:
    """Experiment parameters: photon count, channel noise, Eve power, bias.

    channel is (p00, p10, p01, p11): keep both / flip basis / flip bit /
    flip both. eve_q is the per-photon interception probability; bias the
    probability Alice's data bit is 1.
    """

    photons: int
    channel: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0)
    eve_q: float = 1.0
    bias: float = 0.5
    passthrough: Passthrough = Passthrough.CHANNEL_OUTPUT

    def __post_init__(self) -> None:
        if self.photons < 1:
            raise ValueError(f"photons must be positive, got {self.photons}")
        check_channel(self.channel)
        check_unit("eve_q", self.eve_q)
        check_unit("bias", self.bias)


def _name(ident: str) -> ast.Name:
    return ast.Name(ident)


def _num(value: int) -> ast.IntLit:
    return ast.IntLit(value)


def _eq(ident: str, value: int) -> ast.Expr:
    return ast.Binary("=", _name(ident), _num(value))


def _same(left: str, right: str) -> ast.Expr:
    return ast.Binary("=", _name(left), _name(right))


def _differ(left: str, right: str) -> ast.Expr:
    return ast.Binary("!=", _name(left), _name(right))


def _and(left: ast.Expr, right: ast.Expr) -> ast.Expr:
    return ast.Binary("&", left, right)


def _set(var: str, value: int) -> ast.Assignment:
    return ast.Assignment(var, _num(value))


def _copy(var: str, source: str) -> ast.Assignment:
    return ast.Assignment(var, _name(source))


def _flip(var: str, source: str) -> ast.Assignment:
    return ast.Assignment(var, ast.Binary("-", _num(1), _name(source)))


def _distribution(branches: list[tuple[float, list[ast.Assignment]]]) -> tuple[ast.Update, ...]:
    """Drop zero-weight branches; a sole survivor gets the implicit prob 1."""
    kept = [(weight, assigns) for weight, assigns in branches if weight > 0.0]
    if len(kept) == 1:
        return (ast.Update(None, tuple(kept[0][1])),)
    return tuple(
        ast.Update(ast.RealLit(weight), tuple(assigns)) for weight, assigns in kept
    )


def _command(label: str, guard: ast.Expr, updates: tuple[ast.Update, ...]) -> ast.Command:
    return ast.Command(label, guard, updates)


def _measurement(who: str, label: str, phase: int) -> ast.Command:
    """Draw a basis uniformly and measure the channel photon.

    Correct basis reproduces the photon's bit; the wrong basis yields a fair
    coin. The basis draw and the conditional outcome are merged into one
    three-branch distribution.
    """
    bas, bit = f"{who}_bas", f"{who}_bit"
    return _command(
        label,
        _eq("phase", phase),
        _distribution(
            [
                (0.5, [_copy(bas, "ch_bas"), _copy(bit, "ch_bit")]),
                (0.25, [_flip(bas, "ch_bas"), _set(bit, 0)]),
                (0.25, [_flip(bas, "ch_bas"), _set(bit, 1)]),
            ]
        ),
    )


def _alice_module(params: Bb84Params) -> ast.Module:
    w1 = 0.5 * params.bias
    w0 = 0.5 * (1.0 - params.bias)
    draw = _command(
        "alicedraw",
        _eq("phase", PHASE_DRAW),
        _distribution(
            [
                (w0, [_set("al_bas", 0), _set("al_bit", 0)]),
                (w1, [_set("al_bas", 0), _set("al_bit", 1)]),
                (w0, [_set("al_bas", 1), _set("al_bit", 0)]),
                (w1, [_set("al_bas", 1), _set("al_bit", 1)]),
            ]
        ),
    )
    reset = _command(
        "compare",
        _eq("phase", PHASE_COMPARE),
        (ast.Update(None, (_set("al_bas", 0), _set("al_bit", 0))),),
    )
    return ast.Module(
        "Alice",
        (ast.VarDecl("al_bas", 0, 1, 0), ast.VarDecl("al_bit", 0, 1, 0)),
        (draw, reset),
    )


def _channel_module(params: Bb84Params) -> ast.Module:
    p00, p10, p01, p11 = params.channel
    advance_draw = _command(
        "alicedraw", _eq("phase", PHASE_DRAW), (ast.Update(None, (_set("phase", PHASE_LOAD),)),)
    )
    load = _command(
        "aliceput",
        _eq("phase", PHASE_LOAD),
        _distribution(
            [
                (p00, [_set("phase", PHASE_EVE_MEASURE), _copy("ch_bas", "al_bas"),
                       _copy("ch_bit", "al_bit")]),
                (p10, [_set("phase", PHASE_EVE_MEASURE), _flip("ch_bas", "al_bas"),
                       _copy("ch_bit", "al_bit")]),
                (p01, [_set("phase", PHASE_EVE_MEASURE), _copy("ch_bas", "al_bas"),
                       _flip("ch_bit", "al_bit")]),
                (p11, [_set("phase", PHASE_EVE_MEASURE), _flip("ch_bas", "al_bas"),
                       _flip("ch_bit", "al_bit")]),
            ]
        ),
    )
    advance_eve = _command(
        "evemeasure",
        _eq("phase", PHASE_EVE_MEASURE),
        (ast.Update(None, (_set("phase", PHASE_RESEND),)),),
    )
    if params.passthrough is Passthrough.CHANNEL_OUTPUT:
        pass_assigns = [_set("phase", PHASE_BOB_MEASURE)]
    else:
        pass_assigns = [
            _set("phase", PHASE_BOB_MEASURE),
            _copy("ch_bas", "al_bas"),
            _copy("ch_bit", "al_bit"),
        ]
    resend = _command(
        "eveput",
        _eq("phase", PHASE_RESEND),
        _distribution(
            [
                (params.eve_q, [_set("phase", PHASE_BOB_MEASURE),
                                _copy("ch_bas", "eve_bas"), _copy("ch_bit", "eve_bit")]),
                (1.0 - params.eve_q, pass_assigns),
            ]
        ),
    )
    advance_bob = _command(
        "bobmeasure",
        _eq("phase", PHASE_BOB_MEASURE),
        (ast.Update(None, (_set("phase", PHASE_COMPARE),)),),
    )
    disturbed = _and(_same("bob_bas", "al_bas"), _differ("bob_bit", "al_bit"))
    clean = ast.Unary("!", disturbed)
    at_compare = _eq("phase", PHASE_COMPARE)
    ch_reset = [_set("ch_bas", 0), _set("ch_bit", 0)]
    detect = _command(
        "compare",
        _and(at_compare, disturbed),
        (ast.Update(None, tuple([_set("phase", PHASE_STOPPED), _set("detected", 1),
                                 _set("i", 0)] + ch_reset)),),
    )
    more = ast.Binary("<", _name("i"), ast.Binary("-", _name("n"), _num(1)))
    last = ast.Binary("=", _name("i"), ast.Binary("-", _name("n"), _num(1)))
    advance = _command(
        "compare",
        _and(_and(at_compare, clean), more),
        (ast.Update(None, tuple([_set("phase", PHASE_DRAW),
                                 ast.Assignment("i", ast.Binary("+", _name("i"), _num(1)))]
                                + ch_reset)),),
    )
    stop = _command(
        "compare",
        _and(_and(at_compare, clean), last),
        (ast.Update(None, tuple([_set("phase", PHASE_STOPPED), _set("i", 0)] + ch_reset)),),
    )
    return ast.Module(
        "QuantumChannel",
        (
            ast.VarDecl("phase", 0, 6, 0),
            ast.VarDecl("ch_bas", 0, 1, 0),
            ast.VarDecl("ch_bit", 0, 1, 0),
            ast.VarDecl("i", 0, max(params.photons - 1, 0), 0),
            ast.VarDecl("detected", 0, 1, 0),
        ),
        (advance_draw, load, advance_eve, resend, advance_bob, detect, advance, stop),
    )


def _eve_module() -> ast.Module:
    reset = _command(
        "compare",
        _eq("phase", PHASE_COMPARE),
        (ast.Update(None, (_set("eve_bas", 0), _set("eve_bit", 0))),),
    )
    return ast.Module(
        "Eve",
        (ast.VarDecl("eve_bas", 0, 1, 0), ast.VarDecl("eve_bit", 0, 1, 0)),
        (_measurement("eve", "evemeasure", PHASE_EVE_MEASURE), reset),
    )


def _bob_module() -> ast.Module:
    reset = _command(
        "compare",
        _eq("phase", PHASE_COMPARE),
        (ast.Update(None, (_set("bob_bas", 0), _set("bob_bit", 0))),),
    )
    return ast.Module(
        "Bob",
        (ast.VarDecl("bob_bas", 0, 1, 0), ast.VarDecl("bob_bit", 0, 1, 0)),
        (_measurement("bob", "bobmeasure", PHASE_BOB_MEASURE), reset),
    )


def model_ast(params: Bb84Params) -> ast.Model:
    """The full model as a syntax tree; generate() renders it."""
    constants = (ast.ConstDecl("n", "int", _num(params.photons)),)
    modules = (
        _alice_module(params),
        _channel_module(params),
        _eve_module(),
        _bob_module(),
    )
    labels = (
        ast.LabelDef("detected", detected_event_definition()),
        ast.LabelDef("done", _and(_eq("phase", PHASE_STOPPED), _eq("detected", 0))),
    )
    return ast.Model(constants, modules, labels)


def generate(params: Bb84Params) -> str:
    """Emit deterministic model source for the given parameters."""
    header = (
        f"// bb84 intercept-resend: photons={params.photons} "
        f"channel=({', '.join(repr(p) for p in params.channel)}) "
        f"eve_q={params.eve_q!r} bias={params.bias!r} "
        f"passthrough={params.passthrough.value}\n"
    )
    return header + print_model(model_ast(params))


def detected_event_definition() -> ast.Expr:
    """Defining expression of label "detected".

    The compare phase raises the flag exactly when Bob used Alice's basis
    yet read the opposite bit.
    """
    return _eq("detected", 1)


_ROLES = {
    "al_bas": "Alice's basis choice",
    "al_bit": "Alice's data bit",
    "phase": "protocol phase (0 draw, 1 load, 2 eavesdrop, 3 resend, "
             "4 receive, 5 compare, 6 stopped)",
    "ch_bas": "basis of the photon on the channel",
    "ch_bit": "bit of the photon on the channel",
    "i": "zero-based index of the current photon",
    "detected": 'disturbance flag; defines label "detected"',
    "eve_bas": "Eve's measurement basis",
    "eve_bit": "Eve's measured bit",
    "bob_bas": "Bob's measurement basis",
    "bob_bit": "Bob's measured bit",
}


def variable_schema(params: Bb84Params) -> tuple[tuple[str, int, int, str], ...]:
    """(name, low, high, role) for every variable of the emitted model."""
    variables = [var for module in model_ast(params).modules for var in module.variables]
    return tuple((var.name, var.low, var.high, _ROLES[var.name]) for var in variables)
