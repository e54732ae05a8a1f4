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
reachable state count affine in the photon count. A reduced build (see
`explorer.build`) resets some earlier, where validation finds them dead:
Eve's pair as the receive phase begins, the channel's as the compare phase
begins.

The model is written as text, in the canonical form `print_model` gives:
its fixed lines are one literal, and only the photon constant n, the bound
of i and three distributions (Alice's draw, the channel load, Eve's
resend) are computed.
"""

from __future__ import annotations

import enum
import math
import re

from qkdmc.record import Record

CHANNEL_SUM_TOL = 1e-12


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


def check_count(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


class Bb84Params(Record):
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
        check_count("photons", self.photons)
        if self.photons < 1:
            raise ValueError(f"photons must be positive, got {self.photons}")
        check_channel(self.channel)
        check_unit("eve_q", self.eve_q)
        check_unit("bias", self.bias)


def _distribution(branches: list[tuple[float, str]]) -> str:
    """Drop zero-weight branches; a sole survivor gets the implicit prob 1."""
    kept = [(weight, body) for weight, body in branches if weight > 0.0]
    if len(kept) == 1:
        return kept[0][1]
    return " + ".join(f"{weight!r}:{body}" for weight, body in kept)


# The model with its computed pieces as fields: the photon constant, the
# bound of i and three distributions. Each measurement draws a basis
# uniformly: the photon's basis reproduces its bit, the wrong one a fair coin.
_MODEL = """dtmc

const int n = {photons};

module Alice
  al_bas : [0..1] init 0;
  al_bit : [0..1] init 0;
  [alicedraw] phase=0 -> {draw};
  [compare] phase=5 -> (al_bas'=0)&(al_bit'=0);
endmodule

module QuantumChannel
  phase : [0..6] init 0;
  ch_bas : [0..1] init 0;
  ch_bit : [0..1] init 0;
  i : [0..{last}] init 0;
  detected : [0..1] init 0;
  [alicedraw] phase=0 -> (phase'=1);
  [aliceput] phase=1 -> {load};
  [evemeasure] phase=2 -> (phase'=3);
  [eveput] phase=3 -> {resend};
  [bobmeasure] phase=4 -> (phase'=5);
  [compare] phase=5 & (bob_bas=al_bas & bob_bit!=al_bit) -> (phase'=6)&(detected'=1)&(i'=0)&(ch_bas'=0)&(ch_bit'=0);
  [compare] phase=5 & !(bob_bas=al_bas & bob_bit!=al_bit) & i<n-1 -> (phase'=0)&(i'=i+1)&(ch_bas'=0)&(ch_bit'=0);
  [compare] phase=5 & !(bob_bas=al_bas & bob_bit!=al_bit) & i=n-1 -> (phase'=6)&(i'=0)&(ch_bas'=0)&(ch_bit'=0);
endmodule

module Eve
  eve_bas : [0..1] init 0;
  eve_bit : [0..1] init 0;
  [evemeasure] phase=2 -> 0.5:(eve_bas'=ch_bas)&(eve_bit'=ch_bit) + 0.25:(eve_bas'=1-ch_bas)&(eve_bit'=0) + 0.25:(eve_bas'=1-ch_bas)&(eve_bit'=1);
  [compare] phase=5 -> (eve_bas'=0)&(eve_bit'=0);
endmodule

module Bob
  bob_bas : [0..1] init 0;
  bob_bit : [0..1] init 0;
  [bobmeasure] phase=4 -> 0.5:(bob_bas'=ch_bas)&(bob_bit'=ch_bit) + 0.25:(bob_bas'=1-ch_bas)&(bob_bit'=0) + 0.25:(bob_bas'=1-ch_bas)&(bob_bit'=1);
  [compare] phase=5 -> (bob_bas'=0)&(bob_bit'=0);
endmodule

label "detected" = detected=1;
label "done" = phase=6 & detected=0;
"""


def generate(params: Bb84Params) -> str:
    """Emit deterministic model source for the given parameters."""
    p00, p10, p01, p11 = params.channel
    w0, w1 = 0.5 * (1.0 - params.bias), 0.5 * params.bias
    draw = _distribution(
        [
            (w0, "(al_bas'=0)&(al_bit'=0)"),
            (w1, "(al_bas'=0)&(al_bit'=1)"),
            (w0, "(al_bas'=1)&(al_bit'=0)"),
            (w1, "(al_bas'=1)&(al_bit'=1)"),
        ]
    )
    load = _distribution(
        [
            (p00, "(phase'=2)&(ch_bas'=al_bas)&(ch_bit'=al_bit)"),
            (p10, "(phase'=2)&(ch_bas'=1-al_bas)&(ch_bit'=al_bit)"),
            (p01, "(phase'=2)&(ch_bas'=al_bas)&(ch_bit'=1-al_bit)"),
            (p11, "(phase'=2)&(ch_bas'=1-al_bas)&(ch_bit'=1-al_bit)"),
        ]
    )
    passed = "(phase'=4)"
    if params.passthrough is Passthrough.SOURCE_VALUES:
        passed += "&(ch_bas'=al_bas)&(ch_bit'=al_bit)"
    resend = _distribution(
        [
            (params.eve_q, "(phase'=4)&(ch_bas'=eve_bas)&(ch_bit'=eve_bit)"),
            (1.0 - params.eve_q, passed),
        ]
    )
    header = (
        f"// bb84 intercept-resend: photons={params.photons} "
        f"channel=({', '.join(repr(p) for p in params.channel)}) "
        f"eve_q={params.eve_q!r} bias={params.bias!r} "
        f"passthrough={params.passthrough.value}\n"
    )
    return header + _MODEL.format(
        photons=params.photons,
        last=params.photons - 1,
        draw=draw,
        load=load,
        resend=resend,
    )


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


_DECLARATION = re.compile(r"^  (\w+) : \[(\d+)\.\.(\d+)\] init", re.MULTILINE)


def variable_schema(model: str) -> tuple[tuple[str, int, int, str], ...]:
    """(name, low, high, role) for every variable of a model `generate`
    emitted, read from its declaration lines.
    """
    return tuple(
        (name, int(low), int(high), _ROLES[name])
        for name, low, high in _DECLARATION.findall(model)
    )
