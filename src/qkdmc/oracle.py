"""Closed-form ground truth for the BB84 detection probability.

Enumerates the exact per-photon outcome tree (Alice's draw, channel branch,
interception coin, Eve's measurement, Bob's measurement) without touching
the modeling language, explorer or solver. Rounds are independent because
the generated model resets all scratch variables between photons, so
P_det(n) = 1 - (1 - p1)^n; that independence is an assumption this module
states rather than checks.
"""

from __future__ import annotations

import math

from qkdmc.bb84 import Passthrough, check_channel, check_unit
from qkdmc.record import Record


class PhotonOutcome(Record):
    """One leaf of the per-photon tree with its exact probability weight."""

    weight: float
    al_bas: int
    al_bit: int
    ch_bas: int
    ch_bit: int
    intercepted: bool
    eve_bas: int | None
    eve_bit: int | None
    bob_bas: int
    bob_bit: int
    detected: bool


def _measure(photon_bas: int, photon_bit: int, basis: int) -> list[tuple[float, int]]:
    # Correct basis reads the bit; wrong basis is a fair coin.
    if basis == photon_bas:
        return [(1.0, photon_bit)]
    return [(0.5, 0), (0.5, 1)]


def photon_outcomes(
    channel: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0),
    q: float = 1.0,
    bias: float = 0.5,
    passthrough: Passthrough = Passthrough.CHANNEL_OUTPUT,
) -> list[PhotonOutcome]:
    """All positive-weight outcomes of a single photon round."""
    check_channel(channel)
    check_unit("q", q)
    check_unit("bias", bias)
    p00, p10, p01, p11 = channel
    outcomes: list[PhotonOutcome] = []
    for al_bas, w_bas in ((0, 0.5), (1, 0.5)):
        for al_bit, w_bit in ((0, 1.0 - bias), (1, bias)):
            if w_bit == 0.0:
                continue
            for (flip_bas, flip_bit), w_ch in (
                ((0, 0), p00),
                ((1, 0), p10),
                ((0, 1), p01),
                ((1, 1), p11),
            ):
                if w_ch == 0.0:
                    continue
                ch_bas = al_bas ^ flip_bas
                ch_bit = al_bit ^ flip_bit
                for intercepted, w_int in ((True, q), (False, 1.0 - q)):
                    if w_int == 0.0:
                        continue
                    stem = w_bas * w_bit * w_ch * w_int
                    if intercepted:
                        for eve_bas, w_eve_bas in ((0, 0.5), (1, 0.5)):
                            for w_eve_bit, eve_bit in _measure(ch_bas, ch_bit, eve_bas):
                                _bob_leaves(
                                    outcomes,
                                    stem * w_eve_bas * w_eve_bit,
                                    al_bas, al_bit, ch_bas, ch_bit,
                                    True, eve_bas, eve_bit,
                                    sent_bas=eve_bas, sent_bit=eve_bit,
                                )
                    else:
                        if passthrough is Passthrough.CHANNEL_OUTPUT:
                            sent_bas, sent_bit = ch_bas, ch_bit
                        else:
                            sent_bas, sent_bit = al_bas, al_bit
                        _bob_leaves(
                            outcomes, stem,
                            al_bas, al_bit, ch_bas, ch_bit,
                            False, None, None,
                            sent_bas=sent_bas, sent_bit=sent_bit,
                        )
    return outcomes


def _bob_leaves(
    outcomes: list[PhotonOutcome],
    stem: float,
    al_bas: int,
    al_bit: int,
    ch_bas: int,
    ch_bit: int,
    intercepted: bool,
    eve_bas: int | None,
    eve_bit: int | None,
    sent_bas: int,
    sent_bit: int,
) -> None:
    if stem == 0.0:
        return
    for bob_bas, w_bob_bas in ((0, 0.5), (1, 0.5)):
        for w_bob_bit, bob_bit in _measure(sent_bas, sent_bit, bob_bas):
            outcomes.append(
                PhotonOutcome(
                    weight=stem * w_bob_bas * w_bob_bit,
                    al_bas=al_bas,
                    al_bit=al_bit,
                    ch_bas=ch_bas,
                    ch_bit=ch_bit,
                    intercepted=intercepted,
                    eve_bas=eve_bas,
                    eve_bit=eve_bit,
                    bob_bas=bob_bas,
                    bob_bit=bob_bit,
                    detected=bob_bas == al_bas and bob_bit != al_bit,
                )
            )


def per_photon_detect_prob(
    channel: tuple[float, float, float, float] = (1.0, 0.0, 0.0, 0.0),
    q: float = 1.0,
    bias: float = 0.5,
    passthrough: Passthrough = Passthrough.CHANNEL_OUTPUT,
) -> float:
    """p1: probability that a single photon round raises the detection flag."""
    return math.fsum(
        outcome.weight
        for outcome in photon_outcomes(channel, q, bias, passthrough)
        if outcome.detected
    )


def detect_prob(n: int, p1: float) -> float:
    """P_det(n) = 1 - (1 - p1)^n over n independent photon rounds."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    check_unit("p1", p1)
    return 1.0 - (1.0 - p1) ** n
