"""The qualitative sets of an until query, read from the bits of the
solver's one pass (`solver._solve`)."""

from qkdmc.solver import MISS, REACH, _solve


def prob0_states(dtmc, query) -> frozenset[int]:
    """States with until-probability exactly 0."""
    kind = _solve(dtmc, query)[1]
    return frozenset(s for s, bits in enumerate(kind) if bits == MISS)


def prob1_states(dtmc, query) -> frozenset[int]:
    """States with until-probability exactly 1."""
    kind = _solve(dtmc, query)[1]
    return frozenset(s for s, bits in enumerate(kind) if bits == REACH)
