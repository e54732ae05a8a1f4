"""Reachability probabilities on a Dtmc: P=? for unbounded until.

The linear system x = P x (targets pinned to 1, prob0 states pinned to 0) is
solved by Gauss-Seidel with the diagonal handled exactly, sweeping from the
highest state index down. BFS numbering puts successors at higher indices
than their discoverers in the leveled chains this package builds, so the
descending sweep resolves values in near-topological order and converges in
a handful of sweeps; cyclic models just take more sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from qkdmc.errors import SolverError
from qkdmc.explorer import Dtmc
from qkdmc.properties import PropertyQuery, resolve_operand

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 1_000_000


@dataclass(frozen=True)
class SolveReport:
    """Result of one query: value at the initial state plus solver health.

    `values` is the whole solved vector, indexed like `Dtmc.states`: the
    probability of the query from every state, not only the initial one.
    """

    probability: float
    iterations: int
    residual: float
    prob0_count: int
    prob1_count: int
    values: tuple[float, ...] = field(repr=False)


def _predecessors(dtmc: Dtmc) -> list[list[int]]:
    preds: list[list[int]] = [[] for _ in range(dtmc.state_count)]
    for src, row in enumerate(dtmc.rows):
        for dst, _prob in row:
            preds[dst].append(src)
    return preds


def _backward_closure(
    seeds: frozenset[int], allowed: frozenset[int], preds: list[list[int]]
) -> set[int]:
    """Seeds plus every state reaching them through `allowed` states."""
    reach = set(seeds)
    stack = list(seeds)
    while stack:
        current = stack.pop()
        for pred in preds[current]:
            if pred not in reach and pred in allowed:
                reach.add(pred)
                stack.append(pred)
    return reach


def _qualitative(
    dtmc: Dtmc, query: PropertyQuery
) -> tuple[frozenset[int], frozenset[int], frozenset[int]]:
    """Target, prob0 and prob1 sets of `constraint U target`, graph-theoretically.

    A state has probability 0 iff it cannot reach the target while staying
    inside the constraint set. It fails almost-sure satisfaction iff it can
    reach a probability-0 state through constraint-only non-target states.
    No floating point is involved.
    """
    target = resolve_operand(query.target, dtmc)
    everything = frozenset(range(dtmc.state_count))
    if query.constraint is None:
        constraint = everything
    else:
        constraint = resolve_operand(query.constraint, dtmc)
    preds = _predecessors(dtmc)
    zero = everything - _backward_closure(target, constraint, preds)
    one = everything - _backward_closure(zero, constraint - target, preds)
    return target, zero, one


def prob0_states(dtmc: Dtmc, query: PropertyQuery) -> frozenset[int]:
    """States with until-probability exactly 0."""
    return _qualitative(dtmc, query)[1]


def prob1_states(dtmc: Dtmc, query: PropertyQuery) -> frozenset[int]:
    """States with until-probability exactly 1 (reported, not used to solve)."""
    return _qualitative(dtmc, query)[2]


def prob_until(
    dtmc: Dtmc,
    query: PropertyQuery,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    on_sweep: Callable[[list[float]], None] | None = None,
) -> SolveReport:
    """Probability of `constraint U target` from every state.

    The report's `values` holds the whole vector and `probability` the
    initial state's entry.

    Sweeps until the largest per-state update drops below tol; raises
    SolverError (code NO_CONVERGENCE, reporting the residual) if max_iter
    sweeps do not get there. `on_sweep` receives a snapshot of the value
    vector after each sweep; tests use it to observe monotone convergence.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    target, zero, one = _qualitative(dtmc, query)

    values = [0.0] * dtmc.state_count
    for index in target:
        values[index] = 1.0
    # Descending index order; see the module docstring.
    order = [s for s in range(dtmc.state_count - 1, -1, -1) if s not in target and s not in zero]

    iterations = 0
    residual = 0.0
    if order:
        for iterations in range(1, max_iter + 1):
            residual = 0.0
            for s in order:
                incoming = 0.0
                self_prob = 0.0
                for t, prob in dtmc.rows[s]:
                    if t == s:
                        self_prob = prob
                    else:
                        incoming += prob * values[t]
                # self_prob < 1 here: a state whose only move is the
                # self-loop cannot reach the target and sits in prob0.
                updated = incoming / (1.0 - self_prob)
                delta = abs(updated - values[s])
                if delta > residual:
                    residual = delta
                values[s] = updated
            if on_sweep is not None:
                on_sweep(list(values))
            if residual < tol:
                break
        else:
            raise SolverError(
                f"no convergence after {iterations} sweeps, residual {residual:.6g} >= {tol:.6g}"
            )

    return SolveReport(
        probability=values[dtmc.initial],
        iterations=iterations,
        residual=residual,
        prob0_count=len(zero),
        prob1_count=len(one),
        values=tuple(values),
    )
