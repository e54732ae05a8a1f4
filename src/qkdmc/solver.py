"""Reachability probabilities on a Dtmc: P=? for unbounded until.

One forward pass settles every state. States that are targets (value 1) or
outside the constraint (value 0) are fixed; an iterative Tarjan search over
the rest pops strongly connected components (SCCs) in reverse topological
order, so every edge leaving a popped SCC reaches a state already settled.
Each SCC is then settled on the spot, qualitatively and numerically:

- prob0 if no edge leaves it towards a state outside prob0, prob1 if it is
  not prob0 and every edge leaving it reaches a prob1 state;
- a trivial SCC (one state, perhaps with a self-loop) gets the exact update
  incoming / (1 - self_prob), summed in row order;
- a cyclic SCC is solved by GTH state elimination (Grassmann, Taksar &
  Heyman 1985) in ascending state order, then back-substitution. Each pivot
  is a sum of outflows, so no step subtracts.

There is nothing to converge: the generated BB84 chains are DAGs apart from
absorbing self-loops, and every cyclic SCC is solved directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from qkdmc.explorer import Dtmc
from qkdmc.properties import PropertyQuery, resolve_operand

# Per-state bits of the pass; 0 marks a state not settled yet.
REACH = 1  # some path reaches the target: not in prob0
MISS = 2  # some path misses it: not in prob1


@dataclass(frozen=True)
class SolveReport:
    """Result of one query: value at the initial state plus solver health.

    `values` is the whole solved vector, indexed like `Dtmc.states`: the
    probability of the query from every state, not only the initial one.
    `iterations` is 1 if any state needed solving, else 0; `residual` is
    max |sum_t p_st x_t - x_s| over the states of cyclic SCCs (0.0 if none).
    """

    probability: float
    iterations: int
    residual: float
    prob0_count: int
    prob1_count: int
    values: tuple[float, ...] = field(repr=False)


def _eliminate(
    rows: tuple, members: list[int], slot: dict[int, int], values: list[float]
) -> float:
    """Solve one cyclic SCC into `values`; returns its residual.

    `members` lists the SCC's states in ascending order and `slot` maps
    each to its position there. Every edge leaving the SCC reaches a
    settled state, so it folds into the state's exit mass and reward.
    Eliminating state j divides its row by the pivot (1 - p_jj, taken as
    its remaining outflow plus its exit mass) and reroutes each remaining
    predecessor's edge into j over that row.
    """
    size = len(members)
    out: list[dict[int, float]] = []  # off-diagonal edges inside the SCC, by slot
    into: list[list[int]] = [[] for _ in members]  # slots with an edge into this one
    exit_mass = [0.0] * size
    reward = [0.0] * size
    for j, s in enumerate(members):
        edges: dict[int, float] = {}
        for t, prob in rows[s]:
            k = slot.get(t)
            if k is None:
                exit_mass[j] += prob
                reward[j] += prob * values[t]
            elif k != j:
                edges[k] = prob
                into[k].append(j)
        out.append(edges)

    for j in range(size):
        edges = out[j]
        pivot = exit_mass[j] + sum(edges.values())
        for k in edges:
            edges[k] /= pivot
        leaving = exit_mass[j] / pivot
        reward[j] /= pivot
        # Slots below j are eliminated already.
        for i in into[j]:
            if i < j:
                continue
            row_i = out[i]
            scale = row_i.pop(j)
            for k, prob in edges.items():
                if k == i:
                    continue
                if k in row_i:
                    row_i[k] += scale * prob
                else:
                    row_i[k] = scale * prob
                    into[k].append(i)
            exit_mass[i] += scale * leaving
            reward[i] += scale * reward[j]
        into[j] = []  # no longer read; frees it early

    # out[j] now holds only edges to slots eliminated after j.
    for j in range(size - 1, -1, -1):
        total = reward[j]
        for k, prob in out[j].items():
            total += prob * values[members[k]]
        values[members[j]] = total

    residual = 0.0
    for s in members:
        gap = abs(sum(prob * values[t] for t, prob in rows[s]) - values[s])
        if gap > residual:
            residual = gap
    return residual


def _solve(dtmc: Dtmc, query: PropertyQuery) -> tuple[list[float], bytearray, float, bool]:
    """The single pass: values, per-state REACH/MISS bits, residual, and
    whether any state needed a numeric solve."""
    n = dtmc.state_count
    rows = dtmc.rows
    target = resolve_operand(query.target, dtmc)
    if query.constraint is None:
        kind = bytearray(n)
    else:
        kind = bytearray([MISS]) * n
        for s in resolve_operand(query.constraint, dtmc):
            kind[s] = 0
    values = [0.0] * n
    for s in target:
        kind[s] = REACH
        values[s] = 1.0

    order = [0] * n  # DFS discovery number; 0 while undiscovered
    low = [0] * n
    stack: list[int] = []
    counter = 0
    residual = 0.0
    solved = False
    for root in range(n):
        if kind[root] or order[root]:
            continue
        counter += 1
        order[root] = low[root] = counter
        stack.append(root)
        calls = [(root, iter(rows[root]))]
        while calls:
            v, edges = calls[-1]
            for t, _ in edges:
                if kind[t]:
                    continue
                if not order[t]:
                    counter += 1
                    order[t] = low[t] = counter
                    stack.append(t)
                    calls.append((t, iter(rows[t])))
                    break
                # Visited but unsettled: t is on the Tarjan stack.
                if order[t] < low[v]:
                    low[v] = order[t]
            else:
                calls.pop()
                if low[v] < order[v]:
                    parent = calls[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    continue
                # v roots an SCC; every edge leaving it reaches a settled state.
                if stack[-1] == v:
                    stack.pop()
                    flags = 0
                    incoming = 0.0
                    self_prob = 0.0
                    for t, prob in rows[v]:
                        if t == v:
                            self_prob = prob
                        else:
                            flags |= kind[t]
                            incoming += prob * values[t]
                    if flags & REACH:
                        solved = True
                        values[v] = incoming / (1.0 - self_prob)
                    else:
                        flags = MISS
                    kind[v] = flags
                    continue
                base = len(stack) - 1
                while stack[base] != v:
                    base -= 1
                members = stack[base:]
                del stack[base:]
                members.sort()
                slot = {s: j for j, s in enumerate(members)}
                flags = 0
                for s in members:
                    for t, _ in rows[s]:
                        if t not in slot:
                            flags |= kind[t]
                if flags & REACH:
                    solved = True
                    residual = max(residual, _eliminate(rows, members, slot, values))
                else:
                    flags = MISS
                for s in members:
                    kind[s] = flags
    return values, kind, residual, solved


def prob0_states(dtmc: Dtmc, query: PropertyQuery) -> frozenset[int]:
    """States with until-probability exactly 0."""
    kind = _solve(dtmc, query)[1]
    return frozenset(s for s, bits in enumerate(kind) if bits == MISS)


def prob1_states(dtmc: Dtmc, query: PropertyQuery) -> frozenset[int]:
    """States with until-probability exactly 1 (reported, not used to solve)."""
    kind = _solve(dtmc, query)[1]
    return frozenset(s for s, bits in enumerate(kind) if bits == REACH)


def prob_until(dtmc: Dtmc, query: PropertyQuery) -> SolveReport:
    """Probability of `constraint U target` from every state.

    The report's `values` holds the whole vector and `probability` the
    initial state's entry.
    """
    values, kind, residual, solved = _solve(dtmc, query)
    return SolveReport(
        probability=values[dtmc.initial],
        iterations=1 if solved else 0,
        residual=residual,
        prob0_count=kind.count(MISS),
        prob1_count=kind.count(REACH),
        values=tuple(values),
    )
