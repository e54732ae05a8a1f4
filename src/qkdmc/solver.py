"""Reachability probabilities on a Dtmc: P=? for unbounded until.

One forward pass settles every state. States that are targets (value 1) or
outside the constraint (value 0) are fixed; over the rest, an iterative
Tarjan search in Pearce's one-index form (Pearce, IPL 2016) finds strongly
connected components (SCCs) in reverse topological order, so every edge
leaving a found SCC reaches a state already settled. Each SCC is then
settled on the spot, qualitatively and numerically:

- prob0 if no edge leaves it towards a state outside prob0, prob1 if it is
  not prob0 and every edge leaving it reaches a prob1 state;
- a trivial SCC (one state, perhaps with a self-loop) gets the exact update
  incoming / leaving, both summed in row order, where leaving is the mass
  of its edges to other states (1 without a self-loop);
- a cyclic SCC is solved by GTH state elimination (Grassmann, Taksar &
  Heyman 1985) in ascending state order, then back-substitution. Each pivot
  is a sum of outflows, so no step subtracts.

There is nothing to converge: the generated BB84 chains are DAGs apart from
absorbing self-loops, and every cyclic SCC is solved directly.

The search takes its roots from the highest state index down. Build numbers
states in BFS order, so nearly every edge points to a higher index (in a
500-photon bb84 model, every edge into a state that is not a deadlock): a
root taken from the top finds its successors settled and settles at once,
where one from the bottom would first descend the whole BFS chain. The
order changes no value: SCCs do not depend on it, a one-state SCC still
sums its row in row order and a cyclic SCC's members are sorted first.

A state is numbered only once its row reaches an unsettled state other
than itself, before it descends; one that reaches only settled states and
itself settles unnumbered where its row ends, as every bb84 state does. A
numbered state's `low` is its visit number, lowered to the least `low` of
the unsettled states its edges reach. One whose `low` does not drop roots
an SCC of itself and the stacked states whose `low` is at least its visit
number; only one whose `low` drops is stacked. A state lowers its `low`
only while its own row is read, so the search keeps it in the state's
frame and stores it in `low` when other states may read it: as the state
descends or is stacked. The CSR columns are read in place. A descent's
edge is read again once the state it reaches is done, so a one-state SCC
sums the edges of its one walk in row order. A state is descended into at
most once, so a descent past the n-th is an internal error that names its
state, not a search that never ends.

The pass allocates flat buffers only: the values in one 'd' array of 8 bytes
a state, written through a memoryview (whose item writes cost less than the
array's), the REACH/MISS bits in a bytearray of one byte a state, and `low`
in a dict that holds the numbered states alone. No bb84 state is numbered,
so a bb84 solve adds about 9 bytes a state to the chain it reads.
"""

from __future__ import annotations

from array import array

from qkdmc.explorer import Dtmc
from qkdmc.properties import PropertyQuery, resolve_operand
from qkdmc.record import Record

# Per-state bits of the pass; 0 marks a state not settled yet.
REACH = 1  # some path reaches the target: not in prob0
MISS = 2  # some path misses it: not in prob1


class SolveReport(Record):
    """Result of one query: value at the initial state plus solver health.

    `values` is the whole solved vector, indexed by state like the Dtmc: the
    probability of the query from every state, not only the initial one, in
    a flat 'd' array of 8 bytes a state. It is read-only by contract, as a
    Dtmc's columns are: the report does not copy it.
    `iterations` is 1 if any state needed solving, else 0; `residual` is
    max |sum_t p_st x_t - x_s| over the states of cyclic SCCs (0.0 if none).

    Two reports are equal when their fields are, `values` included. An
    array is unhashable, so the hash leaves `values` out; equal reports
    still hash alike.
    """

    probability: float
    iterations: int
    residual: float
    prob0_count: int
    prob1_count: int
    values: array[float]

    _not_shown = ("values",)

    def __hash__(self) -> int:
        return hash(self._key()[:-1])  # every compared field but the last, `values`


def _settle_cyclic(
    dtmc: Dtmc, members: list[int], kind: bytearray, values: memoryview
) -> tuple[int, float]:
    """Settle one cyclic SCC: its REACH/MISS bits and residual.

    `members` lists the SCC's states in ascending order. Every edge leaving
    the SCC reaches a settled state, so it folds into the state's exit mass
    and reward. If no such edge reaches the target, every member is prob0
    and keeps its value 0.0. Otherwise `values`, a view of the solved
    vector, gets the solve: eliminating state j divides its row by the pivot
    (1 - p_jj, taken as its remaining outflow plus its exit mass) and
    reroutes each remaining predecessor's edge into j over that row. The
    SCC's values are found in a list by slot and written to `values` once.
    """
    starts, targets, probs = dtmc.row_starts, dtmc.targets, dtmc.probs
    slot = {s: j for j, s in enumerate(members)}
    size = len(members)
    out: list[dict[int, float]] = []  # off-diagonal edges inside the SCC, by slot
    into: list[list[int]] = [[] for _ in members]  # slots with an edge into this one
    exit_mass = [0.0] * size
    reward = [0.0] * size
    # Each row as (probability, column) pairs in row order, so the residual
    # reads no array item: column k < size is slot k, size + m outside[m].
    rows: list[list[tuple[float, int]]] = []
    outside: list[float] = []  # the values of the settled states edges leave to
    flags = 0
    for j, s in enumerate(members):
        edges: dict[int, float] = {}
        row = []
        for e in range(starts[s], starts[s + 1]):
            t, prob = targets[e], probs[e]
            k = slot.get(t)
            if k is None:
                value = values[t]
                flags |= kind[t]
                exit_mass[j] += prob
                reward[j] += prob * value
                k = size + len(outside)
                outside.append(value)
            elif k != j:
                edges[k] = prob
                into[k].append(j)
            row.append((prob, k))
        out.append(edges)
        rows.append(row)
    if not flags & REACH:
        return MISS, 0.0

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

    # out[j] now holds only edges to slots eliminated after j, whose
    # reward has become their value.
    for j in range(size - 1, -1, -1):
        total = reward[j]
        for k, prob in out[j].items():
            total += prob * reward[k]
        reward[j] = values[members[j]] = total

    residual = 0.0
    solved = reward + outside
    for j, row in enumerate(rows):
        gap = abs(sum(prob * solved[k] for prob, k in row) - solved[j])
        if gap > residual:
            residual = gap
    return flags, residual


def _solve(dtmc: Dtmc, query: PropertyQuery) -> tuple[array[float], bytearray, float, bool]:
    """The single pass: values, per-state REACH/MISS bits, residual, and
    whether any state needed a numeric solve."""
    n = dtmc.state_count
    starts, targets, probs = dtmc.row_starts, dtmc.targets, dtmc.probs
    target = resolve_operand(query.target, dtmc)
    if query.constraint is None:
        kind = bytearray(n)
    else:
        kind = bytearray([MISS]) * n
        for s in resolve_operand(query.constraint, dtmc):
            kind[s] = 0
    # Repeating one item allocates the n * 8 bytes once; array("d",
    # bytes(8 * n)) would hold them twice.
    values = array("d", [0.0]) * n
    for s in target:
        kind[s] = REACH
        values[s] = 1.0

    cells = memoryview(values)
    low: dict[int, int] = {}  # visit number of each numbered state, lowered while unsettled
    stack: list[int] = []  # searched states waiting for the root of their SCC
    calls: list[tuple[int, int, int, int, int, int, float, float]] = []  # suspended frames
    counter = 0
    descents = 0  # each state is descended into at most once
    residual = 0.0
    solved = False
    # Roots from the top: see the module docstring. Root r's row ends where
    # root r + 1's begins.
    begin = starts[n]
    for root in range(n - 1, -1, -1):
        end, begin = begin, starts[root]
        if kind[root]:
            continue
        # The frame of the state v being searched: its visit number (0 while
        # unnumbered) and low (see the module docstring), next edge k, row
        # end and settled successors' share.
        v, index, lowest, k = root, 0, 0, begin
        flags, incoming, self_prob = 0, 0.0, 0.0
        while True:
            while k < end:
                t = targets[k]
                bits = kind[t]
                if bits:
                    flags |= bits
                    incoming += probs[k] * cells[t]
                elif t == v:
                    self_prob = probs[k]
                else:
                    if not index:
                        counter += 1
                        index = lowest = counter
                    reached = low.get(t)
                    if reached is None:
                        # Descend; edge k is read again once t is done.
                        descents += 1
                        if descents > n:
                            raise RuntimeError(
                                f"internal error: descent {descents} of the search, into state "
                                f"{t} ({dtmc.describe_state(t)}), in a chain of {n} states"
                            )
                        low[v] = lowest
                        calls.append((v, index, lowest, k, end, flags, incoming, self_prob))
                        v, index, k, end = t, 0, starts[t], starts[t + 1]
                        flags, incoming, self_prob = 0, 0.0, 0.0
                        continue
                    if reached < lowest:
                        # t is numbered but unsettled: in v's SCC.
                        lowest = reached
                k += 1
            if lowest < index:
                # The root of v's SCC is further up the search path.
                low[v] = lowest
                stack.append(v)
            elif index and stack and low[stack[-1]] >= index:
                # v roots a cyclic SCC: itself and the stacked states whose
                # low is at least index. Every edge leaving it is settled.
                base = len(stack) - 1
                while base and low[stack[base - 1]] >= index:
                    base -= 1
                members = sorted(stack[base:] + [v])
                del stack[base:]
                flags, gap = _settle_cyclic(dtmc, members, kind, cells)
                if flags & REACH:
                    solved = True
                    residual = max(residual, gap)
                for s in members:
                    kind[s] = flags
            else:
                # v is an SCC of itself, numbered or not, and every edge
                # leaving it is settled.
                if flags & REACH:
                    solved = True
                    if self_prob:
                        # Divide by the mass leaving v, a GTH pivot:
                        # 1 - self_prob cancels, to 0.0 when 1e-200
                        # leaves beside a self-loop of 1.0.
                        row = range(starts[v], end)
                        incoming /= sum(probs[j] for j in row if targets[j] != v)
                    cells[v] = incoming
                else:
                    flags = MISS
                kind[v] = flags
            if not calls:
                break
            v, index, lowest, k, end, flags, incoming, self_prob = calls.pop()
    cells.release()
    return values, kind, residual, solved


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
        values=values,
    )
