"""Explicit-state construction of the DTMC described by a validated model.

Modules compose by full-alphabet synchronization: an action label fires only
when every module whose alphabet contains the label has exactly one enabled
command for it, and the joint update distribution is the product of the
participating commands' distributions. Unlabeled commands fire alone. The
semantics of a state is therefore deterministic: exactly one group (action or
unlabeled command) may be enabled; zero enabled groups makes a flagged
deadlock that receives a probability-1 self-loop.

`build` renders the whole model as the Python source of one function,
the walk, compiles it once and calls it once. It visits its `states` list
in order while it appends newly found states to it, so it is the
breadth-first search. In it, every guard is inlined: one selection per
module and group picks the module's command, one line per group records
whether the group is enabled, and the branch of the one enabled group
stores the state's row. The function still checks, in every state it
visits:

- that each module of a group that fires has one enabled command for the
  group's action (it evaluates every such guard, not the first true one;
  NONDETERMINISM names the module, the action, both command lines and the
  state). A group's modules are tested in order and the test stops at the
  first module with no enabled command, so a state where the action does
  not fire may pass unchecked;
- that at most one group is enabled (NONDETERMINISM, naming the first two
  enabled groups and the state);
- that each assigned value lies in its variable's range (BOUNDS, naming
  the command line, the variable, the value and the state). Only an
  assignment of a constant already known to be in range skips the test.

Where the generator knows every probability of a row, the walk stores
the row in straight-line code (partial evaluation: Jones, Gomard &
Sestoft, 1993). That holds for a group of one module, or of several of
which at most one picks among commands: there is one row per command of
the picking module, and the products of the modules' probabilities are
formed at generation time, left to right as the run-time product would
be, so every stored float has the same bits. The walk looks each
successor up in the state index in product order, appending a new one,
and stores the pairs as they are when their targets come out strictly
ascending: they are then distinct and sorted, and their sum was checked
against ROW_SUM_TOL at generation time. 94 % of a 500-photon bb84
model's rows take that path. Other rows go to one of three helpers that
`build` defines once over its CSR columns and passes in as arguments:

- `_merge(pairs, s)` merges (probability, target) pairs by target,
  checks that they sum to 1 within ROW_SUM_TOL (ROW_SUM, naming the
  state), sorts them by target and appends the row. An unrolled row
  whose targets are not ascending goes here, or one whose sum misses 1;
- `_row(pairs, s)` indexes (probability, successor) pairs, then merges
  them as `_merge` does. It takes the rows of a group in which two
  modules pick, and rows of more than MAX_UNROLLED_PAIRS pairs: a
  product of distributions can have exponentially many, so those rows
  are one comprehension with a `for` clause over each branching module's
  updates, in product order, and the generated source stays linear in
  the model text;
- `_dead(si)` stores a deadlock's self-loop.

Passed as arguments, the helpers and the bound methods the walk calls stay
out of the reference cycle between the function and its `exec` namespace,
so nothing they reach outlives the build. The walk keys states by tuple,
since the generated function reads ``s[i]``. Once it ends, build frees
the index, packs each state into a fixed-width record (see
`record_struct`) and drops the tuples. It evaluates no label: the Dtmc
keeps their definitions, and `Dtmc.states_where` answers each state query
in one scan of the records. The Dtmc keeps the
records and the CSR arrays: a few flat buffers, not a container per row
and per state for the cyclic garbage collector to scan.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from dataclasses import dataclass
from itertools import compress, count, product
from typing import Callable, Iterable, Iterator

from qkdmc.errors import BuildError
from qkdmc.lang import ast, names
from qkdmc.lang.analysis import compile_expr, render_expr
from qkdmc.lang.validate import ValidatedModel

ROW_SUM_TOL = 1e-9

# Unsigned struct formats (standard sizes) from narrowest to widest.
FIELD_FORMATS = (("B", 2**8 - 1), ("H", 2**16 - 1), ("I", 2**32 - 1), ("Q", 2**64 - 1))


def record_struct(variables: Iterable[ast.VarDecl]) -> struct.Struct:
    """Fixed-width record of one state: per variable, in order, the narrowest
    unsigned field that holds its high. Bounds are unsigned literals and
    validation caps high at 2**64 - 1, so every valuation in range fits. A
    model without variables gets one pad byte, so no record is empty.
    """
    fields = "".join(
        next(fmt for fmt, top in FIELD_FORMATS if var.high <= top) for var in variables
    )
    return struct.Struct("<" + (fields or "x"))


@dataclass(frozen=True, eq=False)
class Dtmc:
    """Sparse explicit DTMC with BFS state indexing, stored flat.

    Immutable once built; safe to share across threads for read-only
    solving. Two Dtmcs are equal only if they are the same object. The rows
    are in compressed sparse row (CSR) form, three stdlib arrays: row s
    occupies positions row_starts[s] to row_starts[s + 1] - 1 of `targets`
    (state indices, 'q') and `probs` (probabilities, 'd'). Each row is
    sorted by target, duplicates merged, zero-probability entries dropped;
    `row_starts` ('q') has state_count + 1 entries.

    `records` holds the states as one `record_struct(variables)` record
    each, in index order: 12 bytes per state in a 500-photon bb84 model.
    Read them with `state`, `iter_states` and `describe_state`. `labels`
    maps each label name to its defining expression; `states_where` finds
    the states where one holds.
    """

    variables: tuple[ast.VarDecl, ...]
    constants: dict[str, int | float]
    records: bytes
    initial: int
    row_starts: array[int]
    targets: array[int]
    probs: array[float]
    labels: dict[str, ast.Expr]
    deadlocks: frozenset[int]

    @property
    def state_count(self) -> int:
        return len(self.row_starts) - 1

    @property
    def transition_count(self) -> int:
        return len(self.targets)

    @property
    def var_index(self) -> dict[str, int]:
        return {var.name: i for i, var in enumerate(self.variables)}

    @functools.cached_property
    def _record(self) -> struct.Struct:
        return record_struct(self.variables)

    def state(self, index: int) -> tuple[int, ...]:
        """The valuation of state `index` (in `variables` order)."""
        if not 0 <= index < self.state_count:
            raise IndexError(f"state index {index} out of range")
        return self._record.unpack_from(self.records, index * self._record.size)

    def iter_states(self) -> Iterator[tuple[int, ...]]:
        """Every state's valuation, in index order."""
        return self._record.iter_unpack(self.records)

    def states_where(self, expr: ast.Expr) -> frozenset[int]:
        """Indices of the states where a kind-checked boolean expression over
        the variables and constants holds, from one scan of the records.
        """
        holds = compile_expr(expr, self.var_index, self.constants)
        return frozenset(compress(count(), map(holds, self.iter_states())))

    def row(self, index: int) -> tuple[tuple[int, float], ...]:
        """The (target, probability) pairs of one row, sorted by target."""
        begin, end = self.row_starts[index], self.row_starts[index + 1]
        return tuple(zip(self.targets[begin:end], self.probs[begin:end]))

    def describe_state(self, index: int) -> str:
        return describe(self.variables, self.state(index))

    def export_text(self) -> str:
        """Plain-text dump for diffing; not a stability contract.

        One `src dst prob` line per transition, then a label section and the
        deadlock list. Probabilities use repr for lossless round trips.
        """
        lines = [
            f"states {self.state_count}",
            f"initial {self.initial}",
            f"transitions {self.transition_count}",
        ]
        starts, targets, probs = self.row_starts, self.targets, self.probs
        for src in range(self.state_count):
            for k in range(starts[src], starts[src + 1]):
                lines.append(f"{src} {targets[k]} {probs[k]!r}")
        lines.append("labels")
        for name in sorted(self.labels):
            members = " ".join(str(i) for i in sorted(self.states_where(self.labels[name])))
            lines.append(f'"{name}" {members}'.rstrip())
        dead = " ".join(str(i) for i in sorted(self.deadlocks))
        lines.append(f"deadlocks {dead}".rstrip())
        return "\n".join(lines) + "\n"


def build(vm: ValidatedModel) -> Dtmc:
    """Breadth-first exploration from the initial valuation.

    State indices follow discovery order, so two builds of the same model
    are identical structure for structure. Raises BuildError with code
    NONDETERMINISM (two groups, or two commands of one module for one
    action, enabled; reports the state), BOUNDS (an update leaves a
    variable's range; reports state, command line and variable) or ROW_SUM
    (post-build stochasticity assert).
    """
    explore = _compile_walk(vm)
    initial = vm.initial_state
    # The generated function reads s[i], so the walk keys states by tuple.
    states: list[tuple[int, ...]] = [initial]
    state_index: dict[tuple[int, ...], int] = {initial: 0}
    row_starts = array("q", [0])
    targets = array("q")
    probs = array("d")
    deadlocks: set[int] = set()
    # Bound once: the walk and the helpers call them once per state or
    # transition.
    index, add_state = state_index.setdefault, states.append
    add_target, add_prob, end_row = targets.append, probs.append, row_starts.append

    def merge(pairs: Iterable[tuple[float, int]], state: tuple[int, ...]) -> None:
        # Merge the (probability, target) pairs by target, check the sum,
        # store them sorted by target.
        merged: dict[int, float] = {}
        for prob, ti in pairs:
            merged[ti] = merged.get(ti, 0.0) + prob
        total = math.fsum(merged.values())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise BuildError(
                f"row for state ({describe(vm.variables, state)}) sums to {total:.12g}",
                code="ROW_SUM",
            )
        for ti, prob in sorted(merged.items()):
            add_target(ti)
            add_prob(prob)
        end_row(len(targets))

    def row(pairs: Iterable[tuple[float, tuple[int, ...]]], state: tuple[int, ...]) -> int:
        # Index the successors in order, merge the row; return the new state
        # count.
        indexed = []
        for prob, key in pairs:
            fresh = len(states)
            ti = index(key, fresh)
            if ti == fresh:
                add_state(key)
            indexed.append((prob, ti))
        merge(indexed, state)
        return len(states)

    def dead(si: int) -> None:
        deadlocks.add(si)
        add_target(si)
        add_prob(1.0)
        end_row(len(targets))

    explore(states, targets, row, merge, dead, index, add_state, add_target, add_prob, end_row)
    # The index holds an entry per state; freeing it, and the bound method
    # the walk was handed, before the records are built lowers the build's
    # peak memory.
    del state_index, index
    pack = record_struct(vm.variables).pack
    records = bytearray()
    for state in states:
        records += pack(*state)

    return Dtmc(
        variables=vm.variables,
        constants=dict(vm.constants),
        records=bytes(records),
        initial=0,
        row_starts=row_starts,
        targets=targets,
        probs=probs,
        labels={label.name: label.expr for label in vm.model.labels},
        deadlocks=frozenset(deadlocks),
    )


# One update as the generator sees it: its probability and, per variable it
# assigns, a constant known to be in range or the source that checks the
# value.
UpdateCode = tuple[float, dict[int, int | str]]

# The most (probability, successor) pairs one row is unrolled into. A row of
# a product of distributions can have exponentially many; past this it keeps
# the comprehension, so the generated source stays linear in the model text.
MAX_UNROLLED_PAIRS = 16


def _compile_walk(
    vm: ValidatedModel,
) -> Callable[..., None]:
    """Compile the model into the walk, explore(states, targets, _row,
    _merge, _dead, index, add, at, ap, end).

    It visits `states` in order while it and `_row` append to it; `n` is
    the length of `states`. It stores each state's row itself, with
    `index` (the state index's setdefault), `add` (the states' append),
    `at` and `ap` (the columns' appends) and `end` (the row starts'
    append), where the generator knows the row's probabilities: at most one
    module of the firing group picks among several commands, and the row has
    at most MAX_UNROLLED_PAIRS pairs. Such a row whose targets do not come
    out strictly ascending goes to `_merge(pairs, s)` as (probability,
    target) pairs. Any other row goes to `_row(pairs, s)` as (probability,
    successor) pairs in product order, and a deadlock to `_dead(si)`.
    """
    var_index = vm.var_index
    modules = vm.model.modules
    width = len(vm.variables)

    # A group is each participating module's commands for one action, or one
    # unlabeled command as a module of its own. It is enabled when each of its
    # modules has an enabled command.
    groups: list[tuple[str, str | None, list[tuple[int, list[tuple[int, ast.Command]]]]]] = []
    by_action: dict[str, dict[int, list[tuple[int, ast.Command]]]] = {
        action: {} for action in vm.action_order
    }
    for mi, module in enumerate(modules):
        for ci, command in enumerate(module.commands):
            if command.label is None:
                name = f"unlabeled command (module {module.name})"
                groups.append((name, None, [(mi, [(ci, command)])]))
            else:
                by_action[command.label].setdefault(mi, []).append((ci, command))
    for action, parts in by_action.items():
        groups.append((f"action [{action}]", action, list(parts.items())))

    picks: list[tuple[str, str | None, list[int]]] = []
    bound_sites: list[tuple[int, ast.VarDecl]] = []

    def render(expr: ast.Expr) -> str:
        return render_expr(expr, var_index, vm.constants)

    def checked(line: int, var: ast.VarDecl, value: ast.Expr) -> int | str:
        # A constant known to be in range, or the source that checks the value.
        source = render(value)
        if not names.expr_names(value) & var_index.keys():
            constant = eval(source, {"__builtins__": {}})
            if var.low <= constant <= var.high:
                return constant
        bound_sites.append((line, var))
        site = len(bound_sites) - 1
        return f"(t if {var.low} <= (t := {source}) <= {var.high} else _bounds(s, {site}, t))"

    def updates_of(mi: int, ci: int, command: ast.Command) -> list[UpdateCode]:
        # One (probability, value per assigned variable) pair per update of
        # nonzero probability.
        pairs = []
        for ui, update in enumerate(command.updates):
            prob = vm.update_probs[mi][ci][ui]
            if prob == 0.0:
                continue
            values = {
                var_index[a.var]: checked(command.pos.line, vm.variables[var_index[a.var]], a.value)
                for a in update.assignments
            }
            pairs.append((prob, values))
        return pairs

    enable: list[str] = []
    fire: list[str] = []
    for gi, (_, action, parts) in enumerate(groups):
        # choices[j][c]: the updates of command c of the group's module j.
        choices = [[updates_of(mi, ci, c) for ci, c in commands] for mi, commands in parts]
        terms, pickers = [], []
        for j, (mi, commands) in enumerate(parts):
            if len(commands) == 1:
                terms.append(render(commands[0][1].guard))
            else:
                guards = ", ".join(render(command.guard) for _, command in commands)
                terms.append(f"(k{gi}_{j} := _pick(({guards}), s, {len(picks)})) >= 0")
                lines = [command.pos.line for _, command in commands]
                picks.append((modules[mi].name, action, lines))
                pickers.append(j)
        # One branch per command of the picking module, if any: each fixes
        # one command per module.
        picker = pickers[0] if pickers else 0
        branches = [
            [per_command[c if j == picker else 0] for j, per_command in enumerate(choices)]
            for c in range(len(choices[picker]))
        ]
        if len(pickers) <= 1 and all(
            math.prod(map(len, branch)) <= MAX_UNROLLED_PAIRS for branch in branches
        ):
            if pickers:
                body = []
                for c, branch in enumerate(branches):
                    body.append(f"if k{gi}_{picker} == {c}:")
                    rows = [*_unrolled_row(branch, width), "continue"]
                    body.extend(f"    {line}" for line in rows)
            else:
                body = _unrolled_row(branches[0], width)
        else:
            body = _product_row(gi, parts, choices, width)
        enabled = f"g = {gi} if g < 0 else _nondeterminism(s, g, {gi})"
        enable.append(f"if {' and '.join(terms)}: {enabled}")
        # Flat ifs, not an elif chain: Python compiles a chain of elifs as
        # nested statements, and one of 3,000 groups passes its recursion
        # limit.
        fire.append(f"if g == {gi}:")
        fire.extend(f"    {line}" for line in [*body, "continue"])

    # In a deadlock g stays -1: no group fires.
    fire.append("_dead(si)")
    # states grows while it is walked, so the walk is breadth-first.
    source = "\n        ".join(
        [
            "def explore(states, targets, _row, _merge, _dead, index, add, at, ap, end):\n"
            "    n = len(states)\n    for si, s in enumerate(states):",
            "g = -1",
            *enable,
            *fire,
        ]
    )

    def pick(hits: tuple[bool, ...], state: tuple[int, ...], site: int) -> int:
        if hits.count(True) > 1:
            module, action, lines = picks[site]
            first, second = [line for line, hit in zip(lines, hits) if hit][:2]
            raise BuildError(
                f"module {module}: commands at line {first} and line {second} are both "
                f"enabled for action [{action}] in state ({describe(vm.variables, state)})",
                code="NONDETERMINISM",
            )
        return hits.index(True) if True in hits else -1

    def bounds(state: tuple[int, ...], site: int, value: int) -> None:
        line, var = bound_sites[site]
        raise BuildError(
            f"update at line {line} sets {var.name}={value}, outside "
            f"[{var.low}..{var.high}], in state ({describe(vm.variables, state)})",
            code="BOUNDS",
        )

    def nondeterminism(state: tuple[int, ...], first: int, second: int) -> None:
        raise BuildError(
            f"{groups[first][0]} and {groups[second][0]} both enabled in state "
            f"({describe(vm.variables, state)})",
            code="NONDETERMINISM",
        )

    namespace = {
        "__builtins__": {"enumerate": enumerate, "len": len},
        "_pick": pick,
        "_bounds": bounds,
        "_nondeterminism": nondeterminism,
    }
    exec(compile(source, "<explore>", "exec"), namespace)
    return namespace["explore"]


def _unrolled_row(per_module: list[list[UpdateCode]], width: int) -> list[str]:
    """The statements that store the row of one choice of command per module
    of a group, each of whose probabilities the generator knows.

    Each successor, in product order, is looked up in the index, and a new
    one appended to the walk's states. Strictly ascending targets are
    distinct and already sorted, so the merge would change nothing: the
    pairs are stored as they are, their row sum checked here. Otherwise
    `_merge` merges them, checks their sum and sorts them, as for any row.
    """
    lines: list[str] = []

    # A module's value can recur in several successors: bind each one read
    # from the state once, module by module, update by update and variable
    # by variable, the order in which `_row`'s tuples evaluate them.
    def bind(values: dict[int, int | str]) -> dict[int, int | str]:
        local: dict[int, int | str] = {}
        for i in sorted(values):
            if isinstance(values[i], str):
                local[i] = f"a{len(lines)}"
                lines.append(f"a{len(lines)} = {values[i]}")
            else:
                local[i] = values[i]
        return local

    per_module = [[(prob, bind(values)) for prob, values in updates] for updates in per_module]
    pairs: list[tuple[float, str]] = []
    for combination in product(*per_module):
        # Left to right, as the comprehension multiplies, so every product
        # has the bits the run-time product would have; a zero one is
        # dropped as `if q` drops it.
        q = combination[0][0]
        for p, _ in combination[1:]:
            q *= p
        if not q:
            continue
        values: dict[int, int | str] = {}
        for _, assigned in combination:
            values.update(assigned)
        t = f"t{len(pairs)}"
        successor = f"({_fields(range(width), values)},)"
        lines.append(f"if ({t} := index(k := {successor}, n)) == n: add(k); n += 1")
        pairs.append((q, t))
    store = "".join(f"at({t}); ap({q!r}); " for q, t in pairs) + "end(len(targets))"
    merge = f"_merge(({''.join(f'({q!r}, {t}), ' for q, t in pairs)}), s)"
    if abs(math.fsum(q for q, _ in pairs) - 1.0) > ROW_SUM_TOL:
        # The merge raises ROW_SUM, naming the state.
        lines.append(merge)
    elif len(pairs) == 1:
        lines.append(store)
    else:
        ascending = " < ".join(t for _, t in pairs)
        lines.extend([f"if {ascending}:", f"    {store}", "else:", f"    {merge}"])
    return lines


def _product_row(
    gi: int,
    parts: list[tuple[int, list[tuple[int, ast.Command]]]],
    choices: list[list[list[UpdateCode]]],
    width: int,
) -> list[str]:
    """The statements that hand a group's row to `_row` as (probability,
    successor) pairs in product order, for a row the walk does not unroll.

    The successors come from one comprehension with a `for` clause over
    each branching module's updates; deterministic modules are unpacked
    before it.
    """
    body, unpacks, clauses, written = [], [], [], {}
    for j, (mi, commands) in enumerate(parts):
        writes = sorted({i for updates in choices[j] for _, values in updates for i in values})
        written.update((i, f"v{i}") for i in writes)
        target = ", ".join([f"p{j}" if j else "q0"] + [f"v{i}" for i in writes]) + ","
        pairs = [
            [(repr(prob), _fields(writes, values)) for prob, values in updates]
            for updates in choices[j]
        ]
        # One statement per command: it binds u{j}.
        if all(len(each) == 1 for each in pairs):
            # Deterministic here: unpack the one update, loop over nothing.
            stmts = [f"u{j} = ({prob}, {succ})" for ((prob, succ),) in pairs]
            unpacks.append(f"{target} = u{j}")
        else:
            stmts = [
                f"u{j} = ({''.join(f'({prob}, {succ}), ' for prob, succ in each)})"
                for each in pairs
            ]
            clauses.append(f"for {target} in u{j}")
        # q{j} is the product of the first j + 1 modules' probabilities,
        # one factor per step, so no expression nests deeper as the group
        # grows. Once a module loops, the steps are clauses.
        if j and clauses:
            clauses.append(f"for q{j} in (q{j - 1} * p{j},)")
        elif j:
            unpacks.append(f"q{j} = q{j - 1} * p{j}")
        if len(commands) == 1:
            body.append(stmts[0])
        else:
            body.extend(f"if k{gi}_{j} == {k}: {stmt}" for k, stmt in enumerate(stmts))
    body.extend(unpacks)
    successor = f"({_fields(range(width), written)},)"
    q = f"q{len(parts) - 1}"
    if clauses:
        body.append(f"n = _row([({q}, {successor}) {' '.join(clauses)} if {q}], s)")
    else:
        # One combination; a zero product fails the row-sum check either way.
        body.append(f"n = _row((({q}, {successor}),), s)")
    return body


# A run of more unset variables than this is copied into a tuple as one
# slice of s; a shorter one indexes s. 16 is where the slice starts to pay:
# in a tuple display on CPython 3.11, indexing 16 variables took 75 ns
# against 88 ns for one starred slice, indexing 24 took 137 ns against 107.
MAX_INDEXED_RUN = 16


def _fields(indices: Iterable[int], values: dict[int, int | str]) -> str:
    """Tuple fields: values[i] for each of the ascending indices, else s[i].

    A run of unset, consecutive indices longer than MAX_INDEXED_RUN is one
    slice, so the text grows with len(values), not with len(indices).
    """
    fields: list[str] = []
    run: list[int] = []

    def close_run() -> None:
        if len(run) > MAX_INDEXED_RUN:
            fields.append(f"*s[{run[0]}:{run[-1] + 1}]")
        else:
            fields.extend(f"s[{i}]" for i in run)
        run.clear()

    for i in indices:
        if i in values:
            close_run()
            fields.append(str(values[i]))
        else:
            if run and i != run[-1] + 1:
                close_run()
            run.append(i)
    close_run()
    return ", ".join(fields)


def describe(variables: tuple[ast.VarDecl, ...], state: tuple[int, ...]) -> str:
    """Readable variable=value listing for diagnostics."""
    return ", ".join(f"{var.name}={value}" for var, value in zip(variables, state))
