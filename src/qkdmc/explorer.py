"""Explicit-state construction of the DTMC described by a validated model.

Modules compose by full-alphabet synchronization: an action label fires only
when every module whose alphabet contains the label has exactly one enabled
command for it, and the joint update distribution is the product of the
participating commands' distributions. Unlabeled commands fire alone. The
semantics of a state is therefore deterministic: exactly one group (action or
unlabeled command) may be enabled; zero enabled groups makes a flagged
deadlock that receives a probability-1 self-loop.

`build` renders the whole model as the Python source of one function,
``successors(s)``, compiles it once and calls it on each state in
breadth-first order. In it, every guard is inlined: one selection per
module and group picks the module's command, one line per group records
whether the group is enabled, and the one enabled group returns its
(probability, successor) pairs. Each command's updates are one tuple of
(probability, new values) per update. A group of one module returns these
tuples as they are, each new-values part a whole successor. A larger
group's successors come from one comprehension with a `for` clause over
each branching module's tuples, in the order of the product of their
distributions; deterministic modules are unpacked before it. The function
still checks, in every state it is called on:

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

`build` itself merges and sorts each row, checks that it sums to 1 within
ROW_SUM_TOL (ROW_SUM, naming the state) and appends it to the Dtmc's CSR
columns. The walk keys states by tuple, since the generated function reads
``s[i]``. Once it ends, build packs each state into a fixed-width record
(see `record_struct`) and drops the tuples. It evaluates no label: the
Dtmc keeps their definitions, and `Dtmc.states_where` answers each state
query in one scan of the records. The Dtmc keeps the records and the CSR
arrays: a few flat buffers, not a container per row and per state for the
cyclic garbage collector to scan.
"""

from __future__ import annotations

import functools
import math
import struct
from array import array
from dataclasses import dataclass
from itertools import compress, count
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
    successors = _successor_function(vm)
    initial = vm.initial_state
    # The generated function reads s[i], so the walk keys states by tuple.
    states: list[tuple[int, ...]] = [initial]
    state_index: dict[tuple[int, ...], int] = {initial: 0}
    row_starts = array("q", [0])
    targets = array("q")
    probs = array("d")
    deadlocks: set[int] = set()
    # Bound once: the loop calls them once per transition.
    add_target, add_prob = targets.append, probs.append

    # states grows while it is walked, so the walk is breadth-first.
    for si, state in enumerate(states):
        out = successors(state)
        if out is None:
            deadlocks.add(si)
            add_target(si)
            add_prob(1.0)
            row_starts.append(len(targets))
            continue
        merged: dict[int, float] = {}
        for prob, key in out:
            fresh = len(states)
            ti = state_index.setdefault(key, fresh)
            if ti == fresh:
                states.append(key)
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
        row_starts.append(len(targets))
    # The index holds an entry per state; freeing it before the records are
    # built lowers the build's peak memory.
    del state_index
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


def _successor_function(
    vm: ValidatedModel,
) -> Callable[[tuple[int, ...]], Iterable[tuple[float, tuple[int, ...]]] | None]:
    """Compile the model into successors(s): None for a deadlock, else the
    enabled group's (probability, successor) pairs in product order.
    """
    var_index = vm.var_index
    modules = vm.model.modules

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

    def checked(line: int, var: ast.VarDecl, value: ast.Expr) -> str:
        source = render(value)
        if not names.expr_names(value) & var_index.keys():
            constant = eval(source, {"__builtins__": {}})
            if var.low <= constant <= var.high:
                return repr(constant)
        bound_sites.append((line, var))
        site = len(bound_sites) - 1
        return f"(t if {var.low} <= (t := {source}) <= {var.high} else _bounds(s, {site}, t))"

    def update_tuples(
        mi: int, ci: int, command: ast.Command, writes: Iterable[int], alone: bool
    ) -> list[str]:
        # One (probability, value per written variable) tuple per update;
        # a variable this update does not assign keeps its value s[i]. A
        # module alone in its group writes the whole successor, as a tuple.
        tuples = []
        for ui, update in enumerate(command.updates):
            prob = vm.update_probs[mi][ci][ui]
            if prob == 0.0:
                continue
            values = {
                var_index[a.var]: checked(command.pos.line, vm.variables[var_index[a.var]], a.value)
                for a in update.assignments
            }
            fields = _fields(writes, values)
            tuples.append(f"({prob!r}, ({fields},))" if alone else f"({prob!r}, {fields})")
        return tuples

    enable: list[str] = []
    fire: list[str] = []
    for gi, (_, action, parts) in enumerate(groups):
        # A group of one module has no product to form: its update tuples
        # are the (probability, successor) pairs.
        alone = len(parts) == 1
        terms, body, unpacks, clauses, written = [], [], [], [], {}
        for j, (mi, commands) in enumerate(parts):
            writes = sorted(
                {var_index[a.var] for _, c in commands for u in c.updates for a in u.assignments}
            )
            written.update((i, f"v{i}") for i in writes)
            target = ", ".join([f"p{j}" if j else "q0"] + [f"v{i}" for i in writes]) + ","
            fields = range(len(vm.variables)) if alone else writes
            choices = [update_tuples(mi, ci, command, fields, alone) for ci, command in commands]
            if alone:
                rhs = [f"({', '.join(tuples)},)" for tuples in choices]
            elif all(len(tuples) == 1 for tuples in choices):
                # Deterministic here: unpack the one update, loop over nothing.
                rhs = [tuples[0] for tuples in choices]
                unpacks.append(f"{target} = u{j}")
            else:
                rhs = [f"({', '.join(tuples)},)" for tuples in choices]
                clauses.append(f"for {target} in u{j}")
            # q{j} is the product of the first j + 1 modules' probabilities,
            # one factor per step, so no expression nests deeper as the
            # group grows. Once a module loops, the steps are clauses.
            if j and clauses:
                clauses.append(f"for q{j} in (q{j - 1} * p{j},)")
            elif j:
                unpacks.append(f"q{j} = q{j - 1} * p{j}")
            if len(commands) == 1:
                terms.append(render(commands[0][1].guard))
                body.append(f"u{j} = {rhs[0]}")
            else:
                guards = ", ".join(render(command.guard) for _, command in commands)
                terms.append(f"(k{gi}_{j} := _pick(({guards}), s, {len(picks)})) >= 0")
                lines = [command.pos.line for _, command in commands]
                picks.append((modules[mi].name, action, lines))
                body.extend(f"if k{gi}_{j} == {k}: u{j} = {choice}" for k, choice in enumerate(rhs))
        body.extend(unpacks)
        if alone:
            body.append("return u0")
        else:
            successor = f"({_fields(range(len(vm.variables)), written)},)"
            q = f"q{len(parts) - 1}"
            if clauses:
                body.append(f"return [({q}, {successor}) {' '.join(clauses)} if {q}]")
            else:
                # One combination; a zero product fails the row-sum check either way.
                body.append(f"return [({q}, {successor})]")
        enabled = f"g = {gi} if g < 0 else _nondeterminism(s, g, {gi})"
        enable.append(f"if {' and '.join(terms)}: {enabled}")
        fire.append(f"if g == {gi}:")
        fire.extend(f"    {line}" for line in body)

    # In a deadlock g stays -1: no group fires and successors returns None.
    source = "\n    ".join(
        [
            "def successors(s):",
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
        "__builtins__": {},
        "_pick": pick,
        "_bounds": bounds,
        "_nondeterminism": nondeterminism,
    }
    exec(compile(source, "<successors>", "exec"), namespace)
    return namespace["successors"]


# A run of more unset variables than this is copied into a tuple as one
# slice of s; a shorter one indexes s. 16 is where the slice starts to pay:
# in a tuple display on CPython 3.11, indexing 16 variables took 75 ns
# against 88 ns for one starred slice, indexing 24 took 137 ns against 107.
MAX_INDEXED_RUN = 16


def _fields(indices: Iterable[int], values: dict[int, str]) -> str:
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
            fields.append(values[i])
        else:
            if run and i != run[-1] + 1:
                close_run()
            run.append(i)
    close_run()
    return ", ".join(fields)


def describe(variables: tuple[ast.VarDecl, ...], state: tuple[int, ...]) -> str:
    """Readable variable=value listing for diagnostics."""
    return ", ".join(f"{var.name}={value}" for var, value in zip(variables, state))
