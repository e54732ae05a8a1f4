"""Explicit-state construction of the DTMC described by a validated model.

Modules compose by full-alphabet synchronization: an action label fires only
when every module whose alphabet contains the label has exactly one enabled
command for it, and the joint update distribution is the product of the
participating commands' distributions. Unlabeled commands fire alone. The
semantics of a state is therefore deterministic: exactly one group (action or
unlabeled command) may be enabled; zero enabled groups makes a flagged
deadlock that receives a probability-1 self-loop.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from qkdmc.errors import BuildError, QkdmcError
from qkdmc.lang import ast
from qkdmc.lang.analysis import compile_expr
from qkdmc.lang.validate import ValidatedModel

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Dtmc:
    """Sparse explicit DTMC with BFS state indexing.

    Immutable once built; safe to share across threads for read-only
    solving. Rows hold (target index, probability) pairs sorted by target,
    duplicates merged, zero-probability entries dropped.
    """

    variables: tuple[ast.VarDecl, ...]
    constants: dict[str, int | float] = field(compare=False)
    states: tuple[tuple[int, ...], ...] = field(compare=False)
    initial: int = field(compare=False)
    rows: tuple[tuple[tuple[int, float], ...], ...] = field(compare=False)
    labels: dict[str, frozenset[int]] = field(compare=False)
    deadlocks: frozenset[int] = field(compare=False)

    @property
    def state_count(self) -> int:
        return len(self.states)

    @property
    def transition_count(self) -> int:
        return sum(len(row) for row in self.rows)

    @property
    def var_index(self) -> dict[str, int]:
        return {var.name: i for i, var in enumerate(self.variables)}

    def describe_state(self, index: int) -> str:
        return describe(self.variables, self.states[index])

    @functools.cached_property
    def _state_index(self) -> dict[tuple[int, ...], int]:
        # Built on the first lookup only, so models never queried by
        # valuation do not carry a dict over every state.
        return {state: index for index, state in enumerate(self.states)}

    def index_of(self, state: tuple[int, ...]) -> int:
        """Index of the reachable state with this valuation (in `variables` order).

        Raises QkdmcError (code NO_SUCH_STATE) if no reachable state has it.
        """
        index = self._state_index.get(state)
        if index is None:
            raise QkdmcError(
                f"no reachable state ({describe(self.variables, state)})", code="NO_SUCH_STATE"
            )
        return index

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
        for src, row in enumerate(self.rows):
            for dst, prob in row:
                lines.append(f"{src} {dst} {prob!r}")
        lines.append("labels")
        for name in sorted(self.labels):
            members = " ".join(str(i) for i in sorted(self.labels[name]))
            lines.append(f'"{name}" {members}'.rstrip())
        dead = " ".join(str(i) for i in sorted(self.deadlocks))
        lines.append(f"deadlocks {dead}".rstrip())
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Update:
    prob: float
    # (variable index, name, low, high, compiled rhs)
    assigns: tuple[tuple[int, str, int, int, Callable], ...]


@dataclass(frozen=True)
class _Command:
    line: int
    guard: Callable
    updates: tuple[_Update, ...]


def build(vm: ValidatedModel) -> Dtmc:
    """Breadth-first exploration from the initial valuation.

    State indices follow discovery order, so two builds of the same model
    are identical structure for structure. Raises BuildError with code
    NONDETERMINISM (two groups enabled; reports the state), BOUNDS (an
    update leaves a variable's range; reports state, command line and
    variable) or ROW_SUM (post-build stochasticity assert).
    """
    var_index = vm.var_index
    bounds = {var.name: (var.low, var.high) for var in vm.variables}

    def compile_command(mi: int, command: ast.Command, ci: int) -> _Command:
        updates = []
        for ui, update in enumerate(command.updates):
            prob = vm.update_probs[mi][ci][ui]
            if prob == 0.0:
                continue
            assigns = tuple(
                (
                    var_index[a.var],
                    a.var,
                    bounds[a.var][0],
                    bounds[a.var][1],
                    compile_expr(a.value, var_index, vm.constants),
                )
                for a in update.assignments
            )
            updates.append(_Update(prob, assigns))
        guard = compile_expr(command.guard, var_index, vm.constants)
        return _Command(command.pos.line, guard, tuple(updates))

    # A group is each participating module's commands for one action, or one
    # unlabeled command as a module of its own. It is enabled when each of its
    # modules has an enabled command.
    groups: list[tuple[str, tuple[list[_Command], ...]]] = []
    by_action: dict[str, dict[str, list[_Command]]] = {a: {} for a in vm.action_order}
    for mi, module in enumerate(vm.model.modules):
        for ci, command in enumerate(module.commands):
            compiled = compile_command(mi, command, ci)
            if command.label is None:
                groups.append((f"unlabeled command (module {module.name})", ([compiled],)))
            else:
                by_action[command.label].setdefault(module.name, []).append(compiled)
    for action, module_cmds in by_action.items():
        groups.append((f"action [{action}]", tuple(module_cmds.values())))

    initial = vm.initial_state
    states: list[tuple[int, ...]] = [initial]
    state_index: dict[tuple[int, ...], int] = {initial: 0}
    rows: list[tuple[tuple[int, float], ...]] = []
    deadlocks: set[int] = set()
    queue: deque[int] = deque([0])

    while queue:
        si = queue.popleft()
        state = states[si]

        enabled: list[tuple[str, list[_Command]]] = []
        for name, modules in groups:
            parts: list[_Command] = []
            for cmds in modules:
                # The validator rejected overlapping same-label guards, so at
                # most one command per module can be enabled here.
                for cmd in cmds:
                    if cmd.guard(state):
                        parts.append(cmd)
                        break
                else:
                    break
            else:
                enabled.append((name, parts))

        if not enabled:
            deadlocks.add(si)
            rows.append(((si, 1.0),))
            continue
        if len(enabled) > 1:
            shown = " and ".join(name for name, _ in enabled)
            raise BuildError(
                f"{shown} both enabled in state ({describe(vm.variables, state)})",
                code="NONDETERMINISM",
            )

        _, parts = enabled[0]
        targets: dict[int, float] = {}
        for combo in itertools.product(*(cmd.updates for cmd in parts)):
            prob = 1.0
            for update in combo:
                prob *= update.prob
            if prob == 0.0:
                continue
            successor = list(state)
            for update, cmd in zip(combo, parts):
                for vi, name, low, high, fn in update.assigns:
                    value = fn(state)
                    if not low <= value <= high:
                        raise BuildError(
                            f"update at line {cmd.line} sets {name}={value}, outside "
                            f"[{low}..{high}], in state ({describe(vm.variables, state)})",
                            code="BOUNDS",
                        )
                    successor[vi] = value
            key = tuple(successor)
            ti = state_index.get(key)
            if ti is None:
                ti = len(states)
                state_index[key] = ti
                states.append(key)
                queue.append(ti)
            targets[ti] = targets.get(ti, 0.0) + prob

        total = math.fsum(targets.values())
        if abs(total - 1.0) > ROW_SUM_TOL:
            raise BuildError(
                f"row for state ({describe(vm.variables, state)}) sums to {total:.12g}",
                code="ROW_SUM",
            )
        rows.append(tuple(sorted(targets.items())))

    labels: dict[str, frozenset[int]] = {}
    for labeldef in vm.model.labels:
        fn = compile_expr(labeldef.expr, var_index, vm.constants)
        labels[labeldef.name] = frozenset(i for i, s in enumerate(states) if fn(s))

    return Dtmc(
        variables=vm.variables,
        constants=dict(vm.constants),
        states=tuple(states),
        initial=0,
        rows=tuple(rows),
        labels=labels,
        deadlocks=frozenset(deadlocks),
    )


def describe(variables: tuple[ast.VarDecl, ...], state: tuple[int, ...]) -> str:
    """Readable variable=value listing for diagnostics."""
    return ", ".join(f"{var.name}={value}" for var, value in zip(variables, state))
