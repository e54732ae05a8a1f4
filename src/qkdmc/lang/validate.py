"""Semantic checks that turn a parsed model into one ready for exploration."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from qkdmc.errors import ValidationError
from qkdmc.lang import analysis, ast, names

PROB_SUM_TOL = 1e-9

# The explorer stores each variable in an unsigned field of at most 8 bytes.
MAX_HIGH = 2**64 - 1


@dataclass(frozen=True)
class ValidatedModel:
    """Parsed model plus the facts validation established.

    Treat all fields as read-only. Expressions stay unfolded except update
    probabilities, which are folded to floats in ``update_probs`` (indexed by
    module position, then command position).
    """

    model: ast.Model
    constants: dict[str, int | float] = field(compare=False)
    variables: tuple[ast.VarDecl, ...] = field(compare=False)
    var_index: dict[str, int] = field(compare=False)
    update_probs: tuple[tuple[tuple[float, ...], ...], ...] = field(compare=False)
    action_order: tuple[str, ...] = field(compare=False)

    @property
    def initial_state(self) -> tuple[int, ...]:
        return tuple(var.init for var in self.variables)


def validate(model: ast.Model) -> ValidatedModel:
    """Check every semantic invariant and return the exploration-ready model.

    Raises ValidationError with codes TYPE, INIT_BOUNDS, BAD_RANGE,
    FOREIGN_WRITE, DUP_ASSIGN, PROB_CONST, PROB_RANGE, PROB_SUM or
    OVERLAPPING_GUARDS; see each check below.
    """
    symbols = names.build_symbols(model)
    names.check_references(model, symbols)

    constants = _fold_constants(model)
    const_kinds = {c.name: c.kind for c in model.constants}

    variables: list[ast.VarDecl] = []
    for module in model.modules:
        for var in module.variables:
            if var.low > var.high:
                raise ValidationError(
                    f"variable '{var.name}' has empty range [{var.low}..{var.high}]",
                    "BAD_RANGE",
                    var.pos.line,
                    var.pos.col,
                )
            if var.high > MAX_HIGH:
                raise ValidationError(
                    f"variable '{var.name}' has upper bound {var.high}, above 2**64 - 1",
                    "BAD_RANGE",
                    var.pos.line,
                    var.pos.col,
                )
            if not var.low <= var.init <= var.high:
                raise ValidationError(
                    f"initial value {var.init} of '{var.name}' outside [{var.low}..{var.high}]",
                    "INIT_BOUNDS",
                    var.pos.line,
                    var.pos.col,
                )
            variables.append(var)
    var_index = {var.name: i for i, var in enumerate(variables)}
    var_decls = {var.name: var for var in variables}

    update_probs = []
    for module in model.modules:
        module_probs = []
        for command in module.commands:
            analysis.check_kind(command.guard, "bool", const_kinds, var_decls, "guard")
            module_probs.append(
                _check_command(command, module, symbols, const_kinds, var_decls, constants)
            )
        update_probs.append(tuple(module_probs))

    for label in model.labels:
        analysis.check_kind(label.expr, "bool", const_kinds, var_decls, "label definition")

    action_order: list[str] = []
    for module in model.modules:
        for command in module.commands:
            if command.label is not None and command.label not in action_order:
                action_order.append(command.label)

    for module in model.modules:
        _check_overlaps(module, var_decls, constants)

    return ValidatedModel(
        model=model,
        constants=constants,
        variables=tuple(variables),
        var_index=var_index,
        update_probs=tuple(update_probs),
        action_order=tuple(action_order),
    )


def _fold_constants(model: ast.Model) -> dict[str, int | float]:
    constants: dict[str, int | float] = {}
    for const in model.constants:
        value = analysis.fold_number(const.value, constants)
        if const.kind == "int":
            if not math.isfinite(value) or value != int(value):
                raise ValidationError(
                    f"constant '{const.name}' declared int but equals {value}",
                    "TYPE",
                    const.pos.line,
                    const.pos.col,
                )
            constants[const.name] = int(value)
        else:
            constants[const.name] = value
    return constants


def _check_command(
    command: ast.Command,
    module: ast.Module,
    symbols: names.Symbols,
    const_kinds: dict[str, str],
    var_decls: dict[str, ast.VarDecl],
    constants: dict[str, int | float],
) -> tuple[float, ...]:
    probs = []
    for update in command.updates:
        assigned: set[str] = set()
        for assign in update.assignments:
            if symbols.owner[assign.var] != module.name:
                raise ValidationError(
                    f"module {module.name} assigns variable '{assign.var}' "
                    f"owned by module {symbols.owner[assign.var]}",
                    "FOREIGN_WRITE",
                    assign.pos.line,
                    assign.pos.col,
                )
            if assign.var in assigned:
                raise ValidationError(
                    f"variable '{assign.var}' assigned twice in one update",
                    "DUP_ASSIGN",
                    assign.pos.line,
                    assign.pos.col,
                )
            assigned.add(assign.var)
            analysis.check_kind(
                assign.value, "int", const_kinds, var_decls, f"value for '{assign.var}'"
            )
        if update.prob is None:
            probs.append(1.0)
        else:
            analysis.check_kind(update.prob, "numeric", const_kinds, var_decls, "probability")
            value = analysis.fold_number(update.prob, constants)
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"update probability {value} outside [0, 1]",
                    "PROB_RANGE",
                    update.pos.line,
                    update.pos.col,
                )
            probs.append(value)
    total = sum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(
            f"update probabilities sum to {total:.12g}, expected 1",
            "PROB_SUM",
            command.pos.line,
            command.pos.col,
        )
    return tuple(probs)


def _check_overlaps(
    module: ast.Module,
    var_decls: dict[str, ast.VarDecl],
    constants: dict[str, int | float],
) -> None:
    """Reject same-label (or both-unlabeled) command pairs with joint guards.

    The check enumerates the box of every variable either guard mentions, so
    it is exact: a pair is rejected iff some in-bounds valuation enables
    both. Guards may reference other modules' variables, so the box is not
    restricted to locals. A guard's pins (see `_pins`) narrow the box: a
    pair whose pins disagree, or a guard whose own pins contradict, enables
    nothing jointly and is skipped, and a pinned variable is enumerated at
    its pin alone. The witness is still the first joint valuation in the
    order of the whole box.
    """
    groups: dict[str | None, list[ast.Command]] = {}
    for command in module.commands:
        groups.setdefault(command.label, []).append(command)
    for label, commands in groups.items():
        if len(commands) < 2:
            continue
        pinned = [
            (command, pins)
            for command in commands
            if (pins := _pins(command.guard, var_decls, constants)) is not None
        ]
        for (first, pins_a), (second, pins_b) in itertools.combinations(pinned, 2):
            if any(pins_b.get(var, pin) != pin for var, pin in pins_a.items()):
                continue
            witness = _joint_valuation(
                first.guard, second.guard, pins_a | pins_b, var_decls, constants
            )
            if witness is None:
                continue
            shown = ", ".join(f"{k}={v}" for k, v in witness.items()) or "any valuation"
            action = f"action [{label}]" if label is not None else "unlabeled commands"
            raise ValidationError(
                f"{action} in module {module.name}: guards at line {first.pos.line} "
                f"and line {second.pos.line} are both enabled when {shown}",
                "OVERLAPPING_GUARDS",
                second.pos.line,
                second.pos.col,
            )


def _pins(
    guard: ast.Expr,
    var_decls: dict[str, ast.VarDecl],
    constants: dict[str, int | float],
) -> dict[str, int] | None:
    """The guard's pins: the value of each variable that a top-level
    `var = constant` conjunct (in either operand order) fixes. None if two
    pins of one variable disagree, so the guard holds nowhere.

    A pin is evaluated as the generated code evaluates it, exactly, as an
    int: a float would round above 2**53 and could hide an overlap.
    """
    pins: dict[str, int] = {}
    conjuncts = [guard]
    while conjuncts:
        expr = conjuncts.pop()
        if not isinstance(expr, ast.Binary):
            continue
        if expr.op == "&":
            conjuncts += (expr.left, expr.right)
            continue
        if expr.op != "=":
            continue
        for var, value in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(var, ast.Name) and var.ident in var_decls:
                if not names.expr_names(value) & var_decls.keys():
                    source = analysis.render_expr(value, {}, constants)
                    pin = eval(source, {"__builtins__": {}})
                    if pins.setdefault(var.ident, pin) != pin:
                        return None
                break
    return pins


def _joint_valuation(
    guard_a: ast.Expr,
    guard_b: ast.Expr,
    pins: dict[str, int],
    var_decls: dict[str, ast.VarDecl],
    constants: dict[str, int | float],
) -> dict[str, int] | None:
    mentioned = sorted(
        (names.expr_names(guard_a) | names.expr_names(guard_b)) & var_decls.keys()
    )
    index = {name: i for i, name in enumerate(mentioned)}
    check_a = analysis.compile_expr(guard_a, index, constants)
    check_b = analysis.compile_expr(guard_b, index, constants)
    ranges = []
    for name in mentioned:
        values = range(var_decls[name].low, var_decls[name].high + 1)
        if name in pins:
            pin = pins[name]
            values = range(pin, pin + 1) if pin in values else range(0)
        ranges.append(values)
    for valuation in itertools.product(*ranges):
        if check_a(valuation) and check_b(valuation):
            return dict(zip(mentioned, valuation))
    return None
