"""Semantic checks that turn a parsed model into one ready for exploration."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from qkdmc.lang import analysis, ast, names

PROB_SUM_TOL = 1e-9

# The largest upper bound a variable may declare, an input contract (BAD_RANGE).
MAX_HIGH = 2**64 - 1

# The most valuations the overlap check enumerates for one pair of guards.
MAX_OVERLAP_VALUATIONS = 2**20

# `c op var` says the same as `var _MIRRORED[op] c`.
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


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

    `model` comes from `parse`, which has resolved its names. Raises
    ValidationError with codes TYPE, INIT_BOUNDS, BAD_RANGE, FOREIGN_WRITE,
    DUP_ASSIGN, PROB_CONST, PROB_RANGE, PROB_SUM or OVERLAPPING_GUARDS; see
    each check below.
    """
    constants = _fold_constants(model)
    const_kinds = {c.name: c.kind for c in model.constants}

    variables: list[ast.VarDecl] = []
    owner: dict[str, str] = {}  # variable name -> owning module name
    for module in model.modules:
        for var in module.variables:
            owner[var.name] = module.name
            if var.low > var.high:
                message = f"variable '{var.name}' has empty range [{var.low}..{var.high}]"
                raise analysis.error(message, var.pos, "BAD_RANGE")
            if var.high > MAX_HIGH:
                message = f"variable '{var.name}' has upper bound {var.high}, above 2**64 - 1"
                raise analysis.error(message, var.pos, "BAD_RANGE")
            if not var.low <= var.init <= var.high:
                message = (
                    f"initial value {var.init} of '{var.name}' outside [{var.low}..{var.high}]"
                )
                raise analysis.error(message, var.pos, "INIT_BOUNDS")
            variables.append(var)
    var_index = {var.name: i for i, var in enumerate(variables)}
    var_decls = {var.name: var for var in variables}

    update_probs = []
    for module in model.modules:
        module_probs = []
        for command in module.commands:
            analysis.check_kind(command.guard, "bool", const_kinds, var_decls, "guard")
            module_probs.append(
                _check_command(command, module, owner, const_kinds, var_decls, constants)
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
    # Exact values; a const double is a float, as `properties` reads a
    # constant's kind from its type.
    constants: dict[str, int | float] = {}
    for const in model.constants:
        value = analysis.bounds(const.value, {}, constants)[0]
        if const.kind == "int" and isinstance(value, float) and not value.is_integer():
            message = f"constant '{const.name}' declared int but equals {value}"
            raise analysis.error(message, const.pos)
        constants[const.name] = int(value) if const.kind == "int" else float(value)
    return constants


def _check_command(
    command: ast.Command,
    module: ast.Module,
    owner: dict[str, str],
    const_kinds: dict[str, str],
    var_decls: dict[str, ast.VarDecl],
    constants: dict[str, int | float],
) -> tuple[float, ...]:
    probs = []
    for update in command.updates:
        assigned: set[str] = set()
        for assign in update.assignments:
            if owner[assign.var] != module.name:
                message = (
                    f"module {module.name} assigns variable '{assign.var}' "
                    f"owned by module {owner[assign.var]}"
                )
                raise analysis.error(message, assign.pos, "FOREIGN_WRITE")
            if assign.var in assigned:
                message = f"variable '{assign.var}' assigned twice in one update"
                raise analysis.error(message, assign.pos, "DUP_ASSIGN")
            assigned.add(assign.var)
            analysis.check_kind(
                assign.value, "int", const_kinds, var_decls, f"value for '{assign.var}'"
            )
        if update.prob is None:
            probs.append(1.0)
        else:
            analysis.check_kind(update.prob, "numeric", const_kinds, var_decls, "probability")
            value = analysis.to_float(analysis.bounds(update.prob, {}, constants)[0])
            if not 0.0 <= value <= 1.0:
                message = f"update probability {value} outside [0, 1]"
                raise analysis.error(message, update.pos, "PROB_RANGE")
            probs.append(value)
    total = sum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        message = f"update probabilities sum to {total:.12g}, expected 1"
        raise analysis.error(message, command.pos, "PROB_SUM")
    return tuple(probs)


def _check_overlaps(
    module: ast.Module,
    var_decls: dict[str, ast.VarDecl],
    constants: dict[str, int | float],
) -> None:
    """Reject same-label (or both-unlabeled) command pairs with joint guards.

    A guard is false outside its box (see `_box`), so both guards of a pair
    are evaluated over the intersection of their boxes alone, and a pair
    whose boxes do not meet is skipped. Up to MAX_OVERLAP_VALUATIONS
    valuations in the intersection, the check is exact: a pair is rejected
    iff some in-bounds valuation enables both, and the witness is the first
    such valuation in the order of the whole declared box. A larger
    intersection is not enumerated; exploration still rejects two commands
    enabled at once in every reached state where their action fires. Guards
    may reference other modules' variables, so a box is not restricted to
    locals. Each guard is compiled once per group, over the group's
    variables.
    """
    groups: dict[str | None, list[ast.Command]] = {}
    for command in module.commands:
        groups.setdefault(command.label, []).append(command)
    for label, commands in groups.items():
        if len(commands) < 2:
            continue
        boxes = [_box(command.guard, var_decls, constants) for command in commands]
        order = sorted(set().union(*boxes))
        index = {name: i for i, name in enumerate(order)}
        checks = [None] * len(commands)  # each guard compiled at most once
        for (i, box_a), (j, box_b) in itertools.combinations(enumerate(boxes), 2):
            joint = dict(box_b)
            for name, a in box_a.items():
                b = box_b.get(name, a)
                joint[name] = range(max(a.start, b.start), min(a.stop, b.stop))
            # 0 if two ranges do not meet; r.stop - r.start, not len(r): len
            # overflows past 2**63.
            size = math.prod(max(r.stop - r.start, 0) for r in joint.values())
            if not 0 < size <= MAX_OVERLAP_VALUATIONS:
                continue
            for k in (i, j):
                checks[k] = checks[k] or analysis.compile_expr(commands[k].guard, index, constants)
            check_a, check_b = checks[i], checks[j]
            # A variable neither guard reads is pinned to 0.
            valuations = itertools.product(*(joint.get(name, (0,)) for name in order))
            witness = next((v for v in valuations if check_a(v) and check_b(v)), None)
            if witness is None:
                continue
            first, second = commands[i], commands[j]
            shown = ", ".join(f"{k}={witness[index[k]]}" for k in sorted(joint)) or "any valuation"
            action = f"action [{label}]" if label is not None else "unlabeled commands"
            message = (
                f"{action} in module {module.name}: guards at line {first.pos.line} "
                f"and line {second.pos.line} are both enabled when {shown}"
            )
            raise analysis.error(message, second.pos, "OVERLAPPING_GUARDS")


def _box(
    guard: ast.Expr,
    var_decls: dict[str, ast.VarDecl],
    constants: dict[str, int | float],
) -> dict[str, range]:
    """Each variable the guard reads, over its declared range narrowed by the
    guard's top-level `var op constant` conjuncts (op one of = < <= > >=, in
    either operand order). The guard is false outside the box; an empty
    range means it holds nowhere. A bound is exact (see `analysis.bounds`).
    """
    box = {
        name: range(var_decls[name].low, var_decls[name].high + 1)
        for name in names.expr_names(guard) & var_decls.keys()
    }
    conjuncts = [guard]
    while conjuncts:
        expr = conjuncts.pop()
        if not isinstance(expr, ast.Binary):
            continue
        if expr.op == "&":
            conjuncts += (expr.left, expr.right)
            continue
        if expr.op not in _MIRRORED:
            continue
        var, op, value = expr.left, expr.op, expr.right
        if isinstance(value, ast.Name) and value.ident in box:
            var, op, value = value, _MIRRORED[op], var
        if (
            not isinstance(var, ast.Name)
            or var.ident not in box
            or names.expr_names(value) & box.keys()
        ):
            continue
        bound = analysis.bounds(value, {}, constants)[0]
        start, stop = box[var.ident].start, box[var.ident].stop
        if op in ("=", ">=", ">"):
            start = max(start, bound + (op == ">"))
        if op in ("=", "<=", "<"):
            stop = min(stop, bound + (op != "<"))
        box[var.ident] = range(start, stop)
    return box
