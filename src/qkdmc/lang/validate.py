"""Semantic checks that turn a parsed model into one ready for exploration."""

from __future__ import annotations

import itertools
import math

from qkdmc.errors import ValidationError
from qkdmc.lang import analysis, ast, names
from qkdmc.record import Record

PROB_SUM_TOL = 1e-9

# The largest upper bound a variable may declare, an input contract (BAD_RANGE).
MAX_HIGH = 2**64 - 1

# The most valuations the overlap check enumerates for one pair of guards.
MAX_OVERLAP_VALUATIONS = 2**20

# `c op var` says the same as `var _MIRRORED[op] c`.
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

Group = tuple[str | None, tuple[tuple[int, tuple[int, ...]], ...]]  # see ValidatedModel


class ValidatedModel(Record):
    """Parsed model plus the facts validation established.

    Treat all fields as read-only. Expressions stay unfolded except update
    probabilities, which are folded to floats in ``update_probs`` (indexed by
    module position, then command position).

    ``groups`` lists the sets of commands that fire together, in the order
    the explorer tests them: each unlabeled command alone (by module, then
    command), then each action by first use. An entry is ``(action or None,
    ((module position, (command position, ...)), ...))``.

    Two fields record what validation proved about guards over the declared
    ranges, so the explorer can drop the run-time checks they cover:
    ``decided_picks`` holds each (module position, action) whose two or more
    commands `_check_overlaps` decided exactly, so no valuation enables two
    of them; ``disjoint_groups`` is True if `_groups_disjoint` proved that no
    valuation enables two groups.

    ``dead_on_entry`` is ``(location variable, {location: the variables dead
    on entry to it})``, by name, from `_dead_on_entry`; None if the model
    has no location variable.

    ``progress`` is ``(progress measure, sink locations)`` from `_progress`:
    a variable that no step of a firing group lowers, except one that enters
    a location where no group fires; None if no variable is proven one.
    """

    model: ast.Model
    constants: dict[str, int | float]
    variables: tuple[ast.VarDecl, ...]
    var_index: dict[str, int]
    update_probs: tuple[tuple[tuple[float, ...], ...], ...]
    groups: tuple[Group, ...]
    decided_picks: frozenset[tuple[int, str]]
    dead_on_entry: tuple[str, dict[int, frozenset[str]]] | None
    progress: tuple[str, frozenset[int]] | None
    disjoint_groups: bool

    _not_compared = ("constants", "variables", "var_index", "update_probs", "groups",
                     "decided_picks", "dead_on_entry", "progress",
                     "disjoint_groups")  # the model only

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
                raise ValidationError(message, "BAD_RANGE", var.pos)
            if var.high > MAX_HIGH:
                message = f"variable '{var.name}' has upper bound {var.high}, above 2**64 - 1"
                raise ValidationError(message, "BAD_RANGE", var.pos)
            if not var.low <= var.init <= var.high:
                message = (
                    f"initial value {var.init} of '{var.name}' outside [{var.low}..{var.high}]"
                )
                raise ValidationError(message, "INIT_BOUNDS", var.pos)
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

    groups: list[Group] = []
    actions: dict[str, dict[int, list[int]]] = {}
    for mi, module in enumerate(model.modules):
        for ci, command in enumerate(module.commands):
            if command.label is None:
                groups.append((None, ((mi, (ci,)),)))
            else:
                actions.setdefault(command.label, {}).setdefault(mi, []).append(ci)
    for action, parts in actions.items():
        groups.append((action, tuple((mi, tuple(cis)) for mi, cis in parts.items())))

    boxes = [
        [_box(command.guard, var_decls, constants) for command in module.commands]
        for module in model.modules
    ]
    decided_picks = set()
    for mi, module in enumerate(model.modules):
        decided = _check_overlaps(module, boxes[mi], constants)
        decided_picks.update((mi, label) for label in decided if label is not None)

    # A group's box holds each valuation that enables it: the meet over its
    # modules of the hull of the module's command boxes (one box is its own
    # hull, and its own meet).
    group_boxes = []
    for _, parts in groups:
        hulls = [
            boxes[mi][cis[0]] if len(cis) == 1 else _hull([boxes[mi][ci] for ci in cis])
            for mi, cis in parts
        ]
        group_boxes.append(hulls[0] if len(hulls) == 1 else _meet(hulls))
    # An empty range is false: such a box holds no valuation.
    firing = [i for i, box in enumerate(group_boxes) if all(box.values())]

    dead_on_entry = _dead_on_entry(model, variables, groups, boxes, group_boxes, firing, constants)
    return ValidatedModel(
        model=model,
        constants=constants,
        variables=tuple(variables),
        var_index=var_index,
        update_probs=tuple(update_probs),
        groups=tuple(groups),
        decided_picks=frozenset(decided_picks),
        dead_on_entry=dead_on_entry,
        progress=_progress(
            model, variables, groups, group_boxes, firing, dead_on_entry, constants
        ),
        disjoint_groups=_groups_disjoint([group_boxes[i] for i in firing]),
    )


def _fold_constants(model: ast.Model) -> dict[str, int | float]:
    # Exact values; a const double is a float, as `properties` reads a
    # constant's kind from its type.
    constants: dict[str, int | float] = {}
    for const in model.constants:
        value = analysis.bounds(const.value, {}, constants)[0]
        if const.kind == "int" and isinstance(value, float) and not value.is_integer():
            message = f"constant '{const.name}' declared int but equals {value}"
            raise ValidationError(message, pos=const.pos)
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
                raise ValidationError(message, "FOREIGN_WRITE", assign.pos)
            if assign.var in assigned:
                message = f"variable '{assign.var}' assigned twice in one update"
                raise ValidationError(message, "DUP_ASSIGN", assign.pos)
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
                if not math.isfinite(value):
                    message += " (the expression overflows the double range)"
                raise ValidationError(message, "PROB_RANGE", update.pos)
            probs.append(value)
    total = sum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        message = f"update probabilities sum to {total:.12g}, expected 1"
        raise ValidationError(message, "PROB_SUM", command.pos)
    return tuple(probs)


def _check_overlaps(
    module: ast.Module,
    boxes: list[dict[str, range]],
    constants: dict[str, int | float],
) -> set[str | None]:
    """Reject same-label (or both-unlabeled) command pairs with joint guards,
    and return the labels (None for unlabeled) whose two or more commands
    it decided exactly.

    `boxes` holds each command's box (see `_box`). A guard is false outside
    its box, so both guards of a pair are evaluated over the intersection of
    their boxes alone, and a pair whose boxes do not meet is decided without
    evaluation. Up to MAX_OVERLAP_VALUATIONS valuations in the intersection,
    the check is exact: a pair is rejected iff some in-bounds valuation
    enables both, and the witness is the first such valuation in the order
    of the whole declared box. A larger intersection is not enumerated, and
    its pair is not decided; exploration still rejects two commands enabled
    at once in every reached state where their action fires. Guards may
    reference other modules' variables, so a box is not restricted to
    locals. Each guard is compiled once per group, over the group's
    variables.
    """
    groups: dict[str | None, list[tuple[ast.Command, dict[str, range]]]] = {}
    for command, box in zip(module.commands, boxes):
        groups.setdefault(command.label, []).append((command, box))
    decided: set[str | None] = set()
    for label, members in groups.items():
        if len(members) < 2:
            continue
        commands, group_boxes = zip(*members)
        exact = True
        order = sorted(set().union(*group_boxes))
        index = {name: i for i, name in enumerate(order)}
        checks = [None] * len(commands)  # each guard compiled at most once
        for (i, box_a), (j, box_b) in itertools.combinations(enumerate(group_boxes), 2):
            joint = _meet([box_a, box_b])
            # 0 if two ranges do not meet; r.stop - r.start, not len(r): len
            # overflows past 2**63.
            size = math.prod(max(r.stop - r.start, 0) for r in joint.values())
            if not size:
                continue
            if size > MAX_OVERLAP_VALUATIONS:
                exact = False
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
            raise ValidationError(message, "OVERLAPPING_GUARDS", second.pos)
        if exact:
            decided.add(label)
    return decided


def _groups_disjoint(live: list[dict[str, range]]) -> bool:
    """Whether no valuation in the declared ranges enables two groups, given
    the boxes of those that some valuation may enable.

    The groups are proven disjoint if, sorted on some variable that every
    box narrows, each box's range ends before the next one's begins; that
    costs O(G log G) per variable, not a test of all pairs. Otherwise this
    answers False, always safe.
    """
    if len(live) < 2:
        return True
    for name in set.intersection(*map(set, live)):
        spans = sorted((box[name].start, box[name].stop) for box in live)
        if all(stop <= start for (_, stop), (start, _) in zip(spans, spans[1:])):
            return True
    return False


def _dead_on_entry(
    model: ast.Model,
    variables: list[ast.VarDecl],
    groups: list[Group],
    boxes: list[list[dict[str, range]]],
    group_boxes: list[dict[str, range]],
    firing: list[int],
    constants: dict[str, int | float],
) -> tuple[str, dict[int, frozenset[str]]] | None:
    """The location variable and, per location, the variables dead on entry
    to it; None if no variable is a location.

    Control flow reconstruction (van de Pol & Timmer, ATVA 2009): a location
    variable is one that the box of every group in `firing` pins to one
    value, the group's location, and that every update of the group's
    commands sets to a constant, a successor location. A live-variable
    fixpoint over the locations (Bozga, Fernandez & Ghirvu, SAS 1999) then
    finds live-in(L) = reads(L) | (the live-ins of L's successors - must(L)).
    reads(L) holds the variables the guards and assigned values of L's
    groups read; must(L) those every update at L writes. The location
    variable and every variable a label reads are live everywhere. No path
    from L reads a dead variable before writing it, so a state entering L
    may reset it to its initial value and no label's answer changes.
    """
    if not firing:
        return None
    ranges = {var.name: (var.low, var.high) for var in variables}
    owner = {var.name: mi for mi, module in enumerate(model.modules) for var in module.variables}
    # Sets of variables are bit masks, a bit per variable in declaration order.
    bit = {var.name: 1 << i for i, var in enumerate(variables)}

    def flow(location: str) -> tuple[dict[int, int], dict[int, int], dict[int, set[int]]] | None:
        # Per location: the variables read, those every update writes, and
        # the successor locations; None if `location` is not a location.
        reads: dict[int, int] = {}
        must: dict[int, int] = {}
        successors: dict[int, set[int]] = {}
        home, here = owner[location], bit[location]
        for gi in firing:
            parts = groups[gi][1]
            # Only the owner's updates set the location, and every one must.
            if home not in dict(parts):
                return None
            at = group_boxes[gi][location].start
            read = reads.get(at, here)
            nexts = successors.setdefault(at, set())
            written = 0  # what every update of the group writes
            for mi, cis in parts:
                own = -1  # what every update of module mi writes
                for ci in cis:
                    for name in boxes[mi][ci]:
                        read |= bit[name]
                    for update in model.modules[mi].commands[ci].updates:
                        assigned = 0
                        for assign in update.assignments:
                            assigned |= bit[assign.var]
                            value = assign.value
                            if isinstance(value, ast.Name):
                                read |= bit.get(value.ident, 0)
                            elif not isinstance(value, ast.IntLit):
                                for name in names.expr_names(value):
                                    read |= bit.get(name, 0)
                            if assign.var != location:
                                continue
                            if isinstance(value, ast.IntLit):
                                nexts.add(value.value)
                                continue
                            low, high = analysis.bounds(value, ranges, constants)
                            if low != high:
                                return None
                            nexts.add(low)
                        if mi == home and not assigned & here:
                            return None
                        own &= assigned
                written |= own
            reads[at] = read
            must[at] = must.get(at, -1) & written
        return reads, must, successors

    pinned = set.intersection(
        *({name for name, r in group_boxes[gi].items() if r.stop - r.start == 1} for gi in firing)
    )
    for location in [var.name for var in variables if var.name in pinned]:
        found = flow(location)
        if found is not None:
            break
    else:
        return None
    reads, must, successors = found
    labels = bit[location]
    for label in model.labels:
        for name in names.expr_names(label.expr):
            labels |= bit.get(name, 0)
    live = {at: labels | reads.get(at, 0) for at in set(reads).union(*successors.values())}
    changed = True
    while changed:
        changed = False
        for at, nexts in reversed(successors.items()):
            grown = live[at]
            for t in nexts:
                grown |= live[t] & ~must[at]
            changed |= grown != live[at]
            live[at] = grown
    return location, {
        at: frozenset(name for name, b in bit.items() if not held & b) for at, held in live.items()
    }


def _progress(
    model: ast.Model,
    variables: list[ast.VarDecl],
    groups: list[Group],
    group_boxes: list[dict[str, range]],
    firing: list[int],
    dead_on_entry: tuple[str, dict[int, frozenset[str]]] | None,
    constants: dict[str, int | float],
) -> tuple[str, frozenset[int]] | None:
    """The first variable, in declaration order, proven a progress measure,
    and the sink locations; None if no variable is one.

    A sink location is one where no group in `firing` is, so a state there
    is a deadlock and indexes no successor. A progress measure is a
    variable other than the location variable that some update raises by a
    positive constant (`x + k` or `k + x`), and that every update of a
    group in `firing` leaves as it is or raises by a non-negative constant,
    except one that enters a sink location; nor is it dead on entry to a
    location that is not a sink, where a reduced build would reset it. So
    every step between states outside the sinks keeps or raises it, and a
    breadth-first walk past the last queued state of a value reaches no
    state of that value again outside the sinks (the sweep-line method:
    Christensen, Kristensen & Mailund, TACAS 2001).
    """
    location, dead = dead_on_entry or (None, {})
    fired = {group_boxes[gi][location].start for gi in firing} if location else set()
    sinks = frozenset(dead) - fired
    steps = [
        (update, assign, _step(assign, constants))
        for gi in firing
        for mi, cis in groups[gi][1]
        for ci in cis
        for update in model.modules[mi].commands[ci].updates
        for assign in update.assignments
    ]
    candidates = {assign.var for _, assign, step in steps if (step or 0) > 0} - {location}
    candidates -= {name for at, held in dead.items() if at not in sinks for name in held}
    ranges = {var.name: (var.low, var.high) for var in variables}
    for update, assign, step in steps:
        if assign.var in candidates and (step is None or step < 0) and not any(
            # `_dead_on_entry` proved each value assigned to the location a
            # constant.
            a.var == location and analysis.bounds(a.value, ranges, constants)[0] in sinks
            for a in update.assignments
        ):
            candidates.discard(assign.var)
    return next(((var.name, sinks) for var in variables if var.name in candidates), None)


def _step(assign: ast.Assignment, constants: dict[str, int | float]) -> int | None:
    """k where the assignment sets its variable x to x + k (or k + x, or x
    for k = 0) for a constant k; None for any other value."""
    value = assign.value
    if isinstance(value, ast.Name) and value.ident == assign.var:
        return 0
    if not (isinstance(value, ast.Binary) and value.op == "+"):
        return None
    for own, other in ((value.left, value.right), (value.right, value.left)):
        if (isinstance(own, ast.Name) and own.ident == assign.var
                and names.expr_names(other) <= constants.keys()):
            return analysis.bounds(other, {}, constants)[0]
    return None


def _hull(boxes: list[dict[str, range]]) -> dict[str, range]:
    """The smallest box holding every valuation of the nonempty `boxes`."""
    # If every box is empty, so is the hull of the first.
    live = [box for box in boxes if all(box.values())] or boxes[:1]
    shared = set.intersection(*map(set, live))
    return {
        name: range(min(box[name].start for box in live), max(box[name].stop for box in live))
        for name in shared
    }


def _meet(boxes: list[dict[str, range]]) -> dict[str, range]:
    """The intersection of `boxes`."""
    met: dict[str, range] = {}
    for box in boxes:
        for name, r in box.items():
            m = met.get(name, r)
            met[name] = range(max(m.start, r.start), min(m.stop, r.stop))
    return met


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
