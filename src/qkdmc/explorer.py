"""Explicit-state construction of the DTMC described by a validated model.

Modules compose by full-alphabet synchronization: an action label fires only
when every module whose alphabet contains the label has exactly one enabled
command for it, and the joint update distribution is the product of the
participating commands' distributions. Unlabeled commands fire alone. The
semantics of a state is therefore deterministic: exactly one group (action or
unlabeled command) may be enabled; zero enabled groups makes a flagged
deadlock that receives a probability-1 self-loop.

`build` renders the whole model as the Python source of one function,
the walk, and calls it once. The source holds no probability. It stores
each transition's term id: where the generator knows the probability, the
index of its weight, and the generator lists the weights by occurrence.
`build` gathers the probabilities from that table once the walk is done.
Models that differ only in their probabilities, such as fig2's weak and
medium Eve or a grid over eve_q, so share one source wherever they drop
the same zero products and pass the same row-sum checks. One function per
source serves the process (`analysis.compiled`), and a build passes in all
that is its own: helpers and checks naming its lines. A model of the
chain's shape needs no walk at all: `Dtmc.reweight` gathers its weights
over the chain's term ids (the graph is shared and only the numbers on its
edges change: Daws, ICTAC 2004; Hahn, Hermanns & Zhang, STTT 2011).

The walk visits its list of state codes in order while it appends newly
found states to it, so it is the breadth-first search. In it, every guard
is inlined: each group has one test, in which a module with several
commands for the group's action picks one, and the branch of the group
that fires stores the state's row.
Validation proved some of the semantics above over the declared ranges
(`ValidatedModel.decided_picks` and `disjoint_groups`), and every reached
state lies in them, so the walk checks at run time only the rest:

- A module picks the first command whose guard holds, in one flat `or`,
  where validation decided its commands pairwise. Otherwise `_pick`
  evaluates every such guard and raises NONDETERMINISM if two hold, naming
  the module, the action, both command lines and the state. A group's
  modules are tested in order and the test stops at the first module with
  no enabled command, so a state where the action does not fire may pass
  unchecked.
- Where the groups are proven disjoint and every pick decided, the first
  group whose test passes fires, and the state tests no later group.
  Otherwise every group is tested, and a second enabled group raises
  NONDETERMINISM, naming the first two and the state; then the enabled
  group fires. So a model raises NONDETERMINISM in the same state, with the
  same message, as it would with every check made.
- Each assigned value must lie in its variable's range (BOUNDS, naming the
  command line, the variable, the value and the state). The test is made
  only where the value's interval over the declared ranges
  (`analysis.bounds`) may leave it.

Where the generator knows every probability of a row, the walk stores
the row in straight-line code (partial evaluation: Jones, Gomard &
Sestoft, 1993). That holds for a group of one module, or of several of
which at most one picks among commands: there is one row per command of
the picking module, and the products of the modules' probabilities are
formed at generation time, left to right as the run-time product would
be, so every stored float has the same bits. Pairs whose successors have
one source are merged then too, summed in product order as `_merge` sums
them. The walk looks each distinct successor up in the state index in
product order, appending a new one, and stores the row sorted and merged
by target in inline code, its sum checked against ROW_SUM_TOL at
generation time. Every row of a bb84 model, full or reduced, takes that
path. Other rows go to one of three helpers that `build` defines once over
its CSR columns and passes in as arguments:

- `_merge(pairs, c)` merges (weight id, target) pairs by target, in
  order, checks that they sum to 1 within ROW_SUM_TOL (ROW_SUM, naming the
  state), sorts them by target and appends the row. An unrolled row
  goes here, with every pair of its product, whose sum misses 1, or whose
  targets coincide at run time among 3 or more successors or among pairs
  the generator merged;
- `_row(c, b, u0, ..., uM)` forms a row at run time. b holds the bits
  no module of the group writes, and u{j} is module j's tuple of
  (weight id, bits) updates. It refuses a product of more than
  MAX_ROW_PAIRS pairs (ROW_LIMIT, naming the state) before it forms any,
  then walks the product in order, multiplying the probabilities left to
  right and ORing the bits into b, drops a zero product, resets dead
  variables in a reduced build, indexes the successors and merges the row
  as `_merge` does. It takes the rows of a group in which two modules
  pick, and rows of more than MAX_UNROLLED_PAIRS pairs, so the generated
  source stays linear in the model text;
- `_dead(si)` stores a deadlock's self-loop, term 0, whose weight is 1.

Each row the two merging helpers store appends its probabilities to the
term table as run-time terms, and the chain keeps the row's recipe: its
weight ids per module and the target of each product, or -1 where the
product was zero and dropped. `reweight` re-forms them from the new
weights in the same order, with the same zero drops and row-sum check.

Passed as arguments, nothing of a build stays reachable from the shared
walk, and the walk forms no reference cycle with its namespace, so all of
it is freed when `build` returns. The walk keys each state by its
code, one int with a bit field per variable (see `Layout`). It reads a
variable as ``(c >> offset & mask)`` and builds a successor as
``c & KEEP | CONST | value << offset``; a value in range, tested or
proven, stays out of its neighbour's bits. A reduced build folds the
resets of dead variables (Bozga, Fernandez & Ghirvu, SAS 1999) into the
same masks: where validation found a location variable
(`ValidatedModel.dead_on_entry`), every update sets it to a constant, so
the generator knows each unrolled successor's location, and a variable
dead there leaves KEEP while its initial value joins CONST. The walk pays
nothing per state for it; `_row` resets the successors it forms itself.
A dead variable's assigned value is still computed and range-tested, so
BOUNDS is raised where a full build raises it. It evaluates no label: the
Dtmc keeps their definitions, and `Dtmc.states_where` answers each state
query in one scan of the codes. The Dtmc keeps the codes and the CSR
arrays: a few flat buffers, not a container per row and per state for the
GC to scan.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import accumulate, compress, count, product
from typing import Callable, Iterable, Iterator

from qkdmc.errors import BuildError
from qkdmc.lang import ast, names
from qkdmc.lang.analysis import bounds, compiled, render_expr
from qkdmc.lang.validate import ValidatedModel
from qkdmc.record import Record

ROW_SUM_TOL = 1e-9


class Layout:
    """The bit field of each variable in a state's code.

    A variable takes `var.high.bit_length()` bits (none over [0..0]), at
    offsets in declaration order. Bounds are unsigned literals, so a valuation
    in range codes as the sum of value << offset. `fields` holds (offset,
    mask) per variable, `width` the total bits, `reads` each one's read of c.
    """

    def __init__(self, variables: tuple[ast.VarDecl, ...]) -> None:
        widths = [var.high.bit_length() for var in variables]
        offsets = list(accumulate(widths, initial=0))
        self.fields = tuple((offset, (1 << w) - 1) for offset, w in zip(offsets, widths))
        self.width, self.full = offsets[-1], (1 << offsets[-1]) - 1
        self.reads: dict[str, str] = {}
        for var, (offset, mask) in zip(variables, self.fields):
            read = f"c >> {offset}" if offset else "c"
            if offset + mask.bit_length() < self.width:
                read += f" & {mask}"  # the top field needs no mask
            self.reads[var.name] = f"({read})" if mask else "(0)"

    def encode(self, values: Iterable[int]) -> int:
        return sum(value << offset for value, (offset, _) in zip(values, self.fields))

    def decode(self, code: int) -> tuple[int, ...]:
        return tuple(code >> offset & mask for offset, mask in self.fields)

    def describe(self, values: Iterable[int]) -> str:
        """Readable variable=value listing for diagnostics."""
        return ", ".join(f"{name}={value}" for name, value in zip(self.reads, values))

    def mask(self, indices: Iterable[int]) -> int:
        """The bits of the variables at `indices`."""
        return sum(self.fields[i][1] << self.fields[i][0] for i in indices)

    def code(self, values: dict[int, int | str], within: int) -> str:
        """Source of a code: values[i] (a constant or a checked value's
        source) in variable i's field, c's bits elsewhere in `within`.
        """
        keep = within & ~self.mask(values)
        constant = sum(v << self.fields[i][0] for i, v in values.items() if isinstance(v, int))
        terms = ["c" if keep == self.full else f"c & {keep}"] if keep else []
        terms += [str(constant)] if constant else []
        for i, v in sorted(values.items()):
            if isinstance(v, str):
                terms.append(f"{v} << {self.fields[i][0]}" if self.fields[i][0] else v)
        return " | ".join(terms) or "0"


# A reduced build's resets: (location variable, {location: {variable dead
# there: its initial value}}).
Resets = tuple[int, dict[int, dict[int, int]]]


class Terms(Record):
    """How a build formed its probabilities, kept for `Dtmc.reweight`.

    `ids` holds each transition's term id, in `probs` order. The term table
    is the walk's weights, then one run-time term per transition of each
    row in `rows`, in order. A row is (state index, weight ids per module,
    the target of each product in product order, -1 where it was zero).
    The rest is the chain's shape: the walk's source, and whether the build
    reduced and its resets.
    """

    source: str
    reduce: bool
    resets: Resets | None
    ids: array[int]
    rows: tuple[tuple[int, tuple[tuple[int, ...], ...], array[int]], ...]

    _not_shown = ("source", "ids", "rows")


class Dtmc(Record):
    """Sparse explicit DTMC with BFS state indexing, stored flat.

    Immutable once built; safe to share across threads for read-only
    solving. Two Dtmcs are equal only if they are the same object. The rows
    are in compressed sparse row (CSR) form, three stdlib arrays: row s
    occupies positions row_starts[s] to row_starts[s + 1] - 1 of `targets`
    (state indices, 'q') and `probs` (probabilities, 'd'). Each row is
    sorted by target, duplicates merged, zero-probability entries dropped;
    `row_starts` ('q') has state_count + 1 entries.

    `codes` holds each state's code (see `Layout`) in index order: an
    ``array('Q')`` of 8 bytes per state if they fit 64 bits (21 in a
    500-photon bb84 model), else a list. Decode them with `state`,
    `iter_states` and `describe_state`. `labels` maps each label name to its
    defining expression; `states_where` finds the states where one holds.
    `reset` names the variables a reduced build (see `build`) may have reset
    to their initial values; it is empty for a full build. `terms`, where
    a build made the chain, lets `reweight` put other probabilities on it.
    """

    variables: tuple[ast.VarDecl, ...]
    constants: dict[str, int | float]
    codes: array[int] | list[int]
    initial: int
    row_starts: array[int]
    targets: array[int]
    probs: array[float]
    labels: dict[str, ast.Expr]
    deadlocks: frozenset[int]
    reset: frozenset[str] = frozenset()
    terms: Terms | None = None

    _not_shown = ("terms",)
    __slots__ = ("__dict__",)  # where `layout` is cached
    __eq__ = object.__eq__
    __hash__ = object.__hash__

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
    def layout(self) -> Layout:
        return Layout(self.variables)

    def state(self, index: int) -> tuple[int, ...]:
        """The valuation of state `index` (in `variables` order)."""
        if not 0 <= index < self.state_count:
            raise IndexError(f"state index {index} out of range")
        return self.layout.decode(self.codes[index])

    def iter_states(self) -> Iterator[tuple[int, ...]]:
        """Every state's valuation, in index order."""
        return map(self.layout.decode, self.codes)

    def states_where(self, expr: ast.Expr) -> frozenset[int]:
        """Indices of the states where a kind-checked boolean expression over
        the variables and constants holds, from one scan of the codes.

        The scan is one comprehension, compiled here, that evaluates the
        expression at every code with no Python call per state. It lists a
        truth value per code and keeps the indices of the true ones: a
        comprehension that filters would loop back through a conditional
        jump, and CPython 3.11 does not specialize a fresh code object on
        those, so its one long run would stay on the generic bytecode.
        """
        source = render_expr(expr, self.layout.reads, self.constants)
        scan = compiled(f"def scan(codes): return [{source} for c in codes]")
        return frozenset(compress(count(), scan(self.codes)))

    def row(self, index: int) -> tuple[tuple[int, float], ...]:
        """The (target, probability) pairs of one row, sorted by target."""
        begin, end = self.row_starts[index], self.row_starts[index + 1]
        return tuple(zip(self.targets[begin:end], self.probs[begin:end]))

    def reweight(self, vm: ValidatedModel) -> Dtmc:
        """The chain `build(vm)` would make, with the same `reduce`, for a
        model of this chain's shape: its probabilities gathered over this
        chain's term ids, its graph this one's, and no walk.

        The shape is the same where vm's walk source is this chain's (so it
        drops the same zero updates and products, and passes the same
        row-sum checks of the generator), and so are its initial code and
        resets. Then the build's weights are the new model's, and each row
        the walk merged at run time is re-formed from them, raising ROW_SUM
        as the build would. Raises BuildError with code SHAPE where the
        shape differs, or a product of a re-formed row is zero where it was
        not or the other way round: the caller builds instead. A chain
        `build` did not make has no shape to match.
        """
        terms = self.terms
        if terms is None:
            raise BuildError("the chain was not made by build: it has no terms", code="SHAPE")
        layout = Layout(vm.variables)
        resets = _resets(vm, terms.reduce)
        if layout.encode(vm.initial_state) != self.codes[self.initial]:
            differs = "its initial state differs"
        elif resets != terms.resets:
            differs = "it resets other variables"
        elif (walk := _walk_source(vm, layout, resets))[0] != terms.source:
            differs = "its walk differs"
        else:
            values = list(walk[1])
            for si, parts, found in terms.rows:
                values += [prob for _, prob in _merged(parts, found, values, self.codes[si], layout)]
            return _chain(vm, resets, self.codes, self.row_starts, self.targets,
                          array("d", [values[t] for t in terms.ids]), self.deadlocks, terms)
        raise BuildError(f"the model is not of the chain's shape: {differs}", code="SHAPE")

    def describe_state(self, index: int) -> str:
        return self.layout.describe(self.state(index))

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


def build(vm: ValidatedModel, *, reduce: bool = False) -> Dtmc:
    """Breadth-first exploration from the initial valuation.

    State indices follow discovery order, so two builds of the same model
    are identical structure for structure. With `reduce`, a successor
    entering a location resets each variable dead on entry to it
    (`ValidatedModel.dead_on_entry`) to its initial value, so states that
    differ only in values no label and no later step reads are built once.
    The reduced chain answers every label query as the full one does, and
    its `reset` names the variables that an expression query must not read.
    A model without a location variable builds in full. Raises BuildError with code
    NONDETERMINISM (two groups, or two commands of one module for one
    action, enabled where validation did not prove them apart; reports the
    state), BOUNDS (an update leaves a variable's range; reports state,
    command line and variable), ROW_LIMIT (a product row of more than
    MAX_ROW_PAIRS pairs; reports the state) or ROW_SUM (post-build
    stochasticity assert). The chain keeps how it formed each probability
    (`Dtmc.terms`), so `Dtmc.reweight` puts a model of its shape on it.
    """
    layout = Layout(vm.variables)
    resets = _resets(vm, reduce)
    source, weights, checks = _walk_source(vm, layout, resets)
    explore = compiled(source)
    # The walk folds the resets into an unrolled row's masks; `row` applies
    # them to each successor it forms, as (keep, initial bits) per location.
    rebase: dict[int, tuple[int, int]] = {}
    offset = mask = 0
    if resets:
        offset, mask = layout.fields[resets[0]]
        for at, values in resets[1].items():
            bits = sum(value << layout.fields[i][0] for i, value in values.items())
            rebase[at] = (layout.full & ~layout.mask(values), bits)
    initial = layout.encode(vm.initial_state)
    codes = [initial]
    code_index = {initial: 0}
    row_starts = array("q", [0])
    targets = array("q")
    ids = array("I")  # each transition's term id (see `Terms`): "I" appends fastest
    terms = list(weights)
    rows: list[tuple[int, tuple[tuple[int, ...], ...], array[int]]] = []
    deadlocks: set[int] = set()
    # Bound once: the walk and the helpers call them once per state or
    # transition.
    index, add_state = code_index.setdefault, codes.append
    add_target, add_id, end_row = targets.append, ids.append, row_starts.append

    def store(parts: tuple[tuple[int, ...], ...], found: array[int], code: int) -> None:
        # Store a row formed at run time, its probabilities as new terms.
        rows.append((len(row_starts) - 1, parts, found))
        for ti, prob in _merged(parts, found, terms, code, layout):
            add_target(ti)
            add_id(len(terms))
            terms.append(prob)
        end_row(len(targets))

    def merge(pairs: Iterable[tuple[int, int]], code: int) -> None:
        parts, found = zip(*pairs)
        store((parts,), array("q", found), code)

    def row(code: int, bits: int, *updates: tuple[tuple[int, int], ...]) -> int:
        # `_row` of the module docstring; returns the new state count.
        size = math.prod(map(len, updates))
        if size > MAX_ROW_PAIRS:
            raise BuildError(
                f"row for state ({layout.describe(layout.decode(code))}) is a product of "
                f"{size} pairs; ROW_LIMIT is {MAX_ROW_PAIRS}",
                code="ROW_LIMIT",
            )
        keys = [bits | b for _, b in updates[0]]
        for part in updates[1:]:
            keys = [key | b for key in keys for _, b in part]
        parts = tuple(tuple(p for p, _ in part) for part in updates)
        found = array("q")
        for factors, key in zip(product(*parts), keys):
            if not _product(factors, terms):
                found.append(-1)
                continue
            if rebase:
                keep, bits = rebase.get(key >> offset & mask, (-1, 0))
                key = key & keep | bits
            fresh = len(codes)
            ti = index(key, fresh)
            if ti == fresh:
                add_state(key)
            found.append(ti)
        store(parts, found, code)
        return len(codes)

    def dead(si: int) -> None:
        deadlocks.add(si)
        add_target(si)
        add_id(0)
        end_row(len(targets))

    explore(codes, targets, row, merge, dead, index, add_state, add_target, add_id, end_row, *checks)
    # The index holds an entry per state; freeing it, and the bound method
    # the walk was handed, before the probabilities are gathered and the
    # codes copied lowers the build's peak memory.
    del code_index, index
    probs = array("d", [terms[t] for t in ids])
    return _chain(
        vm, resets, array("Q", codes) if layout.width <= 64 else codes, row_starts, targets, probs,
        frozenset(deadlocks), Terms(source, reduce, resets, ids, tuple(rows)),
    )


def _resets(vm: ValidatedModel, reduce: bool) -> Resets | None:
    """The resets of a build with `reduce`: (location variable, {location:
    {variable dead on entry to it: its initial value}}), or None for a
    full chain."""
    if not reduce or vm.dead_on_entry is None:
        return None
    location, dead_on_entry = vm.dead_on_entry
    return (
        vm.var_index[location],
        {
            at: {vm.var_index[name]: vm.variables[vm.var_index[name]].init for name in held}
            for at, held in dead_on_entry.items()
        },
    )


def _chain(vm: ValidatedModel, resets: Resets | None, codes: array[int] | list[int],
           row_starts: array[int], targets: array[int], probs: array[float],
           deadlocks: frozenset[int], terms: Terms) -> Dtmc:
    """The Dtmc of vm over the given states and columns."""
    return Dtmc(
        variables=vm.variables,
        constants=dict(vm.constants),
        codes=codes,
        initial=0,
        row_starts=row_starts,
        targets=targets,
        probs=probs,
        labels={label.name: label.expr for label in vm.model.labels},
        deadlocks=deadlocks,
        reset=frozenset().union(*vm.dead_on_entry[1].values()) if resets else frozenset(),
        terms=terms,
    )


def _product(factors: tuple[int, ...], values: list[float]) -> float:
    """The product of the factors' values, left to right as `_row` forms it."""
    q = values[factors[0]]
    for w in factors[1:]:
        q *= values[w]
    return q


def _merged(parts: tuple[tuple[int, ...], ...], found: array[int], values: list[float],
            code: int, layout: Layout) -> list[tuple[int, float]]:
    """The (target, probability) pairs of a row formed at run time, sorted.

    The products of `parts`' weight ids, in product order, go to the
    targets in `found`, merged by target in that order, and -1 marks a
    product that was zero and dropped. A product whose zero pattern differs
    raises SHAPE, and a row whose sum misses 1 ROW_SUM, naming the state of
    `code`.
    """
    merged: dict[int, float] = {}
    for factors, ti in zip(product(*parts), found):
        prob = _product(factors, values)
        if (ti < 0) != (not prob):
            raise BuildError(
                f"a product in the row of state ({layout.describe(layout.decode(code))}) "
                "is zero in one model and not in the other",
                code="SHAPE",
            )
        if ti >= 0:
            merged[ti] = merged.get(ti, 0.0) + prob
    total = math.fsum(merged.values())
    if abs(total - 1.0) > ROW_SUM_TOL:
        raise BuildError(
            f"row for state ({layout.describe(layout.decode(code))}) sums to {total:.12g}",
            code="ROW_SUM",
        )
    return sorted(merged.items())


# One update as the generator sees it: its probability and, per variable it
# assigns, a constant known to be in range or the source of the value,
# range-tested unless it provably fits.
UpdateCode = tuple[float, dict[int, int | str]]

# The most (probability, successor) pairs `_row` forms for one row. A product
# of distributions can have exponentially many; past this the row is refused
# (ROW_LIMIT) before any pair is formed.
MAX_ROW_PAIRS = 2**16

# The most pairs one row is unrolled into; `_row` forms a longer one.
MAX_UNROLLED_PAIRS = 16


def _walk_source(
    vm: ValidatedModel, layout: Layout, resets: Resets | None
) -> tuple[str, tuple[float, ...], tuple[Callable[..., None], ...]]:
    """The source of the walk, explore(codes, targets, _row, _merge, _dead,
    index, add, at, ap, end, *checks), its weights and the checks its
    source calls, which `build` passes after `end`.

    Where the walk stores a probability or hands one on, its source holds
    the probability's weight id, the index in the weights: 0 is the
    deadlock's 1.0, and the rest follow by occurrence. So models that
    differ only in their probabilities share the source, and its compiled
    code (`analysis.compiled`), where they drop the same zero products and
    pass the same row-sum checks.

    It visits `codes` in order while it and `_row` append to it; `n` is
    the length of `codes`. It stores each state's row itself, with
    `index` (the state index's setdefault), `add` (the codes' append),
    `at` and `ap` (the appends of the targets and term ids) and `end` (the
    row starts' append), where the generator knows the row's probabilities: at most one
    module of the firing group picks among several commands, and the row has
    at most MAX_UNROLLED_PAIRS pairs (see `_unrolled_row` for the ones that
    go to `_merge`). Any other row goes to `_row`, and a deadlock to `_dead`.

    The loop body has one flat `if` per group of `vm.groups`, in order.
    Where `vm.disjoint_groups` holds and every pick is in
    `vm.decided_picks`, it is `if <test>: <row>; continue`, and a state that
    passes no test is a deadlock. Otherwise each test sets `g` to its group,
    or calls `_nondeterminism` if `g` is already set, and a second run of
    ifs fires group `g`. In a test, a picking module binds k{gi}_{j} to the
    index of its enabled command, or -1: in one flat `or` for a pick in
    `vm.decided_picks`, else by `_pick`, which checks that one command at
    most is enabled.

    `resets`, if given, is (location variable, {location: {variable dead
    there: its initial value}}); an unrolled row's successors take those
    values (see `_unrolled_row`), and `_row` applies them itself.
    """
    var_index = vm.var_index
    modules = vm.model.modules

    # A variable the guards of several groups read goes to a local per state.
    readers: dict[str, int] = {}
    for _, parts in vm.groups:
        guards = [modules[mi].commands[ci].guard for mi, cis in parts for ci in cis]
        for name in set().union(*map(names.expr_names, guards)) & var_index.keys():
            readers[name] = readers.get(name, 0) + 1
    shared = sorted(var_index[name] for name, count in readers.items() if count > 1)
    reads = {**layout.reads, **{vm.variables[i].name: f"v{i}" for i in shared}}
    binds = [f"v{i} = {layout.reads[vm.variables[i].name]}" for i in shared]

    ranges = {var.name: (var.low, var.high) for var in vm.variables}
    picks: list[tuple[str, str | None, list[int]]] = []
    bound_sites: list[tuple[int, ast.VarDecl]] = []

    def render(expr: ast.Expr) -> str:
        return render_expr(expr, reads, vm.constants)

    def checked(line: int, var: ast.VarDecl, value: ast.Expr) -> int | str:
        # A constant or the source of a value that fits in every reached
        # state (each lies in the declared ranges), else the source that
        # tests the value.
        low, high = bounds(value, ranges, vm.constants)
        if var.low <= low and high <= var.high:
            return low if low == high else f"({render(value)})"
        bound_sites.append((line, var))
        test = f"{var.low} <= (t := {render(value)}) <= {var.high}"
        return f"(t if {test} else _bounds(c, {len(bound_sites) - 1}, t))"

    def updates_of(mi: int, ci: int) -> list[UpdateCode]:
        # One (probability, value per assigned variable) pair per update of
        # nonzero probability.
        command, pairs = modules[mi].commands[ci], []
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

    weights = [1.0]

    def weight(q: float) -> str:
        weights.append(q)
        return str(len(weights) - 1)

    tests: list[str] = []
    bodies: list[list[str]] = []
    # A group is enabled when each of its modules has an enabled command.
    for gi, (action, parts) in enumerate(vm.groups):
        # choices[j][c]: the updates of command c of the group's module j.
        choices = [[updates_of(mi, ci) for ci in cis] for mi, cis in parts]
        terms, pickers = [], []
        for j, (mi, cis) in enumerate(parts):
            commands = [modules[mi].commands[ci] for ci in cis]
            guards = [render(command.guard) for command in commands]
            if len(commands) == 1:
                terms.append(guards[0])
                continue
            pickers.append(j)
            if (mi, action) in vm.decided_picks:
                # Flat at any length: a guard's own `or` is bracketed.
                chain = "".join(f"({guard}) and {k} or " for k, guard in enumerate(guards, 1))
                terms.append(f"(k{gi}_{j} := ({chain}0) - 1) >= 0")
            else:
                terms.append(f"(k{gi}_{j} := _pick(({', '.join(guards)}), c, {len(picks)})) >= 0")
                lines = [command.pos.line for command in commands]
                picks.append((modules[mi].name, action, lines))
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
                    rows = [*_unrolled_row(branch, layout, resets, weight), "continue"]
                    body.extend(f"    {line}" for line in rows)
            else:
                body = _unrolled_row(branches[0], layout, resets, weight)
        else:
            body = _product_row(gi, choices, layout, weight)
        # A guard has no side effects and holds wherever an equal earlier term
        # held, so only the first of equal terms is tested: bb84's modules
        # share one phase test per group.
        tests.append(f"if {' and '.join(dict.fromkeys(terms))}:")
        bodies.append([f"    {line}" for line in [*body, "continue"]])

    def pick(hits: tuple[bool, ...], code: int, site: int) -> int:
        if hits.count(True) > 1:
            module, action, lines = picks[site]
            first, second = [line for line, hit in zip(lines, hits) if hit][:2]
            raise BuildError(
                f"module {module}: commands at line {first} and line {second} are both "
                f"enabled for action [{action}] in state ({layout.describe(layout.decode(code))})",
                code="NONDETERMINISM",
            )
        return hits.index(True) if True in hits else -1

    def out_of_range(code: int, site: int, value: int) -> None:
        line, var = bound_sites[site]
        try:
            shown = str(value)
        except ValueError:  # past the interpreter's limit on int-to-str digits
            shown = f"<{'negative ' if value < 0 else ''}{value.bit_length()}-bit integer>"
        raise BuildError(
            f"update at line {line} sets {var.name}={shown}, outside "
            f"[{var.low}..{var.high}], in state ({layout.describe(layout.decode(code))})",
            code="BOUNDS",
        )

    def described(gi: int) -> str:
        action, ((mi, _), *_) = vm.groups[gi]
        return f"action [{action}]" if action else f"unlabeled command (module {modules[mi].name})"

    def nondeterminism(code: int, first: int, second: int) -> None:
        raise BuildError(
            f"{described(first)} and {described(second)} both enabled in state "
            f"({layout.describe(layout.decode(code))})",
            code="NONDETERMINISM",
        )

    # A group fires at its test only where validation proved the groups
    # disjoint and decided every pick, so no pick goes to `_pick`. An
    # undecided pick may raise in the test of a later group, so then every
    # group is tested, as without the proof.
    enable: list[str] = []
    if not vm.disjoint_groups or picks:
        enable = ["g = -1"]
        for gi, test in enumerate(tests):
            enable.append(f"{test} g = {gi} if g < 0 else _nondeterminism(c, g, {gi})")
        tests = [f"if g == {gi}:" for gi in range(len(tests))]
    # Flat ifs, not an elif chain: Python compiles a chain of elifs as
    # nested statements, and one of 3,000 groups passes its recursion
    # limit.
    fire = [line for test, body in zip(tests, bodies) for line in [test, *body]]
    # After `end` the walk takes the checks its source calls, no other.
    calls = [("_pick", pick, picks), ("_bounds", out_of_range, bound_sites),
             ("_nondeterminism", nondeterminism, enable)]
    checks = {name: check for name, check, sites in calls if sites}
    # codes grows while it is walked, so the walk is breadth-first.
    source = "\n        ".join(
        [
            "def explore(codes, targets, _row, _merge, _dead, index, add, at, ap, end"
            f"{''.join(f', {name}' for name in checks)}):\n"
            "    n = len(codes)\n    for si, c in enumerate(codes):",
            *binds,
            *enable,
            *fire,
            # In a deadlock no group fires.
            "_dead(si)",
        ]
    )
    return source, tuple(weights), tuple(checks.values())


def _unrolled_row(
    per_module: list[list[UpdateCode]],
    layout: Layout,
    resets: Resets | None,
    weight: Callable[[float], str],
) -> list[str]:
    """The statements that store the row of one choice of command per module
    of a group, each of whose probabilities the generator knows. `weight`
    names a probability in the walk's source.

    With `resets`, (location variable, {location: {variable: value}}), a
    successor whose location is known takes the values given for it. They
    join the successor's constant bits; a value they replace is still
    computed, and range-tested where it would be.

    Each distinct successor source, in product order, is looked up in the
    index once, and a new successor appended to the walk's codes; pairs of
    one source are merged here, their probabilities summed in product order
    as `_merge` sums them. The row is stored as `_merge` would store it, its
    sum checked here: ascending targets as they are, two pairs swapped or
    merged into one, more distinct ones sorted. Targets that coincide at
    run time among three or more successors, or among pairs merged here,
    and a sum off 1, go to `_merge` with every pair of the product.
    """
    lines: list[str] = []

    # A module's value can recur in several successors: bind each one read
    # from the state once, module by module, update by update and variable
    # by variable, the order in which `_product_row`'s codes evaluate them.
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
    # {successor source: (its target's local, its summed probability)}
    merged: dict[str, tuple[str, float]] = {}
    for combination in product(*per_module):
        # Left to right, as `_row` multiplies, so every product has the bits
        # the run-time product would have; a zero one is dropped as `_row`
        # drops it.
        q = combination[0][0]
        for p, _ in combination[1:]:
            q *= p
        if not q:
            continue
        values: dict[int, int | str] = {}
        for _, assigned in combination:
            values.update(assigned)
        if resets:
            values.update(resets[1].get(values.get(resets[0]), {}))
        successor = layout.code(values, layout.full)
        if successor not in merged:
            t = f"t{len(merged)}"
            lines.append(f"if ({t} := index(k := {successor}, n)) == n: add(k); n += 1")
            merged[successor] = (t, 0.0)
        t, total = merged[successor]
        merged[successor] = (t, total + q)
        pairs.append((q, t))
    distinct = list(merged.values())
    fits = abs(math.fsum(q for _, q in distinct) - 1.0) <= ROW_SUM_TOL
    stored = [(t, weight(q)) for t, q in distinct] if fits else []

    def merge() -> str:
        # Where the generator merged no pairs, each one's weight is stored.
        listed = stored if len(stored) == len(pairs) else [(t, weight(q)) for q, t in pairs]
        return f"_merge(({''.join(f'({w}, {t}), ' for t, w in listed)}), c)"

    end = "end(len(targets))"
    stores = [f"at({t}); ap({w}); " for t, w in stored]
    if not fits:
        # The merge raises ROW_SUM, naming the state.
        lines.append(merge())
    elif len(stored) == 1:
        lines.append(stores[0] + end)
    elif len(stored) == 2:
        (t0, _), (t1, _) = stored
        lines += [f"if {t0} < {t1}: {stores[0]}{stores[1]}{end}",
                  f"elif {t1} < {t0}: {stores[1]}{stores[0]}{end}"]
        if len(pairs) == 2:
            # One target: `_merge`'s one pair, 0.0 + q0 + q1, rounded once as
            # the fsum above, so it passes the same sum check.
            (q0, _), (q1, _) = pairs
            lines.append(f"else: at({t0}); ap({weight(0.0 + q0 + q1)}); {end}")
        else:
            lines.append(f"else: {merge()}")
    else:
        # Distinct targets: `_merge`'s pairs are the stored ones, sorted.
        targets = [t for t, _ in stored]
        listed = ", ".join(f"({t}, {w})" for t, w in stored)
        lines += [f"if {' < '.join(targets)}: {''.join(stores)}{end}",
                  f"elif len({{{', '.join(targets)}}}) == {len(stored)}:",
                  f"    for t, q in sorted(({listed})): at(t); ap(q)",
                  f"    {end}", f"else: {merge()}"]
    return lines


def _product_row(
    gi: int, choices: list[list[list[UpdateCode]]], layout: Layout, weight: Callable[[float], str]
) -> list[str]:
    """The statements that hand a group's row to `_row`, for a row the walk
    does not unroll.

    u{j} is the tuple of (probability, bits) updates of module j's firing
    command, where the bits hold the values of the variables j writes. The
    call passes the bits no module writes before them.
    """
    writes = [{i for updates in each for _, values in updates for i in values} for each in choices]
    unwritten = layout.full & ~layout.mask(set().union(*writes))
    body = []
    for j, per_command in enumerate(choices):
        written = layout.mask(writes[j])
        stmts = []
        for updates in per_command:
            pairs = "".join(
                f"({weight(prob)}, {layout.code(values, written)}), " for prob, values in updates
            )
            stmts.append(f"u{j} = ({pairs})")
        if len(stmts) == 1:
            body.append(stmts[0])
        else:
            body.extend(f"if k{gi}_{j} == {k}: {stmt}" for k, stmt in enumerate(stmts))
    modules = ", ".join(f"u{j}" for j in range(len(choices)))
    body.append(f"n = _row(c, {layout.code({}, unwritten)}, {modules})")
    return body
