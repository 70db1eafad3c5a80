"""Static per-iteration communication cost model.

Counts the communication call sites *statically reachable* from a piece of
solver code:

- direct primitives — ``*.allreduce(...)`` (one global reduction) and
  ``*exchanger*.exchange(...)`` (one halo exchange);
- operator helpers — calls on a receiver named ``op``/``self.op`` resolve
  through a cost table built by analyzing ``StencilOperator``'s own
  methods (``apply`` → 1 halo exchange, ``dot``/``dots``/``norm`` → 1
  allreduce, ``residual`` → 1 halo exchange, ...).  The table is derived
  from the AST of the sibling ``operator.py`` when present, falling back
  to a built-in table with the same contents;
- module-local helpers — calls that resolve (uniquely, by name) to a
  function or method defined in the module under analysis are followed one
  level, so e.g. ``space.project(w)`` in deflated CG is charged the
  allreduce hidden in ``DeflationSpace.wt``.

Control flow is approximated conservatively: alternative branches
contribute the component-wise **maximum** of their costs (an iteration
takes one branch), sequential statements add, and any communication inside
a *nested* loop makes the cost :attr:`CommCost.unbounded` (a static trip
count is unknowable, and per the paper's budgets no hot loop may contain
one).  Calls on receivers in ``ignore-receivers`` (preconditioner handles
like ``M``) are skipped: preconditioner communication is accounted
separately from the iteration skeleton.  Rerouted traffic (ABFT replay,
residual replacement — logged under ``RECOVERY_KIND`` /
``REPLACEMENT_KIND`` at runtime) is issued from
:mod:`repro.solvers.defences`, outside any solver module's hot loop, so
the static budget never meets it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.config import DEFAULT_IGNORE_RECEIVERS

#: Attribute names counted as one global reduction at the call site.
REDUCTION_ATTRS = frozenset({"allreduce"})
#: Attribute names counted as one halo exchange when called on an
#: exchanger-ish receiver.
HALO_ATTRS = frozenset({"exchange"})
#: Receiver names that look like the stencil operator.
OPERATOR_RECEIVERS = frozenset({"op", "operator"})


@dataclass(frozen=True)
class CommCost:
    """(allreduces, halo exchanges) statically reachable once."""

    allreduces: float = 0.0
    halos: float = 0.0
    unbounded: bool = False

    def __add__(self, other: "CommCost") -> "CommCost":
        return CommCost(self.allreduces + other.allreduces,
                        self.halos + other.halos,
                        self.unbounded or other.unbounded)

    def __bool__(self) -> bool:
        return bool(self.allreduces or self.halos or self.unbounded)

    @staticmethod
    def branch_max(*costs: "CommCost") -> "CommCost":
        return CommCost(max((c.allreduces for c in costs), default=0.0),
                        max((c.halos for c in costs), default=0.0),
                        any(c.unbounded for c in costs))


ZERO = CommCost()

#: Fallback operator-method costs (used when the sibling ``operator.py``
#: is not available, e.g. analyzing a lone file); mirrors
#: :class:`repro.solvers.operator.StencilOperator`.
DEFAULT_OPERATOR_COSTS: dict[str, CommCost] = {
    "apply": CommCost(halos=1),
    "residual": CommCost(halos=1),
    "dot": CommCost(allreduces=1),
    "dots": CommCost(allreduces=1),
    "norm": CommCost(allreduces=1),
    "apply_noexchange": ZERO,
    "new_field": ZERO,
    "diagonal": ZERO,
    "diagonal_padded": ZERO,
    "from_global_faces": ZERO,
}


def dotted_parts(node: ast.AST) -> list[str] | None:
    """``self.op.comm.allreduce`` → ``["self", "op", "comm", "allreduce"]``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


class ModuleCostModel:
    """Resolves call sites in one module to :class:`CommCost` values."""

    def __init__(self, tree: ast.Module,
                 operator_table: dict[str, CommCost] | None = None,
                 ignore_receivers: frozenset[str] = DEFAULT_IGNORE_RECEIVERS):
        self.operator_table = (operator_table if operator_table is not None
                               else dict(DEFAULT_OPERATOR_COSTS))
        self.ignore_receivers = ignore_receivers
        self.functions: dict[str, ast.FunctionDef] = {}
        self.methods: dict[str, list[tuple[str, ast.FunctionDef]]] = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        self.methods.setdefault(sub.name, []).append(
                            (node.name, sub))
        self._memo: dict[tuple[str, str], CommCost] = {}
        self._in_progress: set[tuple[str, str]] = set()

    # -- function/method costs -------------------------------------------------

    def function_cost(self, fn: ast.FunctionDef, class_name: str = "") -> CommCost:
        """Whole-body cost of a helper (nested loops with comm → unbounded)."""
        key = (class_name, fn.name)
        if key in self._memo:
            return self._memo[key]
        if key in self._in_progress:  # recursion: charge the cycle nothing
            return ZERO
        self._in_progress.add(key)
        try:
            cost = self.body_cost(fn.body, class_name)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = cost
        return cost

    def lookup(self, name: str, class_name: str = "") -> CommCost | None:
        """Cost of a module-local function/method by (unique) name."""
        if class_name:
            for cls, fn in self.methods.get(name, ()):
                if cls == class_name:
                    return self.function_cost(fn, cls)
        candidates = self.methods.get(name, [])
        if len(candidates) == 1:
            cls, fn = candidates[0]
            return self.function_cost(fn, cls)
        if name in self.functions:
            return self.function_cost(self.functions[name])
        return None

    # -- statement-level traversal --------------------------------------------

    def body_cost(self, stmts: list[ast.stmt], class_name: str = "") -> CommCost:
        total = ZERO
        for s in stmts:
            total = total + self.stmt_cost(s, class_name)
        return total

    def stmt_cost(self, stmt: ast.stmt, class_name: str = "") -> CommCost:
        if isinstance(stmt, ast.If):
            return (self.expr_cost(stmt.test, class_name)
                    + CommCost.branch_max(
                        self.body_cost(stmt.body, class_name),
                        self.body_cost(stmt.orelse, class_name)))
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = (stmt.test if isinstance(stmt, ast.While) else stmt.iter)
            inner = (self.expr_cost(header, class_name)
                     + self.body_cost(stmt.body, class_name)
                     + self.body_cost(stmt.orelse, class_name))
            if inner:
                return CommCost(unbounded=True)
            return ZERO
        if isinstance(stmt, ast.Try):
            handlers = CommCost.branch_max(
                ZERO, *(self.body_cost(h.body, class_name)
                        for h in stmt.handlers))
            return (self.body_cost(stmt.body, class_name) + handlers
                    + self.body_cost(stmt.orelse, class_name)
                    + self.body_cost(stmt.finalbody, class_name))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            items = ZERO
            for item in stmt.items:
                items = items + self.expr_cost(item.context_expr, class_name)
            return items + self.body_cost(stmt.body, class_name)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return ZERO
        # Leaf statements: every Call expression inside contributes.
        return self.expr_cost(stmt, class_name)

    def expr_cost(self, node: ast.AST | None, class_name: str = "") -> CommCost:
        if node is None:
            return ZERO
        total = ZERO
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                total = total + self.call_cost(sub, class_name)
        return total

    # -- call resolution -------------------------------------------------------

    def call_cost(self, call: ast.Call, class_name: str = "") -> CommCost:
        parts = dotted_parts(call.func)
        if parts is None:
            return ZERO
        name = parts[-1]
        receiver = parts[:-1]
        if not receiver:  # plain f(...) — module-level function?
            fn = self.functions.get(name)
            return self.function_cost(fn) if fn is not None else ZERO
        if receiver[-1] in self.ignore_receivers:
            return ZERO
        if name in REDUCTION_ATTRS:
            return CommCost(allreduces=1)
        if name in HALO_ATTRS and any("exchanger" in r for r in receiver):
            return CommCost(halos=1)
        if receiver[-1] in OPERATOR_RECEIVERS or receiver[-2:] == ["self", "op"]:
            return self.operator_table.get(name, ZERO)
        if receiver == ["self"]:
            cost = self.lookup(name, class_name)
            return cost if cost is not None else ZERO
        # Any other receiver: unique module-local method name match.
        cost = self.lookup(name)
        return cost if cost is not None else ZERO


def build_operator_table(
        operator_path: Path,
        class_name: str = "StencilOperator") -> dict[str, CommCost]:
    """Derive the operator cost table from ``operator.py``'s own AST.

    Falls back to :data:`DEFAULT_OPERATOR_COSTS` when the file is missing
    or unparsable, and fills any method not found with the default entry,
    so analyses of lone files in temp dirs still resolve ``op.*`` calls.
    """
    table = dict(DEFAULT_OPERATOR_COSTS)
    try:
        tree = ast.parse(operator_path.read_text(), filename=str(operator_path))
    except (OSError, SyntaxError, ValueError):
        return table
    model = ModuleCostModel(tree, operator_table={})
    for cand_name, defs in model.methods.items():
        for cls, fn in defs:
            if cls == class_name:
                table[cand_name] = model.function_cost(fn, cls)
    return table


_TABLE_CACHE: dict[Path, dict[str, CommCost]] = {}


def operator_table_for(module_path: Path) -> dict[str, CommCost]:
    """Operator cost table for a solver module (sibling ``operator.py``)."""
    sibling = module_path.parent / "operator.py"
    key = sibling.resolve() if sibling.exists() else Path("<default>")
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = (build_operator_table(sibling) if sibling.exists()
                             else dict(DEFAULT_OPERATOR_COSTS))
    return _TABLE_CACHE[key]


def find_iteration_loops(fn: ast.FunctionDef) -> list[ast.stmt]:
    """Outermost loop statements of a function (candidates for "the"
    iteration loop), in source order — nested loops are not descended."""
    loops: list[ast.stmt] = []

    def visit(stmts: list[ast.stmt]) -> None:
        for s in stmts:
            if isinstance(s, (ast.While, ast.For, ast.AsyncFor)):
                loops.append(s)
                continue  # outermost only
            for attr in ("body", "orelse", "finalbody"):
                child = getattr(s, attr, None)
                if child:
                    visit(child)
            for h in getattr(s, "handlers", ()):
                visit(h.body)

    visit(fn.body)
    return loops
