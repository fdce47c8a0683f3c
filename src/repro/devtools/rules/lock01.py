"""LOCK01 — guarded attributes must be touched under their declared lock.

The locking design of the serving layer lives in comments: ``Session``'s
cache, ``KeyedLocks``' registry, and
``MetricsRegistry``'s metric table all say which lock protects them.
This rule makes those comments executable: an ``__init__`` assignment
annotated ``# guarded by: <lock>`` turns every later ``self.<attr>``
access in the class into a proof obligation — it must sit inside a
``with self.<lock>:`` block.

Conventions honoured:

* methods whose name ends in ``_locked`` assert "caller holds the lock"
  and are exempt (the convention ``obs/metrics.py`` already uses);
* a dotted guard (e.g. ``# guarded by: Session._lock``) names a lock the
  class does not own — that declaration is documentation-only, because
  the discipline is enforced at the owner's call sites, not lexically
  here (``WeightedLRU`` is the motivating case);
* ``__init__`` itself is exempt — no other thread can hold a reference
  yet.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set

from repro.devtools.engine import Finding, ModuleUnderLint
from repro.devtools.scopes import FUNCTION_NODES, FunctionNode, dotted

_GUARD_RE = re.compile(r"#\s*guarded by:\s*([A-Za-z_][\w.]*)")


def _self_attr_target(node: ast.AST) -> str:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _declarations(
    init: FunctionNode, module: ModuleUnderLint
) -> Dict[str, str]:
    """``self.X = ... # guarded by: L`` assignments in ``__init__``."""
    declared: Dict[str, str] = {}
    for stmt in ast.walk(init):
        targets: Sequence[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        match = _GUARD_RE.search(module.line_text(stmt.lineno))
        if match is None:
            continue
        for target in targets:
            attr = _self_attr_target(target)
            if attr:
                declared[attr] = match.group(1)
    return declared


def _assigned_attrs(init: FunctionNode) -> Set[str]:
    attrs: Set[str] = set()
    for stmt in ast.walk(init):
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                attr = _self_attr_target(target)
                if attr:
                    attrs.add(attr)
        elif isinstance(stmt, ast.AnnAssign):
            attr = _self_attr_target(stmt.target)
            if attr:
                attrs.add(attr)
    return attrs


def _locks_entered(item: ast.withitem) -> str:
    """The attr name when a with-item enters ``self.<lock>``."""
    expr = item.context_expr
    name = dotted(expr)
    if name is not None and name.startswith("self."):
        tail = name[len("self.") :]
        if "." not in tail:
            return tail
    return ""


class Lock01:
    code = "LOCK01"
    title = "guarded attribute accessed outside its declared lock"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        for class_node in ast.walk(module.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            init = next(
                (
                    stmt
                    for stmt in class_node.body
                    if isinstance(stmt, FUNCTION_NODES) and stmt.name == "__init__"
                ),
                None,
            )
            if init is None:
                continue
            declared = _declarations(init, module)
            owned = _assigned_attrs(init)
            enforced = {
                attr: lock
                for attr, lock in declared.items()
                if "." not in lock and lock in owned
            }
            if not enforced:
                continue
            for method in class_node.body:
                if not isinstance(method, FUNCTION_NODES):
                    continue
                if method.name == "__init__" or method.name.endswith("_locked"):
                    continue
                yield from self._check_method(
                    module, class_node.name, method, enforced
                )

    def _check_method(
        self,
        module: ModuleUnderLint,
        class_name: str,
        method: FunctionNode,
        enforced: Dict[str, str],
    ) -> Iterator[Finding]:
        findings: List[Finding] = []

        def visit(node: ast.AST, held: FrozenSet[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                entered = {
                    lock for lock in map(_locks_entered, node.items) if lock
                }
                inner = held | entered
                for child in ast.iter_child_nodes(node):
                    visit(child, inner)
                return
            attr = _self_attr_target(node)
            if attr and attr in enforced and enforced[attr] not in held:
                findings.append(
                    Finding(
                        rule=self.code,
                        path=module.rel_path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"'self.{attr}' is declared guarded by "
                            f"'{enforced[attr]}' but is accessed outside a "
                            f"'with self.{enforced[attr]}:' block in "
                            f"{class_name}.{method.name} (rename the method "
                            "with a _locked suffix if the caller holds the "
                            "lock)"
                        ),
                        context=f"{class_name}.{method.name}",
                    )
                )
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in method.body:
            visit(stmt, frozenset())
        yield from findings
