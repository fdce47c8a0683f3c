"""IMP01 — no function-local imports in thread-shared modules.

The PR 7 bug class: a function-local ``import`` executed for the first
time on a serving thread can observe another thread's partially
initialised module (CPython publishes the module object in
``sys.modules`` *before* its body finishes), raising spurious
``AttributeError``/``ImportError`` under load.  The fix is structural:
modules that serving or worker threads import must take every import at
module import time, while the process is still single-threaded.

Scope: the rule applies to the serving-side packages (``api``, ``obs``,
``runtime``, ``core``, ``logic``, ``spec``, ``kbp``, ``systems``,
``protocols``, ``exchanges``, ``failures``, ``engines``).  Driver-side code that runs strictly on the main thread —
the CLI, the grid harness (which parallelises with forked *processes*,
not threads), and offline analysis — may keep cycle-breaking lazy
imports and is excluded.  Cycle-forced exceptions inside the serving
scope must carry a ``# lint: disable=IMP01`` pragma with a justification
comment, which keeps each one a reviewed decision rather than a habit.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.devtools.engine import Finding, ModuleUnderLint
from repro.devtools.scopes import FUNCTION_NODES, ancestors

# Path fragments (relative to the package root) outside the rule's scope.
EXCLUDED_SEGMENTS: Tuple[str, ...] = (
    "harness/",
    "analysis/",
    "devtools/",
    "cli.py",
    "__main__.py",
)


def _in_scope(rel_path: str) -> bool:
    normalised = rel_path.replace("\\", "/")
    marker = "repro/"
    index = normalised.rfind(marker)
    tail = normalised[index + len(marker) :] if index >= 0 else normalised
    return not any(tail.startswith(seg) for seg in EXCLUDED_SEGMENTS)


class Imp01:
    code = "IMP01"
    title = "function-local import in a thread-shared module"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        if not _in_scope(module.rel_path):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            enclosing = next(
                (
                    anc
                    for anc in ancestors(node, module.parents)
                    if isinstance(anc, FUNCTION_NODES)
                ),
                None,
            )
            if enclosing is None:
                continue  # module-level (incl. TYPE_CHECKING blocks) is fine
            if isinstance(node, ast.Import):
                what = ", ".join(alias.name for alias in node.names)
            else:
                what = node.module or "."
            yield Finding(
                rule=self.code,
                path=module.rel_path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"function-local import of {what!r} inside "
                    f"{enclosing.name!r}: first execution on a serving "
                    "thread can observe a partially initialised module "
                    "(the PR 7 race) — hoist it to module level, or "
                    "pragma it with a justification if an import cycle "
                    "forces laziness"
                ),
                context=module.context_of(node),
            )
