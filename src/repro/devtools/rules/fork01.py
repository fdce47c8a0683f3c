"""FORK01 — fork/thread ordering and async-signal-safe handlers.

Two sub-checks, both born from the serving front in ``api/service.py``:

1. **Thread-before-fork.**  A child produced by ``os.fork()`` inherits
   only the forking thread; any other live thread's locks are frozen in
   whatever state they were in, which is how fork+threads deadlocks
   happen.  Within a function we therefore require that every thread
   started (directly, or by calling a local helper that leaves a thread
   running) is ``join()``-ed before any statement that can reach
   ``os.fork()``.  The pre-fork gate in ``serve`` — start the
   answering thread, ``join()`` it, only then fork workers — is the
   blessed shape.

2. **Signal-handler allowlist.**  CPython handlers run between
   bytecodes on the main thread, so anything that takes a lock, logs, or
   allocates heavily can deadlock or corrupt state mid-operation.
   Handlers registered via ``signal.signal(sig, handler)`` may only call
   an async-safe allowlist (``os.kill``, ``os.write``, ``signal.alarm``,
   ``sys.exit`` …) — raising an exception is always allowed, since that
   is the documented CPython-safe way to abort the interrupted frame
   (``runtime/guard.py``'s SIGALRM handler).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.devtools.engine import Finding, ModuleUnderLint
from repro.devtools.scopes import (
    FunctionInfo,
    FunctionNode,
    LocalCallGraph,
    ancestors,
    call_target,
    immediate_body_walk,
    module_functions,
)

_THREAD_FACTORIES = frozenset({"threading.Thread", "threading.Timer", "Thread"})
_FORK_CALLS = frozenset({"os.fork"})

# Calls considered async-signal-safe inside a handler.  Deliberately
# small: extend it only with calls that neither allocate heavily nor
# take interpreter-visible locks.
SIGNAL_SAFE_CALLS = frozenset(
    {
        "os.kill",
        "os._exit",
        "os.write",
        "os.close",
        "signal.alarm",
        "signal.signal",
        "signal.setitimer",
        "signal.getsignal",
        "signal.raise_signal",
        "sys.exit",
        "len",
        "list",
        "int",
        "id",
    }
)


def _is_thread_factory(call: ast.Call) -> bool:
    return call_target(call) in _THREAD_FACTORIES


def _direct_fork_lines(func: FunctionNode) -> List[int]:
    return [
        node.lineno
        for node in immediate_body_walk(func)
        if isinstance(node, ast.Call) and call_target(node) in _FORK_CALLS
    ]


def _thread_events(func: FunctionNode) -> Tuple[List[Tuple[int, Optional[str]]], Dict[str, List[int]]]:
    """Direct thread starts in a function body.

    Returns ``(starts, joins)`` where a start is ``(line, var)`` —
    ``var`` is the name the thread lives in, or ``None`` for anonymous
    ``threading.Thread(...).start()`` chains — and ``joins`` maps var
    name to the lines where ``var.join()`` is called.
    """
    thread_vars: Set[str] = set()
    starts: List[Tuple[int, Optional[str]]] = []
    joins: Dict[str, List[int]] = {}
    # First pass: names bound to thread objects (walk order is not source
    # order, so the name table must be complete before scanning calls).
    for node in immediate_body_walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if _is_thread_factory(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        thread_vars.add(target.id)
    for node in immediate_body_walk(func):
        if not isinstance(node, ast.Call):
            continue
        func_expr = node.func
        if not isinstance(func_expr, ast.Attribute):
            continue
        owner = func_expr.value
        if func_expr.attr == "start":
            if isinstance(owner, ast.Call) and _is_thread_factory(owner):
                starts.append((node.lineno, None))
            elif isinstance(owner, ast.Name) and owner.id in thread_vars:
                starts.append((node.lineno, owner.id))
        elif func_expr.attr == "join" and isinstance(owner, ast.Name):
            joins.setdefault(owner.id, []).append(node.lineno)
    return starts, joins


def _leaves_thread_running(func: FunctionNode) -> bool:
    """True when the function starts a thread it does not itself join."""
    starts, joins = _thread_events(func)
    for line, var in starts:
        if var is None:
            return True
        if not any(join_line > line for join_line in joins.get(var, [])):
            return True
    return False


class Fork01:
    code = "FORK01"
    title = "thread started before fork, or unsafe signal handler"

    def check(self, module: ModuleUnderLint) -> Iterator[Finding]:
        functions = module_functions(module.tree, module.parents)
        graph = LocalCallGraph(functions, module.parents)
        yield from self._check_thread_before_fork(module, functions, graph)
        yield from self._check_signal_handlers(module, functions)

    # -- sub-check 1: thread starts ordered before a reachable fork ------

    def _check_thread_before_fork(
        self,
        module: ModuleUnderLint,
        functions: List[FunctionInfo],
        graph: LocalCallGraph,
    ) -> Iterator[Finding]:
        fork_reaching = graph.calling_closure(
            f for f in functions if _direct_fork_lines(f.node)
        )
        thread_leaving = {
            f.node for f in functions if _leaves_thread_running(f.node)
        }
        by_node = {f.node: f for f in functions}
        for info in functions:
            starts, joins = _thread_events(info.node)
            # Calls to local helpers that leave a thread running count as
            # start events here; when assigned, the variable is joinable.
            assigned_calls: Dict[ast.AST, Optional[str]] = {}
            for node in immediate_body_walk(info.node):
                if isinstance(node, ast.Assign) and isinstance(
                    node.value, ast.Call
                ):
                    var: Optional[str] = None
                    if len(node.targets) == 1 and isinstance(
                        node.targets[0], ast.Name
                    ):
                        var = node.targets[0].id
                    assigned_calls[node.value] = var
            for node in immediate_body_walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._local_callee(info, node, graph, by_node)
                if callee is not None and callee.node in thread_leaving:
                    starts.append((node.lineno, assigned_calls.get(node)))
            fork_lines = list(_direct_fork_lines(info.node))
            for node in immediate_body_walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = self._local_callee(info, node, graph, by_node)
                if callee is not None and callee.node in fork_reaching:
                    fork_lines.append(node.lineno)
            fork_lines.sort()
            for start_line, var in starts:
                fork_line = next(
                    (line for line in fork_lines if line > start_line), None
                )
                if fork_line is None:
                    continue
                joined = var is not None and any(
                    start_line < join_line <= fork_line
                    for join_line in joins.get(var, [])
                )
                if joined:
                    continue
                yield Finding(
                    rule=self.code,
                    path=module.rel_path,
                    line=start_line,
                    col=0,
                    message=(
                        f"a thread started here is still running when "
                        f"os.fork() is reached at line {fork_line}; the "
                        "child inherits its locks mid-state — join() the "
                        "thread before forking"
                    ),
                    context=info.qualname,
                )

    @staticmethod
    def _local_callee(
        caller: FunctionInfo,
        call: ast.Call,
        graph: LocalCallGraph,
        by_node: Dict[ast.AST, FunctionInfo],
    ) -> Optional[FunctionInfo]:
        target = call_target(call)
        if target is None:
            return None
        for callee in graph.callees(caller.node):
            if callee.node.name == target.rsplit(".", maxsplit=1)[-1]:
                return callee
        return None

    # -- sub-check 2: async-signal-safe handlers -------------------------

    def _check_signal_handlers(
        self, module: ModuleUnderLint, functions: List[FunctionInfo]
    ) -> Iterator[Finding]:
        defs_by_name: Dict[str, List[FunctionNode]] = {}
        for info in functions:
            defs_by_name.setdefault(info.node.name, []).append(info.node)
        checked: Set[ast.AST] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if call_target(node) != "signal.signal" or len(node.args) != 2:
                continue
            handler_expr = node.args[1]
            handlers: List[FunctionNode] = []
            if isinstance(handler_expr, ast.Name):
                handlers = defs_by_name.get(handler_expr.id, [])
            if not handlers:
                continue  # signal.SIG_DFL / SIG_IGN / lambdas / imports
            for handler in handlers:
                if handler in checked:
                    continue  # registered for several signals: report once
                checked.add(handler)
                yield from self._check_handler_body(module, handler)

    def _check_handler_body(
        self, module: ModuleUnderLint, handler: FunctionNode
    ) -> Iterator[Finding]:
        for node in immediate_body_walk(handler):
            if not isinstance(node, ast.Call):
                continue
            if any(
                isinstance(anc, ast.Raise)
                for anc in ancestors(node, module.parents)
            ):
                continue  # raising out of a handler is the sanctioned path
            target = call_target(node)
            if target is not None and target in SIGNAL_SAFE_CALLS:
                continue
            label = target or "<dynamic call>"
            yield Finding(
                rule=self.code,
                path=module.rel_path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"signal handler {handler.name!r} calls {label}, which "
                    "is not on the async-signal-safe allowlist; handlers "
                    "run between bytecodes and must not take locks, log, "
                    "or allocate heavily"
                ),
                context=module.context_of(node),
            )
