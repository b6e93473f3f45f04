"""Project-wide call graph over per-file function summaries.

Whole-project rules (CON/ASY, transitive HOT002) need to see across file
boundaries: which functions run on which thread, which locks are held at a
call site, which module/class state is reachable from two concurrency
contexts at once.  This module supplies that in two strictly separated
phases so the expensive half stays cacheable:

* :func:`extract_summary` — a single AST pass over **one** file producing a
  plain-dict *module summary*: imports, classes (with inferred attribute
  types), functions with their call sites (awaited? discarded? locks held?
  inside a ``# hot`` loop?), lock operations, shared-state accesses, and
  concurrency *roots* (``threading.Thread(target=...)``, executor
  ``submit``/``run_in_executor``, ``asyncio`` task creation, ``signal``/
  ``atexit`` registration).  The result is JSON-serializable and keyed by
  content hash in the incremental cache.

* :class:`CallGraph` — links every summary into symbol tables, resolves
  call names (direct, ``from``-imports, aliases, ``self.method``,
  ``ClassName()`` constructors, typed attribute chains), and propagates
  concurrency contexts (``main``, one per thread root, one per pool root)
  and transitively-acquired locks to a fixpoint.  Rule packs consume the
  graph through query helpers; they never re-parse sources.

Everything here is a deliberate under/over-approximation tuned for this
codebase: resolution failures drop edges (rules stay quiet rather than
noisy), while shared-state detection leans conservative (module globals
and attributes of *shared* classes — singletons or thread-root owners).
"""

from __future__ import annotations

import ast
import re
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.check.framework import SourceFile, dotted_name, fact_extractor

#: Lock-guarding context-manager types (asyncio primitives are excluded on
#: purpose: they are loop-confined and do not exclude *threads*).
LOCK_TYPES = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
})

#: Public method names of the builtin containers and strings.  A call like
#: ``x.append(...)`` on a receiver of unknown type is almost always a list,
#: so the unique-method-name fallback never binds these names to the one
#: project class that happens to define a method of the same name.
_BUILTIN_METHOD_NAMES = frozenset(
    name
    for typ in (list, dict, set, frozenset, tuple, str, bytes, bytearray)
    for name in dir(typ)
    if not name.startswith("_")
)

_LOCKISH_NAME = re.compile(r"(?:^|_)(?:lock|mutex)$", re.IGNORECASE)

_THREAD_POOL_TYPES = frozenset({
    "concurrent.futures.ThreadPoolExecutor",
})
_PROCESS_POOL_TYPES = frozenset({
    "concurrent.futures.ProcessPoolExecutor",
})

#: Call names (resolved through import aliases) that block the calling
#: thread.  Deliberately tight: every entry is a syscall-latency hazard.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.fsync", "os.fdatasync",
    "socket.create_connection",
    "select.select",
    "shutil.copyfileobj",
    "urllib.request.urlopen",
    "tempfile.mkstemp", "tempfile.mkdtemp", "tempfile.NamedTemporaryFile",
    "open", "os.open",
})

#: Wrappers that hand a callable off to an executor: calls *through* these
#: are not blocking-in-async (that is the sanctioned hop).
EXECUTOR_HOPS = frozenset({"run_in_executor", "to_thread"})

_TASK_WRAPPERS = frozenset({"create_task", "ensure_future", "gather", "wait"})

_HOT_MARK_RE = re.compile(r"#\s*hot\b")

_DICT_MUTATORS = frozenset({
    "update", "clear", "pop", "popitem", "setdefault", "__setitem__",
})
_LIST_MUTATORS = frozenset({
    "extend", "insert", "remove", "sort", "reverse", "clear", "pop",
})
_SET_MUTATORS = frozenset({"update", "discard", "remove", "clear", "pop"})
#: Single-element inserts are atomic under the GIL; CON001 exempts them.
ATOMIC_APPENDS = frozenset({"append", "add"})

_ITER_METHODS = frozenset({"items", "keys", "values"})
_ITER_WRAPPERS = frozenset({"list", "sorted", "tuple", "set", "dict",
                            "enumerate", "reversed", "sum", "min", "max"})


def _mod_dotted(modpath: str) -> str:
    """``repro/exec/store.py`` -> ``repro.exec.store`` ('' if foreign)."""
    if not modpath.startswith("repro/") and modpath != "repro":
        return ""
    trimmed = modpath[:-3] if modpath.endswith(".py") else modpath
    if trimmed.endswith("/__init__"):
        trimmed = trimmed[: -len("/__init__")]
    return trimmed.replace("/", ".")


def _is_lockish(name: str, typ: str) -> bool:
    if typ in LOCK_TYPES:
        return True
    if typ:  # known non-lock type wins over the name heuristic
        return False
    return bool(_LOCKISH_NAME.search(name.rsplit(".", 1)[-1]))


def _literal_kind(node: ast.AST) -> str:
    if isinstance(node, ast.Dict) or isinstance(node, ast.DictComp):
        return "dict"
    if isinstance(node, (ast.List, ast.ListComp)):
        return "list"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Constant):
        return "scalar"
    if isinstance(node, ast.Call):
        base = dotted_name(node.func)
        if base in ("dict", "collections.OrderedDict",
                    "collections.defaultdict"):
            return "dict"
        if base in ("list", "collections.deque"):
            return "list"
        if base == "set":
            return "set"
    return ""


class _ModuleScan:
    """Shared per-module state threaded through the function scanners."""

    def __init__(self, src: SourceFile) -> None:
        self.src = src
        self.modpath = src.modpath
        self.imports: Dict[str, str] = {}        # alias -> module dotted
        self.from_imports: Dict[str, List[str]] = {}  # alias -> [mod, name]
        self.classes: Dict[str, Dict[str, Any]] = {}
        self.globals: Dict[str, Dict[str, Any]] = {}
        self.functions: Dict[str, Dict[str, Any]] = {}
        self.hot_lines: Set[int] = set()
        for i, line in enumerate(src.lines, start=1):
            if _HOT_MARK_RE.search(line):
                self.hot_lines.add(i)

    # -- type names ----------------------------------------------------
    def resolve_type(self, name: str) -> str:
        """Normalize a constructor's dotted name to a canonical type."""
        if not name:
            return ""
        head, _, rest = name.partition(".")
        if head in self.from_imports:
            mod, orig = self.from_imports[head]
            base = f"{mod}.{orig}"
            return f"{base}.{rest}" if rest else base
        if head in self.imports:
            full = self.imports[head]
            return f"{full}.{rest}" if rest else full
        if head in self.classes:
            own = _mod_dotted(self.modpath) or self.modpath
            return f"{own}.{name}"
        return name

    def value_type(self, node: ast.AST,
                   local_types: Dict[str, str]) -> str:
        """Best-effort static type of an expression (constructors, names,
        and the `a if c else b` / `a or b` default-argument idioms)."""
        if isinstance(node, ast.Call):
            return self.resolve_type(dotted_name(node.func))
        if isinstance(node, ast.IfExp):
            return self.value_type(node.body, local_types) \
                or self.value_type(node.orelse, local_types)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                typ = self.value_type(value, local_types)
                if typ:
                    return typ
            return ""
        name = dotted_name(node)
        if name in local_types:
            return local_types[name]
        if name and "." not in name:
            glob = self.globals.get(name)
            if glob:
                return str(glob.get("type", ""))
        return ""


def _ann_type(scan: _ModuleScan, ann: Optional[ast.AST]) -> str:
    """Type from an annotation node, unwrapping Optional[...] and strings."""
    if ann is None:
        return ""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        text = ann.value.strip()
        text = text.split("[", 1)[0].strip()
        for prefix in ("Optional.", "typing.Optional."):
            if text.startswith(prefix):
                text = text[len(prefix):]
        return scan.resolve_type(text)
    if isinstance(ann, ast.Subscript):
        base = dotted_name(ann.value)
        if base.rsplit(".", 1)[-1] == "Optional":
            return _ann_type(scan, ann.slice)
        return ""
    name = dotted_name(ann)
    return scan.resolve_type(name) if name else ""


class _FunctionScanner(ast.NodeVisitor):
    """Collect calls/locks/accesses/roots from one function body.

    The scanner is also used for the synthetic ``<module>`` function (the
    module body with nested definitions skipped).
    """

    def __init__(
        self,
        scan: _ModuleScan,
        qual: str,
        cls: str,
        node: Optional[ast.AST],
        is_async: bool,
        attr_types: Dict[str, str],
    ) -> None:
        self.scan = scan
        self.qual = qual
        self.cls = cls
        self.is_async = is_async
        self.attr_types = attr_types  # of the enclosing class, may be {}
        self.local_types: Dict[str, str] = {}
        self.global_decls: Set[str] = set()
        self.calls: List[Dict[str, Any]] = []
        self.lock_ops: List[Dict[str, Any]] = []
        self.accesses: List[Dict[str, Any]] = []
        self.roots: List[Dict[str, Any]] = []
        self._lock_stack: List[str] = []
        self._hot_depth = 0
        self._task_args: Set[int] = set()
        self._awaited: Set[int] = set()
        self._discarded: Set[int] = set()
        self._visited_calls: Set[int] = set()
        if node is not None and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            self.param_types = self._scan_params(node)
            for stmt in node.body:
                self.visit(stmt)
        else:
            self.param_types = {}

    # -- small helpers --------------------------------------------------
    def _scan_params(self, node: ast.AST) -> Dict[str, str]:
        types: Dict[str, str] = {}
        args = getattr(node, "args", None)
        if args is None:
            return types
        for arg in list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        ):
            typ = _ann_type(self.scan, arg.annotation)
            if typ:
                types[arg.arg] = typ
        return types

    def _name_type(self, name: str) -> str:
        """Type of a dotted name, following one level of typed attrs."""
        if not name:
            return ""
        if name in self.local_types:
            return self.local_types[name]
        if name in self.param_types:
            return self.param_types[name]
        head, _, rest = name.partition(".")
        if head == "self" and rest and "." not in rest:
            return self.attr_types.get(rest, "")
        if head in self.local_types and rest and "." not in rest:
            # typed local -> its attr type is resolved at link time
            return ""
        glob = self.scan.globals.get(name)
        if glob:
            return str(glob.get("type", ""))
        return ""

    def _lock_key(self, expr: ast.AST) -> str:
        """Canonical key of a lock expression, or '' when not a lock."""
        name = dotted_name(expr)
        if not name:
            return ""
        typ = self._name_type(name)
        if typ.startswith("asyncio."):
            return ""
        if not _is_lockish(name, typ):
            return ""
        head, _, rest = name.partition(".")
        if head == "self" and self.cls and rest and "." not in rest:
            return f"{self.scan.modpath}::{self.cls}.{rest}"
        if "." not in name and name in self.scan.globals:
            return f"{self.scan.modpath}::{name}"
        # function-local lock: real, but meaningless across functions
        return f"{self.scan.modpath}::{self.qual}::{name}"

    def _state_key(self, name: str) -> Tuple[str, str, bool]:
        """(state key, field, is_chain) for an lvalue/iterated name."""
        if not name:
            return "", "", False
        head, _, rest = name.partition(".")
        if head == "self" and self.cls and rest:
            if "." not in rest:
                return f"{self.scan.modpath}::{self.cls}.{rest}", rest, False
            return name, rest, True  # chain: resolved at link time
        if "." not in name:
            if name in self.global_decls or (
                name in self.scan.globals
                and name not in self.local_types
                and name not in self.param_types
            ):
                return f"{self.scan.modpath}::{name}", name, False
            return "", "", False
        base = name.rsplit(".", 1)[0]
        if base in self.scan.globals or base in self.local_types \
                or base in self.param_types:
            return name, name.rsplit(".", 1)[1], True
        return "", "", False

    def _add_access(self, node: ast.AST, name: str, kind: str) -> None:
        key, field, chain = self._state_key(name)
        if not key:
            return
        self.accesses.append({
            "target": key,
            "field": field,
            "chain": chain,
            "kind": kind,
            "line": getattr(node, "lineno", 0),
            "col": getattr(node, "col_offset", 0),
            "locks": list(self._lock_stack),
        })

    # -- structural visitors --------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are scanned as separate functions

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        pass

    def visit_Global(self, node: ast.Global) -> None:
        self.global_decls.update(node.names)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)

    def _visit_with(self, node: ast.AST, is_async: bool) -> None:
        pushed = 0
        for item in node.items:  # type: ignore[attr-defined]
            ctx = item.context_expr
            key = "" if is_async else self._lock_key(ctx)
            if key:
                self.lock_ops.append({
                    "lock": key,
                    "line": ctx.lineno,
                    "col": ctx.col_offset,
                    "with": True,
                    "op": "acquire",
                    "held": list(self._lock_stack),
                })
                self._lock_stack.append(key)
                pushed += 1
            if item.optional_vars is not None and isinstance(
                item.optional_vars, ast.Name
            ):
                typ = self.scan.value_type(ctx, self.local_types)
                if typ:
                    self.local_types[item.optional_vars.id] = typ
            self.visit(ctx)
        for stmt in node.body:  # type: ignore[attr-defined]
            self.visit(stmt)
        for _ in range(pushed):
            self._lock_stack.pop()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node, is_async=False)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node, is_async=True)

    def visit_Expr(self, node: ast.Expr) -> None:
        value = node.value
        if isinstance(value, ast.Await):
            if isinstance(value.value, ast.Call):
                self._awaited.add(id(value.value))
            self.visit(value.value)
            return
        if isinstance(value, ast.Call):
            self._discarded.add(id(value))
        self.visit(value)

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self._awaited.add(id(node.value))
        self.visit(node.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        typ = self.scan.value_type(node.value, self.local_types)
        for target in node.targets:
            self._record_store(target, typ)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        typ = _ann_type(self.scan, node.annotation)
        if not typ and node.value is not None:
            typ = self.scan.value_type(node.value, self.local_types)
        self._record_store(node.target, typ)
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target, "", aug=True)
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._add_access(target, dotted_name(target.value), "write")
        self.generic_visit(node)

    def _record_store(self, target: ast.AST, typ: str,
                      aug: bool = False) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.global_decls:
                self._add_access(target, target.id, "write")
            elif typ and not aug:
                self.local_types[target.id] = typ
            return
        if isinstance(target, ast.Attribute):
            name = dotted_name(target)
            self._add_access(target, name, "write")
            return
        if isinstance(target, ast.Subscript):
            self._add_access(target, dotted_name(target.value), "write")
            self.visit(target.value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, "")

    def _iter_candidates(self, expr: ast.AST) -> List[ast.AST]:
        out = [expr]
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            last = name.rsplit(".", 1)[-1]
            if last in _ITER_WRAPPERS:
                out.extend(expr.args)
            if last in _ITER_METHODS and isinstance(expr.func,
                                                    ast.Attribute):
                out.append(expr.func.value)
        return out

    def _record_iteration(self, expr: ast.AST) -> None:
        for cand in self._iter_candidates(expr):
            if isinstance(cand, ast.Call):
                name = dotted_name(cand.func)
                if name.rsplit(".", 1)[-1] in _ITER_METHODS and isinstance(
                    cand.func, ast.Attribute
                ):
                    cand = cand.func.value
                else:
                    continue
            name = dotted_name(cand)
            if name:
                self._add_access(cand, name, "iterate")

    def _loop_is_hot(self, node: ast.AST) -> bool:
        lineno = getattr(node, "lineno", 0)
        return lineno in self.scan.hot_lines or (
            lineno - 1
        ) in self.scan.hot_lines

    def _visit_loop(self, node: ast.AST) -> None:
        hot = self._loop_is_hot(node)
        if hot:
            self._hot_depth += 1
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._record_iteration(node.iter)
        self.generic_visit(node)
        if hot:
            self._hot_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._record_iteration(gen.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if id(node) in self._visited_calls:
            self.generic_visit(node)
            return
        self._visited_calls.add(id(node))
        name = dotted_name(node.func)
        last = name.rsplit(".", 1)[-1]
        if not name and isinstance(node.func, ast.Attribute):
            # computed base (`get_running_loop().create_task(...)`): the
            # method name still drives root/task-wrapper detection.
            last = node.func.attr

        if last in _TASK_WRAPPERS:
            for arg in node.args:
                if isinstance(arg, ast.Call):
                    self._task_args.add(id(arg))

        self._maybe_root(node, name, last)
        self._maybe_bare_lock_op(node, name, last)
        self._maybe_mutator(node, name, last)

        if name:
            self.calls.append({
                "name": name,
                "line": node.lineno,
                "col": node.col_offset,
                "awaited": id(node) in self._awaited,
                "discarded": id(node) in self._discarded,
                "task_arg": id(node) in self._task_args,
                "locks": list(self._lock_stack),
                "hot": self._hot_depth > 0,
                "nargs": len(node.args),
                "kwargs": sorted(
                    k.arg for k in node.keywords if k.arg is not None
                ),
                "base_type": self._name_type(name.rsplit(".", 1)[0])
                if "." in name else "",
            })
        self.generic_visit(node)

    def _kwarg(self, node: ast.Call, key: str) -> Optional[ast.AST]:
        for kw in node.keywords:
            if kw.arg == key:
                return kw.value
        return None

    def _callable_name(self, node: Optional[ast.AST]) -> str:
        if node is None:
            return ""
        if isinstance(node, ast.Lambda):
            return "<lambda>"
        return dotted_name(node)

    def _maybe_root(self, node: ast.Call, name: str, last: str) -> None:
        line, col = node.lineno, node.col_offset
        if last == "Thread":
            typ = self.scan.resolve_type(name)
            if typ == "threading.Thread" or name == "Thread":
                target = self._callable_name(self._kwarg(node, "target"))
                if target:
                    self.roots.append({"kind": "thread", "target": target,
                                       "line": line, "col": col})
            return
        if last == "submit" and "." in name:
            base = name.rsplit(".", 1)[0]
            typ = self._name_type(base)
            kind = ""
            if typ in _THREAD_POOL_TYPES:
                kind = "pool"
            elif typ in _PROCESS_POOL_TYPES:
                kind = "process"
            elif not typ and ("pool" in base.lower()
                             or "executor" in base.lower()):
                kind = "pool"
            if kind and node.args:
                target = self._callable_name(node.args[0])
                if target:
                    self.roots.append({"kind": kind, "target": target,
                                       "line": line, "col": col})
            return
        if last == "run_in_executor":
            if len(node.args) >= 2:
                ex = node.args[0]
                kind = "pool"
                if isinstance(ex, ast.Constant) and ex.value is None:
                    kind = "pool"
                else:
                    typ = self._name_type(dotted_name(ex))
                    if typ in _PROCESS_POOL_TYPES:
                        kind = "process"
                target = self._callable_name(node.args[1])
                if target:
                    self.roots.append({"kind": kind, "target": target,
                                       "line": line, "col": col})
            return
        if last in ("create_task", "ensure_future") and node.args:
            inner = node.args[0]
            if isinstance(inner, ast.Call):
                target = self._callable_name(inner.func)
                if target:
                    self.roots.append({"kind": "task", "target": target,
                                       "line": line, "col": col})
            return
        if name == "signal.signal" and len(node.args) >= 2:
            target = self._callable_name(node.args[1])
            if target:
                self.roots.append({"kind": "signal", "target": target,
                                   "line": line, "col": col})
            return
        if last == "add_signal_handler" and len(node.args) >= 2:
            target = self._callable_name(node.args[1])
            if target:
                # asyncio-loop callback: runs on the loop, not in a real
                # signal frame -- a root for reachability, not CON004.
                self.roots.append({"kind": "loop_signal", "target": target,
                                   "line": line, "col": col})
            return
        if name == "atexit.register" and node.args:
            target = self._callable_name(node.args[0])
            if target:
                self.roots.append({"kind": "atexit", "target": target,
                                   "line": line, "col": col})

    def _maybe_bare_lock_op(self, node: ast.Call, name: str,
                            last: str) -> None:
        if last not in ("acquire", "release") or "." not in name:
            return
        key = self._lock_key_for_base(name.rsplit(".", 1)[0])
        if not key:
            return
        blocking = True
        arg = self._kwarg(node, "blocking")
        if arg is None and node.args:
            arg = node.args[0]
        if isinstance(arg, ast.Constant) and arg.value is False:
            blocking = False
        self.lock_ops.append({
            "lock": key,
            "line": node.lineno,
            "col": node.col_offset,
            "with": False,
            "op": last,
            "blocking": blocking,
            "held": list(self._lock_stack),
        })

    def _lock_key_for_base(self, base: str) -> str:
        # reuse _lock_key by rebuilding the attribute chain as AST nodes
        parts = base.split(".")
        node: ast.AST = ast.Name(id=parts[0])
        for part in parts[1:]:
            node = ast.Attribute(value=node, attr=part)
        return self._lock_key(node)

    def _maybe_mutator(self, node: ast.Call, name: str, last: str) -> None:
        if "." not in name:
            return
        base = name.rsplit(".", 1)[0]
        if last in ATOMIC_APPENDS:
            self._add_access(node, base, "append")
        elif last in (_DICT_MUTATORS | _LIST_MUTATORS | _SET_MUTATORS):
            self._add_access(node, base, "write")


@fact_extractor("callgraph")
def extract_summary(src: SourceFile) -> Dict[str, Any]:
    """One-pass per-file summary; plain dicts, safe to cache as JSON."""
    scan = _ModuleScan(src)
    summary: Dict[str, Any] = {
        "modpath": src.modpath,
        "path": src.path,
        "dotted": _mod_dotted(src.modpath),
        "imports": scan.imports,
        "from_imports": scan.from_imports,
        "classes": scan.classes,
        "globals": scan.globals,
        "functions": scan.functions,
    }
    if src.tree is None:
        return summary

    # Pass 0: imports and class shells (so forward refs resolve).
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                scan.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname is None and "." in alias.name:
                    # `import a.b.c` binds `a` but makes a.b.c reachable
                    scan.imports[alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                own = _mod_dotted(src.modpath)
                pkg_parts = own.split(".")[: -node.level] if own else []
                base = ".".join(pkg_parts)
                mod = f"{base}.{mod}" if mod and base else (base or mod)
            for alias in node.names:
                if alias.name == "*":
                    continue
                scan.from_imports[alias.asname or alias.name] = [
                    mod, alias.name
                ]
    for node in src.tree.body:
        if isinstance(node, ast.ClassDef):
            scan.classes[node.name] = {
                "bases": [dotted_name(b) for b in node.bases],
                "line": node.lineno,
                "attr_types": {},
                "attr_kinds": {},
                "methods": [],
            }

    # Pass 1: module globals (before class-attr inference, so that
    # `self.x = registry or REGISTRY` idioms can see the singleton type).
    for node in src.tree.body:
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            kind = _literal_kind(value) if value is not None else ""
            typ = ""
            if isinstance(value, ast.Call):
                typ = scan.resolve_type(dotted_name(value.func))
                if not kind:
                    kind = "instance" if typ else "other"
            scan.globals[target.id] = {
                "kind": kind or "other",
                "type": typ,
                "line": node.lineno,
            }

    # Pass 2: class attribute types/kinds from method bodies + annotations.
    for node in src.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        info = scan.classes[node.name]
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                typ = _ann_type(scan, stmt.annotation)
                if typ:
                    info["attr_types"][stmt.target.id] = typ
        for method in node.body:
            if not isinstance(method,
                              (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            info["methods"].append(method.name)
            param_types = {}
            for arg in method.args.args + method.args.kwonlyargs:
                typ = _ann_type(scan, arg.annotation)
                if typ:
                    param_types[arg.arg] = typ
            for stmt in ast.walk(method):
                target = None
                value = None
                ann = None
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target, value = stmt.targets[0], stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    target, value, ann = stmt.target, stmt.value, \
                        stmt.annotation
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                typ = _ann_type(scan, ann) if ann is not None else ""
                if not typ and value is not None:
                    typ = scan.value_type(value, param_types)
                if typ and attr not in info["attr_types"]:
                    info["attr_types"][attr] = typ
                if value is not None:
                    kind = _literal_kind(value)
                    if kind and attr not in info["attr_kinds"]:
                        info["attr_kinds"][attr] = kind

    # Pass 3: functions (top-level, methods, nested) + module body.
    def scan_function(node: ast.AST, qual: str, cls: str) -> None:
        is_async = isinstance(node, ast.AsyncFunctionDef)
        attr_types = scan.classes.get(cls, {}).get("attr_types", {})
        fs = _FunctionScanner(scan, qual, cls, node, is_async, attr_types)
        scan.functions[qual] = {
            "name": qual,
            "cls": cls,
            "is_async": is_async,
            "line": node.lineno,
            "col": node.col_offset,
            "calls": fs.calls,
            "lock_ops": fs.lock_ops,
            "accesses": fs.accesses,
            "roots": fs.roots,
            "param_types": fs.param_types,
            "local_types": fs.local_types,
        }
        for child in _child_defs(node):
            scan_function(child, f"{qual}.<locals>.{child.name}", cls)

    def _child_defs(node: ast.AST) -> List[ast.AST]:
        """Directly nested function defs (not doubly nested, not classes)."""
        out: List[ast.AST] = []
        stack = list(ast.iter_child_nodes(node))
        while stack:
            child = stack.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append(child)
                continue  # its own nested defs belong to *it*
            if isinstance(child, ast.ClassDef):
                continue
            stack.extend(ast.iter_child_nodes(child))
        return sorted(out, key=lambda n: n.lineno)

    for node in src.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scan_function(node, node.name, "")
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method,
                              (ast.FunctionDef, ast.AsyncFunctionDef)):
                    scan_function(
                        method, f"{node.name}.{method.name}", node.name
                    )

    # Synthetic <module> function: module body minus nested definitions.
    module_fs = _FunctionScanner(scan, "<module>", "", None, False, {})
    for node in src.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom)):
            continue
        module_fs.visit(node)
    scan.functions["<module>"] = {
        "name": "<module>",
        "cls": "",
        "is_async": False,
        "line": 1,
        "col": 0,
        "calls": module_fs.calls,
        "lock_ops": module_fs.lock_ops,
        "accesses": module_fs.accesses,
        "roots": module_fs.roots,
        "param_types": {},
        "local_types": module_fs.local_types,
    }
    return summary


# ----------------------------------------------------------------------
# Linking: symbol tables, resolution, context/lock propagation
# ----------------------------------------------------------------------

MAIN_CTX = "main"


class CallGraph:
    """Linked view over every module summary in the project."""

    def __init__(self, summaries: Iterable[Dict[str, Any]]) -> None:
        self.modules: Dict[str, Dict[str, Any]] = {}
        self.by_dotted: Dict[str, str] = {}
        for summary in summaries:
            self.modules[summary["modpath"]] = summary
            if summary.get("dotted"):
                self.by_dotted[summary["dotted"]] = summary["modpath"]
        # symbol tables
        self.classes: Dict[str, Dict[str, Any]] = {}   # "mod.Cls" dotted
        self.class_home: Dict[str, str] = {}           # dotted -> modpath
        self._method_index: Dict[str, List[str]] = {}
        self._func_index: Dict[str, List[str]] = {}
        for modpath, summary in self.modules.items():
            dotted = summary.get("dotted") or modpath
            for cname, cinfo in summary["classes"].items():
                self.classes[f"{dotted}.{cname}"] = cinfo
                self.class_home[f"{dotted}.{cname}"] = modpath
            for qual, fn in summary["functions"].items():
                fid = f"{modpath}::{qual}"
                leaf = qual.rsplit(".", 1)[-1]
                if fn["cls"]:
                    self._method_index.setdefault(leaf, []).append(fid)
                elif "." not in qual and qual != "<module>":
                    self._func_index.setdefault(qual, []).append(fid)
        self.edges: Dict[str, List[str]] = {}
        self.resolved_calls: Dict[str, List[Tuple[Dict[str, Any], str]]] = {}
        #: (fid, root-index) -> resolved target function id (or None).
        #: Kept out of the summary dicts so cached facts stay pristine.
        self.root_ids: Dict[Tuple[str, int], Optional[str]] = {}
        self._link()
        self.contexts: Dict[str, Set[str]] = {}
        self._propagate_contexts()
        self._transitive_acquires: Optional[Dict[str, Set[str]]] = None

    # -- lookup helpers -------------------------------------------------
    def function(self, fid: str) -> Optional[Dict[str, Any]]:
        modpath, _, qual = fid.partition("::")
        summary = self.modules.get(modpath)
        if summary is None:
            return None
        return summary["functions"].get(qual)

    def iter_functions(self) -> Iterable[Tuple[str, Dict[str, Any]]]:
        for modpath, summary in sorted(self.modules.items()):
            for qual, fn in sorted(summary["functions"].items()):
                yield f"{modpath}::{qual}", fn

    def iter_roots(
        self,
    ) -> Iterable[Tuple[str, Dict[str, Any], Optional[str]]]:
        """Every concurrency root: (owner fid, root record, target fid)."""
        for fid, fn in self.iter_functions():
            for i, root in enumerate(fn["roots"]):
                yield fid, root, self.root_ids.get((fid, i))

    def _class_info(self, type_dotted: str) -> Optional[Dict[str, Any]]:
        return self.classes.get(type_dotted)

    def _method_id(self, type_dotted: str, method: str) -> Optional[str]:
        info = self._class_info(type_dotted)
        if info is None:
            return None
        modpath = self.class_home[type_dotted]
        cname = type_dotted.rsplit(".", 1)[-1]
        if method in info["methods"]:
            return f"{modpath}::{cname}.{method}"
        for base in info.get("bases", ()):
            base_type = self._resolve_base_type(modpath, base)
            if base_type:
                found = self._method_id(base_type, method)
                if found:
                    return found
        return None

    def _resolve_base_type(self, modpath: str, base: str) -> str:
        summary = self.modules.get(modpath)
        if summary is None:
            return ""
        scan = _ScanView(summary)
        resolved = scan.resolve_type(base)
        return resolved if resolved in self.classes else ""

    def attr_type(self, type_dotted: str, attr: str) -> str:
        info = self._class_info(type_dotted)
        if info is None:
            return ""
        typ = info["attr_types"].get(attr, "")
        if typ:
            return typ
        for base in info.get("bases", ()):
            base_type = self._resolve_base_type(
                self.class_home[type_dotted], base
            )
            if base_type:
                typ = self.attr_type(base_type, attr)
                if typ:
                    return typ
        return ""

    # -- name resolution -------------------------------------------------
    def resolve_call(self, modpath: str, fn: Dict[str, Any],
                     name: str) -> Optional[str]:
        """Resolve a dotted call name to a function id, or None."""
        summary = self.modules[modpath]
        parts = name.split(".")
        head = parts[0]

        if head in ("self", "cls") and fn["cls"]:
            dotted = summary.get("dotted") or modpath
            return self._resolve_chain(
                f"{dotted}.{fn['cls']}", parts[1:], modpath
            )

        # local function defined in the same scope (nested def sibling)
        if len(parts) == 1:
            qual = fn["name"]
            if "." in qual:
                scope = qual.rsplit(".", 1)[0]
                sibling = f"{scope}.<locals>.{head}" if not scope.endswith(
                    "<locals>"
                ) else f"{scope}.{head}"
                if sibling in summary["functions"]:
                    return f"{modpath}::{sibling}"
            nested = f"{qual}.<locals>.{head}"
            if nested in summary["functions"]:
                return f"{modpath}::{nested}"

        # from-import of a symbol (function, class, or a whole module as
        # in `from repro import obs`)
        if head in summary["from_imports"]:
            mod, orig = summary["from_imports"][head]
            target_mod = self.by_dotted.get(mod)
            if target_mod is not None:
                hit = self._resolve_symbol(target_mod, orig, parts[1:])
                if hit is not None:
                    return hit
            sub_mod = self.by_dotted.get(f"{mod}.{orig}" if mod else orig)
            if sub_mod is not None:
                return self._resolve_in_module(sub_mod, parts[1:])
            return None

        # plain/dotted module import, longest prefix first
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in summary["imports"]:
                full = summary["imports"][prefix]
                target_mod = self.by_dotted.get(full)
                if target_mod is not None:
                    return self._resolve_in_module(target_mod, parts[cut:])
                # maybe the tail crosses into a submodule
                rest = parts[cut:]
                for sub_cut in range(len(rest), 0, -1):
                    sub = ".".join([full] + rest[:sub_cut])
                    target_mod = self.by_dotted.get(sub)
                    if target_mod is not None:
                        return self._resolve_in_module(
                            target_mod, rest[sub_cut:]
                        )
                return None

        # module-local function / class
        if head in summary["functions"]:
            if len(parts) == 1:
                return f"{modpath}::{head}"
        if head in summary["classes"]:
            dotted = summary.get("dotted") or modpath
            return self._resolve_chain(f"{dotted}.{head}", parts[1:],
                                       modpath, constructor=True)

        # typed local / param / global instance
        typ = fn["local_types"].get(head) or fn["param_types"].get(head)
        if not typ:
            glob = summary["globals"].get(head)
            if glob:
                typ = str(glob.get("type", ""))
        if typ and typ in self.classes and len(parts) > 1:
            return self._resolve_chain(typ, parts[1:], modpath)

        # unique-name fallbacks
        if len(parts) == 1:
            hits = self._func_index.get(head, [])
            if len(hits) == 1 and hits[0].startswith(f"{modpath}::"):
                return hits[0]
            return None
        leaf = parts[-1]
        hits = self._method_index.get(leaf, [])
        if len(hits) == 1 and leaf not in _BUILTIN_METHOD_NAMES:
            return hits[0]
        return None

    def _resolve_symbol(self, modpath: str, name: str,
                        rest: List[str], depth: int = 0) -> Optional[str]:
        summary = self.modules[modpath]
        if name in summary["classes"]:
            dotted = summary.get("dotted") or modpath
            return self._resolve_chain(f"{dotted}.{name}", rest, modpath,
                                       constructor=True)
        if name in summary["functions"] and not rest:
            return f"{modpath}::{name}"
        glob = summary["globals"].get(name)
        if glob and rest:
            # imported singleton instance (e.g. REGISTRY.counter(...))
            typ = str(glob.get("type", ""))
            if typ in self.classes:
                return self._resolve_chain(typ, rest, modpath)
        if depth < 4 and name in summary["from_imports"]:
            # package re-export (`from repro.obs.metrics import counter`
            # inside obs/__init__.py): chase it into the home module
            mod, orig = summary["from_imports"][name]
            target_mod = self.by_dotted.get(mod)
            if target_mod is not None:
                return self._resolve_symbol(target_mod, orig, rest,
                                            depth + 1)
        return None

    def _resolve_in_module(self, modpath: str,
                           rest: List[str]) -> Optional[str]:
        if not rest:
            return None
        return self._resolve_symbol(modpath, rest[0], rest[1:])

    def _resolve_chain(self, type_dotted: str, rest: List[str],
                       modpath: str, constructor: bool = False
                       ) -> Optional[str]:
        """Walk ``rest`` through typed attributes to a final method."""
        if not rest:
            return self._method_id(type_dotted, "__init__") \
                if constructor else None
        current = type_dotted
        for i, part in enumerate(rest):
            is_last = i == len(rest) - 1
            if is_last:
                return self._method_id(current, part)
            nxt = self.attr_type(current, part)
            if nxt not in self.classes:
                return None
            current = nxt
        return None

    def resolve_state(self, modpath: str, fn: Dict[str, Any],
                      access: Dict[str, Any]) -> Optional[str]:
        """Canonical key for an access target (chains via typed attrs)."""
        target = access["target"]
        if not access.get("chain"):
            return target
        parts = target.split(".")
        summary = self.modules[modpath]
        head = parts[0]
        if head == "self" and fn["cls"]:
            dotted = summary.get("dotted") or modpath
            current = f"{dotted}.{fn['cls']}"
            chain = parts[1:]
        else:
            typ = fn["local_types"].get(head) \
                or fn["param_types"].get(head)
            if not typ:
                glob = summary["globals"].get(head)
                typ = str(glob.get("type", "")) if glob else ""
            if typ not in self.classes:
                return None
            current = typ
            chain = parts[1:]
        for i, part in enumerate(chain):
            if i == len(chain) - 1:
                home = self.class_home.get(current)
                if home is None:
                    return None
                cname = current.rsplit(".", 1)[-1]
                return f"{home}::{cname}.{part}"
            nxt = self.attr_type(current, part)
            if nxt not in self.classes:
                return None
            current = nxt
        return None

    # -- linking ----------------------------------------------------------
    def _link(self) -> None:
        for fid, fn in self.iter_functions():
            modpath = fid.partition("::")[0]
            resolved: List[Tuple[Dict[str, Any], str]] = []
            edges: List[str] = []
            for call in fn["calls"]:
                target = self.resolve_call(modpath, fn, call["name"])
                if target is not None:
                    resolved.append((call, target))
                    edges.append(target)
            self.resolved_calls[fid] = resolved
            self.edges[fid] = edges
            for i, root in enumerate(fn["roots"]):
                self.root_ids[(fid, i)] = self._resolve_root(
                    modpath, fn, root
                )

    def _resolve_root(self, modpath: str, fn: Dict[str, Any],
                      root: Dict[str, Any]) -> Optional[str]:
        target = root["target"]
        if not target or target == "<lambda>":
            return None
        return self.resolve_call(modpath, fn, target)

    # -- contexts ----------------------------------------------------------
    def _propagate_contexts(self) -> None:
        ctxs: Dict[str, Set[str]] = {fid: set()
                                     for fid, _ in self.iter_functions()}
        in_degree: Dict[str, int] = {fid: 0 for fid in ctxs}
        root_targets: Set[str] = set()
        seeds: List[Tuple[str, str]] = []
        for fid, fn in self.iter_functions():
            for callee in self.edges[fid]:
                if callee in in_degree:
                    in_degree[callee] += 1
            modpath = fid.partition("::")[0]
            for i, root in enumerate(fn["roots"]):
                tid = self.root_ids.get((fid, i))
                if tid is None or tid not in ctxs:
                    continue
                root_targets.add(tid)
                kind = root["kind"]
                if kind == "thread":
                    seeds.append(
                        (tid, f"thread:{modpath}:{root['line']}")
                    )
                elif kind == "pool":
                    seeds.append((tid, f"pool:{modpath}:{root['line']}"))
                elif kind in ("task", "loop_signal", "signal", "atexit"):
                    # loop callbacks / handlers execute on the main thread
                    seeds.append((tid, MAIN_CTX))
                # "process" roots share no memory: not a context
        for fid, fn in self.iter_functions():
            if fn["name"] == "<module>":
                seeds.append((fid, MAIN_CTX))
            elif in_degree.get(fid, 0) == 0 and fid not in root_targets:
                # never called in-project and not a root target: assume a
                # main-callable entry point (public API).
                seeds.append((fid, MAIN_CTX))
        work = list(seeds)
        while True:
            while work:
                fid, ctx = work.pop()
                if ctx in ctxs[fid]:
                    continue
                ctxs[fid].add(ctx)
                for callee in self.edges.get(fid, ()):
                    if callee in ctxs and ctx not in ctxs[callee]:
                        work.append((callee, ctx))
            # Context-manager dunders run wherever the instance was built:
            # `with obs.span(...):` never names __enter__/__exit__, so
            # seed them from __init__'s contexts and re-propagate.
            for fid in ctxs:
                modpath, _, qual = fid.partition("::")
                if qual.rsplit(".", 1)[-1] not in (
                    "__enter__", "__exit__", "__aenter__", "__aexit__",
                    "__call__",
                ):
                    continue
                init = f"{modpath}::{qual.rsplit('.', 1)[0]}.__init__"
                for ctx in ctxs.get(init, ()):
                    if ctx not in ctxs[fid]:
                        work.append((fid, ctx))
            if not work:
                break
        self.contexts = ctxs

    # -- queries -----------------------------------------------------------
    def transitive_acquires(self) -> Dict[str, Set[str]]:
        """Locks (global keys only) each function may acquire, transitively."""
        if self._transitive_acquires is not None:
            return self._transitive_acquires
        acq: Dict[str, Set[str]] = {}
        for fid, fn in self.iter_functions():
            acq[fid] = {
                op["lock"] for op in fn["lock_ops"]
                if op["op"] == "acquire" and _is_global_lock(op["lock"])
            }
        changed = True
        while changed:
            changed = False
            for fid in acq:
                for callee in self.edges.get(fid, ()):
                    extra = acq.get(callee, set()) - acq[fid]
                    if extra:
                        acq[fid] |= extra
                        changed = True
        self._transitive_acquires = acq
        return acq

    def reachable_sync(self, fid: str) -> List[str]:
        """Functions reachable from ``fid`` through *sync* call edges.

        Awaited calls and executor hops are not traversed: an awaited
        coroutine yields the loop, and an executor hop is the sanctioned
        way to run blocking work.
        """
        seen: Set[str] = set()
        order: List[str] = []
        work = [fid]
        while work:
            cur = work.pop()
            if cur in seen:
                continue
            seen.add(cur)
            order.append(cur)
            for call, target in self.resolved_calls.get(cur, ()):
                if call["awaited"]:
                    continue
                callee = self.function(target)
                if callee is None or callee["is_async"]:
                    continue
                if target not in seen:
                    work.append(target)
        return order


def _is_global_lock(key: str) -> bool:
    """True for module/class-level lock keys ('mod::C.x'), not fn-locals."""
    return key.count("::") == 1


class _ScanView:
    """Duck-typed `_ModuleScan` view over a finished summary (resolve_type)."""

    def __init__(self, summary: Dict[str, Any]) -> None:
        self.modpath = summary["modpath"]
        self.imports = summary["imports"]
        self.from_imports = summary["from_imports"]
        self.classes = summary["classes"]
        self.globals = summary["globals"]

    resolve_type = _ModuleScan.resolve_type


def blocking_reason(call: Dict[str, Any], resolver) -> str:
    """Why this call site blocks the thread, or '' if it does not.

    ``resolver(name)`` maps an import alias chain to its canonical dotted
    name (e.g. ``sleep`` -> ``time.sleep`` under ``from time import sleep``).
    """
    name = call["name"]
    canonical = resolver(name) or name
    if canonical in BLOCKING_CALLS:
        return canonical
    last = name.rsplit(".", 1)[-1]
    base_type = call.get("base_type", "")
    if last == "result" and call["nargs"] == 0 and not call["kwargs"]:
        return f"{name} (Future.result)"
    if last == "join" and base_type == "threading.Thread":
        return f"{name} (Thread.join)"
    if last == "wait" and base_type in ("threading.Event",
                                        "threading.Condition"):
        return f"{name} ({base_type}.wait)"
    if last in ("get", "put") and base_type == "queue.Queue":
        return f"{name} (queue.Queue.{last})"
    if last == "shutdown" and (
        base_type in _THREAD_POOL_TYPES | _PROCESS_POOL_TYPES
    ):
        if "wait" not in call["kwargs"]:
            return f"{name} (Executor.shutdown waits by default)"
    return ""


def make_alias_resolver(summary: Dict[str, Any]):
    """Callable mapping raw dotted names to canonical stdlib names."""
    view = _ScanView(summary)

    def resolve(name: str) -> str:
        if not name:
            return ""
        if "." not in name and name in ("open",):
            return name
        return view.resolve_type(name)

    return resolve
