"""AST lock model for the static concurrency pass.

Builds, from a set of python sources, a whole-set model of:

- **locks** — ``threading``/``multiprocessing`` ``Lock``/``RLock``/
  ``Condition``/``Semaphore`` objects bound to class attributes or
  module globals, including aliases (``self._lock = registry._lock``
  shares identity with ``MetricsRegistry._lock``);
- **functions** — every function/method body walked with a symbolic
  held-lock stack: ``with``-acquisitions, explicit ``acquire()`` /
  ``release()`` pairs, ``fcntl.flock`` sites, attribute accesses on
  ``self`` with the locks held at that point, resolved call sites, and
  blocking calls (fsync, sleep, socket, blocking queue ops, waits).

Receivers are resolved through a light type environment fed by the
codebase's own annotations: parameter and return annotations, class
attribute assignments (``self.store = store`` with ``store:
BaseRunStore | None``), and local constructor calls.  Resolution is
deliberately under-approximate — an unresolved receiver contributes
nothing rather than a guess — except for one fallback shared with the
reachability pass: an attribute name that names exactly one known lock
(or one method) across the analyzed set resolves to it, unless the
name collides with a common builtin-container method.

Nested ``def``/``lambda`` bodies are skipped: they run at call time,
not at definition time, so crediting the enclosing held-set to them
would fabricate findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

__all__ = ["LockInfo", "FunctionInfo", "ClassInfo", "Model", "load_repo_sources"]

# Factory callables creating synchronisation primitives, keyed by the
# last two elements of the (import-expanded) name chain.
_LOCK_FACTORIES = {
    ("threading", "Lock"): "Lock",
    ("threading", "RLock"): "RLock",
    ("threading", "Condition"): "Condition",
    ("threading", "Semaphore"): "Semaphore",
    ("threading", "BoundedSemaphore"): "Semaphore",
    ("multiprocessing", "Lock"): "Lock",
    ("multiprocessing", "RLock"): "RLock",
    ("multiprocessing", "Condition"): "Condition",
    ("multiprocessing", "Semaphore"): "Semaphore",
}
_QUEUE_FACTORIES = {
    ("queue", "Queue"),
    ("queue", "LifoQueue"),
    ("queue", "PriorityQueue"),
    ("queue", "SimpleQueue"),
    ("multiprocessing", "Queue"),
    ("multiprocessing", "JoinableQueue"),
    ("multiprocessing", "SimpleQueue"),
}
_EVENT_FACTORIES = {("threading", "Event"), ("multiprocessing", "Event")}
_THREAD_FACTORIES = {
    ("threading", "Thread"),
    ("threading", "Timer"),
    ("multiprocessing", "Process"),
}

# Module-level calls that block the calling thread.
_MODULE_BLOCKING = {
    ("time", "sleep"): "time.sleep",
    ("os", "fsync"): "os.fsync",
    ("os", "fdatasync"): "os.fdatasync",
    ("select", "select"): "select.select",
    ("socket", "create_connection"): "socket.create_connection",
    ("subprocess", "run"): "subprocess.run",
    ("subprocess", "call"): "subprocess.call",
    ("subprocess", "check_call"): "subprocess.check_call",
    ("subprocess", "check_output"): "subprocess.check_output",
}

# Method names blocking regardless of receiver type (socket-specific
# enough to trust name-only matching).
_SOCKET_METHODS = {"recv", "recvfrom", "recv_into", "accept", "sendall"}

# Builtin-container/stdlib method names excluded from the
# unique-method-name call fallback (list.append must never resolve to
# BatchedJournal.append).
_BUILTIN_METHOD_NAMES = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "index", "count", "sort", "reverse", "copy", "get", "setdefault",
    "update", "keys", "values", "items", "add", "discard", "union",
    "intersection", "join", "split", "rsplit", "strip", "lstrip",
    "rstrip", "encode", "decode", "format", "startswith", "endswith",
    "read", "write", "readline", "readlines", "flush", "close", "seek",
    "tell", "fileno", "truncate", "open", "send", "sendall", "recv",
    "accept", "connect", "bind", "listen", "put", "put_nowait",
    "get_nowait", "acquire", "release", "wait", "notify", "notify_all",
    "set", "is_set", "start", "run", "cancel", "group", "groups",
    "match", "search", "sub", "findall", "mkdir", "exists", "resolve",
    "unlink", "replace", "execute", "commit", "fetchone", "fetchall",
}

# Mutating container methods: a call like ``self.quarantine.extend(x)``
# counts as a *write* to the ``quarantine`` field.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "put", "put_nowait",
}

# Typing containers whose subscript annotation does NOT type the
# attribute as the element class.
_CONTAINER_NAMES = {
    "dict", "list", "set", "tuple", "frozenset", "Dict", "List", "Set",
    "Tuple", "FrozenSet", "Mapping", "MutableMapping", "Sequence",
    "Iterable", "Iterator", "Callable", "Deque", "deque", "type", "Type",
}

_INIT_METHOD_NAMES = {"__init__", "__post_init__", "__new__"}


@dataclass
class LockInfo:
    lock_id: str
    kind: str  # Lock | RLock | Condition | Semaphore
    module: str
    lineno: int

    @property
    def reentrant(self) -> bool:
        # threading.Condition wraps an RLock by default.
        return self.kind in ("RLock", "Condition")


@dataclass
class Acquisition:
    lock_id: str
    lineno: int
    held: tuple[str, ...]  # locks already held at this site
    explicit: bool = False  # .acquire() call rather than `with`
    in_try: bool = False


@dataclass
class FieldAccess:
    cls: str
    attr: str
    write: bool
    held: tuple[str, ...]
    lineno: int


@dataclass
class CallSite:
    callee: str  # qualname of a function in Model.functions
    held: tuple[str, ...]
    lineno: int


@dataclass
class BlockingCall:
    desc: str
    held: tuple[str, ...]
    lineno: int
    condition: str | None = None  # lock_id when this is Condition.wait


@dataclass
class FunctionInfo:
    qualname: str
    module: str
    cls: str | None
    name: str
    lineno: int
    node: ast.FunctionDef | ast.AsyncFunctionDef = field(repr=False, default=None)
    acquisitions: list[Acquisition] = field(default_factory=list)
    accesses: list[FieldAccess] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    blocking: list[BlockingCall] = field(default_factory=list)
    releases_in_finally: set[str] = field(default_factory=set)
    releases: set[str] = field(default_factory=set)
    lock_sites: int = 0


@dataclass
class ClassInfo:
    name: str
    module: str
    lineno: int
    bases: list[str] = field(default_factory=list)
    raw_attrs: dict[str, tuple] = field(default_factory=dict)
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname


def load_repo_sources(
    targets: Iterable[str] | None = None,
) -> dict[str, str]:
    """Load analyzer input from the installed ``repro`` package.

    *targets* are paths relative to the package root — directories
    (walked recursively) or single ``.py`` files.  ``"."`` means the
    whole package.  Defaults to the concurrent dogfood set.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    if targets is None:
        targets = ("obs",)
    sources: dict[str, str] = {}
    for target in targets:
        path = root if target in (".", "") else root / target
        if path.is_dir():
            files = sorted(path.rglob("*.py"))
        elif path.is_file():
            files = [path]
        else:
            raise FileNotFoundError(f"no such module under repro/: {target}")
        for file in files:
            key = file.relative_to(root).as_posix()
            sources[key] = file.read_text(encoding="utf-8")
    return sources


def _name_chain(node: ast.expr) -> tuple[str, ...] | None:
    """``a.b.c`` -> ("a", "b", "c"); None for non-trivial shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class Model:
    """Whole-set lock/call/field model over a mapping of sources."""

    def __init__(self, sources: Mapping[str, str]) -> None:
        self.sources = dict(sources)
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.locks: dict[str, LockInfo] = {}
        self.module_locks: dict[tuple[str, str], LockInfo] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        self.imports: dict[str, dict[str, tuple[str, ...]]] = {}
        self.parse_errors: list[str] = []
        self._dotted_to_module: dict[tuple[str, ...], str] = {}
        self._attr_kind_memo: dict[tuple[str, str], tuple | None] = {}
        self._lock_attr_names: dict[str, list[LockInfo]] = {}
        self._trees: dict[str, ast.Module] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction

    def _build(self) -> None:
        for key, text in self.sources.items():
            try:
                tree = ast.parse(text, filename=key)
            except SyntaxError as exc:  # pragma: no cover - defensive
                self.parse_errors.append(f"{key}: {exc}")
                continue
            self._trees[key] = tree
            parts = tuple(key[:-3].split("/")) if key.endswith(".py") else (key,)
            if parts and parts[-1] == "__init__":
                parts = parts[:-1]
            self._dotted_to_module[parts] = key
            self._dotted_to_module[("repro",) + parts] = key
        for key, tree in self._trees.items():
            self._index_module(key, tree)
        # Eagerly register every factory-assigned lock so alias chains
        # and the unique-attr fallback resolve against a complete set.
        for cls in self.classes.values():
            for attr, raw in cls.raw_attrs.items():
                if raw[0] == "factory" and raw[1] in (
                    "Lock", "RLock", "Condition", "Semaphore",
                ):
                    info = LockInfo(
                        f"{cls.name}.{attr}", raw[1], cls.module, raw[2]
                    )
                    self.locks[info.lock_id] = info
                    self._attr_kind_memo[(cls.name, attr)] = ("lock", info)
                    self._lock_attr_names.setdefault(attr, []).append(info)
        for (module, name), info in self.module_locks.items():
            self.locks[info.lock_id] = info
        for key, tree in self._trees.items():
            self._walk_module(key, tree)

    def _index_module(self, key: str, tree: ast.Module) -> None:
        imports: dict[str, tuple[str, ...]] = {}
        self.imports[key] = imports
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    dotted = tuple(alias.name.split("."))
                    imports[alias.asname or dotted[0]] = dotted
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = tuple(node.module.split("."))
                for alias in node.names:
                    imports[alias.asname or alias.name] = base + (alias.name,)
            elif isinstance(node, ast.Assign):
                self._index_module_assign(key, node)
            elif isinstance(node, ast.ClassDef):
                self._index_class(key, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{key}::{node.name}"
                self.functions[qualname] = FunctionInfo(
                    qualname, key, None, node.name, node.lineno, node
                )

    def _index_module_assign(self, key: str, node: ast.Assign) -> None:
        raw = self._classify_rhs(key, node.value, None)
        if raw is None or raw[0] != "factory":
            return
        kind = raw[1]
        if kind not in ("Lock", "RLock", "Condition", "Semaphore"):
            return
        stem = Path(key).stem
        for target in node.targets:
            if isinstance(target, ast.Name):
                info = LockInfo(
                    f"{stem}.{target.id}", kind, key, node.lineno
                )
                self.module_locks[(key, target.id)] = info

    def _index_class(self, key: str, node: ast.ClassDef) -> None:
        cls = ClassInfo(node.name, key, node.lineno)
        cls.bases = [
            base.id for base in node.bases if isinstance(base, ast.Name)
        ]
        if node.name not in self.classes:
            self.classes[node.name] = cls
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                cls.raw_attrs.setdefault(
                    item.target.id, ("annnode", item.annotation, item.lineno)
                )
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{node.name}.{item.name}"
                cls.methods[item.name] = qualname
                self.functions[qualname] = FunctionInfo(
                    qualname, key, node.name, item.name, item.lineno, item
                )
                self.methods_by_name.setdefault(item.name, []).append(qualname)
                self._index_self_assigns(key, cls, item)

    def _index_self_assigns(
        self, key: str, cls: ClassInfo, fn: ast.FunctionDef
    ) -> None:
        params = {
            arg.arg: arg.annotation
            for arg in list(fn.args.args) + list(fn.args.kwonlyargs)
            if arg.annotation is not None
        }
        for node in ast.walk(fn):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    raw = None
                    if value is not None:
                        raw = self._classify_rhs(key, value, params)
                    if raw is None and isinstance(node, ast.AnnAssign):
                        raw = ("annnode", node.annotation, node.lineno)
                    if raw is not None:
                        cls.raw_attrs.setdefault(target.attr, raw)

    @staticmethod
    def _queue_bounded(node: ast.Call, tail: tuple[str, ...]) -> bool:
        """True when the queue factory call sets a nonzero maxsize.

        ``put`` on an unbounded queue never blocks, so boundedness
        decides whether it counts as a blocking call.
        """
        if tail[-1] == "SimpleQueue":
            return False
        size: ast.expr | None = node.args[0] if node.args else None
        for keyword in node.keywords:
            if keyword.arg == "maxsize":
                size = keyword.value
        if size is None:
            return False
        if isinstance(size, ast.Constant) and not size.value:
            return False
        return True

    def _classify_rhs(
        self,
        key: str,
        node: ast.expr,
        params: dict[str, ast.expr] | None,
    ) -> tuple | None:
        if isinstance(node, ast.BoolOp):
            for operand in node.values:
                raw = self._classify_rhs(key, operand, params)
                if raw is not None:
                    return raw
            return None
        if isinstance(node, ast.IfExp):
            return self._classify_rhs(key, node.body, params) or (
                self._classify_rhs(key, node.orelse, params)
            )
        if isinstance(node, ast.Call):
            chain = _name_chain(node.func)
            if chain is not None:
                expanded = self._expand(key, chain)
                tail = expanded[-2:] if len(expanded) >= 2 else expanded
                if tail in _LOCK_FACTORIES:
                    return ("factory", _LOCK_FACTORIES[tail], node.lineno)
                if tail in _QUEUE_FACTORIES:
                    kind = "queue" if self._queue_bounded(node, tail) else (
                        "uqueue"
                    )
                    return ("factory", kind, node.lineno)
                if tail in _EVENT_FACTORIES:
                    return ("factory", "event", node.lineno)
                if tail in _THREAD_FACTORIES:
                    return ("factory", "thread", node.lineno)
                if len(chain) == 1 and self._class_in_scope(key, chain[0]):
                    return ("classcall", chain[0])
            return None
        if isinstance(node, ast.Name) and params and node.id in params:
            return ("annnode", params[node.id], node.lineno)
        if isinstance(node, ast.Attribute):
            chain = _name_chain(node)
            if chain is not None and len(chain) >= 2:
                root_ann = params.get(chain[0]) if params else None
                return ("chain", chain, root_ann, key)
        return None

    # ------------------------------------------------------------------
    # resolution

    def _expand(self, key: str, chain: tuple[str, ...]) -> tuple[str, ...]:
        mapped = self.imports.get(key, {}).get(chain[0])
        if mapped is not None:
            return mapped + chain[1:]
        return chain

    def _class_in_scope(self, key: str, name: str) -> bool:
        cls = self.classes.get(name)
        if cls is None:
            return False
        if cls.module == key:
            return True
        mapped = self.imports.get(key, {}).get(name)
        if mapped is not None and mapped[-1] == name:
            return self._dotted_to_module.get(mapped[:-1]) == cls.module
        return False

    def attr_kind(self, cls_name: str, attr: str) -> tuple | None:
        """Resolve (class, attr) to a value kind.

        Returns ``("lock", LockInfo)``, ``("queue",)``, ``("event",)``,
        ``("thread",)``, ``("class", name)``, or None.
        """
        memo_key = (cls_name, attr)
        if memo_key in self._attr_kind_memo:
            return self._attr_kind_memo[memo_key]
        self._attr_kind_memo[memo_key] = None  # cycle guard
        kind = self._attr_kind_uncached(cls_name, attr, set())
        self._attr_kind_memo[memo_key] = kind
        return kind

    def _attr_kind_uncached(
        self, cls_name: str, attr: str, seen: set[str]
    ) -> tuple | None:
        if cls_name in seen:
            return None
        seen.add(cls_name)
        cls = self.classes.get(cls_name)
        if cls is None:
            return None
        raw = cls.raw_attrs.get(attr)
        if raw is None:
            for base in cls.bases:
                kind = self._attr_kind_uncached(base, attr, seen)
                if kind is not None:
                    return kind
            return None
        tag = raw[0]
        if tag == "factory":
            factory = raw[1]
            if factory in ("Lock", "RLock", "Condition", "Semaphore"):
                # registered eagerly at build time
                return self._attr_kind_memo.get((cls_name, attr))
            return (factory,)
        if tag == "classcall":
            return ("class", raw[1]) if raw[1] in self.classes else None
        if tag == "annnode":
            return self._ann_kind(cls.module, raw[1])
        if tag == "chain":
            _, chain, root_ann, key = raw
            kind = None
            if root_ann is not None:
                kind = self._ann_kind(key, root_ann)
            for part in chain[1:]:
                if kind is not None and kind[0] == "class":
                    kind = self.attr_kind(kind[1], part)
                else:
                    kind = None
            if kind is not None:
                return kind
            # fallback: final attr names exactly one known lock
            return self._unique_lock_attr(chain[-1])
        return None

    def _unique_lock_attr(self, attr: str) -> tuple | None:
        infos = self._lock_attr_names.get(attr)
        if infos is not None and len(infos) == 1:
            return ("lock", infos[0])
        return None

    def _ann_kind(self, key: str, node: ast.expr | None) -> tuple | None:
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    return None
                return self._ann_kind(key, parsed.body)
            return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return self._ann_kind(key, node.left) or self._ann_kind(
                key, node.right
            )
        if isinstance(node, ast.Subscript):
            chain = _name_chain(node.value)
            if chain is not None and chain[-1] == "Optional":
                return self._ann_kind(key, node.slice)
            return None  # dict[...]/list[...] do not type the attr
        chain = _name_chain(node)
        if chain is None:
            return None
        expanded = self._expand(key, chain)
        tail = expanded[-2:] if len(expanded) >= 2 else expanded
        if tail in _QUEUE_FACTORIES:
            return ("queue",)
        if tail in _EVENT_FACTORIES:
            return ("event",)
        if tail in _THREAD_FACTORIES:
            return ("thread",)
        if tail in _LOCK_FACTORIES:
            return None  # an annotation carries no lock identity
        if len(chain) == 1:
            name = chain[0]
            if name in _CONTAINER_NAMES:
                return None
            if self._class_in_scope(key, name):
                return ("class", name)
        elif expanded[-1] in self.classes:
            mod = self._dotted_to_module.get(expanded[:-1])
            if mod == self.classes[expanded[-1]].module:
                return ("class", expanded[-1])
        return None

    def method_lookup(self, cls_name: str, name: str) -> str | None:
        seen: set[str] = set()
        stack = [cls_name]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            stack.extend(cls.bases)
        return None

    def is_sync_attr(self, cls_name: str, attr: str) -> bool:
        kind = self.attr_kind(cls_name, attr)
        return kind is not None and kind[0] in (
            "lock", "queue", "uqueue", "event", "thread",
        )

    # ------------------------------------------------------------------
    # function walking

    def _walk_module(self, key: str, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_function(key, None, node)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._walk_function(key, node.name, item)

    def _walk_function(
        self, key: str, cls: str | None, node: ast.FunctionDef
    ) -> None:
        qualname = f"{cls}.{node.name}" if cls else f"{key}::{node.name}"
        fn = self.functions.get(qualname)
        if fn is None or fn.node is not node:
            return
        walker = _FunctionWalker(self, fn)
        for stmt in node.body:
            walker.visit(stmt)
        fn.releases_in_finally = walker.released_in_finally
        fn.releases = walker.released


class _FunctionWalker(ast.NodeVisitor):
    """Walk one function body with a symbolic held-lock stack."""

    def __init__(self, model: Model, fn: FunctionInfo) -> None:
        self.model = model
        self.fn = fn
        self.module = fn.module
        self.cls = fn.cls
        self.held: list[str] = []
        self.try_depth = 0
        self.finally_depth = 0
        self.released_in_finally: set[str] = set()
        self.released: set[str] = set()
        self.env: dict[str, tuple | None] = {}
        if fn.node is not None:
            args = fn.node.args
            for arg in list(args.args) + list(args.kwonlyargs):
                if arg.annotation is not None:
                    self.env[arg.arg] = model._ann_kind(
                        self.module, arg.annotation
                    )

    # -- type environment ------------------------------------------------

    def _expr_kind(self, node: ast.expr) -> tuple | None:
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls:
                return ("class", self.cls)
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._expr_kind(node.value)
            if base is not None and base[0] == "class":
                return self.model.attr_kind(base[1], node.attr)
            return None
        if isinstance(node, ast.Call):
            callee = self._resolve_call(node.func)
            if callee is not None:
                info = self.model.functions.get(callee)
                if info is not None and info.node is not None:
                    returns = info.node.returns
                    if returns is not None:
                        return self.model._ann_kind(info.module, returns)
                # Constructor call resolved to __init__
                if callee.endswith(".__init__"):
                    return ("class", callee.rsplit(".", 1)[0])
            chain = _name_chain(node.func)
            if chain is not None and len(chain) == 1 and (
                self.model._class_in_scope(self.module, chain[0])
            ):
                return ("class", chain[0])
            return None
        if isinstance(node, ast.BoolOp):
            for operand in node.values:
                kind = self._expr_kind(operand)
                if kind is not None:
                    return kind
        return None

    def _resolve_lock(self, node: ast.expr) -> LockInfo | None:
        if isinstance(node, ast.Name):
            info = self.model.module_locks.get((self.module, node.id))
            if info is not None:
                return info
            kind = self.env.get(node.id)
            if kind is not None and kind[0] == "lock":
                return kind[1]
            return None
        kind = self._expr_kind(node)
        if kind is not None and kind[0] == "lock":
            return kind[1]
        if isinstance(node, ast.Attribute):
            fallback = self.model._unique_lock_attr(node.attr)
            if fallback is not None:
                return fallback[1]
        return None

    def _resolve_call(self, func: ast.expr) -> str | None:
        if isinstance(func, ast.Name):
            qualname = f"{self.module}::{func.id}"
            if qualname in self.model.functions:
                return qualname
            mapped = self.model.imports.get(self.module, {}).get(func.id)
            if mapped is not None and len(mapped) >= 2:
                mod = self.model._dotted_to_module.get(mapped[:-1])
                if mod is not None:
                    imported = f"{mod}::{mapped[-1]}"
                    if imported in self.model.functions:
                        return imported
            if self.model._class_in_scope(self.module, func.id):
                return self.model.method_lookup(func.id, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            # Only annotation-typed receivers resolve: a unique-name
            # fallback here resolves `self.iocov.report()` (an
            # unanalyzed object) to an analyzed method of the same
            # name and fabricates call edges.
            base = self._expr_kind(func.value)
            if base is not None and base[0] == "class":
                return self.model.method_lookup(base[1], func.attr)
        return None

    # -- recording -------------------------------------------------------

    def _record_access(self, attr: str, write: bool, lineno: int) -> None:
        if self.cls is None:
            return
        cls = self.model.classes.get(self.cls)
        if cls is not None and attr in cls.methods:
            return
        if self.model.is_sync_attr(self.cls, attr):
            return
        self.fn.accesses.append(
            FieldAccess(self.cls, attr, write, tuple(self.held), lineno)
        )

    def _acquire(
        self, info: LockInfo, lineno: int, explicit: bool
    ) -> None:
        self.fn.acquisitions.append(
            Acquisition(
                info.lock_id,
                lineno,
                tuple(self.held),
                explicit=explicit,
                in_try=self.try_depth > 0,
            )
        )
        self.fn.lock_sites += 1
        self.held.append(info.lock_id)

    # -- visitors --------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs run at call time, not here

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_With(self, node: ast.With) -> None:
        pushed = 0
        for item in node.items:
            self.visit(item.context_expr)
            info = self._resolve_lock(item.context_expr)
            if info is not None:
                self._acquire(info, item.context_expr.lineno, explicit=False)
                pushed += 1
            elif isinstance(item.optional_vars, ast.Name):
                self.env[item.optional_vars.id] = self._expr_kind(
                    item.context_expr
                )
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(pushed):
            self.held.pop()

    visit_AsyncWith = visit_With

    def visit_Try(self, node: ast.Try) -> None:
        self.try_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        self.try_depth -= 1
        for handler in node.handlers:
            for stmt in handler.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        self.finally_depth += 1
        for stmt in node.finalbody:
            self.visit(stmt)
        self.finally_depth -= 1

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._bind_target(target, node.value)
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._bind_target(node.target, node.value)
        self.visit(node.target)

    def _bind_target(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            kind = self._expr_kind(value)
            if kind is None and isinstance(value, ast.Call):
                raw = self.model._classify_rhs(self.module, value, None)
                if raw is not None and raw[0] == "factory" and raw[1] in (
                    "Lock", "RLock", "Condition", "Semaphore",
                ):
                    info = LockInfo(
                        f"{self.fn.qualname}:{target.id}",
                        raw[1],
                        self.module,
                        value.lineno,
                    )
                    self.model.locks[info.lock_id] = info
                    kind = ("lock", info)
            self.env[target.id] = kind
        elif isinstance(target, ast.Tuple):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env[element.id] = None

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            write = isinstance(node.ctx, (ast.Store, ast.Del))
            self._record_access(node.attr, write, node.lineno)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(
            node.value, ast.Attribute
        ):
            target = node.value
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                self._record_access(target.attr, True, node.lineno)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        handled = self._handle_acquire_release(node)
        if not handled:
            self._handle_blocking(node)
            self._handle_mutator(node)
            callee = self._resolve_call(node.func)
            if callee is not None:
                self.fn.calls.append(
                    CallSite(callee, tuple(self.held), node.lineno)
                )
        self.generic_visit(node)

    def _handle_acquire_release(self, node: ast.Call) -> bool:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr not in ("acquire", "release"):
            return False
        info = self._resolve_lock(func.value)
        if info is None:
            return False
        if func.attr == "acquire":
            self._acquire(info, node.lineno, explicit=True)
        else:
            self.released.add(info.lock_id)
            if self.finally_depth > 0:
                self.released_in_finally.add(info.lock_id)
            if info.lock_id in self.held:
                # drop the most recent acquisition of this lock
                for index in range(len(self.held) - 1, -1, -1):
                    if self.held[index] == info.lock_id:
                        del self.held[index]
                        break
        return True

    def _handle_mutator(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
        ):
            self._record_access(func.value.attr, True, node.lineno)

    def _handle_blocking(self, node: ast.Call) -> None:
        chain = _name_chain(node.func)
        if chain is not None:
            expanded = self.model._expand(self.module, chain)
            tail = expanded[-2:] if len(expanded) >= 2 else expanded
            if tail in _MODULE_BLOCKING:
                self._blocking(_MODULE_BLOCKING[tail], node.lineno)
                return
            if tail == ("fcntl", "flock"):
                self.fn.lock_sites += 1
                if not self._flock_nonblocking(node):
                    self._blocking("fcntl.flock", node.lineno)
                return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        receiver = self._expr_kind(func.value)
        name = func.attr
        if receiver is not None:
            if receiver[0] in ("queue", "uqueue") and name in ("get", "put"):
                # put on an unbounded queue never blocks
                if receiver[0] == "uqueue" and name == "put":
                    return
                if not self._queue_nonblocking(node):
                    self._blocking(f"queue.Queue.{name}", node.lineno)
                return
            if receiver[0] == "event" and name in ("wait",):
                self._blocking("Event.wait", node.lineno)
                return
            if receiver[0] == "thread" and name == "join":
                self._blocking("Thread.join", node.lineno)
                return
            if (
                receiver[0] == "lock"
                and receiver[1].kind == "Condition"
                and name in ("wait", "wait_for")
            ):
                self._blocking(
                    f"Condition.{name}",
                    node.lineno,
                    condition=receiver[1].lock_id,
                )
                return
        if name in _SOCKET_METHODS:
            # Skip module-qualified calls (handled above); name-based
            # socket methods only fire on object receivers.
            root = chain[0] if chain else None
            if root is None or root not in self.model.imports.get(
                self.module, {}
            ):
                self._blocking(f"socket.{name}", node.lineno)

    def _blocking(
        self, desc: str, lineno: int, condition: str | None = None
    ) -> None:
        self.fn.blocking.append(
            BlockingCall(desc, tuple(self.held), lineno, condition=condition)
        )

    @staticmethod
    def _queue_nonblocking(node: ast.Call) -> bool:
        for keyword in node.keywords:
            if keyword.arg == "block" and isinstance(
                keyword.value, ast.Constant
            ):
                return keyword.value.value is False
        # q.get(False) / q.put(item, False)
        positional_block = None
        if node.func.attr == "get" and len(node.args) >= 1:
            positional_block = node.args[0]
        elif node.func.attr == "put" and len(node.args) >= 2:
            positional_block = node.args[1]
        if isinstance(positional_block, ast.Constant):
            return positional_block.value is False
        return False

    @staticmethod
    def _flock_nonblocking(node: ast.Call) -> bool:
        if len(node.args) < 2:
            return False
        names: set[str] = set()
        for sub in ast.walk(node.args[1]):
            if isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Name):
                names.add(sub.id)
        return bool(names & {"LOCK_NB", "LOCK_UN"})
