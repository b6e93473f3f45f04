"""Call-graph construction and resolution (repro.check.callgraph).

These are the linker's unit tests: name resolution across imports,
methods and typed attributes; concurrency-context propagation from
thread/pool roots; transitive lock acquisition; and the blocking-call
classifier the ASY/CON packs share."""

from repro.check.callgraph import (
    CallGraph,
    blocking_reason,
    extract_summary,
    make_alias_resolver,
)
from repro.check.framework import SourceFile


def graph_of(*files):
    """Build a CallGraph from (path, source) pairs."""
    return CallGraph(
        extract_summary(SourceFile(path, text)) for path, text in files
    )


def fids(graph):
    return {fid for fid, _ in graph.iter_functions()}


# ----------------------------------------------------------------------
# Name resolution
# ----------------------------------------------------------------------

def test_resolves_module_local_and_from_import():
    g = graph_of(
        ("repro/pkg/a.py", "def helper():\n    return 1\n"),
        ("repro/pkg/b.py",
         "from repro.pkg.a import helper\n"
         "def caller():\n    return helper()\n"),
    )
    fn = g.function("repro/pkg/b.py::caller")
    target = g.resolve_call("repro/pkg/b.py", fn, "helper")
    assert target == "repro/pkg/a.py::helper"
    assert target in g.edges["repro/pkg/b.py::caller"]


def test_resolves_dotted_module_import():
    g = graph_of(
        ("repro/pkg/a.py", "def helper():\n    return 1\n"),
        ("repro/pkg/b.py",
         "import repro.pkg.a\n"
         "def caller():\n    return repro.pkg.a.helper()\n"),
    )
    fn = g.function("repro/pkg/b.py::caller")
    assert g.resolve_call(
        "repro/pkg/b.py", fn, "repro.pkg.a.helper"
    ) == "repro/pkg/a.py::helper"


def test_resolves_self_method_and_constructor():
    g = graph_of((
        "repro/pkg/c.py",
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def bump(self):\n"
        "        self.reset()\n"
        "    def reset(self):\n"
        "        self.n = 0\n"
        "def build():\n"
        "    return Box()\n",
    ))
    bump = g.function("repro/pkg/c.py::Box.bump")
    assert g.resolve_call(
        "repro/pkg/c.py", bump, "self.reset"
    ) == "repro/pkg/c.py::Box.reset"
    build = g.function("repro/pkg/c.py::build")
    # ClassName() resolves to the constructor.
    assert g.resolve_call(
        "repro/pkg/c.py", build, "Box"
    ) == "repro/pkg/c.py::Box.__init__"


def test_resolves_typed_attribute_chain_across_modules():
    g = graph_of(
        ("repro/pkg/store.py",
         "class Store:\n"
         "    def put(self, item):\n"
         "        return item\n"),
        ("repro/pkg/svc.py",
         "from repro.pkg.store import Store\n"
         "class Service:\n"
         "    def __init__(self):\n"
         "        self.store = Store()\n"
         "    def save(self, item):\n"
         "        return self.store.put(item)\n"),
    )
    save = g.function("repro/pkg/svc.py::Service.save")
    assert g.resolve_call(
        "repro/pkg/svc.py", save, "self.store.put"
    ) == "repro/pkg/store.py::Store.put"


def test_resolves_imported_singleton_instance():
    g = graph_of(
        ("repro/pkg/reg.py",
         "class Registry:\n"
         "    def counter(self, name):\n"
         "        return name\n"
         "REGISTRY = Registry()\n"),
        ("repro/pkg/user.py",
         "from repro.pkg.reg import REGISTRY\n"
         "def track():\n"
         "    return REGISTRY.counter('x')\n"),
    )
    fn = g.function("repro/pkg/user.py::track")
    assert g.resolve_call(
        "repro/pkg/user.py", fn, "REGISTRY.counter"
    ) == "repro/pkg/reg.py::Registry.counter"


def test_unresolvable_names_drop_edges_quietly():
    g = graph_of((
        "repro/pkg/d.py",
        "import json\n"
        "def caller():\n    return json.dumps({})\n",
    ))
    fn = g.function("repro/pkg/d.py::caller")
    assert g.resolve_call("repro/pkg/d.py", fn, "json.dumps") is None
    assert g.edges["repro/pkg/d.py::caller"] == []


def test_unique_method_fallback_skips_builtin_method_names():
    # Ring.append and Ring.drain are the only methods of those names in
    # the project; an untyped receiver's .append() is still a list's.
    g = graph_of((
        "repro/pkg/r.py",
        "class Ring:\n"
        "    def append(self, x):\n        return x\n"
        "    def drain(self):\n        return []\n"
        "def caller(items, ring):\n"
        "    items.append(1)\n"
        "    return ring.drain()\n",
    ))
    fn = g.function("repro/pkg/r.py::caller")
    assert g.resolve_call("repro/pkg/r.py", fn, "items.append") is None
    assert (
        g.resolve_call("repro/pkg/r.py", fn, "ring.drain")
        == "repro/pkg/r.py::Ring.drain"
    )


# ----------------------------------------------------------------------
# Contexts and roots
# ----------------------------------------------------------------------

THREADED = (
    "repro/pkg/t.py",
    "import threading\n"
    "def leaf():\n    return 1\n"
    "def worker():\n    return leaf()\n"
    "def start():\n"
    "    return threading.Thread(target=worker)\n",
)


def test_thread_root_context_propagates_to_callees():
    g = graph_of(THREADED)
    thread_ctxs = {
        c for c in g.contexts["repro/pkg/t.py::worker"]
        if c.startswith("thread:")
    }
    assert thread_ctxs, g.contexts["repro/pkg/t.py::worker"]
    # leaf runs on the thread (via worker) AND on main (public entry).
    assert thread_ctxs <= g.contexts["repro/pkg/t.py::leaf"]
    # start is an uncalled public entry: main context.
    assert "main" in g.contexts["repro/pkg/t.py::start"]


def test_iter_roots_resolves_targets():
    g = graph_of(THREADED)
    roots = list(g.iter_roots())
    assert len(roots) == 1
    fid, root, target = roots[0]
    assert fid == "repro/pkg/t.py::start"
    assert root["kind"] == "thread"
    assert target == "repro/pkg/t.py::worker"


def test_signal_and_atexit_roots_run_as_main():
    g = graph_of((
        "repro/pkg/s.py",
        "import signal\n"
        "import atexit\n"
        "def on_sig(num, frame):\n    return num\n"
        "def on_exit():\n    return 0\n"
        "def install():\n"
        "    signal.signal(signal.SIGTERM, on_sig)\n"
        "    atexit.register(on_exit)\n",
    ))
    kinds = {root["kind"] for _, root, _ in g.iter_roots()}
    assert kinds == {"signal", "atexit"}
    assert g.contexts["repro/pkg/s.py::on_sig"] == {"main"}
    assert g.contexts["repro/pkg/s.py::on_exit"] == {"main"}


# ----------------------------------------------------------------------
# Locks
# ----------------------------------------------------------------------

def test_transitive_acquires_reach_through_calls():
    g = graph_of((
        "repro/pkg/l.py",
        "import threading\n"
        "LOCK = threading.Lock()\n"
        "def inner():\n"
        "    with LOCK:\n        return 1\n"
        "def outer():\n    return inner()\n",
    ))
    acq = g.transitive_acquires()
    key = "repro/pkg/l.py::LOCK"
    assert acq["repro/pkg/l.py::inner"] == {key}
    assert acq["repro/pkg/l.py::outer"] == {key}


def test_reachable_sync_stops_at_awaits_and_async():
    g = graph_of((
        "repro/pkg/r.py",
        "async def coro():\n    return 1\n"
        "def sync_leaf():\n    return 2\n"
        "def middle():\n    return sync_leaf()\n"
        "async def top():\n"
        "    middle()\n"
        "    await coro()\n",
    ))
    reach = set(g.reachable_sync("repro/pkg/r.py::top"))
    assert "repro/pkg/r.py::middle" in reach
    assert "repro/pkg/r.py::sync_leaf" in reach
    assert "repro/pkg/r.py::coro" not in reach


# ----------------------------------------------------------------------
# Blocking classification
# ----------------------------------------------------------------------

def test_blocking_reason_follows_from_import_alias():
    summary = extract_summary(SourceFile(
        "repro/pkg/blk.py",
        "from time import sleep\n"
        "def nap():\n    sleep(1)\n",
    ))
    resolver = make_alias_resolver(summary)
    call = summary["functions"]["nap"]["calls"][0]
    assert blocking_reason(call, resolver) == "time.sleep"


def test_blocking_reason_ignores_plain_calls():
    summary = extract_summary(SourceFile(
        "repro/pkg/ok.py",
        "def compute():\n    return sum([1, 2])\n",
    ))
    resolver = make_alias_resolver(summary)
    call = summary["functions"]["compute"]["calls"][0]
    assert blocking_reason(call, resolver) == ""
