"""Every psmt module uses each name it imports, and every function each
local it assigns; every helper is read somewhere else in psmt.  Only
``netsim`` advances rounds and writes transcripts, and only
``protocols.common`` builds a channel network.  Every psmt name the
benchmark harness takes exists, and so does every field member its
tracer rebinds."""

import ast
import collections
import importlib
import pathlib

import psmt.field

ROOT = pathlib.Path(psmt.field.__file__).parent
PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_detected():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from a.b import c as d, e\n"
              "print(sys.argv, e)\n")
    assert unused_imports(source) == [(2, "os"), (3, "d")]


def test_no_module_imports_a_name_it_never_uses():
    found = [(str(path.relative_to(ROOT)), line, name)
             for path in sorted(ROOT.rglob("*.py")) if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(func):
    """The nodes of a function's own scope, not those of nested scopes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list:
    """(line, function, name) for each name a function assigns and never
    reads, where a read inside a nested function counts; ``_`` and names
    the function declares ``nonlocal`` or ``global`` are skipped."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        own = list(_own_nodes(func))
        declared = {name for node in own if isinstance(node, (ast.Nonlocal, ast.Global))
                    for name in node.names}
        read = {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        stored = {}
        for n in own:
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                stored.setdefault(n.id, n.lineno)
        found += [(line, func.name, name) for name, line in stored.items()
                  if name != "_" and name not in read and name not in declared]
    return sorted(found)


def test_unused_locals_are_detected():
    source = ("def f(message, rng):\n"
              "    spec = message.spec\n"
              "    total, _ = 0, 1\n"
              "    seen = []\n"
              "    def g():\n"
              "        nonlocal total\n"
              "        total += 1\n"
              "        unused = seen\n"
              "    for i in range(3):\n"
              "        g()\n"
              "    return total\n")
    assert unused_locals(source) == [(2, "f", "spec"), (8, "g", "unused"), (9, "f", "i")]


def test_no_function_assigns_a_local_it_never_reads():
    found = [(str(path.relative_to(ROOT)), line, func, name)
             for path in sorted(ROOT.rglob("*.py"))
             for line, func, name in unused_locals(path.read_text(encoding="utf-8"))]
    assert found == []


def _reads(tree) -> collections.Counter:
    """How often each name is read in ``tree``, as a name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Attribute))


def unreferenced_helpers(sources: dict, helper_modules=()) -> list:
    """(module, line, name) for each helper that no code in ``sources``
    reads outside the helper's own definition.  A helper is a module-level
    function or class with a private name, or any module-level function of
    ``helper_modules``, which exist only to serve the others."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), collections.Counter())
    return sorted(
        (module, node.lineno, node.name) for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and ((node.name.startswith("_") and not node.name.startswith("__"))
             or module in helper_modules and not isinstance(node, ast.ClassDef))
        and total[node.name] == _reads(node)[node.name])


def test_unreferenced_helpers_are_detected():
    sources = {"a.py": ("def _used():\n    return 1\n"
                        "def _alone(n):\n    return _alone(n - 1)\n"
                        "class _Kind:\n    pass\n"
                        "def public():\n    return _used()\n"),
               "h.py": "def helper():\n    pass\ndef lonely():\n    pass\n",
               "b.py": "import h\nx = h.helper\n"}
    assert unreferenced_helpers(sources, {"h.py"}) == [
        ("a.py", 3, "_alone"), ("a.py", 5, "_Kind"), ("h.py", 3, "lonely")]


# helpers only the tests read: the enumerating analyzer that the symbolic
# one is checked against
TEST_ONLY = {("privacy.py", "_enumerated_distance")}


def test_every_helper_is_read_elsewhere_in_psmt():
    # protocols.common holds the helpers the protocols share
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in sorted(ROOT.rglob("*.py"))}
    found = unreferenced_helpers(sources, {"protocols/common.py"})
    assert {(module, name) for module, _, name in found} == TEST_ONLY


def round_and_transcript_writes(source: str) -> list:
    """(line, attribute) for each store to a ``.round`` or ``.transcript``
    attribute and each append, extend or insert on a ``.transcript``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ("round", "transcript")
                and isinstance(node.ctx, ast.Store)):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("append", "extend", "insert")
              and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr == "transcript"):
            found.append((node.lineno, "transcript"))
    return sorted(found)


def test_round_and_transcript_writes_are_detected():
    source = ("net.round += 1\n"
              "net.round = 0\n"
              "net.transcript.append(entry)\n"
              "print(net.round, ctx.round)\n"
              "log.append(net.transcript)\n"
              "self.transcript = []\n")
    assert round_and_transcript_writes(source) == [
        (1, "round"), (2, "round"), (3, "transcript"), (6, "transcript")]


def test_only_netsim_advances_rounds_and_writes_transcripts():
    found = [(str(path.relative_to(ROOT)), line, attr)
             for path in sorted(ROOT.rglob("*.py")) if path.name != "netsim.py"
             for line, attr in round_and_transcript_writes(path.read_text(encoding="utf-8"))]
    assert found == []


def network_builds(source: str) -> list:
    """Lines that call ``PathNetwork(...)``, by name or as an attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None))
                  == "PathNetwork")


def test_network_builds_are_detected():
    source = ("from ..netsim import PathNetwork\n"
              "net = PathNetwork(3 * k - 1, 1, adversary)\n"
              "other = netsim.PathNetwork(2, 1)\n"
              "kind = PathNetwork\n")
    assert network_builds(source) == [2, 3]


def test_only_common_builds_a_channel_network():
    # every channel entry's counts come from its one declaration in
    # common.CHANNELS, through common.network
    found = [(path.name, line)
             for path in sorted((ROOT / "protocols").glob("*.py"))
             if path.name != "common.py"
             for line in network_builds(path.read_text(encoding="utf-8"))]
    assert found == []


def psmt_reads(source: str) -> list:
    """(line, module, name) for each name taken from psmt: every name a
    ``from psmt... import`` statement lists, and every attribute read on a
    name that an import binds to psmt or to one of its members (``name``
    is None for a plain ``import psmt...``)."""
    tree = ast.parse(source)
    bound, found = {}, []   # local name -> (module, member or None)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "psmt":
            for alias in node.names:
                found.append((node.lineno, node.module, alias.name))
                bound[alias.asname or alias.name] = (node.module, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "psmt":
                    found.append((node.lineno, alias.name, None))
                    bound[alias.asname or "psmt"] = (alias.name if alias.asname else "psmt",
                                                     None)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            module, member = bound[node.value.id]
            found.append((node.lineno, module if member is None else f"{module}.{member}",
                          node.attr))
    return sorted(found, key=lambda read: (read[0], read[1], read[2] or ""))


_MISSING = object()


def _resolve(dotted: str):
    """The module or member a dotted psmt name denotes, or ``_MISSING``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, _MISSING)
        return obj
    return _MISSING


def unresolved(source: str) -> list:
    """The ``psmt_reads`` of ``source`` that name nothing."""
    return [(line, module, name) for line, module, name in psmt_reads(source)
            if _resolve(module if name is None else f"{module}.{name}") is _MISSING]


def test_unresolved_psmt_names_are_detected():
    source = ("import psmt.cli\n"
              "import psmt.nope as nope\n"
              "from psmt import topology\n"
              "from psmt.field import GF, Gone\n"
              "def op(topology):\n"
              "    return topology.menger, topology.gone, GF, psmt.cli\n")
    assert unresolved(source) == [(2, "psmt.nope", None), (4, "psmt.field", "Gone"),
                                  (6, "psmt.topology", "gone")]


def test_every_psmt_name_the_benchmark_takes_exists():
    # parsed, not imported: nothing under perfbench runs or is written
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PERFBENCH.glob("*.py"))}
    assert sum(len(psmt_reads(source)) for source in sources.values()) > 20
    found = [(name, *miss) for name, source in sources.items() for miss in unresolved(source)]
    assert found == []


def tracer_hooks() -> list:
    """``perfbench/tracer.py``'s ``HOOKS``, read from its source."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "HOOKS" for t in node.targets))


def test_every_field_hook_the_tracer_rebinds_exists():
    # the tracer rebinds a member its owner defines itself, as
    # FieldSpec._build_tables for the field.table_build span
    hooks = [hook for hook in tracer_hooks() if hook[0] == "psmt.field"]
    assert ("psmt.field", "FieldSpec._build_tables", "field.table_build", "span") in hooks
    missing = []
    for module, attr, _, _ in hooks:
        owner_name, _, member = attr.rpartition(".")
        owner = _resolve(f"{module}.{owner_name}" if owner_name else module)
        if owner is _MISSING or member not in vars(owner):
            missing.append(attr)
    assert missing == []
