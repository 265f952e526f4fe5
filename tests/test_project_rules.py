"""Four project rules, checked over the AST of ``src/repro``.

* **env** (RL201): no ``repro`` module other than ``repro/config.py``
  touches the process environment (``os.environ`` / ``getenv`` /
  ``getenvb`` / ``putenv``, by attribute or by ``from os import``).
  Every ``REPRO_*`` switch resolves through ``repro.config``.
* **shm** (RL401-RL403), scoped to ``repro/parallel/``: a
  ``SharedMemory(create=True)`` segment is bound to a name (RL403),
  closed in a ``finally`` and either unlinked or handed off through
  ``resource_tracker.unregister`` (RL401); an attached
  ``SharedMemory(name=...)`` segment is both closed and unlinked
  (RL402).
* **cycle** (RL301), scoped to ``repro/harness/``: no ``scale_out(``
  call outside ``repro/harness/runner.py``.  An experiment configures
  ``ExperimentRunner``'s one cycle loop rather than writing its own.
* **ref table** (RL302), scoped to ``repro/core/`` outside
  ``repro/core/ledger.py``: no attribute or class field annotated as a
  ``ChunkRef``-keyed dict or set (``Dict[ChunkRef, ...]``,
  ``Set[ChunkRef]``, ...).  A per-chunk fact is a column of the chunk
  table; only the table's own by-ref lookups key by ref.

Nothing under ``src/`` is imported; a finding is ``(line, code)``.  Each
fixture is an inline source with the module path it pretends to have.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ENV_NAMES = {"environ", "getenv", "getenvb", "putenv"}
WHY = {
    "RL201": "environment access outside repro/config.py; use repro.config",
    "RL301": "scale_out outside the runner; configure ExperimentRunner instead",
    "RL302": "ChunkRef-keyed dict/set attribute; make it a chunk-table column",
    "RL401": "created segment needs a finally close() and unlink/unregister",
    "RL402": "attached segment must be both close()d and unlink()ed",
    "RL403": "SharedMemory(create=True) result is not bound to a name",
}


def env_findings(tree: ast.AST, rel: str) -> list:
    if not rel.startswith("repro/") or rel == "repro/config.py":
        return []
    os_names, direct = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            os_names |= {a.asname or "os" for a in node.names if a.name == "os"}
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            direct |= {a.asname or a.name for a in node.names
                       if a.name in ENV_NAMES}
    return [
        (node.lineno, "RL201") for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names)
        or (isinstance(node, ast.Name) and node.id in direct
            and isinstance(node.ctx, ast.Load))
    ]


def cycle_findings(tree: ast.AST, rel: str) -> list:
    if not rel.startswith("repro/harness/") or rel == "repro/harness/runner.py":
        return []
    return [
        (node.lineno, "RL301") for node in ast.walk(tree)
        if isinstance(node, ast.Call) and "scale_out" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)
        )
    ]


REF_KEYED = re.compile(
    r"\b(Dict|Set|FrozenSet|Mapping|MutableMapping|DefaultDict|OrderedDict"
    r"|dict|set|frozenset|defaultdict)\[\s*['\"]?ChunkRef\b"
)


def ref_table_findings(tree: ast.AST, rel: str) -> list:
    if not rel.startswith("repro/core/") or rel == "repro/core/ledger.py":
        return []
    return [
        (node.lineno, "RL302")
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        if isinstance(node, ast.AnnAssign)
        and (isinstance(node.target, ast.Attribute) or node in cls.body)
        and REF_KEYED.search(ast.unparse(node.annotation))
    ]


def _calls(scope: ast.AST, var: str, method: str) -> bool:
    return any(
        isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        and n.func.attr == method and isinstance(n.func.value, ast.Name)
        and n.func.value.id == var
        for n in ast.walk(scope)
    )


def _shm_in_function(fn: ast.AST) -> list:
    found = []
    for call in ast.walk(fn):
        func = getattr(call, "func", None)
        if not isinstance(call, ast.Call) or "SharedMemory" not in (
            getattr(func, "id", None), getattr(func, "attr", None)
        ):
            continue
        kw = {k.arg: k.value for k in call.keywords}
        var = next((
            a.targets[0].id for a in ast.walk(fn)
            if isinstance(a, ast.Assign) and a.value is call
            and isinstance(a.targets[0], ast.Name)
        ), None)
        if getattr(kw.get("create"), "value", None) is True:
            if var is None:
                found.append((call.lineno, "RL403"))
                continue
            closed = any(
                _calls(stmt, var, "close")
                for t in ast.walk(fn) if isinstance(t, ast.Try)
                for stmt in t.finalbody
            )
            released = _calls(fn, var, "unlink") or any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "unregister" for n in ast.walk(fn)
            )
            if not (closed and released):
                found.append((call.lineno, "RL401"))
        elif "name" in kw and var is not None and not (
            _calls(fn, var, "close") and _calls(fn, var, "unlink")
        ):
            found.append((call.lineno, "RL402"))
    return found


def shm_findings(tree: ast.AST, rel: str) -> list:
    if not rel.startswith("repro/parallel/"):
        return []
    return [
        hit for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for hit in _shm_in_function(fn)
    ]


def findings(source: str, rel: str) -> list:
    tree = ast.parse(source)
    return sorted(set(
        env_findings(tree, rel) + shm_findings(tree, rel)
        + cycle_findings(tree, rel) + ref_table_findings(tree, rel)
    ))


def test_src_repro_keeps_both_rules():
    files = sorted((SRC / "repro").rglob("*.py"))
    assert any(f.parent.name == "parallel" for f in files)
    bad = [
        f"{path.relative_to(SRC)}:{line}: {code} {WHY[code]}"
        for path in files
        for line, code in findings(
            path.read_text(), path.relative_to(SRC).as_posix()
        )
    ]
    assert bad == [], "\n".join(bad)


FIXTURES = [
    ("fail_hand_written_cycle", "repro/harness/experiments.py", ["RL301"], """
def grow(cluster, batch):
    if cluster.total_bytes + batch.total_bytes > 0.85 * cluster.capacity_bytes:
        cluster.scale_out(2)
    cluster.ingest(batch.chunks)
"""),
    ("pass_runner_cycle", "repro/harness/runner.py", [], """
def run_cycle(self, cycle):
    report = self.cluster.scale_out(self.config.fixed_step)
"""),
    ("fail_ref_keyed_cache", "repro/core/hilbert_curve.py", ["RL302"], """
class HilbertCurvePartitioner:
    def __init__(self, nodes):
        self._index_cache: Dict[ChunkRef, int] = {}
"""),
    ("fail_ref_set_field", "repro/core/extendible_hash.py", ["RL302"], """
@dataclass
class Bucket:
    node: int
    members: Set[ChunkRef] = field(default_factory=set)
"""),
    ("pass_table_lookup_and_columns", "repro/core/ledger.py", [], """
class ArrayChunkLedger:
    def __init__(self, nodes):
        self._id_of: Optional[Dict[ChunkRef, int]] = None
"""),
    ("pass_scheme_column", "repro/core/round_robin.py", [], """
class RoundRobinPartitioner:
    def _derive(self, split):
        seen: Dict[ChunkRef, int] = {}
        self._nodes: List[int] = []
        return {"ordinal": np.arange(len(split.first))}
"""),
    ("fail_from_import", "repro/cluster/costs.py", ["RL201"], """
from os import getenv
def scan_rate():
    raw = getenv("REPRO_COST_SCAN_S_PER_B")
    return float(raw) if raw else None
"""),
    ("fail_raw_read", "repro/parallel/engine.py", ["RL201"], """
import os
def pick_start_method():
    return os.environ.get("REPRO_EXEC_START", "").strip() or "spawn"
"""),
    ("pass_sanctioned_config", "repro/config.py", [], """
import os
def env_text(name, default=""):
    return os.environ.get(name, default).strip()
"""),
    ("pass_sanctioned_helpers", "repro/parallel/engine.py", [], """
from repro.config import env_float, env_text
def pick_start_method():
    return env_text("REPRO_EXEC_START") or "spawn"
def request_timeout():
    return env_float("REPRO_EXEC_TIMEOUT", 30.0)
"""),
    ("fail_attach_no_unlink", "repro/parallel/transport.py", ["RL402"], """
from multiprocessing import shared_memory
def unpack(frame):
    shm = shared_memory.SharedMemory(name=frame["shm"])
    try:
        return bytes(shm.buf)
    finally:
        shm.close()
"""),
    ("fail_create_leak", "repro/parallel/transport.py", ["RL401"], """
from multiprocessing import shared_memory
def pack(payload):
    shm = shared_memory.SharedMemory(create=True, size=len(payload))
    shm.buf[:len(payload)] = payload
    return {"shm": shm.name}
"""),
    ("fail_unbound_create", "repro/parallel/transport.py", ["RL403"], """
from multiprocessing import shared_memory
def reserve(size):
    return shared_memory.SharedMemory(create=True, size=size).name
"""),
    ("pass_handoff", "repro/parallel/transport.py", [], """
from multiprocessing import resource_tracker, shared_memory
def pack(payload):
    shm = shared_memory.SharedMemory(create=True, size=len(payload))
    try:
        shm.buf[:len(payload)] = payload
    finally:
        shm.close()
        resource_tracker.unregister(shm._name, "shared_memory")
    return {"shm": shm.name}
def unpack(frame):
    shm = shared_memory.SharedMemory(name=frame["shm"])
    try:
        return bytes(shm.buf)
    finally:
        shm.close()
        shm.unlink()
"""),
]


@pytest.mark.parametrize(
    "rel, expected, source", [f[1:] for f in FIXTURES],
    ids=[f[0] for f in FIXTURES],
)
def test_fixture_verdict(rel, expected, source):
    assert sorted({code for _, code in findings(source, rel)}) == expected
