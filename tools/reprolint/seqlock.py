"""Checker 3 — catalog seqlock/epoch discipline (``RL30x``).

``ChunkCatalog`` publishes mutations through a seqlock: the write
counter goes odd while its published columns (``_chunks`` payload
handles / ``_size`` bytes / ``_owner`` published owner) or the
per-array sorted views are being rewritten, and optimistic snapshot
captures discard any gather that overlapped an odd window.  The ref
column (``_refs``) and the *planned* owner live in the partitioner's
chunk table, which is not a seqlock class: the partitioner writes them
for ids the catalog does not publish yet, and the only rewrite of a
published id there — compaction — runs inside the catalog's window.
The epochs are the second half of the contract: a mutation must bump the touched arrays' epochs (via
``self._touch``) **after** its last column write and before the window
closes, or a concurrent reader can validate a stale payload handle
against a fresh epoch — the exact race PR 8 fixed (payload handles were
swapped *after* the epoch bump; pinned snapshots served merged pages
under pre-merge epochs).

Rules, applied to any class that maintains a ``self._write_seq``:

* RL301 — a protected column write (subscript store on a protected
  column, or ``insert``/``drop`` on a ``self._views`` view) outside a
  ``with self._write():`` window.  Private helpers may store without
  their own window only if every intra-class call site is inside one.
* RL302 — a write window rewrites protected columns but never calls
  ``self._touch`` before release.
* RL303 — ``self._touch`` runs before the window's last protected
  write (the PR 8 shape, statically rejected).

Attribute *rebinds* (``self._chunks = new``) are deliberately exempt:
``compact()`` and the growth to the table's capacity rebuild columns
content-preservingly and must not advance epochs — that exemption is
part of the protocol, not a checker gap.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from tools.reprolint.base import Finding, Project, is_self_attr

CHECKER = "seqlock-epoch"

#: Columns whose subscript stores publish catalog state.
PROTECTED = {"_chunks", "_size", "_owner"}

Pos = Tuple[int, int]


class _Window:
    __slots__ = ("stores", "touches", "calls", "line")

    def __init__(self, line: int) -> None:
        self.line = line
        self.stores: List[Pos] = []
        self.touches: List[Pos] = []
        self.calls: List[Tuple[str, Pos]] = []


class _MethodScan(ast.NodeVisitor):
    """Collect protected stores / windows / self-calls for one method."""

    def __init__(self, view_names: Set[str]) -> None:
        self.view_names = view_names
        self.windows: List[_Window] = []
        self.outside_stores: List[Pos] = []
        self.outside_calls: List[Tuple[str, Pos]] = []
        self._stack: List[_Window] = []

    # -- events --------------------------------------------------------
    def _record_store(self, node: ast.AST) -> None:
        pos = (node.lineno, node.col_offset)
        if self._stack:
            self._stack[-1].stores.append(pos)
        else:
            self.outside_stores.append(pos)

    def _record_call(self, name: str, node: ast.AST) -> None:
        pos = (node.lineno, node.col_offset)
        if self._stack:
            if name == "_touch":
                self._stack[-1].touches.append(pos)
            else:
                self._stack[-1].calls.append((name, pos))
        else:
            self.outside_calls.append((name, pos))

    # -- structure -----------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        opens = any(
            isinstance(item.context_expr, ast.Call)
            and is_self_attr(item.context_expr.func, "_write")
            for item in node.items
        )
        if opens:
            window = _Window(node.lineno)
            self.windows.append(window)
            self._stack.append(window)
            self.generic_visit(node)
            self._stack.pop()
        else:
            self.generic_visit(node)

    def _store_targets(self, targets: List[ast.expr]) -> None:
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Subscript) and any(
                    is_self_attr(sub.value, col) for col in PROTECTED
                ):
                    self._record_store(sub)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._store_targets(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._store_targets([node.target])
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # self.<method>(...)
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                self._record_call(func.attr, node)
            # <view>.insert(...) / <view>.drop(...)
            elif func.attr in ("insert", "drop") and (
                (
                    isinstance(func.value, ast.Name)
                    and func.value.id in self.view_names
                )
                or (
                    isinstance(func.value, ast.Subscript)
                    and is_self_attr(func.value.value, "_views")
                )
            ):
                self._record_store(node)
        self.generic_visit(node)


def _view_names(fn: ast.FunctionDef) -> Set[str]:
    """Local names bound from ``self._views`` within this method."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
            is_self_attr(sub, "_views")
            for sub in ast.walk(node.value)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _is_seqlock_class(cls: ast.ClassDef) -> bool:
    return any(
        is_self_attr(node, "_write_seq")
        for node in ast.walk(cls)
        if isinstance(node, ast.Attribute)
    )


def check(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for src in project.files:
        if not src.rel.startswith("repro/"):
            continue
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ClassDef) and _is_seqlock_class(
                node
            ):
                findings.extend(_check_class(src.path, node))
    return findings


def _check_class(path: str, cls: ast.ClassDef) -> List[Finding]:
    findings: List[Finding] = []
    methods = {
        m.name: m
        for m in cls.body
        if isinstance(m, ast.FunctionDef)
    }
    scans: Dict[str, _MethodScan] = {}
    for name, fn in methods.items():
        scan = _MethodScan(_view_names(fn))
        for stmt in fn.body:
            scan.visit(stmt)
        scans[name] = scan

    storing_helpers = {
        name
        for name, scan in scans.items()
        if name.startswith("_")
        and (
            scan.outside_stores
            or any(w.stores for w in scan.windows)
        )
    }

    # -- RL301: stores outside a write window -------------------------
    for name, scan in scans.items():
        if not scan.outside_stores:
            continue
        fn = methods[name]
        private = name.startswith("_") and not name.startswith("__")
        if private:
            call_sites_in = 0
            call_sites_out = 0
            for other, other_scan in scans.items():
                if other == name:
                    continue
                call_sites_in += sum(
                    1
                    for w in other_scan.windows
                    for cname, _pos in w.calls
                    if cname == name
                )
                call_sites_out += sum(
                    1
                    for cname, _pos in other_scan.outside_calls
                    if cname == name
                )
            if call_sites_in and not call_sites_out:
                continue  # helper only ever runs inside a window
        line = scan.outside_stores[0][0]
        findings.append(
            Finding(
                CHECKER,
                path,
                line,
                "RL301",
                f"{cls.name}.{name} writes a protected catalog column "
                "outside a `with self._write():` window; optimistic "
                "snapshot captures can observe the torn write. Wrap "
                "the mutation in the seqlock window (or make every "
                "caller of this helper hold one).",
            )
        )

    # -- RL302/RL303: epoch bump discipline per window ----------------
    for name, scan in scans.items():
        for window in scan.windows:
            effective: List[Pos] = list(window.stores)
            effective.extend(
                pos
                for cname, pos in window.calls
                if cname in storing_helpers
            )
            if not effective:
                continue
            if not window.touches:
                findings.append(
                    Finding(
                        CHECKER,
                        path,
                        window.line,
                        "RL302",
                        f"{cls.name}.{name}: write window rewrites "
                        "protected columns but never bumps the array "
                        "epoch (self._touch) before release; readers "
                        "will keep serving cached state for mutated "
                        "arrays (the invariant PR 8 hardened).",
                    )
                )
                continue
            if max(window.touches) < max(effective):
                findings.append(
                    Finding(
                        CHECKER,
                        path,
                        max(effective)[0],
                        "RL303",
                        f"{cls.name}.{name}: protected column written "
                        "after self._touch inside the write window — "
                        "the PR 8 race shape: a concurrent snapshot "
                        "can validate the *old* payload handle "
                        "against the *new* epoch. Bump the epoch "
                        "after the last column write.",
                    )
                )
    return findings
