"""Shared machinery for the reprolint checkers.

reprolint is a project-invariant linter: each checker encodes a
protocol this repo has actually depended on (and in two cases, shipped
a bug against — see ``docs/invariants.md``).  Checkers work on parsed
ASTs only; nothing under ``src/`` is imported, so the suite runs in any
interpreter that can parse the code.

A :class:`SourceFile` pairs a file's AST with its *virtual* repo path
(``rel``), e.g. ``repro/core/catalog.py`` — path-scoped checkers key
off ``rel``, which lets the fixture corpus present a snippet *as if*
it lived at a real module path.  A :class:`Project` is the set of
files one run analyzes plus an accessor for the source-of-truth lock
tables in ``repro/lockdep.py``.

There is deliberately **no inline-suppression syntax**: a finding is
either a real violation (fix the code) or a checker bug (fix the
checker).
"""

from __future__ import annotations

import ast
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

#: Repo root (``tools/reprolint/base.py`` -> three parents up).
REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class Finding:
    """One violation: where, which rule, and why it matters."""

    checker: str
    path: str
    line: int
    code: str
    message: str

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}: {self.code} "
            f"[{self.checker}] {self.message}"
        )


class SourceFile:
    """A parsed source file with its virtual repo-relative path."""

    def __init__(
        self, path: str, text: str, rel: Optional[str] = None
    ) -> None:
        self.path = path
        self.text = text
        self.tree = ast.parse(text, filename=path)
        self.rel = rel if rel is not None else derive_rel(path)


def derive_rel(path: str) -> str:
    """The path from the last ``repro``/``tools`` component onward.

    ``src/repro/core/catalog.py`` -> ``repro/core/catalog.py``; paths
    not under either package are returned unchanged.
    """
    parts = Path(path).as_posix().split("/")
    for anchor in ("repro", "tools"):
        if anchor in parts:
            return "/".join(parts[parts.index(anchor):])
    return Path(path).as_posix()


class Project:
    """The file set one reprolint run analyzes."""

    def __init__(self, files: Sequence[SourceFile]) -> None:
        self.files = list(files)
        self._by_rel: Dict[str, SourceFile] = {
            f.rel: f for f in self.files
        }

    def by_rel(self, rel: str) -> Optional[SourceFile]:
        return self._by_rel.get(rel)

    def table_source(self, rel: str) -> Optional[SourceFile]:
        """The file holding a source-of-truth table.

        Prefers a project file at ``rel`` (fixture corpora ship their
        own registry snippets); falls back to the real file under
        ``src/`` so a partial run — or a fixture without its own table
        — still checks against the repo's declarations.
        """
        found = self.by_rel(rel)
        if found is not None:
            return found
        real = REPO_ROOT / "src" / rel
        if real.is_file():
            return SourceFile(str(real), real.read_text(), rel=rel)
        return None


def module_literal(
    source: SourceFile, name: str
) -> Optional[object]:
    """Evaluate a module-level literal assignment named ``name``."""
    for node in source.tree.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if (
            isinstance(target, ast.Name)
            and target.id == name
            and value is not None
        ):
            try:
                return ast.literal_eval(value)
            except ValueError:
                return None
    return None


def collect_files(paths: Sequence[str]) -> List[SourceFile]:
    """Expand CLI path arguments into parsed source files."""
    out: List[SourceFile] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for f in candidates:
            out.append(SourceFile(f.as_posix(), f.read_text()))
    return out


# ----------------------------------------------------------------------
# small AST helpers shared by several checkers
# ----------------------------------------------------------------------
def call_name(node: ast.expr) -> Optional[str]:
    """The trailing name of a call target (``a.b.c()`` -> ``c``)."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_self_attr(node: ast.expr, attr: str) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def functions_of(
    tree: ast.AST,
) -> Dict[str, ast.FunctionDef]:
    """Qualified name -> def, one class level deep (``Cls.meth``)."""
    out: Dict[str, ast.FunctionDef] = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node  # type: ignore[assignment]
        elif isinstance(node, ast.ClassDef):
            for sub in ast.iter_child_nodes(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    out[f"{node.name}.{sub.name}"] = sub  # type: ignore[assignment]
    return out


def arg_names(fn: ast.FunctionDef) -> List[str]:
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args]
    if a.vararg:
        names.append("*" + a.vararg.arg)
    names.extend(x.arg for x in a.kwonlyargs)
    if a.kwarg:
        names.append("**" + a.kwarg.arg)
    return names


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
CheckerFn = Callable[[Project], List[Finding]]

#: name -> checker entry point; populated by :func:`all_checkers`.
_REGISTRY: Dict[str, CheckerFn] = {}


def all_checkers() -> Dict[str, CheckerFn]:
    if not _REGISTRY:
        from tools.reprolint import (
            envaccess,
            lockorder,
            seqlock,
            shmem,
        )

        _REGISTRY.update(
            {
                "env-discipline": envaccess.check,
                "seqlock-epoch": seqlock.check,
                "shm-lifecycle": shmem.check,
                "lock-order": lockorder.check,
            }
        )
    return _REGISTRY


def run(
    project: Project, only: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run the (selected) checkers and return sorted findings."""
    findings: List[Finding] = []
    for name, fn in all_checkers().items():
        if only and name not in only:
            continue
        findings.extend(fn(project))
    findings.sort(key=lambda f: (f.path, f.line, f.code))
    return findings


def findings_json(findings: Sequence[Finding]) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2)


# ----------------------------------------------------------------------
# fixture corpus
# ----------------------------------------------------------------------
FIXTURES_DIR = Path(__file__).resolve().parent / "fixtures"


@dataclass(frozen=True)
class FixtureCase:
    """One self-test case: a directory of virtual files + expectation."""

    checker: str
    name: str
    path: Path
    expected: tuple


def _virtual_rel(text: str, fallback: str) -> str:
    """Honor a ``# rel: <path>`` directive on a fixture's first line."""
    first = text.split("\n", 1)[0].strip()
    if first.startswith("# rel:"):
        return first.split(":", 1)[1].strip()
    return fallback


def load_case(case_dir: Path) -> FixtureCase:
    expect = (case_dir / "expect.txt").read_text().split()
    expected = tuple(c for c in expect if c != "clean")
    return FixtureCase(
        checker=case_dir.parent.name,
        name=case_dir.name,
        path=case_dir,
        expected=expected,
    )


def case_project(case: FixtureCase) -> Project:
    files = []
    for f in sorted(case.path.glob("*.py")):
        text = f.read_text()
        files.append(
            SourceFile(
                f.as_posix(), text, rel=_virtual_rel(text, f.name)
            )
        )
    return Project(files)


def iter_cases(
    checker: Optional[str] = None,
) -> Iterator[FixtureCase]:
    for checker_dir in sorted(FIXTURES_DIR.iterdir()):
        if not checker_dir.is_dir():
            continue
        if checker and checker_dir.name != checker:
            continue
        for case_dir in sorted(checker_dir.iterdir()):
            if (case_dir / "expect.txt").is_file():
                yield load_case(case_dir)


def run_case(case: FixtureCase) -> List[Finding]:
    return run(case_project(case), only=[case.checker])
