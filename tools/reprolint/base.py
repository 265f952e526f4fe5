"""Shared machinery for the reprolint checkers.

reprolint is a project-invariant linter: each checker encodes a
protocol this repo has actually depended on (see
``docs/invariants.md``).  Checkers work on parsed
ASTs only; nothing under ``src/`` is imported, so the suite runs in any
interpreter that can parse the code.

A :class:`SourceFile` pairs a file's AST with its *virtual* repo path
(``rel``), e.g. ``repro/core/catalog.py`` — path-scoped checkers key
off ``rel``, which lets the fixture corpus present a snippet *as if*
it lived at a real module path.  A :class:`Project` is the set of
files one run analyzes.

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
# runner
# ----------------------------------------------------------------------
CheckerFn = Callable[[Project], List[Finding]]

#: name -> checker entry point; populated by :func:`all_checkers`.
_REGISTRY: Dict[str, CheckerFn] = {}


def all_checkers() -> Dict[str, CheckerFn]:
    if not _REGISTRY:
        from tools.reprolint import envaccess, shmem

        _REGISTRY.update(
            {
                "env-discipline": envaccess.check,
                "shm-lifecycle": shmem.check,
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
