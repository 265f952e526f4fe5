"""reprolint — project-invariant static analysis for this repo.

Run it over the source tree::

    python -m tools.reprolint src/

Two checkers, each guarding a protocol the repo has shipped bugs
against — see ``docs/invariants.md`` for the checker → protocol →
motivating-PR table:

=================  ====================================================
checker            invariant
=================  ====================================================
env-discipline     no raw ``os.environ`` access outside
                   ``repro/config.py``
shm-lifecycle      every SharedMemory segment is closed and unlinked
                   (or explicitly handed off) on all paths
=================  ====================================================
"""

from tools.reprolint.base import (
    Finding,
    Project,
    SourceFile,
    all_checkers,
    collect_files,
    findings_json,
    iter_cases,
    run,
    run_case,
)

__all__ = [
    "Finding",
    "Project",
    "SourceFile",
    "all_checkers",
    "collect_files",
    "findings_json",
    "iter_cases",
    "run",
    "run_case",
]
